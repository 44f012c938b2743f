"""Layer-call recording for the benchmark.

Every call the benchmark makes into a layer of the toolkit goes through
`Tracer.call`.  With tracing off the wrapper only notes which layer raised,
so an untraced run pays one extra Python call per layer call.  With tracing on
it also keeps one span per call in flat arrays (name, start, end, parent span,
input id, epoch), which stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.on = False
        self.input_id = -1
        self.epoch = -1
        #: the first layer whose call raised since the last reset
        self.failed_layer = None
        self._names: "list[str]" = []
        self._name_ids: "dict[str, int]" = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._input = array("l")
        self._epoch = array("l")
        self._open: "list[int]" = []

    def call(self, name, fn, *args):
        """Run fn(*args) as a call into the layer `name` (e.g. "set_model.eval_set")."""
        if not self.on:
            try:
                return fn(*args)
            except Exception:
                self.failed_layer = self.failed_layer or name
                raise
        span = self.open(name)
        try:
            return fn(*args)
        except Exception:
            self.failed_layer = self.failed_layer or name
            raise
        finally:
            self.close(span)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        span = len(self._name)
        self._name.append(nid)
        self._parent.append(self._open[-1] if self._open else -1)
        self._input.append(self.input_id)
        self._epoch.append(self.epoch)
        self._end.append(0.0)
        self._open.append(span)
        self._start.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self._end[span] = time.perf_counter()
        self._open.pop()

    def self_times(self) -> "dict[int, dict[str, float]]":
        """Per epoch and span name: summed self time, i.e. each span's duration
        minus the time its child spans cover."""
        child = [0.0] * len(self._name)
        for i, p in enumerate(self._parent):
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        out: "dict[int, dict[str, float]]" = defaultdict(lambda: defaultdict(float))
        for i, nid in enumerate(self._name):
            out[self._epoch[i]][self._names[nid]] += self._end[i] - self._start[i] - child[i]
        return out

    def call_counts(self) -> "dict[int, dict[str, int]]":
        out: "dict[int, dict[str, int]]" = defaultdict(lambda: defaultdict(int))
        for i, nid in enumerate(self._name):
            out[self._epoch[i]][self._names[nid]] += 1
        return out

    def dump(self, path) -> None:
        """Write every span as columns; times are seconds from the first span."""
        t0 = self._start[0] if self._start else 0.0
        doc = {
            "names": self._names,
            "name": self._name.tolist(),
            "start": [round(t - t0, 7) for t in self._start],
            "end": [round(t - t0, 7) for t in self._end],
            "parent": self._parent.tolist(),
            "input": self._input.tolist(),
            "epoch": self._epoch.tolist(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
