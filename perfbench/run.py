"""Benchmark of the systemt toolkit, one workload per run.

    python3 perfbench/run.py --workload {selftest,query,apply} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: the toolkit is imported from ./src.  The
seed makes the inputs; the run repeats the same inputs for about S seconds,
one client in a closed loop, and checks every answer against the other route
to it.  Each input's time is the median over the repeats.  In the first
repeat, a generated input on which a call raises is drawn again from the seed
before it is timed, so the repeats measure inputs that fail nowhere.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones (END_TO_END); with --trace 1 the run alternates untraced and traced
repeats and the metrics are the per-layer ones (PER_LAYER), from the traced
repeats, whose spans are written to perfbench/out/<workload>-trace.json.

Exit codes: 0 when every answer checked, 1 when one did not, 2 when the
toolkit's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SUITES = ("thm16", "lem36", "thm37", "lem40", "lem44", "thm45", "lem50", "lem54", "thm55")
LAYERS = ("syntax", "church", "set_model", "dialogue", "moduli", "harness")

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "term_ms_p50": "ms",
    "term_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: span name -> per-layer self-time metric
SPAN_METRICS = {
    "set_model.eval_set": "set_model.eval_set_s",
    "set_model.apply_set": "set_model.apply_set_s",
    "church.dialogue_tree_int": "church.dialogue_tree_int_s",
    "syntax.parse": "syntax.parse_s",
    "syntax.typecheck": "syntax.typecheck_s",
    "syntax.pretty": "syntax.pretty_s",
    "dialogue.dialogue_tree": "dialogue.dialogue_tree_s",
    "dialogue.dieval": "dialogue.dieval_s",
    "dialogue.tree_sexpr": "dialogue.tree_sexpr_s",
    "moduli.external": "moduli.external_s",
    **{f"harness.{s}": f"harness.{s}_s" for s in SUITES},
}
SIZE_METRICS = ("church.translated_nodes", "dialogue.pruned_nodes", "syntax.source_bytes")
FAIL_CLASSES = ("RecursionError", "mismatch", "other")

PER_LAYER = {
    **{m: "s" for m in SPAN_METRICS.values()},
    "set_model.eval_set_calls": "count",
    "set_model.apply_set_calls": "count",
    **{m: "count" for m in SIZE_METRICS},
    **{f"harness.{s}_cases": "count" for s in SUITES},
    **{f"{layer}.fail": "count" for layer in LAYERS},
    **{f"query.fail.{c}": "count" for c in FAIL_CLASSES},
    "fail_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: fresh interpreters started to measure setup_s; the median is reported
SETUP_RUNS = 15
#: times a generated input is drawn again before it is kept as it is
MAX_REDRAWS = 10
#: seconds an input may run in the first repeat before it is stopped and drawn
#: again.  Inputs normally take well under a second, but the set model can take
#: exponential time: one 50-node term that query seed 10 draws ran for hours in
#: `eval`, while its dialogue tree has 3 nodes.
INPUT_TIME_LIMIT_S = 10.0
#: extra stack frames under which each input runs in the first repeat: a
#: term that passes there cannot raise RecursionError by a frame or two later
HEADROOM_FRAMES = 20

# The machines this runs on share cores, and their speed drifts by up to a
# quarter over tens of seconds.  A calibration slice after every input drifts
# with them, so every time is reported in reference seconds: measured seconds
# times REFERENCE_SLICE_S over the mean time of the slices run near it.
# On a shared 2-core VM, scaled repeats agreed to a few percent where raw
# ones differed by twenty.
CALIBRATION_ROUNDS = 5
#: integers the interpreter keeps cached, so the slice allocates nothing
_SMALL_INTS = tuple(range(200))
#: an input's time is scaled by the mean of the slices within this many inputs
CALIBRATION_WINDOW = 25
REFERENCE_SLICE_S = 70e-6


def measure_setup(workload: str) -> "list[float]":
    """Set-up time of each fresh interpreter, in reference seconds: scaled by
    the calibration slices that interpreter ran right after setting up."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds, mean_slice = map(float, proc.stdout.split()[-2:])
        times.append(seconds * REFERENCE_SLICE_S / mean_slice)
    return times


class TimeLimit(Exception):
    """Raised in an input of the first repeat that runs past INPUT_TIME_LIMIT_S."""


def _stop_input(signum, frame):
    raise TimeLimit(f"input ran past {INPUT_TIME_LIMIT_S} s")


def with_headroom(frames: int, fn, *args):
    """Call fn(*args) under `frames` extra stack frames."""
    if frames == 0:
        return fn(*args)
    return with_headroom(frames - 1, fn, *args)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def calibration_slice() -> float:
    """Time one fixed slice of interpreter work that allocates nothing, so
    that neither the program's heap nor the collector can change its cost."""
    acc = 0
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        for i in _SMALL_INTS:
            acc = (acc * 5 + i) & 255
    return time.perf_counter() - t0


@dataclass
class Epoch:
    """One repeat of every input."""

    traced: bool
    #: seconds per input, measured
    seconds: "list[float]"
    #: seconds of the calibration slice run after each input
    slices: "list[float]"
    results: list

    @property
    def speed(self) -> float:
        """REFERENCE_SLICE_S over the mean calibration slice of the repeat."""
        return REFERENCE_SLICE_S * len(self.slices) / sum(self.slices)

    def reference_seconds(self) -> "list[float]":
        """Each input's time scaled by the slices run around it."""
        n, w = len(self.slices), CALIBRATION_WINDOW
        prefix = [0.0]
        for s in self.slices:
            prefix.append(prefix[-1] + s)
        out = []
        for i, t in enumerate(self.seconds):
            lo, hi = max(0, i - w), min(n, i + w + 1)
            out.append(t * REFERENCE_SLICE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
        return out


class Run:
    """Repeats one workload's inputs for a time budget and keeps every result."""

    def __init__(self, wl, tracer, seconds: float, trace: bool):
        self.wl = wl
        self.tracer = tracer
        self.epochs: "list[Epoch]" = []
        #: (input, result) of each draw that raised and was replaced
        self.dropped: list = []
        self.probe = wl.run_probe(tracer) if trace else []
        signal.signal(signal.SIGALRM, _stop_input)
        for _ in range(10):
            calibration_slice()
        # The first repeat (with --trace 1, the first two) always completes;
        # later ones stop at the deadline, so the run measures `seconds`.
        deadline = time.perf_counter() + seconds
        minimum = 2 if trace else 1
        while len(self.epochs) < minimum or time.perf_counter() < deadline:
            k = len(self.epochs)
            epoch = self._epoch(trace and k % 2 == 1, deadline if k >= minimum else math.inf)
            if epoch.results:
                self.epochs.append(epoch)

    def _first_run(self, i: int):
        """Run input i in the first repeat; while a call raises on it, and no
        answer was wrong, draw it again.  Returns the kept result and when
        its run started."""
        wl = self.wl
        redraws = 0
        while True:
            t0 = time.perf_counter()
            res = self._limited_run(i)
            if not res.errors or res.mismatches or redraws == MAX_REDRAWS or not wl.redraw(i):
                return res, t0
            self.dropped.append((i, res))
            redraws += 1

    def _limited_run(self, i: int):
        """Run input i; past the time limit, stop every call it makes within
        50 ms, so each records a TimeLimit error."""
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, INPUT_TIME_LIMIT_S, 0.05)
                return with_headroom(HEADROOM_FRAMES, self.wl.run, i, self.tracer)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except TimeLimit:
            # raised outside the workload's guarded calls
            signal.setitimer(signal.ITIMER_REAL, 0)
            from workloads import Result

            return Result(errors=[("bench", TimeLimit.__name__)])

    def _epoch(self, traced: bool, deadline: float) -> Epoch:
        tr, wl = self.tracer, self.wl
        tr.on = traced
        tr.epoch = len(self.epochs)
        seconds, results, slices = [], [], []
        for i in range(len(wl.inputs)):
            if time.perf_counter() >= deadline:
                break
            tr.input_id = i
            root = tr.open(wl.root) if traced else -1
            if self.epochs:
                t0 = time.perf_counter()
                res = wl.run(i, tr)
            else:
                res, t0 = self._first_run(i)
            seconds.append(time.perf_counter() - t0)
            if traced:
                tr.close(root)
            results.append(res)
            slices.append(calibration_slice())
        tr.on = False
        return Epoch(traced, seconds, slices, results)

    def medians(self, traced: bool) -> "list[float]":
        """Per input: the median over repeats of its time in reference seconds."""
        scaled = [e.reference_seconds() for e in self.epochs if e.traced == traced]
        return [statistics.median(ts[i] for ts in scaled if i < len(ts)) for i in range(len(self.wl.inputs))]

    def all_results(self):
        """(input, result) for every input run, dropped draws included."""
        yield from self.dropped
        for e in self.epochs:
            yield from enumerate(e.results)

    def wrong_answers(self) -> "list[str]":
        """Answers that disagreed with the other route, dropped draws included.
        A call that raised is a failure, counted in `failed`, not a wrong answer."""
        return [
            f"input {i}: {layer}: {detail}"
            for i, res in self.all_results()
            for layer, detail in res.mismatches
        ]

    def failed_inputs(self) -> "list[int]":
        """Inputs that failed in a timed repeat."""
        return sorted({i for e in self.epochs for i, res in enumerate(e.results) if res.failed})

    def first_draws(self) -> list:
        """Every draw of every input in the first repeat, and the probe: where
        failed calls are counted, once per input and seed."""
        return [res for _, res in self.dropped] + self.epochs[0].results + self.probe

    def attempted_failed(self):
        results = [res for e in self.epochs for res in e.results]
        return len(results), sum(res.failed for res in results)

    def end_to_end(self, setup_times) -> "tuple[dict, dict]":
        wl = self.wl
        med = self.medians(False)
        failed = set(self.failed_inputs())
        latency = sorted(
            math.inf if i in failed else med[i] / wl.terms_in(i) * 1000.0 for i in wl.latency_inputs()
        )
        attempted, n_failed = self.attempted_failed()
        cases = sum(res.cases for res in self.epochs[0].results)
        values = {
            "setup_s": statistics.median(setup_times),
            "cases_per_s": cases / sum(med),
            "term_ms_p50": percentile(latency, 0.5),
            "term_ms_p90": percentile(latency, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {
            "setup_s": f"median of {len(setup_times)} fresh interpreters, each scaled by its own slices",
            "cases_per_s": f"{cases} cases per repeat / sum of {len(med)} per-input medians",
            "term_ms_p50": f"{len(latency)} inputs, each the median of {len(self.epochs)} repeats",
            "term_ms_p90": f"{len(latency)} inputs, {len(latency) - math.ceil(0.9 * len(latency))} beyond it",
            "peak_rss_mb": "1 process",
            "machine speed per repeat": [round(e.speed, 3) for e in self.epochs],
        }
        return values, samples

    def per_layer(self) -> "tuple[dict, dict]":
        wl, tr = self.wl, self.tracer
        traced = [k for k, e in enumerate(self.epochs) if e.traced and len(e.results) == len(wl.inputs)]
        first = self.epochs[traced[0]].results
        self_times = tr.self_times()
        calls = tr.call_counts()[traced[0]]
        values = {
            metric: statistics.median(self_times[k].get(span, 0.0) * self.epochs[k].speed for k in traced)
            for span, metric in SPAN_METRICS.items()
        }
        values["set_model.eval_set_calls"] = calls["set_model.eval_set"]
        values["set_model.apply_set_calls"] = calls["set_model.apply_set"]
        sizes = sum((wl.sizes(i) for i in range(len(wl.inputs))), Counter())
        counts = sum((res.counts for res in first), Counter())
        fails = Counter()
        draws = self.first_draws()
        for res in draws:
            for layer, cls in res.errors:
                fails[f"{layer}.fail"] += 1
                fails[f"query.fail.{cls if cls in FAIL_CLASSES else 'other'}"] += 1
            for layer, _ in res.mismatches:
                fails[f"{layer}.fail"] += 1
                fails["query.fail.mismatch"] += 1
        for metric, unit in PER_LAYER.items():
            if unit == "count" and metric not in values:
                values[metric] = sizes[metric] + counts[metric] + fails[metric]
        values["fail_ratio"] = sum(res.failed for res in draws) / len(draws)
        values["trace.overhead_ratio"] = sum(self.medians(True)) / sum(self.medians(False))
        layer_total = sum(values[m] for m in SPAN_METRICS.values()) or 1.0
        shares = {
            m: values[m] / layer_total
            for m in sorted(SPAN_METRICS.values(), key=values.get, reverse=True)
            if values[m]
        }
        classes = Counter(f"{layer}:{cls}" for res in draws for layer, cls in res.errors)
        notes = {
            "layer shares of traced layer self time": {m: round(s, 4) for m, s in shares.items()},
            "failed calls by layer:class, first repeat and probe": dict(classes),
            "draws counted": f"{len(draws) - len(self.probe)} in the first repeat, {len(self.probe)} probe inputs",
            "repeats": f"{len(traced)} traced, {len(self.epochs) - len(traced)} untraced",
            "machine speed per repeat": [round(e.speed, 3) for e in self.epochs],
        }
        return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("selftest", "query", "apply"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "systemt" / "__init__.py").is_file():
        print(f"error: no toolkit sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    setup_times = None if args.trace else measure_setup(args.workload)
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.prepare()
    tracer = Tracer()
    run = Run(wl, tracer, args.seconds, bool(args.trace))

    if args.trace:
        values, notes = run.per_layer()
        units = PER_LAYER
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{args.workload}-trace.json")
    else:
        values, notes = run.end_to_end(setup_times)
        units = END_TO_END
    wrong = run.wrong_answers()
    attempted, n_failed = run.attempted_failed()
    notes["inputs that failed in a timed repeat"] = run.failed_inputs()
    notes["generated terms drawn again, by reason"] = dict(wl.redrawn)

    print(f"workload {args.workload}, seed {args.seed}, {len(wl.inputs)} inputs per repeat")
    for key, note in notes.items():
        print(f"  {key}: {note}")
    for line in wrong[:20]:
        print(f"  WRONG {line}")
    correct = not wrong and all(math.isfinite(v) for v in values.values())
    metrics = {
        name: {"value": values[name] if math.isfinite(values[name]) else -1.0, "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
