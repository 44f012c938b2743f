"""Tests of the benchmark itself: smoke-size runs of each workload, repeatable
counts, and the output contract.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Apply, Query, Result, Selftest, SexprReplay, Workload, _guard  # noqa: E402

from systemt import harness  # noqa: E402
from systemt.dialogue import Oracle  # noqa: E402


def small(name, seed):
    """A smoke-size workload: a handful of inputs, same code paths."""
    if name == "selftest":
        return Selftest(seed, n_terms=5)
    if name == "query":
        return Query(seed, n_inputs=40)
    return Apply(seed, n_generated=2)


def smoke(name, seed, trace):
    wl = small(name, seed)
    wl.prepare()
    return run.Run(wl, Tracer(), seconds=0.0, trace=trace)


@pytest.mark.parametrize("name", ["selftest", "query", "apply"])
def test_smoke_run_reports_every_metric(name):
    r = smoke(name, seed=1, trace=False)
    assert r.wrong_answers() == []
    values, _ = r.end_to_end([0.05])
    assert set(values) == set(run.END_TO_END)
    assert all(math.isfinite(v) and v > 0 for v in values.values())

    r = smoke(name, seed=1, trace=True)
    assert r.wrong_answers() == []
    values, _ = r.per_layer()
    assert set(values) == set(run.PER_LAYER)
    assert values["trace.overhead_ratio"] > 0


def test_selftest_keeps_the_selftest_ratios():
    values, _ = smoke("selftest", seed=2, trace=True).per_layer()
    # 10 corpus + 5 generated terms; 20 oracles per term, 10 for thm45,
    # one case per term for the uniform suites, 2 trees per 5 terms for lem36
    assert values["harness.thm16_cases"] == 15 * 20
    assert values["harness.thm45_cases"] == 15 * 10
    assert values["harness.thm55_cases"] == 15
    assert values["harness.lem36_cases"] == 3 * 2 * 20
    assert values["harness.lem44_s"] > 0


COUNTS = [m for m, unit in run.PER_LAYER.items() if unit == "count"]


@pytest.mark.parametrize("name", ["selftest", "query", "apply"])
def test_counts_repeat_for_a_seed(name):
    first, _ = smoke(name, seed=3, trace=True).per_layer()
    second, _ = smoke(name, seed=3, trace=True).per_layer()
    assert {m: first[m] for m in COUNTS} == {m: second[m] for m in COUNTS}


def test_inputs_change_with_the_seed():
    assert [i[0] for i in Query(1, 40).inputs] != [i[0] for i in Query(2, 40).inputs]
    assert [i[0] for i in Selftest(1, 5).inputs] != [i[0] for i in Selftest(2, 5).inputs]
    assert [i[1] for i in Apply(1, 2).inputs] != [i[1] for i in Apply(2, 2).inputs]
    assert [i[0] for i in Query(1, 40).inputs] == [i[0] for i in Query(1, 40).inputs]


def test_deep_query_texts_are_a_probe_not_inputs():
    wl = Query(1, 40)
    assert len(wl.inputs) == 38 and len(wl.deep) == 2
    r = smoke("query", seed=5, trace=True)
    assert len(r.probe) == 2
    assert r.attempted_failed()[1] == 0
    values, _ = r.per_layer()
    raised = sum(cls == "RecursionError" for res in r.probe for _, cls in res.errors)
    assert values["query.fail.RecursionError"] == raised


def test_redraw_replaces_generated_inputs_only_and_repeats_for_a_seed():
    a, b = Selftest(1, 5), Selftest(1, 5)
    assert not a.redraw(0)
    assert a.redraw(2) and b.redraw(2)
    assert a.inputs[2][0] == b.inputs[2][0] != Selftest(1, 5).inputs[2][0]
    assert a.redrawn["a call raised"] == 5
    a, b = Apply(1, 2), Apply(1, 2)
    assert not a.redraw(0) and not a.redraw(len(a.inputs) - 1)
    assert a.redraw(10) and b.redraw(10)
    assert a.inputs[10][1] == b.inputs[10][1] != Apply(1, 2).inputs[10][1]
    q = Query(7, 40)
    k = min(q.cfgs)
    before = q.inputs[k][0]
    assert q.redraw(k) and q.inputs[k][0] != before


class Flaky(Workload):
    """Input 1 raises until drawn again; `answer` is what a check compares."""

    name = "flaky"
    root = "flaky.input"

    def __init__(self, can_redraw=True, wrong=False, fixed_by_redraw=True):
        super().__init__()
        self.inputs = ["ok", "raises", "ok"]
        self.can_redraw, self.wrong, self.fixed_by_redraw = can_redraw, wrong, fixed_by_redraw

    def run(self, i, tracer):
        res = Result(cases=1)
        if self.inputs[i] == "raises":
            _guard(res, tracer, tracer.call, "syntax.parse", self._boom)
            if self.wrong:
                res.mismatches.append(("syntax", "wrong"))
        elif self.inputs[i] == "slow":
            _guard(res, tracer, tracer.call, "set_model.eval_set", time.sleep, 5)
        elif self.inputs[i] == "slow outside a guarded call":
            time.sleep(5)
        return res

    @staticmethod
    def _boom():
        raise RecursionError

    def redraw(self, i):
        if not self.can_redraw:
            return False
        if self.fixed_by_redraw:
            self.inputs[i] = "ok"
        self.redrawn["a call raised"] += 1
        return True


def test_an_input_that_raises_in_the_first_repeat_is_drawn_again_and_counted():
    r = run.Run(Flaky(), Tracer(), seconds=0.0, trace=True)
    assert r.attempted_failed() == (6, 0)
    assert r.wl.redrawn["a call raised"] == 1
    values, _ = r.per_layer()
    assert values["syntax.fail"] == 1
    assert values["query.fail.RecursionError"] == 1
    assert values["fail_ratio"] == 1 / 4


def test_an_input_that_cannot_be_drawn_again_fails_when_timed():
    r = run.Run(Flaky(can_redraw=False), Tracer(), seconds=0.0, trace=False)
    assert r.attempted_failed() == (3, 1)
    assert r.failed_inputs() == [1]


@pytest.mark.parametrize(
    "slow, layer", [("slow", "set_model"), ("slow outside a guarded call", "bench")]
)
def test_an_input_past_the_time_limit_is_stopped_and_drawn_again(monkeypatch, slow, layer):
    monkeypatch.setattr(run, "INPUT_TIME_LIMIT_S", 0.1)
    wl = Flaky()
    wl.inputs[1] = slow
    started = time.perf_counter()
    r = run.Run(wl, Tracer(), seconds=0.0, trace=True)
    assert time.perf_counter() - started < 2
    assert r.attempted_failed() == (6, 0)
    assert r.dropped[0][1].errors == [(layer, "TimeLimit")]
    values, _ = r.per_layer()
    assert values["query.fail.other"] == 1


def test_redraws_stop_when_every_draw_raises():
    r = run.Run(Flaky(fixed_by_redraw=False), Tracer(), seconds=0.0, trace=False)
    assert r.wl.redrawn["a call raised"] == run.MAX_REDRAWS
    assert r.failed_inputs() == [1]


def test_a_wrong_answer_is_kept_not_drawn_again():
    r = run.Run(Flaky(wrong=True), Tracer(), seconds=0.0, trace=False)
    assert r.wl.redrawn["a call raised"] == 0
    assert r.wrong_answers()


def test_query_counts_source_and_translation_sizes():
    values, _ = smoke("query", seed=4, trace=True).per_layer()
    assert values["syntax.source_bytes"] > 0
    assert values["church.translated_nodes"] > 0
    assert values["syntax.parse_s"] > 0
    assert values["set_model.eval_set_calls"] > 0


def test_sexpr_replay_follows_answers_and_stops_at_cuts():
    replay = SexprReplay("(branch 2 (0 (leaf 5)) (1 (branch 0 (0 (...)) (1 (leaf 7)))))")
    assert replay.leaf(Oracle((), 0)) == 5
    assert replay.leaf(Oracle((), 1)) == 7
    assert replay.leaf(Oracle((0,), 1)) is None


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    tr.on, tr.epoch = True, 0
    outer = tr.open("outer")
    tr.call("inner", time.sleep, 0.02)
    tr.close(outer)
    self_times = tr.self_times()[0]
    assert self_times["inner"] >= 0.02
    assert self_times["outer"] < self_times["inner"]


def test_failed_layer_is_the_innermost_call():
    tr = Tracer()

    def boom():
        raise RecursionError

    with pytest.raises(RecursionError):
        tr.call("outer.layer", tr.call, "inner.layer", boom)
    assert tr.failed_layer == "inner.layer"


def test_benchmark_json_matches_the_runner():
    assert run.SUITES == harness.SUITE_IDS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == {"selftest", "query", "apply"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_setup_time_is_measured_in_fresh_interpreters():
    times = run.measure_setup("query")
    assert len(times) == run.SETUP_RUNS
    assert all(0 < t < 60 for t in times)


def test_refuses_to_run_without_the_toolkit(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
