"""The summary step of tools/bench_pair.py, on fixed numbers."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def test_summarize_takes_medians_base_iqr_and_pairs_won_in_each_direction():
    def runs(*pairs):
        return [{"cases_per_s": c, "term_ms_p50": t} for c, t in pairs]

    base = runs((100, 4.0), (110, 3.0), (120, 5.0), (130, 4.0), (140, 4.0))
    head = runs((150, 3.5), (105, 3.5), (160, 4.0), (170, 4.0), (180, 3.0))
    got = bench_pair.summarize(list(zip(base, head)), {"cases_per_s": "higher", "term_ms_p50": "lower"})
    cases, p50 = got["cases_per_s"], got["term_ms_p50"]
    assert (cases["base_median"], cases["head_median"], cases["base_iqr"]) == (120, 160, 20)
    assert cases["change"] == pytest.approx(1 / 3)
    # 105 < 110 is the one pair lost
    assert (cases["head_won"], cases["pairs"], cases["better"]) == (4, 5, "higher")
    assert (p50["base_median"], p50["head_median"], p50["base_iqr"]) == (4.0, 3.5, 0.0)
    # lower wins: 3.5 < 4.0, 4.0 < 5.0 and 3.0 < 4.0; a tie wins nothing
    assert (p50["head_won"], p50["change"]) == (3, -0.125)


def test_iqr_of_one_run_is_zero():
    assert bench_pair.iqr([5.0]) == 0.0
    assert bench_pair.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0


def _metric(better, base_median, head_median, base_iqr, head_won, pairs=10):
    return {"better": better, "base_median": base_median, "head_median": head_median,
            "base_iqr": base_iqr, "head_won": head_won, "pairs": pairs}


@pytest.mark.parametrize(
    "metric, bound, want",
    [
        # nine of ten pairs won and the medians 20 apart against an IQR of 10
        (_metric("higher", 100.0, 120.0, 10.0, 9), 0.24, "gain"),
        (_metric("lower", 4.0, 3.0, 0.5, 10), 0.24, "gain"),
        # eight of ten pairs won is no gain, however far the medians moved
        (_metric("higher", 100.0, 120.0, 10.0, 8), 0.24, "within"),
        # nine of ten pairs won, but the medians move no more than the IQR
        (_metric("higher", 100.0, 110.0, 10.0, 9), 0.24, "within"),
        # worse by 25% against a 24% bound, in each direction
        (_metric("higher", 100.0, 75.0, 1.0, 0), 0.24, "worse"),
        (_metric("lower", 4.0, 5.0, 0.1, 0), 0.24, "worse"),
        # worse, but by no more than the bound
        (_metric("higher", 100.0, 80.0, 1.0, 0), 0.24, "within"),
        (_metric("lower", 20.0, 24.0, 0.1, 0), 0.2, "within"),
        (_metric("lower", 20.0, 24.5, 0.1, 0), 0.2, "worse"),
    ],
)
def test_verdict_is_gain_worse_or_within(metric, bound, want):
    assert bench_pair.verdict(metric, bound) == want


def test_source_lines_counts_each_package_module_and_the_total(tmp_path):
    package = tmp_path / "src" / "systemt"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no newline at the end: wc -l counts 0
    (package / "notes.txt").write_text("\n\n\n")
    assert bench_pair.source_lines(tmp_path) == {"a.py": 2, "b.py": 0, "total": 2}


def test_layer_shares_count_only_timed_layers_largest_first():
    units = {"syntax.parse_s": "s", "syntax.pretty_s": "s", "syntax.fail": "count", "idle_s": "s"}
    metrics = {"syntax.parse_s": 3.0, "syntax.pretty_s": 1.0, "syntax.fail": 397, "idle_s": 0.0}
    shares = bench_pair.layer_shares(metrics, units)
    assert list(shares.items()) == [("syntax.parse_s", 0.75), ("syntax.pretty_s", 0.25)]


def test_wrong_runs_lists_each_run_not_correct_or_with_failed_calls():
    def run(correct=True, failed=0):
        return {"correct": correct, "failed": failed, "attempted": 10, "metrics": {}}

    workloads = {
        "query": {
            "runs": [{"seed": 101, "base": run(), "head": run(failed=2)},
                     {"seed": 102, "base": run(correct=False), "head": run()}],
            "trace": {"base": run(), "head": run(correct=False, failed=1)},
        },
        "apply": {"runs": [{"seed": 101, "base": run(), "head": run()}], "trace": {"base": run(), "head": run()}},
    }
    assert bench_pair.wrong_runs(workloads) == [
        "query 101 head: correct True, failed 2",
        "query 102 base: correct False, failed 0",
        "query trace head: correct False, failed 1",
    ]
    assert bench_pair.wrong_runs({"apply": workloads["apply"]}) == []


def test_main_exits_1_after_writing_a_report_with_a_wrong_run(tmp_path, monkeypatch):
    spec = {"command": [], "run_seconds": 1, "workloads": [{"name": "query"}],
            "end_to_end": [{"name": "cases_per_s", "better": "higher", "bound": 0.24}], "per_layer": []}

    def unpack(ref, into):
        (into / "src" / "systemt").mkdir(parents=True)
        (into / "src" / "systemt" / "m.py").write_text("1\n" * (3 if into.name == "head" else 5))
        (into / "BENCHMARK.json").write_text(json.dumps(spec))
        return into

    def run_bench(checkout, spec, workload, seed, trace):
        correct = not (checkout.name == "head" and seed == 2 and not trace)
        return {"correct": correct, "failed": 0, "attempted": 1, "metrics": {"cases_per_s": 1.0}}

    monkeypatch.setattr(bench_pair, "unpack", unpack)
    monkeypatch.setattr(bench_pair, "run_bench", run_bench)
    out = tmp_path / "report.json"
    assert bench_pair.main(["--base", "HEAD~1", "--seeds", "1,2", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["wrong_runs"] == ["query 2 head: correct False, failed 0"]
    assert report["workloads"]["query"]["summary"]["cases_per_s"]["verdict"] == "within"
    assert report["source_lines"] == {"base": {"m.py": 5, "total": 5}, "head": {"m.py": 3, "total": 3}}
    monkeypatch.setattr(bench_pair, "run_bench", lambda *a: {**run_bench(*a), "correct": True})
    assert bench_pair.main(["--base", "HEAD~1", "--seeds", "1,2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["wrong_runs"] == []


def _fake_checkouts(command, run_seconds, hang_on):
    """An unpack that writes a checkout holding only BENCHMARK.json, with a
    file "hang" in the checkouts named in hang_on."""
    spec = {"command": command, "run_seconds": run_seconds, "workloads": [{"name": "query"}],
            "end_to_end": [{"name": "cases_per_s", "better": "higher", "bound": 0.24}], "per_layer": []}

    def unpack(ref, into):
        into.mkdir(parents=True)
        (into / "BENCHMARK.json").write_text(json.dumps(spec))
        if into.name in hang_on:
            (into / "hang").touch()
        return into

    return unpack


#: A benchmark command that sleeps in a checkout holding "hang" and otherwise
#: prints a correct result at once; it writes its pid to "pid" first.
_SLEEPER = [sys.executable, "-c", (
    "import json, os, time\n"
    "open('pid', 'w').write(str(os.getpid()))\n"
    "if os.path.exists('hang'): time.sleep(60)\n"
    "print(json.dumps({'correct': True, 'failed': 0, 'attempted': 1, 'metrics': {'cases_per_s': {'value': 1.0}}}))"
)]


def test_a_run_past_its_time_limit_is_stopped_and_listed_as_wrong(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pair, "unpack", _fake_checkouts(_SLEEPER, 0.1, hang_on={"head"}))
    out = tmp_path / "report.json"
    started = time.perf_counter()
    assert bench_pair.main(["--base", "HEAD~1", "--seeds", "1", "--out", str(out)]) == 1
    assert time.perf_counter() - started < 30  # the head's two runs are stopped after 1 s each
    report = json.loads(out.read_text())
    limit = bench_pair.TIMEOUT_FACTOR * 0.1
    assert report["wrong_runs"] == [
        f"query 1 head: correct False, failed None, stopped after {limit} s",
        f"query trace head: correct False, failed None, stopped after {limit} s",
    ]
    # the one pair has a stopped run, so no metric is summarized from it
    assert report["workloads"]["query"]["summary"] == {}
    assert report["workloads"]["query"]["runs"][0]["base"]["correct"] is True


def test_sigterm_kills_the_running_benchmark_and_removes_the_checkouts(tmp_path):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    driver = subprocess.Popen([sys.executable, "-c", (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('test_bench_pair', {__file__!r})\n"
        "tests = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tests)\n"
        "tests.bench_pair.unpack = tests._fake_checkouts(tests._SLEEPER, 60, hang_on={'base', 'head'})\n"
        "tests.bench_pair.exit_on_sigterm()\n"
        f"sys.exit(tests.bench_pair.main(['--base', 'a', '--seeds', '1', '--out', {str(tmp_path / 'out.json')!r}]))\n"
    )], env={**os.environ, "TMPDIR": str(tmp)})
    try:
        deadline, pid = time.monotonic() + 30, ""
        while not pid and time.monotonic() < deadline:
            time.sleep(0.05)
            pid = "".join(f.read_text() for f in tmp.glob("*/base/pid"))
        assert pid, "the benchmark never started"
        driver.send_signal(signal.SIGTERM)
        assert driver.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait()
    assert list(tmp.iterdir()) == []  # both checkouts are gone
    with pytest.raises(ProcessLookupError):  # and the benchmark, killed and reaped
        os.kill(int(pid), 0)
