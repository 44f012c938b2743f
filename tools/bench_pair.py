"""Compare the benchmark of two git refs, run in alternating pairs on one machine.

    python3 tools/bench_pair.py --base REF [--head REF] [--workloads query,selftest] \
        --seeds 101,102,4242 --out BENCH_<n>.json

Each ref is unpacked with `git archive` into a temporary directory, so both
sides run from their committed files.  The head's BENCHMARK.json gives the
command, the run length and, unless --workloads names some, the workloads.
For every workload and seed, the two sides run the benchmark with `--trace 0`
one after the other; which side goes first alternates from pair to pair, so a
drift in machine speed falls on both.
Then each side runs once with `--trace 1` at the first seed, for the per-layer
split.  The output file holds, per workload and end-to-end metric, both sides'
median, the base's interquartile range, the relative change, the number of
pairs the head won and a verdict ("gain", "worse" or "within"), with every
run's raw numbers and the traced metrics and layer shares of both sides.  It
also holds each side's line counts of src/systemt/*.py, as `wc -l` gives them.
A run that printed `correct: false` or `failed > 0`, or that ran past
TIMEOUT_FACTOR times the run length and was stopped, is listed under
"wrong_runs", and the script then exits 1; a pair with a stopped run is left
out of the summary.  SIGTERM stops the script as an exit does: the running
benchmark is killed and the temporary directory removed.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A run is stopped after this many times BENCHMARK.json's run_seconds.  A run
#: repeats its inputs for run_seconds, after a set-up that starts 15
#: interpreters and a first repeat that always completes.
TIMEOUT_FACTOR = 10


def unpack(ref: str, into: Path) -> Path:
    """The files of ref, written under into by git archive."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_bench(checkout: Path, spec: dict, workload: str, seed: int, trace: int) -> dict:
    """The JSON object that one run of spec's benchmark command prints last,
    or for a run stopped at its time limit, one that says so and has no metrics."""
    limit = TIMEOUT_FACTOR * spec["run_seconds"]
    try:
        done = subprocess.run(
            [*spec["command"], "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
            cwd=checkout, capture_output=True, text=True, timeout=limit,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed it
        return {"correct": False, "failed": None, "attempted": None, "timed_out": limit, "metrics": {}}
    if not done.stdout.strip():
        raise RuntimeError(f"perfbench printed nothing in {checkout}: {done.stderr[-2000:]}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": out["correct"], "failed": out["failed"], "attempted": out["attempted"],
            "metrics": {name: m["value"] for name, m in out["metrics"].items()}}


def iqr(values: "list[float]") -> float:
    """The distance between the quartiles (inclusive method)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: "list[tuple[dict, dict]]", better: "dict[str, str]") -> dict:
    """Per metric, from (base, head) metric dicts of paired runs: medians,
    the base's IQR, the change of the median and the pairs the head won.
    better maps each metric to "higher" or "lower"."""
    summary = {}
    for name, direction in better.items():
        base = [b[name] for b, _ in pairs]
        head = [h[name] for _, h in pairs]
        sign = 1 if direction == "higher" else -1
        base_median, head_median = statistics.median(base), statistics.median(head)
        summary[name] = {
            "better": direction,
            "base_median": base_median,
            "head_median": head_median,
            "change": head_median / base_median - 1 if base_median else None,
            "base_iqr": iqr(base),
            "head_won": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
            "pairs": len(pairs),
        }
    return summary


def verdict(metric: dict, bound: float) -> str:
    """"gain" if the head won at least nine tenths of the pairs and its median
    is better than the base's by more than the base's IQR; "worse" if its
    median is worse by more than bound, a fraction of the base's median;
    else "within".  metric is one entry of summarize's result."""
    sign = 1 if metric["better"] == "higher" else -1
    moved = sign * (metric["head_median"] - metric["base_median"])
    if metric["head_won"] >= 0.9 * metric["pairs"] and moved > metric["base_iqr"]:
        return "gain"
    return "worse" if -moved > bound * abs(metric["base_median"]) else "within"


def source_lines(checkout: Path) -> dict:
    """The line count of each src/systemt/*.py in checkout, and their total."""
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(checkout.glob("src/systemt/*.py"))}
    return {**counts, "total": sum(counts.values())}


def layer_shares(metrics: dict, units: "dict[str, str]") -> dict:
    """Each timed layer's share of the traced layer time, largest first."""
    timed = {name: v for name, v in metrics.items() if units.get(name) == "s" and v > 0}
    total = sum(timed.values()) or 1.0
    return {name: round(v / total, 4) for name, v in sorted(timed.items(), key=lambda kv: -kv[1])}


def wrong_runs(workloads: dict) -> "list[str]":
    """Each run of the report's workloads that was not correct, had failed
    calls or was stopped, as "workload seed side: ..." (the seed reads "trace"
    for a traced run)."""
    wrong = []
    for workload, got in workloads.items():
        for seed, sides in [*((r["seed"], r) for r in got["runs"]), ("trace", got["trace"])]:
            for side in ("base", "head"):
                run = sides[side]
                if not run["correct"] or run["failed"]:
                    stopped = f", stopped after {run['timed_out']} s" if "timed_out" in run else ""
                    wrong.append(f"{workload} {seed} {side}: correct {run['correct']}, failed {run['failed']}{stopped}")
    return wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the baseline")
    parser.add_argument("--head", default="HEAD", help="git ref of the change (default HEAD)")
    parser.add_argument("--workloads", help="comma-separated workload names (default: all)")
    parser.add_argument("--seeds", required=True, help="comma-separated seeds, one pair each")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": unpack(args.base, Path(tmp, "base")), "head": unpack(args.head, Path(tmp, "head"))}
        spec = json.loads((sides["head"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
        report = {"base": args.base, "head": args.head, "workloads": {},
                  "source_lines": {side: source_lines(path) for side, path in sides.items()}}
        for workload in workloads:
            runs = []
            for k, seed in enumerate(seeds):
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                got = {side: run_bench(sides[side], spec, workload, seed, 0) for side in order}
                runs.append({"seed": seed, "first": order[0], **got})
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} cases_per_s {got[side]['metrics'].get('cases_per_s')}" for side in order), flush=True)
            traced = {side: run_bench(sides[side], spec, workload, seeds[0], 1) for side in ("base", "head")}
            pairs = [(r["base"]["metrics"], r["head"]["metrics"]) for r in runs]
            pairs = [pair for pair in pairs if all(pair)]  # a stopped run has no metrics
            summary = summarize(pairs, better) if pairs else {}
            for name, metric in summary.items():
                metric["verdict"] = verdict(metric, bounds[name])
            report["workloads"][workload] = {
                "summary": summary,
                "runs": runs,
                "trace": {side: {**t, "layer_shares": layer_shares(t["metrics"], units)} for side, t in traced.items()},
            }
    report["wrong_runs"] = wrong_runs(report["workloads"])
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for line in report["wrong_runs"]:
        print(f"wrong run: {line}", file=sys.stderr)
    return 1 if report["wrong_runs"] else 0


def exit_on_sigterm() -> None:
    """Make SIGTERM raise SystemExit, which unwinds main: subprocess.run kills
    the running benchmark and TemporaryDirectory removes both checkouts."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


if __name__ == "__main__":
    exit_on_sigterm()
    sys.exit(main())
