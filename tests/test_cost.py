"""tools/cost.py: its counts and depths repeat exactly from run to run."""

import json
import subprocess
import sys
from pathlib import Path

_COST = Path(__file__).resolve().parent.parent / "tools" / "cost.py"


def _run(*args) -> str:
    argv = [sys.executable, str(_COST), *args]
    return subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120).stdout


def test_two_runs_print_the_same_counts():
    argv = ["--probes", "modulus_int,translate,parse,pretty,infer,max_grid_x0", "--terms", "1"]
    first = _run(*argv)
    assert _run(*argv) == first
    counts = json.loads(first)
    assert counts["terms"] == 1
    for probe in ("modulus_int", "translate", "parse", "pretty", "infer", "max_grid_x0"):
        assert counts[probe]["calls"] > 0 and counts[probe]["opcodes"] > counts[probe]["calls"]


def test_two_runs_of_a_depth_probe_print_the_same_depth():
    # a binary search over 0..4096: about a dozen parses, each on a fresh thread
    first = _run("--probes", "depth_parse_succ")
    assert _run("--probes", "depth_parse_succ") == first
    assert 0 < json.loads(first)["depth_parse_succ"]["depth"] < 4096
