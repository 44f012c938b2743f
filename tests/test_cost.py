"""tools/cost.py: its counts repeat exactly from run to run."""

import json
import subprocess
import sys
from pathlib import Path

_COST = Path(__file__).resolve().parent.parent / "tools" / "cost.py"


def test_two_runs_print_the_same_counts():
    def run():
        argv = [sys.executable, str(_COST), "--probes", "modulus_int,translate,parse,infer,max_grid_x0", "--terms", "1"]
        return subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120).stdout

    first = run()
    assert run() == first
    counts = json.loads(first)
    assert counts["terms"] == 1
    for probe in ("modulus_int", "translate", "parse", "infer", "max_grid_x0"):
        assert counts[probe]["calls"] > 0 and counts[probe]["opcodes"] > counts[probe]["calls"]
