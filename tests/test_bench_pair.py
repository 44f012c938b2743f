"""The summary step of tools/bench_pair.py, on fixed numbers."""

import importlib.util
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


def test_layer_shares_count_only_timed_layers_largest_first():
    units = {"syntax.parse_s": "s", "syntax.pretty_s": "s", "syntax.fail": "count", "idle_s": "s"}
    metrics = {"syntax.parse_s": 3.0, "syntax.pretty_s": 1.0, "syntax.fail": 397, "idle_s": 0.0}
    shares = bench_pair.layer_shares(metrics, units)
    assert list(shares.items()) == [("syntax.parse_s", 0.75), ("syntax.pretty_s", 0.25)]
