"""scripts/ab_bench.py's parsing and summary on hand-made result lines."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

METRICS = [{"name": "work_per_s", "unit": "1/s", "better": "higher"},
           {"name": "call_s", "unit": "s", "better": "lower"}]


def _pair(seed, base, change):
    def result(work, call):
        return {"correct": True, "metrics": {"work_per_s": {"value": work}, "call_s": {"value": call}}}

    return {"workload": "w", "seed": seed, "base": result(*base), "change": result(*change)}


def test_runs_name_a_workload_and_a_seed_range_or_list():
    assert ab_bench.parse_runs("disclose_kde=71-74") == ("disclose_kde", [71, 72, 73, 74])
    assert ab_bench.parse_runs("sweep_large=5,9") == ("sweep_large", [5, 9])
    with pytest.raises(ab_bench.argparse.ArgumentTypeError):
        ab_bench.parse_runs("sweep_large")


def test_summary_takes_each_metrics_direction_and_counts_no_tie_as_a_win():
    pairs = [_pair(1, (100.0, 2.0), (120.0, 1.0)), _pair(2, (110.0, 2.0), (110.0, 3.0)),
             _pair(3, (90.0, 2.0), (130.0, 2.0)), _pair(4, (105.0, 4.0), (80.0, 1.0))]
    summary = ab_bench.summarize(pairs, METRICS)["w"]
    assert summary["pairs"] == 4
    work, call = summary["work_per_s"], summary["call_s"]
    assert work["base"] == {"median": 102.5, "q1": 97.5, "q3": 106.25}
    assert work["change"]["median"] == 115.0 and work["change_over_base"] == 115.0 / 102.5
    assert work["change_won_share"] == 0.5  # pair 2 ties, pair 4 loses
    assert call["change_won_share"] == 0.5  # lower is better: pairs 1 and 4
    single = ab_bench.summarize(pairs[:1], METRICS)["w"]["call_s"]["base"]
    assert single == {"median": 2.0, "q1": 2.0, "q3": 2.0}
