"""The benchmark's own tests: input generation, the output checker, and
reconciliation of the traced run's counters.

Each traced test runs a few real groups of a workload, so the suite takes
about 40 seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import check, inputs, spans
from perfbench.run import Runner, traced
from perfbench.workloads import build

SEED = 5
TIME_UNITS = {"s", "ms", "ns"}


def _run_traced(tmp_path, workload_name, pick):
    workload = build(workload_name, SEED)
    groups = workload.materialise(tmp_path)
    runner = Runner(workload)
    return traced(runner, pick(groups))


def _counts(metrics):
    units = dict(spans.PER_LAYER)
    return {k: v for k, v in metrics.items()
            if units[k] not in TIME_UNITS and k != "trace.overhead_ratio"}


def _disclose_groups(groups):
    """A tie-heavy list, a regular list and the brute-force list of round 0."""
    heavy = next(g for g in groups if g.source.tie_heavy)
    regular = next(g for g in groups if not g.source.tie_heavy and g.source.cents.size == 30)
    small = next(g for g in groups if g.source.cents.size == inputs.BRUTE_LIST_SIZE)
    return [heavy, regular, small]


@pytest.fixture(scope="module")
def disclose_kde_runs(tmp_path_factory):
    return [_run_traced(tmp_path_factory.mktemp(f"kde{i}"), "disclose_kde", _disclose_groups)
            for i in range(2)]


def test_inputs_repeat_for_a_seed_and_follow_the_recipes():
    a, b = build("disclose_kde", SEED), build("disclose_kde", SEED)
    for x, y in zip(a.sources, b.sources):
        assert np.array_equal(x.cents, y.cents)
    assert not np.array_equal(a.sources[1].cents, build("disclose_kde", SEED + 1).sources[1].cents)
    for source in a.sources:
        if source.tie_heavy:
            distinct = np.unique(source.cents)
            assert 2 <= distinct.size <= 5
            assert distinct[-1] - distinct[0] <= inputs.TIE_WINDOW_CENTS
    props = a.describe()
    assert props["n"] == [inputs.BRUTE_LIST_SIZE, inputs.LIST_SIZE]
    assert props["n_new"] == [13, 18, 23]
    assert 0.0 < props["tie_heavy_share"] < 0.5


def test_reference_matches_the_closed_form_for_a_single_price():
    # One price p, bandwidth 0.01*p: the KDE is N(p, h^2) and with n_new = 1
    # the saving at q = p is E[(p - Y)^+] = h / sqrt(2 pi).
    h = 0.01 * 100.0
    assert check.reference_cost([10000], 100.0, 1) == pytest.approx(h / np.sqrt(2 * np.pi), rel=1e-9)


def test_checker_flags_wrong_output():
    cents = np.array([1000 + 37 * i for i in range(12)])
    expect = {"method": "interval", "estimator": "kde", "seed": 0}
    good_cost = check.reference_cost(cents[:10], cents.min() / 100.0, 5)
    parsed = {"method": "interval", "disclosed": cents[:10].tolist(), "size": 10,
              "cost": good_cost, "evaluations": 6}
    assert check.check_disclose(parsed, cents, expect, 10, 5, 0) == []
    assert check.check_disclose({**parsed, "cost": good_cost * 1.01}, cents, expect, 10, 5, 0)
    assert check.check_disclose({**parsed, "disclosed": cents[1:11].tolist()}, cents, expect, 10, 5, 0)
    assert check.check_disclose({**parsed, "evaluations": 5}, cents, expect, 10, 5, 0)
    assert check.check_disclose_group({"interval": 1.0, "full": 0.9}) == {
        "interval": "interval cost 1.0 exceeds full 0.9"}
    assert "brute" in check.check_disclose_group({"brute": 1.0, "mc": 0.5})


def test_disclose_kde_trace_reconciles(disclose_kde_runs):
    outcomes, metrics, problems, _ = disclose_kde_runs[0]
    assert problems == []
    assert all(not o.problems for o in outcomes)
    assert metrics["search.numerical_errors"] == sum(o.code == 1 for o in outcomes)
    assert metrics["disclosure.evaluations"] == sum(o.units for o in outcomes if o.code == 0)
    assert metrics["density.kde_point_samples"] > metrics["density.kde_calls"] > 0


def test_counts_repeat_across_runs_at_one_seed(disclose_kde_runs):
    first, second = (_counts(run[1]) for run in disclose_kde_runs)
    assert first == second


@pytest.mark.parametrize("workload, pick", [
    ("disclose_parametric", lambda groups: groups[1:2]),
    ("simulate_market", lambda groups: groups[:1]),
    ("sweep_large", lambda groups: groups[:1]),
])
def test_other_workloads_trace_reconciles(tmp_path, workload, pick):
    outcomes, metrics, problems, tracer = _run_traced(tmp_path, workload, pick)
    assert problems == []
    assert all(o.ok for o in outcomes)
    if workload == "simulate_market":
        assert 0.0 < metrics["disclosure.cache_hit_ratio"] < 1.0
        assert metrics["simulator.trials"] == sum(o.units for o in outcomes)
    if workload == "sweep_large":
        assert metrics["disclosure.cache_lookups"] == 0
        assert metrics["search.critical_cost_calls"] == sum(o.units for o in outcomes)


@pytest.mark.parametrize("workload", ["disclose_kde", "disclose_parametric"])
def test_probes_are_exactly_the_calls_on_tie_heavy_lists(tmp_path, workload):
    groups = build(workload, SEED).materialise(tmp_path)
    for g in groups:
        assert all(c.probe == g.source.tie_heavy for c in g.calls + g.helpers)
    assert any(g.probe for g in groups) and not all(g.probe for g in groups)
