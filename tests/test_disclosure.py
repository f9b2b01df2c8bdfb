"""Subset-selection strategies: oracle, Monte-Carlo, interval, minimal."""

import functools

import numpy as np
import pytest

from pricedisclosure import disclosure
from pricedisclosure.data import PriceEntry, PriceList
from pricedisclosure.disclosure import (
    DisclosureConstraints,
    brute_force_disclose,
    clear_evaluation_cache,
    disclose,
    evaluate_subset,
    evaluate_subset_uncached,
    full_disclose,
    interval_disclose,
    minimal_disclose,
    monte_carlo_disclose,
)
from pricedisclosure.errors import InfeasibleError, ValidationError
from pricedisclosure.search import interval_subset_count, subset_count


def make_prices(cents, product="x"):
    return PriceList(product, tuple(PriceEntry("s", c) for c in cents))


def seeded_prices(n, seed, scale=20000):
    rng = np.random.default_rng(seed)
    cents = np.unique((rng.lognormal(0.0, 0.35, n) * scale).astype(int))
    while cents.size < n:  # collisions are rare at this scale
        extra = int(rng.lognormal(0.0, 0.35) * scale)
        cents = np.unique(np.append(cents, extra))
    return make_prices([int(c) for c in cents[:n]])


SMALL = seeded_prices(8, seed=42)
RHO3 = DisclosureConstraints(rho=3)


def sorted_cents(result):
    return tuple(sorted(e.cents for e in result.subset.entries))


def test_constraints_validation():
    with pytest.raises(ValidationError):
        DisclosureConstraints(rho=0)
    with pytest.raises(ValidationError):
        DisclosureConstraints(rho=3, must_include_min=False)
    with pytest.raises(ValidationError):
        DisclosureConstraints(rho=3, max_size=2)
    with pytest.raises(ValidationError):
        DisclosureConstraints(rho=9).size_cap(8)
    assert DisclosureConstraints(rho=3).size_cap(8) == 8
    assert DisclosureConstraints(rho=3, max_size=5).size_cap(8) == 5


def test_evaluate_subset_is_pure_and_cached():
    a = evaluate_subset(SMALL, 5)
    b = evaluate_subset(SMALL.subset(list(range(len(SMALL)))), 5)
    assert a.value == b.value
    uncached = evaluate_subset_uncached(SMALL, 5)
    assert uncached.value == a.value
    # Both paths fit the sorted sample, so an unsorted list agrees bit for bit.
    cents = np.random.default_rng(7).permutation([e.cents for e in SMALL.entries])
    shuffled = make_prices([int(c) for c in cents])
    for estimator in ("kde", "parametric"):
        assert evaluate_subset_uncached(shuffled, 5, estimator) == evaluate_subset(shuffled, 5, estimator)


def test_uncached_evaluation_bypasses_a_wrapped_cache(monkeypatch):
    # A wrapper over the cache, as a tracer installs, must not route the
    # uncached path through it.
    clear_evaluation_cache()
    cached = disclosure._evaluate_cents
    monkeypatch.setattr(disclosure, "_evaluate_cents", functools.wraps(cached)(lambda *a: cached(*a)))
    evaluate_subset_uncached(SMALL, 5)
    assert cached.cache_info().currsize == 0


def test_evaluate_singleton_positive():
    single = make_prices([10000])
    assert evaluate_subset(single, 4).value > 0.0


def test_full_disclose():
    res = full_disclose(SMALL, 5)
    assert res.method == "full"
    assert res.subsets_evaluated == 1
    assert sorted_cents(res) == tuple(sorted(SMALL.cents_array()))
    assert res.trace == ((1, res.critical_cost.value),)


def test_interval_candidates_enumeration():
    # n=5, rho=3: runs of 2 after the min, runs of 3, then the full set.
    prices = make_prices([100, 200, 300, 400, 500])
    res = interval_disclose(prices, RHO3, 4)
    assert res.subsets_evaluated == 6
    assert interval_subset_count(5, 3) == 6
    # reconstruct the expected candidate set by hand
    expected = {
        (100, 200, 300), (100, 300, 400), (100, 400, 500),
        (100, 200, 300, 400), (100, 300, 400, 500),
        (100, 200, 300, 400, 500),
    }
    assert sorted_cents(res) in expected


def test_minimal_candidates_are_prefixes():
    prices = make_prices([100, 200, 300, 400])
    res = minimal_disclose(prices, RHO3, 4)
    assert res.subsets_evaluated == 2  # prefix of size 3 and the full set
    assert sorted_cents(res) in {(100, 200, 300), (100, 200, 300, 400)}


def test_brute_force_counts_and_oracle():
    res = brute_force_disclose(SMALL, RHO3, 5)
    assert res.subsets_evaluated == subset_count(8, 3)
    for other in (
        interval_disclose(SMALL, RHO3, 5),
        minimal_disclose(SMALL, RHO3, 5),
        full_disclose(SMALL, 5),
    ):
        assert res.critical_cost.value <= other.critical_cost.value + 1e-12


def test_cost_ordering_nesting():
    for seed in (1, 2, 3, 4, 5):
        prices = seeded_prices(9, seed)
        brute = brute_force_disclose(prices, RHO3, 6).critical_cost.value
        interval = interval_disclose(prices, RHO3, 6).critical_cost.value
        minimal = minimal_disclose(prices, RHO3, 6).critical_cost.value
        full = full_disclose(prices, 6).critical_cost.value
        assert brute <= interval + 1e-12
        assert interval <= minimal + 1e-12
        assert minimal <= full + 1e-12


def test_every_result_contains_minimum_and_respects_rho():
    prices = seeded_prices(10, seed=77)
    for method in ("brute_force", "interval", "minimal", "full"):
        res = disclose(prices, method, RHO3, 5, budget=50, seed=3)
        assert prices.min_cents in {e.cents for e in res.subset.entries}
        assert len(res.subset) >= RHO3.rho
        fresh = evaluate_subset(res.subset, 5)
        assert fresh.value == pytest.approx(res.critical_cost.value, abs=1e-12)


def test_max_size_cap_enforced():
    constraints = DisclosureConstraints(rho=3, max_size=4)
    prices = seeded_prices(9, seed=8)
    for method in ("brute_force", "interval", "minimal", "monte_carlo"):
        res = disclose(prices, method, constraints, 5, budget=200, seed=1)
        assert 3 <= len(res.subset) <= 4, method


def test_brute_force_guard():
    prices = seeded_prices(40, seed=13)
    with pytest.raises(InfeasibleError, match="subset_count"):
        brute_force_disclose(prices, DisclosureConstraints(rho=10), 5)


def test_brute_force_single_candidate_when_rho_is_n():
    prices = make_prices([100, 200, 300])
    res = brute_force_disclose(prices, RHO3, 4)
    assert res.subsets_evaluated == 1
    assert sorted_cents(res) == (100, 200, 300)


def test_brute_force_worker_invariance():
    serial = brute_force_disclose(SMALL, RHO3, 5, workers=1)
    parallel = brute_force_disclose(SMALL, RHO3, 5, workers=3)
    assert sorted_cents(serial) == sorted_cents(parallel)
    assert serial.critical_cost.value == parallel.critical_cost.value
    assert serial.subsets_evaluated == parallel.subsets_evaluated


def test_brute_force_input_order_invariance():
    cents = [int(c) for c in SMALL.cents_array()]
    shuffled = make_prices(list(reversed(cents)))
    a = brute_force_disclose(SMALL, RHO3, 5)
    b = brute_force_disclose(shuffled, RHO3, 5)
    assert sorted_cents(a) == sorted_cents(b)


def test_monte_carlo_determinism():
    a = monte_carlo_disclose(SMALL, RHO3, 5, budget=300, seed=9)
    b = monte_carlo_disclose(SMALL, RHO3, 5, budget=300, seed=9)
    assert sorted_cents(a) == sorted_cents(b)
    assert a.trace == b.trace
    assert a.seed == 9
    assert a.subsets_evaluated == 300


def test_monte_carlo_budget_prefix_stability():
    # The tableau is counter-based: a longer run extends a shorter one.
    short = monte_carlo_disclose(SMALL, RHO3, 5, budget=100, seed=4)
    long = monte_carlo_disclose(SMALL, RHO3, 5, budget=400, seed=4)
    short_best = dict(short.trace)
    long_prefix = {i: c for i, c in long.trace if i <= 100}
    for i, cost in short_best.items():
        if i in long_prefix:
            assert long_prefix[i] == cost
    assert long.critical_cost.value <= short.critical_cost.value + 1e-12


def test_monte_carlo_trace_nonincreasing_and_bounded_by_full():
    res = monte_carlo_disclose(SMALL, RHO3, 5, budget=500, seed=11)
    costs = [c for _, c in res.trace]
    assert all(a >= b - 1e-15 for a, b in zip(costs, costs[1:]))
    full = full_disclose(SMALL, 5).critical_cost.value
    assert res.critical_cost.value <= full + 1e-12
    assert res.trace[0] == (0, pytest.approx(full))


def test_monte_carlo_budget_one():
    res = monte_carlo_disclose(SMALL, RHO3, 5, budget=1, seed=0)
    full = full_disclose(SMALL, 5).critical_cost.value
    assert res.critical_cost.value <= full + 1e-12


def test_monte_carlo_validation_and_degenerate_range():
    with pytest.raises(ValidationError):
        monte_carlo_disclose(SMALL, RHO3, 5, budget=0, seed=1)
    with pytest.raises(ValidationError):
        monte_carlo_disclose(SMALL, RHO3, 5, budget=10, seed=-1)
    # rho = n leaves step 7 with an empty range: full set plus a warning
    prices = make_prices([100, 200, 300])
    res = monte_carlo_disclose(prices, RHO3, 4, budget=10, seed=0)
    assert res.warning
    assert sorted_cents(res) == (100, 200, 300)
    assert res.subsets_evaluated == 0


def test_monte_carlo_matches_oracle_at_large_budget():
    prices = seeded_prices(9, seed=55)
    brute = brute_force_disclose(prices, RHO3, 5)
    mc = monte_carlo_disclose(prices, RHO3, 5, budget=50_000, seed=2)
    assert mc.critical_cost.value == pytest.approx(brute.critical_cost.value, abs=1e-9)


def test_monte_carlo_wide_instance_fallback_path():
    # n > 64 exercises the non-bitmask bookkeeping; determinism must hold.
    prices = seeded_prices(70, seed=99, scale=40000)
    constraints = DisclosureConstraints(rho=60)
    a = monte_carlo_disclose(prices, constraints, 5, budget=25, seed=6)
    b = monte_carlo_disclose(prices, constraints, 5, budget=25, seed=6)
    assert sorted_cents(a) == sorted_cents(b)
    full = full_disclose(prices, 5).critical_cost.value
    assert a.critical_cost.value <= full + 1e-12


def test_dispatch_validation():
    with pytest.raises(ValidationError):
        disclose(SMALL, "simulated_annealing", RHO3, 5)
    with pytest.raises(ValidationError):
        disclose(SMALL, "monte_carlo", RHO3, 5)  # missing budget and seed


def test_rho_larger_than_n_rejected():
    prices = make_prices([100, 200])
    with pytest.raises(ValidationError):
        interval_disclose(prices, RHO3, 5)
