"""Subset-selection strategies: oracle, Monte-Carlo, interval, minimal."""

import itertools
import pickle
import tracemalloc
from types import SimpleNamespace

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
    full_disclose,
    interval_disclose,
    minimal_disclose,
    monte_carlo_disclose,
)
from pricedisclosure.errors import InfeasibleError, NumericalError, ValidationError
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
        DisclosureConstraints(rho=3, max_size=2)
    with pytest.raises(ValidationError):
        DisclosureConstraints(rho=9).size_cap(8)
    assert DisclosureConstraints(rho=3).size_cap(8) == 8
    assert DisclosureConstraints(rho=3, max_size=5).size_cap(8) == 5


def test_evaluate_subset_is_pure_and_cached():
    a = evaluate_subset(SMALL, 5)
    b = evaluate_subset(SMALL.subset(list(range(len(SMALL)))), 5)
    assert a.value == b.value
    # A recomputation after clearing the cache carries the same bits, and an
    # unsorted list is evaluated as its sorted prices.
    cents = np.random.default_rng(7).permutation([e.cents for e in SMALL.entries])
    shuffled = make_prices([int(c) for c in cents])
    for estimator in ("kde", "parametric"):
        for prices in (SMALL, shuffled):
            cached = evaluate_subset(prices, 5, estimator)
            clear_evaluation_cache()
            fresh = evaluate_subset(prices, 5, estimator)
            assert disclosure._evaluate_cents.cache_info().misses == 1
            assert repr(fresh) == repr(cached)
        assert repr(evaluate_subset(shuffled, 5, estimator)) == repr(evaluate_subset(SMALL, 5, estimator))


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


@pytest.mark.parametrize("estimator", ["kde", "parametric"])
def test_every_budget_run_is_a_prefix_of_a_longer_run(estimator):
    # What the simulator relies on: a budget-b run ends where a longer run's
    # trace stood at its last entry with index <= b.
    prices = seeded_prices(12, seed=21)
    for seed in (0, 1, 2):
        long = monte_carlo_disclose(prices, RHO3, 5, budget=60, seed=seed, estimator=estimator)
        assert len(long.trace_subsets) == len(long.trace) >= 1
        for budget in range(1, 61):
            short = monte_carlo_disclose(prices, RHO3, 5, budget=budget, seed=seed, estimator=estimator)
            last = max(j for j, (i, _) in enumerate(long.trace) if i <= budget)
            assert short.subset == long.trace_subsets[last]
            assert short.critical_cost.value == long.trace[last][1]
            assert short.trace == long.trace[: last + 1]
            assert short.trace_subsets == long.trace_subsets[: last + 1]


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
    # n > 64: masks wider than one 64-bit word; determinism must hold.
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


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValidationError, match="workers must be at least 1"):
        brute_force_disclose(SMALL, RHO3, 5, workers=workers)
    for method in ("brute_force", "interval"):
        with pytest.raises(ValidationError, match="workers must be at least 1"):
            disclose(SMALL, method, RHO3, 5, workers=workers)


def test_rho_larger_than_n_rejected():
    prices = make_prices([100, 200])
    with pytest.raises(ValidationError):
        interval_disclose(prices, RHO3, 5)


# ---------------------------------------------------------------- pipeline
# A cheap stand-in for the evaluation with many exact ties: it depends only
# on the sorted cents, like the real one, so every method can be checked
# against a plain enumeration of its candidates in the documented order.


def stub_cost(cents, n_new, estimator):
    return SimpleNamespace(value=float((sum(cents) // 7 + 3 * len(cents)) % 5))


def stub_prices(n, seed):
    rng = np.random.default_rng(seed)
    cents = rng.choice([300, 301, 450, 452, 460, 500, 777, 1000], size=n)
    return PriceList("p", tuple(PriceEntry(f"s{i}", int(c)) for i, c in enumerate(cents)))


def reference_select(prices, candidates, incumbent=False, by_cents=False):
    """(entries, trace, entries at each trace entry, count) of the first
    strict minimum, or for brute force the smallest (cost, sorted cents),
    which keeps no trace; entries sorted by (cents, index)."""
    cents = prices.cents_array()

    def entries(indices):
        return tuple(prices.entries[i] for i in sorted(indices, key=lambda i: (cents[i], i)))

    best_key, best, trace, improved_to = None, None, [], []
    for position, indices in enumerate(candidates):
        key_cents = tuple(sorted(int(cents[i]) for i in indices))
        cost = stub_cost(key_cents, 0, "").value
        key = (cost, key_cents) if by_cents else (cost,)
        if best_key is None or key < best_key:
            best_key, best = key, indices
            trace.append((position + (not incumbent), cost))
            improved_to.append(entries(indices))
    if by_cents:
        trace, improved_to = [], []
    return entries(best), tuple(trace), tuple(improved_to), len(candidates) - incumbent


def reference_candidates(prices, method, rho, cap, budget=0, seed=0):
    n = len(prices)
    order = [int(i) for i in prices.ascending_order()]
    low = prices.min_index
    pool = [i for i in range(n) if i != low]
    if method == "full":
        return [tuple(range(n))]
    if method == "interval":
        return [(order[0], *order[s : s + k - 1]) for k in range(rho, cap + 1) for s in range(1, n - k + 2)]
    if method == "minimal":
        prefixes = [tuple(order[:k]) for k in range(rho, min(n - 1, cap) + 1)]
        return ([tuple(order)] if cap == n else []) + prefixes
    if method == "brute_force":
        return [(low, *c) for k in range(rho, cap + 1) for c in itertools.combinations(pool, k - 1)]
    # monte_carlo: the incumbent, then one partial Fisher-Yates per iteration.
    candidates = [tuple(order[:cap])]
    if rho > min(n - 1, cap):
        return candidates
    gen = np.random.Generator(np.random.Philox(key=seed))
    words = gen.integers(0, 2**64, size=(budget, n - 1), dtype=np.uint64, endpoint=False)
    for row in words:
        k = int(row[0]) % (min(n - 1, cap) - rho + 1) + rho
        idx = list(pool)
        for j in range(k - 1):
            r = j + int(row[j + 1]) % (n - 1 - j)
            idx[j], idx[r] = idx[r], idx[j]
        candidates.append((low, *idx[: k - 1]))
    return candidates


PIPELINE_CASES = [
    # (n, seed, rho, max_size)
    (9, 1, 3, None),
    (9, 2, 2, 5),
    (8, 3, 8, None),
    (8, 4, 7, None),
    (10, 5, 1, 4),
    (70, 6, 55, None),
    (70, 7, 60, 66),
]


@pytest.mark.parametrize("block_bytes", [None, 1, 30])
@pytest.mark.parametrize("case", PIPELINE_CASES)
def test_pipeline_matches_reference_enumeration(monkeypatch, case, block_bytes):
    n, seed, rho, max_size = case
    monkeypatch.setattr(disclosure, "_evaluate_cents", stub_cost)
    if block_bytes is not None:
        monkeypatch.setattr(disclosure, "MASK_BLOCK_BYTES", block_bytes)
    prices = stub_prices(n, seed)
    constraints = DisclosureConstraints(rho=rho, max_size=max_size)
    cap = constraints.size_cap(n)
    for method in ("full", "interval", "minimal", "brute_force", "monte_carlo"):
        if method == "brute_force" and n > 12:
            continue
        budget = 300 if n < 64 else 40
        result = disclose(prices, method, constraints, 5, budget=budget, seed=seed)
        candidates = reference_candidates(prices, method, rho, n if method == "full" else cap, budget, seed)
        entries, trace, improved_to, count = reference_select(
            prices, candidates, incumbent=method == "monte_carlo", by_cents=method == "brute_force"
        )
        assert result.subset.entries == entries, method
        assert result.trace == trace, method
        assert tuple(s.entries for s in result.trace_subsets) == improved_to, method
        assert result.subsets_evaluated == count, method
        assert result.critical_cost.value == stub_cost(
            tuple(sorted(e.cents for e in entries)), 5, "kde").value


def test_interval_memory_stays_bounded(monkeypatch):
    # 76,636 candidates over 400 prices: one dense mask would be 30.7 MB.
    monkeypatch.setattr(disclosure, "_evaluate_cents", stub_cost)
    # Cents below 257 are interned ints, so the traced allocations are the
    # masks and the run stays fast under tracemalloc; ties are fine here.
    prices = make_prices([100 + (7 * i) % 150 for i in range(400)])
    constraints = DisclosureConstraints(rho=10)
    tracemalloc.start()
    try:
        result = interval_disclose(prices, constraints, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.subsets_evaluated == interval_subset_count(400, 10) == 76_636
    assert peak < 8_000_000


def test_failing_candidate_aborts_and_is_named(monkeypatch):
    prices = make_prices([100, 250, 300, 420, 555])
    # Both methods meet (100, 300, 420) first; the error must name it.
    bad = {(100, 300, 420), (100, 420, 555)}

    def evaluate(cents, n_new, estimator):
        if cents in bad:
            raise NumericalError("integral forms disagree", error_estimate=0.25)
        return stub_cost(cents, n_new, estimator)

    monkeypatch.setattr(disclosure, "_evaluate_cents", evaluate)
    for method in ("interval", "brute_force"):
        with pytest.raises(NumericalError) as info:
            disclose(prices, method, RHO3, 4)
        message = str(info.value)
        assert message.startswith(f"{method} candidate of 3 prices (1.00 3.00 4.20) failed")
        assert "integral forms disagree" in message
        assert info.value.error_estimate == 0.25
    # Brute-force workers send the error back pickled; the estimate survives.
    assert pickle.loads(pickle.dumps(info.value)).error_estimate == 0.25
