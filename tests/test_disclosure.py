"""Subset-selection strategies: oracle, Monte-Carlo, interval, minimal."""

import concurrent.futures
import itertools
import math
import pickle
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from pricedisclosure import disclosure, search
from pricedisclosure.data import BUILTIN_MANIFESTS, PriceEntry, PriceList, builtin_dataset, format_cents
from pricedisclosure.density import FAMILIES, ParametricRows, fit_estimator
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
from pricedisclosure.errors import (
    FitError,
    InfeasibleError,
    NumericalError,
    PriceDisclosureError,
    ValidationError,
)
from pricedisclosure.search import (
    CriticalCost,
    critical_cost,
    critical_cost_lower_bound,
    interval_subset_count,
    subset_count,
)


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
    # One trace of improvements, whatever the worker count; the winner is
    # its last entry.
    assert serial.trace == parallel.trace
    assert serial.trace_subsets == parallel.trace_subsets
    assert serial.trace_subsets[-1] == serial.subset
    assert serial.trace[-1][1] == serial.critical_cost.value


def test_a_failure_aborts_at_every_worker_count_iff_one_worker_integrates_it(monkeypatch):
    # A stubbed integral fails on one candidate. Each worker's share starts
    # from the same best cost, so shares integrate rows one worker screens:
    # a failure on such a row leaves the answer as it is, and a failure on
    # a row one worker integrates aborts with one message at every worker
    # count. Shares run as threads, so the stub reaches them whatever the
    # pool's start method.
    monkeypatch.setattr(disclosure, "ProcessPoolExecutor", concurrent.futures.ThreadPoolExecutor)
    prices, cached = seeded_prices(10, 0), disclosure._evaluate_cents

    def stub(failing, integrated):
        def lookup(cents, n_new, estimator, fit):
            integrated.append(cents)
            if cents == failing:
                raise NumericalError("stub did not converge", 0.5)
            return cached(cents, n_new, estimator, fit)

        lookup.cache_clear = cached.cache_clear
        return lookup

    def run(workers, failing=None):
        integrated = []
        with monkeypatch.context() as m:
            m.setattr(disclosure, "_evaluate_cents", stub(failing, integrated))
            clear_evaluation_cache()
            try:
                result = brute_force_disclose(prices, RHO3, 18, "kde", workers)
            except NumericalError as exc:
                return integrated, (str(exc), exc.error_estimate)
        return integrated, (result.subset, result.trace, repr(result.critical_cost))

    alone, expected = run(1)
    shared = set(run(3)[0])
    screened = sorted(shared - set(alone))
    assert len(screened) >= 10 and set(alone) <= shared
    for failing in screened:
        assert all(run(workers, failing)[1] == expected for workers in (1, 2, 3, 4)), failing
    for failing in (alone[0], alone[len(alone) // 2], alone[-1]):
        listed = " ".join(map(format_cents, failing))
        error = (f"brute_force candidate of {len(failing)} prices ({listed}) failed: stub did not converge", 0.5)
        assert all(run(workers, failing)[1] == error for workers in (1, 2, 3, 4)), failing

    # With no threshold, as for pooled sets, the first failing row raises at
    # once and the rows after it are not evaluated.
    rows = [prices.cents_array()[:k].tolist() for k in (3, 4, 5)]
    integrated = []
    monkeypatch.setattr(disclosure, "_evaluate_cents", stub(tuple(rows[1]), integrated))
    clear_evaluation_cache()
    with pytest.raises(NumericalError, match=r"^pooled set of 4 prices \(.*\) failed: stub did not converge$"):
        disclosure.evaluate_block(rows, 18, "kde", "pooled set")
    assert integrated == [tuple(rows[0]), tuple(rows[1])]


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
    # Every method, the full set included, rejects rho above the list size.
    for method in disclosure.METHODS:
        with pytest.raises(ValidationError, match="rho 3 exceeds the list size 2"):
            disclose(prices, method, RHO3, 5, budget=10, seed=0)


def test_bad_n_new_and_estimator_are_not_blamed_on_a_candidate():
    prices = make_prices([100, 250, 300, 420, 555])
    for method in disclosure.METHODS:
        with pytest.raises(ValidationError) as info:
            disclose(prices, method, RHO3, -3, budget=10, seed=0)
        assert str(info.value) == "number of new draws must be at least 1, got -3"
    # Nor when the check runs in a worker process.
    with pytest.raises(ValidationError) as info:
        brute_force_disclose(prices, RHO3, -3, workers=3)
    assert str(info.value) == "number of new draws must be at least 1, got -3"
    with pytest.raises(ValidationError) as info:
        interval_disclose(prices, RHO3, 5, estimator="cauchy")
    assert str(info.value).startswith("unknown estimator 'cauchy'")
    # A single subset is not blamed either.
    with pytest.raises(ValidationError) as info:
        evaluate_subset(prices, 0)
    assert str(info.value) == "number of new draws must be at least 1, got 0"
    with pytest.raises(ValidationError) as info:
        evaluate_subset(prices, 5, "cauchy")
    assert str(info.value).startswith("unknown estimator 'cauchy'")


def test_each_distinct_candidate_is_one_cache_miss_and_nothing_more(monkeypatch):
    # Every candidate of these methods is distinct, the Monte Carlo draws
    # included, so the cache serves no hit: a selection looks each candidate
    # that passes the screen up once, in candidate order, and does not look
    # its winner up again. A candidate it does not look up has a lower bound
    # above the running best it met, so it could not have improved on it.
    prices = seeded_prices(9, seed=5)
    budget, seed = 12, 4
    draws = reference_candidates(prices, "monte_carlo", 3, 9, budget, seed)
    assert len(set(map(frozenset, draws))) == len(draws) == budget + 1
    cached = disclosure._evaluate_cents
    looked_up = []

    def lookup(cents, n_new, estimator, fit):
        looked_up.append(cents)
        return cached(cents, n_new, estimator, fit)

    lookup.cache_clear = cached.cache_clear
    monkeypatch.setattr(disclosure, "_evaluate_cents", lookup)
    cents = prices.cents_array()
    screened = 0
    for method in disclosure.METHODS:
        clear_evaluation_cache()
        looked_up.clear()
        result = disclose(prices, method, RHO3, 5, budget=budget, seed=seed)
        info = cached.cache_info()
        assert (info.misses, info.hits) == (len(looked_up), 0), method
        candidates = reference_candidates(prices, method, 3, 9, budget, seed)
        assert len(candidates) == result.subsets_evaluated + (method == "monte_carlo"), method
        best, passed = math.inf, iter(looked_up)
        upcoming = next(passed, None)
        for candidate in candidates:
            key = tuple(sorted(int(cents[i]) for i in candidate))
            if key == upcoming:
                best = min(best, cached(key, 5, "kde", disclosure._Fit()).value)
                upcoming = next(passed, None)
                continue
            values = np.array(key, dtype=float) / 100.0
            bound = critical_cost_lower_bound(fit_estimator(values, "kde"), values[0], 5)
            assert bound > disclosure._screen_limit(best), (method, key)
            screened += 1
        assert upcoming is None, method
        assert result.critical_cost.value == best, method
    assert screened > 0


# ---------------------------------------------------------------- pipeline
# A cheap stand-in for the evaluation with many exact ties: it depends only
# on the sorted cents, like the real one, so every method can be checked
# against a plain enumeration of its candidates in the documented order.


def stub_cost(cents, n_new, estimator, fit=None):
    return SimpleNamespace(value=float((sum(cents) // 7 + 3 * len(cents)) % 5))


def stub_prices(n, seed):
    rng = np.random.default_rng(seed)
    cents = rng.choice([300, 301, 450, 452, 460, 500, 777, 1000], size=n)
    return PriceList("p", tuple(PriceEntry(f"s{i}", int(c)) for i, c in enumerate(cents)))


def reference_select(prices, candidates, incumbent=False):
    """(entries, trace, entries at each trace entry, count) of the first
    strict minimum; entries sorted by (cents, index)."""
    cents = prices.cents_array()

    def entries(indices):
        return tuple(prices.entries[i] for i in sorted(indices, key=lambda i: (cents[i], i)))

    best_cost, best, trace, improved_to = None, None, [], []
    for position, indices in enumerate(candidates):
        cost = stub_cost(tuple(sorted(int(cents[i]) for i in indices)), 0, "").value
        if best_cost is None or cost < best_cost:
            best_cost, best = cost, indices
            trace.append((position + (not incumbent), cost))
            improved_to.append(entries(indices))
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
        # Combinations of the sorted columns: sizes ascending, then lexicographic.
        sizes = range(rho, cap + 1)
        return [(order[0], *c) for k in sizes for c in itertools.combinations(order[1:], k - 1)]
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
            prices, candidates, incumbent=method == "monte_carlo"
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
    # Any package error is named, not only a NumericalError: at rho 1 the
    # minimum alone is a candidate, and no parametric family fits it.
    for method in ("interval", "minimal", "monte_carlo", "brute_force"):
        with pytest.raises(ValidationError) as info:
            disclose(prices, method, DisclosureConstraints(rho=1), 4, "parametric", budget=50, seed=0)
        message = str(info.value)
        assert message.startswith(f"{method} candidate of 1 prices (1.00) failed"), message
        assert message.endswith("parametric fitting needs at least 2 observations")
    # Both methods meet (100, 300, 420) first; the error must name it.
    bad = {(100, 300, 420), (100, 420, 555)}

    def evaluate(cents, n_new, estimator, fit):
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


# ---------------------------------------------------------------- screen
# The stub's lower bounds: 0.5 below the stub's cost on half the rows, and
# exactly the cost on the others, which puts those rows at the margin.


def stub_bound(cents, n_new, estimator):
    value = stub_cost(cents, n_new, estimator).value
    return value - 0.5 if sum(cents) % 2 else value


def stub_bounds(bound):
    """A stand-in for ``_lower_bounds`` that bounds each row by ``bound``
    and fits none, for an evaluation stub that builds no density."""
    return lambda keys, n_new, estimator: ([bound(key, n_new, estimator) for key in keys], lambda i: None)


@pytest.mark.parametrize("block_bytes", [None, 1, 30])
@pytest.mark.parametrize("case", PIPELINE_CASES)
def test_pipeline_with_a_stub_screen_matches_reference_enumeration(monkeypatch, case, block_bytes):
    n, seed, rho, max_size = case
    evaluated = []

    def evaluate(cents, n_new, estimator, fit):
        evaluated.append(cents)
        return stub_cost(cents, n_new, estimator)

    monkeypatch.setattr(disclosure, "_evaluate_cents", evaluate)
    monkeypatch.setattr(disclosure, "_lower_bounds", stub_bounds(stub_bound))
    if block_bytes is not None:
        monkeypatch.setattr(disclosure, "MASK_BLOCK_BYTES", block_bytes)
    prices = stub_prices(n, seed)
    constraints = DisclosureConstraints(rho=rho, max_size=max_size)
    cap = constraints.size_cap(n)
    counts = [0, 0]  # evaluations with the stub's bounds, and with bounds of 0
    for method in ("full", "interval", "minimal", "brute_force", "monte_carlo"):
        if method == "brute_force" and n > 12:
            continue
        budget = 300 if n < 64 else 40
        evaluated.clear()
        result = disclose(prices, method, constraints, 5, budget=budget, seed=seed)
        candidates = reference_candidates(prices, method, rho, n if method == "full" else cap, budget, seed)
        entries, trace, improved_to, count = reference_select(
            prices, candidates, incumbent=method == "monte_carlo"
        )
        assert result.subset.entries == entries, method
        assert result.trace == trace, method
        assert tuple(s.entries for s in result.trace_subsets) == improved_to, method
        assert result.subsets_evaluated == count, method
        assert result.critical_cost.value == trace[-1][1], method
        # The screen drops candidates that a bound of 0 lets through.
        counts[0] += len(evaluated)
        monkeypatch.setattr(disclosure, "_lower_bounds", stub_bounds(lambda cents, n_new, estimator: 0.0))
        evaluated.clear()
        assert disclose(prices, method, constraints, 5, budget=budget, seed=seed).trace == trace
        monkeypatch.setattr(disclosure, "_lower_bounds", stub_bounds(stub_bound))
        counts[1] += len(evaluated)
    assert counts[0] <= counts[1]


def test_screened_candidate_that_would_fail_does_not_abort(monkeypatch):
    prices = make_prices([100, 250, 300, 420, 555])
    bad = (100, 420, 555)  # each method's last candidate

    def cost(cents):
        return SimpleNamespace(value=1.0 + sum(cents) // 7 % 4)

    def evaluate(cents, n_new, estimator, fit):
        if cents == bad:
            raise NumericalError("integral forms disagree", error_estimate=0.25)
        return cost(cents)

    def dear(cents, n_new, estimator, fit):
        return SimpleNamespace(value=9.0) if cents == bad else cost(cents)

    # The bound proves that the failing candidate cannot improve: it is not
    # integrated, and the answer is the one it would give at any cost above
    # its bound.
    monkeypatch.setattr(disclosure, "_lower_bounds",
                        stub_bounds(lambda cents, n_new, estimator: 9.0 if cents == bad else 0.0))
    for method in ("interval", "brute_force"):
        monkeypatch.setattr(disclosure, "_evaluate_cents", dear)
        expected = disclose(prices, method, RHO3, 4)
        monkeypatch.setattr(disclosure, "_evaluate_cents", evaluate)
        result = disclose(prices, method, RHO3, 4)
        assert (result.subset, result.trace) == (expected.subset, expected.trace), method
    # Unscreened, it still aborts the run and is named.
    monkeypatch.setattr(disclosure, "_lower_bounds", stub_bounds(lambda cents, n_new, estimator: 0.0))
    for method in ("interval", "brute_force"):
        with pytest.raises(NumericalError) as info:
            disclose(prices, method, RHO3, 4)
        assert str(info.value).startswith(f"{method} candidate of 3 prices (1.00 4.20 5.55) failed")
        assert info.value.error_estimate == 0.25


@pytest.mark.parametrize("estimator", ["kde", "parametric"])
def test_a_selection_fits_only_the_rows_it_integrates_or_defers(monkeypatch, estimator):
    # A block of two or more rows is bounded from its first row, and a row
    # the screen bounds is integrated from the block fit that bounded it:
    # every lookup of brute force, minimal and interval is bounded, and the
    # only row a selection looks up with no bound, and the only one it fits
    # alone, is Monte Carlo's incumbent, a block of one row. Three
    # equal cheapest prices make rows on which only the exponential fits,
    # and the block fit fits them too: no row is deferred. Across
    # selections that share the cache, a row screened out in one selection
    # and let through in a later one is integrated once, when it is let
    # through, from the fit that bounded it there.
    cached, fit, block = disclosure._evaluate_cents, disclosure.fit_estimator, disclosure.evaluate_block
    lookups, fitted, screened = [], [], set()

    def lookup(cents, n_new, estimator, handed):
        bounded, misses = handed.build is not None, cached.cache_info().misses
        cost = cached(cents, n_new, estimator, handed)
        lookups.append((cents, bounded, cached.cache_info().misses > misses))
        return cost

    def counted_fit(values, estimator):
        fitted.append(tuple(int(c) for c in np.round(np.asarray(values) * 100.0)))
        return fit(values, estimator)

    def counted_block(rows, n_new, estimator, what, threshold=None):
        rows = list(rows)
        costs = block(rows, n_new, estimator, what, threshold)
        screened.update(tuple(sorted(row)) for row, c in zip(rows, costs) if c is None)
        return costs

    lookup.cache_clear = cached.cache_clear
    monkeypatch.setattr(disclosure, "_evaluate_cents", lookup)
    monkeypatch.setattr(disclosure, "fit_estimator", counted_fit)
    monkeypatch.setattr(disclosure, "evaluate_block", counted_block)
    cents = np.sort(seeded_prices(10, seed=3).cents_array())
    prices = make_prices([int(c) for c in np.concatenate([cents[:1].repeat(3), cents[3:]])])
    clear_evaluation_cache()
    considered, screened_before, readmitted = 0, set(), set()
    for method in ("brute_force", "minimal", "interval", "monte_carlo"):
        screened_before |= screened
        start = len(lookups)
        considered += disclose(prices, method, RHO3, 5, estimator, budget=60, seed=2).subsets_evaluated
        mine = lookups[start:]
        alone = [False] if method == "monte_carlo" else []
        assert [bounded for _, bounded, _ in mine] == alone + [True] * (len(mine) - len(alone)), method
        # Screened earlier, integrated now.
        readmitted |= screened_before & {cents for cents, _, missed in mine if missed}
    integrated = [cents for cents, _, missed in lookups if missed]
    assert fitted == [cents for cents, bounded, missed in lookups if missed and not bounded]
    assert len(set(integrated)) == len(integrated) < considered
    assert readmitted
    # Minimal integrated the full set first, so Monte Carlo's incumbent was
    # a cache hit; from a cold cache it is the one row fitted alone.
    clear_evaluation_cache()
    start = len(lookups)
    disclose(prices, "monte_carlo", RHO3, 5, estimator, budget=60, seed=2)
    assert fitted == [lookups[start][0]] == [tuple(sorted(prices.cents_array().tolist()))]


def _fields(density):
    """A density's attributes, arrays as bytes and floats in hex, so == is
    bitwise."""
    def bits(v):
        if isinstance(v, np.ndarray):
            return v.dtype.str, v.shape, v.tobytes()
        if isinstance(v, (tuple, list)):
            return tuple(map(bits, v))
        if isinstance(v, dict):
            return {k: bits(x) for k, x in v.items()}
        return float(v).hex() if isinstance(v, float) else v

    return type(density), bits(vars(density))


@pytest.mark.parametrize("one_row_chunks", [False, True], ids=["block", "one_row_chunks"])
@pytest.mark.parametrize("estimator", ["kde", "parametric"])
def test_every_integrated_row_has_the_density_and_cost_of_its_fit_alone(monkeypatch, estimator, one_row_chunks):
    # Every row a selection integrates, whether bounded in a block, in a
    # chunk of one row, or evaluated alone (each selection's first row and
    # evaluate_subset), gets the density fit_estimator gives the row alone
    # and the cost that density gives, bit for bit: on mouse's 133 prices
    # (past numpy's 128-value pairwise split), on bundled subsets and on
    # tie-heavy lists.
    if one_row_chunks:
        monkeypatch.setattr(search, "KDE_BLOCK_DOUBLES", 1)
    cached, cost = disclosure._evaluate_cents, disclosure.critical_cost
    seen, looking_up = [], []

    def lookup(cents, n_new, estimator, handed):
        looking_up[:] = [(cents, handed.build is not None)]
        return cached(cents, n_new, estimator, handed)

    def recorded_cost(density, q, n_new):
        result = cost(density, q, n_new)
        seen.append((*looking_up[0], density, q, n_new, result))
        return result

    lookup.cache_clear = cached.cache_clear
    monkeypatch.setattr(disclosure, "_evaluate_cents", lookup)
    monkeypatch.setattr(disclosure, "critical_cost", recorded_cost)
    rng = np.random.default_rng(17)
    mouse = builtin_dataset("mouse")
    ties = make_prices([int(c) for c in _tie_heavy_cents(rng, 24)])
    clear_evaluation_cache()
    disclose(mouse, "interval", DisclosureConstraints(rho=125), 18, estimator)
    disclose(mouse, "minimal", DisclosureConstraints(rho=120), 18, estimator)
    for name in ("printer", "camera"):
        disclose(builtin_dataset(name), "monte_carlo", DisclosureConstraints(rho=10), 18, estimator,
                 budget=40, seed=3)
    for method in ("interval", "minimal"):
        disclose(ties, method, DisclosureConstraints(rho=3), 18, estimator)
    evaluate_subset(ties, 18, estimator)
    # Rows of 129-133 mouse prices in descending cost: under a finite
    # threshold every one is bounded in the block, and none is screened.
    ordered = np.sort(mouse.cents_array())
    big = [ordered[-k:].tolist() for k in range(129, 134)]
    big.sort(key=lambda row: -critical_cost(fit_estimator(np.array(row) / 100.0, estimator), row[0] / 100.0, 18).value)
    assert None not in disclosure.evaluate_block(big, 18, estimator, "row", 1e9)
    assert {bounded for _, bounded, *_ in seen} == {False, True}
    assert max(len(cents) for cents, bounded, *_ in seen if bounded) > 128
    for cents, bounded, density, q, n_new, result in seen:
        alone = fit_estimator(np.array(cents, dtype=float) / 100.0, estimator)
        assert _fields(density) == _fields(alone), (cents, bounded)
        assert repr(result) == repr(critical_cost(alone, q, n_new)), (cents, bounded)


def test_a_row_with_no_fit_still_aborts_and_is_named(monkeypatch):
    # A row the block fit defers has no bound, so it is not screened: it is
    # fitted alone, and the fit's error names it, in a block as alone.
    # Under a threshold the error is recorded with the row's bound, which
    # is NaN, so _select raises it at any running best above 0.
    def evaluate(rows):
        costs = disclosure.evaluate_block(rows, 4, "parametric", "row", math.inf)
        (failure,) = [cost for cost in costs if isinstance(cost, disclosure._Failure)]
        assert math.isnan(failure.bound)
        raise failure.error

    good = [100, 250, 300, 420]
    with pytest.raises(ValidationError) as info:
        evaluate([good, [100]])
    assert str(info.value) == "row of 1 prices (1.00) failed: parametric fitting needs at least 2 observations"
    # A winner with no mass above zero: on rows of 3 prices every family
    # but the gumbel is unsolved, and the gumbel sits a million below zero.
    fit_families = ParametricRows._fit_families

    def far_below(x, sizes):
        fits = fit_families(x, sizes)
        three = sizes == 3
        for f, (spread, solved, params) in enumerate(fits):
            if FAMILIES[f] == "gumbel":
                params = {"loc": np.where(three, -1e6, params["loc"]), "scale": np.where(three, 1.0, params["scale"])}
            else:
                solved = solved & ~three
            fits[f] = (spread, solved, params)
        return fits

    monkeypatch.setattr(ParametricRows, "_fit_families", staticmethod(far_below))
    for rows in ([good, [100, 250, 300]], [[100, 250, 300]]):
        with pytest.raises(FitError) as info:
            evaluate(rows)
        assert str(info.value) == "row of 3 prices (1.00 2.50 3.00) failed: gumbel: no probability mass above zero"


def test_evaluate_block_without_a_threshold_evaluates_every_row():
    # Rows in ascending cost: from the second on, each one's bound is above
    # the first row's cost, so a running threshold would screen it out.
    # Pooled sets, evaluate_subset and sweeps pass none and get every row.
    prices = seeded_prices(9, seed=5)
    cents = sorted(int(c) for c in prices.cents_array())
    rows = sorted(([cents[0], *rest] for rest in itertools.combinations(cents[1:], 3)),
                  key=lambda row: evaluate_subset(make_prices(row), 5).value)
    clear_evaluation_cache()
    costs = disclosure.evaluate_block(rows, 5, "kde", "row")
    assert all(isinstance(cost, CriticalCost) for cost in costs)
    assert [cost.value for cost in costs] == [evaluate_subset(make_prices(row), 5).value for row in rows]
    screened = disclosure.evaluate_block(rows, 5, "kde", "row", math.inf)
    assert screened[0] == costs[0] and screened.count(None) > len(rows) // 2
    assert isinstance(evaluate_subset(make_prices(rows[-1]), 5), CriticalCost)


def _tie_heavy_cents(rng, size):
    """``size`` prices on 2-5 distinct values within $3."""
    anchor = int(rng.integers(2000, 60000))
    distinct = anchor + np.concatenate(([0], rng.choice(np.arange(1, 301), int(rng.integers(1, 5)), replace=False)))
    return rng.choice(distinct, size=size)


def test_lower_bound_never_exceeds_the_cost_beyond_the_screen_margin():
    # Candidates of every method, under both estimators, on the bundled
    # lists and on tie-heavy lists, at n_new 1, 18 and 1000: the bound never
    # exceeds the cost by more than the margin evaluate_block uses, so a
    # screened candidate could not have been an improvement. Brute force
    # runs on a seeded 11-price subset of each list. The inputs come from a
    # seeded numpy generator, with no reference integrator; capped at 120 s,
    # about 2 s on 2 vCPUs.
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    lists = [builtin_dataset(name).cents_array() for name in sorted(BUILTIN_MANIFESTS)]
    lists += [_tie_heavy_cents(rng, 30) for _ in range(4)]
    keys = set()
    for cents in lists:
        prices = make_prices([int(c) for c in cents])
        small = make_prices([int(c) for c in rng.choice(cents, size=11, replace=False)])
        for method in ("full", "interval", "minimal", "brute_force", "monte_carlo"):
            listed = small if method == "brute_force" else prices
            n = len(listed)
            candidates = reference_candidates(listed, method, min(10, n - 1), n, budget=40, seed=1)
            for j in rng.choice(len(candidates), size=min(10, len(candidates)), replace=False):
                keys.add(tuple(sorted(listed.entries[i].cents for i in candidates[j])))
    # The bounds also come as the screen takes them: every key in one block,
    # from one fit of them all, which gives a deferred row (NaN) no bound.
    keys = sorted(keys)
    block = {(estimator, n_new): disclosure._lower_bounds(keys, n_new, estimator)[0]
             for estimator in ("kde", "parametric") for n_new in (1, 18, 1000)}
    checked = failed = 0
    for i, key in enumerate(keys):
        values = np.array(key, dtype=float) / 100.0
        for estimator in ("kde", "parametric"):
            density = fit_estimator(values, estimator)
            for n_new in (1, 18, 1000):
                try:
                    value = critical_cost(density, values[0], n_new).value
                except NumericalError:
                    failed += 1
                    continue
                bounds = [critical_cost_lower_bound(density, values[0], n_new)]
                bounds += [block[estimator, n_new][i]] if not math.isnan(block[estimator, n_new][i]) else []
                for bound in bounds:
                    assert 0.0 <= bound <= disclosure._screen_limit(value), (key, estimator, n_new, bound, value)
                checked += 1
    assert checked >= 1500 and failed <= 0.1 * checked
    assert time.perf_counter() - t0 < 120.0


# Nine prices on which some parametric integrals do not converge.
NINE_PRICES = [89, 95, 470, 1688, 4838, 5860, 10642, 24174, 35043]


def test_graded_parametric_screen_refines_the_even_grid(monkeypatch):
    # A parametric fit's screen edges are the even grid refined by cuts
    # graded toward q, so on bundled subsets, tie-heavy lists and the nine
    # prices, at n_new 1, 18 and 1000, every bound is at least the even
    # grid's and at most the cost, each to within the screen's margin. The
    # running best falls only at improvements, which are never screened, so
    # a selection replayed under both rules integrates, under the graded
    # edges, a subset of the rows it integrates under the even grid, and
    # gives the same answer or the same error.
    graded = search.screen_edges

    def even(low, q, scale):
        """The rule the graded cuts refine: SCREEN_PANELS even panels alone
        for a density without a feature scale."""
        if scale is not None:
            return graded(low, q, scale)
        cuts = np.arange(search.SCREEN_PANELS) * ((q - low) / search.SCREEN_PANELS) + low
        return np.concatenate([cuts, q], axis=-1)

    rng = np.random.default_rng(23)
    lists = [np.array(NINE_PRICES)]
    lists += [rng.choice(builtin_dataset(name).cents_array(), size=30, replace=False) for name in sorted(BUILTIN_MANIFESTS)]
    lists += [_tie_heavy_cents(rng, 30) for _ in range(2)]
    keys = {tuple(sorted(NINE_PRICES))}
    for cents in lists:
        for _ in range(12):
            row = rng.choice(cents, size=int(rng.integers(2, cents.size + 1)), replace=False)
            keys.add(tuple(sorted(int(c) for c in row)))
    keys = sorted(keys)
    checked = 0
    for n_new in (1, 18, 1000):
        refined = disclosure._lower_bounds(keys, n_new, "parametric")[0]
        with monkeypatch.context() as m:
            m.setattr(search, "screen_edges", even)
            coarse = disclosure._lower_bounds(keys, n_new, "parametric")[0]
        for key, new, old in zip(keys, refined, coarse):
            assert old <= disclosure._screen_limit(new), (key, n_new, new, old)
            values = np.array(key, dtype=float) / 100.0
            try:
                value = critical_cost(fit_estimator(values, "parametric"), values[0], n_new).value
            except NumericalError:
                continue
            assert new <= disclosure._screen_limit(value), (key, n_new, new, value)
            checked += 1
    assert checked >= 0.8 * 3 * len(keys)

    cached = disclosure._evaluate_cents

    def replay(prices, method, rho, n_new, rule):
        integrated = set()

        def lookup(cents, n_new, estimator, fit):
            integrated.add(cents)
            return cached(cents, n_new, estimator, fit)

        lookup.cache_clear = cached.cache_clear
        with monkeypatch.context() as m:
            m.setattr(disclosure, "_evaluate_cents", lookup)
            m.setattr(search, "screen_edges", rule)
            clear_evaluation_cache()
            try:
                result = disclose(prices, method, DisclosureConstraints(rho=rho), n_new, "parametric",
                                  budget=60, seed=3)
            except PriceDisclosureError as exc:
                return integrated, str(exc)
        return integrated, (result.subset, result.trace, repr(result.critical_cost))

    fewer = 0
    for cents in lists:
        prices = make_prices([int(c) for c in cents])
        rho = min(10, len(prices) // 3)
        for method in ("interval", "monte_carlo"):
            for n_new in (1, 18, 1000):
                before, expected = replay(prices, method, rho, n_new, even)
                after, result = replay(prices, method, rho, n_new, graded)
                assert after <= before and result == expected, (cents, method, n_new)
                fewer += len(before) - len(after)
    assert fewer > 0
