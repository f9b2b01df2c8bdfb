"""Subset-selection strategies for price disclosure.

A disclosing agent must publish at least ``rho`` of its ``n`` prices,
always including the minimum. Every strategy below searches for the subset
whose fitted density yields the lowest critical cost, i.e. the disclosure
that makes further querying look least worthwhile:

- ``brute_force_disclose``: exhaustive oracle, guarded by a candidate cap.
- ``monte_carlo_disclose``: seeded random subsets under an iteration budget.
- ``interval_disclose``: the minimum joined with every contiguous run of
  the ascending-sorted remaining prices.
- ``minimal_disclose``: ascending prefixes only, plus the full set.

Results are deterministic: the randomized strategy derives iteration i's
draws from (seed, i) via a counter-based generator, so any budget's run is
a prefix of a larger budget's run and worker counts never matter.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import PriceList
from .density import fit_estimator
from .errors import InfeasibleError, ValidationError
from .search import CriticalCost, critical_cost, subset_count

BRUTE_FORCE_GUARD = 5_000_000

METHODS = ("brute_force", "monte_carlo", "interval", "minimal", "full")

# Cents-multiset evaluations repeat heavily across strategies and trials;
# the cache buys large speedups at a bounded memory cost.
_CACHE_SIZE = 200_000


@dataclass(frozen=True)
class DisclosureConstraints:
    """Disclosure rules: minimum size rho, optional size cap, minimum price
    always included."""

    rho: int
    must_include_min: bool = True
    max_size: int | None = None

    def __post_init__(self):
        if self.rho < 1:
            raise ValidationError(f"rho must be at least 1, got {self.rho}")
        if not self.must_include_min:
            raise ValidationError("the minimum price must always be disclosed")
        if self.max_size is not None and self.max_size < self.rho:
            raise ValidationError(
                f"max_size {self.max_size} is below rho {self.rho}"
            )

    def size_cap(self, n: int) -> int:
        if self.rho > n:
            raise ValidationError(f"rho {self.rho} exceeds the list size {n}")
        return n if self.max_size is None else min(n, self.max_size)


@dataclass(frozen=True)
class DisclosureResult:
    subset: PriceList
    critical_cost: CriticalCost
    method: str
    subsets_evaluated: int
    seed: int | None = None
    trace: tuple[tuple[int, float], ...] = ()
    warning: str = ""


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _evaluate_cents(cents: tuple[int, ...], n_new: int, estimator: str) -> CriticalCost:
    values = np.asarray(cents, dtype=float) / 100.0
    density = fit_estimator(values, estimator)
    return critical_cost(density, min(values), n_new)


def clear_evaluation_cache() -> None:
    _evaluate_cents.cache_clear()


def evaluate_subset(subset: PriceList, n_new: int, estimator: str = "kde") -> CriticalCost:
    """Critical cost of a disclosed set: fit a density to it, take q as its
    minimum. Pure in the value multiset, so results are memoized."""
    return _evaluate_cents(tuple(sorted(e.cents for e in subset.entries)), int(n_new), estimator)


def evaluate_subset_uncached(subset: PriceList, n_new: int, estimator: str = "kde") -> CriticalCost:
    """Same computation as :func:`evaluate_subset` without memoization;
    used to time real work (``disclose --deadline-ms``)."""
    return _evaluate_cents_uncached(tuple(sorted(e.cents for e in subset.entries)), int(n_new), estimator)


# Bound at import: a wrapper later installed over _evaluate_cents (the
# benchmark's tracer is one) has the cache itself as its __wrapped__.
_evaluate_cents_uncached = _evaluate_cents.__wrapped__


def _present(prices: PriceList, indices) -> PriceList:
    """Subset in ascending price order (ties by original position)."""
    cents = prices.cents_array()
    ordered = sorted(indices, key=lambda i: (cents[i], i))
    return prices.subset(ordered)


def _improvement_trace(costs, start_index: int = 1, incumbent: float | None = None):
    """(evaluation_index, best_so_far) at every strict improvement."""
    trace: list[tuple[int, float]] = []
    best = incumbent
    if incumbent is not None:
        trace.append((start_index - 1, incumbent))
    for offset, cost in enumerate(costs):
        if best is None or cost < best:
            best = cost
            trace.append((start_index + offset, best))
    return tuple(trace)


def full_disclose(prices: PriceList, n_new: int, estimator: str = "kde") -> DisclosureResult:
    """Disclose everything; the baseline every strategy must beat."""
    cost = evaluate_subset(prices, n_new, estimator)
    return DisclosureResult(
        subset=_present(prices, range(len(prices))),
        critical_cost=cost,
        method="full",
        subsets_evaluated=1,
        trace=((1, cost.value),),
    )


def _brute_candidates(pool: tuple[int, ...], sizes, offset: int, step: int):
    """Round-robin share of the combination stream for one worker."""
    for k in sizes:
        yield from itertools.islice(itertools.combinations(pool, k - 1), offset, None, step)


def _brute_worker(args):
    cents, min_index, pool, sizes, offset, step, n_new, estimator = args
    best_key = None
    best_combo = None
    for combo in _brute_candidates(pool, sizes, offset, step):
        subset_cents = tuple(sorted((cents[min_index],) + tuple(cents[i] for i in combo)))
        cost = _evaluate_cents(subset_cents, n_new, estimator).value
        key = (cost, subset_cents)
        if best_key is None or key < best_key:
            best_key = key
            best_combo = combo
    return best_key, best_combo


def brute_force_disclose(
    prices: PriceList,
    constraints: DisclosureConstraints,
    n_new: int,
    estimator: str = "kde",
    workers: int = 1,
) -> DisclosureResult:
    """Exhaustive oracle over every allowed subset.

    Ties on cost go to the lexicographically smallest sorted price
    sequence, which makes the result independent of enumeration order and
    hence of the worker count.
    """
    n = len(prices)
    cap = constraints.size_cap(n)
    sizes = range(constraints.rho, cap + 1)
    total = sum(math.comb(n - 1, k - 1) for k in sizes)
    if total > BRUTE_FORCE_GUARD:
        raise InfeasibleError(
            f"brute force refused: subset_count gives {total} candidates, "
            f"guard is {BRUTE_FORCE_GUARD}"
        )
    min_index = prices.min_index
    cents = tuple(int(c) for c in prices.cents_array())
    pool = tuple(i for i in range(n) if i != min_index)
    n_new = int(n_new)

    if workers > 1:
        tasks = [
            (cents, min_index, pool, tuple(sizes), w, workers, n_new, estimator)
            for w in range(workers)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
            results = list(pool_exec.map(_brute_worker, tasks))
    else:
        results = [_brute_worker((cents, min_index, pool, tuple(sizes), 0, 1, n_new, estimator))]

    best_key, best_combo = min(
        (r for r in results if r[0] is not None), key=lambda r: r[0]
    )
    indices = (min_index,) + best_combo
    subset = _present(prices, indices)
    return DisclosureResult(
        subset=subset,
        critical_cost=evaluate_subset(subset, n_new, estimator),
        method="brute_force",
        subsets_evaluated=total,
    )


def _interval_candidates(order: np.ndarray, rho: int, cap: int):
    """All (minimum + contiguous ascending run) index tuples, smallest size
    first; the full set appears as the single largest run."""
    n = order.size
    for k in range(rho, cap + 1):
        for start in range(1, n - k + 2):
            yield (int(order[0]), *(int(i) for i in order[start : start + k - 1]))


def interval_disclose(
    prices: PriceList,
    constraints: DisclosureConstraints,
    n_new: int,
    estimator: str = "kde",
) -> DisclosureResult:
    """Evaluate the minimum joined with every contiguous run of the sorted
    remaining prices; quadratically fewer candidates than brute force."""
    n = len(prices)
    cap = constraints.size_cap(n)
    order = prices.ascending_order()
    cents = prices.cents_array()
    n_new = int(n_new)
    best_key = None
    best_indices = None
    costs = []
    for indices in _interval_candidates(order, constraints.rho, cap):
        subset_cents = tuple(sorted(int(cents[i]) for i in indices))
        cost = _evaluate_cents(subset_cents, n_new, estimator).value
        costs.append(cost)
        key = (cost, len(costs))
        if best_key is None or cost < best_key[0]:
            best_key = key
            best_indices = indices
    subset = _present(prices, best_indices)
    return DisclosureResult(
        subset=subset,
        critical_cost=evaluate_subset(subset, n_new, estimator),
        method="interval",
        subsets_evaluated=len(costs),
        trace=_improvement_trace(costs),
    )


def minimal_disclose(
    prices: PriceList,
    constraints: DisclosureConstraints,
    n_new: int,
    estimator: str = "kde",
) -> DisclosureResult:
    """Evaluate ascending prefixes only: the cheapest strategy, linear in
    the number of allowed sizes. The full set seeds the incumbent."""
    n = len(prices)
    cap = constraints.size_cap(n)
    order = prices.ascending_order()
    cents = prices.cents_array()
    n_new = int(n_new)
    candidates: list[tuple[int, ...]] = []
    if cap == n:
        candidates.append(tuple(int(i) for i in order))
    for k in range(constraints.rho, min(n - 1, cap) + 1):
        candidates.append(tuple(int(i) for i in order[:k]))
    best_key = None
    best_indices = None
    costs = []
    for indices in candidates:
        subset_cents = tuple(sorted(int(cents[i]) for i in indices))
        cost = _evaluate_cents(subset_cents, n_new, estimator).value
        costs.append(cost)
        if best_key is None or cost < best_key[0]:
            best_key = (cost, len(costs))
            best_indices = indices
    subset = _present(prices, best_indices)
    return DisclosureResult(
        subset=subset,
        critical_cost=evaluate_subset(subset, n_new, estimator),
        method="minimal",
        subsets_evaluated=len(costs),
        trace=_improvement_trace(costs),
    )


def _raw_words(seed: int, rows: int, cols: int) -> np.ndarray:
    """Counter-based tableau of uint64 words: row i is iteration i's
    randomness, and smaller tableaux are exact prefixes of larger ones."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.integers(0, 2**64, size=(rows, cols), dtype=np.uint64, endpoint=False)


def _decode_mask(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if (mask >> i) & 1)


def monte_carlo_disclose(
    prices: PriceList,
    constraints: DisclosureConstraints,
    n_new: int,
    budget: int,
    seed: int,
    estimator: str = "kde",
) -> DisclosureResult:
    """Random subsets under an iteration budget, best-so-far semantics.

    Each iteration draws a size k uniformly from [rho, n-1], then k-1
    distinct non-minimum listings by partial Fisher-Yates, and joins the
    minimum. The full set is the incumbent, so any budget's answer is at
    least as good as disclosing everything, and iteration i's randomness
    depends only on (seed, i).
    """
    n = len(prices)
    cap = constraints.size_cap(n)
    budget = int(budget)
    if budget < 1:
        raise ValidationError(f"budget must be at least 1, got {budget}")
    n_new = int(n_new)
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    min_index = prices.min_index
    cents = prices.cents_array()

    if cap == n:
        incumbent_indices = tuple(range(n))
    else:
        order = prices.ascending_order()
        incumbent_indices = tuple(int(i) for i in order[:cap])
    incumbent_cents = tuple(sorted(int(cents[i]) for i in incumbent_indices))
    incumbent_cost = _evaluate_cents(incumbent_cents, n_new, estimator).value

    k_lo, k_hi = constraints.rho, min(n - 1, cap)
    if k_lo > k_hi:
        subset = _present(prices, incumbent_indices)
        return DisclosureResult(
            subset=subset,
            critical_cost=evaluate_subset(subset, n_new, estimator),
            method="monte_carlo",
            subsets_evaluated=0,
            seed=seed,
            trace=((0, incumbent_cost),),
            warning=f"no room to sample: rho={k_lo} exceeds n-1={n - 1}",
        )

    # One row of n-1 words per iteration: word 0 picks k, the rest drive the
    # partial shuffle. Fixed row width keeps the stream iteration-indexed.
    words = _raw_words(seed, budget, n - 1)
    k_col = (words[:, 0] % np.uint64(k_hi - k_lo + 1)).astype(np.int64) + k_lo
    pool = np.array([i for i in range(n) if i != min_index], dtype=np.int64)
    idx = np.tile(pool, (budget, 1))
    rows = np.arange(budget)
    max_draws = int(k_col.max()) - 1
    for j in range(max_draws):
        active = j < k_col - 1
        r = j + (words[:, j + 1] % np.uint64(n - 1 - j)).astype(np.int64)
        ar = rows[active]
        rr = r[active]
        tmp = idx[ar, j].copy()
        idx[ar, j] = idx[ar, rr]
        idx[ar, rr] = tmp

    if n <= 64:
        masks = np.full(budget, np.uint64(1) << np.uint64(min_index), dtype=np.uint64)
        for j in range(max_draws):
            bit = np.uint64(1) << idx[:, j].astype(np.uint64)
            masks |= np.where(j < k_col - 1, bit, np.uint64(0))
        unique_masks, inverse = np.unique(masks, return_inverse=True)
        unique_costs = np.empty(unique_masks.size, dtype=float)
        for u, mask in enumerate(unique_masks):
            key = tuple(sorted(int(cents[i]) for i in _decode_mask(int(mask), n)))
            unique_costs[u] = _evaluate_cents(key, n_new, estimator).value
        costs = unique_costs[inverse.ravel()]

        def subset_of(i: int) -> tuple[int, ...]:
            return _decode_mask(int(masks[i]), n)

    else:
        iter_indices = [
            (min_index, *(int(v) for v in idx[i, : k_col[i] - 1])) for i in range(budget)
        ]
        costs = np.array(
            [
                _evaluate_cents(tuple(sorted(int(cents[j]) for j in chosen)), n_new, estimator).value
                for chosen in iter_indices
            ],
            dtype=float,
        )

        def subset_of(i: int) -> tuple[int, ...]:
            return iter_indices[i]

    best_so_far = np.minimum(np.minimum.accumulate(costs), incumbent_cost)
    final_best = float(best_so_far[-1])
    if final_best < incumbent_cost:
        winner_iter = int(np.argmax(costs == final_best))
        winner_indices = subset_of(winner_iter)
    else:
        winner_indices = incumbent_indices

    trace: list[tuple[int, float]] = [(0, incumbent_cost)]
    improved = np.flatnonzero(best_so_far < np.concatenate(([incumbent_cost], best_so_far[:-1])))
    for i in improved:
        trace.append((int(i) + 1, float(best_so_far[i])))

    subset = _present(prices, winner_indices)
    return DisclosureResult(
        subset=subset,
        critical_cost=evaluate_subset(subset, n_new, estimator),
        method="monte_carlo",
        subsets_evaluated=budget,
        seed=seed,
        trace=tuple(trace),
    )


def disclose(
    prices: PriceList,
    method: str,
    constraints: DisclosureConstraints,
    n_new: int,
    estimator: str = "kde",
    budget: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> DisclosureResult:
    """Dispatch by method name; randomized methods require budget and seed."""
    if method == "brute_force":
        return brute_force_disclose(prices, constraints, n_new, estimator, workers)
    if method == "monte_carlo":
        if budget is None or seed is None:
            raise ValidationError("monte_carlo needs a budget and a seed")
        return monte_carlo_disclose(prices, constraints, n_new, budget, seed, estimator)
    if method == "interval":
        return interval_disclose(prices, constraints, n_new, estimator)
    if method == "minimal":
        return minimal_disclose(prices, constraints, n_new, estimator)
    if method == "full":
        return full_disclose(prices, n_new, estimator)
    raise ValidationError(f"unknown method {method!r}; choose from {METHODS}")
