"""Subset-selection strategies for price disclosure.

A disclosing agent must publish at least ``rho`` of its ``n`` prices,
always including the minimum. Every strategy searches for the subset
whose fitted density yields the lowest critical cost, i.e. the disclosure
that makes further querying look least worthwhile. The strategies differ
only in the candidates they generate; one loop, ``_select``, evaluates
them all:

- ``brute_force_disclose``: every allowed subset, guarded by a cap.
- ``monte_carlo_disclose``: seeded random subsets under a budget.
- ``interval_disclose``: the minimum plus each contiguous sorted run.
- ``minimal_disclose``: ascending prefixes only, plus the full set.
- ``full_disclose``: everything; the baseline.

A candidate is a boolean row over the prices in ascending order (ties by
position), so column 0 is the minimum and a row's cents come out sorted,
ready as the evaluation-cache key. Rows come in blocks of at most
``MASK_BLOCK_BYTES`` mask bytes, so memory stays bounded however many
candidates a method has. The winner is the first strict minimum; brute
force breaks cost ties by sorted prices instead.

A failing candidate aborts the whole run: its ``NumericalError`` is
re-raised naming the method and the candidate's size and prices, with
the original error estimate. Skipping it could return a subset that is
not the method's answer.

Results are deterministic: the randomized strategy derives iteration i's
draws from (seed, i) via a counter-based generator, so any budget's run is
a prefix of a larger budget's run and worker counts never matter. A
budget's winner is a longer run's last ``trace_subsets`` entry within it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import PriceList, format_cents
from .density import fit_estimator
from .errors import InfeasibleError, NumericalError, ValidationError
from .search import CriticalCost, critical_cost

BRUTE_FORCE_GUARD = 5_000_000

METHODS = ("brute_force", "monte_carlo", "interval", "minimal", "full")

# Cents-multiset evaluations repeat heavily across strategies and trials;
# the cache buys large speedups at a bounded memory cost.
_CACHE_SIZE = 200_000

# Candidates are generated in blocks whose boolean masks take at most this
# many bytes (at least one row per block).
MASK_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class DisclosureConstraints:
    """Disclosure rules: minimum size rho, optional size cap, minimum price
    always included."""

    rho: int
    max_size: int | None = None

    def __post_init__(self):
        if self.rho < 1:
            raise ValidationError(f"rho must be at least 1, got {self.rho}")
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
    # The subset each trace entry improved to; empty when there is no trace.
    trace_subsets: tuple[PriceList, ...] = ()


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


def _block_costs(method: str, cents: np.ndarray, n_new: int, estimator: str, block) -> np.ndarray:
    """Cost of every candidate row of ``block``, each distinct row looked
    up once, in order of first appearance."""
    packed = np.packbits(block, axis=1)
    # One opaque item per packed row: np.unique(axis=0) gives the same
    # answer at several times the fixed cost per block.
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    costs = np.empty(first.size)
    appearance = np.argsort(first)
    for u, row in zip(appearance.tolist(), block[first[appearance]]):
        key = tuple(cents[row].tolist())
        try:
            costs[u] = _evaluate_cents(key, n_new, estimator).value
        except NumericalError as exc:
            listed = " ".join(map(format_cents, key))
            message = f"{method} candidate of {len(key)} prices ({listed}) failed: {exc}"
            raise NumericalError(message, exc.error_estimate) from exc
    return costs[inverse.ravel()]


def _select(method, prices, blocks, n_new, estimator, *, incumbent=False, by_cents=False,
            workers=1, **fields) -> DisclosureResult:
    """Evaluate candidate blocks and keep the best (see the module doc).

    With ``incumbent`` the first row seeds the search uncounted, at trace
    index 0; otherwise candidate i has index i + 1. ``by_cents`` breaks
    cost ties by sorted cents and keeps no trace. With ``workers > 1``
    each block is split into contiguous shares evaluated in parallel.
    """
    order = prices.ascending_order()
    cents = prices.cents_array()[order]
    evaluate = functools.partial(_block_costs, method, cents, int(n_new), estimator)
    best_key, winner, trace, trace_subsets, rows = (math.inf,), None, [], [], 0
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for block in blocks:
            shares = np.array_split(block, min(workers, len(block)))
            costs = np.concatenate(list((pool.map if pool else map)(evaluate, shares)))
            lowest = np.flatnonzero(costs == costs.min())
            if by_cents:
                key, i = min(((costs[j], tuple(cents[block[j]].tolist())), j) for j in lowest)
            else:
                key, i = (costs[lowest[0]],), lowest[0]
                running = np.minimum.accumulate(np.concatenate((best_key, costs)))
                for j in np.flatnonzero(running[1:] < running[:-1]):
                    trace.append((rows + (not incumbent) + int(j), float(running[j + 1])))
                    trace_subsets.append(prices.subset(order[block[j]]))
            if key < best_key:
                best_key, winner = key, order[block[i]]
            rows += len(block)
    subset = prices.subset(winner)
    return DisclosureResult(
        subset=subset,
        critical_cost=evaluate_subset(subset, n_new, estimator),
        method=method,
        subsets_evaluated=rows - incumbent,
        trace=tuple(trace),
        trace_subsets=tuple(trace_subsets),
        **fields,
    )


def _row_ranges(count: int, n: int):
    """(start, stop) row spans whose n-column masks fit MASK_BLOCK_BYTES."""
    step = max(1, MASK_BLOCK_BYTES // n)
    return ((lo, min(lo + step, count)) for lo in range(0, count, step))


def _picked_rows(n: int, picked: np.ndarray) -> np.ndarray:
    """Column 0 joined with the columns listed in each row of ``picked``."""
    block = np.zeros((len(picked), n), dtype=bool)
    block[:, 0] = True
    np.put_along_axis(block, picked, True, axis=1)
    return block


def full_disclose(prices: PriceList, n_new: int, estimator: str = "kde") -> DisclosureResult:
    """Disclose everything; the baseline every strategy must beat."""
    return _select("full", prices, [np.ones((1, len(prices)), dtype=bool)], n_new, estimator)


def _interval_rows(n: int, rho: int, cap: int):
    """Column 0 with each contiguous run of the other columns, smallest
    size first; the full set is the single largest run."""
    for k in range(rho, cap + 1):
        for lo, hi in _row_ranges(n - k + 1, n):
            yield _picked_rows(n, np.arange(lo + 1, hi + 1)[:, None] + np.arange(k - 1))


def _brute_rows(n: int, sizes):
    """Every combination of the columns after 0, one size after another."""
    for k in sizes:
        combos = itertools.combinations(range(1, n), k - 1)
        for lo, hi in _row_ranges(math.comb(n - 1, k - 1), n):
            yield _picked_rows(n, np.array(list(itertools.islice(combos, hi - lo)), dtype=np.intp))


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
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    n = len(prices)
    sizes = range(constraints.rho, constraints.size_cap(n) + 1)
    total = sum(math.comb(n - 1, k - 1) for k in sizes)
    if total > BRUTE_FORCE_GUARD:
        raise InfeasibleError(
            f"brute force refused: subset_count gives {total} candidates, "
            f"guard is {BRUTE_FORCE_GUARD}"
        )
    rows = _brute_rows(n, sizes)
    return _select("brute_force", prices, rows, n_new, estimator, by_cents=True, workers=workers)


def interval_disclose(
    prices: PriceList,
    constraints: DisclosureConstraints,
    n_new: int,
    estimator: str = "kde",
) -> DisclosureResult:
    """Evaluate the minimum joined with every contiguous run of the sorted
    remaining prices; quadratically fewer candidates than brute force."""
    n = len(prices)
    rows = _interval_rows(n, constraints.rho, constraints.size_cap(n))
    return _select("interval", prices, rows, n_new, estimator)


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
    sizes = np.array(([n] if cap == n else []) + list(range(constraints.rho, min(n - 1, cap) + 1)))
    rows = (np.arange(n) < sizes[lo:hi, None] for lo, hi in _row_ranges(sizes.size, n))
    return _select("minimal", prices, rows, n_new, estimator)


def _monte_carlo_rows(order: np.ndarray, cap: int, k_lo: int, k_hi: int, budget: int, seed: int):
    """The incumbent (the ``cap`` cheapest prices), then one row per
    iteration: a size k uniform in [k_lo, k_hi] and k-1 distinct
    non-minimum prices by partial Fisher-Yates, joined with the minimum."""
    n = order.size
    yield (np.arange(n) < cap)[None]
    # The shuffle runs over the non-minimum listings in input order, held
    # as their columns.
    pool = np.argsort(order)[np.delete(np.arange(n), order[0])]
    gen = np.random.Generator(np.random.Philox(key=seed))
    for lo, hi in _row_ranges(budget, n):
        # One row of n-1 words per iteration: word 0 picks k, the rest
        # drive the partial shuffle. Fixed row width keeps the stream
        # iteration-indexed, and drawing it in blocks gives the same words.
        words = gen.integers(0, 2**64, size=(hi - lo, n - 1), dtype=np.uint64)
        k = (words[:, 0] % np.uint64(k_hi - k_lo + 1)).astype(np.int64) + k_lo
        idx = np.tile(pool, (hi - lo, 1))
        for j in range(int(k.max()) - 1):
            ar = np.flatnonzero(j < k - 1)
            rr = j + (words[ar, j + 1] % np.uint64(n - 1 - j)).astype(np.int64)
            idx[ar, j], idx[ar, rr] = idx[ar, rr], idx[ar, j]
        # Undrawn slots point at column 0, which every row holds anyway.
        yield _picked_rows(n, np.where(np.arange(n - 1) < (k - 1)[:, None], idx, 0))


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
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    k_lo, k_hi = constraints.rho, min(n - 1, cap)
    warning = f"no room to sample: rho={k_lo} exceeds n-1={n - 1}" if k_lo > k_hi else ""
    rows = _monte_carlo_rows(prices.ascending_order(), cap, k_lo, k_hi, 0 if warning else budget, seed)
    return _select(
        "monte_carlo", prices, rows, n_new, estimator, incumbent=True, seed=seed, warning=warning
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
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
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
