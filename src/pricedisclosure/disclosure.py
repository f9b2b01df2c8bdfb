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
position), so column 0 is the minimum. Rows come in blocks of at most
``MASK_BLOCK_BYTES`` mask bytes, filled across candidate sizes, so memory
stays bounded however many candidates a method has. Every method keeps the
first strict minimum in its candidate order, which is the last entry of
its trace of improvements.

Every evaluation goes through ``evaluate_block``. Its block is an int64
matrix whose row i holds a candidate's cents, ascending, in its first
``sizes[i]`` entries, then zeros (``padded_cents``): for a mask block's
distinct rows, one compress of the ascending cents. ``_select`` passes the
best cost so far as a threshold, and ``search.lower_bounds`` fits the
block's rows at once under either estimator (``density.KernelRows`` or
``density.ParametricRows``) and bounds each by its
``critical_cost_lower_bound``. A row whose bound is above the threshold,
plus a margin no smaller than the quadrature's tolerance, or any row once
the threshold is 0, cannot cost less: it is not integrated, looked up or
even made a Python key, and it can be neither a trace entry nor the
winner, yet it counts in ``subsets_evaluated``. A row that passes is
looked up by its cents as a tuple and integrated from the density the
block fit holds for it, the one ``fit_estimator`` gives the row alone. No
bound or fit is cached. A block of two or more rows is bounded before any
cost sets a threshold, so a selection's first row is integrated from the
block fit too. A row with no bound is fitted alone: a one-row block
(Monte Carlo's incumbent, ``full`` and ``evaluate_subset``), a row the
block fit defers (fewer than 2 prices, no family fits, or no mass above
zero) and pooled sets, which pass no threshold.

A failing candidate aborts the whole run if one worker would have
integrated it: its error is re-raised, as the same type, naming the method
and the candidate's size and prices; a ``NumericalError`` keeps its error
estimate. Skipping it could return a subset that is not the method's
answer. A screened candidate's bound proves it could not have been the
answer, so an integral that would fail on it does not abort the run; a
deferred row has no bound and is never screened. Each worker's share of a
block starts from the same best cost, so it may integrate rows that one
worker would screen. So under a threshold ``evaluate_block`` records a
failing row and goes on, and ``_select`` raises the earliest one that the
best of the threshold and the known costs before it does not screen: that
is one worker's best there, as a row one worker screens costs more.

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
from .density import _check_estimator, fit_estimator
from .errors import InfeasibleError, NumericalError, PriceDisclosureError, ValidationError
from .search import CriticalCost, _check_n, critical_cost, lower_bounds

BRUTE_FORCE_GUARD = 5_000_000

METHODS = ("brute_force", "monte_carlo", "interval", "minimal", "full")

# Cents-multiset evaluations repeat across strategies and trials.
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


class _Fit:
    """How ``_evaluate_cents`` gets a row's density: ``build()``, from the
    block fit that bounded the row, or ``fit_estimator`` of the row alone
    where ``build`` is None. It rides beside the cache's key, not in it, as
    every ``_Fit`` is equal to every other, and the evaluation empties it,
    so the cache keeps no fit alive."""

    __slots__ = ("build",)

    def __init__(self, build=None):
        self.build = build

    def __eq__(self, other):
        return isinstance(other, _Fit)

    def __hash__(self):
        return 0

    def density(self, cents: tuple[int, ...], estimator: str):
        build, self.build = self.build, None
        return build() if build else fit_estimator(np.asarray(cents, dtype=float) / 100.0, estimator)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _evaluate_cents(cents: tuple[int, ...], n_new: int, estimator: str, fit: _Fit) -> CriticalCost:
    return critical_cost(fit.density(cents, estimator), min(cents) / 100.0, n_new)


def _screen_limit(threshold: float) -> float:
    """The largest lower bound that does not screen a row out at ``threshold``.
    The absolute part is the quadrature's tol, so a near-tie is evaluated."""
    return threshold * (1.0 + 1e-6) + 1e-8


def _screened(limit: float, bound: float) -> bool:
    """Whether a row with lower bound ``bound`` (NaN for none) is screened
    out at best cost ``limit``; no cost is below 0, so nothing beats 0."""
    return limit < math.inf and (limit <= 0.0 or _screen_limit(limit) < bound)


@dataclass(frozen=True)
class _Failure:
    """A row that failed under a threshold: its bound (NaN for none) and its
    error. Its value, NaN, stays out of ``_select``'s running minimum."""

    bound: float
    error: PriceDisclosureError
    value = math.nan


def clear_evaluation_cache() -> None:
    _evaluate_cents.cache_clear()


def padded_cents(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The int64 block whose row i holds the next ``sizes[i]`` of
    ``values``, then zeros to the longest row."""
    block = np.zeros((sizes.size, sizes.max()), dtype=np.int64)
    block[np.arange(sizes.max()) < sizes[:, None]] = values
    return block


def evaluate_block(cents: np.ndarray, sizes: np.ndarray, n_new: int, estimator: str, what: str,
                   threshold: float | None = None) -> list[CriticalCost | _Failure | None]:
    """Critical cost of each row of the block ``cents`` with ``sizes`` (see
    the module doc), in order: a density fit to the row, at q its minimum,
    memoized by its cents. ``n_new`` and ``estimator`` are checked before
    any row; a failing row is named ``what``. With a ``threshold``, a row
    ``_screened`` out at it gets None, the threshold falls to every
    evaluated row's cost, and a failing row gets a ``_Failure`` for
    ``_select`` to judge. Without one, every row is evaluated and a failing
    row raises at once. The block is bounded by one ``lower_bounds`` call
    under any threshold above 0, ``inf`` included, unless it is one row
    under ``inf``, which nothing can screen. A row the fit defers has no
    bound, and its fit alone raises."""
    n_new = _check_n(n_new)
    _check_estimator(estimator)
    limit = math.inf if threshold is None else threshold
    bounds = np.full(len(sizes), math.nan)
    if threshold is not None and 0.0 < threshold and (threshold < math.inf or len(sizes) > 1):
        bounds, density = lower_bounds(cents / 100.0, sizes, n_new, estimator)
    costs = []
    for i, bound in enumerate(bounds.tolist()):
        if _screened(limit, bound):
            costs.append(None)
            continue
        key = tuple(cents[i, : sizes[i]].tolist())
        try:
            fit = _Fit(None if math.isnan(bound) else functools.partial(density, i))
            cost = _evaluate_cents(key, n_new, estimator, fit)
        except PriceDisclosureError as exc:
            listed = " ".join(map(format_cents, key))
            message = f"{what} of {len(key)} prices ({listed}) failed: {exc}"
            estimate = (exc.error_estimate,) if isinstance(exc, NumericalError) else ()
            error = type(exc)(message, *estimate)
            if threshold is None:
                raise error from exc
            costs.append(_Failure(bound, error))
            continue
        costs.append(cost)
        if threshold is not None:
            limit = min(limit, cost.value)
    return costs


def evaluate_subset(subset: PriceList, n_new: int, estimator: str = "kde") -> CriticalCost:
    """Critical cost of a disclosed set; ``evaluate_block`` on one row."""
    sizes = np.array([len(subset)])
    return evaluate_block(padded_cents(np.sort(subset.cents_array()), sizes), sizes, n_new, estimator, "subset")[0]


def _block_costs(what: str, cents: np.ndarray, n_new: int, estimator: str, block, threshold: float):
    """Cost value and ``CriticalCost`` of every candidate row of ``block``,
    a mask over ``cents``, ascending; a row screened out at ``threshold``
    has value inf and no ``CriticalCost``, a failed row value NaN and its
    ``_Failure``. Each distinct row goes to ``evaluate_block`` once, in
    order of first appearance: Monte Carlo on a short list draws almost
    nothing but repeats."""
    packed = np.packbits(block, axis=1)
    # One item per packed row: np.unique(axis=0) gives the same answer at
    # several times the fixed cost per block. A row of at most 8 bytes is
    # one uint64, whose sort is cheaper than that of an opaque item.
    if packed.shape[1] <= 8:
        words = np.zeros((len(packed), 8), dtype=np.uint8)
        words[:, : packed.shape[1]] = packed
        rows = words.view(np.uint64).ravel()
    else:
        rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    appearance = np.argsort(first)
    unique = block[first[appearance]]
    sizes = unique.sum(axis=1)
    costs = np.empty(first.size, dtype=object)
    costs[appearance] = evaluate_block(padded_cents(np.broadcast_to(cents, unique.shape)[unique], sizes), sizes,
                                       n_new, estimator, what, threshold)
    values = np.array([math.inf if cost is None else cost.value for cost in costs])
    return values[inverse], costs[inverse]


def _select(method, prices, blocks, n_new, estimator, *, incumbent=False, workers=1,
            **fields) -> DisclosureResult:
    """Evaluate candidate blocks and keep the best (see the module doc).

    With ``incumbent`` the first row seeds the search uncounted, at trace
    index 0; otherwise candidate i has index i + 1. With ``workers > 1``
    each block is split into contiguous shares evaluated in parallel.
    """
    order = prices.ascending_order()
    evaluate = functools.partial(_block_costs, f"{method} candidate", prices.cents_array()[order], n_new, estimator)
    best, trace, trace_subsets, rows = math.inf, [], [], 0
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for block in blocks:
            shares = np.array_split(block, min(workers, len(block)))
            outcomes = (pool.map if pool else map)(evaluate, shares, itertools.repeat(best))
            values, costs = map(np.concatenate, zip(*outcomes))
            running = np.fmin.accumulate(np.concatenate(([best], values)))
            # A failed row aborts the run iff one worker would have integrated it.
            for j in np.flatnonzero(np.isnan(values)):
                if not _screened(running[j], costs[j].bound):
                    raise costs[j].error
            for j in np.flatnonzero(running[1:] < running[:-1]):
                trace.append((rows + (not incumbent) + int(j), float(running[j + 1])))
                trace_subsets.append(prices.subset(order[block[j]]))
                winner = costs[j]
            best = running[-1]
            rows += len(block)
    return DisclosureResult(
        subset=trace_subsets[-1],
        critical_cost=winner,
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


def _filled(pieces, n: int):
    """The rows of ``pieces``, masks over n columns each within
    MASK_BLOCK_BYTES, in order, in blocks filled to MASK_BLOCK_BYTES."""
    step = max(1, MASK_BLOCK_BYTES // n)
    held = np.empty((0, n), dtype=bool)
    for piece in pieces:
        held = np.concatenate([held, piece])
        while len(held) >= step:
            yield held[:step]
            held = held[step:]
    if len(held):
        yield held


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
    size first, in blocks filled across sizes; the full set is the single
    largest run."""
    return _filled((
        _picked_rows(n, np.arange(lo + 1, hi + 1)[:, None] + np.arange(k - 1))
        for k in range(rho, cap + 1)
        for lo, hi in _row_ranges(n - k + 1, n)
    ), n)


def _brute_rows(n: int, sizes):
    """Every combination of the columns after 0, one size after another,
    in blocks filled across sizes."""
    def pieces():
        for k in sizes:
            combos = itertools.combinations(range(1, n), k - 1)
            for lo, hi in _row_ranges(math.comb(n - 1, k - 1), n):
                yield _picked_rows(n, np.array(list(itertools.islice(combos, hi - lo)), dtype=np.intp))

    return _filled(pieces(), n)


def brute_force_disclose(
    prices: PriceList,
    constraints: DisclosureConstraints,
    n_new: int,
    estimator: str = "kde",
    workers: int = 1,
) -> DisclosureResult:
    """Exhaustive oracle over every allowed subset.

    Candidates run over the sorted prices, fewer prices first and then in
    lexicographic order; ``workers`` evaluate contiguous shares of each
    block. So the sequence of candidate prices, and with it the winner,
    depends on neither the input order nor the worker count. A tie at
    equal cost goes to the earlier candidate, as in every method.
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
    return _select("brute_force", prices, rows, n_new, estimator, workers=workers)


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
    the number of allowed sizes. The full set, when allowed, comes first
    and is counted, at trace index 1."""
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
    constraints.size_cap(len(prices))  # rho must fit the list, whatever the method
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
