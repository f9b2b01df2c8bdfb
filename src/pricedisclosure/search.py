"""Sequential-search decision model over an estimated price density.

Given the best price found so far (q) and the number of genuinely new
prices one more query would surface (N), the searcher weighs the query fee
against the expected saving from the minimum of N fresh draws. The
critical cost is that expected saving; the searcher stops once the fee
reaches it. ``critical_cost_lower_bound`` bounds it from one ``cdf`` call,
and ``lower_bounds`` does so for a padded block of samples under either
estimator, by the same edges.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .data import PriceList
from .density import KDE_BLOCK_DOUBLES, TAIL_SIGMAS, Density, estimator_rows, pointwise
from .errors import NumericalError, ValidationError
from .quadrature import adaptive_gauss_kronrod

# Two integral forms of the expected saving must agree this closely.
AGREEMENT_TOL_ABS = 1e-6
AGREEMENT_TOL_REL = 1e-4

# Starting panels for a density without a feature scale, and the cap for one
# with it: 15 * 32 = 480 abscissae in the first pass.
MAX_STARTING_PANELS = 32

# Where a tail integral's starting panels are cut, in feature scales below q
# (see tail_edges): each panel is about as wide as the first quadrature
# level still meets its budget on, over subsets of the bundled price lists.
TAIL_CUTS = np.array([8.0, 5.5, 4.0, 3.0, 2.25, 1.5, 0.75])

# Where critical_cost_lower_bound cuts [low, q], in feature scales below q
# (see screen_edges): 16 cuts in geometric steps from TAIL_SIGMAS, the KDE's
# tail, so its first cut is low itself, to 1/8, which puts 15 of the 16 left
# edges within a few bandwidths of q, where the dual integrand rises. A
# density without a feature scale gets SCREEN_PANELS even cuts and the 16
# SCREEN_CUTS at the scale that makes the first of them low itself, so its
# edges grade toward q too and refine the even ones.
SCREEN_CUTS = np.geomspace(TAIL_SIGMAS, 0.125, 16)
SCREEN_PANELS = 16


class Decision(enum.Enum):
    TERMINATE = "terminate"
    CONTINUE_SEARCH = "continue_search"


@dataclass(frozen=True)
class CriticalCost:
    """Expected saving from one more query; the indifference query fee."""

    value: float
    q: float
    n_new: int
    integration_error_estimate: float

    def __post_init__(self):
        if not self.value >= 0.0:
            raise NumericalError(f"critical cost must be nonnegative, got {self.value}")
        if self.value > self.q * (1.0 + 1e-9) + 1e-12:
            raise NumericalError(
                f"critical cost {self.value} exceeds best price {self.q}"
            )


@dataclass(frozen=True)
class SearcherState:
    best_price_q: float
    observed_prices: PriceList
    query_cost: float
    expected_new_count: int

    def __post_init__(self):
        if abs(self.best_price_q - self.observed_prices.min_price) > 1e-9:
            raise ValidationError(
                f"best_price_q {self.best_price_q} is not the minimum of the "
                f"observed prices ({self.observed_prices.min_price})"
            )
        if self.query_cost < 0:
            raise ValidationError(f"query cost must be nonnegative, got {self.query_cost}")
        if self.expected_new_count < 1:
            raise ValidationError(
                f"expected_new_count must be at least 1, got {self.expected_new_count}"
            )

    @classmethod
    def from_prices(cls, prices: PriceList, query_cost: float, expected_new_count: int):
        return cls(prices.min_price, prices, query_cost, expected_new_count)


def _check_n(n_new: int) -> int:
    n = int(n_new)
    if n < 1:
        raise ValidationError(f"number of new draws must be at least 1, got {n_new}")
    return n


def _check_q(density: Density, q: float) -> float:
    q = float(q)
    if not math.isfinite(q):
        raise ValidationError(f"q must be finite, got {q}")
    if q < density.support_low:
        raise ValidationError(f"q={q} lies below the support lower bound {density.support_low}")
    return q


def _log_sf(density: Density, y):
    """log(1 - cdf) at ``y``; -inf where the cdf is 1."""
    with np.errstate(divide="ignore"):
        return np.log1p(-density.cdf(y))


def _min_order(density: Density, n: int, y, weight=1.0):
    """Cdf, and ``weight`` times pdf, of the minimum of ``n`` i.i.d. draws
    at ``y``: ``1 - sf**n`` and ``weight * n * pdf * sf**(n - 1)``.

    sf**n from sf = 1 - cdf carries n times the rounding of 1 - cdf, enough
    at large n to swamp small values and keep quadrature panels from ever
    meeting tol; the log form keeps the relative accuracy of cdf itself.
    """
    f = density.pdf(y)
    log_sf = _log_sf(density, y)
    sf_rest = np.exp((n - 1) * log_sf) if n > 1 else np.ones_like(log_sf)
    return -np.expm1(n * log_sf), weight * n * f * sf_rest


@pointwise
def min_order_pdf(density: Density, n_new: int, y):
    """Density of the minimum of ``n_new`` i.i.d. draws at ``y``."""
    return _min_order(density, _check_n(n_new), y)[1]


@pointwise
def min_order_cdf(density: Density, n_new: int, y):
    """Probability that the minimum of ``n_new`` i.i.d. draws is <= ``y``."""
    return _min_order(density, _check_n(n_new), y)[0]


def starting_panels(width: float, scale: float | None) -> int:
    """Quadrature panels to start from on an interval of ``width``: the
    least power of two that makes no panel wider than ``2 * scale``. The
    nodes are then at most ``0.21 * scale`` apart, so a density bump of
    that width cannot fall between them. Capped at MAX_STARTING_PANELS,
    which is also the count when the scale is unknown."""
    if scale is None:
        return MAX_STARTING_PANELS
    return min(2 ** max(math.ceil(math.log2(width / (2.0 * scale))), 0), MAX_STARTING_PANELS)


def tail_edges(low: float, q: float, scale: float) -> np.ndarray:
    """Starting edges on ``[low, q]`` graded toward ``q``: a cut ``t * scale``
    below ``q`` for each ``t`` in TAIL_CUTS that lies above ``low``. Below
    the sample's minimum every kernel's tail rises fastest next to ``q``, so
    the panels there are three quarters of a bandwidth wide; further down
    they widen as the integrand falls below any panel's budget. A full tail
    of ``TAIL_SIGMAS`` bandwidths gets the 8 panels that
    :func:`starting_panels` spreads evenly over it."""
    cuts = q - TAIL_CUTS * scale
    return np.concatenate([[low], cuts[cuts > low], [q]])


def screen_edges(low, q, scale) -> np.ndarray:
    """The lower bound's edges on ``[low, q]``: a cut ``t * scale`` below
    ``q`` for each ``t`` in SCREEN_CUTS, clipped at ``low``, then ``q``.
    Where ``scale`` is None (a density without a feature scale), the cuts
    are SCREEN_PANELS even cuts from ``low`` and SCREEN_CUTS at the scale
    ``(q - low) / TAIL_SIGMAS``, sorted together: the graded cuts refine the
    even grid, so the left sum is never below the even grid's, and put most
    edges near ``q``, where the dual integrand rises. ``q`` is an array with
    a trailing axis of length 1, and ``low`` and ``scale`` broadcast against
    it, so columns of arguments give rows of edges. When ``q`` is the KDE's
    sample minimum, the first cut is its ``effective_low``, bit for bit; a
    cut clipped at ``low`` makes a panel of width 0. Where the first cut
    lies above ``low`` (``q`` above the sample minimum) the panels leave out
    ``[low, first cut]``; a left sum would weigh that panel by g(low), and a
    KDE's cdf at its effective low is 0 or at most ndtr(-TAIL_SIGMAS) =
    1.8e-33, so the sum is the one with that panel to rounding."""
    if scale is None:
        even = np.arange(SCREEN_PANELS) * ((q - low) / SCREEN_PANELS) + low
        graded = np.maximum(q - SCREEN_CUTS * ((q - low) / TAIL_SIGMAS), low)
        cuts = np.sort(np.concatenate([even, graded], axis=-1), axis=-1)
    else:
        cuts = np.maximum(q - SCREEN_CUTS * scale, low)
    return np.concatenate([cuts, q], axis=-1)


def _left_riemann_sum(edges: np.ndarray, log_sf: np.ndarray, n: int):
    """sum (e[i+1] - e[i]) g(e[i]) along the last axis, for the dual
    integrand g = 1 - sf**n from ``log_sf`` = log(sf) at the left edges
    (the log form of ``_min_order``). A row's sum is the pairwise sum
    ``np.add.reduce`` gives one row, whatever rows lie beside it."""
    return np.add.reduce(np.diff(edges) * -np.expm1(n * log_sf), axis=-1)


def critical_cost_lower_bound(density: Density, q: float, n_new: int) -> float:
    """A lower bound on ``critical_cost(density, q, n_new).value`` from one
    ``cdf`` call, with no pdf and no quadrature.

    The dual integrand, the minimum-order cdf g(y) = 1 - sf(y)**n, is
    nondecreasing in y, so on any edges in ``[effective_low, q]`` its left
    Riemann sum, sum (e[i+1] - e[i]) g(e[i]), is at most its integral in
    exact arithmetic (Davis & Rabinowitz 1984). The edges are
    :func:`screen_edges` at the density's feature scale: 16 graded toward
    ``q`` for a KDE, and for a density without one 32, the even grid of
    SCREEN_PANELS panels refined by cuts graded toward ``q``, so the sum is
    never below the even grid's. :func:`lower_bounds` gives the same bound
    for many rows at once, from one fit of them all.
    """
    n = _check_n(n_new)
    q = _check_q(density, q)
    low = density.effective_low
    if q <= low:
        return 0.0
    edges = screen_edges(low, np.array([q]), density.feature_scale)
    return float(_left_riemann_sum(edges, _log_sf(density, edges[:-1]), n))


def lower_bounds(samples: np.ndarray, sizes: np.ndarray, n_new: int, estimator: str):
    """:func:`critical_cost_lower_bound` of the ``estimator`` fit of each
    row of ``samples`` (rows, k), sorted ascending in its first ``sizes``
    entries, at q its minimum, with the rows fitted at once by
    :func:`density.estimator_rows`; NaN where a row is deferred, which has
    no fit. Returns the bounds and ``density``: ``density(i)`` is row i's
    fitted density from the same fit, the one ``fit_estimator`` gives the
    row alone, bit for bit. A KDE row's bound has that density's bits while
    its 16-point cdf is one dense block. Each chunk's largest matrix, a KDE
    cdf's (rows, edges, k) terms or a parametric fit's (rows, k) samples,
    holds at most ``KDE_BLOCK_DOUBLES`` doubles, at least one row; chunks
    run over the rows in order of size, each cut to its longest row, as
    views of ``samples`` where its rows are in that order already, else of
    a copy, which ``density`` keeps with every chunk's fit. Every step is
    per row, so a row's bound has the same bits alone or among any rows.
    """
    n = _check_n(n_new)
    fit = estimator_rows(estimator)
    order = np.argsort(sizes, kind="stable")
    if np.any(np.diff(sizes) < 0):  # else each chunk is a view of ``samples``
        samples, sizes = samples[order], sizes[order]
    bounds = np.empty(len(samples))
    chunks = []
    step = max(1, KDE_BLOCK_DOUBLES // (samples.shape[1] * (SCREEN_CUTS.size if fit.dense_cdf else 1)))
    for lo in range(0, len(samples), step):
        at = slice(lo, lo + step)
        rows = fit(samples[at, : sizes[at][-1]], sizes[at])
        low, q = rows.effective_low[:, None], rows.sample_min[:, None]
        edges = screen_edges(low, q, rows.feature_scale)
        sums = _left_riemann_sum(edges, _log_sf(rows, edges[:, :-1]), n)
        bounds[order[at]] = np.where(rows.deferred, np.nan, np.where(q[:, 0] > low[:, 0], sums, 0.0))
        chunks.append(rows)
    rank = np.argsort(order)
    return bounds, lambda i: chunks[rank[i] // step].density(rank[i] % step)


def critical_cost(density: Density, q: float, n_new: int) -> CriticalCost:
    """Expected saving from one more query given best price ``q``.

    Integrates, in one adaptive Gauss-Kronrod pass over shared abscissae,
    the expectation of (q - y) against the minimum-order density and its
    integration-by-parts twin (the integrated minimum-order cdf), so the
    density's pdf and cdf are evaluated once per abscissa. The domain runs
    from the density's effective lower bound, below which its mass is under
    double eps, to ``q``; the starting panel count follows the ratio of
    that width to the density's feature scale (:func:`starting_panels`). A
    tail integral, with ``q`` at or below the sample's minimum as in every
    disclosure evaluation, starts instead from panels graded toward ``q``
    (:func:`tail_edges`), unless the draws are expected to pile up at the
    lower bound. The two forms must agree within max(1e-6, 1e-4 * value);
    the twin, whose integrand is smoother, is returned. A failure raises
    :class:`NumericalError` naming q, n_new, the interval, the starting
    panel count and whether it was graded, and the density.
    """
    n = _check_n(n_new)
    q = _check_q(density, q)
    low = density.effective_low
    if q <= low:
        return CriticalCost(0.0, q, n, 0.0)
    scale = density.feature_scale
    start = panels = starting_panels(q - low, scale)
    graded = ""
    # A tail integral: every kernel sits at or above q and puts at most
    # Phi(-(q - low) / scale) of its mass below low. While n times that is at
    # most one draw expected below low, the minimum-order mass rises toward
    # q; past it, the mass can pile up at low, and the even start stays.
    if scale is not None and q <= density.sample_min and n * special.ndtr(-(q - low) / scale) <= 1.0:
        start = tail_edges(low, q, scale)
        panels, graded = start.size - 1, " graded toward q"

    def both_forms(y: np.ndarray) -> np.ndarray:
        return np.stack(_min_order(density, n, y, weight=q - y))

    def context() -> str:
        return f"q={q}, n_new={n}, interval [{low}, {q}], {panels} starting panels{graded}, {density!r}"

    try:
        values, errors = adaptive_gauss_kronrod(both_forms, low, q, panels=start)
    except NumericalError as exc:
        raise NumericalError(f"{exc}; {context()}", error_estimate=exc.error_estimate) from exc
    dual, direct = float(values[0]), float(values[1])
    gap = abs(dual - direct)
    if gap > max(AGREEMENT_TOL_ABS, AGREEMENT_TOL_REL * abs(dual)):
        raise NumericalError(
            f"integral forms disagree: {dual} vs {direct} (gap {gap}); {context()}",
            error_estimate=gap,
        )
    value = min(max(dual, 0.0), q)
    return CriticalCost(value, q, n, float(errors[0] + errors[1]))


def decide(state: SearcherState, cost: CriticalCost) -> Decision:
    """Stop searching iff the query fee is at least the expected saving."""
    if state.query_cost >= cost.value:
        return Decision.TERMINATE
    return Decision.CONTINUE_SEARCH


def expected_new_prices(avg_listings: float, overlap_rate: float) -> int:
    """New prices another query yields: listings discounted by overlap."""
    if avg_listings <= 0:
        raise ValidationError(f"avg_listings must be positive, got {avg_listings}")
    if not 0.0 <= overlap_rate < 1.0:
        raise ValidationError(f"overlap_rate must be in [0, 1), got {overlap_rate}")
    return max(1, math.floor(avg_listings * (1.0 - overlap_rate) + 0.5))


def improvement_upper_bound(k: int, j: int) -> float:
    """Largest possible gain from widening a size-k disclosure by j prices."""
    if k < 1 or j < 1:
        raise ValidationError(f"need k >= 1 and j >= 1, got k={k}, j={j}")
    return j / (k * (k + j))


def _check_rho(n: int, rho: int) -> None:
    if not 1 <= rho <= n:
        raise ValidationError(f"need 1 <= rho <= n, got rho={rho}, n={n}")


def subset_count(n: int, rho: int) -> int:
    """Number of disclosable subsets: contain the minimum, size at least rho."""
    _check_rho(n, rho)
    return sum(math.comb(n - 1, k - 1) for k in range(rho, n + 1))


def interval_subset_count(n: int, rho: int) -> int:
    """Candidates the interval strategy evaluates; triangular in n - rho."""
    _check_rho(n, rho)
    m = n - rho + 1
    return m * (m + 1) // 2


def minimal_subset_count(n: int, rho: int) -> int:
    """Candidates the prefix-only strategy evaluates, full set included."""
    _check_rho(n, rho)
    return n - rho + 1
