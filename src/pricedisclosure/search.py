"""Sequential-search decision model over an estimated price density.

Given the best price found so far (q) and the number of genuinely new
prices one more query would surface (N), the searcher weighs the query fee
against the expected saving from the minimum of N fresh draws. The
critical cost is that expected saving; the searcher stops once the fee
reaches it. ``critical_cost`` integrates one point; a critical-cost sweep
integrates many points of one density in one pass per run of them, whose
forms ``critical_cost`` then checks point by point.
``critical_cost_lower_bound`` bounds it from one ``screen_cdf`` call, and
``lower_bounds`` does so for a padded block of samples under either
estimator, by the same edges.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .data import PriceList
from .density import KDE_BLOCK_DOUBLES, TAIL_SIGMAS, Density, estimator_rows, pointwise
from .errors import NumericalError, ValidationError
from .quadrature import TOL, _linspace, adaptive_gauss_kronrod

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
# (see screen_edges). A KDE gets KDE_SCREEN_CUTS: 32 cuts in geometric steps
# from TAIL_SIGMAS, its tail, so its first cut is low itself, to 1/16, which
# puts most left edges within a few bandwidths of q, where the dual
# integrand rises. Its cdf there sums only SCREEN_WINDOW samples a row
# (density.KernelRows.cdf), so an edge costs a few kernel terms against an
# integral's thousands. On subsets of the bundled lists at n_new 18 the left
# sum is a median 0.91 of the cost (0.86 on 16 edges to 1/8 over every
# sample). On the benchmark's KDE selections at seed 3 it integrates 22-27%
# fewer candidates than those 16 dense edges; 64 edges integrate 16-23%
# fewer again, and a window of 16 1-3% fewer, each for twice the kernel
# terms, while a window of 4 integrates 11-30% more. A density without a
# feature scale gets SCREEN_PANELS even cuts and the 16 SCREEN_CUTS at the
# scale that makes the first of them low itself, so its edges grade toward q
# too and refine the even ones.
KDE_SCREEN_CUTS = np.geomspace(TAIL_SIGMAS, 1 / 16, 32)
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
    return _order_terms(density.pdf(y), _log_sf(density, y), n, weight, n > 1)


def _order_terms(f, log_sf, n, weight, powered):
    """:func:`_min_order`'s two terms from the pdf ``f`` and ``log_sf`` at
    the abscissae; ``n`` is an int, or a column of them giving a row each.
    ``powered`` is whether n > 1, in every row: the factor ``sf**(n - 1)``
    is taken only then, since with n = 1 it is 1 also where sf is 0 and
    ``(n - 1) * log_sf`` would be NaN."""
    dual = -np.expm1(n * log_sf)
    direct = weight * n * f
    if powered:
        direct *= np.exp((n - 1) * log_sf)
    return dual, direct


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
    ``q`` for each ``t`` in KDE_SCREEN_CUTS, clipped at ``low``, then ``q``.
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
        cuts = np.maximum(q - KDE_SCREEN_CUTS * scale, low)
    return np.concatenate([cuts, q], axis=-1)


def _left_riemann_sum(edges: np.ndarray, cdf: np.ndarray, n: int):
    """sum (e[i+1] - e[i]) g(e[i]) along the last axis, for the dual
    integrand g = 1 - sf**n from the ``cdf`` at the left edges, through
    log(sf) (the log form of ``_min_order``). A row's sum is the pairwise
    sum ``np.add.reduce`` gives one row, whatever rows lie beside it."""
    with np.errstate(divide="ignore"):
        log_sf = np.log1p(-cdf)
    return np.add.reduce(np.diff(edges) * -np.expm1(n * log_sf), axis=-1)


def critical_cost_lower_bound(density: Density, q: float, n_new: int) -> float:
    """A lower bound on ``critical_cost(density, q, n_new).value`` from one
    ``screen_cdf`` call, with no pdf and no quadrature.

    The dual integrand, the minimum-order cdf g(y) = 1 - sf(y)**n, is
    nondecreasing in y, so on any edges in ``[effective_low, q]`` its left
    Riemann sum, sum (e[i+1] - e[i]) g(e[i]), is at most its integral in
    exact arithmetic (Davis & Rabinowitz 1984), and less with any lower
    bound on the cdf in place of the cdf. The edges are :func:`screen_edges`
    at the density's feature scale: 32 graded toward ``q`` for a KDE, whose
    ``screen_cdf`` sums each kernel over its first SCREEN_WINDOW sorted
    samples only, and for a density without one 32, the even grid of
    SCREEN_PANELS panels refined by cuts graded toward ``q``, so the sum is
    never below the even grid's, from the cdf itself. :func:`lower_bounds`
    gives the same bound, bit for bit, for many rows at once, from one fit
    of them all.
    """
    n = _check_n(n_new)
    q = _check_q(density, q)
    low = density.effective_low
    if q <= low:
        return 0.0
    edges = screen_edges(low, np.array([[q]]), density.feature_scale)
    return float(_left_riemann_sum(edges, density.screen_cdf(edges[:, :-1]), n)[0])


def lower_bounds(samples: np.ndarray, sizes: np.ndarray, n_new: int, estimator: str):
    """:func:`critical_cost_lower_bound` of the ``estimator`` fit of each
    row of ``samples`` (rows, k), sorted ascending in its first ``sizes``
    entries, at q its minimum, with the rows fitted at once by
    :func:`density.estimator_rows`; NaN where a row is deferred, which has
    no fit. Returns the bounds and ``density``: ``density(i)`` is row i's
    fitted density from the same fit, the one ``fit_estimator`` gives the
    row alone, bit for bit, and a row's bound is that density's. Each
    chunk's largest matrix, its (rows, k) samples or a KDE cdf's (rows,
    edges, window) terms (``cdf_window``), holds at most
    ``KDE_BLOCK_DOUBLES`` doubles, at least one row; chunks
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
    k = samples.shape[1]
    step = max(1, KDE_BLOCK_DOUBLES // max(k, KDE_SCREEN_CUTS.size * min(k, fit.cdf_window)))
    for lo in range(0, len(samples), step):
        at = slice(lo, lo + step)
        rows = fit(samples[at, : sizes[at][-1]], sizes[at])
        low, q = rows.effective_low[:, None], rows.sample_min[:, None]
        edges = screen_edges(low, q, rows.feature_scale)
        sums = _left_riemann_sum(edges, rows.cdf(edges[:, :-1]), n)
        bounds[order[at]] = np.where(rows.deferred, np.nan, np.where(q[:, 0] > low[:, 0], sums, 0.0))
        chunks.append(rows)
    rank = np.argsort(order)
    return bounds, lambda i: chunks[rank[i] // step].density(rank[i] % step)


class _Forms(NamedTuple):
    """One point's two integral forms of the expected saving, from the pass
    that integrated them: the dual, over the minimum-order cdf, and the
    direct, over (q - y) times the minimum-order density, with the sum of
    their error estimates. ``panels`` and ``graded`` describe the point's
    own integral, over ``[effective_low, q]`` from ``panels`` starting
    panels, graded toward q or not, for a failure to name."""

    q: float
    n_new: int
    dual: float
    direct: float
    error_estimate: float
    panels: int
    graded: bool


def _first_start(density: Density, low: float, q: float, least: int, most: int) -> tuple[int | np.ndarray, bool]:
    """The starting panels on ``[low, q]`` for points at ``q`` whose draws
    run from ``least`` to ``most``, and whether they are graded toward q. A
    lone point starts from :func:`starting_panels` even panels, or for a
    tail integral, with ``q`` at or below the sample's minimum, from
    :func:`tail_edges`, unless its draws are expected to pile up at the
    lower bound; points that disagree start from the union of both."""
    scale = density.feature_scale
    panels = starting_panels(q - low, scale)
    if scale is None or q > density.sample_min:
        return panels, False
    # A tail integral: every kernel sits at or above q and puts at most
    # Phi(-(q - low) / scale) of its mass below low. While n times that is
    # at most one draw expected below low, the minimum-order mass rises
    # toward q; past it, the mass can pile up at low, and the even start
    # stays. The test is monotone in n, so least and most decide it.
    tail = special.ndtr(-(q - low) / scale)
    if least * tail > 1.0:
        return panels, False
    edges = tail_edges(low, q, scale)
    if most * tail <= 1.0:
        return edges, True
    return np.union1d(edges, _linspace(low, q, panels)), True


def _count(start: int | np.ndarray) -> int:
    return start if isinstance(start, int) else start.size - 1


def _runs(density: Density, low: float, points: list[tuple]):
    """Cut ``points`` (q, n_new, ...), ascending and above ``low``, into the
    runs one integral each takes, and lay out each run's starting panels.
    Yields (begin, end, layout), the layout (start, own, graded): ``start``
    a panel count or the edges on ``[low, the run's largest q]``, ``own``
    the starting panels below each of the run's q, and ``graded`` whether
    the first segment is graded toward q.

    ``[low, q_1]``, up to the run's least q, starts as a lone point there
    does (:func:`_first_start`); each further ``[q_(i-1), q_i]`` from
    :func:`starting_panels` of its own width, so every q is an edge. A run
    grows while its two rows per point times 15 starting abscissae stay
    within ``KDE_BLOCK_DOUBLES``, so a long sweep's rows stay as small as a
    block of KDE sums, and while its draws stay all above 1 or all 1, so
    that the factor ``sf**(n - 1)`` is taken by every row or none. Without
    a feature scale every segment starts from MAX_STARTING_PANELS whatever
    its width, and points at different q would share no abscissae: a run
    then holds the points of one q.
    """
    scale = density.feature_scale
    begin = 0
    while begin < len(points):
        q0, n0 = points[begin][:2]
        first, graded = _first_start(density, low, q0, n0, n0)
        own, segments = [_count(first)], []
        end = begin + 1
        while end < len(points):
            (q, n), last = points[end][:2], points[end - 1][0]
            if (n > 1) != (n0 > 1) or (q > q0 and scale is None):
                break
            if q == q0:  # the points at q0 come first, n ascending
                grown = _first_start(density, low, q0, n0, n)
                panels = _count(grown[0])
            else:
                count = starting_panels(q - last, scale) if q > last else 0
                panels = own[-1] + count
            if 30 * (end + 1 - begin) * panels > KDE_BLOCK_DOUBLES:
                break
            if q == q0:
                (first, graded), own = grown, [panels] * (end + 1 - begin)
            else:
                if count:
                    segments.append(_linspace(last, q, count)[1:])
                own.append(panels)
            end += 1
        if segments:
            first = np.concatenate([_linspace(low, q0, first) if isinstance(first, int) else first, *segments])
        yield begin, end, (first, own, graded)
        begin = end


def _integrate(density: Density, low: float, qs: tuple[float, ...], ns: tuple[int, ...],
               start: int | np.ndarray, own: list[int], graded: bool) -> list[_Forms]:
    """Both forms at each point of a run (:func:`_runs`) in one pass; see
    :func:`_integral_forms`."""
    m, top, panels = len(qs), qs[-1], own[-1]
    # q and n per row as columns. A lone point keeps scalars and an
    # integrand of one q needs no mask, so a lone point's integrand makes
    # the numpy calls it always made.
    masked = own[0] != panels
    q_col = np.array(qs)[:, None] if masked else top
    n_col = np.array(ns)[:, None] if m > 1 else ns[0]
    powered = ns[0] > 1
    # A point spanning own[i] of the P starting panels takes tol * P / own[i],
    # so each of its panels has the budget tol / own[i] it has alone.
    tol = np.tile(TOL * (panels / np.array(own)), 2)[:, None] if masked else TOL

    def rows(y: np.ndarray) -> np.ndarray:
        dual, direct = _order_terms(density.pdf(y), _log_sf(density, y), n_col, q_col - y, powered)
        if masked:  # nodes are interior, so a panel lies wholly below or above each q
            below = y < q_col
            dual, direct = np.where(below, dual, 0.0), np.where(below, direct, 0.0)
        return np.vstack((dual, direct))

    try:
        values, errors = adaptive_gauss_kronrod(rows, low, top, tol=tol, panels=start)
    except NumericalError as exc:
        points = "; ".join(f"q={q}, n_new={n}" for q, n in zip(qs, ns))
        raise NumericalError(
            f"{exc}; {points}, interval [{low}, {top}], {panels} starting panels"
            f"{' graded toward q' if graded else ''}, {density!r}",
            error_estimate=exc.error_estimate,
        ) from exc
    v, e = values.tolist(), errors.tolist()
    return [_Forms(q, n, v[i], v[m + i], e[i] + e[m + i], own[i], graded)
            for i, (q, n) in enumerate(zip(qs, ns))]


def _integral_forms(density: Density, q, n_new) -> list[_Forms]:
    """Both integral forms of the expected saving at each point of the
    equal-length sequences ``q`` and ``n_new``, in their order: a
    critical-cost sweep, with the density's pdf and cdf evaluated once per
    abscissa of a pass.

    A point at or below the density's effective lower bound, below which its
    mass is under double eps, has forms 0. The others are integrated by
    ascending q, in runs of consecutive points (:func:`_runs`), each run in
    one adaptive Gauss-Kronrod pass over ``[effective_low, its largest q]``.
    Its integrand gives each point two rows, ``1 - sf**n`` and
    ``(q - y) n f sf**(n - 1)``, both 0 above the point's q. A point that
    spans ``P_i`` of the run's ``P`` starting panels integrates to
    ``tol * P / P_i``, so each of its panels has the budget it has alone, and
    its error estimate sums its own panels. One point, or points at one q (a
    sweep of n), start as a lone point does; one point goes straight to its
    start (:func:`_first_start`) and pass, the run :func:`_runs` would make
    of it. A failing pass raises :class:`NumericalError` naming each of its
    points (q, n_new), the interval, the starting panel count and whether
    it was graded, and the density.
    """
    if len(q) != len(n_new):
        raise ValidationError(f"need one n_new per q, got {len(n_new)} for {len(q)}")
    low = density.effective_low
    if len(q) == 1:
        x, n = _check_q(density, q[0]), _check_n(n_new[0])
        if x <= low:
            return [_Forms(x, n, 0.0, 0.0, 0.0, 0, False)]
        start, graded = _first_start(density, low, x, n, n)
        return _integrate(density, low, (x,), (n,), start, [_count(start)], graded)
    points = sorted((_check_q(density, x), _check_n(n), i) for i, (x, n) in enumerate(zip(q, n_new)))
    zero = bisect.bisect_right(points, (low, math.inf))  # the points at or below low
    forms = [None] * len(points)
    for x, n, i in points[:zero]:
        forms[i] = _Forms(x, n, 0.0, 0.0, 0.0, 0, False)
    points = points[zero:]
    for begin, end, layout in _runs(density, low, points):
        qs, ns, index = zip(*points[begin:end])
        for i, point in zip(index, _integrate(density, low, qs, ns, *layout)):
            forms[i] = point
    return forms


def critical_cost(density: Density, q: float, n_new: int, forms: _Forms | None = None) -> CriticalCost:
    """Expected saving from one more query given best price ``q``.

    Integrates the expectation of (q - y) against the minimum-order density
    and its integration-by-parts twin (the integrated minimum-order cdf) as
    the one-point sweep of :func:`_integral_forms`. ``forms`` is instead
    this point's entry of a sweep that holds it, which this call only
    checks; it is there so that a sweep still makes one call here per
    point, as the benchmark's trace counts them. The two forms must agree
    within max(1e-6, 1e-4 * value); the twin, whose integrand is smoother,
    is returned. A disagreement raises :class:`NumericalError` naming q,
    n_new, the interval, the starting panel count and whether it was
    graded, and the density; so does a failing integral.
    """
    if forms is None:
        (forms,) = _integral_forms(density, (q,), (n_new,))
    elif (forms.q, forms.n_new) != (q, n_new):
        raise ValidationError(f"forms of q={forms.q}, n_new={forms.n_new} given for q={q}, n_new={n_new}")
    q, dual, direct = forms.q, forms.dual, forms.direct
    gap = abs(dual - direct)
    if gap > max(AGREEMENT_TOL_ABS, AGREEMENT_TOL_REL * abs(dual)):
        raise NumericalError(
            f"integral forms disagree: {dual} vs {direct} (gap {gap}); q={q}, n_new={forms.n_new}, "
            f"interval [{density.effective_low}, {q}], {forms.panels} starting panels"
            f"{' graded toward q' if forms.graded else ''}, {density!r}",
            error_estimate=gap,
        )
    value = min(max(dual, 0.0), q)
    return CriticalCost(value, q, forms.n_new, forms.error_estimate)


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
