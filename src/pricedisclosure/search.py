"""Sequential-search decision model over an estimated price density.

Given the best price found so far (q) and the number of genuinely new
prices one more query would surface (N), the searcher weighs the query fee
against the expected saving from the minimum of N fresh draws. The
critical cost is that expected saving; the searcher stops once the fee
reaches it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .data import PriceList
from .density import Density
from .errors import NumericalError, ValidationError
from .quadrature import adaptive_simpson

# Two integral forms of the expected saving must agree this closely.
AGREEMENT_TOL_ABS = 1e-6
AGREEMENT_TOL_REL = 1e-4

# Forced bisection levels for a density without a feature scale, and the cap
# for one with it: 4 * 2**8 + 1 = 1025 abscissae in the first pass.
MAX_FORCED_DEPTH = 8


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


def _min_order(density: Density, n: int, y, weight=1.0):
    """Cdf, and ``weight`` times pdf, of the minimum of ``n`` i.i.d. draws
    at ``y``: ``1 - sf**n`` and ``weight * n * pdf * sf**(n - 1)``.

    sf**n from sf = 1 - cdf carries n times the rounding of 1 - cdf, enough
    at large n to swamp small values and keep quadrature panels from ever
    meeting tol; the log form keeps the relative accuracy of cdf itself.
    """
    f = np.asarray(density.pdf(y), dtype=float)
    with np.errstate(divide="ignore"):
        log_sf = np.log1p(-np.asarray(density.cdf(y), dtype=float))
    sf_rest = np.exp((n - 1) * log_sf) if n > 1 else np.ones_like(log_sf)
    return -np.expm1(n * log_sf), weight * n * f * sf_rest


def min_order_pdf(density: Density, n_new: int, y):
    """Density of the minimum of ``n_new`` i.i.d. draws at ``y``."""
    y_arr = np.asarray(y, dtype=float)
    _, out = _min_order(density, _check_n(n_new), y_arr)
    return out if y_arr.ndim else float(out)


def min_order_cdf(density: Density, n_new: int, y):
    """Probability that the minimum of ``n_new`` i.i.d. draws is <= ``y``."""
    y_arr = np.asarray(y, dtype=float)
    out, _ = _min_order(density, _check_n(n_new), y_arr)
    return out if y_arr.ndim else float(out)


def forced_depth(width: float, scale: float | None) -> int:
    """Bisection levels to force on an interval of ``width`` so that the
    first probe grid is at most ``scale / 16`` apart: a density bump of
    that width cannot fall between probes. Capped at MAX_FORCED_DEPTH,
    which is also the depth when the scale is unknown."""
    if scale is None:
        return MAX_FORCED_DEPTH
    return min(max(math.ceil(math.log2(4.0 * width / scale)), 0), MAX_FORCED_DEPTH)


def critical_cost(density: Density, q: float, n_new: int) -> CriticalCost:
    """Expected saving from one more query given best price ``q``.

    Integrates, in one adaptive Simpson pass over shared abscissae, the
    expectation of (q - y) against the minimum-order density and its
    integration-by-parts twin (the integrated minimum-order cdf), so the
    density's pdf and cdf are evaluated once per abscissa. The domain runs
    from the density's effective lower bound, below which its mass is under
    double eps, to ``q``; the forced refinement depth follows the ratio of
    that width to the density's feature scale. The two forms must agree
    within max(1e-6, 1e-4 * value); the twin, whose integrand is smoother,
    is returned. A failure raises :class:`NumericalError` naming q, n_new,
    the interval, the forced depth and the density.
    """
    n = _check_n(n_new)
    q = float(q)
    if not math.isfinite(q):
        raise ValidationError(f"q must be finite, got {q}")
    if q < density.support_low:
        raise ValidationError(f"q={q} lies below the support lower bound {density.support_low}")
    low = density.effective_low
    if q <= low:
        return CriticalCost(0.0, q, n, 0.0)
    depth = forced_depth(q - low, density.feature_scale)

    def both_forms(y: np.ndarray) -> np.ndarray:
        return np.stack(_min_order(density, n, y, weight=q - y))

    def context() -> str:
        return f"q={q}, n_new={n}, interval [{low}, {q}], forced depth {depth}, {density!r}"

    try:
        values, errors = adaptive_simpson(both_forms, low, q, min_depth=depth)
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


def subset_count(n: int, rho: int) -> int:
    """Number of disclosable subsets: contain the minimum, size at least rho."""
    if not 1 <= rho <= n:
        raise ValidationError(f"need 1 <= rho <= n, got rho={rho}, n={n}")
    return sum(math.comb(n - 1, k - 1) for k in range(rho, n + 1))


def interval_subset_count(n: int, rho: int) -> int:
    """Candidates the interval strategy evaluates; triangular in n - rho."""
    if not 1 <= rho <= n:
        raise ValidationError(f"need 1 <= rho <= n, got rho={rho}, n={n}")
    m = n - rho + 1
    return m * (m + 1) // 2


def minimal_subset_count(n: int, rho: int) -> int:
    """Candidates the prefix-only strategy evaluates, full set included."""
    if not 1 <= rho <= n:
        raise ValidationError(f"need 1 <= rho <= n, got rho={rho}, n={n}")
    return n - rho + 1
