"""Price density estimation: truncated Gaussian KDE and parametric fits.

Every estimator exposes the same surface: ``pdf``, ``cdf``, ``quantile``,
``support_low``, ``effective_low``, ``feature_scale`` and ``sample_min``.
Prices are positive, so all densities are truncated at zero and
renormalized; for families already supported on [0, inf) the truncation
is a no-op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special, stats

from .errors import FitError, GenerationError, NumericalError, ValidationError

FAMILIES = ("normal", "lognormal", "exponential", "gamma", "weibull", "logistic", "gumbel")

ESTIMATORS = ("kde", "parametric")

_SQRT_2PI = math.sqrt(2.0 * math.pi)

_MAX_ITER = 200
_FIT_TOL = 1e-9
QUANTILE_TOL = 1e-6

# KDE sums run in row blocks of at most this many (point, sample) doubles,
# so memory stays flat however many points one call asks for.
KDE_BLOCK_DOUBLES = 2**18

# Mass a density may leave below its effective lower bound: Phi(-12) ~ 2e-33,
# far below double-precision eps. For the KDE that bound is
# sample_min - TAIL_SIGMAS * h; for a parametric fit, its TAIL_MASS quantile.
TAIL_SIGMAS = 12.0
TAIL_MASS = float(special.ndtr(-TAIL_SIGMAS))


def _as_sample(values) -> np.ndarray:
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise ValidationError("sample must not be empty")
    if not np.all(np.isfinite(x)):
        raise ValidationError("sample contains non-finite values")
    if np.any(x <= 0):
        raise ValidationError("sample values must be positive")
    return x


class Density:
    """Common quantile machinery; subclasses provide pdf and cdf."""

    support_low: float = 0.0
    sample_min: float | None = None
    # Width of the narrowest feature of the density, or None when unknown;
    # sets how finely quadrature must probe it.
    feature_scale: float | None = None

    @property
    def effective_low(self) -> float:
        """Lower integration bound: the mass below it is under double eps."""
        return self.support_low

    def pdf(self, y):
        raise NotImplementedError

    def cdf(self, y):
        raise NotImplementedError

    def _quantile_hint(self) -> float:
        """A price scale likely to bracket most of the mass."""
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        """Smallest y with cdf(y) >= p, located to within 1e-6 by bisection."""
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"quantile level must be in [0, 1], got {p}")
        if p == 0.0:
            return self.support_low
        lo = self.support_low
        span = max(self._quantile_hint() - lo, 1.0)
        hi = lo + span
        for _ in range(200):
            if self.cdf(hi) >= p:
                break
            hi = lo + 2.0 * (hi - lo)
        else:
            raise NumericalError(f"quantile bracket expansion failed for p={p}")
        while hi - lo > QUANTILE_TOL:
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


class UniformDensity(Density):
    """Uniform on [low, high]; exact closed forms, handy as a test stub."""

    def __init__(self, low: float = 0.0, high: float = 1.0):
        if not high > low:
            raise ValidationError(f"need high > low, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)
        self.support_low = self.low
        self.sample_min = self.low

    def __repr__(self) -> str:
        return f"UniformDensity(low={self.low!r}, high={self.high!r})"

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        out = np.where((y >= self.low) & (y <= self.high), 1.0 / (self.high - self.low), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        out = np.clip((y - self.low) / (self.high - self.low), 0.0, 1.0)
        return out if out.ndim else float(out)

    def quantile(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"quantile level must be in [0, 1], got {p}")
        return self.low + p * (self.high - self.low)


def silverman_bandwidth(x: np.ndarray) -> float:
    """Silverman's rule of thumb with an IQR guard and a zero-spread fallback."""
    n = x.size
    sigma = float(np.std(x, ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    candidates = [s for s in (sigma, iqr / 1.34) if s > 0.0]
    if not candidates:
        return max(0.01 * float(np.mean(x)), 0.01)
    return 0.9 * min(candidates) * n ** (-0.2)


class KernelDensity(Density):
    """Gaussian KDE truncated at zero with global renormalization."""

    def __init__(self, sample, bandwidth: float | None = None):
        x = _as_sample(sample)
        self.sample = x
        self.bandwidth = float(bandwidth) if bandwidth is not None else silverman_bandwidth(x)
        if self.bandwidth <= 0:
            raise ValidationError(f"bandwidth must be positive, got {self.bandwidth}")
        self.sample_min = float(x.min())
        # Untruncated mixture mass below zero, computed with the same
        # expression cdf() uses so that cdf(0.0) is exactly zero.
        self._below_zero = float(np.mean(special.ndtr(-x / self.bandwidth)))
        self._mass_above_zero = 1.0 - self._below_zero

    @property
    def feature_scale(self) -> float:
        return self.bandwidth

    @property
    def effective_low(self) -> float:
        return max(0.0, self.sample_min - TAIL_SIGMAS * self.bandwidth)

    def __repr__(self) -> str:
        return f"KernelDensity(n={self.sample.size}, bandwidth={self.bandwidth!r})"

    def _kernel_mean(self, y: np.ndarray, kernel) -> np.ndarray:
        """Mean of ``kernel((y - sample) / h)`` over the sample, per point,
        in row blocks; each row is the same sum a dense matrix gives."""
        out = np.empty(y.size)
        rows = max(1, KDE_BLOCK_DOUBLES // self.sample.size)
        for start in range(0, y.size, rows):
            z = (y[start : start + rows, None] - self.sample[None, :]) / self.bandwidth
            out[start : start + rows] = np.mean(kernel(z), axis=1)
        return out

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        points = np.atleast_1d(y)
        raw = self._kernel_mean(points, lambda z: np.exp(-0.5 * z * z))
        raw = raw / (self.bandwidth * _SQRT_2PI)
        out = np.where(points >= 0.0, raw / self._mass_above_zero, 0.0)
        return out if y.ndim else float(out[0])

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        points = np.atleast_1d(y)
        raw = self._kernel_mean(points, special.ndtr)
        out = np.clip((raw - self._below_zero) / self._mass_above_zero, 0.0, 1.0)
        out = np.where(points >= 0.0, out, 0.0)
        return out if y.ndim else float(out[0])

    def _quantile_hint(self) -> float:
        return float(self.sample.max() + 10.0 * self.bandwidth)


class ParametricDensity(Density):
    """A fitted family truncated at zero with renormalization."""

    def __init__(
        self,
        family: str,
        params: dict[str, float],
        dist,
        sample_min: float | None,
        sample_size: int | None = None,
    ):
        self.family = family
        self.params = dict(params)
        self.dist = dist
        self.sample_min = sample_min
        self.sample_size = sample_size
        # Far below the mode some families (gumbel) overflow an inner exp
        # on the way to a cdf or pdf whose limit, 0, is exact.
        with np.errstate(over="ignore"):
            below = float(dist.cdf(0.0))
        if below >= 1.0 - 1e-300:
            raise FitError(f"{family}: no probability mass above zero")
        self._below_zero = below
        self._mass_above_zero = 1.0 - below

    def __repr__(self) -> str:
        return f"ParametricDensity(family={self.family!r}, n={self.sample_size})"

    @property
    def effective_low(self) -> float:
        low = float(self.dist.ppf(TAIL_MASS))
        return low if low > self.support_low else self.support_low

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):
            raw = self.dist.pdf(np.atleast_1d(y)) / self._mass_above_zero
        out = np.where(np.atleast_1d(y) >= 0.0, raw, 0.0)
        return out if y.ndim else float(out[0])

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):
            raw = (self.dist.cdf(np.atleast_1d(y)) - self._below_zero) / self._mass_above_zero
        out = np.where(np.atleast_1d(y) >= 0.0, np.clip(raw, 0.0, 1.0), 0.0)
        return out if y.ndim else float(out[0])

    def _quantile_hint(self) -> float:
        hint = float(self.dist.ppf(0.99))
        if not np.isfinite(hint) or hint <= 0.0:
            hint = 1.0
        return hint


@dataclass(frozen=True)
class FitCandidate:
    family: str
    params: dict[str, float]
    loglik: float
    bic: float
    skipped: bool = False
    reason: str = ""


@dataclass(frozen=True)
class FitReport:
    candidates: tuple[FitCandidate, ...]
    best_family: str
    density: ParametricDensity

    def skipped(self) -> tuple[FitCandidate, ...]:
        return tuple(c for c in self.candidates if c.skipped)


def quantile_array(density: Density, p) -> np.ndarray:
    """Vectorized :meth:`Density.quantile`: bisection on a whole array of
    levels at once, to the same 1e-6 tolerance."""
    p = np.asarray(p, dtype=float)
    if p.size == 0:
        return p.copy()
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValidationError("quantile levels must be in [0, 1]")
    low = density.support_low
    span = max(density._quantile_hint() - low, 1.0)
    hi_cap = low + span
    top = float(p.max())
    for _ in range(200):
        if density.cdf(hi_cap) >= top:
            break
        hi_cap = low + 2.0 * (hi_cap - low)
    else:
        raise NumericalError(f"quantile bracket expansion failed for p={top}")
    lo = np.full(p.shape, low)
    hi = np.full(p.shape, hi_cap)
    while float(np.max(hi - lo)) > QUANTILE_TOL:
        mid = 0.5 * (lo + hi)
        below = np.asarray(density.cdf(mid)) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def fit_kde(values, bandwidth: float | None = None) -> KernelDensity:
    return KernelDensity(values, bandwidth=bandwidth)


def _fit_normal(x: np.ndarray) -> dict[str, float]:
    scale = float(np.std(x, ddof=0))
    if scale <= 0:
        raise FitError("zero spread")
    return {"loc": float(np.mean(x)), "scale": scale}


def _fit_lognormal(x: np.ndarray) -> dict[str, float]:
    logs = np.log(x)
    sigma = float(np.std(logs, ddof=0))
    if sigma <= 0:
        raise FitError("zero spread")
    return {"mu": float(np.mean(logs)), "sigma": sigma}


def _fit_exponential(x: np.ndarray) -> dict[str, float]:
    return {"scale": float(np.mean(x))}


def _fit_gamma(x: np.ndarray) -> dict[str, float]:
    s = float(np.log(np.mean(x)) - np.mean(np.log(x)))
    if s <= 1e-12:
        raise FitError("zero spread")
    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(_MAX_ITER):
        f = math.log(k) - float(special.digamma(k)) - s
        fprime = 1.0 / k - float(special.polygamma(1, k))
        step = f / fprime
        k_new = k - step
        if k_new <= 0:
            k_new = k / 2.0
        if abs(k_new - k) <= _FIT_TOL * (1.0 + k):
            k = k_new
            break
        k = k_new
    else:
        raise FitError("shape iteration did not converge")
    return {"shape": k, "scale": float(np.mean(x)) / k}


def _fit_weibull(x: np.ndarray) -> dict[str, float]:
    # Work on x / max(x) so powers stay bounded; the shape is scale-invariant.
    xn = x / float(x.max())
    log_xn = np.log(xn)
    mean_log = float(np.mean(log_xn))

    def profile(c: float) -> float:
        w = xn**c
        return float(np.sum(w * log_xn) / np.sum(w)) - 1.0 / c - mean_log

    lo, hi = 1e-2, 1e2
    for _ in range(20):
        if profile(lo) < 0:
            break
        lo /= 2.0
    for _ in range(20):
        if profile(hi) > 0:
            break
        hi *= 2.0
    if not (profile(lo) < 0 < profile(hi)):
        raise FitError("no bracket for shape")
    c = float(optimize.brentq(profile, lo, hi, xtol=1e-12, rtol=1e-12, maxiter=_MAX_ITER))
    scale = float(np.mean(xn**c) ** (1.0 / c)) * float(x.max())
    return {"shape": c, "scale": scale}


def _fit_logistic(x: np.ndarray) -> dict[str, float]:
    n = x.size
    loc = float(np.mean(x))
    scale = float(np.std(x, ddof=0)) * math.sqrt(3.0) / math.pi
    if scale <= 0:
        raise FitError("zero spread")
    for _ in range(_MAX_ITER):
        z = (x - loc) / scale
        u = np.tanh(0.5 * z)
        fp = special.expit(z) * special.expit(-z)
        eq1 = float(np.sum(u))
        eq2 = float(np.sum(z * u)) - n
        j11 = -2.0 / scale * float(np.sum(fp))
        j12 = -2.0 / scale * float(np.sum(z * fp))
        j21 = -1.0 / scale * float(np.sum(u + 2.0 * z * fp))
        j22 = -1.0 / scale * float(np.sum(z * u + 2.0 * z * z * fp))
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-300:
            raise FitError("singular step")
        d_loc = (-eq1 * j22 + eq2 * j12) / det
        d_scale = (-j11 * eq2 + j21 * eq1) / det
        while scale + d_scale <= 0:
            d_loc /= 2.0
            d_scale /= 2.0
        loc += d_loc
        scale += d_scale
        if max(abs(eq1), abs(eq2)) <= _FIT_TOL * n and math.hypot(d_loc, d_scale) <= _FIT_TOL * (
            1.0 + scale
        ):
            return {"loc": loc, "scale": scale}
    raise FitError("location-scale iteration did not converge")


def _fit_gumbel(x: np.ndarray) -> dict[str, float]:
    # The ML scale solves beta = mean - sum(x w) / sum(w) with
    # w = exp(-(x - min) / beta). In units of spread = mean - min, with
    # u = (x - min) / spread, that is g(b) = b - 1 + sum(u w) / sum(w) = 0,
    # w = exp(-u / b) <= 1. g is increasing (g' = 1 + Var_w(u) / b^2),
    # negative as b -> 0 and nonnegative at b = 1, so [1e-9, 1] brackets
    # the root at any price scale.
    x_min = float(x.min())
    spread = float(np.mean(x - x_min))
    if spread <= 0:
        raise FitError("zero spread")
    u = (x - x_min) / spread

    def g(b: float) -> float:
        w = np.exp(-u / b)
        return b - 1.0 + float(np.sum(u * w) / np.sum(w))

    beta = spread * float(optimize.brentq(g, 1e-9, 1.0, xtol=1e-12, rtol=1e-12, maxiter=_MAX_ITER))
    w = np.exp(-(x - x_min) / beta)
    loc = x_min - beta * math.log(float(np.mean(w)))
    return {"loc": loc, "scale": beta}


class _FixedDist:
    """A scipy distribution at fixed parameters.

    Calls the shared module-level generator (``stats.norm`` and so on) with
    the stored args and kwds, exactly as a frozen distribution forwards
    them, but without the new generator instance every freeze builds: that
    set-up (docstring formatting, argument parsers) cost more than a fit.
    """

    __slots__ = ("gen", "args", "kwds")

    def __init__(self, gen, *args, **kwds):
        self.gen = gen
        self.args = args
        self.kwds = kwds

    def pdf(self, x):
        return self.gen.pdf(x, *self.args, **self.kwds)

    def logpdf(self, x):
        return self.gen.logpdf(x, *self.args, **self.kwds)

    def cdf(self, x):
        return self.gen.cdf(x, *self.args, **self.kwds)

    def ppf(self, q):
        return self.gen.ppf(q, *self.args, **self.kwds)


def _family_dist(family: str, params: dict[str, float]) -> _FixedDist:
    if family == "normal":
        return _FixedDist(stats.norm, loc=params["loc"], scale=params["scale"])
    if family == "lognormal":
        return _FixedDist(stats.lognorm, s=params["sigma"], scale=math.exp(params["mu"]))
    if family == "exponential":
        return _FixedDist(stats.expon, scale=params["scale"])
    if family == "gamma":
        return _FixedDist(stats.gamma, params["shape"], scale=params["scale"])
    if family == "weibull":
        return _FixedDist(stats.weibull_min, params["shape"], scale=params["scale"])
    if family == "logistic":
        return _FixedDist(stats.logistic, loc=params["loc"], scale=params["scale"])
    if family == "gumbel":
        return _FixedDist(stats.gumbel_r, loc=params["loc"], scale=params["scale"])
    raise ValidationError(f"unknown family {family!r}")


_FITTERS = {
    "normal": _fit_normal,
    "lognormal": _fit_lognormal,
    "exponential": _fit_exponential,
    "gamma": _fit_gamma,
    "weibull": _fit_weibull,
    "logistic": _fit_logistic,
    "gumbel": _fit_gumbel,
}


def fit_parametric(values, families: tuple[str, ...] = FAMILIES) -> FitReport:
    """Fit each family by maximum likelihood and pick the lowest BIC.

    Families that cannot be fit (zero spread, failed iteration, non-finite
    likelihood) are recorded as skipped with a reason; if every family is
    skipped a :class:`FitError` is raised.
    """
    x = _as_sample(values)
    if x.size < 2:
        raise ValidationError("parametric fitting needs at least 2 observations")
    for family in families:
        if family not in _FITTERS:
            raise ValidationError(f"unknown family {family!r}")
    n = x.size
    candidates: list[FitCandidate] = []
    best: FitCandidate | None = None
    for family in families:
        try:
            params = _FITTERS[family](x)
            dist = _family_dist(family, params)
            loglik = float(np.sum(dist.logpdf(x)))
            if not np.isfinite(loglik):
                raise FitError("non-finite likelihood")
        except FitError as exc:
            candidates.append(
                FitCandidate(family, {}, float("nan"), float("nan"), skipped=True, reason=str(exc))
            )
            continue
        bic = len(params) * math.log(n) - 2.0 * loglik
        candidate = FitCandidate(family, params, loglik, bic)
        candidates.append(candidate)
        if best is None or bic < best.bic:
            best = candidate
    if best is None:
        raise FitError("no family could be fit: " + "; ".join(f"{c.family}: {c.reason}" for c in candidates))
    density = ParametricDensity(
        best.family, best.params, _family_dist(best.family, best.params), float(x.min()), n
    )
    return FitReport(tuple(candidates), best.family, density)


def fit_estimator(values, estimator: str) -> Density:
    """Dispatch on estimator name; ``kde`` or ``parametric``."""
    if estimator == "kde":
        return fit_kde(values)
    if estimator == "parametric":
        return fit_parametric(values).density
    raise ValidationError(f"unknown estimator {estimator!r}; choose from {ESTIMATORS}")


def equal_mass_prices(
    density: Density,
    n: int,
    q0: float | None = None,
    tail_tol: float = 1e-6,
) -> np.ndarray:
    """Generate ``n`` strictly increasing prices with equal mass between
    neighbors.

    The first price is ``q0`` itself (the estimator's sample minimum when
    not given); price i sits at quantile level F(q0) + i/(n-1), so every
    consecutive pair encloses exactly 1/(n-1) probability mass. The top
    level is capped at 1 - tail_tol: an unbounded support would otherwise
    put the last price at infinity. If any level below the top would need
    mass beyond the cap, the step is unreachable and generation fails.
    """
    if n < 2:
        raise ValidationError(f"need at least 2 prices, got {n}")
    if not 0.0 < tail_tol < 1.0:
        raise ValidationError(f"tail_tol must be in (0, 1), got {tail_tol}")
    if q0 is None:
        q0 = density.sample_min
    if q0 is None:
        raise ValidationError("q0 not given and the density has no sample minimum")
    q0 = float(q0)
    base = float(density.cdf(q0))
    cap = 1.0 - tail_tol
    if base >= cap:
        raise GenerationError(
            f"no probability mass above q0={q0} (cdf already {base:.6f})"
        )
    step = 1.0 / (n - 1)
    if base + (n - 2) * step >= cap:
        raise GenerationError(
            f"mass step 1/{n - 1} from cdf({q0})={base:.6f} is unreachable "
            f"within the support"
        )
    prices = np.empty(n, dtype=float)
    prices[0] = q0
    for i in range(1, n):
        prices[i] = density.quantile(min(base + i * step, cap))
    if np.any(np.diff(prices) <= 0):
        raise GenerationError("generated prices are not strictly increasing")
    return prices
