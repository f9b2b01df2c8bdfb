"""Price density estimation: truncated Gaussian KDE and parametric fits.

Every estimator exposes the same surface: ``pdf``, ``cdf``, ``quantile``,
``support_low``, ``effective_low``, ``feature_scale`` and ``sample_min``.
``pdf`` and ``cdf`` take a point or an array of points, and ``quantile``
a level or an array of levels, inverted by one bisection for all of them.
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
# The gamma shape equation is solved once its residual is within this many
# ulps of log(shape), the precision its terms are computed to.
_GAMMA_RESIDUAL_ULPS = 4
QUANTILE_TOL = 1e-6

# KDE sums run in row blocks of at most this many (point, sample) doubles,
# so memory stays flat however many points one call asks for.
KDE_BLOCK_DOUBLES = 2**18

# Mass a density may leave below its effective lower bound: Phi(-12) ~ 2e-33,
# far below double-precision eps. For the KDE that bound is
# sample_min - TAIL_SIGMAS * h; for a parametric fit, its TAIL_MASS quantile.
TAIL_SIGMAS = 12.0
TAIL_MASS = float(special.ndtr(-TAIL_SIGMAS))

_TAIL_TOL = 1e-6  # equal_mass_prices' top level is at most 1 - _TAIL_TOL


def _as_sample(values) -> np.ndarray:
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise ValidationError("sample must not be empty")
    if not np.all(np.isfinite(x)):
        raise ValidationError("sample contains non-finite values")
    if np.any(x <= 0):
        raise ValidationError("sample values must be positive")
    return x


def _as_levels(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValidationError(f"quantile levels must be in [0, 1], got {p}")
    return p


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

    def quantile(self, p):
        """Smallest y with cdf(y) >= p, per level, located to within 1e-6 by
        one bisection over all levels; a level gives a float, an array of
        levels an array, as with pdf and cdf. Level 0 maps to support_low."""
        p = _as_levels(p)
        low = self.support_low
        cap = low + max(self._quantile_hint() - low, 1.0)
        top = float(np.max(p, initial=0.0))
        for _ in range(200):
            if self.cdf(cap) >= top:
                break
            cap = low + 2.0 * (cap - low)
        else:
            raise NumericalError(f"quantile bracket expansion failed for p={top}")
        lo = np.full(p.shape, low)
        hi = np.full(p.shape, cap)
        while float(np.max(hi - lo, initial=0.0)) > QUANTILE_TOL:
            mid = 0.5 * (lo + hi)
            below = np.asarray(self.cdf(mid)) < p
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = np.where(p == 0.0, low, 0.5 * (lo + hi))
        return out if out.ndim else float(out)


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

    def quantile(self, p):
        out = self.low + _as_levels(p) * (self.high - self.low)
        return out if out.ndim else float(out)


def _linear_percentile(ordered: np.ndarray, level: float) -> float:
    """np.percentile's default (linear) rule on a sorted sample, with the
    same arithmetic: numpy's ``_lerp`` interpolates from the upper neighbour
    when the fraction is at least one half."""
    last = ordered.size - 1
    index = level * last
    below = math.floor(index)
    t = index - below
    a = float(ordered[below])
    b = float(ordered[min(below + 1, last)])
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def silverman_bandwidth(x: np.ndarray) -> float:
    """Silverman's rule of thumb with an IQR guard and a zero-spread fallback.

    Equal bit for bit to ``np.std(x, ddof=1)`` and ``np.percentile(x, [75,
    25])`` in the formula, at a fraction of their fixed cost per call."""
    n = x.size
    if n > 1:
        # np.std's own steps: pairwise sums in sample order
        d = x - np.add.reduce(x) / n
        sigma = math.sqrt(np.add.reduce(d * d) / (n - 1))
    else:
        sigma = 0.0
    ordered = np.sort(x)
    iqr = _linear_percentile(ordered, 0.75) - _linear_percentile(ordered, 0.25)
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
        n = self.sample.size
        rows = max(1, KDE_BLOCK_DOUBLES // n)
        if y.size <= rows:
            # np.mean's arithmetic without its per-call set-up
            return np.add.reduce(kernel((y[:, None] - self.sample) / self.bandwidth), axis=1) / n
        out = np.empty(y.size)
        for start in range(0, y.size, rows):
            z = (y[start : start + rows, None] - self.sample) / self.bandwidth
            out[start : start + rows] = np.add.reduce(kernel(z), axis=1) / n
        return out

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        points = np.atleast_1d(y)
        raw = self._kernel_mean(points, lambda z: np.exp(-0.5 * z * z))
        out = raw / (self.bandwidth * _SQRT_2PI) / self._mass_above_zero
        inside = points >= 0.0
        if not inside.all():
            out = np.where(inside, out, 0.0)
        return out if y.ndim else float(out[0])

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        points = np.atleast_1d(y)
        raw = self._kernel_mean(points, special.ndtr)
        out = np.minimum(np.maximum((raw - self._below_zero) / self._mass_above_zero, 0.0), 1.0)
        inside = points >= 0.0
        if not inside.all():
            out = np.where(inside, out, 0.0)
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
        points = np.atleast_1d(y)
        with np.errstate(over="ignore", invalid="ignore"):
            raw = self.dist.pdf(points)
            # Far in a tail a kernel can meet inf * 0 (weibull with a huge
            # shape: x**(c-1) * exp(-x**c)); the density's limit there is 0,
            # which exp(logpdf) gives.
            lost = np.isnan(raw)
            if lost.any():
                lost &= ~np.isnan(points)
                raw[lost] = np.exp(self.dist.logpdf(points[lost]))
        out = np.where(points >= 0.0, raw / self._mass_above_zero, 0.0)
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
    """:meth:`Density.quantile` of an array of levels, as an array."""
    return np.asarray(density.quantile(p))


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
        # On a tight cluster s is tiny and k huge: the residual bottoms out
        # at the rounding of log k, and the steps it drives alternate.
        if abs(f) <= _GAMMA_RESIDUAL_ULPS * math.ulp(math.log(k)):
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

    Parses the arguments of the shared module-level generator
    (``stats.norm`` and so on) once, then evaluates through its
    ``_pdf``/``_logpdf``/``_cdf``/``_ppf`` kernels with the support masks,
    ``badvalue``, NaN and bound handling of ``rv_continuous``'s public
    methods, so every value equals the public method's bit for bit. A
    frozen distribution would build a generator instance per freeze, and a
    public call parses and broadcasts its arguments every time; both cost
    several times the kernels on the short arrays a fit evaluates.
    """

    __slots__ = ("gen", "shapes", "loc", "scale", "valid")

    def __init__(self, gen, *args, **kwds):
        shapes, loc, scale = gen._parse_args(*args, **kwds)
        self.gen = gen
        self.loc = np.asarray(loc)
        self.scale = np.asarray(scale)
        # One-element arrays: the form argsreduce hands the kernels
        self.shapes = tuple(np.atleast_1d(np.asarray(a)) for a in shapes)
        self.valid = bool(gen._argcheck(*self.shapes) & (self.scale > 0) & (self.loc == self.loc))

    def _points(self, x):
        """Points in the generator's standard form, (x - loc) / scale."""
        x = np.asarray(x)
        return np.asarray((x - self.loc) / self.scale, dtype=np.promote_types(x.dtype, np.float64))

    @staticmethod
    def _result(out):
        return out[()] if out.ndim == 0 else out

    def _evaluate(self, kernel, x, cond, out):
        """Fill ``out`` where ``cond`` holds, as rv_continuous does: NaN
        points get ``badvalue``, the rest keep the fill."""
        if not self.valid:
            out.fill(self.gen.badvalue)
            return self._result(out)
        np.putmask(out, np.isnan(x), self.gen.badvalue)
        if cond.any():
            np.place(out, cond, kernel(x[cond], *self.shapes))
        return self._result(out)

    def pdf(self, x):
        x = self._points(x)
        return self._evaluate(
            lambda z, *shapes: self.gen._pdf(z, *shapes) / self.scale,
            x, self.gen._support_mask(x, *self.shapes), np.zeros(x.shape, x.dtype),
        )

    def logpdf(self, x):
        x = self._points(x)
        log_scale = np.log(np.atleast_1d(self.scale))
        return self._evaluate(
            lambda z, *shapes: self.gen._logpdf(z, *shapes) - log_scale,
            x, self.gen._support_mask(x, *self.shapes), np.full(x.shape, -np.inf, x.dtype),
        )

    def cdf(self, x):
        x = self._points(x)
        out = np.zeros(x.shape, x.dtype)
        np.place(out, x >= self.gen._get_support(*self.shapes)[1], 1.0)
        return self._evaluate(self.gen._cdf, x, self.gen._open_support_mask(x, *self.shapes), out)

    def ppf(self, q):
        q = np.asarray(q)
        out = np.full(q.shape, self.gen.badvalue)
        if not self.valid:
            return self._result(out)
        a, b = self.gen._get_support(*self.shapes)
        np.place(out, q == 0, np.atleast_1d(a * self.scale + self.loc))
        np.place(out, q == 1, np.atleast_1d(b * self.scale + self.loc))
        cond = (0 < q) & (q < 1)
        if cond.any():
            np.place(out, cond, self.gen._ppf(q[cond], *self.shapes) * self.scale + self.loc)
        return self._result(out)


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


def equal_mass_prices(density: Density, n: int, q0: float | None = None) -> np.ndarray:
    """Generate ``n`` strictly increasing prices with equal mass between
    neighbors.

    The first price is ``q0`` itself (the estimator's sample minimum when
    not given); price i sits at quantile level F(q0) + i/(n-1), so every
    consecutive pair encloses exactly 1/(n-1) probability mass. The top
    level is capped at 1 - _TAIL_TOL: an unbounded support would otherwise
    put the last price at infinity. If any level below the top would need
    mass beyond the cap, the step is unreachable and generation fails.
    """
    if n < 2:
        raise ValidationError(f"need at least 2 prices, got {n}")
    if q0 is None:
        q0 = density.sample_min
    if q0 is None:
        raise ValidationError("q0 not given and the density has no sample minimum")
    q0 = float(q0)
    base = float(density.cdf(q0))
    cap = 1.0 - _TAIL_TOL
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
    levels = np.minimum(base + np.arange(1, n) * step, cap)
    prices = np.concatenate(([q0], quantile_array(density, levels)))
    if np.any(np.diff(prices) <= 0):
        raise GenerationError("generated prices are not strictly increasing")
    return prices
