"""Price density estimation: truncated Gaussian KDE and parametric fits.

Every estimator exposes the same surface: ``pdf``, ``cdf``, ``quantile``,
``support_low``, ``effective_low``, ``feature_scale`` and ``sample_min``.
``pdf``, ``cdf`` and ``quantile`` keep the point contract of ``pointwise``,
and ``quantile`` inverts the cdf by one bisection for all its levels.
Prices are positive, so both estimators are truncated at zero, by the one
mask of ``_above_zero`` (the KDE cdf also holds 0 at zero itself), and
renormalized; for families already supported on [0, inf) the truncation is
a no-op, and such a fit's mass below zero is 0 by its support, with no cdf
call.

The KDE's kernel sums run in blocks of at most ``KDE_BLOCK_DOUBLES``
(point, sample) doubles. A call that fits in one block sums the dense
matrix, so its bits are those of ``np.mean`` over each row. A larger call
sorts its points, and each block of them sums only over the sorted samples
within ``TAIL_SIGMAS`` bandwidths (Fan & Marron 1994, "Fast implementations
of nonparametric curve estimators"). Samples below that window count as
the kernel's limit and samples above it as 0, so the result is exact to
rounding: a dropped term is at most exp(-72) = 5.4e-32 for the pdf kernel
and ndtr(-12) = 1.8e-33 for the cdf's.

There is one parametric fitter, ``ParametricRows``, which fits every
family to many samples at once, and ``fit_parametric`` is its one-row
case. It reduces with ``np.add.reduce``, the ufunc behind ``np.sum``,
``np.mean`` and ``np.std``, masked to each row (``_row_sums``): the same bits
without the wrappers' per-call cost. One table row per family holds the
map from its fitted parameters to its standard form's (shape args, loc,
scale), the lower end of its standard support and its standardized
logpdf, pdf, cdf and ppf, written with numpy and ``scipy.special`` in
scipy 1.17.1's own expressions, so a value inside the support has a
frozen scipy distribution's bits. A fit scores every family by its logpdf
alone. The winner's ``ParametricDensity`` standardizes each point once
and calls the row's kernels on every point; the truncation at zero is the
one mask.

``KernelRows`` and ``ParametricRows`` fit an estimator to many samples of
mixed sizes at once, padded into one matrix; ``estimator_rows`` picks the
class, and both expose ``sample_min``, ``effective_low``,
``feature_scale``, ``deferred`` and ``cdf`` per row, and ``density(i)``,
row i's fitted density. Their sums are those ``np.add.reduce`` gives each
row alone, so a row's fit has the same bits alone or among any rows: a
KDE row's bandwidth is a ``KernelDensity``'s (``silverman_bandwidth`` is
the one-row call of the same rule), and ``density(i)`` is, bit for bit,
the density ``fit_estimator`` gives the row alone. A parametric row is
``deferred`` only where it has no fit: fewer than 2 prices, every family
skipped, or a winner with no mass above zero. A skipped family's reason
is one of SKIP_REASONS: "zero spread", "did not converge" or "non-finite
likelihood".

The module imports numpy and ``scipy.special`` alone and solves its own
equations: it never imports ``scipy.stats`` or ``scipy.optimize``.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import FitError, GenerationError, NumericalError, ValidationError

ESTIMATORS = ("kde", "parametric")

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = float(np.log(_SQRT_2PI))

_MAX_ITER = 200
_FIT_TOL = 1e-9
# The gamma shape equation is solved once its residual is within this many
# ulps of log(shape), the precision its terms are computed to.
_GAMMA_RESIDUAL_ULPS = 4
QUANTILE_TOL = 1e-6

# KDE sums run in row blocks of at most this many (point, sample) doubles
# (256 KiB, which stays in L2), so memory stays flat however many points one
# call asks for. A call within one block is the dense sum, bit for bit; past
# it, each block of KDE_BLOCK_DOUBLES // n sorted points sums over its own
# TAIL_SIGMAS window of the sample, so the block size also sets how narrow
# the windows are.
KDE_BLOCK_DOUBLES = 2**15

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


def _as_levels(p: np.ndarray) -> np.ndarray:
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValidationError(f"quantile levels must be in [0, 1], got {p}")
    return p


def pointwise(fn):
    """The point contract: the last argument is a point or an array of any
    shape, ``fn`` gets it as a 1-d float array and returns a value per point,
    and the caller gets a float for a point, else an array of that shape."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kwargs:  # some given by name: put each in its place
            args = signature.bind(*args, **kwargs).args
        y = np.asarray(args[-1], dtype=float)
        out = fn(*args[:-1], y.ravel())
        return out.reshape(y.shape) if y.ndim else float(out[0])

    return wrapper


def _above_zero(points: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The truncation at zero: ``out`` where a point is at or above it, else 0."""
    inside = points >= 0.0
    return out if inside.all() else np.where(inside, out, 0.0)


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

    @pointwise
    def quantile(self, p):
        """Smallest y with cdf(y) >= p, per level, located to within 1e-6 by
        one bisection over all levels. Level 0 maps to support_low."""
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
            below = self.cdf(mid) < p
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return np.where(p == 0.0, low, 0.5 * (lo + hi))


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

    @pointwise
    def pdf(self, y):
        return np.where((y >= self.low) & (y <= self.high), 1.0 / (self.high - self.low), 0.0)

    @pointwise
    def cdf(self, y):
        return np.clip((y - self.low) / (self.high - self.low), 0.0, 1.0)

    @pointwise
    def quantile(self, p):
        return self.low + _as_levels(p) * (self.high - self.low)


def _linear_percentile(ordered: np.ndarray, sizes: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """np.percentile's default (linear) rule at each of ``levels`` (a column)
    on the first ``sizes`` entries of each sorted row of ``ordered`` (...,
    rows, k), as (..., levels, rows), with the same arithmetic: numpy's
    ``_lerp`` interpolates from the upper neighbour when the fraction is at
    least one half."""
    last = sizes - 1
    index = levels * last
    below = np.floor(index)
    t = index - below
    at, rows = below.astype(np.intp), np.arange(sizes.size)
    a = ordered[..., rows, at]
    b = ordered[..., rows, np.minimum(at + 1, last)]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1.0 - t), a + diff * t)


def _row_sums(a: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` of each row of ``a`` (..., rows, k) over its first
    ``sizes`` entries, bit for bit, whatever lies past them or beside it.

    A masked reduce starts each row at the identity 0, as a lone reduce
    does, and calls the add loop once per run of unmasked values. A row's
    first ``sizes`` entries are one run, so the loop sums them pairwise as
    it sums the row alone, its split past 128 values included."""
    return np.add.reduce(a, axis=-1, where=np.arange(a.shape[-1]) < sizes[:, None])


def silverman_bandwidths(x: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Silverman's rule of thumb, with an IQR guard and a zero-spread
    fallback, for each row of ``x`` (..., rows, k) over its first ``sizes``
    entries, in any order; what lies past them is ignored.

    Equal bit for bit to ``np.std(row, ddof=1)`` and ``np.percentile(row,
    [75, 25])`` in the formula, each row summed as :func:`_row_sums` sums
    it and its percentiles taken at its own index, so a row's bandwidth
    does not depend on the rows beside it. The size factor n ** -0.2 is
    Python's ``pow``, whose bits numpy's array power does not always give."""
    k = x.shape[-1]
    mean = _row_sums(x, sizes) / sizes
    # What lies past a row's end sorts last.
    ordered = np.sort(x if sizes.min() == k else np.where(np.arange(k) < sizes[:, None], x, np.inf), axis=-1)
    quartiles = _linear_percentile(ordered, sizes, np.array([[0.75], [0.25]]))
    smallest = (quartiles[..., 0, :] - quartiles[..., 1, :]) / 1.34
    d = x - mean[..., None]
    # A one-price row has sigma 0, and the IQR 0 too, so it falls back.
    sigma = np.sqrt(_row_sums(d * d, sizes) / np.maximum(sizes - 1, 1))
    # Both are at least 0: the smaller where both are positive, else the
    # larger, and the fallback where that is 0 too.
    least = np.minimum(sigma, smallest)
    smallest = np.where(least > 0.0, least, np.maximum(sigma, smallest))
    factor = np.array([n ** -0.2 for n in sizes.tolist()])
    return np.where(smallest > 0.0, 0.9 * smallest * factor, np.maximum(0.01 * mean, 0.01))


def silverman_bandwidth(x: np.ndarray) -> float:
    """:func:`silverman_bandwidths` of the one row ``x``."""
    x = np.asarray(x, dtype=float).ravel()
    return float(silverman_bandwidths(x[None], np.array([x.size]))[0])


def _truncated_cdf(raw, below_zero, mass_above_zero, y):
    """A KDE's cdf truncated at zero, from its untruncated kernel mean
    ``raw`` at ``y``. A windowed row at zero need not repeat ``below_zero``'s
    bits; the truncated cdf is 0 there, as a dense row gives it."""
    cdf = (raw - below_zero) / mass_above_zero
    return np.where(y > 0.0, np.minimum(np.maximum(cdf, 0.0), 1.0), 0.0)


class KernelDensity(Density):
    """Gaussian KDE truncated at zero with global renormalization."""

    def __init__(self, sample, bandwidth: float | None = None):
        x = _as_sample(sample)
        self.sample = x
        self._sorted = np.sort(x)
        self.bandwidth = float(bandwidth) if bandwidth is not None else silverman_bandwidth(x)
        if not 0 < self.bandwidth < math.inf:
            raise ValidationError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        self.sample_min = float(x.min())
        # Untruncated mixture mass below zero: the one-block sum cdf() gives
        # at 0, so cdf(0.0) is exactly zero even before cdf's own mask.
        self._below_zero = float(self._kernel_mean(np.zeros(1), special.ndtr, 1.0)[0])
        self._mass_above_zero = 1.0 - self._below_zero

    @property
    def feature_scale(self) -> float:
        return self.bandwidth

    @property
    def effective_low(self) -> float:
        return max(0.0, self.sample_min - TAIL_SIGMAS * self.bandwidth)

    def __repr__(self) -> str:
        return f"KernelDensity(n={self.sample.size}, bandwidth={self.bandwidth!r})"

    def _kernel_mean(self, y: np.ndarray, kernel, limit: float) -> np.ndarray:
        """Mean of ``kernel((y - sample) / h)`` over the sample, per point.

        ``limit`` is the kernel's value at +inf (1.0 for ``ndtr``, 0.0 for
        the Gaussian). When ``y.size * n`` fits in ``KDE_BLOCK_DOUBLES`` the
        sum is one dense block over ``self.sample``. Otherwise the points are
        sorted and cut into blocks of ``KDE_BLOCK_DOUBLES // n`` rows, and a
        block sums only over the sorted samples within ``TAIL_SIGMAS``
        bandwidths of its points: each sample below that window counts as
        ``limit`` and each above it as 0 (Fan & Marron 1994). Every term
        counted as 1 is 1.0 in double, since ``ndtr(12)`` rounds to 1, and a
        dropped term is at most exp(-72) = 5.4e-32 (pdf) or 1.8e-33 (cdf).
        A row's sum does not depend on its block, so the one-block path, and
        any block whose window is the whole sample, gives the dense matrix's
        bits. NaN points sort last; the callers mask them whatever their sum.
        """
        n = self.sample.size
        h = self.bandwidth
        if y.size * n <= KDE_BLOCK_DOUBLES:
            return np.add.reduce(kernel((y[:, None] - self.sample) / h), axis=1) / n
        rows = max(1, KDE_BLOCK_DOUBLES // n)
        order = np.argsort(y, kind="stable")
        ys = y[order]
        starts = np.arange(0, ys.size, rows)
        reach = TAIL_SIGMAS * h
        x = self._sorted
        lows = x.searchsorted(ys[starts] - reach).tolist()
        highs = x.searchsorted(ys[np.minimum(starts + rows, ys.size) - 1] + reach, "right").tolist()
        means = np.empty(y.size)
        for start, lo, hi in zip(starts.tolist(), lows, highs):
            window = self.sample if hi - lo == n else x[lo:hi]
            sums = np.add.reduce(kernel((ys[start : start + rows, None] - window) / h), axis=1)
            means[start : start + rows] = (lo * limit + sums) / n
        out = np.empty(y.size)
        out[order] = means
        return out

    @pointwise
    def pdf(self, y):
        raw = self._kernel_mean(y, lambda z: np.exp(-0.5 * z * z), 0.0)
        return _above_zero(y, raw / (self.bandwidth * _SQRT_2PI) / self._mass_above_zero)

    @pointwise
    def cdf(self, y):
        raw = self._kernel_mean(y, special.ndtr, 1.0)
        return _truncated_cdf(raw, self._below_zero, self._mass_above_zero, y)

    def _quantile_hint(self) -> float:
        return float(self.sample.max() + 10.0 * self.bandwidth)


class KernelRows:
    """The Silverman-bandwidth KDEs of the rows of ``samples``, a (rows, k)
    matrix whose row i holds a sample sorted ascending in its first
    ``sizes[i]`` entries (what lies past them is ignored), as arrays of
    per-row fields. ``bandwidth``, ``sample_min`` and the mass below zero
    are a ``KernelDensity``'s of the row, bit for bit, while its size is at
    most ``KDE_BLOCK_DOUBLES``. ``cdf`` sums each row densely: the fitted
    KDE's one-block bits where that is dense, the same value to rounding
    where it is windowed. No row is ``deferred``, and ``density(i)`` builds
    row i's KDE. ``cdf`` of m points per row builds (rows, m, k) doubles
    (``dense_cdf``); the caller bounds it."""

    dense_cdf = True

    def __init__(self, samples: np.ndarray, sizes: np.ndarray):
        self.sample = samples
        self.sizes = np.asarray(sizes)
        self.bandwidth = silverman_bandwidths(samples, self.sizes)
        self.sample_min = samples[:, 0]
        self.deferred = np.zeros(len(samples), dtype=bool)
        self._below_zero = self._kernel_mean(np.zeros((len(samples), 1)))[:, 0]
        self._mass_above_zero = 1.0 - self._below_zero

    def _kernel_mean(self, y: np.ndarray) -> np.ndarray:
        """Each row's untruncated kernel cdf mean at its row of ``y`` (rows,
        m), summed as (m, rows, k), the layout :func:`_row_sums` takes."""
        z = (y.T[..., None] - self.sample) / self.bandwidth[:, None]
        return (_row_sums(special.ndtr(z), self.sizes) / self.sizes).T

    @property
    def feature_scale(self) -> np.ndarray:
        """Each row's bandwidth, as a column."""
        return self.bandwidth[:, None]

    @property
    def effective_low(self) -> np.ndarray:
        """Per row, as ``KernelDensity.effective_low``."""
        return np.maximum(0.0, self.sample_min - TAIL_SIGMAS * self.bandwidth)

    def density(self, i: int) -> KernelDensity:
        """Row i's KDE at the bandwidth found here: the one :func:`fit_kde`
        gives the row alone, bit for bit."""
        return KernelDensity(self.sample[i, : self.sizes[i]], bandwidth=self.bandwidth[i])

    def cdf(self, y: np.ndarray) -> np.ndarray:
        """The truncated cdf of each row's KDE at that row of ``y`` (rows, m)."""
        return _truncated_cdf(self._kernel_mean(y), self._below_zero[:, None], self._mass_above_zero[:, None], y)


class ParametricDensity(Density):
    """A fitted family truncated at zero with renormalization.

    Raises :class:`ValidationError` for a family not in ``FAMILIES`` and
    :class:`FitError` for parameters outside the family's domain or a fit
    with no mass above zero."""

    def __init__(
        self,
        family: str,
        params: dict[str, float],
        sample_min: float | None,
        sample_size: int | None = None,
    ):
        row = _family(family)
        self._shapes, self._loc, self._scale = _standard_args(row, params)
        _, low, self._standard_logpdf, self._standard_pdf, self._standard_cdf, self._standard_ppf = row
        self.family = family
        self.params = dict(params)
        self.sample_min = sample_min
        self.sample_size = sample_size
        if low * self._scale + self._loc >= 0.0:
            below = 0.0  # the support starts at or above zero
        else:
            # Far below the mode some families (gumbel) overflow an inner
            # exp on the way to a cdf or pdf whose limit, 0, is exact.
            with np.errstate(over="ignore"):
                below = float(self._standard_cdf((np.zeros(1) - self._loc) / self._scale, *self._shapes)[0])
        if below >= 1.0 - 1e-300:
            raise FitError(f"{family}: no probability mass above zero")
        self._below_zero = below
        self._mass_above_zero = 1.0 - below

    def __repr__(self) -> str:
        return f"ParametricDensity(family={self.family!r}, n={self.sample_size})"

    def _level(self, p: float) -> float:
        """The untruncated family's quantile at level ``p`` in (0, 1)."""
        return float(self._standard_ppf(np.array([p]), *self._shapes)[0] * self._scale + self._loc)

    @property
    def effective_low(self) -> float:
        low = self._level(TAIL_MASS)
        return low if low > self.support_low else self.support_low

    @pointwise
    def pdf(self, y):
        # A kernel meets log(0) at a support's end and NaN below it; only
        # points at or above zero are kept, and those lie in the support.
        with np.errstate(all="ignore"):
            z = (y - self._loc) / self._scale
            raw = self._standard_pdf(z, *self._shapes) / self._scale
            # Far in a tail a kernel can meet inf * 0 (weibull with a huge
            # shape: x**(c-1) * exp(-x**c)); the density's limit there is 0,
            # which exp(logpdf) gives.
            lost = np.isnan(raw)
            if lost.any():
                lost &= ~np.isnan(y)
                raw[lost] = np.exp(self._standard_logpdf(z[lost], *self._shapes) - np.log(self._scale))
        return _above_zero(y, raw / self._mass_above_zero)

    @pointwise
    def cdf(self, y):
        with np.errstate(all="ignore"):
            raw = self._standard_cdf((y - self._loc) / self._scale, *self._shapes)
        cdf = (raw - self._below_zero) / self._mass_above_zero
        return _above_zero(y, np.minimum(np.maximum(cdf, 0.0), 1.0))

    def _quantile_hint(self) -> float:
        hint = self._level(0.99)
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


def _lognorm_logpdf(z, s):
    """scipy's lognormal log-density without its ``z != 0`` mask, which costs
    several times the expression and which a positive sample never needs;
    the same bits wherever z > 0. At z = 0 it gives NaN, not -inf: both
    score as a non-finite likelihood."""
    return -np.log(z) ** 2 / (2 * s**2) - np.log(s * z * np.sqrt(2 * np.pi))


def _lognorm_pdf(z, s):
    # scipy's mask is kept here: its logpdf is -inf at z = 0, so the pdf is
    # 0 there, where the bare expression gives NaN.
    return np.exp(np.where(z == 0, -np.inf, _lognorm_logpdf(z, s)))


def _gamma_logpdf(z, a):
    return special.xlogy(a - 1.0, z) - z - special.gammaln(a)


def _logistic_logpdf(z):
    y = -np.abs(z)
    return y - 2.0 * special.log1p(np.exp(y))


def _gumbel_logpdf(z):
    return -z - np.exp(-z)


def _exp(mu):
    """``math.exp`` of ``mu``, or of each value of an array ``mu``: a
    lognormal's scale keeps its bits, which ``np.exp`` does not always give."""
    if isinstance(mu, np.ndarray):
        return np.array([math.exp(v) for v in mu.tolist()])
    return math.exp(mu)


# One row per family: the map from its fitted parameters, a value or an
# array of values each, to its standard form's (shape args, loc, scale); the
# lower end of its standard support; and its standardized logpdf, pdf, cdf
# and ppf, each taking the standardized points (or levels) and then the
# shapes. The kernels are scipy 1.17.1's own expressions
# (scipy.stats._continuous_distns: norm, lognorm, expon, gamma, weibull_min,
# logistic, gumbel_r), so inside the support they give a frozen
# distribution's bits.
_FAMILIES = {
    "normal": (lambda p: ((), p["loc"], p["scale"]), -math.inf,
               lambda z: -z**2 / 2.0 - _LOG_SQRT_2PI, lambda z: np.exp(-z**2 / 2.0) / _SQRT_2PI,
               special.ndtr, special.ndtri),
    "lognormal": (lambda p: ((p["sigma"],), 0.0, _exp(p["mu"])), 0.0,
                  _lognorm_logpdf, _lognorm_pdf,
                  lambda z, s: special.ndtr(np.log(z) / s), lambda q, s: np.exp(s * special.ndtri(q))),
    "exponential": (lambda p: ((), 0.0, p["scale"]), 0.0,
                    lambda z: -z, lambda z: np.exp(-z),
                    lambda z: -special.expm1(-z), lambda q: -special.log1p(-q)),
    "gamma": (lambda p: ((p["shape"],), 0.0, p["scale"]), 0.0,
              _gamma_logpdf, lambda z, a: np.exp(_gamma_logpdf(z, a)),
              lambda z, a: special.gammainc(a, z), lambda q, a: special.gammaincinv(a, q)),
    "weibull": (lambda p: ((p["shape"],), 0.0, p["scale"]), 0.0,
                lambda z, c: np.log(c) + special.xlogy(c - 1, z) - pow(z, c),
                lambda z, c: c * pow(z, c - 1) * np.exp(-pow(z, c)),
                lambda z, c: -special.expm1(-pow(z, c)), lambda q, c: pow(-special.log1p(-q), 1.0 / c)),
    "logistic": (lambda p: ((), p["loc"], p["scale"]), -math.inf,
                 _logistic_logpdf, lambda z: np.exp(_logistic_logpdf(z)), special.expit, special.logit),
    "gumbel": (lambda p: ((), p["loc"], p["scale"]), -math.inf,
               _gumbel_logpdf, lambda z: np.exp(_gumbel_logpdf(z)),
               lambda z: np.exp(-np.exp(-z)), lambda q: -np.log(-np.log(q))),
}

FAMILIES = tuple(_FAMILIES)

# Why a family is skipped, by the code ``ParametricRows.skip`` holds; 0 is
# a fit. No spread to fit; a solve that ends unsolved; parameters outside
# the family's domain or a log-likelihood that is not finite.
SKIP_REASONS = ("", "zero spread", "did not converge", "non-finite likelihood")


def _family(name: str) -> tuple:
    """The table row of family ``name``; :class:`ValidationError` if none."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValidationError(f"unknown family {name!r}") from None


def _standard_args(row: tuple, params: dict[str, float]) -> tuple[tuple[np.ndarray, ...], float, float]:
    """The shapes, loc and scale of ``row``'s standard form at ``params``,
    each shape a one-element array: the form ``argsreduce`` hands scipy's
    kernels, so every value keeps their bits. Raises :class:`FitError` at
    parameters outside the family's domain (a shape or scale not above zero,
    a NaN loc), where every density value would be NaN; this check runs
    before any arithmetic on them."""
    args, loc, scale = row[0](params)
    if not (scale > 0 and loc == loc and all(a > 0 for a in args)):
        raise FitError("non-finite likelihood")
    return tuple(np.array([a]) for a in args), loc, scale


def fit_parametric(values, families: tuple[str, ...] = FAMILIES) -> FitReport:
    """Fit each of ``families`` by maximum likelihood and pick the lowest
    BIC: the one-row case of :class:`ParametricRows`.

    A family that cannot be fit is recorded as skipped, with the reason in
    SKIP_REASONS that its ``skip`` code names; if every family is skipped a
    :class:`FitError` is raised, and so it is when the winner has no mass
    above zero."""
    x = _as_sample(values)
    if x.size < 2:
        raise ValidationError("parametric fitting needs at least 2 observations")
    for family in families:
        _family(family)  # an unknown family raises
    rows = ParametricRows(x[None], np.array([x.size]), families)
    candidates = tuple(
        FitCandidate(FAMILIES[f], {}, math.nan, math.nan, skipped=True, reason=SKIP_REASONS[rows.skip[f, 0]])
        if rows.skip[f, 0]
        else FitCandidate(FAMILIES[f], rows.params_of(f, 0), float(rows.loglik[f, 0]), float(rows.bic[f, 0]))
        for f in map(FAMILIES.index, families)
    )
    if all(c.skipped for c in candidates):
        raise FitError("no family could be fit: " + "; ".join(f"{c.family}: {c.reason}" for c in candidates))
    return FitReport(candidates, FAMILIES[rows.family[0]], rows.density(0))


# The brackets the weibull shape and gumbel scale equations are solved in:
# a root outside one is a fit that is skipped.
_WEIBULL_BRACKET = (1e-2 * 2.0**-20, 1e2 * 2.0**20)
_GUMBEL_BRACKET = (1e-9, 1.0)
# A Newton step this small, relative to its root, ends a solve: the error it
# leaves is about its square.
_ROOT_TOL = 1e-12


def _increasing_root(profile, start: np.ndarray, low: float, high: float, active: np.ndarray):
    """Each ``active`` row's root of an increasing ``profile(t, rows) ->
    (value, slope)`` inside (low, high), by Newton steps from ``start``.

    A row is solved once its value is 0 or a Newton step moves it by at
    most _ROOT_TOL of itself, which puts the root there. Each iterate's sign
    closes the row's bracket in on the root, and a longer step that would
    leave the bracket goes to its geometric midpoint instead. The steps
    toward a root outside (low, high) stay long, so its row is not solved.
    Returns (solved, root)."""
    t = np.clip(start, low, high)
    below, above = np.full(t.size, low), np.full(t.size, high)
    solved = np.zeros(t.size, dtype=bool)
    rows = np.flatnonzero(active)
    for _ in range(_MAX_ITER):
        if rows.size == 0:
            break
        at = t[rows]
        value, slope = profile(at, rows)
        below[rows] = lo = np.where(value < 0.0, at, below[rows])
        above[rows] = hi = np.where(value > 0.0, at, above[rows])
        step = at - value / slope
        done = (np.abs(step - at) <= _ROOT_TOL * at) | (value == 0.0)
        kept = done | ((step > lo) & (step < hi))
        t[rows] = np.where(value == 0.0, at, np.where(kept, step, np.sqrt(lo * hi)))
        solved[rows[done]] = True
        rows = rows[~done]
    return solved, t


def _block_gamma(mean: np.ndarray, mean_log: np.ndarray):
    """The gamma fit's (spread, solved, params) per row: Newton steps on
    log k - digamma(k) = log(mean) - mean(log x), trigamma taken as
    zeta(2, k), from the closed-form start, each row's starting shape and
    logs taken with ``math``. A row whose residual reaches the rounding of
    log k is solved there: on a tight cluster k is huge and the steps the
    residual drives would alternate."""
    s = np.log(mean) - mean_log
    spread = s > 1e-12
    rows = np.flatnonzero(spread)
    k = np.ones(s.size)
    k[rows] = [(3.0 - v + math.sqrt((v - 3.0) ** 2 + 24.0 * v)) / (12.0 * v) for v in s[rows].tolist()]
    solved = np.zeros(s.size, dtype=bool)
    for _ in range(_MAX_ITER):
        if rows.size == 0:
            break
        at = k[rows]
        log_k = np.array([math.log(v) for v in at.tolist()])
        f = log_k - special.digamma(at) - s[rows]
        moved = at - f / (1.0 / at - special.zeta(2.0, at))
        moved = np.where(moved <= 0, at / 2.0, moved)
        stepped = np.abs(moved - at) <= _FIT_TOL * (1.0 + at)
        flat = np.abs(f) <= _GAMMA_RESIDUAL_ULPS * np.spacing(np.abs(log_k))
        k[rows] = np.where(flat & ~stepped, at, moved)
        done = stepped | flat
        solved[rows[done]] = True
        rows = rows[~done]
    return spread, solved, {"shape": k, "scale": mean / k}


def _block_weibull(x: np.ndarray, sizes: np.ndarray, spread_log: np.ndarray):
    """The weibull fit's (spread, solved, params) per row: its profile
    equation for the shape, on x / max(x) so powers stay bounded, solved by
    :func:`_increasing_root` from the shape a weibull of log-spread
    ``spread_log`` has."""
    top = x.max(axis=1, keepdims=True)
    log_xn = np.log(x / top)
    mean_log = _row_sums(log_xn, sizes) / sizes

    def profile(c, rows):
        logs = log_xn[rows]
        w = np.exp(c[:, None] * logs)
        wl = w * logs
        s_w, s_wl, s_wll = _row_sums(np.array([w, wl, wl * logs]), sizes[rows])
        mean = s_wl / s_w
        return mean - 1.0 / c - mean_log[rows], s_wll / s_w - mean * mean + 1.0 / (c * c)

    spread = spread_log > 0
    solved, c = _increasing_root(profile, math.pi / math.sqrt(6.0) / spread_log, *_WEIBULL_BRACKET, spread)
    scale = (_row_sums(np.exp(c[:, None] * log_xn), sizes) / sizes) ** (1.0 / c) * top[:, 0]
    return spread, solved, {"shape": c, "scale": scale}


def _block_logistic(x: np.ndarray, sizes: np.ndarray, mean: np.ndarray, std: np.ndarray):
    """The logistic fit's (spread, solved, params) per row: Newton steps on
    both score equations from the moments' loc and scale, each step halved
    while it would take the scale to 0 or below."""
    loc, scale = mean.copy(), std * math.sqrt(3.0) / math.pi
    spread = scale > 0
    solved = np.zeros(scale.size, dtype=bool)
    rows = np.flatnonzero(spread)
    for _ in range(_MAX_ITER):
        if rows.size == 0:
            break
        at, s, n = loc[rows], scale[rows], sizes[rows]
        z = (x[rows] - at[:, None]) / s[:, None]
        u = np.tanh(0.5 * z)
        fp = special.expit(z) * special.expit(-z)
        terms = np.array([u, z * u, fp, z * fp, u + 2.0 * z * fp, z * u + 2.0 * z * z * fp])
        eq1, s_zu, s_fp, s_zfp, s_21, s_22 = _row_sums(terms, n)
        eq2 = s_zu - n
        j11, j12 = -2.0 / s * s_fp, -2.0 / s * s_zfp
        j21, j22 = -1.0 / s * s_21, -1.0 / s * s_22
        det = j11 * j22 - j12 * j21
        d_loc = (-eq1 * j22 + eq2 * j12) / det
        d_scale = (-j11 * eq2 + j21 * eq1) / det
        singular = ~((np.abs(det) >= 1e-300) & np.isfinite(d_loc) & np.isfinite(d_scale))
        halve = ~singular & (s + d_scale <= 0)
        while halve.any():
            d_loc, d_scale = np.where(halve, d_loc / 2.0, d_loc), np.where(halve, d_scale / 2.0, d_scale)
            halve &= s + d_scale <= 0
        loc[rows] = at + d_loc
        scale[rows] = s = s + d_scale
        done = (np.maximum(np.abs(eq1), np.abs(eq2)) <= _FIT_TOL * n) & (
            np.hypot(d_loc, d_scale) <= _FIT_TOL * (1.0 + s)
        )
        solved[rows[done & ~singular]] = True
        rows = rows[~(done | singular)]
    return spread, solved, {"loc": loc, "scale": scale}


def _block_gumbel(x: np.ndarray, sizes: np.ndarray, std: np.ndarray):
    """The gumbel fit's (spread, solved, params) per row. The ML scale
    solves beta = mean - sum(x w) / sum(w) with w = exp(-(x - min) / beta);
    in units of spread = mean - min, with u = (x - min) / spread, that is
    g(b) = b - 1 + sum(u w) / sum(w) = 0, w = exp(-u / b) <= 1. g is
    increasing, negative as b -> 0 and nonnegative at b = 1, so
    _GUMBEL_BRACKET holds the root at any price scale; :func:`_increasing_root`
    solves it from the scale a gumbel of standard deviation ``std`` has."""
    d = x - x.min(axis=1, keepdims=True)
    spread = _row_sums(d, sizes) / sizes
    u = d / spread[:, None]

    def profile(b, rows):
        ur = u[rows]
        w = np.exp(-ur / b[:, None])
        uw = ur * w
        s_w, s_uw, s_uuw = _row_sums(np.array([w, uw, uw * ur]), sizes[rows])
        mean = s_uw / s_w
        return b - 1.0 + mean, 1.0 + (s_uuw / s_w - mean * mean) / (b * b)

    solved, b = _increasing_root(profile, std * math.sqrt(6.0) / math.pi / spread, *_GUMBEL_BRACKET, spread > 0)
    beta = spread * b
    loc = x.min(axis=1) - beta * np.log(_row_sums(np.exp(-d / beta[:, None]), sizes) / sizes)
    return spread > 0, solved, {"loc": loc, "scale": beta}


class ParametricRows:
    """The parametric fits of the rows of ``samples``, a (rows, k) matrix
    whose row i holds a sample in its first ``sizes[i]`` entries, in any
    order (what lies past them is ignored), held as arrays of per-row
    fields; :func:`fit_parametric` is its one-row case.

    Every family is fitted to every row at once by maximum likelihood:
    normal, lognormal and exponential in closed form, gamma and logistic by
    Newton steps, weibull and gumbel by :func:`_increasing_root` on their
    profile equations. Each sum is the one ``np.add.reduce`` gives the row
    alone (:func:`_row_sums`), so no row's fit depends on the rows beside
    it. Per family (in FAMILIES order) and row, ``params`` holds the named
    parameters, ``loglik`` the log-likelihood by the family table's logpdf
    kernel, ``bic`` the BIC and ``skip`` 0, or the code of the reason in
    SKIP_REASONS that the family is skipped. ``family`` is each row's BIC
    winner among ``families``, an index into FAMILIES, and ``density(i)``
    builds row i's winner.

    A row is ``deferred`` where it has no fit: fewer than 2 prices, every
    family skipped, or a winner with no mass above zero, which
    ``ParametricDensity`` refuses. ``effective_low`` and ``cdf`` give the
    winner's values, with the truncation at zero, on every other row, and 0
    on a deferred one. A fit has no ``feature_scale``, and its ``cdf``
    builds no (rows, points, k) matrix (``dense_cdf``)."""

    dense_cdf = False
    feature_scale = None

    def __init__(self, samples: np.ndarray, sizes: np.ndarray, families: tuple[str, ...] = FAMILIES):
        self.sizes = sizes = np.asarray(sizes)
        inside = np.arange(samples.shape[1]) < sizes[:, None]
        self.sample_min = np.where(inside, samples, np.inf).min(axis=1)
        x = np.where(inside, samples, self.sample_min[:, None])
        log_n = np.array([math.log(n) for n in sizes.tolist()])
        terms, valid = [], []
        with np.errstate(all="ignore"):
            spread, solved, self.params = zip(*self._fit_families(x, sizes))
            for name, params in zip(FAMILIES, self.params):
                shapes, loc, scale = _FAMILIES[name][0](params)
                shapes, scale = tuple(a[:, None] for a in shapes), scale[:, None]
                loc = loc if isinstance(loc, float) else loc[:, None]
                ok = (scale > 0) & (loc == loc)
                for a in shapes:
                    ok &= a > 0
                terms.append(_FAMILIES[name][2]((x - loc) / scale, *shapes) - np.log(scale))
                valid.append(ok[:, 0])
            self.loglik = _row_sums(np.array(terms), sizes)
            solved = np.array(solved)
            fitted = solved & np.array(valid) & np.isfinite(self.loglik)
            self.skip = np.where(fitted, 0, np.where(np.array(spread), np.where(solved, 3, 2), 1))
            self.bic = np.array([len(p) for p in self.params])[:, None] * log_n - 2.0 * self.loglik
            chosen = (self.skip == 0) & np.array([name in families for name in FAMILIES])[:, None]
            self.family = np.argmin(np.where(chosen, self.bic, np.inf), axis=0)
            self.deferred = (sizes < 2) | ~chosen.any(axis=0)
            self._winners()

    @staticmethod
    def _fit_families(x: np.ndarray, sizes: np.ndarray) -> list[tuple]:
        """Each family's (spread, solved, params) per row, in FAMILIES
        order: whether the row has the spread the family needs, whether its
        equations are solved, and its named parameters."""
        logs = np.log(x)
        mean, mean_log = _row_sums(np.array([x, logs]), sizes) / sizes
        d, e = x - mean[:, None], logs - mean_log[:, None]
        std, std_log = np.sqrt(_row_sums(np.array([d * d, e * e]), sizes) / sizes)
        every = np.ones(mean.size, dtype=bool)
        fits = {
            "normal": (std > 0, std > 0, {"loc": mean, "scale": std}),
            "lognormal": (std_log > 0, std_log > 0, {"mu": mean_log, "sigma": std_log}),
            "exponential": (every, every, {"scale": mean}),
            "gamma": _block_gamma(mean, mean_log),
            "weibull": _block_weibull(x, sizes, std_log),
            "logistic": _block_logistic(x, sizes, mean, std),
            "gumbel": _block_gumbel(x, sizes, std),
        }
        return [fits[name] for name in FAMILIES]

    def params_of(self, family: int, i: int) -> dict[str, float]:
        """Family ``family``'s named parameters on row i, as floats."""
        return {key: float(values[i]) for key, values in self.params[family].items()}

    def density(self, i: int) -> ParametricDensity:
        """Row i's winner as a ``ParametricDensity``: the one
        :func:`fit_parametric` gives the row alone, bit for bit."""
        family = int(self.family[i])
        return ParametricDensity(FAMILIES[family], self.params_of(family, i), float(self.sample_min[i]),
                                 int(self.sizes[i]))

    def _winners(self) -> None:
        """Each row's winning (shape, loc, scale) and mass below zero, where
        none is 0, and ``_groups``: each winning family's undeferred rows,
        with its table row and whether it has a shape. A winner with no mass
        above zero defers its row, as ``ParametricDensity`` refuses it."""
        count = self.family.size
        self.shape, self.loc, self.scale, self._below_zero = (np.zeros(count) for _ in range(4))
        groups = []
        for index in np.unique(self.family[~self.deferred]).tolist():
            table = _FAMILIES[FAMILIES[index]]
            rows = np.flatnonzero((self.family == index) & ~self.deferred)
            shapes, self.loc[rows], self.scale[rows] = table[0]({k: v[rows] for k, v in self.params[index].items()})
            self.shape[rows] = shapes[0] if shapes else 0.0
            group = (rows, table, bool(shapes))
            shapes, at, width = self._standard(group)
            below = table[4]((0.0 - at) / width, *shapes)
            self._below_zero[rows] = np.where(table[1] * width + at >= 0.0, 0.0, below)[:, 0]
            groups.append(group)
        self.deferred |= ~(self._below_zero < 1.0 - 1e-300)
        self._mass_above_zero = 1.0 - self._below_zero
        self._groups = [(rows[~self.deferred[rows]], *rest) for rows, *rest in groups]

    def _standard(self, group: tuple) -> tuple:
        """The shapes, loc and scale of a group's rows, each as a column."""
        rows, _, shaped = group
        return (self.shape[rows, None],) if shaped else (), self.loc[rows, None], self.scale[rows, None]

    @property
    def effective_low(self) -> np.ndarray:
        """Per row, as ``ParametricDensity.effective_low``: the winner's
        TAIL_MASS quantile, or 0 where that is lower."""
        low = np.zeros(self.family.size)
        with np.errstate(all="ignore"):
            for group in self._groups:
                shapes, at, width = self._standard(group)
                level = np.full((group[0].size, 1), TAIL_MASS)
                low[group[0]] = (group[1][5](level, *shapes) * width + at)[:, 0]
        return np.where(low > 0.0, low, 0.0)

    def cdf(self, y: np.ndarray) -> np.ndarray:
        """The truncated cdf of each row's winner at that row of ``y`` (rows, m)."""
        out = np.zeros(y.shape)
        with np.errstate(all="ignore"):
            for group in self._groups:
                rows = group[0]
                shapes, at, width = self._standard(group)
                raw = group[1][4]((y[rows] - at) / width, *shapes)
                out[rows] = (raw - self._below_zero[rows, None]) / self._mass_above_zero[rows, None]
        return _above_zero(y, np.minimum(np.maximum(out, 0.0), 1.0))


def _check_estimator(estimator: str) -> None:
    if estimator not in ESTIMATORS:
        raise ValidationError(f"unknown estimator {estimator!r}; choose from {ESTIMATORS}")


def fit_estimator(values, estimator: str) -> Density:
    """Dispatch on estimator name; ``kde`` or ``parametric``."""
    _check_estimator(estimator)
    if estimator == "kde":
        return fit_kde(values)
    return fit_parametric(values).density


def estimator_rows(estimator: str) -> type:
    """The class that fits ``estimator`` to a padded block of sorted rows:
    :class:`KernelRows` or :class:`ParametricRows`."""
    _check_estimator(estimator)
    return KernelRows if estimator == "kde" else ParametricRows


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
