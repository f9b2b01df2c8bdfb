"""Density estimation: KDE, parametric MLE with BIC selection, quantiles,
and equal-mass price generation."""

import math
import warnings

import numpy as np
import pytest
from scipy import optimize, special, stats

from pricedisclosure.data import builtin_dataset
from pricedisclosure.density import (
    _FIT_TOL,
    _GAMMA_RESIDUAL_ULPS,
    _MAX_ITER,
    _increasing_root,
    _row_sums,
    FAMILIES,
    KDE_BLOCK_DOUBLES,
    SKIP_REASONS,
    TAIL_MASS,
    TAIL_SIGMAS,
    FitCandidate,
    KernelDensity,
    KernelRows,
    ParametricDensity,
    ParametricRows,
    UniformDensity,
    equal_mass_prices,
    fit_estimator,
    fit_kde,
    fit_parametric,
    quantile_array,
    silverman_bandwidth,
    silverman_bandwidths,
)
from pricedisclosure.errors import FitError, GenerationError, ValidationError
from pricedisclosure.quadrature import _NODES, adaptive_gauss_kronrod
from pricedisclosure.search import critical_cost, expected_new_prices, min_order_cdf, min_order_pdf


def test_uniform_stub_closed_forms():
    d = UniformDensity(0.0, 1.0)
    assert d.pdf(0.5) == 1.0
    assert d.pdf(-1.0) == 0.0
    assert d.cdf(0.25) == 0.25
    assert d.cdf(d.support_low) == 0.0
    assert d.quantile(0.5) == 0.5
    assert d.quantile(0.0) == d.support_low


def test_uniform_stub_validation():
    with pytest.raises(ValidationError):
        UniformDensity(1.0, 1.0)
    with pytest.raises(ValidationError):
        UniformDensity(0.0, 1.0).quantile(1.5)


def test_kde_single_point_kernel_symmetry():
    d = fit_kde([100.0])
    assert d.pdf(90.0) == pytest.approx(d.pdf(110.0), rel=1e-12)


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, math.nan, math.inf])
def test_kde_rejects_a_nonpositive_or_nonfinite_bandwidth(bandwidth):
    with pytest.raises(ValidationError, match="bandwidth must be positive and finite"):
        fit_kde([100.0, 120.0], bandwidth=bandwidth)


def test_kde_zero_spread_bandwidth_fallback():
    d = fit_kde([100.0, 100.0, 100.0])
    assert d.bandwidth == max(0.01 * 100.0, 0.01)


def _silverman_reference(x):
    """The rule written with numpy's own std and percentile."""
    n = x.size
    sigma = float(np.std(x, ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(x, [75.0, 25.0])
    candidates = [s for s in (sigma, float(q75 - q25) / 1.34) if s > 0.0]
    if not candidates:
        return max(0.01 * float(np.mean(x)), 0.01)
    return 0.9 * min(candidates) * n ** (-0.2)


def test_silverman_formula():
    rng = np.random.default_rng(11)
    samples = [rng.lognormal(3.0, 0.4, size=200)]
    # At 51 and 70 numpy's array power rounds n ** -0.2 off Python's.
    for n in (1, 2, 3, 4, 5, 7, 30, 51, 70, 103, 1000):
        samples.append(rng.lognormal(5.0, 0.3, size=n))
        samples.append(rng.choice([297.0, 297.01, 299.5], size=n))  # ties
    samples.append(np.full(6, 42.0))  # zero spread
    for x in samples:
        for scaled in (x, x * 1e-2, x * 1e3):
            assert silverman_bandwidth(scaled) == _silverman_reference(scaled), scaled.size


def _guard_rows(rng, k):
    """Seeded sorted rows of k prices in cents: spread, tie-heavy, and all
    equal. Thirteen equal prices were the case a zero-padded row sum got
    wrong: a spread of about 1e-14 where the one-row sum gives 0, which
    switches the rule from its fallback."""
    anchor = int(rng.integers(2000, 60000))
    rows = [
        rng.integers(100, 60000, size=k),
        rng.choice(anchor + np.array([0, 1, 250]), size=k),
        np.full(k, int(rng.integers(1, 60000))),
        np.full(k, 29),
        np.full(k, 10),
    ]
    return np.sort(np.array(rows), axis=1)


def test_row_bandwidths_and_masses_equal_the_fitted_kde_bitwise():
    # The screen's KDE fields, row by row, are a KernelDensity's, bit for
    # bit, at every size that one row sum could treat differently.
    rng = np.random.default_rng(12)
    for k in (1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 30, 64, 129, 400):
        for scale in (1e-2, 1e-4, 10.0):
            rows = _guard_rows(rng, k) * scale
            sizes = np.full(len(rows), k)
            kde = KernelRows(rows, sizes)
            bandwidths = silverman_bandwidths(rows, sizes)
            for i, row in enumerate(rows):
                fitted = fit_kde(row)
                assert bandwidths[i] == kde.bandwidth[i] == silverman_bandwidth(row) == fitted.bandwidth, (k, row)
                assert kde._below_zero[i] == fitted._below_zero, (k, row)
                assert kde.effective_low[i] == fitted.effective_low, (k, row)
                assert silverman_bandwidths(rows[i : i + 1], sizes[i : i + 1])[0] == bandwidths[i]
            # Any leading shape: the rule runs over the last axis only.
            cube = np.stack([rows, rows[::-1]])
            assert np.array_equal(silverman_bandwidths(cube, sizes), np.stack([bandwidths, bandwidths[::-1]]))
    assert fit_kde(np.full(13, 0.29)).bandwidth == max(0.01 * 0.29, 0.01)


def test_kde_cdf_boundaries():
    d = fit_kde(builtin_dataset("printer").values())
    assert d.cdf(0.0) == 0.0
    assert d.cdf(-5.0) == 0.0
    assert d.cdf(1e7) == pytest.approx(1.0, abs=1e-6)
    assert d.pdf(-5.0) == 0.0


def test_kde_refit_is_pointwise_identical():
    values = builtin_dataset("mouse").values()
    a, b = fit_kde(values), fit_kde(values)
    grid = np.linspace(0.0, 80.0, 257)
    assert np.array_equal(a.pdf(grid), b.pdf(grid))
    assert a.bandwidth == b.bandwidth


@pytest.mark.parametrize("name", ["printer", "mouse", "monitor", "camera"])
def test_fitted_density_normalizes(name):
    # Numeric integral of pdf up to the 1 - 1e-8 quantile must come back
    # as the cdf there, i.e. 1 within 1e-6.
    values = builtin_dataset(name).values()
    for density in (fit_kde(values), fit_parametric(values).density):
        ymax = density.quantile(1.0 - 1e-8)
        total, _ = adaptive_gauss_kronrod(
            density.pdf, density.support_low, ymax, tol=1e-9, panels=32
        )
        assert abs(total - 1.0) < 1e-6


def test_cdf_monotone_on_random_pairs():
    rng = np.random.default_rng(7)
    d = fit_kde(builtin_dataset("camera").values())
    y = rng.uniform(0.0, 600.0, size=(500, 2))
    lo, hi = y.min(axis=1), y.max(axis=1)
    assert np.all(np.asarray(d.cdf(hi)) - np.asarray(d.cdf(lo)) >= 0.0)


def test_quantile_inverse_property():
    d = fit_kde(builtin_dataset("printer").values())
    for y in (310.0, 350.0, 420.0):
        assert d.quantile(d.cdf(y)) == pytest.approx(y, abs=1e-4)


def test_quantile_array_matches_scalar():
    d = fit_kde(builtin_dataset("mouse").values())
    levels = np.array([0.01, 0.25, 0.5, 0.9, 0.999])
    vect = quantile_array(d, levels)
    scal = np.array([d.quantile(p) for p in levels])
    assert np.array_equal(vect, scal)
    with pytest.raises(ValidationError):
        quantile_array(d, [0.5, 1.2])


def test_quantile_array_of_uniform_is_the_closed_form():
    d = UniformDensity(0.0, 1.0)
    assert np.array_equal(quantile_array(d, [0.25, 0.5]), [0.25, 0.5])
    assert isinstance(d.quantile(0.25), float)


@pytest.mark.parametrize("estimator", ["kde", "parametric"])
def test_quantile_level_zero_is_support_low(estimator):
    d = fit_estimator(builtin_dataset("printer").values(), estimator)
    assert quantile_array(d, [0.0, 0.5])[0] == d.support_low
    assert d.quantile(0.0) == d.support_low


@pytest.mark.parametrize(
    "family,seed,sampler,params",
    [
        ("normal", 101, lambda rng: rng.normal(50.0, 7.0, 4000), {"loc": 50.0, "scale": 7.0}),
        ("lognormal", 102, lambda rng: rng.lognormal(3.0, 0.5, 4000), {"mu": 3.0, "sigma": 0.5}),
        ("exponential", 103, lambda rng: rng.exponential(12.0, 4000), {"scale": 12.0}),
        ("gamma", 104, lambda rng: rng.gamma(4.0, 3.0, 4000), {"shape": 4.0, "scale": 3.0}),
        ("weibull", 105, lambda rng: 9.0 * rng.weibull(2.5, 4000), {"shape": 2.5, "scale": 9.0}),
        ("logistic", 106, lambda rng: rng.logistic(60.0, 4.0, 4000), {"loc": 60.0, "scale": 4.0}),
        ("gumbel", 107, lambda rng: rng.gumbel(30.0, 4.0, 4000), {"loc": 30.0, "scale": 4.0}),
    ],
)
def test_mle_recovers_generating_parameters(family, seed, sampler, params):
    x = sampler(np.random.default_rng(seed))
    assert x.min() > 0  # sampler/seed choices keep prices positive
    report = fit_parametric(x, families=(family,))
    assert report.best_family == family
    for key, want in params.items():
        assert report.density.params[key] == pytest.approx(want, rel=0.08), key


_FROZEN = {
    "normal": lambda p: stats.norm(loc=p["loc"], scale=p["scale"]),
    "lognormal": lambda p: stats.lognorm(s=p["sigma"], scale=math.exp(p["mu"])),
    "exponential": lambda p: stats.expon(scale=p["scale"]),
    "gamma": lambda p: stats.gamma(p["shape"], scale=p["scale"]),
    "weibull": lambda p: stats.weibull_min(p["shape"], scale=p["scale"]),
    "logistic": lambda p: stats.logistic(loc=p["loc"], scale=p["scale"]),
    "gumbel": lambda p: stats.gumbel_r(loc=p["loc"], scale=p["scale"]),
}


_EDGE_LISTS = {
    "one_cent": np.repeat([297.0, 297.01], 15),  # weibull shape ~7e4, gamma shape ~3.5e9
    "outlier": np.append(np.full(29, 50.0), 5000.0),
}
_SUPPORT_FROM_ZERO = ("lognormal", "exponential", "gamma", "weibull")


def _truncated(frozen, y):
    """The frozen distribution's pdf and cdf at ``y``, truncated at zero and
    renormalized as a fitted density is, with the pdf's inf * 0 far in a
    tail replaced by exp(logpdf)."""
    with np.errstate(all="ignore"):
        below = frozen.cdf(0.0)
        mass = 1.0 - below
        pdf = frozen.pdf(y)
        lost = np.isnan(pdf) & ~np.isnan(y)
        pdf[lost] = np.exp(frozen.logpdf(y[lost]))
        cdf = np.minimum(np.maximum((frozen.cdf(y) - below) / mass, 0.0), 1.0)
    inside = y >= 0.0
    return np.where(inside, pdf / mass, 0.0), np.where(inside, cdf, 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_fitted_dist_equals_frozen_scipy_bitwise(family):
    # The fitted density evaluates its family by its own copies of scipy's
    # kernels; every pdf and cdf value must equal the frozen distribution's,
    # truncated at zero and renormalized, NaN and out-of-support points
    # included, and so must the 0-d points and the ppf levels every
    # evaluation makes. The mass below zero is the frozen cdf(0.0) too,
    # though families on [0, inf) take it from their support, and each
    # fit's log-likelihood is the frozen logpdf's sum.
    draw = np.random.default_rng(23).gamma(4.0, 3.0, 50)
    for x in (draw, *_EDGE_LISTS.values()):
        report = fit_parametric(x, families=(family,))
        d = report.density
        frozen = _FROZEN[family](d.params)
        y = np.concatenate([
            [0.0, 1e-300, 1e-9],
            np.linspace(x.min(), x.max(), 101),
            [1e3, 1e6, 1e300],
            np.linspace(0.0, 2.0 * x.max(), 257),
            [-1e300, -5.0, -1e-300, -0.0, np.nan, np.inf, -np.inf],
        ])
        with np.errstate(all="ignore"):
            assert d._below_zero.hex() == float(frozen.cdf(0.0)).hex()
            if x is draw:
                assert (d._below_zero > 0.0) == (family not in _SUPPORT_FROM_ZERO)
            assert report.candidates[0].loglik == float(np.sum(frozen.logpdf(x)))
            low, hint = float(frozen.ppf(TAIL_MASS)), float(frozen.ppf(0.99))
        assert d.effective_low == (low if low > 0.0 else 0.0)
        assert d._quantile_hint() == (hint if np.isfinite(hint) and hint > 0.0 else 1.0)
        for method, ref in zip(("pdf", "cdf"), _truncated(frozen, y)):
            view = getattr(d, method)(y)
            assert np.array_equal(view, ref, equal_nan=True), method
            for i in (3, -3, -1):
                one = getattr(d, method)(y[i])
                assert type(one) is float, method
                assert one == ref[i] or (np.isnan(one) and np.isnan(ref[i])), (method, y[i])
        assert d.cdf(0.0) == 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_in_support_arrays_equal_frozen_scipy_bitwise(family):
    # Arrays wholly inside the support, as a fit's own sample and the
    # quadrature grid are, keep the frozen distribution's values, truncated
    # and renormalized, in the input's shape, and a 0-d point gives a float.
    draw = np.random.default_rng(29).gamma(4.0, 3.0, 50)
    for x in (draw, *_EDGE_LISTS.values(), np.array([3.0, 3.01])):
        d = fit_parametric(x, families=(family,)).density
        frozen = _FROZEN[family](d.params)
        grid = np.linspace(d.effective_low, x.min(), 257)
        for points in (x, grid, grid.reshape(1, -1, 1)):
            for method, ref in zip(("pdf", "cdf"), _truncated(frozen, points)):
                view = getattr(d, method)(points)
                assert view.shape == ref.shape and np.array_equal(view, ref, equal_nan=True), method
        for method, ref in zip(("pdf", "cdf"), _truncated(frozen, x[:1])):
            one = getattr(d, method)(np.asarray(x[0]))
            assert type(one) is float and one == ref[0], method
        if family == "lognormal":
            # scipy's logpdf is -inf at zero, where the bare expression is NaN
            assert d.pdf(0.0) == 0.0 and d.pdf(np.zeros(3)).tolist() == [0.0] * 3


_GENERATORS = (
    stats.norm, stats.lognorm, stats.expon, stats.gamma, stats.weibull_min, stats.logistic, stats.gumbel_r,
)


@pytest.mark.parametrize(
    "families",
    [pytest.param((family,), id=family) for family in FAMILIES] + [pytest.param(FAMILIES, id="all")],
)
def test_an_evaluation_calls_no_scipy_public_method(families, monkeypatch):
    # A fit and a critical cost evaluate every family by its own kernels:
    # no scipy distribution method runs.
    calls = []

    def counted(owner, method):
        public = getattr(owner, method)

        def call(*args, **kwds):
            calls.append(method)
            return public(*args, **kwds)

        return call

    for gen in _GENERATORS:
        for method in ("pdf", "cdf", "ppf", "logpdf"):
            monkeypatch.setattr(gen, method, counted(gen, method))
    x = np.random.default_rng(37).gamma(4.0, 3.0, 30)
    report = fit_parametric(x, families=families)
    critical_cost(report.density, float(np.median(x)), 10)
    assert calls == []
    assert report.best_family == ("gamma" if families == FAMILIES else families[0])


_INVALID_PARAMS = [
    pytest.param("normal", {"loc": 10.0, "scale": -1.0}, id="negative_scale"),
    pytest.param("logistic", {"loc": math.nan, "scale": 2.0}, id="nan_loc"),
    pytest.param("gamma", {"shape": 0.0, "scale": 3.0}, id="zero_shape"),
    pytest.param("weibull", {"shape": -2.0, "scale": 3.0}, id="negative_shape"),
    pytest.param("lognormal", {"mu": 2.0, "sigma": math.nan}, id="nan_shape"),
    pytest.param("exponential", {"scale": 0.0}, id="zero_scale"),
]


@pytest.mark.parametrize("family, params", _INVALID_PARAMS)
def test_invalid_fitted_parameters_are_skipped_without_warnings(family, params, monkeypatch):
    # Parameters scipy would reject (a shape or scale not above zero, a NaN
    # loc) score as a non-finite likelihood, and scoring them leaks no
    # warning: not even a zero scale's division by zero.
    fit_families, index = ParametricRows._fit_families, FAMILIES.index(family)

    def invalid(x, sizes):
        fits = fit_families(x, sizes)
        spread, solved, _ = fits[index]
        fits[index] = (spread, solved, {key: np.full(len(x), value) for key, value in params.items()})
        return fits

    monkeypatch.setattr(ParametricRows, "_fit_families", staticmethod(invalid))
    x = np.random.default_rng(43).gamma(4.0, 3.0, 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fit_parametric(x, families=(family, "gumbel"))
    assert [(c.family, c.reason) for c in report.skipped()] == [(family, "non-finite likelihood")]
    assert report.best_family == "gumbel"


def test_fit_parametric_rejects_an_unknown_family():
    with pytest.raises(ValidationError, match="unknown family 'cauchy'"):
        fit_parametric([10.0, 12.0, 15.0], families=("cauchy",))


@pytest.mark.parametrize("family, params", _INVALID_PARAMS)
def test_a_density_at_invalid_parameters_raises(family, params):
    # Built directly, not by a fit, it is checked as a fit's candidates are:
    # no density whose every value would be NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match="non-finite likelihood"):
            ParametricDensity(family, params, 10.0, 30)


def test_a_density_of_an_unknown_family_raises():
    with pytest.raises(ValidationError, match="unknown family 'cauchy'"):
        ParametricDensity("cauchy", {"loc": 10.0, "scale": 2.0}, 10.0, 30)


def test_weibull_far_tail_pdf_is_zero_not_nan():
    # A huge shape makes the kernel x**(c-1) * exp(-x**c) meet inf * 0
    # above ~1.015x the scale; the density there is 0. Finite values keep
    # the bits of the distribution's own pdf.
    x = _EDGE_LISTS["one_cent"]
    grid = np.linspace(0.0, 2.0 * x.max(), 257)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = fit_parametric(x, families=("weibull",)).density
        assert d.params["shape"] > 7e4
        pdf = d.pdf(grid)
    with np.errstate(all="ignore"):
        raw = _FROZEN["weibull"](d.params).pdf(grid)
    lost = np.isnan(raw)
    assert lost.sum() > 100 and np.all(grid[lost] > 1.01 * d.params["scale"])
    assert np.all(pdf[lost] == 0.0)
    assert np.array_equal(pdf[~lost], raw[~lost] / d._mass_above_zero)


@pytest.mark.parametrize("scale", [1.0, 1e-2, 1e3])
def test_gamma_fits_a_one_cent_cluster(scale):
    # The shape is ~3.5e9; Newton's residual log k - digamma(k) - s sits at
    # the rounding of log k, and its steps would alternate forever.
    x = _EDGE_LISTS["one_cent"] * scale
    report = fit_parametric(x)
    gamma = next(c for c in report.candidates if c.family == "gamma")
    assert not gamma.skipped, gamma.reason
    k = gamma.params["shape"]
    s = float(np.log(np.mean(x)) - np.mean(np.log(x)))
    residual = math.log(k) - float(special.digamma(k)) - s
    assert abs(residual) <= 4 * math.ulp(math.log(k))
    assert report.best_family == "weibull"


def _reference_normal(x):
    scale = float(np.std(x, ddof=0))
    if scale <= 0:
        raise FitError("zero spread")
    return {"loc": float(np.mean(x)), "scale": scale}


def _reference_lognormal(x):
    logs = np.log(x)
    sigma = float(np.std(logs, ddof=0))
    if sigma <= 0:
        raise FitError("zero spread")
    return {"mu": float(np.mean(logs)), "sigma": sigma}


def _reference_exponential(x):
    return {"scale": float(np.mean(x))}


def _reference_gamma(x):
    s = float(np.log(np.mean(x)) - np.mean(np.log(x)))
    if s <= 1e-12:
        raise FitError("zero spread")
    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(_MAX_ITER):
        f = math.log(k) - float(special.digamma(k)) - s
        fprime = 1.0 / k - float(special.polygamma(1, k))
        k_new = k - f / fprime
        if k_new <= 0:
            k_new = k / 2.0
        if abs(k_new - k) <= _FIT_TOL * (1.0 + k):
            k = k_new
            break
        if abs(f) <= _GAMMA_RESIDUAL_ULPS * math.ulp(math.log(k)):
            break
        k = k_new
    else:
        raise FitError("shape iteration did not converge")
    return {"shape": k, "scale": float(np.mean(x)) / k}


def _reference_weibull(x):
    if float(np.std(np.log(x), ddof=0)) <= 0:
        raise FitError("zero spread")
    xn = x / float(x.max())
    log_xn = np.log(xn)
    mean_log = float(np.mean(log_xn))

    def profile(c):
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
    return {"shape": c, "scale": float(np.mean(xn**c) ** (1.0 / c)) * float(x.max())}


def _reference_logistic(x):
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


def _reference_gumbel(x):
    x_min = float(x.min())
    spread = float(np.mean(x - x_min))
    if spread <= 0:
        raise FitError("zero spread")
    u = (x - x_min) / spread

    def g(b):
        w = np.exp(-u / b)
        return b - 1.0 + float(np.sum(u * w) / np.sum(w))

    beta = spread * float(optimize.brentq(g, 1e-9, 1.0, xtol=1e-12, rtol=1e-12, maxiter=_MAX_ITER))
    w = np.exp(-(x - x_min) / beta)
    return {"loc": x_min - beta * math.log(float(np.mean(w))), "scale": beta}


_REFERENCE_FITTERS = {
    "normal": _reference_normal,
    "lognormal": _reference_lognormal,
    "exponential": _reference_exponential,
    "gamma": _reference_gamma,
    "weibull": _reference_weibull,
    "logistic": _reference_logistic,
    "gumbel": _reference_gumbel,
}


def _hex_row(c):
    """A candidate's fields with every float in hex, so == is bitwise."""
    return c.family, {k: v.hex() for k, v in c.params.items()}, c.loglik.hex(), c.bic.hex(), c.skipped, c.reason


def _reference_candidates(x):
    """fit_parametric's candidates through numpy's reduction wrappers,
    polygamma, brentq and frozen scipy distributions."""
    rows = []
    for family in FAMILIES:
        try:
            params = _REFERENCE_FITTERS[family](x)
            with np.errstate(all="ignore"):
                loglik = float(np.sum(_FROZEN[family](params).logpdf(x)))
            if not np.isfinite(loglik):
                raise FitError("non-finite likelihood")
        except FitError as exc:
            rows.append(FitCandidate(family, {}, math.nan, math.nan, skipped=True, reason=str(exc)))
            continue
        rows.append(FitCandidate(family, params, loglik, len(params) * math.log(x.size) - 2.0 * loglik))
    return rows


# Weibull and gumbel stop their Newton steps where the reference stops
# brentq: their parameters, log-likelihoods and BICs agree within this,
# relative.
_SOLVED_REL = 1e-11


def test_fitters_equal_the_numpy_wrapper_reference_bitwise():
    # The fitter reduces with np.add.reduce and takes trigamma from zeta:
    # every candidate field of the normal, lognormal, exponential, gamma and
    # logistic fits must keep the bits of np.mean / np.std / np.sum /
    # polygamma and the frozen logpdf, on ordinary, clustered, tiny and
    # large lists. Weibull and gumbel solve their equations by Newton steps
    # where the reference runs brentq to 1e-12: they skip where it does, for
    # the same reason, and their other fields agree within _SOLVED_REL.
    rng = np.random.default_rng(41)
    lists = [rng.lognormal(5.0, 0.3, n) for n in (2, 3, 7, 30, 103, 1000)]
    lists += [np.array(pair) for pair in ([3.0, 3.01], [1.0, 2.0], [297.0, 5000.0], [5.0, 5.0])]
    lists += [rng.choice([297.0, 297.01, 299.5], size=n) for n in (5, 30, 103)]  # tie-heavy
    lists += list(_EDGE_LISTS.values())
    for name in ("printer", "mouse", "monitor", "camera"):
        values = builtin_dataset(name).values()
        ordered = np.sort(values)
        lists += [values[:12], values[:30], ordered[:10], ordered[:30], values]
    solved = 0
    for x in lists:
        for scaled in (x, x * 1e-2, x * 1e3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = fit_parametric(scaled)
            for got, want in zip(report.candidates, _reference_candidates(scaled), strict=True):
                if got.family not in ("weibull", "gumbel") or got.skipped:
                    assert _hex_row(got) == _hex_row(want), scaled
                    continue
                assert (got.family, got.skipped, list(got.params)) == (want.family, want.skipped, list(want.params))
                for a, b in zip([*got.params.values(), got.loglik, got.bic],
                                [*want.params.values(), want.loglik, want.bic]):
                    assert abs(a - b) <= _SOLVED_REL * abs(b), (scaled, got, want)
                solved += 1
    assert solved >= len(lists) * 3


def test_row_sums_equal_one_row_reduce_bitwise():
    # numpy groups a pairwise sum differently from 8 values on and splits it
    # past 128: every size to 300, each beside rows of other sizes, with NaN
    # past each row's end and a leading axis.
    rng = np.random.default_rng(31)
    sizes = np.concatenate([np.arange(1, 301), rng.integers(1, 301, 60)])
    a = rng.lognormal(0.0, 3.0, (2, sizes.size, 300)) * rng.choice([-1.0, 1.0], (2, sizes.size, 300))
    a[:, np.arange(300) >= sizes[:, None]] = np.nan
    sums = _row_sums(a, sizes)
    for j in range(2):
        for i, k in enumerate(sizes):
            assert sums[j, i] == np.add.reduce(a[j, i, :k]), (j, k)
    # A block whose rows are all full takes numpy's own reduce over the last
    # axis, which sums each contiguous row pairwise; a row read with a
    # stride takes the grouping above, with the same bits.
    for k in (1, 7, 8, 9, 129, 300):
        a = rng.lognormal(0.0, 3.0, (2, 40, k)) * rng.choice([-1.0, 1.0], (2, 40, k))
        strided = np.ascontiguousarray(a.swapaxes(1, 2)).swapaxes(1, 2)
        for block in (a, strided):
            sums = _row_sums(block, np.full(40, k))
            for j in range(2):
                for i in range(40):
                    assert sums[j, i] == np.add.reduce(a[j, i].copy()), (k, block.strides)


def test_row_sums_keep_each_rows_lone_bits_in_every_layout():
    # A masked reduce runs numpy's add loop once over each row's first
    # ``sizes`` entries. Checked bit for bit, the sign of a zero included,
    # against np.add.reduce of each row alone, read from the same view: on
    # signed zeros, on sizes around numpy's 128-value split, on blocks past
    # numpy's 8192-element buffer, on the (points, rows, k) layout of
    # KernelRows._kernel_mean and on strided chunks of a wider matrix, as
    # search.lower_bounds slices them.
    rng = np.random.default_rng(37)

    def check(a, sizes):
        sums = _row_sums(a, sizes)
        for at in np.ndindex(a.shape[:-1]):
            assert float(sums[at]).hex() == float(np.add.reduce(a[at][: sizes[at[-1]]])).hex(), (a.shape, at)

    def signed(*shape):
        return rng.lognormal(0.0, 3.0, shape) * rng.choice([-1.0, 1.0], shape)

    zeros = np.where(rng.random((40, 24)) < 0.5, -0.0, 0.0)
    zeros[:8] = -0.0
    zeros[8:16, :3] = [1.5, -1.5, -0.0]
    sizes = rng.integers(1, 25, 40)
    zeros[np.arange(24) >= sizes[:, None]] = np.nan
    check(zeros, sizes)

    split = signed(2, 34, 140)
    sizes = np.tile(np.arange(120, 137), 2)
    split[:, np.arange(140) >= sizes[:, None]] = np.nan
    check(split, sizes)

    check(signed(3, 40, 300), rng.integers(1, 301, 40))
    check(signed(3, 10000), np.array([8191, 8192, 10000]))

    samples = np.sort(rng.lognormal(5.0, 0.5, (30, 60)), axis=1)
    sizes = rng.integers(1, 61, 30)
    y = rng.uniform(50.0, 300.0, (30, 16))
    check(special.ndtr((y.T[..., None] - samples) / rng.uniform(1.0, 20.0, 30)[:, None]), sizes)

    wide = signed(64, 200)
    for lo, k in ((0, 129), (17, 8), (40, 150)):
        chunk = wide[lo : lo + 20, :k]
        assert chunk.strides[0] == wide.strides[0]
        check(chunk, rng.integers(1, k + 1, chunk.shape[0]))


def test_increasing_root_solves_only_roots_inside_its_bracket():
    # Newton steps on t - root over (0.01, 1): a root outside, even just
    # outside, is not solved, though its iterates end at the near end; a
    # root inside is, also next to an end.
    roots = np.array([0.5, 0.02, 5.0, 1e-4, 1.0 + 1e-9, 1.0 - 1e-9])
    start = np.array([0.3, 0.3, 0.3, 0.3, 0.3, 1.0])
    solved, t = _increasing_root(lambda t, rows: (t - roots[rows], np.ones(rows.size)),
                                 start, 1e-2, 1.0, np.ones(roots.size, dtype=bool))
    assert solved.tolist() == [True, True, False, False, False, True]
    assert np.allclose(t[solved], roots[solved], rtol=1e-15, atol=0.0)
    assert t[[2, 3, 4]] == pytest.approx([1.0, 1e-2, 1.0], rel=1e-12)


def _block_lists():
    """Price lists for the block fit: the bundled lists (one of 133 prices,
    past numpy's 128-value sum), the edge lists, and seeded draws of 2-40
    prices from each bundled list and from tie-heavy lists of 2-5 distinct
    prices within $3, each sorted, at x1, x1e-2 and x1e3."""
    rng = np.random.default_rng(29)
    bundled = [builtin_dataset(name).values() for name in ("printer", "mouse", "monitor", "camera")]
    lists = bundled + list(_EDGE_LISTS.values())
    for values in bundled:
        lists += [rng.choice(values, size=int(rng.integers(2, 41)), replace=False) for _ in range(8)]
    for _ in range(16):
        distinct = np.round(rng.uniform(20.0, 600.0) + rng.uniform(0.0, 3.0, rng.integers(2, 6)), 2)
        lists.append(rng.choice(distinct, size=int(rng.integers(2, 41))))
    return [np.sort(x) * scale for x in lists for scale in (1.0, 1e-2, 1e3)]


def test_block_fit_agrees_with_fit_parametric_row_by_row():
    # ParametricRows fits every row of one padded block at once, and
    # fit_parametric is its one-row case: every field a row has, its
    # candidates' and its winner's density's included, has the bits it has
    # alone, whatever the rows beside it or past its end (NaN), and the bits
    # fit_parametric gives it. Only the one-price row is deferred, and
    # fit_parametric refuses it.
    lists = _block_lists() + [np.array([12.5])]
    sizes = np.array([x.size for x in lists])
    samples = np.full((len(lists), sizes.max()), np.nan)
    for i, x in enumerate(lists):
        samples[i, : x.size] = x
    block = ParametricRows(samples, sizes)
    low = block.effective_low

    def fields(rows, at, low):
        candidates = [(rows.skip[f, at], {k: v.hex() for k, v in rows.params_of(f, at).items()},
                       rows.loglik[f, at].hex(), rows.bic[f, at].hex()) for f in range(len(FAMILIES))]
        return (rows.deferred[at], rows.family[at], rows.shape[at], rows.loc[at], rows.scale[at], low[at],
                rows.sample_min[at], candidates)

    for i, x in enumerate(lists):
        alone = ParametricRows(x[None], sizes[i : i + 1])
        assert fields(alone, 0, alone.effective_low) == fields(block, i, low), x
        if block.deferred[i]:
            continue
        report = fit_parametric(x)
        assert report.best_family == FAMILIES[block.family[i]], x
        assert [_hex_row(c) for c in report.candidates] == [
            _hex_row(FitCandidate(name, {}, math.nan, math.nan, True, SKIP_REASONS[block.skip[f, i]])
                     if block.skip[f, i] else
                     FitCandidate(name, block.params_of(f, i), block.loglik[f, i], block.bic[f, i]))
            for f, name in enumerate(FAMILIES)
        ], x
        got, want = block.density(i), report.density
        assert (got.family, got.params, got.sample_min, got.sample_size) == (
            want.family, want.params, want.sample_min, want.sample_size)
        assert (got._shapes, got._loc, got._scale, got._below_zero) == (
            want._shapes, want._loc, want._scale, want._below_zero), x
    assert np.flatnonzero(block.deferred).tolist() == [len(lists) - 1]
    with pytest.raises(ValidationError, match="at least 2 observations"):
        fit_parametric(lists[-1])


def test_single_family_is_always_chosen():
    rng = np.random.default_rng(3)
    report = fit_parametric(rng.normal(10.0, 1.0, 100), families=("normal",))
    assert report.best_family == "normal"


def _gumbel_score(x, beta):
    """The gumbel ML scale equation beta - mean + sum(x w) / sum(w),
    w = exp(-(x - min) / beta), with x shifted by its minimum."""
    d = x - x.min()
    w = np.exp(-d / beta)
    return beta - np.mean(d) + np.sum(d * w) / np.sum(w)


def test_gumbel_fits_every_bundled_prefix():
    # Sorted prefixes cluster at the low end, where a fixed-point scale
    # iteration crawled and gave up on 38 of these 84 lists.
    for name in ("printer", "mouse", "monitor", "camera"):
        first = np.sort(builtin_dataset(name).values()[:30])
        for size in range(10, 31):
            report = fit_parametric(first[:size])
            gumbel = next(c for c in report.candidates if c.family == "gumbel")
            assert not gumbel.skipped, (name, size, gumbel.reason)
            beta = gumbel.params["scale"]
            assert abs(_gumbel_score(first[:size], beta)) <= 1e-10 * beta, (name, size)


@pytest.mark.parametrize("scale", [1.0, 1e-2, 1e3])
def test_gumbel_edge_lists_fit_without_warnings(scale):
    lists = [
        np.repeat([297.0, 297.01], 15),  # one-cent tie cluster
        np.append(np.full(29, 50.0), 5000.0),  # one far outlier over 29 ties
        builtin_dataset("printer").values()[:30],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in lists:
            x = x * scale
            d = fit_parametric(x, families=("gumbel",)).density
            beta = d.params["scale"]
            assert beta > 0 and abs(_gumbel_score(x, beta)) <= 1e-10 * beta
            grid = np.linspace(0.0, 2.0 * x.max(), 257)
            assert np.all(np.isfinite(d.pdf(grid))) and np.all(np.isfinite(d.cdf(grid)))


def test_bic_recovery_rates():
    # Generating family must win the BIC vote in >= 95% of seeded trials.
    pairs = [
        ("exponential", ("exponential", "normal"), lambda rng: rng.exponential(5.0, 500)),
        ("gumbel", ("normal", "gumbel"), lambda rng: rng.gumbel(20.0, 3.0, 500)),
    ]
    for want, families, sampler in pairs:
        wins = 0
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            report = fit_parametric(sampler(rng), families=families)
            wins += report.best_family == want
        assert wins >= 19, (want, wins)


def test_fit_skips_degenerate_families_with_reasons():
    # A zero-spread sample defeats every location-scale family; only the
    # exponential (scale = mean) still has a defined MLE.
    report = fit_parametric(np.full(50, 5.0))
    skipped = {c.family for c in report.skipped()}
    assert skipped == set(FAMILIES) - {"exponential"}
    assert all(c.reason for c in report.skipped())
    assert report.best_family == "exponential"


def test_fit_all_skipped_raises():
    with pytest.raises(FitError, match="zero spread"):
        fit_parametric(np.full(50, 5.0), families=("normal",))


def test_nonpositive_sample_rejected():
    with pytest.raises(ValidationError):
        fit_parametric(np.array([-1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError):
        fit_kde(np.array([0.0, 1.0]))


def test_fit_estimator_dispatch():
    values = builtin_dataset("mouse").values()
    assert isinstance(fit_estimator(values, "kde"), KernelDensity)
    assert fit_estimator(values, "parametric").cdf(0.0) == 0.0
    with pytest.raises(ValidationError):
        fit_estimator(values, "histogram")


def test_parametric_truncation_at_zero():
    # A normal fit with real mass below zero must renormalize cleanly.
    rng = np.random.default_rng(9)
    report = fit_parametric(np.abs(rng.normal(0.5, 1.0, 400)), families=("normal",))
    d = report.density
    assert d.cdf(0.0) == 0.0
    assert d.pdf(-1.0) == 0.0
    assert d.cdf(1e4) == pytest.approx(1.0, abs=1e-9)


def test_equal_mass_uniform_examples():
    d = UniformDensity(0.0, 1.0)
    three = equal_mass_prices(d, 3, q0=0.0)
    assert three[0] == 0.0
    assert three[1] == pytest.approx(0.5, abs=1e-6)
    assert three[2] == pytest.approx(1.0, abs=1e-5)
    two = equal_mass_prices(d, 2, q0=0.0)
    assert two[1] == pytest.approx(d.quantile(1.0 - 1e-6), abs=1e-9)


def test_equal_mass_printer_kde():
    d = fit_kde(builtin_dataset("printer").values())
    prices = equal_mass_prices(d, 30, q0=297.0)
    assert prices.shape == (30,)
    assert prices[0] == 297.0
    assert np.all(np.diff(prices) > 0)
    gaps = np.diff([d.cdf(q) for q in prices])
    assert np.max(np.abs(gaps[:-1] - 1.0 / 29.0)) < 1e-4


@pytest.mark.parametrize("estimator", ["kde", "parametric"])
@pytest.mark.parametrize("name", ["printer", "mouse", "monitor", "camera"])
def test_equal_mass_prices_are_the_per_level_quantiles(name, estimator):
    d = fit_estimator(builtin_dataset(name).values(), estimator)
    n, cap = 20, 1.0 - 1e-6
    base = float(d.cdf(d.sample_min))
    levels = [min(base + i * (1.0 / (n - 1)), cap) for i in range(1, n)]
    prices = equal_mass_prices(d, n)
    assert prices[0] == d.sample_min
    assert np.array_equal(prices[1:], [d.quantile(p) for p in levels])


def test_equal_mass_unreachable_step():
    # camera KDE has cdf(min) > 1/39, so 40 equal steps cannot fit.
    d = fit_kde(builtin_dataset("camera").values())
    with pytest.raises(GenerationError):
        equal_mass_prices(d, 40, q0=148.0)
    with pytest.raises(GenerationError):
        equal_mass_prices(UniformDensity(0.0, 1.0), 3, q0=0.9999999)


def test_equal_mass_validation():
    d = UniformDensity(0.0, 1.0)
    with pytest.raises(ValidationError):
        equal_mass_prices(d, 1, q0=0.0)
    # q0 defaults to the sample minimum when one exists
    assert equal_mass_prices(d, 3)[0] == d.sample_min
    bare = UniformDensity(0.0, 1.0)
    bare.sample_min = None
    with pytest.raises(ValidationError):
        equal_mass_prices(bare, 3)


def _windowed_bounds(d, dense_pdf, dense_cdf):
    """How far a windowed pdf and cdf may lie from the dense truncated
    values: four ulps of reordered summation, plus the largest term a
    window drops, exp(-TAIL_SIGMAS**2 / 2) for the Gaussian kernel and
    ndtr(-TAIL_SIGMAS) for its integral, renormalized. The cdf's ulps are
    those of the untruncated sum, which exceeds the truncated cdf by the
    mass below zero (0 for a sample far above zero)."""
    eps = np.finfo(float).eps
    mass = d._mass_above_zero
    pdf_tail = math.exp(-TAIL_SIGMAS**2 / 2) / (d.bandwidth * math.sqrt(2.0 * math.pi) * mass)
    cdf_tail = special.ndtr(-TAIL_SIGMAS) / mass
    return (
        4 * eps * np.abs(dense_pdf) + pdf_tail,
        4 * eps * (np.abs(dense_cdf) + d._below_zero / mass) + cdf_tail,
    )


def test_blocked_kde_sums_equal_one_dense_block():
    # 30 samples take one block: each row is the dense matrix's np.mean,
    # truncated with np.clip and np.where, bit for bit. 5000 take several
    # windowed blocks, which agree with it to rounding and the dropped tail.
    rng = np.random.default_rng(17)
    y = np.concatenate([np.linspace(0.0, 400.0, 1025), [-3.0, np.nan, -np.inf, np.inf]])
    for size in (5000, 30):
        d = fit_kde(rng.lognormal(5.0, 0.3, size))
        assert (y.size * d.sample.size > KDE_BLOCK_DOUBLES) == (size == 5000)
        z = (y[:, None] - d.sample[None, :]) / d.bandwidth
        dense_pdf = np.mean(np.exp(-0.5 * z * z), axis=1) / (d.bandwidth * np.sqrt(2.0 * np.pi))
        dense_cdf = np.mean(special.ndtr(z), axis=1)
        inside = y >= 0.0
        want_pdf = np.where(inside, dense_pdf / d._mass_above_zero, 0.0)
        want_cdf = np.where(inside, np.clip((dense_cdf - d._below_zero) / d._mass_above_zero, 0.0, 1.0), 0.0)
        if size == 30:
            assert np.array_equal(d.pdf(y), want_pdf)
            assert np.array_equal(d.cdf(y), want_cdf)
            assert np.array_equal(d.pdf(y[:1025]), dense_pdf[:1025] / d._mass_above_zero)
        else:
            pdf_bound, cdf_bound = _windowed_bounds(d, want_pdf, want_cdf)
            assert np.all(np.abs(d.pdf(y) - want_pdf) <= pdf_bound)
            assert np.all(np.abs(d.cdf(y) - want_cdf) <= cdf_bound)


def _second_level_abscissae(a: float, b: float, panels: int) -> np.ndarray:
    """The K15 nodes of a second refinement level over ``panels`` equal
    panels of [a, b], in quadrature's order: every left half before every
    right half, so the points are not sorted."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    lo, hi = np.concatenate([edges[:-1], mid]), np.concatenate([mid, edges[1:]])
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (center[:, None] + half[:, None] * _NODES).ravel()


def test_windowed_kde_edges_match_the_one_block_oracle(monkeypatch):
    # 5000 prices: a bulk, 50 outliers close to zero far below it and 10
    # far above it, so the windows of points in the bulk drop samples on
    # both sides. The window of the block at zero sums the low outliers in
    # another order than the mass below zero, a few ulps apart.
    rng = np.random.default_rng(20)
    d = fit_kde(np.concatenate([
        rng.lognormal(5.0, 0.3, 4940), rng.uniform(0.1, 5.0, 50), rng.uniform(3000.0, 9000.0, 10)
    ]))
    y = _second_level_abscissae(0.0, 600.0, 64)
    y = np.concatenate([y[:300], [np.nan, 0.0, np.inf, -np.inf, -3.0], y[300:], [4000.0, 0.0]])
    assert y.size * d.sample.size > KDE_BLOCK_DOUBLES and not np.all(np.diff(y[:900]) >= 0)
    # A block's rows are sorted neighbours well under a bandwidth apart.
    reach = TAIL_SIGMAS * d.bandwidth
    assert np.count_nonzero((y - 2 * reach > 5.0) & (y + 2 * reach < 3000.0)) > 100
    pdf, cdf = d.pdf(y), d.cdf(y)
    assert np.all(cdf[y == 0.0] == 0.0)
    assert cdf[y == np.inf] == 1.0 and pdf[y == np.inf] == 0.0
    assert d.cdf(np.inf) == 1.0 and d.pdf(np.inf) == 0.0 and d.cdf(0.0) == 0.0
    assert pdf[np.isnan(y)] == 0.0 and cdf[np.isnan(y)] == 0.0
    monkeypatch.setattr("pricedisclosure.density.KDE_BLOCK_DOUBLES", 2**62)
    want_pdf, want_cdf = d.pdf(y), d.cdf(y)
    pdf_bound, cdf_bound = _windowed_bounds(d, want_pdf, want_cdf)
    assert np.all(np.abs(pdf - want_pdf) <= pdf_bound)
    assert np.all(np.abs(cdf - want_cdf) <= cdf_bound)


def test_windowed_sweep_matches_the_one_block_oracle(monkeypatch):
    """A critical-cost sweep on 5000 prices, five q points and five n_new
    points laid out as the benchmark's large sweeps lay them out, agrees
    with the one-block sums to max(1e-11, 1e-10 * value). Runtime cap: a
    few seconds (about 0.5 s on a 2-vCPU host)."""
    rng = np.random.default_rng(41)
    base = builtin_dataset("camera").values()
    # A smoothed bootstrap in whole cents, as the benchmark builds its lists.
    q75, q25 = np.percentile(base, [75.0, 25.0])
    h = 0.9 * min(float(np.std(base, ddof=1)), float(q75 - q25) / 1.34) * base.size ** (-0.2)
    draws = rng.choice(base, size=5000) + rng.normal(0.0, h, size=5000)
    cents = np.sort(np.maximum(np.rint(draws * 100.0), 1.0))
    n_new = expected_new_prices(base.size / 5, 0.12)
    low = cents[250]
    step = max(1.0, (cents[2500] - low) // 4)
    n_lo = max(1, n_new - 8)
    points = [((low + k * step) / 100.0, n_new) for k in range(5)]
    points += [(cents[1250] / 100.0, n_lo + 4 * k) for k in range(5)]
    d = fit_kde(cents / 100.0)
    got = [critical_cost(d, q, n).value for q, n in points]
    monkeypatch.setattr("pricedisclosure.density.KDE_BLOCK_DOUBLES", 2**62)
    for (q, n), value in zip(points, got):
        want = critical_cost(d, q, n).value
        assert abs(value - want) <= max(1e-11, 1e-10 * want), (q, n, value, want)


def test_kde_effective_low_and_feature_scale():
    d = fit_kde([297.0] * 10 + [297.01] * 10)
    assert d.feature_scale == d.bandwidth
    assert d.effective_low == 297.0 - 12.0 * d.bandwidth
    assert d.cdf(d.effective_low) < 1e-30
    assert fit_kde([0.5, 1.0, 40.0]).effective_low == 0.0
    u = UniformDensity(0.25, 1.0)
    assert u.effective_low == u.support_low and u.feature_scale is None


@pytest.mark.parametrize("name", ["printer", "mouse", "monitor", "camera"])
def test_parametric_fits_leak_no_warnings(name):
    # Gumbel's cdf overflows an inner exp far below its mode, where the
    # limit 0 is exact; none of that may reach the caller. A gumbel fit to
    # a one-cent cluster puts zero thousands of scales below the mode.
    values = np.sort(builtin_dataset(name).values())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = [fit_parametric(values[:size]) for size in range(10, 31)]
        tight = fit_parametric(np.repeat([values[0], values[0] + 0.01], 10), families=("gumbel",))
        for report in fits + [tight]:
            d = report.density
            grid = np.linspace(0.0, d.sample_min + 10.0, 257)
            assert np.all(np.isfinite(d.pdf(grid))) and np.all(np.isfinite(d.cdf(grid)))
            assert d.cdf(0.0) == 0.0


@pytest.mark.parametrize("kind", ["kde", "blocked_kde", "parametric", "uniform"])
def test_point_contract_holds_for_every_shape(kind):
    # Any shape gives the raveled call's values in that shape, bit for bit;
    # a point gives a float. 600 samples put an (n, 1) array of points past
    # one KDE row block.
    values = builtin_dataset("printer").values()
    if kind == "blocked_kde":
        values = np.random.default_rng(5).lognormal(5.0, 0.3, 600)
    d = {
        "kde": fit_kde,
        "blocked_kde": fit_kde,
        "parametric": lambda v: fit_parametric(v).density,
        "uniform": lambda v: UniformDensity(0.9 * v.min(), 1.1 * v.max()),
    }[kind](values)
    n = values.size
    assert (kind == "blocked_kde") == (n * n > KDE_BLOCK_DOUBLES)
    functions = {
        "pdf": d.pdf,
        "cdf": d.cdf,
        "quantile": d.quantile,
        "min_order_pdf": lambda y: min_order_pdf(d, 18, y),
        "min_order_cdf": lambda y: min_order_cdf(d, 18, y),
    }
    for name, fn in functions.items():
        low, high = (0.0, 1.0) if name == "quantile" else (-0.1 * values.max(), 1.5 * values.max())
        for shape in ((2, 3), (n, 1), (1, n), (2, 2, 2)):
            y = np.linspace(low, high, math.prod(shape)).reshape(shape)
            got = fn(y)
            assert got.shape == shape, (name, shape)
            assert np.array_equal(got, fn(y.ravel()).reshape(shape), equal_nan=True), (name, shape)
        point = 0.3 if name == "quantile" else float(np.median(values))
        want = fn(np.array([point]))[0]
        for form in (point, np.float64(point), np.array(point)):
            got = fn(form)
            assert type(got) is float and got == want, (name, form)
    # The point may also be given by name.
    assert d.pdf(y=values[0]) == d.pdf(values[0])
    assert d.quantile(p=[0.5]) == d.quantile([0.5])
    assert min_order_cdf(d, y=values[0], n_new=18) == min_order_cdf(d, 18, values[0])
