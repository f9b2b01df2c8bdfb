"""Density estimation: KDE, parametric MLE with BIC selection, quantiles,
and equal-mass price generation."""

import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from pricedisclosure.data import builtin_dataset
from pricedisclosure.density import (
    FAMILIES,
    KDE_BLOCK_DOUBLES,
    KernelDensity,
    UniformDensity,
    equal_mass_prices,
    fit_estimator,
    fit_kde,
    fit_parametric,
    quantile_array,
    silverman_bandwidth,
)
from pricedisclosure.errors import FitError, GenerationError, ValidationError
from pricedisclosure.quadrature import adaptive_simpson


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
    for n in (1, 2, 3, 4, 5, 7, 30, 103, 1000):
        samples.append(rng.lognormal(5.0, 0.3, size=n))
        samples.append(rng.choice([297.0, 297.01, 299.5], size=n))  # ties
    samples.append(np.full(6, 42.0))  # zero spread
    for x in samples:
        for scaled in (x, x * 1e-2, x * 1e3):
            assert silverman_bandwidth(scaled) == _silverman_reference(scaled), scaled.size


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
        total, _ = adaptive_simpson(
            density.pdf, density.support_low, ymax, tol=1e-9, min_depth=8
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


@pytest.mark.parametrize("family", FAMILIES)
def test_fitted_dist_equals_frozen_scipy_bitwise(family):
    # The fitted density evaluates its family through the shared scipy
    # generator's kernels; every value must equal what a frozen
    # distribution gives, NaN and out-of-support points included.
    draw = np.random.default_rng(23).gamma(4.0, 3.0, 50)
    levels = np.array([0.0, 1e-300, 1e-33, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-12, 1.0, -0.5, 1.5, np.nan])
    for x in (draw, *_EDGE_LISTS.values()):
        d = fit_parametric(x, families=(family,)).density
        frozen = _FROZEN[family](d.params)
        y = np.concatenate([
            [0.0, 1e-300, 1e-9],
            np.linspace(x.min(), x.max(), 101),
            [1e3, 1e6, 1e300],
            np.linspace(0.0, 2.0 * x.max(), 257),
            [-1e300, -5.0, -1e-300, -0.0, np.nan, np.inf, -np.inf],
        ])
        with np.errstate(all="ignore"):
            for method, points in (("pdf", y), ("cdf", y), ("logpdf", y), ("ppf", levels)):
                view, ref = getattr(d.dist, method)(points), getattr(frozen, method)(points)
                assert np.array_equal(view, ref, equal_nan=True), method
                for i in (3, -3, -1):
                    one, want = getattr(d.dist, method)(points[i]), getattr(frozen, method)(points[i])
                    assert type(one) is type(want), method
                    assert one == want or (np.isnan(one) and np.isnan(want)), (method, points[i])


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
        raw = d.dist.pdf(grid)
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


def test_blocked_kde_sums_equal_one_dense_block():
    # 5000 samples take several row blocks, 30 one; either way each row is
    # the dense matrix's np.mean, truncated with np.clip and np.where.
    rng = np.random.default_rng(17)
    y = np.concatenate([np.linspace(0.0, 400.0, 1025), [-3.0, np.nan, -np.inf, np.inf]])
    for size in (5000, 30):
        d = fit_kde(rng.lognormal(5.0, 0.3, size))
        assert (y.size * d.sample.size > KDE_BLOCK_DOUBLES) == (size == 5000)
        z = (y[:, None] - d.sample[None, :]) / d.bandwidth
        dense_pdf = np.mean(np.exp(-0.5 * z * z), axis=1) / (d.bandwidth * np.sqrt(2.0 * np.pi))
        dense_cdf = np.mean(special.ndtr(z), axis=1)
        inside = y >= 0.0
        assert np.array_equal(d.pdf(y), np.where(inside, dense_pdf / d._mass_above_zero, 0.0))
        assert np.array_equal(
            d.cdf(y),
            np.where(inside, np.clip((dense_cdf - d._below_zero) / d._mass_above_zero, 0.0, 1.0), 0.0),
        )
        assert np.array_equal(d.pdf(y[:1025]), dense_pdf[:1025] / d._mass_above_zero)


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
