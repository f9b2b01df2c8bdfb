"""Density estimation: KDE, parametric MLE with BIC selection, quantiles,
and equal-mass price generation."""

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


def test_silverman_formula():
    rng = np.random.default_rng(11)
    x = rng.lognormal(3.0, 0.4, size=200)
    sigma = np.std(x, ddof=1)
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    expected = 0.9 * min(sigma, iqr / 1.34) * 200 ** (-0.2)
    assert silverman_bandwidth(x) == pytest.approx(expected, rel=1e-12)


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
    assert np.allclose(vect, scal, atol=2e-6)
    with pytest.raises(ValidationError):
        quantile_array(d, [0.5, 1.2])


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


def test_single_family_is_always_chosen():
    rng = np.random.default_rng(3)
    report = fit_parametric(rng.normal(10.0, 1.0, 100), families=("normal",))
    assert report.best_family == "normal"


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
    rng = np.random.default_rng(17)
    d = fit_kde(rng.lognormal(5.0, 0.3, 5000))
    y = np.linspace(0.0, 400.0, 1025)
    assert y.size * d.sample.size > KDE_BLOCK_DOUBLES  # several blocks
    z = (y[:, None] - d.sample[None, :]) / d.bandwidth
    dense_pdf = np.mean(np.exp(-0.5 * z * z), axis=1) / (d.bandwidth * np.sqrt(2.0 * np.pi))
    dense_cdf = np.mean(special.ndtr(z), axis=1)
    assert np.array_equal(d.pdf(y), dense_pdf / d._mass_above_zero)
    assert np.array_equal(
        d.cdf(y), np.clip((dense_cdf - d._below_zero) / d._mass_above_zero, 0.0, 1.0)
    )


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
