"""Adaptive Simpson integrator."""

import math

import numpy as np
import pytest

from pricedisclosure.errors import NumericalError, ValidationError
from pricedisclosure.quadrature import adaptive_simpson


def test_cubic_is_exact():
    # Simpson integrates cubics exactly on a single panel.
    value, err = adaptive_simpson(lambda y: y**3 - 2 * y, 0.0, 2.0)
    assert abs(value - (4.0 - 4.0)) < 1e-12
    assert err >= 0.0


def test_known_transcendental_integrals():
    value, _ = adaptive_simpson(np.sin, 0.0, math.pi)
    assert abs(value - 2.0) < 1e-8
    value, _ = adaptive_simpson(np.exp, 0.0, 1.0)
    assert abs(value - (math.e - 1.0)) < 1e-8


def test_empty_interval_is_zero():
    value, err = adaptive_simpson(np.exp, 1.5, 1.5)
    assert value == 0.0
    assert err == 0.0


def test_tolerance_is_respected():
    for tol in (1e-6, 1e-10):
        value, err = adaptive_simpson(np.exp, 0.0, 2.0, tol=tol)
        assert abs(value - (math.e**2 - 1.0)) < 10 * tol
        assert err <= tol


def test_singular_derivative_converges_at_moderate_tolerance():
    value, err = adaptive_simpson(lambda y: np.sqrt(np.abs(y)), 0.0, 1.0, tol=1e-6)
    assert abs(value - 2.0 / 3.0) < 1e-5
    assert err <= 1e-6


def test_min_depth_catches_narrow_bump():
    # A bump that every coarse probe node misses: without forced
    # refinement the integrator sees zeros everywhere and stops at once.
    def bump(y):
        return np.exp(-0.5 * ((np.asarray(y) - 260.0) / 2.0) ** 2)

    exact = 2.0 * math.sqrt(2 * math.pi)
    shallow, _ = adaptive_simpson(bump, 0.0, 300.0, min_depth=0)
    forced, _ = adaptive_simpson(bump, 0.0, 300.0, min_depth=8)
    assert abs(shallow) < 1e-9
    assert abs(forced - exact) < 1e-6


def test_min_depth_validation():
    with pytest.raises(ValidationError):
        adaptive_simpson(np.sin, 0.0, 1.0, min_depth=-1)
    with pytest.raises(ValidationError):
        adaptive_simpson(np.sin, 0.0, 1.0, min_depth=50, max_depth=40)


def test_reversed_interval_negates():
    forward, _ = adaptive_simpson(np.exp, 0.0, 1.0)
    backward, _ = adaptive_simpson(np.exp, 1.0, 0.0)
    assert backward == -forward


def test_non_finite_integrand_raises():
    with pytest.raises(NumericalError):
        adaptive_simpson(lambda y: np.where(y < 0.5, np.nan, 1.0), 0.0, 1.0)


def test_error_estimate_reported_on_failure():
    with pytest.raises(NumericalError) as info:
        adaptive_simpson(
            lambda y: np.sqrt(np.abs(y)), 0.0, 1.0, tol=1e-14, max_depth=3
        )
    assert info.value.error_estimate > 0.0


def test_vector_integrand_rows_match_scalar_runs():
    # exp(c*y) for c = 1, 1.0001 need the same refinement, so the shared
    # pass accepts every panel where each scalar run does.
    rates = np.array([1.0, 1.0001])
    rows, errs = adaptive_simpson(lambda y: np.exp(rates[:, None] * y), 0.0, 2.0, min_depth=2)
    assert rows.shape == errs.shape == (2,)
    for rate, value, err in zip(rates, rows, errs):
        assert (value, err) == adaptive_simpson(lambda y: np.exp(rate * y), 0.0, 2.0, min_depth=2)


def test_vector_integrand_refines_until_every_row_converges():
    # Row 0 is a cubic, exact on one panel; row 1 needs refinement, and
    # row 0 is carried along on the finer panels.
    rows, _ = adaptive_simpson(lambda y: np.stack([y**3, np.sqrt(y)]), 0.0, 1.0, tol=1e-8)
    assert abs(rows[0] - 0.25) < 1e-12
    assert abs(rows[1] - 2.0 / 3.0) < 1e-7


def test_forced_levels_cost_one_integrand_call():
    sizes = []

    def cubic(y):
        sizes.append(y.size)
        return y**3

    value, _ = adaptive_simpson(cubic, 0.0, 2.0, min_depth=8)
    assert sizes == [4 * 2**8 + 1]
    assert abs(value - 4.0) < 1e-12

    def root(y):
        sizes.append(y.size)
        return np.sqrt(y)

    sizes.clear()
    adaptive_simpson(root, 0.0, 1.0, tol=1e-8, min_depth=8)
    assert sizes[0] == 1025 and len(sizes) > 1
    assert all(size < 1025 for size in sizes[1:])


def test_min_depth_validated_before_integrand_is_called():
    calls = []
    with pytest.raises(ValidationError):
        adaptive_simpson(lambda y: calls.append(y) or y, 1.0, 1.0, min_depth=41, max_depth=40)
    assert calls == []
