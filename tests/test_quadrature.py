"""Adaptive Simpson integrator."""

import math

import numpy as np
import pytest

from pricedisclosure.errors import NumericalError, ValidationError
from pricedisclosure.quadrature import MAX_PANELS, adaptive_simpson


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


def test_worklist_cap_stops_a_noise_integrand_early():
    # Seeded noise never converges; every panel stays active, and the
    # worklist doubles each level until the cap, far below max_depth.
    rng = np.random.default_rng(29)
    asked = []

    def noise(y):
        asked.append(y.size)
        return rng.standard_normal(y.size)

    with pytest.raises(NumericalError, match="MAX_PANELS") as info:
        adaptive_simpson(noise, 0.0, 1.0)
    assert sum(asked) < 4 * MAX_PANELS
    assert info.value.error_estimate > 0.0
    with pytest.raises(ValidationError):
        adaptive_simpson(noise, 0.0, 1.0, min_depth=MAX_PANELS.bit_length())


def _reference_simpson(f, a, b, tol=1e-8, min_depth=0, max_depth=40):
    """The worklist as separate per-abscissa arrays, each level's children
    concatenated one array at a time: the arithmetic adaptive_simpson must
    reproduce bit for bit (error paths left out)."""
    panels = 2**min_depth
    grid = np.linspace(a, b, 4 * panels + 1)
    values = np.asarray(f(grid), dtype=float)
    xa, lm, xm, rm = (grid[i : i + 4 * panels : 4] for i in range(4))
    xb = grid[4::4]
    fa, flm, fm, frm = (values[..., i : i + 4 * panels : 4] for i in range(4))
    fb = values[..., 4::4]
    whole = (xb - xa) / 6.0 * (fa + 4.0 * fm + fb)
    budget = np.full(panels, tol / panels)
    total = np.zeros(values.shape[:-1])
    err_total = np.zeros(values.shape[:-1])
    for depth in range(min_depth, max_depth + 1):
        if depth > min_depth:
            mid = np.asarray(f(np.concatenate([lm, rm])), dtype=float)
            flm, frm = mid[..., : lm.size], mid[..., lm.size :]
        s_left = (xm - xa) / 6.0 * (fa + 4.0 * flm + fm)
        s_right = (xb - xm) / 6.0 * (fm + 4.0 * frm + fb)
        err = (s_left + s_right - whole) / 15.0
        converged = np.abs(err) <= budget
        done = converged if converged.ndim == 1 else converged.all(axis=0)
        total += np.sum(np.compress(done, s_left + s_right + err, axis=-1), axis=-1)
        err_total += np.sum(np.abs(np.compress(done, err, axis=-1)), axis=-1)
        active = ~done
        if not active.any():
            return total, err_total
        keep = lambda *rows: [np.concatenate([r[..., active] for r in pair], axis=-1) for pair in rows]
        xa, xm, xb, fa, fm, fb, whole = keep(
            (xa, xm), (lm, rm), (xm, xb), (fa, fm), (flm, frm), (fm, fb), (s_left, s_right)
        )
        budget = np.concatenate([budget[active] / 2.0] * 2)
        lm, rm = 0.5 * (xa + xm), 0.5 * (xm + xb)
    raise AssertionError("reference did not converge")


@pytest.mark.parametrize("min_depth", [0, 1, 3, 8])
def test_worklist_matches_reference_bitwise(min_depth):
    rates = np.array([1.0, 1.0001, 3.0])
    cases = [
        (np.exp, 0.0, 2.0, 1e-10),
        (lambda y: np.sqrt(np.abs(y)), 0.0, 1.0, 1e-6),
        (lambda y: np.exp(-0.5 * ((y - 260.0) / 2.0) ** 2), 0.0, 300.0, 1e-9),
        (lambda y: np.stack([np.sqrt(y), np.exp(rates[:, None] * y).sum(axis=0)]), 0.0, 1.0, 1e-6),
    ]
    for f, a, b, tol in cases:
        value, err = adaptive_simpson(f, a, b, tol=tol, min_depth=min_depth)
        ref_value, ref_err = _reference_simpson(f, a, b, tol=tol, min_depth=min_depth)
        assert np.array_equal(value, ref_value) and np.array_equal(err, ref_err)
