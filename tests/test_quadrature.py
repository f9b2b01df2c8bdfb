"""Adaptive Gauss-Kronrod (G7/K15) integrator."""

import math

import numpy as np
import pytest

from pricedisclosure.errors import NumericalError, ValidationError
from pricedisclosure.quadrature import (
    _GAUSS_WEIGHTS,
    _KRONROD_WEIGHTS,
    _NODES,
    MAX_PANELS,
    _linspace,
    adaptive_gauss_kronrod,
)


def test_cubic_is_exact():
    value, err = adaptive_gauss_kronrod(lambda y: y**3 - 2 * y, 0.0, 2.0)
    assert abs(value - (4.0 - 4.0)) < 1e-12
    assert err >= 0.0


def test_known_transcendental_integrals():
    value, _ = adaptive_gauss_kronrod(np.sin, 0.0, math.pi)
    assert abs(value - 2.0) < 1e-8
    value, _ = adaptive_gauss_kronrod(np.exp, 0.0, 1.0)
    assert abs(value - (math.e - 1.0)) < 1e-8


def test_empty_interval_is_zero():
    value, err = adaptive_gauss_kronrod(np.exp, 1.5, 1.5)
    assert value == 0.0
    assert err == 0.0


def test_tolerance_is_respected():
    for tol in (1e-6, 1e-10):
        value, err = adaptive_gauss_kronrod(np.exp, 0.0, 2.0, tol=tol)
        assert abs(value - (math.e**2 - 1.0)) < 10 * tol
        assert err <= tol


def test_singular_derivative_converges_at_moderate_tolerance():
    value, err = adaptive_gauss_kronrod(lambda y: np.sqrt(np.abs(y)), 0.0, 1.0, tol=1e-6)
    assert abs(value - 2.0 / 3.0) < 1e-5
    assert err <= 1e-6


def test_starting_panels_catch_narrow_bump():
    # A bump halfway between the central nodes (150 and 181.2) of one panel
    # on [0, 300]: with one starting panel the integrator sees nearly zeros
    # everywhere and stops at once; 32 panels put nodes inside the bump.
    def bump(y):
        return np.exp(-0.5 * ((np.asarray(y) - 165.0) / 2.0) ** 2)

    exact = 2.0 * math.sqrt(2 * math.pi)
    shallow, _ = adaptive_gauss_kronrod(bump, 0.0, 300.0, panels=1)
    forced, _ = adaptive_gauss_kronrod(bump, 0.0, 300.0, panels=32)
    assert abs(shallow) < 1e-9
    assert abs(forced - exact) < 1e-8


def test_panels_validation():
    for panels in (0, -1, MAX_PANELS + 1):
        with pytest.raises(ValidationError):
            adaptive_gauss_kronrod(np.sin, 0.0, 1.0, panels=panels)


def test_reversed_interval_negates():
    forward, _ = adaptive_gauss_kronrod(np.exp, 0.0, 1.0)
    backward, _ = adaptive_gauss_kronrod(np.exp, 1.0, 0.0)
    assert backward == -forward


def test_non_finite_integrand_raises():
    with pytest.raises(NumericalError):
        adaptive_gauss_kronrod(lambda y: np.where(y < 0.5, np.nan, 1.0), 0.0, 1.0)


def test_error_estimate_reported_on_failure():
    with pytest.raises(NumericalError) as info:
        adaptive_gauss_kronrod(
            lambda y: np.sqrt(np.abs(y)), 0.0, 1.0, tol=1e-14, max_depth=3
        )
    assert info.value.error_estimate > 0.0


def test_vector_integrand_rows_match_scalar_runs():
    # exp(c*y) for c = 1, 1.0001 need the same refinement, so the shared
    # pass accepts every panel where each scalar run does.
    rates = np.array([1.0, 1.0001])
    rows, errs = adaptive_gauss_kronrod(lambda y: np.exp(rates[:, None] * y), 0.0, 2.0, panels=4)
    assert rows.shape == errs.shape == (2,)
    for rate, value, err in zip(rates, rows, errs):
        assert (value, err) == adaptive_gauss_kronrod(lambda y: np.exp(rate * y), 0.0, 2.0, panels=4)


def test_vector_integrand_refines_until_every_row_converges():
    # Row 0 is a cubic, exact on one panel; row 1 needs refinement, and
    # row 0 is carried along on the finer panels.
    rows, _ = adaptive_gauss_kronrod(lambda y: np.stack([y**3, np.sqrt(y)]), 0.0, 1.0, tol=1e-8)
    assert abs(rows[0] - 0.25) < 1e-12
    assert abs(rows[1] - 2.0 / 3.0) < 1e-7


def test_one_panel_is_exact_to_degree_23():
    # K15 integrates polynomials to degree 23 exactly and G7 to degree 13,
    # so on one panel the error estimate |K15 - G7| vanishes to degree 13.
    for degree in range(24):
        value, err = adaptive_gauss_kronrod(lambda y: y**degree, 0.0, 1.0, tol=np.inf)
        assert abs(value - 1.0 / (degree + 1)) <= 1e-16, degree
        if degree <= 13:
            assert err <= 2e-16, degree
    _, err = adaptive_gauss_kronrod(lambda y: y**14, 0.0, 1.0, tol=np.inf)
    assert err > 1e-9


def test_starting_panels_cost_one_integrand_call():
    sizes = []

    def cubic(y):
        sizes.append(y.size)
        return y**3

    value, _ = adaptive_gauss_kronrod(cubic, 0.0, 2.0, panels=256)
    assert sizes == [15 * 256]
    assert abs(value - 4.0) < 1e-12

    def root(y):
        sizes.append(y.size)
        return np.sqrt(y)

    sizes.clear()
    adaptive_gauss_kronrod(root, 0.0, 1.0, tol=1e-8, panels=256)
    assert sizes[0] == 15 * 256 and len(sizes) > 1
    assert all(size < 15 * 256 for size in sizes[1:])


def test_panels_validated_before_integrand_is_called():
    calls = []
    for panels in (0, MAX_PANELS + 1, np.full(MAX_PANELS + 2, 1.0)):
        with pytest.raises(ValidationError):
            adaptive_gauss_kronrod(lambda y: calls.append(y) or y, 1.0, 1.0, panels=panels)
    bad_edges = (
        [0.0, 0.6, 0.4, 1.0],  # not increasing
        [1.0, 0.5, 0.0],
        [0.1, 0.5, 1.0],  # ends other than a and b
        [0.0, 0.5, 0.9],
        np.linspace(0.0, 1.0, MAX_PANELS + 2),  # more than MAX_PANELS panels
        [0.0],
        [[0.0, 1.0]],
    )
    for edges in bad_edges:
        with pytest.raises(ValidationError):
            adaptive_gauss_kronrod(lambda y: calls.append(y) or y, 0.0, 1.0, panels=edges)
    assert calls == []


def test_starting_edges_act_as_the_count_they_spread():
    # Edges equal to the even start's give its result bit for bit; uneven
    # edges give the same integral, each panel with the budget tol / count.
    rates = np.array([1.0, 3.0])

    def f(y):
        return np.exp(rates[:, None] * y)

    for panels in (1, 3, 8):
        even = adaptive_gauss_kronrod(f, 0.0, 2.0, panels=panels)
        edged = adaptive_gauss_kronrod(f, 0.0, 2.0, panels=_linspace(0.0, 2.0, panels))
        assert all(np.array_equal(u, v) for u, v in zip(even, edged))
    sizes = []

    def cubic(y):
        sizes.append(y.size)
        return y**3

    value, _ = adaptive_gauss_kronrod(cubic, 0.0, 2.0, panels=[0.0, 1.5, 1.75, 1.75, 2.0])
    assert sizes == [15 * 4]  # the repeated edge is an empty panel
    assert abs(value - 4.0) < 1e-12
    value, err = adaptive_gauss_kronrod(np.exp, 0.0, 8.0, tol=1e-10, panels=[0.0, 6.0, 7.5, 8.0])
    assert abs(value - math.expm1(8.0)) < 1e-9 and err <= 1e-10


def test_worklist_cap_stops_a_noise_integrand_early():
    # Seeded noise never converges; every panel stays active, and the
    # worklist doubles each level until the cap, far below max_depth.
    rng = np.random.default_rng(29)
    asked = []

    def noise(y):
        asked.append(y.size)
        return rng.standard_normal(y.size)

    with pytest.raises(NumericalError, match="MAX_PANELS") as info:
        adaptive_gauss_kronrod(noise, 0.0, 1.0)
    assert sum(asked) < 15 * 2 * MAX_PANELS
    assert info.value.error_estimate > 0.0


def _reference_gauss_kronrod(f, a, b, tol=1e-8, panels=1, max_depth=40):
    """One G7/K15 panel at a time, recursing into both halves of a panel
    that misses its budget (error paths left out). Returns the total, the
    summed error estimate and every abscissa evaluated."""
    evaluated = []

    def panel(lo, hi, budget, depth):
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = center + half * _NODES
        evaluated.append(x)
        v = np.asarray(f(x), dtype=float)
        kronrod = half * np.sum(v * _KRONROD_WEIGHTS, axis=-1)
        err = np.abs(kronrod - half * np.sum(v[..., 1::2] * _GAUSS_WEIGHTS, axis=-1))
        if np.all(err <= budget):
            return kronrod, err
        assert depth < max_depth, "reference did not converge"
        left = panel(lo, center, budget / 2.0, depth + 1)
        right = panel(center, hi, budget / 2.0, depth + 1)
        return left[0] + right[0], left[1] + right[1]

    edges = np.linspace(a, b, panels + 1)
    parts = [panel(lo, hi, tol / panels, 0) for lo, hi in zip(edges[:-1], edges[1:])]
    total = sum(part[0] for part in parts)
    err = sum(part[1] for part in parts)
    return total, err, np.sort(np.concatenate(evaluated))


def test_starting_edges_equal_np_linspace_bitwise():
    # Subnormal widths take np.linspace's other order of operations.
    ends = [
        (0.0, 1.0), (0.3, 123.7), (-5.0, 1e-300), (297.0, 297.01), (1e-3, 1e300), (0.0, 5e-324), (1e-310, 1.2e-310)
    ]
    for a, b in ends:
        for panels in (1, 2, 3, 7, 32, 1000, MAX_PANELS):
            assert np.array_equal(_linspace(a, b, panels), np.linspace(a, b, panels + 1)), (a, b, panels)


@pytest.mark.parametrize("panels", [1, 2, 8, 256])
def test_worklist_matches_recursive_reference(panels):
    # The same panels are evaluated (so the same ones accepted), and the
    # sums, taken in another order, agree within a few ulps.
    rates = np.array([1.0, 1.0001, 3.0])
    cases = [
        (np.exp, 0.0, 8.0, 1e-10),
        (lambda y: np.sqrt(np.abs(y)), 0.0, 1.0, 1e-6),
        (lambda y: np.exp(-0.5 * ((y - 260.0) / 2.0) ** 2), 0.0, 300.0, 1e-9),
        (lambda y: np.stack([np.sqrt(y), np.exp(rates[:, None] * y).sum(axis=0)]), 0.0, 1.0, 1e-6),
    ]
    for f, a, b, tol in cases:
        asked = []

        def recorded(y):
            asked.append(y)
            return f(y)

        value, err = adaptive_gauss_kronrod(recorded, a, b, tol=tol, panels=panels)
        ref_value, ref_err, ref_evaluated = _reference_gauss_kronrod(f, a, b, tol=tol, panels=panels)
        assert np.array_equal(np.sort(np.concatenate(asked)), ref_evaluated)
        np.testing.assert_allclose(value, ref_value, rtol=4 * np.finfo(float).eps, atol=0.0)
        np.testing.assert_allclose(err, ref_err, rtol=4 * np.finfo(float).eps, atol=0.0)
