"""Adaptive Simpson integration, vectorized over the interval worklist.

The integrand must map a numpy array of abscissae to an array of values;
each refinement level then costs a single integrand call, which keeps
per-integral overhead low when the integrand itself is vectorized numpy.
The forced levels (``min_depth``) bisect every panel regardless, so their
abscissae form one uniform grid that is evaluated in a single call.

An integrand may also return several rows at once, shape ``(m, k)`` for
``k`` abscissae: every row is integrated over the same abscissae, and a
panel is accepted only when all rows have converged on it. Integrals that
share their expensive ingredients then cost one pass instead of ``m``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import NumericalError, ValidationError

Integrand = Callable[[np.ndarray], np.ndarray]


def adaptive_simpson(
    f: Integrand,
    a: float,
    b: float,
    *,
    tol: float = 1e-8,
    max_depth: int = 40,
    min_depth: int = 0,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Returns ``(value, error_estimate)`` where the value includes the
    Richardson correction term: floats for an integrand returning shape
    ``(k,)``, arrays of length ``m`` for one returning ``(m, k)``, and
    ``(0.0, 0.0)`` for an empty interval, where ``f`` is never called. Raises
    :class:`NumericalError` if any subinterval fails to converge within
    ``max_depth`` bisections. ``min_depth`` forces that many bisection
    levels before convergence may be accepted: integrands whose mass sits
    in a narrow bump can look identically zero to the coarse probe, and
    the forced refinement keeps such bumps from being skipped over. The
    ``4 * 2**min_depth + 1`` abscissae of the forced levels are evaluated
    in one integrand call.
    """
    if not 0 <= min_depth <= max_depth:
        raise ValidationError(f"need 0 <= min_depth <= max_depth, got {min_depth}, {max_depth}")
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0

    panels = 2**min_depth
    grid = np.linspace(a, b, 4 * panels + 1)
    values = np.asarray(f(grid), dtype=float)
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"integrand not finite on [{a}, {b}]")
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
            count = lm.size
            mid_vals = np.asarray(f(np.concatenate([lm, rm])), dtype=float)
            if not np.all(np.isfinite(mid_vals)):
                raise NumericalError("integrand not finite during refinement")
            flm = mid_vals[..., :count]
            frm = mid_vals[..., count:]
        s_left = (xm - xa) / 6.0 * (fa + 4.0 * flm + fm)
        s_right = (xb - xm) / 6.0 * (fm + 4.0 * frm + fb)
        err = (s_left + s_right - whole) / 15.0
        converged = np.abs(err) <= budget
        done = converged if converged.ndim == 1 else converged.all(axis=0)
        if depth == max_depth and not done.all():
            pending = np.sum(np.abs(err[..., ~done]), axis=-1)
            raise NumericalError(
                f"adaptive Simpson did not converge at depth {max_depth}",
                error_estimate=float(np.max(err_total + pending)),
            )
        # compress keeps each row contiguous, so a row sums exactly as it
        # would in a scalar run
        accepted = np.compress(done, s_left + s_right + err, axis=-1)
        total += np.sum(accepted, axis=-1)
        err_total += np.sum(np.abs(np.compress(done, err, axis=-1)), axis=-1)
        active = ~done
        if not active.any():
            break
        half = budget[active] / 2.0
        xa, xm, xb, fa, fm, fb, whole, budget = (
            np.concatenate([xa[active], xm[active]]),
            np.concatenate([lm[active], rm[active]]),
            np.concatenate([xm[active], xb[active]]),
            np.concatenate([fa[..., active], fm[..., active]], axis=-1),
            np.concatenate([flm[..., active], frm[..., active]], axis=-1),
            np.concatenate([fm[..., active], fb[..., active]], axis=-1),
            np.concatenate([s_left[..., active], s_right[..., active]], axis=-1),
            np.concatenate([half, half]),
        )
        lm = 0.5 * (xa + xm)
        rm = 0.5 * (xm + xb)
    if total.ndim == 0:
        return sign * float(total), float(err_total)
    return sign * total, err_total
