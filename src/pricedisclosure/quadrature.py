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

# Most panels one refinement level may hold. Panels that cannot meet their
# budget double every level, so without a cap an integrand that never
# converges asks for millions of abscissae before max_depth stops it. The
# largest worklist the test suite and the benchmark workloads reach is 1014
# panels (a tie-heavy list at n_new = 100000); the cap leaves 19 times that.
MAX_PANELS = 20_000


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
    ``max_depth`` bisections, or as soon as the next level's worklist would
    exceed ``MAX_PANELS``. ``min_depth`` forces that many bisection
    levels before convergence may be accepted: integrands whose mass sits
    in a narrow bump can look identically zero to the coarse probe, and
    the forced refinement keeps such bumps from being skipped over. The
    ``4 * 2**min_depth + 1`` abscissae of the forced levels are evaluated
    in one integrand call; ``2**min_depth`` may not exceed ``MAX_PANELS``.
    """
    if not 0 <= min_depth <= max_depth:
        raise ValidationError(f"need 0 <= min_depth <= max_depth, got {min_depth}, {max_depth}")
    if 2**min_depth > MAX_PANELS:
        raise ValidationError(f"min_depth {min_depth} forces more than MAX_PANELS={MAX_PANELS} panels")
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0

    # The worklist: abscissae (xa, lm, xm, rm, xb) per panel as the rows of
    # x, shape (5, panels), and the integrand there as v, shape (..., 5,
    # panels). Panels of one level share their depth, hence one budget.
    panels = 2**min_depth
    grid = np.linspace(a, b, 4 * panels + 1)
    values = np.asarray(f(grid), dtype=float)
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"integrand not finite on [{a}, {b}]")
    x = np.empty((5, panels))
    x[:4] = grid[:-1].reshape(panels, 4).T
    x[4] = grid[4::4]
    v = np.empty(values.shape[:-1] + (5, panels))
    v[..., :4, :] = np.swapaxes(values[..., :-1].reshape(values.shape[:-1] + (panels, 4)), -1, -2)
    v[..., 4, :] = values[..., 4::4]
    whole = (x[4] - x[0]) / 6.0 * (v[..., 0, :] + 4.0 * v[..., 2, :] + v[..., 4, :])
    budget = tol / panels

    total = np.zeros(values.shape[:-1])
    err_total = np.zeros(values.shape[:-1])
    for depth in range(min_depth, max_depth + 1):
        if depth > min_depth:
            mid_vals = np.asarray(f(x[1::2].ravel()), dtype=float)
            if not np.all(np.isfinite(mid_vals)):
                raise NumericalError("integrand not finite during refinement")
            v[..., 1::2, :] = mid_vals.reshape(v.shape[:-2] + (2, -1))
        # Both halves at once: row 0 is [xa, xm], row 1 is [xm, xb]
        halves = (x[2::2] - x[:3:2]) / 6.0 * (v[..., :3:2, :] + 4.0 * v[..., 1::2, :] + v[..., 2::2, :])
        pair = halves[..., 0, :] + halves[..., 1, :]
        err = (pair - whole) / 15.0
        converged = np.abs(err) <= budget
        done = converged if converged.ndim == 1 else converged.all(axis=0)
        active = ~done
        unfinished = int(np.count_nonzero(active))
        if unfinished and (depth == max_depth or 2 * unfinished > MAX_PANELS):
            pending = np.sum(np.abs(err[..., active]), axis=-1)
            raise NumericalError(
                f"adaptive Simpson did not converge at depth {depth}: {unfinished} panels "
                f"pending (max_depth {max_depth}, MAX_PANELS {MAX_PANELS})",
                error_estimate=float(np.max(err_total + pending)),
            )
        # compress keeps each row contiguous, so a row sums exactly as it
        # would in a scalar run
        accepted = np.compress(done, pair + err, axis=-1)
        total += np.sum(accepted, axis=-1)
        err_total += np.sum(np.abs(np.compress(done, err, axis=-1)), axis=-1)
        if not unfinished:
            break
        # Children, every left half before every right half: [xa, lm, xm]
        # and [xm, rm, xb] become the (xa, xm, xb) rows of the next level.
        budget /= 2.0
        whole = halves[..., active].reshape(halves.shape[:-2] + (-1,))
        x_kept = x[:, active]
        x = np.empty((5, 2 * unfinished))
        np.concatenate([x_kept[:3], x_kept[2:]], axis=1, out=x[::2])
        np.multiply(0.5, x[:3:2] + x[2::2], out=x[1::2])
        v_kept = v[..., active]
        v = np.empty(v.shape[:-1] + (2 * unfinished,))
        np.concatenate([v_kept[..., :3, :], v_kept[..., 2:, :]], axis=-1, out=v[..., ::2, :])
    if total.ndim == 0:
        return sign * float(total), float(err_total)
    return sign * total, err_total
