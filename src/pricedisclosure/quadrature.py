"""Adaptive Gauss-Kronrod (G7/K15) integration, vectorized over the panels.

Each panel is sampled at the 15 Kronrod nodes, of which the odd-numbered
seven are the Gauss nodes: the K15 sum is the panel's value and
``|K15 - G7|`` its error estimate (QUADPACK's QAG strategy, Piessens et al.
1983). The integrand must map a numpy array of abscissae to an array of
values; every panel of one refinement level is evaluated in a single
integrand call, which keeps per-integral overhead low when the integrand
itself is vectorized numpy. The nodes are interior, so the integrand is
never evaluated at the interval's ends. The first level's panels are
given by ``panels``, as ``np.histogram`` takes its ``bins``: a count of
equal panels, or the edges themselves, so a caller that knows where its
integrand changes fastest can start with narrow panels there and wide
ones elsewhere.

An integrand may also return several rows at once, shape ``(m, k)`` for
``k`` abscissae: every row is integrated over the same abscissae, and a
panel is accepted only when all rows have converged on it. Integrals that
share their expensive ingredients then cost one pass instead of ``m``, and
each row may have its own tolerance.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import NumericalError, ValidationError

Integrand = Callable[[np.ndarray], np.ndarray]

# Absolute tolerance of an integral, and of each row of one.
TOL = 1e-8

# Most panels one refinement level may hold. Panels that cannot meet their
# budget double every level, so without a cap an integrand that never
# converges asks for millions of abscissae before max_depth stops it. A lone
# critical_cost integral starts from at most 32 panels; a KDE sweep
# integrated together starts from more, one segment per q, in runs that
# search._runs cuts before their rows times 15 starting abscissae pass
# KDE_BLOCK_DOUBLES. Outside the tests of this module, the largest starting
# worklist the test suite reaches is 52 panels, a sweep over 8 q values of
# one bundled list in one run, and a 2001-point sweep of q on the printer
# list starts its 69 runs from at most 36. The benchmark workloads start
# from at most 32 and hold no level above 32. The largest level, 2424
# panels, is a parametric integral that fails at max_depth; the cap leaves
# 8 times that.
MAX_PANELS = 20_000

# The 15 Kronrod nodes on [-1, 1] in ascending order and their weights; the
# nodes at odd positions are the 7 Gauss-Legendre nodes, with _GAUSS_WEIGHTS.
_HALF_NODES = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_HALF_KRONROD = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_NODES = np.concatenate([-_HALF_NODES, [0.0], _HALF_NODES[::-1]])
_KRONROD_WEIGHTS = np.concatenate([_HALF_KRONROD, [0.209482141084727828012999174891714], _HALF_KRONROD[::-1]])
_GAUSS_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def _linspace(a: float, b: float, panels: int) -> np.ndarray:
    """``np.linspace(a, b, panels + 1)`` by its own arithmetic, without its
    per-call cost."""
    delta = b - a
    step = delta / panels
    edges = np.arange(panels + 1.0)
    if step == 0:  # a subnormal width: np.linspace scales the other way round
        edges /= panels
        edges *= delta
    else:
        edges *= step
    edges += a
    edges[-1] = b
    return edges


def adaptive_gauss_kronrod(
    f: Integrand,
    a: float,
    b: float,
    *,
    tol: float | np.ndarray = TOL,
    max_depth: int = 40,
    panels: int | np.ndarray = 1,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Returns ``(value, error_estimate)``, the summed K15 values and
    ``|K15 - G7|`` of the accepted panels: floats for an integrand returning
    shape ``(k,)``, arrays of length ``m`` for one returning ``(m, k)``, and
    ``(0.0, 0.0)`` for an empty interval, where ``f`` is never called.
    ``panels`` is the start, like ``np.histogram``'s ``bins``: a count of
    equal panels, or an increasing array of edges from ``a`` to ``b`` (a
    repeated edge makes an empty panel). Each starting panel has the budget
    ``tol / panels`` in each row, ``panels`` being the count; a panel that
    misses its budget in any row is halved, and so are the budgets.
    Integrands whose mass sits in a narrow bump can look identically zero
    to one coarse panel, so a caller that knows the width of its
    integrand's features starts with panels no wider than a few of them,
    or with edges closer together where the integrand changes fastest. The
    ``15 * panels`` starting abscissae are evaluated in one integrand call;
    ``panels`` may not exceed ``MAX_PANELS``, and is validated before that
    call. Raises :class:`NumericalError` on a non-finite integrand value,
    if any panel fails to converge within ``max_depth`` halvings, or as
    soon as the next level's worklist would exceed ``MAX_PANELS``.
    """
    if np.ndim(panels) == 0:
        if not 1 <= panels <= MAX_PANELS:
            raise ValidationError(f"need 1 <= panels <= MAX_PANELS={MAX_PANELS}, got {panels}")
        edges = None
    else:
        edges = np.array(panels, dtype=float)
        if not (edges.ndim == 1 and 2 <= edges.size <= MAX_PANELS + 1):
            raise ValidationError(f"need 1 to MAX_PANELS={MAX_PANELS} panels of edges, got shape {edges.shape}")
        if edges[0] != a or edges[-1] != b or not np.all(edges[1:] >= edges[:-1]):
            raise ValidationError(f"panel edges must increase from a={a} to b={b}, got {edges}")
        panels = edges.size - 1
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0

    # The worklist: each panel's ends. Panels of one level share their
    # depth, hence one budget (per row, for a column of tolerances).
    if edges is None:
        edges = _linspace(a, b, panels)
    lo, hi = edges[:-1], edges[1:]
    budget = tol / panels
    total = err_total = 0.0
    for depth in range(max_depth + 1):
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x = center[:, None] + half[:, None] * _NODES
        values = np.asarray(f(x.ravel()), dtype=float)
        if not np.all(np.isfinite(values)):
            raise NumericalError(f"integrand not finite on [{a}, {b}] at depth {depth}")
        # (..., panels, 15): each panel's nodes are contiguous, so a row
        # reduces exactly as it would in a scalar run
        v = values.reshape(values.shape[:-1] + x.shape)
        kronrod = half * np.add.reduce(v * _KRONROD_WEIGHTS, axis=-1)
        err = np.abs(kronrod - half * np.add.reduce(v[..., 1::2] * _GAUSS_WEIGHTS, axis=-1))
        converged = err <= budget
        done = converged if converged.ndim == 1 else converged.all(axis=0)
        if done.all():  # the whole level, as the first level usually is
            total = total + np.add.reduce(kronrod, axis=-1)
            err_total = err_total + np.add.reduce(err, axis=-1)
            break
        active = ~done
        unfinished = int(np.count_nonzero(active))
        if depth == max_depth or 2 * unfinished > MAX_PANELS:
            pending = np.add.reduce(err[..., active], axis=-1)
            raise NumericalError(
                f"adaptive Gauss-Kronrod did not converge at depth {depth}: {unfinished} panels "
                f"pending (max_depth {max_depth}, MAX_PANELS {MAX_PANELS})",
                error_estimate=float(np.max(err_total + pending)),
            )
        total = total + np.add.reduce(np.compress(done, kronrod, axis=-1), axis=-1)
        err_total = err_total + np.add.reduce(np.compress(done, err, axis=-1), axis=-1)
        # Children, every left half before every right half.
        budget /= 2.0
        mid = center[active]
        lo, hi = np.concatenate([lo[active], mid]), np.concatenate([mid, hi[active]])
    if np.ndim(total) == 0:
        return sign * float(total), float(err_total)
    return sign * total, err_total


# A second name for the same function: perfbench/spans.py binds its quadrature span to it.
adaptive_simpson = adaptive_gauss_kronrod
