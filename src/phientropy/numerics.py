"""Shared numerical kernels.

Adaptive Simpson quadrature (with geometric grading toward an integrable
endpoint singularity), monotone bisection on a given bracket, central
differences and compensated summation.  Everything here is pure and deterministic: the same
inputs produce bit-identical results.  The functions these take are
vectorized, ndarray in and ndarray out, so that each step evaluates all of
its points in one call.

:func:`as_floats` is the one rule for what a number from outside the package
is; every public entry that takes numbers (the family kernels, pdf weights,
family parameters and a custom family's constants, Fisher thetas and steps)
reads its input through it.
"""

from __future__ import annotations

import itertools
import math
import numbers
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import BracketError, NoConvergence, ParamError

__all__ = [
    "as_floats",
    "integrate",
    "bisect_monotone",
    "central_diff",
    "richardson_diff",
    "sum_compensated",
]


def as_floats(x, error: type, what: str) -> np.ndarray:
    """``x`` as a float ndarray, or ``error`` unless np.asarray gives it an integer or float dtype.

    So text that ``float()`` would parse, bytes, bools, complex numbers,
    other objects and ragged sequences are refused, with a message that
    names ``what``.  Real numbers that np.asarray keeps as objects (Python
    ints past 2**64, fractions) count too, and are refused only past the
    float range.
    """
    try:
        arr = np.asarray(x)
        if arr.dtype.kind == "O" and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in arr.flat):
            arr = arr.astype(float)
    except (ValueError, OverflowError):  # a ragged sequence, or an int past the float range
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise error(f"{what}: expected integer or float numbers, got {arr.dtype}")
    return arr.astype(float, copy=False)


# Quadrature settings of :func:`integrate`: the absolute tolerance, the
# recursion depth of adaptive Simpson, and the factor by which panel widths
# shrink toward a declared endpoint singularity.
_ABS_TOL = 1e-11
_MAX_DEPTH = 40
_GRADING_RATIO = 0.5


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    """Recursive Simpson with the |S_fine - S_coarse|/15 error estimate; each
    node evaluates its two new points in one call of ``f``."""
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(np.array([lm, rm])).tolist()
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol or depth >= _MAX_DEPTH:
        if depth >= _MAX_DEPTH and abs(err) > 15.0 * tol:
            raise NoConvergence(
                f"adaptive Simpson hit max depth {_MAX_DEPTH} on [{a}, {b}]",
                estimate=left + right + err / 15.0,
                error=abs(err) / 15.0,
            )
        return left + right + err / 15.0
    half = 0.5 * tol
    return _adaptive_simpson(
        f, a, m, fa, flm, fm, left, half, depth + 1
    ) + _adaptive_simpson(f, m, b, fm, frm, fb, right, half, depth + 1)


def _simpson_panel(f, a, b, tol):
    m = 0.5 * (a + b)
    fa, fm, fb = f(np.array([a, m, b])).tolist()
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, 0)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    singular_at_a: Optional[float] = None,
) -> float:
    """Integrate ``f`` over ``[a, b]``.

    ``f`` maps a float ndarray to the ndarray of its values, element by
    element.  A Simpson panel evaluates its ends and midpoint in one call,
    and each refinement its two new points in one call; the nodes, sums and
    error tests are those of one point at a time, so the result is the same.

    If ``singular_at_a`` is given it declares that ``|f(x)| = O((x-a)^-s)``
    near ``a`` with exponent ``s = singular_at_a`` in ``[0, 1)``.  The
    integrand is then never evaluated at ``a``: a geometrically graded mesh
    approaches the endpoint and the remaining tail is extrapolated from the
    declared exponent (panel integrals of an ``(x-a)^-s`` integrand shrink by
    ``0.5**(1-s)`` per level, so the tail is a geometric series).

    ``b < a`` flips the sign, except with a declared singularity (ParamError).
    Raises :class:`NoConvergence` when the absolute tolerance 1e-11 cannot be
    certified.
    """
    if a == b:
        return 0.0
    if b < a:
        if singular_at_a is not None:
            raise ParamError("a declared singularity at a requires a < b")
        return -integrate(f, b, a)
    if singular_at_a is None:
        return _simpson_panel(f, a, b, _ABS_TOL)

    s = float(singular_at_a)
    if not 0.0 <= s < 1.0:
        raise ParamError("singularity exponent must lie in [0, 1)")

    r = _GRADING_RATIO
    graded = 0.1 * (b - a)
    smooth = 0.0
    if b > a + graded:
        smooth = _simpson_panel(f, a + graded, b, 0.25 * _ABS_TOL)

    # Geometric decay rate of panel integrals for the declared singularity;
    # the per-panel tolerance budget is split at the same rate so deep panels
    # are not asked for more relative accuracy than shallow ones.
    q = r ** (1.0 - s)
    tail_factor = q / (1.0 - q)
    stop = 0.25 * _ABS_TOL / max(tail_factor, 1.0)

    total = 0.0
    budget = 0.25 * _ABS_TOL * (1.0 - q)
    hi = a + graded
    last = math.inf
    # r**k underflows to 0 by k = 1075, so the mesh always runs out.
    for k in itertools.count(1):
        lo = a + graded * r**k
        if lo >= hi or lo <= a:
            raise NoConvergence(
                "graded mesh exhausted floating-point resolution",
                estimate=smooth + total,
                error=abs(last) * tail_factor,
            )
        last = _simpson_panel(f, lo, hi, budget * q ** (k - 1))
        total += last
        hi = lo
        if abs(last) <= stop:
            return smooth + total + last * tail_factor


# Levels of the bisection tree that a walk evaluates per round, and its cap
# on the steps of plain bisection.
BISECT_LEVELS = 6
_MAX_STEPS = 200


def bisection_trees(lo: np.ndarray, hi: np.ndarray, levels: int = BISECT_LEVELS) -> np.ndarray:
    """The brackets [lo[i], hi[i]] cut by ``levels`` levels of midpoints, one row each.

    Entry 0 of a row is lo and entry 2**levels is hi.  The brackets of level
    k span w = 2**(levels - k) entries, and the midpoint of the bracket from
    entry j to entry j + w sits at entry j + w // 2: it is 0.5 * (lo' + hi')
    of its own bracket, as plain bisection forms it.
    """
    size = 1 << levels
    tree = np.empty((len(lo), size + 1))
    tree[:, 0], tree[:, size] = lo, hi
    for k in range(levels):
        w = size >> k
        tree[:, w // 2 :: w] = 0.5 * (tree[:, :size:w] + tree[:, w::w])
    return tree


class BisectionWalk:
    """Plain bisection toward ``f(x) = target`` in ``[lo, hi]``, ``levels`` levels per round.

    Each round the caller evaluates f at the midpoints of the bracket's tree
    (:func:`bisection_trees`), and :meth:`descend` walks down the tree as
    one-point-at-a-time bisection would, taking its path and its exit: at
    ``|f(mid) - target| <= tol * (1 + |target|)`` (and, with ``x_rel_tol``,
    a bracket of at most that relative width), or after 200 steps.
    ``result`` is None until then.
    """

    def __init__(self, lo: float, hi: float, target: float, tol: float,
                 x_rel_tol: Optional[float] = None, levels: int = BISECT_LEVELS):
        self.lo, self.hi, self.target, self.levels = lo, hi, target, levels
        self.f_tol, self.x_rel_tol = tol * (1.0 + abs(target)), x_rel_tol
        self.steps, self.result = 0, None

    def descend(self, tree: list, values: list) -> None:
        """Walk this round's tree; ``values[k - 1]`` is f at ``tree[k]``."""
        at = 1 << (self.levels - 1)
        half = at // 2
        for _ in range(self.levels):
            mid, fm = tree[at], values[at - 1]
            self.steps += 1
            converged = abs(fm - self.target) <= self.f_tol and (
                self.x_rel_tol is None or self.hi - self.lo <= self.x_rel_tol * max(1.0, abs(mid))
            )
            if converged or self.steps == _MAX_STEPS:
                self.result = mid
                return
            if fm < self.target:
                self.lo, at = mid, at + half
            else:
                self.hi, at = mid, at - half
            half //= 2


def bisect_monotone(
    f: Callable[[np.ndarray], np.ndarray],
    target: float,
    lo: float,
    hi: float,
    tol: float = 1e-12,
    x_rel_tol: Optional[float] = None,
) -> float:
    """Solve ``f(x) = target`` for a strictly increasing, vectorized ``f`` on the bracket ``[lo, hi]``.

    Raises :class:`BracketError` unless ``f(lo) <= target <= f(hi)``, so a
    reversed bracket is refused too.  Returns ``x`` with
    ``|f(x) - target| <= tol * (1 + |target|)``; when ``x_rel_tol`` is given
    the bracket is additionally narrowed to that relative width.

    ``f`` maps a float ndarray to the ndarray of its values, element by
    element.  Each call evaluates the next six levels of the bisection tree,
    63 midpoints, and the walk down the tree (:class:`BisectionWalk`) takes
    the path, and the exit, of plain one-point-at-a-time bisection, so the
    result is the same.
    """
    flo, fhi = f(np.array([lo, hi], dtype=float)).tolist()
    if not flo <= target:
        raise BracketError(f"target {target} below reachable range of f")
    if not fhi >= target:
        raise BracketError(f"target {target} above reachable range of f")

    walk = BisectionWalk(lo, hi, target, tol, x_rel_tol)
    while walk.result is None:
        tree = bisection_trees([walk.lo], [walk.hi])[0]
        walk.descend(tree.tolist(), f(tree[1:-1]).tolist())
    return walk.result


def central_diff(f: Callable[[np.ndarray], np.ndarray], x, h):
    """Two-point central difference ``(f(x+h) - f(x-h)) / 2h``, elementwise on arrays."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def richardson_diff(f: Callable[[np.ndarray], np.ndarray], x, h) -> np.ndarray:
    """Central difference with one Richardson extrapolation step (O(h^4)),
    elementwise on arrays."""
    d1 = central_diff(f, x, h)
    d2 = central_diff(f, x, 0.5 * h)
    # A derivative past DBL_MAX: d1 is inf, and (4 d2 - d1) / 3 would be NaN
    # (or -inf where d2 is finite).  The finer difference stands in, and d1
    # is zeroed there first, so that no NaN is formed.
    past = np.isinf(d1)
    return np.where(past, d2, (4.0 * d2 - np.where(past, 0.0, d1)) / 3.0)


def sum_compensated(values: Iterable[float]) -> float:
    """Compensated sum of ``values``.

    Delegates to :func:`math.fsum`, which tracks all intermediate partials
    and returns the correctly rounded sum; the error is bounded by one ulp
    of the result, far inside the ``2 * eps * sum(|v|)`` contract this
    package relies on.  Accepts any iterable; ndarrays are summed over all
    elements.
    """
    if isinstance(values, np.ndarray):
        return math.fsum(values.tolist())
    return math.fsum(values)
