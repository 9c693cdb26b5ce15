"""Shared numerical kernels.

Tanh-sinh quadrature after a power substitution that removes an
integrable endpoint singularity, to a relative tolerance and for many upper
limits at once, monotone bisection on a given bracket, central differences
and compensated summation.  Everything here is pure and deterministic: the
same inputs produce bit-identical results.  The functions these take are
vectorized, ndarray in and ndarray out, so that each step evaluates all of
its points in one call.

:func:`as_floats` is the one rule for what a number from outside the package
is; every public entry that takes numbers (the family kernels, pdf weights,
family parameters and a custom family's constants, Fisher thetas and steps)
reads its input through it.
"""

from __future__ import annotations

import functools
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


# Settings of :func:`integrate`: its relative tolerance, its levels of
# nodes, and the half-width of the node range in u.  Past |u| = 4 a node's
# weight, about exp(-pi sinh 4) = 6e-38, is below every tolerance.
_RTOL = 1e-11
_LEVELS = 8
_U = 4.0
# The levels that share one call of the integrand: levels 0-3 (65 nodes),
# which every limit of the benchmark's logarithms runs, then one level a call.
# Their nodes are built once per exponent, when a call first reaches them.
_BLOCKS = ((0, 1, 2, 3),) + tuple((level,) for level in range(4, _LEVELS))


@functools.lru_cache(maxsize=64)
def _node_table(p: float, levels: tuple) -> tuple:
    """The new nodes of :func:`integrate`'s ``levels`` under the power ``p``, end to end,
    built once: each level's slice of them, h, first node and count, then w**p and
    the weight (p pi) cosh(u) (1 - w) w**p at each node, read-only."""
    h = np.array([0.5**level for level in levels])
    wps, weights = [], []
    for level, step in zip(levels, h.tolist()):
        k = np.arange(-int(_U / step), int(_U / step) + 1)
        u = step * (k if level == 0 else k[k % 2 != 0])
        z = math.pi * np.sinh(u)
        w, wc = 1.0 / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z))
        wps.append(w**p)
        # dt/du over b - a: p w^(p-1) dw/du, with dw/du = pi cosh(u) w (1 - w).
        weights.append((p * math.pi) * np.cosh(u) * wc * wps[-1])
    n = np.array([wp.size for wp in wps])
    start = np.cumsum(n) - n
    arrays = (h, start, n, np.concatenate(wps), np.concatenate(weights))
    for arr in arrays:  # every call shares them
        arr.flags.writeable = False
    return (tuple(map(slice, start.tolist(), (start + n).tolist())), *arrays)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b,
    singular_at_a: Optional[float] = None,
):
    """Integrate ``f`` over ``[a, b]``, or over each ``[a, b[i]]`` of an array ``b``.

    ``f`` maps a 1-D float ndarray to the ndarray of its values, element by
    element.  The rule is tanh-sinh (Takahasi and Mori 1974) after a power
    substitution.  ``singular_at_a = s`` in ``[0, 1)`` declares
    ``|f(t)| = O((t - a)^-s)`` near ``a``, and ``t = a + (b - a) w^(1/(1-s))``
    cancels that singularity; with no declared exponent t is linear in w.
    The nodes w = 1 / (1 + exp(-pi sinh u)), with 1 - w formed on its own so
    that no node near an end loses digits, and their weights
    pi cosh(u) w (1 - w) sit at u = k h, |u| <= 4; each level halves h.

    ``f`` is called on levels 0-3 in one call, then on one level per call,
    from node tables cached per exponent; each call takes the new nodes of
    every unfinished integral.  Each integral stops on its own test, at the
    first level l >= 1 where |I_l - I_(l-1)| plus its tail is at most 1e-11
    times the level's sum of |terms|, with that level's estimate.  So its
    bits are those of one level per call, and do not depend on which others
    share the calls.  ``f`` is never evaluated where t rounds onto ``a`` (at
    a = 0, where t underflows); the tail, the share of ``[a, t*]`` below the
    least node t* of the level, is at most |f(t*)| (t* - a) / (1 - s) under
    the declared exponent.

    Returns a float for a float ``b``, else an array of b's shape.  ``b < a``
    flips the sign, except with a declared singularity (ParamError).  Raises
    :class:`NoConvergence`, with the estimate and error of the first
    integral left, when the test fails at all 8 levels.
    """
    b = np.asarray(b, dtype=float)
    s = 0.0 if singular_at_a is None else float(singular_at_a)
    if not 0.0 <= s < 1.0:
        raise ParamError("singularity exponent must lie in [0, 1)")
    if singular_at_a is not None and np.count_nonzero(b < a):
        raise ParamError("a declared singularity at a requires a < b")
    p = 1.0 / (1.0 - s)
    span = (b - a).ravel()
    # Per integral, on [0, 1] in w: the estimate, and the sums of the terms and of their magnitudes.
    est, sums = np.zeros(span.size), np.zeros((2, span.size))
    live = np.flatnonzero(span)
    for levels in _BLOCKS:
        if not live.size:
            break
        slices, h, start, n, wp, weight = _node_table(p, levels)
        t = a + span[live, None] * wp
        kept = t != a
        values = np.zeros(t.shape)
        values[kept] = f(t[kept])
        terms = np.empty((2, *t.shape))
        np.abs(np.multiply(values, weight, out=terms[0]), out=terms[1])
        # After the sums so far, each level's sums over its own slice, then
        # added up in order: the bits of one level at a time.
        steps = np.stack([sums[:, live], *(terms[:, :, part].sum(axis=2) for part in slices)], axis=2)
        total, size = np.cumsum(steps, axis=2)[:, :, 1:]
        ests = h * total
        # The least node kept in a level is its first: |t - a| grows with u.
        # reduceat counts each level's lost nodes; on the float sums it would change their bits.
        first = np.add.reduceat(~kept, start, axis=1, dtype=int)
        at = start + np.minimum(first, n - 1)
        rows = np.arange(live.size)
        tail = np.where(first < n, p * wp[at] * np.abs(values[rows[:, None], at]), math.inf)
        err = np.abs(ests - np.concatenate((est[live, None], ests[:, :-1]), axis=1)) + tail
        # Each integral stops at its first level that passes.  A NaN error
        # does not pass, nor does level 0 (h = 1), which has no I_(l-1).
        passed = (err <= _RTOL * h * size) & (h < 1.0)
        done = passed.any(axis=1)
        est[live] = ests[rows, np.where(done, passed.argmax(axis=1), -1)]
        sums[:, live] = total[:, -1], size[:, -1]
        live, err = live[~done], err[~done, -1]
    if live.size:
        i = live[0]
        raise NoConvergence(
            f"tanh-sinh quadrature on [{a}, {a + span[i]}] missed its relative tolerance {_RTOL} in {_LEVELS} levels",
            estimate=float(span[i] * est[i]),
            error=float(abs(span[i]) * err[0]),
        )
    out = span * est
    return float(out[0]) if b.ndim == 0 else out.reshape(b.shape)


# Levels of the bisection tree that a walk evaluates per round, and its cap
# on the steps of plain bisection.
BISECT_LEVELS = 6
_MAX_STEPS = 200


def bisection_trees(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The brackets [lo[i], hi[i]] cut by ``BISECT_LEVELS`` levels of midpoints, one row each.

    Entry 0 of a row is lo and entry 2**BISECT_LEVELS is hi.  The brackets of level
    k span w = 2**(BISECT_LEVELS - k) entries, and the midpoint of the bracket from
    entry j to entry j + w sits at entry j + w // 2: it is 0.5 * (lo' + hi')
    of its own bracket, as plain bisection forms it.
    """
    size = 1 << BISECT_LEVELS
    tree = np.empty((len(lo), size + 1))
    tree[:, 0], tree[:, size] = lo, hi
    for k in range(BISECT_LEVELS):
        w = size >> k
        tree[:, w // 2 :: w] = 0.5 * (tree[:, :size:w] + tree[:, w::w])
    return tree


class BisectionWalk:
    """Plain bisection toward ``f(x) = target`` in ``[lo, hi]``, ``BISECT_LEVELS`` levels per round.

    Each round the caller evaluates f at the midpoints of the bracket's tree
    (:func:`bisection_trees`), and :meth:`descend` walks down the tree as
    one-point-at-a-time bisection would, taking its path and its exit: at
    ``|f(mid) - target| <= tol * (1 + |target|)`` (and, with ``x_rel_tol``,
    a bracket of at most that relative width), or after 200 steps.
    ``result`` is None until then.
    """

    def __init__(self, lo: float, hi: float, target: float, tol: float, x_rel_tol: Optional[float] = None):
        self.lo, self.hi, self.target = lo, hi, target
        self.f_tol, self.x_rel_tol = tol * (1.0 + abs(target)), x_rel_tol
        self.steps, self.result = 0, None

    def descend(self, tree: list, values: list) -> None:
        """Walk this round's tree; ``values[k - 1]`` is f at ``tree[k]``."""
        at = 1 << (BISECT_LEVELS - 1)
        half = at // 2
        for _ in range(BISECT_LEVELS):
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
