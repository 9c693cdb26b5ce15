"""Entropy, relative entropy and divergence functionals.

For a family with deduced logarithm ``omega`` and antiderivative drop
``g(x) = F(0) - F(x)`` (see :mod:`phientropy.families`):

- entropy            ``I(p)   = sum_k p_k omega(1/p_k) = sum_k [g(p_k) - p_k F(0)]``
- relative entropy   ``I(p|q) = -sum_k p_k omega(q_k/p_k)``  (an f-divergence)
- divergence         ``D(p|q) = sum_k [F(p_k) - F(q_k) - (p_k - q_k) ln_phi(q_k)]``
  (a Bregman divergence; for the natural logarithm it coincides with I(p|q))

All three are nonnegative, vanish exactly at ``p == q``, and ignore padded
zero weights.  Each offers a ``generic`` evaluation valid for every family
plus ``closed_form`` fast paths (shannon / tsallis / kaniadakis) used as
independent oracles in the test-suite; the two always agree to 1e-10
relative.  Sums are accumulated with compensated summation.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Pdf, _check_lengths
from .errors import FamilyError, ParamError, SupportError
from .families import LogFamily, big_f_drop, ln_phi, omega_phi
from .numerics import sum_compensated

__all__ = [
    "entropy",
    "entropy_max",
    "rel_entropy",
    "divergence",
    "bregman_f",
    "resolve_method",
]

# Family kinds with a closed form, per functional.
_CLOSED = {
    "entropy": ("shannon", "tsallis", "kaniadakis"),
    "rel_entropy": ("shannon", "tsallis", "kaniadakis"),
    "divergence": ("shannon", "tsallis"),
}


def resolve_method(fam: LogFamily, functional: str, method: str) -> str:
    """The method ``functional`` uses for ``fam`` when asked for ``method``.

    ``auto`` becomes ``closed_form`` when the family has one for that
    functional, else ``generic``; any other method is returned unchanged.
    """
    if method == "auto":
        return "closed_form" if fam.kind in _CLOSED[functional] else "generic"
    return method


def entropy(fam: LogFamily, p: Pdf, method: str = "auto") -> float:
    """Entropy ``I(p) >= 0``; zero exactly for a point mass.

    Methods: ``generic`` sums ``g(p_k) - p_k F(0)``; ``deduced_log`` sums
    ``p_k omega(1/p_k)`` literally; ``closed_form`` uses the family's power
    sums (shannon / tsallis / kaniadakis); ``auto`` prefers a closed form.
    """
    w = p.weights
    method = resolve_method(fam, "entropy", method)
    if method == "generic":
        terms = np.asarray(big_f_drop(fam, w)) - w * fam.f_zero
        return sum_compensated(terms)
    if method == "deduced_log":
        pos = w[w > 0]
        return sum_compensated(pos * np.asarray(omega_phi(fam, 1.0 / pos)))
    if method == "closed_form":
        k = fam.kappa
        if fam.kind == "shannon":
            return -sum_compensated(w * np.log(np.where(w > 0, w, 1.0)))
        if fam.kind == "tsallis":
            return (1.0 - sum_compensated(w ** (1.0 + k))) / k
        if fam.kind == "kaniadakis":
            hi = sum_compensated(w ** (1.0 + k))
            lo = sum_compensated(w ** (1.0 - k))
            return (1.0 - hi) / (2.0 * k * (1.0 + k)) + (lo - 1.0) / (2.0 * k * (1.0 - k))
        raise FamilyError(f"no closed-form entropy for kind {fam.kind!r}")
    raise ParamError(f"unknown entropy method {method!r}")


def entropy_max(fam: LogFamily, n: int) -> float:
    """Maximal entropy over pdfs supported on ``n`` states: ``omega(n)``.

    Attained by the uniform distribution.
    """
    if n < 1:
        raise ParamError("n must be at least 1")
    return float(np.asarray(omega_phi(fam, float(n))))


def rel_entropy(fam: LogFamily, p: Pdf, q: Pdf, method: str = "auto") -> float:
    """Relative entropy ``I(p|q) = -sum_k p_k omega(q_k/p_k)``.

    Requires ``q_k > 0`` wherever ``p_k > 0`` unless the family's ``omega``
    has a finite limit at 0 (tsallis with negative kappa, kappa_maxwell);
    otherwise raises :class:`SupportError`.  Methods: ``omega`` (the
    definition, default generic route), ``integral`` (the equivalent
    antiderivative form ``sum_k q_k F(p_k/q_k)``), ``closed_form``, ``auto``.
    """
    _check_lengths(p, q)
    pw, qw = p.weights, q.weights
    if np.any((pw > 0) & (qw == 0)) and not fam.omega_at_zero_finite:
        raise SupportError(f"q has zero weight where p does not, and omega diverges at 0 for family {fam.label}")
    method = resolve_method(fam, "rel_entropy", method)
    if method in ("generic", "omega"):
        both = (pw > 0) & (qw > 0)
        pp, qq = pw[both], qw[both]
        terms = -pp * np.asarray(omega_phi(fam, qq / pp))
        total = sum_compensated(terms)
        bare = (pw > 0) & (qw == 0)
        if np.any(bare):
            total += -fam.omega_at_zero * sum_compensated(pw[bare])
        return total
    if method == "integral":
        pos = qw > 0
        pp, qq = pw[pos], qw[pos]
        terms = qq * (fam.f_zero - np.asarray(big_f_drop(fam, pp / qq)))
        total = sum_compensated(terms)
        bare = (pw > 0) & (qw == 0)
        if np.any(bare):
            total += fam.ln_sup * sum_compensated(pw[bare])
        return total
    if method == "closed_form":
        return _rel_entropy_closed(fam, pw, qw)
    raise ParamError(f"unknown rel_entropy method {method!r}")


def _rel_entropy_closed(fam: LogFamily, pw: np.ndarray, qw: np.ndarray) -> float:
    k = fam.kappa
    pos = pw > 0
    pp = pw[pos]
    qq = qw[pos]
    if fam.kind == "shannon":
        return sum_compensated(pp * np.log(pp / qq))
    if fam.kind == "tsallis":
        ratio = np.where(qq > 0, pp / np.where(qq > 0, qq, 1.0), math.inf)
        if k > 0:
            terms = pp * (ratio**k - 1.0)
        else:
            terms = pp * np.where(np.isinf(ratio), -1.0, ratio**k - 1.0)
        return sum_compensated(terms) / k
    if fam.kind == "kaniadakis":
        a = sum_compensated(qq**k * pp ** (1.0 - k))
        b = sum_compensated(qq**-k * pp ** (1.0 + k))
        return (
            1.0 / (1.0 - k * k)
            - a / (2.0 * k * (1.0 - k))
            + b / (2.0 * k * (1.0 + k))
        )
    raise FamilyError(f"no closed-form relative entropy for kind {fam.kind!r}")


def divergence(fam: LogFamily, p: Pdf, q: Pdf, method: str = "auto") -> float:
    """Bregman divergence ``D(p|q) = sum_k [F(p_k) - F(q_k) - (p_k - q_k) ln_phi(q_k)]``.

    Measures how far the tangent of ``F`` at ``q_k`` undercuts ``F`` at
    ``p_k``; satisfies ``D(p|q) = I(q) - I(p) - sum (p_k - q_k) ln_phi(q_k)``.
    ``q_k = 0`` entries are admitted only when ``ln_phi`` has a finite limit
    at 0 (tsallis with positive kappa, sqrt_log); otherwise
    :class:`SupportError`.  Coincides with :func:`rel_entropy` for shannon.
    """
    _check_lengths(p, q)
    pw, qw = p.weights, q.weights
    touched = (qw == 0) & (pw != qw)
    if np.any(touched) and not math.isfinite(fam.ln_at_zero):
        raise SupportError(
            f"ln_phi diverges at 0 for family {fam.label}, but q has zero "
            "weight where p differs"
        )
    method = resolve_method(fam, "divergence", method)
    if method == "generic":
        pos = qw > 0
        pp, qq = pw[pos], qw[pos]
        gq = np.asarray(big_f_drop(fam, qq))
        gp = np.asarray(big_f_drop(fam, pp))
        terms = gq - gp - (pp - qq) * np.asarray(ln_phi(fam, qq))
        total = sum_compensated(terms)
        if np.any(touched):
            bare_p = pw[touched]
            total += sum_compensated(
                -np.asarray(big_f_drop(fam, bare_p)) - bare_p * fam.ln_at_zero
            )
        return total
    if method == "closed_form":
        k = fam.kappa
        if fam.kind == "shannon":
            return _rel_entropy_closed(fam, pw, qw)
        if fam.kind == "tsallis":
            first = sum_compensated(pw * (pw**k - qw**k)) / k
            second = sum_compensated((pw - qw) * qw**k)
            return first - second
        raise FamilyError(f"no closed-form divergence for kind {fam.kind!r}")
    raise ParamError(f"unknown divergence method {method!r}")


def bregman_f(fam: LogFamily, x) -> float | np.ndarray:
    """Convex generator ``f(x) = F(x) - (1 - x) F(0)`` with f(0) = f(1) = 0.

    The entropy is ``-sum_k f(p_k)`` and both relative entropies are the
    f-divergence resp. Bregman divergence built from this ``f``.  A free
    energy relative to ``q`` needs no operation of its own: it is
    ``-sum_k p_k ln_phi(q_k) - I(p)``, per the divergence identity.
    """
    arr = np.asarray(x, dtype=float)
    out = fam.f_zero * arr - np.asarray(big_f_drop(fam, arr))
    return float(out) if np.ndim(x) == 0 else out
