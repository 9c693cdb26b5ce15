"""Distance functions, inequality checks and the stability scan.

Each ``check_*`` function evaluates one proven inequality on concrete
inputs and returns a :class:`BoundReport` with the two sides, their ratio
and a scale-aware pass flag.  The inequalities are theorems, so ``holds``
must come back true on every valid input; a violation beyond tolerance
indicates an implementation bug, which is exactly what
:func:`stability_scan` hunts for with randomized and hill-climbed inputs.

One ordered table, :data:`CHECKS`, decides which inequalities apply to an
input and evaluates them: :func:`run_bound_checks` (the ``bounds`` command)
and :func:`stability_scan` both walk it, and the ``check_*`` functions are
thin wrappers over its evaluators.  Every row reads one per-input context
that validates the pdfs once and computes the quantities the inequalities
share (tv, I(p), I(q), d(p, q), I(p sym q), ...) at most once.

Tolerance policy (uniform across all checks): an inequality ``lhs <= rhs``
holds when ``lhs <= rhs + 1e-10 * (1 + |rhs|)``.

Bound identifiers
-----------------
- ``cont1``: |I(p) - I(q)| <= d(p, q), the entropy-difference metric bound.
- ``relent_I`` / ``relent_D``: |I(p|r) - I(q|r)| <= d + h_r and
  |D(p|r) - D(q|r)| <= d + e_r.
- ``improved``: the factorized bound (g(tv)/F(0)) * (F(0) + I(p sym q))
  valid for tv <= 1; coincides with ``cont1`` at tv = 1.
- ``lb``: the constant lower bound -F(0) - ln_phi(1/2) <= I(p sym q).
- ``cont2``: |I(p) - I(q)| <= tv * [F(0) + omega(N / tv)].
- ``lesche3`` (tsallis), ``lesche4`` / ``fannes`` (shannon): the classical
  stability estimates with the N-dependence made explicit through
  I_max(N) = omega(N).
- ``condition1_segment``: uniform continuity along the segment between two
  pdfs, with the constructive radius from :func:`condition1_delta`.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .distributions import Pdf, sample_neighbor, sample_sparse, sample_uniform
from .errors import (
    DomainError,
    FamilyError,
    IdenticalPdfs,
    InfeasibleEpsilon,
    LengthMismatch,
    ParamError,
    RangeError,
    SupportError,
)
from .families import (
    LogFamily,
    big_f_drop,
    big_f_drop_unchecked,
    family_to_json,
    kappa_maxwell,
    kaniadakis,
    ln_phi_unchecked,
    piecewise_linear,
    shannon,
    sqrt_log,
    tsallis,
)
from .numerics import bisect_monotone, sum_compensated

__all__ = [
    "TOL_SCALE",
    "BOUND_IDS",
    "CHECKS",
    "Check",
    "BoundReport",
    "ScanConfig",
    "ScanReport",
    "metric_d",
    "metric_d_capped",
    "h_r",
    "e_r",
    "check_cont1",
    "check_relent",
    "check_improved",
    "check_lb",
    "check_cont2",
    "check_lesche3",
    "check_lesche4",
    "check_fannes",
    "condition1_delta",
    "check_condition1_segment",
    "run_bound_checks",
    "entropy_min_half",
    "stability_scan",
    "default_family_grid",
]

TOL_SCALE = 1e-10

# Every bound, in the order the check table evaluates and reports them.
BOUND_IDS = (
    "cont1",
    "lb",
    "cont2",
    "improved",
    "lesche3",
    "lesche4",
    "fannes",
    "relent_I",
    "relent_D",
    "condition1_segment",
)


@dataclass(frozen=True)
class BoundReport:
    """One inequality evaluated on one input.

    ``ratio`` is lhs/rhs when rhs > 0, else None.  ``inputs_digest`` is a
    deterministic token over (bound id, family, inputs, parameters): equal
    inputs give equal digests, so scan witnesses can be replayed and matched.
    """

    bound_id: str
    lhs: float
    rhs: float
    ratio: Optional[float]
    holds: bool
    tol: float
    inputs_digest: str

    def to_json(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "holds": self.holds,
            "tol": self.tol,
            "inputs_digest": self.inputs_digest,
        }


def _family_key(fam: LogFamily) -> bytes:
    if fam.kind == "custom":
        return f"custom:s={fam.singularity_exponent!r}:f0={fam.f_zero!r}".encode()
    return json.dumps(family_to_json(fam), sort_keys=True).encode()


def _digest(bound_id: str, fam: LogFamily, p: Pdf, q: Pdf, r: Pdf | None = None, params: tuple = ()) -> str:
    h = hashlib.sha256()
    h.update(bound_id.encode())
    h.update(b"|")
    h.update(_family_key(fam))
    h.update(b"|")
    h.update(p.weights.tobytes())
    h.update(b"|")
    h.update(q.weights.tobytes())
    if r is not None:
        h.update(b"|")
        h.update(r.weights.tobytes())
    for v in params:
        h.update(struct.pack("<d", v))
    return h.hexdigest()[:16]


def _tol(rhs) -> float:
    return TOL_SCALE * (1.0 + abs(rhs))


def _report(bound_id, lhs, rhs, digest) -> BoundReport:
    tol = _tol(rhs)
    ratio = lhs / rhs if rhs > 0 else None
    return BoundReport(
        bound_id=bound_id,
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=None if ratio is None else float(ratio),
        holds=bool(lhs <= rhs + tol),
        tol=tol,
        inputs_digest=digest,
    )


def _lengths(p: Pdf, q: Pdf):
    if p.n != q.n:
        raise LengthMismatch(f"lengths differ: {p.n} vs {q.n}; pad first")


# ---------------------------------------------------------------------------
# per-input context


def _entropy(fam: LogFamily, w: np.ndarray) -> float:
    """``entropy(fam, Pdf(w), "generic")`` on weights already validated."""
    return sum_compensated(big_f_drop_unchecked(fam, w) - w * fam.f_zero)


def _omega(fam: LogFamily, x: float) -> float:
    """``omega_phi(fam, x)`` for one scalar ``x``, with the same arithmetic."""
    if not 0.0 < x < math.inf:
        raise DomainError("omega_phi requires finite x > 0")
    arr = np.asarray(x, dtype=float)
    return float(arr * big_f_drop_unchecked(fam, np.asarray(1.0 / arr)) - fam.f_zero)


def _require_finite(*arrays: np.ndarray):
    for a in arrays:
        if not np.isfinite(a).all():
            raise DomainError("reference weight too small: a ratio to r overflows")


class _Trial:
    """One input of the check table: validated once, shared values cached.

    The constructor checks equal lengths and finite, nonnegative weights of
    p, q and r; everything after it calls the unchecked family kernels.
    Each value the inequalities share is computed on first use and then
    kept, with the arithmetic of the public function it stands for.
    ``segment`` holds (lam, mu, epsilon) for the segment check, or None.
    """

    def __init__(self, fam: LogFamily, p: Pdf, q: Pdf, r: Pdf | None = None, segment=None):
        _lengths(p, q)
        if r is None:
            w = np.concatenate((p.weights, q.weights))
        else:
            _lengths(p, r)
            w = np.concatenate((p.weights, q.weights, r.weights))
        if not (w.min() >= 0.0 and w.max() < math.inf):
            raise DomainError("pdf weights must be finite and nonnegative")
        self.fam, self.p, self.q, self.r = fam, p, q, r
        self.segment = segment
        self.diff = np.abs(p.weights - q.weights)
        self.tv = sum_compensated(self.diff)

    @cached_property
    def ent_p(self) -> float:
        return _entropy(self.fam, self.p.weights)

    @cached_property
    def ent_q(self) -> float:
        return _entropy(self.fam, self.q.weights)

    @cached_property
    def gap(self) -> float:
        """|I(p) - I(q)|, the left side of every entropy-difference bound."""
        return abs(self.ent_p - self.ent_q)

    @cached_property
    def d(self) -> float:
        return sum_compensated(big_f_drop_unchecked(self.fam, self.diff))

    @cached_property
    def ent_sym(self) -> float:
        """I(p sym q); the symmetric difference is ``diff / tv``."""
        return _entropy(self.fam, self.diff / self.tv)

    @cached_property
    def i_max(self) -> float:
        return _omega(self.fam, float(self.diff.size))

    # -- the reference r

    @cached_property
    def bare(self) -> np.ndarray:
        """Coordinates where p and q differ and r vanishes."""
        return (self.p.weights != self.q.weights) & (self.r.weights == 0)

    @cached_property
    def any_bare(self) -> bool:
        return bool(np.any(self.bare))

    @cached_property
    def bare_mass(self) -> float:
        return sum_compensated(self.p.weights[self.bare] - self.q.weights[self.bare])

    @cached_property
    def relent_supported(self) -> bool:
        """Both relative-entropy bounds need finite limits at bare coordinates."""
        fam = self.fam
        return not self.any_bare or (
            fam.omega_at_zero_finite and math.isfinite(fam.ln_at_zero)
        )

    @cached_property
    def r_pos(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pos = self.r.weights > 0
        return self.p.weights[pos], self.q.weights[pos], self.r.weights[pos]

    def _r_weighted(self, invert: bool) -> float:
        # Where p and q differ, bare coordinates and r > 0 partition the
        # support of diff (x - y == 0 exactly when x == y in floating point).
        fam, diff, rw = self.fam, self.diff, self.r.weights
        limit = fam.ln_sup if invert else fam.ln_at_zero
        if self.any_bare and not math.isfinite(limit):
            raise SupportError("r has zero weight where p and q differ")
        pos = (diff > 0) & (rw > 0)
        if invert:
            x = 1.0 / rw[pos]
            _require_finite(x)
        else:
            x = rw[pos]
        total = sum_compensated(diff[pos] * ln_phi_unchecked(fam, x))
        if self.any_bare:
            total += limit * sum_compensated(diff[self.bare])
        return total if invert else -total

    @cached_property
    def h_r(self) -> float:
        return self._r_weighted(invert=True)

    @cached_property
    def e_r(self) -> float:
        return self._r_weighted(invert=False)


# ---------------------------------------------------------------------------
# distances


def metric_d(fam: LogFamily, p: Pdf, q: Pdf) -> float:
    """The entropy-continuity metric ``d(p,q) = sum_k [F(0) - F(|p_k - q_k|)]``.

    Symmetric, zero exactly at p = q, and satisfies the triangle inequality;
    finite for all finite-support inputs.
    """
    _lengths(p, q)
    return sum_compensated(np.asarray(big_f_drop(fam, np.abs(p.weights - q.weights))))


def metric_d_capped(fam: LogFamily, p: Pdf, q: Pdf, cap: float) -> float:
    """``min(d(p, q), cap)``; still a metric, same topology as ``d``."""
    if not cap > 0:
        raise ParamError("cap must be positive")
    return min(metric_d(fam, p, q), cap)


def h_r(fam: LogFamily, p: Pdf, q: Pdf, r: Pdf) -> float:
    """Reference-weighted distance ``sum_k |p_k - q_k| ln_phi(1 / r_k)``.

    Nonnegative since ``r_k <= 1``; a metric in (p, q) for fixed r.
    """
    return _Trial(fam, p, q, r).h_r


def e_r(fam: LogFamily, p: Pdf, q: Pdf, r: Pdf) -> float:
    """Companion distance ``-sum_k |p_k - q_k| ln_phi(r_k)``.

    Coincides with :func:`h_r` for the natural logarithm.
    """
    return _Trial(fam, p, q, r).e_r


# ---------------------------------------------------------------------------
# the check table
#
# A precondition returns None when its check applies, _NOT_APPLICABLE when
# the check does not concern the input (wrong family, no reference, no
# segment), or a skip reason, which ``run_bound_checks`` lists as skipped.

_NOT_APPLICABLE = "not applicable"
_SUPPORT = "r vanishes where p and q differ"


def _pre_always(t: _Trial) -> Optional[str]:
    return None


def _pre_distinct(t: _Trial) -> Optional[str]:
    return None if t.tv > 0 else "identical pdfs"


def _pre_improved(t: _Trial) -> Optional[str]:
    if t.tv == 0:
        return "identical pdfs"
    return "tv > 1" if t.tv > 1.0 else None


def _pre_lesche3(t: _Trial) -> Optional[str]:
    return None if t.fam.kind == "tsallis" else _NOT_APPLICABLE


def _pre_lesche4(t: _Trial) -> Optional[str]:
    return None if t.fam.kind == "shannon" else _NOT_APPLICABLE


def _pre_fannes(t: _Trial) -> Optional[str]:
    if t.fam.kind != "shannon":
        return _NOT_APPLICABLE
    return "tv > 1/3" if t.tv > 1.0 / 3.0 else None


def _pre_relent(t: _Trial) -> Optional[str]:
    if t.r is None:
        return _NOT_APPLICABLE
    return None if t.relent_supported else _SUPPORT


def _check_mix_weights(lam: float, mu: float):
    if not (0.0 <= lam <= 1.0 and 0.0 <= mu <= 1.0):
        raise ParamError("lam and mu must lie in [0, 1]")


def _segment_excess(t: _Trial) -> Optional[str]:
    """None when ``|lam - mu| * tv`` lies within the radius, else why not."""
    lam, mu, epsilon = t.segment
    delta = condition1_delta(t.fam, epsilon)
    if abs(lam - mu) * t.tv > delta * (1.0 + 1e-12):
        return f"hypothesis violated: |lam-mu|*tv = {abs(lam - mu) * t.tv} > delta = {delta}"
    return None


def _pre_segment(t: _Trial) -> Optional[str]:
    if t.segment is None or t.tv == 0.0:
        return _NOT_APPLICABLE
    _check_mix_weights(t.segment[0], t.segment[1])
    return _segment_excess(t)


def _eval_cont1(t: _Trial):
    return t.gap, t.d


def _eval_lb(t: _Trial):
    fam = t.fam
    return -fam.f_zero - float(ln_phi_unchecked(fam, np.asarray(0.5))), t.ent_sym


def _eval_cont2(t: _Trial):
    return t.gap, t.tv * (t.fam.f_zero + _omega(t.fam, t.diff.size / t.tv))


def _eval_improved(t: _Trial):
    fam = t.fam
    drop = float(big_f_drop_unchecked(fam, np.asarray(min(t.tv, 1.0))))
    return t.gap, (drop / fam.f_zero) * (fam.f_zero + t.ent_sym)


def _eval_lesche3(t: _Trial):
    k, tv = t.fam.kappa, t.tv
    return t.gap, (1.0 + 1.0 / k) * tv + (t.i_max - 1.0 / k) * tv ** (1.0 + k)


def _eval_lesche4(t: _Trial):
    tv = t.tv
    return t.gap, (1.0 + t.i_max) * tv - (tv * math.log(tv) if tv > 0 else 0.0)


def _eval_fannes(t: _Trial):
    tv = t.tv
    return t.gap, t.i_max * tv - (tv * math.log(tv) if tv > 0 else 0.0)


def _eval_relent_i(t: _Trial):
    # The per-coordinate integral form keeps full precision when p ~ q.
    fam = t.fam
    pp, qq, rr = t.r_pos
    xq, xp = qq / rr, pp / rr
    _require_finite(xq, xp)
    terms = (pp - qq) * fam.f_zero + rr * (
        big_f_drop_unchecked(fam, xq) - big_f_drop_unchecked(fam, xp)
    )
    lhs = sum_compensated(terms)
    if t.any_bare:
        lhs += -fam.omega_at_zero * t.bare_mass
    return abs(lhs), t.d + t.h_r


def _eval_relent_d(t: _Trial):
    # D(p|r) - D(q|r) = I(q) - I(p) - sum (p - q) ln_phi(r).
    fam = t.fam
    pp, qq, rr = t.r_pos
    cross = sum_compensated((pp - qq) * ln_phi_unchecked(fam, rr))
    if t.any_bare:
        cross += fam.ln_at_zero * t.bare_mass
    return abs(t.ent_q - t.ent_p - cross), t.d + t.e_r


def _eval_segment(t: _Trial):
    lam, mu, epsilon = t.segment
    fam, pw, qw = t.fam, t.p.weights, t.q.weights
    lhs = abs(_entropy(fam, lam * pw + (1.0 - lam) * qw) - _entropy(fam, mu * pw + (1.0 - mu) * qw))
    return lhs, epsilon * t.ent_sym


@dataclass(frozen=True)
class Check:
    """One row of the check table.

    ``precondition`` says whether the bound applies to a context (see above);
    ``evaluate`` returns its (lhs, rhs).  ``with_r`` / ``with_params`` put
    the reference pdf / the segment's (lam, mu, epsilon) into the digest and
    the scan witness.
    """

    bound_id: str
    precondition: Callable[[_Trial], Optional[str]]
    evaluate: Callable[[_Trial], tuple]
    with_r: bool = False
    with_params: bool = False


_CONT1 = Check("cont1", _pre_always, _eval_cont1)
_LB = Check("lb", _pre_distinct, _eval_lb)
_CONT2 = Check("cont2", _pre_distinct, _eval_cont2)
_IMPROVED = Check("improved", _pre_improved, _eval_improved)
_LESCHE3 = Check("lesche3", _pre_lesche3, _eval_lesche3)
_LESCHE4 = Check("lesche4", _pre_lesche4, _eval_lesche4)
_FANNES = Check("fannes", _pre_fannes, _eval_fannes)
_RELENT_I = Check("relent_I", _pre_relent, _eval_relent_i, with_r=True)
_RELENT_D = Check("relent_D", _pre_relent, _eval_relent_d, with_r=True)
_SEGMENT = Check("condition1_segment", _pre_segment, _eval_segment, with_params=True)

CHECKS = (
    _CONT1,
    _LB,
    _CONT2,
    _IMPROVED,
    _LESCHE3,
    _LESCHE4,
    _FANNES,
    _RELENT_I,
    _RELENT_D,
    _SEGMENT,
)


def _check_digest(check: Check, t: _Trial) -> str:
    return _digest(
        check.bound_id,
        t.fam,
        t.p,
        t.q,
        t.r if check.with_r else None,
        params=t.segment if check.with_params else (),
    )


def _evaluate(check: Check, t: _Trial) -> BoundReport:
    lhs, rhs = check.evaluate(t)
    return _report(check.bound_id, lhs, rhs, _check_digest(check, t))


def run_bound_checks(
    fam: LogFamily,
    p: Pdf,
    q: Pdf,
    r: Optional[Pdf] = None,
    mix_lambda: float = 1.0,
    mix_mu: float = 0.0,
    epsilon: Optional[float] = None,
) -> tuple[list[BoundReport], list[str]]:
    """Every check of :data:`CHECKS` whose preconditions the inputs satisfy.

    Returns (reports, skipped-bound ids), both in table order.  The
    relative-entropy bounds need ``r``; the segment check needs ``epsilon``
    and distinct pdfs.  Used by the ``bounds`` command and for witness
    replay.
    """
    segment = None if epsilon is None else (mix_lambda, mix_mu, epsilon)
    t = _Trial(fam, p, q, r, segment)
    reports: list[BoundReport] = []
    skipped: list[str] = []
    for check in CHECKS:
        reason = check.precondition(t)
        if reason is None:
            reports.append(_evaluate(check, t))
        elif reason != _NOT_APPLICABLE:
            skipped.append(check.bound_id)
    return reports, skipped


# ---------------------------------------------------------------------------
# inequality checks, one bound each


def check_cont1(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """|I(p) - I(q)| <= d(p, q)."""
    return _evaluate(_CONT1, _Trial(fam, p, q))


def check_relent(fam: LogFamily, p: Pdf, q: Pdf, r: Pdf) -> tuple[BoundReport, BoundReport]:
    """Both relative-entropy continuity bounds against the reference ``r``.

    |I(p|r) - I(q|r)| <= d(p,q) + h_r(p,q)   and
    |D(p|r) - D(q|r)| <= d(p,q) + e_r(p,q).

    The left sides are evaluated through the difference identities (the
    per-coordinate integral for I, and I(q) - I(p) - sum (p-q) ln_phi(r)
    for D) so they keep full precision when p and q are close.  Taking
    q = r turns the first bound into an upper bound for I(p|q) itself.
    """
    t = _Trial(fam, p, q, r)
    if not t.relent_supported:
        raise SupportError("r has zero weight where p and q differ")
    return _evaluate(_RELENT_I, t), _evaluate(_RELENT_D, t)


def check_improved(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """The factorized entropy bound for ``tv <= 1``.

    |I(p) - I(q)| <= [(F(0) - F(tv)) / F(0)] * [F(0) + I(p sym q)],
    which reduces to ``cont1`` when tv = 1.
    """
    t = _Trial(fam, p, q)
    if t.tv == 0.0:
        raise IdenticalPdfs("improved bound requires p != q")
    if t.tv > 1.0 + 1e-15:
        raise RangeError(f"improved bound requires tv <= 1, got {t.tv}")
    return _evaluate(_IMPROVED, t)


def check_lb(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """Constant lower bound on the symmetric-difference entropy.

    -F(0) - ln_phi(1/2) <= I(p sym q); the left side may well be negative.
    """
    t = _Trial(fam, p, q)
    if t.tv == 0.0:
        raise IdenticalPdfs("lower bound requires p != q")
    return _evaluate(_LB, t)


def check_cont2(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """|I(p) - I(q)| <= tv * [F(0) + omega(N / tv)] with N the common length.

    A relaxation of ``cont1`` (its right side dominates d(p, q)) whose merit
    is the explicit dependence on N.
    """
    t = _Trial(fam, p, q)
    if t.tv == 0.0:
        raise IdenticalPdfs("cont2 right side requires p != q")
    return _evaluate(_CONT2, t)


def check_lesche3(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """Power-law stability estimate (tsallis families only).

    |I(p) - I(q)| <= (1 + 1/kappa) tv + [I_max(N) - 1/kappa] tv^(1+kappa);
    an exact rewrite of ``cont2`` using the q-logarithm rescaling identity.
    """
    if fam.kind != "tsallis":
        raise FamilyError("lesche3 is the tsallis specialization")
    return _evaluate(_LESCHE3, _Trial(fam, p, q))


def check_lesche4(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """Logarithmic stability estimate (shannon only).

    |I(p) - I(q)| <= (1 + I_max(N)) tv - tv ln(tv).
    """
    if fam.kind != "shannon":
        raise FamilyError("lesche4 is the shannon specialization")
    return _evaluate(_LESCHE4, _Trial(fam, p, q))


def check_fannes(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """Sharpened shannon estimate, valid when tv <= 1/3.

    |I(p) - I(q)| <= I_max(N) tv - tv ln(tv); one tv weaker than lesche4's
    right side, hence always below it.
    """
    if fam.kind != "shannon":
        raise FamilyError("fannes is the shannon specialization")
    t = _Trial(fam, p, q)
    if t.tv > 1.0 / 3.0 + 1e-15:
        raise RangeError(f"fannes estimate requires tv <= 1/3, got {t.tv}")
    return _evaluate(_FANNES, t)


def check_condition1_segment(
    fam: LogFamily, p: Pdf, q: Pdf, lam: float, mu: float, epsilon: float
) -> BoundReport:
    """Uniform continuity of entropy along the segment from ``q`` to ``p``.

    For mixtures with ``|lam - mu| * tv_norm(p, q)`` within the radius from
    :func:`condition1_delta`:
    |I(lam p + (1-lam) q) - I(mu p + (1-mu) q)| <= epsilon * I(p sym q).
    The endpoint case lam=1, mu=0 is the continuity condition itself.
    """
    t = _Trial(fam, p, q, segment=(lam, mu, epsilon))
    _check_mix_weights(lam, mu)
    if t.tv == 0.0:
        raise IdenticalPdfs("segment condition requires p != q")
    excess = _segment_excess(t)
    if excess is not None:
        raise RangeError(excess)
    return _evaluate(_SEGMENT, t)


def entropy_min_half(fam: LogFamily) -> float:
    """Minimum entropy over pdfs with all entries <= 1/2: ``F(0) - 2 F(1/2)``.

    A concave functional is minimized at an extreme point of the polytope;
    here every extreme point is a permutation of (1/2, 1/2, 0, ..., 0).
    """
    return 2.0 * float(np.asarray(big_f_drop(fam, 0.5))) - fam.f_zero


@lru_cache(maxsize=4096)
def condition1_delta(fam: LogFamily, epsilon: float) -> float:
    """Constructive radius for the uniform-continuity condition.

    Returns ``delta`` such that every pair ``p != q`` with
    ``tv_norm(p, q) <= delta`` satisfies
    ``|I(p) - I(q)| <= epsilon * I(p sym q)``.

    From the factorized bound, the coefficient in front of ``I(p sym q)``
    is at most ``c(delta) = [g(delta)/F(0)] * [F(0) + I_min] / I_min`` where
    ``I_min = F(0) - 2 F(1/2)`` is the symmetric-difference entropy floor
    (see :func:`entropy_min_half`); ``c`` is increasing, so ``delta`` is
    found by monotone bisection, saturating at the hypothesis boundary 1.
    """
    if not epsilon > 0:
        raise ParamError("epsilon must be positive")
    f0 = fam.f_zero
    i_min = entropy_min_half(fam)
    if not (f0 > 0 and i_min > 0):
        raise InfeasibleEpsilon("family admits no positive entropy floor")
    amp = (f0 + i_min) / i_min

    def coeff(delta: float) -> float:
        return float(np.asarray(big_f_drop(fam, delta))) / f0 * amp

    if coeff(1.0) <= epsilon:
        return 1.0
    # coeff(0) = 0 < epsilon, so [0, 1] is a certified bracket; for families
    # whose logarithm is heavy at the origin the radius can be very small
    # (e.g. ~1e-14 for tsallis kappa = -0.9), which plain bisection handles.
    return bisect_monotone(coeff, epsilon, 0.0, 1.0, tol=1e-12)


# ---------------------------------------------------------------------------
# stability scan


def default_family_grid() -> tuple[LogFamily, ...]:
    """The family grid the acceptance suite sweeps."""
    return (
        shannon(),
        tsallis(0.1),
        tsallis(-0.1),
        tsallis(0.5),
        tsallis(-0.5),
        tsallis(0.9),
        tsallis(-0.9),
        kaniadakis(0.5),
        kaniadakis(-0.5),
        kappa_maxwell(0.5),
        kappa_maxwell(2.0),
        sqrt_log(),
        piecewise_linear(2.0),
    )


@dataclass(frozen=True)
class ScanConfig:
    """Configuration for :func:`stability_scan`; fully determines the run."""

    families: tuple[LogFamily, ...] = field(default_factory=default_family_grid)
    dims: tuple[int, ...] = (2, 4, 16, 64)
    trials: int = 1000
    seed: int = 271828
    modes: tuple[str, ...] = ("uniform", "sparse", "neighbor", "hillclimb")
    neighbor_scales: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    epsilons: tuple[float, ...] = (0.1, 0.5, 1.0)
    hill_steps: int = 200

    def to_json(self) -> dict:
        return {
            "families": [family_to_json(f) for f in self.families],
            "dims": list(self.dims),
            "trials": self.trials,
            "seed": self.seed,
            "modes": list(self.modes),
            "neighbor_scales": list(self.neighbor_scales),
            "epsilons": list(self.epsilons),
            "hill_steps": self.hill_steps,
        }


@dataclass
class _BoundStats:
    trials: int = 0
    worst_ratio: Optional[float] = None
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "worst_ratio": self.worst_ratio,
            "witness": self.witness,
        }


@dataclass
class ScanReport:
    """Aggregate of a scan: totals, worst tightness ratio, witnesses.

    ``witness`` embeds the full inputs (family spec, weights, parameters)
    and the offending report, so any entry can be replayed through the
    corresponding ``check_*`` call or the ``bounds`` CLI command.
    ``violations`` counts evaluated reports with ``holds == False``; it is
    not part of the JSON payload.
    """

    trials: int
    worst_ratio: Optional[float]
    witness: Optional[dict]
    per_bound: dict
    support_errors: int
    config: ScanConfig
    violations: int = 0

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "worst_ratio": self.worst_ratio,
            "witness": self.witness,
            "per_bound": {k: v.to_json() for k, v in sorted(self.per_bound.items())},
            "support_errors": self.support_errors,
            "config": self.config.to_json(),
        }


def _witness(check: Check, t: _Trial, report: BoundReport) -> dict:
    w = {
        "family": family_to_json(t.fam),
        "p": t.p.weights.tolist(),
        "q": t.q.weights.tolist(),
    }
    if check.with_r:
        w["r"] = t.r.weights.tolist()
    if check.with_params:
        lam, mu, epsilon = t.segment
        w["params"] = {"lam": lam, "mu": mu, "epsilon": epsilon}
    w["report"] = report.to_json()
    return w


class _Aggregator:
    def __init__(self):
        self.per_bound: dict[str, _BoundStats] = {}
        self.worst: Optional[float] = None
        self.worst_witness: Optional[dict] = None
        self.support_errors = 0
        self.violations = 0

    def add(self, check: Check, t: _Trial, lhs, rhs) -> Optional[float]:
        """Count one evaluated check; return its ratio (None when rhs <= 0).

        The report, its digest and the witness are built only when the ratio
        beats the bound's or the scan's worst so far.
        """
        stats = self.per_bound.get(check.bound_id)
        if stats is None:
            stats = self.per_bound[check.bound_id] = _BoundStats()
        stats.trials += 1
        if not lhs <= rhs + _tol(rhs):
            self.violations += 1
        if not rhs > 0:
            return None
        ratio = float(lhs / rhs)
        worst_bound = stats.worst_ratio is None or ratio > stats.worst_ratio
        worst_scan = self.worst is None or ratio > self.worst
        if worst_bound or worst_scan:
            report = _report(check.bound_id, lhs, rhs, _check_digest(check, t))
            witness = _witness(check, t, report)
            if worst_bound:
                stats.worst_ratio, stats.witness = ratio, witness
            if worst_scan:
                self.worst, self.worst_witness = ratio, witness
        return ratio


def _battery(fam, p, q, r, epsilon, rng, agg: _Aggregator) -> Optional[float]:
    """Run every applicable check; return the trial's max ratio (or None)."""
    t = _Trial(fam, p, q, r)
    tv = t.tv
    if tv == 0.0:
        return None
    delta = condition1_delta(fam, epsilon)
    lam, mu = rng.uniform(0.0, 1.0, size=2)
    if abs(lam - mu) * tv > delta:
        # Pull mu toward lam until the segment hypothesis holds; the hard
        # fallback mu = lam guards against absorption when delta/tv is far
        # below lam's magnitude.
        mu = min(1.0, max(0.0, lam - math.copysign(0.5 * delta / tv, lam - mu)))
        if abs(lam - mu) * tv > delta:
            mu = lam
    t.segment = (float(lam), float(mu), epsilon)

    best: Optional[float] = None
    support_skip = False
    for check in CHECKS:
        reason = check.precondition(t)
        if reason is None:
            lhs, rhs = check.evaluate(t)
            ratio = agg.add(check, t, lhs, rhs)
            if ratio is not None and (best is None or ratio > best):
                best = ratio
        elif reason == _SUPPORT:
            support_skip = True
    agg.support_errors += support_skip
    return best


def _sample_pair(mode, dim, scale, rng):
    if mode == "uniform":
        p = sample_uniform(dim, rng)
        q = sample_uniform(dim, rng)
        r = sample_uniform(dim, rng)
    elif mode == "sparse":
        p = sample_sparse(dim, rng)
        q = sample_sparse(dim, rng)
        r = sample_sparse(dim, rng)
    else:  # neighbor
        p = sample_uniform(dim, rng)
        q = sample_neighbor(p, scale, rng)
        r = sample_uniform(dim, rng)
    return p, q, r


def _transfer(pdf: Pdf, i: int, j: int, amount: float) -> Pdf:
    w = pdf.weights.copy()
    amount = min(amount, w[i])
    w[i] -= amount
    w[j] += amount
    return Pdf(w)


def stability_scan(config: ScanConfig) -> ScanReport:
    """Adversarially probe every inequality over seeded random inputs.

    Modes: independent ``uniform`` and ``sparse`` pairs, ``neighbor`` pairs
    at total-variation scales down to 1e-6, and ``hillclimb`` restarts that
    greedily transfer mass between coordinate pairs (geometrically shrinking
    steps, accepting only ratio increases, at most ``hill_steps`` steps per
    restart).  Every evaluated input counts as one trial.  The trial-to-seed
    mapping is a deterministic split of the root seed, so the report is
    identical regardless of scheduling.
    """
    if config.trials < 1:
        raise ParamError("trials must be at least 1")
    for m in config.modes:
        if m not in ("uniform", "sparse", "neighbor", "hillclimb"):
            raise ParamError(f"unknown scan mode {m!r}")

    fams = config.families
    dims = config.dims
    modes = config.modes
    agg = _Aggregator()

    done = 0
    slot = 0
    while done < config.trials:
        # Slot-indexed seed split: slot s always gets the same stream, so a
        # parallel scheduler partitioning slots reproduces this report.
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(slot,)))
        fam = fams[slot % len(fams)]
        dim = dims[(slot // len(fams)) % len(dims)]
        mode = modes[(slot // (len(fams) * len(dims))) % len(modes)]
        scale = config.neighbor_scales[slot % len(config.neighbor_scales)]
        epsilon = config.epsilons[slot % len(config.epsilons)]
        slot += 1

        if mode == "hillclimb":
            budget = min(config.hill_steps, config.trials - done)
            p, q, r = _sample_pair("uniform", dim, scale, rng)
            best = _battery(fam, p, q, r, epsilon, rng, agg)
            done += 1
            step = 0.1
            used = 1
            while used < budget and step > 1e-9:
                target_p = bool(rng.integers(0, 2))
                i, j = rng.choice(dim, size=2, replace=False) if dim > 1 else (0, 0)
                cand_p, cand_q = (
                    (_transfer(p, int(i), int(j), step), q)
                    if target_p
                    else (p, _transfer(q, int(i), int(j), step))
                )
                ratio = _battery(fam, cand_p, cand_q, r, epsilon, rng, agg)
                used += 1
                done += 1
                if ratio is not None and (best is None or ratio > best):
                    best = ratio
                    p, q = cand_p, cand_q
                else:
                    step *= 0.5
        else:
            p, q, r = _sample_pair(mode, dim, scale, rng)
            _battery(fam, p, q, r, epsilon, rng, agg)
            done += 1

    return ScanReport(
        trials=done,
        worst_ratio=agg.worst,
        witness=agg.worst_witness,
        per_bound=agg.per_bound,
        support_errors=agg.support_errors,
        config=config,
        violations=agg.violations,
    )
