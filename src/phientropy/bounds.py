"""Distance functions, inequality checks and the stability scan.

Each ``check_*`` function evaluates one proven inequality on concrete
inputs and returns a :class:`BoundReport` with the two sides, their ratio
and a scale-aware pass flag.  The inequalities are theorems, so ``holds``
must come back true on every valid input; a violation beyond tolerance
indicates an implementation bug, which is exactly what
:func:`stability_scan` hunts for with randomized and hill-climbed inputs.

One ordered table, :data:`CHECKS`, decides which inequalities apply to an
input and evaluates them: :func:`run_bound_checks` (the ``bounds`` command)
and :func:`stability_scan` both walk it, and each ``check_*`` function
evaluates its rows, raising on an input the table would skip.  Every row
reads one per-input context that checks the pdf lengths once and computes
the quantities the inequalities share (tv, I(p), I(q), d(p, q), I(p sym q),
...) once, with a single call of the family kernel; what depends only on the
family, N and the reference pdf is computed once per reference.

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
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .distributions import Pdf, _check_lengths, sample_neighbor, sample_sparse, sample_uniform
from .errors import (
    DomainError,
    FamilyError,
    IdenticalPdfs,
    InfeasibleEpsilon,
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
    "NEIGHBOR_SCALES",
    "HILL_STEPS",
    "SCAN_EPSILONS",
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
    A custom family enters the digest only through (singularity exponent,
    F(0)), so two different custom logarithms can share a digest.
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


# ---------------------------------------------------------------------------
# per-input context

_OVERFLOW = "reference weight too small: a ratio to r overflows"
_BARE = "r has zero weight where p and q differ"


class _Reference:
    """What a check-table input shares with every input of its family, N and r.

    I_max(N) = omega(N), the left side of ``lb``, and, given a reference pdf
    r, its zero pattern and ln_phi(r), ln_phi(1/r) where r > 0.  The scan
    builds one per hill-climb restart and reuses it for every step.  Each
    value has the arithmetic of the public function it stands for.
    """

    def __init__(self, fam: LogFamily, n: int, r: Pdf | None = None):
        f0 = fam.f_zero
        self.fam, self.n, self.r = fam, n, r
        self.i_max = n * float(big_f_drop_unchecked(fam, np.asarray(1.0 / n))) - f0
        if r is None:
            self.lb_lhs = -f0 - float(ln_phi_unchecked(fam, np.asarray(0.5)))
            return
        rw = r.weights
        self.zero = rw == 0
        self.any_zero = bool(self.zero.any())
        self.pos = ~self.zero if self.any_zero else slice(None)
        self.rr = rr = rw[self.pos]
        # 1/r overflows only where r is subnormal.  Such entries get
        # ln_phi(1) = 0 here, and h_r raises wherever p and q differ on one.
        with np.errstate(over="ignore"):
            inv = 1.0 / rr
        over = np.isinf(inv)
        self.inv_inf = None
        if over.any():
            self.inv_inf = np.zeros(n, dtype=bool)
            self.inv_inf[self.pos] = over
            inv[over] = 1.0
        ln = ln_phi_unchecked(fam, np.concatenate(((0.5,), rr, inv)))
        self.lb_lhs = -f0 - float(ln[0])
        self.ln_r = ln[1 : rr.size + 1]
        # Rows ln_phi(1/r), ln_phi(r) over all N entries, 0 where r = 0.
        self.ln2 = np.zeros((2, n))
        self.ln2[0, self.pos] = ln[rr.size + 1 :]
        self.ln2[1, self.pos] = self.ln_r
        # ln_phi of a subnormal r can be infinite.
        self.ln2_finite = _all_finite(self.ln2)


def _all_finite(a: np.ndarray) -> bool:
    # Half the cost of np.isfinite(a).all() on the few-element arrays of a scan.
    return np.count_nonzero(np.isfinite(a)) == a.size


class _Trial:
    """One input of the check table: every shared value computed once.

    A :class:`Pdf` has finite, nonnegative weights and :func:`_trial` checks
    the lengths, so the constructor only forms |p - q| and tv; :meth:`evaluate`
    computes everything the table reads, passing all ``big_f_drop`` arguments
    (p, q, |p - q|, the symmetric difference, the mixtures of the segment, the
    omega(N / tv) and min(tv, 1) arguments and relent_I's q/r and p/r) through
    one kernel call.  Each value keeps the arithmetic of the public function
    it stands for.  An error a value's public function would raise (a ratio
    to r, or F at one, that overflows, an unsupported limit, omega at an
    infinite x) is recorded here and raised by the evaluator that reads the
    value, so errors still come in table order.
    ``segment`` holds (lam, mu, epsilon) for the segment check, or None.
    """

    def __init__(self, ref: _Reference, p: Pdf, q: Pdf):
        self.ref, self.fam, self.r = ref, ref.fam, ref.r
        self.p, self.q = p, q
        self.diff = np.abs(p.weights - q.weights)
        self.tv = sum_compensated(self.diff)
        self.segment = None

    def evaluate(self, segment=None):
        fam, ref, tv, diff = self.fam, self.ref, self.tv, self.diff
        f0, n = fam.f_zero, ref.n
        pw, qw = self.p.weights, self.q.weights
        self.segment = segment
        # Arguments whose entropy terms big_f_drop(w) - w * F(0) are summed
        # come first, then |p - q|, the scalars and the relent_I ratios.
        ents = [pw, qw]
        scalars = ()
        mixed = False
        if tv > 0:
            ents.append(diff / tv)
            if segment is not None and _mix_weights_ok(segment[0], segment[1]):
                lam, mu = segment[0], segment[1]
                ents += [lam * pw + (1.0 - lam) * qw, mu * pw + (1.0 - mu) * qw]
                mixed = True
            # omega(N / tv) as omega_phi forms it: x * big_f_drop(1 / x) - F(0)
            self.x_cont2 = n / tv
            scalars = (1.0 / self.x_cont2, min(tv, 1.0))
        ratios = self._relent_setup() if self.r is not None else ()
        args = np.concatenate((*ents, diff, scalars, *ratios))
        m = len(ents) * n
        if ratios:
            # A ratio to a tiny r that overflows is kept out of the kernel.
            end = m + n + len(scalars)
            self.ratio_overflow = not _all_finite(args[end:])
            if self.ratio_overflow:
                ratios, args = (), args[:end]
        g = big_f_drop_unchecked(fam, args)
        terms = (g[:m] - args[:m] * f0).tolist()
        rest = g[m : m + n + len(scalars)].tolist()
        self.ent_p = sum_compensated(terms[:n])
        self.ent_q = sum_compensated(terms[n : 2 * n])
        self.gap = abs(self.ent_p - self.ent_q)
        self.d = sum_compensated(rest[:n])
        if tv > 0:
            self.ent_sym = sum_compensated(terms[2 * n : 3 * n])
            if mixed:
                self.ent_mix = (
                    sum_compensated(terms[3 * n : 4 * n]),
                    sum_compensated(terms[4 * n :]),
                )
            self.g_cont2, self.g_improved = rest[n], rest[n + 1]
        if ratios:
            self.g_ratios = g[m + n + len(scalars) :]
            self.ratio_overflow = not _all_finite(self.g_ratios)
        return self

    def get_h_r(self) -> float:
        if self.h_r_error is not None:
            raise self.h_r_error
        return self.h_r

    def get_e_r(self) -> float:
        if self.e_r_error is not None:
            raise self.e_r_error
        return self.e_r

    def _relent_setup(self) -> tuple:
        """Support, h_r, e_r and the q/r, p/r arguments (empty if not needed).

        The caller keeps the ratios out of the kernel call if one overflows.
        """
        fam, ref, diff = self.fam, self.ref, self.diff
        self.any_bare = False
        if ref.any_zero:
            bare = (diff > 0) & ref.zero
            self.any_bare = bool(bare.any())
        self.relent_supported = not self.any_bare or (
            fam.omega_at_zero_finite and math.isfinite(fam.ln_at_zero)
        )
        # Where p and q differ, bare coordinates and r > 0 partition the
        # support of diff (x - y == 0 exactly when x == y in floating point).
        # ln2 is 0 where r = 0, and diff is 0 where p and q agree: a finite
        # ln2 makes those terms zeros, which leave the sums' bits unchanged
        # (see sum_compensated).  An infinite ln2 would make them NaN.
        if ref.ln2_finite:
            h_terms, e_terms = (diff * ref.ln2).tolist()
        else:
            moved = diff > 0
            h_terms, e_terms = (diff[moved] * ref.ln2[:, moved]).tolist()
        h, e = sum_compensated(h_terms), sum_compensated(e_terms)
        self.h_r_error = self.e_r_error = None
        if self.any_bare:
            self.bare_mass = sum_compensated(self.p.weights[bare] - self.q.weights[bare])
            bare_abs = sum_compensated(diff[bare])
            h += fam.ln_sup * bare_abs
            e += fam.ln_at_zero * bare_abs
            if not math.isfinite(fam.ln_sup):
                self.h_r_error = SupportError(_BARE)
            if not math.isfinite(fam.ln_at_zero):
                self.e_r_error = SupportError(_BARE)
        if self.h_r_error is None and ref.inv_inf is not None and (diff[ref.inv_inf] > 0).any():
            self.h_r_error = DomainError(_OVERFLOW)
        self.h_r, self.e_r = h, -e
        if not self.relent_supported:
            return ()
        pp, qq = self.p.weights[ref.pos], self.q.weights[ref.pos]
        self.dpq = pp - qq
        return qq / ref.rr, pp / ref.rr


# ---------------------------------------------------------------------------
# distances


def metric_d(fam: LogFamily, p: Pdf, q: Pdf) -> float:
    """The entropy-continuity metric ``d(p,q) = sum_k [F(0) - F(|p_k - q_k|)]``.

    Symmetric, zero exactly at p = q, and satisfies the triangle inequality;
    finite for all finite-support inputs.
    """
    _check_lengths(p, q)
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
    return _trial(fam, p, q, r).get_h_r()


def e_r(fam: LogFamily, p: Pdf, q: Pdf, r: Pdf) -> float:
    """Companion distance ``-sum_k |p_k - q_k| ln_phi(r_k)``.

    Coincides with :func:`h_r` for the natural logarithm.
    """
    return _trial(fam, p, q, r).get_e_r()


# ---------------------------------------------------------------------------
# the check table
#
# A precondition returns None when its check applies, _NOT_APPLICABLE when
# the check does not concern the input (wrong family, no reference, no
# segment), or a skip reason, which ``run_bound_checks`` lists as skipped.
# The ``check_*`` functions raise on any reason, with the error type below
# (RangeError for the reasons not listed).

_NOT_APPLICABLE = "not applicable"
_SUPPORT = "r vanishes where p and q differ"
_IDENTICAL = "identical pdfs"
_REFUSALS = {_NOT_APPLICABLE: FamilyError, _SUPPORT: SupportError, _IDENTICAL: IdenticalPdfs}


def _pre_always(t: _Trial) -> Optional[str]:
    return None


def _pre_distinct(t: _Trial) -> Optional[str]:
    return None if t.tv > 0 else _IDENTICAL


def _pre_improved(t: _Trial) -> Optional[str]:
    if t.tv == 0:
        return _IDENTICAL
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


def _mix_weights_ok(lam: float, mu: float) -> bool:
    return 0.0 <= lam <= 1.0 and 0.0 <= mu <= 1.0


def _pre_segment(t: _Trial) -> Optional[str]:
    if t.segment is None:
        return _NOT_APPLICABLE
    lam, mu, epsilon = t.segment
    if not _mix_weights_ok(lam, mu):
        raise ParamError("lam and mu must lie in [0, 1]")
    if t.tv == 0.0:
        return _IDENTICAL
    delta = condition1_delta(t.fam, epsilon)
    if abs(lam - mu) * t.tv > delta * (1.0 + 1e-12):
        return f"hypothesis violated: |lam-mu|*tv = {abs(lam - mu) * t.tv} > delta = {delta}"
    return None


def _eval_cont1(t: _Trial):
    return t.gap, t.d


def _eval_lb(t: _Trial):
    return t.ref.lb_lhs, t.ent_sym


def _eval_cont2(t: _Trial):
    x, f0 = t.x_cont2, t.fam.f_zero
    if not x < math.inf:
        raise DomainError("omega_phi requires finite x > 0")
    return t.gap, t.tv * (f0 + (x * t.g_cont2 - f0))


def _eval_improved(t: _Trial):
    f0 = t.fam.f_zero
    return t.gap, (t.g_improved / f0) * (f0 + t.ent_sym)


def _eval_lesche3(t: _Trial):
    k, tv = t.fam.kappa, t.tv
    return t.gap, (1.0 + 1.0 / k) * tv + (t.ref.i_max - 1.0 / k) * tv ** (1.0 + k)


def _eval_lesche4(t: _Trial):
    tv = t.tv
    return t.gap, (1.0 + t.ref.i_max) * tv - (tv * math.log(tv) if tv > 0 else 0.0)


def _eval_fannes(t: _Trial):
    tv = t.tv
    return t.gap, t.ref.i_max * tv - (tv * math.log(tv) if tv > 0 else 0.0)


def _eval_relent_i(t: _Trial):
    # The per-coordinate integral form keeps full precision when p ~ q.
    if t.ratio_overflow:
        raise DomainError(_OVERFLOW)
    g, k = t.g_ratios, t.ref.rr.size
    lhs = sum_compensated(t.dpq * t.fam.f_zero + t.ref.rr * (g[:k] - g[k:]))
    if t.any_bare:
        lhs += -t.fam.omega_at_zero * t.bare_mass
    return abs(lhs), t.d + t.get_h_r()


def _eval_relent_d(t: _Trial):
    # D(p|r) - D(q|r) = I(q) - I(p) - sum (p - q) ln_phi(r), over p != q when ln_phi(r) can be inf.
    dpq, ln_r = t.dpq, t.ref.ln_r
    if not t.ref.ln2_finite:
        moved = dpq != 0
        dpq, ln_r = dpq[moved], ln_r[moved]
    cross = sum_compensated(dpq * ln_r)
    if t.any_bare:
        cross += t.fam.ln_at_zero * t.bare_mass
    return abs(t.ent_q - t.ent_p - cross), t.d + t.get_e_r()


def _eval_segment(t: _Trial):
    mix_lam, mix_mu = t.ent_mix
    return abs(mix_lam - mix_mu), t.segment[2] * t.ent_sym


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


def _trial(fam: LogFamily, p: Pdf, q: Pdf, r: Pdf | None = None, segment=None) -> _Trial:
    """Check one check-table input's lengths and evaluate its shared values.

    Kernels overflow on purpose at tiny reference weights and the evaluators
    raise on the results, so numpy's overflow warnings are off here (not in
    the scan, which skips this wrapper and its ``np.errstate`` per trial).
    """
    _check_lengths(p, q)
    if r is not None:
        _check_lengths(p, r)
    with np.errstate(over="ignore"):
        return _Trial(_Reference(fam, p.n, r), p, q).evaluate(segment)


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
    and is skipped for identical pdfs.  Used by the ``bounds`` command and
    for witness replay.
    """
    segment = None if epsilon is None else (mix_lambda, mix_mu, epsilon)
    t = _trial(fam, p, q, r, segment)
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


def _checked(checks, fam, p, q, r=None, segment=None) -> tuple[BoundReport, ...]:
    """Evaluate table rows on one input; raise if the table would not evaluate one."""
    t = _trial(fam, p, q, r, segment)
    for check in checks:
        reason = check.precondition(t)
        if reason is not None:
            raise _REFUSALS.get(reason, RangeError)(f"{check.bound_id}: {reason}")
    return tuple(_evaluate(check, t) for check in checks)


def check_cont1(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """|I(p) - I(q)| <= d(p, q)."""
    return _checked((_CONT1,), fam, p, q)[0]


def check_relent(fam: LogFamily, p: Pdf, q: Pdf, r: Pdf) -> tuple[BoundReport, BoundReport]:
    """Both relative-entropy continuity bounds against the reference ``r``.

    |I(p|r) - I(q|r)| <= d(p,q) + h_r(p,q)   and
    |D(p|r) - D(q|r)| <= d(p,q) + e_r(p,q).

    The left sides are evaluated through the difference identities (the
    per-coordinate integral for I, and I(q) - I(p) - sum (p-q) ln_phi(r)
    for D) so they keep full precision when p and q are close.  Taking
    q = r turns the first bound into an upper bound for I(p|q) itself.
    """
    return _checked((_RELENT_I, _RELENT_D), fam, p, q, r)


def check_improved(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """The factorized entropy bound for ``tv <= 1``.

    |I(p) - I(q)| <= [(F(0) - F(tv)) / F(0)] * [F(0) + I(p sym q)],
    which reduces to ``cont1`` when tv = 1.
    """
    return _checked((_IMPROVED,), fam, p, q)[0]


def check_lb(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """Constant lower bound on the symmetric-difference entropy.

    -F(0) - ln_phi(1/2) <= I(p sym q); the left side may well be negative.
    """
    return _checked((_LB,), fam, p, q)[0]


def check_cont2(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """|I(p) - I(q)| <= tv * [F(0) + omega(N / tv)] with N the common length.

    A relaxation of ``cont1`` (its right side dominates d(p, q)) whose merit
    is the explicit dependence on N.
    """
    return _checked((_CONT2,), fam, p, q)[0]


def check_lesche3(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """Power-law stability estimate (tsallis families only).

    |I(p) - I(q)| <= (1 + 1/kappa) tv + [I_max(N) - 1/kappa] tv^(1+kappa);
    an exact rewrite of ``cont2`` using the q-logarithm rescaling identity.
    """
    return _checked((_LESCHE3,), fam, p, q)[0]


def check_lesche4(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """Logarithmic stability estimate (shannon only).

    |I(p) - I(q)| <= (1 + I_max(N)) tv - tv ln(tv).
    """
    return _checked((_LESCHE4,), fam, p, q)[0]


def check_fannes(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """Sharpened shannon estimate, valid when tv <= 1/3.

    |I(p) - I(q)| <= I_max(N) tv - tv ln(tv); one tv weaker than lesche4's
    right side, hence always below it.
    """
    return _checked((_FANNES,), fam, p, q)[0]


def check_condition1_segment(
    fam: LogFamily, p: Pdf, q: Pdf, lam: float, mu: float, epsilon: float
) -> BoundReport:
    """Uniform continuity of entropy along the segment from ``q`` to ``p``.

    For mixtures with ``|lam - mu| * tv_norm(p, q)`` within the radius from
    :func:`condition1_delta`:
    |I(lam p + (1-lam) q) - I(mu p + (1-mu) q)| <= epsilon * I(p sym q).
    The endpoint case lam=1, mu=0 is the continuity condition itself.
    """
    return _checked((_SEGMENT,), fam, p, q, segment=(lam, mu, epsilon))[0]


def entropy_min_half(fam: LogFamily) -> float:
    """Minimum entropy over pdfs with all entries <= 1/2: ``F(0) - 2 F(1/2)``.

    A concave functional is minimized at an extreme point of the polytope;
    here every extreme point is a permutation of (1/2, 1/2, 0, ..., 0).
    """
    return 2.0 * float(big_f_drop_unchecked(fam, np.asarray(0.5))) - fam.f_zero


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

    # The bisection keeps delta in [0, 1], inside big_f_drop's domain.
    def coeff(delta: float) -> float:
        return float(big_f_drop_unchecked(fam, np.asarray(delta))) / f0 * amp

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


# The scan cycles through these neighbor-pair tv radii and segment epsilons,
# and runs at most HILL_STEPS trials per hill-climb restart.
NEIGHBOR_SCALES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
SCAN_EPSILONS = (0.1, 0.5, 1.0)
HILL_STEPS = 200


@dataclass(frozen=True)
class ScanConfig:
    """Configuration for :func:`stability_scan`; fully determines the run."""

    families: tuple[LogFamily, ...] = field(default_factory=default_family_grid)
    dims: tuple[int, ...] = (2, 4, 16, 64)
    trials: int = 1000
    seed: int = 271828
    modes: tuple[str, ...] = ("uniform", "sparse", "neighbor", "hillclimb")

    def to_json(self) -> dict:
        return {
            "families": [family_to_json(f) for f in self.families],
            "dims": list(self.dims),
            "trials": self.trials,
            "seed": self.seed,
            "modes": list(self.modes),
            "neighbor_scales": list(NEIGHBOR_SCALES),
            "epsilons": list(SCAN_EPSILONS),
            "hill_steps": HILL_STEPS,
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
    ``violations`` counts evaluated reports with ``holds == False``, and
    ``timings`` maps each mode to its trials and wall seconds; neither is
    part of the JSON payload.
    """

    trials: int
    worst_ratio: Optional[float]
    witness: Optional[dict]
    per_bound: dict
    support_errors: int
    config: ScanConfig
    violations: int = 0
    timings: dict = field(default_factory=dict)

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
        # Every bound has its stats from the start; per_bound() keeps those
        # the scan evaluated.
        self.stats = {bound_id: _BoundStats() for bound_id in BOUND_IDS}
        self.worst: Optional[float] = None
        self.worst_witness: Optional[dict] = None
        self.support_errors = 0
        self.violations = 0

    def per_bound(self) -> dict[str, _BoundStats]:
        return {bound_id: s for bound_id, s in self.stats.items() if s.trials}

    def add(self, check: Check, t: _Trial, lhs: float, rhs: float) -> Optional[float]:
        """Count one evaluated check; return its ratio (None when rhs <= 0).

        The report, its digest and the witness are built only when the ratio
        beats the bound's or the scan's worst so far, unless both sides lie
        within ``tol`` of zero: such noise is counted and checked, never a worst.
        """
        stats = self.stats[check.bound_id]
        stats.trials += 1
        # lhs <= rhs implies the tolerant comparison, so most checks skip it.
        if not lhs <= rhs and not lhs <= rhs + _tol(rhs):
            self.violations += 1
        if not rhs > 0:
            return None
        ratio = lhs / rhs
        worst_bound = stats.worst_ratio is None or ratio > stats.worst_ratio
        worst_scan = self.worst is None or ratio > self.worst
        if worst_bound or worst_scan:
            tol = _tol(rhs)
            if abs(lhs) <= tol and rhs <= tol:  # rounding noise: says nothing of tightness
                return ratio
            report = _report(check.bound_id, lhs, rhs, _check_digest(check, t))
            witness = _witness(check, t, report)
            if worst_bound:
                stats.worst_ratio, stats.witness = ratio, witness
            if worst_scan:
                self.worst, self.worst_witness = ratio, witness
        return ratio


def _battery(ref: _Reference, p, q, epsilon, rng, agg: _Aggregator) -> Optional[float]:
    """Run every applicable check; return the trial's max ratio (or None)."""
    t = _Trial(ref, p, q)
    tv = t.tv
    if tv == 0.0:
        return None
    delta = condition1_delta(ref.fam, epsilon)
    # The values of rng.uniform(0.0, 1.0, size=2), at a third of its cost.
    lam, mu = rng.random(), rng.random()
    if abs(lam - mu) * tv > delta:
        # Pull mu toward lam until the segment hypothesis holds; the hard
        # fallback mu = lam guards against absorption when delta/tv is far
        # below lam's magnitude.
        mu = min(1.0, max(0.0, lam - math.copysign(0.5 * delta / tv, lam - mu)))
        if abs(lam - mu) * tv > delta:
            mu = lam
    t.evaluate((lam, mu, epsilon))

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


def _lap(timings: dict, run: Optional[tuple], mode: Optional[str], done: int) -> tuple:
    """Close ``run`` = (mode, start time, trials done at its start) into
    ``timings`` and open the run of ``mode``.

    Slots come in runs of one mode, so the scan reads the clock once per
    run, not once per trial.
    """
    now = time.perf_counter()
    if run is not None:
        entry = timings.setdefault(run[0], {"trials": 0, "seconds": 0.0})
        entry["trials"] += done - run[2]
        entry["seconds"] += now - run[1]
    return mode, now, done


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
    """``pdf`` with up to ``amount`` of mass moved from entry i to entry j.

    The result needs none of the constructor's checks, so it is frozen
    without them: w[i] - min(amount, w[i]) is exactly 0 or the rounding of a
    positive difference, never negative, and w[j] + amount stays finite for
    the scan's pdfs, whose weights sum to about one.
    """
    w = pdf.weights.copy()
    amount = min(amount, w[i])
    w[i] -= amount
    w[j] += amount
    w.setflags(write=False)
    out = object.__new__(Pdf)
    object.__setattr__(out, "weights", w)
    return out


class _StepDraws:
    """A hill-climb restart's step draws, read from its generator's bit stream.

    ``rng.integers(0, high + 1)`` and ``rng.choice(dim, 2, replace=False)``
    pay several microseconds of call overhead for one or two small integers.
    These methods draw the same values from the same stream, one 32-bit word
    at a time through the bit generator's ctypes interface, at about a
    quarter of the cost, so the scan's bytes do not change.  They reproduce
    numpy 2.4's algorithms: the 32-bit bounded draw of Lemire (2019, ACM
    TOMACS 29(1)) with numpy's rejection threshold, and, for ``choice``,
    Floyd's sampling of two values followed by numpy's shuffle of the pair.
    """

    def __init__(self, rng: np.random.Generator):
        iface = rng.bit_generator.ctypes
        # iface holds raw pointers into the generator's state: keep the
        # generator alive for as long as they are called.  The calls skip
        # the bit generator's lock, which is safe because each scan slot
        # owns its generator.
        self._rng = rng
        self._state = iface.state
        self._next_uint32 = iface.next_uint32

    def bounded(self, high: int) -> int:
        """An integer in [0, high], for 0 <= high < 2**32 - 1, as ``integers(0, high + 1)``."""
        if high == 0:
            return 0
        span = high + 1
        m = self._next_uint32(self._state) * span
        if (m & 0xFFFFFFFF) < span:
            threshold = (0xFFFFFFFF - high) % span
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next_uint32(self._state) * span
        return m >> 32

    def pair(self, dim: int) -> tuple[int, int]:
        """Two distinct indices below ``dim >= 2``, as ``choice(dim, 2, replace=False)``."""
        i = self.bounded(dim - 2)
        j = self.bounded(dim - 1)
        if j == i:
            j = dim - 1
        if self.bounded(1) == 0:
            i, j = j, i
        return i, j


def stability_scan(config: ScanConfig) -> ScanReport:
    """Adversarially probe every inequality over seeded random inputs.

    Modes: independent ``uniform`` and ``sparse`` pairs, ``neighbor`` pairs
    at total-variation scales down to 1e-6, and ``hillclimb`` restarts that
    greedily transfer mass between coordinate pairs (geometrically shrinking
    steps, accepting only ratio increases, at most :data:`HILL_STEPS` steps per
    restart).  Every evaluated input counts as one trial.  The trial-to-seed
    mapping is a deterministic split of the root seed, so the report is
    identical regardless of scheduling.  A bad config raises before any trial.
    """
    if config.trials < 1:
        raise ParamError("trials must be at least 1")
    if not (config.families and config.modes and config.dims and min(config.dims) >= 1):
        raise ParamError("the scan needs a family, a mode and a dim, and every dim >= 1")
    for m in config.modes:
        if m not in ("uniform", "sparse", "neighbor", "hillclimb"):
            raise ParamError(f"unknown scan mode {m!r}")
    for fam in config.families:
        try:
            family_to_json(fam)
        except FamilyError:
            raise ParamError(
                f"cannot scan family {fam.label!r}: it has no JSON encoding, "
                "and scan witnesses must replay through JSON"
            ) from None

    fams = config.families
    dims = config.dims
    modes = config.modes
    agg = _Aggregator()
    timings: dict = {}
    run = None

    done = 0
    slot = 0
    while done < config.trials:
        # Slot-indexed seed split: slot s always gets the same stream, so a
        # parallel scheduler partitioning slots reproduces this report.
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(slot,)))
        fam = fams[slot % len(fams)]
        dim = dims[(slot // len(fams)) % len(dims)]
        mode = modes[(slot // (len(fams) * len(dims))) % len(modes)]
        scale = NEIGHBOR_SCALES[slot % len(NEIGHBOR_SCALES)]
        epsilon = SCAN_EPSILONS[slot % len(SCAN_EPSILONS)]
        slot += 1
        if run is None or run[0] != mode:
            run = _lap(timings, run, mode, done)

        if mode == "hillclimb":
            budget = min(HILL_STEPS, config.trials - done)
            p, q, r = _sample_pair("uniform", dim, scale, rng)
            ref = _Reference(fam, dim, r)
            best = _battery(ref, p, q, epsilon, rng, agg)
            done += 1
            draws = _StepDraws(rng)
            step = 0.1
            used = 1
            while used < budget and step > 1e-9:
                target_p = draws.bounded(1) == 1
                i, j = draws.pair(dim) if dim > 1 else (0, 0)
                cand_p, cand_q = (
                    (_transfer(p, i, j, step), q) if target_p else (p, _transfer(q, i, j, step))
                )
                ratio = _battery(ref, cand_p, cand_q, epsilon, rng, agg)
                used += 1
                done += 1
                if ratio is not None and (best is None or ratio > best):
                    best = ratio
                    p, q = cand_p, cand_q
                else:
                    step *= 0.5
        else:
            p, q, r = _sample_pair(mode, dim, scale, rng)
            _battery(_Reference(fam, dim, r), p, q, epsilon, rng, agg)
            done += 1
    _lap(timings, run, None, done)

    return ScanReport(
        trials=done,
        worst_ratio=agg.worst,
        witness=agg.worst_witness,
        per_bound=agg.per_bound(),
        support_errors=agg.support_errors,
        config=config,
        violations=agg.violations,
        timings=timings,
    )
