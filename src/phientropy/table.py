"""The check table: which inequalities apply to an input, and their two sides.

:data:`CHECKS` is the single ordered table of rows ``(bound_id,
precondition, evaluate)``, and :func:`walk` the one place that evaluates
them: :mod:`phientropy.bounds` calls it for the ``bounds`` command, the
``check_*`` functions and the stability scan, checks the inputs before and
picks the results after.  A row reads a :class:`_Batch`: inputs side by
side, one lane each, whose shared quantities (tv, I(p), I(q), d(p, q),
I(p sym q), h_r, ...) are computed once for all lanes, passing the
``big_f_drop`` arguments of each family's lanes through one kernel call.
What depends only on the family, N and the reference pdf sits in a
:class:`_Layout`, which the scan keeps for a hill-climb restart.  Rows
evaluate over arrays of lanes; a single input is a batch of one.
:func:`condition1_delta`, the segment row's radius, lives here too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainError,
    FamilyError,
    IdenticalPdfs,
    InfeasibleEpsilon,
    ParamError,
    PhiEntropyError,
    RangeError,
    SupportError,
)
from .families import LogFamily, big_f_drop_unchecked, ln_phi_unchecked
from . import numerics
from .numerics import sum_compensated


# ---------------------------------------------------------------------------
# per-input context

_OVERFLOW = "reference weight too small: a ratio to r overflows"
_BARE = "r has zero weight where p and q differ"
_PAD, _UNIT = np.zeros(1), np.ones(1)


def _all_finite(a: np.ndarray) -> bool:
    # Half the cost of np.isfinite(a).all() on the few-element arrays of a scan.
    return np.count_nonzero(np.isfinite(a)) == a.size


class _Layout:
    """The inputs of a :class:`_Batch` but for their pdfs p and q, one lane each.

    Lane i has family ``fams[i]``, length ``ns[i]`` and reference pdf
    ``rs[i]`` (or None), and owns rows ``off[i]`` to ``off[i + 1] - 1`` of
    the batch's flat arrays: one row per pdf entry, then one row that
    carries the lane's two scalar kernel arguments.  Per row, ``rdiv`` is r
    with its zeros set to 1 (and 1 without r), ``zero`` marks r = 0, and
    ``ln2`` holds ln_phi(1/r), ln_phi(r), 0 where r = 0; per lane, ``lb_lhs``
    is the left side of ``lb`` and ``i_max`` = omega(N).  ``rows`` gives
    each lane's rows as (layout, lane) of a layout that computed them, so
    that the scan computes a hill-climb restart's reference values once.
    Lanes of one family next to each other share kernel calls.
    """

    def __init__(self, fams, ns, rs, rows=None):
        self.fams, self.ns, self.rs, self.size = fams, ns, rs, len(fams)
        sizes = [n + 1 for n in ns]
        self.off = off = [0, *itertools.accumulate(sizes)]
        self.spans = [(a, b - 1) for a, b in zip(off, off[1:])]
        self.scalar_rows = np.array(off[1:]) - 1
        self.lane_of_row = np.repeat(np.arange(self.size), sizes)
        self.n = np.array(ns, dtype=float)
        self.f0 = np.array([fam.f_zero for fam in fams])
        self.f0_rows = self.f0[self.lane_of_row]
        self.no_r = np.array([r is None for r in rs])
        kinds = [fam.kind for fam in fams]
        self.tsallis = np.array([k == "tsallis" for k in kinds])
        self.shannon = np.array([k == "shannon" for k in kinds])
        # Runs of lanes with one family: [family, first lane, end lane].
        self.groups = []
        for i, fam in enumerate(fams):
            if self.groups and self.groups[-1][0] is fam:
                self.groups[-1][2] = i + 1
            else:
                self.groups.append([fam, i, i + 1])
        if rows is None:
            self._reference_values()
        else:
            pick = lambda a, x, i: a[..., x.off[i] : x.off[i + 1]]
            for name in ("rdiv", "zero", "ln2", "over"):
                setattr(self, name, np.concatenate([pick(getattr(x, name), x, i) for x, i in rows], axis=-1))
            self.lb_lhs = np.array([x.lb_lhs[i] for x, i in rows])
            self.i_max = [x.i_max[i] for x, i in rows]
        finite = np.isfinite(self.ln2)
        # ln_phi of a subnormal r can be infinite: such a lane sums over the
        # entries where p and q differ (see _Batch._odd_lane).
        self.ln2_rows = self.ln2 if finite.all() else np.where(finite, self.ln2, 0.0)
        self.any_zero = bool(self.zero.any())
        # Lanes whose relative-entropy values need more than the plain sums:
        # r with zeros, an infinite ln_phi(r) or an overflowing 1/r.
        odd = self.zero | ~finite.all(axis=0) | self.over
        self.odd = [i for i in np.add.reduceat(odd, off[:-1]).nonzero()[0].tolist() if rs[i] is not None]

    def _reference_values(self):
        # Each lane's r, or ones without one, then a row of one.
        rs = zip(self.ns, self.rs)
        w = np.concatenate([x for n, r in rs for x in (np.ones(n) if r is None else r.weights, _UNIT)])
        self.zero = w == 0
        self.rdiv = np.where(self.zero, 1.0, w)
        # 1/r overflows only where r is subnormal.  Such entries get
        # ln_phi(1) = 0 here, and h_r raises wherever p and q differ on one.
        inv = 1.0 / self.rdiv
        self.over = np.isinf(inv)
        inv[self.over] = 1.0
        self.ln2 = np.empty((2, w.size))
        self.lb_lhs, self.i_max = np.empty(self.size), []
        for fam, first, end in self.groups:
            a, b = self.off[first], self.off[end]
            ln = ln_phi_unchecked(fam, np.concatenate(((0.5,), inv[a:b], self.rdiv[a:b])))
            self.ln2[:, a:b] = ln[1:].reshape(2, b - a)
            self.lb_lhs[first:end] = -fam.f_zero - float(ln[0])
            ns = self.ns[first:end]
            drops = big_f_drop_unchecked(fam, 1.0 / np.array(ns, dtype=float)).tolist()
            self.i_max += [n * g - fam.f_zero for n, g in zip(ns, drops)]
        self.ln2[:, self.zero] = 0.0


# Columns of a batch's kernel arguments, one row per pdf entry: p, q, the
# symmetric difference |p - q| / tv, the segment mixtures, |p - q|, and
# relent_I's q/r and p/r.  A lane's scalar row holds omega(N / tv)'s
# argument tv / N in column P and min(tv, 1) in column Q.
_P, _Q, _SYM, _MIX_LAM, _MIX_MU, _DIFF, _Q_R, _P_R = range(8)


class _Batch:
    """Inputs of the check table side by side, one lane each.

    The constructor forms |p - q| and tv for every lane (a :class:`Pdf` has
    finite, nonnegative weights, and the caller has checked the lengths).
    :meth:`evaluate` then computes everything the table reads: it passes all
    ``big_f_drop`` arguments of the lanes of one family through one kernel
    call, forms the shared arrays once for all lanes, and sums each lane's
    slice with ``math.fsum``, as ``sum_compensated`` does.  Each value keeps
    the arithmetic of the public function it stands for; + - * / and
    comparisons are correctly
    rounded in numpy as in Python, so forming them over arrays of lanes
    changes no bit, and a lane's value does not depend on the other lanes.
    An error a value's public function would raise (a ratio to r, or F at
    one, that overflows, an unsupported limit, omega at an infinite x) is
    kept per lane and recorded by the row that reads the value, so errors
    still come in table order.
    """

    def __init__(self, layout: _Layout, ps, qs):
        self.layout, self.p, self.q = layout, ps, qs
        self.pw = np.concatenate([w for p in ps for w in (p.weights, _PAD)])
        self.qw = np.concatenate([w for q in qs for w in (q.weights, _PAD)])
        self.diff = np.abs(self.pw - self.qw)
        diff = self.diff.tolist()
        # math.fsum is what sum_compensated does with a list; the per-lane
        # sums call it directly, since the wrapper's type check costs about
        # a third of their time.
        self.tv_list = [math.fsum(diff[a:b]) for a, b in layout.spans]
        self.tv = np.array(self.tv_list)
        self.errors = [None] * layout.size

    def fail(self, lanes: np.ndarray, errors: dict) -> None:
        """Record ``errors[i]`` for each lane i of ``lanes`` that has no error yet."""
        for i, error in errors.items():
            if lanes[i] and self.errors[i] is None:
                self.errors[i] = error

    def evaluate(self, segments, deltas) -> "_Batch":
        """Compute the table's shared values.

        ``segments[i]`` is lane i's (lam, mu, epsilon), lam and mu in
        [0, 1], or None, and ``deltas[i]`` the radius
        condition1_delta(fam, epsilon) of a lane with a segment and
        distinct pdfs (any value elsewhere).  The caller checks and looks
        up both.
        """
        lay, tv, pw, qw, diff = self.layout, self.tv, self.pw, self.qw, self.diff
        self.segment, self.delta = segments, deltas
        self.has_segment = np.array([seg is not None for seg in segments])
        # Columns lam, mu, epsilon; a lane without a segment reads zeros.
        seg = np.array([(0.0, 0.0, 0.0) if s is None else s for s in segments])
        self.lam, self.mu, self.epsilon = seg.T
        self.identical = tv == 0.0
        tv_div = np.where(self.identical, 1.0, tv)
        # The mixtures lam p + (1 - lam) q and mu p + (1 - mu) q.
        weights = seg[lay.lane_of_row, :2]
        mixtures = weights * pw[:, None] + (1.0 - weights) * qw[:, None]
        columns = (pw, qw, diff / tv_div[lay.lane_of_row], mixtures, diff, qw / lay.rdiv, pw / lay.rdiv)
        args = np.concatenate([c.reshape(pw.size, -1) for c in columns], axis=1)
        # omega(N / tv) as omega_phi forms it: x * big_f_drop(1 / x) - F(0)
        self.x_cont2 = lay.n / tv_div
        args[lay.scalar_rows, _P] = 1.0 / self.x_cont2
        args[lay.scalar_rows, _Q] = np.minimum(tv, 1.0)
        # A ratio to a tiny r that overflows is kept out of the kernel.
        self.overflow = {}
        ratios = args[:, _Q_R:]
        if not _all_finite(ratios):
            finite = np.isfinite(ratios)
            self._flag_overflow(finite)
            ratios[~finite] = 1.0
        flat = args.reshape(-1)
        g = np.concatenate([
            big_f_drop_unchecked(fam, flat[8 * lay.off[first] : 8 * lay.off[end]])
            for fam, first, end in lay.groups
        ]).reshape(args.shape)
        if not _all_finite(g[:, _Q_R:]):
            self._flag_overflow(np.isfinite(g[:, _Q_R:]))
        self.g_cont2, self.g_improved = g[lay.scalar_rows, :2].T
        # The summands, one row each: the entropy terms big_f_drop(w) - w F(0)
        # of p, q, the symmetric difference and the two mixtures; d's terms;
        # h_r's and e_r's; relent_D's cross terms (p - q) ln_phi(r); and
        # relent_I's per-coordinate integral form (p - q) F(0) + r (g(q/r) - g(p/r)).
        # Where p and q differ, bare coordinates and r > 0 partition the
        # support of diff (x - y == 0 exactly when x == y in floating point).
        # ln2 is 0 where r = 0, and diff is 0 where p and q agree: a finite
        # ln2 makes those terms zeros, which leave the sums' bits unchanged
        # (see sum_compensated).  The odd lanes are summed again below.
        dpq = pw - qw
        summands = np.empty((10, pw.size))
        np.multiply(args[:, :_DIFF].T, lay.f0_rows, out=summands[:5])
        np.subtract(g[:, :_DIFF].T, summands[:5], out=summands[:5])
        summands[5] = g[:, _DIFF]
        np.multiply(diff, lay.ln2_rows, out=summands[6:8])
        np.multiply(dpq, lay.ln2_rows[1], out=summands[8])
        relent = summands[9]
        np.subtract(g[:, _Q_R], g[:, _P_R], out=relent)
        relent *= lay.rdiv
        relent += dpq * lay.f0_rows
        if lay.any_zero:
            relent[lay.zero] = 0.0
        sums = [[math.fsum(col[a:b]) for a, b in lay.spans] for col in summands.tolist()]
        (self.ent_p, self.ent_q, self.ent_sym, self.mix_lam, self.mix_mu,
         self.d, self.h, e, self.cross, self.relent) = np.array(sums)
        self.e = -e
        self.gap = np.abs(self.ent_p - self.ent_q)
        self.supported = np.ones(lay.size, dtype=bool)
        self.h_error, self.e_error = {}, {}
        for i in lay.odd:
            self._odd_lane(i)
        return self

    def _flag_overflow(self, finite: np.ndarray) -> None:
        for i, (a, b) in enumerate(self.layout.spans):
            if not finite[a:b].all():
                self.overflow[i] = DomainError(_OVERFLOW)

    def _odd_lane(self, i: int) -> None:
        """Support, h_r, e_r and the relative-entropy sums of lane i, from its own entries."""
        lay, fam = self.layout, self.layout.fams[i]
        a, b = lay.spans[i]
        pw, qw, diff = self.pw[a:b], self.qw[a:b], self.diff[a:b]
        zero, ln2, over = lay.zero[a:b], lay.ln2[:, a:b], lay.over[a:b]
        bare = (diff > 0) & zero
        any_bare = bool(bare.any())
        self.supported[i] = not any_bare or (fam.omega_at_zero_finite and math.isfinite(fam.ln_at_zero))
        h, e, cross = self.h[i], -self.e[i], self.cross[i]
        if not _all_finite(ln2):
            # An infinite ln2 would make the zero terms NaN: sum over the moved entries.
            moved = diff > 0
            h_terms, e_terms = (diff[moved] * ln2[:, moved]).tolist()
            h, e = sum_compensated(h_terms), sum_compensated(e_terms)
            dpq, ln_r = (pw - qw)[~zero], ln2[1, ~zero]
            moved = dpq != 0
            cross = sum_compensated(dpq[moved] * ln_r[moved])
        if any_bare:
            mass = sum_compensated(pw[bare] - qw[bare])
            bare_abs = sum_compensated(diff[bare])
            h += fam.ln_sup * bare_abs
            e += fam.ln_at_zero * bare_abs
            cross += fam.ln_at_zero * mass
            self.relent[i] += -fam.omega_at_zero * mass
            if not math.isfinite(fam.ln_sup):
                self.h_error[i] = SupportError(_BARE)
            if not math.isfinite(fam.ln_at_zero):
                self.e_error[i] = SupportError(_BARE)
        if i not in self.h_error and (diff[over] > 0).any():
            self.h_error[i] = DomainError(_OVERFLOW)
        self.h[i], self.e[i], self.cross[i] = h, -e, cross


# ---------------------------------------------------------------------------
# the check table
#
# A precondition returns (lanes, reason) pairs, in priority order: the check
# skips the lanes of a mask for its reason.  A reason is a string or a
# function of the lane.  A skip refuses the lane with the error type below
# (RangeError for the reasons not listed): _NOT_APPLICABLE, a FamilyError,
# means the check does not concern the input (wrong family, no reference, no
# segment), and ``run_bound_checks`` lists every other refusal as skipped.
# An evaluator returns the (lhs, rhs) arrays of every lane, meaningful where
# the check applies.

_NOT_APPLICABLE = "not applicable"
_SUPPORT = "r vanishes where p and q differ"
_IDENTICAL = "identical pdfs"
_REFUSALS = {_NOT_APPLICABLE: FamilyError, _SUPPORT: SupportError, _IDENTICAL: IdenticalPdfs}


def _pre_always(b: _Batch) -> tuple:
    return ()


def _pre_distinct(b: _Batch) -> tuple:
    return ((b.identical, _IDENTICAL),)


def _pre_improved(b: _Batch) -> tuple:
    return ((b.identical, _IDENTICAL), (b.tv > 1.0, "tv > 1"))


def _pre_lesche3(b: _Batch) -> tuple:
    return ((~b.layout.tsallis, _NOT_APPLICABLE),)


def _pre_lesche4(b: _Batch) -> tuple:
    return ((~b.layout.shannon, _NOT_APPLICABLE),)


def _pre_fannes(b: _Batch) -> tuple:
    return ((~b.layout.shannon, _NOT_APPLICABLE), (b.tv > 1.0 / 3.0, "tv > 1/3"))


def _pre_relent(b: _Batch) -> tuple:
    return ((b.layout.no_r, _NOT_APPLICABLE), (~b.supported, _SUPPORT))


def _pre_segment(b: _Batch) -> tuple:
    delta = np.array(b.delta)
    spread = np.abs(b.lam - b.mu) * b.tv

    def hypothesis(i: int) -> str:
        return f"hypothesis violated: |lam-mu|*tv = {float(spread[i])} > delta = {float(delta[i])}"

    return (
        (~b.has_segment, _NOT_APPLICABLE),
        (b.identical, _IDENTICAL),
        (spread > delta * (1.0 + 1e-12), hypothesis),
    )


def _eval_cont1(b: _Batch, lanes):
    return b.gap, b.d


def _eval_lb(b: _Batch, lanes):
    return b.layout.lb_lhs, b.ent_sym


def _eval_cont2(b: _Batch, lanes):
    x, f0 = b.x_cont2, b.layout.f0
    infinite = lanes & ~(x < math.inf)
    if infinite.any():
        lanes_at = infinite.nonzero()[0].tolist()
        b.fail(infinite, {i: DomainError("omega_phi requires finite x > 0") for i in lanes_at})
    return b.gap, b.tv * (f0 + (x * b.g_cont2 - f0))


def _eval_improved(b: _Batch, lanes):
    f0 = b.layout.f0
    return b.gap, (b.g_improved / f0) * (f0 + b.ent_sym)


# The rows below raise tv to a power or take its logarithm: libm and
# numpy's SIMD loops may round those differently, so they stay per lane.


def _per_lane(b: _Batch, lanes, rhs: Callable[[float, int], float]):
    out = np.zeros(b.layout.size)
    for i in lanes.nonzero()[0].tolist():
        out[i] = rhs(b.tv_list[i], i)
    return b.gap, out


def _eval_lesche3(b: _Batch, lanes):
    def rhs(tv, i):
        k, i_max = b.layout.fams[i].kappa, b.layout.i_max[i]
        return (1.0 + 1.0 / k) * tv + (i_max - 1.0 / k) * tv ** (1.0 + k)

    return _per_lane(b, lanes, rhs)


def _eval_lesche4(b: _Batch, lanes):
    i_max = b.layout.i_max
    return _per_lane(b, lanes, lambda tv, i: (1.0 + i_max[i]) * tv - (tv * math.log(tv) if tv > 0 else 0.0))


def _eval_fannes(b: _Batch, lanes):
    i_max = b.layout.i_max
    return _per_lane(b, lanes, lambda tv, i: i_max[i] * tv - (tv * math.log(tv) if tv > 0 else 0.0))


def _eval_relent_i(b: _Batch, lanes):
    # The per-coordinate integral form keeps full precision when p ~ q.
    b.fail(lanes, b.overflow)
    b.fail(lanes, b.h_error)
    return np.abs(b.relent), b.d + b.h


def _eval_relent_d(b: _Batch, lanes):
    # D(p|r) - D(q|r) = I(q) - I(p) - sum (p - q) ln_phi(r), over p != q when ln_phi(r) can be inf.
    b.fail(lanes, b.e_error)
    return np.abs(b.ent_q - b.ent_p - b.cross), b.d + b.e


def _eval_segment(b: _Batch, lanes):
    return np.abs(b.mix_lam - b.mix_mu), b.epsilon * b.ent_sym


@dataclass(frozen=True)
class Check:
    """One row of the check table.

    ``precondition`` gives the lanes of a batch the bound skips, and why
    (see above); ``evaluate`` returns its (lhs, rhs) arrays, given the lanes
    it applies to.  ``with_r`` / ``with_params`` put the reference pdf / the
    segment's (lam, mu, epsilon) into the digest and the scan witness.
    """

    bound_id: str
    precondition: Callable[[_Batch], tuple]
    evaluate: Callable[[_Batch, np.ndarray], tuple]
    with_r: bool = False
    with_params: bool = False


CHECKS = (
    Check("cont1", _pre_always, _eval_cont1),
    Check("lb", _pre_distinct, _eval_lb),
    Check("cont2", _pre_distinct, _eval_cont2),
    Check("improved", _pre_improved, _eval_improved),
    Check("lesche3", _pre_lesche3, _eval_lesche3),
    Check("lesche4", _pre_lesche4, _eval_lesche4),
    Check("fannes", _pre_fannes, _eval_fannes),
    Check("relent_I", _pre_relent, _eval_relent_i, with_r=True),
    Check("relent_D", _pre_relent, _eval_relent_d, with_r=True),
    Check("condition1_segment", _pre_segment, _eval_segment, with_params=True),
)


def _applies(skips: tuple, size: int) -> np.ndarray:
    """The lanes a precondition's (lanes, reason) pairs leave to the check."""
    if not skips:
        return np.ones(size, dtype=bool)
    skipped = skips[0][0]
    for lanes, _ in skips[1:]:
        skipped = skipped | lanes
    return ~skipped


def _refusal(bound_id: str, skips: tuple, i: int) -> Optional[PhiEntropyError]:
    """The error with which a check whose precondition gave ``skips`` refuses lane i, or None."""
    for lanes, reason in skips:
        if lanes[i]:
            text = reason(i) if callable(reason) else reason
            return _REFUSALS.get(text, RangeError)(f"{bound_id}: {text}")
    return None


def walk(b: _Batch, rows: tuple) -> tuple:
    """Evaluate ``rows`` of :data:`CHECKS` over an evaluated batch.

    Returns (skips, applied, lhs, rhs): per row, a function that gives the
    error with which the row refuses a lane, or None where it applies; and
    the (rows, lanes) arrays of where each row applies and of its two sides.
    An error a row's value raises is recorded in ``b.errors``.
    """
    walked = []
    for check in rows:
        pairs = check.precondition(b)
        on = _applies(pairs, b.layout.size)
        walked.append((partial(_refusal, check.bound_id, pairs), on, *check.evaluate(b, on)))
    skips, applied, lhs, rhs = zip(*walked)
    return skips, np.array(applied), np.array(lhs), np.array(rhs)


# Kernels overflow on purpose at tiny reference weights and the evaluators
# raise on the results; a lane that does not meet a row's precondition holds
# values the row never reports.  Neither may print a numpy warning.
_QUIET = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


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
    def coeff(delta: np.ndarray) -> np.ndarray:
        return big_f_drop_unchecked(fam, delta) / f0 * amp

    if float(coeff(np.asarray(1.0))) <= epsilon:
        return 1.0
    # coeff(0) = 0 < epsilon, so [0, 1] is a certified bracket; for families
    # whose logarithm is heavy at the origin the radius can be very small
    # (e.g. ~1e-14 for tsallis kappa = -0.9), which plain bisection handles.
    # Through the module, where tracing tools patch it.
    return numerics.bisect_monotone(coeff, epsilon, 0.0, 1.0, tol=1e-12)
