"""The check table: which inequalities apply to an input, and their two sides.

:data:`CHECKS` is the single ordered table of rows, each a bound id, the
names of its skip masks and the names of the values its two sides read, and
:func:`walk` the one place that evaluates them: :mod:`phientropy.bounds`
calls it for the ``bounds`` command and the ``check_*`` functions, and
:mod:`phientropy.scan` for the stability scan; both check the inputs before
and pick the results after, and both report a row's outcome on one input as
a :class:`BoundReport`, which :func:`_report` forms.  A row reads a
:class:`_Batch`: inputs side by side, one lane each, whose shared quantities
(tv, I(p), I(q), d(p, q), I(p sym q), h_r, ...) are computed once for all
lanes, and only where a value asked for reads them, passing the
``big_f_drop`` arguments of each family's lanes through one kernel call.
What depends only on the family, N and the reference pdf sits in a
:class:`_Layout`, which the scan keeps for a hill-climb restart.  Rows
evaluate over arrays of lanes; a single input is a batch of one, and every
lane takes one path: a reference pdf that vanishes or underflows where p
and q differ is handled inside :meth:`_Batch.evaluate`'s vectorized sums.
Each skip mask in ``_MASKS`` names the lanes it skips, the error type it
refuses them with and the reason, from which :func:`_refusal` forms a
refusal.  :func:`condition1_radii` solves the segment row's radii, and
:func:`condition1_delta` is its cached one-pair call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import struct
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

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
from .distributions import Pdf
from .families import LogFamily, big_f_drop_unchecked, family_to_json, ln_phi_unchecked, omega_phi_unchecked
from . import numerics


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
    ``rs[i]`` (None in every lane or in none), and owns rows ``off[i]`` to
    ``off[i + 1] - 1`` of the batch's flat arrays: one row per pdf entry,
    then one row that carries the lane's two scalar kernel arguments.  A
    layout with r has its reference values: per row, ``rdiv`` is r with its
    zeros set to 1, ``zero`` marks r = 0 (``any_zero`` if it marks any),
    ``over`` marks where 1/r overflows, and ``ln2`` holds ln_phi(1/r),
    ln_phi(r) (-inf at a subnormal r for some families), 0 where r = 0 and
    ln_phi(1) = 0 where 1/r overflows.  Per lane, ``lb_lhs`` is the left
    side of ``lb`` and ``i_max`` = omega(N), one kernel call per run of one
    family; each is computed when first read, but for ``lb_lhs`` in a layout
    with r, which shares the reference values' kernel call.  ``rows`` gives each lane's rows as
    (layout, lane) of a layout that holds them, so that the scan computes a
    hill-climb restart's reference values once; one index array picks them.
    Lanes of one family next to each other share kernel calls.
    """

    def __init__(self, fams, ns, rs, rows=None):
        self.fams, self.ns, self.rs, self.size = fams, ns, rs, len(fams)
        sizes = [n + 1 for n in ns]
        self.off = off = [0, *itertools.accumulate(sizes)]
        # Each lane's pdf-entry rows, which its sums read.
        self.entries = [slice(a, b - 1) for a, b in zip(off, off[1:])]
        self.f0 = np.array([fam.f_zero for fam in fams])
        self.f0_rows = np.repeat(self.f0, sizes)
        self.has_r = rs[0] is not None
        # Runs of lanes with one family: [family, first lane, end lane].
        self.groups = []
        for i, fam in enumerate(fams):
            if self.groups and self.groups[-1][0] is fam:
                self.groups[-1][2] = i + 1
            else:
                self.groups.append([fam, i, i + 1])
        if rows is not None:
            # The rows of the source layouts one after another, and where each lane's start.
            sources = list(dict.fromkeys(x for x, _ in rows))
            first = dict(zip(sources, itertools.accumulate((x.off[-1] for x in sources), initial=0)))
            starts = np.array([first[x] + x.off[i] for x, i in rows])
            pick = np.repeat(starts - off[:-1], sizes) + np.arange(off[-1])
            for name in ("rdiv", "zero", "ln2", "over"):
                setattr(self, name, np.concatenate([getattr(x, name) for x in sources], axis=-1)[..., pick])
            self.lb_lhs = np.array([x.lb_lhs[i] for x, i in rows])
            self.i_max = [x.i_max[i] for x, i in rows]
        elif self.has_r:
            self._reference_values()
        self.any_zero = self.has_r and bool(np.count_nonzero(self.zero))
        self.ln_infinite = self.has_r and not _all_finite(self.ln2)

    def _reference_values(self):
        # Each lane's r, then a row of one.
        w = np.concatenate([x for r in self.rs for x in (r.weights, _UNIT)])
        self.zero = w == 0
        self.rdiv = np.where(self.zero, 1.0, w)
        # 1/r overflows only where r is subnormal.  Such entries get
        # ln_phi(1) = 0 here, and h_r raises wherever p and q differ on one.
        inv = 1.0 / self.rdiv
        self.over = np.isinf(inv)
        inv[self.over] = 1.0
        self.ln2 = np.empty((2, w.size))
        self.lb_lhs = np.empty(self.size)
        for fam, first, end in self.groups:
            a, b = self.off[first], self.off[end]
            ln = ln_phi_unchecked(fam, np.concatenate(((0.5,), inv[a:b], self.rdiv[a:b])))
            self.ln2[:, a:b] = ln[1:].reshape(2, b - a)
            self.lb_lhs[first:end] = -fam.f_zero - float(ln[0])
        self.ln2[:, self.zero] = 0.0

    def lanes(self, rows: np.ndarray) -> np.ndarray:
        """The mask of the lanes that own a row ``rows`` marks."""
        return np.add.reduceat(rows, self.off[:-1]) > 0

    # What only some values and masks read, formed when first read.

    @cached_property
    def limits(self) -> np.ndarray:
        """Rows ln_sup, ln_phi(0+) and -omega(0+) over the lanes: per unit of
        |p - q| or p - q, what a bare coordinate adds to h_r, e_r, the cross
        sum and relent_I."""
        return np.array([(fam.ln_sup, fam.ln_at_zero, -fam.omega_at_zero) for fam in self.fams]).T

    @cached_property
    def lane_of_row(self) -> np.ndarray:
        return np.repeat(np.arange(self.size), [n + 1 for n in self.ns])

    @cached_property
    def scalar_rows(self) -> np.ndarray:
        return np.array(self.off[1:]) - 1

    @cached_property
    def n(self) -> np.ndarray:
        return np.array(self.ns, dtype=float)

    @cached_property
    def tsallis(self) -> np.ndarray:
        return np.array([fam.kind == "tsallis" for fam in self.fams])

    @cached_property
    def shannon(self) -> np.ndarray:
        return np.array([fam.kind == "shannon" for fam in self.fams])

    @cached_property
    def lb_lhs(self) -> np.ndarray:
        out = np.empty(self.size)
        for fam, first, end in self.groups:
            out[first:end] = -fam.f_zero - float(ln_phi_unchecked(fam, np.array([0.5]))[0])
        return out

    @cached_property
    def i_max(self) -> list:
        return [v for fam, first, end in self.groups for v in omega_phi_unchecked(fam, self.n[first:end]).tolist()]


# The kernel-argument columns a batch can form, one row per pdf entry: p, q,
# the symmetric difference |p - q| / tv, the segment mixtures
# lam p + (1 - lam) q and mu p + (1 - mu) q, |p - q|, and relent_I's q/r and
# p/r.  A lane's scalar row holds tv / N in column p where a value reads
# "tv/N" (cont2's N g(tv / N)), and min(tv, 1) in column q where one reads
# "g_tv".  Each of the first five columns gives an entropy sum, named here.
_COLUMNS = ("p", "q", "sym", "lam", "mu", "diff", "q/r", "p/r")
_ENTROPIES = ("ent_p", "ent_q", "ent_sym", "mix_lam", "mix_mu")


@lru_cache(maxsize=64)
def _reads(values: tuple, has_r: bool, any_zero: bool) -> tuple:
    """What :meth:`_Batch.evaluate` forms for ``values``: the set of what they
    read, the kernel-argument columns in order, the number of entropy
    columns among them (which come first), and the sums in summand-row order.
    The sums ``bare`` and ``bare_mass``, of |p - q| and p - q where r = 0,
    come with h_r's where r has a zero."""
    reads = set().union(*(_VALUES[v].reads for v in values))
    if not has_r:
        reads -= {"r", "q/r", "p/r"}
    cols = [c for c in _COLUMNS if c in reads]
    sums = [_ENTROPIES[_COLUMNS.index(c)] for c in cols if c in _COLUMNS[:5]]
    m = len(sums)
    sums += ["d"] * ("diff" in reads)
    if "r" in reads:
        sums += ["h", "e", "cross"] + ["bare", "bare_mass"] * any_zero
    sums += ["relent"] * ("q/r" in reads)
    return reads, cols, m, sums


class _Batch:
    """Inputs of the check table side by side, one lane each.

    The constructor forms |p - q| and tv for every lane (a :class:`Pdf` has
    finite, nonnegative weights, and the caller has checked the lengths).
    :meth:`evaluate` then computes what the values asked for read: it
    passes the ``big_f_drop`` arguments of the lanes of one family through
    one kernel call, forms the shared arrays once for all lanes, and sums
    each lane's slice with ``math.fsum``, as ``sum_compensated`` does.  Each
    value keeps the arithmetic of the public function it stands for;
    + - * / and comparisons are correctly rounded in numpy as in Python, so
    forming them over arrays of lanes changes no bit, and a lane's value
    depends neither on the other lanes nor on the other values asked for.
    An error a value's public function would raise (a ratio to r, or F at
    one, that overflows, an unsupported limit, a sum of +inf and -inf) is
    kept per lane and recorded by the first row that reads the value where
    it applies, so errors still come in table order.  The reference-pdf
    edge cases take no lane of their own: an infinite ln_phi(r) meets only
    exact-zero terms where p and q agree, and a bare coordinate (p != q,
    r = 0) enters through two more per-lane sums, of |p - q| and p - q
    there, which :meth:`_bare_limits` scales by the family's limits at 0+.
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
        self.tv_list = list(map(math.fsum, map(diff.__getitem__, layout.entries)))
        self.tv = np.array(self.tv_list)
        self.errors = [None] * layout.size

    def evaluate(self, segments, deltas, values) -> "_Batch":
        """Compute what the named :data:`_VALUES` read.

        ``segments[i]`` is lane i's (lam, mu, epsilon), lam and mu in
        [0, 1], or None, and ``deltas[i]`` the radius
        condition1_delta(fam, epsilon) of a lane with a segment and
        distinct pdfs (any value elsewhere).  The caller checks and looks
        up both.  A layout without r forms nothing that reads r: the values
        that do read zeros there, where the rows that read them never apply.
        """
        lay, tv, pw, qw, diff = self.layout, self.tv, self.pw, self.qw, self.diff
        self.segment, self.deltas = segments, deltas
        self.identical = tv == 0.0
        reads, cols, m, names = _reads(tuple(values), lay.has_r, lay.any_zero)
        formed = {"p": pw, "q": qw, "diff": diff}
        if "sym" in reads:  # over tv, and over 1 where tv is 0
            formed["sym"] = diff / (tv + self.identical)[lay.lane_of_row]
        if "lam" in reads or "mu" in reads:
            w = self.seg[:2, lay.lane_of_row]
            formed["lam"], formed["mu"] = w * pw + (1.0 - w) * qw
        if "q/r" in reads:
            formed["q/r"], formed["p/r"] = qw / lay.rdiv, pw / lay.rdiv
        self.overflow, self.cross_error = {}, {}
        if cols:
            # One column per kernel argument, as the kernel's flat slices read them.
            columns = np.array([formed[c] for c in cols])
            args = columns.T.copy()
            if "tv/N" in reads:
                args[lay.scalar_rows, cols.index("p")] = tv / lay.n
            if "g_tv" in reads:
                args[lay.scalar_rows, cols.index("q")] = np.minimum(tv, 1.0)
            # A ratio to a tiny r that overflows is kept out of the kernel.
            overflowed = np.zeros(pw.size, dtype=bool)
            if "q/r" in reads and not _all_finite(args[:, -2:]):
                infinite = ~np.isfinite(args[:, -2:])
                overflowed |= infinite.any(axis=1)
                args[:, -2:][infinite] = 1.0
            k, flat = len(cols), args.reshape(-1)
            parts = [
                big_f_drop_unchecked(fam, flat[k * lay.off[first] : k * lay.off[end]])
                for fam, first, end in lay.groups
            ]
            g = (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(args.shape)
            if "q/r" in reads and not _all_finite(g[:, -2:]):
                overflowed |= ~np.isfinite(g[:, -2:]).all(axis=1)
            if np.count_nonzero(overflowed):
                self.overflow = _lane_errors(lay.lanes(overflowed), DomainError, _OVERFLOW)
            if "tv/N" in reads:
                self.g_cont2 = g[lay.scalar_rows, cols.index("p")]
            if "g_tv" in reads:
                self.g_tv = g[lay.scalar_rows, cols.index("q")]
        # The summands, one row each: the entropy terms big_f_drop(w) - w F(0)
        # of the formed entropy columns; d's terms; h_r's and e_r's; relent_D's
        # cross terms (p - q) ln_phi(r); |p - q| and p - q at the bare
        # coordinates, where p and q differ and r = 0; and relent_I's
        # per-coordinate integral form (p - q) F(0) + r (g(q/r) - g(p/r)).
        # Where p and q differ, bare coordinates and r > 0 partition the
        # support of diff (x - y == 0 exactly when x == y in floating point).
        # The terms of h_r, e_r and the cross sum are exact zeros where p and
        # q agree, even where ln_phi(r) is infinite, and ln2 is 0 where r = 0;
        # zeros leave the sums' bits unchanged (see sum_compensated).
        summands = np.empty((len(names), pw.size))
        if m:
            np.multiply(columns[:m], lay.f0_rows, out=summands[:m])
            np.subtract(g[:, :m].T, summands[:m], out=summands[:m])
        if "diff" in reads:
            summands[m] = g[:, cols.index("diff")]
        if "r" in reads:  # which every value that reads q/r reads too
            dpq, at, moved = pw - qw, names.index("h"), diff > 0
            ln2 = np.where(moved, lay.ln2, 0.0)
            np.multiply(diff, ln2, out=summands[at : at + 2])
            np.multiply(dpq, ln2[1], out=summands[at + 2])
            if lay.ln_infinite:
                self.cross_error = _settle(summands[at + 2], lay)
            if lay.any_zero:
                summands[at + 3 : at + 5] = np.where(lay.zero, (diff, dpq), 0.0)
        if "q/r" in reads:
            relent = summands[-1]
            np.subtract(g[:, -2], g[:, -1], out=relent)
            relent *= lay.rdiv
            relent += dpq * lay.f0_rows
            if lay.any_zero:
                relent[lay.zero] = 0.0
            if self.overflow:
                _settle(relent, lay)
        sums = [list(map(math.fsum, map(col.__getitem__, lay.entries))) for col in summands.tolist()]
        # Each sum is the attribute of its name.
        self.__dict__.update(zip(names, np.array(sums).reshape(len(names), lay.size)))
        self.h_error, self.e_error = {}, {}
        if "r" in reads:
            if lay.any_zero:
                self._bare_limits("relent" in names)
            if np.count_nonzero(lay.over):
                # 1/r overflows where p and q differ: h_r raises, unless a bare coordinate's refusal came first.
                over = lay.lanes(lay.over & moved) & ~self.unsupported[0]
                self.h_error.update(_lane_errors(over, DomainError, _OVERFLOW))
            self.e = -self.e
        elif not lay.has_r:
            self.h = self.e = self.cross = self.relent = np.zeros(lay.size)
        return self

    def _bare_limits(self, relent: bool) -> None:
        """Add the limits at 0+ that the bare coordinates read to h_r, e_r
        (before its sign), the cross sum and, if ``relent``, relent_I, and
        refuse the lanes where a limit they read is infinite."""
        bare = self.bare > 0
        if not np.count_nonzero(bare):
            return
        (ln_sup, ln_0, omega_0), abs_, mass = self.layout.limits[:, bare], self.bare[bare], self.bare_mass[bare]
        self.h[bare] += ln_sup * abs_
        self.e[bare] += ln_0 * abs_
        self.cross[bare] += ln_0 * mass
        if relent:
            self.relent[bare] += omega_0 * mass
        # relent_I and h_r read omega(0+) and ln_sup, which are finite together;
        # relent_D and e_r read ln_phi(0+).
        self.unsupported = ~np.isfinite(self.layout.limits[[2, 1]]) & bare
        self.h_error, self.e_error = (_lane_errors(lanes, SupportError, _BARE) for lanes in self.unsupported)

    @cached_property
    def seg(self) -> np.ndarray:
        """Rows lam, mu and epsilon over the lanes; a lane without a segment reads zeros."""
        return np.array([(0.0, 0.0, 0.0) if s is None else s for s in self.segment]).T

    @cached_property
    def unsupported(self) -> np.ndarray:
        """The lanes that relent_I (row 0) and relent_D (row 1) refuse for support, set by :meth:`evaluate`."""
        return np.zeros((2, self.layout.size), dtype=bool)


def _settle(terms: np.ndarray, layout: _Layout) -> dict:
    """Zero the infinite terms of each lane whose terms hold both +inf and -inf, which math.fsum
    refuses, and return an overflow error for each such lane.  Only a ratio to r or a ln_phi(r)
    that overflows makes an infinite term, so the lane's values are refused anyway."""
    both = layout.lanes(terms == math.inf) & layout.lanes(terms == -math.inf)
    if not np.count_nonzero(both):
        return {}
    terms[both[layout.lane_of_row] & np.isinf(terms)] = 0.0
    return _lane_errors(both, DomainError, _OVERFLOW)


def _lane_errors(lanes: np.ndarray, error: type, text: str) -> dict:
    """A new ``error(text)`` for each lane ``lanes`` marks, by lane."""
    return {i: error(text) for i in lanes.nonzero()[0].tolist()}


# ---------------------------------------------------------------------------
# the check table
#
# A row names its skip masks and the values its two sides read.  A mask
# gives the lanes of a batch the row skips, the error type a skipped lane is
# refused with, and the reason: a string, or a function of the batch and the
# lane.  A FamilyError means the check does not concern the input (wrong
# family, no reference, no segment); ``run_bound_checks`` lists every other
# refusal as skipped.


def _hypothesis(b: _Batch, i: int) -> str:
    spread = abs(float(b.seg[0, i]) - float(b.seg[1, i])) * b.tv_list[i]
    return f"hypothesis violated: |lam-mu|*tv = {spread} > delta = {float(b.deltas[i])}"


_MASKS = {
    "identical pdfs": (lambda b: b.identical, IdenticalPdfs, "identical pdfs"),
    "tv > 1": (lambda b: b.tv > 1.0, RangeError, "tv > 1"),
    "tv > 1/3": (lambda b: b.tv > 1.0 / 3.0, RangeError, "tv > 1/3"),
    "not tsallis": (lambda b: ~b.layout.tsallis, FamilyError, "not applicable"),
    "not shannon": (lambda b: ~b.layout.shannon, FamilyError, "not applicable"),
    "no r": (lambda b: np.full(b.layout.size, not b.layout.has_r), FamilyError, "not applicable"),
    "unsupported r for I": (lambda b: b.unsupported[0], SupportError, "r vanishes where p and q differ"),
    "unsupported r for D": (lambda b: b.unsupported[1], SupportError, "r vanishes where p and q differ"),
    "no segment": (lambda b: np.array([s is None for s in b.segment]), FamilyError, "not applicable"),
    # |lam - mu| * tv beyond the radius
    "segment hypothesis": (
        lambda b: np.abs(b.seg[0] - b.seg[1]) * b.tv > np.array(b.deltas) * (1.0 + 1e-12), RangeError, _hypothesis
    ),
}


# The values below raise tv to a power or take its logarithm on the lanes of their kind: libm
# and numpy's SIMD loops may round those differently, so they stay per lane.


def _per_lane(b: _Batch, lanes, rhs: Callable[[float, int], float]) -> np.ndarray:
    out = np.zeros(b.layout.size)
    for i in lanes.nonzero()[0].tolist():
        out[i] = rhs(b.tv_list[i], i)
    return out


def _lesche3(b: _Batch, lanes) -> np.ndarray:
    fams, i_max = b.layout.fams, b.layout.i_max

    def rhs(tv, i):
        k = fams[i].kappa
        return (1.0 + 1.0 / k) * tv + (i_max[i] - 1.0 / k) * tv ** (1.0 + k)

    return _per_lane(b, lanes, rhs)


def _fannes(b: _Batch, lanes, extra: float) -> np.ndarray:
    i_max = b.layout.i_max
    return _per_lane(b, lanes, lambda tv, i: (extra + i_max[i]) * tv - (tv * math.log(tv) if tv > 0 else 0.0))


class _Value(NamedTuple):
    """A batch value: what it reads (kernel-argument columns, "tv/N" and
    "g_tv" for the scalar arguments, "r" for h_r's, e_r's and the cross
    sums), its array over the lanes, and the name of the batch's per-lane
    errors it carries, if any."""

    reads: tuple
    compute: Callable[[_Batch], np.ndarray]
    errors: Optional[str] = None


_VALUES = {
    "gap": _Value(("p", "q"), lambda b: np.abs(b.ent_p - b.ent_q)),
    "d": _Value(("diff",), lambda b: b.d),
    "ent_sym": _Value(("sym",), lambda b: b.ent_sym),
    "lb_lhs": _Value((), lambda b: b.layout.lb_lhs),
    # tv (F(0) + omega(N / tv)) = N g(tv / N)
    "cont2": _Value(("p", "tv/N"), lambda b: b.layout.n * b.g_cont2),
    "improved": _Value(
        ("q", "g_tv", "sym"), lambda b: (b.g_tv / b.layout.f0) * (b.layout.f0 + b.ent_sym)
    ),
    "lesche3": _Value((), lambda b: _lesche3(b, b.layout.tsallis)),
    "lesche4": _Value((), lambda b: _fannes(b, b.layout.shannon, 1.0)),
    "fannes": _Value((), lambda b: _fannes(b, b.layout.shannon, 0.0)),
    # The per-coordinate integral form keeps full precision when p ~ q.
    "relent_I": _Value(("q/r", "p/r", "r"), lambda b: np.abs(b.relent), "overflow"),
    "d + h": _Value(("diff", "r"), lambda b: b.d + b.h, "h_error"),
    # D(p|r) - D(q|r) = I(q) - I(p) - sum (p - q) ln_phi(r), over p != q when ln_phi(r) can be inf.
    "relent_D": _Value(("p", "q", "r"), lambda b: np.abs(b.ent_q - b.ent_p - b.cross), "cross_error"),
    "d + e": _Value(("diff", "r"), lambda b: b.d + b.e, "e_error"),
    "segment": _Value(("lam", "mu"), lambda b: np.abs(b.mix_lam - b.mix_mu)),
    "epsilon ent_sym": _Value(("sym",), lambda b: b.seg[2] * b.ent_sym),
    "h": _Value(("r",), lambda b: b.h, "h_error"),
    "e": _Value(("r",), lambda b: b.e, "e_error"),
}


@dataclass(frozen=True, eq=False)
class Check:
    """One row of the check table.

    ``skips`` names the :data:`_MASKS` of the lanes the bound skips, in
    priority order: a skipped lane is refused for the first that holds.
    ``sides`` names the :data:`_VALUES` its lhs and rhs read.  A row that
    skips "no r" / "no segment" puts r / the segment's (lam, mu, epsilon)
    into the digest and the scan witness.  A row is equal only to itself,
    so that a tuple of rows hashes fast as the key of its plan.
    """

    bound_id: str
    skips: tuple
    sides: tuple
    with_r = property(lambda self: "no r" in self.skips)
    with_params = property(lambda self: "no segment" in self.skips)


CHECKS = (
    Check("cont1", (), ("gap", "d")),
    Check("lb", ("identical pdfs",), ("lb_lhs", "ent_sym")),
    Check("cont2", ("identical pdfs",), ("gap", "cont2")),
    Check("improved", ("identical pdfs", "tv > 1"), ("gap", "improved")),
    Check("lesche3", ("not tsallis",), ("gap", "lesche3")),
    Check("lesche4", ("not shannon",), ("gap", "lesche4")),
    Check("fannes", ("not shannon", "tv > 1/3"), ("gap", "fannes")),
    Check("relent_I", ("no r", "unsupported r for I"), ("relent_I", "d + h")),
    Check("relent_D", ("no r", "unsupported r for D"), ("relent_D", "d + e")),
    Check(
        "condition1_segment", ("no segment", "identical pdfs", "segment hypothesis"), ("segment", "epsilon ent_sym")
    ),
)


class _Plan(NamedTuple):
    """What :func:`walk` needs of its rows, worked out once per rows tuple."""

    masks: list  # every mask a row names
    skips: np.ndarray  # (rows, masks): the masks each row skips
    values: tuple  # every value a side reads
    lhs: np.ndarray  # each row's lhs and rhs, as indices into values
    rhs: np.ndarray
    errors: list  # (row, value) of each side whose value carries errors, in table order


@lru_cache(maxsize=64)
def _plan(rows: tuple, also: tuple = ()) -> _Plan:
    masks = list(dict.fromkeys(m for c in rows for m in (*c.skips, *also)))
    values = tuple(dict.fromkeys(v for c in rows for v in c.sides))
    skips = np.array([[m in c.skips or m in also for m in masks] for c in rows], dtype=bool)
    side = [np.array([values.index(c.sides[j]) for c in rows], dtype=np.intp) for j in (0, 1)]
    return _Plan(
        masks, skips.reshape(len(rows), len(masks)), values, *side,
        [(k, v) for k, c in enumerate(rows) for v in c.sides if _VALUES[v].errors],
    )


def reads(rows: tuple) -> tuple:
    """The names of the values ``rows`` read, for :meth:`_Batch.evaluate`."""
    return _plan(rows).values


def _refusal(b: _Batch, check: Check, masks: dict, i: int) -> Optional[PhiEntropyError]:
    """The error with which ``check`` refuses lane i of a walked batch, or None."""
    for name in check.skips:
        if masks[name][i]:
            _, error, reason = _MASKS[name]
            return error(f"{check.bound_id}: {reason(b, i) if callable(reason) else reason}")
    return None


def walk(b: _Batch, rows: tuple, also: tuple = ()) -> tuple:
    """Evaluate ``rows`` of :data:`CHECKS` over a batch evaluated for ``reads(rows)``.

    Every row skips the masks ``also`` names as well.  Returns (masks,
    applied, lhs, rhs): each mask named, by name, from which
    :func:`_refusal` gives the error with which a row refuses a lane; and
    the (rows, lanes) arrays of where each row applies and of its two
    sides, meaningful where it applies.  An error a row's value raises is
    recorded in ``b.errors``.
    """
    plan, size = _plan(rows, also), b.layout.size
    if plan.masks:
        stacked = np.array([_MASKS[name][0](b) for name in plan.masks])
        applied = ~(plan.skips @ stacked)
    else:
        stacked, applied = (), np.ones((len(rows), size), dtype=bool)
    values = np.array([_VALUES[name].compute(b) for name in plan.values])
    # A lane keeps the first error of a row that applies to it.
    for k, name in plan.errors:
        for i, error in getattr(b, _VALUES[name].errors).items():
            if applied[k, i] and b.errors[i] is None:
                b.errors[i] = error
    return dict(zip(plan.masks, stacked)), applied, values[plan.lhs], values[plan.rhs]


# ---------------------------------------------------------------------------
# the outcome of a row on one input

# The scale of every report's tolerance; read only by :func:`verdict`.
TOL_SCALE = 1e-10


def verdict(lhs, rhs) -> tuple:
    """(tol, holds, noise) of the reports lhs <= rhs: Python floats for one, arrays for a batch.

    tol = TOL_SCALE (1 + |rhs|); a report holds when lhs <= rhs + tol, and lies on the noise floor,
    where its ratio says nothing of tightness, when |lhs| and rhs are both within tol of zero.
    """
    tol = TOL_SCALE * (1.0 + abs(rhs))
    return tol, lhs <= rhs + tol, (abs(lhs) <= tol) & (rhs <= tol)


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
        return {f.name: getattr(self, f.name) for f in fields(self)}


# json.dumps(..., sort_keys=True) builds this encoder on every call.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True)


def _family_key(fam: LogFamily) -> bytes:
    if fam.kind == "custom":
        return f"custom:s={fam.singularity_exponent!r}:f0={fam.f_zero!r}".encode()
    return _KEY_ENCODER.encode(family_to_json(fam)).encode()


def _digest(check: Check, key: bytes, p: Pdf, q: Pdf, r: Pdf | None, segment) -> str:
    """The ``inputs_digest`` of ``check``'s report on a family of :func:`_family_key` ``key``;
    r and the segment enter where the check reads them."""
    h = hashlib.sha256()
    h.update(check.bound_id.encode())
    h.update(b"|")
    h.update(key)
    h.update(b"|")
    h.update(p.weights.tobytes())
    h.update(b"|")
    h.update(q.weights.tobytes())
    if check.with_r:
        h.update(b"|")
        h.update(r.weights.tobytes())
    for v in segment if check.with_params else ():
        h.update(struct.pack("<d", v))
    return h.hexdigest()[:16]


def _report(check: Check, record: tuple, key: bytes) -> BoundReport:
    """The report of ``check`` on ``record`` = (fam, p, q, r, segment, lhs, rhs).

    ``key`` is fam's :func:`_family_key`, which the caller forms once for its reports.
    """
    _, *inputs, lhs, rhs = record
    tol, holds, _ = verdict(lhs, rhs)
    return BoundReport(
        bound_id=check.bound_id,
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs if rhs > 0 else None,
        holds=holds,
        tol=tol,
        inputs_digest=_digest(check, key, *inputs),
    )


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


def condition1_radii(pairs: list) -> list:
    """:func:`condition1_delta` of each (family, epsilon) pair, or the error it raises.

    The radii are solved in lockstep.  Each family's F(0), its entropy floor
    I_min and its coefficient at 1 come from one kernel call.  Each round
    then builds the trees of every unfinished bisection in one array and
    evaluates each family's in one kernel call (:class:`numerics.BisectionWalk`,
    one level per round if a family is custom, whose kernel call is one
    quadrature per point, six otherwise; no caller mixes them).  Every walk
    takes the path of plain bisection, so a radius has the bits of a lone one.
    """
    out, by_family = [None] * len(pairs), {}
    for k, (fam, epsilon) in enumerate(pairs):
        if epsilon > 0:
            by_family.setdefault(fam, []).append(k)
        else:
            out[k] = ParamError("epsilon must be positive")
    levels = 1 if any(fam.kind == "custom" for fam in by_family) else numerics.BISECT_LEVELS
    # Per family: the family, F(0) and (F(0) + I_min) / I_min; per unfinished
    # walk: its family's index, the walk and its pair's index, each family's together.
    scales, live = [], []
    # A kernel may overflow at delta = 1 (piecewise_linear with a huge base).
    with np.errstate(**_QUIET):
        for fam, ks in by_family.items():
            f0 = fam.f_zero
            half, one = big_f_drop_unchecked(fam, np.array([0.5, 1.0])).tolist()
            i_min = 2.0 * half - f0  # as entropy_min_half forms it
            if not (f0 > 0 and i_min > 0):
                for k in ks:
                    out[k] = InfeasibleEpsilon("family admits no positive entropy floor")
                continue
            # c(delta) = g(delta) / F(0) * amp increases from c(0) = 0, so
            # the radius saturates at 1 or lies in [0, 1].
            amp = (f0 + i_min) / i_min
            for k in ks:
                epsilon = pairs[k][1]
                if one / f0 * amp <= epsilon:
                    out[k] = 1.0
                else:
                    live.append((len(scales), numerics.BisectionWalk(0.0, 1.0, epsilon, 1e-12, levels=levels), k))
            scales.append((fam, f0, amp))
        while live:
            trees = numerics.bisection_trees([w.lo for _, w, _ in live], [w.hi for _, w, _ in live], levels)
            values = np.empty((len(live), trees.shape[1] - 2))
            first = 0
            for i, run in itertools.groupby(live, key=lambda x: x[0]):
                fam, f0, amp = scales[i]
                end = first + sum(1 for _ in run)
                mids = trees[first:end, 1:-1].ravel()
                values[first:end] = (big_f_drop_unchecked(fam, mids) / f0 * amp).reshape(end - first, -1)
                first = end
            for (_, w, k), tree, row in zip(live, trees.tolist(), values.tolist()):
                w.descend(tree, row)
                out[k] = w.result
            live = [x for x in live if x[1].result is None]
    return out


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
    For families whose logarithm is heavy at the origin the radius can be
    very small (about 1e-14 for tsallis kappa = -0.9).  The cache serves
    single calls; a scan solves its radii with :func:`condition1_radii`.
    """
    (radius,) = condition1_radii([(fam, epsilon)])
    if isinstance(radius, PhiEntropyError):
        raise radius
    return radius
