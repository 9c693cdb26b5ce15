"""Distance functions and inequality checks, one input at a time.

Each ``check_*`` function evaluates one proven inequality on concrete
inputs and returns a :class:`BoundReport` with the two sides, their ratio
and a scale-aware pass flag.  The inequalities are theorems, so ``holds``
must come back true on every valid input; a violation beyond tolerance
indicates an implementation bug, which is exactly what
:func:`stability_scan` (in :mod:`phientropy.scan`, whose public names are
re-exported here) hunts for with randomized and hill-climbed inputs.

One ordered table, :data:`CHECKS` (in :mod:`phientropy.table`, re-exported
here), decides which inequalities apply to an input and evaluates them over
a batch of inputs, through :func:`phientropy.table.walk`; this module checks
the inputs before and picks the results after.  :func:`run_bound_checks`
(the ``bounds`` command) and each ``check_*`` function evaluate a batch of
one, the latter raising on an input the table would skip; the scan
evaluates many.

Tolerance policy: :func:`phientropy.table.verdict` alone decides it, for every
report, single or scanned: ``lhs <= rhs`` holds when ``lhs <= rhs + tol``, tol =
1e-10 (1 + |rhs|), and sides both within tol of zero lie on the noise floor.

Bound identifiers
-----------------
- ``cont1``: |I(p) - I(q)| <= d(p, q), the entropy-difference metric bound.
- ``relent_I`` / ``relent_D``: |I(p|r) - I(q|r)| <= d + h_r and
  |D(p|r) - D(q|r)| <= d + e_r.
- ``improved``: the factorized bound (g(tv)/F(0)) * (F(0) + I(p sym q))
  valid for tv <= 1; coincides with ``cont1`` at tv = 1.
- ``lb``: the constant lower bound -F(0) - ln_phi(1/2) <= I(p sym q).
- ``cont2``: |I(p) - I(q)| <= tv * [F(0) + omega(N / tv)], evaluated as
  the equal N g(tv / N), g = big_f_drop, which stays finite at subnormal tv.
- ``lesche3`` (tsallis), ``lesche4`` / ``fannes`` (shannon): the classical
  stability estimates with the N-dependence made explicit through
  I_max(N) = omega(N).
- ``condition1_segment``: uniform continuity along the segment between two
  pdfs, with the constructive radius from :func:`condition1_delta`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .distributions import Pdf, _check_lengths
from .errors import FamilyError, ParamError
from .families import LogFamily, big_f_drop
from .numerics import sum_compensated
from .scan import (
    HILL_STEPS, NEIGHBOR_SCALES, SCAN_EPSILONS, ScanConfig, ScanReport, default_family_grid, stability_scan,
)
from .table import (
    _QUIET, CHECKS, TOL_SCALE, BoundReport, Check, _Batch, _family_key, _Layout, _refusal, _report, condition1_delta,
    entropy_min_half, reads, walk,
)

__all__ = [
    "TOL_SCALE", "BOUND_IDS", "CHECKS", "Check", "BoundReport", "ScanConfig", "ScanReport", "NEIGHBOR_SCALES",
    "HILL_STEPS", "SCAN_EPSILONS", "metric_d", "metric_d_capped", "h_r", "e_r", "check_cont1", "check_relent",
    "check_improved", "check_lb", "check_cont2", "check_lesche3", "check_lesche4", "check_fannes",
    "condition1_delta", "check_condition1_segment", "run_bound_checks", "entropy_min_half", "stability_scan",
    "default_family_grid",
]

# Every bound, in the order the check table evaluates and reports them.
BOUND_IDS = tuple(check.bound_id for check in CHECKS)


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
    return _at_r(fam, p, q, r, "h")


def e_r(fam: LogFamily, p: Pdf, q: Pdf, r: Pdf) -> float:
    """Companion distance ``-sum_k |p_k - q_k| ln_phi(r_k)``.

    Coincides with :func:`h_r` for the natural logarithm.
    """
    return _at_r(fam, p, q, r, "e")


def _at_r(fam: LogFamily, p: Pdf, q: Pdf, r: Pdf, name: str) -> float:
    """The batch value ``name``, ``"h"`` or ``"e"``, of one input, or the error it carries."""
    with np.errstate(**_QUIET):
        b = _input(fam, p, q, r, values=(name,))
    errors = getattr(b, f"{name}_error")
    if errors:
        raise errors[0]
    return float(getattr(b, name)[0])


def _input(fam: LogFamily, p: Pdf, q: Pdf, r: Pdf | None = None, segment=None, values=()) -> _Batch:
    """Check one check-table input and evaluate the named values of it as a batch of one lane.

    Checks the lengths and that the segment's lam and mu lie in [0, 1], and
    looks up the segment's radius where the pdfs differ.
    """
    _check_lengths(p, q)
    if r is not None:
        _check_lengths(p, r)
    b = _Batch(_Layout((fam,), (p.n,), (r,)), (p,), (q,))
    delta = math.inf
    if segment is not None:
        lam, mu, epsilon = segment
        if not (0.0 <= lam <= 1.0 and 0.0 <= mu <= 1.0):
            raise ParamError("lam and mu must lie in [0, 1]")
        if b.tv_list[0] > 0.0:
            delta = condition1_delta(fam, epsilon)
    return b.evaluate((segment,), (delta,), values)


def _reports(rows: tuple, b: _Batch, applied, lhs, rhs) -> list[BoundReport]:
    """The reports of the walked ``rows`` that apply to a batch of one; raise its error if it has one."""
    if b.errors[0] is not None:
        raise b.errors[0]
    inputs = (b.layout.fams[0], b.p[0], b.q[0], b.layout.rs[0], b.segment[0])
    key = _family_key(inputs[0])
    return [
        _report(check, (*inputs, float(lhs[k, 0]), float(rhs[k, 0])), key)
        for k, check in enumerate(rows)
        if applied[k, 0]
    ]


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
    with np.errstate(**_QUIET):
        b = _input(fam, p, q, r, segment, reads(CHECKS))
        masks, applied, lhs, rhs = walk(b, CHECKS)
    # A FamilyError refusal: the bound does not concern the input.
    refusals = [_refusal(b, c, masks, 0) for c in CHECKS]
    skipped = [c.bound_id for c, e in zip(CHECKS, refusals) if e is not None and not isinstance(e, FamilyError)]
    return _reports(CHECKS, b, applied, lhs, rhs), skipped


# ---------------------------------------------------------------------------
# inequality checks, one bound each


def _checked(bound_ids, fam, p, q, r=None, segment=None) -> tuple[BoundReport, ...]:
    """Evaluate the named table rows on one input; raise if the table would not evaluate one.

    Refusals come first, in table order, then the input's error.
    """
    rows = tuple(check for check in CHECKS if check.bound_id in bound_ids)
    with np.errstate(**_QUIET):
        b = _input(fam, p, q, r, segment, reads(rows))
        masks, applied, lhs, rhs = walk(b, rows)
    for check in rows:
        refusal = _refusal(b, check, masks, 0)
        if refusal is not None:
            raise refusal
    return tuple(_reports(rows, b, applied, lhs, rhs))


def check_cont1(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """|I(p) - I(q)| <= d(p, q)."""
    return _checked(("cont1",), fam, p, q)[0]


def check_relent(fam: LogFamily, p: Pdf, q: Pdf, r: Pdf) -> tuple[BoundReport, BoundReport]:
    """Both relative-entropy continuity bounds against the reference ``r``.

    |I(p|r) - I(q|r)| <= d(p,q) + h_r(p,q)   and
    |D(p|r) - D(q|r)| <= d(p,q) + e_r(p,q).

    The left sides are evaluated through the difference identities (the
    per-coordinate integral for I, and I(q) - I(p) - sum (p-q) ln_phi(r)
    for D) so they keep full precision when p and q are close.  Taking
    q = r turns the first bound into an upper bound for I(p|q) itself.
    """
    return _checked(("relent_I", "relent_D"), fam, p, q, r)


def check_improved(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """The factorized entropy bound for ``tv <= 1``.

    |I(p) - I(q)| <= [(F(0) - F(tv)) / F(0)] * [F(0) + I(p sym q)],
    which reduces to ``cont1`` when tv = 1.
    """
    return _checked(("improved",), fam, p, q)[0]


def check_lb(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """Constant lower bound on the symmetric-difference entropy.

    -F(0) - ln_phi(1/2) <= I(p sym q); the left side may well be negative.
    """
    return _checked(("lb",), fam, p, q)[0]


def check_cont2(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """|I(p) - I(q)| <= tv * [F(0) + omega(N / tv)] with N the common length.

    A relaxation of ``cont1`` (its right side dominates d(p, q)) whose merit
    is the explicit dependence on N.
    """
    return _checked(("cont2",), fam, p, q)[0]


def check_lesche3(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """Power-law stability estimate (tsallis families only).

    |I(p) - I(q)| <= (1 + 1/kappa) tv + [I_max(N) - 1/kappa] tv^(1+kappa);
    an exact rewrite of ``cont2`` using the q-logarithm rescaling identity.
    """
    return _checked(("lesche3",), fam, p, q)[0]


def check_lesche4(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """Logarithmic stability estimate (shannon only).

    |I(p) - I(q)| <= (1 + I_max(N)) tv - tv ln(tv).
    """
    return _checked(("lesche4",), fam, p, q)[0]


def check_fannes(fam: LogFamily, p: Pdf, q: Pdf) -> BoundReport:
    """Sharpened shannon estimate, valid when tv <= 1/3.

    |I(p) - I(q)| <= I_max(N) tv - tv ln(tv); one tv weaker than lesche4's
    right side, hence always below it.
    """
    return _checked(("fannes",), fam, p, q)[0]


def check_condition1_segment(
    fam: LogFamily, p: Pdf, q: Pdf, lam: float, mu: float, epsilon: float
) -> BoundReport:
    """Uniform continuity of entropy along the segment from ``q`` to ``p``.

    For mixtures with ``|lam - mu| * tv_norm(p, q)`` within the radius from
    :func:`condition1_delta`:
    |I(lam p + (1-lam) q) - I(mu p + (1-mu) q)| <= epsilon * I(p sym q).
    The endpoint case lam=1, mu=0 is the continuity condition itself.
    """
    return _checked(("condition1_segment",), fam, p, q, segment=(lam, mu, epsilon))[0]
