"""Distance functions, inequality checks and the stability scan.

Each ``check_*`` function evaluates one proven inequality on concrete
inputs and returns a :class:`BoundReport` with the two sides, their ratio
and a scale-aware pass flag.  The inequalities are theorems, so ``holds``
must come back true on every valid input; a violation beyond tolerance
indicates an implementation bug, which is exactly what
:func:`stability_scan` hunts for with randomized and hill-climbed inputs.

One ordered table, :data:`CHECKS` (in :mod:`phientropy.table`, re-exported
here), decides which inequalities apply to an input and evaluates them over
a batch of inputs, through :func:`phientropy.table.walk`; this module checks
the inputs before and picks the results after.  :func:`run_bound_checks`
(the ``bounds`` command) and each ``check_*`` function evaluate a batch of
one, the latter raising on an input the table would skip, and
:func:`stability_scan` evaluates many.

The scan runs as lanes.  A lane is one slot: a single trial in the
``uniform``, ``sparse`` and ``neighbor`` modes, or a whole restart in the
``hillclimb`` mode.  The slots come in blocks of ``len(families) *
len(dims)``, each of one mode; at each tick the active lanes of a block take
one trial each, side by side, through one batch.  Every slot draws from its
own ``SeedSequence(seed, spawn_key=(slot,))`` stream, at launch (its pdfs,
then one block of variates, a row per trial; see :class:`_Lane`), so the
lanes change no bit.  When a block's lanes finish, its trials are numbered
in slot order, those past the budget are dropped, and the block is merged
into the report: counts add up, and a bound's worst is the largest ratio,
the lowest trial index winning a tie, as the strict ``>`` of a sequential
scan gives.

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
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .distributions import Pdf, _check_lengths, _frozen, sample_neighbor, sample_sparse, sample_uniform
from .errors import FamilyError, ParamError, PhiEntropyError
from .families import (
    LogFamily,
    big_f_drop,
    family_to_json,
    kappa_maxwell,
    kaniadakis,
    piecewise_linear,
    shannon,
    sqrt_log,
    tsallis,
)
from .numerics import sum_compensated
from .table import (
    _QUIET,
    CHECKS,
    Check,
    _Batch,
    _Layout,
    _refusal,
    condition1_delta,
    condition1_radii,
    entropy_min_half,
    reads,
    walk,
)

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
BOUND_IDS = tuple(check.bound_id for check in CHECKS)


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
    tol = TOL_SCALE * (1.0 + abs(rhs))
    ratio = lhs / rhs if rhs > 0 else None
    return BoundReport(
        bound_id=check.bound_id,
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=None if ratio is None else float(ratio),
        holds=bool(lhs <= rhs + tol),
        tol=tol,
        inputs_digest=_digest(check, key, *inputs),
    )


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


# The scan's modes (a default scan runs them all, in this order); it cycles
# through these neighbor-pair tv radii and segment epsilons, and runs at most
# HILL_STEPS trials per hill-climb restart.
_MODES = ("uniform", "sparse", "neighbor", "hillclimb")
NEIGHBOR_SCALES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
SCAN_EPSILONS = (0.1, 0.5, 1.0)
HILL_STEPS = 200


@dataclass(frozen=True)
class ScanConfig:
    """Configuration for :func:`stability_scan`; fully determines the run.

    Checked at construction: ``trials`` and every dim are ints >= 1 and
    ``seed`` an int >= 0 (``type(x) is int``, so no bool), at least one
    family, dim and mode is given, every mode is known, and every family has
    a JSON encoding.  Anything else raises :class:`ParamError`.
    """

    families: tuple[LogFamily, ...] = field(default_factory=default_family_grid)
    dims: tuple[int, ...] = (2, 4, 16, 64)
    trials: int = 1000
    seed: int = 271828
    modes: tuple[str, ...] = _MODES

    def __post_init__(self):
        if not (type(self.trials) is int and self.trials >= 1):
            raise ParamError(f"trials must be an integer >= 1, not {self.trials!r}")
        if not (type(self.seed) is int and self.seed >= 0):
            raise ParamError(f"seed must be an integer >= 0, not {self.seed!r}")
        if not (self.families and self.modes and self.dims):
            raise ParamError("the scan needs a family, a mode and a dim")
        if not all(type(dim) is int and dim >= 1 for dim in self.dims):
            raise ParamError(f"every dim must be an integer >= 1, not {self.dims!r}")
        for m in self.modes:
            if m not in _MODES:
                raise ParamError(f"unknown scan mode {m!r}")
        for fam in self.families:
            try:
                family_to_json(fam)
            except FamilyError:
                raise ParamError(
                    f"cannot scan family {fam.label!r}: it has no JSON encoding, "
                    "and scan witnesses must replay through JSON"
                ) from None

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
        return {f.name: getattr(self, f.name) for f in fields(self)}


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


def _witness(check: Check, record: tuple) -> dict:
    """The scan witness of ``record`` = (fam, p, q, r, segment, lhs, rhs) for ``check``."""
    fam, p, q, r, segment, _, _ = record
    w = {
        "family": family_to_json(fam),
        "p": p.weights.tolist(),
        "q": q.weights.tolist(),
    }
    if check.with_r:
        w["r"] = r.weights.tolist()
    if check.with_params:
        lam, mu, epsilon = segment
        w["params"] = {"lam": lam, "mu": mu, "epsilon": epsilon}
    w["report"] = _report(check, record, _family_key(fam)).to_json()
    return w


class _Aggregator:
    """Merges the parts of a scan in slot order into its report.

    Counts add up.  Walking each part's kept records in trial order, a
    bound's worst (``worst[row]`` = (ratio, record)) and the scan's
    (``scan_worst`` = (ratio, row)) change only to a strictly greater ratio,
    so the first trial wins a tie, and the first row within a trial.  The
    scan's worst is always its row's worst.  Witnesses are built once, by
    :meth:`report`.
    """

    def __init__(self):
        self.trials = self.support_errors = self.violations = 0
        self.counts = np.zeros(len(CHECKS), dtype=np.int64)
        self.worst: dict[int, tuple] = {}
        self.scan_worst: Optional[tuple] = None

    def merge(self, part: "_Log") -> None:
        self.trials += part.trials
        self.counts += part.counts
        self.violations += part.violations
        self.support_errors += part.support_errors
        for ratio, lhs, rhs, inputs in part.kept:
            for row, x in enumerate(ratio.tolist()):
                if x == x and (row not in self.worst or x > self.worst[row][0]):
                    self.worst[row] = (x, (*inputs, float(lhs[row]), float(rhs[row])))
                    if self.scan_worst is None or x > self.scan_worst[0]:
                        self.scan_worst = (x, row)

    def report(self, config: ScanConfig, timings: Optional[dict] = None) -> ScanReport:
        """The scan's report, with the bounds it evaluated, in table order."""
        per_bound = {}
        for row, (check, count) in enumerate(zip(CHECKS, self.counts.tolist())):
            if count:
                ratio, record = self.worst.get(row, (None, None))
                witness = None if record is None else _witness(check, record)
                per_bound[check.bound_id] = _BoundStats(count, ratio, witness)
        worst, row = self.scan_worst or (None, None)
        return ScanReport(
            trials=self.trials,
            worst_ratio=worst,
            witness=None if row is None else per_bound[CHECKS[row].bound_id].witness,
            per_bound=per_bound,
            support_errors=self.support_errors,
            config=config,
            violations=self.violations,
            timings=timings or {},
        )


def _ratios(lhs: np.ndarray, rhs: np.ndarray, applied: np.ndarray) -> tuple:
    """Violations, each trial's max ratio, and the ratios that may become a worst.

    A report whose ratio is undefined (rhs <= 0) has none.  A report whose
    sides both lie within ``tol`` of zero is counted and checked, and its
    ratio counts towards the trial's max, which steers the hill climb, but
    it never becomes a worst: such noise says nothing of tightness.
    """
    ratio = np.divide(lhs, rhs, out=np.full(lhs.shape, math.nan), where=applied & (rhs > 0))
    best = [None if x != x else x for x in np.fmax.reduce(ratio, axis=0).tolist()]
    # lhs <= rhs implies the tolerant comparison, and rhs >= 1e-9 exceeds
    # tol, so most batches need no tolerance at all.
    violated = applied & ~(lhs <= rhs)
    if np.count_nonzero(violated) or np.count_nonzero(applied & (rhs < 1e-9)):
        tol = TOL_SCALE * (1.0 + np.abs(rhs))
        violated &= ~(lhs <= rhs + tol)
        ratio = np.where((np.abs(lhs) <= tol) & (rhs <= tol), math.nan, ratio)
    return violated, best, ratio


def _sample_pair(mode, dim, scale, rng):
    """A slot's p, q and r, drawn in that order; a hill climb starts from uniform pdfs."""
    sample = sample_sparse if mode == "sparse" else sample_uniform
    p = sample(dim, rng)
    q = sample_neighbor(p, scale, rng) if mode == "neighbor" else sample(dim, rng)
    return p, q, sample(dim, rng)


def _transfer(pdf: Pdf, i: int, j: int, amount: float) -> Pdf:
    """``pdf`` with up to ``amount`` of mass moved from entry i to entry j.

    The result needs none of the constructor's checks: w[i] - min(amount,
    w[i]) is exactly 0 or the rounding of a positive difference, never
    negative, and w[j] + amount stays finite for the scan's pdfs, whose
    weights sum to about one.
    """
    w = pdf.weights.copy()
    amount = min(amount, w[i])
    w[i] -= amount
    w[j] += amount
    return _frozen(w)


# A fresh restart's step 0.1 needs this many halvings to fall to 1e-9 or
# below (halving is exact, so 0.1 * 0.5**k is the step after k of them), so
# a restart lasts at least _HALVINGS + 1 trials.  A step is rejected, and
# the step halved, about every other trial.
_HALVINGS = next(k for k in range(64) if not 0.1 * 0.5**k > 1e-9)
_STEPS_PER_HALVING = 2


class _Lane:
    """One slot of a scan: a hill-climb restart of at most ``steps`` =
    :data:`HILL_STEPS` trials, or a single trial, a lane whose ``steps`` is 1.

    The slot's generator draws the pdfs, then ``draws``, one
    ``random((steps, 5))`` block whose row k is trial k's (flip, a, b, lam,
    mu).  Step k >= 1 moves mass in p if flip < 0.5, else in q, from entry
    i = int(a * dim) to entry j = int(b * (dim - 1)), plus one if j >= i
    (entry 0 to itself at dim 1); a trial of distinct pdfs takes its
    segment's lam and mu.  ``used`` counts the trials run; the scan keeps
    those within its budget.  ``delta``, set at launch, is the segment
    radius or its solve's error.
    """

    def __init__(self, config: ScanConfig, slot: int, mode: str, index: int):
        fams, dims = config.families, config.dims
        self.index, self.fam_index = index, slot % len(fams)
        self.fam, self.dim = fams[self.fam_index], dims[(slot // len(fams)) % len(dims)]
        self.epsilon = SCAN_EPSILONS[slot % len(SCAN_EPSILONS)]
        # Slot-indexed seed split: slot s always gets the same stream, so any
        # schedule of the slots reproduces the report.  The generator is the
        # one default_rng builds from a SeedSequence, without its argument checks.
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(slot,))))
        self.steps = HILL_STEPS if mode == "hillclimb" else 1
        scale = NEIGHBOR_SCALES[slot % len(NEIGHBOR_SCALES)]
        self.p, self.q, self.r = _sample_pair(mode, self.dim, scale, rng)
        self.draws = rng.random((self.steps, 5)).tolist()
        self.step, self.halvings, self.used, self.best = 0.1, 0, 0, None
        self.done, self.error, self.rows = False, None, None

    def length(self, steps_per_halving: int) -> int:
        """Trials this running lane runs at least (1 step per halving still
        needed), or as expected (_STEPS_PER_HALVING)."""
        return min(self.steps, self.used + steps_per_halving * (_HALVINGS - self.halvings))

    def candidate(self) -> tuple:
        """The next trial's (p, q): the sampled pair, then one mass transfer per step."""
        if self.used == 0:
            return self.p, self.q
        flip, a, b = self.draws[self.used][:3]
        i = j = 0
        if self.dim > 1:
            i, j = int(a * self.dim), int(b * (self.dim - 1))
            j += j >= i
        if flip < 0.5:
            return _transfer(self.p, i, j, self.step), self.q
        return self.p, _transfer(self.q, i, j, self.step)

    def segment(self, tv: float) -> Optional[tuple]:
        """The trial's (lam, mu, epsilon) for distinct pdfs, else None.

        Raises the lane's ``delta`` if its solve returned an error.
        """
        if tv == 0.0:
            return None
        delta = self.delta
        if isinstance(delta, PhiEntropyError):
            raise delta
        lam, mu = self.draws[self.used][3:]
        if abs(lam - mu) * tv > delta:
            # Pull mu toward lam, to h = 0.5 * delta / tv: rounding adds at most
            # h (lam is a float too) and clamping shortens, so the hypothesis
            # holds for every radius the solver returns (>= 2**-200, normal).
            mu = min(1.0, max(0.0, lam - math.copysign(0.5 * delta / tv, lam - mu)))
        return lam, mu, self.epsilon

    def advance(self, cand: tuple, ratio: Optional[float]) -> None:
        """Record a trial whose max ratio is ``ratio``: accept or halve the step."""
        self.used += 1
        if self.used == 1:
            self.best = ratio
        elif ratio is not None and (self.best is None or ratio > self.best):
            self.best = ratio
            self.p, self.q = cand
        else:
            self.step *= 0.5
            self.halvings += 1
        self.done = self.used >= self.steps or not self.step > 1e-9 or self.error is not None
        if self.done:  # what only a running lane needs
            self.draws = self.p = self.q = self.r = None


class _Log:
    """The trials a block of slots ran, and what they add to a scan.

    Per lane and row, ``top`` holds the largest above-floor ratio so far,
    and ``records`` the trials that raised one, with their inputs: only
    those can be a row's worst, since an earlier trial of a lane is kept
    whenever a later one is, and wins a tie.  :meth:`finish` sets
    ``trials``, the trials within the budget; ``counts``, the evaluated
    reports per row of :data:`CHECKS`; ``violations`` and
    ``support_errors``; ``kept``, the records within the budget in trial
    order, each as (ratios, lhs, rhs, inputs) per row; and ``discarded``,
    the trials the lanes ran past the budget.
    """

    def __init__(self, size: int):
        self.lane, self.pos, self.applied, self.violated, self.unsupported = [], [], [], [], []
        self.top, self.records = np.full((len(CHECKS), size), -math.inf), []

    def add(self, lanes, cands, segments, applied, lhs, rhs, unsupported) -> list:
        """Log one trial of each lane; return each trial's max ratio."""
        violated, best, ratio = _ratios(lhs, rhs, applied)
        index = [lane.index for lane in lanes]
        top = self.top[:, index]
        for i in np.logical_or.reduce(ratio > top, axis=0).nonzero()[0].tolist():
            lane = lanes[i]
            inputs = (lane.fam, *cands[i], lane.r, segments[i])
            self.records.append((lane.index, lane.used, ratio[:, i], lhs[:, i], rhs[:, i], inputs))
        self.top[:, index] = np.fmax(top, ratio)
        self.lane += index
        self.pos += [lane.used for lane in lanes]
        self.applied.append(applied)
        self.violated.append(np.add.reduce(violated, axis=0))
        self.unsupported.append(unsupported)
        return best

    def finish(self, lanes: list, trials: int) -> "_Log":
        """Keep each lane's trials within the budget, numbered in slot order."""
        kept, start, base = [], [], 0
        for lane in lanes:
            start.append(base)
            kept.append(min(lane.used, max(0, trials - base)))
            base += lane.used
            # The error of the lowest trial comes first.
            if lane.error is not None and lane.used <= kept[-1]:
                raise lane.error
        lane_of = np.array(self.lane)
        keep = np.array(self.pos) < np.array(kept)[lane_of]
        applied = np.concatenate(self.applied, axis=1) & keep
        self.trials, self.counts, self.discarded = sum(kept), applied.sum(axis=1), base - sum(kept)
        self.violations = int(np.concatenate(self.violated)[keep].sum())
        # cont1 applies to every trial of distinct pdfs.
        self.support_errors = int((applied[0] & np.concatenate(self.unsupported)).sum())
        kept_records = [(start[i] + pos, rec) for i, pos, *rec in self.records if pos < kept[i]]
        self.kept = [rec for _, rec in sorted(kept_records, key=lambda record: record[0])]
        return self


def _tick(lanes: list, layout: _Layout, log: _Log) -> None:
    """Run one trial of each lane, side by side, and log it; a lane whose radius
    solve returned an error fails at its first trial of distinct pdfs."""
    cands = [lane.candidate() for lane in lanes]
    b = _Batch(layout, [c[0] for c in cands], [c[1] for c in cands])
    segments = []
    for lane, tv in zip(lanes, b.tv_list):
        try:
            segments.append(lane.segment(tv))
        except PhiEntropyError as exc:
            lane.error = exc
            segments.append(None)
    deltas = [math.inf if seg is None else lane.delta for lane, seg in zip(lanes, segments)]
    b.evaluate(segments, deltas, reads(CHECKS))
    # A trial of identical pdfs evaluates no bound.
    _, applied, lhs, rhs = walk(b, CHECKS, also=("identical pdfs",))
    best = log.add(lanes, cands, segments, applied, lhs, rhs, b.unsupported.any(axis=0))
    for i, lane in enumerate(lanes):
        lane.error = lane.error or b.errors[i]
        lane.advance(cands[i], best[i])


def _scan_block(config: ScanConfig, block: int, trials: int, radii: dict) -> _Log:
    """Run block ``block`` of the slots as lanes, keeping at most ``trials`` trials.

    Trial indices are assigned in slot order after the lanes finish, and
    trials past the budget are dropped.  A lane stops once its trials reach
    the room that the earlier lanes' lower bounds leave it, which can only
    shrink.  A slot is launched only while the lanes' expected lengths
    leave room, up to all of the block's, so that few trials fall past the
    budget; a launch held back comes later, as lanes finish.  Errors are
    raised after the block, the one of the lowest trial first.  ``radii``
    is the scan's memo of segment radii by (family, epsilon), which launches fill.
    """
    size = len(config.families) * len(config.dims)
    mode = config.modes[block % len(config.modes)]
    slots = iter(range(block * size, (block + 1) * size))
    lanes: list[_Lane] = []
    log, layout, key = _Log(size), None, None
    with np.errstate(**_QUIET):
        while True:
            active, base, expected, failed = [], 0, 0, False
            for lane in lanes:
                if failed or lane.used >= trials - base:
                    lane.done = True  # its trials reach the room left to it
                failed = failed or lane.error is not None
                if lane.done:  # a finished lane's length is its trials
                    base += lane.used
                    expected += lane.used
                else:
                    active.append(lane)
                    base += lane.length(1)
                    expected += lane.length(_STEPS_PER_HALVING)
            launched = []
            while expected < trials and not failed:
                slot = next(slots, None)
                if slot is None:
                    break
                launched.append(_Lane(config, slot, mode, len(lanes)))
                lanes.append(launched[-1])
                expected += launched[-1].length(_STEPS_PER_HALVING)
            if not (active or launched):
                return log.finish(lanes, trials)
            if launched:
                missing = [pair for pair in dict.fromkeys((x.fam, x.epsilon) for x in launched) if pair not in radii]
                if missing:
                    radii.update(zip(missing, condition1_radii(missing)))
                # Lanes of one family next to each other share kernel calls.
                launched.sort(key=lambda lane: lane.fam_index)
                new = _Layout([x.fam for x in launched], [x.dim for x in launched], [x.r for x in launched])
                for i, lane in enumerate(launched):
                    lane.rows, lane.delta = (new, i), radii[lane.fam, lane.epsilon]
            active = sorted(active + launched, key=lambda lane: lane.fam_index)
            order = [lane.index for lane in active]
            if order != key:
                # Lanes launched with no lane running tick on their launch's layout.
                if len(active) == len(launched):
                    layout = new
                else:
                    layout = _Layout([x.fam for x in active], [x.dim for x in active], [x.r for x in active],
                                     [x.rows for x in active])
                for i, lane in enumerate(active):
                    lane.rows = (layout, i)
                key = order
            _tick(active, layout, log)


def stability_scan(config: ScanConfig) -> ScanReport:
    """Adversarially probe every inequality over seeded random inputs.

    Modes: independent ``uniform`` and ``sparse`` pairs, ``neighbor`` pairs
    at total-variation scales down to 1e-6, and ``hillclimb`` restarts that
    greedily transfer mass between coordinate pairs (geometrically shrinking
    steps, accepting only ratio increases, at most :data:`HILL_STEPS` steps per
    restart).  Every evaluated input counts as one trial.  The slot-to-seed
    mapping is a deterministic split of the root seed, so the report is
    identical regardless of scheduling; slots run side by side as lanes (see
    the module docstring).  The config checked itself at construction.
    """
    # The scan's segment radii, by (family, epsilon): solved once, kept for this scan only.
    agg, timings, radii = _Aggregator(), {}, {}
    block, last = 0, time.perf_counter()
    while agg.trials < config.trials:
        part = _scan_block(config, block, config.trials - agg.trials, radii)
        agg.merge(part)
        # The clock is read once per block, whose slots share one mode.
        now = time.perf_counter()
        entry = timings.setdefault(config.modes[block % len(config.modes)], {"trials": 0, "seconds": 0.0})
        entry["trials"] += part.trials
        entry["seconds"] += now - last
        block, last = block + 1, now
    return agg.report(config, timings)
