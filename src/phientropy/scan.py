"""The stability scan: seeded random and hill-climbed inputs through the check table.

:func:`stability_scan` hunts for violations of the inequalities that
:mod:`phientropy.bounds` checks one input at a time, evaluating many inputs
through :func:`phientropy.table.walk`.  Each mode is one row of
:data:`_MODES`: how a slot draws its pdfs, and how many trials it runs.
:mod:`phientropy.bounds` re-exports the public names as the same objects.

The scan runs as lanes.  A lane is one slot: a single trial in the
``uniform``, ``sparse`` and ``neighbor`` modes, or a whole restart in the
``hillclimb`` mode.  The slots come in blocks of ``len(families) *
len(dims)``, each of one mode; at each tick the active lanes of a block take
one trial each, side by side, through one batch.  Every slot draws from its
own ``SeedSequence(seed, spawn_key=(slot,))`` stream, at launch (its pdfs,
then one block of variates, a row per trial; see :class:`_Lane`), so the
lanes change no bit.  When a block's lanes finish, its trials are numbered
in slot order, those past the budget are dropped, and the block is merged
into the report: counts add up, and a bound's worst is its largest
above-floor ratio.  Only kept trials count: each block picks each bound's
worst once, over its kept trials in trial order, the lowest trial index
winning a tie, and the blocks merge under a strict ``>``, so an earlier
block keeps an equal ratio, as a sequential scan gives.  An error (a
radius solve that failed, or a value that cannot be formed) stops only the
lane that met it; the block raises it at its end if that trial is kept,
the error of the lowest kept trial first.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import distributions
from .distributions import Pdf, _frozen
from .errors import FamilyError, ParamError, PhiEntropyError
from .families import (
    LogFamily, family_to_json, kappa_maxwell, kaniadakis, piecewise_linear, shannon, sqrt_log, tsallis,
)
from .table import (
    _QUIET, CHECKS, Check, _Batch, _family_key, _Layout, _report, condition1_radii, reads, verdict, walk,
)

__all__ = [
    "ScanConfig", "ScanReport", "NEIGHBOR_SCALES", "HILL_STEPS", "SCAN_EPSILONS", "stability_scan",
    "default_family_grid",
]


def default_family_grid() -> tuple[LogFamily, ...]:
    """The family grid the acceptance suite sweeps."""
    return (
        shannon(), tsallis(0.1), tsallis(-0.1), tsallis(0.5), tsallis(-0.5), tsallis(0.9), tsallis(-0.9),
        kaniadakis(0.5), kaniadakis(-0.5), kappa_maxwell(0.5), kappa_maxwell(2.0), sqrt_log(), piecewise_linear(2.0),
    )


# The scan cycles through these neighbor-pair tv radii and segment epsilons,
# and runs at most HILL_STEPS trials per hill-climb restart.
NEIGHBOR_SCALES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
SCAN_EPSILONS = (0.1, 0.5, 1.0)
HILL_STEPS = 200


def _three(sample, dim: int, rng) -> tuple:
    return sample(dim, rng), sample(dim, rng), sample(dim, rng)


def _neighbors(dim: int, scale: float, rng) -> tuple:
    p = distributions.sample_uniform(dim, rng)
    return p, distributions.sample_neighbor(p, scale, rng), distributions.sample_uniform(dim, rng)


# The scan's modes, in the order a default scan runs them, each as (draw,
# trials): ``draw(dim, scale, rng)`` gives a slot's p, q and r, in that
# order, from the slot's generator, and a slot runs at most ``trials``
# trials.  The samplers are looked up in their module at call time, so that
# tools which trace calls by patching module attributes see them.
_MODES = {
    "uniform": (lambda dim, scale, rng: _three(distributions.sample_uniform, dim, rng), 1),
    "sparse": (lambda dim, scale, rng: _three(distributions.sample_sparse, dim, rng), 1),
    "neighbor": (_neighbors, 1),
    # A hill climb starts from pdfs drawn as the uniform mode draws them.
    "hillclimb": (lambda dim, scale, rng: _three(distributions.sample_uniform, dim, rng), HILL_STEPS),
}


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
    modes: tuple[str, ...] = tuple(_MODES)

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

    Counts add up.  Each part brings at most one winner per row, its worst
    over the part's kept trials (see :class:`_Log`), in (trial, row) order.
    A bound's worst (``worst[row]`` = (ratio, record)) and the scan's
    (``scan_worst`` = (ratio, row)) change only to a strictly greater ratio,
    so an earlier part keeps an equal ratio, and within a part the first
    trial wins a tie, then the first row.  The scan's worst is always its
    row's worst.  Witnesses are built once, by :meth:`report`.
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
        for x, row, record in part.winners:
            if row not in self.worst or x > self.worst[row][0]:
                self.worst[row] = (x, record)
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
    """One slot of a scan, run from its ``mode`` row of :data:`_MODES`: a lane
    of at most ``steps`` trials, the row's trial count, or 1 at dim 1, where
    p = q = (1.0) and no step can move mass.

    The slot's generator draws the pdfs, then ``draws``, one
    ``random((steps, 5))`` block whose row k is trial k's (flip, a, b, lam,
    mu).  Step k >= 1 moves mass in p if flip < 0.5, else in q, from entry
    i = int(a * dim) to entry j = int(b * (dim - 1)), plus one if j >= i; a
    trial of distinct pdfs takes its segment's lam and mu.  ``used`` counts
    the trials run; the scan keeps those within its budget.  ``delta``, set
    at launch, is the segment radius or its solve's error.
    """

    def __init__(self, config: ScanConfig, slot: int, mode: tuple, index: int):
        fams, dims = config.families, config.dims
        self.index, self.fam_index = index, slot % len(fams)
        self.fam, self.dim = fams[self.fam_index], dims[(slot // len(fams)) % len(dims)]
        self.epsilon = SCAN_EPSILONS[slot % len(SCAN_EPSILONS)]
        # Slot-indexed seed split: slot s always gets the same stream, so any
        # schedule of the slots reproduces the report.  The generator is the
        # one default_rng builds from a SeedSequence, without its argument checks.
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(slot,))))
        draw, steps = mode
        self.steps = steps if self.dim > 1 else 1
        self.p, self.q, self.r = draw(self.dim, NEIGHBOR_SCALES[slot % len(NEIGHBOR_SCALES)], rng)
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
        i, j = int(a * self.dim), int(b * (self.dim - 1))
        j += j >= i
        if flip < 0.5:
            return _transfer(self.p, i, j, self.step), self.q
        return self.p, _transfer(self.q, i, j, self.step)

    def segment(self, tv: float) -> Optional[tuple]:
        """The trial's (lam, mu, epsilon) for distinct pdfs, else None.

        If the lane's radius solve returned an error, that error becomes
        the lane's ``error`` and the trial has no segment.
        """
        if tv == 0.0:
            return None
        delta = self.delta
        if isinstance(delta, PhiEntropyError):
            self.error = delta
            return None
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

    :meth:`add` keeps each tick's arrays, one column per lane, and each
    lane's inputs (fam, p, q, r, segment).  :meth:`finish` numbers the
    trials in slot order, keeps those within the budget, and sets
    ``trials``, the trials kept; ``counts``, the evaluated reports per row
    of :data:`CHECKS`; ``violations``; ``support_errors``, the trials
    refused for support; ``discarded``, the trials the lanes ran past the
    budget; and ``winners``, each row's worst once: over the kept trials
    only, in trial order, its largest above-floor ratio, the first trial
    winning a tie, as (ratio, row, record) in (trial, row) order, where the
    record is (fam, p, q, r, segment, lhs, rhs).  ``mode`` names the block's
    mode, which keys the scan's timings.
    """

    def __init__(self, mode: Optional[str] = None):
        self.mode, self.lane, self.pos, self.inputs, self.ticks = mode, [], [], [], []

    def add(self, lanes, cands, segments, applied, lhs, rhs, unsupported) -> list:
        """Log one trial of each lane, ``unsupported`` marking those refused for support; return each
        trial's max ratio (none where rhs <= 0), which steers the hill climb, noise-floor ones included."""
        ratio = np.divide(lhs, rhs, out=np.full(lhs.shape, math.nan), where=applied & (rhs > 0))
        best = [None if x != x else x for x in np.fmax.reduce(ratio, axis=0).tolist()]
        _, holds, noise = verdict(lhs, rhs)
        violated = applied & ~holds
        ratio[noise] = math.nan
        self.lane += [lane.index for lane in lanes]
        self.pos += [lane.used for lane in lanes]
        self.inputs += [(lane.fam, *cand, lane.r, seg) for lane, cand, seg in zip(lanes, cands, segments)]
        self.ticks.append((applied, np.add.reduce(violated, axis=0)[None], unsupported[None], ratio, lhs, rhs))
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
        lane_of, pos = np.array(self.lane), np.array(self.pos)
        order = np.flatnonzero(pos < np.array(kept)[lane_of])
        order = order[np.argsort(np.array(start)[lane_of[order]] + pos[order])]
        applied, violated, unsupported, ratio, lhs, rhs = (
            np.concatenate(arrays, axis=1)[:, order] for arrays in zip(*self.ticks)
        )
        self.trials, self.counts, self.discarded = sum(kept), applied.sum(axis=1), base - sum(kept)
        self.violations = int(violated.sum())
        self.support_errors = int(unsupported.sum())
        # NaN marks no ratio or a noise-floor one; argmax finds each row's first top.
        top = np.fmax.reduce(ratio, axis=1, initial=math.nan)
        first = (ratio == top[:, None]).argmax(axis=1).tolist()
        self.winners = [
            (float(ratio[row, k]), row, (*self.inputs[order[k]], float(lhs[row, k]), float(rhs[row, k])))
            for k, row in sorted(zip(first, range(len(first)))) if top[row] == top[row]
        ]
        return self


def _tick(lanes: list, layout: _Layout, log: _Log) -> None:
    """Run one trial of each lane, side by side, and log it; a lane whose radius
    solve returned an error fails at its first trial of distinct pdfs."""
    cands = [lane.candidate() for lane in lanes]
    b = _Batch(layout, [c[0] for c in cands], [c[1] for c in cands])
    segments = [lane.segment(tv) for lane, tv in zip(lanes, b.tv_list)]
    deltas = [math.inf if seg is None else lane.delta for lane, seg in zip(lanes, segments)]
    b.evaluate(segments, deltas, reads(CHECKS))
    # A trial of identical pdfs evaluates no bound and meets no support error.
    masks, applied, lhs, rhs = walk(b, CHECKS, also=("identical pdfs",))
    unsupported = (masks["unsupported r for I"] | masks["unsupported r for D"]) & ~masks["identical pdfs"]
    best = log.add(lanes, cands, segments, applied, lhs, rhs, unsupported)
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
    budget; a launch held back comes later, as lanes finish.  An error stops
    only the lane that met it; the others run on, and after the block the
    error of the lowest kept trial is raised.  ``radii``
    is the scan's memo of segment radii by (family, epsilon), which launches fill.
    """
    size = len(config.families) * len(config.dims)
    name = config.modes[block % len(config.modes)]
    mode, slots = _MODES[name], iter(range(block * size, (block + 1) * size))
    lanes: list[_Lane] = []
    log, layout, key = _Log(name), None, None
    with np.errstate(**_QUIET):
        while True:
            active, base, expected = [], 0, 0
            for lane in lanes:
                if lane.used >= trials - base:
                    lane.done = True  # its trials reach the room left to it
                if lane.done:  # a finished lane's length is its trials
                    base += lane.used
                    expected += lane.used
                else:
                    active.append(lane)
                    base += lane.length(1)
                    expected += lane.length(_STEPS_PER_HALVING)
            launched = []
            while expected < trials:
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
        entry = timings.setdefault(part.mode, {"trials": 0, "seconds": 0.0})
        entry["trials"] += part.trials
        entry["seconds"] += now - last
        block, last = block + 1, now
    return agg.report(config, timings)
