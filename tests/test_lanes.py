"""The scan's lanes: slot ranges run apart and merged give the sequential bytes.

``stability_scan`` runs each block of ``len(families) * len(dims)`` slots as
lanes and merges the blocks in slot order with ``_Aggregator``.  Since
every slot draws from its own ``SeedSequence(seed, spawn_key=(slot,))``
stream, blocks run separately, in any order, and merged with that same code
must reproduce the sequential report byte for byte; a block that the trial
budget cuts is run again with its own budget.  Ties go to the first trial,
and a block's log picks each bound's worst as a replay of its kept trials,
in trial order under a strict ``>``, would.  A hill-climb step's row of the
lane's draw block maps to two distinct entries, and its mass transfer builds
a valid ``Pdf``.
"""

import json
import types

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import phientropy as pe
from phientropy import bounds, scan
from phientropy.bounds import ScanConfig, stability_scan


def _payload(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def _merged(config, parts) -> str:
    agg = scan._Aggregator()
    for part in parts:
        agg.merge(part)
    return _payload(agg.report(config))


# Scan fields, and the number of blocks to run: the last one climbs hills.
CONFIGS = {
    "default grid": (dict(seed=41), 4),
    "hill-climb only": (dict(seed=42, modes=("hillclimb",), dims=(2, 16)), 3),
    "two families, hill climb first": (
        dict(seed=43, modes=("hillclimb", "sparse"), families=(pe.shannon(), pe.tsallis(-0.5)), dims=(4, 64)),
        5,
    ),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_partition_reproduces_the_sequential_scan(name):
    fields, blocks = CONFIGS[name]
    probe = ScanConfig(trials=1, **fields)
    # Every block run on its own, last block first, with no budget to cut it.
    parts = [scan._scan_block(probe, block, 10**9, {}) for block in reversed(range(blocks))][::-1]
    total = sum(part.trials for part in parts)
    config = ScanConfig(trials=total, **fields)
    assert _merged(config, parts) == _payload(stability_scan(config))

    # A budget that ends inside the last block, a hill-climb block: that
    # block runs again with the budget left to it, and only it.
    assert parts[-1].trials > 60
    for cut in (1, 29, parts[-1].trials // 2, parts[-1].trials - 1):
        config = ScanConfig(trials=total - parts[-1].trials + cut, **fields)
        last = scan._scan_block(config, blocks - 1, cut, {})
        assert last.trials == cut
        assert _merged(config, parts[:-1] + [last]) == _payload(stability_scan(config))


def _lane(index, fam, used=0):
    return types.SimpleNamespace(index=index, used=used, fam=fam, r=None, error=None)


def _one_row(row, lhs, rhs):
    """(applied, lhs, rhs) of a tick whose lanes report only ``row``."""
    applied = np.zeros((len(bounds.CHECKS), len(lhs)), dtype=bool)
    lhs_rows, rhs_rows = np.zeros(applied.shape), np.ones(applied.shape)
    applied[row], lhs_rows[row], rhs_rows[row] = True, lhs, rhs
    return applied, lhs_rows, rhs_rows


def test_tie_goes_to_the_lower_trial_index():
    # Lanes 0 and 1 (trials 0 and 1) report the same cont1 ratio in one tick,
    # listed in batch order 1, 0, as lanes of different families can be.
    row = bounds.BOUND_IDS.index("cont1")
    fam = pe.shannon()
    lanes = [_lane(1, fam), _lane(0, fam)]
    pdfs = [
        (pe.validate([0.5, 0.5]), pe.validate([0.6, 0.4])),
        (pe.validate([0.3, 0.7]), pe.validate([0.2, 0.8])),
    ]
    log = scan._Log()
    log.add(lanes, pdfs, [None, None], *_one_row(row, [0.25, 0.25], [0.5, 0.5]), np.zeros(2, dtype=bool))
    for lane in lanes:
        lane.used = 1
    agg = scan._Aggregator()
    agg.merge(log.finish(sorted(lanes, key=lambda lane: lane.index), trials=2))
    assert agg.worst[row][0] == 0.5 and agg.scan_worst == (0.5, row)
    # Trial 0 is lane 0, whose pdfs are the second pair.
    assert agg.worst[row][1][1] is pdfs[1][0]

    # Across blocks: a later block's equal ratio does not replace the worst.
    config = ScanConfig(families=(fam,), dims=(2,), trials=3)
    first = agg.report(config).per_bound["cont1"].witness
    later = scan._Log()
    later.add([_lane(0, fam)], pdfs[:1], [None], *_one_row(row, [0.25], [0.5]), np.zeros(1, dtype=bool))
    agg.merge(later.finish([_lane(0, fam, used=1)], trials=1))
    report = agg.report(config)
    assert report.per_bound["cont1"].witness == first and report.witness == first


def test_only_a_lanes_raised_maxima_are_kept():
    # A lane's later trial that only ties its running max never becomes a
    # worst: the earlier trial is kept whenever it is.
    row = bounds.BOUND_IDS.index("cont1")
    lane = _lane(0, pe.shannon())
    pairs = [(pe.validate([0.5, 0.5]), pe.validate([0.6 - k / 10, 0.4 + k / 10])) for k in range(4)]
    log = scan._Log()
    for used, lhs in enumerate((0.2, 0.1, 0.3, 0.3)):
        lane.used = used
        log.add([lane], [pairs[used]], [None], *_one_row(row, [lhs], [1.0]), np.zeros(1, dtype=bool))
    lane.used = 4
    agg = scan._Aggregator()
    agg.merge(log.finish([lane], trials=4))
    # The worst is trial 2's, not trial 3's.
    assert agg.worst[row][0] == 0.3 and agg.worst[row][1][2] is pairs[2][1]
    # Cut before the raise: the prefix's worst.
    log_cut = log.finish([types.SimpleNamespace(used=4, error=None)], trials=2)
    agg_cut = scan._Aggregator()
    agg_cut.merge(log_cut)
    assert agg_cut.worst[row][0] == 0.2 and log_cut.trials == 2 and log_cut.discarded == 2
    assert agg_cut.worst[row][1][2] is pairs[0][1]


def test_error_of_the_lowest_trial_is_raised():
    bad, worse = pe.errors.DomainError("first"), pe.errors.DomainError("second")
    lanes = [
        types.SimpleNamespace(used=3, error=None),
        types.SimpleNamespace(used=2, error=bad),
        types.SimpleNamespace(used=1, error=worse),
    ]
    log = scan._Log()
    with pytest.raises(pe.errors.DomainError, match="first"):
        log.finish(lanes, trials=10)
    # Past the budget, an error was never reached.
    lanes[1].used = 5
    lanes[2].error = None
    one = _one_row(0, [0.0], [1.0])
    log.add([_lane(0, pe.shannon())], [(None, None)], [None], *one, np.zeros(1, dtype=bool))
    assert log.finish(lanes, trials=4).trials == 4


def _failing_radii(monkeypatch, failing: dict) -> None:
    """Make the radius solve of each family in ``failing`` return its error."""
    real = scan.condition1_radii

    def radii(pairs):
        return [failing.get(fam, radius) for (fam, _), radius in zip(pairs, real(pairs))]

    monkeypatch.setattr(scan, "condition1_radii", radii)


def test_a_failed_radius_fails_the_scan_only_from_its_first_kept_trial(monkeypatch):
    # A hill-climb block whose last slot's family has no radius: that slot's
    # first trial comes after every trial of the slots before it.
    grid = pe.default_family_grid()
    fields = dict(seed=45, modes=("hillclimb",), dims=(2,))
    # The other slots of the block run as they do without the last family.
    before = scan._scan_block(ScanConfig(families=grid[:-1], **fields), 0, 10**9, {}).trials
    unpatched = _payload(stability_scan(ScanConfig(families=grid, trials=before, **fields)))
    error = pe.errors.InfeasibleEpsilon("no radius for the last family")
    _failing_radii(monkeypatch, {grid[-1]: error})
    assert _payload(stability_scan(ScanConfig(families=grid, trials=before, **fields))) == unpatched
    with pytest.raises(pe.errors.InfeasibleEpsilon) as raised:
        stability_scan(ScanConfig(families=grid, trials=before + 1, **fields))
    assert raised.value is error


@pytest.mark.parametrize("swap", [False, True], ids=["in grid order", "swapped"])
def test_of_two_failed_radii_the_lower_slot_fails_the_scan(monkeypatch, swap):
    # Every slot of a uniform block runs one trial, at one tick.
    grid = list(pe.default_family_grid())
    if swap:
        grid[3], grid[4] = grid[4], grid[3]
    errors = {fam: pe.errors.InfeasibleEpsilon(fam.label) for fam in grid[3:5]}
    _failing_radii(monkeypatch, errors)
    with pytest.raises(pe.errors.InfeasibleEpsilon) as raised:
        stability_scan(ScanConfig(families=tuple(grid), modes=("uniform",), trials=100))
    assert raised.value is errors[grid[3]]


# (lhs, rhs) pairs a differential tick draws: ratios 0, 0.5 (from two
# different pairs, so that ties show which trial won), 0.75 and 2 (a
# violation), a noise-floor pair whose ratio never becomes a worst, and an
# undefined ratio (rhs = 0).
_SIDES = ((0.0, 1.0), (0.25, 0.5), (0.5, 1.0), (0.75, 1.0), (2.0, 1.0), (3e-16, 2.8e-16), (0.5, 0.0))


@st.composite
def _blocks(draw):
    """Blocks of lanes, each as (lengths, starts, ticks, budget).

    Lane i runs ``lengths[i]`` trials from tick ``starts[i]`` on; each tick
    lists its lanes in a drawn order, as (lane, side per row or None where the
    row does not apply, unsupported).
    """
    rows, blocks = len(bounds.CHECKS), []
    for _ in range(draw(st.integers(1, 3))):
        lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        starts = draw(st.lists(st.integers(0, 3), min_size=len(lengths), max_size=len(lengths)))
        ticks = []
        for t in range(max(map(sum, zip(starts, lengths)))):
            active = [i for i, (s, n) in enumerate(zip(starts, lengths)) if s <= t < s + n]
            sides = st.lists(st.one_of(st.none(), st.sampled_from(_SIDES)), min_size=rows, max_size=rows)
            ticks.append([(i, draw(sides), draw(st.booleans())) for i in draw(st.permutations(active))])
        blocks.append((lengths, starts, ticks, draw(st.integers(1, sum(lengths) + 1))))
    return blocks


def _replay(trials, want):
    """Fold ``trials``, each (inputs, sides, unsupported) in trial order, into
    ``want``, rows in order, under a strict ``>``."""
    for inputs, sides, unsupported in trials:
        want["support_errors"] += unsupported
        for row, side in enumerate(sides):
            if side is None:
                continue
            lhs, rhs = side
            tol = bounds.TOL_SCALE * (1.0 + abs(rhs))
            want["counts"][row] += 1
            want["violations"] += lhs > rhs + tol
            if not rhs > 0 or (abs(lhs) <= tol and rhs <= tol):
                continue
            x = lhs / rhs
            if row not in want["worst"] or x > want["worst"][row][0]:
                want["worst"][row] = (x, (*inputs, lhs, rhs))
            if want["scan_worst"] is None or x > want["scan_worst"][0]:
                want["scan_worst"] = (x, row)


@given(_blocks())
def test_log_picks_the_worst_that_a_replay_of_every_kept_trial_picks(blocks):
    fam, rows = pe.shannon(), len(bounds.CHECKS)
    want = dict(counts=[0] * rows, violations=0, support_errors=0, worst={}, scan_worst=None)
    agg = scan._Aggregator()
    for b, (lengths, starts, ticks, budget) in enumerate(blocks):
        lanes, log, trials = [_lane(i, fam) for i in range(len(lengths))], scan._Log(), {}
        for t, tick in enumerate(ticks):
            applied = np.zeros((rows, len(tick)), dtype=bool)
            lhs, rhs = np.zeros(applied.shape), np.ones(applied.shape)
            cands = []
            for k, (i, sides, unsupported) in enumerate(tick):
                lanes[i].used = t - starts[i]
                cands.append((("p", b, i, lanes[i].used), ("q", b, i, lanes[i].used)))
                trials[i, lanes[i].used] = ((fam, *cands[-1], None, None), sides, unsupported)
                for row, side in enumerate(sides):
                    if side is not None:
                        applied[row, k], (lhs[row, k], rhs[row, k]) = True, side
            unsupported = np.array([u for _, _, u in tick], dtype=bool)
            log.add([lanes[i] for i, _, _ in tick], cands, [None] * len(tick), applied, lhs, rhs, unsupported)
        for lane, n in zip(lanes, lengths):
            lane.used = n
        part = log.finish(lanes, trials=budget)
        agg.merge(part)
        # Trials are numbered in slot order: lane 0's first, then lane 1's.
        numbered = [trials[i, pos] for i, n in enumerate(lengths) for pos in range(n)]
        _replay(numbered[:budget], want)
        assert part.trials == min(budget, len(numbered))
        assert part.discarded == len(numbered) - part.trials
    assert agg.counts.tolist() == want["counts"]
    assert (agg.violations, agg.support_errors) == (want["violations"], want["support_errors"])
    # Each trial's inputs are unique, so equal records name the same trial.
    assert agg.worst == want["worst"] and agg.scan_worst == want["scan_worst"]


def _step(dim, row):
    """(pdf, i, j) of the mass transfer that a hill-climb step drawing ``row`` makes."""
    moves = []
    lane = types.SimpleNamespace(used=1, dim=dim, draws=[None, row], p="p", q="q", step=0.1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "_transfer", lambda pdf, i, j, amount: moves.append((pdf, i, j)) or pdf)
        scan._Lane.candidate(lane)
    (move,) = moves
    return move


# rng.random() variates: multiples of 2**-53 in [0, 1).
_VARIATES = st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53)
_LAST = 1.0 - 2.0**-53


@pytest.mark.parametrize("dim", (2, 3, 16, 64, 1000, 20001))
@given(flip=_VARIATES, a=_VARIATES, b=_VARIATES)
@example(flip=0.0, a=0.0, b=0.0)
@example(flip=_LAST, a=_LAST, b=_LAST)
@example(flip=0.5, a=0.0, b=_LAST)
@example(flip=0.5 - 2.0**-53, a=_LAST, b=0.0)
def test_step_draws_map_to_two_distinct_entries(dim, flip, a, b):
    pdf, i, j = _step(dim, [flip, a, b, 0.0, 0.0])
    assert pdf == ("p" if flip < 0.5 else "q")
    assert type(i) is int and type(j) is int
    assert 0 <= i < dim and 0 <= j < dim and i != j


@pytest.mark.parametrize("dim", (2, 3, 16, 64, 1000, 20001))
def test_extreme_step_draws_reach_the_end_entries(dim):
    assert _step(dim, [0.0, 0.0, 0.0, 0.0, 0.0])[1:] == (0, 1)
    assert _step(dim, [0.0, 0.0, _LAST, 0.0, 0.0])[1:] == (0, dim - 1)
    assert _step(dim, [0.0, _LAST, _LAST, 0.0, 0.0])[1:] == (dim - 1, dim - 2)


def test_hill_climb_at_dims_one_and_two_runs_to_its_budget():
    # A dim-1 slot runs one trial; the dim-2 restarts fill the budget.
    report = stability_scan(ScanConfig(dims=(1, 2), modes=("hillclimb",), trials=400))
    assert report.trials == 400 and report.violations == 0
    assert report.timings["hillclimb"]["trials"] == 400


def test_dim_one_slot_runs_one_trial_in_every_mode():
    # At dim 1, p = q = (1.0): no step can move mass, and no trial evaluates a
    # bound.  A hill-climb restart there used to run 28 trials.
    for mode in ("uniform", "sparse", "neighbor", "hillclimb"):
        log = scan._scan_block(ScanConfig(dims=(1,), modes=(mode,)), 0, 10**9, {})
        assert log.trials == 13 and log.discarded == 0 and not log.counts.any(), mode


weights = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12).filter(lambda w: sum(w) > 0)


@given(weights, st.data(), st.floats(1e-12, 0.1))
def test_transfer_equals_checked_constructor(w, data, amount):
    p = pe.normalize(w)
    i = data.draw(st.integers(0, p.n - 1))
    j = data.draw(st.sampled_from([k for k in range(p.n) if k != i]))
    before = p.weights.copy()

    got = scan._transfer(p, i, j, amount)

    ref = p.weights.copy()
    moved = min(amount, ref[i])
    ref[i] -= moved
    ref[j] += moved
    want = pe.Pdf(ref)
    assert isinstance(got, pe.Pdf)
    assert got.weights.tobytes() == want.weights.tobytes()
    assert not got.weights.flags.writeable
    assert pe.Pdf(got.weights).weights.tobytes() == got.weights.tobytes()  # passes the checks
    assert p.weights.tobytes() == before.tobytes()
