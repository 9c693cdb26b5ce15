"""The scan's lanes: slot ranges run apart and merged give the sequential bytes.

``stability_scan`` runs each block of ``len(families) * len(dims)`` slots as
lanes and merges the blocks in slot order with ``_Aggregator``.  Since
every slot draws from its own ``SeedSequence(seed, spawn_key=(slot,))``
stream, blocks run separately, in any order, and merged with that same code
must reproduce the sequential report byte for byte; a block that the trial
budget cuts is run again with its own budget.  Ties go to the first trial.
"""

import json
import types

import numpy as np
import pytest

import phientropy as pe
from phientropy import bounds
from phientropy.bounds import ScanConfig, stability_scan


def _payload(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def _merged(config, parts) -> str:
    agg = bounds._Aggregator()
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
    parts = [bounds._scan_block(probe, block, 10**9, {}) for block in reversed(range(blocks))][::-1]
    total = sum(part.trials for part in parts)
    config = ScanConfig(trials=total, **fields)
    assert _merged(config, parts) == _payload(stability_scan(config))

    # A budget that ends inside the last block, a hill-climb block: that
    # block runs again with the budget left to it, and only it.
    assert parts[-1].trials > 60
    for cut in (1, 29, parts[-1].trials // 2, parts[-1].trials - 1):
        config = ScanConfig(trials=total - parts[-1].trials + cut, **fields)
        last = bounds._scan_block(config, blocks - 1, cut, {})
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
    log = bounds._Log(2)
    log.add(lanes, pdfs, [None, None], *_one_row(row, [0.25, 0.25], [0.5, 0.5]), np.zeros(2, dtype=bool))
    for lane in lanes:
        lane.used = 1
    agg = bounds._Aggregator()
    agg.merge(log.finish(sorted(lanes, key=lambda lane: lane.index), trials=2))
    assert agg.worst[row][0] == 0.5 and agg.scan_worst == (0.5, row)
    # Trial 0 is lane 0, whose pdfs are the second pair.
    assert agg.worst[row][1][1] is pdfs[1][0]

    # Across blocks: a later block's equal ratio does not replace the worst.
    config = ScanConfig(families=(fam,), dims=(2,), trials=3)
    first = agg.report(config).per_bound["cont1"].witness
    later = bounds._Log(1)
    later.add([_lane(0, fam)], pdfs[:1], [None], *_one_row(row, [0.25], [0.5]), np.zeros(1, dtype=bool))
    agg.merge(later.finish([_lane(0, fam, used=1)], trials=1))
    report = agg.report(config)
    assert report.per_bound["cont1"].witness == first and report.witness == first


def test_only_a_lanes_raised_maxima_are_kept():
    # A lane's later trial that does not raise its running max for any row
    # can never be a worst: the earlier trial is kept whenever it is.
    row = bounds.BOUND_IDS.index("cont1")
    lane = _lane(0, pe.shannon())
    pair = (pe.validate([0.5, 0.5]), pe.validate([0.6, 0.4]))
    log = bounds._Log(1)
    for used, lhs in enumerate((0.2, 0.1, 0.3, 0.3)):
        lane.used = used
        log.add([lane], [pair], [None], *_one_row(row, [lhs], [1.0]), np.zeros(1, dtype=bool))
    assert [pos for _, pos, *_ in log.records] == [0, 2]
    lane.used = 4
    agg = bounds._Aggregator()
    agg.merge(log.finish([lane], trials=4))
    assert agg.worst[row][0] == 0.3
    # Cut before the raise: the prefix's worst.
    log_cut = log.finish([types.SimpleNamespace(used=4, error=None)], trials=2)
    agg_cut = bounds._Aggregator()
    agg_cut.merge(log_cut)
    assert agg_cut.worst[row][0] == 0.2 and log_cut.trials == 2 and log_cut.discarded == 2


def test_error_of_the_lowest_trial_is_raised():
    bad, worse = pe.errors.DomainError("first"), pe.errors.DomainError("second")
    lanes = [
        types.SimpleNamespace(used=3, error=None),
        types.SimpleNamespace(used=2, error=bad),
        types.SimpleNamespace(used=1, error=worse),
    ]
    log = bounds._Log(3)
    with pytest.raises(pe.errors.DomainError, match="first"):
        log.finish(lanes, trials=10)
    # Past the budget, an error was never reached.
    lanes[1].used = 5
    lanes[2].error = None
    one = _one_row(0, [0.0], [1.0])
    log.add([_lane(0, pe.shannon())], [(None, None)], [None], *one, np.zeros(1, dtype=bool))
    assert log.finish(lanes, trials=4).trials == 4
