"""Counts that pin the default scan's fixed costs, whatever the host's speed.

A scan solves the radii of its (family, epsilon) pairs once, in lockstep
(``condition1_radii``); the samplers freeze the weights they build without
the ``Pdf`` constructor's checks; and a block of one-trial slots builds the
batch layout of its lanes once.
"""

import phientropy as pe
from phientropy import bounds, distributions, table
from phientropy.bounds import SCAN_EPSILONS, ScanConfig, stability_scan


def _counting(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` to record the arguments of each call; return the record."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cold_grid_radii_take_few_kernel_calls(monkeypatch):
    # A lone bisection per pair took 404 kernel calls for these 39 radii.
    calls = _counting(monkeypatch, table, "big_f_drop_unchecked")
    pairs = [(fam, epsilon) for fam in pe.default_family_grid() for epsilon in SCAN_EPSILONS]
    radii = table.condition1_radii(pairs)
    assert all(isinstance(radius, float) for radius in radii)
    assert len(calls) <= 150


def test_default_scan_solves_each_radius_once_and_checks_no_pdf(monkeypatch):
    checked = _counting(monkeypatch, distributions.Pdf, "__post_init__")
    asked = _counting(monkeypatch, bounds, "condition1_radii")
    stability_scan(ScanConfig())
    assert not checked
    pairs = [pair for (request,) in asked for pair in request]
    assert len(pairs) == len(set(pairs)) == len(pe.default_family_grid()) * len(SCAN_EPSILONS)


def test_one_trial_block_builds_one_layout(monkeypatch):
    config = ScanConfig()
    built = _counting(monkeypatch, table._Layout, "__init__")
    for block, mode in enumerate(config.modes):
        if mode == "hillclimb":
            continue
        built.clear()
        bounds._scan_block(config, block, config.trials, {})
        assert len(built) == 1, mode
