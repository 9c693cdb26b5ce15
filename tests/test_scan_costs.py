"""Counts that pin the check table's and the scan's costs, whatever the host's speed.

A scan solves the radii of its (family, epsilon) pairs once, in lockstep
(``condition1_radii``); the samplers freeze the weights they build without
the ``Pdf`` constructor's checks, and draw them without ``dirichlet``'s
checks; and a block of one-trial slots builds the batch layout of its lanes
once.  A single input computes only what the rows it asks for read.

Tracing tools count calls by replacing module attributes: ``bounds``
re-exports the scan's public names as the same objects, and the scan looks
its samplers up in ``distributions`` at call time.
"""

import numpy as np
import pytest

import phientropy as pe
from phientropy import bounds, distributions, families, scan, table
from phientropy.bounds import SCAN_EPSILONS, ScanConfig, stability_scan


def _counting(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` to record the arguments of each call; return the record."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_bounds_reexports_the_scan_names_as_the_same_objects():
    assert scan.__all__
    for name in scan.__all__:
        assert getattr(bounds, name) is getattr(scan, name), name


def test_patched_samplers_see_the_scan_calls(monkeypatch):
    sparse = _counting(monkeypatch, distributions, "sample_sparse")
    neighbor = _counting(monkeypatch, distributions, "sample_neighbor")
    uniform = _counting(monkeypatch, distributions, "sample_uniform")
    config = ScanConfig(families=(pe.shannon(),), dims=(2, 4), modes=("sparse", "neighbor"), trials=6)
    assert stability_scan(config).trials == 6
    # Three blocks of two slots: sparse (p, q, r each), neighbor (q), sparse.
    assert (len(sparse), len(neighbor), len(uniform)) == (12, 2, 4)


def test_cold_grid_radii_take_few_kernel_calls(monkeypatch):
    # A lone bisection per pair took 404 kernel calls for these 39 radii.
    calls = _counting(monkeypatch, table, "big_f_drop_unchecked")
    pairs = [(fam, epsilon) for fam in pe.default_family_grid() for epsilon in SCAN_EPSILONS]
    radii = table.condition1_radii(pairs)
    assert all(isinstance(radius, float) for radius in radii)
    assert len(calls) <= 150


def test_default_scan_solves_each_radius_once_and_checks_no_pdf(monkeypatch):
    checked = _counting(monkeypatch, distributions.Pdf, "__post_init__")
    asked = _counting(monkeypatch, scan, "condition1_radii")
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
        scan._scan_block(config, block, config.trials, {})
        assert len(built) == 1, mode


def _kernel_calls(monkeypatch) -> dict:
    """Record the number of points of each kernel call the check table makes, and each quadrature."""
    drop = _counting(monkeypatch, table, "big_f_drop_unchecked")
    ln = _counting(monkeypatch, table, "ln_phi_unchecked")
    quadratures = _counting(monkeypatch, families, "integrate")
    return {"drop": drop, "ln": ln, "integrate": quadratures}


def _points(calls: dict) -> dict:
    return {name: [np.size(args[1]) for args in record] for name, record in calls.items() if name != "integrate"}


def _pdfs(n: int, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [pe.Pdf(rng.dirichlet(np.ones(n))) for _ in range(count)]


def test_single_checks_compute_only_what_their_rows_read(monkeypatch):
    # Every input used to pay for the whole table: two drop calls of 73
    # points in all and an ln_phi call of 19 at N = 8.
    fam = pe.tsallis(0.5)
    p, q, r = _pdfs(8, 3, seed=3)
    calls = _kernel_calls(monkeypatch)
    pe.check_cont1(fam, p, q)
    points = _points(calls)
    assert points["ln"] == [] and len(points["drop"]) == 1 and points["drop"][0] <= 27
    for fn in (pe.h_r, pe.e_r):
        calls["drop"].clear()
        fn(fam, p, q, r)
        assert calls["drop"] == [], fn.__name__


def test_run_bound_checks_keeps_its_kernel_calls(monkeypatch):
    fam = pe.tsallis(0.5)
    p, q, r = _pdfs(8, 3, seed=3)
    pe.condition1_delta(fam, 0.5)  # the radius is looked up, not solved, below
    calls = _kernel_calls(monkeypatch)
    bounds.run_bound_checks(fam, p, q, r, 0.3, 0.6, 0.5)
    # The batch's columns; 0.5, 1/r and r.  I_max = omega(N) is the row's closed form.
    points = _points(calls)
    assert sorted(points["drop"]) == [72] and points["ln"] == [19]


def test_custom_family_single_checks_integrate_only_what_they_read(monkeypatch):
    # A kaniadakis(0.3)-like custom family: one quadrature per kernel call.
    # check_cont1 and h_r each ran 19 quadratures when every input paid for
    # the whole table, and check_cont1 six, one per point, before the drop
    # integrated its points together.
    fam = pe.custom_family(lambda x: (x**0.3 - x**-0.3) / 0.6, singularity_exponent=0.3)
    p, q, r = _pdfs(2, 3, seed=5)
    calls = _kernel_calls(monkeypatch)
    pe.check_cont1(fam, p, q)
    assert len(calls["integrate"]) == 1
    calls["integrate"].clear()
    pe.h_r(fam, p, q, r)
    assert calls["integrate"] == []


def test_custom_drop_evaluates_its_logarithm_in_batches():
    # Levels 0-3 of the quadrature's nodes call ln once, on the 65 nodes of
    # every point, so one point or fifty take one call.  One call per level
    # made four (9, 8, 16 and 32 nodes a point), adaptive Simpson 5472 calls
    # for one point, and 10997 calls of one node each before that.
    calls = []

    def ln(x):
        calls.append(np.size(x))
        return (x**0.3 - x**-0.3) / 0.6

    fam = pe.custom_family(ln, singularity_exponent=0.3)
    calls.clear()
    pe.big_f_drop(fam, 0.3)
    assert calls == [65]
    calls.clear()
    pe.big_f_drop(fam, np.logspace(-100, 12, 50))
    assert calls == [50 * 65]


def test_default_scan_keeps_its_kernel_calls(monkeypatch):
    # The scan asks for every row.  The counts follow the scan's draws: the
    # hill climbs' lengths decide when lanes launch, and so the batches.
    calls = _kernel_calls(monkeypatch)
    stability_scan(ScanConfig(seed=400))
    points = _points(calls)
    # I_max = omega(N) is the row's closed form: no drop call (855 calls, 70257 points, before).
    assert (len(points["drop"]), sum(points["drop"])) == (801, 70083)
    assert (len(points["ln"]), sum(points["ln"])) == (54, 7202)


@pytest.mark.parametrize("n", range(1, 65))
def test_flat_dirichlet_draws_what_dirichlet_draws(n):
    # The same values and the same generator state as rng.dirichlet(np.ones(n)),
    # which n = 1 does not call: it draws nothing.
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = distributions._flat_dirichlet(n, rng)
        want = ref.dirichlet(np.ones(n)) if n > 1 else np.array([1.0])
        assert got.tobytes() == want.tobytes(), (n, seed)
        assert rng.random() == ref.random(), (n, seed)
