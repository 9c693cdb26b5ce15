"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a PASS line with the key measured numbers (run with ``pytest -s``
to see them).  Expected values come from independent oracles: mpmath
quadrature, closed-form power sums, brute-force enumeration, and hand
derivations recorded inline.
"""

import hashlib
import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

import phientropy as pe
from phientropy.bounds import (
    ScanConfig,
    condition1_delta,
    default_family_grid,
    entropy_min_half,
    run_bound_checks,
    stability_scan,
)
from phientropy.cli import _json_line
from phientropy.errors import NonDifferentiableError
from conftest import mp_f_drop

GRID = default_family_grid()
ALL_BOUND_IDS = {
    "cont1", "relent_I", "relent_D", "improved", "cont2",
    "lesche3", "lesche4", "fannes", "lb", "condition1_segment",
}


def report(num, message):
    print(f"ACCEPTANCE {num} PASS - {message}")


def random_pair(rng, n):
    return pe.Pdf(rng.dirichlet(np.ones(n))), pe.Pdf(rng.dirichlet(np.ones(n)))


# SHA-256 of what ``phientropy scan --trials 100000 --seed 20040`` prints, per
# numpy SIMD dispatch level (see tests/test_golden.py; the AVX2 digest was
# captured with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").
# Unlike the 1000-trial golden scans, this scan runs hill-climb steps at
# N = 16 and 64, so it pins the step draws at every dimension of the grid.
CRITERION_01_SHA256 = {
    "X86_V4": "0787d3d5c66234f0fbd4f042ac39525694292afa949b452c83e59bbaca3ad94b",
    "X86_V3": "0787d3d5c66234f0fbd4f042ac39525694292afa949b452c83e59bbaca3ad94b",
}


def test_criterion_01_inequality_theorem_suite():
    """>= 1e5 seeded trials across the family/dimension grid, every bound holds."""
    config = ScanConfig(
        families=GRID,
        dims=(2, 4, 16, 64),
        trials=100_000,
        seed=20040,
        modes=("uniform", "sparse", "neighbor", "hillclimb"),
    )
    t0 = time.perf_counter()
    rep = stability_scan(config)
    elapsed = time.perf_counter() - t0
    assert rep.trials >= 100_000
    assert set(rep.per_bound) == ALL_BOUND_IDS
    for bid, stats in rep.per_bound.items():
        assert stats.worst_ratio is None or stats.worst_ratio <= 1.0 + 1e-9, bid
    assert rep.worst_ratio <= 1.0 + 1e-9
    assert elapsed <= 300.0
    level = next((lv for lv in CRITERION_01_SHA256 if __cpu_features__.get(lv)), None)
    if level is not None:
        digest = hashlib.sha256(_json_line(rep.to_json()).encode()).hexdigest()
        assert digest == CRITERION_01_SHA256[level]
    # Every witness replays to its report, and the scan's is one of them.
    witnesses = [stats.witness for stats in rep.per_bound.values() if stats.witness is not None]
    for wit in witnesses:
        bid, params = wit["report"]["bound_id"], wit.get("params") or {}
        reports, _ = run_bound_checks(
            pe.family_from_json(wit["family"]),
            pe.validate(wit["p"]),
            pe.validate(wit["q"]),
            pe.validate(wit["r"]) if "r" in wit else None,
            mix_lambda=params.get("lam", 1.0),
            mix_mu=params.get("mu", 0.0),
            epsilon=params.get("epsilon"),
        )
        assert [r.to_json() for r in reports if r.bound_id == bid] == [wit["report"]], bid
    assert len(witnesses) == len(ALL_BOUND_IDS) and rep.witness in witnesses
    report(
        1,
        f"{rep.trials} trials, worst ratio {rep.worst_ratio:.12f}, "
        f"{rep.support_errors} support skips, {len(witnesses)} witnesses replayed, {elapsed:.1f}s",
    )


def test_criterion_02_closed_form_oracle_agreement():
    """Generic entropy vs tsallis/kaniadakis closed forms, 1e-10 relative."""
    rng = np.random.default_rng(2)
    worst = 0.0
    fams = [pe.tsallis(k) for k in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9)]
    fams += [pe.kaniadakis(0.5), pe.kaniadakis(-0.5)]
    for fam in fams:
        for _ in range(1000):
            p = pe.Pdf(rng.dirichlet(np.ones(int(rng.integers(2, 64)))))
            a = pe.entropy(fam, p, "generic")
            b = pe.entropy(fam, p, "closed_form")
            worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
    assert worst <= 1e-10
    report(2, f"8 families x 1000 pdfs, worst relative gap {worst:.3e}")


def test_criterion_03_quadrature_golden_values():
    """F(0) by quadrature (mpmath, 50 digits) matches the analytic constants to 1e-8."""
    cases = [(pe.shannon(), 1.0), (pe.sqrt_log(), 1.0 / 3.0)]
    cases += [(pe.tsallis(k), 1.0) for k in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9)]
    cases += [(pe.kappa_maxwell(k), 1.0) for k in (0.5, 2.0)]
    cases += [(pe.kaniadakis(k), 1.0 / (1.0 - k * k)) for k in (0.5, -0.5)]
    worst = 0.0
    for fam, want in cases:
        got = float(mp_f_drop(fam, 1.0))
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-8, fam.label
    report(3, f"{len(cases)} families, worst |quadrature - analytic| = {worst:.3e}")


def test_criterion_04_coincidence_identities():
    """The exact algebraic specializations relating the bounds."""
    rng = np.random.default_rng(4)

    # (a) at tv = 1 the factorized bound coincides with the metric bound
    tv_one_pairs = [
        (pe.validate([1.0, 0.0]), pe.validate([0.5, 0.5])),
        (pe.validate([0.75, 0.25, 0.0, 0.0]), pe.validate([0.25, 0.25, 0.25, 0.25])),
        (pe.validate([0.5, 0.5, 0.0]), pe.validate([0.0, 0.5, 0.5])),
    ]
    for fam in GRID:
        for p, q in tv_one_pairs:
            assert pe.tv_norm(p, q) == 1.0
            gap = abs(pe.check_improved(fam, p, q).rhs - pe.metric_d(fam, p, q))
            assert gap <= 1e-10

    # (b, c) shannon and tsallis closed forms of the metric bound rhs
    for _ in range(200):
        n = int(rng.integers(2, 32))
        p, q = random_pair(rng, n)
        diff = np.abs(p.weights - q.weights)
        pos = diff[diff > 0]
        sh_form = float(np.sum(pos) - np.sum(pos * np.log(pos)))
        sh_rhs = pe.check_cont1(pe.shannon(), p, q).rhs
        assert abs(sh_rhs - sh_form) <= 1e-12 * max(1.0, sh_form)
        for k in (0.5, -0.5, 0.9):
            fam = pe.tsallis(k)
            ts_form = (1 + 1 / k) * float(np.sum(diff)) - float(np.sum(diff ** (1 + k))) / k
            ts_rhs = pe.check_cont1(fam, p, q).rhs
            assert abs(ts_rhs - ts_form) <= 1e-12 * max(1.0, abs(ts_form))

    # (d) the q-logarithm rescaling identity behind the N-explicit bound
    for k in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9):
        fam = pe.tsallis(k)
        for _ in range(100):
            n = int(rng.integers(2, 64))
            t = float(rng.uniform(1e-6, 2.0))
            lhs = pe.omega_phi(fam, n / t)
            rhs = (1 - t**k) / k + t**k * pe.omega_phi(fam, float(n))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    # (e) the power-law stability bound approaches the log form as kappa -> 0
    ts, sh = pe.tsallis(1e-4), pe.shannon()
    worst_e = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 32))
        p, q = random_pair(rng, n)
        r3 = pe.check_lesche3(ts, p, q).rhs
        r4 = pe.check_lesche4(sh, p, q).rhs
        worst_e = max(worst_e, abs(r3 - r4) / max(1.0, abs(r4)))
    assert worst_e <= 1e-2
    report(4, f"all identities hold; kappa->0 worst relative gap {worst_e:.3e}")


def test_criterion_05_bregman_equivalence():
    """Divergence equals the Bregman form of f(x) = F(x) - (1-x) F(0)."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(1000):
        fam = GRID[i % len(GRID)]
        n = int(rng.integers(2, 32))
        p, q = random_pair(rng, n)
        d = pe.divergence(fam, p, q, "generic")
        fp = np.asarray(pe.bregman_f(fam, p.weights))
        fq = np.asarray(pe.bregman_f(fam, q.weights))
        fprime = np.asarray(pe.ln_phi(fam, q.weights)) + fam.f_zero
        bregman = float(np.sum(fp - fq - (p.weights - q.weights) * fprime))
        worst = max(worst, abs(d - bregman) / max(1.0, abs(d)))
    assert worst <= 1e-10

    sh = pe.shannon()
    worst_sh = 0.0
    for _ in range(1000):
        p, q = random_pair(rng, int(rng.integers(2, 32)))
        gap = abs(pe.divergence(sh, p, q, "generic") - pe.rel_entropy(sh, p, q, "omega"))
        worst_sh = max(worst_sh, gap / max(1.0, pe.rel_entropy(sh, p, q, "omega")))
    assert worst_sh <= 1e-10
    report(5, f"worst Bregman gap {worst:.3e}, worst shannon D-vs-I gap {worst_sh:.3e}")


def test_criterion_06_fisher_metrics():
    """Both metrics at the Bernoulli midpoint, plus the expansion ladder."""
    model = pe.bernoulli_model()
    theta = np.array([0.5])
    for fam in GRID:
        want_g2 = 2.0 * float(np.asarray(pe.ln_phi_prime(fam, 0.5))) if fam.kind != "piecewise_linear" else None
        if fam.kind == "piecewise_linear":
            with pytest.raises(NonDifferentiableError):
                pe.fisher_g2(fam, model, theta)
            with pytest.raises(NonDifferentiableError):
                pe.fisher_g1(fam, model, theta)
            continue
        g1 = pe.fisher_g1(fam, model, theta)[0, 0]
        g2 = pe.fisher_g2(fam, model, theta)[0, 0]
        want_g1 = 4.0 * float(np.asarray(pe.ln_phi_prime(fam, 1.0)))
        assert abs(g1 - want_g1) <= 1e-5 * want_g1
        assert abs(g2 - want_g2) <= 1e-5 * want_g2

    sh = pe.shannon()
    g1 = pe.fisher_g1(sh, model, theta)[0, 0]
    g2 = pe.fisher_g2(sh, model, theta)[0, 0]
    assert abs(g1 - g2) <= 1e-6 * g1

    orders = []
    for fam in (sh, pe.tsallis(0.5)):
        rep = pe.expansion_check(fam, model, np.array([0.3]), np.array([1e-2]))
        assert rep.steps == (1e-2, 5e-3, 2.5e-3)
        assert rep.order1 >= 2.8 and rep.order2 >= 2.8
        orders += [rep.order1, rep.order2]
    report(6, f"g1/g2 match oracles; expansion orders {['%.2f' % o for o in orders]}")


def test_criterion_07_metric_axioms():
    """Triangle inequality for d, capped d, h_r and e_r over 1e4 triples."""
    rng = np.random.default_rng(7)
    worst = -math.inf
    for i in range(10_000):
        fam = GRID[i % len(GRID)]
        n = int(rng.integers(2, 16))
        p = pe.Pdf(rng.dirichlet(np.ones(n)))
        q = pe.Pdf(rng.dirichlet(np.ones(n)))
        s = pe.Pdf(rng.dirichlet(np.ones(n)))
        r = pe.Pdf(rng.dirichlet(np.ones(n)))
        checks = (
            pe.metric_d(fam, p, s) - pe.metric_d(fam, p, q) - pe.metric_d(fam, q, s),
            pe.metric_d_capped(fam, p, s, 0.4)
            - pe.metric_d_capped(fam, p, q, 0.4)
            - pe.metric_d_capped(fam, q, s, 0.4),
            pe.h_r(fam, p, s, r) - pe.h_r(fam, p, q, r) - pe.h_r(fam, q, s, r),
            pe.e_r(fam, p, s, r) - pe.e_r(fam, p, q, r) - pe.e_r(fam, q, s, r),
        )
        worst = max(worst, *checks)
        assert all(c <= 1e-11 for c in checks)
    assert worst <= 1e-11
    report(7, f"1e4 triples x 4 metrics, worst triangle excess {worst:.3e}")


def _batch_entropy(fam, w):
    """Row-wise entropy through the family's closed power sums (oracle path)."""
    if fam.kind == "shannon":
        terms = np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0)
        return -terms.sum(axis=1)
    k = fam.kappa
    return (1.0 - (w ** (1.0 + k)).sum(axis=1)) / k


def test_criterion_08_condition1_constructivity():
    """No pair within the constructive radius violates the continuity condition."""
    rng = np.random.default_rng(8)
    trials_per_case = 100_000
    dims = (2, 4, 8, 16)
    checked = 0
    for fam in (pe.shannon(), pe.tsallis(0.5)):
        for eps in (0.1, 0.5, 1.0):
            delta = condition1_delta(fam, eps)
            for n in dims:
                b = trials_per_case // len(dims)
                p = rng.dirichlet(np.ones(n), size=b)
                v = rng.standard_normal((b, n))
                v -= v.mean(axis=1, keepdims=True)
                denom = np.abs(v).sum(axis=1)
                lam = 0.999 * delta / np.where(denom > 0, denom, 1.0)
                with np.errstate(divide="ignore", invalid="ignore"):
                    caps = np.where(v < 0, p / np.where(v < 0, -v, 1.0), np.inf)
                lam = np.minimum(lam, caps.min(axis=1))
                q = np.maximum(p + lam[:, None] * v, 0.0)
                diff = np.abs(p - q)
                tv = diff.sum(axis=1)
                live = tv > 0
                assert np.all(tv <= delta * (1 + 1e-12))
                sym = diff[live] / tv[live][:, None]
                lhs = np.abs(_batch_entropy(fam, p[live]) - _batch_entropy(fam, q[live]))
                rhs = eps * _batch_entropy(fam, sym)
                assert not np.any(lhs > rhs + 1e-9)
                checked += int(live.sum())
    report(8, f"{checked} in-radius pairs, no continuity violation")


def test_criterion_09_brute_force_minima():
    """Entropy floor over the entries<=1/2 polytope equals F(0) - 2 F(1/2)."""
    worst = 0.0
    for fam in GRID:
        want = entropy_min_half(fam)
        lb_value = -fam.f_zero - float(np.asarray(pe.ln_phi(fam, 0.5)))
        assert lb_value <= want
        for n in (2, 3, 4):
            best = math.inf
            # extreme points: two entries of 1/2
            for i, j in itertools.combinations(range(n), 2):
                w = np.zeros(n)
                w[i] = w[j] = 0.5
                best = min(best, pe.entropy(fam, pe.Pdf(w), "generic"))
            # dyadic grid over the polytope (step 1/20, includes 0 and 1/2)
            m = 20
            half = m // 2
            if n == 2:
                combos = [(half, half)]
            elif n == 3:
                combos = [
                    (a, b, m - a - b)
                    for a in range(half + 1)
                    for b in range(half + 1)
                    if 0 <= m - a - b <= half
                ]
            else:
                combos = [
                    (a, b, c, m - a - b - c)
                    for a in range(half + 1)
                    for b in range(half + 1)
                    for c in range(half + 1)
                    if 0 <= m - a - b - c <= half
                ]
            for combo in combos:
                w = np.array(combo, dtype=float) / m
                best = min(best, pe.entropy(fam, pe.Pdf(w), "generic"))
            gap = abs(best - want)
            worst = max(worst, gap)
            assert gap <= 1e-6, (fam.label, n)
    report(9, f"grid+extreme minima match the closed floor, worst gap {worst:.3e}")


def _run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "phientropy.cli", *argv],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_10_cli_reproducibility(tmp_path):
    """The documented default scan is byte-stable and its witnesses replay."""
    code1, out1, err1 = _run_cli("scan")
    code2, out2, _ = _run_cli("scan")
    assert code1 == 0 and code2 == 0, err1
    assert out1 == out2  # byte-identical

    payload = json.loads(out1)
    assert payload["config"]["seed"] == 271828
    assert payload["worst_ratio"] <= 1.0 + 1e-9
    replayed = 0
    for bid, stats in payload["per_bound"].items():
        wit = stats["witness"]
        if wit is None:
            continue
        p_path = tmp_path / f"{bid}_p.json"
        q_path = tmp_path / f"{bid}_q.json"
        p_path.write_text(json.dumps({"weights": wit["p"]}))
        q_path.write_text(json.dumps({"weights": wit["q"]}))
        argv = ["bounds", "--family", json.dumps(wit["family"]),
                "--p", str(p_path), "--q", str(q_path)]
        if "r" in wit:
            r_path = tmp_path / f"{bid}_r.json"
            r_path.write_text(json.dumps({"weights": wit["r"]}))
            argv += ["--r", str(r_path)]
        params = wit.get("params")
        if params:
            argv += [
                "--mix-lambda", repr(params["lam"]),
                "--mix-mu", repr(params["mu"]),
                "--epsilon", repr(params["epsilon"]),
            ]
        code, out, err = _run_cli(*argv)
        assert code == 0, err
        match = [rep for rep in json.loads(out)["reports"] if rep["bound_id"] == bid]
        assert match, f"replay produced no {bid} report"
        assert match[0] == wit["report"], bid
        replayed += 1
    assert replayed >= 8
    report(10, f"default scan byte-identical; {replayed} witnesses replayed exactly")
