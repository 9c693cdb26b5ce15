"""The check table's fused evaluation against the public functions, bit for bit.

``run_bound_checks`` passes every ``big_f_drop`` argument of an input through
one kernel call and reuses what depends only on the family, N and the
reference pdf.  Each (lhs, rhs) it reports must equal, bit for bit, the same
expression built from the public functions (``entropy(..., "generic")``,
``metric_d``, ``sym_diff``, ``omega_phi``, ``big_f_drop``, ``ln_phi``), and
each input must raise the same exception, with the same message, in the same
table order.  The oracle below walks the bounds in ``BOUND_IDS`` order.
"""

import math
import struct

import numpy as np
import pytest

import phientropy as pe
import phientropy.bounds as bounds
from phientropy import families, table
from phientropy.bounds import BOUND_IDS, SCAN_EPSILONS, condition1_delta, e_r, h_r, run_bound_checks
from phientropy.errors import (
    DomainError,
    FamilyError,
    IdenticalPdfs,
    InfeasibleEpsilon,
    ParamError,
    PhiEntropyError,
    RangeError,
    SupportError,
)
from phientropy.families import big_f_drop, ln_phi, omega_phi
from phientropy.numerics import sum_compensated

from conftest import _sequential_bisection

GRID = pe.default_family_grid()
DIMS = (2, 4, 16, 64)
CASES = ("uniform", "sparse", "identical", "disjoint", "near", "overflow", "tiny_tv")
OVERFLOW = "reference weight too small: a ratio to r overflows"
BARE = "r has zero weight where p and q differ"


def _inputs(fam_index: int, n: int, case: str):
    """Seeded (p, q, r, lam, mu, epsilon) for one family, dimension and case."""
    rng = np.random.default_rng([fam_index, n, CASES.index(case)])
    p = rng.dirichlet(np.ones(n))
    q = rng.dirichlet(np.ones(n))
    r = rng.dirichlet(np.ones(n))
    if case == "sparse":
        for w in (p, q, r):
            w[rng.permutation(n)[: n // 2]] = 0.0
            w /= w.sum()
    elif case == "identical":
        q = p.copy()
    elif case == "disjoint":  # tv = 2
        p[n // 2 :] = 0.0
        q[: n // 2] = 0.0
        p, q = p / p.sum(), q / q.sum()
    elif case == "near":
        q = np.abs(p + 1e-7 * rng.standard_normal(n))
        q /= q.sum()
    elif case == "overflow":  # p / r and 1 / r overflow at entry 0
        r[0] = 1e-310
    elif case == "tiny_tv":  # tv is the smallest subnormal: N / tv overflows, tv / N does not
        q = p.copy()
        p[0], q[0] = 0.0, 5e-324
    epsilon = SCAN_EPSILONS[(fam_index + n) % 3]
    lam, mu = rng.uniform(0.0, 1.0, size=2)
    if (fam_index + n) % 2:  # pull the segment inside its radius
        mu = lam + 1e-3 * (mu - lam)
    return pe.Pdf(p), pe.Pdf(q), pe.Pdf(r), float(lam), float(mu), epsilon


def _entropy(fam, w):
    return pe.entropy(fam, pe.Pdf(w), "generic")


def _public_walk(fam, p, q, r, lam, mu, epsilon):
    """(bound id, lhs, rhs) of every applicable bound, from public functions."""
    pw, qw, rw = p.weights, q.weights, r.weights
    n, f0 = p.n, fam.f_zero
    gap = abs(_entropy(fam, pw) - _entropy(fam, qw))
    d = pe.metric_d(fam, p, q)
    tv = pe.tv_norm(p, q)
    out = [("cont1", gap, d)]
    if tv > 0:
        ent_sym = pe.entropy(fam, pe.sym_diff(p, q), "generic")
        out.append(("lb", -f0 - ln_phi(fam, 0.5), ent_sym))
        # tv (F(0) + omega(N / tv)) = N g(tv / N)
        out.append(("cont2", gap, n * big_f_drop(fam, tv / n)))
        if tv <= 1.0:
            out.append(("improved", gap, (big_f_drop(fam, min(tv, 1.0)) / f0) * (f0 + ent_sym)))
    i_max = omega_phi(fam, float(n))
    if fam.kind == "tsallis":
        k = fam.kappa
        out.append(("lesche3", gap, (1.0 + 1.0 / k) * tv + (i_max - 1.0 / k) * tv ** (1.0 + k)))
    if fam.kind == "shannon":
        tlt = tv * math.log(tv) if tv > 0 else 0.0
        out.append(("lesche4", gap, (1.0 + i_max) * tv - tlt))
        if tv <= 1.0 / 3.0:
            out.append(("fannes", gap, i_max * tv - tlt))
    diff = np.abs(pw - qw)
    bare = (pw != qw) & (rw == 0)
    # Where r vanishes and p and q differ, relent_I reads omega(0) and ln_sup,
    # relent_D ln_phi(0+).
    pos = rw > 0
    pp, qq, rr = pw[pos], qw[pos], rw[pos]
    moved = (diff > 0) & pos
    if not bare.any() or fam.omega_at_zero_finite:
        # A tiny r makes the ratios, or the drops at them, overflow on purpose; the library raises.
        with np.errstate(over="ignore"):
            xq, xp = qq / rr, pp / rr
        if not (np.isfinite(xq).all() and np.isfinite(xp).all()):
            raise DomainError(OVERFLOW)
        gq, gp = big_f_drop(fam, xq), big_f_drop(fam, xp)
        with np.errstate(invalid="ignore"):  # inf - inf where both drops overflow
            terms = (pp - qq) * f0 + rr * (gq - gp)
        lhs = sum_compensated(terms)
        with np.errstate(over="ignore"):
            inv = 1.0 / rw[moved]
        if not np.isfinite(inv).all():
            raise DomainError(OVERFLOW)
        h = sum_compensated(diff[moved] * ln_phi(fam, inv))
        if bare.any():
            lhs += -fam.omega_at_zero * sum_compensated(pw[bare] - qw[bare])
            h += fam.ln_sup * sum_compensated(diff[bare])
        out.append(("relent_I", abs(lhs), d + h))
    if not bare.any() or math.isfinite(fam.ln_at_zero):
        e = sum_compensated(diff[moved] * ln_phi(fam, rw[moved]))
        cross = sum_compensated((pp - qq) * ln_phi(fam, rr))
        if bare.any():
            e += fam.ln_at_zero * sum_compensated(diff[bare])
            cross += fam.ln_at_zero * sum_compensated(pw[bare] - qw[bare])
        out.append(("relent_D", abs(_entropy(fam, qw) - _entropy(fam, pw) - cross), d + -e))
    if tv > 0 and abs(lam - mu) * tv <= condition1_delta(fam, epsilon) * (1.0 + 1e-12):
        lhs = abs(_entropy(fam, lam * pw + (1.0 - lam) * qw) - _entropy(fam, mu * pw + (1.0 - mu) * qw))
        out.append(("condition1_segment", lhs, epsilon * ent_sym))
    return out


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except PhiEntropyError as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("fam_index", range(len(GRID)), ids=[f.label for f in GRID])
def test_run_bound_checks_matches_public_functions(fam_index, n, case):
    fam = GRID[fam_index]
    p, q, r, lam, mu, epsilon = _inputs(fam_index, n, case)
    got, got_error = _outcome(run_bound_checks, fam, p, q, r, lam, mu, epsilon)
    want, want_error = _outcome(_public_walk, fam, p, q, r, lam, mu, epsilon)
    assert got_error == want_error
    if want_error is not None:
        return
    reports, skipped = got
    assert [rep.bound_id for rep in reports] == [w[0] for w in want]
    for rep, (_, lhs, rhs) in zip(reports, want):
        assert (_bits(rep.lhs), _bits(rep.rhs)) == (_bits(lhs), _bits(rhs)), rep.bound_id
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs), rep.bound_id
    assert not {rep.bound_id for rep in reports} & set(skipped)
    assert set(skipped) <= set(BOUND_IDS)


def _public_reference_distance(fam, p, q, r, invert):
    """h_r (invert) or e_r, summed from ln_phi where p and q differ."""
    pw, qw, rw = p.weights, q.weights, r.weights
    diff = np.abs(pw - qw)
    bare = (pw != qw) & (rw == 0)
    limit = fam.ln_sup if invert else fam.ln_at_zero
    if bare.any() and not math.isfinite(limit):
        raise SupportError(BARE)
    moved = (diff > 0) & (rw > 0)
    with np.errstate(over="ignore"):  # at a subnormal r, on purpose
        x = 1.0 / rw[moved] if invert else rw[moved]
    if not np.isfinite(x).all():
        raise DomainError(OVERFLOW)
    total = sum_compensated(diff[moved] * ln_phi(fam, x))
    if bare.any():
        total += limit * sum_compensated(diff[bare])
    return total if invert else -total


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("fam_index", range(len(GRID)), ids=[f.label for f in GRID])
def test_reference_distances_match_public_functions(fam_index, case):
    fam = GRID[fam_index]
    for n in DIMS:
        p, q, r, *_ = _inputs(fam_index, n, case)
        for fn, invert in ((h_r, True), (e_r, False)):
            got, got_error = _outcome(fn, fam, p, q, r)
            want, want_error = _outcome(_public_reference_distance, fam, p, q, r, invert)
            assert got_error == want_error
            if want_error is None:
                assert _bits(got) == _bits(want)


def test_cases_cover_the_edges():
    """The inputs above really contain every edge the fused path special-cases."""
    seen = set()
    for fam_index in range(len(GRID)):
        for n in DIMS:
            for case in CASES:
                p, q, r, *_ = _inputs(fam_index, n, case)
                tv = pe.tv_norm(p, q)
                seen.add("tv = 0" if tv == 0 else "tv > 1" if tv > 1 else "0 < tv <= 1")
                if (p.weights == 0).any() or (q.weights == 0).any():
                    seen.add("zero weight")
                if (r.weights == 0).any():
                    seen.add("r with zeros")
                pos = r.weights > 0
                with np.errstate(over="ignore"):
                    if not np.isfinite(p.weights[pos] / r.weights[pos]).all():
                        seen.add("p / r overflows")
                if 0 < tv and not n / tv < math.inf:
                    seen.add("N / tv overflows")
    assert seen == {
        "tv = 0", "tv > 1", "0 < tv <= 1", "zero weight", "r with zeros",
        "p / r overflows", "N / tv overflows",
    }


@pytest.mark.parametrize("case, message", [("overflow", OVERFLOW)])
def test_edge_cases_raise_domain_error(case, message):
    for fam_index, fam in enumerate(GRID):
        p, q, r, lam, mu, epsilon = _inputs(fam_index, 4, case)
        with pytest.raises(DomainError) as info:
            run_bound_checks(fam, p, q, r, lam, mu, epsilon)
        assert str(info.value) == message


def test_subnormal_tv_gives_a_cont2_report_that_holds():
    # cont2's right side is N g(tv / N): no omega(N / tv), which overflows here.
    for fam_index, fam in enumerate(GRID):
        p, q, *_ = _inputs(fam_index, 4, "tiny_tv")
        assert pe.tv_norm(p, q) == 5e-324
        report = pe.check_cont2(fam, p, q)
        assert report.holds and math.isfinite(report.rhs) and report.rhs >= 0.0, fam.label


def _delta_by_public_bisection(fam, epsilon):
    f0 = fam.f_zero
    i_min = 2.0 * big_f_drop(fam, 0.5) - f0
    amp = (f0 + i_min) / i_min

    def coeff(delta):
        return big_f_drop(fam, delta) / f0 * amp

    if coeff(1.0) <= epsilon:
        return 1.0
    # coeff(0) = 0 < epsilon <= coeff(1): [0, 1] is a bracket.
    return _sequential_bisection(coeff, epsilon, 0.0, 1.0, 1e-12)


@pytest.mark.parametrize("epsilon", SCAN_EPSILONS)
@pytest.mark.parametrize("fam", GRID, ids=lambda f: f.label)
def test_condition1_delta_matches_public_bisection(fam, epsilon):
    condition1_delta.cache_clear()
    assert _bits(condition1_delta(fam, epsilon)) == _bits(_delta_by_public_bisection(fam, epsilon))


def test_lockstep_radii_match_lone_radii_and_public_bisection():
    # One lockstep solve of the scan's pairs and of edge cases: each radius,
    # or error, is the lone condition1_delta's, bit for bit, and each radius
    # is the public bisection's.
    no_floor = pe.LogFamily(  # constants that put I_min = 2 * 0.375 - 1 below 0
        kind="custom", custom_ln=lambda x: x - 1.0, singularity_exponent=0.0,
        f_zero=1.0, ln_at_zero=-1.0, ln_sup=math.inf,
    )
    pairs = [(fam, epsilon) for fam in GRID for epsilon in SCAN_EPSILONS] + [
        (pe.shannon(), 1e3),  # saturates at 1
        (pe.piecewise_linear(1e300), 0.5),
        (pe.piecewise_linear(1e308), 0.5),  # the kernel overflows at 1
        (no_floor, 0.5),
        (pe.tsallis(0.5), 0.0),
        (no_floor, math.nan),
    ]
    radii = table.condition1_radii(pairs)
    saturated = 0
    for (fam, epsilon), radius in zip(pairs, radii):
        condition1_delta.cache_clear()
        want, error = _outcome(condition1_delta, fam, epsilon)
        if error is not None:
            assert isinstance(radius, PhiEntropyError) and (type(radius), str(radius)) == error
            continue
        assert _bits(radius) == _bits(want) == _bits(_delta_by_public_bisection(fam, epsilon))
        saturated += radius == 1.0
    errors = [type(radius) for radius in radii if isinstance(radius, PhiEntropyError)]
    assert errors == [InfeasibleEpsilon, ParamError, ParamError] and saturated >= 1


def test_custom_radius_walks_six_levels_per_quadrature(monkeypatch):
    # A custom family's kernel call is one quadrature for all its points: its
    # radius walks six levels of the bisection tree per call, so it integrates
    # fewer times than plain bisection, one quadrature per midpoint, and gets
    # the same bits.
    fam = pe.custom_family(np.log, singularity_exponent=0.0)
    calls = []
    real = families.integrate
    monkeypatch.setattr(families, "integrate", lambda *args, **kw: (calls.append(1), real(*args, **kw))[1])
    condition1_delta.cache_clear()
    radius = condition1_delta(fam, 0.5)
    solved = len(calls)
    want = _delta_by_public_bisection(fam, 0.5)
    assert _bits(radius) == _bits(want)
    assert (solved, len(calls) - solved) == (8, 43)


# Each check_* function, its bound ids and the run_bound_checks arguments
# (r, mix_lambda, mix_mu, epsilon) its own arguments correspond to.
PUBLIC_CHECKS = [
    (pe.check_cont1, ("cont1",), False, False),
    (pe.check_lb, ("lb",), False, False),
    (pe.check_cont2, ("cont2",), False, False),
    (pe.check_improved, ("improved",), False, False),
    (pe.check_lesche3, ("lesche3",), False, False),
    (pe.check_lesche4, ("lesche4",), False, False),
    (pe.check_fannes, ("fannes",), False, False),
    (pe.check_relent, ("relent_I", "relent_D"), True, False),
    (pe.check_condition1_segment, ("condition1_segment",), False, True),
]
REFUSALS = (FamilyError, SupportError, IdenticalPdfs, RangeError, ParamError)


def _assert_checks_agree_with_table(monkeypatch, fam, p, q, r, lam, mu, epsilon):
    """check_X returns the table's report for X, and raises where the table reports no X.

    A batch evaluates only what the rows asked for read: the rows' subset
    reports what the whole table reports for them, bit for bit.
    """
    assert {b for _, ids, _, _ in PUBLIC_CHECKS for b in ids} == set(BOUND_IDS)
    for fn, ids, with_r, with_segment in PUBLIC_CHECKS:
        args = (fam, p, q) + ((r,) if with_r else ()) + ((lam, mu, epsilon) if with_segment else ())
        table_args = (fam, p, q, r if with_r else None) + ((lam, mu, epsilon) if with_segment else ())
        with monkeypatch.context() as m:
            m.setattr(bounds, "CHECKS", tuple(c for c in bounds.CHECKS if c.bound_id in ids))
            want, want_error = _outcome(run_bound_checks, *table_args)
        full, full_error = _outcome(run_bound_checks, *table_args)
        if want_error is None and full_error is None:
            assert [rep for rep in full[0] if rep.bound_id in ids] == want[0], ids
        got, got_error = _outcome(fn, *args)
        if want_error is not None:
            assert got_error == want_error, ids
        elif len(want[0]) == len(ids):
            assert got_error is None, (ids, got_error)
            assert (got if with_r else (got,)) == tuple(want[0])
        else:  # a row skipped, or not applicable to the input: the first such row refuses
            assert got_error is not None and issubclass(got_error[0], REFUSALS), (ids, got)
            first = next(b for b in ids if b not in {rep.bound_id for rep in want[0]})
            assert got_error[1].startswith(f"{first}: "), (ids, got_error)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("fam_index", range(len(GRID)), ids=[f.label for f in GRID])
def test_check_functions_agree_with_the_table(monkeypatch, fam_index, case):
    for n in DIMS:
        inputs = _inputs(fam_index, n, case)
        _assert_checks_agree_with_table(monkeypatch, GRID[fam_index], *inputs)


@pytest.mark.parametrize("fam", GRID, ids=lambda f: f.label)
def test_check_functions_refuse_tv_just_above_one(monkeypatch, fam):
    p, q = pe.Pdf(np.array([0.5000000000000002, 0.5])), pe.Pdf(np.array([0.0, 1.0]))
    assert pe.tv_norm(p, q) == 1.0 + 2.0**-52
    _assert_checks_agree_with_table(monkeypatch, fam, p, q, p, 1.0, 0.0, 0.5)
    with pytest.raises(RangeError):
        pe.check_improved(fam, p, q)
