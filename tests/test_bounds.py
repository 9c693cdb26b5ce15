import dataclasses
import json
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phientropy as pe
import phientropy.bounds as bounds
import phientropy.scan as scan
import phientropy.table as table
from phientropy import distributions
from phientropy.bounds import (
    ScanConfig,
    condition1_delta,
    entropy_min_half,
    run_bound_checks,
    stability_scan,
)
from phientropy.errors import (
    DomainError,
    FamilyError,
    IdenticalPdfs,
    LengthMismatch,
    ParamError,
    RangeError,
    SupportError,
)
from phientropy.numerics import bisect_monotone

from conftest import random_pdf

P = lambda: pe.validate([0.5, 0.5])
Q = lambda: pe.validate([0.25, 0.75])
R = lambda: pe.validate([0.4, 0.6])


def triple(rng, n, sparse=False):
    return tuple(random_pdf(rng, n, sparse=sparse) for _ in range(3))


class TestMetricD:
    def test_zero_at_equal(self, family):
        p = P()
        assert pe.metric_d(family, p, p) == 0.0

    def test_shannon_disjoint(self):
        got = pe.metric_d(pe.shannon(), pe.validate([1.0, 0.0]), pe.validate([0.0, 1.0]))
        assert got == pytest.approx(2.0, abs=1e-14)

    def test_tsallis_lesche1_rhs_oracle(self):
        # (1 + 1/kappa)||d||_1 - (1/kappa) sum |d|^(1+kappa) at |d| = (1/4, 1/4)
        fam = pe.tsallis(0.5)
        p, q = P(), pe.validate([0.25, 0.75])
        want = 3.0 * 0.5 - 2.0 * (2.0 * 0.25**1.5)
        assert pe.metric_d(fam, p, q) == pytest.approx(want, rel=1e-13)
        assert want == pytest.approx(1.0, abs=1e-15)

    def test_symmetry_exact(self, family, rng):
        p, q, _ = triple(rng, 9)
        assert pe.metric_d(family, p, q) == pe.metric_d(family, q, p)

    def test_positive_for_distinct(self, family, rng):
        for _ in range(50):
            p, q, _ = triple(rng, int(rng.integers(2, 10)))
            if pe.tv_norm(p, q) > 0:
                assert pe.metric_d(family, p, q) > 0.0

    def test_triangle(self, family, rng):
        for _ in range(150):
            p, q, r = triple(rng, int(rng.integers(2, 12)))
            assert pe.metric_d(family, p, r) <= (
                pe.metric_d(family, p, q) + pe.metric_d(family, q, r) + 1e-11
            )

    def test_capped(self, family, rng):
        p, q, r = triple(rng, 6)
        d = pe.metric_d(family, p, q)
        assert pe.metric_d_capped(family, p, q, cap=d + 1.0) == d
        assert pe.metric_d_capped(family, p, q, cap=d / 2) == d / 2
        with pytest.raises(ParamError):
            pe.metric_d_capped(family, p, q, cap=0.0)

    def test_capped_triangle(self, family, rng):
        for _ in range(100):
            p, q, r = triple(rng, 5)
            cap = 0.3
            dm = lambda a, b: pe.metric_d_capped(family, a, b, cap)
            assert dm(p, r) <= dm(p, q) + dm(q, r) + 1e-11


class TestReferenceDistances:
    def test_zero_at_equal(self, family):
        p, r = P(), R()
        assert pe.h_r(family, p, p, r) == 0.0
        assert pe.e_r(family, p, p, r) == 0.0

    def test_shannon_h_equals_e(self, rng):
        fam = pe.shannon()
        p, q, r = triple(rng, 7)
        assert pe.h_r(fam, p, q, r) == pytest.approx(pe.e_r(fam, p, q, r), rel=1e-12)

    def test_tsallis_reference_value(self):
        # |d| = (1/4, 1/4), r = (1/2, 1/2): h_r = 0.5 * ln_phi(2)
        fam = pe.tsallis(0.5)
        got = pe.h_r(fam, P(), Q(), P())
        assert got == pytest.approx(0.5 * 3.0 * (math.sqrt(2.0) - 1.0), rel=1e-13)

    def test_nonnegative(self, family, rng):
        for _ in range(100):
            p, q, r = triple(rng, int(rng.integers(2, 10)))
            assert pe.h_r(family, p, q, r) >= 0.0
            assert pe.e_r(family, p, q, r) >= 0.0

    def test_triangle_fixed_r(self, family, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            p, q, s = triple(rng, n)
            r = random_pdf(rng, n)
            assert pe.h_r(family, p, s, r) <= pe.h_r(family, p, q, r) + pe.h_r(family, q, s, r) + 1e-11
            assert pe.e_r(family, p, s, r) <= pe.e_r(family, p, q, r) + pe.e_r(family, q, s, r) + 1e-11

    def test_support_errors(self):
        p, q = pe.validate([0.7, 0.3]), pe.validate([0.3, 0.7])
        r0 = pe.validate([1.0, 0.0])
        with pytest.raises(SupportError):
            pe.h_r(pe.shannon(), p, q, r0)
        with pytest.raises(SupportError):
            pe.e_r(pe.shannon(), p, q, r0)
        # finite limits keep these defined: ln_sup for h_r, ln at 0 for e_r
        assert math.isfinite(pe.h_r(pe.tsallis(-0.5), p, q, r0))
        assert math.isfinite(pe.e_r(pe.tsallis(0.5), p, q, r0))


class TestCont1:
    def test_equal_pdfs_vacuous(self, family):
        rep = pe.check_cont1(family, P(), P())
        assert rep.holds and rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio is None

    def test_holds_randomly(self, family, rng):
        for _ in range(80):
            n = int(rng.integers(2, 24))
            p, q = random_pdf(rng, n, sparse=True), random_pdf(rng, n, sparse=True)
            rep = pe.check_cont1(family, p, q)
            assert rep.holds
            assert rep.ratio is None or rep.ratio <= 1.0 + 1e-9

    def test_shannon_specialization(self, rng):
        # rhs = ||d||_1 - sum |d_k| ln|d_k|
        fam = pe.shannon()
        for _ in range(30):
            p, q = random_pdf(rng, 9), random_pdf(rng, 9)
            diff = np.abs(p.weights - q.weights)
            pos = diff > 0
            want = diff.sum() - float(np.sum(diff[pos] * np.log(diff[pos])))
            assert pe.check_cont1(fam, p, q).rhs == pytest.approx(want, rel=1e-12)

    def test_tsallis_specialization(self, rng):
        # rhs equals (1 + 1/kappa)||d||_1 - (1/kappa) sum |d|^(1+kappa)
        for kappa in (0.5, -0.5, 0.9):
            fam = pe.tsallis(kappa)
            p, q = random_pdf(rng, 7), random_pdf(rng, 7)
            diff = np.abs(p.weights - q.weights)
            want = (1 + 1 / kappa) * diff.sum() - float(np.sum(diff ** (1 + kappa))) / kappa
            assert pe.check_cont1(fam, p, q).rhs == pytest.approx(want, rel=1e-12)

    def test_appendix_decomposition(self, family, rng):
        # I(p) - I(q) = -sum_k integral_{q_k}^{p_k} ln_phi, via per-entry F
        for _ in range(40):
            n = int(rng.integers(2, 12))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            per_entry = np.asarray(pe.big_f(family, p.weights)) - np.asarray(
                pe.big_f(family, q.weights)
            )
            decomp = -float(np.sum(per_entry))
            direct = pe.entropy(family, p, "generic") - pe.entropy(family, q, "generic")
            assert abs(direct - decomp) <= 1e-10


class TestRelentBounds:
    def test_both_hold_randomly(self, family, rng):
        for _ in range(60):
            n = int(rng.integers(2, 16))
            p, q, r = triple(rng, n)
            rep_i, rep_d = pe.check_relent(family, p, q, r)
            assert rep_i.holds and rep_d.holds

    def test_equal_pdfs_zero_lhs(self, family):
        rep_i, rep_d = pe.check_relent(family, P(), P(), R())
        assert rep_i.lhs == 0.0 and rep_d.lhs == 0.0

    def test_q_equals_r_upper_bounds_rel_entropy(self, family, rng):
        # take q = r: d + h_r dominates I(p|q) itself
        for _ in range(30):
            n = int(rng.integers(2, 10))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            rep_i, _ = pe.check_relent(family, p, q, q)
            want = pe.rel_entropy(family, p, q, "omega")
            assert rep_i.lhs == pytest.approx(want, rel=1e-9, abs=1e-11)
            assert want <= rep_i.rhs + rep_i.tol

    def test_lhs_matches_functional_difference(self, family, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            p, q, r = triple(rng, n)
            rep_i, rep_d = pe.check_relent(family, p, q, r)
            di = abs(
                pe.rel_entropy(family, p, r, "omega") - pe.rel_entropy(family, q, r, "omega")
            )
            dd = abs(
                pe.divergence(family, p, r, "generic") - pe.divergence(family, q, r, "generic")
            )
            assert rep_i.lhs == pytest.approx(di, rel=1e-8, abs=1e-12)
            assert rep_d.lhs == pytest.approx(dd, rel=1e-8, abs=1e-12)

    def test_support_error_propagates(self):
        p, q = pe.validate([0.7, 0.3]), pe.validate([0.3, 0.7])
        with pytest.raises(SupportError):
            pe.check_relent(pe.shannon(), p, q, pe.validate([1.0, 0.0]))

    # r vanishes where p and q differ.  kappa_maxwell(0.5) has a finite
    # omega(0) and ln_sup, which relent_I reads, but ln_phi(0+) = -inf, which
    # relent_D reads; tsallis(0.5) the other way round.
    SUPPORT_CASES = {
        "kappa_maxwell(0.5)": (pe.kappa_maxwell(0.5), "relent_I", "relent_D"),
        "tsallis(0.5)": (pe.tsallis(0.5), "relent_D", "relent_I"),
    }

    @pytest.mark.parametrize("case", SUPPORT_CASES)
    def test_each_row_needs_only_its_own_limit(self, case):
        fam, kept, refused = self.SUPPORT_CASES[case]
        p, q, r = pe.validate([0.5, 0.3, 0.2]), pe.validate([0.2, 0.3, 0.5]), pe.validate([0.5, 0.5, 0.0])
        reports, skipped = run_bound_checks(fam, p, q, r)
        assert refused in skipped and kept not in skipped
        (rep,) = [rep for rep in reports if rep.bound_id.startswith("relent")]
        assert rep.bound_id == kept and rep.holds
        if kept == "relent_I":
            lhs = abs(pe.rel_entropy(fam, p, r, "omega") - pe.rel_entropy(fam, q, r, "omega"))
            rhs = pe.metric_d(fam, p, q) + pe.h_r(fam, p, q, r)
        else:
            lhs = abs(pe.divergence(fam, p, r, "generic") - pe.divergence(fam, q, r, "generic"))
            rhs = pe.metric_d(fam, p, q) + pe.e_r(fam, p, q, r)
        assert rep.lhs == pytest.approx(lhs, rel=1e-12)
        assert rep.rhs == pytest.approx(rhs, rel=1e-14)
        with pytest.raises(SupportError, match=f"^{refused}: r vanishes where p and q differ$"):
            pe.check_relent(fam, p, q, r)

    @pytest.mark.parametrize("case", SUPPORT_CASES)
    def test_scan_counts_a_trial_refused_by_either_row(self, case):
        fam, kept, refused = self.SUPPORT_CASES[case]
        report = stability_scan(ScanConfig(families=(fam,), dims=(4, 16), modes=("sparse",), trials=300, seed=5))
        per_bound = report.per_bound
        assert per_bound[kept].trials == per_bound["cont1"].trials
        assert report.support_errors == per_bound["cont1"].trials - per_bound[refused].trials > 0

    def test_tsallis_eight_states(self, rng):
        fam = pe.tsallis(0.5)
        for _ in range(20):
            p, q, r = triple(rng, 8)
            rep_i, rep_d = pe.check_relent(fam, p, q, r)
            assert rep_i.holds and rep_d.holds


class TestImproved:
    @staticmethod
    def tv_one_pair():
        return pe.validate([1.0, 0.0]), pe.validate([0.5, 0.5])

    def test_coincides_with_cont1_at_tv_one(self, family):
        p, q = self.tv_one_pair()
        assert pe.tv_norm(p, q) == 1.0
        rep = pe.check_improved(family, p, q)
        assert rep.rhs == pytest.approx(pe.metric_d(family, p, q), rel=1e-10)
        assert rep.holds

    def test_small_perturbation_ratio_below_one(self):
        fam = pe.shannon()
        for t in (0.05, 0.01, 1e-3):
            p = pe.validate([0.5, 0.5])
            q = pe.validate([0.5 - t, 0.5 + t])
            rep = pe.check_improved(fam, p, q)
            assert rep.holds and rep.ratio < 1.0

    def test_equal_rejected(self, family):
        with pytest.raises(IdenticalPdfs):
            pe.check_improved(family, P(), P())

    def test_large_tv_rejected(self, family):
        p, q = pe.validate([1.0, 0.0]), pe.validate([0.0, 1.0])
        with pytest.raises(RangeError):
            pe.check_improved(family, p, q)

    def test_weaker_than_cont1(self, family, rng):
        # the factorized right side dominates the metric when tv <= 1
        for _ in range(60):
            n = int(rng.integers(2, 12))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            if not 0 < pe.tv_norm(p, q) <= 1.0:
                continue
            rep = pe.check_improved(family, p, q)
            assert pe.metric_d(family, p, q) <= rep.rhs + rep.tol
            assert rep.holds


class TestLb:
    def test_shannon_value(self):
        rep = pe.check_lb(pe.shannon(), P(), Q())
        assert rep.lhs == pytest.approx(-1.0 + math.log(2.0), rel=1e-13)
        assert rep.holds

    def test_tsallis_value(self):
        rep = pe.check_lb(pe.tsallis(0.5), P(), Q())
        assert rep.lhs == pytest.approx(-1.0 - 3.0 * (2.0**-0.5 - 1.0), rel=1e-12)
        assert rep.holds

    def test_two_point_extreme_case(self, family):
        # sym_diff = (1/2, 1/2) attains the minimum F(0) - 2 F(1/2)
        p, q = pe.validate([1.0, 0.0]), pe.validate([0.0, 1.0])
        rep = pe.check_lb(family, p, q)
        assert rep.rhs == pytest.approx(entropy_min_half(family), rel=1e-12)
        assert rep.lhs <= rep.rhs

    def test_identical_rejected(self, family):
        with pytest.raises(IdenticalPdfs):
            pe.check_lb(family, P(), P())

    def test_holds_randomly(self, family, rng):
        for _ in range(60):
            n = int(rng.integers(2, 16))
            p, q = random_pdf(rng, n, sparse=True), random_pdf(rng, n, sparse=True)
            if pe.tv_norm(p, q) == 0:
                continue
            assert pe.check_lb(family, p, q).holds


class TestCont2:
    def test_disjoint_two_states(self):
        # N=2, tv=2: rhs = 2 [F(0) + omega(1)] = 2 F(0) = d for shannon
        fam = pe.shannon()
        p, q = pe.validate([1.0, 0.0]), pe.validate([0.0, 1.0])
        rep = pe.check_cont2(fam, p, q)
        assert rep.rhs == pytest.approx(2.0, rel=1e-13)
        assert rep.rhs == pytest.approx(pe.metric_d(fam, p, q), rel=1e-13)

    def test_omega_rescaling_identity(self, rng):
        # omega(N/t) = (1/kappa)(1 - t^kappa) + t^kappa omega(N)
        for kappa in (0.5, -0.5, 0.9, -0.9, 0.1):
            fam = pe.tsallis(kappa)
            for _ in range(20):
                n = int(rng.integers(2, 64))
                t = float(rng.uniform(1e-6, 2.0))
                lhs = pe.omega_phi(fam, n / t)
                rhs = (1.0 - t**kappa) / kappa + t**kappa * pe.omega_phi(fam, float(n))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_relaxation_of_cont1(self, family, rng):
        for _ in range(60):
            n = int(rng.integers(2, 16))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            rep = pe.check_cont2(family, p, q)
            assert rep.holds
            assert pe.metric_d(family, p, q) <= rep.rhs + rep.tol

    def test_identical_rejected(self, family):
        with pytest.raises(IdenticalPdfs):
            pe.check_cont2(family, P(), P())


class TestLescheFannes:
    def test_family_gates(self):
        with pytest.raises(FamilyError):
            pe.check_lesche3(pe.shannon(), P(), Q())
        with pytest.raises(FamilyError):
            pe.check_lesche4(pe.tsallis(0.5), P(), Q())
        with pytest.raises(FamilyError):
            pe.check_fannes(pe.kaniadakis(0.5), P(), Q())

    def test_small_kappa_matches_lesche4(self, rng):
        # the power-law estimate at kappa = 1e-4 approaches the log form
        ts = pe.tsallis(1e-4)
        sh = pe.shannon()
        for _ in range(20):
            n = int(rng.integers(2, 32))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            r3 = pe.check_lesche3(ts, p, q).rhs
            r4 = pe.check_lesche4(sh, p, q).rhs
            assert abs(r3 - r4) <= 1e-2 * max(1.0, abs(r4))

    def test_trivial_zero_lhs(self):
        p = pe.validate([1.0, 0.0, 0.0])
        q = pe.validate([0.0, 1.0, 0.0])
        rep = pe.check_lesche4(pe.shannon(), p, q)
        assert rep.lhs == 0.0 and rep.rhs > 0.0 and rep.holds

    def test_fannes_hypothesis(self):
        p, q = pe.validate([1.0, 0.0]), pe.validate([0.0, 1.0])
        with pytest.raises(RangeError):
            pe.check_fannes(pe.shannon(), p, q)

    def test_fannes_holds_in_range(self, rng):
        from phientropy.distributions import sample_neighbor

        fam = pe.shannon()
        count = 0
        for _ in range(400):
            p = random_pdf(rng, 16)
            q = sample_neighbor(p, 1.0 / 3.0, rng)  # keeps tv <= 1/3
            if pe.tv_norm(p, q) > 1.0 / 3.0 or pe.tv_norm(p, q) == 0:
                continue
            rep = pe.check_fannes(fam, p, q)
            assert rep.holds
            count += 1
        assert count > 100

    def test_lesche4_dominates_fannes(self, rng):
        fam = pe.shannon()
        from phientropy.distributions import sample_neighbor

        for _ in range(50):
            p = random_pdf(rng, 8)
            q = sample_neighbor(p, 0.3, rng)
            if pe.tv_norm(p, q) == 0:
                continue
            assert pe.check_lesche4(fam, p, q).rhs >= pe.check_fannes(fam, p, q).rhs

    def test_lesche3_holds_negative_kappa(self, rng):
        fam = pe.tsallis(-0.5)
        for _ in range(40):
            p, q = random_pdf(rng, 12), random_pdf(rng, 12)
            assert pe.check_lesche3(fam, p, q).holds

    def test_lesche3_is_cont2_rewritten(self, rng):
        # the power-law estimate is an exact algebraic rewrite of the
        # N-explicit bound for tsallis families
        for kappa in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9):
            fam = pe.tsallis(kappa)
            for _ in range(20):
                n = int(rng.integers(2, 48))
                p, q = random_pdf(rng, n), random_pdf(rng, n)
                if pe.tv_norm(p, q) == 0:
                    continue
                a = pe.check_cont2(fam, p, q).rhs
                b = pe.check_lesche3(fam, p, q).rhs
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


class TestCondition1:
    def test_saturates_at_one(self, family):
        f0 = family.f_zero
        i_min = entropy_min_half(family)
        amp = (f0 + i_min) / i_min
        assert condition1_delta(family, amp * 1.01) == 1.0

    def test_shannon_equation_oracle(self):
        # delta solves (delta - delta ln delta) (1 + ln 2)/ln 2 = 1/2
        fam = pe.shannon()
        delta = condition1_delta(fam, 0.5)
        amp = (1.0 + math.log(2.0)) / math.log(2.0)
        assert (delta - delta * math.log(delta)) * amp == pytest.approx(0.5, abs=1e-10)
        def drop(d):
            safe = np.where(d > 0, d, 1.0)
            return np.where(d > 0, (d - d * np.log(safe)) * amp, 0.0)

        oracle = bisect_monotone(drop, 0.5, 0.0, 1.0, tol=1e-12)
        assert delta == pytest.approx(oracle, rel=1e-8)

    def test_monotone_in_epsilon(self, family):
        deltas = [condition1_delta(family, eps) for eps in (0.05, 0.1, 0.5, 1.0, 3.0)]
        assert all(a <= b + 1e-15 for a, b in zip(deltas, deltas[1:]))

    def test_kernel_overflow_prints_no_numpy_warning(self):
        # piecewise_linear's drop at 1 forms 2 * (base - 1), inf for this base.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta = condition1_delta(pe.piecewise_linear(1e308), 0.5)
        assert delta == condition1_delta(pe.piecewise_linear(1e300), 0.5)

    def test_rejects_bad_epsilon(self, family):
        with pytest.raises(ParamError):
            condition1_delta(family, 0.0)

    def test_entropy_min_half_positive(self, family):
        assert entropy_min_half(family) > 0.0


class TestCondition1Segment:
    def test_equal_mixtures_zero(self, family):
        rep = pe.check_condition1_segment(family, P(), Q(), 0.4, 0.4, 0.5)
        assert rep.lhs == 0.0 and rep.holds

    def test_endpoint_reduces_to_condition(self, family, rng):
        # lam=1, mu=0 with tv <= delta is the continuity condition itself
        from phientropy.distributions import sample_neighbor

        delta = condition1_delta(family, 0.5)
        p = random_pdf(rng, 6)
        q = sample_neighbor(p, min(delta, 1.0) * 0.9, rng)
        if pe.tv_norm(p, q) == 0:
            pytest.skip("degenerate draw")
        rep = pe.check_condition1_segment(family, p, q, 1.0, 0.0, 0.5)
        assert rep.holds
        assert rep.lhs == pytest.approx(
            abs(pe.entropy(family, p) - pe.entropy(family, q)), rel=1e-9, abs=1e-12
        )

    def test_hypothesis_violation_rejected(self, family):
        p, q = pe.validate([1.0, 0.0]), pe.validate([0.0, 1.0])
        delta = condition1_delta(family, 0.1)
        if delta >= 1.0:
            pytest.skip("family saturates the radius")
        with pytest.raises(RangeError):
            pe.check_condition1_segment(family, p, q, 1.0, 0.0, 0.1)

    def test_bad_mixing_weights(self, family):
        with pytest.raises(ParamError):
            pe.check_condition1_segment(family, P(), Q(), 1.2, 0.0, 0.5)

    def test_random_segments_hold(self, family, rng):
        for _ in range(40):
            n = int(rng.integers(2, 10))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            tv = pe.tv_norm(p, q)
            if tv == 0:
                continue
            eps = float(rng.choice([0.1, 0.5, 1.0]))
            delta = condition1_delta(family, eps)
            lam = float(rng.uniform(0, 1))
            span = min(1.0, 0.999 * delta / tv)
            mu = max(0.0, lam - span * float(rng.uniform(0, 1)))
            rep = pe.check_condition1_segment(family, p, q, lam, mu, eps)
            assert rep.holds


def _scan_segment(lam, mu, tv, delta):
    """The segment a scan lane with radius ``delta`` takes at tv from a draws row holding lam, mu."""
    lane = types.SimpleNamespace(delta=delta, epsilon=0.5, used=0, draws=[[0.0, 0.0, 0.0, lam, mu]])
    return scan._Lane.segment(lane, tv)


# rng.random() variates, and every float in [0, 1), subnormals included.
_DRAWS = st.one_of(
    st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53),
    st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=True),
)


class TestScanSegmentPull:
    """A scan trial pulls mu toward lam until the segment hypothesis holds.

    With h = 0.5 * delta / tv, the rounding of lam -+ h is no farther from
    lam -+ h than lam is, so |lam - mu| <= 2 h, and the hypothesis holds to
    the last bit; the first three examples are rounding ties, where
    |lam - mu| is 2 h exactly, and the last has a subnormal lam.  The
    solver's radii are bisection midpoints of [0, 1], at least 2**-200;
    radii from 2**-1020 up are tested.  A subnormal radius can miss by an
    ulp, since 0.5 * delta then rounds: lam = 0.5 + 2**-53, mu = 0,
    tv = 2**-1019 and delta = 3 * 2**-1074 pull mu to 0.5, and
    |lam - mu| * tv is 4 * 2**-1074.
    """

    @settings(max_examples=1000)
    @given(
        lam=_DRAWS,
        mu=_DRAWS,
        tv=st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=True),
        delta=st.floats(2.0**-1020, 1.0),
    )
    @example(lam=0.5 + 2.0**-53, mu=0.0, tv=1.0, delta=2.0**-53)
    @example(lam=1.0 - 2.0**-53, mu=0.0, tv=1.5, delta=1.5 * 2.0**-53)
    @example(lam=0.5 - 2.0**-54, mu=0.999, tv=1.0, delta=2.0**-54)
    @example(lam=2.0**-1040, mu=0.75, tv=2.0, delta=2.0**-1020)
    def test_the_hypothesis_holds_after_the_pull(self, lam, mu, tv, delta):
        got_lam, got_mu, epsilon = _scan_segment(lam, mu, tv, delta)
        assert got_lam == lam and epsilon == 0.5 and 0.0 <= got_mu <= 1.0
        assert abs(lam - got_mu) * tv <= delta
        if abs(lam - mu) * tv <= delta:
            assert got_mu == mu


class TestBoundReportShape:
    def test_fields_and_digest_stability(self, family):
        rep1 = pe.check_cont1(family, P(), Q())
        rep2 = pe.check_cont1(family, P(), Q())
        assert rep1 == rep2
        payload = rep1.to_json()
        assert list(payload) == ["bound_id", "lhs", "rhs", "ratio", "holds", "tol", "inputs_digest"]
        assert payload["tol"] == pytest.approx(1e-10 * (1 + abs(payload["rhs"])))

    def test_digest_distinguishes_inputs(self, family):
        a = pe.check_cont1(family, P(), Q()).inputs_digest
        b = pe.check_cont1(family, Q(), P()).inputs_digest
        assert a != b

    def test_custom_family_digest_keys_on_exponent_and_f_zero(self):
        # A custom family enters the digest only through (s, F(0)).
        digest = lambda fam: pe.check_cont1(fam, P(), Q()).inputs_digest
        custom_ln = pe.custom_family(np.log, singularity_exponent=0.0)
        # tsallis(0.5)'s logarithm, also with s = 0 and F(0) = 1
        other_ln = dataclasses.replace(custom_ln, custom_ln=lambda x: 3.0 * (np.sqrt(x) - 1.0))
        assert digest(other_ln) == digest(custom_ln)
        assert digest(dataclasses.replace(custom_ln, singularity_exponent=0.5)) != digest(custom_ln)
        assert digest(pe.shannon()) != digest(custom_ln)


class TestInputValidation:
    @pytest.mark.parametrize("bad", [[0.5, -0.1, 0.6], [0.5, math.nan, 0.5], [math.inf, 0.0, 0.0]])
    def test_weights_must_be_finite_and_nonnegative(self, bad):
        fam, good = pe.shannon(), pe.validate([0.2, 0.3, 0.5])
        with pytest.raises(DomainError):
            pe.check_cont1(fam, pe.Pdf(bad), good)
        with pytest.raises(DomainError):
            pe.check_relent(fam, good, pe.validate([0.3, 0.3, 0.4]), pe.Pdf(bad))
        with pytest.raises(DomainError):
            run_bound_checks(fam, good, pe.Pdf(bad))

    def test_reference_length(self):
        with pytest.raises(LengthMismatch):
            pe.check_relent(pe.shannon(), P(), Q(), pe.validate([1.0]))

    def test_overflowing_reference_ratio(self):
        r = pe.Pdf([1.0, 5e-324])
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError):
                pe.check_relent(pe.tsallis(-0.5), P(), Q(), r)
            with pytest.raises(DomainError):
                pe.h_r(pe.tsallis(-0.5), P(), Q(), r)


class TestRelentAtTinyReference:
    """relent_I where a reference weight is so small that F(p/r) is huge.

    p = (0.5, 0.5), q = (0.6, 0.4): the ratios p/r and q/r at r_2 are finite,
    but F at them may exceed the double range.
    """

    P, Q = (0.5, 0.5), (0.6, 0.4)

    def inputs(self, r2):
        return pe.validate(self.P), pe.validate(self.Q), pe.Pdf([1.0, r2])

    @pytest.mark.parametrize("r2", [1e-200, 1e-250, 1e-300])
    def test_piecewise_linear_reports_stay_finite(self, r2):
        p, q, r = self.inputs(r2)
        reports, skipped = run_bound_checks(pe.piecewise_linear(2.0), p, q, r)
        assert skipped == []
        for rep in reports:
            assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs), rep
            assert rep.holds, rep
        assert math.isfinite(pe.rel_entropy(pe.piecewise_linear(2.0), p, r))

    @pytest.mark.parametrize(
        "fam, r2",
        [
            (pe.tsallis(0.9), 1e-200),
            (pe.tsallis(0.5), 1e-250),
            (pe.kaniadakis(0.5), 1e-250),
            (pe.kaniadakis(-0.5), 1e-250),
            (pe.sqrt_log(), 1e-250),
        ],
        ids=lambda v: v.label if hasattr(v, "label") else repr(v),
    )
    def test_kernel_overflow_at_a_ratio_is_refused(self, fam, r2):
        p, q, r = self.inputs(r2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match="a ratio to r overflows"):
                pe.check_relent(fam, p, q, r)
            with pytest.raises(DomainError, match="a ratio to r overflows"):
                run_bound_checks(fam, p, q, r)

    def test_deliberate_overflow_warns_nothing(self):
        # The kernels overflow on purpose here; the evaluators raise, numpy stays quiet.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fam, r2 in ((pe.tsallis(0.9), 1e-200), (pe.shannon(), 5e-324)):
                p, q, r = self.inputs(r2)
                with pytest.raises(DomainError, match="a ratio to r overflows"):
                    run_bound_checks(fam, p, q, r)
                with pytest.raises(DomainError, match="a ratio to r overflows"):
                    pe.check_relent(fam, p, q, r)
                assert math.isfinite(pe.e_r(fam, p, q, r))
            assert math.isfinite(pe.h_r(pe.tsallis(0.9), *self.inputs(1e-200)))
            with pytest.raises(DomainError, match="a ratio to r overflows"):
                pe.h_r(pe.shannon(), *self.inputs(5e-324))


class TestRelentDAtSubnormalReference:
    """relent_D where ln_phi of a subnormal reference weight is -inf.

    tsallis(-0.99) at r = 1e-320 overflows x**kappa, so ln_phi(r) = -inf
    there; p and q agree on that entry, so its (p - q) ln_phi(r) term is 0.
    """

    FAM = pe.tsallis(-0.99)

    def inputs(self):
        p = pe.Pdf([0.5, 0.5, 1e-320])
        return p, pe.Pdf([0.4, 0.6, 1e-320]), p

    def test_run_bound_checks(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports, skipped = run_bound_checks(self.FAM, *self.inputs())
        by_id = {rep.bound_id: rep for rep in reports}
        assert skipped == [] and {"relent_I", "relent_D"} <= set(by_id)
        for rep in reports:
            assert math.isfinite(rep.lhs) and rep.holds, rep
        # With r = p the cross term sum (p - q) ln_phi(r) cancels exactly.
        assert by_id["relent_D"].lhs == by_id["cont1"].lhs

    def test_check_relent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep_i, rep_d = pe.check_relent(self.FAM, *self.inputs())
        assert rep_i.holds and rep_d.holds
        assert math.isfinite(rep_d.lhs) and math.isfinite(rep_d.rhs)


class TestNoiseFloor:
    """A report with both sides within tol of zero never becomes a worst."""

    def test_below_floor_report_is_counted_not_worst(self):
        # One trial whose only evaluated report is relent_I with lhs / rhs > 1,
        # but both sides rounding noise, as for p and q ulps apart; it goes
        # through the scan's own log, reduction and merge.
        row = bounds.BOUND_IDS.index("relent_I")
        applied = np.zeros((len(bounds.CHECKS), 1), dtype=bool)
        lhs, rhs = np.zeros((len(bounds.CHECKS), 1)), np.zeros((len(bounds.CHECKS), 1))
        applied[row], lhs[row], rhs[row] = True, 3e-16, 2.8e-16
        lane = types.SimpleNamespace(index=0, used=0, fam=None, r=None, error=None)
        log = scan._Log()
        # The ratio still steers the hill climb.
        assert log.add([lane], [(None, None)], [None], applied, lhs, rhs, np.zeros(1, dtype=bool)) == [3e-16 / 2.8e-16]
        lane.used = 1
        agg = scan._Aggregator()
        agg.merge(log.finish([lane], trials=1))
        report = agg.report(ScanConfig(trials=1))
        assert report.per_bound["relent_I"].trials == 1
        assert report.per_bound["relent_I"].worst_ratio is None and report.worst_ratio is None
        assert report.violations == 0

    def test_scan_worst_is_above_floor(self):
        # Sub-scan seed 713355637 of a default benchmark scan: its worst was a
        # relent_I report of lhs ~ 3e-16 against rhs ~ 2.8e-16.
        report = stability_scan(ScanConfig(trials=1000, seed=713355637))
        assert report.violations == 0
        assert report.worst_ratio <= 1.0
        for stats in report.per_bound.values():
            rep = stats.witness["report"] if stats.witness else None
            if rep is not None:
                assert max(rep["lhs"], rep["rhs"]) > rep["tol"], rep

    @given(st.floats(), st.floats())
    @example(3e-16, 2.8e-16)
    @example(1.0, 1.0 - 1e-11)
    @example(0.0, -math.inf)
    def test_one_verdict_for_a_report_and_a_batch(self, lhs, rhs):
        # A single report rules on Python floats, the scan on arrays of sides.
        tol, holds, noise = table.verdict(lhs, rhs)
        with np.errstate(over="ignore", invalid="ignore"):  # rhs + tol near DBL_MAX or at -inf
            tols, held, noisy = table.verdict(np.array([lhs, 0.0]), np.array([rhs, 1.0]))
        assert type(tol) is float and type(holds) is bool and type(noise) is bool
        assert tols[0] == tol or math.isnan(tols[0]) and math.isnan(tol)
        assert (bool(held[0]), bool(noisy[0])) == (holds, noise)
        assert holds is (lhs <= rhs + 1e-10 * (1.0 + abs(rhs)))
        assert noise is (abs(lhs) <= tol and rhs <= tol)


class TestStabilityScan:
    def test_violations_counted_outside_payload(self):
        report = stability_scan(ScanConfig(trials=200, seed=3))
        assert report.violations == 0
        assert "violations" not in report.to_json()

    def test_trials_must_be_positive(self):
        with pytest.raises(ParamError):
            stability_scan(ScanConfig(trials=0))

    def test_hill_climb_budget_is_fixed(self):
        assert bounds.HILL_STEPS == 200
        assert ScanConfig().to_json()["hill_steps"] == 200
        with pytest.raises(TypeError):
            ScanConfig(hill_steps=5)

    def test_unknown_mode(self):
        with pytest.raises(ParamError):
            stability_scan(ScanConfig(trials=5, modes=("drunkwalk",)))

    @pytest.mark.parametrize(
        "fields",
        [{"dims": (2, 0)}, {"dims": (-1,)}, {"dims": ()}, {"modes": ()}, {"families": ()}],
        ids=["dim-zero", "dim-negative", "no-dims", "no-modes", "no-families"],
    )
    def test_config_rejected_before_any_trial(self, fields, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial was sampled")

        for name in ("sample_uniform", "sample_sparse", "sample_neighbor"):
            monkeypatch.setattr(distributions, name, no_trial)
        with pytest.raises(ParamError):
            stability_scan(ScanConfig(trials=5, **fields))

    @pytest.mark.parametrize(
        "fields",
        [
            {"trials": math.inf},
            {"trials": 2.5},
            {"trials": True},
            {"dims": (True,)},
            {"dims": (2.5,)},
            {"seed": -1},
            {"seed": 1.5},
        ],
        ids=["trials-inf", "trials-float", "trials-bool", "dim-bool", "dim-float", "seed-negative", "seed-float"],
    )
    def test_config_rejected_at_construction(self, fields):
        # Before the check, trials=inf scanned forever, a bool printed as
        # true in the config JSON, and the rest failed inside numpy.
        with pytest.raises(ParamError):
            ScanConfig(**fields)

    def test_custom_family_rejected_before_any_trial(self):
        custom = pe.custom_family(np.log, singularity_exponent=0.0)
        with pytest.raises(ParamError, match="'custom'.*witnesses must replay through JSON"):
            stability_scan(ScanConfig(families=(pe.shannon(), custom), trials=5))

    def test_deterministic(self):
        cfg = ScanConfig(trials=600, seed=31)
        a = json.dumps(stability_scan(cfg).to_json(), sort_keys=True)
        b = json.dumps(stability_scan(cfg).to_json(), sort_keys=True)
        assert a == b

    def test_seed_changes_results(self):
        a = stability_scan(ScanConfig(trials=400, seed=1)).to_json()
        b = stability_scan(ScanConfig(trials=400, seed=2)).to_json()
        assert a != b

    def test_all_bounds_hold_small_scan(self):
        report = stability_scan(ScanConfig(trials=3000, seed=777))
        assert report.trials == 3000
        assert report.worst_ratio is not None and report.worst_ratio <= 1.0 + 1e-9
        for bid, stats in report.per_bound.items():
            assert stats.worst_ratio is None or stats.worst_ratio <= 1.0 + 1e-9

    def test_sparse_references_counted_not_fatal(self):
        report = stability_scan(ScanConfig(trials=800, seed=5, modes=("sparse",)))
        assert report.support_errors > 0

    def test_witness_replays_identically(self):
        from phientropy.cli import run_bound_checks

        report = stability_scan(ScanConfig(trials=1500, seed=99))
        replayed = 0
        for bid, stats in report.per_bound.items():
            wit = stats.witness
            if wit is None:
                continue
            fam = pe.family_from_json(wit["family"])
            p = pe.validate(wit["p"])
            q = pe.validate(wit["q"])
            r = pe.validate(wit["r"]) if "r" in wit else None
            params = wit.get("params") or {}
            reports, _ = run_bound_checks(
                fam,
                p,
                q,
                r,
                mix_lambda=params.get("lam", 1.0),
                mix_mu=params.get("mu", 0.0),
                epsilon=params.get("epsilon"),
            )
            match = [rep for rep in reports if rep.bound_id == bid]
            assert match, f"replay produced no {bid} report"
            assert match[0].to_json() == wit["report"]
            replayed += 1
        assert replayed >= 8

    def test_two_point_neighbor_ratio_limit(self):
        # Analytic expansion for two-point pdfs: with p = (0, 1) and
        # q = (t, 1-t), g(t) = t - t ln t gives
        #   lhs = g(t) - t^2/2 + O(t^3),   rhs = 2 g(t),
        # so the cont1 ratio is 1/2 - t^2 / (4 g(t)) -> 1/2 from below.
        # The balancing coordinate always contributes a second g(t) to the
        # metric, so the two-point bound saturates at one half, not at 1.
        fam = pe.shannon()
        ratios = []
        for t in (1e-3, 1e-4, 1e-6):
            p = pe.validate([0.0, 1.0])
            q = pe.validate([t, 1.0 - t])
            ratio = pe.check_cont1(fam, p, q).ratio
            g = t - t * math.log(t)
            assert ratio == pytest.approx(0.5 - t * t / (4.0 * g), abs=1e-7)
            ratios.append(ratio)
        assert all(r < 0.5 for r in ratios)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))  # rising toward 1/2

    def test_scan_covers_every_bound(self):
        report = stability_scan(ScanConfig(trials=3000, seed=777))
        assert set(report.per_bound) == {
            "cont1",
            "relent_I",
            "relent_D",
            "improved",
            "cont2",
            "lesche3",
            "lesche4",
            "fannes",
            "lb",
            "condition1_segment",
        }
