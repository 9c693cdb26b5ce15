import math

import numpy as np
import pytest

import phientropy as pe
from phientropy.errors import DomainError, FamilyError, ParamError, SupportError
from phientropy.numerics import integrate

from conftest import random_pdf

# The family kinds the module documents as having closed forms.
CLOSED_ENTROPY = ("shannon", "tsallis", "kaniadakis")
CLOSED_REL_ENTROPY = ("shannon", "tsallis", "kaniadakis")


def uniform(n):
    return pe.Pdf(np.full(n, 1.0 / n))


@pytest.mark.parametrize(
    "call",
    [
        lambda p, q: pe.entropy(pe.shannon(), p, "bogus"),
        lambda p, q: pe.rel_entropy(pe.shannon(), p, q, "bogus"),
        lambda p, q: pe.divergence(pe.shannon(), p, q, "bogus"),
    ],
    ids=["entropy", "rel_entropy", "divergence"],
)
def test_unknown_method_refused(call):
    with pytest.raises(ParamError, match="unknown .*method 'bogus'"):
        call(uniform(2), pe.validate([0.25, 0.75]))


class TestWeightsRefusedAtConstruction:
    """The closed forms never look at a weight's validity; the Pdf type does.

    Before the type checked them, the closed-form shannon entropy of
    (0.5, nan, 0.5) came out as ln 2 and that of (0.5, -0.1, 0.6) as 0.653.
    """

    GOOD = (0.2, 0.3, 0.5)
    CALLS = {
        "entropy": lambda p, q: pe.entropy(pe.shannon(), p, "closed_form"),
        "rel_entropy": lambda p, q: pe.rel_entropy(pe.shannon(), p, q, "closed_form"),
        "rel_entropy_swapped": lambda p, q: pe.rel_entropy(pe.shannon(), q, p, "closed_form"),
        "divergence": lambda p, q: pe.divergence(pe.shannon(), p, q, "closed_form"),
        "tv_norm": pe.tv_norm,
        "sym_diff": pe.sym_diff,
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("bad", [[0.5, math.nan, 0.5], [0.5, -0.1, 0.6], [math.inf, 0.0, 0.0]])
    def test_bad_weights_raise_domain_error(self, call, bad):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            self.CALLS[call](pe.Pdf(bad), pe.validate(self.GOOD))


class TestEntropy:
    def test_point_mass_exactly_zero(self, family):
        for n in (1, 3, 7):
            w = np.zeros(n)
            w[0] = 1.0
            assert pe.entropy(family, pe.Pdf(w), "generic") == 0.0

    def test_shannon_uniform_two(self):
        assert pe.entropy(pe.shannon(), uniform(2)) == pytest.approx(math.log(2), rel=1e-14)

    def test_tsallis_uniform_four(self):
        # (1/kappa)(1 - sum p^(1+kappa)) = 2 (1 - 4 * 4^-1.5) = 1
        got = pe.entropy(pe.tsallis(0.5), uniform(4), "closed_form")
        assert got == pytest.approx(1.0, rel=1e-14)
        assert pe.entropy(pe.tsallis(0.5), uniform(4), "generic") == pytest.approx(1.0, rel=1e-12)

    def test_kaniadakis_uniform_two_closed_form(self):
        # two-term closed form: (1-sum p^(1+k))/(2k(1+k)) + (sum p^(1-k)-1)/(2k(1-k))
        k = 0.5
        s_hi = 2.0 * 0.5 ** (1 + k)
        s_lo = 2.0 * 0.5 ** (1 - k)
        want = (1 - s_hi) / (2 * k * (1 + k)) + (s_lo - 1) / (2 * k * (1 - k))
        fam = pe.kaniadakis(k)
        assert pe.entropy(fam, uniform(2), "closed_form") == pytest.approx(want, rel=1e-14)
        assert pe.entropy(fam, uniform(2), "generic") == pytest.approx(want, rel=1e-12)

    def test_nonnegative(self, family, rng):
        for _ in range(60):
            p = random_pdf(rng, int(rng.integers(1, 24)), sparse=True)
            assert pe.entropy(family, p, "generic") >= -1e-12

    def test_deduced_log_form_agrees(self, family, rng):
        # sum p_k omega(1/p_k) vs the antiderivative form
        for _ in range(40):
            p = random_pdf(rng, int(rng.integers(2, 16)), sparse=True)
            a = pe.entropy(family, p, "generic")
            b = pe.entropy(family, p, "deduced_log")
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_generic_vs_closed(self, family, rng):
        if family.kind not in CLOSED_ENTROPY:
            with pytest.raises(FamilyError):
                pe.entropy(family, uniform(3), "closed_form")
            return
        for _ in range(100):
            p = random_pdf(rng, int(rng.integers(2, 30)), sparse=True)
            a = pe.entropy(family, p, "generic")
            b = pe.entropy(family, p, "closed_form")
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_concavity(self, family, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            for lam in (0.1, 0.5, 0.9):
                mix = pe.Pdf(lam * p.weights + (1 - lam) * q.weights)
                lower = lam * pe.entropy(family, p) + (1 - lam) * pe.entropy(family, q)
                assert pe.entropy(family, mix) >= lower - 1e-10

    def test_padding_invariance(self, family, rng):
        p = random_pdf(rng, 6)
        assert pe.entropy(family, pe.pad(p, 13), "generic") == pytest.approx(
            pe.entropy(family, p, "generic"), abs=1e-12
        )


class TestEntropyMax:
    def test_single_state(self, family):
        assert pe.entropy_max(family, 1) == 0.0

    def test_shannon_eight(self):
        assert pe.entropy_max(pe.shannon(), 8) == pytest.approx(math.log(8), rel=1e-13)

    def test_tsallis_four(self):
        assert pe.entropy_max(pe.tsallis(0.5), 4) == pytest.approx(1.0, rel=1e-13)

    def test_equals_uniform_entropy(self, family):
        for n in (2, 5, 17):
            assert pe.entropy_max(family, n) == pytest.approx(
                pe.entropy(family, uniform(n), "generic"), rel=1e-10
            )

    def test_actually_maximal(self, family, rng):
        n = 6
        cap = pe.entropy_max(family, n)
        for _ in range(50):
            assert pe.entropy(family, random_pdf(rng, n)) <= cap + 1e-10

    def test_bad_n(self, family):
        with pytest.raises(ParamError):
            pe.entropy_max(family, 0)


class TestRelEntropy:
    P = staticmethod(lambda: pe.validate([0.5, 0.5]))
    Q = staticmethod(lambda: pe.validate([0.25, 0.75]))

    def test_zero_at_equal(self, family, rng):
        p = random_pdf(rng, 5)
        assert pe.rel_entropy(family, p, p, "omega") == 0.0

    def test_tsallis_closed_value(self):
        # (1/kappa) sum p ((p/q)^kappa - 1)
        want = 2.0 * (0.5 * (math.sqrt(2.0) - 1.0) + 0.5 * (math.sqrt(2.0 / 3.0) - 1.0))
        fam = pe.tsallis(0.5)
        assert pe.rel_entropy(fam, self.P(), self.Q(), "closed_form") == pytest.approx(want, rel=1e-13)
        assert pe.rel_entropy(fam, self.P(), self.Q(), "omega") == pytest.approx(want, rel=1e-11)

    def test_shannon_is_kl(self):
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert pe.rel_entropy(pe.shannon(), self.P(), self.Q()) == pytest.approx(want, rel=1e-13)

    def test_omega_vs_integral_forms(self, family, rng):
        for _ in range(60):
            n = int(rng.integers(2, 20))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            a = pe.rel_entropy(family, p, q, "omega")
            b = pe.rel_entropy(family, p, q, "integral")
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_generic_vs_closed(self, family, rng):
        if family.kind not in CLOSED_REL_ENTROPY:
            with pytest.raises(FamilyError, match="no closed-form relative entropy"):
                pe.rel_entropy(family, self.P(), self.Q(), "closed_form")
            return
        for _ in range(60):
            n = int(rng.integers(2, 16))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            a = pe.rel_entropy(family, p, q, "omega")
            b = pe.rel_entropy(family, p, q, "closed_form")
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_positive_unless_equal(self, family, rng):
        for _ in range(40):
            n = int(rng.integers(2, 10))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            assert pe.rel_entropy(family, p, q, "omega") > 0.0

    def test_support_gap_needs_finite_omega(self):
        p = pe.validate([0.5, 0.5])
        q = pe.validate([1.0, 0.0])
        with pytest.raises(SupportError):
            pe.rel_entropy(pe.shannon(), p, q)
        with pytest.raises(SupportError):
            pe.rel_entropy(pe.kaniadakis(0.5), p, q)
        # finite omega(0): tsallis kappa<0 and kappa_maxwell admit the gap
        fam = pe.tsallis(-0.5)
        got = pe.rel_entropy(fam, p, q, "omega")
        # gap term contributes -p_k * omega(0) = 0.5 * 2 on index 1
        direct = -0.5 * pe.omega_phi(fam, 2.0) - 0.5 * fam.omega_at_zero
        assert got == pytest.approx(direct, rel=1e-12)
        assert pe.rel_entropy(fam, p, q, "integral") == pytest.approx(got, rel=1e-10)
        assert pe.rel_entropy(pe.kappa_maxwell(1.0), p, q, "omega") > 0

    def test_joint_convexity(self, family, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            p1, q1 = random_pdf(rng, n), random_pdf(rng, n)
            p2, q2 = random_pdf(rng, n), random_pdf(rng, n)
            for lam in (0.25, 0.6):
                pm = pe.Pdf(lam * p1.weights + (1 - lam) * p2.weights)
                qm = pe.Pdf(lam * q1.weights + (1 - lam) * q2.weights)
                mixed = pe.rel_entropy(family, pm, qm, "omega")
                upper = lam * pe.rel_entropy(family, p1, q1, "omega") + (
                    1 - lam
                ) * pe.rel_entropy(family, p2, q2, "omega")
                assert mixed <= upper + 1e-10

    def test_padding_invariance(self, family, rng):
        p, q = random_pdf(rng, 5), random_pdf(rng, 5)
        a = pe.rel_entropy(family, p, q, "omega")
        b = pe.rel_entropy(family, pe.pad(p, 11), pe.pad(q, 11), "omega")
        assert a == pytest.approx(b, abs=1e-12)


class TestDivergence:
    P = staticmethod(lambda: pe.validate([0.5, 0.5]))
    Q = staticmethod(lambda: pe.validate([0.25, 0.75]))

    def test_zero_at_equal(self, family, rng):
        p = random_pdf(rng, 4)
        assert pe.divergence(family, p, p, "generic") == 0.0

    def test_closed_form_only_for_shannon_and_tsallis(self, family):
        if family.kind in ("shannon", "tsallis"):
            return
        with pytest.raises(FamilyError, match="no closed-form divergence"):
            pe.divergence(family, self.P(), self.Q(), "closed_form")

    def test_tsallis_generic_vs_closed(self, rng):
        fam = pe.tsallis(0.5)
        for _ in range(60):
            n = int(rng.integers(2, 16))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            a = pe.divergence(fam, p, q, "generic")
            b = pe.divergence(fam, p, q, "closed_form")
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_shannon_equals_rel_entropy(self, rng):
        fam = pe.shannon()
        for _ in range(40):
            n = int(rng.integers(2, 12))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            assert pe.divergence(fam, p, q, "generic") == pytest.approx(
                pe.rel_entropy(fam, p, q, "omega"), rel=1e-10, abs=1e-13
            )

    def test_linking_identity(self, family, rng):
        # D(p|q) = I(q) - I(p) - sum (p_k - q_k) ln_phi(q_k)
        for _ in range(60):
            n = int(rng.integers(2, 16))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            d = pe.divergence(family, p, q, "generic")
            cross = float(
                np.sum((p.weights - q.weights) * np.asarray(pe.ln_phi(family, q.weights)))
            )
            ident = pe.entropy(family, q) - pe.entropy(family, p) - cross
            residual = pe.entropy(family, p) + d - pe.entropy(family, q) + cross
            assert abs(residual) <= 1e-10
            assert d == pytest.approx(ident, abs=1e-10)

    def test_support_gap_needs_finite_ln(self):
        p = pe.validate([0.5, 0.5])
        q = pe.validate([1.0, 0.0])
        for fam in (pe.shannon(), pe.tsallis(-0.5), pe.kaniadakis(0.5), pe.kappa_maxwell(1.0)):
            with pytest.raises(SupportError):
                pe.divergence(fam, p, q, "generic")
        # ln_phi(0) finite: tsallis kappa>0 and sqrt_log admit the gap
        for fam in (pe.tsallis(0.5), pe.sqrt_log()):
            got = pe.divergence(fam, p, q, "generic")
            assert math.isfinite(got) and got > 0

    def test_convex_in_first_argument(self, family, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            p1, p2, q = random_pdf(rng, n), random_pdf(rng, n), random_pdf(rng, n)
            for lam in (0.3, 0.7):
                pm = pe.Pdf(lam * p1.weights + (1 - lam) * p2.weights)
                mixed = pe.divergence(family, pm, q, "generic")
                upper = lam * pe.divergence(family, p1, q, "generic") + (
                    1 - lam
                ) * pe.divergence(family, p2, q, "generic")
                assert mixed <= upper + 1e-10

    def test_nonnegative(self, family, rng):
        for _ in range(40):
            n = int(rng.integers(2, 10))
            p, q = random_pdf(rng, n), random_pdf(rng, n)
            assert pe.divergence(family, p, q, "generic") >= -1e-12

    def test_padding_invariance(self, family, rng):
        p, q = random_pdf(rng, 4), random_pdf(rng, 4)
        a = pe.divergence(family, p, q, "generic")
        b = pe.divergence(family, pe.pad(p, 9), pe.pad(q, 9), "generic")
        assert a == pytest.approx(b, abs=1e-12)


class TestBregmanF:
    def test_zero_at_one_exactly(self, family):
        assert pe.bregman_f(family, 1.0) == 0.0

    def test_zero_at_zero(self, family):
        assert pe.bregman_f(family, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_tsallis_reference_value(self):
        # F(4) + 3*F(0) with F from quadrature of the tsallis logarithm
        fam = pe.tsallis(0.5)
        f_quad = integrate(lambda t: float(np.asarray(pe.ln_phi(fam, t))), 1.0, 4.0)
        want = f_quad - (1.0 - 4.0) * 1.0
        got = pe.bregman_f(fam, 4.0)
        assert got == pytest.approx(8.0, rel=1e-12)
        assert got == pytest.approx(want, rel=1e-9)

    def test_convexity(self, family, rng):
        xs = np.sort(rng.uniform(0.0, 3.0, size=100))
        f = np.asarray(pe.bregman_f(family, xs))
        mid = np.asarray(pe.bregman_f(family, 0.5 * (xs[:-1] + xs[1:])))
        assert np.all(mid <= 0.5 * (f[:-1] + f[1:]) + 1e-10)

    def test_entropy_from_f(self, family, rng):
        # I(p) = -sum f(p_k)
        p = random_pdf(rng, 8)
        got = -float(np.sum(np.asarray(pe.bregman_f(family, p.weights))))
        assert got == pytest.approx(pe.entropy(family, p, "generic"), rel=1e-10, abs=1e-12)
