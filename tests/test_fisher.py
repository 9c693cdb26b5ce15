import math

import numpy as np
import pytest

import phientropy as pe
from phientropy.errors import (
    NonDifferentiableError,
    ParamError,
    StepTooLarge,
    ZeroProbability,
)
from phientropy.fisher import (
    ExpansionReport,
    binomial_mixture_components,
    model_jacobian,
)

BERN = pe.bernoulli_model()


def classical_fisher_bernoulli(theta):
    return 1.0 / (theta * (1.0 - theta))


class TestModels:
    def test_bernoulli_eval(self):
        p = BERN.eval(np.array([0.3]))
        assert p.weights.tolist() == [0.3, 0.7]
        with pytest.raises(StepTooLarge):
            BERN.eval(np.array([1.2]))

    def test_softmax_eval_sums_to_one(self):
        model = pe.softmax_model(5)
        p = model.eval(np.array([0.2, -1.0, 0.5, 0.0]))
        assert p.n == 5
        assert float(p.weights.sum()) == pytest.approx(1.0, abs=1e-14)

    def test_mixture_eval(self):
        model = pe.binomial_mixture_model(6)
        p = model.eval(np.array([0.3, 0.4]))
        assert p.n == 7 and np.all(p.weights > 0)
        with pytest.raises(StepTooLarge):
            model.eval(np.array([0.7, 0.4]))

    def test_jacobian_conserves_mass(self):
        for model, theta in (
            (BERN, np.array([0.37])),
            (pe.softmax_model(4), np.array([0.1, -0.4, 0.9])),
            (pe.binomial_mixture_model(5), np.array([0.25, 0.5])),
        ):
            jac = model_jacobian(model, theta)
            assert np.abs(jac.sum(axis=0)).max() <= 1e-8

    def test_leaky_model_rejected(self):
        leaky = pe.ParametricModel(
            dim_theta=1,
            dim_p=2,
            eval=lambda th: pe.Pdf(np.array([float(th[0]), 1.0 - 0.5 * float(th[0])])),
            name="leaky",
        )
        with pytest.raises(ParamError, match="mass"):
            model_jacobian(leaky, np.array([0.4]))

    def test_bad_dims(self):
        with pytest.raises(ParamError):
            pe.ParametricModel(dim_theta=0, dim_p=2, eval=lambda th: None)
        with pytest.raises(ParamError, match="fd_step"):
            pe.ParametricModel(dim_theta=1, dim_p=2, eval=lambda th: None, fd_step=0)
        with pytest.raises(ParamError, match="at least 2 states"):
            pe.softmax_model(1)
        with pytest.raises(ParamError):
            model_jacobian(BERN, np.array([0.2, 0.3]))


class TestFisherG1:
    def test_bernoulli_shannon_half(self):
        g = pe.fisher_g1(pe.shannon(), BERN, np.array([0.5]))
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(4.0, rel=1e-5)

    def test_bernoulli_tsallis_prefactor(self):
        g = pe.fisher_g1(pe.tsallis(0.5), BERN, np.array([0.5]))
        assert g[0, 0] == pytest.approx(6.0, rel=1e-5)

    def test_prefactor_is_only_family_dependence(self):
        theta = np.array([0.35])
        fams = [pe.shannon(), pe.tsallis(0.5), pe.kaniadakis(0.5), pe.kappa_maxwell(2.0), pe.sqrt_log()]
        normalized = [
            pe.fisher_g1(f, BERN, theta)[0, 0] / pe.ln_phi_prime(f, 1.0) for f in fams
        ]
        for val in normalized[1:]:
            assert val == pytest.approx(normalized[0], rel=1e-6)

    def test_matches_classical_off_center(self):
        for theta in (0.2, 0.65, 0.9):
            g = pe.fisher_g1(pe.shannon(), BERN, np.array([theta]))
            assert g[0, 0] == pytest.approx(classical_fisher_bernoulli(theta), rel=1e-5)

    def test_piecewise_refused(self):
        with pytest.raises(NonDifferentiableError):
            pe.fisher_g1(pe.piecewise_linear(2.0), BERN, np.array([0.4]))

    def test_zero_probability_rejected(self):
        flat = pe.ParametricModel(
            dim_theta=1,
            dim_p=3,
            eval=lambda th: pe.Pdf(np.array([float(th[0]), 1.0 - float(th[0]), 0.0])),
            name="flat",
        )
        with pytest.raises(ZeroProbability):
            pe.fisher_g1(pe.shannon(), flat, np.array([0.4]))

    def test_softmax_closed_form(self):
        model = pe.softmax_model(4)
        theta = np.array([0.3, -0.2, 0.8])
        pi = model.eval(theta).weights
        want = np.diag(pi[:3]) - np.outer(pi[:3], pi[:3])
        got = pe.fisher_g1(pe.shannon(), model, theta)
        assert np.allclose(got, want, rtol=1e-5, atol=1e-8)

    def test_mixture_closed_form(self):
        model = pe.binomial_mixture_model(6)
        theta = np.array([0.3, 0.45])
        b1, b2, b3 = binomial_mixture_components(6)
        p = model.eval(theta).weights
        d = np.stack([b1 - b3, b2 - b3], axis=1)
        want = d.T @ (d / p[:, None])
        got = pe.fisher_g1(pe.shannon(), model, theta)
        assert np.allclose(got, want, rtol=1e-5, atol=1e-8)


class TestFisherG2:
    def test_bernoulli_shannon_equals_g1(self):
        theta = np.array([0.5])
        g1 = pe.fisher_g1(pe.shannon(), BERN, theta)
        g2 = pe.fisher_g2(pe.shannon(), BERN, theta)
        assert g2[0, 0] == pytest.approx(g1[0, 0], rel=1e-6)
        assert g2[0, 0] == pytest.approx(4.0, rel=1e-5)

    def test_bernoulli_tsallis_hand_value(self):
        # sum ln_phi'(p_k) (dp_k)^2 with dp = (1, -1): 2 * 1.5 * 0.5^-0.5
        g2 = pe.fisher_g2(pe.tsallis(0.5), BERN, np.array([0.5]))
        assert g2[0, 0] == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-5)

    def test_differs_from_g1_generically(self):
        theta = np.array([0.5])
        fam = pe.tsallis(0.5)
        g1 = pe.fisher_g1(fam, BERN, theta)[0, 0]
        g2 = pe.fisher_g2(fam, BERN, theta)[0, 0]
        assert abs(g1 - g2) > 0.5  # 6 vs ~4.243

    def test_shannon_equal_on_matrix_models(self, rng):
        model = pe.softmax_model(4)
        theta = rng.uniform(-0.7, 0.7, size=3)
        g1 = pe.fisher_g1(pe.shannon(), model, theta)
        g2 = pe.fisher_g2(pe.shannon(), model, theta)
        assert np.allclose(g1, g2, rtol=1e-6, atol=1e-9)

    def test_symmetry_and_psd(self, family, rng):
        model = pe.binomial_mixture_model(5)
        theta = np.array([0.28, 0.41])
        g = pe.fisher_g2(family, model, theta)
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g).min() >= -1e-9
        if family.kind != "piecewise_linear":
            g1 = pe.fisher_g1(family, model, theta)
            assert np.array_equal(g1, g1.T)
            assert np.linalg.eigvalsh(g1).min() >= -1e-9

    def test_piecewise_knot_probability_refused(self):
        # p = (1/2, 1/2) sits exactly on a knot of the base-2 family
        with pytest.raises(NonDifferentiableError):
            pe.fisher_g2(pe.piecewise_linear(2.0), BERN, np.array([0.5]))


class TestReparametrization:
    def test_scalar_covariance(self):
        # theta = h(s) = s^2 + 0.2: g(s) = g(theta) h'(s)^2
        fam = pe.tsallis(0.5)
        s = 0.55
        h = lambda v: v * v + 0.2
        reparam = pe.ParametricModel(
            dim_theta=1,
            dim_p=2,
            eval=lambda th: BERN.eval(np.array([h(float(th[0]))])),
            name="bern-reparam",
        )
        g_s = pe.fisher_g2(fam, reparam, np.array([s]))[0, 0]
        g_t = pe.fisher_g2(fam, BERN, np.array([h(s)]))[0, 0]
        assert g_s == pytest.approx(g_t * (2.0 * s) ** 2, rel=1e-4)


class TestExpansion:
    def test_zero_displacement(self):
        rep = pe.expansion_check(pe.shannon(), BERN, np.array([0.4]), np.array([0.0]))
        assert rep.r1 == (0.0, 0.0, 0.0) and rep.r2 == (0.0, 0.0, 0.0)
        assert rep.sym == (0.0, 0.0, 0.0)

    def test_small_step_residuals_tiny(self):
        rep = pe.expansion_check(pe.shannon(), BERN, np.array([0.5]), np.array([1e-3]), rungs=2)
        assert max(rep.r1) <= 1e-9 and max(rep.r2) <= 1e-9

    def test_cubic_order_on_ladder(self):
        # steps 1e-2, 5e-3, 2.5e-3 at an asymmetric point
        for fam in (pe.shannon(), pe.tsallis(0.5), pe.kaniadakis(0.5)):
            rep = pe.expansion_check(fam, BERN, np.array([0.3]), np.array([1e-2]))
            assert rep.steps == (1e-2, 5e-3, 2.5e-3)
            assert rep.order1 >= 2.8
            assert rep.order2 >= 2.8

    def test_halving_reduces_by_six(self):
        rep = pe.expansion_check(pe.tsallis(-0.5), BERN, np.array([0.3]), np.array([1e-2]))
        for seq in (rep.r1, rep.r2):
            for a, b in zip(seq, seq[1:]):
                assert a / b >= 6.0

    def test_symmetry_superquadratic(self):
        rep = pe.expansion_check(pe.tsallis(0.5), BERN, np.array([0.3]), np.array([1e-2]))
        rel = [s / st**2 for s, st in zip(rep.sym, rep.steps)]
        assert rel[0] > rel[-1]
        assert rel[-1] <= 0.5 * rel[0]

    def test_matrix_model_expansion(self):
        model = pe.binomial_mixture_model(5)
        rep = pe.expansion_check(
            pe.kaniadakis(0.5), model, np.array([0.3, 0.4]), np.array([8e-3, -6e-3])
        )
        assert rep.order2 >= 2.8 and rep.order1 >= 2.8

    def test_step_too_large(self):
        with pytest.raises(StepTooLarge):
            pe.expansion_check(pe.shannon(), BERN, np.array([0.5]), np.array([0.7]))

    def test_needs_two_rungs(self):
        with pytest.raises(ParamError):
            pe.expansion_check(pe.shannon(), BERN, np.array([0.5]), np.array([1e-2]), rungs=1)

    def test_dtheta_must_match_theta(self):
        with pytest.raises(ParamError, match="dtheta must match"):
            pe.expansion_check(pe.shannon(), BERN, np.array([0.5]), np.array([1e-2, 1e-2]))

    def test_report_type(self):
        rep = pe.expansion_check(pe.shannon(), BERN, np.array([0.4]), np.array([1e-2]))
        assert isinstance(rep, ExpansionReport)
        assert len(rep.steps) == len(rep.r1) == len(rep.r2) == len(rep.sym) == 3


@pytest.mark.parametrize("theta", [[0.2], [0.2, 0.3, 0.4], [[0.2, 0.3]]], ids=["short", "long", "2-d"])
@pytest.mark.parametrize(
    "call",
    [
        lambda model, th: model_jacobian(model, th),
        lambda model, th: pe.fisher_g1(pe.shannon(), model, th),
        lambda model, th: pe.fisher_g2(pe.shannon(), model, th),
        lambda model, th: pe.expansion_check(pe.shannon(), model, th, np.full(np.shape(th), 1e-3)),
    ],
    ids=["model_jacobian", "fisher_g1", "fisher_g2", "expansion_check"],
)
def test_theta_of_the_wrong_shape_is_a_param_error(call, theta):
    # The model is not evaluated first: binmix reads theta[1].
    with pytest.raises(ParamError, match=r"theta must have shape \(2,\)"):
        call(pe.binomial_mixture_model(), np.array(theta))


@pytest.mark.parametrize("theta", [["0.3"], [True], "0.3"], ids=str)
def test_text_and_bool_theta_or_step_is_a_param_error(theta):
    # float() would parse "0.3" and cast True.
    with pytest.raises(ParamError, match="^theta: expected integer or float numbers"):
        pe.fisher_g2(pe.shannon(), pe.bernoulli_model(), theta)
    with pytest.raises(ParamError, match="^dtheta: expected integer or float numbers"):
        pe.expansion_check(pe.shannon(), pe.bernoulli_model(), [0.3], theta)
