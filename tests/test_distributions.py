import json

import numpy as np
import pytest

import phientropy as pe
from phientropy import distributions
from phientropy.distributions import (
    Pdf,
    normalize,
    rng_for_seed,
    sample_neighbor,
    sample_simplex,
    sample_sparse,
    sample_uniform,
    validate,
)
from phientropy.errors import (
    DomainError,
    IdenticalPdfs,
    LengthMismatch,
    NegativeWeight,
    ParamError,
    ShrinkError,
    SumError,
)

from conftest import random_pdf


class TestPdf:
    @pytest.mark.parametrize(
        "bad", [[0.5, np.nan, 0.5], [0.5, -0.1, 0.6], [np.inf, 0.0, 0.0], [-np.inf, 1.0]]
    )
    def test_rejects_nonfinite_or_negative_weights(self, bad):
        with pytest.raises(DomainError, match="pdf weights must be finite and nonnegative"):
            pe.Pdf(bad)

    @pytest.mark.parametrize("make", [pe.Pdf, validate, normalize], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [["0.5", "0.5"], [True, False], ["a", 1], [b"1"], [[0.5], [0.25, 0.25]]], ids=str)
    def test_text_and_bools_are_no_weights(self, make, bad):
        # float() would parse the text and cast the bools; ["a", 1] raised a bare ValueError.
        with pytest.raises(ParamError, match="weights: expected integer or float numbers"):
            make(bad)

    def test_rejects_a_two_dimensional_array(self):
        with pytest.raises(ParamError, match="one-dimensional"):
            pe.Pdf([[0.5, 0.5]])

    def test_does_not_check_the_sum(self):
        assert pe.Pdf([0.5, 0.2]).weights.tolist() == [0.5, 0.2]
        assert pe.Pdf([-0.0, 1.0]).n == 2

    def test_len(self):
        assert len(pe.validate([0.2, 0.3, 0.5])) == 3

    def test_allclose(self):
        p = pe.validate([0.25, 0.75])
        near = pe.Pdf([0.25 + 1e-12, 0.75 - 1e-12])
        assert p.allclose(pe.Pdf([0.25, 0.75]))
        assert not p.allclose(near)
        assert p.allclose(near, tol=1e-11)
        assert not p.allclose(near, tol=1e-13)
        # Pdfs of different lengths are never close, even padded with zeros.
        assert not p.allclose(pe.Pdf([0.25, 0.75, 0.0]), tol=1.0)

    def test_to_json_round_trips_through_validate(self):
        p = pe.validate([0.1, 0.2, 0.7])
        payload = json.loads(json.dumps(p.to_json()))
        assert payload == {"weights": [0.1, 0.2, 0.7]}
        assert validate(**payload).weights.tobytes() == p.weights.tobytes()

    def test_normalize_keeps_its_own_negative_weight_error(self):
        with pytest.raises(NegativeWeight) as exc:
            normalize([1.0, -2.0])
        assert exc.value.index == 1


class TestValidate:
    def test_accepts_simple(self):
        p = pe.validate([0.5, 0.5])
        assert p.n == 2 and p.weights.tolist() == [0.5, 0.5]

    def test_sum_error_carries_actual(self):
        with pytest.raises(SumError) as exc:
            pe.validate([0.5, 0.4])
        assert exc.value.actual_sum == pytest.approx(0.9)

    def test_negative_weight_carries_index(self):
        with pytest.raises(NegativeWeight) as exc:
            pe.validate([-0.1, 1.1])
        assert exc.value.index == 0

    def test_never_renormalizes(self):
        with pytest.raises(SumError):
            pe.validate([0.3, 0.3, 0.3])

    def test_explicit_normalize(self):
        p = normalize([3.0, 1.0])
        assert p.weights.tolist() == [0.75, 0.25]
        with pytest.raises(ParamError):
            normalize([0.0, 0.0])

    def test_immutability(self):
        p = pe.validate([0.5, 0.5])
        with pytest.raises(ValueError):
            p.weights[0] = 0.9

    def test_rejects_nan_and_shapes(self):
        with pytest.raises(ParamError):
            pe.validate([np.nan, 1.0])
        with pytest.raises(ParamError):
            pe.validate([])

    def test_rejects_a_tolerance_of_zero(self):
        with pytest.raises(ParamError, match="tolerance must be positive"):
            pe.validate([0.5, 0.5], tol=0)


class TestTvNorm:
    def test_identical(self):
        p = pe.validate([0.3, 0.7])
        assert pe.tv_norm(p, p) == 0.0

    def test_disjoint_maximal(self):
        assert pe.tv_norm(pe.validate([1.0, 0.0]), pe.validate([0.0, 1.0])) == 2.0

    def test_direct_summation(self):
        got = pe.tv_norm(pe.validate([0.5, 0.5]), pe.validate([0.25, 0.75]))
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pe.tv_norm(pe.validate([1.0]), pe.validate([0.5, 0.5]))

    def test_triangle_inequality(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 12))
            p, q, r = (random_pdf(rng, n) for _ in range(3))
            assert pe.tv_norm(p, r) <= pe.tv_norm(p, q) + pe.tv_norm(q, r) + 1e-12


class TestSymDiff:
    def test_disjoint(self):
        d = pe.sym_diff(pe.validate([1.0, 0.0]), pe.validate([0.0, 1.0]))
        assert d.weights.tolist() == [0.5, 0.5]

    def test_direct(self):
        d = pe.sym_diff(pe.validate([0.5, 0.5]), pe.validate([0.25, 0.75]))
        assert d.weights.tolist() == [0.5, 0.5]

    def test_identical_rejected(self):
        p = pe.validate([0.4, 0.6])
        with pytest.raises(IdenticalPdfs):
            pe.sym_diff(p, p)

    def test_mixture_invariance(self, rng):
        # sym_diff(lam*p + (1-lam)*q, q) does not depend on lam in (0, 1]
        p, q = random_pdf(rng, 6), random_pdf(rng, 6)
        ref = pe.sym_diff(p, q)
        for lam in (1.0, 0.7, 0.25, 1e-3):
            mix = pe.Pdf(lam * p.weights + (1 - lam) * q.weights)
            got = pe.sym_diff(mix, q)
            assert np.allclose(got.weights, ref.weights, rtol=0, atol=1e-12)

    def test_entries_at_most_half_and_valid(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 20))
            p, q = random_pdf(rng, n, sparse=True), random_pdf(rng, n, sparse=True)
            if pe.tv_norm(p, q) == 0.0:
                continue
            d = pe.sym_diff(p, q)
            assert np.all(d.weights <= 0.5 + 1e-15)
            pe.validate(d.weights, tol=1e-9)


class TestPad:
    def test_appends_zeros(self):
        assert pe.pad(pe.validate([1.0]), 3).weights.tolist() == [1.0, 0.0, 0.0]

    def test_same_length_is_p_itself(self):
        p = pe.validate([0.5, 0.5])
        assert pe.pad(p, 2) is p

    def test_shrink_rejected(self):
        with pytest.raises(ShrinkError):
            pe.pad(pe.validate([0.5, 0.5]), 1)

    def test_tv_unchanged(self, rng):
        p, q = random_pdf(rng, 5), random_pdf(rng, 5)
        assert pe.tv_norm(pe.pad(p, 9), pe.pad(q, 9)) == pe.tv_norm(p, q)


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_simplex(8, seed=42, mode="uniform")
        b = sample_simplex(8, seed=42, mode="uniform")
        assert np.array_equal(a.weights, b.weights)
        c = sample_simplex(8, seed=43, mode="uniform")
        assert not np.array_equal(a.weights, c.weights)

    def test_single_state(self):
        assert sample_simplex(1, seed=0, mode="uniform").weights.tolist() == [1.0]

    def test_all_modes_valid(self, rng):
        for mode in ("uniform", "sparse"):
            for n in (1, 2, 7, 33):
                p = sample_simplex(n, seed=11, mode=mode)
                pe.validate(p.weights, tol=1e-9)

    def test_neighbor_radius(self, rng):
        for eps in (1e-1, 1e-3, 1e-6):
            p = sample_uniform(10, rng)
            q = sample_neighbor(p, eps, rng)
            assert pe.tv_norm(p, q) <= eps * (1 + 1e-12)
            pe.validate(q.weights, tol=1e-9)

    def test_neighbor_needs_args(self):
        with pytest.raises(ParamError):
            sample_simplex(4, seed=1, mode="neighbor")

    def test_neighbor_needs_a_positive_radius(self, rng):
        with pytest.raises(ParamError, match="eps must be positive"):
            sample_neighbor(sample_uniform(4, rng), 0.0, rng)

    def test_neighbor_mode_draws_from_the_seed(self):
        p = pe.validate([0.1, 0.2, 0.3, 0.4])
        q = sample_simplex(4, seed=7, mode="neighbor", p=p, eps=1e-3)
        assert q.weights.tobytes() == sample_neighbor(p, 1e-3, rng_for_seed(7)).weights.tobytes()
        assert 0.0 < pe.tv_norm(p, q) <= 1e-3 * (1 + 1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ParamError):
            sample_simplex(4, seed=1, mode="gaussian")

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64])
    def test_sparse_keeps_its_stream(self, n):
        # The draw order of the former sample_uniform-then-zero implementation.
        def two_step(n, rng):
            base = sample_uniform(n, rng).weights.copy()
            if n > 1:
                keep = max(1, int(rng.integers(1, n + 1)))
                base[rng.permutation(n)[keep:]] = 0.0
                base /= base.sum()
            return base

        for seed in range(20):
            got, want = rng_for_seed(seed), rng_for_seed(seed)
            for _ in range(3):
                assert sample_sparse(n, got).weights.tobytes() == two_step(n, want).tobytes()
            assert got.bit_generator.state == want.bit_generator.state

    def test_sparse_builds_one_pdf(self, monkeypatch):
        # One pdf, frozen without the constructor's checks: the sampler's
        # weights are finite, nonnegative and one-dimensional by construction.
        built, checked = [], []
        frozen, post_init = distributions._frozen, Pdf.__post_init__
        monkeypatch.setattr(distributions, "_frozen", lambda w: (built.append(1), frozen(w))[1])
        monkeypatch.setattr(Pdf, "__post_init__", lambda self: (checked.append(1), post_init(self)))
        pdf = sample_sparse(8, rng_for_seed(1))
        assert len(built) == 1 and not checked
        assert not pdf.weights.flags.writeable

    def test_sparse_needs_a_coordinate(self):
        with pytest.raises(ParamError):
            sample_sparse(0, rng_for_seed(1))

    def test_sparse_has_zeros_often(self):
        rng = rng_for_seed(5)
        zero_seen = any(np.any(sample_sparse(12, rng).weights == 0.0) for _ in range(50))
        assert zero_seen

    def test_uniform_coordinate_mean(self):
        # flat Dirichlet: per-coordinate mean 1/n within 3 standard errors
        n, draws = 5, 10_000
        rng = rng_for_seed(99)
        acc = np.zeros(n)
        for _ in range(draws):
            acc += sample_uniform(n, rng).weights
        mean = acc / draws
        var = (1.0 / n) * (1.0 - 1.0 / n) / (n + 1.0)
        se = np.sqrt(var / draws)
        assert np.all(np.abs(mean - 1.0 / n) <= 3.0 * se)
