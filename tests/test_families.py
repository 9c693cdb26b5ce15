import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import phientropy as pe
from phientropy import families
from phientropy.errors import DomainError, FamilyError, NonDifferentiableError, ParamError
from phientropy.families import builtin_catalogue
from phientropy.numerics import central_diff

from conftest import ANALYTIC_F_ZERO, FAMILY_GRID, mp_f_drop


def quad_f_drop(fam, x):
    """Quadrature oracle for F(0) - F(x) = -integral_0^x ln_phi (mpmath, 50 digits)."""
    return float(mp_f_drop(fam, x))


class TestParameterValidation:
    def test_tsallis_zero_kappa_hints_shannon(self):
        with pytest.raises(ParamError, match="shannon"):
            pe.tsallis(0.0)

    @pytest.mark.parametrize("kappa", [1.0, -1.0, 1.3, -2.0])
    def test_tsallis_range(self, kappa):
        with pytest.raises(ParamError):
            pe.tsallis(kappa)

    def test_kaniadakis_zero_and_range(self):
        with pytest.raises(ParamError, match="shannon"):
            pe.kaniadakis(0.0)
        with pytest.raises(ParamError):
            pe.kaniadakis(1.5)

    @pytest.mark.parametrize("kind", ["tsallis", "kaniadakis"])
    @pytest.mark.parametrize("kappa", [9.999999999999999e-05, -5e-5, 1e-8, -1e-15, 5e-324])
    def test_tiny_kappa_refused_naming_shannon(self, kind, kappa):
        # The kernels and F(0) cancel as kappa -> 0 (tsallis(1e-15) gave an
        # entropy of 0.75 for (.5, .5) instead of ln 2).
        with pytest.raises(ParamError, match="shannon"):
            getattr(pe, kind)(kappa)
        with pytest.raises(ParamError, match="shannon"):
            pe.LogFamily(kind=kind, kappa=kappa)
        with pytest.raises(ParamError, match="shannon"):
            pe.family_from_json({"kind": kind, "kappa": kappa})

    @pytest.mark.parametrize("kappa", ["0.5", b"0.5"])
    def test_text_parameter_is_refused(self, kappa):
        # float() would parse it; family_from_json refuses it too.
        with pytest.raises(ParamError, match="kappa"):
            pe.tsallis(kappa)
        with pytest.raises(ParamError, match="kappa"):
            pe.LogFamily(kind="tsallis", kappa=kappa)

    @pytest.mark.parametrize("kind", ["tsallis", "kaniadakis"])
    @pytest.mark.parametrize("kappa", [1e-4, -1e-4])
    def test_smallest_kappa_accepted_and_round_trips(self, kind, kappa):
        fam = getattr(pe, kind)(kappa)
        assert pe.family_from_json(pe.family_to_json(fam)) == fam
        assert pe.entropy(fam, pe.validate([0.5, 0.5])) == pytest.approx(math.log(2.0), rel=1e-3)

    @pytest.mark.parametrize("kappa", [0.0, -0.5])
    def test_kappa_maxwell_requires_positive(self, kappa):
        with pytest.raises(ParamError):
            pe.kappa_maxwell(kappa)

    @pytest.mark.parametrize("base", [1.0, 0.5, -2.0])
    def test_piecewise_base_above_one(self, base):
        with pytest.raises(ParamError):
            pe.piecewise_linear(base)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters(self, value):
        for make in (pe.tsallis, pe.kaniadakis, pe.kappa_maxwell, pe.piecewise_linear):
            with pytest.raises(ParamError):
                make(value)

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "tsallis"},
            {"kind": "tsallis", "kappa": 5.0},
            {"kind": "tsallis", "kappa": 0.0},
            {"kind": "kaniadakis", "kappa": -1.0},
            {"kind": "kappa_maxwell", "kappa": math.inf},
            {"kind": "kappa_maxwell", "kappa": math.nan},
            {"kind": "kappa_maxwell", "kappa": True},
            {"kind": "piecewise_linear"},
            {"kind": "piecewise_linear", "base": 1.0},
            {"kind": "piecewise_linear", "base": 10**400},
            {"kind": "shannon", "kappa": 0.5},
            {"kind": "sqrt_log", "base": 2.0},
            {"kind": "tsallis", "kappa": 0.5, "base": 2.0},
            {"kind": "custom", "custom_ln": np.log, "singularity_exponent": 0.0, "f_zero": 1.0,
             "ln_at_zero": -math.inf, "ln_sup": math.inf, "kappa": 0.5},
        ],
        ids=str,
    )
    def test_direct_construction_checks_fields(self, fields):
        # The kind table's ranges, not only the constructors, guard LogFamily.
        with pytest.raises(ParamError):
            pe.LogFamily(**fields)

    def test_direct_construction_equals_constructor_fields(self):
        fam = pe.LogFamily(kind="kappa_maxwell", kappa=2)
        assert fam.kappa == 2.0 and isinstance(fam.kappa, float)
        assert pe.LogFamily(kind="tsallis", kappa=0.5).label == pe.tsallis(0.5).label
        # A family is its kind and its parameters: the kind's row derives the rest.
        p = pe.validate([0.5, 0.3, 0.2])
        for family in FAMILY_GRID:
            direct = pe.LogFamily(**pe.family_to_json(family))
            for field in dataclasses.fields(pe.LogFamily):
                assert getattr(direct, field.name) == getattr(family, field.name), (family.label, field.name)
            assert direct.f_zero == pytest.approx(ANALYTIC_F_ZERO[family.kind](family), rel=1e-14)
            generic = pe.entropy(direct, p, "generic")
            if family.kind in ("shannon", "tsallis", "kaniadakis"):
                assert generic == pytest.approx(pe.entropy(family, p, "closed_form"), rel=1e-12)
            assert generic > 0

    def test_direct_construction_refuses_derived_constants(self):
        for family in FAMILY_GRID:
            spec = pe.family_to_json(family)
            for name in ("custom_ln", "singularity_exponent", "f_zero", "ln_at_zero", "ln_sup"):
                # Even the value the kind would derive is refused.
                value = np.log if name == "custom_ln" else getattr(family, name)
                with pytest.raises(ParamError, match=f"take only their parameters, got {name}$"):
                    pe.LogFamily(**spec, **{name: value})

    @pytest.mark.parametrize(
        "drop",
        ["custom_ln", "singularity_exponent", "f_zero", "ln_at_zero", "ln_sup", "callable"],
    )
    def test_custom_kind_needs_logarithm_and_constants(self, drop):
        fields = dict(
            kind="custom", custom_ln=np.log, singularity_exponent=0.0, f_zero=1.0,
            ln_at_zero=-math.inf, ln_sup=math.inf,
        )
        assert pe.LogFamily(**fields).f_zero == 1.0
        if drop == "callable":
            fields["custom_ln"] = "log"
        else:
            del fields[drop]
        with pytest.raises(ParamError, match="need a callable custom_ln"):
            pe.LogFamily(**fields)

    @pytest.mark.parametrize(
        "spec",
        ['{"kind":"kappa_maxwell","kappa":1e999}', '{"kind":"kappa_maxwell","kappa":Infinity}',
         '{"kind":"piecewise_linear","base":1e999}', '{"kind":"piecewise_linear","base":Infinity}'],
    )
    def test_non_finite_parameters_in_specs(self, spec, capsys):
        import json

        from phientropy import cli

        with pytest.raises(ParamError):
            pe.family_from_json(json.loads(spec))
        assert cli.main(["eval", "--family", spec, "--fn", "ln", "--x", "2"]) == 1
        assert "finite" in capsys.readouterr().err


class TestLnPhi:
    def test_vanishes_at_one_exactly(self, family):
        assert pe.ln_phi(family, 1.0) == 0.0

    def test_piecewise_knot_values_exact(self):
        # At every knot base**n that is a float, including those where
        # floor(log(x) / log(base)) misrounds (see TestPiecewiseKnots).
        for base, lowest, highest in ((2.0, -60, 60), (3.0, 0, 33), (10.0, 0, 22)):
            fam = pe.piecewise_linear(base)
            for n in range(lowest, highest + 1):
                assert pe.ln_phi(fam, base**n) == float(n), (base, n)

    def test_sqrt_log_at_four(self):
        assert pe.ln_phi(pe.sqrt_log(), 4.0) == pytest.approx(1.0, abs=1e-15)

    def test_kappa_maxwell_closed_form(self):
        # kappa * (1 - x**(-1/(1+kappa))) at kappa=1, x=8
        got = pe.ln_phi(pe.kappa_maxwell(1.0), 8.0)
        assert got == pytest.approx(1.0 - 8.0**-0.5, abs=1e-14)

    def test_domain_error(self, family):
        with pytest.raises(DomainError):
            pe.ln_phi(family, 0.0)
        with pytest.raises(DomainError):
            pe.ln_phi(family, -1.0)

    @pytest.mark.parametrize(
        "fn, bad, message",
        [
            (pe.ln_phi, [1.0, 0.0], "ln_phi requires finite x > 0"),
            (pe.ln_phi, math.inf, "ln_phi requires finite x > 0"),
            (pe.big_f_drop, [0.0, -1e-300], "big_f_drop requires finite x >= 0"),
            (pe.big_f_drop, math.nan, "big_f_drop requires finite x >= 0"),
            (pe.omega_phi, 0.0, "omega_phi requires finite x > 0"),
            (pe.ln_phi_prime, [-2.0], "ln_phi_prime requires finite x > 0"),
        ],
    )
    def test_domain_messages(self, family, fn, bad, message):
        with pytest.raises(DomainError) as err:
            fn(family, bad)
        assert str(err.value) == message

    def test_monotone_on_random_pairs(self, family, rng):
        xs = np.sort(np.exp(rng.uniform(-12, 6, size=400)))
        vals = pe.ln_phi(family, xs)
        assert np.all(np.diff(vals) > 0)

    def test_concave_second_differences(self, family):
        # equally spaced triples: ln(x-h) + ln(x+h) - 2 ln(x) <= tol
        xs = np.linspace(0.05, 20.0, 300)
        h = 0.013
        second = (
            np.asarray(pe.ln_phi(family, xs - h))
            + np.asarray(pe.ln_phi(family, xs + h))
            - 2.0 * np.asarray(pe.ln_phi(family, xs))
        )
        assert np.all(second <= 1e-10)


class TestExpPhi:
    def test_sqrt_log_branches(self):
        fam = pe.sqrt_log()
        assert pe.exp_phi(fam, -2.0) == 0.0
        assert pe.exp_phi(fam, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_kaniadakis_values(self):
        fam = pe.kaniadakis(0.5)
        assert pe.exp_phi(fam, 0.0) == 1.0
        assert pe.exp_phi(fam, 2.0) == pytest.approx((1.0 + math.sqrt(2.0)) ** 2, rel=1e-12)

    def test_tsallis_clamps(self):
        pos = pe.tsallis(0.5)  # ln range bounded below at -(1+kappa)/kappa = -3
        assert pe.exp_phi(pos, -3.0) == 0.0
        assert pe.exp_phi(pos, -10.0) == 0.0
        neg = pe.tsallis(-0.5)  # ln range bounded above at 1
        assert pe.exp_phi(neg, 1.0) == math.inf
        assert pe.exp_phi(neg, 5.0) == math.inf

    def test_kappa_maxwell_clamp(self):
        fam = pe.kappa_maxwell(0.5)
        assert pe.exp_phi(fam, 0.5) == math.inf
        assert pe.exp_phi(fam, 0.0) == 1.0

    @pytest.mark.parametrize(
        "fam",
        [pe.shannon(), pe.sqrt_log(), pe.tsallis(0.5), pe.tsallis(1e-4), pe.tsallis(-0.5),
         pe.tsallis(-0.99), pe.kaniadakis(0.5), pe.kaniadakis(-0.99), pe.kappa_maxwell(1e-5),
         pe.kappa_maxwell(2.0), pe.kappa_maxwell(1e6)],
        ids=lambda fam: fam.label,
    )
    def test_closed_inverse_is_monotone_over_all_y(self, fam):
        # Past the range of ln_phi the inverse is 0 below and inf above, also
        # where y overflows an intermediate (1 + kappa y / (1 + kappa), -y / kappa).
        big = np.logspace(-300, 308, 609)
        top = np.finfo(float).max
        y = np.concatenate([[-math.inf, -top], -big[::-1], [0.0], big, [top, math.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = pe.exp_phi(fam, y)
        assert x[0] == 0.0 and x[-1] == math.inf
        assert np.all(x[1:] >= x[:-1]), y[1:][x[1:] < x[:-1]]

    def test_round_trip_wide_range(self, family):
        # 1e-10 relative, plus the conditioning floor of representing the
        # rounded logarithm where it saturates toward the end of its range
        # (tsallis kappa=-0.9 at x=1e6 sits ~4e-7 below its supremum, so a
        # few ulps of ln map back to ~1e-10 relative in x).
        eps = np.finfo(float).eps
        for x in np.logspace(-6, 6, 49):
            y = float(np.asarray(pe.ln_phi(family, x)))
            back = pe.exp_phi(family, y)
            if family.kind == "piecewise_linear":
                slope = 1.0  # avoid knots; conditioning handled by rel term
                tol = 1e-10 * x
            else:
                slope = float(np.asarray(pe.ln_phi_prime(family, x)))
                tol = 1e-10 * x + 8.0 * eps * (1.0 + abs(y)) / slope
            assert abs(back - x) <= tol

    @pytest.mark.parametrize(
        "make, base",
        [
            (lambda: pe.piecewise_linear(2.0), 2.0),
            (lambda: pe.piecewise_linear(10.0), 10.0),
            (lambda: pe.piecewise_linear(1.1), 1.1),
            (lambda: pe.custom_family(np.log, 0.0), None),
        ],
        ids=["piecewise_linear(2)", "piecewise_linear(10)", "piecewise_linear(1.1)", "custom log"],
    )
    def test_bisection_round_trip_over_the_float_range(self, make, base, monkeypatch):
        # ln_phi(base**y) = y at integer y (ln(e**y) = y for the log).  The
        # bracket is searched over every positive float, in few kernel calls:
        # the result is 0 or inf only where base**y leaves the float range.
        fam, calls = make(), []
        kernel = families.ln_phi_unchecked
        monkeypatch.setattr(families, "ln_phi_unchecked", lambda f, x: (calls.append(1), kernel(f, x))[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in (64, -64, 100, -100, 300, -300, 1100, -1100):
                with mpmath.workdps(50):
                    want = float(mpmath.exp(y) if base is None else mpmath.mpf(base) ** y)
                calls.clear()
                got = pe.exp_phi(fam, float(y))
                if want in (0.0, math.inf):
                    assert got == want, y
                else:
                    assert got == pytest.approx(want, rel=1e-9, abs=0.0), y
                assert len(calls) < 64, y

    @pytest.mark.parametrize(
        "fam",
        [pe.shannon(), pe.tsallis(0.5), pe.tsallis(-0.5), pe.kaniadakis(0.5), pe.kappa_maxwell(0.5),
         pe.sqrt_log(), pe.piecewise_linear(2.0), pe.custom_family(np.log, 0.0)],
        ids=lambda fam: fam.label,
    )
    def test_nan_is_a_domain_error(self, fam):
        # The infinities stay in the domain: 0 below the range of ln_phi, inf above it.
        assert pe.exp_phi(fam, [-math.inf, math.inf]).tolist() == [0.0, math.inf]
        for x in (math.nan, [0.5, math.nan]):
            with pytest.raises(DomainError, match="exp_phi"):
                pe.exp_phi(fam, x)

    def test_bisection_gives_0_and_inf_only_past_the_float_range(self):
        fam = pe.piecewise_linear(2.0)
        top, bottom = pe.ln_phi(fam, np.finfo(float).max), pe.ln_phi(fam, 5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # ln_phi = 1023 + (x - 2**1023) / 2**1023 in the top panel.
            assert pe.exp_phi(fam, 1023.5) == pytest.approx(1.5 * 2.0**1023, rel=1e-12)
            assert pe.exp_phi(fam, top) == pytest.approx(np.finfo(float).max, rel=1e-12)
            assert pe.exp_phi(fam, np.nextafter(top, math.inf)) == math.inf
            # Bisection midpoints round to the even of two neighbouring subnormals.
            assert 0.0 < pe.exp_phi(fam, bottom) <= 1e-323
            assert pe.exp_phi(fam, np.nextafter(bottom, -math.inf)) == 0.0


class TestBigF:
    def test_zero_at_one_exactly(self, family):
        assert pe.big_f(family, 1.0) == 0.0

    def test_f_zero_analytic(self, family):
        want = ANALYTIC_F_ZERO[family.kind](family)
        assert family.f_zero == pytest.approx(want, abs=1e-12)
        assert pe.big_f(family, 0.0) == family.f_zero

    def test_shannon_f_at_zero(self):
        # F(x) = x ln x - x + 1 by direct integration
        assert pe.big_f(pe.shannon(), 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_sqrt_log_f_at_zero(self):
        assert pe.big_f(pe.sqrt_log(), 0.0) == pytest.approx(1.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("kappa", [0.1, -0.1, 0.5, -0.5, 0.9, -0.9])
    def test_tsallis_f_at_zero(self, kappa):
        assert pe.big_f(pe.tsallis(kappa), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_convexity(self, family, rng):
        xs = np.sort(rng.uniform(0.0, 5.0, size=200))
        f = np.asarray(pe.big_f(family, xs))
        lam = 0.37
        mids = lam * xs[:-1] + (1.0 - lam) * xs[1:]
        f_mid = np.asarray(pe.big_f(family, mids))
        assert np.all(f_mid <= lam * f[:-1] + (1.0 - lam) * f[1:] + 1e-10)

    def test_closed_form_vs_quadrature_on_log_grid(self, family):
        # the cross-module golden test, against mpmath's quadrature
        for x in np.logspace(-6, 1, 15):
            closed = pe.big_f(family, float(x))
            quad = family.f_zero - quad_f_drop(family, float(x))
            assert abs(closed - quad) <= 1e-12

    def test_tangent_inequality(self, family, rng):
        # convexity of F: F(x) >= F(a) + (x - a) ln_phi(a)
        for _ in range(200):
            x = rng.uniform(0.0, 4.0)
            a = rng.uniform(1e-4, 4.0)
            lhs = pe.big_f(family, x)
            rhs = pe.big_f(family, a) + (x - a) * pe.ln_phi(family, a)
            assert lhs >= rhs - 1e-10

    def test_concave_drop_lemma(self, family, rng):
        # g(lam*x) g(y) <= g(x) g(lam*y) for 0<=lam<=1, 0<x<y<=1
        for _ in range(200):
            lam = rng.uniform(0.0, 1.0)
            x = rng.uniform(1e-6, 1.0)
            y = rng.uniform(x, 1.0)
            g = lambda t: pe.big_f_drop(family, t)
            assert g(lam * x) * g(y) <= g(x) * g(lam * y) + 1e-12


class TestOmega:
    def test_zero_at_one_exactly(self, family):
        assert pe.omega_phi(family, 1.0) == 0.0

    def test_tsallis_q_logarithm(self):
        # omega(x) = (1/kappa)(1 - x**-kappa)
        got = pe.omega_phi(pe.tsallis(0.5), 2.0)
        assert got == pytest.approx(2.0 * (1.0 - 2.0**-0.5), rel=1e-13)

    def test_shannon_is_natural_log(self):
        fam = pe.shannon()
        # oracle: (x-1)*F(0) - x*F(1/x) with F(x) = x ln x - x + 1
        x = math.e
        f = lambda t: t * math.log(t) - t + 1.0
        oracle = (x - 1.0) * 1.0 - x * f(1.0 / x)
        assert pe.omega_phi(fam, x) == pytest.approx(1.0, abs=1e-12)
        assert pe.omega_phi(fam, x) == pytest.approx(oracle, abs=1e-12)

    def test_sqrt_log_value(self):
        # 3*(1/3) - 4*F(1/4) with F(x) = (2/3)x^(3/2) - x + 1/3
        f = lambda t: (2.0 / 3.0) * t**1.5 - t + 1.0 / 3.0
        oracle = 3.0 * (1.0 / 3.0) - 4.0 * f(0.25)
        got = pe.omega_phi(pe.sqrt_log(), 4.0)
        assert got == pytest.approx(oracle, abs=1e-14)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_matches_defining_formula(self, family, rng):
        for x in np.exp(rng.uniform(-6, 6, size=60)):
            direct = (x - 1.0) * family.f_zero - x * pe.big_f(family, 1.0 / x)
            assert pe.omega_phi(family, x) == pytest.approx(direct, rel=1e-11, abs=1e-11)

    def test_increasing(self, family, rng):
        xs = np.sort(np.exp(rng.uniform(-8, 8, size=300)))
        vals = np.asarray(pe.omega_phi(family, xs))
        assert np.all(np.diff(vals) > 0)

    def test_finite_limit_classification(self):
        assert pe.tsallis(-0.5).omega_at_zero_finite
        assert pe.tsallis(-0.5).omega_at_zero == pytest.approx(-2.0)
        assert pe.kappa_maxwell(0.5).omega_at_zero_finite
        assert pe.kappa_maxwell(0.5).omega_at_zero == pytest.approx(-1.5)
        for fam in (pe.shannon(), pe.tsallis(0.5), pe.kaniadakis(0.5), pe.sqrt_log(), pe.piecewise_linear(2.0)):
            assert not fam.omega_at_zero_finite

    def test_omega_limit_numerically(self):
        # the finite limits match small-x evaluation (approach is O(x^s))
        for fam in (pe.tsallis(-0.5), pe.kappa_maxwell(2.0)):
            assert pe.omega_phi(fam, 1e-18) == pytest.approx(fam.omega_at_zero, abs=1e-5)

    # At 3.831621480669189e-304, floor(-log(x) / log(1.01)) misrounds a panel
    # too high, and _pw_omega's guard takes piecewise_linear(1.01) back down.
    @pytest.mark.parametrize("x", [1e-200, 1e-300, 1e-305, 1e-307, 1e-308, 1e-310, 3.831621480669189e-304])
    @pytest.mark.parametrize(
        "fam",
        [pe.shannon(), pe.tsallis(0.1), pe.tsallis(0.5), pe.tsallis(0.9), pe.tsallis(-0.5), pe.kaniadakis(0.5),
         pe.kaniadakis(-0.5), pe.kappa_maxwell(0.5), pe.kappa_maxwell(2.0), pe.kappa_maxwell(200.0),
         pe.sqrt_log(), pe.piecewise_linear(2.0), pe.piecewise_linear(10.0), pe.piecewise_linear(1.01)],
        ids=lambda f: f.label,
    )
    def test_finite_where_the_plain_form_overflows(self, fam, x):
        # omega's plain form x * big_f_drop(1/x) - F(0), evaluated in mpmath
        # at 50 digits (for piecewise_linear, the exact panel sum); in floats
        # big_f_drop(1/x) overflows at tiny x for shannon (1/x * ln(1/x) at
        # 1e-308), tsallis (x**(1 + kappa) at 1/x), kaniadakis and sqrt_log
        # (x**1.5 at 1/x), kappa_maxwell (kappa / x) and piecewise_linear
        # (base 2 from 1e-307 on, base 1.01 from 1e-305 on), and 1/x itself
        # overflows at the subnormal 1e-310.
        with mpmath.workdps(50):
            t = 1 / mpmath.mpf(x)
            want = float(exact_kernels(fam, t)[1] / t - ANALYTIC_F_ZERO[fam.kind](fam))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pe.omega_phi(fam, x)
            assert pe.omega_phi(fam, np.array([x, 2.0]))[0] == got
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("fam", [pe.custom_family(np.log, singularity_exponent=0.0)], ids=lambda f: f.label)
    def test_without_a_closed_form_refused_where_the_reciprocal_overflows(self, fam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^omega_phi requires"):
                pe.omega_phi(fam, 1e-310)
            with pytest.raises(DomainError, match="^omega_phi requires"):
                pe.omega_phi(fam, np.array([2.0, 5e-324]))


@pytest.mark.parametrize("kappa", [1e6, 1e12, 1e20, 1e100, 1e308])
def test_kappa_maxwell_keeps_its_digits_at_large_kappa(kappa):
    # The plain forms, evaluated in mpmath with enough digits to resolve
    # their cancellation of two terms of size kappa * x.
    fam = pe.kappa_maxwell(kappa)
    with mpmath.workdps(int(math.log10(kappa)) + 40):
        k = mpmath.mpf(kappa)
        for x in (1e-300, 1e-5, 0.3, 2.0, 50.0, 1e300):
            t = mpmath.mpf(x)
            drop = float((1 + k) * t ** (k / (1 + k)) - k * t)
            ln = float(k * (1 - t ** (-1 / (1 + k))))
            assert pe.big_f_drop(fam, x) == pytest.approx(drop, rel=1e-12, abs=0.0), x
            assert pe.ln_phi(fam, x) == pytest.approx(ln, rel=1e-12, abs=0.0), x
    assert pe.big_f_drop(fam, 0.0) == 0.0


@pytest.mark.parametrize("x", [1e-300, 1e300, 1e-308, 1e308])
@pytest.mark.parametrize(
    "family",
    [*FAMILY_GRID, pe.piecewise_linear(1.01), pe.piecewise_linear(1.1), pe.kappa_maxwell(200.0),
     pe.kappa_maxwell(1e308)],
    ids=lambda f: f.label,
)
def test_public_functions_print_no_numpy_warning(family, x):
    # Kernels overflow or underflow here (x**(1 + kappa) at 1e300, and
    # omega's big_f_drop(1 / x) at 1e-300; kappa_maxwell's kappa * x and
    # piecewise_linear's panel sums at 1e308); the results are inf or 0.
    # Both terms of tsallis' drop (kappa > 0) overflow at 1e308, and both
    # panel terms of piecewise_linear(1.01) and (1.1): F overflows there, so
    # big_f_drop is -inf, not inf - inf = NaN.  kappa_maxwell's plain drop
    # would be inf - inf at 1e308 from kappa = 142 on, and at kappa = 1e308
    # everywhere.
    assert {fam.kind for fam in FAMILY_GRID} == {row["kind"] for row in builtin_catalogue()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (pe.ln_phi, pe.big_f, pe.big_f_drop, pe.omega_phi, pe.ln_phi_prime, pe.exp_phi):
            assert not math.isnan(fn(family, x)), fn.__name__


class TestLnPhiPrime:
    def test_shannon(self):
        assert pe.ln_phi_prime(pe.shannon(), 2.0) == 0.5

    @pytest.mark.parametrize("kappa", [0.1, 0.5, -0.5])
    def test_tsallis_at_one(self, kappa):
        assert pe.ln_phi_prime(pe.tsallis(kappa), 1.0) == pytest.approx(1.0 + kappa, rel=1e-14)

    def test_kaniadakis_at_one(self):
        assert pe.ln_phi_prime(pe.kaniadakis(0.5), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_central_difference_agreement(self, family):
        # panel-interior points for the piecewise family so the stencil
        # never straddles a knot
        points = (1.1, 1.7, 3.0) if family.kind == "piecewise_linear" else (0.3, 1.7, 5.0)
        for x in points:
            fd = central_diff(lambda t: float(np.asarray(pe.ln_phi(family, t))), x, 1e-6 * x)
            assert pe.ln_phi_prime(family, x) == pytest.approx(fd, rel=1e-6)

    def test_piecewise_knots_raise(self):
        fam = pe.piecewise_linear(2.0)
        for knot in (0.25, 0.5, 1.0, 2.0, 8.0):
            with pytest.raises(NonDifferentiableError):
                pe.ln_phi_prime(fam, knot)

    def test_piecewise_panel_slopes(self):
        fam = pe.piecewise_linear(2.0)
        # slope on panel [2^m, 2^(m+1)] is 1/(2^m * (a-1))
        assert pe.ln_phi_prime(fam, 3.0) == pytest.approx(0.5, rel=1e-14)
        assert pe.ln_phi_prime(fam, 0.7) == pytest.approx(2.0, rel=1e-14)


class TestKappaMaxwellDensity:
    def test_peak_is_amplitude(self):
        fam = pe.kappa_maxwell(0.7)
        assert pe.kappa_maxwell_density(fam, 2.5, 1.3, 0.0, 0.9) == 2.5

    def test_reference_value(self):
        fam = pe.kappa_maxwell(1.0)
        got = pe.kappa_maxwell_density(fam, 1.0, 2.0, 1.0, 1.0)
        assert got == pytest.approx(0.25, abs=1e-15)

    def test_even_in_v(self, rng):
        fam = pe.kappa_maxwell(2.0)
        v = rng.uniform(0.1, 3.0, size=20)
        fwd = pe.kappa_maxwell_density(fam, 1.2, 0.7, v, 1.1)
        bwd = pe.kappa_maxwell_density(fam, 1.2, 0.7, -v, 1.1)
        assert np.allclose(fwd, bwd, rtol=0, atol=0)

    def test_matches_exp_phi_composition(self, rng):
        fam = pe.kappa_maxwell(0.5)
        for v in rng.uniform(-3, 3, size=25):
            direct = pe.kappa_maxwell_density(fam, 1.7, 2.2, float(v), 0.8)
            composed = 1.7 * pe.exp_phi(fam, -0.5 * 2.2 * v * v / 0.8**2)
            assert direct == pytest.approx(composed, rel=1e-10)

    def test_wrong_family_and_params(self):
        with pytest.raises(FamilyError):
            pe.kappa_maxwell_density(pe.shannon(), 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ParamError):
            pe.kappa_maxwell_density(pe.kappa_maxwell(1.0), -1.0, 1.0, 0.0, 1.0)


class TestShannonReduction:
    """tsallis functions converge to the shannon ones as kappa -> 0."""

    @pytest.mark.parametrize("kappa", [1e-4, -1e-4])
    def test_pointwise_on_grid(self, kappa):
        ts, sh = pe.tsallis(kappa), pe.shannon()
        # deviation grows like |kappa| * ln(x) * (1 + ln(x)/2); this grid
        # keeps it inside the 1e-3 budget
        grid = np.logspace(math.log10(0.05), math.log10(20.0), 40)
        assert np.max(np.abs(np.asarray(pe.ln_phi(ts, grid)) - np.log(grid))) <= 1e-3
        assert np.max(np.abs(np.asarray(pe.omega_phi(ts, grid)) - np.log(grid))) <= 1e-3
        # F's deviation carries an extra factor of x (~ x kappa ln(x)^2 / 2)
        fgrid = grid[grid <= 5.0]
        assert np.max(np.abs(np.asarray(pe.big_f(ts, fgrid)) - np.asarray(pe.big_f(sh, fgrid)))) <= 1e-3


class TestCustomFamily:
    @staticmethod
    def _kan_like(kappa):
        return lambda x: (x**kappa - x**-kappa) / (2.0 * kappa)

    def test_f_zero_by_quadrature(self):
        fam = pe.custom_family(self._kan_like(0.3), singularity_exponent=0.3)
        assert fam.f_zero == pytest.approx(1.0 / (1.0 - 0.09), abs=1e-8)

    def test_matches_builtin_everywhere(self, rng):
        fam = pe.custom_family(self._kan_like(0.3), singularity_exponent=0.3)
        ref = pe.kaniadakis(0.3)
        for x in np.exp(rng.uniform(-4, 3, size=12)):
            assert pe.big_f_drop(fam, float(x)) == pytest.approx(
                pe.big_f_drop(ref, float(x)), rel=1e-7, abs=1e-9
            )
            assert pe.omega_phi(fam, float(x)) == pytest.approx(
                pe.omega_phi(ref, float(x)), rel=1e-6, abs=1e-8
            )

    @pytest.mark.parametrize(
        "ln, s, twin, lo",
        [
            (np.log, 0.0, pe.shannon(), 1e-300),
            # 3 (x**0.5 - 1) keeps fewer of x's digits as x falls: below 1e-9
            # a difference of it holds fewer than seven.
            (lambda x: 3.0 * (x**0.5 - 1.0), 0.0, pe.tsallis(0.5), 1e-9),
            # From about 1e-206 and 1e-237 down the derivative passes DBL_MAX,
            # and both read inf.
            (lambda x: -(x**-0.5 - 1.0), 0.5, pe.tsallis(-0.5), 1e-300),
            (lambda x: (x**0.3 - x**-0.3) / 0.6, 0.3, pe.kaniadakis(0.3), 1e-300),
        ],
        ids=["shannon", "tsallis(0.5)", "tsallis(-0.5)", "kaniadakis(0.3)"],
    )
    def test_ln_phi_prime_matches_builtin_twin(self, ln, s, twin, lo):
        # The custom derivative is a Richardson difference of ln, whose step
        # stays a small fraction of x; shannon's twin is 1 / x.
        fam = pe.custom_family(ln, singularity_exponent=s)
        xs = np.logspace(math.log10(lo), 3.0, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pe.ln_phi_prime(fam, xs)
        np.testing.assert_allclose(got, pe.ln_phi_prime(twin, xs), rtol=1e-7, atol=0)

    def test_exp_by_bisection_round_trip(self):
        fam = pe.custom_family(self._kan_like(0.3), singularity_exponent=0.3)
        for x in (1e-4, 0.3, 1.0, 7.0, 1e4):
            y = pe.ln_phi(fam, x)
            assert pe.exp_phi(fam, float(np.asarray(y))) == pytest.approx(x, rel=1e-9)

    def test_linear_log_with_bounded_range(self):
        fam = pe.custom_family(lambda x: x - 1.0, singularity_exponent=0.0, ln_at_zero=-1.0)
        assert fam.f_zero == pytest.approx(0.5, abs=1e-9)
        assert pe.exp_phi(fam, -2.0) == 0.0  # below the range
        assert pe.exp_phi(fam, 1.5) == pytest.approx(2.5, rel=1e-9)

    def test_exp_is_inf_from_a_finite_ln_sup(self):
        # kappa_maxwell(2)'s logarithm, bounded above by kappa = 2.
        fam = pe.custom_family(lambda x: 2.0 * (1.0 - x ** (-1.0 / 3.0)), singularity_exponent=1.0 / 3.0, ln_sup=2.0)
        assert pe.exp_phi(fam, 2.0) == pe.exp_phi(fam, 3.0) == math.inf
        assert pe.exp_phi(fam, 1.0) == pytest.approx(pe.exp_phi(pe.kappa_maxwell(2.0), 1.0), rel=1e-9)

    def test_rejects_non_finite_values_on_its_grid(self):
        with pytest.raises(ParamError, match="finite values"):
            pe.custom_family(lambda x: np.where(x < 1e-3, -np.inf, np.log(x)), singularity_exponent=0.0)

    def test_rejects_decreasing(self):
        with pytest.raises(ParamError):
            pe.custom_family(lambda x: -np.log(x), singularity_exponent=0.0)

    def test_rejects_nonzero_at_one(self):
        with pytest.raises(ParamError):
            pe.custom_family(lambda x: np.log(x) + 0.1, singularity_exponent=0.0)

    def test_rejects_convex(self):
        with pytest.raises(ParamError):
            pe.custom_family(lambda x: x**2 - 1.0, singularity_exponent=0.0)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ParamError):
            pe.custom_family(lambda x: np.log(x), singularity_exponent=1.2)

    @pytest.mark.parametrize(
        "limits",
        [{"ln_at_zero": math.nan}, {"ln_sup": math.nan}, {"ln_at_zero": 0.5}, {"ln_sup": -1.0}],
        ids=str,
    )
    def test_rejects_limits_outside_domain(self, limits):
        with pytest.raises(ParamError):
            pe.custom_family(lambda x: x - 1.0, singularity_exponent=0.0, **limits)


class TestWireFormat:
    def test_round_trip(self, family):
        spec = pe.family_to_json(family)
        back = pe.family_from_json(spec)
        assert back == family

    def test_catalogue_covers_kinds(self):
        kinds = {entry["kind"] for entry in builtin_catalogue()}
        assert kinds == {
            "shannon",
            "tsallis",
            "kaniadakis",
            "kappa_maxwell",
            "sqrt_log",
            "piecewise_linear",
        }

    def test_wire_error_messages(self):
        with pytest.raises(ParamError) as err:
            pe.family_from_json({"kind": "nope"})
        assert str(err.value) == (
            "unknown family kind 'nope'; known kinds: ('shannon', 'tsallis', "
            "'kaniadakis', 'kappa_maxwell', 'sqrt_log', 'piecewise_linear')"
        )
        with pytest.raises(ParamError, match=r"^custom families cannot be built from JSON \(library-only\)$"):
            pe.family_from_json({"kind": "custom"})
        with pytest.raises(FamilyError, match=r"^custom families have no JSON encoding \(library-only\)$"):
            pe.family_to_json(pe.custom_family(lambda x: np.log(x), 0.0))
        with pytest.raises(ParamError, match=r"^family kind 'tsallis' takes fields \['kappa'\], got \[\]$"):
            pe.family_from_json({"kind": "tsallis"})

    def test_labels(self):
        labels = [f.label for f in (pe.shannon(), pe.tsallis(0.5), pe.kappa_maxwell(2.0), pe.piecewise_linear(1.1))]
        assert labels == ["shannon", "tsallis(kappa=0.5)", "kappa_maxwell(kappa=2)", "piecewise_linear(base=1.1)"]
        assert pe.custom_family(lambda x: np.log(x), 0.0).label == "custom"

    @pytest.mark.parametrize("kind", ["nope", "", "Shannon", None, 3])
    def test_unknown_kind_refused_at_construction(self, kind):
        with pytest.raises(ParamError, match="unknown family kind"):
            pe.LogFamily(kind=kind)

    def test_bad_specs(self):
        for spec in (
            {"kind": "tsallis"},
            {"kind": "nope"},
            {"kappa": 0.5},
            {"kind": "shannon", "extra": 1},
            {"kind": "custom"},
            {"kind": []},
            {"kind": "shannon", "kappa": 0.5},
            {"kind": "tsallis", "kappa": 0.5, "base": 3},
            {"kind": "tsallis", "kappa": "0.5"},
            {"kind": "tsallis", "kappa": None},
            {"kind": "tsallis", "kappa": True},
            {"kind": "piecewise_linear", "base": 10**400},
        ):
            with pytest.raises(ParamError):
                pe.family_from_json(spec)


def exact_kernels(fam, x):
    """(ln_phi(x), F(0) - F(x)) from each kind's closed forms, in mpmath at 50 digits.

    F(0) - F(x) is the exact antiderivative -integral_0^x ln_phi; for the
    piecewise-linear family, the sum of the full panels below x's panel plus
    the partial panel, with the panel index found exactly.
    """
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        if fam.kind == "shannon":
            ln, drop = mpmath.log(x), x - x * mpmath.log(x)
        elif fam.kind == "tsallis":
            k = mpmath.mpf(fam.kappa)
            ln, drop = (1 + 1 / k) * (x**k - 1), (1 + 1 / k) * x - x ** (1 + k) / k
        elif fam.kind == "kaniadakis":
            k = mpmath.mpf(fam.kappa)
            ln = (x**k - x**-k) / (2 * k)
            drop = (x ** (1 - k) / (1 - k) - x ** (1 + k) / (1 + k)) / (2 * k)
        elif fam.kind == "kappa_maxwell":
            k = mpmath.mpf(fam.kappa)
            ln, drop = k * (1 - x ** (-1 / (1 + k))), (1 + k) * x ** (k / (1 + k)) - k * x
        elif fam.kind == "sqrt_log":
            ln, drop = -1 + mpmath.sqrt(x), x - 2 * x**1.5 / 3
        else:
            a = mpmath.mpf(fam.base)
            m = mpmath.floor(mpmath.log(x) / mpmath.log(a))
            m += (a ** (m + 1) <= x) - (a**m > x)
            am = a**m
            u = x - am
            ln = m + u / (am * (a - 1))
            drop = -(am * (m - mpmath.mpf(0.5)) - am / (a - 1) + m * u + u * u / (2 * am * (a - 1)))
        return ln, drop


def assert_close(got, want, rel=1e-12):
    assert abs(got - want) <= rel * abs(want), (got, want)


class TestMpmathCertificate:
    XS = (1e-300, 1e-200, 1e-100, 1e-20, 1e-5, 0.5, 1.0, 2.0, 7.0, 1e3)

    @pytest.mark.parametrize(
        "fam", FAMILY_GRID + (pe.piecewise_linear(1.0 + 1e-12),), ids=lambda f: f.label
    )
    def test_closed_forms_to_1e_12(self, fam):
        for x in self.XS:
            ln, drop = exact_kernels(fam, x)
            assert_close(pe.ln_phi(fam, x), ln)
            assert_close(pe.big_f_drop(fam, x), drop)

    @pytest.mark.parametrize("base", [1.1, 2.0, 3.7])
    def test_piecewise_linear_where_the_offset_square_overflows(self, base):
        # Panel offsets u above ~1.3e154 have u * u above the double range.
        fam = pe.piecewise_linear(base)
        for x in (1e155, 1e200, 1e300):
            ln, drop = exact_kernels(fam, x)
            assert_close(pe.ln_phi(fam, x), ln)
            assert_close(pe.big_f_drop(fam, x), drop)

    @pytest.mark.parametrize("base", [1.1, 2.0, 10.0])
    def test_piecewise_linear_drop_where_the_offset_square_underflows(self, base):
        # Panel offsets u below ~1.5e-154 have u * u below the normal range.
        fam = pe.piecewise_linear(base)
        for x in np.logspace(-155, -305, 31):
            assert_close(pe.big_f_drop(fam, float(x)), exact_kernels(fam, float(x))[1])

    @pytest.mark.parametrize("base", [1.01, 2.0, 10.0, 1e10, 1e100, 1e300])
    def test_piecewise_linear_where_the_knot_is_subnormal(self, base):
        # Below base * 2.2e-308 the knot base**m is subnormal, and has lost
        # its digits, or 0 (base 1e100 below 1e-300), which would send the
        # panel guards a panel up.  A drop this small is itself subnormal, with a
        # spacing of 2**-1074, so it is held to that spacing where 1e-12 of
        # it is finer.
        fam = pe.piecewise_linear(base)
        xs = [5e-324, 1e-323, 1.5e-323, 1e-322, *np.logspace(-321, -300, 43)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in map(float, xs):
                ln, drop = exact_kernels(fam, x)
                assert_close(pe.ln_phi(fam, x), ln)
                got = pe.big_f_drop(fam, x)
                assert abs(got - drop) <= max(1e-12 * abs(drop), 2.0**-1074), (x, got, drop)
                # ln_phi' = 1 / (knot (base - 1)), inf wherever that passes
                # DBL_MAX.  At a knot, ln_phi is an integer and has no slope;
                # x within rounding of a knot is not asked for one.
                with mpmath.workdps(50):
                    slope = 1 / (mpmath.mpf(base) ** mpmath.floor(ln) * (mpmath.mpf(base) - 1))
                    off = abs(ln - mpmath.nint(ln))
                if off == 0:
                    with pytest.raises(NonDifferentiableError):
                        pe.ln_phi_prime(fam, x)
                elif off < 1e-9:
                    continue
                elif slope < np.finfo(float).max:
                    assert_close(pe.ln_phi_prime(fam, x), slope)
                else:
                    assert pe.ln_phi_prime(fam, x) == math.inf

    @pytest.mark.parametrize("base", [1e8, 1e10, 1e14])
    def test_piecewise_linear_drop_where_the_knot_product_overflows(self, base):
        # The quadratic term u**2 / (2 base**m (base - 1)) is formed without
        # that product, which passes DBL_MAX before the drop does.
        fam = pe.piecewise_linear(base)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e298, 1e300, 1e303, 1e305, 1e307):
                drop = exact_kernels(fam, x)[1]
                if abs(drop) <= np.finfo(float).max:
                    assert_close(pe.big_f_drop(fam, x), drop)
                else:
                    assert pe.big_f_drop(fam, x) == -math.inf
            with mpmath.workdps(50):
                t = 1 / mpmath.mpf(1e-305)
                omega = exact_kernels(fam, t)[1] / t - ANALYTIC_F_ZERO[fam.kind](fam)
            assert_close(pe.omega_phi(fam, 1e-305), omega)

    @pytest.mark.parametrize("base", [1e9, 1.3965e9, 3e13])
    def test_piecewise_linear_ln_where_the_knot_product_overflows(self, base):
        # In the top panel base**m (base - 1) passes DBL_MAX, and the offset
        # u / (base**m (base - 1)) is formed without that product.  ln_phi'
        # = 1 / (base**m (base - 1)) is subnormal there, held to its spacing.
        # The panel is so flat that one ulp of ln_phi spans up to 7e-7 of x,
        # and the round trip through exp_phi is held to four of those.
        fam = pe.piecewise_linear(base)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e302, 1e307, 4.16e307, 1e308, np.finfo(float).max):
                ln = exact_kernels(fam, x)[0]
                assert_close(pe.ln_phi(fam, x), ln)
                with mpmath.workdps(50):
                    slope = 1 / (mpmath.mpf(base) ** mpmath.floor(ln) * (mpmath.mpf(base) - 1))
                got = pe.ln_phi_prime(fam, x)
                assert abs(got - slope) <= max(1e-12 * slope, 2.0**-1074), (x, got, slope)
                y = float(pe.ln_phi(fam, x))
                assert abs(pe.exp_phi(fam, y) - x) <= max(1e-9 * x, 4.0 * math.ulp(y) / float(slope)), x

    @pytest.mark.parametrize("kappa", [2e-5, 1e-3, 0.01, 0.04])
    def test_kappa_maxwell_ln_where_the_power_overflows(self, kappa):
        # Below kappa = 0.049, x**(-1/(1 + kappa)) passes DBL_MAX at subnormal
        # x before its product with kappa does; below -DBL_MAX ln_phi is -inf.
        fam = pe.kappa_maxwell(kappa)
        xs = np.unique(np.concatenate(([5e-324, 1e-323, 3.5e-310], np.logspace(-323, -308, 61))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pe.ln_phi(fam, xs)
        for x, value in zip(xs.tolist(), got.tolist()):
            ln = exact_kernels(fam, x)[0]
            if abs(ln) <= np.finfo(float).max:
                assert_close(value, ln)
            else:
                assert value == -math.inf, (x, value)
        assert np.all(np.diff(got[np.isfinite(got)]) > 0)

    @pytest.mark.parametrize("kappa", [1e-4, -1e-4, 1e-3, -1e-3, 0.01])
    def test_tsallis_drop_near_dbl_max(self, kappa):
        # Both terms of the plain drop overflow here while the drop is finite
        # (tsallis(1e-4) at 1e305: -7.265e307); past the end of the double
        # range the drop is -inf.
        fam = pe.tsallis(kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (*np.logspace(303, 308, 26), 1.8e305, 1.7976931348623157e308):
                drop = exact_kernels(fam, float(x))[1]
                got = pe.big_f_drop(fam, float(x))
                if abs(drop) <= np.finfo(float).max:
                    assert_close(got, drop)
                else:
                    assert got == -math.inf, (x, got)


@given(x=st.floats(1e-5, 1e5), y=st.floats(1e-5, 1e5))
def test_monotonicity_property(x, y):
    fam = pe.kaniadakis(0.7)
    if x == y:
        return
    lo, hi = sorted((x, y))
    assert pe.ln_phi(fam, lo) < pe.ln_phi(fam, hi)


class TestPiecewiseKnots:
    """``_pw_panels`` corrects floor(log(x) / log(base)) where it misrounds next to a knot.

    piecewise_linear(10) at 1e3 takes the "high" correction, since
    log(1e3) / ln 10 = 2.9999999999999996, and piecewise_linear(2) just
    below 4 the "low" one, where the quotient rounds up to 2.
    """

    BASES = (2.0, 3.0, 10.0, 1.5, 1.1)

    def test_both_corrections_run_and_every_value_holds(self):
        corrected = {"low": 0, "high": 0}
        for base in self.BASES:
            fam = pe.piecewise_linear(base)
            for n in range(-40, 41):
                knot = float(np.power(base, float(n)))
                for x in (np.nextafter(knot, 0.0), knot, np.nextafter(knot, math.inf)):
                    # The panel index as _pw_panels first estimates it.
                    guess = np.power(base, np.floor(np.log(np.array([x])) / math.log(base)))[0]
                    corrected["low"] += x < guess
                    corrected["high"] += x >= guess * base
                    assert pe.ln_phi(fam, x) == pytest.approx(float(exact_kernels(fam, x)[0]), rel=1e-15, abs=1e-15)
        assert corrected["low"] > 0 and corrected["high"] > 0, corrected

    @pytest.mark.parametrize(
        "base, x",
        [(2.0, 3.9999999999999996), (2.0, 9.536743164062499e-07), (2.0, 1.8626451492309574e-09), (10.0, 1e3),
         (10.0, 1000.0000000000001)],
    )
    def test_drop_next_to_a_knot_matches_quadrature(self, base, x):
        # The panels below base**-200 hold less than 1e-40 of the integral.
        fam = pe.piecewise_linear(base)
        assert pe.big_f_drop(fam, x) == pytest.approx(float(mp_f_drop(fam, x, knots_below=200)), rel=1e-12, abs=0.0)
