import importlib
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import _sequential_bisection, mp_f_drop

import phientropy as pe
from phientropy import numerics
from phientropy.errors import BracketError, NoConvergence, ParamError
from phientropy.numerics import (
    bisect_monotone,
    central_diff,
    integrate,
    richardson_diff,
    sum_compensated,
)


class TestIntegrate:
    def test_linear(self):
        assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_reversed_limits_flip_the_sign(self):
        assert integrate(lambda x: x, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)

    def test_reversed_limits_with_a_singularity_are_refused(self):
        # Swapping the limits would move the singular endpoint from a = 1 to 0.
        with pytest.raises(ParamError, match="requires a < b"):
            integrate(lambda x: (1.0 - x) ** -0.5, 1.0, 0.0, singular_at_a=0.5)

    def test_reversed_limits_negate(self):
        fwd = integrate(np.sin, 0.0, 2.0)
        assert integrate(np.sin, 2.0, 0.0) == pytest.approx(-fwd, abs=1e-13)

    def test_empty_interval(self):
        assert integrate(np.exp, 1.0, 1.0) == 0.0

    def test_smooth_reference(self):
        got = integrate(np.exp, 0.0, 1.0)
        assert got == pytest.approx(math.e - 1.0, abs=1e-11)

    def test_nonintegrable_raises(self):
        # 1/x declared as a mild singularity: the share of [0, t*] below the
        # least node never falls below the tolerance
        with pytest.raises(NoConvergence):
            integrate(lambda x: 1.0 / x, 0.0, 1.0, singular_at_a=0.5)

    def test_exhausted_graded_mesh_raises_with_its_estimate(self):
        # Near a = 1 the nodes of the first 1% of [a, b] in w round onto a:
        # their share of the integral, which counts in the error, is above
        # the relative tolerance at every level.
        with pytest.raises(NoConvergence, match="missed its relative tolerance") as err:
            integrate(lambda x: (x - 1.0) ** -0.5, 1.0, 1.0 + 2.0**-40, singular_at_a=0.5)
        assert err.value.estimate == pytest.approx(2.0**-19, rel=0.05)  # the integral, 2 sqrt(b - a)
        assert 0.0 < err.value.error < 0.05 * 2.0**-19

    def test_bad_exponent(self):
        with pytest.raises(ParamError):
            integrate(lambda x: x, 0.0, 1.0, singular_at_a=1.0)

    def test_bit_stable(self):
        f = lambda x: np.exp(-x) * np.sin(3 * x)
        assert integrate(f, 0.0, 2.0) == integrate(f, 0.0, 2.0)


# The benchmark's four custom logarithms, with the exponent of each one's
# singularity at 0 and its built-in twin: ln, kaniadakis(0.3), tsallis(-0.5)
# and tsallis(-0.9).
_WORKLOAD_LOGS = {
    "log": (np.log, 0.0, pe.shannon()),
    "kaniadakis(0.3)": (lambda x: (x**0.3 - x**-0.3) / 0.6, 0.3, pe.kaniadakis(0.3)),
    "tsallis(-0.5)": (lambda x: (1.0 + 1.0 / -0.5) * (x**-0.5 - 1.0), 0.5, pe.tsallis(-0.5)),
    "tsallis(-0.9)": (lambda x: (1.0 + 1.0 / -0.9) * (x**-0.9 - 1.0), 0.9, pe.tsallis(-0.9)),
}
# Each logarithm with every declared exponent at or above its own.
_DECLARED = [(name, s) for name, (_, own, _) in _WORKLOAD_LOGS.items() for s in (0.0, 0.3, 0.5, 0.9) if s >= own]


@pytest.mark.parametrize("name, s", _DECLARED)
def test_integrate_matches_the_twins_closed_forms(name, s):
    # -integral_0^x ln_phi is the twin's drop to 1e-12 relative, from where the
    # share of [0, 5e-324] (which no double reaches) is below 1e-13 up to 1e15.
    ln, _, twin = _WORKLOAD_LOGS[name]
    xs = np.logspace(-190, 15, 206)
    np.testing.assert_allclose(-integrate(ln, 0.0, xs, singular_at_a=s), pe.big_f_drop(twin, xs), rtol=1e-12, atol=0)
    assert -integrate(ln, 0.0, 1.0, singular_at_a=s) == pytest.approx(twin.f_zero, rel=1e-14)


@pytest.mark.parametrize("name", sorted(_WORKLOAD_LOGS))
@pytest.mark.parametrize("x", [1e-100, 0.3, 7.0, 1e12])
def test_integrate_matches_mpmath(name, x):
    ln, s, twin = _WORKLOAD_LOGS[name]
    assert -integrate(ln, 0.0, x, singular_at_a=s) == pytest.approx(float(mp_f_drop(twin, x)), rel=1e-12)


@pytest.mark.parametrize("name, s", _DECLARED)
def test_integrate_below_the_least_double_reports_its_tail(name, s):
    # At x = 1e-300 the nodes of [0, 2.5e-324] round onto 0 and are not
    # evaluated.  Their share of the integral counts in the error: the result
    # holds the tolerance, or NoConvergence's error covers the truth.
    ln, _, twin = _WORKLOAD_LOGS[name]
    want = float(pe.big_f_drop(twin, 1e-300))
    try:
        got = -integrate(ln, 0.0, 1e-300, singular_at_a=s)
    except NoConvergence as err:
        assert s >= 0.5 and 0.0 < abs(-err.estimate - want) <= err.error
    else:
        assert got == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 0.9])
def test_integrate_cheap_integrands(s):
    # The integrals of x**-s and of -log x over [0, 1] are 1 / (1 - s) and 1.
    assert integrate(lambda x: x**-s, 0.0, 1.0, singular_at_a=s) == pytest.approx(1.0 / (1.0 - s), rel=1e-14)
    assert integrate(lambda x: -np.log(x), 0.0, 1.0, singular_at_a=s) == pytest.approx(1.0, rel=1e-14)


def test_strong_singularity_takes_four_node_levels():
    # The power substitution makes x**-0.9 constant in w: levels 0-3, 63
    # points in one call (the adaptive graded mesh took 265 ms; one call per
    # level took calls of 8, 8, 16 and 31 points).
    calls = []

    def f(x):
        calls.append(np.size(x))
        return x**-0.9

    assert integrate(f, 0.0, 1.0, singular_at_a=0.9) == pytest.approx(10.0, rel=1e-14)
    assert calls == [63]


def test_a_limit_past_the_opening_levels_takes_one_more_call():
    # tsallis(-0.9)'s logarithm at 0.3 needs level 4: one call for levels
    # 0-3 and one for level 4, each without the one node that underflows.
    calls = []

    def ln(x):
        calls.append(np.size(x))
        return (1.0 + 1.0 / -0.9) * (x**-0.9 - 1.0)

    assert -integrate(ln, 0.0, 0.3, singular_at_a=0.9) == pytest.approx(float(pe.big_f_drop(pe.tsallis(-0.9), 0.3)))
    assert calls == [63, 63]


def test_node_tables_stay_within_their_cache():
    tables = numerics._node_table
    tables.cache_clear()
    for s in np.linspace(0.0, 0.99, 2000):
        integrate(lambda x: x, 0.0, 1.0, singular_at_a=s)
    info = tables.cache_info()
    assert info.misses >= 2000 and info.currsize <= info.maxsize


def test_custom_drop_keeps_its_bits_after_a_fresh_import(monkeypatch):
    # A benchmark round imports the package afresh, with an empty node cache.
    xs = np.logspace(-100, 12, 7)
    ln = lambda x: (1.0 + 1.0 / -0.9) * (x**-0.9 - 1.0)
    want = pe.big_f_drop(pe.custom_family(ln, 0.9), xs)
    for name in [m for m in sys.modules if m == "phientropy" or m.startswith("phientropy.")]:
        monkeypatch.delitem(sys.modules, name)
    fresh = importlib.import_module("phientropy")
    assert fresh is not pe and fresh.numerics._node_table.cache_info().currsize == 0
    assert fresh.big_f_drop(fresh.custom_family(ln, 0.9), xs).tobytes() == want.tobytes()


def _per_level_integrate(f, a, b, s):
    """``integrate`` as it ran one level per call, building each level's nodes
    afresh: the rule whose bits the cached blocks of levels must keep."""
    b = np.asarray(b, dtype=float)
    p = 1.0 / (1.0 - (s or 0.0))
    span = (b - a).ravel()
    est, total, size = (np.zeros(span.size) for _ in range(3))
    live = np.flatnonzero(span)
    for level in range(8):
        if not live.size:
            break
        h = 0.5**level
        k = np.arange(-int(4.0 / h), int(4.0 / h) + 1)
        u = h * (k if level == 0 else k[k % 2 != 0])
        z = math.pi * np.sinh(u)
        w, wc = 1.0 / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z))
        wp = w**p
        weight = (p * math.pi) * np.cosh(u) * wc * wp
        t = a + span[live, None] * wp
        kept = t != a
        values = np.zeros(t.shape)
        values[kept] = f(t[kept])
        terms = values * weight
        total[live] += terms.sum(axis=1)
        size[live] += np.abs(terms).sum(axis=1)
        last, est[live] = est[live], h * total[live]
        first = np.count_nonzero(~kept, axis=1)
        at = np.minimum(first, u.size - 1)
        tail = np.where(first < u.size, p * wp[at] * np.abs(values[np.arange(live.size), at]), math.inf)
        err = np.abs(est[live] - last) + tail
        if level:
            left = ~(err <= 1e-11 * h * size[live])
            live, err = live[left], err[left]
    if live.size:
        i = live[0]
        raise NoConvergence(
            f"tanh-sinh quadrature on [{a}, {a + span[i]}] missed its relative tolerance 1e-11 in 8 levels",
            estimate=float(span[i] * est[i]),
            error=float(abs(span[i]) * err[0]),
        )
    out = span * est
    return float(out[0]) if b.ndim == 0 else out.reshape(b.shape)


def _outcome(rule, f, a, b, s):
    """The hex of each result, or NoConvergence's text, estimate and error."""
    try:
        return [float(v).hex() for v in np.ravel(rule(f, a, b, s))]
    except NoConvergence as err:
        return [str(err), err.estimate.hex(), err.error.hex()]


# Integrands, exponents and lower limits beside the workload logarithms: a
# strong singularity, a logarithmic one, smooth ones over limits on both
# sides of a, and one that is NaN where 0.5 < t < 0.6.
_DIFFERENTIAL = [(name, _WORKLOAD_LOGS[name][0], s, 0.0) for name, s in _DECLARED] + [
    ("x**-0.9", lambda x: x**-0.9, 0.9, 0.0),
    ("-log", lambda x: -np.log(x), 0.5, 0.0),
    ("exp", np.exp, None, 1.0),
    ("sin", np.sin, None, -2.0),
    ("nan", lambda x: np.where((x > 0.5) & (x < 0.6), np.nan, x), 0.0, 0.0),
]


@pytest.mark.parametrize("name, f, s, a", _DIFFERENTIAL, ids=[f"{c[0]}-{c[2]}" for c in _DIFFERENTIAL])
def test_integrate_keeps_the_bits_of_one_level_per_call(name, f, s, a):
    # Limits from 1e-320 to 1e15 (1e-6 to 10 from a for the smooth
    # integrands), in arrays of 1-5: some lose nodes to underflow, some need
    # levels 4-7, and some raise NoConvergence.
    rng = np.random.default_rng(2801)
    limits = []
    for n in rng.integers(1, 6, 40).tolist():
        if s is None:
            limits.append(a + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 1.0, n))
        else:
            limits.append(10.0 ** rng.uniform(-320.0, 15.0, n))
    # Over [a, -a], sin's estimate at level 0 is within rounding of 0, its
    # test passes there, and only a later level may stop it; at a = 0 it is an empty interval.
    limits.append(np.array([-a, 1.0]))
    for b in limits:
        args = (f, a, b if b.size > 1 else float(b[0]), s)
        assert _outcome(integrate, *args) == _outcome(_per_level_integrate, *args), (name, s, b)


class TestBisect:
    def test_identity(self):
        assert bisect_monotone(lambda x: x, 3.0, 0.0, 4.0) == pytest.approx(3.0, abs=1e-11)

    def test_log_inverse(self):
        got = bisect_monotone(np.log, 1.0, 0.5, 4.0)
        assert got == pytest.approx(math.e, rel=1e-10)

    def test_natural_log_at_zero_target(self):
        # the deduced logarithm of the natural-log family is log itself
        assert bisect_monotone(np.log, 0.0, 0.25, 4.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("target", [0.0, 0.3, 1.0, 2.5, 7.0])
    @pytest.mark.parametrize("x_rel_tol", [None, 1e-12])
    def test_tree_walk_matches_sequential_bisection(self, target, x_rel_tol):
        # f(x) = x**3 - x on a bracket where it is increasing; tol 1e-15 makes
        # the walk cross several six-level trees before it stops.
        f = lambda x: x**3 - x
        want = _sequential_bisection(lambda x: float(f(np.asarray(x))), target, 1.0, 3.0, 1e-15, x_rel_tol)
        got = bisect_monotone(f, target, 1.0, 3.0, tol=1e-15, x_rel_tol=x_rel_tol)
        assert got.hex() == want.hex()

    def test_unreachable_target(self):
        with pytest.raises(BracketError, match="above reachable range"):
            bisect_monotone(np.arctan, 4.0, -1.0, 1.0)  # atan < pi/2 < 4

    def test_reversed_bracket(self):
        # The bracket is taken as given: hi below lo leaves the target outside it.
        f = lambda x: x**3 - x
        with pytest.raises(BracketError, match="below reachable range"):
            bisect_monotone(f, 2.5, 3.0, 1.0)

    def test_bracket_is_not_widened(self):
        # Both ends are evaluated once, in one call, and a target outside the
        # bracket is refused, not searched for.
        calls = []

        def f(x):
            calls.append(np.size(x))
            return x**3

        with pytest.raises(BracketError, match="below reachable range"):
            bisect_monotone(f, -1000.0, 0.0, 1.0)
        with pytest.raises(BracketError, match="above reachable range"):
            bisect_monotone(f, 1000.0, 0.0, 1.0)
        assert calls == [2, 2]

    def test_target_below_the_range(self):
        with pytest.raises(BracketError, match="below reachable range"):
            bisect_monotone(np.arctan, -4.0, -1.0, 1.0)  # atan > -pi/2 > -4


class TestDiff:
    def test_square(self):
        assert central_diff(lambda x: x * x, 3.0, 1e-5) == pytest.approx(6.0, abs=1e-9)

    def test_log_at_one(self):
        assert central_diff(math.log, 1.0, 1e-5) == pytest.approx(1.0, abs=1e-9)

    def test_richardson_beats_plain(self):
        f = math.exp
        plain = abs(central_diff(f, 1.0, 1e-3) - math.e)
        rich = abs(richardson_diff(f, 1.0, 1e-3) - math.e)
        assert rich < plain


class TestCompensatedSum:
    def test_tiny_terms_survive(self):
        # 1e8 terms of 1e-16 next to a unit value
        got = sum_compensated(itertools.chain([1.0], itertools.repeat(1e-16, 10**8)))
        assert abs(got - (1.0 + 1e-8)) <= 1e-15

    def test_cancellation(self):
        vals = [1e16, 1.0, -1e16]
        assert sum_compensated(vals) == 1.0

    def test_ndarray_input(self):
        arr = np.full(1000, 0.1)
        assert sum_compensated(arr) == pytest.approx(100.0, abs=1e-12)

    @given(
        st.lists(st.floats(-1e300, 1e300), max_size=20),
        st.lists(st.sampled_from([0.0, -0.0]), max_size=20),
        st.randoms(use_true_random=False),
    )
    def test_zero_terms_leave_the_bits_unchanged(self, terms, zeros, random):
        # The check table sums h_r / e_r terms over all N entries, zeros
        # included where p and q agree; the sum must not see them.
        mixed = terms + zeros
        random.shuffle(mixed)
        want = sum_compensated(terms)
        got = sum_compensated(mixed)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert got == want
