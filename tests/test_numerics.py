import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import _sequential_bisection

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

    def test_neg_log_with_graded_mesh(self):
        # analytic antiderivative: integral of -ln over [0,1] is 1
        got = integrate(lambda x: -np.log(x), 0.0, 1.0, singular_at_a=0.0)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_inverse_sqrt_singularity(self):
        got = integrate(lambda x: x**-0.5, 0.0, 1.0, singular_at_a=0.5)
        assert got == pytest.approx(2.0, abs=1e-10)

    def test_strong_singularity(self):
        # integral of x^-0.9 over [0,1] = 10
        got = integrate(lambda x: x**-0.9, 0.0, 1.0, singular_at_a=0.9)
        assert got == pytest.approx(10.0, abs=1e-8)

    def test_reversed_limits_negate(self):
        fwd = integrate(np.sin, 0.0, 2.0)
        assert integrate(np.sin, 2.0, 0.0) == pytest.approx(-fwd, abs=1e-13)

    def test_empty_interval(self):
        assert integrate(np.exp, 1.0, 1.0) == 0.0

    def test_smooth_reference(self):
        got = integrate(np.exp, 0.0, 1.0)
        assert got == pytest.approx(math.e - 1.0, abs=1e-11)

    def test_nonintegrable_raises(self):
        # 1/x declared as a mild singularity: panel integrals never decay
        with pytest.raises(NoConvergence):
            integrate(lambda x: 1.0 / x, 0.0, 1.0, singular_at_a=0.5)

    def test_exhausted_graded_mesh_raises_with_its_estimate(self):
        # Near a = 1 the graded panels fall below the spacing of the floats
        # after about 13 levels, long before (x - 1)**-0.5 decays enough.
        with pytest.raises(NoConvergence, match="exhausted floating-point resolution") as err:
            integrate(lambda x: (x - 1.0) ** -0.5, 1.0, 1.0 + 2.0**-40, singular_at_a=0.5)
        assert err.value.estimate == pytest.approx(2.0**-19, rel=0.05)  # the integral, 2 sqrt(b - a)
        assert 0.0 < err.value.error < 0.05 * 2.0**-19

    def test_bad_exponent(self):
        with pytest.raises(ParamError):
            integrate(lambda x: x, 0.0, 1.0, singular_at_a=1.0)

    def test_bit_stable(self):
        f = lambda x: np.exp(-x) * np.sin(3 * x)
        assert integrate(f, 0.0, 2.0) == integrate(f, 0.0, 2.0)


def _scalar_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    """Adaptive Simpson of a scalar f, one point per call: the nodes, sums and
    error tests :func:`integrate` must keep while it evaluates points in batches."""
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol or depth >= 40:
        if depth >= 40 and abs(err) > 15.0 * tol:
            raise NoConvergence("max depth", estimate=left + right + err / 15.0, error=abs(err) / 15.0)
        return left + right + err / 15.0
    return _scalar_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth + 1) + _scalar_simpson(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth + 1
    )


def _scalar_panel(f, a, b, tol):
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return _scalar_simpson(f, a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 0)


def _scalar_integrate(f, a, b, s=None):
    """The graded-mesh quadrature of :func:`integrate`, written for a scalar f."""
    if a == b:
        return 0.0
    if b < a:
        if s is not None:
            raise ParamError("a declared singularity at a requires a < b")
        return -_scalar_integrate(f, b, a)
    if s is None:
        return _scalar_panel(f, a, b, 1e-11)
    graded = 0.1 * (b - a)
    smooth = _scalar_panel(f, a + graded, b, 0.25e-11) if b > a + graded else 0.0
    q = 0.5 ** (1.0 - s)
    tail_factor = q / (1.0 - q)
    stop = 0.25e-11 / max(tail_factor, 1.0)
    total, budget, hi, last = 0.0, 0.25e-11 * (1.0 - q), a + graded, math.inf
    for k in itertools.count(1):
        lo = a + graded * 0.5**k
        if lo >= hi or lo <= a:
            raise NoConvergence("exhausted", estimate=smooth + total, error=abs(last) * tail_factor)
        last = _scalar_panel(f, lo, hi, budget * q ** (k - 1))
        total += last
        hi = lo
        if abs(last) <= stop:
            return smooth + total + last * tail_factor


# The benchmark's four custom logarithms: ln, kaniadakis(0.3), tsallis(-0.5) and tsallis(-0.9).
_WORKLOAD_LOGS = {
    "log": np.log,
    "kaniadakis(0.3)": lambda x: (x**0.3 - x**-0.3) / 0.6,
    "tsallis(-0.5)": lambda x: (1.0 + 1.0 / -0.5) * (x**-0.5 - 1.0),
    "tsallis(-0.9)": lambda x: (1.0 + 1.0 / -0.9) * (x**-0.9 - 1.0),
}


def _outcome(integral, *args):
    """The integral's value as hex, or its refusal: the text of a ParamError,
    the estimate and error of a NoConvergence."""
    try:
        return integral(*args).hex()
    except ParamError as err:
        return str(err)
    except NoConvergence as err:
        return err.estimate, err.error


@pytest.mark.parametrize("s", [None, 0.0, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("name", sorted(_WORKLOAD_LOGS))
def test_integrate_matches_the_scalar_quadrature_bit_for_bit(name, s):
    # A custom family's F(0) and drop integrate from 0 (singular) or 1, up or
    # down: the limits below take both directions of each.
    ln = _WORKLOAD_LOGS[name]
    scalar = lambda x: float(ln(np.asarray([x]))[0])
    limits = [(1.0, 2.5), (2.5, 1.0), (0.3, 1.0)] if s is None else [(0.0, 1.0), (1.0, 0.0)]
    for a, b in limits:
        args = (a, b) if s is None else (a, b, s)
        assert _outcome(integrate, ln, *args) == _outcome(_scalar_integrate, scalar, *args), (a, b)


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
