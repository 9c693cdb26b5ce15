import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import phientropy as pe

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# The family sweep used across the suite (matches the acceptance grid).
FAMILY_GRID = pe.default_family_grid()

ANALYTIC_F_ZERO = {
    "shannon": lambda fam: 1.0,
    "tsallis": lambda fam: 1.0,
    "kaniadakis": lambda fam: 1.0 / (1.0 - fam.kappa**2),
    "kappa_maxwell": lambda fam: 1.0,
    "sqrt_log": lambda fam: 1.0 / 3.0,
    "piecewise_linear": lambda fam: 0.5 + 1.0 / (fam.base - 1.0),
}


@pytest.fixture(params=FAMILY_GRID, ids=lambda f: f.label)
def family(request):
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_pdf(rng, n, sparse=False):
    w = rng.dirichlet(np.ones(n))
    if sparse and n > 1:
        kill = rng.random(n) < 0.3
        if kill.all():
            kill[0] = False
        w = np.where(kill, 0.0, w)
        w = w / w.sum()
    return pe.Pdf(w)


def mp_ln_phi(fam, t):
    """ln_phi at the mpmath number ``t``, from each kind's closed form."""
    if fam.kind == "shannon":
        return mpmath.log(t)
    if fam.kind == "sqrt_log":
        return -1 + mpmath.sqrt(t)
    if fam.kind == "piecewise_linear":
        a = mpmath.mpf(fam.base)
        m = mpmath.floor(mpmath.log(t) / mpmath.log(a))
        m += (a ** (m + 1) <= t) - (a**m > t)
        return m + (t - a**m) / (a**m * (a - 1))
    k = mpmath.mpf(fam.kappa)
    if fam.kind == "tsallis":
        return (1 + 1 / k) * (t**k - 1)
    if fam.kind == "kaniadakis":
        return (t**k - t**-k) / (2 * k)
    return k * (1 - t ** (-1 / (1 + k)))  # kappa_maxwell


def mp_f_drop(fam, x, knots_below=60):
    """F(0) - F(x) = -integral_0^x ln_phi by ``mpmath.quad`` at 50 digits.

    An oracle independent of the library's quadrature.  The piecewise-linear
    logarithm is linear between its knots base**m and is integrated panel by
    panel (Gauss-Legendre is exact there); below base**-knots_below its
    integral is negligible at the tests' tolerances.  For the other kinds
    the substitution t = u**20 turns the singularity at 0 (at worst t**-0.9
    on the grid) into a smooth integrand.
    """
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        if fam.kind == "piecewise_linear":
            a = mpmath.mpf(fam.base)
            knots = (a**m for m in range(-knots_below, int(mpmath.log(x) / mpmath.log(a)) + 2))
            points = [0, *(k for k in knots if k < x), x]
            return -mpmath.quad(lambda t: mp_ln_phi(fam, t), points, method="gauss-legendre", maxdegree=1)
        return -mpmath.quad(lambda u: mp_ln_phi(fam, u**20) * 20 * u**19, [0, mpmath.root(x, 20)])
