"""Deformed-logarithm families and their derived functions.

A deformed logarithm ``ln_phi`` is strictly increasing and concave on
(0, inf) with ln_phi(1) = 0, mild enough at 0 that F(x) = integral_1^x
ln_phi is finite at x = 0.  From F come the deformed exponential
``exp_phi`` (the inverse of ln_phi, 0 / +inf outside its range) and the
deduced logarithm omega(x) = (x - 1) F(0) - x F(1/x), which builds the
entropy functionals of :mod:`phientropy.functionals`.  Six built-in kinds
have closed forms; a custom logarithm goes through quadrature with a
declared endpoint-singularity exponent.  Every function takes scalars or
ndarrays and is pure, so family values can be shared freely across threads.

Each kind is one row of the kind table ``_KINDS`` at the end of this module:
its JSON fields with their admissible ranges, ``derive`` (the singularity
exponent, F(0) and the limits of ln_phi at 0+ and +inf, from the
parameters), and its kernels ``ln``, ``drop`` (F(0) - F(x)), ``prime``,
``omega`` and, where ln_phi has a closed inverse, ``exp``.  Each public
function is one call of one entry, ``_public``: it refuses with DomainError
an x that is not numbers (:func:`~phientropy.numerics.as_floats`) or lies
outside the function's domain, named by the text of its refusal in
``_DOMAINS``, runs the row's kernel and returns a float for a scalar x;
``LogFamily``'s construction, the wire format, the catalogue and the labels
read the same row.  To add a kind, write its row and a one-line constructor
``return LogFamily(kind=..., <param>=<param>)``; ``fields=None`` keeps a
kind out of the wire format.  Entropies and metrics are sums of
``big_f_drop(x) = F(0) - F(x)`` = -integral_0^x ln_phi.

Error budgets: against mpmath, over x in [5e-324, DBL_MAX] and every
admissible parameter, each built-in kernel f keeps |f - exact| <= rel |exact|
+ rel_x s + n 2**-1074, s = x |f'(x)| (x (1 + |ln_phi(x)|) for the drop), so
rel_x = 0 keeps relative accuracy up to the zero at x = 1; ``exp_phi(y)``
lies within rel of the exact inverse at a y' with |y' - y| <= d (1 + |y|),
give or take n spacings; piecewise_linear's ln_phi', which jumps at its
rounded knots, may take its value at x (1 +- 1e-15).
``tests/test_kernel_range.py`` enforces them.  After each, the largest
error measured (seeds 1-5 of its report, both numpy dispatch levels), as a
share of it; E = 1e-15, and L = 4 eps / min(|kappa|, 1 - |kappa|) + 2e-13,
for 1 + 1/kappa and 1 +- kappa:

    rel/rel_x/n       ln         omega      drop                 prime          exp: rel/d/n
    shannon           E/0/0 .11  E/0/0 .11  E/E/1 .50            E/0/1 .16      E/E/1 .05
    tsallis           E/0/0 .48  E/0/0 .38  L/L/(1/|kappa|) .51  1e-12/0/1 .72  E/4e-12/1 .28
    kaniadakis        E/0/0 .46  E/0/0 .51  L/L/(1/|kappa|) .82  1e-12/0/1 .17  E/4e-12/1 .57
    kappa_maxwell     E/0/0 .41  E/0/0 .43  1e-13/1e-12/64 .50   1e-12/0/1 .77  2e-13/4e-12/1 .05
    sqrt_log          E/0/0 .24  E/0/0 .26  E/E/1 .12            E/0/1 .17      E/E/1 .09
    piecewise_linear  E/E/1 .14  E/E/0 .32  E/E/1 .50            E/0/1 .49      1e-12/2e-13/2 .50

The power kinds' ln_phi and omega keep E because ``_ln_times`` forms their
exponent as a sum of two doubles; one product is off by eps |kappa ln x|.

Error state: ``_public`` sets numpy's and the kernels none.  Kernels
that overflow or underflow return inf, -inf or 0, so overflow and divide are
ignored; invalid stays on, as a NaN is a wrong value (where F overflows,
``big_f_drop`` is -inf, not inf - inf).  Callers of ``*_unchecked`` set it.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError, FamilyError, NonDifferentiableError, ParamError
from .numerics import as_floats, bisect_monotone, integrate, richardson_diff

__all__ = [
    "LogFamily",
    "shannon",
    "tsallis",
    "kaniadakis",
    "kappa_maxwell",
    "sqrt_log",
    "piecewise_linear",
    "custom_family",
    "ln_phi",
    "exp_phi",
    "big_f",
    "big_f_drop",
    "omega_phi",
    "ln_phi_prime",
    "kappa_maxwell_density",
    "family_to_json",
    "family_from_json",
    "builtin_catalogue",
]

@dataclass(frozen=True)
class LogFamily:
    """One deformed logarithm with its cached derived constants.

    Instances are immutable.  A built-in family is its kind and its
    parameters (``LogFamily(kind="tsallis", kappa=0.5) == tsallis(0.5)``);
    its row derives the rest, and :func:`custom_family` supplies it all:

    - ``f_zero``: F(0), equal to ``big_f_drop(1)`` (cached so identities
      like ``omega(1) = 0`` hold exactly in floating point),
    - ``ln_at_zero`` / ``ln_sup``: the limits of ``ln_phi`` at 0+ and +inf
      (``-inf`` / ``+inf`` when divergent),
    - ``omega_at_zero``: the limit of ``omega`` at 0+, finite exactly when
      ``ln_sup`` is finite,
    - ``singularity_exponent``: s with ``|ln_phi(x)| = O(x^-s)`` near 0,
      which sets a custom family's quadrature substitution.

    Construction raises :class:`ParamError` for a kind the kind table does
    not define, for a built-in kind whose parameter is missing, not a finite
    number in the range its row gives, or one the kind does not take, or
    which is given ``custom_ln`` or a derived constant, and for a custom
    kind without a callable ``custom_ln`` and all four constants.
    """

    kind: str
    kappa: Optional[float] = None
    base: Optional[float] = None
    custom_ln: Optional[Callable[[np.ndarray], np.ndarray]] = None
    singularity_exponent: Optional[float] = None
    f_zero: Optional[float] = None
    ln_at_zero: Optional[float] = None
    ln_sup: Optional[float] = None

    def __post_init__(self):
        row = _row(self.kind)
        fields = row.fields or {}
        for name in ("kappa", "base"):
            value = getattr(self, name)
            if name in fields:
                object.__setattr__(self, name, _field(self.kind, name, value))
            elif value is not None:
                raise ParamError(f"{self.kind} families take no {name}, got {value!r}")
        if row.derive is None:
            if not callable(self.custom_ln) or any(getattr(self, name) is None for name in _DERIVED):
                raise ParamError(f"{self.kind} families need a callable custom_ln and {', '.join(_DERIVED)}")
            return
        given = [name for name in ("custom_ln", *_DERIVED) if getattr(self, name) is not None]
        if given:
            raise ParamError(f"{self.kind} families take only their parameters, got {', '.join(given)}")
        for name, value in zip(_DERIVED, row.derive(self)):
            object.__setattr__(self, name, value)

    @property
    def omega_at_zero(self) -> float:
        # omega(0+) = -F(0) - sup ln_phi  (limit of x*g(1/x) is F(y)/y -> sup ln)
        if math.isfinite(self.ln_sup):
            return -self.f_zero - self.ln_sup
        return -math.inf

    @property
    def omega_at_zero_finite(self) -> bool:
        return math.isfinite(self.omega_at_zero)

    @property
    def label(self) -> str:
        fields = _KINDS[self.kind].fields or {}
        params = ", ".join(f"{name}={getattr(self, name):g}" for name in fields)
        return f"{self.kind}({params})" if params else self.kind


def shannon() -> LogFamily:
    """The natural logarithm: phi(y) = y, F(0) = 1."""
    return LogFamily(kind="shannon")


def tsallis(kappa: float) -> LogFamily:
    """Power-law logarithm ``(1 + 1/kappa) * (x**kappa - 1)``.

    ``kappa`` must lie in (-1, 1) with ``|kappa| >= 1e-4``.  The deduced
    logarithm of this family is the q-logarithm ``(1/kappa) * (1 - x**-kappa)``.
    """
    return LogFamily(kind="tsallis", kappa=kappa)


def kaniadakis(kappa: float) -> LogFamily:
    """Symmetric power logarithm ``(x**kappa - x**-kappa) / (2*kappa)``.

    Concave only for ``|kappa| < 1``; kappa -> 0 is the shannon limit, and
    ``|kappa| < 1e-4`` is rejected (use kind 'shannon').
    F(0) = 1 / (1 - kappa**2).
    """
    return LogFamily(kind="kaniadakis", kappa=kappa)


def kappa_maxwell(kappa: float) -> LogFamily:
    """Logarithm ``kappa * (1 - x**(-1/(1+kappa)))`` of the kappa-distribution.

    Any finite ``kappa > 0`` is accepted.  ``ln_phi`` is bounded above by
    ``kappa``, so the deduced logarithm has a finite limit ``-(1 + kappa)`` at 0.
    """
    return LogFamily(kind="kappa_maxwell", kappa=kappa)


def sqrt_log() -> LogFamily:
    """The logarithm ``-1 + sqrt(x)``; bounded at 0, F(0) = 1/3."""
    return LogFamily(kind="sqrt_log")


def piecewise_linear(base: float) -> LogFamily:
    """Piecewise-linear logarithm interpolating ``ln_phi(base**n) = n``.

    Requires a finite ``base > 1`` so the knot values increase and the
    interpolant is concave.  F(0) = 1/2 + 1/(base - 1).
    """
    return LogFamily(kind="piecewise_linear", base=base)


def custom_family(
    ln: Callable[[np.ndarray], np.ndarray],
    singularity_exponent: float,
    ln_at_zero: Optional[float] = None,
    ln_sup: Optional[float] = None,
) -> LogFamily:
    """Wrap a user-supplied deformed logarithm.

    ``ln`` must be vectorized (ndarray in, ndarray out), strictly increasing
    and concave with ``ln(1) = 0``; these are spot-checked on a log-spaced
    grid at construction.  ``singularity_exponent`` declares s in [0, 1)
    with ``|ln(x)| = O(x**-s)`` near 0.  F(0) and every drop
    -integral_0^x ln are then one quadrature
    (:func:`~phientropy.numerics.integrate`): the substitution
    t = x w**(1/(1-s)) cancels the singularity, and a tanh-sinh rule sums the
    nodes to 1e-11 relative.  The nodes of all the points of a kernel call go
    through ``ln`` together: levels 0-3 in one call, then one level per
    call, from node tables cached per exponent.  Where the share of
    [0, 5e-324], which no double reaches, exceeds that tolerance (below
    about x = 1e-213 at s = 0.9, 1e-301 at s = 0.5), the drop raises
    :class:`~phientropy.errors.NoConvergence`.  Optional finite limits at
    0+ (``ln_at_zero < 0``) and +inf (``ln_sup > 0``) refine support handling
    in the entropy functionals; ``-inf`` / ``+inf`` mean divergent.
    """
    singularity_exponent, ln_at_zero, ln_sup = (
        None if v is None else _number(v, name)
        for v, name in ((singularity_exponent, "singularity_exponent"), (ln_at_zero, "ln_at_zero"), (ln_sup, "ln_sup"))
    )
    if not 0.0 <= singularity_exponent < 1.0:
        raise ParamError("singularity exponent must lie in [0, 1)")
    # An increasing ln with ln(1) = 0 has ln(0+) < 0 < ln(+inf); NaN fails both.
    if ln_at_zero is not None and not ln_at_zero < 0.0:
        raise ParamError(f"ln_at_zero must be negative or -inf, got {ln_at_zero}")
    if ln_sup is not None and not ln_sup > 0.0:
        raise ParamError(f"ln_sup must be positive or +inf, got {ln_sup}")

    grid = np.logspace(-6, 6, 121)
    vals = np.asarray(ln(grid), dtype=float)
    if vals.shape != grid.shape or not np.all(np.isfinite(vals)):
        raise ParamError("custom ln must return finite values on (0, inf)")
    at_one = float(ln(np.asarray([1.0]))[0])
    if abs(at_one) > 1e-12:
        raise ParamError(f"custom ln must vanish at 1, got {at_one}")
    spacing = np.diff(grid)
    slopes = np.diff(vals) / spacing
    if not np.all(slopes > 0):
        raise ParamError("custom ln must be strictly increasing")
    # Slopes from nearly-cancelling values carry noise ~ eps*|v|/h; allow it
    # before declaring the function convex.
    eps = np.finfo(float).eps
    noise = 4.0 * eps * (np.abs(vals[:-1]) + np.abs(vals[1:]) + 1.0) / spacing
    tol = 1e-10 * np.max(np.abs(slopes)) + noise[:-1] + noise[1:]
    if np.any(np.diff(slopes) > tol):
        raise ParamError("custom ln must be concave")

    fn = lambda x: np.asarray(ln(np.asarray(x, dtype=float)), dtype=float)
    f0 = -integrate(fn, 0.0, 1.0, singular_at_a=singularity_exponent)
    return LogFamily(
        kind="custom",
        custom_ln=fn,
        singularity_exponent=singularity_exponent,
        f_zero=f0,
        ln_at_zero=-math.inf if ln_at_zero is None else ln_at_zero,
        ln_sup=math.inf if ln_sup is None else ln_sup,
    )


# ---------------------------------------------------------------------------
# evaluation


_TINY, _MAX = np.finfo(float).tiny, np.finfo(float).max


# The domains of the public kernels, by the text of their refusal: whether x lies in one.
# np.count_nonzero costs a fraction of np.all on the few-element arrays most calls pass.
_DOMAINS = {
    "finite x > 0": lambda a: np.count_nonzero((a > 0.0) & (a < math.inf)) == a.size,
    "finite x >= 0": lambda a: np.count_nonzero((a >= 0.0) & (a < math.inf)) == a.size,
    "x that is not NaN": lambda a: not np.count_nonzero(np.isnan(a)),
}
_QUIET = {"over": "ignore", "divide": "ignore"}


def _public(name: str, fam: LogFamily, x, domain: str, kernel: Kernel) -> float | np.ndarray:
    """The public kernel ``name``: ``kernel(fam, x)`` under the kernels' error state, a
    float for a scalar x.  Raises :class:`DomainError` unless x is numbers
    (:func:`~phientropy.numerics.as_floats`) in ``domain``, a key of ``_DOMAINS``."""
    arr = as_floats(x, DomainError, name)
    if not _DOMAINS[domain](arr):
        raise DomainError(f"{name} requires {domain}")
    with np.errstate(**_QUIET):
        out = kernel(fam, arr)
    return float(out) if arr.ndim == 0 else out


def ln_phi(fam: LogFamily, x) -> float | np.ndarray:
    """Evaluate the deformed logarithm at ``x > 0``."""
    return _public("ln_phi", fam, x, "finite x > 0", ln_phi_unchecked)


def ln_phi_unchecked(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    """The kernel of :func:`ln_phi`: a float ndarray, known finite and > 0, in, and no
    domain check, so callers that validated x once (the bound checks) do not pay for it."""
    return _KINDS[fam.kind].ln(fam, arr)


def big_f_drop(fam: LogFamily, x) -> float | np.ndarray:
    """``F(0) - F(x)`` = -integral_0^x ln_phi for x >= 0, in closed form without
    subtracting near-equal quantities, so relatively accurate also at small x,
    where it behaves like x (-ln_phi(x))."""
    return _public("big_f_drop", fam, x, "finite x >= 0", big_f_drop_unchecked)


def big_f_drop_unchecked(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    """The kernel of :func:`big_f_drop`: a float ndarray, known finite and >= 0, in,
    and no domain check, like :func:`ln_phi_unchecked`."""
    return _KINDS[fam.kind].drop(fam, arr)


def big_f(fam: LogFamily, x) -> float | np.ndarray:
    """Antiderivative ``F(x) = integral_1^x ln_phi``; convex, ``F(1) = 0``."""
    return _public("big_f", fam, x, "finite x >= 0", lambda fam, arr: fam.f_zero - big_f_drop_unchecked(fam, arr))


def omega_phi(fam: LogFamily, x) -> float | np.ndarray:
    """Deduced logarithm ``omega(x) = (x - 1) F(0) - x F(1/x)`` for ``x > 0``.

    Each built-in kind's row gives omega in closed form, with no F in it, so
    it keeps its digits near x = 1 and does not overflow where 1/x does.
    The custom kind takes the defining form ``x * big_f_drop(1/x) - F(0)``,
    and raises :class:`DomainError` where 1/x overflows; for x in [1/2, 2]
    it integrates F(0) + ln_phi from 1/x to 1 instead, which keeps its
    digits near x = 1.
    """
    return _public("omega_phi", fam, x, "finite x > 0", omega_phi_unchecked)


def omega_phi_unchecked(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    """The kernel of :func:`omega_phi`: a float ndarray, known finite and > 0, in,
    and no domain check, like :func:`ln_phi_unchecked`."""
    return _KINDS[fam.kind].omega(fam, arr)


def ln_phi_prime(fam: LogFamily, x) -> float | np.ndarray:
    """Derivative of the deformed logarithm, ``1 / phi(x)``.

    For the piecewise-linear family the one-sided slopes differ at the knots
    ``base**n`` (1 among them), so evaluation there raises
    :class:`NonDifferentiableError`.
    """
    return _public("ln_phi_prime", fam, x, "finite x > 0", _KINDS[fam.kind].prime)


def exp_phi(fam: LogFamily, x) -> float | np.ndarray:
    """Deformed exponential: inverse of ``ln_phi`` extended to all of R.

    Returns 0 below the range of ``ln_phi`` and ``+inf`` above it, and raises
    :class:`DomainError` at NaN.  Families without a closed inverse
    (piecewise_linear, custom) fall back to monotone bisection at 1e-12 relative
    tolerance; they return 0 only below ln_phi(5e-324) (or at and below a custom
    family's finite ``ln_at_zero``) and inf only above ln_phi(DBL_MAX) (or at
    and above a finite ``ln_sup``).
    """
    return _public("exp_phi", fam, x, "x that is not NaN", _KINDS[fam.kind].exp)


def kappa_maxwell_density(
    fam: LogFamily, amplitude: float, beta: float, v, v0: float
) -> float | np.ndarray:
    """Velocity density ``A * [1 + beta v^2 / (2 kappa v0^2)]**(-1-kappa)``.

    Equals ``A * exp_phi(-(1/2) beta v^2 / v0^2)`` for the kappa_maxwell
    family; even in ``v``.
    """
    if fam.kind != "kappa_maxwell":
        raise FamilyError("density defined for the kappa_maxwell family only")
    amplitude, beta, v0 = _number(amplitude, "amplitude"), _number(beta, "beta"), _number(v0, "v0")
    if not (amplitude > 0 and beta > 0 and v0 > 0):
        raise ParamError("amplitude, beta and v0 must be positive")
    arr = as_floats(v, DomainError, "kappa_maxwell_density")
    k = fam.kappa
    out = amplitude * (1.0 + beta * arr * arr / (2.0 * k * v0 * v0)) ** (-1.0 - k)
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# kernels that do not fit on one line of the kind table; each takes the
# family and a float ndarray already in its function's domain


def _tsallis_derive(fam: LogFamily) -> tuple:
    k = fam.kappa
    f0 = (1.0 + 1.0 / k) - 1.0 / k  # = g(1), analytically 1
    if k > 0:
        return 0.0, f0, -(1.0 + 1.0 / k), math.inf
    return -k, f0, -math.inf, -(1.0 + 1.0 / k)


def _tsallis_drop(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    k = fam.kappa
    # Both terms overflow only where F(x) does or nearly does: the caps make
    # the drop -inf there, not inf - inf.  Near DBL_MAX at small |kappa| the
    # drop is still finite; x factored out gives it there.
    out = np.minimum((1.0 + 1.0 / k) * arr, _MAX) - np.maximum((1.0 / k) * arr ** (1.0 + k), -_MAX)
    return _where_inf(out, lambda: arr * ((1.0 + 1.0 / k) - (1.0 / k) * arr**k))


def _where_inf(out: np.ndarray, redo: Callable[[], np.ndarray], at: Optional[np.ndarray] = None) -> np.ndarray:
    """``out``, with ``redo()`` where the mask ``at`` holds (where ``out`` is infinite
    by default): the form a kernel takes where an intermediate overflows but its
    value need not."""
    at = np.isinf(out) if at is None else at
    return np.where(at, redo(), out) if np.count_nonzero(at) else out


_LN2 = Fraction("0.6931471805599453094172321214581765680755")  # ln 2 to 40 digits


@functools.lru_cache(maxsize=1024)
def _ln2_times(a: float, b: float) -> tuple[float, float, float]:
    """c = a / (1 + b), exactly, and c ln 2 as hi + lo, hi of 42 bits, so that
    n hi is exact for every binary exponent n of a double: (hi, lo, c)."""
    c = Fraction(a) / (1 + Fraction(b))
    m, e = math.frexp(float(c * _LN2))
    hi = math.ldexp(math.trunc(math.ldexp(m, 42)), e - 42)
    return hi, float(c * _LN2 - Fraction(hi)), float(c)


def _ln_times(x: np.ndarray, a: float, b: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """``a ln(x) / (1 + b)`` as an unevaluated sum s + t, |t| <= ulp(s).  With
    x = m 2**n, m in [sqrt(1/2), sqrt(2)), n c ln 2 is an exact product plus a
    small rest, and ln m = log1p(m - 1) is below 0.35, so s + t is off by about
    eps |c|, where c ln(x) in one product is off by eps |c ln x|."""
    hi, lo, c = _ln2_times(a, b)
    m, n = np.frexp(x)
    low = m < math.sqrt(0.5)
    m, n = m + m * low, n - low
    head, rest = n * hi, n * lo + c * np.log1p(m - 1.0)
    s = head + rest
    return s, (head - s) + rest


def _times_expm1(c: float, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``c * expm1(s + t)``, |t| <= ulp(s), with c in the exponent where expm1(s)
    alone overflows (past s = 709.8; c expm1(s) lasts to 709.8 - log|c|, further
    for |c| < 1).  The cap keeps 0 * inf out of the t term."""
    e = np.expm1(s)
    out = c * e + (c * t) * np.minimum(1.0 + e, _MAX)

    def in_exponent():  # s + t + log|c| as u + w, so that exp(u) (1 + w) keeps its digits
        ls, lt = _ln_times(np.abs(c), 1.0)
        u = s + ls
        return math.copysign(1.0, c) * np.exp(u) * (1.0 + ((((s - u) + ls) + lt) + t)) - c

    return _where_inf(out, in_exponent)


def _kaniadakis_sum(fam: LogFamily, arr: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``(expm1(k ln x) / lo - expm1(-k ln x) / hi) / (2 k)``, divisors in the factors:
    ln_phi with lo = hi = 1, omega with lo = 1 - k and hi = 1 + k."""
    k = fam.kappa
    s, t = _ln_times(arr, k)
    return _times_expm1(1.0 / (lo * 2.0 * k), s, t) - _times_expm1(1.0 / (hi * 2.0 * k), -s, -t)


def _times_power(c: float, x: np.ndarray, e: float) -> np.ndarray:
    """``c * x**e``, c > 0, with c in the exponent where x**e alone overflows."""
    return _where_inf(c * x**e, lambda: np.exp(e * np.log(x) + math.log(c)))


def _tsallis_exp(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    k, c = fam.kappa, fam.kappa / (1.0 + fam.kappa)
    b = 1.0 + c * arr
    out = np.where(b > 0, np.maximum(b, 0.0 if k > 0 else 1e-300) ** (1.0 / k), 0.0 if k > 0 else math.inf)
    # An inverse whose base passes DBL_MAX can still be finite, even subnormal.
    # A base of -inf is a y past the range, where out is already 0 or inf.
    return _where_inf(out, lambda: np.exp((math.log(abs(c)) + np.log(np.abs(arr))) / k), at=b == math.inf)


def _kaniadakis_exp(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    t = fam.kappa * arr
    s = np.hypot(1.0, t) + np.abs(t)
    out = np.where(t >= 0, s, 1.0 / s) ** (1.0 / fam.kappa)
    redo = lambda: np.exp(np.copysign(math.log(2.0) + np.log(np.abs(t)), t) / fam.kappa)
    return _where_inf(out, redo, at=s == math.inf)


def _km_exp(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    # (1 - y / kappa)**(-(1 + kappa)) through log1p, which keeps its digits at large kappa.
    k, b = fam.kappa, -arr / fam.kappa
    out = np.where(arr < k, np.exp(-(1.0 + k) * np.log1p(np.maximum(b, -1.0))), math.inf)
    # Only b = +inf is a y in the range (b = -inf lies above it, where out is inf).
    return _where_inf(out, lambda: np.exp(-(1.0 + k) * (np.log(np.abs(arr)) - math.log(k))), at=b == math.inf)


def _custom_omega(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    if np.count_nonzero(np.isinf(1.0 / arr)):
        raise DomainError(f"omega_phi requires x whose reciprocal is finite for {fam.kind} families")
    # Near 1, x big_f_drop(1/x) - F(0) cancels.  For x in [1/2, 2], omega is
    # (x - 1) F(0) - x integral_1^(1/x) ln = x integral_0^((x-1)/x) (F(0) + ln(1 - v)) dv,
    # whose integrand is >= 0 (F(0) >= -ln(1/2) for a concave ln, by Jensen),
    # so it keeps relative accuracy: one quadrature with no singularity.
    near = (arr >= 0.5) & (arr <= 2.0)
    out = np.empty(arr.shape)
    if np.count_nonzero(near):
        x = arr[near]
        out[near] = x * integrate(lambda v: fam.f_zero + fam.custom_ln(1.0 - v), 0.0, (x - 1.0) / x)
    if np.count_nonzero(~near):
        x = arr[~near]
        out[~near] = x * _custom_drop(fam, 1.0 / x) - fam.f_zero
    return out


# The kappa_maxwell drop's plain form is off by 1.4e-13 relative at kappa = 400 and inf - inf from 142 on;
# above this kappa it factors x**(-1/(1 + kappa)) through expm1, and a smaller kappa keeps its bits.
_KM_EXPM1_KAPPA = 100.0


def _km_drop(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    k = fam.kappa
    if k > _KM_EXPM1_KAPPA:
        # (1 + k) x**(k / (1 + k)) - k x with x factored out; log(0) is kept
        # out, so that the drop at 0 is 0 * 1.
        return arr * (1.0 + (1.0 + k) * np.expm1(-np.log(np.where(arr > 0, arr, 1.0)) / (1.0 + k)))
    return (1.0 + k) * arr ** (k / (1.0 + k)) - k * arr


def _pw_scaled(x: np.ndarray, base: float, m: np.ndarray) -> np.ndarray:
    """``x * base**m``, formed as ``(x base**(m // 2)) base**(m - m // 2)``,
    whose factors stay finite wherever the product is at most 1, even where
    base**m overflows."""
    return x * np.power(base, m // 2) * np.power(base, m - m // 2)


def _pw_panels(x: np.ndarray, base: float):
    """Panel index m, knot base**m and offset u = x - base**m for each x > 0,
    and the mask of the knots that are subnormal or 0 (None if there are none).

    Guards against floor(log(x)/log(base)) misrounding at the knots.  A
    subnormal knot has lost its digits, and a knot of 0 sends the guards a
    panel up, so under the mask the panel is given in units of its knot:
    base**m reads 1 and u reads x / base**m - 1, formed as (x base**(-m - 1))
    base, whose factors are finite, and the guards run on that.
    """
    guess = np.floor(np.log(x) / math.log(base))
    m, am = guess, np.power(base, guess)
    deep = am < _TINY
    low = x < am
    if np.count_nonzero(low):
        m = np.where(low, m - 1, m)
        am = np.power(base, m)
        deep |= am < _TINY  # a knot of 0 would pass the high guard
    high = x >= am * base
    if np.count_nonzero(high):
        m = np.where(high, m + 1, m)
        am = np.power(base, m)
    deep |= am < _TINY
    if not np.count_nonzero(deep):
        return m, am, x - am, None
    ratio = lambda m: _pw_scaled(x, base, -m - 1) * base  # x / base**m
    m = np.where(deep, guess, m)
    v = ratio(m)
    if np.count_nonzero(deep & (v < 1.0)):
        m = np.where(deep & (v < 1.0), m - 1, m)
        v = ratio(m)
    if np.count_nonzero(deep & (v >= base)):
        m = np.where(deep & (v >= base), m + 1, m)
        v = ratio(m)
    return m, np.where(deep, 1.0, am), np.where(deep, v - 1.0, x - am), deep


def _pw_offset(u: np.ndarray, am: np.ndarray, base: float) -> np.ndarray:
    """``u / (am (base - 1))``, formed as ``(u / am) / (base - 1)`` where the
    product overflows (am (base - 1) passes DBL_MAX in the top panels)."""
    den = am * (base - 1.0)
    return np.where(den < math.inf, u / den, (u / am) / (base - 1.0))


def _pw_ln(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    a = fam.base
    m, am, u, _ = _pw_panels(arr, a)
    # Below 1, -1 + offset cancels: the panel's line through 1 gives it.
    return np.where(m == -1, (arr - 1.0) * (a / (a - 1.0)), m + _pw_offset(u, am, a))


def _pw_drop(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    a = fam.base
    m, am, u, deep = _pw_panels(arr + (arr == 0), a)  # 1 in place of 0
    # u * u is subnormal below u ~ 1.5e-154 and inf above ~1.3e154; divide
    # first there.  Zeros keep inf / inf out of the branch np.where drops.
    # den itself overflows where am * (a - 1) passes about 9e307, while
    # u / am stays below a - 1.
    uu, den = u * u, 2.0 * am * (a - 1.0)
    plain = (uu >= _TINY) & (uu < math.inf)
    half_u = np.where(den < math.inf, u / den, 0.5 * ((u / am) / (a - 1.0)))
    half_uu = np.where(plain, np.where(plain, uu, 0.0) / den, u * half_u)
    # am * (m - 0.5) overflows wherever am / (a - 1) does, and F(x) with it:
    # capping the second term makes that -inf, not inf - inf.
    val = -(am * (m - 0.5) - np.minimum(am / (a - 1.0), _MAX) + m * u + half_uu)
    if deep is not None:  # val is in units of the knot x / (1 + u) there
        val = np.where(deep, arr * (val / (1.0 + u)), val)
    return np.where(arr > 0, val, 0.0)


def _pw_omega(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    # With y = 1/x = a**m (1 + v) in panel m, the panel sum of _pw_drop gives
    # x * big_f_drop(y) = t (c + 1/2 - m (1 + v) - c v**2 / 2), c = 1 / (a - 1)
    # and t = x a**m = 1 / (1 + v) in (1/a, 1]; less F(0) = c + 1/2, that is
    # -m - (1 - t) (1/2 + c + c (1 - t) / (2 t)).  x a**m is scaled, so no
    # factor overflows, even where 1/x does.
    a = fam.base
    m = np.floor(-np.log(arr) / math.log(a))
    t = _pw_scaled(arr, a, m)
    # The guards of _pw_panels: floor(log(y) / log(a)) can misround at a knot.
    if np.count_nonzero(t > 1.0):
        m = np.where(t > 1.0, m - 1, m)
        t = _pw_scaled(arr, a, m)
    if np.count_nonzero(t * a <= 1.0):
        m = np.where(t * a <= 1.0, m + 1, m)
        t = _pw_scaled(arr, a, m)
    c, s = 1.0 / (a - 1.0), 1.0 - t
    # For x in (1, a] (m = -1) that cancels; omega there is (x - 1)(1 + a/x) / (2 (a - 1)).
    return np.where(m == -1, 0.5 * (arr - 1.0) * ((1.0 + a / arr) / (a - 1.0)), -m - s * (0.5 + c + c * s / (2.0 * t)))


def _pw_prime(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    m, am, u, deep = _pw_panels(arr, fam.base)
    if np.any(u == 0.0):
        raise NonDifferentiableError("piecewise-linear logarithm has no derivative at its knots")
    out = _pw_offset(1.0, am, fam.base)
    if deep is not None:  # 1 / (knot (base - 1)), the knot x / (1 + u)
        out = np.where(deep, ((1.0 + u) / (fam.base - 1.0)) / arr, out)
    return out


def _custom_drop(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    # -integral_0^x ln_phi for every point in one quadrature; at x = 1 it has
    # the bits of F(0), and at x = 0 it is +0.0, which a negation would flip.
    return 0.0 - integrate(fam.custom_ln, 0.0, arr, singular_at_a=fam.singularity_exponent)


def _custom_prime(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    # A Richardson central difference for all points at once, its step a
    # small fraction of x, so that x - h is in the domain.  In the top 1e-6
    # of the float range x + h passes DBL_MAX, and a backward difference with
    # one Richardson step, 2 D(h / 2) - D(h) at h = 1e-4 x, stands in.  Where
    # no such step is left (h / 2 underflows, x below about 7e-321), or the
    # difference is not positive (ln's values do not resolve the step, as
    # x - 1 near 0), a one-sided difference toward the interior takes over.
    f = fam.custom_ln
    h = np.minimum(1e-6 * np.maximum(arr, 1e-3), 1e-3 * arr)
    top = arr > _MAX - h
    fits = (0.5 * h > 0.0) & ~top
    out = np.zeros(arr.shape)
    out[fits] = richardson_diff(f, arr[fits], h[fits])
    if np.count_nonzero(top):
        x, fx = arr[top], f(arr[top])
        out[top] = (4.0 * (fx - f(x - 5e-5 * x)) - (fx - f(x - 1e-4 * x))) / (1e-4 * x)
    rest = ~(out > 0.0)
    for backward in (False, True):
        part = rest & (top == backward)
        if np.count_nonzero(part):
            out[part] = _one_sided_diff(f, arr[part], backward)
    return out


# The doublings k of the steps x 2**k that the forward difference searches:
# x + x 2**2098 passes DBL_MAX from x = 5e-324 on.  Backward, the steps are
# x 2**(k - 53), and x - x 2**-53 rounds to x: k runs up to 52, the step x / 2.
_FORWARD_STEPS, _BACKWARD_STEPS = 2098, 52


def _one_sided_diff(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, backward: bool) -> np.ndarray:
    """``(f(x + h) - f(x)) / h`` at the least step h = x 2**k (x + h at most
    DBL_MAX), or backward ``(f(x) - f(x - h)) / h`` at h = x 2**(k - 53) (at
    most x / 2), whose difference holds 2**26 spacings of f(x), so that
    rounding moves it by at most about 1e-8 relative; at the largest such step
    if none does.  The steps are searched by bisection over k, one call of
    ``f`` per level."""
    fx = f(x)
    need = 2.0**26 * np.spacing(np.minimum(np.abs(fx), _MAX))
    if backward:
        diff, step, levels = lambda h: fx - f(x - h), lambda k: np.ldexp(x, k - 53), _BACKWARD_STEPS
    else:
        diff, levels = lambda h: f(x + h) - fx, _FORWARD_STEPS
        step = lambda k: np.minimum(np.ldexp(x, k), _MAX - x)
    lo, hi = np.zeros(x.shape, dtype=int), np.full(x.shape, levels)
    while np.count_nonzero(lo < hi):
        mid = (lo + hi) // 2
        held = diff(step(mid)) >= need
        hi, lo = np.where(held, mid, hi), np.where(held, lo, mid + 1)
    h = step(lo)
    return diff(h) / h


def _exp_by_bisection(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    # ln_phi is evaluated at powers of two 2**e, -1074 <= e <= 1023, at
    # DBL_MAX, and inside the bracket they give: every point is a finite x > 0.
    f = lambda t: ln_phi_unchecked(fam, np.asarray(t, dtype=float))
    # A custom ln may miss 0 at 1 by up to 1e-12, so the split is at its value.
    at_one = float(f(1.0))

    def inverse(y: float) -> float:
        if math.isfinite(fam.ln_sup) and y >= fam.ln_sup:
            return math.inf
        if math.isfinite(fam.ln_at_zero) and y <= fam.ln_at_zero:
            return 0.0
        # The bracket is 1 and the first power of two 2**-k (below y) or
        # 2**k (above it) from 1 outward, found by bisection over k and cut
        # to 64 binades.  A y below ln_phi(5e-324) finds no 2**-k and gives 0.
        if y < at_one:
            k = bisect.bisect_left(range(1075), True, key=lambda k: f(2.0**-k) <= y)
            if k == 1075:
                return 0.0
            return bisect_monotone(f, y, 2.0**-k, 2.0 ** min(0, 64 - k), tol=1e-13, x_rel_tol=1e-12)
        k = bisect.bisect_left(range(1024), True, key=lambda k: f(2.0**k) >= y)
        if k < 1024:
            return bisect_monotone(f, y, 2.0 ** max(0, k - 64), 2.0**k, tol=1e-13, x_rel_tol=1e-12)
        if f(_MAX) < y:
            return math.inf
        # Above 2**1023 the sum of two points overflows, so bisect on x / 2.
        return 2.0 * bisect_monotone(lambda t: f(2.0 * t), y, 2.0**1022, _MAX / 2.0, tol=1e-13, x_rel_tol=1e-12)

    return np.array([inverse(float(v)) for v in np.atleast_1d(arr)]).reshape(arr.shape)


# ---------------------------------------------------------------------------
# the kind table


# "LogFamily" as a string: typing caches this alias, and a cached class would
# keep each re-imported copy of this module alive.
Kernel = Callable[["LogFamily", np.ndarray], np.ndarray]


class _Range(NamedTuple):
    """A parameter's admissible values: the catalogue's text and its test."""

    text: str
    admits: Callable[[float], bool]
    note: str = ""  # appended to the refusal


# The power kernels and F(0) cancel as kappa -> 0: against mpmath, the drop
# at x = 0.3 is off by 4e-13 (relative) at |kappa| = 1e-4, 5e-11 at 1e-6
# and 4e-2 at 1e-15, so smaller |kappa| are refused.
_KAPPA_POWER = _Range(
    "(-1, 1) with |kappa| >= 1e-4",
    lambda v: -1.0 < v < 1.0 and abs(v) >= 1e-4,
    "; smaller |kappa| cancels to noise, and kappa -> 0 is the shannon limit: use kind 'shannon'",
)


# The constants each row's ``derive`` returns, in order.
_DERIVED = ("singularity_exponent", "f_zero", "ln_at_zero", "ln_sup")


class _Kind(NamedTuple):
    """One family kind: its JSON fields, derived constants and kernels.

    ``fields`` maps each JSON field, which is also a ``LogFamily`` attribute
    and keyword, to its admissible range; None means no JSON encoding
    (``custom_family`` checks its own arguments).  ``derive`` returns the
    ``_DERIVED`` constants of a family whose parameters are checked; None
    means the family carries its own.  The kernels take the family and a
    float ndarray in their function's domain: ln_phi, F(0) - F(x), ln_phi',
    omega and the inverse of ln_phi (by bisection unless the row gives a
    closed form).  ``omega`` is the kind's closed form, free of F, or for
    the custom kind x * big_f_drop(1/x) - F(0).  Each built-in kernel keeps
    the error budget of the module docstring.
    """

    fields: Optional[dict[str, _Range]]
    derive: Optional[Callable[["LogFamily"], tuple]]
    ln: Kernel
    drop: Kernel
    prime: Kernel
    omega: Kernel
    exp: Kernel = _exp_by_bisection


_KINDS = {
    "shannon": _Kind(
        fields={},
        derive=lambda fam: (0.0, 1.0, -math.inf, math.inf),
        ln=lambda fam, x: np.log(x),
        drop=lambda fam, x: x - x * np.log(np.where(x > 0, x, 1.0)),
        prime=lambda fam, x: 1.0 / x,
        exp=lambda fam, x: np.exp(x),
        omega=lambda fam, x: np.log(x),
    ),
    "tsallis": _Kind(
        fields={"kappa": _KAPPA_POWER},
        derive=_tsallis_derive,
        ln=lambda fam, x: _times_expm1((1.0 + fam.kappa) / fam.kappa, *_ln_times(x, fam.kappa)),
        drop=_tsallis_drop,
        prime=lambda fam, x: _times_power(1.0 + fam.kappa, x, fam.kappa - 1.0),
        exp=_tsallis_exp,
        omega=lambda fam, x: _times_expm1(-1.0 / fam.kappa, *_ln_times(x, -fam.kappa)),
    ),
    "kaniadakis": _Kind(
        fields={"kappa": _KAPPA_POWER},
        derive=lambda fam: (  # F(0) is analytically 1 / (1 - kappa^2)
            abs(fam.kappa), (1.0 / (2.0 * fam.kappa)) * (1.0 / (1.0 - fam.kappa) - 1.0 / (1.0 + fam.kappa)),
            -math.inf, math.inf,
        ),
        ln=lambda fam, x: _kaniadakis_sum(fam, x, 1.0, 1.0),
        # Where x**(1 + |kappa|) overflows but the drop does not, x is factored out.
        drop=lambda fam, x: _where_inf(
            (x ** (1.0 - fam.kappa) / (1.0 - fam.kappa) - x ** (1.0 + fam.kappa) / (1.0 + fam.kappa))
            / (2.0 * fam.kappa),
            lambda: x * ((x**-fam.kappa / (1.0 - fam.kappa) - x**fam.kappa / (1.0 + fam.kappa)) / (2.0 * fam.kappa)),
        ),
        prime=lambda fam, x: _times_power(0.5, x, fam.kappa - 1.0) + _times_power(0.5, x, -fam.kappa - 1.0),
        exp=_kaniadakis_exp,
        omega=lambda fam, x: _kaniadakis_sum(fam, x, 1.0 - fam.kappa, 1.0 + fam.kappa),
    ),
    "kappa_maxwell": _Kind(
        fields={"kappa": _Range("> 0", lambda v: v > 0.0)},
        derive=lambda fam: (1.0 / (1.0 + fam.kappa), 1.0, -math.inf, fam.kappa),
        ln=lambda fam, x: _times_expm1(-fam.kappa, *_ln_times(x, -1.0, fam.kappa)),
        drop=_km_drop,
        prime=lambda fam, x: _times_power(fam.kappa / (1.0 + fam.kappa), x, -(2.0 + fam.kappa) / (1.0 + fam.kappa)),
        exp=_km_exp,
        omega=lambda fam, x: _times_expm1(1.0 + fam.kappa, *_ln_times(x, 1.0, fam.kappa)),
    ),
    "sqrt_log": _Kind(
        fields={},
        derive=lambda fam: (0.0, 1.0 - 2.0 / 3.0, -1.0, math.inf),
        ln=lambda fam, x: (x - 1.0) / (1.0 + np.sqrt(x)),
        # x**1.5 overflows from 3.2e205, the drop from 4.2e205.
        drop=lambda fam, x: _where_inf(x - (2.0 / 3.0) * x**1.5, lambda: x * (1.0 - (2.0 / 3.0) * np.sqrt(x))),
        prime=lambda fam, x: 0.5 / np.sqrt(x),
        exp=lambda fam, x: np.where(x <= -1.0, 0.0, (1.0 + x) ** 2),
        # (2/3)(1 - 1/sqrt(x)) with the cancellation taken out, as in ln
        omega=lambda fam, x: (x - 1.0) / (x + np.sqrt(x)) / 1.5,
    ),
    "piecewise_linear": _Kind(
        fields={"base": _Range("> 1", lambda v: v > 1.0, "; smaller bases make the knot values decreasing")},
        derive=lambda fam: (0.0, 0.5 + 1.0 / (fam.base - 1.0), -math.inf, math.inf),
        ln=_pw_ln,
        drop=_pw_drop,
        prime=_pw_prime,
        omega=_pw_omega,
    ),
    "custom": _Kind(
        fields=None,
        derive=None,
        ln=lambda fam, x: fam.custom_ln(x),
        drop=_custom_drop,
        prime=_custom_prime,
        omega=_custom_omega,
    ),
}


def _field(kind: str, name: str, value) -> float:
    """``value`` as a float, or ParamError unless it is a finite number in the row's range."""
    allowed = _KINDS[kind].fields[name]
    if value is None:
        raise ParamError(f"{kind} families need {name}")
    try:
        x = _number(value, name)
    except ParamError:  # not a number, or not one
        x = math.nan
    if not (math.isfinite(x) and allowed.admits(x)):
        raise ParamError(
            f"{kind} {name} = {value!r} is outside its range: finite and {allowed.text}{allowed.note}"
        )
    return x


def _number(value, name: str) -> float:
    """``value`` as a float, or ParamError unless it is one number
    (:func:`~phientropy.numerics.as_floats`, of no dimension)."""
    arr = as_floats(value, ParamError, name)
    if arr.ndim:
        raise ParamError(f"{name}: expected one number, got an array of shape {arr.shape}")
    return float(arr)


def _row(kind) -> _Kind:
    row = _KINDS.get(kind) if isinstance(kind, str) else None
    if row is None:
        known = tuple(name for name, r in _KINDS.items() if r.fields is not None)
        raise ParamError(f"unknown family kind {kind!r}; known kinds: {known}")
    return row


# ---------------------------------------------------------------------------
# wire format


def family_to_json(fam: LogFamily) -> dict:
    """JSON-able family spec, e.g. ``{"kind": "tsallis", "kappa": 0.5}``."""
    fields = _KINDS[fam.kind].fields
    if fields is None:
        raise FamilyError(f"{fam.kind} families have no JSON encoding (library-only)")
    return {"kind": fam.kind, **{name: getattr(fam, name) for name in fields}}


def family_from_json(spec: dict) -> LogFamily:
    """Build a family from its JSON spec; inverse of :func:`family_to_json`.

    The spec must carry exactly the fields of its kind, each a JSON number.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParamError("family spec must be an object with a 'kind' field")
    kind = spec["kind"]
    row = _row(kind)
    if row.fields is None:
        raise ParamError(f"{kind} families cannot be built from JSON (library-only)")
    given = sorted(set(spec) - {"kind"})
    if given != sorted(row.fields):
        raise ParamError(f"family kind {kind!r} takes fields {sorted(row.fields)}, got {given}")
    for name in row.fields:
        value = spec[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParamError(f"family field {name!r} must be a JSON number, got {value!r}")
    return LogFamily(kind=kind, **{name: spec[name] for name in row.fields})


def builtin_catalogue() -> list[dict]:
    """Describe the built-in families and their admissible parameters."""
    return [
        {"kind": kind, "params": {name: rng.text for name, rng in row.fields.items()}}
        for kind, row in _KINDS.items()
        if row.fields is not None
    ]
