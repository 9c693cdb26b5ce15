"""Deformed-logarithm families and their derived functions.

A deformed logarithm ``ln_phi`` is a strictly increasing concave function on
``(0, inf)`` with ``ln_phi(1) = 0``, mild enough at the origin that its
antiderivative

    F(x) = integral_1^x ln_phi(y) dy

is finite at ``x = 0``.  From ``F`` two companions are derived: the deformed
exponential ``exp_phi`` (the inverse of ``ln_phi``, clamped to 0 / +inf
outside its range) and the deduced logarithm

    omega(x) = (x - 1) * F(0) - x * F(1/x),

through which the entropy functionals of :mod:`phientropy.functionals` are
built.

Six built-in families ship with closed forms; user-supplied logarithms are
handled through quadrature with a declared endpoint-singularity exponent.
All evaluation functions accept scalars or ndarrays and are pure, so family
values can be shared freely across threads.

Each kind is one row of the kind table ``_KINDS`` at the end of this module:
its JSON fields with their admissible ranges, ``derive`` (the singularity
exponent, F(0) and the limits of ln_phi at 0+ and +inf, from the
parameters), and its kernels ``ln``, ``drop`` (F(0) - F(x)), ``prime`` and,
where ln_phi has a closed inverse, ``exp``.  The public functions check
their argument's domain and call the row's kernel; ``LogFamily``'s
construction, the wire format, the catalogue and the labels read the same
row.  To add a kind, write its row and a one-line constructor
``return LogFamily(kind=..., <param>=<param>)``; ``fields=None`` keeps a
kind out of the wire format.

The numerically load-bearing primitive is ``big_f_drop(x) = F(0) - F(x)``,
evaluated in cancellation-free form per family.  It equals
``-integral_0^x ln_phi`` and is increasing and concave on ``[0, 1]`` with
``big_f_drop(0) = 0``; entropies, metrics and ``omega`` are all assembled
from it so that small inputs keep full relative precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError, FamilyError, NonDifferentiableError, ParamError
from .numerics import bisect_monotone, integrate, richardson_diff

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
      used to grade quadrature meshes.

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
    with ``|ln(x)| = O(x**-s)`` near 0 so that quadrature meshes can be
    graded; F(0) is then computed by quadrature.  Optional finite limits at
    0+ (``ln_at_zero < 0``) and +inf (``ln_sup > 0``) refine support handling
    in the entropy functionals; ``-inf`` / ``+inf`` mean divergent.
    """
    if not 0.0 <= singularity_exponent < 1.0:
        raise ParamError("singularity exponent must lie in [0, 1)")
    # An increasing ln with ln(1) = 0 has ln(0+) < 0 < ln(+inf); NaN fails both.
    if ln_at_zero is not None and not float(ln_at_zero) < 0.0:
        raise ParamError(f"ln_at_zero must be negative or -inf, got {ln_at_zero}")
    if ln_sup is not None and not float(ln_sup) > 0.0:
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
    f0 = -integrate(
        lambda t: float(fn(np.asarray([t]))[0]),
        0.0,
        1.0,
        singular_at_a=singularity_exponent,
    )
    return LogFamily(
        kind="custom",
        custom_ln=fn,
        singularity_exponent=singularity_exponent,
        f_zero=f0,
        ln_at_zero=-math.inf if ln_at_zero is None else float(ln_at_zero),
        ln_sup=math.inf if ln_sup is None else float(ln_sup),
    )


# ---------------------------------------------------------------------------
# evaluation


_TINY = np.finfo(float).tiny


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


def _in_domain(x, name: str, allow_zero: bool = False):
    """``x`` as a float ndarray and whether it was a scalar.

    Raises :class:`DomainError` unless every value is finite and > 0
    (>= 0 with ``allow_zero``).
    """
    arr, scalar = _as_array(x)
    if np.any(arr < 0 if allow_zero else arr <= 0) or not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} requires finite x {'>=' if allow_zero else '>'} 0")
    return arr, scalar


# Where a kernel overflows or underflows the result is inf or 0; the public
# functions evaluate under this errstate so numpy prints no warning there.
_QUIET = {"over": "ignore", "divide": "ignore"}


def ln_phi(fam: LogFamily, x) -> float | np.ndarray:
    """Evaluate the deformed logarithm at ``x > 0``."""
    arr, scalar = _in_domain(x, "ln_phi")
    with np.errstate(**_QUIET):
        return _ret(ln_phi_unchecked(fam, arr), scalar)


def ln_phi_unchecked(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    """The kernel of :func:`ln_phi`: a float ndarray, known finite and > 0, in.

    Skips the domain check, so callers that validated their inputs once (the
    bound checks) do not pay for it on every call.
    """
    return _KINDS[fam.kind].ln(fam, arr)


def big_f_drop(fam: LogFamily, x) -> float | np.ndarray:
    """``F(0) - F(x)``, i.e. ``-integral_0^x ln_phi(y) dy``, for ``x >= 0``.

    Evaluated in closed form without subtracting near-equal quantities, so
    it keeps full relative accuracy for small ``x`` (where it behaves like
    ``x * (-ln_phi(x))``); this is what the entropy and metric sums are
    built from.
    """
    arr, scalar = _in_domain(x, "big_f_drop", allow_zero=True)
    with np.errstate(**_QUIET):
        return _ret(big_f_drop_unchecked(fam, arr), scalar)


def big_f_drop_unchecked(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    """The kernel of :func:`big_f_drop`: a float ndarray, known finite and >= 0, in.

    Skips the domain check, like :func:`ln_phi_unchecked`.
    """
    return _KINDS[fam.kind].drop(fam, arr)


def big_f(fam: LogFamily, x) -> float | np.ndarray:
    """Antiderivative ``F(x) = integral_1^x ln_phi``; convex, ``F(1) = 0``."""
    arr, scalar = _as_array(x)
    return _ret(fam.f_zero - np.asarray(big_f_drop(fam, arr)), scalar)


def omega_phi(fam: LogFamily, x) -> float | np.ndarray:
    """Deduced logarithm ``omega(x) = (x - 1) F(0) - x F(1/x)`` for ``x > 0``.

    Computed as ``x * big_f_drop(1/x) - f_zero`` - the same expression with
    the two F(0) terms combined - which stays accurate for large ``x`` and
    makes ``omega(1) = 0`` exact.
    """
    arr, scalar = _in_domain(x, "omega_phi")
    out = arr * np.asarray(big_f_drop(fam, 1.0 / arr)) - fam.f_zero
    return _ret(out, scalar)


def ln_phi_prime(fam: LogFamily, x) -> float | np.ndarray:
    """Derivative of the deformed logarithm, ``1 / phi(x)``.

    For the piecewise-linear family the one-sided slopes differ at the knots
    ``base**n`` (1 among them), so evaluation there raises
    :class:`NonDifferentiableError`.
    """
    arr, scalar = _in_domain(x, "ln_phi_prime")
    with np.errstate(**_QUIET):
        return _ret(_KINDS[fam.kind].prime(fam, arr), scalar)


def exp_phi(fam: LogFamily, x) -> float | np.ndarray:
    """Deformed exponential: inverse of ``ln_phi`` extended to all of R.

    Returns 0 below the range of ``ln_phi`` and ``+inf`` above it, so the
    function is total.  Families without a closed inverse (piecewise_linear,
    custom) fall back to monotone bisection at 1e-12 relative tolerance.
    """
    arr, scalar = _as_array(x)
    with np.errstate(**_QUIET):
        out = _KINDS[fam.kind].exp(fam, arr)
    return _ret(out, scalar)


def kappa_maxwell_density(
    fam: LogFamily, amplitude: float, beta: float, v, v0: float
) -> float | np.ndarray:
    """Velocity density ``A * [1 + beta v^2 / (2 kappa v0^2)]**(-1-kappa)``.

    Equals ``A * exp_phi(-(1/2) beta v^2 / v0^2)`` for the kappa_maxwell
    family; even in ``v``.
    """
    if fam.kind != "kappa_maxwell":
        raise FamilyError("density defined for the kappa_maxwell family only")
    if not (amplitude > 0 and beta > 0 and v0 > 0):
        raise ParamError("amplitude, beta and v0 must be positive")
    arr, scalar = _as_array(v)
    k = fam.kappa
    out = amplitude * (1.0 + beta * arr * arr / (2.0 * k * v0 * v0)) ** (-1.0 - k)
    return _ret(out, scalar)


# ---------------------------------------------------------------------------
# kernels that do not fit on one line of the kind table; each takes the
# family and a float ndarray already in its function's domain


def _per_point(fn: Callable[[float], float], arr: np.ndarray) -> np.ndarray:
    """``fn`` applied to each element of ``arr``, in an array of its shape."""
    return np.array([fn(float(v)) for v in np.atleast_1d(arr)]).reshape(arr.shape)


def _shannon_drop(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(arr > 0, arr - arr * np.log(arr), 0.0)


def _tsallis_derive(fam: LogFamily) -> tuple:
    k = fam.kappa
    f0 = (1.0 + 1.0 / k) - 1.0 / k  # = g(1), analytically 1
    if k > 0:
        return 0.0, f0, -(1.0 + 1.0 / k), math.inf
    return -k, f0, -math.inf, -(1.0 + 1.0 / k)


def _tsallis_exp(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    k = fam.kappa
    b = 1.0 + (k / (1.0 + k)) * arr
    if k > 0:
        return np.where(b > 0, np.maximum(b, 0.0) ** (1.0 / k), 0.0)
    return np.where(b > 0, np.maximum(b, 1e-300) ** (1.0 / k), math.inf)


def _kaniadakis_exp(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    t = fam.kappa * arr
    r = np.sqrt(1.0 + t * t)
    b = np.where(t >= 0, r + t, 1.0 / (r - t))
    return b ** (1.0 / fam.kappa)


def _pw_panels(x: np.ndarray, base: float):
    """Panel index m, knot base**m and offset u = x - base**m for each x > 0.

    Guards against floor(log(x)/log(base)) misrounding at the knots.
    """
    m = np.floor(np.log(x) / math.log(base))
    am = np.power(base, m)
    low = x < am
    if np.any(low):
        m = np.where(low, m - 1, m)
        am = np.power(base, m)
    high = x >= am * base
    if np.any(high):
        m = np.where(high, m + 1, m)
        am = np.power(base, m)
    return m, am, x - am


def _pw_ln(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    m, am, u = _pw_panels(arr, fam.base)
    return m + u / (am * (fam.base - 1.0))


def _pw_drop(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    a = fam.base
    m, am, u = _pw_panels(np.where(arr > 0, arr, 1.0), a)
    # u * u is subnormal below u ~ 1.5e-154 and inf above ~1.3e154; divide
    # first there.  The branch np.where drops may be inf / inf.
    with np.errstate(over="ignore", invalid="ignore"):
        uu, den = u * u, 2.0 * am * (a - 1.0)
        half_uu = np.where((uu >= _TINY) & (uu < math.inf), uu / den, u * (u / den))
    val = -(am * (m - 0.5) - am / (a - 1.0) + m * u + half_uu)
    return np.where(arr > 0, val, 0.0)


def _pw_prime(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    m, am, u = _pw_panels(arr, fam.base)
    if np.any(u == 0.0):
        raise NonDifferentiableError("piecewise-linear logarithm has no derivative at its knots")
    return 1.0 / (am * (fam.base - 1.0))


def _custom_drop(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    f = lambda t: float(fam.custom_ln(np.asarray([t]))[0])

    def drop(x: float) -> float:
        if x == 0.0:
            return 0.0
        if x <= 1.0:
            return -integrate(f, 0.0, x, singular_at_a=fam.singularity_exponent)
        return fam.f_zero - integrate(f, 1.0, x)

    return _per_point(drop, arr)


def _custom_prime(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    f = lambda t: float(fam.custom_ln(np.asarray([t]))[0])
    return _per_point(lambda x: richardson_diff(f, x, 1e-6 * max(x, 1e-3)), arr)


def _exp_by_bisection(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    # Every point evaluated lies in [2**-63, 2**63], inside ln_phi's domain.
    f = lambda t: ln_phi_unchecked(fam, np.asarray(t, dtype=float))

    def inverse(y: float) -> float:
        if math.isfinite(fam.ln_sup) and y >= fam.ln_sup:
            return math.inf
        if math.isfinite(fam.ln_at_zero) and y <= fam.ln_at_zero:
            return 0.0
        lo, hi = 1.0, 1.0
        for _ in range(64):
            if f(lo) <= y:
                break
            lo *= 0.5
        else:
            return 0.0
        for _ in range(64):
            if f(hi) >= y:
                break
            hi *= 2.0
        else:
            return math.inf
        return bisect_monotone(f, y, lo, hi, tol=1e-13, x_rel_tol=1e-12)

    return _per_point(inverse, arr)


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
    and the inverse of ln_phi (by bisection unless the row gives a closed form).
    """

    fields: Optional[dict[str, _Range]]
    derive: Optional[Callable[["LogFamily"], tuple]]
    ln: Kernel
    drop: Kernel
    prime: Kernel
    exp: Kernel = _exp_by_bisection


_KINDS = {
    "shannon": _Kind(
        fields={},
        derive=lambda fam: (0.0, 1.0, -math.inf, math.inf),
        ln=lambda fam, x: np.log(x),
        drop=_shannon_drop,
        prime=lambda fam, x: 1.0 / x,
        exp=lambda fam, x: np.exp(x),
    ),
    "tsallis": _Kind(
        fields={"kappa": _KAPPA_POWER},
        derive=_tsallis_derive,
        ln=lambda fam, x: (1.0 + 1.0 / fam.kappa) * (x**fam.kappa - 1.0),
        drop=lambda fam, x: (1.0 + 1.0 / fam.kappa) * x - (1.0 / fam.kappa) * x ** (1.0 + fam.kappa),
        prime=lambda fam, x: (1.0 + fam.kappa) * x ** (fam.kappa - 1.0),
        exp=_tsallis_exp,
    ),
    "kaniadakis": _Kind(
        fields={"kappa": _KAPPA_POWER},
        derive=lambda fam: (  # F(0) is analytically 1 / (1 - kappa^2)
            abs(fam.kappa), (1.0 / (2.0 * fam.kappa)) * (1.0 / (1.0 - fam.kappa) - 1.0 / (1.0 + fam.kappa)),
            -math.inf, math.inf,
        ),
        ln=lambda fam, x: (x**fam.kappa - x**-fam.kappa) / (2.0 * fam.kappa),
        drop=lambda fam, x: (
            x ** (1.0 - fam.kappa) / (1.0 - fam.kappa) - x ** (1.0 + fam.kappa) / (1.0 + fam.kappa)
        ) / (2.0 * fam.kappa),
        prime=lambda fam, x: 0.5 * (x ** (fam.kappa - 1.0) + x ** (-fam.kappa - 1.0)),
        exp=_kaniadakis_exp,
    ),
    "kappa_maxwell": _Kind(
        fields={"kappa": _Range("> 0", lambda v: v > 0.0)},
        derive=lambda fam: (1.0 / (1.0 + fam.kappa), 1.0, -math.inf, fam.kappa),
        ln=lambda fam, x: fam.kappa * (1.0 - x ** (-1.0 / (1.0 + fam.kappa))),
        drop=lambda fam, x: (1.0 + fam.kappa) * x ** (fam.kappa / (1.0 + fam.kappa)) - fam.kappa * x,
        prime=lambda fam, x: (fam.kappa / (1.0 + fam.kappa)) * x ** (-(2.0 + fam.kappa) / (1.0 + fam.kappa)),
        exp=lambda fam, x: np.where(
            x < fam.kappa, np.maximum(1.0 - x / fam.kappa, 1e-300) ** (-(1.0 + fam.kappa)), math.inf
        ),
    ),
    "sqrt_log": _Kind(
        fields={},
        derive=lambda fam: (0.0, 1.0 - 2.0 / 3.0, -1.0, math.inf),
        ln=lambda fam, x: -1.0 + np.sqrt(x),
        drop=lambda fam, x: x - (2.0 / 3.0) * x**1.5,
        prime=lambda fam, x: 0.5 / np.sqrt(x),
        exp=lambda fam, x: np.where(x <= -1.0, 0.0, (1.0 + x) ** 2),
    ),
    "piecewise_linear": _Kind(
        fields={"base": _Range("> 1", lambda v: v > 1.0, "; smaller bases make the knot values decreasing")},
        derive=lambda fam: (0.0, 0.5 + 1.0 / (fam.base - 1.0), -math.inf, math.inf),
        ln=_pw_ln,
        drop=_pw_drop,
        prime=_pw_prime,
    ),
    "custom": _Kind(
        fields=None,
        derive=None,
        ln=lambda fam, x: fam.custom_ln(x),
        drop=_custom_drop,
        prime=_custom_prime,
    ),
}


def _field(kind: str, name: str, value) -> float:
    """``value`` as a float, or ParamError unless it is a finite number in the row's range."""
    allowed = _KINDS[kind].fields[name]
    if value is None:
        raise ParamError(f"{kind} families need {name}")
    try:
        # A bool is no number here; float() also rejects strings it cannot parse.
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (math.isfinite(x) and allowed.admits(x)):
        raise ParamError(
            f"{kind} {name} = {value!r} is outside its range: finite and {allowed.text}{allowed.note}"
        )
    return x


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
