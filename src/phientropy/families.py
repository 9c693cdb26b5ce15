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

The numerically load-bearing primitive is ``big_f_drop(x) = F(0) - F(x)``,
evaluated in cancellation-free form per family.  It equals
``-integral_0^x ln_phi`` and is increasing and concave on ``[0, 1]`` with
``big_f_drop(0) = 0``; entropies, metrics and ``omega`` are all assembled
from it so that small inputs keep full relative precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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

    Instances are immutable; build them with the module-level constructors
    (:func:`shannon`, :func:`tsallis`, ...), which validate parameters and
    precompute:

    - ``f_zero``: F(0), equal to ``big_f_drop(1)`` (cached so identities
      like ``omega(1) = 0`` hold exactly in floating point),
    - ``ln_at_zero`` / ``ln_sup``: the limits of ``ln_phi`` at 0+ and +inf
      (``-inf`` / ``+inf`` when divergent),
    - ``omega_at_zero``: the limit of ``omega`` at 0+, finite exactly when
      ``ln_sup`` is finite,
    - ``singularity_exponent``: s with ``|ln_phi(x)| = O(x^-s)`` near 0,
      used to grade quadrature meshes.
    """

    kind: str
    kappa: Optional[float] = None
    base: Optional[float] = None
    custom_ln: Optional[Callable[[np.ndarray], np.ndarray]] = None
    singularity_exponent: float = 0.0
    f_zero: float = 1.0
    ln_at_zero: float = -math.inf
    ln_sup: float = math.inf

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
        if self.kappa is not None:
            return f"{self.kind}(kappa={self.kappa:g})"
        if self.base is not None:
            return f"{self.kind}(base={self.base:g})"
        return self.kind


def shannon() -> LogFamily:
    """The natural logarithm: phi(y) = y, F(0) = 1."""
    return LogFamily(kind="shannon", singularity_exponent=0.0, f_zero=1.0)


def tsallis(kappa: float) -> LogFamily:
    """Power-law logarithm ``(1 + 1/kappa) * (x**kappa - 1)``.

    ``kappa`` must lie in (-1, 1) and be nonzero.  The deduced logarithm of
    this family is the q-logarithm ``(1/kappa) * (1 - x**-kappa)``.
    """
    kappa = float(kappa)
    if kappa == 0.0:
        raise ParamError(
            "kappa=0 is excluded for the tsallis family; "
            "it is the shannon limit, use kind 'shannon' instead"
        )
    if not -1.0 < kappa < 1.0:
        raise ParamError(f"tsallis kappa must lie in (-1, 1), got {kappa}")
    if kappa > 0:
        ln0, lnsup, s = -(1.0 + 1.0 / kappa), math.inf, 0.0
    else:
        ln0, lnsup, s = -math.inf, -(1.0 + 1.0 / kappa), -kappa
    return LogFamily(
        kind="tsallis",
        kappa=kappa,
        singularity_exponent=s,
        f_zero=(1.0 + 1.0 / kappa) - 1.0 / kappa,  # = g(1), analytically 1
        ln_at_zero=ln0,
        ln_sup=lnsup,
    )


def kaniadakis(kappa: float) -> LogFamily:
    """Symmetric power logarithm ``(x**kappa - x**-kappa) / (2*kappa)``.

    Concave only for ``|kappa| < 1``; kappa = 0 is the shannon limit and is
    rejected (use kind 'shannon').  F(0) = 1 / (1 - kappa**2).
    """
    kappa = float(kappa)
    if kappa == 0.0:
        raise ParamError(
            "kappa=0 is excluded for the kaniadakis family; use kind 'shannon'"
        )
    if not -1.0 < kappa < 1.0:
        raise ParamError(f"kaniadakis kappa must lie in (-1, 1), got {kappa}")
    ak = abs(kappa)
    f0 = (1.0 / (2.0 * kappa)) * (1.0 / (1.0 - kappa) - 1.0 / (1.0 + kappa))
    return LogFamily(
        kind="kaniadakis",
        kappa=kappa,
        singularity_exponent=ak,
        f_zero=f0,  # analytically 1 / (1 - kappa^2)
    )


def kappa_maxwell(kappa: float) -> LogFamily:
    """Logarithm ``kappa * (1 - x**(-1/(1+kappa)))`` of the kappa-distribution.

    Any finite ``kappa > 0`` is accepted.  ``ln_phi`` is bounded above by
    ``kappa``, so the deduced logarithm has a finite limit ``-(1 + kappa)`` at 0.
    """
    kappa = float(kappa)
    if not (kappa > 0 and math.isfinite(kappa)):
        raise ParamError(f"kappa_maxwell requires finite kappa > 0, got {kappa}")
    return LogFamily(
        kind="kappa_maxwell",
        kappa=kappa,
        singularity_exponent=1.0 / (1.0 + kappa),
        f_zero=1.0,
        ln_sup=kappa,
    )


def sqrt_log() -> LogFamily:
    """The logarithm ``-1 + sqrt(x)``; bounded at 0, F(0) = 1/3."""
    return LogFamily(
        kind="sqrt_log",
        singularity_exponent=0.0,
        f_zero=1.0 - 2.0 / 3.0,
        ln_at_zero=-1.0,
    )


def piecewise_linear(base: float) -> LogFamily:
    """Piecewise-linear logarithm interpolating ``ln_phi(base**n) = n``.

    Requires a finite ``base > 1`` so the knot values increase and the
    interpolant is concave.  F(0) = 1/2 + 1/(base - 1).
    """
    base = float(base)
    if not math.isfinite(base):
        raise ParamError(f"piecewise_linear base must be finite, got {base}")
    if not base > 1.0:
        raise ParamError(
            f"piecewise_linear base must exceed 1 (got {base}); smaller bases "
            "would make the knot values decreasing"
        )
    return LogFamily(
        kind="piecewise_linear",
        base=base,
        singularity_exponent=0.0,
        f_zero=0.5 + 1.0 / (base - 1.0),
    )


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
# evaluation helpers


_TINY = np.finfo(float).tiny


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


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


def ln_phi(fam: LogFamily, x) -> float | np.ndarray:
    """Evaluate the deformed logarithm at ``x > 0``."""
    arr, scalar = _as_array(x)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise DomainError("ln_phi requires finite x > 0")
    return _ret(ln_phi_unchecked(fam, arr), scalar)


def ln_phi_unchecked(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    """The kernel of :func:`ln_phi`: a float ndarray, known finite and > 0, in.

    Skips the domain check, so callers that validated their inputs once (the
    bound checks) do not pay for it on every call.
    """
    k = fam.kappa
    if fam.kind == "shannon":
        out = np.log(arr)
    elif fam.kind == "tsallis":
        out = (1.0 + 1.0 / k) * (arr**k - 1.0)
    elif fam.kind == "kaniadakis":
        out = (arr**k - arr**-k) / (2.0 * k)
    elif fam.kind == "kappa_maxwell":
        out = k * (1.0 - arr ** (-1.0 / (1.0 + k)))
    elif fam.kind == "sqrt_log":
        out = -1.0 + np.sqrt(arr)
    elif fam.kind == "piecewise_linear":
        a = fam.base
        m, am, u = _pw_panels(arr, a)
        out = m + u / (am * (a - 1.0))
    else:
        out = fam.custom_ln(arr)
    return out


def big_f_drop(fam: LogFamily, x) -> float | np.ndarray:
    """``F(0) - F(x)``, i.e. ``-integral_0^x ln_phi(y) dy``, for ``x >= 0``.

    Evaluated in closed form without subtracting near-equal quantities, so
    it keeps full relative accuracy for small ``x`` (where it behaves like
    ``x * (-ln_phi(x))``); this is what the entropy and metric sums are
    built from.
    """
    arr, scalar = _as_array(x)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise DomainError("big_f_drop requires finite x >= 0")
    return _ret(big_f_drop_unchecked(fam, arr), scalar)


def big_f_drop_unchecked(fam: LogFamily, arr: np.ndarray) -> np.ndarray:
    """The kernel of :func:`big_f_drop`: a float ndarray, known finite and >= 0, in.

    Skips the domain check, like :func:`ln_phi_unchecked`.
    """
    k = fam.kappa
    if fam.kind == "shannon":
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(arr > 0, arr - arr * np.log(arr), 0.0)
    elif fam.kind == "tsallis":
        out = (1.0 + 1.0 / k) * arr - (1.0 / k) * arr ** (1.0 + k)
    elif fam.kind == "kaniadakis":
        out = (arr ** (1.0 - k) / (1.0 - k) - arr ** (1.0 + k) / (1.0 + k)) / (2.0 * k)
    elif fam.kind == "kappa_maxwell":
        out = (1.0 + k) * arr ** (k / (1.0 + k)) - k * arr
    elif fam.kind == "sqrt_log":
        out = arr - (2.0 / 3.0) * arr**1.5
    elif fam.kind == "piecewise_linear":
        a = fam.base
        pos = np.where(arr > 0, arr, 1.0)
        m, am, u = _pw_panels(pos, a)
        with np.errstate(over="ignore"):
            uu, den = u * u, 2.0 * am * (a - 1.0)
        # u * u is subnormal below u ~ 1.5e-154 and inf above ~1.3e154; divide first there.
        half_uu = np.where((uu >= _TINY) & (uu < math.inf), uu / den, u * (u / den))
        val = -(am * (m - 0.5) - am / (a - 1.0) + m * u + half_uu)
        out = np.where(arr > 0, val, 0.0)
    else:
        flat = np.atleast_1d(arr)
        vals = np.empty_like(flat)
        for i, xi in enumerate(flat):
            vals[i] = _custom_drop(fam, float(xi))
        out = vals.reshape(arr.shape)
    return out


def _custom_drop(fam: LogFamily, x: float) -> float:
    if x == 0.0:
        return 0.0
    f = lambda t: float(fam.custom_ln(np.asarray([t]))[0])
    if x <= 1.0:
        return -integrate(f, 0.0, x, singular_at_a=fam.singularity_exponent)
    return fam.f_zero - integrate(f, 1.0, x)


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
    arr, scalar = _as_array(x)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise DomainError("omega_phi requires finite x > 0")
    out = arr * np.asarray(big_f_drop(fam, 1.0 / arr)) - fam.f_zero
    return _ret(out, scalar)


def ln_phi_prime(fam: LogFamily, x) -> float | np.ndarray:
    """Derivative of the deformed logarithm, ``1 / phi(x)``.

    For the piecewise-linear family the one-sided slopes differ at the knots
    ``base**n``, so evaluation there raises :class:`NonDifferentiableError`.
    """
    arr, scalar = _as_array(x)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise DomainError("ln_phi_prime requires finite x > 0")
    k = fam.kappa
    if fam.kind == "shannon":
        out = 1.0 / arr
    elif fam.kind == "tsallis":
        out = (1.0 + k) * arr ** (k - 1.0)
    elif fam.kind == "kaniadakis":
        out = 0.5 * (arr ** (k - 1.0) + arr ** (-k - 1.0))
    elif fam.kind == "kappa_maxwell":
        out = (k / (1.0 + k)) * arr ** (-(2.0 + k) / (1.0 + k))
    elif fam.kind == "sqrt_log":
        out = 0.5 / np.sqrt(arr)
    elif fam.kind == "piecewise_linear":
        a = fam.base
        m, am, u = _pw_panels(arr, a)
        if np.any(u == 0.0):
            raise NonDifferentiableError(
                "piecewise-linear logarithm has no derivative at its knots"
            )
        out = 1.0 / (am * (a - 1.0))
    else:
        flat = np.atleast_1d(arr)
        f = lambda t: float(fam.custom_ln(np.asarray([t]))[0])
        vals = np.array([richardson_diff(f, xi, 1e-6 * max(xi, 1e-3)) for xi in flat])
        out = vals.reshape(arr.shape)
    return _ret(out, scalar)


def exp_phi(fam: LogFamily, x) -> float | np.ndarray:
    """Deformed exponential: inverse of ``ln_phi`` extended to all of R.

    Returns 0 below the range of ``ln_phi`` and ``+inf`` above it, so the
    function is total.  Families without a closed inverse (piecewise_linear,
    custom) fall back to monotone bisection at 1e-12 relative tolerance.
    """
    arr, scalar = _as_array(x)
    k = fam.kappa
    with np.errstate(over="ignore", divide="ignore"):
        if fam.kind == "shannon":
            out = np.exp(arr)
        elif fam.kind == "tsallis":
            b = 1.0 + (k / (1.0 + k)) * arr
            if k > 0:
                out = np.where(b > 0, np.maximum(b, 0.0) ** (1.0 / k), 0.0)
            else:
                out = np.where(b > 0, np.maximum(b, 1e-300) ** (1.0 / k), math.inf)
        elif fam.kind == "kaniadakis":
            t = k * arr
            r = np.sqrt(1.0 + t * t)
            b = np.where(t >= 0, r + t, 1.0 / (r - t))
            out = b ** (1.0 / k)
        elif fam.kind == "kappa_maxwell":
            out = np.where(arr < k, np.maximum(1.0 - arr / k, 1e-300) ** (-(1.0 + k)), math.inf)
        elif fam.kind == "sqrt_log":
            out = np.where(arr <= -1.0, 0.0, (1.0 + arr) ** 2)
        else:
            flat = np.atleast_1d(arr)
            vals = np.array([_exp_by_bisection(fam, float(y)) for y in flat])
            out = vals.reshape(arr.shape)
    return _ret(out, scalar)


def _exp_by_bisection(fam: LogFamily, y: float) -> float:
    if math.isfinite(fam.ln_sup) and y >= fam.ln_sup:
        return math.inf
    if math.isfinite(fam.ln_at_zero) and y <= fam.ln_at_zero:
        return 0.0
    # Every point evaluated lies in [2**-63, 2**63], inside ln_phi's domain.
    f = lambda t: float(ln_phi_unchecked(fam, np.asarray(t)))
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
# wire format


# kind -> (constructor, {JSON field: admissible range}).  The wire format
# and the catalogue are derived from this table; each field is passed to the
# constructor as the keyword argument of the same name.
_BUILTINS = {
    "shannon": (shannon, {}),
    "tsallis": (tsallis, {"kappa": "(-1, 1) excluding 0"}),
    "kaniadakis": (kaniadakis, {"kappa": "(-1, 1) excluding 0"}),
    "kappa_maxwell": (kappa_maxwell, {"kappa": "> 0"}),
    "sqrt_log": (sqrt_log, {}),
    "piecewise_linear": (piecewise_linear, {"base": "> 1"}),
}


def family_to_json(fam: LogFamily) -> dict:
    """JSON-able family spec, e.g. ``{"kind": "tsallis", "kappa": 0.5}``."""
    if fam.kind not in _BUILTINS:
        raise FamilyError("custom families have no JSON encoding (library-only)")
    return {"kind": fam.kind, **{name: getattr(fam, name) for name in _BUILTINS[fam.kind][1]}}


def family_from_json(spec: dict) -> LogFamily:
    """Build a family from its JSON spec; inverse of :func:`family_to_json`.

    The spec must carry exactly the fields of its kind, each a JSON number.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParamError("family spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "custom":
        raise ParamError("custom families cannot be built from JSON (library-only)")
    if not isinstance(kind, str) or kind not in _BUILTINS:
        raise ParamError(f"unknown family kind {kind!r}; known kinds: {tuple(_BUILTINS)}")
    make, fields = _BUILTINS[kind]
    given = sorted(set(spec) - {"kind"})
    if given != sorted(fields):
        raise ParamError(f"family kind {kind!r} takes fields {sorted(fields)}, got {given}")
    params = {}
    for name in fields:
        value = spec[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParamError(f"family field {name!r} must be a JSON number, got {value!r}")
        try:
            params[name] = float(value)
        except OverflowError:
            raise ParamError(f"family field {name!r} must be finite, got {value}") from None
    return make(**params)


def builtin_catalogue() -> list[dict]:
    """Describe the built-in families and their admissible parameters."""
    return [{"kind": kind, "params": dict(fields)} for kind, (_, fields) in _BUILTINS.items()]
