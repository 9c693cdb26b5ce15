"""Generalized Fisher information metrics over parametric pdf models.

Two second-order expansions give two metrics.  Expanding the relative
entropy ``I(p + dp | p)`` yields

    g1_ij = ln_phi'(1) * sum_k p_k d(log p_k)/dtheta_i d(log p_k)/dtheta_j,

the classical Fisher matrix times a family-dependent prefactor (the family
enters only through ``ln_phi'(1)``).  Expanding the Bregman divergence
``D(p + dp | p)`` yields

    g2_ij = sum_k ln_phi'(p_k) dp_k/dtheta_i dp_k/dtheta_j,

which depends on the deformed logarithm in a genuinely nontrivial way.  The
two coincide for the natural logarithm.  :func:`expansion_check` verifies
both quadratic expansions on a ladder of shrinking parameter steps.

Models are black boxes mapping a parameter vector to a :class:`Pdf`;
derivatives are taken by Richardson-extrapolated central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import Pdf
from .errors import NonDifferentiableError, ParamError, StepTooLarge, ZeroProbability
from .families import LogFamily, ln_phi_prime
from .functionals import divergence, rel_entropy
from .numerics import as_floats, richardson_diff

__all__ = [
    "ParametricModel",
    "bernoulli_model",
    "softmax_model",
    "binomial_mixture_model",
    "binomial_mixture_components",
    "model_jacobian",
    "fisher_g1",
    "fisher_g2",
    "ExpansionReport",
    "expansion_check",
]


@dataclass(frozen=True)
class ParametricModel:
    """Differentiable map from parameters to a finite distribution.

    ``eval(theta)`` must return a valid :class:`Pdf` of length ``dim_p`` for
    every ``theta`` in the model's open domain.  ``fd_step`` is the base
    finite-difference step used for parameter derivatives.
    """

    dim_theta: int
    dim_p: int
    eval: Callable[[np.ndarray], Pdf]
    fd_step: float = 1e-5
    name: str = "model"

    def __post_init__(self):
        if self.dim_theta < 1 or self.dim_p < 1:
            raise ParamError("dim_theta and dim_p must be at least 1")
        if not self.fd_step > 0:
            raise ParamError("fd_step must be positive")


def bernoulli_model() -> ParametricModel:
    """p(theta) = (theta, 1 - theta); classical Fisher 1/(theta(1-theta))."""

    def ev(theta: np.ndarray) -> Pdf:
        t = float(theta[0])
        if not 0.0 < t < 1.0:
            raise StepTooLarge(f"bernoulli parameter left (0, 1): {t}")
        return Pdf(np.array([t, 1.0 - t]))

    return ParametricModel(dim_theta=1, dim_p=2, eval=ev, name="bernoulli")


def softmax_model(n: int) -> ParametricModel:
    """Categorical distribution with n-1 free logits (last logit pinned to 0).

    Classical Fisher over the free logits is diag(pi) - pi pi^T.
    """
    if n < 2:
        raise ParamError("softmax model needs at least 2 states")

    def ev(theta: np.ndarray) -> Pdf:
        logits = np.concatenate([np.asarray(theta, dtype=float), [0.0]])
        logits -= logits.max()
        w = np.exp(logits)
        return Pdf(w / w.sum())

    return ParametricModel(dim_theta=n - 1, dim_p=n, eval=ev, name=f"softmax{n}")


def binomial_mixture_components(m: int = 6) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three fixed binomial rows B(m, 1/4), B(m, 1/2), B(m, 3/4)."""
    ks = np.arange(m + 1)
    return tuple(np.array([math.comb(m, int(k)) * t**k * (1.0 - t) ** (m - k) for k in ks]) for t in (0.25, 0.5, 0.75))


def binomial_mixture_model(m: int = 6) -> ParametricModel:
    """Two-parameter mixture of three fixed binomial rows over m+1 states.

    p(w1, w2) = w1 B(m, 1/4) + w2 B(m, 1/2) + (1 - w1 - w2) B(m, 3/4).
    Linear in the parameters, so the classical Fisher matrix has the exact
    closed form G_ij = sum_k (b_i - b_3)_k (b_j - b_3)_k / p_k.
    """
    comps = binomial_mixture_components(m)

    def ev(theta: np.ndarray) -> Pdf:
        w1, w2 = float(theta[0]), float(theta[1])
        w3 = 1.0 - w1 - w2
        if min(w1, w2, w3) <= 0.0:
            raise StepTooLarge(f"mixture weights left the open simplex: {(w1, w2, w3)}")
        return Pdf(w1 * comps[0] + w2 * comps[1] + w3 * comps[2])

    return ParametricModel(dim_theta=2, dim_p=m + 1, eval=ev, name=f"binmix{m}")


def _theta(model: ParametricModel, theta: Sequence[float]) -> np.ndarray:
    """``theta`` as a float array, or ParamError unless it is numbers, one per model parameter."""
    th = as_floats(theta, ParamError, "theta")
    if th.shape != (model.dim_theta,):
        raise ParamError(f"theta must have shape ({model.dim_theta},)")
    return th


def model_jacobian(model: ParametricModel, theta: Sequence[float]) -> np.ndarray:
    """Matrix of partials dp_k / dtheta_i, shape (dim_p, dim_theta).

    Richardson-extrapolated central differences with the model's fd_step.
    Verifies mass conservation: each column must sum to 0 within 1e-8.
    """
    th = _theta(model, theta)
    jac = np.empty((model.dim_p, model.dim_theta))
    for i in range(model.dim_theta):
        e = np.zeros_like(th)
        e[i] = 1.0
        jac[:, i] = richardson_diff(lambda t: model.eval(th + t * e).weights, 0.0, model.fd_step)
    leak = np.abs(jac.sum(axis=0)).max()
    if leak > 1e-8:
        raise ParamError(
            f"model {model.name!r} leaks probability mass under differentiation "
            f"(column sum {leak:.3e})"
        )
    return jac


def _positive_weights(model: ParametricModel, theta) -> np.ndarray:
    w = model.eval(_theta(model, theta)).weights
    if np.any(w <= 0.0):
        raise ZeroProbability(
            f"model {model.name!r} has zero probability at theta={theta}"
        )
    return w


def fisher_g1(fam: LogFamily, model: ParametricModel, theta: Sequence[float]) -> np.ndarray:
    """Prefactor form: ``ln_phi'(1)`` times the classical Fisher matrix.

    Raises :class:`NonDifferentiableError` where ``ln_phi`` has no two-sided
    derivative at 1 (the piecewise-linear family).
    """
    w = _positive_weights(model, theta)
    pref = float(np.asarray(ln_phi_prime(fam, 1.0)))
    jac = model_jacobian(model, theta)
    scaled = jac / np.sqrt(w)[:, None]
    g = pref * (scaled.T @ scaled)
    return 0.5 * (g + g.T)


def fisher_g2(fam: LogFamily, model: ParametricModel, theta: Sequence[float]) -> np.ndarray:
    """Divergence form: ``sum_k ln_phi'(p_k) dp_k dp_k``; family-sensitive."""
    w = _positive_weights(model, theta)
    lp = np.asarray(ln_phi_prime(fam, w))
    jac = model_jacobian(model, theta)
    scaled = jac * np.sqrt(lp)[:, None]
    g = scaled.T @ scaled
    return 0.5 * (g + g.T)


@dataclass(frozen=True)
class ExpansionReport:
    """Quadratic-expansion residuals over a ladder of shrinking steps.

    ``r1`` collects ``|2 I(p+dp|p) - dtheta^T g1 dtheta|`` per rung, ``r2``
    the same with the divergence and g2, ``sym`` the asymmetry
    ``|I(p+dp|p) - I(p|p+dp)|``.  ``order1``/``order2`` are least-squares
    slopes of log-residual against log-step: both expansions are exact to
    second order, so the slopes come out >= ~3 (super-quadratic decay).
    """

    steps: tuple[float, ...]
    r1: tuple[float, ...]
    r2: tuple[float, ...]
    sym: tuple[float, ...]
    order1: float
    order2: float


def _fit_order(steps, residuals) -> float:
    steps = np.asarray(steps)
    if np.any(steps <= 0.0):
        return math.nan
    s = np.log(steps)
    r = np.log(np.maximum(np.asarray(residuals), 1e-300))
    slope = np.polyfit(s, r, 1)[0]
    return float(slope)


def expansion_check(
    fam: LogFamily,
    model: ParametricModel,
    theta: Sequence[float],
    dtheta: Sequence[float],
    rungs: int = 3,
) -> ExpansionReport:
    """Validate both Fisher metrics against their defining expansions.

    Evaluates the functionals at ``theta + dtheta / 2**j`` for ``j`` in
    ``0..rungs-1`` and compares twice the functional with the quadratic form
    of the corresponding metric.  Raises :class:`StepTooLarge` if the model
    leaves its domain at the base displacement.
    """
    if rungs < 2:
        raise ParamError("need at least two rungs to estimate an order")
    th = _theta(model, theta)
    dth = as_floats(dtheta, ParamError, "dtheta")
    if dth.shape != th.shape:
        raise ParamError("dtheta must match theta's shape")
    try:
        g1 = fisher_g1(fam, model, th)
    except NonDifferentiableError:  # ln_phi has no derivative at 1
        g1 = None
    g2 = fisher_g2(fam, model, th)
    base = Pdf(_positive_weights(model, th))

    steps, r1s, r2s, syms = [], [], [], []
    for j in range(rungs):
        step = dth / 2.0**j
        size = float(np.linalg.norm(step))
        moved = Pdf(_positive_weights(model, th + step))
        quad1 = float(step @ g1 @ step) if g1 is not None else math.nan
        quad2 = float(step @ g2 @ step)
        i_fwd = rel_entropy(fam, moved, base, method="omega")
        i_bwd = rel_entropy(fam, base, moved, method="omega")
        d_fwd = divergence(fam, moved, base, method="generic")
        steps.append(size)
        r1s.append(abs(2.0 * i_fwd - quad1))
        r2s.append(abs(2.0 * d_fwd - quad2))
        syms.append(abs(i_fwd - i_bwd))
    return ExpansionReport(
        steps=tuple(steps),
        r1=tuple(r1s),
        r2=tuple(r2s),
        sym=tuple(syms),
        order1=_fit_order(steps, r1s) if g1 is not None else math.nan,
        order2=_fit_order(steps, r2s),
    )
