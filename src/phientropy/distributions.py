"""Finite discrete probability distributions.

A :class:`Pdf` is an immutable vector of nonnegative weights summing to one.
Its constructor refuses weights that are not numbers
(:func:`~phientropy.numerics.as_floats`), non-finite or negative;
:func:`validate` also checks the unit sum and never renormalizes:
:func:`normalize` is the opt-in.

Random generation is driven by numpy's PCG64 generator seeded through
``SeedSequence``, a named, documented, splittable 64-bit PRNG: the same seed
reproduces the same distributions on any platform, and independent child
streams can be derived per trial with ``SeedSequence(seed).spawn(n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    IdenticalPdfs,
    LengthMismatch,
    NegativeWeight,
    ParamError,
    ShrinkError,
    SumError,
)
from .numerics import as_floats, sum_compensated

__all__ = [
    "Pdf",
    "validate",
    "normalize",
    "tv_norm",
    "sym_diff",
    "pad",
    "sample_uniform",
    "sample_sparse",
    "sample_neighbor",
]

DEFAULT_VALIDATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Pdf:
    """Immutable finite discrete distribution.

    The constructor freezes the array and raises :class:`ParamError` for
    weights that are not a one-dimensional, nonempty sequence of numbers and
    :class:`DomainError` for a NaN, infinite or negative weight; it does not
    check the unit sum.  Use :func:`validate` for untrusted input.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = _checked(_read(self.weights, "pdf weights")).copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return int(self.weights.size)

    def __len__(self) -> int:
        return self.n

    def to_json(self) -> dict:
        return {"weights": self.weights.tolist()}


def _read(weights, what: str = "weights") -> np.ndarray:
    """``weights`` as a float ndarray (:func:`~phientropy.numerics.as_floats`),
    refused with :class:`ParamError` unless one-dimensional and nonempty."""
    w = as_floats(weights, ParamError, what)
    if w.ndim != 1 or w.size < 1:
        raise ParamError("weights must be a one-dimensional, nonempty sequence")
    return w


def _checked(w: np.ndarray) -> np.ndarray:
    """``w`` after the constructor's check of its values."""
    if not (w.min() >= 0.0 and w.max() < np.inf):
        raise DomainError("pdf weights must be finite and nonnegative")
    return w


def _no_negative(w: np.ndarray) -> np.ndarray:
    """``w``, or :class:`NegativeWeight` at its first negative weight."""
    neg = np.nonzero(w < 0)[0]
    if neg.size:
        i = int(neg[0])
        raise NegativeWeight(i, float(w[i]))
    return w


def _frozen(w: np.ndarray) -> Pdf:
    """A :class:`Pdf` of ``w`` without the constructor's checks and copy.

    For weights finite, nonnegative and one-dimensional by construction, in
    an array that no one writes to afterwards: it is frozen in place.
    """
    w.setflags(write=False)
    out = object.__new__(Pdf)
    object.__setattr__(out, "weights", w)
    return out


def validate(weights: Sequence[float], tol: float = DEFAULT_VALIDATION_TOL) -> Pdf:
    """Check nonnegativity and unit sum, then freeze into a :class:`Pdf`.

    Raises :class:`NegativeWeight` (with the offending index) or
    :class:`SumError` (with the actual sum, inf where it passes DBL_MAX).
    Never renormalizes.
    """
    if not tol > 0:
        raise ParamError("validation tolerance must be positive")
    w = _read(weights)
    if not np.all(np.isfinite(w)):
        raise ParamError("weights must be finite")
    _no_negative(w)
    try:
        total = sum_compensated(w)
    except OverflowError:
        total = math.inf
    if abs(total - 1.0) > tol:
        raise SumError(total, tol)
    return _frozen(w.copy())


def normalize(weights: Sequence[float]) -> Pdf:
    """Explicitly rescale nonnegative, finite weights to unit sum."""
    w = _checked(_no_negative(_read(weights)))
    try:
        total = sum_compensated(w)
    except OverflowError:  # the sum passes DBL_MAX: scaled by a power of two, the quotients are the same
        return normalize(w * 2.0**-64)
    if not total > 0:
        raise ParamError("cannot normalize weights with zero total mass")
    return _frozen(w / total)


def _check_lengths(p: Pdf, q: Pdf):
    if p.n != q.n:
        raise LengthMismatch(f"lengths differ: {p.n} vs {q.n}; pad first")


def tv_norm(p: Pdf, q: Pdf) -> float:
    """Total variation norm ``sum_k |p_k - q_k|`` (between 0 and 2)."""
    _check_lengths(p, q)
    return sum_compensated(np.abs(p.weights - q.weights))


def sym_diff(p: Pdf, q: Pdf) -> Pdf:
    """Symmetric difference: the pdf with entries ``|p_k - q_k| / ||p-q||_1``.

    Every entry is at most 1/2 because positive and negative parts of
    ``p - q`` carry equal mass.  Mixing ``p`` toward ``q`` leaves the result
    unchanged.  Raises :class:`IdenticalPdfs` when ``p == q``.
    """
    _check_lengths(p, q)
    diff = np.abs(p.weights - q.weights)
    total = sum_compensated(diff)
    if total == 0.0:
        raise IdenticalPdfs("symmetric difference of identical pdfs is undefined")
    return Pdf(diff / total)


def pad(p: Pdf, n: int) -> Pdf:
    """Extend ``p`` with zero weights to length ``n >= len(p)``.

    Padding changes no functional in this package: zero-weight entries
    contribute nothing to entropies, distances or bounds.
    """
    if n < p.n:
        raise ShrinkError(f"cannot pad length {p.n} down to {n}")
    if n == p.n:
        return p
    return Pdf(np.concatenate([p.weights, np.zeros(n - p.n)]))


def _flat_dirichlet(n: int, rng: np.random.Generator) -> np.ndarray:
    """Weights of a flat Dirichlet draw on the n-simplex; n = 1 draws nothing.

    Normalized standard exponential variates (Devroye 1986, *Non-Uniform
    Random Variate Generation*, ch. XI), summed in order and scaled by the
    reciprocal of the sum: the values, and the draws taken from ``rng``, of
    ``rng.dirichlet(np.ones(n))``, without its checks of the constant alpha.
    """
    if n < 1:
        raise ParamError("n must be at least 1")
    if n == 1:
        return np.array([1.0])
    w = rng.standard_exponential(n)
    w *= 1.0 / np.add.accumulate(w)[-1]
    return w


def sample_uniform(n: int, rng: np.random.Generator) -> Pdf:
    """Draw from the flat Dirichlet measure on the n-simplex."""
    return _frozen(_flat_dirichlet(n, rng))


def sample_sparse(n: int, rng: np.random.Generator) -> Pdf:
    """Uniform draw with a random subset of coordinates zeroed out."""
    base = _flat_dirichlet(n, rng)
    if n > 1:
        keep = int(rng.integers(1, n + 1))
        base[rng.permutation(n)[keep:]] = 0.0
        total = np.add.reduce(base)
        if total <= 0:  # all surviving mass zeroed; keep a point mass
            base[:] = 0.0
            base[int(rng.integers(0, n))] = 1.0
        else:
            base /= total
    return _frozen(base)


def sample_neighbor(p: Pdf, eps: float, rng: np.random.Generator) -> Pdf:
    """A valid pdf within total-variation distance ``eps`` of ``p``.

    Perturbs along a random zero-sum direction, scaled so the result stays
    nonnegative and ``tv_norm(p, result) <= eps`` by construction.
    """
    if not eps > 0:
        raise ParamError("eps must be positive")
    n = p.n
    if n == 1:
        return p
    # The ufuncs' reductions, which the mean, sum, any and min methods wrap
    # (the same values, at a fraction of a draw's cost).
    v = rng.standard_normal(n)
    v -= np.add.reduce(v) / n
    abs_sum = np.add.reduce(np.abs(v))
    if abs_sum == 0.0:
        return p
    lam = eps / abs_sum
    neg = v < 0
    if np.count_nonzero(neg):
        lam = min(lam, np.minimum.reduce(p.weights[neg] / -v[neg]))
    return _frozen(np.maximum(p.weights + lam * v, 0.0))

