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
    "sample_simplex",
    "sample_uniform",
    "sample_sparse",
    "sample_neighbor",
    "rng_for_seed",
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
        w = _checked(as_floats(self.weights, ParamError, "pdf weights")).copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return int(self.weights.size)

    def __len__(self) -> int:
        return self.n

    def allclose(self, other: "Pdf", tol: float = 0.0) -> bool:
        return self.n == other.n and bool(
            np.all(np.abs(self.weights - other.weights) <= tol)
        )

    def to_json(self) -> dict:
        return {"weights": self.weights.tolist()}


def _checked(w: np.ndarray) -> np.ndarray:
    """``w``, a float ndarray, after the constructor's checks of its shape and values."""
    if w.ndim != 1 or w.size < 1:
        raise ParamError("weights must be a one-dimensional, nonempty sequence")
    if not (w.min() >= 0.0 and w.max() < np.inf):
        raise DomainError("pdf weights must be finite and nonnegative")
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
    :class:`SumError` (with the actual sum).  Never renormalizes.
    """
    if not tol > 0:
        raise ParamError("validation tolerance must be positive")
    w = as_floats(weights, ParamError, "weights")
    if w.ndim != 1 or w.size < 1:
        raise ParamError("weights must be a one-dimensional, nonempty sequence")
    if not np.all(np.isfinite(w)):
        raise ParamError("weights must be finite")
    neg = np.nonzero(w < 0)[0]
    if neg.size:
        i = int(neg[0])
        raise NegativeWeight(i, float(w[i]))
    total = sum_compensated(w)
    if abs(total - 1.0) > tol:
        raise SumError(total, tol)
    return _frozen(w.copy())


def normalize(weights: Sequence[float]) -> Pdf:
    """Explicitly rescale nonnegative weights to unit sum."""
    w = as_floats(weights, ParamError, "weights")
    neg = np.nonzero(w < 0)[0]
    if neg.size:
        i = int(neg[0])
        raise NegativeWeight(i, float(w[i]))
    total = sum_compensated(w)
    if not total > 0:
        raise ParamError("cannot normalize weights with zero total mass")
    return _frozen(_checked(w) / total)


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


def rng_for_seed(seed: int) -> np.random.Generator:
    """PCG64 generator for a seed, via ``SeedSequence`` (documented contract)."""
    return np.random.default_rng(np.random.SeedSequence(seed))


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
        keep = max(1, int(rng.integers(1, n + 1)))
        zero_idx = rng.permutation(n)[keep:]
        base[zero_idx] = 0.0
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


def sample_simplex(n: int, seed: int, mode: str = "uniform", *, p: Pdf | None = None, eps: float | None = None) -> Pdf:
    """Seeded sampling front end: modes ``uniform``, ``sparse``, ``neighbor``.

    Deterministic given ``seed``.  ``neighbor`` requires the centre pdf ``p``
    and radius ``eps``.
    """
    rng = rng_for_seed(seed)
    if mode == "uniform":
        return sample_uniform(n, rng)
    if mode == "sparse":
        return sample_sparse(n, rng)
    if mode == "neighbor":
        if p is None or eps is None:
            raise ParamError("neighbor mode requires p and eps")
        return sample_neighbor(p, eps, rng)
    raise ParamError(f"unknown sampling mode {mode!r}")
