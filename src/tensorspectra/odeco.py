"""Orthogonally decomposable tensors: validated representations and generators.

An orthogonally decomposable (odeco) tensor is a weighted sum of outer
products sum_i alpha_i u_i^(1) x ... x u_i^(D) with strictly positive,
descending weights and per-mode orthonormal column families.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import _check_orthonormal, complete_orthonormal, random_orthogonal
from .spectral import Hosvd
from .tensor import _dims, _integer, _seed

__all__ = [
    "OdecoRep",
    "make_odeco",
    "to_dense",
    "odeco_hosvd",
    "random_odeco",
    "random_symmetric_odeco",
]

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class OdecoRep:
    """Weights plus per-mode orthonormal columns of an odeco tensor.

    ``alphas`` is strictly positive and sorted descending; ``factors[d]`` is
    n_d-by-r with orthonormal columns, r <= min_d n_d.
    """

    shape: tuple[int, ...]
    alphas: np.ndarray
    factors: tuple[np.ndarray, ...]

    @property
    def rank(self) -> int:
        return int(self.alphas.size)


def make_odeco(alphas, factors, shape=None) -> OdecoRep:
    """Validate and normalize an odeco representation.

    Weights are re-sorted descending (columns permuted along), zero weights
    are dropped with the rank reduced accordingly. Negative weights,
    non-orthonormal columns and ranks above the smallest mode size are
    rejected with field-named errors.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("alphas: expected a nonempty vector of weights")
    if not np.isfinite(alphas).all():
        raise ValueError("alphas: weights must be finite")
    if np.any(alphas < 0):
        raise ValueError("alphas: weights must be positive")

    mats = [np.asarray(f, dtype=float) for f in factors]
    if len(mats) < 2:
        raise ValueError("factors: need at least 2 modes")
    r = alphas.size
    dims = []
    for d, f in enumerate(mats, start=1):
        if f.ndim != 2 or f.shape[1] != r:
            raise ValueError(
                f"factors: mode {d} must be a matrix with {r} columns"
            )
        dims.append(f.shape[0])
    dims = tuple(dims)
    if shape is not None and _dims(shape) != dims:
        raise ValueError(
            f"shape: {list(shape)} does not match factor sizes {list(dims)}"
        )
    if r > min(dims):
        raise ValueError(
            f"rank: {r} exceeds the smallest mode size {min(dims)}"
        )
    for d, f in enumerate(mats, start=1):
        _check_orthonormal(f, f"factors: mode {d}", _ORTHO_TOL)

    order = np.argsort(-alphas, kind="stable")
    alphas = alphas[order]
    mats = [f[:, order] for f in mats]
    keep = alphas > 0
    if not keep.any():
        raise ValueError("alphas: at least one positive weight required")
    alphas = alphas[keep]
    mats = [np.ascontiguousarray(f[:, keep]) for f in mats]
    return OdecoRep(shape=dims, alphas=alphas, factors=tuple(mats))


@functools.lru_cache(maxsize=None)
def _dense_subscripts(ndim: int) -> str:
    # "z,az,bz->ab" at D = 2: the weights, then one factor per mode
    letters = [chr(ord("a") + d) for d in range(ndim)]
    return ",".join(["z"] + [f"{c}z" for c in letters]) + "->" + "".join(letters)


def to_dense(rep: OdecoRep) -> np.ndarray:
    """Materialize sum_i alpha_i u_i^(1) x ... x u_i^(D) as a dense array."""
    return np.einsum(_dense_subscripts(len(rep.shape)), rep.alphas, *rep.factors)


def odeco_hosvd(rep: OdecoRep) -> Hosvd:
    """HOSVD of an odeco tensor built directly from its representation.

    The core is the diagonal tensor of the weights (zero-padded) and each
    factor is the per-mode column family completed to a full orthogonal
    matrix, so the reconstruction matches :func:`to_dense`.
    """
    core = np.zeros(rep.shape)
    idx = np.arange(rep.rank)
    core[tuple(idx for _ in rep.shape)] = rep.alphas
    factors = tuple(complete_orthonormal(f) for f in rep.factors)
    return Hosvd(core=core, factors=factors)


def random_odeco(shape, r: int, seed: int) -> OdecoRep:
    """Seeded random odeco representation.

    Weights are sorted absolute Gaussians offset by 0.1; factor columns are
    the first ``r`` columns of independent seeded random orthogonal matrices.
    """
    dims = _dims(shape)
    if len(dims) < 2:
        raise ValueError("shape: a tensor needs at least 2 modes")
    r = _integer(r, f"rank: expected 1 <= r <= {min(dims)}, got {r}", high=min(dims))
    rng = np.random.default_rng(_seed(seed))
    alphas = np.sort(np.abs(rng.standard_normal(r)))[::-1] + 0.1
    subs = [int(rng.integers(0, 2**63 - 1)) for _ in dims]
    factors = [random_orthogonal(n, s)[:, :r] for n, s in zip(dims, subs)]
    return make_odeco(alphas, factors, dims)


def random_symmetric_odeco(n: int, ndim: int, r: int, seed: int) -> OdecoRep:
    """Random odeco representation sharing one factor across all modes.

    The shared factor makes the dense tensor symmetric.
    """
    ndim = _integer(ndim, "ndim: a tensor needs at least 2 modes", low=2)
    r = _integer(r, f"rank: expected 1 <= r <= {n}, got {r}", high=n)
    rng = np.random.default_rng(_seed(seed))
    alphas = np.sort(np.abs(rng.standard_normal(r)))[::-1] + 0.1
    shared = random_orthogonal(n, int(rng.integers(0, 2**63 - 1)))[:, :r]
    return make_odeco(alphas, [shared] * ndim, (n,) * ndim)
