"""Dense-matrix helpers: SVD with fixed conventions, orthogonality utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import _check_tol, _integer, _seed

__all__ = [
    "SvdResult",
    "SvdConvergenceError",
    "svd",
    "singular_values",
    "is_orthogonal",
    "random_orthogonal",
    "complete_orthonormal",
]

# entries below this magnitude are skipped when picking the sign-anchor
# component of a singular vector
_SIGN_EPS = 1e-12


class SvdConvergenceError(RuntimeError):
    """The iterative SVD backend failed to converge."""


@dataclass(frozen=True)
class SvdResult:
    """Full SVD ``m = u @ diag(singular_values) @ vt`` (rectangular diagonal).

    ``u`` is m-by-m orthogonal, ``vt`` is n-by-n with orthonormal rows and
    ``singular_values`` holds the min(m, n) values sorted descending.
    """

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        m, n = self.u.shape[0], self.vt.shape[1]
        sigma = np.zeros((m, n))
        k = self.singular_values.size
        sigma[:k, :k] = np.diag(self.singular_values)
        return self.u @ sigma @ self.vt


def _as_matrix(mat, stacked: bool = False) -> np.ndarray:
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 and not (stacked and m.ndim > 2):
        raise ValueError("matrix: expected a 2-D operand")
    if not np.isfinite(m).all():
        raise ValueError("matrix: entries must be finite")
    return m


def svd(mat) -> SvdResult:
    """Full SVD with a deterministic sign convention.

    In each left singular vector the first component of magnitude above
    1e-12 is made nonnegative (the matching row of ``vt`` flips with it),
    so repeated runs and decompositions built on top are reproducible.
    """
    m = _as_matrix(mat)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"svd did not converge: {exc}") from exc
    _anchor_signs(u, vt)
    return SvdResult(u=u, singular_values=s, vt=vt)


def _anchor_signs(u: np.ndarray, vt: np.ndarray) -> None:
    # flip in place every column of u whose first entry above _SIGN_EPS in
    # magnitude is negative, with the matching row of vt; argmax finds that
    # entry in all columns at once, and a column with none reads row 0,
    # whose magnitude is then at most _SIGN_EPS, so it never flips
    if u.size == 0:
        return
    first = np.argmax(np.abs(u) > _SIGN_EPS, axis=0)
    flip = u[first, np.arange(u.shape[1])] < -_SIGN_EPS
    signs = np.where(flip, -1.0, 1.0)
    u *= signs
    k = min(u.shape[1], vt.shape[0])
    vt[:k] *= signs[:k, None]


def singular_values(mat) -> np.ndarray:
    """Singular values only, sorted descending.

    Accepts one matrix or a stack ``(..., m, n)``, returning ``(..., min(m, n))``.
    A wide matrix (m < n) is decomposed as its transpose, which has the same
    singular values: LAPACK reduces tall input by a QR first, faster than the
    LQ-first path it takes on wide input. The values equal those of the
    untransposed call up to rounding, not bit for bit.
    """
    m = _as_matrix(mat, stacked=True)
    if m.shape[-2] < m.shape[-1]:
        m = np.swapaxes(m, -1, -2)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"svd did not converge: {exc}") from exc


def is_orthogonal(mat, tol: float = 1e-12) -> bool:
    """True when the square matrix satisfies ||m @ m.T - I||_F <= tol.

    ``tol`` must be finite and nonnegative.
    """
    _check_tol(tol)
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix: orthogonality is defined for square matrices")
    return float(np.linalg.norm(m @ m.T - np.eye(m.shape[0]))) <= tol


def _random_orthogonals(n: int, seeds) -> np.ndarray:
    # one Haar draw per seed, stacked (len(seeds), n, n): a batched QR of the
    # stacked Gaussian samples with the signs of diag(R) folded into Q
    n = _integer(n, "n: matrix size must be positive")
    q, r = np.linalg.qr(
        np.stack([np.random.default_rng(_seed(s)).standard_normal((n, n)) for s in seeds])
    )
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(d == 0.0, 1.0, np.sign(d))[:, None, :]


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Seeded rotation-invariant random orthogonal matrix.

    QR of a Gaussian sample with the sign of diag(R) folded into Q, which
    makes the draw both Haar-distributed and deterministic per seed. It is
    one slice of the batched sampler that draws many seeds with one QR, and
    equals that slice bit for bit.
    """
    return _random_orthogonals(n, [seed])[0]


def complete_orthonormal(u, tol: float = 1e-10) -> np.ndarray:
    """Extend n-by-r orthonormal columns ``u`` to a full n-by-n orthogonal matrix.

    The given columns are preserved exactly; the complement comes from a full
    Householder QR of ``u``. ``tol`` bounds the Frobenius residual of the
    columns' Gram matrix against the identity; it must be finite and
    nonnegative.
    """
    _check_tol(tol)
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] < u.shape[1]:
        raise ValueError("matrix: expected n-by-r with r <= n")
    n, r = u.shape
    gram_err = float(np.linalg.norm(u.T @ u - np.eye(r)))
    if not gram_err <= tol:  # a NaN residual fails too
        raise ValueError(
            f"matrix: columns are not orthonormal (gram residual {gram_err:.3e})"
        )
    if r == n:
        return u.copy()
    q = np.linalg.qr(u, mode="complete")[0]
    return np.hstack([u, q[:, r:]])
