"""Dense tensor primitives: inner products, unfoldings and mode products.

Modes are numbered 1..D throughout the public API. Data is stored row-major
(last index fastest); unfoldings use forward cyclic column ordering, see
:func:`matricize`.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial, isfinite, sqrt

import numpy as np

__all__ = [
    "as_tensor",
    "inner",
    "frobenius",
    "matricize",
    "tensorize",
    "mode_mul",
    "multi_mode_mul",
    "outer",
    "is_symmetric",
    "symmetrize",
]


def as_tensor(data, shape=None) -> np.ndarray:
    """Validate ``data`` as a dense tensor with D >= 2 modes and finite entries.

    ``data`` may be nested sequences or, together with an explicit ``shape``,
    a flat row-major sequence. Returns a C-contiguous float64 array.
    """
    arr = np.asarray(data, dtype=float)
    if shape is not None:
        dims = tuple(int(n) for n in shape)
        if any(n < 1 for n in dims):
            raise ValueError("shape: mode sizes must be positive")
        count = int(np.prod(dims))
        if arr.size != count:
            raise ValueError(
                f"data: got {arr.size} entries, shape {list(dims)} needs {count}"
            )
        arr = arr.reshape(dims)
    if arr.ndim < 2:
        raise ValueError("shape: a tensor needs at least 2 modes")
    if arr.size == 0:
        raise ValueError("shape: mode sizes must be positive")
    if not np.isfinite(arr).all():
        raise ValueError("data: entries must be finite")
    return np.ascontiguousarray(arr)


def _mode_axis(ndim: int, mode: int) -> int:
    if not 1 <= mode <= ndim:
        raise ValueError(f"mode: expected a value in 1..{ndim}, got {mode}")
    return mode - 1


def _unfold_order(ndim: int, axis: int) -> list[int]:
    # the mode axis, then the others in reverse cyclic order d-1, ..., 1, D,
    # ..., d+1, so a C-order reshape makes axis d+1 the fastest column index
    return [axis] + [(axis + k) % ndim for k in range(ndim - 1, 0, -1)]


def _unfold(stack: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfoldings of a stack ``(k, n_1, ..., n_D)`` of tensors.

    Returns the ``(k, n_mode, prod_{d != mode} n_d)`` stack whose i-th matrix
    is ``matricize(stack[i], mode)``.
    """
    axis = _mode_axis(stack.ndim - 1, mode)
    order = [0] + [a + 1 for a in _unfold_order(stack.ndim - 1, axis)]
    return np.transpose(stack, order).reshape(stack.shape[0], stack.shape[axis + 1], -1)


def inner(x, y) -> float:
    """Entrywise scalar product of two tensors of identical shape."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape: operands differ, {x.shape} vs {y.shape}")
    return float(np.dot(x.ravel(), y.ravel()))


# sums of squares below this may have lost terms to underflow
_TINY_SQUARES = np.finfo(float).tiny / np.finfo(float).eps


def frobenius(x) -> float:
    """Frobenius norm, the square root of ``inner(x, x)``, safe at any scale.

    The plain sum of squares is used whenever it is finite and far enough
    above the subnormal range that squares lost to underflow cannot matter;
    otherwise the entries are first scaled by their largest magnitude, as in
    the reference BLAS dnrm2, so huge tensors do not overflow to inf and tiny
    ones do not underflow to 0.
    """
    flat = np.asarray(x, dtype=float).ravel()
    with np.errstate(over="ignore"):
        squares = float(np.dot(flat, flat))
    if isfinite(squares) and squares >= _TINY_SQUARES:
        return sqrt(squares)
    largest = float(np.max(np.abs(flat))) if flat.size else 0.0
    if largest == 0.0 or not isfinite(largest):
        return largest
    scaled = flat / largest
    return largest * sqrt(float(np.dot(scaled, scaled)))


def matricize(x, mode: int) -> np.ndarray:
    """Unfold ``x`` along ``mode`` (1-based) with forward cyclic column order.

    Row i of the result is the i-th slice along the chosen mode; column j
    enumerates the remaining indices with the index of mode+1 varying
    fastest, then mode+2, wrapping around to mode-1. In zero-based terms,
    with the cyclic mode list (m_1, ..., m_{D-1}) = (mode+1, ..., D, 1, ...,
    mode-1):

        j = sum_t  i_{m_t} * prod_{u < t} n_{m_u}
    """
    return _unfold(np.asarray(x, dtype=float)[None], mode)[0]


def tensorize(m, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`matricize` for the given ``mode`` and target ``shape``."""
    m = np.asarray(m, dtype=float)
    dims = tuple(int(n) for n in shape)
    ndim = len(dims)
    if ndim < 2:
        raise ValueError("shape: a tensor needs at least 2 modes")
    axis = _mode_axis(ndim, mode)
    order = _unfold_order(ndim, axis)
    rows = dims[axis]
    cols = int(np.prod([dims[a] for a in order[1:]]))
    if m.ndim != 2 or m.shape != (rows, cols):
        raise ValueError(
            f"matrix: mode {mode} of shape {list(dims)} unfolds to "
            f"{rows}x{cols}, got {'x'.join(str(s) for s in m.shape)}"
        )
    folded = m.reshape([dims[a] for a in order])
    return np.ascontiguousarray(np.transpose(folded, np.argsort(order)))


def mode_mul(x, mode: int, mat) -> np.ndarray:
    """Contract mode ``mode`` of ``x`` with the columns of ``mat``.

    ``mat`` must have as many columns as the size of the chosen mode; the
    result replaces that mode size with the row count of ``mat``.
    """
    x = np.asarray(x, dtype=float)
    mat = np.asarray(mat, dtype=float)
    axis = _mode_axis(x.ndim, mode)
    if mat.ndim != 2:
        raise ValueError("matrix: expected a 2-D operand")
    if mat.shape[1] != x.shape[axis]:
        raise ValueError(
            f"matrix: needs {x.shape[axis]} columns to act on mode {mode}, "
            f"got {mat.shape[1]}"
        )
    return np.moveaxis(np.tensordot(mat, x, axes=(1, axis)), 0, axis)


def multi_mode_mul(x, factors) -> np.ndarray:
    """Apply one matrix per mode: ``x ×_1 F_1 ×_2 F_2 ... ×_D F_D``.

    The per-mode products commute, so the application order does not affect
    the result.
    """
    x = np.asarray(x, dtype=float)
    factors = list(factors)
    if len(factors) != x.ndim:
        raise ValueError(
            f"factors: expected one matrix per mode ({x.ndim}), got {len(factors)}"
        )
    out = x
    for d, mat in enumerate(factors, start=1):
        out = mode_mul(out, d, mat)
    return out


def outer(vectors) -> np.ndarray:
    """Outer product of D >= 2 vectors: entry (i_1..i_D) = prod_d v_d[i_d]."""
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if len(vecs) < 2:
        raise ValueError("vectors: need at least 2 vectors")
    for k, v in enumerate(vecs, start=1):
        if v.ndim != 1 or v.size == 0:
            raise ValueError(f"vectors: operand {k} must be a nonempty vector")
    out = vecs[0]
    for v in vecs[1:]:
        out = np.multiply.outer(out, v)
    return out


def _require_cubic(x: np.ndarray) -> None:
    if len(set(x.shape)) != 1:
        raise ValueError(f"shape: requires a cubic tensor, got {x.shape}")


def is_symmetric(x, tol: float = 1e-10) -> bool:
    """True when ``x`` is invariant under every permutation of its indices.

    Checks the D - 1 adjacent transpositions, which generate all
    permutations, each to within tol * max(1, ||x||_F) in the max norm. Any
    permutation is a product of at most C(D, 2) of them, so it moves an
    accepted ``x`` by at most C(D, 2) times that bound.
    """
    x = np.asarray(x, dtype=float)
    _require_cubic(x)
    bound = tol * max(1.0, frobenius(x))
    return all(
        np.max(np.abs(x - np.swapaxes(x, k, k + 1))) <= bound
        for k in range(x.ndim - 1)
    )


def _symmetrize_stack(stack: np.ndarray) -> np.ndarray:
    """Symmetrize each tensor of a stack ``(k, n, ..., n)`` over its indices.

    Slice i of the result is ``symmetrize(stack[i])`` bit for bit: the
    permuted copies are summed in the same order.
    """
    ndim = stack.ndim - 1
    acc = np.zeros_like(stack)
    for perm in permutations(range(1, ndim + 1)):
        acc += np.transpose(stack, (0,) + perm)
    return acc / factorial(ndim)


def symmetrize(x) -> np.ndarray:
    """Average of ``x`` over all permutations of its indices (idempotent)."""
    x = np.asarray(x, dtype=float)
    _require_cubic(x)
    return _symmetrize_stack(x[None])[0]
