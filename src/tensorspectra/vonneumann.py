"""Trace-inequality diagnostics for tensor pairs.

For tensors X, Y of common shape the inner product is bounded by the pairing
of sorted per-mode singular values, <X, Y> <= <sigma_d(X), sigma_d(Y)> for
every mode d. Equality in all modes carries both tensors on one shared
orthogonal frame per mode with aligned, blockwise-proportional cores; this
module computes the per-mode gaps and checks that block structure for
candidate frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import is_orthogonal
from .spectral import _BAND, _max_exponent, _spectra
from .tensor import _check_tol, _pair, _tensor, frobenius, inner, multi_mode_mul

__all__ = [
    "VnReport",
    "BlockPartition",
    "EqualityStructure",
    "vn_report",
    "find_block_partition",
    "verify_equality_structure",
    "check_equality_via_structure",
]


@dataclass(frozen=True)
class VnReport:
    """Per-mode spectral bounds on an inner product and their gaps."""

    inner: float
    per_mode_bound: np.ndarray
    per_mode_gap: np.ndarray
    equality: bool


@dataclass(frozen=True)
class BlockPartition:
    """Aligned per-mode index partitions.

    ``blocks[b][d]`` holds the sorted 1-based mode-(d+1) indices of block b.
    For every mode the sets are disjoint and cover 1..n_d.
    """

    blocks: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class EqualityStructure:
    """Equality structure of a pair in candidate shared frames.

    ``partition`` is the finest common block partition of the two rotated
    cores and ``constants`` the per-block proportionality coefficients of
    :func:`verify_equality_structure`. ``verified`` means proportional blocks
    and the spectral equality of :func:`vn_report`; the blocks alone do not
    imply the equality.
    """

    verified: bool
    partition: BlockPartition
    constants: np.ndarray


def _binary_scaled(t: np.ndarray) -> tuple[np.ndarray, int]:
    # (t * 2^-e, e) with e from frexp(max|t|), so the largest magnitude of
    # the copy lies in [1/2, 1); a zero tensor keeps e = 0. The band |e| <=
    # 256 returns t itself: 2^-257 <= max|t| < 2^256 keeps the products and
    # squared norms of two operands of n entries below n 2^512 and their
    # tolerance scale ||x|| ||y|| >= 2^-514 far above the subnormals
    e = _max_exponent(t)
    if abs(e) <= _BAND:
        return t, 0
    return np.ldexp(t, -e), e


def vn_report(x, y, tol: float = 1e-10) -> VnReport:
    """Inner product of a pair against its per-mode spectral bounds.

    The pair is decomposed as x' = 2^-a x and y' = 2^-b y, each read once
    from the spectra entries the norms read; bound d pairs the first n_d
    values of row d of each. An operand whose largest magnitude lies in
    [2^-257, 2^256) keeps exponent 0; otherwise its exponent is ``frexp``'s
    of that magnitude, so the bounds and the inner product stay within
    binary64 at either end of its range.
    ``equality`` is true when every gap of (x', y') is at most
    tol * ||x'|| ||y'||. The test is relative, with no absolute floor: the
    verdict does not depend on the scale of x or of y (up to rounding;
    exactly for powers of two), and a zero operand gives equality exactly.
    The inner product, bounds and gaps are reported at the scale of (x, y),
    as those of (x', y') times 2^(a+b), exactly: a value changes only when
    it leaves the range of binary64 (then it is infinite). ``tol`` must be
    finite and nonnegative.
    """
    _check_tol(tol)
    x, y = _pair(x, y)
    _tensor(x)
    return _trace(x, y, tol)[0]


def _trace(x: np.ndarray, y: np.ndarray, tol: float) -> tuple:
    # vn_report of a checked pair, then (spectra, Frobenius norm, exponent)
    # of each operand's scaled copy, which are x's and y's own when the
    # exponent is 0: a caller reads neither operand again in the band
    (x, a), (y, b) = _binary_scaled(x), _binary_scaled(y)
    sx, sy = _spectra(x), _spectra(y)
    fx, fy = frobenius(x), frobenius(y)
    value = inner(x, y)
    bounds = np.array(
        [float(np.dot(sx[d, :n], sy[d, :n])) for d, n in enumerate(x.shape)]
    )
    gaps = bounds - value
    with np.errstate(over="ignore"):
        report = VnReport(
            inner=float(np.ldexp(value, a + b)),
            per_mode_bound=np.ldexp(bounds, a + b),
            per_mode_gap=np.ldexp(gaps, a + b),
            equality=bool(np.max(gaps) <= tol * (fx * fy)),
        )
    return report, (sx, fx, a), (sy, fy, b)


def _finite_cores(cx, cy) -> tuple[np.ndarray, np.ndarray]:
    # a non-finite entry makes its core's threshold NaN or inf, below which
    # no entry lies, so the core would read as zero
    cx, cy = _pair(cx, cy)
    for name, core in (("cx", cx), ("cy", cy)):
        if not np.isfinite(core).all():
            raise ValueError(f"{name}: entries must be finite")
    return cx, cy


def find_block_partition(cx, cy, tol: float = 1e-10) -> BlockPartition:
    """Finest common block partition of two aligned core tensors.

    Every entry of either input above tol times that input's Frobenius norm
    links its mode-1 index to each of its other indices; connected
    components become blocks, ordered by their smallest mode-1 index.
    Indices touching no above-threshold entry are gathered into one shared
    residual block (zero block for both inputs). Both inputs must be
    finite, and ``tol`` finite and nonnegative.
    """
    _check_tol(tol)
    cx, cy = _finite_cores(cx, cy)
    dims = cx.shape

    mask = (np.abs(cx) > tol * frobenius(cx)) | (np.abs(cy) > tol * frobenius(cy))
    # links[d - 1][i, k]: some entry has mode-1 index i and mode-(d+1) index k.
    # A boolean product with ones is that "any" over the other modes; numpy's
    # own reduction is slow when the last mode is short.
    links = []
    for d in range(1, len(dims)):
        rest = np.moveaxis(mask, d, 1).reshape(dims[0], dims[d], -1)
        links.append(rest @ np.ones(rest.shape[2], dtype=bool))

    # label each mode-1 index with the smallest mode-1 index of its component:
    # min-propagation through the links plus pointer jumping, until stable
    n1 = dims[0]
    root = np.arange(n1)
    while True:
        new = root
        for link in links:
            shared = np.where(link, new[:, None], n1).min(axis=0)
            new = np.minimum(new, np.where(link, shared, n1).min(axis=1))
        new = new[new]
        if np.array_equal(new, root):
            break
        root = new
    # a mode-d index takes the label of its linked mode-1 indices; untouched
    # indices take n1, the label of the residual block
    labels = [np.where(links[0].any(axis=1) if links else mask, root, n1)]
    labels += [np.where(link, root[:, None], n1).min(axis=0) for link in links]

    heads = np.flatnonzero(labels[0] == np.arange(n1)).tolist() + [n1]
    block_of = {head: b for b, head in enumerate(heads)}
    blocks = [[[] for _ in dims] for _ in heads]
    for d, per_index in enumerate(labels):
        for i, head in enumerate(per_index.tolist()):
            blocks[block_of[head]][d].append(i + 1)
    if not any(blocks[-1]):
        blocks.pop()
    return BlockPartition(
        blocks=tuple(tuple(tuple(ids) for ids in per_mode) for per_mode in blocks)
    )


def _check_partition(partition: BlockPartition, dims: tuple[int, ...]) -> None:
    ndim = len(dims)
    if partition.n_blocks < 1:
        raise ValueError("partition: needs at least one block")
    for per_mode in partition.blocks:
        if len(per_mode) != ndim:
            raise ValueError("partition: blocks must list one index set per mode")
    for d in range(ndim):
        seen: list[int] = []
        for per_mode in partition.blocks:
            seen.extend(per_mode[d])
        if sorted(seen) != list(range(1, dims[d] + 1)):
            raise ValueError(
                f"partition: mode {d + 1} sets must partition 1..{dims[d]}"
            )


def verify_equality_structure(
    cx, cy, partition: BlockPartition, tol: float = 1e-10
) -> tuple[bool, np.ndarray]:
    """Check aligned supports and per-block proportionality of two cores.

    Returns ``(ok, constants)``. Both inputs must vanish outside the aligned
    blocks (off-block mass at most tol relative to each input's norm), and on
    each block the cores must be nonnegatively proportional. ``constants[b]``
    is the least-squares coefficient with cy_b ~= c * cx_b; when the cx block
    is zero the roles swap (NaN marks a zero cx block paired with a nonzero
    cy block). A core whose largest magnitude lies outside [2^-257, 2^256)
    is tested as a copy scaled by a power of two to [1/2, 1). Tolerances are
    relative, with no absolute floor, so the verdict does not depend on the
    scale of either core and no square overflows; each constant is scaled
    back exactly. Both cores must be finite, and ``tol`` finite and
    nonnegative.
    """
    _check_tol(tol)
    cx, cy = _finite_cores(cx, cy)
    _check_partition(partition, cx.shape)

    (cx, ex), (cy, ey) = _binary_scaled(cx), _binary_scaled(cy)
    norm_x = frobenius(cx)
    norm_y = frobenius(cy)
    inside = np.zeros(cx.shape, dtype=bool)
    constants = np.zeros(partition.n_blocks)
    ok = True
    for b, per_mode in enumerate(partition.blocks):
        idx = tuple(np.asarray(ids, dtype=int) - 1 for ids in per_mode)
        if any(axis.size == 0 for axis in idx):
            continue
        grid = np.ix_(*idx)
        inside[grid] = True
        a = cx[grid].ravel()
        c = cy[grid].ravel()
        na, nc = frobenius(a), frobenius(c)
        if na > tol * norm_x:
            coeff = float(np.dot(a, c) / np.dot(a, a))
            residual = frobenius(c - coeff * a)
            ok = ok and residual <= tol * norm_y and coeff >= -tol
            with np.errstate(over="ignore"):
                constants[b] = np.ldexp(coeff, ey - ex)
        elif nc > tol * norm_y:
            # cx vanishes on the block: 0 = 0 * cy holds, no finite x-based ratio
            constants[b] = np.nan
    ok = bool(
        ok
        and frobenius(cx[~inside]) <= tol * norm_x
        and frobenius(cy[~inside]) <= tol * norm_y
    )
    return ok, constants


def _equality_structure(x, y, shared_factors, tol: float, report) -> EqualityStructure:
    # one rotation, partition and proportionality pass; verified also needs
    # the equality of the caller's vn_report(x, y, tol), which the blocks
    # alone do not imply
    x, y = _pair(x, y)
    frames = [np.asarray(w, dtype=float) for w in shared_factors]
    if len(frames) != x.ndim:
        raise ValueError(
            f"frames: expected one matrix per mode ({x.ndim}), got {len(frames)}"
        )
    for d, w in enumerate(frames, start=1):
        if not is_orthogonal(w, tol=1e-8):
            raise ValueError(f"frames: mode {d} candidate frame is not orthogonal")

    transposed = [w.T for w in frames]
    cx = multi_mode_mul(x, transposed)
    cy = multi_mode_mul(y, transposed)
    partition = find_block_partition(cx, cy, tol)
    ok, constants = verify_equality_structure(cx, cy, partition, tol)
    return EqualityStructure(ok and report.equality, partition, constants)


def check_equality_via_structure(x, y, shared_factors, tol: float = 1e-10) -> bool:
    """Test the equality structure of a pair against candidate shared frames.

    Both tensors are rotated into the candidate frames, the finest common
    block partition is extracted and the proportionality conditions are
    verified. The answer is true when the blocks are proportional and
    :func:`vn_report` shows the equality; it never raises on a valid pair.
    """
    return _equality_structure(x, y, shared_factors, tol, vn_report(x, y, tol)).verified
