"""HOSVD, per-mode spectra and Schatten-type tensor norms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import singular_values, svd
from .tensor import _integer, _mode_axis, _tensor, _unfold, matricize, multi_mode_mul

__all__ = [
    "Hosvd",
    "SchattenParams",
    "hosvd",
    "hosvd_reconstruct",
    "mode_spectrum",
    "all_mode_spectra",
    "combined_spectrum",
    "schatten_norm",
    "nuclear_norm",
    "core_orthogonality_report",
]


@dataclass(frozen=True)
class Hosvd:
    """Orthogonal Tucker decomposition with an all-orthogonal core.

    ``core`` has the shape of the input; ``factors[d]`` is the n_d-by-n_d
    orthogonal matrix of left singular vectors of the mode-(d+1) unfolding,
    sign-fixed as in :func:`~tensorspectra.linalg.svd`. For an unfolding
    wider than tall they are computed from its square R factor (see
    :func:`hosvd`), which has the same left singular vectors. Each mode-d
    unfolding of the core has mutually orthogonal rows whose norms are the
    mode-d singular values.
    """

    core: np.ndarray
    factors: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class SchattenParams:
    """Exponents and scale of the norm λ (Σ_d ||σ_d||_p^q)^(1/q).

    p, q and lam are stored as Python floats, so derived exponents are binary64.
    """

    p: float
    q: float
    lam: float = 1.0

    def __post_init__(self):
        for name in ("p", "q", "lam"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name, value in (("p", self.p), ("q", self.q)):
            if not np.isfinite(value) or value < 1.0:
                raise ValueError(f"{name}: exponent must be a finite real >= 1")
        if not np.isfinite(self.lam) or self.lam <= 0.0:
            raise ValueError("lam: scale must be a finite real > 0")

    @classmethod
    def nuclear(cls, ndim: int) -> "SchattenParams":
        """Parameters of the nuclear norm: p = q = 1, λ = 1/D."""
        ndim = _integer(ndim, "ndim: a tensor needs at least 2 modes", low=2)
        return cls(p=1.0, q=1.0, lam=1.0 / ndim)


def _left_factor(unf: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Left singular vectors of ``unf``, and its R factor when LAPACK shares it.

    A wide unfolding X (m < n columns) factors as X = R^T Q^T with
    R = qr(X^T, mode="r") square and Q orthonormal, so the m-by-m R^T has the
    same left singular pairs as X while its SVD never forms X's n-by-n V^T.
    Square and tall unfoldings are decomposed as they are. R is returned
    when X^T has at least int(11 m / 6) rows, where ``dgesdd`` reduces X^T
    by this same QR first (its crossover MNTHR), so R's singular values are
    X's bit for bit unless LAPACK rescales one of them.
    """
    m, n = unf.shape
    if n <= m:
        return svd(unf).u, None
    r = np.linalg.qr(unf.T, mode="r")
    return svd(r.T).u, (r if n >= int(11 * m / 6) else None)


def hosvd(x) -> Hosvd:
    """Higher-order SVD of a dense tensor.

    Factors are the (sign-fixed) left singular matrices of each unfolding;
    the core is the input contracted with every factor transposed, so
    ``multi_mode_mul(core, factors)`` reconstructs the input.

    Only left singular vectors are needed (De Lathauwer, De Moor and
    Vandewalle, 2000). When an unfolding X_(d) is wider than tall, its
    n_d-by-n_d R factor from a QR of X_(d)^T is decomposed instead of X_(d)
    (the R-SVD of Chan, 1982): the same factor, up to rounding, at the cost
    of the QR rather than of a full SVD whose (prod_{k != d} n_k)^2 V^T is
    discarded.

    A tensor without a spectra entry (see :func:`_spectra`) gets one here.
    Mode d's values are those of the R factor that LAPACK shares, when x's
    largest magnitude lies in [2^-257, 2^256) and LAPACK rescales nothing,
    else X_(d)'s: either way a fresh decomposition's bit for bit. A tensor
    with an entry computes none.
    """
    x = _tensor(x)
    factors, rs = zip(*(_left_factor(matricize(x, d)) for d in range(1, x.ndim + 1)))
    core = multi_mode_mul(x, [u.T for u in factors])
    # the key is made last, so it adds nothing to the peak of the reduction
    key, last = (x.shape, x.tobytes()), _last_spectra or ()
    if _kept(key, last) is None:
        in_band = abs(_max_exponent(x)) <= _BAND
        values = np.zeros((x.ndim, max(x.shape)))
        for d, r in enumerate(rs):
            vals = singular_values(r if in_band and r is not None else matricize(x, d + 1))
            values[d, : vals.size] = vals
        _keep((key, values, None), last)
    return Hosvd(core=core, factors=factors)


def hosvd_reconstruct(h: Hosvd) -> np.ndarray:
    """Multiply the core back with all factors."""
    return multi_mode_mul(h.core, h.factors)


def mode_spectrum(x, mode: int) -> np.ndarray:
    """Singular values of the mode-``mode`` unfolding, descending, padded.

    A writable copy of a row of the spectra the norms read, zero-padded to
    length n_mode so the spectra of a cubic tensor compare across modes.
    """
    x = _tensor(x)
    axis = _mode_axis(x.ndim, mode)
    return _spectra(x)[axis, : x.shape[axis]].copy()


def _stacked_spectra(stack: np.ndarray) -> np.ndarray:
    """Mode spectra of a stack ``(k, n_1, ..., n_D)`` as one ``(k, D, max n)`` array.

    Row d-1 of entry i holds ``mode_spectrum(stack[i], d)`` followed by
    zeros; zero padding leaves every l_p norm unchanged. The stack is
    unfolded one mode at a time.
    """
    dims = stack.shape[1:]
    out = np.zeros((stack.shape[0], len(dims), max(dims)))
    for d in range(1, len(dims) + 1):
        vals = singular_values(_unfold(stack, d))
        out[:, d - 1, : vals.shape[-1]] = vals
    return out


# up to two (key, spectra, norm) entries, most recent first, of the last
# tensors decomposed alone: key is (shape, bytes), and norm is None or the
# (params, N) of the last norm taken from the entry. _keep replaces the tuple
# whole by one assignment, so a reader never sees a torn entry, and a norm
# never meets another tensor's spectra
_last_spectra: tuple | None = None

# the identity band of binary scaling: a largest magnitude whose frexp
# exponent e has |e| <= _BAND lies in [2^-257, 2^256)
_BAND = 256


def _max_exponent(t: np.ndarray) -> int:
    # frexp's exponent of max|t|, 0 for a zero or empty tensor; min and max
    # read t without a copy
    low, high = float(t.min(initial=0.0)), float(t.max(initial=0.0))
    return math.frexp(max(-low, high))[1]


def _keep(entry: tuple, others: tuple) -> np.ndarray:
    # the one writer of _last_spectra: entry, its spectra read-only, first and
    # the front entry of others second; no caller passes entry's key in
    # others' front
    global _last_spectra
    entry[1].flags.writeable = False
    _last_spectra = (entry,) + others[:1]
    return entry[1]


def _scaled_spectra(key, last: tuple) -> np.ndarray | None:
    # ldexp(σ(t), k) when key's tensor is x = 2^k t, k != 0, for a kept t of
    # its shape, else None; in the band that is σ(x) bit for bit. The first
    # entries' frexp parts reject a non-multiple in O(1). Then the smaller
    # operand's largest magnitude, times 2^|k|, must stay in the band, so
    # scaling it up is exact and cannot overflow, and the scaled copy, the
    # one input-sized temporary, must equal the larger's bytes
    shape, raw = key
    for (t_shape, t_raw), spectra, _ in last:
        if t_shape != shape:
            continue
        x, t = np.frombuffer(raw), np.frombuffer(t_raw)
        mantissa, exponent = math.frexp(float(x[0]))
        t_mantissa, t_exponent = math.frexp(float(t[0]))
        k = exponent - t_exponent
        if mantissa != t_mantissa or mantissa == 0.0 or k == 0:
            continue
        small, large = (t, x) if k > 0 else (x, t)
        e = _max_exponent(small)
        if -_BAND <= e and e + abs(k) <= _BAND and np.array_equal(
            np.ldexp(small, abs(k)).view(np.int64), large.view(np.int64)
        ):
            return np.ldexp(spectra, k)
    return None


def _kept(key, last: tuple) -> np.ndarray | None:
    # the spectra of key's tensor from the entries of last, moved or stored to
    # the front, or None when neither its bytes nor a power-of-two multiple
    # are kept; a scaled entry starts without a norm
    for i, entry in enumerate(last):
        if entry[0] == key:
            return _keep(entry, last) if i else entry[1]
    spectra = _scaled_spectra(key, last)
    return None if spectra is None else _keep((key, spectra, None), last)


def _spectra(x) -> np.ndarray:
    """Read-only ``(D, max n)`` padded mode spectra of one tensor.

    Equal to ``_stacked_spectra(x[None])[0]``. The last two tensors
    decomposed here or by :func:`hosvd` are kept with their spectra, keyed
    on shape and bytes: a call on the same bits returns the stored array and
    moves its pair to the front, so consecutive requests on one tensor (its
    modes, a norm over a parameter grid, spectra then a norm, then its dual
    ratio) decompose it once, and so does a point whose candidates come
    between its requests. Bytes, not float equality, decide a hit, so -0.0
    and 0.0 differ and a tensor changed in place misses. The norm an entry
    holds (see :func:`schatten_norm`) moves with it.

    A miss on x = 2^k t, k != 0, for a kept t of the same shape reads
    ``np.ldexp`` of t's spectra, stored under x's bytes, when both largest
    magnitudes lie in [2^-257, 2^256), the band that ``vn_report``'s binary
    scaling leaves alone: there LAPACK rescales neither, and the two agree
    bit for bit. Only stacks decompose a tensor elsewhere.
    """
    x = _tensor(x)
    key, last = (x.shape, x.tobytes()), _last_spectra or ()
    spectra = _kept(key, last)
    if spectra is None:
        spectra = _keep((key, _stacked_spectra(x[None])[0], None), last)
    return spectra


def _lp(a: np.ndarray, p: float) -> np.ndarray:
    # l_p norm over the last axis of a nonnegative array, max-scaled:
    # ||s||_p = m ||s/m||_p with m = max s, so no power overflows and the
    # largest term of the sum is 1. The array is reduced in reversed axis
    # order, where numpy runs vectorized loops instead of one per short row
    cols = np.ascontiguousarray(a.T)
    if cols.shape[0] == 0:
        return np.zeros(cols.shape[1:]).T
    m = cols.max(axis=0)
    if math.isinf(p):
        return m.T
    terms = (cols / np.where(m > 0.0, m, 1.0)) ** p
    return (m * terms.sum(axis=0) ** (1.0 / p)).T


def _mixed_norm(a, p: float, q: float) -> np.ndarray:
    """(Σ_d ||a[..., d, :]||_p^q)^(1/q) over the last two axes of ``a``.

    p and q range over [1, inf]; an infinite exponent takes the maximum.
    Both levels are max-scaled, so no intermediate power overflows and the
    result is finite whenever the norm itself is representable.
    """
    for name, value in (("p", p), ("q", q)):
        if not float(value) >= 1.0:
            raise ValueError(f"{name}: exponent must be a real >= 1 or inf")
    return _lp(_lp(np.abs(np.asarray(a, dtype=float)), float(p)), float(q))


def _schatten_norms(spectra: np.ndarray, params: SchattenParams) -> np.ndarray:
    # the norm of each tensor of a stack from its stacked spectra
    return params.lam * _mixed_norm(spectra, params.p, params.q)


def _norm(spectra: np.ndarray, params: SchattenParams) -> float:
    # the norm of the tensor whose kept spectra these are: the entry's stored
    # value when it was taken at params, else computed and stored in its
    # place, the entry moving to the front; spectra no entry holds any more
    # are only computed
    last = _last_spectra or ()
    for i, (key, kept, norm) in enumerate(last):
        if kept is spectra:
            if norm is not None and norm[0] == params:
                return norm[1]
            value = float(_schatten_norms(spectra[None], params)[0])
            _keep((key, kept, (params, value)), last[:i] + last[i + 1 :])
            return value
    return float(_schatten_norms(spectra[None], params)[0])


def all_mode_spectra(x) -> list[np.ndarray]:
    """Mode spectra for every mode d = 1..D, as views of one padded array.

    The array is a writable copy of the spectra that the norms reuse (see
    :func:`schatten_norm`), so writing to it changes no later result.
    """
    x = np.asarray(x, dtype=float)
    padded = _spectra(x).copy()
    return [padded[d, :n] for d, n in enumerate(x.shape)]


def combined_spectrum(x) -> list[np.ndarray]:
    """All mode spectra scaled by 1/sqrt(D)."""
    spectra = all_mode_spectra(x)
    scale = 1.0 / np.sqrt(len(spectra))
    return [scale * s for s in spectra]


def schatten_norm(x, params: SchattenParams) -> float:
    """λ (Σ_d ||σ_d(x)||_p^q)^(1/q) over the per-mode spectra of ``x``.

    The spectra come from the one-tensor entries that :func:`mode_spectrum`,
    :func:`all_mode_spectra`, the trace inequalities and the dual ratio
    share, bit for bit those of a fresh decomposition. Each entry also holds
    one norm, the last taken from it, with its parameters: a second call on
    the same bytes at equal ``SchattenParams`` returns that float, which is
    the computed value bit for bit. Other parameters replace it, so an
    entry never holds more than one norm.
    """
    return _norm(_spectra(x), params)


def nuclear_norm(x) -> float:
    """Average of the per-mode singular value sums: (1/D) Σ_d ||σ_d(x)||_1."""
    x = _tensor(x)
    return schatten_norm(x, SchattenParams.nuclear(x.ndim))


def core_orthogonality_report(h: Hosvd) -> np.ndarray:
    """Per-mode max off-diagonal magnitude of C_(d) @ C_(d).T for the core.

    All entries are ~0 (below 1e-10 times the squared Frobenius norm) for a
    valid decomposition; injected off-diagonal mass shows up directly.
    """
    core = np.asarray(h.core, dtype=float)
    report = np.zeros(core.ndim)
    for d in range(1, core.ndim + 1):
        unf = matricize(core, d)
        gram = unf @ unf.T
        off = gram - np.diag(np.diag(gram))
        report[d - 1] = float(np.max(np.abs(off))) if off.size else 0.0
    return report
