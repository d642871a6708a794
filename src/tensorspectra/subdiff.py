"""Subgradients and dual certificates for Schatten-type tensor norms.

The norm treated here is N(X) = lam * (sum_d ||sigma_d(X)||_p^q)^(1/q) over
the per-mode singular-value vectors of X. At orthogonally decomposable
points the canonical subgradient has a closed form: it lives on the same
per-mode frames as X, with weights lam * D^(1/q) * v* where v* maximizes
the pairing with the weight vector over the unit sphere of the conjugate
exponent. Membership of arbitrary candidates is decided by the pairing
identity <X, Y> = N(X) and the mixed conjugate-norm bound on the
candidate's spectra; the per-mode trace-inequality gaps are reported.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .odeco import OdecoRep, to_dense
from .spectral import (
    SchattenParams,
    _max_exponent,
    _mixed_norm,
    _norm,
    _schatten_norms,
    _spectra,
    hosvd,
    schatten_norm,
)
from .tensor import _check_tol, _integer, _pair, _tensor, frobenius, inner, multi_mode_mul
from .vonneumann import _binary_scaled, _trace

__all__ = [
    "DualExponents",
    "DualMaximizer",
    "MembershipCertificate",
    "TupleSubgradient",
    "ConjugateEstimate",
    "holder_conjugate",
    "lp_norm",
    "mixed_norm",
    "dual_vector_maximizer",
    "schatten_value_tuple",
    "tuple_subgradient",
    "tuple_membership",
    "schatten_subgradient",
    "check_membership",
    "subgradient_inequality_test",
    "conjugate_value_tuple",
    "estimate_tensor_conjugate",
]

_log = logging.getLogger(__name__)


def holder_conjugate(p: float) -> float:
    """Conjugate exponent p/(p-1), with 1 mapped to infinity."""
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError("p: exponent must be a finite real >= 1")
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


@dataclass(frozen=True)
class DualExponents:
    """Hölder conjugates of a norm's exponent pair; values in (1, inf]."""

    p_star: float
    q_star: float

    @classmethod
    def of(cls, params: SchattenParams) -> "DualExponents":
        return cls(holder_conjugate(params.p), holder_conjugate(params.q))


def _public_norm(a: np.ndarray, p: float, q: float) -> float:
    # _mixed_norm max-scales, so an infinite entry makes inf / inf; the norm
    # of an array with an infinite entry and no NaN is inf
    if np.isfinite(a).all():
        return float(_mixed_norm(a, p, q))
    with np.errstate(invalid="ignore"):
        value = float(_mixed_norm(a, p, q))
    return value if np.isnan(a).any() else math.inf


def lp_norm(v, p: float) -> float:
    """l_p norm for p in [1, inf]; other p raise ValueError.

    An infinite entry gives inf, unless an entry is NaN.
    """
    return _public_norm(np.ravel(np.asarray(v, dtype=float))[None], p, 1.0)


def mixed_norm(rows, p: float, q: float) -> float:
    """(sum_d ||rows[d]||_p^q)^(1/q); the maximum over d when q is infinite.

    Rows may differ in length; they are zero-padded, which changes no l_p
    norm. p and q must lie in [1, inf]. An infinite entry gives inf, unless
    an entry is NaN.
    """
    rows = [np.ravel(np.asarray(r, dtype=float)) for r in rows]
    padded = np.zeros((len(rows), max((r.size for r in rows), default=0)))
    for d, r in enumerate(rows):
        padded[d, : r.size] = r
    return _public_norm(padded, p, q)


@dataclass(frozen=True)
class DualMaximizer:
    """Maximizer of <v, s> over the unit ball of the conjugate exponent.

    ``free_coordinates`` marks coordinates whose value may range over the
    interval [-1, 1] without changing the pairing (p = 1 at zeros of s);
    ``whole_ball`` means s = 0, where any vector of unit conjugate norm is
    admissible and ``vector`` is just the first basis vector.
    """

    vector: np.ndarray
    free_coordinates: np.ndarray
    whole_ball: bool


def dual_vector_maximizer(s, p: float) -> DualMaximizer:
    """Canonical maximizer of <v, s> subject to unit conjugate norm.

    For s != 0 and p > 1 the maximizer is unique: v_j = (s_j/||s||_p)^(p-1),
    with <v, s> = ||s||_p. For p = 1 the canonical choice is the all-ones
    vector, coordinates at s_j = 0 being free in [-1, 1].
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.ndim != 1 or s.size == 0:
        raise ValueError("s: expected a nonempty vector")
    if not np.isfinite(s).all():
        raise ValueError("s: entries must be finite")
    if np.any(s < 0):
        raise ValueError("s: entries must be nonnegative")
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError("p: exponent must be a finite real >= 1")
    return _dual_maximizer(s, p)


def _dual_maximizer(s: np.ndarray, p: float) -> DualMaximizer:
    # dual_vector_maximizer on a checked vector and exponent; its norm is
    # lp_norm's, bit for bit
    if not s.any():
        v = np.zeros(s.size)
        v[0] = 1.0
        return DualMaximizer(v, np.ones(s.size, dtype=bool), True)
    if p == 1.0:
        return DualMaximizer(np.ones(s.size), s == 0.0, False)
    v = (s / float(_mixed_norm(s[None], p, 1.0))) ** (p - 1.0)
    return DualMaximizer(v, np.zeros(s.size, dtype=bool), False)


def _tuple_array(t, name: str = "tuple") -> np.ndarray:
    # D >= 2 mode vectors of one common nonzero length as one (D, n) float
    # array; a sequence of numbers is a tuple of 1-vectors
    try:
        rows = np.asarray(t, dtype=float)
    except ValueError:  # rows of different lengths fail the check below
        rows = np.empty((2, 0))
    rows = rows[:, None] if rows.ndim == 1 else rows
    if rows.ndim < 2 or len(rows) < 2:
        raise ValueError(f"{name}: need one vector per mode (D >= 2)")
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValueError(f"{name}: vectors must share a common nonzero length")
    if not np.isfinite(rows).all():
        raise ValueError(f"{name}: entries must be finite")
    return rows


def _dual_norms(stack: np.ndarray, params: SchattenParams) -> np.ndarray:
    # the dual of the tuple norm at lam = 1, the mixed l_{p*}/l_{q*} norm,
    # over the last two axes of a stack of tuples
    duals = DualExponents.of(params)
    return _mixed_norm(stack, duals.p_star, duals.q_star)


def schatten_value_tuple(t, params: SchattenParams) -> float:
    """The tuple norm lam * (sum_d ||s_d||_p^q)^(1/q) on raw spectra tuples."""
    return float(_schatten_norms(_tuple_array(t), params))


@dataclass(frozen=True)
class TupleSubgradient:
    """Canonical subgradient of the tuple norm plus its admissible freedom.

    ``canonical`` stacks the rows lam * w_d * v_d. Rows where ``mode_free``
    holds (zero input row) may be replaced by any vector of conjugate norm
    at most lam * weights[d]; coordinates where ``coordinate_free`` holds
    (p = 1 at zeros) may move inside [-lam * weights[d], lam * weights[d]].
    ``whole_ball`` means the input tuple was zero and the subgradient set is
    the entire dual-norm ball of radius lam (canonical element 0).
    """

    canonical: np.ndarray
    weights: np.ndarray
    mode_free: np.ndarray
    coordinate_free: np.ndarray
    whole_ball: bool


def tuple_subgradient(t, params: SchattenParams) -> TupleSubgradient:
    """Canonical element of the tuple-norm subdifferential at t >= 0.

    Built from the nested dual maximizers: v_d for each row at exponent p,
    then w for the vector of row norms at exponent q.
    """
    rows = _tuple_array(t)
    if np.any(rows < 0):
        raise ValueError("tuple: entries must be nonnegative")
    ndim, n = rows.shape
    if not rows.any():
        return TupleSubgradient(
            canonical=np.zeros((ndim, n)),
            weights=np.zeros(ndim),
            mode_free=np.ones(ndim, dtype=bool),
            coordinate_free=np.ones((ndim, n), dtype=bool),
            whole_ball=True,
        )
    maximizers = [_dual_maximizer(r, params.p) for r in rows]
    omega = np.array([lp_norm(r, params.p) for r in rows])
    # the row norms may overflow, which the public checks reject
    w = dual_vector_maximizer(omega, params.q)
    canonical = params.lam * w.vector[:, None] * np.vstack([m.vector for m in maximizers])
    return TupleSubgradient(
        canonical=canonical,
        weights=w.vector,
        mode_free=np.array([m.whole_ball for m in maximizers]),
        coordinate_free=np.vstack([m.free_coordinates for m in maximizers]),
        whole_ball=False,
    )


def tuple_membership(t, g, params: SchattenParams, tol: float = 1e-9) -> bool:
    """Exact subdifferential test at the tuple level.

    g belongs to the subdifferential of the tuple norm at t iff the pairing
    <g, t> equals the norm value and the mixed conjugate norm of g is at
    most lam. The pairing is compared to within tol * sum |g| * t, the size
    of its terms, with no absolute floor, so scaling t changes no verdict;
    at t = 0 the dual bound alone decides. ``tol`` must be finite and
    nonnegative.
    """
    _check_tol(tol)
    t = _tuple_array(t, "t")
    g = _tuple_array(g, "g")
    if g.shape != t.shape:
        raise ValueError("g: must match the shape of t")
    if np.any(t < 0):
        raise ValueError("t: entries must be nonnegative")
    in_dual_ball = bool(_dual_norms(g, params) <= params.lam * (1.0 + tol))
    if not t.any():
        return in_dual_ball
    value = float(_schatten_norms(t, params))
    pairing = float(np.sum(g * t))
    terms = float(np.sum(np.abs(g) * t))
    return abs(pairing - value) <= tol * terms and in_dual_ball


def schatten_subgradient(rep: OdecoRep, params: SchattenParams) -> np.ndarray:
    """Canonical norm subgradient at an odeco point, on the point's frames.

    The subgradient is the odeco tensor with the same per-mode columns and
    weights tau = lam * D^(1/q) * v*, where v* is the dual maximizer of the
    padded weight vector at exponent p. For p = 1 the zero-padded
    coordinates receive tau = 0 (minimal-support canonical choice), matching
    the classical rank-restricted subgradient in the matrix case. Satisfies
    <G, X> = N(X) with the mixed conjugate norm of sigma(G) exactly at the
    dual bound. ``rep`` is taken as :func:`~tensorspectra.odeco.make_odeco`
    returns it, its weights already checked.
    """
    if not isinstance(rep, OdecoRep):
        raise ValueError("rep: expected an odeco representation")
    ndim = len(rep.shape)
    nmin = min(rep.shape)
    padded = np.concatenate([rep.alphas, np.zeros(nmin - rep.rank)])
    vstar = _dual_maximizer(padded, params.p).vector
    if params.p == 1.0:
        vstar = np.where(padded > 0, vstar, 0.0)
    tau = params.lam * ndim ** (1.0 / params.q) * vstar
    return to_dense(OdecoRep(rep.shape, tau[: rep.rank], rep.factors))


def _spectral_dual_ratio(x: np.ndarray, params: SchattenParams) -> float:
    """The dual tuple norm of x's mode spectra over lam * D.

    It bounds the dual norm of x from above, with equality at odeco points,
    so x lies in the dual unit ball of the norm when it is at most 1. The
    spectra are the one-tensor entries behind the norms.
    """
    return _dual_ratio(_spectra(x), params)


def _dual_ratio(spectra: np.ndarray, params: SchattenParams) -> float:
    # _spectral_dual_ratio from a tensor's (D, max n) spectra
    return float(_dual_norms(spectra, params)) / (params.lam * len(spectra))


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of the subgradient membership test.

    ``accepted`` is ``notes["pairing"] and notes["dual_bound"]``;
    ``vn_gaps`` and ``notes["vn_equality"]`` report the trace inequalities
    and decide nothing. ``notes["conservative_rejection_possible"]`` means
    the pairing holds and the dual bound fails: only a failed pairing makes
    a rejection final.
    """

    vn_gaps: np.ndarray
    pairing_residual: float
    dual_norm_value: float
    accepted: bool
    notes: dict[str, bool]


def check_membership(
    x, y, params: SchattenParams, tol: float = 1e-8
) -> MembershipCertificate:
    """Certify ``y`` as a subgradient of the norm at ``x``.

    Two conditions decide: the pairing <x, y> = N(x) up to
    tol * ||x|| ||y||, and the dual bound, the mixed conjugate norm of y's
    spectra at most lam * D * (1 + tol). ``accepted`` is their conjunction.
    Only the pairing is necessary, and both together are sufficient, since
    the spectral ratio bounds y's dual norm from above: an acceptance is a
    proof, and a rejection whose pairing holds is not final. The per-mode
    trace-inequality gaps are reported and decide nothing: with both
    conditions, Hölder bounds each by D * tol * (2 + tol) * ||x|| ||y||.
    The pairing tolerance has no floor and is compared on frexp parts, so
    it neither overflows nor underflows: scaling x changes no verdict, and
    y = 0 fails at every x != 0. ``tol`` must be finite and nonnegative.
    N(x), y's dual ratio and the pairing tolerance reuse the spectra
    entries and Frobenius norms the trace inequalities read: 2 lookups, and
    a cold call decomposes x once and y once. An operand whose largest
    magnitude lies outside [2^-257, 2^256) is traced as a binary-scaled
    copy, so its own entry and norm are read apart. The memo keeps two
    tensors and one norm each (see :func:`~tensorspectra.spectral.schatten_norm`),
    so a sweep of one point's candidates decomposes the point once and
    computes N(x) once per ``params``. A candidate 2^k g after g (or g
    after it) reads the kept spectra scaled, in the band where that is
    exact, so g, 2g and N(g) decompose g once.
    """
    x, y = _pair(x, y)
    _tensor(x)
    _check_tol(tol)
    report, (sx, fx, a), (sy, fy, b) = _trace(x, y, tol)
    norm_x = _norm(sx, params) if a == 0 else schatten_norm(x, params)
    dual_value = _dual_ratio(sy, params) if b == 0 else _spectral_dual_ratio(y, params)
    residual = abs(report.inner - norm_x)
    if a:
        fx = frobenius(x)
    if b:
        fy = frobenius(y)
    (mx, ex), (my, ey) = math.frexp(fx), math.frexp(fy)
    # residual <= tol ||x|| ||y|| on frexp parts; a scaled overflow fails
    with np.errstate(over="ignore", under="ignore"):
        pairing_ok = bool(np.ldexp(residual, -(ex + ey)) <= tol * mx * my)
    dual_ok = dual_value <= 1.0 + tol
    accepted = pairing_ok and dual_ok
    return MembershipCertificate(
        vn_gaps=report.per_mode_gap,
        pairing_residual=residual,
        dual_norm_value=dual_value,
        accepted=accepted,
        notes={
            "vn_equality": report.equality,
            "pairing": pairing_ok,
            "dual_bound": dual_ok,
            "conservative_rejection_possible": not accepted and pairing_ok,
        },
    )


_SPECIAL_SCALES = np.array([0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0])
# the slack of y = c x is (|c| - 1) N(x) - (c - 1) <g, x>, and that of
# y = c g is |c| N(g) - c <g, g> - N(x) + <g, x>; their constant coefficients
_X_NORM, _X_PAIRING = np.abs(_SPECIAL_SCALES) - 1.0, _SPECIAL_SCALES - 1.0
_G_NORM, _G_PAIRING = np.abs(_SPECIAL_SCALES[1:]), _SPECIAL_SCALES[1:]
_MEMBERS = [(c, "x") for c in _SPECIAL_SCALES.tolist()] + [
    (c, "g") for c in _SPECIAL_SCALES[1:].tolist()
]


def _in_range_copy(t: np.ndarray, params: SchattenParams):
    # (y, <t, y>, N(y)) at y = t, or at t's binary-scaled copy, max|y| in
    # [1/2, 1), when <t, t> leaves the normal range or N(t) overflows; a
    # positively homogeneous objective keeps its sign on the copy
    with np.errstate(over="ignore"):
        tt, norm = inner(t, t), schatten_norm(t, params)
    if np.finfo(float).tiny <= tt < math.inf and norm < math.inf:
        return t, tt, norm
    y = _binary_scaled(t)[0]
    return y, inner(t, y), schatten_norm(y, params)


def subgradient_inequality_test(
    x, g, params: SchattenParams, trials: int = 10_000, seed: int = 0
) -> float:
    """Minimum of N(y) - N(x) - <g, y - x> over the rays through x and g.

    The 13 members are y = c x for c in 0, 1, -1, 1/2, -1/2, 2, -2, then
    y = c g for the six nonzero c. N(c t) = |c| N(t), so each slack is a
    closed form in N(x), N(g), <g, x> and <g, g>: the x ray tests the
    pairing <g, x> = N(x), and the g ray falls below 0 when <g, g> > N(g),
    where g is its own witness outside the dual unit ball. When <g, g>
    leaves the normal range or N(g) overflows, the g ray passes through
    g's binary-scaled copy, as the estimator's y = x does. When N(x) or
    <g, x> overflows, the x ray's slacks are those at x's copy scaled by a
    power of two to a largest magnitude in [1/2, 1), scaled back exactly:
    an overflow of N(x) gives an infinite slack, not NaN. ``trials``, an
    integer >= 1, caps the family at its first ``trials`` members; ``seed``
    is accepted and changes nothing, since nothing is drawn. The minimum is
    nonnegative up to roundoff when g is a subgradient of the norm at x,
    and a negative value proves that g is not one. Each call logs one DEBUG
    record naming the member at the minimum.
    """
    x, g = _pair(x, g)
    _integer(trials, f"trials: need at least one sample, as an integer; got {trials!r}")
    _tensor(x)
    if not np.isfinite(g).all():
        raise ValueError("g: entries must be finite")

    with np.errstate(over="ignore"):
        norm_x = schatten_norm(x, params)
    gx = inner(g, x)
    _, gh, norm_h = _in_range_copy(g, params)
    on_g = _G_NORM * norm_h - _G_PAIRING * gh
    if math.isfinite(norm_x) and math.isfinite(gx):
        on_x = _X_NORM * norm_x - _X_PAIRING * gx
        on_g = on_g - norm_x + gx
    else:
        # the x ray is 2^e times its slacks at x 2^-e, exactly; its first,
        # y = 0's <g, x> - N(x), is the g ray's offset
        e = _max_exponent(x)
        t = np.ldexp(x, -e)
        with np.errstate(over="ignore"):
            norm_t = schatten_norm(t, params)
            on_x = np.ldexp(_X_NORM * norm_t - _X_PAIRING * inner(g, t), e)
        on_g = on_g + on_x[0]
    slacks = np.concatenate([on_x, on_g])[:trials]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("subgradient test: minimum at y = %g %s", *_MEMBERS[np.argmin(slacks)])
    return float(np.min(slacks))


def conjugate_value_tuple(g, params: SchattenParams) -> float:
    """Fenchel conjugate of the tuple norm: 0 inside the dual ball, inf outside."""
    if _dual_norms(_tuple_array(g, "g"), params) <= params.lam:
        return 0.0
    return math.inf


@dataclass(frozen=True)
class ConjugateEstimate:
    """Best value of <x, y> - N(y) found, with its maximizer.

    ``evaluations`` counts the candidates y whose objective was computed:
    y = 0, the aligned certificate and y = x, each only when it runs, so at
    most 3. It is 1 when the spectral dual ratio of x is at most 1, which
    proves y = 0 optimal. That ratio is ``spectral_dual_ratio``.
    ``inside_dual_ball`` is True when it is at most 1, False when a positive
    value (a certificate) proves x outside the dual ball, and None
    otherwise: off odeco points the ratio is an upper bound.
    """

    best_value: float
    maximizer: np.ndarray
    evaluations: int
    spectral_dual_ratio: float

    @property
    def inside_dual_ball(self) -> bool | None:
        if self.spectral_dual_ratio <= 1.0:
            return True
        if self.best_value > 0.0:
            return False
        return None


def estimate_tensor_conjugate(
    x,
    params: SchattenParams,
    budget: int = 100_000,
    seed: int = 0,
    target: float | None = None,
) -> ConjugateEstimate:
    """Lower estimate of sup_y <x, y> - N(y) from at most three closed forms.

    The supremum is 0 (attained at y = 0) exactly when x lies in the dual
    unit ball of the norm, and +inf otherwise. Dual ratio: let ratio be the
    mixed l_{p*}/l_{q*} norm of x's mode spectra over lam D, the ratio that
    ``check_membership`` and ``conjugate-check`` report. The trace
    inequality in each mode and Hölder give <x, y> - N(y) <= N(y) (ratio -
    1) for every y, so when ratio <= 1 the estimate is exactly 0 after y = 0
    alone, with no HOSVD. Off odeco points the ratio only bounds the dual
    norm from above, so ratio > 1 decides nothing and two candidates
    follow, each only while fewer than ``budget`` evaluations were made.
    Closed-form aligned certificate: for y = diag(beta) x_1 U_1 ... x_D U_D
    on the HOSVD factors U_d of x, N(y) = lam D^(1/q) ||beta||_p and
    <x, y> = <diag, beta>, with diag the diagonal of the HOSVD core of x.
    Over unit beta the objective's supremum is ||diag||_{p*} - lam D^(1/q)
    (Hölder), attained at beta*, the signed dual maximizer of |diag| at p*,
    evaluated once. Then, if no value is positive yet, y = x: <x, x> / N(x)
    bounds the dual norm from below, so <x, x> - N(x) > 0 proves x outside
    the ball. N(x) reuses the spectra the ratio decomposed. The objective is
    positively homogeneous, so any positive value proves the supremum
    infinite. ``budget`` must be an integer >= 1; ``seed`` and ``target``
    are accepted and change nothing.
    """
    x = np.asarray(x, dtype=float)
    _integer(budget, f"budget: need at least one evaluation, as an integer; got {budget!r}")
    dims = x.shape

    best = 0.0
    best_y = np.zeros(dims)
    evals = 1  # y = 0

    # <x, y> - N(y) <= N(y) (ratio - 1) for every y, so y = 0 is optimal
    ratio = _spectral_dual_ratio(x, params)
    if ratio <= 1.0:
        return ConjugateEstimate(best, best_y, evals, ratio)

    frame = hosvd(x)
    diag_idx = tuple(np.arange(min(dims)) for _ in dims)
    diag = frame.core[diag_idx]
    if diag.any() and evals < budget:
        # the pairing-extremal unit-l_p direction: at p = 1 (p* = inf) a
        # basis vector at the largest |diag|
        if params.p == 1.0:
            beta = np.zeros(diag.size)
            beta[int(np.argmax(np.abs(diag)))] = 1.0
        else:
            beta = dual_vector_maximizer(np.abs(diag), holder_conjugate(params.p)).vector
        beta *= np.where(diag >= 0, 1.0, -1.0)
        bound = params.lam * x.ndim ** (1.0 / params.q)
        value = float(np.dot(diag, beta) - bound * lp_norm(beta, params.p))
        evals += 1
        if value > best:
            best = value
            core = np.zeros(dims)
            core[diag_idx] = beta
            best_y = multi_mode_mul(core, frame.factors)

    # y = x, or its in-range copy: <x, x> / N(x) bounds the dual norm from below
    if best <= 0.0 and evals < budget:
        y, xy, norm_y = _in_range_copy(x, params)
        value = xy - norm_y
        evals += 1
        if value > best:
            best = value
            best_y = y.copy()

    return ConjugateEstimate(float(best), best_y, evals, ratio)
