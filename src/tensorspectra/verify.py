"""Seeded property suites behind the ``verify`` command and acceptance tests.

Every suite is deterministic in its seed and returns pass/fail counts with
messages for the first few failures. Stated tolerances are fixed here, not
configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import complete_orthonormal, is_orthogonal, random_orthogonal, svd
from .odeco import make_odeco, random_odeco, random_symmetric_odeco, to_dense
from .spectral import (
    SchattenParams,
    _stacked_spectra,
    all_mode_spectra,
    core_orthogonality_report,
    hosvd,
    hosvd_reconstruct,
    mode_spectrum,
    nuclear_norm,
    schatten_norm,
)
from .subdiff import (
    _spectral_dual_ratio,
    check_membership,
    dual_vector_maximizer,
    estimate_tensor_conjugate,
    holder_conjugate,
    lp_norm,
    schatten_subgradient,
    subgradient_inequality_test,
)
from .tensor import _seed, frobenius, matricize, multi_mode_mul, symmetrize, tensorize
from .vonneumann import _equality_structure, vn_report

__all__ = ["SuiteResult", "SUITES", "run_all", "grid_best_pairing"]


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "failures": list(self.failures),
        }


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _param_grid(ndim: int) -> list[SchattenParams]:
    return [
        SchattenParams(1.0, 1.0, 1.0 / ndim),
        SchattenParams(2.0, 2.0, 1.0),
        SchattenParams(3.0, 2.0, 1.0),
        SchattenParams(2.0, 1.0, 1.0),
        SchattenParams(1.0, 2.0, 1.0 / ndim),
    ]


def suite_adjointness(seed: int) -> SuiteResult:
    """Unfold/fold adjointness and exact round-trips, 100 cases per order."""
    result = SuiteResult("adjointness")
    rng = _rng(seed, 1)
    for ndim in (2, 3, 4):
        for _ in range(100):
            dims = tuple(int(n) for n in rng.integers(2, 5, size=ndim))
            x = rng.standard_normal(dims)
            mode = int(rng.integers(1, ndim + 1))
            unfolded = matricize(x, mode)
            m = rng.standard_normal(unfolded.shape)
            lhs = float(np.sum(unfolded * m))
            rhs = float(np.sum(x * tensorize(m, mode, dims)))
            scale = max(1.0, frobenius(x) * frobenius(m))
            result.check(
                abs(lhs - rhs) <= 1e-12 * scale,
                f"adjointness residual {abs(lhs - rhs):.3e} on {dims} mode {mode}",
            )
            result.check(
                np.array_equal(tensorize(unfolded, mode, dims), x),
                f"round trip not exact on {dims} mode {mode}",
            )
    return result


def suite_hosvd(seed: int) -> SuiteResult:
    """Reconstruction, factor orthogonality and core all-orthogonality."""
    result = SuiteResult("hosvd")
    rng = _rng(seed, 2)
    for _ in range(200):
        ndim = int(rng.integers(2, 5))
        dims = tuple(int(n) for n in rng.integers(2, 5, size=ndim))
        x = rng.standard_normal(dims)
        h = hosvd(x)
        norm_x = frobenius(x)
        recon_err = frobenius(hosvd_reconstruct(h) - x)
        result.check(
            recon_err <= 1e-10 * max(1.0, norm_x),
            f"reconstruction residual {recon_err:.3e} on {dims}",
        )
        result.check(
            all(is_orthogonal(u, 1e-12) for u in h.factors),
            f"factor orthogonality violated on {dims}",
        )
        report = core_orthogonality_report(h)
        result.check(
            bool(np.max(report) <= 1e-10 * norm_x**2),
            f"core off-diagonal mass {np.max(report):.3e} on {dims}",
        )
        unfoldings = [matricize(h.core, d) for d in range(1, ndim + 1)]
        row_norms_ok = all(
            np.max(np.abs(np.diag(unf @ unf.T) - mode_spectrum(x, d) ** 2))
            <= 1e-10 * max(1.0, norm_x**2)
            for d, unf in enumerate(unfoldings, start=1)
        )
        result.check(row_norms_ok, f"core row norms disagree with spectra on {dims}")
    return result


def suite_equal_spectra(seed: int) -> SuiteResult:
    """Symmetric and odeco tensors have identical spectra across modes."""
    result = SuiteResult("equal_spectra")
    rng = _rng(seed, 3)
    for k in range(100):
        ndim = 2 + k % 3
        n = int(rng.integers(2, 5))
        x = symmetrize(rng.standard_normal((n,) * ndim))
        spectra = np.vstack(all_mode_spectra(x))
        deviation = float(np.max(spectra.max(axis=0) - spectra.min(axis=0)))
        result.check(
            deviation <= 1e-10 * max(1.0, frobenius(x)),
            f"symmetric spectra deviate by {deviation:.3e} (n={n}, D={ndim})",
        )
    for k in range(100):
        ndim = 2 + k % 3
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, n + 1))
        x = to_dense(random_odeco((n,) * ndim, r, int(rng.integers(2**63 - 1))))
        spectra = np.vstack(all_mode_spectra(x))
        deviation = float(np.max(spectra.max(axis=0) - spectra.min(axis=0)))
        result.check(
            deviation <= 1e-10 * max(1.0, frobenius(x)),
            f"odeco spectra deviate by {deviation:.3e} (n={n}, D={ndim}, r={r})",
        )
    return result


def suite_norm_identities(seed: int) -> SuiteResult:
    """Frobenius identity, odeco nuclear identity and the triangle inequality."""
    result = SuiteResult("norm_identities")
    rng = _rng(seed, 4)
    for _ in range(100):
        ndim = int(rng.integers(2, 5))
        dims = tuple(int(n) for n in rng.integers(2, 5, size=ndim))
        x = rng.standard_normal(dims)
        value = schatten_norm(x, SchattenParams(2.0, 2.0, 1.0))
        expected = math.sqrt(ndim) * frobenius(x)
        result.check(
            abs(value - expected) <= 1e-12 * max(1.0, expected),
            f"sqrt(D)*frobenius identity off by {abs(value - expected):.3e}",
        )
    for _ in range(100):
        ndim = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, n + 1))
        rep = random_odeco((n,) * ndim, r, int(rng.integers(2**63 - 1)))
        value = nuclear_norm(to_dense(rep))
        expected = float(np.sum(rep.alphas))
        result.check(
            abs(value - expected) <= 1e-10 * max(1.0, expected),
            f"odeco nuclear identity off by {abs(value - expected):.3e}",
        )
    for k in range(1000):
        ndim = 2 + k % 3
        dims = tuple(int(n) for n in rng.integers(2, 5, size=ndim))
        params = _param_grid(ndim)[k % 5]
        x = rng.standard_normal(dims)
        y = rng.standard_normal(dims)
        slack = (
            schatten_norm(x, params)
            + schatten_norm(y, params)
            - schatten_norm(x + y, params)
        )
        result.check(slack >= -1e-10, f"triangle slack {slack:.3e} for {params}")
    return result


_VN_SHAPES = [(3, 4), (4, 4), (2, 3), (3, 3, 3), (4, 4, 4), (2, 3, 4), (2, 2, 2, 2)]


def suite_vonneumann(seed: int) -> SuiteResult:
    """Universal per-mode bound plus the shared-frame equality structure."""
    result = SuiteResult("vonneumann")
    rng = _rng(seed, 5)
    # the pairs in draw order, grouped by shape: each group's spectra come
    # from one stacked SVD per mode, its inner products, norms and gaps from
    # one array expression each
    pairs = {dims: [] for dims in _VN_SHAPES}
    for k in range(10_000):
        dims = _VN_SHAPES[k % len(_VN_SHAPES)]
        pairs[dims].append((rng.standard_normal(dims), rng.standard_normal(dims)))
    worst = 0.0
    for group in pairs.values():
        stack = np.stack([t for pair in group for t in pair])
        spectra = _stacked_spectra(stack)
        flat = stack.reshape(len(group), 2, -1)
        values = np.einsum("ij,ij->i", flat[:, 0], flat[:, 1])
        norms = np.sqrt(np.einsum("ijk,ijk->ij", flat, flat))
        scale = np.maximum(1.0, norms[:, 0] * norms[:, 1])
        bounds = np.einsum("ijk,ijk->ij", spectra[::2], spectra[1::2])
        gaps = (bounds - values[:, None]) / scale[:, None]
        worst = min(worst, float(np.min(gaps)))
    result.check(worst >= -1e-10, f"negative per-mode gap found, worst {worst:.3e}")

    for k in range(100):
        n = 3 + k % 2
        ndim = 2 + k % 2
        dims = (n,) * ndim
        r = int(rng.integers(1, n + 1))
        rep_x = random_odeco(dims, r, int(rng.integers(2**63 - 1)))
        beta = np.sort(np.abs(rng.standard_normal(r)))[::-1] + 0.1
        rep_y = make_odeco(beta, rep_x.factors, dims)
        x = to_dense(rep_x)
        y = to_dense(rep_y)
        frames = [complete_orthonormal(f) for f in rep_x.factors]
        report = vn_report(x, y, tol=1e-8)
        structural = _equality_structure(x, y, frames, 1e-8, report).verified
        result.check(
            structural and report.equality,
            f"shared-frame pair not recognized (n={n}, D={ndim}, r={r})",
        )

    for k in range(100):
        dims = (3, 3, 3)
        x = rng.standard_normal(dims)
        frames = [
            random_orthogonal(n, int(rng.integers(2**63 - 1))) for n in dims
        ]
        y = multi_mode_mul(x, frames)
        report = vn_report(x, y, tol=1e-8)
        result.check(
            not report.equality,
            f"rotated pair {k} reported equality with gaps {report.per_mode_gap}",
        )
    return result


def grid_best_pairing(s, p: float, resolution: float = 1e-3) -> float:
    """Brute-force maximum of <v, s> over the unit conjugate-norm sphere.

    For a finite conjugate exponent, enumerates nonnegative directions on a
    simplex grid with the given step and normalizes each to unit conjugate
    norm; for p = 1 (conjugate exponent infinity) the faces of the unit cube
    are gridded directly. Serves as the independent oracle for
    :func:`tensorspectra.subdiff.dual_vector_maximizer`. ``resolution``
    must be a real in (0, 1].
    """
    if not 0.0 < resolution <= 1.0:
        raise ValueError(f"resolution: need a real in (0, 1], got {resolution!r}")
    rows = np.asarray(s, dtype=float).reshape(1, -1)
    return float(_grid_best_pairings(rows, p, resolution)[0])


def _grid_best_pairings(rows: np.ndarray, p: float, resolution: float) -> np.ndarray:
    # grid_best_pairing of each row of a (k, n) array: each grid is built
    # once for all rows and paired with every row by its own product
    n = rows.shape[1]
    if n not in (2, 3):
        raise ValueError("s: grid oracle supports 2 or 3 coordinates")
    best = np.full(rows.shape[0], -math.inf)
    for w in _oracle_grids(n, holder_conjugate(p), int(round(1.0 / resolution))):
        for k, s in enumerate(rows):
            best[k] = max(best[k], float(np.max(w @ s)))
    return best


def _oracle_grids(n: int, p_star: float, steps: int):
    # the directions of grid_best_pairing, one grid at a time
    t = np.linspace(0.0, 1.0, steps + 1)
    if math.isinf(p_star):
        # unit infinity-sphere: one coordinate pinned to 1 per face
        for face in range(n):
            if n == 2:
                w = np.empty((t.size, 2))
                w[:, face] = 1.0
                w[:, 1 - face] = t
            else:
                a, b = np.meshgrid(t, t, indexing="ij")
                w = np.empty((a.size, 3))
                w[:, face] = 1.0
                rest = [k for k in range(3) if k != face]
                w[:, rest[0]] = a.ravel()
                w[:, rest[1]] = b.ravel()
            yield w
        return
    if n == 2:
        w = np.column_stack([t, 1.0 - t])
    else:
        i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        i, j = i.ravel(), j.ravel()
        keep = i + j <= steps
        i, j = i[keep], j[keep]
        w = np.column_stack([i, j, steps - i - j]).astype(float) / steps
    norms = np.sum(w**p_star, axis=1) ** (1.0 / p_star)
    yield w / norms[:, None]


def suite_dual_maximizer(seed: int) -> SuiteResult:
    """Closed-form dual maximizers against the simplex grid oracle."""
    result = SuiteResult("dual_maximizer")
    rng = _rng(seed, 6)
    for n in (2, 3):
        for p in (1.0, 1.5, 2.0, 3.0):
            p_star = holder_conjugate(p)
            cases = []
            for case in range(5):
                s = np.abs(rng.standard_normal(n))
                if case == 4:
                    s[rng.integers(0, n)] = 0.0
                norm2 = np.linalg.norm(s)
                if norm2 == 0.0:
                    continue
                s /= norm2
                maximizer = dual_vector_maximizer(s, p)
                cases.append((s, float(np.dot(maximizer.vector, s)), maximizer))
            # the oracle's grids are built once for the five cases
            oracles = _grid_best_pairings(
                np.array([s for s, _, _ in cases]).reshape(-1, n), p, 1e-3
            )
            for (_, pairing, maximizer), oracle in zip(cases, oracles.tolist()):
                unit_err = abs(lp_norm(maximizer.vector, p_star) - 1.0)
                result.check(
                    unit_err <= 1e-12,
                    f"maximizer conjugate norm off by {unit_err:.3e} (n={n}, p={p})",
                )
                result.check(
                    oracle - 1e-9 <= pairing and pairing - oracle <= 1e-3,
                    f"pairing {pairing:.6f} vs grid {oracle:.6f} (n={n}, p={p})",
                )
    return result


_SUBGRAD_SHAPES = [(2, 2, 2), (3, 3, 3), (4, 4, 4), (3, 3), (4, 4)]


def suite_subgradients(seed: int) -> SuiteResult:
    """Constructed subgradients: certified, inequality-tested, scale-rejected."""
    result = SuiteResult("subgradients")
    rng = _rng(seed, 7)
    reps = []
    for k in range(100):
        dims = _SUBGRAD_SHAPES[k % len(_SUBGRAD_SHAPES)]
        r = int(rng.integers(1, min(dims) + 1))
        reps.append(random_odeco(dims, r, int(rng.integers(2**63 - 1))))
    for k in range(100):
        n = 2 + k % 3
        ndim = 2 + k % 2
        r = int(rng.integers(1, n + 1))
        reps.append(random_symmetric_odeco(n, ndim, r, int(rng.integers(2**63 - 1))))

    for rep in reps:
        dense = to_dense(rep)
        ndim = len(rep.shape)
        for params in _param_grid(ndim):
            g = schatten_subgradient(rep, params)
            certificate = check_membership(dense, g, params, tol=1e-8)
            result.check(
                certificate.accepted,
                f"membership rejected for {rep.shape} params {params}: "
                f"{certificate.notes}",
            )
            slack = subgradient_inequality_test(
                dense, g, params, trials=10_000, seed=seed
            )
            result.check(
                slack >= -1e-9,
                f"subgradient slack {slack:.3e} for {rep.shape} params {params}",
            )
            doubled = check_membership(dense, 2.0 * g, params, tol=1e-8)
            result.check(
                not doubled.accepted,
                f"doubled candidate accepted for {rep.shape} params {params}",
            )
    return result


def suite_matrix_reduction(seed: int) -> SuiteResult:
    """D = 2 nuclear subgradient equals the polar factor from a direct SVD."""
    result = SuiteResult("matrix_reduction")
    rng = _rng(seed, 8)
    params = SchattenParams(1.0, 1.0, 0.5)
    for _ in range(50):
        rep = random_odeco((4, 4), 4, int(rng.integers(2**63 - 1)))
        g = schatten_subgradient(rep, params)
        decomposition = svd(to_dense(rep))
        polar = decomposition.u @ decomposition.vt
        err = float(np.max(np.abs(g - polar)))
        result.check(err <= 1e-10, f"polar factor mismatch {err:.3e}")
    return result


def suite_conjugate(seed: int) -> SuiteResult:
    """Empirical conjugate: zero inside the dual ball, certificates outside."""
    result = SuiteResult("conjugate")
    rng = _rng(seed, 9)
    dims = (3, 3, 3)
    for k in range(50):
        params = _param_grid(3)[k % 5]
        dense = to_dense(random_odeco(dims, 3, int(rng.integers(2**63 - 1))))
        inside = dense * (0.9 / _spectral_dual_ratio(dense, params))
        estimate = estimate_tensor_conjugate(inside, params, budget=100_000, seed=seed)
        result.check(
            estimate.best_value <= 1e-6,
            f"positive value {estimate.best_value:.3e} inside the dual ball "
            f"(params {params})",
        )
    for k in range(50):
        params = _param_grid(3)[k % 5]
        dense = to_dense(random_odeco(dims, 3, int(rng.integers(2**63 - 1))))
        outside = dense * (1.1 / _spectral_dual_ratio(dense, params))
        estimate = estimate_tensor_conjugate(
            outside, params, budget=100_000, seed=seed, target=1e-3
        )
        result.check(
            estimate.best_value >= 1e-3 and estimate.evaluations <= 100_000,
            f"no certificate outside the dual ball (best {estimate.best_value:.3e}, "
            f"{estimate.evaluations} evaluations, params {params})",
        )
    return result


def suite_cli_roundtrip(seed: int) -> SuiteResult:
    """Serialization round-trips, CLI/API agreement, report determinism."""
    import contextlib
    import io
    import json
    import tempfile
    from pathlib import Path

    from . import cli, serialize

    result = SuiteResult("cli_roundtrip")
    rng = _rng(seed, 10)
    for _ in range(50):
        ndim = int(rng.integers(2, 5))
        dims = tuple(int(n) for n in rng.integers(2, 5, size=ndim))
        x = rng.standard_normal(dims)
        back = serialize.loads_tensor(serialize.dumps_tensor(x))
        result.check(
            back.shape == x.shape and back.tobytes() == x.tobytes(),
            f"tensor round trip not bit exact on {dims}",
        )
    for _ in range(20):
        n = int(rng.integers(2, 5))
        rep = random_odeco((n, n, n), n, int(rng.integers(2**63 - 1)))
        back = serialize.loads_odeco(serialize.dumps_odeco(rep))
        result.check(
            back.alphas.tobytes() == rep.alphas.tobytes()
            and all(a.tobytes() == b.tobytes() for a, b in zip(back.factors, rep.factors)),
            "odeco round trip not bit exact",
        )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        x = rng.standard_normal((3, 3, 3))
        serialize.dump_tensor(x, path)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.run(
                ["norm", "--p", "2", "--q", "2", "--lambda", "1", "--in", str(path)]
            )
        payload = json.loads(buffer.getvalue())
        result.check(
            code == 0
            and payload["value"] == schatten_norm(x, SchattenParams(2.0, 2.0, 1.0)),
            "CLI norm value disagrees with the API",
        )

        out1 = Path(tmp) / "gen1.json"
        out2 = Path(tmp) / "gen2.json"
        for out in (out1, out2):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.run(
                    [
                        "gen",
                        "--kind",
                        "odeco",
                        "--shape",
                        "3x3x3",
                        "--rank",
                        "2",
                        "--seed",
                        "11",
                        "--out",
                        str(out),
                    ]
                )
            result.check(code == 0, "gen failed")
        result.check(
            out1.read_bytes() == out2.read_bytes(),
            "gen output differs between identical invocations",
        )

    report_a = run_all(seed, suites=("adjointness",))
    report_b = run_all(seed, suites=("adjointness",))
    result.check(
        serialize.dumps_json(report_a) == serialize.dumps_json(report_b),
        "verification report not deterministic for a fixed seed",
    )
    return result


SUITES = {
    "adjointness": suite_adjointness,
    "hosvd": suite_hosvd,
    "equal_spectra": suite_equal_spectra,
    "norm_identities": suite_norm_identities,
    "vonneumann": suite_vonneumann,
    "dual_maximizer": suite_dual_maximizer,
    "subgradients": suite_subgradients,
    "matrix_reduction": suite_matrix_reduction,
    "conjugate": suite_conjugate,
    "cli_roundtrip": suite_cli_roundtrip,
}


def run_all(seed: int = 0, suites=None) -> dict:
    """Run the selected property suites and collect a deterministic report."""
    _seed(seed)
    names = list(SUITES) if suites is None else list(suites)
    # every name is checked before any suite runs
    for name in names:
        if name not in SUITES:
            raise ValueError(f"suite: unknown name {name!r}")
    results = [SUITES[name](seed) for name in names]
    return {
        "seed": seed,
        "suites": [r.as_dict() for r in results],
        "total_passed": sum(r.passed for r in results),
        "total_failed": sum(r.failed for r in results),
        "ok": all(r.ok for r in results),
    }
