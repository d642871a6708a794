"""The benchmark's four workloads.

Every input is generated here from the workload seed with numpy alone; the
library receives only the generated arrays or JSON files. Library functions
are looked up through their module at call time (``spectral.hosvd``), so the
tracer's wrappers see the benchmark's own calls too.

Correctness tolerances are copied from ``tensorspectra/verify.py`` and are not
to be loosened here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from tensorspectra import cli, odeco, serialize, spectral, subdiff, vonneumann
from tensorspectra.spectral import SchattenParams

# tolerances from verify.py
HOSVD_RECON_TOL = 1e-10  # suite_hosvd: residual <= tol * max(1, ||x||)
ORTHO_TOL = 1e-12  # suite_hosvd: is_orthogonal(u, 1e-12)
NORM_IDENTITY_TOL = 1e-12  # suite_norm_identities: sqrt(D) * ||x||_F
SPECTRA_TOL = 1e-10  # suite_equal_spectra: deviation <= tol * max(1, ||x||)
VN_GAP_TOL = 1e-10  # suite_vonneumann: min gap >= -tol * max(1, ||x|| ||y||)
MEMBERSHIP_TOL = 1e-8  # suite_subgradients: check_membership(..., tol=1e-8)
SLACK_TOL = 1e-9  # suite_subgradients: slack >= -1e-9
TRIALS = 10_000  # suite_subgradients: subgradient_inequality_test trials
CONJ_BUDGET = 100_000  # suite_conjugate: full default budget
CONJ_INSIDE_MAX = 1e-6  # suite_conjugate: inside value <= 1e-6
CONJ_TARGET = 1e-3  # suite_conjugate: outside value >= 1e-3 with target=1e-3


def param_grid(ndim: int) -> list[SchattenParams]:
    """The five-point grid of ``verify._param_grid`` (a test keeps them equal)."""
    return [
        SchattenParams(1.0, 1.0, 1.0 / ndim),
        SchattenParams(2.0, 2.0, 1.0),
        SchattenParams(3.0, 2.0, 1.0),
        SchattenParams(2.0, 1.0, 1.0),
        SchattenParams(1.0, 2.0, 1.0 / ndim),
    ]


# -- numpy reference helpers, independent of the library ----------------------


def haar(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * np.where(d == 0.0, 1.0, np.sign(d))


def frob(x) -> float:
    return float(np.linalg.norm(np.ravel(x)))


def rotate(x: np.ndarray, mats) -> np.ndarray:
    """x ×_1 M_1 ... ×_D M_D."""
    for axis, m in enumerate(mats):
        x = np.moveaxis(np.tensordot(m, x, axes=(1, axis)), 0, axis)
    return x


def unfold(x: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(x, axis, 0).reshape(x.shape[axis], -1)


def odeco_point(shape, rank: int, rng, symmetric: bool = False):
    alphas = np.sort(np.abs(rng.standard_normal(rank)))[::-1] + 0.1
    if symmetric:
        shared = haar(shape[0], rng)[:, :rank]
        factors = [shared] * len(shape)
    else:
        factors = [haar(n, rng)[:, :rank] for n in shape]
    letters = "abcdefgh"[: len(shape)]
    subs = ",".join(["z"] + [f"{c}z" for c in letters]) + "->" + letters
    return alphas, factors, np.einsum(subs, alphas, *factors)


def dual_ratio(alphas: np.ndarray, ndim: int, params: SchattenParams) -> float:
    """Mixed conjugate norm of an odeco point's spectra over lam * D.

    Every mode spectrum of an odeco tensor is its weight vector, so the
    mixed l_{p*}/l_{q*} norm is D^(1/q*) ||alphas||_{p*}.
    """
    p_star = math.inf if params.p == 1.0 else params.p / (params.p - 1.0)
    q_star = math.inf if params.q == 1.0 else params.q / (params.q - 1.0)
    inner = float(np.max(alphas)) if math.isinf(p_star) else float(
        np.sum(alphas**p_star) ** (1.0 / p_star)
    )
    outer = inner if math.isinf(q_star) else ndim ** (1.0 / q_star) * inner
    return outer / (params.lam * ndim)


def tensor_doc(x: np.ndarray) -> dict:
    # json writes the shortest repr of each float, which round-trips binary64
    return {"shape": list(x.shape), "data": np.ravel(x).tolist()}


def write_json(path: str, doc) -> None:
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


@dataclass
class Item:
    """One unit of closed-loop work: ``check(run())`` must hold."""

    key: tuple
    run: Callable[[], Any]
    check: Callable[[Any], bool]


class Workload:
    """Inputs built from a seed, served as rounds of items.

    Why each workload exists, and which layer metric should move which
    end-to-end metric on it, is recorded in BENCHMARK.json and README.md.
    """

    name = ""
    SHAPES: tuple = ()
    # rounds the traced run executes; a fixed count keeps .calls exact
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def shapes(self) -> list:
        return [list(s) for s in self.SHAPES]

    def round(self, phase: int, index: int) -> list[Item]:
        """Items of one round; every round holds each key equally often."""
        raise NotImplementedError

    def cold_start_s(self) -> float:
        """Set-up cost outside this process, in seconds (none by default)."""
        return 0.0


class SpectraLarge(Workload):
    name = "spectra-large"
    SHAPES = ((32, 32, 32), (48, 48, 48), (64, 32, 16), (48, 6, 6), (12, 12, 12, 12))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 1])
        self.cases = []
        for shape in self.SHAPES:
            x = rng.standard_normal(shape)
            y = rotate(x, [haar(n, rng) for n in shape])
            self.cases.append((shape, x, y, param_grid(len(shape))))

    def round(self, phase, index):
        return [self._item(*case) for case in self.cases]

    def _item(self, shape, x, y, grid):
        def run():
            h = spectral.hosvd(x)
            spectra = spectral.all_mode_spectra(x)
            norms = [spectral.schatten_norm(x, params) for params in grid]
            return h, spectra, norms, vonneumann.vn_report(x, y)

        def check(result):
            h, spectra, norms, report = result
            norm_x = frob(x)
            if frob(rotate(h.core, h.factors) - x) > HOSVD_RECON_TOL * max(1.0, norm_x):
                return False
            for u in h.factors:
                if frob(u @ u.T - np.eye(u.shape[0])) > ORTHO_TOL:
                    return False
            expected = math.sqrt(x.ndim) * norm_x  # grid[1] is p = q = 2
            if abs(norms[1] - expected) > NORM_IDENTITY_TOL * max(1.0, expected):
                return False
            scale = max(1.0, norm_x * frob(y))
            return len(spectra) == x.ndim and bool(
                np.min(report.per_mode_gap) >= -VN_GAP_TOL * scale
            )

        return Item(key=(shape,), run=run, check=check)


class CertifySmall(Workload):
    name = "certify-small"
    SHAPES = ((2, 2, 2), (3, 3, 3), (4, 4, 4), (3, 3), (4, 4))
    trace_rounds = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 2])
        self.points = []
        for shape in self.SHAPES:
            for symmetric in (False, True):
                rank = int(rng.integers(1, min(shape) + 1))
                alphas, factors, x = odeco_point(shape, rank, rng, symmetric)
                self.points.append((shape, odeco.make_odeco(alphas, factors, shape), x))

    def round(self, phase, index):
        # one item per shape: its odeco and symmetric-odeco point over the grid
        return [
            self._item(shape, [(rep, x) for s, rep, x in self.points if s == shape])
            for shape in self.SHAPES
        ]

    def _item(self, shape, points):
        seed = self.seed
        grid = param_grid(len(shape))

        def run():
            out = []
            for rep, x in points:
                for params in grid:
                    g = subdiff.schatten_subgradient(rep, params)
                    accepted = subdiff.check_membership(x, g, params, tol=MEMBERSHIP_TOL)
                    doubled = subdiff.check_membership(
                        x, 2.0 * g, params, tol=MEMBERSHIP_TOL
                    )
                    slack = subdiff.subgradient_inequality_test(
                        x, g, params, trials=TRIALS, seed=seed
                    )
                    out.append((accepted, doubled, slack))
            return out

        def check(result):
            return all(
                accepted.accepted and not doubled.accepted and slack >= -SLACK_TOL
                for accepted, doubled, slack in result
            )

        return Item(key=(shape,), run=run, check=check)


class ConjugateProbe(Workload):
    name = "conjugate-probe"
    # nine distinct shapes of 64..125 entries: close per-item costs keep the
    # latency quantiles from jumping between shape clusters run to run
    SHAPES = (
        (4, 4, 4), (5, 5, 5), (6, 5, 4), (7, 3, 5), (4, 5, 6),
        (3, 6, 6), (5, 5, 4), (3, 3, 3, 3), (2, 3, 4, 5),
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 3])
        self.cases = []
        for i, shape in enumerate(self.SHAPES):
            params = param_grid(len(shape))[i % 5]
            alphas, _, x = odeco_point(shape, min(shape), rng)
            ratio = dual_ratio(alphas, len(shape), params)
            self.cases.append((i, shape, params, x * (0.9 / ratio), x * (1.1 / ratio)))

    def round(self, phase, index):
        return [self._item(phase, index, *case) for case in self.cases]

    def _item(self, phase, index, i, shape, params, inside, outside):
        # a fresh estimator seed per item, so no probe pool is ever reused
        item_seed = int(
            np.random.SeedSequence([self.seed, phase, index, i]).generate_state(1)[0]
        )

        def run():
            low = subdiff.estimate_tensor_conjugate(
                inside, params, budget=CONJ_BUDGET, seed=item_seed
            )
            high = subdiff.estimate_tensor_conjugate(
                outside, params, budget=CONJ_BUDGET, seed=item_seed, target=CONJ_TARGET
            )
            return low, high

        def check(result):
            low, high = result
            return (
                low.best_value <= CONJ_INSIDE_MAX
                and high.best_value >= CONJ_TARGET
                and high.evaluations <= CONJ_BUDGET
            )

        return Item(key=(shape,), run=run, check=check)


class CliJson(Workload):
    name = "cli-json"
    SIZES = (8, 16, 24)
    SHAPES = tuple((n, n, n) for n in SIZES)
    KINDS = ("gaussian", "odeco")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 4])
        self.cases = []
        for n in self.SIZES:
            shape = (n, n, n)
            for kind in self.KINDS:
                files = {
                    name: str(workdir / f"{kind}{n}_{name}.json")
                    for name in ("x", "y", "frames", "g", "gen", "sub")
                }
                if kind == "gaussian":
                    x = rng.standard_normal(shape)
                    doc = tensor_doc(x)
                else:
                    alphas, factors, x = odeco_point(shape, n, rng)
                    doc = {
                        "shape": list(shape),
                        "alphas": alphas.tolist(),
                        "factors": [tensor_doc(f) for f in factors],
                    }
                write_json(files["x"], doc)
                write_json(files["y"], tensor_doc(2.0 * x))
                frames = [np.linalg.svd(unfold(x, a))[0] for a in range(3)]
                write_json(files["frames"], [tensor_doc(f) for f in frames])
                case = {
                    "n": n,
                    "kind": kind,
                    "x": x,
                    "files": files,
                    "spectra": [np.linalg.svd(unfold(x, a), compute_uv=False) for a in range(3)],
                    "norm": spectral.schatten_norm(
                        serialize.load_dense(files["x"]), SchattenParams(2.0, 2.0, 1.0)
                    ),
                }
                if kind == "odeco":
                    code, _ = self._cli(["subgrad", "--in", files["x"], "--out", files["g"]])
                    if code != 0:
                        raise RuntimeError(f"subgrad failed while writing inputs ({code})")
                    case["g_bytes"] = Path(files["g"]).read_bytes()
                self.cases.append(case)

    @staticmethod
    def _cli(argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.run(argv)
        return code, buffer.getvalue()

    def cold_start_s(self) -> float:
        """One cold ``python -m tensorspectra norm`` subprocess."""
        src = str(Path(spectral.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "tensorspectra", "norm", "--in", self.cases[0]["files"]["x"]],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        elapsed = time.perf_counter() - start
        if done.returncode != 0 or "value" not in json.loads(done.stdout):
            raise RuntimeError(f"cold CLI run failed: {done.stderr.strip()}")
        return elapsed

    def round(self, phase, index):
        items = []
        for case in self.cases:
            for command in ("gen", "spectrum", "norm", "hosvd", "vn-check"):
                items.append(self._item(command, case))
            if case["kind"] == "odeco":
                items.append(self._item("subgrad", case))
                items.append(self._item("check-subgrad", case))
        return items

    def _item(self, command, case):
        n, kind, f, x = case["n"], case["kind"], case["files"], case["x"]
        argv = {
            "gen": ["gen", "--kind", kind, "--shape", f"{n}x{n}x{n}", "--seed",
                    str(self.seed), "--out", f["gen"]],
            "spectrum": ["spectrum", "--in", f["x"]],
            "norm": ["norm", "--p", "2", "--q", "2", "--lambda", "1", "--in", f["x"]],
            "hosvd": ["hosvd", "--in", f["x"]],
            "vn-check": ["vn-check", "--x", f["x"], "--y", f["y"], "--frames", f["frames"]],
            "subgrad": ["subgrad", "--in", f["x"], "--out", f["sub"]],
            "check-subgrad": ["check-subgrad", "--x", f["x"], "--y", f["g"]],
        }[command]
        norm_x = frob(x)

        def check_gen(doc):
            written = json.loads(Path(doc["path"]).read_text(encoding="utf-8"))
            return written["shape"] == [n, n, n]

        def check_spectrum(doc):
            return len(doc["per_mode"]) == len(doc["combined"]) == 3 and all(
                float(np.max(np.abs(np.asarray(got) - want))) <= SPECTRA_TOL * max(1.0, norm_x)
                for got, want in zip(doc["per_mode"], case["spectra"])
            )

        def check_norm(doc):
            expected = math.sqrt(3) * norm_x
            return doc["value"] == case["norm"] and abs(
                doc["value"] - expected
            ) <= NORM_IDENTITY_TOL * max(1.0, expected)

        def check_hosvd(doc):
            core = np.asarray(doc["core"]["data"]).reshape(doc["core"]["shape"])
            factors = [np.asarray(f["data"]).reshape(f["shape"]) for f in doc["factors"]]
            return frob(rotate(core, factors) - x) <= HOSVD_RECON_TOL * max(1.0, norm_x)

        def check_vn(doc):
            s = doc["structure"]
            return doc["equality"] and s["verified"] and s["proportional"]

        def check_subgrad(doc):
            return Path(doc["path"]).read_bytes() == case["g_bytes"]

        def check_certificate(doc):
            return doc["accepted"] is True

        verdict = {
            "gen": check_gen,
            "spectrum": check_spectrum,
            "norm": check_norm,
            "hosvd": check_hosvd,
            "vn-check": check_vn,
            "subgrad": check_subgrad,
            "check-subgrad": check_certificate,
        }[command]

        def check(result):
            code, out = result
            return code == 0 and verdict(json.loads(out))

        return Item(key=(command, n, kind), run=lambda: self._cli(argv), check=check)


REGISTRY = {w.name: w for w in (SpectraLarge, CertifySmall, ConjugateProbe, CliJson)}
