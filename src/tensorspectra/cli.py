"""Command line interface over the JSON tensor formats.

Every command prints a single JSON document on stdout. Exit codes: 0 on
success, 1 on domain errors (with an ``{"error": ...}`` document) and,
silently, when the reader closes stdout early, 2 on usage errors. All
randomness is seeded (default seed 0). ``run`` builds its parser once per
process and reuses it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import serialize
from .linalg import SvdConvergenceError
from .odeco import random_odeco, random_symmetric_odeco
from .spectral import SchattenParams, all_mode_spectra, combined_spectrum, hosvd, schatten_norm
from .subdiff import check_membership, estimate_tensor_conjugate, schatten_subgradient
from .tensor import _seed, symmetrize
from .vonneumann import _equality_structure, vn_report

__all__ = ["build_parser", "run", "main"]


def _parse_shape(text: str) -> tuple[int, ...]:
    parts = text.replace(",", "x").split("x")
    try:
        dims = tuple(int(p) for p in parts if p)
    except ValueError:
        raise ValueError(f"shape: could not parse {text!r}") from None
    if len(dims) < 2 or any(n < 1 for n in dims):
        raise ValueError("shape: need at least 2 positive mode sizes")
    return dims


def _resolve_params(args, ndim: int) -> SchattenParams:
    if args.lam == "auto":
        lam = 1.0 / ndim if args.p == 1.0 and args.q == 1.0 else 1.0
    else:
        try:
            lam = float(args.lam)
        except ValueError:
            raise ValueError(f"lambda: expected a number or 'auto', got {args.lam!r}") from None
    return SchattenParams(p=args.p, q=args.q, lam=lam)


def _add_norm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=float, default=1.0, help="spectrum exponent (>= 1)")
    parser.add_argument("--q", type=float, default=1.0, help="cross-mode exponent (>= 1)")
    parser.add_argument(
        "--lambda",
        dest="lam",
        default="auto",
        help="norm scale; 'auto' means 1/D for p=q=1 and 1 otherwise",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorspectra",
        description="Spectral decompositions, norms and subgradient "
        "certificates for dense tensors.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a seeded test tensor")
    gen.add_argument(
        "--kind",
        required=True,
        choices=["gaussian", "symmetric", "odeco", "symmetric-odeco"],
    )
    gen.add_argument("--shape", required=True, help="mode sizes, e.g. 3x3x3")
    gen.add_argument("--rank", type=int, default=None, help="rank for odeco kinds")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="write here instead of stdout")

    hosvd_cmd = commands.add_parser("hosvd", help="higher-order SVD of a tensor")
    hosvd_cmd.add_argument("--in", dest="path", required=True)

    spectrum = commands.add_parser("spectrum", help="per-mode singular values")
    spectrum.add_argument("--in", dest="path", required=True)

    norm = commands.add_parser("norm", help="Schatten-type norm of a tensor")
    _add_norm_flags(norm)
    norm.add_argument("--in", dest="path", required=True)

    subgrad = commands.add_parser(
        "subgrad", help="canonical norm subgradient at an odeco point"
    )
    _add_norm_flags(subgrad)
    subgrad.add_argument("--in", dest="path", required=True, help="odeco JSON file")
    subgrad.add_argument("--out", default=None, help="write here instead of stdout")

    check = commands.add_parser(
        "check-subgrad", help="certify a candidate subgradient"
    )
    _add_norm_flags(check)
    check.add_argument("--x", dest="x_path", required=True)
    check.add_argument("--y", dest="y_path", required=True)
    check.add_argument("--tol", type=float, default=1e-8)

    vn = commands.add_parser(
        "vn-check", help="per-mode trace-inequality gaps for a pair"
    )
    vn.add_argument("--x", dest="x_path", required=True)
    vn.add_argument("--y", dest="y_path", required=True)
    vn.add_argument("--tol", type=float, default=1e-10)
    vn.add_argument(
        "--frames",
        default=None,
        help="JSON file with candidate shared frames (hosvd factor format)",
    )

    conjugate = commands.add_parser(
        "conjugate-check", help="empirical Fenchel conjugate of the norm"
    )
    _add_norm_flags(conjugate)
    conjugate.add_argument("--in", dest="path", required=True)
    conjugate.add_argument(
        "--budget", type=int, default=100_000, help="evaluation cap (at most 3 run)"
    )
    conjugate.add_argument("--seed", type=int, default=0, help="changes nothing")

    verify_cmd = commands.add_parser("verify", help="run the property suites")
    verify_cmd.add_argument("--seed", type=int, default=0)
    verify_cmd.add_argument(
        "--suite",
        action="append",
        default=None,
        help="suite name, repeatable; all suites when omitted",
    )
    return parser


def _emit(payload, out_path=None) -> None:
    text = payload if isinstance(payload, str) else serialize.dumps_json(payload)
    if out_path is None:
        print(text, flush=True)  # a closed pipe raises here, inside run
    else:
        serialize._write(out_path, text)
        print(serialize.dumps_json({"path": str(out_path)}), flush=True)


def _cmd_gen(args) -> int:
    dims = _parse_shape(args.shape)
    if args.kind.startswith("symmetric") and len(set(dims)) != 1:
        raise ValueError("shape: symmetric kinds need a cubic shape")
    if args.kind in ("odeco", "symmetric-odeco"):
        rank = args.rank if args.rank is not None else min(dims)
        if args.kind == "symmetric-odeco":
            rep = random_symmetric_odeco(dims[0], len(dims), rank, args.seed)
        else:
            rep = random_odeco(dims, rank, args.seed)
        _emit(serialize.dumps_odeco(rep), args.out)
        return 0
    x = np.random.default_rng(_seed(args.seed)).standard_normal(dims)
    if args.kind == "symmetric":
        x = symmetrize(x)
    _emit(serialize.dumps_tensor(x), args.out)
    return 0


def _cmd_hosvd(args) -> int:
    x = serialize.load_dense(args.path)
    _emit(serialize.dumps_hosvd(hosvd(x)))
    return 0


def _cmd_spectrum(args) -> int:
    x = serialize.load_dense(args.path)
    _emit(
        {
            "per_mode": [s.tolist() for s in all_mode_spectra(x)],
            "combined": [s.tolist() for s in combined_spectrum(x)],
        }
    )
    return 0


def _cmd_norm(args) -> int:
    x = serialize.load_dense(args.path)
    params = _resolve_params(args, x.ndim)
    _emit(
        {
            "value": schatten_norm(x, params),
            "p": params.p,
            "q": params.q,
            "lambda": params.lam,
        }
    )
    return 0


def _cmd_subgrad(args) -> int:
    rep = serialize.load_odeco(args.path)
    params = _resolve_params(args, len(rep.shape))
    _emit(serialize.dumps_tensor(schatten_subgradient(rep, params)), args.out)
    return 0


def _cmd_check_subgrad(args) -> int:
    x = serialize.load_dense(args.x_path)
    y = serialize.load_dense(args.y_path)
    params = _resolve_params(args, x.ndim)
    certificate = check_membership(x, y, params, tol=args.tol)
    _emit(
        {
            "accepted": certificate.accepted,
            "vn_gaps": certificate.vn_gaps.tolist(),
            "pairing_residual": certificate.pairing_residual,
            "dual_norm_value": certificate.dual_norm_value,
            "notes": certificate.notes,
        }
    )
    return 0


def _cmd_vn_check(args) -> int:
    x = serialize.load_dense(args.x_path)
    y = serialize.load_dense(args.y_path)
    report = vn_report(x, y, tol=args.tol)
    payload = {
        "inner": report.inner,
        "per_mode_bound": report.per_mode_bound.tolist(),
        "per_mode_gap": report.per_mode_gap.tolist(),
        "equality": report.equality,
    }
    if args.frames is not None:
        frames = serialize.loads_matrices(serialize._read(args.frames))
        structure = _equality_structure(x, y, frames, args.tol, report)
        payload["structure"] = {
            "verified": structure.verified,
            "blocks": [
                [list(ids) for ids in block] for block in structure.partition.blocks
            ],
            # the same verdict as "verified", kept for existing readers
            "proportional": structure.verified,
            "constants": [
                c if np.isfinite(c) else None for c in structure.constants.tolist()
            ],
        }
    _emit(payload)
    return 0


def _cmd_conjugate_check(args) -> int:
    x = serialize.load_dense(args.path)
    params = _resolve_params(args, x.ndim)
    estimate = estimate_tensor_conjugate(
        x, params, budget=args.budget, seed=args.seed
    )
    payload = {
        "best_value": estimate.best_value,
        "evaluations": estimate.evaluations,
        "spectral_dual_ratio": estimate.spectral_dual_ratio,
        "inside_dual_ball": estimate.inside_dual_ball,
    }
    if estimate.best_value > 0.0:
        payload["certificate"] = serialize._tensor_doc(estimate.maximizer)
    _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all

    report = run_all(args.seed, suites=args.suite)
    _emit(report)
    return 0 if report["ok"] else 1


_HANDLERS = {
    "gen": _cmd_gen,
    "hosvd": _cmd_hosvd,
    "spectrum": _cmd_spectrum,
    "norm": _cmd_norm,
    "subgrad": _cmd_subgrad,
    "check-subgrad": _cmd_check_subgrad,
    "vn-check": _cmd_vn_check,
    "conjugate-check": _cmd_conjugate_check,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser unchanged, so one serves every run call
    return build_parser()


def run(argv) -> int:
    """Parse and execute one command; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # the reader closed stdout: print nothing more, and send what is left
        # in its buffer to os.devnull so that the flush at exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError, ArithmeticError, SvdConvergenceError) as exc:
        print(serialize.dumps_json({"error": str(exc)}))
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
