#!/usr/bin/env python3
"""Layered benchmark of tensorspectra.

Usage, from the repository root:

    python3 perfbench/run.py --workload spectra-large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15

One caller in one process runs the workload's items in a closed loop: each
item starts when the previous one has finished and been checked. Items come
in rounds that hold every input key equally often, and timing stops at the
first round boundary after ``--seconds``, so every run sees the same mix.

Times are scaled by the host's slowdown, measured with a fixed reference
kernel between items (see README.md). ``--trace 0`` prints the end-to-end
metrics. ``--trace 1`` first runs the same untraced loop, then a fixed
number of rounds with every public library function wrapped, and prints the
per-layer metrics. Several workloads (a comma list or ``all``) run one after
another, each in a fresh interpreter.
The last line of standard output is one JSON object; the exit code is
nonzero when any item failed its correctness check. Full results, including
the machine, the seed, the input shapes and the cases left out, are written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: no more than nproc (2 on the machine the bounds were set
# on), steadier on a shared host, and faster than two for hosvd at 16^3..24^3
# there.
BLAS_THREADS = 1
SETUP_REPEATS = 3
# The speed of a shared host drifts by up to 2x over minutes, and no run
# length averages that out. Each run therefore times a fixed reference kernel
# alongside its work and reports every time scaled by the kernel's median
# over its nominal time; the raw values are in the result file.
REFERENCE_NOMINAL_S = 0.014
REFERENCE_EVERY_S = 0.5
SETUP_REFERENCE_TICKS = 10
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_BEYOND = 10

END_TO_END = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
    "setup_s": "s",
}

LAYER_FUNCTIONS = {
    "tensor": ("matricize", "mode_mul", "multi_mode_mul", "symmetrize", "inner", "frobenius"),
    "linalg": ("svd", "singular_values", "random_orthogonal", "complete_orthonormal"),
    "spectral": ("hosvd", "mode_spectrum", "all_mode_spectra", "schatten_norm"),
    "odeco": ("to_dense", "random_odeco", "make_odeco"),
    "vonneumann": ("vn_report", "find_block_partition", "verify_equality_structure",
                   "check_equality_via_structure"),
    "subdiff": ("schatten_subgradient", "check_membership", "subgradient_inequality_test",
                "estimate_tensor_conjugate", "mixed_norm", "lp_norm", "dual_vector_maximizer"),
    "serialize": ("dumps_json", "dumps_tensor", "dumps_hosvd", "load_dense", "load_odeco",
                  "loads_matrices"),
    "cli": ("run",),
}

WORKLOADS = ("spectra-large", "certify-small", "conjugate-probe", "cli-json")

EXTRA_UNITS = {
    "linalg.svd.out_mb": "MB",
    "subdiff.estimate_tensor_conjugate.evaluations": "count",
    "cli.run.errors": "count",
    "trace_overhead_frac": "frac",
}

SKIPPED = [
    {
        "case": "spectral.hosvd at 100x100x100",
        "reason": "about 33 s per call with a full SVD that builds an 800 MB V^T per "
        "mode; over the per-run time and memory budget until hosvd needs only U",
    }
]


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    return units


def percentile(ordered: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples and the count beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With fewer than twenty
    samples no ladder entry qualifies and the maximum is returned.
    """
    ordered = sorted(latencies)
    for pct in TAIL_LADDER:
        value, beyond = percentile(ordered, pct)
        if beyond >= TAIL_BEYOND:
            return value, pct, beyond
    return ordered[-1], 100.0, 0


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": BLAS_THREADS,
        },
        "platform": platform.platform(),
    }


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# -- one workload in this process --------------------------------------------


def import_library() -> float:
    """Import the package from this checkout's ``src``; returns seconds."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import tensorspectra
    import tensorspectra.cli
    import tensorspectra.serialize  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(tensorspectra.__file__).resolve().parent != (SRC / "tensorspectra").resolve():
        fail(f"imported tensorspectra from {tensorspectra.__file__}, not {SRC}")
    return elapsed


class Reference:
    """A fixed kernel that measures the host's speed.

    It mixes the three kinds of work the workloads do: interpreted Python,
    small LAPACK calls and streaming over arrays larger than the L2 cache.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._matrix = np.random.default_rng(0).standard_normal((48, 48))
        self._stream = np.ones(1 << 20)
        self._out = np.empty(1 << 20)
        self.samples: list[float] = []

    def _kernel(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i
        for _ in range(8):
            np.linalg.svd(self._matrix)
        for _ in range(6):
            np.add(self._stream, self._stream, out=self._out)
        return time.perf_counter() - start

    def tick(self) -> float:
        """Time the kernel once, after an untimed pass that refills the caches
        the preceding work evicted; returns the wall time both passes took."""
        cold = self._kernel()
        warm = self._kernel()
        self.samples.append(warm)
        return cold + warm

    def slowdown(self) -> float:
        """Median kernel time over its nominal time; above 1 on a slow host."""
        return statistics.median(self.samples) / REFERENCE_NOMINAL_S


def run_item(item) -> tuple[float | None, bool, str | None]:
    """Latency of ``item.run()`` and whether its check passed."""
    start = time.perf_counter()
    try:
        result = item.run()
    except Exception as exc:  # a failing item is counted, not fatal
        return None, False, f"{item.key}: {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    try:
        ok = bool(item.check(result))
    except Exception as exc:
        return latency, False, f"{item.key}: check raised {type(exc).__name__}: {exc}"
    return latency, ok, None if ok else f"{item.key}: check failed"


def set_up(name: str, seed: int, workdir: Path):
    """Import, build inputs and warm up; returns (workload, setup detail)."""
    import_s = import_library()
    import workloads

    wl = workloads.REGISTRY[name](seed, workdir)
    start = time.perf_counter()
    failures = []
    seen = set()
    for item in wl.round(0, 0):
        if item.key in seen:
            continue
        seen.add(item.key)
        failures += [msg for _, ok, msg in [run_item(item)] if not ok]
    warmup_s = time.perf_counter() - start
    cold_s = wl.cold_start_s()
    reference = Reference()
    for _ in range(SETUP_REFERENCE_TICKS):
        reference.tick()
    raw = import_s + warmup_s + cold_s
    detail = {
        "import_s": import_s,
        "warmup_s": warmup_s,
        "warmup_items": len(seen),
        "cold_cli_s": cold_s,
        "raw_setup_s": raw,
        "slowdown": reference.slowdown(),
        "setup_s": raw / reference.slowdown(),
        "warmup_failures": failures,
    }
    return wl, detail


def closed_loop(wl, phase: int, seconds: float = 0.0, rounds: int | None = None,
                runner=run_item) -> dict:
    """Run whole rounds, at least one, until ``seconds`` have passed, or
    exactly ``rounds`` rounds when that is given; ``runner`` runs one item.

    The reference kernel runs every ``REFERENCE_EVERY_S`` between items; its
    own time is left out of the elapsed time.
    """
    latencies, failures = [], []
    attempted = passed = done = 0
    reference = Reference()
    reference.tick()
    start = last_tick = time.perf_counter()
    ticking = 0.0
    while True:
        for item in wl.round(phase, done):
            latency, ok, msg = runner(item)
            attempted += 1
            if latency is not None:
                latencies.append(latency)
            if ok:
                passed += 1
            elif len(failures) < 20:
                failures.append(msg)
            if time.perf_counter() - last_tick >= REFERENCE_EVERY_S:
                ticking += reference.tick()
                last_tick = time.perf_counter()
        done += 1
        elapsed = time.perf_counter() - start - ticking
        if (done >= rounds) if rounds is not None else (elapsed >= seconds):
            break
    reference.tick()
    return {
        "slowdown": reference.slowdown(),
        "reference_ticks": len(reference.samples),
        "elapsed_s": elapsed,
        "rounds": done,
        "attempted": attempted,
        "passed": passed,
        "latencies": latencies,
        "failures": failures,
    }


def child_setup_s(args) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        fail(f"set-up child failed: {done.stderr.strip()}", 1)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl, setup = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup["setup_s"]}))
            return 0
        loop = closed_loop(wl, 1, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, passed = loop["attempted"], loop["passed"]
        failed = attempted - passed
        failures = setup["warmup_failures"] + loop["failures"]
        correct = failed == 0 and not setup["warmup_failures"]
        items_per_s = passed / loop["elapsed_s"]
        header = {
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": machine(),
            "shapes": wl.shapes(),
            "skipped": SKIPPED,
        }
        if args.trace:
            traced = trace_metrics(wl, header, items_per_s * loop["slowdown"])
            attempted += traced["attempted"]
            failed += traced["attempted"] - traced["passed"]
            failures += traced["failures"]
            correct = correct and traced["attempted"] == traced["passed"]
            metrics = traced["metrics"]
        else:
            setups = [setup["setup_s"]] + [
                child_setup_s(args) for _ in range(SETUP_REPEATS - 1)
            ]
            ordered = sorted(loop["latencies"]) or [0.0]
            tail_value, tail_pct, beyond = tail(ordered)
            raw = {
                "items_per_s": items_per_s,
                "latency_p50_ms": 1e3 * percentile(ordered, 50.0)[0],
                "latency_tail_ms": 1e3 * tail_value,
            }
            slowdown = loop["slowdown"]
            values = {
                "items_per_s": raw["items_per_s"] * slowdown,
                "latency_p50_ms": raw["latency_p50_ms"] / slowdown,
                "latency_tail_ms": raw["latency_tail_ms"] / slowdown,
                "peak_rss_mb": peak_rss_mb,
                "pass_frac": passed / attempted,
                "setup_s": statistics.median(setups),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            report = dict(header)
            report.update(
                {
                    "metrics": metrics,
                    "slowdown": slowdown,
                    "reference_ticks": loop["reference_ticks"],
                    "raw": raw,
                    "latency_tail": {"percentile": tail_pct, "samples": len(loop["latencies"]),
                                     "samples_beyond": beyond},
                    "fail_frac": failed / attempted,
                    "rounds": loop["rounds"],
                    "timed_s": loop["elapsed_s"],
                    "setup": {k: v for k, v in setup.items() if k != "warmup_failures"},
                    "setup_runs_s": setups,
                    "failures": failures,
                }
            )
            path = OUT / f"{wl.name}-seed{args.seed}.json"
            path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
            print(f"workload {wl.name}  seed {args.seed}  rounds {loop['rounds']}  "
                  f"items {attempted}  failed {failed}  fail_frac {failed / attempted:.6g}")
            print(f"latency_tail is p{tail_pct:g} of {len(loop['latencies'])} samples "
                  f"({beyond} beyond); times scaled by host slowdown {slowdown:.4f}")
        for name, entry in metrics.items():
            print(f"  {name:<52} {entry['value']:>14.6g} {entry['unit']}")
        for msg in failures:
            print(f"  FAILED {msg}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def trace_metrics(wl, header: dict, untraced_items_per_s: float) -> dict:
    """Run ``wl.trace_rounds`` traced rounds and write the spans to ``OUT``.

    ``untraced_items_per_s`` is the scaled rate of the untraced loop. Returns
    the traced loop's counts and failures with the per-layer metrics.
    """
    import spans

    tracer = spans.Tracer()
    tracer.wrap()
    try:
        loop = closed_loop(
            wl, 2, rounds=wl.trace_rounds,
            runner=lambda item: tracer.root_span("bench.item", lambda: run_item(item)),
        )
    finally:
        tracer.unwrap()
    table = tracer.table()
    units = per_layer_units()
    values = {}
    for key in units:
        func, _, field = key.rpartition(".")
        values[key] = table.get(func, {}).get(field, 0)
    values.update(tracer.extras())
    traced_items_per_s = loop["passed"] / loop["elapsed_s"] * loop["slowdown"]
    values["trace_overhead_frac"] = 1.0 - traced_items_per_s / untraced_items_per_s
    units.update(EXTRA_UNITS)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    doc = dict(header)
    doc.update({"traced_rounds": loop["rounds"], "traced_items": loop["attempted"],
                "traced_items_per_s": traced_items_per_s,
                "untraced_items_per_s": untraced_items_per_s, "per_layer": metrics})
    tracer.write(OUT / f"{wl.name}-seed{header['seed']}-trace.json", doc)
    return {"metrics": metrics, "attempted": loop["attempted"], "passed": loop["passed"],
            "failures": loop["failures"]}


# -- several workloads, each in a fresh interpreter ------------------------------


def run_many(args, names: list[str]) -> int:
    combined = {}
    attempted = failed = 0
    correct = True
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines:
            fail(f"workload {name} printed no result", 1)
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, a comma-separated list, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "tensorspectra" / "__init__.py").is_file():
        fail(f"no tensorspectra sources under {SRC}")

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        fail(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if len(names) > 1:
        return run_many(args, names)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
