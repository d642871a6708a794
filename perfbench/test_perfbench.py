"""Tests of the benchmark itself: span arithmetic, wrapping and a smoke run.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from tensorspectra import linalg, odeco, spectral, subdiff, verify, vonneumann
from tensorspectra.spectral import SchattenParams

HERE = Path(__file__).resolve().parent


def _bench(*args) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=600,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def test_self_time_subtracts_what_children_cover():
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.child", 1.5, 2.5, 1, 0),
        ("b", 5.0, 6.0, 0, 0),
        ("leaf", 8.0, 9.0, -1, 1),
        # overlaps its sibling and runs past its parent: covered time is
        # merged and clipped, never counted twice
        ("c", 5.5, 12.0, 0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 5, 2.0, 1.0, 1.0, 1.0, 6.5])


def test_table_sums_calls_and_self_time_per_name():
    tracer = spans.Tracer()
    tracer.spans.extend(
        [("f", 0.0, 3.0, -1, 0), ("g", 0.5, 1.0, 0, 0), ("g", 1.0, 2.0, 0, 0)]
    )
    table = tracer.table()
    assert table["f"] == {"calls": 1, "self_s": pytest.approx(1.5)}
    assert table["g"] == {"calls": 2, "self_s": pytest.approx(1.5)}


def _bindings() -> dict:
    return {
        (module.__name__, attr): value
        for module in spans.package_modules()
        for attr, value in vars(module).items()
    }


def test_wrappers_record_calls_through_module_bindings():
    x = np.random.default_rng(0).standard_normal((3, 3, 3))
    rep = odeco.make_odeco([2.0, 1.0], [np.eye(3)[:, :2]] * 3)
    dense = odeco.to_dense(rep)
    params = SchattenParams(2.0, 2.0, 1.0)
    original_svd = linalg.svd
    tracer = spans.Tracer()
    tracer.wrap()
    try:
        assert spectral.svd is not original_svd
        spectral.hosvd(x)
        vonneumann.vn_report(x, x)
        subdiff.check_membership(dense, subdiff.schatten_subgradient(rep, params), params)
        subdiff.estimate_tensor_conjugate(dense, params, budget=50)
    finally:
        tracer.unwrap()
    names = [s[0] for s in tracer.spans]
    parents = {(s[0], names[s[3]] if s[3] >= 0 else None) for s in tracer.spans}
    # spectral's own bindings of linalg and tensor functions
    assert ("linalg.svd", "spectral.hosvd") in parents
    assert ("tensor.matricize", "spectral.hosvd") in parents
    # vonneumann's binding of spectral.mode_spectrum
    assert ("spectral.mode_spectrum", "vonneumann.vn_report") in parents
    # subdiff's bindings of vonneumann, spectral and tensor functions
    assert ("vonneumann.vn_report", "subdiff.check_membership") in parents
    assert ("spectral.schatten_norm", "subdiff.check_membership") in parents
    assert ("spectral.hosvd", "subdiff.estimate_tensor_conjugate") in parents
    assert tracer.extras()["linalg.svd.out_mb"] > 0
    assert tracer.extras()["subdiff.estimate_tensor_conjugate.evaluations"] > 0


def test_unwrap_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.wrap()
    try:
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        assert ("tensorspectra.subdiff", "hosvd") in changed
        assert ("tensorspectra", "svd") in changed
    finally:
        tracer.unwrap()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_param_grid_matches_verify():
    for ndim in (2, 3, 4):
        import workloads

        assert workloads.param_grid(ndim) == verify._param_grid(ndim)


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    assert run.tail([float(k) for k in range(1, 1001)]) == (990.0, 99.0, 10)
    assert run.tail([float(k) for k in range(1, 41)]) == (20.0, 50.0, 20)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def test_benchmark_json_names_match_the_harness():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    units = run.per_layer_units()
    units.update(run.EXTRA_UNITS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == units


def test_smoke_every_workload_passes_and_reports_every_metric():
    code, result = _bench("--workload", "all", "--seconds", "0", "--seed", "3")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{m}" for w in run.WORKLOADS for m in run.END_TO_END}
    assert set(result["metrics"]) == expected
    for w in run.WORKLOADS:
        assert result["metrics"][f"{w}.pass_frac"]["value"] == 1.0
        assert result["metrics"][f"{w}.setup_s"]["value"] > 0


def test_traced_counts_repeat_exactly():
    args = ("--workload", "certify-small", "--seconds", "0", "--seed", "5", "--trace", "1")
    first = _bench(*args)
    second = _bench(*args)
    assert first[0] == second[0] == 0
    names = set(run.per_layer_units()) | set(run.EXTRA_UNITS)
    assert set(first[1]["metrics"]) == names
    exact = [n for n in names if n.endswith((".calls", ".out_mb", ".evaluations"))]
    for name in exact:
        assert first[1]["metrics"][name] == second[1]["metrics"][name], name
    assert first[1]["metrics"]["linalg.svd.calls"]["value"] == 0
    assert first[1]["metrics"]["odeco.random_odeco.calls"]["value"] > 0
