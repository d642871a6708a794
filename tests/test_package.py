import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tensorspectra
from tensorspectra import linalg, odeco, spectral, subdiff, tensor, verify, vonneumann

MODULES = (tensor, linalg, spectral, odeco, vonneumann, subdiff)


def test_module_public_names_are_disjoint():
    # the package star-imports every module, so a repeated name would be
    # shadowed silently by the later import
    for first, second in itertools.combinations(MODULES, 2):
        shared = set(first.__all__) & set(second.__all__)
        assert not shared, (first.__name__, second.__name__, shared)


def test_package_names_are_the_module_objects():
    owners = {name: module for module in MODULES for name in module.__all__}
    assert set(tensorspectra.__all__) == set(owners) | {"__version__"}
    assert len(tensorspectra.__all__) == len(set(tensorspectra.__all__))
    for name, module in owners.items():
        assert getattr(tensorspectra, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from tensorspectra import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tensorspectra.__all__)


def test_the_package_logger_is_silent_by_default():
    logger = logging.getLogger("tensorspectra")
    assert any(isinstance(h, logging.NullHandler) for h in logger.handlers)
    assert logging.getLogger(subdiff.__name__).parent is logger


_TOLERANT = {
    "is_symmetric": lambda tol: tensor.is_symmetric(np.ones((2, 2)), tol=tol),
    "is_orthogonal": lambda tol: linalg.is_orthogonal(2.0 * np.eye(2), tol=tol),
    "complete_orthonormal": lambda tol: linalg.complete_orthonormal(
        [[5.0], [0.0]], tol=tol
    ),
    "tuple_membership": lambda tol: subdiff.tuple_membership(
        [[1, 0], [1, 0]], [[5, 0], [5, 0]], spectral.SchattenParams(2, 2, 1), tol=tol
    ),
    "find_block_partition": lambda tol: vonneumann.find_block_partition(
        np.eye(2), np.eye(2), tol=tol
    ),
    "verify_equality_structure": lambda tol: vonneumann.verify_equality_structure(
        np.eye(2),
        np.eye(2),
        vonneumann.BlockPartition(blocks=(((1, 2), (1, 2)),)),
        tol=tol,
    ),
}


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, -1e-8])
@pytest.mark.parametrize("name", sorted(_TOLERANT))
def test_every_public_tolerance_is_finite_and_nonnegative(name, tol):
    # inf accepted 2 I as orthogonal, 5 e1 as orthonormal and any tuple
    # candidate, and nan or inf changed block partitions; vn_report's rule
    # holds for all
    with pytest.raises(ValueError, match=r"^tol: tolerance must be a finite real >= 0, got "):
        _TOLERANT[name](tol)


_ONES = np.ones((3, 3, 3))
_PARAMS = spectral.SchattenParams(2, 2, 1)
# (argument, call) for each integer argument; numpy's TypeError named no
# field, and a bool or a fraction passed silently, truncated or as mode 1
_INTEGRAL = {
    "matricize": ("mode", lambda v: tensor.matricize(_ONES, v)),
    "mode_spectrum": ("mode", lambda v: spectral.mode_spectrum(_ONES, v)),
    "as_tensor": ("shape", lambda v: tensor.as_tensor(np.ones(6), (3, v))),
    "tensorize": ("shape", lambda v: tensor.tensorize(np.ones((3, 3)), 1, (3, v))),
    "random_odeco shape": ("shape", lambda v: odeco.random_odeco((v, 3, 3), 2, 0)),
    "random_odeco rank": ("rank", lambda v: odeco.random_odeco((3, 3, 3), v, 0)),
    "random_symmetric_odeco ndim": (
        "ndim",
        lambda v: odeco.random_symmetric_odeco(3, v, 2, 0),
    ),
    "random_symmetric_odeco rank": (
        "rank",
        lambda v: odeco.random_symmetric_odeco(3, 3, v, 0),
    ),
    "random_orthogonal": ("n", lambda v: linalg.random_orthogonal(v, 0)),
    "nuclear": ("ndim", lambda v: spectral.SchattenParams.nuclear(v)),
    "trials": (
        "trials",
        lambda v: subdiff.subgradient_inequality_test(_ONES, _ONES, _PARAMS, trials=v),
    ),
    "budget": (
        "budget",
        lambda v: subdiff.estimate_tensor_conjugate(_ONES, _PARAMS, budget=v),
    ),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True])
@pytest.mark.parametrize("name", sorted(_INTEGRAL))
def test_every_integer_argument_is_an_integer(name, value):
    argument, call = _INTEGRAL[name]
    with pytest.raises(ValueError, match=f"^{argument}: "):
        call(value)


_SEEDED = {
    "random_odeco": lambda seed: odeco.random_odeco((3, 3, 3), 2, seed),
    "random_symmetric_odeco": lambda seed: odeco.random_symmetric_odeco(3, 3, 2, seed),
    "random_orthogonal": lambda seed: linalg.random_orthogonal(3, seed),
    "run_all": lambda seed: verify.run_all(seed, suites=["adjointness"]),
}


@pytest.mark.parametrize("seed", [-1, 2.5, True])
@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_every_seed_is_a_non_negative_integer(name, seed):
    # numpy's own error, "expected non-negative integer", named no field
    message = f"seed: expected a non-negative integer, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _SEEDED[name](seed)


def test_each_subgradient_test_logs_the_member_at_its_minimum(caplog):
    # one DEBUG record per call: g = 0 fails the pairing, and y = 0 x sets
    # the minimum, -N(x); g = 2 x leaves the dual ball, and y = 2 g does
    caplog.set_level(logging.DEBUG, logger="tensorspectra")
    x = np.random.default_rng(0).standard_normal((3, 4, 2))
    params = spectral.SchattenParams(2, 2, 1)
    for g in (0.0 * x, 2.0 * x):
        subdiff.subgradient_inequality_test(x, g, params, trials=40)
    assert {(r.name, r.levelno) for r in caplog.records} == {
        ("tensorspectra.subdiff", logging.DEBUG)
    }
    assert [r.getMessage() for r in caplog.records] == [
        "subgradient test: minimum at y = 0 x",
        "subgradient test: minimum at y = 2 g",
    ]


_LOGGING_SCRIPT = """
import logging, sys
import numpy as np
if sys.argv[1] == "debug":
    logging.basicConfig(level=logging.DEBUG)
from tensorspectra import SchattenParams, subgradient_inequality_test
from tensorspectra.cli import run
x = np.ones((2, 2, 2))
subgradient_inequality_test(x, x, SchattenParams(2, 2, 1), trials=40)
sys.exit(run(["gen", "--kind", "odeco", "--shape", "3x3x3", "--seed", "1"]))
"""


def test_records_reach_stderr_only_when_configured():
    # by default nothing reaches stderr; a DEBUG configuration sends the
    # records there and leaves the stdout document byte for byte the same
    src = Path(tensorspectra.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = {
        mode: subprocess.run(
            [sys.executable, "-c", _LOGGING_SCRIPT, mode],
            capture_output=True, text=True, env=env, check=True,
        )
        for mode in ("default", "debug")
    }
    assert runs["default"].stderr == ""
    assert runs["debug"].stdout == runs["default"].stdout
    assert json.loads(runs["default"].stdout)["shape"] == [3, 3, 3]
    assert "subgradient test: minimum at y = 2 x" in runs["debug"].stderr
