import itertools
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tensorspectra
from tensorspectra import linalg, odeco, spectral, subdiff, tensor, vonneumann

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


def test_each_specials_build_logs_one_debug_record(caplog, monkeypatch):
    # a cold (shape, seed) builds the point-free specials; a repeat and a
    # second point of that shape and seed build nothing
    monkeypatch.setattr(subdiff, "_last_point_free", None)
    caplog.set_level(logging.DEBUG, logger="tensorspectra")
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 4, 2))
    for point, params in ((x, (2, 2, 1)), (x, (3, 2, 1)), (y, (2, 2, 1))):
        subdiff.subgradient_inequality_test(
            point, point, spectral.SchattenParams(*params), trials=40
        )
    assert {(r.name, r.levelno) for r in caplog.records} == {
        ("tensorspectra.subdiff", logging.DEBUG)
    }
    assert [r.getMessage() for r in caplog.records] == [
        "specials: building the point-free part at shape (3, 4, 2)"
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
    assert "building the point-free part at shape (2, 2, 2)" in runs["debug"].stderr
