"""Acceptance checks: every criterion runs at its stated tolerance.

Each test runs one seeded property suite and prints a PASS/FAIL line with
the check counts; the suites are the same ones behind ``verify`` on the
command line.
"""

import pytest

from tensorspectra.verify import SUITES

SEED = 0

# (label, suite, checks at SEED). The measured counts make a suite that
# silently runs fewer checks fail and, with every check passing, fix
# ``verify --seed 0`` stdout byte for byte.
CRITERIA = [
    ("01 adjointness and unfold/fold round trip", "adjointness", 600),
    ("02 hosvd reconstruction and all-orthogonality", "hosvd", 800),
    ("03 equal mode spectra for symmetric and odeco tensors", "equal_spectra", 200),
    ("04 norm identities and triangle inequality", "norm_identities", 1200),
    ("05 trace inequality and equality structure", "vonneumann", 201),
    ("06 dual maximizer against the grid oracle", "dual_maximizer", 80),
    ("07 subgradient construction soundness", "subgradients", 3000),
    ("08 matrix-case reduction to the polar factor", "matrix_reduction", 50),
    ("09 conjugate consistency inside/outside the dual ball", "conjugate", 100),
    ("10 CLI round trip and determinism", "cli_roundtrip", 75),
]


@pytest.mark.parametrize(
    ("label", "suite", "checks"), CRITERIA, ids=[c[1] for c in CRITERIA]
)
def test_acceptance_criterion(label, suite, checks):
    result = SUITES[suite](SEED)
    status = "PASS" if result.failed == 0 else "FAIL"
    print(
        f"{status} criterion {label}: {result.passed} checks passed, "
        f"{result.failed} failed"
    )
    assert result.failed == 0, result.failures
    assert result.passed == checks
