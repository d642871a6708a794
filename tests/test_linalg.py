import numpy as np
import pytest

from tensorspectra import (
    complete_orthonormal,
    is_orthogonal,
    random_orthogonal,
    singular_values,
    svd,
)
from tensorspectra.linalg import _random_orthogonals


def test_svd_diagonal():
    result = svd(np.diag([3.0, 1.0]))
    assert np.allclose(result.singular_values, [3.0, 1.0])
    assert np.array_equal(result.u, np.eye(2))
    assert np.array_equal(result.vt, np.eye(2))


def test_svd_zero_matrix():
    result = svd(np.zeros((2, 3)))
    assert np.array_equal(result.singular_values, np.zeros(2))
    assert is_orthogonal(result.u, 1e-12)
    assert is_orthogonal(result.vt, 1e-12)
    assert np.allclose(result.reconstruct(), np.zeros((2, 3)))


def test_svd_invariants_random():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 7))
    result = svd(m)
    assert is_orthogonal(result.u, 1e-12)
    assert is_orthogonal(result.vt, 1e-12)
    err = np.linalg.norm(result.reconstruct() - m)
    assert err <= 1e-10 * np.linalg.norm(m)
    s = result.singular_values
    assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)


def test_svd_sign_convention():
    rng = np.random.default_rng(1)
    for _ in range(20):
        result = svd(rng.standard_normal((5, 3)))
        for j in range(result.u.shape[1]):
            col = result.u[:, j]
            anchors = np.nonzero(np.abs(col) > 1e-12)[0]
            assert anchors.size == 0 or col[anchors[0]] >= 0


def test_svd_deterministic():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 6))
    a, b = svd(m), svd(m)
    assert a.u.tobytes() == b.u.tobytes()
    assert a.singular_values.tobytes() == b.singular_values.tobytes()
    assert a.vt.tobytes() == b.vt.tobytes()


def test_singular_value_invariances():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 5))
    s = singular_values(m)
    # permutations do not change the spectrum
    p = np.eye(4)[rng.permutation(4)]
    q = np.eye(5)[rng.permutation(5)]
    assert np.allclose(singular_values(p @ m @ q), s, atol=1e-10)
    assert np.allclose(singular_values(m.T), s, atol=1e-10)
    assert np.linalg.norm(m) ** 2 == pytest.approx(np.sum(s**2), rel=1e-10)


def test_svd_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        svd(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_singular_values_of_a_stack():
    stack = np.random.default_rng(4).standard_normal((2, 3, 4, 5))
    values = singular_values(stack)
    assert values.shape == (2, 3, 4)
    for i in range(2):
        for j in range(3):
            assert np.max(np.abs(values[i, j] - singular_values(stack[i, j]))) <= 1e-14
    stack[1, 2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="matrix: entries must be finite"):
        singular_values(stack)
    with pytest.raises(ValueError, match="2-D"):
        singular_values(np.ones(3))


def test_is_orthogonal():
    assert is_orthogonal(np.eye(3))
    c, s = np.cos(0.3), np.sin(0.3)
    assert is_orthogonal(np.array([[c, -s], [s, c]]), 1e-12)
    assert not is_orthogonal(np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-6)
    with pytest.raises(ValueError, match="square"):
        is_orthogonal(np.ones((2, 3)))


def test_random_orthogonal():
    one = random_orthogonal(1, 0)
    assert one.shape == (1, 1) and abs(abs(one[0, 0]) - 1.0) <= 1e-15
    for seed in range(5):
        q = random_orthogonal(4, seed)
        assert is_orthogonal(q, 1e-12)
    assert np.array_equal(random_orthogonal(3, 7), random_orthogonal(3, 7))
    assert not np.array_equal(random_orthogonal(3, 7), random_orthogonal(3, 8))
    with pytest.raises(ValueError, match="positive"):
        random_orthogonal(0, 0)


def _haar_reference(n, seed):
    # the per-seed construction: one 2-D QR with the sign of diag(R) folded in
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    d = np.diag(r)
    return q * np.where(d == 0.0, 1.0, np.sign(d))


@pytest.mark.parametrize("n", range(1, 7))
def test_batched_orthogonals_equal_per_seed_qr(n):
    seeds = [3, 0, 2**63 - 2, 41, 41, 7]
    stack = _random_orthogonals(n, seeds)
    assert stack.shape == (len(seeds), n, n)
    for k, seed in enumerate(seeds):
        assert np.array_equal(stack[k], _haar_reference(n, seed))
        assert np.array_equal(random_orthogonal(n, seed), stack[k])


def test_complete_orthonormal():
    u = random_orthogonal(5, 0)[:, :2]
    full = complete_orthonormal(u)
    assert np.array_equal(full[:, :2], u)
    assert is_orthogonal(full, 1e-12)
    with pytest.raises(ValueError, match="orthonormal"):
        complete_orthonormal(np.ones((3, 2)))
