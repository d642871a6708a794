import hashlib
import math

import numpy as np
import pytest

from tensorspectra import (
    SchattenParams,
    all_mode_spectra,
    core_orthogonality_report,
    frobenius,
    hosvd_reconstruct,
    is_orthogonal,
    is_symmetric,
    make_odeco,
    mode_spectrum,
    nuclear_norm,
    odeco_hosvd,
    random_odeco,
    random_symmetric_odeco,
    schatten_norm,
    to_dense,
)


def test_identity_factor_diagonal():
    rep = make_odeco([2.0, 1.0], [np.eye(2)] * 3)
    dense = to_dense(rep)
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 2.0
    expected[1, 1, 1] = 1.0
    assert np.array_equal(dense, expected)


def test_rank_one():
    u = np.array([[1.0], [0.0]])
    rep = make_odeco([1.0], [u, u, u])
    assert rep.rank == 1
    assert to_dense(rep)[0, 0, 0] == 1.0


def test_sorting_permutes_columns():
    # unsorted weights must not change the represented tensor
    rng = np.random.default_rng(0)
    base = random_odeco((3, 3, 3), 3, 1)
    shuffled = np.array([base.alphas[2], base.alphas[0], base.alphas[1]])
    factors = [f[:, [2, 0, 1]] for f in base.factors]
    rep = make_odeco(shuffled, factors)
    assert np.allclose(rep.alphas, base.alphas)
    assert np.allclose(to_dense(rep), to_dense(base), atol=1e-14)


def test_zero_weights_dropped():
    rep = make_odeco([2.0, 0.0, 1.0], [np.eye(3)] * 3)
    assert rep.rank == 2
    assert np.array_equal(rep.alphas, [2.0, 1.0])


def test_validation_errors():
    with pytest.raises(ValueError, match="alphas"):
        make_odeco([1.0, -0.5], [np.eye(2)] * 3)
    with pytest.raises(ValueError, match="orthonormal"):
        make_odeco([1.0, 1.0], [np.ones((2, 2))] * 3)
    with pytest.raises(ValueError, match="rank"):
        make_odeco([1.0, 1.0, 1.0], [np.eye(2, 3)] * 3)
    with pytest.raises(ValueError, match="alphas"):
        make_odeco([0.0, 0.0], [np.eye(2)] * 3)
    with pytest.raises(ValueError, match="shape"):
        make_odeco([1.0], [np.eye(2)[:, :1]] * 3, shape=(2, 2, 3))


def test_nan_factor_rejected():
    with pytest.raises(ValueError, match="mode 1 columns are not orthonormal"):
        make_odeco([1.0], [[[math.nan], [0.0]], [[1.0], [0.0]]])


def test_frobenius_is_weight_norm():
    rep = random_odeco((3, 4, 5), 3, 2)
    assert frobenius(to_dense(rep)) == pytest.approx(
        float(np.linalg.norm(rep.alphas)), rel=1e-12
    )


def test_spectra_are_padded_weights():
    rep = random_odeco((3, 4, 3), 2, 3)
    dense = to_dense(rep)
    for d, n in enumerate((3, 4, 3), start=1):
        expected = np.concatenate([rep.alphas, np.zeros(n - rep.rank)])
        assert np.allclose(mode_spectrum(dense, d), expected, atol=1e-10)


def test_odeco_hosvd():
    rep = random_odeco((3, 3, 3), 2, 4)
    h = odeco_hosvd(rep)
    dense = to_dense(rep)
    assert frobenius(hosvd_reconstruct(h) - dense) <= 1e-10 * max(
        1.0, frobenius(dense)
    )
    assert all(is_orthogonal(u, 1e-12) for u in h.factors)
    assert np.max(core_orthogonality_report(h)) <= 1e-10 * frobenius(dense) ** 2
    diag = h.core[tuple(np.arange(3) for _ in range(3))]
    assert np.allclose(diag, np.concatenate([rep.alphas, [0.0]]), atol=1e-14)


def test_odeco_hosvd_identity_case():
    rep = make_odeco([2.0, 1.0], [np.eye(2)] * 3)
    h = odeco_hosvd(rep)
    assert np.array_equal(h.core, to_dense(rep))
    for u in h.factors:
        assert np.array_equal(u, np.eye(2))


def test_random_odeco_deterministic():
    a = random_odeco((3, 3, 3), 2, 99)
    b = random_odeco((3, 3, 3), 2, 99)
    assert np.array_equal(a.alphas, b.alphas)
    assert all(np.array_equal(x, y) for x, y in zip(a.factors, b.factors))
    with pytest.raises(ValueError, match="rank"):
        random_odeco((3, 3, 3), 4, 0)


@pytest.mark.parametrize("dims", [(3, 4, 3), (2, 3, 4, 2)])
def test_random_odeco_equals_per_mode_draws(dims):
    # reference: one sub-seed per mode in mode order, each its own 2-D QR
    for seed in range(5):
        r = 1 + seed % min(dims)
        rng = np.random.default_rng(seed)
        alphas = np.sort(np.abs(rng.standard_normal(r)))[::-1] + 0.1
        rep = random_odeco(dims, r, seed)
        assert np.array_equal(rep.alphas, alphas)
        for n, factor in zip(dims, rep.factors):
            sub = np.random.default_rng(int(rng.integers(0, 2**63 - 1)))
            q, rr = np.linalg.qr(sub.standard_normal((n, n)))
            d = np.diag(rr)
            haar = q * np.where(d == 0.0, 1.0, np.sign(d))
            assert np.array_equal(factor, haar[:, :r])


# sha256 of alphas then factors, shapes with repeated mode sizes out of order
ODECO_DRAW_PINS = {
    ((3, 5, 3), 3, 0): "e623defe0e32193877a96f41055b58e5ddf4823d4baec352937ce85b339b6cd7",
    ((3, 5, 3), 3, 7): "c3f621b5628390ed5dc4eba634955d155321fb1621ba84e5ebdcac5c9d7ff2e3",
    ((4, 2, 4, 2), 2, 1): "8ee503e23bf2bed2dabf6a42fa03956c8450bb38e8284a5aec062027e537666f",
    ((4, 2, 4, 2), 2, 7): "68a798687e9fa05929aed14fa4e6fe10fb5865b5aa0c9ac027bd988604c21440",
    ((24, 24, 24), 5, 0): "0c71fbd7e5400659e40a1a030a9d053e7a09198624ab79980c1cfbd39533b055",
    ((24, 24, 24), 5, 1): "202250ecf28471ec944ea623c9ffa4eaa23f9bfa86dca97069c7abc19b1f4f64",
}


@pytest.mark.parametrize("args", ODECO_DRAW_PINS, ids=str)
def test_random_odeco_draws_keep_their_bytes(args):
    rep = random_odeco(*args)
    blob = rep.alphas.tobytes() + b"".join(f.tobytes() for f in rep.factors)
    assert hashlib.sha256(blob).hexdigest() == ODECO_DRAW_PINS[args]


def test_random_symmetric_odeco():
    rep = random_symmetric_odeco(3, 3, 2, 5)
    assert all(np.array_equal(f, rep.factors[0]) for f in rep.factors)
    dense = to_dense(rep)
    assert is_symmetric(dense, tol=1e-10)
    spectra = np.vstack(all_mode_spectra(dense))
    assert np.max(spectra.max(axis=0) - spectra.min(axis=0)) <= 1e-10


def test_symmetric_odeco_matrix_case():
    # D = 2 with one shared factor is a symmetric PSD eigendecomposition
    rep = random_symmetric_odeco(3, 2, 3, 6)
    dense = to_dense(rep)
    assert np.allclose(dense, dense.T, atol=1e-14)
    eigenvalues = np.sort(np.linalg.eigvalsh(dense))[::-1]
    assert np.allclose(eigenvalues, rep.alphas, atol=1e-10)


def test_norm_identities():
    rep = random_odeco((4, 4, 4), 3, 7)
    dense = to_dense(rep)
    assert nuclear_norm(dense) == pytest.approx(float(np.sum(rep.alphas)), rel=1e-10)
    for p, q, lam in [(1.0, 1.0, 1 / 3), (2.0, 2.0, 1.0), (3.0, 2.0, 0.5)]:
        value = schatten_norm(dense, SchattenParams(p, q, lam))
        expected = lam * 3 ** (1.0 / q) * float(np.linalg.norm(rep.alphas, ord=p))
        assert value == pytest.approx(expected, rel=1e-10), (p, q, lam)


def test_norm_identity_q_one_factor():
    # sanity pin for the D^(1/q) factor: q = 1 gives a plain factor D
    rep = random_odeco((3, 3), 2, 8)
    value = schatten_norm(to_dense(rep), SchattenParams(2.0, 1.0, 1.0))
    assert value == pytest.approx(
        2.0 * float(np.linalg.norm(rep.alphas)), rel=1e-10
    )


@pytest.mark.parametrize(
    "alphas, factors, message",
    [
        ([], [np.eye(2)] * 3, "alphas: expected a nonempty vector of weights"),
        ([1.0, math.nan], [np.eye(2)] * 3, "alphas: weights must be finite"),
        ([1.0, math.inf], [np.eye(2)] * 3, "alphas: weights must be finite"),
        ([1.0], [np.ones((2, 1)) / math.sqrt(2.0)], "factors: need at least 2 modes"),
        ([1.0, 0.5], [np.eye(2), np.eye(2)[:, :1]], "factors: mode 2 must be a matrix with 2 columns"),
    ],
    ids=["no weights", "nan weight", "inf weight", "one factor", "column count"],
)
def test_each_rejected_representation_names_its_field(alphas, factors, message):
    with pytest.raises(ValueError, match=message):
        make_odeco(alphas, factors)
