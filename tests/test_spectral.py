import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorspectra import (
    SchattenParams,
    all_mode_spectra,
    combined_spectrum,
    core_orthogonality_report,
    frobenius,
    hosvd,
    hosvd_reconstruct,
    is_orthogonal,
    matricize,
    mode_spectrum,
    nuclear_norm,
    svd,
    outer,
    random_odeco,
    schatten_norm,
    symmetrize,
    to_dense,
)


def diag_tensor(shape, values):
    x = np.zeros(shape)
    for j, v in enumerate(values):
        x[(j,) * len(shape)] = v
    return x


DIAG21 = diag_tensor((2, 2, 2), [2.0, 1.0])


def sign_anchored(u):
    """The first entry above 1e-12 in magnitude of each column is >= 0."""
    for col in u.T:
        anchors = np.nonzero(np.abs(col) > 1e-12)[0]
        if anchors.size and col[anchors[0]] < 0:
            return False
    return True


class TestHosvd:
    def test_diagonal(self):
        h = hosvd(DIAG21)
        assert np.allclose(h.core, DIAG21, atol=1e-12)
        for u in h.factors:
            assert np.allclose(u, np.eye(2), atol=1e-12)

    def test_zero(self):
        h = hosvd(np.zeros((2, 3, 2)))
        assert np.array_equal(h.core, np.zeros((2, 3, 2)))
        assert all(is_orthogonal(u, 1e-12) for u in h.factors)

    @pytest.mark.parametrize("shape", [(5, 4, 3), (3, 3, 3, 3), (2, 3, 4, 5)])
    def test_wide_unfoldings_match_full_svd(self, shape):
        # the R-factor reduction keeps the factor and its sign convention
        x = np.random.default_rng(12).standard_normal(shape)
        for d, u in enumerate(hosvd(x).factors, start=1):
            full = svd(matricize(x, d)).u
            assert np.max(np.abs(u - full)) <= 1e-12

    @pytest.mark.parametrize("shape, modes", [((10, 2, 2), (1,)), ((4, 4), (1, 2))])
    def test_square_and_tall_unfoldings_unchanged(self, shape, modes):
        x = np.random.default_rng(13).standard_normal(shape)
        h = hosvd(x)
        for d in modes:
            assert np.array_equal(h.factors[d - 1], svd(matricize(x, d)).u)

    @pytest.mark.parametrize(
        "x",
        [
            outer([np.arange(1.0, 4.0), -np.arange(1.0, 5.0), np.ones(5)]),
            np.zeros((2, 3, 2)),
        ],
        ids=["outer", "zeros"],
    )
    def test_rank_deficient_wide(self, x):
        h = hosvd(x)
        assert all(is_orthogonal(u, 1e-12) for u in h.factors)
        assert all(sign_anchored(u) for u in h.factors)
        assert frobenius(hosvd_reconstruct(h) - x) <= 1e-12 * max(1.0, frobenius(x))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [(0, 0, 0), (2, 1, 1), (4, 3, 2)])
    def test_non_finite_rejected(self, value, index):
        x = np.ones((5, 4, 3))
        x[index] = value
        with pytest.raises(ValueError, match="matrix: entries must be finite"):
            hosvd(x)

    def test_allocation_bounded_by_input(self):
        # a few copies of the input, and no 1600 x 1600 V^T per mode
        x = np.random.default_rng(14).standard_normal((40, 40, 40))
        already = tracemalloc.is_tracing()
        if not already:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            hosvd(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not already:
                tracemalloc.stop()
        assert peak <= 6 * x.nbytes

    def test_random_invariants(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4, 5))
        h = hosvd(x)
        assert frobenius(hosvd_reconstruct(h) - x) <= 1e-10 * frobenius(x)
        assert all(is_orthogonal(u, 1e-12) for u in h.factors)
        report = core_orthogonality_report(h)
        assert np.max(report) <= 1e-10 * frobenius(x) ** 2
        # rows of each core unfolding have norms equal to the mode spectrum
        for d in (1, 2, 3):
            unf = matricize(h.core, d)
            assert np.allclose(
                np.sqrt(np.sum(unf**2, axis=1)),
                mode_spectrum(x, d),
                atol=1e-10 * max(1.0, frobenius(x)),
            )


class TestSpectra:
    def test_diagonal_spectrum(self):
        for d in (1, 2, 3):
            assert np.allclose(mode_spectrum(DIAG21, d), [2.0, 1.0], atol=1e-14)

    def test_rank_one(self):
        rng = np.random.default_rng(1)
        vecs = [rng.standard_normal(n) for n in (2, 3, 4)]
        x = outer(vecs)
        scale = np.prod([np.linalg.norm(v) for v in vecs])
        for d in (1, 2, 3):
            s = mode_spectrum(x, d)
            assert s[0] == pytest.approx(scale, rel=1e-12)
            assert np.max(np.abs(s[1:])) <= 1e-12 * scale

    def test_zero(self):
        assert np.array_equal(mode_spectrum(np.zeros((3, 3)), 1), np.zeros(3))

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="mode"):
            mode_spectrum(np.ones((2, 2)), 5)

    def test_spectrum_norm_equals_frobenius(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4, 2))
        for s in all_mode_spectra(x):
            assert np.linalg.norm(s) == pytest.approx(frobenius(x), rel=1e-10)

    def test_symmetric_spectra_agree(self):
        rng = np.random.default_rng(3)
        x = symmetrize(rng.standard_normal((3, 3, 3)))
        spectra = np.vstack(all_mode_spectra(x))
        assert np.max(spectra.max(axis=0) - spectra.min(axis=0)) <= 1e-10 * max(
            1.0, frobenius(x)
        )

    def test_odeco_spectra_agree(self):
        x = to_dense(random_odeco((3, 3, 3), 2, 4))
        spectra = np.vstack(all_mode_spectra(x))
        assert np.max(spectra.max(axis=0) - spectra.min(axis=0)) <= 1e-10 * max(
            1.0, frobenius(x)
        )

    def test_combined_scaling(self):
        combined = combined_spectrum(DIAG21)
        for s in combined:
            assert np.allclose(s, np.array([2.0, 1.0]) / math.sqrt(3.0), atol=1e-14)
        doubled = combined_spectrum(2.0 * DIAG21)
        for a, b in zip(doubled, combined):
            assert np.allclose(a, 2.0 * b, atol=1e-14)


class TestNorms:
    def test_diag_nuclear_value(self):
        # each mode spectrum is (2, 1), so the average of the sums is 3
        assert schatten_norm(DIAG21, SchattenParams(1, 1, 1 / 3)) == pytest.approx(
            3.0, abs=1e-12
        )
        assert nuclear_norm(DIAG21) == pytest.approx(3.0, abs=1e-12)

    def test_diag_frobenius_family(self):
        # 3 * (4 + 1) = 15 across modes
        assert schatten_norm(DIAG21, SchattenParams(2, 2, 1)) == pytest.approx(
            math.sqrt(15.0), abs=1e-12
        )

    def test_sqrt_d_frobenius_identity(self):
        rng = np.random.default_rng(5)
        for ndim in (2, 3, 4):
            x = rng.standard_normal((3,) * ndim)
            value = schatten_norm(x, SchattenParams(2, 2, 1))
            assert value == pytest.approx(math.sqrt(ndim) * frobenius(x), rel=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 4))
        params = SchattenParams(3, 2, 0.7)
        assert schatten_norm(2.5 * x, params) == pytest.approx(
            2.5 * schatten_norm(x, params), rel=1e-12
        )
        assert schatten_norm(np.zeros((2, 2)), params) == 0.0

    def test_triangle_inequality_sample(self):
        rng = np.random.default_rng(7)
        for k in range(100):
            params = [
                SchattenParams(1, 1, 1 / 3),
                SchattenParams(2, 2, 1),
                SchattenParams(3, 2, 1),
            ][k % 3]
            x = rng.standard_normal((3, 3, 3))
            y = rng.standard_normal((3, 3, 3))
            slack = (
                schatten_norm(x, params)
                + schatten_norm(y, params)
                - schatten_norm(x + y, params)
            )
            assert slack >= -1e-10

    def test_nuclear_of_odeco(self):
        rep = random_odeco((4, 4, 4), 3, 8)
        assert nuclear_norm(to_dense(rep)) == pytest.approx(
            float(np.sum(rep.alphas)), rel=1e-10
        )

    def test_matrix_case_matches_direct_svd(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 4))
        expected = float(np.sum(np.linalg.svd(m, compute_uv=False)))
        assert nuclear_norm(m) == pytest.approx(expected, rel=1e-12)

    def test_param_validation(self):
        with pytest.raises(ValueError, match="p"):
            SchattenParams(0.5, 1, 1)
        with pytest.raises(ValueError, match="lam"):
            SchattenParams(1, 1, 0.0)


class TestCoreReport:
    def test_valid_decomposition(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 3, 3))
        report = core_orthogonality_report(hosvd(x))
        assert np.max(report) <= 1e-10 * frobenius(x) ** 2

    def test_perturbed_core_detected(self):
        rng = np.random.default_rng(11)
        h = hosvd(rng.standard_normal((3, 3, 3)))
        bad = h.core.copy()
        bad += 0.5  # off-diagonal mass in every unfolding gram matrix
        report = core_orthogonality_report(type(h)(core=bad, factors=h.factors))
        assert np.max(report) > 1e-3

    def test_zero(self):
        report = core_orthogonality_report(hosvd(np.zeros((2, 2, 2))))
        assert np.array_equal(report, np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    exponent=st.integers(-150, 150),
    seed=st.integers(0, 2**31 - 1),
)
def test_hosvd_properties(shape, exponent, seed):
    x = 10.0**exponent * np.random.default_rng(seed).standard_normal(shape)
    h = hosvd(x)
    norm_x = frobenius(x)
    assert frobenius(hosvd_reconstruct(h) - x) <= 1e-10 * max(1.0, norm_x)
    assert all(is_orthogonal(u, 1e-12) for u in h.factors)
    assert all(sign_anchored(u) for u in h.factors)
    assert np.max(core_orthogonality_report(h)) <= 1e-10 * norm_x**2


@pytest.mark.parametrize("exponent", [-305, 305])
@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 2, 3), (2, 3, 2, 2)])
def test_hosvd_at_the_ends_of_binary64(shape, exponent):
    # squares of these entries overflow or underflow; no step may square them
    x = 10.0**exponent * np.random.default_rng(7).standard_normal(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = hosvd(x)
        residual = frobenius(hosvd_reconstruct(h) - x) / frobenius(x)
    assert residual <= 1e-13
    assert all(is_orthogonal(u, 1e-12) for u in h.factors)
    assert all(sign_anchored(u) for u in h.factors)


class TestStackedSpectra:
    @pytest.mark.parametrize("shape", [(10, 2, 2), (3, 4, 3), (2, 3, 4, 5), (3, 3, 3)])
    def test_stack_matches_per_tensor_spectra(self, shape):
        from tensorspectra.spectral import _stacked_spectra

        stack = np.random.default_rng(len(shape)).standard_normal((4,) + shape)
        padded = _stacked_spectra(stack)
        assert padded.shape == (4, len(shape), max(shape))
        for i, x in enumerate(stack):
            for d, (s, n) in enumerate(zip(all_mode_spectra(x), shape)):
                assert s.shape == (n,)
                assert np.max(np.abs(padded[i, d, :n] - s)) <= 1e-14
                assert not padded[i, d, n:].any()
                assert np.max(np.abs(mode_spectrum(x, d + 1) - s)) <= 1e-14


class TestScaleSafeNorm:
    """Overflow-prone exponents on a 3^3 Gaussian tensor times 100."""

    X = 100.0 * np.random.default_rng(0).standard_normal((3, 3, 3))

    def test_large_p_is_finite(self):
        value = schatten_norm(self.X, SchattenParams(200, 1, 1))
        # ||s||_200 by max-scaling, per mode, from an independent SVD
        expected = 0.0
        for d in range(3):
            s = np.linalg.svd(np.moveaxis(self.X, d, 0).reshape(3, -1), compute_uv=False)
            expected += s[0] * float(np.sum((s / s[0]) ** 200)) ** (1 / 200)
        assert value == pytest.approx(expected, rel=1e-12)
        assert 1.0e3 < value < 1.2e3

    def test_large_q_does_not_overflow(self):
        # every mode spectrum has l_2 norm ||X||_F, so N = 3^(1/200) ||X||_F
        value = schatten_norm(self.X, SchattenParams(2, 200, 1))
        assert value == pytest.approx(3 ** (1 / 200) * frobenius(self.X), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    p_exp=st.floats(0.0, 3.0),
    q_exp=st.floats(0.0, 3.0),
    scale_exp=st.integers(-150, 150),
    shape=st.sampled_from([(3, 3, 3), (2, 4), (3, 2, 4), (2, 2, 2, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_norm_scale_safe_property(p_exp, q_exp, scale_exp, shape, seed):
    from tensorspectra import schatten_value_tuple

    params = SchattenParams(10.0**p_exp, 10.0**q_exp, 1.0)
    scale = 10.0**scale_exp
    x = np.random.default_rng(seed).standard_normal(shape)
    value = schatten_norm(scale * x, params)
    assert math.isfinite(value) and value > 0.0
    # positive homogeneity against the unscaled tensor
    assert value == pytest.approx(scale * schatten_norm(x, params), rel=1e-10)
    # the tensor norm is the tuple norm of the zero-padded spectra
    spectra = all_mode_spectra(scale * x)
    padded = np.zeros((len(shape), max(shape)))
    for d, s in enumerate(spectra):
        padded[d, : s.size] = s
    assert schatten_value_tuple(padded, params) == pytest.approx(value, rel=1e-12)
