import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorspectra import (
    SchattenParams,
    all_mode_spectra,
    check_membership,
    combined_spectrum,
    core_orthogonality_report,
    estimate_tensor_conjugate,
    frobenius,
    hosvd,
    hosvd_reconstruct,
    is_orthogonal,
    is_symmetric,
    matricize,
    mode_spectrum,
    nuclear_norm,
    svd,
    outer,
    random_odeco,
    schatten_norm,
    subgradient_inequality_test,
    symmetrize,
    to_dense,
    vn_report,
)
from tensorspectra.tensor import multi_mode_mul


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


    @pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 4, 2), (5, 1, 3)])
    def test_rows_equal_mode_spectrum_bit_for_bit(self, shape):
        # the stacked and the per-mode routine decompose the same unfolding in
        # the same (tall) orientation
        from tensorspectra.spectral import _stacked_spectra

        x = np.random.default_rng(sum(shape)).standard_normal(shape)
        padded = _stacked_spectra(x[None])[0]
        for d, n in enumerate(shape, start=1):
            assert np.array_equal(padded[d - 1, :n], mode_spectrum(x, d))

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


class TestSpectraMemo:
    """The two-entry memo behind the norms, ``all_mode_spectra`` and the dual ratio."""

    @staticmethod
    def fresh(x):
        from tensorspectra.spectral import _stacked_spectra

        return _stacked_spectra(x[None])[0]

    def test_hit_returns_the_stored_bits(self):
        from tensorspectra.spectral import _spectra

        x = np.random.default_rng(40).standard_normal((3, 4, 5))
        first = _spectra(x)
        hit = _spectra(x.copy())
        assert hit is first
        assert not hit.flags.writeable
        assert hit.tobytes() == self.fresh(x).tobytes()

    def test_an_in_place_change_misses(self):
        from tensorspectra.spectral import _spectra

        x = np.random.default_rng(41).standard_normal((3, 4, 5))
        before = _spectra(x).copy()
        x[0, 0, 0] += 1.0
        after = _spectra(x)
        assert after.tobytes() == self.fresh(x).tobytes()
        assert not np.array_equal(after, before)

    def test_signed_zeros_are_distinct_keys(self):
        from tensorspectra.spectral import _spectra

        x = np.random.default_rng(42).standard_normal((3, 3, 3))
        x[1, 2, 0] = 0.0
        y = x.copy()
        y[1, 2, 0] = -0.0
        assert np.array_equal(x, y)
        first = _spectra(x)
        assert _spectra(y) is not first
        assert _spectra(y) is _spectra(y)

    def test_all_mode_spectra_stay_writable_and_private(self):
        from tensorspectra.spectral import _spectra

        x = np.random.default_rng(43).standard_normal((2, 3, 4))
        spectra = all_mode_spectra(x)
        expected = [s.tobytes() for s in spectra]
        for s in spectra:
            assert s.flags.writeable
            s[:] = -1.0
        assert [s.tobytes() for s in all_mode_spectra(x)] == expected
        assert _spectra(x).tobytes() == self.fresh(x).tobytes()

    def test_norms_over_the_grid_decompose_once(self, monkeypatch):
        from tensorspectra import spectral
        from tensorspectra.verify import _param_grid

        original = spectral.singular_values
        calls = []

        def counted(mat):
            calls.append(np.shape(mat))
            return original(mat)

        monkeypatch.setattr(spectral, "singular_values", counted)
        x = np.random.default_rng(44).standard_normal((3, 4, 2, 2))
        spectra = all_mode_spectra(x)
        norms = [schatten_norm(x, params) for params in _param_grid(x.ndim)]
        assert len(calls) == x.ndim
        # the grid's second point is p = q = 2: sqrt(D) ||x||_F
        assert norms[1] == pytest.approx(2.0 * frobenius(x), rel=1e-12)
        assert len(spectra) == x.ndim

    def test_threads_sharing_the_entry_see_their_own_spectra(self):
        # more threads than cores, each on its own tensor, switching often, so
        # hits and replacements of the one entry interleave
        import sys
        import threading

        from tensorspectra.spectral import _spectra

        rng = np.random.default_rng(45)
        shapes = [(3, 4, 5), (4, 3, 5), (5, 4, 3), (3, 4, 5)]
        tensors = [rng.standard_normal(shape) for shape in shapes]
        expected = [self.fresh(t).tobytes() for t in tensors]
        start = threading.Barrier(len(tensors))
        wrong = [0] * len(tensors)
        done = [0] * len(tensors)

        def work(i):
            start.wait()
            for _ in range(200):
                if _spectra(tensors[i]).tobytes() != expected[i]:
                    wrong[i] += 1
                done[i] += 1

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(tensors))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert done == [200] * len(tensors)
        assert wrong == [0] * len(tensors)

    @staticmethod
    def counted_calls(monkeypatch) -> list:
        # shapes of the matrices spectral's binding of singular_values sees,
        # starting from an empty entry
        from tensorspectra import spectral

        original = spectral.singular_values
        calls = []

        def counted(mat):
            calls.append(np.shape(mat))
            return original(mat)

        monkeypatch.setattr(spectral, "singular_values", counted)
        monkeypatch.setattr(spectral, "_last_spectra", None)
        return calls

    @pytest.mark.parametrize("shape", [(3, 4, 5), (4, 4, 4), (2, 3, 4, 2)])
    def test_a_cold_membership_check_decomposes_each_operand_once(
        self, shape, monkeypatch
    ):
        # N(x) and the x side of the trace inequalities read one entry, the
        # y side and y's dual ratio the next: one call per mode and operand
        rng = np.random.default_rng(46)
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        calls = self.counted_calls(monkeypatch)
        certificate = check_membership(x, y, SchattenParams(3.0, 2.0, 1.0))
        assert len(calls) == 2 * len(shape)
        assert not certificate.accepted

    def test_mode_spectrum_after_a_norm_decomposes_nothing(self, monkeypatch):
        x = np.random.default_rng(47).standard_normal((3, 4, 5))
        params = SchattenParams(3.0, 2.0, 1.0)
        expected = [row[:n].tobytes() for row, n in zip(self.fresh(x), x.shape)]
        calls = self.counted_calls(monkeypatch)
        norm = schatten_norm(x, params)
        assert len(calls) == x.ndim
        spectra = [mode_spectrum(x, d) for d in (1, 2, 3)]
        assert len(calls) == x.ndim
        assert [s.tobytes() for s in spectra] == expected
        for s in spectra:
            assert s.flags.writeable
            s[:] = -1.0
        assert schatten_norm(x, params) == norm
        assert [s.tobytes() for s in all_mode_spectra(x)] == expected
        assert len(calls) == x.ndim


    def test_alternating_two_tensors_hits_both_entries(self, monkeypatch):
        from tensorspectra.spectral import _spectra

        rng = np.random.default_rng(48)
        x, y, z = (rng.standard_normal((3, 4, 5)) for _ in range(3))
        expected = self.fresh(x).tobytes()
        calls = self.counted_calls(monkeypatch)
        first = {"x": _spectra(x), "y": _spectra(y)}
        for _ in range(3):
            assert _spectra(x) is first["x"] and _spectra(y) is first["y"]
        assert len(calls) == 2 * x.ndim
        # a third tensor evicts the one used least recently, here x
        _spectra(y)
        _spectra(z)
        assert _spectra(y) is first["y"]
        assert len(calls) == 3 * x.ndim
        assert _spectra(x) is not first["x"]
        assert _spectra(x).tobytes() == first["x"].tobytes() == expected
        assert len(calls) == 4 * x.ndim

    def test_a_certify_sweep_decomposes_its_point_and_each_candidate_once(
        self, monkeypatch
    ):
        # one odeco point and its candidates g and 2g over the grid, as the
        # certify-small benchmark sweeps them: x's entry survives each
        # candidate, so x is decomposed once; 2g reads g's entry scaled, and
        # N(g) in the subgradient test reads 2g's, so g is decomposed once
        from tensorspectra import schatten_subgradient, spectral
        from tensorspectra.verify import _param_grid

        rep = random_odeco((3, 3, 3), 3, 5)
        x = to_dense(rep)
        grid = _param_grid(x.ndim)
        subgradient_inequality_test(x, x, grid[0], trials=200, seed=0)
        calls = self.counted_calls(monkeypatch)
        counted = spectral.singular_values
        unfoldings = []
        monkeypatch.setattr(
            spectral, "singular_values", lambda m: unfoldings.append(m.tobytes()) or counted(m)
        )
        for params in grid:
            g = schatten_subgradient(rep, params)
            assert check_membership(x, g, params).accepted
            assert not check_membership(x, 2.0 * g, params).accepted
            assert subgradient_inequality_test(x, g, params, trials=200, seed=0) >= -1e-9
        assert calls == [(1, 3, 9)] * (x.ndim * (1 + len(grid)))
        of_x = {matricize(x, d).tobytes() for d in range(1, x.ndim + 1)}
        assert sum(m in of_x for m in unfoldings) == x.ndim



class TestScaleShare:
    """A power-of-two multiple of a kept tensor reads its entry scaled."""

    fresh = staticmethod(TestSpectraMemo.fresh)

    @staticmethod
    def spied():
        # spectral's binding of singular_values, counted, and empty entries
        from tensorspectra import spectral

        return (
            mock.patch.object(spectral, "singular_values", wraps=spectral.singular_values),
            mock.patch.object(spectral, "_last_spectra", None),
        )

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 5), min_size=2, max_size=4).map(tuple),
        seed=st.integers(0, 2**32 - 1),
        sparse=st.booleans(),
        exponent=st.integers(-256, 256),
    )
    def test_a_multiple_in_the_band_decomposes_nothing(self, shape, seed, sparse, exponent):
        # x = 2^k t with max|x| = 2^(exponent - 1) m, m in [1, 2), so both
        # largest magnitudes lie in the band [2^-257, 2^256) and every entry
        # of x is exact
        from tensorspectra.spectral import _spectra

        rng = np.random.default_rng(seed)
        t = rng.standard_normal(shape)
        if sparse:
            t.ravel()[1:][rng.random(t.size - 1) < 0.5] = 0.0
        k = exponent - math.frexp(float(np.max(np.abs(t))))[1]
        assume(k != 0)
        x = np.ldexp(t, k)
        spy, empty = self.spied()
        with spy as calls, empty:
            _spectra(t)
            before = calls.call_count
            shared = _spectra(x)
            assert calls.call_count == before
            assert _spectra(x) is shared and not shared.flags.writeable
        assert shared.tobytes() == self.fresh(x).tobytes()

    def kept_then(self, t, x) -> tuple[int, np.ndarray]:
        # singular_values calls of _spectra(x) after t's, and x's spectra
        from tensorspectra.spectral import _spectra

        spy, empty = self.spied()
        with spy as calls, empty:
            _spectra(t)
            before = calls.call_count
            spectra = _spectra(x)
            return calls.call_count - before, spectra

    def test_the_first_entry_alone_decides_nothing(self):
        t = np.random.default_rng(60).standard_normal((3, 4, 5))
        x = np.ldexp(t, 3)
        x[2, 3, 4] += 1.0
        calls, spectra = self.kept_then(t, x)
        assert calls == x.ndim
        assert spectra.tobytes() == self.fresh(x).tobytes()

    @pytest.mark.parametrize("base, k", [(0, 300), (0, -300), (-300, 300), (300, -1)])
    def test_an_operand_outside_the_band_decomposes(self, base, k):
        # base shifts t, k then x: one of the two largest magnitudes lies
        # outside [2^-257, 2^256), where LAPACK rescales its input
        t = np.ldexp(np.random.default_rng(61).standard_normal((3, 3, 3)), base)
        x = np.ldexp(t, k)
        calls, spectra = self.kept_then(t, x)
        assert calls == x.ndim
        assert spectra.tobytes() == self.fresh(x).tobytes()

    def test_signed_zeros_differ(self):
        t = np.random.default_rng(62).standard_normal((3, 3, 3))
        t[1, 2, 0] = 0.0
        x = np.ldexp(t, -2)
        x[1, 2, 0] = -0.0
        calls, spectra = self.kept_then(t, x)
        assert calls == x.ndim
        assert spectra.tobytes() == self.fresh(x).tobytes()

    def test_a_zero_first_entry_decomposes(self):
        t = np.random.default_rng(63).standard_normal((2, 3, 4))
        t[0, 0, 0] = 0.0
        calls, _ = self.kept_then(t, 2.0 * t)
        assert calls == t.ndim

    def test_a_multiple_changed_in_place_decomposes(self):
        from tensorspectra.spectral import _spectra

        t = np.random.default_rng(64).standard_normal((3, 4, 5))
        x = 4.0 * t
        spy, empty = self.spied()
        with spy as calls, empty:
            _spectra(t)
            assert _spectra(x).tobytes() == np.ldexp(_spectra(t), 2).tobytes()
            assert calls.call_count == x.ndim
            x[1, 1, 1] += 1.0
            spectra = _spectra(x)
            assert calls.call_count == 2 * x.ndim
        assert spectra.tobytes() == self.fresh(x).tobytes()


# spectra-large's five shapes, cubes, one mode below dgesdd's QR crossover
# ((48, 6, 6): 36 < int(11 * 48 / 6) rows), and matrices below it
HOSVD_SHAPES = [
    (32, 32, 32),
    (48, 48, 48),
    (64, 32, 16),
    (48, 6, 6),
    (12, 12, 12, 12),
    (8, 8, 8),
    (16, 16, 16),
    (24, 24, 24),
    (3, 4),
    (6, 8),
]


class TestHosvdEntry:
    """``hosvd`` stores the spectra entry of the tensor it reduces."""

    fresh = staticmethod(TestSpectraMemo.fresh)
    counted_calls = staticmethod(TestSpectraMemo.counted_calls)

    @staticmethod
    def unfilled_hosvd(x) -> tuple:
        # the factors and core of a hosvd that stores no values: the left
        # singular vectors of each tall or square unfolding, or of R^T with
        # R = qr(X_(d)^T, mode="r") for a wide one
        factors = []
        for d in range(1, x.ndim + 1):
            unf = matricize(x, d)
            if unf.shape[0] < unf.shape[1]:
                unf = np.linalg.qr(unf.T, mode="r").T
            factors.append(svd(unf).u)
        return tuple(factors), multi_mode_mul(x, [u.T for u in factors])

    @pytest.mark.parametrize("shape", HOSVD_SHAPES, ids=str)
    def test_norms_after_hosvd_decompose_nothing(self, shape, monkeypatch):
        from tensorspectra import spectral

        x = np.random.default_rng(65).standard_normal(shape)
        params = SchattenParams(3.0, 2.0, 1.0)
        calls = self.counted_calls(monkeypatch)
        h = hosvd(x)
        assert len(calls) == x.ndim
        spectra = all_mode_spectra(x)
        norm = schatten_norm(x, params)
        assert len(calls) == x.ndim
        expected = self.fresh(x)
        assert [s.tobytes() for s in spectra] == [
            row[:n].tobytes() for row, n in zip(expected, shape)
        ]
        monkeypatch.setattr(spectral, "_last_spectra", None)
        assert norm == schatten_norm(x, params)
        factors, core = self.unfilled_hosvd(x)
        assert [u.tobytes() for u in h.factors] == [u.tobytes() for u in factors]
        assert h.core.tobytes() == core.tobytes()

    @pytest.mark.parametrize("shape", [(5, 4, 3), (2, 3, 4, 5), (6, 8)], ids=str)
    def test_hosvd_of_a_kept_tensor_computes_no_values(self, shape, monkeypatch):
        from tensorspectra.spectral import _spectra

        x = np.random.default_rng(66).standard_normal(shape)
        calls = self.counted_calls(monkeypatch)
        kept = _spectra(x)
        warm = hosvd(x)
        scaled = hosvd(0.5 * x)
        assert len(calls) == x.ndim
        assert _spectra(x) is kept
        factors, core = self.unfilled_hosvd(x)
        assert [u.tobytes() for u in warm.factors] == [u.tobytes() for u in factors]
        assert warm.core.tobytes() == core.tobytes()
        assert [u.tobytes() for u in scaled.factors] == [
            u.tobytes() for u in self.unfilled_hosvd(0.5 * x)[0]
        ]

    def test_an_operand_outside_the_band_reads_its_unfoldings(self, monkeypatch):
        # LAPACK rescales X_(d)^T and R by different factors there, so R's
        # values are not a fresh decomposition's
        x = np.ldexp(np.random.default_rng(67).standard_normal((16, 16, 16)), -600)
        calls = self.counted_calls(monkeypatch)
        hosvd(x)
        assert calls == [(16, 256)] * 3
        assert [s.tobytes() for s in all_mode_spectra(x)] == [
            row.tobytes() for row in self.fresh(x)
        ]


_DOMAIN_PARAMS = SchattenParams(2.0, 2.0, 1.0)
_ENTRY_POINTS = {
    "hosvd": hosvd,
    "all_mode_spectra": all_mode_spectra,
    "schatten_norm": lambda x: schatten_norm(x, _DOMAIN_PARAMS),
    "mode_spectrum": lambda x: mode_spectrum(x, 1),
    "nuclear_norm": nuclear_norm,
    "estimate_tensor_conjugate": lambda x: estimate_tensor_conjugate(
        x, _DOMAIN_PARAMS, budget=10
    ),
    "check_membership": lambda x: check_membership(x, x, _DOMAIN_PARAMS),
    "subgradient_inequality_test": lambda x: subgradient_inequality_test(
        x, x, _DOMAIN_PARAMS, trials=10
    ),
    "vn_report": lambda x: vn_report(x, x),
    "is_symmetric": is_symmetric,
    "symmetrize": symmetrize,
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "x, message",
    [
        (np.array(1.0), "a tensor needs at least 2 modes"),
        (np.ones(3), "a tensor needs at least 2 modes"),
        (np.zeros((2, 0, 3)), "mode sizes must be positive"),
    ],
    ids=["0-d", "1-D", "2x0x3"],
)
def test_out_of_domain_shapes_are_rejected(name, x, message):
    # the errors of as_tensor, from every entry point that decomposes or
    # symmetrizes
    with pytest.raises(ValueError, match=f"^shape: {message}$"):
        _ENTRY_POINTS[name](x)
