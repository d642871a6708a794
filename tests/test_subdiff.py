import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from collections import OrderedDict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorspectra import (
    DualExponents,
    SchattenParams,
    all_mode_spectra,
    check_membership,
    conjugate_value_tuple,
    dual_vector_maximizer,
    estimate_tensor_conjugate,
    frobenius,
    holder_conjugate,
    hosvd,
    inner,
    lp_norm,
    make_odeco,
    mixed_norm,
    nuclear_norm,
    random_odeco,
    random_symmetric_odeco,
    schatten_norm,
    schatten_subgradient,
    schatten_value_tuple,
    subgradient_inequality_test,
    svd,
    to_dense,
    tuple_membership,
    tuple_subgradient,
)
from tensorspectra import multi_mode_mul, random_orthogonal, subdiff, symmetrize
from tensorspectra.linalg import _random_orthogonals
from tensorspectra.spectral import _mixed_norm, _schatten_norms, _stacked_spectra
from tensorspectra.verify import grid_best_pairing

PARAM_GRID_3 = [
    SchattenParams(1, 1, 1 / 3),
    SchattenParams(2, 2, 1),
    SchattenParams(3, 2, 1),
    SchattenParams(2, 1, 1),
    SchattenParams(1, 2, 1 / 3),
]


def diag_tensor(shape, values):
    x = np.zeros(shape)
    for j, v in enumerate(values):
        x[(j,) * len(shape)] = v
    return x


def test_holder_conjugate():
    assert holder_conjugate(1.0) == math.inf
    assert holder_conjugate(2.0) == 2.0
    assert holder_conjugate(3.0) == 1.5
    assert holder_conjugate(1.5) == 3.0
    with pytest.raises(ValueError):
        holder_conjugate(0.5)
    duals = DualExponents.of(SchattenParams(1, 2, 1))
    assert duals.p_star == math.inf and duals.q_star == 2.0


class TestDualMaximizer:
    def test_euclidean_case(self):
        result = dual_vector_maximizer([2.0, 1.0], 2.0)
        assert np.allclose(result.vector, np.array([2.0, 1.0]) / math.sqrt(5.0))

    def test_l1_case(self):
        result = dual_vector_maximizer([2.0, 1.0], 1.0)
        assert np.array_equal(result.vector, [1.0, 1.0])
        assert not result.free_coordinates.any()
        result = dual_vector_maximizer([2.0, 0.0], 1.0)
        assert np.array_equal(result.vector, [1.0, 1.0])
        assert np.array_equal(result.free_coordinates, [False, True])

    def test_cubic_case(self):
        # (s_j / ||s||_3)^2 with ||s||_3 = 9^(1/3)
        result = dual_vector_maximizer([2.0, 1.0], 3.0)
        assert np.allclose(result.vector, np.array([4.0, 1.0]) / 9.0 ** (2.0 / 3.0))
        assert lp_norm(result.vector, 1.5) == pytest.approx(1.0, abs=1e-12)
        assert float(np.dot(result.vector, [2.0, 1.0])) == pytest.approx(
            9.0 ** (1.0 / 3.0), rel=1e-12
        )

    def test_zero_vector(self):
        result = dual_vector_maximizer([0.0, 0.0], 2.0)
        assert result.whole_ball
        assert np.array_equal(result.vector, [1.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            dual_vector_maximizer([1.0, -1.0], 2.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_against_grid_oracle(self, n, p):
        rng = np.random.default_rng(10 * n + int(2 * p))
        s = np.abs(rng.standard_normal(n))
        s /= np.linalg.norm(s)
        result = dual_vector_maximizer(s, p)
        pairing = float(np.dot(result.vector, s))
        oracle = grid_best_pairing(s, p)
        assert oracle - 1e-9 <= pairing <= oracle + 1e-3
        assert lp_norm(result.vector, holder_conjugate(p)) == pytest.approx(
            1.0, abs=1e-12
        )


class TestTupleCalculus:
    def test_value_zero_tuple(self):
        assert schatten_value_tuple(np.zeros((3, 2)), SchattenParams(2, 2, 1)) == 0.0

    def test_value_matches_tensor_norm(self):
        x = diag_tensor((2, 2, 2), [2.0, 1.0])
        value = schatten_value_tuple(all_mode_spectra(x), SchattenParams(2, 2, 1))
        assert value == pytest.approx(math.sqrt(15.0), abs=1e-12)
        assert value == pytest.approx(
            schatten_norm(x, SchattenParams(2, 2, 1)), abs=1e-12
        )

    def test_value_homogeneous(self):
        t = np.array([[2.0, 1.0], [1.5, 0.5], [1.0, 1.0]])
        params = SchattenParams(3, 2, 0.4)
        assert schatten_value_tuple(3.0 * t, params) == pytest.approx(
            3.0 * schatten_value_tuple(t, params), rel=1e-14
        )

    def test_subgradient_euclidean_example(self):
        # all rows (2, 1): v* = (2,1)/sqrt(5), omega = sqrt(5) * ones,
        # w* = ones/sqrt(3), rows of g = (2,1)/sqrt(15)
        t = np.tile([2.0, 1.0], (3, 1))
        result = tuple_subgradient(t, SchattenParams(2, 2, 1))
        expected_row = np.array([2.0, 1.0]) / math.sqrt(15.0)
        assert np.allclose(result.canonical, np.tile(expected_row, (3, 1)))
        assert not result.whole_ball

    def test_subgradient_nuclear_example(self):
        t = np.tile([2.0, 1.0], (3, 1))
        result = tuple_subgradient(t, SchattenParams(1, 1, 1 / 3))
        assert np.allclose(result.canonical, np.full((3, 2), 1.0 / 3.0))

    def test_subgradient_zero_tuple(self):
        result = tuple_subgradient(np.zeros((3, 2)), SchattenParams(2, 2, 1))
        assert result.whole_ball
        assert np.array_equal(result.canonical, np.zeros((3, 2)))

    def test_subgradient_zero_mode_forced_when_q_above_one(self):
        t = np.array([[2.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        result = tuple_subgradient(t, SchattenParams(2, 2, 1))
        assert result.mode_free[1]
        assert np.allclose(result.canonical[1], 0.0)

    @pytest.mark.parametrize("params", PARAM_GRID_3)
    def test_canonical_passes_membership(self, params):
        rng = np.random.default_rng(17)
        for _ in range(20):
            t = np.abs(rng.standard_normal((3, 3)))
            if rng.random() < 0.3:
                t[1] = 0.0
            result = tuple_subgradient(t, params)
            assert tuple_membership(t, result.canonical, params)

    def test_membership_rejects_doubled(self):
        t = np.tile([2.0, 1.0], (3, 1))
        params = SchattenParams(1, 1, 1 / 3)
        g = tuple_subgradient(t, params).canonical
        assert tuple_membership(t, g, params)
        assert not tuple_membership(t, 2.0 * g, params)

    def test_membership_at_zero_is_dual_ball(self):
        params = SchattenParams(2, 2, 1)
        t = np.zeros((3, 2))
        small = np.full((3, 2), 0.1)
        assert tuple_membership(t, small, params)
        big = np.full((3, 2), 10.0)
        assert not tuple_membership(t, big, params)

    def test_conjugate_value(self):
        params = SchattenParams(2, 2, 1)
        assert conjugate_value_tuple(np.zeros((3, 2)), params) == 0.0
        boundary = np.zeros((3, 2))
        boundary[0, 0] = params.lam
        assert conjugate_value_tuple(boundary, params) == 0.0
        assert conjugate_value_tuple(2.0 * boundary, params) == math.inf


class TestConstruction:
    def test_nuclear_diag_example(self):
        rep = make_odeco([2.0, 1.0], [np.eye(2)] * 3)
        g = schatten_subgradient(rep, SchattenParams(1, 1, 1 / 3))
        assert np.allclose(g, diag_tensor((2, 2, 2), [1.0, 1.0]), atol=1e-14)
        assert inner(g, to_dense(rep)) == pytest.approx(3.0, abs=1e-12)

    def test_euclidean_diag_example(self):
        rep = make_odeco([2.0, 1.0], [np.eye(2)] * 3)
        g = schatten_subgradient(rep, SchattenParams(2, 2, 1))
        tau = math.sqrt(3.0) * np.array([2.0, 1.0]) / math.sqrt(5.0)
        assert np.allclose(g, diag_tensor((2, 2, 2), tau), atol=1e-12)
        assert inner(g, to_dense(rep)) == pytest.approx(math.sqrt(15.0), rel=1e-12)

    def test_rank_one_weight(self):
        rep = random_odeco((3, 3, 3), 1, 3)
        for params in PARAM_GRID_3:
            g = schatten_subgradient(rep, params)
            spectra = all_mode_spectra(g)
            expected = params.lam * 3.0 ** (1.0 / params.q)
            assert spectra[0][0] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("params", PARAM_GRID_3)
    def test_pairing_identity(self, params):
        rep = random_odeco((3, 3, 3), 2, 21)
        dense = to_dense(rep)
        g = schatten_subgradient(rep, params)
        assert inner(g, dense) == pytest.approx(
            schatten_norm(dense, params), rel=1e-10
        )


class TestMembership:
    @pytest.mark.parametrize("params", PARAM_GRID_3)
    def test_construction_accepted(self, params):
        rep = random_odeco((3, 3, 3), 2, 30)
        dense = to_dense(rep)
        g = schatten_subgradient(rep, params)
        certificate = check_membership(dense, g, params)
        assert certificate.accepted, certificate.notes

    def test_doubled_rejected_with_dual_value_two(self):
        rep = random_odeco((3, 3, 3), 3, 31)
        dense = to_dense(rep)
        params = SchattenParams(1, 1, 1 / 3)
        g = schatten_subgradient(rep, params)
        certificate = check_membership(dense, 2.0 * g, params)
        assert not certificate.accepted
        assert certificate.dual_norm_value == pytest.approx(2.0, rel=1e-10)

    def test_all_ones_diag_is_its_own_subgradient(self):
        x = diag_tensor((2, 2, 2), [1.0, 1.0])
        certificate = check_membership(x, x, SchattenParams(1, 1, 1 / 3))
        assert certificate.accepted

    def test_scaling_covariance(self):
        rep = random_odeco((3, 3, 3), 2, 32)
        dense = to_dense(rep)
        params = SchattenParams(2, 2, 1)
        g = schatten_subgradient(rep, params)
        for c in (0.25, 4.0):
            assert check_membership(c * dense, g, params).accepted
        assert not check_membership(dense, 0.5 * g, params).accepted

    def test_symmetric_odeco_point(self):
        rep = random_symmetric_odeco(3, 3, 2, 33)
        dense = to_dense(rep)
        for params in PARAM_GRID_3:
            g = schatten_subgradient(rep, params)
            assert check_membership(dense, g, params).accepted

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            check_membership(
                np.ones((2, 2)), np.ones((2, 3)), SchattenParams(1, 1, 0.5)
            )

    def test_huge_point_keeps_a_finite_pairing_tolerance(self):
        # ||x||_F used to overflow to inf at 1e300, which made the tolerance
        # tol * max(1, ||x|| ||y||) infinite and accepted any candidate
        dense = to_dense(random_odeco((3, 3, 3), 2, 1))
        y = np.random.default_rng(9).standard_normal((3, 3, 3))
        y *= 0.1 / frobenius(y)
        params = SchattenParams(2, 2, 1)
        assert not check_membership(dense, y, params).accepted
        assert not check_membership(1e300 * dense, y, params).accepted


class TestSamplingOracle:
    @pytest.mark.parametrize("params", PARAM_GRID_3)
    def test_construction_slack(self, params):
        rep = random_odeco((3, 3, 3), 2, 40)
        dense = to_dense(rep)
        g = schatten_subgradient(rep, params)
        slack = subgradient_inequality_test(dense, g, params, trials=2000, seed=0)
        assert slack >= -1e-9

    def test_zero_candidate_detected(self):
        rep = random_odeco((3, 3, 3), 2, 41)
        dense = to_dense(rep)
        params = SchattenParams(1, 1, 1 / 3)
        slack = subgradient_inequality_test(
            dense, np.zeros((3, 3, 3)), params, trials=100, seed=0
        )
        # y = 0 sits in the pool, where the slack equals -N(x)
        assert slack == pytest.approx(-nuclear_norm(dense), rel=1e-12)

    def test_zero_point_zero_candidate(self):
        params = SchattenParams(2, 2, 1)
        slack = subgradient_inequality_test(
            np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), params, trials=200, seed=0
        )
        assert slack >= -1e-12


def _per_seed_specials(x, seed):
    # the special candidates built one at a time, each from its own seeded
    # random_orthogonal, multi_mode_mul, symmetrize and random_odeco call
    dims = x.shape
    rng = np.random.default_rng([seed, 104729])
    specials = [c * x for c in (0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0)]
    for _ in range(8):
        frames = [random_orthogonal(n, int(rng.integers(2**63 - 1))) for n in dims]
        specials.append(multi_mode_mul(x, frames))
    if len(set(dims)) == 1:
        for _ in range(8):
            specials.append(symmetrize(rng.standard_normal(dims)))
    for _ in range(8):
        specials.append(
            to_dense(random_odeco(dims, min(dims), int(rng.integers(2**63 - 1))))
        )
    return np.stack(specials)


class TestStackedSpecials:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 4, 5), (2, 3, 4, 2)])
    def test_rotated_copies_equal_multi_mode_mul(self, dims):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(dims)
        frames = [_random_orthogonals(n, rng.integers(0, 2**62, size=8)) for n in dims]
        stack = subdiff._rotated_copies(x, frames)
        assert stack.shape == (8,) + dims
        for k in range(8):
            assert np.array_equal(stack[k], multi_mode_mul(x, [f[k] for f in frames]))

    @pytest.mark.parametrize("dims, count", [((3, 3, 3), 31), ((3, 4, 5), 23)])
    @pytest.mark.parametrize("params", PARAM_GRID_3)
    def test_specials_only_slack_equals_per_seed_loop(self, dims, count, params):
        # trials equal to the special count, so no probe enters the minimum
        x = to_dense(random_odeco(dims, 2, 23))
        g = np.random.default_rng(24).standard_normal(dims)
        specials = _per_seed_specials(x, 6)
        assert specials.shape[0] == count
        norms = _schatten_norms(_stacked_spectra(specials), params)
        pairings = subdiff._pairings(specials, g)
        expected = float(
            np.min(norms - schatten_norm(x, params) - (pairings - inner(g, x)))
        )
        got = subgradient_inequality_test(x, g, params, trials=count, seed=6)
        assert got == expected

    def test_each_call_draws_eight_odeco_specials(self):
        x = np.random.default_rng(25).standard_normal((2, 3, 2))
        with mock.patch.object(subdiff, "random_odeco", wraps=random_odeco) as spy:
            subgradient_inequality_test(x, x, SchattenParams(2, 2, 1), trials=5)
        assert spy.call_count == 8


class TestMatrixReduction:
    def test_polar_factor(self):
        params = SchattenParams(1, 1, 0.5)
        for seed in range(5):
            rep = random_odeco((4, 4), 4, seed)
            g = schatten_subgradient(rep, params)
            decomposition = svd(to_dense(rep))
            assert np.max(np.abs(g - decomposition.u @ decomposition.vt)) <= 1e-10


class TestScalingConvention:
    """The raw-spectra norm and the rescaled-tuple view must agree.

    The spectra tuple scaled by 1/sqrt(D) paired with a tuple norm scaled by
    lam*sqrt(D) reproduces the tensor norm, and its conjugate indicator
    matches the dual-ball test used everywhere else.
    """

    @pytest.mark.parametrize("params", PARAM_GRID_3)
    def test_norm_correspondence(self, params):
        rep = random_odeco((3, 4, 3), 2, 5)
        dense = to_dense(rep)
        spectra = all_mode_spectra(dense)
        n = max(s.size for s in spectra)
        padded = np.vstack(
            [np.concatenate([s, np.zeros(n - s.size)]) for s in spectra]
        )
        scaled = SchattenParams(params.p, params.q, params.lam * math.sqrt(3.0))
        assert schatten_value_tuple(padded / math.sqrt(3.0), scaled) == pytest.approx(
            schatten_norm(dense, params), rel=1e-12, abs=1e-12
        )

    def test_conjugate_indicator_correspondence(self):
        params = SchattenParams(2, 2, 1)
        duals = DualExponents.of(params)
        rep = random_odeco((3, 3, 3), 3, 6)
        dense = to_dense(rep)
        ratio = mixed_norm(all_mode_spectra(dense), duals.p_star, duals.q_star) / (
            params.lam * 3
        )
        scaled = SchattenParams(2, 2, math.sqrt(3.0))
        for factor, expected in ((0.9, 0.0), (1.1, math.inf)):
            x = dense * (factor / ratio)
            tuple_form = np.vstack(all_mode_spectra(x)) / math.sqrt(3.0)
            assert conjugate_value_tuple(tuple_form, scaled) == expected

    @pytest.mark.parametrize("params", PARAM_GRID_3)
    def test_non_cubic_construction_accepted(self, params):
        rep = random_odeco((3, 4, 3), 2, 7)
        dense = to_dense(rep)
        g = schatten_subgradient(rep, params)
        assert check_membership(dense, g, params).accepted


class TestConjugateEstimate:
    def test_zero_input(self):
        params = SchattenParams(1, 1, 1 / 3)
        estimate = estimate_tensor_conjugate(
            np.zeros((3, 3, 3)), params, budget=100, seed=0
        )
        assert estimate.best_value == 0.0
        assert estimate.evaluations <= 100

    @pytest.mark.parametrize("params", PARAM_GRID_3[:2])
    def test_inside_dual_ball(self, params):
        rep = random_odeco((3, 3, 3), 3, 50)
        dense = to_dense(rep)
        duals = DualExponents.of(params)
        ratio = mixed_norm(all_mode_spectra(dense), duals.p_star, duals.q_star) / (
            params.lam * 3
        )
        estimate = estimate_tensor_conjugate(
            dense * (0.9 / ratio), params, budget=20_000, seed=0
        )
        assert estimate.best_value <= 1e-6
        # y = 0 only: the spectral dual ratio, 0.9, proves the conjugate 0
        assert estimate.evaluations == 1

    @pytest.mark.parametrize(
        "params, target",
        [pytest.param(p, 1e-3, id=f"params{i}") for i, p in enumerate(PARAM_GRID_3)]
        + [
            pytest.param(p, None, id=f"params{i}-no-target")
            for i, p in enumerate(PARAM_GRID_3)
        ],
    )
    def test_outside_dual_ball(self, params, target):
        rep = random_odeco((3, 3, 3), 3, 51)
        dense = to_dense(rep)
        duals = DualExponents.of(params)
        ratio = mixed_norm(all_mode_spectra(dense), duals.p_star, duals.q_star) / (
            params.lam * 3
        )
        scaled = dense * (1.1 / ratio)
        estimate = estimate_tensor_conjugate(
            scaled, params, budget=100_000, seed=0, target=target
        )
        assert estimate.best_value >= 1e-3
        assert estimate.evaluations <= 100_000
        if target is None:
            # y = 0, the aligned certificate, (100_000 - 2) // 5 Gaussian
            # probes and the rescaled maximizer
            assert estimate.evaluations == 2 + 19_999 + 1
        # the reported value is actually attained by the returned maximizer
        attained = inner(scaled, estimate.maximizer) - schatten_norm(
            estimate.maximizer, params
        )
        assert attained == pytest.approx(estimate.best_value, rel=1e-9)


class TestExponentValidation:
    def test_lp_norm_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="p: exponent"):
            lp_norm([1.0, 1.0], 0.5)

    def test_mixed_norm_names_the_bad_exponent(self):
        rows = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(ValueError, match="p: exponent"):
            mixed_norm(rows, 0.5, 1.0)
        with pytest.raises(ValueError, match="q: exponent"):
            mixed_norm(rows, 2.0, 0.5)
        with pytest.raises(ValueError, match="p: exponent"):
            mixed_norm(rows, math.nan, 1.0)

    def test_infinite_exponents_accepted(self):
        assert lp_norm([3.0, -4.0], math.inf) == 4.0
        assert mixed_norm([[3.0, 4.0], [1.0]], 2.0, math.inf) == 5.0


def test_ragged_mixed_norm_equals_zero_padded():
    ragged = [[3.0, 4.0], [1.0], [2.0, 2.0, 1.0]]
    padded = [[3.0, 4.0, 0.0], [1.0, 0.0, 0.0], [2.0, 2.0, 1.0]]
    for p, q in ((1.0, 1.0), (2.0, 3.0), (1.5, math.inf), (math.inf, 2.0)):
        assert mixed_norm(ragged, p, q) == mixed_norm(padded, p, q)


class TestPinnedValues:
    """Values of the seeded odeco case below, as computed before the norms,
    spectra and specials were batched; they must not drift."""

    REP = random_odeco((3, 3, 3), 2, 11)
    PARAMS = SchattenParams(3, 2, 1)

    def test_inequality_test_with_gaussian_pool(self):
        g = np.random.default_rng(5).standard_normal((3, 3, 3))
        slack = subgradient_inequality_test(
            to_dense(self.REP), g, self.PARAMS, trials=2000, seed=4
        )
        assert abs(slack - (-24.739999456255)) <= 1e-12

    def test_inequality_test_on_specials_only(self):
        g = 1.5 * schatten_subgradient(self.REP, self.PARAMS)
        slack = subgradient_inequality_test(
            to_dense(self.REP), g, self.PARAMS, trials=31, seed=4
        )
        assert abs(slack - (-1.2645057400299353)) <= 1e-12


class TestSubgradientBytes:
    # exactly representable orthonormal columns, so the bytes do not depend
    # on a decomposition routine
    ROT = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    WIDE = np.array([[0.0, 0.6, 0.0], [0.0, 0.8, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    REP = make_odeco([3.0, 2.0, 0.5], [ROT, WIDE, ROT[::-1]], (3, 4, 3))

    @pytest.mark.parametrize(
        "params, digest",
        [
            (
                SchattenParams(1, 1, 1 / 3),
                "e35636099f2043d75703a23d25eb8074ed67081aef76c02a7e7e048e8c428a83",
            ),
            (
                SchattenParams(1, 2, 1 / 3),
                "e134abd76f45eb3a40d43069e61c65a3da609c4da11a4ddb666ba089f34258da",
            ),
        ],
    )
    def test_bytes_pinned(self, params, digest):
        g = schatten_subgradient(self.REP, params)
        assert hashlib.sha256(g.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("params", PARAM_GRID_3)
    def test_bytes_equal_direct_einsum(self, params):
        vstar = dual_vector_maximizer(self.REP.alphas, params.p).vector
        tau = params.lam * 3 ** (1.0 / params.q) * vstar
        direct = np.einsum("z,az,bz,cz->abc", tau, *self.REP.factors)
        assert schatten_subgradient(self.REP, params).tobytes() == direct.tobytes()


def _pairing_extremal(diag, p):
    # beta* of the estimator: the unit-l_p direction maximizing <diag, beta>
    signs = np.where(diag >= 0, 1.0, -1.0)
    if p == 1.0:
        beta = np.zeros(diag.size)
        beta[int(np.argmax(np.abs(diag)))] = 1.0
        return beta * signs
    return signs * dual_vector_maximizer(np.abs(diag), holder_conjugate(p)).vector


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 6),
    p=st.floats(1.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairing_extremal_direction_is_never_beaten(n, p, seed):
    rng = np.random.default_rng(seed)
    diag = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
    beta_star = _pairing_extremal(diag, p)
    best = float(np.dot(diag, beta_star))
    # Hölder: the supremum over unit-l_p beta is ||diag||_{p*}
    assert best == pytest.approx(lp_norm(diag, holder_conjugate(p)), rel=1e-12)
    betas = rng.standard_normal((2000, n))
    betas /= _mixed_norm(betas[:, None, :], p, 1.0)[:, None]
    assert np.max(betas @ diag) <= best * (1.0 + 1e-12)


class TestConjugateCertificate:
    @pytest.mark.parametrize("params", PARAM_GRID_3)
    def test_inside_estimate_is_exactly_zero(self, params):
        rep = random_odeco((3, 3, 3), 3, 52)
        dense = to_dense(rep)
        duals = DualExponents.of(params)
        ratio = mixed_norm(all_mode_spectra(dense), duals.p_star, duals.q_star) / (
            params.lam * 3
        )
        estimate = estimate_tensor_conjugate(
            dense * (0.9 / ratio), params, budget=20_000, seed=1
        )
        assert estimate.best_value == 0.0
        assert not estimate.maximizer.any()

    @pytest.mark.parametrize("params", PARAM_GRID_3)
    def test_aligned_value_is_the_closed_form(self, params):
        # budget 2: y = 0 and the aligned certificate, nothing else; inside
        # the dual ball (params3) the dual ratio stops the estimator at y = 0
        rep = random_odeco((3, 4, 3), 3, 53)
        dense = 2.0 * to_dense(rep)
        estimate = estimate_tensor_conjugate(dense, params, budget=2)
        if subdiff._spectral_dual_ratio(dense, params) <= 1.0:
            assert (estimate.best_value, estimate.evaluations) == (0.0, 1)
            return
        expected = lp_norm(2.0 * rep.alphas, holder_conjugate(params.p)) - params.lam * 3 ** (
            1.0 / params.q
        )
        assert estimate.evaluations == 2
        assert estimate.best_value == pytest.approx(max(0.0, expected), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_aligned_certificate_for_p_near_one(self, scale):
        # p* = 257: the raw power |diag|^256 underflows (or overflows) at
        # these scales, which used to leave a NaN direction
        params = SchattenParams(1.00390625, 1.0, 1e-4 * scale)
        rep = random_odeco((3, 3, 3), 3, 54)
        dense = scale * to_dense(rep)
        estimate = estimate_tensor_conjugate(dense, params, budget=2)
        expected = lp_norm(scale * rep.alphas, holder_conjugate(params.p)) - params.lam * 3
        assert expected > 0.0
        assert estimate.best_value == pytest.approx(expected, rel=1e-12)


_LOG_EXPONENT = st.floats(0.0, math.log(50.0)).map(math.exp)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    p=_LOG_EXPONENT,
    q=_LOG_EXPONENT,
    ratio=st.floats(0.25, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_dual_ratio_at_most_one_proves_the_conjugate_zero(dims, p, q, ratio, seed):
    # the trace inequality in every mode and Hölder give
    # <x, y> - N(y) <= N(y) (ratio - 1) for every y
    shape = tuple(dims)
    params = SchattenParams(p, q, 1.0)
    x = np.random.default_rng(seed).standard_normal(shape)
    x *= ratio / subdiff._spectral_dual_ratio(x, params)
    assume(subdiff._spectral_dual_ratio(x, params) <= 1.0)  # rounding at 1
    estimate = estimate_tensor_conjugate(x, params, seed=seed)
    assert (estimate.best_value, estimate.evaluations) == (0.0, 1)
    assert estimate.maximizer.shape == shape and not estimate.maximizer.any()
    # no probe beats y = 0 (pools streamed, so examples do not fill the cache) ...
    with mock.patch.object(subdiff, "_POOL_CACHE_BYTES", 0):
        for stack, spectra in subdiff._probe_chunks(shape, seed, 200):
            pairings = subdiff._pairings(stack, x)
            norms = _schatten_norms(spectra, params)
            scale = np.maximum(1.0, np.maximum(np.abs(pairings), norms))
            assert np.all(pairings - norms <= 1e-12 * scale)
    # ... nor does the aligned certificate: ||diag||_{p*} <= ratio lam D^(1/q)
    core = hosvd(x).core
    diag = core[tuple(np.arange(min(shape)) for _ in shape)]
    bound = params.lam * len(shape) ** (1.0 / q)
    assert lp_norm(diag, holder_conjugate(p)) - bound <= 1e-12 * bound


@pytest.mark.parametrize("params", PARAM_GRID_3)
def test_tied_weights_pin_a_missed_certificate(params):
    # Weights (1, 1, 1) scaled to ratio 1.1 lie outside the dual ball, so the
    # conjugate is +inf. Every mode spectrum is flat, so the HOSVD frames are
    # not the odeco frames: the aligned certificate and all 19,999 probes
    # miss. This pins the miss; a tie-aware certificate should turn it into
    # a positive value.
    frames = random_odeco((3, 3, 3), 3, 7).factors
    dense = to_dense(make_odeco([1.0, 1.0, 1.0], frames, (3, 3, 3)))
    x = dense * (1.1 / subdiff._spectral_dual_ratio(dense, params))
    estimate = estimate_tensor_conjugate(x, params, target=1e-3)
    assert (estimate.best_value, estimate.evaluations) == (0.0, 2 + 19_999)
    assert not estimate.maximizer.any()


def _cached_bytes():
    return sum(
        a.nbytes + b.nbytes for pool in subdiff._pool_cache.values() for a, b in pool
    )


@pytest.fixture
def fresh_pool_cache(monkeypatch):
    monkeypatch.setattr(subdiff, "_pool_cache", OrderedDict())


# Prints the digest of every probe objective of one 4^3 pool, cached (drawn,
# then replayed) and streamed, at 1, 7, the default number and all of its
# probes per chunk, then both probe routines' results on that shape. The pool
# is the one behind 10,000 trials of subgradient_inequality_test at 4^3 (31
# specials, then 9,969 probes); OpenBLAS threads a matrix-vector product over
# all of it, and at 1 and 2 threads rounds some of its rows differently.
_THREAD_COUNT_SCRIPT = """
import hashlib

import numpy as np

from tensorspectra import (
    SchattenParams,
    estimate_tensor_conjugate,
    random_odeco,
    subgradient_inequality_test,
    to_dense,
)
from tensorspectra import subdiff
from tensorspectra.spectral import _schatten_norms

shape, seed, count = (4, 4, 4), 1, 9_969
params = SchattenParams(3, 2, 1)
g = 3.0 * np.random.default_rng(8).standard_normal(shape)


def digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


def objective():
    return digest(np.concatenate([
        subdiff._pairings(stack, g) - _schatten_norms(spectra, params)
        for stack, spectra in subdiff._probe_chunks(shape, seed, count)
    ]))


chunk_bytes, cache_bytes = subdiff._CHUNK_BYTES, subdiff._POOL_CACHE_BYTES
for probes in (1, 7, None, count):
    subdiff._CHUNK_BYTES = chunk_bytes if probes is None else 8 * 64 * probes
    subdiff._pool_cache.clear()
    subdiff._POOL_CACHE_BYTES = cache_bytes
    print(objective())
    print(objective())
    subdiff._POOL_CACHE_BYTES = 0
    print(objective())
subdiff._CHUNK_BYTES, subdiff._POOL_CACHE_BYTES = chunk_bytes, cache_bytes
x = to_dense(random_odeco(shape, 4, 60))
print(repr(subgradient_inequality_test(x, g, params, trials=10_000, seed=seed)))
e = estimate_tensor_conjugate(g, params, budget=2 + 5 * count, seed=seed)
print(repr(e.best_value), digest(e.maximizer), e.evaluations)
"""


class TestProbePool:
    SHAPE = (3, 3, 3)
    COUNT = 300
    # probes per chunk; None keeps the default
    CHUNKS = [1, 7, 28, None, 10**9]

    def _set_chunk(self, monkeypatch, probes):
        if probes is not None:
            chunk_bytes = probes * 8 * math.prod(self.SHAPE)
            monkeypatch.setattr(subdiff, "_CHUNK_BYTES", chunk_bytes)

    def _results(self):
        # a large Gaussian g puts the minimum slack, and a Gaussian x the
        # maximum objective, on a probe, where the pairing's rounding shows
        rep = random_odeco(self.SHAPE, 3, 60)
        dense = to_dense(rep)
        rng = np.random.default_rng(8)
        g = 3.0 * rng.standard_normal(self.SHAPE)
        params = SchattenParams(3, 2, 1)
        trials = 31 + self.COUNT  # the 31 specials, then COUNT probes
        out = [subgradient_inequality_test(dense, g, params, trials=trials, seed=5)]
        # a Gaussian x at spectral dual ratio 1.2, which the ratio does not
        # decide and where no probe finds a positive value; outside; and
        # outside with a target the probes reach
        near = g * (1.2 / subdiff._spectral_dual_ratio(g, params))
        cases = [(near, None), (g, None), (g, 20.0)]
        for x, target in cases:
            # y = 0 and the aligned certificate, then COUNT probes
            e = estimate_tensor_conjugate(
                x, params, budget=2 + 5 * self.COUNT, seed=6, target=target
            )
            out.append((e.best_value, e.maximizer.tobytes(), e.evaluations))
        # every probe of the first case was evaluated, and none was rescaled
        assert out[1][0] == 0.0 and out[1][2] == 2 + self.COUNT
        return out

    @pytest.mark.parametrize("budget", [None, 0])
    @pytest.mark.parametrize("probes", CHUNKS)
    def test_results_do_not_depend_on_the_chunking(
        self, fresh_pool_cache, monkeypatch, probes, budget
    ):
        reference = self._results()
        monkeypatch.setattr(subdiff, "_pool_cache", OrderedDict())
        self._set_chunk(monkeypatch, probes)
        if budget is not None:
            monkeypatch.setattr(subdiff, "_POOL_CACHE_BYTES", budget)
        assert self._results() == reference  # drawn
        assert self._results() == reference  # cached, or drawn again

    @pytest.mark.parametrize("count", [1, 2, 5, 301, 303])
    @pytest.mark.parametrize("probes", CHUNKS)
    def test_streamed_chunks_concatenate_to_the_pool(
        self, fresh_pool_cache, monkeypatch, count, probes
    ):
        (pool,) = subdiff._probe_chunks(self.SHAPE, 3, count)
        assert not pool[0].flags.writeable and not pool[1].flags.writeable
        self._set_chunk(monkeypatch, probes)
        monkeypatch.setattr(subdiff, "_pool_cache", OrderedDict())
        monkeypatch.setattr(subdiff, "_POOL_CACHE_BYTES", 0)
        chunks = list(subdiff._probe_chunks(self.SHAPE, 3, count))
        assert not subdiff._pool_cache
        assert np.array_equal(np.concatenate([c[0] for c in chunks]), pool[0])
        assert np.array_equal(np.concatenate([c[1] for c in chunks]), pool[1])

    def test_cache_stays_within_its_byte_budget(self, fresh_pool_cache, monkeypatch):
        budget = 100_000
        monkeypatch.setattr(subdiff, "_POOL_CACHE_BYTES", budget)
        per_probe = 8 * (27 + 3 * 3)  # the probe and its three mode spectra
        for count in (300, 50, 200, 400, 10, 340, 120, 347, 300):
            chunks = list(subdiff._probe_chunks(self.SHAPE, 0, count))
            assert sum(len(stack) for stack, _ in chunks) == count
            assert _cached_bytes() <= budget
            key = (self.SHAPE, 0, count)
            assert (key in subdiff._pool_cache) == (count * per_probe <= budget)
            if key in subdiff._pool_cache:
                assert next(reversed(subdiff._pool_cache)) == key

    def test_cache_evicts_the_least_recently_used_pool(
        self, fresh_pool_cache, monkeypatch
    ):
        # room for two of these pools of 100 to 102 probes, 288 bytes each
        monkeypatch.setattr(subdiff, "_POOL_CACHE_BYTES", 300 * 288)
        for count in (100, 101, 100, 102):  # the third call is a hit
            list(subdiff._probe_chunks(self.SHAPE, 0, count))
        assert list(subdiff._pool_cache) == [(self.SHAPE, 0, 100), (self.SHAPE, 0, 102)]

    def test_probe_values_do_not_depend_on_the_blas_thread_count(self):
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", _THREAD_COUNT_SCRIPT],
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads)),
                stdout=subprocess.PIPE,
                text=True,
            )
            for threads in (1, 2)
        ]
        try:
            outputs = [run.communicate(timeout=300)[0] for run in runs]
        finally:
            for run in runs:
                run.kill()
        assert [run.returncode for run in runs] == [0, 0]
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        assert len(lines) == 4 * 3 + 2
        assert len(set(lines[:12])) == 1

    def test_estimator_memory_does_not_grow_with_its_budget(
        self, fresh_pool_cache, monkeypatch
    ):
        # pools larger than the cache are streamed, so the peak is set by the
        # chunk size: 1,000 and 10,000 probes peak alike
        monkeypatch.setattr(subdiff, "_POOL_CACHE_BYTES", 1 << 16)
        monkeypatch.setattr(subdiff, "_CHUNK_BYTES", 1 << 16)
        params = SchattenParams(2, 2, 1)
        # a Gaussian x at spectral dual ratio 1.2, where every probe is
        # evaluated
        x = np.random.default_rng(0).standard_normal(self.SHAPE)
        x *= 1.2 / subdiff._spectral_dual_ratio(x, params)
        already = tracemalloc.is_tracing()
        if not already:
            tracemalloc.start()
        peaks = []
        try:
            for probes in (1_000, 10_000):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                estimate = estimate_tensor_conjugate(
                    x, params, budget=2 + 5 * probes, seed=0
                )
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                assert estimate.best_value == 0.0
                # y = 0, the aligned certificate and every probe
                assert estimate.evaluations == 2 + probes
        finally:
            if not already:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]
        assert peaks[1] <= 8 << 16
