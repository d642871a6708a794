import hashlib
import math
import tracemalloc
import warnings
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
    matricize,
    mixed_norm,
    nuclear_norm,
    random_odeco,
    random_symmetric_odeco,
    schatten_norm,
    schatten_subgradient,
    schatten_value_tuple,
    subgradient_inequality_test,
    svd,
    tensorize,
    to_dense,
    tuple_membership,
    tuple_subgradient,
)
from tensorspectra import (
    mode_spectrum,
    spectral,
    subdiff,
    symmetrize,
    vn_report,
)
from tensorspectra.spectral import _mixed_norm, _schatten_norms, _stacked_spectra
from tensorspectra.verify import _param_grid, grid_best_pairing

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="s: entries must be finite"):
            dual_vector_maximizer([bad, 1.0], 2.0)

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

    def test_membership_rejects_zero_at_a_small_tuple(self):
        # the pairing tolerance was tol * max(1, value), which accepted
        # g = 0 at this t although it is no subgradient at any t != 0
        params = SchattenParams(3, 2, 1)
        for entry in (1.0, 1e-12):
            t = [[entry, 0.0], [entry, 0.0]]
            assert not tuple_membership(t, np.zeros((2, 2)), params)

    def test_conjugate_value(self):
        params = SchattenParams(2, 2, 1)
        assert conjugate_value_tuple(np.zeros((3, 2)), params) == 0.0
        boundary = np.zeros((3, 2))
        boundary[0, 0] = params.lam
        assert conjugate_value_tuple(boundary, params) == 0.0
        assert conjugate_value_tuple(2.0 * boundary, params) == math.inf


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    params=st.sampled_from(PARAM_GRID_3),
    candidate=st.sampled_from(["canonical", "doubled", "zero", "small"]),
    exponent=st.integers(-150, 150),
)
def test_tuple_membership_verdict_does_not_depend_on_scale(seed, params, candidate, exponent):
    rng = np.random.default_rng(seed)
    t = np.abs(rng.standard_normal((3, 4)))
    if rng.random() < 0.3:
        t[1] = 0.0
    if rng.random() < 0.1:
        t[:] = 0.0
    g = {
        "canonical": tuple_subgradient(t, params).canonical,
        "doubled": 2.0 * tuple_subgradient(t, params).canonical,
        "zero": np.zeros_like(t),
        "small": np.full_like(t, 0.01),
    }[candidate]
    verdict = tuple_membership(t, g, params)
    assert tuple_membership(10.0**exponent * t, g, params) == verdict


@pytest.mark.parametrize(
    "func", [schatten_value_tuple, tuple_subgradient, tuple_membership, conjugate_value_tuple]
)
@pytest.mark.parametrize(
    "bad, message",
    [
        ([[1.0, 2.0]], "one vector per mode"),
        ([[1.0, 2.0], [3.0]], "common nonzero length"),
        (np.zeros((2, 0)), "common nonzero length"),
        (np.ones((3, 2)), "must match the shape of t"),
        ([[1.0, -1.0], [1.0, 1.0]], "must be nonnegative"),
        ([[math.nan, 1.0], [1.0, 1.0]], "must be finite"),
    ],
)
def test_tuple_functions_validate_their_tuples(func, bad, message):
    # every tuple function needs D >= 2 rows of one common nonzero length;
    # only membership compares against a second tuple (here 2x2), and only
    # the subgradient and membership need a nonnegative point
    params = SchattenParams(2, 2, 1)
    args = (bad, np.ones((2, 2)), params) if func is tuple_membership else (bad, params)
    raises = (
        "length" in message
        or "per mode" in message
        or "finite" in message
        or func is tuple_membership
        or (func is tuple_subgradient and "nonnegative" in message)
    )
    if raises:
        with pytest.raises(ValueError, match=message):
            func(*args)
    else:
        func(*args)


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


def _lewis_gradient(x, params):
    # sum_d c_d fold_d(U_d diag((sigma_d / a_d)^(p - 1)) V_d^T), with
    # a_d = ||sigma_d||_p and c_d = lam (sum_e a_e^q)^(1/q - 1) a_d^(q - 1):
    # the gradient of N where it is differentiable (p > 1, x != 0)
    terms, a = [], []
    for mode in range(1, x.ndim + 1):
        u, sigma, vt = np.linalg.svd(matricize(x, mode), full_matrices=False)
        a.append(np.linalg.norm(sigma, params.p))
        power = (sigma / a[-1]) ** (params.p - 1)
        terms.append(tensorize((u * power) @ vt, mode, x.shape))
    a = np.array(a)
    c = params.lam * np.sum(a**params.q) ** (1 / params.q - 1) * a ** (params.q - 1)
    return sum(c_d * term for c_d, term in zip(c, terms))


class TestMembership:
    @pytest.mark.parametrize("params", PARAM_GRID_3)
    def test_construction_accepted(self, params):
        rep = random_odeco((3, 3, 3), 2, 30)
        dense = to_dense(rep)
        g = schatten_subgradient(rep, params)
        certificate = check_membership(dense, g, params)
        assert certificate.accepted, certificate.notes

    def test_float32_params_match_float64(self):
        # float32 exponents once kept 1/q in float32, so the subgradient
        # moved by 2e-8 and its certificate was rejected as final
        rep = random_odeco((3, 3, 3), 3, 5)
        dense = to_dense(rep)
        params = SchattenParams(np.float32(3), np.float32(3), np.float32(1))
        assert all(type(v) is float for v in (params.p, params.q, params.lam))
        g = schatten_subgradient(rep, params)
        assert np.array_equal(g, schatten_subgradient(rep, SchattenParams(3.0, 3.0, 1.0)))
        certificate = check_membership(dense, g, params)
        assert certificate.accepted, certificate.notes
        assert all(type(v) is bool for v in certificate.notes.values())
        text = SchattenParams("3", "3", 1.0)
        assert np.array_equal(schatten_subgradient(rep, text), g)

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


    def test_small_point_rejects_zero_and_half_its_subgradient(self):
        # the pairing tolerance was tol * max(1, ||x|| ||y||), and its floor
        # of 1e-8 let through the residuals of y = 0 (2.7e-10) and g/2
        # (1.3e-10) at this point; 0 is a subgradient only at x = 0
        rep = random_odeco((3, 3, 3), 3, 5)
        small = make_odeco(1e-10 * rep.alphas, rep.factors, rep.shape)
        params = SchattenParams(3, 2, 1)
        dense, g = to_dense(small), schatten_subgradient(small, params)
        assert check_membership(dense, g, params).accepted
        for y in (0.5 * g, np.zeros_like(g)):
            certificate = check_membership(dense, y, params)
            assert not certificate.accepted
            assert not certificate.notes["pairing"]
            # a failed pairing makes the rejection final
            assert not certificate.notes["conservative_rejection_possible"]

    @pytest.mark.parametrize("seed", range(3))
    def test_rejected_gradient_is_not_a_final_rejection(self, seed):
        # N is differentiable at a Gaussian point, so its gradient is its only
        # subgradient. It meets the pairing and fails the dual bound (dual
        # ratios 1.0105 / 1.0144 / 1.0096), with positive trace gaps: a
        # rejection that the pairing does not make final
        params = SchattenParams(3, 2, 1)
        x = np.random.default_rng(seed).standard_normal((3, 4, 5))
        certificate = check_membership(x, _lewis_gradient(x, params), params)
        assert not certificate.accepted
        assert certificate.notes["pairing"]
        assert not certificate.notes["vn_equality"] and not certificate.notes["dual_bound"]
        assert certificate.notes["conservative_rejection_possible"]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.sampled_from([(3, 3, 3), (2, 3, 4), (4, 4)]),
    params=st.sampled_from(PARAM_GRID_3),
    exponent=st.integers(-150, 150),
)
def test_membership_verdicts_do_not_depend_on_the_scale_of_x(seed, shape, params, exponent):
    # N is positively homogeneous, so its subdifferential at s x is the one
    # at x for every s > 0; y is not scaled, since membership of t y does
    # depend on t
    rep = random_odeco(shape, min(shape), seed)
    dense, g = to_dense(rep), schatten_subgradient(rep, params)
    for y in (g, 0.5 * g, np.zeros_like(g)):
        verdict = check_membership(dense, y, params).accepted
        assert verdict == (y is g)
        assert check_membership(10.0**exponent * dense, y, params).accepted == verdict


def _traced_peak(call):
    # call()'s result and its traced peak in bytes above what was traced
    # before it
    already = tracemalloc.is_tracing()
    if not already:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not already:
            tracemalloc.stop()


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
        # y = 0 x is the first member, where the slack equals -N(x)
        assert slack == pytest.approx(-nuclear_norm(dense), rel=1e-12)

    def test_zero_point_zero_candidate(self):
        params = SchattenParams(2, 2, 1)
        slack = subgradient_inequality_test(
            np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), params, trials=200, seed=0
        )
        assert slack >= -1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_candidate_is_rejected(self, bad):
        # check_membership rejects such a y too; no nan slack and no warning
        x = to_dense(random_odeco((3, 3, 3), 2, 11))
        g = np.random.default_rng(5).standard_normal(x.shape)
        g[1, 0, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^g: entries must be finite$"):
                subgradient_inequality_test(x, g, SchattenParams(3, 2, 1), trials=31)

    @pytest.mark.parametrize("dims", [(3, 3, 3), (3, 4, 5)])
    def test_trials_past_the_specials_change_nothing(self, dims):
        # the minimum is over the 13 members of the two rays alone: a
        # Gaussian g gives the same bits at every cap from their count on
        x = to_dense(random_odeco(dims, 2, 11))
        g = np.random.default_rng(5).standard_normal(dims)
        params = SchattenParams(3, 2, 1)
        slacks = [
            _cold_slack(x, g, params, trials=trials, seed=4)
            for trials in (13, 31, 10_000)
        ]
        assert slacks[0] == slacks[1] == slacks[2]

    def test_memory_does_not_grow_with_the_trial_count(self):
        x = to_dense(random_odeco((3, 3, 3), 2, 11))
        g = np.random.default_rng(5).standard_normal(x.shape)
        params = SchattenParams(3, 2, 1)
        (few, few_peak), (many, many_peak) = [
            _traced_peak(lambda: _cold_slack(x, g, params, trials=trials, seed=4))
            for trials in (31, 1_000_000)
        ]
        assert many_peak <= 1.25 * few_peak
        assert few == many

    def test_no_random_number_is_drawn(self):
        # seed is accepted and changes nothing
        x = to_dense(random_odeco((3, 3, 3), 2, 11))
        g = np.random.default_rng(5).standard_normal(x.shape)
        params = SchattenParams(3, 2, 1)
        expected = subgradient_inequality_test(x, g, params, seed=0)
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError):
            for seed in (0, 1, 2**40):
                assert subgradient_inequality_test(x, g, params, seed=seed) == expected


_SCALES = (0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0)


class TestRays:
    @pytest.mark.parametrize("dims", [(3, 3, 3), (3, 4, 5), (2, 3, 4, 2)])
    @pytest.mark.parametrize("params", PARAM_GRID_3)
    def test_the_closed_forms_equal_the_decomposed_slacks(self, dims, params):
        # N(c t) = |c| N(t): each member decomposed and paired one at a time
        # agrees to within 1e-14 of the slack's scale (a few ulp are seen)
        rng = np.random.default_rng(41)
        x, g = rng.standard_normal((2,) + dims)
        norm_x, gx = schatten_norm(x, params), inner(g, x)
        members = [c * x for c in _SCALES] + [c * g for c in _SCALES[1:]]
        loop = [schatten_norm(y, params) - norm_x - (inner(g, y) - gx) for y in members]
        scale = max(schatten_norm(y, params) + abs(inner(g, y)) for y in members)
        for trials in (1, 7, 8, 13):
            got = subgradient_inequality_test(x, g, params, trials=trials)
            assert abs(got - min(loop[:trials])) <= 1e-14 * scale

    def test_the_x_ray_tests_the_pairing_and_the_g_ray_the_dual_ball(self):
        # at an odeco point, with G its canonical subgradient and h
        # orthogonal to x: G + t ||G|| / ||h|| h keeps the pairing, which the
        # x ray (the first 7 members) reads as a subgradient, and leaves the
        # dual ball, which the g ray shows
        rep = random_odeco((3, 3, 3), 3, 5)
        x = to_dense(rep)
        h = np.random.default_rng(0).standard_normal(x.shape)
        h -= inner(h, x) / inner(x, x) * x
        for params, t, expected in (
            (SchattenParams(3, 2, 1), 1.0, -3.638244432755864),
            (SchattenParams(2, 1, 1), 0.01, -9.000224988797711e-4),
        ):
            big = schatten_subgradient(rep, params)
            g = big + t * frobenius(big) / frobenius(h) * h
            assert subgradient_inequality_test(x, g, params, trials=7) >= -1e-15
            assert subgradient_inequality_test(x, g, params) == pytest.approx(
                expected, rel=1e-9
            )

    @pytest.mark.parametrize("lam", [1e160, 1e300])
    def test_huge_lambda_takes_the_g_ray_on_a_scaled_copy(self, lam):
        # ||g||^2 and N(g) overflow here; on g's binary-scaled copy the
        # slack of G is that of the x ray, as before the g ray, 2 G is
        # rejected, and so is the candidate outside the dual ball that only
        # the g ray falsifies, with no RuntimeWarning
        rep = random_odeco((3, 3, 3), 3, 5)
        x = to_dense(rep)
        params = SchattenParams(3, 2, lam)
        big = schatten_subgradient(rep, params)
        h = np.random.default_rng(0).standard_normal(x.shape)
        h -= inner(h, x) / inner(x, x) * x
        outside = big + frobenius(big) / frobenius(h) * h
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slack = subgradient_inequality_test(x, big, params)
            doubled = subgradient_inequality_test(x, 2.0 * big, params)
            falsified = subgradient_inequality_test(x, outside, params)
        assert slack == subgradient_inequality_test(x, big, params, trials=7)
        assert slack == {1e160: -3.1217485503159922e144, 1e300: -1.487016908477783e285}[lam]
        assert doubled < 0.0
        assert falsified < -lam

    @pytest.mark.parametrize("shape", [(3, 4, 5), (3, 3, 3)])
    @pytest.mark.parametrize("params", [SchattenParams(3, 2, 1), SchattenParams(1.5, 3, 0.5)])
    def test_the_gradient_at_a_differentiable_point(self, shape, params):
        # N is differentiable at these Gaussian and symmetrized points, so
        # its gradient is its only subgradient: no member falsifies it, it
        # meets the pairing, and any g = grad + t h with h orthogonal to x
        # outside the dual ball (<g, g> > N(g)) is falsified by the g ray,
        # beyond the -1e-9 that the subgradients suite forgives
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        if len(set(shape)) == 1:
            x = symmetrize(x)
        grad = _lewis_gradient(x, params)
        assert subgradient_inequality_test(x, grad, params) >= -1e-9
        assert check_membership(x, grad, params).notes["pairing"]
        h = rng.standard_normal(shape)
        h -= inner(h, x) / inner(x, x) * x
        witnesses = 0
        for t in (1e-3, 1e-2, 1e-1, 1.0):
            g = grad + t * frobenius(grad) / frobenius(h) * h
            if inner(g, g) > schatten_norm(g, params):
                witnesses += 1
                assert subgradient_inequality_test(x, g, params) < -1e-9
        assert witnesses


def _certificate_points():
    rng = np.random.default_rng(21)
    return {
        "odeco": to_dense(random_odeco((3, 3, 3), 2, 11)),
        "symmetric": symmetrize(rng.standard_normal((3, 3, 3))),
        "gaussian-3x4x5": rng.standard_normal((3, 4, 5)),
        "two-mode": rng.standard_normal((4, 3)),
        "gaussian-2x3x4x2": rng.standard_normal((2, 3, 4, 2)),
    }


CERTIFICATE_POINTS = _certificate_points()


class TestCertificateBits:
    """check_membership is the public composition, and the subgradient test
    is the same with the spectra of x and g kept or decomposed again;
    neither may change a bit."""

    @pytest.mark.parametrize("name", list(CERTIFICATE_POINTS))
    def test_membership_fields_equal_the_public_composition(self, name):
        x = CERTIFICATE_POINTS[name]
        rng = np.random.default_rng(22)
        for params in _param_grid(x.ndim):
            candidates = [rng.standard_normal(x.shape), 0.5 * x]
            if name == "odeco":
                rep = random_odeco((3, 3, 3), 2, 11)
                candidates.append(schatten_subgradient(rep, params))
            for y in candidates:
                certificate = check_membership(x, y, params, tol=1e-8)
                report = vn_report(x, y, 1e-8)
                residual = abs(inner(x, y) - schatten_norm(x, params))
                dual = subdiff._spectral_dual_ratio(y, params)
                assert certificate.vn_gaps.tobytes() == report.per_mode_gap.tobytes()
                assert certificate.pairing_residual == residual
                assert certificate.dual_norm_value == dual
                assert certificate.notes["vn_equality"] == report.equality
                # vn_report itself: one np.dot of two per-tensor spectra per mode
                bounds = np.array(
                    [
                        float(np.dot(mode_spectrum(x, d), mode_spectrum(y, d)))
                        for d in range(1, x.ndim + 1)
                    ]
                )
                assert report.per_mode_bound.tobytes() == bounds.tobytes()

    @pytest.mark.parametrize("name", list(CERTIFICATE_POINTS))
    def test_inequality_test_is_the_same_cold_and_warm(self, name):
        # warm: x and g decomposed at the first grid point, norms new at each
        x = CERTIFICATE_POINTS[name]
        g = np.random.default_rng(23).standard_normal(x.shape)

        def slack(params):
            return subgradient_inequality_test(x, g, params, trials=331, seed=9)

        grid = _param_grid(x.ndim)
        cold = [_cold_slack(x, g, params, trials=331, seed=9) for params in grid]
        warm = [slack(params) for params in grid]
        assert cold == warm


def _cold_slack(x, g, params, **kwargs):
    # a call with the spectra entries empty
    spectral._last_spectra = None
    return subgradient_inequality_test(x, g, params, **kwargs)


class TestSpectraEntries:
    """The subgradient test keeps nothing of its own: it reads N(x) and N(g)
    through the two spectra entries."""

    def test_threads_alternating_points_get_their_own_slacks(self):
        # each thread repeats its own point, the two meeting at a barrier
        # every other call, so hits and replacements of the entries
        # interleave
        import sys
        import threading

        params = SchattenParams(3, 2, 1)
        rng = np.random.default_rng(32)
        points = [rng.standard_normal((4, 4, 4)), rng.standard_normal((2, 3, 2))]
        expected = [_cold_slack(x, 0.5 * x, params, trials=31) for x in points]
        meet = threading.Barrier(2)
        wrong = [0, 0]
        done = [0, 0]

        def work(i):
            for k in range(20):
                if k % 2 == 0:
                    meet.wait()
                got = subgradient_inequality_test(
                    points[i], 0.5 * points[i], params, trials=31
                )
                wrong[i] += got != expected[i]
                done[i] += 1

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
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
        assert done == [20, 20]
        assert wrong == [0, 0]

    def test_a_warm_point_and_candidate_decompose_nothing(self):
        # with the spectra of x and g warm, no singular_values call at all
        rng = np.random.default_rng(42)
        x, g = rng.standard_normal((2, 3, 4, 5))
        params = SchattenParams(3, 2, 1)
        expected = _cold_slack(x, g, params, trials=31)
        with mock.patch.object(
            spectral, "singular_values", wraps=spectral.singular_values
        ) as spy:
            slack = subgradient_inequality_test(x, g, params, trials=31)
        assert spy.call_count == 0
        assert slack == expected

    def test_a_new_point_keeps_no_copy(self):
        # the spectra entries held two other 20^3 tensors, so x's and g's
        # replace two of their own size, and the bound allows one copy of x
        rng = np.random.default_rng(43)
        x, g = rng.standard_normal((2, 20, 20, 20))
        params = SchattenParams(2, 2, 1)
        tracemalloc.start()  # before the entries that x's and g's evict are made
        try:
            for other in rng.standard_normal((2, 20, 20, 20)):
                schatten_norm(other, params)
            before = tracemalloc.get_traced_memory()[0]
            subgradient_inequality_test(x, g, params, trials=31)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= x.nbytes


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
        # y = 0 and the aligned certificate, which is positive, so y = x does
        # not run; the target changes nothing
        assert estimate.evaluations == 2
        # the reported value is actually attained by the returned maximizer
        attained = inner(scaled, estimate.maximizer) - schatten_norm(
            estimate.maximizer, params
        )
        assert attained == pytest.approx(estimate.best_value, rel=1e-9)

    @pytest.mark.parametrize("scale, inside", [(0.9, True), (1.1, False), (1.2, None)])
    def test_verdict_reads_the_stored_ratio_and_value(self, scale, inside):
        # inside by the ratio, outside by the aligned certificate, and a
        # Gaussian point that the ratio does not decide and that neither the
        # aligned certificate nor y = x certifies (<x, x> / N(x) = 0.89)
        if inside is None:
            params = SchattenParams(1, 1, 1 / 3)
            x = np.random.default_rng(0).standard_normal((3, 4, 5))
        else:
            params = SchattenParams(3, 2, 1)
            x = to_dense(random_odeco((3, 3, 3), 3, 51))
        x = x * (scale / subdiff._spectral_dual_ratio(x, params))
        estimate = estimate_tensor_conjugate(x, params, budget=2_000)
        assert estimate.spectral_dual_ratio == subdiff._spectral_dual_ratio(x, params)
        assert estimate.inside_dual_ball is inside
        assert (estimate.best_value > 0.0) == (inside is False)
        if inside is None:
            assert estimate.evaluations == 3

    def test_default_budget_certifies_a_gaussian_point_by_y_equal_x(self):
        # <x, x> / N(x) = 1.189 at this point of dual ratio 1.2: y = x proves
        # it outside the dual ball, after y = 0 and the aligned certificate
        params = SchattenParams(3, 2, 1)
        x = np.random.default_rng(0).standard_normal((8, 8, 8))
        x *= 1.2 / subdiff._spectral_dual_ratio(x, params)
        estimate = estimate_tensor_conjugate(x, params)
        assert estimate.inside_dual_ball is False
        assert estimate.evaluations == 3
        assert np.array_equal(estimate.maximizer, x)

    @pytest.mark.parametrize("lam", [1e160, 1e-300])
    def test_y_equal_x_beyond_binary64_is_taken_on_a_scaled_copy(self, lam):
        # the point that lam = 1 certifies by y = x: at 1e160 <x, x> and N(x)
        # overflowed (inf - inf), at 1e-300 <x, x> underflowed to 0, and both
        # read None
        params = SchattenParams(3, 2, lam)
        x = np.random.default_rng(0).standard_normal((3, 4, 5))
        x *= 1.2 / subdiff._spectral_dual_ratio(x, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate = estimate_tensor_conjugate(x, params)
        assert estimate.inside_dual_ball is False
        assert estimate.evaluations == 3
        y = estimate.maximizer
        assert 0.5 <= np.max(np.abs(y)) < 1.0
        assert inner(x, y) - schatten_norm(y, params) == estimate.best_value

    def test_estimator_memory_does_not_grow_with_its_budget(self):
        # the estimator draws no sample, so budgets of 5,002 and 50,002 peak
        # alike
        params = SchattenParams(2, 2, 1)
        # a Gaussian x at spectral dual ratio 1.2, which y = x certifies
        x = np.random.default_rng(0).standard_normal((3, 3, 3))
        x *= 1.2 / subdiff._spectral_dual_ratio(x, params)
        peaks = []
        for budget in (5_002, 50_002):
            estimate, peak = _traced_peak(
                lambda: estimate_tensor_conjugate(x, params, budget=budget, seed=0)
            )
            peaks.append(peak)
            assert estimate.best_value > 0.0
            # y = 0, the aligned certificate and y = x
            assert estimate.evaluations == 3
        assert peaks[1] <= 1.25 * peaks[0]
        assert peaks[1] <= 8 << 16


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


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
def test_an_infinite_entry_gives_an_infinite_norm(p):
    # the max-scaling divides inf by inf; the public norms answer inf, with
    # no RuntimeWarning, and a NaN entry still gives NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert lp_norm([math.inf, 1.0], p) == math.inf
        assert lp_norm([1.0, -math.inf], p) == math.inf
        assert mixed_norm([[math.inf], [1.0]], p, 2.0) == math.inf
        assert mixed_norm([[1.0, 2.0], [-math.inf]], 2.0, p) == math.inf
        assert math.isnan(lp_norm([math.inf, math.nan], p))
        assert math.isnan(mixed_norm([[math.nan], [1.0]], p, 2.0))
    with pytest.raises(ValueError, match="p: exponent"):
        lp_norm([math.inf, 1.0], 0.5)


def test_ragged_mixed_norm_equals_zero_padded():
    ragged = [[3.0, 4.0], [1.0], [2.0, 2.0, 1.0]]
    padded = [[3.0, 4.0, 0.0], [1.0, 0.0, 0.0], [2.0, 2.0, 1.0]]
    for p, q in ((1.0, 1.0), (2.0, 3.0), (1.5, math.inf), (math.inf, 2.0)):
        assert mixed_norm(ragged, p, q) == mixed_norm(padded, p, q)


class TestPinnedValues:
    """Values of the seeded odeco case below. The x ray's must not drift:
    they are those computed before the norms, spectra and specials were
    batched. The full family's were pinned when the g ray replaced the
    random specials."""

    REP = random_odeco((3, 3, 3), 2, 11)
    PARAMS = SchattenParams(3, 2, 1)

    def slack(self, g, trials):
        return subgradient_inequality_test(
            to_dense(self.REP), g, self.PARAMS, trials=trials, seed=4
        )

    def test_inequality_test_with_a_gaussian_candidate(self):
        g = np.random.default_rng(5).standard_normal((3, 3, 3))
        assert abs(self.slack(g, 7) - (-3.1454610559829694)) <= 1e-12

    def test_inequality_test_on_specials_only(self):
        g = 1.5 * schatten_subgradient(self.REP, self.PARAMS)
        assert abs(self.slack(g, 7) - (-1.2645057400299353)) <= 1e-12

    def test_inequality_test_on_the_full_family(self):
        g = np.random.default_rng(5).standard_normal((3, 3, 3))
        assert abs(self.slack(g, 2000) - (-34.94477995548189)) <= 1e-12
        g = 1.5 * schatten_subgradient(self.REP, self.PARAMS)
        assert abs(self.slack(g, 13) - (-3.2271426755509185)) <= 1e-12


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
    # no seeded Gaussian direction beats y = 0 ...
    stack = np.random.default_rng([seed, 1]).standard_normal((200,) + shape)
    norms = _schatten_norms(_stacked_spectra(stack), params)
    pairings = np.einsum("ij,j->i", stack.reshape(len(stack), -1), x.ravel())
    scale = np.maximum(1.0, np.maximum(np.abs(pairings), norms))
    assert np.all(pairings - norms <= 1e-12 * scale)
    # ... nor does the aligned certificate: ||diag||_{p*} <= ratio lam D^(1/q)
    core = hosvd(x).core
    diag = core[tuple(np.arange(min(shape)) for _ in shape)]
    bound = params.lam * len(shape) ** (1.0 / q)
    assert lp_norm(diag, holder_conjugate(p)) - bound <= 1e-12 * bound


@settings(max_examples=100, deadline=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    p=_LOG_EXPONENT,
    q=_LOG_EXPONENT,
    seed=st.integers(0, 2**32 - 1),
)
def test_y_equal_x_bounds_the_dual_ratio_from_below(dims, p, q, seed):
    # <x, x> / N(x) <= N°(x) <= the spectral dual ratio
    params = SchattenParams(p, q, 1.0)
    x = np.random.default_rng(seed).standard_normal(tuple(dims))
    lower = inner(x, x) / schatten_norm(x, params)
    assert lower <= subdiff._spectral_dual_ratio(x, params) * (1 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    p=_LOG_EXPONENT,
    q=_LOG_EXPONENT,
    ratio=st.floats(0.25, 4.0),
    budget=st.integers(1, 100_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_certificate_is_attained(dims, p, q, ratio, budget, seed):
    params = SchattenParams(p, q, 1.0)
    x = np.random.default_rng(seed).standard_normal(tuple(dims))
    x *= ratio / subdiff._spectral_dual_ratio(x, params)
    estimate = estimate_tensor_conjugate(x, params, budget=budget, seed=seed)
    assert estimate.evaluations <= min(3, budget)
    y = estimate.maximizer
    attained = inner(x, y) - schatten_norm(y, params)
    assert attained == pytest.approx(estimate.best_value, rel=1e-9)
    if estimate.best_value > 0.0:
        assert estimate.inside_dual_ball is False


@pytest.mark.parametrize("params", PARAM_GRID_3)
def test_tied_weights_pin_a_missed_certificate(params):
    # Weights (1, 1, 1) scaled to ratio 1.1 lie outside the dual ball, so the
    # conjugate is +inf. Every mode spectrum is flat, so the HOSVD frames are
    # not the odeco frames and the aligned certificate misses; y = x
    # certifies the point.
    frames = random_odeco((3, 3, 3), 3, 7).factors
    dense = to_dense(make_odeco([1.0, 1.0, 1.0], frames, (3, 3, 3)))
    x = dense * (1.1 / subdiff._spectral_dual_ratio(dense, params))
    estimate = estimate_tensor_conjugate(x, params, target=1e-3)
    assert estimate.evaluations == 3
    assert estimate.inside_dual_ball is False
    assert np.array_equal(estimate.maximizer, x)
    assert estimate.best_value == inner(x, x) - schatten_norm(x, params)


def _near_boundary_candidate(seed, params, scale):
    # g + eps w at an odeco 3^3 point: g canonical, w Gaussian and orthogonal
    # to x, so <x, y> = N(x) and the dual ratio moves with eps
    rep = random_odeco((3, 3, 3), 3, 5)
    x = to_dense(rep)
    g = schatten_subgradient(rep, params)
    w = np.random.default_rng(seed).standard_normal((3, 3, 3))
    w -= inner(w, x) / inner(x, x) * x
    return x, g + scale * frobenius(g) / frobenius(w) * w


class TestMembershipVerdict:
    """``accepted`` is the pairing and the dual bound; the gaps decide nothing."""

    def test_a_pair_meeting_both_conditions_is_accepted(self):
        # dual ratio 1 + 9.6e-9 and a largest gap of 1.06e-8 ||x|| ||y||,
        # above tol 1e-8: the gap used to reject this pair
        params = SchattenParams(1.5, 3, 1)
        x, y = _near_boundary_candidate(5, params, 1.4e-4)
        certificate = check_membership(x, y, params)
        assert certificate.notes["pairing"] and certificate.notes["dual_bound"]
        assert not certificate.notes["vn_equality"]
        assert certificate.accepted
        assert not certificate.notes["conservative_rejection_possible"]

    def test_the_pairing_residual_is_that_of_the_report(self):
        rep = random_odeco((3, 4, 5), 3, 2)
        params = SchattenParams(3, 2, 1)
        x, y = to_dense(rep), 2.0 * schatten_subgradient(rep, params)
        certificate = check_membership(x, y, params)
        norm_x = schatten_norm(x, params)
        assert certificate.pairing_residual == abs(vn_report(x, y).inner - norm_x)
        assert not certificate.notes["pairing"] and not certificate.accepted

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, -1e-8])
    def test_a_tolerance_that_is_not_finite_and_nonnegative_raises(self, tol):
        # inf accepted 2g and a Gaussian candidate; nan rejected the
        # canonical subgradient
        rep = random_odeco((3, 3, 3), 3, 1)
        params = SchattenParams(3, 2, 1)
        x, g = to_dense(rep), schatten_subgradient(rep, params)
        with pytest.raises(ValueError, match="tol: tolerance must be a finite real >= 0"):
            check_membership(x, g, params, tol=tol)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    params=st.sampled_from(PARAM_GRID_3 + [SchattenParams(1.5, 3, 1)]),
    exponent=st.floats(-9.0, -2.0),
)
def test_near_boundary_verdict_is_pairing_and_dual_bound(seed, params, exponent):
    # with both conditions, Hölder bounds every per-mode gap by
    # D tol (2 + tol) ||x|| ||y||
    x, y = _near_boundary_candidate(seed, params, 10.0**exponent)
    tol = 1e-8
    certificate = check_membership(x, y, params, tol)
    notes = certificate.notes
    assert certificate.accepted is (notes["pairing"] and notes["dual_bound"])
    if certificate.accepted:
        scale = frobenius(x) * frobenius(y)
        assert np.max(certificate.vn_gaps) <= 3 * x.ndim * tol * scale


_X3 = np.random.default_rng(3).standard_normal((2, 2, 2))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: subgradient_inequality_test(
                _X3, np.ones((2, 2, 3)), SchattenParams(2, 2, 1)
            ),
            r"shape: operands differ, \(2, 2, 2\) vs \(2, 2, 3\)",
        ),
        (
            lambda: subgradient_inequality_test(_X3, _X3, SchattenParams(2, 2, 1), trials=0),
            "trials: need at least one sample",
        ),
        (
            lambda: estimate_tensor_conjugate(_X3, SchattenParams(2, 2, 1), budget=0),
            "budget: need at least one evaluation",
        ),
        (lambda: dual_vector_maximizer(np.ones((2, 2)), 2.0), "s: expected a nonempty vector"),
        (
            lambda: dual_vector_maximizer([1.0, 2.0], 0.5),
            "p: exponent must be a finite real >= 1",
        ),
        (
            lambda: schatten_subgradient(_X3, SchattenParams(2, 2, 1)),
            "rep: expected an odeco representation",
        ),
        (
            lambda: subgradient_inequality_test(_X3, _X3, SchattenParams(2, 2, 1), trials=2.5),
            r"trials: need at least one sample, as an integer; got 2\.5",
        ),
        (
            lambda: estimate_tensor_conjugate(_X3, SchattenParams(2, 2, 1), budget=2.5),
            r"budget: need at least one evaluation, as an integer; got 2\.5",
        ),
        (lambda: grid_best_pairing([1.0, 2.0], 2.0, 0), r"resolution: need a real in \(0, 1\], got 0"),
        (
            lambda: grid_best_pairing([1.0, 2.0], 2.0, math.nan),
            r"resolution: need a real in \(0, 1\], got nan",
        ),
    ],
    ids=[
        "shapes",
        "trials",
        "budget",
        "2-D s",
        "p below 1",
        "not odeco",
        "fractional trials",
        "fractional budget",
        "zero resolution",
        "nan resolution",
    ],
)
def test_each_rejected_argument_names_its_field(call, message):
    with pytest.raises(ValueError, match=message):
        call()
