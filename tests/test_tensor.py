import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorspectra import (
    as_tensor,
    frobenius,
    inner,
    is_symmetric,
    matricize,
    mode_mul,
    multi_mode_mul,
    outer,
    random_orthogonal,
    symmetrize,
    tensorize,
)
from tensorspectra.tensor import _symmetrize_stack


def unit_tensor(shape, index):
    x = np.zeros(shape)
    x[index] = 1.0
    return x


def diag_tensor(shape, values):
    x = np.zeros(shape)
    for j, v in enumerate(values):
        x[(j,) * len(shape)] = v
    return x


class TestValidation:
    def test_flat_data_with_shape(self):
        x = as_tensor([1, 2, 3, 4, 5, 6], shape=(2, 3))
        assert x.shape == (2, 3)
        assert x[1, 0] == 4.0  # row-major: last index fastest

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="at least 2 modes"):
            as_tensor([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_tensor([[np.nan, 0.0], [0.0, 0.0]])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="data"):
            as_tensor([1.0] * 7, shape=(2, 4))


class TestInnerFrobenius:
    def test_unit_entry(self):
        x = unit_tensor((2, 2), (0, 0))
        assert inner(x, x) == 1.0

    def test_disjoint_supports(self):
        x = unit_tensor((2, 2, 2), (0, 0, 0))
        y = unit_tensor((2, 2, 2), (1, 0, 0))
        assert inner(x, y) == 0.0

    def test_all_ones(self):
        x = np.ones((2, 2, 2))
        assert inner(x, x) == 8.0
        assert frobenius(x) == pytest.approx(np.sqrt(8.0), abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3, 4))
        assert inner(x, y) == inner(y, x)

    def test_zero(self):
        assert frobenius(np.zeros((3, 3, 3))) == 0.0

    def test_diagonal(self):
        assert frobenius(diag_tensor((2, 2, 2), [2, 1])) == pytest.approx(
            np.sqrt(5.0), abs=1e-15
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            inner(np.ones((2, 2)), np.ones((2, 3)))

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e300, 1e305])
    def test_frobenius_at_extreme_scales(self, scale):
        # the squares underflow to 0 or overflow to inf; the scaled sum does not
        x = np.random.default_rng(3).standard_normal((3, 3, 3))
        expected = scale * frobenius(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = frobenius(scale * x)
        assert abs(value - expected) <= 1e-15 * expected

    @pytest.mark.parametrize("shape", [(3, 3, 3), (2, 5), (4, 3, 2, 2)])
    def test_frobenius_bytes_in_the_normal_range(self, shape):
        x = np.random.default_rng(4).standard_normal(shape)
        assert frobenius(x) == np.sqrt(np.dot(x.ravel(), x.ravel()))

    def test_frobenius_of_non_finite_entries(self):
        assert frobenius(np.array([[1.0, np.inf], [0.0, 1.0]])) == np.inf
        assert np.isnan(frobenius(np.array([[1.0, np.nan], [0.0, 1.0]])))


class TestMatricize:
    def test_matrix_mode_one_is_identity(self):
        m = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(matricize(m, 1), m)
        assert np.array_equal(matricize(m, 2), m.T)

    def test_unit_entry_placement(self):
        # single entry at (2,1,1): lands in row 2, first column
        x = unit_tensor((2, 2, 2), (1, 0, 0))
        expected = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(matricize(x, 1), expected)

    def test_cyclic_column_order_oracle(self):
        # independent enumeration of the mixed-radix column formula:
        # the index of mode d+1 varies fastest, wrapping around to d-1
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4))
        for mode in (1, 2, 3):
            axis = mode - 1
            cyc = [(axis + k) % 3 for k in range(1, 3)]
            expected = np.zeros((x.shape[axis], x.size // x.shape[axis]))
            for idx in np.ndindex(*x.shape):
                col, stride = 0, 1
                for a in cyc:
                    col += idx[a] * stride
                    stride *= x.shape[a]
                expected[idx[axis], col] = x[idx]
            assert np.array_equal(matricize(x, mode), expected)

    def test_preserves_frobenius(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 4))
        for mode in (1, 2, 3):
            assert frobenius(matricize(x, mode)) == pytest.approx(
                frobenius(x), rel=1e-15
            )

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="mode"):
            matricize(np.ones((2, 2)), 3)


class TestTensorize:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 4))
        for mode in (1, 2, 3):
            assert np.array_equal(tensorize(matricize(x, mode), mode, x.shape), x)

    def test_zero(self):
        assert np.array_equal(
            tensorize(np.zeros((3, 8)), 1, (3, 2, 4)), np.zeros((3, 2, 4))
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="matrix"):
            tensorize(np.zeros((3, 7)), 1, (3, 2, 4))

    def test_adjoint_identity(self):
        # both pairings evaluated independently, no shared code path
        rng = np.random.default_rng(4)
        for _ in range(100):
            ndim = int(rng.integers(2, 5))
            dims = tuple(int(n) for n in rng.integers(2, 5, size=ndim))
            mode = int(rng.integers(1, ndim + 1))
            x = rng.standard_normal(dims)
            m = rng.standard_normal(matricize(x, mode).shape)
            lhs = float(np.sum(matricize(x, mode) * m))
            rhs = float(np.sum(x * tensorize(m, mode, dims)))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, frobenius(x) * frobenius(m))


class TestModeMul:
    def test_identity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4))
        for mode in (1, 2, 3):
            assert np.allclose(mode_mul(x, mode, np.eye(x.shape[mode - 1])), x)

    def test_swap_permutation(self):
        x = unit_tensor((2, 2), (0, 0))
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(mode_mul(x, 1, swap), unit_tensor((2, 2), (1, 0)))

    def test_factors_through_matricization(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 4))
        for mode in (1, 2, 3):
            m = rng.standard_normal((5, x.shape[mode - 1]))
            left = matricize(mode_mul(x, mode, m), mode)
            right = m @ matricize(x, mode)
            assert np.max(np.abs(left - right)) <= 1e-12 * max(
                1.0, frobenius(right)
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="matrix"):
            mode_mul(np.ones((2, 3)), 1, np.ones((2, 3)))


class TestMultiModeMul:
    def test_all_identities(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 4))
        factors = [np.eye(n) for n in x.shape]
        assert np.allclose(multi_mode_mul(x, factors), x)

    def test_order_irrelevant(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 4))
        factors = [rng.standard_normal((n, n)) for n in x.shape]
        forward = multi_mode_mul(x, factors)
        reverse = x
        for mode in (3, 2, 1):
            reverse = mode_mul(reverse, mode, factors[mode - 1])
        assert np.max(np.abs(forward - reverse)) <= 1e-12 * max(
            1.0, frobenius(forward)
        )

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 3, 3))
        factors = [random_orthogonal(3, s) for s in (10, 11, 12)]
        assert frobenius(multi_mode_mul(x, factors)) == pytest.approx(
            frobenius(x), rel=1e-12
        )

    def test_wrong_factor_count(self):
        with pytest.raises(ValueError, match="factors"):
            multi_mode_mul(np.ones((2, 2, 2)), [np.eye(2)] * 2)


class TestOuter:
    def test_basis(self):
        x = outer([[1, 0], [1, 0], [1, 0]])
        assert np.array_equal(x, unit_tensor((2, 2, 2), (0, 0, 0)))

    def test_two_vectors(self):
        assert np.array_equal(
            outer([[1, 2], [1, 0]]), np.array([[1.0, 0.0], [2.0, 0.0]])
        )

    def test_norm_multiplicativity(self):
        rng = np.random.default_rng(10)
        vecs = [rng.standard_normal(n) for n in (2, 3, 4)]
        product = np.prod([np.linalg.norm(v) for v in vecs])
        assert frobenius(outer(vecs)) == pytest.approx(product, rel=1e-12)

    def test_too_few_vectors(self):
        with pytest.raises(ValueError, match="vectors"):
            outer([[1.0, 2.0]])


class TestSymmetry:
    def test_diagonal_is_symmetric(self):
        assert is_symmetric(diag_tensor((3, 3, 3), [3, 2, 1]))

    def test_asymmetric_matrix(self):
        assert not is_symmetric(np.array([[0.0, 2.0], [0.0, 0.0]]), tol=1e-9)

    def test_symmetrize_matrix(self):
        got = symmetrize(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert np.array_equal(got, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_symmetrize_fixes_symmetric(self):
        x = diag_tensor((2, 2, 2), [2, 1])
        assert np.array_equal(symmetrize(x), x)

    def test_symmetrize_idempotent(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 3, 3))
        once = symmetrize(x)
        assert np.max(np.abs(symmetrize(once) - once)) <= 1e-14
        assert is_symmetric(once)

    def test_every_adjacent_transposition_is_checked(self):
        # a (x) a (x) b is invariant under swapping modes 1 and 2 only
        a, b = np.array([1.0, 2.0]), np.array([2.0, -1.0])
        x = outer([a, a, b])
        assert np.array_equal(np.swapaxes(x, 0, 1), x)
        assert not is_symmetric(x)
        assert not is_symmetric(np.transpose(x, (2, 0, 1)))

    def test_symmetrized_six_mode_tensor_accepted(self):
        x = np.random.default_rng(12).standard_normal((2,) * 6)
        assert not is_symmetric(x)
        assert is_symmetric(symmetrize(x))

    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2), (4, 4, 4), (2, 2, 2, 2)])
    def test_stacked_symmetrize_equals_each_slice(self, dims):
        stack = np.random.default_rng(13).standard_normal((5,) + dims)
        got = _symmetrize_stack(stack)
        for k in range(stack.shape[0]):
            # the sum over permutations, in itertools order, of one tensor
            loop = np.zeros(dims)
            for perm in itertools.permutations(range(len(dims))):
                loop += np.transpose(stack[k], perm)
            loop /= math.factorial(len(dims))
            assert np.array_equal(got[k], symmetrize(stack[k]))
            assert np.array_equal(got[k], loop)

    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError, match="cubic"):
            is_symmetric(np.ones((2, 3)))
        with pytest.raises(ValueError, match="cubic"):
            symmetrize(np.ones((2, 3)))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    ndim=st.integers(2, 4),
    data=st.data(),
)
def test_unfold_fold_properties(seed, ndim, data):
    rng = np.random.default_rng(seed)
    dims = tuple(data.draw(st.integers(1, 4)) for _ in range(ndim))
    mode = data.draw(st.integers(1, ndim))
    x = rng.standard_normal(dims)
    unfolded = matricize(x, mode)
    assert np.array_equal(tensorize(unfolded, mode, dims), x)
    m = rng.standard_normal(unfolded.shape)
    lhs = float(np.sum(unfolded * m))
    rhs = float(np.sum(x * tensorize(m, mode, dims)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, frobenius(x) * frobenius(m))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_mode_mul_factorization_property(seed):
    rng = np.random.default_rng(seed)
    ndim = int(rng.integers(2, 5))
    dims = tuple(int(n) for n in rng.integers(1, 5, size=ndim))
    mode = int(rng.integers(1, ndim + 1))
    x = rng.standard_normal(dims)
    m = rng.standard_normal((int(rng.integers(1, 5)), dims[mode - 1]))
    left = matricize(mode_mul(x, mode, m), mode)
    right = m @ matricize(x, mode)
    assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, frobenius(right))
