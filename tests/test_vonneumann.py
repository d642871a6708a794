import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorspectra import (
    BlockPartition,
    check_equality_via_structure,
    complete_orthonormal,
    find_block_partition,
    frobenius,
    make_odeco,
    mode_spectrum,
    multi_mode_mul,
    random_odeco,
    random_orthogonal,
    to_dense,
    verify_equality_structure,
    vn_report,
)


def diag_tensor(shape, values):
    x = np.zeros(shape)
    for j, v in enumerate(values):
        x[(j,) * len(shape)] = v
    return x


def unit_tensor(shape, index):
    x = np.zeros(shape)
    x[index] = 1.0
    return x


class TestReport:
    def test_self_pairing_attains_bound(self):
        x = diag_tensor((2, 2, 2), [2.0, 1.0])
        report = vn_report(x, x)
        assert report.equality
        assert np.allclose(report.per_mode_gap, 0.0, atol=1e-14)

    def test_misaligned_units(self):
        # spectra are (1, 0) in every mode, so each bound is 1 while the
        # inner product vanishes
        x = unit_tensor((2, 2, 2), (0, 0, 0))
        y = unit_tensor((2, 2, 2), (1, 1, 1))
        report = vn_report(x, y)
        assert report.inner == 0.0
        assert np.allclose(report.per_mode_bound, 1.0, atol=1e-14)
        assert np.allclose(report.per_mode_gap, 1.0, atol=1e-14)
        assert not report.equality

    def test_universal_bound_sample(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            ndim = int(rng.integers(2, 5))
            dims = tuple(int(n) for n in rng.integers(2, 4, size=ndim))
            x = rng.standard_normal(dims)
            y = rng.standard_normal(dims)
            report = vn_report(x, y)
            scale = max(1.0, frobenius(x) * frobenius(y))
            assert np.min(report.per_mode_gap) >= -1e-10 * scale

    def test_matrix_case_against_direct_svd(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 4))
        y = rng.standard_normal((4, 4))
        report = vn_report(x, y)
        classical = float(
            np.dot(
                np.linalg.svd(x, compute_uv=False),
                np.linalg.svd(y, compute_uv=False),
            )
        )
        assert np.allclose(report.per_mode_bound, classical, atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            vn_report(np.ones((2, 2)), np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 4, 5)])
    @pytest.mark.parametrize("exponent", [300, -300])
    def test_each_operand_is_read_once(self, shape, exponent, monkeypatch):
        # one spectra lookup per operand, whatever D; bound d pairs row d of
        # the binary-scaled copies' spectra, scaled back
        from tensorspectra import spectral, vonneumann
        from tensorspectra.vonneumann import _binary_scaled

        rng = np.random.default_rng(49)
        x, y = (np.ldexp(rng.standard_normal(shape), exponent) for _ in range(2))
        (xs, a), (ys, b) = _binary_scaled(x), _binary_scaled(y)
        assert a != 0 and b != 0
        bounds = [
            float(np.dot(mode_spectrum(xs, d), mode_spectrum(ys, d)))
            for d in range(1, len(shape) + 1)
        ]
        lookups = []
        original = spectral._spectra

        def counted(t):
            lookups.append(t.shape)
            return original(t)

        monkeypatch.setattr(spectral, "_spectra", counted)
        monkeypatch.setattr(vonneumann, "_spectra", counted)
        report = vn_report(x, y)
        assert lookups == [shape, shape]
        assert report.per_mode_bound.tobytes() == np.ldexp(bounds, a + b).tobytes()


class TestBlockPartition:
    def test_diagonal_gives_singletons(self):
        c = diag_tensor((2, 2, 2), [2.0, 1.0])
        partition = find_block_partition(c, c)
        assert partition.n_blocks == 2
        assert partition.blocks == (((1,), (1,), (1,)), ((2,), (2,), (2,)))

    def test_dense_gives_one_block(self):
        c = np.ones((2, 2, 2))
        assert find_block_partition(c, c).n_blocks == 1

    def test_one_sided_support(self):
        # cx carries two diagonal cells, cy only the first: the second cell
        # still forms its own block and cy vanishes there
        cx = diag_tensor((2, 2, 2), [2.0, 1.0])
        cy = 3.0 * unit_tensor((2, 2, 2), (0, 0, 0))
        partition = find_block_partition(cx, cy)
        assert partition.n_blocks == 2
        ok, constants = verify_equality_structure(cx, cy, partition)
        assert ok
        assert constants[0] == pytest.approx(1.5)
        assert constants[1] == pytest.approx(0.0)

    def test_zero_inputs_single_residual_block(self):
        z = np.zeros((2, 2, 2))
        partition = find_block_partition(z, z)
        assert partition.n_blocks == 1
        assert partition.blocks[0] == ((1, 2), (1, 2), (1, 2))


@settings(max_examples=100, deadline=None)
@given(
    ndim=st.integers(2, 4),
    # per block: a mode-1 size up to 6 (tall blocks), then up to 2 per mode
    sizes=st.lists(
        st.tuples(st.integers(1, 6), *[st.integers(1, 2)] * 3), min_size=1, max_size=3
    ),
    spare=st.tuples(*[st.integers(0, 2)] * 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_planted_blocks_are_recovered(ndim, sizes, spare, seed):
    # each block's indices are a random subset of every mode; its entries are
    # a hub row (its first mode-1 index against every other index), a hub
    # column (every mode-1 index against the first other indices) and random
    # extras, so some of its indices are joined only through a chain of links
    rng = np.random.default_rng(seed)
    sizes = [s[:ndim] for s in sizes]
    dims = tuple(sum(s[d] for s in sizes) + spare[d] for d in range(ndim))
    order = [rng.permutation(n) for n in dims]
    core = np.zeros(dims)
    planted = []
    start = np.zeros(ndim, dtype=int)
    for s in sizes:
        ids = [order[d][start[d] : start[d] + s[d]] for d in range(ndim)]
        start += s
        support = rng.random(s) < 0.3
        support[(0,) + (slice(None),) * (ndim - 1)] = True
        support[(slice(None),) + (0,) * (ndim - 1)] = True
        values = rng.uniform(1.0, 2.0, s) * rng.choice([-1.0, 1.0], s)
        core[np.ix_(*ids)] = np.where(support, values, 0.0)
        planted.append(tuple(tuple(sorted(int(i) + 1 for i in v)) for v in ids))
    planted.sort(key=lambda block: block[0][0])
    residual = tuple(
        tuple(sorted(int(i) + 1 for i in order[d][start[d] :])) for d in range(ndim)
    )
    if any(residual):
        planted.append(residual)
    assert find_block_partition(core, 0.5 * core) == BlockPartition(tuple(planted))


class TestStructure:
    def test_global_proportionality(self):
        rng = np.random.default_rng(2)
        cx = rng.standard_normal((2, 2, 2))
        cy = 3.0 * cx
        ok, constants = verify_equality_structure(
            cx, cy, find_block_partition(cx, cy)
        )
        assert ok and constants[0] == pytest.approx(3.0, rel=1e-12)

    def test_per_block_constants(self):
        cx = diag_tensor((2, 2, 2), [2.0, 1.0])
        cy = np.zeros((2, 2, 2))
        cy[0, 0, 0], cy[1, 1, 1] = 4.0, 5.0
        ok, constants = verify_equality_structure(
            cx, cy, find_block_partition(cx, cy)
        )
        assert ok
        assert np.allclose(constants, [2.0, 5.0])

    def test_non_proportional_block_rejected(self):
        cx = diag_tensor((2, 2, 2), [1.0, 1.0])
        cy = diag_tensor((2, 2, 2), [1.0, 2.0])
        spanning = BlockPartition(blocks=(((1, 2), (1, 2), (1, 2)),))
        ok, _ = verify_equality_structure(cx, cy, spanning)
        assert not ok

    def test_negative_proportionality_rejected(self):
        rng = np.random.default_rng(3)
        cx = rng.standard_normal((2, 2, 2))
        ok, _ = verify_equality_structure(
            cx, -cx, find_block_partition(cx, -cx)
        )
        assert not ok

    def test_invalid_partition(self):
        c = np.ones((2, 2, 2))
        bad = BlockPartition(blocks=(((1,), (1, 2), (1, 2)),))
        with pytest.raises(ValueError, match="partition"):
            verify_equality_structure(c, c, bad)


class TestEqualityViaStructure:
    def test_shared_frame_pair(self):
        rep_x = random_odeco((3, 3, 3), 2, 4)
        rep_y = make_odeco([5.0, 0.25], rep_x.factors)
        x, y = to_dense(rep_x), to_dense(rep_y)
        frames = [complete_orthonormal(f) for f in rep_x.factors]
        assert check_equality_via_structure(x, y, frames, tol=1e-8)
        assert vn_report(x, y, tol=1e-8).equality

    def test_identical_pair(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 3, 3))
        frames = [np.eye(3)] * 3
        assert check_equality_via_structure(x, x, frames, tol=1e-8)

    def test_rotated_pair_fails(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 3, 3))
        rotations = [random_orthogonal(3, s) for s in (7, 8, 9)]
        y = multi_mode_mul(x, rotations)
        assert not check_equality_via_structure(x, y, [np.eye(3)] * 3, tol=1e-8)
        assert not vn_report(x, y, tol=1e-8).equality

    def test_non_orthogonal_frames_rejected(self):
        x = np.ones((2, 2, 2))
        with pytest.raises(ValueError, match="frames"):
            check_equality_via_structure(x, x, [np.ones((2, 2))] * 3)

    def test_scaled_copies_always_align(self):
        # y = c x with c >= 0 is the one-block proportional case; c = 0 pairs
        # everything with the residual zero block
        x = to_dense(random_odeco((3, 3, 3), 2, 9))
        frames = [random_orthogonal(3, s) for s in (1, 2, 3)]
        rotated = multi_mode_mul(x, frames)
        for c in (0.0, 2.5):
            assert check_equality_via_structure(rotated, c * rotated, frames, 1e-8)
            assert vn_report(rotated, c * rotated, 1e-8).equality

    def test_structure_result_matches_the_parts(self):
        from tensorspectra.vonneumann import EqualityStructure, _equality_structure

        rep_x = random_odeco((3, 3, 3), 2, 4)
        rep_y = make_odeco([5.0, 0.25], rep_x.factors)
        x, y = to_dense(rep_x), to_dense(rep_y)
        frames = [complete_orthonormal(f) for f in rep_x.factors]
        result = _equality_structure(x, y, frames, 1e-8, vn_report(x, y, 1e-8))
        assert isinstance(result, EqualityStructure)
        cx = multi_mode_mul(x, [w.T for w in frames])
        cy = multi_mode_mul(y, [w.T for w in frames])
        partition = find_block_partition(cx, cy, 1e-8)
        ok, constants = verify_equality_structure(cx, cy, partition, 1e-8)
        assert result.partition == partition
        assert result.verified is ok is True
        assert np.array_equal(result.constants, constants)
        with pytest.raises(AttributeError):
            result.verified = False

    def test_report_disagreeing_with_a_verified_structure_raises(self):
        from dataclasses import replace

        from tensorspectra.vonneumann import _equality_structure

        rep_x = random_odeco((3, 3, 3), 2, 4)
        rep_y = make_odeco([5.0, 0.25], rep_x.factors)
        x, y = to_dense(rep_x), to_dense(rep_y)
        frames = [complete_orthonormal(f) for f in rep_x.factors]
        report = vn_report(x, y, 1e-8)
        assert _equality_structure(x, y, frames, 1e-8, report).verified
        # the report decides the equality: proportional blocks do not overrule it
        doctored = replace(report, equality=False)
        assert _equality_structure(x, y, frames, 1e-8, doctored).verified is False


class TestScaleFreeVerdicts:
    """The equality verdicts do not change under x -> s x, y -> t y, s, t > 0."""

    X = np.random.default_rng(0).standard_normal((3, 3, 3))
    ROTATED = multi_mode_mul(X, [random_orthogonal(3, s) for s in (1, 2, 3)])
    REP = random_odeco((3, 3, 3), 3, 5)
    SHARED_X = to_dense(REP)
    SHARED_Y = to_dense(make_odeco([3.0, 2.0, 0.5], REP.factors))
    FRAMES = [complete_orthonormal(f) for f in REP.factors]

    @pytest.mark.parametrize("scale", [1.0, 1e-5, 1e-6, 1e-150, 1e150, 1e160])
    def test_rotated_pair_is_rejected_at_every_scale(self, scale):
        # an absolute floor on the tolerance accepted this pair from 1e-6 on,
        # and at 1e160 the unscaled bounds overflowed to NaN gaps
        report = vn_report(scale * self.X, scale * self.ROTATED)
        assert not report.equality
        assert (report.per_mode_gap > 0.0).all()

    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e150, 1e160])
    def test_shared_frame_pair_is_accepted_at_every_scale(self, scale):
        x, y = scale * self.SHARED_X, scale * self.SHARED_Y
        assert vn_report(x, y, 1e-8).equality
        assert check_equality_via_structure(x, y, self.FRAMES, 1e-8)

    def test_structure_constants_at_1e160(self):
        # the coefficient and residuals were computed from squared entries,
        # which overflow at this scale and rejected the proportional cores
        transposed = [w.T for w in self.FRAMES]
        cx = multi_mode_mul(self.SHARED_X, transposed)
        cy = multi_mode_mul(self.SHARED_Y, transposed)
        partition = find_block_partition(cx, cy, 1e-8)
        ok, constants = verify_equality_structure(cx, cy, partition, 1e-8)
        assert ok
        for scale_x, scale_y in ((1e160, 1e160), (1e160, 1.0), (1.0, 1e160)):
            big_ok, big = verify_equality_structure(
                scale_x * cx, scale_y * cy, partition, 1e-8
            )
            assert big_ok
            assert big == pytest.approx(constants * (scale_y / scale_x), rel=1e-12)

    def test_zero_operands_give_equality_exactly(self):
        zero = np.zeros((3, 3, 3))
        for x, y in ((zero, self.X), (self.X, zero), (zero, zero)):
            report = vn_report(x, y, tol=0.0)
            assert report.equality
            assert report.inner == 0.0
            assert not report.per_mode_gap.any()


class TestBinaryBand:
    """Operands inside the band are decomposed themselves, the rest as copies."""

    REP = random_odeco((4, 4, 4), 4, 3)
    ODECO_X = to_dense(REP)
    ODECO_Y = to_dense(make_odeco([4.0, 2.0, 1.0, 0.5], REP.factors))
    R = np.random.default_rng(0).standard_normal((4, 4, 4))

    @staticmethod
    def unit_max(t):
        return t / np.max(np.abs(t))

    @pytest.mark.parametrize("t", [1.0, 2.0**255, 2.0**-257, 0.0, -3.0e-50])
    def test_in_band_operand_comes_back_itself(self, t):
        from tensorspectra.vonneumann import _binary_scaled

        x = t * self.unit_max(self.R)
        scaled, e = _binary_scaled(x)
        assert scaled is x
        assert e == 0

    @pytest.mark.parametrize("t", [2.0**256, 2.0**-258, 1e300, 1e-300])
    def test_out_of_band_operand_is_a_scaled_copy(self, t):
        from tensorspectra.vonneumann import _binary_scaled

        x = t * self.unit_max(self.R)
        scaled, e = _binary_scaled(x)
        assert scaled is not x
        assert 0.5 <= np.max(np.abs(scaled)) < 1.0
        assert np.array_equal(np.ldexp(scaled, e), x)

    @pytest.mark.parametrize("scale", [1.5e308, 1e-318])
    @pytest.mark.parametrize(
        "pair, equality",
        [("odeco", True), ("proportional", True), ("reversed", False)],
    )
    def test_verdicts_at_both_ends_of_binary64(self, scale, pair, equality):
        # at 1.5e308 the Frobenius norms overflow; at 1e-318 every entry is
        # subnormal
        x, y = {
            "odeco": (self.unit_max(self.ODECO_X), self.unit_max(self.ODECO_Y)),
            "proportional": (self.unit_max(self.R), 0.75 * self.unit_max(self.R)),
            "reversed": (self.unit_max(self.R), self.unit_max(self.R)[::-1, ::-1, ::-1]),
        }[pair]
        assert vn_report(scale * x, scale * y).equality is equality


@settings(max_examples=60, deadline=None)
@given(s=st.integers(-150, 150), t=st.integers(-150, 150), shared=st.booleans())
def test_equality_verdict_does_not_depend_on_scale(s, t, shared):
    case = TestScaleFreeVerdicts
    x, y = (case.SHARED_X, case.SHARED_Y) if shared else (case.X, case.ROTATED)
    x, y = 10.0**s * x, 10.0**t * y
    assert vn_report(x, y, 1e-8).equality is shared
    assert check_equality_via_structure(x, y, case.FRAMES, 1e-8) is shared


class TestStructureVerdict:
    """``verified`` is proportional blocks and the reported equality."""

    # identity frames, proportional blocks with constants (0.5, 2, 1), but a
    # gap of 1 in every mode: the large entry of x meets the small one of y
    X = diag_tensor((3, 3, 3), [2.0, 1.0, 0.5])
    Y = diag_tensor((3, 3, 3), [1.0, 2.0, 0.5])

    def test_proportional_blocks_without_equality_are_not_verified(self):
        from tensorspectra.vonneumann import _equality_structure

        frames = [np.eye(3)] * 3
        report = vn_report(self.X, self.Y)
        assert not report.equality
        assert np.allclose(report.per_mode_gap, 1.0)
        structure = _equality_structure(self.X, self.Y, frames, 1e-10, report)
        assert structure.verified is False
        assert structure.partition.n_blocks == 3
        assert np.allclose(structure.constants, [0.5, 2.0, 1.0])
        assert check_equality_via_structure(self.X, self.Y, frames) is False

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, -1.0])
    def test_a_tolerance_that_is_not_finite_and_nonnegative_raises(self, tol):
        # inf declared equality for any pair
        x = to_dense(random_odeco((3, 3, 3), 3, 1))
        y = np.random.default_rng(5).standard_normal((3, 3, 3))
        match = "tol: tolerance must be a finite real >= 0"
        with pytest.raises(ValueError, match=match):
            vn_report(x, y, tol)
        with pytest.raises(ValueError, match=match):
            check_equality_via_structure(x, y, [np.eye(3)] * 3, tol)

    @pytest.mark.parametrize("name", ["cx", "cy"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_core_is_refused(self, name, bad):
        # a NaN threshold read every entry of cx as zero, and the diagonal of
        # cy alone made two blocks
        core = np.ones((2, 2, 2))
        core[0, 1, 1] = bad
        other = diag_tensor((2, 2, 2), [1.0, 1.0])
        cx, cy = (core, other) if name == "cx" else (other, core)
        with pytest.raises(ValueError, match=f"{name}: entries must be finite"):
            find_block_partition(cx, cy)
        partition = BlockPartition(blocks=(((1, 2), (1, 2), (1, 2)),))
        with pytest.raises(ValueError, match=f"{name}: entries must be finite"):
            verify_equality_structure(cx, cy, partition)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: find_block_partition(np.ones((2, 2)), np.ones((2, 3))),
            r"shape: operands differ, \(2, 2\) vs \(2, 3\)",
        ),
        (
            lambda: verify_equality_structure(
                np.ones((2, 2)), np.ones((2, 2)), BlockPartition(blocks=())
            ),
            "partition: needs at least one block",
        ),
        (
            lambda: verify_equality_structure(
                np.ones((2, 2, 2)), np.ones((2, 2, 2)), BlockPartition(blocks=(((1, 2), (1, 2)),))
            ),
            "partition: blocks must list one index set per mode",
        ),
        (
            lambda: check_equality_via_structure(
                np.ones((2, 2, 2)), np.ones((2, 2, 2)), [np.eye(2)] * 2
            ),
            r"frames: expected one matrix per mode \(3\), got 2",
        ),
    ],
    ids=["shapes", "empty partition", "mode count", "frame count"],
)
def test_each_rejected_argument_names_its_field(call, message):
    with pytest.raises(ValueError, match=message):
        call()
