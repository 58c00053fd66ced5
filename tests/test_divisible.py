"""The divisible family: ratio maps, reduction, letters, and the section."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeinv.divisible import embed, phi_left
from planeinv.errors import (
    CaseMismatchError,
    DegenerateConfigError,
    DimensionMismatchError,
    SingularMatrixError,
)
from planeinv.grassmann import (
    Config,
    SplitMix64,
    Subspace,
    act_left,
    act_right,
    general_position,
    sample_config,
    sample_invertible,
)
from planeinv.linalg import Mat
from planeinv.orbit import invariant_vector, letters
from planeinv.words import evaluate_traces

# ---------------------------------------------------------------------------
# ratio maps
# ---------------------------------------------------------------------------


def block_ratio(m: Mat, i: int, j: int, block_size: int) -> Mat:
    """Block ratio D_ij = N11 * N_i1^-1 * N_ij * N_1j^-1 (1-based block indices).

    The letter formula written out block by block, as the oracle for the
    letter grid, which inverts each block once instead.
    """
    d = block_size
    if m.rows % d or m.cols % d:
        raise DimensionMismatchError("matrix is not divided evenly into d x d blocks")
    br, bc = m.rows // d, m.cols // d
    if not (1 <= i <= br and 1 <= j <= bc):
        raise IndexError(f"block ({i}, {j}) out of range for a {br} x {bc} block grid")

    def blk(bi: int, bj: int) -> Mat:
        return m.block((bi - 1) * d, bi * d, (bj - 1) * d, bj * d)

    def inv(bi: int, bj: int) -> Mat:
        try:
            return blk(bi, bj).inverse()
        except SingularMatrixError:
            raise DegenerateConfigError(
                f"block ({bi}, {bj}) of the translated matrix is singular"
            ) from None

    return blk(1, 1) @ inv(i, 1) @ blk(i, j) @ inv(1, j)


def double_ratio(m: Mat, block_size: int) -> Mat:
    """The 2 x 2 block ratio of a 2d x 2d matrix: N11 N21^-1 N22 N12^-1."""
    if m.rows != 2 * block_size or m.cols != 2 * block_size:
        raise DimensionMismatchError("double_ratio needs a 2d x 2d matrix")
    return block_ratio(m, 2, 2, block_size)


def _phi_of_points(*zs):
    """Ratio matrix of the four projective-line points (1; z)."""
    a = Mat([[1, 1], [zs[0], zs[1]]])
    b = Mat([[1, 1], [zs[2], zs[3]]])
    return a.inverse() @ b


class TestRatioMaps:
    def test_cross_ratio_golden(self):
        # four points on the projective line written as columns (1; z) with
        # z = 0, 1, 2, 3 produce the classical cross ratio value 3/4
        val = double_ratio(_phi_of_points(0, 1, 2, 3), 1)
        assert val.data == [[Fraction(3, 4)]]

    def test_cross_ratio_through_pipeline(self):
        cols = [Mat([[1], [z]]) for z in (0, 1, 2, 3)]
        c = Config(tuple(Subspace(col) for col in cols))
        v = invariant_vector(c)
        assert v.letter_ids == ("G_2_2",)
        assert v.values == (Fraction(3, 4),)

    def test_block_ratio_defaults_to_double_ratio(self):
        phi = _phi_of_points(0, 1, 2, 3)
        assert block_ratio(phi, 2, 2, 1).data == double_ratio(phi, 1).data

    def test_scale_invariance(self):
        # rescaling any single point column leaves the ratio unchanged
        base = double_ratio(_phi_of_points(0, 1, 2, 3), 1)
        a = Mat([[1, 7], [0, 7]])
        b = Mat([[1, 1], [2, 3]])
        scaled = double_ratio(a.inverse() @ b, 1)
        assert scaled.data == base.data

    def test_degenerate_block_raises(self):
        # third point equal to the first zeroes N_21
        with pytest.raises(DegenerateConfigError):
            double_ratio(_phi_of_points(0, 1, 0, 3), 1)


# ---------------------------------------------------------------------------
# reduction to matrix data
# ---------------------------------------------------------------------------


class TestMatrixData:
    def test_letter_grid_shape(self):
        _, ids, mats, _ = letters(sample_config(4, 2, 5, seed=1))
        assert ids == ("G_2_2", "G_2_3")
        assert [(m.rows, m.cols) for m in mats] == [(2, 2), (2, 2)]

    def test_letter_g_i_j_is_the_block_ratio(self):
        # the letters come in id order: letter G_i_j is D_ij of phi
        c = sample_config(6, 2, 6, seed=2)
        _, ids, mats, _ = letters(c)
        assert ids == ("G_2_2", "G_2_3", "G_3_2", "G_3_3")
        phi = phi_left(c, 3)
        for letter_id, m in zip(ids, mats):
            i, j = map(int, letter_id.split("_")[1:])
            assert m == block_ratio(phi, i, j, 2)

    def test_needs_more_members_than_r(self):
        c = sample_config(4, 2, 2, seed=1)
        with pytest.raises(CaseMismatchError):
            phi_left(c, 2)

    def test_left_action_fixes_letters(self):
        c = sample_config(4, 2, 5, seed=3)
        rng = SplitMix64(77)
        g = sample_invertible(rng, 4)
        assert letters(act_left(g, c))[2] == letters(c)[2]

    def test_copied_member_gives_identity_letters(self):
        # when member r+2 spans the same plane as member r+1, every letter in
        # that column collapses to the identity
        c = sample_config(4, 2, 5, seed=6)
        subs = list(c.subspaces)
        subs[3] = subs[2]  # members r+2 and r+1 coincide (r = 2)
        _, ids, mats, _ = letters(Config(tuple(subs)))
        assert dict(zip(ids, mats))["G_2_2"] == Mat.identity(2)

    def test_right_action_conjugates_letters(self):
        # all letters are conjugated by one common invertible factor, so
        # traces of words are untouched
        c = sample_config(4, 2, 5, seed=3)
        rng = SplitMix64(78)
        hs = [sample_invertible(rng, 2) for _ in range(5)]
        a = letters(c)[2]
        b = letters(act_right(hs, c))[2]
        # y = q^-1 x q for one common q, so traces of words agree
        words = [(0,), (0, 1)]
        assert evaluate_traces(b, words) == evaluate_traces(a, words)


# ---------------------------------------------------------------------------
# the normal-form section
# ---------------------------------------------------------------------------


def _random_letters(rng, d, r, s):
    return tuple(
        Mat([[Fraction(rng.next_int(9)) for _ in range(d)] for _ in range(d)])
        for _ in range((r - 1) * (s - r - 1))
    )


class TestEmbed:
    @pytest.mark.parametrize("d,r,s", [(1, 2, 5), (2, 2, 5), (2, 3, 6), (2, 2, 4), (2, 2, 3)])
    def test_roundtrip_exact(self, d, r, s):
        rng = SplitMix64(101)
        for _ in range(5):
            x = _random_letters(rng, d, r, s)
            assert letters(embed(d, r, s, x))[2] == x

    def test_roundtrip_with_singular_letters(self):
        # the section must work even when letters are not invertible
        zero = Mat([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]])
        one = Mat.identity(2)
        assert letters(embed(2, 2, 5, (zero, one)))[2] == (zero, one)

    def test_embedded_config_shape(self):
        c = embed(2, 2, 5, (Mat.identity(2), Mat.identity(2)))
        assert (c.n, c.d, c.s) == (4, 2, 5)

    def test_letter_g_i_j_in_block_row_i_of_member_r_plus_j(self):
        d, r, s = 2, 3, 6
        x = tuple(Mat([[k, 1], [0, k + 1]]) for k in range(1, 5))
        c = embed(d, r, s, x)
        ids = letters(c)[1]
        assert ids == ("G_2_2", "G_2_3", "G_3_2", "G_3_3")
        for letter_id, m in zip(ids, x):
            i, j = map(int, letter_id.split("_")[1:])
            basis = c.subspaces[r + j - 1].basis
            assert basis.block((i - 1) * d, i * d, 0, d) == m
            assert basis.block(0, d, 0, d) == Mat.identity(d)

    def test_grid_shape_validated(self):
        for d, r, s, count, size, match in [
            (2, 2, 5, 0, 2, "needs 2 letters, got 0"),  # wrong count
            (2, 2, 5, 3, 2, "needs 2 letters, got 3"),
            (2, 3, 6, 2, 2, "needs 4 letters, got 2"),
            (2, 2, 5, 2, 3, "letters must be 2 x 2"),  # wrong letter size
            (2, 1, 5, 0, 2, "need d >= 1, r >= 2"),  # r < 2
            (2, 2, 2, 0, 2, "s >= r \\+ 1"),  # s < r + 1
            (0, 2, 5, 2, 0, "need d >= 1"),
        ]:
            with pytest.raises(ValueError, match=match):
                embed(d, r, s, (Mat.identity(size),) * count)


# ---------------------------------------------------------------------------
# general position and invariance of the full vector
# ---------------------------------------------------------------------------


class TestGeneralPositionDivisible:
    def test_sampled_pass(self):
        for seed in range(8):
            c = sample_config(4, 2, 5, seed=seed)
            assert general_position(c)
            assert invariant_vector(c).degeneracy is None

    def test_repeated_member_fails(self):
        # member 3 equal to member 1 zeroes the (2, 1) block of the ratio
        # matrix, which can no longer be inverted
        c = sample_config(4, 2, 5, seed=1)
        subs = list(c.subspaces)
        subs[2] = subs[0]
        deg = Config(tuple(subs))
        assert not general_position(deg)
        with pytest.raises(DegenerateConfigError, match=r"block \(2, 1\)") as exc:
            invariant_vector(deg)
        assert exc.value.block == 3

    def test_few_members_rank_condition(self):
        # s <= r: only demands the stacked columns be independent
        c = sample_config(6, 2, 2, seed=4)
        assert general_position(c)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        v = invariant_vector(Config(tuple(subs)))
        assert len(v) == 0
        assert v.degeneracy.reason == "members are not in direct sum"
        assert not general_position(Config(tuple(subs)))

    def test_singular_letter_recorded_not_raised(self):
        # a singular letter leaves every letter defined, so the pass returns
        # the full vector and records the singular phi block with its member
        sing = Mat([[1, 0], [0, 0]])
        c = embed(2, 2, 5, (sing, Mat.identity(2)))
        v = invariant_vector(c)
        assert len(v) == 9
        assert v.degeneracy.reason == "phi block (2, 2) is singular"
        assert v.degeneracy.block == 4
        assert not general_position(c)

    def test_trivial_range_failure_recorded(self):
        # s = r + 1 has no letters, so a spanning failure is recorded
        c = sample_config(4, 2, 3, seed=1)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        v = invariant_vector(Config(tuple(subs)))
        assert len(v) == 0 and v.degeneracy is not None


class TestInvariantsDivisible:
    def test_trivial_range_empty(self):
        for s in (1, 2, 3):
            v = invariant_vector(sample_config(4, 2, s, seed=1))
            assert len(v) == 0
            assert v.letter_ids == ()

    def test_word_count_two_letters(self):
        v = invariant_vector(sample_config(4, 2, 5, seed=1))
        # two 2x2 letters, words up to length 3: 2 + 3 + 4 necklaces
        assert v.letter_ids == ("G_2_2", "G_2_3")
        assert len(v) == 9

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_exact_invariance(self, seed):
        c = sample_config(4, 2, 5, seed=seed)
        base = invariant_vector(c).values
        rng = SplitMix64(seed ^ 0xABCDEF)
        g = sample_invertible(rng, 4)
        hs = [sample_invertible(rng, 2) for _ in range(5)]
        assert invariant_vector(act_left(g, c)).values == base
        assert invariant_vector(act_right(hs, c)).values == base

    def test_translated_grid_changes_vector(self):
        a = invariant_vector(sample_config(4, 2, 5, seed=1))
        b = invariant_vector(sample_config(4, 2, 5, seed=2))
        assert a.values != b.values
