"""The divisible family: ratio maps, reduction, letters, and the section."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeinv.divisible import (
    ReducedDivisible,
    embed,
    invariants,
    matrix_data,
    phi_left,
)
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
        v = invariants(c)
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
        c = sample_config(4, 2, 5, seed=1)
        rd = matrix_data(c)
        assert (rd.d, rd.r, rd.s) == (2, 2, 5)
        assert len(rd.grid) == 1 and len(rd.grid[0]) == 2

    def test_letter_accessor_matches_grid(self):
        c = sample_config(6, 2, 6, seed=2)
        rd = matrix_data(c)
        assert rd.letter(2, 2).data == rd.grid[0][0].data
        assert rd.letter(3, 3).data == rd.grid[1][1].data

    def test_needs_more_members_than_r(self):
        c = sample_config(4, 2, 2, seed=1)
        with pytest.raises(CaseMismatchError):
            phi_left(c)

    def test_left_action_fixes_letters(self):
        c = sample_config(4, 2, 5, seed=3)
        rng = SplitMix64(77)
        g = sample_invertible(rng, 4)
        a = matrix_data(c)
        b = matrix_data(act_left(g, c))
        for ra, rb in zip(a.grid, b.grid):
            for x, y in zip(ra, rb):
                assert x.data == y.data

    def test_copied_member_gives_identity_letters(self):
        # when member r+2 spans the same plane as member r+1, every letter in
        # that column collapses to the identity
        c = sample_config(4, 2, 5, seed=6)
        subs = list(c.subspaces)
        subs[3] = subs[2]  # members r+2 and r+1 coincide (r = 2)
        rd = matrix_data(Config(tuple(subs)))
        assert rd.letter(2, 2).data == Mat.identity(2).data

    def test_right_action_conjugates_letters(self):
        # all letters are conjugated by one common invertible factor, so
        # traces of words are untouched
        c = sample_config(4, 2, 5, seed=3)
        rng = SplitMix64(78)
        hs = [sample_invertible(rng, 2) for _ in range(5)]
        a = matrix_data(c)
        b = matrix_data(act_right(hs, c))
        # y = q^-1 x q for one common q, so traces of words agree
        words = [(0,), (0, 1)]
        assert evaluate_traces(b.letters(), words) == evaluate_traces(a.letters(), words)


# ---------------------------------------------------------------------------
# the normal-form section
# ---------------------------------------------------------------------------


def _random_grid(rng, d, r, s):
    return tuple(
        tuple(
            Mat([[Fraction(rng.next_int(9)) for _ in range(d)] for _ in range(d)])
            for _ in range(s - r - 1)
        )
        for _ in range(r - 1)
    )


class TestEmbed:
    @pytest.mark.parametrize("d,r,s", [(1, 2, 5), (2, 2, 5), (2, 3, 6), (2, 2, 4)])
    def test_roundtrip_exact(self, d, r, s):
        rng = SplitMix64(101)
        for _ in range(5):
            grid = _random_grid(rng, d, r, s)
            rd = ReducedDivisible(d=d, r=r, s=s, grid=grid)
            c = embed(rd)
            back = matrix_data(c)
            for ra, rb in zip(grid, back.grid):
                for x, y in zip(ra, rb):
                    assert x.data == y.data

    def test_roundtrip_with_singular_letters(self):
        # the section must work even when letters are not invertible
        zero = Mat([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]])
        one = Mat.identity(2)
        rd = ReducedDivisible(d=2, r=2, s=5, grid=((zero, one),))
        back = matrix_data(embed(rd))
        assert back.grid[0][0].data == zero.data
        assert back.grid[0][1].data == one.data

    def test_embedded_config_shape(self):
        rd = ReducedDivisible(
            d=2, r=2, s=5, grid=((Mat.identity(2), Mat.identity(2)),)
        )
        c = embed(rd)
        assert (c.n, c.d, c.s) == (4, 2, 5)

    def test_grid_shape_validated(self):
        with pytest.raises(ValueError):
            ReducedDivisible(d=2, r=2, s=5, grid=())


# ---------------------------------------------------------------------------
# general position and invariance of the full vector
# ---------------------------------------------------------------------------


class TestGeneralPositionDivisible:
    def test_sampled_pass(self):
        for seed in range(8):
            c = sample_config(4, 2, 5, seed=seed)
            assert general_position(c)
            assert invariants(c).degeneracy is None

    def test_repeated_member_fails(self):
        # member 3 equal to member 1 zeroes the (2, 1) block of the ratio
        # matrix, which can no longer be inverted
        c = sample_config(4, 2, 5, seed=1)
        subs = list(c.subspaces)
        subs[2] = subs[0]
        deg = Config(tuple(subs))
        assert not general_position(deg)
        with pytest.raises(DegenerateConfigError, match=r"block \(2, 1\)") as exc:
            invariants(deg)
        assert exc.value.block == 3

    def test_few_members_rank_condition(self):
        # s <= r: only demands the stacked columns be independent
        c = sample_config(6, 2, 2, seed=4)
        assert general_position(c)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        v = invariants(Config(tuple(subs)))
        assert len(v) == 0
        assert v.degeneracy.reason == "members are not in direct sum"
        assert not general_position(Config(tuple(subs)))

    def test_singular_letter_recorded_not_raised(self):
        # a singular letter leaves every letter defined, so the pass returns
        # the full vector and records the singular phi block with its member
        sing = Mat([[1, 0], [0, 0]])
        c = embed(ReducedDivisible(d=2, r=2, s=5, grid=((sing, Mat.identity(2)),)))
        v = invariants(c)
        assert len(v) == 9
        assert v.degeneracy.reason == "phi block (2, 2) is singular"
        assert v.degeneracy.block == 4
        assert not general_position(c)

    def test_trivial_range_failure_recorded(self):
        # s = r + 1 has no letters, so a spanning failure is recorded
        c = sample_config(4, 2, 3, seed=1)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        v = invariants(Config(tuple(subs)))
        assert len(v) == 0 and v.degeneracy is not None


class TestInvariantsDivisible:
    def test_trivial_range_empty(self):
        for s in (1, 2, 3):
            v = invariants(sample_config(4, 2, s, seed=1))
            assert len(v) == 0
            assert v.letter_ids == ()

    def test_word_count_two_letters(self):
        v = invariants(sample_config(4, 2, 5, seed=1))
        # two 2x2 letters, words up to length 3: 2 + 3 + 4 necklaces
        assert v.letter_ids == ("G_2_2", "G_2_3")
        assert len(v) == 9

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_exact_invariance(self, seed):
        c = sample_config(4, 2, 5, seed=seed)
        base = invariants(c).values
        rng = SplitMix64(seed ^ 0xABCDEF)
        g = sample_invertible(rng, 4)
        hs = [sample_invertible(rng, 2) for _ in range(5)]
        assert invariants(act_left(g, c)).values == base
        assert invariants(act_right(hs, c)).values == base

    def test_translated_grid_changes_vector(self):
        a = invariants(sample_config(4, 2, 5, seed=1))
        b = invariants(sample_config(4, 2, 5, seed=2))
        assert a.values != b.values
