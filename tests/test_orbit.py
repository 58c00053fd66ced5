"""Word enumeration, orbit comparison, and quotient-dimension counting."""

from fractions import Fraction

import pytest

from planeinv.errors import (
    DegenerateConfigError,
    ShapeMismatchError,
    UnsupportedCaseError,
)
from planeinv.divisible import ReducedDivisible, embed
from planeinv.grassmann import (
    Config,
    SplitMix64,
    act_left,
    act_right,
    sample_config,
    sample_invertible,
)
from planeinv.linalg import Mat
from planeinv.orbit import (
    Verdict,
    expected_quotient_dim,
    invariant_vector,
    jacobian_rank,
    letter_count,
    naive_quotient_dim,
    same_orbit_test,
)
from planeinv.words import enumerate_words, max_word_len_for

# ---------------------------------------------------------------------------
# cyclic word enumeration
# ---------------------------------------------------------------------------


class TestWords:
    def test_golden_order(self):
        words = enumerate_words(2, 3)
        assert words[:5] == [(0,), (1,), (0, 0), (0, 1), (1, 1)]
        assert len(words) == 9

    def test_single_letter_alphabet(self):
        assert enumerate_words(1, 3) == [(0,), (0, 0), (0, 0, 0)]

    def test_rotation_representatives_only(self):
        words = set(enumerate_words(3, 4))
        assert (0, 1) in words and (1, 0) not in words
        assert (0, 1, 2) in words and (1, 2, 0) not in words

    def test_length_cap_from_letter_size(self):
        assert max_word_len_for(1) == 1
        assert max_word_len_for(2) == 3
        assert max_word_len_for(3) == 7


# ---------------------------------------------------------------------------
# dimension counting
# ---------------------------------------------------------------------------


class TestDimensions:
    @pytest.mark.parametrize(
        "n,d,s,k",
        [
            (4, 2, 5, 2),
            (4, 2, 6, 3),
            (6, 2, 6, 4),
            (6, 3, 5, 2),
            (3, 2, 5, 2),
            (3, 2, 6, 4),
            (5, 2, 5, 6),
            (5, 2, 6, 12),
            (7, 2, 5, 2),
            (7, 2, 6, 12),
            # trivial ranges
            (4, 2, 3, 0),
            (4, 2, 2, 0),
            (3, 2, 4, 0),
            (5, 2, 4, 0),
            (7, 2, 4, 0),
        ],
    )
    def test_letter_count_table(self, n, d, s, k):
        assert letter_count(n, d, s) == k

    @pytest.mark.parametrize(
        "n,d,s,dim",
        [
            (4, 2, 5, 5),
            (3, 2, 5, 2),
            (4, 2, 3, 0),
            (5, 2, 5, 6),
            (6, 3, 5, 10),
            (3, 2, 6, 4),
            # one letter: the m coefficients of its characteristic polynomial
            (2, 1, 4, 1),
            (4, 2, 4, 2),
            (6, 3, 4, 3),
        ],
    )
    def test_expected_quotient_dim_table(self, n, d, s, dim):
        assert expected_quotient_dim(n, d, s) == dim

    def test_matches_naive_count_when_nontrivial(self):
        for n, d, s, _ in [
            (4, 2, 5, None),
            (3, 2, 5, None),
            (5, 2, 6, None),
            (6, 3, 5, None),
            (7, 2, 6, None),
            (6, 4, 5, None),
        ]:
            assert expected_quotient_dim(n, d, s) == naive_quotient_dim(n, d, s)

    def test_unsupported_raises(self):
        with pytest.raises(UnsupportedCaseError):
            letter_count(5, 3, 6)


# ---------------------------------------------------------------------------
# orbit comparison
# ---------------------------------------------------------------------------


class TestSameOrbit:
    def test_moved_config_equivalent(self):
        c = sample_config(4, 2, 5, seed=8)
        rng = SplitMix64(80)
        g = sample_invertible(rng, 4)
        hs = [sample_invertible(rng, 2) for _ in range(5)]
        assert same_orbit_test(c, act_left(g, c)) is Verdict.EQUIVALENT
        assert same_orbit_test(c, act_right(hs, c)) is Verdict.EQUIVALENT

    def test_random_pair_distinct(self):
        a = sample_config(4, 2, 5, seed=1)
        b = sample_config(4, 2, 5, seed=2)
        assert same_orbit_test(a, b) is Verdict.DISTINCT

    def test_degenerate_inconclusive_never_raises(self):
        c = sample_config(4, 2, 5, seed=3)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        deg = Config(tuple(subs))
        assert same_orbit_test(deg, c) is Verdict.INCONCLUSIVE
        assert same_orbit_test(c, deg) is Verdict.INCONCLUSIVE

    def test_trivial_range_inconclusive(self):
        # both vectors are empty, so agreement proves nothing either way
        a = sample_config(4, 2, 3, seed=1)
        b = sample_config(4, 2, 3, seed=2)
        assert same_orbit_test(a, b) in (
            Verdict.EQUIVALENT,
            Verdict.INCONCLUSIVE,
        )

    def test_truncated_agreement_inconclusive(self):
        # the two letter pairs share tr of each letter but not tr G_2_2 G_2_3,
        # so only words of length >= 2 tell them apart
        def pair(second):
            grid = ((Mat([[1, 0], [0, 2]]), Mat(second)),)
            return embed(ReducedDivisible(d=2, r=2, s=5, grid=grid))

        a, b = pair([[2, 0], [0, 1]]), pair([[1, 0], [0, 2]])
        assert same_orbit_test(a, b) is Verdict.DISTINCT
        assert same_orbit_test(a, b, max_len=1) is Verdict.INCONCLUSIVE
        assert same_orbit_test(a, b, max_len=0) is Verdict.INCONCLUSIVE
        assert same_orbit_test(a, a, max_len=2) is Verdict.INCONCLUSIVE
        assert same_orbit_test(a, a, max_len=3) is Verdict.EQUIVALENT

    def test_shape_mismatch(self):
        a = sample_config(4, 2, 5, seed=1)
        b = sample_config(4, 2, 4, seed=1)
        with pytest.raises(ShapeMismatchError):
            same_orbit_test(a, b)

    def test_verdict_prints_bare_word(self):
        assert str(Verdict.DISTINCT) == "Distinct"
        assert str(Verdict.EQUIVALENT) == "Equivalent"
        assert str(Verdict.INCONCLUSIVE) == "Inconclusive"


# ---------------------------------------------------------------------------
# invariant vectors and the rank probe
# ---------------------------------------------------------------------------


class TestVectorAndRank:
    def test_vector_entries_are_words_and_fractions(self):
        v = invariant_vector(sample_config(4, 2, 5, seed=1))
        assert v.case.kind == "divisible"
        for word, value in v.entries:
            assert all(0 <= idx < len(v.letter_ids) for idx in word)
            assert isinstance(value, Fraction)

    def test_max_len_clamps(self):
        short = invariant_vector(sample_config(4, 2, 5, seed=1), max_len=1)
        assert len(short) == 2
        huge = invariant_vector(sample_config(4, 2, 5, seed=1), max_len=99)
        capped = invariant_vector(sample_config(4, 2, 5, seed=1), max_len=3)
        assert huge.entries == capped.entries

    def test_rank_zero_on_trivial(self):
        assert jacobian_rank(sample_config(4, 2, 3, seed=1)) == 0
        assert jacobian_rank(sample_config(3, 2, 4, seed=1)) == 0

    def test_rank_requires_general_position(self):
        c = sample_config(4, 2, 5, seed=3)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        with pytest.raises(DegenerateConfigError):
            jacobian_rank(Config(tuple(subs)))

    def test_rank_bounded_by_expected(self):
        c = sample_config(3, 2, 5, seed=7)
        r = jacobian_rank(c)
        assert 0 < r <= len(invariant_vector(c))
