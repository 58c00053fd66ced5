"""Word enumeration, orbit comparison, and quotient-dimension counting."""

import hashlib
from fractions import Fraction

import pytest
from test_acceptance import RANK_CELLS
from test_linalg import deriv

from planeinv import cli, divisible, odd, orbit
from planeinv import words as word_module
from planeinv.errors import (
    DegenerateConfigError,
    ShapeMismatchError,
    UnsupportedCaseError,
)
from planeinv.divisible import embed
from planeinv.grassmann import (
    Config,
    SplitMix64,
    Subspace,
    act_left,
    act_right,
    classify_case,
    sample_config,
    sample_invertible,
)
from planeinv.linalg import Mat, hstack, vstack
from planeinv.orbit import (
    Verdict,
    expected_quotient_dim,
    invariant_vector,
    jacobian_rank,
    letter_count,
    same_orbit_test,
)
from planeinv.words import enumerate_words, evaluate_traces, max_word_len_for

# The shapes of the benchmark's orbit workloads.
ORBIT_SHAPES = [(4, 2, 5), (3, 2, 6), (5, 2, 5), (7, 2, 7), (6, 4, 6)]


def naive_quotient_dim(n, d, s):
    """Configuration-space dimension s*d*(n-d) less the projectivized group's n^2 - 1."""
    return s * d * (n - d) - (n * n - 1)

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
        "n,d,s",
        [
            (n, d, s)
            for n, d, r in [(2, 1, 2), (3, 1, 3), (6, 2, 3), (3, 2, 1), (5, 2, 2), (7, 2, 3)]
            for s in range(1, r + 5)
        ],
    )
    def test_letters_follow_the_alphabet(self, n, d, s):
        """The pass returns letter_ids(tag, s), one letter each, in every range."""
        module = divisible if n % d == 0 else odd
        tag, ids, mats, _ = orbit.letters(sample_config(n, d, s, seed=1))
        assert ids == module.letter_ids(tag, s)
        assert len(mats) == letter_count(n, d, s)

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

    def test_triangular_letters_not_conjugate_to_their_diagonal(self):
        """T = [[1, 1], [0, 2]] is not conjugate to diag(1, 2) jointly with D = diag(3, 5).

        The intertwiners X with X T = diag(1, 2) X and X D = D X are
        singular, so the two normal forms lie in different orbits; their
        traces agree on every word.
        """
        diag = diag_of_tri_config()
        assert invariant_vector(tri_config()).values == invariant_vector(diag).values
        assert orbit._intertwiners(tri_letters(), orbit.letters(diag)[2]).cols == 1
        assert same_orbit_test(tri_config(), diag) is Verdict.DISTINCT
        assert same_orbit_test(diag, tri_config()) is Verdict.DISTINCT

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "make,dim",
        [
            (lambda: diag_pair_config(), 2),
            (lambda: diag_grid_config(6, 3, 5), 3),
        ],
        ids=["diag-pair", "commuting-3x3"],
    )
    def test_moved_reducible_tuple_equivalent(self, make, dim, seed):
        """Diagonal letters commute, so W has dimension >= 2 and the combination decides.

        The commuting 3 x 3 letters diag(1, 2, 3) and diag(2, 3, 1) at
        (d, r, s) = (3, 2, 5) are the letters of CI's ``embed`` pin.
        """
        c = make()
        rng = SplitMix64(seed)
        left = act_left(sample_invertible(rng, c.n), c)
        right = act_right([sample_invertible(rng, c.d) for _ in range(c.s)], c)
        for moved in (left, right):
            assert orbit._intertwiners(orbit.letters(c)[2], orbit.letters(moved)[2]).cols == dim
            assert same_orbit_test(c, moved) is Verdict.EQUIVALENT
            assert same_orbit_test(moved, c) is Verdict.EQUIVALENT

    def test_jordan_block_against_identity_not_equivalent(self):
        """W = {X : X J = X} has dimension 2, and each of its elements is singular."""
        jordan = embed(2, 2, 4, (Mat([[1, 1], [0, 1]]),))
        eye = embed(2, 2, 4, (Mat.identity(2),))
        assert invariant_vector(jordan).values == invariant_vector(eye).values
        assert orbit._intertwiners(orbit.letters(jordan)[2], orbit.letters(eye)[2]).cols == 2
        assert same_orbit_test(jordan, eye) is Verdict.INCONCLUSIVE
        assert same_orbit_test(jordan, jordan) is Verdict.EQUIVALENT

    @pytest.mark.parametrize("shape", ORBIT_SHAPES + [(6, 3, 6), (10, 4, 6)])
    def test_distinct_wherever_word_traces_differ(self, shape):
        """A word-trace difference proves Distinct, and letter conjugacy finds it too."""
        for seed in range(1, 6):
            c = sample_config(*shape, seed=seed)
            base = invariant_vector(c).values
            for other in (moved_copy(c, seed), sample_config(*shape, seed=seed + 100)):
                verdict = same_orbit_test(c, other)
                if invariant_vector(other).values != base:
                    assert verdict is Verdict.DISTINCT, (shape, seed)
                else:
                    assert verdict is Verdict.EQUIVALENT, (shape, seed)

    @pytest.mark.parametrize("shape", [(8, 4, 6), (9, 3, 6)])
    def test_wide_shapes_decided_both_ways(self, shape):
        c = sample_config(*shape, seed=1)
        assert same_orbit_test(c, moved_copy(c, 1)) is Verdict.EQUIVALENT
        assert same_orbit_test(c, sample_config(*shape, seed=2)) is Verdict.DISTINCT

    def test_calls_no_word_function(self, monkeypatch):
        """The verdict comes from the letters alone: no word is enumerated or evaluated."""
        called = spy_on_words(monkeypatch)
        c = sample_config(6, 3, 6, seed=1)
        assert same_orbit_test(c, moved_copy(c, 1)) is Verdict.EQUIVALENT
        assert same_orbit_test(c, sample_config(6, 3, 6, seed=2)) is Verdict.DISTINCT
        assert called == []
        invariant_vector(c)  # the spy sees the word stage where it runs
        assert "evaluate_traces" in called

    def test_short_word_agreement_is_distinct(self):
        # the two letter pairs share tr of each letter but not tr G_2_2 G_2_3,
        # so only words of length >= 2 tell them apart
        def pair(second):
            return embed(2, 2, 5, (Mat([[1, 0], [0, 2]]), Mat(second)))

        a, b = pair([[2, 0], [0, 1]]), pair([[1, 0], [0, 2]])
        assert same_orbit_test(a, b) is Verdict.DISTINCT
        assert same_orbit_test(a, a) is Verdict.EQUIVALENT

    def test_shape_mismatch(self):
        a = sample_config(4, 2, 5, seed=1)
        b = sample_config(4, 2, 4, seed=1)
        with pytest.raises(ShapeMismatchError):
            same_orbit_test(a, b)

    def test_unsupported_shape_raises(self):
        # (5, 3) is neither n = r*d nor n = (2r+1)e with d = 2e.
        c = Config([
            Subspace(Mat([[int((i + k) % 5 == j) for j in range(3)] for i in range(5)]))
            for k in range(6)
        ])
        message = r"no reduction applies to \(n, d\) = \(5, 3\)"
        with pytest.raises(UnsupportedCaseError, match=message):
            same_orbit_test(c, c)
        with pytest.raises(UnsupportedCaseError, match=message):
            jacobian_rank(c)

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

    @pytest.mark.parametrize("n,d,s,seed,pinned", RANK_CELLS)
    def test_words_reach_generating_length(self, n, d, s, seed, pinned):
        v = invariant_vector(sample_config(n, d, s, seed=seed))
        m = v.case.e if v.case.kind == "odd_multiple" else d
        assert [w for w, _ in v.entries] == enumerate_words(letter_count(n, d, s), 2**m - 1)
        assert v.max_word_len == 2**m - 1

    def test_rank_zero_on_trivial(self, monkeypatch):
        """No letters, no words: the rational pass answers 0 and no jet pass runs."""
        passes = counted_passes(monkeypatch)
        assert jacobian_rank(sample_config(4, 2, 3, seed=1)) == 0
        assert jacobian_rank(sample_config(3, 2, 4, seed=1)) == 0
        assert passes == []

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


# ---------------------------------------------------------------------------
# the rank sketch: bound + 1 random directions off the fixed members,
# exhaustive fallback
# ---------------------------------------------------------------------------


def unit_rows(config):
    """The Jacobian J, one row per coordinate: one one-direction jet pass each, as ``Fraction``s."""
    coords = config.n * config.d * config.s
    rows = []
    for k in range(coords):
        unit = [[int(c == k) for c in range(coords)]]
        rows.append([(deriv(*pair) or [Fraction(0)])[0] for pair in orbit._jet_pass(config, unit)])
    return rows


def exhaustive_rank(config):
    """The rank from one one-direction jet pass per coordinate."""
    return Mat(unit_rows(config)).rank()


def difference_quotients(config, directions, t):
    """``(v(x + t R) - v(x)) / t`` for each direction R, one entry per word.

    R holds one entry per basis entry, in (member, row, column) order, as
    the directions of :func:`planeinv.orbit._jet_pass` do.
    """
    base = [value for _, value in invariant_vector(config).entries]
    out = []
    for direction in directions:
        steps = iter(direction)
        moved = Config([
            Subspace(Mat([[x + t * next(steps) for x in row] for row in sub.basis.data]))
            for sub in config.subspaces
        ])
        values = [value for _, value in invariant_vector(moved).entries]
        out.append([(b - a) / t for a, b in zip(base, values)])
    return out


def diag_pair_config():
    """A (4,2,5) point where two commuting letters make the rank fall to 4."""
    return diag_grid_config(4, 2, 5)


def diag_grid_config(n, d, s):
    """The divisible normal form whose letters are diagonal: letter t holds 1..d rotated by t.

    Diagonal letters commute, so the tuple is reducible and its rank is
    below the count.
    """
    r = n // d
    letters = [
        Mat([[((i + t) % d + 1) * (i == j) for j in range(d)] for i in range(d)]) for t in range(s - r - 1)
    ]
    return embed(d, r, s, tuple(letters) * (r - 1))


def odd_normal_form(letters):
    """E(x) at r = 1: a configuration whose sigma letters are ``letters`` up to one common conjugation.

    In (Q^e)^3, members 1-3 are the coordinate blocks (1,2), (1,3) and
    (2,3), member 4 is graph(I, I), and member i >= 5 is graph(x_{2i-1},
    x_{2i}), where graph(A, B) spans (u, v, A u + B v) and x_9, x_10, ...
    are ``letters`` in order.
    """
    e = letters[0].rows
    eye = [[int(i == j) for j in range(e)] for i in range(e)]
    zero = [[0] * e for _ in range(e)]

    def member(*block_rows):
        return Subspace(Mat([a + b for left, right in block_rows for a, b in zip(left, right)]))

    subs = [
        member((eye, zero), (zero, eye), (zero, zero)),
        member((eye, zero), (zero, zero), (zero, eye)),
        member((zero, zero), (eye, zero), (zero, eye)),
        member((eye, zero), (zero, eye), (eye, eye)),
    ]
    pairs = [(x.data, y.data) for x, y in zip(letters[::2], letters[1::2])]
    return Config(subs + [member((eye, zero), (zero, eye), pair) for pair in pairs])


def odd_diag_config():
    """A (6,4,6) normal form E(x) whose four sigma letters are diagonal, so they commute."""
    return odd_normal_form([Mat([[a, 0], [0, b]]) for a, b in [(1, 2), (2, 3), (3, 5), (5, 7)]])


def tri_letters():
    """The triangular T = [[1, 1], [0, 2]] and D = diag(3, 5)."""
    return (Mat([[1, 1], [0, 2]]), Mat([[3, 0], [0, 5]]))


def tri_config():
    """The (4,2,5) normal form of :func:`tri_letters`.

    The pair is reducible (both fix the first axis), so its letters fail the
    certificate, yet its rank is the full 5.
    """
    return embed(2, 2, 5, tri_letters())


def diag_of_tri_config():
    """The (4,2,5) normal form of diag(1, 2) and D = diag(3, 5): T's diagonal in place of T."""
    return embed(2, 2, 5, (Mat([[1, 0], [0, 2]]), Mat([[3, 0], [0, 5]])))


def moved_copy(config, seed):
    """``config`` moved by a pseudo-random g on the left and h_1, ..., h_s on the right."""
    rng = SplitMix64(seed + 1000)
    g = sample_invertible(rng, config.n)
    hs = [sample_invertible(rng, config.d) for _ in range(config.s)]
    return act_right(hs, act_left(g, config))


def spy_on_words(monkeypatch):
    """Record every call of a :mod:`planeinv.words` function, in every module that holds one."""
    called = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for module in (word_module, orbit, divisible, odd, cli):
        for name, value in list(vars(module).items()):
            if getattr(value, "__module__", None) == word_module.__name__ and callable(value):
                monkeypatch.setattr(module, name, spy(name, value))
    return called


def one_letter_config(letter):
    """The (4,2,4) normal form whose one letter is ``letter``."""
    return embed(2, 2, 4, (Mat(letter),))


def is_odd_r2(n, d):
    """Whether shape (n, d) is in the odd family at r >= 2, where the rank takes the jet route."""
    tag = classify_case(n, d)
    return tag.kind == "odd_multiple" and tag.r > 1


def point_id(value):
    """``5-2-5-33`` for a point (n, d, s, seed); pytest's default id otherwise."""
    return "-".join(map(str, value)) if isinstance(value, tuple) else None


# Points with entries in [-1, 1], where the reduction over jets meets many
# entries of value 0 with a nonzero derivative.
BOUND_ONE_POINTS = [
    (5, 2, 5, 33),
    (3, 2, 5, 40),
    (3, 2, 6, 5),
    (3, 2, 6, 6),
    (4, 2, 5, 1),
    (4, 2, 5, 2),
    (5, 2, 5, 1),
    (5, 2, 5, 2),
]


# (n, d, s, F): the members the normal forms fix, per family.
FIXED_MEMBERS = [
    # divisible, n = r*d: embed's coordinate blocks and diagonal, r + 1
    (4, 2, 5, 3),
    (6, 3, 5, 3),
    (6, 2, 6, 4),
    (8, 2, 7, 5),
    # odd, r = 1: the frame's three members and member 4, whose pair normalizes
    (3, 2, 6, 4),
    (6, 4, 6, 4),
    # odd, r = 2: the frame's members 1..r + 2
    (5, 2, 5, 4),
    (10, 4, 6, 4),
    # odd, r >= 3: members 1..r + 1; member r + 2 already carries Z letters
    (7, 2, 7, 4),
    (9, 2, 7, 5),
    # fewer members than the group can fix: all of them
    (4, 2, 3, 3),
    (7, 2, 3, 3),
]

# The shapes of the jacobian benchmark workload.
JACOBIAN_BENCH_SHAPES = [(3, 2, 6), (4, 2, 5), (5, 2, 5)]


def without_certificate(monkeypatch):
    """Send every certified family's rank through the rank of G, as at a point the letters cannot certify."""
    monkeypatch.setattr(orbit, "_irreducible_rank", lambda letters: None)


def counted_passes(monkeypatch):
    """The number of directions of every jet pass from now on, in order."""
    passes = []
    jet_pass = orbit._jet_pass

    def counted(config, directions):
        passes.append(len(directions))
        return jet_pass(config, directions)

    monkeypatch.setattr(orbit, "_jet_pass", counted)
    return passes


class TestRankSketch:
    def test_special_point_falls_back(self):
        c = diag_pair_config()
        assert expected_quotient_dim(4, 2, 5) == 5
        assert jacobian_rank(c) == exhaustive_rank(c) == 4

    def test_certified_rank_takes_bound_plus_one_passes(self, monkeypatch):
        """One reduction over jets per odd point, with the F fixed members rational and the others jets."""
        points = [(3, 2, 6, 303, 4), (5, 2, 5, 404, 4), (7, 2, 7, 1, 4)]
        configs = [sample_config(n, d, s, seed=seed) for n, d, s, seed, _ in points]
        calls = []

        def counting(letters):
            def counted(config):
                calls.append(config)
                return letters(config)

            return counted

        monkeypatch.setattr(orbit, "letters", counting(orbit.letters))
        for (n, d, s, _, fixed), c in zip(points, configs):
            calls.clear()
            expected = expected_quotient_dim(n, d, s)
            assert orbit._jet_rank(c) == expected
            # one reduction over jets carries all expected + 1 directions
            (reduced,) = calls
            ks = [sub.basis.k for sub in reduced.subspaces]
            assert ks == [None] * fixed + [expected + 1] * (s - fixed), (n, d, s)

    @pytest.mark.parametrize("n,d,s", [(4, 2, 5), (6, 3, 5)])
    def test_no_jet_kernel_on_zero_derivatives(self, monkeypatch, n, d, s):
        """No jet inverse or product has only operands whose derivatives are all 0.

        Commuting letters make the sketch pass fall short, so the
        unit-direction pass runs too.  Member r + 1 is fixed in the sketch,
        so its blocks of A^-1 B are rational there.
        """
        c = diag_grid_config(n, d, s)
        passes = counted_passes(monkeypatch)
        wasted = []

        def watched(kernel):
            def run(*operands):
                if any(m.k for m in operands) and not any(
                    any(row[m.cols :]) for m in operands for row in m.num
                ):
                    wasted.append(kernel.__name__)
                return kernel(*operands)

            return run

        for name in ("inverse", "__matmul__"):
            monkeypatch.setattr(Mat, name, watched(getattr(Mat, name)))
        assert orbit._jet_rank(c) == {(4, 2, 5): 4, (6, 3, 5): 6}[n, d, s]
        sketch = len(orbit._sketch_directions(n, d, s, expected_quotient_dim(n, d, s)))
        assert passes == [sketch, n * d * (s - n // d)]
        assert wasted == []

    @pytest.mark.parametrize("n,d,s,fixed", FIXED_MEMBERS)
    def test_fixed_members_pinned_per_family(self, n, d, s, fixed):
        assert orbit._fixed_members(n, d, s) == fixed

    @pytest.mark.parametrize("n,d,s,fixed", [p for p in FIXED_MEMBERS if p[3] < p[2]])
    def test_fixed_members_are_the_normal_forms(self, n, d, s, fixed):
        """F members carry no letter, and one more member does: the reduction fixes exactly F."""
        assert expected_quotient_dim(n, d, fixed) == 0 < expected_quotient_dim(n, d, fixed + 1)
        for count, lettered in [(fixed, False), (fixed + 1, True)]:
            c = sample_config(n, d, count, seed=1)
            _, ids, _, degeneracy = orbit.letters(c)
            assert bool(ids) is lettered and degeneracy is None

    @pytest.mark.parametrize("n,d,s", [(4, 2, 5), (6, 2, 6), (6, 3, 5)])
    def test_embed_fixes_the_first_members(self, n, d, s):
        """embed's first F members are the same for every letter grid, and member F + 1 is not."""
        r = n // d
        a, b = (embed(d, r, s, orbit.letters(sample_config(n, d, s, seed=seed))[2]) for seed in (1, 2))
        fixed = orbit._fixed_members(n, d, s)
        assert a.subspaces[:fixed] == b.subspaces[:fixed]
        assert a.subspaces[fixed] != b.subspaces[fixed]

    @pytest.mark.parametrize(
        "n,d,s,seed",
        [cell[:4] for cell in RANK_CELLS]
        + [(*shape, seed) for shape in JACOBIAN_BENCH_SHAPES for seed in range(1, 9)],
    )
    def test_one_pass_without_fallback(self, monkeypatch, n, d, s, seed):
        """The sketch certifies in one pass, also in the families whose rank does not take it."""
        passes = counted_passes(monkeypatch)
        assert orbit._jet_rank(sample_config(n, d, s, seed=seed)) == expected_quotient_dim(n, d, s)
        assert passes == [len(orbit._sketch_directions(n, d, s, expected_quotient_dim(n, d, s)))]

    def test_count_computed_once(self, monkeypatch):
        """One (5,2,5) rank computes the count once, and classifies the shape 3 times.

        Once to choose the route, once for the count and once in the jet
        pass's one reduction; ``orbit._reduction`` is the only caller.
        """
        c = sample_config(5, 2, 5, seed=1)
        calls = []

        def counted(n, d):
            calls.append((n, d))
            return classify_case(n, d)

        monkeypatch.setattr(orbit, "classify_case", counted)
        assert jacobian_rank(c) == 6
        assert calls == [(5, 2)] * 3

    @pytest.mark.parametrize("extra", [1, 5])
    @pytest.mark.parametrize("n,d,s,seed,true_rank", [(4, 2, 5, 101, 5), (5, 2, 5, 404, 6)])
    def test_wrong_fixed_count_stays_exact(self, monkeypatch, n, d, s, seed, true_rank, extra):
        """Fixing too many members (all of them at ``extra = 5``) only costs the fallback pass over members r+1..s."""
        fixed = orbit._fixed_members
        monkeypatch.setattr(orbit, "_fixed_members", lambda *shape: min(shape[2], fixed(*shape) + extra))
        passes = counted_passes(monkeypatch)
        assert orbit._jet_rank(sample_config(n, d, s, seed=seed)) == true_rank
        assert passes[1:] == [n * d * (s - classify_case(n, d).r)]

    @pytest.mark.parametrize("point", [(4, 2, 5, 101), (3, 2, 6, 303), (5, 2, 5, 404)], ids=point_id)
    def test_sliced_rows_match_unit_oracle(self, point):
        """The sketch rows are R J exactly, J from one unit-direction pass per coordinate."""
        n, d, s, seed = point
        c = sample_config(n, d, s, seed=seed)
        directions = orbit._sketch_directions(n, d, s, expected_quotient_dim(n, d, s))
        fixed = n * d * orbit._fixed_members(n, d, s)
        assert all(not any(r[:fixed]) and any(r[fixed:]) for r in directions)
        jac = unit_rows(c)
        want = [[sum(x * row[w] for x, row in zip(r, jac)) for w in range(len(jac[0]))] for r in directions]
        columns = [
            deriv(*pair) or [Fraction(0)] * len(directions) for pair in orbit._jet_pass(c, directions)
        ]
        assert [list(row) for row in zip(*columns)] == want

    @pytest.mark.parametrize(
        "point,bound",
        [(cell[:4], 10) for cell in RANK_CELLS if is_odd_r2(*cell[:2])]
        + [(point, 1) for point in BOUND_ONE_POINTS],
        ids=point_id,
    )
    def test_fallback_over_later_members_is_exact(self, monkeypatch, point, bound):
        """With no sketch certified, the unit pass along members r+1..s alone gives the exact rank."""
        n, d, s, seed = point
        c = sample_config(n, d, s, seed=seed, bound=bound)
        want = exhaustive_rank(c)
        monkeypatch.setattr(orbit, "_rank_mod_p", lambda rows, p: -1)
        passes = counted_passes(monkeypatch)
        assert orbit._jet_rank(c) == want
        assert passes[1:] == [n * d * (s - classify_case(n, d).r)]

    @pytest.mark.parametrize("n,d,s,seed,pinned", RANK_CELLS)
    def test_agrees_with_exhaustive_on_rank_cells(self, n, d, s, seed, pinned):
        c = sample_config(n, d, s, seed=seed)
        assert jacobian_rank(c) == exhaustive_rank(c)

    @pytest.mark.parametrize("shape", [(3, 2, 6), (4, 2, 5), (5, 2, 5)])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_agrees_with_exhaustive_on_sampled_points(self, shape, seed):
        c = sample_config(*shape, seed=seed)
        assert jacobian_rank(c) == exhaustive_rank(c)

    @pytest.mark.parametrize("point", BOUND_ONE_POINTS, ids=point_id)
    def test_agrees_with_exhaustive_at_bound_one(self, point):
        n, d, s, seed = point
        c = sample_config(n, d, s, seed=seed, bound=1)
        assert jacobian_rank(c) == exhaustive_rank(c)

    @pytest.mark.parametrize(
        "point,bound",
        [((5, 2, 5, 6), 1), ((5, 2, 5, 33), 1), ((7, 2, 7, 1), 1)]
        + [(cell[:4], 10) for cell in RANK_CELLS if is_odd_r2(*cell[:2])],
        ids=point_id,
    )
    def test_echelon_point_keeps_the_rank(self, monkeypatch, point, bound):
        """The jet route differentiates at the echelon form E c: a left action moves neither rank.

        At the bound-1 points the rank is below the count, so the sketch
        falls short and the unit-direction pass decides, at E c and at g c.
        """
        n, d, s, seed = point
        c = sample_config(n, d, s, seed=seed, bound=bound)
        g = sample_invertible(SplitMix64(seed), n)
        passes = counted_passes(monkeypatch)
        assert orbit._jet_rank(c) == orbit._jet_rank(act_left(g, c)) == exhaustive_rank(c)
        assert len(passes) == (4 if bound == 1 else 2) + n * d * s

    @pytest.mark.parametrize("point,true_rank", [((5, 2, 5, 33), 3), ((3, 2, 5, 40), 2)], ids=point_id)
    def test_rank_at_zero_valued_jets(self, point, true_rank):
        # The reduction over jets meets entries of value 0 with a nonzero
        # derivative here; leaving them uncleared gave the ranks 4 and 1.
        # The r = 1 point is certified by its letters, so the jet route
        # runs on its own too.
        n, d, s, seed = point
        c = sample_config(n, d, s, seed=seed, bound=1)
        assert jacobian_rank(c) == true_rank
        assert orbit._jet_rank(c) == true_rank

    @pytest.mark.parametrize("shift", [-1, 1])
    @pytest.mark.parametrize(
        "n,d,s,seed,true_rank", [(4, 2, 5, 101, 5), (3, 2, 6, 303, 4), (5, 2, 5, 404, 6)]
    )
    def test_wrong_count_cannot_certify_itself(self, monkeypatch, n, d, s, seed, true_rank, shift):
        monkeypatch.setattr(
            orbit, "expected_quotient_dim", lambda *shape: expected_quotient_dim(*shape) + shift
        )
        assert jacobian_rank(sample_config(n, d, s, seed=seed)) == true_rank


# The divisible points the letters' certificate decides: the divisible rank
# cells and the (4,2,5) points of the jacobian benchmark workload.
CERTIFIED_POINTS = [cell[:4] for cell in RANK_CELLS if classify_case(*cell[:2]).kind == "divisible"] + [
    (4, 2, 5, seed) for seed in range(1, 9)
]


# The odd r = 1 points the letters' certificate is checked against the jet
# route on: (n, d, s, bound, seed).
R1_POINTS = [
    (*shape, bound, seed)
    for shape, bounds, seeds in [
        ((3, 2, 5), (1, 2, 10), 10),
        ((3, 2, 6), (1, 2, 10), 10),
        ((3, 2, 7), (1, 2, 10), 10),
        ((6, 4, 5), (1, 10), 5),
        ((6, 4, 6), (1, 10), 5),
    ]
    for bound in bounds
    for seed in range(1, seeds + 1)
]


def assert_one_rational_pass(monkeypatch, module, c, rank):
    """``jacobian_rank(c)`` is ``rank``, from one rational ``module.reduce`` pass and no jet pass."""
    calls = []
    reduce = module.reduce
    monkeypatch.setattr(module, "reduce", lambda config, tag: calls.append(config) or reduce(config, tag))
    passes = counted_passes(monkeypatch)
    assert jacobian_rank(c) == rank
    assert passes == []
    (reduced,) = calls
    assert all(sub.basis.k is None for sub in reduced.subspaces)


class TestIrreducibleCertificate:
    @pytest.mark.parametrize("n,d,s,seed", CERTIFIED_POINTS)
    def test_divisible_rank_takes_no_jet_pass(self, monkeypatch, n, d, s, seed):
        """One rational reduction certifies the count, with no jet pass."""
        c = sample_config(n, d, s, seed=seed)
        assert_one_rational_pass(monkeypatch, divisible, c, expected_quotient_dim(n, d, s))

    @pytest.mark.parametrize(
        "n,d,s,seed,rank", [(3, 2, 6, seed, 4) for seed in range(1, 9)] + [(9, 6, 6, 1, 28)]
    )
    def test_odd_r1_rank_takes_no_jet_pass(self, monkeypatch, n, d, s, seed, rank):
        """The jacobian benchmark's (3,2,6) points and the wide (9,6,6): one rational reduction."""
        assert expected_quotient_dim(n, d, s) == rank
        assert_one_rational_pass(monkeypatch, odd, sample_config(n, d, s, seed=seed), rank)

    @pytest.mark.parametrize("n,d,s,bound,seed", R1_POINTS)
    def test_odd_r1_agrees_with_jet_route(self, n, d, s, bound, seed):
        c = sample_config(n, d, s, seed=seed, bound=bound)
        assert jacobian_rank(c) == orbit._jet_rank(c)

    @pytest.mark.parametrize(
        "n,d,s,bound,seed", [(n, d, s, 10, seed) for n, d, s, seed in CERTIFIED_POINTS] + R1_POINTS
    )
    def test_gradient_rank_agrees_with_certificate(self, monkeypatch, n, d, s, bound, seed):
        """Without its certificate, the rank of G at the letters is the certified rank, with no jet pass."""
        c = sample_config(n, d, s, seed=seed, bound=bound)
        rank = jacobian_rank(c)
        without_certificate(monkeypatch)
        passes = counted_passes(monkeypatch)
        assert jacobian_rank(c) == rank
        assert passes == []

    @pytest.mark.parametrize("e", [1, 2])
    def test_odd_normal_form_letters_are_its_coordinates(self, e):
        """The word traces of E(x) are those of x: its letters are x up to one common conjugation."""
        rng = SplitMix64(e)
        for _ in range(5):
            xs = [Mat([[rng.next_int(9) for _ in range(e)] for _ in range(e)]) for _ in range(4)]
            v = invariant_vector(odd_normal_form(xs))
            assert v.degeneracy is None
            assert v.values == tuple(evaluate_traces(xs, enumerate_words(4, 2**e - 1)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(3, 2, 6), (6, 4, 6), (6, 4, 7)])
    def test_odd_normal_form_reaches_every_point(self, shape, seed):
        """block-diag(alpha_7, alpha_8, I) H^-1 moves a point to E(sigma) of its own letters."""
        c = sample_config(*shape, seed=seed)
        tag = classify_case(c.n, c.d)
        h = odd.frame_odd(c, tag)
        alphas = odd._alpha_pairs(c, tag, h)
        e = tag.e
        blocks = [alphas[7], alphas[8], Mat.identity(e)]
        zero = Mat.zeros(e, e)
        diag = vstack([hstack([b if i == j else zero for j in range(3)]) for i, b in enumerate(blocks)])
        assert act_left(diag @ h.inverse(), c) == odd_normal_form(list(orbit.letters(c)[2]))

    @pytest.mark.parametrize("seed", [6, 33])
    def test_odd_r2_letters_do_not_certify(self, seed):
        """At r >= 2 the letters' differential is not onto everywhere, so the letters decide nothing.

        These letters pass the certificate's check, which would give 6;
        the jet pass finds 3.
        """
        c = sample_config(5, 2, 5, seed=seed, bound=1)
        assert orbit._irreducible_rank(orbit.letters(c)[2]) == 6
        assert jacobian_rank(c) == 3

    @pytest.mark.parametrize(
        "make,rank,reference",
        [
            (diag_pair_config, 4, exhaustive_rank),
            (lambda: one_letter_config([[3, 0], [0, 3]]), 1, exhaustive_rank),
            (lambda: sample_config(4, 2, 5, seed=42, bound=1), 4, exhaustive_rank),
            (odd_diag_config, 8, exhaustive_rank),
            (tri_config, 5, exhaustive_rank),
            (lambda: diag_grid_config(6, 3, 5), 6, exhaustive_rank),
            (lambda: diag_grid_config(9, 3, 6), 12, orbit._jet_rank),
        ],
        ids=["diag-pair", "scalar-letter", "equal-letters", "odd-diag", "tri", "commuting-3x3", "grid-9-3-6"],
    )
    def test_uncertified_letters_fall_back(self, monkeypatch, make, rank, reference):
        """Letters that fail the certificate get the rank of G at the letters, with no jet pass.

        Commuting letters, a scalar letter, a draw with two equal letters,
        commuting sigma letters at (6,4,6), a triangular pair of full rank,
        and commuting diagonal 3 x 3 letters at (6,3,5) and (9,3,6).  The
        widest is checked against the jet route, whose sketch falls short
        there, rather than one jet pass per coordinate.
        """
        c = make()
        assert orbit._irreducible_rank(orbit.letters(c)[2]) is None
        passes = counted_passes(monkeypatch)
        assert jacobian_rank(c) == rank
        assert passes == []
        assert reference(c) == rank

    def test_jordan_block_letter_certified(self, monkeypatch):
        """A single Jordan block is regular, so its rank m = 2 needs no jet pass."""
        c = one_letter_config([[2, 1], [0, 2]])
        passes = counted_passes(monkeypatch)
        assert jacobian_rank(c) == 2
        assert passes == []
        assert exhaustive_rank(c) == 2

    def test_one_by_one_letters_always_certified(self):
        assert orbit._irreducible_rank([Mat([[0]])]) == 1
        assert orbit._irreducible_rank([Mat([[0]]), Mat([[Fraction(1, 3)]]), Mat([[5]])]) == 3

    @pytest.mark.parametrize("seed", range(1, 21))
    @pytest.mark.parametrize("shape", [(4, 2, 4), (4, 2, 5), (4, 2, 6)])
    def test_agrees_with_exhaustive_on_bound_one_grid(self, shape, seed):
        c = sample_config(*shape, seed=seed, bound=1)
        assert jacobian_rank(c) == exhaustive_rank(c)

    @pytest.mark.parametrize("n,d,s,rank", [(9, 3, 6, 28), (8, 4, 5, 17)])
    def test_wide_ranks_take_no_jet_pass(self, monkeypatch, n, d, s, rank):
        passes = counted_passes(monkeypatch)
        assert jacobian_rank(sample_config(n, d, s, seed=1)) == rank
        assert passes == []


# sha256 of the exact rows of one jet pass along the first
# min(expected + 1, n*d*s) sketch directions with every entry drawn, none
# fixed at 0 (one row per direction, one entry per word), at each point: a
# pin of the reduction over jets with every member differentiated.
SKETCH_ROWS_SHA256 = {
    (4, 2, 4, 505): "52f64069f07cd4aa6d5908347ba1659af8d94c26fb595ca478825a723967b907",
    (4, 2, 5, 101): "5dc70de101fd82d0e4778c2f22e5976c02e14e81113d8ee0f37ee10d401b3083",
    (3, 2, 5, 202): "5680f02b6b3d6869b49bb62b0eb9347d9d3d48893406ee484b47e75291f88a93",
    (3, 2, 6, 303): "25d9b2a0b3eace20e1d90f01e64134ed8cb3d86c846c1321a7cc09f657007bda",
    (5, 2, 5, 404): "31da857ca23393bd1fd9dba32b8db8d55688a6704ae375ef97f360d77c2f2520",
    (6, 3, 5, 606): "b8e43c10ee10d42e4eedac92b437fb54a39d1f6f018bd0c70f95b19cb5f7481b",
    (3, 2, 6, 11): "130a4bdb66d562169c818fdae96e11d3a423e28806b9aaade59833bb3d9227ae",
    (3, 2, 6, 12): "69b7d1680661930ca3679d3c9f14d5fec52631da1c9420c0967cf39d02ec8b04",
    (3, 2, 6, 13): "7b1d81fa42aaa1c3fc7fe4f0625e5cd32a461491024a19ac1620a06f9316d49e",
    (4, 2, 5, 11): "fa46588e271a96ddadf0ba9ab6f509cd61c977747af240d8662eeca5afc14fac",
    (4, 2, 5, 12): "abab3db0043d4286acefddb378cd42339f9d82c5240917f49f44935b8a959140",
    (4, 2, 5, 13): "9e99589b409b01123223c909f5d8e41659af8d73de96b0f75b8c0e60e1e8c82b",
    (5, 2, 5, 11): "bccbc40c21f4a7c625690a2d33ed5e931b42a99731eff5e781a323aba6248de0",
    (5, 2, 5, 12): "93aa1c8ca40b4f47aa3e07464d4ae4173c623830e46fa87b4772d5d31b101d5b",
    (5, 2, 5, 13): "d9186deed674d799b94ecd776f54b87c18b99401ce8b6e456c0dd25b0c27480b",
}


class TestBatchedSketch:
    @pytest.mark.parametrize("point", sorted(SKETCH_ROWS_SHA256))
    def test_sketch_rows_pinned(self, point):
        n, d, s, seed = point
        coords = n * d * s
        directions = orbit._sketch(coords, min(expected_quotient_dim(n, d, s) + 1, coords), 0)
        columns = [
            deriv(*pair) or [Fraction(0)] * len(directions)
            for pair in orbit._jet_pass(sample_config(n, d, s, seed=seed), directions)
        ]
        rows = [list(row) for row in zip(*columns)]
        text = ";".join(",".join(str(x) for x in row) for row in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == SKETCH_ROWS_SHA256[point]

    @pytest.mark.parametrize(
        "point,bound",
        [(p, 10) for p in sorted(SKETCH_ROWS_SHA256)] + [(p, 1) for p in BOUND_ONE_POINTS],
        ids=point_id,
    )
    def test_rows_match_difference_quotients(self, point, bound):
        """Each sketch row is (v(x + t R) - v(x)) / t at t = 10**-30, to 10**-10 relative.

        The invariant vector v is exact, so the quotient differs from the
        derivative by O(t) only.  ``_derivative_rows`` scales each word's
        column by the denominator of its derivatives, divided back here.
        """
        n, d, s, seed = point
        c = sample_config(n, d, s, seed=seed, bound=bound)
        directions = orbit._sketch_directions(n, d, s, expected_quotient_dim(n, d, s))
        dens = [den for _, den in orbit._jet_pass(c, directions)]
        rows, _ = orbit._derivative_rows(c, directions)
        want = difference_quotients(c, directions, Fraction(1, 10**30))
        assert len(rows) == len(want) and all(len(row) == len(dens) for row in want)
        for row, quotients in zip(rows, want):
            for x, den, q in zip(row, dens, quotients):
                assert abs(Fraction(x, den) - q) <= Fraction(1, 10**10) * max(abs(q), 1)

    def test_rank_drop_mod_p_falls_back(self, monkeypatch):
        """A sketch whose integer rows lose rank mod 2**61 - 1 is not certified: the unit pass decides."""
        p = orbit._RANK_PRIME
        assert p == 2**61 - 1
        assert orbit._rank_mod_p([[p, 0], [0, 1]], p) == 1
        assert Mat([[p, 0], [0, 1]]).rank() == 2

        passes = []

        def crafted(config, directions):
            passes.append(len(directions))
            return [((p, 0, 0), 1), ((0, 1, 0), 1)]

        monkeypatch.setattr(orbit, "expected_quotient_dim", lambda *shape: 2)
        monkeypatch.setattr(orbit, "_jet_pass", crafted)
        assert jacobian_rank(sample_config(5, 2, 5, seed=404)) == 2
        # the sketch pass, then the unit-direction fallback over members 3..5
        assert passes == [3, 30]

    @pytest.mark.parametrize("n,d,s,seed,pinned", RANK_CELLS)
    def test_mod_p_rank_agrees_with_rational_rank(self, n, d, s, seed, pinned):
        directions = orbit._sketch_directions(n, d, s, expected_quotient_dim(n, d, s))
        rows, _ = orbit._derivative_rows(sample_config(n, d, s, seed=seed), directions)
        assert orbit._rank_mod_p(rows, orbit._RANK_PRIME) == Mat(rows).rank() == pinned
