"""The word stage: necklace enumeration and integer-scaled trace evaluation."""

import gc
import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_linalg import Dual, as_duals, deriv, jet, jet_mat, trace_word

from planeinv import orbit
from planeinv.cli import main
from planeinv.grassmann import sample_config
from planeinv.linalg import Jet, Mat
from planeinv.words import (
    _Products,
    enumerate_words,
    trace_derivatives,
    trace_parts,
    word_gradients,
    words_for,
)


def rotation_filter_words(alphabet_size, max_len):
    """The definition: every tuple that is <= each of its rotations."""
    words = []
    for length in range(1, max_len + 1):
        for w in itertools.product(range(alphabet_size), repeat=length):
            if all(w <= w[i:] + w[:i] for i in range(1, length)):
                words.append(w)
    return words


class TestEnumerateWords:
    @pytest.mark.parametrize("alphabet_size", range(6))
    def test_matches_rotation_filter(self, alphabet_size):
        for max_len in range(8):
            assert enumerate_words(alphabet_size, max_len) == rotation_filter_words(
                alphabet_size, max_len
            )

    def test_negative_length_is_empty(self):
        assert enumerate_words(3, -1) == []


# Entries with mixed and large denominators, negative values and zero.
rationals = st.one_of(
    st.integers(-5, 5).map(Fraction),
    st.fractions(max_denominator=7),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)
small_derivs = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 11, 10**9 + 7]))


def constant(x, c):
    """``c`` of the type of ``x``: a jet with a zero derivative, or a ``Fraction``."""
    return Jet(Fraction(c)) if isinstance(x, Jet) else Fraction(c)


def letter(size, entry):
    """A size x size letter, sometimes the zero or the identity matrix."""
    one = entry.map(lambda x: constant(x, 1))
    zero = entry.map(lambda x: constant(x, 0))
    square = lambda e: st.lists(  # noqa: E731
        st.lists(e, min_size=size, max_size=size), min_size=size, max_size=size
    )
    identity = st.tuples(one, zero).map(
        lambda oz: [[oz[0] if i == j else oz[1] for j in range(size)] for i in range(size)]
    )
    return st.one_of(square(entry), square(zero), identity).map(jet_mat)


def alphabets(entry):
    return st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda km: st.lists(letter(km[1], entry), min_size=km[0], max_size=km[0])
    )


# Fixed cases each property test below runs first, before Hypothesis draws or
# shrinks anything: letters that are not symmetric, with mixed denominators,
# and 3 x 3 letters with numerators near 10**30.
ASYMMETRIC = [Mat([[1, 2], [3, 4]]), Mat([[0, Fraction(1, 3)], [-2, Fraction(5, 7)]])]
LARGE = [
    Mat([
        [Fraction(10**30 - 1, 10**20 + 3), Fraction(-7, 2), 1],
        [0, Fraction(10**29, 3), Fraction(2, 11)],
        [5, Fraction(-(10**30), 10**20 - 1), Fraction(1, 6)],
    ]),
    Mat([
        [Fraction(3, 4), 0, Fraction(-(10**30) - 7, 9)],
        [Fraction(10**30, 10**20 + 1), -1, 2],
        [Fraction(1, 5), Fraction(10**28 + 3, 7), 0],
    ]),
]
# (k, letters): jet letters in k directions, one with a rational letter.
JET_CASES = [
    (
        2,
        [
            jet_mat([
                [jet(Fraction(1, 2), [1, -3]), Fraction(2)],
                [jet(Fraction(0), [2, 1]), Fraction(-1, 3)],
            ]),
            Mat([[0, 1], [Fraction(5, 7), 3]]),
        ],
    ),
    (
        3,
        [
            jet_mat([
                [jet(Fraction(10**30 + 1, 7), [Fraction(1, 10**9 + 7), 0, 4]), Fraction(3), Fraction(-1, 2)],
                [Fraction(0), jet(Fraction(-(10**29), 11), [2, -5, Fraction(1, 3)]), Fraction(1)],
                [jet(Fraction(2), [0, 1, 0]), Fraction(10**30, 10**20 + 3), Fraction(4, 9)],
            ]),
            jet_mat([
                [Fraction(1), jet(Fraction(-3, 4), [1, 1, -1]), Fraction(0)],
                [Fraction(10**28 + 3, 5), Fraction(2), jet(Fraction(0), [0, -9, 2])],
                [jet(Fraction(1, 3), [7, 0, 0]), Fraction(-1), Fraction(10**30 - 1, 10**20 + 1)],
            ]),
        ],
    ),
]


def jets(directions):
    """Jets with ``directions`` derivatives each, some with none (the zero vector)."""
    derivs = st.one_of(
        st.just([]), st.lists(small_derivs, min_size=directions, max_size=directions)
    )
    return st.builds(jet, rationals, derivs)


class TestEvaluateTraces:
    """Each value of :func:`trace_parts` equals the uncached product along the word, exactly."""

    @given(alphabets(rationals))
    @example(ASYMMETRIC)
    @example(LARGE)
    @settings(max_examples=60, deadline=None)
    def test_fraction_letters(self, letters):
        words = enumerate_words(len(letters), 5)
        got = trace_parts(letters, words)
        assert [Fraction(p, q) for p, q in got] == [trace_word(letters, w) for w in words]

    @given(alphabets(rationals))
    @example(ASYMMETRIC)
    @example([Mat.zeros(2, 2), Mat([[Fraction(1, 2), 0], [0, Fraction(-1, 3)]])])
    @settings(max_examples=60, deadline=None)
    def test_reduced_parts(self, letters):
        """Each value is a coprime integer pair with a positive denominator, (0, 1) for 0."""
        words = enumerate_words(len(letters), 4)
        for (p, q), w in zip(trace_parts(letters, words), words):
            assert type(p) is int and type(q) is int
            assert q > 0 and math.gcd(p, q) == 1
            if trace_word(letters, w) == 0:
                assert (p, q) == (0, 1)

    def test_no_words(self):
        assert trace_parts([Mat([[1]])], []) == []

    def test_one_product_per_half_word(self, monkeypatch):
        """Only the halves of the words are multiplied out, not every prefix.

        Three letters and the 540 words up to length 7 need the 60 distinct
        half-words of two or more letters and the 2 prefixes they extend:
        62 products, one cache entry each (a product per prefix took 308).
        """
        calls = []
        matmul = Mat.__matmul__

        def counted(a, b):
            calls.append(None)
            return matmul(a, b)

        monkeypatch.setattr(Mat, "__matmul__", counted)
        letters = [
            Mat([[Fraction(i + 2 * j - k, 1 + (i + j + k) % 3) for j in range(3)] for i in range(3)])
            for k in range(3)
        ]
        words = enumerate_words(3, 7)
        trace_parts(letters, words)
        halves = {part for w in words for part in (w[: (len(w) + 1) // 2], w[(len(w) + 1) // 2 :])}
        needed = {h[:i] for h in halves for i in range(2, len(h) + 1)}
        assert len(words) == 540 and len(calls) == len(needed) == 62

    def test_one_cache_for_traces_and_derivatives(self, monkeypatch):
        """The chain rule's suffixes and prefixes are words of the one product cache.

        At the (6,3,6) seed-1 letters and their 540 words, the traces fill
        62 products, and the derivatives at most 631 (a second cache built
        in reverse order for the suffixes filled 832).
        """
        fills = []
        missing = _Products.__missing__

        def counted(cache, w):
            fills.append(w)
            return missing(cache, w)

        monkeypatch.setattr(_Products, "__missing__", counted)
        tag, _, letters, _ = orbit.letters(sample_config(6, 3, 6, seed=1))
        words = words_for(tag, 3, len(letters))
        assert len(words) == 540
        trace_parts(letters, words)
        assert len(fills) == 62
        fills.clear()
        trace_derivatives(letters, words)
        assert 0 < len(fills) <= 631

    def test_products_freed_without_the_cyclic_collector(self):
        """The product cache forms no reference cycle, so reference counting frees it."""
        letters = [Mat([[1, 2], [3, Fraction(1, 4)]]), Mat([[0, 1], [Fraction(-2, 3), 5]])]
        words = enumerate_words(2, 5)
        gc.collect()
        gc.disable()
        try:
            trace_parts(letters, words)
            trace_derivatives(letters, words)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTraceDerivatives:
    """Each chain-rule derivative equals the dual oracle's product along the word."""

    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.tuples(st.just(k), alphabets(st.one_of(jets(k), rationals)))
        )
    )
    @example(JET_CASES[0])
    @example(JET_CASES[1])
    @settings(max_examples=60, deadline=None)
    def test_matches_jet_products(self, case):
        k, letters = case
        words = enumerate_words(len(letters), 5)
        got = trace_derivatives(letters, words)
        zeros = [Fraction(0)] * k
        duals = [as_duals(x.data, k) for x in letters]
        want = [trace_word(duals, w).derivs for w in words]
        assert [deriv(*pair) or zeros for pair in got] == want
        assert len({len(nums) for nums, _ in got}) <= 1
        assert all(
            all(type(x) is int for x in nums) and den > 0 and math.gcd(den, *nums) == 1
            for nums, den in got
        )

    def test_no_identity_products(self, monkeypatch):
        """The first and last cofactors of a word are cached products, never multiplied by the identity.

        At the (6,3,6) seed-1 letters and their 540 words that is 2,938
        products; taking the first cofactor times the empty prefix took
        3,475, 537 of them with the identity as right operand.
        """
        tag, _, letters, _ = orbit.letters(sample_config(6, 3, 6, seed=1))
        words = words_for(tag, 3, len(letters))
        calls = []
        matmul = Mat.__matmul__

        def counted(a, b):
            calls.append(None)
            return matmul(a, b)

        monkeypatch.setattr(Mat, "__matmul__", counted)
        trace_derivatives(letters, words)
        assert len(words) == 540 and len(calls) <= 2938

    def test_no_directions(self):
        letters = [Mat([[Fraction(1, 2), 1], [0, Fraction(3)]])]
        assert trace_derivatives(letters, enumerate_words(1, 3)) == [((), 1)] * 3

    def test_no_words(self):
        assert trace_derivatives([jet_mat([[jet(Fraction(1), [1])]])], []) == []


class TestWordGradients:
    @given(alphabets(rationals))
    @example(ASYMMETRIC)
    @example(LARGE)
    @settings(max_examples=40, deadline=None)
    def test_matches_dual_gradient(self, letters):
        """Block i of a word's gradient, over D_w, is its trace's derivative in letter i's integer form.

        The dual oracle takes one direction per letter entry; entry (a, b)
        of letter i is N_i[a][b] / D_i, so its derivative is 1 / D_i.
        """
        m = letters[0].rows
        coords = len(letters) * m * m
        duals = [
            [
                [Dual(x, [Fraction(int(c == (i * m + a) * m + b), mat.den) for c in range(coords)])
                 for b, x in enumerate(row)]
                for a, row in enumerate(mat.data)
            ]
            for i, mat in enumerate(letters)
        ]
        words = enumerate_words(len(letters), 3)
        got = list(word_gradients(letters, words))
        assert len(got) == len(words)
        for w, (grad, den) in zip(words, got):
            assert all(type(x) is int for x in grad)
            assert [Fraction(x, den) for x in grad] == trace_word(duals, w).derivs


def test_invariants_file_pinned(tmp_path):
    """The (6,3,6) invariants file at seed 1, byte for byte (540 words, 3x3 letters)."""
    cfg, vec = tmp_path / "c.json", tmp_path / "v.json"
    assert main(["gen", "--n", "6", "--d", "3", "--s", "6", "--seed", "1", "--out", str(cfg)]) == 0
    assert main(["invariants", "--in", str(cfg), "--out", str(vec)]) == 0
    assert hashlib.sha256(vec.read_bytes()).hexdigest() == (
        "ea1e40bc7cc50edba2bbb883fa50ba52864e25d80694602595551276c448c00f"
    )
