"""Cyclic words over a letter alphabet and their trace invariants.

A full system of conjugation invariants for a tuple of m x m letters is
given by traces of products along cyclic words.  Two words that differ by a
rotation give the same trace, so only one representative per rotation class
is evaluated: the lexicographically least rotation, a necklace.  Necklaces
are generated directly, one length at a time, by the FKM algorithm
(Fredricksen-Kessler-Maiorana; Ruskey-Savage-Wang, *Generating necklaces*,
1992), so the words come in (length, lexicographic) order.  Traces of
words longer than 2**m - 1 are algebraically dependent on shorter ones, so
every vector stops at that generating length (:func:`words_for`).

Traces are evaluated over the integers: each letter's stored form
(:class:`planeinv.linalg.Mat`) is already an integer matrix over the
least common denominator of its entries, so the word stage reads it as it
is.  Each word is split at its middle into a front and a back half-word,
whose integer products come from one cache.  The trace is one inner
product of the front's product with the back's transposed product, divided
back by the product of the letters' denominators, so each value costs one
gcd and no word is multiplied out.  The derivatives of the traces come
from those of the letters by the chain rule, also over the integers
(:func:`trace_derivatives`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, mul
from typing import Sequence

from .errors import Degeneracy
from .grassmann import CaseTag, Config
from .linalg import Mat


def max_word_len_for(letter_size: int) -> int:
    """The generating length: traces of words up to length 2**m - 1 generate."""
    return 2**letter_size - 1


def _necklaces(alphabet_size: int, length: int) -> list[tuple[int, ...]]:
    """Necklaces of one length in lexicographic order (iterative FKM).

    Steps through the prenecklaces in lex order: raise the last entry below
    ``alphabet_size - 1`` and repeat the prefix up to it periodically; the
    result is a necklace iff its period divides ``length``.  Periodic words
    such as ``(0, 0)`` are necklaces too.
    """
    top = alphabet_size - 1
    a = [0] * length
    out = [tuple(a)]
    while True:
        j = length - 1
        while j >= 0 and a[j] == top:
            j -= 1
        if j < 0:
            return out
        a[j] += 1
        period = j + 1
        for t in range(period, length):
            a[t] = a[t - period]
        if length % period == 0:
            out.append(tuple(a))


def enumerate_words(alphabet_size: int, max_len: int) -> list[tuple[int, ...]]:
    """Lex-least rotation representatives of nonempty cyclic words.

    Returns 0-based letter-index tuples, sorted by (length, lex).  Empty for
    an empty alphabet or ``max_len < 1``.
    """
    if alphabet_size < 1:
        return []
    return [w for length in range(1, max_len + 1) for w in _necklaces(alphabet_size, length)]


def _scaled(letters: Sequence[Mat]) -> list[tuple[Mat, int]]:
    """Each letter times its denominator D, as ``(integer value matrix, D)``.

    A letter's stored form is an integer matrix over D, the lcm of its
    entries' denominators, so the value rows of that form are the integer
    value matrix, as a matrix over denominator 1.
    """
    out = []
    for letter in letters:
        m = letter.cols
        values = letter.num if not letter.k else [row[:m] for row in letter.num]
        out.append((Mat._form(values, 1, m), letter.den))
    return out


def _products(scaled: Sequence[tuple[Mat, int]], reverse: bool = False):
    """A cached ``product(w)`` of the integer letters ``scaled`` along ``w``, and its denominator.

    Each product extends the cached one of ``w[:-1]`` by a letter: one m x m
    product per distinct prefix of two or more letters; ``product(())`` is
    the identity and ``product((i,))`` the letter itself.  With ``reverse``
    the letters multiply in the opposite order, so ``product(v[::-1])`` is
    the product along ``v``.
    """
    m = scaled[0][0].rows if scaled else 0
    cache = {(): (Mat.identity(m), 1)}
    cache.update(((i,), pair) for i, pair in enumerate(scaled))

    def product(w: tuple[int, ...]) -> tuple[Mat, int]:
        got = cache.get(w)
        if got is None:
            head, denom = product(w[:-1])
            last, d_last = scaled[w[-1]]
            got = cache[w] = (last @ head if reverse else head @ last, denom * d_last)
        return got

    return product


def _flat_t(mat: Mat) -> list:
    """The transpose of ``mat``, row-major: tr(A B) is A's row-major entries times these."""
    return [x for col in zip(*mat.num) for x in col]


def evaluate_traces(letters: Sequence[Mat], words: Sequence[tuple[int, ...]]) -> list[Fraction]:
    """Traces of the letter products along each word, as exact rationals.

    Each letter L_i is stored as an integer matrix over the least common
    denominator D_i of its entries (:func:`_scaled`).  A word w of length l is
    split at h = ceil(l / 2), and tr(F B), with F and B the products along
    ``w[:h]`` and ``w[h:]``, is one inner product of F's entries with B's
    transposed entries (m**2 scalar products).  F and B come from one cache
    (:func:`_products`), and each back half's transposed entries are taken
    once.  The fronts are prefixes of necklaces, far fewer than all words of
    their length, so the longer half goes in front.  Each value is
    ``Fraction(t, D_w)`` with D_w the product of the D_i along the word.
    """
    product = _products(_scaled(letters))
    backs: dict[tuple[int, ...], tuple[list, int]] = {}
    values = []
    for w in words:
        h = (len(w) + 1) // 2
        front, d_front = product(w[:h])
        back = backs.get(w[h:])
        if back is None:
            mat, d_back = product(w[h:])
            back = backs[w[h:]] = (_flat_t(mat), d_back)
        t = sum(map(mul, chain.from_iterable(front.num), back[0]))
        values.append(Fraction(t, d_front * back[1]))
    return values


def trace_derivatives(letters: Sequence[Mat], words: Sequence[tuple[int, ...]]) -> list[tuple]:
    """Each word trace's derivative along every direction of the jet letters.

    One ``(nums, den)`` pair per word: integer numerators over one positive
    denominator, reduced by one gcd.  By the chain rule,
    d tr(L_{w_1} ... L_{w_l}) = sum_j tr(dL_{w_j} C_j) with
    C_j = L_{w_{j+1}} ... L_{w_l} L_{w_1} ... L_{w_{j-1}}, so no jet enters a
    product: each letter's stored form gives its integer value matrix over
    its denominator D_i (:func:`_scaled`) and its row-major derivatives
    per direction, each C_j is a cached suffix times a cached prefix over
    ``int``, summed into the word's gradient G (one m x m block per letter),
    and each direction is one inner product with G, divided by D_w, the
    product of the D_i.
    """
    k = max((letter.k or 0 for letter in letters), default=0)
    pairs = _scaled(letters)
    prefix, suffix = _products(pairs), _products(pairs, reverse=True)
    m = letters[0].rows if letters else 0
    mm = m * m
    # Direction t's derivative matrices of all letters, row-major, in the
    # layout of G; a letter in fewer directions has zero derivatives there.
    along = [[] for _ in range(k)]
    for letter in letters:
        for t, seg in enumerate(along, start=1):
            if t <= (letter.k or 0):
                seg += [x for row in letter.num for x in row[t * m : t * m + m]]
            else:
                seg += [0] * mm
    out = []
    for w in words:
        grad = [0] * (len(letters) * mm)
        head, denom = prefix(w[:-1])
        for p, letter in enumerate(w):
            c = head if p == len(w) - 1 else suffix(w[:p:-1])[0] @ prefix(w[:p])[0]
            lo = letter * mm
            grad[lo : lo + mm] = map(add, grad[lo : lo + mm], _flat_t(c))
        nums = [sum(map(mul, grad, d)) for d in along]
        denom *= pairs[w[-1]][1]
        g = math.gcd(denom, *nums)
        out.append((tuple([x // g for x in nums]), denom // g))
    return out


def letter_size(tag: CaseTag, d: int) -> int:
    """The letter size m of a case: d when divisible, e in the odd case."""
    return tag.e if tag.kind == "odd_multiple" else d


def words_for(tag: CaseTag, d: int, count: int) -> list[tuple[int, ...]]:
    """The words of a case over ``count`` letters: all up to the generating length."""
    return enumerate_words(count, max_word_len_for(letter_size(tag, d)))


@dataclass(frozen=True)
class InvariantVector:
    """The ordered trace-invariant vector of a configuration.

    ``entries`` pairs each word (tuple of 0-based indices into
    ``letter_ids``) with its exact trace value, over the words of
    :func:`words_for`.  Two vectors are comparable entry-for-entry iff they
    share (n, d, s); the word list is then identical by construction.
    ``degeneracy`` is the first genericity condition the configuration fails
    (``None`` in general position): the reduction pass that built the
    letters also checked it.
    """

    case: CaseTag
    n: int
    d: int
    s: int
    letter_ids: tuple[str, ...]
    entries: tuple[tuple[tuple[int, ...], object], ...]
    degeneracy: Degeneracy | None = None

    @property
    def values(self) -> tuple:
        return tuple(v for _, v in self.entries)

    @property
    def max_word_len(self) -> int:
        """The generating length that bounds the case's words (:func:`words_for`), also with no letters."""
        return max_word_len_for(letter_size(self.case, self.d))

    def __len__(self) -> int:
        return len(self.entries)


def trace_vector(
    config: Config,
    tag: CaseTag,
    letter_ids: Sequence[str],
    letters: Sequence[Mat],
    degeneracy: Degeneracy | None,
) -> InvariantVector:
    """The :class:`InvariantVector` of a configuration from what its case's ``letters`` returned."""
    words = words_for(tag, config.d, len(letters))
    values = evaluate_traces(letters, words)
    return InvariantVector(
        case=tag,
        n=config.n,
        d=config.d,
        s=config.s,
        letter_ids=tuple(letter_ids),
        entries=tuple(zip(words, values)),
        degeneracy=degeneracy,
    )
