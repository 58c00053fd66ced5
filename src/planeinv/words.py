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
gcd and no word is multiplied out (:func:`trace_parts`).  A value stays a
reduced integer pair ``(p, q)`` from the trace to the file: an
:class:`InvariantVector` stores the pairs, and builds a ``Fraction`` only
when its ``values`` or ``entries`` are read.  Each trace's gradient in
the letters' entries comes from the chain rule, also over the integers
(:func:`word_gradients`): each term is a suffix's product times a
prefix's, and both are words, so the same cache serves them too.  The
traces' derivatives along the letters' jet directions
(:func:`trace_derivatives`) are inner products with those gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, mul
from typing import Iterator, Sequence

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


class _Products(dict):
    """Integer products along words of ``letters``, keyed by word, with their denominators.

    Each letter's stored form is an integer matrix over D, the lcm of its
    entries' denominators, so ``self[(i,)]`` is the value rows of that form
    as a matrix over 1, paired with D.  ``self[()]`` is the identity, and a
    missing word's product extends the cached one of ``w[:-1]`` by a
    letter: one m x m product per distinct prefix of two or more letters.
    Nothing the cache holds refers back to it, so it is freed with its last
    caller, without waiting for the cyclic collector.
    """

    def __init__(self, letters: Sequence[Mat]):
        m = letters[0].rows if letters else 0
        super().__init__({(): (Mat.identity(m), 1)})
        for i, letter in enumerate(letters):
            values = letter.num if not letter.k else [row[:m] for row in letter.num]
            self[(i,)] = (Mat._form(values, 1, m), letter.den)

    def __missing__(self, w: tuple[int, ...]) -> tuple[Mat, int]:
        head, denom = self[w[:-1]]
        last, d_last = self[w[-1:]]
        got = self[w] = (head @ last, denom * d_last)
        return got


def _flat_t(mat: Mat) -> list:
    """The transpose of ``mat``, row-major: tr(A B) is A's row-major entries times these."""
    return [x for col in zip(*mat.num) for x in col]


def trace_parts(letters: Sequence[Mat], words: Sequence[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Traces of the letter products along each word, as reduced integer parts.

    Each letter L_i is stored as an integer matrix over the least common
    denominator D_i of its entries (:class:`_Products`).  A word w of length l is
    split at h = ceil(l / 2), and tr(F B), with F and B the products along
    ``w[:h]`` and ``w[h:]``, is one inner product of F's entries with B's
    transposed entries (m**2 scalar products).  F and B come from one cache
    (:class:`_Products`), and each back half's transposed entries are taken
    once.  The fronts are prefixes of necklaces, far fewer than all words of
    their length, so the longer half goes in front.  Each value is t / D_w,
    with D_w the product of the D_i along the word, returned as the pair
    ``(p, q)`` of that ratio divided by one gcd: coprime, with ``q > 0``,
    and ``(0, 1)`` for a zero trace.
    """
    product = _Products(letters)
    backs: dict[tuple[int, ...], tuple[list, int]] = {}
    parts = []
    for w in words:
        h = (len(w) + 1) // 2
        front, d_front = product[w[:h]]
        back = backs.get(w[h:])
        if back is None:
            mat, d_back = product[w[h:]]
            back = backs[w[h:]] = (_flat_t(mat), d_back)
        t = sum(map(mul, chain.from_iterable(front.num), back[0]))
        den = d_front * back[1]
        g = math.gcd(t, den)
        parts.append((t // g, den // g))
    return parts


def word_gradients(
    letters: Sequence[Mat], words: Sequence[tuple[int, ...]]
) -> Iterator[tuple[list, int]]:
    """Each word trace's gradient in the letters' integer entries, as ``(grad, D_w)`` pairs.

    Yields one pair per word: ``grad`` holds one m x m block per letter,
    row-major, of integers, and d tr(L_w) / dN_i = block i / D_w, with N_i
    letter i's stored integer form over its denominator D_i and D_w the
    product of the D_i along the word.  By the chain rule,
    d tr(L_{w_1} ... L_{w_l}) = sum_j tr(dL_{w_j} C_j) with
    C_j = L_{w_{j+1}} ... L_{w_l} L_{w_1} ... L_{w_{j-1}}, so block w_j gains
    the transpose of C_j.  The suffix ``w[j:]`` and the prefix ``w[:j-1]``
    of C_j are both words over the letters, so one cache
    (:class:`_Products`) serves both, and each C_j is one product over
    ``int``, or none at j = 1 and j = l, where the prefix or the suffix is
    empty.  Jet letters give the gradient at their values.
    """
    product = _Products(letters)
    m = letters[0].rows if letters else 0
    mm = m * m
    for w in words:
        grad = [0] * (len(letters) * mm)
        head, denom = product[w[:-1]]
        for p, letter in enumerate(w):
            if p == len(w) - 1:
                c = head
            elif p == 0:
                c = product[w[1:]][0]
            else:
                c = product[w[p + 1 :]][0] @ product[w[:p]][0]
            lo = letter * mm
            grad[lo : lo + mm] = map(add, grad[lo : lo + mm], _flat_t(c))
        yield grad, denom * letters[w[-1]].den


def trace_derivatives(letters: Sequence[Mat], words: Sequence[tuple[int, ...]]) -> list[tuple]:
    """Each word trace's derivative along every direction of the jet letters.

    One ``(nums, den)`` pair per word: integer numerators over one positive
    denominator, reduced by one gcd.  Each letter's stored form holds its
    row-major derivatives per direction over its denominator D_i, so each
    direction is one inner product of the word's gradient
    (:func:`word_gradients`) with those derivatives, over D_w.
    """
    k = max((letter.k or 0 for letter in letters), default=0)
    m = letters[0].rows if letters else 0
    # Direction t's derivative matrices of all letters, row-major, in the
    # layout of the gradient; a letter in fewer directions has zero
    # derivatives there.
    along = [[] for _ in range(k)]
    for letter in letters:
        for t, seg in enumerate(along, start=1):
            if t <= (letter.k or 0):
                seg += [x for row in letter.num for x in row[t * m : t * m + m]]
            else:
                seg += [0] * (m * m)
    out = []
    for grad, denom in word_gradients(letters, words):
        nums = [sum(map(mul, grad, d)) for d in along]
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

    ``words`` are the words of :func:`words_for` (tuples of 0-based indices
    into ``letter_ids``), and ``parts`` holds each word's exact trace value
    as the reduced integer pair ``(p, q)``, ``q > 0``, of
    :func:`trace_parts`.  ``values`` and ``entries`` (word-value pairs)
    build each value as a ``Fraction`` on every read; the file writer reads
    the parts.  Two vectors are comparable entry-for-entry iff they share
    (n, d, s); the word list is then identical by construction.
    ``degeneracy`` is the first genericity condition the configuration fails
    (``None`` in general position): the reduction pass that built the
    letters also checked it.
    """

    case: CaseTag
    n: int
    d: int
    s: int
    letter_ids: tuple[str, ...]
    words: tuple[tuple[int, ...], ...]
    parts: tuple[tuple[int, int], ...]
    degeneracy: Degeneracy | None = None

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(p, q) for p, q in self.parts])

    @property
    def entries(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        return tuple(zip(self.words, self.values))

    @property
    def max_word_len(self) -> int:
        """The generating length that bounds the case's words (:func:`words_for`), also with no letters."""
        return max_word_len_for(letter_size(self.case, self.d))

    def __len__(self) -> int:
        return len(self.parts)


def trace_vector(
    config: Config,
    tag: CaseTag,
    letter_ids: Sequence[str],
    letters: Sequence[Mat],
    degeneracy: Degeneracy | None,
) -> InvariantVector:
    """The :class:`InvariantVector` of a configuration from what :func:`planeinv.orbit.letters` returned."""
    words = words_for(tag, config.d, len(letters))
    return InvariantVector(
        case=tag,
        n=config.n,
        d=config.d,
        s=config.s,
        letter_ids=tuple(letter_ids),
        words=tuple(words),
        parts=tuple(trace_parts(letters, words)),
        degeneracy=degeneracy,
    )
