"""Cyclic words over a letter alphabet and their trace invariants.

A full system of conjugation invariants for a tuple of m x m letters is
given by traces of products along cyclic words.  Two words that differ by a
rotation give the same trace, so only one representative per rotation class
is evaluated: the lexicographically least rotation, a necklace.  Necklaces
are generated directly, one length at a time, by the FKM algorithm
(Fredricksen-Kessler-Maiorana; Ruskey-Savage-Wang, *Generating necklaces*,
1992), so the words come in (length, lexicographic) order up to a truncation
length; lengths beyond 2**m - 1 are algebraically dependent on shorter ones,
so that is the default and maximal truncation.

Traces are evaluated over the integers: each letter is scaled once by the
least common denominator of its entries, the products along word prefixes
are integer matrix products, the last letter of each word is folded into
its trace instead of multiplied out, and each trace is divided back by the
product of its letters' denominators, so each value costs one gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, mul
from typing import Sequence

from .errors import Degeneracy
from .grassmann import CaseTag, Config
from .linalg import Jet, Mat


def max_word_len_for(letter_size: int) -> int:
    """Default truncation: traces of words up to length 2**m - 1 generate."""
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


def _scaled(letter: Mat, jet: bool) -> tuple[Mat, int]:
    """``letter`` times the least common denominator D of its entries, and D.

    Over jets D covers the values and the derivative vectors' common
    denominators, so each scaled jet has an integer value and integer
    derivatives over the denominator 1.
    """
    if jet:
        entries = [x if isinstance(x, Jet) else Jet(x) for row in letter.data for x in row]
        denom = math.lcm(*(x.value.denominator for x in entries), *(x.den for x in entries))
        ints = [
            Jet(
                x.value.numerator * (denom // x.value.denominator),
                tuple([denom // x.den * n for n in x.nums]),
            )
            for x in entries
        ]
    else:
        denom = math.lcm(*(x.denominator for row in letter.data for x in row))
        ints = [x.numerator * (denom // x.denominator) for row in letter.data for x in row]
    m = letter.cols
    return Mat._raw([ints[i : i + m] for i in range(0, len(ints), m)]), denom


def evaluate_traces(letters: Sequence[Mat], words: Sequence[tuple[int, ...]]) -> list:
    """Traces of the letter products along each word, as exact rationals.

    Each letter L_i is scaled once by the least common denominator D_i of
    its entries (over jets, of the values and the derivative vectors' common
    denominators), which makes it an integer matrix.  Products of these integer letters along
    word prefixes are cached across words, so the (length, lex)-ordered
    family costs about one m x m product per distinct proper prefix.  The
    last factor is never multiplied out: tr(P L) = sum_ik P[i][k] L[k][i]
    folds it into the trace at m**2 scalar products instead of m**3.  Each
    value is ``Fraction(t, D_w)`` with D_w the product of the D_i along the
    word -- or a ``Jet`` with that value and its derivative vector over
    D_w, reduced by one gcd -- and no integer leaves this function.
    """
    if not words:
        return []
    jet = any(isinstance(x, Jet) for letter in letters for row in letter.data for x in row)
    scaled = [_scaled(letter, jet) for letter in letters]
    # Row-major transposes: the fold multiplies them entrywise with P.
    flat_t = [[x for col in zip(*mat.data) for x in col] for mat, _ in scaled]
    cache = {(i,): pair for i, pair in enumerate(scaled)}

    def prefix(w: tuple[int, ...]) -> tuple[Mat, int]:
        got = cache.get(w)
        if got is None:
            head, denom = prefix(w[:-1])
            last, d_last = scaled[w[-1]]
            got = cache[w] = (head @ last, denom * d_last)
        return got

    values = []
    for w in words:
        if len(w) == 1:
            mat, denom = scaled[w[0]]
            t = mat.trace()
        else:
            head, denom = prefix(w[:-1])
            denom *= scaled[w[-1]][1]
            t = reduce(add, map(mul, chain.from_iterable(head.data), flat_t[w[-1]]))
        values.append(t / denom if jet else Fraction(t, denom))
    return values


def letter_size(tag: CaseTag, d: int) -> int:
    """The letter size m of a case: d when divisible, e in the odd case."""
    return tag.e if tag.kind == "odd_multiple" else d


@dataclass(frozen=True)
class InvariantVector:
    """The ordered trace-invariant vector of a configuration.

    ``entries`` pairs each word (tuple of 0-based indices into
    ``letter_ids``) with its exact trace value.  Two vectors are comparable
    entry-for-entry iff they share (n, d, s) and ``max_word_len``; the word
    list is then identical by construction.  ``degeneracy`` is the first
    genericity condition the configuration fails (``None`` in general
    position): the reduction pass that built the letters also checked it.
    """

    case: CaseTag
    n: int
    d: int
    s: int
    letter_ids: tuple[str, ...]
    max_word_len: int
    entries: tuple[tuple[tuple[int, ...], object], ...]
    degeneracy: Degeneracy | None = None

    @property
    def values(self) -> tuple:
        return tuple(v for _, v in self.entries)

    @property
    def truncated(self) -> bool:
        """Whether the words stop short of the generating length 2**m - 1."""
        bound = max_word_len_for(letter_size(self.case, self.d))
        return bool(self.letter_ids) and self.max_word_len < bound

    def __len__(self) -> int:
        return len(self.entries)


def trace_vector(
    config: Config,
    tag: CaseTag,
    letter_ids: Sequence[str],
    letters: Sequence[Mat],
    max_len: int | None,
    degeneracy: Degeneracy | None,
) -> InvariantVector:
    """Assemble the :class:`InvariantVector` of one reduction pass.

    ``max_len=None`` means the full default truncation; an explicit value is
    clamped to the default since longer words add no information.
    """
    bound = max_word_len_for(letter_size(tag, config.d))
    effective = bound if max_len is None else max(0, min(max_len, bound))
    words = enumerate_words(len(letters), effective)
    values = evaluate_traces(letters, words)
    return InvariantVector(
        case=tag,
        n=config.n,
        d=config.d,
        s=config.s,
        letter_ids=tuple(letter_ids),
        max_word_len=effective,
        entries=tuple(zip(words, values)),
        degeneracy=degeneracy,
    )
