"""Cyclic words over a letter alphabet and their trace invariants.

A full system of conjugation invariants for a tuple of m x m letters is
given by traces of products along cyclic words.  Two words that differ by a
rotation give the same trace, so only one representative per rotation class
is evaluated: the lexicographically least rotation.  Words are enumerated in
(length, lexicographic) order up to a truncation length; lengths beyond
2**m - 1 are algebraically dependent on shorter ones, so that is the
default and maximal truncation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import Degeneracy
from .grassmann import CaseTag, Config
from .linalg import Mat


def max_word_len_for(letter_size: int) -> int:
    """Default truncation: traces of words up to length 2**m - 1 generate."""
    return 2**letter_size - 1


def enumerate_words(alphabet_size: int, max_len: int) -> list[tuple[int, ...]]:
    """Lex-least rotation representatives of nonempty cyclic words.

    Returns 0-based letter-index tuples, sorted by (length, lex).  Empty for
    an empty alphabet or ``max_len < 1``.
    """
    words: list[tuple[int, ...]] = []
    for length in range(1, max_len + 1):
        for w in itertools.product(range(alphabet_size), repeat=length):
            if all(w <= w[i:] + w[:i] for i in range(1, length)):
                words.append(w)
    return words


def evaluate_traces(letters: Sequence[Mat], words: Sequence[tuple[int, ...]]) -> list:
    """Traces of the letter products along each word.

    Prefix products are cached across words, so evaluating the whole
    (length, lex)-ordered family costs about one matrix product per distinct
    prefix instead of one per letter of every word.
    """
    cache: dict[tuple[int, ...], Mat] = {}

    def product(w: tuple[int, ...]) -> Mat:
        got = cache.get(w)
        if got is None:
            got = letters[w[0]] if len(w) == 1 else product(w[:-1]) @ letters[w[-1]]
            cache[w] = got
        return got

    return [product(w).trace() for w in words]


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
