"""Case dispatch, orbit testing, dimension counts, and exact Jacobian ranks.

The headline consequence of the letter construction is quantitative: in the
nontrivial ranges the field of rational invariants is that of k m x m
letters (m = d or e by case) under simultaneous conjugation.  For k >= 2 a
generic tuple is stabilized only by scalars, so the orbit-space dimension is
k*m^2 - (m^2 - 1); a single letter (k = 1, the shapes (2d, d, 4)) has an
m-dimensional centralizer, and its invariants are the m coefficients of its
characteristic polynomial, so the dimension is m.
:func:`expected_quotient_dim` computes that count, and :func:`jacobian_rank`
measures the actual number of independent invariants at a point by exact
differentiation, with no floating point and no thresholds.

That count is also an upper bound on the Jacobian rank at *every* point:
the invariants are traces of words in the letters, which are
conjugation-invariant polynomials, so the Jacobian factors through the
Jacobian of the trace map at the letters, whose rank nowhere exceeds its
generic rank, the transcendence degree above.  :func:`jacobian_rank`
therefore takes derivatives along ``bound + 1`` pseudo-random integer
directions only: one reduction over jets differentiates the letters along
all of them, and the chain rule gives the word traces' derivatives over the
integers.  Their rank is a lower bound, and when it meets the upper bound
it is the exact rank.  That rank is computed modulo a prime first, which
can only lower it, so a match there is already a proof.  Any other outcome
falls back to the rational rank of the same rows, then to one more pass
along every coordinate direction.
"""

from __future__ import annotations

import enum
import functools
from typing import Sequence

from .errors import (
    DegenerateConfigError,
    ShapeMismatchError,
    UnsupportedCaseError,
)
from . import divisible, odd
from .grassmann import Config, SplitMix64, Subspace, classify_case
from .linalg import Mat, _rank_mod_p
from .words import InvariantVector, enumerate_words, letter_size, max_word_len_for, trace_derivatives

__all__ = [
    "Verdict",
    "enumerate_words",
    "expected_quotient_dim",
    "invariant_vector",
    "jacobian_rank",
    "letter_count",
    "same_orbit_test",
]


class Verdict(enum.Enum):
    """Outcome of an orbit-equivalence test."""

    EQUIVALENT = "Equivalent"
    DISTINCT = "Distinct"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:  # CLI prints the bare word
        return self.value


def _reduction(config: Config):
    """The case module (:mod:`divisible` or :mod:`odd`) that reduces ``config``."""
    kind = classify_case(config.n, config.d).kind
    module = {"divisible": divisible, "odd_multiple": odd}.get(kind)
    if module is None:
        raise UnsupportedCaseError(f"no reduction applies to (n, d) = ({config.n}, {config.d})")
    return module


def invariant_vector(config: Config, max_len: int | None = None) -> InvariantVector:
    """Dispatch to the case pipeline and return the trace-invariant vector."""
    return _reduction(config).invariants(config, max_len)


def letter_count(n: int, d: int, s: int) -> int:
    """The number k of invariant letters for shape (n, d, s); 0 in trivial ranges."""
    tag = classify_case(n, d)
    if tag.kind == "divisible":
        r = tag.r
        return (r - 1) * (s - r - 1) if s > r + 1 else 0
    if tag.kind == "odd_multiple":
        r = tag.r
        if r == 1:
            return 2 * (s - 4) if s > 4 else 0
        return 2 * r - 4 + (4 * r - 2) * (s - r - 2) if s >= r + 2 else 0
    raise UnsupportedCaseError(f"no reduction applies to (n, d) = ({n}, {d})")


def expected_quotient_dim(n: int, d: int, s: int) -> int:
    """Transcendence degree of the invariant field of k m x m letters.

    m is the letter size (d in the divisible case, e in the odd case).  For
    k >= 2 the count is k*m^2 - (m^2 - 1): generic tuples have scalar
    stabilizers.  For k = 1 it is m: one generic matrix has an
    m-dimensional centralizer, and the coefficients of its characteristic
    polynomial generate its invariants.  The count is 0 in the trivial
    ranges where the letter alphabet is empty.  For k >= 2 this agrees with
    the naive dimension count s*d*(n-d) - (n^2 - 1), configuration space
    less the projectivized group; for k = 1 it exceeds it by m - 1, the
    dimension of the letter's centralizer modulo scalars.
    """
    k = letter_count(n, d, s)  # raises UnsupportedCaseError first
    if k < 1:
        return 0
    m = letter_size(classify_case(n, d), d)
    if k == 1:
        return m
    return k * m * m - (m * m - 1)


def same_orbit_test(a: Config, b: Config, max_len: int | None = None) -> Verdict:
    """Compare two configurations by their invariant vectors.

    Distinct is a certificate (the invariants are constant on orbits).
    Equivalent is asserted only when both configurations are in general
    position, as recorded by the reduction pass that built each vector, and
    the words reach the generating length 2**m - 1: then the letters
    generate the invariant field and separate generic orbits.  Anything
    degenerate, or agreement on a vector that ``max_len`` truncated, is
    Inconclusive.
    """
    if (a.n, a.d, a.s) != (b.n, b.d, b.s):
        raise ShapeMismatchError(
            f"shapes differ: ({a.n}, {a.d}, {a.s}) vs ({b.n}, {b.d}, {b.s})"
        )
    try:
        va = invariant_vector(a, max_len)
        vb = invariant_vector(b, max_len)
    except DegenerateConfigError:
        return Verdict.INCONCLUSIVE
    if va.values != vb.values:
        return Verdict.DISTINCT
    if va.degeneracy or vb.degeneracy or va.truncated:
        return Verdict.INCONCLUSIVE
    return Verdict.EQUIVALENT


# The directions of the rank sketch in :func:`jacobian_rank`: integer
# entries in [-_SKETCH_BOUND, _SKETCH_BOUND] drawn from one splitmix64 stream
# at a fixed seed, so every rank is reproducible.
_SKETCH_SEED = 0x6A6163
_SKETCH_BOUND = 9

# The prime of the first certification attempt: 2**61 - 1.
_RANK_PRIME = (1 << 61) - 1


@functools.cache
def _sketch(coords: int, count: int) -> tuple[tuple[int, ...], ...]:
    """The first ``count`` sketch directions, each with ``coords`` entries.

    Drawn once per shape and shared by every call, hence tuples.
    """
    rng = SplitMix64(_SKETCH_SEED)
    return tuple(tuple(rng.next_int(_SKETCH_BOUND) for _ in range(coords)) for _ in range(count))


def jacobian_rank(config: Config) -> int:
    """Exact rank of the invariant map's Jacobian J at ``config``.

    One reduction over jets and the chain rule on every word up to the
    generating length 2**m - 1 give the exact derivative of every word value
    along all directions at once (in the n*d*s basis entries); no word value
    is evaluated.  With ``expected = expected_quotient_dim``, that pass
    takes the first ``min(expected + 1, n*d*s)`` fixed pseudo-random
    integer directions R: rank(J R) <= rank(J)
    <= ``bound = min(expected, words, n*d*s)`` (see the module docstring),
    so a sketch rank equal to ``bound`` is the exact rank.  Each word's
    derivatives share one denominator, so scaling each word's column by it
    gives an integer matrix of the same rank.  Its rank modulo the prime
    2**61 - 1 is at most its rank over the rationals, so that rank is tried
    first; if it falls short of ``bound``, the exact rational rank of the
    same matrix is.  A sketch that still falls short (a special point, or an
    unlucky draw) or exceeds ``bound`` (a wrong count) is discarded, and the
    rank is that of one more pass with the n*d*s unit directions, by exact
    elimination.  The pass pivots on values, so it records the plain pass's
    degeneracy; a configuration out of general position raises
    :class:`DegenerateConfigError`, naming the failed condition.
    """
    coords = config.n * config.d * config.s
    expected = expected_quotient_dim(config.n, config.d, config.s)
    rows = _derivative_rows(config, _sketch(coords, min(expected + 1, coords)))
    if not rows:
        return 0
    bound = min(expected, len(rows[0]), coords)
    if _rank_mod_p(rows, _RANK_PRIME) == bound or Mat(rows).rank() == bound:
        return bound
    units = [[int(c == k) for c in range(coords)] for k in range(coords)]
    return Mat(_derivative_rows(config, units)).rank()


def _jet_pass(config: Config, directions: Sequence[Sequence[int]]) -> list:
    """The word traces' derivatives along all ``directions``, as ``(nums, den)`` pairs.

    Each direction holds one derivative per basis entry, in (member, row,
    column) order, so each jet basis is the basis's integer form with one
    derivative segment per direction: basis entry c has the derivative
    ``directions[t][c]`` along direction t.  Only the reduction runs over
    jets; :func:`planeinv.words.trace_derivatives` takes the words.
    The jet bases skip the independence check: their value parts are the
    configuration's checked bases, and a jet pivots on its value alone.
    Raises the pass's degeneracy, which is the plain pass's.
    """
    k = len(directions)
    per_entry = zip(*directions)
    jet_subs = []
    for sub in config.subspaces:
        basis, den = sub.basis, sub.basis.den
        rows = []
        for row in basis.num:
            derivs = [next(per_entry) for _ in row]
            rows.append(row + [x * den for segment in zip(*derivs) for x in segment])
        jet_subs.append(Subspace._raw(Mat._form(rows, den, basis.cols, k)))
    tag, _, letters, degeneracy = _reduction(config).letters(Config(jet_subs))
    if degeneracy is not None:
        raise degeneracy.error()
    words = enumerate_words(len(letters), max_word_len_for(letter_size(tag, config.d)))
    return trace_derivatives(letters, words)


def _derivative_rows(config: Config, directions: Sequence[Sequence[int]]) -> list:
    """The rows of J R, one per direction, as integers; empty when there are no words.

    Each word's column is scaled by the common denominator of its
    derivatives, which leaves the rank unchanged.
    """
    zeros = (0,) * len(directions)
    columns = [nums or zeros for nums, _ in _jet_pass(config, directions)]
    return [list(row) for row in zip(*columns)]
