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
it is the exact rank.  That rank is computed modulo a prime, which can
only lower it, so a match there is already a proof.  Any other outcome
falls back to one more pass along every coordinate direction, whose rank
is computed exactly.

The sketch directions vanish on the first F = min(s, (n^2 - 1) //
(d (n - d))) members: F Grassmannians of dimension d (n - d) fit in PGL_n,
and F is exactly the number of leading members the normal forms fix
(r + 1 in the divisible case; 4 in the odd case at r = 1 and r = 2, and
r + 1 at r >= 3).  Generic F-tuples of those members form one open orbit
of GL_n x prod GL_d, so the orbit tangent and the directions that move only
the free members span the whole tangent space, and the invariants, being
constant on orbits, have a Jacobian that vanishes on the orbit tangent.
The rank is therefore reached along the free members alone.  The fixed
members reach the reduction as plain rational subspaces, so what it builds
from them alone (A^-1 in the divisible case, the frame of the odd case at
r <= 2) is computed over the rationals.  Neither the certificate nor the
fallback depends on F: any directions R give rank(J R) <= rank(J), and the
fallback still runs along all n*d*s coordinates; F decides only how often
it has to run.
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
from .words import InvariantVector, enumerate_words, letter_size, trace_derivatives, words_for

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


def invariant_vector(config: Config) -> InvariantVector:
    """Dispatch to the case pipeline and return the trace-invariant vector."""
    return _reduction(config).invariants(config)


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


def same_orbit_test(a: Config, b: Config) -> Verdict:
    """Compare two configurations by their invariant vectors.

    Distinct is a certificate (the invariants are constant on orbits).
    Equivalent is asserted only when both configurations are in general
    position, as recorded by the reduction pass that built each vector:
    then the letters generate the invariant field, the words reach the
    generating length 2**m - 1, and the vectors separate generic orbits.
    Anything degenerate is Inconclusive.
    """
    if (a.n, a.d, a.s) != (b.n, b.d, b.s):
        raise ShapeMismatchError(
            f"shapes differ: ({a.n}, {a.d}, {a.s}) vs ({b.n}, {b.d}, {b.s})"
        )
    try:
        va = invariant_vector(a)
        vb = invariant_vector(b)
    except DegenerateConfigError:
        return Verdict.INCONCLUSIVE
    if va.values != vb.values:
        return Verdict.DISTINCT
    if va.degeneracy or vb.degeneracy:
        return Verdict.INCONCLUSIVE
    return Verdict.EQUIVALENT


# The directions of the rank sketch in :func:`jacobian_rank`: integer
# entries in [-_SKETCH_BOUND, _SKETCH_BOUND] drawn from one splitmix64 stream
# at a fixed seed, so every rank is reproducible.
_SKETCH_SEED = 0x6A6163
_SKETCH_BOUND = 9

# The prime of the sketch's rank certificate: 2**61 - 1.
_RANK_PRIME = (1 << 61) - 1


@functools.cache
def _sketch(coords: int, count: int, fixed: int) -> tuple[tuple[int, ...], ...]:
    """The first ``count`` sketch directions of ``coords`` entries, the first ``fixed`` of them 0.

    The other entries are drawn in turn from one stream, once per shape and
    shared by every call, hence tuples.
    """
    rng = SplitMix64(_SKETCH_SEED)
    zeros = (0,) * fixed
    return tuple(
        zeros + tuple(rng.next_int(_SKETCH_BOUND) for _ in range(coords - fixed)) for _ in range(count)
    )


def _fixed_members(n: int, d: int, s: int) -> int:
    """F = min(s, (n^2 - 1) // (d (n - d))): the leading members the group normalizes."""
    return min(s, (n * n - 1) // (d * (n - d)))


def _sketch_directions(n: int, d: int, s: int) -> tuple[tuple[int, ...], ...]:
    """The directions of the sketch pass of :func:`jacobian_rank` for shape (n, d, s).

    ``min(expected + 1, free)`` directions, with ``free = n*d*(s - F)``
    coordinates outside the first F members, where every direction is 0.
    """
    size = n * d
    fixed = size * _fixed_members(n, d, s)
    count = min(expected_quotient_dim(n, d, s) + 1, size * s - fixed)
    return _sketch(size * s, count, fixed)


def jacobian_rank(config: Config) -> int:
    """Exact rank of the invariant map's Jacobian J at ``config``.

    One reduction over jets and the chain rule on every word up to the
    generating length 2**m - 1 give the exact derivative of every word value
    along all directions at once (in the n*d*s basis entries); no word value
    is evaluated.  With ``expected = expected_quotient_dim``, that pass
    takes ``min(expected + 1, free)`` fixed pseudo-random integer
    directions R that vanish on the first F members the group normalizes
    (see the module docstring), ``free`` being the n*d*(s - F) coordinates
    of the others: rank(J R) <= rank(J)
    <= ``bound = min(expected, words, n*d*s)`` for any R,
    so a sketch rank equal to ``bound`` is the exact rank.  Each word's
    derivatives share one denominator, so scaling each word's column by it
    gives an integer matrix of the same rank.  Its rank modulo the prime
    2**61 - 1 is at most its rank over the rationals, so a rank there equal
    to ``bound`` is the certificate.  A sketch that falls short (a special
    point, an unlucky draw, or a prime that divides a minor) or exceeds
    ``bound`` (a wrong count) is discarded, and the rank is that of one more
    pass with the n*d*s unit directions, by exact elimination.  The pass
    pivots on values, so it records the plain pass's degeneracy; a
    configuration out of general position raises
    :class:`DegenerateConfigError`, naming the failed condition.
    """
    n, d, s = config.n, config.d, config.s
    coords = n * d * s
    expected = expected_quotient_dim(n, d, s)
    rows, words = _derivative_rows(config, _sketch_directions(n, d, s))
    bound = min(expected, words, coords)
    if _rank_mod_p(rows, _RANK_PRIME) == bound:
        return bound
    units = [[int(c == k) for c in range(coords)] for k in range(coords)]
    return Mat(_derivative_rows(config, units)[0]).rank()


def _jet_pass(config: Config, directions: Sequence[Sequence[int]]) -> list:
    """The word traces' derivatives along all ``directions``, as ``(nums, den)`` pairs.

    Each direction holds one derivative per basis entry, in (member, row,
    column) order, so each jet basis is the basis's integer form with one
    derivative segment per direction: basis entry c has the derivative
    ``directions[t][c]`` along direction t.  A member whose entries have
    derivative 0 along every direction stays a rational subspace, and the
    kernels meet it as a jet with zero derivatives.  Only the reduction
    runs over jets; :func:`planeinv.words.trace_derivatives` takes the
    words.  The jet bases skip the independence check: their value parts
    are the configuration's checked bases, and a jet pivots on its value
    alone.  Raises the pass's degeneracy, which is the plain pass's.
    """
    k = len(directions)
    size = config.n * config.d
    jet_subs = []
    for lo, sub in zip(range(0, config.s * size, size), config.subspaces):
        slices = [direction[lo : lo + size] for direction in directions]
        if not any(map(any, slices)):
            jet_subs.append(sub)
            continue
        basis, den = sub.basis, sub.basis.den
        cols = basis.cols
        rows = []
        for at, row in zip(range(0, size, cols), basis.num):
            rows.append(row + [x * den for part in slices for x in part[at : at + cols]])
        jet_subs.append(Subspace._raw(Mat._form(rows, den, cols, k)))
    tag, _, letters, degeneracy = _reduction(config).letters(Config(jet_subs))
    if degeneracy is not None:
        raise degeneracy.error()
    return trace_derivatives(letters, words_for(tag, config.d, len(letters)))


def _derivative_rows(config: Config, directions: Sequence[Sequence[int]]) -> tuple[list, int]:
    """The rows of J R, one per direction, as integers, and the number of words.

    The rows are empty when there are no words or no directions.  Each
    word's column is scaled by the common denominator of its derivatives,
    which leaves the rank unchanged.
    """
    zeros = (0,) * len(directions)
    columns = [nums or zeros for nums, _ in _jet_pass(config, directions)]
    return [list(row) for row in zip(*columns)], len(columns)
