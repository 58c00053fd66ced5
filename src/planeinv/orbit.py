"""Case dispatch, orbit testing, dimension counts, and exact Jacobian ranks.

The headline consequence of the letter construction is quantitative: in the
nontrivial ranges the field of rational invariants is that of k m x m
letters (m = d or e by case) under simultaneous conjugation.  For k >= 2 a
generic tuple is stabilized only by scalars, so the orbit-space dimension is
k*m^2 - (m^2 - 1); a single letter (k = 1, the shapes (2d, d, 4)) has an
m-dimensional centralizer, and its invariants are the m coefficients of its
characteristic polynomial, so the dimension is m.
:func:`expected_quotient_dim` computes that count, and :func:`jacobian_rank`
measures the actual number of independent invariants at a point, exactly,
with no floating point and no thresholds.

:func:`letters` is the one entry into the letter reductions.  The shape
decides the family in one place, :func:`_reduction` (n = r d: the
divisible family; n = (2r+1)e with d = 2e: the odd family), the family's
``reduce`` builds the letters and checks general position, and the policy
for the ranges without letters is applied once.  Every command, and
:func:`~planeinv.grassmann.general_position`, reduces through it.

Along an orbit the letters move by one common conjugation: in the
divisible family ``letters(act_left(g, c)) == letters(c)`` and the right
action conjugates them, and the :mod:`planeinv.odd` docstring says the
same of the odd family.  So :func:`same_orbit_test` compares two
configurations by the intertwiners of their letter tuples, one kernel of
k m^2 integer equations in m^2 unknowns, and evaluates no word.  The same
orbit implies conjugate letters, which imply equal word traces, so the
test tells apart every pair the invariant vectors do, and also a tuple
that is not semisimple from its semisimplification, whose traces are the
same.

In the divisible case and in the odd case at r = 1 the letters are
coordinates on the quotient.  With T the word-trace map and L the letters,
each family has a normal form N with T(L(N(x))) = T(x):
:func:`planeinv.divisible.embed` is a section, ``letters(embed(x)) == x``,
and at r = 1 (n = 3e) it is E(x), whose members 1-3 are the coordinate
blocks (1,2), (1,3) and (2,3) of (Q^e)^3, whose member 4 is graph(I, I),
and whose member i >= 5 is graph(x_{2i-1}, x_{2i}), where graph(A, B) spans
(u, v, A u + B v); the letters of E(x) are x conjugated by one common
matrix.  A point p that passes the reduction lies in the orbit of N(L(p))
(at r = 1, with frame H and member 4's pair (alpha_7, alpha_8),
block-diag(alpha_7, alpha_8, I) H^-1 moves it there), and the invariants
are constant on orbits, so the Jacobian J has the same rank at both.  At
N(L(p)) the chain rule through T o L o N = T bounds it below by the rank
of dT at L(p), and J = dT(L) dL bounds it above by the same, so the rank
at p is that of G = dT(L(p)): one row per word, holding the gradient of
its trace in the letters' entries.

Often no gradient is needed.  At an absolutely irreducible tuple of k >= 2
letters the rank of G is k*m^2 - (m^2 - 1): the stabilizer is the scalars,
so by Luna's slice theorem the quotient is smooth at the tuple's image,
and the word traces, which generate the invariants, embed the quotient
(Le Bruyn-Procesi, *Semisimple representations of quivers*, 1990).  For
k = 1 it is m at a regular letter (Kostant, 1963).  Both conditions are
the linear independence of words in the letters: for k >= 2 the m^2 words
L_1^i L_2^j (0 <= i, j < m) span all m x m matrices exactly when the
letters generate the full matrix algebra, i.e. the tuple is absolutely
irreducible; for k = 1, I, L, ..., L^(m-1) are independent exactly when
L's minimal polynomial is its characteristic polynomial, i.e. L is
regular.  Scaling a letter by its denominator changes no span, so these
are ranks of integer matrices; :func:`jacobian_rank` takes them modulo a
prime, which can only lower a rank, and a rank equal to the number of
words is a proof.  The returned rank comes from the letters' own k and m,
never from :func:`expected_quotient_dim`, so a wrong count cannot certify
itself.  Letters that fail the check get the exact rank of G.

At r >= 2 there is no normal form, and the rank at the letters can be
wrong: (5,2,5) at bound 1, seeds 6 and 33, has rank 3 although its letters
pass the certificate's check, which would give 6.  So only the odd family
at r >= 2 differentiates the configuration itself, by the jet pass below.
The count bounds the Jacobian rank at *every* point: the invariants are
traces of words in the letters, conjugation-invariant polynomials, so J
factors through dT at the letters, whose rank nowhere exceeds its generic
rank, the transcendence degree above.  The jet pass therefore takes
derivatives along ``bound + 1`` pseudo-random integer directions only:
one reduction over jets differentiates the letters along all of them, and
the chain rule gives the word traces' derivatives over the integers.
Their rank, taken modulo a prime, is a lower bound, so a match with the
count is the exact rank; any other outcome falls back to one more pass
along the coordinate directions of members r+1..s, whose rank is
computed exactly.

Both passes differentiate at E c, the members read from the reduced
echelon form of the configuration matrix, E rational and invertible
(:meth:`~planeinv.grassmann.Config.echelon_config`).  The invariants
satisfy I(E x) = I(x) for every x, so J(E c) (E ⊗ I) = J(c), and the rank
is the same at both points; the exact rank the certificate or the
fallback returns does not depend on which one is taken.  At E c the fixed
members are mostly unit columns, the frame's kernels and inverses meet
rows already reduced, and the derivatives stay in the free members, the
only ones that carry them.

Members r+1..s alone also carry the rank.  The fallback runs only after
a sketch pass that built letters, and then member i <= r of E c is a unit
block U_i = [0; I_d; 0], its identity in rows R_i: the divisible letters
need the first r members to span, and the odd frame H, being invertible,
puts them in direct sum.
The letters are unchanged by any left factor, so the invariants are
constant along every left action I + t X.  For any n x d matrix Delta,
X = Delta U_i^T moves member i by Delta, leaves every other member
j <= r fixed, and moves member j > r by Delta B_j[R_i].  So J along
member i is minus J along those directions of the later members, the
columns of J for members 1..r lie in the span of the others, and the
fallback differentiates along the n*d*(s - r) unit directions of members
r+1..s only.  Members 1..r then stay rational unit blocks in both passes.

The sketch directions vanish on the first F = min(s, (n^2 - 1) //
(d (n - d))) members: F Grassmannians of dimension d (n - d) fit in PGL_n,
and at r >= 2 F is exactly the number of leading members the odd
reduction fixes (4 at r = 2, r + 1 at r >= 3).  Generic F-tuples of those
members form one open orbit of GL_n x prod GL_d, so the orbit tangent and
the directions that move only the free members span the whole tangent
space, on whose orbit part J vanishes: the rank is reached along the free
members alone, and the frame at r = 2, built from fixed members only, is
computed over the rationals.  Neither the sketch's certificate nor the
fallback depends on F; F decides only how often the fallback runs.
"""

from __future__ import annotations

import enum
import functools
from itertools import chain
from operator import mul
from types import ModuleType
from typing import Sequence

from .errors import (
    Degeneracy,
    DegenerateConfigError,
    ShapeMismatchError,
    UnsupportedCaseError,
)
from . import divisible, odd
from .grassmann import CaseTag, Config, SplitMix64, Subspace, classify_case
from .linalg import Mat, _rank, _rank_mod_p
from .words import (
    InvariantVector,
    _Products,
    enumerate_words,
    letter_size,
    trace_derivatives,
    trace_vector,
    word_gradients,
    words_for,
)

__all__ = [
    "Verdict",
    "enumerate_words",
    "expected_quotient_dim",
    "invariant_vector",
    "jacobian_rank",
    "letter_count",
    "letters",
    "same_orbit_test",
]


class Verdict(enum.Enum):
    """Outcome of an orbit-equivalence test."""

    EQUIVALENT = "Equivalent"
    DISTINCT = "Distinct"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:  # CLI prints the bare word
        return self.value


def _reduction(n: int, d: int) -> tuple[CaseTag, ModuleType]:
    """The case tag of shape (n, d) and the module (:mod:`divisible` or :mod:`odd`) that reduces it."""
    tag = classify_case(n, d)
    module = {"divisible": divisible, "odd_multiple": odd}.get(tag.kind)
    if module is None:
        raise UnsupportedCaseError(f"no reduction applies to (n, d) = ({n}, {d})")
    return tag, module


def letters(config: Config) -> tuple:
    """(tag, letter ids, letters, degeneracy) of ``config``, in one reduction pass.

    The ids are the family's ``letter_ids``, and its ``reduce`` builds the
    letters in that order.  The same pass decides general position and
    returns the first failed condition (``None`` if none).  A failure that
    leaves the letters undefined raises :class:`DegenerateConfigError`,
    except in the ranges without letters, where every failure is recorded.
    """
    tag, module = _reduction(config.n, config.d)
    ids = module.letter_ids(tag, config.s)
    try:
        mats, degeneracy = module.reduce(config, tag)
    except DegenerateConfigError as exc:
        if ids:
            raise
        mats, degeneracy = (), Degeneracy.of(exc)
    return tag, ids, mats, degeneracy


def invariant_vector(config: Config) -> InvariantVector:
    """The trace-invariant vector of ``config``, from one :func:`letters` pass."""
    return trace_vector(config, *letters(config))


def letter_count(n: int, d: int, s: int) -> int:
    """The number k of invariant letters for shape (n, d, s); 0 in trivial ranges."""
    tag, module = _reduction(n, d)
    return len(module.letter_ids(tag, s))


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
    tag, module = _reduction(n, d)  # raises UnsupportedCaseError first
    k = len(module.letter_ids(tag, s))
    if k < 1:
        return 0
    m = letter_size(tag, d)
    if k == 1:
        return m
    return k * m * m - (m * m - 1)


def same_orbit_test(a: Config, b: Config) -> Verdict:
    """Compare two configurations by their letters.

    Along an orbit the letters move by one common conjugation, so two
    configurations in one orbit have conjugate letter tuples.  From the one
    ``letters`` pass on each side, W is the space of intertwiners X with
    X A_i = B_i X for every pair of letters (:func:`_intertwiners`).
    ``dim W = 0``, or ``dim W = 1`` with a singular generator (then every
    element of W is singular), proves Distinct.  An invertible element
    proves the letters conjugate: the generator when ``dim W = 1``, else one
    fixed pseudo-random integer combination of W's canonical basis, which is
    singular with probability at most m / (2 * _CONJUGACY_BOUND + 1) when W
    holds an invertible element (Schwartz-Zippel); a singular combination
    is Inconclusive.  Conjugate letters are Equivalent when both
    configurations are in general position, as recorded by the reduction
    pass: then the letters generate the invariant field.  Anything
    degenerate is Inconclusive.  In the trivial ranges there are no letters
    and only general position is read.
    """
    if (a.n, a.d, a.s) != (b.n, b.d, b.s):
        raise ShapeMismatchError(
            f"shapes differ: ({a.n}, {a.d}, {a.s}) vs ({b.n}, {b.d}, {b.s})"
        )
    try:
        _, _, la, da = letters(a)
        _, _, lb, db = letters(b)
    except DegenerateConfigError:
        return Verdict.INCONCLUSIVE
    if la:
        conjugate = _conjugate(la, lb)
        if conjugate is None:
            return Verdict.INCONCLUSIVE
        if not conjugate:
            return Verdict.DISTINCT
    if da or db:
        return Verdict.INCONCLUSIVE
    return Verdict.EQUIVALENT


# The combination of a basis of intertwiners in :func:`_conjugate`: integer
# coefficients in [-_CONJUGACY_BOUND, _CONJUGACY_BOUND] drawn from one
# splitmix64 stream at a fixed seed, so every verdict is reproducible.
_CONJUGACY_SEED = 0x636F6E6A
_CONJUGACY_BOUND = 1 << 31


def _intertwiners(a: Sequence[Mat], b: Sequence[Mat]) -> Mat:
    """The canonical basis of W = {X : X A_i = B_i X for every i}, one column per element.

    Each X is flattened row by row into m^2 unknowns.  With A_i = N_i / D_i
    and B_i = M_i / E_i in their integer forms, W is the kernel of the
    k m^2 integer equations E_i (X N_i) - D_i (M_i X) = 0, all in one
    :meth:`Mat.nullspace_basis`.
    """
    m = a[0].rows
    size = m * m
    rows = []
    for x, y in zip(a, b):
        an, ad, bn, bd = x.num, x.den, y.num, y.den
        for p in range(m):
            for q in range(m):
                row = [0] * size
                for t in range(m):
                    row[p * m + t] += bd * an[t][q]
                    row[t * m + q] -= ad * bn[p][t]
                rows.append(row)
    return Mat._form(rows, 1, size).nullspace_basis()


def _conjugate(a: Sequence[Mat], b: Sequence[Mat]) -> bool | None:
    """Whether the letter tuples ``a`` and ``b`` are simultaneously conjugate; None when undecided.

    False is a proof; True comes with an invertible intertwiner; None is a
    singular combination of a basis of two or more intertwiners.
    """
    basis = _intertwiners(a, b)
    dim = basis.cols
    if dim == 0:
        return False
    if dim == 1:
        flat = [row[0] for row in basis.num]
    else:
        rng = SplitMix64(_CONJUGACY_SEED)
        coeffs = [rng.next_int(_CONJUGACY_BOUND) for _ in range(dim)]
        flat = [sum(map(mul, row, coeffs)) for row in basis.num]
    m = a[0].rows
    if _rank([flat[i : i + m] for i in range(0, m * m, m)], m, None) == m:
        return True
    return False if dim == 1 else None


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


def _sketch_directions(n: int, d: int, s: int, expected: int) -> tuple[tuple[int, ...], ...]:
    """The directions of the sketch pass of :func:`jacobian_rank` for shape (n, d, s).

    ``min(expected + 1, free)`` directions, with ``expected`` the shape's
    :func:`expected_quotient_dim` and ``free = n*d*(s - F)`` coordinates
    outside the first F members, where every direction is 0.
    """
    size = n * d
    fixed = size * _fixed_members(n, d, s)
    count = min(expected + 1, size * s - fixed)
    return _sketch(size * s, count, fixed)


def jacobian_rank(config: Config) -> int:
    """Exact rank of the invariant map's Jacobian J at ``config``.

    In the divisible case and in the odd case at r = 1, the one rational
    ``letters`` pass gives the rank (the module docstring has the
    argument): 0 with no letters, else the count when
    :func:`_irreducible_rank` certifies the letters, else the exact rank of
    G, the word traces' integer gradients (:func:`word_gradients`) at the
    letters.  Scaling each row of G by its denominator, and each letter's
    columns by the letter's, leaves the rank unchanged.  The odd case at
    r >= 2 takes :func:`_jet_rank`.  A configuration out of general
    position raises :class:`DegenerateConfigError`, naming the failed
    condition.
    """
    tag, module = _reduction(config.n, config.d)
    if module is odd and tag.r > 1:
        return _jet_rank(config)
    _, _, mats, degeneracy = letters(config)
    if degeneracy is not None:
        raise degeneracy.error()
    if not mats:
        return 0
    rank = _irreducible_rank(mats)
    if rank is None:
        words = words_for(tag, config.d, len(mats))
        rank = Mat([grad for grad, _ in word_gradients(mats, words)]).rank()
    return rank


def _jet_rank(config: Config) -> int:
    """The rank of J from reductions over jets: the sketch pass, then if need be the unit pass.

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
    pass with the n*d*(s - r) unit directions of members r+1..s, by exact
    elimination.  Both passes run at the echelon point E c
    (:meth:`Config.echelon_config`): the invariants are constant on orbits,
    so J has the same rank there, and the rational E keeps every derivative
    in the free members.  Members 1..r of E c are unit blocks once the
    sketch pass has built letters, and a left action that moves member
    i <= r by Delta moves only members r+1..s besides, so J along member i
    is a combination of J along them: the unit pass loses no rank (the
    module docstring has both arguments).  The jet pass pivots on values, so it
    raises the plain pass's degeneracy, and general position is a property
    of the orbit, so E c fails exactly the conditions c fails.
    """
    config = config.echelon_config()
    n, d, s = config.n, config.d, config.s
    coords = n * d * s
    expected = expected_quotient_dim(n, d, s)
    rows, words = _derivative_rows(config, _sketch_directions(n, d, s, expected))
    bound = min(expected, words, coords)
    if _rank_mod_p(rows, _RANK_PRIME) == bound:
        return bound
    first = n * d * _reduction(n, d)[0].r
    units = [[int(c == k) for c in range(coords)] for k in range(first, coords)]
    return Mat(_derivative_rows(config, units)[0]).rank()


def _irreducible_rank(letters: Sequence[Mat]) -> int | None:
    """The rank of the word traces' Jacobian at k >= 1 m x m ``letters``, or None.

    Checks, modulo :data:`_RANK_PRIME`, that the words L_1^i L_2^j
    (0 <= i, j < m; j = 0 alone when k = 1) are linearly independent, and
    then returns k*m^2 - (m^2 - 1), or m when k = 1.
    """
    k, m = len(letters), letters[0].rows
    product = _Products(letters[:2])
    words = [(0,) * i + (1,) * j for i in range(m) for j in range(m if k > 1 else 1)]
    rows = [list(chain.from_iterable(product[w][0].num)) for w in words]
    if _rank_mod_p(rows, _RANK_PRIME) < len(words):
        return None
    return m if k == 1 else k * m * m - (m * m - 1)


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
    tag, _, mats, degeneracy = letters(Config(jet_subs))
    if degeneracy is not None:
        raise degeneracy.error()
    return trace_derivatives(mats, words_for(tag, config.d, len(mats)))


def _derivative_rows(config: Config, directions: Sequence[Sequence[int]]) -> tuple[list, int]:
    """The rows of J R, one per direction, as integers, and the number of words.

    The rows are empty when there are no words or no directions.  Each
    word's column is scaled by the common denominator of its derivatives,
    which leaves the rank unchanged.
    """
    zeros = (0,) * len(directions)
    columns = [nums or zeros for nums, _ in _jet_pass(config, directions)]
    return [list(row) for row in zip(*columns)], len(columns)
