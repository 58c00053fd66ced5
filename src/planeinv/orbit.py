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
differentiation (jets), with no floating point and no thresholds.
"""

from __future__ import annotations

import enum

from .errors import (
    DegenerateConfigError,
    ShapeMismatchError,
    UnsupportedCaseError,
)
from . import divisible, odd
from .grassmann import Config, Subspace, classify_case
from .linalg import Jet, Mat
from .words import InvariantVector, enumerate_words, letter_size

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


def invariant_vector(config: Config, max_len: int | None = None) -> InvariantVector:
    """Dispatch to the case pipeline and return the trace-invariant vector."""
    tag = classify_case(config.n, config.d)
    if tag.kind == "divisible":
        return divisible.invariants(config, max_len)
    if tag.kind == "odd_multiple":
        return odd.invariants(config, max_len)
    raise UnsupportedCaseError(
        f"no reduction applies to (n, d) = ({config.n}, {config.d})"
    )


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
    the naive dimension count s*d*(n-d) - (n^2 - 1) of
    :func:`naive_quotient_dim`; for k = 1 it exceeds it by m - 1.
    """
    tag = classify_case(n, d)
    if not tag.supported:
        raise UnsupportedCaseError(f"no reduction applies to (n, d) = ({n}, {d})")
    k = letter_count(n, d, s)
    if k < 1:
        return 0
    m = letter_size(tag, d)
    if k == 1:
        return m
    return k * m * m - (m * m - 1)


def naive_quotient_dim(n: int, d: int, s: int) -> int:
    """Configuration-space dimension minus the group dimension.

    s copies of the Grassmannian contribute s*d*(n-d); the projectivized
    group has dimension n^2 - 1.  Valid as an orbit-space dimension exactly
    where generic stabilizers are finite modulo scalars: the nontrivial
    ranges with k >= 2 letters, where it agrees with
    :func:`expected_quotient_dim`.  With k = 1 the generic stabilizer is the
    letter's centralizer modulo scalars, of dimension m - 1, and the naive
    count falls short of the quotient dimension by that much.
    """
    return s * d * (n - d) - (n * n - 1)


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
    tag = classify_case(a.n, a.d)
    if not tag.supported:
        raise UnsupportedCaseError(
            f"no reduction applies to (n, d) = ({a.n}, {a.d})"
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


def jacobian_rank(config: Config, max_len: int | None = None) -> int:
    """Exact rank of the invariant map's Jacobian at ``config``.

    One jet pass per coordinate: every entry of every basis matrix is made
    the differentiation variable in turn (n*d*s passes), the full pipeline
    runs over jets, and the derivative parts of all word values form one row
    of the Jacobian.  The rank is computed by exact elimination.  Requires
    general position (:class:`DegenerateConfigError` otherwise, naming the
    failed condition the base pass recorded).
    """
    tag = classify_case(config.n, config.d)
    if not tag.supported:
        raise UnsupportedCaseError(
            f"no reduction applies to (n, d) = ({config.n}, {config.d})"
        )
    base = invariant_vector(config, max_len)
    if base.degeneracy is not None:
        raise base.degeneracy.error()
    if not len(base):
        return 0
    rows = []
    for target in range(config.s):
        basis = config.subspaces[target].basis
        for i in range(config.n):
            for j in range(config.d):
                jet_subs = []
                for k, sub in enumerate(config.subspaces):
                    if k == target:
                        data = [
                            [
                                Jet.variable(x) if (a == i and b == j) else Jet.constant(x)
                                for b, x in enumerate(row)
                            ]
                            for a, row in enumerate(basis.data)
                        ]
                    else:
                        data = [[Jet.constant(x) for x in row] for row in sub.basis.data]
                    jet_subs.append(Subspace(Mat._raw(data)))
                jet_vec = invariant_vector(Config(jet_subs), max_len)
                rows.append([v.deriv for v in jet_vec.values])
    return Mat(rows).rank()
