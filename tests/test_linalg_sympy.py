"""Differential oracle: Mat's rank, nullspace, inverse and solve against sympy.

sympy is a test-only dependency; without it this module is skipped.  The
exact Jacobian rank is certified by ``Mat.rank``, so the elimination is
checked here against an independent implementation, with zero tolerance.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeinv.errors import RankDeficientError, SingularMatrixError
from planeinv.linalg import Mat

sympy = pytest.importorskip("sympy")

# Small entries make rank-deficient and singular draws common.
entries = st.one_of(
    st.integers(-2, 2).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
)


def matrices(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(Mat)


shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))
any_matrix = shapes.flatmap(lambda rc: matrices(*rc))
square = st.integers(1, 5).flatmap(lambda n: matrices(n, n))
systems = shapes.flatmap(
    lambda rc: st.tuples(matrices(*rc), st.integers(1, 2).flatmap(lambda k: matrices(rc[0], k)))
)


def to_sympy(m: Mat):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.data]
    )


def from_sympy(m) -> list[list[Fraction]]:
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


@given(any_matrix)
@settings(max_examples=150, deadline=None)
def test_rank(m):
    assert m.rank() == to_sympy(m).rank()


@given(any_matrix)
@settings(max_examples=150, deadline=None)
def test_nullspace_basis(m):
    # both use the canonical basis: 1 at a free column, 0 at the others
    want = to_sympy(m).nullspace()
    got = m.nullspace_basis()
    assert got.rows == m.cols and got.cols == len(want)
    for c, vec in enumerate(want):
        assert [got.data[r][c] for r in range(got.rows)] == [row[0] for row in from_sympy(vec)]


@given(square)
@settings(max_examples=150, deadline=None)
def test_inverse(m):
    ref = to_sympy(m)
    if ref.det() == 0:
        with pytest.raises(SingularMatrixError):
            m.inverse()
    else:
        assert m.inverse().data == from_sympy(ref.inv())


@given(systems)
@settings(max_examples=150, deadline=None)
def test_solve(system):
    a, b = system
    try:
        sol, params = to_sympy(a).gauss_jordan_solve(to_sympy(b))
    except ValueError:  # sympy: the system is inconsistent
        with pytest.raises(RankDeficientError):
            a.solve(b)
        return
    if params.rows:  # free parameters: more than one solution
        with pytest.raises(RankDeficientError):
            a.solve(b)
    else:
        assert a.solve(b).data == from_sympy(sol)
