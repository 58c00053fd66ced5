"""Exact linear algebra: Mat, Jet records, and the kernels.

The kernels are checked against naive oracles that share no arithmetic
with them: ``field_mat_mul`` and ``field_rref`` run one scalar step at a
time, over ``Fraction`` for rational matrices and over :class:`Dual` for
jet matrices.  ``Dual`` is a dual number of its own, a ``Fraction`` value
and a list of ``Fraction`` derivatives, so no jet-kernel test compares
against ``Jet`` or kernel code.  ``Mat`` reads only ``int`` and
``Fraction`` entries; :func:`jet_mat` builds a jet matrix's integer form
from rows of ``Jet`` records here, over ``Fraction``.
"""

import math
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeinv import linalg
from planeinv.errors import (
    DimensionMismatchError,
    RankDeficientError,
    SingularMatrixError,
)
from planeinv.linalg import Jet, Mat, hstack, vstack
from planeinv.words import evaluate_traces

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=7
)


def matrices(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(Mat)


square = st.integers(min_value=1, max_value=4).flatmap(lambda n: matrices(n, n))

# ---------------------------------------------------------------------------
# Mat basics
# ---------------------------------------------------------------------------


class TestMatBasics:
    def test_identity_shape(self):
        e = Mat.identity(3)
        assert e.rows == 3 and e.cols == 3
        assert e.data[0] == [1, 0, 0]
        assert e.data[2] == [0, 0, 1]

    def test_zero_cols_rejected_in_matmul(self):
        empty = Mat([[], []])
        with pytest.raises(DimensionMismatchError):
            empty @ Mat.identity(2)

    def test_shape_mismatch(self):
        a = Mat([[1, 2]])
        b = Mat([[1, 2]])
        with pytest.raises(DimensionMismatchError):
            a @ b
        with pytest.raises(DimensionMismatchError):
            a - Mat([[1], [2]])

    def test_matmul_golden(self):
        a = Mat([[1, 2], [3, 4]])
        b = Mat([[0, 1], [1, 0]])
        assert (a @ b).data == [[2, 1], [4, 3]]

    def test_block(self):
        m = Mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert m.block(0, 2, 1, 3).data == [[2, 3], [5, 6]]

    def test_transpose(self):
        m = Mat([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().data == [[1, 4], [2, 5], [3, 6]]

    def test_trace(self):
        assert evaluate_traces([Mat([[1, 2], [3, 4]])], [(0,)]) == [5]

    @pytest.mark.parametrize("entry", ["1/2", 1.5, Jet(Fraction(1))], ids=["str", "float", "Jet"])
    def test_only_int_and_fraction_entries(self, entry):
        with pytest.raises(TypeError, match=type(entry).__name__):
            Mat([[entry]])

    def test_hstack_vstack(self):
        a = Mat([[1], [2]])
        b = Mat([[3], [4]])
        assert hstack([a, b]).data == [[1, 3], [2, 4]]
        assert vstack([a, b]).data == [[1], [2], [3], [4]]


# ---------------------------------------------------------------------------
# inverse / solve / nullspace: golden examples first, then properties
# ---------------------------------------------------------------------------


class TestInverse:
    def test_golden_2x2(self):
        m = Mat([[1, 2], [3, 4]])
        inv = m.inverse()
        assert inv.data == [
            [Fraction(-2), Fraction(1)],
            [Fraction(3, 2), Fraction(-1, 2)],
        ]

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            Mat([[1, 2], [2, 4]]).inverse()

    @given(square)
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip(self, m):
        try:
            inv = m.inverse()
        except SingularMatrixError:
            return
        assert (m @ inv).data == Mat.identity(m.rows).data
        assert (inv @ m).data == Mat.identity(m.rows).data


class TestSolve:
    def test_golden(self):
        a = Mat([[2, 0], [0, 4]])
        b = Mat([[1], [1]])
        x = a.solve(b)
        assert x.data == [[Fraction(1, 2)], [Fraction(1, 4)]]

    def test_inconsistent_raises(self):
        a = Mat([[1, 0], [1, 0]])
        b = Mat([[0], [1]])
        with pytest.raises(RankDeficientError):
            a.solve(b)

    def test_underdetermined_raises(self):
        a = Mat([[1, 1]])
        b = Mat([[1]])
        with pytest.raises(RankDeficientError):
            a.solve(b)

    def test_overdetermined_consistent(self):
        # three equations, two unknowns, consistent system
        a = Mat([[1, 0], [0, 1], [1, 1]])
        b = Mat([[2], [3], [5]])
        assert a.solve(b).data == [[2], [3]]


class TestRrefAndNullspace:
    def test_rref_golden(self):
        m = Mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        red, pivots = m.rref()
        assert pivots == (0, 1)
        assert red.data == [
            [Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(0), Fraction(1), Fraction(1)],
            [Fraction(0), Fraction(0), Fraction(0)],
        ]

    @given(st.integers(1, 4).flatmap(lambda r: matrices(r, 3)))
    @settings(max_examples=60, deadline=None)
    def test_rref_idempotent(self, m):
        once, _ = m.rref()
        twice, _ = once.rref()
        assert once.data == twice.data

    def test_nullspace_golden(self):
        m = Mat([[1, 1, 0], [0, 0, 1]])
        basis = m.nullspace_basis()
        assert basis.cols == 1
        # canonical: free variable set to 1
        assert basis.data == [[Fraction(-1)], [Fraction(1)], [Fraction(0)]]

    def test_full_rank_nullspace_empty(self):
        basis = Mat.identity(3).nullspace_basis()
        assert basis.rows == 3 and basis.cols == 0

    @given(st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
        lambda rc: matrices(rc[0], rc[1])
    ))
    @settings(max_examples=60, deadline=None)
    def test_nullspace_annihilated(self, m):
        basis = m.nullspace_basis()
        if basis.cols == 0:
            assert m.rank() == m.cols
            return
        prod = m @ basis
        assert prod.is_zero()
        assert m.rank() + basis.cols == m.cols

    @given(matrices(3, 3), matrices(3, 3), matrices(3, 3))
    @settings(max_examples=40, deadline=None)
    def test_matmul_associative(self, a, b, c):
        assert ((a @ b) @ c).data == (a @ (b @ c)).data


# ---------------------------------------------------------------------------
# Jet records
# ---------------------------------------------------------------------------


def jet(value, derivs=()):
    """A jet from its value and a list of rational derivatives."""
    den = math.lcm(*(Fraction(x).denominator for x in derivs))
    return Jet(value, tuple(int(x * den) for x in derivs), den)


def jet_mat(rows):
    """The matrix of rows of ``Jet``, ``int`` or ``Fraction`` entries, in its canonical form.

    Without a ``Jet`` entry it is ``Mat(rows)``.  Otherwise it has as many
    directions k as the longest ``nums``, and a constant, or a jet with no
    ``nums``, has zero derivatives.  Each row is flat: the values, then the
    derivatives along each direction in turn, over the lcm of every
    denominator, divided by the gcd of the whole form.
    """
    jets = [x for row in rows for x in row if type(x) is Jet]
    if not jets:
        return Mat(rows)
    k = max(len(x.nums) for x in jets)

    def parts(x):
        if type(x) is not Jet:
            return Fraction(x), [Fraction(0)] * k
        return Fraction(x.value), [Fraction(n, x.den) for n in x.nums] or [Fraction(0)] * k

    flat = []
    for row in rows:
        pairs = [parts(x) for x in row]
        flat.append([v for v, _ in pairs] + [ds[t] for t in range(k) for _, ds in pairs])
    den = math.lcm(*(x.denominator for row in flat for x in row))
    num = [[int(x * den) for x in row] for row in flat]
    g = math.gcd(den, *chain.from_iterable(num))
    return Mat._form([[x // g for x in row] for row in num], den // g, len(rows[0]), k)


def deriv(nums, den):
    """The derivative vector ``nums / den`` as ``Fraction`` entries."""
    return [Fraction(x, den) for x in nums]


class TestJet:
    """Golden jets.  Jets meet arithmetic only as entries of matrices, in their integer form."""

    def test_product_rule_golden(self):
        # (2 + eps)(3 + eps) = 6 + 5 eps, as a 1 x 1 product
        [[p]] = (jet_mat([[jet(Fraction(2), [1])]]) @ jet_mat([[jet(Fraction(3), [1])]])).data
        assert p.value == 6 and deriv(p.nums, p.den) == [5]

    def test_quotient_rule(self):
        # d/dx (x / (x + 1)) at x = 1 is 1/4: solve (x - (-1)) q = x
        x = jet(Fraction(1), [1])
        [[q]] = (jet_mat([[x]]) - Mat([[-1]])).solve(jet_mat([[x]])).data
        assert q.value == Fraction(1, 2)
        assert deriv(q.nums, q.den) == [Fraction(1, 4)]

    def test_bool_follows_value(self):
        # a zero test reads the values, as pivoting does
        assert jet_mat([[jet(Fraction(0), [5])]]).is_zero()
        assert not jet_mat([[jet(Fraction(1), [0])]]).is_zero()

    def test_mixed_arithmetic_with_ints(self):
        # 2x + 1 - x/3 at x = 3 + eps: int and Fraction entries are constants
        x = jet(Fraction(3), [1])
        [[y]] = (Mat([[2, 1, Fraction(-1, 3)]]) @ jet_mat([[x], [1], [x]])).data
        assert y.value == 6
        assert deriv(y.nums, y.den) == [Fraction(5, 3)]

    def test_epsilon_squared_vanishes(self):
        eps = jet(Fraction(0), [1, 2])
        [[sq]] = (jet_mat([[eps]]) @ jet_mat([[eps]])).data
        assert sq.value == 0 and not any(sq.nums)

    @given(rationals, rationals, rationals, rationals)
    def test_subtraction_componentwise(self, a, b, da, db):
        s = jet_mat([[jet(a, [da, 2 * da])]]) - jet_mat([[jet(b, [db, -db])]])
        assert as_duals(s.data, 2) == [[Dual(a, [da, 2 * da]) - Dual(b, [db, -db])]]

    def test_matrix_inverse_derivative(self):
        # d/dt inv(1 + t) at t = 1 is -1/4; embed as a 1x1 matrix of Jets
        m = jet_mat([[jet(Fraction(2), [1, 2])]])
        inv = m.inverse()
        x = inv.data[0][0]
        assert x.value == Fraction(1, 2)
        assert deriv(x.nums, x.den) == [Fraction(-1, 4), Fraction(-1, 2)]


small_rationals = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**12)),
)


# ---------------------------------------------------------------------------
# word traces
# ---------------------------------------------------------------------------


def entry_rows(m):
    """The entry rows of ``m``: its ``data`` for a ``Mat``, else ``m`` itself (rows of duals)."""
    return m.data if isinstance(m, Mat) else m


def trace_word(letters, word):
    """Trace of the product ``letters[word[0]] @ letters[word[1]] @ ...``.

    The uncached oracle for :func:`planeinv.words.evaluate_traces`: the
    products run through ``field_mat_mul``, so letters given as rows of
    :class:`Dual` entries give the derivatives too.  Letter indices are
    0-based; an out-of-range index raises ``IndexError``.
    """
    if not word:
        raise IndexError("empty word")
    for k in word:
        if not 0 <= k < len(letters):
            raise IndexError(f"letter index {k} out of range for alphabet of {len(letters)}")
    acc = entry_rows(letters[word[0]])
    for k in word[1:]:
        acc = field_mat_mul(acc, entry_rows(letters[k]))
    return sum((acc[i][i] for i in range(1, len(acc))), acc[0][0])


class TestTraceWord:
    def test_single_letter(self):
        a = Mat([[1, 2], [3, 4]])
        assert trace_word([a], (0,)) == 5

    def test_word_order_matters_in_product_but_not_trace_of_cycle(self):
        a = Mat([[1, 1], [0, 1]])
        b = Mat([[1, 0], [1, 1]])
        # tr(ab) == tr(ba) always
        assert trace_word([a, b], (0, 1)) == trace_word([a, b], (1, 0))

    def test_bad_index(self):
        with pytest.raises(IndexError):
            trace_word([Mat.identity(2)], (1,))


def trace_letter(m):
    """An m x m letter with mixed denominators, sometimes zero or the identity."""
    entries = st.lists(small_rationals, min_size=m, max_size=m)
    return st.one_of(
        st.lists(entries, min_size=m, max_size=m).map(Mat),
        st.just(Mat.zeros(m, m)),
        st.just(Mat.identity(m)),
    )


# Periodic necklaces, whose halves repeat each other.
PERIODIC_WORDS = [(0, 1, 0, 1), (0, 1) * 3, (0, 1) * 4, (0, 0, 1) * 2, (0, 1, 1) * 2]


@st.composite
def trace_cases(draw):
    """1-3 letters of size 1-4 and words of every length 1-8, shared halves included."""
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    letters = draw(st.lists(trace_letter(m), min_size=k, max_size=k))
    word = st.lists(st.integers(0, k - 1), min_size=1, max_size=8).map(tuple)
    words = [(0,) * n for n in range(1, 9)] + [w for w in PERIODIC_WORDS if max(w) < k]
    words += [tuple(k - 1 - x for x in w) for w in PERIODIC_WORDS if max(w) < k]
    return letters, words + draw(st.lists(word, max_size=12))


class TestSplitTraces:
    """Each trace from two cached half-word products equals the uncached product's."""

    @given(trace_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_uncached_products(self, case):
        letters, words = case
        got = evaluate_traces(letters, words)
        assert got == [trace_word(letters, w) for w in words]
        assert all(type(v) is Fraction for v in got)


# ---------------------------------------------------------------------------
# the kernels
# ---------------------------------------------------------------------------


def field_mat_mul(a, b):
    """The plain product loop: the oracle for ``Mat.__matmul__``."""
    out = []
    for arow in a:
        orow = []
        for j in range(len(b[0])):
            acc = arow[0] * b[0][j]
            for k in range(1, len(b)):
                acc = acc + arow[k] * b[k][j]
            orow.append(acc)
        out.append(orow)
    return out


def field_rref(m):
    """Gauss-Jordan over the entries' own field or ring, first-nonzero pivoting, in place.

    The oracle for ``Mat.rref``, over ``Fraction`` or :class:`Dual`.
    The pivot is the first entry that is true (a dual's truthiness reads
    its value alone); the whole pivot row is divided by it, and every other
    row whose entry in the pivot column is ``!= 0`` (for a dual, a nonzero
    value or derivative) is cleared.  Rows below the rank end as zeros: a
    derivative that no pivot reached is dropped there.
    """
    rows, cols = len(m), len(m[0])
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr == rows:
            break
        hit = next((i for i in range(pr, rows) if m[i][pc]), -1)
        if hit < 0:
            continue
        m[pr], m[hit] = m[hit], m[pr]
        pv = m[pr][pc]
        prow = m[pr] = [x / pv for x in m[pr]]
        for i in range(rows):
            f = m[i][pc]
            if i != pr and f != 0:
                m[i] = [x - f * y for x, y in zip(m[i], prow)]
        pivots.append(pc)
        pr += 1
    for i in range(pr, rows):
        m[i] = [x - x for x in m[i]]
    return tuple(pivots)


# One-direction dual numbers (value, derivative) as pairs of Fractions.
DUAL_OPS = {
    "add": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "sub": lambda a, b: (a[0] - b[0], a[1] - b[1]),
    "mul": lambda a, b: (a[0] * b[0], a[0] * b[1] + a[1] * b[0]),
    "div": lambda a, b: (a[0] / b[0], (a[1] * b[0] - a[0] * b[1]) / (b[0] * b[0])),
}


class Dual:
    """The jet oracle: a ``Fraction`` value and a list of ``Fraction`` derivatives.

    Naive on purpose: ``+ - * /`` apply the one-direction rule of
    ``DUAL_OPS`` to each direction in turn, and ``int`` or ``Fraction``
    operands are constants.  Truthiness reads the value, as a jet's does;
    ``!= 0`` holds when the value or any derivative is nonzero.
    """

    __slots__ = ("value", "derivs")

    def __init__(self, value, derivs):
        self.value = Fraction(value)
        self.derivs = [Fraction(x) for x in derivs]

    def _lift(self, other):
        return other if isinstance(other, Dual) else Dual(other, [0] * len(self.derivs))

    def _op(self, name, a, b):
        a, b = self._lift(a), self._lift(b)
        assert len(a.derivs) == len(b.derivs)
        rule = DUAL_OPS[name]
        pairs = [rule((a.value, x), (b.value, y)) for x, y in zip(a.derivs, b.derivs)]
        return Dual(rule((a.value, 0), (b.value, 0))[0], [d for _, d in pairs])

    def __add__(self, other):
        return self._op("add", self, other)

    def __radd__(self, other):
        return self._op("add", other, self)

    def __sub__(self, other):
        return self._op("sub", self, other)

    def __rsub__(self, other):
        return self._op("sub", other, self)

    def __mul__(self, other):
        return self._op("mul", self, other)

    def __rmul__(self, other):
        return self._op("mul", other, self)

    def __truediv__(self, other):
        return self._op("div", self, other)

    def __rtruediv__(self, other):
        return self._op("div", other, self)

    def __neg__(self):
        return Dual(-self.value, [-x for x in self.derivs])

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        other = self._lift(other)
        return self.value == other.value and self.derivs == other.derivs

    def __repr__(self):
        return f"Dual({self.value}, {self.derivs})"


def as_duals(m, k):
    """The ``Jet``, ``int`` or ``Fraction`` entries of ``m`` as duals in ``k`` directions."""
    out = []
    for row in m:
        orow = []
        for x in row:
            if type(x) is Jet:
                derivs = [Fraction(n, x.den) for n in x.nums] or [0] * k
                assert len(derivs) == k
                orow.append(Dual(x.value, derivs))
            else:
                orow.append(Dual(x, [0] * k))
        out.append(orow)
    return out


# Jet matrices whose entries often have value 0 but a nonzero derivative:
# the entries a value-only elimination would fail to clear.
jet_values = st.one_of(st.just(0), st.just(0), small_rationals)


kernel_entries = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-9, 9),
    st.fractions(min_value=-20, max_value=20, max_denominator=7),
    st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64)),
)


@st.composite
def kernel_matrices(draw, rows=st.integers(1, 7), cols=st.integers(1, 9)):
    """Mixed int/Fraction matrices with zero rows, duplicate rows and row combinations."""
    r, c = draw(rows), draw(cols)
    m = draw(st.lists(st.lists(kernel_entries, min_size=c, max_size=c), min_size=r, max_size=r))
    for i in range(r):
        how = draw(st.sampled_from(["keep", "keep", "zero", "copy", "combine"]))
        if how == "zero":
            m[i] = [0] * c
        elif how == "copy":
            m[i] = list(m[draw(st.integers(0, r - 1))])
        elif how == "combine" and i >= 2:
            f = draw(kernel_entries)
            m[i] = [x + f * y for x, y in zip(m[i - 1], m[i - 2])]
    return m


def as_fractions(m):
    return [[Fraction(x) for x in row] for row in m]


def only_fractions(m):
    return all(type(x) is Fraction for row in m for x in row)


class TestKernels:
    def test_mat_mul(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        b = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]
        assert (Mat(a) @ Mat(b)).data == [
            [Fraction(2), Fraction(3)],
            [Fraction(4), Fraction(7)],
        ]

    def test_rref(self):
        rows = [
            [Fraction(0), Fraction(2), Fraction(4)],
            [Fraction(1), Fraction(1), Fraction(1)],
        ]
        red, pivots = Mat(rows).rref()
        assert tuple(pivots) == (0, 1)
        assert red.data == [
            [Fraction(1), Fraction(0), Fraction(-1)],
            [Fraction(0), Fraction(1), Fraction(2)],
        ]

    @given(kernel_matrices())
    @settings(max_examples=300, deadline=None)
    def test_rref_matches_field_loop(self, m):
        want = as_fractions(m)
        want_pivots = field_rref(want)
        red, pivots = Mat(m).rref()
        assert pivots == want_pivots
        assert red.data == want and only_fractions(red.data)

    @given(
        st.tuples(st.integers(1, 7), st.integers(1, 9), st.integers(1, 7)).flatmap(
            lambda s: st.tuples(
                kernel_matrices(st.just(s[0]), st.just(s[1])),
                kernel_matrices(st.just(s[1]), st.just(s[2])),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_mat_mul_matches_field_loop(self, ab):
        a, b = ab
        got = (Mat(a) @ Mat(b)).data
        assert got == field_mat_mul(as_fractions(a), as_fractions(b))
        assert only_fractions(got)

    @given(kernel_matrices())
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_field_loop(self, m):
        want = len(field_rref(as_fractions(m)))
        before = [row[:] for row in m]
        assert Mat(m).rank() == want
        assert m == before and list(map(type, chain(*m))) == list(map(type, chain(*before)))

    @given(
        st.one_of(
            kernel_matrices(st.integers(5, 9), st.integers(1, 4)),
            kernel_matrices(st.integers(1, 4), st.integers(5, 9)),
            kernel_matrices(),
            st.tuples(st.integers(1, 7), st.integers(1, 5)).flatmap(
                lambda shape: jet_matrices(*shape, 2)
            ),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_rank_counts_the_pivots_of_the_original(self, m):
        """Eliminating along the shorter side keeps the rank: tall, wide, deficient and jet matrices."""
        m = jet_mat(m)
        pivots = linalg._eliminate(m.num, m.cols, m.k, full=False)[1]
        assert linalg._rank(m.num, m.cols, m.k) == len(pivots)

    @given(st.lists(st.lists(st.integers(-99, 99), min_size=3, max_size=3), min_size=3, max_size=3))
    def test_int_mat_mul_stays_int(self, a):
        # an integer product stays an integer form over denominator 1
        got = Mat(a) @ Mat(a)
        assert got.den == 1 and got.num == field_mat_mul(a, a)
        assert all(type(x) is int for row in got.num for x in row)

    def test_int_matrix_inverse_is_exact(self):
        m = Mat([[2, 1], [1, 1]])
        inv = m.inverse()
        assert inv.data == [[1, -1], [-1, 2]] and only_fractions(inv.data)
        red, pivots = Mat([[2, 1], [4, 3]]).rref()
        assert pivots == (0, 1) and only_fractions(red.data)
        assert only_fractions(Mat([[3, 1, 2]]).rref()[0].data)

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.tuples(jet_values, st.lists(small_rationals, min_size=2, max_size=2)),
                 min_size=n, max_size=n),
        min_size=n, max_size=n,
    )))
    @settings(max_examples=100, deadline=None)
    def test_jet_rref_matches_field_loop(self, entries):
        m = jet_mat([[jet(Fraction(v), d) for v, d in row] for row in entries])
        want = as_duals(m.data, 2)
        want_pivots = field_rref(want)
        red, pivots = m.rref()
        assert pivots == want_pivots and as_duals(red.data, 2) == want
        assert all(type(x) is Jet for row in red.data for x in row)
        n = m.rows
        if len(want_pivots) < n:
            with pytest.raises(SingularMatrixError):
                m.inverse()
            return
        eye = as_duals(Mat.identity(n).data, 2)
        work = [row + e for row, e in zip(as_duals(m.data, 2), eye)]
        field_rref(work)
        inv = m.inverse()
        assert as_duals(inv.data, 2) == [row[n:] for row in work]
        assert all(type(x) is Jet for row in inv.data for x in row)


@st.composite
def jet_matrices(draw, rows, cols, k, constants=True):
    """Jet matrices with ``k`` directions; with ``constants``, mixed with plain ``Fraction`` entries.

    The first entry is always a jet, so the jet kernels run.
    """
    derivs = st.one_of(st.just([]), st.lists(small_rationals, min_size=k, max_size=k))
    jets = st.tuples(jet_values, derivs).map(lambda vd: jet(Fraction(vd[0]), vd[1]))
    entry = st.one_of(jets, jets, small_rationals.map(Fraction)) if constants else jets
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    m[0][0] = draw(jets)
    return m


@st.composite
def jet_mats(draw, *shapes):
    """The number of directions ``k``, and jet matrices of the given ``(rows, cols)`` shapes."""
    k = draw(st.integers(1, 3))
    return k, [draw(jet_matrices(rows, cols, k)) for rows, cols in shapes]


dims = st.integers(1, 4)


class TestJetKernels:
    """The fraction-free jet kernels: exact in the jet ring, whatever the values."""

    def test_zero_valued_entry_is_cleared(self):
        # [[1, 0], [eps, 1]]^-1 = [[1, 0], [-eps, 1]]: the (1, 0) entry has value 0.
        inv = jet_mat([[Jet(1), Jet(0)], [Jet(0, (1,)), Jet(1)]]).inverse()
        assert as_duals(inv.data, 1) == [[1, 0], [Dual(0, [-1]), 1]]

    @given(st.data(), dims, dims, dims)
    @settings(max_examples=100, deadline=None)
    def test_mat_mul_matches_field_loop(self, data, n, inner, p):
        k, (a, b) = data.draw(jet_mats((n, inner), (inner, p)))
        got = (jet_mat(a) @ jet_mat(b)).data
        assert as_duals(got, k) == field_mat_mul(as_duals(a, k), as_duals(b, k))
        assert all(type(x) is Jet for row in got for x in row)

    @given(st.data(), dims, dims)
    @settings(max_examples=150, deadline=None)
    def test_inverse_and_solve(self, data, n, p):
        k, (a, b) = data.draw(jet_mats((n, n), (n, p)))
        if jet_mat(a).rank() < n:
            with pytest.raises(SingularMatrixError):
                jet_mat(a).inverse()
            return
        da = as_duals(a, k)
        inv = as_duals(jet_mat(a).inverse().data, k)
        eye = as_duals(Mat.identity(n).data, k)
        assert field_mat_mul(da, inv) == eye == field_mat_mul(inv, da)
        x = as_duals(jet_mat(a).solve(jet_mat(b)).data, k)
        assert field_mat_mul(da, x) == as_duals(b, k)

    @given(st.data(), dims, st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_nullspace_of_a_product(self, data, n, p):
        # A = B @ C has rank at most r over the jet ring; when its values
        # have rank r too, its kernel basis is exact in the jet ring.
        r = data.draw(st.integers(1, min(n, p)))
        k, (b, c) = data.draw(jet_mats((n, r), (r, p)))
        a = jet_mat(b) @ jet_mat(c)
        if a.rank() < r:
            return
        kernel = a.nullspace_basis()
        assert kernel.cols == p - r
        product = field_mat_mul(as_duals(a.data, k), as_duals(kernel.data, k))
        assert kernel.cols == 0 or all(x == 0 for row in product for x in row)

    @given(st.data(), dims, st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_rank_is_rank_of_values(self, data, n, p):
        k, (a,) = data.draw(jet_mats((n, p)))
        values = [[x.value if type(x) is Jet else x for x in row] for row in a]
        assert jet_mat(a).rank() == Mat(values).rank() == len(field_rref(as_duals(a, k)))


def normalized(m, k):
    """Whether every entry of ``m`` is a reduced ``Jet`` record in ``k`` directions.

    A record is reduced when its denominator is a positive ``int``, coprime
    to its numerators, and its ``nums`` is ``()`` or a tuple of ``k`` ints.
    """
    return all(
        type(x) is Jet
        and type(x.den) is int
        and x.den > 0
        and math.gcd(x.den, *x.nums) == 1
        and type(x.nums) is tuple
        and (x.nums == () or (len(x.nums) == k and all(type(n) is int for n in x.nums)))
        for row in m
        for x in row
    )


class TestJetRecords:
    """Every jet a kernel builds is a reduced record."""

    @given(st.data(), dims, dims, dims)
    @settings(max_examples=100, deadline=None)
    def test_kernel_outputs_are_normalized(self, data, n, inner, p):
        k, (a, b, sq, rhs) = data.draw(jet_mats((n, inner), (inner, p), (n, n), (n, p)))
        assert normalized((jet_mat(a) @ jet_mat(b)).data, k)
        assert normalized(jet_mat(a).nullspace_basis().data, k)
        if jet_mat(sq).rank() == n:
            assert normalized(jet_mat(sq).inverse().data, k)
            assert normalized(jet_mat(sq).solve(jet_mat(rhs)).data, k)


@st.composite
def operands(draw, rows, cols, k):
    """Rows of ``Fraction`` entries when ``k`` is None, else a jet matrix in exactly ``k`` directions."""
    if k is None:
        entry = small_rationals.map(Fraction)
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    m = draw(jet_matrices(rows, cols, k))
    m[0][0] = jet(Fraction(draw(jet_values)), draw(st.lists(small_rationals, min_size=k, max_size=k)))
    return m


def padded_duals(m, k):
    """The entries of ``m`` as duals in ``k`` directions; a jet in fewer has derivative 0 along the rest."""
    return [
        [
            Dual(x.value, [Fraction(n, x.den) for n in x.nums] + [0] * (k - len(x.nums)))
            if type(x) is Jet
            else Dual(x, [0] * k)
            for x in row
        ]
        for row in m
    ]


# (ka, kb): the directions of the left and the right operand, None for a rational one.
PRODUCT_PATHS = [(None, 1), (None, 3), (1, None), (3, None), (1, 3), (3, 1), (2, 2)]


class TestProductPaths:
    """Each path of the jet product: Q @ jet, jet @ Q, and two jets in their own directions."""

    @pytest.mark.parametrize("ka,kb", PRODUCT_PATHS, ids=lambda k: "q" if k is None else f"jet{k}")
    @given(data=st.data(), n=dims, inner=dims, p=dims)
    @settings(max_examples=40, deadline=None)
    def test_matches_field_loop(self, ka, kb, data, n, inner, p):
        a, b = data.draw(operands(n, inner, ka)), data.draw(operands(inner, p, kb))
        ma, mb = jet_mat(a), jet_mat(b)
        assert (ma.k, mb.k) == (ka, kb)
        k = max(ka or 0, kb or 0)
        got = ma @ mb
        assert got.k == k
        assert padded_duals(got.data, k) == field_mat_mul(padded_duals(a, k), padded_duals(b, k))
        assert normalized(got.data, k)


# Invertible jet matrices, each with an entry of value 0 and a nonzero derivative.
JET_INVERSES = [
    [[Jet(1), Jet(0)], [Jet(0, (1,)), Jet(1)]],
    [
        [jet(Fraction(0), [1, 2]), jet(Fraction(2, 3), [0, -1])],
        [jet(Fraction(5), [3, 0]), Jet(Fraction(1, 7))],
    ],
    [
        [jet(Fraction(1), [1, 0, 2]), Fraction(2), jet(Fraction(0), [0, 5, 1])],
        [Fraction(0), jet(Fraction(3, 2), [Fraction(1, 3), 0, 0]), Fraction(-1)],
        [jet(Fraction(4), [0, 0, 1]), Fraction(1), jet(Fraction(-2), [1, 1, 1])],
    ],
]


class TestJetInverse:
    """A jet inverse inverts the values alone: dV = -V dA V from two plain products."""

    def test_no_jet_elimination(self, monkeypatch):
        ks = []
        for name in ("_rref", "_eliminate"):

            def spied(rows, cols, k, *args, _kernel=getattr(linalg, name), **kwargs):
                ks.append(k)
                return _kernel(rows, cols, k, *args, **kwargs)

            monkeypatch.setattr(linalg, name, spied)
        for rows in JET_INVERSES:
            m = jet_mat(rows)
            inv = m.inverse()
            eye = padded_duals(Mat.identity(m.rows).data, m.k)
            assert field_mat_mul(padded_duals(rows, m.k), padded_duals(inv.data, m.k)) == eye
            assert normalized(inv.data, m.k)
        assert len(ks) == 2 * len(JET_INVERSES) and not any(ks)


def zero_direction_matrices(rows, cols):
    """Jet matrices in no direction: every ``nums`` is ``()``, so k = 0."""
    entry = jet_values.map(lambda v: Jet(Fraction(v)))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def values_of(m):
    return [[x.value for x in row] for row in m]


class TestZeroDirections:
    """With k = 0 the derivative segments are empty: the jet route is the rational one on the values."""

    @given(st.data(), dims, dims, dims)
    @settings(max_examples=100, deadline=None)
    def test_matches_rational_kernels(self, data, n, inner, p):
        a, b, sq = (data.draw(zero_direction_matrices(r, c)) for r, c in [(n, inner), (inner, p), (n, n)])
        got = (jet_mat(a) @ jet_mat(b)).data
        assert normalized(got, 0) and values_of(got) == (Mat(values_of(a)) @ Mat(values_of(b))).data
        (red, pivots), (want, want_pivots) = jet_mat(a).rref(), Mat(values_of(a)).rref()
        assert pivots == want_pivots
        assert normalized(red.data, 0) and values_of(red.data) == want.data
        if Mat(values_of(sq)).rank() < n:
            with pytest.raises(SingularMatrixError):
                jet_mat(sq).inverse()
            return
        inv = jet_mat(sq).inverse().data
        assert normalized(inv, 0) and values_of(inv) == Mat(values_of(sq)).inverse().data


class TestJetVector:
    """``-`` of all-jet matrices, in either order, equals the dual oracle's, direction by direction."""

    @given(st.data(), dims, dims, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_chain_matches_scalar_duals(self, data, n, p, k):
        def draw():
            other = jet_mat(data.draw(jet_matrices(n, p, k, constants=False)))
            return other, as_duals(other.data, k)

        acc, want = draw()
        for step in data.draw(st.lists(st.sampled_from(["sub", "rsub"]), max_size=6)):
            other, theirs = draw()
            pairs = [list(zip(r, q)) for r, q in zip(want, theirs)]
            if step == "sub":
                acc, want = acc - other, [[x - y for x, y in row] for row in pairs]
            else:
                acc, want = other - acc, [[y - x for x, y in row] for row in pairs]
            assert as_duals(acc.data, k) == want
            assert all(
                type(x) is Jet and x.den > 0 and math.gcd(x.den, *x.nums) == 1
                for row in acc.data for x in row
            )


# ---------------------------------------------------------------------------
# the stored form
# ---------------------------------------------------------------------------


def canonical(m):
    """Whether ``m`` holds the canonical integer form of its value.

    Integer rows of ``cols * (k + 1)`` entries over a positive ``int``
    denominator, coprime to them all (so a zero matrix is over 1).
    """
    width = m.cols * (1 + (m.k or 0))
    return (
        type(m.den) is int
        and m.den > 0
        and math.gcd(m.den, *chain.from_iterable(m.num)) == 1
        and len(m.num) == m.rows
        and all(len(row) == width and all(type(x) is int for x in row) for row in m.num)
    )


def rebuilt(m):
    """``m`` built again from its entries, with explicit zero derivative vectors for jets."""
    if m.k is None:
        return Mat(m.data)
    return jet_mat([[Jet(x.value, x.nums or (0,) * m.k, x.den) for x in row] for row in m.data])


class TestCanonicalForm:
    """Every matrix an op returns is canonical, so ``==`` and ``hash`` follow the value."""

    @given(st.data(), dims, dims, st.one_of(st.none(), st.integers(0, 2)))
    @settings(max_examples=150, deadline=None)
    def test_op_results_are_canonical(self, data, n, p, k):
        def draw(rows, cols):
            if k is None:
                return Mat(data.draw(kernel_matrices(st.just(rows), st.just(cols))))
            return jet_mat(data.draw(jet_matrices(rows, cols, k)))

        a, c, b, sq = draw(n, p), draw(n, p), draw(p, n), draw(n, n)
        r0 = data.draw(st.integers(0, n - 1))
        c0 = data.draw(st.integers(0, p))
        results = [
            a @ b,
            b @ a,
            a @ Mat.identity(p),
            a - c,
            c - a,
            a - a,
            a.transpose(),
            a.block(r0, data.draw(st.integers(r0 + 1, n)), c0, data.draw(st.integers(c0, p))),
            hstack([a, c]),
            hstack([a, Mat.identity(n)]),
            vstack([a, c]),
            a.rref()[0],
            a.nullspace_basis(),
            b.nullspace_basis(),
        ]
        if sq.rank() == n:
            inv = sq.inverse()
            results += [inv, sq.solve(a)]
            ones = [[int(i == j) for j in range(n)] for i in range(n)]
            if sq.k is None:
                eye = Mat([[Fraction(x) for x in row] for row in ones])
            else:
                eye = jet_mat([[Jet(Fraction(x), (0,) * sq.k) for x in row] for row in ones])
            assert sq @ inv == eye == inv @ sq
            assert hash(sq @ inv) == hash(eye)
        assert all(canonical(m) for m in results)
        assert a - (a - a) == a and hash(a - (a - a)) == hash(a)
        for m in results:
            if m.cols:
                assert rebuilt(m) == m and hash(rebuilt(m)) == hash(m)
