"""Exact linear algebra over the rationals (and over jets of rationals).

Everything downstream -- subspace normal forms, invariant letters, Jacobian
ranks -- is built from the handful of operations here.  There is no floating
point anywhere: scalars are ``fractions.Fraction`` (gcd-reduced arbitrary
precision rationals from the stdlib, exposed as :data:`Rat`) or
:class:`Jet` records.  A jet carries one value and a derivative vector,
one entry per direction, as integer numerators over one common
denominator, so a single pass differentiates along every direction.

A :class:`Mat` stores one canonical integer form: integer rows ``num``
over one positive common denominator ``den``, with ``gcd(den, entries) ==
1``, so equal matrices have equal forms.  A matrix of jets in ``k``
directions (:mod:`planeinv.jet`, the scalars of the reduction that builds
the letters of the Jacobian pass) keeps the same form, each row flat: the
values, then the derivatives along each direction in turn.  Loop overhead
is not the cost over ``Fraction``; the rational arithmetic and the growth
of entry bit-size are.  So the kernels in :mod:`planeinv._kernels_py`
(``mat_mul``, ``rref``, and the rank-only eliminations ``rank`` and
``rank_mod_p``) take and return the form, fraction-free, with one gcd per
output matrix, and a chain of products, inverses and kernels stays over
the integers from end to end.  Elimination pivots on values but clears
every entry that is a nonzero jet, so the derivatives are exact.
``+``, ``-``, negation, blocks, stacks, transposes, ``is_zero``,
``trace``, ``==`` and ``hash`` act on the form too; a rational operand
meets a jet operand as a jet with zero derivatives.  ``Fraction`` and
``Jet`` entries are built only when :attr:`Mat.data` is first read (file
writers, ``repr``, tests) and for one scalar by :meth:`Mat.trace`; the word
traces (:mod:`planeinv.words`) read each letter's form as an integer
matrix and its denominator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from ._kernels_py import mat_mul as _mat_mul, rank as _rank, rank_mod_p, reduced as _reduced
from ._kernels_py import rref as _rref, scaled_rows
from .errors import DimensionMismatchError, RankDeficientError, SingularMatrixError
from .jet import Jet

Rat = Fraction
"""Exact rational scalar type: arbitrary precision, always gcd-reduced."""


def as_scalar(x):
    """Coerce ``x`` to a package scalar: a ``str`` becomes ``Rat``.

    An ``int``, a ``Fraction`` or a ``Jet`` is kept as it is.
    """
    if isinstance(x, (int, Fraction, Jet)):
        return x
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact scalar")


def _scalar(value: int, nums, den: int):
    """The entry ``value / den``, with the derivatives ``nums / den`` when ``nums`` is not None."""
    if nums is None:
        return Fraction(value, den)
    g = gcd(den, *nums)
    if g == den:
        return Jet(Fraction(value, den), tuple([x // g for x in nums]) if any(nums) else ())
    return Jet(Fraction(value, den), tuple([x // g for x in nums]), den // g)


def _joint_k(mats) -> int | None:
    """The directions of a result of ``mats``: None when all are rational, else the most any has."""
    ks = [m.k for m in mats if m.k is not None]
    return max(ks) if ks else None


def _starts(m: "Mat") -> range:
    """Where the values and each derivative segment start in a row of ``m``."""
    return range(0, (1 + (m.k or 0)) * m.cols, m.cols or 1)


def _joined(parts, k: int | None) -> list:
    """One flat row of rows side by side, given as ``(row, cols)`` pairs in ``k`` directions."""
    if not k:
        return list(chain.from_iterable(row for row, _ in parts))
    return [x for t in range(k + 1) for row, c in parts for x in row[t * c : t * c + c]]


def _rows_in(m: "Mat", k: int | None, scale: int = 1) -> list:
    """The integer rows of ``m`` times ``scale``, with ``k`` directions (zero derivatives added)."""
    rows = m.num if scale == 1 else [[x * scale for x in row] for row in m.num]
    if m.k == k:
        return rows
    pad = [0] * ((k - (m.k or 0)) * m.cols)
    return [row + pad for row in rows]


class Mat:
    """Dense rows*cols matrix over exact scalars, stored as its canonical integer form.

    ``num`` holds the integer rows and ``den`` the common denominator; ``k``
    is None for a rational matrix and the number of directions for a jet
    matrix.  Immutable by convention: operations return new matrices and
    never change the receiver's rows.  A matrix may have zero columns
    (kernels of injective maps) but never zero rows.
    """

    __slots__ = ("rows", "cols", "k", "den", "num", "_data")

    def __init__(self, data: Sequence[Sequence]):
        rows = [[as_scalar(x) for x in row] for row in data]
        if not rows:
            raise DimensionMismatchError("matrix needs at least one row")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise DimensionMismatchError("ragged rows")
        self.rows = len(rows)
        self.cols = cols
        self.num, self.den, self.k = scaled_rows(rows)
        self._data = None

    @classmethod
    def _form(cls, num: list, den: int, cols: int, k: int | None = None) -> "Mat":
        """Wrap a canonical form without copying or checking it."""
        m = object.__new__(cls)
        m.rows = len(num)
        m.cols = cols
        m.k = k
        m.den = den
        m.num = num
        m._data = None
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._form([[0] * cols for _ in range(rows)], 1, cols)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._form([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @property
    def data(self) -> list:
        """The entries as lists of ``Fraction`` (or ``Jet``) rows, built on first read."""
        if self._data is None:
            cols, den = self.cols, self.den
            if self.k is None:
                self._data = [[Fraction(x, den) for x in row] for row in self.num]
            else:
                starts = _starts(self)[1:]
                self._data = [
                    [_scalar(row[j], [row[lo + j] for lo in starts], den) for j in range(cols)]
                    for row in self.num
                ]
        return self._data

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.cols == other.cols
            and self.k == other.k
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.cols, self.k, self.den, tuple(map(tuple, self.num))))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Mat[{self.rows}x{self.cols}: {body}]"

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows or self.cols == 0:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        k = self.k if self.k == other.k else _joint_k((self, other))
        num, den = _mat_mul(
            _rows_in(self, k), self.den, _rows_in(other, k), other.den, other.cols, k
        )
        return Mat._form(num, den, other.cols, k)

    def _combine(self, other: "Mat", sign: int) -> "Mat":
        """``self + sign * other`` over the lcm of the denominators, reduced."""
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        k = self.k if self.k == other.k else _joint_k((self, other))
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        num = [
            [fa * x + fb * y for x, y in zip(ra, rb)]
            for ra, rb in zip(_rows_in(self, k), _rows_in(other, k))
        ]
        return Mat._form(*_reduced(num, self.den * fa), self.cols, k)

    def __add__(self, other: "Mat") -> "Mat":
        return self._combine(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._combine(other, -1)

    def __neg__(self) -> "Mat":
        return Mat._form([[-x for x in row] for row in self.num], self.den, self.cols, self.k)

    def transpose(self) -> "Mat":
        if self.cols == 0:
            raise DimensionMismatchError("cannot transpose a matrix with no columns")
        if not self.k:
            return Mat._form([list(col) for col in zip(*self.num)], self.den, self.rows, self.k)
        cols = self.cols
        parts = [zip(*[row[lo : lo + cols] for row in self.num]) for lo in _starts(self)]
        return Mat._form([list(chain(*segs)) for segs in zip(*parts)], self.den, self.rows, self.k)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Mat":
        """Submatrix of rows ``r0:r1`` and columns ``c0:c1`` (half-open)."""
        if not (0 <= r0 < r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise IndexError(
                f"block [{r0}:{r1}, {c0}:{c1}] out of range for {self.rows}x{self.cols}"
            )
        if not self.k:
            num = [row[c0:c1] for row in self.num[r0:r1]]
        else:
            num = [[x for lo in _starts(self) for x in row[lo + c0 : lo + c1]] for row in self.num[r0:r1]]
        return Mat._form(*_reduced(num, self.den), c1 - c0, self.k)

    def trace(self):
        if self.rows != self.cols:
            raise DimensionMismatchError("trace needs a square matrix")
        diagonal = [sum(row[lo + i] for i, row in enumerate(self.num)) for lo in _starts(self)]
        return _scalar(diagonal[0], None if self.k is None else diagonal[1:], self.den)

    def is_zero(self) -> bool:
        """Whether every value is 0; a jet's derivatives are not read, as in pivoting."""
        cols = self.cols
        return not any(any(row[:cols]) for row in self.num)

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        if self.cols == 0:
            return self, ()
        num, den, pivots = _rref(self.num, self.cols, self.k)
        return Mat._form(num, den, self.cols, self.k), pivots

    def rank(self) -> int:
        return _rank(self.num, self.cols, self.k)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise DimensionMismatchError("only square matrices can be inverted")
        n, k = self.rows, self.k
        # [A | I] as the integer rows [num | den * I]; I has zero derivatives.
        eye = [[self.den * (i == j) for j in range(n * (1 + (k or 0)))] for i in range(n)]
        work = [_joined([(row, n), (e, n)], k) for row, e in zip(self.num, eye)]
        num, den, pivots = _rref(work, 2 * n, k, n)
        if len(pivots) < n or pivots[n - 1] != n - 1:
            raise SingularMatrixError(f"matrix of size {n} is singular")
        return Mat._form(num, den, n, k)

    def solve(self, rhs: "Mat") -> "Mat":
        """Unique solution X of ``self @ X == rhs``.

        Raises :class:`RankDeficientError` when the system is inconsistent
        or has more than one solution.
        """
        if rhs.rows != self.rows:
            raise DimensionMismatchError("right-hand side has wrong number of rows")
        m, p = self.cols, rhs.cols
        k = self.k if self.k == rhs.k else _joint_k((self, rhs))
        # [A | B] as the integer rows [A.num * B.den | B.num * A.den], over a common factor.
        g = gcd(self.den, rhs.den)
        left, right = _rows_in(self, k, rhs.den // g), _rows_in(rhs, k, self.den // g)
        work = [_joined([(a, m), (b, p)], k) for a, b in zip(left, right)]
        num, den, pivots = _rref(work, m + p, k, m)
        lead = [q for q in pivots if q < m]
        if any(q >= m for q in pivots):
            raise RankDeficientError("inconsistent linear system")
        if len(lead) < m:
            raise RankDeficientError("underdetermined linear system")
        # The pivots are 0 .. m-1, in order: row r of the solution is row r,
        # and the rows below m are zero, so the form stays canonical.
        return Mat._form(num[:m], den, p, k)

    def nullspace_basis(self) -> "Mat":
        """Canonical kernel basis, one column per free variable.

        Basis vector for free column ``f`` has entry 1 at ``f``, 0 at every
        other free column, and the negated reduced-echelon entries at the
        pivot rows.  This normal form depends only on the column span
        relations, which is what makes downstream letters well defined.
        The reduced echelon form's pivot columns hold only its denominator
        and zeros, so the basis over that denominator is canonical as well.
        """
        m = self.cols
        red, den, pivots = _rref(self.num, m, self.k)
        free = [j for j in range(m) if j not in pivots]
        starts = _starts(self)
        out = [None] * m
        for c, f in enumerate(free):
            unit = [0] * (len(free) * len(starts))
            unit[c] = den
            out[f] = unit
        for row, p in zip(red, pivots):
            out[p] = [-row[lo + f] for lo in starts for f in free]
        return Mat._form(out, den, len(free), self.k)


def hstack(mats: Iterable[Mat]) -> Mat:
    mats = list(mats)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionMismatchError("hstack needs equal row counts")
    # Over the lcm of canonical forms' denominators the result is canonical.
    den = lcm(*[m.den for m in mats])
    k = _joint_k(mats)
    widths = [m.cols for m in mats]
    blocks = [_rows_in(m, k, den // m.den) for m in mats]
    num = [_joined(list(zip(row, widths)), k) for row in zip(*blocks)]
    return Mat._form(num, den, sum(widths), k)


def vstack(mats: Iterable[Mat]) -> Mat:
    mats = list(mats)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionMismatchError("vstack needs equal column counts")
    den = lcm(*[m.den for m in mats])
    k = _joint_k(mats)
    return Mat._form([row for m in mats for row in _rows_in(m, k, den // m.den)], den, cols, k)
