"""Exact linear algebra over the rationals (and over jets of rationals).

Everything downstream -- subspace normal forms, invariant letters, Jacobian
ranks -- is built from the handful of operations here.  There is no floating
point anywhere: scalars are ``fractions.Fraction`` (gcd-reduced arbitrary
precision rationals from the stdlib, exposed as :data:`Rat`) or
:class:`Jet` records.  A jet carries one value and a derivative vector,
one entry per direction, as integer numerators over one common
denominator, so a single pass differentiates along every direction.

The hot loops (``mat_mul``, ``rref_in_place``, and the rank-only
eliminations ``rank`` and ``rank_mod_p``) live in
:mod:`planeinv._kernels_py`.  Loop overhead is not the cost over
``Fraction``; the rational arithmetic and the growth of entry bit-size are.
So the kernels take a matrix to integers once per call: one scaler turns
each row (or product column) into a flat list of integers over the lcm of
its denominators, the values and, for a matrix of jets (:mod:`planeinv.jet`,
the scalars of the reduction that builds the letters of the Jacobian
pass), the derivatives along each direction after them.  One
fraction-free elimination loop runs over both kinds of rows, and the
kernels build one ``Fraction`` or ``Jet`` per output entry; an ``int``
matrix therefore inverts or reduces to ``Fraction`` entries, never to
floats.  Elimination pivots on values but clears every entry that is a
nonzero jet, so the derivatives are exact.  Word traces
(:mod:`planeinv.words`) scale each letter with the same scaler, so their
``mat_mul`` calls, and their derivatives, run over ``int`` and return
``int``.  Every jet product and quotient happens in the kernels; a
``Mat`` applies to single jet entries only ``+`` and ``-`` of two jets,
negation and truthiness (``is_zero``), so ``+``, ``-`` and ``trace`` need
all-jet operands, while the kernels also take ``Fraction`` and ``Jet``
entries mixed in one matrix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from ._kernels_py import mat_mul as _mat_mul, rank as _rank, rank_mod_p
from ._kernels_py import rref_in_place as _rref_in_place
from .errors import DimensionMismatchError, RankDeficientError, SingularMatrixError
from .jet import Jet

Rat = Fraction
"""Exact rational scalar type: arbitrary precision, always gcd-reduced."""

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_scalar(x):
    """Coerce ``x`` to a package scalar: ``int`` and ``str`` become ``Rat``.

    A ``Fraction`` or a ``Jet`` is kept as it is.
    """
    if isinstance(x, (Fraction, Jet)):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact scalar")


def zero_like(x):
    return Jet(_ZERO) if isinstance(x, Jet) else _ZERO


def one_like(x):
    return Jet(_ONE) if isinstance(x, Jet) else _ONE


class Mat:
    """Dense rows*cols matrix over exact scalars.

    Immutable by convention: operations return new matrices and never alias
    the receiver's rows.  A matrix may have zero columns (kernels of
    injective maps) but never zero rows.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        rows = [[as_scalar(x) for x in row] for row in data]
        if not rows:
            raise DimensionMismatchError("matrix needs at least one row")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise DimensionMismatchError("ragged rows")
        self.rows = len(rows)
        self.cols = cols
        self.data = rows

    @classmethod
    def _raw(cls, data: list) -> "Mat":
        """Wrap already-validated list-of-lists without copying or coercion."""
        m = object.__new__(cls)
        m.rows = len(data)
        m.cols = len(data[0]) if data else 0
        m.data = data
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._raw([[_ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int, like=None) -> "Mat":
        z = zero_like(like) if like is not None else _ZERO
        o = one_like(like) if like is not None else _ONE
        return cls._raw([[o if i == j else z for j in range(n)] for i in range(n)])

    def copy_data(self) -> list:
        return [row[:] for row in self.data]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Mat[{self.rows}x{self.cols}: {body}]"

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows or self.cols == 0:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return Mat._raw(_mat_mul(self.data, other.data))

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._raw(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        )

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._raw(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        )

    def __neg__(self) -> "Mat":
        return Mat._raw([[-a for a in row] for row in self.data])

    def _same_shape(self, other: "Mat"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def transpose(self) -> "Mat":
        if self.cols == 0:
            raise DimensionMismatchError("cannot transpose a matrix with no columns")
        return Mat._raw([list(col) for col in zip(*self.data)])

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Mat":
        """Submatrix of rows ``r0:r1`` and columns ``c0:c1`` (half-open)."""
        if not (0 <= r0 < r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise IndexError(
                f"block [{r0}:{r1}, {c0}:{c1}] out of range for {self.rows}x{self.cols}"
            )
        return Mat._raw([row[c0:c1] for row in self.data[r0:r1]])

    def trace(self):
        if self.rows != self.cols:
            raise DimensionMismatchError("trace needs a square matrix")
        acc = self.data[0][0]
        for i in range(1, self.rows):
            acc = acc + self.data[i][i]
        return acc

    def is_zero(self) -> bool:
        return not any(any(x for x in row) for row in self.data)

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        if self.cols == 0:
            return self, ()
        work = self.copy_data()
        pivots = _rref_in_place(work)
        return Mat._raw(work), pivots

    def rank(self) -> int:
        return _rank(self.data)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise DimensionMismatchError("only square matrices can be inverted")
        n = self.rows
        like = self.data[0][0]
        z, o = zero_like(like), one_like(like)
        work = [
            row[:] + [o if i == j else z for j in range(n)]
            for i, row in enumerate(self.data)
        ]
        pivots = _rref_in_place(work)
        if len(pivots) < n or pivots[n - 1] != n - 1:
            raise SingularMatrixError(f"matrix of size {n} is singular")
        return Mat._raw([row[n:] for row in work])

    def solve(self, rhs: "Mat") -> "Mat":
        """Unique solution X of ``self @ X == rhs``.

        Raises :class:`RankDeficientError` when the system is inconsistent
        or has more than one solution.
        """
        if rhs.rows != self.rows:
            raise DimensionMismatchError("right-hand side has wrong number of rows")
        n, m = self.rows, self.cols
        work = [row[:] + rrow[:] for row, rrow in zip(self.data, rhs.data)]
        pivots = _rref_in_place(work)
        lead = [p for p in pivots if p < m]
        if any(p >= m for p in pivots):
            raise RankDeficientError("inconsistent linear system")
        if len(lead) < m:
            raise RankDeficientError("underdetermined linear system")
        # The pivots are 0 .. m-1, in order: row r of the solution is row r.
        return Mat._raw([row[m:] for row in work[:m]])

    def nullspace_basis(self) -> "Mat":
        """Canonical kernel basis, one column per free variable.

        Basis vector for free column ``f`` has entry 1 at ``f``, 0 at every
        other free column, and the negated reduced-echelon entries at the
        pivot rows.  This normal form depends only on the column span
        relations, which is what makes downstream letters well defined.
        """
        m = self.cols
        red, pivots = self.rref()
        free = [j for j in range(m) if j not in pivots]
        like = self.data[0][0]
        z, o = zero_like(like), one_like(like)
        cols = []
        for f in free:
            v = [z] * m
            v[f] = o
            for r, p in enumerate(pivots):
                v[p] = -red.data[r][f]
            cols.append(v)
        data = [[cols[c][r] for c in range(len(free))] for r in range(m)]
        if not free:
            data = [[] for _ in range(m)]
        return Mat._raw(data)


def hstack(mats: Iterable[Mat]) -> Mat:
    mats = list(mats)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionMismatchError("hstack needs equal row counts")
    return Mat._raw(
        [sum((m.data[i] for m in mats), []) for i in range(rows)]
    )


def vstack(mats: Iterable[Mat]) -> Mat:
    mats = list(mats)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionMismatchError("vstack needs equal column counts")
    return Mat._raw([row[:] for m in mats for row in m.data])
