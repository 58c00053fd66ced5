"""Exact linear algebra over the rationals and over jets of rationals.

Everything downstream -- subspace normal forms, invariant letters, Jacobian
ranks -- is built from the handful of operations here.  There is no
floating point anywhere.

A :class:`Mat` stores one canonical integer form: integer rows ``num`` over
one positive common denominator ``den``, with ``gcd(den, entries) == 1``,
so equal matrices have equal forms.  ``k`` is None for a rational matrix.
A matrix of jets in ``k`` directions (dual numbers with one value and a
derivative along each direction: the scalars of the reduction that builds
the letters of the Jacobian pass) keeps the same form, each row flat: the
``cols`` values, then the ``cols`` derivatives along each direction in
turn.  ``Mat(entries)`` reads ``int`` and ``Fraction`` entries; a jet
matrix is built in its form.

Over ``Fraction`` the cost is the rational arithmetic and the growth of
entry bit-size, not loop overhead.  So the kernels (:func:`_mat_mul`,
:func:`_rref`, and the rank-only eliminations :func:`_rank` and
:func:`_rank_mod_p`) take and return the form, fraction-free, with one gcd
per output matrix (:func:`_reduced`), and a chain of products, inverses
and kernels stays over the integers from end to end.  Elimination
(:func:`_eliminate`; Bareiss 1968) keeps each integer row a nonzero
multiple of the row a field loop with the same first-nonzero pivoting would
hold, so the pivots are the same at every step.  The pivot is the first
nonzero *value*, so a jet run takes the pivots of the plain run it
shadows, but every row whose entry is a nonzero *jet* is cleared: an entry
of value 0 with a nonzero derivative still carries a derivative of the
result.

Over jets, elimination runs only in :meth:`Mat.rref`,
:meth:`Mat.nullspace_basis` and :meth:`Mat.solve`.  A product and an
inverse follow forward mode's identities d(AB) = dA B + A dB and
d(A^-1) = -A^-1 dA A^-1 (Griewank-Walther, *Evaluating Derivatives*): the
inverse eliminates the values alone, and the derivatives are plain
integer products, with no zero derivatives added to a rational operand.

``-``, blocks, stacks, transposes, ``is_zero``, ``==`` and ``hash`` act
on the form too; in ``-``, stacks and solves a rational operand meets a
jet operand as a jet with zero derivatives.  ``Fraction`` entries, and
:class:`Jet` records for a jet matrix, are built only when
:attr:`Mat.data` is first read (``repr`` and tests); the word traces
(:mod:`planeinv.words`) read each letter's form as an integer matrix and
its denominator, and the file writers (:mod:`planeinv.fileio`) format
each entry from the form's numerator and denominator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, RankDeficientError, SingularMatrixError


class Jet:
    """Dual number ``value + sum_i deriv[i] * eps_i`` with ``eps_i * eps_j == 0``.

    The entry type :attr:`Mat.data` shows for a jet matrix.  Carrying jets
    through an exact computation yields the exact derivative of every
    output along each of several input directions at once (vector forward
    mode; Griewank-Walther, *Evaluating Derivatives*).  A jet is a record of
    one value and a derivative vector: integer numerators ``nums`` over one
    common positive denominator ``den``, reduced by one gcd.  An empty
    ``nums`` is the zero derivative.

    A jet has no arithmetic: sums, products, quotients and zero tests
    happen on whole matrices in their integer form, which pivot on values,
    so a differentiated run takes the same pivots as the plain run it
    shadows.  Jets define no equality and compare by identity; to compare
    two jets, compare their values and derivative vectors.
    """

    __slots__ = ("value", "nums", "den")

    def __init__(self, value, nums: tuple = (), den: int = 1):
        self.value = value
        self.nums = nums
        self.den = den

    def __repr__(self):
        return f"Jet({self.value!r}, {self.nums!r}, {self.den!r})"


def _jet(value: int, nums: list, den: int) -> Jet:
    """The entry ``value / den`` with the derivatives ``nums / den``, as a reduced record."""
    g = gcd(den, *nums)
    if g == den:
        return Jet(Fraction(value, den), tuple([x // g for x in nums]) if any(nums) else ())
    return Jet(Fraction(value, den), tuple([x // g for x in nums]), den // g)


def _reduced(num, den):
    """The form ``num / den`` divided by ``gcd(den, entries)``: the canonical form of its value."""
    if den > 1:
        g = gcd(den, *chain.from_iterable(num))
        if g > 1:
            return [[x // g for x in row] for row in num], den // g
    return num, den


def _products(rows, cols) -> list:
    """The integer inner products of each of ``rows`` with each of ``cols``, one list per row."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def _mat_mul(a, ad, ka, b, bd, kb, cols):
    """The form of ``(a / ad) @ (b / bd)``, with ``cols`` columns; the inner dimension is >= 1.

    Each operand keeps its own directions ``ka`` and ``kb`` (None for a
    rational operand), and the product has the most either has: forward
    mode's d(AB) = dA B + A dB, with a missing direction's derivative 0.
    The products are plain integer inner products over ``ad * bd``, then
    one gcd.  A rational ``a`` times the flat rows of ``b`` is already the
    flat product; each of the ``ka + 1`` segments of a jet ``a`` times a
    rational ``b`` gives a segment; and for two jets, ``a_0`` times the
    flat rows of ``b`` gives ``a_0 b_0`` and every ``a_0 b_t``, to which
    segment t adds ``a_t b_0``.  A flat row times a column of ``b``'s
    values reads only its first ``n`` entries, its values.
    """
    n = len(b)
    bcols = [list(col) for col in zip(*b)]
    if not ka:
        return _reduced(_products(a, bcols), ad * bd)
    if not kb:
        segs = range(0, (ka + 1) * n, n)
        num = [
            [sum(map(mul, at, col)) for at in [row[lo : lo + n] for lo in segs] for col in bcols]
            for row in a
        ]
        return _reduced(num, ad * bd)
    b0s = bcols[:cols]
    both = min(ka, kb) * cols
    segs = range(n, (ka + 1) * n, n)
    num = []
    for row in a:
        flat = [sum(map(mul, row, col)) for col in bcols]
        dab = [sum(map(mul, at, b0)) for at in [row[lo : lo + n] for lo in segs] for b0 in b0s]
        flat[cols : cols + both] = map(add, flat[cols : cols + both], dab)
        flat += dab[both:]
        num.append(flat)
    return _reduced(num, ad * bd)


def _eliminate(rows, cols, k, full):
    """Fraction-free elimination of the integer ``rows`` of a form: the new rows and the pivots.

    Each row is divided by the gcd of all its components first and after
    every update ``row <- p * row - f * pivot_row``.  For jets that is the
    product in the jet ring truncated at eps^2: the flat update gives
    ``p_0 x - f_0 y`` in every segment, and segment t gains ``p_t x_0 -
    f_t y_0``.  The pivot is the first nonzero value, and every row with a
    nonzero component in the pivot column is cleared.  With ``full``
    every other row is cleared in each pivot column (Gauss-Jordan),
    otherwise only the rows below the pivot row; the pivots are the same
    either way.  ``rows`` is left unchanged.
    """
    n = len(rows)
    work = []
    for row in rows:
        g = gcd(*row)
        work.append([x // g for x in row] if g > 1 else row)
    # Where each derivative segment of a flat row starts.
    segs = range(cols, (k + 1) * cols, cols) if k and cols else ()
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr == n:
            break
        hit = -1
        for i in range(pr, n):
            if work[i][pc]:
                hit = i
                break
        if hit < 0:
            continue
        if hit != pr:
            work[pr], work[hit] = work[hit], work[pr]
        prow = work[pr]
        pv = prow[pc]
        pts = prow[pc + cols :: cols]
        for i in range(0 if full else pr + 1, n):
            if i == pr:
                continue
            row = work[i]
            f = row[pc]
            if f or segs and any(row[pc + cols :: cols]):
                new = [pv * x - f * y for x, y in zip(row, prow)]
                if segs:  # a rational row skips the slicing below
                    for lo, pt, ft in zip(segs, pts, row[pc + cols :: cols]):
                        hi = lo + cols
                        new[lo:hi] = [z + pt * x - ft * y for z, x, y in zip(new[lo:hi], row, prow)]
                g = gcd(*new)
                if g > 1:
                    new = [x // g for x in new]
                work[i] = new
        pivots.append(pc)
        pr += 1
    return work, tuple(pivots)


def _rref(rows, cols, k, lo=0):
    """Reduced row echelon form of the form with integer ``rows``: ``(num, den, pivots)``.

    Gauss-Jordan with first-nonzero pivoting (no magnitude comparisons:
    entries are exact, any nonzero pivot is as good as another).  The form
    returned holds columns ``lo`` onwards of every segment, so an inverse
    or a solve keeps only its right-hand block; the rows below the rank are
    zero.  Rational pivot rows are ``row * (L / p)`` over the lcm L of the
    pivots p.  A jet pivot row, over the lcm L of the squared pivot values,
    has the values ``x p_0 (L / p_0^2)`` and along direction t the
    derivatives ``(p_0 d_t - p_t x) (L / p_0^2)``.
    """
    work, pivots = _eliminate(rows, cols, k, full=True)
    num = []
    if not k:
        den = lcm(*[work[i][pc] for i, pc in enumerate(pivots)])
        for i, pc in enumerate(pivots):
            f = den // work[i][pc]
            num.append([x * f for x in work[i][lo:]])
    else:
        den = lcm(*[work[i][pc] ** 2 for i, pc in enumerate(pivots)])
        for i, pc in enumerate(pivots):
            row = work[i]
            pv = row[pc]
            f = den // (pv * pv)
            fv = f * pv
            vals = row[lo:cols]
            flat = [x * fv for x in vals]
            for start, pt in zip(range(cols, (k + 1) * cols, cols), row[pc + cols :: cols]):
                ft = f * pt
                flat += [fv * d - ft * x for d, x in zip(row[start + lo : start + cols], vals)]
            num.append(flat)
    width = (cols - lo) * (1 + (k or 0))
    num += [[0] * width for _ in range(len(rows) - len(pivots))]
    return (*_reduced(num, den), pivots)


def _rank(rows, cols, k):
    """Rank of the form with integer ``rows``, which are left unchanged.

    The fraction-free elimination below each pivot.  A jet matrix has the
    rank of its values, since its pivots are those of its values.  A matrix
    with more rows than columns is transposed first, since rank A = rank A^T
    and the elimination then runs along the shorter side.
    """
    if k:
        rows = [row[:cols] for row in rows]
    if len(rows) > cols:
        rows, cols = list(zip(*rows)), len(rows)
    return len(_eliminate(rows, cols, None, full=False)[1])


def _rank_mod_p(m, p):
    """Rank of the integer matrix ``m`` (list of lists) over the field Z/p.

    ``p`` must be prime.  Only the rank is kept: each nonzero row in turn
    becomes a pivot row and its pivot column is cleared from the rows
    still waiting, all over plain ``int``.  ``m`` is left unchanged.
    """
    rows = [[x % p for x in row] for row in m]
    rank = 0
    while rows:
        prow = rows.pop()
        pc = next((j for j, x in enumerate(prow) if x), -1)
        if pc < 0:
            continue
        rank += 1
        inv = pow(prow[pc], -1, p)
        for i, row in enumerate(rows):
            f = row[pc] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(row, prow)]
    return rank


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

    The form (``num``, ``den``, ``k``) is the one the module docstring
    describes.  Immutable by convention: operations return new matrices and
    never change the receiver's rows.  A matrix may have zero columns
    (kernels of injective maps) but never zero rows.
    """

    __slots__ = ("rows", "cols", "k", "den", "num", "_data")

    def __init__(self, data: Sequence[Sequence]):
        """The matrix of rows of ``int`` or ``Fraction`` entries; any other entry raises ``TypeError``."""
        rows = [list(row) for row in data]
        if not rows:
            raise DimensionMismatchError("matrix needs at least one row")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise DimensionMismatchError("ragged rows")
        entries = list(chain.from_iterable(rows))
        for x in entries:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"cannot use {type(x).__name__} as an exact scalar")
        # Over the lcm of the reduced denominators the form is canonical.
        den = lcm(*[x.denominator for x in entries])
        self.rows = len(rows)
        self.cols = cols
        self.k = None
        self.den = den
        self.num = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
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
    def _ratios(cls, parts: list, cols: int) -> "Mat":
        """The matrix of rows of ``(p, q)`` pairs, each the entry ``p / q`` with ``q > 0``."""
        den = lcm(*[q for row in parts for _, q in row])
        return cls._form(*_reduced([[p * (den // q) for p, q in row] for row in parts], den), cols)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._form([[0] * cols for _ in range(rows)], 1, cols)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._form([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @property
    def data(self) -> list:
        """The entries as rows of ``Fraction``, or of :class:`Jet` records for a jet matrix, built on first read."""
        if self._data is None:
            cols, den = self.cols, self.den
            if self.k is None:
                self._data = [[Fraction(x, den) for x in row] for row in self.num]
            else:
                starts = _starts(self)[1:]
                self._data = [
                    [_jet(row[j], [row[lo + j] for lo in starts], den) for j in range(cols)]
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
        ka, kb = self.k, other.k
        k = kb if ka is None else ka if kb is None else max(ka, kb)
        num, den = _mat_mul(self.num, self.den, ka, other.num, other.den, kb, other.cols)
        return Mat._form(num, den, other.cols, k)

    def __sub__(self, other: "Mat") -> "Mat":
        """``self - other`` over the lcm of the denominators, reduced."""
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        k = self.k if self.k == other.k else _joint_k((self, other))
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        num = [
            [fa * x - fb * y for x, y in zip(ra, rb)]
            for ra, rb in zip(_rows_in(self, k), _rows_in(other, k))
        ]
        return Mat._form(*_reduced(num, self.den * fa), self.cols, k)

    def transpose(self) -> "Mat":
        if self.cols == 0:
            raise DimensionMismatchError("cannot transpose a matrix with no columns")
        if not self.k:
            return Mat._form([list(col) for col in zip(*self.num)], self.den, self.rows, self.k)
        cols = self.cols
        parts = [zip(*[row[lo : lo + cols] for row in self.num]) for lo in _starts(self)]
        return Mat._form([list(chain(*segs)) for segs in zip(*parts)], self.den, self.rows, self.k)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Mat":
        """Submatrix of rows ``r0:r1`` and columns ``c0:c1`` (half-open).

        A jet block whose derivatives are all 0 is returned rational, so the
        kernels it meets run over the rationals.
        """
        if not (0 <= r0 < r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise IndexError(
                f"block [{r0}:{r1}, {c0}:{c1}] out of range for {self.rows}x{self.cols}"
            )
        rows, starts = self.num[r0:r1], _starts(self)
        if self.k and any(any(row[lo + c0 : lo + c1]) for row in rows for lo in starts[1:]):
            num, k = [[x for lo in starts for x in row[lo + c0 : lo + c1]] for row in rows], self.k
        else:
            num, k = [row[c0:c1] for row in rows], None
        return Mat._form(*_reduced(num, self.den), c1 - c0, k)

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
        """The inverse V of a square matrix A; :class:`SingularMatrixError` when A's values are singular.

        V's values A_0^-1 come from one rational elimination of
        ``[A_0 | I]``; over jets, each derivative is dV_t = -V A_t V, two
        plain integer products, and the whole form is reduced once.  No jet
        elimination runs.
        """
        if self.rows != self.cols:
            raise DimensionMismatchError("only square matrices can be inverted")
        n, k, den = self.rows, self.k, self.den
        # [A_0 | I] as the integer rows [num_0 | den * I]: V = A_0^-1 is v / vd.
        work = [row[:n] + [den * (i == j) for j in range(n)] for i, row in enumerate(self.num)]
        v, vd, pivots = _rref(work, 2 * n, None, n)
        if len(pivots) < n or pivots[n - 1] != n - 1:
            raise SingularMatrixError(f"matrix of size {n} is singular")
        if not k:
            return Mat._form(v, vd, n, k)
        # dV_t = -V A_t V over vd^2 den: -v times the derivative columns of
        # the integer rows, then the stacked blocks -v A_t times v; row
        # t n + i of the stack is row i of block t.
        vat = _products([[-x for x in row] for row in v], list(zip(*[row[n:] for row in self.num])))
        blocks = _products([row[lo : lo + n] for lo in range(0, k * n, n) for row in vat], list(zip(*v)))
        scale = vd * den
        num = [[x * scale for x in row] + [x for dv in blocks[i::n] for x in dv] for i, row in enumerate(v)]
        return Mat._form(*_reduced(num, vd * vd * den), n, k)

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
