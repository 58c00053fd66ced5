"""Pure-Python matrix kernels.

These routines are the arithmetic inner loops of the whole package: every
inverse, nullspace, solve and word-trace ultimately bottoms out in
``mat_mul`` and ``rref_in_place``, which :mod:`planeinv.linalg` calls, and
the Jacobian rank is certified first by ``rank_mod_p``.

``mat_mul`` and ``rref_in_place`` work on plain list-of-lists.  Over the
rationals (entries ``int`` or ``fractions.Fraction``) neither builds a
``Fraction`` per scalar step:

* ``mat_mul`` scales each row of ``a`` and each column of ``b`` once by the
  lcm of its denominators, takes integer dot products, and builds one
  ``Fraction`` per output entry.  A product of ``int`` matrices (the word
  stage) skips the scaling and returns ``int``.
* ``rref_in_place`` scales each row to integers and eliminates fraction-free
  (``row <- p * row - f * pivot_row``, then divides the row by the gcd of
  its entries), with the same first-nonzero pivoting as the field loop.
  Each integer row is a nonzero multiple of the row the field loop would
  hold, so the zero pattern, hence the pivots, is the same at every step;
  each pivot row is divided by its pivot at the end, which gives the
  (unique) reduced row echelon form, always as ``Fraction`` entries.
* ``rank`` runs the same elimination below each pivot only and returns
  the number of pivots; it builds no ``Fraction`` at all.

Any other entry type -- :class:`planeinv.linalg.Jet`, whose derivative
vectors ride along at no cost to the pivoting -- takes the plain field
loop, where pivot selection uses the truthiness of entries: a ``Jet``
pivots on its value part alone, which is exactly what keeps
differentiation consistent with the undifferentiated computation.
``rank_mod_p`` works over plain ``int`` modulo a prime.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

_RATIONAL = {int, Fraction}
_ZERO = Fraction(0)


def _scaled_rows(rows):
    """Each row times the lcm of its entries' denominators, and that lcm."""
    out = []
    dens = []
    for row in rows:
        qs = [x.denominator for x in row]
        den = lcm(*qs)
        if den == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (den // q) for x, q in zip(row, qs)])
        dens.append(den)
    return out, dens


def mat_mul(a, b):
    """Product of two list-of-list matrices; inner dimension must be >= 1."""
    kinds = set(map(type, chain(*a, *b)))
    if Fraction in kinds and kinds <= _RATIONAL:
        arows, adens = _scaled_rows(a)
        bcols, bdens = _scaled_rows(zip(*b))
        return [
            [Fraction(sum(map(mul, arow, bcol)), aden * bden) for bcol, bden in zip(bcols, bdens)]
            for arow, aden in zip(arows, adens)
        ]
    n = len(a)
    inner = len(b)
    p = len(b[0])
    out = []
    for i in range(n):
        arow = a[i]
        orow = []
        for j in range(p):
            acc = arow[0] * b[0][j]
            for k in range(1, inner):
                acc = acc + arow[k] * b[k][j]
            orow.append(acc)
        out.append(orow)
    return out


def rref_in_place(m):
    """Reduce ``m`` to reduced row echelon form in place.

    Gauss-Jordan with first-nonzero pivoting (no magnitude comparisons:
    entries are exact, any nonzero pivot is as good as another).  Returns
    the tuple of pivot column indices.  Rational input comes back as
    ``Fraction`` entries.
    """
    if set(map(type, chain(*m))) <= _RATIONAL:
        return _rref_rational(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr == rows:
            break
        hit = -1
        for i in range(pr, rows):
            if m[i][pc]:
                hit = i
                break
        if hit < 0:
            continue
        if hit != pr:
            m[pr], m[hit] = m[hit], m[pr]
        prow = m[pr]
        pv = prow[pc]
        for j in range(pc, cols):
            prow[j] = prow[j] / pv
        for i in range(rows):
            if i == pr:
                continue
            f = m[i][pc]
            if f:
                row = m[i]
                for j in range(pc, cols):
                    row[j] = row[j] - f * prow[j]
        pivots.append(pc)
        pr += 1
    return tuple(pivots)


def _eliminate_rational(m, reduced):
    """Fraction-free elimination of ``int``/``Fraction`` rows: integer rows and pivots.

    Each row is scaled to integers once and divided by the gcd of its
    entries after every update.  With ``reduced`` every other row is
    cleared in each pivot column (Gauss-Jordan), otherwise only the rows
    below the pivot row; the pivots are the same either way.  ``m`` is
    left unchanged.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    work = []
    for row in _scaled_rows(m)[0]:
        g = gcd(*row)
        work.append([x // g for x in row] if g > 1 else row)
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr == rows:
            break
        hit = -1
        for i in range(pr, rows):
            if work[i][pc]:
                hit = i
                break
        if hit < 0:
            continue
        if hit != pr:
            work[pr], work[hit] = work[hit], work[pr]
        prow = work[pr]
        pv = prow[pc]
        for i in range(0 if reduced else pr + 1, rows):
            if i == pr:
                continue
            row = work[i]
            f = row[pc]
            if f:
                row = [pv * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                work[i] = row
        pivots.append(pc)
        pr += 1
    return work, tuple(pivots)


def _rref_rational(m):
    """``rref_in_place`` for ``int``/``Fraction`` entries, eliminating over ``int``."""
    work, pivots = _eliminate_rational(m, reduced=True)
    for i, pc in enumerate(pivots):
        row = work[i]
        pv = row[pc]
        m[i] = [Fraction(x, pv) if x else _ZERO for x in row]
    cols = len(m[0]) if m else 0
    for i in range(len(pivots), len(m)):
        m[i] = [_ZERO] * cols
    return pivots


def rank(m):
    """Rank of the list-of-lists matrix ``m``, which is left unchanged.

    Rational input takes the fraction-free elimination below each pivot
    and builds no ``Fraction``; anything else reduces a copy in the field
    loop of :func:`rref_in_place`.
    """
    if set(map(type, chain(*m))) <= _RATIONAL:
        return len(_eliminate_rational(m, reduced=False)[1])
    return len(rref_in_place([row[:] for row in m]))


def rank_mod_p(m, p):
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
