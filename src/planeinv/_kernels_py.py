"""Pure-Python matrix kernels over the stored integer form of a matrix.

These routines are the arithmetic inner loops of the whole package: every
inverse, nullspace, solve and word-trace ultimately bottoms out in
``mat_mul`` and ``rref``, which :mod:`planeinv.linalg` calls, and the
Jacobian rank is certified first by ``rank_mod_p``.

A matrix reaches the kernels in the form :class:`planeinv.linalg.Mat`
stores: integer rows over one positive common denominator ``den``, with
``gcd(den, entries) == 1``.  A rational row holds ``cols`` integers; a row
of a jet matrix in ``k`` directions holds ``(k + 1) * cols``: the values,
then the derivatives along each direction in turn.  The kernels take and
return that form and build no ``Fraction`` and no ``Jet``.

* ``scaled_rows`` is the converter from entries (``int``, ``Fraction`` or
  :class:`planeinv.jet.Jet`) to the form; ``reduced`` divides a form by
  its one gcd, which is how every kernel makes its output canonical.
* ``mat_mul`` takes integer inner products of rows and columns over the
  product of the two denominators.  For jets, along direction t, entry
  (i, j) gains ``a_0 . b_t + a_t . b_0``.
* ``rref`` eliminates fraction-free (``row <- p * row - f * pivot_row`` in
  the jet ring truncated at eps^2, then divides the row by the gcd of its
  components; Bareiss 1968), with the same first-nonzero pivoting as a
  field loop.  Each integer row is a nonzero multiple of the row the field
  loop would hold, so the pivots are the same at every step.  The pivot
  rows are then divided by their pivots into integer rows over the lcm of
  the pivots (of their squares for jets: ``x / p = x (p_0 - p_t eps_t) /
  p_0^2``), which gives the (unique) reduced row echelon form.  The pivot
  is the first nonzero *value*, so a jet run takes the pivots of the plain
  run it shadows, but every row whose entry is a nonzero *jet* is cleared:
  an entry of value 0 with a nonzero derivative still carries a
  derivative of the result.
* ``rank`` runs the same elimination on the values, below each pivot only,
  and returns the number of pivots.

``rank_mod_p`` works over plain ``int`` modulo a prime.
"""

from itertools import chain
from math import gcd, lcm
from operator import mul

from .jet import Jet


def reduced(num, den):
    """The form ``num / den`` divided by ``gcd(den, entries)``: the canonical form of its value."""
    if den > 1:
        g = gcd(den, *chain.from_iterable(num))
        if g > 1:
            return [[x // g for x in row] for row in num], den // g
    return num, den


def scaled_rows(rows):
    """The form of the matrix whose rows of entries are the lists ``rows``: ``(num, den, k)``.

    ``k`` is None when every entry is an ``int`` or a ``Fraction``;
    otherwise it is the largest number of directions of a ``Jet`` entry,
    and an ``int`` or ``Fraction`` entry, like a jet with no ``nums``, has
    zero derivatives.  ``den`` is the lcm of the values' denominators and
    of the jets' ``den``, divided by the form's gcd.
    """
    entries = list(chain.from_iterable(rows))
    jets = [x for x in entries if type(x) is Jet]
    if not jets:
        den = lcm(*[x.denominator for x in entries])
        return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den, None
    k = max([len(x.nums) for x in jets])
    den = lcm(*[(x.value if type(x) is Jet else x).denominator for x in entries], *[x.den for x in jets])
    zero = (0,) * k
    num = []
    for row in rows:
        values = [x.value if type(x) is Jet else x for x in row]
        flat = [v.numerator * (den // v.denominator) for v in values]
        derivs = [[n * (den // x.den) for n in x.nums] if type(x) is Jet and x.nums else zero for x in row]
        for segment in zip(*derivs):
            flat += segment
        num.append(flat)
    return (*reduced(num, den), k)


def mat_mul(a, ad, b, bd, cols, k):
    """The form of ``(a / ad) @ (b / bd)``, with ``cols`` columns; the inner dimension is >= 1.

    One integer inner product per output component, over ``ad * bd``, then
    one gcd.  With ``k`` directions, column j of ``b`` has the values
    ``b_0`` and the derivatives ``b_t``, row i of ``a`` has ``a_0`` and
    ``a_t``, and the derivative of entry (i, j) along t is one inner product
    of ``a_0 ++ a_t`` with ``b_t ++ b_0``.
    """
    bcols = [list(col) for col in zip(*b)]
    if not (k and cols):
        num = [[sum(map(mul, arow, bcol)) for bcol in bcols] for arow in a]
        return reduced(num, ad * bd)
    n = len(b)
    b0s = bcols[:cols]
    rights = [[bcols[lo + j] + b0 for j, b0 in enumerate(b0s)] for lo in range(cols, (k + 1) * cols, cols)]
    num = []
    for row in a:
        a0 = row[:n]
        flat = [sum(map(mul, a0, b0)) for b0 in b0s]
        for lo, bts in zip(range(n, (k + 1) * n, n), rights):
            at = a0 + row[lo : lo + n]
            flat += [sum(map(mul, at, bt)) for bt in bts]
        num.append(flat)
    return reduced(num, ad * bd)


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


def rref(rows, cols, k, lo=0):
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
    return (*reduced(num, den), pivots)


def rank(rows, cols, k):
    """Rank of the form with integer ``rows``, which are left unchanged.

    The fraction-free elimination below each pivot.  A jet matrix has the
    rank of its values, since its pivots are those of its values.
    """
    if k:
        rows = [row[:cols] for row in rows]
    return len(_eliminate(rows, cols, None, full=False)[1])


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
