"""Pure-Python matrix kernels.

These routines are the arithmetic inner loops of the whole package: every
inverse, nullspace, solve and word-trace ultimately bottoms out in
``mat_mul`` and ``rref_in_place``, which :mod:`planeinv.linalg` calls, and
the Jacobian rank is certified first by ``rank_mod_p``.

``mat_mul`` and ``rref_in_place`` work on plain list-of-lists and never
build a ``Fraction`` or a ``Jet`` per scalar step.  Entries are ``int`` or
``fractions.Fraction`` (a rational matrix), or some of them are
:class:`planeinv.jet.Jet` records in ``k`` directions (a jet matrix, where
a rational entry is a constant); both take one route.

* ``scaled_rows`` scales each row, or each column of a product's right
  factor, once by the lcm of its denominators to one flat ``int`` list:
  the values, then, for a jet matrix, the derivatives along each direction.
  The word stage (:mod:`planeinv.words`) scales its letters with it too.
* ``mat_mul`` takes integer inner products of scaled rows and columns and
  builds one ``Fraction`` or ``Jet`` per output entry.  A product of
  ``int`` matrices (the word stage) skips the scaling and returns ``int``.
* ``rref_in_place`` eliminates fraction-free (``row <- p * row - f *
  pivot_row`` in the jet ring truncated at eps^2, then divides the row by
  the gcd of its components; Bareiss 1968), with the same first-nonzero
  pivoting as a field loop.  Each integer row is a nonzero multiple of the
  row the field loop would hold, so the pivots are the same at every step;
  each pivot row is divided by its pivot at the end, which gives the
  (unique) reduced row echelon form, as ``Fraction`` entries for rational
  input and as ``Jet`` entries for jet input.  The pivot is the first
  nonzero *value*, so a jet run takes the pivots of the plain run it
  shadows, but every row whose entry is a nonzero *jet* is cleared: an
  entry of value 0 with a nonzero derivative still carries a derivative of
  the result.
* ``rank`` runs the same elimination on the values, below each pivot only,
  and returns the number of pivots; it builds no ``Fraction`` at all.

``rank_mod_p`` works over plain ``int`` modulo a prime.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .jet import Jet

_ZERO = Fraction(0)
_ONE = Fraction(1)


def scaled_rows(rows, k=None):
    """Each row times the lcm of its entries' denominators, as one flat ``int`` list, and that lcm.

    Each row is a sequence, read more than once.  With ``k`` None its
    entries are ``int`` or ``Fraction``, and a row of ``cols`` entries gives
    ``cols`` integers.  Otherwise the row belongs to a jet matrix with ``k``
    directions and gives ``(k + 1) * cols`` integers: the values, then the
    derivatives along each direction in turn.  The lcm then covers the
    derivative denominators too, and an ``int`` or ``Fraction`` entry, like
    a jet with no ``nums``, has zero derivatives.
    """
    out = []
    dens = []
    if k is None:
        for row in rows:
            qs = [x.denominator for x in row]
            den = lcm(*qs)
            if den == 1:
                out.append([x.numerator for x in row])
            else:
                out.append([x.numerator * (den // q) for x, q in zip(row, qs)])
            dens.append(den)
        return out, dens
    zero = (0,) * k
    for row in rows:
        try:
            qs = [x.value.denominator for x in row]
        except AttributeError:  # an ``int`` or ``Fraction`` constant: read the row as jets
            row = [x if type(x) is Jet else Jet(x) for x in row]
            qs = [x.value.denominator for x in row]
        ds = [x.den for x in row]
        den = lcm(*qs, *ds)
        if den == 1:
            flat = [x.value.numerator for x in row]
            derivs = [x.nums or zero for x in row]
        else:
            flat = [x.value.numerator * (den // q) for x, q in zip(row, qs)]
            derivs = [[n * (den // d) for n in x.nums] if x.nums else zero for x, d in zip(row, ds)]
        for segment in zip(*derivs):
            flat += segment
        out.append(flat)
        dens.append(den)
    return out, dens


def _directions(m):
    """The number of directions of the jet entries of the list-of-lists ``m``."""
    return max([len(x.nums) for x in chain(*m) if type(x) is Jet])


def _jet(value, nums, den):
    """``Jet(value, nums / den)`` for a tuple ``nums``, reduced by one gcd."""
    g = gcd(den, *nums)
    if g == 1:
        return Jet(value, nums, den)
    if g == den:
        return Jet(value, tuple([x // g for x in nums]) if any(nums) else ())
    return Jet(value, tuple([x // g for x in nums]), den // g)


def mat_mul(a, b):
    """Product of two list-of-list matrices; inner dimension must be >= 1.

    Row i of ``a`` scales to ``(a_0, a_1 .. a_k) / D_i`` and column j of
    ``b`` to ``(b_0, b_1 .. b_k) / E_j`` (:func:`scaled_rows`), so entry
    (i, j) has the value ``a_0 . b_0 / (D_i E_j)`` and, along direction t,
    the derivative ``(a_0 . b_t + a_t . b_0) / (D_i E_j)``: one inner
    product of ``a_0 ++ a_t`` with ``b_t ++ b_0``.  A product of ``int``
    matrices (the word stage) returns ``int`` from the plain triple loop,
    which measured faster there than ``sum(map(mul, ...))``.
    """
    kinds = set(map(type, chain(*a, *b)))
    if Jet in kinds:
        k = _directions(chain(a, b))
    elif Fraction in kinds:
        k = None
    else:
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
    arows, adens = scaled_rows(a, k)
    bcols, bdens = scaled_rows(zip(*b), k)
    if k is None:
        return [
            [Fraction(sum(map(mul, arow, bcol)), aden * bden) for bcol, bden in zip(bcols, bdens)]
            for arow, aden in zip(arows, adens)
        ]
    n = len(b)
    segs = range(n, (k + 1) * n, n)
    rights = [(b0, [col[lo : lo + n] + b0 for lo in segs]) for col in bcols for b0 in [col[:n]]]
    out = []
    for row, aden in zip(arows, adens):
        a0 = row[:n]
        ats = [a0 + row[lo : lo + n] for lo in segs]
        orow = []
        for (b0, bts), bden in zip(rights, bdens):
            den = aden * bden
            nums = tuple([sum(map(mul, at, bt)) for at, bt in zip(ats, bts)])
            orow.append(_jet(Fraction(sum(map(mul, a0, b0)), den), nums, den))
        out.append(orow)
    return out


def _eliminate(m, k, reduced):
    """Fraction-free elimination of the rows of ``m`` (:func:`scaled_rows` with ``k``): flat rows and pivots.

    Each row is scaled to integers once and divided by the gcd of all its
    components after every update ``row <- p * row - f * pivot_row``.  For
    jets that is the product in the jet ring truncated at eps^2: the flat
    update gives ``p_0 x - f_0 y`` in every segment, and segment t gains
    ``p_t x_0 - f_t y_0``.  The pivot is the first nonzero value, and every
    row with a nonzero component in the pivot column is cleared.  With
    ``reduced`` every other row is cleared in each pivot column
    (Gauss-Jordan), otherwise only the rows below the pivot row; the pivots
    are the same either way.  ``m`` is left unchanged.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    work = []
    for row in scaled_rows(m, k)[0]:
        g = gcd(*row)
        work.append([x // g for x in row] if g > 1 else row)
    # Where each derivative segment of a flat row starts.
    segs = range(cols, (k + 1) * cols, cols) if k else ()
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
        pts = prow[pc + cols :: cols]
        for i in range(0 if reduced else pr + 1, rows):
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


def rref_in_place(m):
    """Reduce ``m`` to reduced row echelon form in place.

    Gauss-Jordan with first-nonzero pivoting (no magnitude comparisons:
    entries are exact, any nonzero pivot is as good as another).  Returns
    the tuple of pivot column indices.  Rational input comes back as
    ``Fraction`` entries, jet input as ``Jet`` entries: each pivot row is
    divided by its pivot, ``x / p = x (p_0 - p_t eps_t) / p_0^2`` for jets,
    and the rows below the rank become zeros.
    """
    k = _directions(m) if Jet in set(map(type, chain(*m))) else None
    work, pivots = _eliminate(m, k, reduced=True)
    cols = len(m[0]) if m else 0
    zero = _ZERO if k is None else Jet(_ZERO)
    for i in range(len(pivots), len(m)):
        m[i] = [zero] * cols
    if k is None:
        for i, pc in enumerate(pivots):
            row = work[i]
            pv = row[pc]
            m[i] = [Fraction(x, pv) if x else _ZERO for x in row]
        return pivots
    # Every pivot column is cleared in all components but at its pivot, so
    # only the free columns need a division.
    one = Jet(_ONE)
    free = [j for j in range(cols) if j not in pivots]
    for i, pc in enumerate(pivots):
        row = work[i]
        pv = row[pc]
        pts = row[pc + cols :: cols]
        sq = pv * pv
        out = [zero] * cols
        out[pc] = one
        for j in free:
            x = row[j]
            nums = tuple([pv * d - pt * x for d, pt in zip(row[j + cols :: cols], pts)])
            out[j] = _jet(Fraction(x, pv) if x else _ZERO, nums, sq)
        m[i] = out
    return pivots


def rank(m):
    """Rank of the list-of-lists matrix ``m``, which is left unchanged.

    The fraction-free elimination below each pivot, over ``int``; it builds
    no ``Fraction``.  A jet matrix has the rank of its values, since its
    pivots are those of its values.
    """
    if Jet in set(map(type, chain(*m))):
        m = [[x.value if type(x) is Jet else x for x in row] for row in m]
    return len(_eliminate(m, None, reduced=False)[1])


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
