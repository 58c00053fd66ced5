"""Pure-Python matrix kernels.

These routines are the arithmetic inner loops of the whole package: every
inverse, nullspace, solve and word-trace ultimately bottoms out in
``mat_mul`` and ``rref_in_place``, which :mod:`planeinv.linalg` calls, and
the Jacobian rank is certified first by ``rank_mod_p``.

``mat_mul`` and ``rref_in_place`` work on plain list-of-lists and never
build a ``Fraction`` or a ``Jet`` per scalar step.  Over the rationals
(entries ``int`` or ``fractions.Fraction``):

* ``mat_mul`` scales each row of ``a`` and each column of ``b`` once by the
  lcm of its denominators, takes integer dot products, and builds one
  ``Fraction`` per output entry.  A product of ``int`` matrices (the word
  stage) skips the scaling and returns ``int``.
* ``rref_in_place`` scales each row to integers and eliminates fraction-free
  (``row <- p * row - f * pivot_row``, then divides the row by the gcd of
  its entries; Bareiss 1968), with the same first-nonzero pivoting as a
  field loop.  Each integer row is a nonzero multiple of the row the field
  loop would hold, so the zero pattern, hence the pivots, is the same at
  every step; each pivot row is divided by its pivot at the end, which
  gives the (unique) reduced row echelon form, always as ``Fraction``
  entries.
* ``rank`` runs the same elimination below each pivot only and returns
  the number of pivots; it builds no ``Fraction`` at all.

A matrix with a :class:`planeinv.jet.Jet` entry takes the same route in
the jet ring truncated at eps^2 (vector forward mode): each row, and each
column of a right factor, is scaled once to ``k + 1`` integer vectors over
the lcm of its denominators, one for the values and one per derivative
direction.

* ``mat_mul`` takes integer inner products and builds one ``Jet`` per
  output entry.
* ``rref_in_place`` eliminates with ``row <- p * row - f * pivot_row`` as
  jet products, one gcd division per row update, and divides each pivot
  row by its pivot jet at the end.  The pivot is the first nonzero
  *value*, so the pivots are those of the plain run the jets shadow, but
  every row whose entry is a nonzero *jet* is cleared: an entry of value 0
  with a nonzero derivative still carries a derivative of the result.
  Rows below the rank come back as zero jets.
* ``rank`` of a jet matrix is the rank of its values.

``rank_mod_p`` works over plain ``int`` modulo a prime.
"""

from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import mul

from .jet import Jet

_RATIONAL = {int, Fraction}
_JET = {Jet}
_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    if not kinds <= _RATIONAL:
        if kinds != _JET:
            a, b = _as_jets(a), _as_jets(b)
        return _jet_mat_mul(a, b)
    if Fraction in kinds:
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
    ``Fraction`` entries, jet input as ``Jet`` entries.
    """
    kinds = set(map(type, chain(*m)))
    if kinds <= _RATIONAL:
        return _rref_rational(m)
    if kinds != _JET:
        m[:] = _as_jets(m)
    return _rref_jet(m)


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


def _as_jets(m):
    """``m`` with every ``int`` or ``Fraction`` entry made a jet with a zero derivative."""
    return [[x if type(x) is Jet else Jet(x) for x in row] for row in m]


def _jet_rows(rows, k):
    """Each row of jets times the lcm of its denominators, and that lcm.

    A scaled row is ``k + 1`` integer vectors: the values, then the
    derivatives along each of the ``k`` directions.
    """
    zero = (0,) * k
    out = []
    dens = []
    for row in rows:
        qs = [x.value.denominator for x in row]
        ds = [x.den for x in row]
        den = lcm(*qs, *ds)
        if den == 1:
            vecs = [[x.value.numerator for x in row]]
            vecs += zip(*[x.nums or zero for x in row])
        else:
            vecs = [[x.value.numerator * (den // q) for x, q in zip(row, qs)]]
            vecs += zip(*[[n * (den // d) for n in x.nums] if x.nums else zero for x, d in zip(row, ds)])
        out.append(vecs)
        dens.append(den)
    return out, dens


def _jet(value, nums, den):
    """``Jet(value, nums / den)`` for a tuple ``nums``, reduced by one gcd."""
    g = gcd(den, *nums)
    if g == 1:
        return Jet(value, nums, den)
    if g == den:
        return Jet(value, tuple([x // g for x in nums]) if any(nums) else ())
    return Jet(value, tuple([x // g for x in nums]), den // g)


def _jet_mat_mul(a, b):
    """``mat_mul`` over jets: integer inner products of scaled rows and columns.

    Row i of ``a`` is ``(a_0, a_1 .. a_k) / D_i`` and column j of ``b`` is
    ``(b_0, b_1 .. b_k) / E_j``, so entry (i, j) has the value
    ``a_0 . b_0 / (D_i E_j)`` and, along direction t, the derivative
    ``(a_0 . b_t + a_t . b_0) / (D_i E_j)``: one inner product of
    ``a_0 ++ a_t`` with ``b_t ++ b_0``.
    """
    k = max([len(x.nums) for x in chain(*a, *b)])
    arows, adens = _jet_rows(a, k)
    bcols, bdens = _jet_rows(zip(*b), k)
    lefts = [(a0, [(*a0, *at) for at in ats]) for a0, *ats in arows]
    rights = [(b0, [(*bt, *b0) for bt in bts]) for b0, *bts in bcols]
    out = []
    for (a0, ats), aden in zip(lefts, adens):
        orow = []
        for (b0, bts), bden in zip(rights, bdens):
            den = aden * bden
            nums = tuple([sum(map(mul, at, bt)) for at, bt in zip(ats, bts)])
            orow.append(_jet(Fraction(sum(map(mul, a0, b0)), den), nums, den))
        out.append(orow)
    return out


def _rref_jet(m):
    """``rref_in_place`` for jet entries, eliminating over ``int`` in the jet ring.

    Each row is scaled to ``k + 1`` integer vectors (:func:`_jet_rows`) and
    updated by ``row <- p * row - f * pivot_row`` with jet products
    truncated at eps^2: the values by ``p_0 x_0 - f_0 y_0``, direction t by
    ``p_0 x_t + p_t x_0 - f_0 y_t - f_t y_0``; then the row is divided by
    the gcd of all its components.  The pivot is the first nonzero value,
    as over the rationals, and every row whose entry in the pivot column is
    a nonzero jet (value or derivative) is cleared.  At the end each pivot
    row is divided by its pivot jet, ``x / p = x (p_0 - p_t eps_t) / p_0^2``,
    and the rows below the rank become zero jets.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    k = max([len(x.nums) for x in chain(*m)])
    work = []
    for vecs in _jet_rows(m, k)[0]:
        g = gcd(*chain.from_iterable(vecs))
        work.append([[x // g for x in v] for v in vecs] if g > 1 else vecs)
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr == rows:
            break
        hit = -1
        for i in range(pr, rows):
            if work[i][0][pc]:
                hit = i
                break
        if hit < 0:
            continue
        if hit != pr:
            work[pr], work[hit] = work[hit], work[pr]
        y0, *yts = work[pr]
        p0 = y0[pc]
        pts = [v[pc] for v in yts]
        for i in range(rows):
            if i == pr:
                continue
            x0, *xts = work[i]
            f0 = x0[pc]
            fts = [v[pc] for v in xts]
            if not f0 and not any(fts):
                continue
            new = [[p0 * x - f0 * y for x, y in zip(x0, y0)]]
            for xt, yt, pt, ft in zip(xts, yts, pts, fts):
                new.append([p0 * x - f0 * y + pt * u - ft * v for x, y, u, v in zip(xt, yt, x0, y0)])
            g = gcd(*chain.from_iterable(new))
            if g > 1:
                new = [[x // g for x in v] for v in new]
            work[i] = new
        pivots.append(pc)
        pr += 1
    # Every pivot column is cleared in all components but at its pivot, so
    # only the free columns need a division.
    zero, one = Jet(_ZERO), Jet(_ONE)
    free = [j for j in range(cols) if j not in pivots]
    for i, pc in enumerate(pivots):
        x0, *xts = work[i]
        p0 = x0[pc]
        out = [zero] * cols
        out[pc] = one
        values = [Fraction(x0[j], p0) if x0[j] else _ZERO for j in free]
        derivs = zip(*[[p0 * v[j] - v[pc] * x0[j] for j in free] for v in xts]) if k else repeat(())
        sq = p0 * p0
        for j, value, nums in zip(free, values, derivs):
            out[j] = _jet(value, nums, sq)
        m[i] = out
    for i in range(len(pivots), rows):
        m[i] = [zero] * cols
    return tuple(pivots)


def rank(m):
    """Rank of the list-of-lists matrix ``m``, which is left unchanged.

    The fraction-free elimination below each pivot, over ``int``; it builds
    no ``Fraction``.  A jet matrix has the rank of its values, since its
    pivots are those of its values.
    """
    if not set(map(type, chain(*m))) <= _RATIONAL:
        m = [[x.value if type(x) is Jet else x for x in row] for row in m]
    return len(_eliminate_rational(m, reduced=False)[1])


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
