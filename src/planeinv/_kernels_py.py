"""Pure-Python matrix kernels.

These routines are the arithmetic inner loops of the whole package: every
inverse, nullspace, solve and word-trace ultimately bottoms out in
``mat_mul`` and ``rref_in_place``, which :mod:`planeinv.linalg` calls, and
the Jacobian rank is certified first by ``rank_mod_p``.

``mat_mul`` and ``rref_in_place`` work on plain list-of-lists whose entries
belong to any exact field type (``fractions.Fraction`` or
:class:`planeinv.linalg.Jet`, whose derivative vectors ride along at no
cost to the pivoting); ``mat_mul`` needs only a ring, and the word stage
runs it over ``int``.  Pivot selection uses truthiness
of entries, so a ``Jet`` pivots on its value part alone -- that is exactly
what keeps differentiation consistent with the undifferentiated
computation.  ``rank_mod_p`` works over plain ``int`` modulo a prime.
"""


def mat_mul(a, b):
    """Product of two list-of-list matrices; inner dimension must be >= 1."""
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
    the tuple of pivot column indices.
    """
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
