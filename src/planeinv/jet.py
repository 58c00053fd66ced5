"""Jets: exact dual numbers over the rationals, one value and a derivative vector.

:class:`Jet` is the record the matrix kernels in :mod:`planeinv._kernels_py`
build and take: they scale whole rows of jets to integer vectors and do
every product and quotient there.  That is why the type lives below both
the kernels and :mod:`planeinv.linalg` (which re-exports it).
"""

from __future__ import annotations

from math import gcd


def _summed(n1: tuple, d1: int, n2: tuple, d2: int, sign: int) -> tuple[tuple, int]:
    """``n1 / d1 + sign * n2 / d2`` for ``sign`` in {1, -1}, reduced by one gcd."""
    if not n2:
        return n1, d1
    if not n1:
        return (n2 if sign > 0 else tuple([-y for y in n2])), d2
    g = gcd(d1, d2)
    f1 = d2 // g
    f2 = sign * (d1 // g)
    nums = [f1 * x + f2 * y for x, y in zip(n1, n2)]
    g = gcd(d1 * f1, *nums)
    return tuple([x // g for x in nums]), d1 * f1 // g


class Jet:
    """Dual number ``value + sum_i deriv[i] * eps_i`` with ``eps_i * eps_j == 0``.

    Carrying jets through an exact computation yields the exact derivative
    of every output along each of several input directions at once (vector
    forward mode; Griewank-Walther, *Evaluating Derivatives*).  A jet is a
    record of one value and a derivative vector: integer numerators
    ``nums`` over one common positive denominator ``den``, reduced by one
    gcd.  An empty ``nums`` is the zero derivative.

    Products and quotients happen only inside the kernels, so a jet has
    just the operators the reduction applies to single entries: ``+`` and
    ``-`` of two jets (``Mat.__sub__`` takes the c-block differences of
    :mod:`planeinv.odd`; ``Mat.__add__`` and ``Mat.trace`` stay total over
    all-jet matrices), unary ``-`` (``Mat.nullspace_basis``) and
    truthiness (``Mat.is_zero``).  Truthiness looks only at ``value``, and
    so do the kernels' pivot decisions: a jet pivots on its value, so a
    differentiated run takes the same pivots as the plain run it shadows.
    Jets define no equality and compare by identity; to compare two jets,
    compare their values and derivative vectors.
    """

    __slots__ = ("value", "nums", "den")

    def __init__(self, value, nums: tuple = (), den: int = 1):
        self.value = value
        self.nums = nums
        self.den = den

    def __add__(self, other):
        if type(other) is not Jet:
            return NotImplemented
        return Jet(self.value + other.value, *_summed(self.nums, self.den, other.nums, other.den, 1))

    def __sub__(self, other):
        if type(other) is not Jet:
            return NotImplemented
        return Jet(self.value - other.value, *_summed(self.nums, self.den, other.nums, other.den, -1))

    def __neg__(self):
        return Jet(-self.value, tuple([-x for x in self.nums]), self.den)

    def __bool__(self):
        return bool(self.value)

    def __repr__(self):
        return f"Jet({self.value!r}, {self.nums!r}, {self.den!r})"
