"""Jets: exact dual numbers over the rationals, one value and a derivative vector.

:class:`Jet` is the scalar of the Jacobian pass.  The matrix kernels in
:mod:`planeinv._kernels_py` build jets as well as take them, which is why the
type lives below both the kernels and :mod:`planeinv.linalg` (which
re-exports it).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_ONE = Fraction(1)


def _reduced(nums: list, den: int) -> tuple[tuple, int]:
    """``nums / den`` with the common factor of all entries and ``den`` divided out."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple([x // g for x in nums]), den // g
    return tuple(nums), den


def _scaled(c, nums: tuple, den: int) -> tuple[tuple, int]:
    """``c * nums / den`` for a rational ``c``, reduced."""
    if not c or not nums:
        return (), 1
    p = c.numerator
    return _reduced([p * x for x in nums], c.denominator * den)


def _combined(c1, n1: tuple, d1: int, c2, n2: tuple, d2: int) -> tuple[tuple, int]:
    """``c1 * n1 / d1 + c2 * n2 / d2`` for rationals ``c1``, ``c2``, reduced."""
    if not n2 or not c2:
        return _scaled(c1, n1, d1)
    if not n1 or not c1:
        return _scaled(c2, n2, d2)
    q1 = c1.denominator * d1
    q2 = c2.denominator * d2
    g = gcd(q1, q2)
    f1 = c1.numerator * (q2 // g)
    f2 = c2.numerator * (q1 // g)
    return _reduced([f1 * x + f2 * y for x, y in zip(n1, n2)], q1 // g * q2)


def _summed(n1: tuple, d1: int, n2: tuple, d2: int, sign: int) -> tuple[tuple, int]:
    """``n1 / d1 + sign * n2 / d2`` for ``sign`` in {1, -1}, reduced."""
    if not n2:
        return n1, d1
    if not n1:
        return (n2 if sign > 0 else tuple([-y for y in n2])), d2
    if d1 == d2:
        if sign > 0:
            return _reduced([x + y for x, y in zip(n1, n2)], d1)
        return _reduced([x - y for x, y in zip(n1, n2)], d1)
    g = gcd(d1, d2)
    f1 = d2 // g
    f2 = sign * (d1 // g)
    return _reduced([f1 * x + f2 * y for x, y in zip(n1, n2)], d1 * f1)


class Jet:
    """Dual number ``value + sum_i deriv[i] * eps_i`` with ``eps_i * eps_j == 0``.

    Carrying jets through an exact computation yields the exact derivative
    of every output along each of several input directions at once (vector
    forward mode; Griewank-Walther, *Evaluating Derivatives*): the value is
    computed once, and the derivatives are a vector of integer numerators
    ``nums`` over one common positive denominator ``den``, reduced by one
    gcd after each operation.  An empty ``nums`` is the zero derivative;
    ``int`` and ``Fraction`` operands take fast paths that build none.
    Truthiness looks only at ``value``, and so do the kernels' pivot
    decisions: a jet pivots on its value, so a differentiated run takes the
    same pivots as the plain run it shadows.  Equality with 0 needs a zero
    derivative too, and elimination clears every nonzero jet, including
    one of value 0 whose derivative is not 0.
    """

    __slots__ = ("value", "nums", "den")

    def __init__(self, value, nums: tuple = (), den: int = 1):
        self.value = value
        self.nums = nums
        self.den = den

    def __add__(self, other):
        if type(other) is Jet:
            return Jet(self.value + other.value, *_summed(self.nums, self.den, other.nums, other.den, 1))
        if isinstance(other, (int, Fraction)):
            return Jet(self.value + other, self.nums, self.den)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Jet:
            return Jet(self.value - other.value, *_summed(self.nums, self.den, other.nums, other.den, -1))
        if isinstance(other, (int, Fraction)):
            return Jet(self.value - other, self.nums, self.den)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Jet(other - self.value, tuple([-x for x in self.nums]), self.den)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is Jet:
            sv, ov = self.value, other.value
            return Jet(sv * ov, *_combined(sv, other.nums, other.den, ov, self.nums, self.den))
        if isinstance(other, (int, Fraction)):
            return Jet(self.value * other, *_scaled(other, self.nums, self.den))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Jet:
            if not other.value:
                raise ZeroDivisionError("division by a jet with zero value")
            inv = _ONE / other.value
            v = self.value * inv
            return Jet(v, *_combined(inv, self.nums, self.den, -v * inv, other.nums, other.den))
        if isinstance(other, (int, Fraction)):
            return self * (_ONE / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not self.value:
                raise ZeroDivisionError("division by a jet with zero value")
            inv = _ONE / self.value
            v = other * inv
            return Jet(v, *_scaled(-v * inv, self.nums, self.den))
        return NotImplemented

    def __neg__(self):
        return Jet(-self.value, tuple([-x for x in self.nums]), self.den)

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.value == other and not any(self.nums)
        if type(other) is not Jet:
            return NotImplemented
        a, b, da, db = self.nums, other.nums, self.den, other.den
        if self.value != other.value or any(a) != any(b):
            return False
        return not any(a) or len(a) == len(b) and all(x * db == y * da for x, y in zip(a, b))

    def __hash__(self):
        # A zero derivative hashes as the value, which the jet then equals.
        if not any(self.nums):
            return hash(self.value)
        g = gcd(self.den, *self.nums)
        return hash((self.value, tuple([x // g for x in self.nums]), self.den // g))

    def __repr__(self):
        return f"Jet({self.value!r}, {self.nums!r}, {self.den!r})"
