"""Jets: exact dual numbers over the rationals, one value and a derivative vector.

:class:`Jet` is the entry type of a jet matrix as :attr:`planeinv.linalg.Mat.data`
shows it, and the entry type the converter in :mod:`planeinv._kernels_py`
reads.  Every jet operation acts on a matrix's integer form, so a jet is a
plain record, and the type lives below both the kernels and
:mod:`planeinv.linalg` (which re-exports it).
"""

from __future__ import annotations


class Jet:
    """Dual number ``value + sum_i deriv[i] * eps_i`` with ``eps_i * eps_j == 0``.

    Carrying jets through an exact computation yields the exact derivative
    of every output along each of several input directions at once (vector
    forward mode; Griewank-Walther, *Evaluating Derivatives*).  A jet is a
    record of one value and a derivative vector: integer numerators
    ``nums`` over one common positive denominator ``den``, reduced by one
    gcd.  An empty ``nums`` is the zero derivative.

    A jet has no arithmetic: sums, products, quotients and zero tests
    happen on whole matrices in their integer form (:mod:`planeinv.linalg`),
    which pivot on values, so a differentiated run takes the same pivots as
    the plain run it shadows.  Jets define no equality and compare by
    identity; to compare two jets, compare their values and derivative
    vectors.
    """

    __slots__ = ("value", "nums", "den")

    def __init__(self, value, nums: tuple = (), den: int = 1):
        self.value = value
        self.nums = nums
        self.den = den

    def __repr__(self):
        return f"Jet({self.value!r}, {self.nums!r}, {self.den!r})"
