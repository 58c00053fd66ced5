"""Exception types shared across the package.

The hierarchy mirrors how callers need to react:

* bad caller input (shapes, unsupported parameters)  -> ``ValueError`` family
* exact arithmetic that cannot proceed (singular pivot, wrong kernel
  dimension, ...)                                    -> ``DegenerateConfigError`` family
* internal structure violated (a provably-zero entry came out nonzero)
  -> ``ZeroPatternViolation``

:class:`Degeneracy` is the non-raising record of a failed genericity
condition, kept on an invariant vector whose letters could still be built.
"""

from __future__ import annotations

from dataclasses import dataclass


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class UnsupportedCaseError(ValueError):
    """The pair (n, d) belongs to neither supported case family."""


class CaseMismatchError(ValueError):
    """A case-specific routine was called outside the range it needs."""


class ShapeMismatchError(ValueError):
    """Two configurations that should share (n, d, s) do not."""


class SingularMatrixError(ArithmeticError):
    """A matrix that must be invertible is not."""


class RankDeficientError(ArithmeticError):
    """A linear solve has no solution or no unique solution."""


class DegenerateConfigError(ArithmeticError):
    """A configuration fails a genericity requirement of the reduction.

    ``block`` is the 1-based index of the offending subspace when one can be
    identified, else ``None``.
    """

    def __init__(self, message: str, block: int | None = None):
        super().__init__(message)
        self.block = block


@dataclass(frozen=True)
class Degeneracy:
    """The first genericity condition a configuration fails.

    ``reason`` says what failed; ``block`` is the 1-based index of the
    offending subspace when one can be identified, else ``None``.
    """

    reason: str
    block: int | None = None

    @classmethod
    def of(cls, exc: DegenerateConfigError) -> "Degeneracy":
        return cls(str(exc), exc.block)

    def error(self) -> DegenerateConfigError:
        return DegenerateConfigError(self.reason, block=self.block)


def inverse_or_degenerate(m, message: str, block: int | None = None):
    """``m.inverse()``; a singular ``m`` raises :class:`DegenerateConfigError` instead."""
    try:
        return m.inverse()
    except SingularMatrixError:
        raise DegenerateConfigError(message, block=block) from None


class WrongKernelDimension(DegenerateConfigError):
    """An intersection kernel does not have the expected dimension; the message states both."""


class ZeroPatternViolation(ArithmeticError):
    """An entry that is structurally zero (or structurally equal) is not.

    This never indicates bad input; it means an internal invariant of the
    reduction was broken, so it is deliberately *not* a
    ``DegenerateConfigError``.
    """


class DegenerateSamplingExhausted(RuntimeError):
    """Random sampling failed to hit general position within the retry budget."""
