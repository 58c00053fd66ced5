"""Configurations of d-dimensional subspaces of an n-dimensional rational space.

A :class:`Subspace` is stored as an n x d basis matrix with independent
columns; a :class:`Config` is an ordered tuple of s subspaces sharing the
same ambient dimension and the same d.  The two group actions of interest
are a single invertible n x n matrix on the left (:func:`act_left`) and an
independent invertible d x d basis change on each subspace on the right
(:func:`act_right`).  Left actions move the configuration; right actions
only reparametrize each member, so they never change the configuration as a
set of subspaces.

Supported shapes split into two mutually exclusive families (see
:func:`classify_case`):

* ``divisible``: d divides n with ratio r >= 2;
* ``odd_multiple``: d = 2e is even and n = (2r+1) e is an odd multiple of e.

Sampling is deterministic: :class:`SplitMix64` is a fixed, documented 64-bit
PRNG, so a (seed, bound) pair always reproduces the same configuration on
every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    DegenerateConfigError,
    DegenerateSamplingExhausted,
    DimensionMismatchError,
    RankDeficientError,
    SingularMatrixError,
    UnsupportedCaseError,
)
from .linalg import Mat, hstack

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator (public-domain constants, 64-bit state).

    Chosen because it is tiny, fully specified by three multiplier/shift
    constants, and trivially reimplementable in any language -- determinism
    across platforms is part of the file-format contract, so the generator
    must be pinned, not borrowed from ``random``.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_int(self, bound: int) -> int:
        """Uniform-ish integer in ``[-bound, bound]`` (fold by modulus)."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        return self.next_u64() % (2 * bound + 1) - bound


@dataclass(frozen=True)
class CaseTag:
    """Which reduction applies to ambient dimension ``n`` and member dimension ``d``."""

    kind: str  # "divisible" | "odd_multiple" | "unsupported"
    r: int | None = None
    e: int | None = None

    @property
    def supported(self) -> bool:
        return self.kind != "unsupported"


def classify_case(n: int, d: int) -> CaseTag:
    """Classify the pair (n, d); requires ``n > d >= 1``.

    The two families cannot overlap: divisible means n/e is even (n = 2re
    when d = 2e), odd_multiple means n/e is odd.
    """
    if not (isinstance(n, int) and isinstance(d, int) and n > d >= 1):
        raise ValueError(f"need integers n > d >= 1, got n={n}, d={d}")
    if n % d == 0:
        return CaseTag("divisible", r=n // d)
    if d % 2 == 0:
        e = d // 2
        if n % e == 0:
            q = n // e
            if q % 2 == 1 and q >= 3:
                return CaseTag("odd_multiple", r=(q - 1) // 2, e=e)
    return CaseTag("unsupported")


class Subspace:
    """A d-dimensional subspace of rational n-space, held as an n x d basis.

    Columns must be linearly independent (:class:`RankDeficientError`
    otherwise).  ``d == 0`` (a zero-column basis) is allowed so that
    intersections can be returned uniformly.  Equality is equality *as
    subspaces*: two values compare equal iff their column-RREF canonical
    forms agree entrywise, regardless of the bases they were built from.
    """

    __slots__ = ("basis",)

    def __init__(self, basis: Mat):
        if basis.cols > 0 and basis.rank() != basis.cols:
            raise RankDeficientError(
                f"basis columns are dependent ({basis.rows}x{basis.cols}, rank {basis.rank()})"
            )
        self.basis = basis

    @classmethod
    def _raw(cls, basis: Mat) -> "Subspace":
        """Wrap a basis whose columns are already known to be independent."""
        sub = object.__new__(cls)
        sub.basis = basis
        return sub

    @property
    def n(self) -> int:
        return self.basis.rows

    @property
    def d(self) -> int:
        return self.basis.cols

    def canonical_basis(self) -> Mat:
        """Column-RREF of the basis: the unique representative of the span."""
        if self.d == 0:
            return self.basis
        return self.basis.transpose().rref()[0].transpose()

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.n == other.n
            and self.d == other.d
            and self.canonical_basis() == other.canonical_basis()
        )

    def __hash__(self):
        return hash(self.canonical_basis())

    def __repr__(self):
        return f"Subspace(n={self.n}, d={self.d})"


def canonicalize(sub: Subspace) -> Subspace:
    """The subspace re-expressed in its unique column-RREF basis.

    Idempotent and span-preserving; two subspaces are equal as sets iff
    their canonicalized bases are equal entrywise, which reduces span
    comparisons to ``==`` on matrices.
    """
    return Subspace(sub.canonical_basis())


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space, canonicalized."""
    if a.n != b.n:
        raise DimensionMismatchError("ambient dimensions differ")
    if a.d == 0 or b.d == 0:
        return Subspace(Mat._form([[] for _ in range(a.n)], 1, 0))
    stacked = hstack([a.basis, b.basis])
    kernel = stacked.nullspace_basis()  # (a.d + b.d) x k
    if kernel.cols == 0:
        return Subspace(Mat._form([[] for _ in range(a.n)], 1, 0))
    coeffs = kernel.block(0, a.d, 0, kernel.cols)
    return canonicalize(Subspace(a.basis @ coeffs))


class Config:
    """An ordered configuration of s subspaces of common shape (n, d), d >= 1."""

    __slots__ = ("subspaces",)

    def __init__(self, subspaces: Sequence[Subspace]):
        subs = tuple(subspaces)
        if not subs:
            raise DimensionMismatchError("a configuration needs at least one subspace")
        n, d = subs[0].n, subs[0].d
        if not 1 <= d < n:
            raise DimensionMismatchError(f"need 1 <= d < n, got d={d}, n={n}")
        for i, sub in enumerate(subs):
            if sub.n != n or sub.d != d:
                raise DimensionMismatchError(
                    f"subspace {i + 1} has shape ({sub.n}, {sub.d}), expected ({n}, {d})"
                )
        self.subspaces = subs

    @property
    def n(self) -> int:
        return self.subspaces[0].n

    @property
    def d(self) -> int:
        return self.subspaces[0].d

    @property
    def s(self) -> int:
        return len(self.subspaces)

    def __iter__(self) -> Iterator[Subspace]:
        return iter(self.subspaces)

    def __eq__(self, other):
        if not isinstance(other, Config):
            return NotImplemented
        return self.subspaces == other.subspaces

    def __hash__(self):
        return hash(self.subspaces)

    def __repr__(self):
        return f"Config(n={self.n}, d={self.d}, s={self.s})"

    def matrix(self) -> Mat:
        """All bases side by side: the n x (s*d) matrix of the configuration."""
        return hstack([sub.basis for sub in self.subspaces])

    def echelon(self) -> tuple[Mat, tuple[int, ...]]:
        """The reduced echelon form of :meth:`matrix` and its pivot columns.

        The form is E M for one invertible n x n matrix E, so its d-column
        blocks are the members moved by one left action.  Both reductions
        start from it: the letters are exactly unchanged by a left action,
        and in the form the first members that span are unit columns.
        """
        return self.matrix().rref()

    def echelon_config(self) -> "Config":
        """The configuration whose members are the d-column blocks of :meth:`echelon`.

        That is E c for the one invertible E of the form, so every
        invariant, and the rank of their Jacobian, is the same as at c.
        """
        form, _ = self.echelon()
        n, d = self.n, self.d
        return Config([Subspace._raw(form.block(0, n, lo, lo + d)) for lo in range(0, self.s * d, d)])


def act_left(g: Mat, config: Config) -> Config:
    """Apply an invertible n x n matrix to every subspace."""
    if g.rows != g.cols or g.rows != config.n:
        raise DimensionMismatchError("left action needs an n x n matrix")
    if g.rank() != g.rows:
        raise SingularMatrixError("left action needs an invertible matrix")
    return Config([Subspace(g @ sub.basis) for sub in config])


def act_right(hs: Sequence[Mat], config: Config) -> Config:
    """Reparametrize each subspace by its own invertible d x d matrix.

    Spans are unchanged, so this never moves the configuration -- it only
    exercises the basis ambiguity the invariants must be blind to.
    """
    hs = list(hs)
    if len(hs) != config.s:
        raise DimensionMismatchError("need one d x d matrix per subspace")
    for h in hs:
        if h.rows != h.cols or h.rows != config.d:
            raise DimensionMismatchError("right action needs d x d matrices")
        if h.rank() != h.rows:
            raise SingularMatrixError("right action needs invertible matrices")
    return Config([Subspace(sub.basis @ h) for sub, h in zip(config, hs)])


def general_position(config: Config) -> bool:
    """Whether every genericity condition of the applicable reduction holds.

    This is exactly the set of conditions under which the invariant letters
    of the configuration are defined.  The conditions read the members'
    own bases through no coordinate chart, so the verdict is a property of
    the orbit: it is the same for ``config`` and for
    ``act_right(hs, act_left(g, config))``.  It is decided constructively
    by :func:`planeinv.orbit.letters`, the same reduction pass every
    command runs; no trace vector is built.  Unsupported (n, d) raises
    :class:`UnsupportedCaseError`.
    """
    from .orbit import letters
    try:
        return letters(config)[3] is None
    except DegenerateConfigError:
        return False


def sample_invertible(rng: SplitMix64, size: int, bound: int = 10) -> Mat:
    """Deterministically sample an invertible size x size integer matrix."""
    for _ in range(1000):
        m = Mat([[rng.next_int(bound) for _ in range(size)] for _ in range(size)])
        if m.rank() == size:
            return m
    raise DegenerateSamplingExhausted(
        f"no invertible {size}x{size} matrix with entries in [-{bound}, {bound}] after 1000 draws"
    )


def sample_config(n: int, d: int, s: int, seed: int, bound: int = 10) -> Config:
    """Deterministic general-position configuration with integer entries.

    Draws all n*d*s entries from one splitmix64 stream per attempt and keeps
    the first attempt that passes :func:`general_position`; gives up after
    100 attempts with :class:`DegenerateSamplingExhausted`.
    """
    tag = classify_case(n, d)
    if not tag.supported:
        raise UnsupportedCaseError(f"no reduction applies to (n, d) = ({n}, {d})")
    if s < 1:
        raise ValueError("need s >= 1")
    rng = SplitMix64(seed)
    for _ in range(100):
        raw = [
            [[rng.next_int(bound) for _ in range(d)] for _ in range(n)] for _ in range(s)
        ]
        try:
            config = Config([Subspace(Mat(block)) for block in raw])
        except RankDeficientError:
            continue  # a rank-deficient draw; the whole attempt is burned
        if general_position(config):
            return config
    raise DegenerateSamplingExhausted(
        f"no general-position configuration (n={n}, d={d}, s={s}) "
        f"with entries in [-{bound}, {bound}] after 100 attempts"
    )
