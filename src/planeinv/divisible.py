"""Invariant letters for the divisible case: n = r*d with ratio r >= 2.

Write the configuration matrix as M = (A | B) where A collects the first r
members (an n x n block) and B the remaining s - r.  In the left-translated
matrix ``phi = A^-1 B`` each member becomes a column of r blocks of size
d x d.  Ratios of those blocks,

    D_ij(N) = N_11 * N_i1^-1 * N_ij * N_1j^-1,

for 2 <= i <= r and 2 <= j <= s - r, are a full letter system: they are
unchanged by any left action, and a right action conjugates all of them by
one common d x d matrix, so traces of cyclic words in the letters are exact
orbit invariants.

:func:`embed` builds the normal-form configuration whose letters are any
prescribed grid, and :func:`matrix_data` recovers the grid exactly --
the roundtrip is an identity on the nose, not up to equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CaseMismatchError,
    Degeneracy,
    DegenerateConfigError,
    inverse_or_degenerate,
)
from .grassmann import CaseTag, Config, Subspace, classify_case
from .linalg import Mat, hstack, vstack
from .words import InvariantVector, trace_vector


def _require_divisible(config: Config) -> CaseTag:
    tag = classify_case(config.n, config.d)
    if tag.kind != "divisible":
        raise CaseMismatchError(
            f"(n, d) = ({config.n}, {config.d}) is not in the divisible case"
        )
    return tag


def phi_left(config: Config) -> Mat:
    """Left-translate so the first r members become the identity: A^-1 B.

    Needs s > r; raises :class:`DegenerateConfigError` when the first r
    members do not span the ambient space.
    """
    tag = _require_divisible(config)
    r = tag.r
    if config.s <= r:
        raise CaseMismatchError(f"phi_left needs s > r = {r}, got s = {config.s}")
    a = hstack([sub.basis for sub in config.subspaces[:r]])
    b = hstack([sub.basis for sub in config.subspaces[r:]])
    message = f"the first r = {r} members do not span the ambient space"
    return inverse_or_degenerate(a, message) @ b


def _letter_ids(r: int, s: int) -> tuple[str, ...]:
    return tuple(f"G_{i}_{j}" for i in range(2, r + 1) for j in range(2, s - r + 1))


@dataclass(frozen=True)
class ReducedDivisible:
    """The letter grid of a divisible-case configuration.

    ``grid[i - 2][j - 2]`` is the d x d letter for block row i (2..r) and
    block column j (2..s-r); the grid is empty whenever s <= r + 1.
    """

    d: int
    r: int
    s: int
    grid: tuple[tuple[Mat, ...], ...]

    def __post_init__(self):
        if self.d < 1 or self.r < 2 or self.s < self.r + 1:
            raise ValueError("need d >= 1, r >= 2, s >= r + 1")
        want_rows, want_cols = self.r - 1, self.s - self.r - 1
        if len(self.grid) != want_rows or any(
            len(row) != want_cols for row in self.grid
        ):
            raise ValueError(
                f"grid must be {want_rows} x {want_cols} for "
                f"(d, r, s) = ({self.d}, {self.r}, {self.s})"
            )
        for row in self.grid:
            for m in row:
                if m.rows != self.d or m.cols != self.d:
                    raise ValueError(f"letters must be {self.d} x {self.d}")

    def letter(self, i: int, j: int) -> Mat:
        return self.grid[i - 2][j - 2]

    def letters(self) -> tuple[Mat, ...]:
        return tuple(m for row in self.grid for m in row)


def _block(phi: Mat, i: int, j: int, d: int) -> Mat:
    return phi.block((i - 1) * d, i * d, (j - 1) * d, j * d)


def _letter_grid(phi: Mat, r: int, d: int, s: int) -> ReducedDivisible:
    """The letters D_ij(phi), inverting each block (1, j) and then each block (i, 1) once.

    Inverting those blocks is also the general-position check on them; a
    singular one raises :class:`DegenerateConfigError`.  The grid is empty
    when s <= r + 1.
    """

    def inv(i: int, j: int) -> Mat:
        message = f"block ({i}, {j}) of the translated matrix is singular"
        return inverse_or_degenerate(_block(phi, i, j, d), message, r + j)

    cols = [inv(1, j) for j in range(2, s - r + 1)]
    if not cols:
        return ReducedDivisible(d=d, r=r, s=s, grid=((),) * (r - 1))
    head = _block(phi, 1, 1, d)
    lefts = [head @ inv(i, 1) for i in range(2, r + 1)]
    grid = tuple(
        tuple(left @ _block(phi, i, j, d) @ col for j, col in enumerate(cols, start=2))
        for i, left in enumerate(lefts, start=2)
    )
    return ReducedDivisible(d=d, r=r, s=s, grid=grid)


def _singular_block(phi: Mat, r: int, d: int, s: int) -> Degeneracy | None:
    """The first singular d x d block of phi among those the letters do not invert.

    General position asks every block of phi to be invertible.  When
    s > r + 1 the letters invert the blocks (i, 1) and (1, j), and
    :func:`_letter_grid` raises on a singular one, so only the others are
    rank-checked here.
    """
    for i in range(1, r + 1):
        for j in range(1, s - r + 1):
            if s > r + 1 and (i == 1) != (j == 1):
                continue
            if _block(phi, i, j, d).rank() != d:
                return Degeneracy(f"phi block ({i}, {j}) is singular", block=r + j)
    return None


def matrix_data(config: Config) -> ReducedDivisible:
    """Extract the full letter grid D_ij(phi) of a configuration."""
    tag = _require_divisible(config)
    r, d, s = tag.r, config.d, config.s
    if s <= r:
        raise CaseMismatchError(f"matrix_data needs s > r = {r}, got s = {s}")
    return _letter_grid(phi_left(config), r, d, s)


def embed(rd: ReducedDivisible) -> Config:
    """Normal-form configuration realizing a prescribed letter grid.

    Members 1..r are the coordinate blocks, member r+1 is the diagonal
    (identity in every block row), and member r+j carries the grid column j
    below an identity first block.  ``matrix_data(embed(x)) == x`` exactly,
    for any grid (the letters need not be invertible).
    """
    d, r, s = rd.d, rd.r, rd.s
    eye = Mat.identity(d)
    zero = Mat.zeros(d, d)

    def column(blocks: list[Mat]) -> Subspace:
        return Subspace(vstack(blocks))

    members = []
    for i in range(1, r + 1):
        members.append(column([eye if k == i else zero for k in range(1, r + 1)]))
    members.append(column([eye] * r))
    for j in range(2, s - r + 1):
        members.append(column([eye] + [rd.letter(i, j) for i in range(2, r + 1)]))
    return Config(members)


def letters(config: Config) -> tuple:
    """(tag, letter ids, letters, degeneracy) of a divisible-case configuration, in one pass.

    No letters in the almost-homogeneous range s <= r + 1, where all
    general-position configurations are equivalent.  The pass also decides
    general position and returns the first failed condition (``None`` if
    none): for s <= r the members must be in direct sum; for s > r the
    first r members must span and every d x d block of phi must be
    invertible.  A failure that leaves the letters undefined raises
    :class:`DegenerateConfigError` instead, except in the empty range, where
    every failure is recorded.
    """
    tag = _require_divisible(config)
    r, d, s = tag.r, config.d, config.s
    ids, mats, degeneracy = (), (), None
    if s <= r:
        if config.matrix().rank() != s * d:
            degeneracy = Degeneracy("members are not in direct sum")
    else:
        try:
            phi = phi_left(config)
            degeneracy = _singular_block(phi, r, d, s)
            ids = _letter_ids(r, s)
            mats = _letter_grid(phi, r, d, s).letters()
        except DegenerateConfigError as exc:
            if s > r + 1:
                raise
            degeneracy = Degeneracy.of(exc)
    return tag, ids, mats, degeneracy


def invariants(config: Config) -> InvariantVector:
    """Trace-invariant vector of a divisible-case configuration, in one pass of :func:`letters`."""
    return trace_vector(config, *letters(config))
