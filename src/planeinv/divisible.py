"""Invariant letters for the divisible case: n = r*d with ratio r >= 2.

Write the configuration matrix as M = (A | B) where A collects the first r
members (an n x n block) and B the remaining s - r.  When A is invertible
the reduced echelon form of M (:meth:`~planeinv.grassmann.Config.echelon`)
is (I | A^-1 B), so its right block ``phi = A^-1 B`` is read off the form
with no inverse and no product.  In phi each member becomes a column of r
blocks of size d x d.  Ratios of those blocks,

    D_ij(N) = N_11 * N_i1^-1 * N_ij * N_1j^-1,

for 2 <= i <= r and 2 <= j <= s - r, are a full letter system: they are
unchanged by any left action, and a right action conjugates all of them by
one common d x d matrix, so traces of cyclic words in the letters are exact
orbit invariants.

:func:`letter_ids` names the letters, and :func:`reduce` computes them in
that order for :func:`planeinv.orbit.letters`, the one entry into both
families' reductions.  :func:`embed` builds the normal-form configuration
whose letters are any prescribed tuple, and ``letters(embed(x)) == x``
exactly -- the roundtrip is an identity on the nose, not up to equivalence.
"""

from __future__ import annotations

from typing import Sequence

from .errors import (
    CaseMismatchError,
    Degeneracy,
    DegenerateConfigError,
    inverse_or_degenerate,
)
from .grassmann import CaseTag, Config, Subspace
from .linalg import Mat, vstack


def phi_left(config: Config, r: int) -> Mat:
    """Left-translate so the first r = n / d members become the identity: A^-1 B.

    That is the right n x (s - r)d block of the reduced echelon form of the
    configuration matrix, when the form's first n pivots are columns
    0..n-1.  Needs s > r; raises :class:`DegenerateConfigError` when the
    first r members do not span the ambient space.
    """
    n = config.n
    if config.s <= r:
        raise CaseMismatchError(f"phi_left needs s > r = {r}, got s = {config.s}")
    form, pivots = config.echelon()
    if pivots[:n] != tuple(range(n)):
        raise DegenerateConfigError(f"the first r = {r} members do not span the ambient space")
    return form.block(0, n, n, form.cols)


def letter_ids(tag: CaseTag, s: int) -> tuple[str, ...]:
    """The ids of the letters of ``s`` members, in alphabet order: G_i_j, i = 2..r, then j = 2..s-r.

    Empty in the almost-homogeneous range s <= r + 1, where all
    general-position configurations are equivalent.
    """
    r = tag.r
    return tuple(f"G_{i}_{j}" for i in range(2, r + 1) for j in range(2, s - r + 1))


def _block(phi: Mat, i: int, j: int, d: int) -> Mat:
    return phi.block((i - 1) * d, i * d, (j - 1) * d, j * d)


def _letter_mats(phi: Mat, r: int, d: int, s: int) -> tuple[Mat, ...]:
    """The letters D_ij(phi) in :func:`letter_ids` order, inverting each block (1, j) and then each block (i, 1) once.

    Inverting those blocks is also the general-position check on them; a
    singular one raises :class:`DegenerateConfigError`.  There are no
    letters when s <= r + 1.
    """

    def inv(i: int, j: int) -> Mat:
        message = f"block ({i}, {j}) of the translated matrix is singular"
        return inverse_or_degenerate(_block(phi, i, j, d), message, r + j)

    cols = [inv(1, j) for j in range(2, s - r + 1)]
    if not cols:
        return ()
    head = _block(phi, 1, 1, d)
    lefts = [head @ inv(i, 1) for i in range(2, r + 1)]
    return tuple(
        left @ _block(phi, i, j, d) @ col
        for i, left in enumerate(lefts, start=2)
        for j, col in enumerate(cols, start=2)
    )


def _singular_block(phi: Mat, r: int, d: int, s: int) -> Degeneracy | None:
    """The first singular d x d block of phi among those the letters do not invert.

    General position asks every block of phi to be invertible.  When
    s > r + 1 the letters invert the blocks (i, 1) and (1, j), and
    :func:`_letter_mats` raises on a singular one, so only the others are
    rank-checked here.
    """
    for i in range(1, r + 1):
        for j in range(1, s - r + 1):
            if s > r + 1 and (i == 1) != (j == 1):
                continue
            if _block(phi, i, j, d).rank() != d:
                return Degeneracy(f"phi block ({i}, {j}) is singular", block=r + j)
    return None


def embed(d: int, r: int, s: int, letters: Sequence[Mat]) -> Config:
    """Normal-form configuration whose d x d letters are ``letters``, in :func:`letter_ids` order.

    Members 1..r are the coordinate blocks, member r+1 is the diagonal
    (identity in every block row), and member r+j carries the letters
    G_2_j..G_r_j below an identity first block.
    ``orbit.letters(embed(d, r, s, x))[2] == x`` exactly, for any letters
    (they need not be invertible).
    """
    if d < 1 or r < 2 or s < r + 1:
        raise ValueError("need d >= 1, r >= 2, s >= r + 1")
    cols = s - r - 1
    if len(letters) != (r - 1) * cols:
        raise ValueError(
            f"(d, r, s) = ({d}, {r}, {s}) needs {(r - 1) * cols} letters, got {len(letters)}"
        )
    if any(m.rows != d or m.cols != d for m in letters):
        raise ValueError(f"letters must be {d} x {d}")
    eye = Mat.identity(d)
    zero = Mat.zeros(d, d)

    def column(blocks: list[Mat]) -> Subspace:
        return Subspace(vstack(blocks))

    members = []
    for i in range(1, r + 1):
        members.append(column([eye if k == i else zero for k in range(1, r + 1)]))
    members.append(column([eye] * r))
    for j in range(2, s - r + 1):
        members.append(column([eye, *letters[j - 2 :: cols]]))
    return Config(members)


def reduce(config: Config, tag: CaseTag) -> tuple[tuple[Mat, ...], Degeneracy | None]:
    """The letters in :func:`letter_ids` order and the first failed general-position condition.

    For s <= r the members must be in direct sum; for s > r the first r
    members must span and every d x d block of phi must be invertible.  A
    failure that leaves the letters undefined raises
    :class:`DegenerateConfigError`; any other is returned next to them
    (``None`` if none).
    """
    r, d, s = tag.r, config.d, config.s
    if s <= r:
        if config.matrix().rank() != s * d:
            return (), Degeneracy("members are not in direct sum")
        return (), None
    phi = phi_left(config, r)
    degeneracy = _singular_block(phi, r, d, s)
    return _letter_mats(phi, r, d, s), degeneracy
