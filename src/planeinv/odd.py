"""Invariant letters for the odd-multiple case: n = (2r+1)e, d = 2e.

The reduction reads a basis B_i of each member and picks no coordinate
chart, so every condition it checks is a property of the configuration:
it holds for c exactly when it holds for g c h.  All structure is
extracted from intersections with sums of the leading members, computed
as canonical kernels of [B_m ... | B_target] (:func:`nullspace_component`).
Three such kernels give the column blocks of the frame matrix H
(:func:`frame_odd`) at every r >= 1; at r = 1 they are the pairwise meets
1∩2, 1∩3 and 2∩3 of the first three members.

A left factor E fixes every letter exactly: the kernels stay put, H
becomes E H, and H^-1 B_j does not change.  So at r >= 2 a rational pass
reads each member as its d-column block of the reduced echelon form of
the configuration matrix (:meth:`~planeinv.grassmann.Config.echelon`),
where the first members are mostly unit columns and the frame's kernels
and H^-1 meet rows already reduced.  Medians over seeds 1-20 (Python
3.11, one shared 2-vCPU host): the letters pass takes 13% less time at
(7,2,7), 19-21% less at (9,2,9) and (10,4,6), 30-40% less at (15,6,6)
and (14,4,7), and 0-1% more at (5,2,8) and (5,2,9), where n is small and
the form pays once more for every later member.  Two passes keep the
members' own bases, each for a measured reason.  At r = 1 the frame is
three pairwise meets, and the echelon form made the letters 17-19%
slower at (3,2,6) and 7% slower at (9,6,6).  A pass over jets keeps its
members too: the echelon form of the jet configuration matrix would carry
the free members' derivatives into every member (the Jacobian rank's tail
time rose 22%).  The Jacobian rank instead takes E over the rationals
before the jets go on (:func:`planeinv.orbit._jet_rank`), so the pass
starts in echelon coordinates and the derivatives stay in the free members.

In echelon coordinates members 1..r are exact unit blocks [0; I_d; 0]
(the rational passes at r >= 2, and both passes over jets, which keep
members 1..r rational).  Their unit columns are pivots of every frame
kernel, and a canonical kernel vector is fixed by its free coordinates, so
:func:`frame_odd` reads each kernel off the few rows those members leave
uncovered: an e x d block for X and for Y, a 3e x 2d block for Z.  The
free columns, the bases and the kernel dimensions are those of the
n x (r+1)d kernels, so H and every :class:`WrongKernelDimension` are
unchanged.  The general kernels stay the route at r = 1 and for any input
whose members 1..r are not unit blocks.  :func:`letters_odd` then
applies each right factor once to a whole normalized column and reads the
letters off its row blocks.  Medians over seeds 1-4, the old and the new
code interleaved in one process (Python 3.11, one shared 2-vCPU host): the
frame takes 0.19 ms in place of 0.29 ms at (7,2,7) and 0.45 ms in place of
0.86 ms at (14,4,6), :func:`letters_odd` 0.28-0.31 ms in place of
0.32-0.34 ms at (7,2,7), and the letters pass 7-13% less time at each of
(5,2,5), (7,2,7), (5,2,8), (9,2,9), (10,4,6), (14,4,6) and (10,4,7).

* r = 1 (n = 3e): expressing the remaining members in H-coordinates yields
  pairs (alpha_{2i-1}, alpha_{2i}) of e x e blocks, and normalizing by the
  fourth member's pair gives the letters sigma_9..sigma_{2s}
  (:func:`sigma_data`).

* r >= 2: in H-coordinates, members r+1 and onward are right-normalized
  by canonical kernels into a/b/c column blocks with provable zero
  patterns (:func:`reduce_odd`), from which block ratios build the Z and
  Theta letters (:func:`letters_odd`).

The stages hand plain values to each other: a frame is its matrix H and
a letter set is a tuple of matrices in the alphabet order of the trace
words, which :func:`letter_ids` names.  :func:`reduce` runs the stages
for :func:`planeinv.orbit.letters`, the one entry into both families'
reductions; each stage reads (r, e) from the case tag and trusts the
(r, s) range :func:`reduce` chose for it.  A matrix that must be
inverted and is singular raises :class:`DegenerateConfigError` through
:func:`~planeinv.errors.inverse_or_degenerate`.

Every kernel step uses the canonical reduced-echelon basis.  The residual
ambiguity of every frame choice is a single right GL_e factor, so the
letters transform by one common conjugation under both group actions and
their word traces are exact invariants; the property suite tests that
invariance rather than relying on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    Degeneracy,
    WrongKernelDimension,
    ZeroPatternViolation,
    inverse_or_degenerate,
)
from .grassmann import CaseTag, Config
from .linalg import Mat, hstack


def letter_ids(tag: CaseTag, s: int) -> tuple[str, ...]:
    """The ids of the letters of ``s`` members, in alphabet order.

    sigma_9..sigma_{2s} at r = 1; at r >= 2, Z_1..Z_{2r-4} and then
    Theta_i_1..Theta_i_{4r-2} for each member i = r+3..s.  Empty in the
    almost-homogeneous ranges, where all general-position configurations
    are equivalent: s <= 4 for r = 1; s <= r+1 always; and s = r+2 when
    r = 2.
    """
    r = tag.r
    if r == 1:
        return tuple(f"sigma_{k}" for k in range(9, 2 * s + 1))
    if s < r + 2:
        return ()
    return tuple(f"Z_{k}" for k in range(1, 2 * r - 3)) + tuple(
        f"Theta_{i}_{c}" for i in range(r + 3, s + 1) for c in range(1, 4 * r - 1)
    )


def _basis(config: Config, i: int) -> Mat:
    """The basis B_i of member i (1-based)."""
    return config.subspaces[i - 1].basis


def _kernel_of_dim(kernel: Mat, e: int, members: Sequence[int], target: int) -> Mat:
    """``kernel`` when it has e columns, else :class:`WrongKernelDimension` for ``members`` and ``target``."""
    if kernel.cols != e:
        raise WrongKernelDimension(
            f"intersection kernel of blocks {list(members)} with block {target} "
            f"has dimension {kernel.cols}, expected {e}",
            block=target,
        )
    return kernel


def nullspace_component(
    config: Config, tag: CaseTag, members: Sequence[int], target: int
) -> list[Mat]:
    """Canonical kernel of [B_m ... | B_target], split per member.

    A kernel vector (u_m ..., w) puts sum_m B_m u_m = -B_target w in member
    ``target``.  The members are distinct and exclude the target.  The
    kernel must have dimension exactly e (:class:`WrongKernelDimension`
    otherwise); its canonical basis is returned as one d x e block X_m per
    member, and summing B_m X_m over the members spans
    target ∩ (sum of members).
    """
    members = list(members)
    kernel = hstack([_basis(config, m) for m in (*members, target)]).nullspace_basis()
    e, d = tag.e, config.d
    _kernel_of_dim(kernel, e, members, target)
    return [kernel.block(k * d, (k + 1) * d, 0, e) for k in range(len(members))]


def _unit_members(config: Config, r: int) -> bool:
    """Whether members 1..r are the unit blocks of the echelon form.

    Member i is then the rational [0; I_d; 0] over denominator 1, its
    identity in rows (i-1)d .. id - 1.
    """
    n, d = config.n, config.d
    for lo in range(0, r * d, d):
        basis = _basis(config, lo // d + 1)
        unit = [[int(row == lo + c) for c in range(d)] for row in range(n)]
        if basis.k is not None or basis.den != 1 or basis.num != unit:
            return False
    return True


def _negated(m: Mat) -> Mat:
    return Mat._form([[-x for x in row] for row in m.num], m.den, m.cols, m.k)


def _kernels_from_units(config: Config, tag: CaseTag) -> tuple[list[Mat], list[Mat], Mat]:
    """The blocks X_i, Y_i and Z_{r+1} of :func:`frame_odd` when members 1..r are unit blocks.

    Member i is [0; I_d; 0] with its identity in rows R_i = (i-1)d .. id - 1
    (:func:`_unit_members`).  A kernel vector (u_1 ... u_r, w) of
    [B_1 ... B_r | B_{r+1}] then has u_i = -B_{r+1}[R_i] w, with w in the
    kernel of the last e rows of B_{r+1}, the rows no unit member covers.
    The unit columns are pivots, so the canonical kernel is
    (-B_top W_x; W_x) for the canonical kernel W_x of that e x d block, and
    X_i = -B_{r+1}[R_i] W_x.  Y is built the same way from B_{r+2}, and
    Z_{r+1} is the first d rows of the canonical kernel of the last 3e rows
    of [B_{r+1} | B_{r+2}], which members 1..r-1 leave uncovered.
    """
    e, r, n, d = tag.e, tag.r, config.n, config.d
    first_r = range(1, r + 1)
    low = r * d
    blocks = []
    for target in (r + 1, r + 2):
        basis = _basis(config, target)
        w = _kernel_of_dim(basis.block(low, n, 0, d).nullspace_basis(), e, first_r, target)
        v = basis @ _negated(w)
        blocks.append([v.block(lo, lo + d, 0, e) for lo in range(0, low, d)])
    rows = [_basis(config, m).block(low - d, n, 0, d) for m in (r + 1, r + 2)]
    w_z = _kernel_of_dim(hstack(rows).nullspace_basis(), e, [*range(1, r), r + 1], r + 2)
    return blocks[0], blocks[1], w_z.block(0, d, 0, e)


def frame_odd(config: Config, tag: CaseTag) -> Mat:
    """The n x n intersection frame H, for every r >= 1 (s >= r + 2).

    Column pairs 2i-1, 2i of H are B_i X_i and B_i Y_i for i = 1..r; the
    final column is B_{r+1} Z_{r+1}.  X targets member r+1, Y and Z target
    member r+2 (:func:`nullspace_component`).  At r = 1 the three column
    blocks span the meets 1∩2, 1∩3 and 2∩3.

    At r >= 2, when members 1..r are the unit blocks of the echelon form
    (every rational pass, and both passes over jets), the blocks are
    read off the few rows those members leave uncovered
    (:func:`_kernels_from_units`).  The unit columns are pivots, and a
    canonical kernel vector is fixed by its free coordinates, so the free
    columns, the basis and the kernel dimensions are those of the
    n x (r+1)d kernels: H, and every :class:`WrongKernelDimension`, are the
    same.
    """
    r = tag.r
    if r > 1 and _unit_members(config, r):
        x, y, z = _kernels_from_units(config, tag)
    else:
        first_r = list(range(1, r + 1))
        x = nullspace_component(config, tag, first_r, r + 1)
        y = nullspace_component(config, tag, first_r, r + 2)
        z = nullspace_component(config, tag, list(range(1, r)) + [r + 1], r + 2)[-1]
    cols = []
    for i in range(1, r + 1):
        basis = _basis(config, i)
        cols.append(basis @ x[i - 1])
        cols.append(basis @ y[i - 1])
    cols.append(_basis(config, r + 1) @ z)
    return hstack(cols)


def _alpha_pairs(config: Config, tag: CaseTag, h: Mat) -> dict[int, Mat]:
    """The e x e blocks alpha_7..alpha_{2s} of members 4..s in the coordinates of frame ``h``.

    Member i becomes H^-1 B_i; right-normalizing by its top 2e x 2e block
    leaves (E; 0 / 0; E / alpha_{2i-1} alpha_{2i}).
    """
    e, d, n = tag.e, config.d, config.n
    h_inv = inverse_or_degenerate(h, "intersection frame is singular")
    alphas: dict[int, Mat] = {}
    for i in range(4, config.s + 1):
        t = h_inv @ _basis(config, i)
        top = t.block(0, d, 0, d)
        pair = t.block(d, n, 0, d) @ inverse_or_degenerate(
            top, f"block {i} is not transverse to the frame plane", i
        )
        alphas[2 * i - 1] = pair.block(0, e, 0, e)
        alphas[2 * i] = pair.block(0, e, e, 2 * e)
    return alphas


def sigma_data(config: Config, tag: CaseTag, h: Mat) -> tuple[Mat, ...]:
    """The r = 1 letters sigma_9..sigma_{2s} (s >= 5) from frame ``h``.

    sigma_{2i-1} = alpha_{2i-1} alpha_7^-1 and sigma_{2i} = alpha_{2i}
    alpha_8^-1 for i = 5..s: member 4's pair normalizes all later pairs,
    which uses up the last of the group freedom and leaves exact invariants.
    """
    alphas = _alpha_pairs(config, tag, h)
    a7_inv, a8_inv = (
        inverse_or_degenerate(alphas[k], "block 4 normalization blocks are singular", 4)
        for k in (7, 8)
    )
    mats = []
    for i in range(5, config.s + 1):
        mats.append(alphas[2 * i - 1] @ a7_inv)
        mats.append(alphas[2 * i] @ a8_inv)
    return tuple(mats)


@dataclass(frozen=True)
class ReducedOdd:
    """The a/b/c column blocks of a configuration in frame coordinates.

    ``a_col`` is the right-normalized extra column of member r+1 (kernel of
    its bottom e-row block); for each j = r+2..s, ``b_cols[j]`` is member
    j's column killed at row block 2r+1 and ``c_cols[j]`` the one killed at
    row block 2r.  Blocks are addressed 1-based: ``a_block(k)`` etc.
    """

    e: int
    r: int
    s: int
    a_col: Mat  # n x e
    b_cols: dict[int, Mat]  # j -> n x e
    c_cols: dict[int, Mat]  # j -> n x e

    def a_block(self, k: int) -> Mat:
        return _row_block(self.a_col, k, self.e)

    def b_block(self, j: int, k: int) -> Mat:
        return _row_block(self.b_cols[j], k, self.e)

    def c_block(self, j: int, k: int) -> Mat:
        return _row_block(self.c_cols[j], k, self.e)


def _row_block(m: Mat, k: int, e: int) -> Mat:
    return m.block((k - 1) * e, k * e, 0, m.cols)


def reduce_odd(config: Config, tag: CaseTag, h: Mat) -> ReducedOdd:
    """Express members r+1..s in the coordinates of frame ``h`` and normalize columns.

    ``h`` is :func:`frame_odd` of ``config``.  Member j in H-coordinates is
    N_j = H^-1 B_j.  Right-normalization picks canonical column
    combinations: for member r+1, the e columns killed at row block 2r+1
    (the a-column; the complementary e columns land on the identity at row
    block 2r+1, which is possible exactly because that row block has full
    rank e -- implied by the kernel having dimension e); for members
    j >= r+2, the columns killed at row block 2r+1 (the b-column, spanning
    the X-type intersection) and at row block 2r (the c-column).

    The provable vanishing is asserted exactly: a-blocks vanish at the even
    positions and at 2r+1, and the b-column of member r+2 vanishes at all
    odd positions; a violation raises :class:`ZeroPatternViolation`.
    """
    e, r, s = tag.e, tag.r, config.s
    h_inv = inverse_or_degenerate(h, "intersection frame is singular")

    # Each member in H-coordinates, computed once: members j >= r+2 give
    # both a b-column and a c-column.
    in_frame = {j: h_inv @ _basis(config, j) for j in range(r + 1, s + 1)}

    def normalized_column(j: int, kill_row_block: int) -> Mat:
        n_j = in_frame[j]
        kernel = _row_block(n_j, kill_row_block, e).nullspace_basis()
        if kernel.cols != e:
            raise WrongKernelDimension(
                f"row block {kill_row_block} of member {j} in frame coordinates "
                f"has kernel dimension {kernel.cols}, expected {e}",
                block=j,
            )
        return n_j @ kernel

    a_col = normalized_column(r + 1, 2 * r + 1)
    b_cols = {j: normalized_column(j, 2 * r + 1) for j in range(r + 2, s + 1)}
    c_cols = {j: normalized_column(j, 2 * r) for j in range(r + 2, s + 1)}
    red = ReducedOdd(e=e, r=r, s=s, a_col=a_col, b_cols=b_cols, c_cols=c_cols)

    for k in range(2, 2 * r + 2, 2):
        if not red.a_block(k).is_zero():
            raise ZeroPatternViolation(f"a-block {k} should vanish but does not")
    if not red.a_block(2 * r + 1).is_zero():
        raise ZeroPatternViolation(f"a-block {2 * r + 1} should vanish but does not")
    for k in range(1, 2 * r + 2, 2):
        if not red.b_block(r + 2, k).is_zero():
            raise ZeroPatternViolation(
                f"b-block ({k}, {r + 2}) should vanish but does not"
            )
    return red


def letters_odd(reduced: ReducedOdd) -> tuple[Mat, ...]:
    """The Z and Theta letters of the r >= 2 case, in :func:`letter_ids` order.

    All letters are ratios of a/b/c blocks arranged so that both group
    actions conjugate every letter by one common e x e factor:

    * P = c_{1,r+2} c_{2,r+2}^-1 primes the ratios;
    * Z letters Z_1..Z_{2r-4} (j = 2..r-1, none for r = 2):
      c_{2j-1,r+2} c_{1,r+2}^-1 and P c_{2j,r+2} c_{1,r+2}^-1;
    * Theta letters Theta_i_1..Theta_i_{4r-2} for each member i = r+3..s,
      with delta_i = (c_{1,i} - c_{2r-1,i})^-1:
      P b_{2,i} b_{1,i}^-1,  P c_{2,i} delta_i,  and for j = 2..r the
      quadruple  b_{2j-1,i} b_{1,i}^-1,  P b_{2j,i} b_{1,i}^-1,
      (c_{2j-1,i} - c_{2r-1,i}) delta_i  (at j = r: c_{2r-1,i} delta_i),
      P c_{2j,i} delta_i  (at j = r:
      c_{1,r+2} c_{2r+1,r+2}^-1 c_{2r+1,i} delta_i).

    Each right factor is applied once to a whole normalized column: the
    row blocks of c_{r+2} c_{1,r+2}^-1 give the Z ratios, and those of
    b_i b_{1,i}^-1 and c_i delta_i give the Theta ratios, so a letter is a
    row block, a difference of two row blocks, or P (or c_{1,r+2}
    c_{2r+1,r+2}^-1, taken once) times a row block.  The arithmetic is
    exact and the forms canonical, so each letter is the matrix the
    block-by-block products give, over jets too.
    """
    r, s, e = reduced.r, reduced.s, reduced.e
    c1 = reduced.c_block(r + 2, 1)
    c1_inv = inverse_or_degenerate(c1, "c-block (1, r+2) is singular", r + 2)
    p = c1 @ inverse_or_degenerate(reduced.c_block(r + 2, 2), "c-block (2, r+2) is singular", r + 2)

    mats = []
    if r > 2:
        ratios = reduced.c_cols[r + 2] @ c1_inv
        for j in range(2, r):
            mats.append(_row_block(ratios, 2 * j - 1, e))
            mats.append(p @ _row_block(ratios, 2 * j, e))

    if s >= r + 3:
        p_bar = c1 @ inverse_or_degenerate(
            reduced.c_block(r + 2, 2 * r + 1), f"c-block ({2 * r + 1}, r+2) is singular", r + 2
        )
    for i in range(r + 3, s + 1):
        b1_inv = inverse_or_degenerate(reduced.b_block(i, 1), f"b-block (1, {i}) is singular", i)
        delta = inverse_or_degenerate(
            reduced.c_block(i, 1) - reduced.c_block(i, 2 * r - 1),
            f"c-block difference (1, {i}) - ({2 * r - 1}, {i}) is singular",
            i,
        )
        bt = reduced.b_cols[i] @ b1_inv
        ct = reduced.c_cols[i] @ delta
        c_last = _row_block(ct, 2 * r - 1, e)
        mats += [p @ _row_block(bt, 2, e), p @ _row_block(ct, 2, e)]
        for j in range(2, r + 1):
            mats += [_row_block(bt, 2 * j - 1, e), p @ _row_block(bt, 2 * j, e)]
            if j < r:
                mats += [_row_block(ct, 2 * j - 1, e) - c_last, p @ _row_block(ct, 2 * j, e)]
            else:
                mats += [c_last, p_bar @ _row_block(ct, 2 * r + 1, e)]
    return tuple(mats)


def _singular(m: Mat, what: str, block: int) -> Degeneracy | None:
    """The record of a singular square block ``m``; ``None`` when it is invertible."""
    return Degeneracy(f"{what} is singular", block=block) if m.rank() != m.rows else None


def reduce(config: Config, tag: CaseTag) -> tuple[tuple[Mat, ...], Degeneracy | None]:
    """The letters of the widest reduction the member count allows, in :func:`letter_ids` order, checked.

    This is the constructive reading of general position: every kernel has
    dimension e, every matrix the reduction inverts is invertible, and at
    s = r + 1 every member block of the kernel of member r + 1 has rank e
    (member r + 1 meets the sum of no r - 1 of the first r members).  A
    failure that leaves the letters undefined raises
    :class:`DegenerateConfigError`; a failed condition the letters do not
    need is returned, the first one found, next to them.
    """
    r, s = tag.r, config.s
    if s <= (2 if r == 1 else r):
        if config.matrix().rank() != min(config.n, s * config.d):
            return (), Degeneracy("members are not in general position")
        return (), None
    if s == r + 1:
        first = hstack([sub.basis for sub in config.subspaces[:r]])
        if first.rank() != r * config.d:
            return (), Degeneracy("the first r members are not in direct sum")
        for m, block in enumerate(nullspace_component(config, tag, range(1, r + 1), r + 1), start=1):
            if block.rank() < tag.e:
                return (), Degeneracy(
                    f"member {r + 1} meets the sum of the first {r} members other than member {m}",
                    block=r + 1,
                )
        return (), None
    # Echelon coordinates at r >= 2 over Q only; the module docstring says why.
    if r > 1 and all(sub.basis.k is None for sub in config):
        config = config.echelon_config()
    h = frame_odd(config, tag)
    if r == 1:
        if s == 3:
            # three members through one common line meet pairwise, but the
            # meets do not span
            return (), (
                Degeneracy("intersection frame is singular") if h.rank() < config.n else None
            )
        if s == 4:
            alphas = _alpha_pairs(config, tag, h)
            return (), (
                _singular(alphas[7], "alpha_7 of block 4", 4)
                or _singular(alphas[8], "alpha_8 of block 4", 4)
            )
        return sigma_data(config, tag, h), None
    red = reduce_odd(config, tag, h)
    found = letters_odd(red)
    degeneracy = _singular(red.a_block(1), "a-block 1", r + 1)
    if degeneracy is None and s == r + 2:
        # at s >= r + 3 letters_odd has inverted c-block (2r+1, r+2) already
        degeneracy = _singular(red.c_block(r + 2, 2 * r + 1), f"c-block ({2 * r + 1}, r+2)", r + 2)
    return found, degeneracy

