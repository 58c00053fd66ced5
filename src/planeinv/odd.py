"""Invariant letters for the odd-multiple case: n = (2r+1)e, d = 2e.

The reduction reads each member's own basis B_i and picks no coordinate
chart, so every condition it checks is a property of the configuration:
it holds for c exactly when it holds for g c h.  All structure is
extracted from intersections with sums of the leading members, computed
as canonical kernels of [B_m ... | B_target] (:func:`nullspace_component`).
Three such kernels give the column blocks of the frame matrix H
(:func:`frame_odd`) at every r >= 1; at r = 1 they are the pairwise meets
1∩2, 1∩3 and 2∩3 of the first three members.

* r = 1 (n = 3e): expressing the remaining members in H-coordinates yields
  pairs (alpha_{2i-1}, alpha_{2i}) of e x e blocks, and normalizing by the
  fourth member's pair gives the letters sigma_9..sigma_{2s}
  (:func:`sigma_data`).

* r >= 2: in H-coordinates, members r+1 and onward are right-normalized
  by canonical kernels into a/b/c column blocks with provable zero
  patterns (:func:`reduce_odd`), from which block ratios build the Z and
  Theta letters (:func:`letters_odd`).

The stages hand plain values to each other: a frame is its matrix H and
a letter set is a pair (ids, mats) in the alphabet order of the trace
words.  Each stage reads (r, e) from the case tag and trusts the (r, s)
range :func:`letters` chose for it.  A matrix that must be inverted and is
singular raises :class:`DegenerateConfigError` through
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
    CaseMismatchError,
    Degeneracy,
    DegenerateConfigError,
    WrongKernelDimension,
    ZeroPatternViolation,
    inverse_or_degenerate,
)
from .grassmann import CaseTag, Config, classify_case
from .linalg import Mat, hstack
from .words import InvariantVector, trace_vector


def _require_odd(config: Config) -> CaseTag:
    tag = classify_case(config.n, config.d)
    if tag.kind != "odd_multiple":
        raise CaseMismatchError(
            f"(n, d) = ({config.n}, {config.d}) is not in the odd-multiple case"
        )
    return tag


def _basis(config: Config, i: int) -> Mat:
    """The basis B_i of member i (1-based)."""
    return config.subspaces[i - 1].basis


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
    if kernel.cols != e:
        raise WrongKernelDimension(
            f"intersection kernel of blocks {members} with block {target} "
            f"has dimension {kernel.cols}, expected {e}",
            expected=e,
            actual=kernel.cols,
            block=target,
        )
    return [kernel.block(k * d, (k + 1) * d, 0, e) for k in range(len(members))]


def frame_odd(config: Config, tag: CaseTag) -> Mat:
    """The n x n intersection frame H, for every r >= 1 (s >= r + 2).

    Column pairs 2i-1, 2i of H are B_i X_i and B_i Y_i for i = 1..r; the
    final column is B_{r+1} Z_{r+1}.  X targets member r+1, Y and Z target
    member r+2 (:func:`nullspace_component`).  At r = 1 the three column
    blocks span the meets 1∩2, 1∩3 and 2∩3.
    """
    r = tag.r
    first_r = list(range(1, r + 1))
    x = nullspace_component(config, tag, first_r, r + 1)
    y = nullspace_component(config, tag, first_r, r + 2)
    z = nullspace_component(config, tag, list(range(1, r)) + [r + 1], r + 2)
    cols = []
    for i in range(1, r + 1):
        basis = _basis(config, i)
        cols.append(basis @ x[i - 1])
        cols.append(basis @ y[i - 1])
    cols.append(_basis(config, r + 1) @ z[-1])
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


def sigma_data(config: Config, tag: CaseTag, h: Mat) -> tuple[tuple[str, ...], tuple[Mat, ...]]:
    """The r = 1 letters sigma_9..sigma_{2s} (s >= 5) from frame ``h``, as (ids, mats).

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
    return tuple(f"sigma_{k}" for k in range(9, 2 * config.s + 1)), tuple(mats)


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

    def _block(self, col: Mat, k: int) -> Mat:
        return col.block((k - 1) * self.e, k * self.e, 0, self.e)

    def a_block(self, k: int) -> Mat:
        return self._block(self.a_col, k)

    def b_block(self, j: int, k: int) -> Mat:
        return self._block(self.b_cols[j], k)

    def c_block(self, j: int, k: int) -> Mat:
        return self._block(self.c_cols[j], k)


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
                expected=e,
                actual=kernel.cols,
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


def letters_odd(reduced: ReducedOdd) -> tuple[tuple[str, ...], tuple[Mat, ...]]:
    """The Z and Theta letters of the r >= 2 case, as (ids, mats).

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

    Total count: 2r-4 + (4r-2)(s-r-2), the k of the odd case.
    """
    r, s = reduced.r, reduced.s
    c1 = reduced.c_block(r + 2, 1)
    c2 = reduced.c_block(r + 2, 2)
    c1_inv = inverse_or_degenerate(c1, "c-block (1, r+2) is singular", r + 2)
    p = c1 @ inverse_or_degenerate(c2, "c-block (2, r+2) is singular", r + 2)

    mats = []
    for j in range(2, r):
        mats.append(reduced.c_block(r + 2, 2 * j - 1) @ c1_inv)
        mats.append(p @ reduced.c_block(r + 2, 2 * j) @ c1_inv)
    ids = [f"Z_{k}" for k in range(1, len(mats) + 1)]

    cbar_inv = None
    if s >= r + 3:
        cbar_inv = inverse_or_degenerate(
            reduced.c_block(r + 2, 2 * r + 1), f"c-block ({2 * r + 1}, r+2) is singular", r + 2
        )
    for i in range(r + 3, s + 1):
        b1_inv = inverse_or_degenerate(reduced.b_block(i, 1), f"b-block (1, {i}) is singular", i)
        delta = inverse_or_degenerate(
            reduced.c_block(i, 1) - reduced.c_block(i, 2 * r - 1),
            f"c-block difference (1, {i}) - ({2 * r - 1}, {i}) is singular",
            i,
        )
        comps = [
            p @ reduced.b_block(i, 2) @ b1_inv,
            p @ reduced.c_block(i, 2) @ delta,
        ]
        for j in range(2, r + 1):
            comps.append(reduced.b_block(i, 2 * j - 1) @ b1_inv)
            comps.append(p @ reduced.b_block(i, 2 * j) @ b1_inv)
            if j < r:
                comps.append(
                    (reduced.c_block(i, 2 * j - 1) - reduced.c_block(i, 2 * r - 1)) @ delta
                )
                comps.append(p @ reduced.c_block(i, 2 * j) @ delta)
            else:
                comps.append(reduced.c_block(i, 2 * r - 1) @ delta)
                comps.append(c1 @ cbar_inv @ reduced.c_block(i, 2 * r + 1) @ delta)
        ids.extend(f"Theta_{i}_{c}" for c in range(1, len(comps) + 1))
        mats.extend(comps)
    return tuple(ids), tuple(mats)


def _singular(m: Mat, what: str, block: int) -> Degeneracy | None:
    """The record of a singular square block ``m``; ``None`` when it is invertible."""
    return Degeneracy(f"{what} is singular", block=block) if m.rank() != m.rows else None


_NO_LETTERS: tuple[tuple[str, ...], tuple[Mat, ...]] = ((), ())


def _reduce(config: Config, tag: CaseTag) -> tuple[tuple, Degeneracy | None]:
    """The (ids, mats) of the widest reduction the member count allows, checked.

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
            return _NO_LETTERS, Degeneracy("members are not in general position")
        return _NO_LETTERS, None
    if s == r + 1:
        first = hstack([sub.basis for sub in config.subspaces[:r]])
        if first.rank() != r * config.d:
            return _NO_LETTERS, Degeneracy("the first r members are not in direct sum")
        for m, block in enumerate(nullspace_component(config, tag, range(1, r + 1), r + 1), start=1):
            if block.rank() < tag.e:
                return _NO_LETTERS, Degeneracy(
                    f"member {r + 1} meets the sum of the first {r} members other than member {m}",
                    block=r + 1,
                )
        return _NO_LETTERS, None
    h = frame_odd(config, tag)
    if r == 1:
        if s == 3:
            # three members through one common line meet pairwise, but the
            # meets do not span
            return _NO_LETTERS, (
                Degeneracy("intersection frame is singular") if h.rank() < config.n else None
            )
        if s == 4:
            alphas = _alpha_pairs(config, tag, h)
            return _NO_LETTERS, (
                _singular(alphas[7], "alpha_7 of block 4", 4)
                or _singular(alphas[8], "alpha_8 of block 4", 4)
            )
        return sigma_data(config, tag, h), None
    red = reduce_odd(config, tag, h)
    found = letters_odd(red)
    # letters_odd inverts c-block (2r+1, r+2) only when s >= r + 3
    return found, (
        _singular(red.a_block(1), "a-block 1", r + 1)
        or _singular(red.c_block(r + 2, 2 * r + 1), f"c-block ({2 * r + 1}, r+2)", r + 2)
    )


def letters(config: Config) -> tuple:
    """(tag, letter ids, letters, degeneracy) of an odd-multiple configuration, in one pass.

    No letters in the almost-homogeneous ranges: s <= 4 for r = 1; s <= r+1
    always; and s = r+2 when r = 2.  Otherwise the r = 1 or r >= 2 letter
    pipeline runs, to e x e letters.  The same pass decides general position
    and returns the first failed condition (``None`` if none); a failure
    that leaves the letters undefined raises :class:`DegenerateConfigError`
    instead, except in the empty ranges, where every failure is recorded.
    """
    tag = _require_odd(config)
    r, s = tag.r, config.s
    trivial = (r == 1 and s <= 4) or s <= r + 1 or (r == 2 and s == r + 2)
    try:
        (ids, mats), degeneracy = _reduce(config, tag)
    except DegenerateConfigError as exc:
        if not trivial:
            raise
        (ids, mats), degeneracy = _NO_LETTERS, Degeneracy.of(exc)
    return tag, ids, mats, degeneracy


def invariants(config: Config) -> InvariantVector:
    """Trace-invariant vector of an odd-multiple configuration, in one pass of :func:`letters`."""
    return trace_vector(config, *letters(config))
