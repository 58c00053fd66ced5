"""The odd-multiple family: normalization, frames, kernels, letters."""

import hashlib
import json

import pytest

from planeinv import odd
from planeinv.cli import main
from planeinv.errors import Degeneracy, DegenerateConfigError, WrongKernelDimension
from planeinv.fileio import config_to_obj, format_rat, write_json
from planeinv.grassmann import (
    Config,
    SplitMix64,
    Subspace,
    act_left,
    act_right,
    canonicalize,
    classify_case,
    general_position,
    intersect,
    sample_config,
    sample_invertible,
)
from planeinv.linalg import Mat, hstack, vstack
from planeinv.odd import (
    frame_odd,
    letter_ids,
    letters_odd,
    nullspace_component,
    reduce_odd,
)
from planeinv.orbit import (
    Verdict,
    expected_quotient_dim,
    invariant_vector,
    jacobian_rank,
    letters,
    same_orbit_test,
)

def odd_tag(c: Config):
    return classify_case(c.n, c.d)


# ---------------------------------------------------------------------------
# the frame at r = 1 (n = 3e): pairwise meets
# ---------------------------------------------------------------------------


class TestFrame3e:
    @pytest.mark.parametrize("n,d", [(3, 2), (6, 4)])
    def test_frame_columns_span_pairwise_intersections(self, n, d):
        # at r = 1, frame column block i spans exactly the meet of two of the
        # first three members: (1,2), then (1,3), then (2,3)
        c = sample_config(n, d, 4, seed=9)
        tag = odd_tag(c)
        h = frame_odd(c, tag)
        e = tag.e
        for i, (a, b) in enumerate(((1, 2), (1, 3), (2, 3))):
            col = h.block(0, 3 * e, i * e, (i + 1) * e)
            span = canonicalize(Subspace(col))
            meet = intersect(c.subspaces[a - 1], c.subspaces[b - 1])
            assert span == meet


# ---------------------------------------------------------------------------
# kernel systems (r >= 2)
# ---------------------------------------------------------------------------


class TestNullspaceComponent:
    def test_components_span_the_intersection(self):
        # the recombined columns span exactly (V_1 + V_2) meet V_3
        c = sample_config(5, 2, 4, seed=11)
        comps = nullspace_component(c, odd_tag(c), (1, 2), 3)
        # sum_m B_m X_m as one product [B_1 | B_2] @ [X_1; X_2]
        both = hstack([c.subspaces[0].basis, c.subspaces[1].basis])
        lhs = canonicalize(Subspace(both @ vstack(comps)))
        rhs = intersect(c.subspaces[2], Subspace(both))
        assert lhs == rhs

    def test_kernel_dimension_enforced(self):
        # a repeated member doubles the kernel and must be rejected loudly
        c = sample_config(5, 2, 4, seed=12)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        with pytest.raises(WrongKernelDimension, match=r"has dimension 2, expected 1$"):
            nullspace_component(Config(tuple(subs)), odd_tag(c), (1, 2), 3)


class TestFrameOdd:
    def test_frame_invertible(self):
        for seed in range(5):
            c = sample_config(5, 2, 4, seed=seed)
            frame_odd(c, odd_tag(c)).inverse()  # must not raise

    def test_first_members_become_coordinate_planes(self):
        # in the frame basis, member i (i <= r) is the span of coordinate
        # vectors 2(i-1)e+1 .. 2ie
        c = sample_config(5, 2, 4, seed=21)
        hinv = frame_odd(c, odd_tag(c)).inverse()
        n, e = 5, 1
        eye = Mat.identity(n)
        for i in (1, 2):
            moved = Subspace(hinv @ c.subspaces[i - 1].basis)
            target = Subspace(eye.block(0, n, 2 * (i - 1) * e, 2 * i * e))
            assert moved == target


def general_frame(monkeypatch, c: Config, tag) -> Mat:
    """frame_odd(c, tag) through the n x (r+1)d kernels, as for members that are not unit blocks."""
    with monkeypatch.context() as m:
        m.setattr(odd, "_unit_members", lambda config, r: False)
        return frame_odd(c, tag)


class _Captured(Exception):
    pass


def sketch_jet_config(monkeypatch, c: Config) -> Config:
    """The jet configuration whose frame the sketch pass of jacobian_rank(c) builds."""
    seen = []

    def capture(config, tag):
        seen.append(config)
        raise _Captured

    with monkeypatch.context() as m:
        m.setattr(odd, "frame_odd", capture)
        with pytest.raises(_Captured):
            jacobian_rank(c)
    return seen[0]


def frame_routes(monkeypatch) -> list:
    """From now on, "units" for every frame read off unit members, "general" for every other."""
    routes = []
    unit_members = odd._unit_members

    def spy(config, r):
        found = unit_members(config, r)
        routes.append("units" if found else "general")
        return found

    monkeypatch.setattr(odd, "_unit_members", spy)
    return routes


def member_in_first_sum() -> Config:
    """sample_config(7, 2, 7, seed=1) with member 4 inside the sum of members 1..3."""
    subs = list(sample_config(7, 2, 7, seed=1).subspaces)
    first = hstack([sub.basis for sub in subs[:3]])
    subs[3] = Subspace(first @ Mat([[1, 0], [0, 1], [1, 0], [0, 0], [0, 2], [1, 0]]))
    return Config(tuple(subs))


class TestFrameReadOff:
    # at r >= 2 the frame's kernels are read off the rows the unit members
    # of the echelon form leave uncovered; every route must give the H of
    # the n x (r+1)d kernels, as a Mat
    @pytest.mark.parametrize("bound", [10, 1])
    @pytest.mark.parametrize("shape", [(5, 2, 5), (7, 2, 7), (5, 2, 8), (9, 2, 9), (10, 4, 6), (14, 4, 6)])
    def test_equals_general_route(self, monkeypatch, shape, bound):
        for seed in (1, 2):
            c = sample_config(*shape, seed=seed, bound=bound).echelon_config()
            tag = odd_tag(c)
            assert odd._unit_members(c, tag.r)
            assert frame_odd(c, tag) == general_frame(monkeypatch, c, tag)

    @pytest.mark.parametrize("shape", [(5, 2, 5), (7, 2, 7), (9, 2, 9), (10, 4, 6)])
    def test_equals_general_route_over_sketch_jets(self, monkeypatch, shape):
        # the sketch pass keeps its first F >= r members rational, so they
        # stay unit blocks while members r+2 onward carry derivatives at r >= 3
        c = sample_config(*shape, seed=1)
        jets = sketch_jet_config(monkeypatch, c)
        tag = odd_tag(jets)
        assert odd._unit_members(jets, tag.r)
        h = frame_odd(jets, tag)
        assert h == general_frame(monkeypatch, jets, tag)
        assert (h.k is not None) == (tag.r >= 3)

    def test_members_not_in_direct_sum_take_the_general_route(self, monkeypatch):
        c = sample_config(7, 2, 7, seed=1)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        deg = Config(tuple(subs))
        routes = frame_routes(monkeypatch)
        message = "intersection kernel of blocks [1, 2, 3] with block 4 has dimension 2, expected 1"
        with pytest.raises(WrongKernelDimension) as raised:
            letters(deg)
        assert routes == ["general"]
        assert (str(raised.value), raised.value.block) == (message, 4)
        with pytest.raises(WrongKernelDimension) as raw:
            frame_odd(deg, odd_tag(deg))
        assert (str(raw.value), raw.value.block) == (message, 4)

    def test_read_off_raises_the_general_routes_error(self, monkeypatch):
        c = member_in_first_sum().echelon_config()
        tag = odd_tag(c)
        assert odd._unit_members(c, tag.r)
        message = "intersection kernel of blocks [1, 2, 3] with block 4 has dimension 2, expected 1"
        with pytest.raises(WrongKernelDimension) as fast:
            frame_odd(c, tag)
        with pytest.raises(WrongKernelDimension) as general:
            general_frame(monkeypatch, c, tag)
        assert (str(fast.value), fast.value.block) == (str(general.value), general.value.block) == (message, 4)

    def test_unit_pass_reads_the_unit_members(self, monkeypatch):
        # at this point the sketch falls short, and the unit pass
        # differentiates along members r+1..s only, so members 1..r stay
        # unit blocks in both passes
        c = sample_config(5, 2, 5, seed=6, bound=1)
        routes = frame_routes(monkeypatch)
        assert jacobian_rank(c) == 3
        assert routes == ["units", "units"]

    def test_r1_takes_the_general_route(self, monkeypatch):
        routes = frame_routes(monkeypatch)
        c = sample_config(3, 2, 6, seed=1)
        frame_odd(c.echelon_config(), odd_tag(c))
        assert routes == []


# ---------------------------------------------------------------------------
# reduction and zero patterns (r >= 2)
# ---------------------------------------------------------------------------


class TestReduceOdd:
    def test_zero_patterns_hold(self):
        c = sample_config(5, 2, 5, seed=31)
        tag = odd_tag(c)
        red = reduce_odd(c, tag, frame_odd(c, tag))
        r, e = red.r, red.e
        # a-column: even block rows and row 2r+1 vanish
        for pos in range(2, 2 * r + 2, 2):
            assert red.a_block(pos).is_zero()
        assert red.a_block(2 * r + 1).is_zero()
        # first b-column: odd block rows vanish, through 2r+1
        for pos in range(1, 2 * r + 2, 2):
            assert red.b_block(r + 2, pos).is_zero()

    def test_block_shapes(self):
        c = sample_config(5, 2, 6, seed=32)
        tag = odd_tag(c)
        red = reduce_odd(c, tag, frame_odd(c, tag))
        assert red.a_block(1).rows == red.e and red.a_block(1).cols == red.e
        for j in (4, 5, 6):
            assert red.b_block(j, 1).rows == red.e
            assert red.c_block(j, 1).rows == red.e


# ---------------------------------------------------------------------------
# letters, both regimes
# ---------------------------------------------------------------------------


class TestSigmaLetters:
    def test_letter_ids_and_count(self):
        c = sample_config(3, 2, 6, seed=41)
        v = invariant_vector(c)
        assert v.letter_ids == ("sigma_9", "sigma_10", "sigma_11", "sigma_12")

    def test_copied_member_gives_identity_letters(self):
        # member 5 spanning the same plane as member 4 collapses both of its
        # sigma letters to 1, so every trace equals 1
        c = sample_config(3, 2, 5, seed=42)
        subs = list(c.subspaces)
        subs[4] = subs[3]
        v = invariant_vector(Config(tuple(subs)))
        assert [str(x) for x in v.values] == ["1", "1"]


class TestOddLetters:
    @pytest.mark.parametrize(
        "n,d,s,count,first_ids",
        [
            (5, 2, 5, 6, ("Theta_5_1",)),
            (5, 2, 6, 12, ("Theta_5_1",)),
            (7, 2, 5, 2, ("Z_1", "Z_2")),
            (7, 2, 6, 12, ("Z_1", "Z_2", "Theta_6_1")),
        ],
    )
    def test_letter_counts(self, n, d, s, count, first_ids):
        c = sample_config(n, d, s, seed=44)
        tag = odd_tag(c)
        red = reduce_odd(c, tag, frame_odd(c, tag))
        ids, mats = letter_ids(tag, s), letters_odd(red)
        assert len(ids) == len(mats) == count
        assert ids[: len(first_ids)] == first_ids

    def test_structured_fields(self):
        c = sample_config(7, 2, 6, seed=45)
        tag = odd_tag(c)
        red = reduce_odd(c, tag, frame_odd(c, tag))
        ids, mats = letter_ids(tag, c.s), letters_odd(red)
        r = red.r
        assert ids[: 2 * r - 4] == tuple(f"Z_{k}" for k in range(1, 2 * r - 3))
        assert ids[2 * r - 4 :] == tuple(f"Theta_6_{c}" for c in range(1, 4 * r - 1))
        assert all(m.rows == m.cols == red.e for m in mats)

    def test_trivial_small_case(self):
        c = sample_config(5, 2, 4, seed=46)
        assert len(invariant_vector(c)) == 0


class TestOddLettersPinned:
    # sha256 of the JSON [ids, letters as format_rat entries] of
    # letters(sample_config(n, d, s, seed=1)); covers e = 2 and r = 3.  The
    # kernel bases fix the e = 2 letters only up to one common conjugation,
    # so those two pins also fix this reduction's choice of bases
    @pytest.mark.parametrize(
        "n,d,s,count,digest",
        [
            (3, 2, 6, 4, "7d2712113c27d683cb61c8cefb567a6fc76f5160607032014c5c9010a0667354"),
            (5, 2, 6, 12, "bed2cfd1478182a60049722c0de48632ed6fcfff86fb806a1319c4291d9f6892"),
            (6, 4, 6, 4, "4ba57850ca815a7596b85553778198b78173940f1c18e520a4afcb35180f60b3"),
            (10, 4, 6, 12, "b27d23fd72281791e1e469410ddde717904f3ed949bc3073693e2e354f9c09f9"),
            (7, 2, 7, 22, "29e803f762e4573af88729c5165495b041b0ac26c7def2d01542eee3db62b2ef"),
        ],
    )
    def test_letters_pinned(self, n, d, s, count, digest):
        _, ids, mats, degeneracy = letters(sample_config(n, d, s, seed=1))
        assert degeneracy is None and len(ids) == len(mats) == count
        entries = [[[format_rat(x) for x in row] for row in m.data] for m in mats]
        payload = json.dumps([list(ids), entries]).encode()
        assert hashlib.sha256(payload).hexdigest() == digest


# ---------------------------------------------------------------------------
# general position
# ---------------------------------------------------------------------------


class TestGeneralPositionOdd:
    @pytest.mark.parametrize(
        "n,d,s", [(3, 2, 3), (3, 2, 4), (3, 2, 5), (5, 2, 4), (5, 2, 5), (6, 4, 5)]
    )
    def test_sampled_pass(self, n, d, s):
        for seed in range(5):
            c = sample_config(n, d, s, seed=seed)
            assert general_position(c)
            assert invariant_vector(c).degeneracy is None

    def test_duplicate_member_fails(self):
        c = sample_config(3, 2, 5, seed=47)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        deg = Config(tuple(subs))
        assert not general_position(deg)
        with pytest.raises(DegenerateConfigError):
            invariant_vector(deg)

    def test_trivial_range_failure_recorded(self):
        # s = 4 with r = 1 has no letters: the pass records the failure
        c = sample_config(3, 2, 4, seed=47)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        v = invariant_vector(Config(tuple(subs)))
        assert len(v) == 0 and v.degeneracy is not None
        assert not general_position(Config(tuple(subs)))

    def test_singular_frame_is_degenerate(self):
        # the first draw of sample_config(3, 2, 6, seed=3871074876): the
        # pairwise intersections of members 1..3 exist, but the frame they
        # assemble is singular; that is a degeneracy, not SingularMatrixError
        raw = [
            [[-9, -2], [10, 3], [1, 1]],
            [[9, -3], [8, 3], [8, 3]],
            [[5, -10], [-1, -6], [-8, 8]],
            [[-6, 4], [-1, 3], [-4, -8]],
            [[2, -4], [10, 4], [-5, 4]],
            [[9, 1], [8, 10], [6, 2]],
        ]
        c = Config(tuple(Subspace(Mat(b)) for b in raw))
        with pytest.raises(DegenerateConfigError, match="intersection frame is singular"):
            invariant_vector(c)
        assert not general_position(c)
        assert general_position(sample_config(3, 2, 6, seed=3871074876))


def coordinate_plane_member() -> Config:
    """sample_config(5, 2, 5, seed=1) with member 2 replaced by <e3, e4>."""
    subs = list(sample_config(5, 2, 5, seed=1).subspaces)
    subs[1] = Subspace(Mat([[0, 0], [0, 0], [1, 0], [0, 1], [0, 0]]))
    return Config(subs)


class TestCoordinatePlaneMember:
    # a member whose basis has a singular top 2 x 2 block is an ordinary
    # member: general position does not depend on the coordinates
    def test_coordinate_plane_member_is_generic(self):
        c = coordinate_plane_member()
        v = invariant_vector(c)
        assert v.degeneracy is None and len(v) > 0
        assert jacobian_rank(c) == expected_quotient_dim(5, 2, 5) == 6
        rng = SplitMix64(99)
        g = sample_invertible(rng, 5)
        hs = [sample_invertible(rng, 2) for _ in range(5)]
        moved = act_right(hs, act_left(g, c))
        assert invariant_vector(moved).values == v.values
        assert same_orbit_test(c, moved) is Verdict.EQUIVALENT


def common_line_triple() -> Config:
    """(E; 0 1), (E; 1 0), (E; 2 -1): three planes of Q^3 through (1, 1, 1)."""
    rows = ([0, 1], [1, 0], [2, -1])
    return Config(tuple(Subspace(Mat([[1, 0], [0, 1], row])) for row in rows))


def first_draw_6_4_3() -> Config:
    """The first draw of sample_config(6, 4, 3, seed=43, bound=1)."""
    rng = SplitMix64(43)
    raw = [[[rng.next_int(1) for _ in range(4)] for _ in range(6)] for _ in range(3)]
    return Config(tuple(Subspace(Mat(b)) for b in raw))


class TestSingularFrameAtThreeMembers:
    # r = 1, s = 3: the pairwise meets exist, but when all three members
    # share a line the frame they assemble is singular; GL_n preserves
    # dim(V_1 ∩ V_2 ∩ V_3), so such a triple is not in the generic orbit
    @pytest.mark.parametrize(
        "build,rank", [(common_line_triple, 1), (first_draw_6_4_3, 4)]
    )
    def test_singular_frame_is_recorded(self, build, rank):
        c = build()
        assert frame_odd(c, odd_tag(c)).rank() == rank
        assert not general_position(c)
        v = invariant_vector(c)
        assert len(v) == 0
        assert v.degeneracy == Degeneracy("intersection frame is singular")
        generic = sample_config(c.n, c.d, 3, seed=1)
        assert same_orbit_test(c, generic) is Verdict.INCONCLUSIVE
        assert same_orbit_test(generic, generic) is Verdict.EQUIVALENT


def meeting_triple() -> Config:
    """V1 = <e1, e2>, V2 = <e3, e4>, V3 = <e1, e5> in Q^5, moved by one fixed invertible matrix."""
    unit = [[int(i == j) for j in range(5)] for i in range(5)]
    pairs = ((0, 1), (2, 3), (0, 4))
    subs = [Subspace(Mat([[unit[a][i], unit[b][i]] for i in range(5)])) for a, b in pairs]
    return act_left(sample_invertible(SplitMix64(7), 5), Config(subs))


class TestMeetAtRPlusOneMembers:
    # r = 2, s = r + 1: members 1 and 2 are in direct sum and member 3 meets
    # their sum in a plane, but it meets member 1 alone in a line; GL_n
    # preserves dim(V_1 ∩ V_3), which is 0 for a generic triple
    def test_meet_is_recorded(self):
        c = meeting_triple()
        blocks = nullspace_component(c, odd_tag(c), [1, 2], 3)
        assert [b.rank() for b in blocks] == [1, 0]
        assert not general_position(c)
        v = invariant_vector(c)
        assert len(v) == 0
        assert v.degeneracy == Degeneracy(
            "member 3 meets the sum of the first 2 members other than member 2", block=3
        )
        generic = sample_config(5, 2, 3, seed=1)
        assert [b.rank() for b in nullspace_component(generic, odd_tag(generic), [1, 2], 3)] == [1, 1]
        assert same_orbit_test(c, generic) is Verdict.INCONCLUSIVE
        assert same_orbit_test(generic, generic) is Verdict.EQUIVALENT


def moved_pair(n: int, second: tuple) -> Config:
    """Planes <e1, e2> and <e_i, e_j> of Q^n, moved by one fixed invertible matrix."""
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    subs = [Subspace(Mat([[unit[a][i], unit[b][i]] for i in range(n)])) for a, b in ((0, 1), second)]
    return act_left(sample_invertible(SplitMix64(7), n), Config(subs))


class TestTrivialRangeGeneralPosition:
    # with no letters the members must still span as much as generic ones:
    # two equal planes at (3,2,2) (r = 1), two planes sharing a line at
    # (5,2,2) (r = 2)
    @pytest.mark.parametrize("n,second", [(3, (0, 1)), (5, (0, 2))], ids=["equal", "shared-line"])
    def test_recorded_and_inconclusive(self, tmp_path, capsys, n, second):
        c = moved_pair(n, second)
        v = invariant_vector(c)
        assert len(v) == 0
        assert v.degeneracy == Degeneracy("members are not in general position")
        assert not general_position(c)
        generic = sample_config(n, 2, 2, seed=1)
        assert general_position(generic) and invariant_vector(generic).degeneracy is None
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(str(a), config_to_obj(c))
        write_json(str(b), config_to_obj(generic))
        capsys.readouterr()
        assert main(["orbit-test", "--a", str(a), "--b", str(b)]) == 5
        assert capsys.readouterr().out == "Inconclusive\n"


# ---------------------------------------------------------------------------
# exact invariance of full vectors
# ---------------------------------------------------------------------------


class TestInvarianceOdd:
    @pytest.mark.parametrize(
        "n,d,s",
        [(3, 2, 5), (3, 2, 6), (5, 2, 5), (5, 2, 6), (6, 4, 5), (7, 2, 6)],
    )
    def test_exact_invariance(self, n, d, s):
        for seed in (0, 1):
            c = sample_config(n, d, s, seed=seed)
            base = invariant_vector(c).values
            rng = SplitMix64(seed + 4096)
            g = sample_invertible(rng, n)
            hs = [sample_invertible(rng, d) for _ in range(s)]
            assert invariant_vector(act_left(g, c)).values == base
            assert invariant_vector(act_right(hs, c)).values == base

    @pytest.mark.parametrize(
        "n,d,s", [(3, 2, 6), (6, 4, 6), (5, 2, 6), (7, 2, 7), (10, 4, 6)]
    )
    def test_left_action_fixes_letters(self, n, d, s):
        """A left factor leaves every letter and the degeneracy exactly unchanged, not only the traces."""
        for seed in (1, 2, 3):
            c = sample_config(n, d, s, seed=seed)
            g = sample_invertible(SplitMix64(seed + 77), n)
            assert letters(act_left(g, c))[2:] == letters(c)[2:]

    def test_vectors_separate_random_pairs(self):
        a = invariant_vector(sample_config(3, 2, 5, seed=1))
        b = invariant_vector(sample_config(3, 2, 5, seed=2))
        assert a.values != b.values
