"""Command-line interface: subcommands, file formats, exit codes."""

import dataclasses
import json
import os
import stat
import sys
from fractions import Fraction

import pytest
from test_orbit import spy_on_words

from planeinv import fileio, grassmann, orbit
from planeinv.cli import main
from planeinv.divisible import embed
from planeinv.grassmann import Config, SplitMix64, Subspace, act_left, sample_config, sample_invertible
from planeinv.linalg import Mat

# ---------------------------------------------------------------------------
# rational serialization
# ---------------------------------------------------------------------------


# int(str) refuses over 4300 digits only where the interpreter limits it
# (Python 3.10.7 and later, unless the limit is switched off)
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not 0 < _DIGIT_LIMIT < 4301, reason="no int string-length limit below 4301 digits"
)


class TestRationalFormat:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(3, 4), "3/4"),
            (Fraction(-3, 4), "-3/4"),
            (Fraction(5), "5"),
            (Fraction(0), "0"),
            (Fraction(6, 4), "3/2"),
        ],
    )
    def test_roundtrip(self, value, text):
        assert fileio.format_rat(value) == text
        assert Fraction(*fileio._rat_parts(text)) == value

    def test_parse_integer_json_number(self):
        assert fileio._rat_parts(7) == (7, 1)

    def test_reject_garbage(self):
        for bad in ("1/0", "a/b", "", "1.5.2", True, None, [1]):
            with pytest.raises((ValueError, ZeroDivisionError)):
                fileio._rat_parts(bad)

    @pytest.mark.parametrize(
        "text,value",
        [("+3/4", Fraction(3, 4)), ("-0/5", Fraction(0)), ("-6/4", Fraction(-3, 2)), ("007/010", Fraction(7, 10))],
    )
    def test_signs_and_zeros(self, text, value):
        p, q = fileio._rat_parts(text)
        assert Fraction(p, q) == value and type(p) is type(q) is int and q > 0

    @pytest.mark.parametrize(
        "text",
        ["1/0", "-0/0"]
        + [
            pytest.param(text, marks=_NEEDS_DIGIT_LIMIT)
            for text in ("1" * 4301, "-" + "2" * 4301 + "/3", "1/" + "9" * 4301)
        ],
    )
    def test_error_text_is_the_stdlib_parsers(self, text):
        # the message names the value and the reason Fraction(text) gives
        with pytest.raises((ValueError, ZeroDivisionError)) as stdlib:
            Fraction(text)
        with pytest.raises(ValueError) as got:
            fileio._rat_parts(text)
        assert str(got.value) == f"not a rational value: {text[:40]!r} ({stdlib.value})"


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        c = sample_config(4, 2, 5, seed=17)
        path = tmp_path / "c.json"
        fileio.write_json(path, fileio.config_to_obj(c))
        back = fileio.config_from_obj(fileio.load_json(path))
        assert back.matrix().data == c.matrix().data

    def test_missing_field_rejected(self):
        obj = fileio.config_to_obj(sample_config(4, 2, 5, seed=17))
        del obj["subspaces"]
        with pytest.raises(ValueError):
            fileio.config_from_obj(obj)

    def test_writes_member_count(self):
        obj = fileio.config_to_obj(sample_config(4, 2, 5, seed=17))
        assert list(obj) == ["n", "d", "s", "subspaces"] and obj["s"] == 5

    @pytest.mark.parametrize(
        "key,value",
        [("s", 4), ("s", "5"), ("s", True), ("seed", "1"), ("seed", 1.5),
         ("bound", None), ("bound", True)],
    )
    def test_bad_provenance_exits_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "c.json"
        assert run("gen", "--n", 4, "--d", 2, "--s", 5, "--seed", 1, "--out", path) == 0
        obj = json.loads(path.read_text())
        obj[key] = value
        path.write_text(json.dumps(obj))
        assert run("rank", "--in", path) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int string-length limit"
    )
    @pytest.mark.parametrize("command", ["rank", "invariants", "orbit-test"])
    def test_number_over_the_digit_limit_names_the_file(self, tmp_path, capsys, command):
        # json.load reads a JSON number with int(), which refuses one longer
        # than the limit with a plain ValueError, not a JSONDecodeError
        path = tmp_path / "c.json"
        path.write_text('{"n": %s, "d": 2, "subspaces": []}' % ("9" * 5000))
        args = {
            "rank": ("--in", path),
            "invariants": ("--in", path, "--out", tmp_path / "v.json"),
            "orbit-test": ("--a", path, "--b", path),
        }[command]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert run(command, *args) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not valid JSON: "), err
        assert "4300" in err

    def test_provenance_optional(self):
        obj = fileio.config_to_obj(sample_config(4, 2, 5, seed=17))
        del obj["s"]
        assert fileio.config_from_obj(obj).s == 5

    def test_dependent_columns_rejected(self):
        obj = fileio.config_to_obj(sample_config(4, 2, 2, seed=17))
        col = obj["subspaces"][0]
        for row in col:
            row[1] = row[0]
        with pytest.raises(ValueError):
            fileio.config_from_obj(obj)


# ---------------------------------------------------------------------------
# invariants files
# ---------------------------------------------------------------------------


def invariants_to_obj(vec):
    """The invariants-file object, for ``json.dumps``: the layout oracle."""
    obj = {
        "case": {"kind": vec.case.kind, "r": vec.case.r, "e": vec.case.e, "k": len(vec.letter_ids)},
        "n": vec.n,
        "d": vec.d,
        "s": vec.s,
        "max_word_len": vec.max_word_len,
        "letters": list(vec.letter_ids),
        "invariants": [
            {"word": [vec.letter_ids[k] for k in word], "value": fileio.format_rat(value)}
            for word, value in vec.entries
        ],
    }
    if not vec.letter_ids:
        obj["note"] = (
            "trivial range: every general-position configuration of this shape "
            "lies in one dense orbit, so there are no invariants"
        )
    return obj


class TestInvariantsLayout:
    """``write_invariants`` writes the bytes ``json.dumps(..., indent=2)`` gives the file object."""

    @staticmethod
    def assert_layout(tmp_path, vec):
        path = tmp_path / "v.json"
        fileio.write_invariants(path, vec)
        want = json.dumps(invariants_to_obj(vec), ensure_ascii=False, indent=2) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("cut", [0, 1, 2, 3, None])
    @pytest.mark.parametrize(
        "shape",
        [
            (4, 2, 5),  # divisible, r = 2
            (6, 4, 5),  # odd multiple, r = 1
            (5, 2, 6),  # odd multiple, r = 2
            (4, 2, 4),  # one letter
            (4, 2, 3),  # trivial range: no letters, a note
            (3, 2, 4),  # trivial range, odd multiple
        ],
    )
    def test_matches_json_dumps(self, tmp_path, shape, cut):
        # the writer lays out any entries: here the words up to length ``cut``
        # (all of them for None), so files with 0, 1 or a few entries are covered
        vec = orbit.invariant_vector(sample_config(*shape, seed=1))
        if cut is not None:
            keep = [len(w) <= cut for w in vec.words]
            vec = dataclasses.replace(
                vec,
                words=tuple(w for w, k in zip(vec.words, keep) if k),
                parts=tuple(p for p, k in zip(vec.parts, keep) if k),
            )
        self.assert_layout(tmp_path, vec)

    def test_letter_ids_escaped_as_json_dumps_escapes(self, tmp_path):
        vec = orbit.invariant_vector(sample_config(4, 2, 5, seed=1))
        self.assert_layout(tmp_path, dataclasses.replace(vec, letter_ids=('G_"\\é', "G\t\u2028")))


# ---------------------------------------------------------------------------
# subcommands, driven in-process through main()
# ---------------------------------------------------------------------------


def run(*argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_writes_valid_config(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("gen", "--n", 4, "--d", 2, "--s", 5, "--seed", 1,
                   "--out", out) == 0
        c = fileio.config_from_obj(fileio.load_json(out))
        assert (c.n, c.d, c.s) == (4, 2, 5)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "--n", 3, "--d", 2, "--s", 5, "--seed", 9, "--out", a)
        run("gen", "--n", 3, "--d", 2, "--s", 5, "--seed", 9, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_unsupported_shape_exits_2(self, tmp_path, capsys):
        code = run("gen", "--n", 5, "--d", 3, "--s", 4, "--seed", 1,
                   "--out", tmp_path / "x.json")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_singular_frame_draw_skipped(self, tmp_path):
        # the seed's first draw has a singular intersection frame
        out = tmp_path / "c.json"
        assert run("gen", "--n", 3, "--d", 2, "--s", 6, "--seed", 3871074876,
                   "--out", out) == 0
        assert fileio.config_from_obj(fileio.load_json(out)).s == 6

    def test_writes_provenance_in_readme_order(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("gen", "--n", 4, "--d", 2, "--s", 5, "--seed", 1,
                   "--bound", 7, "--out", out) == 0
        obj = json.loads(out.read_text())
        assert list(obj) == ["n", "d", "s", "seed", "bound", "subspaces"]
        assert (obj["s"], obj["seed"], obj["bound"]) == (5, 1, 7)

    def test_bound_flag(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("gen", "--n", 4, "--d", 2, "--s", 5, "--seed", 1,
                   "--bound", 3, "--out", out) == 0
        c = fileio.config_from_obj(fileio.load_json(out))
        entries = [v for row in c.matrix().data for v in row]
        assert all(-3 <= v <= 3 for v in entries)


class TestInvariantsCmd:
    def test_writes_vector_file(self, tmp_path):
        cfg, vec = tmp_path / "c.json", tmp_path / "v.json"
        run("gen", "--n", 4, "--d", 2, "--s", 5, "--seed", 1, "--out", cfg)
        assert run("invariants", "--in", cfg, "--out", vec) == 0
        obj = json.loads(vec.read_text())
        assert obj["case"]["kind"] == "divisible"
        assert obj["letters"] == ["G_2_2", "G_2_3"]
        assert len(obj["invariants"]) == 9
        for entry in obj["invariants"]:
            Fraction(str(entry["value"]))  # parseable exact rational

    def test_trivial_range_notes_empty_vector(self, tmp_path):
        cfg, vec = tmp_path / "c.json", tmp_path / "v.json"
        run("gen", "--n", 4, "--d", 2, "--s", 3, "--seed", 1, "--out", cfg)
        assert run("invariants", "--in", cfg, "--out", vec) == 0
        obj = json.loads(vec.read_text())
        assert obj["invariants"] == []
        assert "note" in obj

    def test_recorded_degeneracy_warns_on_stderr(self, tmp_path, capsys):
        # a singular letter leaves the letters defined, so the file is
        # written and the exit code is 0; the reduction's reason, which
        # `rank` reports as an error, goes to stderr
        cfg, vec, ref = tmp_path / "c.json", tmp_path / "v.json", tmp_path / "ref.json"
        letters = (Mat([[1, 2], [2, 4]]), Mat([[0, 1], [1, 0]]))
        fileio.write_json(cfg, fileio.config_to_obj(embed(2, 2, 5, letters)))
        capsys.readouterr()
        assert run("invariants", "--in", cfg, "--out", vec) == 0
        out, err = capsys.readouterr()
        assert out == f"wrote {vec} (9 invariants over 2 letters)\n"
        assert err == "warning: phi block (2, 2) is singular (member 4)\n"
        config = fileio.config_from_obj(fileio.load_json(cfg))
        fileio.write_invariants(ref, orbit.invariant_vector(config))
        assert vec.read_bytes() == ref.read_bytes()
        assert run("rank", "--in", cfg) == 4
        assert capsys.readouterr().err == "error: phi block (2, 2) is singular\n"

    def test_general_position_writes_no_warning(self, tmp_path, capsys):
        cfg, vec = tmp_path / "c.json", tmp_path / "v.json"
        run("gen", "--n", 7, "--d", 2, "--s", 7, "--seed", 1, "--out", cfg)
        capsys.readouterr()
        assert run("invariants", "--in", cfg, "--out", vec) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["invariants", "orbit-test", "rank"])
    def test_takes_no_max_len(self, tmp_path, capsys, command):
        # every command takes every word up to the generating length
        cfg, vec = tmp_path / "c.json", tmp_path / "v.json"
        run("gen", "--n", 4, "--d", 2, "--s", 5, "--seed", 1, "--out", cfg)
        files = {
            "invariants": ("--in", cfg, "--out", vec),
            "orbit-test": ("--a", cfg, "--b", cfg),
            "rank": ("--in", cfg),
        }[command]
        capsys.readouterr()
        assert run(command, *files, "--max-len", 3) == 2
        assert "unrecognized arguments: --max-len 3" in capsys.readouterr().err
        assert not vec.exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = run("invariants", "--in", tmp_path / "nope.json",
                   "--out", tmp_path / "v.json")
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestOrbitTestCmd:
    def _two_configs(self, tmp_path, seed_a, seed_b, n=4, d=2, s=5):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "--n", n, "--d", d, "--s", s, "--seed", seed_a, "--out", a)
        run("gen", "--n", n, "--d", d, "--s", s, "--seed", seed_b, "--out", b)
        return a, b

    def test_equivalent_exits_0(self, tmp_path, capsys):
        a, _ = self._two_configs(tmp_path, 1, 2)
        assert run("orbit-test", "--a", a, "--b", a) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "Equivalent"

    def test_distinct_exits_3(self, tmp_path, capsys):
        a, b = self._two_configs(tmp_path, 1, 2)
        assert run("orbit-test", "--a", a, "--b", b) == 3
        assert capsys.readouterr().out.strip().splitlines()[-1] == "Distinct"

    def test_inconclusive_exits_5(self, tmp_path, capsys):
        a, b = self._two_configs(tmp_path, 1, 2)
        deg = tmp_path / "deg.json"
        c = sample_config(4, 2, 5, seed=1)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        fileio.write_json(deg, fileio.config_to_obj(Config(tuple(subs))))
        assert run("orbit-test", "--a", deg, "--b", b) == 5
        assert capsys.readouterr().out.strip().splitlines()[-1] == "Inconclusive"

    @pytest.mark.parametrize("n,d", [(3, 2), (6, 4)])
    def test_singular_frame_at_three_members_exits_5(self, tmp_path, capsys, n, d):
        # r = 1, s = 3 with a singular intersection frame: at (3, 2) three
        # planes through (1, 1, 1), at (6, 4) the first draw of
        # gen --n 6 --d 4 --s 3 --seed 43 --bound 1 (frame rank 4 of 6)
        if n == 3:
            rows = ([0, 1], [1, 0], [2, -1])
            subs = [Subspace(Mat([[1, 0], [0, 1], row])) for row in rows]
        else:
            rng = SplitMix64(43)
            subs = [
                Subspace(Mat([[rng.next_int(1) for _ in range(d)] for _ in range(n)]))
                for _ in range(3)
            ]
        deg, b = tmp_path / "deg.json", tmp_path / "b.json"
        fileio.write_json(deg, fileio.config_to_obj(Config(tuple(subs))))
        run("gen", "--n", n, "--d", d, "--s", 3, "--seed", 1, "--out", b)
        assert run("orbit-test", "--a", deg, "--b", b) == 5
        assert capsys.readouterr().out.strip().splitlines()[-1] == "Inconclusive"

    def test_meet_at_r_plus_one_members_exits_5(self, tmp_path, capsys):
        # (5, 2, 3): V3 = <e1, e5> meets V1 = <e1, e2> in a line, V2 = <e3, e4>
        unit = [[int(i == j) for j in range(5)] for i in range(5)]
        pairs = ((0, 1), (2, 3), (0, 4))
        subs = [Subspace(Mat([[unit[a][i], unit[b][i]] for i in range(5)])) for a, b in pairs]
        deg, b = tmp_path / "deg.json", tmp_path / "b.json"
        fileio.write_json(deg, fileio.config_to_obj(act_left(sample_invertible(SplitMix64(7), 5), Config(subs))))
        run("gen", "--n", 5, "--d", 2, "--s", 3, "--seed", 1, "--out", b)
        assert run("orbit-test", "--a", deg, "--b", b) == 5
        assert capsys.readouterr().out.strip().splitlines()[-1] == "Inconclusive"

    def test_short_word_agreement_exits_3(self, tmp_path, capsys):
        # these letter pairs agree on every word of length 1 and differ at 2
        paths = []
        for name, second in (("a", [[2, 0], [0, 1]]), ("b", [[1, 0], [0, 2]])):
            config = embed(2, 2, 5, (Mat([[1, 0], [0, 2]]), Mat(second)))
            path = tmp_path / f"{name}.json"
            fileio.write_json(path, fileio.config_to_obj(config))
            paths.append(path)
        a, b = paths
        assert run("orbit-test", "--a", a, "--b", b) == 3
        assert capsys.readouterr().out.strip().splitlines()[-1] == "Distinct"

    def test_triangular_letters_against_their_diagonal_exit_3(self, tmp_path, capsys):
        # T = [[1, 1], [0, 2]] and diag(1, 2), each with diag(3, 5): every
        # word trace agrees, but the letters are not conjugate
        paths = []
        for name, first in (("tri", [[1, 1], [0, 2]]), ("diag", [[1, 0], [0, 2]])):
            config = embed(2, 2, 5, (Mat(first), Mat([[3, 0], [0, 5]])))
            path = tmp_path / f"{name}.json"
            fileio.write_json(path, fileio.config_to_obj(config))
            paths.append(path)
        tri, diag = paths
        assert run("orbit-test", "--a", tri, "--b", diag) == 3
        assert capsys.readouterr().out.strip().splitlines()[-1] == "Distinct"
        assert run("orbit-test", "--a", tri, "--b", tri) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "Equivalent"

    def test_calls_no_word_function(self, tmp_path, monkeypatch):
        a, b = self._two_configs(tmp_path, 1, 2, 6, 3, 6)
        called = spy_on_words(monkeypatch)
        assert run("orbit-test", "--a", a, "--b", a) == 0
        assert run("orbit-test", "--a", a, "--b", b) == 3
        assert called == []

    def test_shape_mismatch_exits_2(self, tmp_path):
        a, _ = self._two_configs(tmp_path, 1, 2)
        c = tmp_path / "c.json"
        run("gen", "--n", 4, "--d", 2, "--s", 4, "--seed", 3, "--out", c)
        assert run("orbit-test", "--a", a, "--b", c) == 2


class TestRankCmd:
    def test_prints_rank_and_expected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        run("gen", "--n", 3, "--d", 2, "--s", 5, "--seed", 202, "--out", cfg)
        assert run("rank", "--in", cfg) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert out == "rank 2 / expected 2"

    def test_single_letter_expects_letter_size(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        run("gen", "--n", 4, "--d", 2, "--s", 4, "--seed", 505, "--out", cfg)
        assert run("rank", "--in", cfg) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert out == "rank 2 / expected 2"

    def test_special_point_prints_exact_rank(self, tmp_path, capsys):
        # commuting letters diag(1,2), diag(2,1): the rank falls below the count
        letters = tmp_path / "letters.json"
        letters.write_text(json.dumps({
            "kind": "divisible", "d": 2, "r": 2, "s": 5,
            "letters": {"G_2_2": [[1, 0], [0, 2]], "G_2_3": [[2, 0], [0, 1]]},
        }))
        cfg = tmp_path / "c.json"
        assert run("embed", "--in", letters, "--out", cfg) == 0
        assert run("rank", "--in", cfg) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert out == "rank 4 / expected 5"

    def test_degenerate_exits_4(self, tmp_path, capsys):
        deg = tmp_path / "deg.json"
        c = sample_config(4, 2, 5, seed=1)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        fileio.write_json(deg, fileio.config_to_obj(Config(tuple(subs))))
        assert run("rank", "--in", deg) == 4
        assert "error:" in capsys.readouterr().err

    def test_degenerate_odd_r1_names_the_kernel(self, tmp_path, capsys):
        # the rational pass at r = 1 raises what the reduction over jets raised
        deg = tmp_path / "deg.json"
        c = sample_config(3, 2, 6, seed=1)
        subs = list(c.subspaces)
        subs[1] = subs[0]
        fileio.write_json(deg, fileio.config_to_obj(Config(tuple(subs))))
        assert run("rank", "--in", deg) == 4
        assert capsys.readouterr().err.strip() == (
            "error: intersection kernel of blocks [1] with block 2 has dimension 2, expected 1"
        )


# The r = 3 letters file of CI's embed pins: four letters, one with a 1/3 entry.
R3_LETTERS = {
    "G_2_2": [["1", "2"], ["3", "4"]],
    "G_2_3": [["0", "1"], ["1", "0"]],
    "G_3_2": [["2", "0"], ["1", "1/3"]],
    "G_3_3": [["-1", "5"], ["0", "7"]],
}


def write_r3_letters(tmp_path):
    path = tmp_path / "letters.json"
    path.write_text(json.dumps({"kind": "divisible", "d": 2, "r": 3, "s": 6, "letters": R3_LETTERS}))
    return path


class TestEmbedCmd:
    def _letters_file(self, tmp_path):
        path = tmp_path / "letters.json"
        obj = {
            "kind": "divisible",
            "d": 2,
            "r": 2,
            "s": 5,
            "letters": {
                "G_2_2": [["1", "2"], ["3", "4"]],
                "G_2_3": [["0", "1"], ["1", "0"]],
            },
        }
        path.write_text(json.dumps(obj))
        return path

    def test_embed_then_extract_roundtrip(self, tmp_path):
        letters = self._letters_file(tmp_path)
        out = tmp_path / "emb.json"
        assert run("embed", "--in", letters, "--out", out) == 0
        cfg = fileio.config_from_obj(fileio.load_json(out))
        vec = tmp_path / "v.json"
        fileio.write_json(tmp_path / "cfg.json", fileio.config_to_obj(cfg))
        assert run("invariants", "--in", tmp_path / "cfg.json",
                   "--out", vec) == 0
        obj = json.loads(vec.read_text())
        assert obj["letters"] == ["G_2_2", "G_2_3"]
        # trace of G_2_2 must equal trace of the prescribed letter: 1 + 4
        first = next(
            e for e in obj["invariants"] if e["word"] == ["G_2_2"]
        )
        assert first["value"] == "5"

    def test_letters_land_by_id(self, tmp_path):
        # at r = 3 a letter read out of letter_ids order lands in the wrong block
        path, out = write_r3_letters(tmp_path), tmp_path / "emb.json"
        assert run("embed", "--in", path, "--out", out) == 0
        _, ids, mats, _ = orbit.letters(fileio.config_from_obj(fileio.load_json(out)))
        assert {i: fileio._format_matrix(m) for i, m in zip(ids, mats)} == R3_LETTERS

    def test_wrong_letter_set_exits_2(self, tmp_path, capsys):
        path = tmp_path / "letters.json"
        obj = json.loads(self._letters_file(tmp_path).read_text())
        del obj["letters"]["G_2_3"]
        path.write_text(json.dumps(obj))
        assert run("embed", "--in", path, "--out", tmp_path / "o.json") == 2
        assert "error:" in capsys.readouterr().err


def spy_on_letters(monkeypatch):
    """The configuration of every ``orbit.letters`` pass from now on, in order."""
    configs = []
    letters = orbit.letters
    monkeypatch.setattr(orbit, "letters", lambda config: configs.append(config) or letters(config))
    return configs


class TestOneReductionPerConfiguration:
    """Every command reduces each configuration it reads once, through ``orbit.letters``."""

    def write(self, tmp_path, *shape, seed=1):
        path = tmp_path / f"c{seed}.json"
        fileio.write_json(path, fileio.config_to_obj(sample_config(*shape, seed=seed)))
        return path

    def test_invariants(self, tmp_path, monkeypatch):
        cfg = self.write(tmp_path, 4, 2, 5)
        passes = spy_on_letters(monkeypatch)
        assert run("invariants", "--in", cfg, "--out", tmp_path / "v.json") == 0
        assert len(passes) == 1

    def test_orbit_test(self, tmp_path, monkeypatch):
        a, b = (self.write(tmp_path, 7, 2, 7, seed=seed) for seed in (1, 2))
        passes = spy_on_letters(monkeypatch)
        assert run("orbit-test", "--a", a, "--b", b) == 3
        assert len(passes) == 2

    def test_embed(self, tmp_path, monkeypatch):
        letters = tmp_path / "letters.json"
        letters.write_text(json.dumps({
            "kind": "divisible", "d": 2, "r": 2, "s": 5,
            "letters": {"G_2_2": [[1, 2], [3, 4]], "G_2_3": [[0, 1], [1, 0]]},
        }))
        passes = spy_on_letters(monkeypatch)
        assert run("embed", "--in", letters, "--out", tmp_path / "o.json") == 0
        assert len(passes) == 1

    def test_gen_once_per_attempt(self, tmp_path, monkeypatch):
        # the seed's first draw has a singular intersection frame
        attempts = []
        general_position = grassmann.general_position
        monkeypatch.setattr(grassmann, "general_position", lambda c: attempts.append(c) or general_position(c))
        passes = spy_on_letters(monkeypatch)
        assert run("gen", "--n", 3, "--d", 2, "--s", 6, "--seed", 3871074876, "--out", tmp_path / "c.json") == 0
        assert len(attempts) == 2
        assert passes == attempts

    @pytest.mark.parametrize("shape", [(4, 2, 5), (3, 2, 6)], ids=["divisible", "odd-r1"])
    def test_rank_by_letters(self, tmp_path, monkeypatch, shape):
        cfg = self.write(tmp_path, *shape)
        passes = spy_on_letters(monkeypatch)
        assert run("rank", "--in", cfg) == 0
        (reduced,) = passes
        assert all(sub.basis.k is None for sub in reduced)

    def test_rank_by_one_certified_jet_pass(self, tmp_path, monkeypatch):
        cfg = self.write(tmp_path, 5, 2, 5)
        passes = spy_on_letters(monkeypatch)
        assert run("rank", "--in", cfg) == 0
        (reduced,) = passes
        assert any(sub.basis.k for sub in reduced)


class TestNoFraction:
    """No command builds a ``Fraction``: values stay integer parts from the file read to the file written."""

    def test_commands(self, tmp_path, monkeypatch):
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        cfg, other = tmp_path / "c.json", tmp_path / "o.json"
        argvs = {
            "gen": ["gen", "--n", 6, "--d", 3, "--s", 6, "--seed", 1, "--out", cfg],
            "invariants": ["invariants", "--in", cfg, "--out", tmp_path / "v.json"],
            "rank": ["rank", "--in", cfg],
            "orbit-test": ["orbit-test", "--a", cfg, "--b", cfg],
            "embed": ["embed", "--in", write_r3_letters(tmp_path), "--out", other],
        }
        counts = {}
        for command, argv in argvs.items():
            built.clear()
            assert run(*argv) == 0
            counts[command] = len(built)
        assert counts == dict.fromkeys(argvs, 0)
        # the patch counts: reading the values builds one Fraction per entry
        assert len(orbit.invariant_vector(fileio.config_from_obj(fileio.load_json(cfg))).values) == 540
        assert len(built) == 540


class TestBadOut:
    """An ``--out`` that cannot be written exits 2 with a message and leaves no temp file."""

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    @pytest.mark.parametrize("command", ["gen", "invariants", "embed"])
    def test_exits_2(self, tmp_path, capsys, command, where):
        cfg, letters = tmp_path / "c.json", tmp_path / "letters.json"
        run("gen", "--n", 4, "--d", 2, "--s", 5, "--seed", 1, "--out", cfg)
        letters.write_text(json.dumps({
            "kind": "divisible", "d": 2, "r": 2, "s": 5,
            "letters": {"G_2_2": [[1, 2], [3, 4]], "G_2_3": [[0, 1], [1, 0]]},
        }))
        out = tmp_path / "missing" / "o.json"
        if where == "directory":
            out = tmp_path / "taken"
            out.mkdir()
        args = {
            "gen": ("--n", 4, "--d", 2, "--s", 5, "--seed", 1),
            "invariants": ("--in", cfg),
            "embed": ("--in", letters),
        }[command]
        capsys.readouterr()
        assert run(command, *args, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: " in err and "Traceback" not in err
        assert not list(tmp_path.rglob(".tmp-*.json"))


class TestFileMode:
    """Output files get mode 0o666 less the umask, as ``open`` would give them."""

    @pytest.mark.parametrize("command", ["gen", "invariants", "embed"])
    def test_umask_022_gives_0644(self, tmp_path, command):
        cfg, letters, out = tmp_path / "c.json", tmp_path / "letters.json", tmp_path / "o.json"
        letters.write_text(json.dumps({
            "kind": "divisible", "d": 2, "r": 2, "s": 5,
            "letters": {"G_2_2": [[1, 2], [3, 4]], "G_2_3": [[0, 1], [1, 0]]},
        }))
        args = {
            "gen": ("--n", 4, "--d", 2, "--s", 5, "--seed", 1),
            "invariants": ("--in", cfg),
            "embed": ("--in", letters),
        }[command]
        old = os.umask(0o022)
        try:
            assert run("gen", "--n", 4, "--d", 2, "--s", 5, "--seed", 1, "--out", cfg) == 0
            assert run(command, *args, "--out", out) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        assert not list(tmp_path.glob(".tmp-*.json"))


class TestArgparseBehavior:
    def test_no_subcommand_exits_2(self, capsys):
        assert run() == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert run("gen", "--whatever", 3) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert run("--help") == 0
        assert "planeinv" in capsys.readouterr().out
