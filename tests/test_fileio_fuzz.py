"""Malformed configuration and letters files: exit code 2 and a message, never a traceback."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planeinv import fileio
from planeinv.cli import main
from planeinv.grassmann import sample_config
from planeinv.linalg import Mat

VALID_CONFIG = fileio.config_to_obj(sample_config(4, 2, 5, seed=1), seed=1, bound=10)
VALID_LETTERS = {
    "kind": "divisible",
    "d": 2,
    "r": 2,
    "s": 5,
    "letters": {
        "G_2_2": [["1", "2"], ["3", "-4/7"]],
        "G_2_3": [["0", "1"], ["1", "0"]],
    },
}

# Never an exact rational: the file format takes a JSON integer or a string
# "p" / "p/q" in decimal digits.
bad_scalars = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(math.nan),
    st.sampled_from(
        ["1/0", "-3/0", "1.5", "1e400", "1e999999999", "nan", "inf", " 1", "1 ", "1_0",
         "0x10", "--1", "1//2", "1/-2", "/2", "2/", "½", "١"]
    ),
    st.text(alphabet="ab ./-_eE+xn", max_size=5),  # no digit: never a number
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.sampled_from(["p", "q"]), st.integers(-3, 3), max_size=2),
)
bad_rows = bad_scalars.filter(lambda x: not (isinstance(x, list) and len(x) == 2))
huge_ints = st.sampled_from([-1, 0, 10**6, 10**12, 2**63, -(2**63)])
not_ints = st.one_of(bad_scalars, st.sampled_from(["1", "4", 4.0, 1.0]))


def other_than(value, extra=st.nothing()):
    """Anything but ``value``: wrong types, booleans, floats, other integers."""
    return st.one_of(not_ints, huge_ints, st.integers(-3, 12), extra).filter(
        lambda x: not (type(x) is int and x == value)
    )


def _entries(obj, key):
    """(member, row, column) paths to the matrix entries of a file object."""
    mats = obj[key].values() if isinstance(obj[key], dict) else obj[key]
    return [
        (m, i, j)
        for m, mat in enumerate(mats)
        for i, row in enumerate(mat)
        for j in range(len(row))
    ]


@st.composite
def damaged(draw, valid, key, fields, required):
    """``valid`` with one malformed part: a field, an entry, a row or the whole."""
    obj = copy.deepcopy(valid)
    mats = obj[key] if isinstance(obj[key], list) else list(obj[key].values())
    how = draw(st.sampled_from(["field", "missing", "entry", "ragged", "rows", "matrices", "top"]))
    if how == "field":
        name = draw(st.sampled_from(sorted(fields)))
        obj[name] = draw(fields[name])
    elif how == "missing":
        del obj[draw(st.sampled_from(required))]
    elif how == "entry":
        m, i, j = draw(st.sampled_from(_entries(obj, key)))
        mats[m][i][j] = draw(bad_scalars)
    elif how == "ragged":
        row = draw(st.sampled_from([row for mat in mats for row in mat]))
        if draw(st.booleans()):
            row.pop()
        else:
            row.append("1")
    elif how == "rows":
        mat = draw(st.sampled_from(mats))
        if draw(st.booleans()):
            mat.pop()
        else:
            mat[draw(st.integers(0, len(mat) - 1))] = draw(bad_rows)
    elif how == "matrices":
        obj[key] = draw(st.one_of(bad_scalars, st.just([]), st.just({})))
    else:
        obj = draw(st.one_of(bad_scalars, st.just([VALID_CONFIG])))
    return json.dumps(obj)


bad_config_files = damaged(
    VALID_CONFIG,
    "subspaces",
    {
        "n": other_than(4),
        "d": other_than(2),
        "s": other_than(5),
        "seed": not_ints,
        "bound": not_ints,
    },
    ["n", "d", "subspaces"],
)
bad_letters_files = damaged(
    VALID_LETTERS,
    "letters",
    {
        "kind": st.one_of(bad_scalars, st.just("odd_multiple")),
        "d": other_than(2),
        "r": other_than(2, st.just(3)),
        "s": other_than(5),
    },
    ["d", "r", "s", "letters"],
)
truncated_json = st.builds(
    lambda text, cut: text[:cut],
    st.just(json.dumps(VALID_CONFIG)),
    st.integers(0, 40),
)


def run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def assert_rejected(command, text):
    """``text`` (str, or bytes written as they are) is rejected; returns the message."""
    with tempfile.TemporaryDirectory() as tmp:
        bad, good, out = Path(tmp, "bad.json"), Path(tmp, "good.json"), Path(tmp, "out.json")
        if isinstance(text, bytes):
            bad.write_bytes(text)
        else:
            bad.write_text(text)
        good.write_text(json.dumps(VALID_CONFIG))
        argv = {
            "invariants": ["invariants", "--in", bad, "--out", out],
            "orbit-test": ["orbit-test", "--a", good, "--b", bad],
            "rank": ["rank", "--in", bad],
            "embed": ["embed", "--in", bad, "--out", out],
        }[command]
        code, err = run_quietly(argv)
        assert code == 2, (command, text, code, err)
        assert err.startswith("error: ") and len(err) > len("error: \n"), err
        assert not out.exists()
        return err.replace(str(bad), "<bad>")


commands = st.sampled_from(["invariants", "orbit-test", "rank", "embed"])


class TestMalformedFiles:
    @given(commands, st.one_of(bad_config_files, bad_letters_files, truncated_json))
    @settings(max_examples=500, deadline=None)
    def test_exits_2_with_message(self, command, text):
        assert_rejected(command, text)

    @pytest.mark.parametrize(
        "data",
        [b"[" * 100_000, b'{"n": "\xff"}'],
        ids=["nested-100000-deep", "not-utf-8"],
    )
    @pytest.mark.parametrize("command", ["invariants", "orbit-test", "rank", "embed"])
    def test_undecodable_file_named(self, command, data):
        # the parser's RecursionError and the decoder's UnicodeDecodeError
        err = assert_rejected(command, data)
        assert err.startswith("error: <bad> is not valid JSON: "), err

    def test_valid_files_accepted(self):
        # the undamaged objects are what the strategies damage
        with tempfile.TemporaryDirectory() as tmp:
            cfg, letters = Path(tmp, "c.json"), Path(tmp, "l.json")
            cfg.write_text(json.dumps(VALID_CONFIG))
            letters.write_text(json.dumps(VALID_LETTERS))
            assert run_quietly(["rank", "--in", cfg])[0] == 0
            assert run_quietly(["embed", "--in", letters, "--out", Path(tmp, "o.json")])[0] == 0

    def test_boolean_dimension_rejected(self):
        obj = fileio.config_to_obj(sample_config(2, 1, 4, seed=1))
        obj["d"] = True
        assert_rejected("invariants", json.dumps(obj))

    def test_huge_letter_grid_rejected_quickly(self):
        # the id set of an (r, s) = (2, 10**12) grid must never be built
        obj = dict(VALID_LETTERS, s=10**12)
        assert_rejected("embed", json.dumps(obj))

    @pytest.mark.parametrize("text", ["1.5", "1e999999999", " 1", "1_0", "١"])
    def test_only_integer_and_fraction_strings(self, text):
        # the stdlib parser takes each of these, "1e999999999" at great cost
        obj = copy.deepcopy(VALID_CONFIG)
        obj["subspaces"][0][0][0] = text
        assert_rejected("rank", json.dumps(obj))


# ---------------------------------------------------------------------------
# the one-pass integer route of _parse_matrix against the per-entry route
# ---------------------------------------------------------------------------

long_digits = st.sampled_from(["7" * 5000, "-" + "3" * 5000, "+" + "1" * 5000, "1/" + "9" * 5000])
integer_strings = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.integers(0, 10**6).map(lambda p: f"+{p}"),
    st.integers(0, 99).map(lambda p: f"-0{p}"),
)
any_entry = st.one_of(
    integer_strings,
    st.integers(-(10**6), 10**6),
    st.booleans(),
    st.floats(allow_nan=True),
    st.none(),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(0, 99)),
    st.sampled_from([" 5", "5 ", "1 2", "٥", "1_0", "", "-", "+-1", "0x10"]),
    long_digits,
)


@st.composite
def entry_grids(draw):
    """(rows, nrows, ncols): integer strings with up to two entries of any kind, or any entries."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = draw(st.sampled_from([integer_strings, any_entry]))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, nrows - 1))][draw(st.integers(0, ncols - 1))] = draw(any_entry)
    return rows, nrows, ncols


def parsed(read):
    """The matrix ``read()`` gives, or the text of the ValueError it raises."""
    try:
        return read()
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestOnePassParse:
    @given(entry_grids())
    @settings(max_examples=400, deadline=None)
    def test_same_matrix_or_error_as_per_entry(self, grid):
        rows, nrows, ncols = grid
        want = parsed(lambda: Mat._ratios([[fileio._rat_parts(x) for x in row] for row in rows], ncols))
        assert parsed(lambda: fileio._parse_matrix(rows, nrows, ncols, "m")) == want

    def test_integer_matrix_over_denominator_one(self):
        m = fileio._parse_matrix([["-4", "+6"], ["08", "2"]], 2, 2, "m")
        assert (m.num, m.den, m.k) == ([[-4, 6], [8, 2]], 1, None)
