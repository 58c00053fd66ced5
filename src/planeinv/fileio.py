"""JSON file formats: configurations, invariant vectors, letters files.

All rational values are serialized as reduced strings "p/q" (denominator
omitted when it is 1) -- never floats, so parse/serialize roundtrips are
lossless.  They are formatted from integer parts by one rule, with no
``Fraction``: a matrix entry from the form's numerator and denominator,
reduced by one gcd, and an invariant value from the vector's reduced
parts.  Files are UTF-8 in the layout of ``json.dumps(obj,
ensure_ascii=False, indent=2)``: two-space indent, keys in a fixed order,
newline-terminated.  Configuration files go through ``json.dumps``
(:func:`write_json`); the invariants file is written from the vector in one
pass (:func:`write_invariants`).  Both are written atomically (temp file +
rename, mode from the umask), so a failed command never leaves a partial
output file behind.

Matrices are read into the integer form of :class:`~planeinv.linalg.Mat`
with no ``Fraction``.  A matrix of integer strings, the only entries
``gen`` writes, is matched and converted in one pass over denominator 1;
any other matrix is read entry by entry (:func:`_rat_parts`), which takes
JSON integers and ``"p/q"`` strings and names the first bad entry.  Both
routes build the same form, and every error is the entry-by-entry one.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from json.encoder import encode_basestring
from math import gcd

from . import divisible
from .errors import RankDeficientError
from .grassmann import CaseTag, Config, Subspace
from .linalg import Mat
from .words import InvariantVector


def _format_parts(p: int, q: int) -> str:
    """The string form of the reduced ratio ``p / q``, ``q > 0``: "p", or "p/q" when ``q > 1``."""
    return str(p) if q == 1 else f"{p}/{q}"


def format_rat(x: Fraction) -> str:
    return _format_parts(x.numerator, x.denominator)


# The string form of a rational: "p" or "p/q" in ASCII decimal digits.  The
# stdlib parser also takes decimals and exponents ("1e999999999" would build
# a billion-digit integer), so strings are matched against this first; a
# match is then split at "/" and its parts read by int().
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _rat_parts(value) -> tuple[int, int]:
    """``(p, q)`` with ``q > 0`` and ``value == p / q``; any other value raises ``ValueError``, naming it."""
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        num, _, den = value.partition("/")
        try:
            p, q = int(num), int(den or 1)
            if not q:
                Fraction(p, q)  # raises the stdlib's ZeroDivisionError
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational value: {value[:40]!r} ({exc})") from None
        return p, q
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    raise ValueError(f"not a rational value: {value!r:.40}")


# The string form of an integer, the only entries `gen` writes.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_matrix(rows, nrows: int, ncols: int, what: str) -> Mat:
    """The matrix of ``rows`` of rational values, built in its integer form with no ``Fraction``.

    A matrix of integer strings is matched and converted in one pass, over
    denominator 1.  Any other entry stops that pass: a non-string raises
    ``TypeError`` in the match, a string that is not an integer leaves no
    match, whose indexing raises ``TypeError``, and an integer past
    ``int()``'s digit limit raises ``ValueError``.  The matrix is then read
    entry by entry (:func:`_rat_parts`), which builds the same form and
    names the first bad entry.
    """
    if (
        not isinstance(rows, list)
        or len(rows) != nrows
        or any(not isinstance(r, list) or len(r) != ncols for r in rows)
    ):
        raise ValueError(f"{what} must be {nrows} rows x {ncols} columns")
    match = _INTEGER.fullmatch
    try:
        return Mat._form([[int(match(x)[0]) for x in row] for row in rows], 1, ncols)
    except (TypeError, ValueError):
        return Mat._ratios([[_rat_parts(x) for x in row] for row in rows], ncols)


def _format_matrix(m: Mat) -> list[list[str]]:
    """The entries of the rational ``m`` as strings, each reduced from its form by one gcd."""
    den = m.den
    out = []
    for row in m.num:
        gs = [gcd(x, den) for x in row]
        out.append([_format_parts(x // g, den // g) for x, g in zip(row, gs)])
    return out


def config_to_obj(config: Config, seed: int | None = None, bound: int | None = None) -> dict:
    """The configuration-file object; ``seed`` and ``bound`` are written when given."""
    obj = {"n": config.n, "d": config.d, "s": config.s}
    if seed is not None:
        obj["seed"] = seed
    if bound is not None:
        obj["bound"] = bound
    obj["subspaces"] = [_format_matrix(sub.basis) for sub in config]
    return obj


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def config_from_obj(obj) -> Config:
    if not isinstance(obj, dict):
        raise ValueError("configuration file must contain a JSON object")
    for key in ("n", "d", "subspaces"):
        if key not in obj:
            raise ValueError(f"configuration file is missing the '{key}' field")
    n, d, subs = obj["n"], obj["d"], obj["subspaces"]
    if not (_is_int(n) and _is_int(d) and 1 <= d < n):
        raise ValueError(f"need integers 1 <= d < n, got n={n!r}, d={d!r}")
    if not isinstance(subs, list) or not subs:
        raise ValueError("'subspaces' must be a nonempty array")
    if "s" in obj and not (_is_int(obj["s"]) and obj["s"] == len(subs)):
        raise ValueError(f"'s' is {obj['s']!r} but the file lists {len(subs)} subspaces")
    for key in ("seed", "bound"):
        if key in obj and not _is_int(obj[key]):
            raise ValueError(f"'{key}' must be an integer, got {obj[key]!r}")
    out = []
    for i, rows in enumerate(subs, start=1):
        basis = _parse_matrix(rows, n, d, f"subspace {i}")
        try:
            out.append(Subspace(basis))
        except RankDeficientError as exc:
            raise ValueError(f"subspace {i}: {exc}") from None
    return Config(out)


def letters_from_obj(obj) -> tuple[int, int, int, tuple[Mat, ...]]:
    """``(d, r, s, letters)`` of a letters file, the letters in :func:`planeinv.divisible.letter_ids` order."""
    if not isinstance(obj, dict):
        raise ValueError("letters file must contain a JSON object")
    if obj.get("kind", "divisible") != "divisible":
        raise ValueError("only divisible-case letter grids can be embedded")
    for key in ("d", "r", "s", "letters"):
        if key not in obj:
            raise ValueError(f"letters file is missing the '{key}' field")
    d, r, s, letters = obj["d"], obj["r"], obj["s"], obj["letters"]
    if not (_is_int(d) and d >= 1 and _is_int(r) and r >= 2):
        raise ValueError("need integers d >= 1 and r >= 2")
    if not (_is_int(s) and s >= r + 1):
        raise ValueError("need an integer s >= r + 1")
    if not isinstance(letters, dict):
        raise ValueError("'letters' must be an object keyed by letter id")
    if len(letters) != (r - 1) * (s - r - 1):  # before the id set is built
        raise ValueError(
            f"the (r, s) = ({r}, {s}) grid has {(r - 1) * (s - r - 1)} letters, "
            f"the file lists {len(letters)}"
        )
    ids = divisible.letter_ids(CaseTag("divisible", r=r), s)
    if set(letters) != set(ids):
        missing = sorted(set(ids) - set(letters))
        extra = sorted(set(letters) - set(ids))
        raise ValueError(
            f"letter ids do not match the (r, s) grid; missing {missing}, unexpected {extra}"
        )
    return d, r, s, tuple(_parse_matrix(letters[i], d, d, f"letter {i}") for i in ids)


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError, UnicodeDecodeError, and a number longer
        # than int()'s digit limit; RecursionError: arrays or objects nested
        # deeper than the parser goes
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _write_atomic(path: str, parts: list[str]) -> None:
    """Write ``parts`` to a temp file beside ``path``, then rename it over ``path``.

    A failed write leaves neither a partial ``path`` nor the temp file.  The
    temp file is created with mode 0o666 less the umask, as ``open`` would
    create ``path``.  An ``OSError`` (a missing directory, ``path`` a
    directory) becomes a ``ValueError``, as in :func:`load_json`.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}.json")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(parts)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        # strerror, since the errno message names the temp file, not path.
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_json(path: str, obj) -> None:
    """Serialize ``obj`` with ``json.dumps`` and atomically replace ``path``."""
    _write_atomic(path, [json.dumps(obj, ensure_ascii=False, indent=2), "\n"])


_TRIVIAL_NOTE = (
    "trivial range: every general-position configuration of this shape "
    "lies in one dense orbit, so there are no invariants"
)

# One entry of the "invariants" list as ``json.dumps(..., indent=2)`` lays it
# out: the escaped letter ids of the word, then the value from its parts.
_ENTRY = '    {\n      "word": [\n        %s\n      ],\n      "value": "%s"\n    }'
_WORD_SEP = ",\n        "


def write_invariants(path: str, vec: InvariantVector) -> None:
    """Write the invariants file of ``vec``, in one pass over its entries.

    The bytes are those ``json.dumps(..., ensure_ascii=False, indent=2)``
    gives the file object, and a newline.  The header (every key but the
    entries) goes through ``json.dumps``; each entry fills :data:`_ENTRY`, with
    the letter ids escaped once per file as ``json.dumps`` escapes them, and
    each value formatted from its integer parts (only ``-``, digits and
    ``/``, which need no escaping), with no ``Fraction``.
    """
    head = {
        "case": {"kind": vec.case.kind, "r": vec.case.r, "e": vec.case.e, "k": len(vec.letter_ids)},
        "n": vec.n,
        "d": vec.d,
        "s": vec.s,
        "max_word_len": vec.max_word_len,
        "letters": list(vec.letter_ids),
        "invariants": [],
    }
    if not vec.letter_ids:
        head["note"] = _TRIVIAL_NOTE
    text = json.dumps(head, ensure_ascii=False, indent=2)
    if not vec.parts:
        _write_atomic(path, [text, "\n"])
        return
    # Words need letters, so there is no note: the header ends in "[]\n}".
    ids = [encode_basestring(i) for i in vec.letter_ids]
    entries = ",\n".join(
        _ENTRY % (_WORD_SEP.join([ids[k] for k in word]), _format_parts(p, q))
        for word, (p, q) in zip(vec.words, vec.parts)
    )
    _write_atomic(path, [text[: -len("]\n}")], "\n", entries, "\n  ]\n}\n"])
