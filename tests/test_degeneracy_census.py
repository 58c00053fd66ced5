"""Every degenerate outcome a forced singular inverse can produce, pinned.

For each shape, the n-th call of ``Mat.inverse`` is made to raise
``SingularMatrixError`` for n = 1, 2, ... until a pass makes fewer than n
calls.  Each forced failure must surface as the same ``DegenerateConfigError``
(type, message, block) or the same recorded ``Degeneracy`` as before: the
messages and block indices are part of the library's output.  The divisible
span check reads the pivots of the echelon form and inverts nothing, so it
is pinned on a configuration that fails it.
"""

import pytest

from planeinv import fileio, orbit
from planeinv.cli import main
from planeinv.errors import Degeneracy, DegenerateConfigError, SingularMatrixError
from planeinv.grassmann import Config, Subspace, sample_config
from planeinv.linalg import Mat


def _second_in_first(n, d, s):
    """The seed-1 configuration with member 2 replaced by another basis of member 1's plane."""
    subs = list(sample_config(n, d, s, seed=1).subspaces)
    subs[1] = Subspace(subs[0].basis @ Mat([[1, 1], [0, 1]]))
    return Config(subs)


def test_first_members_that_do_not_span(tmp_path, capsys):
    """The first r members do not span: raised with letters, (4,2,5), recorded without, (6,2,4)."""
    config = _second_in_first(4, 2, 5)
    with pytest.raises(DegenerateConfigError) as info:
        orbit.letters(config)
    message = "the first r = 2 members do not span the ambient space"
    assert (str(info.value), info.value.block) == (message, None)
    path = tmp_path / "c.json"
    fileio.write_json(path, fileio.config_to_obj(config))
    for argv in (["invariants", "--in", path, "--out", tmp_path / "v.json"], ["rank", "--in", path]):
        assert main([str(a) for a in argv]) == 4
        assert capsys.readouterr().err.strip() == f"error: {message}"
    assert orbit.letters(_second_in_first(6, 2, 4))[3] == Degeneracy(
        "the first r = 3 members do not span the ambient space"
    )

_RAISED = "DegenerateConfigError"
_RECORDED = "Degeneracy"

_FRAME = ("intersection frame is singular", None)

CENSUS = {
    (4, 2, 5): [
        (_RAISED, "block (1, 2) of the translated matrix is singular", 4),
        (_RAISED, "block (1, 3) of the translated matrix is singular", 5),
        (_RAISED, "block (2, 1) of the translated matrix is singular", 3),
    ],
    # no inverse runs here: s = r + 1 leaves no letter block to invert
    (6, 2, 4): [],
    (3, 2, 4): [
        (_RECORDED, *_FRAME),
        (_RECORDED, "block 4 is not transverse to the frame plane", 4),
    ],
    (3, 2, 6): [
        (_RAISED, *_FRAME),
        (_RAISED, "block 4 is not transverse to the frame plane", 4),
        (_RAISED, "block 5 is not transverse to the frame plane", 5),
        (_RAISED, "block 6 is not transverse to the frame plane", 6),
        (_RAISED, "block 4 normalization blocks are singular", 4),
        (_RAISED, "block 4 normalization blocks are singular", 4),
    ],
    (5, 2, 4): [
        (_RECORDED, *_FRAME),
        (_RECORDED, "c-block (1, r+2) is singular", 4),
        (_RECORDED, "c-block (2, r+2) is singular", 4),
    ],
    (5, 2, 6): [
        (_RAISED, *_FRAME),
        (_RAISED, "c-block (1, r+2) is singular", 4),
        (_RAISED, "c-block (2, r+2) is singular", 4),
        (_RAISED, "c-block (5, r+2) is singular", 4),
        (_RAISED, "b-block (1, 5) is singular", 5),
        (_RAISED, "c-block difference (1, 5) - (3, 5) is singular", 5),
        (_RAISED, "b-block (1, 6) is singular", 6),
        (_RAISED, "c-block difference (1, 6) - (3, 6) is singular", 6),
    ],
    (7, 2, 7): [
        (_RAISED, *_FRAME),
        (_RAISED, "c-block (1, r+2) is singular", 5),
        (_RAISED, "c-block (2, r+2) is singular", 5),
        (_RAISED, "c-block (7, r+2) is singular", 5),
        (_RAISED, "b-block (1, 6) is singular", 6),
        (_RAISED, "c-block difference (1, 6) - (5, 6) is singular", 6),
        (_RAISED, "b-block (1, 7) is singular", 7),
        (_RAISED, "c-block difference (1, 7) - (5, 7) is singular", 7),
    ],
}


@pytest.mark.parametrize("shape", list(CENSUS), ids=lambda s: "-".join(map(str, s)))
def test_forced_singular_inverses(shape, monkeypatch):
    config = sample_config(*shape, seed=1)
    inverse = Mat.inverse
    found = []
    while True:
        fail_at, calls = len(found) + 1, 0

        def forced(self):
            nonlocal calls
            calls += 1
            if calls == fail_at:
                raise SingularMatrixError("forced")
            return inverse(self)

        monkeypatch.setattr(Mat, "inverse", forced)
        try:
            degeneracy = orbit.letters(config)[3]
        except ArithmeticError as exc:
            entry = (type(exc).__name__, str(exc), getattr(exc, "block", None))
        else:
            entry = degeneracy and (_RECORDED, degeneracy.reason, degeneracy.block)
        if calls < fail_at:
            assert entry is None  # the unforced pass is in general position
            break
        found.append(entry)
    assert found == CENSUS[shape]
