"""The README's library tour runs as written and gives the values its comments name."""

import ast
import pathlib
import re

from planeinv import Verdict

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def tour_source():
    """The ``python`` block under the README's ``## Library tour`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs_as_written():
    # statements run in one namespace; each bare expression's value is kept
    # under its source text, as an interactive session would show it
    namespace, shown = {}, {}
    for node in ast.parse(tour_source()).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            shown[ast.unparse(node.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert len(namespace["v"]) == 9
    assert shown["same_orbit_test(c, act_left(g, c))"] is Verdict.EQUIVALENT
    assert shown["same_orbit_test(c, sample_config(4, 2, 5, seed=2))"] is Verdict.DISTINCT
    assert shown["jacobian_rank(c)"] == 5
    assert shown["expected_quotient_dim(4, 2, 5)"] == 5
