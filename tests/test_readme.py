"""The README's library quick tour runs as written: a stale name or
signature fails here, and each line whose trailing comment is a
``Fraction(...)`` literal gives that value."""
import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
FRACTION_COMMENT = re.compile(r"#\s*(Fraction\(-?\d+, \d+\))\s*$")


def quick_tour() -> str:
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library quick tour")) + 10
    return text[start:text.index("```\n", start)]


def test_quick_tour_runs_and_gives_its_commented_values():
    source = quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    compared = 0
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], type_ignores=[]), str(README), "exec")
        want = FRACTION_COMMENT.search(lines[stmt.end_lineno - 1])
        if want is None:
            exec(code, namespace)
            continue
        assert isinstance(stmt, ast.Expr), ast.unparse(stmt)
        got = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
        assert got == eval(want.group(1), {"Fraction": Fraction}), ast.unparse(stmt)
        compared += 1
    assert compared, "no line of the tour has a Fraction comment"
