"""Every guard in the library raises a typed error: an ``assert`` statement
would vanish under ``python -O``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statement_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
