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


def _unbounded_word_caches(tree: ast.AST) -> list[str]:
    """Functions with a DoubleWord-annotated parameter decorated by
    ``lru_cache(maxsize=None)`` or ``cache``: word-keyed caches without a
    bound."""
    def unbounded(decorator) -> bool:
        if isinstance(decorator, ast.Call):
            name = ast.unparse(decorator.func)
            return name.endswith("lru_cache") and any(
                kw.arg == "maxsize" and isinstance(kw.value, ast.Constant)
                and kw.value.value is None for kw in decorator.keywords)
        return ast.unparse(decorator).split(".")[-1] == "cache"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if any(a.annotation is not None and "DoubleWord" in ast.unparse(a.annotation)
                   for a in args) and any(map(unbounded, node.decorator_list)):
                found.append(f"{node.name}:{node.lineno}")
    return found


def test_no_unbounded_cache_keyed_by_a_word():
    planted = ast.parse(
        "@functools.lru_cache(maxsize=None)\ndef a(w: DoubleWord): pass\n"
        "@functools.cache\ndef b(cdata, w: Optional[DoubleWord]): pass\n"
        "@lru_cache(maxsize=64)\ndef c(w: DoubleWord): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef d(cdata: CartanData): pass\n")
    assert _unbounded_word_caches(planted) == ["a:2", "b:4"]
    found = [f"{path.relative_to(SRC)}:{name}"
             for path in sorted(SRC.rglob("*.py"))
             for name in _unbounded_word_caches(ast.parse(path.read_text(), str(path)))]
    assert found == []
