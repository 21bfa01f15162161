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


def _is_unbounded(decorator) -> bool:
    """``lru_cache(maxsize=None)`` or ``cache``."""
    if isinstance(decorator, ast.Call):
        name = ast.unparse(decorator.func)
        return name.endswith("lru_cache") and any(
            kw.arg == "maxsize" and isinstance(kw.value, ast.Constant)
            and kw.value.value is None for kw in decorator.keywords)
    return ast.unparse(decorator).split(".")[-1] == "cache"


def _unbounded_word_caches(tree: ast.AST) -> list[str]:
    """Functions with a DoubleWord-annotated parameter decorated by
    ``lru_cache(maxsize=None)`` or ``cache``: word-keyed caches without a
    bound."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if any(a.annotation is not None and "DoubleWord" in ast.unparse(a.annotation)
                   for a in args) and any(map(_is_unbounded, node.decorator_list)):
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


def _unbounded_search_caches(tree: ast.Module) -> list[str]:
    """Caches without a bound that a move-graph search fills: module-level
    functions with a parameter annotated by a word's letters
    (``tuple[int, ...]``) or a ``WeylElement``, methods of ``WeylElement``,
    and any ``lru_cache(maxsize=None)`` applied by a call."""
    keyed = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if any(a.annotation is not None and ast.unparse(a.annotation)
                   in ("tuple[int, ...]", "WeylElement") for a in args):
                keyed.append(node)
        elif isinstance(node, ast.ClassDef) and node.name == "WeylElement":
            keyed += [f for f in node.body if isinstance(f, ast.FunctionDef)]
    found = [f"{f.name}:{f.lineno}" for f in keyed if any(map(_is_unbounded, f.decorator_list))]
    found += [f"call:{node.lineno}" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Call)
              and _is_unbounded(node.func)]
    return found


def test_no_unbounded_search_cache():
    """Every memo of the numbered move graph and of the class test under it
    is bounded: the letters and Weyl element memos, the per-graph edge
    tables and the graph and ball caches."""
    planted = ast.parse(
        "@functools.lru_cache(maxsize=None)\ndef a(cdata, letters: tuple[int, ...]): pass\n"
        "@functools.cache\ndef b(w: WeylElement): pass\n"
        "class WeylElement:\n    @functools.cache\n    def c(self): pass\n"
        "edges = functools.lru_cache(maxsize=None)(derive)\n"
        "@functools.lru_cache(maxsize=64)\ndef d(w: WeylElement): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef e(cdata: CartanData): pass\n")
    assert _unbounded_search_caches(planted) == ["a:2", "b:4", "c:7", "call:8"]
    found = [f"{path.relative_to(SRC)}:{name}"
             for path in sorted(SRC.rglob("*.py"))
             for name in _unbounded_search_caches(ast.parse(path.read_text(), str(path)))]
    assert found == []


def _folded_compositions(tree: ast.AST) -> list[str]:
    """Assignments ``x = x.then(...)`` inside a loop: a map joined one leg
    at a time, each ``then`` copying every step joined so far."""
    found = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            continue
        for node in ast.walk(loop):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "then"
                    and any(ast.unparse(t) == ast.unparse(node.value.func.value)
                            for t in node.targets)):
                found.add(f"{ast.unparse(node.targets[0])}:{node.lineno}")
    return sorted(found)


def test_maps_are_joined_once():
    """No map in the library is folded one ``then`` at a time: legs are
    collected and joined by one call."""
    planted = ast.parse(
        "def along(w, moves, cdata, restricted=False):\n"
        "    out = identity_map(w, cdata, restricted)\n"
        "    for mv in moves:\n"
        "        out = out.then(dmove_transform(out.target_word, mv, cdata, restricted))\n"
        "    return out\n"
        "while legs:\n"
        "    for leg in legs:\n"
        "        self.m = self.m.then(leg)\n"
        "out = out.then(back)\n"
        "for leg in legs:\n"
        "    out = first.then(leg)\n"
        "out = legs[0].then(*legs[1:])\n")
    assert _folded_compositions(planted) == ["out:4", "self.m:8"]
    found = [f"{path.relative_to(SRC)}:{name}"
             for path in sorted(SRC.rglob("*.py"))
             for name in _folded_compositions(ast.parse(path.read_text(), str(path)))]
    assert found == []
