"""Golden PGL(2) reference data.

The rank-one twisted evaluations, bracket matrices, saltation and Artin
generator have classical closed forms involving half-integer powers of the
frozen variable t; substituting t = s^2 makes every entry a Laurent
polynomial.  This module stores those closed forms bit-exactly (shipped as
data/pgl2_golden.json) and evaluates them at exact points, so tests can pin
the library's output against them without re-deriving anything.

Expression grammar of the JSON file: an expression is a list of terms, a
term is {"c": [num, den], "m": {var: exponent}}; a matrix is a 2x2 array of
expressions over the variables of the word plus "s"; a map is a list of
per-coordinate {"num": expr, "den": expr}.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Callable, Sequence

from .arith import spow
from .group import GroupMatrix


def _load() -> dict:
    with resources.files("cluster_dual").joinpath("data/pgl2_golden.json").open() as fh:
        return json.load(fh)


_DATA: dict | None = None


def data() -> dict:
    global _DATA
    if _DATA is None:
        _DATA = _load()
    return _DATA


def eval_expr(expr: Sequence[dict], env: dict):
    out = None
    one = spow(next(iter(env.values())), 0)
    for term in expr:
        num, den = term["c"]
        val = one * Fraction(num, den)
        for var, e in term["m"].items():
            val = val * spow(env[var], e)
        out = val if out is None else out + val
    if out is None:
        out = one - one
    return out


def eval_matrix(name: str, env: dict) -> GroupMatrix:
    rows = data()["matrices"][name]
    return GroupMatrix([[eval_expr(entry, env) for entry in row] for row in rows])


def eval_map(name: str, env: dict) -> tuple:
    out = []
    for coord in data()["maps"][name]:
        num = eval_expr(coord["num"], env)
        den = eval_expr(coord["den"], env)
        out.append(num / den)
    return tuple(out)


def eta_matrix(name: str) -> list[list[Fraction]]:
    return [[Fraction(n, d) for (n, d) in row] for row in data()["eta"][name]]


def bracket_table_entries() -> list[tuple[tuple[int, int], tuple[int, int], Callable]]:
    """The six dual-structure brackets of the 2x2 entries, straight from the
    golden file: entry positions and the expected value as a function of the
    matrix (a signed sum of entry products)."""
    out = []
    for row in data()["bracket_table"]:
        a, b = tuple(row["a"]), tuple(row["b"])
        terms = tuple((Fraction(*term["c"]), tuple(map(tuple, term["factors"])))
                      for term in row["rhs"])

        def expect(g, terms=terms):
            one = spow(g[0][0], 0)
            total = g[0][0] - g[0][0]
            for coefficient, factors in terms:
                val = one if coefficient == 1 else -one if coefficient == -1 else coefficient * one
                for (r, c) in factors:
                    val = val * g[r][c]
                total = total + val
            return total

        out.append((a, b, expect))
    return out
