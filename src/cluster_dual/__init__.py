"""Exact-arithmetic cluster X-torus combinatorics for dual Poisson-Lie groups.

The library implements, over exact scalars only (rationals, prime fields,
first-order jets):

- Cartan data and Weyl word combinatorics (``cartan``),
- double words with braid, mixed, bar-flip and dual moves (``words``),
- seeds attached to double words, their mutations and tropical mutations
  (``seeds``),
- birational torus maps: move-induced cluster transformations, twist
  sections, saltations, the canonical isomorphisms between bracket tori and
  the Artin group generators (``maps``),
- type-A matrix realizations, Gauss decompositions and the dressing
  automorphisms (``group``),
- evaluation maps into PGL(n+1), twisted evaluations and a named suite of
  sixteen structural identity checks (``evals``),
- golden rank-one reference data (``golden``) and a CLI (``cluster-dual``).
"""

import importlib

from . import arith, cartan, errors, evals, golden, group, maps, seeds, words

__version__ = "0.1.0"

__all__ = ["arith", "cartan", "cli", "errors", "evals", "golden", "group",
           "maps", "seeds", "words", "__version__"]


def __getattr__(name):
    # ``cli`` loads on first use, so ``python -m cluster_dual.cli`` runs it once
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
