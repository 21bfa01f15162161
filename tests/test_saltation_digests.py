"""Pinned values of the saltation and its inverse on dual-move words
j' kbar r, with r one of the first three reduced words of w0, for every
moving letter k and three prefixes j', over the types A1, A2, A3, B2 and G2.
Each map is evaluated at seeded rational and F_97 points; a refactor of the
saltation core must leave every value, its type and the key order of every
output unchanged."""

import hashlib
import random

import pytest

from cluster_dual import cartan as weyl
from cluster_dual import maps
from cluster_dual.errors import SingularPoint
from cluster_dual.words import DoubleWord

# sha256 of the per-type records below.
SALTATION_SHA256 = {
    "A1":
        "eed798aac74f31dbd78c2e5f1e59c86cef80c228235dec035cff58372235b684",
    "A2":
        "0d182707357bc0179558cb82e86e6dfa054c9e8784cb8e248e71230eee9e7714",
    "A3":
        "216b06033b28d60a3f74b6d66cd158df45680cd6eb56560ad24fa3b44d63e54e",
    "B2":
        "37cb664178689d7f762d5215646640a0f6b071589b4bfe9b4c6d8dcbe018e813",
    "G2":
        "618da17b0bbefc1d426c5430dce85b2cd0bff409aa627aaccd0077e2e0f63911",
}


def _dual_move_words(cdata):
    prefixes = [(), (1,), (-1,) if cdata.rank == 1 else (-2,)]
    blocks = sorted(weyl.reduced_words(weyl.longest_element(cdata)))[:3]
    for prefix in prefixes:
        for k in range(1, cdata.rank + 1):
            for r in blocks:
                yield DoubleWord(prefix + (-k,) + r)


def _values(m, values):
    try:
        out = m.apply(values)
    except SingularPoint:
        return "singular"
    return [[list(ix), type(val).__name__, str(val)] for ix, val in out.items()]


def _records(cdata):
    rng = random.Random(f"saltation {cdata.type_label}")
    records = []
    for w in _dual_move_words(cdata):
        xi = maps.xi_saltation(w, cdata)
        back = xi.inverse()
        for prime in (None, 97, None, 97):
            fwd = _values(xi, maps.random_assignment(w, cdata, rng, prime, bound=6))
            inv = _values(back, maps.random_assignment(xi.target_word, cdata, rng, prime, bound=6))
            records.append([w.to_string(), prime, fwd, inv])
    return records


@pytest.mark.parametrize("label", sorted(SALTATION_SHA256))
def test_saltation_values_pinned(label):
    records = _records(weyl.build_cartan(label))
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == SALTATION_SHA256[label]
