"""Pinned word-level answers of the move graph: the applicable moves, the
default factorization class and, where the dual move applies, its source
and target classes, for every double word of length at most 5 over the
rank-two types.  A refactor of the Weyl-group layer must leave them all
unchanged."""

import hashlib
import itertools
import json

import pytest

from cluster_dual import cartan as weyl
from cluster_dual import words

# sha256 of the per-word records below, one digest per type.
CLASS_SHA256 = {
    "A2":
        "6d4577c95d4428c2f799596ada0f9603bf660be1bb866cee2b92c7c7f4164752",
    "B2":
        "df7bbbfb4e54416578cce2439e3c8713efccea83befb3fe8f80f420f2b0b905a",
    "G2":
        "0ec38f2ea1a2f6c2729251dbc1674561bb768105bf2eb234fa95f1778a6f304c",
}


def _element(w):
    return list(w.reduced_word())


def _record(w, cdata):
    moves = words.applicable_moves(w, cdata, words.ALL_MOVE_KINDS)
    found = words.canonical_class(w, cdata)
    cls = None
    if found is not None:
        dec, trivial = found
        cls = [_element(dec.w1), _element(dec.w2), _element(dec.v), dec.split,
               trivial.to_string()]
    dual = None
    if any(mv.kind == "dual" for mv in moves):
        dual = [_element(x) for x in words.dual_move_classes(w, cdata)]
    return [w.to_string(), [mv.describe() for mv in moves], cls, dual]


@pytest.mark.parametrize("label", sorted(CLASS_SHA256))
def test_moves_and_classes_pinned(label):
    cdata = weyl.build_cartan(label)
    alphabet = [x for i in range(1, cdata.rank + 1) for x in (i, -i)]
    records = [_record(words.DoubleWord(letters), cdata)
               for n in range(6) for letters in itertools.product(alphabet, repeat=n)]
    assert len(records) == 1365
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == CLASS_SHA256[label]
