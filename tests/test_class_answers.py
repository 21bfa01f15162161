"""Pinned answers of every factorization-class question the word layer
answers: the default class (in D(w0) and with v free) and the factored
cuts of every short word over A2 and B2, and the pinned-class questions
(first factor w1, both factors w1 and w2) on the 80 A2 shuffle words of
D(w0).  A refactor of the class routines must leave them all unchanged."""

import hashlib
import itertools
import json

from cluster_dual import cartan as weyl
from cluster_dual import words

# sha256 of the records below, one digest per family of questions.
ANSWER_SHA256 = {
    "short":
        "b83d27dc2ff42d56e9391195654b874915edcc858db3b5049567361b67c3b9bc",
    "shuffles":
        "f7f149f21e629ec35121930b0c98fa5fec34455fe94f5c2d0078637ca8f9a460",
}


def _element(x):
    return list(x.reduced_word())


def _dec(dec):
    return [_element(dec.w1), _element(dec.w2), _element(dec.v), dec.split]


def _cls(found):
    if found is None:
        return None
    dec, trivial = found
    return [_dec(dec), trivial.to_string()]


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _shuffle_words() -> list[words.DoubleWord]:
    """The 80 shuffles of a barred and a plain reduced word of w0 in A2."""
    out = []
    reduced = ((1, 2, 1), (2, 1, 2))
    for neg, pos in itertools.product(reduced, reduced):
        for slots in itertools.combinations(range(6), 3):
            it_neg, it_pos = iter(neg), iter(pos)
            out.append(words.DoubleWord(tuple(
                -next(it_neg) if t in slots else next(it_pos) for t in range(6))))
    return out


def test_short_word_classes_pinned():
    records = []
    for label in ("A2", "B2"):
        cdata = weyl.build_cartan(label)
        w0 = weyl.longest_element(cdata)
        alphabet = [x for i in range(1, cdata.rank + 1) for x in (i, -i)]
        for n in range(5):
            for letters in itertools.product(alphabet, repeat=n):
                w = words.DoubleWord(letters)
                records.append([
                    label, w.to_string(),
                    _cls(words.canonical_class(w, cdata, w0)),
                    _cls(words.canonical_class(w, cdata)),
                    [_dec(d) for d in words.trivial_decompositions(w, cdata, w0)],
                    [_dec(d) for d in words.trivial_decompositions(w, cdata)],
                ])
    assert len(records) == 2 * 341
    assert _digest(records) == ANSWER_SHA256["short"]


def test_pinned_class_answers_on_shuffles_pinned():
    cdata = weyl.build_cartan("A2")
    w0 = weyl.longest_element(cdata)
    elements = list(weyl.weyl_iter(cdata))
    shuffles = _shuffle_words()
    assert len(set(shuffles)) == 80
    records = []
    for w in shuffles:
        for w1 in elements:
            records.append([
                w.to_string(), _element(w1),
                _cls(words.canonical_class(w, cdata, w0, w1)),
                words.is_in_dv(w, cdata, w0, w1),
                [words.is_in_class(w, cdata, w0, w1, w2) for w2 in elements],
            ])
    assert _digest(records) == ANSWER_SHA256["shuffles"]
