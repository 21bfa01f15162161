import random
from unittest import mock

import pytest

from cluster_dual import arith
from cluster_dual import cartan as weyl
from cluster_dual import maps
from cluster_dual.words import DoubleWord


@pytest.fixture
def rng():
    return random.Random(20240817)


def W(text: str) -> DoubleWord:
    return DoubleWord.from_string(text)


def reference_jets():
    """A context in which every jet holds its scalars and runs the reference
    rules, as jets over Q and at mixed points do: no jet stores residues."""
    return mock.patch.object(arith, "_fp_prime", lambda scalars: None)


def rational_point(word, cdata, rng, bound=30):
    return maps.random_assignment(word, cdata, rng, None, bound)


def type_data(label: str):
    return weyl.build_cartan(label)


def rank2_minimal_words(cdata) -> list[DoubleWord]:
    """The one-sign alternating words a full-width braid move applies to."""
    m = cdata.m_order(1, 2)
    out = []
    for i, j in ((1, 2), (2, 1)):
        letters = tuple(i if t % 2 == 0 else j for t in range(m))
        out.append(DoubleWord(letters))
        out.append(DoubleWord(tuple(-x for x in letters)))
    return out
