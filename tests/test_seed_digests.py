"""Pinned `compute seed` payloads: indices, frozen set, both covers, the
exchange matrix and the per-index multipliers of a word's seed and of its
bracket seed, for every double word of length at most 4 over A1, A2, B2 and
G2.  B2 and G2 carry the unequal multipliers and the rational frozen
entries.  A refactor of the seed layer must leave them all unchanged."""

import hashlib
import itertools
import json

import pytest

from cluster_dual import cartan as weyl
from cluster_dual import cli

# sha256 of the concatenated `compute seed` outputs, one digest per type.
SEED_SHA256 = {
    "A1":
        "dc3477b9a802365e38378578f65ac5c58327ec9713754f9c131e823025266b24",
    "A2":
        "d009445367d9bc307e44d4349d177832a25c74d4f2c696401c94e2cf2f1c2735",
    "B2":
        "47d3280389a84e9501ca7ea8e025fdc93d3033b2c15a2b8b3ad2e56f3fecc6d7",
    "G2":
        "43a2c66ae646701413ac5ad6bcd25a5d4ce93bc57f181aa3b75fe117c2079f17",
}


@pytest.mark.parametrize("label", sorted(SEED_SHA256))
def test_compute_seed_payloads_pinned(label, capsys):
    rank = weyl.build_cartan(label).rank
    alphabet = [x for i in range(1, rank + 1) for x in (i, -i)]
    digest = hashlib.sha256()
    count = 0
    for n in range(5):
        for letters in itertools.product(alphabet, repeat=n):
            text = ",".join(str(x) for x in letters)
            assert cli.main(["compute", "seed", "--type", label, "--word", text]) == 0
            payload = json.loads(capsys.readouterr().out)
            digest.update(json.dumps(payload, sort_keys=True).encode())
            count += 1
    assert count == sum(len(alphabet) ** n for n in range(5))
    assert digest.hexdigest() == SEED_SHA256[label]
