"""Pinned step pipelines of the composite maps: zeta maps, the A2 braid
composites, saltations and shortest move paths, each with its inverse where
it has one.  A refactor of how maps are assembled must leave every
``describe()`` unchanged."""

import hashlib
import json

from cluster_dual import cartan as weyl
from cluster_dual import maps, words

from conftest import W

# sha256 of the (source, target, restricted, describe()) records of each
# group of maps below.
DESCRIBE_SHA256 = {
    "zeta A1":
        "34fd3ec3db4aacbcea3e649d51c91fed4778415ac79b8590a5b05b72b03db04e",
    "zeta A2":
        "f877687491d070b5b3363fff1374d2e87d73fc29087ee440cf2a8ee8a214fca7",
    "zeta B2":
        "6c54a302a10b8550ab0878cd6e56c7197acbbec53adc0e54b3fb29e678eca933",
    "zeta G2":
        "24d3af36a6880dfaa97d05992097c6d37b7ab8f724553459b3e3822c4bbf983b",
    "zeta A3":
        "3b820e0690295906b858662351a5cfa3ab2aca66e227d05d33e5ab3ee154de07",
    "braid A2":
        "06bcbec7763ce8e039fa5c0d430d31d57807d1704eed4224d2ee1b29648331fc",
    "saltations":
        "b0352d9460e1f0f56f9bceb75e70d406a6195474607c623950be825a70dea26e",
    "move paths":
        "15b0d5ec2c0ee87fdd98b1d391c9704c9956b04591031fb3994a2cf39ce74576",
}


def _record(m):
    return [m.source_word.to_string(), m.target_word.to_string(), m.restricted,
            m.describe()]


def _with_inverses(composites):
    return [rec for m in composites for rec in (_record(m), _record(m.inverse()))]


def _one_sign_words_of_w0(cdata):
    for letters in sorted(weyl.reduced_words(weyl.longest_element(cdata))):
        for sign in (1, -1):
            yield words.DoubleWord(tuple(sign * x for x in letters))


def _groups():
    out = {}
    for label in ("A1", "A2", "B2", "G2", "A3"):
        cdata = weyl.build_cartan(label)
        out[f"zeta {label}"] = _with_inverses(
            maps.zeta_map(w, cdata) for w in _one_sign_words_of_w0(cdata))
    A1, A2 = weyl.build_cartan("A1"), weyl.build_cartan("A2")
    out["braid A2"] = _with_inverses(
        maps.artin_T_word(W("1,2,1,1,2,1"), letters, A2) for letters in ((1, 2, 1), (2, 1, 2)))
    out["saltations"] = _with_inverses(
        [maps.xi_saltation(W("-1,1"), A1), maps.xi_saltation(W("-1,1,2,1"), A2),
         maps.xi_saltation(W("-2,2,1,2"), A2)])
    out["move paths"] = [[mv.describe() for mv in words.move_path(W("-1,1"), W("1,1"), A1, kinds)]
                         for kinds in (words.ALL_MOVE_KINDS, words.DHAT_KINDS)]
    return out


def test_map_describes_pinned():
    digests = {name: hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
               for name, records in _groups().items()}
    assert digests == DESCRIBE_SHA256
