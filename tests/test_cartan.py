import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cluster_dual import cartan as weyl
from cluster_dual.errors import InvariantViolation, UnsupportedType

SRC = Path(__file__).resolve().parents[1] / "src"


def test_build_cartan_examples():
    a1 = weyl.build_cartan("A1")
    assert a1.a == ((2,),) and a1.d == (1,)
    a2 = weyl.build_cartan("A2")
    assert a2.a == ((2, -1), (-1, 2)) and a2.m_order(1, 2) == 3
    g2 = weyl.build_cartan("G2")
    assert g2.a[0][1] * g2.a[1][0] == 3 and g2.m_order(1, 2) == 6
    b2 = weyl.build_cartan("B2")
    assert b2.m_order(1, 2) == 4
    with pytest.raises(UnsupportedType):
        weyl.build_cartan("H3")
    with pytest.raises(UnsupportedType):
        weyl.build_cartan("G5")


def test_cartan_validate_rejects_bad_matrices():
    for a, d in ((((2, -1), (-1, 3)), (1, 1)),    # diagonal entry 3
                 (((2, 1), (1, 2)), (1, 1)),      # positive off-diagonal
                 (((2, 0), (-1, 2)), (1, 1)),     # one-sided zero
                 (((2, -1), (-2, 2)), (1, 1))):   # d does not symmetrize
        with pytest.raises(InvariantViolation):
            weyl.CartanData("X2", a, d).validate()


def test_guards_survive_python_optimize():
    # the first line would fail unless -O strips asserts
    code = ("assert False, 'asserts are on'\n"
            "from cluster_dual.cartan import CartanData\n"
            "CartanData('X2', ((2, -1), (-1, 3)), (1, 1)).validate()\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1].startswith(
        "cluster_dual.errors.InvariantViolation: diagonal entry 2")


@pytest.mark.parametrize("label,n_roots", [("A1", 1), ("A2", 3), ("B2", 4),
                                           ("G2", 6), ("A3", 6), ("C3", 9),
                                           ("D5", 20), ("F4", 24), ("E6", 36),
                                           ("E7", 63), ("E8", 120)])
def test_longest_element_length_is_root_count(label, n_roots):
    cdata = weyl.build_cartan(label)
    w0 = weyl.longest_element(cdata)
    assert w0.length() == n_roots
    assert len(weyl.positive_roots(cdata)) == n_roots


def test_longest_element_is_computed_once_per_type():
    a3 = weyl.build_cartan("A3")
    w0 = weyl.longest_element(a3)
    assert weyl.longest_element(a3) is w0


def test_reduced_words_examples():
    a2 = weyl.build_cartan("A2")
    w = weyl.from_word(a2, (1, 2, 1))
    assert weyl.reduced_words(w) == {(1, 2, 1), (2, 1, 2)}
    assert weyl.reduced_words(weyl.identity_element(a2)) == {()}
    w0 = weyl.longest_element(a2)
    assert w0.length() == 3 and len(weyl.reduced_words(w0)) == 2
    # exhaustively: the full group has 6 elements
    assert sum(1 for _ in weyl.weyl_iter(a2)) == 6


def test_parabolic_longest_has_every_first_letter():
    a2 = weyl.build_cartan("A2")
    w0 = weyl.longest_element(a2)
    firsts = {word[0] for word in weyl.reduced_words(w0)}
    assert firsts == {1, 2}


def test_star_involution():
    assert weyl.star_involution(weyl.build_cartan("A1"))[1] == 1
    a2 = weyl.build_cartan("A2")
    assert weyl.star(a2, 1) == 2 and weyl.star(a2, 2) == 1
    d4 = weyl.build_cartan("D4")
    assert all(weyl.star(d4, i) == i for i in range(1, 5))
    assert weyl.star_involution(weyl.build_cartan("D5"))[1:] == (1, 2, 3, 5, 4)
    assert weyl.star_involution(weyl.build_cartan("E6"))[1:] == (5, 4, 3, 2, 1, 6)
    for label in ("A2", "A3", "B2", "G2"):
        cdata = weyl.build_cartan(label)
        star = weyl.star_involution(cdata)
        assert all(star[star[i]] == i for i in range(1, cdata.rank + 1))


def test_star_element_involutive_exhaustive():
    for label in ("A2", "A3"):
        cdata = weyl.build_cartan(label)
        for w in weyl.weyl_iter(cdata):
            assert weyl.star_element(weyl.star_element(w)) == w


def test_weyl_action_examples():
    a1 = weyl.build_cartan("A1")
    s1 = weyl.simple(a1, 1)
    assert s1.act_on_root((1,)) == (-1,)
    a2 = weyl.build_cartan("A2")
    s1 = weyl.simple(a2, 1)
    # s1(omega1) = omega1 - alpha1 in weight coordinates
    assert s1.act_on_weight((1, 0)) == (-1, 1)
    assert s1.act_on_weight((0, 1)) == (0, 1)


def test_right_weak_order():
    a2 = weyl.build_cartan("A2")
    e = weyl.identity_element(a2)
    s1 = weyl.simple(a2, 1)
    w0 = weyl.longest_element(a2)
    assert weyl.right_weak_leq(e, w0)
    assert weyl.right_weak_leq(s1, w0)
    assert not weyl.right_weak_leq(w0, s1)


def test_descent_stripping_round_trip():
    for label in ("A2", "B2", "G2", "A3"):
        cdata = weyl.build_cartan(label)
        for w in weyl.weyl_iter(cdata):
            word = w.reduced_word()
            assert weyl.from_word(cdata, word) == w
            assert weyl.is_reduced(cdata, word)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_memoized_products_are_the_plain_products(label):
    """``from_word`` and ``WeylElement.inverse`` answer from memos; every
    word up to length l(w0) + 1 gets the plain product of its simple
    reflections, and its inverse is the product of the reversed word."""
    cdata = weyl.build_cartan(label)

    def plain(word):
        w = weyl.identity_element(cdata)
        for i in word:
            w = w * weyl.simple(cdata, i)
        return w

    longest = weyl.longest_element(cdata).length() + 1
    for length in range(longest + 1):
        for word in itertools.product(range(1, cdata.rank + 1), repeat=length):
            w = weyl.from_word(cdata, word)
            assert w == plain(word) and hash(w) == hash(plain(word))
            assert weyl.from_word(cdata, list(word)) is w
            assert w.inverse() == plain(word[::-1])
            assert w.inverse() is w.inverse()


def test_cartan_data_built_directly_equals_the_built_one():
    """A CartanData's hash is computed once and reads only its matrices, so
    one spelled out by hand equals and hashes like ``build_cartan``'s, and
    so do the Weyl elements of the two."""
    for label, a, d in (("A2", ((2, -1), (-1, 2)), (1, 1)),
                        ("G2", ((2, -1), (-3, 2)), (3, 1))):
        built, direct = weyl.build_cartan(label), weyl.CartanData(label, a, d)
        assert direct == built and hash(direct) == hash(built)
        for i in (1, 2):
            assert weyl.simple(direct, i) == weyl.simple(built, i)
            assert hash(weyl.simple(direct, i)) == hash(weyl.simple(built, i))
