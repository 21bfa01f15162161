import dataclasses
import itertools
from fractions import Fraction as F

import pytest

from cluster_dual import cartan as weyl
from cluster_dual import golden, seeds, words
from cluster_dual.errors import FrozenDirection, FrozenStructureViolation
from cluster_dual.words import Move

from conftest import W


def test_elementary_seed_rank_one():
    a1 = weyl.build_cartan("A1")
    s = seeds.elementary_seed(a1, 1)
    assert s.matrix() == [[F(0), F(-1)], [F(1), F(0)]]
    sbar = seeds.elementary_seed(a1, -1)
    assert sbar.matrix() == [[F(0), F(1)], [F(-1), F(0)]]
    trivial = seeds.elementary_seed(a1, 0)
    assert trivial.matrix() == [[F(0)]]
    assert trivial.d((1, 0)) == 1


def test_bracket_matrices_match_golden_bit_exactly():
    a1 = weyl.build_cartan("A1")
    for s in ("1,1", "1,-1", "-1,1", "-1,-1"):
        eta = seeds.bracket_seed(seeds.seed_for_word(W(s), a1))
        assert eta.matrix() == golden.eta_matrix(s)


def test_seed_is_type_counts_and_matrix():
    # no provenance word: a tropical flip is told the sign of its letter
    assert [f.name for f in dataclasses.fields(seeds.Seed)] == ["cartan", "counts", "epsilon"]


def test_amalgamation_associative():
    a2 = weyl.build_cartan("A2")
    parts = [seeds.elementary_seed(a2, letter) for letter in (-1, 1, -1)]
    left = seeds.amalgamate(seeds.amalgamate(parts[0], parts[1]), parts[2])
    right = seeds.amalgamate(parts[0], seeds.amalgamate(parts[1], parts[2]))
    at_once = seeds.amalgamate(*parts)
    assert left == right == at_once
    # a word's seed glues from the seeds of any split of the word, with the
    # unequal multipliers and rational frozen entries of B2 and G2
    for label, u, v in [("B2", "1,-2", "2,1,-2"), ("B2", "-2,-1", "1,2"),
                        ("G2", "1,2,-1", "2,1"), ("G2", "-2", "-1,2,2,1")]:
        cdata = weyl.build_cartan(label)
        joined = seeds.amalgamate(seeds.seed_for_word(W(u), cdata),
                                  seeds.seed_for_word(W(v), cdata))
        whole = seeds.seed_for_word(W(u).concat(W(v)), cdata)
        assert joined == whole


def test_seed_for_word_indices():
    a1 = weyl.build_cartan("A1")
    s = seeds.seed_for_word(W("1,1"), a1)
    assert s.indices == [(1, 0), (1, 1), (1, 2)]
    assert s.frozen == {(1, 0), (1, 2)}
    empty = seeds.seed_for_word(W(""), a1)
    assert empty.indices == [(1, 0)] and empty.frozen == {(1, 0)}
    a2 = weyl.build_cartan("A2")
    s = seeds.seed_for_word(W("1,2"), a2)
    assert set(s.indices) == {(1, 0), (1, 1), (2, 0), (2, 1)}
    assert s.frozen == set(s.indices)  # every slot is a boundary slot here


def test_seed_invariants_all_rank2_words_up_to_length_6():
    for label in ("A1", "A2", "B2", "G2"):
        cdata = weyl.build_cartan(label)
        rank = cdata.rank
        letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
        for n in range(7 if rank == 1 else 5):
            for combo in itertools.product(letters, repeat=n):
                seeds.seed_for_word(words.DoubleWord(combo), cdata).validate()


def test_mutation_examples():
    a1 = weyl.build_cartan("A1")
    s = seeds.seed_for_word(W("1,1"), a1)
    mutated = seeds.mutate_seed(s, (1, 1))
    assert mutated.eps((1, 0), (1, 1)) == 1  # sign flip on the mutated row
    assert seeds.mutate_seed(mutated, (1, 1)) == s  # involution
    with pytest.raises(FrozenDirection):
        seeds.mutate_seed(s, (1, 0))


def test_mutation_additive_correction_hand_checked():
    # on the triple-letter word the correction term fires:
    # eps'_ac = eps_ac + sgn(eps_ab)[eps_ab eps_bc]_+ with eps_ab = eps_bc = -1
    a2 = weyl.build_cartan("A2")
    s = seeds.seed_for_word(W("1,2,1"), a2)
    k = (1, 1)
    assert s.eps((1, 0), k) == -1 and s.eps(k, (1, 2)) == -1
    mutated = seeds.mutate_seed(s, k)
    assert mutated.eps((1, 0), (1, 2)) == s.eps((1, 0), (1, 2)) - 1


def test_dmove_seed_transport_three_move():
    a2 = weyl.build_cartan("A2")
    src, tgt = W("1,2,1"), W("2,1,2")
    mv = Move("positive_d", 0, 3)
    s = seeds.mutate_seed(seeds.seed_for_word(src, a2), (1, 1))
    sigma = words.index_map(src, mv, a2)
    expected = seeds.seed_for_word(tgt, a2)
    assert seeds.relabel_seed(s, sigma, expected.counts) == expected


def test_tropical_mutation_examples():
    a1 = weyl.build_cartan("A1")
    s = seeds.seed_for_word(W("1,1"), a1)
    left = seeds.tropical_mutate_seed(s, (1, 0), True)
    assert left.eps((1, 0), (1, 1)) == 1
    with pytest.raises(FrozenStructureViolation):
        seeds.tropical_mutate_seed(s, (1, 1), True)


def test_tropical_transport_and_involution_along_flips():
    cases = [("A1", "1,1"), ("A2", "1,2,1"), ("A2", "-1,2,1"),
             ("B2", "1,2,1,2"), ("G2", "1,2")]
    for label, text in cases:
        cdata = weyl.build_cartan(label)
        w = W(text)
        for kind in ("tau_left", "tau_right"):
            mv = Move(kind, 0 if kind == "tau_left" else len(w) - 1)
            flipped = words.apply_move(w, mv, cdata)
            letter = w.letters[0] if kind == "tau_left" else w.letters[-1]
            wire, positive = abs(letter), letter > 0
            k = (wire, 0) if kind == "tau_left" else (wire, w.count(wire))
            s = seeds.seed_for_word(w, cdata)
            moved = seeds.tropical_mutate_seed(s, k, positive)
            assert moved == seeds.seed_for_word(flipped, cdata), (label, text, kind)
            # the flipped word's letter at k has the opposite sign, so
            # flipping it back undoes the first flip
            assert seeds.tropical_mutate_seed(moved, k, not positive) == s


def test_common_denominator_small():
    for label, text in [("A1", "1,1"), ("A2", "1,2,1"), ("B2", "1,2"), ("G2", "1,2,1")]:
        cdata = weyl.build_cartan(label)
        assert seeds.seed_for_word(W(text), cdata).common_denominator() in (1, 2)


def test_bracket_seed_zeroes_right_frozen():
    a2 = weyl.build_cartan("A2")
    s = seeds.seed_for_word(W("1,2,1"), a2)
    eta = seeds.bracket_seed(s)
    for i in s.indices:
        for j in s.cover_right:
            assert eta.eps(i, j) == 0 and eta.eps(j, i) == 0
    # skew-symmetry of the weighted bracket matrix survives the cut
    for i in eta.indices:
        for j in eta.indices:
            assert eta.eps_hat(i, j) == -eta.eps_hat(j, i)
