"""Property tests over random double words in A1-A3, B2 and G2: mutation is
an involution, so is tropical mutation at a boundary-anchored frozen
direction, every move step is undone by its inverse, and move pipelines agree
between F_p and Q wherever both are defined."""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cluster_dual import cartan as weyl
from cluster_dual import maps, seeds, words
from cluster_dual.arith import DEFAULT_PRIME, Fp
from cluster_dual.errors import SingularPoint
from cluster_dual.words import DoubleWord

TYPES = ("A1", "A2", "A3", "B2", "G2")

# Bounded and reproducible, so the suite stays fast and never flakes.
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                             database=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def typed_words(draw):
    """A Cartan type and a word in it: either free letters, or a prefix, a
    moving letter and a one-sign reduced word of w0, where a dual move
    applies."""
    cdata = weyl.build_cartan(draw(st.sampled_from(TYPES)))
    letter = st.integers(1, cdata.rank).flatmap(lambda i: st.sampled_from((i, -i)))
    if draw(st.booleans()):
        return cdata, DoubleWord(tuple(draw(st.lists(letter, min_size=1, max_size=6))))
    block = draw(st.sampled_from(sorted(weyl.reduced_words(weyl.longest_element(cdata)))))
    sign = draw(st.sampled_from((1, -1)))
    moving = -sign * draw(st.integers(1, cdata.rank))
    prefix = tuple(draw(st.lists(letter, max_size=2)))
    return cdata, DoubleWord(prefix + (moving,) + tuple(sign * x for x in block))


def _point(w, cdata, seed):
    return maps.random_assignment(w, cdata, random.Random(seed), None, bound=9)


@PROPERTY_SETTINGS
@given(typed_words(), st.booleans(), st.integers(0, 2**32))
def test_step_inverse_undoes_step(typed, restricted, seed):
    cdata, w = typed
    x = _point(w, cdata, seed)
    for move in words.applicable_moves(w, cdata):
        m = maps.dmove_transform(w, move, cdata, restricted)
        try:  # a pipeline and its inverse each have their own singular locus
            back = m.inverse().apply(m.apply(x))
        except SingularPoint:
            continue
        assert back == x, (w, move, restricted)
        for step in m.steps:
            assert step.inverse().word_after == step.word_before
            assert step.inverse().inverse() == step


@PROPERTY_SETTINGS
@given(typed_words(), st.integers(0, 2**32))
def test_mutation_is_an_involution(typed, seed):
    cdata, w = typed
    s = seeds.seed_for_word(w, cdata)
    x = _point(w, cdata, seed)
    for k in s.unfrozen:
        try:
            once = maps.mutate_point(s, x, k)
        except SingularPoint:
            continue
        assert maps.mutate_point(seeds.mutate_seed(s, k), once, k) == x, (w, k)


@PROPERTY_SETTINGS
@given(typed_words(), st.booleans(), st.booleans())
def test_tropical_mutation_is_an_involution_at_anchored_directions(typed, right, positive):
    # the frozen slot of the first or last letter's wire, which a tau move flips;
    # off the boundary a double flip is not the identity in general
    cdata, w = typed
    wire = abs(w[-1] if right else w[0])
    k = (wire, w.count(wire) if right else 0)
    s = seeds.seed_for_word(w, cdata)
    once = seeds.tropical_mutate_seed(s, k, positive)
    assert seeds.tropical_mutate_seed(once, k, not positive) == s, (w, k, positive)


@PROPERTY_SETTINGS
@given(typed_words(), st.booleans(), st.sampled_from((97, DEFAULT_PRIME)), st.data())
def test_path_transform_agrees_over_fp_and_q(typed, restricted, prime, data):
    cdata, source = typed
    target = source
    for _ in range(data.draw(st.integers(1, 3))):
        move = data.draw(st.sampled_from(words.applicable_moves(target, cdata)))
        target = words.apply_move(target, move, cdata)
    m = maps.path_transform(source, target, cdata, words.ALL_MOVE_KINDS, restricted)
    x = _point(source, cdata, data.draw(st.integers(0, 2**32)))
    try:
        over_q = m.apply(x)
    except SingularPoint:
        return
    try:
        over_fp = m.apply({ix: Fp(v.numerator, prime) / v.denominator
                           for ix, v in x.items()})
    except (SingularPoint, ZeroDivisionError):  # singular mod p only
        return
    assert over_fp.keys() == over_q.keys()
    for ix, value in over_q.items():
        assert isinstance(value, Fraction)
        assert over_fp[ix] == value, (source, target, ix)
