import collections
import itertools
import random

import pytest

from cluster_dual import cartan as weyl
from cluster_dual import words
from cluster_dual.errors import (InapplicableMove, InvariantViolation, NoPath,
                                 PreconditionFailed)
from cluster_dual.words import DoubleWord, Move

from conftest import W


def test_classify_examples():
    a1 = weyl.build_cartan("A1")
    kind, u, v = words.classify(W("-1,1"), a1)
    assert kind == "reduced" and u.length() == 1 and v.length() == 1
    kind, u, v = words.classify(W("1,1"), a1)
    assert kind == "not_reduced" and u.is_identity()
    a2 = weyl.build_cartan("A2")
    kind, u, v = words.classify(W("-1,2,1"), a2)
    assert kind == "reduced" and u == weyl.simple(a2, 1) and v.length() == 2


def test_zero_letter_is_refused():
    with pytest.raises(ValueError, match="letters are nonzero"):
        DoubleWord((1, 0, 2))
    assert DoubleWord((1, -2, 2)).letters == (1, -2, 2)


def test_bar_is_involution():
    w = W("1,-2,1")
    assert w.bar().bar() == w


def test_apply_move_examples():
    a1 = weyl.build_cartan("A1")
    assert words.apply_move(W("-1,1"), Move("mixed2", 0, 2), a1) == W("1,-1")
    a2 = weyl.build_cartan("A2")
    assert words.apply_move(W("1,2,1"), Move("positive_d", 0, 3), a2) == W("2,1,2")
    assert words.apply_move(W("-1,1"), Move("tau_right", 1), a1) == W("-1,-1")
    with pytest.raises(InapplicableMove):
        words.apply_move(W("1,1"), Move("mixed2", 0, 2), a1)
    with pytest.raises(InapplicableMove):
        words.apply_move(W("1,2"), Move("positive_d", 0, 3), a2)
    # a d-move must name its window's order and sign: no window, order 0;
    # the order-3 window 1,2,1 as order 2; a positive window as negative
    for text, move in (("1,2", Move("positive_d", 0)), ("1,2,1", Move("positive_d", 0, 2)),
                       ("1,2,1", Move("negative_d", 0, 3))):
        with pytest.raises(InapplicableMove):
            words.apply_move(W(text), move, a2)


def test_dual_move_examples():
    a1 = weyl.build_cartan("A1")
    assert words.apply_move(W("-1,1"), Move("dual", 0), a1) == W("1,-1")
    assert words.apply_move(W("1,-1"), Move("dual", 0), a1) == W("-1,1")
    a2 = weyl.build_cartan("A2")
    assert words.apply_move(W("-1,1,2,1"), Move("dual", 0), a2) == W("2,-1,-2,-1")
    # the dual move pairs off as an involution between the two shapes
    for s in ("-1,1,2,1", "-2,2,1,2", "-2,-1,1,2,1"):
        w = W(s)
        mv = Move("dual", len(w) - 1 - words.dual_block_length(a2))
        image = words.apply_move(w, mv, a2)
        again = words.apply_move(image, Move("dual", len(image) - 4), a2)
        assert again == w


def test_move_path_examples():
    a1 = weyl.build_cartan("A1")
    path = words.move_path(W("-1,1"), W("1,-1"), a1, ("mixed2",))
    assert len(path) == 1 and path[0].kind == "mixed2"
    a2 = weyl.build_cartan("A2")
    path = words.move_path(W("1,2,1"), W("2,1,2"), a2, ("positive_d",))
    assert len(path) == 1 and path[0].order == 3
    with pytest.raises(NoPath):
        words.move_path(W("-1,1"), W("1,-1"), a1, ("positive_d",))


def _word_level_path(source, target, cdata, kinds, applicable, apply):
    """The reference search: breadth-first over DoubleWord states, each
    expanded through ``applicable_moves`` and ``apply_move`` (passed in),
    the first edge to reach a state kept, the same bound and messages."""
    parent = {source: None}
    queue = collections.deque([source])
    expanded = 0
    while target not in parent:
        if not queue:
            raise NoPath(f"no {kinds} path {source.to_string()} -> {target.to_string()}")
        if expanded >= words._MAX_STATES:
            raise NoPath(f"search aborted after {words._MAX_STATES} states")
        w = queue.popleft()
        expanded += 1
        for mv in applicable(w, cdata, kinds):
            nxt = apply(w, mv, cdata)
            if nxt not in parent:
                parent[nxt] = (w, mv)
                queue.append(nxt)
    path, state = [], target
    while parent[state] is not None:
        state, mv = parent[state]
        path.append(mv)
    return path[::-1]


@pytest.mark.parametrize("kinds", [words.D_KINDS, ("mixed2",), words.DHAT_KINDS,
                                   words.ALL_MOVE_KINDS])
@pytest.mark.parametrize("type_label", ["A2", "B2"])
def test_move_path_is_the_word_level_search(type_label, kinds, monkeypatch):
    """``move_path`` searches letter tuples through the one move kernel and
    finds the move list, or the NoPath, of a breadth-first search over
    words built from ``applicable_moves`` and ``apply_move``, which it never
    calls.  Targets are random walks from the source (a path exists) or
    random words of its length; every third case runs under a small bound,
    so the search may abort."""
    cdata = weyl.build_cartan(type_label)
    applicable, apply, bound = words.applicable_moves, words.apply_move, words._MAX_STATES

    def refuse(*args, **kwargs):
        raise AssertionError("move_path called the word-level move functions")

    monkeypatch.setattr(words, "applicable_moves", refuse)
    monkeypatch.setattr(words, "apply_move", refuse)
    rng = random.Random(f"move-path:{type_label}:{kinds}")
    outcomes = collections.Counter()

    def random_word(n):
        return DoubleWord(tuple(rng.choice((-1, 1)) * rng.randint(1, cdata.rank)
                                for _ in range(n)))

    for case in range(30):
        source = random_word(rng.randint(2, 6))
        if case % 2:
            target = random_word(len(source))
        else:
            target = source
            for _ in range(rng.randint(0, 8)):
                moves = applicable(target, cdata, kinds)
                if moves:
                    target = apply(target, rng.choice(moves), cdata)
        monkeypatch.setattr(words, "_MAX_STATES", 12 if case % 3 == 0 else bound)
        try:
            want = _word_level_path(source, target, cdata, kinds, applicable, apply)
        except NoPath as exc:
            with pytest.raises(NoPath) as got:
                words.move_path(source, target, cdata, kinds)
            assert str(got.value) == str(exc), (source, target)
            outcomes["aborted" if "aborted" in str(exc) else "exhausted"] += 1
        else:
            assert words.move_path(source, target, cdata, kinds) == want, (source, target)
            outcomes["path"] += 1
    assert outcomes["path"] and outcomes["exhausted"], outcomes


def _word_graph(cdata, kinds=words.D_KINDS):
    def successors(w):
        for mv in words.applicable_moves(w, cdata, kinds):
            yield mv, words.apply_move(w, mv, cdata)
    return successors


def test_ball_paths_are_the_search_paths():
    """A ball answers both directions with the least shortest path a fresh
    search returns, whatever order the queries come in."""
    a2 = weyl.build_cartan("A2")
    successors = _word_graph(a2)
    anchor = W("1,2,1,-1,-2,-1")
    others = [W(s) for s in ("-1,-2,-1,1,2,1", "1,-1,2,-2,1,-1", "-2,2,-1,1,-2,2",
                             "2,1,-2,-1,2,-2", "1,2,1,-1,-2,-1")]
    ball = words._Ball(anchor, successors)
    for w in others:
        assert ball.path_to(w) == words._search(w, anchor, successors)
        assert ball.path_from(w) == words._search(anchor, w, successors)
    assert ball.path_to(W("1,2")) is None


def test_ball_keeps_every_state_through_aborts_and_errors(monkeypatch):
    """The bound is checked before a state leaves the queue and a state is
    expanded all or nothing, so an interrupted ball resumes to the paths a
    fresh search returns."""
    a2 = weyl.build_cartan("A2")
    successors = _word_graph(a2)
    anchor, goal = W("1,2,1,-1,-2,-1"), W("-1,-2,-1,1,2,1")
    want_from = words._search(anchor, goal, successors)
    want_to = words._search(goal, anchor, successors)
    calls = itertools.count()

    def flaky(w):
        for item in successors(w):
            if next(calls) == 40:
                raise RuntimeError("interrupted")
            yield item

    ball = words._Ball(anchor, flaky)
    with pytest.raises(RuntimeError):
        ball.path_from(goal)
    bound = words._MAX_STATES
    monkeypatch.setattr(words, "_MAX_STATES", 5)
    with pytest.raises(NoPath, match="search aborted after 5 states"):
        ball.path_from(goal)
    monkeypatch.setattr(words, "_MAX_STATES", bound)
    assert ball.path_from(goal) == want_from
    assert ball.path_to(goal) == want_to


def test_ball_reads_a_reached_path_without_asking_for_edges():
    """A reached state's path is read off the labels stored when the search
    reached it: no successor is asked for again."""
    a2 = weyl.build_cartan("A2")
    successors = _word_graph(a2)
    asked = []

    def counted(w):
        asked.append(w)
        return successors(w)

    anchor, goal = W("1,2,1,-1,-2,-1"), W("-1,-2,-1,1,2,1")
    ball = words._Ball(anchor, counted)
    want = ball.path_from(goal)
    assert want == words._search(anchor, goal, successors)
    asked.clear()
    assert ball.path_from(goal) == want
    assert asked == []


def test_ball_walk_rejects_an_asymmetric_graph():
    """On a directed cycle no successor of 2 is one layer nearer 0."""
    ball = words._Ball(0, lambda n: [("next", (n + 1) % 3)])
    assert ball.path_from(2) == ["next", "next"]
    with pytest.raises(InvariantViolation):
        ball.path_to(2)


def test_dual_ok_reads_only_the_tail():
    a2 = weyl.build_cartan("A2")
    for prefix in ((), (1,), (-2, 1)):
        assert words._dual_ok(DoubleWord(prefix + (-1, 1, 2, 1)), a2)
        assert words._dual_ok(DoubleWord(prefix + (1, -2, -1, -2)), a2)
        assert not words._dual_ok(DoubleWord(prefix + (1, 1, 2, 1)), a2)
        assert not words._dual_ok(DoubleWord(prefix + (-1, 1, 2, -1)), a2)
        assert not words._dual_ok(DoubleWord(prefix + (-1, 1, 2, 2)), a2)
    assert not words._dual_ok(W("1,2,1"), a2)
    assert words._dual_tail_ok.cache_info().maxsize is not None


def test_class_questions_factor_each_subword_cut_once(monkeypatch):
    """The class cache is keyed by the one-sign subwords, so the 480
    membership questions of the 80 A2 shuffles and six pinned classes run
    ``_factor`` at most once per subword pair and cut: four pairs, one cut
    per pinned class."""
    from test_class_answers import _shuffle_words
    assert words._subword_cuts.cache_info().maxsize is not None
    a2 = weyl.build_cartan("A2")
    w0 = weyl.longest_element(a2)
    calls = []
    real = words._factor
    monkeypatch.setattr(words, "_factor", lambda *args: calls.append(args) or real(*args))
    words._subword_cuts.cache_clear()
    answers = [words.is_in_dv(w, a2, w0, w1)
               for w in _shuffle_words() for w1 in weyl.weyl_iter(a2)]
    assert len(answers) == 480 and any(answers) and not all(answers)
    assert len(set(calls)) == len(calls) <= 4 * 6


def test_move_reversibility(rng):
    a2 = weyl.build_cartan("A2")
    pool = [W(s) for s in ("1,2,1", "-1,2,1", "1,-2,1,2", "-1,-2,-1,1,2,1")]
    for w in pool:
        for mv in words.applicable_moves(w, a2):
            image = words.apply_move(w, mv, a2)
            undo = [m for m in words.applicable_moves(image, a2)
                    if words.apply_move(image, m, a2) == w]
            assert undo, (w, mv)


def _all_double_reduced(u, v, cdata):
    out = set()
    for ru in weyl.reduced_words(u):
        for rv in weyl.reduced_words(v):
            neg = tuple(-x for x in ru)
            for pattern in itertools.combinations(range(len(ru) + len(rv)), len(ru)):
                word = []
                i = j = 0
                for pos in range(len(ru) + len(rv)):
                    if pos in pattern:
                        word.append(neg[i])
                        i += 1
                    else:
                        word.append(rv[j])
                        j += 1
                out.add(DoubleWord(tuple(word)))
    return out


def test_generalized_dmoves_connect_classes_exhaustively():
    a2 = weyl.build_cartan("A2")
    elements = list(weyl.weyl_iter(a2))
    for u in elements:
        for v in elements:
            family = _all_double_reduced(u, v, a2)
            assert len(family) <= 80
            start = next(iter(family))
            seen = {start}
            frontier = [start]
            while frontier:
                cur = frontier.pop()
                for mv in words.applicable_moves(cur, a2, words.D_KINDS):
                    nxt = words.apply_move(cur, mv, a2)
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            assert seen == family, (u.reduced_word(), v.reduced_word())


def test_section_and_square_words():
    a2 = weyl.build_cartan("A2")
    assert words.square_word(W("1,2"), a2) == W("-2,-1")
    a1 = weyl.build_cartan("A1")
    assert words.square_word(W("1"), a1) == W("-1")
    w = W("1,2,1")
    # sections interpolate between the word and its square
    assert words.section_word(w, 4, a2) == w
    assert words.section_word(w, 1, a2) == W("-1,-2,-1")
    assert words.section_word(w, 3, a2) == W("-1,1,2")
    with pytest.raises(PreconditionFailed):
        words.section_word(W("1,-2"), 1, a2)


def test_star_word():
    a2 = weyl.build_cartan("A2")
    assert words.star_word(W("1"), a2) == W("-2")
    assert words.star_word(W("1,-2"), a2) == W("-2,1")
    w = W("1,2,-1")
    assert words.star_word(words.star_word(w, a2), a2) == w


def test_trivial_vword_construction():
    a2 = weyl.build_cartan("A2")
    w0 = weyl.longest_element(a2)
    e = weyl.identity_element(a2)
    word = words.trivial_vword(a2, e, e, w0)
    assert word.positive_subword == (1, 2, 1) * 2
    with pytest.raises(PreconditionFailed):
        words.trivial_vword(a2, w0, e, weyl.simple(a2, 1))


def test_membership_examples():
    a1 = weyl.build_cartan("A1")
    s1 = weyl.simple(a1, 1)
    witness = words.membership(W("-1,1"), a1, s1, w1=s1)
    assert witness is not None and witness.w2.is_identity()
    witness = words.membership(W("1,1"), a1, s1)
    assert witness is not None and witness.w1.is_identity()
    a2 = weyl.build_cartan("A2")
    assert words.membership(W("1,1"), a2, weyl.longest_element(a2)) is None


def test_membership_witness_chain_applies():
    a2 = weyl.build_cartan("A2")
    w0 = weyl.longest_element(a2)
    scrambled = W("1,-1,2,-2,1,-1")
    witness = words.membership(scrambled, a2, w0)
    assert witness is not None
    cur = scrambled
    for mv in witness.chain:
        cur = words.apply_move(cur, mv, a2)
    assert cur == witness.trivial_word
    assert words.trivial_decompositions(cur, a2, w0)


_A1 = weyl.build_cartan("A1")
BEYOND_THE_RANK = {
    "applicable_moves": lambda: words.applicable_moves(W("1,2,1"), _A1),
    "move_path_source": lambda: words.move_path(W("1,2,1"), W("2,1,2"), _A1),
    "move_path_target": lambda: words.move_path(W("1"), W("-2"), _A1),
    "apply_move_d": lambda: words.apply_move(W("1,2,1"), Move("positive_d", 0, 3), _A1),
    "apply_move_dual": lambda: words.apply_move(W("-2,1"), Move("dual", 0), _A1),
    "class": lambda: words.canonical_class(W("-1,2,1"), _A1),
}


@pytest.mark.parametrize("name", sorted(BEYOND_THE_RANK))
def test_letters_beyond_the_rank_are_rejected(name):
    with pytest.raises(PreconditionFailed, match=r"outside 1\.\.1"):
        BEYOND_THE_RANK[name]()


def test_dual_move_classes():
    a2 = weyl.build_cartan("A2")
    src_w1, tgt_w1 = words.dual_move_classes(W("-1,1,2,1"), a2)
    assert src_w1 == weyl.simple(a2, 2)  # the star of the moving letter
    assert tgt_w1.is_identity()
    back_src, back_tgt = words.dual_move_classes(W("2,-1,-2,-1"), a2)
    assert back_src == tgt_w1 and back_tgt == src_w1
