import collections
import contextlib
import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

from cluster_dual import cartan as weyl
from cluster_dual import arith, evals, golden, maps, seeds, words
from cluster_dual.arith import DEFAULT_PRIME, Jet, TrialConfig, jet_point
from cluster_dual.errors import (FrozenDirection, InapplicableMove, InvariantViolation, NoPath,
                                 PreconditionFailed, SingularPoint)
from cluster_dual.words import Move

from conftest import W, rank2_minimal_words, rational_point, reference_jets


A1 = weyl.build_cartan("A1")
A2 = weyl.build_cartan("A2")
B2 = weyl.build_cartan("B2")
G2 = weyl.build_cartan("G2")

# (barred w0)(w0) in G2, where the Artin generators' plans carry exchange
# exponents of absolute value 3 and order-6 d-moves.
G2_WORD = "-1,-2,-1,-2,-1,-2,1,2,1,2,1,2"


def test_mutate_point_formula_and_involution(rng):
    s = seeds.seed_for_word(W("-1,1"), A1)
    vals = {(1, 0): F(2), (1, 1): F(3), (1, 2): F(5)}
    out = maps.mutate_point(s, vals, (1, 1))
    # eps[(1,0),(1,1)] = +1: x0 -> x0 x1 / (1+x1)
    assert out[(1, 1)] == F(1, 3)
    assert out[(1, 0)] == F(2) * F(3) / (1 + F(3))
    back = maps.mutate_point(seeds.mutate_seed(s, (1, 1)), out, (1, 1))
    assert back == vals
    with pytest.raises(FrozenDirection):
        maps.mutate_point(s, vals, (1, 0))
    bad = {**vals, (1, 1): F(-1)}
    with pytest.raises(SingularPoint):
        maps.mutate_point(s, bad, (1, 1))


def test_tropical_point_examples():
    s = seeds.seed_for_word(W("1,1"), A1)
    vals = {(1, 0): F(2), (1, 1): F(3), (1, 2): F(5)}
    out = maps.tropical_mutate_point(s, vals, (1, 0), True)
    assert out == {(1, 0): F(1, 2), (1, 1): F(3), (1, 2): F(5)}
    # two frozen slots in one cover set: the mate picks up a monomial factor
    s2 = seeds.seed_for_word(W("1,2"), A2)
    vals2 = {(1, 0): F(2), (1, 1): F(3), (2, 0): F(5), (2, 1): F(7)}
    out2 = maps.tropical_mutate_point(s2, vals2, (2, 1), True)
    assert out2[(2, 1)] == F(1, 7)
    assert out2[(1, 1)] == F(3) * F(7)  # exponent +1 toward the other mate
    assert out2[(1, 0)] == F(2) and out2[(2, 0)] == F(5)


def test_amalgamate_split_round_trip(rng):
    w = W("-1,2,1")
    vals = rational_point(w, A2, rng)
    (lw, lv), (rw, rv) = maps.split_point(w, vals, 2, 2)
    joined_word, joined = maps.amalgamate_points(lw, lv, rw, rv)
    assert joined_word == w and joined == vals
    # amalgamation multiplies glued slots
    a1vals = {(1, 0): F(2), (1, 1): F(3)}
    b1vals = {(1, 0): F(5), (1, 1): F(7)}
    word, glued = maps.amalgamate_points(W("1"), a1vals, W("1"), b1vals)
    assert word == W("1,1")
    assert glued == {(1, 0): F(2), (1, 1): F(15), (1, 2): F(7)}


def test_dmove_transform_examples(rng):
    mu = maps.dmove_transform(W("-1,1"), Move("mixed2", 0, 2), A1)
    vals = {(1, 0): F(2), (1, 1): F(3), (1, 2): F(5)}
    out = mu.apply(vals)
    assert out[(1, 1)] == F(1, 3)
    # mixed 2-move on distinct wires is the identity on points
    mu2 = maps.dmove_transform(W("1,-2"), Move("mixed2", 0, 2), A2)
    vals2 = rational_point(W("1,-2"), A2, rng)
    assert mu2.apply(vals2) == vals2


def test_restricted_path_matches_golden():
    mu = maps.path_transform(W("-1,1"), W("1,-1"), A1, ("mixed2",), restricted=True)
    vals = {(1, 0): F(2), (1, 1): F(3), (1, 2): F(5)}
    got = mu.apply(vals)
    want = golden.eval_map("mu_m11_to_1m1", {"y0": F(2), "y1": F(3), "t": F(5)})
    assert tuple(got[(1, k)] for k in range(3)) == want


def test_path_transform_empty_and_nopath():
    assert maps.path_transform(W("1,1"), W("1,1"), A1).steps == ()
    with pytest.raises(NoPath):
        maps.path_transform(W("-1,1"), W("1,-1"), A1, ("positive_d",))


def test_two_paths_agree_pointwise():
    src, tgt = W("1,-2,1"), W("1,1,-2")
    direct = maps.path_transform(src, tgt, A2, words.D_KINDS)
    detour = maps.path_transform(src, W("-2,1,1"), A2, words.D_KINDS).then(
        maps.path_transform(W("-2,1,1"), tgt, A2, words.D_KINDS))
    cfg = TrialConfig(trials=25, rng_seed=3)
    ixs = words.seed_indices(src, 2)
    from cluster_dual.arith import maps_equal_probabilistic
    verdict = maps_equal_probabilistic(
        lambda p: direct.apply_tuple(p), lambda p: detour.apply_tuple(p),
        len(ixs), cfg)
    assert verdict.is_equal


def test_zeta_examples():
    z = maps.zeta_map(W("1"), A1)
    assert z.target_word == W("-1")
    vals = {(1, 0): F(2), (1, 1): F(3)}
    assert z.apply(vals) == {(1, 0): F(2), (1, 1): F(1, 3)}
    assert maps.zeta_map(W(""), A1).steps == ()
    z2 = maps.zeta_map(W("1,2,1"), A2)
    assert z2.target_word == W("-1,-2,-1")
    # negative-word mirror
    z3 = maps.zeta_map(W("-1,-2,-1"), A2)
    assert z3.target_word == W("1,2,1")


def test_tormut_square_transport(rng):
    src, tgt = W("1,2,1"), W("2,1,2")
    zs, zt = maps.zeta_map(src, A2), maps.zeta_map(tgt, A2)
    mu = maps.path_transform(src, tgt, A2, words.D_KINDS)
    mu_sq = maps.path_transform(zs.target_word, zt.target_word, A2, words.D_KINDS)
    for _ in range(5):
        vals = rational_point(src, A2, rng)
        assert mu_sq.apply(zs.apply(vals)) == zt.apply(mu.apply(vals))


def test_xi_saltation_golden_and_inverse(rng):
    xi = maps.xi_saltation(W("-1,1"), A1)
    vals = {(1, 0): F(2), (1, 1): F(3), (1, 2): F(5)}
    got = xi.apply(vals)
    want = golden.eval_map("xi_s1", {"y0": F(2), "y1": F(3), "t": F(5)})
    assert tuple(got[(1, k)] for k in range(3)) == want
    assert xi.inverse().apply(got) == vals
    for s in ("-1,1,2,1", "-2,2,1,2", "-2,-1,1,2,1"):
        src = W(s)
        xi = maps.xi_saltation(src, A2)
        for _ in range(3):
            vals = rational_point(src, A2, rng)
            assert xi.inverse().apply(xi.apply(vals)) == vals


def test_mu_hat_identity_and_saltation_route():
    ident = maps.mu_hat(W("1,1"), W("1,1"), A1, weyl.longest_element(A1))
    assert ident.steps == ()
    route = maps.mu_hat(W("-1,1"), W("1,1"), A1, weyl.longest_element(A1))
    kinds = [step.describe()["step"] for step in route.steps]
    assert any("saltation" in kind for kind in kinds)


def test_mu_hat_rebuild_and_search_abort(monkeypatch):
    w0 = weyl.longest_element(A1)
    first = maps.mu_hat(W("-1,1"), W("1,1"), A1, w0)
    assert _steps(maps.mu_hat(W("-1,1"), W("1,1"), A1, w0)) == _steps(first)
    maps._artin_T_word.cache_clear()
    monkeypatch.setattr(words, "_MAX_STATES", 0)
    with pytest.raises(NoPath, match="search aborted after 0 states"):
        maps.mu_hat(W("-1,1"), W("1,1"), A1, w0)


def _steps(m):
    return [step.describe() for step in m.steps]


def _build_legs_one_shot(monkeypatch):
    """Route every mu_hat leg through the one-shot ``_mu_hat`` mode, which
    runs a fresh breadth-first search for each."""
    one_shot = maps._mu_hat
    monkeypatch.setattr(maps, "_mu_hat",
                        lambda cdata, source, target, v, w1_source, w1_target, *_:
                        one_shot(cdata, source, target, v, w1_source, w1_target))


def test_artin_legs_take_the_fresh_search_paths(monkeypatch):
    """Every step of an Artin build is the step the same legs take when each
    is built by a fresh search: all 160 pairs (w, T_j) of the 80 shuffles of
    two reduced words of w0 in A2, the B2 generators and the B2 composite of
    2,1,2,1.  Paths are compared, not maps, so this holds on B2 too."""
    reduced = ((1, 2, 1), (2, 1, 2))
    shuffles = []
    for neg, pos in itertools.product(reduced, reduced):
        for slots in itertools.combinations(range(6), 3):
            it_neg, it_pos = iter(neg), iter(pos)
            shuffles.append(words.DoubleWord(tuple(
                -next(it_neg) if t in slots else next(it_pos) for t in range(6))))
    b2 = weyl.build_cartan("B2")
    cases = [(A2, w, (j,)) for w in shuffles for j in (1, 2)]
    cases += [(b2, W("-1,-2,-1,-2,1,2,1,2"), letters) for letters in ((1,), (2,), (2, 1, 2, 1))]
    maps._artin_T_word.cache_clear()
    built = [_steps(maps.artin_T_word(w, letters, cdata)) for cdata, w, letters in cases]
    maps._artin_T_word.cache_clear()
    _build_legs_one_shot(monkeypatch)
    for (cdata, w, letters), steps in zip(cases, built):
        assert steps == _steps(maps.artin_T_word(w, letters, cdata)), (w, letters)


def test_anchored_build_resumes_after_an_abort(monkeypatch):
    """An Artin build that hits the search bound leaves its anchor's ball
    cached and whole: once the bound is restored the same ball answers with
    the fresh-search path."""
    assert 0 < maps._ball.cache_info().maxsize <= 64
    assert 0 < maps._graph.cache_info().maxsize <= 64
    w0 = weyl.longest_element(A2)
    w = W("-1,-2,-1,1,2,1")
    start = (w.letters, words.canonical_class(w, A2, w0)[0].w1)
    anchor = (words.l_move(maps._artin_base_word(A2, 1)).letters,
              w0 * weyl.simple(A2, weyl.star(A2, 1)))
    maps._graph.cache_clear()
    maps._ball.cache_clear()
    maps._artin_T_word.cache_clear()
    bound = words._MAX_STATES
    monkeypatch.setattr(words, "_MAX_STATES", 0)
    with pytest.raises(NoPath, match="search aborted after 0 states"):
        maps.artin_T(w, 1, A2)
    monkeypatch.setattr(words, "_MAX_STATES", bound)
    assert maps._ball.cache_info().currsize == 1
    graph = maps._graph(A2, w0)
    start, anchor = graph.number(*start), graph.number(*anchor)
    ball = maps._ball(graph, anchor)
    assert maps._ball.cache_info().currsize == 1
    assert ball.path_to(start) == words._search(start, anchor, graph.edges)
    built = _steps(maps.artin_T(w, 1, A2))
    maps._artin_T_word.cache_clear()
    _build_legs_one_shot(monkeypatch)
    assert built == _steps(maps.artin_T(w, 1, A2))


def test_graph_drops_its_numbering_past_the_search_bound(monkeypatch):
    """Once a graph numbers more states than one search may expand, the
    next search drops the numbering, the edges and the cached balls, and
    still takes the same path."""
    w0 = weyl.longest_element(A2)
    w = W("-1,-2,-1,1,2,1")
    maps._graph.cache_clear()
    maps._ball.cache_clear()
    maps._artin_T_word.cache_clear()
    built = _steps(maps.artin_T(w, 1, A2))
    graph = maps._graph(A2, w0)
    numbered = len(graph._states)
    assert maps._ball.cache_info().currsize == 2 and numbered > 100
    monkeypatch.setattr(words, "_MAX_STATES", numbered)
    graph.trim()
    assert len(graph._states) == numbered and maps._ball.cache_info().currsize == 2
    monkeypatch.setattr(words, "_MAX_STATES", numbered - 1)
    maps._artin_T_word.cache_clear()
    assert _steps(maps.artin_T(w, 1, A2)) == built
    assert maps._graph(A2, w0) is graph
    assert maps._ball.cache_info().hits == 0  # both balls grown again


def _fresh_edges(cdata, v, word, w1):
    """The edges of the (word, w1) state derived afresh, as ``_DhatGraph``
    documents them: every dhat move, the class pair of a dual move, and the
    per-word class test of the target."""
    out = []
    for mv in words.applicable_moves(word, cdata, words.DHAT_KINDS):
        out_w1 = w1
        if mv.kind == "dual":
            req, out_w1 = words.dual_move_classes(word, cdata)
            if req != w1:
                continue
        nxt = words.apply_move(word, mv, cdata)
        if next(words._class_cuts(nxt, cdata, v, out_w1), None) is not None:
            out.append((mv, (nxt, out_w1)))
    return tuple(out)


def _decoded_edges(graph, n):
    """The edges of numbered state n, with (word, w1) targets."""
    return tuple((mv, (words.DoubleWord(graph._states[m][0]), graph._states[m][1]))
                 for mv, m in graph.edges(n))


def test_dhat_edges_match_a_fresh_derivation(monkeypatch):
    """The numbered graph gives every state of the A2 D(w0) component and
    every state of a B2 ball the edges an uncached derivation finds."""
    b2 = weyl.build_cartan("B2")
    maps._graph.cache_clear()
    states = []
    for cdata, word, bound in ((A2, W("-1,-2,-1,1,2,1"), words._MAX_STATES),
                               (b2, W("-1,-2,-1,-2,1,2,1,2"), 300)):
        v = weyl.longest_element(cdata)
        graph = maps._graph(cdata, v)
        assert graph.edges.cache_info().maxsize is not None
        anchor = graph.number(word.letters, words.canonical_class(word, cdata, v)[0].w1)
        ball = words._Ball(anchor, graph.edges)
        monkeypatch.setattr(words, "_MAX_STATES", bound)
        if cdata is A2:
            assert ball.path_from(None) is None  # the whole component
        else:
            with pytest.raises(NoPath):
                ball.path_from(None)
        states += [(cdata, v, graph, n) for n in ball._parent]
    cached = [_decoded_edges(graph, n) for _, _, graph, n in states]
    assert len(states) > 1000
    assert {mv.kind for edges in cached for mv, _ in edges} == set(words.DHAT_KINDS)
    monkeypatch.setattr(words, "_subword_cuts", words._subword_cuts.__wrapped__)
    for (cdata, v, graph, n), edges in zip(states, cached):
        word, w1 = graph._states[n]
        assert edges == _fresh_edges(cdata, v, words.DoubleWord(word), w1), (word, w1)


def _fresh_search(edges, start, goal):
    """The least shortest path from start to goal in edge order, by a
    breadth-first search over (word, w1) states: the first edge to reach a
    state is kept."""
    parent = {start: None}
    queue = collections.deque([start])
    while queue and goal not in parent:
        state = queue.popleft()
        for mv, nxt in edges(state):
            if nxt not in parent:
                parent[nxt] = (state, mv)
                queue.append(nxt)
    path = []
    while parent[goal] is not None:
        goal, mv = parent[goal]
        path.append(mv)
    return path[::-1]


def test_mu_hat_paths_are_the_fresh_search_paths():
    """One-shot and both anchored ``_mu_hat`` modes take the path a plain
    breadth-first search over freshly derived (word, w1) edges finds: on the
    two A2 MU_HAT pairs and on 50 seeded random state pairs of the A2 D(w0)
    component."""
    memo = {}

    def edges(cdata, v):
        def of(state):
            key = (cdata, v, state)
            if key not in memo:
                memo[key] = _fresh_edges(cdata, v, *state)
            return memo[key]
        return of

    cases = []
    for source, target in evals._INSTANCES["A2"]["MU_HAT"]:
        v = evals.make_context(source, A2).v
        cases.append((v, *((w, words.canonical_class(w, A2, v)[0].w1)
                           for w in (source, target))))
    w0 = weyl.longest_element(A2)
    word = W("-1,-2,-1,1,2,1")
    anchor = (word, words.canonical_class(word, A2, w0)[0].w1)
    component = [anchor]
    for state in component:
        component += [nxt for _, nxt in edges(A2, w0)(state) if nxt not in component]
    assert len(component) > 700
    pick = random.Random(26)
    cases += [(w0, *pick.sample(component, 2)) for _ in range(50)]
    for v, start, goal in cases:
        want = _steps(maps._along(start[0], _fresh_search(edges(A2, v), start, goal),
                                  A2, restricted=True))
        for anchored in ("", "source", "target"):
            got = maps._mu_hat(A2, start[0], goal[0], v, start[1], goal[1], anchored)
            assert _steps(got) == want, (start, goal, anchored)


def test_anchored_mu_hat_checks_the_goal_class_before_growing_a_ball():
    """A goal outside its class gets the no-path error at once, from either
    anchor, and no ball is grown for it."""
    w0 = weyl.longest_element(A2)
    source, goal = W("-1,-2,-1,1,2,1"), W("1,2,1,-1,-2,-1")
    w1 = words.canonical_class(source, A2, w0)[0].w1
    outside = next(x for x in weyl.weyl_iter(A2) if not words.is_in_dv(goal, A2, w0, x))
    maps._ball.cache_clear()
    for anchored in ("target", "source"):
        with pytest.raises(NoPath, match="no coherent dhat path"):
            maps._mu_hat(A2, source, goal, w0, w1, outside, anchored)
        assert maps._ball.cache_info().currsize == 0


def test_artin_T_golden_forms():
    t1 = maps.artin_T(W("1,1"), 1, A1)
    vals = {(1, 0): F(2), (1, 1): F(3), (1, 2): F(5)}
    got = t1.apply(vals)
    want = golden.eval_map("T1", {"z0": F(2), "z1": F(3), "t": F(5)})
    assert tuple(got[(1, k)] for k in range(3)) == want
    twice = t1.apply(got)
    derived = golden.eval_map("T1_squared_derived", {"z0": F(2), "z1": F(3), "t": F(5)})
    assert tuple(twice[(1, k)] for k in range(3)) == derived


def test_artin_T_base_word_independence(rng):
    word = W("1,2,1,1,2,1")
    default = maps.artin_T(word, 1, A2)
    alt_base = words.DoubleWord((-1, -2, -1, 2, 1, 2))
    other = maps.artin_T(word, 1, A2, base=alt_base)
    for _ in range(4):
        vals = rational_point(word, A2, rng)
        assert default.apply(vals) == other.apply(vals)


def test_artin_T_refuses_a_generator_index_outside_the_rank(monkeypatch):
    """A generator index outside 1..rank is refused before any base word,
    class lookup or search, with or without a base word given."""
    cases = [(A1, W("1,1"), W("-1,1")), (A2, W("1,2,1,1,2,1"), W("-1,-2,-1,1,2,1"))]
    monkeypatch.setattr(maps, "_artin_base_word", lambda *args: pytest.fail("base word"))
    monkeypatch.setattr(words, "canonical_class", lambda *args: pytest.fail("class lookup"))
    monkeypatch.setattr(maps, "_graph", lambda *args: pytest.fail("search"))
    for cdata, w, base in cases:
        for j in (0, -1, cdata.rank + 1):
            match = rf"generator index {j} outside 1\.\.{cdata.rank}"
            for build in (lambda: maps.artin_T(w, j, cdata),
                          lambda: maps.artin_T(w, j, cdata, base=base),
                          lambda: maps.artin_T_word(w, (1, j), cdata)):
                with pytest.raises(PreconditionFailed, match=match):
                    build()


def test_warm_artin_rebuild_asks_no_class_question(monkeypatch):
    """A second build of a braid composite reads every factorization class
    from the class cache: words._factor is not called again."""
    word = W("1,2,1,1,2,1")
    maps.artin_T_word(word, (1, 2, 1), A2)
    calls = []
    real = words._factor
    monkeypatch.setattr(words, "_factor", lambda *args: calls.append(args) or real(*args))
    maps.artin_T_word(word, (1, 2, 1), A2)
    assert calls == []


def test_artin_word_agrees_with_per_letter_composite():
    """A composite of Artin generators equals the product of the single
    generators, built here from ``artin_T`` and ``.then``, exactly at
    rational and prime-field points.  On A2 and B2 a composite of two letters
    or more runs fewer steps than that product.

    On B2 the composite and the product take different move paths between
    base words, so they agree only where the transports do not depend on
    the path: with tropical exponents and brackets that carry the
    symmetrizers (eps_ij / d_j)."""
    cases = [(A2, W("1,2,1,1,2,1"), letters)
             for letters in ((1, 2, 1), (2, 1, 2), (1, 2), (2, 2), (1,))]
    cases += [(B2, W("1,2,1,2,1,2,1,2"), letters) for letters in ((1, 2, 1, 2), (2, 1))]
    cases.append((A1, W("1,1"), (1, 1)))
    rng = random.Random("artin-word")
    step_counts = []
    for cdata, word, letters in cases:
        fused = maps.artin_T_word(word, letters, cdata)
        reference = maps.artin_T(word, letters[0], cdata)
        for j in letters[1:]:
            reference = reference.then(maps.artin_T(word, j, cdata))
        assert fused.source_word == fused.target_word == word
        compared = 0
        # a prime-field point first: a wrong map fails there before its
        # rational values grow
        for prime in (DEFAULT_PRIME, None) * 4:
            vals = maps.random_assignment(word, cdata, rng, prime)
            try:
                want = reference.apply(vals)
                got = fused.apply(vals)
            except SingularPoint:
                continue
            assert got == want, (letters, vals)
            compared += 1
        assert compared >= 6, letters
        step_counts.append((cdata, letters, len(fused.steps), len(reference.steps)))
    for cdata, letters, fused_steps, reference_steps in step_counts:
        if len(letters) == 1:
            assert fused_steps == reference_steps, letters
        elif cdata is not A1:
            assert fused_steps < reference_steps, letters
        else:
            # on A1 the word 1,1 is the flipped base word: no detour to cut
            assert fused_steps == reference_steps, letters


def test_braid_relation_probabilistic():
    word = W("1,2,1,1,2,1")
    lhs = maps.artin_T_word(word, (1, 2, 1), A2)
    rhs = maps.artin_T_word(word, (2, 1, 2), A2)
    cfg = TrialConfig(trials=6, rng_seed=11)
    ixs = words.seed_indices(word, 2)
    from cluster_dual.arith import maps_equal_probabilistic
    assert maps_equal_probabilistic(
        lambda p: lhs.apply_tuple(p), lambda p: rhs.apply_tuple(p),
        len(ixs), cfg).is_equal


def test_g2_braid_relation_at_prime_field_points():
    """T1T2T1T2T1T2 = T2T1T2T1T2T1 on G2, the order-6 braid relation: the
    composites agree at F_p points, and changing the last letter of one
    gives a counterexample, confirmed over Q.  G2 has no ``verify`` entry,
    so nothing else runs these composites."""
    word = W(G2_WORD)
    dim = len(words.seed_indices(word, G2.rank))
    lhs = maps.artin_T_word(word, (1, 2, 1, 2, 1, 2), G2)
    cfg = TrialConfig(trials=5)
    verdicts = {}
    for letters in ((2, 1, 2, 1, 2, 1), (2, 1, 2, 1, 2, 2)):
        rhs = maps.artin_T_word(word, letters, G2)
        verdicts[letters] = arith.maps_equal_probabilistic(
            lhs.apply_tuple, rhs.apply_tuple, dim, cfg).status
    assert verdicts == {(2, 1, 2, 1, 2, 1): "equal", (2, 1, 2, 1, 2, 2): "counterexample"}


def test_b2_braid_composites_agree_as_maps():
    """T1T2T1T2 = T2T1T2T1 on B2, where the symmetrizers differ: the two
    composites agree as maps at prime-field points."""
    word = W("1,2,1,2,1,2,1,2")
    lhs = maps.artin_T_word(word, (1, 2, 1, 2), B2)
    rhs = maps.artin_T_word(word, (2, 1, 2, 1), B2)
    rng = random.Random("b2 braid")
    for _ in range(5):
        vals = maps.random_assignment(word, B2, rng, DEFAULT_PRIME)
        assert lhs.apply(vals) == rhs.apply(vals)


def test_poisson_bracket_at_defining_cases(rng):
    s = seeds.bracket_seed(seeds.seed_for_word(W("-1,1"), A1))
    vals = {(1, 0): F(2), (1, 1): F(3), (1, 2): F(5)}
    br = maps.poisson_bracket_at(s, (1, 0), (1, 1), vals)
    assert br == s.eps_hat((1, 0), (1, 1)) * F(2) * F(3) == F(6)
    assert maps.poisson_bracket_at(s, (1, 0), (1, 0), vals) == 0
    # the right frozen variable is central for the bracket seed
    assert maps.poisson_bracket_at(s, (1, 0), (1, 2), vals) == 0
    assert maps.poisson_bracket_at(s, (1, 1), (1, 2), vals) == 0


def test_is_poisson_map_positive_and_negative():
    cfg = TrialConfig(trials=4, rng_seed=2)
    mu = maps.dmove_transform(W("1,-2,1"), Move("mixed2", 1, 2), A2)
    assert maps.is_poisson_map(mu, cfg).is_equal
    trop = maps.dmove_transform(W("1,1"), Move("tau_left", 0), A1)
    assert maps.is_poisson_map(trop, cfg).is_equal
    trop_r = maps.dmove_transform(W("-1,1"), Move("tau_right", 1), A1)
    assert maps.is_poisson_map(trop_r, cfg).is_equal

    class Corrupted(maps.RationalMap):
        def apply(self, values):
            out = super().apply(values)
            k = (1, 1)
            out[k] = out[k] * out[(1, 0)]  # exponent deliberately off by one
            return out

    bad = Corrupted(mu.cdata, mu.source_word, mu.target_word, mu.steps, mu.restricted)
    assert maps.is_poisson_map(bad, cfg).status == "counterexample"


def _matrix_matches_pairwise(seed, fn, word, cdata, rng, rounds):
    """bracket_matrix_at against pairwise poisson_bracket_at for every pair
    a < b of fn's outputs (the rest by antisymmetry), at ``rounds`` seeded
    F_p and as many Q points; returns the points used."""
    used = 0
    for prime in (DEFAULT_PRIME, None) * rounds:
        vals = maps.random_assignment(word, cdata, rng, prime)
        try:
            matrix = maps.bracket_matrix_at(seed, fn, vals)
        except SingularPoint:
            continue
        n = len(matrix)
        for a in range(n):
            assert matrix[a][a] == 0
            for b in range(a + 1, n):
                pairwise = maps.poisson_bracket_at(
                    seed, lambda jets: fn(jets)[a], lambda jets: fn(jets)[b], vals)
                assert matrix[a][b] == pairwise == -matrix[b][a]
                assert type(matrix[a][b]) is type(pairwise)
        used += 1
    return used


def test_bracket_matrix_matches_pairwise_on_ev_hat_entries():
    rng = random.Random("bracket-matrix:ev_hat")
    for text in ("-1,1", "1,1", "1"):
        word = W(text)
        ctx = evals.make_context(word, A1)
        eta = seeds.bracket_seed(seeds.seed_for_word(word, A1))
        entries = lambda jets, ctx=ctx: [x for row in evals.ev_hat(ctx, jets).rows for x in row]
        assert _matrix_matches_pairwise(eta, entries, word, A1, rng, rounds=1) == 2


def test_bracket_matrix_matches_pairwise_on_map_targets():
    rng = random.Random("bracket-matrix:maps")
    mu = maps.dmove_transform(W("1,-2,1"), Move("mixed2", 1, 2), A2)
    trop = maps.dmove_transform(W("1,1"), Move("tau_left", 0), A1)
    trop_r = maps.dmove_transform(W("-1,1"), Move("tau_right", 1), A1)
    for m in (mu, trop, trop_r):
        src = seeds.seed_for_word(m.source_word, m.cdata)
        tgt_ixs = words.seed_indices(m.target_word, m.cdata.rank)
        images = lambda jets, m=m, ixs=tgt_ixs: [m.apply(jets)[ix] for ix in ixs]
        assert _matrix_matches_pairwise(src, images, m.source_word, m.cdata, rng, rounds=3) >= 4


def _brackets_or_error(seed, fn, vals):
    try:
        return maps.bracket_matrix_at(seed, fn, vals)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def test_bracket_matrix_same_on_residue_and_reference_jets():
    """bracket_matrix_at on residue-backed jets against the reference rules
    on jets of Fp parts, entry by entry (type, value and repr) or the same
    exception, at seeded points mod 97 and mod 2^61-1: ev_hat on the A1
    words and on A2 1,2,1,-1 and 1,2,1,1,2,1, and elementary A2 and B2 maps."""
    cases = []
    for cdata, texts in ((A1, ("-1,1", "1,1", "1")), (A2, ("1,2,1,-1", "1,2,1,1,2,1"))):
        for text in texts:
            ctx = evals.make_context(W(text), cdata)
            eta = seeds.bracket_seed(seeds.seed_for_word(W(text), cdata))
            cases.append((W(text), cdata, eta, lambda jets, ctx=ctx: [
                x for row in evals.ev_hat(ctx, jets).rows for x in row]))
    for text, move, cdata in (("1,2,1,-1", Move("positive_d", 0, 3), A2),
                              ("1,-2,1", Move("mixed2", 1, 2), A2),
                              ("1,2,1,2", Move("positive_d", 0, 4), B2),
                              ("1,2,1,2", Move("tau_left", 0), B2),
                              ("-1,1,2", Move("mixed2", 0, 2), B2)):
        m = maps.dmove_transform(W(text), move, cdata)
        tgt_ixs = words.seed_indices(m.target_word, cdata.rank)
        cases.append((W(text), cdata, seeds.seed_for_word(W(text), cdata),
                      lambda jets, m=m, ixs=tgt_ixs: [m.apply(jets)[ix] for ix in ixs]))
    rng = random.Random("bracket-matrix:storage")
    outcomes = collections.Counter()
    for word, cdata, seed, fn in cases:
        for prime in (97, DEFAULT_PRIME) * 3:
            vals = maps.random_assignment(word, cdata, rng, prime)
            storage = []
            got = _brackets_or_error(
                seed, lambda jets: storage.append(
                    {x._p for x in jets.values() if isinstance(x, Jet)}) or fn(jets), vals)
            with reference_jets():
                want = _brackets_or_error(seed, fn, vals)
            assert storage == [{prime} if seed.bracket_form[0] else set()]
            if isinstance(want, tuple) and isinstance(want[0], type):
                assert got == want
                outcomes["error"] += 1
                continue
            for row_g, row_w in zip(got, want, strict=True):
                for a, b in zip(row_g, row_w, strict=True):
                    assert type(a) is type(b) and a == b and repr(a) == repr(b)
            outcomes["brackets"] += 1
    assert outcomes == {"brackets": 59, "error": 1}


def _bracket_cases():
    """(name, word, cdata, seed, fn): the ev_hat entries of A1 and A2 words
    against their bracket seeds, and the target pullbacks of elementary maps
    against the seed is_poisson_map reads."""
    cases = []
    for cdata, texts in ((A1, ("-1,1", "1,1", "1")), (A2, ("1,2,1", "-1,-2,-1,1,2,1"))):
        for text in texts:
            ctx = evals.make_context(W(text), cdata)
            cases.append((f"ev_hat {text}", W(text), cdata,
                          seeds.bracket_seed(seeds.seed_for_word(W(text), cdata)),
                          lambda jets, ctx=ctx: [x for row in evals.ev_hat(ctx, jets).rows
                                                 for x in row]))
    for text, move, cdata in (("1,-2,1", Move("mixed2", 1, 2), A2),
                              ("1,1", Move("tau_left", 0), A1),
                              ("-1,1", Move("tau_right", 1), A1)):
        m = maps.dmove_transform(W(text), move, cdata)
        seed = seeds.seed_for_word(W(text), cdata)
        tgt_ixs = words.seed_indices(m.target_word, cdata.rank)
        cases.append((f"{move.kind} {text}", W(text), cdata,
                      seeds.bracket_seed(seed) if m.restricted else seed,
                      lambda jets, m=m, ixs=tgt_ixs: [m.apply(jets)[ix] for ix in ixs]))
    return cases


def _bracket_record(x):
    return [type(x).__name__, x.value if isinstance(x, arith.Fp) else str(x),
            getattr(x, "p", None)]


def _bracket_records():
    rng = random.Random("bracket values")
    records = []
    for name, word, cdata, seed, fn in _bracket_cases():
        for off_torus in (False, False, False, True):
            for prime in (97, DEFAULT_PRIME, None):
                vals = maps.random_assignment(word, cdata, rng, prime, bound=9)
                if off_torus:
                    ix = rng.choice(sorted(vals))
                    vals[ix] = vals[ix] * 0
                try:
                    got = [[_bracket_record(x) for x in row]
                           for row in maps.bracket_matrix_at(seed, fn, vals)]
                except (ArithmeticError, ValueError) as exc:
                    got = [type(exc).__name__, str(exc)]
                records.append([name, prime, off_torus, got])
    return records


# sha256 of the records above
BRACKET_SHA256 = "18f367cdbd06b09208ef9669b6c69161a04f24dab28b222a88ab61985d966711"


def test_bracket_values_pinned():
    """Every bracket_matrix_at result of the ev_hat entries on A1 -1,1, 1,1
    and 1 and A2 1,2,1 and -1,-2,-1,1,2,1, and of the target pullbacks of
    the A2 mixed 2-move on 1,-2,1 and the A1 tau moves, at seeded points mod
    97, mod 2^61-1 and over Q, and at such points with one coordinate zero:
    each entry's type, value and prime, or the error's type and message."""
    digest = hashlib.sha256(repr(_bracket_records()).encode()).hexdigest()
    assert digest == BRACKET_SHA256


def test_is_poisson_map_one_jet_pass_per_point():
    """Both sides of every draw come from one jet pass of the map: the
    brackets, and the values they are compared to; no plain pass runs."""
    class Counted(maps.RationalMap):
        jet_passes = plain_passes = 0

        def apply(self, values):
            if any(isinstance(x, Jet) for x in values.values()):
                Counted.jet_passes += 1
            else:
                Counted.plain_passes += 1
            return super().apply(values)

    mu = maps.dmove_transform(W("1,-2,1"), Move("mixed2", 1, 2), A2)
    counted = Counted(mu.cdata, mu.source_word, mu.target_word, mu.steps, mu.restricted)
    cfg = TrialConfig(trials=4, rng_seed=2)
    assert maps.is_poisson_map(counted, cfg).is_equal
    assert Counted.jet_passes == cfg.trials
    assert Counted.plain_passes == 0


def test_is_poisson_map_redraws_a_singular_jet_pass(monkeypatch):
    """A draw that is singular for the map raises inside the one jet pass
    (``maps._pullback``), and the trial engine redraws it: on the A2 1,2,1
    3-move, a first draw with a zero at the move's mutation index counts
    one redraw, and the verdict is still "equal"."""
    word = W("1,2,1")
    move = Move("positive_d", 0, 3)
    (k, _), = maps._move_mutations(word, move, A2)
    at = words.seed_indices(word, A2.rank).index(k)
    draws = []
    real_draw = arith.random_point_fp

    def draw(dim, prime, rng):
        point = real_draw(dim, prime, rng)
        if not draws:
            point = point[:at] + (arith.Fp(0, prime),) + point[at + 1:]
        draws.append(point)
        return point

    raised = []
    real_pullback = maps._pullback

    def pullback(*args):
        try:
            return real_pullback(*args)
        except SingularPoint as exc:
            raised.append(str(exc))
            raise

    outcomes = []
    real_trials = arith._trials

    def trials(*args):
        for outcome in real_trials(*args):
            outcomes.append(outcome)
            yield outcome

    monkeypatch.setattr(arith, "random_point_fp", draw)
    monkeypatch.setattr(maps, "_pullback", pullback)
    monkeypatch.setattr(arith, "_trials", trials)
    verdict = maps.is_poisson_map(maps.dmove_transform(word, move, A2), TrialConfig(trials=2))
    assert raised == ["zero coordinate at regular mutation index"]
    assert [(o.status, o.redraws) for o in outcomes] == [("equal", 1), ("equal", 0)]
    assert len(draws) == 3
    assert verdict.status == "equal"


def test_bracket_pass_lifts_only_the_form_support():
    """fn sees jets exactly on the support of the bracket form: (1,0) and
    (1,1) on A1 -1,1, and none on A1 1, whose form is empty, where fn runs
    once at the point itself and every bracket is the field's zero."""
    rng = random.Random("bracket-matrix:support")
    for text, support in (("-1,1", {(1, 0), (1, 1)}), ("1", set())):
        ctx = evals.make_context(W(text), A1)
        eta = seeds.bracket_seed(seeds.seed_for_word(W(text), A1))
        assert set(eta.bracket_form[0]) == support
        for prime in (97, DEFAULT_PRIME, None):
            vals = maps.random_assignment(W(text), A1, rng, prime)
            seen = []

            def entries(point):
                seen.append({ix for ix, x in point.items() if isinstance(x, Jet)})
                assert {ix: x for ix, x in point.items() if ix not in support} == {
                    ix: x for ix, x in vals.items() if ix not in support}
                return [x for row in evals.ev_hat(ctx, point).rows for x in row]

            brackets = maps.bracket_matrix_at(eta, entries, vals)
            assert seen == [support]
            if not support:
                zero = vals[(1, 0)] * 0
                assert brackets == ((zero,) * 4,) * 4
                assert {type(x) for row in brackets for x in row} == {type(zero)}


def test_output_without_jet_has_zero_partials():
    """A coordinate off the form's support stays a scalar, so its coordinate
    function is an output that is not a jet: its brackets are the field's
    zero, on residues and on the scalar form, at F_p and Q points."""
    s = seeds.bracket_seed(seeds.seed_for_word(W("-1,1"), A1))
    assert s.bracket_form[0] == ((1, 0), (1, 1))
    for scalar in (F, lambda v: arith.Fp(v, 97), lambda v: arith.Fp(v, DEFAULT_PRIME)):
        vals = {(1, 0): scalar(2), (1, 1): scalar(3), (1, 2): scalar(5)}
        for form in (contextlib.nullcontext, reference_jets):
            with form():
                for f, g in (((1, 0), (1, 2)), ((1, 2), (1, 1)), ((1, 2), (1, 2))):
                    br = maps.poisson_bracket_at(s, f, g, vals)
                    assert type(br) is type(scalar(0)) and br == scalar(0)
                br = maps.poisson_bracket_at(s, (1, 0), (1, 1), vals)
                assert type(br) is type(scalar(0)) and br == scalar(6)


def _mixed_cases():
    a1 = evals.make_context(W("-1,1"), A1)
    a2 = evals.make_context(W("1,2,1"), A2)
    tmap = maps.artin_T(W("-1,-2,-1,1,2,1"), 1, A2)
    return (("ev_hat -1,1", W("-1,1"), A1,
             lambda pt: [x for row in evals.ev_hat(a1, pt).rows for x in row]),
            ("ev_hat 1,2,1", W("1,2,1"), A2,
             lambda pt: [x for row in evals.ev_hat(a2, pt).rows for x in row]),
            ("artin_T", W("-1,-2,-1,1,2,1"), A2,
             lambda pt: [x for _, x in sorted(tmap.apply(pt).items())]))


def _outputs_or_error(fn, point):
    try:
        return fn(point)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def test_mixed_jet_points_match_the_all_jets_pass():
    """With only some coordinates lifted to jets, ev_hat and an A2 Artin
    generator give the all-jets pass's values, and its partials along the
    lifted coordinates (zero for an output that is not a jet), or the same
    error and message, at F_97, F_(2^61-1) and Q points, on and off the torus."""
    rng = random.Random("bracket-matrix:mixed")
    outcomes = collections.Counter()
    for name, word, cdata, fn in _mixed_cases():
        ixs = words.seed_indices(word, cdata.rank)
        for prime in (97, DEFAULT_PRIME, None) * 4:
            vals = maps.random_assignment(word, cdata, rng, prime, bound=9)
            if rng.random() < 0.25:
                vals[rng.choice(ixs)] *= rng.choice((0, -1))
            lifted = sorted(rng.sample(ixs, rng.randrange(len(ixs) + 1)))
            full = _outputs_or_error(fn, dict(zip(ixs, jet_point([vals[ix] for ix in ixs]))))
            mixed = _outputs_or_error(
                fn, {**vals, **dict(zip(lifted, jet_point([vals[ix] for ix in lifted])))})
            if isinstance(full, tuple):
                assert mixed == full, (name, prime, lifted)
                outcomes["error"] += 1
                continue
            along = [ixs.index(ix) for ix in lifted]
            for a, b in zip(full, mixed, strict=True):
                value, partials = ((b.value, b.partials) if isinstance(b, Jet)
                                   else (b, tuple(b * 0 for _ in along)))
                assert type(value) is type(a.value) and value == a.value
                assert [(type(x), x) for x in partials] == [
                    (type(a.partials[t]), a.partials[t]) for t in along]
                outcomes["non-jet" if partials and b is value else "values"] += 1
    assert min(outcomes[k] for k in ("error", "values", "non-jet")) > 0


def test_saltation_is_poisson():
    cfg = TrialConfig(trials=4, rng_seed=5)
    xi = maps.xi_saltation(W("-1,1"), A1)
    assert maps.is_poisson_map(xi, cfg).is_equal
    xi2 = maps.xi_saltation(W("-1,1,2,1"), A2)
    assert maps.is_poisson_map(xi2, cfg).is_equal


def test_disjoint_moves_commute_pointwise(rng):
    word = W("1,-2,1,-2")
    first = Move("mixed2", 0, 2)
    second = Move("mixed2", 2, 2)
    one = maps.dmove_transform(word, first, A2)
    one_then = maps.dmove_transform(one.target_word, second, A2)
    two = maps.dmove_transform(word, second, A2)
    two_then = maps.dmove_transform(two.target_word, first, A2)
    assert one_then.target_word == two_then.target_word
    for _ in range(10):
        vals = rational_point(word, A2, rng)
        assert one_then.apply(one.apply(vals)) == two_then.apply(two.apply(vals))


def test_mutation_commutes_with_amalgamation(rng):
    # mutate the right factor, then glue; or glue, then mutate at the
    # occurrence-shifted index
    left, right = W("1"), W("1,2,1")
    seed_right = seeds.seed_for_word(right, A2)
    glued_word = left.concat(right)
    seed_glued = seeds.seed_for_word(glued_word, A2)
    for _ in range(10):
        lv = rational_point(left, A2, rng)
        rv = rational_point(right, A2, rng)
        moved_right = maps.mutate_point(seed_right, rv, (1, 1))
        _, then_glue = maps.amalgamate_points(left, lv, right, moved_right)
        _, glue_first = maps.amalgamate_points(left, lv, right, rv)
        glue_then_move = maps.mutate_point(seed_glued, glue_first, (1, 2))
        assert then_glue == glue_then_move


def test_artin_generator_is_poisson():
    cfg = TrialConfig(trials=3, rng_seed=6)
    t1 = maps.artin_T(W("1,1"), 1, A1)
    assert t1.restricted  # bracket-torus endomorphism
    assert maps.is_poisson_map(t1, cfg).is_equal
    mu = maps.mu_hat(W("-1,1"), W("1,1"), A1, weyl.longest_element(A1))
    assert maps.is_poisson_map(mu, cfg).is_equal


@pytest.mark.parametrize("text, j", [("-1,-2,-1,-2,1,2,1,2", 1), ("2,1,2,1,2,1,2,1", 1),
                                     ("-1,-2,-1,-2,1,2,1,2", 2), ("2,1,2,1,2,1,2,1", 2)])
def test_b2_artin_generators_are_poisson(text, j):
    """Each B2 Artin generator is a Poisson automorphism of its bracket
    torus."""
    cfg = TrialConfig(trials=3, rng_seed=6)
    assert maps.is_poisson_map(maps.artin_T(W(text), j, B2), cfg).is_equal


def _elementary_maps(cdata):
    """Every single-move map of a word of length at most 3 but the dual
    move, the full-width d-move of each minimal word, and every saltation
    of a word of length l(w0) + 1."""
    alphabet = [x for i in range(1, cdata.rank + 1) for x in (i, -i)]
    short = [words.DoubleWord(letters) for n in range(1, 4)
             for letters in itertools.product(alphabet, repeat=n)]
    for w in short:
        for mv in words.applicable_moves(w, cdata):
            if mv.kind != "dual":
                yield maps.dmove_transform(w, mv, cdata)
    for w in rank2_minimal_words(cdata):
        kind = "positive_d" if w.letters[0] > 0 else "negative_d"
        yield maps.dmove_transform(w, Move(kind, 0, len(w)), cdata)
    n = weyl.longest_element(cdata).length() + 1
    for letters in itertools.product(alphabet, repeat=n):
        w = words.DoubleWord(letters)
        if words.applicable_moves(w, cdata, ("dual",)):
            yield maps.dual_move_map(w, cdata)


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_elementary_maps_are_poisson(label):
    """Outside the simply-laced types every elementary map -- a tau flip, a
    mixed 2-move, a full-width d-move, a saltation -- is a Poisson map of
    the eps_hat brackets, which carry the symmetrizers."""
    cdata = weyl.build_cartan(label)
    cfg = TrialConfig(trials=1, rng_seed=6)
    count = 0
    for m in _elementary_maps(cdata):
        assert maps.is_poisson_map(m, cfg).is_equal, (m.source_word.to_string(),
                                                       m.target_word.to_string())
        count += 1
    assert count == 252


# ---------------------------------------------------------------------------
# Lowered move steps against the seed-level chain they stand for
# ---------------------------------------------------------------------------

def _seed_level_step(step, values):
    """What a MoveStep means: walk the word's seed alongside the point, one
    induced mutation at a time, then relabel, keyed in the target word's
    ``seed_indices`` order."""
    w, mv, cdata = step.word_before, step.move, step.cdata
    seed = seeds.seed_for_word(w, cdata)
    fixed = seed.cover_right if step.restricted else frozenset()
    positive = {"tau_left": w.letters[0] > 0, "tau_right": w.letters[-1] > 0}.get(mv.kind)
    induced = [] if step.restricted and mv.kind == "tau_right" else \
        maps._move_mutations(w, mv, cdata)
    for ix, kind in induced:
        if kind == "regular":
            values = maps.mutate_point(seed, values, ix, fixed)
            seed = seeds.mutate_seed(seed, ix)
        else:
            values = maps.tropical_mutate_point(seed, values, ix, positive)
            seed = seeds.tropical_mutate_seed(seed, ix, positive)
    sigma = words.index_map(w, mv, cdata)
    relabeled = {sigma.get(ix, ix): val for ix, val in values.items()}
    return {ix: relabeled[ix] for ix in words.seed_indices(step.word_after, cdata.rank)}


def _outcome(fn, values):
    try:
        return list(fn(values).items())  # key order too
    except SingularPoint:
        return "singular"


def _one_sign_blocks(cdata):
    w0 = weyl.longest_element(cdata)
    for letters in sorted(weyl.reduced_words(w0)):
        for sign in (1, -1):
            yield words.DoubleWord(tuple(sign * x for x in letters))


def test_lowered_steps_match_seed_level_chain():
    base = W("1,2,1,1,2,1")
    composites = [maps.artin_T_word(base, letters, A2) for letters in ((1, 2, 1), (2, 1, 2))]
    for label in ("A2", "B2", "G2"):
        cdata = weyl.build_cartan(label)
        blocks = list(_one_sign_blocks(cdata))
        composites += [maps.zeta_map(block, cdata) for block in blocks]
        # the braid moves between the blocks: 3-, 4- and 6-moves, several
        # mutations each for the last two
        composites += [maps.path_transform(a, b, cdata, words.D_KINDS, restricted)
                       for a in blocks for b in blocks
                       if a != b and (a[0] > 0) == (b[0] > 0)
                       for restricted in (False, True)]
    steps = {s for m in composites for s in m.steps if isinstance(s, maps.MoveStep)}
    kinds = {(s.move.kind, s.restricted) for s in steps}
    assert {("mixed2", True), ("tau_right", True), ("tau_left", False),
            ("tau_right", False), ("mixed2", False)} <= kinds
    assert {s.move.order for s in steps if s.move.kind.endswith("_d")} == {3, 4, 6}
    rng = random.Random("lowered-steps")
    singular = 0
    for step in sorted(steps, key=lambda s: (s.cdata.type_label, s.word_before.letters,
                                             s.move.kind, s.move.pos, s.restricted)):
        for p in (DEFAULT_PRIME, None, DEFAULT_PRIME, None):
            vals = maps.random_assignment(step.word_before, step.cdata, rng, p, bound=4)
            want = _outcome(lambda v: _seed_level_step(step, v), vals)
            assert _outcome(step.apply, vals) == want, step.describe()
            singular += want == "singular"
    assert singular  # small rationals reach 1 + x_k = 0


def _counting(monkeypatch, owner, name):
    """Wrap owner.name to count its calls; returns the counter."""
    calls = collections.Counter()
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_then_joins_every_leg_at_once():
    """``a.then(b, c)`` is ``a.then(b).then(c)``: the same steps, words and
    restriction (restricted only when every leg is).  A seam that does not
    meet raises PreconditionFailed naming both words, the second seam as
    the first."""
    w = W("1,2,1,-1")
    legs, at = [], w
    for restricted in (True, False, True):
        move = words.applicable_moves(at, A2, words.D_KINDS)[0]
        legs.append(maps.dmove_transform(at, move, A2, restricted))
        at = legs[-1].target_word
    a, b, c = legs
    joined = a.then(b, c)
    assert joined == a.then(b).then(c)
    assert (joined.source_word, joined.target_word, joined.restricted) == (w, at, False)
    assert joined.steps == a.steps + b.steps + c.steps
    assert a.then() == a
    assert a.then(maps.identity_map(a.target_word, A2, True)).restricted
    with pytest.raises(PreconditionFailed) as first:
        a.then(c)
    assert str(first.value) == f"{a.target_word.to_string()} != {c.source_word.to_string()}"
    with pytest.raises(PreconditionFailed) as second:
        a.then(b, a)
    assert str(second.value) == f"{b.target_word.to_string()} != {a.source_word.to_string()}"


def test_step_words_are_derived_once(monkeypatch):
    """A step works out its target word on its first read and keeps it."""
    applies = _counting(monkeypatch, words, "apply_move")
    step = maps.MoveStep(A2, W("1,2,1,-1"), Move("positive_d", 0, 3), False)
    assert applies["apply_move"] == 0  # lazy: built before it is read
    assert step.word_after == step.word_after == W("2,1,2,-1")
    assert applies["apply_move"] == 1
    plans = _counting(monkeypatch, maps, "_core_plan")
    core = maps.XiCoreStep(A2, W("-1,1,2,1,-2"))
    assert core.word_after == core.word_after
    assert plans["_core_plan"] == 1


def test_cold_artin_map_reads_its_words_back(monkeypatch):
    """After a cold build, inversion and description read the words the
    steps derived while the map was built: no move is applied again."""
    maps._artin_T_word.cache_clear()
    m = maps.artin_T(W("-1,-2,-1,1,2,1"), 1, A2)
    assert sum(isinstance(step, maps.MoveStep) for step in m.steps) == 16
    applies = _counting(monkeypatch, words, "apply_move")
    back = m.inverse()
    described = m.describe()
    assert applies["apply_move"] == 0
    assert len(described) == len(back.steps) == len(m.steps)
    assert [d["target"] for d in described[:-1]] == [d["source"] for d in described[1:]]


def test_lowered_steps_keep_their_errors(monkeypatch):
    # x_k = 0 and 1 + x_k = 0 at a regular mutation, x_k = 0 at a tropical one
    step = maps.MoveStep(A1, W("-1,1"), Move("mixed2", 0, 2), False)
    vals = {(1, 0): F(2), (1, 1): F(3), (1, 2): F(5)}
    step.apply(vals)  # the plan exists from here on
    for bad in (F(0), F(-1)):
        with pytest.raises(SingularPoint):
            step.apply({**vals, (1, 1): bad})
    flip = maps.MoveStep(A1, W("1,1"), Move("tau_left", 0), False)
    assert flip.apply(vals)[(1, 0)] == F(1, 2)
    with pytest.raises(SingularPoint):
        flip.apply({**vals, (1, 0): F(0)})
    # a 3-move window running past the word mutates at a frozen slot
    past_end = maps.MoveStep(A2, W("1,2"), Move("positive_d", 0, 3), False)
    point = {(1, 0): F(2), (1, 1): F(3), (2, 0): F(5), (2, 1): F(7)}
    for _ in range(2):
        with pytest.raises(FrozenDirection):
            past_end.apply(point)
    # a dual move's map is the saltation, never a single move step
    with pytest.raises(InapplicableMove, match="cannot invert dual"):
        maps.MoveStep(A1, W("-1,1"), Move("dual", 0), False).inverse()
    # a non-integral exchange exponent is an invariant violation
    good = seeds.seed_for_word(W("-1,1"), A1)
    broken = dataclasses.replace(good, epsilon={**good.epsilon, ((1, 0), (1, 1)): F(1, 2)})
    fresh = maps.MoveStep(A1, W("-1,1"), Move("mixed2", 0, 2), True)
    monkeypatch.setattr(maps, "seed_for_word", lambda w, cdata: broken)
    maps._move_plan.cache_clear()
    maps._move_ops.cache_clear()
    try:
        with pytest.raises(InvariantViolation):
            fresh.apply(vals)
    finally:
        monkeypatch.undo()
        maps._move_plan.cache_clear()
        maps._move_ops.cache_clear()
    assert fresh.apply(vals) == _seed_level_step(fresh, vals)


def test_zeta_maps_built_with_the_map(rng, monkeypatch):
    maps._core_plan.cache_clear()
    maps._dual_move_map.cache_clear()
    maps._zeta_map.cache_clear()
    w = W("-1,1,2,1")
    xi = maps.xi_saltation(w, A2)
    back = xi.inverse()

    def no_build(*args, **kwargs):
        raise AssertionError("zeta map built during evaluation")

    monkeypatch.setattr(maps, "zeta_map", no_build)
    for _ in range(3):
        vals = rational_point(w, A2, rng)
        assert back.apply(xi.apply(vals)) == vals
    assert maps._zeta_map.cache_info().misses == 1


def _named_program(m):
    """A map's ops on named indices, as ``_move_plan`` lowers its move
    steps: each step's mutations, then ("relabel", sigma) when it relabels,
    so a relabeling zeta step cannot equal a plan of bare mutations."""
    ops = ()
    for step in m.steps:
        mutations, sigma = maps._move_plan(step.cdata, step.word_before, step.move,
                                           step.restricted)
        ops += mutations if sigma is None else mutations + (("relabel", sigma),)
    return ops


def test_inverse_zeta_plan_is_the_lowered_inverse_zeta_map():
    """The core plan undoes its zeta plan op by op instead of lowering the
    inverse zeta map; the two agree on every reduced word of w0 in A1, A2,
    B2 and G2, with each trailing barred letter."""
    blocks = 0
    for label in ("A1", "A2", "B2", "G2"):
        cdata = weyl.build_cartan(label)
        for letters in weyl.reduced_words(weyl.longest_element(cdata)):
            block = words.DoubleWord(letters)
            zmap = maps.zeta_map(block, cdata)
            for k in range(1, cdata.rank + 1):
                plan = maps._core_plan(cdata, words.DoubleWord(letters + (-k,)))
                assert plan.zeta == _named_program(zmap)
                assert plan.zeta_inverse == _named_program(zmap.inverse()), (label, letters)
            blocks += 1
    assert blocks == 7


@pytest.mark.parametrize("mutation", [
    ("regular", (1, 0), (((1, 1), 1),)),     # at a block bottom
    ("regular", (1, 2), (((1, 1), 1),)),     # at a block top
    ("tropical", (1, 1), ()),                # off the block tops
    ("tropical", (1, 2), (((1, 1), 1),)),    # moving an interior slot
])
def test_core_plan_rejects_a_zeta_mutation_off_its_slots(monkeypatch, mutation):
    # the zeta plan of the block 1,2,1 runs on the whole point, and the
    # inverse core fills the tops with stand-ins: both are only sound while
    # no mutation sits at a bottom and only tropical ones touch the tops
    monkeypatch.setattr(maps, "_move_plan", lambda *args: ((mutation,), None))
    maps._core_plan.cache_clear()
    maps._dual_move_map.cache_clear()
    try:
        with pytest.raises(InvariantViolation, match="bottom and top"):
            maps.xi_saltation(W("-1,1,2,1"), A2)
    finally:
        monkeypatch.undo()
        maps._core_plan.cache_clear()
        maps._dual_move_map.cache_clear()
    assert maps.xi_saltation(W("-1,1,2,1"), A2).target_word == W("2,-1,-2,-1")


def test_core_plan_rejects_a_block_top_exponent_off_plus_minus_one(monkeypatch):
    # a tropical mutation that moves the starred top by the square of the
    # moved one: the inverse core could not solve for it, and the plan says
    # so when it is built, before any point is evaluated
    mutation = ("tropical", (1, 2), (((2, 1), 2),))
    monkeypatch.setattr(maps, "_move_plan", lambda *args: ((mutation,), None))
    maps._core_plan.cache_clear()
    maps._dual_move_map.cache_clear()
    try:
        with pytest.raises(InvariantViolation, match="exponent"):
            maps.xi_saltation(W("-1,1,2,1"), A2)
    finally:
        monkeypatch.undo()
        maps._core_plan.cache_clear()
        maps._dual_move_map.cache_clear()
    assert maps.xi_saltation(W("-1,1,2,1"), A2).target_word == W("2,-1,-2,-1")


def test_dual_move_map_is_built_once_per_word():
    """Equal words share one saltation map; a word with no dual move raises
    on every call, so no failure is kept."""
    assert maps.dual_move_map(W("-1,1,2,1"), A2) is maps.dual_move_map(W("-1,1,2,1"), A2)
    assert maps.xi_saltation(W("2,-1,-2,-1"), A2) is maps.dual_move_map(W("2,-1,-2,-1"), A2)
    for _ in range(2):
        with pytest.raises(InapplicableMove):
            maps.dual_move_map(W("1,2,1"), A2)


def _reference_along(w, moves, cdata, restricted=False):
    """The composite joined from one leg per move: an identity leg, one
    ``dmove_transform`` per move, one ``then`` at the end."""
    legs = [maps.identity_map(w, cdata, restricted)]
    for mv in moves:
        legs.append(maps.dmove_transform(legs[-1].target_word, mv, cdata, restricted))
    return legs[0].then(*legs[1:])


def test_one_pass_along_matches_the_joined_legs(monkeypatch):
    """Every A2 artin-T map on the 80 shuffle words, and the B2 generators on
    (barred w0)(w0), built by the one-pass ``_along`` and by the joined legs:
    the same steps, words, restriction and program."""
    reduced = ((1, 2, 1), (2, 1, 2))
    shuffles = []
    for neg, pos in itertools.product(reduced, reduced):
        for slots in itertools.combinations(range(6), 3):
            it_neg, it_pos = iter(neg), iter(pos)
            shuffles.append(words.DoubleWord(tuple(
                -next(it_neg) if t in slots else next(it_pos) for t in range(6))))
    cases = [(A2, w, j) for w in shuffles for j in (1, 2)]
    cases += [(B2, W("-1,-2,-1,-2,1,2,1,2"), j) for j in (1, 2)]
    assert len(cases) == 162

    def build_all():
        maps._artin_T_word.cache_clear()
        maps._dual_move_map.cache_clear()
        out = []
        for cdata, w, j in cases:
            m = maps.artin_T(w, j, cdata)
            out.append((m.source_word, m.target_word, m.restricted, m.describe(), m.program))
        return out

    try:
        monkeypatch.setattr(maps, "_along", _reference_along)
        reference = build_all()
        monkeypatch.undo()
        one_pass = build_all()
    finally:
        monkeypatch.undo()
        maps._artin_T_word.cache_clear()
        maps._dual_move_map.cache_clear()
    for case, want, got in zip(cases, reference, one_pass, strict=True):
        assert got == want, case


def test_saltation_core_runs_its_plan_without_word_work(rng, monkeypatch):
    """A warm saltation neither splits, glues nor recounts the point, and
    one inverse-core evaluation runs the inverse zeta plan and one forward
    zeta plan, nothing more."""
    w = W("-1,1,2,1")
    xi = maps.xi_saltation(w, A2)
    back = xi.inverse()
    points = [rational_point(w, A2, rng) for _ in range(2)]
    back.apply(xi.apply(points[0]))
    core = next(s for s in back.steps if isinstance(s, maps.XiCoreInverseStep))
    core_point = rational_point(core.word_before, A2, rng)

    def word_work(*args, **kwargs):
        raise AssertionError("word-only work during evaluation")

    for owner, name in ((maps, "split_point"), (maps, "amalgamate_points"),
                        (maps, "zeta_map"), (words.DoubleWord, "count")):
        monkeypatch.setattr(owner, name, word_work)
    assert back.apply(xi.apply(points[1])) == points[1]
    calls = []
    real = maps._SCALARS.mutate
    monkeypatch.setattr(maps._SCALARS, "mutate",
                        lambda *args: calls.append(args) or real(*args))
    core.apply(core_point)
    plan = maps._core_plan(A2, core.word_after)
    assert len(calls) == len(plan.zeta_inverse) + len(plan.zeta) > 0


def test_a_tropical_mutation_is_the_sole_mutation_of_a_tau_move():
    """``maps._move_plan`` walks no seed past a tropical mutation, because one
    comes only from a tau move, as its sole mutation.  Checked on every move
    step of the A2, B2 and G2 zeta maps and the A2 braid composites of the
    map digests, their inverses, and every move their words admit."""
    # a dual move lowers to a saltation core step, not to mutations
    kinds_with_mutations = tuple(k for k in words.ALL_MOVE_KINDS if k != "dual")
    checked = set()

    def check(w, mv, cdata):
        kinds = [kind for _, kind in maps._move_mutations(w, mv, cdata)]
        if mv.kind in ("tau_left", "tau_right"):
            assert kinds == ["tropical"], (w, mv)
        else:
            assert "tropical" not in kinds, (w, mv)
        checked.add(mv.kind)

    for label in ("A2", "B2", "G2"):
        cdata = weyl.build_cartan(label)
        composites = [maps.zeta_map(words.DoubleWord(tuple(sign * x for x in letters)), cdata)
                      for letters in weyl.reduced_words(weyl.longest_element(cdata))
                      for sign in (1, -1)]
        if label == "A2":
            composites += [maps.artin_T_word(W("1,2,1,1,2,1"), letters, cdata)
                           for letters in ((1, 2, 1), (2, 1, 2))]
        for m in composites + [m.inverse() for m in composites]:
            for step in m.steps:
                if isinstance(step, maps.MoveStep):
                    check(step.word_before, step.move, cdata)
                    for mv in words.applicable_moves(step.word_before, cdata,
                                                     kinds_with_mutations):
                        check(step.word_before, mv, cdata)
    assert checked == set(kinds_with_mutations)


def _pairs_mutation(prime, values, mutation):
    """A mutation on named indices at a point, run on pairs over Q (prime
    None) or F_prime, laid out in the point's own key order."""
    layout = list(values)
    op = maps._at(mutation, layout.index)
    return maps._Pairs(prime).run((op,), values, layout, layout)


def test_one_modular_inversion_per_mutation(monkeypatch):
    """Applying a map at an F_p point makes one modular inversion, for all
    its coordinates at once: both A2 braid composites and their inverses.
    One-step programs of hand-built mutations of either kind, with exponents
    +-1, +-2 and +-3, run on the pairs over F_97 and F_(2^61-1) with one
    inversion, and over Q at points with negative coordinates with none,
    and give the reference's values in its key order."""
    calls = []
    real = arith._inverse_mod
    monkeypatch.setattr(arith, "_inverse_mod", lambda v, p: calls.append(v) or real(v, p))
    word = W("1,2,1,1,2,1")
    rng = random.Random("inversion budget")
    for letters in ((1, 2, 1), (2, 1, 2)):
        m = maps.artin_T_word(word, letters, A2)
        assert {type(step) for step in m.steps} == {
            maps.MoveStep, maps.XiCoreStep, maps.XiCoreInverseStep}
        for f in (m, m.inverse()):
            values = maps.random_assignment(word, A2, rng, DEFAULT_PRIME)
            calls.clear()
            f.apply(values)
            assert len(calls) == 1, letters
    points = [(prime, {(1, 0): arith.Fp(2, prime), (1, 1): arith.Fp(3, prime),
                       (1, 2): arith.Fp(5, prime)}) for prime in (97, DEFAULT_PRIME)]
    # x_k = -3/4 makes 1 + x_k positive, x_k = -3/2 negative
    points += [(None, {(1, 0): F(-2, 5), (1, 1): xk, (1, 2): F(-5, 7)})
               for xk in (F(-3, 4), F(-3, 2))]
    for exponents in ((((1, 0), -2), ((1, 2), 1)), (((1, 0), 2), ((1, 2), -1)),
                      (((1, 0), 3), ((1, 2), -3)), (((1, 0), -3), ((1, 2), 2)),
                      (((1, 0), -1),), ()):
        for kind in ("tropical", "regular"):
            mutation = (kind, (1, 1), exponents)
            for prime, vals in points:
                calls.clear()
                got = _pairs_mutation(prime, vals, mutation)
                assert len(calls) == (prime is not None), (mutation, prime)
                want = maps._apply_mutation(vals, mutation)
                assert list(got.items()) == list(want.items()), (mutation, vals)
                assert [type(x) for x in got.values()] == [type(x) for x in want.values()]


def _stepwise(m, values):
    for step in m.steps:
        values = step.apply(values)
    return values


def _image_or_error(f, values):
    """The image as (index, value) pairs in dict order, or the error type."""
    try:
        return list(f(values).items())
    except ArithmeticError as exc:  # SingularPoint and DivisionByZero
        return type(exc).__name__


def _interpreter_cases():
    """(cdata, source word, map) for T_j on all 160 compute-a2 pairs, both
    A2 braid composites, the A1 and A2 saltations, the B2 composite of
    2,1,2,1 and the two G2 generators on (barred w0)(w0), and for the
    inverse of each; and the two saltations apart."""
    reduced = ((1, 2, 1), (2, 1, 2))
    cases = []
    for neg, pos in itertools.product(reduced, reduced):
        for slots in itertools.combinations(range(6), 3):
            it_neg, it_pos = iter(neg), iter(pos)
            w = words.DoubleWord(tuple(-next(it_neg) if t in slots else next(it_pos)
                                       for t in range(6)))
            cases += [(A2, w, maps.artin_T(w, j, A2)) for j in (1, 2)]
    braid = W("1,2,1,1,2,1")
    cases += [(A2, braid, maps.artin_T_word(braid, letters, A2))
              for letters in ((1, 2, 1), (2, 1, 2))]
    saltations = [(A1, W("-1,1"), maps.xi_saltation(W("-1,1"), A1)),
                  (A2, W("-1,1,2,1"), maps.xi_saltation(W("-1,1,2,1"), A2))]
    cases += saltations
    b2_word = W("-1,-2,-1,-2,1,2,1,2")
    cases.append((B2, b2_word, maps.artin_T_word(b2_word, (2, 1, 2, 1), B2)))
    cases += [(G2, W(G2_WORD), maps.artin_T(W(G2_WORD), j, G2)) for j in (1, 2)]
    cases += [(cdata, m.target_word, m.inverse()) for cdata, _, m in cases]
    return cases, saltations


def _core_step_maps(saltations):
    """Each saltation core step alone, as a one-step map."""
    for cdata, _, m in saltations:
        for step in m.steps + m.inverse().steps:
            if isinstance(step, (maps.XiCoreStep, maps.XiCoreInverseStep)):
                yield cdata, maps.RationalMap(cdata, step.word_before, step.word_after, (step,))


def test_fp_interpreter_matches_stepwise_evaluation():
    """``RationalMap.apply`` at an F_p point, which runs the F_p interpreter,
    gives what the steps' own generic ``apply`` gives one after the other:
    the same image in the same key order, or the same error type.  Checked
    at p = 2^61 - 1 and p = 97, at random points and at points with one zero
    coordinate, on T_j and its inverse for all 160 compute-a2 pairs, both A2
    braid composites, the A1 and A2 saltations, the B2 composite of 2,1,2,1
    and the two G2 generators, whose plans carry exponents +-3."""
    cases, saltations = _interpreter_cases()
    rng = random.Random("fp interpreter")
    outcomes = set()

    def check(m, values):
        want = _image_or_error(lambda v: _stepwise(m, v), values)
        assert _image_or_error(m.apply, values) == want, (m.describe(), values)
        outcomes.add(want if isinstance(want, str) else "image")

    for cdata, word, m in cases:
        for prime in (DEFAULT_PRIME, 97):
            check(m, maps.random_assignment(word, cdata, rng, prime))
            values = maps.random_assignment(word, cdata, rng, prime)
            check(m, {**values, rng.choice(list(values)): arith.Fp(0, prime)})
    # each saltation core step alone, with a zero in each slot in turn: the
    # divisions of both core steps see a zero there
    for cdata, one in _core_step_maps(saltations):
        values = maps.random_assignment(one.source_word, cdata, rng, 97)
        for ix in values:
            check(one, {**values, ix: arith.Fp(0, 97)})
    assert outcomes == {"image", "SingularPoint"}


def test_q_interpreter_matches_stepwise_evaluation():
    """``RationalMap.apply`` at a rational point, which runs the reduced
    integer pairs, gives what the steps' own generic ``apply`` gives one
    after the other: the same values in the same key order, every one a
    ``Fraction``, or the same error type.  Checked at random points, at
    points with one zero coordinate and at points with one coordinate -1,
    where 1 + x_k vanishes, on the maps of the F_p check above."""
    cases, saltations = _interpreter_cases()
    rng = random.Random("q interpreter")
    outcomes = set()

    def check(m, values):
        want = _image_or_error(lambda v: _stepwise(m, v), values)
        got = _image_or_error(m.apply, values)
        assert got == want, (m.describe(), values)
        if isinstance(want, str):
            outcomes.add(want)
        else:
            assert all(type(x) is F for _, x in got), (m.describe(), values)
            outcomes.add("image")

    for cdata, word, m in cases:
        check(m, maps.random_assignment(word, cdata, rng))
        for special in (F(0), F(-1)):
            values = maps.random_assignment(word, cdata, rng)
            check(m, {**values, rng.choice(list(values)): special})
    for cdata, one in _core_step_maps(saltations):
        values = maps.random_assignment(one.source_word, cdata, rng)
        for ix in values:
            for special in (F(0), F(-1)):
                check(one, {**values, ix: special})
    assert outcomes == {"image", "SingularPoint"}


def test_rational_points_run_on_pairs_and_others_on_the_scalars(monkeypatch):
    """``run_program`` runs a point whose every coordinate is exactly an
    int or a ``Fraction`` on reduced integer pairs, without the scalars'
    own mutation: a Fraction point, one with an int among its Fractions and
    an all-int point give the image of the equal Fraction point, every value
    a ``Fraction``.  A jet point over Q and a mixed Fp and Fraction point run
    on the scalars, with their types."""
    word = W("-1,-2,-1,1,2,1")
    tmap = maps.artin_T(word, 1, A2)
    xi = maps.xi_saltation(W("-1,1,2,1"), A2)
    rng = random.Random("dispatch")
    cases = []
    for m in (tmap, tmap.inverse(), xi, xi.inverse()):
        values = maps.random_assignment(m.source_word, A2, rng)
        ixs = list(values)
        rationals = [values, {**values, ixs[0]: 2}, {ix: n + 2 for n, ix in enumerate(ixs)}]
        others = [{**values, ixs[-1]: arith.Fp(3, 97)},
                  dict(zip(ixs, jet_point([values[ix] for ix in ixs])))]
        # an int n is the Fraction n
        cases.append((m, [(v, maps._SCALARS.run(m.program, {ix: F(x) for ix, x in v.items()},
                                                *m._layouts))
                          for v in rationals],
                      [(v, maps._SCALARS.run(m.program, v, *m._layouts)) for v in others]))

    def fail(*args):
        raise AssertionError("wrong arithmetic")

    with monkeypatch.context() as patch:
        patch.setattr(maps._SCALARS, "mutate", fail)
        for m, rationals, _ in cases:
            for values, want in rationals:
                got = m.apply(values)
                assert list(got.items()) == list(want.items())
                assert all(type(x) is F for x in got.values())
    monkeypatch.setattr(maps._Pairs, "mutate", fail)
    kinds = set()
    for m, _, others in cases:
        for values, want in others:
            got = m.apply(values)
            assert list(got.items()) == list(want.items())
            assert [type(x) for x in got.values()] == [type(x) for x in want.values()]
            kinds |= {type(x) for x in got.values()}
    assert kinds >= {F, arith.Fp, Jet}


def test_inverse_saltation_images_keep_the_order_the_core_writes():
    """An inverse saltation's image lists the right-frozen tops first, as
    its core writes them, and the mixed 2-moves after the core keep that
    order; ``apply_tuple`` still lists the image in ``seed_indices``
    order."""
    back = maps.xi_saltation(W("-1,1,2,1"), A2).inverse()
    core = next(step for step in back.steps if isinstance(step, maps.XiCoreInverseStep))
    plan = maps._core_plan(A2, core.word_after)
    values = maps.random_assignment(back.source_word, A2, random.Random("order"), 97)
    image = back.apply(values)
    target = words.seed_indices(back.target_word, A2.rank)
    assert list(image) == [top for top, _ in plan.frozen] + list(plan.body) != target
    assert back.apply_tuple(tuple(values.values())) == tuple(image[ix] for ix in target)


@pytest.mark.parametrize("prime", [None, 97])
def test_core_steps_raise_singular_point_at_a_zero_divisor(prime):
    """The forward core divides by the moved wire's frozen value; the inverse
    core by the starred block top its zeta pass reads off and, at exponent
    -1, by the glued value, which holds the moved wire's frozen value as a
    factor.  A zero there is a singular point in both arithmetics.  The
    plans run without their zeta mutations here, whose own zero checks come
    first at a whole saltation."""
    core = next(step for step in maps.xi_saltation(W("-1,1,2,1"), A2).steps
                if isinstance(step, maps.XiCoreStep))
    plan = maps._core_plan(A2, core.word_before)
    bare = maps._core_ops(A2, core.word_before)._replace(zeta=(), zeta_inverse=())
    copied_to = dict(plan.frozen)  # source top -> the target slot holding its value
    cases = [("core", bare, core.word_before, plan.target, plan.k_top,
              "zero right-frozen coordinate")]
    cases += [("core_inverse", bare._replace(exponent=e), plan.target, core.word_before,
               copied_to[top], "zero divisor in the inverse saltation core")
              for e, top in ((1, plan.boundary), (-1, plan.boundary), (-1, plan.k_top))]
    pairs = maps._Pairs(prime)
    for kind, ops, word, after, zero, message in cases:
        values = maps.random_assignment(word, A2, random.Random(kind), prime)
        values[zero] = values[zero] * 0
        layouts = (words.seed_indices(word, A2.rank), words.seed_indices(after, A2.rank))
        for ar in (maps._SCALARS, pairs):
            with pytest.raises(SingularPoint, match=message):
                ar.run(((kind, ops),), values, *layouts)


@pytest.mark.parametrize("prime", [None, DEFAULT_PRIME])
def test_singular_mutations_keep_their_messages(prime):
    """x_k = 0 stops either kind of mutation, and 1 + x_k = 0 a regular one
    with any nonzero exponent, whatever its sign: on the scalars and on
    pairs."""
    def scalar(n):
        return F(n) if prime is None else arith.Fp(n, prime)

    vals = {(1, 0): scalar(2), (1, 1): scalar(3), (1, 2): scalar(5)}
    for apply in (maps._apply_mutation,
                  lambda v, mutation: _pairs_mutation(prime, v, mutation)):
        for kind in ("regular", "tropical"):
            with pytest.raises(SingularPoint,
                               match=f"^zero coordinate at {kind} mutation index$"):
                apply({**vals, (1, 1): scalar(0)}, (kind, (1, 1), (((1, 0), 1),)))
        for e in (2, 1, -1, -2):
            with pytest.raises(SingularPoint,
                               match=r"^1 \+ x_k vanishes with a nonzero exponent$"):
                apply({**vals, (1, 1): scalar(-1)}, ("regular", (1, 1), (((1, 0), e),)))
        # a tropical mutation does not see 1 + x_k, and nor does one without exponents
        minus_one = {**vals, (1, 1): scalar(-1)}
        assert apply(minus_one, ("tropical", (1, 1), (((1, 0), -1),)))[(1, 0)] == -2
        assert apply(minus_one, ("regular", (1, 1), ()))[(1, 1)] == -1


# Four (word, j) pairs of the compute-a2 benchmark: shuffles of a barred and a
# plain reduced word of w0 in A2.
_ARTIN_PAIRS = (("-1,-2,-1,1,2,1", 1), ("1,-2,2,-1,1,-2", 2),
                ("2,1,-1,2,-2,-1", 1), ("-2,2,-1,-2,1,2", 2))


def _pinned_entry(x):
    # the repr of a jet spells its value and every partial with their types
    return [type(x).__name__, repr(x)]


def _artin_records():
    braid = W("1,2,1,1,2,1")
    cases = [(f"braid {letters}", braid, maps.artin_T_word(braid, letters, A2))
             for letters in ((1, 2, 1), (2, 1, 2))]
    for text, j in _ARTIN_PAIRS:
        tmap = maps.artin_T(W(text), j, A2)
        cases += [(f"T{j} {text}", W(text), tmap),
                  (f"T{j}^-1 {text}", W(text), tmap.inverse())]
    rng = random.Random("artin values")
    records = []
    for name, word, m in cases:
        for field in ("Q", DEFAULT_PRIME, 97, "jet", "Q", DEFAULT_PRIME, 97, "jet"):
            prime = {"Q": None, "jet": DEFAULT_PRIME}.get(field, field)
            values = maps.random_assignment(word, A2, rng, prime, bound=9)
            if field == "jet":
                ixs = list(values)
                values = dict(zip(ixs, jet_point([values[ix] for ix in ixs])))
            try:
                got = [[list(ix), _pinned_entry(x)] for ix, x in sorted(m.apply(values).items())]
            except (SingularPoint, ZeroDivisionError) as exc:
                got = type(exc).__name__
            records.append([name, field, got])
    return records


# sha256 of the records above
ARTIN_SHA256 = "33685d1537694901383f3c1d257059cd5267969a960fbe3c5bf118f07de499d9"


def test_artin_values_pinned():
    """The images of both A2 braid composites and of ``artin_T`` and its
    inverse on four compute-a2 pairs, at seeded points over Q, F_(2^61-1),
    F_97 and jets over F_(2^61-1), each entry's type, value and partials
    included."""
    digest = hashlib.sha256(repr(_artin_records()).encode()).hexdigest()
    assert digest == ARTIN_SHA256
