"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All tolerances are exact (bit-exact equality for seeds and maps, exact
projective equality for matrices); randomized checks pin their seeds so runs
are reproducible.
"""

import random
import time
from fractions import Fraction as F

from cluster_dual import cartan as weyl
from cluster_dual import evals, golden, group as grp, maps, seeds, words
from cluster_dual.arith import DEFAULT_PRIME, SECOND_PRIME, TrialConfig, maps_equal_probabilistic
from cluster_dual.errors import SingularPoint
from cluster_dual.words import DoubleWord, Move

from conftest import W, rank2_minimal_words, rational_point

A1 = weyl.build_cartan("A1")
A2 = weyl.build_cartan("A2")


def _announce(criterion, ok, started, detail=""):
    elapsed = time.monotonic() - started
    print(f"\n[acceptance] criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
          + (f" — {detail}" if detail else ""))
    assert ok, detail


def test_criterion_1_eta_matrices():
    started = time.monotonic()
    ok = True
    for text in ("1,1", "1,-1", "-1,1", "-1,-1"):
        eta = seeds.bracket_seed(seeds.seed_for_word(W(text), A1))
        ok = ok and eta.matrix() == golden.eta_matrix(text)
    _announce("1 (bracket matrices, bit-exact)", ok, started)


def test_criterion_2_ev_hat_golden_matrices():
    started = time.monotonic()
    rng = random.Random(101)
    cases = [("1", "ev_hat_1", ("x0",)),
             ("-1,1", "ev_hat_m11", ("y0", "y1")),
             ("-1,-1", "ev_hat_m11", ("y0", "y1")),
             ("1,1", "ev_hat_11", ("z0", "z1")),
             ("1,-1", "ev_hat_11", ("z0", "z1"))]
    ok = True
    for text, name, vars_ in cases:
        word = W(text)
        ctx = evals.make_context(word, A1)
        for _ in range(20):
            coords = [F(rng.randrange(1, 60), rng.randrange(1, 20))
                      for _ in vars_]
            s = F(rng.randrange(1, 40), rng.randrange(1, 12))
            vals = {(1, k): coords[k] for k in range(len(vars_))}
            vals[(1, len(vars_))] = s * s
            got = evals.ev_hat(ctx, vals)
            env = dict(zip(vars_, coords))
            env["s"] = s
            ok = ok and grp.projective_eq(got, golden.eval_matrix(name, env))
    _announce("2 (twisted evaluation golden matrices, 20 points each)", ok, started)


def test_criterion_3_bracket_table_two_primes():
    started = time.monotonic()
    ok = True
    for prime in (DEFAULT_PRIME, SECOND_PRIME):
        assert prime >= 2 ** 31
        for text in ("-1,1", "1,1"):
            word = W(text)
            ctx = evals.make_context(word, A1)
            eta = seeds.bracket_seed(seeds.seed_for_word(word, A1))
            rng = random.Random(f"crit3:{prime}:{text}")
            for _ in range(20):
                vals = maps.random_assignment(word, A1, rng, prime)
                g = evals.ev_hat(ctx, vals)
                # one jet pass gives the brackets of all four entries, row-major
                brackets = maps.bracket_matrix_at(
                    eta, lambda jets: [x for row in evals.ev_hat(ctx, jets).rows for x in row],
                    vals)
                for (e1, e2, expect) in golden.bracket_table_entries():
                    br = brackets[2 * e1[0] + e1[1]][2 * e2[0] + e2[1]]
                    ok = ok and br == expect(g)
    _announce("3 (dual bracket table, 20 points x 2 primes >= 2^31)", ok, started)


def test_criterion_4_closed_forms():
    started = time.monotonic()
    xi = maps.xi_saltation(W("-1,1"), A1)
    t1 = maps.artin_T(W("1,1"), 1, A1)
    cfg = TrialConfig(trials=50, rng_seed=44)

    def against_golden(pipeline, name):
        def lhs(point):
            vals = dict(zip([(1, 0), (1, 1), (1, 2)], point))
            out = pipeline.apply(vals)
            return tuple(out[(1, k)] for k in range(3))

        def rhs(point):
            env = {"y0": point[0], "y1": point[1], "z0": point[0],
                   "z1": point[1], "t": point[2]}
            return golden.eval_map(name, env)

        return maps_equal_probabilistic(lhs, rhs, 3, cfg)

    ok = against_golden(xi, "xi_s1").is_equal
    ok = ok and against_golden(t1, "T1").is_equal
    _announce("4 (saltation and Artin generator closed forms, 50 points)", ok, started)


def test_criterion_4_center_action_nontrivial():
    started = time.monotonic()
    t1 = maps.artin_T(W("1,1"), 1, A1)
    rng = random.Random(7)
    ok = True
    done = 0
    while done < 10:
        vals = rational_point(W("1,1"), A1, rng)
        try:
            twice = t1.apply(t1.apply(vals))
        except Exception:
            continue  # singular draw
        # z1 and t fixed, z0 multiplied by z1^{-2} t exactly: the squared
        # generator is a non-trivial torus translation
        ok = ok and twice[(1, 1)] == vals[(1, 1)] and twice[(1, 2)] == vals[(1, 2)]
        ok = ok and twice[(1, 0)] == vals[(1, 0)] / vals[(1, 1)] ** 2 * vals[(1, 2)]
        done += 1
    spot = t1.apply(t1.apply({(1, 0): F(2), (1, 1): F(3), (1, 2): F(5)}))
    ok = ok and spot == {(1, 0): F(10, 9), (1, 1): F(3), (1, 2): F(5)}
    _announce("4' (squared generator acts by z1^-2 t on the first coordinate)",
              ok, started)


def test_criterion_4_t1_squared_reference_value():
    """The squared rank-one generator against the rank-one reference data.

    The golden file states two closed forms for T1∘T1 that differ in the
    first coordinate: T1_squared_derived gives z0 t / z1^2 and
    T1_squared_reference gives z0 t^2 / z1^2.  Only the derived form is
    consistent.  The golden T1 composed with itself gives it, since
    (t/z1 + 1)(t/z1 + t) = t (z1 + 1)(z1 + t) / z1^2, and so does the
    group-level square of the DCKP automorphism.  The reference form is a
    known erratum of the data and stays in the file.  This test pins the
    program to the derived form and records the erratum by asserting:

    (a) T1∘T1 from maps.artin_T equals T1_squared_derived exactly;
    (b) the golden T1 composed with itself equals T1_squared_derived and
        differs from T1_squared_reference;
    (c) dckp_T applied twice to ev_hat(x) is projectively equal to ev_hat
        at T1∘T1(x) and not to ev_hat at the reference point.

    The two forms coincide exactly on the locus t = 1, so (b) and (c) expect
    agreement with the reference there and disagreement everywhere else.
    """
    started = time.monotonic()
    word = W("1,1")
    t1 = maps.artin_T(word, 1, A1)
    ctx = evals.make_context(word, A1)
    coords = [(1, 0), (1, 1), (1, 2)]

    def env(point):
        return {"z0": point[0], "z1": point[1], "t": point[2]}

    def squared(point):
        twice = t1.apply(t1.apply(dict(zip(coords, point))))
        return tuple(twice[ix] for ix in coords)

    spot = (F(2), F(3), F(5))
    got = squared(spot)
    derived = golden.eval_map("T1_squared_derived", env(spot))
    stated = golden.eval_map("T1_squared_reference", env(spot))
    ok_a = got == derived == (F(10, 9), F(3), F(5))
    ok_b = ok_c = True
    rng = random.Random("crit4:T1^2")
    done = 0
    while done < 20:
        point = tuple(rational_point(word, A1, rng)[ix] for ix in coords)
        try:
            composite = squared(point)
            group_twice = grp.dckp_T(grp.dckp_T(
                evals.ev_hat(ctx, dict(zip(coords, point))), 1), 1)
        except SingularPoint:
            continue
        want = golden.eval_map("T1_squared_derived", env(point))
        reference = golden.eval_map("T1_squared_reference", env(point))
        golden_twice = golden.eval_map("T1", env(golden.eval_map("T1", env(point))))
        on_locus = point[2] == 1
        ok_a = ok_a and composite == want
        ok_b = ok_b and golden_twice == want and ((golden_twice == reference) == on_locus)
        at_composite = grp.projective_eq(
            group_twice, evals.ev_hat(ctx, dict(zip(coords, composite))))
        at_reference = grp.projective_eq(
            group_twice, evals.ev_hat(ctx, dict(zip(coords, reference))))
        ok_c = ok_c and at_composite and (at_reference == on_locus)
        done += 1
    verdicts = ", ".join(f"({part}) {'PASS' if flag else 'FAIL'}"
                         for part, flag in zip("abc", (ok_a, ok_b, ok_c)))
    _announce("4'' (squared generator = derived value, 20 points plus (2, 3, 5))",
              ok_a and ok_b and ok_c, started,
              f"{verdicts}; composite gives {tuple(str(x) for x in got)}, "
              f"derived {tuple(str(x) for x in derived)}, "
              f"reference states {tuple(str(x) for x in stated)}")


def test_criterion_5_braid_relations_a2():
    started = time.monotonic()
    word = W("1,2,1,1,2,1")
    lhs = maps.artin_T_word(word, (1, 2, 1), A2)
    rhs = maps.artin_T_word(word, (2, 1, 2), A2)
    cfg = TrialConfig(trials=50, rng_seed=55)
    verdict = maps_equal_probabilistic(
        lambda p: lhs.apply_tuple(p), lambda p: rhs.apply_tuple(p),
        len(words.seed_indices(word, 2)), cfg)
    _announce("5 (braid relation T1T2T1 = T2T1T2 on A2, 50 points)",
              verdict.is_equal, started)


def test_criterion_6_dckp_transport():
    started = time.monotonic()
    ok = True
    from cluster_dual.errors import SingularPoint
    for cdata, text, j in ((A1, "1,1", 1), (A2, "1,2,1,1,2,1", 1)):
        word = W(text)
        ctx = evals.make_context(word, cdata)
        tmap = maps.artin_T(word, j, cdata)
        rng = random.Random(f"crit6:{text}")
        done = 0
        while done < 20:
            vals = rational_point(word, cdata, rng, bound=15)
            try:
                lhs = grp.dckp_T(evals.ev_hat(ctx, vals), j)
                rhs = evals.ev_hat(ctx, tmap.apply(vals))
            except SingularPoint:
                continue
            ok = ok and grp.projective_eq(lhs, rhs)
            done += 1
    _announce("6 (dressing transport = conjugated generator, 20 points x 2 words)",
              ok, started)


def test_criterion_7_fg_mutation_compatibility():
    # the A2 braid pair plus two mixed 2-move pairs, compared projectively
    # (the evaluations are projective matrices)
    started = time.monotonic()
    ok = True
    for label in ("A1", "A2"):
        rep = evals.check_identity(
            evals.IdentityCheck("FG_MUTATION", label, trials=50, rng_seed=77))
        ok = ok and rep.ok
    _announce("7 (evaluation compatible with move transport, 50 points per pair)",
              ok, started)


def test_criterion_8_seed_shadows_exhaustive():
    started = time.monotonic()
    ok = True
    for label in ("B2", "G2"):
        cdata = weyl.build_cartan(label)
        for word in rank2_minimal_words(cdata):
            kind = "positive_d" if word.letters[0] > 0 else "negative_d"
            mv = Move(kind, 0, cdata.m_order(1, 2))
            target = words.apply_move(word, mv, cdata)
            seed = seeds.seed_for_word(word, cdata)
            for ix, _ in maps._move_mutations(word, mv, cdata):
                seed = seeds.mutate_seed(seed, ix)
            sigma = words.index_map(word, mv, cdata)
            expected = seeds.seed_for_word(target, cdata)
            ok = ok and seeds.relabel_seed(seed, sigma, expected.counts) == expected
    _announce("8 (4- and 6-move seed transport, all rank-2 minimal words)", ok, started)


def test_criterion_9_full_identity_suite():
    started = time.monotonic()
    failures = []
    for name in evals.CHECK_NAMES:
        for label in ("A1", "A2"):
            if name in ("PGL2_TABLE", "EVHAT_POISSON") and label != "A1":
                continue
            rep = evals.check_identity(
                evals.IdentityCheck(name, label, trials=5, rng_seed=9))
            if not rep.ok:
                failures.append((name, label, len(rep.failures)))
    for name in evals._INSTANCES["B2"]:
        rep = evals.check_identity(
            evals.IdentityCheck(name, "B2", trials=5, rng_seed=9))
        if not rep.ok:
            failures.append((name, "B2", len(rep.failures)))
    print(f"\n[acceptance] suite failures: {failures}")
    _announce("9 (sixteen-check suite at desk scale)", not failures, started)


def test_criterion_10_structural_invariants():
    started = time.monotonic()
    rng = random.Random(424242)
    ok = True
    letters_by_type = {"A1": [1, -1], "A2": [1, 2, -1, -2]}
    # mutation and tropical mutation involutivity at random word seeds
    for _ in range(100):
        label = rng.choice(list(letters_by_type))
        cdata = weyl.build_cartan(label)
        n = rng.randrange(1, 5)
        word = DoubleWord(tuple(rng.choice(letters_by_type[label]) for _ in range(n)))
        seed = seeds.seed_for_word(word, cdata)
        vals = rational_point(word, cdata, rng, bound=12)
        unfrozen = seed.unfrozen
        if unfrozen:
            k = rng.choice(unfrozen)
            try:
                once = maps.mutate_point(seed, vals, k)
                back = maps.mutate_point(seeds.mutate_seed(seed, k), once, k)
                ok = ok and back == vals
            except Exception:
                pass  # singular draw; redraws are covered by other trials
        end = rng.choice(["tau_left", "tau_right"])
        mv = Move(end, 0 if end == "tau_left" else len(word) - 1)
        step = maps.dmove_transform(word, mv, cdata)
        there = step.apply(vals)
        back = maps.dmove_transform(step.target_word, mv, cdata).apply(there)
        ok = ok and back == vals
    # amalgamation associativity on random triples
    for _ in range(100):
        label = rng.choice(list(letters_by_type))
        cdata = weyl.build_cartan(label)
        abc = [seeds.elementary_seed(cdata, rng.choice(letters_by_type[label]))
               for _ in range(3)]
        ok = ok and (seeds.amalgamate(seeds.amalgamate(abc[0], abc[1]), abc[2])
                     == seeds.amalgamate(abc[0], seeds.amalgamate(abc[1], abc[2])))
    # split round trip
    for _ in range(100):
        label = rng.choice(list(letters_by_type))
        cdata = weyl.build_cartan(label)
        n = rng.randrange(1, 5)
        word = DoubleWord(tuple(rng.choice(letters_by_type[label]) for _ in range(n)))
        vals = rational_point(word, cdata, rng, bound=12)
        cut = rng.randrange(0, n + 1)
        (lw, lv), (rw, rv) = maps.split_point(word, vals, cut, cdata.rank)
        joined_word, joined = maps.amalgamate_points(lw, lv, rw, rv)
        ok = ok and joined_word == word and joined == vals
    # dual move involution on words, star involution on words
    duals = ["-1,1", "1,-1", "-1,1,2,1", "-2,2,1,2", "2,-1,-2,-1", "-2,-1,1,2,1"]
    for _ in range(100):
        text = rng.choice(duals)
        cdata = A1 if text in ("-1,1", "1,-1") else A2
        word = W(text)
        mv = Move("dual", len(word) - 1 - words.dual_block_length(cdata))
        image = words.apply_move(word, mv, cdata)
        mv2 = Move("dual", len(image) - 1 - words.dual_block_length(cdata))
        ok = ok and words.apply_move(image, mv2, cdata) == word
        n = rng.randrange(1, 6)
        label = rng.choice(list(letters_by_type))
        wdata = weyl.build_cartan(label)
        rnd = DoubleWord(tuple(rng.choice(letters_by_type[label]) for _ in range(n)))
        ok = ok and words.star_word(words.star_word(rnd, wdata), wdata) == rnd
    _announce("10 (involutivity, associativity, round trips; 100 instances each)",
              ok, started)
