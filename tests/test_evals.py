import contextlib
import hashlib
import inspect
import json
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cluster_dual import cartan as weyl
from cluster_dual import arith, cli, evals, golden, group as grp, maps, seeds, words
from cluster_dual.arith import DEFAULT_PRIME, Fp, Jet, TrialConfig, jet_const, jet_point
from cluster_dual.errors import (ClusterDualError, DivisionByZero, InvalidParameter,
                                 NotInBigCell, PreconditionFailed,
                                 SingularPoint, UnsupportedForType)
from cluster_dual.group import GroupMatrix
from cluster_dual.words import DoubleWord, Move

from conftest import W, rational_point, reference_jets

A1 = weyl.build_cartan("A1")
A2 = weyl.build_cartan("A2")


def test_ev_examples():
    vals = {(1, 0): F(3), (1, 1): F(5)}
    m = evals.ev(W("1"), A1, vals)
    assert m == GroupMatrix([[F(15), F(3)], [F(0), F(1)]])
    lower = evals.ev(W("-1"), A1, vals)
    assert lower == GroupMatrix([[F(15), F(0)], [F(5), F(1)]])
    assert evals.ev(W(""), A1, {(1, 0): F(4)}) == GroupMatrix([[F(4), F(0)], [F(0), F(1)]])


def test_ev_red_strips_right_torus():
    vals = {(1, 0): F(3), (1, 1): F(5)}
    m = evals.ev_red(W("1"), A1, vals)
    assert m == GroupMatrix([[F(3), F(3)], [F(0), F(1)]])
    assert evals.ev_red(W(""), A1, {(1, 0): F(4)}) == grp.identity(2)


def test_make_context_classes():
    ctx = evals.make_context(W("-1,1"), A1)
    assert ctx.w1 == weyl.simple(A1, 1) and ctx.w2.is_identity() and ctx.cut == 1
    ctx = evals.make_context(W("1,1"), A1)
    assert ctx.w1.is_identity() and ctx.w2.is_identity()
    ctx = evals.make_context(W("1,-1"), A1)
    assert ctx.w1.is_identity() and ctx.w2 == weyl.simple(A1, 1)
    ctx = evals.make_context(W("-1,-1"), A1)
    assert ctx.w1 == weyl.simple(A1, 1) and ctx.w2 == weyl.simple(A1, 1)
    with pytest.raises(PreconditionFailed):
        evals.make_context(W("1,1"), A2, v=weyl.longest_element(A2))


@pytest.mark.parametrize("text,name,prefix", [
    ("-1,1", "ev_hat_m11", "y"), ("-1,-1", "ev_hat_m11", "y"),
    ("1,1", "ev_hat_11", "z"), ("1,-1", "ev_hat_11", "z")])
def test_ev_hat_two_letter_golden(rng, text, name, prefix):
    word = W(text)
    ctx = evals.make_context(word, A1)
    for _ in range(5):
        a = F(rng.randrange(1, 30), rng.randrange(1, 9))
        b = F(rng.randrange(1, 30), rng.randrange(1, 9))
        s = F(rng.randrange(1, 20), rng.randrange(1, 7))
        vals = {(1, 0): a, (1, 1): b, (1, 2): s * s}
        got = evals.ev_hat(ctx, vals)
        want = golden.eval_matrix(name, {prefix + "0": a, prefix + "1": b, "s": s})
        assert grp.projective_eq(got, want)


def test_ev_hat_one_letter_golden(rng):
    ctx = evals.make_context(W("1"), A1)
    for _ in range(5):
        a = F(rng.randrange(1, 30), rng.randrange(1, 9))
        s = F(rng.randrange(1, 20), rng.randrange(1, 7))
        got = evals.ev_hat(ctx, {(1, 0): a, (1, 1): s * s})
        want = golden.eval_matrix("ev_hat_1", {"x0": a, "s": s})
        assert grp.projective_eq(got, want)


def test_ev_hat_mixed_class_continuation(rng):
    """The (s1, e)-class continuation of the flipped word matches the
    corrected mixed-class closed form."""
    src = W("-1,1")
    tgt = W("1,-1")
    ctx_src = evals.make_context(src, A1)
    mu = maps.path_transform(src, tgt, A1, ("mixed2",), restricted=True)
    for _ in range(5):
        vals = rational_point(src, A1, rng)
        moved = mu.apply(vals)
        s = F(rng.randrange(1, 15))
        moved[(1, 2)] = s * s
        vals[(1, 2)] = s * s
        got = evals.ev_hat(ctx_src, vals)
        want = golden.eval_matrix(
            "ev_hat_1m1_mixed_class",
            {"y0": moved[(1, 0)], "y1": moved[(1, 1)], "s": s})
        assert grp.projective_eq(got, want)


def test_star_transport_examples(rng):
    word = W("1")
    tgt, out = evals.star_transport(word, A1, {(1, 0): F(2), (1, 1): F(3)})
    assert tgt == W("-1")
    assert out == {(1, 0): F(-1, 2), (1, 1): F(-1, 3)}
    # interior slots invert without the sign
    word = W("1,1")
    _, out = evals.star_transport(word, A1, {(1, 0): F(2), (1, 1): F(3), (1, 2): F(5)})
    assert out[(1, 1)] == F(1, 3)
    # matrix-side conjugation check at random points
    w0rep = grp.weyl_representative(weyl.longest_element(A2))
    for text in ("1,2", "-1,2,1"):
        word = W(text)
        for _ in range(3):
            vals = rational_point(word, A2, rng)
            sw, sv = evals.star_transport(word, A2, vals)
            lhs = w0rep * evals.ev(word, A2, vals) * w0rep.inverse()
            rhs = evals.ev(sw, A2, sv)
            assert grp.projective_eq(lhs, rhs)


def test_tau_product_reconstructs_lower_factor(rng):
    for cdata, text, cut in ((A1, "1,1", 1), (A2, "1,2,1,1,2,1", 3)):
        word = W(text)
        ctx = evals.make_context(word, cdata)
        for _ in range(3):
            vals = rational_point(word, cdata, rng)
            g = evals.ev_hat(ctx, vals)
            n_minus = grp.gauss_g0(g)
            (lw, lv), _ = maps.split_point(word, vals, cut, cdata.rank)
            sw, sv = evals.star_transport(lw, cdata, lv)
            assert evals.tau_product(sw, cdata, sv) == n_minus


def test_tau_product_builds_no_zeta_map_per_point(rng, monkeypatch):
    maps._zeta_map.cache_clear()
    word = W("1,2,1,1,2,1")

    def starred_left_factor():
        (lw, lv), _ = maps.split_point(word, rational_point(word, A2, rng), 3, A2.rank)
        return evals.star_transport(lw, A2, lv)

    sw, sv = starred_left_factor()
    evals.tau_product(sw, A2, sv)  # builds the word's zeta map, once

    def no_build(*args, **kwargs):
        raise AssertionError("zeta map built during evaluation")

    monkeypatch.setattr(maps, "zeta_map", no_build)
    for _ in range(3):
        sw, sv = starred_left_factor()
        evals.tau_product(sw, A2, sv)
    assert maps._zeta_map.cache_info().misses == 1


def test_tau_product_runs_one_inversion_per_program_slice(monkeypatch):
    """At an F_p point, ``tau_product`` runs the zeta program between two
    parameter reads as one slice, divided out with one modular inversion.
    On the word -2,-1,-2 of A2 the first slice is empty and two follow, so
    one call makes two inversions (four with one per mutation), and the
    product is the reduction of the one at the rational point."""
    word = W("-2,-1,-2")
    point = rational_point(word, A2, random.Random("tau slices"))
    want = evals.tau_product(word, A2, point)
    vals = {ix: Fp(x.numerator, DEFAULT_PRIME) / x.denominator for ix, x in point.items()}
    calls = []
    real = arith._inverse_mod
    monkeypatch.setattr(arith, "_inverse_mod", lambda v, p: calls.append(v) or real(v, p))
    got = evals.tau_product(word, A2, vals)
    assert len(calls) == 2
    assert got == want


def test_tau_product_stages_keep_the_word_layout():
    """``tau_product`` runs every slice of a word's zeta program on the
    word's own ``seed_indices`` layout.  That holds because every step of
    the zeta map of a negative reduced word of w0 keeps each wire's count
    and relabels nothing, checked here on every such word of A1, A2 and A3."""
    words_seen = 0
    for label in ("A1", "A2", "A3"):
        cdata = weyl.build_cartan(label)
        for letters in weyl.reduced_words(weyl.longest_element(cdata)):
            word = DoubleWord(tuple(-x for x in letters))
            zmap = maps._zeta_map(cdata, word)
            assert zmap.target_word.counts() == word.counts()
            assert all(step.word_after.counts() == word.counts() for step in zmap.steps)
            assert all(op[0] != "relabel" for op in zmap.program), (label, letters)
            words_seen += 1
    assert words_seen == 1 + 2 + 16


def test_dckp_examples(rng):
    word = W("1,1")
    ctx = evals.make_context(word, A1)
    t1 = maps.artin_T(word, 1, A1)
    for _ in range(4):
        vals = rational_point(word, A1, rng)
        g = evals.ev_hat(ctx, vals)
        assert grp.projective_eq(grp.dckp_T(g, 1), evals.ev_hat(ctx, t1.apply(vals)))
        twice = t1.apply(t1.apply(vals))
        expect = {(1, 0): vals[(1, 0)] / vals[(1, 1)] ** 2 * vals[(1, 2)],
                  (1, 1): vals[(1, 1)], (1, 2): vals[(1, 2)]}
        assert twice == expect


def test_check_identity_reports():
    rep = evals.check_identity(evals.IdentityCheck("PHI_REL", "A1", trials=2))
    assert rep.ok and rep.name == "PHI_REL"
    payload = rep.to_json()
    for key in ("name", "cartan_type", "words", "prime", "trials",
                "failures", "skipped", "elapsed_ms"):
        assert key in payload
    with pytest.raises(UnsupportedForType):
        evals.check_identity(evals.IdentityCheck("BRAID", "G2", trials=1))
    with pytest.raises(UnsupportedForType):
        evals.check_identity(evals.IdentityCheck("PGL2_TABLE", "A2", trials=1))
    for bad in (evals.IdentityCheck("NOT_A_CHECK", "A1"),
                evals.IdentityCheck("BRAID", "A2", trials=0)):
        with pytest.raises(ValueError):
            evals.check_identity(bad)


@pytest.mark.parametrize("check", [
    evals.IdentityCheck("BRAID", "A2", trials=3, prime=91),
    evals.IdentityCheck("PHI_REL", "A1", trials=3, prime=91),
    evals.IdentityCheck("PHI_REL", "A1", prime=318665857834031151167461),
    evals.IdentityCheck("BRAID", "A2", trials=0),
])
def test_check_identity_refuses_its_trial_config_before_any_trial(monkeypatch, check):
    """A composite modulus (91 = 7 * 13, or a strong pseudoprime to the
    bases 2..37) or a trial count below 1 is a ValueError before the first
    trial, not a DivisionByZero or a pass computed in a ring with zero
    divisors."""
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(evals, "_trials", no_trials)
    with pytest.raises(ValueError):
        evals.check_identity(check)


def test_bracket_checks_reject_a_type_before_reading_the_golden_table(monkeypatch):
    """PGL2_TABLE and EVHAT_POISSON look up their desk instances before the
    golden bracket table, so a type without instances never parses it."""
    def unread(*args, **kwargs):
        raise AssertionError("the golden table was read")

    monkeypatch.setattr(golden, "bracket_table_entries", unread)
    evals._bracket_table.cache_clear()
    for name in ("PGL2_TABLE", "EVHAT_POISSON"):
        with pytest.raises(UnsupportedForType):
            evals.check_identity(evals.IdentityCheck(name, "A2", trials=1))


@pytest.mark.parametrize("prime, trials", [(DEFAULT_PRIME, 4), (97, 20)])
@pytest.mark.parametrize("name", ["PGL2_TABLE", "EVHAT_POISSON"])
def test_bracket_checks_evaluate_ev_hat_once_per_draw(monkeypatch, name, prime, trials):
    """Both sides of a bracket check come from one jet ev_hat per draw: the
    brackets, and the entries the golden values are read off."""
    calls = []
    ev_hat = evals.ev_hat
    monkeypatch.setattr(evals, "ev_hat", lambda ctx, vals: calls.append(1) or ev_hat(ctx, vals))
    rep = evals.check_identity(evals.IdentityCheck(name, "A1", trials=trials, prime=prime))
    assert rep.ok
    assert len(calls) == rep.trials * len(rep.words) + rep.skipped


def _residue_fault(kernel, rows_of, r, c):
    """kernel with 1 added, mod p, to entry (r, c) of the rows that
    rows_of(result, arguments) picks, when it runs on residues mod p."""
    signature = inspect.signature(kernel)

    def faulty(*args, **kwargs):
        out = kernel(*args, **kwargs)
        arguments = signature.bind(*args, **kwargs).arguments
        p = arguments.get("p")
        if p is not None:
            rows = rows_of(out, arguments)
            rows[r][c] = (rows[r][c] + 1) % p
        return out
    return faulty


@pytest.mark.parametrize("kernel, rows_of, r, c", [
    ("_product", lambda out, _: out, 0, -1),
    ("_eliminate", lambda out, _: out[0], -1, 0),
    ("_lower_inverse", lambda out, _: out, -1, 0),
    ("_theta_rows", lambda out, _: out, 0, -1),
    ("right_multiply", lambda _, arguments: arguments["rows"], 0, 0),
])
def test_a1_checks_see_a_fault_in_each_residue_kernel(monkeypatch, kernel, rows_of, r, c):
    """A fault in the residue form of a matrix kernel, which the scalar form
    and jets never run, fails at least one A1 identity check."""
    monkeypatch.setattr(grp, kernel, _residue_fault(getattr(grp, kernel), rows_of, r, c))
    names = [name for name in evals.CHECK_NAMES if name in evals._INSTANCES["A1"]]
    assert any(not evals.check_identity(evals.IdentityCheck(name, "A1", trials=1)).ok
               for name in names)


def _jet_residue_fault(kernel, where):
    """kernel with 1 added, mod p, to its result's value or first partial
    when it runs on residues mod p."""
    def faulty(p, a, da, b, db):
        out = kernel(p, a, da, b, db)
        if p is None:
            return out
        v, d = out._v, list(out._d)
        if where == "value":
            v = (v + 1) % p
        elif d:
            d[0] = (d[0] + 1) % p
        return arith._jet(v, d, p)
    return faulty


# Each jet operator and the kernel it runs.
_JET_OPERATORS = {"__add__": "_add", "__radd__": "_add", "__sub__": "_sub",
                  "__rsub__": "_rsub", "__mul__": "_mul", "__rmul__": "_mul",
                  "__truediv__": "_div", "__rtruediv__": "_rdiv"}


@pytest.mark.parametrize("where", ["value", "partial"])
@pytest.mark.parametrize("kernel", ["_add", "_sub", "_mul", "_div", "_rdiv"])
def test_checks_see_a_fault_in_each_residue_jet_kernel(monkeypatch, kernel, where):
    """A fault in the residue form of a jet kernel fails a bracket check on
    A1, or keeps is_poisson_map from "equal" on the A2 1,2,1 3-move or the
    A1 1,-1 mixed 2-move.  The operators bind their kernels when Jet is
    made, so each is rebuilt with ``_operator``; ``_rsub`` reads ``_sub``
    from the module.  The Q lift of a draw runs the scalar form, so
    is_poisson_map's verdict is "inconclusive", never a counterexample."""
    monkeypatch.setattr(arith, kernel, _jet_residue_fault(getattr(arith, kernel), where))
    for name, k in _JET_OPERATORS.items():
        monkeypatch.setattr(Jet, name, arith._operator(getattr(arith, k)))
    cfg = TrialConfig(trials=1)
    moves = ((W("1,2,1"), Move("positive_d", 0, 3), A2), (W("1,-1"), Move("mixed2", 0, 2), A1))
    assert (any(not evals.check_identity(evals.IdentityCheck(name, "A1", trials=1)).ok
                for name in ("PGL2_TABLE", "EVHAT_POISSON"))
            or any(not maps.is_poisson_map(maps.dmove_transform(*move), cfg).is_equal
                   for move in moves))


def _plant_register_fault(monkeypatch, op):
    """Plant a fault in the pairs form of one kind of register op: 1 added
    mod p to a mutation's first exponent target, to the forward core's
    divided boundary slot or to the inverse core's solved slot, or two
    entries of a relabeling's gather swapped."""
    def plus_one(regs, i, p):
        regs[0][i] = (regs[0][i] + 1) % p

    if op == "exponent":
        real_mutate = maps._Pairs.mutate

        def mutate(self, regs, mutation):
            real_mutate(self, regs, mutation)
            if self.p is not None and mutation[2]:
                plus_one(regs, mutation[2][0][0], self.p)

        monkeypatch.setattr(maps._Pairs, "mutate", mutate)
    elif op == "relabel":
        real_gather = maps._Pairs.gather

        def gather(regs, order):
            out = real_gather(regs, order)
            # of the gathers, only a relabeling's permutes the slots
            if sorted(order) == list(range(len(order))):
                for half in out:
                    half[0], half[1] = half[1], half[0]
            return out

        monkeypatch.setattr(maps._Pairs, "gather", staticmethod(gather))
    else:
        name = {"core": "_core_forward", "core_inverse": "_core_inverse"}[op]
        real_core = getattr(maps, name)

        def core(ar, ops, regs):
            out = real_core(ar, ops, regs)
            if type(ar) is maps._Pairs and ar.p is not None:
                plus_one(out, ops.boundary_t if op == "core" else ops.unknown, ar.p)
            return out

        monkeypatch.setattr(maps, name, core)


@pytest.mark.parametrize("op", ["exponent", "relabel", "core", "core_inverse"])
def test_a2_checks_see_a_fault_in_each_register_op(monkeypatch, op):
    """A fault in the pairs form of each kind of register op a map program
    runs fails at least one A2 identity check at 3 trials."""
    _plant_register_fault(monkeypatch, op)
    names = [name for name in evals.CHECK_NAMES if name in evals._INSTANCES["A2"]]
    assert any(not evals.check_identity(evals.IdentityCheck(name, "A2", trials=3)).ok
               for name in names)


def test_desk_instances_are_one_table_entry_per_type(monkeypatch):
    """A type runs the matrix-level checks its entry in ``_INSTANCES``
    lists, parsed once, and no other: a check it leaves out is unsupported
    there, so ``verify --all`` skips it."""
    assert tuple(evals._INSTANCES) == ("A1", "A2", "B2")
    assert evals.CHECK_NAMES == tuple(evals._CHECK_IMPLS)
    for checks in evals._INSTANCES.values():
        for entries in checks.values():
            for entry in entries:
                pair = entry if isinstance(entry, tuple) else (entry,)
                assert all(isinstance(w, DoubleWord) for w in pair)
    monkeypatch.setitem(evals._INSTANCES, "A3", {"PHI_REL": (W("1"),),
                                                  "W0_CONJ": (W("1,2,1,3,2,1"),)})
    for name in ("PHI_REL", "W0_CONJ"):
        rep = evals.check_identity(evals.IdentityCheck(name, "A3", trials=2))
        assert rep.ok and rep.words, name
    with pytest.raises(UnsupportedForType, match="BRAID has no desk instances for A3"):
        evals.check_identity(evals.IdentityCheck("BRAID", "A3", trials=1))


def test_b2_map_level_checks():
    """B2's entry holds the checks that build and compare maps without the
    type-A matrix layer: the Artin generators' base independence, the
    twist sections against the move transport, and the braid relation."""
    assert tuple(evals._INSTANCES["B2"]) == ("T_LEMMA", "TORMUT", "BRAID")
    for name in evals._INSTANCES["B2"]:
        rep = evals.check_identity(evals.IdentityCheck(name, "B2", trials=3))
        assert rep.ok and rep.words and rep.cartan_type == "B2", name


def test_frozen_variables_central(rng):
    for text, cdata in (("-1,1", A1), ("1,2,1", A2)):
        word = W(text)
        eta = seeds.bracket_seed(seeds.seed_for_word(word, cdata))
        vals = rational_point(word, cdata, rng)
        for j in eta.cover_right:
            for i in eta.indices:
                assert maps.poisson_bracket_at(eta, i, j, vals) == 0


def test_ev_one_sided_factors_rank_one():
    # hand-derived factors for the barred-then-plain word
    word = W("-1,1")
    ctx = evals.make_context(word, A1)
    y0, y1, t = F(2), F(3), F(7)
    vals = {(1, 0): y0, (1, 1): y1, (1, 2): t}
    right = evals.ev_LR(ctx, vals, "R")
    assert right == GroupMatrix([[y0 * y1, F(0)], [y1 + 1, F(1)]])
    left = evals.ev_LR(ctx, vals, "L")
    assert left == GroupMatrix([[y0 * y1, y0 * y1], [y1, y1 + 1]])
    assert evals.frozen_torus(word, A1, vals) == GroupMatrix(
        [[t, F(0)], [F(0), F(1)]])


def _field_point(word, cdata, rng, field):
    """A point of the word's torus over Q, F_p or first-order jets over F_p."""
    if field == "Q":
        return rational_point(word, cdata, rng)
    values = maps.random_assignment(word, cdata, rng, DEFAULT_PRIME)
    if field == "jet":
        values = dict(zip(values, jet_point(list(values.values()))))
    return values


def _count_calls(monkeypatch, calls, *targets):
    """Count the calls of each (owner, name) into ``calls[name]``."""
    for owner, name in targets:
        original = getattr(owner, name)

        def wrapper(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)


def test_ev_hat_projects_the_right_factor_once(rng, monkeypatch):
    calls = {"_ev": 0, "_ev_red": 0, "_eliminate": 0}
    _count_calls(monkeypatch, calls, (evals, "_ev"), (evals, "_ev_red"), (grp, "_eliminate"))
    for field in ("Q", "Fp", "jet"):
        for text in ("-1,1", "1,1", "1"):
            ctx = evals.make_context(W(text), A1)
            values = _field_point(W(text), A1, rng, field)
            calls.update(dict.fromkeys(calls, 0))
            evals.ev_hat(ctx, values)
            # ev only inside the one ev_red(i2): ev(i1) is never formed; one
            # elimination projects P, one projects Q
            assert calls == {"_ev": 1, "_ev_red": 1, "_eliminate": 2}, (field, text)


# ---------------------------------------------------------------------------
# Structured products against the dense product of the generator matrices
# ---------------------------------------------------------------------------

def _dense(rank, factors, like):
    out = grp.identity(rank + 1, like)
    for factor in factors:
        out = out * factor
    return out


def _dense_ev(w, cdata, values):
    rank = cdata.rank
    like = next(iter(values.values()), F(1))
    factors = [grp.h_gen(rank, j, values[(j, 0)]) for j in range(1, rank + 1)]
    seen = dict.fromkeys(range(1, rank + 1), 0)
    for letter in w.letters:
        i = abs(letter)
        seen[i] += 1
        factors.append(grp.e_gen(rank, i, like) if letter > 0 else grp.f_gen(rank, i, like))
        factors.append(grp.h_gen(rank, i, values[(i, seen[i])]))
    return _dense(rank, factors, like)


def _dense_right_torus(w, rank, values, invert):
    return [grp.h_gen(rank, j, 1 / values[(j, w.count(j))] if invert
                      else values[(j, w.count(j))]) for j in range(1, rank + 1)]


def _assert_same_entries(got, want):
    """Equal entry by entry, and of the same type down to a jet's parts."""
    assert got.n == want.n
    for row_g, row_w in zip(got.rows, want.rows):
        for a, b in zip(row_g, row_w, strict=True):
            assert type(a) is type(b) and a == b and repr(a) == repr(b), (got, want)


def _gauss_or_none(fn, g):
    try:
        return fn(g)
    except NotInBigCell:
        return None


@st.composite
def _matrix_inputs(draw):
    """A type A1-A3, a word, letters for a representative, and a point of
    the word's torus over Q, F_p or first-order jets over F_p."""
    cdata = weyl.build_cartan(draw(st.sampled_from(("A1", "A2", "A3"))))
    letter = st.integers(1, cdata.rank)
    signed = letter.flatmap(lambda i: st.sampled_from((i, -i)))
    word = DoubleWord(tuple(draw(st.lists(signed, max_size=5))))
    rep_letters = tuple(draw(st.lists(letter, max_size=5)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    field = draw(st.sampled_from(("Q", "Fp", "jet")))
    values = maps.random_assignment(word, cdata, rng,
                                    None if field == "Q" else DEFAULT_PRIME, bound=9)
    if field == "jet":
        ixs = list(values)
        values = dict(zip(ixs, jet_point([values[ix] for ix in ixs])))
    # generator moves, a torus move taking its parameter from the point
    params = list(values.values())
    moves = [(kind, i, params[k % len(params)] if kind == "H" else None)
             for k, (kind, i) in enumerate(draw(st.lists(st.tuples(
                 st.sampled_from(("E", "F", "E_inv", "F_inv", "H")), letter), max_size=6)))]
    return cdata, word, rep_letters, values, moves


def _dense_generator(rank, move, like):
    """The matrix of a generator move: E^i, F^i and their inverses are
    x_pos(i, +-1) and x_neg(i, +-1) over the field of ``like``."""
    kind, i, x = move
    if kind == "H":
        return grp.h_gen(rank, i, x)
    one = grp.identity(1, like)[0][0]
    root_element = grp.x_pos if kind.startswith("E") else grp.x_neg
    return root_element(rank, i, -one if kind.endswith("_inv") else one)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_matrix_inputs())
def test_structured_products_match_dense_products(inputs):
    cdata, word, rep_letters, values, moves = inputs
    rank = cdata.rank
    like = next(iter(values.values()))
    dense_ev = _dense_ev(word, cdata, values)
    _assert_same_entries(evals.ev(word, cdata, values), dense_ev)
    _assert_same_entries(
        evals.ev_red(word, cdata, values),
        _dense(rank, [dense_ev] + _dense_right_torus(word, rank, values, True), like))
    _assert_same_entries(
        evals.frozen_torus(word, cdata, values),
        _dense(rank, _dense_right_torus(word, rank, values, False), like))
    dense_rep = _dense(rank, [grp.s_hat(rank, i, like) for i in rep_letters], like)
    _assert_same_entries(grp.word_representative(rank, rep_letters, like), dense_rep)
    if rep_letters:
        w = weyl.from_word(cdata, rep_letters)
        _assert_same_entries(
            grp.weyl_representative(w, like),
            _dense(rank, [grp.s_hat(rank, i, like) for i in w.reduced_word()], like))
    for g in (dense_ev, dense_ev * dense_rep):
        factors = _gauss_or_none(grp.gauss, g)
        got_leq = _gauss_or_none(grp.gauss_leq0, g)
        got_geq = _gauss_or_none(grp.gauss_geq0, g)
        if factors is None:
            assert got_leq is None and got_geq is None
            continue
        lower, diag, upper = factors
        _assert_same_entries(got_leq, lower * diag)
        _assert_same_entries(got_geq, diag * upper)
    # the moves, inverse unipotents included, on either side of ev, one
    # dense product per generator
    rows = [list(row) for row in dense_ev.rows]
    want_right = want_left = dense_ev
    for move in moves:
        grp.right_multiply(rows, *move)
        want_right = want_right * _dense_generator(rank, move, like)
    for move in reversed(moves):
        want_left = _dense_generator(rank, move, like) * want_left
    _assert_same_entries(GroupMatrix(rows), want_right)
    _assert_same_entries(
        GroupMatrix(grp.left_multiply([list(row) for row in dense_ev.rows], moves)), want_left)


@pytest.mark.parametrize("word,slot", [("1", (1, 0)), ("1,2,1", (2, 0)),
                                       ("1,2,1", (1, 1)), ("1", (1, 1))])
def test_ev_rejects_a_zero_torus_parameter(word, slot):
    # leading, interior and right-end slots, over Q and F_p
    cdata = A2 if "2" in word else A1
    for one in (F(1), Fp(1, DEFAULT_PRIME)):
        ixs = words.seed_indices(W(word), cdata.rank)
        vals = {ix: one * (k + 2) for k, ix in enumerate(ixs)}
        vals[slot] = one * 0
        with pytest.raises(InvalidParameter):
            evals.ev(W(word), cdata, vals)


def test_ev_rejects_a_letter_beyond_the_rank():
    word = W("1,2")
    vals = {ix: F(k + 2) for k, ix in enumerate(words.seed_indices(word, 2))}
    with pytest.raises(InvalidParameter):
        evals.ev(word, A1, vals)


def test_structured_products_make_no_dense_product(rng, monkeypatch):
    calls = []
    dense = grp._product

    def counted(a, b, p):
        calls.append(b)
        return dense(a, b, p)

    monkeypatch.setattr(grp, "_product", counted)
    word = W("1,-2,1,2,-1")
    vals = rational_point(word, A2, rng)
    evals.ev(word, A2, vals)
    evals.ev_red(word, A2, vals)
    evals.frozen_torus(word, A2, vals)
    grp.word_representative(2, (1, 2, 1))
    grp.weyl_representative(weyl.longest_element(A2))
    assert calls == []
    grp.identity(3) * grp.identity(3)  # the counter sees a dense product
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Structured inverses against the dense formulas
# ---------------------------------------------------------------------------

_EV_HAT_WORDS = {
    "A1": ("1", "1,1", "-1,1", "1,-1", "-1,-1"),
    "A2": ("1,2,1", "-1,1,2,1", "1,2,1,-1", "1,2,1,1,2,1", "-1,-2,-1,1,2,1"),
    "A3": ("1,2,1,3,2,1", "-2,1,2,1,3,2,1", "1,2,1,3,2,1,1,2,1,3,2,1"),
}


def _dense_theta(g):
    inv_t = g.transpose().inverse()
    return GroupMatrix([[x if (i + j) % 2 == 0 else -x for j, x in enumerate(row)]
                        for i, row in enumerate(inv_t.rows)])


def _dense_ev_hat(ctx, values):
    """L, R and L * frozen_torus^{-1} * rep(w0) * R^{-1}, with dense products
    and Gauss-Jordan inverses throughout."""
    cdata = ctx.cdata
    values, first, proj = evals._ev_factored(ctx, values)
    rep_w0 = grp.weyl_representative(weyl.longest_element(cdata), first[0][0])
    left = first * _dense_theta(grp.gauss_leq0(_dense_theta(proj) * rep_w0))
    right = first * proj
    torus = evals.frozen_torus(ctx.factored_word, cdata, values)
    return left, right, left * torus.inverse() * rep_w0 * right.inverse()


def _outcome(fn):
    try:
        return fn()
    except (SingularPoint, ZeroDivisionError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted((label, text) for label, texts in _EV_HAT_WORDS.items()
                              for text in texts)),
       st.sampled_from(("Q", "Fp", "jet")), st.integers(0, 2**32))
def test_ev_hat_matches_the_dense_formula(case, field, seed):
    label, text = case
    cdata, word = weyl.build_cartan(label), W(text)
    ctx = evals.make_context(word, cdata)
    values = maps.random_assignment(word, cdata, random.Random(seed),
                                    None if field == "Q" else DEFAULT_PRIME, bound=9)
    if field == "jet":
        ixs = list(values)
        values = dict(zip(ixs, jet_point([values[ix] for ix in ixs])))
    want = _outcome(lambda: _dense_ev_hat(ctx, values))
    got = _outcome(lambda: (evals.ev_LR(ctx, values, "L"), evals.ev_LR(ctx, values, "R"),
                            evals.ev_hat(ctx, values)))
    if isinstance(want, type):
        assert got is want
        return
    for g, w in zip(got, want, strict=True):
        _assert_same_entries(g, w)


def test_ev_hat_runs_no_inverse_and_one_dense_product(rng, monkeypatch):
    calls = {"inverse": 0, "_product": 0}
    _count_calls(monkeypatch, calls, (GroupMatrix, "inverse"), (grp, "_product"))
    for field in ("Q", "Fp", "jet"):
        for label, texts in _EV_HAT_WORDS.items():
            cdata = weyl.build_cartan(label)
            for text in texts:
                ctx = evals.make_context(W(text), cdata)
                vals = _field_point(W(text), cdata, rng, field)
                calls.update(dict.fromkeys(calls, 0))
                evals.ev_hat(ctx, vals)
                assert calls == {"inverse": 0, "_product": 1}, (field, text)


def _scalar_form_outcomes(cases):
    """ev_hat and dckp_T of it, tau_product, and the TWIST/TROP_GEOM
    projections, at each case's points."""
    out = []
    for cdata, ctx, hat_vals, tau_word, tau_vals, proj_word, proj_vals in cases:
        hat = evals.ev_hat(ctx, hat_vals)
        out += [hat, *(grp.dckp_T(hat, j) for j in range(1, cdata.rank + 1)),
                evals.tau_product(tau_word, cdata, tau_vals),
                evals._descending(cdata, proj_word)(proj_vals),
                evals._ascending(cdata, proj_word)(proj_vals)]
    return out


def test_scalar_form_runs_on_the_kernels(rng, monkeypatch):
    """At Q and jet points the composites compute through the private
    kernels: with the public evaluations, Gauss projection, substitution
    inverse, identity, root element and dense product made to fail, they
    give what they give with them in place."""
    cases = []
    # a DCKP_CLUSTER word or a word of D(w0) whose ev_hat is in the big cell,
    # then a TROP_GEOM word
    for label, hat_text, proj_text in (("A1", "1,1", "1"), ("A1", "-1,1", "-1,1"),
                                       ("A2", "1,2,1,1,2,1", "1,2"),
                                       ("A2", "-1,-2,-1,1,2,1", "-1,2,1")):
        cdata = weyl.build_cartan(label)
        ctx = evals.make_context(W(hat_text), cdata)
        tau_word, proj_word = W(_TAU_WORDS[label]), W(proj_text)
        for field in ("Q", "jet"):
            cases.append((cdata, ctx, _field_point(W(hat_text), cdata, rng, field),
                          tau_word, _field_point(tau_word, cdata, rng, field),
                          proj_word, _field_point(proj_word, cdata, rng, field)))
    want = _scalar_form_outcomes(cases)

    def refuse(*args):
        raise AssertionError("a public matrix function ran inside a composite")

    for owner, name in ((evals, "ev"), (evals, "ev_red"), (grp, "gauss_leq0"),
                        (grp, "lower_inverse"), (grp, "identity"), (grp, "x_neg"),
                        (GroupMatrix, "__mul__")):
        monkeypatch.setattr(owner, name, refuse)
    got = _scalar_form_outcomes(cases)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_same_entries(g, w)


def _leq0_and_inverse(g):
    p, rows = grp._residue_form(g)
    return tuple(grp._matrix(m, p) for m in grp._leq0_and_inverse(rows, p))


def _public_leq0_and_inverse(g):
    leq0 = grp.gauss_leq0(g)
    return leq0, grp.lower_inverse(leq0)


def _leq0_cases(rng, field):
    """Evaluations and their products with rep(w0) at points over ``field``,
    rep(w0) itself, outside the big cell, and a matrix whose second leading
    minor vanishes."""
    out = []
    for label, texts in _EV_HAT_WORDS.items():
        cdata = weyl.build_cartan(label)
        for text in texts:
            g = evals.ev(W(text), cdata, _field_point(W(text), cdata, rng, field))
            rep = grp.weyl_representative(weyl.longest_element(cdata), g[0][0])
            out += [g, g * rep, rep]
            rows = [list(row) for row in g.rows]
            rows[1] = [x * 3 for x in rows[0]]
            out.append(GroupMatrix(rows))
    return out


def test_leq0_and_inverse_matches_gauss_leq0_and_lower_inverse(rng):
    """The pair ``ev_hat`` projects with equals gauss_leq0 and lower_inverse
    of its result, entry by entry with types, or raises NotInBigCell at the
    same pivot, over Q, F_p and jets, and over F_p and jets again with no
    residue form (``reference_jets``), so the scalar form runs on Fp entries
    and on jets storing their scalars."""
    fields = [(field, None) for field in ("Q", "Fp", "jet")] + [
        (field, reference_jets) for field in ("Fp", "jet")]
    seen = set()
    for field, context in fields:
        with context() if context else contextlib.nullcontext():
            for g in _leq0_cases(rng, field):
                try:
                    want = _public_leq0_and_inverse(g)
                except NotInBigCell as exc:
                    with pytest.raises(NotInBigCell) as info:
                        _leq0_and_inverse(g)
                    assert info.value.minor_index == exc.minor_index
                    seen.add(exc.minor_index)
                    continue
                for got, expected in zip(_leq0_and_inverse(g), want, strict=True):
                    _assert_same_entries(got, expected)
    assert seen == {0, 1}


def _pinned_entry(x):
    # the repr of a jet spells its value and every partial with their types
    return [type(x).__name__, repr(x)]


def _ev_hat_records():
    rng = random.Random("ev_hat values")
    records = []
    for label, texts in sorted(_EV_HAT_WORDS.items()):
        cdata = weyl.build_cartan(label)
        for text in texts:
            ctx = evals.make_context(W(text), cdata)
            for field in ("Q", DEFAULT_PRIME, 97, "jet", "Q", DEFAULT_PRIME, 97, "jet"):
                prime = {"Q": None, "jet": DEFAULT_PRIME}.get(field, field)
                values = maps.random_assignment(W(text), cdata, rng, prime, bound=9)
                if field == "jet":
                    ixs = list(values)
                    values = dict(zip(ixs, jet_point([values[ix] for ix in ixs])))
                try:
                    got = [[_pinned_entry(x) for x in row]
                           for row in evals.ev_hat(ctx, values).rows]
                except (SingularPoint, ZeroDivisionError) as exc:
                    got = type(exc).__name__
                records.append([label, text, field, got])
    return records


# sha256 of the records above
EV_HAT_SHA256 = "ed6c1381836f5a2d094359ad6262c5d6b73580a64e1de7f5af2ae30d2bf41b92"


def test_ev_hat_values_pinned(capsys):
    """ev_hat at seeded points of every ``_EV_HAT_WORDS`` word over Q, F_(2^61-1),
    F_97 and jets over F_(2^61-1), each entry's type, value and partials
    included, and two ``compute ev-hat`` payloads on A2: a word reached
    through the restricted transport and a factored one."""
    digest = hashlib.sha256(repr(_ev_hat_records()).encode()).hexdigest()
    assert digest == EV_HAT_SHA256
    cases = [
        ("1,2,1,-1", "2,3,5,7,11,13",
         {"v": [2], "w1": [2], "w2": []},
         [[[508, 455], [-144, 455], [418, 455]],
          [[467, 910], [-1, 35], [11, 455]],
          [[1, 22], [0, 1], [0, 1]]]),
        ("1,2,1,1,2,1", "2,3,5,7,11,13,17,19",
         {"v": [1, 2, 1], "w1": [], "w2": []},
         [[[99797, 74613], [-1023184, 74613], [9091680, 24871]],
          [[2411, 67830], [-521, 1785], [32448, 11305]],
          [[1, 6630], [-4, 3315], [1, 85]]]),
    ]
    for word, point, klass, matrix in cases:
        assert cli.main(["compute", "ev-hat", "--word", word, "--type", "A2",
                         "--point", point]) == 0
        assert json.loads(capsys.readouterr().out) == {"class": klass, "matrix": matrix}


# ---------------------------------------------------------------------------
# The residue path: F_p points through the matrix layer on plain residues
# ---------------------------------------------------------------------------

def test_fp_ev_hat_inverts_each_pivot_once(monkeypatch):
    """One warm F_p ev_hat on 1,2,1,1,2,1 inverts 2 frozen values of ev_red(i2),
    3 pivots in each of its two Gauss projections, 2 frozen values of T^{-1}
    and the 5 torus parameters of ev(i1): 15 modular inversions.  Inverting
    the projections again by substitution would add 3 each.  The transported
    word 1,2,1,-1 adds the transport's one inversion and has 3 torus
    parameters in ev(i1): 14."""
    cases = []
    for text in ("1,2,1,1,2,1", "1,2,1,-1"):
        ctx = evals.make_context(W(text), A2)
        vals = maps.random_assignment(W(text), A2, random.Random(text), DEFAULT_PRIME)
        evals.ev_hat(ctx, vals)  # builds the transport's program
        cases.append((ctx, vals))
    calls = []
    real = arith._inverse_mod
    monkeypatch.setattr(arith, "_inverse_mod", lambda v, p: calls.append(v) or real(v, p))
    counts = []
    for ctx, vals in cases:
        calls.clear()
        evals.ev_hat(ctx, vals)
        counts.append(len(calls))
    assert counts == [15, 14]


_RESIDUE_WORDS = [("A1", text) for text in ("1", "1,1", "-1,1", "1,-1", "-1,-1")] + [
    ("A2", text) for text in ("1,2,1", "-1,1,2,1", "1,2,1,-1", "1,2,1,1,2,1",
                              "-1,-2,-1,1,2,1")]
# a negative reduced word of the longest element, for tau_product
_TAU_WORDS = {"A1": "-1", "A2": "-2,-1,-2"}


def _as_jets(arg):
    """A point or a matrix over F_p lifted to jets with zero partials, which
    keeps every evaluation on the scalar path."""
    if isinstance(arg, dict):
        return {ix: jet_const(x, 1) for ix, x in arg.items()}
    if isinstance(arg, GroupMatrix):
        return GroupMatrix([[jet_const(x, 1) for x in row] for row in arg.rows])
    return arg


def _scalar_outcome(fn):
    try:
        result = fn()
    except (ClusterDualError, ArithmeticError) as exc:
        return type(exc)
    if isinstance(result, GroupMatrix):
        return GroupMatrix([[x.value if type(x) is Jet else x for x in row]
                            for row in result.rows])
    return result


def _residue_matches_scalar(fn, *args):
    """fn at F_p arguments (the residue path) against fn at their jet lifts
    with the values taken (the scalar path): the same entries of the same
    types, or the same exception class.  Returns the residue outcome."""
    got = _scalar_outcome(lambda: fn(*args))
    want = _scalar_outcome(lambda: fn(*map(_as_jets, args)))
    if isinstance(got, type) or isinstance(want, type):
        assert got is want, (fn.__name__, got, want)
    elif isinstance(got, GroupMatrix):
        assert all(type(x) is Fp for row in got.rows for x in row), fn.__name__
        _assert_same_entries(got, want)
    else:
        assert got == want, fn.__name__
    return got


def _residue_cases(label, text, prime, rng, singular):
    """Every function with a residue path, on the word's point, its matrices
    and a random matrix (with a repeated row when ``singular``) over the
    integers mod ``prime``; the outcomes, in order."""
    cdata, word = weyl.build_cartan(label), W(text)
    vals = maps.random_assignment(word, cdata, rng, prime)
    ctx = evals.make_context(word, cdata)
    outcomes = [_residue_matches_scalar(fn, word, cdata, vals) for fn in (evals.ev, evals.ev_red)]
    hat = _residue_matches_scalar(evals.ev_hat, ctx, vals)
    outcomes.append(hat)
    n = cdata.rank + 1
    rows = [[Fp(rng.randrange(prime), prime) for _ in range(n)] for _ in range(n)]
    if singular:
        rows[-1] = rows[0]
    matrices = [GroupMatrix(rows), evals.ev(word, cdata, vals)]
    if isinstance(hat, GroupMatrix):
        matrices.append(hat)
    for g in matrices:
        for fn in (grp.gauss_leq0, grp.gauss_geq0, grp.gauss_g0):
            outcomes.append(_residue_matches_scalar(fn, g))
        for j in range(1, n):
            outcomes.append(_residue_matches_scalar(grp.dckp_T, g, j))
        outcomes.append(_residue_matches_scalar(GroupMatrix.__mul__, g, GroupMatrix(rows)))
        scaled = g.scale(Fp(rng.randrange(1, prime), prime))
        for h in (scaled, GroupMatrix(rows)):
            outcomes.append(_residue_matches_scalar(grp.projective_eq, g, h))
    tau_word = W(_TAU_WORDS[label])
    tau_vals = maps.random_assignment(tau_word, cdata, rng, prime)
    outcomes.append(_residue_matches_scalar(evals.tau_product, tau_word, cdata, tau_vals))
    return outcomes


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(_RESIDUE_WORDS), st.sampled_from((97, DEFAULT_PRIME)),
       st.integers(0, 2**32), st.booleans())
def test_residue_path_matches_the_scalar_path(case, prime, seed, singular):
    label, text = case
    _residue_cases(label, text, prime, random.Random(seed), singular)


def test_composite_modulus_raises_where_the_scalar_path_does():
    """Mod 91 = 7 * 13 a nonzero residue need not be invertible: the residue
    path raises DivisionByZero exactly where the scalar path does."""
    outcomes = []
    for k, (label, text) in enumerate(_RESIDUE_WORDS):
        for trial in range(3):
            rng = random.Random(f"mod 91:{k}:{trial}")
            outcomes += _residue_cases(label, text, 91, rng, trial == 2)
    assert DivisionByZero in outcomes


def test_a_point_mixing_two_primes_raises():
    word = W("1,2,1,1,2,1")
    ctx = evals.make_context(word, A2)
    vals = maps.random_assignment(word, A2, random.Random("mixed"), DEFAULT_PRIME)
    vals[(1, 0)] = Fp(5, 97)
    for fn, args in ((evals.ev, (word, A2, vals)), (evals.ev_red, (word, A2, vals)),
                     (evals.ev_hat, (ctx, vals))):
        with pytest.raises(ValueError, match="mixed primes"):
            fn(*args)
    g, h = (evals.ev(word, A2, {ix: Fp(x.value, prime) for ix, x in vals.items()})
            for prime in (97, DEFAULT_PRIME))
    mixed = GroupMatrix([g.rows[0], *h.rows[1:]])
    for fn, args in ((grp.projective_eq, (g, h)), (GroupMatrix.__mul__, (g, h)),
                     (grp.gauss_leq0, (mixed,)), (grp.gauss_g0, (mixed,)),
                     (grp.dckp_T, (mixed, 1))):
        with pytest.raises(ValueError, match="mixed primes"):
            fn(*args)


def _entries(x):
    """The scalars of a result: a matrix's entries, a pair's parts, a jet's
    value and partials, or x itself."""
    if isinstance(x, GroupMatrix):
        return [y for row in x.rows for y in row]
    if isinstance(x, (tuple, list)):
        return [y for part in x for y in _entries(part)]
    if isinstance(x, dict):
        return _entries(list(x.values()))
    if isinstance(x, Jet):
        return [x.value, *x.partials]
    return [x]


def test_int_points_compute_over_q():
    """An int point means Q: each scalar-form division gives the Fraction
    point's result, every entry a Fraction, never a float."""
    word = W("-1,1")
    ctx = evals.make_context(word, A1)
    eta = evals._bracket_seed(A1, word)
    ixs = words.seed_indices(word, 1)
    ints = dict(zip(ixs, (2, 3, 5)))
    fracs = {ix: F(x) for ix, x in ints.items()}
    calls = [
        lambda v: maps.poisson_bracket_at(eta, lambda a: 1 / a[(1, 0)], (1, 1), v),
        lambda v: evals.ev_hat(ctx, v),
        lambda v: evals.star_transport(word, A1, v)[1],
        lambda v: GroupMatrix([[v[(1, 0)], 1], [1, v[(1, 1)] - 2]]).inverse(),
        lambda v: GroupMatrix([[v[(1, 0)], 1], [1, v[(1, 1)] - 2]]).det(),
        lambda v: 1 / jet_point((v[(1, 0)], v[(1, 1)]))[0],
        lambda v: operator.truediv(*jet_point((v[(1, 0)], v[(1, 2)]))),
        lambda v: arith.spow(jet_point((v[(1, 0)],))[0], -2),
    ]
    assert maps.poisson_bracket_at(eta, lambda a: 1 / a[(1, 0)], (1, 1), ints) == F(-3, 2)
    for call in calls:
        got, want = call(ints), call(fracs)
        assert got == want, call
        assert all(type(x) is F for x in _entries(got)), got
    # projectively equal, with a ratio that is no float
    g, h = (GroupMatrix([[n, n], [0, 0]]) for n in (10 ** 17 + 1, 10 ** 17))
    assert grp.projective_eq(g, h) and grp.projective_eq(h, g)
