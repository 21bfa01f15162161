"""Evaluation maps from seed tori into PGL(n+1), and the identity-check suite.

The plain evaluation of a double word sends a torus point to the product,
letter by letter, of H-E-H (positive letter) or H-F-H (negative letter)
slices; the leading H block collects the (j,0) slots.  On top of it sit:

- the reduced evaluation (right Cartan part stripped),
- the one-sided evaluations built from Gauss projections of the reduced
  evaluation against Weyl representatives,
- the twisted evaluation, a product of the left evaluation, the inverted
  right frozen torus part, the longest representative and the inverse right
  evaluation.  With every frozen variable t replaced by s^2 the twisted
  evaluations of the rank-one words reproduce the classical 2x2 matrices
  with half-integer powers of t, projectively.

A twisted evaluation is attached to a word together with a factorization
context (the pair (w1, w2), the element v, and a cut position); words that
are not themselves in factored form are evaluated through the restricted
transport onto a factored word of the same class.

``check_identity`` runs one of sixteen named structural identities at desk
scale and reports trial/failure counts; every reported failure is confirmed
in exact rational arithmetic.
"""

from __future__ import annotations

import functools
import hashlib
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import arith
from . import cartan as weyl
from . import group as grp
from . import maps as mapmod
from . import words as wordmod
from .arith import TrialConfig, _trials, _values_equal
from .cartan import CartanData, WeylElement
from .errors import PreconditionFailed, UnsupportedForType
from .group import GroupMatrix
from .maps import Assignment, RationalMap
from .seeds import Seed, bracket_seed, seed_for_word
from .words import DoubleWord


def _ev_moves(w: DoubleWord, rank: int, values: Assignment) -> list[tuple]:
    """ev(w) as generator moves (kind, i, x), left to right: H^j at every
    (j, 0) slot, then for each letter E^i (positive) or F^i (negative)
    followed by H^i at the letter's slot.  The moves are checked before any
    is applied: a letter beyond the rank or a zero torus parameter raises
    InvalidParameter."""
    moves = [("H", j, values[(j, 0)]) for j in range(1, rank + 1)]
    seen = dict.fromkeys(range(1, rank + 1), 0)
    for letter in w.letters:
        i = abs(letter)
        grp._require_range(i, rank)
        seen[i] += 1
        moves += [("E" if letter > 0 else "F", i, None), ("H", i, values[(i, seen[i])])]
    for kind, _, x in moves:
        if kind == "H":
            grp._require_torus_parameter(x)
    return moves


def _residues(values: Assignment, p: Optional[int]) -> Assignment:
    """The point's residues mod p, or the point itself when p is None."""
    return values if p is None else {ix: x.value for ix, x in values.items()}


def _residue_point(values: Assignment) -> tuple[Optional[int], Assignment]:
    """The point in the matrix layer's residue form (see ``group``): its
    residues and p when every coordinate is an Fp mod p, else the point
    and None."""
    p = arith._fp_prime(values.values())
    return p, _residues(values, p)


def _moves_rows(moves: list[tuple], rank: int, values: Assignment,
                p: Optional[int]) -> list[list]:
    """The product of generator moves, column move by column move from the
    identity over the field of the values."""
    like = next(iter(values.values()), Fraction(1))
    rows = grp._identity_rows(rank + 1, like, p)
    for kind, i, x in moves:
        grp.right_multiply(rows, kind, i, x, p)
    return rows


def _ev(w: DoubleWord, cdata: CartanData, values: Assignment, p: Optional[int]) -> list[list]:
    rank = grp.require_type_a(cdata)
    return _moves_rows(_ev_moves(w, rank, values), rank, values, p)


def ev(w: DoubleWord, cdata: CartanData, values: Assignment) -> GroupMatrix:
    """Letter-by-letter evaluation of a torus point in the adjoint group."""
    p, values = _residue_point(values)
    return grp._matrix(_ev(w, cdata, values, p), p)


def _strip_frozen_torus(rows: list[list], w: DoubleWord, rank: int,
                        values: Assignment, p: Optional[int]) -> None:
    """Right-multiply ``rows`` in place by the inverse of the frozen torus."""
    for j in range(1, rank + 1):
        grp.right_multiply(rows, "H", j, grp._reciprocal(values[(j, w.count(j))], p), p)


def _ev_red(w: DoubleWord, cdata: CartanData, values: Assignment,
            p: Optional[int]) -> list[list]:
    rows = _ev(w, cdata, values, p)
    _strip_frozen_torus(rows, w, cdata.rank, values, p)
    return rows


def ev_red(w: DoubleWord, cdata: CartanData, values: Assignment) -> GroupMatrix:
    """Evaluation with the right Cartan part stripped."""
    p, values = _residue_point(values)
    return grp._matrix(_ev_red(w, cdata, values, p), p)


def frozen_torus(w: DoubleWord, cdata: CartanData, values: Assignment) -> GroupMatrix:
    """Product of H^j at the right frozen values."""
    rank = grp.require_type_a(cdata)
    p, values = _residue_point(values)
    moves = [("H", j, values[(j, w.count(j))]) for j in range(1, rank + 1)]
    return grp._matrix(_moves_rows(moves, rank, values, p), p)


def _times_representative(rows: list[list], w: WeylElement, p: Optional[int]) -> None:
    """Right-multiply ``rows`` in place by the representative of w, column
    move by column move along its reduced word."""
    for i in w.reduced_word():
        grp.right_multiply(rows, "s", i, None, p)


@dataclass(frozen=True)
class EvalContext:
    """A word of D(v) with a factorization context.

    For a word that is itself a factored (w1,w2)_v-word, ``cut`` is the
    factor boundary; otherwise the context carries the restricted transport
    onto the canonical factored word of the same class.
    """

    cdata: CartanData
    word: DoubleWord
    v: WeylElement
    w1: WeylElement
    w2: WeylElement
    cut: int
    transport: Optional[RationalMap]  # word -> factored word; None when factored

    @property
    def factored_word(self) -> DoubleWord:
        return self.word if self.transport is None else self.transport.target_word


def make_context(w: DoubleWord, cdata: CartanData,
                 v: Optional[WeylElement] = None,
                 w1: Optional[WeylElement] = None) -> EvalContext:
    """Resolve the evaluation context of a word.

    Factored words take their earliest valid cut; other words are matched
    against a factored word of their class through generalized d-moves and
    the restricted transport.
    """
    found = wordmod.canonical_class(w, cdata, v, w1)
    if found is None:
        raise PreconditionFailed(f"{w.to_string()} does not lie in the requested D(v)")
    dec, trivial = found
    transport = None if trivial == w else mapmod.path_transform(
        w, trivial, cdata, wordmod.D_KINDS, restricted=True)
    return EvalContext(cdata, w, dec.v, dec.w1, dec.w2, dec.split, transport)


def _ev_parts(ctx: EvalContext, values: Assignment
              ) -> tuple[Assignment, Optional[int], Assignment, list[tuple], list[list]]:
    """The point on the factored word i1 i2 and its modulus p (None off
    F_p), then in residue form when p is set: the point of i1, the moves of
    ev(i1), and the rows of ev_red(i2) rep(w2 w0), whose projection is
    P = gauss_leq0(ev_red(i2) rep(w2 w0)).  The one-sided evaluations are
    R = ev(i1) P and L = ev(i1) theta(Q) with Q = gauss_leq0(theta(P) rep(w0)):
    L's inner right factor is P itself, because the split puts 1 in the
    glued slots of i2."""
    cdata = ctx.cdata
    rank = grp.require_type_a(cdata)
    if ctx.transport is not None:
        values = ctx.transport.apply(values)
    p = arith._fp_prime(values.values())
    (lw, lv), (rw, rv) = mapmod.split_point(ctx.factored_word, values, ctx.cut, rank)
    right = _ev_red(rw, cdata, _residues(rv, p), p)
    _times_representative(right, ctx.w2 * weyl.longest_element(cdata), p)
    lv = _residues(lv, p)
    return values, p, lv, _ev_moves(lw, rank, lv), right


def _ev_factored(ctx: EvalContext, values: Assignment
                 ) -> tuple[Assignment, GroupMatrix, GroupMatrix]:
    """The point on the factored word i1 i2, ev(i1) and the right projection
    P (see ``_ev_parts``)."""
    values, p, lv, moves, right = _ev_parts(ctx, values)
    return (values, grp._matrix(_moves_rows(moves, ctx.cdata.rank, lv, p), p),
            grp._matrix(grp._leq0(right, p), p))


def _theta_q(proj_inv: list[list], cdata: CartanData, p: Optional[int]) -> list[list]:
    """theta(Q) with Q = gauss_leq0(theta(P) rep(w0)), from P^{-1}.  P and Q
    are lower triangular, so both thetas come from substitution inverses."""
    inner = grp._theta_rows(proj_inv, p)
    _times_representative(inner, weyl.longest_element(cdata), p)
    _, lower_inv = grp._leq0_and_inverse(inner, p)
    return grp._theta_rows(lower_inv, p)


def ev_LR(ctx: EvalContext, values: Assignment, side: str) -> GroupMatrix:
    """One-sided evaluations; ``side`` is "L" or "R" (see ``_ev_parts``)."""
    _, p, lv, moves, right = _ev_parts(ctx, values)
    proj, proj_inv = grp._leq0_and_inverse(right, p)
    inner = _theta_q(proj_inv, ctx.cdata, p) if side == "L" else proj
    return grp._matrix(grp._product(_moves_rows(moves, ctx.cdata.rank, lv, p), inner, p), p)


def ev_hat(ctx: EvalContext, values: Assignment) -> GroupMatrix:
    """The twisted evaluation of the context's word at a point of its
    bracket torus, L * T^{-1} * rep(w0) * R^{-1} with T the frozen torus,
    evaluated as a conjugation by ev(i1):

        ev_hat = ev(i1) * M * ev(i1)^{-1},  M = theta(Q) * T^{-1} * rep(w0) * P^{-1}.

    M takes column moves and one dense product.  ev(i1) is never formed: its
    inverse is right-multiplied as the inverse column moves in reverse
    letter order, and it is left-multiplied as row moves."""
    values, p, _, moves, right = _ev_parts(ctx, values)
    cdata = ctx.cdata
    _, proj_inv = grp._leq0_and_inverse(right, p)
    rows = _theta_q(proj_inv, cdata, p)
    _strip_frozen_torus(rows, ctx.factored_word, cdata.rank, _residues(values, p), p)
    _times_representative(rows, weyl.longest_element(cdata), p)
    rows = grp._product(rows, proj_inv, p)
    for kind, i, x in reversed(moves):
        if kind == "H":
            grp.right_multiply(rows, "H", i, grp._reciprocal(x, p), p)
        else:
            grp.right_multiply(rows, kind + "_inv", i, None, p)
    return grp._matrix(grp.left_multiply(rows, moves, p), p)


# ---------------------------------------------------------------------------
# Conjugation by the longest representative, and the tau product
# ---------------------------------------------------------------------------

def star_transport(w: DoubleWord, cdata: CartanData,
                   values: Assignment) -> tuple[DoubleWord, Assignment]:
    """Coordinate transform matching conjugation by the longest
    representative: the starred word with inverted coordinates, negated at
    exactly one frozen end of every wire that occurs."""
    target = wordmod.star_word(w, cdata)
    star = weyl.star_involution(cdata)
    out: Assignment = {}
    for (wire, c) in wordmod.seed_indices(target, cdata.rank):
        n_t = target.count(wire)
        val = values[(star[wire], c)]
        inv = arith._reciprocal(val, None)
        if (c == 0) != (c == n_t):  # exactly one end of an occurring wire
            inv = -inv
        out[(wire, c)] = inv
    return target, out


def tau_product(w: DoubleWord, cdata: CartanData, values: Assignment) -> GroupMatrix:
    """Ordered product of negative root elements attached to a negative
    reduced word of the longest element, with parameters read through the
    partial zeta transports (one walk along the word's zeta map).

    Fed the starred transport of a split factor (whose boundary values are
    already negated inverses), the product with parameters equal to the
    negated transported values reconstructs the lower unipotent factor of
    the inverted twisted evaluation exactly; every negative root contributes
    one factor."""
    rank = grp.require_type_a(cdata)
    if not wordmod.is_negative_reduced(w, cdata):
        raise PreconditionFailed("tau product needs a negative reduced word")
    letters = [-x for x in w.letters]
    w0 = weyl.longest_element(cdata)
    if weyl.from_word(cdata, letters) != w0:
        raise PreconditionFailed("tau product needs a word of the longest element")
    like = next(iter(values.values()), Fraction(1))
    # stage k of the zeta map opens with a left tau flip, the program's k-th
    # tropical op; the k-th parameter is read just before it
    program = mapmod._zeta_map(cdata, w).program
    flips = [n for n, op in enumerate(program) if op[0] == "tropical"]
    params, start = {}, 0
    for k, (letter, flip) in enumerate(zip(letters, flips), 1):
        values = mapmod.run_program(program[start:flip], values)
        params[k] = -values[(letter, 0)]
        start = flip
    p, params = _residue_point(params)
    out = grp._identity_rows(rank + 1, like, p)
    for k, param in params.items():
        rep = grp._representative_rows(rank, letters[k:], like, p)
        # a signed permutation's inverse is its transpose
        for factor in (grp._transpose(rep), grp._x_neg_rows(rank, letters[k - 1], param, p), rep):
            out = grp._product(out, factor, p)
    return grp._matrix(out, p)


# ---------------------------------------------------------------------------
# Identity-check suite
# ---------------------------------------------------------------------------

@dataclass
class Report:
    name: str
    cartan_type: str
    words: list[str]
    prime: Optional[int]
    trials: int
    failures: list[dict] = field(default_factory=list)
    skipped: int = 0
    elapsed_ms: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    cartan_type: str = "A1"
    trials: int = 20
    prime: int = TrialConfig().prime
    rng_seed: int = 0


def _parse(entry):
    """A word, or a (source, target) pair of words, from its text."""
    if isinstance(entry, str):
        return DoubleWord.from_string(entry)
    return tuple(map(DoubleWord.from_string, entry))


# The desk instances of the checks: per type and per check, the words or
# (source, target) pairs it runs on, parsed once.  This is the one place that
# says which checks run on which type; a check a type leaves out is
# unsupported there.  The matrix layer itself works for any type-A rank; B2
# runs the three checks that never reach it (T_LEMMA, TORMUT, BRAID).
# PGL2_TABLE and EVHAT_POISSON compare against the golden bracket table of
# the 2x2 entries of ev_hat, so only A1 lists them.
_INSTANCES = {label: {name: tuple(map(_parse, entries)) for name, entries in checks.items()}
              for label, checks in {
    "A1": {
        "FG_MUTATION": [("1,-1", "-1,1"), ("-1,1", "1,-1")],
        "TWIST": ["1"],
        "TROP_GEOM": ["1", "-1,1"],
        "TAU_EQUIV": [("-1,1", "-1,-1"), ("1,1", "1,-1")],
        "SALTATION": ["-1,1"],
        "MU_HAT": [("-1,1", "1,1"), ("1,1", "1,-1")],
        "W0_CONJ": ["1", "-1,1", "1,1"],
        "TAU_PRODUCT": ["1,1"],
        "T_LEMMA": ["1,1"],
        "TORMUT": [("1", "1")],
        "DCKP_CLUSTER": ["1,1"],
        "BRAID": ["1,1"],
        "PGL2_TABLE": ["-1,1", "1,1"],
        "SITROP": ["-1", "-1,1"],
        "PHI_REL": ["1"],
        "EVHAT_POISSON": ["-1,1", "1,1", "1"],
    },
    "A2": {
        "FG_MUTATION": [("1,2,1", "2,1,2"), ("1,-2,1", "1,1,-2"), ("-1,2", "2,-1")],
        "TWIST": ["1", "1,2", "1,2,1"],
        "TROP_GEOM": ["1,2", "-1,2,1"],
        "TAU_EQUIV": [("-1,-2,-1,1,2,1", "-1,-2,1,-1,2,1"),
                      ("1,2,1,1,2,1", "1,2,1,1,2,-1")],
        "SALTATION": ["-1,1,2,1", "-2,2,1,2"],
        "MU_HAT": [("-1,-2,-1,1,2,1", "-1,-2,1,2,-1,1"), ("-1,1,2,1", "1,-1,2,1")],
        "W0_CONJ": ["1,2", "-1,2,1", "1,2,1"],
        "TAU_PRODUCT": ["1,2,1,1,2,1"],
        "T_LEMMA": ["1,2,1,1,2,1"],
        "TORMUT": [("1,2,1", "2,1,2")],
        "DCKP_CLUSTER": ["1,2,1,1,2,1"],
        "BRAID": ["1,2,1,1,2,1"],
        "SITROP": ["-1,2", "-2,1,2"],
        "PHI_REL": ["1"],
    },
    "B2": {
        "T_LEMMA": ["1,2,1,2,1,2,1,2"],
        # the A2 pair 1,2,1 / 2,1,2 has no D-move path in B2
        "TORMUT": [("1,2,1,2", "2,1,2,1")],
        "BRAID": ["1,2,1,2,1,2,1,2"],
    },
}.items()}


def _record_text(value, render: Callable = repr) -> str:
    """render(value) for a failure record.  A confirmed value can hold an
    integer longer than the interpreter converts to decimal by default
    (``sys.get_int_max_str_digits()``); it is rendered with the limit
    lifted for the call (the limit is per process, and checks run in one
    thread), and each such run of digits is written as its length and its
    sha256."""
    try:
        return render(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            text = render(value)
        finally:
            sys.set_int_max_str_digits(limit)
    return re.sub(rf"\d{{{limit + 1},}}", lambda m: (
        f"<{len(m[0])} digits, sha256 {hashlib.sha256(m[0].encode()).hexdigest()}>"), text)


class _CheckRunner:
    """Runs one check's pointwise identities through the trial engine and
    folds every trial into the report."""

    def __init__(self, check: IdentityCheck):
        self.check = check
        self.cdata = weyl.build_cartan(check.cartan_type)
        self.report = Report(check.name, self.cdata.type_label, [], check.prime,
                             check.trials)

    @property
    def instances(self) -> tuple:
        """The check's desk instances on its type (``_INSTANCES``)."""
        label = self.cdata.type_label
        found = _INSTANCES.get(label, {}).get(self.check.name)
        if found is None:
            raise UnsupportedForType(f"{self.check.name} has no desk instances for {label}")
        return found

    def run_pointwise(self, word: DoubleWord, lhs: Callable, rhs: Callable,
                      equal: Optional[Callable] = None) -> None:
        """Compare lhs and rhs at random points of the word's torus with
        ``equal``, by default projective equality of matrices."""
        self.run_sides(word, lambda vals: (lhs(vals), rhs(vals)), equal)

    def run_sides(self, word: DoubleWord, sides: Callable,
                  equal: Optional[Callable] = None) -> None:
        """``run_pointwise`` on the two sides one call sides(vals) returns."""
        check, report = self.check, self.report
        text = word.to_string()
        report.words.append(text)
        # module functions are looked up per call, not bound at import, so
        # that wrappers installed on them apply
        draw = lambda rng: mapmod.random_assignment(word, self.cdata, rng, check.prime)
        equal = equal or grp.projective_eq
        for outcome in _trials(draw, sides, equal, check.trials,
                               f"{check.rng_seed}:{check.name}:{text}"):
            report.skipped += outcome.redraws
            if outcome.status == "counterexample":
                report.failures.append({
                    "word": text,
                    "point": {f"{ix}": _record_text(v, str) for ix, v in outcome.point.items()},
                    "lhs": _record_text(outcome.lhs), "rhs": _record_text(outcome.rhs)})
            elif outcome.status == "exhausted":
                report.failures.append({
                    "word": text,
                    "detail": "retry budget exhausted (degenerate domain)"})


def _same_values(runner: _CheckRunner, word: DoubleWord, lhs: Callable, rhs: Callable) -> None:
    """lhs and rhs agree value for value at random points of the word's torus."""
    runner.run_pointwise(word, lhs, rhs, equal=_values_equal)


def _round_trip(runner: _CheckRunner, word: DoubleWord, m: RationalMap) -> None:
    """m followed by its inverse is the identity."""
    inv = m.inverse()
    _same_values(runner, word, lambda vals: inv.apply(m.apply(vals)), lambda vals: vals)


def _ev_hat_intertwines(runner: _CheckRunner, ctx_s: EvalContext, ctx_t: EvalContext,
                        m: RationalMap) -> None:
    """ev_hat on the source equals ev_hat on the target after m."""
    runner.run_pointwise(ctx_s.word, lambda vals: ev_hat(ctx_s, vals),
                         lambda vals: ev_hat(ctx_t, m.apply(vals)))


def check_identity(check: IdentityCheck) -> Report:
    if check.name not in _CHECK_IMPLS:
        raise ValueError(f"unknown identity {check.name!r}")
    TrialConfig(check.prime, check.trials, check.rng_seed)  # refuses a composite, trials < 1
    start = time.monotonic()
    runner = _CheckRunner(check)
    _CHECK_IMPLS[check.name](runner)
    runner.report.elapsed_ms = int((time.monotonic() - start) * 1000)
    return runner.report


def _fg_mutation(runner: _CheckRunner) -> None:
    cdata = runner.cdata
    for src, tgt in runner.instances:
        mu = mapmod.path_transform(src, tgt, cdata, wordmod.D_KINDS)
        runner.run_pointwise(
            src,
            lambda vals, src=src: ev(src, cdata, vals),
            lambda vals, tgt=tgt, mu=mu: ev(tgt, cdata, mu.apply(vals)))


def _descending(cdata: CartanData, w: DoubleWord) -> Callable:
    """vals -> the descending Gauss projection of ev(w) rep(v^{-1}), v the
    element the plain letters of w spell."""
    rank = grp.require_type_a(cdata)
    letters = weyl.from_word(cdata, w.positive_subword).inverse().reduced_word()

    def project(vals):
        like = vals[(1, 0)]
        p, vals = _residue_point(vals)
        rows = grp._product(_ev(w, cdata, vals, p),
                            grp._representative_rows(rank, letters, like, p), p)
        return grp._matrix(grp._leq0(rows, p), p)
    return project


def _ascending(cdata: CartanData, w: DoubleWord) -> Callable:
    """vals -> the ascending Gauss projection of rep(u)^T ev(w), u the
    element the barred letters of w spell."""
    rank = grp.require_type_a(cdata)
    letters = weyl.from_word(cdata, w.negative_subword).reduced_word()

    def project(vals):
        like = vals[(1, 0)]
        p, vals = _residue_point(vals)
        rows = grp._product(grp._transpose(grp._representative_rows(rank, letters, like, p)),
                            _ev(w, cdata, vals, p), p)
        return grp._matrix(grp._geq0(rows, p), p)
    return project


def _twist(runner: _CheckRunner) -> None:
    cdata = runner.cdata
    for w in runner.instances:
        zeta = mapmod.zeta_map(w, cdata)
        runner.run_pointwise(w, _descending(cdata, w),
                             lambda vals, z=zeta: ev(z.target_word, cdata, z.apply(vals)))
        # mirror statement for the negative word
        neg = wordmod.square_word(w, cdata)
        if wordmod.is_negative_reduced(neg, cdata):
            zneg = mapmod.zeta_map(neg, cdata)
            runner.run_pointwise(neg, _ascending(cdata, neg),
                                 lambda vals, z=zneg: ev(z.target_word, cdata, z.apply(vals)))


def _trop_geom(runner: _CheckRunner) -> None:
    """Each Gauss projection is unchanged by its bar flip: the descending one
    by the right flip, the ascending one by the left flip."""
    cdata = runner.cdata
    for w in runner.instances:
        for project, move in ((_descending, wordmod.Move("tau_right", len(w) - 1)),
                              (_ascending, wordmod.Move("tau_left", 0))):
            trop = mapmod.dmove_transform(w, move, cdata)
            after = project(cdata, trop.target_word)
            runner.run_pointwise(w, project(cdata, w),
                                 lambda vals, t=trop, after=after: after(t.apply(vals)))


def _tau_equiv(runner: _CheckRunner) -> None:
    cdata = runner.cdata
    for src, tgt in runner.instances:
        ctx_s = make_context(src, cdata)
        ctx_t = make_context(tgt, cdata, v=ctx_s.v, w1=ctx_s.w1)
        mu = mapmod.path_transform(src, tgt, cdata,
                                   ("positive_d", "negative_d", "mixed2", "tau_right"),
                                   restricted=True)
        _ev_hat_intertwines(runner, ctx_s, ctx_t, mu)


def _saltation(runner: _CheckRunner) -> None:
    cdata = runner.cdata
    for w in runner.instances:
        xi = mapmod.xi_saltation(w, cdata)
        _ev_hat_intertwines(runner, make_context(w, cdata),
                            make_context(xi.target_word, cdata), xi)


def _mu_hat_check(runner: _CheckRunner) -> None:
    cdata = runner.cdata
    for src, tgt in runner.instances:
        ctx_s = make_context(src, cdata)
        mu = mapmod.mu_hat(src, tgt, cdata, ctx_s.v)
        _ev_hat_intertwines(runner, ctx_s, make_context(tgt, cdata, v=ctx_s.v), mu)


def _w0_conj(runner: _CheckRunner) -> None:
    cdata = runner.cdata
    w0 = weyl.longest_element(cdata)

    def conjugated(vals, w):
        w0rep = grp.weyl_representative(w0, vals[(1, 0)])
        return w0rep * ev(w, cdata, vals) * w0rep.transpose()

    def starred(vals, w):
        target, moved = star_transport(w, cdata, vals)
        return ev(target, cdata, moved)

    for w in runner.instances:
        runner.run_pointwise(w, lambda vals, w=w: conjugated(vals, w),
                             lambda vals, w=w: starred(vals, w))


def _tau_product_check(runner: _CheckRunner) -> None:
    cdata = runner.cdata
    for w in runner.instances:
        ctx = make_context(w, cdata)

        def rhs(vals, w=w):
            (lw, lv), _ = mapmod.split_point(w, vals, len(w) // 2, cdata.rank)
            sw, sv = star_transport(lw, cdata, lv)
            return tau_product(sw, cdata, sv)

        _same_values(runner, w, lambda vals, ctx=ctx: grp.gauss_g0(ev_hat(ctx, vals)), rhs)


def _t_lemma(runner: _CheckRunner) -> None:
    """The Artin generators through section transports: the composite does not
    depend on the admissible base word, and each generator is invertible.

    Both facts are forced by the transport identities (any two base-word
    realizations are conjugate by a transport between the bases, which the
    twisted evaluations intertwine)."""
    cdata = runner.cdata
    word, = runner.instances
    j = abs(word.letters[0])
    single = mapmod.artin_T(word, j, cdata)
    _round_trip(runner, word, single)
    if cdata.rank >= 2:
        w0 = weyl.longest_element(cdata)
        alt_rest = next(rw for rw in weyl.reduced_words(w0) if rw != w0.reduced_word())
        alt_base = DoubleWord(mapmod._artin_base_word(cdata, j).letters[:w0.length()]
                              + alt_rest)
        other = mapmod.artin_T(word, j, cdata, base=alt_base)
        _same_values(runner, word, single.apply, other.apply)


def _tormut(runner: _CheckRunner) -> None:
    cdata = runner.cdata
    for src, tgt in runner.instances:
        zs = mapmod.zeta_map(src, cdata)
        zt = mapmod.zeta_map(tgt, cdata)
        mu = mapmod.path_transform(src, tgt, cdata, wordmod.D_KINDS)
        mu_sq = mapmod.path_transform(zs.target_word, zt.target_word, cdata,
                                      wordmod.D_KINDS)
        _same_values(runner, src, lambda vals, z=zs, m=mu_sq: m.apply(z.apply(vals)),
                     lambda vals, z=zt, m=mu: z.apply(m.apply(vals)))


def _dckp_cluster(runner: _CheckRunner) -> None:
    cdata = runner.cdata
    for w in runner.instances:
        j = abs(w.letters[0])
        ctx = make_context(w, cdata)
        ctx_flip = make_context(wordmod.l_move(w), cdata)
        trop = mapmod.dmove_transform(w, wordmod.Move("tau_left", 0), cdata)
        tmap = mapmod.artin_T(w, j, cdata)
        # factorization form, then transport form
        for c, t in ((ctx_flip, trop), (ctx, tmap)):
            runner.run_pointwise(
                w,
                lambda vals, ctx=ctx, j=j: grp.dckp_T(ev_hat(ctx, vals), j),
                lambda vals, c=c, t=t: ev_hat(c, t.apply(vals)))


def _braid(runner: _CheckRunner) -> None:
    cdata = runner.cdata
    w, = runner.instances
    if cdata.rank == 1:
        # one generator: braid relations are vacuous; check it is invertible
        _round_trip(runner, w, mapmod.artin_T(w, 1, cdata))
        return
    m = cdata.m_order(1, 2)
    lhs = mapmod.artin_T_word(w, [1 if t % 2 == 0 else 2 for t in range(m)], cdata)
    rhs = mapmod.artin_T_word(w, [2 if t % 2 == 0 else 1 for t in range(m)], cdata)
    _same_values(runner, w, lhs.apply, rhs.apply)


# Bounded: the two bracket checks run on the three A1 words of ``_INSTANCES``.
@functools.lru_cache(maxsize=16)
def _bracket_seed(cdata: CartanData, w: DoubleWord) -> Seed:
    """The bracket seed of a word, built once with its form plan."""
    return bracket_seed(seed_for_word(w, cdata))


@functools.lru_cache(maxsize=1)
def _bracket_table() -> tuple[list, list]:
    """The golden bracket table, read once: the row-major positions of each
    pair of entries among the four, and the expected values."""
    from .golden import bracket_table_entries
    table = bracket_table_entries()
    return ([(2 * r1 + c1, 2 * r2 + c2) for (r1, c1), (r2, c2), _ in table],
            [expect for _, _, expect in table])


def _ev_hat_brackets(runner: _CheckRunner) -> None:
    """The six dual-structure brackets of the 2x2 entries of ev_hat, pulled
    back from the bracket seed of each rank-one word, against the golden
    table (read after the instances, which refuse a type without them); one
    jet ev_hat per draw gives the brackets and the entries the table reads."""
    cdata, instances = runner.cdata, runner.instances
    positions, expects = _bracket_table()
    for w in instances:
        ctx = make_context(w, cdata)
        eta = _bracket_seed(cdata, w)

        def sides(vals, ctx=ctx, eta=eta):
            entries = lambda jets: [x for row in ev_hat(ctx, jets).rows for x in row]
            values, br = mapmod._pullback(eta, entries, vals)
            return (tuple(br[s][t] for s, t in positions),
                    tuple(expect((values[:2], values[2:])) for expect in expects))

        runner.run_sides(w, sides, _values_equal)


def _sitrop(runner: _CheckRunner) -> None:
    cdata = runner.cdata
    rank = cdata.rank
    for w in runner.instances:
        j = abs(w.letters[0])
        trop = mapmod.dmove_transform(w, wordmod.Move("tau_left", 0), cdata)

        def lhs(vals, w=w, j=j):
            like = next(iter(vals.values()))
            return grp.s_hat(rank, j, like).transpose() * ev(w, cdata, vals)

        def rhs(vals, w=w, j=j, trop=trop):
            moved = trop.apply(vals)
            return (grp.x_neg(rank, j, -vals[(j, 0)])
                    * ev(trop.target_word, cdata, moved))

        runner.run_pointwise(w, lhs, rhs)


def _phi_rel(runner: _CheckRunner) -> None:
    rank = runner.cdata.rank
    w, = runner.instances

    def lhs(vals):
        x = vals[(1, 0)]
        return tuple(m for i in range(1, rank + 1) for m in (
            grp.h_gen(rank, i, x) * grp.e_gen(rank, i, x) * grp.h_gen(rank, i, 1 / x),
            grp.h_gen(rank, i, 1 / x) * grp.f_gen(rank, i, x) * grp.h_gen(rank, i, x)))

    def rhs(vals):
        x = vals[(1, 0)]
        return tuple(m for i in range(1, rank + 1)
                     for m in (grp.x_pos(rank, i, x), grp.x_neg(rank, i, x)))

    _same_values(runner, w, lhs, rhs)

    # the reflection identity on the rank-one slice
    def lhs2(vals):
        x = vals[(1, 0)]
        return grp.s_hat(rank, 1, x).transpose() * grp.x_neg(rank, 1, x)

    def rhs2(vals):
        x = vals[(1, 0)]
        h = [list(r) for r in grp.identity(rank + 1, x).rows]
        h[0][0] = x
        h[1][1] = 1 / x
        return grp.x_neg(rank, 1, -1 / x) * GroupMatrix(h) * grp.x_pos(rank, 1, 1 / x)

    runner.run_pointwise(w, lhs2, rhs2)


_CHECK_IMPLS = {
    "FG_MUTATION": _fg_mutation,
    "TWIST": _twist,
    "TROP_GEOM": _trop_geom,
    "TAU_EQUIV": _tau_equiv,
    "SALTATION": _saltation,
    "MU_HAT": _mu_hat_check,
    "W0_CONJ": _w0_conj,
    "TAU_PRODUCT": _tau_product_check,
    "T_LEMMA": _t_lemma,
    "TORMUT": _tormut,
    "DCKP_CLUSTER": _dckp_cluster,
    "BRAID": _braid,
    "PGL2_TABLE": _ev_hat_brackets,
    "SITROP": _sitrop,
    "PHI_REL": _phi_rel,
    "EVHAT_POISSON": _ev_hat_brackets,
}

CHECK_NAMES = tuple(_CHECK_IMPLS)
