"""Birational maps between seed tori, represented as step pipelines.

A pipeline step knows the word it starts from and how to push a coordinate
assignment forward; composites are built word-combinatorially once and then
evaluated at many points (rationals, prime-field scalars or jets alike).  A
move step reads its seeds once into a plan of integer exponents, so
evaluating a point never builds a seed.  The saltation core is lowered the
same way, once per word: its block's zeta map becomes one mutation plan run
on the whole point, with no split, glue or recount.

Each distinct step is then lowered once more, to positions: a coordinate
is its place in ``seed_indices`` of the word the step starts from, so a
point is a list of registers.  A mutation's index and exponents become
ints, a relabeling one gather from the source layout to the target one,
and a saltation core its frozen copies, zeta ops, layout gather and
checked division or solve, all in positions.  A map's program is the
concatenation of its steps' cached ops, kept on the map, so nothing is
lowered per map or looked up per point.  One interpreter runs it, on the
scalars' own arithmetic, the reference, for jets and mixed points, or on
pairs (num, den) held as two int lists: over Q when every coordinate is
exactly an int or a ``Fraction``, ints in lowest terms with each product
the cross-gcd one of ``Fraction``; over F_p when every coordinate is an
``Fp`` of one prime, residues, and one modular inversion ends the run for
all coordinates (Montgomery's trick).  On pairs no op inverts: x_k goes to
den/num, 1 + x_k is (num + den)/den.  A run reads the point in the source
word's layout and keys the image by the target word's, except that an
inverse saltation core writes the right-frozen tops first and the steps
after it keep that order until a relabeling or a forward core lays the
slots out anew.

Supported steps:

- a word move (braid/commutation d-move, mixed 2-move, bar flip) carrying its
  induced mutation sequence -- regular mutations for braid and same-wire
  mixed moves, a tropical mutation for a bar flip -- and its index
  relabeling.  In restricted mode the right-frozen coordinates are held
  fixed and right bar flips act as the identity, which is the transformation
  attached to the bracket tori;
- the saltation core attached to a dual move, and its exact inverse.

Mutation sequences induced by d-moves, with (i, j) the first two window
letters and counters shifted by the occurrences before the window:

- length 2 (commuting letters, or a mixed 2-move on distinct letters): the
  identity;
- a mixed 2-move on one wire, or a 3-move: one mutation at the slot between
  the swapped occurrences (for the 3-move the interior slot then crosses
  wires);
- a 4-move: mutations at (i,1), (j,1), (i,1);
- a 6-move: the ten-term sequence, applied rightmost factor first.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import arith
from . import cartan as weyl
from . import seeds as seedmod
from . import words as wordmod
from .arith import Fp, Jet, TrialConfig, Verdict, jet_point, spow, _zero_like
from .cartan import CartanData, WeylElement
from .errors import (FrozenDirection, FrozenStructureViolation, InapplicableMove,
                     InvariantViolation, NoPath, PreconditionFailed, SingularPoint)
from .seeds import Seed, bracket_seed, mutate_seed, seed_for_word
from .words import DoubleWord, Move, SeedIndex

Assignment = dict[SeedIndex, object]


# ---------------------------------------------------------------------------
# Point-level elementary transformations
# ---------------------------------------------------------------------------

# A lowered mutation: (kind, k, exponents), kind "regular" or "tropical",
# exponents a tuple of (index, e) pairs with e a nonzero integer.  Both kinds
# invert x_k and keep the coordinates not listed; a regular mutation sends a
# listed x_i to x_i x_k^{[e]_+} (1+x_k)^{-e}, a tropical one to x_i x_k^e.
Mutation = tuple[str, SeedIndex, tuple[tuple[SeedIndex, int], ...]]

# A program op (see ``RationalMap.program``), in positions of the layout
# ``seed_indices`` gives the word its step starts from: a Mutation with k and
# each exponent's index a position, ("relabel", gather) with gather[t] the
# source position that target position t reads, or ("core", core) and
# ("core_inverse", core) for a saltation core step and its inverse, core a
# ``_CoreOps``.
Op = tuple


def _regular_mutation(seed: Seed, k: SeedIndex,
                      frozen_fixed: frozenset = frozenset()) -> Mutation:
    """Lower a cluster mutation at k: the exponents are eps_ik, read off the
    seed, except on ``frozen_fixed``."""
    if k in seed.frozen:
        raise FrozenDirection(f"{k} is frozen")
    exponents = []
    for ix in seed.indices:
        e = seed.eps(ix, k)
        if e == 0 or ix == k or ix in frozen_fixed:
            continue
        if e.denominator != 1:
            raise InvariantViolation(f"exchange exponent {e} at {ix}, {k} is not integral")
        exponents.append((ix, int(e)))
    return ("regular", k, tuple(exponents))


def _tropical_mutation(seed: Seed, k: SeedIndex, positive_letter: bool) -> Mutation:
    """Lower a tropical mutation at the frozen k: its cover mates m pick up
    x_k^{-e} when the flip side matches the letter sign and x_k^{+e}
    otherwise, with e = b_km d_k / d_m, the orientation and exponent that
    make the map Poisson between the seed and the flipped word's seed (the
    two chiralities are mutually inverse).  A fractional e raises
    InvariantViolation."""
    if k not in seed.frozen:
        raise FrozenStructureViolation(f"{k} is not frozen")
    sign = -1 if seedmod.flip_orientation(seed, k, positive_letter) else 1
    mates = seed.cover_sets_of(k)
    exponents = []
    for ix in seed.indices:
        if ix in mates and ix != k:
            e = Fraction(sign * seed.b_entry(k, ix) * seed.d(k), seed.d(ix))
            if e.denominator != 1:
                raise InvariantViolation(f"tropical exponent {e} at {k}, {ix} is not integral")
            if e:
                exponents.append((ix, int(e)))
    return ("tropical", k, tuple(exponents))


def _at(mutation: Mutation, place: Callable[[SeedIndex], int]) -> Mutation:
    """A mutation with its indices read as positions."""
    kind, k, exponents = mutation
    return (kind, place(k), tuple((place(ix), e) for ix, e in exponents))


def _place(w: DoubleWord, rank: int) -> Callable[[SeedIndex], int]:
    """The position of a slot in w's ``seed_indices`` layout: slot
    (wire, c) sits c places after the first slot of its wire."""
    counts = w.counts()
    first, n = {}, 0
    for wire in range(1, rank + 1):
        first[wire] = n
        n += counts.get(wire, 0) + 1
    return lambda ix: first[ix[0]] + ix[1]


# Bounded like ``_move_plan``: a map reads its two words' layouts here, and
# a move step's relabeling its source word's.
@functools.lru_cache(maxsize=4096)
def _layout(w: DoubleWord, rank: int) -> tuple[SeedIndex, ...]:
    """w's ``seed_indices``, kept per word."""
    return tuple(wordmod.seed_indices(w, rank))


class _Gather(tuple):
    """Register positions read in order: entry t of a gathered list is
    entry self[t] of the list read.  ``take`` reads them in one call; every
    gather reads at least two positions, so it returns a tuple."""

    def __new__(cls, order: Iterable[int]):
        self = super().__new__(cls, order)
        self.take = operator.itemgetter(*self)
        return self


class _Scalars:
    """The scalars' own arithmetic, the reference that ``Step.apply`` runs;
    maps run on it at jets and mixed points.  The registers are one list of
    values; the scalars are immutable, so an op replaces values in place."""

    @staticmethod
    def mutate(values: list, mutation: Mutation) -> None:
        """x_k inverts, a positive exponent e multiplies by
        (x_k / (1 + x_k))^e, and a negative tropical exponent takes its
        power of the 1/x_k at hand."""
        kind, k, exponents = mutation
        xk = values[k]
        if not xk:
            raise SingularPoint(f"zero coordinate at {kind} mutation index")
        values[k] = inv = 1 / xk
        if kind == "tropical":
            for ix, e in exponents:
                values[ix] = values[ix] * (spow(xk, e) if e > 0 else spow(inv, -e))
            return
        if exponents:
            one_plus = 1 + xk
            if not one_plus:
                raise SingularPoint("1 + x_k vanishes with a nonzero exponent")
        ratio = None
        for ix, e in exponents:
            if e < 0:
                values[ix] = values[ix] * spow(one_plus, -e)
                continue
            if ratio is None:
                ratio = xk / one_plus
            values[ix] = values[ix] * spow(ratio, e)

    gather = staticmethod(lambda values, order: [*order.take(values)])
    join = operator.add
    nonzero = operator.getitem  # a scalar's own truth

    @staticmethod
    def mul(values: list, i: int, j: int) -> None:
        values[i] = values[i] * values[j]

    @staticmethod
    def div(values: list, i: int, j: int) -> None:
        values[i] = values[i] / values[j]

    @staticmethod
    def one(values: list, i: int, like: int) -> None:
        values[i] = spow(values[like], 0)

    def run(self, program: Sequence[Op], values: Assignment,
            source: Sequence[SeedIndex], target: Sequence[SeedIndex]) -> Assignment:
        """The program at a point read in the ``source`` layout, its image
        keyed by ``target``."""
        return dict(zip(target, _interpret(self, program, [values[ix] for ix in source])))


_SCALARS = _Scalars()


def _apply_mutation(values: Assignment, mutation: Mutation) -> Assignment:
    """A mutation on named indices at a point, in the reference arithmetic,
    laid out in the point's own key order."""
    layout = list(values)
    place = {ix: n for n, ix in enumerate(layout)}.__getitem__
    return _SCALARS.run((_at(mutation, place),), values, layout, layout)


def mutate_point(seed: Seed, values: Assignment, k: SeedIndex,
                 frozen_fixed: frozenset = frozenset()) -> Assignment:
    """Cluster mutation on coordinates: x_k inverts, x_i picks up
    x_k^{[eps_ik]_+} (1+x_k)^{-eps_ik}.  Indices in ``frozen_fixed`` keep
    their values (the bracket-torus restriction)."""
    return _apply_mutation(values, _regular_mutation(seed, k, frozen_fixed))


def tropical_mutate_point(seed: Seed, values: Assignment, k: SeedIndex,
                          positive_letter: bool) -> Assignment:
    """Tropical mutation: x_k inverts and its cover mates pick up monomial
    factors; subtraction-free, defined on the whole torus."""
    return _apply_mutation(values, _tropical_mutation(seed, k, positive_letter))


def amalgamate_points(w1: DoubleWord, v1: Assignment,
                      w2: DoubleWord, v2: Assignment) -> tuple[DoubleWord, Assignment]:
    """Glue two torus points: shifted slots from the right factor, glued
    slots multiplying."""
    out: Assignment = {}
    for (wire, k), val in v1.items():
        out[(wire, k)] = val
    for (wire, k), val in v2.items():
        n1 = w1.count(wire)
        key = (wire, k + n1)
        if k == 0:
            out[key] = out.get(key, 1) * val
        else:
            out[key] = val
    return w1.concat(w2), out


def split_point(w: DoubleWord, values: Assignment, cut: int,
                rank: int) -> tuple[tuple[DoubleWord, Assignment], tuple[DoubleWord, Assignment]]:
    """Canonical section of amalgamation at a cut position: glued values stay
    with the left factor, the right factor gets 1 there.  Any other section
    differs by a torus factor that the downstream maps do not see."""
    left = DoubleWord(w.letters[:cut])
    right = DoubleWord(w.letters[cut:])
    lv: Assignment = {}
    rv: Assignment = {}
    one = None
    for val in values.values():
        one = spow(val, 0)
        break
    for wire in range(1, rank + 1):
        nl, nr = left.count(wire), right.count(wire)
        for k in range(nl + 1):
            lv[(wire, k)] = values[(wire, k)]
        rv[(wire, 0)] = one
        for k in range(1, nr + 1):
            rv[(wire, k)] = values[(wire, nl + k)]
    return (left, lv), (right, rv)


# ---------------------------------------------------------------------------
# Pipeline steps
# ---------------------------------------------------------------------------

_D_SEQUENCES = {
    2: (),
    3: ((0, 1),),                     # (letter-slot role, occurrence within window)
    4: ((0, 1), (1, 1), (0, 1)),
    6: ((1, 2), (0, 1), (1, 1), (1, 2), (0, 2), (1, 2), (0, 1), (0, 2), (1, 1), (1, 2)),
}


def _move_mutations(w: DoubleWord, move: Move, cdata: CartanData) -> list[tuple[SeedIndex, str]]:
    """Mutation sequence (index, 'regular'|'tropical') a move induces."""
    if move.kind == "mixed2":
        a, b = w[move.pos], w[move.pos + 1]
        if abs(a) != abs(b):
            return []
        wire = abs(a)
        before = sum(1 for x in w.letters[:move.pos] if abs(x) == wire)
        return [((wire, before + 1), "regular")]
    if move.kind in ("positive_d", "negative_d"):
        if move.order == 2:
            return []
        i, j = abs(w[move.pos]), abs(w[move.pos + 1])
        ci = sum(1 for x in w.letters[:move.pos] if abs(x) == i)
        cj = sum(1 for x in w.letters[:move.pos] if abs(x) == j)
        wires, offs = (i, j), (ci, cj)
        seq = _D_SEQUENCES[move.order]
        # compositions read right-to-left: the last listed factor acts first
        return [((wires[r], offs[r] + k), "regular") for (r, k) in reversed(seq)]
    if move.kind == "tau_left":
        wire = abs(w[0])
        return [((wire, 0), "tropical")]
    if move.kind == "tau_right":
        wire = abs(w[-1])
        return [((wire, w.count(wire)), "tropical")]
    raise InapplicableMove(f"no mutation table for {move.kind}")


# Bounded: the A2 artin-T maps of all 80 shuffle words and their inverses
# lower 576 distinct (cdata, word, move, restricted) keys.
@functools.lru_cache(maxsize=4096)
def _move_plan(cdata: CartanData, w: DoubleWord, move: Move, restricted: bool
               ) -> tuple[tuple[Mutation, ...], Optional[dict[SeedIndex, SeedIndex]]]:
    """A move step lowered to its mutations, each with the exponents its seed
    gives it, and its relabeling (None when empty).  The seeds are only
    walked here, once per distinct step, never per point.  In restricted
    mode the right-frozen coordinates are held fixed and a right bar flip is
    the identity between the bracket tori."""
    seed = seed_for_word(w, cdata)
    fixed = seed.cover_right if restricted else frozenset()
    if restricted and move.kind == "tau_right":
        induced = []
    else:
        induced = _move_mutations(w, move, cdata)
    # only tau moves induce tropical mutations, each flipping a boundary letter
    positive_letter = (w.letters[0] if move.kind == "tau_left" else w.letters[-1]) > 0
    mutations = []
    for n, (ix, kind) in enumerate(induced):
        last = n == len(induced) - 1
        if kind == "regular":
            mutations.append(_regular_mutation(seed, ix, fixed))
            if not last:
                seed = mutate_seed(seed, ix)
        else:
            # a tau move induces this mutation and no other, and no other move
            # induces a tropical one, so the seed is not walked past it
            mutations.append(_tropical_mutation(seed, ix, positive_letter))
    sigma = wordmod.index_map(w, move, cdata)
    return tuple(mutations), (sigma or None)


# Bounded like ``_move_plan``, whose entries it lowers.
@functools.lru_cache(maxsize=4096)
def _move_ops(cdata: CartanData, w: DoubleWord, move: Move, restricted: bool
              ) -> tuple[Op, ...]:
    """``_move_plan`` in positions of w's layout: its mutations, then its
    relabeling as one gather into the target word's layout, whose slots are
    the relabeled ones in ``seed_indices`` order."""
    mutations, sigma = _move_plan(cdata, w, move, restricted)
    if not mutations and sigma is None:
        return ()
    place = _place(w, cdata.rank)
    ops = tuple(_at(mutation, place) for mutation in mutations)
    if sigma is None:
        return ops
    moved = [sigma.get(ix, ix) for ix in _layout(w, cdata.rank)]
    if len(set(moved)) != len(moved):
        raise InvariantViolation(f"{move.describe()} at {w.to_string()} relabels "
                                 "two slots onto one")
    # target position t reads the source slot relabeled onto the t-th
    # smallest target slot
    return ops + (("relabel", _Gather(sorted(range(len(moved)), key=moved.__getitem__))),)


class Step:
    word_before: DoubleWord
    word_after: DoubleWord

    def ops(self) -> tuple[Op, ...]:
        """The step lowered to program ops (see ``RationalMap.program``)."""
        raise NotImplementedError

    def apply(self, values: Assignment) -> Assignment:
        """The step's ops at a point, in the reference arithmetic.  Each
        step class keeps an ``apply`` of its own that calls this one, so
        that a wrapper can be installed per class."""
        rank = self.cdata.rank
        ops = self.ops()
        out = _SCALARS.run(ops, values, _layout(self.word_before, rank),
                           _layout(self.word_after, rank))
        core = _image_core(ops)
        if core is not None:
            return {ix: out[ix] for ix in core.written}
        if any(op[0] == "relabel" or op[0] == "core" for op in ops):
            return out
        # a step that lays no slot out keeps its point's key order
        return {ix: out[ix] for ix in values if ix in out}

    def inverse(self) -> "Step":
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class MoveStep(Step):
    """A single word move with its induced mutations and relabeling; its target
    word is derived on first read and kept in a field, not a ``__dict__``."""

    cdata: CartanData
    word_before: DoubleWord
    move: Move
    restricted: bool
    _after: Optional[DoubleWord] = field(default=None, init=False, repr=False, compare=False)

    @property
    def word_after(self) -> DoubleWord:
        if self._after is None:
            after = wordmod.apply_move(self.word_before, self.move, self.cdata)
            object.__setattr__(self, "_after", after)
        return self._after

    def ops(self) -> tuple[Op, ...]:
        return _move_ops(self.cdata, self.word_before, self.move, self.restricted)

    def apply(self, values: Assignment) -> Assignment:
        return Step.apply(self, values)

    def inverse(self) -> "MoveStep":
        """The same move at the target word: every move a MoveStep carries
        is an involution on words.  A dual move's map is the saltation."""
        if self.move.kind == "dual":
            raise InapplicableMove("cannot invert dual as a MoveStep")
        return MoveStep(self.cdata, self.word_after, self.move, self.restricted)

    def describe(self) -> dict:
        return {"step": "move", "move": self.move.describe(),
                "source": self.word_before.to_string(),
                "target": self.word_after.to_string(),
                "restricted": self.restricted}


class _CorePlan(NamedTuple):
    """The saltation core lowered once per source word j' i+ kbar: the
    block's zeta map and its inverse as mutation plans on the whole point,
    block slot (wire, c) shifted to (wire, prefix count + c), the slots the
    two steps read, and the power (+-1) of the moved wire's block top in the
    starred wire's block top after the zeta plan."""

    target: DoubleWord
    zeta: tuple[Mutation, ...]
    zeta_inverse: tuple[Mutation, ...]
    # target slots in output order, each with the source slot whose frozen
    # value it copies (None: it reads the zeta image)
    layout: tuple[tuple[SeedIndex, Optional[SeedIndex]], ...]
    frozen: tuple[tuple[SeedIndex, SeedIndex], ...]  # (source top, target top)
    body: tuple[SeedIndex, ...]  # the other source slots, in output order
    boundary: SeedIndex  # the starred wire's block top
    unknown: SeedIndex   # the moved wire's block top
    k_top: SeedIndex     # the moved wire's source top
    exponent: int        # power of unknown in boundary after zeta


@functools.lru_cache(maxsize=256)
def _core_plan(cdata: CartanData, w: DoubleWord) -> _CorePlan:
    """Lower the saltation core at its source word j' i+ kbar, whose target is
    j' square(i+) k*.

    Running the block's zeta plan on the whole point equals splitting off
    the block, running its zeta map and gluing back (amalgamation commutes
    with mutation at unglued slots): no zeta mutation sits at a block bottom,
    which only picks up factors.  The inverse core also relies on tops being
    read only by tops: tropical mutations sit at tops and move only tops,
    regular ones sit off them.  So the zeta plan sends each top to a
    monomial in the tops times a factor free of them, and the power of the
    moved wire's block top in the starred wire's is an integer pass over the
    plan; the inverse core needs it to be +-1.  Each fact is checked here.
    The inverse zeta plan is the zeta plan undone, not a second lowering."""
    L = wordmod.dual_block_length(cdata)
    block = DoubleWord(w.letters[-L - 1:-1])
    kbar = w.letters[-1]
    if kbar > 0 or not wordmod.is_positive_reduced(block, cdata):
        raise InapplicableMove("saltation core needs shape j' i+ kbar")
    prefix = DoubleWord(w.letters[:-L - 1])
    k = -kbar
    ks = weyl.star(cdata, k)
    target = prefix.concat(wordmod.square_word(block, cdata)).concat(DoubleWord((ks,)))
    wires = range(1, cdata.rank + 1)
    base = {wire: prefix.count(wire) for wire in wires}
    top = {wire: block.count(wire) for wire in wires}  # block top counters

    def at_top(ix: SeedIndex) -> bool:
        return ix[1] == top[ix[0]]

    def shift(ix: SeedIndex) -> SeedIndex:
        return (ix[0], base[ix[0]] + ix[1])

    zeta = []
    for step in _zeta_map(cdata, block).steps:
        mutations, sigma = _move_plan(cdata, step.word_before, step.move, step.restricted)
        if sigma is not None:
            raise InvariantViolation(f"zeta step {step.move.describe()} relabels slots")
        for kind, ix, exponents in mutations:
            moved = [jx for jx, _ in exponents]
            if ix[1] == 0 or (at_top(ix) if kind == "regular"
                              else not all(map(at_top, [ix, *moved]))):
                raise InvariantViolation(
                    f"zeta {kind} mutation at {ix} of {block.to_string()} "
                    "breaks the bottom and top structure")
            zeta.append((kind, shift(ix), tuple((shift(jx), e) for jx, e in exponents)))
    # the zeta plan undone op by op, last op first: a regular mutation by
    # itself with negated exponents, a tropical one by itself.  It touches
    # the slots the zeta plan does, so the checks above cover it too
    zeta_inverse = tuple((kind, ix, exponents if kind == "tropical"
                          else tuple((jx, -e) for jx, e in exponents))
                         for kind, ix, exponents in reversed(zeta))
    mid = {wire: base[wire] + top[wire] for wire in wires}
    layout = []
    for wire in wires:
        n_t = mid[wire] + (wire == ks)
        layout += [((wire, c), None) for c in range(n_t)]
        # right frozen slots copy wire-preservingly: the moved wire's block
        # top disappears, its source top descends
        layout.append(((wire, n_t), (wire, mid[wire] + (wire == k))))
    frozen = tuple((s, t) for t, s in layout if s is not None)
    sources = {s for s, _ in frozen}
    body = tuple((wire, c) for wire in wires for c in range(mid[wire] + 1)
                 if (wire, c) not in sources)
    boundary, unknown = (ks, mid[ks]), (k, mid[k])
    power = {unknown: 1}
    for kind, ix, exponents in zeta:
        old = power.get(ix, 0)
        power[ix] = -old
        if kind == "tropical":
            for jx, e in exponents:
                power[jx] = power.get(jx, 0) + e * old
    if abs(power.get(boundary, 0)) != 1:
        raise InvariantViolation("starred block-top exponent must be +-1")
    return _CorePlan(target, tuple(zeta), zeta_inverse, tuple(layout), frozen, body,
                     boundary, unknown, (k, mid[k] + 1), power[boundary])


class _CoreOps(NamedTuple):
    """A ``_CorePlan`` in positions.  S is the layout of the source word
    j' i+ kbar and T that of its target; a forward core reads S and writes
    T, an inverse core the other way round.  Both work on S followed by
    spare slots: a copy of each right-frozen source top, then (inverse
    only) the glued value."""

    zeta: tuple[Op, ...]          # on S
    zeta_inverse: tuple[Op, ...]  # on S
    # forward: S and the copies, read before the zeta plan; then each T
    # slot from that list
    keep: _Gather
    layout: _Gather
    # inverse: z, each S slot from T (a frozen top from its copy, the
    # starred block top from its own slot), then each copy and the glued
    # slot; x, z with the tops read back from their copies; and the image,
    # S read from z joined with x: the tops from their copies, the unknown
    # from where the solve on x left it
    lift: _Gather
    restore: _Gather
    place: _Gather
    boundary: int    # the starred wire's block top, in S
    boundary_t: int  # the same slot in T
    k_top: int       # the moved wire's source top, in S
    k_top_t: int     # the T slot holding its frozen value
    unknown: int     # the moved wire's block top, in S
    glued: int       # the glued slot, after the copies
    exponent: int    # power of unknown in boundary after zeta
    # the inverse image's keys in the order the inverse core writes them,
    # the right-frozen tops it reads back, then the other source slots; and
    # their positions in S
    written: tuple[SeedIndex, ...]
    write: _Gather


# Bounded like ``_core_plan``, whose entries it lowers.
@functools.lru_cache(maxsize=256)
def _core_ops(cdata: CartanData, w: DoubleWord) -> _CoreOps:
    """``_core_plan`` at w in positions of the source and target layouts."""
    plan = _core_plan(cdata, w)
    source = wordmod.seed_indices(w, cdata.rank)
    if [ix for ix, _ in plan.layout] != wordmod.seed_indices(plan.target, cdata.rank):
        raise InvariantViolation(f"saltation core layout at {w.to_string()} "
                                 "is not its target word's")
    s, t = _place(w, cdata.rank), _place(plan.target, cdata.rank)
    n, glued = len(source), len(source) + len(plan.frozen)
    copied_to = dict(plan.frozen)
    copy = {s(top): n + j for j, (top, _) in enumerate(plan.frozen)}
    read_back = [copy.get(i, i) for i in range(n)]
    lift = [t(copied_to.get(ix, ix)) for ix in source]
    lift[s(plan.boundary)] = t(plan.boundary)
    place = read_back[:]
    # the solve leaves X in x's glued slot, or at exponent -1 in its
    # starred block top
    place[s(plan.unknown)] = glued + 1 + (glued if plan.exponent > 0 else s(plan.boundary))
    written = tuple(top for top, _ in plan.frozen) + plan.body
    return _CoreOps(
        tuple(_at(mutation, s) for mutation in plan.zeta),
        tuple(_at(mutation, s) for mutation in plan.zeta_inverse),
        _Gather((*range(n), *(s(top) for top, _ in plan.frozen))),
        _Gather(s(ix) if top is None else copy[s(top)] for ix, top in plan.layout),
        _Gather((*lift, *(t(ix) for _, ix in plan.frozen), t(plan.boundary))),
        _Gather((*read_back, *range(n, glued + 1))),
        _Gather(place),
        s(plan.boundary), t(plan.boundary), s(plan.k_top), t(copied_to[plan.k_top]),
        s(plan.unknown), glued, plan.exponent, written, _Gather(map(s, written)))


def _core_forward(ar, core: _CoreOps, regs):
    """The saltation core on registers, in the arithmetic ``ar``: the zeta
    plan, the copies of the right-frozen values, and the boundary slot's
    division."""
    # the frozen values are copied before the zeta plan updates the point
    regs = ar.gather(regs, core.keep)
    mutate = ar.mutate
    for mutation in core.zeta:
        mutate(regs, mutation)
    regs = ar.gather(regs, core.layout)
    # the starred wire's boundary slot divides by the moved wire's frozen value
    if not ar.nonzero(regs, core.k_top_t):
        raise SingularPoint("zero right-frozen coordinate at the saltation core")
    ar.div(regs, core.boundary_t, core.k_top_t)
    return regs


def _core_inverse(ar, core: _CoreOps, regs):
    """The inverse saltation core on registers, in the arithmetic ``ar``
    (see ``XiCoreInverseStep``)."""
    mutate, glued = ar.mutate, core.glued
    # right-frozen slots copy back wire-preservingly; the starred block top
    # and the glued slot take the glued value, the starred block top times
    # the moved wire's frozen value
    z = ar.gather(regs, core.lift)
    ar.mul(z, core.boundary, core.k_top)
    ar.mul(z, glued, core.k_top)
    # the zeta image on the source slots, with the frozen copies standing
    # in for the tops the forward core overwrote
    for mutation in core.zeta_inverse:
        mutate(z, mutation)
    # glued and interior slots are now exact; the moved wire's block top
    # is the one unknown X, solved from the starred wire's glued top
    x = ar.gather(z, core.restore)
    ar.one(x, core.unknown, core.k_top)
    for mutation in core.zeta:
        mutate(x, mutation)
    if not ar.nonzero(x, core.boundary) or (core.exponent < 0 and not ar.nonzero(x, glued)):
        raise SingularPoint("zero divisor in the inverse saltation core")
    # X = (glued / c)^e with e = +-1, c the starred block top of x
    if core.exponent > 0:
        ar.div(x, glued, core.boundary)
    else:
        ar.div(x, core.boundary, glued)
    return ar.gather(ar.join(z, x), core.place)


@dataclass(frozen=True)
class XiCoreStep(Step):
    """Saltation core: source word j' i+ kbar (one-sign reduced block i+ of
    the longest element, trailing barred letter), target j' square(i+) k*.

    Coordinates below the block transport through the block's zeta map (the
    word j' rides along by amalgamation), the boundary slot of wire k divides
    by the right-frozen value of wire k*, the top slot of wire k crosses to
    the new top slot of wire k*, and the remaining right-frozen slots keep
    their values.  Evaluation runs the plan ``_core_plan`` lowers once per
    word, in the positions ``_core_ops`` gives it.
    """

    cdata: CartanData
    word_before: DoubleWord

    @functools.cached_property
    def word_after(self) -> DoubleWord:
        return _core_plan(self.cdata, self.word_before).target

    def ops(self) -> tuple[Op, ...]:
        return (("core", _core_ops(self.cdata, self.word_before)),)

    def apply(self, values: Assignment) -> Assignment:
        return Step.apply(self, values)

    def inverse(self) -> "XiCoreInverseStep":
        return XiCoreInverseStep(self.cdata, self.word_after, self.word_before)

    def describe(self) -> dict:
        return {"step": "saltation_core",
                "source": self.word_before.to_string(),
                "target": self.word_after.to_string()}


@dataclass(frozen=True)
class XiCoreInverseStep(Step):
    """Exact inverse of the saltation core.

    Structure of a zeta pipeline on the block torus: mutations never happen
    at bottom slots; interior slots evolve autonomously; bottom slots pick up
    scalar multipliers depending on the interiors only; top slots evolve as
    monomials in each other times interior-driven scalars.  Hence one inverse
    zeta pass over the image, whatever stands in its top slots, recovers the
    interiors and the glued boundary exactly.  The starred wire's glued top
    is then c * X^e in the moved wire's block top X, with the exponent e
    (+-1) stored in the plan: one forward zeta pass with X = 1 reads off c,
    and X = (glued / c)^e.
    """

    cdata: CartanData
    word_before: DoubleWord  # = forward step's word_after
    word_after: DoubleWord   # = forward step's word_before

    def ops(self) -> tuple[Op, ...]:
        return (("core_inverse", _core_ops(self.cdata, self.word_after)),)

    def apply(self, values: Assignment) -> Assignment:
        return Step.apply(self, values)

    def inverse(self) -> XiCoreStep:
        return XiCoreStep(self.cdata, self.word_after)

    def describe(self) -> dict:
        return {"step": "saltation_core_inverse",
                "source": self.word_before.to_string(),
                "target": self.word_after.to_string()}


# ---------------------------------------------------------------------------
# Programs: a map's steps' ops joined once, run by one interpreter on
# registers of the scalars or of pairs over Q or F_p
# ---------------------------------------------------------------------------

def _image_core(ops: Sequence[Op]) -> Optional[_CoreOps]:
    """The inverse saltation core whose key order the image of these ops
    keeps: their last op that lays the slots out, when it is an inverse
    core.  That core writes the right-frozen tops it reads back first, then
    the other source slots (``_CoreOps.written``), and the ops after it
    keep that order; a relabeling or a forward core keys the image in its
    target word's ``seed_indices`` order."""
    for op in reversed(ops):
        kind = op[0]
        if kind == "core_inverse":
            return op[1]
        if kind == "relabel" or kind == "core":
            return None
    return None


def _interpret(ar, program: Sequence[Op], registers):
    """The one dispatch loop: each op of the program in the arithmetic
    ``ar``, on registers the loop owns (mutations update them in place)."""
    mutate = ar.mutate
    for op in program:
        kind = op[0]
        if kind == "relabel":
            registers = ar.gather(registers, op[1])
        elif kind == "core":
            registers = _core_forward(ar, op[1], registers)
        elif kind == "core_inverse":
            registers = _core_inverse(ar, op[1], registers)
        else:
            mutate(registers, op)
    return registers


def _scale(a: int, b: int, c: int, f: int) -> tuple[int, int]:
    """a/b times c/f, both in lowest terms with b > 0 and f nonzero: the two
    cross-gcds of ``Fraction``'s product, then the sign moved to the
    numerator, so the pair stays in lowest terms."""
    g = gcd(a, f)
    if g > 1:
        a //= g
        f //= g
    g = gcd(c, b)
    if g > 1:
        c //= g
        b //= g
    if f < 0:
        return -a * c, -b * f
    return a * c, b * f


class _Pairs:
    """Map evaluation on pairs: the registers are two int lists (nums,
    dens), coordinate i standing for nums[i]/dens[i], so no op inverts and
    a copy holds no object twice.  Over Q (p None) each pair is in lowest
    terms with den > 0, and each product is ``_scale``; over F_p (p a
    prime) it is of residues mod p with den nonzero."""

    __slots__ = ("p",)

    def __init__(self, p: Optional[int]):
        self.p = p

    def mutate(self, regs: tuple[list, list], mutation: Mutation) -> None:
        p = self.p
        nums, dens = regs
        kind, k, exponents = mutation
        n = nums[k]
        d = dens[k]
        if not n:
            raise SingularPoint(f"zero coordinate at {kind} mutation index")
        # a positive unit exponent multiplies by n/s and a negative one by
        # s/c, each in lowest terms over Q: by x_k = n/d and 1/x_k = d/n for
        # a tropical mutation (s = d, c = n), by x_k/(1 + x_k) = n/s and
        # 1 + x_k = s/d for a regular one (s = n + d, c = d)
        if kind == "tropical":
            s, c = d, n
        else:
            s, c = (n + d if p is None else (n + d) % p), d
            if not s and exponents:
                raise SingularPoint("1 + x_k vanishes with a nonzero exponent")
        # the field is picked once per mutation, not once per exponent
        if p is None:
            # the sign moves to the numerator
            if n > 0:
                nums[k], dens[k] = d, n
            else:
                nums[k], dens[k] = -d, -n
            for ix, e in exponents:
                a, b = (n, s) if e > 0 else (s, c)
                if e != 1 and e != -1:
                    a, b = a ** abs(e), b ** abs(e)
                nums[ix], dens[ix] = _scale(nums[ix], dens[ix], a, b)
            return
        # a residue is never negative: no sign to move
        nums[k] = d
        dens[k] = n
        for ix, e in exponents:
            if e == 1:
                nums[ix] = nums[ix] * n % p
                dens[ix] = dens[ix] * s % p
            elif e == -1:
                nums[ix] = nums[ix] * s % p
                dens[ix] = dens[ix] * c % p
            else:
                a, b = (n, s) if e > 0 else (s, c)
                nums[ix] = nums[ix] * pow(a, abs(e), p) % p
                dens[ix] = dens[ix] * pow(b, abs(e), p) % p

    @staticmethod
    def gather(regs: tuple[list, list], order: _Gather) -> tuple[list, list]:
        take = order.take
        return [*take(regs[0])], [*take(regs[1])]

    @staticmethod
    def join(regs: tuple[list, list], more: tuple[list, list]) -> tuple[list, list]:
        return regs[0] + more[0], regs[1] + more[1]

    @staticmethod
    def nonzero(regs: tuple[list, list], i: int) -> int:
        return regs[0][i]  # a pair is nonzero with its numerator

    def mul(self, regs: tuple[list, list], i: int, j: int) -> None:
        """Entry i times entry j, in place."""
        p = self.p
        nums, dens = regs
        if p is None:
            nums[i], dens[i] = _scale(nums[i], dens[i], nums[j], dens[j])
        else:
            nums[i] = nums[i] * nums[j] % p
            dens[i] = dens[i] * dens[j] % p

    def div(self, regs: tuple[list, list], i: int, j: int) -> None:
        """Entry i over the nonzero entry j, in place."""
        p = self.p
        nums, dens = regs
        if p is None:
            nums[i], dens[i] = _scale(nums[i], dens[i], dens[j], nums[j])
        else:
            nums[i] = nums[i] * dens[j] % p
            dens[i] = dens[i] * nums[j] % p

    @staticmethod
    def one(regs: tuple[list, list], i: int, like: int) -> None:
        regs[0][i] = regs[1][i] = 1

    def run(self, program: Sequence[Op], values: Assignment,
            source: Sequence[SeedIndex], target: Sequence[SeedIndex]) -> Assignment:
        """The program on pairs, at a point read in the ``source`` layout,
        its image keyed by ``target``.  Over Q an int n enters as n/1, and
        one Fraction per coordinate ends the run; over F_p every coordinate
        is divided out with one modular inversion of the product of the
        denominators (Montgomery's trick)."""
        p = self.p
        xs = [values[ix] for ix in source]
        if p is None:
            nums, dens = _interpret(self, program, ([x.numerator for x in xs],
                                                    [x.denominator for x in xs]))
            return dict(zip(target, map(Fraction, nums, dens)))
        nums, dens = _interpret(self, program, ([x.value for x in xs], [1] * len(xs)))
        prefix = [1]
        for d in dens:
            prefix.append(prefix[-1] * d % p)
        inv = arith._inverse_mod(prefix.pop(), p)  # 1 / (d_0 ... d_i), i from the last
        out = [None] * len(nums)
        for i in range(len(nums) - 1, -1, -1):
            out[i] = Fp(nums[i] * inv * prefix[i], p)
            inv = inv * dens[i] % p
        return dict(zip(target, out))


def run_program(program: Sequence[Op], values: Assignment,
                source: Sequence[SeedIndex], target: Sequence[SeedIndex]) -> Assignment:
    """A program at a point read in the ``source`` layout, its image keyed
    by ``target``: on residue pairs when every coordinate is an Fp of one
    prime, on rational pairs when every coordinate's type is exactly int or
    Fraction, else on the scalars themselves (jets, mixed points)."""
    if not program:
        return _SCALARS.run(program, values, source, target)
    p = arith._fp_prime(values.values())
    if p is not None or all(type(x) is Fraction or type(x) is int for x in values.values()):
        return _Pairs(p).run(program, values, source, target)
    return _SCALARS.run(program, values, source, target)


@dataclass(frozen=True)
class RationalMap:
    """A composable pipeline of steps between seed tori."""

    cdata: CartanData
    source_word: DoubleWord
    target_word: DoubleWord
    steps: tuple[Step, ...]
    restricted: bool = False

    @functools.cached_property
    def _compiled(self) -> tuple[tuple[Op, ...], tuple[SeedIndex, ...], tuple[SeedIndex, ...]]:
        """The map's program, the source word's ``seed_indices``, which a
        run reads the point in, and the keys of the image in order; joined
        on the map's first evaluation and kept.  The program is the
        concatenation of the steps' ops, each step lowered once per
        distinct step to positions (``_move_ops``, ``_core_ops``) and read
        from that cache here, with no pass over the map; a move step with
        neither mutations nor a relabeling leaves no op.  The image is
        keyed by the target word's ``seed_indices``, unless it keeps an
        inverse saltation core's order (``_image_core``): then the program
        ends with that core's cached gather into it."""
        rank = self.cdata.rank
        ops = tuple(op for step in self.steps for op in step.ops())
        target = _layout(self.target_word, rank)
        core = _image_core(ops)
        if core is not None:
            ops += (("relabel", core.write),)
            target = core.written
        return ops, _layout(self.source_word, rank), target

    @property
    def program(self) -> tuple[Op, ...]:
        """The map's ops (see ``_compiled``)."""
        return self._compiled[0]

    @property
    def _layouts(self) -> tuple[tuple[SeedIndex, ...], tuple[SeedIndex, ...]]:
        """The keys a run reads the point in and keys the image by."""
        return self._compiled[1:]

    def apply(self, values: Assignment) -> Assignment:
        """The program at a point (see ``run_program``), its image keyed as
        ``_compiled`` gives."""
        program, source, target = self._compiled
        return run_program(program, values, source, target)

    def __call__(self, values: Assignment) -> Assignment:
        return self.apply(values)

    def then(self, *others: "RationalMap") -> "RationalMap":
        """This map followed by others in turn: every seam checked, steps joined once."""
        maps = (self, *others)
        for a, b in zip(maps, others):
            if a.target_word != b.source_word:
                raise PreconditionFailed(
                    f"{a.target_word.to_string()} != {b.source_word.to_string()}")
        return RationalMap(self.cdata, self.source_word, maps[-1].target_word,
                           tuple(s for m in maps for s in m.steps),
                           all(m.restricted for m in maps))

    def inverse(self) -> "RationalMap":
        return RationalMap(self.cdata, self.target_word, self.source_word,
                           tuple(s.inverse() for s in reversed(self.steps)),
                           self.restricted)

    def describe(self) -> list[dict]:
        return [s.describe() for s in self.steps]

    def apply_tuple(self, point: tuple) -> tuple:
        """The map on coordinates listed in ``seed_indices`` order, both
        sides."""
        out = self.apply(dict(zip(self._layouts[0], point)))
        return tuple(out[ix] for ix in _layout(self.target_word, self.cdata.rank))


def identity_map(w: DoubleWord, cdata: CartanData, restricted: bool = False) -> RationalMap:
    return RationalMap(cdata, w, w, (), restricted)


def dmove_transform(w: DoubleWord, move: Move, cdata: CartanData,
                    restricted: bool = False) -> RationalMap:
    """The cluster transformation of a single generalized d-move or tau move."""
    if move.kind == "dual":
        return dual_move_map(w, cdata)
    step = MoveStep(cdata, w, move, restricted)
    return RationalMap(cdata, w, step.word_after, (step,), restricted)


def _along(w: DoubleWord, moves: Iterable[Move], cdata: CartanData,
           restricted: bool = False) -> RationalMap:
    """Composite of the move transformations along a chain of moves from w,
    first move first, assembled in one pass: a ``MoveStep`` per move, the
    cached saltation's steps per dual move, and one map at the end, which is
    restricted when the flag is and every saltation used is."""
    steps: list[Step] = []
    at = w
    restricted_out = restricted
    for mv in moves:
        if mv.kind == "dual":
            salt = dual_move_map(at, cdata)
            steps += salt.steps
            restricted_out = restricted_out and salt.restricted
            at = salt.target_word
        else:
            step = MoveStep(cdata, at, mv, restricted)
            steps.append(step)
            at = step.word_after
    return RationalMap(cdata, w, at, tuple(steps), restricted_out)


def path_transform(source: DoubleWord, target: DoubleWord, cdata: CartanData,
                   kinds: Iterable[str] = wordmod.D_KINDS,
                   restricted: bool = False) -> RationalMap:
    """Composite transformation along a shortest move path."""
    return _along(source, wordmod.move_path(source, target, cdata, kinds), cdata, restricted)


# ---------------------------------------------------------------------------
# Zeta maps (twist sections)
# ---------------------------------------------------------------------------

def zeta_map(w: DoubleWord, cdata: CartanData) -> RationalMap:
    """The generalized cluster transformation from a one-sign reduced word to
    its square word, as a composition of tau flips and mixed 2-moves.

    For a positive word the letters are barred from the tail (each stage: a
    right tau flip, then the bar migrates left to the bar block); for a
    negative word from the head (left tau flip, migration right)."""
    n = len(w)
    moves = []
    if wordmod.is_positive_reduced(w, cdata):
        for k in range(n, 0, -1):  # barring letter i_k
            moves.append(Move("tau_right", n - 1))
            moves += [Move("mixed2", p, 2) for p in range(n - 2, n - k - 1, -1)]
    elif wordmod.is_negative_reduced(w, cdata):
        for k in range(1, n + 1):  # unbarring letter j_k
            moves.append(Move("tau_left", 0))
            moves += [Move("mixed2", p, 2) for p in range(n - k)]
    else:
        raise PreconditionFailed("zeta needs a one-sign reduced word")
    return _along(w, moves, cdata)


@functools.lru_cache(maxsize=64)
def _zeta_map(cdata: CartanData, block: DoubleWord) -> RationalMap:
    """The zeta map of a saltation block, built once per block rather than
    once per point."""
    return zeta_map(block, cdata)


# ---------------------------------------------------------------------------
# Dual moves and saltations
# ---------------------------------------------------------------------------

def dual_move_map(w: DoubleWord, cdata: CartanData) -> RationalMap:
    """The saltation attached to the dual move applicable at w: the moving
    letter migrates through the block (restricted mixed 2-moves), the core
    acts, and the starred letter migrates back.  It depends on the word
    only, so it is built once per word and shared (maps and steps are
    frozen); a word with no dual move raises on every call."""
    return _dual_move_map(cdata, w)


# Bounded: 100 compute-a2 requests (and all 160 A2 artin-T maps) reach 20
# distinct words, verify --all --type A2 16, --type B2 22 and the two G2
# generators 2.
@functools.lru_cache(maxsize=64)
def _dual_move_map(cdata: CartanData, w: DoubleWord) -> RationalMap:
    """``dual_move_map``, built once per word."""
    L = wordmod.dual_block_length(cdata)
    n = len(w)
    target = wordmod.apply_move(w, Move("dual", n - 1 - L), cdata)  # raises if none applies
    if w.letters[-1] < 0:
        # shape B: ... k [negative w0 block]: inverse of the shape-A map at the image
        fwd = dual_move_map(target, cdata)
        if fwd.target_word != w:
            raise InvariantViolation(
                f"dual move at {target.to_string()} does not return to {w.to_string()}")
        return fwd.inverse()
    # shape A: ... kbar [positive w0 block]; migrate kbar to the end
    to_end = _along(w, [Move("mixed2", p, 2) for p in range(n - L - 1, n - 1)],
                    cdata, restricted=True)
    core = XiCoreStep(cdata, to_end.target_word)
    # migrate the new positive letter k* back to the block front
    back = _along(core.word_after, [Move("mixed2", p, 2) for p in range(n - 2, n - L - 2, -1)],
                  cdata, restricted=True)
    out = to_end.then(RationalMap(cdata, core.word_before, core.word_after, (core,), True), back)
    if out.target_word != target:
        raise InvariantViolation(
            f"dual move map ends at {out.target_word.to_string()}, not {target.to_string()}")
    return out


def xi_saltation(w: DoubleWord, cdata: CartanData) -> RationalMap:
    """Public name for the dual-move transformation."""
    return dual_move_map(w, cdata)


# ---------------------------------------------------------------------------
# The canonical isomorphisms between bracket tori over D(v)
# ---------------------------------------------------------------------------

def mu_hat(source: DoubleWord, target: DoubleWord, cdata: CartanData,
           v: WeylElement) -> RationalMap:
    """The birational Poisson isomorphism between the bracket tori of two
    words of D(v): restricted cluster transformations along d-moves, the
    identity along right tau moves, saltations along dual moves.

    The search tracks the first-factor class w1 alongside the word: d-moves
    and right tau moves keep it, a dual move trades the moving letter between
    the class and the flipped block.  Paths must be class-coherent for the
    composite to intertwine the twisted evaluations, so only coherent edges
    are explored.
    """
    classes = []
    for w in (source, target):
        found = wordmod.canonical_class(w, cdata, v)
        if found is None:
            raise PreconditionFailed(f"{w.to_string()} not in D(v)")
        classes.append(found[0].w1)
    return _mu_hat(cdata, source, target, v, *classes)


# Bounded: verify --all --type A2 derives the edges of 756 states, and
# --type B2 of 3 886.  The two G2 generators derive 23 496, few of which a
# later search meets again.
_EDGE_STATES = 4096


class _DhatGraph:
    """The class-coherent dhat move graph over D(v), on numbered states.  A
    (letters, w1) state gets the next int the first time a search reaches
    it, and its edges are held as (move, target number) pairs in
    ``applicable_moves`` order: d-moves, mixed 2-moves and right tau moves
    keep w1, a dual move needs w1 to be its required class and trades it for
    its resulting one, and a target outside its class is no edge.  Every
    ball and search over D(v) runs ``words._Ball`` over the numbers, so a
    state costs one derivation of its edges and int lookups after that.

    The edges of at most ``_EDGE_STATES`` states are held, the most recently
    used.  The numbering grows with the states the searches reach; ``trim``
    drops it between searches once it holds more than a search may expand.
    The graph is symmetric: a dual edge's reverse is the dual move at its
    image, with the class pair swapped."""

    def __init__(self, cdata: CartanData, v: WeylElement):
        self.cdata, self.v = cdata, v
        self._numbers: dict[tuple[tuple[int, ...], WeylElement], int] = {}
        self._states: list[tuple[tuple[int, ...], WeylElement]] = []
        self.edges = functools.lru_cache(maxsize=_EDGE_STATES)(self._derive)

    def number(self, letters: tuple[int, ...], w1: WeylElement) -> int:
        state = (letters, w1)
        n = self._numbers.get(state)
        if n is None:
            n = self._numbers[state] = len(self._states)
            self._states.append(state)
        return n

    def trim(self) -> None:
        """Between searches: drop the numbering and the edges, and every
        cached ball, whose states are numbers, once more than
        ``words._MAX_STATES`` states are numbered."""
        if len(self._states) > wordmod._MAX_STATES:
            self._numbers.clear()
            self._states.clear()
            self.edges.cache_clear()
            _ball.cache_clear()

    def _derive(self, n: int) -> tuple[tuple[Move, int], ...]:
        """The edges out of state n, worked out on its letters.  A mixed
        2-move keeps both one-sign subwords, and so the class: its target
        needs no class test."""
        cdata, v = self.cdata, self.v
        letters, w1 = self._states[n]
        out = []
        for mv in wordmod._moves_at(letters, cdata, wordmod.DHAT_KINDS):
            out_w1 = w1
            if mv.kind == "dual":
                req, out_w1 = wordmod.dual_move_classes(DoubleWord(letters), cdata)
                if req != w1:
                    continue
            nxt = wordmod._rewrite(letters, mv, cdata)
            if mv.kind == "mixed2" or wordmod._letter_cuts(nxt, cdata, v, out_w1):
                out.append((mv, self.number(nxt, out_w1)))
        return tuple(out)


# Bounded: verify --all --type A2 searches over two D(v), the Artin
# generators over D(w0).
@functools.lru_cache(maxsize=4)
def _graph(cdata: CartanData, v: WeylElement) -> _DhatGraph:
    """The one numbered dhat graph over D(v)."""
    return _DhatGraph(cdata, v)


# Bounded: the Artin composer anchors on two states per letter, four for
# A2.
@functools.lru_cache(maxsize=16)
def _ball(graph: _DhatGraph, anchor: int) -> wordmod._Ball:
    """The breadth-first ball of a dhat graph around one numbered state,
    grown across the searches that share that end."""
    return wordmod._Ball(anchor, graph.edges)


def _mu_hat(cdata: CartanData, source: DoubleWord, target: DoubleWord,
            v: WeylElement, w1_source: WeylElement, w1_target: WeylElement,
            anchored: str = "") -> RationalMap:
    """mu_hat between resolved classes: a breadth-first search over
    class-coherent dhat moves, then the composite along the path found.
    ``anchored`` ("source" or "target") reads the path off that end's cached
    ``_ball`` instead of a one-shot search; the path is the same.  A goal
    outside its class raises NoPath before any search."""
    if not wordmod.is_in_dv(source, cdata, v, w1_source):
        raise PreconditionFailed(
            f"{source.to_string()} is not a ({w1_source.reduced_word()},*) word of D(v)")
    if not wordmod.is_in_dv(target, cdata, v, w1_target):
        path = None  # no edge enters a state outside its class
    else:
        graph = _graph(cdata, v)
        graph.trim()
        start = graph.number(source.letters, w1_source)
        goal = graph.number(target.letters, w1_target)
        if anchored == "source":
            path = _ball(graph, start).path_from(goal)
        elif anchored == "target":
            path = _ball(graph, goal).path_to(start)
        else:
            path = wordmod._search(start, goal, graph.edges)
    if path is None:
        raise NoPath(f"no coherent dhat path {source.to_string()} -> {target.to_string()}")
    return _along(source, path, cdata, restricted=True)


# ---------------------------------------------------------------------------
# Artin group generators
# ---------------------------------------------------------------------------

def _artin_base_word(cdata: CartanData, j: int) -> DoubleWord:
    """The word (-j, barred s_j w0)(w0) of R(w0, w0), starting with the
    barred letter j."""
    w0 = weyl.longest_element(cdata)
    rest = (weyl.simple(cdata, j) * w0).reduced_word()
    return DoubleWord((-j,) + tuple(-x for x in rest) + w0.reduced_word())


def artin_T(w: DoubleWord, j: int, cdata: CartanData,
            base: Optional[DoubleWord] = None) -> RationalMap:
    """The Artin generator on the bracket torus of w in D(w0): transport to
    the flipped base word, apply the left tropical mutation (which restores
    the base word), transport back.  This is the one-letter case of
    ``artin_T_word``; the map does not depend on the admissible base word
    chosen.
    """
    return _artin_T_word(cdata, w, (j,), base)


def artin_T_word(w: DoubleWord, letters: Sequence[int], cdata: CartanData) -> RationalMap:
    """Composite of Artin generators along a word (leftmost letter first) on
    the bracket torus of w in D(w0), as one chain of base-to-base
    transports:

        mu_hat(w -> flipped_a1), bar flip, mu_hat(base_a1 -> flipped_a2),
        bar flip, ..., mu_hat(base_ak -> w),

    where flipped_j is the base word of j with its leading letter unbarred,
    and the left bar flip (a tropical mutation) returns it to base_j.  The
    product of the generators would go base_a -> w -> flipped_b between two
    letters; ``mu_hat`` does not depend on the path, so that stretch is the
    one transport base_a -> flipped_b, between the classes w0 and
    w0 s_{b*}.  With one letter the chain is the generator itself.
    Every leg ends at a base word or its flip, so it is read off that
    word's cached search (``_ball``) rather than a fresh one.

    Each letter's base word is ``_artin_base_word``.  Composites are
    cached, so a repeated build returns the same map, whose program is then
    already compiled.
    """
    return _artin_T_word(cdata, w, tuple(letters), None)


# Bounded: all 160 A2 artin-T maps fit.  A check run again in one process
# reads its composites, with their compiled programs, from here.
@functools.lru_cache(maxsize=256)
def _artin_T_word(cdata: CartanData, w: DoubleWord, letters: tuple[int, ...],
                  base: Optional[DoubleWord]) -> RationalMap:
    """``artin_T_word``; ``base``, given with one letter, replaces its
    default base word (a word of R(w0, w0) starting with the barred
    letter)."""
    for j in letters:
        if not 1 <= j <= cdata.rank:
            raise PreconditionFailed(f"generator index {j} outside 1..{cdata.rank}")
    bases = [_artin_base_word(cdata, j) for j in letters] if base is None else [base]
    w0 = weyl.longest_element(cdata)
    found = wordmod.canonical_class(w, cdata, w0)
    if found is None:
        raise PreconditionFailed(f"{w.to_string()} is not in D(w0)")
    star = weyl.star_involution(cdata)
    w_class = w1 = found[0].w1
    legs = [identity_map(w, cdata, restricted=True)]
    for j, base in zip(letters, bases, strict=True):
        flipped = wordmod.l_move(base)  # starts with the positive letter j
        # the moving letter leaves the class of the base word, w0
        legs.append(_mu_hat(cdata, legs[-1].target_word, flipped, w0,
                            w1, w0 * weyl.simple(cdata, star[j]), "target"))
        trop = MoveStep(cdata, flipped, Move("tau_left", 0), restricted=False)
        if trop.word_after != base:
            raise InvariantViolation(f"bar flip of {flipped.to_string()} misses the base word")
        legs.append(RationalMap(cdata, flipped, base, (trop,), True))
        w1 = w0
    legs.append(_mu_hat(cdata, legs[-1].target_word, w, w0, w1, w_class,
                        "source" if letters else ""))
    return legs[0].then(*legs[1:])


# ---------------------------------------------------------------------------
# Poisson brackets
# ---------------------------------------------------------------------------

def bracket_matrix_at(seed: Seed, fn: Callable, values: Assignment) -> tuple:
    """{f_a, f_b} at a point for every pair of the functions fn returns: the
    pullback of the seed's log-canonical form,
    sum over pairs of eps_hat_ij x_i x_j (d_i f_a)(d_j f_b).

    fn takes an assignment and returns a sequence of values; it runs once
    (``_pullback``), with the coordinates of the form's support
    (``Seed.bracket_form``) lifted to jets and the others left as they are,
    since only partials along the support meet the form.  An output that is
    not a jet has zero partials.  A seed without brackets runs fn at the
    point itself, and every bracket is the field's zero.  The form is
    applied to each function's partials once, on residues when the point
    and every output are of one prime field (``_form_brackets``)."""
    return _pullback(seed, fn, values)[1]


def _pullback(seed: Seed, fn: Callable, values: Assignment) -> tuple[tuple, tuple]:
    """The one pass of ``bracket_matrix_at``: the values of fn's outputs (a
    jet's value, or the output itself) and their bracket matrix."""
    support, form = seed.bracket_form
    point = {ix: values[ix] for ix in sorted(values)}
    if not support:
        outputs = tuple(fn(point))
        zero = _zero_like(next(iter(point.values())))
        return outputs, ((zero,) * len(outputs),) * len(outputs)
    xs = [values[ix] for ix in support]
    point.update(zip(support, jet_point(xs)))
    outputs = fn(point)
    plain = tuple(f.value if type(f) is Jet else f for f in outputs)
    p = arith._fp_prime(xs)
    if p is not None and all(type(f) is Jet and f._p == p or type(f) is Fp and f.p == p
                             for f in outputs):
        partials = [f._d if type(f) is Jet else None for f in outputs]
        fp = arith._fp_of_residue
        brackets = _form_brackets(form, [x.value for x in xs], partials, p)
        return plain, tuple(tuple(fp(x, p) for x in row) for row in brackets)
    zeros = (_zero_like(xs[0]),) * len(xs)
    partials = [f.partials if isinstance(f, Jet) else zeros for f in outputs]
    return plain, tuple(map(tuple, _form_brackets(form, xs, partials, None)))


def _form_brackets(form: tuple, xs: Sequence, partials: Sequence,
                   p: Optional[int]) -> list[list]:
    """{f_a, f_b} = sum_s da[s] sum_t c_st db[t] with c_st = eps_hat_st x_s x_t,
    over the rows (s, ((t, eps_hat_st), ...)) of a nonempty form in support
    positions: the form is applied to each db once.  With a modulus p, xs
    and the partials are residues mod p, eps_hat is read mod p by
    ``arith._residue``, a partial None (an output that is not a jet) meets
    nothing, and the brackets are residues; with p None every partial is a
    tuple of scalars."""
    if p is None:
        total = lambda terms: sum(terms[1:], terms[0])
        rows = [(s, [(t, e * xs[s] * xs[t]) for t, e in row]) for s, row in form]
        applied = [[(s, total([c * db[t] for t, c in row])) for s, row in rows]
                   for db in partials]
        return [[total([da[s] * x for s, x in w]) for w in applied] for da in partials]
    residue = arith._residue
    rows = [(s, [(t, residue(e, p) * xs[s] * xs[t] % p) for t, e in row]) for s, row in form]
    applied = [None if db is None else [(s, sum(c * db[t] for t, c in row) % p)
                                        for s, row in rows] for db in partials]
    return [[0 if da is None or w is None else sum(da[s] * x for s, x in w) % p
             for w in applied] for da in partials]


def poisson_bracket_at(seed: Seed, f: Callable, g: Callable, values: Assignment):
    """{f, g} at a point: the two-function case of ``bracket_matrix_at``.

    f and g take an assignment and return a value; a SeedIndex is also
    accepted and means the corresponding coordinate function."""
    def as_fun(h):
        if isinstance(h, tuple):
            return lambda a: a[h]
        return h

    f, g = as_fun(f), as_fun(g)
    return bracket_matrix_at(seed, lambda jets: (f(jets), g(jets)), values)[0][1]


def is_poisson_map(m: RationalMap, cfg: TrialConfig) -> Verdict:
    """Check that m intertwines the log-canonical brackets: for all pairs,
    {m* x'_a, m* x'_b}_source = eps_hat'_ab (m* x'_a)(m* x'_b) at random
    prime-field points.  One jet pass of m per point gives both sides."""
    src, tgt = (seed_for_word(word, m.cdata) for word in (m.source_word, m.target_word))
    if m.restricted:
        src, tgt = bracket_seed(src), bracket_seed(tgt)
    src_ixs = wordmod.seed_indices(m.source_word, m.cdata.rank)
    tgt_ixs = wordmod.seed_indices(m.target_word, m.cdata.rank)
    pairs = [(a, b) for a in range(len(tgt_ixs)) for b in range(a + 1, len(tgt_ixs))]
    coefficients = [tgt.eps_hat(tgt_ixs[a], tgt_ixs[b]) for a, b in pairs]

    def pullbacks(values: Assignment) -> list:
        image = m.apply(values)
        return [image[ix] for ix in tgt_ixs]

    def sides(point: tuple) -> tuple:
        image, brackets = _pullback(src, pullbacks, dict(zip(src_ixs, point)))
        return (tuple(brackets[a][b] for a, b in pairs),
                tuple(e * image[a] * image[b] for e, (a, b) in zip(coefficients, pairs)))

    return arith._verdict(sides, len(src_ixs), cfg)


# ---------------------------------------------------------------------------
# Random points
# ---------------------------------------------------------------------------

def random_assignment(w: DoubleWord, cdata: CartanData, rng: random.Random,
                      prime: Optional[int] = None, bound: int = 40) -> Assignment:
    """Random torus point: nonzero residues mod a prime, or small nonzero
    rationals when prime is None."""
    ixs = wordmod.seed_indices(w, cdata.rank)
    if prime is not None:
        return dict(zip(ixs, arith.random_point_fp(len(ixs), prime, rng)))
    nums = [n for n in range(-bound, bound + 1) if n != 0]
    out: Assignment = {}
    for ix in ixs:
        num = rng.choice(nums)
        den = rng.randrange(1, bound)
        out[ix] = Fraction(num, den)
    return out
