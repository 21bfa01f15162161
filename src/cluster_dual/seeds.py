"""Seeds attached to double words.

A seed stores its Cartan type, its counts N^j (one per wire j) and its
exchange matrix epsilon, whose rational entries are allowed only on frozen
pairs; it keeps no record of the word it came from.  The rest is read off
the type and the counts: the index set I = {(j, k) : 0 <= k <= N^j}; the
two-set cover of the frozen subset I0 (left boundary slots (j, 0), right
boundary slots (j, N^j)) that drives tropical mutations, each of which is
told the sign of the letter it flips; and the positive multipliers
d_(j,k) = d_j of the symmetrized Cartan matrix.  The bracket matrix is
epsilon_hat_ij = epsilon_ij / d_j, the form a regular X-mutation keeps
(Fock-Goncharov, math/0311245, section 1); it is skew-symmetric.

The elementary seed of a single letter is populated from the two entry
families

    eps(i)[(i,1),(j,0)] = a_ij/2 = -eps(i)[(i,0),(j,0)]    (sign flipped for
                                                            the barred letter)

completed by a zero diagonal and skew-symmetry of epsilon_hat; amalgamation
adds the factors' entries over identified slots (the glued slot (i, N^i of
the left factor) belongs to both factors and inherits from both in all rows
and columns).  These two completions are exactly what reproduces the golden
rank-one bracket matrices, which the test suite pins bit-exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .cartan import CartanData
from .errors import (FrozenDirection, FrozenStructureViolation, InvariantViolation,
                     PreconditionFailed)
from .words import DoubleWord, SeedIndex


@dataclass(frozen=True, eq=True)
class Seed:
    """A seed is its type, counts and matrix, and equality compares exactly
    these.  Seeds are not hashable (the matrix is a dict); use the word as
    a cache key instead."""

    cartan: CartanData
    counts: tuple[tuple[int, int], ...]          # (wire, N^wire), every wire 1..rank
    epsilon: dict[tuple[SeedIndex, SeedIndex], Fraction]

    __hash__ = None  # type: ignore[assignment]

    @property
    def indices(self) -> list[SeedIndex]:
        return [(wire, k) for wire, n in self.counts for k in range(n + 1)]

    @property
    def cover_left(self) -> frozenset[SeedIndex]:
        return frozenset((wire, 0) for wire, _ in self.counts)

    @property
    def cover_right(self) -> frozenset[SeedIndex]:
        return frozenset(self.counts)  # the slots (wire, N^wire)

    # frozen and common_denominator are read once per (i, j) pair by the
    # tropical mutations, so each seed computes them once
    @functools.cached_property
    def frozen(self) -> frozenset[SeedIndex]:
        return self.cover_left | self.cover_right

    @property
    def unfrozen(self) -> list[SeedIndex]:
        frozen = self.frozen
        return [ix for ix in self.indices if ix not in frozen]

    def d(self, ix: SeedIndex) -> int:
        """The multiplier of an index: the symmetrizer entry of its wire."""
        return self.cartan.d[ix[0] - 1]

    def eps(self, i: SeedIndex, j: SeedIndex) -> Fraction:
        return self.epsilon.get((i, j), Fraction(0))

    def eps_hat(self, i: SeedIndex, j: SeedIndex) -> Fraction:
        # eps_ij / d_j, the form a regular X-mutation keeps (Fock-Goncharov)
        return self.eps(i, j) / self.d(j)

    @functools.cached_property
    def bracket_form(self) -> tuple[tuple[SeedIndex, ...], tuple]:
        """The plan of the bracket form, once per seed: its support (the
        indices of its nonzero eps_hat entries, sorted) and its rows in
        support positions, (s, ((t, eps_hat_st), ...)) in index order."""
        rows: dict = {}
        for (i, j), v in self.epsilon.items():
            if v != 0:
                rows.setdefault(i, {})[j] = v / self.d(j)
        support = tuple(sorted({ix for i, row in rows.items() for ix in (i, *row)}))
        at = {ix: s for s, ix in enumerate(support)}
        return support, tuple((at[i], tuple((at[j], rows[i][j]) for j in sorted(rows[i])))
                              for i in sorted(rows))

    def cover_sets_of(self, k: SeedIndex) -> frozenset[SeedIndex]:
        """I0(k): union of the cover sets containing k."""
        covers = [c for c in (self.cover_left, self.cover_right) if k in c]
        if not covers:
            raise FrozenStructureViolation(f"{k} is not frozen")
        return frozenset().union(*covers)

    def common_denominator(self) -> int:
        return self._frozen_denominator

    @functools.cached_property
    def _frozen_denominator(self) -> int:
        frozen = self.frozen
        return math.lcm(*(v.denominator for (i, j), v in self.epsilon.items()
                          if i in frozen and j in frozen))

    def b_entry(self, i: SeedIndex, j: SeedIndex) -> int:
        """Numerator of eps over the common frozen denominator; eps itself
        (necessarily integer) off the frozen square."""
        frozen = self.frozen
        v = self.eps(i, j)
        if i in frozen and j in frozen:
            return int(v * self.common_denominator())
        if v.denominator != 1:
            raise InvariantViolation(f"exchange entry {v} at {i}, {j} is not integral")
        return int(v)

    def validate(self) -> None:
        """Raise InvariantViolation unless eps vanishes on the diagonal,
        eps_hat is skew-symmetric, entries off the frozen square are
        integral and the frozen entries share one denominator."""
        frozen = self.frozen
        for i in self.indices:
            if self.eps(i, i) != 0:
                raise InvariantViolation(f"nonzero diagonal entry at {i}")
            for j in self.indices:
                if self.eps_hat(i, j) != -self.eps_hat(j, i):
                    raise InvariantViolation(f"eps_hat not skew-symmetric at {i}, {j}")
                if not (i in frozen and j in frozen) and self.eps(i, j).denominator != 1:
                    raise InvariantViolation(f"non-integral exchange entry at {i}, {j}")
        dens = {self.eps(i, j).denominator
                for i in frozen for j in frozen if self.eps(i, j) != 0}
        if len(dens - {1}) > 1:
            raise InvariantViolation("frozen entries must share one denominator")

    def matrix(self) -> list[list[Fraction]]:
        ix = self.indices
        return [[self.eps(i, j) for j in ix] for i in ix]


def _skew_close(eps: dict, d) -> dict:
    """Fill in each entry whose transpose alone is given, so that eps_hat is
    skew-symmetric; ``d`` is the seed's multiplier."""
    out = dict(eps)
    for (i, j), v in eps.items():
        if (j, i) not in eps:
            out[(j, i)] = -v * d(i) / d(j)
    return out


@functools.lru_cache(maxsize=None)
def elementary_seed(cdata: CartanData, letter: int) -> Seed:
    """Seed of a one-letter word (letter != 0, sign = bar), or of the empty
    word when letter == 0."""
    rank = cdata.rank
    if letter == 0:
        return Seed(cdata, tuple((j, 0) for j in range(1, rank + 1)), {})
    i = abs(letter)
    sign = 1 if letter > 0 else -1
    eps: dict = {}
    for j in range(1, rank + 1):
        val = Fraction(sign * cdata.a[i - 1][j - 1], 2)
        if val:
            eps[((i, 1), (j, 0))] = val
        if j != i and val:
            eps[((i, 0), (j, 0))] = -val
    counts = tuple((j, 1 if j == i else 0) for j in range(1, rank + 1))
    seed = Seed(cdata, counts, eps)
    return replace(seed, epsilon=_skew_close(eps, seed.d))


def amalgamate(first: Seed, *rest: Seed) -> Seed:
    """Amalgamated seed of the factors in order: shift each factor's
    occurrence counters by the counts of the factors before it and add
    entries over the identified slots."""
    cdata = first.cartan
    shift = dict(first.counts)
    eps = dict(first.epsilon)
    for seed in rest:
        if seed.cartan != cdata:
            raise PreconditionFailed("amalgamated seeds must share one Cartan type")
        for ((wi, ki), (wj, kj)), v in seed.epsilon.items():
            key = ((wi, ki + shift[wi]), (wj, kj + shift[wj]))
            eps[key] = eps.get(key, 0) + v
        for wire, n in seed.counts:
            shift[wire] += n
    return Seed(cdata, tuple(shift.items()), {k: v for k, v in eps.items() if v})


def seed_for_word(w: DoubleWord, cdata: CartanData) -> Seed:
    return amalgamate(elementary_seed(cdata, 0),
                      *(elementary_seed(cdata, letter) for letter in w.letters))


def bracket_seed(seed: Seed) -> Seed:
    """Zero out every row and column meeting the right frozen set; the result
    is the log-canonical structure the twisted evaluations are Poisson for."""
    right = seed.cover_right
    eta = {(i, j): v for (i, j), v in seed.epsilon.items()
           if i not in right and j not in right}
    return replace(seed, epsilon=eta)


def _sgn(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def mutate_seed(seed: Seed, k: SeedIndex) -> Seed:
    """Cluster mutation of the exchange matrix in an unfrozen direction."""
    if k in seed.frozen:
        raise FrozenDirection(f"{k} is frozen")
    ix = seed.indices
    eps: dict = {}
    for i in ix:
        for j in ix:
            if i == j:
                continue
            if i == k or j == k:
                v = -seed.eps(i, j)
            else:
                v = seed.eps(i, j) + _sgn(seed.eps(i, k)) * max(
                    seed.eps(i, k) * seed.eps(k, j), Fraction(0))
            if v:
                eps[(i, j)] = v
    return replace(seed, epsilon=eps)


def flip_orientation(seed: Seed, k: SeedIndex, positive_letter: bool) -> bool:
    """Whether the tropical mutation at k uses the column-style correction.

    The two chiralities of the rule are mutually inverse; which one applies
    is decided by the side of the cover the direction belongs to and the sign
    of the boundary letter being flipped.
    """
    return (k in seed.cover_right) == positive_letter


def tropical_mutate_seed(seed: Seed, k: SeedIndex, positive_letter: bool) -> Seed:
    """Tropical mutation of the exchange matrix in a frozen direction.

    Row/column k negates, entries between cover mates of k stay, and the
    remaining entries pick up a monomial correction whose orientation depends
    on the flip (column-style eps_ij - eps_ik b_kj, or the transposed
    row-style) chosen by ``positive_letter``, the sign of the letter the flip
    turns; the orientation not written explicitly is completed by
    skew-symmetry of eps_hat.  At a boundary-anchored direction -- the left
    frozen slot of the first letter's wire or the right frozen slot of the
    last letter's, the only directions a tau move mutates -- either chirality
    applied twice with opposite letter signs is the identity, and the rule
    told the flipped letter's sign carries the word's seed onto the flipped
    word's seed.  At other frozen directions a double flip is in general not
    the identity.
    """
    if k not in seed.frozen:
        raise FrozenStructureViolation(f"{k} is not frozen")
    col_style = flip_orientation(seed, k, positive_letter)
    mates = seed.cover_sets_of(k)
    ix = seed.indices
    eps: dict = {}
    for i in ix:
        for j in ix:
            if i == j:
                continue
            if i == k or j == k:
                v = -seed.eps(i, j)
            elif i in mates and j in mates:
                v = seed.eps(i, j)
            elif col_style:
                if i in mates and j not in mates:
                    continue  # completed by skew-symmetry below
                v = seed.eps(i, j) - seed.eps(i, k) * seed.b_entry(k, j)
            else:
                if j in mates and i not in mates:
                    continue
                v = seed.eps(i, j) - seed.b_entry(i, k) * seed.eps(k, j)
            if v:
                eps[(i, j)] = v
    return replace(seed, epsilon=_skew_close(eps, seed.d))


def relabel_seed(seed: Seed, mapping: dict[SeedIndex, SeedIndex],
                 new_counts: tuple[tuple[int, int], ...]) -> Seed:
    """Push a seed through an index relabeling (identity off ``mapping``)."""
    return replace(seed, counts=new_counts,
                   epsilon={(mapping.get(i, i), mapping.get(j, j)): v
                            for (i, j), v in seed.epsilon.items()})
