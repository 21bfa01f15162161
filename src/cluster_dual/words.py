"""Double words and their moves.

A double word is a finite sequence of nonzero signed letters: ``+i`` is the
letter i of the positive alphabet, ``-i`` the barred letter of the negative
alphabet (so the bar map is plain negation, an involution).  The negative
subword spells the first Weyl factor u, the positive subword the second
factor v.

Moves:

- positive/negative d-moves rewrite an alternating window i,j,i,... of one
  sign into j,i,j,... (window length = order of s_i s_j: 2, 3, 4 or 6);
- mixed 2-moves swap two adjacent letters of opposite signs;
- tau moves flip the bar on the first or the last letter;
- the dual move requires the last l(w0) letters to be a one-sign reduced
  word of w0 preceded by a letter of the opposite sign k; it replaces that
  letter by the starred bar-flip k* and reverses-and-flips the w0 block.

Each move also carries a relabeling of seed indices (wire, occurrence):
trivial for everything except braid d-moves of order 3 (where the interior
slot crosses wires and the right edge shifts) and the dual move (where the
top slot of wire k crosses to wire k*).
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from . import cartan as weyl
from .cartan import CartanData, WeylElement
from .errors import InapplicableMove, InvariantViolation, NoPath, PreconditionFailed

SeedIndex = tuple[int, int]  # (wire, occurrence counter)

ALL_MOVE_KINDS = ("positive_d", "negative_d", "mixed2", "tau_left", "tau_right", "dual")
DHAT_KINDS = ("positive_d", "negative_d", "mixed2", "tau_right", "dual")
D_KINDS = ("positive_d", "negative_d", "mixed2")


@dataclass(frozen=True, slots=True)
class DoubleWord:
    letters: tuple[int, ...]

    def __post_init__(self):
        if 0 in self.letters:
            raise ValueError("letters are nonzero signed integers")

    @staticmethod
    def from_string(text: str) -> "DoubleWord":
        text = text.strip()
        if not text:
            return DoubleWord(())
        return DoubleWord(tuple(int(tok) for tok in text.split(",")))

    def to_string(self) -> str:
        return ",".join(str(x) for x in self.letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    @property
    def positive_subword(self) -> tuple[int, ...]:
        return tuple(x for x in self.letters if x > 0)

    @property
    def negative_subword(self) -> tuple[int, ...]:
        return tuple(-x for x in self.letters if x < 0)

    def bar(self) -> "DoubleWord":
        return DoubleWord(tuple(-x for x in self.letters))

    def concat(self, other: "DoubleWord") -> "DoubleWord":
        return DoubleWord(self.letters + other.letters)

    def counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for x in self.letters:
            out[abs(x)] = out.get(abs(x), 0) + 1
        return out

    def count(self, wire: int) -> int:
        return sum(1 for x in self.letters if abs(x) == wire)

    def __repr__(self):
        return f"DoubleWord({self.to_string()!r})"


def word(*letters: int) -> DoubleWord:
    return DoubleWord(tuple(letters))


def seed_indices(w: DoubleWord, rank: int) -> list[SeedIndex]:
    counts = w.counts()
    out = []
    for wire in range(1, rank + 1):
        for k in range(counts.get(wire, 0) + 1):
            out.append((wire, k))
    return out


def classify(w: DoubleWord, cdata: CartanData):
    """Return ("reduced", u, v) when both subwords are reduced, else
    ("not_reduced", u, v) with u, v the Weyl elements they spell anyway."""
    u = weyl.from_word(cdata, w.negative_subword)
    v = weyl.from_word(cdata, w.positive_subword)
    ok = (u.length() == len(w.negative_subword)
          and v.length() == len(w.positive_subword))
    return ("reduced" if ok else "not_reduced", u, v)


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Move:
    kind: str            # one of ALL_MOVE_KINDS
    pos: int = 0         # window start (d-moves, mixed2); unused for tau/dual
    order: int = 0       # window length for d-moves

    def describe(self) -> dict:
        return {"kind": self.kind, "pos": self.pos, "order": self.order}


def _d_order(letters: tuple[int, ...], p: int, positive: bool, cdata: CartanData) -> int:
    """The order m_ij of the d-move window of the given sign at p, or 0 when
    there is none: two letters of that sign on distinct wires i, j, then the
    rest of the m_ij letters in bounds, of that sign and alternating."""
    if p < 0 or p + 1 >= len(letters):
        return 0
    a, b = letters[p], letters[p + 1]
    if (a > 0) != positive or (b > 0) != positive or a == b:
        return 0
    order = cdata.m_order(abs(a), abs(b))
    return order if letters[p + 2:p + order] == ((a, b) * order)[2:order] else 0


# Bounded by the types in use.
@functools.lru_cache(maxsize=64)
def dual_block_length(cdata: CartanData) -> int:
    return weyl.longest_element(cdata).length()


def _dual_ok(w: DoubleWord, cdata: CartanData) -> bool:
    """Core/inverse-core dual-move shapes only: the trailing w0 block has one
    sign and the letter just before it has the opposite sign."""
    return _dual_ok_letters(w.letters, cdata)


def _dual_ok_letters(letters: tuple[int, ...], cdata: CartanData) -> bool:
    L = dual_block_length(cdata)
    return len(letters) > L and _dual_tail_ok(cdata, letters[-L - 1:])


# Bounded: a search meets few distinct tails of l(w0) + 1 letters.
@functools.lru_cache(maxsize=4096)
def _dual_tail_ok(cdata: CartanData, tail: tuple[int, ...]) -> bool:
    """``_dual_ok`` on the last l(w0) + 1 letters, the only ones it reads."""
    moving, block = tail[0], tail[1:]
    positive_block = block[0] > 0
    if any((x > 0) != positive_block for x in block) or (moving > 0) == positive_block:
        return False
    # L letters that spell w0 are a reduced word of it
    return weyl.from_word(cdata, tuple(abs(x) for x in block)) == weyl.longest_element(cdata)


def _check_letters(w: DoubleWord, cdata: CartanData) -> None:
    if w.letters and max(map(abs, w.letters)) > cdata.rank:
        raise PreconditionFailed(f"{w.to_string()} has letters outside 1..{cdata.rank}")


def applicable_moves(w: DoubleWord, cdata: CartanData,
                     kinds: Iterable[str] = ALL_MOVE_KINDS) -> list[Move]:
    _check_letters(w, cdata)
    return list(_moves_at(w.letters, cdata, tuple(kinds)))


# Bounded by the move kinds times the window starts and orders of the
# words in use.
@functools.lru_cache(maxsize=4096)
def _move(kind: str, pos: int, order: int = 0) -> Move:
    """The one Move of each label: a search stores its edges' labels, and
    equal labels share one object."""
    return Move(kind, pos, order)


def _moves_at(letters: tuple[int, ...], cdata: CartanData, kinds: tuple[str, ...]):
    """The moves applicable to letters already checked against the type,
    in ``applicable_moves`` order: mixed 2-moves, positive then negative
    d-moves, left and right tau moves, the dual move."""
    n = len(letters)
    if "mixed2" in kinds:
        for p in range(n - 1):
            if (letters[p] > 0) != (letters[p + 1] > 0):
                yield _move("mixed2", p, 2)
    for kind, positive in (("positive_d", True), ("negative_d", False)):
        if kind not in kinds:
            continue
        for p in range(n - 1):
            order = _d_order(letters, p, positive, cdata)
            if order:
                yield _move(kind, p, order)
    if "tau_left" in kinds and n >= 1:
        yield _move("tau_left", 0)
    if "tau_right" in kinds and n >= 1:
        yield _move("tau_right", n - 1)
    if "dual" in kinds and _dual_ok_letters(letters, cdata):
        yield _move("dual", n - 1 - dual_block_length(cdata))


def _rewrite(letters: tuple[int, ...], move: Move, cdata: CartanData) -> tuple[int, ...]:
    """The letters after a move known to apply: the one statement of each
    move's rewrite, read by ``apply_move`` and by the move searches."""
    kind = move.kind
    if kind == "mixed2":
        p = move.pos
        return letters[:p] + (letters[p + 1], letters[p]) + letters[p + 2:]
    if kind == "positive_d" or kind == "negative_d":
        p, m = move.pos, move.order
        # the window a,b,a,... becomes b,a,b,...
        return letters[:p] + ((letters[p + 1], letters[p]) * m)[:m] + letters[p + m:]
    if kind == "tau_left":
        return (-letters[0],) + letters[1:]
    if kind == "tau_right":
        return letters[:-1] + (-letters[-1],)
    # dual: the moving letter k becomes the bar of k*, the block reverses
    # and flips
    L = dual_block_length(cdata)
    moving = letters[-L - 1]
    star = weyl.star_involution(cdata)
    return (letters[:-L - 1] + (-_signed(star[abs(moving)], moving > 0),)
            + tuple(-x for x in reversed(letters[-L:])))


def apply_move(w: DoubleWord, move: Move, cdata: CartanData) -> DoubleWord:
    """The word after the move.  D-moves and the dual move read the type and
    reject letters beyond the rank; mixed 2-moves and tau moves, most of the
    edges of a move search, read no type data and go unchecked."""
    letters = w.letters
    kind = move.kind
    if kind == "mixed2":
        p = move.pos
        if p < 0 or p + 1 >= len(letters) or (letters[p] > 0) == (letters[p + 1] > 0):
            raise InapplicableMove(f"mixed2 at {p} in {w.to_string()}")
    elif kind in ("positive_d", "negative_d"):
        _check_letters(w, cdata)
        order = _d_order(letters, move.pos, kind == "positive_d", cdata)
        if order == 0 or order != move.order:
            raise InapplicableMove(f"{kind}({move.order}) at {move.pos} in {w.to_string()}")
    elif kind in ("tau_left", "tau_right"):
        if not letters:
            raise InapplicableMove("tau on empty word")
    elif kind == "dual":
        _check_letters(w, cdata)
        if not _dual_ok(w, cdata):
            raise InapplicableMove(f"dual move on {w.to_string()}")
    else:
        raise InapplicableMove(f"unknown move kind {kind!r}")
    return DoubleWord(_rewrite(letters, move, cdata))


def _signed(wire: int, positive: bool) -> int:
    return wire if positive else -wire


def index_map(w: DoubleWord, move: Move, cdata: CartanData) -> dict[SeedIndex, SeedIndex]:
    """Relabeling of seed indices induced by a move (identity entries omitted)."""
    out: dict[SeedIndex, SeedIndex] = {}
    if move.kind in ("positive_d", "negative_d") and move.order == 3:
        p = move.pos
        i, j = abs(w[p]), abs(w[p + 1])
        ci = sum(1 for x in w.letters[:p] if abs(x) == i)
        cj = sum(1 for x in w.letters[:p] if abs(x) == j)
        out[(i, ci + 1)] = (j, cj + 1)           # mutated slot crosses wires
        out[(i, ci + 2)] = (i, ci + 1)           # right edge of wire i
        out[(j, cj + 1)] = (j, cj + 2)           # right edge of wire j
        for k in range(ci + 3, w.count(i) + 1):
            out[(i, k)] = (i, k - 1)
        for k in range(cj + 2, w.count(j) + 1):
            out[(j, k)] = (j, k + 1)
    elif move.kind == "dual":
        # frozen slots match wire-preservingly; the moved wire loses one slot
        # so its top counter drops, the starred wire gains one
        L = dual_block_length(cdata)
        k_wire = abs(w.letters[-L - 1])
        target = apply_move(w, move, cdata)
        if target.count(k_wire) != w.count(k_wire):
            out[(k_wire, w.count(k_wire))] = (k_wire, target.count(k_wire))
            ks = weyl.star_involution(cdata)[k_wire]
            out[(ks, w.count(ks))] = (ks, target.count(ks))
    return out


# States one breadth-first ball may expand, added up over every query it
# answers; a query that needs more raises NoPath.  A ball thus holds at most
# 1 + _MAX_STATES * (most edges out of one state) states: the expanded ones
# and their successors not expanded yet.  Edges are not held here: over D(v)
# the numbered move graph, maps._DhatGraph, holds the edges of at most
# maps._EDGE_STATES states, shared by every ball and search over it, and
# drops its numbering between searches once it numbers more than
# _MAX_STATES states.
_MAX_STATES = 200_000


class _Ball:
    """A breadth-first search from ``anchor``, grown only as far as a query
    needs and resumable across queries.  It holds one dict, each reached
    state to (the state it was first reached from, the label of that edge,
    its depth), and the queue of states not expanded yet; the anchor maps to
    (None, None, 0).  ``successors(state)`` yields (label, next state) pairs,
    and the first edge in that order to reach a state is the one stored.

    Breadth-first order reaches every state first along its least shortest
    path in ``successors`` order, so ``path_from`` reads the stored labels
    back to the anchor.  ``path_to`` needs the graph to be symmetric (every
    edge's reverse is an edge): then the distance to the anchor is the
    stored depth, and the least shortest path to the anchor takes at each
    step the first successor one layer nearer it."""

    def __init__(self, anchor, successors):
        self.anchor = anchor
        self._successors = successors
        self._parent = {anchor: (None, None, 0)}
        self._queue = deque([anchor])
        self._expanded = 0

    def _reach(self, state) -> bool:
        """Grow until ``state`` is reached; False when the ball is exhausted
        first.  The bound is checked before a state leaves the queue, and a
        state is expanded all or nothing, so an abort loses no state."""
        parent, queue = self._parent, self._queue
        while state not in parent:
            if not queue:
                return False
            if self._expanded >= _MAX_STATES:
                raise NoPath(f"search aborted after {_MAX_STATES} states")
            head = queue[0]
            fresh = [(label, nxt) for label, nxt in self._successors(head) if nxt not in parent]
            queue.popleft()
            self._expanded += 1
            depth = parent[head][2] + 1
            for label, nxt in fresh:
                if nxt not in parent:
                    parent[nxt] = (head, label, depth)
                    queue.append(nxt)
        return True

    def path_from(self, goal) -> Optional[list]:
        """Labels along the least shortest path from the anchor to goal, or
        None when goal is not reachable."""
        if not self._reach(goal):
            return None
        path = []
        state, label, _ = self._parent[goal]
        while state is not None:
            path.append(label)
            state, label, _ = self._parent[state]
        path.reverse()
        return path

    def path_to(self, start) -> Optional[list]:
        """Labels along the least shortest path from start to the anchor, or
        None when the anchor is not reachable.  Raises InvariantViolation
        when no successor of a state on the walk is one layer nearer the
        anchor: the graph is not symmetric there."""
        if not self._reach(start):
            return None
        parent = self._parent
        path, state, d = [], start, parent[start][2]
        while d:
            for label, nxt in self._successors(state):
                if nxt in parent and parent[nxt][2] == d - 1:
                    path.append(label)
                    state, d = nxt, d - 1
                    break
            else:
                raise InvariantViolation(f"no successor of {state} is nearer {self.anchor}")
        return path


def _search(start, goal, successors) -> Optional[list]:
    """Labels along the least shortest path from start to goal
    (breadth-first, in ``successors`` order), or None when the component is
    exhausted: a one-shot ``_Ball`` from start.  Raises NoPath after
    ``_MAX_STATES`` expansions."""
    return _Ball(start, successors).path_from(goal)


def move_path(source: DoubleWord, target: DoubleWord, cdata: CartanData,
              kinds: Iterable[str] = ALL_MOVE_KINDS) -> list[Move]:
    """Shortest chain of moves from source to target, searched over letters.
    Raises NoPath when the component is exhausted or the bound is reached."""
    kinds = tuple(kinds)
    for end in (source, target):
        _check_letters(end, cdata)

    def successors(letters: tuple[int, ...]):
        for mv in _moves_at(letters, cdata, kinds):
            yield mv, _rewrite(letters, mv, cdata)

    path = _search(source.letters, target.letters, successors)
    if path is None:
        raise NoPath(f"no {kinds} path {source.to_string()} -> {target.to_string()}")
    return path


# ---------------------------------------------------------------------------
# Word constructions: sections, squares, stars, trivial (w1,w2)_v-words
# ---------------------------------------------------------------------------

def is_positive_reduced(w: DoubleWord, cdata: CartanData) -> bool:
    return all(x > 0 for x in w.letters) and weyl.is_reduced(cdata, w.positive_subword)


def is_negative_reduced(w: DoubleWord, cdata: CartanData) -> bool:
    return all(x < 0 for x in w.letters) and weyl.is_reduced(cdata, w.negative_subword)


def section_word(w: DoubleWord, k: int, cdata: CartanData) -> DoubleWord:
    """k-th section of a one-sign reduced word, k in [1, n+1].

    For a positive word i1..in it is the word (bar of in..ik)(i1..i_{k-1});
    for a negative word the mirror image: (bar of jk..jn)(j_{k-1}..j1).
    """
    n = len(w)
    if not 1 <= k <= n + 1:
        raise PreconditionFailed(f"section index {k} outside [1,{n + 1}]")
    if is_positive_reduced(w, cdata):
        tail = tuple(-x for x in reversed(w.letters[k - 1:]))
        head = w.letters[:k - 1]
        return DoubleWord(tail + head)
    if is_negative_reduced(w, cdata):
        tail = tuple(w.letters[k - 1:])
        head = tuple(-x for x in reversed(w.letters[:k - 1]))
        return DoubleWord(tail + head)
    raise PreconditionFailed("sections need a one-sign reduced word")


def square_word(w: DoubleWord, cdata: CartanData) -> DoubleWord:
    """Reverse the word and flip every bar (the involution written i -> i-square)."""
    if is_positive_reduced(w, cdata):
        return section_word(w, 1, cdata)
    if is_negative_reduced(w, cdata):
        return section_word(w, len(w) + 1, cdata)
    raise PreconditionFailed("square needs a one-sign reduced word")


def star_word(w: DoubleWord, cdata: CartanData) -> DoubleWord:
    """Letterwise image under the star involution composed with the bar map."""
    star = weyl.star_involution(cdata)
    return DoubleWord(tuple(-_signed(star[abs(x)], x > 0) for x in w.letters))


def l_move(w: DoubleWord) -> DoubleWord:
    if not w.letters:
        raise PreconditionFailed("L-move on empty word")
    return DoubleWord((-w.letters[0],) + w.letters[1:])


def r_move(w: DoubleWord) -> DoubleWord:
    if not w.letters:
        raise PreconditionFailed("R-move on empty word")
    return DoubleWord(w.letters[:-1] + (-w.letters[-1],))


@dataclass(frozen=True)
class TrivialDecomposition:
    """A factorization word = i1 i2 witnessing membership in W(w1,w2)_v."""

    w1: WeylElement
    w2: WeylElement
    v: WeylElement
    split: int  # i1 = word[:split], i2 = word[split:]


def trivial_vword(cdata: CartanData, w1: WeylElement, w2: WeylElement,
                  v: WeylElement) -> DoubleWord:
    """The canonical trivial (w1,w2)_v-word: each factor written bars first.

    i1 spells (w1*)^{-1} in the barred alphabet then v w1^{-1} in the plain
    one; i2 spells w2^{-1} barred then w0 w2^{-1} plain.
    """
    if not weyl.right_weak_leq(w1, v):
        raise PreconditionFailed("w1 must be below v in the right weak order")
    w0 = weyl.longest_element(cdata)
    return _bars_first(weyl.star_element(w1).inverse().reduced_word(),
                       (v * w1.inverse()).reduced_word(),
                       w2.inverse().reduced_word(),
                       (w0 * w2.inverse()).reduced_word())


def _bars_first(n1, p1, n2, p2) -> DoubleWord:
    return DoubleWord(tuple(-x for x in n1) + tuple(p1) + tuple(-x for x in n2) + tuple(p2))


def _factor(cdata: CartanData, n1, p1, n2, p2,
            v: Optional[WeylElement] = None, w1: Optional[WeylElement] = None):
    """(w1, w2, v) when the cut subwords -- the barred and plain letters of
    i1 (n1, p1) and of i2 (n2, p2) -- exhibit i1 i2 as a trivial
    (w1,w2)_v-word, else None.  ``v`` and ``w1`` pin the class when given.

    The conditions: all four subwords reduced; n1 spells (w1*)^{-1}, n2
    spells w2^{-1}; p2 spells w0 w2^{-1} and p1 spells v w1^{-1}, both
    length-additively; and w1 <= v in the right weak order.  Only n1 and n2
    need a reducedness test: l(w0 w2^{-1}) = l(w0) - l(w2), and w1 <= v gives
    l(v w1^{-1}) = l(v) - l(w1), so the length equalities make p2 and p1 reduced.
    """
    if not (weyl.is_reduced(cdata, n1) and weyl.is_reduced(cdata, n2)):
        return None
    cand_w1 = weyl.star_element(weyl.from_word(cdata, n1).inverse())
    if w1 is not None and cand_w1 != w1:
        return None
    w2 = weyl.from_word(cdata, n2).inverse()
    w0 = weyl.longest_element(cdata)
    if len(p2) != w0.length() - w2.length() or weyl.from_word(cdata, p2) != w0 * w2.inverse():
        return None
    cand_v = weyl.from_word(cdata, p1) * cand_w1
    if v is not None and cand_v != v:
        return None
    if len(p1) != cand_v.length() - cand_w1.length():
        return None
    if not weyl.right_weak_leq(cand_w1, cand_v):
        return None
    return cand_w1, w2, cand_v


# Bounded: verify --all --type A2 asks about 150 distinct keys.
@functools.lru_cache(maxsize=4096)
def _subword_cuts(cdata: CartanData, shuffle: tuple[int, ...],
                  v: Optional[WeylElement] = None, w1: Optional[WeylElement] = None
                  ) -> tuple[tuple[int, TrivialDecomposition, DoubleWord], ...]:
    """Every cut of the one-sign subwords of a bars-first word, given by its
    letters, that factors them as a trivial (w1,w2)_v-word i1 i2, as (cut
    of the barred subword, decomposition, bars-first trivial word).  A cut
    of the barred subword fixes the length of p2, and a pinned w1 fixes
    that cut (n1 is a reduced word of (w1*)^{-1}).  This is the one class
    cache: a word's classes depend only on its one-sign subwords, which
    mixed 2-moves, most of the edges of a class search, keep; its
    bars-first shuffle spells them."""
    neg = tuple(-x for x in shuffle if x < 0)
    pos = tuple(x for x in shuffle if x > 0)
    w0_length = weyl.longest_element(cdata).length()
    out = []
    for ncut in range(len(neg) + 1) if w1 is None else (w1.length(),):
        pcut = len(pos) - (w0_length - (len(neg) - ncut))
        if ncut > len(neg) or not 0 <= pcut <= len(pos):
            continue
        n1, p1, n2, p2 = neg[:ncut], pos[:pcut], neg[ncut:], pos[pcut:]
        found = _factor(cdata, n1, p1, n2, p2, v, w1)
        if found is not None:
            out.append((ncut, TrivialDecomposition(*found, ncut + pcut),
                        _bars_first(n1, p1, n2, p2)))
    return tuple(out)


def _cuts_of(w: DoubleWord, cdata: CartanData, v: Optional[WeylElement],
             w1: Optional[WeylElement]):
    """``_subword_cuts`` of w's bars-first shuffle, once its letters pass."""
    _check_letters(w, cdata)
    return _letter_cuts(w.letters, cdata, v, w1)


def _letter_cuts(letters: tuple[int, ...], cdata: CartanData, v: Optional[WeylElement],
                 w1: Optional[WeylElement]):
    """``_subword_cuts`` of the bars-first shuffle of letters already checked
    against the type."""
    shuffle = tuple(sorted(letters, key=(0).__lt__))  # stable: bars first, order kept
    return _subword_cuts(cdata, shuffle, v, w1)


def _class_cuts(w: DoubleWord, cdata: CartanData,
                v: Optional[WeylElement] = None, w1: Optional[WeylElement] = None):
    """Every cut of w's one-sign subwords that factors them as a trivial
    (w1,w2)_v-word i1 i2 (``_subword_cuts``): yields (decomposition, trivial
    word), the trivial word being w itself when w is factored at that cut,
    else the bars-first shuffle.  Mixed 2-moves preserve the one-sign
    subwords, so every trivial word is in w's mixed-2 class.  A cut of w
    itself is the subword cut at its number of bars, so factored cuts come
    out in word order."""
    for ncut, dec, trivial in _cuts_of(w, cdata, v, w1):
        factored = sum(1 for x in w.letters[:dec.split] if x < 0) == ncut
        yield dec, (w if factored else trivial)


def trivial_decompositions(w: DoubleWord, cdata: CartanData,
                           v: Optional[WeylElement] = None) -> list[TrivialDecomposition]:
    """All splits word = i1 i2 exhibiting the word as a trivial (w1,w2)_v-word.

    When ``v`` is given only decompositions for that v are returned; otherwise
    v is derived from the split (v = value(pos(i1)) * w1).
    """
    return [dec for dec, trivial in _class_cuts(w, cdata, v) if trivial is w]


def shuffle_class_decomposition(w: DoubleWord, cdata: CartanData,
                                v: Optional[WeylElement] = None,
                                w1: Optional[WeylElement] = None):
    """The factorization class a word is evaluated in by default, with the
    trivial word it is read on: the word itself at its earliest factored
    cut, else the first class found by cutting its one-sign subwords, with
    that class's trivial word; None when w lies in no class.  The cuts come
    from the one class cache, ``_subword_cuts``."""
    first = None
    for found in _class_cuts(w, cdata, v, w1):
        if found[1] is w:
            return found
        if first is None:
            first = found
    return first


def is_in_dv(w: DoubleWord, cdata: CartanData, v: WeylElement,
             w1: Optional[WeylElement] = None) -> bool:
    return bool(_cuts_of(w, cdata, v, w1))


def is_in_class(w: DoubleWord, cdata: CartanData, v: WeylElement,
                w1: WeylElement, w2: WeylElement) -> bool:
    """Membership in the single class W(w1,w2)_v.  Pinning w1 fixes the cut
    of the barred subword, so the class found is the only candidate."""
    found = shuffle_class_decomposition(w, cdata, v, w1)
    return found is not None and found[0].w2 == w2


def canonical_class(w: DoubleWord, cdata: CartanData,
                    v: Optional[WeylElement] = None,
                    w1: Optional[WeylElement] = None
                    ) -> Optional[tuple[TrivialDecomposition, DoubleWord]]:
    """The factorization context a word is evaluated in by default, with the
    trivial word it is read on (see ``shuffle_class_decomposition``)."""
    return shuffle_class_decomposition(w, cdata, v, w1)


def dual_move_classes(w: DoubleWord, cdata: CartanData
                      ) -> tuple[WeylElement, WeylElement]:
    """(required source class, resulting class) of the dual move at w.

    For the shape prefix-k_bar-positive_block the source must sit in the
    (w1, e) class with w1 spelled by the negative subword up to and
    including the moving letter; the image lands in the class where that
    letter is gone and the flipped block contributes the longest element on
    the second factor.  The opposite shape is the reverse edge, its pair swapped.
    """
    L = dual_block_length(cdata)
    if not _dual_ok(w, cdata):
        raise InapplicableMove(f"no dual move at {w.to_string()}")
    if w.letters[-1] > 0:  # shape A
        i1 = DoubleWord(w.letters[:-L])
        u = weyl.from_word(cdata, i1.negative_subword)
        src_w1 = weyl.star_element(u.inverse())
        u_prefix = weyl.from_word(cdata, DoubleWord(w.letters[:-L - 1]).negative_subword)
        tgt_w1 = weyl.star_element(u_prefix.inverse())
        return src_w1, tgt_w1
    return dual_move_classes(apply_move(w, Move("dual", len(w) - 1 - L), cdata), cdata)[::-1]


@dataclass(frozen=True)
class MembershipWitness:
    w1: WeylElement
    w2: WeylElement
    trivial_word: DoubleWord
    chain: tuple[Move, ...]  # mixed 2-moves from the input word to the trivial word


def membership(w: DoubleWord, cdata: CartanData, v: WeylElement,
               w1: Optional[WeylElement] = None) -> Optional[MembershipWitness]:
    """Decide membership in D_{w1}(v) (any w1 <= v when not pinned): the
    default class of the word, its trivial word and a shortest chain of
    mixed 2-moves from the word to it."""
    found = shuffle_class_decomposition(w, cdata, v, w1)
    if found is None:
        return None
    dec, trivial = found
    return MembershipWitness(dec.w1, dec.w2, trivial,
                             tuple(move_path(w, trivial, cdata, ("mixed2",))))
