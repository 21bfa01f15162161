"""Cartan data and Weyl group combinatorics.

A Weyl group element is represented by its integer action on the simple-root
basis: w(alpha_j) = sum_k M[k][j] alpha_k.  Every root of a finite Weyl group
has coordinates of a single sign in that basis, so length, descents, reduced
words and the longest element all come out of sign inspections; no word
normal forms are needed and equality is plain matrix equality.

Simple reflections act by s_i(alpha_j) = alpha_j - a_ij alpha_i, and on a
weight written in the fundamental-weight basis by s_i(gamma) = gamma -
gamma_i alpha_i with alpha_i = sum_k a_ki omega_k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InvariantViolation, UnsupportedType

_MOVE_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


@dataclass(frozen=True)
class CartanData:
    """Cartan matrix, symmetrizers and braid-move orders of a finite type."""

    type_label: str                      # e.g. "A2", "G2"
    a: tuple[tuple[int, ...], ...]       # Cartan matrix, a[i][j] = a_{i+1,j+1}
    d: tuple[int, ...]                   # symmetrizers: d_i a_ij = d_j a_ji

    @property
    def rank(self) -> int:
        return len(self.d)

    def m_order(self, i: int, j: int) -> int:
        """Order of s_i s_j (letters are 1-based); 2,3,4,6 for a_ij a_ji = 0,1,2,3."""
        prod = self.a[i - 1][j - 1] * self.a[j - 1][i - 1]
        return _MOVE_ORDER[prod]

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """Computed once: a CartanData keys every word, class and plan
        cache.  The label is left out, so the value does not depend on the
        string hash seed."""
        return hash((self.a, self.d))

    def validate(self) -> None:
        """Raise InvariantViolation unless ``a`` is a Cartan matrix
        symmetrized by ``d``."""
        n = self.rank
        for i in range(n):
            if self.a[i][i] != 2:
                raise InvariantViolation(f"diagonal entry {i + 1} of {self.type_label} is not 2")
            for j in range(n):
                if i != j and (self.a[i][j] > 0 or (self.a[i][j] == 0) != (self.a[j][i] == 0)):
                    raise InvariantViolation(
                        f"off-diagonal entry {i + 1},{j + 1} of {self.type_label} is invalid")
                if self.d[i] * self.a[i][j] != self.d[j] * self.a[j][i]:
                    raise InvariantViolation(f"d does not symmetrize {self.type_label}")


def _cartan_matrix(letter: str, n: int) -> tuple[list[list[int]], list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if letter == "A":
        for i in range(n - 1):
            link(i, i + 1)
        d = [1] * n
    elif letter == "B":
        if n < 2:
            raise UnsupportedType("B requires rank >= 2")
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -1, -2)
        d = [2] * (n - 1) + [1]
    elif letter == "C":
        if n < 2:
            raise UnsupportedType("C requires rank >= 2")
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -2, -1)
        d = [1] * (n - 1) + [2]
    elif letter == "D":
        if n < 3:
            raise UnsupportedType("D requires rank >= 3")
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
        d = [1] * n
    elif letter == "E":
        if n not in (6, 7, 8):
            raise UnsupportedType("E requires rank 6, 7 or 8")
        for i in range(n - 2):
            link(i, i + 1)
        link(2, n - 1)
        d = [1] * n
    elif letter == "F":
        if n != 4:
            raise UnsupportedType("F requires rank 4")
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
        d = [1, 1, 2, 2]
    elif letter == "G":
        if n != 2:
            raise UnsupportedType("G requires rank 2")
        link(0, 1, -1, -3)
        d = [3, 1]
    else:
        raise UnsupportedType(f"unknown type letter {letter!r}")
    return a, d


@functools.lru_cache(maxsize=None)
def build_cartan(type_label: str) -> CartanData:
    """Build Cartan data from a label like "A2", "B2", "G2", "A3"."""
    label = type_label.strip().upper()
    if len(label) < 2 or not label[1:].isdigit():
        raise UnsupportedType(f"bad type label {type_label!r}")
    letter, rank = label[0], int(label[1:])
    if rank < 1:
        raise UnsupportedType("rank must be positive")
    a, d = _cartan_matrix(letter, rank)
    data = CartanData(label, tuple(tuple(r) for r in a), tuple(d))
    data.validate()
    return data


@dataclass(frozen=True)
class WeylElement:
    """Weyl group element as its matrix on the simple-root basis."""

    cartan: CartanData
    root_matrix: tuple[tuple[int, ...], ...]  # columns = images of alpha_j

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        n = self.cartan.rank
        a, b = self.root_matrix, other.root_matrix
        prod = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        return WeylElement(self.cartan, prod)

    def act_on_root(self, coords: Sequence[int]) -> tuple[int, ...]:
        n = self.cartan.rank
        return tuple(sum(self.root_matrix[i][k] * coords[k] for k in range(n))
                     for i in range(n))

    def act_on_weight(self, coords: Sequence) -> tuple:
        """Action on a weight in fundamental-weight coordinates."""
        out = list(coords)
        for i in reversed(self.reduced_word()):
            # s_i first on the original vector when reading the word left-to-right
            out = _simple_on_weight(self.cartan, i, out)
        return tuple(out)

    def is_identity(self) -> bool:
        n = self.cartan.rank
        return all(self.root_matrix[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))

    def right_descents(self) -> list[int]:
        """Letters i with l(w s_i) < l(w), i.e. w(alpha_i) negative."""
        n = self.cartan.rank
        return [j + 1 for j in range(n)
                if all(self.root_matrix[i][j] <= 0 for i in range(n))]

    # Bounded: the Weyl groups in use have at most a few thousand elements.
    @functools.lru_cache(maxsize=4096)
    def inverse(self) -> "WeylElement":
        return from_word(self.cartan, self.reduced_word()[::-1])

    def length(self) -> int:
        return len(self.reduced_word())

    def reduced_word(self) -> tuple[int, ...]:
        """Canonical reduced word by greedy right-descent stripping."""
        return _reduced_word_cached(self)

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """Computed once: search states and class caches hash elements
        far more often than they build them."""
        return hash((self.cartan, self.root_matrix))


def _simple_on_weight(cartan: CartanData, i: int, coords: Sequence) -> list:
    out = list(coords)
    c = coords[i - 1]
    for k in range(cartan.rank):
        out[k] -= c * cartan.a[k][i - 1]
    return out


@functools.lru_cache(maxsize=None)
def identity_element(cartan: CartanData) -> WeylElement:
    n = cartan.rank
    return WeylElement(cartan, tuple(tuple(1 if i == j else 0 for j in range(n))
                                     for i in range(n)))


@functools.lru_cache(maxsize=None)
def simple(cartan: CartanData, i: int) -> WeylElement:
    """The simple reflection s_i (1-based), acting on the root basis."""
    n = cartan.rank
    if not 1 <= i <= n:
        raise UnsupportedType(f"no simple reflection {i} in rank {n}")
    cols = []
    for j in range(n):
        col = [1 if k == j else 0 for k in range(n)]
        col[i - 1] -= cartan.a[i - 1][j]
        cols.append(col)
    matrix = tuple(tuple(cols[j][i_] for j in range(n)) for i_ in range(n))
    return WeylElement(cartan, matrix)


def from_word(cartan: CartanData, word: Sequence[int]) -> WeylElement:
    """The product s_{i1} s_{i2} ... of the letters of a word."""
    return _from_word(cartan, tuple(word))


# Bounded: the class tests of a search spell few distinct subwords: 13
# after verify --all --type A2, 21 on B2, 43 after both G2 generators.
@functools.lru_cache(maxsize=8192)
def _from_word(cartan: CartanData, word: tuple[int, ...]) -> WeylElement:
    w = identity_element(cartan)
    for i in word:
        w = w * simple(cartan, i)
    return w


# Bounded: the Weyl groups in use have at most a few thousand elements.
@functools.lru_cache(maxsize=8192)
def _reduced_word_cached(w: WeylElement) -> tuple[int, ...]:
    word: list[int] = []
    cur = w
    while True:
        descents = cur.right_descents()
        if not descents:
            break
        i = descents[0]
        word.append(i)
        cur = cur * simple(cur.cartan, i)
    if not cur.is_identity():
        raise AssertionError("descent stripping failed to reach the identity")
    return tuple(reversed(word))


def is_reduced(cartan: CartanData, word: Sequence[int]) -> bool:
    return from_word(cartan, word).length() == len(word)


def reduced_words(w: WeylElement) -> set[tuple[int, ...]]:
    """All reduced words of w.  Exponential; meant for small rank."""

    @functools.lru_cache(maxsize=None)
    def rec(elem: WeylElement) -> frozenset:
        if elem.is_identity():
            return frozenset({()})
        out = set()
        for i in elem.right_descents():
            for prefix in rec(elem * simple(elem.cartan, i)):
                out.add(prefix + (i,))
        return frozenset(out)

    return set(rec(w))


@functools.lru_cache(maxsize=None)
def longest_element(cartan: CartanData) -> WeylElement:
    """Longest element of the Weyl group, computed once per type."""
    w = identity_element(cartan)
    while True:
        for i in range(1, cartan.rank + 1):
            # ascend while w(alpha_i) is still positive
            col = w.act_on_root(tuple(1 if k == i - 1 else 0 for k in range(cartan.rank)))
            if all(c >= 0 for c in col):
                w = w * simple(cartan, i)
                break
        else:
            return w


@functools.lru_cache(maxsize=None)
def star_involution(cartan: CartanData) -> tuple[int, ...]:
    """The permutation i -> i* with alpha_{i*} = -w0(alpha_i).

    Returned as a tuple indexed 1..rank (entry 0 unused).
    """
    w0 = longest_element(cartan)
    n = cartan.rank
    perm = [0] * (n + 1)
    for i in range(1, n + 1):
        image = [-c for c in w0.act_on_root(tuple(1 if k == i - 1 else 0 for k in range(n)))]
        targets = [j for j in range(n) if image[j] != 0]
        if not (len(targets) == 1 and image[targets[0]] == 1):
            raise InvariantViolation("-w0 must permute simple roots")
        perm[i] = targets[0] + 1
    return tuple(perm)


def star(cartan: CartanData, i: int) -> int:
    return star_involution(cartan)[i]


def star_element(w: WeylElement) -> WeylElement:
    """w* obtained by applying * to every letter of a reduced word."""
    perm = star_involution(w.cartan)
    return from_word(w.cartan, tuple(perm[i] for i in w.reduced_word()))


def right_weak_leq(lo: WeylElement, hi: WeylElement) -> bool:
    """lo <= hi in the weak order generated by hi -> s_i hi with lengths
    dropping by one: equivalently hi = u * lo with additive lengths."""
    u = hi * lo.inverse()
    return u.length() + lo.length() == hi.length()


def positive_roots(cartan: CartanData) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates (orbit closure)."""
    n = cartan.rank
    simples = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    seen = set(simples)
    frontier = list(simples)
    refl = [simple(cartan, i + 1) for i in range(n)]
    while frontier:
        root = frontier.pop()
        for s in refl:
            img = s.act_on_root(root)
            if all(c >= 0 for c in img) and img not in seen:
                seen.add(img)
                frontier.append(img)
    return sorted(seen)


def weyl_iter(cartan: CartanData) -> Iterator[WeylElement]:
    """Every element of the (finite) Weyl group, BFS by length."""
    seen = {identity_element(cartan)}
    frontier = [identity_element(cartan)]
    refl = [simple(cartan, i + 1) for i in range(cartan.rank)]
    while frontier:
        nxt = []
        for w in frontier:
            yield w
            for s in refl:
                ws = w * s
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        frontier = nxt
