"""Exact scalar arithmetic and randomized map-equality testing.

Scalars come in three flavours, all exact:

- ``fractions.Fraction`` for rational computations (always lowest terms,
  positive denominator -- the stdlib maintains the invariant);
- ``Fp`` for arithmetic in a prime field, used by the Schwartz-Zippel
  style identity tester;
- ``Jet`` for first-order jets ``value + sum_i partials[i] * eps_i``,
  which turn any exact evaluation into an exact gradient computation
  (the Leibniz rule holds on the nose, no finite differences anywhere).
  A jet over F_p (value and partials Fp of one prime) stores int residues
  and computes on them, as ``Fp``'s same-prime fast path does; a jet over
  Q or at a mixed point stores its scalars and keeps the reference rules,
  which also take every operation the residues do not.

A "rational map" in this module is simply a callable taking a tuple of
scalars and returning a tuple of scalars; it must raise
:class:`~cluster_dual.errors.SingularPoint` when asked to evaluate on its
exceptional locus.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .errors import DivisionByZero, IndexOutOfRange, SingularPoint

# Scalars the library computes with.  Jet is defined below; plain ints are
# accepted on input and coerced.
Scalar = Union[Fraction, "Fp", "Jet", int]

# An Fp or Jet without __init__: the fast paths below fill in reduced values.
_new = object.__new__


class Fp:
    """An element of the prime field F_p.

    Instances are immutable and interoperate with plain ints.  Division is
    exact (modular inverse); dividing by zero raises DivisionByZero like the
    rational backend does, and so does dividing by a residue that shares a
    factor with a composite modulus.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def __repr__(self):
        return f"Fp({self.value} mod {self.p})"

    def _lift(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        if isinstance(other, Fraction):
            return Fp(other.numerator, self.p) / Fp(other.denominator, self.p)
        return NotImplemented

    # Fast path: an Fp operand of the same prime is combined in this one
    # call, and the result built without __init__; every other operand goes
    # through _lift, which rejects a mixed prime.

    def __add__(self, other):
        p = self.p
        if type(other) is Fp and other.p == p:
            out = _new(Fp)
            out.value = (self.value + other.value) % p
            out.p = p
            return out
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else Fp(self.value + o.value, p)

    __radd__ = __add__

    def __sub__(self, other):
        p = self.p
        if type(other) is Fp and other.p == p:
            out = _new(Fp)
            out.value = (self.value - other.value) % p
            out.p = p
            return out
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else Fp(self.value - o.value, p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else Fp(o.value - self.value, self.p)

    def __mul__(self, other):
        p = self.p
        if type(other) is Fp and other.p == p:
            out = _new(Fp)
            out.value = self.value * other.value % p
            out.p = p
            return out
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else Fp(self.value * o.value, p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.value * _inverse_mod(o.value, self.p), self.p)

    def __rtruediv__(self, other):
        # ``1 / x`` lands here with an int numerator, which needs no lift
        p = self.p
        if type(other) is int:
            num = other
        else:
            o = self._lift(other)
            if o is NotImplemented:
                return NotImplemented
            num = o.value
        out = _new(Fp)
        out.value = num * _inverse_mod(self.value, p) % p
        out.p = p
        return out

    def __neg__(self):
        out = _new(Fp)
        out.value = -self.value % self.p
        out.p = self.p
        return out

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return Fp(pow(self.value, n, self.p), self.p)

    def inverse(self) -> "Fp":
        return Fp(_inverse_mod(self.value, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        if isinstance(other, Fraction):
            return other.denominator % self.p != 0 and self == self._lift(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0


def _fp_prime(scalars: Iterable) -> Optional[int]:
    """The modulus p when every scalar is an Fp mod p, else None."""
    p = None
    for x in scalars:
        if type(x) is not Fp or (p is not None and x.p != p):
            return None
        p = x.p
    return p


def _fp_of_residue(value: int, p: int) -> Fp:
    """The Fp of a residue already reduced mod p, built without __init__."""
    out = _new(Fp)
    out.value = value
    out.p = p
    return out


def _inverse_mod(value: int, p: int) -> int:
    try:
        return pow(value, -1, p)
    except ValueError:
        raise DivisionByZero(f"{value} is not invertible mod {p}") from None


def _unit_inverse(x: Optional[int], p: int) -> Optional[int]:
    """1/x mod p for a residue x that is a unit, else None."""
    if x:
        try:
            return pow(x, -1, p)
        except ValueError:
            pass
    return None


def _jet_of_residues(value: int, partials: tuple, p: int) -> "Jet":
    """The Jet of residues already reduced mod p, built without __init__."""
    out = _new(Jet)
    out._v = value
    out._d = partials
    out._p = p
    return out


class Jet:
    """First-order jet: a value together with one partial per tracked coordinate.

    Arithmetic satisfies the Leibniz rule exactly; division requires a
    nonzero value part.  The partials live in the same field as the value.

    When the value and every partial are Fp of one prime p (``_fp_prime``),
    the jet stores their residues as ints, and p; ``value`` and ``partials``
    still read back as Fp.  An operation on two such jets, or on one and an
    int, Fp or Fraction of its field, then takes one pass over the ints.
    Every other jet (over Q, or at a mixed point) stores its scalars, and
    every other operation, a failing one included, runs the reference rules
    after the fast paths below.
    """

    __slots__ = ("_v", "_d", "_p")

    def __init__(self, value, partials: tuple):
        partials = tuple(partials)
        p = _fp_prime((value, *partials))
        if p is None:
            self._v, self._d, self._p = value, partials, None
        else:
            self._v, self._d, self._p = value.value, tuple(a.value for a in partials), p

    @property
    def value(self):
        p = self._p
        return self._v if p is None else _fp_of_residue(self._v, p)

    @property
    def partials(self) -> tuple:
        p = self._p
        return self._d if p is None else tuple([_fp_of_residue(a, p) for a in self._d])

    def __repr__(self):
        return f"Jet({self.value}; {self.partials})"

    def _lift(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, Fraction, Fp)):
            zero = _zero_like(self.value)
            return Jet(other if not isinstance(other, int) else _coerce_int(other, self.value),
                       tuple(zero for _ in self.partials))
        return NotImplemented

    def _operand(self, other):
        """other's value and partials as residues mod this jet's p, with no
        partials for an int, an Fp mod p or a Fraction whose denominator is
        a unit mod p; None when the reference rules take it."""
        p = self._p
        t = type(other)
        if p is None:
            return None
        if t is Jet:
            return (other._v, other._d) if other._p == p else None
        if t is int:
            return other % p, None
        if t is Fp:
            return (other.value, None) if other.p == p else None
        if t is Fraction:
            try:
                return other.numerator * pow(other.denominator, -1, p) % p, None
            except ValueError:
                return None
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is not None:
            p, (b, db) = self._p, o
            d = self._d if db is None else tuple([(x + y) % p for x, y in zip(self._d, db)])
            return _jet_of_residues((self._v + b) % p, d, p)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet(self.value + o.value,
                   tuple(a + b for a, b in zip(self.partials, o.partials)))

    __radd__ = __add__

    def __neg__(self):
        p = self._p
        if p is not None:
            return _jet_of_residues(-self._v % p, tuple([-x % p for x in self._d]), p)
        return Jet(-self.value, tuple(-a for a in self.partials))

    def __sub__(self, other):
        o = self._operand(other)
        if o is not None:
            p, (b, db) = self._p, o
            d = self._d if db is None else tuple([(x - y) % p for x, y in zip(self._d, db)])
            return _jet_of_residues((self._v - b) % p, d, p)
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else self + (-o)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is not None and o[1] is None:
            p = self._p
            return _jet_of_residues((o[0] - self._v) % p, tuple([-x % p for x in self._d]), p)
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else o + (-self)

    def __mul__(self, other):
        o = self._operand(other)
        if o is not None:
            p, a, (b, db) = self._p, self._v, o
            if db is None:
                d = tuple([x * b % p for x in self._d])
            else:
                d = tuple([(x * b + a * y) % p for x, y in zip(self._d, db)])
            return _jet_of_residues(a * b % p, d, p)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet(self.value * o.value,
                   tuple(a * o.value + self.value * b
                         for a, b in zip(self.partials, o.partials)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        inv = None if o is None else _unit_inverse(o[0], self._p)
        if inv is not None:
            p, db = self._p, o[1]
            v = self._v * inv % p
            if db is None:
                d = tuple([x * inv % p for x in self._d])
            else:
                d = tuple([(x - v * y) * inv % p for x, y in zip(self._d, db)])
            return _jet_of_residues(v, d, p)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if not _is_nonzero(o.value):
            raise DivisionByZero("division by a jet with zero value")
        inv = 1 / o.value
        v = self.value * inv
        return Jet(v, tuple((a - v * b) * inv
                            for a, b in zip(self.partials, o.partials)))

    def __rtruediv__(self, other):
        o = self._operand(other)
        inv = None if o is None or o[1] is not None else _unit_inverse(self._v, self._p)
        if inv is not None:
            p = self._p
            v = o[0] * inv % p
            c = -v * inv % p
            return _jet_of_residues(v, tuple([x * c % p for x in self._d]), p)
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else o / self

    def __pow__(self, n: int):
        return spow(self, n)

    def _power(self, n: int) -> Optional["Jet"]:
        """self**n for n != 0 on residues: the value to the n and the
        partials times n v^(n-1); None when n < 0 and the value is no unit."""
        p, base = self._p, self._v
        if n < 0:
            base = _unit_inverse(base, p)
            if base is None:
                return None
        top = pow(base, abs(n) - 1, p)
        c = n * (top if n > 0 else top * base * base) % p
        return _jet_of_residues(top * base % p, tuple([x * c % p for x in self._d]), p)

    def __eq__(self, other):
        p = self._p
        if p is not None:
            if type(other) is Jet and other._p == p:
                return self._v == other._v and self._d == other._d
            if type(other) is int:
                return self._v == other % p and not any(self._d)
        if isinstance(other, Jet):
            return self.value == other.value and self.partials == other.partials
        return self.value == other and all(not _is_nonzero(a) for a in self.partials)

    def __hash__(self):
        return hash((self.value, self.partials))

    def __bool__(self):
        return self._v != 0 if self._p is not None else _is_nonzero(self._v)


def _coerce_int(n: int, like):
    if isinstance(like, Fp):
        return Fp(n, like.p)
    if isinstance(like, Jet):
        return _coerce_int(n, like.value)
    return Fraction(n)


def _zero_like(x):
    return _coerce_int(0, x) if not isinstance(x, int) else Fraction(0)


def _one_like(x):
    return _coerce_int(1, x) if not isinstance(x, int) else Fraction(1)


def _is_nonzero(x) -> bool:
    if isinstance(x, Fp):
        return x.value != 0
    if isinstance(x, Jet):
        return bool(x)
    return x != 0


def spow(x, n: int):
    """x**n for any scalar, with negative exponents meaning exact inversion."""
    if n == 0:
        return _one_like(x)
    if type(x) is Jet and x._p is not None:
        out = x._power(n)
        if out is not None:
            return out
    if n < 0:
        x = _one_like(x) / x
        n = -n
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


def jet_lift(point: Sequence, coordinate_index: int) -> Jet:
    """Lift coordinate ``coordinate_index`` of a point to a jet with the
    matching unit partial vector."""
    dim = len(point)
    if not 0 <= coordinate_index < dim:
        raise IndexOutOfRange(f"coordinate {coordinate_index} outside [0,{dim})")
    value = point[coordinate_index]
    one = _coerce_int(1, value)
    zero = _coerce_int(0, value)
    return Jet(value, tuple(one if i == coordinate_index else zero for i in range(dim)))


def jet_const(value, dim: int) -> Jet:
    """Lift a constant: all partials vanish."""
    p = _fp_prime((value,))
    if p is not None:
        return _jet_of_residues(value.value, (0,) * dim, p)
    zero = _coerce_int(0, value)
    return Jet(value, tuple(zero for _ in range(dim)))


def jet_point(point: Sequence) -> tuple:
    """Lift a whole point, tracking every coordinate."""
    return tuple(jet_lift(point, i) for i in range(len(point)))


# ---------------------------------------------------------------------------
# Randomized equality of rational maps (Schwartz-Zippel over a large prime).
# ---------------------------------------------------------------------------

# 2^61 - 1 is prime and comfortably above the 2^31 soundness floor.
DEFAULT_PRIME = (1 << 61) - 1
SECOND_PRIME = (1 << 31) + 11  # also prime, just above 2^31


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@functools.lru_cache(maxsize=64)  # every check of a run tests the same prime
def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24: the least strong pseudoprime
    to the first 13 prime bases is 3317044064679887385961981.  Without 41 it
    would be 318665857834031151167461 = 399165290221 * 798330580441."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class TrialConfig:
    """Parameters of a randomized identity test."""

    prime: int = DEFAULT_PRIME
    trials: int = 20
    rng_seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not is_probable_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")


@dataclass(frozen=True)
class Verdict:
    """Outcome of maps_equal_probabilistic."""

    status: str  # "equal" | "counterexample" | "inconclusive"
    point: tuple = ()
    detail: str = ""

    @property
    def is_equal(self) -> bool:
        return self.status == "equal"


def random_point_fp(dim: int, prime: int, rng: random.Random) -> tuple:
    """Uniform point of (F_p^x)^dim."""
    return tuple(Fp(rng.randrange(1, prime), prime) for _ in range(dim))


def _values_equal(a, b) -> bool:
    """Exact equality, structurally over tuples, lists and dicts."""
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(_values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_values_equal(a[k], b[k]) for k in a)
    return a == b


# Draws per trial before a trial gives up as inconclusive.
_REDRAW_BUDGET = 64


class _Trial(NamedTuple):
    """Outcome of one trial: "equal", "counterexample" (with the rational
    point and both sides there) or "exhausted"; ``redraws`` counts the
    draws that were singular or whose mod-p disagreement Q did not confirm."""

    status: str
    redraws: int
    point: object = None
    lhs: object = None
    rhs: object = None


def _lift_rational(point):
    """The integer representatives of an F_p point (a tuple or a dict), as
    rationals."""
    lift = lambda x: Fraction(x.value) if isinstance(x, Fp) else x
    if isinstance(point, dict):
        return {ix: lift(x) for ix, x in point.items()}
    return tuple(lift(x) for x in point)


def _evaluate(f, g, point):
    try:
        return f(point), g(point)
    except SingularPoint:
        return None


def _trials(draw: Callable[[random.Random], object], f: Callable, g: Callable,
            equal: Callable[[object, object], bool], trials: int, stream: str):
    """The randomized-trial engine: yield one ``_Trial`` per trial.

    Trial t draws from its own stream ``f"{stream}:{t}"``.  A draw at which
    either side raises SingularPoint is redrawn; so is a mod-p disagreement
    that exact re-evaluation at the rational lift of the point does not
    confirm (Schwartz-Zippel: the disagreement was an artifact of p).  A
    trial still undecided after ``_REDRAW_BUDGET`` draws is "exhausted".
    """
    for trial in range(trials):
        rng = random.Random(f"{stream}:{trial}")
        for redraws in range(_REDRAW_BUDGET):
            point = draw(rng)
            values = _evaluate(f, g, point)
            if values is None:
                continue
            if equal(*values):
                yield _Trial("equal", redraws)
                break
            point = _lift_rational(point)
            values = _evaluate(f, g, point)
            if values is None or equal(*values):
                continue
            yield _Trial("counterexample", redraws, point, *values)
            break
        else:
            yield _Trial("exhausted", _REDRAW_BUDGET)


def maps_equal_probabilistic(
    f: Callable[[tuple], object],
    g: Callable[[tuple], object],
    domain_dim: int,
    cfg: TrialConfig,
) -> Verdict:
    """Test f == g by evaluation at random prime-field points.

    Singular points (either map raising SingularPoint) are redrawn; a trial
    that exhausts its redraw budget yields an inconclusive verdict.  A
    disagreement is re-checked in exact rational arithmetic at the lifted
    point before being reported, so a counterexample verdict is never a
    mod-p artifact.
    """
    draw = lambda rng: random_point_fp(domain_dim, cfg.prime, rng)
    for trial, outcome in enumerate(
            _trials(draw, f, g, _values_equal, cfg.trials, str(cfg.rng_seed))):
        if outcome.status == "counterexample":
            return Verdict("counterexample", outcome.point)
        if outcome.status == "exhausted":
            return Verdict("inconclusive",
                           detail=f"retry budget exhausted at trial {trial}")
    return Verdict("equal")
