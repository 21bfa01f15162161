"""Exact scalar arithmetic and randomized map-equality testing.

Scalars come in three flavours, all exact:

- ``fractions.Fraction`` for rational computations (always lowest terms,
  positive denominator -- the stdlib maintains the invariant);
- ``Fp`` for arithmetic in a prime field, used by the Schwartz-Zippel
  style identity tester;
- ``Jet`` for first-order jets ``value + sum_i partials[i] * eps_i``,
  which turn any exact evaluation into an exact gradient computation
  (the Leibniz rule holds on the nose, no finite differences anywhere).
  A jet over F_p (value and partials Fp of one prime) stores int residues;
  a jet over Q or at a mixed point stores its scalars.  Each jet operation
  is one kernel in two forms: on residues reduced mod p, when the jet
  stores residues and the other operand belongs to its field, and on the
  scalars' own arithmetic otherwise.  Ints mean Q: ``_reciprocal`` inverts
  an int as a Fraction, never a float.

A "rational map" in this module is simply a callable taking a tuple of
scalars and returning a tuple of scalars; it must raise
:class:`~cluster_dual.errors.SingularPoint` when asked to evaluate on its
exceptional locus.
"""

from __future__ import annotations

import functools
import random
from math import gcd
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


def _reciprocal(x, p: Optional[int]):
    """1/x: mod p for a residue x, else in x's own arithmetic, an int read as
    a rational (``Fraction(1, x)``, never a float)."""
    if p is not None:
        return _inverse_mod(x, p)
    return Fraction(1, x) if type(x) is int else 1 / x


def _jet(value, partials, p: Optional[int]) -> "Jet":
    """A kernel's result: a jet of scalars when p is None, else of residues
    already reduced mod p, built without __init__."""
    if p is None:
        return Jet(value, partials)
    out = _new(Jet)
    out._v, out._d, out._p = value, tuple(partials), p
    return out


def _divisor_inverse(b, p: Optional[int]):
    """The reciprocal of a divisor's value b; DivisionByZero when b is zero."""
    if p is not None and b:
        return _inverse_mod(b, p)
    if p is None and _is_nonzero(b):
        return _reciprocal(b, p)
    raise DivisionByZero("division by a jet with zero value")


# The jet kernels, one per operator: on the values a, b and the partials da,
# db of two operands, on residues reduced mod p in the same pass or, with p
# None, on the scalars.  A constant's partials db are None on residues and
# zeros on the scalars, where the kernels are the reference rules.

def _add(p, a, da, b, db):
    if p is None:
        return _jet(a + b, [x + y for x, y in zip(da, db)], p)
    return _jet((a + b) % p, da if db is None else [(x + y) % p for x, y in zip(da, db)], p)


def _sub(p, a, da, b, db):
    if p is None:
        return _jet(a - b, [x - y for x, y in zip(da, db)], p)
    return _jet((a - b) % p, da if db is None else [(x - y) % p for x, y in zip(da, db)], p)


def _rsub(*operands):
    return -_sub(*operands)


def _mul(p, a, da, b, db):
    if p is None:
        return _jet(a * b, [x * b + a * y for x, y in zip(da, db)], p)
    d = [x * b % p for x in da] if db is None else [(x * b + a * y) % p for x, y in zip(da, db)]
    return _jet(a * b % p, d, p)


def _div(p, a, da, b, db):
    inv = _divisor_inverse(b, p)
    if p is None:
        v = a * inv
        return _jet(v, [(x - v * y) * inv for x, y in zip(da, db)], p)
    v = a * inv % p
    d = [x * inv % p for x in da] if db is None else [(x - v * y) * inv % p for x, y in zip(da, db)]
    return _jet(v, d, p)


def _rdiv(p, a, da, b, db):
    inv = _divisor_inverse(a, p)
    if p is None:
        v = b * inv
        return _jet(v, [(y - v * x) * inv for x, y in zip(da, db)], p)
    v, c = b * inv % p, -b * inv * inv % p
    d = [x * c % p for x in da] if db is None else [(y - v * x) * inv % p for x, y in zip(da, db)]
    return _jet(v, d, p)


def _operator(kernel):
    """The jet operator that runs kernel on this jet and another operand."""
    def op(self, other):
        o = self._operands(other)
        return NotImplemented if o is None else kernel(*o)
    return op


class Jet:
    """First-order jet: a value together with one partial per tracked coordinate.

    Arithmetic satisfies the Leibniz rule exactly; division requires a
    nonzero value part.  The partials live in the same field as the value.

    When the value and every partial are Fp of one prime p (``_fp_prime``),
    the jet stores their residues as ints, and p; ``value`` and ``partials``
    still read back as Fp.  Every other jet (over Q, or at a mixed point)
    stores its scalars.  Each operator is one kernel in two forms: on
    residues when this jet stores them and the other operand belongs to its
    field (``_operands``), otherwise on the scalars.  A power is ``spow``'s
    repeated products.
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

    def _operands(self, other):
        """(p, a, da, b, db): the values and partials of this jet and other.

        They are residues mod p when this jet stores residues and other is a
        jet of p, an int, an Fp mod p or a Fraction whose residue is a unit;
        otherwise scalars, with p None and an int read in this jet's field.
        db is None for a constant on residues, zeros on the scalars.  None
        for an operand that no jet takes."""
        p = self._p
        if p is not None:
            t = type(other)
            if t is Jet and other._p == p:
                return p, self._v, self._d, other._v, other._d
            if t is int:
                return p, self._v, self._d, other % p, None
            if t is Fp and other.p == p:
                return p, self._v, self._d, other.value, None
            if t is Fraction and gcd(other.numerator * other.denominator, p) == 1:
                b = other.numerator * pow(other.denominator, -1, p) % p
                return p, self._v, self._d, b, None
        a, da = self.value, self.partials
        if isinstance(other, Jet):
            return None, a, da, other.value, other.partials
        if isinstance(other, (int, Fraction, Fp)):
            b = _coerce_int(other, a) if isinstance(other, int) else other
            return None, a, da, b, (_zero_like(a),) * len(da)
        return None

    __add__ = __radd__ = _operator(_add)
    __sub__, __rsub__ = _operator(_sub), _operator(_rsub)
    __mul__ = __rmul__ = _operator(_mul)
    __truediv__, __rtruediv__ = _operator(_div), _operator(_rdiv)

    def __neg__(self):
        p, v, d = self._p, self._v, self._d
        if p is None:
            return _jet(-v, [-x for x in d], p)
        return _jet(-v % p, [-x % p for x in d], p)

    def __pow__(self, n: int):
        return spow(self, n)

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
    if n < 0:
        x = _reciprocal(x, None)
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
        return _jet(value.value, (0,) * dim, p)
    return Jet(value, (_coerce_int(0, value),) * dim)


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
    """Outcome of ``_verdict`` (maps_equal_probabilistic, is_poisson_map)."""

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


def _evaluate(sides, point):
    try:
        return sides(point)
    except SingularPoint:
        return None


def _trials(draw: Callable[[random.Random], object], sides: Callable,
            equal: Callable[[object, object], bool], trials: int, stream: str):
    """The randomized-trial engine: yield one ``_Trial`` per trial.

    ``sides(point)`` gives both sides of the identity from one evaluation.
    Trial t draws from its own stream ``f"{stream}:{t}"``.  A draw at which
    sides raises SingularPoint is redrawn; so is a mod-p disagreement that
    exact re-evaluation at the rational lift of the point does not confirm
    (Schwartz-Zippel: the disagreement was an artifact of p).  A trial still
    undecided after ``_REDRAW_BUDGET`` draws is "exhausted".
    """
    for trial in range(trials):
        rng = random.Random(f"{stream}:{trial}")
        for redraws in range(_REDRAW_BUDGET):
            point = draw(rng)
            values = _evaluate(sides, point)
            if values is None:
                continue
            if equal(*values):
                yield _Trial("equal", redraws)
                break
            point = _lift_rational(point)
            values = _evaluate(sides, point)
            if values is None or equal(*values):
                continue
            yield _Trial("counterexample", redraws, point, *values)
            break
        else:
            yield _Trial("exhausted", _REDRAW_BUDGET)


def _verdict(sides: Callable[[tuple], tuple], domain_dim: int, cfg: TrialConfig) -> Verdict:
    """The verdict of ``_trials`` on sides at random points of (F_p^x)^domain_dim."""
    draw = lambda rng: random_point_fp(domain_dim, cfg.prime, rng)
    for trial, outcome in enumerate(
            _trials(draw, sides, _values_equal, cfg.trials, str(cfg.rng_seed))):
        if outcome.status == "counterexample":
            return Verdict("counterexample", outcome.point)
        if outcome.status == "exhausted":
            return Verdict("inconclusive",
                           detail=f"retry budget exhausted at trial {trial}")
    return Verdict("equal")


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
    return _verdict(lambda point: (f(point), g(point)), domain_dim, cfg)
