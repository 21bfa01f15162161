import hashlib
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cluster_dual import arith
from cluster_dual.arith import (DEFAULT_PRIME, Fp, Jet, TrialConfig,
                                is_probable_prime, jet_const, jet_lift,
                                jet_point, maps_equal_probabilistic, spow)
from cluster_dual.errors import DivisionByZero, IndexOutOfRange, SingularPoint

from conftest import reference_jets


def test_rational_examples():
    assert operator.add(F(1, 2), F(1, 3)) == F(5, 6)
    assert F(2, 4) == F(1, 2)  # lowest terms on construction
    assert F(2, 4).denominator == 2


def test_prime_field_division():
    a, b = Fp(3, 7), Fp(5, 7)
    assert a / b == Fp(2, 7)
    assert Fp(5, 7) * Fp(2, 7) == Fp(3, 7)
    with pytest.raises(DivisionByZero):
        a / Fp(0, 7)


def test_prime_field_inverse_matches_fermat(rng):
    p = DEFAULT_PRIME
    for _ in range(200):
        x = rng.randrange(1, p)
        fermat = pow(x, p - 2, p)
        assert Fp(x, p).inverse().value == fermat
        assert (Fp(1, p) / Fp(x, p)).value == fermat
        assert (Fp(x, p) ** -3).value == pow(fermat, 3, p)


def test_non_invertible_residue_raises():
    # only a directly built Fp with a composite modulus has one; Fermat's
    # x^(p-2) would return a wrong value here (6^13 = 6 mod 15)
    six = Fp(6, 15)
    for divide in (lambda: Fp(1, 15) / six, lambda: 1 / six,
                   lambda: six.inverse(), lambda: six ** -1, lambda: Fp(0, 15).inverse()):
        with pytest.raises(DivisionByZero):
            divide()
    assert Fp(1, 15) / Fp(7, 15) == Fp(13, 15)  # 7 is a unit mod 15


def test_prime_field_mixed_arithmetic():
    a = Fp(3, 11)
    assert a + 1 == Fp(4, 11)
    assert 2 * a == Fp(6, 11)
    assert 1 / a == Fp(4, 11)
    assert a + F(1, 2) == Fp(3, 11) + Fp(6, 11)
    assert spow(a, -2) == (a * a).inverse()


def test_rational_vs_prime_field_agreement(rng):
    p = 2 ** 31 + 11
    for _ in range(100):
        a = F(rng.randrange(-50, 50), rng.randrange(1, 30))
        b = F(rng.randrange(1, 50), rng.randrange(1, 30))
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            exact = op(a, b)
            if exact.denominator % p == 0:
                continue
            modp = op(Fp(a.numerator, p) / Fp(a.denominator, p),
                      Fp(b.numerator, p) / Fp(b.denominator, p))
            assert modp == Fp(exact.numerator, p) / Fp(exact.denominator, p)


def test_jet_lift_examples():
    j0 = jet_lift((F(3), F(5)), 0)
    assert j0.value == 3 and j0.partials == (F(1), F(0))
    j1 = jet_lift((F(3), F(5)), 1)
    assert j1.value == 5 and j1.partials == (F(0), F(1))
    assert jet_const(F(7), 2).partials == (F(0), F(0))
    with pytest.raises(IndexOutOfRange):
        jet_lift((F(1),), 3)


def test_jet_leibniz_and_quotient():
    x, y = jet_point((F(2), F(5)))
    prod = x * y
    assert prod.value == 10 and prod.partials == (F(5), F(2))
    quot = x / y
    assert quot.value == F(2, 5)
    assert quot.partials == (F(1, 5), F(-2, 25))
    with pytest.raises(DivisionByZero):
        x / (y - 5)


def test_jet_chain_rule_against_hand_expansion(rng):
    # f(x) = (x0^2 x1, x1 x2, x0 x2^2), g(y) = (y0 y1, y2^2 y0): the composite
    # partials must be the matrix product of the factors' Jacobians.
    def f(v):
        return (v[0] * v[0] * v[1], v[1] * v[2], v[0] * v[2] * v[2])

    def g(v):
        return (v[0] * v[1], v[2] * v[2] * v[0])

    for _ in range(10):
        pt = tuple(F(rng.randrange(1, 12)) for _ in range(3))
        jets = jet_point(pt)
        composite = g(f(jets))
        fv = f(pt)
        jac_f = [[2 * pt[0] * pt[1], pt[0] * pt[0], F(0)],
                 [F(0), pt[2], pt[1]],
                 [pt[2] * pt[2], F(0), 2 * pt[0] * pt[2]]]
        jac_g = [[fv[1], fv[0], F(0)],
                 [fv[2] * fv[2], F(0), 2 * fv[2] * fv[0]]]
        hand = [[sum(jac_g[r][k] * jac_f[k][c] for k in range(3)) for c in range(3)]
                for r in range(2)]
        for r in range(2):
            assert composite[r].partials == tuple(hand[r])


def test_trial_config_validation():
    assert is_probable_prime(DEFAULT_PRIME)
    with pytest.raises(ValueError):
        TrialConfig(prime=10)
    with pytest.raises(ValueError):
        TrialConfig(trials=0)


def test_strong_pseudoprime_to_the_first_twelve_prime_bases_is_rejected():
    # the smallest composite that passes Miller-Rabin to the bases 2..37
    composite = 399165290221 * 798330580441
    assert composite == 318665857834031151167461
    assert not is_probable_prime(composite)
    with pytest.raises(ValueError, match="is not prime"):
        TrialConfig(prime=composite)
    assert is_probable_prime(41) and is_probable_prime((1 << 89) - 1)


def test_maps_equal_identity_and_counterexample():
    cfg = TrialConfig(trials=10, rng_seed=4)
    ident = lambda p: p
    assert maps_equal_probabilistic(ident, ident, 3, cfg).is_equal
    shifted = lambda p: tuple(x + 1 for x in p)
    verdict = maps_equal_probabilistic(ident, shifted, 1, cfg)
    assert verdict.status == "counterexample"
    # the counterexample is confirmed over the rationals
    assert verdict.point and ident(verdict.point) != shifted(verdict.point)


def test_maps_equal_mutation_involution():
    from cluster_dual import cartan as weyl
    from cluster_dual import maps, seeds, words
    cdata = weyl.build_cartan("A1")
    w = words.DoubleWord.from_string("1,1")
    seed = seeds.seed_for_word(w, cdata)
    ixs = words.seed_indices(w, 1)

    def twice(point):
        vals = dict(zip(ixs, point))
        once = maps.mutate_point(seed, vals, (1, 1))
        back = maps.mutate_point(seeds.mutate_seed(seed, (1, 1)), once, (1, 1))
        return tuple(back[i] for i in ixs)

    cfg = TrialConfig(trials=50, rng_seed=9)
    assert maps_equal_probabilistic(lambda p: p, twice, len(ixs), cfg).is_equal


def test_maps_equal_skips_singular_points():
    cfg = TrialConfig(trials=5, rng_seed=1)

    def touchy(point):
        if point[0] == point[1]:
            raise SingularPoint("diagonal")
        return point

    assert maps_equal_probabilistic(touchy, touchy, 2, cfg).is_equal


# Bounded and reproducible, so the suite stays fast and never flakes.
SCALAR_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                           database=None, suppress_health_check=[HealthCheck.too_slow])

PRIMES = (97, DEFAULT_PRIME)


def _residue(x, p: int) -> int:
    """The residue of an Fp, an int or a Fraction whose denominator is
    prime to p."""
    if isinstance(x, Fp):
        return x.value
    if isinstance(x, F):
        return x.numerator * pow(x.denominator, -1, p) % p
    return x % p


@st.composite
def fp_operands(draw):
    """A prime, an element of F_p and a second operand of that field: an
    Fp, an int of either sign, or a Fraction whose denominator p does not
    divide."""
    p = draw(st.sampled_from(PRIMES))
    residue = st.one_of(st.integers(0, 2), st.integers(p - 2, p - 1), st.integers(0, p - 1))
    other = draw(st.one_of(
        residue.map(lambda v: Fp(v, p)),
        st.integers(-3 * p, 3 * p),
        st.builds(F, st.integers(-p * p, p * p),
                  st.integers(1, 3 * p).filter(lambda d: d % p))))
    return p, Fp(draw(residue), p), other


_BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


@SCALAR_SETTINGS
@given(fp_operands(), st.booleans())
def test_fp_operators_agree_with_integers_mod_p(operands, swap):
    """Every Fp operator, with an Fp, int or Fraction on either side, gives
    the reduced residue that integer arithmetic mod p gives; division by a
    zero residue raises DivisionByZero."""
    p, a, other = operands
    lhs, rhs = (other, a) if swap else (a, other)
    x, y = _residue(lhs, p), _residue(rhs, p)
    for op in _BINARY:
        if op is operator.truediv and y == 0:
            with pytest.raises(DivisionByZero):
                op(lhs, rhs)
            continue
        got = op(lhs, rhs)
        want = x * pow(y, -1, p) % p if op is operator.truediv else op(x, y) % p
        assert type(got) is Fp and got.p == p and got.value == want, (op, lhs, rhs)
    neg = -a
    assert type(neg) is Fp and neg.p == p and neg.value == -a.value % p
    for n in range(-3, 4):
        if n < 0 and a.value == 0:
            with pytest.raises(DivisionByZero):
                a ** n
            continue
        assert (a ** n).value == pow(a.value, n, p)


def test_fp_mixed_primes_raise():
    a, b = Fp(5, 97), Fp(5, DEFAULT_PRIME)
    for op in _BINARY:
        for lhs, rhs in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="mixed primes"):
                op(lhs, rhs)


@pytest.mark.parametrize("modulus, factor", [(15, 3), (15, 5), (97 * 101, 101),
                                             (3 * DEFAULT_PRIME, 3)])
def test_composite_modulus_raises_on_every_division_route(modulus, factor):
    """A residue sharing a factor with a composite modulus has no inverse,
    whichever route divides by it."""
    bad, unit = Fp(2 * factor, modulus), Fp(modulus - 1, modulus)
    routes = (lambda: unit / bad, lambda: 1 / bad, lambda: F(1, 2) / bad,
              lambda: bad.inverse(), lambda: bad ** -1)
    for divide in routes:
        with pytest.raises(DivisionByZero):
            divide()


# ---------------------------------------------------------------------------
# Jets over F_p: residue storage against the reference rules
# ---------------------------------------------------------------------------

def _make(spec):
    """An operand from its spec: ("jet", p, value, partials), ("int", n),
    ("fp", p, n) or ("fraction", num, den)."""
    kind = spec[0]
    if kind == "jet":
        _, p, value, partials = spec
        return Jet(Fp(value, p), tuple(Fp(a, p) for a in partials))
    if kind == "fp":
        return Fp(spec[2], spec[1])
    if kind == "fraction":
        return F(spec[1], spec[2])
    return spec[1]


@st.composite
def jet_cases(draw):
    """A prime p, a jet over F_p, a second operand and which side the jet
    takes: a jet of the same field, an int, an Fp, a Fraction (its
    denominator may be a multiple of p), a nonzero Fraction whose numerator
    p divides, or a jet or Fp of another prime."""
    p = draw(st.sampled_from(PRIMES))
    q = 101 if p == 97 else 97
    dim = draw(st.integers(0, 3))
    residue = st.one_of(st.integers(0, 2), st.integers(p - 2, p - 1), st.integers(0, p - 1))

    def jets(prime, values):
        return st.builds(lambda v, d: ("jet", prime, v, tuple(d)),
                         values, st.lists(values, min_size=dim, max_size=dim))

    other = draw(st.one_of(
        jets(p, residue),
        st.integers(-3 * p, 3 * p).map(lambda n: ("int", n)),
        residue.map(lambda n: ("fp", p, n)),
        st.builds(lambda n, d: ("fraction", n, d), st.integers(-p * p, p * p),
                  st.one_of(st.integers(1, 3 * p), st.integers(1, 3).map(lambda k: k * p))),
        st.builds(lambda k, d: ("fraction", k * p, d), st.sampled_from((-3, -2, -1, 1, 2, 3)),
                  st.integers(1, p - 1)),
        jets(q, st.integers(0, q - 1)),
        st.integers(0, q - 1).map(lambda n: ("fp", q, n))))
    return p, draw(jets(p, residue)), other, draw(st.booleans())


def _outcome(fn):
    try:
        return fn()
    except (ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


def _assert_same_jet_outcome(got, want, p):
    """The same exception and message, or the same result: of the same type,
    a jet's value and partials of the same types and values, and the same
    repr and hash; a residue-backed jet stores residues mod p."""
    assert type(got) is type(want), (got, want)
    if type(want) is Jet:
        assert got._p == p and want._p is None
        assert type(got.value) is type(want.value) and got.value == want.value
        assert [type(a) for a in got.partials] == [type(a) for a in want.partials]
        assert got.partials == want.partials
        assert repr(got) == repr(want) and hash(got) == hash(want) and got == want
    else:
        assert got == want


def _leibniz(op, x, y, inverse):
    """x op y for jets x, y given as (value, partials): the sum, difference,
    product and quotient rules, with ``inverse`` the field's reciprocal;
    DivisionByZero for a zero divisor."""
    (a, da), (b, db) = x, y
    if op is operator.add:
        return a + b, [s + t for s, t in zip(da, db)]
    if op is operator.sub:
        return a - b, [s - t for s, t in zip(da, db)]
    if op is operator.mul:
        return a * b, [s * b + a * t for s, t in zip(da, db)]
    if b == 0:
        return DivisionByZero
    inv = inverse(b)
    return a * inv, [(s * b - a * t) * inv * inv for s, t in zip(da, db)]


def _power_rule(x, n: int, inverse):
    """x**n for a jet x = (value, partials): the value to the n and each
    partial times n v^(n-1); the field's one for n = 0; DivisionByZero for
    n < 0 at a zero value."""
    a, da = x
    if n == 0:
        return 1
    if n < 0 and a == 0:
        return DivisionByZero
    top = a ** (n - 1) if n > 0 else inverse(a) ** (1 - n)
    return top * a, [n * top * s for s in da]


def _residue_operand(spec, p: int, dim: int):
    """An operand spec over F_p as (kind, value, partials): "field" with
    residues; "pole" for a Fraction whose denominator p divides; "mixed",
    with its own value, for a jet or Fp of another prime."""
    kind = spec[0]
    if kind in ("jet", "fp") and spec[1] != p:
        return "mixed", spec[2], None
    if kind == "jet":
        return "field", spec[2] % p, [a % p for a in spec[3]]
    if kind == "fraction":
        x = F(spec[1], spec[2])
        if x.denominator % p == 0:
            return "pole", None, None
        return "field", x.numerator * pow(x.denominator, -1, p) % p, [0] * dim
    return "field", (spec[2] if kind == "fp" else spec[1]) % p, [0] * dim


def _expected_residue_outcome(op, lhs, rhs, p: int):
    """The outcome the Leibniz rules on ints mod p give for op(lhs, rhs): a
    (value, partials) pair of residues or an exception class.  Another
    prime raises ValueError, after the zero check of a divisor; a pole
    raises DivisionByZero, but dividing by it gives zero."""
    kinds = (lhs[0], rhs[0])
    if "mixed" in kinds:
        return DivisionByZero if op is operator.truediv and rhs[1] == 0 else ValueError
    if "pole" in kinds:
        if op is operator.truediv and rhs[0] == "pole":
            return 0, [0] * len(lhs[2])
        return DivisionByZero
    got = _leibniz(op, lhs[1:], rhs[1:], lambda b: pow(b, -1, p))
    return got if got is DivisionByZero else (got[0] % p, [a % p for a in got[1]])


def _assert_residue_outcome(got, want, p: int):
    if isinstance(want, type):
        assert type(got) is tuple and got[0] is want, (got, want)
    elif isinstance(want, int):
        assert type(got) is Fp and got.p == p and got.value == want % p
    else:
        assert type(got) is Jet and got._p == p, got
        assert got._v == want[0] % p and got._d == tuple(a % p for a in want[1]), (got, want)
        assert type(got.value) is Fp and all(type(a) is Fp for a in got.partials)


@SCALAR_SETTINGS
@given(jet_cases())
def test_residue_jets_follow_the_reference_rules(case):
    """Every jet operator, with a jet, an int, an Fp or a Fraction on either
    side, and every power from -3 to 3, gives on residue-backed jets what
    the Leibniz rules on ints mod p give: the reduced value and partials, or
    DivisionByZero at a zero divisor or at a Fraction whose denominator p
    divides, or ValueError at a mixed prime.  The reference rules on jets of
    Fp parts give the same outcome."""
    p, jet_spec, other_spec, swap = case
    ops = [lambda a, b, op=op: op(b, a) if swap else op(a, b) for op in _BINARY]
    ops += [lambda a, b: -a]
    ops += [lambda a, b, n=n: arith.spow(a, n) for n in range(-3, 4)]
    ops += [lambda a, b, n=n: a ** n for n in (-2, 2)]
    got = [_outcome(lambda: op(_make(jet_spec), _make(other_spec))) for op in ops]
    jet = _residue_operand(jet_spec, p, len(jet_spec[3]))
    other = _residue_operand(other_spec, p, len(jet_spec[3]))
    lhs, rhs = (other, jet) if swap else (jet, other)
    want = [_expected_residue_outcome(op, lhs, rhs, p) for op in _BINARY]
    want += [(-jet[1], [-a for a in jet[2]])]
    want += [_power_rule(jet[1:], n, lambda b: pow(b, -1, p)) for n in (*range(-3, 4), -2, 2)]
    for g, w in zip(got, want, strict=True):
        _assert_residue_outcome(g, w, p)
    with reference_jets():
        reference = [_outcome(lambda: op(_make(jet_spec), _make(other_spec))) for op in ops]
    for g, w in zip(got, reference, strict=True):
        _assert_same_jet_outcome(g, w, p)


@st.composite
def rational_jet_cases(draw):
    """A jet over Q, a second operand (a jet over Q, an int or a Fraction)
    and which side the jet takes."""
    dim = draw(st.integers(0, 3))
    rationals = st.one_of(st.just(F(0)), st.builds(F, st.integers(-30, 30), st.integers(1, 12)))
    jets = st.builds(lambda v, d: (v, tuple(d)), rationals,
                     st.lists(rationals, min_size=dim, max_size=dim))
    other = draw(st.one_of(jets, st.integers(-5, 5), rationals))
    return draw(jets), other, draw(st.booleans())


@SCALAR_SETTINGS
@given(rational_jet_cases())
def test_rational_jets_follow_the_leibniz_rules(case):
    """Every jet operator on jets over Q, with a jet, an int or a Fraction on
    either side, and every power from -3 to 3, gives what the Leibniz rules
    on Fractions give, every part a Fraction; DivisionByZero at a zero
    divisor."""
    (v, d), other, swap = case
    make = lambda: (Jet(v, d), Jet(*other) if isinstance(other, tuple) else other)
    operand = other if isinstance(other, tuple) else (F(other), [F(0)] * len(d))
    lhs, rhs = (operand, (v, d)) if swap else ((v, d), operand)
    inverse = lambda b: 1 / b
    checks = [(lambda op=op: op(*make()[::-1]) if swap else op(*make()),
               _leibniz(op, lhs, rhs, inverse)) for op in _BINARY]
    checks += [(lambda: -make()[0], (-v, [-s for s in d]))]
    checks += [(lambda n=n: spow(make()[0], n), _power_rule((v, d), n, inverse))
               for n in range(-3, 4)]
    for run, want in checks:
        got = _outcome(run)
        if isinstance(want, type):
            assert type(got) is tuple and got[0] is want, (got, want)
        elif isinstance(want, int):
            assert type(got) is F and got == want
        else:
            assert type(got) is Jet and got._p is None, got
            assert type(got.value) is F and all(type(a) is F for a in got.partials), got
            assert (got.value, list(got.partials)) == (want[0], list(want[1])), (got, want)


def test_residue_jet_storage_and_errors():
    x, y = arith.jet_point((Fp(3, 97), Fp(0, 97)))
    assert (x._p, x._v, x._d) == (97, 3, (1, 0))
    assert x.value == Fp(3, 97) and x.partials == (Fp(1, 97), Fp(0, 97))
    assert repr(x) == "Jet(Fp(3 mod 97); (Fp(1 mod 97), Fp(0 mod 97)))"
    assert arith.jet_const(Fp(5, 97), 2)._d == (0, 0)
    # a jet over Q, or at a mixed point, holds its scalars
    assert Jet(F(3), (F(1),))._p is None and Jet(Fp(3, 97), (Fp(1, 101),))._p is None
    assert y != 0 and not y and y - y == 0
    for divide in (lambda: x / y, lambda: 1 / y, lambda: arith.spow(y, -1),
                   lambda: x / 0, lambda: x / Fp(0, 97), lambda: x / F(97, 2)):
        with pytest.raises(DivisionByZero):
            divide()
    z = arith.jet_lift((Fp(3, 101), Fp(1, 101)), 0)
    for op in _BINARY:
        for lhs, rhs in ((x, z), (z, x), (x, Fp(2, 101)), (Fp(2, 101), x)):
            with pytest.raises(ValueError, match="mixed primes"):
                op(lhs, rhs)


def _jet_pin_operands(rng, p: int, dim: int) -> list:
    """Operands of every kind a jet of F_p or of Q meets: ints, Fp of p and
    of another prime, Fractions (a unit denominator, p dividing the
    denominator, a numerator that is 0 mod p), jets of p and of another
    prime, and jets over Q."""
    q = 101 if p == 97 else 97

    def residue(prime):
        return rng.choice([0, 1, prime - 1, rng.randrange(prime)])

    def fp_jet(prime):
        return Jet(Fp(residue(prime), prime), tuple(Fp(residue(prime), prime) for _ in range(dim)))

    def rational():
        return F(rng.choice([0, 1, -2, rng.randrange(-50, 50)]), rng.randrange(1, 9))

    unit_den = rng.choice([1, 2, p - 1, rng.randrange(1, p)])
    return [rng.choice([0, 1, -1, p, -p, 2 * p + 1, rng.randrange(-3 * p, 3 * p)]),
            Fp(residue(p), p), Fp(residue(q), q),
            F(rng.randrange(-p * p, p * p), unit_den),
            F(rng.choice([1, -1, 2, 7]), rng.randrange(1, 4) * p),
            F(rng.choice([1, -1, 3]) * p, rng.choice([1, 2, 5])),
            fp_jet(p), fp_jet(q), Jet(rational(), tuple(rational() for _ in range(dim)))]


def _pin_record(x):
    if type(x) is Jet:
        return ["Jet", x._p, _pin_record(x.value), [_pin_record(a) for a in x.partials]]
    return [type(x).__name__, repr(x)]


def _jet_outcome_records():
    """Each jet operator's outcome, on both sides, with negation and spow for
    n from -3 to 3, on seeded jets over F_97, F_(2^61-1) and Q: the result's
    record, or the error's type and message."""
    rng = random.Random("jet outcomes")
    records = []
    for p in (97, DEFAULT_PRIME):
        for _ in range(60):
            dim = rng.randrange(4)
            residue = lambda: rng.choice([0, 1, p - 1, rng.randrange(p)])
            rational = lambda: F(rng.choice([0, 1, rng.randrange(-50, 50)]), rng.randrange(1, 9))
            for jet in (Jet(Fp(residue(), p), tuple(Fp(residue(), p) for _ in range(dim))),
                        Jet(rational(), tuple(rational() for _ in range(dim)))):
                outcomes = [_outcome(lambda: -jet)]
                outcomes += [_outcome(lambda n=n: spow(jet, n)) for n in range(-3, 4)]
                for other in _jet_pin_operands(rng, p, dim):
                    for op in _BINARY:
                        outcomes.append(_outcome(lambda: op(jet, other)))
                        outcomes.append(_outcome(lambda: op(other, jet)))
                records.append([p, _pin_record(jet),
                                [_pin_record(x) if not isinstance(x, tuple) else
                                 [x[0].__name__, x[1]] for x in outcomes]])
    return records


# sha256 of the records above
JET_OUTCOMES_SHA256 = "ce953c69986331e4449ea2ba4f51162d77016d74a6ad4124385a23cc5f0979c7"


def test_jet_outcomes_pinned():
    """Every jet operator's value, types and prime, or its error's type and
    message, on residue jets and jets over Q against ints, Fp of p and of
    another prime, Fractions and jets of every kind."""
    digest = hashlib.sha256(repr(_jet_outcome_records()).encode()).hexdigest()
    assert digest == JET_OUTCOMES_SHA256
