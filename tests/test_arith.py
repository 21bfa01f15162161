import operator
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
    denominator may be a multiple of p), or a jet or Fp of another prime."""
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


@SCALAR_SETTINGS
@given(jet_cases())
def test_residue_jets_follow_the_reference_rules(case):
    """Every jet operator, with a jet, an int, an Fp or a Fraction on either
    side, and every power from -3 to 3, gives on residue-backed jets what
    the reference rules give on jets of Fp parts: the same value and
    partials, or DivisionByZero at a zero-value divisor, or ValueError at a
    mixed prime."""
    p, jet_spec, other_spec, swap = case
    ops = [lambda a, b, op=op: op(b, a) if swap else op(a, b) for op in _BINARY]
    ops += [lambda a, b: -a]
    ops += [lambda a, b, n=n: arith.spow(a, n) for n in range(-3, 4)]
    ops += [lambda a, b, n=n: a ** n for n in (-2, 2)]
    got = [_outcome(lambda: op(_make(jet_spec), _make(other_spec))) for op in ops]
    with reference_jets():
        want = [_outcome(lambda: op(_make(jet_spec), _make(other_spec))) for op in ops]
    for g, w in zip(got, want, strict=True):
        _assert_same_jet_outcome(g, w, p)


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
