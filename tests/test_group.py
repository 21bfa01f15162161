import contextlib
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cluster_dual import cartan as weyl
from cluster_dual import group as grp
from cluster_dual.arith import Fp, Jet
from cluster_dual.errors import (InvalidParameter, NotInBigCell, SingularPoint,
                                 UnsupportedForType)
from cluster_dual.group import GroupMatrix

from conftest import reference_jets


def test_generators_rank_one():
    assert grp.h_gen(1, 1, F(3)).rows == ((F(3), F(0)), (F(0), F(1)))
    assert grp.s_hat(1, 1).rows == ((F(0), F(-1)), (F(1), F(0)))
    assert grp.e_gen(1, 1).rows == ((F(1), F(1)), (F(0), F(1)))
    assert grp.f_gen(1, 1).rows == ((F(1), F(0)), (F(1), F(1)))
    with pytest.raises(InvalidParameter):
        grp.h_gen(1, 1, F(0))
    with pytest.raises(InvalidParameter):
        grp.e_gen(1, 3)


def test_right_multiply_guards():
    rows = [list(r) for r in grp.identity(3).rows]
    for kind, i, x in (("E", 3, None), ("F_inv", 3, None), ("s", 0, None), ("H", 1, F(0)),
                       ("X", 1, None)):
        with pytest.raises(InvalidParameter):
            grp.right_multiply(rows, kind, i, x)
        with pytest.raises(InvalidParameter):
            grp.left_multiply(rows, [(kind, i, x)])
    with pytest.raises(InvalidParameter):
        grp.left_multiply(rows, [("s", 1, None)])  # s^T is not a generator move
    assert rows == [list(r) for r in grp.identity(3).rows]


def test_phi_relations(rng):
    for rank in (1, 2, 3):
        for i in range(1, rank + 1):
            x = F(rng.randrange(1, 40), rng.randrange(1, 10))
            lhs = grp.h_gen(rank, i, x) * grp.e_gen(rank, i) * grp.h_gen(rank, i, 1 / x)
            assert lhs == grp.x_pos(rank, i, x)
            lhs = grp.h_gen(rank, i, 1 / x) * grp.f_gen(rank, i) * grp.h_gen(rank, i, x)
            assert lhs == grp.x_neg(rank, i, x)


def test_torus_commutes_with_other_wires():
    # the coweight-basis lift makes H^j transparent to E^i for j != i
    for rank in (2, 3):
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                if i == j:
                    continue
                h = grp.h_gen(rank, j, F(5))
                assert h * grp.e_gen(rank, i) == grp.e_gen(rank, i) * h
                assert h * grp.f_gen(rank, i) == grp.f_gen(rank, i) * h


def test_word_representative_braid_independent():
    a2 = weyl.build_cartan("A2")
    rep121 = grp.word_representative(2, (1, 2, 1))
    rep212 = grp.word_representative(2, (2, 1, 2))
    assert rep121 == rep212
    assert grp.weyl_representative(weyl.identity_element(a2)) == grp.identity(3)


def test_reflection_matrix_identity():
    # s_hat^{-1} x_neg(t) = x_neg(-1/t) diag(t, 1/t) x_pos(1/t), projectively
    t = F(7, 3)
    lhs = grp.s_hat(1, 1).inverse() * grp.x_neg(1, 1, t)
    h = GroupMatrix([[t, F(0)], [F(0), 1 / t]])
    rhs = grp.x_neg(1, 1, -1 / t) * h * grp.x_pos(1, 1, 1 / t)
    assert lhs == rhs


def test_gauss_examples():
    g = GroupMatrix([[F(2), F(-1)], [F(1), F(0)]])
    lower, diag, upper = grp.gauss(g)
    assert lower.rows == ((F(1), F(0)), (F(1, 2), F(1)))
    assert diag.rows == ((F(2), F(0)), (F(0), F(1, 2)))
    assert upper.rows == ((F(1), F(-1, 2)), (F(0), F(1)))
    assert lower * diag * upper == g
    i3 = grp.identity(3)
    assert grp.gauss(i3) == (i3, i3, i3)
    with pytest.raises(NotInBigCell) as err:
        grp.gauss(grp.s_hat(1, 1))
    assert err.value.minor_index == 0


def test_gauss_reconstructs_random(rng):
    for _ in range(25):
        g = GroupMatrix([[F(rng.randrange(-9, 10)) for _ in range(3)] for _ in range(3)])
        try:
            lower, diag, upper = grp.gauss(g)
        except NotInBigCell:
            continue
        assert lower * diag * upper == g


def test_elimination_clears_zero_value_jets():
    # an entry with value 0 and nonzero partials must be eliminated too
    def J(value, partial):
        return Jet(Fp(value, 97), (Fp(partial, 97),))

    m = GroupMatrix([[J(1, 0), J(0, 0)], [J(0, 1), J(1, 0)]])
    assert m * m.inverse() == grp.identity(2, J(1, 0))
    lower, diag, upper = grp.gauss(m)
    assert lower * diag * upper == m
    assert GroupMatrix([[J(1, 0), J(1, 0)], [J(0, 1), J(1, 0)]]).det() == J(1, 96)


@pytest.mark.parametrize("storage", ["residues", "reference"])
def test_elimination_clears_zero_value_jets_on_either_storage(storage):
    """test_elimination_clears_zero_value_jets on residue-backed jets and on
    the reference rules: != 0 still means "not exactly zero", so an entry of
    value 0 with a nonzero partial is eliminated, while a pivot still needs
    a nonzero value."""
    with (reference_jets() if storage == "reference" else contextlib.nullcontext()):
        def J(value, partial):
            return Jet(Fp(value, 97), (Fp(partial, 97),))

        assert J(0, 1)._p == (97 if storage == "residues" else None)
        assert J(0, 1) != 0 and not J(0, 1) and J(0, 0) == 0
        m = GroupMatrix([[J(1, 0), J(0, 0)], [J(0, 1), J(1, 0)]])
        assert m * m.inverse() == grp.identity(2, J(1, 0))
        lower, diag, upper = grp.gauss(m)
        assert lower * diag * upper == m
        assert lower[1][0] == J(0, 1)
        assert GroupMatrix([[J(1, 0), J(1, 0)], [J(0, 1), J(1, 0)]]).det() == J(1, 96)
        # the first column has no entry of nonzero value
        no_pivot = GroupMatrix([[J(0, 1), J(1, 0)], [J(0, 2), J(1, 0)]])
        with pytest.raises(SingularPoint):
            no_pivot.inverse()
        with pytest.raises(NotInBigCell):
            grp.gauss(no_pivot)


def test_theta():
    assert grp.theta(grp.e_gen(1, 1)) == grp.f_gen(1, 1)
    assert grp.theta(grp.e_gen(2, 2)) == grp.f_gen(2, 2)
    d = GroupMatrix([[F(5), F(0)], [F(0), F(1)]])
    assert grp.projective_eq(grp.theta(d), GroupMatrix([[F(1, 5), F(0)], [F(0), F(1)]]))
    g = GroupMatrix([[F(3), F(1)], [F(2), F(1)]])
    h = GroupMatrix([[F(1), F(4)], [F(1), F(5)]])
    assert grp.theta(grp.theta(g)) == g
    assert grp.theta(g * h) == grp.theta(g) * grp.theta(h)


def test_projective_eq():
    g = GroupMatrix([[F(1), F(2)], [F(0), F(3)]])
    assert grp.projective_eq(g, g.scale(F(-7, 2)))
    h = GroupMatrix([[F(1), F(0)], [F(0), F(3)]])
    assert not grp.projective_eq(g, h)  # zero patterns differ


def test_xi_and_ddminus():
    n = GroupMatrix([[F(1), F(0)], [F(4), F(1)]])
    t = GroupMatrix([[F(9), F(0)], [F(0), F(1)]])
    p = GroupMatrix([[F(1), F(2)], [F(0), F(1)]])
    g = p * t * n.inverse()
    n_minus, b = grp.xi_and_ddminus(g, 1)
    assert n_minus == n
    assert b == grp.x_neg(1, 1, F(-4))
    i2 = grp.identity(2)
    t_only = GroupMatrix([[F(4), F(0)], [F(0), F(1)]])
    n_minus, b = grp.xi_and_ddminus(t_only, 1)
    assert n_minus == i2 and b == i2


def test_dckp_on_torus_element():
    g = GroupMatrix([[F(9), F(0)], [F(0), F(1)]])
    out = grp.dckp_T(g, 1)
    expected = grp.s_hat(1, 1) * g * grp.s_hat(1, 1).inverse()
    assert out == expected


def test_weyl_conjugation_inverts_torus():
    # the reflection representative conjugates the wire's torus to its inverse
    t = F(7)
    g = grp.s_hat(1, 1) * grp.h_gen(1, 1, t) * grp.s_hat(1, 1).inverse()
    assert grp.projective_eq(g, grp.h_gen(1, 1, 1 / t))


def test_require_type_a():
    with pytest.raises(UnsupportedForType):
        grp.require_type_a(weyl.build_cartan("G2"))
    assert grp.require_type_a(weyl.build_cartan("A3")) == 3


# ---------------------------------------------------------------------------
# Structured inverses against Gauss-Jordan and the dense formulas
# ---------------------------------------------------------------------------

_P = 97
_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _scalars():
    """Elements of Q, of F_97 or of jets with two partials over F_97; a jet
    may have value 0 with nonzero partials."""
    small = st.integers(-9, 9)
    return st.sampled_from([
        st.builds(F, small, st.integers(1, 5)),
        small.map(lambda v: Fp(v, _P)),
        st.builds(lambda v, a, b: Jet(Fp(v, _P), (Fp(a, _P), Fp(b, _P))),
                  st.integers(-2, 2), small, small)])


@st.composite
def _square(draw, lower=False):
    """A matrix of size 2 to 4 over one of the fields of _scalars."""
    entries = draw(_scalars())
    n = draw(st.integers(2, 4))
    zero = draw(entries) * 0
    return GroupMatrix([[draw(entries) if not lower or j <= i else zero for j in range(n)]
                        for i in range(n)])


@_SETTINGS
@given(_square(lower=True))
def test_lower_inverse_inverts(m):
    try:
        dense = m.inverse()
    except SingularPoint:
        with pytest.raises(SingularPoint):
            grp.lower_inverse(m)
        return
    inv = grp.lower_inverse(m)
    ident = grp.identity(m.n, m[0][0])
    assert inv * m == ident and m * inv == ident
    assert inv == dense
    assert all(inv[i][j] == 0 for i in range(m.n) for j in range(i + 1, m.n))


@_SETTINGS
@given(_square())
def test_theta_is_the_signed_inverse_transpose(g):
    try:
        inv_t = g.transpose().inverse()
    except SingularPoint:
        return
    want = [[x if (i + j) % 2 == 0 else -x for j, x in enumerate(row)]
            for i, row in enumerate(inv_t.rows)]
    assert grp.theta(g) == GroupMatrix(want)


@_SETTINGS
@given(st.sampled_from([F, lambda x: Fp(x, _P)]), st.integers(2, 4), st.data())
def test_gauss_g0_matches_the_dense_inverse_over_q_and_f97(scalar, n, data):
    """gauss_g0 reads n_minus off the Gauss decomposition of g reversed; the
    dense formula is the lower factor of g^{-1}.  Half the draws repeat a
    row, and at a singular g both raise a SingularPoint."""
    rows = [[scalar(data.draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(n)]
    if data.draw(st.booleans()):
        rows[-1] = rows[0]
    g = GroupMatrix(rows)
    try:
        want = GroupMatrix(grp._eliminate(g.inverse())[0])
    except SingularPoint:
        with pytest.raises(SingularPoint):
            grp.gauss_g0(g)
        return
    assert grp.gauss_g0(g) == want


@_SETTINGS
@given(_square(), st.data())
def test_gauss_g0_and_dckp_match_their_dense_formulas(g, data):
    try:
        lower, diag, upper = grp.gauss(g.inverse())
    except SingularPoint:
        with pytest.raises(SingularPoint):
            grp.gauss_g0(g)
        return
    n_plus, a, n_minus = upper.inverse(), diag.inverse(), lower
    assert grp.gauss_g0(g) == n_minus
    assert n_plus * a * grp.gauss_g0(g).inverse() == g
    j = data.draw(st.integers(1, g.n - 1))
    b = grp.x_neg(g.n - 1, j, -n_minus[j][j - 1])
    u = grp.s_hat(g.n - 1, j, g[0][0]) * b
    got, want = grp.dckp_T(g, j), u * g * u.inverse()
    assert got == want
    assert all(type(x) is type(y) for r, s in zip(got.rows, want.rows)
               for x, y in zip(r, s))
