from fractions import Fraction as F

import pytest

from cluster_dual import cartan as weyl
from cluster_dual import group as grp
from cluster_dual.errors import InvalidParameter, NotInBigCell, UnsupportedForType
from cluster_dual.group import GroupMatrix


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
    for kind, i, x in (("E", 3, None), ("s", 0, None), ("H", 1, F(0)), ("X", 1, None)):
        with pytest.raises(InvalidParameter):
            grp.right_multiply(rows, kind, i, x)
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
