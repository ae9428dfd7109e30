"""Lie algebras, representations, and the Chevalley-Eilenberg differential."""

import random
from fractions import Fraction
from math import comb

from lie2coh.numeric import Matrix
from lie2coh.liealg import (LieAlgebra, Representation, validate_lie_algebra,
                            validate_representation, ce_differential)
from lie2coh.samples import (rng_from_seed, random_lie_algebra,
                             _commuting_rep, random_context)


def test_abelian_valid():
    for dim in range(4):
        assert validate_lie_algebra(LieAlgebra.abelian(dim)) == []


def test_aff1_valid():
    assert validate_lie_algebra(LieAlgebra.aff1()) == []


def test_broken_jacobi_flagged():
    # [e0,e1] = e2, [e0,e2] = e1, [e1,e2] = e2 violates Jacobi on (0,1,2)
    g = LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [0, 1, 0],
                       (1, 2): [0, 0, 1]})
    bad = validate_lie_algebra(g)
    assert [t[:3] for t in bad] == [(0, 1, 2)]


def test_catalog_algebras_valid():
    for g in (LieAlgebra.heisenberg3(), LieAlgebra.sl2()):
        assert validate_lie_algebra(g) == []


def test_change_basis_preserves_jacobi():
    rng = rng_from_seed(2)
    for _ in range(10):
        g = random_lie_algebra(rng, rng.randint(1, 3))
        assert validate_lie_algebra(g) == []


def test_zero_action_valid():
    g = LieAlgebra.sl2()
    assert validate_representation(Representation.trivial(g, 2)) == []


def test_rank_one_rep_on_abelian_valid():
    h = LieAlgebra.abelian(1)
    rep = Representation(h, 2, [Matrix(2, 2, [[1, 2], [3, 4]])])
    assert validate_representation(rep) == []


def test_aff1_two_dim_rep_valid():
    g = LieAlgebra.aff1()
    rep = Representation(g, 2, [Matrix(2, 2, [[1, 0], [0, 0]]),
                                Matrix(2, 2, [[0, 1], [0, 0]])])
    assert validate_representation(rep) == []


def test_broken_rep_flagged():
    g = LieAlgebra.aff1()
    rep = Representation(g, 2, [Matrix(2, 2, [[1, 0], [0, 0]]),
                                Matrix(2, 2, [[0, 0], [0, 1]])])
    assert (0, 1) in validate_representation(rep)


def test_ce_abelian_trivial_rep_zero():
    g = LieAlgebra.abelian(3)
    rep = Representation.trivial(g, 2)
    for q in range(4):
        assert ce_differential(rep, q).is_zero()


def test_ce_aff1_degree_one():
    rep = Representation.trivial(LieAlgebra.aff1(), 1)
    d = ce_differential(rep, 1)
    assert d.rows == 1 and d.cols == 2
    assert d.data == [[0, -1]]


def test_ce_line_with_scalar_action():
    g = LieAlgebra.abelian(1)
    rep = Representation(g, 1, [Matrix(1, 1, [[1]])])
    d = ce_differential(rep, 0)
    assert d.data == [[1]]


def test_ce_dimensions():
    g = LieAlgebra.sl2()
    rep = Representation.trivial(g, 2)
    for q in range(4):
        d = ce_differential(rep, q)
        assert d.cols == comb(3, q) * 2
        assert d.rows == comb(3, q + 1) * 2


def test_ce_squares_to_zero_random():
    rng = rng_from_seed(6)
    for _ in range(100):
        dim = rng.randint(0, 3)
        g = random_lie_algebra(rng, dim)
        kind = rng.random()
        if kind < 0.4:
            rep = Representation.adjoint(g)
        elif kind < 0.7:
            rep = Representation.trivial(g, rng.randint(0, 2))
        else:
            rep = _commuting_rep(rng, g, [], rng.randint(1, 2))
        assert validate_representation(rep) == []
        for q in range(g.dim + 1):
            d2 = ce_differential(rep, q + 1) * ce_differential(rep, q)
            assert d2.is_zero(), (g.brackets, q)


def _combination(coeffs, mats, rows, cols):
    """sum_i c_i M_i term by term, by Matrix arithmetic."""
    out = Matrix.zero(rows, cols)
    for c, m in zip(coeffs, mats):
        out = out + m.scale(c)
    return out


def test_act_and_rho1_of_are_linear_combinations():
    rng = random.Random(5)
    span = [0, 0, 1, -2, Fraction(1, 2), Fraction(-3, 4), Fraction(4, 2)]
    for k in range(25):
        x, r = random_context(rng_from_seed(300 + k), 2)
        reps = [(x.action, x.g.dim, x.g.dim), (r.rho0_w, r.target.dim_w,
                                               r.target.dim_w),
                (r.rho0_v, r.target.dim_v, r.target.dim_v)]
        for rep, rows, cols in reps:
            for y in ([0] * x.h.dim,
                      [rng.choice(span) for _ in range(x.h.dim)]):
                want = _combination(y, rep.mats, rows, cols)
                assert rep.act(y) == want
                assert (rep.act(y).rows, rep.act(y).cols) == (rows, cols)
        for xv in ([0] * x.g.dim,
                   [rng.choice(span) for _ in range(x.g.dim)]):
            want = _combination(xv, r.rho1, r.target.dim_w, r.target.dim_v)
            assert r.rho1_of(xv) == want
    # true fractions in the matrices as well as in the coefficients
    h = LieAlgebra.abelian(2)
    mats = [Matrix(2, 2, [["1/2", 0], [3, "-2/3"]]),
            Matrix(2, 2, [[0, "5/7"], ["1/3", 1]])]
    rep = Representation(h, 2, mats)
    for y in ([0, 0], [Fraction(2, 3), 0], [Fraction(1, 2), -3],
              [Fraction(3, 5), Fraction(-7, 2)]):
        assert rep.act(y) == _combination(y, mats, 2, 2)
