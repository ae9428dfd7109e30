"""Lie algebras, representations, and the Chevalley-Eilenberg differential."""

import os
import random
from fractions import Fraction
from math import comb

from lie2coh.numeric import Matrix, increasing_tuples
from lie2coh.liealg import (LieAlgebra, Representation, validate_lie_algebra,
                            validate_representation, ce_differential,
                            _sort_sign)
from lie2coh.tworep import honest_rep
from lie2coh.cli import load_problem
from lie2coh.samples import (rng_from_seed, random_lie_algebra,
                             _commuting_rep, random_context)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def test_change_basis_keeps_integral_constants_as_ints():
    """The re-based structure constants follow numeric's convention:
    an integral value is an int, never a Fraction with denominator 1."""
    for seed in range(200):
        rng = rng_from_seed(seed)
        for dim in (2, 3, 4):
            g = random_lie_algebra(rng, dim)
            assert not [c for vec in g.structure.values() for _, c in vec
                        if isinstance(c, Fraction) and c.denominator == 1]


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


def dense_ce_differential(rep, q):
    """The Chevalley-Eilenberg differential written into a dense matrix,
    cell by cell, from dense bracket vectors: the oracle for the sparse
    rows of ce_differential."""
    g, dv = rep.algebra, rep.space_dim
    src = increasing_tuples(g.dim, q)
    tgt = increasing_tuples(g.dim, q + 1)
    src_pos = {t: k for k, t in enumerate(src)}
    out = Matrix.zero(len(tgt) * dv, len(src) * dv)
    for row_block, tup in enumerate(tgt):
        for j in range(q + 1):
            col_block = src_pos[tup[:j] + tup[j + 1:]]
            sign = -1 if j % 2 else 1
            for a in range(dv):
                for b in range(dv):
                    out.data[row_block * dv + a][col_block * dv + b] += \
                        sign * rep.mats[tup[j]].data[a][b]
        for m in range(q + 1):
            for n in range(m + 1, q + 1):
                rest = tuple(tup[t] for t in range(q + 1) if t not in (m, n))
                sign = -1 if (m + n) % 2 else 1
                for idx, c in enumerate(g.basis_bracket(tup[m], tup[n])):
                    s, sorted_tup = _sort_sign((idx,) + rest)
                    if c == 0 or s == 0:
                        continue
                    col_block = src_pos[sorted_tup]
                    for a in range(dv):
                        out.data[row_block * dv + a][col_block * dv + a] += \
                            c * sign * s
    return out


def test_ce_differential_matches_dense_oracle():
    rng = rng_from_seed(19)
    reps = []
    for _ in range(100):
        g = random_lie_algebra(rng, rng.randint(0, 3))
        kind = rng.random()
        if kind < 0.4:
            reps.append(Representation.adjoint(g))
        elif kind < 0.6:
            reps.append(Representation.trivial(g, rng.randint(0, 2)))
        else:
            reps.append(_commuting_rep(rng, g, [], rng.randint(1, 2),
                                       span=2))
    # the honest representations of the gl(phi) ladder problems, on g_1
    for name in ("glphi_proj_adjoint", "glphi_zero_adjoint"):
        ctx = load_problem(os.path.join(ROOT, "bench", "problems",
                                        name + ".json")).context()
        reps.append(honest_rep(ctx.rep, ctx.nerve(1)))
    for rep in reps:
        for q in range(rep.algebra.dim + 1):
            assert ce_differential(rep, q).data == \
                dense_ce_differential(rep, q).data, (rep.algebra.dim, q)


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
