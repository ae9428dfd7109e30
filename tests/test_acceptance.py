"""Acceptance criteria, one check per criterion, at the stated tolerances.

Each test prints a ``CHECK criterion-N ...: PASS|FAIL`` line so the suite
doubles as the acceptance report (run with ``pytest -s``).
"""

import math
import random
import time

from lie2coh.numeric import Matrix, Q0, Q1, Jet
from lie2coh.liealg import LieAlgebra, Representation
from lie2coh.lie2 import (CrossedModuleAlg, TwoVectorSpace,
                          validate_crossed_module, gl_phi)
from lie2coh.tworep import TwoRep, validate_two_rep, adjoint_rep
from lie2coh.lattice import LatticeContext, trivial_cohomology_dim
from lie2coh.ext import (extension_from_cocycle, canonical_splitting,
                         cocycle_from_extension, coboundary_solve,
                         cocycle_space_basis, cocycle_from_slice,
                         cocycle_slice_class_count, trivial_coeff_extension)
from lie2coh.samples import (rng_from_seed, random_context,
                             random_crossed_module, random_matrix)
from lie2coh import grp
from lie2coh.homalg import cone_vanishing_equiv


def report(name, passed, detail, started, budget):
    elapsed = time.time() - started
    line = "CHECK %s: %s %s (%.1fs, budget %ds)" % (
        name, "PASS" if passed else "FAIL", detail, elapsed, budget)
    print(line)
    assert passed, line
    assert elapsed <= budget, "over budget: " + line


def fixture_contexts():
    """The deterministic fixture contexts shared by several criteria."""
    out = []
    # scalar-action unit fixture
    g = LieAlgebra.abelian(1)
    h = LieAlgebra.abelian(1)
    x = CrossedModuleAlg(g, h, Matrix.zero(1, 1),
                         Representation(h, 1, [Matrix(1, 1, [[1]])]))
    out.append(LatticeContext(x, adjoint_rep(x)))
    # adjoint of the aff(1) ideal-inclusion quadruple with V = Q
    from lie2coh.lie2 import xmod_from_quadruple
    aff = LieAlgebra.aff1()
    rho = Representation(aff, 1, [Matrix(1, 1, [[1]]), Matrix.zero(1, 1)])
    x2 = xmod_from_quadruple(aff, [1], 1, rho)
    out.append(LatticeContext(x2, adjoint_rep(x2)))
    # central Heisenberg-type context
    h2 = LieAlgebra.abelian(2)
    x3 = CrossedModuleAlg(LieAlgebra.abelian(0), h2, Matrix.zero(2, 0),
                          Representation.trivial(h2, 0))
    out.append(LatticeContext(
        x3, TwoRep.trivial(x3, TwoVectorSpace(0, 1, Matrix.zero(1, 0)))))
    # seeded random contexts
    rng = rng_from_seed(2024)
    for _ in range(4):
        x4, r4 = random_context(rng, 2)
        out.append(LatticeContext(x4, r4))
    return out


def full_adjoint_fixture():
    """A dims-(2,2,2,2) adjoint context."""
    rng = rng_from_seed(99)
    while True:
        x = random_crossed_module(rng, 2)
        if x.g.dim == 2 and x.h.dim == 2:
            return LatticeContext(x, adjoint_rep(x))


def test_criterion_01_nabla_squared():
    started = time.time()
    rng = rng_from_seed(1)
    checked = 0
    ok = True
    for _ in range(200):
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        for n in range(4):
            if ctx.nabla_squared_blocks(n):
                ok = False
        checked += 1
    big = full_adjoint_fixture()
    for n in range(3):
        if big.nabla_squared_blocks(n):
            ok = False
    report("criterion-1 nabla-squared-zero", ok,
           "%d random contexts (n<=3) + (2,2,2,2) adjoint (n<=2), exact"
           % checked, started, 60)


def test_criterion_02_gl_phi_crossed_module():
    started = time.time()
    rng = rng_from_seed(2)
    ok = True
    for _ in range(50):
        dw, dv = rng.randint(0, 4), rng.randint(0, 4)
        v = TwoVectorSpace(dw, dv,
                           Matrix(dv, dw, [[rng.randint(-2, 2)
                                            for _ in range(dw)]
                                           for _ in range(dv)]))
        if validate_crossed_module(gl_phi(v)):
            ok = False
    report("criterion-2 gl-phi-crossed-module", ok,
           "50 random phi with dims <= 4, exact", started, 5)


def test_criterion_03_adjoint_two_rep():
    started = time.time()
    rng = rng_from_seed(3)
    ok = True
    for _ in range(50):
        x = random_crossed_module(rng, 3)
        if validate_two_rep(adjoint_rep(x)):
            ok = False
    report("criterion-3 adjoint-representation", ok,
           "50 random quadruples with h dims <= 3, exact", started, 5)


def test_criterion_04_low_degree_interpretations():
    started = time.time()
    ok = True
    for ctx in fixture_contexts():
        if ctx.h0_invariants() != ctx.total_cohomology(0)[0]:
            ok = False
        der, inn, out = ctx.h1_der_inn()
        if out != ctx.total_cohomology(1)[0]:
            ok = False
    report("criterion-4 low-degree-interpretations", ok,
           "H0 = invariants and H1 = Der/Inn on all fixtures, exact",
           started, 10)


def test_criterion_05_extension_dictionary():
    started = time.time()
    rng = rng_from_seed(5)
    ok = True
    round_trips = 0
    while round_trips < 50:
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        basis = cocycle_space_basis(ctx)
        n = (ctx.cochain_dim(0, 2, 0) + ctx.cochain_dim(0, 1, 1)
             + ctx.dv * ctx.dg)
        u = [Q0] * n
        for v in basis:
            c = rng.randint(-2, 2)
            if c:
                u = [a + c * b for a, b in zip(u, v)]
        coc = cocycle_from_slice(ctx, u)
        if coc.validate():
            ok = False
            break
        ext = extension_from_cocycle(coc)
        if not ext.rows_exact():
            ok = False
        sigma0, sigma1 = canonical_splitting(ext)
        _, back = cocycle_from_extension(ext, sigma0, sigma1, base_x=x)
        if back != coc:
            ok = False
        # perturbed splitting stays in the same class
        lam0 = random_matrix(rng, ctx.dv, ctx.dh, 1)
        lam1 = random_matrix(rng, ctx.dw, ctx.dg, 1)
        for b in range(ctx.dh):
            for i in range(ctx.dv):
                sigma0.data[x.h.dim + i][b] += lam0.data[i][b]
        for a in range(ctx.dg):
            for i in range(ctx.dw):
                sigma1.data[x.g.dim + i][a] += lam1.data[i][a]
        _, other = cocycle_from_extension(ext, sigma0, sigma1, base_x=x)
        if coboundary_solve(coc, other) is None:
            ok = False
        round_trips += 1
    for ctx in fixture_contexts():
        if cocycle_slice_class_count(ctx) != ctx.total_cohomology(2)[0]:
            ok = False
    report("criterion-5 extension-dictionary", ok,
           "%d round trips + splitting independence + class count = dim H2"
           % round_trips, started, 30)


def test_criterion_06_trivial_coefficient_h2():
    started = time.time()
    ok = True
    for dh, expect in ((2, 1), (3, 3), (4, 6)):
        h = LieAlgebra.abelian(dh)
        x = CrossedModuleAlg(LieAlgebra.abelian(0), h, Matrix.zero(dh, 0),
                             Representation.trivial(h, 0))
        if trivial_cohomology_dim(x, 2) != expect:
            ok = False
    h2 = LieAlgebra.abelian(2)
    x = CrossedModuleAlg(LieAlgebra.abelian(0), h2, Matrix.zero(2, 0),
                         Representation.trivial(h2, 0))
    heis = trivial_coeff_extension(x, [Q1], [Q0, Q0])
    if validate_crossed_module(heis):
        ok = False
    if heis.h.basis_bracket(0, 1) != [0, 0, -1]:
        ok = False
    report("criterion-6 trivial-coefficient-h2", ok,
           "dim H2 = binom(n,2) for abelian h, mu_phi Heisenberg, exact",
           started, 5)


def test_criterion_07_exponential_series():
    started = time.time()
    worst_scalar = 0.0
    rng = rng_from_seed(7)
    for _ in range(20):
        a = 2 * rng.random() - 1
        got = grp.glphi1_exp([[a]], [[1.0]])[0][0]
        worst_scalar = max(worst_scalar, abs(got - (math.exp(a) - 1.0)))
    worst_delta = 0.0
    for dims in ((2, 1), (3, 2), (2, 3)):
        v = TwoVectorSpace(dims[0], dims[1],
                           Matrix(dims[1], dims[0],
                                  [[rng.randint(-1, 1)
                                    for _ in range(dims[0])]
                                   for _ in range(dims[1])]))
        gx = grp.glphi_group(v)
        for _ in range(5):
            a = gx.sample_g(rng, 0.8)
            big, small = gx.i(grp.glphi1_exp(a, gx.phi))
            worst_delta = max(
                worst_delta,
                grp.residual(big, grp.mexp(grp.mmul(a, gx.phi))),
                grp.residual(small, grp.mexp(grp.mmul(gx.phi, a))))
    ok = worst_scalar <= 1e-12 and worst_delta <= 1e-9
    report("criterion-7 exponential-series", ok,
           "scalar %.2e (tol 1e-12), Delta-exp %.2e (tol 1e-9)"
           % (worst_scalar, worst_delta), started, 2)


def test_criterion_08_lie_functor():
    started = time.time()
    worst = 0.0
    for v in (TwoVectorSpace(1, 1, Matrix(1, 1, [[1]])),
              TwoVectorSpace(2, 1, Matrix(1, 2, [[1, 0]])),
              TwoVectorSpace(2, 2, Matrix.zero(2, 2))):
        res, _ = grp.lie_functor_matches_algebra(grp.glphi_group(v),
                                                 tol=1e-6)
        worst = max(worst, res)
    report("criterion-8 lie-functor", worst <= 1e-6,
           "max residual %.2e (tol 1e-6) on phi in {1, [1 0], 0_2x2}"
           % worst, started, 5)


def test_criterion_09_difference_map_relations():
    started = time.time()
    rep = grp.tautological_rep(
        grp.glphi_group(TwoVectorSpace(2, 1, Matrix(1, 2, [[1, 0]]))))
    worst = 0.0
    for r in (1, 2):
        worst = max(worst, grp.startop_relation_residual(
            rep, r, samples=20, seed=9))
    for (p, q) in ((0, 0), (0, 1), (1, 0)):
        worst = max(worst, grp.atsch_iv_residual(rep, p, q, samples=20,
                                                 seed=9))
        worst = max(worst, grp.atsch_v_residual(rep, p, q, samples=20,
                                                seed=9))
    report("criterion-9 difference-map-relations", worst <= 1e-9,
           "GpStarTop r in {1,2} + IV/V atSch, max residual %.2e (tol 1e-9)"
           % worst, started, 20)


def test_criterion_10_van_est_desk_check():
    started = time.time()
    gx = grp.additive_group(0, 2)
    F = grp.VanEstCochain(
        gx, 0, 2, 0, lambda gammas, fs: [gammas[0].h[0] * gammas[1].h[1]])
    worst = 0.0
    rng = rng_from_seed(10)
    exact_alt = True
    for _ in range(10):
        x = [2 * rng.random() - 1 for _ in range(2)]
        y = [2 * rng.random() - 1 for _ in range(2)]
        got = grp.van_est_phi(F, [x, y], [])[0]
        want = x[0] * y[1] - x[1] * y[0]
        worst = max(worst, abs(got - want))
        if grp.van_est_phi(F, [y, x], [])[0] != -got:
            exact_alt = False
    ok = worst <= 1e-12 and exact_alt
    report("criterion-10 van-est-heisenberg", ok,
           "Phi F(x,y) = x1 y2 - x2 y1, residual %.2e, alternation exact=%s"
           % (worst, exact_alt), started, 2)


def test_criterion_11_cone_equivalence():
    started = time.time()
    from test_homalg import random_chain_map
    rng = random.Random(11)
    ok = True
    for _ in range(200):
        _, _, f = random_chain_map(rng)
        for k in range(-1, 4):
            lhs, rhs = cone_vanishing_equiv(f, k)
            if lhs != rhs:
                ok = False
    report("criterion-11 cone-equivalence", ok,
           "200 random chain maps, k in -1..3, exact", started, 10)


def test_criterion_12_group_two_cocycle_validator():
    started = time.time()
    rep = grp.tautological_rep(
        grp.glphi_group(TwoVectorSpace(2, 1, Matrix(1, 2, [[1, 0]]))))
    zv = lambda *a: [0.0] * rep.dim_v
    zw = lambda *a: [0.0] * rep.dim_w
    res = grp.gp2cocycle_residuals(rep, zv, zw, zw, zv, samples=20, seed=12)
    semidirect_ok = max(res.values()) == 0.0
    gx = grp.additive_group(2, 2)
    rep2 = grp.trivial_group_rep(gx, 1, 1)
    eps = lambda h, g: [h[0] * h[0] * g[0]]
    zw1 = lambda *a: [0.0]
    zv1 = lambda *a: [0.0]
    res2 = grp.gp2cocycle_residuals(rep2, zv1, zw1, eps, zv1, samples=20,
                                    seed=12)
    trips = res2["iv"] > 1e-6 and all(
        res2[k] <= 1e-12 for k in res2 if k != "iv")
    ok = semidirect_ok and trips
    report("criterion-12 gp2cocycle-validator", ok,
           "semidirect residuals all zero; perturbed alpha trips only iv "
           "(iv residual %.2e)" % res2["iv"], started, 5)
