"""Group-side checks: GL(phi), the exponential, the Lie functor, sampled
cochain relations, the 2-cocycle equations, and the van Est operators."""

import math
import random
from fractions import Fraction

import pytest

from lie2coh.numeric import Matrix, Jet
from lie2coh.lie2 import TwoVectorSpace
from lie2coh.grp import (glphi_group, glphi1_exp, additive_group,
                         group_xmod_validate_sampled, lie_functor_extract,
                         lie_functor_matches_algebra, tautological_rep,
                         trivial_group_rep, gp2cocycle_residuals,
                         GroupRepData,
                         homotopy_curvature_residual, random_group_cochain,
                         startop_relation_residual, atsch_iv_residual,
                         atsch_v_residual, GroupCochain, diff_cochain,
                         GpPoint, gp_sample, gp_face, gp_mul, gp_target,
                         gp_arrow_base,
                         VanEstCochain, van_est_r, van_est_phi,
                         mexp, mmul, mscale, residual, mzero, vmax, _vsub,
                         madd, meye)
from lie2coh import grp


def proj_phi():
    return TwoVectorSpace(2, 1, Matrix(1, 2, [[1, 0]]))


def test_glphi_axioms_sampled():
    for v in (TwoVectorSpace(1, 1, Matrix(1, 1, [[1]])), proj_phi(),
              TwoVectorSpace(2, 2, Matrix.zero(2, 2))):
        gx = glphi_group(v)
        res = group_xmod_validate_sampled(gx, samples=20, seed=1)
        assert max(res.values()) <= 1e-9, res


def test_glphi_identity_element():
    gx = glphi_group(proj_phi())
    assert gx.mul_g(gx.one_g, gx.one_g) == gx.one_g
    assert residual(gx.inv_g(gx.one_g), gx.one_g) == 0.0


def test_scalar_odot_and_dagger():
    gx = glphi_group(TwoVectorSpace(1, 1, Matrix(1, 1, [[1]])))
    a, b = 0.4, -0.2
    assert abs(gx.mul_g([[a]], [[b]])[0][0] - (a + b + a * b)) < 1e-15
    assert abs(gx.inv_g([[a]])[0][0] - (-a / (1 + a))) < 1e-15


def test_broken_action_peiffer_residual():
    gx = glphi_group(proj_phi())
    gx.act = lambda a, x: a
    res = group_xmod_validate_sampled(gx, samples=20, seed=2)
    assert res["peiffer"] > 0.1


def test_exp_scalar_closed_form():
    for a in (-1.0, -0.5, 0.0, 0.3, 1.0):
        got = glphi1_exp([[a]], [[1.0]])[0][0]
        assert abs(got - (math.exp(a) - 1.0)) < 1e-12


def test_exp_one_parameter_and_delta():
    rng = random.Random(4)
    gx = glphi_group(TwoVectorSpace(3, 2, Matrix(2, 3, [[1, 0, 1],
                                                        [0, 1, 0]])))
    for _ in range(5):
        a = gx.sample_g(rng, 0.8)
        for (s, t) in ((0.5, 0.5), (1.0, -1.0), (-0.3, 0.9)):
            lhs = gx.mul_g(glphi1_exp(mscale(a, s), gx.phi),
                           glphi1_exp(mscale(a, t), gx.phi))
            rhs = glphi1_exp(mscale(a, s + t), gx.phi)
            assert residual(lhs, rhs) <= 1e-9
        big, small = gx.i(glphi1_exp(a, gx.phi))
        assert residual(big, mexp(mmul(a, gx.phi))) <= 1e-9
        assert residual(small, mexp(mmul(gx.phi, a))) <= 1e-9


def test_exp_derivative_at_zero():
    gx = glphi_group(proj_phi())
    tau = Jet.variable(0, 1, 1)
    a = gx.sample_g(random.Random(5), 0.6)
    e = glphi1_exp([[tau * x for x in row] for row in a], gx.phi)
    d = [[x.coefficient((1,)) if isinstance(x, Jet) else 0.0 for x in row]
         for row in e]
    assert residual(d, a) <= 1e-12


def test_lie_functor_matches_gl_phi():
    for v in (TwoVectorSpace(1, 1, Matrix(1, 1, [[1]])), proj_phi(),
              TwoVectorSpace(2, 2, Matrix.zero(2, 2))):
        worst, ok = lie_functor_matches_algebra(glphi_group(v), tol=1e-6)
        assert ok, worst


def test_lie_functor_abelian_inclusion():
    gx = additive_group(1, 1, i_matrix=[[1.0]])
    data = lie_functor_extract(gx)
    assert abs(data["mu"][0][0] - 1.0) < 1e-12
    assert vmax(data["bracket_g"][0][0]) < 1e-12
    assert vmax(data["bracket_h"][0][0]) < 1e-12
    assert abs(data["action"][0][0][0]) < 1e-12


def test_startop_relations_pointwise():
    rep = tautological_rep(glphi_group(proj_phi()))
    for r in (1, 2):
        assert startop_relation_residual(rep, r, samples=10, seed=3) <= 1e-9


def test_atsch_relations_pointwise():
    rep = tautological_rep(glphi_group(proj_phi()))
    for (p, q) in ((0, 0), (0, 1), (1, 0)):
        assert atsch_iv_residual(rep, p, q, samples=5, seed=4) <= 1e-9
        assert atsch_v_residual(rep, p, q, samples=5, seed=5) <= 1e-9


def test_partial_collapses_on_constant_cochain():
    """The simplicial differential of a q = 0 cochain alternates between
    zero and the identity on abelian data."""
    gx = additive_group(2, 2)
    rep = trivial_group_rep(gx, 1, 1)
    c = GroupCochain(0, 0, 1, lambda gammas, fs: [fs[0][0] + 2 * fs[0][1]])
    rng = random.Random(6)
    f = gx.sample_g(rng, 1.0)
    out = diff_cochain(rep, "partial", c)
    assert abs(out([], [f])[0]) < 1e-15               # p = 0: zero
    # p = 1: identity (the three faces alternate +,-,+ on a constant)
    out2 = diff_cochain(rep, "partial", out)
    assert abs(out2([], [f])[0]) < 1e-15
    c1 = GroupCochain(1, 0, 1, lambda gammas, fs: [fs[0][0] + 2 * fs[0][1]])
    out3 = diff_cochain(rep, "partial", c1)
    assert abs(out3([], [f])[0] - c1([], [f])[0]) < 1e-12


def test_group_two_cocycle_on_additive_plane():
    """F(u, v) = u1 v2 is a group 2-cocycle of R^2: delta F = 0."""
    gx = additive_group(0, 2)
    rep = trivial_group_rep(gx, 0, 1)
    F = GroupCochain(0, 2, 0,
                     lambda gammas, fs: [gammas[0].h[0] * gammas[1].h[1]])
    dF = diff_cochain(rep, "delta", F)
    rng = random.Random(7)
    for _ in range(10):
        pts = [gp_sample(gx, rng, 0) for _ in range(3)]
        assert abs(dF(pts, [])[0]) < 1e-12


def test_gp_nerve_point_algebra():
    gx = glphi_group(proj_phi())
    rng = random.Random(8)
    a = gp_sample(gx, rng, 2, 0.4)
    b = gp_sample(gx, rng, 2, 0.4)
    prod = gp_mul(gx, a, b)
    # the group product covers multiplication of the final targets
    lhs = gp_target(gx, prod)
    rhs = gx.mul_h(gp_target(gx, a), gp_target(gx, b))
    assert residual(lhs[0], rhs[0]) < 1e-12
    assert residual(lhs[1], rhs[1]) < 1e-12
    # faces commute with the simplicial identities d_j d_k = d_k d_{j+1}
    for k in range(3):
        for j in range(k, 2):
            x1 = gp_face(gx, gp_face(gx, a, k), j)
            x2 = gp_face(gx, gp_face(gx, a, j + 1), k)
            for g1, g2 in zip(x1.gs, x2.gs):
                assert residual(g1, g2) < 1e-12
            assert residual(x1.h[0], x2.h[0]) < 1e-12


def test_gp2cocycle_semidirect_zero():
    rep = tautological_rep(glphi_group(proj_phi()))
    zv = lambda *a: [0.0] * rep.dim_v
    zw = lambda *a: [0.0] * rep.dim_w
    res = gp2cocycle_residuals(rep, zv, zw, zw, zv, samples=15, seed=9)
    assert max(res.values()) == 0.0


def test_gp2cocycle_central_extension_plane():
    gx = additive_group(0, 2)
    rep = trivial_group_rep(gx, 0, 1)
    om0 = lambda h0, h1: [h0[0] * h1[1]]
    zw = lambda *a: []
    zv = lambda *a: [0.0]
    res = gp2cocycle_residuals(rep, om0, zw, zw, zv, samples=15, seed=10)
    assert max(res.values()) <= 1e-12


def test_gp2cocycle_perturbed_alpha_trips_iv():
    gx = additive_group(2, 2)
    rep = trivial_group_rep(gx, 1, 1)
    eps = lambda h, g: [h[0] * h[0] * g[0]]
    zw = lambda *a: [0.0]
    zv = lambda *a: [0.0]
    res = gp2cocycle_residuals(rep, zv, zw, eps, zv, samples=15, seed=11)
    assert res["iv"] > 1e-6
    for key in ("i", "ii", "iii", "v", "vi", "vii"):
        assert res[key] <= 1e-12


def test_curvature_vanishes():
    for v in (proj_phi(), TwoVectorSpace(2, 2, Matrix.zero(2, 2))):
        rep = tautological_rep(glphi_group(v))
        assert homotopy_curvature_residual(rep, samples=15, seed=12) <= 1e-12


def test_curvature_detects_broken_rep():
    """Representations that are not morphisms into GL(phi) have a visible
    defect: rho0^W or rho1 scaled by 1.1 breaks multiplicativity and the
    compatibilities with phi and i."""
    for v in (proj_phi(), TwoVectorSpace(1, 1, Matrix(1, 1, [[1]]))):
        gx = glphi_group(v)
        good = tautological_rep(gx)
        for rho1, rho0_w in ((good.rho1, lambda x: mscale(x[0], 1.1)),
                             (lambda a: mscale(a, 1.1), good.rho0_w)):
            broken = GroupRepData(gx, rho1, rho0_w, good.rho0_v, good.phi,
                                  good.dim_w, good.dim_v)
            assert homotopy_curvature_residual(broken, samples=15,
                                               seed=12) > 1e-3


def test_van_est_r_linear_examples():
    gx = additive_group(0, 2)
    F = VanEstCochain(gx, 0, 2, 0,
                      lambda gammas, fs: [gammas[0].h[0] * gammas[1].h[1]])
    rx = van_est_r(F, [2.0, 0.5], slot="h")
    got = rx([GpPoint([], [3.0, 4.0])], [])
    assert abs(got[0] - 2.0 * 4.0) < 1e-12
    ry = van_est_r(rx, [1.0, 7.0], slot="h")
    assert abs(ry([], [])[0] - 2.0 * 7.0) < 1e-12
    const = VanEstCochain(gx, 0, 1, 0, lambda gammas, fs: [5.0])
    assert abs(van_est_r(const, [1.0, 1.0], slot="h")([], [])[0]) < 1e-15


def test_van_est_cochain_refuses_level_above_zero():
    """Only level-0 nerve points move through exp_h; p >= 1 is refused at
    construction, not at the first derivative."""
    gx = additive_group(0, 2)
    with pytest.raises(ValueError, match="p = 0"):
        VanEstCochain(gx, 1, 1, 0, lambda gammas, fs: [0.0])


def test_van_est_r_g_slot_closed_form():
    """R_x on the first G-slot of F(gamma; f0, f1) = h f0[0] f1[1]
    + f0[1] f1[0]^2 + f0[0]^2 over R^2 -> R is h x[0] f1[1] + x[1] f1[0]^2;
    R_y after it leaves h x[0] y[1], and R_xi of that xi[0] x[0] y[1]."""
    gx = additive_group(2, 1)
    F = VanEstCochain(gx, 0, 1, 2, lambda gammas, fs: [
        gammas[0].h[0] * fs[0][0] * fs[1][1] + fs[0][1] * fs[1][0] * fs[1][0]
        + fs[0][0] * fs[0][0]])
    x, y, xi = [0.7, -1.3], [0.4, 2.5], [-0.6]
    rx = van_est_r(F, x)
    assert (rx.p, rx.q, rx.r) == (0, 1, 1)
    h, f1 = 1.5, [0.3, -2.0]
    got = rx([GpPoint([], [h])], [f1])[0]
    assert abs(got - (h * x[0] * f1[1] + x[1] * f1[0] ** 2)) < 1e-12
    ryx = van_est_r(rx, y)
    assert (ryx.p, ryx.q, ryx.r) == (0, 1, 0)
    assert abs(ryx([GpPoint([], [h])], [])[0] - h * x[0] * y[1]) < 1e-12
    full = van_est_r(ryx, xi, slot="h")
    assert abs(full([], [])[0] - xi[0] * x[0] * y[1]) < 1e-12


def test_van_est_phi_heisenberg():
    gx = additive_group(0, 2)
    F = VanEstCochain(gx, 0, 2, 0,
                      lambda gammas, fs: [gammas[0].h[0] * gammas[1].h[1]])
    for (x, y) in ([[1.0, 0.0], [0.0, 1.0]], [[0.2, 1.5], [-2.0, 0.7]]):
        got = van_est_phi(F, [x, y], [])[0]
        want = x[0] * y[1] - x[1] * y[0]
        assert abs(got - want) < 1e-12
        assert abs(van_est_phi(F, [y, x], [])[0] + got) < 1e-15


def test_van_est_phi_g_slots_alternating():
    gx = glphi_group(proj_phi())
    rng = random.Random(13)
    coeff = [[rng.uniform(-1, 1) for _ in range(gx.dim_g)] for _ in range(2)]

    def fn(gammas, fs):
        flat0 = gx.flatten_g(fs[0])
        flat1 = gx.flatten_g(fs[1])
        val = (sum(c * x for c, x in zip(coeff[0], flat0))
               * sum(c * x for c, x in zip(coeff[1], flat1)))
        return [val, 0.0]

    c = VanEstCochain(gx, 0, 0, 2, fn)
    x1 = [rng.uniform(-1, 1) for _ in range(gx.dim_g)]
    x2 = [rng.uniform(-1, 1) for _ in range(gx.dim_g)]
    a = van_est_phi(c, [], [x1, x2])
    b = van_est_phi(c, [], [x2, x1])
    assert vmax(_vsub(a, [-t for t in b])) < 1e-12
    same = van_est_phi(c, [], [x1, x1])
    assert vmax(same) < 1e-12


def test_van_est_classic_case_agrees_with_direct_formula():
    """For (0, q, 0) cochains the operator equals the classic van Est sum
    of iterated derivatives (checked against an explicit q = 3 formula)."""
    gx = additive_group(0, 3)
    # f(a, b, c) = a1 b2 c3, trilinear
    F = VanEstCochain(
        gx, 0, 3, 0,
        lambda gammas, fs: [gammas[0].h[0] * gammas[1].h[1]
                            * gammas[2].h[2]])
    xs = [[1.0, 2.0, 0.5], [0.0, 1.0, -1.0], [2.0, 0.0, 1.0]]

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    got = van_est_phi(F, xs, [])[0]
    # antisymmetrization of x1 (x) y2 (x) z3 is the determinant
    want = det3([[xs[i][j] for j in range(3)] for i in range(3)])
    assert abs(got - want) < 1e-12


def aff1_matrix_group():
    """H = upper-triangular [[a, b], [0, 1]] with a > 0; G trivial.

    exp([[t, s], [0, 0]]) parametrizes it, so the Lie algebra in the
    chart basis is aff(1): [e0, e1] = e1."""
    from lie2coh.grp import GroupXModData, mexp, minv, mmul, meye, Jet

    def exp_h(vec):
        t, s = vec
        return mexp([[t, s], [0.0 * t, 0.0 * t]])

    def coeff_of(x, key):
        return x.coefficient(key) if isinstance(x, Jet) else 0.0

    def flatten_h(m):
        return [m[0][0], m[0][1], m[1][0], m[1][1]]

    gx = GroupXModData(
        0, 2,
        lambda a, b: [], lambda a: [], [],
        mmul, minv, meye(2),
        lambda g: meye(2),
        lambda g, h: [],
        lambda vec: [],
        exp_h,
        lambda g: [],
        flatten_h,
        lambda vec: [],
        lambda m, key: [coeff_of(x, key) for x in flatten_h(m)])
    return gx


def test_van_est_intertwines_group_and_algebra_differentials():
    """The classic van Est square commutes at desk scale: applying the
    group simplicial differential and then Phi equals the trivial
    Chevalley-Eilenberg differential of aff(1) after Phi."""
    from lie2coh.grp import (GroupCochain, VanEstCochain, diff_cochain,
                             trivial_group_rep, van_est_phi)
    from lie2coh.liealg import LieAlgebra
    gx = aff1_matrix_group()
    rep = trivial_group_rep(gx, 0, 1)
    rng = random.Random(21)
    aff = LieAlgebra.aff1()

    def lie_bracket(u, v):
        return [float(c) for c in aff.bracket(u, v)]

    for _ in range(3):
        coeff = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(2)]

        def f(gammas, fs):
            total = 1.0
            for c, pt in zip(coeff, gammas):
                flat = gx.flatten_h(pt.h)
                centered = [flat[0] - 1.0, flat[1], flat[2], flat[3] - 1.0]
                total = total * sum(ci * x for ci, x in zip(c, centered))
            return [total]

        two = GroupCochain(0, 2, 0, f)
        d_two = diff_cochain(rep, "delta", two)
        lhs_cochain = VanEstCochain(gx, 0, 3, 0,
                                    lambda gammas, fs: d_two(gammas, fs))
        phi_f = VanEstCochain(gx, 0, 2, 0, f)

        def omega(u, v):
            return van_est_phi(phi_f, [u, v], [])[0]

        for _ in range(4):
            x = [rng.uniform(-1, 1) for _ in range(2)]
            y = [rng.uniform(-1, 1) for _ in range(2)]
            z = [rng.uniform(-1, 1) for _ in range(2)]
            lhs = van_est_phi(lhs_cochain, [x, y, z], [])[0]
            rhs = (-omega(lie_bracket(x, y), z)
                   + omega(lie_bracket(x, z), y)
                   - omega(lie_bracket(y, z), x))
            assert abs(lhs - rhs) < 1e-9, (lhs, rhs)


def test_startop_relation_general_pq():
    """The first-difference relation holds away from the origin of the
    lattice too, exercising the staircase formula's vertical-product
    twists at higher nerve levels and q-arities."""
    from lie2coh.grp import startop_relation_residual
    rep = tautological_rep(glphi_group(proj_phi()))
    for (p, q) in ((0, 1), (1, 0), (1, 1)):
        for r in (1, 2):
            res = startop_relation_residual(rep, r, samples=3, seed=5,
                                            p=p, q=q)
            assert res <= 1e-9, (p, q, r, res)


# The exponential series as it was before the stop rule: always 30 terms.
# Kept verbatim as the oracle of the early-stopping series.

def oracle_mexp(a, terms=30):
    n = len(a)
    out = meye(n)
    term = meye(n)
    for k in range(1, terms + 1):
        term = mscale(mmul(term, a), 1.0 / k)
        out = madd(out, term)
    return out


def oracle_glphi1_exp(a, phi, terms=30):
    dv = len(phi)
    acc = meye(dv)
    term = meye(dv)
    phi_a = mmul(phi, a)
    for n in range(1, terms + 1):
        term = mscale(mmul(term, phi_a), 1.0 / (n + 1))
        acc = madd(acc, term)
    return mmul(a, acc)


def _uniform(rng, rows, cols):
    return [[rng.uniform(-1.0, 1.0) for _ in range(cols)]
            for _ in range(rows)]


def test_series_matches_thirty_terms_on_floats():
    """Stopping once a term changes no entry gives the 30-term sums
    exactly (same repr), for the exponential series (which mexp sums on
    jets) and glphi1_exp."""
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = _uniform(rng, n, n)
        assert repr(grp._series(a, 0)) == repr(oracle_mexp(a)), a
        dw, dv = rng.randint(1, 4), rng.randint(1, 4)
        a = _uniform(rng, dw, dv)
        phi = _uniform(rng, dv, dw)
        assert repr(glphi1_exp(a, phi)) == repr(oracle_glphi1_exp(a, phi))


def _nilpotent_jet(rng, num_vars, order):
    """A jet with zero constant part, or a float zero."""
    if rng.random() < 0.25:
        return 0.0
    out = Jet(num_vars, order)
    for i in range(num_vars):
        out = out + Jet.variable(i, num_vars, order, rng.uniform(-1, 1))
    return out


def _coefficients(x):
    """{key: coefficient} of a two-variable jet entry; a float is its
    constant term."""
    if isinstance(x, Jet):
        return {k: v for k, v in x.coeffs.items() if v != 0.0}
    return {(0, 0): x} if x != 0.0 else {}


def _same_coefficients(m1, m2):
    assert len(m1) == len(m2)
    for r1, r2 in zip(m1, m2):
        assert [_coefficients(x) for x in r1] == [_coefficients(x) for x in r2]


def test_series_matches_thirty_terms_on_nilpotent_jets():
    rng = random.Random(23)
    for _ in range(20):
        order = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = [[_nilpotent_jet(rng, 2, order) for _ in range(n)]
             for _ in range(n)]
        _same_coefficients(mexp(a), oracle_mexp(a))
        dw = rng.randint(1, 3)
        a = [[_nilpotent_jet(rng, 2, order) for _ in range(n)]
             for _ in range(dw)]
        phi = _uniform(rng, n, dw)
        _same_coefficients(glphi1_exp(a, phi), oracle_glphi1_exp(a, phi))


def test_mexp_of_nilpotent_jet_stops_early(monkeypatch):
    """On an order-2 jet matrix with zero constant part the series ends
    after order + 1 terms: at most 4 products, not 30."""
    calls = []

    def counting_mmul(a, b):
        calls.append(1)
        return mmul(a, b)

    monkeypatch.setattr(grp, "mmul", counting_mmul)
    tau = Jet.variable(0, 1, 2)
    a = [[tau * 0.5, tau * -1.0], [tau * 2.0, 0.0]]
    got = mexp(a)
    assert len(calls) <= 4, len(calls)
    # exp(a) = I + a + a^2 / 2 in the jet ring of order 2
    assert got[0][1].coefficient((1,)) == -1.0
    assert got[1][1].coefficient((2,)) == -1.0


def _exact_exp(a, terms=80):
    """The Taylor sum of exp(a) to x^terms / terms!, as Fractions.  The
    float entries are dyadic, a = m / d with m an integer matrix, so the
    sum is one integer matrix over d^terms terms!."""
    n = len(a)
    d = max([Fraction(x).denominator for row in a for x in row] + [1])
    m = [[int(Fraction(x) * d) for x in row] for row in a]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    total = [[0] * n for _ in range(n)]
    for k in range(terms + 1):
        weight = d ** (terms - k) * (math.factorial(terms)
                                     // math.factorial(k))
        total = [[t + weight * p for t, p in zip(rt, rp)]
                 for rt, rp in zip(total, power)]
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)]
                 for row in power]
    den = d ** terms * math.factorial(terms)
    return [[Fraction(t, den) for t in row] for row in total]


def test_mexp_pade_matches_exact_exponential():
    """mexp of a float matrix (scaling and squaring with the [7/7] Pade
    approximant) is within 1e-14, relative to its largest entry, of the
    exact 80-term Taylor sum at entry scales 0.3, 1 and 3 (1-norms up to
    12, so up to four squarings).  exp(0) is the identity, and a matrix
    with a jet entry sums the series."""
    rng = random.Random(29)
    for scale in (0.3, 1.0, 3.0):
        for n in range(1, 5):
            for _ in range(3):
                a = [[rng.uniform(-scale, scale) for _ in range(n)]
                     for _ in range(n)]
                exact = _exact_exp(a)
                big = max(abs(x) for row in exact for x in row)
                err = max(abs(Fraction(g) - x)
                          for rg, rx in zip(mexp(a), exact)
                          for g, x in zip(rg, rx))
                assert err <= Fraction(1e-14) * big, (scale, a, float(err))
    for n in range(5):
        assert mexp(mzero(n, n)) == meye(n)
    tau = Jet.variable(0, 1, 2)
    a = [[0.25, tau * 0.5], [-0.75, 0.0]]
    assert repr(_spelled(mexp(a))) == repr(_spelled(grp._series(a, 0)))


# The matrix kernels and the point geometry as they were before the
# kernels were rewritten and the geometry kept on the point, kept as the
# oracles of the rewrite, which changes no float operation or its order.

def parent_meye(n):
    m = mzero(n, n)
    for i in range(n):
        m[i][i] = 1.0
    return m


def parent_mmul(a, b):
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0.0] * cols
        for x, brow in zip(row, b):
            if x:
                acc = [o + x * y for o, y in zip(acc, brow)]
        out.append(acc)
    return out


def parent_minv(a):
    n = len(a)
    work = [row[:] + eye_row[:] for row, eye_row in zip(a, parent_meye(n))]
    for col in range(n):
        piv = max(range(col, n),
                  key=lambda i: abs(grp._const_of(work[i][col])))
        assert abs(grp._const_of(work[piv][col])) > 1e-12, "singular matrix"
        work[col], work[piv] = work[piv], work[col]
        inv = work[col][col].reciprocal() if isinstance(work[col][col], Jet) \
            else 1.0 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col:
                f = work[i][col]
                if f:
                    work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]


def parent_series(x, shift):
    out = parent_meye(len(x))
    term = parent_meye(len(x))
    for k in range(1, 31):
        term = mscale(parent_mmul(term, x), 1.0 / (k + shift))
        if all(grp._absorbed(o, t) for row_o, row_t in zip(out, term)
               for o, t in zip(row_o, row_t)):
            break
        out = madd(out, term)
    return out


def parent_gp_arrow_base(gx, pt, a):
    return gx.mul_h(pt.h, gx.prod_h(gx.i(pt.gs[k]) for k
                                    in range(len(pt.gs) - 1, a, -1)))


def parent_gp_target(gx, pt):
    return gx.mul_h(pt.h, gx.i(gx.prod_g(reversed(pt.gs))))


def _spelled(m):
    """A matrix (or nest of them) with each jet entry spelled out as its
    type, shape and coefficients in insertion order, so that repr compares
    jets by value."""
    if isinstance(m, Jet):
        return ("Jet", m.num_vars, m.order, list(m.coeffs.items()))
    if isinstance(m, (list, tuple)):
        return [_spelled(x) for x in m]
    return m


def _sparse_uniform(rng, rows, cols, scale=1.0):
    """Uniform entries of which about a third are 0.0."""
    return [[0.0 if rng.random() < 0.3 else rng.uniform(-scale, scale)
             for _ in range(cols)] for _ in range(rows)]


def test_group_kernels_match_parent():
    """mmul, meye, minv and the exponential series give what they gave
    before the rewrite, to the last bit (same repr), on float matrices with
    zeros (mmul also on non-square and empty shapes) and on nilpotent jet
    matrices."""
    rng = random.Random(31)
    for n in range(6):
        assert repr(meye(n)) == repr(parent_meye(n))
    shapes = [(r, k, c) for r in range(5) for k in range(5)
              for c in range(5)]
    for r, k, c in shapes:
        a, b = _sparse_uniform(rng, r, k), _sparse_uniform(rng, k, c)
        assert repr(mmul(a, b)) == repr(parent_mmul(a, b)), (a, b)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = madd(meye(n), _sparse_uniform(rng, n, n, 0.5))
        assert repr(grp.minv(a)) == repr(parent_minv(a)), a
        a = _sparse_uniform(rng, n, n)
        for shift in (0, 1):
            assert repr(grp._series(a, shift)) == repr(parent_series(a, shift))
        # small integer entries tie for the pivot: the first one wins
        a = [[float(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            want = repr(parent_minv(a))
        except AssertionError:      # singular
            continue
        assert repr(grp.minv(a)) == want, a
    for _ in range(30):
        order = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = [[_nilpotent_jet(rng, 2, order) for _ in range(n)]
             for _ in range(n)]
        b = [[_nilpotent_jet(rng, 2, order) for _ in range(n)]
             for _ in range(n)]
        c, d = _uniform(rng, n, 2), _uniform(rng, 2, n)
        for got, want in ((mmul(a, b), parent_mmul(a, b)),
                          (mmul(a, c), parent_mmul(a, c)),
                          (mmul(d, a), parent_mmul(d, a)),
                          (grp.minv(madd(meye(n), a)),
                           parent_minv(madd(meye(n), a))),
                          (grp._series(a, 0), parent_series(a, 0)),
                          (grp._series(a, 1), parent_series(a, 1))):
            assert repr(_spelled(got)) == repr(_spelled(want))


def test_point_geometry_matches_uncached():
    """The arrow bases and the final target a point keeps are, to the last
    bit, the ones computed afresh on each call, on GL(phi) points of levels
    1-3; a second call returns the kept object."""
    for dims in ((2, 1), (3, 2)):
        gx = glphi_group(grp._phi_for_dims(dims[0], dims[1], 7))
        rng = random.Random(37)
        for level in (1, 2, 3):
            for _ in range(4):
                pt = gp_sample(gx, rng, level, 0.4)
                bases = [gp_arrow_base(gx, pt, a) for a in range(level)]
                assert repr(bases) == repr(
                    [parent_gp_arrow_base(gx, pt, a) for a in range(level)])
                assert all(gp_arrow_base(gx, pt, a) is base
                           for a, base in enumerate(bases))
                target = gp_target(gx, pt)
                assert repr(target) == repr(parent_gp_target(gx, pt))
                assert gp_target(gx, pt) is target
