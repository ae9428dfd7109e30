"""The matrix-group side at desk scale: the GL(phi) Lie 2-group with its
exponential, sampled crossed-module and 2-cocycle validators, the group
cochain differentials and difference maps evaluated pointwise, and the
van Est operators.

All derivatives run through jets (never finite differences); group
elements are explicit matrices, GL(phi)-pairs, or additive vectors.
"""

import math
import random

from .numeric import Jet, jet_exp, Matrix, rank_and_kernel
from .lie2 import TwoVectorSpace, gl_phi

# ---------------------------------------------------------------------------
# Float/jet matrices as lists of lists.
# ---------------------------------------------------------------------------


def mzero(r, c):
    return [[0.0] * c for _ in range(r)]


def meye(n):
    m = mzero(n, n)
    for i in range(n):
        m[i][i] = 1.0
    return m


def madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def msub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mneg(a):
    return [[-x for x in row] for row in a]


def mscale(a, c):
    return [[c * x for x in row] for row in a]


def mmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0.0 for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            x = a[i][k]
            if isinstance(x, float) and x == 0.0:
                continue
            for j in range(cols):
                out[i][j] = out[i][j] + x * b[k][j]
    return out


def mapply(a, v):
    return [sum((x * y for x, y in zip(row, v)), 0.0) for row in a]


def _const_of(x):
    return x.const if isinstance(x, Jet) else x


def minv(a):
    """Inverse by Gaussian elimination; jet entries pivot on the constant
    part and divide through jet reciprocals."""
    n = len(a)
    work = [row[:] + eye_row[:] for row, eye_row in zip(a, meye(n))]
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(_const_of(work[i][col])))
        assert abs(_const_of(work[piv][col])) > 1e-12, "singular matrix"
        work[col], work[piv] = work[piv], work[col]
        inv = work[col][col].reciprocal() if isinstance(work[col][col], Jet) \
            else 1.0 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col:
                f = work[i][col]
                if isinstance(f, float) and f == 0.0:
                    continue
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]


def mexp(a, terms=30):
    """Matrix exponential by plain series; fine at desk-scale norms and
    exact on jet matrices whose entries have zero constant part."""
    n = len(a)
    out = meye(n)
    term = meye(n)
    for k in range(1, terms + 1):
        term = mscale(mmul(term, a), 1.0 / k)
        out = madd(out, term)
    return out


def mmax(a):
    best = 0.0
    for row in a:
        for x in row:
            v = abs(_const_of(x)) if isinstance(x, Jet) else abs(x)
            best = max(best, v)
    return best


def vmax(v):
    return max((abs(_const_of(x)) if isinstance(x, Jet) else abs(x)
                for x in v), default=0.0)


def residual(a, b):
    return mmax(msub(a, b))


def to_float_matrix(m):
    """Exact rational Matrix -> float list-of-lists."""
    return [[float(x) for x in row] for row in m.data]


def fsolve(a, b):
    """Float least-squares solve via normal equations (full column rank)."""
    at = [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]
    ata = mmul(at, a)
    atb = mapply(at, b)
    n = len(ata)
    work = [row[:] + [atb[i]] for i, row in enumerate(ata)]
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(work[i][col]))
        assert abs(work[piv][col]) > 1e-12, "rank-deficient chart"
        work[col], work[piv] = work[piv], work[col]
        inv = 1.0 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [work[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# Group crossed-module data.
# ---------------------------------------------------------------------------


class GroupXModData:
    """A crossed module of matrix-ish Lie groups given by closures.

    All maps must be evaluable on jet-valued entries.  ``exp_g``/``exp_h``
    take parameter vectors (dim_g/dim_h long); ``tangent_g``/``tangent_h``
    extract parameter coordinates of a first-order jet element back.
    """

    def __init__(self, dim_g, dim_h, mul_g, inv_g, one_g, mul_h, inv_h,
                 one_h, i_map, act, exp_g, exp_h, flatten_g, flatten_h,
                 tangent_g, tangent_h, sample_g, sample_h):
        self.dim_g = dim_g
        self.dim_h = dim_h
        self.mul_g = mul_g
        self.inv_g = inv_g
        self.one_g = one_g
        self.mul_h = mul_h
        self.inv_h = inv_h
        self.one_h = one_h
        self.i = i_map
        self.act = act          # (g, h) -> g^h
        self.exp_g = exp_g
        self.exp_h = exp_h
        self.flatten_g = flatten_g
        self.flatten_h = flatten_h
        self.tangent_g = tangent_g
        self.tangent_h = tangent_h
        self.sample_g = sample_g
        self.sample_h = sample_h

    def prod_g(self, elements):
        out = self.one_g
        for e in elements:
            out = self.mul_g(out, e)
        return out

    def prod_h(self, elements):
        out = self.one_h
        for e in elements:
            out = self.mul_h(out, e)
        return out


def glphi1_exp(a, phi, terms=30):
    """exp of GL(phi)_1: A sum_n (phi A)^n / (n+1)!."""
    dv = len(phi)
    acc = meye(dv)
    term = meye(dv)
    phi_a = mmul(phi, a)
    for n in range(1, terms + 1):
        term = mscale(mmul(term, phi_a), 1.0 / (n + 1))
        acc = madd(acc, term)
    return mmul(a, acc)


def glphi_group(v):
    """The GL(phi) crossed module as jet-evaluable group data.

    ``v`` is an exact TwoVectorSpace; the gl(phi)_0 basis of the exact
    linear Lie 2-algebra is reused as the chart for GL(phi)_0, so the
    jet-extracted Lie 2-algebra is directly comparable with gl_phi(v).
    """
    algebra = gl_phi(v)
    dw, dv = v.dim_w, v.dim_v
    phi = to_float_matrix(v.phi)
    h_basis = [(to_float_matrix(f), to_float_matrix(s))
               for (f, s) in algebra.h_basis]
    dim_g = dw * dv
    dim_h = len(h_basis)

    def unflatten_a(vec):
        return [[vec[i * dv + j] for j in range(dv)] for i in range(dw)]

    def mul_g(a, b):
        return madd(madd(a, b), mmul(a, mmul(phi, b)))

    def inv_g(a):
        return mneg(mmul(a, minv(madd(meye(dv), mmul(phi, a)))))

    def mul_h(x, y):
        return (mmul(x[0], y[0]), mmul(x[1], y[1]))

    def inv_h(x):
        return (minv(x[0]), minv(x[1]))

    def i_map(a):
        return (madd(meye(dw), mmul(a, phi)), madd(meye(dv), mmul(phi, a)))

    def act(a, x):
        return mmul(minv(x[0]), mmul(a, x[1]))

    def exp_g(vec):
        return glphi1_exp(unflatten_a(list(vec)), phi)

    def exp_h(vec):
        big = mzero(dw, dw)
        small = mzero(dv, dv)
        for c, (bf, bs) in zip(vec, h_basis):
            big = madd(big, mscale(bf, c))
            small = madd(small, mscale(bs, c))
        return (mexp(big), mexp(small))

    def flatten_g(a):
        return [a[i][j] for i in range(dw) for j in range(dv)]

    def flatten_h(x):
        return ([x[0][i][j] for i in range(dw) for j in range(dw)]
                + [x[1][i][j] for i in range(dv) for j in range(dv)])

    basis_cols = [([bf[i][j] for i in range(dw) for j in range(dw)]
                   + [bs[i][j] for i in range(dv) for j in range(dv)])
                  for (bf, bs) in h_basis]
    basis_matrix = [[basis_cols[k][i] for k in range(dim_h)]
                    for i in range(dw * dw + dv * dv)] if dim_h else []

    def coeff_of(x, key):
        return x.coefficient(key) if isinstance(x, Jet) else 0.0

    def tangent_g(a, key):
        return [coeff_of(x, key) for x in flatten_g(a)]

    def tangent_h(x, key):
        flat = [coeff_of(e, key) for e in flatten_h(x)]
        if not dim_h:
            return []
        return fsolve(basis_matrix, flat)

    def sample_g(rng, scale=0.4):
        return unflatten_a([scale * (2 * rng.random() - 1)
                            for _ in range(dim_g)])

    def sample_h(rng, scale=0.4):
        return exp_h([scale * (2 * rng.random() - 1) for _ in range(dim_h)])

    gx = GroupXModData(dim_g, dim_h, mul_g, inv_g, mzero(dw, dv), mul_h,
                       inv_h, (meye(dw), meye(dv)), i_map, act, exp_g,
                       exp_h, flatten_g, flatten_h, tangent_g, tangent_h,
                       sample_g, sample_h)
    gx.phi = phi
    gx.dim_w = dw
    gx.dim_v = dv
    gx.algebra = algebra
    return gx


def additive_group(dim_g, dim_h, i_matrix=None):
    """Abelian vector groups G = R^dim_g, H = R^dim_h with trivial action
    and an optional linear structural map."""
    if i_matrix is None:
        i_matrix = mzero(dim_h, dim_g)

    def ident(vec):
        return list(vec)

    def coeff_of(x, key):
        return x.coefficient(key) if isinstance(x, Jet) else 0.0

    gx = GroupXModData(
        dim_g, dim_h,
        lambda a, b: [x + y for x, y in zip(a, b)],
        lambda a: [-x for x in a],
        [0.0] * dim_g,
        lambda a, b: [x + y for x, y in zip(a, b)],
        lambda a: [-x for x in a],
        [0.0] * dim_h,
        lambda g: mapply(i_matrix, g),
        lambda g, h: list(g),
        ident, ident, ident, ident,
        lambda g, key: [coeff_of(x, key) for x in g],
        lambda h, key: [coeff_of(x, key) for x in h],
        lambda rng, scale=1.0: [scale * (2 * rng.random() - 1)
                                for _ in range(dim_g)],
        lambda rng, scale=1.0: [scale * (2 * rng.random() - 1)
                                for _ in range(dim_h)])
    return gx


def _elem_residual(gx, kind, a, b):
    fa = gx.flatten_g(a) if kind == "g" else gx.flatten_h(a)
    fb = gx.flatten_g(b) if kind == "g" else gx.flatten_h(b)
    return vmax([x - y for x, y in zip(fa, fb)])


def group_xmod_validate_sampled(gx, samples=20, seed=0, scale=0.4):
    """Max residual per crossed-module axiom over seeded random samples."""
    rng = random.Random(seed)
    out = {"i_homomorphism": 0.0, "action_automorphism": 0.0,
           "right_action": 0.0, "equivariance": 0.0, "peiffer": 0.0}
    for _ in range(samples):
        g1 = gx.sample_g(rng, scale)
        g2 = gx.sample_g(rng, scale)
        h1 = gx.sample_h(rng, scale)
        h2 = gx.sample_h(rng, scale)
        out["i_homomorphism"] = max(out["i_homomorphism"], _elem_residual(
            gx, "h", gx.i(gx.mul_g(g1, g2)), gx.mul_h(gx.i(g1), gx.i(g2))))
        out["action_automorphism"] = max(
            out["action_automorphism"], _elem_residual(
                gx, "g", gx.act(gx.mul_g(g1, g2), h1),
                gx.mul_g(gx.act(g1, h1), gx.act(g2, h1))))
        out["right_action"] = max(out["right_action"], _elem_residual(
            gx, "g", gx.act(g1, gx.mul_h(h1, h2)),
            gx.act(gx.act(g1, h1), h2)))
        out["equivariance"] = max(out["equivariance"], _elem_residual(
            gx, "h", gx.i(gx.act(g1, h1)),
            gx.mul_h(gx.inv_h(h1), gx.mul_h(gx.i(g1), h1))))
        out["peiffer"] = max(out["peiffer"], _elem_residual(
            gx, "g", gx.act(g1, gx.i(g2)),
            gx.mul_g(gx.inv_g(g2), gx.mul_g(g1, g2))))
    return out


# ---------------------------------------------------------------------------
# The Lie functor via jets.
# ---------------------------------------------------------------------------


def lie_functor_extract(gx):
    """Differentiate the group crossed module into Lie-algebra data.

    Returns a dict with float entries: structure constants of Lie(G) and
    Lie(H) (``bracket_g[a][b]``, ``bracket_h[a][b]`` as vectors), the
    matrix of the structural map, and the action matrices of Lie(H) on
    Lie(G).  Brackets come from second derivatives of group commutators,
    the action from the derivative of conjugation-by-units formulas.
    """
    ng, nh = gx.dim_g, gx.dim_h

    def basis_vec(n, k, var, num_vars):
        return [Jet.variable(var, num_vars, 2) if j == k
                else Jet.constant(0.0, num_vars, 2) for j in range(n)]

    mu = []
    for a in range(ng):
        vec = basis_vec(ng, a, 0, 1)
        mu.append(gx.tangent_h(gx.i(gx.exp_g(vec)), (1,)))
    mu_matrix = [[mu[a][b] for a in range(ng)] for b in range(nh)]

    def commutator_bracket(n, expf, mulf, invf, tangent):
        table = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                ea = basis_vec(n, a, 0, 2)
                eb = basis_vec(n, b, 1, 2)
                ga, gb = expf(ea), expf(eb)
                comm = mulf(mulf(ga, gb), mulf(invf(ga), invf(gb)))
                table[a][b] = tangent(comm, (1, 1))
        return table

    bracket_g = commutator_bracket(ng, gx.exp_g, gx.mul_g, gx.inv_g,
                                   gx.tangent_g)
    bracket_h = commutator_bracket(nh, gx.exp_h, gx.mul_h, gx.inv_h,
                                   gx.tangent_h)

    action = []
    for b in range(nh):
        cols = []
        hy = gx.exp_h(basis_vec(nh, b, 0, 2))
        for a in range(ng):
            ga = gx.exp_g(basis_vec(ng, a, 1, 2))
            moved = gx.act(ga, hy)
            cols.append([-c for c in gx.tangent_g(moved, (1, 1))])
        action.append([[cols[a][i] for a in range(ng)] for i in range(ng)])
    return {"mu": mu_matrix, "bracket_g": bracket_g, "bracket_h": bracket_h,
            "action": action}


def lie_functor_matches_algebra(gx, tol=1e-6):
    """Compare the jet-extracted data of glphi_group(v) against gl_phi(v)."""
    data = lie_functor_extract(gx)
    alg = gx.algebra
    worst = 0.0
    exact_mu = to_float_matrix(alg.mu)
    worst = max(worst, residual(data["mu"], exact_mu))
    for a in range(gx.dim_g):
        for b in range(gx.dim_g):
            exact = [float(c) for c in alg.g.basis_bracket(a, b)]
            worst = max(worst, vmax([x - y for x, y in
                                     zip(data["bracket_g"][a][b], exact)]))
    for a in range(gx.dim_h):
        for b in range(gx.dim_h):
            exact = [float(c) for c in alg.h.basis_bracket(a, b)]
            worst = max(worst, vmax([x - y for x, y in
                                     zip(data["bracket_h"][a][b], exact)]))
    for b in range(gx.dim_h):
        worst = max(worst, residual(data["action"][b],
                                    to_float_matrix(alg.action.mats[b])))
    return worst, worst <= tol


# ---------------------------------------------------------------------------
# Group 2-representations and points of the nerve.
# ---------------------------------------------------------------------------


class GroupRepData:
    """A 2-representation of the group crossed module: closures rho1(g) in
    Hom(V, W), rho0_w(h) in GL(W), rho0_v(h) in GL(V), plus phi."""

    def __init__(self, gx, rho1, rho0_w, rho0_v, phi, dim_w, dim_v):
        self.gx = gx
        self.rho1 = rho1
        self.rho0_w = rho0_w
        self.rho0_v = rho0_v
        self.phi = phi
        self.dim_w = dim_w
        self.dim_v = dim_v


def tautological_rep(gx):
    """GL(phi) acting on its own 2-vector space: rho = id."""
    return GroupRepData(gx, lambda a: a, lambda x: x[0], lambda x: x[1],
                        gx.phi, gx.dim_w, gx.dim_v)


def trivial_group_rep(gx, dim_w, dim_v, phi=None):
    if phi is None:
        phi = mzero(dim_v, dim_w)
    return GroupRepData(gx, lambda g: mzero(dim_w, dim_v),
                        lambda h: meye(dim_w), lambda h: meye(dim_v),
                        phi, dim_w, dim_v)


class GpPoint:
    """A point of the nerve G_m: m composable arrows in the coordinates
    (g_0, ..., g_{m-1}; h); arrow a is (g_a, h i(g_{m-1} ... g_{a+1}))."""

    __slots__ = ("gs", "h")

    def __init__(self, gs, h):
        self.gs = list(gs)
        self.h = h

    @property
    def level(self):
        return len(self.gs)


def gp_arrow_base(gx, pt, a):
    """The h-component of the a-th arrow of pt."""
    acc = gx.one_h
    for k in range(len(pt.gs) - 1, a, -1):
        acc = gx.mul_h(acc, gx.i(pt.gs[k]))
    return gx.mul_h(pt.h, acc)


def gp_arrow(gx, pt, a):
    return (pt.gs[a], gp_arrow_base(gx, pt, a))


def gp_target(gx, pt):
    """Final target t_p: h i(g_{m-1} ... g_0)."""
    acc = gx.one_g
    for k in range(len(pt.gs) - 1, -1, -1):
        acc = gx.mul_g(acc, pt.gs[k])
    return gx.mul_h(pt.h, gx.i(acc))


def gp_face(gx, pt, k):
    """The k-th simplicial face G_m -> G_{m-1}, 0 <= k <= m."""
    m = len(pt.gs)
    assert 0 <= k <= m
    if k == 0:
        return GpPoint(pt.gs[1:], pt.h)
    if k < m:
        merged = gx.mul_g(pt.gs[k], pt.gs[k - 1])
        return GpPoint(pt.gs[:k - 1] + [merged] + pt.gs[k + 1:], pt.h)
    return GpPoint(pt.gs[:-1], gx.mul_h(pt.h, gx.i(pt.gs[m - 1])))


def gp_mul(gx, a, b):
    """Vertical (group) product in G_m, componentwise on arrows."""
    m = len(a.gs)
    assert len(b.gs) == m
    gs = []
    for k in range(m):
        base_b = gp_arrow_base(gx, b, k)
        gs.append(gx.mul_g(gx.act(a.gs[k], base_b), b.gs[k]))
    return GpPoint(gs, gx.mul_h(a.h, b.h))


def gp_one(gx, m):
    return GpPoint([gx.one_g] * m, gx.one_h)


def gp_sample(gx, rng, m, scale=0.4):
    return GpPoint([gx.sample_g(rng, scale) for _ in range(m)],
                   gx.sample_h(rng, scale))


def _zero_arrow_product(gx, gammas):
    """pr_G of the vertical product of the 0-th arrows of the given
    G_{p+1}-points (identity on the empty list)."""
    arrows = [gp_arrow(gx, g, 0) for g in gammas]
    acc_g, acc_h = gx.one_g, gx.one_h
    for (g, h) in arrows:
        # (g1, h1) *v (g2, h2) = (g1^{h2} g2, h1 h2)
        acc_g = gx.mul_g(gx.act(acc_g, h), g)
        acc_h = gx.mul_h(acc_h, h)
    return acc_g


# ---------------------------------------------------------------------------
# Group cochains and the pointwise differentials.
# ---------------------------------------------------------------------------


class GroupCochain:
    """A cochain in C(G_p^q x G^r, W) (V-valued when r = 0), given by a
    closure taking (list of GpPoint, list of G-elements)."""

    def __init__(self, p, q, r, fn):
        self.p, self.q, self.r = p, q, r
        self.fn = fn

    def __call__(self, gammas, fs):
        assert len(gammas) == self.q and len(fs) == self.r
        for g in gammas:
            assert g.level == self.p
        return self.fn(gammas, fs)


def group_cochain_diff(rep, kind, c, gammas, fs):
    """Evaluate one component differential / difference map of the group
    lattice at the given point.  The point arity matches the target of
    the map; derivative-free formulas, evaluated on explicit elements."""
    gx = rep.gx
    if kind == "delta":
        return _gd_delta(rep, c, gammas, fs)
    if kind == "partial":
        return _gd_partial(rep, c, gammas, fs)
    if kind == "deltaPrime":
        return _gd_delta_prime(rep, c, gammas, fs)
    if kind == "delta1":
        return _gd_delta_one(rep, c, gammas, fs)
    if kind == "Delta":
        return _gd_first_difference(rep, c, gammas, fs)
    if kind == "Delta2q":
        return _gd_delta2q(rep, c, gammas, fs)
    if kind == "Delta2p":
        return _gd_delta2p(rep, c, gammas, fs)
    raise ValueError("unknown kind %r" % (kind,))


def _vadd(a, b):
    return [x + y for x, y in zip(a, b)]


def _vsub(a, b):
    return [x - y for x, y in zip(a, b)]


def _vneg(a):
    return [-x for x in a]


def _gd_delta(rep, c, gammas, fs):
    """q-direction differential, target (p, q+1, r)."""
    gx = rep.gx
    q, r = c.q, c.r
    assert len(gammas) == q + 1 and len(fs) == r
    if r == 0:
        out = mapply(rep.rho0_v(gp_target(gx, gammas[0])),
                     c(gammas[1:], []))
    else:
        t0 = gp_target(gx, gammas[0])
        moved = [gx.act(f, t0) for f in fs]
        out = c(gammas[1:], moved)
    for j in range(1, q + 1):
        merged = gammas[:j - 1] + [gp_mul(gx, gammas[j - 1], gammas[j])] \
            + gammas[j + 1:]
        term = c(merged, fs)
        out = _vadd(out, term) if j % 2 == 0 else _vsub(out, term)
    last = c(gammas[:-1], fs)
    if r > 0:
        last = mapply(minv(rep.rho0_w(gp_target(gx, gammas[q]))), last)
    out = _vadd(out, last) if (q + 1) % 2 == 0 else _vsub(out, last)
    return out


def _gd_partial(rep, c, gammas, fs):
    """p-direction differential, target (p+1, q, r)."""
    gx = rep.gx
    p, q, r = c.p, c.q, c.r
    assert all(g.level == p + 1 for g in gammas) and len(fs) == r
    total = None
    for k in range(p + 2):
        faced = [gp_face(gx, g, k) for g in gammas]
        term = c(faced, fs)
        if k == 0 and r > 0 and q > 0:
            # face 0 carries the representation of the p-direction nerve:
            # rho0^1(i(pr_G of the vertical product of the zero arrows))^-1
            tw = rep.rho0_w(gx.i(_zero_arrow_product(gx, gammas)))
            term = mapply(minv(tw), term)
        if k % 2 == 1:
            term = _vneg(term)
        total = term if total is None else _vadd(total, term)
    return total


def _gd_delta_prime(rep, c, gammas, fs):
    """The r = 0 -> 1 seed: rho0^1(prod t_p(gamma_b))^{-1} rho1(f) w."""
    gx = rep.gx
    assert c.r == 0 and len(fs) == 1
    base = c(gammas, [])
    acc = gx.one_h
    for g in gammas:
        acc = gx.mul_h(acc, gp_target(gx, g))
    return mapply(minv(rep.rho0_w(acc)), mapply(rep.rho1(fs[0]), base))


def _gd_delta_one(rep, c, gammas, fs):
    """r-direction differential for r >= 1, target (p, q, r+1)."""
    gx = rep.gx
    r = c.r
    assert r >= 1 and len(fs) == r + 1
    acc = gx.one_h
    for g in gammas:
        acc = gx.mul_h(acc, gp_target(gx, g))
    tw = rep.rho0_w(gx.i(gx.act(fs[0], acc)))
    out = mapply(tw, c(gammas, fs[1:]))
    for k in range(1, r + 1):
        merged = fs[:k - 1] + [gx.mul_g(fs[k - 1], fs[k])] + fs[k + 1:]
        term = c(gammas, merged)
        out = _vadd(out, term) if k % 2 == 0 else _vsub(out, term)
    last = c(gammas, fs[:-1])
    out = _vadd(out, last) if (r + 1) % 2 == 0 else _vsub(out, last)
    return out


def _delta_n_point(gx, arrow, fs, n):
    """Delta^n(gamma; f) = ((f_{<n})^{h i(g)}, g^{-1}, (f_{>=n})^h) for the
    arrow gamma = (g, h), 1-based n, fs of length r."""
    g, h = arrow
    hig = gx.mul_h(h, gx.i(g))
    head = [gx.act(f, hig) for f in fs[:n - 1]]
    tail = [gx.act(f, h) for f in fs[n - 1:len(fs) - 1]]
    return head + [gx.inv_g(g)] + tail


def _gd_first_difference(rep, c, gammas, fs):
    """First difference map out of C^{p,q}_r, target (p+1, q+1, r-1).

    For r = 1 the phi-composed front-page formula; for r >= 2 the general
    form built from the Delta^n staircases.
    """
    gx = rep.gx
    q, r = c.q, c.r
    assert len(gammas) == q + 1
    if r == 1:
        assert not fs
        acc = gx.one_h
        for g in gammas:
            acc = gx.mul_h(acc, gp_target(gx, gp_face(gx, g, 0)))
        inner = c([gp_face(gx, g, 0) for g in gammas[1:]],
                  [gammas[0].gs[0]])
        return mapply(rep.rho0_v(acc), mapply(rep.phi, inner))
    t = r - 1
    assert len(fs) == t
    g00, h00 = gp_arrow(gx, gammas[0], 0)
    faced = [gp_face(gx, g, 0) for g in gammas[1:]]
    outer = minv(rep.rho0_w(gx.i(_zero_arrow_product(gx, gammas[1:]))))
    # conjugator of g00 by the h-parts of the zero arrows of gamma_1..q
    conj = gx.one_h
    for g in gammas[1:]:
        conj = gx.mul_h(conj, gp_arrow(gx, g, 0)[1])
    lead = mapply(minv(rep.rho0_w(gx.i(gx.act(g00, conj)))),
                  c(faced, [gx.act(f, h00) for f in fs] + [g00]))
    out = lead
    for n in range(1, t + 1):
        stair = _delta_n_point(gx, (g00, h00), fs, n)
        plus = c(faced, stair + [gx.mul_g(gx.act(fs[t - 1], h00), g00)])
        minus = c(faced, stair + [g00])
        term = _vsub(plus, minus)
        if (t - n) % 2 == 1:
            term = _vneg(term)
        out = _vadd(out, term)
    return mapply(outer, out)


def _gd_delta2q(rep, c, gammas, fs):
    """Second difference landing on the front page along p (IV atSch)."""
    gx = rep.gx
    q = c.q
    assert c.r == 2 and not fs and len(gammas) == q + 1
    acc = gx.one_h
    for g in gammas:
        acc = gx.mul_h(acc, gp_target(gx, gp_face(gx, gp_face(gx, g, 0), 0)))
    g00 = gammas[0].gs[0]
    g10 = gammas[0].gs[1]
    inner = c([gp_face(gx, gp_face(gx, g, 0), 0) for g in gammas[1:]],
              [g10, g00])
    return mapply(rep.rho0_v(acc), mapply(rep.phi, inner))


def _gd_delta2p(rep, c, gammas, fs):
    """Second difference landing on the front page along q (V atSch)."""
    gx = rep.gx
    q = c.q
    assert c.r == 2 and not fs and len(gammas) == q + 2
    acc = gx.one_h
    for g in gammas:
        acc = gx.mul_h(acc, gp_target(gx, gp_face(gx, g, 0)))
    g00 = gammas[0].gs[0]
    g01 = gammas[1].gs[0]
    h01 = gp_arrow(gx, gammas[1], 0)[1]
    inner = c([gp_face(gx, g, 0) for g in gammas[2:]],
              [gx.act(g00, h01), g01])
    return mapply(rep.rho0_v(acc), mapply(rep.phi, inner))


def diff_cochain(rep, kind, c):
    """Package a component differential as a new GroupCochain."""
    targets = {
        "delta": (c.p, c.q + 1, c.r),
        "partial": (c.p + 1, c.q, c.r),
        "deltaPrime": (c.p, c.q, 1),
        "delta1": (c.p, c.q, c.r + 1),
        "Delta": (c.p + 1, c.q + 1, c.r - 1),
        "Delta2q": (c.p + 2, c.q + 1, 0),
        "Delta2p": (c.p + 1, c.q + 2, 0),
    }
    p, q, r = targets[kind]
    return GroupCochain(p, q, r,
                        lambda gammas, fs: group_cochain_diff(
                            rep, kind, c, gammas, fs))


# ---------------------------------------------------------------------------
# Group 2-cocycle equations (sampled).
# ---------------------------------------------------------------------------


def gp2cocycle_residuals(rep, omega0, omega1, alpha, phihat, samples=20,
                         seed=0, scale=0.4):
    """Max residual of the seven extension equations at random samples.

    omega0(h0, h1) -> V, omega1(g0, g1) -> W, alpha(h; g) -> W,
    phihat(g) -> V, all normalized closures.
    """
    gx = rep.gx
    rng = random.Random(seed)
    res = {k: 0.0 for k in ("i", "ii", "iii", "iv", "v", "vi", "vii")}
    for _ in range(samples):
        h0, h1, h2 = (gx.sample_h(rng, scale) for _ in range(3))
        g0, g1, g2 = (gx.sample_g(rng, scale) for _ in range(3))
        mh = gx.mul_h
        mg = gx.mul_g
        lhs = _vsub(_vadd(mapply(rep.rho0_v(h0), omega0(h1, h2)),
                          omega0(h0, mh(h1, h2))),
                    _vadd(omega0(mh(h0, h1), h2), omega0(h0, h1)))
        res["i"] = max(res["i"], vmax(lhs))
        lhs = _vsub(_vadd(mapply(rep.rho0_w(gx.i(g0)), omega1(g1, g2)),
                          omega1(g0, mg(g1, g2))),
                    _vadd(omega1(mg(g0, g1), g2), omega1(g0, g1)))
        res["ii"] = max(res["ii"], vmax(lhs))
        lhs = _vsub(mapply(rep.phi, omega1(g1, g2)),
                    omega0(gx.i(g1), gx.i(g2)))
        rhs = _vadd(_vsub(mapply(rep.rho0_v(gx.i(g1)), phihat(g2)),
                          phihat(mg(g1, g2))), phihat(g1))
        res["iii"] = max(res["iii"], vmax(_vsub(lhs, rhs)))
        lhs = mapply(minv(rep.rho0_w(mh(h1, h2))),
                     mapply(rep.rho1(g0), omega0(h1, h2)))
        rhs = _vadd(_vsub(mapply(minv(rep.rho0_w(h2)), alpha(h1, g0)),
                          alpha(mh(h1, h2), g0)),
                    alpha(h2, gx.act(g0, h1)))
        res["iv"] = max(res["iv"], vmax(_vsub(lhs, rhs)))
        hinv = gx.inv_h(h1)
        lhs = _vadd(_vsub(phihat(gx.act(g0, h1)),
                          mapply(rep.rho0_v(hinv), phihat(g0))),
                    mapply(rep.phi, alpha(h1, g0)))
        rhs = _vsub(_vadd(mapply(rep.rho0_v(hinv), omega0(gx.i(g0), h1)),
                          omega0(hinv, mh(gx.i(g0), h1))),
                    omega0(hinv, h1))
        res["v"] = max(res["v"], vmax(_vsub(lhs, rhs)))
        ig2 = gx.i(g2)
        lhs = _vadd(mapply(minv(rep.rho0_w(ig2)),
                           mapply(rep.rho1(g1), phihat(g2))),
                    alpha(ig2, g1))
        rhs = _vsub(_vadd(mapply(minv(rep.rho0_w(ig2)), omega1(g1, g2)),
                          omega1(gx.inv_g(g2), mg(g1, g2))),
                    omega1(gx.inv_g(g2), g2))
        res["vi"] = max(res["vi"], vmax(_vsub(lhs, rhs)))
        g1h = gx.act(g1, h1)
        lhs = _vsub(mapply(minv(rep.rho0_w(h1)), omega1(g1, g2)),
                    omega1(g1h, gx.act(g2, h1)))
        rhs = _vadd(_vsub(mapply(rep.rho0_w(gx.i(g1h)), alpha(h1, g2)),
                          alpha(h1, mg(g1, g2))), alpha(h1, g1))
        res["vii"] = max(res["vii"], vmax(_vsub(lhs, rhs)))
    return res


# ---------------------------------------------------------------------------
# Representation up to homotopy: the curvature Omega vanishes.
# ---------------------------------------------------------------------------


def homotopy_curvature_residual(rep, samples=10, seed=0, scale=0.4):
    """Worst sampled defect of the identities that make rep a morphism of
    crossed modules into GL(phi), which is what makes the curvature of the
    induced representation up to homotopy vanish:

    rho1(g1 g2) = rho1(g1) + rho1(g2) + rho1(g1) phi rho1(g2); rho0^W and
    rho0^V are homomorphisms; phi rho0^W(h) = rho0^V(h) phi;
    rho0^W(i(g)) = I + rho1(g) phi and rho0^V(i(g)) = I + phi rho1(g);
    rho1(g^h) = rho0^W(h)^{-1} rho1(g) rho0^V(h).
    """
    gx, phi = rep.gx, rep.phi
    rng = random.Random(seed)
    eye_w, eye_v = meye(rep.dim_w), meye(rep.dim_v)
    worst = 0.0
    # each h sample is also the second factor of the next sample's product
    h2 = gx.sample_h(rng, scale)
    for _ in range(samples):
        g1 = gx.sample_g(rng, scale)
        g2 = gx.sample_g(rng, scale)
        h1 = gx.sample_h(rng, scale)
        r1, r2 = rep.rho1(g1), rep.rho1(g2)
        w1, v1 = rep.rho0_w(h1), rep.rho0_v(h1)
        h12 = gx.mul_h(h1, h2)
        for lhs, rhs in (
                (rep.rho1(gx.mul_g(g1, g2)),
                 madd(madd(r1, r2), mmul(r1, mmul(phi, r2)))),
                (rep.rho0_w(h12), mmul(w1, rep.rho0_w(h2))),
                (rep.rho0_v(h12), mmul(v1, rep.rho0_v(h2))),
                (mmul(phi, w1), mmul(v1, phi)),
                (rep.rho0_w(gx.i(g1)), madd(eye_w, mmul(r1, phi))),
                (rep.rho0_v(gx.i(g1)), madd(eye_v, mmul(phi, r1))),
                (rep.rho1(gx.act(g1, h1)), mmul(minv(w1), mmul(r1, v1)))):
            worst = max(worst, residual(lhs, rhs))
        h2 = h1
    return worst


# ---------------------------------------------------------------------------
# van Est operators.
# ---------------------------------------------------------------------------


class VanEstCochain:
    """A group cochain prepared for R-derivatives: exp closures for the
    q-slots (level-p nerve points) and the r-slots (G-elements).

    For p = 0 the q-slots exponentiate through exp_h; for p >= 1 supply
    exp_gp explicitly (a map from g_p-coordinates to GpPoint).
    """

    def __init__(self, gx, p, q, r, fn, exp_gp=None):
        self.gx = gx
        self.p, self.q, self.r = p, q, r
        self.fn = fn
        if exp_gp is None and p == 0:
            exp_gp = lambda vec: GpPoint([], gx.exp_h(vec))
        self.exp_gp = exp_gp

    def __call__(self, gammas, fs):
        return self.fn(gammas, fs)


def van_est_r(cochain, direction, slot="g"):
    """The right-invariant derivative R_x (slot="g") or R_xi (slot="h").

    Consumes the first slot of the chosen group; derivatives are exact
    through a one-variable jet per application (nesting allocates fresh
    jet variables, bounded by 3)."""
    base = cochain
    chain = getattr(base, "_r_chain", None)
    if chain is None:
        chain = []
        root = base
    else:
        root = base._r_root
    new_chain = chain + [(slot, list(direction))]
    depth = len(new_chain)
    assert depth <= 3, "jet-order bound exceeded (q + r <= 3)"
    if slot == "g":
        assert cochain.r >= 1, "no G-slot left to derive"
        p, q, r = cochain.p, cochain.q, cochain.r - 1
    else:
        assert cochain.q >= 1, "no nerve slot left to derive"
        p, q, r = cochain.p, cochain.q - 1, cochain.r

    def fn(gammas, fs):
        n = depth
        gam_ins, f_ins = [], []
        for i, (sl, vec) in enumerate(new_chain):
            tau = Jet.variable(i, n, n)
            scaled = [tau * x for x in vec]
            if sl == "g":
                f_ins.append(root.gx.exp_g(scaled))
            else:
                gam_ins.append(root.exp_gp(scaled))
        val = root(gam_ins + list(gammas), f_ins + list(fs))
        key = (1,) * n
        return [x.coefficient(key) if isinstance(x, Jet) else 0.0
                for x in val]

    out = VanEstCochain(root.gx, p, q, r, fn, exp_gp=root.exp_gp)
    out._r_chain = new_chain
    out._r_root = root
    return out


def van_est_phi(cochain, xi_args, x_args):
    """The 2-van Est map at a point: antisymmetrized iterated R-derivatives
    over both argument groups independently.  Requires q + r <= 3."""
    q, r = len(xi_args), len(x_args)
    assert q == cochain.q and r == cochain.r
    assert q + r <= 3, "jet-order bound exceeded"
    total = None
    for sigma, s_sign in _signed_permutations(q):
        for rho, r_sign in _signed_permutations(r):
            work = cochain
            # R_{x_rho(1)} first, then up; then the xi-slots
            for k in range(r):
                work = van_est_r(work, x_args[rho[k]], slot="g")
            for k in range(q):
                work = van_est_r(work, xi_args[sigma[k]], slot="h")
            val = work([], [])
            val = [s_sign * r_sign * x for x in val]
            total = val if total is None else _vadd(total, val)
    return total


def _signed_permutations(n):
    import itertools
    out = []
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        out.append((perm, sign))
    return out


# ---------------------------------------------------------------------------
# Random normalized cochains and the sampled relation checks.
# ---------------------------------------------------------------------------


def _flatten_point(gx, pt):
    out = []
    for g in pt.gs:
        out.extend(gx.flatten_g(g))
    out.extend(gx.flatten_h(pt.h))
    return out


def random_group_cochain(rep, p, q, r, rng, terms=2, span=1.0):
    """A normalized polynomial cochain: each output coordinate is a sum of
    products of one centered linear functional per slot, so it vanishes
    whenever any argument is the unit (the normalization the groupoid
    complexes assume)."""
    gx = rep.gx
    out_dim = rep.dim_v if r == 0 else rep.dim_w
    unit_gamma = _flatten_point(gx, gp_one(gx, p))
    unit_g = gx.flatten_g(gx.one_g)
    shape_gamma = len(unit_gamma)
    shape_g = len(unit_g)

    coeffs = []
    for _ in range(out_dim):
        rows = []
        for _ in range(terms):
            gamma_fns = [[span * (2 * rng.random() - 1)
                          for _ in range(shape_gamma)] for _ in range(q)]
            g_fns = [[span * (2 * rng.random() - 1)
                      for _ in range(shape_g)] for _ in range(r)]
            rows.append((gamma_fns, g_fns))
        coeffs.append(rows)

    def fn(gammas, fs):
        out = []
        for rows in coeffs:
            acc = 0.0
            for gamma_fns, g_fns in rows:
                prod = 1.0
                for coeff, pt in zip(gamma_fns, gammas):
                    flat = _flatten_point(gx, pt)
                    prod = prod * sum((c * (x - u) for c, x, u
                                       in zip(coeff, flat, unit_gamma)), 0.0)
                for coeff, f in zip(g_fns, fs):
                    flat = gx.flatten_g(f)
                    prod = prod * sum((c * (x - u) for c, x, u
                                       in zip(coeff, flat, unit_g)), 0.0)
                acc = acc + prod
            out.append(acc)
        return out

    return GroupCochain(p, q, r, fn)


def startop_relation_residual(rep, r, samples=10, seed=0, scale=0.35,
                              p=0, q=0):
    """(-1)^r (delta partial - partial delta) = Delta delta1 - delta1 Delta
    on C^{p,q}_r, evaluated pointwise at random samples."""
    gx = rep.gx
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(samples):
        c = random_group_cochain(rep, p, q, r, rng)
        gammas = [gp_sample(gx, rng, p + 1, scale) for _ in range(q + 1)]
        fs = [gx.sample_g(rng, scale) for _ in range(r)]
        dp = diff_cochain(rep, "delta", diff_cochain(rep, "partial", c))
        pd = diff_cochain(rep, "partial", diff_cochain(rep, "delta", c))
        lhs = _vsub(dp(gammas, fs), pd(gammas, fs))
        if r % 2 == 1:
            lhs = _vneg(lhs)
        d1 = diff_cochain(rep, "delta1" if r >= 1 else "deltaPrime", c)
        t1 = diff_cochain(rep, "Delta", d1)(gammas, fs)
        big_delta = diff_cochain(rep, "Delta", c)
        if r == 1:
            t2 = diff_cochain(rep, "deltaPrime", big_delta)(gammas, fs)
        else:
            t2 = diff_cochain(rep, "delta1", big_delta)(gammas, fs)
        rhs = _vsub(t1, t2)
        worst = max(worst, vmax(_vsub(lhs, rhs)))
    return worst


def atsch_iv_residual(rep, p, q, samples=10, seed=0, scale=0.35):
    """partial Delta + Delta partial = Delta_2^q delta1 on C^{p,q}_1."""
    gx = rep.gx
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(samples):
        c = random_group_cochain(rep, p, q, 1, rng)
        gammas = [gp_sample(gx, rng, p + 2, scale) for _ in range(q + 1)]
        t1 = diff_cochain(rep, "partial", diff_cochain(rep, "Delta", c))
        t2 = diff_cochain(rep, "Delta", diff_cochain(rep, "partial", c))
        lhs = _vadd(t1(gammas, []), t2(gammas, []))
        rhs = diff_cochain(rep, "Delta2q", diff_cochain(rep, "delta1", c))(
            gammas, [])
        worst = max(worst, vmax(_vsub(lhs, rhs)))
    return worst


def atsch_v_residual(rep, p, q, samples=10, seed=0, scale=0.35):
    """delta Delta + Delta delta = Delta_2^p delta1 on C^{p,q}_1."""
    gx = rep.gx
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(samples):
        c = random_group_cochain(rep, p, q, 1, rng)
        gammas = [gp_sample(gx, rng, p + 1, scale) for _ in range(q + 2)]
        t1 = diff_cochain(rep, "delta", diff_cochain(rep, "Delta", c))
        t2 = diff_cochain(rep, "Delta", diff_cochain(rep, "delta", c))
        lhs = _vadd(t1(gammas, []), t2(gammas, []))
        rhs = diff_cochain(rep, "Delta2p", diff_cochain(rep, "delta1", c))(
            gammas, [])
        worst = max(worst, vmax(_vsub(lhs, rhs)))
    return worst


# ---------------------------------------------------------------------------
# Built-in scenarios (exposed through the command line).
# ---------------------------------------------------------------------------


def _phi_for_dims(dim_w, dim_v, seed):
    rng = random.Random(seed)
    entries = [[rng.choice([-1, 0, 1]) for _ in range(dim_w)]
               for _ in range(dim_v)]
    return TwoVectorSpace(dim_w, dim_v, Matrix(dim_v, dim_w, entries))


def scenario_glphi(dims=(2, 1), trials=20, seed=0, tol=1e-9):
    v = _phi_for_dims(dims[0], dims[1], seed)
    gx = glphi_group(v)
    res = group_xmod_validate_sampled(gx, samples=trials, seed=seed)
    rows = [("glphi_%s" % name, val, val <= tol)
            for name, val in sorted(res.items())]
    rows.append(("glphi_curvature",
                 homotopy_curvature_residual(tautological_rep(gx),
                                             samples=trials, seed=seed),
                 True))
    rows[-1] = (rows[-1][0], rows[-1][1], rows[-1][1] <= tol)
    return rows


def scenario_exp(dims=(1, 1), trials=10, seed=0, tol=1e-9):
    rows = []
    if dims == (1, 1):
        v = TwoVectorSpace(1, 1, Matrix(1, 1, [[1]]))
        gx = glphi_group(v)
        worst = 0.0
        rng = random.Random(seed)
        for _ in range(trials):
            a = 2 * rng.random() - 1
            got = glphi1_exp([[a]], [[1.0]], terms=30)[0][0]
            worst = max(worst, abs(got - (math.exp(a) - 1)))
        rows.append(("exp_scalar_vs_closed_form", worst, worst <= 1e-12))
    v = _phi_for_dims(dims[0], dims[1], seed)
    gx = glphi_group(v)
    rng = random.Random(seed + 1)
    worst_one = worst_delta = 0.0
    for _ in range(trials):
        a = gx.sample_g(rng, 0.7)
        for (s, t) in ((0.4, 0.5), (1.0, -0.6)):
            lhs = gx.mul_g(glphi1_exp(mscale(a, s), gx.phi),
                           glphi1_exp(mscale(a, t), gx.phi))
            rhs = glphi1_exp(mscale(a, s + t), gx.phi)
            worst_one = max(worst_one, residual(lhs, rhs))
        big, small = gx.i(glphi1_exp(a, gx.phi))
        worst_delta = max(worst_delta, residual(big, mexp(mmul(a, gx.phi))),
                          residual(small, mexp(mmul(gx.phi, a))))
    rows.append(("exp_one_parameter", worst_one, worst_one <= tol))
    rows.append(("exp_delta_vs_matrix_exp", worst_delta, worst_delta <= tol))
    return rows


def scenario_lie_functor(tol=1e-6, **_ignored):
    cases = [
        ("phi_identity", TwoVectorSpace(1, 1, Matrix(1, 1, [[1]]))),
        ("phi_projection", TwoVectorSpace(2, 1, Matrix(1, 2, [[1, 0]]))),
        ("phi_zero_2x2", TwoVectorSpace(2, 2, Matrix.zero(2, 2))),
    ]
    rows = []
    for name, v in cases:
        worst, ok = lie_functor_matches_algebra(glphi_group(v), tol)
        rows.append(("lie_functor_%s" % name, worst, ok))
    return rows


def scenario_startop(trials=10, seed=0, tol=1e-9, dims=(2, 1)):
    v = _phi_for_dims(dims[0], dims[1], seed)
    gx = glphi_group(v)
    rep = tautological_rep(gx)
    rows = []
    for r in (1, 2):
        res = startop_relation_residual(rep, r, samples=trials, seed=seed)
        rows.append(("startop_r%d" % r, res, res <= tol))
    for (p, q) in ((0, 0), (0, 1), (1, 0)):
        res = atsch_iv_residual(rep, p, q, samples=max(2, trials // 2),
                                seed=seed)
        rows.append(("atsch_iv_p%dq%d" % (p, q), res, res <= tol))
        res = atsch_v_residual(rep, p, q, samples=max(2, trials // 2),
                               seed=seed)
        rows.append(("atsch_v_p%dq%d" % (p, q), res, res <= tol))
    return rows


def scenario_vanest_heisenberg(tol=1e-12, **_ignored):
    gx = additive_group(0, 2)
    cochain = VanEstCochain(
        gx, 0, 2, 0, lambda gammas, fs: [gammas[0].h[0] * gammas[1].h[1]])
    e1, e2 = [1.0, 0.0], [0.0, 1.0]
    val = van_est_phi(cochain, [e1, e2], [])[0]
    flip = van_est_phi(cochain, [e2, e1], [])[0]
    print("Phi F on the basis = [[0, %g], [%g, 0]]" % (val, flip))
    rows = [("vanest_phi_e1_e2", abs(val - 1.0), abs(val - 1.0) <= tol),
            ("vanest_alternation", abs(val + flip), abs(val + flip) <= tol)]
    xs = [0.3, -0.7]
    ys = [1.1, 0.25]
    got = van_est_phi(cochain, [xs, ys], [])[0]
    want = xs[0] * ys[1] - xs[1] * ys[0]
    rows.append(("vanest_bilinear_point", abs(got - want),
                 abs(got - want) <= tol))
    return rows


def scenario_gp2cocycle(trials=10, seed=0, tol=1e-9, dims=(2, 1)):
    v = _phi_for_dims(dims[0], dims[1], seed)
    gx = glphi_group(v)
    rep = tautological_rep(gx)
    zero_v = lambda *a: [0.0] * rep.dim_v
    zero_w = lambda *a: [0.0] * rep.dim_w
    res = gp2cocycle_residuals(rep, zero_v, zero_w, zero_w, zero_v,
                               samples=trials, seed=seed)
    rows = [("gp2cocycle_semidirect_eq_%s" % k, res[k], res[k] <= tol)
            for k in sorted(res)]
    gx2 = additive_group(2, 2)
    rep2 = trivial_group_rep(gx2, 1, 1)
    eps = lambda h, g: [h[0] * h[0] * g[0]]
    zw = lambda *a: [0.0]
    zv = lambda *a: [0.0]
    res = gp2cocycle_residuals(rep2, zv, zw, eps, zv, samples=trials,
                               seed=seed)
    trips_iv = res["iv"] > 1e-6
    others_quiet = all(res[k] <= tol for k in res if k != "iv")
    rows.append(("gp2cocycle_perturbed_alpha_trips_iv", res["iv"],
                 trips_iv and others_quiet))
    return rows


SCENARIOS = {
    "glphi": scenario_glphi,
    "exp": scenario_exp,
    "lie-functor": scenario_lie_functor,
    "startop": scenario_startop,
    "vanest-heisenberg": scenario_vanest_heisenberg,
    "gp2cocycle-semidirect": scenario_gp2cocycle,
}
