"""The matrix-group side at desk scale: the GL(phi) Lie 2-group with its
exponential, sampled crossed-module and 2-cocycle validators, the group
cochain differentials and difference maps evaluated pointwise, and the
van Est operators.

All derivatives run through jets (never finite differences); group
elements are explicit matrices, GL(phi)-pairs, or additive vectors.

``mexp`` of a float matrix is scaling and squaring with the [7/7] Pade
approximant (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).  ``mexp``
of a jet matrix and ``glphi1_exp`` sum one series, ``_series``, which
stops at the first term that changes no entry of the sum (a float term t
when o + t == o, a jet term when no coefficient is left; on a nilpotent
jet after order + 1 terms) and after ``_SERIES_TERMS`` terms at most.
Nerve points keep their arrow bases and final target once computed.  The
group lattice maps are one table, ``_KINDS``: kind -> (pointwise formula,
(dp, dq, dr) shift of the index), read by ``diff_cochain``.
"""

import functools
import itertools
import math
import random

from .numeric import Jet, Matrix
from .liealg import _sort_sign
from .lie2 import TwoVectorSpace, gl_phi

# ---------------------------------------------------------------------------
# Float/jet matrices as lists of lists.
# ---------------------------------------------------------------------------


def mzero(r, c):
    return [[0.0] * c for _ in range(r)]


def meye(n):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def msub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mscale(a, c):
    return [[c * x for x in row] for row in a]


def mmul(a, b):
    """a b: entry (i, j) adds the a[i][k] b[k][j] with a[i][k] nonzero to
    0.0 in the order of k."""
    cols = list(zip(*b))
    out = []
    for row in a:
        terms = [(x, k) for k, x in enumerate(row) if x]
        new = []
        for col in cols:
            acc = 0.0
            for x, k in terms:
                acc = acc + x * col[k]
            new.append(acc)
        out.append(new)
    return out


def mapply(a, v):
    return [sum((x * y for x, y in zip(row, v)), 0.0) for row in a]


def _const_of(x):
    return x.const if isinstance(x, Jet) else x


def _coefficient(x, key):
    """The coefficient of a jet entry at key; a float entry has none."""
    return x.coefficient(key) if isinstance(x, Jet) else 0.0


def minv(a):
    """Inverse by Gauss-Jordan elimination on [a | I]."""
    return _gauss_jordan([row + e for row, e in zip(a, meye(len(a)))])


def _gauss_jordan(work):
    """Reduce the n rows of [a | b] to [I | a^-1 b] and return a^-1 b.

    Each column pivots on its first entry of largest absolute constant
    part; jet entries divide through jet reciprocals."""
    n = len(work)
    for col in range(n):
        piv, size = col, abs(_const_of(work[col][col]))
        for i in range(col + 1, n):
            other = abs(_const_of(work[i][col]))
            if other > size:
                piv, size = i, other
        assert size > 1e-12, "singular matrix"
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


def _absorbed(o, t):
    """Whether adding the term entry t leaves the sum entry o as it is."""
    if isinstance(t, Jet):
        return not t.coeffs
    return t == 0.0 or o + t == o


_SERIES_TERMS = 30


def _series(x, shift):
    """sum_k x^k shift! / (k + shift)! for a square x, identity first.

    Term k is term k-1 times x / (k + shift); the loop stops at the first
    term that changes no entry of the sum, after ``_SERIES_TERMS`` terms at
    most.
    """
    out = term = meye(len(x))
    for k in range(1, _SERIES_TERMS + 1):
        c = 1.0 / (k + shift)
        term, total, moved = mmul(term, x), [], False
        for i, (row_o, row_p) in enumerate(zip(out, term)):
            row_t = term[i] = [c * y for y in row_p]
            moved = moved or not all(map(_absorbed, row_o, row_t))
            total.append([o + t for o, t in zip(row_o, row_t)])
        if not moved:
            break
        out = total
    return out


# the [7/7] Pade approximant of exp: numerator coefficients b_0 .. b_7
# (the denominator's alternate in sign), and theta_7, the 1-norm up to
# which it is accurate to double precision (Higham 2005, Table 2.3)
_PADE7 = (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0,
          56.0, 1.0)
_THETA7 = 0.95


def mexp(a):
    """Matrix exponential.

    A float matrix goes through scaling and squaring with the [7/7] Pade
    approximant (N. J. Higham, "The scaling and squaring method for the
    matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26(4),
    2005): a / 2^s has 1-norm at most theta_7, r = q^-1 p there, and
    exp(a) = r^(2^s).  A matrix with a jet entry sums ``_series``, which
    is exact on jet matrices whose entries have zero constant part.
    """
    if any(isinstance(x, Jet) for row in a for x in row):
        return _series(a, 0)
    norm = max((sum(abs(row[j]) for row in a) for j in range(len(a))),
               default=0.0)
    s = math.ceil(math.log2(norm / _THETA7)) if norm > _THETA7 else 0
    if s:
        a = mscale(a, 0.5 ** s)
    b0, b1, b2, b3, b4, b5, b6, b7 = _PADE7
    a2 = mmul(a, a)
    a4 = mmul(a2, a2)
    a6 = mmul(a4, a2)

    def even(c6, c4, c2, c0):
        return [[c6 * x6 + c4 * x4 + c2 * x2 + (c0 if i == j else 0.0)
                 for j, (x6, x4, x2) in enumerate(zip(r6, r4, r2))]
                for i, (r6, r4, r2) in enumerate(zip(a6, a4, a2))]

    # p = v + u and q = v - u, with u the odd and v the even part
    u = mmul(a, even(b7, b5, b3, b1))
    v = even(b6, b4, b2, b0)
    r = _gauss_jordan([[y - x for x, y in zip(u_row, v_row)]
                       + [y + x for x, y in zip(u_row, v_row)]
                       for u_row, v_row in zip(u, v)])
    for _ in range(s):
        r = mmul(r, r)
    return r


def vmax(v):
    return max((abs(_const_of(x)) for x in v), default=0.0)


def residual(a, b):
    return vmax([x for row in msub(a, b) for x in row])


def to_float_matrix(m):
    """Exact rational Matrix -> float list-of-lists."""
    return [[float(x) for x in row] for row in m.data]


# ---------------------------------------------------------------------------
# Group crossed-module data.
# ---------------------------------------------------------------------------


class GroupXModData:
    """A crossed module of matrix-ish Lie groups given by closures.

    All maps must be evaluable on jet-valued entries.  ``exp_g``/``exp_h``
    take parameter vectors (dim_g/dim_h long) and ``unflatten_g`` undoes
    ``flatten_g``; ``tangent_g``/``tangent_h`` extract parameter
    coordinates of a first-order jet element back.  ``sample_g``/``sample_h``
    are unflatten_g/exp_h of a vector uniform in [-scale, scale]^n.
    """

    def __init__(self, dim_g, dim_h, mul_g, inv_g, one_g, mul_h, inv_h,
                 one_h, i_map, act, exp_g, exp_h, flatten_g, flatten_h,
                 unflatten_g, tangent_h):
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
        self.unflatten_g = unflatten_g
        self.tangent_h = tangent_h

    def tangent_g(self, g, key):
        return [_coefficient(x, key) for x in self.flatten_g(g)]

    def sample_g(self, rng, scale):
        return self.unflatten_g([scale * (2 * rng.random() - 1)
                                 for _ in range(self.dim_g)])

    def sample_h(self, rng, scale):
        return self.exp_h([scale * (2 * rng.random() - 1)
                           for _ in range(self.dim_h)])

    def prod_g(self, elements):
        return functools.reduce(self.mul_g, elements, self.one_g)

    def prod_h(self, elements):
        return functools.reduce(self.mul_h, elements, self.one_h)


def glphi1_exp(a, phi):
    """exp of GL(phi)_1: A sum_n (phi A)^n / (n+1)!."""
    return mmul(a, _series(mmul(phi, a), 1))


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
        return mscale(mmul(a, minv(madd(meye(dv), mmul(phi, a)))), -1.0)

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

    def flatten_g(a):
        return [a[i][j] for i in range(dw) for j in range(dv)]

    def flatten_h(x):
        return ([x[0][i][j] for i in range(dw) for j in range(dw)]
                + [x[1][i][j] for i in range(dv) for j in range(dv)])

    # the chart B has the flattened h_basis as columns; tangent_h applies
    # its least-squares left inverse (B^T B)^-1 B^T
    chart_t = [flatten_h(pair) for pair in h_basis]
    left_inverse = mmul(minv(mmul(chart_t, [list(col) for col
                                            in zip(*chart_t)])), chart_t)

    def tangent_h(x, key):
        return mapply(left_inverse,
                      [_coefficient(e, key) for e in flatten_h(x)])

    def exp_h(vec):
        # sum_b vec_b h_basis[b], each entry summed from 0.0 in the order of b
        flat = mmul([vec], chart_t)[0]
        return (mexp([flat[i * dw:(i + 1) * dw] for i in range(dw)]),
                mexp([flat[dw * dw + i * dv:dw * dw + (i + 1) * dv]
                      for i in range(dv)]))

    gx = GroupXModData(dim_g, dim_h, mul_g, inv_g, mzero(dw, dv), mul_h,
                       inv_h, (meye(dw), meye(dv)), i_map, act, exp_g,
                       exp_h, flatten_g, flatten_h, unflatten_a, tangent_h)
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
    return GroupXModData(
        dim_g, dim_h,
        lambda a, b: [x + y for x, y in zip(a, b)],
        lambda a: [-x for x in a],
        [0.0] * dim_g,
        lambda a, b: [x + y for x, y in zip(a, b)],
        lambda a: [-x for x in a],
        [0.0] * dim_h,
        lambda g: mapply(i_matrix, g),
        lambda g, h: list(g),
        list, list, list, list, list,
        lambda h, key: [_coefficient(x, key) for x in h])


def _elem_residual(gx, kind, a, b):
    flatten = gx.flatten_g if kind == "g" else gx.flatten_h
    return vmax([x - y for x, y in zip(flatten(a), flatten(b))])


# the sample_g/sample_h scale of the sampled crossed-module, 2-cocycle and
# curvature checks, and of the sampled relations between the lattice maps
_SAMPLE_SCALE = 0.4
_RELATION_SCALE = 0.35


def group_xmod_validate_sampled(gx, samples=20, seed=0):
    """Max residual per crossed-module axiom over seeded random samples."""
    rng = random.Random(seed)
    out = dict.fromkeys(("i_homomorphism", "action_automorphism",
                         "right_action", "equivariance", "peiffer"), 0.0)
    for _ in range(samples):
        g1 = gx.sample_g(rng, _SAMPLE_SCALE)
        g2 = gx.sample_g(rng, _SAMPLE_SCALE)
        h1 = gx.sample_h(rng, _SAMPLE_SCALE)
        h2 = gx.sample_h(rng, _SAMPLE_SCALE)
        for name, kind, lhs, rhs in (
                ("i_homomorphism", "h", gx.i(gx.mul_g(g1, g2)),
                 gx.mul_h(gx.i(g1), gx.i(g2))),
                ("action_automorphism", "g", gx.act(gx.mul_g(g1, g2), h1),
                 gx.mul_g(gx.act(g1, h1), gx.act(g2, h1))),
                ("right_action", "g", gx.act(g1, gx.mul_h(h1, h2)),
                 gx.act(gx.act(g1, h1), h2)),
                ("equivariance", "h", gx.i(gx.act(g1, h1)),
                 gx.mul_h(gx.inv_h(h1), gx.mul_h(gx.i(g1), h1))),
                ("peiffer", "g", gx.act(g1, gx.i(g2)),
                 gx.mul_g(gx.inv_g(g2), gx.mul_g(g1, g2)))):
            out[name] = max(out[name], _elem_residual(gx, kind, lhs, rhs))
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
    for bracket, algebra in ((data["bracket_g"], alg.g),
                             (data["bracket_h"], alg.h)):
        for a in range(algebra.dim):
            for b in range(algebra.dim):
                exact = [float(c) for c in algebra.basis_bracket(a, b)]
                worst = max(worst, vmax([x - y for x, y in
                                         zip(bracket[a][b], exact)]))
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


def trivial_group_rep(gx, dim_w, dim_v):
    return GroupRepData(gx, lambda g: mzero(dim_w, dim_v),
                        lambda h: meye(dim_w), lambda h: meye(dim_v),
                        mzero(dim_v, dim_w), dim_w, dim_v)


class GpPoint:
    """A point of the nerve G_m: m composable arrows in the coordinates
    (g_0, ..., g_{m-1}; h); arrow a is (g_a, h i(g_{m-1} ... g_{a+1})).

    A point is never changed once built, and belongs to one group: its
    geometry in that group, the arrow bases and the final target, is
    computed on first use and kept in ``bases`` and ``target``."""

    __slots__ = ("gs", "h", "bases", "target")

    def __init__(self, gs, h):
        self.gs = list(gs)
        self.h = h
        self.bases = None
        self.target = None

    @property
    def level(self):
        return len(self.gs)


def gp_arrow_base(gx, pt, a):
    """The h-component of the a-th arrow of pt."""
    if pt.bases is None:
        # arrow a's product prod_h(i(g_{m-1}), ..., i(g_{a+1})) is arrow
        # a + 1's times one more factor on the right
        m = len(pt.gs)
        tails = [gx.one_h]
        for k in range(m - 1, 0, -1):
            tails.append(gx.mul_h(tails[-1], gx.i(pt.gs[k])))
        pt.bases = [gx.mul_h(pt.h, t) for t in reversed(tails[:m])]
    return pt.bases[a]


def gp_arrow(gx, pt, a):
    return (pt.gs[a], gp_arrow_base(gx, pt, a))


def gp_target(gx, pt):
    """Final target t_p: h i(g_{m-1} ... g_0)."""
    if pt.target is None:
        pt.target = gx.mul_h(pt.h, gx.i(gx.prod_g(reversed(pt.gs))))
    return pt.target


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
    acc = gx.one_g
    for (g, h) in (gp_arrow(gx, pt, 0) for pt in gammas):
        # pr_G of (g1, h1) *v (g2, h2) = (g1^{h2} g2, h1 h2)
        acc = gx.mul_g(gx.act(acc, h), g)
    return acc


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


def _vadd(a, b):
    return [x + y for x, y in zip(a, b)]


def _vsub(a, b):
    return [x - y for x, y in zip(a, b)]


def _bar(first, xs, mul, value, last):
    """The bar sum first + sum_{j=1}^{n-1} (-1)^j value(x_1, ..., x_j x_{j+1},
    ..., x_n) + (-1)^n last over xs, n = len(xs), with x_j x_{j+1} =
    mul(x_j, x_{j+1}), added left to right."""
    out = first
    for j in range(1, len(xs)):
        merged = xs[:j - 1] + [mul(xs[j - 1], xs[j])] + xs[j + 1:]
        term = value(merged)
        out = _vadd(out, term) if j % 2 == 0 else _vsub(out, term)
    return _vadd(out, last) if len(xs) % 2 == 0 else _vsub(out, last)


def _gd_delta(rep, c, gammas, fs):
    """q-direction differential, target (p, q+1, r)."""
    gx = rep.gx
    q, r = c.q, c.r
    assert len(gammas) == q + 1 and len(fs) == r
    if r == 0:
        first = mapply(rep.rho0_v(gp_target(gx, gammas[0])),
                       c(gammas[1:], []))
    else:
        t0 = gp_target(gx, gammas[0])
        moved = [gx.act(f, t0) for f in fs]
        first = c(gammas[1:], moved)
    last = c(gammas[:-1], fs)
    if r > 0:
        last = mapply(minv(rep.rho0_w(gp_target(gx, gammas[q]))), last)
    return _bar(first, gammas, functools.partial(gp_mul, gx),
                lambda merged: c(merged, fs), last)


def _gd_partial(rep, c, gammas, fs):
    """p-direction differential, target (p+1, q, r)."""
    gx = rep.gx
    p, q, r = c.p, c.q, c.r
    assert all(g.level == p + 1 for g in gammas) and len(fs) == r
    for k in range(p + 2):
        faced = [gp_face(gx, g, k) for g in gammas]
        term = c(faced, fs)
        if k == 0 and r > 0 and q > 0:
            # face 0 carries the representation of the p-direction nerve:
            # rho0^1(i(pr_G of the vertical product of the zero arrows))^-1
            tw = rep.rho0_w(gx.i(_zero_arrow_product(gx, gammas)))
            term = mapply(minv(tw), term)
        if k == 0:
            total = term
        else:
            total = _vadd(total, term) if k % 2 == 0 else _vsub(total, term)
    return total


def _gd_delta_prime(rep, c, gammas, fs):
    """The r = 0 -> 1 seed: rho0^1(prod t_p(gamma_b))^{-1} rho1(f) w."""
    gx = rep.gx
    assert c.r == 0 and len(fs) == 1
    base = c(gammas, [])
    acc = gx.prod_h(gp_target(gx, g) for g in gammas)
    return mapply(minv(rep.rho0_w(acc)), mapply(rep.rho1(fs[0]), base))


def _gd_delta_one(rep, c, gammas, fs):
    """r-direction differential for r >= 1, target (p, q, r+1)."""
    gx = rep.gx
    r = c.r
    assert r >= 1 and len(fs) == r + 1
    acc = gx.prod_h(gp_target(gx, g) for g in gammas)
    tw = rep.rho0_w(gx.i(gx.act(fs[0], acc)))
    first = mapply(tw, c(gammas, fs[1:]))
    last = c(gammas, fs[:-1])
    return _bar(first, fs, gx.mul_g, lambda merged: c(gammas, merged), last)


def _front_page(rep, c, faced, skip, args):
    """The phi-composed formula of the maps landing on the front page
    r = 0: rho0^V(prod_b t_p(faced_b)) phi c(faced[skip:]; args)."""
    gx = rep.gx
    twist = rep.rho0_v(gx.prod_h(gp_target(gx, g) for g in faced))
    return mapply(twist, mapply(rep.phi, c(faced[skip:], args)))


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
        return _front_page(rep, c, [gp_face(gx, g, 0) for g in gammas], 1,
                           [gammas[0].gs[0]])
    t = r - 1
    assert len(fs) == t
    g00, h00 = gp_arrow(gx, gammas[0], 0)
    faced = [gp_face(gx, g, 0) for g in gammas[1:]]
    outer = minv(rep.rho0_w(gx.i(_zero_arrow_product(gx, gammas[1:]))))
    # conjugator of g00 by the h-parts of the zero arrows of gamma_1..q
    conj = gx.prod_h(gp_arrow_base(gx, g, 0) for g in gammas[1:])
    lead = mapply(minv(rep.rho0_w(gx.i(gx.act(g00, conj)))),
                  c(faced, [gx.act(f, h00) for f in fs] + [g00]))
    out = lead
    for n in range(1, t + 1):
        stair = _delta_n_point(gx, (g00, h00), fs, n)
        plus = c(faced, stair + [gx.mul_g(gx.act(fs[t - 1], h00), g00)])
        minus = c(faced, stair + [g00])
        term = _vsub(plus, minus)
        out = _vadd(out, term) if (t - n) % 2 == 0 else _vsub(out, term)
    return mapply(outer, out)


def _gd_delta2q(rep, c, gammas, fs):
    """Second difference landing on the front page along p (IV atSch)."""
    gx = rep.gx
    assert c.r == 2 and not fs and len(gammas) == c.q + 1
    faced = [gp_face(gx, gp_face(gx, g, 0), 0) for g in gammas]
    return _front_page(rep, c, faced, 1, [gammas[0].gs[1], gammas[0].gs[0]])


def _gd_delta2p(rep, c, gammas, fs):
    """Second difference landing on the front page along q (V atSch)."""
    gx = rep.gx
    assert c.r == 2 and not fs and len(gammas) == c.q + 2
    h01 = gp_arrow_base(gx, gammas[1], 0)
    return _front_page(rep, c, [gp_face(gx, g, 0) for g in gammas], 2,
                       [gx.act(gammas[0].gs[0], h01), gammas[1].gs[0]])


# kind -> (pointwise formula, (dp, dq, dr) from source to target index)
_KINDS = {
    "delta": (_gd_delta, (0, 1, 0)),
    "partial": (_gd_partial, (1, 0, 0)),
    "deltaPrime": (_gd_delta_prime, (0, 0, 1)),
    "delta1": (_gd_delta_one, (0, 0, 1)),
    "Delta": (_gd_first_difference, (1, 1, -1)),
    "Delta2q": (_gd_delta2q, (2, 1, -2)),
    "Delta2p": (_gd_delta2p, (1, 2, -2)),
}


def diff_cochain(rep, kind, c):
    """Package a component differential as a new GroupCochain."""
    formula, (dp, dq, dr) = _KINDS[kind]
    return GroupCochain(c.p + dp, c.q + dq, c.r + dr,
                        lambda gammas, fs: formula(rep, c, gammas, fs))


# ---------------------------------------------------------------------------
# Group 2-cocycle equations (sampled).
# ---------------------------------------------------------------------------


def gp2cocycle_residuals(rep, omega0, omega1, alpha, phihat, samples=20,
                         seed=0):
    """Max residual of the seven extension equations at random samples.

    omega0(h0, h1) -> V, omega1(g0, g1) -> W, alpha(h; g) -> W,
    phihat(g) -> V, all normalized closures.
    """
    gx = rep.gx
    rng = random.Random(seed)
    res = {k: 0.0 for k in ("i", "ii", "iii", "iv", "v", "vi", "vii")}
    for _ in range(samples):
        h0, h1, h2 = (gx.sample_h(rng, _SAMPLE_SCALE) for _ in range(3))
        g0, g1, g2 = (gx.sample_g(rng, _SAMPLE_SCALE) for _ in range(3))
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


def homotopy_curvature_residual(rep, samples=10, seed=0):
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
    h2 = gx.sample_h(rng, _SAMPLE_SCALE)
    for _ in range(samples):
        g1 = gx.sample_g(rng, _SAMPLE_SCALE)
        g2 = gx.sample_g(rng, _SAMPLE_SCALE)
        h1 = gx.sample_h(rng, _SAMPLE_SCALE)
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
    """A group cochain on the level-0 nerve points prepared for
    R-derivatives: its q-slots (points of H) move through exp_h, its
    r-slots (G-elements) through exp_g.  ValueError for p != 0.  A cochain
    made by ``van_est_r`` keeps the underived cochain as ``root`` and the
    (slot, direction) pairs derived so far, in order, as ``chain``.
    """

    def __init__(self, gx, p, q, r, fn, root=None, chain=()):
        if p != 0:
            raise ValueError("van Est cochains live on level p = 0, got p=%r"
                             % (p,))
        self.gx = gx
        self.p, self.q, self.r = p, q, r
        self.fn = fn
        self.root = self if root is None else root
        self.chain = list(chain)

    def __call__(self, gammas, fs):
        return self.fn(gammas, fs)


def _jet_derivative(root, chain, gammas, fs):
    """The mixed derivative of root along the (slot, direction) pairs of
    chain, with gammas and fs in the slots left over: pair i moves its
    first free slot along exp(tau_i direction), and the coefficient of
    tau_0 ... tau_{n-1} of one n-variable jet evaluation is read off.  An
    empty chain gives the value of root itself."""
    n = len(chain)
    assert n <= 3, "jet-order bound exceeded (q + r <= 3)"
    gam_ins, f_ins = [], []
    for i, (slot, vec) in enumerate(chain):
        tau = Jet.variable(i, n, n)
        scaled = [tau * x for x in vec]
        if slot == "g":
            f_ins.append(root.gx.exp_g(scaled))
        else:
            gam_ins.append(GpPoint([], root.gx.exp_h(scaled)))
    val = root(gam_ins + list(gammas), f_ins + list(fs))
    if not chain:
        return val
    return [_coefficient(x, (1,) * n) for x in val]


def van_est_r(cochain, direction, slot="g"):
    """The right-invariant derivative R_x (slot="g") or R_xi (slot="h").

    Consumes the first slot of the chosen group; derivatives are exact
    through a one-variable jet per application (nesting allocates fresh
    jet variables, bounded by 3)."""
    root = cochain.root
    chain = cochain.chain + [(slot, list(direction))]
    assert len(chain) <= 3, "jet-order bound exceeded (q + r <= 3)"
    if slot == "g":
        assert cochain.r >= 1, "no G-slot left to derive"
        p, q, r = cochain.p, cochain.q, cochain.r - 1
    else:
        assert cochain.q >= 1, "no nerve slot left to derive"
        p, q, r = cochain.p, cochain.q - 1, cochain.r
    return VanEstCochain(
        root.gx, p, q, r,
        lambda gammas, fs: _jet_derivative(root, chain, gammas, fs),
        root=root, chain=chain)


def van_est_phi(cochain, xi_args, x_args):
    """The 2-van Est map at a point: antisymmetrized iterated R-derivatives
    over both argument groups independently.  Requires q + r <= 3."""
    q, r = len(xi_args), len(x_args)
    assert q == cochain.q and r == cochain.r
    assert q + r <= 3, "jet-order bound exceeded"
    total = None
    for sigma in itertools.permutations(range(q)):
        for rho in itertools.permutations(range(r)):
            # R_{x_rho(1)} first, then up; then the xi-slots
            chain = (cochain.chain
                     + [("g", list(x_args[k])) for k in rho]
                     + [("h", list(xi_args[k])) for k in sigma])
            val = _jet_derivative(cochain.root, chain, [], [])
            sign = _sort_sign(sigma)[0] * _sort_sign(rho)[0]
            val = [sign * x for x in val]
            total = val if total is None else _vadd(total, val)
    return total


# ---------------------------------------------------------------------------
# Random normalized cochains and the sampled relation checks.
# ---------------------------------------------------------------------------


def _flatten_point(gx, pt):
    out = []
    for g in pt.gs:
        out.extend(gx.flatten_g(g))
    out.extend(gx.flatten_h(pt.h))
    return out


def random_group_cochain(rep, p, q, r, rng):
    """A normalized polynomial cochain: each output coordinate is a sum of
    two products of one centered linear functional per slot, with
    coefficients uniform in [-1, 1], so it vanishes whenever any argument
    is the unit (the normalization the groupoid complexes assume)."""
    gx = rep.gx
    out_dim = rep.dim_v if r == 0 else rep.dim_w
    unit_gamma = _flatten_point(gx, gp_one(gx, p))
    unit_g = gx.flatten_g(gx.one_g)
    shape_gamma = len(unit_gamma)
    shape_g = len(unit_g)

    coeffs = []
    for _ in range(out_dim):
        rows = []
        for _ in range(2):
            gamma_fns = [[2 * rng.random() - 1
                          for _ in range(shape_gamma)] for _ in range(q)]
            g_fns = [[2 * rng.random() - 1
                      for _ in range(shape_g)] for _ in range(r)]
            rows.append((gamma_fns, g_fns))
        coeffs.append(rows)

    def fn(gammas, fs):
        # each argument minus the unit, flattened once per call
        moved = ([[x - u for x, u in zip(_flatten_point(gx, pt), unit_gamma)]
                  for pt in gammas]
                 + [[x - u for x, u in zip(gx.flatten_g(f), unit_g)]
                    for f in fs])
        out = []
        for rows in coeffs:
            acc = 0.0
            for gamma_fns, g_fns in rows:
                prod = 1.0
                for coeff, dx in zip(gamma_fns + g_fns, moved):
                    prod = prod * sum((c * d for c, d in zip(coeff, dx)), 0.0)
                acc = acc + prod
            out.append(acc)
        return out

    return GroupCochain(p, q, r, fn)


def _maps(rep, c, *kinds):
    """c followed by the named maps, the first named applied first."""
    for kind in kinds:
        c = diff_cochain(rep, kind, c)
    return c


def _sampled_relation(rep, index, shape, samples, seed, relation):
    """Worst sampled residual of a pointwise relation between maps out of
    C^{p,q}_r, index = (p, q, r).  Each sample draws, in this order, a
    random cochain c there, then the point: shape = (level, points, n_fs)
    asks for that many nerve points of that level and n_fs G-elements.
    relation(c, gammas, fs) returns the vector lhs - rhs."""
    gx = rep.gx
    level, points, n_fs = shape
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(samples):
        c = random_group_cochain(rep, *index, rng)
        gammas = [gp_sample(gx, rng, level, _RELATION_SCALE)
                  for _ in range(points)]
        fs = [gx.sample_g(rng, _RELATION_SCALE) for _ in range(n_fs)]
        worst = max(worst, vmax(relation(c, gammas, fs)))
    return worst


def startop_relation_residual(rep, r, samples=10, seed=0, p=0, q=0):
    """(-1)^r (delta partial - partial delta) = Delta delta1 - delta1 Delta
    on C^{p,q}_r, evaluated pointwise at random samples."""
    first = "delta1" if r >= 1 else "deltaPrime"
    after = "deltaPrime" if r == 1 else "delta1"

    def relation(c, gammas, fs):
        pd = _maps(rep, c, "partial", "delta")(gammas, fs)
        dp = _maps(rep, c, "delta", "partial")(gammas, fs)
        lhs = _vsub(pd, dp) if r % 2 == 0 else _vsub(dp, pd)
        rhs = _vsub(_maps(rep, c, first, "Delta")(gammas, fs),
                    _maps(rep, c, "Delta", after)(gammas, fs))
        return _vsub(lhs, rhs)

    return _sampled_relation(rep, (p, q, r), (p + 1, q + 1, r), samples,
                             seed, relation)


def atsch_iv_residual(rep, p, q, samples=10, seed=0):
    """partial Delta + Delta partial = Delta_2^q delta1 on C^{p,q}_1."""

    def relation(c, gammas, fs):
        lhs = _vadd(_maps(rep, c, "Delta", "partial")(gammas, fs),
                    _maps(rep, c, "partial", "Delta")(gammas, fs))
        return _vsub(lhs, _maps(rep, c, "delta1", "Delta2q")(gammas, fs))

    return _sampled_relation(rep, (p, q, 1), (p + 2, q + 1, 0), samples,
                             seed, relation)


def atsch_v_residual(rep, p, q, samples=10, seed=0):
    """delta Delta + Delta delta = Delta_2^p delta1 on C^{p,q}_1."""

    def relation(c, gammas, fs):
        lhs = _vadd(_maps(rep, c, "Delta", "delta")(gammas, fs),
                    _maps(rep, c, "delta", "Delta")(gammas, fs))
        return _vsub(lhs, _maps(rep, c, "delta1", "Delta2p")(gammas, fs))

    return _sampled_relation(rep, (p, q, 1), (p + 1, q + 2, 0), samples,
                             seed, relation)


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
    curvature = homotopy_curvature_residual(tautological_rep(gx),
                                            samples=trials, seed=seed)
    rows.append(("glphi_curvature", curvature, curvature <= tol))
    return rows


def scenario_exp(dims=(1, 1), trials=10, seed=0, tol=1e-9):
    rows = []
    if dims == (1, 1):
        worst = 0.0
        rng = random.Random(seed)
        for _ in range(trials):
            a = 2 * rng.random() - 1
            got = glphi1_exp([[a]], [[1.0]])[0][0]
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
