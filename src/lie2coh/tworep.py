"""2-representations of Lie 2-algebras: validation, the adjoint, the
associated honest representation, and the twisted semidirect product that
builds every extension of a Lie 2-algebra by a 2-vector space."""

from .numeric import Matrix, Q0, Space, linear_combination, vectors_matrix
from .liealg import (LieAlgebra, Representation, _unit, apply_into,
                     sparse_columns, validate_representation)
from .lie2 import (CrossedModuleAlg, TwoVectorSpace, validate_crossed_module,
                   lie2_arrows)


class TwoRep:
    """A morphism of Lie 2-algebras into gl(phi).

    rho1 assigns to each basis vector of g a map V -> W; rho0_w and
    rho0_v are the commuting representations of h on W and on V.
    """

    def __init__(self, source, target, rho1, rho0_w, rho0_v):
        self.source = source
        self.target = target
        assert len(rho1) == source.g.dim
        for m in rho1:
            assert m.rows == target.dim_w and m.cols == target.dim_v
        self.rho1 = list(rho1)
        assert rho0_w.algebra == source.h and rho0_w.space_dim == target.dim_w
        assert rho0_v.algebra == source.h and rho0_v.space_dim == target.dim_v
        self.rho0_w = rho0_w
        self.rho0_v = rho0_v

    def rho1_of(self, xvec):
        """rho1 of a coefficient vector of g, a map V -> W."""
        return linear_combination(xvec, self.rho1, self.target.dim_w,
                                  self.target.dim_v)

    @staticmethod
    def trivial(source, target):
        zero = Matrix.zero(target.dim_w, target.dim_v)
        return TwoRep(source, target,
                      [zero for _ in range(source.g.dim)],
                      Representation.trivial(source.h, target.dim_w),
                      Representation.trivial(source.h, target.dim_v))


def validate_two_rep(r):
    """Per-axiom violation list with basis witnesses; empty means valid.

    Each identity is checked column by column on sparse columns, as
    {row: value} dicts."""
    bad = []
    x = r.source
    dg, dw, dv = x.g.dim, r.target.dim_w, r.target.dim_v
    for (i, j) in validate_representation(r.rho0_w):
        bad.append(("rho0_w_homomorphism", (i, j)))
    for (i, j) in validate_representation(r.rho0_v):
        bad.append(("rho0_v_homomorphism", (i, j)))
    phi = sparse_columns(r.target.phi)
    rw = [sparse_columns(m) for m in r.rho0_w.mats]
    rv = [sparse_columns(m) for m in r.rho0_v.mats]
    r1 = [sparse_columns(m) for m in r.rho1]
    mu = sparse_columns(x.mu)
    # the columns of phi rho1(e_a): V -> V
    phi_r1 = [[list(apply_into({}, phi, col).items()) for col in cols]
              for cols in r1]

    def check(name, witness, width, column):
        # the identity holds when each of its width columns is zero
        if any(any(column(c).values()) for c in range(width)):
            bad.append((name, witness))

    for b in range(x.h.dim):
        # phi rho0^1(e_b) - rho0^0(e_b) phi
        check("object_compatibility", (b,), dw, lambda c: apply_into(
            apply_into({}, phi, rw[b][c]), rv[b], phi[c], -1))
    for a in range(dg):
        # rho0^0(mu e_a) - phi rho1(e_a) and rho0^1(mu e_a) - rho1(e_a) phi
        check("delta_rho1_V", (a,), dv, lambda c: apply_into(
            _combination_column(rv, mu[a], c), phi, r1[a][c], -1))
        check("delta_rho1_W", (a,), dw, lambda c: apply_into(
            _combination_column(rw, mu[a], c), r1[a], phi[c], -1))
    for a in range(dg):
        for b in range(a + 1, dg):
            # rho1([e_a, e_b]) - rho1(e_a) phi rho1(e_b)
            # + rho1(e_b) phi rho1(e_a)
            br = x.g.structure.get((a, b), ())
            check("rho1_homomorphism", (a, b), dv, lambda c: apply_into(
                apply_into(_combination_column(r1, br, c), r1[a],
                           phi_r1[b][c], -1), r1[b], phi_r1[a][c]))
    for b in range(x.h.dim):
        act = sparse_columns(x.action.mats[b])
        for a in range(dg):
            # rho1(L_b e_a) - rho0^1(e_b) rho1(e_a) + rho1(e_a) rho0^0(e_b)
            check("action_compatibility", (b, a), dv, lambda c: apply_into(
                apply_into(_combination_column(r1, act[a], c), rw[b],
                           r1[a][c], -1), r1[a], rv[b][c]))
    return bad


def _combination_column(cols, coeffs, c):
    """Column c of sum_k y_k M_k, for the M_k as sparse columns and the
    nonzero (k, y_k) of coeffs."""
    acc = {}
    for k, y in coeffs:
        apply_into(acc, cols[k], [(c, y)])
    return acc


def adjoint_rep(x):
    """The adjoint 2-representation of a Lie 2-algebra on mu: g -> h.

    ad_1(x)(u) = -L_u x, ad_0^1(y) = L_y on g, ad_0^0(y) = [y, -] on h.
    """
    assert not validate_crossed_module(x), "invalid crossed module"
    dg, dh = x.g.dim, x.h.dim
    target = TwoVectorSpace(dg, dh, x.mu)
    rho1 = []
    for a in range(dg):
        ea = _unit(dg, a)
        cols = [[-c for c in x.action.mats[b].apply(ea)] for b in range(dh)]
        rho1.append(vectors_matrix(cols, dim=dg))
    rho0_w = Representation(x.h, dg, [x.action.mats[b] for b in range(dh)])
    rho0_v = Representation(x.h, dh, [x.h.ad(_unit(dh, b)) for b in range(dh)])
    return TwoRep(x, target, rho1, rho0_w, rho0_v)


def bar_rho(r):
    """The honest representation of g (+)_L h on W (+) V induced by r:
    (x, y) -> [[rho0^1(y + mu x), rho1(x)], [0, rho0^0(y)]]."""
    assert not validate_two_rep(r), "invalid 2-representation"
    return honest_rep(r, lie2_arrows(r.source))


def honest_rep(r, arrows):
    """bar_rho(r) on arrows, the nerve algebra g_1 of r.source; no
    validation."""
    x, t = r.source, r.target
    lower_left = Matrix.zero(t.dim_v, t.dim_w)
    mats = []
    for i in range(arrows.dim):
        if i < x.g.dim:
            xv = _unit(x.g.dim, i)
            yv = [Q0] * x.h.dim
        else:
            xv = [Q0] * x.g.dim
            yv = _unit(x.h.dim, i - x.g.dim)
        top_left = r.rho0_w.act([a + b for a, b in zip(yv, x.mu.apply(xv))])
        mats.append(top_left.hstack(r.rho1_of(xv)).vstack(
            lower_left.hstack(r.rho0_v.act(yv))))
    return Representation(arrows, t.dim_w + t.dim_v, mats)


def twisted_semidirect(x, r, omega0, omega1, alpha, phi_g):
    """The extension e_1 = g (+) W --eps--> e_0 = h (+) V of x by the
    2-vector space of r, twisted by 2-cochain data; no validation.

    omega0, omega1 and alpha are flat cochain values in the lattice
    layouts (0,2,0), (0,0,2) and (0,1,1); phi_g: g -> V is a Matrix.
    [(x,w),(x',w')] = ([x,x'], rho0^1(mu x) w' - rho0^1(mu x') w
    - omega1(x,x')), [(y,v),(y',v')] = ([y,y'], rho0^0(y) v' - rho0^0(y') v
    - omega0(y,y')), eps(x,w) = (mu x, phi w + phi_g x) and
    L_{(y,v)}(x,w) = (L_y x, rho0^1(y) w - rho1(x) v - alpha(y;x)).
    Zero cochains give the semidirect product; the unit 2-representation
    (W = 0, V = Q) gives the central extension mu_phi.
    """
    t = r.target
    dg, dh, dw, dv = x.g.dim, x.h.dim, t.dim_w, t.dim_v
    # the lattice layouts of omega0, omega1 and alpha
    at_020 = Space(0, 2, 0, dh, dg, dv)
    at_002 = Space(0, 0, 2, dh, dg, dw)
    at_011 = Space(0, 1, 1, dh, dg, dw)
    e1 = _twisted_sum(x.g, [r.rho0_w.act(x.mu.col(a)) for a in range(dg)],
                      dw, omega1, lambda pair: at_002.block((), pair))
    e0 = _twisted_sum(x.h, r.rho0_v.mats, dv, omega0,
                      lambda pair: at_020.block(pair, ()))
    eps = x.mu.hstack(Matrix.zero(dh, dw)).vstack(phi_g.hstack(t.phi))
    top_right = Matrix.zero(dg, dw)
    mats = []
    for b in range(dh):
        # column a of the lower-left block is -alpha(e_b; e_a)
        starts = [at_011.block((b,), (a,)) for a in range(dg)]
        lower_left = Matrix(dw, dg, [[-alpha[s + i] for s in starts]
                                     for i in range(dw)])
        mats.append(x.action.mats[b].hstack(top_right).vstack(
            lower_left.hstack(r.rho0_w.mats[b])))
    upper = Matrix.zero(dg, dg + dw)
    lower_right = Matrix.zero(dw, dw)
    for k in range(dv):
        # column a of the lower-left block is -rho1(e_a) e_k
        lower_left = Matrix(dw, dg, [[-r.rho1[a].data[i][k]
                                      for a in range(dg)] for i in range(dw)])
        mats.append(upper.vstack(lower_left.hstack(lower_right)))
    return CrossedModuleAlg(e1, e0, eps, Representation(e0, dg + dw, mats))


def _twisted_sum(base, rho, dc, omega, start):
    """base (+) Q^dc with [e_a, e_b] = ([e_a, e_b], -omega(e_a, e_b)) and
    [e_a, c_k] = rho[a] c_k; omega holds dc values per increasing pair
    (a, b), from start((a, b)) on."""
    d = base.dim
    structure = {}
    for a in range(d):
        for b in range(a + 1, d):
            s = start((a, b))
            vec = base.structure.get((a, b), []) + [
                (d + k, -c) for k, c in enumerate(omega[s:s + dc]) if c]
            if vec:
                structure[(a, b)] = vec
    for a in range(d):
        for k in range(dc):
            vec = [(d + i, c) for i, c in enumerate(rho[a].col(k)) if c]
            if vec:
                structure[(a, d + k)] = vec
    return LieAlgebra._of(d + dc, structure)


def semidirect_2alg(x, r):
    """Semidirect product: g (+)_{rho0^1 mu} W --mu x phi--> h (+)_{rho0^0} V
    with action L_{(y,v)}(x,w) = (L_y x, rho0^1(y) w - rho1(x) v), the
    extension by the zero 2-cochain."""
    assert r.source == x
    assert not validate_two_rep(r), "invalid 2-representation"
    t = r.target
    dg, dh, dw, dv = x.g.dim, x.h.dim, t.dim_w, t.dim_v
    out = twisted_semidirect(x, r, [0] * (dh * (dh - 1) // 2 * dv),
                             [0] * (dg * (dg - 1) // 2 * dw),
                             [0] * (dh * dg * dw), Matrix.zero(dv, dg))
    assert not validate_crossed_module(out), "semidirect product failed validation"
    return out


def pullback_two_rep(r, x_big, proj_g, proj_h):
    """Pull a 2-representation back along a crossed-module map (projection
    given by matrices proj_g: g_big -> g, proj_h: h_big -> h)."""
    rho1 = [r.rho1_of(proj_g.col(a)) for a in range(x_big.g.dim)]
    rho0_w = Representation(x_big.h, r.target.dim_w,
                            [r.rho0_w.act(proj_h.col(b))
                             for b in range(x_big.h.dim)])
    rho0_v = Representation(x_big.h, r.target.dim_v,
                            [r.rho0_v.act(proj_h.col(b))
                             for b in range(x_big.h.dim)])
    return TwoRep(x_big, r.target, rho1, rho0_w, rho0_v)
