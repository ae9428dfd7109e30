"""Crossed modules of Lie algebras, their nerves, and the linear Lie
2-algebra gl(phi) of a 2-term complex of vector spaces."""

from .numeric import (Matrix, Q0, Q1, rank_and_kernel, solve_linear,
                      vectors_matrix, in_span, _demote)
from .liealg import (LieAlgebra, Representation, validate_lie_algebra,
                     validate_representation, sparse_columns, apply_into,
                     _unit)


class TwoVectorSpace:
    """A 2-term complex of vector spaces phi: W -> V."""

    def __init__(self, dim_w, dim_v, phi):
        self.dim_w = dim_w
        self.dim_v = dim_v
        assert phi.rows == dim_v and phi.cols == dim_w
        self.phi = phi

    def __repr__(self):
        return "TwoVectorSpace(W=%d -> V=%d)" % (self.dim_w, self.dim_v)


class CrossedModuleAlg:
    """Crossed module mu: g -> h with an h-action on g by derivations."""

    def __init__(self, g, h, mu, action):
        self.g = g
        self.h = h
        assert mu.rows == h.dim and mu.cols == g.dim
        self.mu = mu
        assert isinstance(action, Representation)
        assert action.algebra == h and action.space_dim == g.dim
        self.action = action

    def act(self, y, x):
        """L_y x for coefficient vectors y in h, x in g."""
        return self.action.act(y).apply(x)

    def __eq__(self, other):
        return (isinstance(other, CrossedModuleAlg) and self.g == other.g
                and self.h == other.h and self.mu == other.mu
                and self.action.mats == other.action.mats)

    def __hash__(self):
        return hash((self.g, self.h, self.mu, tuple(self.action.mats)))

    def __repr__(self):
        return "CrossedModuleAlg(g dim %d -> h dim %d)" % (self.g.dim, self.h.dim)


def validate_crossed_module(x):
    """Diagnostics list; empty means valid.

    Each entry is (identity name, witnessing basis indices).  Checked:
    the pieces are Lie algebras, the action is a representation, it acts
    by derivations, equivariance mu(L_y x) = [y, mu x], and the
    infinitesimal Peiffer identity L_{mu x0} x1 = [x0, x1].
    """
    bad = []
    for t in validate_lie_algebra(x.g):
        bad.append(("jacobi_g", t[:3]))
    for t in validate_lie_algebra(x.h):
        bad.append(("jacobi_h", t[:3]))
    for (i, j) in validate_representation(x.action):
        bad.append(("action_homomorphism", (i, j)))
    dg, dh = x.g.dim, x.h.dim
    act = [sparse_columns(m) for m in x.action.mats]
    mu = sparse_columns(x.mu)
    for b in range(dh):
        lb = act[b]
        for i in range(dg):
            for j in range(i + 1, dg):
                # L_b [e_i, e_j] - [L_b e_i, e_j] - [e_i, L_b e_j]
                acc = apply_into({}, lb, x.g._sparse.get((i, j), ()))
                x.g.bracket_into(lb[i], [(j, 1)], acc, -1)
                x.g.bracket_into([(i, 1)], lb[j], acc, -1)
                if any(acc.values()):
                    bad.append(("derivation", (b, i, j)))
        for i in range(dg):
            # mu(L_b e_i) - [e_b, mu e_i]
            acc = apply_into({}, mu, lb[i])
            x.h.bracket_into([(b, 1)], mu[i], acc, -1)
            if any(acc.values()):
                bad.append(("equivariance", (b, i)))
    for i in range(dg):
        for j in range(dg):
            # L_{mu e_i} e_j - [e_i, e_j]
            acc = {}
            for k, c in mu[i]:
                apply_into(acc, act[k], [(j, c)])
            x.g.bracket_into([(i, 1)], [(j, 1)], acc, -1)
            if any(acc.values()):
                bad.append(("peiffer", (i, j)))
    return bad


def lie2_arrows(x):
    """The semidirect sum g (+)_L h carrying the arrow Lie algebra: the
    nerve algebra g_1.

    Basis: g-block first, then h-block.  Bracket:
    [(x0,y0),(x1,y1)] = ([x0,x1] + L_{y0}x1 - L_{y1}x0, [y0,y1]).
    """
    assert not validate_crossed_module(x), "invalid crossed module"
    return nerve_algebra(x, 1).underlying


def xmod_from_quadruple(h, ideal_indices, v_dim, rho):
    """Crossed module V (+) I -> h from a 4-tuple (h, I, V, rho).

    ``ideal_indices`` selects basis vectors of h spanning an ideal I;
    ``rho`` is a representation of h on Q^v_dim that vanishes on I (the
    descent condition for a representation of h/I).  The output has
    g = V (+) I with the direct-product bracket (V central abelian),
    structural map (v, x) -> x and action L_y(v, x) = (rho_y v, [y, x]).
    """
    ideal_indices = sorted(set(ideal_indices))
    assert all(0 <= i < h.dim for i in ideal_indices)
    assert isinstance(rho, Representation) and rho.algebra == h
    assert rho.space_dim == v_dim
    span = [_unit(h.dim, i) for i in ideal_indices]
    for b in range(h.dim):
        for i in ideal_indices:
            w = h.bracket(_unit(h.dim, b), _unit(h.dim, i))
            if not in_span(span, w):
                raise ValueError("selected span is not an ideal: [e%d, e%d]"
                                 % (b, i))
    for i in ideal_indices:
        if any(x != 0 for row in rho.mats[i].data for x in row):
            raise ValueError("rho does not descend to h/I: nonzero on e%d" % i)

    dg = v_dim + len(ideal_indices)
    # bracket on g = V (+) I: V abelian central, I keeps the h-bracket
    brackets = {}
    for a, ia in enumerate(ideal_indices):
        for b in range(a + 1, len(ideal_indices)):
            ib = ideal_indices[b]
            w = h.bracket(_unit(h.dim, ia), _unit(h.dim, ib))
            coeffs = _ideal_coords(h, span, ideal_indices, w)
            vec = [Q0] * dg
            for k, c in enumerate(coeffs):
                vec[v_dim + k] = c
            if any(c != 0 for c in vec):
                brackets[(v_dim + a, v_dim + b)] = vec
    g = LieAlgebra(dg, brackets)

    mu_rows = [[Q0] * dg for _ in range(h.dim)]
    for k, i in enumerate(ideal_indices):
        mu_rows[i][v_dim + k] = Q1
    mu = Matrix(h.dim, dg, mu_rows)

    mats = []
    for b in range(h.dim):
        m = Matrix.zero(dg, dg)
        for a in range(v_dim):
            for c in range(v_dim):
                m.data[a][c] = rho.mats[b].data[a][c]
        for k, i in enumerate(ideal_indices):
            w = h.bracket(_unit(h.dim, b), _unit(h.dim, i))
            coeffs = _ideal_coords(h, span, ideal_indices, w)
            for kk, c in enumerate(coeffs):
                m.data[v_dim + kk][v_dim + k] = c
        mats.append(m)
    action = Representation(h, dg, mats)
    x = CrossedModuleAlg(g, h, mu, action)
    assert not validate_crossed_module(x), "quadruple produced invalid data"
    return x


def _ideal_coords(h, span, ideal_indices, w):
    if not ideal_indices:
        assert all(x == 0 for x in w)
        return []
    sol = solve_linear(vectors_matrix(span), w)
    assert sol is not None
    return sol


def structure_report(x):
    """Orbit ideal mu(g), central isotropy ker mu, and the induced
    representation of h (descending to h/mu(g)) on ker mu."""
    mu_cols = [x.mu.col(j) for j in range(x.g.dim)]
    _, orbit_basis = _independent(mu_cols, x.h.dim)
    # [h, mu(g)] subset mu(g)
    orbit_is_ideal = all(
        in_span(orbit_basis, x.h.bracket(_unit(x.h.dim, b), w))
        for b in range(x.h.dim) for w in orbit_basis)
    _, kernel_basis = rank_and_kernel(x.mu)
    ker_abelian = all(
        all(c == 0 for c in x.g.bracket(u, v))
        for u in kernel_basis for v in kernel_basis)
    ker_central = all(
        all(c == 0 for c in x.g.bracket(u, _unit(x.g.dim, j)))
        for u in kernel_basis for j in range(x.g.dim))
    # induced action of h on ker mu, in kernel-basis coordinates
    kmat = vectors_matrix(kernel_basis, dim=x.g.dim)
    induced = []
    well_defined = True
    for b in range(x.h.dim):
        cols = []
        for v in kernel_basis:
            w = x.action.mats[b].apply(v)
            sol = solve_linear(kmat, w)
            if sol is None:
                well_defined = False
                sol = [Q0] * len(kernel_basis)
            cols.append(sol)
        induced.append(Matrix(len(kernel_basis), len(kernel_basis),
                              [[cols[j][i] for j in range(len(cols))]
                               for i in range(len(kernel_basis))]))
    # descent: L_{mu(v)} vanishes on ker mu
    descends = all(
        all(c == 0 for c in x.action.act(mu_col).apply(v))
        for mu_col in mu_cols for v in kernel_basis)
    return {
        "orbit_basis": orbit_basis,
        "orbit_is_ideal": orbit_is_ideal,
        "kernel_basis": kernel_basis,
        "kernel_abelian": ker_abelian,
        "kernel_central": ker_central,
        "induced_action": induced,
        "induced_action_well_defined": well_defined and descends,
    }


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector."""
    from math import gcd
    from fractions import Fraction
    denoms = [x.denominator if isinstance(x, Fraction) else 1 for x in vec]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(x * lcm) for x in vec]
    content = 0
    for x in ints:
        content = gcd(content, abs(x))
    if content > 1:
        ints = [x // content for x in ints]
    return ints


def _independent(vecs, dim):
    chosen = []
    idx = []
    for k, v in enumerate(vecs):
        if any(c != 0 for c in v) and not in_span(chosen, v):
            chosen.append(v)
            idx.append(k)
    return idx, chosen


# ---------------------------------------------------------------------------
# Nerve algebras g_p and the simplicial maps between them.
# ---------------------------------------------------------------------------

class NerveAlgebra:
    """g_p = composable p-tuples of arrows, identified with g^p (+) h.

    Basis order: x^0-block, ..., x^{p-1}-block, then the y-block.  The
    j-th arrow of (x^0..x^{p-1}; y) is (x^j, y + sum_{k>j} mu(x^k)), and
    the bracket is componentwise in the arrow algebra g (+)_L h.
    """

    def __init__(self, parent, p, underlying):
        self.parent = parent
        self.p = p
        self.underlying = underlying

    @property
    def dim(self):
        return self.underlying.dim


def nerve_algebra(x, p):
    """The nerve algebra g_p, its brackets from the structure constants.

    The c-th arrow of a basis vector is sparse: e_k in slot s has arrow
    (e_k, 0) at c = s, (0, mu e_k) at c < s and zero at c > s; e_b in the
    y-block has arrow (0, e_b) in every slot.  Slot c of a bracket is
    [x_u, x_v] + L_{y_u} x_v - L_{y_v} x_u for the c-th arrows (x_u, y_u),
    (x_v, y_v), and the y-block is [y_u, y_v].
    """
    assert p >= 0
    dg, dh = x.g.dim, x.h.dim
    d = p * dg + dh
    act = [sparse_columns(m) for m in x.action.mats]
    mu = sparse_columns(x.mu)
    none = ((), ())
    arrows = [[(((k, 1),), ()) if c == s else ((), mu[k]) if c < s else none
               for c in range(p)]
              for s in range(p) for k in range(dg)]
    arrows += [[((), ((b, 1),))] * p for b in range(dh)]
    ys = [()] * (p * dg) + [((b, 1),) for b in range(dh)]

    brackets = {}
    for i in range(d):
        for j in range(i + 1, d):
            vec = {}
            for c, ((xu, yu), (xv, yv)) in enumerate(zip(arrows[i],
                                                           arrows[j])):
                slot = x.g.bracket_into(xu, xv, {})
                for b, cb in yu:
                    apply_into(slot, act[b], xv, cb)
                for b, cb in yv:
                    apply_into(slot, act[b], xu, -cb)
                for k, val in slot.items():
                    if val:
                        vec[c * dg + k] = _demote(val)
            for b, val in x.h.bracket_into(ys[i], ys[j], {}).items():
                if val:
                    vec[p * dg + b] = _demote(val)
            if vec:
                brackets[(i, j)] = [vec.get(k, 0) for k in range(d)]
    return NerveAlgebra(x, p, LieAlgebra(d, brackets))


def face_matrix(x, p, k):
    """The k-th face g_{p+1} -> g_p, 0 <= k <= p+1, as a matrix."""
    assert 0 <= k <= p + 1
    dg, dh = x.g.dim, x.h.dim
    m = Matrix.zero(p * dg + dh, (p + 1) * dg + dh)
    rows = m.data
    # g-slot j of the target sums source slot j (below the face, j < k)
    # and source slot j + 1 (from the face on, j >= k - 1)
    for j in range(p):
        slots = [j] if j < k else []
        if j >= k - 1:
            slots.append(j + 1)
        for s in slots:
            for a in range(dg):
                rows[j * dg + a][s * dg + a] = 1
    # the h-slot is copied; the last face also adds mu of g-slot p
    for b in range(dh):
        row = rows[p * dg + b]
        row[(p + 1) * dg + b] = 1
        if k == p + 1:
            row[p * dg:(p + 1) * dg] = x.mu.data[b]
    return m


def final_target_matrix(x, p):
    """t_p: g_p -> h, (x^0..x^{p-1}; y) -> y + sum_j mu(x^j)."""
    m = Matrix.identity(x.h.dim)
    for _ in range(p):
        m = x.mu.hstack(m)
    return m


def simplicial_maps(x, p):
    """All faces g_{p+1} -> g_p plus the final target map of g_p."""
    faces = [face_matrix(x, p, k) for k in range(p + 2)]
    return faces, final_target_matrix(x, p)


# ---------------------------------------------------------------------------
# The linear Lie 2-algebra gl(phi).
# ---------------------------------------------------------------------------

def gl_phi(v):
    """gl(phi)_1 = Hom(V, W) -> gl(phi)_0 = {(F, f): phi F = f phi}.

    Bracket on the arrow part: [A, B]_phi = A phi B - B phi A; structural
    map Delta A = (A phi, phi A); action L_{(F,f)} A = F A - A f.
    Returns the crossed module plus the chosen basis of gl(phi)_0;
    gl_phi(v).h_basis has entries (F, f) as a pair of matrices.
    """
    dw, dv = v.dim_w, v.dim_v
    phi = v.phi
    # solve phi F - f phi = 0 for (F, f) in gl(W) (+) gl(V)
    unknowns = dw * dw + dv * dv
    rows = []
    for i in range(dv):
        for j in range(dw):
            row = [Q0] * unknowns
            # (phi F)_{ij} = sum_k phi_{ik} F_{kj}
            for k in range(dw):
                row[k * dw + j] += phi.data[i][k]
            # (f phi)_{ij} = sum_k f_{ik} phi_{kj}
            for k in range(dv):
                row[dw * dw + i * dv + k] -= phi.data[k][j]
            rows.append(row)
    cond = Matrix(len(rows), unknowns, rows) if rows else Matrix.zero(0, unknowns)
    _, kernel = rank_and_kernel(cond)
    kernel = [_primitive(vec) for vec in kernel]
    h_basis = []
    for vec in kernel:
        f_mat = Matrix(dw, dw, [[vec[i * dw + j] for j in range(dw)]
                                for i in range(dw)])
        s_mat = Matrix(dv, dv, [[vec[dw * dw + i * dv + j] for j in range(dv)]
                                for i in range(dv)])
        h_basis.append((f_mat, s_mat))
    dh = len(h_basis)
    from .numeric import LinearSolver
    solver = LinearSolver(vectors_matrix(kernel, dim=unknowns))

    def h_coords(f_mat, s_mat):
        flat = ([f_mat.data[i][j] for i in range(dw) for j in range(dw)] +
                [s_mat.data[i][j] for i in range(dv) for j in range(dv)])
        sol = solver.solve(flat)
        assert sol is not None, "pair does not satisfy phi F = f phi"
        return sol

    h_brackets = {}
    for a in range(dh):
        fa, sa = h_basis[a]
        for b in range(a + 1, dh):
            fb, sb = h_basis[b]
            vec = h_coords(fa * fb - fb * fa, sa * sb - sb * sa)
            if any(c != 0 for c in vec):
                h_brackets[(a, b)] = vec
    h = LieAlgebra(dh, h_brackets)

    # arrow algebra on Hom(V, W): basis E_{ij} (row i of W, col j of V),
    # flattened index i*dv + j
    dg = dw * dv

    def to_mat(vec):
        return Matrix(dw, dv, [[vec[i * dv + j] for j in range(dv)]
                               for i in range(dw)])

    def to_vec(m):
        return [m.data[i][j] for i in range(dw) for j in range(dv)]

    g_brackets = {}
    for a in range(dg):
        ma = to_mat(_unit(dg, a))
        for b in range(a + 1, dg):
            mb = to_mat(_unit(dg, b))
            vec = to_vec(ma * phi * mb - mb * phi * ma)
            if any(c != 0 for c in vec):
                g_brackets[(a, b)] = vec
    g = LieAlgebra(dg, g_brackets)

    mu_cols = []
    for a in range(dg):
        ma = to_mat(_unit(dg, a))
        mu_cols.append(h_coords(ma * phi, phi * ma))
    mu = Matrix(dh, dg, [[mu_cols[j][i] for j in range(dg)]
                         for i in range(dh)])

    mats = []
    for b in range(dh):
        fb, sb = h_basis[b]
        cols = [to_vec(fb * to_mat(_unit(dg, a)) - to_mat(_unit(dg, a)) * sb)
                for a in range(dg)]
        mats.append(Matrix(dg, dg, [[cols[j][i] for j in range(dg)]
                                    for i in range(dg)]))
    action = Representation(h, dg, mats)
    x = CrossedModuleAlg(g, h, mu, action)
    x.h_basis = h_basis
    x.two_vector = v
    return x
