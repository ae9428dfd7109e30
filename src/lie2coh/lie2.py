"""Crossed modules of Lie algebras, their nerves, and the linear Lie
2-algebra gl(phi) of a 2-term complex of vector spaces."""

from fractions import Fraction

from .numeric import (LinearSolver, Matrix, SparseMatrix, Q0, Q1,
                      rank_and_kernel, solve_linear, vectors_matrix, in_span,
                      _demote)
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
                acc = apply_into({}, lb, x.g.structure.get((i, j), ()))
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
    return nerve_algebra(x, 1)


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
    # I is spanned by unit vectors, so a vector lies in I exactly when it
    # is zero off ideal_indices, and its coordinates are its entries there
    pos = {i: k for k, i in enumerate(ideal_indices)}
    coords = {}          # (b, k) -> [e_b, e_{ideal_indices[k]}] on I
    for b in range(h.dim):
        for k, i in enumerate(ideal_indices):
            w = h.bracket_into([(b, 1)], [(i, 1)], {})
            if any(c for t, c in w.items() if t not in pos):
                raise ValueError("selected span is not an ideal: [e%d, e%d]"
                                 % (b, i))
            coords[b, k] = [(v_dim + pos[t], _demote(c))
                            for t, c in sorted(w.items()) if c]
    for i in ideal_indices:
        if any(x != 0 for row in rho.mats[i].data for x in row):
            raise ValueError("rho does not descend to h/I: nonzero on e%d" % i)

    dg = v_dim + len(ideal_indices)
    # bracket on g = V (+) I: V abelian central, I keeps the h-bracket
    structure = {}
    for a, ia in enumerate(ideal_indices):
        for b in range(a + 1, len(ideal_indices)):
            if coords[ia, b]:
                structure[(v_dim + a, v_dim + b)] = coords[ia, b]
    g = LieAlgebra._of(dg, structure)

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
        for k in range(len(ideal_indices)):
            for t, c in coords[b, k]:
                m.data[t][v_dim + k] = c
        mats.append(m)
    action = Representation(h, dg, mats)
    x = CrossedModuleAlg(g, h, mu, action)
    assert not validate_crossed_module(x), "quadruple produced invalid data"
    return x


def structure_report(x):
    """Orbit ideal mu(g), central isotropy ker mu, and the induced
    representation of h (descending to h/mu(g)) on ker mu."""
    mu_cols = [x.mu.col(j) for j in range(x.g.dim)]
    # the pivot columns of mu are the ones independent of those before them
    orbit_basis = [mu_cols[c] for c in LinearSolver(x.mu).pivots]
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
        induced.append(vectors_matrix(cols, dim=len(kernel_basis)))
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


# ---------------------------------------------------------------------------
# Nerve algebras g_p and the simplicial maps between them.
# ---------------------------------------------------------------------------

def nerve_algebra(x, p):
    """The nerve algebra g_p = composable p-tuples of arrows, identified
    with g^p (+) h, as a LieAlgebra; its brackets come from the structure
    constants.

    Basis order: x^0-block, ..., x^{p-1}-block, then the y-block.  The
    j-th arrow of (x^0..x^{p-1}; y) is (x^j, y + sum_{k>j} mu(x^k)), and
    the bracket is componentwise in the arrow algebra g (+)_L h.

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

    structure = {}
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
                structure[(i, j)] = sorted(vec.items())
    return LieAlgebra._of(d, structure)


def face_columns(dg, dh, p, k, mu):
    """The k-th face g_{p+1} -> g_p, 0 <= k <= p+1, as sparse columns, for
    dim g = dg and dim h = dh (mu may be None below the last face).

    g-slot s of the source goes to slot s below the face (s < k) and to
    slot s - 1 from the face on, so slots k - 1 and k meet and the face 0
    drops slot 0; the h-slot is copied, and the last face sends g-slot p
    into it by the matrix mu, which no other face reads."""
    assert 0 <= k <= p + 1
    mu = sparse_columns(mu) if k == p + 1 else None
    cols = []
    for s in range(p + 1):
        for a in range(dg):
            if s >= k:
                cols.append([((s - 1) * dg + a, 1)] if s else [])
            elif s < p:
                cols.append([(s * dg + a, 1)])
            else:
                cols.append([(p * dg + b, c) for b, c in mu[a]])
    return cols + [[(p * dg + b, 1)] for b in range(dh)]


def face_matrix(x, p, k):
    """The k-th face g_{p+1} -> g_p, 0 <= k <= p+1, as a matrix."""
    cols = face_columns(x.g.dim, x.h.dim, p, k, x.mu)
    m = Matrix.zero(p * x.g.dim + x.h.dim, len(cols))
    for c, col in enumerate(cols):
        for r, v in col:
            m.data[r][c] = v
    return m


def final_target_matrix(x, p):
    """t_p: g_p -> h, (x^0..x^{p-1}; y) -> y + sum_j mu(x^j)."""
    m = Matrix.identity(x.h.dim)
    for _ in range(p):
        m = x.mu.hstack(m)
    return m


# ---------------------------------------------------------------------------
# The linear Lie 2-algebra gl(phi).
# ---------------------------------------------------------------------------

def gl_phi(v):
    """gl(phi)_1 = Hom(V, W) -> gl(phi)_0 = {(F, f): phi F = f phi}.

    Bracket on the arrow part: [A, B]_phi = A phi B - B phi A; structural
    map Delta A = (A phi, phi A); action L_{(F,f)} A = F A - A f.
    Returns the crossed module plus the chosen basis of gl(phi)_0;
    gl_phi(v).h_basis has entries (F, f) as a pair of matrices.

    Everything is read from index formulas, with no matrix product and no
    solver.  g has the elementary basis E_ij (row i of W, column j of V),
    flat index i*dim V + j, with
        [E_ij, E_kl]_phi = phi_jk E_il - phi_li E_kj,
        Delta E_ij = (E_ij phi, phi E_ij)
    (row j of phi placed in row i, column i of phi placed in column j) and
        L_(F,f) E_ij = sum_r F_ri E_rj - sum_c f_jc E_ic.
    The basis of h is the RREF kernel of the equations phi F = f phi in the
    flat unknowns (F by rows, then f by rows), each vector scaled to a
    primitive integer vector.  A kernel vector K_k is the only one nonzero
    at its own free column free_k, so a pair w satisfying the equations
    has coordinate w[free_k] / K_k[free_k] on it; Delta and the h-brackets
    (commutators of the pairs) are read that way, after an exact check of
    the equations on w.
    """
    dw, dv = v.dim_w, v.dim_v
    phi = [[_demote(x) for x in row] for row in v.phi.data]
    nf = dw * dw                       # F is flat 0..nf-1, f follows
    unknowns = nf + dv * dv
    # (phi F - f phi)_ij = sum_k phi_ik F_kj - sum_k f_ik phi_kj, each
    # row scaled to integers (the row space, so the RREF, is unchanged)
    cond = []
    cond_cols = [[] for _ in range(unknowns)]
    for i in range(dv):
        for j in range(dw):
            row = {k * dw + j: phi[i][k] for k in range(dw) if phi[i][k]}
            row.update((nf + i * dv + k, -phi[k][j])
                       for k in range(dv) if phi[k][j])
            row = dict(zip(row, _primitive(row.values())))
            for c, x in row.items():
                cond_cols[c].append((len(cond), x))
            cond.append(row)
    _, kernel = rank_and_kernel(SparseMatrix(len(cond), unknowns, cond))
    kernel = [_primitive(vec) for vec in kernel]
    # the rest of a kernel vector sits at pivot columns left of its free
    # column, so the free column is its last nonzero entry
    free = [max(c for c, x in enumerate(vec) if x) for vec in kernel]
    h_basis = [(Matrix(dw, dw, [vec[i * dw:(i + 1) * dw] for i in range(dw)]),
                Matrix(dv, dv, [vec[nf + i * dv:nf + (i + 1) * dv]
                                for i in range(dv)]))
               for vec in kernel]
    dh = len(kernel)

    def h_coords(w):
        defect = {}
        for c, y in enumerate(w):
            if y:
                for r, x in cond_cols[c]:
                    defect[r] = defect.get(r, 0) + x * y
        assert not any(defect.values()), "pair does not satisfy phi F = f phi"
        return [_quotient(w[c], vec[c]) for c, vec in zip(free, kernel)]

    # each pair (F, f) as the sparse rows of F and of f
    pairs = [[[{j: vec[base + i * n + j] for j in range(n)
                if vec[base + i * n + j]} for i in range(n)]
              for base, n in ((0, dw), (nf, dv))]
             for vec in kernel]
    h_structure = {}
    for a in range(dh):
        for b in range(a + 1, dh):
            w = [0] * unknowns
            for base, n, x, y in zip((0, nf), (dw, dv), pairs[a], pairs[b]):
                for i in range(n):
                    for k, p in x[i].items():
                        for j, q in y[k].items():
                            w[base + i * n + j] += p * q
                    for k, p in y[i].items():
                        for j, q in x[k].items():
                            w[base + i * n + j] -= p * q
            vec = [(c, y) for c, y in enumerate(h_coords(w)) if y]
            if vec:
                h_structure[(a, b)] = vec
    h = LieAlgebra._of(dh, h_structure)

    dg = dw * dv
    g_structure = {}
    for a in range(dg):
        i, j = divmod(a, dv)
        for b in range(a + 1, dg):
            k, l = divmod(b, dv)
            p, q = phi[j][k], phi[l][i]
            if p or q:
                g_structure[(a, b)] = sorted(
                    t for t in ((i * dv + l, p), (k * dv + j, -q)) if t[1])
    g = LieAlgebra._of(dg, g_structure)

    mu_cols = []
    for i in range(dw):
        for j in range(dv):
            w = [0] * unknowns
            w[i * dw:(i + 1) * dw] = phi[j]
            for r in range(dv):
                w[nf + r * dv + j] = phi[r][i]
            mu_cols.append(h_coords(w))
    mu = Matrix._of(dh, dg, [[col[k] for col in mu_cols] for k in range(dh)])

    mats = []
    for vec in kernel:
        m = [[0] * dg for _ in range(dg)]
        for i in range(dw):
            for j in range(dv):
                a = i * dv + j
                for r in range(dw):
                    m[r * dv + j][a] += vec[r * dw + i]
                for c in range(dv):
                    m[i * dv + c][a] -= vec[nf + j * dv + c]
        mats.append(Matrix._of(dg, dg, m))
    action = Representation(h, dg, mats)
    x = CrossedModuleAlg(g, h, mu, action)
    x.h_basis = h_basis
    x.two_vector = v
    return x


def _quotient(a, b):
    """a / b for a nonzero int b, exactly, integral quotients as ints."""
    if type(a) is int and not a % b:
        return a // b
    return _demote(Fraction(a, b))
