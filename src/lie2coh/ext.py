"""The H^2 <-> extension dictionary: 2-cocycles, the extension they build,
cocycle extraction from a splitting, cohomologousness, and the
trivial-coefficient central-extension construction."""

from .numeric import (LinearSolver, Matrix, SparseMatrix, Q0, cohomology,
                      rank, rank_and_kernel, solve_linear, vectors_matrix,
                      increasing_tuples, _add_multiple, _nonzero)
from .liealg import Representation, _unit
from .lie2 import TwoVectorSpace, validate_crossed_module
from .tworep import TwoRep, twisted_semidirect
from .lattice import LatticeContext, LatticeCochain, trivial_context, unit_rep

# names of the cocycle equations, keyed by the lattice block where each
# component of nabla(omega0, alpha, phimap, omega1, 0, 0) must vanish
_EQUATION_OF_BLOCK = {
    (0, 3, 0): "i",     # delta omega0 = 0
    (0, 0, 3): "iii",   # omega1 is a cocycle for rho0^1 o mu
    (1, 2, 0): "iv",    # epsilon is a homomorphism / equivariant
    (0, 2, 1): "v",     # the action formula is an action
    (0, 1, 2): "vi",    # the action acts by derivations
    (2, 1, 0): "phi_h_independent",
    (1, 1, 1): "omega1_definition",
}


class TwoCocycle:
    """A triple (omega0, alpha, phimap) of lattice cochains at the indices
    (0,2,0), (0,1,1) and (1,1,0); phimap depends only on the g-slot.

    omega1 is derived: omega1(x0, x1) = rho1(x1) phi(x0) + alpha(mu x0; x1).
    It, (ii) and the total vector are read off the slice through _slice_map.
    """

    def __init__(self, ctx, omega0, alpha, phi_g):
        self.ctx = ctx
        self.omega0 = LatticeCochain(ctx, 0, 2, 0, omega0)
        self.alpha = LatticeCochain(ctx, 0, 1, 1, alpha)
        assert phi_g.rows == ctx.dv and phi_g.cols == ctx.dg
        self.phi_g = phi_g
        self.slice = (self.omega0.values + self.alpha.values
                      + [x for row in phi_g.data for x in row])

    def omega1_values(self):
        """The derived omega1 on increasing pairs, as a (0,0,2) cochain."""
        return self.ctx.split(2, self.total_vector()).get((0, 0, 2), [])

    def omega1_antisymmetry(self):
        """Equation (ii): the defect omega1(e_a, e_b) + omega1(e_b, e_a)
        of the derived omega1 at each increasing pair (a, b), in order."""
        return _by_pair(self.ctx, _slice_map(self.ctx)[1].apply(self.slice))

    def total_vector(self):
        """Embedding into C^2_tot with the v and lambda coordinates zero."""
        return _slice_map(self.ctx)[0].apply(self.slice)

    def validate(self):
        """Violated cocycle equations, named after the proposition."""
        ctx = self.ctx
        values = _slice_conditions(ctx).apply(self.slice)
        n = ctx.total_dim(3)
        return ([("ii", pair) for pair, defect in _by_pair(ctx, values[n:])
                 if any(defect)]
                + [(_EQUATION_OF_BLOCK.get(block, str(block)), block)
                   for block, piece in ctx.split(3, values[:n]).items()
                   if any(piece)])

    def values_triple(self):
        return (list(self.omega0.values), list(self.alpha.values),
                [row[:] for row in self.phi_g.data])

    def __eq__(self, other):
        return (isinstance(other, TwoCocycle)
                and self.values_triple() == other.values_triple())


def zero_cocycle(ctx):
    return TwoCocycle(ctx,
                      [Q0] * ctx.cochain_dim(0, 2, 0),
                      [Q0] * ctx.cochain_dim(0, 1, 1),
                      Matrix.zero(ctx.dv, ctx.dg))


def contexts_match(a, b):
    """Structural equality of two lattice contexts (same crossed module
    data and the same 2-representation matrices)."""
    return a is b or _same_two_rep(a.rep, b.rep)


def _same_two_rep(a, b):
    """Equal crossed module data and equal 2-representation matrices."""
    xa, xb = a.source, b.source
    return ((xa is xb or xa == xb)
            and a.target.phi == b.target.phi
            and a.rho1 == b.rho1
            and a.rho0_w.mats == b.rho0_w.mats
            and a.rho0_v.mats == b.rho0_v.mats)


class ExtensionResult:
    """An extension of the base crossed module by the 2-vector space,
    with the inclusion/projection data of both exact rows."""

    def __init__(self, total, include_w, include_v, project_g, project_h,
                 omega1, ctx=None):
        self.total = total
        self.include_w = include_w
        self.include_v = include_v
        self.project_g = project_g
        self.project_h = project_h
        self.omega1 = omega1
        self.ctx = ctx      # the lattice context of the cocycle, if known

    def rows_exact(self):
        """include injective, project surjective, ker(project) = im(include)."""
        return all(rank(inc) == inc.cols and rank(proj) == proj.rows
                   and (proj * inc).is_zero() and cohomology(inc, proj)[0] == 0
                   for inc, proj in ((self.include_w, self.project_g),
                                     (self.include_v, self.project_h)))


def extension_from_cocycle(c):
    """Build the extension crossed module defined by a valid 2-cocycle.

    e_1 = g (+) W and e_0 = h (+) V with the omega1- and omega0-twisted
    semidirect brackets, epsilon(x, w) = (mu x, phi w + phimap x), and
    action L_{(y,v)}(x,w) = (L_y x, rho0^1(y) w - rho1(x) v - alpha(y;x)).
    """
    bad = c.validate()
    if bad:
        raise ValueError("invalid 2-cocycle, violated equations: %s" % (bad,))
    ctx = c.ctx
    dg, dh, dw, dv = ctx.dg, ctx.dh, ctx.dw, ctx.dv
    omega1 = c.omega1_values()
    total = twisted_semidirect(ctx.x, ctx.rep, c.omega0.values, omega1,
                               c.alpha.values, c.phi_g)
    assert not validate_crossed_module(total), \
        "cocycle data failed to assemble into a crossed module"
    return ExtensionResult(
        total, Matrix.zero(dg, dw).vstack(Matrix.identity(dw)),
        Matrix.zero(dh, dv).vstack(Matrix.identity(dv)),
        Matrix.identity(dg).hstack(Matrix.zero(dg, dw)),
        Matrix.identity(dh).hstack(Matrix.zero(dh, dv)), omega1, ctx=ctx)


def canonical_splitting(e):
    """The block splittings z -> (z, 0) of a constructed extension, as
    new matrices (sigma0, sigma1)."""
    return e.project_h.transpose(), e.project_g.transpose()


def cocycle_from_extension(e, sigma0, sigma1, base_x=None):
    """Extract (TwoRep, TwoCocycle) from an extension and linear sections.

    sigma0: h -> e_0 and sigma1: g -> e_1 must satisfy project o sigma = id.
    Each map is read off as the coordinates (coords_W, coords_V) of a
    matrix of the extension along the inclusions j_W: W -> e_1 and
    j_V: V -> e_0, with L the action and eps the map e_1 -> e_0:
    rho0^1(e_b) = coords_W(L_{sigma0 e_b} j_W), rho0^0(e_b) v =
    [sigma0 e_b, v], rho1(x) v = -L_v sigma1(x), phi = coords_V(eps j_W);
    omega0(y0,y1) = sigma0[y0,y1] - [sigma0 y0, sigma0 y1],
    alpha(e_b; .) = coords_W(sigma1 L_b - L_{sigma0 e_b} sigma1) and
    phimap = coords_V(eps sigma1 - sigma0 mu) on g.
    """
    total, j1, j0 = e.total, e.include_w, e.include_v
    dg, dh, dw, dv = e.project_g.rows, e.project_h.rows, j1.cols, j0.cols
    assert (e.project_h * sigma0 - Matrix.identity(dh)).is_zero(), \
        "sigma0 not a section"
    assert (e.project_g * sigma1 - Matrix.identity(dg)).is_zero(), \
        "sigma1 not a section"

    # coords(j)(m) is the matrix c with j c = m; j is factored once
    def coords(inclusion, name):
        solver = LinearSolver(inclusion)

        def solve(m):
            cols = [solver.solve(m.col(k)) for k in range(m.cols)]
            assert None not in cols, "value not in %s" % name
            return vectors_matrix(cols, dim=inclusion.cols)
        return solve

    w_coords, v_coords = coords(j1, "W"), coords(j0, "V")

    x = e.ctx.x if base_x is None and e.ctx is not None else base_x
    assert x is not None, "extension carries no base crossed module"

    acts = [total.action.act(sigma0.col(b)) for b in range(dh)]
    rho0_w_mats = [w_coords(act * j1) for act in acts]
    rho0_v_mats = [v_coords(vectors_matrix(
        [total.h.bracket(sigma0.col(b), j0.col(a)) for a in range(dv)],
        dim=total.h.dim)) for b in range(dh)]
    act_v = [total.action.act(j0.col(b)) for b in range(dv)]
    rho1_mats = [w_coords(vectors_matrix(
        [[-t for t in act.apply(sigma1.col(a))] for act in act_v],
        dim=total.g.dim)) for a in range(dg)]
    phi = v_coords(total.mu * j1)
    rep = TwoRep(x, TwoVectorSpace(dw, dv, phi), rho1_mats,
                 Representation(x.h, dw, rho0_w_mats),
                 Representation(x.h, dv, rho0_v_mats))
    # the cocycle's own context when the splitting induces its
    # 2-representation again (its nabla_2 is built already); otherwise a
    # new one, which validates the extracted 2-representation
    ctx = e.ctx
    if ctx is None or not _same_two_rep(ctx.rep, rep):
        ctx = LatticeContext(x, rep)

    om0 = [[p - q for p, q in zip(
        sigma0.apply(x.h.bracket(_unit(dh, a), _unit(dh, b))),
        total.h.bracket(sigma0.col(a), sigma0.col(b)))]
        for a, b in increasing_tuples(dh, 2)]
    om0 = ctx.block_values((0, 2, 0), v_coords(
        vectors_matrix(om0, dim=total.h.dim)))
    # alpha(e_b; e_a) at the basis pairs of (0,1,1), b-major
    alpha = Matrix.zero(dw, 0)
    for b, act in enumerate(acts):
        alpha = alpha.hstack(w_coords(sigma1 * x.action.mats[b]
                                      - act * sigma1))
    alpha_vals = ctx.block_values((0, 1, 1), alpha)
    phi_g = v_coords(total.mu * sigma1 - sigma0 * x.mu)
    coc = TwoCocycle(ctx, om0, alpha_vals, phi_g)
    bad = coc.validate()
    assert not bad, "extracted cocycle failed validation: %s" % (bad,)
    return rep, coc


def coboundary_solve(c1, c2):
    """Solve c2 - c1 = nabla(lambda0, lambda1) exactly.

    Returns (lambda0: h -> V, lambda1: g -> W) matrices, or None when the
    linear system is infeasible (the cocycles are not cohomologous).
    """
    assert contexts_match(c1.ctx, c2.ctx), "context mismatch"
    ctx = c1.ctx
    diff = [b - a for a, b in zip(c1.total_vector(), c2.total_vector())]
    sol = solve_linear(ctx.nabla(1), diff)
    if sol is None:
        return None
    parts = ctx.split(1, sol)
    return tuple(ctx.block_matrix(b, parts.get(b, []))
                 for b in ((0, 1, 0), (0, 0, 1)))


def cocycle_from_slice(ctx, u):
    """Build a TwoCocycle from flat slice coordinates (omega0 | alpha |
    phimap-by-rows); no validation."""
    n0 = ctx.cochain_dim(0, 2, 0)
    n1 = ctx.cochain_dim(0, 1, 1)
    return TwoCocycle(
        ctx, u[:n0], u[n0:n0 + n1],
        Matrix(ctx.dv, ctx.dg,
               [[u[n0 + n1 + i * ctx.dg + j] for j in range(ctx.dg)]
                for i in range(ctx.dv)]))


def _slice_map(ctx):
    """(embed, antisymmetry, positions) on the slice coordinates (omega0 |
    alpha | phi_g by rows) of cocycle_from_slice, built once per context
    (the cocycle basis, the class count and every TwoCocycle read it).  embed:
    slice -> C^2_tot maps coordinate k to positions[k] and gives omega1(e_a,
    e_b) = rho1(e_b) phi_g(e_a) + alpha(mu e_a; e_b) at (0,0,2);
    antisymmetry gives the equation (ii) defect omega1(e_a, e_b) +
    omega1(e_b, e_a), dw rows per increasing pair (a, b)."""
    return ctx._factor(("slice_map",), lambda: _build_slice_map(ctx))


def _build_slice_map(ctx):
    dg, dv = ctx.dg, ctx.dv
    at = ctx.split(2, list(range(ctx.total_dim(2))))
    phi_at = ctx.block_matrix((1, 1, 0), at.get((1, 1, 0), []), dg)
    positions = (at.get((0, 2, 0), []) + at.get((0, 1, 1), [])
                 + [pos for row in phi_at.data for pos in row])
    n0 = ctx.cochain_dim(0, 2, 0)
    phi0 = n0 + ctx.cochain_dim(0, 1, 1)
    alpha_space = ctx.space(0, 1, 1)
    mu, rho1 = ctx.x.mu.data, [m.data for m in ctx.rep.rho1]

    def omega1(a, b):
        # the dw rows of omega1(e_a, e_b); phi_g and alpha keys are apart
        rows = []
        for i in range(ctx.dw):
            row = {phi0 + k * dg + a: rho1[b][i][k] for k in range(dv)}
            row.update((n0 + alpha_space.block((c,), (b,)) + i, mu[c][a])
                       for c in range(ctx.dh))
            rows.append(_nonzero(row))
        return rows

    embed = [{} for _ in range(ctx.total_dim(2))]
    for k, pos in enumerate(positions):
        embed[pos] = {k: 1}
    space, omega1_at = ctx.space(0, 0, 2), at.get((0, 0, 2), [])
    ii = []
    for a, b in space.g_tuples:
        start = space.block((), (a, b))
        for i, (row, other) in enumerate(zip(omega1(a, b), omega1(b, a))):
            embed[omega1_at[start + i]] = row
            _add_multiple(other, 1, row)
            ii.append(other)
    n = len(positions)
    return (SparseMatrix(len(embed), n, embed),
            SparseMatrix(len(ii), n, ii), positions)


def _by_pair(ctx, values):
    """Equation (ii) values, dw per increasing pair, as (pair, values)."""
    return [(pair, values[k * ctx.dw:(k + 1) * ctx.dw])
            for k, pair in enumerate(increasing_tuples(ctx.dg, 2))]


def _slice_conditions(ctx):
    """The slice conditions, built once per context: nabla_2 embed over the
    (ii) rows."""
    def build():
        embed, antisymmetry, _ = _slice_map(ctx)
        rows = (ctx.nabla(2) * embed).sparse + antisymmetry.sparse
        return SparseMatrix(len(rows), embed.cols, rows)
    return ctx._factor(("slice_conditions",), build)


def cocycle_space_basis(ctx):
    """Basis of the space of valid (omega0, alpha, phimap) triples, in the
    flat slice coordinates accepted by cocycle_from_slice."""
    _, kernel = rank_and_kernel(_slice_conditions(ctx))
    return kernel


def cocycle_slice_class_count(ctx):
    """dim of {valid (omega0, alpha, phimap) triples} modulo coboundaries,
    counted directly by linear algebra on the coordinate slice."""
    cond = _slice_conditions(ctx)
    z_dim = cond.cols - rank(cond)

    # the coboundaries in the slice: the rank of nabla_1 from the lambda0
    # and lambda1 blocks to the slice positions, in any order
    cols_at = ctx.split(1, list(range(ctx.total_dim(1))))
    lam = set(cols_at.get((0, 1, 0), []) + cols_at.get((0, 0, 1), []))
    nabla1 = ctx.nabla(1)
    rows = [{j: x for j, x in nabla1.sparse[i].items() if j in lam}
            for i in _slice_map(ctx)[2]]
    return z_dim - rank(SparseMatrix(len(rows), nabla1.cols, rows))


# ---------------------------------------------------------------------------
# Trivial coefficients: the mu_phi central extension.
# ---------------------------------------------------------------------------

def trivial_cocycle_defects(x, omega_vals, phi_vals):
    """The three cocycle conditions on (omega, phi) in Omega^2_tot(g_1):
    returns a dict of condition name -> defect vector (empty if holding).
    The unit lattice's C^2 is (0,2,0) + (1,1,0) + (2,0,0), and its nabla_2
    applies as it is with the vector zero on the q = 0 block."""
    ctx = trivial_context(x)
    assert len(omega_vals) == ctx.cochain_dim(0, 2, 0)
    assert len(phi_vals) == ctx.cochain_dim(1, 1, 0)
    out = ctx.split(3, ctx.nabla(2).apply(ctx.join(
        2, {(0, 2, 0): omega_vals, (1, 1, 0): phi_vals})))
    names = {(0, 3, 0): "delta_omega",
             (1, 2, 0): "partial_omega_plus_delta_phi",
             (2, 1, 0): "partial_phi"}
    return {names[b]: piece for b, piece in out.items()
            if any(c != 0 for c in piece)}


def trivial_coeff_extension(x, omega_vals, phi_vals):
    """The crossed module mu_phi: g -> h (+)^omega R for a trivial 2-cocycle:
    the extension by the unit 2-representation (W = 0, V = Q).

    omega_vals: values of a 2-form on h on increasing basis pairs;
    phi_vals: a linear functional on g_1 = g (+) h (g-block first).
    """
    defects = trivial_cocycle_defects(x, omega_vals, phi_vals)
    if defects:
        raise ValueError("not a trivial-coefficient 2-cocycle: %s"
                         % sorted(defects))
    dg = x.g.dim
    out = twisted_semidirect(x, unit_rep(x), omega_vals, [], [],
                             Matrix(1, dg, [phi_vals[:dg]]))
    assert not validate_crossed_module(out), \
        "mu_phi construction failed validation"
    return out
