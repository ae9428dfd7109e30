"""The triple lattice: dimensions, component differentials, the calibrated
total differential, cohomology, and low-degree interpretations."""

import hashlib
import importlib.util
import os
import random
import sys
import types
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from lie2coh.numeric import (Matrix, SparseMatrix, Q0, Q1, rank,
                             rank_and_kernel, vectors_matrix, in_span)
from lie2coh.liealg import LieAlgebra, Representation, _unit, ce_differential
from lie2coh.lie2 import (CrossedModuleAlg, TwoVectorSpace, gl_phi,
                          face_matrix, final_target_matrix)
from lie2coh.tworep import TwoRep, adjoint_rep
from lie2coh.lattice import (LatticeContext, LatticeCochain, _delta_sign,
                             MAX_NABLA_CELLS,
                             trivial_total_complex, trivial_cohomology_dim)
from lie2coh.homalg import FinComplex
from lie2coh.cli import load_problem
from lie2coh.samples import rng_from_seed, random_context, \
    random_crossed_module


def unit_context():
    """All dims 1: g = h = Q, mu = 0, scalar action, adjoint target."""
    g = LieAlgebra.abelian(1)
    h = LieAlgebra.abelian(1)
    x = CrossedModuleAlg(g, h, Matrix.zero(1, 1),
                         Representation(h, 1, [Matrix(1, 1, [[1]])]))
    return LatticeContext(x, adjoint_rep(x))


def test_cochain_dims():
    ctx = unit_context()
    assert ctx.cochain_dim(1, 1, 0) == 2        # dim g_1 = 2, V = 1
    assert ctx.cochain_dim(0, 2, 0) == 0        # Lambda^2 of a line
    assert ctx.cochain_dim(0, 0, 0) == 1        # V itself
    for (p, q, r) in ((0, 1, 1), (1, 2, 0), (2, 1, 1)):
        coeff = ctx.dv if r == 0 else ctx.dw
        assert ctx.cochain_dim(p, q, r) == \
            comb(ctx.gp_dim(p), q) * comb(ctx.dg, r) * coeff


def test_partial_zero_for_trivial_g():
    h = LieAlgebra.abelian(1)
    x = CrossedModuleAlg(LieAlgebra.abelian(0), h, Matrix.zero(1, 0),
                         Representation.trivial(h, 0))
    r = TwoRep.trivial(x, TwoVectorSpace(0, 1, Matrix.zero(1, 0)))
    ctx = LatticeContext(x, r)
    for q in range(2):
        assert ctx.component_matrix("partial", 0, q, 0).is_zero()


def test_delta_one_seed_scalar():
    ctx = unit_context()
    # rho1(e) = -1 for the adjoint of the scalar-action module
    m = ctx.component_matrix("delta1", 0, 0, 0)
    assert m.rows == 1 and m.cols == 1
    assert m.data[0][0] == ctx.rep.rho1[0].data[0][0]


def test_delta_k_boundary_composes_with_phi():
    ctx = unit_context()
    m = ctx.component_matrix("DeltaK", 0, 0, 1, 1)
    # (p,q,r) = (0,0,1) -> (1,1,0): on all-ones dims the map is the scalar
    # phi = mu = 0 here, so it must vanish
    assert m.is_zero()
    # against a context with nonzero phi: use gl(phi) style scalar phi = f
    g = LieAlgebra.abelian(1)
    h = LieAlgebra.abelian(1)
    x = CrossedModuleAlg(g, h, Matrix.zero(1, 1),
                         Representation.trivial(h, 1))
    t = TwoVectorSpace(1, 1, Matrix(1, 1, [[3]]))
    r = TwoRep(x, t, [Matrix.zero(1, 1)], Representation.trivial(h, 1),
               Representation.trivial(h, 1))
    ctx2 = LatticeContext(x, r)
    m = ctx2.component_matrix("DeltaK", 0, 0, 1, 1)
    space = ctx2.space(1, 1, 0)
    pos = space.block((0,), ())       # the g-coordinate of g_1
    col = [m.data[i][0] for i in range(m.rows)]
    assert col[pos] == 3
    assert sum(1 for c in col if c != 0) == 1


def test_nabla_degree_zero_blocks():
    ctx = unit_context()
    n0 = ctx.nabla(0)
    offs, _ = ctx.block_offsets(1)
    dR = ctx.component_matrix("deltaR", 0, 0, 0)
    d1 = ctx.component_matrix("delta1", 0, 0, 0)
    dP = ctx.component_matrix("partial", 0, 0, 0)
    assert dP.is_zero()                      # partial v -> 0 at p = 0
    assert n0.data[offs[(0, 1, 0)]][0] == dR.data[0][0]
    assert n0.data[offs[(0, 0, 1)]][0] == d1.data[0][0]


def test_nabla_degree_one_table():
    """The six components of nabla on a 1-cochain carry the signs of the
    displayed degree-1 differential table."""
    rng = rng_from_seed(20)
    for _ in range(10):
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        offs1, dim1 = ctx.block_offsets(1)
        offs2, dim2 = ctx.block_offsets(2)
        n1 = ctx.nabla(1)

        def block_of(tgt, src):
            if tgt not in offs2 or src not in offs1:
                return None
            out = Matrix.zero(ctx.cochain_dim(*tgt), ctx.cochain_dim(*src))
            for i in range(out.rows):
                for j in range(out.cols):
                    out.data[i][j] = n1.data[offs2[tgt] + i][offs1[src] + j]
            return out

        checks = [
            ((0, 2, 0), (0, 1, 0), ctx.component_matrix("deltaR", 0, 1, 0), 1),
            ((1, 1, 0), (0, 1, 0), ctx.component_matrix("partial", 0, 1, 0), -1),
            ((0, 1, 1), (0, 1, 0), ctx.component_matrix("delta1", 0, 1, 0), -1),
            ((0, 1, 1), (0, 0, 1), ctx.component_matrix("deltaR", 0, 0, 1), 1),
            ((0, 0, 2), (0, 0, 1), ctx.component_matrix("delta1", 0, 0, 1), 1),
            ((1, 0, 1), (0, 0, 1), ctx.component_matrix("partial", 0, 0, 1), -1),
            ((1, 1, 0), (0, 0, 1), ctx.component_matrix("DeltaK", 0, 0, 1, 1), -1),
            ((1, 1, 0), (1, 0, 0), ctx.component_matrix("deltaR", 1, 0, 0), 1),
            ((2, 0, 0), (1, 0, 0), ctx.component_matrix("partial", 1, 0, 0), 1),
            ((1, 0, 1), (1, 0, 0), ctx.component_matrix("delta1", 1, 0, 0), 1),
        ]
        for tgt, src, mat, sign in checks:
            got = block_of(tgt, src)
            if got is None:
                continue
            assert got == mat.scale(sign), (tgt, src)


def test_partial_identity_on_q_zero():
    """partial on q = 0 cochains alternates between zero and the identity."""
    rng = rng_from_seed(21)
    x, rep = random_context(rng, 2)
    ctx = LatticeContext(x, rep)
    for p in range(3):
        for r in range(2):
            m = ctx.component_matrix("partial", p, 0, r)
            if p % 2 == 0:
                assert m.is_zero()
            else:
                assert m == Matrix.identity(m.rows)


def test_difference_sign_table_frozen():
    assert _delta_sign(1, 0, 1) == -1 and _delta_sign(1, 0, 2) == 1
    assert _delta_sign(1, 1, 1) == -1          # (-1)^r
    assert _delta_sign(2, 0, 2) == -1          # (-1)^(q+r+1)
    assert _delta_sign(2, 1, 2) == 1
    assert _delta_sign(3, 0, 3) == 1           # (-1)^(r+1)
    assert _delta_sign(3, 0, 4) == -1
    assert _delta_sign(4, 0, 4) == 1           # (-1)^(q+r)
    assert _delta_sign(4, 1, 4) == -1


def test_nabla_squared_unit_smoke():
    ctx = unit_context()
    for n in range(4):
        assert ctx.nabla_squared_blocks(n) == []


def test_nabla_squared_random_contexts():
    rng = rng_from_seed(22)
    for _ in range(30):
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        for n in range(4):
            assert ctx.nabla_squared_blocks(n) == [], \
                (n, ctx.dg, ctx.dh, ctx.dw, ctx.dv)


def dim3_adjoint_context(seed=3):
    rng = rng_from_seed(seed)
    while True:
        x = random_crossed_module(rng, 3)
        if x.g.dim == 3 and x.h.dim == 3:
            return LatticeContext(x, adjoint_rep(x))


def test_difference_map_composition_identities():
    """sum_{i=0..k} Delta_{k-i} Delta_i = 0 (Delta_0 = partial) for k <= 2,
    as exact matrices, at indices with r >= k."""
    ctx = dim3_adjoint_context()
    for (p, q, r) in ((0, 0, 1), (0, 1, 1), (1, 0, 1), (0, 0, 2),
                      (0, 1, 2), (1, 0, 2)):
        if ctx.cochain_dim(p, q, r) == 0:
            continue
        # k = 1: Delta_1 partial + partial Delta_1 = 0
        lhs = (ctx.component_matrix("DeltaK", p + 1, q, r, 1)
               * ctx.component_matrix("partial", p, q, r)
               + ctx.component_matrix("partial", p + 1, q + 1, r - 1)
               * ctx.component_matrix("DeltaK", p, q, r, 1))
        assert lhs.is_zero(), ("k=1", p, q, r)
        if r >= 2:
            # k = 2: Delta_2 partial + Delta_1 Delta_1 + partial Delta_2 = 0
            lhs = (ctx.component_matrix("DeltaK", p + 1, q, r, 2)
                   * ctx.component_matrix("partial", p, q, r)
                   + ctx.component_matrix("DeltaK", p + 1, q + 1, r - 1, 1)
                   * ctx.component_matrix("DeltaK", p, q, r, 1)
                   + ctx.component_matrix("partial", p + 1, q + 2, r - 2)
                   * ctx.component_matrix("DeltaK", p, q, r, 2))
            assert lhs.is_zero(), ("k=2", p, q, r)


def test_startop_relation_matrices():
    """delta^(r) partial - partial delta^(r) = delta_(1) Delta + Delta
    delta_(1) at r = 2, as exact matrices."""
    ctx = dim3_adjoint_context()
    for (p, q) in ((0, 0), (0, 1), (1, 0)):
        r = 2
        if ctx.cochain_dim(p, q, r) == 0:
            continue
        lhs = (ctx.component_matrix("deltaR", p + 1, q, r)
               * ctx.component_matrix("partial", p, q, r)
               - ctx.component_matrix("partial", p, q + 1, r)
               * ctx.component_matrix("deltaR", p, q, r))
        rhs = (ctx.component_matrix("delta1", p + 1, q + 1, r - 1)
               * ctx.component_matrix("DeltaK", p, q, r, 1)
               + ctx.component_matrix("DeltaK", p, q, r + 1, 1)
               * ctx.component_matrix("delta1", p, q, r))
        assert (lhs - rhs).is_zero(), (p, q)


def test_total_cohomology_examples():
    # trivial rho on V = Q^2, g = h = 0-ish: H^0 = 2
    h = LieAlgebra.abelian(1)
    x = CrossedModuleAlg(LieAlgebra.abelian(0), h, Matrix.zero(1, 0),
                         Representation.trivial(h, 0))
    r = TwoRep.trivial(x, TwoVectorSpace(0, 2, Matrix.zero(2, 0)))
    ctx = LatticeContext(x, r)
    assert ctx.total_cohomology(0)[0] == 2
    assert ctx.h0_invariants() == 2
    # g = 0, h = Q with rho0^0(e) = 1 on V = Q: H^0 = 0
    rho = Representation(h, 1, [Matrix(1, 1, [[1]])])
    r2 = TwoRep(x, TwoVectorSpace(0, 1, Matrix.zero(1, 0)), [],
                Representation.trivial(h, 0), rho)
    ctx2 = LatticeContext(x, r2)
    assert ctx2.total_cohomology(0)[0] == 0
    assert ctx2.h0_invariants() == 0
    # g = 0, h = Q, trivial rho on V = Q: H^1 = 1 (Der = Q, Inn = 0)
    r3 = TwoRep.trivial(x, TwoVectorSpace(0, 1, Matrix.zero(1, 0)))
    ctx3 = LatticeContext(x, r3)
    assert ctx3.total_cohomology(1)[0] == 1
    assert ctx3.h1_der_inn() == (1, 0, 1)


def test_low_degree_interpretations_random():
    rng = rng_from_seed(23)
    for _ in range(25):
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        assert ctx.h0_invariants() == ctx.total_cohomology(0)[0]
        der, inn, out = ctx.h1_der_inn()
        assert out == ctx.total_cohomology(1)[0]
        assert der >= inn >= 0


# (dim H^0, dim Der, dim Inn, dim Out), taken when Der and Inn were still
# ranked from derivation and inner rows written out by hand
LOW_DEGREE = {
    "bench/problems/adjoint_aff1.json": (0, 4, 2, 2),
    "bench/problems/glphi_proj_adjoint.json": (1, 3, 2, 1),
    "bench/problems/glphi_zero_adjoint.json": (1, 6, 4, 2),
    "bench/problems/heisenberg_g0_adjoint.json": (1, 6, 2, 4),
    "tests/fixtures/adjoint_aff1.json": (0, 4, 2, 2),
    "tests/fixtures/central_h2.json": (1, 2, 0, 2),
}
# the same for 40 random_context draws from seed 37, max_dim 3 at every
# fourth draw and 2 otherwise
LOW_DEGREE_RANDOM = [
    (1, 1, 0, 1), (0, 1, 1, 0), (2, 0, 0, 0), (1, 1, 0, 1), (0, 0, 0, 0),
    (1, 1, 0, 1), (1, 1, 0, 1), (0, 1, 0, 1), (0, 0, 0, 0), (1, 2, 0, 2),
    (1, 3, 1, 2), (0, 4, 0, 4), (1, 1, 0, 1), (0, 0, 0, 0), (1, 0, 0, 0),
    (1, 0, 0, 0), (2, 2, 0, 2), (2, 0, 0, 0), (0, 2, 1, 1), (0, 0, 0, 0),
    (0, 4, 0, 4), (0, 1, 0, 1), (0, 2, 0, 2), (2, 5, 0, 5), (1, 2, 1, 1),
    (0, 1, 0, 1), (0, 0, 0, 0), (1, 2, 0, 2), (1, 3, 1, 2), (0, 2, 1, 1),
    (0, 2, 0, 2), (3, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 0, 0),
    (1, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0), (2, 4, 0, 4), (0, 0, 0, 0),
]


def test_low_degree_interpretations_pinned():
    for name, expected in sorted(LOW_DEGREE.items()):
        ctx = load_problem(os.path.join(ROOT, name)).context()
        assert (ctx.h0_invariants(),) + ctx.h1_der_inn() == expected, name
    rng = rng_from_seed(37)
    got = [LatticeContext(*random_context(rng, 3 if k % 4 == 3 else 2))
           for k in range(len(LOW_DEGREE_RANDOM))]
    assert [(ctx.h0_invariants(),) + ctx.h1_der_inn() for ctx in got] == \
        LOW_DEGREE_RANDOM


def test_interpretations_reuse_the_context(monkeypatch):
    """Once a context exists and its g_1 is built, H^0 and Der/Inn neither
    validate anything again nor rebuild a nerve algebra."""
    from lie2coh import ext, lattice, lie2, liealg, numeric, tworep
    contexts = [load_problem(os.path.join(ROOT, name)).context()
                for name in sorted(LOW_DEGREE)]
    for ctx in contexts:
        ctx.nerve(1)

    def refuse(*args, **kwargs):
        raise AssertionError("called again")

    for mod in (numeric, liealg, lie2, tworep, lattice, ext):
        for name in dir(mod):
            if name.startswith("validate_") or name == "nerve_algebra":
                monkeypatch.setattr(mod, name, refuse)
    assert [(ctx.h0_invariants(),) + ctx.h1_der_inn()
            for ctx in contexts] == [v for _, v in sorted(LOW_DEGREE.items())]


def test_cohomology_representatives_are_cocycles():
    ctx = dim3_adjoint_context()
    for n in range(3):
        dim, reps = ctx.total_cohomology(n)
        assert len(reps) == dim
        nab = ctx.nabla(n)
        for v in reps:
            assert all(c == 0 for c in nab.apply(v))


def test_cochain_evaluation_alternating():
    ctx = dim3_adjoint_context()
    rng = rng_from_seed(31)
    p, q, r = 0, 2, 1
    vals = [Q0 + rng.randint(-3, 3) for _ in range(ctx.cochain_dim(p, q, r))]
    c = LatticeCochain(ctx, p, q, r, vals)
    u = [Q0 + rng.randint(-2, 2) for _ in range(ctx.gp_dim(p))]
    v = [Q0 + rng.randint(-2, 2) for _ in range(ctx.gp_dim(p))]
    z = [Q0 + rng.randint(-2, 2) for _ in range(ctx.dg)]
    assert c.evaluate([u, v], [z]) == \
        [-t for t in c.evaluate([v, u], [z])]
    assert all(t == 0 for t in c.evaluate([u, u], [z]))


def test_trivial_total_complex_d_squared():
    rng = rng_from_seed(24)
    for _ in range(10):
        x = random_crossed_module(rng, 2)
        for n in range(1, 4):
            prod = trivial_total_complex(x, n) * trivial_total_complex(x, n - 1)
            assert prod.is_zero()


def test_trivial_h2_dimensions():
    for dh, expect in ((1, 0), (2, 1), (3, 3), (4, 6)):
        h = LieAlgebra.abelian(dh)
        x = CrossedModuleAlg(LieAlgebra.abelian(0), h, Matrix.zero(dh, 0),
                             Representation.trivial(h, 0))
        assert trivial_cohomology_dim(x, 2) == expect


def test_trivial_cohomology_against_ce():
    """g = 0: the trivial-coefficient H^n is the Chevalley-Eilenberg
    H^n(h; Q), computed without the lattice."""
    cases = ((LieAlgebra.abelian(2), [2, 1, 0]),
             (LieAlgebra.abelian(3), [3, 3, 1]),
             (LieAlgebra.aff1(), [1, 0, 0]),
             (LieAlgebra.heisenberg3(), [2, 2, 1]),
             (LieAlgebra.sl2(), [0, 0, 1]))
    for h, expect in cases:
        x = CrossedModuleAlg(LieAlgebra.abelian(0), h,
                             Matrix.zero(h.dim, 0),
                             Representation.trivial(h, 0))
        rep = Representation.trivial(h, 1)
        ce = FinComplex(0, h.dim,
                        {q: comb(h.dim, q) for q in range(h.dim + 1)},
                        {q: ce_differential(rep, q) for q in range(h.dim)})
        got = [trivial_cohomology_dim(x, n) for n in range(1, 4)]
        assert got == [ce.cohomology_dim(n) for n in range(1, 4)] == expect


def g0_adjoint_context(h):
    """g = 0, W = 0 and V = h with the adjoint action."""
    x = CrossedModuleAlg(LieAlgebra.abelian(0), h, Matrix.zero(h.dim, 0),
                         Representation.trivial(h, 0))
    rep = TwoRep(x, TwoVectorSpace(0, h.dim, Matrix.zero(h.dim, 0)), [],
                 Representation.trivial(h, 0), Representation.adjoint(h))
    return LatticeContext(x, rep)


def test_adjoint_g0_cohomology_against_ce():
    """g = 0: the lattice H^n with values in V = adjoint is the
    Chevalley-Eilenberg H^n(h; V), computed without the lattice."""
    cases = ((LieAlgebra.heisenberg3(), [1, 4, 5, 2]),
             (LieAlgebra.sl2(), [0, 0, 0, 0]),
             (LieAlgebra.aff1(), [0, 0, 0, 0]))
    for h, expect in cases:
        ctx = g0_adjoint_context(h)
        ad = Representation.adjoint(h)
        ce = FinComplex(0, h.dim,
                        {q: comb(h.dim, q) * h.dim for q in range(h.dim + 1)},
                        {q: ce_differential(ad, q) for q in range(h.dim)})
        got = [ctx.total_cohomology(n)[0] for n in range(4)]
        assert got == [ce.cohomology_dim(n) for n in range(4)] == expect


def _refuse_large_matrices(monkeypatch, sparse_too=False):
    """Make the Matrix constructors, and with sparse_too the SparseMatrix
    one, fail on more than 1M cells, checked before anything is built."""
    init, of, zero = Matrix.__init__, Matrix._of, Matrix.zero
    sparse_init = SparseMatrix.__init__

    def small(rows, cols):
        assert rows * cols <= 10 ** 6, "allocated %d x %d" % (rows, cols)

    def small_init(self, rows, cols, data=None):
        small(rows, cols)
        init(self, rows, cols, data)

    def small_of(cls, rows, cols, data):
        small(rows, cols)
        return of(rows, cols, data)

    def small_zero(rows, cols):
        # checked before zero builds its rows
        small(rows, cols)
        return zero(rows, cols)

    def small_sparse(self, rows, cols, sparse):
        small(rows, cols)
        sparse_init(self, rows, cols, sparse)

    monkeypatch.setattr(Matrix, "__init__", small_init)
    monkeypatch.setattr(Matrix, "_of", classmethod(small_of))
    monkeypatch.setattr(Matrix, "zero", staticmethod(small_zero))
    if sparse_too:
        monkeypatch.setattr(SparseMatrix, "__init__", small_sparse)


def test_nabla_refused_before_allocation(monkeypatch):
    """The adjoint 2-representation of gl(phi), phi = 0: Q^2 -> Q^2, has a
    146.5M-cell nabla_4; it is refused without building any large
    matrix, dense or sparse."""
    x = gl_phi(TwoVectorSpace(2, 2, Matrix.zero(2, 2)))
    ctx = LatticeContext(x, adjoint_rep(x))
    _refuse_large_matrices(monkeypatch, sparse_too=True)
    with pytest.raises(ValueError, match=r"nabla_4: 21532 x 6804 "):
        ctx.nabla(4)
    assert 21532 * 6804 > MAX_NABLA_CELLS


def test_cohomology_reached_without_dense_nabla(monkeypatch):
    """H^3 of the same problem eliminates nabla_3 (6804 x 2000) and
    nabla_2 (2000 x 496) as sparse rows: no dense matrix of more than 1M
    cells, not even a dense view, is built on the way."""
    x = gl_phi(TwoVectorSpace(2, 2, Matrix.zero(2, 2)))
    ctx = LatticeContext(x, adjoint_rep(x))
    _refuse_large_matrices(monkeypatch)
    assert ctx.total_cohomology(3)[0] == 2


def test_cohomology_makes_no_dense_kernel(monkeypatch):
    """H^3 of the same problem keeps the kernel of nabla_3 sparse: with
    rank_and_kernel, the dense kernel, refused in every module, it
    returns the same dimension and representatives as the dense route
    (the SHA-256 of their repr, taken from it)."""
    import lie2coh
    x = gl_phi(TwoVectorSpace(2, 2, Matrix.zero(2, 2)))
    ctx = LatticeContext(x, adjoint_rep(x))

    def refused(m):
        raise AssertionError("dense kernel of a %d x %d matrix"
                             % (m.rows, m.cols))

    for module in vars(lie2coh).values():
        if hasattr(module, "rank_and_kernel"):
            monkeypatch.setattr(module, "rank_and_kernel", refused)
    got = ctx.total_cohomology(3)
    assert got[0] == 2
    assert hashlib.sha256(repr(got).encode()).hexdigest() == \
        "6303d519241765fc3bc4130cea102d6765f975361d76d61b0ad7b35f6dfa3f85"


def test_trivial_cohomology_against_fincomplex():
    rng = rng_from_seed(24)
    for _ in range(10):
        x = random_crossed_module(rng, 2)
        diffs = {n: trivial_total_complex(x, n) for n in range(4)}
        dims = {n: d.cols for n, d in diffs.items()}
        dims[4] = diffs[3].rows
        complex_ = FinComplex(0, 4, dims, diffs)
        for n in range(4):
            assert trivial_cohomology_dim(x, n) == complex_.cohomology_dim(n)


def test_nabla_collapses_for_trivial_everything():
    """For trivial rho, g = 0 and abelian h every component differential
    vanishes except the alternating-identity simplicial maps, and the
    cohomology reduces to Lambda^n h* (x) V."""
    h = LieAlgebra.abelian(2)
    x = CrossedModuleAlg(LieAlgebra.abelian(0), h, Matrix.zero(2, 0),
                         Representation.trivial(h, 0))
    r = TwoRep.trivial(x, TwoVectorSpace(2, 2, Matrix.zero(2, 2)))
    ctx = LatticeContext(x, r)
    for n in range(4):
        for (p, q, rr) in ctx.degree_blocks(n):
            assert ctx.component_matrix("deltaR", p, q, rr).is_zero()
            assert ctx.component_matrix("delta1", p, q, rr).is_zero()
            partial = ctx.component_matrix("partial", p, q, rr)
            if p % 2 == 0:
                assert partial.is_zero()
            else:
                assert partial == Matrix.identity(partial.rows)
    for n in range(4):
        assert ctx.total_cohomology(n)[0] == comb(2, n) * 2


def test_corrupted_sign_table_breaks_nabla(monkeypatch):
    """Negative control: flipping the Delta_2 sign back to the uncalibrated
    value makes nabla^2 nonzero, and the offending blocks are named."""
    import lie2coh.lattice as lattice_mod
    original = lattice_mod._delta_sign

    def corrupted(k, q, r):
        if k == 2:
            return -Q1 if r % 2 else Q1
        return original(k, q, r)

    monkeypatch.setattr(lattice_mod, "_delta_sign", corrupted)
    ctx = dim3_adjoint_context()
    found = False
    for n in range(3):
        bad = ctx.nabla_squared_blocks(n)
        if bad:
            found = True
            assert all(len(src) == 3 and len(tgt) == 3
                       for src, tgt in bad)
    assert found


def test_nabla_degree_two_table():
    """Block-by-block signs of nabla on a 2-cochain.  Matches the displayed
    degree-2 differential structure, with the calibrated difference-map
    signs (Delta_2 out of (0,0,2) carries -1, not the uncalibrated +1)."""
    rng = rng_from_seed(33)
    for _ in range(6):
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        offs2, _ = ctx.block_offsets(2)
        offs3, _ = ctx.block_offsets(3)
        n2 = ctx.nabla(2)

        def block_of(tgt, src):
            if tgt not in offs3 or src not in offs2:
                return None
            out = Matrix.zero(ctx.cochain_dim(*tgt), ctx.cochain_dim(*src))
            for i in range(out.rows):
                for j in range(out.cols):
                    out.data[i][j] = n2.data[offs3[tgt] + i][offs2[src] + j]
            return out

        checks = [
            # omega0 at (0,2,0)
            ((0, 3, 0), (0, 2, 0), ("deltaR", None), 1),
            ((1, 2, 0), (0, 2, 0), ("partial", None), 1),
            ((0, 2, 1), (0, 2, 0), ("delta1", None), 1),
            # phimap at (1,1,0)
            ((1, 2, 0), (1, 1, 0), ("deltaR", None), 1),
            ((2, 1, 0), (1, 1, 0), ("partial", None), -1),
            ((1, 1, 1), (1, 1, 0), ("delta1", None), -1),
            # alpha at (0,1,1)
            ((0, 2, 1), (0, 1, 1), ("deltaR", None), 1),
            ((1, 1, 1), (0, 1, 1), ("partial", None), 1),
            ((0, 1, 2), (0, 1, 1), ("delta1", None), -1),
            ((1, 2, 0), (0, 1, 1), ("DeltaK", 1), -1),
            # omega1 at (0,0,2)
            ((0, 1, 2), (0, 0, 2), ("deltaR", None), 1),
            ((1, 0, 2), (0, 0, 2), ("partial", None), 1),
            ((0, 0, 3), (0, 0, 2), ("delta1", None), 1),
            ((1, 1, 1), (0, 0, 2), ("DeltaK", 1), 1),
            ((1, 2, 0), (0, 0, 2), ("DeltaK", 2), -1),   # calibrated flip
            # lambda at (1,0,1)
            ((1, 1, 1), (1, 0, 1), ("deltaR", None), 1),
            ((2, 0, 1), (1, 0, 1), ("partial", None), -1),
            ((1, 0, 2), (1, 0, 1), ("delta1", None), 1),
            ((2, 1, 0), (1, 0, 1), ("DeltaK", 1), -1),
            # v at (2,0,0)
            ((2, 1, 0), (2, 0, 0), ("deltaR", None), 1),
            ((3, 0, 0), (2, 0, 0), ("partial", None), 1),
            ((2, 0, 1), (2, 0, 0), ("delta1", None), 1),
        ]
        for tgt, src, (kind, k), sign in checks:
            got = block_of(tgt, src)
            if got is None:
                continue
            want = ctx.component_matrix(kind, *src, k=k) if k else \
                ctx.component_matrix(kind, *src)
            assert got == want.scale(sign), (tgt, src, kind)


def _rand_vec(rng, n):
    return [Q0 + rng.randint(-2, 2) for _ in range(n)]


def _act_w(ctx, y):
    return ctx.rep.rho0_w.act(y)


def _check_components_pointwise(ctx, rng, p, q, r):
    """Evaluate the defining formulas of the component differentials out
    of C^{p,q}_r directly, through alternating cochain evaluation at random
    vector tuples, and compare with the assembled matrices.  Returns the
    orders k of the difference maps checked with a nonzero matrix."""
    x = ctx.x
    c = LatticeCochain(ctx, p, q, r, _rand_vec(rng, ctx.cochain_dim(p, q, r)))
    gp = ctx.nerve(p)
    tp = final_target_matrix(ctx.x, p)
    xis = [_rand_vec(rng, ctx.gp_dim(p)) for _ in range(q + 1)]
    zs = [_rand_vec(rng, ctx.dg) for _ in range(r)]

    # deltaR oracle
    out = [Q0] * (ctx.dv if r == 0 else ctx.dw)
    for j in range(q + 1):
        rest = xis[:j] + xis[j + 1:]
        y = tp.apply(xis[j])
        sign = -1 if j % 2 else 1
        if r == 0:
            val = ctx.rep.rho0_v.act(y).apply(c.evaluate(rest, []))
        else:
            val = _act_w(ctx, y).apply(c.evaluate(rest, zs))
            ly = x.action.act(y)
            for k in range(r):
                moved = zs[:k] + [ly.apply(zs[k])] + zs[k + 1:]
                val = [a - b for a, b in
                       zip(val, c.evaluate(rest, moved))]
        out = [a + sign * b for a, b in zip(out, val)]
    for m in range(q + 1):
        for n in range(m + 1, q + 1):
            br = gp.bracket(xis[m], xis[n])
            rest = [xis[t] for t in range(q + 1) if t not in (m, n)]
            sign = -1 if (m + n) % 2 else 1
            out = [a + sign * b for a, b in
                   zip(out, c.evaluate([br] + rest, zs))]
    mat = ctx.component_matrix("deltaR", p, q, r)
    via_matrix = LatticeCochain(ctx, p, q + 1, r,
                                mat.apply(c.values)).evaluate(xis, zs)
    assert [Q0 + v for v in via_matrix] == [Q0 + v for v in out]

    # partial oracle
    xis_up = [_rand_vec(rng, ctx.gp_dim(p + 1)) for _ in range(q)]
    out = [Q0] * (ctx.dv if r == 0 else ctx.dw)
    for k in range(p + 2):
        face = face_matrix(ctx.x, p, k)
        sign = -1 if k % 2 else 1
        val = c.evaluate([face.apply(v) for v in xis_up], zs)
        out = [a + sign * b for a, b in zip(out, val)]
    mat = ctx.component_matrix("partial", p, q, r)
    via_matrix = LatticeCochain(ctx, p + 1, q, r,
                                mat.apply(c.values)).evaluate(xis_up, zs)
    assert [Q0 + v for v in via_matrix] == [Q0 + v for v in out]

    # delta1 oracle
    xis_q = xis[:q]
    zs_up = [_rand_vec(rng, ctx.dg) for _ in range(r + 1)]
    if r == 0:
        out = ctx.rep.rho1_of(zs_up[0]).apply(c.evaluate(xis_q, []))
    else:
        out = [Q0] * ctx.dw
        for k in range(r + 1):
            rest = zs_up[:k] + zs_up[k + 1:]
            sign = -1 if k % 2 else 1
            val = _act_w(ctx, x.mu.apply(zs_up[k])).apply(
                c.evaluate(xis_q, rest))
            out = [a + sign * b for a, b in zip(out, val)]
        for a_i in range(r + 1):
            for b_i in range(a_i + 1, r + 1):
                br = x.g.bracket(zs_up[a_i], zs_up[b_i])
                rest = [zs_up[t] for t in range(r + 1)
                        if t not in (a_i, b_i)]
                sign = -1 if (a_i + b_i) % 2 else 1
                out = [u + sign * v for u, v in
                       zip(out, c.evaluate(xis_q, [br] + rest))]
    mat = ctx.component_matrix("delta1", p, q, r)
    via_matrix = LatticeCochain(ctx, p, q, r + 1,
                                mat.apply(c.values)).evaluate(xis_q, zs_up)
    assert [Q0 + v for v in via_matrix] == [Q0 + v for v in out]

    # DeltaK oracle (all orders)
    checked = []
    for k_ord in range(1, r + 1):
        xis_d = [_rand_vec(rng, ctx.gp_dim(p + 1))
                 for _ in range(q + k_ord)]
        zs_d = [_rand_vec(rng, ctx.dg) for _ in range(r - k_ord)]
        face0 = face_matrix(ctx.x, p, 0)
        out = [Q0] * ctx.dw
        for subset in combinations(range(q + k_ord), k_ord):
            sign = -1 if sum(subset) % 2 else 1
            kept = [face0.apply(xis_d[t]) for t in range(q + k_ord)
                    if t not in subset]
            xparts = [xis_d[t][:ctx.dg] for t in subset]
            val = c.evaluate(kept, xparts + zs_d)
            out = [a + sign * b for a, b in zip(out, val)]
        if r == k_ord:
            out = ctx.phi.apply(out)
        mat = ctx.component_matrix("DeltaK", p, q, r, k_ord)
        via_matrix = LatticeCochain(
            ctx, p + 1, q + k_ord, r - k_ord,
            mat.apply(c.values)).evaluate(xis_d, zs_d)
        assert [Q0 + v for v in via_matrix] == [Q0 + v for v in out]
        if not mat.is_zero():
            checked.append(k_ord)
    return checked


def test_component_matrices_against_direct_formulas():
    """Independent oracle for every component kind at p <= 2, r <= 3: 40
    random small contexts at random indices, and a context with dim g =
    dim h = 3 out of every (p, q, 3) block with q <= 1, which covers
    Delta_1..Delta_3 and phi Delta_3 at r = k = 3."""
    rng = rng_from_seed(41)
    trials = 0
    while trials < 40:
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        p, q, r = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3)
        if ctx.cochain_dim(p, q, r):
            trials += 1
            _check_components_pointwise(ctx, rng, p, q, r)
    ctx = dim3_adjoint_context()
    assert not ctx.phi.is_zero()
    for p in range(3):
        for q in range(2):
            assert _check_components_pointwise(ctx, rng, p, q, 3) == [1, 2, 3]


def test_total_cohomology_against_fincomplex():
    """Cross-module oracle: package the nabla matrices as a bounded
    complex (re-verifying d^2 = 0 at construction) and compare dims."""
    from lie2coh.homalg import FinComplex
    rng = rng_from_seed(42)
    for _ in range(8):
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        hi = 3
        dims = {n: ctx.total_dim(n) for n in range(hi + 1)}
        diffs = {n: ctx.nabla(n) for n in range(hi)}
        complex_ = FinComplex(0, hi, dims, diffs)
        for n in range(hi):
            assert complex_.cohomology_dim(n) == ctx.total_cohomology(n)[0]


def _greedy_representatives(ctx, n):
    """Reference: dim H^n = dim ker - rank im, then the kernel vectors
    outside the span of the image and of the ones kept before them."""
    dn = ctx.nabla(n)
    image = ctx.nabla(n - 1).columns() if n else []
    _, kernel = rank_and_kernel(dn)
    dim_h = len(kernel) - (rank(vectors_matrix(image, dim=dn.cols))
                           if image else 0)
    chosen, reps = list(image), []
    for v in kernel:
        if len(reps) == dim_h:
            break
        if not in_span(chosen, v):
            chosen.append(v)
            reps.append(v)
    return dim_h, reps


def test_total_cohomology_representatives_match_greedy():
    rng = rng_from_seed(42)
    cases = [(LatticeContext(*random_context(rng, 2)), range(3))
             for _ in range(8)]
    adjoint = os.path.join(os.path.dirname(__file__), "fixtures",
                           "adjoint_aff1.json")
    cases.append((load_problem(adjoint).context(), range(4)))
    # g = 0, h = Heisenberg, V = adjoint: here the representatives are not
    # the leading kernel vectors
    cases.append((g0_adjoint_context(LieAlgebra.heisenberg3()), range(3)))
    for ctx, degrees in cases:
        for n in degrees:
            dim, reps = ctx.total_cohomology(n)
            assert (dim, reps) == _greedy_representatives(ctx, n)
            nab = ctx.nabla(n)
            for v in reps:
                assert all(c == 0 for c in nab.apply(v))


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of repr(ctx.nabla(n)), n = 0..3, taken when every component was
# still assembled from dense matrices
NABLA_SHA256 = {
    "tests/fixtures/adjoint_aff1.json": (
        "eb4c28286c61f52242401ef16189b3b216c415790450e3ec173fdeac9470940f",
        "37630e5c4e2dd9a92213a40848814e16087897ba827f6a7c30ee20565bc8963a",
        "feeef840ac82d3177431da6b3c350797a1c374a85fb2f89091d433bfa394b2db",
        "cb9359088317fb1d4f36fc16ba2b8f5b52eb0e2cb9bffd3e1b57683b6d4ad846"),
    "tests/fixtures/central_h2.json": (
        "01bb96fb3a2462936650eeaafa3522f4b281a75a850edc1e835de29a17670cff",
        "432f6f9b3cd2590828918ff9fc5d7cc5b1e5c1cf40c1f47fa5d8dca8b8188956",
        "ab756017d4360fea49e5ccc9b8c1377ae24b3113d2dc504b4ab064872fcb8a79",
        "9e08d382a7aea13e085cdd8dc061b0434fed2805ccb62e758e8a0d3d3be661b2"),
    "bench/problems/adjoint_aff1.json": (
        "eb4c28286c61f52242401ef16189b3b216c415790450e3ec173fdeac9470940f",
        "37630e5c4e2dd9a92213a40848814e16087897ba827f6a7c30ee20565bc8963a",
        "feeef840ac82d3177431da6b3c350797a1c374a85fb2f89091d433bfa394b2db",
        "cb9359088317fb1d4f36fc16ba2b8f5b52eb0e2cb9bffd3e1b57683b6d4ad846"),
    "bench/problems/glphi_proj_adjoint.json": (
        "093c9a8ff392876bae733545d6ced2ceef25acfcb06b57f1ee6540d55a76da09",
        "77cb476ece9aeac6acbea0fed6294e718dbf3c30869dd28d8f1f3c8ad93016e8",
        "59c1aec2ee4a5b2a099f18a70d54554a34c3049d8446c5c0ae1e7702ee2c821f",
        "bfd9e0aec72c0f1b203de29b6e05b0f1e4eccf84f5d781434051970353d86d6a"),
    "bench/problems/glphi_zero_adjoint.json": (
        "4532bb1ecf535b2b9647b224c154cab3ef089028b2bcaaf617be30b55e4d0ce6",
        "ef08479098b81f38509e03abfd786bd5d540dd8b9cb769738dd79bb43ea71ae9",
        "92704fc082edc22421781905a336fa30cf06e125b76408a8814c7c4f8ab9de49",
        "82523f4c17496c118e435699233e37663816200350a5bd551b3937c748d3288e"),
    "bench/problems/heisenberg_g0_adjoint.json": (
        "3930e32ea9d6b14ad6003dbed9733e30157112fbf4a65a5b9fb037c49703eca4",
        "b20def99b34973452660f7b09222c93f5d2c265e0dfbf8539fd9772d20b73c43",
        "9b44212955f6d18b41c8c721944c38d9c91338600fe7d0ccfcc77396dc5b0b3f",
        "082d1784f6956ef0953937455130e1a9a95f87f8707480b9b937dce65bbfcb36"),
}


@pytest.mark.parametrize("name", sorted(NABLA_SHA256))
def test_nabla_pinned_by_hash(name):
    ctx = load_problem(os.path.join(ROOT, name)).context()
    got = tuple(hashlib.sha256(repr(ctx.nabla(n)).encode()).hexdigest()
                for n in range(4))
    assert got == NABLA_SHA256[name]


# sha256 of repr([sorted(row.items()) for row in ctx.nabla(4).sparse]),
# taken when every component was still assembled term by term for each
# target basis pair
NABLA4_SPARSE_SHA256 = {
    "bench/problems/adjoint_aff1.json":
        "c0f0147ef1668a36e8a10801d00fdaa9431994967d386a7512807b65de918538",
    "bench/problems/glphi_proj_adjoint.json":
        "270fa8df10117d3a707928804c3aed6be5d59e7ecef555a84da19c0d01e08b30",
    "bench/problems/glphi_zero_adjoint.json":
        "ae506f87f9f0641168d9077f25c80d3dc08cda53a633c3d9c659b5080cb32aa6",
    "bench/problems/heisenberg_g0_adjoint.json":
        "fa333c937221d43c8fd0b485b7205bcfdc4f195284e38be40b5901eddc6b82e2",
}


@pytest.mark.parametrize("name", sorted(NABLA4_SPARSE_SHA256))
def test_nabla4_pinned_by_sparse_hash(name):
    ctx = load_problem(os.path.join(ROOT, name)).context()
    rows = [sorted(row.items()) for row in ctx.nabla(4).sparse]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        NABLA4_SPARSE_SHA256[name]


def test_component_matrix_refuses_bad_indices():
    """A negative index, a difference order on a kind that takes none, a
    missing or out-of-range order and an unknown kind are ValueErrors."""
    ctx = unit_context()
    for args in (("partial", -1, 0, 0), ("deltaR", 0, -1, 0),
                 ("delta1", 0, 0, -1), ("DeltaK", -1, 0, 1, 1),
                 ("deltaR", 0, 0, 0, 3), ("delta1", 0, 0, 1, 1),
                 ("partial", 0, 0, 1, 1), ("DeltaK", 0, 0, 1),
                 ("DeltaK", 0, 0, 1, 2), ("DeltaK", 0, 0, 1, 0),
                 ("nabla", 0, 0, 0)):
        with pytest.raises(ValueError):
            ctx.component_matrix(*args)
    assert ctx.component_matrix("deltaR", 0, 0, 0) == \
        ctx.component_matrix("deltaR", 0, 0, 0, None)
    assert ctx.component_matrix("DeltaK", 0, 0, 1, 1).rows == \
        ctx.cochain_dim(1, 1, 0)


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "bench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_component_is_built_twice(monkeypatch):
    """No context assembles a component, a (source block, kind, k), twice,
    which is why none keeps them: nabla assembles each component once,
    into its own rows, and caches nabla_n.  Nor does it assemble one whose
    target block has dimension 0: every component has rows.  Checked at
    the one assembly point, LatticeContext._assemble, on the cohomology
    command over the benchmark problems at degrees 0-4, nabla-check on a
    fixture, and the random-contexts operation (bench/contexts.py) on 20
    random contexts."""
    from lie2coh import cli, ext, lattice
    from lie2coh.samples import random_matrix
    calls, contexts, rows = [], [], []
    original = LatticeContext._assemble

    def recorded(ctx, out, row0, col0, src, tgt, kind, k, sign):
        contexts.append(ctx)    # alive, so no two contexts share an id
        calls.append((id(ctx), (src.p, src.q, src.r), kind, k))
        rows.append(tgt.total_dim)
        return original(ctx, out, row0, col0, src, tgt, kind, k, sign)

    monkeypatch.setattr(LatticeContext, "_assemble", recorded)
    problems = os.path.join(ROOT, "bench", "problems")
    for name in sorted(os.listdir(problems)):
        for n in range(5):
            assert cli.main(["cohomology", os.path.join(problems, name),
                             "--degree", str(n)]) == 0
    assert cli.main(["nabla-check", os.path.join(
        ROOT, "tests", "fixtures", "adjoint_aff1.json")]) == 0
    # bench/contexts.py imports bench/inputs.py by name
    monkeypatch.setitem(sys.modules, "inputs", _bench_module("inputs"))
    bench = _bench_module("contexts")
    lib = types.SimpleNamespace(lattice=lattice, ext=ext)
    rng = rng_from_seed(23)
    for k in range(20):
        x, rep = random_context(rng, 2)
        dg, dh = x.g.dim, x.h.dim
        dw, dv = rep.target.dim_w, rep.target.dim_v
        slice_dim = dh * (dh - 1) // 2 * dv + dh * dg * dw + dv * dg
        bench._run(lib, bench.Case(
            k, x, rep, [rng.randint(-2, 2) for _ in range(slice_dim)],
            random_matrix(rng, dv, dh, 1), random_matrix(rng, dw, dg, 1)))
    assert calls and len(set(calls)) == len(calls)
    assert min(rows) > 0


def _placed_components(ctx, n):
    """nabla_n as its component matrices, each copied to its block offsets
    with nabla's sign: the total differential built component by
    component."""
    src_offs, src_dim = ctx.block_offsets(n)
    tgt_offs, tgt_dim = ctx.block_offsets(n + 1)
    out = [{} for _ in range(tgt_dim)]
    for (p, q, r), col0 in src_offs.items():
        parts = [((p, q + 1, r), 1, "deltaR", None),
                 ((p, q, r + 1), -1 if q % 2 else 1, "delta1", None),
                 ((p + 1, q, r), -1 if (q + r) % 2 else 1, "partial", None)]
        parts += [((p + 1, q + k, r - k), _delta_sign(k, q, r), "DeltaK", k)
                  for k in range(1, r + 1)]
        for tgt, sign, kind, k in parts:
            if tgt in tgt_offs:
                mat = ctx.component_matrix(kind, p, q, r, k)
                for i, row in enumerate(mat.sparse, tgt_offs[tgt]):
                    for j, x in row.items():
                        out[i][col0 + j] = x if sign > 0 else -x
    return SparseMatrix(tgt_dim, src_dim, out)


def _rows_repr(m):
    """The shape and the entries of m in row and insertion order, with
    their int or Fraction types."""
    return repr((m.rows, m.cols, [list(row.items()) for row in m.sparse]))


def test_nabla_is_its_components_placed():
    """nabla_n, assembled in one pass, is its component matrices placed at
    their block offsets with nabla's signs, entry for entry and type for
    type, at degrees 0-4: on every benchmark problem and on 20 random
    contexts."""
    problems = os.path.join(ROOT, "bench", "problems")
    contexts = [load_problem(os.path.join(problems, name)).context()
                for name in sorted(os.listdir(problems))]
    rng = rng_from_seed(29)
    contexts += [LatticeContext(*random_context(rng, 2)) for _ in range(20)]
    for ctx in contexts:
        for n in range(5):
            assert _rows_repr(ctx.nabla(n)) == \
                _rows_repr(_placed_components(ctx, n)), n


def test_shared_tables_never_leak_between_contexts():
    """The tables shared across contexts are those of the dimensions
    alone: contexts with equal dim g and dim h but other mu, actions, rho
    and dim W, dim V, built one after another in either order, each have
    the nabla they have when built after the shared cache is cleared."""
    from lie2coh import lattice
    g, h = LieAlgebra.abelian(1), LieAlgebra.abelian(2)
    # mu injective on an abelian h forces the zero action
    x_mu = CrossedModuleAlg(g, h, Matrix(2, 1, [[1], [0]]),
                            Representation(h, 1, [Matrix.zero(1, 1)] * 2))
    x_zero = CrossedModuleAlg(g, h, Matrix.zero(2, 1), Representation(
        h, 1, [Matrix(1, 1, [[1]]), Matrix.zero(1, 1)]))
    reps = [adjoint_rep(x_mu), adjoint_rep(x_zero),
            TwoRep.trivial(x_zero, TwoVectorSpace(2, 1, Matrix(1, 2,
                                                               [[1, 0]])))]

    def nablas(rep):
        ctx = LatticeContext(rep.source, rep)
        return [_rows_repr(ctx.nabla(n)) for n in range(4)]

    alone = []
    for rep in reps:
        lattice._shared.cache_clear()
        alone.append(nablas(rep))
    assert len(set(map(tuple, alone))) == len(reps)
    for order in (reps, reps[::-1]):
        lattice._shared.cache_clear()
        for rep in order:
            assert nablas(rep) == alone[reps.index(rep)]
    lattice._shared.cache_clear()


def _layout_contexts():
    """30 seeded contexts, each with a seeded source of random vectors."""
    for seed in range(30):
        x, rep = random_context(rng_from_seed(seed), 2)
        draw = random.Random(seed)
        yield LatticeContext(x, rep), lambda size, draw=draw: [
            Fraction(draw.randint(-3, 3), draw.randint(1, 2))
            for _ in range(size)]


def test_split_and_join_are_inverse():
    """split lists the blocks of C^n_tot in order, join puts them back,
    skips empty parts of zero-dimensional blocks and refuses values for a
    block outside the degree or of the wrong length."""
    for ctx, vector in _layout_contexts():
        for n in range(4):
            assert ctx.block_offsets(n) is ctx.block_offsets(n)
            vec = vector(ctx.total_dim(n))
            parts = ctx.split(n, vec)
            assert list(parts) == ctx.degree_blocks(n)
            assert [len(v) for v in parts.values()] == \
                [ctx.cochain_dim(*b) for b in parts]
            assert [x for v in parts.values() for x in v] == vec
            assert ctx.join(n, parts) == vec
            for b, values in parts.items():
                alone = ctx.split(n, ctx.join(n, {b: values}))
                assert alone == {c: values if c == b else [Q0] * len(v)
                                 for c, v in parts.items()}
                with pytest.raises(ValueError):
                    ctx.join(n, {b: values + [Q1]})
            # the empty blocks of degree n and blocks of degree n + 1
            others = [(p, q, n - p - q) for p in range(n + 1)
                      for q in range(n - p + 1)] + [(n + 1, 0, 0), (0, n, 1)]
            for b in others:
                if b not in parts:
                    assert ctx.join(n, {b: []}) == [Q0] * len(vec)
                    with pytest.raises(ValueError):
                        ctx.join(n, {b: [Q1]})


def test_block_matrix_reads_the_space_positions():
    """Column k of block_matrix is the value at the k-th basis tuple pair,
    at the positions Space.block gives; block_values writes it back, with
    zeros past the columns it is given."""
    for ctx, vector in _layout_contexts():
        for block in ((0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)):
            space = ctx.space(*block)
            pairs = [(I, J) for I in space.gp_tuples for J in space.g_tuples]
            values = vector(space.total_dim)
            m = ctx.block_matrix(block, values)
            assert (m.rows, m.cols) == (space.coeff_dim, len(pairs))
            for k, (I, J) in enumerate(pairs):
                for i in range(m.rows):
                    assert m.data[i][k] == values[space.block(I, J) + i]
            assert ctx.block_values(block, m) == values
            cols = len(pairs) // 2
            head = ctx.block_matrix(block, values, cols)
            assert head.data == [row[:cols] for row in m.data]
            back = ctx.block_values(block, head)
            for k, (I, J) in enumerate(pairs):
                for i in range(m.rows):
                    pos = space.block(I, J) + i
                    assert back[pos] == (values[pos] if k < cols else 0)
