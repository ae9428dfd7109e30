"""The extension dictionary: cocycles, round trips, coboundaries, and the
trivial-coefficient central extension."""

import hashlib
import os
from fractions import Fraction

import pytest

from lie2coh.numeric import (Matrix, Q0, Q1, format_rat, rank,
                             rank_and_kernel, solve_linear, vectors_matrix)
from lie2coh.liealg import LieAlgebra, Representation, _unit
from lie2coh.lie2 import (CrossedModuleAlg, TwoVectorSpace,
                          validate_crossed_module)
from lie2coh.tworep import (TwoRep, adjoint_rep, semidirect_2alg,
                            twisted_semidirect)
from lie2coh.lattice import LatticeContext, LatticeCochain
from lie2coh.ext import (ExtensionResult, TwoCocycle, zero_cocycle, extension_from_cocycle,
                         canonical_splitting, cocycle_from_extension,
                         coboundary_solve, cocycle_space_basis,
                         cocycle_from_slice, cocycle_slice_class_count,
                         trivial_coeff_extension, trivial_cocycle_defects,
                         contexts_match, _slice_conditions)
from lie2coh.samples import (rng_from_seed, random_context, random_matrix,
                             random_unimodular)
from lie2coh.cli import load_problem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def central_context():
    """g = 0, h = Q^2 abelian, trivial rho on 0 -> Q."""
    h = LieAlgebra.abelian(2)
    x = CrossedModuleAlg(LieAlgebra.abelian(0), h, Matrix.zero(2, 0),
                         Representation.trivial(h, 0))
    r = TwoRep.trivial(x, TwoVectorSpace(0, 1, Matrix.zero(1, 0)))
    return LatticeContext(x, r)


def random_valid_cocycle(ctx, rng, span=2):
    basis = cocycle_space_basis(ctx)
    n = (ctx.cochain_dim(0, 2, 0) + ctx.cochain_dim(0, 1, 1)
         + ctx.dv * ctx.dg)
    u = [Q0] * n
    for v in basis:
        c = rng.randint(-span, span)
        if c:
            u = [a + c * b for a, b in zip(u, v)]
    return cocycle_from_slice(ctx, u)


def test_zero_cocycle_gives_semidirect():
    rng = rng_from_seed(1)
    for _ in range(8):
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        ext = extension_from_cocycle(zero_cocycle(ctx))
        sd = semidirect_2alg(x, rep)
        assert ext.total.g.brackets == sd.g.brackets
        assert ext.total.h.brackets == sd.h.brackets
        assert ext.total.mu == sd.mu
        assert ext.total.action.mats == sd.action.mats


def test_twisted_extension_pinned():
    """x = (aff(1) -id-> aff(1)) with its adjoint 2-representation and a
    cocycle whose omega0, omega1, alpha and phi_g are all nonzero: the
    brackets, epsilon and action of the twisted semidirect product are
    pinned, so a sign flip of any twist term shows."""
    h = LieAlgebra.aff1()
    x = CrossedModuleAlg(h, h, Matrix.identity(2), Representation.adjoint(h))
    ctx = LatticeContext(x, adjoint_rep(x))
    coc = TwoCocycle(ctx, [-2, -1], [0, -1, -1, -1, 1, 1, 0, 1],
                     Matrix(2, 2, [[1, 1], [1, 1]]))
    assert coc.validate() == []
    assert coc.omega1_values() == [-1, -2]
    total = twisted_semidirect(x, ctx.rep, coc.omega0.values,
                               coc.omega1_values(), coc.alpha.values,
                               coc.phi_g)

    def brackets(alg):
        return {k: [str(Fraction(c)) for c in v]
                for k, v in alg.brackets.items()}

    assert brackets(total.g) == {(0, 1): ["0", "1", "1", "2"],
                                 (0, 3): ["0", "0", "0", "1"],
                                 (1, 2): ["0", "0", "0", "-1"]}
    assert brackets(total.h) == {(0, 1): ["0", "1", "2", "1"],
                                 (0, 3): ["0", "0", "0", "1"],
                                 (1, 2): ["0", "0", "0", "-1"]}
    assert repr(total.mu) == "Matrix(4x4: 1 0 0 0; 0 1 0 0; 1 1 1 0; 1 1 0 1)"
    assert [repr(m) for m in total.action.mats] == [
        "Matrix(4x4: 0 0 0 0; 0 1 0 0; 0 1 0 0; 1 1 0 1)",
        "Matrix(4x4: 0 0 0 0; -1 0 0 0; -1 0 0 0; -1 -1 -1 0)",
        "Matrix(4x4: 0 0 0 0; 0 0 0 0; 0 0 0 0; 0 1 0 0)",
        "Matrix(4x4: 0 0 0 0; 0 0 0 0; 0 0 0 0; -1 0 0 0)"]
    assert extension_from_cocycle(coc).total == total


def test_extension_refuses_invalid_cocycle():
    """The cocycle of the pinned twisted extension with one alpha entry
    changed violates the cocycle equations, and no extension is built."""
    h = LieAlgebra.aff1()
    x = CrossedModuleAlg(h, h, Matrix.identity(2), Representation.adjoint(h))
    ctx = LatticeContext(x, adjoint_rep(x))
    coc = TwoCocycle(ctx, [-2, -1], [0, -1, -1, -1, 1, 1, 0, 2],
                     Matrix(2, 2, [[1, 1], [1, 1]]))
    assert coc.validate()
    with pytest.raises(ValueError, match="invalid 2-cocycle"):
        extension_from_cocycle(coc)


def test_heisenberg_central_extension():
    ctx = central_context()
    coc = TwoCocycle(ctx, [Q1], [], Matrix.zero(1, 0))
    assert coc.validate() == []
    ext = extension_from_cocycle(coc)
    assert ext.total.h.dim == 3
    assert ext.total.h.basis_bracket(0, 1) == [0, 0, -1]
    assert ext.rows_exact()
    assert validate_crossed_module(ext.total) == []


def test_eq_v_violation_reported():
    """alpha supported on [h, h] with everything else trivial trips
    exactly equation v."""
    h = LieAlgebra.aff1()
    g = LieAlgebra.abelian(1)
    x = CrossedModuleAlg(g, h, Matrix.zero(2, 1),
                         Representation.trivial(h, 1))
    t = TwoVectorSpace(1, 1, Matrix.zero(1, 1))
    rep = TwoRep(x, t, [Matrix.zero(1, 1)],
                 Representation.trivial(h, 1), Representation.trivial(h, 1))
    ctx = LatticeContext(x, rep)
    alpha = [Q0] * ctx.cochain_dim(0, 1, 1)
    space = ctx.space(0, 1, 1)
    alpha[space.block((1,), (0,))] = Q1      # alpha(e1; x) = 1
    coc = TwoCocycle(ctx, [Q0] * ctx.cochain_dim(0, 2, 0), alpha,
                     Matrix.zero(1, 1))
    bad = coc.validate()
    assert [b[0] for b in bad] == ["v"]


def test_round_trip_canonical_splitting():
    rng = rng_from_seed(7)
    done = 0
    while done < 50:
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        coc = random_valid_cocycle(ctx, rng)
        assert coc.validate() == []
        ext = extension_from_cocycle(coc)
        assert ext.rows_exact()
        sigma0, sigma1 = canonical_splitting(ext)
        rep2, back = cocycle_from_extension(ext, sigma0, sigma1, base_x=x)
        assert back == coc
        done += 1


def rows_exact_oracle(inc, proj):
    """Exactness of 0 -> Q^c -inc-> Q^m -proj-> Q^r -> 0 by the
    library's earlier route: four ranks and the span of im(inc) with a
    kernel basis of proj."""
    if rank(inc) != inc.cols or rank(proj) != proj.rows:
        return False
    _, ker = rank_and_kernel(proj)
    img = [inc.col(j) for j in range(inc.cols)]
    if len(ker) != len(img):
        return False
    return rank(vectors_matrix(img + ker, dim=inc.rows)) == len(img)


def _shifted(rows, cols, k):
    """The rows x cols matrix with ones at (i, i + k)."""
    m = Matrix.zero(rows, cols)
    for i in range(rows):
        if 0 <= i + k < cols:
            m.data[i][i + k] = 1
    return m


def _singular(rng, n):
    """An n x n matrix of rank n - 1: the identity with its last column
    replaced by a combination of the others."""
    m = Matrix.identity(n)
    for i in range(n):
        m.data[i][n - 1] = rng.randint(-2, 2) if i < n - 1 else 0
    return m


ROW_KINDS = ("exact", "not_injective", "not_surjective", "not_complex",
             "short", "long", "random")


def random_row(rng, kind):
    """(include, project) of a row Q^c -> Q^m -> Q^r of the given kind.

    exact: m = c + r, include = P [I; 0] B and project = A [0 | I] P^-1
    for invertible A, B, P.  not_injective and not_surjective make B or A
    singular; not_complex adds to project a term that meets im(include);
    short (m = c + r - 1) and long (m = c + r + 1) keep both maps of full
    rank, with project.include != 0 for short and a one-dimensional
    homology for long; random draws both maps."""
    low = 0 if kind in ("exact", "long", "random") else 1
    c, r = rng.randint(low, 3), rng.randint(low, 3)
    m = c + r + {"short": -1, "long": 1}.get(kind, 0)
    if kind == "random":
        m = max(m + rng.randint(-1, 1), 0)
        return (random_matrix(rng, m, c), random_matrix(rng, r, m))
    p = random_unimodular(rng, m)
    p_inv = vectors_matrix([solve_linear(p, e) for e in
                            Matrix.identity(m).columns()], dim=m)
    b = random_unimodular(rng, c) if kind != "not_injective" \
        else random_unimodular(rng, c) * _singular(rng, c)
    a = random_unimodular(rng, r) if kind != "not_surjective" \
        else _singular(rng, r) * random_unimodular(rng, r)
    inc = p * _shifted(m, c, 0) * b
    proj = a * _shifted(r, m, c - 1 if kind == "short" else c) * p_inv
    if kind == "not_complex":
        # a row j < c of P^-1 meets P e_j, which include reaches
        extra = Matrix.zero(r, m)
        extra.data[rng.randrange(r)] = p_inv.data[rng.randrange(c)][:]
        proj = proj + extra
    return inc, proj


def test_rows_exact_against_oracle():
    """rows_exact agrees with the four-rank oracle on 1400 seeded rows,
    200 of each kind, in either position; every kind but exact and
    random is inexact."""
    rng = rng_from_seed(16)
    exact = Matrix.zero(0, 0)
    seen = {}
    for kind in ROW_KINDS:
        for _ in range(200):
            inc, proj = random_row(rng, kind)
            want = rows_exact_oracle(inc, proj)
            rows = [(inc, proj), (exact, exact)]
            rng.shuffle(rows)
            (iw, pg), (iv, ph) = rows
            got = ExtensionResult(None, iw, iv, pg, ph, None).rows_exact()
            assert got == want, (kind, inc, proj)
            seen.setdefault(kind, set()).add(got)
    assert seen["exact"] == {True} and seen["random"] == {False, True}
    assert all(seen[kind] == {False} for kind in ROW_KINDS[1:-1])


def test_extraction_reuses_the_cocycle_context():
    """The canonical splitting induces the cocycle's own 2-representation,
    so the extracted cocycle lives on the context the extension recorded;
    a recorded context with another 2-representation is not reused."""
    rng = rng_from_seed(74)
    replaced = 0
    for _ in range(8):
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        coc = random_valid_cocycle(ctx, rng)
        ext = extension_from_cocycle(coc)
        assert ext.ctx is ctx
        sigma0, sigma1 = canonical_splitting(ext)
        _, back = cocycle_from_extension(ext, sigma0, sigma1, base_x=x)
        assert back.ctx is ctx and back == coc
        ext.ctx = LatticeContext(x, TwoRep.trivial(x, rep.target))
        rep2, back = cocycle_from_extension(ext, sigma0, sigma1, base_x=x)
        if not contexts_match(ext.ctx, ctx):
            replaced += 1
            assert back.ctx is not ext.ctx and back.ctx.rep is rep2
        assert contexts_match(back.ctx, ctx) and back == coc
    assert replaced


def test_extraction_factors_each_inclusion_once(monkeypatch):
    """Extraction factors include_w and include_v once each and solves
    every read with those factorizations, not by a fresh elimination."""
    from lie2coh import ext as ext_module
    rng = rng_from_seed(75)
    x, rep = random_context(rng, 2)
    coc = random_valid_cocycle(LatticeContext(x, rep), rng)
    e = extension_from_cocycle(coc)
    factored = []
    original = ext_module.LinearSolver

    def solver(a):
        factored.append(a)
        return original(a)

    def refuse(*args):
        raise AssertionError("a fresh elimination per read")

    monkeypatch.setattr(ext_module, "LinearSolver", solver)
    monkeypatch.setattr(ext_module, "solve_linear", refuse)
    _, back = cocycle_from_extension(e, *canonical_splitting(e), base_x=x)
    assert back == coc
    assert factored == [e.include_w, e.include_v]


def test_splitting_independence():
    rng = rng_from_seed(8)
    done = 0
    while done < 15:
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        coc = random_valid_cocycle(ctx, rng)
        ext = extension_from_cocycle(coc)
        sigma0, sigma1 = canonical_splitting(ext)
        lam0 = random_matrix(rng, ctx.dv, ctx.dh, 1)
        lam1 = random_matrix(rng, ctx.dw, ctx.dg, 1)
        for b in range(ctx.dh):
            for i in range(ctx.dv):
                sigma0.data[x.h.dim + i][b] += lam0.data[i][b]
        for a in range(ctx.dg):
            for i in range(ctx.dw):
                sigma1.data[x.g.dim + i][a] += lam1.data[i][a]
        rep2, other = cocycle_from_extension(ext, sigma0, sigma1, base_x=x)
        sol = coboundary_solve(coc, other)
        assert sol is not None
        # verify the recovered coboundary reproduces the difference
        got0, got1 = sol
        diff = [b - a for a, b in zip(coc.total_vector(),
                                      other.total_vector())]
        offs, dim1 = ctx.block_offsets(1)
        vec = [Q0] * dim1
        if (0, 1, 0) in offs:
            space = ctx.space(0, 1, 0)
            for b in range(ctx.dh):
                pos = offs[(0, 1, 0)] + space.block((b,), ())
                for i in range(ctx.dv):
                    vec[pos + i] = got0.data[i][b]
        if (0, 0, 1) in offs:
            space = ctx.space(0, 0, 1)
            for a in range(ctx.dg):
                pos = offs[(0, 0, 1)] + space.block((), (a,))
                for i in range(ctx.dw):
                    vec[pos + i] = got1.data[i][a]
        assert ctx.nabla(1).apply(vec) == diff
        done += 1


def test_coboundary_examples():
    ctx = central_context()
    coc = TwoCocycle(ctx, [Q1], [], Matrix.zero(1, 0))
    sol = coboundary_solve(coc, coc)
    assert sol is not None
    assert sol[0].is_zero() and sol[1].cols == 0
    other = TwoCocycle(ctx, [Fraction(2)], [], Matrix.zero(1, 0))
    assert coboundary_solve(coc, other) is None


def test_coboundary_constructed_shift():
    rng = rng_from_seed(9)
    for _ in range(10):
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        coc = random_valid_cocycle(ctx, rng)
        lam0 = random_matrix(rng, ctx.dv, ctx.dh, 2)
        lam1 = random_matrix(rng, ctx.dw, ctx.dg, 2)
        offs, dim1 = ctx.block_offsets(1)
        vec = [Q0] * dim1
        if (0, 1, 0) in offs:
            space = ctx.space(0, 1, 0)
            for b in range(ctx.dh):
                pos = offs[(0, 1, 0)] + space.block((b,), ())
                for i in range(ctx.dv):
                    vec[pos + i] = lam0.data[i][b]
        if (0, 0, 1) in offs:
            space = ctx.space(0, 0, 1)
            for a in range(ctx.dg):
                pos = offs[(0, 0, 1)] + space.block((), (a,))
                for i in range(ctx.dw):
                    vec[pos + i] = lam1.data[i][a]
        shift = ctx.nabla(1).apply(vec)
        offs2, _ = ctx.block_offsets(2)
        new_vec = [a + b for a, b in zip(coc.total_vector(), shift)]

        def grab(block, size):
            if block not in offs2:
                return []
            base = offs2[block]
            return new_vec[base:base + size]

        om0 = grab((0, 2, 0), ctx.cochain_dim(0, 2, 0))
        alpha = grab((0, 1, 1), ctx.cochain_dim(0, 1, 1))
        phi_g = Matrix.zero(ctx.dv, ctx.dg)
        if (1, 1, 0) in offs2:
            space = ctx.space(1, 1, 0)
            base = offs2[(1, 1, 0)]
            for col in range(ctx.dg):
                pos = space.block((col,), ())
                for i in range(ctx.dv):
                    phi_g.data[i][col] = new_vec[base + pos + i]
        shifted = TwoCocycle(ctx, om0, alpha, phi_g)
        assert shifted.validate() == []
        assert coboundary_solve(coc, shifted) is not None


def test_class_count_matches_h2():
    rng = rng_from_seed(10)
    contexts = [central_context()]
    for _ in range(8):
        x, rep = random_context(rng, 2)
        contexts.append(LatticeContext(x, rep))
    for ctx in contexts:
        assert cocycle_slice_class_count(ctx) == ctx.total_cohomology(2)[0]


def test_class_count_reuses_the_slice_conditions(monkeypatch):
    """After cocycle_space_basis on a context, the class count builds no
    slice cochain again; it counts the same either way."""
    from lie2coh import ext
    x, rep = random_context(rng_from_seed(12), 2)
    ctx = LatticeContext(x, rep)
    cold = cocycle_slice_class_count(LatticeContext(x, rep))
    cocycle_space_basis(ctx)
    calls = []
    original = ext.cocycle_from_slice
    monkeypatch.setattr(ext, "cocycle_from_slice",
                        lambda *a: calls.append(a) or original(*a))
    assert cocycle_slice_class_count(ctx) == cold == \
        ctx.total_cohomology(2)[0]
    assert calls == []


def test_class_count_applies_no_matrix(monkeypatch):
    """With the slice conditions built, the class count maps no vector
    through nabla_1: it ranks nabla_1's own rows at the slice coordinates."""
    from lie2coh import numeric
    rng = rng_from_seed(14)
    contexts = [central_context()] + [LatticeContext(*random_context(rng, 2))
                                      for _ in range(6)]
    expected = []
    for ctx in contexts:
        cocycle_space_basis(ctx)
        expected.append(ctx.total_cohomology(2)[0])

    def refuse(*args):
        raise AssertionError("a matrix was applied to a vector")

    monkeypatch.setattr(numeric.Matrix, "apply", refuse)
    monkeypatch.setattr(numeric.SparseMatrix, "apply", refuse)
    assert [cocycle_slice_class_count(ctx) for ctx in contexts] == expected


def test_antisymmetry_defect_shared_by_validate_and_slice():
    """Equation (ii) is one check: validate names the pairs whose
    omega1_antisymmetry defect is nonzero, and the slice conditions end
    with those defects, coordinate by coordinate."""
    rng = rng_from_seed(15)
    seen = 0
    for _ in range(40):
        ctx = LatticeContext(*random_context(rng, 2))
        n = (ctx.cochain_dim(0, 2, 0) + ctx.cochain_dim(0, 1, 1)
             + ctx.dv * ctx.dg)
        u = [rng.randint(-2, 2) for _ in range(n)]
        coc = cocycle_from_slice(ctx, u)
        defects = coc.omega1_antisymmetry()
        assert [pair for pair, _ in defects] == \
            [(a, b) for a in range(ctx.dg) for b in range(a + 1, ctx.dg)]
        assert [("ii", pair) for pair, d in defects if any(d)] == \
            [v for v in coc.validate() if v[0] == "ii"]
        flat = [x for _, d in defects for x in d]
        cond = _slice_conditions(ctx)
        tail = cond.rows - len(flat)
        assert [sum(cond.data[tail + i][k] * u[k] for k in range(n))
                for i in range(len(flat))] == flat
        seen += any(flat)
    assert seen >= 5


def test_cohomologous_extensions_isomorphic():
    """psi(z, a) = (z, a + lambda(z)) intertwines the two extensions."""
    rng = rng_from_seed(11)
    done = 0
    while done < 8:
        x, rep = random_context(rng, 2)
        ctx = LatticeContext(x, rep)
        c1 = random_valid_cocycle(ctx, rng)
        c2 = random_valid_cocycle(ctx, rng)
        sol = coboundary_solve(c1, c2)
        if sol is None:
            continue
        lam0, lam1 = sol
        e1 = extension_from_cocycle(c1)
        e2 = extension_from_cocycle(c2)
        dg, dh, dw, dv = ctx.dg, ctx.dh, ctx.dw, ctx.dv
        psi1 = Matrix.identity(dg + dw)
        for a in range(dg):
            for i in range(dw):
                psi1.data[dg + i][a] = lam1.data[i][a]
        psi0 = Matrix.identity(dh + dv)
        for b in range(dh):
            for i in range(dv):
                psi0.data[dh + i][b] = lam0.data[i][b]
        # commutes with the structural maps
        assert psi0 * e1.total.mu == e2.total.mu * psi1
        # intertwines the brackets and actions on basis vectors
        for i in range(dg + dw):
            for j in range(i + 1, dg + dw):
                lhs = psi1.apply(e1.total.g.basis_bracket(i, j))
                rhs = e2.total.g.bracket(psi1.apply(_unit(dg + dw, i)),
                                         psi1.apply(_unit(dg + dw, j)))
                assert lhs == rhs
        for i in range(dh + dv):
            for j in range(i + 1, dh + dv):
                lhs = psi0.apply(e1.total.h.basis_bracket(i, j))
                rhs = e2.total.h.bracket(psi0.apply(_unit(dh + dv, i)),
                                         psi0.apply(_unit(dh + dv, j)))
                assert lhs == rhs
        for b in range(dh + dv):
            lhs = psi1 * e1.total.action.mats[b]
            rhs_mat = Matrix.zero(dg + dw, dg + dw)
            moved = e2.total.action.act(psi0.apply(_unit(dh + dv, b)))
            rhs = moved * psi1
            assert lhs == rhs
        # respects inclusions and projections
        assert psi1 * e1.include_w == e2.include_w
        assert e2.project_g * psi1 == e1.project_g
        done += 1


def test_trivial_coeff_direct_product():
    h = LieAlgebra.sl2()
    x = CrossedModuleAlg(LieAlgebra.abelian(0), h, Matrix.zero(3, 0),
                         Representation.trivial(h, 0))
    out = trivial_coeff_extension(x, [Q0, Q0, Q0], [Q0, Q0, Q0])
    assert out.h.dim == 4
    assert validate_crossed_module(out) == []
    # quotient by the central line recovers h
    for (i, j), vec in out.h.brackets.items():
        assert vec[:3] == h.basis_bracket(i, j)


def test_trivial_coeff_heisenberg():
    h = LieAlgebra.abelian(2)
    x = CrossedModuleAlg(LieAlgebra.abelian(0), h, Matrix.zero(2, 0),
                         Representation.trivial(h, 0))
    out = trivial_coeff_extension(x, [Q1], [Q0, Q0])
    assert out.h.basis_bracket(0, 1) == [0, 0, -1]
    assert validate_crossed_module(out) == []


def test_trivial_coeff_rejects_and_reports():
    h = LieAlgebra.abelian(2)
    x = CrossedModuleAlg(LieAlgebra.abelian(0), h, Matrix.zero(2, 0),
                         Representation.trivial(h, 0))
    defects = trivial_cocycle_defects(x, [Q1], [Q1, Q0])
    assert sorted(defects) == ["partial_phi"]


def test_trivial_coeff_cohomologous_isomorphic():
    """(omega, phi) and (omega, phi) + d psi give extensions intertwined
    by (y, t) -> (y, t + psi(y))."""
    from lie2coh.lattice import trivial_total_complex, trivial_context
    from lie2coh.lie2 import xmod_from_quadruple
    h = LieAlgebra.aff1()
    cases = [
        CrossedModuleAlg(LieAlgebra.abelian(0), h, Matrix.zero(2, 0),
                         Representation.trivial(h, 0)),
        xmod_from_quadruple(h, [1], 0, Representation.trivial(h, 0)),
    ]
    for x in cases:
        psi = [Q1, Fraction(2)]                   # an element of h*
        d_psi = trivial_total_complex(x, 1).apply(psi)
        n_omega = trivial_context(x).cochain_dim(0, 2, 0)
        base_omega = [Q0] * n_omega
        base_phi = [Q0] * (x.g.dim + x.h.dim)
        shifted_omega = [d_psi[i] for i in range(n_omega)]
        shifted_phi = [d_psi[n_omega + i] for i in range(x.g.dim + x.h.dim)]
        e1 = trivial_coeff_extension(x, base_omega, base_phi)
        e2 = trivial_coeff_extension(x, shifted_omega, shifted_phi)
        dim = x.h.dim + 1
        iso = Matrix.identity(dim)
        for b in range(x.h.dim):
            iso.data[x.h.dim][b] = psi[b]
        for i in range(dim):
            for j in range(i + 1, dim):
                lhs = iso.apply(e1.h.basis_bracket(i, j))
                rhs = e2.h.bracket(iso.apply(_unit(dim, i)),
                                   iso.apply(_unit(dim, j)))
                assert lhs == rhs
        assert iso * e1.mu == e2.mu


def test_mu_phi_consumes_exactly_trivial_cocycles():
    """Every d-closed degree-2 element of the trivial total complex is
    accepted; every non-closed one is rejected with named conditions."""
    from lie2coh.lattice import trivial_total_complex, trivial_context
    from lie2coh.numeric import rank_and_kernel
    from lie2coh.lie2 import xmod_from_quadruple
    h = LieAlgebra.aff1()
    x = xmod_from_quadruple(h, [1], 0, Representation.trivial(h, 0))
    d2 = trivial_total_complex(x, 2)
    _, kernel = rank_and_kernel(d2)
    n_omega = trivial_context(x).cochain_dim(0, 2, 0)
    for vec in kernel:
        out = trivial_coeff_extension(x, vec[:n_omega], vec[n_omega:])
        assert validate_crossed_module(out) == []
    rng = rng_from_seed(17)
    rejected = 0
    for _ in range(10):
        vec = [Q0 + rng.randint(-2, 2) for _ in range(d2.cols)]
        if any(c != 0 for c in d2.apply(vec)):
            try:
                trivial_coeff_extension(x, vec[:n_omega], vec[n_omega:])
                assert False, "non-cocycle accepted"
            except ValueError:
                rejected += 1
    assert rejected > 0


def test_eq_iv_violation_reported():
    """A nonzero phimap with a rho0^0-action and mu = 0 trips exactly the
    epsilon-homomorphism equation iv."""
    h = LieAlgebra.abelian(1)
    g = LieAlgebra.abelian(1)
    x = CrossedModuleAlg(g, h, Matrix.zero(1, 1),
                         Representation.trivial(h, 1))
    t = TwoVectorSpace(1, 1, Matrix.zero(1, 1))
    rep = TwoRep(x, t, [Matrix.zero(1, 1)],
                 Representation.trivial(h, 1),
                 Representation(h, 1, [Matrix(1, 1, [[1]])]))
    ctx = LatticeContext(x, rep)
    coc = TwoCocycle(ctx, [Q0] * ctx.cochain_dim(0, 2, 0),
                     [Q0] * ctx.cochain_dim(0, 1, 1),
                     Matrix(1, 1, [[1]]))
    assert [b[0] for b in coc.validate()] == ["iv"]


def pointwise_omega1(coc, x0, x1):
    """omega1(x0, x1) = rho1(x1) phi_g(x0) + alpha(mu x0; x1), evaluated
    pointwise through rho1_of and LatticeCochain.evaluate: the oracle for
    the slice map."""
    ctx = coc.ctx
    a = ctx.rep.rho1_of(x1).apply(coc.phi_g.apply(x0))
    b = coc.alpha.evaluate([ctx.x.mu.apply(x0)], [x1])
    return [p + q for p, q in zip(a, b)]


def test_slice_map_matches_pointwise_omega1():
    """omega1_values, omega1_antisymmetry and total_vector agree with the
    pointwise evaluation of omega1 on random slices of 60 seeded contexts,
    among them at least 10 with dim g >= 2 and dim W >= 1."""
    rng = rng_from_seed(21)
    rich = 0
    for _ in range(60):
        ctx = LatticeContext(*random_context(rng, 2))
        dg = ctx.dg
        rich += dg >= 2 and ctx.dw >= 1
        n = (ctx.cochain_dim(0, 2, 0) + ctx.cochain_dim(0, 1, 1)
             + ctx.dv * dg)
        coc = cocycle_from_slice(ctx, [Fraction(rng.randint(-3, 3),
                                                rng.randint(1, 2))
                                       for _ in range(n)])
        e = [_unit(dg, a) for a in range(dg)]
        space = ctx.space(0, 0, 2)
        omega1 = [Q0] * space.total_dim
        defects = []
        for a, b in space.g_tuples:
            start = space.block((), (a, b))
            value = pointwise_omega1(coc, e[a], e[b])
            omega1[start:start + space.coeff_dim] = value
            defects.append(((a, b), [s + t for s, t in zip(
                value, pointwise_omega1(coc, e[b], e[a]))]))
        assert coc.omega1_values() == omega1
        assert coc.omega1_antisymmetry() == defects
        phimap = ctx.block_values((1, 1, 0), coc.phi_g)
        assert coc.total_vector() == ctx.join(2, {
            (0, 2, 0): coc.omega0.values, (0, 1, 1): coc.alpha.values,
            (1, 1, 0): phimap, (0, 0, 2): omega1})
    assert rich >= 10


# SHA-256 of the sorted nonzero entries of the slice conditions, row by
# row, with values as format_rat strings; taken before the slice map
SLICE_CONDITIONS_SHA256 = {
    "bench/problems/adjoint_aff1.json":
        "5bec60bcfa76547a57e66db35b11fd9d5f4431104509ec950546b2f952258c26",
    "bench/problems/glphi_proj_adjoint.json":
        "d1199f187e14a1d7efea7c058ac1899d2c5b4bc03ac2a49a8cd285848b5b59a1",
    "bench/problems/glphi_zero_adjoint.json":
        "86f00fc6b3e7aa6138d38d19e8331dcb37762c181e3bdb93c329134f76cdef3a",
    "bench/problems/heisenberg_g0_adjoint.json":
        "b0767ba218843fd236d49dbce4c13d9ce34d8bd07a9840a6a113e66483b3fa2a",
    "tests/fixtures/adjoint_aff1.json":
        "5bec60bcfa76547a57e66db35b11fd9d5f4431104509ec950546b2f952258c26",
    "tests/fixtures/central_h2.json":
        "e1df09d4492f4f50e57c7d2a31e161803bbf5e8df2a90e8863de7bccdfbb8256",
    "tests/fixtures/twisted_aff1.json":
        "e83182dd385fc0a76ce59a9240e76a63366f652e471e4f2e11dcae712db2d6ca",
}


@pytest.mark.parametrize("name", sorted(SLICE_CONDITIONS_SHA256))
def test_slice_conditions_pinned_by_hash(name):
    cond = _slice_conditions(load_problem(os.path.join(ROOT, name)).context())
    rows = [[(j, format_rat(x)) for j, x in enumerate(row) if x]
            for row in cond.data]
    assert hashlib.sha256(repr((cond.rows, cond.cols, rows)).encode()
                          ).hexdigest() == SLICE_CONDITIONS_SHA256[name]


def test_slice_conditions_and_validate_evaluate_nothing(monkeypatch):
    """Once nabla_2 is built, the slice conditions and validate are read
    off the slice map: no cochain is evaluated and no rho1 is formed."""
    from lie2coh import tworep
    rng = rng_from_seed(22)
    contexts = [load_problem(os.path.join(
        ROOT, "tests/fixtures/twisted_aff1.json")).context()]
    while len(contexts) < 6:
        ctx = LatticeContext(*random_context(rng, 2))
        if ctx.dg >= 2 and ctx.dw >= 1:
            contexts.append(ctx)
    cocycles = [random_valid_cocycle(LatticeContext(ctx.x, ctx.rep), rng)
                for ctx in contexts]
    for ctx in contexts:
        ctx.nabla(2)

    def refuse(*args):
        raise AssertionError("evaluated pointwise")

    monkeypatch.setattr(LatticeCochain, "evaluate", refuse)
    monkeypatch.setattr(tworep.TwoRep, "rho1_of", refuse)
    for ctx, coc in zip(contexts, cocycles):
        _slice_conditions(ctx)
        moved = TwoCocycle(ctx, coc.omega0.values, coc.alpha.values,
                           coc.phi_g)
        assert moved.validate() == []
