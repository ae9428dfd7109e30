"""Crossed modules, nerves, simplicial maps, and gl(phi)."""

import random
from fractions import Fraction

import pytest

from lie2coh.numeric import Matrix, Q0, Q1, in_span
from lie2coh.liealg import (LieAlgebra, Representation, validate_lie_algebra,
                            _unit)
from lie2coh.lie2 import (CrossedModuleAlg, TwoVectorSpace,
                          validate_crossed_module, lie2_arrows,
                          xmod_from_quadruple, structure_report,
                          nerve_algebra, face_matrix,
                          final_target_matrix, gl_phi)
from lie2coh.tworep import twisted_semidirect
from lie2coh.samples import (rng_from_seed, random_crossed_module,
                             random_context, random_lie_algebra,
                             random_matrix,
                             random_descending_rep, _ideal_index_choices)


def trivial_g_xmod(h):
    g = LieAlgebra.abelian(0)
    return CrossedModuleAlg(g, h, Matrix.zero(h.dim, 0),
                            Representation.trivial(h, 0))


def ideal_inclusion_aff1():
    """h = aff(1), g = the ideal spanned by e1, mu = inclusion, adjoint."""
    return xmod_from_quadruple(LieAlgebra.aff1(), [1], 0,
                               Representation.trivial(LieAlgebra.aff1(), 0))


def scalar_action_xmod():
    """g = h = Q with mu = 0 and L_y x = y x."""
    g = LieAlgebra.abelian(1)
    h = LieAlgebra.abelian(1)
    return CrossedModuleAlg(g, h, Matrix.zero(1, 1),
                            Representation(h, 1, [Matrix(1, 1, [[1]])]))


def test_trivial_g_valid():
    assert validate_crossed_module(trivial_g_xmod(LieAlgebra.sl2())) == []


def test_ideal_inclusion_valid():
    x = ideal_inclusion_aff1()
    assert validate_crossed_module(x) == []
    assert x.g.dim == 1 and x.h.dim == 2


def test_identity_mu_trivial_action_valid():
    g = LieAlgebra.abelian(1)
    h = LieAlgebra.abelian(1)
    x = CrossedModuleAlg(g, h, Matrix.identity(1),
                         Representation.trivial(h, 1))
    assert validate_crossed_module(x) == []


def test_peiffer_violation_flagged():
    g = LieAlgebra.abelian(1)
    h = LieAlgebra.abelian(1)
    x = CrossedModuleAlg(g, h, Matrix.identity(1),
                         Representation(h, 1, [Matrix(1, 1, [[1]])]))
    names = set(b[0] for b in validate_crossed_module(x))
    assert "peiffer" in names


def test_violation_witnesses_exact():
    aff, ab1 = LieAlgebra.aff1(), LieAlgebra.abelian(1)
    # rho([e0, e1]) = rho(e1) = 1 but [rho(e0), rho(e1)] = 0
    x = CrossedModuleAlg(ab1, aff, Matrix.zero(2, 1),
                         Representation(aff, 1, [Matrix(1, 1, [[1]])] * 2))
    assert validate_crossed_module(x) == [("action_homomorphism", (0, 1))]
    # L = diag(1, 0, 0) on the Heisenberg algebra is no derivation, and
    # mu = 0 breaks Peiffer on the nonzero bracket
    heis = LieAlgebra.heisenberg3()
    x = CrossedModuleAlg(heis, ab1, Matrix.zero(1, 3), Representation(
        ab1, 3, [Matrix(3, 3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])]))
    assert validate_crossed_module(x) == [("derivation", (0, 0, 1)),
                                          ("peiffer", (0, 1)),
                                          ("peiffer", (1, 0))]
    # mu(L_{e0} e0) = 0 but [e0, mu e0] = [e0, e1] = e1
    x = CrossedModuleAlg(ab1, aff, Matrix(2, 1, [[0], [1]]),
                         Representation.trivial(aff, 1))
    assert validate_crossed_module(x) == [("equivariance", (0, 0))]


def test_arrows_of_trivial_g_is_h():
    h = LieAlgebra.sl2()
    arrows = lie2_arrows(trivial_g_xmod(h))
    assert arrows.dim == 3
    assert arrows.brackets == h.brackets


def test_arrows_scalar_action():
    arrows = lie2_arrows(scalar_action_xmod())
    # [(x0,y0),(x1,y1)] = (y0 x1 - y1 x0, 0): basis g = index 0, h = index 1
    assert arrows.basis_bracket(0, 1) == [-1, 0]


def test_arrows_ideal_inclusion_jacobi():
    arrows = lie2_arrows(ideal_inclusion_aff1())
    assert arrows.dim == 3
    assert validate_lie_algebra(arrows) == []


def test_quadruple_examples():
    h = LieAlgebra.abelian(2)
    rho = Representation(h, 1, [Matrix(1, 1, [[1]]), Matrix(1, 1, [[2]])])
    x = xmod_from_quadruple(h, [], 1, rho)
    assert x.g.dim == 1 and x.mu.is_zero()
    aff = LieAlgebra.aff1()
    rho = Representation(aff, 1, [Matrix(1, 1, [[1]]), Matrix.zero(1, 1)])
    x = xmod_from_quadruple(aff, [1], 1, rho)
    assert x.g.dim == 2
    assert validate_crossed_module(x) == []


def test_quadruple_rejects_non_ideal():
    aff = LieAlgebra.aff1()
    with pytest.raises(ValueError):
        xmod_from_quadruple(aff, [0], 0, Representation.trivial(aff, 0))


def test_quadruple_rejects_non_descending_rep():
    aff = LieAlgebra.aff1()
    rho = Representation(aff, 1, [Matrix.zero(1, 1), Matrix(1, 1, [[1]])])
    with pytest.raises(ValueError):
        xmod_from_quadruple(aff, [1], 1, rho)


def test_structure_report_examples():
    rep = structure_report(trivial_g_xmod(LieAlgebra.aff1()))
    assert rep["orbit_basis"] == [] and rep["kernel_basis"] == []
    g = LieAlgebra.abelian(1)
    h = LieAlgebra.abelian(1)
    x = CrossedModuleAlg(g, h, Matrix.identity(1),
                         Representation.trivial(h, 1))
    rep = structure_report(x)
    assert len(rep["orbit_basis"]) == 1 and rep["kernel_basis"] == []
    aff = LieAlgebra.aff1()
    rho = Representation(aff, 1, [Matrix(1, 1, [[1]]), Matrix.zero(1, 1)])
    x = xmod_from_quadruple(aff, [1], 1, rho)
    rep = structure_report(x)
    assert len(rep["kernel_basis"]) == 1
    assert rep["kernel_abelian"] and rep["kernel_central"]
    assert rep["induced_action_well_defined"]
    # the induced representation recovers rho on the kernel = V block
    assert rep["induced_action"][0].data == [[1]]
    assert rep["induced_action"][1].data == [[0]]


def test_structure_report_random():
    rng = rng_from_seed(12)
    for _ in range(20):
        x = random_crossed_module(rng, 3)
        rep = structure_report(x)
        assert rep["orbit_is_ideal"]
        assert rep["kernel_abelian"] and rep["kernel_central"]
        assert rep["induced_action_well_defined"]


def _greedy_orbit_basis(x):
    """The columns of mu that are not in the span of those chosen before
    them, one in_span test per column."""
    chosen = []
    for v in (x.mu.col(j) for j in range(x.g.dim)):
        if any(c != 0 for c in v) and not in_span(chosen, v):
            chosen.append(v)
    return chosen


def test_orbit_basis_matches_greedy_choice():
    """structure_report's orbit basis, the pivot columns of mu, is the
    greedy choice of independent columns: on 200 seeded crossed modules
    (some with mu = 0, some with h = 0) and on 200 abelian ones whose mu
    has dependent columns."""
    seen = {"mu = 0": 0, "h = 0": 0, "dependent": 0}
    rng = random.Random(7)
    xmods = [random_crossed_module(rng_from_seed(seed), 3)
             for seed in range(200)]
    for _ in range(200):
        dg, dh = rng.randint(0, 4), rng.randint(0, 3)
        h = LieAlgebra.abelian(dh)
        xmods.append(CrossedModuleAlg(LieAlgebra.abelian(dg), h,
                                      random_matrix(rng, dh, dg, 1),
                                      Representation.trivial(h, dg)))
    for x in xmods:
        want = _greedy_orbit_basis(x)
        assert structure_report(x)["orbit_basis"] == want
        seen["mu = 0"] += x.g.dim > 0 and x.mu.is_zero()
        seen["h = 0"] += x.h.dim == 0
        seen["dependent"] += 0 < len(want) < x.g.dim
    assert all(seen.values()), seen


def test_nerve_levels():
    x = ideal_inclusion_aff1()
    assert nerve_algebra(x, 0).brackets == x.h.brackets
    n1 = nerve_algebra(x, 1)
    assert n1.brackets == lie2_arrows(x).brackets
    x0 = trivial_g_xmod(LieAlgebra.abelian(2))
    n2 = nerve_algebra(x0, 2)
    assert n2.dim == 2
    rng = rng_from_seed(8)
    for _ in range(10):
        x = random_crossed_module(rng, 2)
        for p in range(4):
            assert validate_lie_algebra(nerve_algebra(x, p)) == []


def dense_nerve_algebra(x, p):
    """The bracket of g_p from dense arrow vectors, one basis pair at a
    time: the oracle for nerve_algebra."""
    assert p >= 0
    dg, dh = x.g.dim, x.h.dim
    d = p * dg + dh

    def split(v):
        xs = [v[k * dg:(k + 1) * dg] for k in range(p)]
        return xs, v[p * dg:]

    def bracket(u, v):
        xs_u, y_u = split(u)
        xs_v, y_v = split(v)
        mus_u = [x.mu.apply(xk) for xk in xs_u]
        mus_v = [x.mu.apply(xk) for xk in xs_v]
        out = []
        for j in range(p):
            bu = list(y_u)
            bv = list(y_v)
            for k in range(j + 1, p):
                bu = [a + b for a, b in zip(bu, mus_u[k])]
                bv = [a + b for a, b in zip(bv, mus_v[k])]
            slot = [a + b - c for a, b, c in
                    zip(x.g.bracket(xs_u[j], xs_v[j]),
                        x.action.act(bu).apply(xs_v[j]),
                        x.action.act(bv).apply(xs_u[j]))]
            out.extend(slot)
        out.extend(x.h.bracket(y_u, y_v))
        return out

    brackets = {}
    for i in range(d):
        ei = _unit(d, i)
        for j in range(i + 1, d):
            vec = bracket(ei, _unit(d, j))
            if any(c != 0 for c in vec):
                brackets[(i, j)] = vec
    return LieAlgebra(d, brackets)


def test_nerve_algebra_matches_dense_formula():
    xmods = [random_crossed_module(rng_from_seed(k), 2) for k in range(30)]
    xmods.append(gl_phi(TwoVectorSpace(2, 2, Matrix.zero(2, 2))))
    xmods.append(trivial_g_xmod(LieAlgebra.heisenberg3()))
    # the formula holds for any data: in this one, which is no crossed
    # module, mu e_0 = e_0 + e_1 and a slot sums the columns L_0 e_0 = e_1
    # and L_1 e_0 = e_0 in that order
    ab2 = LieAlgebra.abelian(2)
    xmods.append(CrossedModuleAlg(ab2, ab2, Matrix(2, 2, [[1, 0], [1, 0]]),
                                  Representation(ab2, 2, [
                                      Matrix(2, 2, [[0, 0], [1, 0]]),
                                      Matrix(2, 2, [[1, 0], [0, 0]])])))
    for x in xmods:
        for p in range(5):
            got = nerve_algebra(x, p)
            want = dense_nerve_algebra(x, p)
            assert got.dim == want.dim
            assert got.brackets == want.brackets, (p, x)
            assert got.structure == want.structure, (p, x)


def test_library_algebras_skip_the_checked_constructor(monkeypatch):
    """nerve_algebra, gl_phi, twisted_semidirect and xmod_from_quadruple
    hand sparse structure constants to LieAlgebra._of: with the checked
    constructor refused they still build every algebra, each equal, list
    for list, to the one the checked constructor reads off its dense
    brackets."""
    rng = rng_from_seed(41)
    contexts = [random_context(rng) for _ in range(20)]
    cochains = []
    for x, r in contexts:
        dg, dh = x.g.dim, x.h.dim
        dw, dv = r.target.dim_w, r.target.dim_v
        cochains.append(tuple(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             for _ in range(n)]
            for n in (dh * (dh - 1) // 2 * dv, dg * (dg - 1) // 2 * dw,
                      dh * dg * dw)) + (random_matrix(rng, dv, dg),))
    phis = [TwoVectorSpace(dw, dv, random_matrix(rng, dv, dw))
            for dw, dv in ((1, 1), (2, 2), (2, 3), (3, 2))]
    phis.append(TwoVectorSpace(2, 2, Matrix.zero(2, 2)))
    quadruples = []
    for dim in (2, 3, 3, 4):
        h = random_lie_algebra(rng, dim)
        for ideal in _ideal_index_choices(h):
            quadruples.append((h, ideal, 1,
                               random_descending_rep(rng, h, ideal, 1)))
    assert len(quadruples) > 10

    def build():
        out = []
        for (x, r), cochain in zip(contexts, cochains):
            out += [nerve_algebra(x, p) for p in range(4)]
            e = twisted_semidirect(x, r, *cochain)
            out += [e.g, e.h]
        for v in phis:
            x = gl_phi(v)
            out += [x.g, x.h]
        out += [xmod_from_quadruple(*q).g for q in quadruples]
        return out

    want = [LieAlgebra(g.dim, g.brackets) for g in build()]

    def refused(self, dim, brackets=None):
        raise AssertionError("checked LieAlgebra constructor called")

    monkeypatch.setattr(LieAlgebra, "__init__", refused)
    got = build()
    assert [(g.dim, g.structure) for g in got] == \
        [(g.dim, g.structure) for g in want]


def test_faces_level_zero():
    x = scalar_action_xmod()
    faces = [face_matrix(x, 0, k) for k in range(2)]
    # s(x, y) = y and t(x, y) = y + mu(x)
    assert faces[0].data == [[0, 1]]
    assert faces[1].data == [[0, 1]]  # mu = 0 here
    y = ideal_inclusion_aff1()
    faces = [face_matrix(y, 0, k) for k in range(2)]
    assert faces[0].data == [[0, 1, 0], [0, 0, 1]]
    assert faces[1].data == [[0, 1, 0], [1, 0, 1]]
    assert final_target_matrix(y, 0) == Matrix.identity(2)  # g_0 = h
    target1 = final_target_matrix(y, 1)
    assert target1.data == [[0, 1, 0], [1, 0, 1]]


def test_faces_merge_slot():
    x = ideal_inclusion_aff1()
    faces = [face_matrix(x, 1, k) for k in range(3)]
    # k = 1 on (x0, x1; y) -> (x0 + x1; y)
    v = [Q1, Q0 + 2, Q0, Q1]  # x0 = 1, x1 = 2, y = (0, 1)
    assert faces[1].apply(v) == [3, 0, 1]


def test_faces_are_homomorphisms():
    rng = rng_from_seed(3)
    for _ in range(6):
        x = random_crossed_module(rng, 2)
        for p in range(3):
            src = nerve_algebra(x, p + 1)
            tgt = nerve_algebra(x, p)
            for k in range(p + 2):
                f = face_matrix(x, p, k)
                for i in range(src.dim):
                    for j in range(i + 1, src.dim):
                        lhs = f.apply(src.basis_bracket(i, j))
                        rhs = tgt.bracket(f.apply(_unit(src.dim, i)),
                                          f.apply(_unit(src.dim, j)))
                        assert lhs == rhs


def test_simplicial_identities():
    """d_j o d_k = d_k o d_{j+1} for j >= k, as matrices, p <= 2."""
    rng = rng_from_seed(4)
    for _ in range(5):
        x = random_crossed_module(rng, 2)
        for p in range(3):
            for k in range(p + 2):
                for j in range(k, p + 2):
                    lhs = face_matrix(x, p, j) * face_matrix(x, p + 1, k)
                    rhs = face_matrix(x, p, k) * face_matrix(x, p + 1, j + 1)
                    assert lhs == rhs, (p, j, k)


def test_trivial_g_faces_identity():
    x = trivial_g_xmod(LieAlgebra.abelian(2))
    for p in range(3):
        for k in range(p + 2):
            assert face_matrix(x, p, k) == Matrix.identity(2)


def test_gl_phi_line():
    v = TwoVectorSpace(1, 1, Matrix(1, 1, [[1]]))
    x = gl_phi(v)
    assert x.g.dim == 1 and x.h.dim == 1
    assert x.g.brackets == {}
    # the pair basis is (F, f) with F = f
    f_mat, s_mat = x.h_basis[0]
    assert f_mat == s_mat


def test_gl_phi_projection():
    v = TwoVectorSpace(2, 1, Matrix(1, 2, [[1, 0]]))
    x = gl_phi(v)
    assert x.h.dim == 3 and x.g.dim == 2
    # [A, B]_phi = (0, a2 b1 - a1 b2) in the basis E_00, E_10
    br = x.g.basis_bracket(0, 1)
    assert br == [0, -1]
    assert validate_crossed_module(x) == []


def test_gl_phi_zero_map():
    v = TwoVectorSpace(2, 2, Matrix.zero(2, 2))
    x = gl_phi(v)
    assert x.h.dim == 8
    assert x.g.brackets == {}
    assert x.mu.is_zero()
    assert validate_crossed_module(x) == []


def test_gl_phi_random_valid():
    rng = rng_from_seed(10)
    for _ in range(25):
        dw, dv = rng.randint(0, 4), rng.randint(0, 4)
        v = TwoVectorSpace(dw, dv, Matrix(dv, dw,
                                          [[rng.randint(-2, 2)
                                            for _ in range(dw)]
                                           for _ in range(dv)]))
        x = gl_phi(v)
        assert validate_crossed_module(x) == []
        assert x.g.dim == dw * dv
