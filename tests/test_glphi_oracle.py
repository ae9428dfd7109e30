"""``lie2.gl_phi`` against the construction it replaced, kept here as a
test-only oracle: every bracket, structural-map column and action column
formed with dense ``Matrix`` products and read as coordinates in the
basis of gl(phi)_0 by one ``LinearSolver`` solve per pair.

The two must agree on the basis of gl(phi)_0 and on every structure
constant, down to the int/Fraction type of every entry (compared by repr
of the raw data, where ``Matrix.__repr__`` would print 5 and
Fraction(5, 1) alike).
"""

import random
from fractions import Fraction

import pytest

from lie2coh import lie2, numeric
from lie2coh.liealg import LieAlgebra, Representation, _unit
from lie2coh.lie2 import (CrossedModuleAlg, TwoVectorSpace, _primitive,
                          gl_phi)
from lie2coh.numeric import (LinearSolver, Matrix, Q0, rank_and_kernel,
                             vectors_matrix)


# -- the reference ------------------------------------------------------------

def product_gl_phi(v):
    """gl(phi) by matrix products and one exact solve per pair."""
    dw, dv = v.dim_w, v.dim_v
    phi = v.phi
    unknowns = dw * dw + dv * dv
    rows = []
    for i in range(dv):
        for j in range(dw):
            row = [Q0] * unknowns
            for k in range(dw):
                row[k * dw + j] += phi.data[i][k]
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
    x = CrossedModuleAlg(g, h, mu, Representation(h, dg, mats))
    x.h_basis = h_basis
    return x


# -- the comparison -----------------------------------------------------------

def _fingerprint(x):
    """Every structure constant with its type, and the Matrix reprs."""
    return repr((x.g.dim, x.h.dim, x.g.brackets, x.h.brackets,
                 x.mu.data, x.mu, [m.data for m in x.action.mats],
                 x.action.mats, [(f.data, s.data) for f, s in x.h_basis],
                 x.h_basis))


ENTRIES = {
    "small": lambda rng: rng.randint(-2, 2),
    "rational": lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    "sparse": lambda rng: rng.choice([0, 1, -1, 3]),
    # integral Fractions, which both constructions must demote to ints
    "integral_fraction": lambda rng: Fraction(rng.choice([0, 5, -2, 1])),
}


def _phis(seed, per_family):
    rng = random.Random(seed)
    for dw in range(5):
        for dv in range(5):
            yield "zero", dw, dv, [[0] * dw for _ in range(dv)]
            yield "full_rank", dw, dv, [[int(i == j) for j in range(dw)]
                                        for i in range(dv)]
            for name, entry in ENTRIES.items():
                for _ in range(per_family):
                    yield name, dw, dv, [[entry(rng) for _ in range(dw)]
                                         for _ in range(dv)]


def test_gl_phi_matches_product_construction():
    count = 0
    for name, dw, dv, rows in _phis(seed=2024, per_family=2):
        v = TwoVectorSpace(dw, dv, Matrix(dv, dw, rows))
        assert _fingerprint(gl_phi(v)) == \
            _fingerprint(product_gl_phi(v)), (name, dw, dv, rows)
        count += 1
    assert count == 250


def test_gl_phi_demotes_integral_fractions():
    v = TwoVectorSpace(2, 2, Matrix(2, 2, [[Fraction(5), 0],
                                           [Fraction(1, 2), Fraction(-2)]]))
    x = gl_phi(v)
    entries = [c for vec in x.g.brackets.values() for c in vec]
    entries += [c for row in x.mu.data for c in row]
    assert {5, Fraction(1, 2)} <= {abs(c) for c in entries}
    assert all(type(c) is int or c.denominator != 1 for c in entries)
    assert _fingerprint(x) == _fingerprint(product_gl_phi(v))


def test_gl_phi_uses_no_product_and_no_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gl_phi called a product or a solver")
    monkeypatch.setattr(Matrix, "__mul__", refuse)
    monkeypatch.setattr(numeric.SparseMatrix, "__mul__", refuse)
    monkeypatch.setattr(numeric, "LinearSolver", refuse)
    monkeypatch.setattr(numeric, "solve_linear", refuse)
    monkeypatch.setattr(lie2, "solve_linear", refuse)
    for rows in ([[1, 0, 2], [0, Fraction(1, 3), 0]], [[0] * 3] * 2):
        x = gl_phi(TwoVectorSpace(3, 2, Matrix(2, 3, rows)))
        assert x.g.dim == 6


@pytest.mark.parametrize("dw,dv", [(0, 0), (0, 3), (3, 0)])
def test_gl_phi_empty_sides(dw, dv):
    v = TwoVectorSpace(dw, dv, Matrix.zero(dv, dw))
    x = gl_phi(v)
    assert x.g.dim == 0 and x.h.dim == dw * dw + dv * dv
    assert _fingerprint(x) == _fingerprint(product_gl_phi(v))
