"""``SparseMatrix`` against the dense ``Matrix`` it stands in for, and the
sparse ``nabla_squared_blocks`` against the dense block scan it replaced,
kept here as a test-only oracle."""

import os
import random
from fractions import Fraction

import pytest

from lie2coh.cli import load_problem
from lie2coh.numeric import (Matrix, SparseMatrix, LinearSolver,
                             rank, rank_and_kernel, solve_linear)
from lie2coh.lattice import LatticeContext
from lie2coh.samples import rng_from_seed, random_context

ADJOINT = os.path.join(os.path.dirname(__file__), "fixtures",
                       "adjoint_aff1.json")


def _entry(rng):
    """Mostly zeros, then small ints, integral Fractions and true
    fractions."""
    k = rng.random()
    if k < 0.6:
        return 0
    if k < 0.8:
        return rng.randint(-3, 3)
    if k < 0.85:
        return Fraction(rng.randint(-3, 3))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_matrix(rng, rows, cols):
    return Matrix(rows, cols, [[_entry(rng) for _ in range(cols)]
                               for _ in range(rows)])


def _sparse(m):
    """The same matrix as a SparseMatrix: nonzero entries, integral ones
    as ints."""
    return SparseMatrix(m.rows, m.cols, [
        {j: x.numerator if x.denominator == 1 else x
         for j, x in enumerate(row) if x} for row in m.data])


def _assert_well_formed(s):
    """The SparseMatrix invariant: nonzero entries, integral ones ints."""
    assert len(s.sparse) == s.rows
    for row in s.sparse:
        for j, x in row.items():
            assert 0 <= j < s.cols and x != 0
            assert type(x) is int or x.denominator != 1


def _shapes(rng):
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
    return shapes + [(rng.randint(0, 6), rng.randint(0, 6))
                     for _ in range(150)]


def test_sparse_matrix_matches_dense_matrix():
    rng = random.Random(71)
    for rows, cols in _shapes(rng):
        a = _random_matrix(rng, rows, cols)
        s = _sparse(a)
        assert repr(s) == repr(a)
        assert s == a and a == s and hash(s) == hash(a)
        assert s.is_zero() == a.is_zero()
        assert s.transpose() == a.transpose()
        assert s + s == a + a and s - a == a - a
        v = [_entry(rng) for _ in range(cols)]
        assert s.apply(v) == a.apply(v)
        assert repr(s.apply(v)) == repr(Matrix(rows, cols, s.data).apply(v))
        assert repr(rank_and_kernel(s)) == repr(rank_and_kernel(a))
        assert rank(s) == rank(a)
        solver, dense_solver = LinearSolver(s), LinearSolver(a)
        for b in ([_entry(rng) for _ in range(rows)],
                  a.apply([_entry(rng) for _ in range(cols)])):
            assert repr(solve_linear(s, b)) == repr(solve_linear(a, b))
            assert repr(solver.solve(b)) == repr(dense_solver.solve(b))
        # elimination leaves the rows it read as they were
        assert s.data == _sparse(a).data and s.sparse == _sparse(a).sparse
        b = _random_matrix(rng, cols, rng.randint(0, 6))
        for prod in (s * _sparse(b), s * b):
            assert isinstance(prod, SparseMatrix)
            _assert_well_formed(prod)
            assert prod == a * b
            assert prod.is_zero() == (a * b).is_zero()
        assert a * _sparse(b) == a * b


def test_sparse_product_drops_cancelled_entries():
    """Products that cancel: a times a basis of its kernel, and a sum of
    opposite true fractions, leave no stored zero."""
    rng = random.Random(72)
    cancelled = 0
    for rows, cols in _shapes(rng):
        a = _random_matrix(rng, rows, cols)
        _, kernel = rank_and_kernel(a)
        if not kernel:
            continue
        k = Matrix(cols, len(kernel), [[v[i] for v in kernel]
                                       for i in range(cols)])
        prod = _sparse(a) * _sparse(k)
        _assert_well_formed(prod)
        assert prod.is_zero() and not any(prod.sparse)
        cancelled += not a.is_zero()
    assert cancelled > 20
    half = Fraction(1, 2)
    prod = _sparse(Matrix(1, 2, [[half, -half]])) * \
        _sparse(Matrix(2, 2, [[half, 1], [half, 1]]))
    assert prod.sparse == [{}] and prod.is_zero()
    prod = _sparse(Matrix(1, 2, [[half, half]])) * \
        _sparse(Matrix(2, 1, [[1], [1]]))
    assert prod.sparse == [{0: 1}] and type(prod.sparse[0][0]) is int


def test_dense_view_cannot_be_reassigned():
    s = _sparse(Matrix(2, 2, [[1, 0], [0, Fraction(1, 2)]]))
    with pytest.raises(AttributeError):
        s.data = [[0, 0], [0, 0]]
    assert s.data is s.data


# -- nabla^2 block scan against the dense oracle ------------------------------

def dense_nabla_squared_blocks(ctx, n):
    """Nonzero blocks of nabla_{n+1} nabla_n by a dense product and a scan
    of every cell of every block pair."""
    a, b = ctx.nabla(n + 1), ctx.nabla(n)
    prod = Matrix(a.rows, a.cols, a.data) * Matrix(b.rows, b.cols, b.data)
    src_offs, _ = ctx.block_offsets(n)
    tgt_offs, _ = ctx.block_offsets(n + 2)
    bad = []
    for sb, so in src_offs.items():
        sd = ctx.cochain_dim(*sb)
        for tb, to in tgt_offs.items():
            td = ctx.cochain_dim(*tb)
            if any(prod.data[to + i][so + j] != 0
                   for i in range(td) for j in range(sd)):
                bad.append((sb, tb))
    return bad


def _contexts():
    rng = rng_from_seed(73)
    out = [LatticeContext(*random_context(rng, 2)) for _ in range(4)]
    return out + [load_problem(ADJOINT).context()]


def test_nabla_squared_blocks_match_dense_scan():
    for ctx in _contexts():
        for n in range(3):
            assert ctx.nabla_squared_blocks(n) == []
            assert dense_nabla_squared_blocks(ctx, n) == []


@pytest.mark.parametrize("flip_k, flip_q", [(1, None), (2, None), (1, 1)])
def test_nabla_squared_blocks_match_dense_scan_on_flipped_signs(
        monkeypatch, flip_k, flip_q):
    """With the sign of Delta_flip_k reversed (out of the blocks with
    q = flip_q, or out of all) nabla^2 is nonzero; both scans name the
    same blocks in the same order."""
    import lie2coh.lattice as lattice_mod
    original = lattice_mod._delta_sign

    def flipped(k, q, r):
        sign = original(k, q, r)
        return -sign if k == flip_k and flip_q in (None, q) else sign

    monkeypatch.setattr(lattice_mod, "_delta_sign", flipped)
    found = 0
    for ctx in _contexts():
        for n in range(3):
            got = ctx.nabla_squared_blocks(n)
            assert got == dense_nabla_squared_blocks(ctx, n)
            found += len(got)
    assert found
