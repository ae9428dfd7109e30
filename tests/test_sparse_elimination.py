"""The sparse exact elimination of ``lie2coh.numeric`` against the dense
Gauss-Jordan elimination it replaced, kept here as a test-only oracle.

The reduced row echelon form of a matrix is unique, so the two must agree
on the pivots, on the reduced rows and on everything read off them: the
rank, the kernel basis and both solvers, down to the int/Fraction type of
every entry (compared by repr).
"""

import os
import random
from fractions import Fraction

from lie2coh.cli import load_problem
from lie2coh.numeric import (Matrix, LinearSolver, _rref, _sparse_rows, rank,
                             rank_and_kernel, rat, solve_linear)

Q1 = Fraction(1)
ADJOINT = os.path.join(os.path.dirname(__file__), "fixtures",
                       "adjoint_aff1.json")


# -- the dense reference ------------------------------------------------------

def _echelon(m):
    """Row echelon form; returns (matrix rows, pivot column list).

    Pivot choice: among the nonzero candidates of the pivot column take
    the entry minimizing |numerator|*denominator, which keeps the
    fractions from blowing up on the mid-sized lattice matrices.
    """
    a = [row[:] for row in m.data]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = -1
        best_size = None
        for i in range(r, nrows):
            x = a[i][c]
            if x != 0:
                size = abs(x.numerator) * x.denominator
                if best_size is None or size < best_size:
                    best, best_size = i, size
        if best < 0:
            continue
        a[r], a[best] = a[best], a[r]
        piv = a[r][c]
        inv = Q1 / piv
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def _demote(x):
    """Fractions with denominator one become ints (faster downstream)."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def dense_rank_and_kernel(m):
    """Rank of m and a basis of its right kernel (list of vectors)."""
    a, pivots = _echelon(m)
    rank = len(pivots)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * m.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = _demote(-a[r][fc])
        basis.append(v)
    return rank, basis


class DenseLinearSolver:
    """Prefactored exact solver for repeated systems with one matrix.

    Factors the echelon form of [A | I] once; solve(b) then costs one
    matrix-vector product plus back-reads."""

    def __init__(self, a):
        self.matrix = a
        aug = a.hstack(Matrix.identity(a.rows))
        reduced, pivots = _echelon(aug)
        self.pivots = [p for p in pivots if p < a.cols]
        self.reduced = reduced
        self.transform = [row[a.cols:] for row in reduced]

    def solve(self, b):
        assert len(b) == self.matrix.rows
        y = []
        for trow in self.transform:
            y.append(sum((t * x for t, x in zip(trow, b) if t and x), 0))
        x = [0] * self.matrix.cols
        for r, pc in enumerate(self.pivots):
            x[pc] = _demote(y[r])
        # rows beyond the pivot rows certify consistency
        for r in range(len(self.pivots), self.matrix.rows):
            if y[r] != 0:
                return None
        # pivot rows may still involve free columns; verify exactly
        if len(self.pivots) < self.matrix.cols:
            if self.matrix.apply(x) != [rat(v) for v in b]:
                return None
        return x


def dense_solve_linear(m, b):
    """Solve m x = b exactly; None iff b is not in the column space."""
    assert len(b) == m.rows, "dimension mismatch"
    aug = m.hstack(Matrix.column(b))
    a, pivots = _echelon(aug)
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = _demote(a[r][m.cols])
    return x


# -- the comparison -----------------------------------------------------------

def _entry(rng):
    """Half zeros, then small ints, integral Fractions and true fractions."""
    k = rng.random()
    if k < 0.5:
        return 0
    if k < 0.75:
        return rng.randint(-3, 3)
    if k < 0.8:
        return Fraction(rng.randint(-3, 3))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_matrix(rng, rows, cols):
    data = [[_entry(rng) for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.3:
        data[rng.randrange(rows)] = [0] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in data:
            row[j] = 0
    return Matrix(rows, cols, data)


def _assert_agrees(m, rng):
    dense, pivots = _echelon(m)
    reduced = _rref(_sparse_rows(m.data))
    assert sorted(reduced) == pivots
    for r, c in enumerate(pivots):
        assert [reduced[c].get(j, 0) for j in range(m.cols)] == dense[r]
    assert all(x == 0 for row in dense[len(pivots):] for x in row)
    assert rank(m) == len(pivots)
    assert repr(rank_and_kernel(m)) == repr(dense_rank_and_kernel(m))
    solver, dense_solver = LinearSolver(m), DenseLinearSolver(m)
    for b in ([_entry(rng) for _ in range(m.rows)],
              m.apply([_entry(rng) for _ in range(m.cols)])):
        assert repr(solve_linear(m, b)) == repr(dense_solve_linear(m, b))
        assert repr(solver.solve(b)) == repr(dense_solver.solve(b))


def test_sparse_elimination_matches_dense_random():
    rng = random.Random(2024)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)]
    shapes += [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(316)]
    for rows, cols in shapes:
        _assert_agrees(_random_matrix(rng, rows, cols), rng)


def test_sparse_elimination_matches_dense_on_nabla():
    rng = random.Random(5)
    ctx = load_problem(ADJOINT).context()
    for n in range(4):
        m = ctx.nabla(n)
        _assert_agrees(m, rng)
        _assert_agrees(m.transpose(), rng)
