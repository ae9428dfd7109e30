"""Finite-dimensional Lie algebras by structure constants, representations,
and the Chevalley-Eilenberg differential with coefficients."""

from .numeric import (LinearSolver, Matrix, SparseMatrix, Q0, Q1, rat,
                      increasing_tuples, linear_combination, vectors_matrix,
                      _demote, _nonzero, _sparse_rows)


class LieAlgebra:
    """Lie algebra presented by structure constants on a fixed basis.

    ``structure`` maps pairs (i, j) with i < j to the nonzero coefficients
    of [e_i, e_j] as a list of (k, c) in increasing k; a zero bracket has
    no entry.  Antisymmetry is implicit and [x, x] = 0 by construction.
    The Jacobi identity is *not* enforced here; run validate_lie_algebra.
    """

    def __init__(self, dim, brackets=None):
        """From ``brackets``: (i, j) with i < j -> the coefficient vector
        of [e_i, e_j], checked and read into ``structure``."""
        self.dim = dim
        self.structure = {}
        for (i, j), vec in (brackets or {}).items():
            assert 0 <= i < j < dim
            vec = [x if isinstance(x, int) else rat(x) for x in vec]
            assert len(vec) == dim
            nonzero = [(k, c) for k, c in enumerate(vec) if c != 0]
            if nonzero:
                self.structure[(i, j)] = nonzero

    @classmethod
    def _of(cls, dim, structure):
        """An algebra on structure constants that the library built, in
        the form of ``structure``: no copy and no checks."""
        g = cls.__new__(cls)
        g.dim = dim
        g.structure = structure
        return g

    @staticmethod
    def abelian(dim):
        return LieAlgebra(dim)

    @staticmethod
    def aff1():
        """[e0, e1] = e1."""
        return LieAlgebra(2, {(0, 1): [0, 1]})

    @staticmethod
    def heisenberg3():
        """[e0, e1] = e2, e2 central."""
        return LieAlgebra(3, {(0, 1): [0, 0, 1]})

    @staticmethod
    def sl2():
        """h, e, f with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
        return LieAlgebra(3, {(0, 1): [0, 2, 0],
                              (0, 2): [0, 0, -2],
                              (1, 2): [1, 0, 0]})

    @property
    def brackets(self):
        """Dense view of ``structure``: (i, j) -> the coefficient vector of
        [e_i, e_j], for the nonzero brackets with i < j."""
        return {key: self._dense(vec) for key, vec in self.structure.items()}

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.structure == other.structure)

    def __hash__(self):
        return hash((self.dim, tuple(sorted(
            (k, tuple(v)) for k, v in self.structure.items()))))

    def _dense(self, nonzero):
        out = [0] * self.dim
        for k, c in nonzero:
            out[k] = c
        return out

    def basis_bracket(self, i, j):
        return self._dense(self.bracket_into([(i, 1)], [(j, 1)], {}).items())

    def bracket(self, u, v):
        """Bracket of coefficient vectors, extended bilinearly."""
        return self._dense(self.bracket_into(
            [(i, c) for i, c in enumerate(u) if c != 0],
            [(j, c) for j, c in enumerate(v) if c != 0], {}).items())

    def bracket_into(self, u, v, out, scale=1):
        """out += scale * [u, v]; u, v are lists of (index, coefficient)."""
        structure = self.structure
        for i, cu in u:
            for j, cv in v:
                vec = structure.get((i, j) if i < j else (j, i)) \
                    if i != j else None
                if vec is not None:
                    coeff = scale * cu * cv if i < j else -scale * cu * cv
                    for k, c in vec:
                        out[k] = out.get(k, 0) + coeff * c
        return out

    def ad(self, u):
        """Matrix of ad_u = [u, -]."""
        return vectors_matrix([self.bracket(u, _unit(self.dim, j))
                               for j in range(self.dim)], dim=self.dim)

    def change_basis(self, t):
        """Structure constants in the new basis given by the columns of t."""
        solver = LinearSolver(t)
        d = self.dim
        assert len(solver.pivots) == d == t.rows, "matrix not invertible"
        # for an invertible t the solver's transform rows are those of t^-1
        tinv = SparseMatrix(d, d, solver.transform)
        cols = t.columns()
        structure = {}
        for i in range(d):
            for j in range(i + 1, d):
                w = tinv.apply(self.bracket(cols[i], cols[j]))
                nonzero = [(k, _demote(x)) for k, x in enumerate(w) if x]
                if nonzero:
                    structure[(i, j)] = nonzero
        return LieAlgebra._of(d, structure)


def _unit(dim, j):
    v = [Q0] * dim
    v[j] = Q1
    return v


def validate_lie_algebra(g):
    """List of Jacobi violations (i, j, k, defect vector); empty means valid."""
    basis = {(a, b): list(g.bracket_into([(a, 1)], [(b, 1)], {}).items())
             for a in range(g.dim) for b in range(g.dim)}
    bad = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                d = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    g.bracket_into(basis[a, b], [(c, 1)], d)
                if any(d.values()):
                    bad.append((i, j, k, [d.get(t, 0) for t in range(g.dim)]))
    return bad


def sparse_columns(m):
    """Columns of m as lists of (row, entry) over the nonzero entries;
    integral entries become ints, which multiply much faster."""
    cols = [[] for _ in range(m.cols)]
    for r, row in enumerate(m.data):
        for c, x in enumerate(row):
            if x:
                cols[c].append((r, x.numerator if x.denominator == 1 else x))
    return cols


def apply_into(out, cols, vec, scale=1):
    """out += scale * M vec, for M as sparse_columns and a sparse vec."""
    for k, y in vec:
        for r, x in cols[k]:
            out[r] = out.get(r, 0) + scale * x * y
    return out


class Representation:
    """Linear action of a Lie algebra on Q^space_dim, one matrix per basis."""

    def __init__(self, algebra, space_dim, mats):
        self.algebra = algebra
        self.space_dim = space_dim
        assert len(mats) == algebra.dim
        for m in mats:
            assert m.rows == space_dim and m.cols == space_dim
        self.mats = list(mats)

    @staticmethod
    def trivial(algebra, space_dim):
        return Representation(algebra, space_dim,
                              [Matrix.zero(space_dim, space_dim)
                               for _ in range(algebra.dim)])

    @staticmethod
    def adjoint(algebra):
        return Representation(algebra, algebra.dim,
                              [algebra.ad(_unit(algebra.dim, i))
                               for i in range(algebra.dim)])

    def act(self, y):
        """Matrix of the action of a coefficient vector y."""
        return linear_combination(y, self.mats, self.space_dim,
                                  self.space_dim)


def validate_representation(rep):
    """Pairs (i, j) where rho([e_i, e_j]) != [rho(e_i), rho(e_j)]."""
    g = rep.algebra
    cols = [sparse_columns(m) for m in rep.mats]
    bad = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for col in range(rep.space_dim):
                acc = {}
                for k, c in g.structure.get((i, j), ()):
                    apply_into(acc, cols[k], [(col, c)])
                apply_into(acc, cols[i], cols[j][col], -1)
                apply_into(acc, cols[j], cols[i][col])
                if any(acc.values()):
                    bad.append((i, j))
                    break
    return bad


def ce_differential(rep, q):
    """Matrix of d: Lambda^q g* (x) V -> Lambda^{q+1} g* (x) V, as sparse
    rows.

    Basis: strictly increasing index tuples in lex order, tensor the
    standard basis of V.  (d w)(a_0..a_q) = sum_j (-1)^j rho(a_j) w(a(j))
    + sum_{m<n} (-1)^{m+n} w([a_m,a_n], a(m,n)), with a(j) and a(m,n) the
    deletion of the marked entries.
    """
    g, dv = rep.algebra, rep.space_dim
    src = increasing_tuples(g.dim, q)
    tgt = increasing_tuples(g.dim, q + 1)
    src_pos = {t: k for k, t in enumerate(src)}
    mat_rows = [_sparse_rows(m.data) for m in rep.mats]
    rows = []
    for tup in tgt:
        block = [{} for _ in range(dv)]
        for j in range(q + 1):
            base = src_pos[tup[:j] + tup[j + 1:]] * dv
            sign = -1 if j % 2 else 1
            for out, mat_row in zip(block, mat_rows[tup[j]]):
                for b, x in mat_row.items():
                    out[base + b] = out.get(base + b, 0) + sign * x
        for m in range(q + 1):
            for n in range(m + 1, q + 1):
                rest = tup[:m] + tup[m + 1:n] + tup[n + 1:]
                sign = -1 if (m + n) % 2 else 1
                for k, c in g.structure.get((tup[m], tup[n]), ()):
                    s, sorted_tup = _sort_sign((k,) + rest)
                    if s:
                        base = src_pos[sorted_tup] * dv
                        for a, out in enumerate(block):
                            out[base + a] = out.get(base + a, 0) + sign * s * c
        rows.extend(_nonzero(row) for row in block)
    return SparseMatrix(len(tgt) * dv, len(src) * dv, rows)


def _sort_sign(tup):
    """Sign of the permutation sorting tup; 0 on repeated entries."""
    tup = list(tup)
    sign = 1
    for i in range(len(tup)):
        for j in range(len(tup) - 1 - i):
            if tup[j] > tup[j + 1]:
                tup[j], tup[j + 1] = tup[j + 1], tup[j]
                sign = -sign
            elif tup[j] == tup[j + 1]:
                return 0, None
    return sign, tuple(tup)
