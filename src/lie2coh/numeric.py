"""Exact rational linear algebra and truncated-Taylor (jet) arithmetic.

Everything algebraic in this package runs over arbitrary-precision
rationals (``fractions.Fraction``, integral values kept as ``int``).
Ranks, kernels and solutions come from one sparse exact elimination:
rows are {column: value} dicts, brought to the reduced row echelon form,
which is unique, so every result read off it is independent of the
elimination order and cohomology dimensions come out as honest integers.
``cohomology`` forms ker/im with representatives for the lattice,
``homalg`` and ``ext``, and keeps the kernel sparse.
Jets carry float coefficients and exist only to extract derivatives of
matrix-group formulas exactly (no finite differences).

Two matrix containers share one interface.  ``Matrix`` is dense and
row-major; callers build and write its ``data`` in place.
``SparseMatrix``, a subclass, stores only the rows of nonzero entries
as {column: value} dicts; the lattice keeps its components and total
differentials in it, which are mostly zeros.  Its ``data`` is a
read-only dense view built on first read; products, ``apply``,
``is_zero`` and the elimination read the sparse rows.
"""

from fractions import Fraction
from itertools import combinations

Q0 = Fraction(0)
Q1 = Fraction(1)


def rat(x):
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("not an exact rational: %r" % (x,))


def format_rat(x):
    x = rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


class Matrix:
    """Dense rational matrix, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            assert len(data) == rows
            # ints are kept as ints: they are exact, interoperate with
            # Fraction, and multiply an order of magnitude faster
            self.data = [[x if isinstance(x, (int, Fraction)) else rat(x)
                          for x in row] for row in data]
            for row in self.data:
                assert len(row) == cols

    @classmethod
    def _of(cls, rows, cols, data):
        """A matrix on rows of exact entries that the library built: no
        copy and no checks."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    @staticmethod
    def zero(rows, cols):
        return Matrix._of(rows, cols, [[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n):
        m = Matrix.zero(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @staticmethod
    def column(vec):
        return Matrix(len(vec), 1, [[x] for x in vec])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        body = "; ".join(" ".join(format_rat(x) for x in row) for row in self.data)
        return "Matrix(%dx%d: %s)" % (self.rows, self.cols, body)

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def __add__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return Matrix._of(self.rows, self.cols,
                          [[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return Matrix._of(self.rows, self.cols,
                          [[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.data, other.data)])

    def __neg__(self):
        return Matrix._of(self.rows, self.cols,
                          [[-a for a in r] for r in self.data])

    def scale(self, c):
        c = _demote(rat(c))
        return Matrix._of(self.rows, self.cols,
                          [[c * a for a in r] for r in self.data])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        assert self.cols == other.rows, (self.cols, other.rows)
        # the nonzero (column, entry) pairs of each row of the right
        # factor; integral entries as ints, so integral products stay ints
        right = [[(j, b if type(b) is int else _demote(b))
                  for j, b in enumerate(row) if b] for row in other.data]
        out = Matrix.zero(self.rows, other.cols)
        for acc, row in zip(out.data, self.data):
            for a, pairs in zip(row, right):
                if a and pairs:
                    if type(a) is not int:
                        a = _demote(a)
                    for j, b in pairs:
                        acc[j] += a * b
        return out

    def apply(self, vec):
        """Matrix times column vector (a list), returns a list."""
        assert len(vec) == self.cols
        out = []
        for i in range(self.rows):
            row = self.data[i]
            s = 0
            for a, x in zip(row, vec):
                if a and x:
                    s += a * x
            out.append(s)
        return out

    def transpose(self):
        return Matrix._of(self.cols, self.rows,
                          [[self.data[i][j] for i in range(self.rows)]
                           for j in range(self.cols)])

    def hstack(self, other):
        assert self.rows == other.rows
        return Matrix._of(self.rows, self.cols + other.cols,
                          [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def vstack(self, other):
        assert self.cols == other.cols
        return Matrix._of(self.rows + other.rows, self.cols,
                          [r[:] for r in self.data]
                          + [r[:] for r in other.data])

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.col(j) for j in range(self.cols)]


class SparseMatrix(Matrix):
    """Rational matrix stored as its rows of nonzero entries: {column:
    value} dicts, integral values as ints.

    ``data`` is a dense view, built on first read and kept; it cannot be
    assigned, and writes into it are not seen by the sparse rows.  The
    inherited comparison, hash, repr, transpose, sums and scaling work
    through the view and return dense matrices."""

    __slots__ = ("sparse", "_dense")

    def __init__(self, rows, cols, sparse):
        assert len(sparse) == rows
        self.rows = rows
        self.cols = cols
        self.sparse = sparse
        self._dense = None

    @property
    def data(self):
        if self._dense is None:
            dense = Matrix.zero(self.rows, self.cols).data
            for out, row in zip(dense, self.sparse):
                for j, x in row.items():
                    out[j] = x
            self._dense = dense
        return self._dense

    def is_zero(self):
        return not any(self.sparse)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        assert self.cols == other.rows, (self.cols, other.rows)
        right = other.sparse if isinstance(other, SparseMatrix) \
            else _sparse_rows(other.data)
        out = []
        for row in self.sparse:
            acc = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append(_nonzero(acc))
        return SparseMatrix(self.rows, other.cols, out)

    def apply(self, vec):
        assert len(vec) == self.cols
        out = []
        for row in self.sparse:
            s = 0
            for j, a in row.items():
                x = vec[j]
                if x:
                    s += a * x
            out.append(s)
        return out


def linear_combination(coeffs, mats, rows, cols):
    """The rows x cols matrix sum_i c_i M_i, formed in one pass over the
    nonzero entries of the M_i whose coefficient is nonzero."""
    data = [[0] * cols for _ in range(rows)]
    for c, m in zip(coeffs, mats):
        if c:
            if type(c) is not int:
                c = _demote(rat(c))
            for acc, row in zip(data, m.data):
                for j, a in enumerate(row):
                    if a:
                        acc[j] += c * a
    return Matrix._of(rows, cols, data)


def _demote(x):
    """Fractions with denominator one become ints (faster downstream)."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _nonzero(row):
    """A {column: value} row without its zero entries, integral values as
    ints."""
    return {j: x if type(x) is int else _demote(x)
            for j, x in row.items() if x}


def _sparse_rows(data):
    """The nonzero entries of dense rows as {column: value} dicts."""
    return [{j: _demote(x) for j, x in enumerate(row) if x} for row in data]


def _row_copies(m):
    """Fresh {column: value} rows of m's nonzero entries, for an
    elimination to consume."""
    if isinstance(m, SparseMatrix):
        return [dict(row) for row in m.sparse]
    return _sparse_rows(m.data)


def _add_multiple(row, f, other):
    """row += f * other in place, dropping the entries that cancel."""
    for j, v in other.items():
        x = row.get(j, 0) + f * v
        if x:
            row[j] = _demote(x)
        else:
            del row[j]


def _echelon(rows):
    """Row echelon form of sparse rows, which it consumes.

    Returns {leading column: row}, each row scaled to 1 at its leading
    column and zero left of it.  Rows go in shortest first (little
    fill-in, after Markowitz) and are reduced against the pivot rows by
    their leading column until they start a new pivot or vanish.
    """
    pivots = {}
    for row in sorted(rows, key=len):
        while row:
            c = min(row)
            pivot_row = pivots.get(c)
            if pivot_row is None:
                piv = row[c]
                if piv != 1:
                    inv = Q1 / piv
                    row = {j: _demote(x * inv) for j, x in row.items()}
                pivots[c] = row
                break
            _add_multiple(row, -row[c], pivot_row)
    return pivots


def _rref(rows):
    """Reduced row echelon form of sparse rows, as {pivot column: row}.

    Back-substitution from the last pivot up clears every other pivot
    column of each row.  The RREF of a matrix is unique, so the result
    does not depend on the order in which the rows went in.
    """
    pivots = _echelon(rows)
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            _add_multiple(row, -row[k], pivots[k])
    return pivots


def sparse_kernel(m):
    """Rank of m and a basis of its right kernel as {column: value}
    vectors, one per free column of the reduced echelon form, in order."""
    reduced = _rref(_row_copies(m))
    basis = {fc: {fc: 1} for fc in range(m.cols) if fc not in reduced}
    for pc, row in reduced.items():
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x
    return len(reduced), list(basis.values())


def _dense(vec, n):
    out = [0] * n
    for i, x in vec.items():
        out[i] = x
    return out


def rank_and_kernel(m):
    """Rank of m and a basis of its right kernel (list of vectors), one
    vector per free column of the reduced echelon form."""
    r, kernel = sparse_kernel(m)
    return r, [_dense(v, m.cols) for v in kernel]


def cohomology(d_prev, d_n):
    """(dim H^n, representatives) of C^{n-1} -d_prev-> C^n -d_n-> C^{n+1},
    which must be a complex: d_n d_prev = 0.

    One echelon of the columns [im d_prev | ker d_n], the kernel sparse:
    its pivot columns among the kernel vectors are the representatives,
    the kernel vectors (in kernel order) independent of the image and of
    the ones before them.  Only these are made dense."""
    assert d_prev.rows == d_n.cols, (d_prev.rows, d_n.cols)
    _, kernel = sparse_kernel(d_n)
    # row i of [im | ker]: row i of d_prev, then the kernel's i-th entries
    rows, width = _row_copies(d_prev), d_prev.cols
    for k, v in enumerate(kernel):
        for i, x in v.items():
            rows[i][width + k] = x
    pivots = _echelon(rows)
    reps = [_dense(kernel[c - width], d_n.cols)
            for c in sorted(pivots) if c >= width]
    return len(reps), reps


def rank(m):
    return len(_echelon(_row_copies(m)))


class LinearSolver:
    """Prefactored exact solver for repeated systems with one matrix.

    Factors the reduced echelon form of [A | I] once; solve(b) then costs
    one sparse matrix-vector product plus back-reads."""

    def __init__(self, a):
        self.matrix = a
        n = a.cols
        rows = _row_copies(a)
        for i, row in enumerate(rows):
            row[n + i] = 1
        reduced = _rref(rows)
        order = sorted(reduced)
        self.pivots = [c for c in order if c < n]
        self.transform = [{j - n: x for j, x in reduced[c].items() if j >= n}
                          for c in order]

    def solve(self, b):
        assert len(b) == self.matrix.rows
        y = [sum((t * b[j] for j, t in trow.items() if b[j]), 0)
             for trow in self.transform]
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


def solve_linear(m, b):
    """Solve m x = b exactly; None iff b is not in the column space."""
    assert len(b) == m.rows, "dimension mismatch"
    n = m.cols
    rows = _row_copies(m)
    for row, x in zip(rows, b):
        if x:
            row[n] = _demote(rat(x))
    reduced = _rref(rows)
    if n in reduced:
        return None
    x = [0] * n
    for pc, row in reduced.items():
        x[pc] = row.get(n, 0)
    return x


def vectors_matrix(vecs, dim=None):
    """Matrix whose columns are the given vectors."""
    if not vecs:
        assert dim is not None
        return Matrix(dim, 0)
    n = len(vecs[0])
    return Matrix(n, len(vecs), [[v[i] for v in vecs] for i in range(n)])


def in_span(vecs, target):
    """Is target in the span of vecs?"""
    if not any(x != 0 for x in target):
        return True
    if not vecs:
        return False
    return solve_linear(vectors_matrix(vecs), target) is not None


# ---------------------------------------------------------------------------
# Jets: truncated multivariate Taylor values over floats.
# ---------------------------------------------------------------------------

class Jet:
    """Truncated Taylor expansion in up to 4 variables, order up to 3.

    Coefficients are floats keyed by exponent multi-indices; arithmetic
    agrees with the Taylor expansion of the corresponding operation on
    scalar functions up to the stored order.
    """

    __slots__ = ("num_vars", "order", "coeffs")

    def __init__(self, num_vars, order, coeffs=None):
        assert 0 <= num_vars <= 4 and 0 <= order <= 3
        self.num_vars = num_vars
        self.order = order
        self.coeffs = dict(coeffs) if coeffs else {}

    @staticmethod
    def constant(value, num_vars, order):
        j = Jet(num_vars, order)
        if value != 0.0:
            j.coeffs[(0,) * num_vars] = float(value)
        return j

    @staticmethod
    def variable(i, num_vars, order, scale=1.0):
        j = Jet(num_vars, order)
        if order >= 1 and scale != 0.0:
            key = tuple(1 if k == i else 0 for k in range(num_vars))
            j.coeffs[key] = float(scale)
        return j

    def _like(self, coeffs):
        return Jet(self.num_vars, self.order, coeffs)

    def coefficient(self, key):
        return self.coeffs.get(tuple(key), 0.0)

    @property
    def const(self):
        return self.coeffs.get((0,) * self.num_vars, 0.0)

    def _coerce(self, other):
        if isinstance(other, Jet):
            assert other.num_vars == self.num_vars and other.order == self.order
            return other
        return Jet.constant(float(other), self.num_vars, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        c = dict(self.coeffs)
        for k, v in other.coeffs.items():
            c[k] = c.get(k, 0.0) + v
        return self._like(c)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        c = {}
        order = self.order
        for k1, v1 in self.coeffs.items():
            if v1 == 0.0:
                continue
            d1 = sum(k1)
            for k2, v2 in other.coeffs.items():
                if v2 == 0.0 or d1 + sum(k2) > order:
                    continue
                key = tuple(a + b for a, b in zip(k1, k2))
                c[key] = c.get(key, 0.0) + v1 * v2
        return self._like(c)

    __rmul__ = __mul__

    def reciprocal(self):
        c0 = self.const
        assert c0 != 0.0, "jet has no well-defined reciprocal"
        x = self - c0
        inv_c0 = 1.0 / c0
        out = Jet.constant(inv_c0, self.num_vars, self.order)
        term = Jet.constant(inv_c0, self.num_vars, self.order)
        for _ in range(self.order):
            term = term * x * (-inv_c0)
            out = out + term
        return out


def increasing_tuples(n, k):
    """All strictly increasing k-tuples drawn from range(n), lex order."""
    return list(combinations(range(n), k))


class Space:
    """Basis bookkeeping for C^{p,q}_r = Lambda^q g_p* (x) Lambda^r g* (x) C,
    with gp_dim = dim g_p, g_dim = dim g and coeff_dim = dim C.

    A cochain is stored on the pairs (I, J) of strictly increasing tuples,
    I of length q and J of length r, in lex order with J running fastest;
    each pair holds a block of coeff_dim values."""

    def __init__(self, p, q, r, gp_dim, g_dim, coeff_dim):
        self.p, self.q, self.r = p, q, r
        self.gp_tuples = increasing_tuples(gp_dim, q)
        self.g_tuples = increasing_tuples(g_dim, r)
        self.coeff_dim = coeff_dim
        self.gp_pos = {t: i for i, t in enumerate(self.gp_tuples)}
        self.g_pos = {t: i for i, t in enumerate(self.g_tuples)}
        self.total_dim = len(self.gp_tuples) * len(self.g_tuples) * coeff_dim

    def block(self, gp_tuple, g_tuple):
        """Start offset of the coefficient block of a basis tuple pair."""
        i = self.gp_pos.get(gp_tuple)
        j = self.g_pos.get(g_tuple)
        if i is None or j is None:
            return None
        return (i * len(self.g_tuples) + j) * self.coeff_dim
