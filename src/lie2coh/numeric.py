"""Exact rational linear algebra and truncated-Taylor (jet) arithmetic.

Everything algebraic in this package runs over arbitrary-precision
rationals (``fractions.Fraction``); ranks and kernels are computed by
Gaussian elimination, so cohomology dimensions come out as honest
integers.  Jets carry float coefficients and exist only to extract
derivatives of matrix-group formulas exactly (no finite differences).
"""

from fractions import Fraction
from itertools import combinations
import math

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

    @staticmethod
    def zero(rows, cols):
        return Matrix(rows, cols)

    @staticmethod
    def identity(n):
        m = Matrix(n, n)
        for i in range(n):
            m.data[i][i] = Q1
        return m

    @staticmethod
    def column(vec):
        return Matrix(len(vec), 1, [[x] for x in vec])

    def copy(self):
        return Matrix(self.rows, self.cols, [row[:] for row in self.data])

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
        return Matrix(self.rows, self.cols,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return Matrix(self.rows, self.cols,
                      [[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [[-a for a in r] for r in self.data])

    def scale(self, c):
        c = rat(c)
        return Matrix(self.rows, self.cols, [[c * a for a in r] for r in self.data])

    def _int_rows(self):
        """Rows as plain ints, or None if any entry is a true fraction."""
        out = []
        for row in self.data:
            new = []
            for x in row:
                if isinstance(x, int):
                    new.append(x)
                elif x.denominator == 1:
                    new.append(x.numerator)
                else:
                    return None
            out.append(new)
        return out

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        assert self.cols == other.rows, (self.cols, other.rows)
        a_int = self._int_rows()
        b_int = other._int_rows() if a_int is not None else None
        if a_int is not None and b_int is not None:
            out = Matrix(self.rows, other.cols)
            data = out.data
            for i in range(self.rows):
                row = a_int[i]
                acc = [0] * other.cols
                for k in range(self.cols):
                    x = row[k]
                    if x:
                        brow = b_int[k]
                        for j in range(other.cols):
                            if brow[j]:
                                acc[j] += x * brow[j]
                data[i] = acc
            return out
        out = Matrix(self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = row[k]
                if a == 0:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b != 0:
                        orow[j] += a * b
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
        return Matrix(self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def hstack(self, other):
        assert self.rows == other.rows
        return Matrix(self.rows, self.cols + other.cols,
                      [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def vstack(self, other):
        assert self.cols == other.cols
        return Matrix(self.rows + other.rows, self.cols,
                      [r[:] for r in self.data] + [r[:] for r in other.data])

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.col(j) for j in range(self.cols)]


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


def rank_and_kernel(m):
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


def rank(m):
    return rank_and_kernel(m)[0]


class LinearSolver:
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


def solve_linear(m, b):
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

    def __truediv__(self, other):
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()


def jet_exp(j):
    """exp of a jet: e^c * sum_k (j-c)^k / k! truncated at the order."""
    if not isinstance(j, Jet):
        return math.exp(j)
    c0 = j.const
    x = j - c0
    out = Jet.constant(1.0, j.num_vars, j.order)
    term = Jet.constant(1.0, j.num_vars, j.order)
    for k in range(1, j.order + 1):
        term = term * x * (1.0 / k)
        out = out + term
    return out * math.exp(c0)


def increasing_tuples(n, k):
    """All strictly increasing k-tuples drawn from range(n), lex order."""
    return list(combinations(range(n), k))
