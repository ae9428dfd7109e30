"""The triple-lattice cochain complex C^{p,q}_r of a Lie 2-algebra with
values in a 2-representation, its component differentials and difference
maps, the total differential, and exact cohomology.

Spaces: C^{p,q}_r = Lambda^q g_p* (x) Lambda^r g* (x) W, with g_0 = h and
V-valued coefficients on the r = 0 page.  Cochains are stored on strictly
increasing multi-index pairs; evaluation at arbitrary tuples is the
alternating multilinear extension.  The context owns the layout of
C^n_tot, its blocks in sorted (p, q, r) order: ``split`` and ``join``
convert between a total vector and its blocks, ``block_matrix`` and
``block_values`` between a block and its matrix of values.

Component maps (q-degree, r-degree and p-degree directions):

* delta_r   : Chevalley-Eilenberg differential of g_p, coefficients pulled
              back along the final-target map (rho0^0 for r = 0, the
              twisted module rho^(r) on Lambda^r g* (x) W otherwise);
* delta_one : Chevalley-Eilenberg differential of g with values in
              rho0^1 o mu, seeded at r = 0 by w -> rho1(x) w;
* partial   : alternating sum of pullbacks along the simplicial faces;
* delta_k   : the difference maps (p, q, r) -> (p+1, q+k, r-k), composed
              with phi when they land on the r = 0 page.

The total differential is the signed block sum of these.  The signs on
delta_r / delta_one / partial follow the total-complex grading; the signs
on the difference maps are calibrated so that nabla^2 = 0 holds as an
exact matrix identity (the guarded invariant); ``_delta_sign`` below
gives them, and a regression test freezes its values.

Assembly is factored and storage is sparse.  Each component is a short
signed sum sum_t G_t (x) H_t (x) K_t of a map G_t on the Lambda^q g_p*
factor, a map H_t on the Lambda^r g* factor and a coefficient map K_t (or
the identity), each kept as a table of its nonzero rows:

* delta_r   = sum_e Ins_e (x) 1 (x) rho0(t e) - sum_e Ins_e (x) Der(L_{t e})
              (x) 1 + CE(g_p) (x) 1 (x) 1, over the basis e of g_p, with
              Ins_e : I -> +-(I without e) and the e of zero maps skipped;
* delta_one = 1 (x) sum_j Ins_j (x) rho0^1(mu e_j) + 1 (x) CE(g) (x) 1,
              with rho1(e_j) in place of rho0^1(mu e_j) at r = 0;
* partial   = sum_k (-1)^k Lambda^q(face_k) (x) 1 (x) 1;
* delta_k   = sum_T G_T (x) Ins_T (x) (phi if r = k), over the k-tuples T of
              x^0 indices, with G_T : I -> +-Lambda^q(face_0)(I without T)
              and Ins_T : J -> +-sort(T ++ J).

``_assemble`` adds such a sum, times a block sign, straight into the
{column: value} rows it is given, at a row and a column offset.  Each
table is built once and shared by every (p, q, r) that uses it, in one of
two caches:

* tables of the dimensions alone are shared by every context in the
  process, in the bounded ``_shared`` cache keyed by dim g, dim h (or the
  one dimension they read) and their indices: the spaces, the identities,
  Ins_e on either factor, the Ins_T and the G_T (which read face 0 only),
  and every face but the last;
* tables that read mu, an action, phi or a bracket stay in the context's
  own cache (``_factor``): the nerve brackets (``nerve_algebra``), the CE
  tables of g_p and g, the partial tables (the last face reads mu), rho0,
  Der, rho1 and phi.  As t e is mu e_a or e_b, rho0(t e) and Der(L_{t e})
  are built for the mu e_a and the e_b only, and shared by every p.

``_components`` lists the components out of C^{p,q}_r, each with its
kind, its difference order, its target block and its sign in nabla;
``nabla`` and ``component_matrix`` read it.  Each nabla_n is a
``SparseMatrix``, rows of its nonzeros.  ``nabla`` assembles every
component into its own rows at the block offsets, keeps no component and
drops zeros once per row at the end; the context's cache keeps nabla_n.
``component_matrix`` assembles one component into fresh rows.
``nabla_squared_blocks`` multiplies the sparse rows, and
``total_cohomology`` hands nabla_{n-1} and nabla_n to
``numeric.cohomology``, so no dense nabla or kernel is built on the way to
H^n.  Their ``data`` is a dense view, built only when read.

Trivial coefficients are no separate complex: they are the unit
2-representation (W = 0, V = Q, every action zero) restricted to its
q >= 1 blocks, which form a subcomplex because nabla never lowers q.  The
q = 0 row Q -0-> Q -1-> Q -0-> ... is acyclic above degree 0 and its H^0,
the constants, consists of cocycles of the whole lattice, so for n >= 1
the restriction and the full unit lattice have the same H^n.
"""

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import combinations

from .numeric import (Matrix, SparseMatrix, Space, Q0, cohomology, rank,
                      increasing_tuples, _demote, _nonzero, _sparse_rows)
from .liealg import _sort_sign, ce_differential, sparse_columns
from .lie2 import (TwoVectorSpace, nerve_algebra, face_columns,
                   validate_crossed_module)
from .tworep import TwoRep, validate_two_rep, honest_rep

# Sign of Delta_k on C^{p,q}_r inside the total differential.  Calibrated
# against nabla^2 = 0 as an exact matrix identity (the one free parameter
# of the construction); the regression tests re-derive this table.
# k = 1: (-1)^r, k = 2: (-1)^(q+r+1), k = 3: (-1)^(r+1), k = 4: (-1)^(q+r).
def _delta_sign(k, q, r):
    return -1 if ((k - 1) * q + r + k // 2) % 2 else 1


# Largest nabla_n, in rows x cols, that nabla() builds: the only bound
# known before building.  It bounds the worst-case fill-in of eliminating
# nabla_n and the dense view (``data``) that the ladder's check reads, 160
# MB of list slots before any entry object; no kernel is dense any more.
# The benchmark builds at most 0.9M cells; the tests build a 13.6M-cell
# nabla_3 and never view it dense.  The tables of the dimensions alone
# outlive their context in the ``_shared`` cache, at most _SHARED_TABLES
# of them; the tables that read a context's maps go with it.
MAX_NABLA_CELLS = 20_000_000

# The number of dimension-only tables kept across contexts: the 110
# contexts of a random-contexts benchmark pass use 625 of them.
_SHARED_TABLES = 1024


@lru_cache(maxsize=_SHARED_TABLES)
def _shared(build, *dims):
    """build(*dims), once per process: for the tables and spaces that
    depend on dimensions and indices alone, so every context shares
    them, and no caller changes them.  Never for one that reads mu, an
    action, phi or a bracket."""
    return build(*dims)


def _expand(args):
    """Alternating expansion of a tuple of sparse vectors.

    args: list of [(index, nonzero coeff), ...].  Returns a list of
    (coefficient, sorted increasing tuple); repeated indices are dropped.
    """
    results = [(1, ())]
    for vec in args:
        results = [(coeff * c, tup + (idx,))
                   for coeff, tup in results for idx, c in vec]
        if not results:
            return results
    if len(args) < 2:
        return results
    out = []
    for coeff, tup in results:
        s, sorted_tup = _sort_sign(tup)
        if s:
            out.append((coeff * s, sorted_tup))
    return out


def _positions(n, k):
    """{t: position} over the increasing k-tuples of range(n)."""
    return {t: i for i, t in enumerate(increasing_tuples(n, k))}


def _sparse_from(vec):
    return [(i, _demote(c)) for i, c in enumerate(vec) if c != 0]


def _usp(i):
    return [(i, 1)]


def _row(terms, pos):
    """The nonzero (column, value) pairs of sum_t c e_pos[t] over the
    (c, t) of terms."""
    acc = {}
    for c, t in terms:
        j = pos[t]
        acc[j] = acc.get(j, 0) + c
    return list(_nonzero(acc).items())


# A factor table is a linear map as its nonzero rows, [(row, [(column,
# value), ...]), ...]; on tuples, row i is the image of the i-th target
# tuple on the positions of the source tuples.

def _table(m):
    """The table of a matrix, None if it is zero."""
    return [(a, list(row.items()))
            for a, row in enumerate(_sparse_rows(m.data)) if row] or None


def _tuple_table(images, pos):
    """The table whose row i is images[i], given as (coefficient,
    increasing tuple) terms, on the positions pos."""
    table = []
    for i, terms in enumerate(images):
        entries = _row(terms, pos)
        if entries:
            table.append((i, entries))
    return table


def _insertions(n, k):
    """{e: Ins_e} from the (k-1)- to the k-tuples of range(n), Ins_e
    sending each tuple I that holds e to I without e, with sign (-1)^(the
    position of e in I)."""
    pos = _positions(n, k - 1)
    tables = {}
    for i, I in enumerate(increasing_tuples(n, k)):
        for at, e in enumerate(I):
            tables.setdefault(e, []).append(
                (i, [(pos[I[:at] + I[at + 1:]], -1 if at % 2 else 1)]))
    return tables


def _ce_table(tuples, pos, brackets):
    """The Chevalley-Eilenberg part I -> sum_{m<n} (-1)^(m+n) [I_m, I_n]
    ^ (I without I_m, I_n), for the brackets {(a, b): sparse vector},
    a < b, of the basis."""
    def image(I):
        for m, n in combinations(range(len(I)), 2):
            br = brackets.get((I[m], I[n]))
            if br:
                sign = -1 if (m + n) % 2 else 1
                rest = [_usp(i) for i in I[:m] + I[m + 1:n] + I[n + 1:]]
                for c, t in _expand([br] + rest):
                    yield sign * c, t
    return _tuple_table(map(image, tuples), pos)


def _derivation(tuples, pos, cols):
    """Der(A): J -> sum_k (J with J_k replaced by A e_{J_k}), for A given
    as sparse columns; None if A = 0."""
    if not any(cols):
        return None

    def image(J):
        for k in range(len(J)):
            yield from _expand([cols[a] if t == k else _usp(a)
                                for t, a in enumerate(J)])
    return _tuple_table(map(image, tuples), pos)


def _identity(n):
    return [(i, [(i, 1)]) for i in range(n)]


def _shifts(n, r, k):
    """{T: Ins_T} over the k-tuples T of range(n), Ins_T sending each
    (r-k)-tuple J to sort(T ++ J) with its sign."""
    pos = _positions(n, r)
    return {T: _tuple_table((_expand([_usp(a) for a in T + J])
                             for J in increasing_tuples(n, r - k)), pos)
            for T in increasing_tuples(n, k)}


def _difference_tables(dg, dh, p, q, k):
    """{T: G_T} for Delta_k out of the g_p tuples of length q: G_T sends I
    to (-1)^(sum S) Lambda^q(face_0)(I without I_S) at the positions S
    with I_S = T."""
    face0 = _shared(face_columns, dg, dh, p, 0, None)
    pos = _positions(p * dg + dh, q)
    rows = {}
    for i, I in enumerate(increasing_tuples((p + 1) * dg + dh, q + k)):
        # the x^0 indices, below dg, lead I
        for subset in combinations(range(bisect_left(I, dg)), k):
            T = tuple(I[t] for t in subset)
            sign = -1 if sum(subset) % 2 else 1
            rest = [face0[I[t]] for t in range(len(I)) if t not in subset]
            entries = _row(((sign * c, t) for c, t in _expand(rest)), pos)
            if entries:
                rows.setdefault(T, []).append((i, entries))
    return rows


def _components(p, q, r):
    """The component maps out of C^{p,q}_r, as (kind, difference order k
    or None, target block, sign in nabla)."""
    yield "deltaR", None, (p, q + 1, r), 1
    yield "delta1", None, (p, q, r + 1), -1 if q % 2 else 1
    yield "partial", None, (p + 1, q, r), -1 if (q + r) % 2 else 1
    for k in range(1, r + 1):
        yield "DeltaK", k, (p + 1, q + k, r - k), _delta_sign(k, q, r)


class LatticeContext:
    """All lattice computations for a fixed (crossed module, 2-rep) pair."""

    def __init__(self, x, rep):
        if rep.source != x:
            raise ValueError("the 2-representation is over another "
                             "crossed module")
        for what, validate, structure in (
                ("crossed module", validate_crossed_module, x),
                ("2-representation", validate_two_rep, rep)):
            bad = validate(structure)
            if bad:
                raise ValueError("invalid %s: violated %s"
                                 % (what, sorted(set(b[0] for b in bad))))
        self.x = x
        self.rep = rep
        self.dg = x.g.dim
        self.dh = x.h.dim
        self.dw = rep.target.dim_w
        self.dv = rep.target.dim_v
        self.phi = rep.target.phi
        self._factors = {}

    # -- structural caches -------------------------------------------------

    def _factor(self, key, build):
        """The factor under key, built once per context and shared by
        every component that uses it: for the tables that read this
        context's maps (the others are ``_shared``).  It also keeps the
        layouts and the nabla_n, under ("layout", n) and ("nabla", n)."""
        if key not in self._factors:
            self._factors[key] = build()
        return self._factors[key]

    def gp_dim(self, p):
        return p * self.dg + self.dh

    def nerve(self, p):
        return self._factor(("nerve", p), lambda: nerve_algebra(self.x, p))

    def space(self, p, q, r):
        return _shared(Space, p, q, r, self.gp_dim(p), self.dg,
                       self.dw if r else self.dv)

    def cochain_dim(self, p, q, r):
        return self.space(p, q, r).total_dim

    # -- component differentials -------------------------------------------

    def component_matrix(self, kind, p, q, r, k=None):
        """Matrix of one component map out of C^{p,q}_r, assembled into
        fresh rows and not cached (nabla assembles into its own rows).

        (kind, k) is one that _components lists out of (p, q, r): kind in
        {"deltaR", "delta1", "partial"} with k None, or "DeltaK" with
        1 <= k <= r; ValueError otherwise, and on a negative index.
        """
        if min(p, q, r) < 0:
            raise ValueError("negative lattice index (%d, %d, %d)"
                             % (p, q, r))
        for listed, order, block, _ in _components(p, q, r):
            if (listed, order) == (kind, k):
                break
        else:
            raise ValueError("no component %r with k=%r out of C^{%d,%d,%d}"
                             % (kind, k, p, q, r))
        src = self.space(p, q, r)
        tgt = self.space(*block)
        rows = [{} for _ in range(tgt.total_dim)]
        if src.total_dim and tgt.total_dim:
            self._assemble(rows, 0, 0, src, tgt, kind, k, 1)
        return SparseMatrix(tgt.total_dim, src.total_dim,
                            [_nonzero(row) if row else row for row in rows])

    def _assemble(self, rows, row0, col0, src, tgt, kind, k, sign):
        """Add sign times the component of the kind (and order k) out of
        src, sum_t sign_t G_t (x) H_t (x) K_t, into rows: its entry (i, j)
        to rows[row0 + i] at column col0 + j.  The rows keep any zero sum.

        Each term is (sign_t, G, H, K): G on the g_p tuples, H on the g
        tuples, K on the coefficients (None for the identity), each as a
        table of its nonzero rows (see _table)."""
        dt, ds = tgt.coeff_dim, src.coeff_dim
        nt, ns = len(tgt.g_tuples), len(src.g_tuples)
        for term_sign, gp_table, g_table, coeff in \
                self._TERMS[kind](self, src, tgt, k):
            # per target g tuple: (source column offset, signed value)
            g_side = [(j, [(j_in * ds, sign * term_sign * c)
                           for j_in, c in entries])
                      for j, entries in g_table]
            for i, entries in gp_table:
                gp_side = [(col0 + i_in * ns * ds, c) for i_in, c in entries]
                for j, g_entries in g_side:
                    row0_ij = row0 + (i * nt + j) * dt
                    for off1, c1 in gp_side:
                        for off2, c2 in g_entries:
                            col = off1 + off2
                            val = c1 * c2
                            if coeff is None:
                                for a in range(dt):
                                    row = rows[row0_ij + a]
                                    b = col + a
                                    row[b] = row.get(b, 0) + val
                            else:
                                for a, pairs in coeff:
                                    row = rows[row0_ij + a]
                                    for b, x in pairs:
                                        b += col
                                        row[b] = row.get(b, 0) + val * x

    def _on_targets(self, key, rep, table):
        """(table(rep(mu e_a)) per basis vector e_a of g, table(rep(e_b))
        per e_b of h), built once per key.  The final target t of g_p
        sends e_a in each of the p g-slots to mu e_a and e_b to e_b."""
        tables = self._factor(key, lambda: [
            table(m) for m in [rep.act(self.x.mu.col(a))
                               for a in range(self.dg)] + rep.mats])
        return tables[:self.dg], tables[self.dg:]

    def _delta_r_terms(self, src, tgt, k):
        """Sum_e Ins_e (x) 1 (x) rho0(t e) - sum_e Ins_e (x) Der(L_{t e})
        (x) 1 + CE(g_p) (x) 1 (x) 1, over the basis e of g_p."""
        p, q, r = src.p, src.q, src.r
        ins = _shared(_insertions, self.gp_dim(p), q + 1)
        ident = _shared(_identity, len(src.g_tuples))
        g_part, h_part = self._on_targets(
            ("rho0", bool(r)), self.rep.rho0_w if r else self.rep.rho0_v,
            _table)
        coeff = g_part * p + h_part
        terms = [(1, ins[e], ident, coeff[e]) for e in ins if coeff[e]]
        if r:
            g_part, h_part = self._on_targets(
                ("der", r), self.x.action, lambda m: _derivation(
                    src.g_tuples, src.g_pos, sparse_columns(m)))
            der = g_part * p + h_part
            terms += [(-1, ins[e], der[e], None) for e in ins if der[e]]
        ce = self._factor(("gp_ce", p, q), lambda: _ce_table(
            tgt.gp_tuples, src.gp_pos, self.nerve(p).structure))
        if ce:
            terms.append((1, ce, ident, None))
        return terms

    def _delta_one_terms(self, src, tgt, k):
        """1 (x) sum_j Ins_j (x) rho0^1(mu e_j) (rho1(e_j) at r = 0)
        + 1 (x) CE(g) (x) 1, over the basis e_j of g."""
        r = src.r
        if r:
            coeff = self._on_targets(("rho0", True), self.rep.rho0_w,
                                     _table)[0]
        else:
            coeff = self._factor(("rho1",), lambda: [
                _table(m) for m in self.rep.rho1])
        ins = _shared(_insertions, self.dg, r + 1)
        ident = _shared(_identity, len(src.gp_tuples))
        terms = [(1, ident, ins[j], coeff[j]) for j in ins if coeff[j]]
        ce = self._factor(("g_ce", r), lambda: _ce_table(
            tgt.g_tuples, src.g_pos, self.x.g.structure))
        if ce:
            terms.append((1, ident, ce, None))
        return terms

    def _partial_terms(self, src, tgt, k):
        """sum_i (-1)^i Lambda^q(face_i) (x) 1 (x) 1."""
        p, q = src.p, src.q

        def build():
            # only the last face reads mu
            faces = [_shared(face_columns, self.dg, self.dh, p, i, None)
                     for i in range(p + 1)] + [face_columns(
                         self.dg, self.dh, p, p + 1, self.x.mu)]

            def image(I):
                for i, face in enumerate(faces):
                    sign = -1 if i % 2 else 1
                    for c, t in _expand([face[a] for a in I]):
                        yield sign * c, t
            return _tuple_table(map(image, tgt.gp_tuples), src.gp_pos)

        table = self._factor(("gp_partial", p, q), build)
        return [(1, table, _shared(_identity, len(src.g_tuples)), None)] \
            if table else []

    def _delta_k_terms(self, src, tgt, k):
        """sum_T G_T (x) Ins_T (x) (phi if r = k), over the k-tuples T of
        x^0 indices; G_T sends I to (-1)^(sum S) Lambda^q(face_0)(I without
        I_S) at the positions S with I_S = T, Ins_T sends J to sort(T ++ J)
        with its sign."""
        p, q, r = src.p, src.q, src.r
        gp = _shared(_difference_tables, self.dg, self.dh, p, q, k)
        ins = _shared(_shifts, self.dg, r, k)
        coeff = None
        if r == k:
            coeff = self._factor(("phi",), lambda: _table(self.phi))
            if coeff is None:
                return []
        return [(1, table, ins[T], coeff) for T, table in gp.items()
                if ins[T]]

    _TERMS = {"deltaR": _delta_r_terms, "delta1": _delta_one_terms,
              "partial": _partial_terms, "DeltaK": _delta_k_terms}

    # -- total differential and cohomology -----------------------------------

    def total_dim(self, n):
        return self.block_offsets(n)[1]

    def block_offsets(self, n):
        """The layout of C^n_tot, built once per degree and shared (not to
        be changed): ({(p, q, r): start offset}, dim C^n_tot) over the
        blocks of degree n with a nonzero space, in sorted order."""
        key = ("layout", n)
        if key not in self._factors:
            offs = {}
            pos = 0
            for p in range(n + 1):
                for q in range(n - p + 1):
                    block = (p, q, n - p - q)
                    dim = self.cochain_dim(*block)
                    if dim:
                        offs[block] = pos
                        pos += dim
            self._factors[key] = offs, pos
        return self._factors[key]

    def split(self, n, vec):
        """The blocks of a vector of C^n_tot: {(p, q, r): values}, in block
        order."""
        offs, dim = self.block_offsets(n)
        assert len(vec) == dim
        return {b: vec[start:start + self.cochain_dim(*b)]
                for b, start in offs.items()}

    def join(self, n, parts):
        """The vector of C^n_tot with the given {(p, q, r): values} blocks
        and Q0 in every block not given.  A block outside degree n, or of
        dimension zero, takes no values: ValueError on a nonempty part for
        it, as on a part of the wrong length."""
        offs, dim = self.block_offsets(n)
        vec = [Q0] * dim
        for b, values in parts.items():
            size = self.cochain_dim(*b) if b in offs else 0
            if len(values) != size:
                raise ValueError("block %s takes %d values in degree %d, "
                                 "got %d" % (b, size, n, len(values)))
            if size:
                vec[offs[b]:offs[b] + size] = values
        return vec

    def block_matrix(self, block, values, cols=None):
        """The values of a block as the matrix whose column k is the value
        at its k-th basis tuple pair (its first cols columns if given).
        For (0,1,0), (0,0,1) and (1,1,0), column k is the value at basis
        vector k of h, g and g_1 = g (+) h: lambda0, lambda1, phimap."""
        space = self.space(*block)
        assert len(values) == space.total_dim
        rows = space.coeff_dim
        if cols is None:
            cols = len(space.gp_tuples) * len(space.g_tuples)
        return Matrix(rows, cols, [[values[k * rows + i] for k in range(cols)]
                                   for i in range(rows)])

    def block_values(self, block, m):
        """Inverse of block_matrix: the values of the block whose first
        m.cols columns are m, with Q0 in the columns after them."""
        space = self.space(*block)
        assert m.rows == space.coeff_dim
        values = [x for k in range(m.cols) for x in m.col(k)]
        return values + [Q0] * (space.total_dim - len(values))

    def nabla(self, n):
        """The total differential C^n_tot -> C^{n+1}_tot as one sparse
        matrix.

        Raises ValueError, before building anything, if it would have
        more than MAX_NABLA_CELLS cells."""
        key = ("nabla", n)
        if key in self._factors:
            return self._factors[key]
        src_offs, src_dim = self.block_offsets(n)
        tgt_offs, tgt_dim = self.block_offsets(n + 1)
        if tgt_dim * src_dim > MAX_NABLA_CELLS:
            raise ValueError("refusing to build nabla_%d: %d x %d = %d cells "
                             "exceeds the limit of %d"
                             % (n, tgt_dim, src_dim, tgt_dim * src_dim,
                                MAX_NABLA_CELLS))
        out = [{} for _ in range(tgt_dim)]
        for (p, q, r), col0 in src_offs.items():
            src = self.space(p, q, r)
            # the components out of one source block go to distinct target
            # blocks and those of distinct source blocks to distinct
            # columns, so each cell of nabla is one component's; a target
            # block of dimension 0 has no cells, so nothing is assembled
            for kind, k, block, sign in _components(p, q, r):
                if block in tgt_offs:
                    self._assemble(out, tgt_offs[block], col0, src,
                                   self.space(*block), kind, k, sign)
        self._factors[key] = SparseMatrix(
            tgt_dim, src_dim, [_nonzero(row) if row else row for row in out])
        return self._factors[key]

    def nabla_squared_blocks(self, n):
        """Nonzero blocks of nabla_{n+1} nabla_n, for diagnostics, as
        (source block, target block) pairs in block order."""
        prod = self.nabla(n + 1) * self.nabla(n)
        src_offs, _ = self.block_offsets(n)
        tgt_offs, _ = self.block_offsets(n + 2)
        src_blocks, src_starts = list(src_offs), list(src_offs.values())
        tgt_blocks, tgt_starts = list(tgt_offs), list(tgt_offs.values())
        hit = set()
        for i, row in enumerate(prod.sparse):
            if row:
                tb = tgt_blocks[bisect_right(tgt_starts, i) - 1]
                for j in row:
                    hit.add((src_blocks[bisect_right(src_starts, j) - 1], tb))
        # the block order of a degree is the sorted order of (p, q, r)
        return sorted(hit)

    def total_cohomology(self, n):
        """(dim H^n, representative cocycle vectors), from
        ``numeric.cohomology`` of nabla_{n-1} and nabla_n."""
        assert n >= 0
        dn = self.nabla(n)
        prev = self.nabla(n - 1) if n else Matrix.zero(dn.cols, 0)
        return cohomology(prev, dn)

    # -- low-degree interpretations ------------------------------------------

    def h0_invariants(self):
        """dim of the joint kernel {v : rho0^0(y) v = 0, rho1(x) v = 0}."""
        rows = []
        for b in range(self.dh):
            rows.extend(self.rep.rho0_v.mats[b].data)
        for a in range(self.dg):
            rows.extend(self.rep.rho1[a].data)
        if not rows:
            return self.dv
        m = Matrix(len(rows), self.dv, rows)
        return self.dv - rank(m)

    def h1_der_inn(self):
        """(dim Der, dim Inn, dim Out), read off the honest representation
        rather than the lattice matrices.

        A derivation is a pair lambda0: h -> V, lambda1: g -> W with
        phi lambda1 = lambda0 mu whose sum lambda1 (+) lambda0 is a
        Chevalley-Eilenberg 1-cocycle of g_1 = g (+) h in the honest
        representation bar rho on W (+) V.  So Der is the kernel of
        ce_differential(bar rho, 1) on the block-diagonal cochains, with
        the phi rows added.  Inn is the image of v -> (rho0^0(.) v,
        rho1(.) v), whose kernel is the joint kernel h0_invariants counts:
        by rank-nullity, dim Inn = dim V - dim H^0."""
        dg, dw, dv = self.dg, self.dw, self.dv
        d = ce_differential(honest_rep(self.rep, self.nerve(1)), 1)
        # a 1-cochain of g_1 holds its value at e_i, W part first, in the
        # columns from i * width on: lambda1(e_j) is the W part at e_j,
        # lambda0(e_b) the V part at e_{dg + b}
        width = dw + dv
        lam1 = [range(j * width, j * width + dw) for j in range(dg)]
        lam0 = [range((dg + b) * width + dw, (dg + b + 1) * width)
                for b in range(self.dh)]
        unknowns = [c for cols in lam1 + lam0 for c in cols]
        chosen = set(unknowns)
        rows = [{c: x for c, x in row.items() if c in chosen}
                for row in d.sparse]
        # phi lambda1 = lambda0 mu, per basis vector e_j of g
        for j in range(dg):
            mu_j = self.x.mu.col(j)
            for a in range(dv):
                row = {lam1[j][b]: c for b, c in enumerate(self.phi.data[a])}
                row.update((lam0[b][a], -c) for b, c in enumerate(mu_j))
                rows.append(row)
        rows = [_nonzero(row) for row in rows]
        dim_der = len(unknowns) - rank(SparseMatrix(len(rows), d.cols, rows))
        dim_inn = dv - self.h0_invariants()
        return dim_der, dim_inn, dim_der - dim_inn


class LatticeCochain:
    """A single cochain in C^{p,q}_r, stored on increasing multi-indices."""

    def __init__(self, ctx, p, q, r, values):
        self.ctx = ctx
        self.index = (p, q, r)
        space = ctx.space(p, q, r)
        if len(values) != space.total_dim:
            raise ValueError("C^{%d,%d,%d} has %d values, got %d"
                             % (p, q, r, space.total_dim, len(values)))
        self.values = list(values)
        self.space = space

    def evaluate(self, xi_vectors, z_vectors):
        """Alternating multilinear evaluation; returns a coefficient list.
        ValueError unless it is given q vectors of g_p and r of g."""
        p, q, r = self.index
        for slot, vectors, count, dim in (
                ("xi", xi_vectors, q, self.ctx.gp_dim(p)),
                ("z", z_vectors, r, self.ctx.dg)):
            if len(vectors) != count or any(len(v) != dim for v in vectors):
                raise ValueError("C^{%d,%d,%d} takes %d vectors of length %d "
                                 "in its %s slots, got lengths %s" % (
                                     p, q, r, count, dim, slot,
                                     [len(v) for v in vectors]))
        out = [Q0] * self.space.coeff_dim
        gp_args = [_sparse_from(v) for v in xi_vectors]
        g_args = [_sparse_from(v) for v in z_vectors]
        for c1, I in _expand(gp_args):
            for c2, J in _expand(g_args):
                pos = self.space.block(I, J)
                if pos is None:
                    continue
                c = c1 * c2
                for a in range(self.space.coeff_dim):
                    out[a] += c * self.values[pos + a]
        return out


# ---------------------------------------------------------------------------
# Trivial coefficients: the unit 2-representation, rows q >= 1.
# ---------------------------------------------------------------------------

def unit_rep(x):
    """The unit 2-representation of x: W = 0, V = Q, every map zero."""
    return TwoRep.trivial(x, TwoVectorSpace(0, 1, Matrix.zero(1, 0)))


def trivial_context(x):
    """The lattice of x with values in the unit 2-representation."""
    return LatticeContext(x, unit_rep(x))


def trivial_total_complex(x, n):
    """Differential Omega^n_tot -> Omega^{n+1}_tot of the trivial
    2-cohomology double complex, d = delta + (-1)^q partial: the unit
    lattice's nabla_n on its q >= 1 blocks.  These precede the one q = 0
    block (n, 0, 0) in the block order, so they form the leading
    submatrix."""
    ctx = trivial_context(x)
    rows = ctx.block_offsets(n + 1)[0][(n + 1, 0, 0)]
    cols = ctx.block_offsets(n)[0][(n, 0, 0)]
    return SparseMatrix(rows, cols,
                        [{j: x for j, x in row.items() if j < cols}
                         for row in ctx.nabla(n).sparse[:rows]])


def trivial_cohomology_dim(x, n):
    """dim H^n of the trivial-coefficient double complex (0 at n = 0,
    where it has no cochains; the unit lattice's H^n above)."""
    return trivial_context(x).total_cohomology(n)[0] if n else 0
