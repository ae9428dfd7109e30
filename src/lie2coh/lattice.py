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

Assembly and storage are sparse.  Each component is accumulated as
{column: value} rows: every term of a target basis pair expands its
sparse arguments onto source basis pairs and adds its coefficient map,
turned into sparse rows once per matrix, at the matching offsets.  The
faces of g_p enter as sparse columns, cached per (p, k) on the context,
and the nerve brackets come from the structure constants
(``nerve_algebra``).  Components and each nabla_n are ``SparseMatrix``
rows of their nonzeros: ``nabla`` copies each component's rows to its
block offsets, ``nabla_squared_blocks`` multiplies the sparse rows, and
``total_cohomology`` eliminates them, so no dense nabla is built on the
way to H^n.  Their ``data`` is a dense view, built only when read.

Trivial coefficients are no separate complex: they are the unit
2-representation (W = 0, V = Q, every action zero) restricted to its
q >= 1 blocks, which form a subcomplex because nabla never lowers q.  The
q = 0 row Q -0-> Q -1-> Q -0-> ... is acyclic above degree 0 and its H^0,
the constants, consists of cocycles of the whole lattice, so for n >= 1
the restriction and the full unit lattice have the same H^n.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations

from .numeric import (Matrix, SparseMatrix, Q0, rank, rank_and_kernel,
                      vectors_matrix, increasing_tuples, _demote, _echelon,
                      _nonzero, _row_copies, _sparse_rows)
from .liealg import _unit, _sort_sign, sparse_columns
from .lie2 import (TwoVectorSpace, nerve_algebra, face_matrix,
                   final_target_matrix, validate_crossed_module)
from .tworep import TwoRep, validate_two_rep, bar_rho

# Sign of Delta_k on C^{p,q}_r inside the total differential.  Calibrated
# against nabla^2 = 0 as an exact matrix identity (the one free parameter
# of the construction); the regression tests re-derive this table.
# k = 1: (-1)^r, k = 2: (-1)^(q+r+1), k = 3: (-1)^(r+1), k = 4: (-1)^(q+r).
def _delta_sign(k, q, r):
    return -1 if ((k - 1) * q + r + k // 2) % 2 else 1


# Largest nabla_n, in rows x cols, that nabla() builds.  nabla_n is stored
# sparse, but its dense view (``data``) has this many cells, 160 MB of
# list slots before any entry object.  The benchmark builds at most 0.9M
# cells; the tests build a 13.6M-cell nabla_3 and never view it dense.
MAX_NABLA_CELLS = 20_000_000


class Space:
    """Basis bookkeeping for C^{p,q}_r."""

    def __init__(self, p, q, r, gp_dim, g_dim, coeff_dim):
        self.p, self.q, self.r = p, q, r
        self.gp_tuples = increasing_tuples(gp_dim, q)
        self.g_tuples = increasing_tuples(g_dim, r)
        self.coeff_dim = coeff_dim
        self._gp_pos = {t: i for i, t in enumerate(self.gp_tuples)}
        self._g_pos = {t: i for i, t in enumerate(self.g_tuples)}
        self.total_dim = len(self.gp_tuples) * len(self.g_tuples) * coeff_dim

    def block(self, gp_tuple, g_tuple):
        """Start offset of the coefficient block of a basis tuple pair."""
        i = self._gp_pos.get(gp_tuple)
        j = self._g_pos.get(g_tuple)
        if i is None or j is None:
            return None
        return (i * len(self.g_tuples) + j) * self.coeff_dim


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


def _sparse_from(vec):
    return [(i, _demote(c)) for i, c in enumerate(vec) if c != 0]


def _usp(i):
    return [(i, 1)]


class LatticeContext:
    """All lattice computations for a fixed (crossed module, 2-rep) pair."""

    def __init__(self, x, rep, check_degree=None):
        if rep.source != x:
            raise ValueError("the 2-representation is over another "
                             "crossed module")
        bad = validate_crossed_module(x)
        if bad:
            raise ValueError("invalid crossed module: violated %s"
                             % sorted(set(b[0] for b in bad)))
        bad = validate_two_rep(rep)
        if bad:
            raise ValueError("invalid 2-representation: violated %s"
                             % sorted(set(b[0] for b in bad)))
        self.x = x
        self.rep = rep
        self.dg = x.g.dim
        self.dh = x.h.dim
        self.dw = rep.target.dim_w
        self.dv = rep.target.dim_v
        self.phi = rep.target.phi
        self._nerves = {}
        self._face_cols = {}
        self._targets = {}
        self._spaces = {}
        self._layouts = {}
        self._mats = {}
        self._nablas = {}
        # rho0^1(mu(e_j)) per g-basis vector as sparse rows, for delta_one
        self._rho01_mu = [_sparse_rows(rep.rho0_w.act(x.mu.col(j)).data)
                          for j in range(self.dg)]
        if check_degree is not None:
            for n in range(check_degree + 1):
                bad = self.nabla_squared_blocks(n)
                if bad:
                    raise ValueError("nabla^2 != 0 at degree %d: nonzero "
                                     "blocks %s" % (n, bad))

    # -- structural caches -------------------------------------------------

    def gp_dim(self, p):
        return p * self.dg + self.dh

    def nerve(self, p):
        if p not in self._nerves:
            self._nerves[p] = nerve_algebra(self.x, p).underlying
        return self._nerves[p]

    def face(self, p, k):
        return face_matrix(self.x, p, k)

    def face_columns(self, p, k):
        """The k-th face g_{p+1} -> g_p as sparse columns."""
        key = (p, k)
        if key not in self._face_cols:
            self._face_cols[key] = sparse_columns(self.face(p, k))
        return self._face_cols[key]

    def target(self, p):
        if p not in self._targets:
            self._targets[p] = final_target_matrix(self.x, p)
        return self._targets[p]

    def space(self, p, q, r):
        key = (p, q, r)
        if key not in self._spaces:
            coeff = self.dv if r == 0 else self.dw
            self._spaces[key] = Space(p, q, r, self.gp_dim(p), self.dg, coeff)
        return self._spaces[key]

    def cochain_dim(self, p, q, r):
        return self.space(p, q, r).total_dim

    # -- component differentials -------------------------------------------

    def component_matrix(self, kind, p, q, r, k=None):
        """Matrix of one component map out of C^{p,q}_r.

        kind in {"deltaR", "delta1", "partial", "DeltaK"}; for DeltaK the
        difference order k with 1 <= k <= r is required.
        """
        key = (kind, p, q, r, k)
        if key in self._mats:
            return self._mats[key]
        if kind == "deltaR":
            mat = self._build_delta_r(p, q, r)
        elif kind == "delta1":
            mat = self._build_delta_one(p, q, r)
        elif kind == "partial":
            mat = self._build_partial(p, q, r)
        elif kind == "DeltaK":
            if k is None or not 1 <= k <= r:
                raise ValueError("difference order out of range: k=%r, r=%d"
                                 % (k, r))
            mat = self._build_delta_k(p, q, r, k)
        else:
            raise ValueError("unknown component kind %r" % (kind,))
        self._mats[key] = mat
        return mat

    def _assemble(self, src, tgt, term_gen):
        """A component, accumulated as {column: value} rows.

        term_gen(I, J) yields the terms of the target basis pair (I, J):
        (sign, coefficient rows, gp_args, g_args), the coefficient map as
        sparse rows (None for the identity) and the arguments as sparse
        vectors, expanded alternatingly onto source basis pairs."""
        rows = [{} for _ in range(tgt.total_dim)]
        dc = src.coeff_dim
        gp_pos, g_pos = src._gp_pos, src._g_pos
        stride = len(src.g_tuples) * dc
        for I in tgt.gp_tuples:
            for J in tgt.g_tuples:
                row0 = tgt.block(I, J)
                for sign, coeff, gp_args, g_args in term_gen(I, J):
                    # (sign * coefficient, offset) of each source g-tuple
                    g_terms = [(sign * c2, g_pos[J_in] * dc)
                               for c2, J_in in _expand(g_args)
                               if J_in in g_pos]
                    for c1, I_in in _expand(gp_args):
                        i = gp_pos.get(I_in)
                        if i is None:
                            continue
                        for c2, offset in g_terms:
                            col0 = i * stride + offset
                            val = c1 * c2
                            if coeff is None:
                                for a in range(dc):
                                    row = rows[row0 + a]
                                    b = col0 + a
                                    row[b] = row.get(b, 0) + val
                                continue
                            for a, entries in enumerate(coeff, row0):
                                row = rows[a]
                                for b, x in entries.items():
                                    b += col0
                                    row[b] = row.get(b, 0) + val * x
        return SparseMatrix(tgt.total_dim, src.total_dim,
                            [_nonzero(row) for row in rows])

    def _build_delta_r(self, p, q, r):
        src = self.space(p, q, r)
        tgt = self.space(p, q + 1, r)
        nerve = self.nerve(p)
        # the actions of y = t_p(e_i) on the coefficients and on g, once
        # per basis index i of g_p
        ys = self.target(p).columns()
        rho0 = self.rep.rho0_w if r else self.rep.rho0_v
        coeff = [_sparse_rows(rho0.act(y).data) for y in ys]
        moved_by = [sparse_columns(self.x.action.act(y))
                    for y in ys] if r else None
        brackets = nerve._sparse

        def terms(I, J):
            units_J = [_usp(j) for j in J]
            for jpos in range(q + 1):
                rest = [_usp(i) for t, i in enumerate(I) if t != jpos]
                sign = -1 if jpos % 2 else 1
                yield (sign, coeff[I[jpos]], rest, units_J)
                for kpos in range(r):
                    moved = [moved_by[I[jpos]][J[t]] if t == kpos
                             else _usp(J[t]) for t in range(r)]
                    yield (-sign, None, rest, moved)
            for m in range(q + 1):
                for n in range(m + 1, q + 1):
                    br = brackets.get((I[m], I[n]))
                    if br is None:
                        continue
                    rest = [_usp(i) for t, i in enumerate(I)
                            if t not in (m, n)]
                    sign = -1 if (m + n) % 2 else 1
                    yield (sign, None, [br] + rest, units_J)

        return self._assemble(src, tgt, terms)

    def _build_delta_one(self, p, q, r):
        src = self.space(p, q, r)
        tgt = self.space(p, q, r + 1)
        brackets = {key: [(i, _demote(c)) for i, c in vec]
                    for key, vec in self.x.g._sparse.items()}
        rho1 = [_sparse_rows(m.data) for m in self.rep.rho1] if not r else None

        def terms(I, J):
            units_I = [_usp(i) for i in I]
            if r == 0:
                # seed: (delta_one w)(Xi; x) = rho1(x) w(Xi)
                yield (1, rho1[J[0]], units_I, [])
                return
            for kpos in range(r + 1):
                rest = [_usp(j) for t, j in enumerate(J) if t != kpos]
                sign = -1 if kpos % 2 else 1
                yield (sign, self._rho01_mu[J[kpos]], units_I, rest)
            for a in range(r + 1):
                for b in range(a + 1, r + 1):
                    br = brackets.get((J[a], J[b]))
                    if br is None:
                        continue
                    rest = [_usp(j) for t, j in enumerate(J)
                            if t not in (a, b)]
                    sign = -1 if (a + b) % 2 else 1
                    yield (sign, None, units_I, [br] + rest)

        return self._assemble(src, tgt, terms)

    def _build_partial(self, p, q, r):
        src = self.space(p, q, r)
        tgt = self.space(p + 1, q, r)
        faces = [self.face_columns(p, k) for k in range(p + 2)]

        def terms(I, J):
            units_J = [_usp(j) for j in J]
            for k, face in enumerate(faces):
                sign = -1 if k % 2 else 1
                yield (sign, None, [face[i] for i in I], units_J)

        return self._assemble(src, tgt, terms)

    def _build_delta_k(self, p, q, r, k):
        src = self.space(p, q, r)
        tgt = self.space(p + 1, q + k, r - k)
        face0 = self.face_columns(p, 0)
        coeff = _sparse_rows(self.phi.data) if r == k else None
        dg = self.dg

        def x0_part(i):
            # x^0-coordinate block of a g_{p+1} basis vector
            return _usp(i) if i < dg else []

        def terms(I, J):
            units_J = [_usp(j) for j in J]
            for subset in combinations(range(q + k), k):
                sign = -1 if sum(subset) % 2 else 1
                gp_args = [face0[I[t]] for t in range(q + k)
                           if t not in subset]
                g_args = [x0_part(I[t]) for t in subset] + units_J
                yield (sign, coeff, gp_args, g_args)

        return self._assemble(src, tgt, terms)

    # -- total differential and cohomology -----------------------------------

    def degree_blocks(self, n):
        """The (p, q, r) with p + q + r = n and a nonzero space, in order."""
        return list(self.block_offsets(n)[0])

    def total_dim(self, n):
        return self.block_offsets(n)[1]

    def block_offsets(self, n):
        """The layout of C^n_tot, built once per degree and shared (not to
        be changed): ({(p, q, r): start offset}, dim C^n_tot) over the
        blocks of degree n with a nonzero space, in sorted order."""
        if n not in self._layouts:
            offs = {}
            pos = 0
            for p in range(n + 1):
                for q in range(n - p + 1):
                    block = (p, q, n - p - q)
                    dim = self.cochain_dim(*block)
                    if dim:
                        offs[block] = pos
                        pos += dim
            self._layouts[n] = offs, pos
        return self._layouts[n]

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
        if n in self._nablas:
            return self._nablas[n]
        src_offs, src_dim = self.block_offsets(n)
        tgt_offs, tgt_dim = self.block_offsets(n + 1)
        if tgt_dim * src_dim > MAX_NABLA_CELLS:
            raise ValueError("refusing to build nabla_%d: %d x %d = %d cells "
                             "exceeds the limit of %d"
                             % (n, tgt_dim, src_dim, tgt_dim * src_dim,
                                MAX_NABLA_CELLS))
        out = [{} for _ in range(tgt_dim)]

        def place(tgt_block, src_block, sign, kind, k=None):
            # the components out of one source block go to distinct target
            # blocks, so each cell of nabla is written once
            mat = self.component_matrix(kind, *src_block, k)
            if tgt_block not in tgt_offs:
                return
            c0 = src_offs[src_block]
            for i, row in enumerate(mat.sparse, tgt_offs[tgt_block]):
                orow = out[i]
                for j, x in row.items():
                    orow[c0 + j] = x if sign > 0 else -x

        for (p, q, r) in self.degree_blocks(n):
            src = (p, q, r)
            place((p, q + 1, r), src, 1, "deltaR")
            place((p, q, r + 1), src, -1 if q % 2 else 1, "delta1")
            place((p + 1, q, r), src, -1 if (q + r) % 2 else 1, "partial")
            for k in range(1, r + 1):
                place((p + 1, q + k, r - k), src, _delta_sign(k, q, r),
                      "DeltaK", k)
        self._nablas[n] = SparseMatrix(tgt_dim, src_dim, out)
        return self._nablas[n]

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
        """(dim H^n, representative cocycle vectors).

        One echelon of the columns [im nabla_{n-1} | ker nabla_n]: its
        pivot columns among the kernel vectors are the representatives,
        the kernel vectors (in kernel order) independent of the image and
        of the ones before them."""
        assert n >= 0
        dn = self.nabla(n)
        _, kernel = rank_and_kernel(dn)
        # row i of [im | ker] is row i of nabla_{n-1}, then the kernel's
        # i-th coordinates
        if n:
            image = self.nabla(n - 1)
            rows, width = _row_copies(image), image.cols
        else:
            rows, width = [{} for _ in range(dn.cols)], 0
        for k, v in enumerate(kernel):
            for i, x in enumerate(v):
                if x:
                    rows[i][width + k] = x
        pivots = _echelon(rows)
        reps = [kernel[c - width] for c in sorted(pivots) if c >= width]
        return len(reps), reps

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
        """(dim Der, dim Inn, dim Out) computed from the honest
        representation route, independent of the lattice matrices."""
        x, rep = self.x, self.rep
        dg, dh, dw, dv = self.dg, self.dh, self.dw, self.dv
        n_unk = dh * dv + dg * dw  # lambda0 then lambda1, row-major
        rbar = bar_rho(rep)
        arrows = rbar.algebra
        rows = []

        def l0_entry(row, b, a, c):
            row[b * dv + a] += c

        def l1_entry(row, b, a, c):
            row[dh * dv + b * dw + a] += c

        # 2-vector-space map: phi lambda1 = lambda0 mu, per g-basis vector
        for j in range(dg):
            mu_j = x.mu.col(j)
            for a in range(dv):
                row = [Q0] * n_unk
                for b in range(dw):
                    if self.phi.data[a][b] != 0:
                        l1_entry(row, j, b, self.phi.data[a][b])
                for b in range(dh):
                    if mu_j[b] != 0:
                        l0_entry(row, b, a, -mu_j[b])
                rows.append(row)

        # derivation property w.r.t. bar rho on basis pairs of g (+) h
        def lam_bar_rows(vec):
            """Rows extracting (lambda1 x, lambda0 y) of vec in W (+) V."""
            xv, yv = vec[:dg], vec[dg:]
            out = []
            for a in range(dw):
                row = [Q0] * n_unk
                for j in range(dg):
                    if xv[j] != 0:
                        l1_entry(row, j, a, xv[j])
                out.append(row)
            for a in range(dv):
                row = [Q0] * n_unk
                for b in range(dh):
                    if yv[b] != 0:
                        l0_entry(row, b, a, yv[b])
                out.append(row)
            return out

        for i in range(arrows.dim):
            for j in range(i + 1, arrows.dim):
                br = arrows.basis_bracket(i, j)
                lhs = lam_bar_rows(br)
                rhs_i = lam_bar_rows(_unit(arrows.dim, j))
                rhs_j = lam_bar_rows(_unit(arrows.dim, i))
                mi = rbar.mats[i]
                mj = rbar.mats[j]
                for a in range(dw + dv):
                    row = list(lhs[a])
                    for c in range(dw + dv):
                        if mi.data[a][c] != 0:
                            row = [u - mi.data[a][c] * v
                                   for u, v in zip(row, rhs_i[c])]
                        if mj.data[a][c] != 0:
                            row = [u + mj.data[a][c] * v
                                   for u, v in zip(row, rhs_j[c])]
                    rows.append(row)

        m = Matrix(len(rows), n_unk, rows) if rows else Matrix.zero(0, n_unk)
        dim_der = n_unk - rank(m)
        # inner: v -> (lambda0, lambda1) = (rho0^0(.) v, rho1(.) v),
        # intersected with Der (it always lands there)
        cols = []
        for c in range(dv):
            col = [Q0] * n_unk
            for b in range(dh):
                for a in range(dv):
                    col[b * dv + a] = self.rep.rho0_v.mats[b].data[a][c]
            for j in range(dg):
                for a in range(dw):
                    col[dh * dv + j * dw + a] = self.rep.rho1[j].data[a][c]
            cols.append(col)
        dim_inn = rank(vectors_matrix(cols, dim=n_unk)) if cols else 0
        return dim_der, dim_inn, dim_der - dim_inn


class LatticeCochain:
    """A single cochain in C^{p,q}_r, stored on increasing multi-indices."""

    def __init__(self, ctx, p, q, r, values):
        self.ctx = ctx
        self.index = (p, q, r)
        space = ctx.space(p, q, r)
        assert len(values) == space.total_dim
        self.values = [Fraction(v) if isinstance(v, int) else v
                       for v in values]
        self.space = space

    def evaluate(self, xi_vectors, z_vectors):
        """Alternating multilinear evaluation; returns a coefficient list."""
        p, q, r = self.index
        assert len(xi_vectors) == q and len(z_vectors) == r
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

def trivial_context(x):
    """The lattice of x with values in the unit 2-representation."""
    return LatticeContext(x, TwoRep.trivial(
        x, TwoVectorSpace(0, 1, Matrix.zero(1, 0))))


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
