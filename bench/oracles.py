"""The benchmark's own oracles.  They share no arithmetic with the
library's elimination, so a wrong kernel in the library cannot also make
its check pass.

* ``rank_mod_p``: rank of a rational matrix modulo a large prime, by
  sparse row reduction.  It never exceeds the rank over Q, and equals it
  unless the prime divides one of a few minors, so a mismatch with a
  library dimension is a real discrepancy on these small-entried inputs.
* ``glphi0_dim``: dim gl(phi)_0 of phi: W -> V of rank r, from the block
  form of commuting pairs (F, f) with phi F = f phi.
* ``xmod_violations`` and ``two_rep_violations``: the defining identities
  of a crossed module and of a 2-representation, evaluated entry by entry
  on the stored structure constants and matrices.
"""

from fractions import Fraction

P = 2147483647  # 2^31 - 1


def _mod(x):
    if isinstance(x, Fraction):
        if x.denominator % P == 0:
            raise ValueError("denominator divisible by the prime")
        return x.numerator * pow(x.denominator, P - 2, P) % P
    return x % P


def _sparse_rows(rows):
    """Rows (lists of rationals) as {column: value mod P} dicts."""
    out = []
    for row in rows:
        d = {}
        for j, x in enumerate(row):
            if x:
                v = _mod(x)
                if v:
                    d[j] = v
        out.append(d)
    return out


def rank_mod_p(rows):
    """Rank mod P of a matrix given as a list of rows of rationals."""
    pivots = {}
    for row in _sparse_rows(rows):
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], P - 2, P)
                pivots[c] = {j: v * inv % P for j, v in row.items()}
                break
            f = row[c]
            for j, v in prow.items():
                w = (row.get(j, 0) - f * v) % P
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
    return len(pivots)


def columns(matrix):
    """Columns of a library Matrix as lists (none when it has no rows,
    which leaves its rank 0)."""
    return [list(col) for col in zip(*matrix.data)]


def cohomology_dim_mod_p(dim_n, d_n_rows, d_prev_rows):
    """dim C^n - rank_p d_n - rank_p d_{n-1}."""
    return dim_n - rank_mod_p(d_n_rows) - rank_mod_p(d_prev_rows)


def apply_exact(rows, vec):
    """Exact matrix-vector product on rational rows."""
    return [sum(a * x for a, x in zip(row, vec) if a and x) for row in rows]


def glphi0_dim(dw, dv, r):
    """dim gl(phi)_0 for phi: Q^dw -> Q^dv of rank r.

    In bases adapted to phi = [[1_r, 0], [0, 0]], phi F = f phi forces F
    and f to agree on the r x r block, F to preserve ker phi and f to map
    im phi into itself: r^2 + r(dw-r) + (dw-r)^2 + r(dv-r) + (dv-r)^2.
    """
    return (r * r + r * (dw - r) + (dw - r) ** 2 + r * (dv - r)
            + (dv - r) ** 2)


# -- structure identities ----------------------------------------------------


def _bracket_table(alg):
    """Full antisymmetric table c[i][j] = [e_i, e_j] as coefficient lists."""
    d = alg.dim
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, j), vec in alg.brackets.items():
        table[i][j] = list(vec)
        table[j][i] = [-c for c in vec]
    return table


def _br(table, u, v):
    d = len(u)
    out = [0] * d
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if b:
                for k, c in enumerate(table[i][j]):
                    if c:
                        out[k] += a * b * c
    return out


def _mv(m, v):
    return [sum(a * x for a, x in zip(row, v)) for row in m]


def _mm(a, b):
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt]
            for row in a]


def _sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _nonzero(m):
    return any(x for row in m for x in row)


def _lin(mats, coeffs, rows, cols):
    out = [[0] * cols for _ in range(rows)]
    for c, m in zip(coeffs, mats):
        if c:
            for i in range(rows):
                for j in range(cols):
                    out[i][j] += c * m[i][j]
    return out


def _unit(d, i):
    v = [0] * d
    v[i] = 1
    return v


def _jacobi_bad(table, d):
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                ei, ej, ek = _unit(d, i), _unit(d, j), _unit(d, k)
                s = [a + b + c for a, b, c in zip(
                    _br(table, _br(table, ei, ej), ek),
                    _br(table, _br(table, ej, ek), ei),
                    _br(table, _br(table, ek, ei), ej))]
                if any(s):
                    return True
    return False


def _rep_bad(table, mats, d, n):
    """Does y -> mats[y] fail to be a representation on Q^n?"""
    for i in range(d):
        for j in range(i + 1, d):
            lhs = _lin(mats, table[i][j], n, n)
            rhs = _sub(_mm(mats[i], mats[j]), _mm(mats[j], mats[i]))
            if _nonzero(_sub(lhs, rhs)):
                return True
    return False


def xmod_violations(x):
    """Names of the crossed-module identities that fail, using the names
    of ``lie2.validate_crossed_module``."""
    dg, dh = x.g.dim, x.h.dim
    tg, th = _bracket_table(x.g), _bracket_table(x.h)
    act = [m.data for m in x.action.mats]
    mu = x.mu.data
    bad = set()
    if _jacobi_bad(tg, dg):
        bad.add("jacobi_g")
    if _jacobi_bad(th, dh):
        bad.add("jacobi_h")
    if _rep_bad(th, act, dh, dg):
        bad.add("action_homomorphism")
    for b in range(dh):
        for i in range(dg):
            for j in range(i + 1, dg):
                ei, ej = _unit(dg, i), _unit(dg, j)
                lhs = _mv(act[b], tg[i][j])
                rhs = [p + q for p, q in zip(_br(tg, _mv(act[b], ei), ej),
                                             _br(tg, ei, _mv(act[b], ej)))]
                if lhs != rhs:
                    bad.add("derivation")
            lhs = _mv(mu, _mv(act[b], _unit(dg, i)))
            rhs = _br(th, _unit(dh, b), _mv(mu, _unit(dg, i)))
            if lhs != rhs:
                bad.add("equivariance")
    for i in range(dg):
        l_mu = _lin(act, [row[i] for row in mu], dg, dg)
        for j in range(dg):
            if [row[j] for row in l_mu] != tg[i][j]:
                bad.add("peiffer")
    return bad


def two_rep_violations(r):
    """Names of the 2-representation axioms that fail, using the names of
    ``tworep.validate_two_rep``."""
    x, t = r.source, r.target
    dg, dh, dw, dv = x.g.dim, x.h.dim, t.dim_w, t.dim_v
    tg, th = _bracket_table(x.g), _bracket_table(x.h)
    phi = t.phi.data
    r0w = [m.data for m in r.rho0_w.mats]
    r0v = [m.data for m in r.rho0_v.mats]
    r1 = [m.data for m in r.rho1]
    mu = x.mu.data
    bad = set()
    if _rep_bad(th, r0w, dh, dw):
        bad.add("rho0_w_homomorphism")
    if _rep_bad(th, r0v, dh, dv):
        bad.add("rho0_v_homomorphism")
    for b in range(dh):
        if _nonzero(_sub(_mm(phi, r0w[b]), _mm(r0v[b], phi))):
            bad.add("object_compatibility")
    for a in range(dg):
        mu_a = [row[a] for row in mu]
        if _nonzero(_sub(_lin(r0v, mu_a, dv, dv), _mm(phi, r1[a]))):
            bad.add("delta_rho1_V")
        if _nonzero(_sub(_lin(r0w, mu_a, dw, dw), _mm(r1[a], phi))):
            bad.add("delta_rho1_W")
    for a in range(dg):
        for b in range(a + 1, dg):
            lhs = _lin(r1, tg[a][b], dw, dv)
            rhs = _sub(_mm(_mm(r1[a], phi), r1[b]),
                       _mm(_mm(r1[b], phi), r1[a]))
            if _nonzero(_sub(lhs, rhs)):
                bad.add("rho1_homomorphism")
    act = [m.data for m in x.action.mats]
    for b in range(dh):
        for a in range(dg):
            lhs = _lin(r1, [row[a] for row in act[b]], dw, dv)
            rhs = _sub(_mm(r0w[b], r1[a]), _mm(r1[a], r0v[b]))
            if _nonzero(_sub(lhs, rhs)):
                bad.add("action_compatibility")
    return bad
