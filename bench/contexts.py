"""random-contexts: many small lattice complexes of fixed make-up.

One operation takes one seeded (crossed module, 2-representation) pair
through the lattice and extension layers: build ``LatticeContext``, check
nabla^2 = 0 through degree 3, compute H^0..H^2 with the invariants and
Der/Inn routes, run an extension round trip with the canonical and a
perturbed splitting, and count cocycle classes.

The make-up is fixed by STRATA: each row names the kind of 2-represent-
ation, the isomorphism type of h, dim g, rank mu, and for the kinds that
choose them dim W, dim V and rank phi, with a fixed count.  The seed picks
only what lies inside a stratum: the basis of h, the representation
entries, phi, and the round-trip coefficients.  That keeps the cost of a
pass nearly independent of the seed.
"""

import random

from inputs import make_xmod, rank_matrix

# (kind, h type, dim g, rank mu, dim W, dim V, rank phi, count); for
# "adjoint" W = g, V = h and phi = mu; for "pullback" the row describes
# the small crossed module x0 and its trivial 2-representation, and the
# context is the pull-back along the semidirect product x0 + (W -> V).
STRATA = [
    ("adjoint", "ab1", 1, 0, None, None, None, 8),
    ("adjoint", "ab1", 1, 1, None, None, None, 8),
    ("adjoint", "ab2", 1, 1, None, None, None, 6),
    ("adjoint", "aff1", 1, 1, None, None, None, 6),
    ("adjoint", "ab1", 2, 1, None, None, None, 6),
    ("adjoint", "ab2", 2, 1, None, None, None, 6),
    ("adjoint", "aff1", 2, 2, None, None, None, 6),
    ("trivial", "ab1", 1, 1, 2, 2, 1, 8),
    ("trivial", "aff1", 1, 1, 1, 2, 1, 8),
    ("unit_v", "ab2", 1, 1, 0, 2, 0, 8),
    ("unit_v", "aff1", 0, 0, 0, 1, 0, 8),
    ("unit_w", "ab1", 1, 0, 2, 0, 0, 8),
    ("unit_w", "aff1", 2, 2, 1, 0, 0, 8),
    ("pullback", "ab1", 1, 1, 1, 1, 1, 8),
    ("pullback", "0", 0, 0, 2, 1, 1, 8),
]

ROUND_TRIP_SPAN = 2


def _unit_rep(lib, rng, x, ideal, dw, dv):
    """W = 0 or V = 0 unit 2-representation; its h-action kills mu(g)."""
    Matrix, Rep = lib.numeric.Matrix, lib.liealg.Representation
    rho = lib.samples.random_descending_rep(rng, x.h, ideal, dw + dv)
    none = Rep.trivial(x.h, 0)
    target = lib.lie2.TwoVectorSpace(dw, dv, Matrix.zero(dv, dw))
    return lib.tworep.TwoRep(x, target, [Matrix.zero(dw, dv)] * x.g.dim,
                             rho if dw else none, rho if dv else none)


def make_context(lib, rng, stratum):
    kind, htype, dg, rk, dw, dv, rphi = stratum[:7]
    tworep, lie2, Matrix = lib.tworep, lib.lie2, lib.numeric.Matrix
    x, ideal = make_xmod(lib, rng, htype, dg, rk)
    if kind == "adjoint":
        return x, tworep.adjoint_rep(x)
    if kind == "trivial":
        target = lie2.TwoVectorSpace(dw, dv, rank_matrix(lib, rng, dv, dw,
                                                          rphi))
        return x, tworep.TwoRep.trivial(x, target)
    if kind in ("unit_v", "unit_w"):
        return x, _unit_rep(lib, rng, x, ideal, dw, dv)
    small = tworep.TwoRep.trivial(x, lie2.TwoVectorSpace(
        dw, dv, rank_matrix(lib, rng, dv, dw, rphi)))
    big = tworep.semidirect_2alg(x, small)
    proj_g = Matrix.zero(x.g.dim, big.g.dim)
    for i in range(x.g.dim):
        proj_g.data[i][i] = 1
    proj_h = Matrix.zero(x.h.dim, big.h.dim)
    for i in range(x.h.dim):
        proj_h.data[i][i] = 1
    return big, tworep.pullback_two_rep(small, big, proj_g, proj_h)


class Case:
    """One context with the seeded data of its round trip."""

    def __init__(self, label, x, rep, coeffs, lam0, lam1):
        self.label = label
        self.x = x
        self.rep = rep
        self.coeffs = coeffs
        self.lam0 = lam0
        self.lam1 = lam1


def setup(lib, seed):
    rng = random.Random(seed)
    cases = []
    for stratum in STRATA:
        for k in range(stratum[7]):
            x, rep = make_context(lib, rng, stratum)
            dg, dh = x.g.dim, x.h.dim
            dw, dv = rep.target.dim_w, rep.target.dim_v
            slice_dim = dh * (dh - 1) // 2 * dv + dh * dg * dw + dv * dg
            coeffs = [rng.randint(-ROUND_TRIP_SPAN, ROUND_TRIP_SPAN)
                      for _ in range(slice_dim)]
            lam0 = lib.samples.random_matrix(rng, dv, dh, 1)
            lam1 = lib.samples.random_matrix(rng, dw, dg, 1)
            label = "%s/%s/g%d/mu%d#%d" % (stratum[0], stratum[1],
                                          stratum[2], stratum[3], k)
            cases.append(Case(label, x, rep, coeffs, lam0, lam1))
    return cases


def _run(lib, case):
    lattice, ext = lib.lattice, lib.ext
    x = case.x
    ctx = lattice.LatticeContext(x, case.rep)
    nabla_sq = [ctx.nabla_squared_blocks(n) for n in range(4)]
    h = [ctx.total_cohomology(n)[0] for n in range(3)]
    inv = ctx.h0_invariants()
    der, inn, out = ctx.h1_der_inn()
    basis = ext.cocycle_space_basis(ctx)
    u = [0] * len(case.coeffs)
    for c, v in zip(case.coeffs, basis):
        if c:
            u = [a + c * b for a, b in zip(u, v)]
    coc = ext.cocycle_from_slice(ctx, u)
    violated = coc.validate()
    e = ext.extension_from_cocycle(coc)
    exact = e.rows_exact()
    sigma0, sigma1 = ext.canonical_splitting(e)
    _, back = ext.cocycle_from_extension(e, sigma0, sigma1, base_x=x)
    for b in range(ctx.dh):
        for i in range(ctx.dv):
            sigma0.data[x.h.dim + i][b] += case.lam0.data[i][b]
    for a in range(ctx.dg):
        for i in range(ctx.dw):
            sigma1.data[x.g.dim + i][a] += case.lam1.data[i][a]
    _, other = ext.cocycle_from_extension(e, sigma0, sigma1, base_x=x)
    lam = ext.coboundary_solve(coc, other)
    classes = ext.cocycle_slice_class_count(ctx)
    return {"nabla_sq": nabla_sq, "h": h, "inv": inv, "out": out,
            "violated": violated, "exact": exact,
            "round_trip": back == coc, "cohomologous": lam is not None,
            "classes": classes, "cocycle": coc.values_triple(),
            "perturbed": other.values_triple()}


def operations(lib, cases):
    return [(case.label, (lambda case=case: _run(lib, case)))
            for case in cases]


def check(lib, cases, outputs):
    """The outputs against each other and against their definitions."""
    bad = []
    for case, output in zip(cases, outputs):
        if output is None:
            continue
        r = output[0]
        problems = []
        if any(r["nabla_sq"]):
            problems.append("nabla^2 != 0 in blocks %s" % (r["nabla_sq"],))
        if r["h"][0] != r["inv"]:
            problems.append("H^0 %d != invariants %d" % (r["h"][0], r["inv"]))
        if r["h"][1] != r["out"]:
            problems.append("H^1 %d != Out %d" % (r["h"][1], r["out"]))
        if r["classes"] != r["h"][2]:
            problems.append("class count %d != H^2 %d"
                            % (r["classes"], r["h"][2]))
        if r["violated"] or not r["exact"]:
            problems.append("cocycle or extension rows invalid")
        if not r["round_trip"]:
            problems.append("canonical splitting did not return the cocycle")
        if not r["cohomologous"]:
            problems.append("perturbed splitting not cohomologous")
        bad.extend("%s: %s" % (case.label, p) for p in problems)
    return bad
