"""structure-validate: the exact structure code with no lattice.

Operations, in this order:

* gl(phi): for each (dim W, dim V, rank phi) of GLPHI_SCHEDULE, build
  ``gl_phi`` of a seeded phi and run ``validate_crossed_module`` on it;
* adjoint: for each stratum of ADJOINT_STRATA, run ``validate_two_rep``
  on ``adjoint_rep`` of a seeded crossed module with dim h <= 3;
* broken: run the validator on a seeded variant that violates a known
  identity (BROKEN), which it must flag by name.

The seed picks phi inside its (dims, rank) stratum, the basis of h and
the representation entries; it never changes the schedule.
"""

import random

from inputs import make_xmod, rank_matrix
from oracles import glphi0_dim, two_rep_violations, xmod_violations

# every (dim W, dim V, rank phi) with dims <= 3, and a spread of dims 4
GLPHI_SCHEDULE = (
    [(dw, dv, r) for dw in range(4) for dv in range(4)
     for r in range(min(dw, dv) + 1)]
    + [(4, 0, 0), (0, 4, 0), (4, 1, 1), (1, 4, 0), (4, 2, 1), (2, 4, 1),
       (4, 4, 2)])
# (type of h, dim g, rank mu, count)
ADJOINT_STRATA = [
    ("ab1", 1, 1, 6), ("ab2", 2, 1, 6), ("aff1", 1, 1, 6),
    ("aff1", 2, 2, 6), ("ab3", 2, 0, 6), ("heis3", 2, 0, 6),
    ("heis3", 3, 3, 6), ("sl2", 1, 0, 6), ("sl2", 3, 3, 6),
    ("aff1+ab1", 3, 3, 6),
]
# (broken identity, dims and rank of the gl(phi) it breaks, count); the
# 2-representation variant breaks the adjoint of an aff(1) crossed module
BROKEN = [("peiffer", (2, 2, 1), 3), ("derivation", (2, 2, 1), 3),
          ("action_homomorphism", (2, 2, 1), 3),
          ("delta_rho1_V", ("aff1", 1, 1), 3)]


def break_xmod(lib, x, identity):
    """A copy of a valid crossed module with one identity broken.

    peiffer: mu -> 2 mu keeps equivariance (linear in mu) but gives
    L_{mu x0} x1 = 2 [x0, x1]; derivation: L_{e_0} + 1 would need
    [x, y] = 2 [x, y]; action_homomorphism: L -> 2 L compares
    4 [L_a, L_b] with 2 L_[a,b].  Each fails once g is not abelian and the
    action is not zero, as in gl(phi) for phi: Q^2 -> Q^2 of rank 1.
    """
    lie2, Rep = lib.lie2, lib.liealg.Representation
    mats = list(x.action.mats)
    mu = x.mu
    if identity == "peiffer":
        mu = mu.scale(2)
    elif identity == "derivation":
        mats[0] = mats[0] + lib.numeric.Matrix.identity(x.g.dim)
    elif identity == "action_homomorphism":
        mats = [m.scale(2) for m in mats]
    return lie2.CrossedModuleAlg(x.g, x.h, mu, Rep(x.h, x.g.dim, mats))


def break_two_rep(lib, rep):
    """rho1 -> 2 rho1: delta rho1 = rho0^0 o mu fails wherever
    rho0^0(mu(g)) is not zero, as for aff(1) with mu(g) its derived ideal."""
    return lib.tworep.TwoRep(rep.source, rep.target,
                             [m.scale(2) for m in rep.rho1],
                             rep.rho0_w, rep.rho0_v)


def setup(lib, seed):
    rng = random.Random(seed)
    lie2 = lib.lie2
    cases = []
    for dw, dv, r in GLPHI_SCHEDULE:
        phi = rank_matrix(lib, rng, dv, dw, r)
        cases.append(("glphi", (dw, dv, r), lie2.TwoVectorSpace(dw, dv, phi)))
    for htype, dg, rk, count in ADJOINT_STRATA:
        for _ in range(count):
            cases.append(("adjoint", (htype, dg, rk),
                          make_xmod(lib, rng, htype, dg, rk)[0]))
    for identity, spec, count in BROKEN:
        for _ in range(count):
            if identity == "delta_rho1_V":
                x = make_xmod(lib, rng, *spec)[0]
                broken = break_two_rep(lib, lib.tworep.adjoint_rep(x))
            else:
                dw, dv, r = spec
                x = lie2.gl_phi(lie2.TwoVectorSpace(
                    dw, dv, rank_matrix(lib, rng, dv, dw, r)))
                broken = break_xmod(lib, x, identity)
            cases.append(("broken", identity, broken))
    return cases


def _run(lib, kind, spec, data):
    lie2, tworep = lib.lie2, lib.tworep
    if kind == "glphi":
        x = lie2.gl_phi(data)
        return x, lie2.validate_crossed_module(x)
    if kind == "adjoint":
        return None, tworep.validate_two_rep(tworep.adjoint_rep(data))
    if spec == "delta_rho1_V":
        return None, tworep.validate_two_rep(data)
    return None, lie2.validate_crossed_module(data)


def operations(lib, cases):
    return [("%s %s #%d" % (kind, spec, k),
             (lambda c=(kind, spec, data): _run(lib, *c)))
            for k, (kind, spec, data) in enumerate(cases)]


def check(lib, cases, outputs):
    bad = []
    for (kind, spec, data), output in zip(cases, outputs):
        if output is None:
            continue
        (x, violations), _ = output
        names = set(v[0] for v in violations)
        label = "%s %s" % (kind, spec)
        if kind == "glphi":
            dw, dv, r = spec
            if names:
                bad.append("%s: valid gl(phi) flagged %s" % (label, names))
            if x.g.dim != dw * dv or x.h.dim != glphi0_dim(dw, dv, r):
                bad.append("%s: dims (%d, %d), expected (%d, %d)"
                           % (label, x.g.dim, x.h.dim, dw * dv,
                              glphi0_dim(dw, dv, r)))
        elif kind == "adjoint":
            if names:
                bad.append("%s: valid adjoint flagged %s" % (label, names))
        else:
            want = (two_rep_violations(data) if spec == "delta_rho1_V"
                    else xmod_violations(data))
            if spec not in want:
                bad.append("%s: the variant does not break %s" % (label, spec))
            if names != want:
                bad.append("%s: validator reports %s, evaluation gives %s"
                           % (label, sorted(names), sorted(want)))
    return bad
