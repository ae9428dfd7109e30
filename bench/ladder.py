"""cohomology-ladder: dim H^n through the command line, on frozen inputs.

One operation is one in-process ``lie2coh cohomology FILE --degree n``
call.  The rungs are the adjoint 2-representation of gl(phi) for
phi = (1 0): Q^2 -> Q at n = 0..4 and for phi = 0: Q^2 -> Q at n = 0..3,
the ``adjoint_aff1`` test fixture at n = 0..3, and the g = 0 problem with
h = Heisenberg and V = adjoint at n = 0..3.  The problem files live in
problems/ (regenerate with make_problems.py); the seed is not used.

The representatives of H^n are kept from the call for the checks: the
pass records the return value of ``LatticeContext.total_cohomology``
(one list append per rung).
"""

import os
import re

from oracles import apply_exact, cohomology_dim_mod_p, columns, rank_mod_p

PROBLEMS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "problems")
RUNGS = ([("glphi_proj_adjoint", n) for n in range(5)]
         + [("glphi_zero_adjoint", n) for n in range(4)]
         + [("adjoint_aff1", n) for n in range(4)]
         + [("heisenberg_g0_adjoint", n) for n in range(4)])
CE_PROBLEM = "heisenberg_g0_adjoint"
WARM_UP = ("adjoint_aff1", 0)
H_LINE = re.compile(r"^H\^(\d+) = (\d+)$", re.M)


def path(name):
    return os.path.join(PROBLEMS, name + ".json")


class State:
    def __init__(self, lib):
        self.problems = {name: lib.cli.load_problem(path(name))
                         for name, _ in RUNGS}
        self.captured = None


def setup(lib, seed):
    state = State(lib)
    _rung(lib, state, *WARM_UP)
    return state


def _capture(lib, state):
    """Keep the return value of each total_cohomology call in state."""
    cls = lib.lattice.LatticeContext
    original = cls.total_cohomology

    def total_cohomology(ctx, n):
        state.captured = original(ctx, n)
        return state.captured

    cls.total_cohomology = total_cohomology


def _rung(lib, state, name, n):
    state.captured = None
    code = lib.cli.main(["cohomology", path(name), "--degree", str(n)])
    reps = state.captured[1] if state.captured else None
    return code, reps


def operations(lib, state):
    _capture(lib, state)
    return [("%s --degree %d" % rung,
             (lambda rung=rung: _rung(lib, state, *rung)))
            for rung in RUNGS]


def check(lib, state, outputs):
    bad = []
    for (name, n), output in zip(RUNGS, outputs):
        if output is None:
            continue
        label = "%s --degree %d" % (name, n)
        (code, reps), text = output
        if code != 0 or "FAIL" in text or "CHECK" not in text:
            bad.append("%s: exit %d, CHECK lines %r" % (label, code, text))
            continue
        found = H_LINE.search(text)
        if not found or int(found.group(1)) != n:
            bad.append("%s: no H^%d line" % (label, n))
            continue
        dim = int(found.group(2))
        ctx = state.problems[name].context()
        d_n = ctx.nabla(n)
        prev_cols = columns(ctx.nabla(n - 1)) if n else []
        want = cohomology_dim_mod_p(d_n.cols, d_n.data, prev_cols)
        if dim != want:
            bad.append("%s: H^%d = %d, mod-p ranks give %d"
                       % (label, n, dim, want))
        if name == CE_PROBLEM:
            rep = state.problems[name].two_rep.rho0_v
            ce = lib.liealg.ce_differential
            d_ce = ce(rep, n)
            d_ce_prev = columns(ce(rep, n - 1)) if n else []
            want_ce = cohomology_dim_mod_p(d_ce.cols, d_ce.data, d_ce_prev)
            if dim != want_ce:
                bad.append("%s: H^%d = %d, Chevalley-Eilenberg gives %d"
                           % (label, n, dim, want_ce))
        if reps is None or len(reps) != dim:
            bad.append("%s: %s representatives for dim %d"
                       % (label, None if reps is None else len(reps), dim))
            continue
        if any(any(apply_exact(d_n.data, v)) for v in reps):
            bad.append("%s: a representative is not a cocycle" % label)
        if rank_mod_p(prev_cols + reps) != rank_mod_p(prev_cols) + len(reps):
            bad.append("%s: representatives dependent modulo the image"
                       % label)
    return bad
