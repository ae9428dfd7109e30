"""Regenerate the frozen problem files of the cohomology ladder.

    python3 bench/make_problems.py

The ladder reads these files, never this script, so a later change to
``gl_phi``'s basis or to ``adjoint_rep`` cannot change what the ladder
measures.  Run this only to refresh the files on purpose, and say so in
CHANGES.md: it changes the workload.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBLEMS = os.path.join(HERE, "problems")


def _rat(x):
    from lie2coh.numeric import format_rat
    return format_rat(x)


def _matrix(m):
    return [[_rat(x) for x in row] for row in m.data]


def _algebra(a):
    return {"dim": a.dim,
            "brackets": {"%d,%d" % key: [_rat(c) for c in vec]
                         for key, vec in sorted(a.brackets.items())}}


def problem_dict(x, rep):
    """A crossed module and a 2-representation in the problem-file format
    that ``lie2coh.cli.load_problem`` reads."""
    return {
        "lie2algebra": {"g": _algebra(x.g), "h": _algebra(x.h),
                        "mu": _matrix(x.mu),
                        "action": [_matrix(m) for m in x.action.mats]},
        "two_vector": {"W": rep.target.dim_w, "V": rep.target.dim_v,
                       "phi": _matrix(rep.target.phi)},
        "two_rep": {"rho1": [_matrix(m) for m in rep.rho1],
                    "rho0_W": [_matrix(m) for m in rep.rho0_w.mats],
                    "rho0_V": [_matrix(m) for m in rep.rho0_v.mats]},
    }


def build():
    from lie2coh.numeric import Matrix
    from lie2coh.liealg import LieAlgebra, Representation
    from lie2coh.lie2 import CrossedModuleAlg, TwoVectorSpace, gl_phi
    from lie2coh.tworep import TwoRep, adjoint_rep

    out = {}
    for name, phi in (("glphi_proj_adjoint", [[1, 0]]),
                      ("glphi_zero_adjoint", [[0, 0]])):
        x = gl_phi(TwoVectorSpace(2, 1, Matrix(1, 2, phi)))
        out[name] = problem_dict(x, adjoint_rep(x))
    # g = 0, h = Heisenberg, W = 0, V = h with the adjoint action
    h = LieAlgebra.heisenberg3()
    x = CrossedModuleAlg(LieAlgebra(0), h, Matrix.zero(3, 0),
                         Representation.trivial(h, 0))
    rep = TwoRep(x, TwoVectorSpace(0, 3, Matrix.zero(3, 0)), [],
                 Representation.trivial(h, 0), Representation.adjoint(h))
    out["heisenberg_g0_adjoint"] = problem_dict(x, rep)
    return out


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(PROBLEMS, exist_ok=True)
    for name, data in build().items():
        with open(os.path.join(PROBLEMS, name + ".json"), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    shutil.copyfile(os.path.join(ROOT, "tests", "fixtures",
                                 "adjoint_aff1.json"),
                    os.path.join(PROBLEMS, "adjoint_aff1.json"))


if __name__ == "__main__":
    main()
