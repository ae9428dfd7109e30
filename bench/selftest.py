"""Self-test of the benchmark's own oracles; runs in a few seconds.

    python3 bench/selftest.py

Exits 0 when every check passes, 1 otherwise.
"""

import os
import random
import sys
from fractions import Fraction
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from structure import break_xmod, break_two_rep  # noqa: E402


def exact_rank(rows):
    """Dense Gaussian elimination over Q, the textbook way."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank, cols = 0, len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def check_rank(failures):
    rng = random.Random(7)
    for trial in range(200):
        rows, cols, r = rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 5)
        left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(r)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(r)]
        m = [[sum(left[i][k] * right[k][j] for k in range(r))
              for j in range(cols)] for i in range(rows)]
        if oracles.rank_mod_p(m) != exact_rank(m):
            failures.append("rank_mod_p differs on %r" % (m,))
    if oracles.rank_mod_p([[0, 0], [0, 0]]) != 0:
        failures.append("rank of zero matrix")


def check_cohomology(lib, failures):
    # 0 -> Q -> Q^2 -> Q -> 0, exact in the middle
    if oracles.cohomology_dim_mod_p(2, [[1, -1]], [[1, 1]]) != 0:
        failures.append("small exact complex")
    la, rep_cls = lib.liealg.LieAlgebra, lib.liealg.Representation
    expected = [(rep_cls.adjoint(la.heisenberg3()), [1, 4, 5, 2]),
                (rep_cls.trivial(la.sl2(), 1), [1, 0, 0, 1]),
                (rep_cls.trivial(la.abelian(3), 1), [1, 3, 3, 1])]
    for rep, dims in expected:
        got = []
        for n in range(4):
            d = lib.liealg.ce_differential(rep, n)
            prev = oracles.columns(lib.liealg.ce_differential(rep, n - 1)) \
                if n else []
            got.append(oracles.cohomology_dim_mod_p(d.cols, d.data, prev))
        if got != dims:
            failures.append("CE cohomology %s, expected %s" % (got, dims))


def check_glphi0(failures):
    for dw, dv in product(range(4), repeat=2):
        for r in range(min(dw, dv) + 1):
            phi = [[1 if i == j < r else 0 for j in range(dw)]
                   for i in range(dv)]
            # unknowns F (dw x dw) then f (dv x dv); rows: (phi F - f phi)_ij
            rows = []
            for i, j in product(range(dv), range(dw)):
                row = [0] * (dw * dw + dv * dv)
                for k in range(dw):
                    row[k * dw + j] += phi[i][k]
                for k in range(dv):
                    row[dw * dw + i * dv + k] -= phi[k][j]
                rows.append(row)
            kernel = dw * dw + dv * dv - oracles.rank_mod_p(rows)
            if kernel != oracles.glphi0_dim(dw, dv, r):
                failures.append("glphi0_dim(%d, %d, %d)" % (dw, dv, r))


def check_identities(lib, failures):
    lie2, tworep, Matrix = lib.lie2, lib.tworep, lib.numeric.Matrix
    x = lie2.gl_phi(lie2.TwoVectorSpace(2, 2, Matrix(2, 2, [[1, 0],
                                                             [0, 0]])))
    if oracles.xmod_violations(x):
        failures.append("valid gl(phi) has violations")
    if oracles.two_rep_violations(tworep.adjoint_rep(x)):
        failures.append("valid adjoint has violations")
    for identity in ("peiffer", "derivation", "action_homomorphism"):
        if identity not in oracles.xmod_violations(
                break_xmod(lib, x, identity)):
            failures.append("%s variant not seen as broken" % identity)
    aff = lib.liealg.LieAlgebra.aff1()
    rho = lib.liealg.Representation(aff, 1, [Matrix(1, 1, [[1]]),
                                             Matrix.zero(1, 1)])
    y = lie2.xmod_from_quadruple(aff, [1], 1, rho)
    if "delta_rho1_V" not in oracles.two_rep_violations(
            break_two_rep(lib, tworep.adjoint_rep(y))):
        failures.append("delta_rho1_V variant not seen as broken")
    bad_h = lib.liealg.LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})
    z = lie2.CrossedModuleAlg(lib.liealg.LieAlgebra(0), bad_h,
                              Matrix.zero(3, 0),
                              lib.liealg.Representation.trivial(bad_h, 0))
    if oracles.xmod_violations(z) != {"jacobi_h"}:
        failures.append("Jacobi failure of h not seen")


def check_manifest(failures):
    """BENCHMARK.json lists the metrics that run.py and tracing.py print."""
    import json
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    per_layer = [m["name"] for m in manifest["per_layer"]]
    if per_layer != list(tracing.METRICS) + ["trace.overhead_s"]:
        failures.append("BENCHMARK.json per_layer differs from tracing.py")
    if sorted(w["name"] for w in manifest["workloads"]) != sorted(
            run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.py")


def main():
    lib = run.import_lib()
    failures = []
    check_rank(failures)
    check_cohomology(lib, failures)
    check_glphi0(failures)
    check_identities(lib, failures)
    check_manifest(failures)
    for line in failures:
        print("FAIL %s" % line)
    print("selftest: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
