"""group-checks: the floating-point and jet layer (``grp``, ``Jet``).

One operation is one built-in scenario of ``grp.SCENARIOS``.  The four
scenarios that take dims run over each of DIMS with SEEDS_PER_DIMS
seeded trial sets of TRIALS samples; ``lie-functor`` and
``vanest-heisenberg`` take neither dims nor a seed and run once per pass.
"""

import random

PER_DIMS = ("glphi", "exp", "startop", "gp2cocycle-semidirect")
ONCE = ("lie-functor", "vanest-heisenberg")
DIMS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]
SEEDS_PER_DIMS = 5
TRIALS = 4
TOL = 1e-9
# tolerances of rows that do not use the scenario's tol argument
ROW_TOL = {"exp_scalar_vs_closed_form": 1e-12, "lie_functor_": 1e-6,
           "vanest_": 1e-12}
TRIPS_ROW = "gp2cocycle_perturbed_alpha_trips_iv"
TRIPS_MIN = 1e-6


def setup(lib, seed):
    rng = random.Random(seed)
    cases = [(name, dims, rng.randrange(2 ** 31)) for name in PER_DIMS
             for dims in DIMS for _ in range(SEEDS_PER_DIMS)]
    return cases + [(name, None, None) for name in ONCE]


def _run(lib, name, dims, seed):
    fn = lib.grp.SCENARIOS[name]
    if dims is None:
        return fn()
    return fn(dims=dims, trials=TRIALS, seed=seed, tol=TOL)


def operations(lib, cases):
    return [("%s %s seed %s" % case, (lambda case=case: _run(lib, *case)))
            for case in cases]


def _tolerance(row):
    for prefix, tol in ROW_TOL.items():
        if row.startswith(prefix):
            return tol
    return TOL


def _perturbed_alpha_residuals(lib, seed):
    """The residuals behind the perturbed-alpha row, recomputed: additive
    groups R^2 -> R^2 with trivial coefficients and alpha(h; g) = h0^2 g0,
    which breaks equation iv and no other."""
    grp = lib.grp
    rep = grp.trivial_group_rep(grp.additive_group(2, 2), 1, 1)
    zero = lambda *a: [0.0]
    return grp.gp2cocycle_residuals(
        rep, zero, zero, lambda h, g: [h[0] * h[0] * g[0]], zero,
        samples=TRIALS, seed=seed)


def check(lib, cases, outputs):
    bad = []
    for (name, dims, seed), output in zip(cases, outputs):
        if output is None:
            continue
        rows, _ = output
        label = "%s %s seed %s" % (name, dims, seed)
        if not rows:
            bad.append("%s: no rows" % label)
        for row, value, passed in rows:
            if row == TRIPS_ROW:
                res = _perturbed_alpha_residuals(lib, seed)
                quiet = all(v <= TOL for k, v in res.items() if k != "iv")
                if not (passed and value == res["iv"] > TRIPS_MIN
                        and quiet):
                    bad.append("%s: perturbed alpha %r" % (label, res))
            elif not (passed and 0 <= value <= _tolerance(row)):
                bad.append("%s: %s residual %r" % (label, row, value))
    return bad
