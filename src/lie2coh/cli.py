"""Command-line front end: declarative problem files, validators,
cohomology, extension commands and the built-in group-side checks.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input
error.  Reports use the stable line grammar ``CHECK <name>: PASS|FAIL
<detail>`` so golden-file comparisons stay trivial.
"""

import argparse
import contextlib
import functools
import json
import os
import sys

from .numeric import Matrix, rat, format_rat
from .liealg import LieAlgebra, Representation, validate_lie_algebra
from .lie2 import CrossedModuleAlg, TwoVectorSpace, validate_crossed_module
from .tworep import TwoRep, validate_two_rep
from .lattice import LatticeContext, trivial_cohomology_dim
from .ext import (TwoCocycle, extension_from_cocycle, canonical_splitting,
                  cocycle_from_extension, coboundary_solve)
from .samples import rng_from_seed, random_context, random_matrix
from . import grp


class InputError(Exception):
    pass


def _parse_rat(x, where):
    """One exact rational coefficient of the input; where names it."""
    try:
        return rat(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError("%s: %s" % (where, exc))


def _as_int(value, where):
    """An integer setting (an integer or a string holding one)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError("%s: expected an integer, got %r" % (where, value))


def _as_object(value, where):
    """A section of the input that must be a JSON object."""
    if not isinstance(value, dict):
        raise InputError("%s: expected an object, got %s"
                         % (where, type(value).__name__))
    return value


def _as_list(value, where):
    """A part of the input that must be a JSON list."""
    if not isinstance(value, list):
        raise InputError("%s: expected a list, got %s"
                         % (where, type(value).__name__))
    return value


def _parse_matrix(data, rows, cols, where):
    """A matrix given as a list of rows, each a list of coefficients."""
    _as_list(data, where)
    if len(data) != rows:
        raise InputError("%s: expected %d rows, got %d" % (where, rows,
                                                           len(data)))
    out = []
    for r, row in enumerate(data):
        where_row = "%s: row %d" % (where, r)
        if len(_as_list(row, where_row)) != cols:
            raise InputError("%s: row %d has %d entries, expected %d"
                             % (where, r, len(row), cols))
        out.append([_parse_rat(x, where_row) for x in row])
    return Matrix(rows, cols, out)


def _parse_matrices(data, count, rows, cols, where, count_where=None):
    """A list of count rows x cols matrices; where names it, and
    count_where, if given, names it in the count message."""
    if len(_as_list(data, where)) != count:
        raise InputError("%s: expected %d matrices"
                         % (count_where or where, count))
    return [_parse_matrix(m, rows, cols, "%s[%d]" % (where, k))
            for k, m in enumerate(data)]


def _parse_algebra(data, where):
    dim = _as_object(data, where).get("dim")
    if not isinstance(dim, int) or dim < 0:
        raise InputError("%s: missing or bad 'dim'" % where)
    brackets = {}
    for key, vec in sorted(_as_object(data.get("brackets", {}),
                                      where + ".brackets").items()):
        try:
            i, j = (int(t) for t in key.split(","))
        except ValueError:
            raise InputError("%s: bad bracket key %r" % (where, key))
        if not 0 <= i < j < dim:
            raise InputError("%s: bracket key %r out of range" % (where, key))
        where_key = "%s: bracket %r" % (where, key)
        if len(_as_list(vec, where_key)) != dim:
            raise InputError("%s: bracket %r has %d coefficients, expected %d"
                             % (where, key, len(vec), dim))
        brackets[(i, j)] = [_parse_rat(x, where_key) for x in vec]
    return LieAlgebra(dim, brackets)


class ProblemFile:
    """Parsed declarative input: optional crossed module, 2-vector space,
    2-representation, named lattice cochains and options."""

    def __init__(self, raw):
        self.xmod = None
        self.two_vector = None
        self.two_rep = None
        self.cochains = {}
        self.options = _as_object(raw.get("options", {}), "options")
        if "lie2algebra" in raw:
            sec = _as_object(raw["lie2algebra"], "lie2algebra")
            g = _parse_algebra(sec.get("g", {}), "lie2algebra.g")
            h = _parse_algebra(sec.get("h", {}), "lie2algebra.h")
            mu = _parse_matrix(sec.get("mu", []), h.dim, g.dim,
                               "lie2algebra.mu")
            action = Representation(h, g.dim, _parse_matrices(
                sec.get("action", []), h.dim, g.dim, g.dim,
                "lie2algebra.action"))
            self.xmod = CrossedModuleAlg(g, h, mu, action)
        if "two_vector" in raw:
            sec = _as_object(raw["two_vector"], "two_vector")
            dw, dv = sec.get("W"), sec.get("V")
            if not isinstance(dw, int) or not isinstance(dv, int):
                raise InputError("two_vector: W and V must be integers")
            self.two_vector = TwoVectorSpace(
                dw, dv, _parse_matrix(sec.get("phi", []), dv, dw,
                                      "two_vector.phi"))
        if "two_rep" in raw:
            if self.xmod is None or self.two_vector is None:
                raise InputError("two_rep needs lie2algebra and two_vector")
            sec = _as_object(raw["two_rep"], "two_rep")
            x, t = self.xmod, self.two_vector
            rho1 = _parse_matrices(sec.get("rho1", []), x.g.dim, t.dim_w,
                                   t.dim_v, "two_rep.rho1")
            r0w, r0v = (_parse_matrices(sec.get(key, []), x.h.dim, dim, dim,
                                        "two_rep." + key,
                                        "two_rep.rho0_W/rho0_V")
                        for key, dim in (("rho0_W", t.dim_w),
                                         ("rho0_V", t.dim_v)))
            self.two_rep = TwoRep(x, t, rho1,
                                  Representation(x.h, t.dim_w, r0w),
                                  Representation(x.h, t.dim_v, r0v))
        for name, sec in sorted(_as_object(raw.get("cochains", {}),
                                           "cochains").items()):
            idx = _as_object(sec, "cochains.%s" % name).get("index")
            vals = sec.get("values")
            if (not isinstance(idx, list) or len(idx) != 3
                    or not isinstance(vals, list)):
                raise InputError("cochains.%s: need index [p,q,r] and values"
                                 % name)
            self.cochains[name] = (tuple(idx), [
                _parse_rat(x, "cochains.%s.values[%d]" % (name, k))
                for k, x in enumerate(vals)])

    def context(self):
        if self.two_rep is None:
            raise InputError("this command needs a two_rep section")
        with _refusal_as_input_error():
            return LatticeContext(self.xmod, self.two_rep)


@contextlib.contextmanager
def _refusal_as_input_error():
    """The lattice refuses invalid structures and oversized matrices with
    ValueError; on the command line those are input errors (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise InputError(str(exc))


def load_problem(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InputError("%s: line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))
    if not isinstance(raw, dict):
        raise InputError("%s: top level must be an object" % path)
    return ProblemFile(raw)


def _check(out, name, passed, detail=""):
    line = "CHECK %s: %s" % (name, "PASS" if passed else "FAIL")
    if detail:
        line += " " + detail
    out.append((line, passed))


def _violated(bad):
    """The detail of a validator's check: the equations it violated."""
    return "" if not bad else "violated %s" % sorted(set(b[0] for b in bad))


def _cocycle_holds(report, name, coc):
    """Validate the 2-cocycle coc as the check name; whether it holds."""
    bad = coc.validate()
    _check(report, name, not bad, _violated(bad))
    return not bad


def _exact(values):
    """Exact values as printed: integers plain, other rationals p/q."""
    return [format_rat(v) for v in values]


def _emit(report):
    ok = True
    for line, passed in report:
        print(line)
        ok = ok and passed
    return 0 if ok else 1


def default_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("LIE2COH_SEED")
    return _as_int(env, "LIE2COH_SEED") if env else 0


# -- commands ----------------------------------------------------------------


def cmd_validate(args):
    pf = load_problem(args.file)
    report = []
    if pf.xmod is not None:
        for name, algebra in (("jacobi_g", pf.xmod.g),
                              ("jacobi_h", pf.xmod.h)):
            bad = validate_lie_algebra(algebra)
            _check(report, name, not bad,
                   "" if not bad else "violating triples %s"
                   % [t[:3] for t in bad])
        bad = validate_crossed_module(pf.xmod)
        _check(report, "crossed_module", not bad, _violated(bad))
    if pf.two_rep is not None:
        bad = validate_two_rep(pf.two_rep)
        _check(report, "two_rep", not bad, _violated(bad))
    if not report:
        _check(report, "nothing_to_validate", False, "no sections found")
    return _emit(report)


def cmd_cohomology(args):
    pf = load_problem(args.file)
    if args.degree < 0:
        raise InputError("--degree must be nonnegative")
    report = []
    if args.trivial:
        if pf.xmod is None:
            raise InputError("--trivial needs a lie2algebra section")
        with _refusal_as_input_error():
            dim = trivial_cohomology_dim(pf.xmod, args.degree)
        print("H^%d_tot(trivial coefficients) = %d" % (args.degree, dim))
        _check(report, "trivial_cohomology_computed", True, "dim %d" % dim)
        return _emit(report)
    ctx = pf.context()
    bad_blocks = []
    with _refusal_as_input_error():
        # H^N needs nabla_N nabla_{N-1} = 0; the lower ones guard nabla^2 = 0
        for n in range(args.degree):
            bad_blocks.extend(ctx.nabla_squared_blocks(n))
        dim, _ = ctx.total_cohomology(args.degree)
    _check(report, "nabla_squared_precheck", not bad_blocks,
           "nabla_n nabla_{n-1} = 0 for 1 <= n <= %d" % args.degree
           if not bad_blocks else "nonzero blocks %s" % (bad_blocks,))
    print("H^%d = %d" % (args.degree, dim))
    if args.degree == 0:
        inv = ctx.h0_invariants()
        print("invariants dim = %d" % inv)
        _check(report, "h0_matches_invariants", inv == dim,
               "H^0 %d vs invariants %d" % (dim, inv))
    elif args.degree == 1:
        der, inn, out = ctx.h1_der_inn()
        print("derivations %d, inner %d, outer %d" % (der, inn, out))
        _check(report, "h1_matches_out", out == dim,
               "H^1 %d vs Out %d" % (dim, out))
    else:
        _check(report, "cohomology_computed", True, "dim %d" % dim)
    return _emit(report)


def cmd_nabla_check(args):
    pf = load_problem(args.file)
    # the problem file's options section supplies defaults for the flags
    if args.seed is None and "seed" in pf.options:
        args.seed = _as_int(pf.options["seed"], "options.seed")
    if args.max_degree is None:
        args.max_degree = _as_int(pf.options.get("max_degree", 3),
                                  "options.max_degree")
    if args.trials is None:
        args.trials = _as_int(pf.options.get("trials", 0), "options.trials")
    if min(args.max_degree, args.trials) < 0:
        raise InputError("--max-degree and --trials (or their options) must "
                         "be nonnegative, got %d and %d"
                         % (args.max_degree, args.trials))
    seed = default_seed(args)
    report = []
    if pf.two_rep is not None:
        ctx = pf.context()
        for n in range(args.max_degree + 1):
            with _refusal_as_input_error():
                bad = ctx.nabla_squared_blocks(n)
            _check(report, "nabla_squared_file_degree_%d" % n, not bad,
                   "" if not bad else "nonzero blocks %s" % (bad,))
    rng = rng_from_seed(seed)
    with _refusal_as_input_error():
        for t in range(args.trials):
            x, r = random_context(rng, 2)
            ctx = LatticeContext(x, r)
            worst = []
            for n in range(args.max_degree + 1):
                worst.extend(ctx.nabla_squared_blocks(n))
            _check(report, "nabla_squared_random_%d" % t, not worst,
                   "dims (%d,%d,%d,%d)" % (ctx.dg, ctx.dh, ctx.dw, ctx.dv)
                   + ("" if not worst else " nonzero blocks %s" % (worst,)))
    if not report:
        _check(report, "nabla_check_empty", False,
               "no two_rep and --trials 0")
    return _emit(report)


def _load_cocycle(pf, ctx, arg):
    """The 2-cocycle named by arg and whether its phimap lost an h-part."""
    names = arg.split(",")
    if len(names) != 3:
        raise InputError("expected three comma-separated cochain names "
                         "(omega0,alpha,phimap)")
    omega0_name, alpha_name, phimap_name = (n.strip() for n in names)
    vals = {}
    for label, name, idx in (("omega0", omega0_name, (0, 2, 0)),
                             ("alpha", alpha_name, (0, 1, 1)),
                             ("phimap", phimap_name, (1, 1, 0))):
        if name not in pf.cochains:
            raise InputError("cochain %r not found" % name)
        got_idx, values = pf.cochains[name]
        if got_idx != idx:
            raise InputError("cochain %r has index %s, expected %s"
                             % (name, got_idx, idx))
        if len(values) != ctx.cochain_dim(*idx):
            raise InputError("cochain %r has %d values, expected %d"
                             % (name, len(values), ctx.cochain_dim(*idx)))
        vals[label] = values
    # restrict phimap to its g-dependence, recording any dropped h-part
    phi_g = ctx.block_matrix((1, 1, 0), vals["phimap"], ctx.dg)
    dropped = ctx.block_values((1, 1, 0), phi_g) != vals["phimap"]
    return TwoCocycle(ctx, vals["omega0"], vals["alpha"], phi_g), dropped


def cmd_extend(args):
    pf = load_problem(args.file)
    ctx = pf.context()
    coc, dropped = _load_cocycle(pf, ctx, args.cocycle)
    report = []
    if dropped:
        print("note: phimap h-components dropped (restricted to g)")
    if not _cocycle_holds(report, "cocycle_equations", coc):
        return _emit(report)
    ext = extension_from_cocycle(coc)
    _check(report, "extension_crossed_module",
           not validate_crossed_module(ext.total))
    _check(report, "extension_rows_exact", ext.rows_exact())
    print("extension e1 dim %d, e0 dim %d" % (ext.total.g.dim,
                                              ext.total.h.dim))
    for name, algebra in (("e1", ext.total.g), ("e0", ext.total.h)):
        for (i, j), vec in sorted(algebra.brackets.items()):
            print("%s bracket [%d,%d] = %s" % (name, i, j, _exact(vec)))
    return _emit(report)


def cmd_split(args):
    pf = load_problem(args.file)
    ctx = pf.context()
    coc, _ = _load_cocycle(pf, ctx, args.cocycle)
    report = []
    if not _cocycle_holds(report, "cocycle_equations", coc):
        return _emit(report)
    ext = extension_from_cocycle(coc)
    sigma0, sigma1 = canonical_splitting(ext)
    if args.perturb:
        # sigma + include lambda is again a splitting
        rng = rng_from_seed(args.perturb)
        sigma0 += ext.include_v * random_matrix(rng, ctx.dv, ctx.dh, 1)
        sigma1 += ext.include_w * random_matrix(rng, ctx.dw, ctx.dg, 1)
    rep2, extracted = cocycle_from_extension(ext, sigma0, sigma1,
                                             base_x=ctx.x)
    _check(report, "extracted_cocycle_valid", not extracted.validate())
    same = extracted == coc
    if args.perturb:
        lam = coboundary_solve(coc, extracted)
        _check(report, "perturbed_splitting_cohomologous", lam is not None)
    else:
        _check(report, "canonical_splitting_round_trip", same)
    for label, cochain in (("omega0", extracted.omega0),
                           ("alpha", extracted.alpha)):
        print("%s values: %s" % (label, _exact(cochain.values)))
    print("phimap (g columns): %s"
          % [_exact(row) for row in extracted.phi_g.data])
    return _emit(report)


def cmd_compare(args):
    pf = load_problem(args.file)
    ctx = pf.context()
    left, _ = _load_cocycle(pf, ctx, args.left)
    right, _ = _load_cocycle(pf, ctx, args.right)
    report = []
    # a list, so that both sides are validated and reported
    if not all([_cocycle_holds(report, "cocycle_%s_valid" % label, coc)
                for label, coc in (("left", left), ("right", right))]):
        return _emit(report)
    lam = coboundary_solve(left, right)
    if lam is None:
        print("cohomologous: no")
        _check(report, "compare_infeasible_certified", True)
    else:
        print("cohomologous: yes")
        for name, m in zip(("lambda0", "lambda1"), lam):
            print("%s = %s" % (name, [_exact(row) for row in m.data]))
        _check(report, "compare_solved", True)
    return _emit(report)


def cmd_group_checks(args):
    if args.scenario not in grp.SCENARIOS:
        raise InputError("unknown scenario %r (known: %s)"
                         % (args.scenario, ", ".join(sorted(grp.SCENARIOS))))
    if args.trials < 1:
        raise InputError("--trials must be at least 1, got %d" % args.trials)
    if args.dims and min(args.dims) < 1:
        raise InputError("--dims entries must be at least 1, got %d %d"
                         % tuple(args.dims))
    seed = default_seed(args)
    kwargs = {"trials": args.trials, "seed": seed}
    if args.dims:
        kwargs["dims"] = tuple(args.dims)
    if args.tolerance is not None:      # else the scenario's own
        kwargs["tol"] = args.tolerance
    fn = grp.SCENARIOS[args.scenario]
    rows = fn(**kwargs)
    report = []
    for name, value, passed in rows:
        _check(report, name, passed, "residual %.3e" % value)
    return _emit(report)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lie2coh",
        description="Cohomology of Lie 2-algebras and matrix Lie 2-groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the structure validators")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("cohomology", help="total lattice cohomology")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--trivial", action="store_true",
                   help="use the trivial-coefficient double complex")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("nabla-check", help="verify nabla^2 = 0 exactly")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_nabla_check)

    p = sub.add_parser("extend", help="build the extension of a 2-cocycle")
    p.add_argument("file")
    p.add_argument("--cocycle", required=True,
                   help="omega0,alpha,phimap cochain names")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("split", help="extract a cocycle from the extension")
    p.add_argument("file")
    p.add_argument("--cocycle", required=True,
                   help="omega0,alpha,phimap cochain names")
    p.add_argument("--perturb", type=int, default=0,
                   help="seed for a perturbed splitting (0 = canonical)")
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("compare", help="decide cohomologousness")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("group-checks", help="run a built-in group scenario")
    p.add_argument("scenario")
    p.add_argument("--dims", type=int, nargs=2, default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(fn=cmd_group_checks)
    return parser


# one parser a process: building it costs as much as a small command
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
