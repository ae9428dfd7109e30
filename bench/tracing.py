"""Per-layer spans for the traced run, recorded from outside the library.

``Tracer.install(lib)`` replaces public functions of the library's
modules with wrappers that record a span (name, start, end, parent span,
phase) around each call; ``uninstall`` puts the originals back.  A
function that a module imported by name is wrapped in that module too,
so the span is recorded where it is called from.  Spans stay at call
granularity: no wrapper sits on a per-bracket or per-entry call.  The
spans are kept in memory and written out when the run ends.

A layer's time is the self time of its spans: their duration minus the
time their child spans cover.  Calls into the numeric layer from inside
the numeric layer (``rank`` calling ``rank_and_kernel``, ``in_span``
calling ``solve_linear``) are part of the outer call and open no span of
their own.  Matrix products are timed only inside
``LatticeContext.nabla_squared_blocks``, the one place on the measured
paths where they are large; elsewhere they are per-bracket.

Metrics come from the traced passes (median over them), except
``samples.generate_s``, which comes from the set-ups (median over them),
because input generation happens there.
"""

import collections
import inspect
import json
import statistics
import time
import weakref

# name -> unit; "_s" metrics are self times, the rest counts
METRICS = dict((name, "s" if name.endswith("_s") else "count")
               for name in (
    "numeric.rank_kernel_s", "numeric.rank_kernel_calls",
    "numeric.rank_kernel_cells", "numeric.in_span_s",
    "numeric.in_span_calls", "numeric.solve_s", "numeric.solve_calls",
    "numeric.matmul_s", "numeric.matmul_calls",
    "lattice.deltaR_s", "lattice.delta1_s", "lattice.partial_s",
    "lattice.DeltaK_s", "lattice.component_nnz",
    "lattice.component_builds", "lattice.component_cache_hits",
    "lattice.nabla_place_s", "lattice.nabla_cells", "lattice.nabla_nnz",
    "lattice.nabla_cache_hits",
    "lattice.nabla_squared_s", "lattice.cohomology_s", "lattice.interp_s",
    "lattice.context_s",
    "lie2.gl_phi_s", "lie2.validate_xmod_s", "lie2.validate_xmod_calls",
    "lie2.nerve_s", "lie2.face_s",
    "liealg.validate_lie_s", "liealg.validate_rep_s",
    "tworep.validate_s", "tworep.adjoint_s", "tworep.bar_rho_s",
    "ext.cocycle_basis_s", "ext.extension_s", "ext.splitting_s",
    "ext.coboundary_s", "ext.class_count_s",
    "grp.glphi_s", "grp.exp_s", "grp.lie_functor_s", "grp.startop_s",
    "grp.vanest_s", "grp.gp2cocycle_s", "grp.samples",
    "samples.generate_s", "cli.load_problem_s"))
SETUP_METRICS = ("samples.generate_s",)
CALL_COUNTS = ("numeric.rank_kernel", "numeric.in_span", "numeric.solve",
               "numeric.matmul", "lie2.validate_xmod")

# (module, function, span) for plain functions
FUNCTIONS = [
    ("numeric", "rank_and_kernel", "numeric.rank_kernel"),
    ("numeric", "rank", "numeric.rank_kernel"),
    ("numeric", "in_span", "numeric.in_span"),
    ("numeric", "solve_linear", "numeric.solve"),
    ("lie2", "gl_phi", "lie2.gl_phi"),
    ("lie2", "validate_crossed_module", "lie2.validate_xmod"),
    ("lie2", "nerve_algebra", "lie2.nerve"),
    ("lie2", "face_matrix", "lie2.face"),
    ("lie2", "final_target_matrix", "lie2.face"),
    ("liealg", "validate_lie_algebra", "liealg.validate_lie"),
    ("liealg", "validate_representation", "liealg.validate_rep"),
    ("tworep", "validate_two_rep", "tworep.validate"),
    ("tworep", "adjoint_rep", "tworep.adjoint"),
    ("tworep", "bar_rho", "tworep.bar_rho"),
    ("ext", "cocycle_space_basis", "ext.cocycle_basis"),
    ("ext", "extension_from_cocycle", "ext.extension"),
    ("ext", "canonical_splitting", "ext.splitting"),
    ("ext", "cocycle_from_extension", "ext.splitting"),
    ("ext", "coboundary_solve", "ext.coboundary"),
    ("ext", "cocycle_slice_class_count", "ext.class_count"),
    ("samples", "random_descending_rep", "samples.generate"),
    ("samples", "random_unimodular", "samples.generate"),
    ("samples", "random_matrix", "samples.generate"),
    ("cli", "load_problem", "cli.load_problem"),
]
# (class, method, span)
METHODS = [
    ("numeric", "LinearSolver", "__init__", "numeric.solve"),
    ("lattice", "LatticeContext", "__init__", "lattice.context"),
    ("lattice", "LatticeContext", "total_cohomology", "lattice.cohomology"),
    ("lattice", "LatticeContext", "h0_invariants", "lattice.interp"),
    ("lattice", "LatticeContext", "h1_der_inn", "lattice.interp"),
]
SCENARIOS = {"glphi": "grp.glphi", "exp": "grp.exp",
             "lie-functor": "grp.lie_functor", "startop": "grp.startop",
             "vanest-heisenberg": "grp.vanest",
             "gp2cocycle-semidirect": "grp.gp2cocycle"}
# sampled relation checks of grp, counted by their ``samples`` argument
SAMPLED = ("group_xmod_validate_sampled", "homotopy_curvature_residual",
           "startop_relation_residual", "atsch_iv_residual",
           "atsch_v_residual", "gp2cocycle_residuals")
BOOKKEEPING = "trace.bookkeeping"


def _nnz(matrix):
    return sum(1 for row in matrix.data for x in row if x)


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, phase)
        self.counts = collections.defaultdict(collections.Counter)
        self.phase = None
        self._stack = [(0, "")]  # open (span id, name)
        self._next_id = 1
        self._patches = []
        self._seen = weakref.WeakKeyDictionary()
        self._t0 = time.perf_counter()

    def begin(self, kind, index):
        self.phase = "%s-%d" % (kind, index)

    # -- spans -------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        if name.startswith("numeric.") and \
                self._stack[-1][1].startswith("numeric."):
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0]
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.phase))

    def count(self, metric, n):
        self.counts[self.phase][metric] += n

    def timed(self, name, fn, cells=False):
        def wrapper(*args, **kwargs):
            if cells and not self._stack[-1][1].startswith("numeric."):
                self.count("numeric.rank_kernel_cells",
                           args[0].rows * args[0].cols)
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _cached(self, kind_of, metric_prefix, fn):
        """Wrapper for a LatticeContext method whose results the context
        caches: a call that returns the object an earlier call with the
        same arguments returned is a cache hit; the others are builds,
        whose size is counted in a bookkeeping span."""
        def wrapper(ctx, *args):
            name = kind_of(args)
            out = self._call(name, fn, (ctx,) + args, {})
            seen = self._seen.setdefault(ctx, {})
            if seen.get((name,) + args) is out:
                self.count(metric_prefix + "_cache_hits", 1)
                return out
            seen[(name,) + args] = out
            self._call(BOOKKEEPING, self._count_build,
                       (metric_prefix, out), {})
            return out
        return wrapper

    def _count_build(self, prefix, matrix):
        if prefix == "lattice.component":
            self.count("lattice.component_builds", 1)
            self.count("lattice.component_nnz", _nnz(matrix))
        else:
            self.count("lattice.nabla_cells", matrix.rows * matrix.cols)
            self.count("lattice.nabla_nnz", _nnz(matrix))

    def _scoped_matmul(self, lib, fn):
        """nabla_squared_blocks with Matrix products timed inside it."""
        matrix = lib.numeric.Matrix

        def inner(*args):
            original = matrix.__mul__
            matrix.__mul__ = self.timed("numeric.matmul", original)
            try:
                return fn(*args)
            finally:
                matrix.__mul__ = original

        def wrapper(*args):
            return self._call("lattice.nabla_squared", inner, args, {})
        return wrapper

    def _sampled(self, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.count("grp.samples", bound.arguments["samples"])
            return fn(*args, **kwargs)
        return wrapper

    # -- installing ----------------------------------------------------------

    def _patch(self, target, key, value):
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self, lib):
        modules = [getattr(lib, name) for name in vars(lib)]
        for mod_name, fn_name, span in FUNCTIONS:
            original = getattr(getattr(lib, mod_name), fn_name)
            wrapper = self.timed(span, original,
                                 cells=span == "numeric.rank_kernel")
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patch(mod, fn_name, wrapper)
        for mod_name, cls_name, method, span in METHODS:
            cls = getattr(getattr(lib, mod_name), cls_name)
            self._patch(cls, method, self.timed(span, getattr(cls, method)))
        ctx = lib.lattice.LatticeContext
        self._patch(ctx, "component_matrix", self._cached(
            lambda args: "lattice." + args[0], "lattice.component",
            ctx.component_matrix))
        self._patch(ctx, "nabla", self._cached(
            lambda args: "lattice.nabla_place", "lattice.nabla", ctx.nabla))
        self._patch(ctx, "nabla_squared_blocks",
                    self._scoped_matmul(lib, ctx.nabla_squared_blocks))
        for key, span in SCENARIOS.items():
            self._patch(lib.grp.SCENARIOS, key,
                        self.timed(span, lib.grp.SCENARIOS[key]))
        for fn_name in SAMPLED:
            self._patch(lib.grp, fn_name,
                        self._sampled(getattr(lib.grp, fn_name)))

    def uninstall(self):
        while self._patches:
            target, key, original = self._patches.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # -- results -------------------------------------------------------------

    def _phase_totals(self):
        """{phase: Counter(metric -> value)} from spans and counts."""
        child = collections.Counter()
        for sid, name, start, end, parent, phase in self.spans:
            child[parent] += end - start
        totals = collections.defaultdict(collections.Counter)
        for sid, name, start, end, parent, phase in self.spans:
            totals[phase][name + "_s"] += end - start - child[sid]
            if name in CALL_COUNTS:
                totals[phase][name + "_calls"] += 1
        for phase, counts in self.counts.items():
            totals[phase].update(counts)
        return totals

    def layer_metrics(self):
        totals = self._phase_totals()
        passes = [t for p, t in totals.items() if p.startswith("pass-")]
        setups = [t for p, t in totals.items() if p.startswith("setup-")]
        out = {}
        for name, unit in METRICS.items():
            source = setups if name in SETUP_METRICS else passes
            value = statistics.median([t[name] for t in source]) \
                if source else 0
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, phase in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent,
                    "phase": phase, "start": round(start - self._t0, 9),
                    "end": round(end - self._t0, 9)}) + "\n")
