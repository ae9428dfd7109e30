"""Bounded cochain complexes over Q, their cohomology and mapping cones."""

from .numeric import Matrix, cohomology, rank, vectors_matrix


class FinComplex:
    """A bounded complex of finite-dimensional rational vector spaces.

    ``dims`` maps each degree in [lo, hi] to a dimension; ``diffs`` holds
    the differential d_n: C^n -> C^{n+1} for lo <= n < hi, zero where not
    given.  ValueError on lo > hi, a wrong shape or d∘d != 0.
    """

    def __init__(self, lo, hi, dims, diffs):
        if lo > hi:
            raise ValueError("empty degree range: lo %d > hi %d" % (lo, hi))
        self.lo = lo
        self.hi = hi
        self.dims = {n: dims.get(n, 0) for n in range(lo, hi + 1)}
        self.diffs = {n: diffs[n] for n in range(lo, hi) if n in diffs}
        for n, d in self.diffs.items():
            if (d.rows, d.cols) != (self.dim(n + 1), self.dim(n)):
                raise ValueError("differential at degree %d has wrong shape"
                                 % n)
        for n in range(lo, hi - 1):
            if not (self.d(n + 1) * self.d(n)).is_zero():
                raise ValueError("d^2 != 0 at degree %d" % n)

    def dim(self, n):
        return self.dims.get(n, 0)

    def d(self, n):
        """d_n: C^n -> C^{n+1} (zero matrix where none is stored)."""
        if n in self.diffs:
            return self.diffs[n]
        return Matrix.zero(self.dim(n + 1), self.dim(n))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def cohomology_dim(self, n):
        if self.dim(n) == 0:
            return 0
        ker_dim = self.dim(n) - rank(self.d(n))
        return ker_dim - rank(self.d(n - 1))

    def cohomology_dims(self):
        return [(n, self.cohomology_dim(n)) for n in self.degrees()]


class ChainMap:
    """A degreewise map of complexes commuting with the differentials,
    zero where not given.  ValueError on a wrong shape or if it does not
    commute with d."""

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        lo = min(source.lo, target.lo)
        hi = max(source.hi, target.hi)
        self.components = {n: components[n] for n in range(lo, hi + 1)
                           if n in components}
        for n, f in self.components.items():
            if (f.rows, f.cols) != (target.dim(n), source.dim(n)):
                raise ValueError("component at degree %d has wrong shape" % n)
        for n in range(lo, hi):
            if not (target.d(n) * self.component(n)
                    - self.component(n + 1) * source.d(n)).is_zero():
                raise ValueError("chain map does not commute with d at "
                                 "degree %d" % n)

    def component(self, n):
        if n in self.components:
            return self.components[n]
        return Matrix.zero(self.target.dim(n), self.source.dim(n))


def mapping_cone(f):
    """Cone(f)^n = A^{n+1} (+) B^n with differential [[-d_A, 0], [f, d_B]]."""
    a, b = f.source, f.target
    lo = min(a.lo - 1, b.lo)
    hi = max(a.hi - 1, b.hi)
    dims = {n: a.dim(n + 1) + b.dim(n) for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo, hi):
        da = a.d(n + 1)
        db = b.d(n)
        fn = f.component(n + 1)
        top = (-da).hstack(Matrix.zero(a.dim(n + 2), b.dim(n)))
        bot = fn.hstack(db)
        diffs[n] = top.vstack(bot)
    return FinComplex(lo, hi, dims, diffs)


def induced_map_iso_injective(f, n):
    """(iso, injective) flags of H^n(f): H^n(A) -> H^n(B).

    f maps representatives of H^n(A) to cocycles of B, and the rank of
    these modulo im d_B is the rank of H^n(f): it is injective iff that
    rank is dim H^n(A), and an iso iff it is also dim H^n(B)."""
    a, b = f.source, f.target
    dim_ha, reps = cohomology(a.d(n - 1), a.d(n))
    db = b.d(n - 1)
    fn = f.component(n)
    images = vectors_matrix([fn.apply(v) for v in reps], dim=b.dim(n))
    hit = rank(db.hstack(images)) - rank(db)
    injective = hit == dim_ha
    return injective and hit == cohomology(db, b.d(n))[0], injective


def cone_vanishing_equiv(f, k):
    """Both sides of the cone-vanishing criterion, computed independently.

    lhs: H^n(cone) = 0 for all n <= k.
    rhs: H^n(f) iso for n <= k and injective at n = k+1.
    """
    cone = mapping_cone(f)
    lhs = all(cone.cohomology_dim(n) == 0 for n in range(cone.lo, k + 1))
    a, b = f.source, f.target
    lo = min(a.lo, b.lo)
    rhs = True
    for n in range(lo, k + 1):
        iso, _ = induced_map_iso_injective(f, n)
        if not iso:
            rhs = False
            break
    if rhs:
        _, inj = induced_map_iso_injective(f, k + 1)
        rhs = inj
    return lhs, rhs
