"""Seeded inputs shared by the random-contexts and structure-validate
workloads, built from the library's public constructors."""


def _base_algebra(lib, htype):
    """h of a fixed isomorphism type, in its standard basis."""
    la = lib.liealg.LieAlgebra
    return {"0": la(0), "ab1": la.abelian(1), "ab2": la.abelian(2),
            "ab3": la.abelian(3), "aff1": la.aff1(),
            "heis3": la.heisenberg3(), "sl2": la.sl2(),
            "aff1+ab1": la(3, {(0, 1): [0, 1, 0]})}[htype]


def rank_matrix(lib, rng, rows, cols, r):
    """rows x cols matrix of rank r with r entries +-1 at seeded distinct
    rows and columns.  Every such phi gives the same gl(phi) up to a
    signed permutation of its bases, so the cost does not follow the
    seed."""
    m = lib.numeric.Matrix.zero(rows, cols)
    for i, j in zip(rng.sample(range(rows), r), rng.sample(range(cols), r)):
        m.data[i][j] = rng.choice((-1, 1))
    return m


def make_xmod(lib, rng, htype, dg, rk):
    """Crossed module V + I -> h from a quadruple with |I| = rk, dim V =
    dg - rk, over h of the given type in a seeded basis."""
    s, lie2 = lib.samples, lib.lie2
    base = _base_algebra(lib, htype)
    d = base.dim
    while True:
        h = base.change_basis(s.random_unimodular(rng, d)) if d else base
        ideal = sorted(rng.sample(range(d), rk))
        rho = s.random_descending_rep(rng, h, ideal, dg - rk)
        try:
            return lie2.xmod_from_quadruple(h, ideal, dg - rk, rho), ideal
        except ValueError:
            continue
