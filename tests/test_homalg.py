"""Complexes, cohomology, mapping cones, and the cone-vanishing criterion."""

import random
import pytest

from lie2coh.numeric import (Matrix, Q0, Q1, cohomology, rank,
                             rank_and_kernel, vectors_matrix)
from lie2coh.homalg import (FinComplex, ChainMap, mapping_cone,
                            cone_vanishing_equiv, induced_map_iso_injective)


def line_complex(lo, hi, dims, diffs):
    return FinComplex(lo, hi, dims, diffs)


def test_identity_complex_acyclic():
    c = line_complex(0, 1, {0: 1, 1: 1}, {0: Matrix.identity(1)})
    assert c.cohomology_dims() == [(0, 0), (1, 0)]


def test_point_complex():
    c = line_complex(0, 0, {0: 1}, {})
    assert c.cohomology_dims() == [(0, 1)]


def test_rank_one_middle_map():
    c = line_complex(0, 1, {0: 2, 1: 2},
                     {0: Matrix(2, 2, [[0, 0], [0, 1]])})
    assert c.cohomology_dim(0) == 1
    assert c.cohomology_dim(1) == 1


def test_d_squared_rejected():
    with pytest.raises(ValueError):
        FinComplex(0, 2, {0: 1, 1: 1, 2: 1},
                   {0: Matrix.identity(1), 1: Matrix.identity(1)})


def test_chain_map_rejects_non_commuting():
    a = line_complex(0, 1, {0: 1, 1: 1}, {0: Matrix.identity(1)})
    b = line_complex(0, 1, {0: 1, 1: 1}, {0: Matrix.zero(1, 1)})
    with pytest.raises(ValueError):
        ChainMap(a, b, {0: Matrix.identity(1), 1: Matrix.identity(1)})


def test_bad_range_and_shapes_rejected():
    """The refusals are ValueErrors, which python -O keeps."""
    with pytest.raises(ValueError):
        FinComplex(1, 0, {}, {})
    with pytest.raises(ValueError):
        FinComplex(0, 1, {0: 1, 1: 2}, {0: Matrix.identity(1)})
    a = line_complex(0, 0, {0: 1}, {})
    with pytest.raises(ValueError):
        ChainMap(a, a, {0: Matrix.identity(2)})


def test_cone_of_identity_acyclic():
    a = line_complex(0, 1, {0: 1, 1: 1}, {0: Matrix.identity(1)})
    f = ChainMap(a, a, {0: Matrix.identity(1), 1: Matrix.identity(1)})
    cone = mapping_cone(f)
    assert all(d == 0 for _, d in cone.cohomology_dims())


def test_cone_of_zero_map_splits():
    a = line_complex(0, 0, {0: 1}, {})
    f = ChainMap(a, a, {})
    cone = mapping_cone(f)
    assert cone.cohomology_dim(-1) == 1
    assert cone.cohomology_dim(0) == 1


def test_cone_dims_by_definition():
    rng = random.Random(2)
    for _ in range(10):
        a, b, f = random_chain_map(rng)
        cone = mapping_cone(f)
        for n in cone.degrees():
            assert cone.dim(n) == a.dim(n + 1) + b.dim(n)


def test_cone_vanishing_examples():
    a = line_complex(0, 1, {0: 1, 1: 1}, {0: Matrix.identity(1)})
    f = ChainMap(a, a, {0: Matrix.identity(1), 1: Matrix.identity(1)})
    for k in range(-1, 3):
        assert cone_vanishing_equiv(f, k) == (True, True)
    # zero map between acyclic complexes
    z = ChainMap(a, a, {})
    for k in range(-1, 3):
        assert cone_vanishing_equiv(z, k) == (True, True)
    # zero map between two copies of the point complex, k = 0
    pt = line_complex(0, 0, {0: 1}, {})
    z = ChainMap(pt, pt, {})
    assert cone_vanishing_equiv(z, 0) == (False, False)


def random_complex(rng, max_dim=3, lo=0, hi=3):
    """Random bounded complex: differentials built backwards so that each
    lands inside the kernel of the next."""
    dims = {n: rng.randint(0, max_dim) for n in range(lo, hi + 1)}
    diffs = {}
    next_d = None
    for n in range(hi - 1, lo - 1, -1):
        rows, cols = dims[n + 1], dims[n]
        if next_d is None:
            d = Matrix(rows, cols, [[rng.randint(-2, 2) for _ in range(cols)]
                                    for _ in range(rows)])
        else:
            _, kernel = rank_and_kernel(next_d)
            d = Matrix.zero(rows, cols)
            for j in range(cols):
                for v in kernel:
                    c = rng.randint(-2, 2)
                    if c:
                        for i in range(rows):
                            d.data[i][j] += c * v[i]
        diffs[n] = d
        next_d = d
    return FinComplex(lo, hi, dims, diffs)


def random_chain_map(rng, max_dim=3):
    """Random commuting chain map, sampled exactly from the kernel of the
    commutation constraints."""
    a = random_complex(rng, max_dim)
    b = random_complex(rng, max_dim)
    degrees = list(range(a.lo, a.hi + 1))
    offsets = {}
    pos = 0
    for n in degrees:
        offsets[n] = pos
        pos += b.dim(n) * a.dim(n)
    rows = []
    for n in degrees[:-1]:
        db = b.d(n)
        da = a.d(n)
        for i in range(b.dim(n + 1)):
            for j in range(a.dim(n)):
                row = [Q0] * pos
                for k in range(b.dim(n)):
                    if db.data[i][k] != 0:
                        row[offsets[n] + k * a.dim(n) + j] += db.data[i][k]
                for k in range(a.dim(n + 1)):
                    if da.data[k][j] != 0:
                        row[offsets[n + 1] + i * a.dim(n + 1) + k] \
                            -= da.data[k][j]
                rows.append(row)
    if rows and pos:
        _, kernel = rank_and_kernel(Matrix(len(rows), pos, rows))
    else:
        kernel = [[Q1 if i == j else Q0 for i in range(pos)]
                  for j in range(pos)]
    flat = [Q0] * pos
    for v in kernel:
        c = rng.randint(-2, 2)
        if c:
            flat = [x + c * y for x, y in zip(flat, v)]
    comps = {}
    for n in degrees:
        m = Matrix(b.dim(n), a.dim(n))
        for i in range(b.dim(n)):
            for j in range(a.dim(n)):
                m.data[i][j] = flat[offsets[n] + i * a.dim(n) + j]
        comps[n] = m
    return a, b, ChainMap(a, b, comps)


def test_cone_criterion_random():
    rng = random.Random(9)
    for _ in range(60):
        _, _, f = random_chain_map(rng)
        for k in range(-1, 4):
            lhs, rhs = cone_vanishing_equiv(f, k)
            assert lhs == rhs


def test_long_exact_euler_check():
    rng = random.Random(4)
    for _ in range(30):
        a, b, f = random_chain_map(rng)
        cone = mapping_cone(f)
        lhs = sum((-1) ** n * cone.cohomology_dim(n) for n in cone.degrees())
        rhs = sum((-1) ** n * a.cohomology_dim(n + 1) for n in cone.degrees())
        rhs += sum((-1) ** n * b.cohomology_dim(n) for n in cone.degrees())
        assert lhs == rhs


def test_cohomology_against_rank_count():
    """numeric.cohomology against FinComplex's rank-only count in every
    degree of 200 random complexes: the representatives are cocycles and
    independent modulo the image."""
    rng = random.Random(16)
    for _ in range(200):
        c = random_complex(rng)
        for n in range(c.lo - 1, c.hi + 2):
            d_prev, d_n = c.d(n - 1), c.d(n)
            dim, reps = cohomology(d_prev, d_n)
            assert dim == len(reps) == c.cohomology_dim(n)
            assert all(x == 0 for v in reps for x in d_n.apply(v))
            image = d_prev.columns()
            assert rank(vectors_matrix(image + reps, dim=c.dim(n))) \
                == rank(d_prev) + dim


def test_cohomology_edge_shapes():
    # no cochains below: H^n = ker d_n, one vector per free column
    assert cohomology(Matrix.zero(3, 0), Matrix(1, 3, [[1, 1, 0]])) \
        == (2, [[-1, 1, 0], [0, 0, 1]])
    # no cochains above: H^n = C^n / im d_prev
    assert cohomology(Matrix(2, 1, [[1], [2]]), Matrix.zero(0, 2)) \
        == (1, [[1, 0]])
    assert cohomology(Matrix(2, 1, [[0], [2]]), Matrix.zero(0, 2)) \
        == (1, [[1, 0]])
    assert cohomology(Matrix.identity(2), Matrix.zero(0, 2)) == (0, [])
    # dim C^n = 0
    assert cohomology(Matrix.zero(0, 2), Matrix.zero(3, 0)) == (0, [])
    assert cohomology(Matrix.zero(0, 0), Matrix.zero(0, 0)) == (0, [])


def induced_map_oracle(f, n):
    """(iso, injective) of H^n(f) by the library's earlier route: dense
    cocycle bases of A and B and separate ranks for the image and the
    kernel of the induced map."""
    a, b = f.source, f.target
    za = rank_and_kernel(a.d(n))[1]
    ba = rank(a.d(n - 1))
    zb = rank_and_kernel(b.d(n))[1]
    db = b.d(n - 1)
    dim_hb = len(zb) - rank(db)
    fza = [f.component(n).apply(v) for v in za]
    db_cols = db.columns()
    rank_b = rank(vectors_matrix(db_cols, dim=b.dim(n)))
    image_dim = rank(vectors_matrix(db_cols + fza, dim=b.dim(n))) - rank_b
    ker_induced = 0
    if za:
        aug = vectors_matrix(fza, dim=b.dim(n)).hstack(
            vectors_matrix(db_cols, dim=b.dim(n)))
        ker_induced = (len(za) - (rank(aug) - rank_b)) - ba
    injective = ker_induced == 0
    return injective and image_dim == dim_hb, injective


def test_induced_map_against_oracle():
    rng = random.Random(33)
    seen = set()
    for _ in range(200):
        a, b, f = random_chain_map(rng)
        for n in range(min(a.lo, b.lo) - 1, max(a.hi, b.hi) + 2):
            flags = induced_map_iso_injective(f, n)
            assert flags == induced_map_oracle(f, n)
            seen.add(flags)
    assert seen == {(True, True), (False, True), (False, False)}
