"""Exact arithmetic, kernels, solving, and jet calculus."""

import random
from fractions import Fraction

from lie2coh.numeric import (Matrix, Jet, rank, rank_and_kernel,
                             solve_linear, rat)


def rand_frac(rng, span=30):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def test_rational_field_axioms_random():
    rng = random.Random(1)
    for _ in range(200):
        p, q, r = (rand_frac(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(-2) == Fraction(-2)
    assert rat("-5") == Fraction(-5)


def test_scale_and_identity_keep_integral_values_as_ints():
    """Integral values stay ints: scaling an integral matrix by an int, an
    integral Fraction or a string, and the identity, hold only ints; a
    proper fraction still scales exactly."""
    m = Matrix(1, 2, [[1, 2]])
    for c in (-1, Fraction(3), "2"):
        for scaled in (m.scale(c), m * c):
            assert [type(x) for x in scaled.data[0]] == [int, int], c
            assert scaled.data == [[rat(c), 2 * rat(c)]]
    assert m.scale(Fraction(1, 2)).data == [[Fraction(1, 2), 1]]
    eye = Matrix.identity(3)
    assert eye.data == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert all(type(x) is int for row in eye.data for x in row)


def test_rank_identity_and_zero():
    r, basis = rank_and_kernel(Matrix.identity(3))
    assert r == 3 and basis == []
    r, basis = rank_and_kernel(Matrix.zero(2, 2))
    assert r == 0 and len(basis) == 2


def test_rank_one_kernel():
    m = Matrix(2, 2, [[1, 2], [2, 4]])
    r, basis = rank_and_kernel(m)
    assert r == 1 and len(basis) == 1
    v = basis[0]
    # (-2, 1) up to scaling
    assert v[0] * 1 == v[1] * -2
    assert all(x == 0 for x in m.apply(v))


def test_kernel_postconditions_random():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix(rows, cols, [[rng.randint(-3, 3) for _ in range(cols)]
                                for _ in range(rows)])
        r, basis = rank_and_kernel(m)
        assert r + len(basis) == cols
        for v in basis:
            assert all(x == 0 for x in m.apply(v))
        if basis:
            stacked = Matrix(cols, len(basis),
                             [[basis[j][i] for j in range(len(basis))]
                              for i in range(cols)])
            assert rank(stacked) == len(basis)


def test_rank_transpose_random():
    rng = random.Random(3)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix(rows, cols, [[rand_frac(rng, 5) for _ in range(cols)]
                                for _ in range(rows)])
        assert rank(m) == rank(m.transpose())


def test_solve_linear():
    assert solve_linear(Matrix.identity(2), [rat(1), rat(2)]) == [1, 2]
    assert solve_linear(Matrix.zero(2, 2), [rat(1), rat(0)]) is None
    x = solve_linear(Matrix(2, 2, [[2, 0], [0, 3]]), [rat(1), rat(1)])
    assert x == [Fraction(1, 2), Fraction(1, 3)]


def test_solve_linear_certifies_infeasible_random():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = Matrix(rows, cols, [[rng.randint(-2, 2) for _ in range(cols)]
                                for _ in range(rows)])
        b = [rat(rng.randint(-2, 2)) for _ in range(rows)]
        x = solve_linear(m, b)
        aug = m.hstack(Matrix.column(b))
        if x is None:
            assert rank(aug) == rank(m) + 1
        else:
            assert m.apply(x) == b


def test_jet_reciprocal():
    tau = Jet.variable(0, 1, 3) + Jet.constant(2.0, 1, 3)
    one = tau * tau.reciprocal()
    assert abs(one.const - 1.0) < 1e-14
    for key in ((1,), (2,), (3,)):
        assert abs(one.coefficient(key)) < 1e-13
