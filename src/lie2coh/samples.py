"""Seeded random generators for Lie algebras, crossed modules and
2-representations.  Every value returned here passes the validators; the
property tests and the CLI theorem-checks draw their instances from this
module so runs are reproducible."""

from fractions import Fraction
import random

from .numeric import Matrix, Q0
from .liealg import LieAlgebra, Representation, validate_lie_algebra, _unit
from .lie2 import (CrossedModuleAlg, TwoVectorSpace, validate_crossed_module,
                   xmod_from_quadruple)
from .tworep import (TwoRep, validate_two_rep, adjoint_rep, semidirect_2alg,
                     pullback_two_rep)


def random_rational(rng, span=2):
    return Fraction(rng.randint(-span, span))


def random_matrix(rng, rows, cols, span=2):
    return Matrix(rows, cols, [[random_rational(rng, span)
                                for _ in range(cols)] for _ in range(rows)])


def random_unimodular(rng, n):
    """Random integer matrix with determinant +-1 (product of 2n shears)."""
    m = Matrix.identity(n)
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.choice([-1, 1]))
        for col in range(n):
            m.data[i][col] += c * m.data[j][col]
    return m


def random_lie_algebra(rng, dim):
    """A valid Lie algebra of the given dimension in a scrambled basis."""
    if dim == 0:
        return LieAlgebra(0)
    choices = [LieAlgebra.abelian(dim)]
    if dim == 2:
        choices.append(LieAlgebra.aff1())
    if dim == 3:
        choices.extend([LieAlgebra.heisenberg3(), LieAlgebra.sl2(),
                        _direct_sum(LieAlgebra.aff1(), LieAlgebra.abelian(1))])
    if dim > 3:
        choices.append(_direct_sum(LieAlgebra.heisenberg3(),
                                   LieAlgebra.abelian(dim - 3)))
        choices.append(_direct_sum(LieAlgebra.aff1(),
                                   LieAlgebra.abelian(dim - 2)))
    g = rng.choice(choices)
    g = g.change_basis(random_unimodular(rng, dim))
    assert not validate_lie_algebra(g)
    return g


def _direct_sum(a, b):
    structure = dict(a.structure)
    for (i, j), vec in b.structure.items():
        structure[(a.dim + i, a.dim + j)] = [(a.dim + k, c) for k, c in vec]
    return LieAlgebra._of(a.dim + b.dim, structure)


def _ideal_index_choices(h):
    """Subsets of basis indices spanning an ideal of h: those off which
    the bracket of every basis vector with a member is zero."""
    from itertools import combinations
    out = [()]
    for size in range(1, h.dim + 1):
        for subset in combinations(range(h.dim), size):
            if not any(c and t not in subset
                       for b in range(h.dim) for i in subset
                       for t, c in h.bracket_into([(b, 1)], [(i, 1)],
                                                  {}).items()):
                out.append(subset)
    return out


def _annihilator_functionals(h, dead_vectors):
    """Basis of linear functionals on h vanishing on the given vectors."""
    from .numeric import rank_and_kernel
    rows = [v for v in dead_vectors if any(c != 0 for c in v)]
    if not rows:
        return [list(_unit(h.dim, b)) for b in range(h.dim)]
    _, kernel = rank_and_kernel(Matrix(len(rows), h.dim, rows))
    return kernel


def _commuting_rep(rng, h, dead_vectors, dim, span=1):
    """rho(y) = l1(y) B + l2(y) B^2 with functionals l_i killing the dead
    vectors and the derived ideal: always a valid quotient representation."""
    derived = []
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            w = h.basis_bracket(i, j)
            if any(c != 0 for c in w):
                derived.append(w)
    funcs = _annihilator_functionals(h, list(dead_vectors) + derived)
    if not funcs or dim == 0:
        return Representation.trivial(h, dim)
    base = random_matrix(rng, dim, dim, span)
    base2 = base * base

    def draw():
        out = [Q0] * h.dim
        for f in funcs:
            c = random_rational(rng, span)
            out = [a + c * b for a, b in zip(out, f)]
        return out

    l1, l2 = draw(), draw()
    mats = [base.scale(l1[b]) + base2.scale(l2[b]) for b in range(h.dim)]
    rep = Representation(h, dim, mats)
    from .liealg import validate_representation
    assert not validate_representation(rep)
    return rep


def random_descending_rep(rng, h, ideal_indices, v_dim):
    """Representation of h on Q^v_dim vanishing on the ideal (hence a
    representation of the quotient h/I)."""
    killed = [_unit(h.dim, i) for i in ideal_indices]
    return _commuting_rep(rng, h, killed, v_dim)


def random_crossed_module(rng, max_dim=2):
    """Crossed module from a random quadruple (h, I, V, rho)."""
    dh = rng.randint(0, max_dim)
    h = random_lie_algebra(rng, dh)
    ideals = _ideal_index_choices(h)
    ideal = rng.choice(ideals)
    v_dim = rng.randint(0, max(0, max_dim - len(ideal)))
    rho = random_descending_rep(rng, h, ideal, v_dim)
    x = xmod_from_quadruple(h, list(ideal), v_dim, rho)
    assert not validate_crossed_module(x)
    return x


def random_two_vector(rng, max_dim=2):
    dw = rng.randint(0, max_dim)
    dv = rng.randint(0, max_dim)
    return TwoVectorSpace(dw, dv, random_matrix(rng, dv, dw, 1))


def random_context(rng, max_dim=2):
    """A random valid (crossed module, 2-representation) pair with all of
    dim g, dim h, dim W, dim V at most max_dim."""
    kind = rng.choice(["adjoint", "trivial", "unit_v", "unit_w",
                       "adjoint", "pullback"])
    if kind == "adjoint":
        x = random_crossed_module(rng, max_dim)
        r = adjoint_rep(x)
    elif kind == "trivial":
        x = random_crossed_module(rng, max_dim)
        r = TwoRep.trivial(x, random_two_vector(rng, max_dim))
    elif kind in ("unit_v", "unit_w"):
        # W = 0 or V = 0, the other acted on by a representation killing mu(g)
        x = random_crossed_module(rng, max_dim)
        d = rng.randint(0, max_dim)
        mu_img = [x.mu.col(j) for j in range(x.g.dim)]
        rho = _commuting_rep(rng, x.h, mu_img, d)
        none = Representation.trivial(x.h, 0)
        dw, dv = (0, d) if kind == "unit_v" else (d, 0)
        r = TwoRep(x, TwoVectorSpace(dw, dv, Matrix.zero(dv, dw)),
                   [Matrix.zero(dw, dv)] * x.g.dim,
                   rho if dw else none, rho if dv else none)
    else:
        # pull a small representation back along a semidirect projection
        x0 = random_crossed_module(rng, max(0, max_dim - 1))
        small = TwoRep.trivial(x0, random_two_vector(rng, 1)) \
            if x0.g.dim + x0.h.dim == 0 or rng.random() < 0.5 \
            else adjoint_rep(x0)
        if (x0.g.dim + small.target.dim_w > max_dim
                or x0.h.dim + small.target.dim_v > max_dim):
            small = TwoRep.trivial(x0, random_two_vector(
                rng, max_dim - max(x0.g.dim, x0.h.dim)))
        x = semidirect_2alg(x0, small)
        proj_g, proj_h = (
            Matrix.identity(a).hstack(Matrix.zero(a, b - a))
            for a, b in ((x0.g.dim, x.g.dim), (x0.h.dim, x.h.dim)))
        r = pullback_two_rep(small, x, proj_g, proj_h)
    assert not validate_two_rep(r)
    return x, r


def rng_from_seed(seed):
    return random.Random(seed)
