"""2-representations: validation, the adjoint, bar-rho, semidirect products."""

from lie2coh.numeric import Matrix, Q0, Q1
from lie2coh.liealg import (LieAlgebra, Representation,
                            validate_representation, _unit)
from lie2coh.lie2 import (CrossedModuleAlg, TwoVectorSpace,
                          validate_crossed_module, lie2_arrows,
                          xmod_from_quadruple)
from lie2coh.tworep import (TwoRep, validate_two_rep, adjoint_rep, bar_rho,
                            semidirect_2alg)
from lie2coh.samples import (rng_from_seed, random_crossed_module,
                             random_two_vector, random_context)


def scalar_action_xmod():
    g = LieAlgebra.abelian(1)
    h = LieAlgebra.abelian(1)
    return CrossedModuleAlg(g, h, Matrix.zero(1, 1),
                            Representation(h, 1, [Matrix(1, 1, [[1]])]))


def test_trivial_rep_valid():
    rng = rng_from_seed(1)
    for _ in range(10):
        x = random_crossed_module(rng, 2)
        r = TwoRep.trivial(x, random_two_vector(rng, 2))
        assert validate_two_rep(r) == []


def unit_rep_on_aff1():
    """The ideal inclusion aff(1) with a W = 0 representation: a rep of h
    on V = Q vanishing on mu(g) = span(e1)."""
    aff = LieAlgebra.aff1()
    x = xmod_from_quadruple(aff, [1], 0, Representation.trivial(aff, 0))
    rho = Representation(x.h, 1, [Matrix(1, 1, [[1]]), Matrix.zero(1, 1)])
    target = TwoVectorSpace(0, 1, Matrix.zero(1, 0))
    r = TwoRep(x, target, [Matrix.zero(0, 1) for _ in range(x.g.dim)],
               Representation.trivial(x.h, 0), rho)
    return x, rho, r


def test_unit_rep_valid():
    _, _, r = unit_rep_on_aff1()
    assert validate_two_rep(r) == []


def test_object_compatibility_flagged():
    x = scalar_action_xmod()
    target = TwoVectorSpace(1, 1, Matrix(1, 1, [[1]]))
    r = TwoRep(x, target, [Matrix.zero(1, 1)],
               Representation(x.h, 1, [Matrix(1, 1, [[1]])]),
               Representation.trivial(x.h, 1))
    names = [b[0] for b in validate_two_rep(r)]
    assert "object_compatibility" in names


def test_adjoint_trivial_g_is_classical():
    h = LieAlgebra.sl2()
    x = CrossedModuleAlg(LieAlgebra.abelian(0), h, Matrix.zero(3, 0),
                         Representation.trivial(h, 0))
    ad = adjoint_rep(x)
    assert ad.target.dim_w == 0 and ad.target.dim_v == 3
    for b in range(3):
        assert ad.rho0_v.mats[b] == h.ad(_unit(3, b))
    assert validate_two_rep(ad) == []


def test_adjoint_scalar_action():
    x = scalar_action_xmod()
    ad = adjoint_rep(x)
    # ad_1(x) = -x as a map h -> g; ad_0^1(y) = y; ad_0^0 = 0
    assert ad.rho1[0].data == [[-1]]
    assert ad.rho0_w.mats[0].data == [[1]]
    assert ad.rho0_v.mats[0].is_zero()
    assert validate_two_rep(ad) == []


def test_adjoint_of_random_quadruples():
    rng = rng_from_seed(9)
    for _ in range(50):
        x = random_crossed_module(rng, 3)
        assert validate_two_rep(adjoint_rep(x)) == []


def test_bar_rho_trivial_is_zero():
    rng = rng_from_seed(2)
    x = random_crossed_module(rng, 2)
    r = TwoRep.trivial(x, random_two_vector(rng, 2))
    rb = bar_rho(r)
    assert all(m.is_zero() for m in rb.mats)


def test_bar_rho_blocks_collapse_for_unit_rep():
    x, rho, r = unit_rep_on_aff1()
    rb = bar_rho(r)
    # W = 0 so bar rho is rho0^0 composed with the projection onto h
    for i in range(x.g.dim):
        assert rb.mats[i].is_zero()
    for b in range(x.h.dim):
        assert rb.mats[x.g.dim + b] == rho.mats[b]


def test_bar_rho_is_representation_random():
    rng = rng_from_seed(13)
    for _ in range(100):
        x, r = random_context(rng, 2)
        rb = bar_rho(r)
        assert validate_representation(rb) == []
        assert rb.algebra == lie2_arrows(x)


def test_semidirect_trivial_zero_target_returns_x():
    rng = rng_from_seed(4)
    x = random_crossed_module(rng, 2)
    r = TwoRep.trivial(x, TwoVectorSpace(0, 0, Matrix.zero(0, 0)))
    sd = semidirect_2alg(x, r)
    assert sd.g.brackets == x.g.brackets
    assert sd.h.brackets == x.h.brackets
    assert sd.mu == x.mu
    assert sd.action.mats == x.action.mats


def test_semidirect_trivial_rep_direct_product():
    x = scalar_action_xmod()
    r = TwoRep.trivial(x, TwoVectorSpace(1, 1, Matrix.zero(1, 1)))
    sd = semidirect_2alg(x, r)
    assert validate_crossed_module(sd) == []
    assert sd.g.dim == 2 and sd.h.dim == 2
    assert sd.g.brackets == {}


def test_semidirect_dims_and_projection():
    rng = rng_from_seed(5)
    for _ in range(10):
        x = random_crossed_module(rng, 2)
        r = adjoint_rep(x)
        sd = semidirect_2alg(x, r)
        assert sd.g.dim == x.g.dim + r.target.dim_w
        assert sd.h.dim == x.h.dim + r.target.dim_v
        # the projections are crossed-module maps: check on basis vectors
        dg, dh = x.g.dim, x.h.dim
        for i in range(sd.g.dim):
            full = sd.mu.apply(_unit(sd.g.dim, i))
            assert full[:dh] == x.mu.apply(_unit(sd.g.dim, i)[:dg])
        for b in range(sd.h.dim):
            for i in range(sd.g.dim):
                moved = sd.action.mats[b].apply(_unit(sd.g.dim, i))
                base = x.action.act(_unit(sd.h.dim, b)[:dh]).apply(
                    _unit(sd.g.dim, i)[:dg])
                assert moved[:dg] == base


def dense_validate_two_rep(r):
    """Test-only oracle: the validator as dense Matrix products and
    differences, compared entry by entry with validate_two_rep."""
    bad = []
    x, t = r.source, r.target
    phi = t.phi
    for (i, j) in validate_representation(r.rho0_w):
        bad.append(("rho0_w_homomorphism", (i, j)))
    for (i, j) in validate_representation(r.rho0_v):
        bad.append(("rho0_v_homomorphism", (i, j)))
    for b in range(x.h.dim):
        if not (phi * r.rho0_w.mats[b] - r.rho0_v.mats[b] * phi).is_zero():
            bad.append(("object_compatibility", (b,)))
    for a in range(x.g.dim):
        mu_a = x.mu.apply(_unit(x.g.dim, a))
        if not (r.rho0_v.act(mu_a) - phi * r.rho1[a]).is_zero():
            bad.append(("delta_rho1_V", (a,)))
        if not (r.rho0_w.act(mu_a) - r.rho1[a] * phi).is_zero():
            bad.append(("delta_rho1_W", (a,)))
    for a in range(x.g.dim):
        for b in range(a + 1, x.g.dim):
            lhs = r.rho1_of(x.g.basis_bracket(a, b))
            rhs = (r.rho1[a] * phi * r.rho1[b]
                   - r.rho1[b] * phi * r.rho1[a])
            if not (lhs - rhs).is_zero():
                bad.append(("rho1_homomorphism", (a, b)))
    for b in range(x.h.dim):
        for a in range(x.g.dim):
            lhs = r.rho1_of(x.action.mats[b].apply(_unit(x.g.dim, a)))
            rhs = (r.rho0_w.mats[b] * r.rho1[a]
                   - r.rho1[a] * r.rho0_v.mats[b])
            if not (lhs - rhs).is_zero():
                bad.append(("action_compatibility", (b, a)))
    return bad


def broken_variants(r):
    """r with each of rho1, rho0^W, rho0^V and phi doubled, and with the
    first matrix of each shifted by a unit entry."""
    x, t = r.source, r.target
    dw, dv = t.dim_w, t.dim_v

    def doubled(mats):
        return [m.scale(2) for m in mats]

    def shifted(mats):
        mats = list(mats)
        if mats and mats[0].rows and mats[0].cols:
            m = Matrix(mats[0].rows, mats[0].cols, mats[0].data)
            m.data[-1][0] += 1
            mats[0] = m
        return mats

    out = []
    for change in (doubled, shifted):
        out.append(TwoRep(x, t, change(r.rho1), r.rho0_w, r.rho0_v))
        out.append(TwoRep(x, t, r.rho1,
                          Representation(x.h, dw, change(r.rho0_w.mats)),
                          r.rho0_v))
        out.append(TwoRep(x, t, r.rho1, r.rho0_w,
                          Representation(x.h, dv, change(r.rho0_v.mats))))
        out.append(TwoRep(x, TwoVectorSpace(dw, dv, change([t.phi])[0]),
                          r.rho1, r.rho0_w, r.rho0_v))
    return out


def test_validate_two_rep_matches_dense_oracle():
    """The sparse validator reports the oracle's violations, with the same
    names, witnesses and order, on adjoint and random 2-representations
    and on broken variants of them."""
    rng = rng_from_seed(21)
    names = set()
    reps = [adjoint_rep(random_crossed_module(rng, 3)) for _ in range(40)]
    reps += [random_context(rng, 2)[1] for _ in range(40)]
    for r in reps:
        assert validate_two_rep(r) == dense_validate_two_rep(r) == []
        for broken in broken_variants(r):
            want = dense_validate_two_rep(broken)
            assert validate_two_rep(broken) == want
            names.update(name for name, _ in want)
    # every identity the validator checks is broken somewhere above
    assert names == {"rho0_w_homomorphism", "rho0_v_homomorphism",
                     "object_compatibility", "delta_rho1_V", "delta_rho1_W",
                     "rho1_homomorphism", "action_compatibility"}
