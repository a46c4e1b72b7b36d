import random
from fractions import Fraction

import pytest

from redstar.brst import (
    brst_transfer,
    build_delta,
    certify_invariant,
    check_classical_splitting,
    classical_brst_diff,
    classical_charge,
    closed_form_H,
    poisson_action,
    quotient_representation,
    reduced_poisson,
)
from redstar.errors import InvarianceError
from redstar.hpt import check_contraction
from redstar.koszul import MomentMapData, build_koszul_contraction
from redstar.poisson import poisson_bracket, poisson_data
from redstar.poly import Poly, VarContext, poly_ring
from redstar.probes import random_bounded_super, random_poly
from redstar.series import Series
from redstar.superalg import LieAlgebraData, SuperElement, graded_poisson


def abelian_toy():
    ctx, (q, p) = poly_ring(("q", "p"))
    lam = poisson_data(ctx, [("q", "p", 1)])
    lie = LieAlgebraData.build(1)
    moment = MomentMapData(ctx, (q * q,), lie, "")
    return ctx, q, p, lam, moment


def so3_commuting():
    n = 3
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    names = [f"q{i}{j}" for i, j in pairs] + [f"p{i}{j}" for i, j in pairs]
    ctx = VarContext(tuple(names))
    lam = poisson_data(
        ctx,
        [(f"q{i}{j}", f"p{i}{j}", Fraction(1) if i == j else Fraction(1, 2)) for i, j in pairs],
    )

    def qv(i, j):
        i, j = min(i, j), max(i, j)
        return Poly.variable(ctx, f"q{i}{j}")

    def pv(i, j):
        i, j = min(i, j), max(i, j)
        return Poly.variable(ctx, f"p{i}{j}")

    def entry(r, c):
        out = Poly.zero(ctx)
        for k in range(1, n + 1):
            out = out + qv(r, k) * pv(k, c) - pv(r, k) * qv(k, c)
        return out

    comps = (entry(2, 3).scale(2), entry(3, 1).scale(2), entry(1, 2).scale(2))
    eps = []
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                v = (a - b) * (b - c) * (c - a) // 2
                if v and a < b:
                    eps.append((a, b, c, v))
    lie = LieAlgebraData.build(3, eps)
    moment = MomentMapData(ctx, comps, lie, "")
    return ctx, lam, moment


def test_abelian_charge_is_J_e1():
    ctx, q, p, lam, moment = abelian_toy()
    theta = classical_charge(moment, 0)
    assert theta == SuperElement(ctx, 1, 0, {((1,), ()): Series.from_poly(q * q, 0)})


def test_so3_charge_has_cubic_term_and_vanishing_bracket():
    ctx, lam, moment = so3_commuting()
    theta = classical_charge(moment, 0)
    cubic = [k for k in theta.terms if len(k[0]) == 2 and len(k[1]) == 1]
    assert cubic, "structure-constant term missing"
    assert graded_poisson(theta, theta, lam).is_zero()


def test_equivariance_so3():
    ctx, lam, moment = so3_commuting()
    assert all(r.is_zero() for _, r in moment.check_equivariance(lam))


def test_brst_differential_on_ghost_free():
    # abelian: D(f) = sum_a {J_a, f} e^a for functions f
    ctx, q, p, lam, moment = abelian_toy()
    theta = classical_charge(moment, 0)
    D = classical_brst_diff(theta, lam)
    rng = random.Random(3)
    for _ in range(10):
        f = random_poly(ctx, rng, 4, 3)
        fx = SuperElement.from_poly(f, 1, 0)
        expect = SuperElement(
            ctx, 1, 0,
            {((1,), ()): Series.from_poly(
                poisson_bracket(q * q, f, lam), 0)},
        )
        assert D(fx) == expect


def test_splitting_identities():
    for setup in (abelian_toy, so3_commuting):
        out = setup()
        ctx, lam, moment = out[0], out[-2], out[-1]
        theta = classical_charge(moment, 0)
        delta = build_delta(moment, poisson_action(lam))
        rng = random.Random(5)
        jdegs = tuple(j.degree() for j in moment.components)
        probes = [
            random_bounded_super(ctx, moment.lie.dim, 0, rng, 6, jdegs, terms=2)
            for _ in range(12)
        ]
        resid = check_classical_splitting(moment, lam, theta, delta, probes)
        assert all(r.is_zero() for _, r in resid)


def test_delta_basics():
    ctx, lam, moment = so3_commuting()
    delta = build_delta(moment, poisson_action(lam))
    one = SuperElement.from_poly(Poly.const(ctx, 1), 3, 0)
    assert delta(one).is_zero()
    rng = random.Random(6)
    for _ in range(8):
        x = random_bounded_super(ctx, 3, 0, rng, 4, (2, 2, 2), terms=2)
        assert delta(delta(x)).is_zero()


def test_quotient_representation_property():
    # [Lz_a, Lz_b] = f_ab^c Lz_c for the classical quotient representation
    ctx, lam, moment = so3_commuting()
    kc = build_koszul_contraction(moment, 4)
    space = kc.meta["space"]
    rep = quotient_representation(moment, poisson_action(lam), kc.p, kc.i)
    rng = random.Random(7)
    probes = [
        SuperElement.from_poly(space.normal_form_poly(random_poly(ctx, rng, 4, 3)), 3, 0)
        for _ in range(4)
    ]
    residuals = rep.commutator_residuals(probes)
    assert len(residuals) == 3 * len(probes)
    assert all(r.is_zero() for _, r in residuals)


def test_corrupted_charge_fails_splitting():
    ctx, q, p, lam, moment = abelian_toy()
    theta = classical_charge(moment, 0) + SuperElement(
        ctx, 1, 0,
        {((1,), ()): Series.from_poly(q ** 3, 0)},
    )
    delta = build_delta(moment, poisson_action(lam))
    rng = random.Random(8)
    probes = [random_bounded_super(ctx, 1, 0, rng, 4, (2,), terms=2) for _ in range(6)]
    resid = check_classical_splitting(moment, lam, theta, delta, probes)
    assert any(not r.is_zero() for _, r in resid)


def toy_reduction():
    ctx, (q, p) = poly_ring(("q", "p"))
    lam = poisson_data(ctx, [("q", "p", 1)])
    lie = LieAlgebraData.build(1)
    moment = MomentMapData(ctx, (q,), lie, "")
    kc = build_koszul_contraction(moment, 8)
    return ctx, q, p, lam, moment, kc


def test_classical_reduction_axioms():
    ctx, q, p, lam, moment, kc = toy_reduction()
    rng = random.Random(9)
    probes_Y = [random_bounded_super(ctx, 1, 0, rng, 8, (1,), terms=2) for _ in range(8)]
    probes_X = [kc.p(y) for y in probes_Y]
    delta = build_delta(moment, poisson_action(lam))
    cc, d_z = brst_transfer(kc, delta, probes_X[:3], probes_Y[:3])
    assert all(ok for _, ok, _ in check_contraction(cc, probes_X, probes_Y))
    phi, H = cc.i, cc.h
    Hcf = closed_form_H(kc, delta, 1)
    for y in probes_Y:
        assert (H(y) - Hcf(y)).is_zero()
    for y in probes_Y:
        assert H(H(y)).is_zero()
        assert H(phi(kc.p(y))).is_zero()


def test_reduced_poisson_on_invariants():
    # a small circle action on C^2 with indefinite quadratic constraint
    from redstar.scalars import QQ_I, GaussianRational

    ctx = VarContext(("z1", "z2", "zb1", "zb2"), QQ_I, ((-1, 1, 1, -1),))
    lam = poisson_data(
        ctx, [("z1", "zb1", GaussianRational(0, 2)), ("z2", "zb2", GaussianRational(0, 2))]
    )
    v = lambda n: Poly.variable(ctx, n)
    J = (v("z1") * v("zb1") - v("z2") * v("zb2")).scale(Fraction(1, 2))
    lie = LieAlgebraData.build(1, torus_rows=(0,))
    moment = MomentMapData(ctx, (J,), lie, "")
    kc = build_koszul_contraction(moment, 6)
    space = kc.meta["space"]
    phi = brst_transfer(kc, build_delta(moment, poisson_action(lam)))[0].i
    f = space.normal_form_poly(v("z1") * v("zb1"))
    g = space.normal_form_poly(v("z1") * v("z2"))
    # certification passes on both routes
    out = reduced_poisson(f, g, phi, kc.p, lam, 1, moment, space, torus_rows=(0,))
    out2 = reduced_poisson(f, g, phi, kc.p, lam, 1, moment, space)  # bracket route
    assert out == out2
    # independent Dirac route: restrict the bracket of any representatives
    direct = space.normal_form_poly(poisson_bracket(f, g, lam))
    assert out == direct
    # antisymmetry and the trivial bracket with itself
    assert reduced_poisson(g, f, phi, kc.p, lam, 1, moment, space) == -out
    assert reduced_poisson(f, f, phi, kc.p, lam, 1, moment, space).is_zero()
    # non-invariant input is refused
    with pytest.raises(InvarianceError):
        reduced_poisson(v("z1"), f, phi, kc.p, lam, 1, moment, space)


def test_certify_invariant_weight_route():
    names = ("z1", "zb1")
    ctx = VarContext(names, gradings=((1, -1),))
    lie = LieAlgebraData.build(1, torus_rows=(0,))
    v = lambda n: Poly.variable(ctx, n)
    moment = MomentMapData(ctx, (v("z1") * v("zb1"),), lie, "")
    # weight zero passes; weight two raises
    certify_invariant(v("z1") * v("zb1"), moment, None, None, torus_rows=(0,))
    with pytest.raises(InvarianceError):
        certify_invariant(v("z1") * v("z1"), moment, None, None, torus_rows=(0,))
