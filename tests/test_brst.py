import random
from fractions import Fraction

import pytest

from redstar.brst import (
    BrstOperators,
    brst_transfer,
    build_delta,
    certify_invariant,
    classical_brst_diff,
    classical_charge,
    classical_operators,
    closed_form_H,
    poisson_action,
    quotient_representation,
    reduced_poisson,
    splitting_residuals,
)
from redstar.errors import InvarianceError
from redstar.koszul import (
    KoszulSpace,
    MomentMapData,
    build_koszul_contraction,
    koszul_contraction,
)
from redstar.poisson import poisson_bracket, poisson_data
from redstar.poly import Poly, VarContext, poly_ring
from redstar.probes import random_bounded_super, random_poly
from redstar.reduction import invariant_generators
from redstar.runner import RunState, stage_load
from redstar.scenarios import GENERATOR_CAP, get_scenario
from redstar.series import Series
from redstar.superalg import LieAlgebraData, OperatorHandle, SuperElement, graded_poisson


def abelian_toy():
    ctx, (q, p) = poly_ring(("q", "p"))
    lam = poisson_data(ctx, [("q", "p", 1)])
    lie = LieAlgebraData.build(1)
    moment = MomentMapData(ctx, (q * q,), lie)
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
    moment = MomentMapData(ctx, comps, lie)
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
        ops = classical_operators(moment, lam, classical_charge(moment, 0))
        rng = random.Random(5)
        jdegs = tuple(j.degree() for j in moment.components)
        probes = [
            random_bounded_super(ctx, moment.lie.dim, 0, rng, 6, jdegs, terms=2)
            for _ in range(12)
        ]
        resid = splitting_residuals(ops, probes)
        assert all(r.is_zero() for _, r in resid)


def test_splitting_residuals_apply_each_operator_once_per_use():
    ctx, lam, moment = so3_commuting()
    ops = classical_operators(moment, lam, classical_charge(moment, 0))
    assert (ops.D.name, ops.delta.name, ops.koszul.name) == ("D", "delta", "koszul")
    counts = {"D": 0, "delta": 0, "koszul": 0}

    def counted(name, op):
        def fn(x):
            counts[name] += 1
            return op(x)

        return OperatorHandle(name, fn, op.degree)

    rng = random.Random(9)
    jdegs = tuple(j.degree() for j in moment.components)
    probes = [random_bounded_super(ctx, 3, 0, rng, 6, jdegs, terms=2) for _ in range(4)]
    counted_ops = BrstOperators(**{name: counted(name, getattr(ops, name)) for name in counts})
    resid = splitting_residuals(counted_ops, probes)
    assert counts == {"D": 2 * 4, "delta": 3 * 4, "koszul": 3 * 4}
    assert resid == splitting_residuals(ops, probes)


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
    space = KoszulSpace(moment, 4)
    kc = koszul_contraction(space)
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
    rng = random.Random(8)
    probes = [random_bounded_super(ctx, 1, 0, rng, 4, (2,), terms=2) for _ in range(6)]
    resid = splitting_residuals(classical_operators(moment, lam, theta), probes)
    assert any(not r.is_zero() for _, r in resid)


def toy_reduction():
    ctx, (q, p) = poly_ring(("q", "p"))
    lam = poisson_data(ctx, [("q", "p", 1)])
    lie = LieAlgebraData.build(1)
    moment = MomentMapData(ctx, (q,), lie)
    kc = build_koszul_contraction(moment, 8)
    return ctx, q, p, lam, moment, kc


def test_classical_reduction_axioms():
    ctx, q, p, lam, moment, kc = toy_reduction()
    rng = random.Random(9)
    probes_Y = [random_bounded_super(ctx, 1, 0, rng, 8, (1,), terms=2) for _ in range(8)]
    probes_X = [kc.p(y) for y in probes_Y]
    delta = build_delta(moment, poisson_action(lam))
    cc, d_z = brst_transfer(kc, delta, probes_X[:3], probes_Y[:3])
    for x, y in zip(probes_X, probes_Y):
        assert all(r.is_zero() for r in cc.axiom_residuals(x, y).values())
    phi, H = cc.i, cc.h
    Hcf = closed_form_H(kc, delta)
    for y in probes_Y:
        assert (H(y) - Hcf(y)).is_zero()
    for y in probes_Y:
        assert H(H(y)).is_zero()
        assert H(phi(kc.p(y))).is_zero()


def test_closed_form_H_keeps_the_floor_of_the_term_that_ends_its_sum():
    # on p^2 in the quotient model the first term h delta + delta h already
    # vanishes; a codifferential whose images are reliable only to 1 leaves
    # that order on the vanished term, and H must keep it
    ctx, q, p, lam, moment, kc = toy_reduction()
    delta = build_delta(moment, poisson_action(lam))
    lowered = OperatorHandle(
        "delta", lambda x: delta(x) + SuperElement(x.ctx, x.dim, x.order, floor=1), +1
    )
    x = SuperElement.from_poly(p * p, 1, 2)
    assert closed_form_H(kc, delta)(x).floor is None
    out = closed_form_H(kc, lowered)(x)
    assert not out.terms and out.floor == 1 and out.reliable == 1


def test_reduced_poisson_on_invariants():
    # a small circle action on C^2 with indefinite quadratic constraint
    from redstar.scalars import QQ_I, GaussianRational

    ctx = VarContext(("z1", "z2", "zb1", "zb2"), QQ_I, ((-1, 1, 1, -1),))
    lam = poisson_data(
        ctx, [("z1", "zb1", GaussianRational(0, 2)), ("z2", "zb2", GaussianRational(0, 2))]
    )
    v = lambda n: Poly.variable(ctx, n)
    J = (v("z1") * v("zb1") - v("z2") * v("zb2")).scale(Fraction(1, 2))
    lie = LieAlgebraData.build(1)
    moment = MomentMapData(ctx, (J,), lie)
    space = KoszulSpace(moment, 6)
    kc = koszul_contraction(space)
    phi = brst_transfer(kc, build_delta(moment, poisson_action(lam)))[0].i
    f = space.normal_form_poly(v("z1") * v("zb1"))
    g = space.normal_form_poly(v("z1") * v("z2"))
    for p in (f, g):
        certify_invariant(p, moment, lam, space)
    out = reduced_poisson(f, g, phi, kc.p, lam, 1)
    # independent Dirac route: restrict the bracket of any representatives
    direct = space.normal_form_poly(poisson_bracket(f, g, lam))
    assert out == direct
    # antisymmetry and the trivial bracket with itself
    assert reduced_poisson(g, f, phi, kc.p, lam, 1) == -out
    assert reduced_poisson(f, f, phi, kc.p, lam, 1).is_zero()
    # non-invariant input is refused
    with pytest.raises(InvarianceError):
        certify_invariant(v("z1"), moment, lam, space)


@pytest.mark.parametrize("name", ["s1-c4", "t2-c4"])
def test_weights_mode_generators_pass_the_bracket_criterion(name):
    # at registry size: every weight-zero candidate's normal form has its
    # brackets with J in the ideal, and the first variable squared, of
    # nonzero torus weight, does not
    state = RunState(get_scenario(name))
    stage_load(state)
    space = KoszulSpace(state.moment, state.bound)
    cfg = state.config
    gens = invariant_generators(state.ctx, cfg.torus_rows, GENERATOR_CAP)
    assert len(gens) > 1
    for g in gens:
        assert certify_invariant(space.normal_form_poly(g), state.moment, state.lam, space)
    z = Poly.variable(state.ctx, state.ctx.names[0])
    assert any(state.ctx.torus_weights(next(iter((z * z).terms)), cfg.torus_rows))
    with pytest.raises(InvarianceError):
        certify_invariant(z * z, state.moment, state.lam, space)
