import random
from fractions import Fraction

import pytest

from redstar.brst import poisson_action, quotient_representation
from redstar.errors import ClosednessError, InvarianceError
from redstar.hpt import check_contraction
from redstar.koszul import MomentMapData, build_koszul_contraction
from redstar.poisson import poisson_data
from redstar.poly import Poly, VarContext
from redstar.probes import random_bounded_super, random_poly
from redstar.quantum import star_action
from redstar.reduction import (
    ReductionPipeline,
    closed_form_res_nu,
    deformed_restriction,
    invariant_generators,
    quantum_reduction,
    reduced_star,
    reduced_star_cohomology,
    weight_zero_monomials,
)
from redstar.scalars import QQ_I, GaussianRational
from redstar.series import Series
from redstar.superalg import LieAlgebraData, StarProduct, SuperElement

NW = 6  # working order
N = 4  # asserted order


def circle_c2():
    """Small circle scenario on C^2: everything quantum-reducible."""
    ctx = VarContext(("z1", "z2", "zb1", "zb2"), QQ_I, ((-1, 1, 1, -1),))
    lam = poisson_data(
        ctx, [("z1", "zb1", GaussianRational(0, 2)), ("z2", "zb2", GaussianRational(0, 2))]
    )
    v = lambda n: Poly.variable(ctx, n)
    J = (v("z1") * v("zb1") - v("z2") * v("zb2")).scale(Fraction(1, 2))
    lie = LieAlgebraData.build(1, torus_rows=(0,))
    moment = MomentMapData(ctx, (J,), lie, "")
    kc = build_koszul_contraction(moment, 6)
    star = StarProduct(lam, 1, NW)
    return ctx, lam, moment, kc, star


def build_pipe(ctx, lam, moment, kc, star):
    rng = random.Random(50)
    probes_Y = [random_bounded_super(ctx, 1, NW, rng, 6, (2,), terms=2) for _ in range(4)]
    probes_X = [kc.p(y) for y in probes_Y]
    dc, t = deformed_restriction(kc, moment, star, probes_X[:2], probes_Y[:2], upto=N)
    qc, d_z_nu = quantum_reduction(moment, star, dc, probes_X[:2], probes_Y[:2], upto=N)
    return ReductionPipeline(moment, lam, star, kc.meta["space"], NW, dc, qc, torus_rows=(0,))


def test_deformed_restriction_properties():
    ctx, lam, moment, kc, star = circle_c2()
    rng = random.Random(51)
    probes_Y = [random_bounded_super(ctx, 1, NW, rng, 6, (2,), terms=2) for _ in range(10)]
    probes_X = [kc.p(y) for y in probes_Y]
    dc, t = deformed_restriction(kc, moment, star, probes_X[:3], probes_Y[:3], upto=N)
    assert all(ok for _, ok, _ in check_contraction(dc, probes_X, probes_Y, upto=N))
    # classical limit
    for y in probes_Y:
        assert (dc.p(y).classical_part() - kc.p(y).classical_part()).is_zero()
    # constraints are exact, so they restrict to zero
    jx = SuperElement.from_poly(moment.components[0], 1, NW)
    assert dc.p(jx).is_zero(upto=N)
    # closed form on the antighost-free sector
    cf = closed_form_res_nu(kc, t, NW)
    for y in probes_Y:
        y0 = SuperElement(ctx, 1, NW, {k: c for k, c in y.terms.items() if not k[1]}, _clean=True)
        assert (dc.p(y0) - cf(y0)).is_zero(upto=N)


def test_quantized_representation_matches_classical():
    ctx, lam, moment, kc, star = circle_c2()
    rng = random.Random(52)
    dc, t = deformed_restriction(kc, moment, star)
    repLz = quotient_representation(moment, poisson_action(lam), kc.p, kc.i)
    repLz_nu = quotient_representation(moment, star_action(star), dc.p, dc.i)
    space = kc.meta["space"]
    for _ in range(10):
        f = space.normal_form_poly(random_poly(ctx, rng, 4, 3))
        fx = SuperElement.from_poly(f, 1, NW)
        assert (repLz_nu.ops[0](fx) - repLz.ops[0](fx)).is_zero(upto=N)


def test_quantum_reduction_contraction():
    ctx, lam, moment, kc, star = circle_c2()
    rng = random.Random(53)
    probes_Y = [random_bounded_super(ctx, 1, NW, rng, 6, (2,), terms=2) for _ in range(6)]
    probes_X = [kc.p(y) for y in probes_Y]
    dc, t = deformed_restriction(kc, moment, star, probes_X[:2], probes_Y[:2], upto=N)
    qc, d_z_nu = quantum_reduction(moment, star, dc, probes_X[:2], probes_Y[:2], upto=N)
    assert all(ok for _, ok, _ in check_contraction(qc, probes_X, probes_Y, upto=N))
    # equivariant scenario: the perturbed inclusion is the prolongation
    for x in probes_X:
        assert (qc.i(x) - dc.i(x)).is_zero(upto=N)
    # the contraction's quotient differential is d_z_nu
    for x in probes_X:
        assert qc.d_X(x) == d_z_nu(x)


def test_reduced_star_unit_and_classical_part():
    ctx, lam, moment, kc, star = circle_c2()
    pipe = build_pipe(ctx, lam, moment, kc, star)
    space = kc.meta["space"]
    v = lambda n: Poly.variable(ctx, n)
    gens = [space.normal_form_poly(g) for g in
            (v("z1") * v("zb1"), v("z1") * v("z2"), v("zb1") * v("zb2"))]
    one = Poly.const(ctx, 1)
    for g in gens:
        assert (reduced_star(one, g, pipe) - Series.from_poly(g, NW)).is_zero(upto=N)
        assert (reduced_star(g, one, pipe) - Series.from_poly(g, NW)).is_zero(upto=N)
    for a in gens:
        for b in gens:
            s = reduced_star(a, b, pipe)
            assert (s.classical() - space.normal_form_poly(a * b)).is_zero()


def test_reduced_star_associativity_sample():
    ctx, lam, moment, kc, star = circle_c2()
    pipe = build_pipe(ctx, lam, moment, kc, star)
    space = kc.meta["space"]
    v = lambda n: Poly.variable(ctx, n)
    gens = [space.normal_form_poly(g) for g in
            (v("z1") * v("zb1"), v("z2") * v("zb2"), v("z1") * v("z2"))]
    for a in gens:
        for b in gens:
            ab = reduced_star(a, b, pipe, certify=False)
            for c in gens:
                bc = reduced_star(b, c, pipe, certify=False)
                lhs = reduced_star(ab, c, pipe, certify=False)
                rhs = reduced_star(a, bc, pipe, certify=False)
                assert (lhs - rhs).is_zero(upto=N)


def test_reduced_star_rejects_noninvariants():
    ctx, lam, moment, kc, star = circle_c2()
    pipe = build_pipe(ctx, lam, moment, kc, star)
    with pytest.raises(InvarianceError):
        reduced_star(Poly.variable(ctx, "z1"), Poly.const(ctx, 1), pipe)


def test_cohomology_star_requires_closed_inputs():
    ctx, lam, moment, kc, star = circle_c2()
    pipe = build_pipe(ctx, lam, moment, kc, star)
    # a ghost cochain with non-invariant coefficient is not closed
    bad = SuperElement(
        ctx, 1, NW, {((), ()): Series.from_poly(Poly.variable(ctx, "z1"), NW)}
    )
    with pytest.raises(ClosednessError):
        reduced_star_cohomology(bad, bad, pipe, upto=N)


def test_reduced_star_output_is_invariant():
    # every coefficient of f*g is weight zero on the torus rows
    ctx, lam, moment, kc, star = circle_c2()
    pipe = build_pipe(ctx, lam, moment, kc, star)
    space = kc.meta["space"]
    v = lambda n: Poly.variable(ctx, n)
    a = space.normal_form_poly(v("z1") * v("zb1"))
    b = space.normal_form_poly(v("z1") * v("z2"))
    s = reduced_star(a, b, pipe)
    for coeff in s.coeffs:
        for m in coeff.terms:
            assert ctx.grade_of_mono(m)[1] == 0


def test_weight_zero_generators():
    ctx = VarContext(
        ("z1", "z2", "z3", "z4", "zb1", "zb2", "zb3", "zb4"),
        QQ_I,
        ((1, 1, -1, -1, -1, -1, 1, 1),),
    )
    gens = invariant_generators(ctx, (0,), 4)
    texts = {str(g) for g in gens}
    assert "1" in texts  # the constant is always included
    assert "z1*zb1" in texts
    assert "z1*z3" in texts
    assert "z1*z2" not in texts  # weight two
    assert len(gens) == 17  # 16 quadratics plus the unit
    # every weight-zero monomial of degree <= 4 is a product of generators
    all_wz = weight_zero_monomials(ctx, (0,), 4)
    assert len(all_wz) == 1 + 16 + 100
