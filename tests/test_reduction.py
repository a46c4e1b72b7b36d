import random
from dataclasses import replace
from fractions import Fraction

import pytest

from redstar import runner
from redstar.brst import build_delta, poisson_action, quotient_representation
from redstar.errors import ContextError, InvarianceError, TruncationError
from redstar.hpt import perturb_v2
from redstar.koszul import KoszulSpace, MomentMapData, koszul_contraction
from redstar.poisson import poisson_data
from redstar.poly import Poly, VarContext
from redstar.probes import random_bounded_super, random_poly
from redstar.quantum import star_action
from redstar.reduction import (
    ProductTable,
    ReductionPipeline,
    closed_form_res_nu,
    deformed_restriction,
    invariant_generators,
    quantum_reduction,
    reduced_star,
    weight_zero_monomials,
)
from redstar.scalars import QQ_I, GaussianRational
from redstar.series import Series
from redstar.superalg import (
    LieAlgebraData,
    OperatorHandle,
    StarProduct,
    SuperElement,
    op_columns,
)
from test_koszul import with_nu_content

N = 4  # asserted order
NW = N + runner.NU_HEADROOM  # working order, as the runner sets it


def circle_c2():
    """Small circle scenario on C^2: everything quantum-reducible."""
    ctx = VarContext(("z1", "z2", "zb1", "zb2"), QQ_I, ((-1, 1, 1, -1),))
    lam = poisson_data(
        ctx, [("z1", "zb1", GaussianRational(0, 2)), ("z2", "zb2", GaussianRational(0, 2))]
    )
    v = lambda n: Poly.variable(ctx, n)
    J = (v("z1") * v("zb1") - v("z2") * v("zb2")).scale(Fraction(1, 2))
    lie = LieAlgebraData.build(1)
    moment = MomentMapData(ctx, (J,), lie)
    space = KoszulSpace(moment, 6)
    star = StarProduct(lam)
    return ctx, lam, moment, koszul_contraction(space), star, space


def abelian_c4():
    """Rational scenario: two commuting quadratic constraints on C^4."""
    ctx = VarContext(("x1", "y1", "x2", "y2"))
    lam = poisson_data(ctx, [("x1", "y1", 1), ("x2", "y2", 1)])
    v = lambda n: Poly.variable(ctx, n)
    moment = MomentMapData(ctx, (v("x1") * v("y1"), v("x2") * v("y2")), LieAlgebraData.build(2))
    space = KoszulSpace(moment, 6)
    return ctx, lam, moment, koszul_contraction(space), StarProduct(lam), space


def build_pipe(ctx, lam, moment, kc, star, space):
    rng = random.Random(50)
    probes_Y = [random_bounded_super(ctx, 1, NW, rng, 6, (2,), terms=2) for _ in range(4)]
    probes_X = [kc.p(y) for y in probes_Y]
    dc, t = deformed_restriction(kc, moment, star, probes_X[:2], probes_Y[:2], upto=N)
    delta_nu = build_delta(moment, star_action(star), "delta_nu")
    qc, d_z_nu = quantum_reduction(dc, delta_nu, probes_X[:2], probes_Y[:2], upto=N)
    return ReductionPipeline(moment, lam, star, space, NW, dc, qc)


def test_deformed_restriction_properties():
    ctx, lam, moment, kc, star, space = circle_c2()
    rng = random.Random(51)
    probes_Y = [random_bounded_super(ctx, 1, NW, rng, 6, (2,), terms=2) for _ in range(10)]
    probes_X = [kc.p(y) for y in probes_Y]
    dc, t = deformed_restriction(kc, moment, star, probes_X[:3], probes_Y[:3], upto=N)
    for x, y in zip(probes_X, probes_Y):
        assert all(r.is_zero(N) for r in dc.axiom_residuals(x, y).values())
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
    ctx, lam, moment, kc, star, space = circle_c2()
    rng = random.Random(52)
    dc, t = deformed_restriction(kc, moment, star)
    repLz = quotient_representation(moment, poisson_action(lam), kc.p, kc.i)
    repLz_nu = quotient_representation(moment, star_action(star), dc.p, dc.i)
    for _ in range(10):
        f = space.normal_form_poly(random_poly(ctx, rng, 4, 3))
        fx = SuperElement.from_poly(f, 1, NW)
        assert (repLz_nu.ops[0](fx) - repLz.ops[0](fx)).is_zero(upto=N)


def test_quantum_reduction_contraction():
    ctx, lam, moment, kc, star, space = circle_c2()
    rng = random.Random(53)
    probes_Y = [random_bounded_super(ctx, 1, NW, rng, 6, (2,), terms=2) for _ in range(6)]
    probes_X = [kc.p(y) for y in probes_Y]
    dc, t = deformed_restriction(kc, moment, star, probes_X[:2], probes_Y[:2], upto=N)
    delta_nu = build_delta(moment, star_action(star), "delta_nu")
    qc, d_z_nu = quantum_reduction(dc, delta_nu, probes_X[:2], probes_Y[:2], upto=N)
    for x, y in zip(probes_X, probes_Y):
        assert all(r.is_zero(N) for r in qc.axiom_residuals(x, y).values())
    # equivariant scenario: the perturbed inclusion is the prolongation
    for x in probes_X:
        assert (qc.i(x) - dc.i(x)).is_zero(upto=N)
    # the contraction's quotient differential is d_z_nu
    for x in probes_X:
        assert qc.d_X(x) == d_z_nu(x)


def test_reduced_star_unit_and_classical_part():
    ctx, lam, moment, kc, star, space = circle_c2()
    pipe = build_pipe(ctx, lam, moment, kc, star, space)
    v = lambda n: Poly.variable(ctx, n)
    gens = [space.normal_form_poly(g) for g in
            (v("z1") * v("zb1"), v("z1") * v("z2"), v("zb1") * v("zb2"))]
    one = Poly.const(ctx, 1)
    for g in gens:
        pipe.certify(g)
        assert (reduced_star(one, g, pipe) - Series.from_poly(g, NW)).is_zero(upto=N)
        assert (reduced_star(g, one, pipe) - Series.from_poly(g, NW)).is_zero(upto=N)
    for a in gens:
        for b in gens:
            s = reduced_star(a, b, pipe)
            assert (s.classical() - space.normal_form_poly(a * b)).is_zero()


def test_reduced_star_associativity_sample():
    ctx, lam, moment, kc, star, space = circle_c2()
    pipe = build_pipe(ctx, lam, moment, kc, star, space)
    v = lambda n: Poly.variable(ctx, n)
    gens = [space.normal_form_poly(g) for g in
            (v("z1") * v("zb1"), v("z2") * v("zb2"), v("z1") * v("z2"))]
    for a in gens:
        for b in gens:
            ab = reduced_star(a, b, pipe)
            for c in gens:
                bc = reduced_star(b, c, pipe)
                lhs = reduced_star(ab, c, pipe)
                rhs = reduced_star(a, bc, pipe)
                assert (lhs - rhs).is_zero(upto=N)


def test_product_table_takes_the_lowest_reliable_entry():
    # a res_nu whose degree-4 columns are one order less reliable (reduced_star
    # reads res_nu's op_columns columns): the table's product is as reliable
    # as the least reliable entry it used, as the direct product is, and an
    # entry it did not use lowers nothing
    ctx, lam, moment, kc, star, space = circle_c2()
    pipe = build_pipe(ctx, lam, moment, kc, star, space)
    res_nu = pipe.res_nu

    def lowered(x):
        out = res_nu(x)
        if x.max_degree() < 4:
            return out
        terms = {k: Series(ctx, NW, c.coeffs, NW - 1) for k, c in out.terms.items()}
        return SuperElement(ctx, x.dim, NW, terms, _clean=True, floor=NW - 1)

    lowered_res_nu = op_columns(OperatorHandle("res_nu", lowered), name="res_nu")
    lowered_dc = replace(pipe.deformed_contraction, p=lowered_res_nu)
    pipe = replace(pipe, deformed_contraction=lowered_dc)
    v = lambda n: Poly.variable(ctx, n)
    g = space.normal_form_poly(v("z1") * v("zb1"))
    one = Poly.const(ctx, 1)
    product = ProductTable(pipe)
    nu_g = Series.from_poly(g, NW).shift_nu(1)
    for f, reliable in ((g + one, NW - 1), (one, NW), (nu_g, NW - 1)):
        got, want = product(f, g), reduced_star(f, g, pipe)
        assert got == want and got.reliable == want.reliable == reliable


def test_product_table_refuses_what_reduced_star_refuses():
    # one operand rule: a Series at another truncation order and a Poly of
    # another context raise the same error through the table as through
    # reduced_star, on either side
    ctx, lam, moment, kc, star, space = circle_c2()
    pipe = build_pipe(ctx, lam, moment, kc, star, space)
    g = space.normal_form_poly(Poly.variable(ctx, "z1") * Poly.variable(ctx, "zb1"))
    other = VarContext(("w1", "w2", "wb1", "wb2"), QQ_I, ctx.gradings)
    for bad, error in (
        (Series.from_poly(g, NW - 1), TruncationError),
        (Poly.variable(other, "w1") * Poly.variable(other, "wb1"), ContextError),
    ):
        for f, h in ((bad, g), (g, bad)):
            with pytest.raises(error) as direct:
                reduced_star(f, h, pipe)
            with pytest.raises(error) as tabled:
                ProductTable(pipe)(f, h)
            assert str(tabled.value) == str(direct.value)


def test_reduced_star_rejects_noninvariants():
    ctx, lam, moment, kc, star, space = circle_c2()
    pipe = build_pipe(ctx, lam, moment, kc, star, space)
    pipe.certify(Poly.const(ctx, 1))
    with pytest.raises(InvarianceError):
        pipe.certify(Poly.variable(ctx, "z1"))


def test_cohomology_star_requires_closed_inputs():
    ctx, lam, moment, kc, star, space = circle_c2()
    pipe = build_pipe(ctx, lam, moment, kc, star, space)
    # a ghost cochain with non-invariant coefficient is not closed: the
    # d_X residual that the runner checks before multiplying classes
    bad = SuperElement(
        ctx, 1, NW, {((), ()): Series.from_poly(Poly.variable(ctx, "z1"), NW)}
    )
    assert not pipe.quantum_contraction.d_X(bad).is_zero(N)


def test_reduced_star_output_is_invariant():
    # every coefficient of f*g is weight zero on the torus rows
    ctx, lam, moment, kc, star, space = circle_c2()
    pipe = build_pipe(ctx, lam, moment, kc, star, space)
    v = lambda n: Poly.variable(ctx, n)
    a = space.normal_form_poly(v("z1") * v("zb1"))
    b = space.normal_form_poly(v("z1") * v("z2"))
    pipe.certify(a)
    pipe.certify(b)
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


# -- res_nu evaluated per basis column ------------------------------------------


def _res_nu_routes(setup):
    """The cached res_nu of `deformed_restriction` and the direct operator it wraps."""
    ctx, lam, moment, kc, star, space = setup()
    dc, t = deformed_restriction(kc, moment, star)
    zero = OperatorHandle("0", lambda x: x.scale(0), -1, frozenset({"nu"}))
    return ctx, moment, dc.p, perturb_v2(kc, t, zero).p


def _mixed_elements(ctx, moment, rng, count):
    """Random elements with several ghost keys, nu content and repeated monomials."""
    dim = moment.lie.dim
    jdegs = tuple(j.degree() for j in moment.components)
    out = []
    while len(out) < count:
        y = with_nu_content(random_bounded_super(ctx, dim, NW, rng, 6, jdegs, terms=4), rng)
        z = random_bounded_super(ctx, dim, NW, rng, 6, jdegs, terms=3)
        x = y + z + y.shift_nu(1).scale(3)
        # res_nu keeps antighost-free terms; ask for two ghost keys among them
        if len({k[0] for k in x.terms if not k[1]}) >= 2:
            out.append(x)
    return out


def _reliables(x):
    return {k: c.reliable for k, c in x.terms.items()}


@pytest.mark.parametrize("setup", [circle_c2, abelian_c4], ids=["circle_c2", "abelian_c4"])
def test_res_nu_columns_equal_direct_route(setup):
    ctx, moment, cached, direct = _res_nu_routes(setup)
    rng = random.Random(61)
    elements = _mixed_elements(ctx, moment, rng, 6)
    assert any(any(not p.is_zero() for p in c.coeffs[2:]) for x in elements for c in x.terms.values())
    # a low order first, so that a column cached without its order would be short
    images = []
    for x in [x.truncate(2) for x in elements[:2]] + elements:
        got, want = cached(x), direct(x)
        assert got == want
        assert _reliables(got) == _reliables(want)
        images.append(got)
    assert all(len({k[0] for k in y.terms}) >= 2 for y in images[2:])
    assert any(any(not p.is_zero() for p in c.coeffs[2:]) for y in images for c in y.terms.values())


@pytest.mark.parametrize("setup", [circle_c2, abelian_c4], ids=["circle_c2", "abelian_c4"])
def test_res_nu_columns_reliable(setup):
    ctx, moment, cached, direct = _res_nu_routes(setup)
    rng = random.Random(62)
    for x in _mixed_elements(ctx, moment, rng, 4):
        # one shared reliable order below the truncation: equal on every term
        same = SuperElement(
            ctx, x.dim, NW,
            {k: Series(ctx, NW, c.coeffs, 3) for k, c in x.terms.items()},
            _clean=True,
        )
        got, want = cached(same), direct(same)
        assert got == want and _reliables(got) == _reliables(want)
        assert set(_reliables(got).values()) == {3}
        # mixed reliable orders: the cached route never claims more
        mixed = SuperElement(
            ctx, x.dim, NW,
            {k: Series(ctx, NW, c.coeffs, 2 + n % 4) for n, (k, c) in enumerate(x.terms.items())},
            _clean=True,
        )
        got, want = cached(mixed), direct(mixed)
        assert got == want
        assert all(got.terms[k].reliable <= r for k, r in _reliables(want).items())


def test_op_columns_evaluates_each_column_once():
    ctx, moment, cached, direct = _res_nu_routes(circle_c2)
    calls = []

    def counted(x):
        calls.append(x)
        return direct(x)

    op = op_columns(OperatorHandle("res_nu", counted, 0, frozenset({"nu"})))
    rng = random.Random(63)
    x1, x2 = _mixed_elements(ctx, moment, rng, 2)
    x2 = x2 + x1.shift_nu(2)  # shares monomials with x1
    columns = {
        (x.order, key, m)
        for x in (x1, x2)
        for key, c in x.terms.items()
        for p in c.coeffs
        for m in p.terms
    }
    assert op(x1) == direct(x1)
    assert op(x2) == direct(x2)
    assert len(calls) == len(columns)
    assert all(len(u.terms) == 1 for u in calls)
    op(x1)
    op(x2)
    assert len(calls) == len(columns)
