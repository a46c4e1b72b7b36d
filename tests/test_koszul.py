import random
from dataclasses import replace
from fractions import Fraction
from itertools import zip_longest

import pytest

from redstar.errors import AcyclicityError, DegreeOverflowError
from redstar.hpt import check_contraction
from redstar.koszul import (
    Contraction,
    KoszulContraction,
    MomentMapData,
    build_koszul_contraction,
    check_acyclicity,
    enforce_side_conditions,
    koszul_diff,
)
from redstar.poly import Poly, VarContext, poly_ring
from redstar.probes import random_bounded_chain, random_bounded_super
from redstar.runner import RunState, stage_contraction, stage_load
from redstar.scalars import QQ_I
from redstar.scenarios import get_scenario
from redstar.series import Series
from redstar.superalg import LieAlgebraData, OperatorHandle, SuperElement

BOUND = 8


def toy_q():
    """Single constraint J = (q) in variables (q, p)."""
    ctx, (q, p) = poly_ring(("q", "p"))
    lie = LieAlgebraData.build(1)
    moment = MomentMapData(ctx, (q,), lie, "nonzerodivisor")
    return ctx, q, p, moment


def circle_c4():
    names = ("z1", "z2", "z3", "z4", "zb1", "zb2", "zb3", "zb4")
    ctx = VarContext(
        names, QQ_I, ((1, 1, -1, -1, -1, -1, 1, 1), (1, 1, 1, 1, -1, -1, -1, -1))
    )
    v = lambda n: Poly.variable(ctx, n)
    J = (v("z3") * v("zb3") + v("z4") * v("zb4") - v("z1") * v("zb1") - v("z2") * v("zb2")).scale(
        Fraction(1, 2)
    )
    lie = LieAlgebraData.build(1, torus_rows=(0,))
    return ctx, J, MomentMapData(ctx, (J,), lie, "torus")


def el(ctx, dim, terms, order=0):
    return SuperElement(ctx, dim, order, terms)


def test_diff_on_generator():
    ctx, q, p, moment = toy_q()
    e1 = SuperElement.generator(ctx, 1, 0, antighosts=(1,))
    assert koszul_diff(e1, moment) == SuperElement.from_poly(q, 1, 0)


def test_diff_derivation_sign():
    # two constraints: d(f e_1 e_2) = f (J_1 e_2 - J_2 e_1)
    ctx, (q, p) = poly_ring(("q", "p"))
    lie = LieAlgebraData.build(2)
    moment = MomentMapData(ctx, (q, p), lie, "")
    f = q + p
    x = el(ctx, 2, {((), (1, 2)): Series.from_poly(f, 0)})
    out = koszul_diff(x, moment)
    expect = el(
        ctx,
        2,
        {((), (2,)): Series.from_poly(f * q, 0), ((), (1,)): Series.from_poly(-(f * p), 0)},
    )
    assert out == expect


def test_diff_squares_to_zero():
    ctx, (q, p) = poly_ring(("q", "p"))
    lie = LieAlgebraData.build(2)
    moment = MomentMapData(ctx, (q, p * p), lie, "")
    rng = random.Random(3)
    for _ in range(20):
        x = random_bounded_super(ctx, 2, 0, rng, 6, (1, 2), terms=3)
        assert koszul_diff(koszul_diff(x, moment), moment).is_zero()


def test_res_prol_single_variable_ideal():
    ctx, q, p, moment = toy_q()
    c = build_koszul_contraction(moment, BOUND)
    qp3 = SuperElement.from_poly(q * p ** 3, 1, 0)
    p3 = SuperElement.from_poly(p ** 3, 1, 0)
    one = SuperElement.from_poly(Poly.const(ctx, 1), 1, 0)
    assert c.p(qp3).is_zero()
    assert c.i(p3) == p3
    assert c.p(one) == one and c.i(one) == one


def test_res_normal_form_circle():
    # frozen one-step reduction: the ideal slice in degree two is spanned by
    # z1 zb1 + z2 zb2 - z3 zb3 - z4 zb4 (leading monomial z1 zb1), so
    # nf(z1 zb1) = -z2 zb2 + z3 zb3 + z4 zb4
    ctx, J, moment = circle_c4()
    c = build_koszul_contraction(moment, 6)
    v = lambda n: Poly.variable(ctx, n)
    got = c.p(SuperElement.from_poly(v("z1") * v("zb1"), 1, 0))
    expect = SuperElement.from_poly(
        -(v("z2") * v("zb2")) + v("z3") * v("zb3") + v("z4") * v("zb4"), 1, 0
    )
    assert got == expect
    assert c.p(SuperElement.from_poly(J, 1, 0)).is_zero()


def test_res_is_algebra_map_on_quotient():
    # the normal form realizes the quotient ring: nf(fg) = nf(nf(f) nf(g))
    from redstar.koszul import KoszulSpace

    ctx, J, moment = circle_c4()
    space = KoszulSpace(moment, 6)
    rng = random.Random(15)
    for _ in range(15):
        f = random_poly_deg(ctx, rng, 3)
        g = random_poly_deg(ctx, rng, 3)
        lhs = space.normal_form_poly(f * g)
        rhs = space.normal_form_poly(
            space.normal_form_poly(f) * space.normal_form_poly(g)
        )
        assert lhs == rhs


def random_poly_deg(ctx, rng, deg):
    from redstar.probes import random_poly

    return random_poly(ctx, rng, deg, terms=3)


def test_homotopy_hand_values():
    ctx, q, p, moment = toy_q()
    c = build_koszul_contraction(moment, BOUND)
    qp3 = SuperElement.from_poly(q * p ** 3, 1, 0)
    p3 = SuperElement.from_poly(p ** 3, 1, 0)
    h_qp3 = c.h(qp3)
    assert h_qp3 == el(ctx, 1, {((), (1,)): Series.from_poly(p ** 3, 0)})
    assert c.h(p3).is_zero()


def test_homotopy_identity_random():
    ctx, J, moment = circle_c4()
    c = build_koszul_contraction(moment, 6)
    rng = random.Random(11)
    for _ in range(20):
        f = SuperElement.from_poly(
            sum(
                (Poly.monomial(ctx, m, ctx.field.random(rng)) for m in
                 [ctx.monomials_of_degree(rng.randint(0, 6))[0]]),
                Poly.zero(ctx),
            ),
            1,
            0,
        )
        lhs = koszul_diff(c.h(f), moment) + c.h(koszul_diff(f, moment))
        rhs = f - c.i(c.p(f))
        assert (lhs - rhs).is_zero()


def test_contraction_axioms_and_side_conditions():
    ctx, q, p, moment = toy_q()
    c = build_koszul_contraction(moment, BOUND)
    rng = random.Random(4)
    probes_Y = [random_bounded_super(ctx, 1, 0, rng, BOUND, (1,), terms=3) for _ in range(25)]
    probes_X = [c.p(y) for y in probes_Y]
    results = check_contraction(c, probes_X, probes_Y)
    assert results and all(ok for _, ok, _ in results)


def test_enforce_is_identity_when_conditions_hold():
    ctx, q, p, moment = toy_q()
    base = build_koszul_contraction(moment, BOUND)
    fixed = enforce_side_conditions(base)
    rng = random.Random(5)
    for _ in range(10):
        y = random_bounded_super(ctx, 1, 0, rng, BOUND, (1,), terms=3)
        assert (fixed.h(y) - base.h(y)).is_zero()


def two_constraints():
    """J = (q, p) in variables (q, p): a complete intersection with K_2 != 0."""
    ctx, (q, p) = poly_ring(("q", "p"))
    moment = MomentMapData(ctx, (q, p), LieAlgebraData.build(2), "regular sequence")
    return ctx, moment


def violating_contraction(base):
    """The homotopy h + d n p with n(x) = x e_1 e_2.

    It is still a contraction homotopy: d n p anticommutes with d because
    p d = 0, and p h = 0 still holds.  But h i = d n and h h = n p, so
    those two side conditions fail wherever p is nonzero.
    """

    def n(x):
        return SuperElement(
            x.ctx, x.dim, x.order,
            {(g, (1, 2)): c for (g, a), c in x.terms.items() if a == ()},
        )

    def bad_h(x):
        return base.h(x) + base.d_Y(n(base.p(x)))

    return Contraction(
        p=base.p,
        i=base.i,
        h=OperatorHandle("h_bad", bad_h, +1),
        d_X=base.d_X,
        d_Y=base.d_Y,
        meta=dict(base.meta),
    )


def two_constraint_probes(ctx, bound):
    rng = random.Random(6)
    one = SuperElement.from_poly(Poly.const(ctx, 3), 2, 0)
    probes_Y = [one] + [
        random_bounded_chain(ctx, 2, 0, rng, bound, (1, 1), i % 3, terms=2) for i in range(6)
    ]
    return [one] * len(probes_Y), probes_Y


def test_enforce_repairs_violating_homotopy():
    # h + d n p is another contraction homotopy but breaks the side
    # conditions; the normalization restores them
    ctx, moment = two_constraints()
    cand = violating_contraction(build_koszul_contraction(moment, 4))
    probes_X, probes_Y = two_constraint_probes(ctx, 4)
    # still a contraction: the four axioms other than the side conditions hold
    side = ("h h=0", "h i=0", "p h=0")
    results = check_contraction(cand, probes_X, probes_Y)
    assert all(ok for label, ok, _ in results if label not in side)
    # but sc2 fails
    assert any(not cand.h(cand.i(x)).is_zero() for x in probes_X)
    fixed = enforce_side_conditions(cand)
    assert all(ok for _, ok, _ in check_contraction(fixed, probes_X, probes_Y))
    for x, y in zip(probes_X, probes_Y):
        assert fixed.h(fixed.i(x)).is_zero()
        assert fixed.p(fixed.h(y)).is_zero()
        assert fixed.h(fixed.h(y)).is_zero()


def test_side_condition_checks_can_fail():
    # the runner's contraction.h h=0 / h i=0 / p h=0 records evaluate the
    # homotopy they are handed: a violating one must show nonzero residuals
    ctx, moment = two_constraints()
    cand = violating_contraction(build_koszul_contraction(moment, 4))
    probes_X, probes_Y = two_constraint_probes(ctx, 4)
    side = ("h h=0", "h i=0", "p h=0")
    failed = set()
    for x, y in zip(probes_X, probes_Y):
        for label, residual in cand.axiom_residuals(x, y).items():
            if label in side:
                if not residual.is_zero():
                    failed.add(label)
            else:
                assert residual.is_zero(), label
    assert failed == {"h h=0", "h i=0"}


def _basis_elements(c, ctx, dim, bound):
    """Ghost-free, nu-order-0 elements of every Y and X slice basis."""
    space = c.meta["space"]
    grades = sorted({g for deg in range(bound + 1) for g in ctx.grades_of_degree(deg)})
    ys = [
        SuperElement(ctx, dim, 0, {((), aset): Series.from_poly(Poly.monomial(ctx, m), 0)})
        for i in range(dim + 1)
        for grade in grades
        for aset, m in space.slice_basis(i, grade)
    ]
    xs = [
        SuperElement.from_poly(Poly.monomial(ctx, m), dim, 0)
        for grade in grades
        for m in space.complement_monomials(grade)
    ]
    return xs, ys


@pytest.mark.parametrize("name,bound", [("commuting-n2", 6), ("s1-c4", 4)])
def test_side_conditions_on_slice_bases(name, bound):
    # certificate, not a sample: all seven axioms of the canonical Koszul
    # contraction on every slice-basis element up to the degree bound
    state = RunState(replace(get_scenario(name), degree_bound=bound))
    stage_load(state)
    ctx, dim = state.ctx, state.moment.lie.dim
    c = build_koszul_contraction(state.moment, bound)
    xs, ys = _basis_elements(c, ctx, dim, bound)
    assert xs and len(ys) > len(xs)
    zero = SuperElement.zero(ctx, dim, 0)
    seen = set()
    for x, y in zip_longest(xs, ys, fillvalue=zero):
        for label, residual in c.axiom_residuals(x, y).items():
            assert residual.is_zero(), (label, x, y)
            seen.add(label)
    assert len(seen) == 7


def test_pipeline_homotopy_is_one_canonical_solve(monkeypatch):
    # one kc.h on the contraction the runner builds is one h_fn call: a
    # wrapper such as h'' = h' d h' would cost about ten
    calls = []
    h_fn = KoszulContraction.h_fn

    def counted(self, x):
        calls.append(x)
        return h_fn(self, x)

    monkeypatch.setattr(KoszulContraction, "h_fn", counted)
    state = RunState(replace(get_scenario("s1-c4"), degree_bound=4))
    stage_load(state)
    records = stage_contraction(state)
    assert all(r.status == "pass" for r in records)
    j = state.moment.components[0]
    y = SuperElement.from_poly(j * Poly.variable(state.ctx, "z1"), 1, 0)
    calls.clear()
    hy = state.kc.h(y)
    assert len(calls) == 1 and not hy.is_zero()


def test_acyclicity_positive_and_negative():
    ctx, q, p, moment = toy_q()
    rep = check_acyclicity(moment, 8)
    assert rep.acyclic
    assert all(v == 0 for v in rep.dims.values())
    # H_0 of the single-variable ideal: one standard monomial per degree
    assert all(v == 1 for v in rep.h0_dims.values())

    lie2 = LieAlgebraData.build(2)
    bad = MomentMapData(ctx, (q, q), lie2, "negative control")
    rep2 = check_acyclicity(bad, 6)
    assert not rep2.acyclic
    # frozen oracle: dim H_1 = 1 in each coefficient degree (e_1 - e_2 times
    # the standard monomials of the quotient by (q))
    ones = [v for (i, g), v in rep2.dims.items() if i == 1 and v]
    assert ones and all(v == 1 for v in ones)
    assert rep2.total(2) == 0
    assert rep2.witness is not None
    diff = {a: str(p) for a, p in rep2.witness.items()}
    assert set(diff) == {(1,), (2,)}


def test_acyclicity_circle_degree6():
    ctx, J, moment = circle_c4()
    rep = check_acyclicity(moment, 6)
    assert rep.acyclic


def test_homotopy_solve_failure_raises():
    ctx, (q, p) = poly_ring(("q", "p"))
    lie2 = LieAlgebraData.build(2)
    bad = MomentMapData(ctx, (q, q), lie2, "negative control")
    c = build_koszul_contraction(bad, 6)
    cycle = el(
        ctx,
        2,
        {((), (1,)): Series.from_poly(Poly.const(ctx, 1), 0),
         ((), (2,)): Series.from_poly(Poly.const(ctx, -1), 0)},
    )
    with pytest.raises(AcyclicityError):
        c.h(cycle)


def test_degree_overflow_loud():
    ctx, q, p, moment = toy_q()
    c = build_koszul_contraction(moment, 4)
    with pytest.raises(DegreeOverflowError):
        c.h(SuperElement.from_poly(q * p ** 5, 1, 0))


def test_equivariance_weight_preservation():
    ctx, J, moment = circle_c4()
    c = build_koszul_contraction(moment, 6)
    rng = random.Random(12)
    for _ in range(15):
        y = random_bounded_super(ctx, 1, 0, rng, 6, (2,), terms=1)
        weights_in = {
            ctx.grade_of_mono(m)[1]
            for coeff in y.terms.values()
            for pol in coeff.coeffs
            for m in pol.terms
        }
        hy = c.h(y)
        for coeff in hy.terms.values():
            for pol in coeff.coeffs:
                for m in pol.terms:
                    assert ctx.grade_of_mono(m)[1] in weights_in


def test_slice_composition_matches_operator_composition():
    # the matrix of d_1 after the matrix of d_2 is the matrix of d_1 d_2 = 0
    from redstar.koszul import KoszulSpace
    from redstar.linalg import mat_mul

    ctx, (q, p) = poly_ring(("q", "p"))
    lie = LieAlgebraData.build(2)
    moment = MomentMapData(ctx, (q, p * p), lie, "")
    space = KoszulSpace(moment, 6)
    for grade in [(3,), (4,), (5,)]:
        rows2 = space.diff_rows(2, grade)
        rows1 = space.diff_rows(1, grade)
        if not rows2 or not rows1:
            continue
        prod = mat_mul(rows1, rows2, ctx.field)
        assert all(all(x == 0 for x in row) for row in prod)


def test_operator_linearity_and_degree_shift():
    ctx, J, moment = circle_c4()
    c = build_koszul_contraction(moment, 6)
    rng = random.Random(14)
    for _ in range(6):
        x = random_bounded_super(ctx, 1, 0, rng, 6, (2,), terms=2)
        y = random_bounded_super(ctx, 1, 0, rng, 6, (2,), terms=2)
        for op in (c.h, c.p, c.d_Y):
            assert (op(x + y) - op(x) - op(y)).is_zero()
            assert (op(x.scale(3)) - op(x).scale(3)).is_zero()
    # degree shifts on homogeneous inputs
    from redstar.superalg import term_degree

    e1 = SuperElement.generator(ctx, 1, 0, antighosts=(1,))
    assert c.d_Y.degree == -1
    out = koszul_diff(e1, moment)
    assert all(term_degree(k) == term_degree(((), (1,))) + 1 for k in out.terms)
    hx = c.h(SuperElement.from_poly(J, 1, 0))
    assert c.h.degree == +1
    assert all(term_degree(k) == -1 for k in hx.terms)


def test_determinism_rebuild():
    ctx, J, moment = circle_c4()
    c1 = build_koszul_contraction(moment, 6)
    c2 = build_koszul_contraction(moment, 6)
    rng = random.Random(13)
    for _ in range(10):
        y = random_bounded_super(ctx, 1, 0, rng, 6, (2,), terms=2)
        assert c1.h(y) == c2.h(y)
        assert c1.p(y) == c2.p(y)
