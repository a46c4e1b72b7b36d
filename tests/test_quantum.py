import random
from fractions import Fraction

import pytest

from redstar.brst import (
    build_delta,
    classical_brst_diff,
    classical_charge,
    classical_operators,
    poisson_action,
    splitting_residuals,
)
from redstar.errors import DivisibilityError, ReliabilityError
from redstar.koszul import MomentMapData, koszul_operator
from redstar.poisson import moyal_star_series, poisson_bracket, poisson_data
from redstar.poly import Poly, VarContext
from redstar.probes import random_bounded_super, random_poly
from redstar.quantum import (
    build_quantum_operators,
    build_quantum_koszul,
    check_quantum_splitting,
    koszul_difference,
    q_pieces,
    quantum_brst_diff,
    quantum_charge,
    r_pieces,
    star_action,
    u_pieces,
)
from redstar.runner import RunState, stage_load
from redstar.scenarios import get_scenario
from redstar.series import Series
from redstar.superalg import LieAlgebraData, StarProduct, SuperElement, op_sum

N = 5  # working order: asserts run at N - 2 where divisions occur


def abelian_two():
    ctx = VarContext(("x1", "y1", "x2", "y2"))
    lam = poisson_data(ctx, [("x1", "y1", 1), ("x2", "y2", 1)])
    v = lambda n: Poly.variable(ctx, n)
    comps = (v("x1") * v("y1"), v("x2") * v("y2"))
    lie = LieAlgebraData.build(2)
    moment = MomentMapData(ctx, comps, lie)
    star = StarProduct(lam)
    return ctx, lam, moment, star


def so3():
    from test_brst import so3_commuting

    ctx, lam, moment = so3_commuting()
    return ctx, lam, moment, StarProduct(lam)


def test_abelian_charge_no_corrections():
    ctx, lam, moment, star = abelian_two()
    theta = quantum_charge(moment, N)
    classical = classical_charge(moment, N)
    assert theta == classical


def test_so3_charge_unimodular_term_vanishes():
    ctx, lam, moment, star = so3()
    theta = quantum_charge(moment, N)
    assert theta == classical_charge(moment, N)  # trace of structure constants is zero
    cubic = [k for k in theta.terms if len(k[0]) == 2]
    assert cubic


def test_so3_charge_nilpotent():
    ctx, lam, moment, star = so3()
    theta = quantum_charge(moment, N)
    assert star.star(theta, theta).is_zero()


def test_wrong_sign_breaks_nilpotency():
    # the runner's quantum-brst.charge check fails on this (broken-sign-star)
    ctx, lam, moment, star = so3()
    bad = StarProduct(lam, Fraction(2))
    theta = quantum_charge(moment, N)
    assert not bad.star(theta, theta).is_zero()


def test_R_on_generator():
    ctx, lam, moment, star = abelian_two()
    R = op_sum("R", +1, r_pieces(moment, star))
    e1 = SuperElement(ctx, 2, N, {((), (1,)): Series.const(ctx, 1, N)})
    assert R(e1) == SuperElement.from_poly(moment.components[0], 2, N)


def test_a_fractional_weight_on_R_scales_its_image():
    # R's pieces at weight 1/2 write through `star_right_multiply` at that field weight
    ctx, lam, moment, star = so3()
    half = op_sum("R/2", +1, [p._replace(scalar=Fraction(1, 2)) for p in r_pieces(moment, star)])
    rng = random.Random(3)
    for _ in range(4):
        x = random_bounded_super(ctx, 3, N, rng, 3, (0, 0, 0))
        assert half(x) == op_sum("R", +1, r_pieces(moment, star))(x).scale(Fraction(1, 2))


def test_q_u_vanish_abelian():
    ctx, lam, moment, star = abelian_two()
    qop, uop = op_sum("q", +1, q_pieces(moment)), op_sum("u", +1, u_pieces(moment))
    rng = random.Random(1)
    for _ in range(6):
        x = random_bounded_super(ctx, 2, N, rng, 5, (2, 2), terms=2)
        assert qop(x).is_zero() and uop(x).is_zero()


def test_u_vanishes_so3():
    ctx, lam, moment, star = so3()
    uop = op_sum("u", +1, u_pieces(moment))
    e1 = SuperElement(ctx, 3, N, {((1,), ()): Series.const(ctx, 1, N)})
    x = SuperElement(ctx, 3, N, {((), (1,)): Series.const(ctx, 1, N)})
    assert uop(e1).is_zero() and uop(x).is_zero()


def test_quantum_koszul_abelian_is_right_multiplication():
    ctx, lam, moment, star = abelian_two()
    ops = build_quantum_operators(moment, star, quantum_charge(moment, N))
    rng = random.Random(2)
    for _ in range(8):
        x = random_bounded_super(ctx, 2, N, rng, 5, (2, 2), terms=2)
        expect = SuperElement.zero(ctx, 2, N)
        for a in (1, 2):
            jser = Series.from_poly(moment.components[a - 1], N)
            for (ghosts, antighosts), c in x.terms.items():
                if a in antighosts:  # i^a: the sign of moving e_a to the front
                    pos = len(ghosts) + antighosts.index(a)
                    key = (ghosts, tuple(b for b in antighosts if b != a))
                    term = moyal_star_series(c, jser, lam).scale((-1) ** pos)
                    expect = expect + SuperElement(ctx, 2, N, {key: term})
        assert ops.koszul(x) == expect


def test_quantum_koszul_classical_limit():
    ctx, lam, moment, star = so3()
    ops = build_quantum_operators(moment, star, quantum_charge(moment, N))
    rng = random.Random(3)
    for _ in range(6):
        x = random_bounded_super(ctx, 3, N, rng, 5, (2, 2, 2), terms=2)
        assert (
            ops.koszul(x).classical_part() - koszul_operator(moment)(x.classical_part())
        ).is_zero()


def test_quantum_koszul_squares_to_zero():
    ctx, lam, moment, star = so3()
    ops = build_quantum_operators(moment, star, quantum_charge(moment, N))
    rng = random.Random(4)
    for _ in range(6):
        x = random_bounded_super(ctx, 3, N, rng, 5, (2, 2, 2), terms=2)
        assert ops.koszul(ops.koszul(x)).is_zero()


def test_delta_nu_equals_delta_under_strong_invariance():
    ctx, lam, moment, star = so3()
    ops = build_quantum_operators(moment, star, quantum_charge(moment, N))
    delta = build_delta(moment, poisson_action(lam))
    rng = random.Random(5)
    one = SuperElement.from_poly(Poly.const(ctx, 1), 3, N)
    assert ops.delta(one).is_zero()
    for _ in range(6):
        x = random_bounded_super(ctx, 3, N, rng, 4, (2, 2, 2), terms=2)
        lhs = ops.delta(x)
        # classical delta applied slotwise
        rhs_terms = {}
        for k in range(N + 1):
            slot = delta(x.truncate(0) if k == 0 else _slot(x, k))
            for key, coeff in slot.terms.items():
                cur = rhs_terms.setdefault(key, [Poly.zero(ctx)] * (N + 1))
                cur[k] = cur[k] + coeff.coeffs[0]
        rhs = SuperElement(
            ctx, 3, N, {key: Series(ctx, N, coeffs) for key, coeffs in rhs_terms.items()}
        )
        assert (lhs - rhs).is_zero(upto=N - 1)


def _slot(x, k):
    out = {}
    for key, coeff in x.terms.items():
        p = coeff.coeffs[k]
        if not p.is_zero():
            out[key] = Series.from_poly(p, 0)
    return SuperElement(x.ctx, x.dim, 0, out)


def test_brst_diff_ghost_free_strong_invariance():
    ctx, lam, moment, star = abelian_two()
    ops = build_quantum_operators(moment, star, quantum_charge(moment, N))
    rng = random.Random(6)
    for _ in range(6):
        f = random_poly(ctx, rng, 3, 3)
        fx = SuperElement.from_poly(f, 2, N)
        got = ops.D(fx)
        expect = SuperElement(
            ctx, 2, N,
            {
                ((a + 1,), ()): Series.from_poly(
                    poisson_bracket(moment.components[a], f, lam), N
                )
                for a in (0, 1)
                if not poisson_bracket(moment.components[a], f, lam).is_zero()
            },
        )
        assert (got - expect).is_zero(upto=N - 1)


def test_quantum_splitting_all_zero():
    for setup in (abelian_two, so3):
        ctx, lam, moment, star = setup()
        ops = build_quantum_operators(moment, star, quantum_charge(moment, N))
        assert (ops.D.name, ops.delta.name, ops.koszul.name) == ("D_nu", "delta_nu", "koszul_nu")
        rng = random.Random(7)
        jdegs = tuple(j.degree() for j in moment.components)
        probes = [
            random_bounded_super(ctx, moment.lie.dim, N, rng, 5, jdegs, terms=2)
            for _ in range(10)
        ]
        resid = check_quantum_splitting(ops, probes)
        assert all(r.is_zero(upto=N - 2) for _, r in resid)


def test_divisibility_error_surfaces():
    # the graded commutator is always divisible (the undeformed product is
    # graded commutative); a direct division of a nonvanishing element is the
    # way the error surfaces, signalling a broken identity upstream
    ctx, lam, moment, star = abelian_two()
    x = SuperElement.from_poly(Poly.variable(ctx, "x1"), 2, N)
    with pytest.raises(DivisibilityError):
        x.div_nu()


def test_nu_divisibility_of_charge_commutator():
    ctx, lam, moment, star = so3()
    theta = quantum_charge(moment, N)
    rng = random.Random(9)
    for _ in range(8):
        x = random_bounded_super(ctx, 3, N, rng, 4, (2, 2, 2), terms=2)
        comm = star.commutator(theta, x)
        assert comm.classical_part().is_zero()
        comm.div_nu()  # must not raise


def ax_plus_b():
    # the non-unimodular ax+b algebra: [e_1, e_2] = e_2, so tr(ad e_1) = 1;
    # J = (q1 p1, p1) is equivariant: {q1 p1, p1} = p1
    ctx = VarContext(("q1", "p1", "q2", "p2"))
    lam = poisson_data(ctx, [("q1", "p1", 1), ("q2", "p2", 1)])
    v = lambda n: Poly.variable(ctx, n)
    lie = LieAlgebraData.build(2, [(1, 2, 2, 1)])
    moment = MomentMapData(ctx, (v("q1") * v("p1"), v("p1")), lie)
    return ctx, lam, moment, StarProduct(lam)


def test_non_unimodular_charge_and_splittings():
    # the unimodular correction nu tr(ad e_a)/2 e^a of the charge and u/2 of
    # koszul_nu evaluated with a nonzero trace
    ctx, lam, moment, star = ax_plus_b()
    assert moment.lie.traces == (1, 0) and not moment.lie.unimodular
    assert all(r.is_zero() for _, r in moment.check_equivariance(lam))
    theta = quantum_charge(moment, N)
    assert theta != classical_charge(moment, N)
    assert star.star(theta, theta).is_zero(upto=N)
    rng = random.Random(11)
    probes = [random_bounded_super(ctx, 2, N, rng, 3, (0, 0)) for _ in range(8)]
    ops = build_quantum_operators(moment, star, theta)
    for label, r in check_quantum_splitting(ops, probes):
        assert r.is_zero(upto=N - 2), label
    ops0 = classical_operators(moment, lam, classical_charge(moment, 0))
    probes0 = [x.classical_part() for x in probes]
    for label, r in splitting_residuals(ops0, probes0):
        assert r.is_zero(), label


# -- the floor rule of the operators that sum over contractions -------------------


def _floor_cases():
    """(name, operator, moment) for every operator built with `superalg.op_sum`."""
    ctx, lam, moment, star = so3()
    _, _, moment_u, _ = ax_plus_b()
    return [
        ("koszul", koszul_operator(moment), moment),
        ("R", op_sum("R", +1, r_pieces(moment, star)), moment),
        ("q", op_sum("q", +1, q_pieces(moment)), moment),
        ("u", op_sum("u", +1, u_pieces(moment_u)), moment_u),
        ("delta", build_delta(moment, poisson_action(lam)), moment),
        ("delta_nu", build_delta(moment, star_action(star), "delta_nu"), moment),
        ("koszul_nu", build_quantum_koszul(moment, star), moment),
        ("t", koszul_difference(moment, star), moment),
        ("D", classical_brst_diff(classical_charge(moment, N), lam), moment),
        ("D_nu", quantum_brst_diff(quantum_charge(moment, N), star), moment),
    ]


OP_SUMS = ["koszul", "R", "q", "u", "delta", "delta_nu", "koszul_nu", "t", "D", "D_nu"]


@pytest.mark.parametrize("name", OP_SUMS)
def test_a_vanished_term_keeps_its_floor_through_each_operator(name):
    # 1 + b - b, where b (antighosts e_1 e_2) is reliable only to 2: every
    # piece that reads b finds nothing, and the image of 1 is zero, so the
    # image has no terms and must stay reliable only to 2 (1 after the
    # division by nu in delta_nu and D_nu)
    _, op, moment = next(case for case in _floor_cases() if case[0] == name)
    ctx, dim = moment.ctx, moment.lie.dim
    coeff = Series(ctx, N, [Poly.variable(ctx, ctx.names[0])] + [Poly.zero(ctx)] * N, 2)
    b = SuperElement(ctx, dim, N, {((), (1, 2)): coeff})
    x = SuperElement.from_poly(Poly.const(ctx, 1), dim, N) + b - b
    assert x.floor == 2 and list(x.terms) == [((), ())]
    out = op(x)
    floor = 1 if name in ("delta_nu", "D_nu") else 2
    assert not out.terms and out.floor == floor and out.reliable == floor
    with pytest.raises(ReliabilityError):
        out.is_zero(floor + 1)


@pytest.mark.parametrize("name", OP_SUMS)
def test_an_exactly_zero_input_stays_exactly_zero(name):
    _, op, moment = next(case for case in _floor_cases() if case[0] == name)
    out = op(SuperElement.zero(moment.ctx, moment.lie.dim, N))
    assert not out.terms and out.floor is None and out.reliable == N


def test_delta_nu_of_an_invariant_is_reliable_one_order_below_the_work_order():
    # on s1-c4, {J, z1 zb1} = 0: the (1/nu) star commutator vanishes, but
    # only to the order the division by nu leaves
    state = RunState(get_scenario("s1-c4"))
    stage_load(state)
    v = lambda n: Poly.variable(state.ctx, n)
    x = SuperElement.from_poly(v("z1") * v("zb1"), state.moment.lie.dim, state.work_order)
    out = build_delta(state.moment, star_action(state.star), "delta_nu")(x)
    assert not out.terms and out.reliable <= state.work_order - 1
    with pytest.raises(ReliabilityError):
        out.is_zero(state.work_order)
