"""The structure-constant operators against dense reference loops.

Each reference below indexes the dense tensor f[a][b][c], which `dense`
builds from the entries, over every index triple and builds each ghost
monomial as a product of generators, the direct transcription of the
defining formula.  The library reads the sparse
`LieAlgebraData.entries`, `traces` and `pairs` instead; both must give the
same terms with the same per-term `reliable` order.  The models are the
so(3) data of commuting-n3 (unimodular), an abelian two-constraint model
and the non-unimodular ax+b algebra, at orders 0, 2 and 4, on probes with
nonzero higher nu-slots and mixed reliable orders.
"""

import random
from fractions import Fraction

import pytest

from redstar.brst import RepresentationHandle, build_delta, classical_charge, poisson_action
from redstar.koszul import MomentMapData, koszul_operator
from redstar.poisson import (
    check_quantum_covariance,
    moyal_commutator,
    moyal_star_series,
    poisson_bracket,
    poisson_data,
)
from redstar.poly import Poly, VarContext
from redstar.probes import random_bounded_super, random_poly
from redstar.quantum import build_quantum_koszul, q_pieces, quantum_charge, star_action, u_pieces
from redstar.scalars import QQ_I
from redstar.runner import RunState, stage_load
from redstar.scenarios import get_scenario
from redstar.series import Series
from redstar.superalg import OperatorHandle, SuperElement, StarProduct, op_sum, super_mul

from test_quantum import abelian_two, ax_plus_b

ORDERS = (0, 2, 4)


# -- dense references --------------------------------------------------------------


def _gen(ctx, dim, order, ghosts=(), antighosts=()):
    return SuperElement(ctx, dim, order, {(ghosts, antighosts): Series.const(ctx, 1, order)})


def dense(lie):
    """The dense tensor f[a][b][c] of the structure constants, zeros included."""
    d = lie.dim
    f = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for a, b, c, v in lie.entries:
        f[a][b][c] = v
    return f


def _triples(lie):
    d, f = lie.dim, dense(lie)
    return [
        (a, b, c, f[a][b][c])
        for a in range(d)
        for b in range(d)
        for c in range(d)
        if f[a][b][c]
    ]


def ref_classical_charge(moment, order):
    ctx, dim = moment.ctx, moment.lie.dim
    theta = SuperElement.zero(ctx, dim, order)
    for a, b, c, v in _triples(moment.lie):
        term = super_mul(
            super_mul(_gen(ctx, dim, order, (a + 1,)), _gen(ctx, dim, order, (b + 1,))),
            _gen(ctx, dim, order, (), (c + 1,)),
        )
        theta = theta + term.scale(Fraction(-1, 4) * v)
    for a in range(dim):
        theta = theta + SuperElement(
            ctx, dim, order, {((a + 1,), ()): Series.from_poly(moment.components[a], order)}
        )
    return theta


def ref_quantum_charge(moment, order):
    ctx, dim, f = moment.ctx, moment.lie.dim, dense(moment.lie)
    theta = ref_classical_charge(moment, order)
    for a in range(dim):
        trace = sum(f[a][b][b] for b in range(dim))
        if trace:
            theta = theta + SuperElement(
                ctx, dim, order, {((a + 1,), ()): Series.nu(ctx, order).scale(Fraction(trace, 2))}
            )
    return theta


# The references follow the floor rule of `superalg.op_sum`: the sum starts
# at the input's floor (one order lower for a division by nu), and every
# piece whose image has terms or a floor is added in.  A ghost e^a times a
# term that already holds e^a is exactly zero, so the coefficient action
# reads only the terms without e^a.


def contract(x, a, ghost):
    """i_a (ghost) or i^a on every term of x: the sign of moving e^a or e_a to the front."""
    out = {}
    for (ghosts, antighosts), coeff in x.terms.items():
        own = ghosts if ghost else antighosts
        if a in own:
            pos = own.index(a) + (0 if ghost else len(ghosts))
            rest = tuple(b for b in own if b != a)
            key = (rest, antighosts) if ghost else (ghosts, rest)
            out[key] = coeff.scale((-1) ** pos)
    return SuperElement(x.ctx, x.dim, x.order, out, floor=x.floor)


def applied(action):
    """(j, x) -> action(j, .) on x, through one op_sum handle per call."""
    return lambda j, x: op_sum("act", 0, [action(j)])(x)


def _start(x, drop=0):
    floor = None if x.floor is None else min(x.floor - drop, x.order)
    return SuperElement(x.ctx, x.dim, x.order, {}, _clean=True, floor=floor)


def _live(y):
    return y.terms or y.floor is not None


def _without_ghost(x, a):
    terms = {k: c for k, c in x.terms.items() if a not in k[0]}
    return SuperElement(x.ctx, x.dim, x.order, terms, floor=x.floor)


def ref_delta(moment, action, drop=0):
    ctx, dim = moment.ctx, moment.lie.dim
    triples = _triples(moment.lie)

    def fn(x):
        order = x.order
        out = _start(x, drop)
        for a, b, c, v in triples:
            ic = contract(x, c + 1, ghost=True)
            if _live(ic):
                ghost2 = super_mul(
                    _gen(ctx, dim, order, (a + 1,)), _gen(ctx, dim, order, (b + 1,))
                )
                out = out + super_mul(ghost2, ic).scale(Fraction(-1, 2) * v)
            ib = contract(x, b + 1, ghost=False)
            if _live(ib):
                ga_ec = super_mul(
                    _gen(ctx, dim, order, (a + 1,)), _gen(ctx, dim, order, (), (c + 1,))
                )
                out = out + super_mul(ga_ec, ib).scale(v)
        for a in range(dim):
            acted = action(moment.components[a], _without_ghost(x, a + 1))
            if _live(acted):
                out = out + super_mul(_gen(ctx, dim, order, (a + 1,)), acted)
        return out

    return fn


def ref_q(moment):
    ctx, dim = moment.ctx, moment.lie.dim

    def fn(x):
        out = _start(x)
        for a, b, c, v in _triples(moment.lie):
            inner = contract(contract(x, b + 1, ghost=False), a + 1, ghost=False)
            if _live(inner):
                out = out + super_mul(
                    _gen(ctx, dim, x.order, (), (c + 1,)), inner
                ).scale(Fraction(-1, 2) * v)
        return out

    return fn


def ref_u(moment):
    dim, f = moment.lie.dim, dense(moment.lie)

    def fn(x):
        out = _start(x)
        for a in range(dim):
            trace = sum(f[a][b][b] for b in range(dim))
            if trace:
                piece = contract(x, a + 1, ghost=False)
                if _live(piece):
                    out = out + piece.scale(trace)
        return out

    return fn


def ref_koszul(moment):
    """sum_a J_a i^a, each J_a a ghost-free element multiplied in by `super_mul`."""
    dim = moment.lie.dim

    def fn(x):
        out = _start(x)
        for a, j in enumerate(moment.components):
            piece = contract(x, a + 1, ghost=False)
            if _live(piece):
                out = out + super_mul(SuperElement.from_poly(j, dim, x.order), piece)
        return out

    return fn


def ref_koszul_nu(moment, lam):
    """R + nu (u/2 - q), with R(x) = sum_a (i^a x) * J_a from `moyal_star_series`."""
    u, q = ref_u(moment), ref_q(moment)

    def R(x):
        out = _start(x)
        for a, j in enumerate(moment.components):
            piece = contract(x, a + 1, ghost=False)
            if _live(piece):
                jser = Series.from_poly(j, x.order)
                out = out + piece.map_terms(lambda c: moyal_star_series(c, jser, lam))
        return out

    return lambda x: R(x) + (u(x).scale(Fraction(1, 2)) - q(x)).shift_nu(1)


def ref_poisson_action(lam):
    def act(j, x):
        bracket = lambda c: Series(x.ctx, x.order, [poisson_bracket(j, p, lam) for p in c.coeffs], c.reliable)
        return x.map_terms(bracket)

    return act


def ref_star_action(lam):
    def act(j, x):
        jser = Series.from_poly(j, x.order)
        bracket = lambda c: moyal_star_series(jser, c, lam) - moyal_star_series(c, jser, lam)
        return x.map_terms(lambda c: bracket(c).div_nu(), drop=1)

    return act


def ref_equivariance(moment, lam):
    out = []
    d, f = moment.lie.dim, dense(moment.lie)
    for a in range(d):
        for b in range(a + 1, d):
            res = poisson_bracket(moment.components[a], moment.components[b], lam)
            for c in range(d):
                if f[a][b][c]:
                    res = res - moment.components[c].scale(f[a][b][c])
            out.append(((a + 1, b + 1), res))
    return out


def ref_covariance(moment, lam, order):
    comps, d, f = moment.components, moment.lie.dim, dense(moment.lie)
    out = []
    for a in range(d):
        for b in range(a + 1, d):
            lhs = moyal_commutator(comps[a], comps[b], lam, order)
            rhs = Poly.zero(moment.ctx)
            for c in range(d):
                if f[a][b][c]:
                    rhs = rhs + comps[c].scale(f[a][b][c])
            out.append((f"pair ({a + 1},{b + 1})", lhs - Series.from_poly(rhs, order).shift_nu(1)))
    return out


def ref_commutator_residuals(rep, probes):
    out = []
    d, f = rep.lie.dim, dense(rep.lie)
    for a in range(d):
        for b in range(a + 1, d):
            for k, x in enumerate(probes):
                r = rep.ops[a](rep.ops[b](x)) - rep.ops[b](rep.ops[a](x))
                for c in range(d):
                    if f[a][b][c]:
                        r = r - rep.ops[c](x).scale(f[a][b][c])
                out.append(((a + 1, b + 1, k), r))
    return out


# -- models and probes ---------------------------------------------------------------


def commuting_n3():
    state = RunState(get_scenario("commuting-n3"))
    stage_load(state)
    return state.ctx, state.lam, state.moment


MODELS = {
    "so3": commuting_n3,
    "abelian": lambda: abelian_two()[:3],
    "ax+b": lambda: ax_plus_b()[:3],
}


def probes(ctx, dim, order, rng, n=4):
    """Random elements with every nu-slot filled and mixed reliable orders."""
    out = []
    for _ in range(n):
        terms = {
            key: Series(
                ctx,
                order,
                [c.coeffs[0]] + [random_poly(ctx, rng, 2, 2) for _ in range(order)],
                rng.randint(0, order),
            )
            for key, c in random_bounded_super(ctx, dim, order, rng, 2, (0,) * dim).terms.items()
        }
        out.append(SuperElement(ctx, dim, order, terms))
    return out


def assert_same(got, want):
    assert got.order == want.order
    assert got.terms.keys() == want.terms.keys()
    for key, coeff in want.terms.items():
        assert got.terms[key] == coeff, key
        assert got.terms[key].reliable == coeff.reliable, key


def perturbed(moment, rng):
    """The same Lie data with non-equivariant components: nonzero residuals."""
    comps = tuple(j + random_poly(moment.ctx, rng, 2, 2) for j in moment.components)
    return MomentMapData(moment.ctx, comps, moment.lie)


# -- tests ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("order", ORDERS)
def test_charges_match_dense_reference(model, order):
    ctx, lam, moment = MODELS[model]()
    assert_same(classical_charge(moment, order), ref_classical_charge(moment, order))
    assert_same(quantum_charge(moment, order), ref_quantum_charge(moment, order))


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("order", ORDERS)
def test_operators_match_dense_reference(model, order):
    ctx, lam, moment = MODELS[model]()
    dim = moment.lie.dim
    rng = random.Random(f"{model}:{order}")
    pairs = [
        (op_sum("q", +1, q_pieces(moment)), ref_q(moment)),
        (op_sum("u", +1, u_pieces(moment)), ref_u(moment)),
        (build_delta(moment, poisson_action(lam)), ref_delta(moment, applied(poisson_action(lam)))),
    ]
    if order:
        action = star_action(StarProduct(lam))
        pairs.append((build_delta(moment, action, "delta_nu"), ref_delta(moment, applied(action))))
    for x in probes(ctx, dim, order, rng):
        for op, ref in pairs:
            assert_same(op(x), ref(x))


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("order", ORDERS)
def test_residual_loops_match_dense_reference(model, order):
    ctx, lam, moment = MODELS[model]()
    dim = moment.lie.dim
    rng = random.Random(f"residuals:{model}:{order}")
    for m in (moment, perturbed(moment, rng)):
        assert m.check_equivariance(lam) == ref_equivariance(m, lam)
        got = check_quantum_covariance(m, lam, order)
        want = ref_covariance(m, lam, order)
        assert [label for label, _ in got] == [label for label, _ in want]
        for (_, g), (_, w) in zip(got, want):
            assert g == w and g.reliable == w.reliable
    # not a representation, so the residuals are nonzero
    act = applied(poisson_action(lam))
    ops = tuple(
        OperatorHandle(
            f"L_{a + 1}",
            lambda x, a=a: act(moment.components[a], x)
            + contract(x, a + 1, ghost=False).scale(a + 1),
        )
        for a in range(dim)
    )
    rep = RepresentationHandle(moment.lie, ops)
    xs = probes(ctx, dim, order, rng, 3)
    got, want = rep.commutator_residuals(xs), ref_commutator_residuals(rep, xs)
    assert [label for label, _ in got] == [label for label, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert_same(g, w)


# -- the op_sum plans against the references, over QQ and QQ_I ------------------------


def over_gaussian(ctx, lam, moment):
    """The same model over QQ_I: context, bivector and moment map rebuilt there."""
    gctx = VarContext(ctx.names, QQ_I, ctx.gradings)
    names = ctx.names
    glam = poisson_data(gctx, [(names[a], names[b], v) for a, b, v in lam.entries if a < b])
    comps = tuple(Poly(gctx, j.terms) for j in moment.components)
    return gctx, glam, MomentMapData(gctx, comps, moment.lie)


def with_floor(x, rng):
    """x plus and minus a term, under a key x lacks, reliable below the order: x with a floor."""
    keys = [((), tuple(range(1, n + 1))) for n in range(1, x.dim + 1)]
    key = rng.choice([k for k in keys if k not in x.terms])
    coeff = Series(x.ctx, x.order, [random_poly(x.ctx, rng, 2, 2)], rng.randint(0, x.order))
    b = SuperElement(x.ctx, x.dim, x.order, {key: coeff})
    out = x + b - b
    assert out.floor is not None
    return out


def zero_images(moment, order):
    """Inputs whose images vanish under some of the operators.

    The constant 1 (every action and Koszul piece vanishes or finds nothing),
    a constant under all ghosts (every delta piece is killed) and
    J_2 e_1 - J_1 e_2 (whose Koszul image cancels), reliable one order low.
    """
    ctx, dim = moment.ctx, moment.lie.dim
    low = max(order - 1, 0)
    j1, j2 = moment.components[:2]
    ser = lambda p: Series(ctx, order, [p], low)
    return [
        SuperElement.from_poly(Poly.const(ctx, 1), dim, order),
        SuperElement(ctx, dim, order, {(tuple(range(1, dim + 1)), ()): ser(Poly.const(ctx, 3))}),
        SuperElement(ctx, dim, order, {((), (1,)): ser(j2), ((), (2,)): ser(-j1)}),
    ]


@pytest.mark.parametrize("field", ["QQ", "QQ_I"])
@pytest.mark.parametrize("model", ["so3", "ax+b"])
@pytest.mark.parametrize("order", ORDERS)
def test_plans_match_references(model, field, order):
    ctx, lam, moment = MODELS[model]()
    if field == "QQ_I":
        ctx, lam, moment = over_gaussian(ctx, lam, moment)
    dim = moment.lie.dim
    star = StarProduct(lam)
    rng = random.Random(f"plans:{model}:{field}:{order}")
    xs = probes(ctx, dim, order, rng) + zero_images(moment, order)
    xs += [with_floor(x, rng) for x in xs]
    cases = {
        "koszul": (koszul_operator(moment), ref_koszul(moment)),
        "koszul_nu": (build_quantum_koszul(moment, star), ref_koszul_nu(moment, lam)),
        "delta": (
            build_delta(moment, poisson_action(lam)),
            ref_delta(moment, ref_poisson_action(lam)),
        ),
        "delta_nu": (
            build_delta(moment, star_action(star), "delta_nu"),
            ref_delta(moment, ref_star_action(lam), drop=1),
        ),
    }
    zeros = 0
    for name, (op, ref) in cases.items():
        for k, x in enumerate(xs):
            got, want = op(x), ref(x)
            assert_same(got, want)
            assert got.reliable == want.reliable, (name, k)
            if not want.terms:
                zeros += 1
                assert got.floor == want.floor, (name, k)
    assert zeros
