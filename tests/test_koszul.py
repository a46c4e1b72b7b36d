import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, zip_longest

import pytest

from redstar.errors import AcyclicityError, DegreeOverflowError
from redstar.linalg import SliceSolver
from redstar.koszul import (
    Contraction,
    KoszulContraction,
    KoszulSpace,
    MomentMapData,
    build_koszul_contraction,
    check_acyclicity,
    enforce_side_conditions,
    koszul_contraction,
    koszul_operator,
)
from redstar.poly import Poly, VarContext, poly_ring
from redstar.probes import random_bounded_super, random_poly
from redstar.runner import RunState, stage_acyclicity, stage_contraction, stage_load
from redstar.scalars import QQ_I
from redstar.scenarios import get_scenario
from redstar.series import Series
from redstar.superalg import LieAlgebraData, OperatorHandle, SuperElement, op_columns

BOUND = 8


def toy_q():
    """Single constraint J = (q) in variables (q, p)."""
    ctx, (q, p) = poly_ring(("q", "p"))
    lie = LieAlgebraData.build(1)
    moment = MomentMapData(ctx, (q,), lie)
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
    lie = LieAlgebraData.build(1)
    return ctx, J, MomentMapData(ctx, (J,), lie)


def el(ctx, dim, terms, order=0):
    """An element from Poly or Series coefficients, each Poly lifted at `order`."""
    lift = lambda c: Series.from_poly(c, order) if isinstance(c, Poly) else c
    return SuperElement(ctx, dim, order, {key: lift(c) for key, c in terms.items()})


def _axioms(c, probes_X, probes_Y):
    """(label, residual) of every contraction axiom on every probe pair."""
    return [item for x, y in zip(probes_X, probes_Y) for item in c.axiom_residuals(x, y).items()]


def test_diff_on_generator():
    ctx, q, p, moment = toy_q()
    e1 = el(ctx, 1, {((), (1,)): Poly.const(ctx, 1)})
    assert koszul_operator(moment)(e1) == SuperElement.from_poly(q, 1, 0)


def test_diff_derivation_sign():
    # two constraints: d(f e_1 e_2) = f (J_1 e_2 - J_2 e_1)
    ctx, (q, p) = poly_ring(("q", "p"))
    lie = LieAlgebraData.build(2)
    moment = MomentMapData(ctx, (q, p), lie)
    f = q + p
    x = el(ctx, 2, {((), (1, 2)): Series.from_poly(f, 0)})
    out = koszul_operator(moment)(x)
    expect = el(
        ctx,
        2,
        {((), (2,)): Series.from_poly(f * q, 0), ((), (1,)): Series.from_poly(-(f * p), 0)},
    )
    assert out == expect


def test_diff_squares_to_zero():
    ctx, (q, p) = poly_ring(("q", "p"))
    lie = LieAlgebraData.build(2)
    moment = MomentMapData(ctx, (q, p * p), lie)
    d = koszul_operator(moment)
    rng = random.Random(3)
    for _ in range(20):
        x = random_bounded_super(ctx, 2, 0, rng, 6, (1, 2), terms=3)
        assert d(d(x)).is_zero()


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
        lhs = c.d_Y(c.h(f)) + c.h(c.d_Y(f))
        rhs = f - c.i(c.p(f))
        assert (lhs - rhs).is_zero()


def test_contraction_axioms_and_side_conditions():
    ctx, q, p, moment = toy_q()
    c = build_koszul_contraction(moment, BOUND)
    rng = random.Random(4)
    probes_Y = [random_bounded_super(ctx, 1, 0, rng, BOUND, (1,), terms=3) for _ in range(25)]
    probes_X = [c.p(y) for y in probes_Y]
    results = _axioms(c, probes_X, probes_Y)
    assert results and all(r.is_zero() for _, r in results)


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
    moment = MomentMapData(ctx, (q, p), LieAlgebraData.build(2))
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
    )


def two_constraint_probes(ctx, bound):
    rng = random.Random(6)
    one = SuperElement.from_poly(Poly.const(ctx, 3), 2, 0)
    probes_Y = [one] + [
        random_bounded_super(ctx, 2, 0, rng, bound, (1, 1), terms=2, hdegree=i % 3) for i in range(6)
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
    results = _axioms(cand, probes_X, probes_Y)
    assert all(r.is_zero() for label, r in results if label not in side)
    # but sc2 fails
    assert any(not cand.h(cand.i(x)).is_zero() for x in probes_X)
    fixed = enforce_side_conditions(cand)
    assert all(r.is_zero() for _, r in _axioms(fixed, probes_X, probes_Y))
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


def _basis_elements(space, ctx, dim, bound):
    """Ghost-free, nu-order-0 elements of every Y and X slice basis."""
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
    space = KoszulSpace(state.moment, bound)
    c = koszul_contraction(space)
    xs, ys = _basis_elements(space, ctx, dim, bound)
    assert xs and len(ys) > len(xs)
    zero = SuperElement.zero(ctx, dim, 0)
    seen = set()
    for x, y in zip_longest(xs, ys, fillvalue=zero):
        for label, residual in c.axiom_residuals(x, y).items():
            assert residual.is_zero(), (label, x, y)
            seen.add(label)
    assert len(seen) == 7


def test_pipeline_homotopy_is_one_canonical_solve(monkeypatch):
    # h on the contraction the runner builds is a column map: kc.h(y) makes
    # at most one h_fn call per (ghost key, monomial) of y whose column is
    # not cached yet, and none once it is.  A wrapper such as h'' = h' d h'
    # would cost many more.  The columns are nu-free, so they serve every
    # nu-order.
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
    # the stage's probes did not fill the columns of J z1^2
    f = j * Poly.variable(state.ctx, "z1") ** 2
    y = SuperElement.from_poly(f, 1, 1)
    columns = {(key, m) for key, series in y.terms.items() for p in series.coeffs for m in p.terms}
    calls.clear()
    hy = state.kc.h(y)
    assert 0 < len(calls) <= len(columns) and not hy.is_zero()
    calls.clear()
    assert_same_element(state.kc.h(y), hy)
    assert not calls
    # the same columns at another nu-order: no new call, nor a reliable
    # order capped at the order they were filled at
    h3 = state.kc.h(SuperElement.from_poly(f, 1, 3))
    assert not calls
    assert_same_element(h3.truncate(1), hy)
    assert h3.reliable == 3


def test_contraction_stage_reuses_the_acyclicity_space(monkeypatch):
    state = RunState(replace(get_scenario("t2-c4"), degree_bound=4))
    stage_load(state)
    stage_acyclicity(state)
    space = state.space
    solvers = dict(space._solvers)
    assert solvers
    spaces = []
    solver = KoszulSpace.solver

    def counted(self, i, grade):
        spaces.append(self)
        return solver(self, i, grade)

    monkeypatch.setattr(KoszulSpace, "solver", counted)
    records = stage_contraction(state)
    assert all(r.status == "pass" for r in records)
    assert state.space is space and any(s is space for s in spaces)
    assert all(space._solvers[key] is solver for key, solver in solvers.items())
    # the homotopy of the contraction the stage keeps solves on that space
    # (on J z1^2, whose columns the stage's probes did not fill)
    j = state.moment.components[0]
    y = SuperElement.from_poly(j * Poly.variable(state.ctx, "z1") ** 2, state.moment.lie.dim, 1)
    spaces.clear()
    assert not state.kc.h(y).is_zero()
    assert spaces and all(s is space for s in spaces)


def test_acyclicity_positive_and_negative():
    ctx, q, p, moment = toy_q()
    rep = check_acyclicity(moment, 8)
    assert rep.acyclic
    assert all(v == 0 for v in rep.dims.values())
    # H_0 of the single-variable ideal: one standard monomial per degree
    assert all(v == 1 for v in rep.h0_dims.values())

    lie2 = LieAlgebraData.build(2)
    bad = MomentMapData(ctx, (q, q), lie2)
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
    bad = MomentMapData(ctx, (q, q), lie2)
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
    from redstar.linalg import mat_vec

    ctx, (q, p) = poly_ring(("q", "p"))
    lie = LieAlgebraData.build(2)
    moment = MomentMapData(ctx, (q, p * p), lie)
    space = KoszulSpace(moment, 6)
    checked = 0
    for grade in [(3,), (4,), (5,)]:
        rows2 = space.diff_rows(2, grade)
        rows1 = space.diff_rows(1, grade)
        if not rows2 or not rows1:
            continue
        # d_1 applied to each column of d_2, read from its sparse rows
        for k in range(len(space.slice_basis(2, grade))):
            col = [dict(row).get(k, ctx.field.zero) for row in rows2]
            assert not any(mat_vec(rows1, col, ctx.field))
            checked += 1
    assert checked


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

    # the declared degree is the change of term_degree
    e1 = el(ctx, 1, {((), (1,)): Poly.const(ctx, 1)})
    assert c.d_Y.degree == +1
    out = c.d_Y(e1)
    assert out.terms
    assert all(term_degree(k) == term_degree(((), (1,))) + c.d_Y.degree for k in out.terms)
    hx = c.h(SuperElement.from_poly(J, 1, 0))
    assert c.h.degree == -1
    assert hx.terms and all(term_degree(k) == c.h.degree for k in hx.terms)


def test_determinism_rebuild():
    ctx, J, moment = circle_c4()
    c1 = build_koszul_contraction(moment, 6)
    c2 = build_koszul_contraction(moment, 6)
    rng = random.Random(13)
    for _ in range(10):
        y = random_bounded_super(ctx, 1, 0, rng, 6, (2,), terms=2)
        assert c1.h(y) == c2.h(y)
        assert c1.p(y) == c2.p(y)


# -- the slice layer against the earlier chain-level implementation -------------------


def sparse_rows(rows):
    """The (column, entry) pairs of the nonzero entries of each dense row."""
    return [[(k, e) for k, e in enumerate(row) if e] for row in rows]


def dense_rref(rows, ncols):
    """(nonzero rows of the RREF, pivot columns) by Gauss-Jordan elimination with row swaps."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        k = len(pivots)
        pr = next((r for r in range(k, len(rows)) if rows[r][col]), None)
        if pr is None:
            continue
        rows[k], rows[pr] = rows[pr], rows[k]
        inv = 1 / rows[k][col]
        rows[k] = [e * inv for e in rows[k]]
        for r, row in enumerate(rows):
            f = row[col]
            if r != k and f:
                rows[r] = [a - f * b for a, b in zip(row, rows[k])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


class ChainKoszul:
    """Test-only reference: the Koszul maps as they were written on Poly chains.

    Slice bases, the differential matrix loop, the ideal-slice matrix loop,
    its RREF (by dense elimination, not `SliceSolver`) and the normal form
    are rebuilt here independently of `KoszulSpace`;
    `h_fn` and `res_fn` regrade {antighost set: Poly} chains at every level
    of the homotopy recursion.
    """

    def __init__(self, moment, degree_bound):
        self.moment, self.ctx, self.dim = moment, moment.ctx, moment.lie.dim
        self.degree_bound = degree_bound
        self.jgrades = moment.component_grades()
        self._bases, self._solvers, self._ideal = {}, {}, {}

    def grade_parts(self, p):
        """{grade: Poly} of p's grade-homogeneous parts, in grade order."""
        buckets = {}
        for m, c in p.terms.items():
            buckets.setdefault(self.ctx.grade_of_mono(m), {})[m] = c
        return {g: Poly(self.ctx, t, _clean=True) for g, t in sorted(buckets.items())}

    def antighost_offset(self, aset):
        zero = (0,) * (1 + len(self.ctx.gradings))
        for a in aset:
            zero = tuple(x + y for x, y in zip(zero, self.jgrades[a - 1]))
        return zero

    def slice_basis(self, i, grade):
        key = (i, grade)
        if key not in self._bases:
            if grade[0] > self.degree_bound:
                raise DegreeOverflowError("slice above the bound")
            basis = []
            for aset in combinations(range(1, self.dim + 1), i):
                off = self.antighost_offset(aset)
                residual = tuple(g - o for g, o in zip(grade, off))
                if residual[0] >= 0:
                    basis.extend((aset, m) for m in self.ctx.monomials_of_grade(residual))
            self._bases[key] = tuple(basis)
        return self._bases[key]

    def vectorize(self, chain, i, grade):
        index = {bm: k for k, bm in enumerate(self.slice_basis(i, grade))}
        v = [self.ctx.field.zero] * len(index)
        for aset, p in chain.items():
            for m, c in p.terms.items():
                v[index[(aset, m)]] = v[index[(aset, m)]] + c
        return v

    def unvectorize(self, v, i, grade):
        out = {}
        for val, (aset, m) in zip(v, self.slice_basis(i, grade)):
            if val:
                out.setdefault(aset, {})[m] = val
        return {a: Poly(self.ctx, t, _clean=True) for a, t in out.items()}

    def diff_rows(self, i, grade):
        dom, cod = self.slice_basis(i, grade), self.slice_basis(i - 1, grade)
        cod_index = {bm: k for k, bm in enumerate(cod)}
        zero = self.ctx.field.zero
        rows = [[zero] * len(dom) for _ in cod]
        for col, (aset, m) in enumerate(dom):
            for pos, a in enumerate(aset):
                rest = aset[:pos] + aset[pos + 1 :]
                for jm, jc in self.moment.components[a - 1].terms.items():
                    r = cod_index[(rest, tuple(x + y for x, y in zip(m, jm)))]
                    rows[r][col] = rows[r][col] + jc * (-1) ** pos
        return sparse_rows(rows)

    def solver(self, i, grade):
        key = (i, grade)
        if key not in self._solvers:
            ncols = len(self.slice_basis(i, grade))
            self._solvers[key] = SliceSolver(self.diff_rows(i, grade), ncols, self.ctx.field)
        return self._solvers[key]

    def ideal_data(self, grade):
        if grade not in self._ideal:
            if grade[0] > self.degree_bound:
                raise DegreeOverflowError("ideal slice above the bound")
            monos = self.ctx.monomials_of_grade(grade)
            index = {m: k for k, m in enumerate(monos)}
            rows = []
            for a, j in enumerate(self.moment.components):
                residual = tuple(g - o for g, o in zip(grade, self.jgrades[a]))
                if residual[0] < 0:
                    continue
                for m in self.ctx.monomials_of_grade(residual):
                    row = [self.ctx.field.zero] * len(monos)
                    for jm, jc in j.terms.items():
                        tm = tuple(x + y for x, y in zip(m, jm))
                        row[index[tm]] = row[index[tm]] + jc
                    rows.append(row)
            reduced, pivots = dense_rref(rows, len(monos))
            self._ideal[grade] = (sparse_rows(reduced), pivots, monos, index)
        return self._ideal[grade]

    def normal_form_poly(self, p):
        out = Poly.zero(self.ctx)
        for grade, comp in self.grade_parts(p).items():
            reduced, pivots, monos, index = self.ideal_data(grade)
            v = [self.ctx.field.zero] * len(monos)
            for m, c in comp.terms.items():
                v[index[m]] = c
            for row, pc in zip(reduced, pivots):
                factor = v[pc]
                if not factor:
                    continue
                for k, entry in row:
                    v[k] = v[k] - factor * entry
            out = out + Poly(self.ctx, {m: c for m, c in zip(monos, v) if c}, _clean=True)
        return out

    def _h_chain(self, chain):
        buckets = {}
        for aset, p in chain.items():
            off = self.antighost_offset(aset)
            for grade, comp in self.grade_parts(p).items():
                key = (len(aset), tuple(x + y for x, y in zip(grade, off)))
                buckets.setdefault(key, {})[aset] = comp
        out = {}
        for (i, grade), terms in buckets.items():
            if i == 0:
                p = terms[()]
                rhs = self.vectorize({(): p - self.normal_form_poly(p)}, 0, grade)
            else:
                rhs_terms = dict(terms)
                for aset, p in self._h_chain(self._diff_chain(terms)).items():
                    rhs_terms[aset] = rhs_terms.get(aset, Poly.zero(self.ctx)) - p
                rhs = self.vectorize(rhs_terms, i, grade)
            x, r = self.solver(i + 1, grade).solve(rhs)
            if any(r):
                raise AcyclicityError("not exact")
            for aset, p in self.unvectorize(x, i + 1, grade).items():
                out[aset] = out.get(aset, Poly.zero(self.ctx)) + p
        return out

    def _diff_chain(self, chain):
        out = {}
        for aset, p in chain.items():
            for pos, a in enumerate(aset):
                rest = aset[:pos] + aset[pos + 1 :]
                term = (p * self.moment.components[a - 1]).scale((-1) ** pos)
                out[rest] = out.get(rest, Poly.zero(self.ctx)) + term
        return {a: p for a, p in out.items() if not p.is_zero()}

    def _per_ghost_block(self, x, chain_fn, odd):
        out_terms, blocks = {}, {}
        for (ghosts, antighosts), coeff in x.terms.items():
            blocks.setdefault(ghosts, {})[antighosts] = coeff
        for ghosts, ant_terms in blocks.items():
            sign = (-1) ** len(ghosts) if odd else 1
            for slot in range(x.order + 1):
                chain = {
                    aset: coeff.coeffs[slot]
                    for aset, coeff in ant_terms.items()
                    if not coeff.coeffs[slot].is_zero()
                }
                if not chain:
                    continue
                for aset, p in chain_fn(chain).items():
                    if p.is_zero():
                        continue
                    cur = out_terms.setdefault((ghosts, aset), [Poly.zero(x.ctx)] * (x.order + 1))
                    cur[slot] = cur[slot] + p.scale(sign)
        terms = {
            key: Series(x.ctx, x.order, coeffs, x.reliable) for key, coeffs in out_terms.items()
        }
        return SuperElement(x.ctx, x.dim, x.order, terms)

    def res_fn(self, x):
        def chain(c):
            return {(): self.normal_form_poly(c[()])} if () in c else {}

        return self._per_ghost_block(x, chain, odd=False)

    def h_fn(self, x):
        return self._per_ghost_block(x, self._h_chain, odd=True)


SLICE_SCENARIOS = [("s1-c4", 4), ("t2-c4", 5), ("commuting-n2", 4), ("angular-momentum-m2", 4)]


def loaded(name, bound):
    state = RunState(replace(get_scenario(name), degree_bound=bound))
    stage_load(state)
    return state


def with_nu_content(x, rng):
    """x with a random one-term polynomial of each term's degree in every nu slot."""
    terms = {
        key: Series(
            x.ctx,
            x.order,
            [random_poly(x.ctx, rng, c.max_degree(), terms=1) for _ in range(x.order + 1)],
        )
        for key, c in x.terms.items()
    }
    return SuperElement(x.ctx, x.dim, x.order, terms)


def random_inputs(state, bound, order, rng, count):
    """Bounded elements x + d z with ghosts and nonzero higher nu slots.

    The exact part d z keeps h from vanishing on most inputs; one term of
    each element has its `reliable` lowered.
    """
    ctx, dim = state.ctx, state.moment.lie.dim
    out = []
    for k in range(count):
        x, z = (random_bounded_super(ctx, dim, order, rng, bound, state.jdegs, 3) for _ in range(2))
        if k % 2 == 0:
            x, z = with_nu_content(x, rng), with_nu_content(z, rng)
        x = x + koszul_operator(state.moment)(z)
        if order and x.terms:
            key = sorted(x.terms)[0]
            terms = dict(x.terms)
            terms[key] = Series(ctx, order, terms[key].coeffs, order - 1)
            x = SuperElement(ctx, dim, order, terms, _clean=True)
        out.append(x)
    return out


def assert_same_element(got, want):
    """Equal terms and equal `reliable` on every term."""
    assert got == want
    assert {k: c.reliable for k, c in got.terms.items()} == {
        k: c.reliable for k, c in want.terms.items()
    }


@pytest.mark.parametrize("name,bound", SLICE_SCENARIOS)
def test_slice_maps_match_chain_reference(name, bound):
    state = loaded(name, bound)
    c = build_koszul_contraction(state.moment, bound)
    ref = ChainKoszul(state.moment, bound)
    rng = random.Random(f"slice-maps:{name}")
    inputs = [x for order in (0, 2, 4) for x in random_inputs(state, bound, order, rng, 8)]
    assert any(g for x in inputs for g, _ in x.terms)
    assert any(not p.is_zero() for x in inputs for s in x.terms.values() for p in s.coeffs[1:])
    for x in inputs:
        hx = c.h(x)
        assert_same_element(hx, ref.h_fn(x))
        assert_same_element(c.h(hx), ref.h_fn(ref.h_fn(x)))
        assert_same_element(c.p(x), ref.res_fn(x))


@pytest.mark.parametrize("name,bound", SLICE_SCENARIOS)
def test_slice_matrices_and_normal_form_match_chain_reference(name, bound):
    state = loaded(name, bound)
    ctx, dim = state.ctx, state.moment.lie.dim
    space = KoszulSpace(state.moment, bound)
    ref = ChainKoszul(state.moment, bound)
    grades = sorted({g for deg in range(bound + 1) for g in ctx.grades_of_degree(deg)})
    for grade in grades:
        for i in range(1, dim + 2):
            assert space.diff_rows(i, grade) == ref.diff_rows(i, grade)
        ref_reduced, ref_pivots, monos, _ = ref.ideal_data(grade)
        pivset = set(ref_pivots)
        assert space.complement_monomials(grade) == tuple(
            m for k, m in enumerate(monos) if k not in pivset
        )
    rng = random.Random(f"normal-form:{name}")
    for _ in range(30):
        p = random_poly(ctx, rng, bound, terms=5)
        assert space.normal_form_poly(p) == ref.normal_form_poly(p)


def test_acyclicity_builds_one_solver_per_slice_map(monkeypatch):
    # the quotient model reads the K_1 -> K_0 solvers that the rank checks
    # build, so no slice map is eliminated twice
    state = loaded("t2-c4", 5)
    built = []
    init = SliceSolver.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(SliceSolver, "__init__", counted)
    report = check_acyclicity(state.moment, 5)
    assert report.acyclic and report.space._solvers
    assert sorted(map(id, built)) == sorted(map(id, report.space._solvers.values()))


def test_exact_input_matches_the_reference_and_is_cached(monkeypatch):
    # h of an exact element d c equals the chain-level reference's, and a
    # second evaluation reads only cached columns: it makes no slice solve
    state = loaded("t2-c4", 5)
    c = build_koszul_contraction(state.moment, 5)
    ref = ChainKoszul(state.moment, 5)
    calls = []
    solve = SliceSolver.solve

    def counted(self, b):
        calls.append(len(b))
        return solve(self, b)

    monkeypatch.setattr(SliceSolver, "solve", counted)
    rng = random.Random(21)
    for _ in range(5):
        chain = random_bounded_super(state.ctx, 2, 0, rng, 5, state.jdegs, terms=3, hdegree=2)
        y = c.d_Y(chain)
        assert not y.is_zero()
        hy = c.h(y)
        assert_same_element(hy, ref.h_fn(y))
        calls.clear()
        assert_same_element(c.h(y), hy)
        assert not calls


def lift(x, order):
    """x at a higher truncation order, with the same coefficients."""
    terms = {k: Series(x.ctx, order, c.coeffs, c.reliable) for k, c in x.terms.items()}
    return SuperElement(x.ctx, x.dim, order, terms, _clean=True)


@pytest.mark.parametrize("name,bound", [("s1-c4", 4), ("t2-c4", 5)])
def test_res_and_h_columns_serve_every_order(name, bound, monkeypatch):
    # the nu-free columns of the pipeline's res and h against columns keyed
    # by order (the route of an order-dependent map): the same images and
    # reliable orders, at order 0 and then at order 4, where the columns
    # the order-0 inputs filled serve again and cap no reliable order
    calls = []  # the KoszulContraction of each column fill
    for fn in ("res_fn", "h_fn"):
        original = getattr(KoszulContraction, fn)
        monkeypatch.setattr(
            KoszulContraction, fn, lambda self, x, f=original: calls.append(self) or f(self, x)
        )
    state = loaded(name, bound)
    direct = KoszulContraction(KoszulSpace(state.moment, bound))
    by_order = {
        "p": op_columns(OperatorHandle("res", direct.res_fn, 0)),
        "h": op_columns(OperatorHandle("h", direct.h_fn, +1)),
    }
    shared = koszul_contraction(KoszulSpace(state.moment, bound))

    def check(xs):
        for x in xs:
            for op in ("p", "h"):
                got = getattr(shared, op)(x)
                assert_same_element(got, by_order[op](x))
                assert all(c.reliable == x.reliable for c in got.terms.values())

    rng = random.Random(f"nu-free:{name}")
    low = random_inputs(state, bound, 0, rng, 4)
    check(low)
    assert any(c is not direct for c in calls)
    calls.clear()
    check([lift(x, 4) for x in low])
    assert calls and all(c is direct for c in calls)
    high = [lift(x, 4).shift_nu(1) + y for x, y in zip(low, random_inputs(state, bound, 4, rng, 4))]
    assert any(x.reliable < 4 for x in high)
    check(high)


def test_axiom_residuals_compute_each_shared_image_once():
    ctx, q, p, moment = toy_q()
    c = build_koszul_contraction(moment, BOUND)
    calls = {}

    def counted(name, op):
        def fn(x):
            calls.setdefault(name, []).append(x)
            return op(x)

        return OperatorHandle(op.name, fn, op.degree, op.raises_filtration)

    names = ("p", "i", "h", "d_X", "d_Y")
    counting = Contraction(**{name: counted(name, getattr(c, name)) for name in names})
    rng = random.Random(31)
    y = random_bounded_super(ctx, 1, 0, rng, 6, (1,), terms=3)
    x = c.p(random_bounded_super(ctx, 1, 0, rng, 6, (1,), terms=3))
    got = counting.axiom_residuals(x, y)
    assert got == c.axiom_residuals(x, y) and all(r.is_zero() for r in got.values())
    # i on X, p Y and d_X X; h on Y, d_Y Y, h Y and i X: once per use
    assert {name: len(args) for name, args in calls.items()} == {
        "i": 3, "h": 4, "p": 4, "d_Y": 3, "d_X": 2
    }
    assert sum(a is x for a in calls["i"]) == 1 and sum(a is y for a in calls["h"]) == 1


def test_homotopy_builds_no_solver_for_an_empty_slice():
    # after t2-c4's contraction stage every cached solver has columns: h
    # checks rhs = 0 on a K_{i+1} slice with no basis without a solver
    state = loaded("t2-c4", 5)
    state.config = replace(state.config, probe_overrides=(("contraction", "20"),))
    stage_acyclicity(state)
    records = stage_contraction(state)
    assert all(r.status == "pass" for r in records)
    assert state.space._solvers
    assert all(s.ncols for s in state.space._solvers.values())
    # and a nonzero rhs there is still a failure of exactness
    ctx, (q, p) = poly_ring(("q", "p"))
    bad = MomentMapData(ctx, (q, q), LieAlgebraData.build(2))
    space = KoszulSpace(bad, 6)
    cycle = el(ctx, 2, {((), (1,)): Poly.const(ctx, 1), ((), (2,)): Poly.const(ctx, -1)})
    with pytest.raises(AcyclicityError):
        koszul_contraction(space).h(cycle)
    assert not space.slice_basis(2, (1,)) and (2, (1,)) not in space._solvers



def _to_sympy(sympy, gens, p):
    """A Poly as a sympy expression in gens; a Gaussian coefficient is re + I im."""
    num = lambda x: sympy.Rational(x.numerator, x.denominator)
    expr = sympy.S.Zero
    for m, c in p.terms.items():
        coeff = num(getattr(c, "re", c)) + sympy.I * num(getattr(c, "im", 0))
        expr += coeff * sympy.Mul(*[g**e for g, e in zip(gens, m)])
    return expr


def _normal_form_faults(space, ideal, to_sympy, p, nf):
    """The properties of a normal form nf of p that fail against a Groebner basis of (J)."""
    faults = set()
    if not ideal.contains(to_sympy(p - nf)):
        faults.add("p - nf(p) outside the ideal")
    if space.normal_form_poly(nf) != nf:
        faults.add("nf not idempotent")
    for m in nf.terms:
        if m not in space.complement_monomials(space.ctx.grade_of_mono(m)):
            faults.add("monomial outside the complement")
    return faults


@pytest.mark.parametrize("name", ["commuting-n2", "t2-c4", "commuting-n3"])
def test_normal_form_against_a_groebner_oracle(name):
    # the one reader of the quotient model (res calls it too) against sympy's
    # reduction modulo a Groebner basis of the moment-map ideal: p - nf(p) is
    # in (J), nf is idempotent and it writes only complement monomials
    sympy = pytest.importorskip("sympy")
    state = loaded(name, 4)
    ctx = state.ctx
    gens = sympy.symbols(ctx.names)
    to_sympy = lambda p: _to_sympy(sympy, gens, p)
    domain = "QQ_I" if ctx.field is QQ_I else "QQ"
    ideal = sympy.groebner(
        [to_sympy(j) for j in state.moment.components], *gens, order="grevlex", domain=domain
    )
    space = KoszulSpace(state.moment, 4)
    rng = random.Random(f"groebner:{name}")
    draws = [random_poly(ctx, rng, 4) for _ in range(20)]
    for p in draws:
        assert not _normal_form_faults(space, ideal, to_sympy, p, space.normal_form_poly(p))
    # negative control: a variable added to the normal form is not in (J)
    x = Poly.variable(ctx, ctx.names[0])
    assert not ideal.contains(to_sympy(x))
    for p in draws:
        wrong = space.normal_form_poly(p) + x
        assert _normal_form_faults(space, ideal, to_sympy, p, wrong) == {
            "p - nf(p) outside the ideal"
        }
