"""The reduction stages evaluate each linear image once, with unchanged results.

s1-c4 runs at the `circle` benchmark workload's size (degree bound 4, its
probe counts, seed 7).  The classical Phi and H kept after
`classical-reduction` are column maps and equal the direct transfer; the
`ProductTable` that `reduced-star` reads on s1-c4 and t2-c4 equals
`reduced_star` on every triple, in value and reliable order; on s1-c4 and
t2-c4 at the `torus` workload's size every table entry over the
quotient-model monomial pairs within the bound equals `reduced_star` of
its pair; on those and on t2-c4 at its registry size so do the generator
pair products that the stage reads off the table, and at the registry
size every generator triple's residual and every entry the table filled
for them; and a work-count guard pins how
many times the run evaluates `reduced_star` and the direct Phi, so a
change that brings back the recomputation fails here.  A second guard
pins the `reduced_star` calls of commuting-n2 at the `rational`
workload's size, whose stage builds no table and calls `reduced_star`
directly.  On s1-c4, t2-c4, commuting-n2 and
angular-momentum-m2, `reduced_star`, the Moyal product followed by res_nu,
equals the graded-star route res_nu(prol f * prol g) in value and
reliable order.
"""

import dataclasses
import importlib.util
import os
import random

import pytest

from redstar import reduction, runner
from redstar.brst import brst_transfer
from redstar.koszul import koszul_operator
from redstar.poly import Poly
from redstar.probes import random_bounded_super
from redstar.reduction import ProductTable, ReductionPipeline, reduced_star
from redstar.scenarios import REGISTRY_BUILDERS
from redstar.series import Series
from redstar.superalg import OperatorHandle, SuperElement

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _workload_config(workload, scenario):
    """The config of `scenario` as the benchmark workload runs it, at the default seed."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    run, = (r for r in module.WORKLOADS[workload] if r.scenario == scenario)
    return dataclasses.replace(
        REGISTRY_BUILDERS[run.scenario](),
        seed=module.DEFAULT_SEED,
        probe_overrides=tuple(run.probes),
        degree_bound=run.degree_bound,
    )


CONFIG = _workload_config("circle", "s1-c4")


def _count_reduced_star(monkeypatch):
    """Count every reduced_star call, from the runner and from the product table."""
    counts = {"reduced_star": 0}
    original_star = reduction.reduced_star

    def counted_star(*args, **kwargs):
        counts["reduced_star"] += 1
        return original_star(*args, **kwargs)

    monkeypatch.setattr(runner, "reduced_star", counted_star)
    monkeypatch.setattr(reduction, "reduced_star", counted_star)
    return counts


def _before_reduced_star(config):
    """The run state of `config` after every configured stage before reduced-star."""
    st = runner.RunState(config)
    for stage in runner.STAGE_ORDER[: runner.STAGE_ORDER.index("reduced-star")]:
        if stage in config.stages:
            records = runner.STAGE_FUNCTIONS[stage](st)
            assert all(r.status == "pass" for r in records), stage
    return st


def _pipeline(st):
    return ReductionPipeline(
        st.moment, st.lam, st.star, st.space, st.work_order,
        st.dc, st.qc,
    )


@pytest.fixture(scope="module")
def state():
    """s1-c4 through every stage before reduced-star."""
    return _before_reduced_star(CONFIG)


@pytest.fixture(scope="module")
def torus_state():
    """t2-c4 at the `torus` workload's size through every stage before reduced-star."""
    return _before_reduced_star(_workload_config("torus", "t2-c4"))


@pytest.fixture(scope="module")
def torus_registry_state():
    """t2-c4 at its registry size through every stage before reduced-star."""
    return _before_reduced_star(REGISTRY_BUILDERS["t2-c4"]())


def _reliables(x):
    return {k: c.reliable for k, c in x.terms.items()}


def test_column_phi_and_h_equal_the_direct_transfer(state):
    direct, _ = brst_transfer(state.kc, state.classical.delta)
    dim = state.moment.lie.dim
    gens = [
        SuperElement.from_poly(state.space.normal_form_poly(g), dim, 0) for g in state.generators
    ]
    rng = random.Random(19)
    draw = lambda: random_bounded_super(state.ctx, dim, 0, rng, state.bound, state.jdegs, 3)
    # an exact part keeps h, and so H, from vanishing
    koszul = koszul_operator(state.moment)
    probes = [draw() + koszul(draw()) for _ in range(6)]
    assert state.cc.i.name == "Phi" and state.cc.h.name == "H"
    for op in ("i", "h"):
        for x in gens + probes + [state.kc.p(y) for y in probes]:
            got, want = getattr(state.cc, op)(x), getattr(direct, op)(x)
            assert got == want and _reliables(got) == _reliables(want)
            assert got.reliable == want.reliable
    assert any(not state.cc.h(y).is_zero() for y in probes)


def test_product_table_equals_reduced_star_on_every_triple(state):
    gens = [state.space.normal_form_poly(g) for g in state.generators]
    pipe = _pipeline(state)
    degs = [g.degree() for g in gens]
    idx = range(len(gens))
    triples = [
        (a, b, c)
        for a in idx
        for b in idx
        for c in idx
        if degs[a] + degs[b] + degs[c] <= state.bound
    ]
    assert CONFIG.star_triples == "all" and len(triples) > 50
    pairs = {
        (a, b): reduced_star(gens[a], gens[b], pipe)
        for a in idx
        for b in idx
        if degs[a] + degs[b] <= state.bound
    }
    product = ProductTable(pipe)
    for a, b, c in triples:
        for f, g in ((pairs[(a, b)], gens[c]), (gens[a], pairs[(b, c)])):
            got, want = product(f, g), reduced_star(f, g, pipe)
            assert got == want and got.reliable == want.reliable, (a, b, c)
    # a reliable order below the truncation carries through the table
    a, b, c = max(triples, key=lambda t: degs[t[0]] + degs[t[1]])
    f = Series(state.ctx, state.work_order, pairs[(a, b)].coeffs, state.work_order - 2)
    got, want = product(f, gens[c]), reduced_star(f, gens[c], pipe)
    assert got == want and got.reliable == want.reliable == f.order - 2


@pytest.mark.parametrize("scenario_state", ["state", "torus_state", "torus_registry_state"])
def test_every_table_entry_equals_reduced_star(scenario_state, request):
    # at bounds 4 and 5, over every pair of quotient-model monomials within
    # the bound: the table's entry, read back as a product, equals
    # reduced_star of the pair in value and reliable order.  On every state
    # the generator pair products, which the stage reads off the table on
    # these scenarios, equal the direct ones.  t2-c4 at its registry size is
    # where associativity reads the table although it fills more entries
    # than the direct route's two products per triple; the monomial sweep
    # there tests the code the smaller bounds test, so that size checks
    # what it adds: every generator triple's residual, then every entry the
    # table filled, read back against reduced_star of its pair
    st = request.getfixturevalue(scenario_state)
    registry_size = scenario_state == "torus_registry_state"
    pipe, ctx, gens = _pipeline(st), st.ctx, st.generators
    direct = lambda f, g: reduced_star(f, g, pipe)
    table = ProductTable(pipe)
    if not registry_size:
        grades = {g for deg in range(st.bound + 1) for g in ctx.grades_of_degree(deg)}
        monomials = [
            Poly.monomial(ctx, m) for g in grades for m in st.space.complement_monomials(g)
        ]
        pairs = [
            (f, g) for f in monomials for g in monomials if f.degree() + g.degree() <= st.bound
        ]
        for f, g in pairs:
            got, want = table(f, g), direct(f, g)
            assert got == want and got.reliable == want.reliable, (f, g)
            assert table.entries[(*f.terms, *g.terms)][0] == want.reliable
        assert len(table.entries) == len(pairs) > 100
    assert any(len(g.terms) > 1 for g in gens)
    degs = [g.degree() for g in gens]
    idx = range(len(gens))
    products = {}
    for a in idx:
        for b in idx:
            if degs[a] + degs[b] <= st.bound:
                got, want = table(gens[a], gens[b]), direct(gens[a], gens[b])
                assert got == want and got.reliable == want.reliable, (a, b)
                products[(a, b)] = got
    if not registry_size:
        return
    triples = [
        (a, b, c)
        for a in idx
        for b in idx
        for c in idx
        if degs[a] + degs[b] + degs[c] <= st.bound
    ]
    for a, b, c in triples:
        left, right = (products[(a, b)], gens[c]), (gens[a], products[(b, c)])
        got, want = table.residual(left, right), direct(*left) - direct(*right)
        assert got == want and got.reliable == want.reliable, (a, b, c)
    for m1, m2 in list(table.entries):
        f, g = Poly.monomial(ctx, m1), Poly.monomial(ctx, m2)
        got, want = table(f, g), direct(f, g)
        assert got == want and got.reliable == want.reliable == table.entries[(m1, m2)][0]
    assert (len(products), len(triples), len(table.entries)) == (121, 547, 215)


@pytest.mark.parametrize(
    "workload, scenario",
    [
        ("circle", "s1-c4"),
        ("rational", "commuting-n2"),
        ("torus", "t2-c4"),
        ("rational", "angular-momentum-m2"),
    ],
)
def test_reduced_star_equals_the_graded_star_route(workload, scenario, request):
    # reduced_star is the Moyal product followed by res_nu; the reference is
    # res_nu(prol f * prol g) through the graded star product, prol = id.
    # t2-c4 has 3 grading rows; angular-momentum-m2 and commuting-n2 have
    # polynomial generators, on which the stage takes the direct route
    if scenario in ("s1-c4", "t2-c4"):
        st = request.getfixturevalue("state" if scenario == "s1-c4" else "torus_state")
    else:
        st = _before_reduced_star(_workload_config(workload, scenario))
    pipe, dim, gens = _pipeline(st), st.moment.lie.dim, st.generators

    def lift(f):
        if isinstance(f, Series):
            return SuperElement.scalar(f, dim)
        return SuperElement.from_poly(f, dim, pipe.order)

    def reference(f, g):
        prol = st.dc.i
        return pipe.res_nu(st.star.star(prol(lift(f)), prol(lift(g)))).as_series()

    degs = [g.degree() for g in gens]
    idx = range(len(gens))
    operands = [(gens[a], gens[b]) for a in idx for b in idx if degs[a] + degs[b] <= st.bound]
    # a product of two generators with nu content as the left operand, as in
    # associativity; the right one a generator within the bound, or 1 where
    # none fits (angular-momentum-m2 has no generator triple within it)
    thirds = gens + [Poly.const(st.ctx, 1)]
    products = (
        (reduced_star(gens[a], gens[b], pipe), h)
        for a in idx
        for b in idx
        for h in thirds
        if degs[a] + degs[b] + h.degree() <= st.bound
    )
    pair, h = next((f, h) for f, h in products if any(not p.is_zero() for p in f.coeffs[1:]))
    lowered = Series(st.ctx, pipe.order, pair.coeffs, pipe.order - 2)  # reliable below the order
    zero = Poly.zero(st.ctx)
    operands += [(pair, h), (lowered, h), (zero, gens[-1]), (gens[-1], zero)]
    for f, g in operands:
        got, want = reduced_star(f, g, pipe), reference(f, g)
        assert got == want and got.reliable == want.reliable, (f, g)


def _record_tables(monkeypatch):
    """The list of every ProductTable the runner builds."""
    tables = []

    def recorded_table(pipe):
        tables.append(reduction.ProductTable(pipe))
        return tables[-1]

    monkeypatch.setattr(runner, "ProductTable", recorded_table)
    return tables


def test_work_counts_on_the_circle_workload(monkeypatch):
    # reduced_star calls: ideal-invariance 2 per probe (4) and the stage's
    # product table's 424 entries.  Every monomial of an s1-c4 generator is
    # a generator, so unit, the pair products of classical-part,
    # associativity and the direct side of cohomology-star.degree-zero all
    # read the table, and each entry is filled once.  Direct classical Phi
    # evaluations: the transfer's axiom and closed-form checks, then one
    # per basis column
    counts = _count_reduced_star(monkeypatch)
    tables = _record_tables(monkeypatch)
    counts["Phi"] = 0
    original_transfer = runner.brst_transfer

    def counted_transfer(*args, **kwargs):
        out, d_z = original_transfer(*args, **kwargs)
        phi = out.i

        def fn(x):
            counts["Phi"] += 1
            return phi(x)

        i = OperatorHandle(phi.name, fn, phi.degree, phi.raises_filtration)
        return dataclasses.replace(out, i=i), d_z

    monkeypatch.setattr(runner, "brst_transfer", counted_transfer)
    report = runner.run_scenario(CONFIG)
    assert report.verdict == "pass"
    assert counts == {"reduced_star": 432, "Phi": 46}
    assert [len(table.entries) for table in tables] == [424]


def test_work_counts_on_the_rational_workload(monkeypatch):
    # commuting-n2's generators are not sums of generator monomials, so the
    # stage builds no product table and every product calls reduced_star
    # directly: associativity's 20 sampled triples 2 each, and unit, the
    # pair products and ideal-invariance.  The direct side of
    # cohomology-star.degree-zero reads the cached pair products (a table
    # would need 305 distinct monomial pairs for associativity alone)
    counts = _count_reduced_star(monkeypatch)
    tables = _record_tables(monkeypatch)
    report = runner.run_scenario(_workload_config("rational", "commuting-n2"))
    assert report.verdict == "pass"
    assert counts == {"reduced_star": 83}
    assert tables == []
