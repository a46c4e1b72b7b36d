"""Scenario execution: the ordered verification pipeline with reporting.

Stages run in a fixed order; a failing stage marks everything after it as
skipped.  Each stage function states only the identities it checks; one
executor, `StageRun`, does the rest once for every stage: it prefixes check
ids with the stage, seeds the stage's random generator from
`f"{seed}:{stage}"`, counts probes (the number of residual items unless a
check says otherwise), groups residuals by identity label and loops over the
contraction axioms.

Truncation is derived from the residual: a `Poly` or an order-0 residual is
tested for exact zero, a residual at the work order through the order the
checks assert, and any other order is a `TruncationError`, reported as the
stage's error record.  Only two checks, whose residuals lose one order to a
division by nu, truncate explicitly.

The three perturbation-lemma transfers (the deformed restriction, then the
classical and the quantum BRST transfer) run one path, `StageRun.lemma`:
draw Y probes, set X = res(Y), check the lemma hypotheses on the first few
(a failure is a "hypotheses" record, success a "build" record), then the
contraction axioms on every pair.  Each stage states its transfer's facts
at the call: the nu-order and number of the Y probes, how many of them the
hypotheses are checked on and the build anchor; the two BRST transfers
(`StageRun.reduction`) add their operator suffix and closed-form anchor.
Each BRST stage builds its side's `brst.BrstOperators` set once and stores
it on `RunState`, and each BRST transfer moves the delta of the set that
its BRST stage checked.

`STAGE_FUNCTIONS` maps each stage of `STAGE_ORDER` to its function
`stage_<name>`.  A record's wall time runs from the stage's previous record
(or its start) to its own verdict, so it includes building the check's
residuals.  All randomness is seeded from the scenario configuration, so
two runs of the same config produce identical reports up to timing fields.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import __version__
from .brst import (
    brst_transfer,
    certify_invariant,
    classical_charge,
    classical_operators,
    closed_form_H,
    closed_form_Phi,
    poisson_action,
    quotient_representation,
    reduced_poisson,
    splitting_residuals,
)
from .errors import (
    ConfigError,
    InvarianceError,
    LemmaHypothesisError,
    RedstarError,
    TruncationError,
)
from .koszul import (
    KoszulSpace,
    MomentMapData,
    build_koszul_contraction,
    check_acyclicity,
    koszul_contraction,
)
from .parsing import parse_polynomial
from .poisson import (
    check_quantum_covariance,
    check_strong_invariance,
    moyal_star_series,
    poisson_bracket,
    poisson_data,
)
from .poly import Poly
from .probes import random_bounded_super, random_poly
from .quantum import (
    build_quantum_operators,
    check_quantum_splitting,
    quantum_charge,
    star_action,
)
from .reduction import (
    ProductTable,
    ReductionPipeline,
    closed_form_res_nu,
    deformed_restriction,
    invariant_generators,
    quantum_reduction,
    reduced_star,
    reduced_star_cohomology,
)
from .report import CheckRecord, Report
from .scenarios import FULL_STAGES as STAGE_ORDER, GENERATOR_CAP
from .series import Series
from .superalg import LieAlgebraData, StarProduct, SuperElement, graded_poisson, op_columns

NU_HEADROOM = 2  # extra truncation orders to absorb divisions by nu


def _splitting_anchors(s):
    """Anchors of the BRST splitting identities; `s` is "" or "_nu"."""
    return {
        f"D{s}-delta{s}-2koszul{s}": f"D{s} = delta{s} + 2 koszul{s}",
        f"D{s}^2": f"D{s}^2 = 0",
        f"delta{s}^2": f"delta{s}^2 = 0",
        f"koszul{s}^2": f"koszul{s}^2 = 0",
        f"delta{s}.koszul{s}+koszul{s}.delta{s}": f"delta{s} and koszul{s} supercommute",
    }


def _transfer_anchors(s):
    """Anchors of the axioms of a BRST transfer; `s` is "" or "_nu"."""
    return {
        "p.i=id": f"res{s} Phi{s} = id",
        "d h+h d=id-i.p": f"D{s} H{s} + H{s} D{s} = id - Phi{s} res{s}",
        "p d=d p": f"res{s} is a chain map for (D{s}, d_z{s})",
        "d i=i d": f"Phi{s} is a chain map",
        "h h=0": f"H{s}^2 = 0",
        "h i=0": f"H{s} Phi{s} = 0",
        "p h=0": f"res{s} H{s} = 0",
    }


# Anchors of the seven contraction axioms (labels of Contraction.axiom_residuals),
# per stage that checks a contraction.
AXIOM_ANCHORS = {
    "contraction": {
        "p.i=id": "res prol = id",
        "d h+h d=id-i.p": "koszul h + h koszul = id - prol res",
        "p d=d p": "res is a chain map",
        "d i=i d": "prol is a chain map",
        "h h=0": "side condition 1",
        "h i=0": "side condition 2 (h prol = 0)",
        "p h=0": "side condition 3 (res h = 0)",
    },
    "deformed-restriction": {
        "p.i=id": "res_nu prol = id",
        "d h+h d=id-i.p": "koszul_nu h_nu + h_nu koszul_nu = id - prol res_nu",
        "p d=d p": "res_nu is a chain map",
        "d i=i d": "prol is a chain map for koszul_nu",
        "h h=0": "h_nu^2 = 0",
        "h i=0": "h_nu prol = 0",
        "p h=0": "res_nu h_nu = 0",
    },
    "classical-reduction": _transfer_anchors(""),
    "quantum-reduction": _transfer_anchors("_nu"),
}


@dataclass
class RunState:
    config: object
    ctx: object = None
    lam: object = None
    moment: object = None
    star: object = None
    jdegs: tuple = ()
    kc: object = None
    space: object = None
    classical: object = None  # classical-brst's BrstOperators: D, delta, koszul
    quantum: object = None  # quantum-brst's BrstOperators: D_nu, delta_nu, koszul_nu
    cc: object = None  # classical transfer: Phi, H and d_z
    dc: object = None
    qc: object = None  # quantum transfer: Phi_nu, H_nu and d_z_nu
    generators: list = field(default_factory=list)

    @property
    def order(self):
        """The nu-order that checks assert."""
        return self.config.order

    @property
    def work_order(self):
        """The truncation the operators work at, with room for divisions by nu."""
        return self.config.order + NU_HEADROOM

    @property
    def bound(self):
        return self.config.degree_bound

    @property
    def torus(self):
        return bool(self.config.torus_rows)


def _summary(obj):
    """(terms, max degree) of a Poly, Series or SuperElement residual."""
    if isinstance(obj, Poly):
        return len(obj.terms), obj.degree()
    return obj.nonzero_term_count(), obj.max_degree()


def _trim(text, n=400):
    text = str(text)
    return text if len(text) <= n else text[: n - 4] + " ..."


class StageRun:
    """The check executor of one stage: records, ids, seeding and timing."""

    def __init__(self, state, stage):
        self.state = state
        self.stage = stage
        self.prefix = stage  # of check ids; a stage may switch it for a group
        self.rng = random.Random(f"{state.config.seed}:{stage}")
        self.records = []
        self._lap = time.perf_counter()

    def record(self, name, anchor, status="pass", **fields):
        """Append a record; its wall time is the time since the previous one."""
        now = time.perf_counter()
        rec = CheckRecord(
            f"{self.prefix}.{name}", self.stage, anchor, status,
            wall_time_s=now - self._lap, **fields,
        )
        self._lap = now
        self.records.append(rec)
        return rec

    def truncation(self, order):
        """The truncation of a zero test at nu-order `order` (None: exact).

        Order 0 is tested exactly, the work order through the order the
        checks assert; any other order raises TruncationError.
        """
        st = self.state
        if order == 0:
            return None
        if order == st.work_order:
            return st.order
        raise TruncationError(
            f"zero test of a residual at nu-order {order}: checks test order 0 "
            f"or the work order {st.work_order}"
        )

    def vanishes(self, residual, upto=None):
        """Exact zero test, through `upto` if given, else through the derived truncation."""
        if isinstance(residual, Poly):
            return residual.is_zero()
        return residual.is_zero(self.truncation(residual.order) if upto is None else upto)

    def check(self, name, anchor, items, probes=None, upto=None, detail=None):
        """One record from (label, residual) items; exact zero means pass.

        The first nonzero residual is the witness.  `probes` defaults to
        the number of items; `upto` overrides the derived truncation.
        """
        fields = dict(probes=len(items) if probes is None else probes, detail=detail)
        for label, residual in items:
            if not self.vanishes(residual, upto):
                terms, maxdeg = _summary(residual)
                return self.record(
                    name, anchor, "fail", witness=_trim(f"{label}: {residual}"),
                    residual_terms=terms, residual_max_degree=maxdeg, **fields,
                )
        return self.record(name, anchor, **fields)

    def by_label(self, anchors, items):
        """One check per identity label (the text before `[`), over all its probes.

        Only each label's first nonzero residual is kept; `items` may be a generator.
        """
        groups = {}  # label -> [probes, first nonzero (label, residual) or None]
        for label, residual in items:
            group = groups.setdefault(label.split("[")[0], [0, None])
            group[0] += 1
            if group[1] is None and not self.vanishes(residual):
                group[1] = (label, residual)
        for base, (n, bad) in groups.items():
            self.check(base, anchors.get(base, base), [bad] if bad else [], n)

    def axioms(self, contraction, pairs):
        """The contraction axioms on (X probe, Y probe) pairs, one check per axiom.

        `pairs` may be a generator: each pair's residuals are tested and
        dropped before the next pair is drawn.
        """
        items = (item for x, y in pairs for item in contraction.axiom_residuals(x, y).items())
        self.by_label(AXIOM_ANCHORS[self.stage], items)

    def lemma(self, transfer, order, probes, lemma, build):
        """A perturbation-lemma transfer, then the contraction axioms.

        Draws `probes` Y probes at nu-order `order` and sets X = res(Y); runs
        `transfer(probes_X, probes_Y, upto)` with the lemma hypotheses checked
        on the first `lemma` pairs (success is the "build" record, anchored
        at `build`), then checks the axioms of the transferred contraction on
        every pair.  Returns (contraction, the transfer's second output, X
        probes, Y probes), or None after a failed hypothesis.
        """
        probes_Y = [self.element(order) for _ in range(probes)]
        probes_X = [self.state.kc.p(y) for y in probes_Y]
        try:
            out, second = transfer(probes_X[:lemma], probes_Y[:lemma], upto=self.truncation(order))
        except LemmaHypothesisError as exc:
            self.record("hypotheses", "transfer lemma hypotheses", "fail", witness=_trim(exc))
            return None
        self.record("build", build)
        self.axioms(out, zip(probes_X, probes_Y))
        return out, second, probes_X, probes_Y

    def reduction(self, transfer, contraction, delta, order, probes, lemma, s, build, closed_forms):
        """The BRST transfer of `delta` along `contraction` and its checks.

        The lemma path with `transfer(contraction, delta, ...)`, then the
        closed forms of H and Phi (anchored at `closed_forms`, labels with the
        operator suffix `s`) and, on torus scenarios, Phi = prol.  Returns the
        transferred contraction and the Y probes, or None after a failed
        hypothesis.
        """
        transfer = functools.partial(transfer, contraction, delta)
        built = self.lemma(transfer, order, probes, lemma, build)
        if built is None:
            return None
        out, d_z, probes_X, probes_Y = built
        Hcf = closed_form_H(contraction, delta)
        Phicf = closed_form_Phi(contraction, delta, out.h, d_z)
        items = [(f"H{s} - closed form", out.h(y) - Hcf(y)) for y in probes_Y]
        items += [(f"Phi{s} - closed form", out.i(x) - Phicf(x)) for x in probes_X]
        self.check("closed-forms", closed_forms, items)
        if self.state.torus:
            items = [(f"Phi{s} - prol", out.i(x) - contraction.i(x)) for x in probes_X]
            self.check("equivariant-phi", f"equivariant prolongation: Phi{s} = prol", items)
        return out, probes_Y

    def element(self, order, bound=None, terms=2, hdegree=None):
        """A random BRST element within the degree bound (the scenario's by default).

        The one probe draw of every stage, from the stage's rng; with
        `hdegree` it is a ghost-free chain of that antighost count
        (`random_bounded_super`).
        """
        st = self.state
        bound = st.bound if bound is None else bound
        return random_bounded_super(
            st.ctx, st.moment.lie.dim, order, self.rng, bound, st.jdegs, terms, hdegree
        )


# -- stages -----------------------------------------------------------------------


def stage_load(state):
    cfg = state.config
    run = StageRun(state, "load")
    ctx = state.ctx = cfg.build_context()

    def parse_scalar(text):
        p = parse_polynomial(text, ctx)
        if p.degree() > 0:
            raise ConfigError(f"expected a constant, got {text!r}")
        return p.constant_term()

    lam = poisson_data(ctx, [(a, b, parse_scalar(v)) for a, b, v in cfg.poisson_entries])
    state.lam = lam
    run.record("poisson", "Lambda antisymmetric and invertible")

    try:
        lie = LieAlgebraData.build(
            cfg.lie_dim, [(a, b, c, v) for a, b, c, v in cfg.structure_constants]
        )
    except ValueError as exc:
        raise ConfigError(f"Lie data rejected: {exc}") from None
    run.record(
        "lie",
        "f antisymmetric; Jacobi identity; flags consistent",
        detail=f"abelian={lie.abelian} unimodular={lie.unimodular}",
    )

    comps = tuple(parse_polynomial(src, ctx) for src in cfg.moment_map)
    state.moment = MomentMapData(ctx, comps, lie)
    state.jdegs = tuple(max(j.degree(), 0) for j in comps)

    if ctx.gradings:
        items = [
            (f"J_{a + 1} homogeneous", Poly.zero(ctx) if j.is_homogeneous() else j)
            for a, j in enumerate(comps)
        ]
        run.check("homogeneity", "components homogeneous per grading", items, probes=0)
        if state.torus:
            bad = Poly.zero(ctx)  # the last component off weight zero on the last such row
            for r in cfg.torus_rows:
                for j in comps:
                    if any(any(ctx.torus_weights(m, (r,))) for m in j.terms):
                        bad = j
            run.check(
                "weight-zero",
                "components invariant (weight zero) on torus rows",
                [("torus weight of J", bad)],
                probes=0,
            )

    eq = state.moment.check_equivariance(lam)
    run.check("equivariance", "{J_a,J_b} = f_ab^c J_c", [(f"pair {ab}", r) for ab, r in eq])

    if cfg.action:
        items = []
        for a, var, expr in cfg.action:
            want = parse_polynomial(expr, ctx)
            got = poisson_bracket(comps[a - 1], Poly.variable(ctx, var), lam)
            items.append((f"{{J_{a}, {var}}}", got - want))
        run.check("calibration", "{J_a, v} equals the declared infinitesimal action", items)

    state.star = StarProduct(lam, Fraction(cfg.clifford_coeff))
    return run.records


def stage_covariance(state):
    run = StageRun(state, "covariance")
    run.check(
        "pairs",
        "J_a*J_b - J_b*J_a = nu f_ab^c J_c",
        check_quantum_covariance(state.moment, state.lam, state.work_order),
    )
    return run.records


def stage_strong_invariance(state):
    run = StageRun(state, "strong-invariance")
    n = state.config.probe_counts()["strong_invariance"]
    probes = [Poly.const(state.ctx, 1)] + [
        random_poly(state.ctx, run.rng, 4, 4) for _ in range(n - 1)
    ]
    run.check(
        "probes",
        "J_a*f - f*J_a = nu {J_a, f}",
        check_strong_invariance(state.moment, state.lam, state.work_order, probes),
    )
    return run.records


def stage_acyclicity(state):
    run = StageRun(state, "acyclicity")
    rep = check_acyclicity(state.moment, state.bound)
    state.space = rep.space
    by_degree = {}
    for g, d in rep.h0_dims.items():
        by_degree[g[0]] = by_degree.get(g[0], 0) + d
    run.record(
        "H0",
        "H_0 realized as the canonical monomial complement",
        detail="dim H_0 by degree: "
        + " ".join(f"{d}:{v}" for d, v in sorted(by_degree.items())),
    )
    for i in range(1, state.moment.lie.dim + 1):
        anchor = f"dim H_{i} = 0 in all graded slices up to degree {state.bound}"
        if not any(j == i for j, _ in rep.dims):
            # nothing was evaluated: a pass here would be vacuous
            run.record(
                f"H{i}", anchor, "fail", detail=f"no K_{i} slice within degree bound {state.bound}"
            )
            continue
        total = rep.total(i)
        witness = None
        if total and rep.witness_slice and rep.witness_slice[0] == i:
            chain = " + ".join(
                f"({p})*e_{'e_'.join(str(a) for a in aset)}" for aset, p in rep.witness.items()
            )
            witness = _trim(f"nontrivial cycle at slice {rep.witness_slice[1]}: {chain}")
        run.record(
            f"H{i}",
            anchor,
            "pass" if total == 0 else "fail",
            residual_terms=total,
            residual_max_degree=max(
                (g[0] for (j, g), v in rep.dims.items() if j == i and v), default=-1
            ),
            witness=witness,
            detail=f"total dim H_{i} over slices: {total}",
        )
    return run.records


def stage_contraction(state):
    run = StageRun(state, "contraction")
    # the acyclicity stage's space, whose slices and solvers h reuses
    state.space = state.space or KoszulSpace(state.moment, state.bound)
    kc = state.kc = koszul_contraction(state.space)
    run.record(
        "build", "res/prol/h assembled from canonical slice solves; side conditions normalized"
    )
    dim = state.moment.lie.dim

    def pairs():  # drawn one at a time, so only one pair's residuals are held
        for i in range(0, dim + 1):
            for _ in range(state.config.probe_counts()["contraction"]):
                y = run.element(0, hdegree=i)
                yield kc.p(run.element(0)), y

    run.axioms(kc, pairs())
    # determinism: a rebuilt contraction is the same operator
    kc2 = build_koszul_contraction(state.moment, state.bound)
    items = []
    for _ in range(5):
        y = run.element(0)
        items.append(("h rebuilt minus h", kc.h(y) - kc2.h(y)))
        items.append(("res rebuilt minus res", kc.p(y) - kc2.p(y)))
    run.check("determinism", "rebuilt homotopy is bit-identical on probes", items, probes=5)
    return run.records


def stage_classical_brst(state):
    run = StageRun(state, "classical-brst")
    theta = classical_charge(state.moment, 0)
    run.check(
        "charge",
        "{theta, theta} = 0",
        [("{theta,theta}", graded_poisson(theta, theta, state.lam))],
        probes=0,
    )
    ops = state.classical = classical_operators(state.moment, state.lam, theta)
    n = state.config.probe_counts()["splitting"]
    probes = [run.element(0) for _ in range(n)]
    run.by_label(_splitting_anchors(""), splitting_residuals(ops, probes))
    return run.records


def stage_classical_reduction(state):
    cfg = state.config
    run = StageRun(state, "classical-reduction")
    dim = state.moment.lie.dim
    built = run.reduction(
        brst_transfer, state.kc, state.classical.delta, order=0, probes=6, lemma=3, s="",
        build="transfer of D along the extended contraction (lemma version 1)",
        closed_forms="lemma output equals H = h/2 sum (-1/2)^j (h delta + delta h)^j and "
        "Phi = prol - H(delta prol - prol d_z)",
    )
    if built is None:
        return run.records
    cc = built[0]
    # Phi and H are linear: from here on each basis column is evaluated once
    # (Phi_nu and H_nu stay direct, as delta_nu divides by nu)
    cc = state.cc = replace(cc, i=op_columns(cc.i, name="Phi"), h=op_columns(cc.h, name="H"))
    # the invariant generators, certified once and stored as normal forms;
    # reduced-star reads state.generators
    if cfg.invariant_mode == "weights":
        gens = invariant_generators(state.ctx, cfg.torus_rows, GENERATOR_CAP)
    else:
        gens = [parse_polynomial(src, state.ctx) for src in cfg.declared_invariants]
    items = []
    nf = state.space.normal_form_poly
    for g in gens:
        normal = nf(g)
        if normal.is_zero():  # a zero generator would pass every degree filter
            items.append((f"generator {g} lies in the ideal", g))
            continue
        # the stored normal form is certified: {J_a, J_b h} = f_ab^c J_c h
        # + J_b {J_a, h} lies in the ideal, so g and its normal form get the
        # same verdict
        try:
            certify_invariant(normal, state.moment, state.lam, state.space)
            state.generators.append(normal)
            items.append((f"generator {g}", Poly.zero(state.ctx)))
        except InvarianceError:
            items.append((f"generator {g}", g))
    anchor = "invariant generators certified (weight zero or bracket into the ideal)"
    detail = f"{len(state.generators)} generator(s)"
    if not gens:  # with no candidate, a pass would have evaluated nothing
        run.record("generators", anchor, "fail", detail="no candidate generators")
    elif any(g.is_zero() for g in gens):  # its item's residual g = 0 vanishes
        run.record("generators", anchor, "fail", witness="generator 0 is zero", detail=detail)
    elif any(g.degree() > 0 for g in state.generators) or any(not r.is_zero() for _, r in items):
        run.check("generators", anchor, items, detail=detail)
    else:  # constants alone: reduced-star would multiply nothing of positive degree
        run.record("generators", anchor, "fail", detail=f"{detail}, none of positive degree")
    # reduced Poisson bracket checks
    gens = state.generators
    if not gens:
        return run.records
    run.prefix = "reduced-poisson"
    rp = lambda f, g: reduced_poisson(f, g, cc.i, state.kc.p, state.lam, dim)
    items = [("antisymmetry {f,f}", Poly.zero(state.ctx))]
    for a, b in itertools.combinations(range(min(len(gens), 6)), 2):
        items.append((f"antisym ({a},{b})", rp(gens[a], gens[b]) + rp(gens[b], gens[a])))
    for a in range(min(len(gens), 4)):
        items.append((f"{{f,f}} ({a})", rp(gens[a], gens[a])))
        items.append((f"constants central ({a})", rp(Poly.const(state.ctx, 1), gens[a])))
    run.check("algebra", "reduced bracket antisymmetric; constants central", items)
    items = []
    for a, b, c in itertools.islice(itertools.combinations(range(min(len(gens), 5)), 3), 6):
        fa, fb, fc = gens[a], gens[b], gens[c]
        jac = rp(fa, rp(fb, fc)) + rp(fb, rp(fc, fa)) + rp(fc, rp(fa, fb))
        items.append((f"jacobi ({a},{b},{c})", jac))
    if items:
        run.check("jacobi", "reduced bracket satisfies the Jacobi identity", items)
    # representative independence and the direct Dirac route
    items = []
    items2 = []
    for k in range(6):
        f = gens[k % len(gens)]
        g = random_poly(state.ctx, run.rng, 2, 2)
        other = gens[(k + 1) % len(gens)]
        ja = state.moment.components[k % dim]
        lhs = nf(poisson_bracket(f + ja * g, other, state.lam))
        rhs = nf(poisson_bracket(f, other, state.lam))
        items.append((f"ideal shift ({k})", lhs - rhs))
        items2.append((f"Dirac route ({k})", rp(f, other) - rhs))
    run.check(
        "ideal-invariance", "bracket unchanged when a representative shifts by J_a g", items
    )
    run.check("dirac-route", "res{Phi f, Phi g} = res{prol f, prol g}", items2)
    return run.records


def stage_quantum_brst(state):
    cfg = state.config
    run = StageRun(state, "quantum-brst")
    star = state.star
    theta_nu = quantum_charge(state.moment, state.work_order)
    charge = run.check(
        "charge",
        "theta_nu * theta_nu = 0",
        [("theta_nu*theta_nu", star.star(theta_nu, theta_nu))],
        probes=0,
    )
    if charge.status == "fail":
        return run.records
    qops = state.quantum = build_quantum_operators(state.moment, star, theta_nu)
    probes = [run.element(state.work_order) for _ in range(cfg.probe_counts()["splitting"])]
    run.by_label(_splitting_anchors("_nu"), check_quantum_splitting(qops, probes))

    # classical limits, against a classical set of this stage's own
    cops = classical_operators(state.moment, state.lam, classical_charge(state.moment, 0))
    items = []
    for x in probes[:8]:
        x0 = x.classical_part()
        for op in ("koszul", "delta", "D"):
            limit = getattr(qops, op)(x).classical_part() - getattr(cops, op)(x0)
            items.append((f"{op}_nu|nu=0 - {op}", limit))
    run.check(
        "classical-limit",
        "each deformed operator restricts to its classical counterpart at nu = 0",
        items,
        probes=8,
    )

    # left-module property of the deformed Koszul differential
    items = []
    for k in range(8):
        fpoly = random_poly(state.ctx, run.rng, 2, 2)
        fel = SuperElement.from_poly(fpoly, state.moment.lie.dim, state.work_order)
        x = run.element(state.work_order, state.bound - 2)
        lhs = qops.koszul(star.star(fel, x))
        rhs = star.star(fel, qops.koszul(x))
        items.append((f"module ({k})", lhs - rhs))
    run.check("left-module", "koszul_nu(f * x) = f * koszul_nu(x) for scalar f", items)

    # star associativity sample
    items = []
    for k in range(cfg.probe_counts()["associativity_sample"]):
        a, b, c = (run.element(state.work_order, 4) for _ in range(3))
        lhs = star.star(star.star(a, b), c)
        items.append((f"assoc ({k})", lhs - star.star(a, star.star(b, c))))
    run.check("associativity", "(x*y)*z = x*(y*z) for the graded star product", items)
    return run.records


def stage_deformed_restriction(state):
    run = StageRun(state, "deformed-restriction")
    dim = state.moment.lie.dim
    built = run.lemma(
        functools.partial(deformed_restriction, state.kc, state.moment, state.star),
        order=state.work_order, probes=state.config.probe_counts()["restriction"], lemma=3,
        build="lemma version 2 applied to the deformed Koszul differential",
    )
    if built is None:
        return run.records
    dc, t, _, probes_Y = built
    state.dc = dc
    # closed form on the antighost-free sector
    cf = closed_form_res_nu(state.kc, t, state.work_order)
    items = []
    for y in probes_Y:
        y0 = SuperElement(
            state.ctx, dim, state.work_order,
            {k: c for k, c in y.terms.items() if not k[1]},
            _clean=True,
        )
        items.append(("res_nu - closed form", dc.p(y0) - cf(y0)))
    run.check("closed-form", "res_nu = res (id + (koszul_nu - koszul) h)^{-1} on functions", items)
    # classical limit and exactness of the components
    items = [
        ("res_nu|nu=0 - res", dc.p(y).classical_part() - state.kc.p(y).classical_part())
        for y in probes_Y
    ]
    run.check("classical-limit", "res_nu = res + O(nu)", items)
    items = []
    for a in range(dim):
        ja = SuperElement.from_poly(state.moment.components[a], dim, state.work_order)
        items.append((f"res_nu(J_{a + 1})", dc.p(ja)))
    run.check("kills-constraints", "res_nu(J_a) = 0 (constraints are exact)", items)
    return run.records


def stage_equivariance_lemma(state):
    cfg = state.config
    run = StageRun(state, "equivariance-lemma")
    dim = state.moment.lie.dim
    nf = state.space.normal_form_poly

    def torus_weights(el):
        """(coefficient, torus weight) for every monomial of el."""
        for coeff in el.terms.values():
            for p in coeff.coeffs:
                for m in p.terms:
                    yield p, state.ctx.torus_weights(m, cfg.torus_rows)

    # h preserves the torus weights
    items = []
    for _ in range(10):
        y = run.element(0, terms=1)
        seen = {w for _, w in torus_weights(y)}
        bad = Poly.zero(state.ctx)
        for p, w in torus_weights(state.kc.h(y)):
            if w not in seen:
                bad = p
        items.append(("weights preserved", bad))
    run.check(
        "h-weights", "homotopy output carries the same torus weights as its input", items
    )
    # deformed equals classical quotient representation
    repLz = quotient_representation(
        state.moment, poisson_action(state.lam), state.kc.p, state.kc.i
    )
    repLz_nu = quotient_representation(
        state.moment, star_action(state.star), state.dc.p, state.dc.i
    )
    n = cfg.probe_counts()["lemma"]
    items = []
    for k in range(n):
        fpoly = nf(random_poly(state.ctx, run.rng, 4, 3))
        fx = SuperElement.from_poly(fpoly, dim, state.work_order)
        for a in range(dim):
            items.append((f"component {a + 1}, probe {k}", repLz_nu.ops[a](fx) - repLz.ops[a](fx)))
    run.check(
        "representations",
        "deformed quotient representation equals the classical one",
        items,
        probes=n,
    )
    # representation property of the deformed representation
    probes = [
        SuperElement.from_poly(nf(random_poly(state.ctx, run.rng, 3, 2)), dim, state.work_order)
        for _ in range(5)
    ]
    items = [
        (f"[Lz_{a},Lz_{b}] probe {k}", r)
        for (a, b, k), r in repLz_nu.commutator_residuals(probes)
    ]
    run.check(
        "representation-property",
        "[Lz_a, Lz_b] = f_ab^c Lz_c for the deformed representation",
        items,
        probes=len(probes),
    )
    return run.records


def stage_quantum_reduction(state):
    run = StageRun(state, "quantum-reduction")
    built = run.reduction(
        quantum_reduction, state.dc, state.quantum.delta, order=state.work_order, probes=5,
        lemma=2, s="_nu",
        build="lemma version 1 applied to the quantum BRST differential",
        closed_forms="H_nu = h_nu/2 sum (-1/2)^j (h_nu delta_nu + delta_nu h_nu)^j; "
        "Phi_nu = prol - H_nu(delta_nu prol - prol d_z_nu)",
    )
    if built is None:
        return run.records
    qc, probes_Y = built
    state.qc = qc
    items = [
        ("H_nu|nu=0 - H", qc.h(y).classical_part() - state.cc.h(y.classical_part()))
        for y in probes_Y
    ]
    run.check(
        "classical-limit", "H_nu = H + O(nu) (classical contraction recovered at nu = 0)", items
    )
    return run.records


def stage_reduced_star(state):
    cfg = state.config
    run = StageRun(state, "reduced-star")
    dim = state.moment.lie.dim
    gens = state.generators
    qc = state.qc
    pipe = ReductionPipeline(
        state.moment,
        state.lam,
        state.star,
        state.space,
        state.work_order,
        state.dc,
        qc,
    )
    nf = state.space.normal_form_poly
    one = Poly.const(state.ctx, 1)
    # one route for the generator-level products.  When every monomial of a
    # generator is itself a one-monomial generator (s1-c4 and t2-c4, whose
    # generators are monomials or, after the normal form, sums of them),
    # each table entry a product reads is, up to its coefficient, a
    # generator pair's product, read again by the other checks (through
    # 1 * g = g in associativity), so they all read one ProductTable.
    # Otherwise (angular-momentum-m2, commuting-n2, with polynomial
    # generators) the table would fill many entries that are read once, and
    # each product calls reduced_star directly
    monomials = {m for g in gens if len(g.terms) == 1 for m in g.terms}
    if all(m in monomials for g in gens for m in g.terms):
        reduced = ProductTable(pipe)
        residual = reduced.residual
    else:
        reduced = lambda f, g: reduced_star(f, g, pipe)
        residual = lambda left, right: reduced(*left) - reduced(*right)

    @functools.cache
    def star_pair(ia, ib):
        return reduced(gens[ia], gens[ib])

    @functools.cache
    def nf_product(ia, ib):  # the classical product commutes: once per unordered pair
        return nf(gens[ia] * gens[ib])

    # unit
    items = []
    for k in range(min(len(gens), 8)):
        g = Series.from_poly(gens[k], state.work_order)
        items.append((f"1*g ({k})", reduced(one, gens[k]) - g))
        items.append((f"g*1 ({k})", reduced(gens[k], one) - g))
    run.check("unit", "f * 1 = 1 * f = f", items)

    # classical part and first-order correspondence on all pairs
    items0 = []
    items1 = []
    for ia in range(len(gens)):
        for ib in range(len(gens)):
            if gens[ia].degree() + gens[ib].degree() > state.bound:
                continue
            product = star_pair(ia, ib)
            classical = nf_product(min(ia, ib), max(ia, ib))
            items0.append((f"nu^0 ({ia},{ib})", product.classical() - classical))
            if ib > ia:
                anti = product - star_pair(ib, ia)
                rp = reduced_poisson(gens[ia], gens[ib], state.cc.i, state.kc.p, state.lam, dim)
                items1.append((f"nu^1 ({ia},{ib})", anti.coefficient(1) - rp))
    run.check(
        "classical-part",
        "nu^0 coefficient of f*g equals the product in the quotient model",
        items0,
    )
    run.check(
        "first-order",
        "antisymmetrized nu^1 coefficient equals the reduced Poisson bracket",
        items1,
    )

    # associativity
    idx = range(len(gens))
    degs = [g.degree() for g in gens]
    triples = [
        (a, b, c)
        for a in idx
        for b in idx
        for c in idx
        if degs[a] + degs[b] + degs[c] <= state.bound
    ]
    if cfg.star_triples != "all":
        k = min(len(triples), max(cfg.probe_counts()["associativity_sample"], 20))
        triples = [triples[run.rng.randrange(len(triples))] for _ in range(k)]

    def sides(a, b, c):
        return (star_pair(a, b), gens[c]), (gens[a], star_pair(b, c))

    def associativity():  # each residual lives only while the check runs
        for a, b, c in triples:
            yield f"assoc ({a},{b},{c})", residual(*sides(a, b, c))

    run.check(
        "associativity",
        "(f*g)*h = f*(g*h) on generator triples",
        associativity(),
        probes=len(triples),
        detail=f"{len(triples)} triple(s), mode {cfg.star_triples}",
    )

    # representative independence: adding a right star multiple of J changes nothing
    nid = cfg.probe_counts()["ideal"]
    items = []
    for k in range(nid):
        a = run.rng.randrange(dim)
        G = gens[run.rng.randrange(len(gens))]
        room = max(0, state.bound - state.jdegs[a] - G.degree())
        g = random_poly(state.ctx, run.rng, room, 2)
        # ghost-free operands: the Moyal product, then res_nu, as reduced_star
        # takes them.  g * J_a is a one-off Series, so table entries for it
        # would be filled and never read again: both routes call reduced_star
        ideal = moyal_star_series(g, state.moment.components[a], state.lam, state.work_order)
        items.append((f"left shift ({k})", reduced_star(ideal, G, pipe)))
        items.append((f"right shift ({k})", reduced_star(G, ideal, pipe)))
    run.check(
        "ideal-invariance",
        "res_nu((g*J_a)*G) = 0 = res_nu(G*(g*J_a)): representatives may shift "
        "by right star multiples of the constraints",
        items,
        probes=nid,
    )

    # cohomology-level product
    run.prefix = "cohomology-star"
    items = []
    for k in range(4):
        ia, ib = k % len(gens), (k + 1) % len(gens)
        fx, gx = pipe.embed(gens[ia]), pipe.embed(gens[ib])
        # both classes closed: residuals of this check, so the rule truncates them
        items += [(f"[f] closed ({k})", qc.d_X(fx)), (f"[g] closed ({k})", qc.d_X(gx))]
        via_classes = reduced_star_cohomology(fx, gx, pipe)
        direct = star_pair(ia, ib)
        items.append((f"degree-0 classes ({k})", via_classes - SuperElement.scalar(direct, dim)))
    run.check(
        "degree-zero",
        "on degree-zero classes the transferred product agrees with the direct formula",
        items,
        probes=4,
    )
    items = []
    onex = pipe.embed(Series.from_poly(one, state.work_order))
    for k in range(3):
        ga = pipe.embed(gens[k % len(gens)])
        items.append((f"[1]*[g] ({k})", reduced_star_cohomology(onex, ga, pipe) - ga))
    run.check("unit", "the class of 1 is a two-sided unit", items)
    # exact shifts multiply to exact elements, with an explicit primitive
    items = []
    for k in range(3):
        a_el = pipe.embed(gens[k % len(gens)])
        room = min(3, state.bound - gens[k % len(gens)].degree())
        c_el = pipe.embed(nf(random_poly(state.ctx, run.rng, room, 2)))
        dc_el = qc.d_X(c_el)
        lhs = reduced_star_cohomology(a_el, dc_el, pipe)
        prim = reduced_star_cohomology(a_el, c_el, pipe)
        items.append((f"exact shift ({k})", lhs - qc.d_X(prim)))
    run.check(
        "exact-shift",
        "[a]*[d_z c] is exact, with primitive [a]*[c]",
        items,
        upto=state.order - 1,
    )
    if state.torus:
        # mixed ghost degrees: a closed degree-one cochain times a degree-zero
        # class is closed of degree one
        items = []
        for k in range(3):
            f = gens[k % len(gens)]
            g = gens[(k + 2) % len(gens)]
            cochain = SuperElement(
                state.ctx, dim, state.work_order,
                {((1,), ()): Series.from_poly(f, state.work_order)},
            )
            items.append((f"degree-one closed ({k})", qc.d_X(cochain)))
            prod = reduced_star_cohomology(pipe.embed(g), cochain, pipe)
            items.append((f"product closed ({k})", qc.d_X(prod)))
            bad = SuperElement(
                state.ctx, dim, state.work_order,
                {key: c for key, c in prod.terms.items() if len(key[0]) != 1 or key[1]},
            )
            items.append((f"product ghost degree one ({k})", bad))
        run.check(
            "degree-one",
            "invariant-coefficient degree-one cochains are closed and multiply "
            "degree-zero classes to closed degree-one cochains",
            items,
            probes=3,
            upto=state.order - 1,
        )
    return run.records


STAGE_FUNCTIONS = {name: globals()[f"stage_{name.replace('-', '_')}"] for name in STAGE_ORDER}


def run_scenario(config, order=None, degree_bound=None, only_stage=None):
    """Execute the scenario's verification stages and assemble the report.

    With `only_stage` the run ends after that stage: the report holds the
    records of every stage up to and including it.
    """
    if order is not None or degree_bound is not None:
        config = replace(
            config,
            order=order if order is not None else config.order,
            degree_bound=degree_bound if degree_bound is not None else config.degree_bound,
        )
    if only_stage is not None and only_stage not in STAGE_ORDER:
        raise ConfigError(f"unknown stage {only_stage!r}")
    state = RunState(config)
    report = Report(config.name, __version__, config.echo())
    failed = False  # set only by stages that ran
    stages = STAGE_ORDER if only_stage is None else STAGE_ORDER[: STAGE_ORDER.index(only_stage) + 1]
    for stage in stages:
        if stage not in config.stages:
            records = [
                CheckRecord(stage, stage, "stage not configured for this scenario", "not-attempted")
            ]
        elif failed:
            records = [CheckRecord(stage, stage, "earlier stage failed", "skipped")]
        else:
            t0 = time.perf_counter()
            try:
                # looked up per call: tracing replaces the table's entries
                records = STAGE_FUNCTIONS[stage](state)
            except RedstarError as exc:
                records = [
                    CheckRecord(
                        f"{stage}.error",
                        stage,
                        "stage raised an engine error",
                        "error",
                        witness=_trim(exc),
                        wall_time_s=time.perf_counter() - t0,
                    )
                ]
            failed = any(r.status in ("fail", "error") for r in records)
        report.records.extend(records)
    return report
