"""Scenario execution: the ordered verification pipeline with reporting.

Stages run in a fixed order; a failing stage marks everything after it as
skipped.  Each stage function builds the objects it verifies and states
the identities it checks; one executor, `StageRun`, does the rest once for
every stage: it prefixes check ids with the stage, seeds the stage's random
generator from `f"{seed}:{stage}"`, tests residuals for exact zero (modulo
nu^(upto+1) where a truncation is given), counts probes (the number of
residual items unless a check says otherwise), groups residuals by identity
label, loops over the contraction axioms, and turns a perturbation-lemma
transfer into a "build" record or a failed "hypotheses" record.  A record's
wall time runs from the stage's previous record (or its start) to its own
verdict, so it includes building the check's residuals.  All randomness is
seeded from the scenario configuration, so two runs of the same config
produce identical reports up to timing fields.
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
    build_delta,
    certify_invariant,
    check_classical_splitting,
    classical_brst_diff,
    classical_charge,
    closed_form_H,
    closed_form_Phi,
    poisson_action,
    quotient_representation,
    reduced_poisson,
)
from .errors import ConfigError, InvarianceError, LemmaHypothesisError, RedstarError
from .koszul import (
    MomentMapData,
    build_koszul_contraction,
    check_acyclicity,
    koszul_diff,
)
from .parsing import parse_polynomial
from .poisson import (
    check_quantum_covariance,
    check_strong_invariance,
    poisson_bracket,
    poisson_data,
)
from .poly import Poly
from .probes import random_bounded_chain, random_bounded_super, random_poly
from .quantum import (
    build_quantum_operators,
    check_quantum_splitting,
    quantum_charge_raw,
    star_action,
)
from .reduction import (
    ReductionPipeline,
    closed_form_res_nu,
    deformed_restriction,
    invariant_generators,
    quantum_reduction,
    reduced_star,
    reduced_star_cohomology,
)
from .report import CheckRecord, Report
from .scenarios import FULL_STAGES as STAGE_ORDER
from .series import Series
from .superalg import LieAlgebraData, StarProduct, SuperElement, graded_poisson

NU_HEADROOM = 2  # extra truncation orders to absorb divisions by nu

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
    "classical-reduction": {
        "p.i=id": "res Phi = id",
        "d h+h d=id-i.p": "D H + H D = id - Phi res",
        "p d=d p": "res is a chain map for (D, d_z)",
        "d i=i d": "Phi is a chain map",
        "h h=0": "H^2 = 0",
        "h i=0": "H Phi = 0",
        "p h=0": "res H = 0",
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
    "quantum-reduction": {
        "p.i=id": "res_nu Phi_nu = id",
        "d h+h d=id-i.p": "D_nu H_nu + H_nu D_nu = id - Phi_nu res_nu",
        "p d=d p": "res_nu is a chain map for (D_nu, d_z_nu)",
        "d i=i d": "Phi_nu is a chain map",
        "h h=0": "H_nu^2 = 0",
        "h i=0": "H_nu Phi_nu = 0",
        "p h=0": "res_nu H_nu = 0",
    },
}


def _splitting_anchors(s):
    """Anchors of the BRST splitting identities; `s` is "" or "_nu"."""
    return {
        f"D{s}-delta{s}-2koszul{s}": f"D{s} = delta{s} + 2 koszul{s}",
        f"D{s}^2": f"D{s}^2 = 0",
        f"delta{s}^2": f"delta{s}^2 = 0",
        f"koszul{s}^2": f"koszul{s}^2 = 0",
        f"delta{s}.koszul{s}+koszul{s}.delta{s}": f"delta{s} and koszul{s} supercommute",
    }


# The BRST transfer of the two reduction stages: probes drawn, how many of
# them the lemma checks its hypotheses on, the operator suffix and anchors.
TRANSFERS = {
    "classical-reduction": dict(
        probes=6,
        lemma=3,
        s="",
        build="transfer of D along the extended contraction (lemma version 1)",
        closed_forms="lemma output equals H = h/2 sum (-1/2)^j (h delta + delta h)^j and "
        "Phi = prol - H(delta prol - prol d_z)",
    ),
    "quantum-reduction": dict(
        probes=5,
        lemma=2,
        s="_nu",
        build="lemma version 1 applied to the quantum BRST differential",
        closed_forms="H_nu = h_nu/2 sum (-1/2)^j (h_nu delta_nu + delta_nu h_nu)^j; "
        "Phi_nu = prol - H_nu(delta_nu prol - prol d_z_nu)",
    ),
}


@dataclass
class RunState:
    config: object
    ctx: object = None
    lam: object = None
    moment: object = None
    star: object = None
    order: int = 4
    work_order: int = 6
    bound: int = 6
    jdegs: tuple = ()
    kc: object = None
    space: object = None
    delta: object = None
    cc: object = None  # classical transfer: Phi, H and d_z
    dc: object = None
    qc: object = None  # quantum transfer: Phi_nu, H_nu and d_z_nu
    generators: list = field(default_factory=list)
    torus: bool = False


def _summary(obj):
    terms = getattr(obj, "nonzero_term_count", None)
    if terms is not None:
        return obj.nonzero_term_count(), obj.max_degree()
    if isinstance(obj, Poly):
        return len(obj.terms), obj.degree()
    return (0, -1)


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

    def check(self, name, anchor, items, probes=None, upto=None, detail=None):
        """One record from (label, residual) items; exact zero means pass.

        The first nonzero residual is the witness.  `probes` defaults to
        the number of items; `upto` truncates the zero test in nu.
        """
        fields = dict(probes=len(items) if probes is None else probes, detail=detail)
        for label, residual in items:
            if not (residual.is_zero() if upto is None else residual.is_zero(upto)):
                terms, maxdeg = _summary(residual)
                return self.record(
                    name, anchor, "fail", witness=_trim(f"{label}: {residual}"),
                    residual_terms=terms, residual_max_degree=maxdeg, **fields,
                )
        return self.record(name, anchor, **fields)

    def by_label(self, anchors, items, upto=None):
        """One check per identity label (the text before `[`), over all its probes."""
        grouped = {}
        for label, residual in items:
            grouped.setdefault(label.split("[")[0], []).append((label, residual))
        for base, group in grouped.items():
            self.check(base, anchors.get(base, base), group, upto=upto)

    def axioms(self, contraction, probes_X, probes_Y, upto=None):
        """The contraction axioms on probe pairs, one check per axiom."""
        items = []
        for x, y in zip(probes_X, probes_Y):
            items.extend(contraction.axiom_residuals(x, y).items())
        self.by_label(AXIOM_ANCHORS[self.stage], items, upto)

    def transfer(self, anchor, build):
        """Run a perturbation-lemma transfer; None after a failed hypothesis."""
        try:
            out = build()
        except LemmaHypothesisError as exc:
            self.record("hypotheses", "transfer lemma hypotheses", "fail", witness=_trim(exc))
            return None
        self.record("build", anchor)
        return out

    def reduction(self, contraction, delta, transfer, order, upto):
        """The BRST transfer of a reduction stage and its checks.

        Draws the probes at nu-order `order`, runs `transfer(probes_X,
        probes_Y, upto=upto)` (a `brst_transfer` of `delta` along
        `contraction`) with the lemma hypotheses checked on the first few,
        then checks the contraction axioms, the closed forms of H and Phi
        and, on torus scenarios, Phi = prol; `upto` truncates every zero test
        (None: exact).  Returns the transferred contraction (None after a
        failed hypothesis) and the Y probes.
        """
        st, spec = self.state, TRANSFERS[self.stage]
        s, k = spec["s"], spec["lemma"]
        probes_Y = [self.element(order) for _ in range(spec["probes"])]
        probes_X = [st.kc.p(y) for y in probes_Y]
        built = self.transfer(
            spec["build"], lambda: transfer(probes_X[:k], probes_Y[:k], upto=upto)
        )
        if built is None:
            return None, probes_Y
        out, d_z = built
        self.axioms(out, probes_X, probes_Y, upto)
        Hcf = closed_form_H(contraction, delta, st.moment.lie.dim)
        Phicf = closed_form_Phi(contraction, delta, out.h, d_z)
        items = [(f"H{s} - closed form", out.h(y) - Hcf(y)) for y in probes_Y]
        items += [(f"Phi{s} - closed form", out.i(x) - Phicf(x)) for x in probes_X]
        self.check("closed-forms", spec["closed_forms"], items, upto=upto)
        if st.torus:
            items = [(f"Phi{s} - prol", out.i(x) - contraction.i(x)) for x in probes_X]
            self.check(
                "equivariant-phi", f"equivariant prolongation: Phi{s} = prol", items, upto=upto
            )
        return out, probes_Y

    def element(self, order, bound=None, terms=2):
        """A random BRST element within the degree bound (the scenario's by default)."""
        st = self.state
        bound = st.bound if bound is None else bound
        return random_bounded_super(
            st.ctx, st.moment.lie.dim, order, self.rng, bound, st.jdegs, terms=terms
        )


# -- stages -----------------------------------------------------------------------


def stage_load(state):
    cfg = state.config
    run = StageRun(state, "load")
    ctx = state.ctx = cfg.build_context()
    state.order = cfg.order
    state.work_order = cfg.order + NU_HEADROOM
    state.bound = cfg.degree_bound
    state.torus = bool(cfg.torus_rows)

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
            cfg.lie_dim,
            [(a, b, c, v) for a, b, c, v in cfg.structure_constants],
            torus_rows=cfg.torus_rows,
        )
    except ValueError as exc:
        raise ConfigError(f"Lie data rejected: {exc}") from None
    run.record(
        "lie",
        "f antisymmetric; Jacobi identity; flags consistent",
        detail=f"abelian={lie.abelian} unimodular={lie.unimodular}",
    )

    comps = tuple(parse_polynomial(src, ctx) for src in cfg.moment_map)
    state.moment = MomentMapData(ctx, comps, lie, cfg.justification)
    state.jdegs = tuple(max(j.degree(), 0) for j in comps)

    if ctx.gradings:
        items = [
            (f"J_{a + 1} homogeneous", Poly.zero(ctx) if j.is_homogeneous() else j)
            for a, j in enumerate(comps)
        ]
        run.check("homogeneity", "components homogeneous per grading", items, probes=0)
        if state.torus:
            bad = Poly.zero(ctx)
            for r in cfg.torus_rows:
                for j in comps:
                    g = j.grade()
                    if g[1 + r] != 0:
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

    state.star = StarProduct(lam, lie.dim, state.work_order, Fraction(cfg.clifford_coeff))
    return run.records


def stage_covariance(state):
    run = StageRun(state, "covariance")
    run.check(
        "pairs",
        "J_a*J_b - J_b*J_a = nu f_ab^c J_c",
        check_quantum_covariance(state.moment, state.lam, state.work_order),
        upto=state.order,
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
        upto=state.order,
    )
    return run.records


def stage_acyclicity(state):
    run = StageRun(state, "acyclicity")
    rep = check_acyclicity(state.moment, state.bound)
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
        total = rep.total(i)
        witness = None
        if total and rep.witness_slice and rep.witness_slice[0] == i:
            chain = " + ".join(
                f"({p})*e_{'e_'.join(str(a) for a in aset)}" if len(aset) > 1 else f"({p})*e_{aset[0]}"
                for aset, p in rep.witness.items()
            )
            witness = _trim(f"nontrivial cycle at slice {rep.witness_slice[1]}: {chain}")
        run.record(
            f"H{i}",
            f"dim H_{i} = 0 in all graded slices up to degree {state.bound}",
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
    kc = build_koszul_contraction(state.moment, state.bound)
    state.kc = kc
    state.space = kc.meta["space"]
    run.record(
        "build", "res/prol/h assembled from canonical slice solves; side conditions normalized"
    )
    dim = state.moment.lie.dim
    probes_X, probes_Y = [], []
    for i in range(0, dim + 1):
        for _ in range(state.config.probe_counts()["contraction"]):
            probes_Y.append(
                random_bounded_chain(
                    state.ctx, dim, 0, run.rng, state.bound, state.jdegs, i, terms=2
                )
            )
            probes_X.append(kc.p(run.element(0)))
    run.axioms(kc, probes_X, probes_Y)
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
    delta = state.delta = build_delta(state.moment, poisson_action(state.lam))
    n = state.config.probe_counts()["splitting"]
    probes = [run.element(0) for _ in range(n)]
    items = check_classical_splitting(state.moment, state.lam, theta, delta, probes)
    run.by_label(_splitting_anchors(""), items)
    return run.records


def _build_generators(run):
    state = run.state
    cfg = state.config
    if state.generators:
        return
    if cfg.invariant_mode == "weights":
        gens = invariant_generators(state.ctx, cfg.torus_rows, cfg.generator_cap)
    else:
        gens = [parse_polynomial(src, state.ctx) for src in cfg.declared_invariants]
    items = []
    kept = []
    for g in gens:
        try:
            certify_invariant(
                state.space.normal_form_poly(g) if cfg.invariant_mode == "declared" else g,
                state.moment,
                state.lam,
                state.space,
                cfg.torus_rows,
            )
            kept.append(g)
            items.append((f"generator {g}", Poly.zero(state.ctx)))
        except InvarianceError:
            items.append((f"generator {g}", g))
    run.check(
        "generators",
        "invariant generators certified (weight zero or bracket into the ideal)",
        items,
        detail=f"{len(kept)} generator(s)",
    )
    state.generators = kept


def stage_classical_reduction(state):
    cfg = state.config
    run = StageRun(state, "classical-reduction")
    dim = state.moment.lie.dim
    cc, _ = run.reduction(
        state.kc, state.delta, functools.partial(brst_transfer, state.kc, state.delta), 0, None
    )
    if cc is None:
        return run.records
    state.cc = cc
    _build_generators(run)
    # reduced Poisson bracket checks
    gens = state.generators
    if not gens:
        return run.records
    run.prefix = "reduced-poisson"
    nf = state.space.normal_form_poly
    rp = lambda f, g: reduced_poisson(
        f, g, cc.i, state.kc.p, state.lam, dim,
        state.moment, state.space, cfg.torus_rows, certify=False,
    )
    items = [("antisymmetry {f,f}", Poly.zero(state.ctx))]
    for a, b in itertools.combinations(range(min(len(gens), 6)), 2):
        items.append(
            (f"antisym ({a},{b})", rp(nf(gens[a]), nf(gens[b])) + rp(nf(gens[b]), nf(gens[a])))
        )
    for a in range(min(len(gens), 4)):
        items.append((f"{{f,f}} ({a})", rp(nf(gens[a]), nf(gens[a]))))
        items.append((f"constants central ({a})", rp(Poly.const(state.ctx, 1), nf(gens[a]))))
    run.check("algebra", "reduced bracket antisymmetric; constants central", items)
    items = []
    for a, b, c in itertools.islice(itertools.combinations(range(min(len(gens), 5)), 3), 6):
        fa, fb, fc = nf(gens[a]), nf(gens[b]), nf(gens[c])
        jac = rp(fa, rp(fb, fc)) + rp(fb, rp(fc, fa)) + rp(fc, rp(fa, fb))
        items.append((f"jacobi ({a},{b},{c})", jac))
    if items:
        run.check("jacobi", "reduced bracket satisfies the Jacobi identity", items)
    # representative independence and the direct Dirac route
    items = []
    items2 = []
    for k in range(6):
        f = nf(gens[k % len(gens)])
        g = random_poly(state.ctx, run.rng, 2, 2)
        other = nf(gens[(k + 1) % len(gens)])
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
    theta_nu = quantum_charge_raw(state.moment, state.work_order)
    charge = run.check(
        "charge",
        "theta_nu * theta_nu = 0",
        [("theta_nu*theta_nu", star.star(theta_nu, theta_nu))],
        probes=0,
        upto=state.order,
    )
    if charge.status == "fail":
        return run.records
    qops = build_quantum_operators(state.moment, star, theta_nu)
    probes = [run.element(state.work_order) for _ in range(cfg.probe_counts()["splitting"])]
    items = check_quantum_splitting(qops, probes)
    run.by_label(_splitting_anchors("_nu"), items, upto=state.order)

    # classical limits
    theta0 = classical_charge(state.moment, 0)
    D0 = classical_brst_diff(theta0, state.lam)
    delta0 = build_delta(state.moment, poisson_action(state.lam))
    items = []
    for x in probes[:8]:
        x0 = x.classical_part()
        items.append(
            ("koszul_nu|nu=0 - koszul", qops.koszul_nu(x).classical_part() - koszul_diff(x0, state.moment))
        )
        items.append(("delta_nu|nu=0 - delta", qops.delta_nu(x).classical_part() - delta0(x0)))
        items.append(("D_nu|nu=0 - D", qops.D(x).classical_part() - D0(x0)))
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
        lhs = qops.koszul_nu(star.star(fel, x))
        rhs = star.star(fel, qops.koszul_nu(x))
        items.append((f"module ({k})", lhs - rhs))
    run.check(
        "left-module",
        "koszul_nu(f * x) = f * koszul_nu(x) for scalar f",
        items,
        upto=state.order,
    )

    # star associativity sample
    items = []
    for k in range(cfg.probe_counts()["associativity_sample"]):
        a, b, c = (run.element(state.work_order, 4) for _ in range(3))
        lhs = star.star(star.star(a, b), c)
        items.append((f"assoc ({k})", lhs - star.star(a, star.star(b, c))))
    run.check(
        "associativity",
        "(x*y)*z = x*(y*z) for the graded star product",
        items,
        upto=state.order,
    )
    return run.records


def stage_deformed_restriction(state):
    run = StageRun(state, "deformed-restriction")
    dim = state.moment.lie.dim
    n = state.config.probe_counts()["restriction"]
    probes_Y = [run.element(state.work_order) for _ in range(n)]
    probes_X = [state.kc.p(y) for y in probes_Y]
    built = run.transfer(
        "lemma version 2 applied to the deformed Koszul differential",
        lambda: deformed_restriction(
            state.kc, state.moment, state.star, probes_X[:3], probes_Y[:3], upto=state.order
        ),
    )
    if built is None:
        return run.records
    dc, t = built
    state.dc = dc
    run.axioms(dc, probes_X, probes_Y, upto=state.order)
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
    run.check(
        "closed-form",
        "res_nu = res (id + (koszul_nu - koszul) h)^{-1} on functions",
        items,
        upto=state.order,
    )
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
    run.check(
        "kills-constraints", "res_nu(J_a) = 0 (constraints are exact)", items, upto=state.order
    )
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
                    grade = state.ctx.grade_of_mono(m)
                    yield p, tuple(grade[1 + r] for r in cfg.torus_rows)

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
        upto=state.order,
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
        upto=state.order,
    )
    return run.records


def stage_quantum_reduction(state):
    run = StageRun(state, "quantum-reduction")
    delta_nu = build_delta(state.moment, star_action(state.star), "delta_nu")
    qc, probes_Y = run.reduction(
        state.dc,
        delta_nu,
        functools.partial(quantum_reduction, state.moment, state.star, state.dc),
        state.work_order,
        state.order,
    )
    if qc is None:
        return run.records
    state.qc = qc
    if state.cc is not None:
        items = [
            ("H_nu|nu=0 - H", qc.h(y).classical_part() - state.cc.h(y.classical_part()))
            for y in probes_Y
        ]
        run.check(
            "classical-limit",
            "H_nu = H + O(nu) (classical contraction recovered at nu = 0)",
            items,
        )
    return run.records


def stage_reduced_star(state):
    cfg = state.config
    run = StageRun(state, "reduced-star")
    dim = state.moment.lie.dim
    _build_generators(run)
    gens = [state.space.normal_form_poly(g) for g in state.generators]
    if not gens:
        run.record(
            "generators",
            "invariant generators available",
            "fail",
            detail="no certified invariant generators",
        )
        return run.records
    qc = state.qc
    pipe = ReductionPipeline(
        state.moment,
        state.lam,
        state.star,
        state.space,
        state.work_order,
        state.dc,
        qc,
        torus_rows=cfg.torus_rows,
    )
    nf = state.space.normal_form_poly
    one = Poly.const(state.ctx, 1)
    star = state.star.star

    @functools.cache
    def star_pair(ia, ib):
        return reduced_star(gens[ia], gens[ib], pipe, certify=False)

    # unit
    items = []
    for k in range(min(len(gens), 8)):
        g = Series.from_poly(gens[k], state.work_order)
        items.append((f"1*g ({k})", reduced_star(one, gens[k], pipe, certify=False) - g))
        items.append((f"g*1 ({k})", reduced_star(gens[k], one, pipe, certify=False) - g))
    run.check("unit", "f * 1 = 1 * f = f", items, upto=state.order)

    # classical part and first-order correspondence on all pairs
    items0 = []
    items1 = []
    for ia in range(len(gens)):
        for ib in range(len(gens)):
            if gens[ia].degree() + gens[ib].degree() > state.bound:
                continue
            product = star_pair(ia, ib)
            items0.append((f"nu^0 ({ia},{ib})", product.classical() - nf(gens[ia] * gens[ib])))
            if ib > ia:
                anti = product - star_pair(ib, ia)
                rp = reduced_poisson(
                    gens[ia], gens[ib], state.cc.i, state.kc.p, state.lam, dim,
                    state.moment, state.space, cfg.torus_rows, certify=False,
                )
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
    triples = [
        (a, b, c)
        for a in idx
        for b in idx
        for c in idx
        if gens[a].degree() + gens[b].degree() + gens[c].degree() <= state.bound
    ]
    if cfg.star_triples != "all":
        k = min(len(triples), max(cfg.probe_counts()["associativity_sample"], 20))
        triples = [triples[run.rng.randrange(len(triples))] for _ in range(k)]
    items = []
    for a, b, c in triples:
        lhs = reduced_star(star_pair(a, b), gens[c], pipe, certify=False)
        rhs = reduced_star(gens[a], star_pair(b, c), pipe, certify=False)
        items.append((f"assoc ({a},{b},{c})", lhs - rhs))
    run.check(
        "associativity",
        "(f*g)*h = f*(g*h) on generator triples",
        items,
        upto=state.order,
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
        ideal_el = star(
            SuperElement.from_poly(g, dim, state.work_order),
            SuperElement.from_poly(state.moment.components[a], dim, state.work_order),
        )
        Gx = SuperElement.from_poly(G, dim, state.work_order)
        items.append((f"left shift ({k})", pipe.res_nu(star(ideal_el, Gx))))
        items.append((f"right shift ({k})", pipe.res_nu(star(Gx, ideal_el))))
    run.check(
        "ideal-invariance",
        "res_nu((g*J_a)*G) = 0 = res_nu(G*(g*J_a)): representatives may shift "
        "by right star multiples of the constraints",
        items,
        probes=nid,
        upto=state.order,
    )

    # cohomology-level product
    run.prefix = "cohomology-star"
    items = []
    for k in range(4):
        f, g = gens[k % len(gens)], gens[(k + 1) % len(gens)]
        via_classes = reduced_star_cohomology(
            pipe.embed(f), pipe.embed(g), pipe, check_closed=True, upto=state.order
        )
        direct = reduced_star(f, g, pipe, certify=False)
        items.append((f"degree-0 classes ({k})", via_classes - SuperElement.scalar(direct, dim)))
    run.check(
        "degree-zero",
        "on degree-zero classes the transferred product agrees with the direct formula",
        items,
        upto=state.order,
    )
    items = []
    onex = pipe.embed(Series.from_poly(one, state.work_order))
    for k in range(3):
        ga = pipe.embed(gens[k % len(gens)])
        items.append(
            (f"[1]*[g] ({k})", reduced_star_cohomology(onex, ga, pipe, check_closed=False) - ga)
        )
    run.check("unit", "the class of 1 is a two-sided unit", items, upto=state.order)
    # exact shifts multiply to exact elements, with an explicit primitive
    items = []
    for k in range(3):
        a_el = pipe.embed(gens[k % len(gens)])
        room = min(3, state.bound - gens[k % len(gens)].degree())
        c_el = pipe.embed(nf(random_poly(state.ctx, run.rng, room, 2)))
        dc_el = qc.d_X(c_el)
        lhs = pipe.res_nu(star(qc.i(a_el), qc.i(dc_el)))
        prim = pipe.res_nu(star(qc.i(a_el), qc.i(c_el)))
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
            prod = reduced_star_cohomology(pipe.embed(g), cochain, pipe, check_closed=False)
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


STAGE_FUNCTIONS = {
    "load": stage_load,
    "covariance": stage_covariance,
    "strong-invariance": stage_strong_invariance,
    "acyclicity": stage_acyclicity,
    "contraction": stage_contraction,
    "classical-brst": stage_classical_brst,
    "classical-reduction": stage_classical_reduction,
    "quantum-brst": stage_quantum_brst,
    "deformed-restriction": stage_deformed_restriction,
    "equivariance-lemma": stage_equivariance_lemma,
    "quantum-reduction": stage_quantum_reduction,
    "reduced-star": stage_reduced_star,
}


def run_scenario(config, order=None, degree_bound=None, only_stage=None):
    """Execute the scenario's verification stages and assemble the report."""
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
    failed = False
    for stage in STAGE_ORDER:
        if stage not in config.stages:
            if only_stage is None or stage == only_stage:
                report.records.append(
                    CheckRecord(
                        f"{stage}", stage, "stage not configured for this scenario",
                        "not-attempted",
                    )
                )
            continue
        if failed:
            if only_stage is None or stage == only_stage:
                report.records.append(
                    CheckRecord(
                        f"{stage}", stage, "earlier stage failed", "skipped"
                    )
                )
            continue
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
        if any(r.status in ("fail", "error") for r in records):
            failed = True
        if only_stage is None or stage == only_stage:
            report.records.extend(records)
        if only_stage is not None and stage == only_stage:
            break
    return report
