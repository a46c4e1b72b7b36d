"""Scenario configurations: the built-in registry and config-file I/O.

A scenario declares variables, gradings, the Poisson matrix, Lie data, the
moment map (as expressions in the polynomial grammar), the declared
infinitesimal action used for sign calibration, invariant generators, and
which verification stages to run.  The registry ships the standard
examples plus negative controls; plain-text config files use the same
fields with section headers.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ConfigError
from .poly import Poly, VarContext
from .scalars import QQ, QQ_I

# The pipeline stages in run order, each with the stages whose results
# (RunState fields) it reads.  A stage list must hold the prerequisites of
# every stage in it, so the requirement is transitive.
PREREQUISITES = {
    "load": (),
    "covariance": ("load",),
    "strong-invariance": ("load",),
    "acyclicity": ("load",),
    "contraction": ("load",),
    "classical-brst": ("load",),
    "classical-reduction": ("contraction", "classical-brst"),  # kc, space; delta
    "quantum-brst": ("load",),
    "deformed-restriction": ("contraction",),  # kc
    "equivariance-lemma": ("deformed-restriction",),  # dc
    # dc; delta_nu; H, whose classical limit it checks
    "quantum-reduction": ("deformed-restriction", "quantum-brst", "classical-reduction"),
    "reduced-star": ("classical-reduction", "quantum-reduction"),  # phi; the quantum transfer
}
FULL_STAGES = tuple(PREREQUISITES)

DEFAULT_PROBES = {
    "strong_invariance": 20,
    "contraction": 50,  # per homological degree
    "splitting": 50,
    "restriction": 20,
    "lemma": 20,
    "associativity_sample": 10,
    "ideal": 20,
}


FIELDS = {"rational": QQ, "gaussian": QQ_I}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    description: str = ""
    variables: tuple = ()
    field_name: str = "rational"  # a key of FIELDS
    grading_names: tuple = ()
    gradings: tuple = ()  # rows of ints, parallel to grading_names
    torus_rows: tuple = ()  # indices into gradings
    poisson_entries: tuple = ()  # (var, var, value expression)
    lie_dim: int = 1
    structure_constants: tuple = ()  # (a, b, c, value string), 1-based
    moment_map: tuple = ()  # component expressions
    action: tuple = ()  # ((component, var, expression), ...) for calibration
    order: int = 4
    degree_bound: int = 8
    seed: int = 7
    invariant_mode: str = "weights"  # "weights" | "declared"
    declared_invariants: tuple = ()
    generator_cap: int = 4
    stages: tuple = FULL_STAGES
    clifford_coeff: str = "-2"
    star_triples: str = "sample"  # "all" | "sample"
    probe_overrides: tuple = ()  # (key, value) pairs
    params: tuple = ()  # (key, value) echo-only
    justification: str = ""

    def __post_init__(self):
        for what, value, allowed in (
            ("field", self.field_name, tuple(FIELDS)),
            ("invariant mode", self.invariant_mode, ("weights", "declared")),
            ("star_triples", self.star_triples, ("all", "sample")),
        ):
            if value not in allowed:
                expected = " or ".join(repr(a) for a in allowed)
                raise ConfigError(f"unknown {what} {value!r}: expected {expected}")
        repeated = sorted({v for v in self.variables if self.variables.count(v) > 1})
        if repeated:
            raise ConfigError(f"repeated variable name(s): {', '.join(repeated)}")
        names, rows = len(self.grading_names), len(self.gradings)
        if names != rows:
            raise ConfigError(f"{names} name(s) for {rows} grading row(s)")
        for name, row in zip(self.grading_names, self.gradings):
            if len(row) != len(self.variables):
                raise ConfigError(f"grading row grading.{name} has wrong length")
        for i in self.torus_rows:
            if not 0 <= i < rows:
                raise ConfigError(f"torus row {i} is not the index of a grading row")
        if not self.stages:
            raise ConfigError("the stage list is empty: nothing would be evaluated")
        for stage in self.stages:
            if stage not in FULL_STAGES:
                raise ConfigError(
                    f"unknown stage {stage!r}: expected one of {', '.join(FULL_STAGES)}"
                )
            for need in PREREQUISITES[stage]:
                if need not in self.stages:
                    raise ConfigError(f"stage {stage!r} needs stage {need!r}, which is not listed")
        if self.order < 1:
            raise ConfigError(f"order must be at least 1, got {self.order}")
        if self.degree_bound < 0:
            raise ConfigError(f"degree_bound must be at least 0, got {self.degree_bound}")
        if self.lie_dim < 1:
            raise ConfigError(f"lie dim must be at least 1, got {self.lie_dim}")
        if len(self.moment_map) != self.lie_dim:
            raise ConfigError(
                f"{len(self.moment_map)} moment-map component(s) for lie dim {self.lie_dim}"
            )
        for a, b, _ in self.poisson_entries:
            for var in (a, b):
                if var not in self.variables:
                    raise ConfigError(f"poisson entry {a} {b} names unknown variable {var!r}")
        for a, b, c, value in self.structure_constants:
            if not all(1 <= k <= self.lie_dim for k in (a, b, c)):
                raise ConfigError(
                    f"structure constant f.{a}.{b}.{c} has an index outside 1..{self.lie_dim}"
                )
            _rational(value, f"structure constant f.{a}.{b}.{c}")
        _rational(self.clifford_coeff, "clifford_coeff")
        for component, var, _ in self.action:
            if not 1 <= component <= self.lie_dim:
                raise ConfigError(
                    f"action component J{component} {var} is outside J1..J{self.lie_dim}"
                )
        for key, value in self.probe_overrides:
            if key not in DEFAULT_PROBES:
                raise ConfigError(
                    f"unknown probe count {key!r}: expected one of {', '.join(DEFAULT_PROBES)}"
                )
            if _int(value, f"probe count {key}") < 1:
                raise ConfigError(f"probe count {key} must be at least 1, got {value}")

    def probe_counts(self):
        counts = dict(DEFAULT_PROBES)
        for k, v in self.probe_overrides:
            counts[k] = int(v)
        return counts

    def build_context(self):
        fld = FIELDS[self.field_name]
        return VarContext(tuple(self.variables), fld, tuple(tuple(r) for r in self.gradings))

    def echo(self):
        return {
            "name": self.name,
            "description": self.description,
            "variables": list(self.variables),
            "field": self.field_name,
            "gradings": {n: list(r) for n, r in zip(self.grading_names, self.gradings)},
            "torus_rows": [self.grading_names[i] for i in self.torus_rows],
            "poisson": [list(e) for e in self.poisson_entries],
            "lie_dim": self.lie_dim,
            "structure_constants": [list(e) for e in self.structure_constants],
            "moment_map": list(self.moment_map),
            "order": self.order,
            "degree_bound": self.degree_bound,
            "seed": self.seed,
            "invariant_mode": self.invariant_mode,
            "generator_cap": self.generator_cap,
            "stages": list(self.stages),
            "clifford_coeff": self.clifford_coeff,
            "star_triples": self.star_triples,
            "params": dict(self.params),
            "justification": self.justification,
        }


# -- registry builders ---------------------------------------------------------


def _torus_c4(grading_names, gradings, moment_map, **fields):
    """A torus acting diagonally on C^4 = (z1..z4, zb1..zb4) with the Darboux bracket.

    The torus rows are the first len(moment_map) gradings, and the
    calibration table is {J_a, v} = w * i * v for the weight w of v in
    row a.
    """
    variables = ("z1", "z2", "z3", "z4", "zb1", "zb2", "zb3", "zb4")
    dim = len(moment_map)
    return ScenarioConfig(
        variables=variables,
        field_name="gaussian",
        grading_names=grading_names,
        gradings=gradings,
        torus_rows=tuple(range(dim)),
        poisson_entries=tuple((f"z{k}", f"zb{k}", "2*i") for k in range(1, 5)),
        lie_dim=dim,
        moment_map=moment_map,
        action=tuple(
            (a + 1, v, f"{w}*i*{v}") for a in range(dim) for v, w in zip(variables, gradings[a])
        ),
        degree_bound=6,
        **fields,
    )


def s1_c4():
    """Circle action on C^4 with an indefinite quadratic moment map.

    The constraint surface is a cone whose reduced space is worse than an
    orbifold; the full reduction pipeline runs with equivariant homotopies.
    """
    return _torus_c4(
        ("torus", "holo"),
        ((1, 1, -1, -1, -1, -1, 1, 1), (1, 1, 1, 1, -1, -1, -1, -1)),
        ("1/2*(z3*zb3 + z4*zb4 - z1*zb1 - z2*zb2)",),
        name="s1-c4",
        description="S^1 acting on C^4 with weights (1,1,-1,-1); cone-level singular quotient",
        star_triples="all",
        justification=(
            "indefinite diagonal quadratic moment map on C^4: the components "
            "change sign near every zero, so they generate the vanishing ideal "
            "(scenario assumption), and the bounded-degree rank check certifies "
            "the complete-intersection property"
        ),
    )


def t2_c4(alpha=-1, beta=1):
    """Two-torus action on C^4 with weight parameters alpha < 0 and beta."""
    if alpha >= 0:
        raise ConfigError("t2-c4 requires alpha < 0 (generating hypothesis)")
    w1 = (alpha, 0, 1, 0, -alpha, 0, -1, 0)
    w2 = (beta, -1, 0, 1, -beta, 1, 0, -1)
    wd = (1, 1, 1, 1, -1, -1, -1, -1)
    return _torus_c4(
        ("torus1", "torus2", "holo"),
        (w1, w2, wd),
        (
            f"1/2*({-alpha}*z1*zb1 - z3*zb3)",
            f"1/2*({-beta}*z1*zb1 + z2*zb2 - z4*zb4)",
        ),
        name="t2-c4",
        description=f"T^2 acting on C^4 (alpha={alpha}, beta={beta})",
        params=(("alpha", str(alpha)), ("beta", str(beta))),
        justification=(
            "diagonal torus moment map with alpha < 0: both components are "
            "indefinite near the zero set (scenario assumption for the "
            "generating hypothesis); acyclicity is certified by rank checks"
        ),
    )


def angular_momentum(m=2):
    """m planar particles with zero total angular momentum (real coordinates)."""
    qs = [f"q{ax}{i}" for i in range(1, m + 1) for ax in ("x", "y")]
    ps = [f"p{ax}{i}" for i in range(1, m + 1) for ax in ("x", "y")]
    variables = tuple(qs + ps)
    n = len(variables)
    qrow = tuple([1] * (2 * m) + [0] * (2 * m))
    prow = tuple([0] * (2 * m) + [1] * (2 * m))
    jterms = " + ".join(f"qx{i}*py{i} - qy{i}*px{i}" for i in range(1, m + 1))
    action = []
    for i in range(1, m + 1):
        action += [
            (1, f"qx{i}", f"qy{i}"),
            (1, f"qy{i}", f"-qx{i}"),
            (1, f"px{i}", f"py{i}"),
            (1, f"py{i}", f"-px{i}"),
        ]
    invariants = []
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            invariants.append(f"qx{i}*qx{j} + qy{i}*qy{j}")
            invariants.append(f"px{i}*px{j} + py{i}*py{j}")
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            invariants.append(f"qx{i}*px{j} + qy{i}*py{j}")
            invariants.append(f"qx{i}*py{j} - qy{i}*px{j}")
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            invariants.append(f"qx{i}*qy{j} - qy{i}*qx{j}")
            invariants.append(f"px{i}*py{j} - py{i}*px{j}")
    return ScenarioConfig(
        name=f"angular-momentum-m{m}",
        description=f"{m} particles in the plane with zero total angular momentum",
        variables=variables,
        grading_names=("qdeg", "pdeg"),
        gradings=(qrow, prow),
        poisson_entries=tuple(
            (f"q{ax}{i}", f"p{ax}{i}", "1") for i in range(1, m + 1) for ax in ("x", "y")
        ),
        moment_map=(jterms,),
        action=tuple(action),
        degree_bound=6,
        invariant_mode="declared",
        declared_invariants=tuple(invariants),
        stages=tuple(s for s in FULL_STAGES if s != "equivariance-lemma"),
        params=(("m", str(m)),),
        justification=(
            "codimension-one zero level of an indefinite quadratic: the moment "
            "map changes sign near every zero (scenario assumption), making the "
            "complex a resolution; certified here by the bounded-degree ranks"
        ),
    )


def _symmetric_matrix_scenario(n):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    qnames = [f"q{i}{j}" for i, j in pairs]
    pnames = [f"p{i}{j}" for i, j in pairs]
    variables = tuple(qnames + pnames)
    k = len(pairs)
    qrow = tuple([1] * k + [0] * k)
    prow = tuple([0] * k + [1] * k)
    poisson = tuple(
        (f"q{i}{j}", f"p{i}{j}", "1" if i == j else "1/2") for i, j in pairs
    )
    return variables, (qrow, prow), poisson


# The so(n) basis of the conjugation scenarios: X_a is the antisymmetric
# matrix with -1 at (r, c) and 1 at (c, r) for the a-th axis (r, c), and
# J_a = 2 [Q, P]_rc.  SO_STRUCTURE holds the entries f_ab^c of
# [X_a, X_b] = f_ab^c X_c: none for the abelian so(2), eps_abc for so(3).
SO_AXES = {2: ((1, 2),), 3: ((2, 3), (3, 1), (1, 2))}
SO_STRUCTURE = {2: (), 3: ((1, 2, 3, "1"), (1, 3, 2, "-1"), (2, 3, 1, "1"))}


def _commuting_moment_exprs(n, variables):
    """Moment map of conjugation on pairs of symmetric matrices, as text."""
    ctx = VarContext(variables)

    def var(sym, i, j):
        """The (i, j) entry of the symmetric matrix Q or P."""
        return Poly.variable(ctx, f"{sym}{min(i, j)}{max(i, j)}")

    def entry(r, c):
        out = Poly.zero(ctx)
        for k in range(1, n + 1):
            out = out + var("q", r, k) * var("p", k, c) - var("p", r, k) * var("q", k, c)
        return out

    comps = [entry(r, c).scale(2) for r, c in SO_AXES[n]]

    # calibration table: {J_a, x} = -[X_a, M]-entry for M in {Q, P}
    action = []
    for a, (r, c) in enumerate(SO_AXES[n], 1):
        X = [[0] * n for _ in range(n)]
        X[r - 1][c - 1], X[c - 1][r - 1] = -1, 1
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                for sym in "qp":
                    # [X, M]_ij with M symmetric
                    acc = Poly.zero(ctx)
                    for k in range(1, n + 1):
                        if X[i - 1][k - 1]:
                            acc = acc + var(sym, k, j).scale(X[i - 1][k - 1])
                        if X[k - 1][j - 1]:
                            acc = acc - var(sym, i, k).scale(X[k - 1][j - 1])
                    action.append((a, f"{sym}{i}{j}", str(-acc)))
    return [str(c) for c in comps], action


def commuting_variety(n=2):
    """Conjugation on pairs of symmetric matrices; moment map the commutator."""
    if n not in SO_AXES:
        raise ConfigError("only n = 2 and n = 3 are configured")
    variables, gradings, poisson = _symmetric_matrix_scenario(n)
    comps, action = _commuting_moment_exprs(n, variables)
    if n == 2:
        stages = tuple(s for s in FULL_STAGES if s != "equivariance-lemma")
        invariants = (
            "q11 + q22",
            "p11 + p22",
            "q11^2 + 2*q12^2 + q22^2",
            "q11*p11 + 2*q12*p12 + q22*p22",
            "p11^2 + 2*p12^2 + p22^2",
        )
    else:
        stages = ("load", "covariance", "strong-invariance", "classical-brst", "quantum-brst")
        invariants = ()
    return ScenarioConfig(
        name=f"commuting-n{n}",
        description=f"commuting variety: conjugation on symmetric {n}x{n} matrix pairs",
        variables=variables,
        grading_names=("qdeg", "pdeg"),
        gradings=gradings,
        poisson_entries=poisson,
        lie_dim=len(SO_AXES[n]),
        structure_constants=SO_STRUCTURE[n],
        moment_map=tuple(comps),
        action=tuple(action),
        degree_bound=6,
        invariant_mode="declared",
        declared_invariants=invariants,
        stages=stages,
        params=(("n", str(n)),),
        justification=(
            "the complexified commutator ideal of symmetric matrix pairs is "
            "prime of the expected codimension (scenario assumption for the "
            "generating hypothesis); n=2 acyclicity is certified by rank checks"
        ),
    )


def negative_control_qq():
    """Repeated constraint (q, q): fails the complete-intersection check."""
    return ScenarioConfig(
        name="negative-control-qq",
        description="repeated linear constraint; homology in degree one",
        variables=("q", "p"),
        poisson_entries=(("q", "p", "1"),),
        lie_dim=2,
        moment_map=("q", "q"),
        action=((1, "q", "0"), (1, "p", "1"), (2, "q", "0"), (2, "p", "1")),
        degree_bound=6,
        invariant_mode="declared",
        stages=(
            "load",
            "covariance",
            "strong-invariance",
            "acyclicity",
            "contraction",
            "classical-brst",
        ),
        justification="negative control: the constraints do not form a regular sequence",
    )


def broken_sign_star():
    """The circle scenario with the ghost-pairing sign flipped in the product."""
    base = s1_c4()
    return replace(
        base,
        name="broken-sign-star",
        description="negative control: Clifford pairing sign flipped",
        clifford_coeff="2",
        stages=("load", "covariance", "strong-invariance", "quantum-brst"),
        star_triples="sample",
        justification="negative control: wrong pairing sign breaks the quantum splitting",
    )


def cubic_moment_map():
    """A cubic-perturbed constraint: strong invariance fails at third order."""
    return ScenarioConfig(
        name="cubic-moment-map",
        description="negative control: cubic perturbation of a quadratic constraint",
        variables=("q", "p"),
        poisson_entries=(("q", "p", "1"),),
        moment_map=("q^2 + q^3",),
        action=((1, "q", "0"), (1, "p", "2*q + 3*q^2")),
        degree_bound=6,
        invariant_mode="declared",
        stages=("load", "covariance", "strong-invariance", "acyclicity"),
        justification="negative control: cubic term breaks strong invariance at nu^3",
    )


REGISTRY_BUILDERS = {
    "s1-c4": s1_c4,
    "t2-c4": t2_c4,
    "angular-momentum-m2": angular_momentum,
    "commuting-n2": lambda: commuting_variety(2),
    "commuting-n3": lambda: commuting_variety(3),
    "negative-control-qq": negative_control_qq,
    "broken-sign-star": broken_sign_star,
    "cubic-moment-map": cubic_moment_map,
}


def registry():
    return {name: build() for name, build in REGISTRY_BUILDERS.items()}


def get_scenario(name):
    try:
        return REGISTRY_BUILDERS[name]()
    except KeyError:
        raise ConfigError(f"unknown scenario {name!r}") from None


# -- config files ----------------------------------------------------------------


def _int(text, what):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{what} must be an integer, got {text!r}") from None


def _rational(text, what):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{what} must be a rational number, got {text!r}") from None


def _text(text, what):
    return text


# Each [scenario] key: the ScenarioConfig field it sets and the reader of its
# text.  A key the file omits leaves its field at the ScenarioConfig default.
SCENARIO_KEYS = {
    "name": ("name", _text),
    "description": ("description", _text),
    "field": ("field_name", _text),
    "order": ("order", _int),
    "degree_bound": ("degree_bound", _int),
    "seed": ("seed", _int),
    "stages": ("stages", lambda text, what: tuple(text.split())),
    "clifford_coeff": ("clifford_coeff", _text),
    "star_triples": ("star_triples", _text),
    "justification": ("justification", _text),
}

# The sections of a config file, each with the pattern its keys must match.
# The keys of the sections that match any key are validated as they are read.
SECTION_KEYS = {
    "scenario": "|".join(SCENARIO_KEYS),
    "variables": r"names|torus_rows|grading\..*",
    "poisson": ".*",
    "lie": r"dim|f\..*",
    **dict.fromkeys(("moment-map", "action", "invariants", "checks"), ".*"),
}


def _section(cp, name):
    if not cp.has_section(name):
        raise ConfigError(f"missing section [{name}]")
    return cp[name]


def load_config(path):
    """Read a scenario from a key-value config file with section headers.

    A missing section or key, a malformed key or a non-integer numeric
    value raises ConfigError.
    """
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep case
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for name in cp.sections():
        if name not in SECTION_KEYS:
            expected = ", ".join(SECTION_KEYS)
            raise ConfigError(f"unknown section [{name}]: expected one of {expected}")
        for key in cp[name]:
            if not re.fullmatch(SECTION_KEYS[name], key):
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
    sc = _section(cp, "scenario")
    fields = {"name": "unnamed"}  # the fields the file sets; every other keeps its default
    var_section = _section(cp, "variables")
    if "names" not in var_section:
        raise ConfigError("missing key 'names' in section [variables]")
    variables = tuple(var_section["names"].split())

    grading_names = []
    gradings = []
    for key, value in var_section.items():
        if key.startswith("grading."):
            grading_names.append(key.split(".", 1)[1])
            gradings.append(tuple(_int(x, f"grading row {key}") for x in value.split()))
    torus_names = var_section.get("torus_rows", "").split()
    try:
        torus_rows = tuple(grading_names.index(n) for n in torus_names)
    except ValueError as exc:
        raise ConfigError(f"unknown torus grading row: {exc}") from None

    poisson = []
    for key, value in _section(cp, "poisson").items():
        parts = key.split()
        if len(parts) != 2:
            raise ConfigError(f"poisson key must be two variable names: {key!r}")
        poisson.append((parts[0], parts[1], value))

    lie = _section(cp, "lie")
    if "dim" in lie:
        fields["lie_dim"] = _int(lie["dim"], "lie dim")
    f_entries = []
    for key, value in lie.items():
        if key.startswith("f."):
            parts = key.split(".")
            if len(parts) != 4:
                raise ConfigError(f"structure constant key must be 'f.a.b.c': {key!r}")
            a, b, c = (_int(x, f"structure constant index in {key!r}") for x in parts[1:])
            f_entries.append((a, b, c, value))

    moment = {}  # component number -> expression; the parser rejects a repeated key
    for key, value in _section(cp, "moment-map").items():
        if not re.fullmatch(r"J[1-9][0-9]*", key):
            raise ConfigError(f"moment-map key must be J1, J2, ...: {key!r}")
        moment[int(key[1:])] = value
    for k in range(1, len(moment) + 1):
        if k not in moment:
            raise ConfigError(f"moment-map keys must be J1..J{len(moment)}: J{k} is missing")

    action = []
    if cp.has_section("action"):
        for key, value in cp["action"].items():
            parts = key.split()
            if len(parts) != 2 or not re.fullmatch(r"J[1-9][0-9]*", parts[0]):
                raise ConfigError(f"action key must be 'J<k> variable': {key!r}")
            action.append((int(parts[0][1:]), parts[1], value))

    invariants = {}  # invariant number -> expression
    if cp.has_section("invariants"):
        inv = cp["invariants"]
        if "mode" in inv:
            fields["invariant_mode"] = inv["mode"]
        if "degree_cap" in inv:
            fields["generator_cap"] = _int(inv["degree_cap"], "invariants degree_cap")
        for key, value in inv.items():
            if re.fullmatch(r"g[1-9][0-9]*", key):
                invariants[int(key[1:])] = value
            elif key not in ("mode", "degree_cap"):
                raise ConfigError(
                    f"invariants key must be mode, degree_cap or g1, g2, ...: {key!r}"
                )

    probe_overrides = []
    if cp.has_section("checks"):
        for key, value in cp["checks"].items():
            probe_overrides.append((key, value))

    for key, (field, read) in SCENARIO_KEYS.items():
        if key in sc:
            fields[field] = read(sc[key], key)
    return ScenarioConfig(
        variables=variables,
        grading_names=tuple(grading_names),
        gradings=tuple(gradings),
        torus_rows=torus_rows,
        poisson_entries=tuple(poisson),
        structure_constants=tuple(f_entries),
        moment_map=tuple(moment[k] for k in sorted(moment)),
        action=tuple(action),
        declared_invariants=tuple(invariants[k] for k in sorted(invariants)),
        probe_overrides=tuple(probe_overrides),
        **fields,
    )
