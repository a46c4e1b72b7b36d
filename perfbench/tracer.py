"""Spans and counters at redstar's module boundaries, installed from outside.

`BOUNDARIES` is the one list of traced boundaries: each row names the span,
what it wraps and which columns the benchmark reports for it.
`Tracer.install()` replaces each boundary with a timing wrapper wherever
redstar looks the name up: in every `redstar.*` module that bound a
function (so `from .poisson import moyal_star_series` in `quantum`,
`reduction` and `superalg` is wrapped too), on the class for methods, and
in `runner.STAGE_FUNCTIONS` for the pipeline stages.  A span is
(id, parent id, name, start, end); spans stay in memory until `dump`.
Self time is a span's duration minus the durations of its child spans.

This module imports nothing from redstar until `install`, so the parent
benchmark process can read the tables without loading the package.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import sys
import time
from collections import defaultdict, namedtuple

# The pipeline stages, in `runner.STAGE_ORDER`.
STAGES = (
    "load",
    "covariance",
    "strong-invariance",
    "acyclicity",
    "contraction",
    "classical-brst",
    "classical-reduction",
    "quantum-brst",
    "deformed-restriction",
    "equivariance-lemma",
    "quantum-reduction",
    "reduced-star",
)

# Reported columns: `calls` gives `<name>.calls`, `self` gives `<name>.self_s`,
# `total` gives `<name>_s` (span durations summed; used for the stages).
CALLS_SELF = ("calls", "self")
CALLS = ("calls",)
SELF = ("self",)
TOTAL = ("total",)

# target is `function` (module-level, rebound wherever redstar binds it),
# `Class.method` (wrapped on the class), `prefix*` (every module-level
# function whose name has the prefix), `STAGE_FUNCTIONS[stage]` (a runner
# table entry) or `neumann_inverse()` (each handle that function returns).
# Several rows may share one span name.
Boundary = namedtuple("Boundary", "name module target columns")

BOUNDARIES = (
    *(Boundary(f"runner.{s}", "runner", f"STAGE_FUNCTIONS[{s}]", TOTAL) for s in STAGES),
    Boundary("parsing.parse_polynomial", "parsing", "parse_polynomial", CALLS_SELF),
    Boundary("poly.monomials_of_grade", "poly", "VarContext.monomials_of_grade", CALLS_SELF),
    Boundary("poly.mul", "poly", "Poly.__mul__", CALLS_SELF),
    Boundary("series.mul", "series", "Series.__mul__", CALLS_SELF),
    Boundary("linalg.slice_build", "linalg", "SliceSolver.__init__", CALLS_SELF),
    Boundary("linalg.solve", "linalg", "SliceSolver.solve", CALLS_SELF),
    Boundary("koszul.solver", "koszul", "KoszulSpace.solver", CALLS),
    Boundary("koszul.slice_basis", "koszul", "KoszulSpace.slice_basis", CALLS_SELF),
    Boundary("koszul.normal_form", "koszul", "KoszulSpace.normal_form_poly", CALLS_SELF),
    Boundary("koszul.h_fn", "koszul", "KoszulContraction.h_fn", CALLS_SELF),
    Boundary("koszul.check_acyclicity", "koszul", "check_acyclicity", SELF),
    Boundary("koszul.build_contraction", "koszul", "build_koszul_contraction", SELF),
    Boundary("poisson.moyal_term", "poisson", "moyal_term", CALLS_SELF),
    Boundary("poisson.moyal_star", "poisson", "moyal_star", CALLS_SELF),
    Boundary("poisson.moyal_star_series", "poisson", "moyal_star_series", CALLS_SELF),
    Boundary("poisson.poisson_bracket", "poisson", "poisson_bracket", CALLS_SELF),
    Boundary("superalg.star", "superalg", "StarProduct.star", CALLS_SELF),
    Boundary("superalg.super_mul", "superalg", "super_mul", CALLS_SELF),
    Boundary("superalg.graded_poisson", "superalg", "graded_poisson", CALLS_SELF),
    Boundary("hpt.neumann", "hpt", "neumann_inverse()", CALLS_SELF),
    Boundary("hpt.perturb", "hpt", "perturb_v1", SELF),
    Boundary("hpt.perturb", "hpt", "perturb_v2", SELF),
    Boundary("brst.certify_invariant", "brst", "certify_invariant", CALLS_SELF),
    Boundary("brst.reduced_poisson", "brst", "reduced_poisson", CALLS_SELF),
    Boundary("quantum.check_splitting", "quantum", "check_quantum_splitting", SELF),
    Boundary("quantum.star_right_multiply", "quantum", "star_right_multiply", CALLS_SELF),
    Boundary("reduction.reduced_star", "reduction", "reduced_star", CALLS_SELF),
    Boundary("reduction.certify", "reduction", "ReductionPipeline.certify", CALLS_SELF),
    Boundary("reduction.deformed_restriction", "reduction", "deformed_restriction", SELF),
    Boundary("reduction.quantum_reduction", "reduction", "quantum_reduction", SELF),
    Boundary("probes", "probes", "random_*", SELF),
    Boundary("report.to_json", "report", "Report.to_json", SELF),
)

# Plain counters, reported as they are (linalg.max_slice_cols is a maximum).
COUNTERS = (
    "scalars.gauss_new.calls",  # GaussianRational constructions
    "linalg.max_slice_cols",  # widest SliceSolver built
    "hpt.neumann.iterations",  # applications of t inside Neumann sums
)
# Counted for koszul.solver_hit_ratio, not reported: SliceSolver
# constructions made by KoszulSpace.solver, i.e. its cache misses.
SOLVER_MISSES = "koszul.solver.misses"


def _module(name):
    return importlib.import_module(f"redstar.{name}")


def _rebind(original, replacement):
    """Point every `redstar.*` module global bound to `original` at `replacement`."""
    found = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "redstar" or modname.startswith("redstar.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                found += 1
    if not found:
        raise RuntimeError(f"boundary {original.__qualname__} is bound in no redstar module")


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._ids = itertools.count(1)
        # [span id, time covered by children, span name]; the root is id 0
        self._stack = [[0, 0.0, None]]

    def span(self, name, fn):
        """`fn` wrapped so that each call records one span called `name`."""
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent[1] += d
                calls[name] += 1
                total_s[name] += d
                self_s[name] += d - frame[1]
                spans.append((frame[0], parent[0], name, t0, t1))

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every boundary; call after importing redstar, before running."""
        self._install_counters()
        runner = _module("runner")
        if tuple(runner.STAGE_ORDER) != STAGES:
            raise RuntimeError(f"runner stages {runner.STAGE_ORDER} are not {STAGES}")
        for b in BOUNDARIES:
            mod = _module(b.module)
            if b.target.startswith("STAGE_FUNCTIONS["):
                stage = b.target[len("STAGE_FUNCTIONS["):-1]
                runner.STAGE_FUNCTIONS[stage] = self.span(b.name, runner.STAGE_FUNCTIONS[stage])
            elif b.target == "neumann_inverse()":
                self._install_neumann(mod, b.name)
            elif b.target.endswith("*"):
                prefix = b.target[:-1]
                for attr, value in list(vars(mod).items()):
                    if attr.startswith(prefix) and callable(value):
                        _rebind(value, self.span(b.name, value))
            elif "." in b.target:
                cls, meth = b.target.split(".")
                klass = getattr(mod, cls)
                setattr(klass, meth, self.span(b.name, getattr(klass, meth)))
            else:
                original = getattr(mod, b.target)
                _rebind(original, self.span(b.name, original))

    def _install_counters(self):
        """Counting wrappers; the span wrappers installed after them enclose them."""
        counters, stack = self.counters, self._stack
        scalars, linalg = _module("scalars"), _module("linalg")

        gauss_init = scalars.GaussianRational.__init__

        def counted_init(obj, re=0, im=0):
            counters["scalars.gauss_new.calls"] += 1
            gauss_init(obj, re, im)

        scalars.GaussianRational.__init__ = counted_init

        slice_init = linalg.SliceSolver.__init__

        def counted_slice_init(obj, rows, ncols, field):
            if ncols > counters["linalg.max_slice_cols"]:
                counters["linalg.max_slice_cols"] = ncols
            # stack[-1] is this construction's linalg.slice_build span.
            if stack[-2][2] == "koszul.solver":
                counters[SOLVER_MISSES] += 1
            slice_init(obj, rows, ncols, field)

        linalg.SliceSolver.__init__ = counted_slice_init

    def _install_neumann(self, hpt, span_name):
        """Span each Neumann-sum handle; count the applications of its `t`."""
        counters, span = self.counters, self.span
        neumann_inverse = hpt.neumann_inverse

        def traced_neumann_inverse(t, cap, name=None):
            def counted_t(x):
                counters["hpt.neumann.iterations"] += 1
                return t(x)

            handle = neumann_inverse(dataclasses.replace(t, fn=counted_t), cap, name)
            handle.fn = span(span_name, handle.fn)
            return handle

        _rebind(neumann_inverse, functools.update_wrapper(traced_neumann_inverse, neumann_inverse))

    def summary(self):
        """Per-name calls, total and self seconds, plus the plain counters."""
        return {
            "spans": {
                name: [self.calls[name], self.total_s[name], self.self_s[name]]
                for name in sorted(self.calls)
            },
            "counters": dict(self.counters),
        }

    def dump(self, path, scenario):
        """Write the spans as tab-separated lines tagged with the scenario id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("scenario\tid\tparent\tname\tstart\tend\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{scenario}\t{sid}\t{parent}\t{name}\t{t0!r}\t{t1!r}\n")
