"""Layer microbenchmarks: each public function timed alone, in this interpreter.

Usage: python micro.py SCENARIO DEGREE_BOUND SEED

Inputs are drawn from `random.Random` seeded with SEED, in the contexts
that the registry scenario SCENARIO builds (its `load` stage) at
DEGREE_BOUND.  Each function runs once on its inputs to fill caches, then
REPEATS more times; the median pass, divided by the input count, is the
time per call.  Prints one JSON object {metric: value}.
"""

import dataclasses
import json
import random
import statistics
import sys
import time

from redstar.hpt import neumann_inverse
from redstar.koszul import KoszulSpace, build_koszul_contraction, enforce_side_conditions
from redstar.linalg import SliceSolver, mat_vec
from redstar.poisson import moyal_term
from redstar.probes import random_bounded_super, random_poly
from redstar.quantum import build_quantum_koszul
from redstar.runner import STAGE_FUNCTIONS, RunState
from redstar.scalars import QQ, QQ_I
from redstar.scenarios import REGISTRY_BUILDERS
from redstar.superalg import OperatorHandle, op_compose

REPEATS = 5


def per_call(fn, inputs, scale):
    """Median seconds per call of fn over inputs, times `scale`."""
    for x in inputs:
        fn(x)
    passes = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for x in inputs:
            fn(x)
        passes.append(time.perf_counter() - t0)
    return statistics.median(passes) / len(inputs) * scale


def largest_slice(space, ctx, bound):
    """Grade of the largest K_1 slice at total degree `bound`."""
    grades = {ctx.grade_of_mono(m) for m in ctx.monomials_of_degree(bound)}
    return max(sorted(grades), key=lambda g: len(space.slice_basis(1, g)))


def main(argv):
    scenario, degree, seed = argv[0], int(argv[1]), int(argv[2])
    config = dataclasses.replace(REGISTRY_BUILDERS[scenario](), degree_bound=degree, seed=seed)
    state = RunState(config)
    STAGE_FUNCTIONS["load"](state)
    ctx, lam, moment = state.ctx, state.lam, state.moment
    dim, fld = moment.lie.dim, ctx.field

    def rng(name):
        return random.Random(f"{seed}:micro:{name}")

    out = {}
    r = rng("scalars")
    gauss = [(QQ_I.random(r), QQ_I.random(r)) for _ in range(2000)]
    qq = [(QQ.random(r), QQ.random(r)) for _ in range(2000)]
    out["micro.scalars.gauss_mul_ns"] = per_call(lambda ab: ab[0] * ab[1], gauss, 1e9)
    out["micro.scalars.gauss_add_ns"] = per_call(lambda ab: ab[0] + ab[1], gauss, 1e9)
    out["micro.scalars.qq_mul_ns"] = per_call(lambda ab: ab[0] * ab[1], qq, 1e9)

    r = rng("poly")
    pairs = [(random_poly(ctx, r, 3, terms=4), random_poly(ctx, r, 3, terms=4)) for _ in range(200)]
    out["micro.poly.mul_us"] = per_call(lambda fg: fg[0] * fg[1], pairs, 1e6)

    r = rng("poisson")
    pairs = [(random_poly(ctx, r, 3, terms=4), random_poly(ctx, r, 3, terms=4)) for _ in range(40)]
    out["micro.poisson.moyal_term_us"] = per_call(lambda fg: moyal_term(fg[0], fg[1], lam, 2), pairs, 1e6)

    space = KoszulSpace(moment, degree)
    grade = largest_slice(space, ctx, degree)
    rows = space.diff_rows(1, grade)
    ncols = len(space.slice_basis(1, grade))
    out["micro.linalg.slice_build_ms"] = per_call(lambda rs: SliceSolver(rs, ncols, fld), [rows] * 3, 1e3)
    solver = SliceSolver(rows, ncols, fld)
    r = rng("linalg")
    rhs = [mat_vec(rows, [fld.random(r) for _ in range(ncols)], fld) for _ in range(10)]
    out["micro.linalg.solve_us"] = per_call(solver.solve, rhs, 1e6)

    r = rng("koszul")
    polys = [random_poly(ctx, r, degree, terms=4) for _ in range(100)]
    out["micro.koszul.normal_form_us"] = per_call(space.normal_form_poly, polys, 1e6)
    kc = enforce_side_conditions(build_koszul_contraction(moment, degree))
    elems = [random_bounded_super(ctx, dim, 0, r, degree, state.jdegs, terms=2) for _ in range(15)]
    out["micro.koszul.h_fn_us"] = per_call(kc.h, elems, 1e6)

    # (id + t h)^-1 with t = koszul_nu - koszul, as in the deformed restriction.
    knu = build_quantum_koszul(moment, state.star)
    t = OperatorHandle("t", lambda x: knu(x) - kc.d_Y(x), -1, frozenset({"nu"}))
    th = op_compose(t, kc.h)
    inv = neumann_inverse(th, cap=state.work_order + 4)
    r = rng("hpt")
    elems = [
        random_bounded_super(ctx, dim, state.work_order, r, degree, state.jdegs, terms=2)
        for _ in range(10)
    ]
    out["micro.hpt.neumann_us"] = per_call(inv, elems, 1e6)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
