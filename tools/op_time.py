"""Time the operators of the BRST splitting checks of one registry scenario.

    python tools/op_time.py SCENARIO [BOUND]

runs the registry scenario (at degree bound BOUND if given) up to the
`quantum-brst` stage, with only the stages that the splitting checks need
(`load`, `classical-brst` and `quantum-brst`; the others call none of these
operators, and probes are seeded per stage), and wraps the three handles
of the `brst.BrstOperators` set that `splitting_residuals` receives on each
side: D, delta and koszul classically, D_nu, delta_nu and koszul_nu after
deformation.  Every module that binds `splitting_residuals` (`brst`,
`quantum` and `runner`) is patched for the run.  It prints one
JSON line: whether `quantum-brst` passed and, per operator, the seconds
spent in it, its calls and the monomials of its inputs
(`SuperElement.nonzero_term_count`), in total and split by input: the probe
x and the images Dx, deltax and koszulx of the same side.  `plan_builds` is
the number of `super_mul` calls that `superalg._ghost_step` makes on its
cache misses in the run, started from an empty cache: the one-off cost of
building the plans, which every fresh interpreter pays.  The package is
imported from the `src` directory next to this script, so a copy of the
script in another checkout times that checkout.  Nothing here changes a
report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from redstar import brst, quantum, runner, superalg  # noqa: E402
from redstar.scenarios import get_scenario  # noqa: E402
from redstar.superalg import OperatorHandle  # noqa: E402

INPUTS = ("x", "Dx", "deltax", "koszulx")
STAGES = ("load", "classical-brst", "quantum-brst")
PATCHED = (brst, quantum, runner)  # the modules that bind splitting_residuals


def _new_stats():
    return {"seconds": 0.0, "calls": 0, "monomials": 0}


def op_time(name, bound=None):
    """The per-operator measurement of the splitting checks, as a dict."""
    ops = {}  # operator name -> totals and a split by input
    original = brst.splitting_residuals

    def timed_splitting(side_ops, probes, s=""):
        kinds = {id(x): "x" for x in probes}  # id of an input -> its kind
        keep = list(probes)  # keeps every id in kinds alive

        def timed(handle, kind):
            stats = ops.setdefault(handle.name, {**_new_stats(), "inputs": {}})

            def fn(x):
                t0 = time.perf_counter()
                out = handle(x)
                seconds = time.perf_counter() - t0
                split = stats["inputs"].setdefault(kinds[id(x)], _new_stats())
                for entry in (stats, split):
                    entry["seconds"] += seconds
                    entry["calls"] += 1
                    entry["monomials"] += x.nonzero_term_count()
                kinds[id(out)] = kind
                keep.append(out)
                return out

            return OperatorHandle(handle.name, fn, handle.degree, handle.raises_filtration)

        timed_set = replace(
            side_ops,
            D=timed(side_ops.D, "Dx"),
            delta=timed(side_ops.delta, "deltax"),
            koszul=timed(side_ops.koszul, "koszulx"),
        )
        return original(timed_set, probes, s)

    plan_builds = 0
    super_mul = superalg.super_mul

    def counted_mul(x, y):  # `_ghost_step` multiplies over its variable-free context
        nonlocal plan_builds
        plan_builds += x.ctx is superalg._SIGNS
        return super_mul(x, y)

    superalg._ghost_step.cache_clear()
    for module in PATCHED:
        module.splitting_residuals = timed_splitting
    superalg.super_mul = counted_mul
    try:
        config = get_scenario(name)
        config = replace(config, stages=tuple(s for s in config.stages if s in STAGES))
        report = runner.run_scenario(config, degree_bound=bound, only_stage="quantum-brst")
    finally:
        for module in PATCHED:
            module.splitting_residuals = original
        superalg.super_mul = super_mul
    for stats in ops.values():
        stats["seconds"] = round(stats["seconds"], 4)
        stats["inputs"] = {
            k: {**v, "seconds": round(v["seconds"], 4)}
            for k, v in sorted(stats["inputs"].items(), key=lambda kv: INPUTS.index(kv[0]))
        }
    return {
        "scenario": name,
        "bound": bound,
        "passed": all(r.status == "pass" for r in report.records if r.stage == "quantum-brst"),
        "plan_builds": plan_builds,
        "operators": ops,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scenario", help="registry scenario name")
    parser.add_argument("bound", type=int, nargs="?", help="polynomial degree bound")
    args = parser.parse_args(argv)
    print(json.dumps(op_time(args.scenario, args.bound)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
