"""Time the Koszul acyclicity check of one registry scenario at one degree bound.

    python tools/slice_time.py SCENARIO BOUND

loads the registry scenario with its degree bound set to BOUND, times
`koszul.check_acyclicity` on its moment map, and prints one JSON line: the
wall time in seconds, the number of `SliceSolver` constructions during the
check, the acyclic verdict and the total dimension of H_0 over all slices.
The package is imported from the `src` directory next to this script, so a
copy of the script in another checkout times that checkout.  Nothing here
changes a report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from redstar import linalg  # noqa: E402
from redstar.koszul import check_acyclicity  # noqa: E402
from redstar.runner import RunState, stage_load  # noqa: E402
from redstar.scenarios import get_scenario  # noqa: E402


def slice_time(name, bound):
    """The measurement of `check_acyclicity` on one scenario, as a dict."""
    state = RunState(replace(get_scenario(name), degree_bound=bound))
    stage_load(state)
    built = 0
    init = linalg.SliceSolver.__init__

    def counted(obj, *args):
        nonlocal built
        built += 1
        init(obj, *args)

    linalg.SliceSolver.__init__ = counted
    try:
        t0 = time.perf_counter()
        report = check_acyclicity(state.moment, bound)
        seconds = time.perf_counter() - t0
    finally:
        linalg.SliceSolver.__init__ = init
    return {
        "scenario": name,
        "bound": bound,
        "seconds": round(seconds, 4),
        "slice_solvers": built,
        "acyclic": report.acyclic,
        "h0_total": sum(report.h0_dims.values()),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scenario", help="registry scenario name")
    parser.add_argument("bound", type=int, help="polynomial degree bound")
    args = parser.parse_args(argv)
    print(json.dumps(slice_time(args.scenario, args.bound)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
