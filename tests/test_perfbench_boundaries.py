"""The benchmark's traced boundaries and microbenchmarks still resolve and run.

`perfbench/tracer.py` wraps every name in its `BOUNDARIES` table and raises
on one that no redstar module binds any more; `perfbench/micro.py` imports
the functions it times and chains them (a slice's `diff_rows` into
`SliceSolver` and `mat_vec`, then `solve`).  Both run in a fresh
interpreter here, so that a change which deletes or renames such a name, or
changes a format that one of them hands to another, fails the test suite,
not only a traced benchmark run.  A refactor that leaves a boundary in place
but no longer calls it is caught the same way: each workload runs traced,
and every boundary that `run.py` expects to be called on it must record
calls; the rational workload must also build no Gaussian scalar.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]),
)

CODE = """
import redstar.runner
from tracer import Tracer

Tracer().install()
import micro
"""


def test_tracer_installs_and_microbenchmarks_import():
    proc = subprocess.run(
        [sys.executable, "-c", CODE], env=ENV, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_microbenchmarks_run_and_print_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"] if m["name"].startswith("micro.")}
    script = os.path.join(ROOT, "perfbench", "micro.py")
    proc = subprocess.run(
        [sys.executable, script, "s1-c4", "3", "7"],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed = json.loads(proc.stdout)
    assert declared and declared <= set(printed), declared - set(printed)


TRACED_WORKLOAD = """
import dataclasses
import json
import sys

import redstar.runner
from redstar.scenarios import REGISTRY_BUILDERS
from tracer import Tracer

import run
from workloads import DEFAULT_SEED, WORKLOADS

workload = sys.argv[1]
tracer = Tracer()
tracer.install()
for w in WORKLOADS[workload]:
    config = dataclasses.replace(
        REGISTRY_BUILDERS[w.scenario](), seed=DEFAULT_SEED, probe_overrides=w.probes
    )
    redstar.runner.run_scenario(config, degree_bound=w.degree_bound).to_json()
summary = tracer.summary()
counts = run.counts(summary["spans"], summary["counters"])
expected = run.BOUNDARIES - run.NOT_CALLED[workload]
missing = sorted(name for name in expected if not counts.get(f"{name}.calls"))
print(json.dumps({"missing": missing, "gauss_new": counts.get("scalars.gauss_new.calls", 0)}))
"""


@pytest.mark.parametrize("workload", ["circle", "torus", "rational"])
def test_every_boundary_records_calls_on_each_workload(workload):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_WORKLOAD, workload],
        env=ENV, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["missing"] == []
    if workload == "rational":  # no Gaussian scalar is ever built
        assert result["gauss_new"] == 0
