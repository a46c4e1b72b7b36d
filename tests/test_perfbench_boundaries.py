"""The benchmark's traced boundaries and microbenchmarks still resolve and run.

`perfbench/tracer.py` wraps every name in its `BOUNDARIES` table and raises
on one that no redstar module binds any more; `perfbench/micro.py` imports
the functions it times and chains them (a slice's `diff_rows` into
`SliceSolver` and `mat_vec`, then `solve`).  Both run in a fresh
interpreter here, so that a change which deletes or renames such a name, or
changes a format that one of them hands to another, fails the test suite,
not only a traced benchmark run.
"""

import json
import os
import subprocess
import sys

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
