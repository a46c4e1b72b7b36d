"""The benchmark's traced boundaries and microbenchmark imports still resolve.

`perfbench/tracer.py` wraps every name in its `BOUNDARIES` table and raises
on one that no redstar module binds any more; `perfbench/micro.py` imports
the functions it times.  Both run in a fresh interpreter here, so that a
change which deletes or renames such a name fails the test suite, not only
a traced benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CODE = """
import redstar.runner
from tracer import Tracer

Tracer().install()
import micro
"""


def test_tracer_installs_and_microbenchmarks_import():
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", CODE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
