"""Every registry scenario's report, pinned to the benchmark's golden records.

Runs each scenario at the sizes in `perfbench/workloads.py` and the default
seed, and compares the timing-stripped report digest with
`perfbench/golden.json`, computed the way `perfbench/child.py` computes it.
A refactor that changes any check id, anchor, status, probe count, detail
or witness changes a digest.
"""

import dataclasses
import hashlib
import importlib.util
import json
import os

import pytest

from redstar.runner import run_scenario
from redstar.scenarios import REGISTRY_BUILDERS

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
RUNS = [run for runs in WORKLOADS.WORKLOADS.values() for run in runs]
with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def stripped_digest(report):
    doc = json.loads(report.to_json())
    for check in doc["checks"]:
        check.pop("wall_time_s")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("run", RUNS, ids=[run.scenario for run in RUNS])
def test_registry_report_matches_golden_digest(run):
    config = dataclasses.replace(
        REGISTRY_BUILDERS[run.scenario](),
        seed=WORKLOADS.DEFAULT_SEED,
        probe_overrides=tuple(run.probes),
    )
    report = run_scenario(config, degree_bound=run.degree_bound)
    want = GOLDEN[run.scenario]
    assert [[r.check_id, r.status, r.probes] for r in report.records] == want["checks"]
    assert stripped_digest(report) == want["digest"]
