"""Scenario runs and machine-readable reports.

Every registered scenario bundles its coordinates, bracket, Lie data,
moment map and check selection; the runner executes the verification
stages in order and emits a report whose JSON form is byte-stable up to
timing.  The same happens on the command line:

    redstar list
    redstar run commuting-n2 --format text
    redstar run s1-c4 --report s1.json
    redstar check acyclicity negative-control-qq
    redstar run demos/circle_c2.cfg
"""

import json
import os
import tempfile

from redstar.report import emit_report
from redstar.runner import run_scenario
from redstar.scenarios import get_scenario, registry

print("registered scenarios:")
for name, cfg in registry().items():
    print(f"  {name:22} {cfg.description}")

print("\nrunning the repeated-constraint negative control ...")
report = run_scenario(get_scenario("negative-control-qq"))
print(report.to_text())

print("the same report as JSON (first lines):")
print("\n".join(report.to_json().splitlines()[:14]))

print("\nrunning commuting-n2 (the full pipeline on a small scenario) ...")
report = run_scenario(get_scenario("commuting-n2"))
passed = sum(1 for r in report.records if r.status == "pass")
print(f"verdict: {report.verdict} ({passed} checks passed)")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "commuting-n2.json")
    emit_report(report, "json", path)
    with open(path, encoding="utf-8") as fh:
        print("JSON report written and read back:", len(json.load(fh)["checks"]), "records")
