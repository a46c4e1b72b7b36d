"""Run one registry scenario in this interpreter and print one JSON line.

Usage: python child.py SCENARIO DEGREE_BOUND SEED PROBES [SPANS_PATH]
       python child.py --warm

PROBES is `key=value,...` for `ScenarioConfig.probe_overrides`.  With
SPANS_PATH the run is traced (see tracer.py) and the spans are written
there.  `setup_s` runs from this file's first line to the `run_scenario`
call; `run_s` from that call to the returned report.  The report is then
rendered with `Report.to_json`, as `redstar run` does, and its
timing-stripped digest is returned for the golden-record check.
"""

import time

T_START = time.perf_counter()

import dataclasses  # noqa: E402
import sys  # noqa: E402

from redstar.runner import run_scenario  # noqa: E402
from redstar.scenarios import REGISTRY_BUILDERS  # noqa: E402


def main(argv):
    if argv == ["--warm"]:  # imports only, so that bytecode is compiled
        print("{}")
        return
    scenario, degree, seed, probes = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    overrides = tuple(tuple(kv.split("=")) for kv in probes.split(",") if kv)
    config = dataclasses.replace(
        REGISTRY_BUILDERS[scenario](), seed=int(seed), probe_overrides=overrides
    )
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_run = time.perf_counter()
    report = run_scenario(config, degree_bound=int(degree))
    t_done = time.perf_counter()
    text = report.to_json()

    import hashlib
    import json

    doc = json.loads(text)
    for check in doc["checks"]:
        check.pop("wall_time_s")
    stripped = json.dumps(doc, sort_keys=True).encode()
    out = {
        "scenario": scenario,
        "setup_s": t_run - T_START,
        "run_s": t_done - t_run,
        "verdict": report.verdict,
        "checks": [[r.check_id, r.status, r.probes] for r in report.records],
        "digest": hashlib.sha256(stripped).hexdigest(),
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.dump(spans_path, scenario)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
