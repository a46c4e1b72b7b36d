"""redstar benchmark: time to an exact verdict on registry scenario workloads.

    python3 perfbench/run.py --workload circle --seed 7 --seconds 25 --trace 0

Load model: a closed loop, one scenario at a time.  Every scenario runs in
a fresh interpreter (child.py), as `redstar run` does, so no process-global
cache carries over; this process only spawns children and waits for them.
A pass runs the workload's scenarios (workloads.py) once; passes start
until --seconds have gone by, so a run ends at most one pass later.
--seed replaces `ScenarioConfig.seed`.

--trace 0 prints the end-to-end metrics, medians over passes.  --trace 1
runs one untraced pass, two traced passes (spans at every module boundary,
see tracer.py) and the layer microbenchmarks (micro.py), and prints the
per-layer metrics; it fails if a boundary records no calls where it should
or if any count differs between the two traced passes.  Every scenario run
is checked against golden.json (verdict and (check_id, status, probes) at
any seed, the timing-stripped report digest at the default seed); a
mismatch is a failed run.  The last stdout line is the JSON result; the
full record, with the machine block, goes to .perfbench/.

--write-golden reruns every scenario at the default seed and rewrites
golden.json.
"""

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, per_layer, span_metrics
from tracer import BOUNDARIES as TRACED
from tracer import COUNTERS, SOLVER_MISSES
from workloads import DEFAULT_SEED, MICRO_CONTEXT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
DEADLINE_S = 170  # every run ends well inside the 180 s a run may take

# Boundaries with no calls on a workload, by design.  reduction.certify has
# no caller in the runner (it always passes certify=False).
NOT_CALLED = {
    "circle": {"reduction.certify"},
    "torus": {"reduction.certify"},
    "rational": {"reduction.certify", "runner.equivariance-lemma", "scalars.gauss_new"},
}
BOUNDARIES = {b.name for b in TRACED} | {"scalars.gauss_new"}


class ChildFailed(Exception):
    pass


class Bench:
    def __init__(self, seed, deadline, golden):
        self.seed = seed
        self.deadline = deadline
        self.golden = golden
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.attempted = 0
        self.mismatches = []

    def spawn(self, script, args):
        """Run one child to completion; its last stdout line parsed, and its CPU seconds."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *map(str, args)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=self.env,
            cwd=ROOT,
            text=True,
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed(f"{script} {args[0]}: timed out") from None
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = " | ".join(lines[-3:])
            raise ChildFailed(f"{script} {args[0]}: exit {proc.returncode}: {tail}")
        return json.loads(lines[-1]), cpu

    def run_scenario(self, run, spans_path=None):
        """One scenario in a fresh interpreter, checked against its golden record."""
        probes = ",".join(f"{k}={v}" for k, v in run.probes)
        args = [run.scenario, run.degree_bound, self.seed, probes]
        if spans_path:
            args.append(spans_path)
        self.attempted += 1
        try:
            res, cpu = self.spawn("child.py", args)
        except ChildFailed as exc:
            self.mismatches.append(str(exc))
            return None
        res["cpu_s"] = cpu
        why = self.compare(res)
        if why:
            self.mismatches.append(f"{run.scenario} seed {self.seed}: {why}")
        return res

    def compare(self, res):
        want = self.golden.get(res["scenario"])
        if want is None:
            return "no golden record"
        if res["verdict"] != want["verdict"]:
            return f"verdict {res['verdict']} != {want['verdict']}"
        if res["checks"] != want["checks"]:
            return "(check_id, status, probes) sequence differs"
        if self.seed == DEFAULT_SEED and res["digest"] != want["digest"]:
            return "timing-stripped report digest differs"
        return None

    def run_pass(self, workload, spans_tag=None):
        results = []
        for run in WORKLOADS[workload]:
            spans = None
            if spans_tag:
                spans = os.path.join(OUT_DIR, f"spans-{workload}-{run.scenario}-{spans_tag}.tsv")
            res = self.run_scenario(run, spans)
            if res is None:
                return None
            results.append(res)
        return results


def machine_block():
    """Interpreter version, core count, CPU model and 1-minute load average."""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpuinfo = [line.split(":", 1) for line in fh if ":" in line]
    with open("/proc/loadavg", encoding="utf-8") as fh:
        load1 = float(fh.read().split()[0])
    return {
        "python": platform.python_version(),
        "nproc": sum(1 for key, _ in cpuinfo if key.strip() == "processor"),
        "cpu_model": next((v.strip() for key, v in cpuinfo if key.strip() == "model name"), "unknown"),
        "loadavg_1m": load1,
    }


def timed(bench, workload, seconds):
    """Untraced passes, started until `seconds` have gone by; end-to-end medians."""
    passes = []
    t_end = time.monotonic() + seconds
    while time.monotonic() < t_end:
        results = bench.run_pass(workload)
        if results is None:
            break
        passes.append(results)
    if not passes:
        return {}, []
    per_pass = {
        name: [sum(r[name] for r in results) for results in passes]
        for name in ("run_s", "setup_s", "cpu_s")
    }
    metrics = {name: statistics.median(vals) for name, vals in per_pass.items()}
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mib"] = rss_kib / 1024
    return metrics, per_pass


def aggregate(results):
    """Sum one traced pass over its scenarios: span table and counters."""
    spans, counters = {}, {}
    for res in results:
        for name, (calls, total, self_s) in res["trace"]["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, value in res["trace"]["counters"].items():
            if name == "linalg.max_slice_cols":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return spans, counters


def counts(spans, counters):
    """The deterministic counts of one traced pass."""
    out = {f"{name}.calls": s[0] for name, s in spans.items()}
    out.update(counters)
    solver = out.get("koszul.solver.calls", 0)
    out["koszul.solver_hit_ratio"] = 1 - out.get(SOLVER_MISSES, 0) / solver if solver else 0.0
    return out


def traced(bench, workload):
    """Untraced pass, two traced passes and microbenchmarks; per-layer metrics."""
    problems = []
    plain = bench.run_pass(workload)
    tpasses = [bench.run_pass(workload, spans_tag=f"pass{k}") for k in (1, 2)]
    if plain is None or None in tpasses:
        return {}, ["a scenario run failed"]
    scenario, degree = MICRO_CONTEXT[workload]
    try:
        micro, _ = bench.spawn("micro.py", [scenario, degree, bench.seed])
    except ChildFailed as exc:
        return {}, [str(exc)]

    tables = [aggregate(p) for p in tpasses]
    first, second = (counts(*t) for t in tables)
    if first != second:
        diff = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
        problems.append(f"counts differ between two traced runs at one seed: {diff}")
    for name in sorted(BOUNDARIES - NOT_CALLED[workload]):
        if not first.get(f"{name}.calls"):
            problems.append(f"boundary {name} recorded no calls on {workload}")
    if workload == "rational" and first.get("scalars.gauss_new.calls"):
        problems.append("GaussianRational constructed on the rational workload")

    metrics = {}
    for metric, (span, index, _) in span_metrics().items():
        if index == 0:  # calls, equal in both passes
            metrics[metric] = first.get(metric, 0)
        else:  # seconds, the median over the passes
            metrics[metric] = statistics.median(t[0].get(span, [0, 0.0, 0.0])[index] for t in tables)
    for name in COUNTERS:
        metrics[name] = first.get(name, 0)
    metrics["koszul.solver_hit_ratio"] = first["koszul.solver_hit_ratio"]
    metrics.update(micro)
    traced_run_s = statistics.median(sum(r["run_s"] for r in p) for p in tpasses)
    metrics["trace.overhead_ratio"] = traced_run_s / sum(r["run_s"] for r in plain)
    return metrics, problems


def write_golden():
    bench = Bench(DEFAULT_SEED, time.monotonic() + 3600, {})
    golden = {}
    for workload, runs in WORKLOADS.items():
        for run in runs:
            res = bench.run_scenario(run)
            if res is None:
                sys.exit(f"golden: {bench.mismatches[-1]}")
            golden[run.scenario] = {
                "workload": workload,
                "degree_bound": run.degree_bound,
                "verdict": res["verdict"],
                "checks": res["checks"],
                "digest": res["digest"],
            }
            print(f"{run.scenario}: {res['verdict']}")
    text = json.dumps(golden, indent=1)
    text = re.sub(r"\[\s+(\"[^\"]*\"),\s+(\"[^\"]*\"),\s+(\d+)\s+\]", r"[\1, \2, \3]", text)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "redstar", "__init__.py")):
        sys.exit(f"error: no redstar sources under {SRC}")
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")

    os.makedirs(OUT_DIR, exist_ok=True)
    machine = machine_block()
    print("machine: " + json.dumps(machine))
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    bench = Bench(args.seed, time.monotonic() + DEADLINE_S, golden)
    units = per_layer() if args.trace else END_TO_END
    try:
        bench.spawn("child.py", ["--warm"])  # compile bytecode before anything is timed
    except ChildFailed as exc:
        metrics, problems = {}, [str(exc)]
    else:
        if args.trace:
            metrics, problems = traced(bench, args.workload)
        else:
            metrics, per_pass = timed(bench, args.workload, args.seconds)
            problems = []
            for name, vals in per_pass.items():
                print(f"{args.workload} {name}: passes " + " ".join(f"{v:.4f}" for v in vals))
    problems += bench.mismatches
    rate = len(bench.mismatches) / max(bench.attempted, 1)
    for name, unit in units.items():
        if name in metrics:
            print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} mismatch_rate = {rate:.4g} ({len(bench.mismatches)}/{bench.attempted})")
    problems += [f"metric {name} not measured" for name in units if name not in metrics]
    for p in problems:
        print(f"problem: {p}")
    result = {
        "correct": not problems,
        "attempted": max(bench.attempted, 1),
        "failed": len(bench.mismatches),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=machine, mismatch_rate=rate, problems=problems)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
