"""Alternating parent/change pairs of the benchmark, and the gain rule on them.

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload rational \
        --seed 7 -n 10 --seconds 25

Each directory is a checkout of the repository.  Pair k runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once in each
directory, one process at a time; the parent goes first in even pairs and
the change in odd ones.  For every end-to-end metric it prints each side's
median and quartiles, the pairs the change won (ties count for neither
side), whether a gain can be claimed (at least ten pairs, the change
winning at least nine tenths of them, and the medians differing, in the
better direction, by more than the parent's interquartile range), and the
no-regression verdict against the metric's `bound` in BENCHMARK.json, a
fraction of the parent median: `worse` when the change's median is worse
by more than the bound, `unresolved` when the parent's own interquartile
range is wider than the bound and not every change run beats every parent
run, and `within bound` otherwise.

A run that is not `correct`, or that has failed scenario runs, is named in
its pair line, and its pair counts toward no metric.  The summary prints
each side's failed and attempted runs summed over all pairs, and a gain is
claimed only if the change's failed share is no larger than the parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent, change, better="lower", bound=None):
    """The gain rule on paired runs: parent[k] and change[k] form pair k.

    With a `bound` (a fraction of the parent median), "verdict" is the
    no-regression rule's: "worse", "unresolved" or "within bound".
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (pm - cm)
    pairs = len(parent)
    verdict = None
    if bound is not None:
        allowed = bound * abs(pm)
        if -gain > allowed:
            verdict = "worse"
        elif p3 - p1 > allowed and not all(sign * (p - c) > 0 for p in parent for c in change):
            verdict = "unresolved"
        else:
            verdict = "within bound"
    return {
        "pairs": pairs,
        "wins": wins,
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "gain": gain,
        "parent_iqr": p3 - p1,
        "claim": pairs >= 10 and 10 * wins >= 9 * pairs and gain > p3 - p1,
        "verdict": verdict,
    }


def clean(result):
    """Whether a benchmark result line is correct with no failed runs."""
    return result["correct"] and not result["failed"]


def summarize(parent, change, metrics):
    """The rules on paired result lines: parent[k] and change[k] form pair k.

    `metrics` maps each end-to-end metric to (better, bound).  Returns
    ({metric: `compare` result, or None when no pair is clean}, tallies):
    only pairs whose two runs are both `clean` count toward a metric, and
    tallies[side] is that side's (failed, attempted) summed over every run.
    A claim also needs the change's failed share to be no larger than the
    parent's.
    """
    tallies = {
        side: (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
        for side, runs in (("parent", parent), ("change", change))
    }
    (pf, pa), (cf, ca) = tallies["parent"], tallies["change"]
    more_failed = cf * pa > pf * ca  # cf / ca > pf / pa without dividing by zero
    pairs = [(p, c) for p, c in zip(parent, change) if clean(p) and clean(c)]
    results = {}
    for metric, (better, bound) in metrics.items():
        if not pairs:
            results[metric] = None
            continue
        r = compare(
            [p["metrics"][metric]["value"] for p, _ in pairs],
            [c["metrics"][metric]["value"] for _, c in pairs],
            better,
            bound,
        )
        r["claim"] = r["claim"] and not more_failed
        results[metric] = r
    return results, tallies


def run_once(directory, workload, seed, seconds):
    """One benchmark run in `directory`; its parsed result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=directory,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{directory}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def end_to_end(directory):
    """{metric: (better, bound)} of the end-to-end metrics in BENCHMARK.json."""
    with open(os.path.join(directory, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("-n", type=int, default=10, help="number of pairs")
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)

    metrics = end_to_end(args.parent)
    runs = {"parent": [], "change": []}
    for k in range(args.n):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            if not clean(res):
                print(f"pair {k + 1}: {side} run not correct ({res['failed']} failed); pair left out")
            runs[side].append(res)
        parent, change = (runs[side][-1]["metrics"] for side in ("parent", "change"))
        line = " ".join(f"{m} {parent[m]['value']:.4g}->{change[m]['value']:.4g}" for m in metrics)
        print(f"pair {k + 1} ({order[0]} first): {line}", flush=True)

    results, tallies = summarize(runs["parent"], runs["change"], metrics)
    print(f"{args.workload} seed {args.seed}, {args.n} pairs, {args.seconds:g} s runs")
    print(" ".join(f"{side} failed {f}/{a}" for side, (f, a) in tallies.items()))
    for metric, (direction, bound) in metrics.items():
        r = results[metric]
        if r is None:
            print(f"{metric}: no pair with two correct runs; claim not met")
            continue
        (p1, pm, p3), (c1, cm, c3) = r["parent"], r["change"]
        print(
            f"{metric}: parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]"
            f"  won {r['wins']}/{r['pairs']}  gain {r['gain']:.4g} vs parent IQR"
            f" {r['parent_iqr']:.4g}  claim {'met' if r['claim'] else 'not met'}"
            f"  bound {bound:g}: {r['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
