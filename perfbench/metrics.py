"""Names and units of every metric the benchmark prints.

The traced boundaries and counters are listed once, in tracer.py; this
module turns them into metric names.  BENCHMARK.json lists the same names
with their direction and, for the end-to-end metrics, the bound.
"""

from tracer import BOUNDARIES, COUNTERS

# End-to-end metrics, from the untraced runs.
END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}

# (metric suffix, unit, index in a span's [calls, total_s, self_s]) per column.
COLUMNS = {"calls": (".calls", "count", 0), "total": ("_s", "s", 1), "self": (".self_s", "s", 2)}

MICRO = {
    "micro.scalars.gauss_mul_ns": "ns",
    "micro.scalars.gauss_add_ns": "ns",
    "micro.scalars.qq_mul_ns": "ns",
    "micro.poly.mul_us": "us",
    "micro.poisson.moyal_term_us": "us",
    "micro.linalg.slice_build_ms": "ms",
    "micro.linalg.solve_us": "us",
    "micro.koszul.normal_form_us": "us",
    "micro.koszul.h_fn_us": "us",
    "micro.hpt.neumann_us": "us",
}


def span_metrics():
    """Metrics read from the span table: name -> (span name, column index, unit)."""
    out = {}
    for b in BOUNDARIES:
        for col in b.columns:
            suffix, unit, index = COLUMNS[col]
            out[b.name + suffix] = (b.name, index, unit)
    return out


def per_layer():
    """Traced-run metrics: name -> unit."""
    out = {name: unit for name, (_, _, unit) in span_metrics().items()}
    out.update({c: "count" for c in COUNTERS})
    out["koszul.solver_hit_ratio"] = "ratio"
    out.update(MICRO)
    out["trace.overhead_ratio"] = "ratio"
    return out
