"""Machine-readable reports for scenario verification runs.

Every check record carries the identity it verified (as a formula label),
its status, a residual summary and, on failure, one concrete witness.
JSON output is byte-stable for identical inputs up to the timing fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass
class CheckRecord:
    check_id: str
    stage: str
    anchor: str  # the identity being verified, as a formula label
    status: str  # "pass" | "fail" | "skipped" | "not-attempted" | "error"
    residual_terms: int = 0
    residual_max_degree: int = -1
    probes: int = 0
    wall_time_s: float = 0.0
    witness: str = None
    detail: str = None

    @property
    def passed(self):
        return self.status == "pass"


@dataclass
class Report:
    scenario: str
    engine_version: str
    config_echo: dict
    records: list = field(default_factory=list)

    @property
    def verdict(self):
        if any(r.status in ("fail", "error") for r in self.records):
            return "fail"
        return "pass"

    def counts(self):
        out = {}
        for r in self.records:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "engine_version": self.engine_version,
            "verdict": self.verdict,
            "counts": self.counts(),
            "config": self.config_echo,
            "checks": [asdict(r) for r in self.records],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, default=str) + "\n"

    def to_text(self):
        lines = [f"scenario: {self.scenario}", f"engine: redstar {self.engine_version}"]
        width = max((len(r.check_id) for r in self.records), default=10)
        for r in self.records:
            line = f"  [{r.status.upper():13}] {r.check_id:{width}}  {r.anchor}"
            if r.probes:
                line += f"  (probes: {r.probes})"
            if r.wall_time_s >= 0.05:
                line += f"  [{r.wall_time_s:.2f}s]"
            lines.append(line)
            if r.witness and r.status in ("fail", "error"):
                lines.append(f"      witness: {r.witness}")
            if r.residual_terms and r.status == "fail":
                lines.append(
                    f"      residual: {r.residual_terms} nonzero coefficient(s), "
                    f"max degree {r.residual_max_degree}"
                )
            if r.detail and r.status in ("fail", "error"):
                lines.append(f"      detail: {r.detail}")
        lines.append(f"verdict: {self.verdict.upper()}")
        return "\n".join(lines) + "\n"


def emit_report(report, fmt="json", path=None):
    """Write the report; returns the rendered text."""
    text = report.to_json() if fmt == "json" else report.to_text()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
