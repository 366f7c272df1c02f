"""Line-oriented, deterministic verification reports.

Reports are diffable artifacts: stable case ordering, floats rendered with
17 significant digits, and no timestamps in the payload (wall time goes to
stderr only, so identical flags and seed give byte-identical output).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple


def fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


class CaseResult(namedtuple("CaseResult",
                            "case_id passed residual tol detail",
                            defaults=(None, None, None))):
    __slots__ = ()

    def to_record(self) -> dict:
        rec = {"case": self.case_id, "pass": self.passed}
        for key in ("residual", "tol"):
            x = getattr(self, key)
            if x is not None:  # JSON has no NaN or infinity: write the text
                rec[key] = x if math.isfinite(x) else fmt(x)
        if self.detail is not None:
            rec["detail"] = self.detail
        return rec


class SuiteReport:
    def __init__(self, name: str, seed: int | None = None):
        self.name, self.seed = name, seed
        self.cases: list[CaseResult] = []

    def add(self, case_id: str, passed, residual=None,
            tol: float | None = None, detail: str | None = None):
        residual = None if residual is None else float(residual)
        self.cases.append(
            CaseResult(case_id, bool(passed), residual, tol, detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def failures(self) -> int:
        return sum(1 for c in self.cases if not c.passed)

    def sorted_cases(self) -> list[CaseResult]:
        return sorted(self.cases, key=lambda c: c.case_id)

    def render_text(self) -> str:
        lines = []
        for c in self.sorted_cases():
            parts = [f"suite={self.name}", f"case={c.case_id}"]
            if c.residual is not None:
                parts.append(f"residual={fmt(c.residual)}")
            if c.tol is not None:
                parts.append(f"tol={fmt(c.tol)}")
            if c.detail is not None:
                parts.append(f"detail={c.detail}")
            parts.append(f"pass={fmt(c.passed)}")
            lines.append(" ".join(parts))
        summary = [f"suite={self.name}", "case=SUMMARY",
                   f"cases={len(self.cases)}", f"failures={self.failures}"]
        if self.seed is not None:
            summary.append(f"seed={self.seed}")
        summary.append(f"pass={fmt(self.passed)}")
        lines.append(" ".join(summary))
        return "\n".join(lines)

    def to_object(self) -> dict:
        obj = {
            "suite": self.name,
            "cases": [c.to_record() for c in self.sorted_cases()],
            "failures": self.failures,
            "pass": self.passed,
        }
        if self.seed is not None:
            obj["seed"] = self.seed
        return obj

    def render_json(self) -> str:
        return json.dumps(self.to_object(), sort_keys=True)
