"""Structured verification results and their deterministic JSON form."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class VerificationReport:
    class_id: str
    check: str
    residuals: tuple[tuple[str, float], ...]
    verdict: str  # "pass" | "fail" | "undefined"
    tolerance: float
    metadata: tuple[tuple[str, object], ...] = field(default=())

    @property
    def max_residual(self) -> float:
        return max((v for _, v in self.residuals), default=0.0)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def as_dict(self) -> dict:
        return {
            "class": self.class_id,
            "check": self.check,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "residuals": {k: v for k, v in self.residuals},
            "metadata": {k: v for k, v in self.metadata},
        }


def make_report(class_id, check, residuals, tolerance, metadata=(), undefined=False):
    """Verdict rule: pass iff every residual is within tolerance."""
    residuals = tuple(residuals)
    if undefined:
        verdict = "undefined"
    else:
        verdict = "pass" if all(v <= tolerance for _, v in residuals) else "fail"
    return VerificationReport(class_id, check, residuals, verdict, tolerance, tuple(metadata))


def dumps_deterministic(obj) -> str:
    """Canonical JSON: sorted keys, stable separators, LF newline at end.

    Floats serialize through repr (shortest exact round-trip, at most 17
    significant digits), which is byte-stable across runs and platforms
    for identical doubles.  JSON has no inf or nan, so a residual past
    the float range is written as the string "inf" ("-inf", "nan").
    """
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        return json.dumps(_nonfinite_as_text(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _nonfinite_as_text(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _nonfinite_as_text(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nonfinite_as_text(v) for v in obj]
    return obj
