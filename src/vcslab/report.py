"""Structured verification results and their deterministic JSON form."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote


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

    The bytes are those of json.dumps(obj, sort_keys=True, indent=2),
    written by one recursive pass.  Floats serialize through repr
    (shortest exact round-trip, at most 17 significant digits), which is
    byte-stable across runs and platforms for identical doubles.  JSON
    has no inf or nan, so a value past the float range is written as the
    string of its repr ("inf", "-inf", "nan").  Each container is joined
    as soon as it is written, so no more than one nesting path of small
    strings is alive at a time.
    """
    return _text(obj, "\n") + "\n"


def _text(o, pad: str) -> str:
    """The JSON text of o, whose lines continue after pad (a newline and
    the indent of o's own line)."""
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, float):
        return float.__repr__(o) if math.isfinite(o) else _quote(repr(o))
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = pad + "  "
        # a key that is not a str raises TypeError in _quote
        body = ("," + inner).join([_quote(k) + ": " + _text(v, inner) for k, v in sorted(o.items())])
        return "{" + inner + body + pad + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_text(v, inner) for v in o]) + pad + "]"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
