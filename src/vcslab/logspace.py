"""Signed log-domain scalars and the log-sum-exp kernel.

Norm series terms and generalized-factorial targets overflow double
precision quickly (Gamma arguments run into the hundreds), so every
quantity that can get large is carried as (log |x|, sign), and sums of
such terms are taken with `logsumexp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def logsumexp(a) -> float:
    """log(sum(exp(a))) over every element of a real float array.

    The same float as scipy.special.logsumexp(a) with axis=None and no
    weights, bit for bit: the same numpy reductions on arrays of the same
    shapes, kept in 1-element arrays, without scipy's per-call dispatch.
    The maximum is taken out of the sum (every element equal to it counts
    once in m), and a non-finite result takes the direct
    log(sum(exp(a))) route, as scipy's does.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.size == 0:
        return float("-inf")
    axes = tuple(range(a.ndim))
    a_max = a.max(axis=axes, keepdims=True)
    if math.isfinite(a_max.item()):
        at_max = a == a_max
        rest = np.array(a, copy=True)
        rest[at_max] = -np.inf
        m = at_max.sum(axis=axes, keepdims=True, dtype=float)
        s = np.exp(rest - a_max).sum(axis=axes, keepdims=True)
        if s.item() != 0.0:
            s = s / m
        out = (np.log1p(s) + np.log(m) + a_max).item()
        if math.isfinite(out):
            return out
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.log(np.exp(a).sum(axis=axes, keepdims=True)).item()


@dataclass(frozen=True)
class LogValue:
    """A real number stored as log of its absolute value plus a sign.

    sign == 0 encodes exactly zero; log_abs is -inf in that case.
    """

    log_abs: float
    sign: int = 1

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(float("-inf"), 0)

    @classmethod
    def one(cls) -> "LogValue":
        return cls(0.0, 1)

    @classmethod
    def from_value(cls, x: float) -> "LogValue":
        if x == 0.0:
            return cls.zero()
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    @classmethod
    def exp(cls, log_abs: float, sign: int = 1) -> "LogValue":
        if sign == 0 or log_abs == float("-inf"):
            return cls.zero()
        return cls(log_abs, sign)

    @property
    def value(self) -> float:
        # may overflow to +-inf for huge log_abs; callers wanting safety stay in logs
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_abs)

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0 or other.sign == 0:
            return LogValue.zero()
        return LogValue(self.log_abs + other.log_abs, self.sign * other.sign)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.sign == 0:
            raise ZeroDivisionError("division by exact LogValue zero")
        if self.sign == 0:
            return LogValue.zero()
        return LogValue(self.log_abs - other.log_abs, self.sign * other.sign)

    def rel_diff(self, other: "LogValue") -> float:
        """Relative difference |self - other| / |other| without leaving log scale."""
        if self.sign * other.sign == -1:
            return float("inf")
        return rel_diff_from_logs(self.log_abs, other.log_abs)


def rel_diff_from_logs(log_a: float, log_b: float) -> float:
    """|a - b| / |b| for a, b >= 0 given by their logs (-inf for zero).

    The same float as LogValue.exp(log_a).rel_diff(LogValue.exp(log_b)),
    without building either LogValue; inf past the expm1 range.
    """
    if log_b == float("-inf"):
        return 0.0 if log_a == float("-inf") else float("inf")
    if log_a == float("-inf"):
        return 1.0
    try:
        return abs(math.expm1(log_a - log_b))
    except OverflowError:
        return float("inf")

