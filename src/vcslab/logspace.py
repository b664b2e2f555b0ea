"""The log-sum-exp kernel and relative differences of logged values.

Norm series terms and generalized-factorial targets overflow double
precision quickly (Gamma arguments run into the hundreds), so every
quantity that can get large is carried as the float log of its value,
and sums of such terms are taken with `logsumexp`.
"""

from __future__ import annotations

import math

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


def rel_diff_from_logs(log_a: float, log_b: float) -> float:
    """|a - b| / |b| for a, b >= 0 given by their logs (-inf for zero); inf past the expm1 range."""
    if log_b == float("-inf"):
        return 0.0 if log_a == float("-inf") else float("inf")
    if log_a == float("-inf"):
        return 1.0
    try:
        return abs(math.expm1(log_a - log_b))
    except OverflowError:
        return float("inf")

