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

    The maximum m is taken out of the sum, m + log(sum(exp(a - m))), so
    no term overflows and the largest is 1.  An empty or all -inf array
    gives -inf, an array holding +inf gives +inf and one holding nan gives
    nan.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return float("-inf")
    m = float(a.max())
    if not math.isfinite(m):
        return m
    # a - m may pass the float range only towards -inf, where exp is 0
    with np.errstate(over="ignore"):
        return m + math.log(np.exp(a - m).sum())


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

