"""The log-sum-exp kernel and relative differences of logged values.

Norm series terms and generalized-factorial targets overflow double
precision quickly (Gamma arguments run into the hundreds), so every
quantity that can get large is carried as the float log of its value,
and sums of such terms are taken with `logsumexp`.
"""

from __future__ import annotations

import math
import operator

import numpy as np


def logsumexp(a) -> float:
    """log(sum(exp(a))) over every element of a real float array.

    The maximum m is taken out of the sum, m + log(sum(exp(a - m))), so
    no term overflows and the largest is 1.  An empty or all -inf array
    gives -inf, an array holding +inf gives +inf and one holding nan gives
    nan.
    """
    # a - m may pass the float range only towards -inf, where exp is 0
    with np.errstate(over="ignore"):
        return logsumexp_kernel(np.asarray(a, dtype=float))


def logsumexp_kernel(a: np.ndarray) -> float:
    """`logsumexp` of a float array or numpy float, for a caller that
    already holds numpy's overflow warning off."""
    if a.size == 0:
        return float("-inf")
    m = float(a.max())
    if not math.isfinite(m):
        return m
    return m + math.log(np.exp(a - m).sum())


def rel_diffs_from_logs(log_a, log_b) -> list[float]:
    """|a - b| / |b| elementwise, for a, b >= 0 given by their logs (-inf
    for zero): 0 where both are zero, inf where only b is, 1 where only a
    is, else |expm1(log a - log b)| by `math.expm1`, inf past its range."""
    log_a = np.asarray(log_a, dtype=float).tolist()
    log_b = np.asarray(log_b, dtype=float).tolist()
    diffs = list(map(operator.sub, log_a, log_b))
    try:
        out = list(map(abs, map(math.expm1, diffs)))
    except OverflowError:  # a difference past expm1's range
        out = list(map(_abs_expm1, diffs))
    if -math.inf in log_a or -math.inf in log_b:
        for i, (a, b) in enumerate(zip(log_a, log_b)):
            if b == -math.inf:
                out[i] = 0.0 if a == -math.inf else math.inf
            elif a == -math.inf:
                out[i] = 1.0
    return out


def _abs_expm1(d: float) -> float:
    try:
        return abs(math.expm1(d))
    except OverflowError:
        return math.inf


def rel_diff_from_logs(log_a: float, log_b: float) -> float:
    """`rel_diffs_from_logs` of one pair."""
    return rel_diffs_from_logs([log_a], [log_b])[0]
