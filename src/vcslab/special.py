"""Log-domain special functions: log-Gamma and the 1F1(1;b;x) closed form.

Both rest on scipy (`gammaln`, `gammainc`), the same routines the
vectorised norm-series grids use, so scalar and grid terms agree.
"""

from __future__ import annotations

import math

from scipy.special import gammainc, gammaln

from .logspace import LogValue


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return float(gammaln(x))


def hyp1f1_one_closed(b: float, x: float) -> LogValue:
    """1F1(1;b;x) = sum_k x^k / (b)_k for b >= 1, x >= 0.

    Below x = b the terms fall monotonically from the first, so they are
    summed directly.  From x = b on the sum is taken from
    e^x x^(1-b) Gamma(b) P(b-1, x), where P(b-1, x) >= 1/2 cannot
    underflow.
    """
    if b < 1.0:
        raise ValueError("hyp1f1_one_closed requires b >= 1")
    if x < 0.0:
        raise ValueError("hyp1f1_one_closed requires x >= 0")
    if x == 0.0:
        return LogValue.one()
    if b == 1.0:
        return LogValue.exp(x)
    if x < b:
        term = 1.0
        total = 1.0
        k = 0
        while term > total * 1e-17:
            term *= x / (b + k)
            total += term
            k += 1
        return LogValue.from_value(total)
    p = float(gammainc(b - 1.0, x))
    return LogValue.exp(x + (1.0 - b) * math.log(x) + float(gammaln(b)) + math.log(p))
