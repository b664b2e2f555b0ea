"""Log-domain special functions: log-Gamma and the 1F1(1;b;x) closed form.

Both rest on scipy (`gammaln`, `gammainc`).  `log_gamma_grid` is
`log_gamma` over an array, with the same domain check, so scalar and
grid terms agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaln

from .logspace import LogValue


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return float(gammaln(x))


def log_gamma_grid(x: np.ndarray) -> np.ndarray:
    """log_gamma elementwise.

    gammaln returns a value for x <= 0 too, so the check is made here:
    the first element in C order that is not > 0 raises log_gamma's
    ValueError, as a scalar scan in that order would.
    """
    bad = ~(x > 0.0)
    if bad.any():
        raise ValueError(f"log_gamma requires x > 0, got {float(x.flat[np.argmax(bad)])}")
    return gammaln(x)


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
