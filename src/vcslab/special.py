"""Log-domain special functions: log-Gamma and the 1F1(1;b;x) closed form.

Both rest on the standard library, so importing vcslab loads no scipy.
`log_gamma` is `math.lgamma` behind a domain check.  `log_gamma_grid`
is the same function over an array: integers up to `_TABLE_SIZE` come
from a table of `math.lgamma` values, every other element from
`math.lgamma` itself, so scalar and grid terms agree bit for bit.
The regularized incomplete gamma P(a, x) that the 1F1 closed form needs
is taken from the continued fraction of Q(a, x) (DLMF 8.9.2), in the
region x >= a + 1 where it converges fast and 1 - Q does not cancel.
"""

from __future__ import annotations

import math

import numpy as np

# integer arguments up to this come from the table
_TABLE_SIZE = 1024
# log Gamma(k) at k = 0 .. _TABLE_SIZE; entry 0 only stands in for x < 1
_LOG_GAMMA_INT = np.array([math.inf] + [math.lgamma(k) for k in range(1, _TABLE_SIZE + 1)])


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:  # x past about 2.6e305
        return math.inf


def log_gamma_grid(x: np.ndarray) -> np.ndarray:
    """log_gamma elementwise, bit for bit.

    The first element in C order that is not > 0 raises log_gamma's
    ValueError, as a scalar scan in that order would.
    """
    x = np.asarray(x, dtype=float)
    if not (x > 0.0).all():
        bad = ~(x > 0.0)
        raise ValueError(f"log_gamma requires x > 0, got {float(x.flat[np.argmax(bad)])}")
    flat = x.ravel()
    k = np.minimum(flat, _TABLE_SIZE).astype(np.intp)
    out = _LOG_GAMMA_INT[k]
    rest = np.flatnonzero(k != flat)
    if rest.size:
        values = flat[rest].tolist()
        try:
            out[rest] = np.fromiter(map(math.lgamma, values), float, len(values))
        except OverflowError:
            out[rest] = [log_gamma(v) for v in values]
    return out.reshape(x.shape)


# the continued fraction stops once a step changes it by less than this
_CF_EPS = 1e-16
# and gives up after this many steps; below _NORMAL_FROM, x >= a + 1
# needs at most about 20,000 of them
_CF_MAX_STEPS = 100_000
_CF_TINY = 1e-300
# from here on Q's normal limit is within 0.14/sqrt(a) of Q (the next term
# of DLMF 8.12.3), below an ulp of the log Gamma(a + 1) that P multiplies
_NORMAL_FROM = 1e10


def _upper_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= a + 1.

    Modified Lentz evaluation of the continued fraction DLMF 8.9.2,
    in its even form
    Q = e^-x x^a / Gamma(a) * 1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))),
    or from a = _NORMAL_FROM on its normal limit erfc((x - a)/sqrt(2a))/2.
    """
    if not (math.isfinite(a) and math.isfinite(x)):
        raise ValueError(f"Q({a}, {x}) requires finite a and x")
    if a >= _NORMAL_FROM:
        return 0.5 * math.erfc((x - a) / math.sqrt(2.0 * a))
    b = x + 1.0 - a
    c = 1.0 / _CF_TINY
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_STEPS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = b + an / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _CF_EPS:
            break
    else:
        raise ArithmeticError(f"Q({a}, {x}): continued fraction did not converge")
    return math.exp(_log_q_prefactor(a, x)) * h


# Stirling coefficients of Binet's function mu(a) in powers of 1/a^2 (DLMF 5.11.1)
_BINET = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
# from here on the seven terms leave mu(a) within an ulp
_BINET_FROM = 10.0


def _log_q_prefactor(a: float, x: float) -> float:
    """log(e^-x x^a / Gamma(a)) for a > 0, x > 0.

    For a >= _BINET_FROM, Stirling's form of log Gamma(a) cancels the
    large terms analytically:
    -(x - a) + a log(x/a) + log(a / 2pi) / 2 - mu(a),
    which keeps the error near an ulp of (x - a) rather than of a log a.
    """
    if a < _BINET_FROM:
        return -x + a * math.log(x) - math.lgamma(a)
    d = x - a
    inv2 = 1.0 / (a * a)
    mu = 0.0
    for coef in reversed(_BINET):
        mu = mu * inv2 + coef
    mu /= a
    return a * math.log1p(d / a) - d + 0.5 * math.log(a / (2.0 * math.pi)) - mu


def hyp1f1_one_closed(b: float, x: float) -> float:
    """log 1F1(1;b;x), where 1F1(1;b;x) = sum_k x^k / (b)_k for b >= 1, finite x >= 0.

    Below x = b the terms fall monotonically from the first, so they are
    summed directly.  From x = b on the sum is taken from
    e^x x^(1-b) Gamma(b) P(b-1, x), where P(b-1, x) = 1 - Q(b-1, x) >= 1/2
    cannot underflow.
    """
    if b < 1.0:
        raise ValueError("hyp1f1_one_closed requires b >= 1")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"hyp1f1_one_closed requires a finite x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if b == 1.0:
        return x
    if x < b:
        term = 1.0
        total = 1.0
        k = 0
        while term > total * 1e-17:
            term *= x / (b + k)
            total += term
            k += 1
        return math.log(total)
    log_p = math.log1p(-_upper_gamma_q(b - 1.0, x))
    return x + (1.0 - b) * math.log(x) + log_gamma(b) + log_p
