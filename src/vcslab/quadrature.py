"""Dual-route evaluation of the radial moment integrals.

Every in-scope moment integral reduces (after the triangular change of
variables) to pieces of the form

    I(q, S) = integral_0^inf u^q exp(-u/S) du,   q > -1, S > 0,

computed here two independent ways: generalized Gauss-Laguerre with the
fractional part of q folded into the weight (route A), and adaptive
Simpson in the logarithmic coordinate u = S e^v (route B).  Values are
carried as logs; disagreement between the routes is the certificate
that something upstream (density, exponent bookkeeping) is wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_genlaguerre

from .logspace import logsumexp


class QuadratureDisagreement(ArithmeticError):
    pass


class QuadratureBudgetError(ArithmeticError):
    """Route B's panel queue would outgrow its memory budget."""


# Route B's queue budget.  The default report and the moments-fresh
# benchmark reach at most 1,172 panels (q = 600, where route A stops
# being exact, needs 1,324); an unbounded queue reached 8 million panels
# and gigabytes at q = 2500.
MAX_PANELS = 2**18


@dataclass(frozen=True)
class QuadSpec:
    nodes: int = 200
    rel_tol: float = 1e-9   # routes must usually agree this well
    hard_tol: float = 1e-7  # beyond this the check aborts
    simpson_tol: float = 1e-12


_root_cache: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}


def _laguerre_rule(nodes: int, alpha: float):
    key = (nodes, round(alpha, 14))
    got = _root_cache.get(key)
    if got is None:
        x, w = roots_genlaguerre(nodes, alpha)
        with np.errstate(divide="ignore"):
            logw = np.log(w)  # far-tail weights underflow; -inf is exact enough
        got = (x, logw)
        _root_cache[key] = got
    return got


def log_moment_gauss(q: float, log_scale: float = 0.0, nodes: int = 200) -> float:
    """Route A: log I(q, S) by generalized Gauss-Laguerre.

    With alpha = q - m in the weight, the remaining factor x^m is a
    polynomial of degree m = max(floor(q), 0), so the rule is exact up to
    rounding; for -1 < q < 0 the whole exponent goes into the weight.
    """
    if q <= -1.0:
        raise ValueError(f"moment exponent {q} <= -1: divergent integral")
    m = max(math.floor(q), 0)
    alpha = q - m
    x, logw = _laguerre_rule(nodes, alpha)
    return logsumexp(logw + m * np.log(x)) + (q + 1.0) * log_scale


def _simpson_adaptive(f, a: float, b: float, tol: float, max_depth: int = 40, seeds: int = 16) -> float:
    """Adaptive Simpson with the whole refinement queue evaluated per sweep.

    f must accept numpy arrays.  Standard acceptance rule: a panel is
    kept once the half-panel estimates move its Simpson value by less
    than 15 * tol (relative), with the Richardson term folded in.
    Raises QuadratureBudgetError before the queue grows past MAX_PANELS.
    """
    edges = np.linspace(a, b, seeds + 1)
    x0 = edges[:-1]
    x2 = edges[1:]
    x1 = 0.5 * (x0 + x2)
    f0, f1, f2 = f(x0), f(x1), f(x2)
    s = (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)
    total = 0.0
    span = b - a
    scale = max(float(np.sum(np.abs(s))), 1e-300)
    for depth in range(max_depth):
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * frm + f2)
        refined = left + right
        # width-proportional error budget keeps the summed error <= tol*scale
        done = np.abs(refined - s) <= 15.0 * tol * scale * (x2 - x0) / span
        if depth == max_depth - 1:
            done = np.ones_like(done)
        total += float(np.sum((refined + (refined - s) / 15.0)[done]))
        keep = ~done
        if not keep.any():
            break
        queued = 2 * int(np.count_nonzero(keep))
        if queued > MAX_PANELS:
            raise QuadratureBudgetError(
                f"route B needs more than {MAX_PANELS} Simpson panels on [{a:.6g}, {b:.6g}]"
            )
        # split every unconverged panel into its two halves
        x0 = np.concatenate([x0[keep], x1[keep]])
        x2n = np.concatenate([x1[keep], x2[keep]])
        x1n = np.concatenate([lm[keep], rm[keep]])
        f0 = np.concatenate([f0[keep], f1[keep]])
        f2n = np.concatenate([f1[keep], f2[keep]])
        f1n = np.concatenate([flm[keep], frm[keep]])
        x2, x1, f2, f1 = x2n, x1n, f2n, f1n
        s = np.concatenate([left[keep], right[keep]])
        scale = max(total + float(np.sum(np.abs(s))), 1e-300)
    return total


def log_moment_adaptive(q: float, log_scale: float = 0.0, tol: float = 1e-12) -> float:
    """Route B: log I(q, S) by adaptive Simpson in u = S e^v.

    The transformed integrand exp((q+1)v - e^v) peaks at v* = log(q+1)
    and decays linearly left, doubly exponentially right; the window is
    chosen so the discarded mass is below the target tolerance.
    """
    if q <= -1.0:
        raise ValueError(f"moment exponent {q} <= -1: divergent integral")
    p = q + 1.0
    v_star = math.log(p)
    f_star = p * (v_star - 1.0)
    drop = 45.0
    v_lo = v_star - (drop + math.exp(v_star)) / p
    v_hi = math.log(drop + abs(f_star) + 10.0) + 1.0
    for _ in range(4):
        v_hi = math.log(drop + abs(f_star) + p * max(v_hi, 1.0) + 10.0)

    def f(v):
        return np.exp(p * v - np.exp(v) - f_star)

    val = _simpson_adaptive(f, v_lo, v_hi, tol)
    return math.log(val) + f_star + p * log_scale


@lru_cache(maxsize=2**14)
def log_moment_piece(q: float, log_scale: float, quad: QuadSpec) -> tuple[float, float]:
    """(route A, route B) logs of one 1d moment piece.

    Memoized on the exact arguments: a piece depends on nothing else.
    Each moment lattice, Gram basis or set of aliased pairs asks once per
    distinct exponent it needs, and the moment and Gram checks of one run
    share most of their exponents.  Exceptions are not cached.  Both
    routes are looked up through this module's globals on a miss, so a
    test that replaces a route must clear the cache before and after
    (`log_moment_piece.cache_clear()`), or a substituted value stays
    cached for every later caller.
    """
    a = log_moment_gauss(q, log_scale, quad.nodes)
    b = log_moment_adaptive(q, log_scale, quad.simpson_tol)
    return a, b


def combine_routes(log_a: float, log_b: float, quad: QuadSpec, context: str = "") -> tuple[float, float]:
    """Return (agreed log value, relative disagreement); raise when hard-violated."""
    rel = abs(math.expm1(log_b - log_a))
    if rel > quad.hard_tol:
        raise QuadratureDisagreement(
            f"quadrature routes disagree by {rel:.3e} (> {quad.hard_tol:g}) {context}"
        )
    return log_a, rel
