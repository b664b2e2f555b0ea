"""Dual-route evaluation of the radial moment integrals.

Every in-scope moment integral reduces (after the triangular change of
variables) to pieces of the form

    I(q, S) = integral_0^inf u^q exp(-u/S) du = Gamma(q+1) S^(q+1),   q > -1, S > 0,

computed here two independent ways: the closed form through log-Gamma
(route A), and batched adaptive Simpson in the logarithmic coordinate
u = S e^v (route B), which runs the pieces of a batch through one
shared panel queue.  Values are carried as logs; disagreement between
the routes is the certificate that something upstream (density,
exponent bookkeeping) is wrong.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .special import log_gamma


class QuadratureDisagreement(ArithmeticError):
    pass


class QuadratureBudgetError(ArithmeticError):
    """Route B's panel queue would outgrow its memory budget."""


# Route B's queue budget.  The default report and the moments-fresh
# benchmark reach at most 1,172 panels for one piece (q = 600 needs
# 1,324); an unbounded queue reached 8 million panels and gigabytes at
# q = 2500.
MAX_PANELS = 2**18

# Missing pieces go through route B this many at a time; inside a batch
# each piece may hold MAX_PANELS // PIECE_BATCH panels.
PIECE_BATCH = 8

# Memoized pieces, oldest first, keyed on (q, log_scale, simpson_tol).
MAX_PIECES = 2**14
_pieces: OrderedDict[tuple[float, float, float], tuple[float, float]] = OrderedDict()


@dataclass(frozen=True)
class QuadSpec:
    hard_tol: float = 1e-7  # beyond this the check aborts
    simpson_tol: float = 1e-12


def log_moment_closed(q: float, log_scale: float = 0.0) -> float:
    """Route A: log I(q, S) = log Gamma(q+1) + (q+1) log S."""
    return log_gamma(q + 1.0) + (q + 1.0) * log_scale


# bench/spans.py times route A under this name; the benchmark update of
# ROADMAP item 4 removes the alias.
log_moment_gauss = log_moment_closed


def _window(q: float) -> tuple[float, float, float]:
    """(v_lo, v_hi, f_star) of route B's integrand exp((q+1)v - e^v).

    It peaks at v* = log(q+1) with log value f_star and decays linearly
    left, doubly exponentially right; the window is chosen so the
    discarded mass is below the target tolerance.
    """
    p = q + 1.0
    v_star = math.log(p)
    f_star = p * (v_star - 1.0)
    drop = 45.0
    v_lo = v_star - (drop + math.exp(v_star)) / p
    v_hi = math.log(drop + abs(f_star) + 10.0) + 1.0
    for _ in range(4):
        v_hi = math.log(drop + abs(f_star) + p * max(v_hi, 1.0) + 10.0)
    return v_lo, v_hi, f_star


def _halves(idx, a, b) -> np.ndarray:
    """a[i], b[i] side by side for each panel i in idx, in queue order."""
    out = np.empty(2 * len(idx))
    out[0::2] = a.take(idx)
    out[1::2] = b.take(idx)
    return out


def _runs(counts) -> list[slice]:
    """Each piece's run of panels in the queue, from its panel count."""
    ends = np.cumsum(counts).tolist()
    return [slice(e - c, e) for c, e in zip(counts.tolist(), ends)]


def _run_sums(values, runs) -> np.ndarray:
    return np.array([values[r].sum() for r in runs])


def _simpson_queue(p, f_star, lo, hi, tol: float, share: int, max_depth: int = 40, seeds: int = 16):
    """Adaptive Simpson of exp(p v - e^v - f_star) on [lo, hi], per piece.

    All pieces' panels share one queue, each piece's panels in one run
    from left to right, and the whole queue is evaluated per sweep.  Per
    piece, the standard acceptance rule: a panel is kept once the
    half-panel estimates move its Simpson value by less than 15 * tol
    (relative to the piece's scale, in proportion to the panel's width),
    with the Richardson term folded in.  A piece that would queue more
    than `share` panels is dropped from the queue.  Returns
    (totals, over): the per-piece sums and the mask of dropped pieces,
    whose totals are partial.  A piece's run holds the panels it would
    hold alone, so its sum does not depend on the other pieces.
    """
    k = len(p)
    counts = np.full(k, seeds)
    edges = np.linspace(lo, hi, seeds + 1, axis=1)
    x0 = edges[:, :-1].ravel()
    x2 = edges[:, 1:].ravel()
    x1 = 0.5 * (x0 + x2)

    def f(v):
        out = np.exp(v)
        np.subtract(p_run * v, out, out=out)
        out -= f_star_run
        return np.exp(out, out=out)

    p_run, f_star_run = np.repeat(p, counts), np.repeat(f_star, counts)
    f0, f1, f2 = f(x0), f(x1), f(x2)
    s = (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)
    totals = np.zeros(k)
    over = np.zeros(k, dtype=bool)
    # width-proportional error budget keeps each piece's summed error <= tol*scale
    budget = 15.0 * tol / (hi - lo)
    runs = _runs(counts)
    scale = np.maximum(_run_sums(np.abs(s), runs), 1e-300)
    for depth in range(max_depth):
        flm, frm = f(0.5 * (x0 + x1)), f(0.5 * (x1 + x2))
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * frm + f2)
        refined = left + right
        change = refined - s
        keep = np.abs(change) > np.repeat(budget * scale, counts) * (x2 - x0)
        if depth == max_depth - 1:
            keep[:] = False
        totals += _run_sums(np.where(keep, 0.0, refined + change / 15.0), runs)
        kept = np.array([np.count_nonzero(keep[r]) for r in runs])
        for j in np.flatnonzero(2 * kept > share).tolist():
            over[j] = True
            keep[runs[j]] = False
            kept[j] = 0
        if not kept.any():
            break
        # split every unconverged panel into its two halves
        idx = np.flatnonzero(keep)
        x0, x2 = _halves(idx, x0, x1), _halves(idx, x1, x2)
        x1 = 0.5 * (x0 + x2)
        f0, f1, f2 = _halves(idx, f0, f1), _halves(idx, flm, frm), _halves(idx, f1, f2)
        s = _halves(idx, left, right)
        counts = 2 * kept
        runs = _runs(counts)
        p_run, f_star_run = np.repeat(p, counts), np.repeat(f_star, counts)
        scale = np.maximum(totals + _run_sums(np.abs(s), runs), 1e-300)
    return totals, over


def log_moment_adaptive(qs, log_scale: float = 0.0, tol: float = 1e-12):
    """Route B: log I(q, S) for each q in qs, by adaptive Simpson in u = S e^v.

    The pieces run through one shared panel queue, in which each may
    hold MAX_PANELS // len(qs) panels.  A piece over that share is set
    aside and re-run alone with the full MAX_PANELS, so its value does
    not depend on the batch it came in.  Returns (logs, failure):
    failure is None, or (i, QuadratureBudgetError) for the first piece i
    that outgrows MAX_PANELS even alone.  From there on no set-aside
    piece is re-run, and those pieces, i among them, have NaN logs.
    """
    qs = [float(q) for q in np.ravel(qs)]
    for q in qs:
        if q <= -1.0:
            raise ValueError(f"moment exponent {q} <= -1: divergent integral")
    windows = np.array([_window(q) for q in qs], dtype=float).reshape(-1, 3)
    lo, hi, f_star = windows.T
    p = np.array(qs) + 1.0
    share = MAX_PANELS // max(len(qs), 1)
    totals, over = _simpson_queue(p, f_star, lo, hi, tol, share)
    failure = None
    for i in np.flatnonzero(over).tolist():
        if failure is None and share < MAX_PANELS:
            one = slice(i, i + 1)
            alone, still_over = _simpson_queue(p[one], f_star[one], lo[one], hi[one], tol, MAX_PANELS)
            if not still_over[0]:
                totals[i] = alone[0]
                continue
        totals[i] = np.nan
        if failure is None:
            failure = (i, QuadratureBudgetError(
                f"route B needs more than {MAX_PANELS} Simpson panels on [{lo[i]:.6g}, {hi[i]:.6g}]"
            ))
    return np.log(totals) + f_star + p * log_scale, failure


def fill_pieces(qs, log_scale: float, quad: QuadSpec):
    """Memoize both routes of each exponent in qs that the memo lacks.

    The missing exponents go, in the order given, PIECE_BATCH at a time
    through route A and one route-B queue.  Returns None, or
    (q, exception) for the first piece that fails; no later batch
    starts, and nothing is memoized for it.
    """
    missing = [q for q in qs if (q, log_scale, quad.simpson_tol) not in _pieces]
    for start in range(0, len(missing), PIECE_BATCH):
        batch = missing[start:start + PIECE_BATCH]
        closed, adaptive, failure = [], [], None
        for q in batch:
            try:
                closed.append(log_moment_closed(q, log_scale))
            except (ArithmeticError, ValueError) as exc:
                failure = (q, exc)
                break
        if closed:
            logs, b_failure = log_moment_adaptive(batch[: len(closed)], log_scale, quad.simpson_tol)
            adaptive = logs.tolist()
            if b_failure is not None:
                i, exc = b_failure
                adaptive, failure = adaptive[:i], (batch[i], exc)
        # zip stops at the first failing piece
        for q, a, b in zip(batch, closed, adaptive):
            if len(_pieces) >= MAX_PIECES:
                _pieces.popitem(last=False)
            _pieces[(q, log_scale, quad.simpson_tol)] = (a, b)
        if failure is not None:
            return failure
    return None


def log_moment_piece(q: float, log_scale: float, quad: QuadSpec) -> tuple[float, float]:
    """(route A, route B) logs of one 1d moment piece.

    Memoized on the exact arguments: a piece depends on nothing else.
    Each moment lattice, Gram basis or set of aliased pairs fills the
    memo for its missing exponents in batches (`fill_pieces`) and then
    asks once per distinct exponent, and the moment and Gram checks of
    one run share most of their exponents.  Exceptions are not cached.
    Both routes are looked up through this module's globals on a miss,
    so a test that replaces a route must give the memo a fresh dict for
    its duration, or a substituted value stays memoized for every later
    caller.
    """
    got = _pieces.get((q, log_scale, quad.simpson_tol))
    if got is None:
        failure = fill_pieces([q], log_scale, quad)
        if failure is not None:
            raise failure[1]
        got = _pieces[(q, log_scale, quad.simpson_tol)]
    return got


def combine_routes(log_a: float, log_b: float, quad: QuadSpec, context: str = "") -> tuple[float, float]:
    """Return (agreed log value, relative disagreement); raise when hard-violated."""
    rel = abs(math.expm1(log_b - log_a))
    if rel > quad.hard_tol:
        raise QuadratureDisagreement(
            f"quadrature routes disagree by {rel:.3e} (> {quad.hard_tol:g}) {context}"
        )
    return log_a, rel
