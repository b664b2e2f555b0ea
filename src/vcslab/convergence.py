"""Convergence verdicts for the positive norm series.

Every test operates on the structural data a TermGenerator exposes:
per-axis geometric weights plus the (constant, slope) description of
each Gamma argument.  Ratio limits are certified by evaluating the
term-ratio exactly up to moderate depths and through the Stirling
power-law form at astronomically large depths (the arguments enter only
through their logarithms), so verdicts remain decisive even when a
ratio creeps toward its limit at rates like exp(-kappa log n) with
kappa = 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frequencies import FrequencyConfig, RatioOverrides
from .norms import TermGenerator
from .special import log_gamma, log_gamma_grid
from .structure import ClassSpec, CompiledClass

# a ratio counts as decisively off 1 only beyond this margin
RATIO_MARGIN = 0.05
# exact log-Gamma zone; beyond, the Stirling step s*log(A) is used
_EXACT_ARG_LIMIT = 1e6
# depth of row_column_check's numeric cross-check of the modeled ratio
_PROBE_DEPTH = 256
# comparison_check's window: the first index per axis, and its width
_COMPARISON_START = (2, 2)
_COMPARISON_DEPTH = 24
# the small values at which the rows/columns scan holds the other indices
_OTHERS = (0, 1, 2)


@dataclass(frozen=True)
class Verdict:
    status: str  # "convergent" | "divergent" | "inconclusive"
    witness: str
    conditions: tuple[str, ...] = ()

    @property
    def convergent(self) -> bool:
        return self.status == "convergent"

    @property
    def divergent(self) -> bool:
        return self.status == "divergent"


# -- asymptotic ratio engine ------------------------------------------


def _log_arg_at(c: float, slopes, axis: int, ln_depth: float, others: dict[int, int] | None):
    """log of a Gamma argument with axis at e^ln_depth.

    others = None puts every axis at e^ln_depth (joint limit); otherwise
    the remaining axes sit at the given small integers.
    """
    pieces = []
    if c > 0.0:
        pieces.append(math.log(c))
    for j, s in enumerate(slopes):
        if s == 0.0:
            continue
        if j == axis or others is None:
            pieces.append(math.log(s) + ln_depth)
        else:
            v = others.get(j, 0)
            if v > 0:
                pieces.append(math.log(s * v))
    out = float("-inf")
    for p in pieces:
        out = p if out == float("-inf") else max(out, p) + math.log1p(math.exp(-abs(out - p)))
    return out


def _log_ratio_at(log_weights, factors, axis: int, ln_depth: float, others=None) -> float:
    """log of the term ratio along axis: the axis weight over each Gamma factor's step.

    factors holds (constant, per-axis slopes) of every Gamma argument.
    """
    lw = log_weights[axis]
    if lw == float("-inf"):
        return float("-inf")
    out = lw
    for c, slopes in factors:
        s = slopes[axis]
        if s == 0.0:
            continue
        log_arg = _log_arg_at(c, slopes, axis, ln_depth, others)
        if log_arg <= math.log(_EXACT_ARG_LIMIT):
            arg = math.exp(log_arg)
            out -= log_gamma(arg + s) - log_gamma(arg)
        else:
            out -= s * log_arg
    return out


_DEPTHS = [math.log(48.0), math.log(192.0), math.log(768.0)] + [
    math.log(10.0) * e for e in (6, 12, 24, 48, 96, 1000, 10_000, 100_000, 10_000_000)
]


def _decide_axis(log_weights, factors, axis: int, others=None) -> tuple[str, str]:
    """(status, witness) for the term ratio along one axis."""
    vals = [_log_ratio_at(log_weights, factors, axis, L, others) for L in _DEPTHS]
    if all(v == float("-inf") for v in vals):
        return "convergent", f"axis {axis}: terms vanish (zero weight)"
    spread = max(vals) - min(vals)
    last = vals[-1]
    ratio = _ratio_text(last)
    if spread < 1e-13:
        # no Gamma factor moves along this axis: ratio is exactly the weight;
        # a weight past the float range is >= 1
        if last < 0.0 and math.exp(last) < 1.0:
            return "convergent", f"axis {axis}: constant ratio {ratio} < 1 (geometric)"
        return (
            "divergent",
            f"axis {axis}: constant ratio {ratio} >= 1, terms do not vanish",
        )
    tail = vals[-3:]
    decreasing = all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    increasing = all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))
    if last <= math.log(1.0 - RATIO_MARGIN) and decreasing:
        return "convergent", f"axis {axis}: ratio -> {ratio} < 1"
    if last >= math.log(1.0 + RATIO_MARGIN) and increasing:
        return "divergent", f"axis {axis}: ratio -> {ratio} > 1"
    return "inconclusive", f"axis {axis}: frontier ratio {ratio}"


def _ratio_text(log_ratio: float) -> str:
    """The ratio e^log_ratio to 6 digits, or as exp(log_ratio) past the float range."""
    try:
        return f"{math.exp(log_ratio):.6g}"
    except OverflowError:
        return f"exp({log_ratio:.6g})"


def _rows_columns(log_weights, factors, axis: int) -> list[tuple[str, str]]:
    """_decide_axis along axis with every other index at each value of _OTHERS.

    The other indices enter only through Gamma arguments that move along
    axis; where none of those has a slope on another axis, one decision
    stands for all.
    """
    others_move = any(
        slopes[axis] != 0.0 and any(s != 0.0 for j, s in enumerate(slopes) if j != axis)
        for _, slopes in factors
    )
    if not others_move:
        return [_decide_axis(log_weights, factors, axis, {})] * len(_OTHERS)
    return [
        _decide_axis(log_weights, factors, axis, {j: v for j in range(len(log_weights)) if j != axis})
        for v in _OTHERS
    ]


def _log_weights(gen: TermGenerator) -> list[float]:
    """Every axis's log weight; one that is inf - inf, from |z|^2 and omega
    past the float range, decides nothing and raises ValueError."""
    out = [gen.log_weight(k) for k in range(len(gen.axes))]
    for k, lw in enumerate(out):
        if math.isnan(lw):
            raise ValueError(f"axis {k}: the log weight is inf - inf, past the float range")
    return out


def row_column_check(gen: TermGenerator) -> dict[int, Verdict]:
    """Per-axis ratio verdicts with the other indices held fixed."""
    log_weights = _log_weights(gen)
    factors = gen.gamma_factors()
    n_axes = len(log_weights)
    out = {}
    for k in range(n_axes):
        decisions = _rows_columns(log_weights, factors, k)
        statuses = [s for s, _ in decisions]
        notes = [w + f" [others={v}]" for v, (_, w) in zip(_OTHERS, decisions)]
        if all(s == "convergent" for s in statuses):
            status = "convergent"
        elif any(s == "divergent" for s in statuses):
            status = "divergent"
        else:
            status = "inconclusive"
        # numeric cross-check of the structural ratio inside the exact zone
        d = _PROBE_DEPTH
        probe = tuple(d if j == k else 2 for j in range(n_axes))
        exact = gen.log_term(_step(probe, k)) - gen.log_term(probe)
        modeled = _log_ratio_at(
            log_weights, factors, k, math.log(float(d)), {j: 2 for j in range(n_axes) if j != k}
        )
        if math.isfinite(exact) and math.isfinite(modeled) and abs(exact - modeled) > 5e-2:
            status = "inconclusive"
            notes.append(f"structural ratio mismatch exact={exact:.3g} model={modeled:.3g}")
        out[gen.axes[k]] = Verdict(status, "; ".join(notes))
    return out


def _step(n: tuple[int, ...], k: int) -> tuple[int, ...]:
    return tuple(v + (1 if j == k else 0) for j, v in enumerate(n))


def _majorant_grid(gen: TermGenerator, terms, shape, start):
    """Log terms of the double-exponential majorant on an index window.

    The majorant has gen's weights, with every Gamma factor stripped and
    a plain factorial n_k! installed on each summed axis; with
    Gamma(g + n) >= n! it dominates gen termwise.  terms are gen's own
    log terms on the window.
    """
    grids = gen.compiled.window(shape, start)
    live = terms != float("-inf")
    # a vanished term takes no further factor
    lt = terms
    for log_r in gen.compiled.log_factorial_grid(grids, ~live[..., None]):
        lt = lt + log_r
    for g in grids:
        lt = lt - log_gamma_grid(g + 1.0)
    return np.where(live, lt, -np.inf)


def comparison_check(gen: TermGenerator) -> Verdict:
    """Termwise-domination test against the double-exponential majorant."""
    n_axes = len(gen.axes)
    k0 = _COMPARISON_START[:n_axes]
    shape = (_COMPARISON_DEPTH,) * n_axes
    a = gen.log_term_grid(shape, k0)
    b = _majorant_grid(gen, a, shape, k0)
    fails = a > b + 1e-12
    if fails.any():
        at = np.unravel_index(int(np.argmax(fails)), shape)  # first in product order
        n = tuple(s + int(i) for s, i in zip(k0, at))
        return Verdict(
            "inconclusive",
            f"domination fails first at {n}: log a={float(a[at]):.6g} > log b={float(b[at]):.6g}",
        )
    # the majorant's Gamma factors: one n_k! per axis
    factorials = [(1.0, tuple(1.0 if j == k else 0.0 for j in range(n_axes))) for k in range(n_axes)]
    ref_verdict = _ratio_decision(_log_weights(gen), factorials)
    if ref_verdict.convergent:
        return Verdict(
            "convergent",
            f"dominated beyond {tuple(k0)} by a convergent majorant ({ref_verdict.witness})",
        )
    return Verdict("inconclusive", f"majorant not certified convergent: {ref_verdict.witness}")


def _ratio_decision(log_weights, factors) -> Verdict:
    """Full ratio-test decision (rows/columns plus joint limit)."""
    n_axes = len(log_weights)
    per_axis = [[s for s, _ in _rows_columns(log_weights, factors, k)] for k in range(n_axes)]
    rows_cols_ok = all(all(s == "convergent" for s in sts) for sts in per_axis)
    joint = [_decide_axis(log_weights, factors, k, None) for k in range(n_axes)]
    if any(s == "divergent" for s, _ in joint):
        return Verdict("divergent", "; ".join(w for s, w in joint if s == "divergent"))
    if any(all(s == "divergent" for s in sts) for sts in per_axis):
        return Verdict("divergent", "a row/column family diverges")
    if rows_cols_ok and any(s == "convergent" for s, _ in joint):
        return Verdict(
            "convergent",
            "rows/columns convergent; " + "; ".join(w for s, w in joint if s == "convergent"),
        )
    return Verdict("inconclusive", "; ".join(w for _, w in joint))


def required_positive_ratios(spec: ClassSpec) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Ratio groups of which at least one must stay positive per summed axis.

    A summed index with no tower of its own enters the terms only through
    ratio-weighted slopes; if all of those ratios are sent to zero the
    series acquires constant nonvanishing terms along that index.
    """
    groups = []
    for axis in spec.summed:
        if axis in spec.tower_ids:
            continue
        feeding = set()
        for tw in spec.towers:
            for form in (tw.z_exp, tw.w_exp, tw.gamma):
                for ratio, n_of, _ in form.terms:
                    if n_of == axis and ratio is not None:
                        feeding.add(ratio)
        groups.append(tuple(sorted(feeding)))
    return tuple(groups)


def required_positive_conditions(spec: ClassSpec) -> tuple[str, ...]:
    """The non-empty `required_positive_ratios` groups as text: "kappa12 > 0 or ..."."""
    return tuple(
        " or ".join(f"kappa{i}{j} > 0" for i, j in grp)
        for grp in required_positive_ratios(spec)
        if grp
    )


def class_verdict(
    spec: ClassSpec,
    config: FrequencyConfig,
    fixed,
    overrides: RatioOverrides | None = None,
    compiled: CompiledClass | None = None,
) -> Verdict:
    """Combined verdict at |z_t|^2 = omega_t, in three stages.

    A row or column whose ratio test diverges decides divergence first;
    then a convergent comparison with the double-exponential majorant
    decides convergence; then the full ratio test decides either way.
    Inconclusive when none of the three decides.  compiled defaults to
    the class compiled at config, fixed and overrides.
    """
    compiled = spec.compile(config, fixed, overrides) if compiled is None else compiled
    z = tuple(math.sqrt(config.omega(t)) for t in spec.tower_ids)
    gen = TermGenerator.of(compiled, z)
    conditions = required_positive_conditions(spec)

    rc = row_column_check(gen)
    for axis, v in rc.items():
        if v.divergent:
            return Verdict("divergent", f"row/column divergence: {v.witness}", conditions)

    comp = comparison_check(gen)
    if comp.convergent:
        return Verdict("convergent", f"comparison test: {comp.witness}", conditions)

    ratio = _ratio_decision(_log_weights(gen), gen.gamma_factors())
    if ratio.status != "inconclusive":
        return Verdict(ratio.status, f"ratio test: {ratio.witness}", conditions)

    return Verdict("inconclusive", f"{comp.witness}; {ratio.witness}", conditions)


def gamma_ratio_surface(
    kappa: float,
    gamma13: float | None = None,
    n3: int = 0,
    m_range: tuple[int, int] = (50, 100),
    n_range: tuple[int, int] = (50, 100),
    step: int = 1,
):
    """Difference between the exact Gamma-argument ratio and its power law.

    Rows (m, n, kappa, difference) with

        difference = Gamma(g + kappa n + m)/Gamma(g + kappa (n+1) + m)
                     - (g + kappa (n+1) + m)^(-kappa),

    g = gamma13 (default 1 + n3).  At kappa = 0 both terms are
    exactly 1 and the difference vanishes identically.
    """
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    if gamma13 is not None and not math.isfinite(gamma13):
        raise ValueError(f"gamma13 must be finite, got {gamma13}")
    g = (1.0 + n3) if gamma13 is None else float(gamma13)
    m_lo, m_hi = m_range
    n_lo, n_hi = n_range
    if m_hi < m_lo or n_hi < n_lo:
        raise ValueError("ranges must be increasing")
    if g + kappa * (n_hi + 1) + m_hi > _EXACT_ARG_LIMIT:
        raise ValueError("range exceeds the exact log-Gamma validity zone")
    rows = []
    for m in range(m_lo, m_hi + 1, step):
        for n in range(n_lo, n_hi + 1, step):
            num = g + kappa * n + m
            den = g + kappa * (n + 1) + m
            exact = math.exp(log_gamma(num) - log_gamma(den))
            asym = den ** (-kappa)
            rows.append((m, n, kappa, exact - asym))
    return rows
