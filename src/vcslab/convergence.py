"""Convergence verdicts for the positive norm series.

A class's verdict is `norms.axis_growth` read on its compiled Gamma
slopes and axis weights: an axis with a positive Gamma slope converges
at any weight, and an axis without one is a geometric series in its
weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .frequencies import FrequencyConfig
from .norms import AxisGrowth, TermGenerator, axis_growth
from .special import log_gamma
from .structure import ClassSpec, CompiledClass

# exact log-Gamma zone of gamma_ratio_surface
_EXACT_ARG_LIMIT = 1e6


@dataclass(frozen=True)
class Verdict:
    status: str  # "convergent" | "divergent"
    witness: str
    conditions: tuple[str, ...] = ()

    @property
    def convergent(self) -> bool:
        return self.status == "convergent"

    @property
    def divergent(self) -> bool:
        return self.status == "divergent"


def _ratio_text(log_ratio: float) -> str:
    """The ratio e^log_ratio to 6 digits, or as exp(log_ratio) past the float range."""
    try:
        return f"{math.exp(log_ratio):.6g}"
    except OverflowError:
        return f"exp({log_ratio:.6g})"


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


def _axis_witness(k: int, axis: AxisGrowth) -> str:
    if axis.gamma_slope > 0.0:
        return f"axis {k}: Gamma slope {axis.gamma_slope:.6g} > 0, ratio -> 0"
    ratio = _ratio_text(axis.log_weight)
    if axis.convergent:
        return f"axis {k}: constant ratio {ratio} < 1 (geometric)"
    return f"axis {k}: constant ratio {ratio} >= 1, terms do not vanish"


def class_verdict(
    spec: ClassSpec,
    config: FrequencyConfig,
    fixed,
    overrides: Mapping[tuple[int, int], float] | None = None,
    compiled: CompiledClass | None = None,
) -> Verdict:
    """Verdict at |z_t|^2 = omega_t from `axis_growth`, with one witness per axis.

    Divergent when some axis without a Gamma slope has a weight >= 1.
    overrides pins ratios: the verdict is config.pinned(overrides)'s.
    compiled defaults to the class compiled there at fixed.
    """
    config = config.pinned(overrides or {})
    compiled = spec.compile(config, fixed) if compiled is None else compiled
    z = tuple(math.sqrt(config.omega(t)) for t in spec.tower_ids)
    axes = axis_growth(TermGenerator.of(compiled, z))
    return Verdict(
        "convergent" if all(a.convergent for a in axes) else "divergent",
        "; ".join(_axis_witness(k, a) for k, a in enumerate(axes)),
        required_positive_conditions(spec),
    )


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
    if not g + kappa * n_lo + m_lo > 0.0:
        raise ValueError(
            f"gamma13 + kappa n + m must be > 0: gamma13 = {g:g} with m range {m_lo}:{m_hi} "
            f"gives {g + kappa * n_lo + m_lo:g}"
        )
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
