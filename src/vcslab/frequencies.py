"""Oscillator frequency data and the frequency-ratio algebra.

Towers are 1-based throughout: tower i owns the quantum number n_i, the
frequency omega_i, and the optional spectrum shift alpha_i.  The ratio
kappa(i, j) = omega_j / omega_i is the continuous deformation parameter
connecting classes; convergence probes may pin individual ratios to
values not realizable by any positive frequency pair, which is what the
`overrides` maps threading through the evaluation layer are for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

RatioOverrides = dict[tuple[int, int], float]


@dataclass(frozen=True)
class FrequencyConfig:
    """Angular frequencies (dimensionless) and spectrum shifts per tower."""

    omegas: tuple[float, ...]
    shifts: tuple[float, ...] = field(default=())

    def __post_init__(self):
        omegas = tuple(float(w) for w in self.omegas)
        if len(omegas) not in (2, 3):
            raise ValueError("FrequencyConfig supports 2 or 3 towers")
        if any(not (w > 0.0) or not math.isfinite(w) for w in omegas):
            raise ValueError(f"every frequency must be positive and finite: {omegas}")
        if any(not 0.0 < wj / wi < math.inf for wi in omegas for wj in omegas):
            raise ValueError(f"every frequency ratio must be positive and finite: {omegas}")
        shifts = tuple(float(a) for a in self.shifts) if self.shifts else (0.0,) * len(omegas)
        if len(shifts) != len(omegas):
            raise ValueError("one shift per tower required")
        if any(not (a >= 0.0) or not math.isfinite(a) for a in shifts):
            raise ValueError(f"shifts must be non-negative and finite: {shifts}")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "shifts", shifts)

    @property
    def dimension(self) -> int:
        return len(self.omegas)

    def omega(self, tower: int) -> float:
        self._check_tower(tower)
        return self.omegas[tower - 1]

    def shift(self, tower: int) -> float:
        self._check_tower(tower)
        return self.shifts[tower - 1]

    def ratio(self, i: int, j: int) -> float:
        """kappa_{ij} = omega_j / omega_i."""
        if i == j:
            raise ValueError("ratio requires two distinct towers")
        return self.omega(j) / self.omega(i)

    def _check_tower(self, tower: int) -> None:
        if not 1 <= tower <= len(self.omegas):
            raise IndexError(f"tower {tower} out of range for {len(self.omegas)} towers")


def resolve_ratio(
    config: FrequencyConfig,
    pair: tuple[int, int],
    overrides: RatioOverrides | None = None,
    exact: bool = False,
) -> float | Fraction:
    """Ratio kappa(pair) honoring probe overrides.

    An override of (i, j) fixes kappa_{ij}; the reciprocal kappa_{ji} is
    then forced to 1/value, and pinning a ratio to zero makes any use of
    its reciprocal a domain error (the limit sends it to infinity).  When
    exact, the ratio is a Fraction of each frequency and override read as
    the shortest decimal it prints as: the number a report shows and the
    decimal the user typed, not the binary float's expansion.
    """
    read = (lambda x: Fraction(repr(float(x)))) if exact else (lambda x: x)
    i, j = pair
    if overrides:
        if pair in overrides:
            return read(overrides[pair])
        rev = (j, i)
        if rev in overrides:
            v = overrides[rev]
            if v == 0.0:
                raise ZeroDivisionError(
                    f"ratio {pair} undefined: reciprocal ratio {rev} pinned to 0"
                )
            return 1 / read(v)
    return read(config.omega(j)) / read(config.omega(i)) if exact else config.ratio(i, j)
