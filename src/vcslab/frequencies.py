"""Oscillator frequency data and the frequency-ratio algebra.

Towers are 1-based throughout: tower i owns the quantum number n_i, the
frequency omega_i, and the optional spectrum shift alpha_i.  The ratio
kappa(i, j) = omega_j / omega_i is the continuous deformation parameter
connecting classes.  A parameter point may pin individual ratios to
values no positive frequency pair realizes, such as the kappa -> 0 limit
of a deformation; `FrequencyConfig.ratio` is the one reader of a ratio,
pinned or natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping


@dataclass(frozen=True)
class FrequencyConfig:
    """Angular frequencies (dimensionless) and spectrum shifts per tower,
    and the ratios pinned away from omega_j / omega_i.

    pins takes a {(i, j): value} mapping, or its items, and is kept as its
    items sorted, so that equal points hash alike.  A pin may name a tower
    the point does not have: no form of a class on fewer towers reads it.
    """

    omegas: tuple[float, ...]
    shifts: tuple[float, ...] = field(default=())
    pins: tuple[tuple[tuple[int, int], float], ...] = field(default=())

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
        pins = {(int(i), int(j)): float(v) for (i, j), v in dict(self.pins).items()}
        both = [f"{i}{j} and {j}{i}" for i, j in sorted(pins) if i < j and (j, i) in pins]
        if both:
            raise ValueError(f"a ratio and its reciprocal are both pinned: kappa {', '.join(both)}")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "pins", tuple(sorted(pins.items())))

    @property
    def dimension(self) -> int:
        return len(self.omegas)

    def omega(self, tower: int) -> float:
        self._check_tower(tower)
        return self.omegas[tower - 1]

    def shift(self, tower: int) -> float:
        self._check_tower(tower)
        return self.shifts[tower - 1]

    def pinned(self, pins: Mapping[tuple[int, int], float]) -> "FrequencyConfig":
        """This point with the ratios in pins pinned as well (a pin of a
        ratio it pins already wins; one of its reciprocal is refused); itself
        when pins is empty."""
        return replace(self, pins={**dict(self.pins), **pins}) if pins else self

    def ratio(self, i: int, j: int, exact: bool = False) -> float | Fraction:
        """kappa_{ij} = omega_j / omega_i, or its pin.

        A pin of (i, j) fixes kappa_{ij}, and kappa_{ji} is then 1/value;
        a ratio pinned to zero makes any use of its reciprocal a domain
        error (the limit sends it to infinity).  When exact, the ratio is a
        Fraction of each frequency and pin read as the shortest decimal it
        prints as: the number a report shows and the decimal the user
        typed, not the binary float's expansion.
        """
        if i == j:
            raise ValueError("ratio requires two distinct towers")
        for pair, v in self.pins:
            if pair == (i, j):
                return Fraction(repr(v)) if exact else v
            if pair == (j, i):
                if v == 0.0:
                    raise ZeroDivisionError(
                        f"ratio {(i, j)} undefined: reciprocal ratio {pair} pinned to 0"
                    )
                return 1 / (Fraction(repr(v)) if exact else v)
        if exact:
            return Fraction(repr(self.omega(j))) / Fraction(repr(self.omega(i)))
        return self.omega(j) / self.omega(i)

    def _check_tower(self, tower: int) -> None:
        if not 1 <= tower <= len(self.omegas):
            raise IndexError(f"tower {tower} out of range for {len(self.omegas)} towers")
