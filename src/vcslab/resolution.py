"""Truncated resolution-of-identity checks.

Angular integration forces the off-diagonal Gram entries to vanish
unless the index differences satisfy the class's phase constraints;
what remains on the diagonal is exactly the moment residual.  The Gram
matrix is therefore assembled as: off-diagonals certified by the
selection rule (or, at aliasing collisions of rational frequency
ratios, computed explicitly), diagonals from the closed-form moment
integrals, whose reduction `verify_moments` certifies against the
density.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .frequencies import FrequencyConfig
from .logspace import rel_diff_from_logs
from .moments import MeasureDensity, _log_moments, density_for
from .report import VerificationReport
from .structure import ClassSpec, CompiledClass


# c.delta counts as zero within this fraction of its scale
_ANNIHILATION_TOL = 1e-12
# the largest denominator a coefficient ratio is read as rational with
_MAX_DENOMINATOR = 10**6


@dataclass(frozen=True)
class SelectionRule:
    """Linear constraints on summed-index differences from phase integration.

    Each constraint is a tuple of coefficients over the summed indices;
    a Gram pair (m, m') survives angular integration only when every
    constraint annihilates the difference vector m - m'.
    """

    spec_id: str
    axes: tuple[int, ...]
    constraints: tuple[tuple[float, ...], ...]

    def satisfied(self, delta) -> bool | np.ndarray:
        """Whether every constraint annihilates delta, a difference vector or
        a stack of them (one per row), to _ANNIHILATION_TOL relative; a
        bool, or a bool array for a stack.

        Each c.delta is summed in index order, as a scalar loop would.
        """
        d = np.asarray(delta, dtype=float)
        scale = 1.0 + np.abs(d).max(axis=-1, initial=0.0)
        ok = np.ones(d.shape[:-1], dtype=bool)
        for row in self.constraints:
            dot = np.zeros(d.shape[:-1])
            for c, column in zip(row, np.moveaxis(d, -1, 0)):
                dot = dot + c * column
            ok &= np.abs(dot) <= _ANNIHILATION_TOL * scale * max(map(abs, row))
        return bool(ok) if d.ndim == 1 else ok


def _proportional(a, b) -> bool:
    """Whether rows a and b vanish at the same places and share one ratio b/a, to 1e-12."""
    ratios = [y / x for x, y in zip(a, b) if x != 0.0]
    return all((x == 0.0) == (y == 0.0) for x, y in zip(a, b)) and not any(
        abs(r - ratios[0]) > 1e-12 * abs(ratios[0]) for r in ratios
    )


def selection_rule(spec: ClassSpec, config: FrequencyConfig, compiled=None) -> SelectionRule:
    """Constraints read off the variable-phase exponents, one per tower.

    The z slopes do not depend on the fixed indices, so compiled may be the
    class at any of them; it defaults to the class at zeros.
    """
    compiled = spec.compile(config, (0,) * len(spec.fixed)) if compiled is None else compiled
    rows = [
        ct.z_exp.slopes for ct in compiled.towers if any(c != 0.0 for c in ct.z_exp.slopes)
    ]
    unique: list[tuple[float, ...]] = []
    for row in rows:
        # proportional rows are one constraint
        if not any(_proportional(kept, row) for kept in unique):
            unique.append(row)
    return SelectionRule(spec.id, spec.summed, tuple(unique))


def _looks_rational(x: float) -> Fraction | None:
    """Continued-fraction detection of a small-denominator rational."""
    fr = Fraction(x).limit_denominator(_MAX_DENOMINATOR)
    if abs(float(fr) - x) <= 1e-12 * max(1.0, abs(x)):
        return fr
    return None


def aliasing_solutions(rule: SelectionRule, window: int) -> list[tuple[int, ...]]:
    """Nonzero integer difference vectors inside the window satisfying the rule."""
    if window < 1:
        raise ValueError("window must be >= 1")
    k = len(rule.axes)
    side = np.arange(-window, window + 1)
    # C order of the index grid is itertools.product order
    deltas = np.stack(np.meshgrid(*[side] * k, indexing="ij"), axis=-1).reshape(-1, k)
    hits = rule.satisfied(deltas) & deltas.any(axis=1)
    return [tuple(row) for row in deltas[hits].tolist()]


@lru_cache(maxsize=32)
def _gram_basis(nmax: tuple[int, ...]) -> tuple:
    """(points, indices, grid, labels) of the truncated basis 0 <= m_i <=
    nmax_i, built once per nmax: the points in `itertools.product` order,
    as read-only int and float arrays (point, axis), and the diagonal
    residual labels "G[3,7]"."""
    points = tuple(itertools.product(*[range(m + 1) for m in nmax]))
    indices = np.array(points, dtype=int).reshape(-1, len(nmax))
    grid = indices.astype(float)
    indices.setflags(write=False)
    grid.setflags(write=False)
    return points, indices, grid, tuple("G[" + ",".join(map(str, m)) + "]" for m in points)


def resolution_residual(
    spec: ClassSpec,
    config: FrequencyConfig,
    fixed,
    nmax,
    tol: float = 1e-6,
    density: MeasureDensity | None = None,
    compiled: CompiledClass | None = None,
) -> VerificationReport:
    """max |G - I| over the truncated basis at the given fixed indices;
    density and compiled default to the class's at the natural ratios."""
    fixed = tuple(int(v) for v in fixed)
    nmax = (nmax,) * len(spec.summed) if isinstance(nmax, int) else tuple(nmax)
    compiled = spec.compile(config, fixed) if compiled is None else compiled
    density = density_for(spec, config, compiled) if density is None else density
    rule = selection_rule(spec, config, compiled)
    basis, basis_arr, grid, labels = _gram_basis(nmax)
    # diagonal entries: moment integral over target
    diagonal = _log_moments(compiled, density, grid).tolist()
    targets = compiled.log_target_grid(list(grid.T)).tolist()
    residuals = [
        (label, rel_diff_from_logs(i, t)) for label, i, t in zip(labels, diagonal, targets)
    ]
    # the verdict judges the certified (diagonal) part; the aliased entries
    # appended below are reported but carry no pass/fail semantics
    verdict = "pass" if all(v <= tol for _, v in residuals) else "fail"
    # off-diagonal entries: certified zero unless the rule aliases
    window = max(nmax)
    aliases = aliasing_solutions(rule, window) if window >= 1 else []
    flagged = []
    for delta in aliases:
        # lexicographic order is translation invariant: every pair of a
        # delta whose first nonzero entry is negative has mp < m, and is
        # the pair of -delta
        if delta < (0,) * len(delta):
            continue
        shifted = basis_arr + delta
        inside = np.flatnonzero(((shifted >= 0) & (shifted <= nmax)).all(axis=1))
        if not inside.size:
            continue
        # an aliased delta has c.delta = 0 for every constraint, so its
        # angular integral is 1; the exponents are affine in n, so a
        # pair's cross moment is the moment at its midpoint, and the entry
        # divides it by the targets' geometric mean
        cross = _log_moments(compiled, density, 0.5 * (basis_arr[inside] + shifted[inside]))
        partners = np.ravel_multi_index(tuple(shifted[inside].T), [mx + 1 for mx in nmax])
        for i, j, log_i in zip(inside.tolist(), partners.tolist(), cross.tolist()):
            m, mp = basis[i], basis[j]
            log_t = 0.5 * (targets[i] + targets[j])
            try:
                entry = math.exp(log_i - log_t)
            except OverflowError:  # an entry past the float range
                entry = math.inf
            flagged.append((m, mp, entry))
            residuals.append((f"G[{m}|{mp}]", entry))
    rationality = []
    for row in rule.constraints:
        nz = [c for c in row if c != 0.0]
        if len(nz) >= 2:
            fr = _looks_rational(nz[1] / nz[0])
            rationality.append(str(fr) if fr is not None else "irrational")
    metadata = (
        ("nmax", list(nmax)),
        ("fixed", list(fixed)),
        ("gram_dim", len(basis)),
        ("selection_constraints", [list(r) for r in rule.constraints]),
        ("constraint_coefficient_ratios", rationality),
        ("aliasing_pairs", len(flagged)),
        ("omegas", list(config.omegas)),
    )
    return VerificationReport(spec.id, "resolution", tuple(residuals), verdict, tol, metadata)
