"""Truncated resolution-of-identity checks.

Angular integration forces the off-diagonal Gram entries to vanish
unless the index differences satisfy the class's phase constraints;
what remains on the diagonal is exactly the moment residual.  The Gram
matrix is therefore assembled as: off-diagonals certified by the
selection rule (or, at aliasing collisions of rational frequency
ratios, computed explicitly), diagonals from the closed-form moment
integrals, whose reduction `verify_moments` certifies against the
density.  The rule is decided in exact rational arithmetic, each
frequency and ratio override read as the decimal it prints as.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .frequencies import FrequencyConfig, RatioOverrides, resolve_ratio
from .logspace import rel_diffs_from_logs
from .moments import MeasureDensity, _log_moments, density_for
from .report import VerificationReport
from .structure import ClassSpec, CompiledClass, LinForm


@dataclass(frozen=True)
class SelectionRule:
    """Linear constraints on summed-index differences from phase integration.

    Each constraint is one tower's z slopes over the summed indices; a Gram
    pair (m, m') survives angular integration only when every constraint
    annihilates the difference vector m - m'.  `exact` holds the rows as
    Fractions, which decide; `constraints` holds the same rows as compiled
    floats, as the report prints them.
    """

    spec_id: str
    axes: tuple[int, ...]
    constraints: tuple[tuple[float, ...], ...]
    exact: tuple[tuple[Fraction, ...], ...]


def _exact_slopes(form: LinForm, axes, config: FrequencyConfig, overrides) -> tuple[Fraction, ...]:
    """The form's coefficient of each summed index, in Fractions (no term
    built by `structure`'s constructors reads both an index and a shift)."""
    row = dict.fromkeys(axes, Fraction(0))
    for ratio, n_of, _ in form.terms:
        if n_of in row:
            row[n_of] += 1 if ratio is None else resolve_ratio(config, ratio, overrides, exact=True)
    return tuple(row.values())


def selection_rule(
    spec: ClassSpec,
    config: FrequencyConfig,
    compiled: CompiledClass | None = None,
    overrides: RatioOverrides | None = None,
) -> SelectionRule:
    """Constraints read off the variable-phase exponents, one per tower.

    The z slopes do not depend on the fixed indices, so compiled may be the
    class at any of them, compiled with the same overrides; it defaults to
    the class at zeros.
    """
    if compiled is None:
        compiled = spec.compile(config, (0,) * len(spec.fixed), overrides)
    floats, exact = [], []
    for tw, ct in zip(spec.towers, compiled.towers):
        row = _exact_slopes(tw.z_exp, spec.summed, config, overrides)
        # a zero row constrains nothing, and proportional rows are one constraint
        if any(row) and not any(
            all(x * v == y * u for (x, u), (y, v) in itertools.combinations(zip(row, kept), 2))
            for kept in exact
        ):
            floats.append(ct.z_exp.slopes)
            exact.append(row)
    return SelectionRule(spec.id, spec.summed, tuple(floats), tuple(exact))


def aliasing_solutions(rule: SelectionRule, window: int) -> list[tuple[int, ...]]:
    """Nonzero integer difference vectors inside the window satisfying the
    rule, in lexicographic order.

    With at most two summed axes the integer solutions are every vector (no
    constraint), none (one axis, or two independent constraints), or the
    multiples of one primitive vector.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not rule.exact:
        box = range(-window, window + 1)
        return [d for d in itertools.product(box, repeat=len(rule.axes)) if any(d)]
    if len(rule.axes) > 2:
        raise ValueError(f"{rule.spec_id}: the selection lattice is solved for at most two summed axes")
    if len(rule.axes) == 1 or len(rule.exact) > 1:
        return []
    (a, b), = rule.exact
    scale = math.lcm(a.denominator, b.denominator)
    a, b = int(a * scale), int(b * scale)
    # a d1 + b d2 = 0 on the integers is spanned by (b, -a) / gcd(a, b)
    g = math.gcd(a, b)
    v = (b // g, -a // g)
    reach = window // max(map(abs, v))
    return sorted((t * v[0], t * v[1]) for t in range(-reach, reach + 1) if t)


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
    overrides: RatioOverrides | None = None,
) -> VerificationReport:
    """max |G - I| over the truncated basis at the given fixed indices.

    compiled defaults to the class compiled at the overrides, and density
    to the one read off compiled; a compiled class handed in must be
    compiled at the overrides, which the selection rule also reads."""
    fixed = tuple(int(v) for v in fixed)
    nmax = (nmax,) * len(spec.summed) if isinstance(nmax, int) else tuple(nmax)
    compiled = spec.compile(config, fixed, overrides) if compiled is None else compiled
    density = density_for(spec, config, compiled) if density is None else density
    rule = selection_rule(spec, config, compiled, overrides)
    basis, basis_arr, grid, labels = _gram_basis(nmax)
    # diagonal entries: moment integral over target
    forms = compiled.forms_on_grid(list(grid.T))
    diagonal = _log_moments(compiled, density, forms)
    log_targets = compiled.log_target(forms[2])
    residuals = list(zip(labels, rel_diffs_from_logs(diagonal, log_targets)))
    targets = log_targets.tolist()
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
        midpoints = 0.5 * (basis_arr[inside] + shifted[inside])
        cross = _log_moments(compiled, density, compiled.forms_on_grid(list(midpoints.T)))
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
    nonzero = ([c for c in row if c] for row in rule.exact)
    ratios = [str(nz[1] / nz[0]) for nz in nonzero if len(nz) >= 2]
    metadata = (
        ("nmax", list(nmax)),
        ("fixed", list(fixed)),
        ("gram_dim", len(basis)),
        ("selection_constraints", [list(r) for r in rule.constraints]),
        ("constraint_coefficient_ratios", ratios),
        ("aliasing_pairs", len(flagged)),
        ("omegas", list(config.omegas)),
    )
    return VerificationReport(spec.id, "resolution", tuple(residuals), verdict, tol, metadata)
