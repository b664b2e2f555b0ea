"""Norm series: certified summation and closed-form routes.

The squared-coefficient sum of every registered class is a positive
series over one or two summed indices.  `TermGenerator` pairs a class
compiled at fixed frequencies and indices (`ClassSpec.compile`) with the
variables, so terms can be evaluated on whole index windows at once;
`norm_series` sums with a geometric tail certificate; `norm_closed_form`
rebuilds the factorized closed forms (exponential, confluent-
hypergeometric 1F1(1;b;x), and one-index Gamma-slope sums) where
factorization holds, and reports `None` where the sum genuinely does
not factorize.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .frequencies import FrequencyConfig
from .logspace import logsumexp_kernel
from .special import hyp1f1_one_closed, log_gamma, log_gamma_grid
from .structure import FIRST_WINDOW, ClassSpec, CompiledClass, SpecError

# closed forms the source text prints with internal inconsistencies; the
# computed form below is the one the direct series certifies
SUSPECT_PRINTED_CLOSED_FORMS = ("2d.2dof.plain-plain.A", "3d.3dof.min")


class DivergenceError(ArithmeticError):
    """Strong numerical evidence the series diverges at these parameters."""


class TailBudgetError(ArithmeticError):
    """No tail certificate within the term budget or the float range."""


# the largest window, in terms, a norm series may evaluate
MAX_TERMS = 2**22


@dataclass(frozen=True)
class TermGenerator:
    """Positive norm-series terms of one class at fixed parameters."""

    compiled: CompiledClass
    log_z: tuple[float, ...]   # log |z_t|, -inf at z_t = 0
    z_args: tuple[float, ...]  # arg z_t

    @classmethod
    def of(cls, compiled: CompiledClass, z) -> "TermGenerator":
        """The terms of a compiled class at the variables z."""
        z = tuple(complex(v) for v in z)
        if len(z) != len(compiled.towers):
            raise SpecError(f"{compiled.id}: expected {len(compiled.towers)} variables, got {len(z)}")
        log_z = tuple(math.log(abs(v)) if abs(v) > 0.0 else float("-inf") for v in z)
        return cls(compiled, log_z, tuple(cmath.phase(v) for v in z))

    @property
    def axes(self) -> tuple[int, ...]:
        return self.compiled.summed

    def log_term(self, n: tuple[int, ...]) -> float:
        """log of the series term |a(n)|^2 at summed multi-index n."""
        self.compiled.check(n)
        out = 0.0
        for ct, log_z in zip(self.compiled.towers, self.log_z):
            e = ct.z_exp.at(n)
            if log_z == float("-inf"):
                if e > 0.0:
                    return float("-inf")
            else:
                out += 2.0 * e * log_z
            out -= ct.w_exp.at(n) * ct.log_w
            out -= log_gamma(ct.gamma_arg.at(n)) - ct.log_gamma_norm
        return out

    def phase(self, n: tuple[int, ...]) -> float:
        """arg a(n), from the variable phases."""
        return sum(ct.z_exp.at(n) * th for ct, th in zip(self.compiled.towers, self.z_args))

    def log_term_grid(self, shape: tuple[int, ...], start: tuple[int, ...] | None = None) -> np.ndarray:
        """log terms on the window [start_i, start_i + shape_i) per axis (start defaults to 0).

        Agrees with `log_term` bit for bit, and raises where a scan of
        the window in `itertools.product` order first would.
        """
        origin = (0,) * len(self.axes)
        start = origin if start is None else tuple(start)
        shape = tuple(shape)
        zero = tuple(log_z == float("-inf") for log_z in self.log_z)
        if shape == (FIRST_WINDOW,) * len(origin) and start == origin and not any(zero):
            # every sum starts here: the generators of one compiled class share it
            dead, towers = self.compiled.first_window_parts
        else:
            dead, towers = self.compiled.window_parts(shape, start, zero)
        out = np.zeros(shape)
        for (z_exp, w_term, gamma_term), log_z in zip(towers, self.log_z):
            if log_z != float("-inf"):
                out = out + 2.0 * z_exp * log_z
            out = out - w_term
            out = out - gamma_term
        return out if dead is None else np.where(dead, -np.inf, out)

    def log_weight(self, axis_pos: int) -> float:
        """log of the geometric weight w of one summed axis.

        w is the term-to-term factor with all Gamma growth stripped:
        term(n + e_axis) R(n + e_axis) / (term(n) R(n)).
        """
        out = 0.0
        for ct, log_z in zip(self.compiled.towers, self.log_z):
            s = ct.z_exp.slopes[axis_pos]
            if s != 0.0:
                if log_z == float("-inf"):
                    return float("-inf")
                out += 2.0 * s * log_z
            out -= ct.w_exp.slopes[axis_pos] * ct.log_w
        return out

    def gamma_factors(self) -> list[tuple[float, tuple[float, ...]]]:
        """(constant, per-axis slopes) of every Gamma argument in the term."""
        return [(ct.gamma_arg.const, ct.gamma_arg.slopes) for ct in self.compiled.towers]


class AxisGrowth(NamedTuple):
    """How the norm-series terms of one summed axis grow, and whether they sum."""

    gamma_slope: float  # the Gamma arguments' slopes along the axis, summed
    log_weight: float
    convergent: bool


def axis_growth(gen: TermGenerator) -> tuple[AxisGrowth, ...]:
    """The convergence rule of the norm series, axis by axis.

    Every term is exp(lw . n + c) / prod_t Gamma(c_t + s_t . n), with lw
    the axis log weights.  Each Gamma argument must be positive on the
    lattice, so c_t > 0 and every s_t >= 0, or ValueError names it.  An
    axis with no Gamma slope factors out of the sum as the geometric
    series sum_n w^n, which converges iff its weight, as a float, is < 1;
    its weight inf - inf (nan) decides nothing and raises ValueError.
    On the other axes sum_t s_t . n >= m |n|_1 with m > 0, so by the
    convexity of x log x the Gamma product grows like e^(m |n| log |n|)
    and beats any weight: such an axis converges whatever its weight,
    inf and nan included.
    """
    factors = gen.gamma_factors()
    for ct, (c, slopes) in zip(gen.compiled.towers, factors):
        if not (c > 0.0 and all(s >= 0.0 for s in slopes)):
            raise ValueError(
                f"tower {ct.tower}: Gamma argument {c:g} + {list(slopes)} . n "
                "is not positive on the lattice"
            )
    out = []
    for k in range(len(gen.axes)):
        slope = sum(slopes[k] for _, slopes in factors)
        lw = gen.log_weight(k)
        if slope > 0.0:
            out.append(AxisGrowth(slope, lw, True))
            continue
        if math.isnan(lw):
            raise ValueError(f"axis {k}: the log weight is inf - inf, past the float range")
        out.append(AxisGrowth(slope, lw, lw < 0.0 and math.exp(lw) < 1.0))
    return tuple(out)


def term_generator(spec: ClassSpec, config: FrequencyConfig, z, fixed) -> TermGenerator:
    """Build the norm-series term generator of a registered class."""
    return TermGenerator.of(spec.compile(config, fixed), z)


@dataclass(frozen=True)
class NormResult:
    log_norm: float
    truncation: tuple[int, ...]
    tail_bound: float  # relative to the returned value
    method: str        # "series" | "closed_form" | "factorized"
    flags: tuple[str, ...] = ()


def _frontier_ratio(logs: np.ndarray, prev: np.ndarray) -> float:
    """Largest term ratio from one window slice to the next.

    Only a term that had already vanished (-inf after -inf: nan) gets
    ratio 0; a ratio past the float range stays inf.
    """
    return float(np.fmax.reduce(np.exp(logs - prev), axis=None, initial=0.0))


def _check_budget_reachable(log_window, ndim: int, axis: int) -> None:
    """Raise TailBudgetError where no window within MAX_TERMS can be certified along axis.

    Every window holds indices 0..16 on the other axis.  Log-concave terms
    that do not yet fall past the budget on one of those lines have a
    frontier ratio >= 1 in every window the budget admits.  Terms that have
    vanished there, or are nan, decide nothing.
    """
    probe = log_window(
        tuple(2 if k == axis else FIRST_WINDOW for k in range(ndim)),
        tuple(MAX_TERMS if k == axis else 0 for k in range(ndim)),
    )
    t0, t1 = np.moveaxis(probe, axis, 0)
    if np.any((t1 >= t0) & (t0 > -np.inf)):
        raise TailBudgetError(
            f"terms do not fall at index {MAX_TERMS} of axis {axis}: "
            f"no tail certificate within {MAX_TERMS} terms"
        )


def _certified_sum(log_window, ndim: int):
    """log of the sum of exp(t_n) over n >= 0 in ndim axes, with a geometric tail certificate.

    log_window(shape, start) returns t on the window [start_i, start_i +
    shape_i) per axis.  The window starts at FIRST_WINDOW (17) terms per
    axis and doubles along the axis whose frontier slice holds more mass,
    evaluating only the new strip; before it first grows,
    `_check_budget_reachable` probes past the budget along each axis whose
    terms still rise.  It is certified once every frontier ratio is below 1
    and the geometric tail past the frontier is at most 1e-12 of the sum;
    the tail assumes terms log-concave along each axis, as they are when
    every Gamma slope is >= 0.  Returns (log sum, last index per axis,
    relative tail, the summed window of t, which starts at the origin and
    holds indices 0..16 at least).

    numpy's overflow and invalid-value warnings are off throughout: a
    term past the float range is inf and a difference of two such is nan,
    which the window sum turns into TailBudgetError and a frontier ratio
    into 0, as described above.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        last = [FIRST_WINDOW - 1] * ndim
        logs = log_window((FIRST_WINDOW,) * ndim, (0,) * ndim)
        while True:
            log_partial = logsumexp_kernel(logs)
            if not log_partial < float("inf"):
                raise TailBudgetError(f"window sum is {log_partial}: no tail certificate")
            if log_partial == float("-inf"):
                return log_partial, tuple(last), 0.0, logs
            # each axis's frontier slice and the slice behind it, as views
            frontier = [logs[(slice(None),) * k + (-1,)] for k in range(ndim)]
            behind = [logs[(slice(None),) * k + (-2,)] for k in range(ndim)]
            masses = [logsumexp_kernel(f) for f in frontier]
            ratios = [_frontier_ratio(f, b) for f, b in zip(frontier, behind)]
            if max(ratios) < 1.0:
                # each frontier slice, and in 2d the corner past both, times
                # r / (1 - r) for every axis it lies past
                gains = [math.log(r) - math.log1p(-r) if r > 0.0 else -math.inf for r in ratios]
                pieces = [m + g for m, g in zip(masses, gains)]
                if ndim == 2:
                    pieces.append(logs[-1, -1] + gains[0] + gains[1])
                rel = math.exp(logsumexp_kernel(np.array(pieces)) - log_partial)
                if rel <= 1e-12:
                    return log_partial, tuple(last), rel, logs
            if logs.size == FIRST_WINDOW**ndim:
                # log-concave terms that already fall on the first frontier fall
                # past the budget too; only the others need a probe
                for k in range(ndim):
                    if ratios[k] >= 1.0:
                        _check_budget_reachable(log_window, ndim, k)
            axis = int(np.argmax(masses))
            strip = [v + 1 for v in last]
            strip[axis] = last[axis]
            last[axis] *= 2
            if math.prod(v + 1 for v in last) > MAX_TERMS:
                raise TailBudgetError(f"tail certificate not achieved within {MAX_TERMS} terms")
            start = tuple(strip[k] + 1 if k == axis else 0 for k in range(ndim))
            # the window grows by the new strip only: the old part already
            # passed, so the first bad point in product order lies in the strip
            logs = np.concatenate([logs, log_window(tuple(strip), start)], axis=axis)


def norm_series(gen: TermGenerator) -> NormResult:
    """Certified evaluation of the squared-coefficient sum.

    An axis that `axis_growth` finds divergent, one along which no Gamma
    argument moves and whose weight is >= 1, raises DivergenceError.
    """
    return _summed_series(gen)[0]


def _summed_series(gen: TermGenerator) -> tuple[NormResult, np.ndarray]:
    """`norm_series` and the window of log terms it summed."""
    ndim = len(gen.axes)
    if ndim not in (1, 2):
        raise SpecError("norm_series supports one or two summed indices")
    for k, axis in enumerate(axis_growth(gen)):
        if not axis.convergent:
            raise DivergenceError(
                f"no Gamma growth along n{gen.axes[k]} and its weight is >= 1: divergent series"
            )
    log_norm, last, rel, logs = _certified_sum(gen.log_term_grid, ndim)
    return NormResult(log_norm, last, rel, "series"), logs


def _axis_factor_analysis(gen: TermGenerator):
    """Map each summed axis to the index of the Gamma factor it drives.

    Returns None when some Gamma argument couples two summed axes, or
    two Gamma factors climb along the same axis: those sums do not
    factorize and have no cataloged closed form.
    """
    per_axis: list[list[int]] = [[] for _ in gen.axes]
    for t_idx, (_, slopes) in enumerate(gen.gamma_factors()):
        hit = [k for k, s in enumerate(slopes) if s != 0.0]
        if len(hit) > 1:
            return None
        if hit:
            per_axis[hit[0]].append(t_idx)
    if any(len(lst) > 1 for lst in per_axis):
        return None
    return [lst[0] if lst else None for lst in per_axis]


def norm_closed_form(gen: TermGenerator) -> NormResult | None:
    """Factorized/closed evaluation of the norm; None when unavailable.

    Never sums the double series: per-axis factors are the exponential,
    the 1F1(1;b;x) closed form, or (for Gamma arguments
    climbing with a fractional ratio slope) a certified one-index sum.
    """
    assignment = _axis_factor_analysis(gen)
    if assignment is None:
        return None
    factors = gen.gamma_factors()
    log_norm = gen.log_term((0,) * len(gen.axes))  # window-origin term
    method = "closed_form"
    tail = 0.0
    trunc = []
    for k, t_idx in enumerate(assignment):
        lw = gen.log_weight(k)
        if lw == float("-inf"):
            trunc.append(0)
            continue
        try:
            x = math.exp(lw)
        except OverflowError:
            # a weight past the float range has no closed form
            return None
        if t_idx is None:
            # no Gamma growth along this axis: plain geometric series
            if x >= 1.0:
                return None
            log_norm += -math.log1p(-x)
            trunc.append(0)
            continue
        const, slopes = factors[t_idx]
        slope = slopes[k]
        own = gen.compiled.towers[t_idx].tower == gen.axes[k]
        if own and slope == 1.0:
            # sum_n x^n Gamma(b)/Gamma(b+n) = 1F1(1;b;x); the n = 0 term
            # is already inside the origin term
            log_norm += hyp1f1_one_closed(const, x)
            trunc.append(0)
        else:
            # Gamma argument climbs with ratio slope: certified 1d sum of
            # x^n Gamma(c)/Gamma(c + slope n)
            log_g0 = log_gamma(const)

            def log_window(shape, start):
                n = np.arange(start[0], start[0] + shape[0], dtype=float)
                return n * lw - (log_gamma_grid(const + slope * n) - log_g0)

            log_s, (cut,), rel, _ = _certified_sum(log_window, 1)
            log_norm += log_s
            tail = max(tail, rel)
            method = "factorized"
            trunc.append(cut)
    suspect = gen.compiled.id in SUSPECT_PRINTED_CLOSED_FORMS
    flags = ("printed-closed-form-suspected-typo",) if suspect else ()
    return NormResult(log_norm, tuple(trunc), tail, method, flags)


@dataclass(frozen=True)
class TruncatedState:
    """Normalized coefficient table on a truncation window, read-only."""

    coeffs: Mapping[tuple[int, ...], complex]
    log_norm: float
    tail_bound: float

    def total_weight(self) -> float:
        return sum(abs(c) ** 2 for c in self.coeffs.values())

    def coefficient(self, n) -> complex:
        return self.coeffs.get(tuple(n), 0.0)


def state(spec: ClassSpec, config: FrequencyConfig, z, fixed, nmax) -> TruncatedState:
    """Normalized truncated state; raises DivergenceError off the solvable domain."""
    if isinstance(nmax, int):
        nmax = (nmax,) * len(spec.summed)
    gen = term_generator(spec, config, z, fixed)
    norm, summed = _summed_series(gen)
    if not math.isfinite(norm.log_norm):
        raise SpecError(
            f"{spec.id}: state vanishes identically (fixed-index powers of a zero variable)"
        )
    shape = tuple(m + 1 for m in nmax)
    if all(m <= k for m, k in zip(shape, summed.shape)):
        # the sum already evaluated these terms
        log_terms = summed[tuple(slice(m) for m in shape)]
    else:
        log_terms = gen.log_term_grid(shape)
    z_exps = gen.compiled.forms_on_grid(gen.compiled.window(shape, (0,) * len(shape)))[0]
    phases = np.zeros(shape)
    for e, arg in zip(z_exps, gen.z_args):
        phases = phases + e * arg
    coeffs = {}
    # C order is itertools.product order
    points = itertools.product(*[range(m) for m in shape])
    for n, lt, phase in zip(points, log_terms.ravel().tolist(), phases.ravel().tolist()):
        if lt == float("-inf"):
            coeffs[n] = 0.0
            continue
        coeffs[n] = cmath.exp(0.5 * (lt - norm.log_norm) + 1j * phase)
    return TruncatedState(MappingProxyType(coeffs), norm.log_norm, norm.tail_bound)
