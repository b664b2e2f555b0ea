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

import numpy as np

from .frequencies import FrequencyConfig, RatioOverrides
from .logspace import logsumexp
from .special import hyp1f1_one_closed, log_gamma, log_gamma_grid
from .structure import ClassSpec, CompiledClass, SpecError

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
        start = (0,) * len(self.axes) if start is None else tuple(start)
        grids = self.compiled.window(shape, start)
        dead = np.zeros(grids[0].shape, dtype=bool)
        z_exps, args = [], []
        for ct, log_z in zip(self.compiled.towers, self.log_z):
            e = ct.z_exp.on_grid(grids)
            if log_z == float("-inf"):
                dead = dead | (e > 0.0)
            z_exps.append(e)
            # a term already zero never reaches this tower's Gamma
            args.append(np.where(dead, 1.0, ct.gamma_arg.on_grid(grids)))
        # towers on the last axis: C order is point by point, tower by tower
        log_gammas = log_gamma_grid(np.stack(args, axis=-1))
        out = np.zeros(grids[0].shape)
        for i, (ct, log_z) in enumerate(zip(self.compiled.towers, self.log_z)):
            if log_z != float("-inf"):
                out = out + 2.0 * z_exps[i] * log_z
            out = out - ct.w_exp.on_grid(grids) * ct.log_w
            out = out - (log_gammas[..., i] - ct.log_gamma_norm)
        return np.where(dead, -np.inf, out)

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


def term_generator(
    spec: ClassSpec,
    config: FrequencyConfig,
    z,
    fixed,
    overrides: RatioOverrides | None = None,
) -> TermGenerator:
    """Build the norm-series term generator of a registered class."""
    return TermGenerator.of(spec.compile(config, fixed, overrides), z)


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
    with np.errstate(invalid="ignore", over="ignore"):
        r = np.exp(logs - prev)
    return float(np.where(np.isnan(r), 0.0, r).max())


def _check_budget_reachable(log_window, ndim: int, axis: int) -> None:
    """Raise TailBudgetError where no window within MAX_TERMS can be certified along axis.

    Every window holds indices 0..16 on the other axis.  Log-concave terms
    that do not yet fall past the budget on one of those lines have a
    frontier ratio >= 1 in every window the budget admits.  Terms that have
    vanished there, or are nan, decide nothing.
    """
    probe = log_window(
        tuple(2 if k == axis else 17 for k in range(ndim)),
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
    shape_i) per axis.  The window starts at 17 terms per axis and doubles
    along the axis whose frontier slice holds more mass, evaluating only the
    new strip; before it first grows, `_check_budget_reachable` probes past
    the budget along each axis whose terms still rise.  It is certified once
    every frontier ratio is below 1 and the geometric tail past the frontier
    is at most 1e-12 of the sum; the tail assumes terms log-concave along
    each axis, as they are when every Gamma slope is >= 0.  Returns
    (log sum, last index per axis, relative tail).
    """
    last = [16] * ndim
    logs = log_window((17,) * ndim, (0,) * ndim)
    while True:
        log_partial = logsumexp(logs)
        if not log_partial < float("inf"):
            raise TailBudgetError(f"window sum is {log_partial}: no tail certificate")
        if log_partial == float("-inf"):
            return log_partial, tuple(last), 0.0
        masses = [logsumexp(np.take(logs, -1, axis=k)) for k in range(ndim)]
        ratios = [
            _frontier_ratio(np.take(logs, -1, axis=k), np.take(logs, -2, axis=k))
            for k in range(ndim)
        ]
        if max(ratios) < 1.0:
            # each frontier slice, and in 2d the corner past both, times
            # r / (1 - r) for every axis it lies past
            gains = [math.log(r) - math.log1p(-r) if r > 0.0 else -math.inf for r in ratios]
            pieces = [m + g for m, g in zip(masses, gains)]
            if ndim == 2:
                pieces.append(logs[-1, -1] + gains[0] + gains[1])
            rel = math.exp(logsumexp(pieces) - log_partial)
            if rel <= 1e-12:
                return log_partial, tuple(last), rel
        if logs.size == 17**ndim:
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

    An axis along which no Gamma argument moves is a geometric series in
    its weight, so a weight >= 1 there diverges.
    """
    ndim = len(gen.axes)
    if ndim not in (1, 2):
        raise SpecError("norm_series supports one or two summed indices")
    for k in range(ndim):
        if all(slopes[k] == 0.0 for _, slopes in gen.gamma_factors()) and gen.log_weight(k) >= 0.0:
            raise DivergenceError(
                f"no Gamma growth along n{gen.axes[k]} and its weight is >= 1: divergent series"
            )
    log_norm, last, rel = _certified_sum(gen.log_term_grid, ndim)
    return NormResult(log_norm, last, rel, "series")


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
            log_norm += x if const == 1.0 else hyp1f1_one_closed(const, x)
            trunc.append(0)
        else:
            # Gamma argument climbs with ratio slope: certified 1d sum of
            # x^n Gamma(c)/Gamma(c + slope n)
            log_g0 = log_gamma(const)

            def log_window(shape, start):
                n = np.arange(start[0], start[0] + shape[0], dtype=float)
                return n * lw - (log_gamma_grid(const + slope * n) - log_g0)

            log_s, (cut,), rel = _certified_sum(log_window, 1)
            log_norm += log_s
            tail = max(tail, rel)
            method = "factorized"
            trunc.append(cut)
    suspect = gen.compiled.id in SUSPECT_PRINTED_CLOSED_FORMS
    flags = ("printed-closed-form-suspected-typo",) if suspect else ()
    return NormResult(log_norm, tuple(trunc), tail, method, flags)


@dataclass(frozen=True)
class TruncatedState:
    """Normalized coefficient table on a truncation window."""

    spec: ClassSpec
    z: tuple[complex, ...]
    fixed: tuple[int, ...]
    nmax: tuple[int, ...]
    coeffs: dict
    log_norm: float
    tail_bound: float

    def total_weight(self) -> float:
        return sum(abs(c) ** 2 for c in self.coeffs.values())

    def coefficient(self, n) -> complex:
        return self.coeffs.get(tuple(n), 0.0)


def state(
    spec: ClassSpec,
    config: FrequencyConfig,
    z,
    fixed,
    nmax,
    overrides: RatioOverrides | None = None,
) -> TruncatedState:
    """Normalized truncated state; raises DivergenceError off the solvable domain."""
    z = tuple(complex(v) for v in z)
    fixed = tuple(int(v) for v in fixed)
    if isinstance(nmax, int):
        nmax = (nmax,) * len(spec.summed)
    gen = term_generator(spec, config, z, fixed, overrides)
    norm = norm_series(gen)
    if not math.isfinite(norm.log_norm):
        raise SpecError(
            f"{spec.id}: state vanishes identically (fixed-index powers of a zero variable)"
        )
    log_terms = gen.log_term_grid(tuple(m + 1 for m in nmax))
    coeffs = {}
    for n in itertools.product(*[range(m + 1) for m in nmax]):
        lt = float(log_terms[n])
        if lt == float("-inf"):
            coeffs[n] = 0.0
            continue
        coeffs[n] = cmath.exp(0.5 * (lt - norm.log_norm) + 1j * gen.phase(n))
    return TruncatedState(spec, z, fixed, tuple(nmax), coeffs, norm.log_norm, norm.tail_bound)

