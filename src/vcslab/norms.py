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
    """Iteration budget exhausted before the tail certificate was met."""


# the largest window, in terms, a 2D norm series may evaluate
MAX_2D_TERMS = 2**22


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


def _certified_1d_sum(log_block, rel_tol: float, budget: int = 300_000):
    """log of sum_n exp(t_n) with a geometric tail certificate.

    log_block(start, count) returns the array t_start .. t_(start+count-1).
    """
    block = 64
    start = 0
    log_partial = float("-inf")
    ratio_history: list[float] = []
    while start < budget:
        logs = log_block(start, block)
        log_partial = logsumexp(np.append(logs, log_partial))
        finite = np.isfinite(logs)
        if not finite[-8:].any():
            # weight is exactly zero along this axis beyond some index
            return log_partial, start + block, 0.0
        if finite[-4:].all():
            steps = np.exp(np.diff(logs[-4:]))
            r = float(steps.max())
            ratio_history.append(r)
            if r < 1.0:
                # a ratio that underflowed to 0 leaves no tail
                rel = 0.0
                if r > 0.0:
                    log_tail = logs[-1] + math.log(r) - math.log1p(-r)
                    rel = math.exp(log_tail - log_partial)
                if rel <= rel_tol:
                    return log_partial, start + block, rel
            if len(ratio_history) >= 3:
                a, b, c = ratio_history[-3:]
                if a >= 1.0 - 1e-12 and b >= a - 1e-12 and c >= b - 1e-12:
                    raise DivergenceError(
                        "term ratios at/above 1 and not decreasing: divergent series"
                    )
        start += block
        block = min(2 * block, 8192)
    raise TailBudgetError("1d tail certificate not achieved within the iteration budget")


def _norm_series_1d(gen: TermGenerator, rel_tol: float) -> NormResult:
    log_norm, cutoff, rel = _certified_1d_sum(
        lambda start, count: gen.log_term_grid((count,), (start,)), rel_tol
    )
    return NormResult(log_norm, (cutoff,), rel, "series")


def _frontier_ratio(logs: np.ndarray, prev: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):
        r = np.exp(logs - prev)
    r = np.where(np.isfinite(r), r, 0.0)
    return float(r.max()) if r.size else 0.0


def _norm_series_2d(gen: TermGenerator, rel_tol: float) -> NormResult:
    n1, n2 = 16, 16
    ratio_history: list[float] = []
    logs = gen.log_term_grid((n1 + 1, n2 + 1))
    while True:
        log_partial = logsumexp(logs)
        if not math.isfinite(log_partial):
            raise DivergenceError("window sum is not finite")
        log_row_mass = logsumexp(logs[n1, :])
        log_col_mass = logsumexp(logs[:, n2])
        r1 = _frontier_ratio(logs[n1, :], logs[n1 - 1, :])
        r2 = _frontier_ratio(logs[:, n2], logs[:, n2 - 1])
        if r1 < 1.0 and r2 < 1.0:
            pieces = []
            # a ratio that underflowed to 0 leaves no tail on its frontier
            if math.isfinite(log_row_mass) and r1 > 0.0:
                pieces.append(log_row_mass + math.log(r1) - math.log1p(-r1))
            if math.isfinite(log_col_mass) and r2 > 0.0:
                pieces.append(log_col_mass + math.log(r2) - math.log1p(-r2))
            if math.isfinite(logs[n1, n2]) and r1 > 0.0 and r2 > 0.0:
                pieces.append(
                    logs[n1, n2]
                    + math.log(r1) - math.log1p(-r1)
                    + math.log(r2) - math.log1p(-r2)
                )
            log_tail = logsumexp(pieces) if pieces else float("-inf")
            rel = math.exp(log_tail - log_partial) if math.isfinite(log_tail) else 0.0
            if rel <= rel_tol:
                return NormResult(log_partial, (n1, n2), rel, "series")
        ratio_history.append(max(r1, r2))
        if len(ratio_history) >= 3:
            a, b, c = ratio_history[-3:]
            if a >= 1.0 - 1e-12 and b >= a - 1e-12 and c >= b - 1e-12:
                raise DivergenceError(
                    "frontier ratios at/above 1 and not decreasing: divergent series"
                )
        if log_row_mass >= log_col_mass:
            shape, start, axis = (n1, n2 + 1), (n1 + 1, 0), 0
            n1 *= 2
        else:
            shape, start, axis = (n1 + 1, n2), (0, n2 + 1), 1
            n2 *= 2
        if (n1 + 1) * (n2 + 1) > MAX_2D_TERMS:
            raise TailBudgetError(
                f"2d tail certificate not achieved within {MAX_2D_TERMS} terms"
            )
        # the window grows by the new strip only: the old part already
        # passed, so the first bad point in product order lies in the strip
        logs = np.concatenate([logs, gen.log_term_grid(shape, start)], axis=axis)


def norm_series(gen: TermGenerator, rel_tol: float = 1e-12) -> NormResult:
    """Certified evaluation of the squared-coefficient sum."""
    if len(gen.axes) == 1:
        return _norm_series_1d(gen, rel_tol)
    if len(gen.axes) == 2:
        return _norm_series_2d(gen, rel_tol)
    raise SpecError("norm_series supports one or two summed indices")


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


def norm_closed_form(gen: TermGenerator, rel_tol: float = 1e-12) -> NormResult | None:
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

            def log_block(start, count):
                n = np.arange(start, start + count, dtype=float)
                return n * lw - (log_gamma_grid(const + slope * n) - log_g0)

            log_s, cut, rel = _certified_1d_sum(log_block, rel_tol)
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
    norm = norm_series(gen, rel_tol=1e-12)
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

