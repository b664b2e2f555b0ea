"""Structural description of a coherent-state class.

A class is a finite bundle of towers.  Each tower contributes

    rho_t(n) = omega_t^(w_exp_t(n)) * R_t(n),
    R_t(n)   = Gamma(gamma_t(n) + n_t)            (bare form), or
               Gamma(gamma_t(n) + n_t)/Gamma(gamma_t(n))   (normalized form),

and a complex variable z_t raised to z_exp_t(n).  All exponents and
Gamma offsets are linear in the quantum numbers with coefficients drawn
from {1} and the frequency ratios, plus shift constants, which is
exactly the algebra LinForm encodes.  Everything downstream (norm
series, moment targets, selection rules, deformation limits) is derived
from this one representation.  `ClassSpec.compile` evaluates each form
at a parameter point (frequencies and pinned ratios) and fixed indices,
as a constant plus one slope per summed index; numbers at lattice points
come from there.  Which terms make each slope and each gap is worked out once per
class, on its first compile (`ClassSpec.compile_plan`).  A caller that
runs several checks on one class at one parameter point compiles it once
and hands the `CompiledClass` to each of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .frequencies import FrequencyConfig
from .special import log_gamma, log_gamma_grid

# One additive term: coefficient (a frequency ratio, or 1 when None)
# times a quantum number (n_of) or a shift constant (shift_of) or 1.
Term = tuple[tuple[int, int] | None, int | None, int | None]

# indices per summed axis of the first window a norm sum evaluates
FIRST_WINDOW = 17


@dataclass(frozen=True)
class LinForm:
    terms: tuple[Term, ...]

    def value(self, nvals: Mapping[int, int], config: FrequencyConfig) -> float:
        """The form at the quantum numbers nvals (ratios read numerically)."""
        total = 0.0
        for ratio, n_of, shift_of in self.terms:
            v = 1.0 if ratio is None else config.ratio(*ratio)
            if v != 0.0:
                if n_of is not None:
                    v *= nvals[n_of]
                if shift_of is not None:
                    v *= config.shift(shift_of)
            total += v
        return total

    def ratios_used(self) -> set[tuple[int, int]]:
        return {t[0] for t in self.terms if t[0] is not None}

    def drop_ratio(self, pair: tuple[int, int]) -> "LinForm":
        """The kappa(pair) -> 0 limit: delete every term carrying that ratio."""
        return LinForm(tuple(t for t in self.terms if t[0] != pair))

    def relabeled(self, perm: Mapping[int, int]) -> "LinForm":
        def p(t: int | None) -> int | None:
            return None if t is None else perm.get(t, t)

        out = []
        for ratio, n_of, shift_of in self.terms:
            new_ratio = None if ratio is None else (p(ratio[0]), p(ratio[1]))
            out.append((new_ratio, p(n_of), p(shift_of)))
        return LinForm(tuple(out))


def lf(*terms: Term) -> LinForm:
    return LinForm(tuple(terms))


def t_one() -> Term:
    return (None, None, None)


def t_n(tower: int) -> Term:
    return (None, tower, None)


def t_shift(tower: int) -> Term:
    return (None, None, tower)


def t_ratio_n(i: int, j: int, tower: int) -> Term:
    return ((i, j), tower, None)


def t_ratio_shift(i: int, j: int, tower: int) -> Term:
    return ((i, j), None, tower)


@dataclass(frozen=True)
class TowerTerm:
    """One tower's factorial, frequency exponent, and variable exponent."""

    tower: int
    z_exp: LinForm
    w_exp: LinForm
    gamma: LinForm
    normalized: bool

    @property
    def form(self) -> str:
        """Factorial form tag: 'plain', 'gamma(j)' or 'gamma(j,k)'."""
        deps = sorted({t[1] for t in self.gamma.terms if t[1] is not None})
        if not deps:
            return "plain"
        return "gamma(" + ",".join(str(d) for d in deps) + ")"

    def relabeled(self, perm: Mapping[int, int]) -> "TowerTerm":
        return TowerTerm(
            tower=perm.get(self.tower, self.tower),
            z_exp=self.z_exp.relabeled(perm),
            w_exp=self.w_exp.relabeled(perm),
            gamma=self.gamma.relabeled(perm),
            normalized=self.normalized,
        )

    def drop_ratio(self, pair: tuple[int, int]) -> "TowerTerm":
        return TowerTerm(
            tower=self.tower,
            z_exp=self.z_exp.drop_ratio(pair),
            w_exp=self.w_exp.drop_ratio(pair),
            gamma=self.gamma.drop_ratio(pair),
            normalized=self.normalized,
        )


class SpecError(ValueError):
    pass


@dataclass(frozen=True)
class AffineForm:
    """A LinForm reduced to const + slopes . n over the summed indices."""

    const: float
    slopes: tuple[float, ...]  # one per summed axis

    def at(self, n) -> float:
        return self.const + sum(s * v for s, v in zip(self.slopes, n))


@dataclass(frozen=True)
class CompiledTower:
    tower: int
    log_w: float                # log omega_t
    z_exp: AffineForm
    w_exp: AffineForm
    gamma_arg: AffineForm       # Gamma argument gamma_t + n_t
    log_gamma_norm: float       # log Gamma(gamma_t) for normalized towers, else 0
    z_gap: float                # gamma_t + n_t - 1 - z_t at the summed origin
    w_gap: float                # w_t - gamma_t - n_t at the summed origin


@dataclass(frozen=True)
class CompiledClass:
    """A class's forms at one parameter point and fixed indices.

    Every exponent and Gamma argument is affine in the summed indices n,
    so each is evaluated once here and then costs one dot product per n.
    """

    id: str
    summed: tuple[int, ...]
    towers: tuple[CompiledTower, ...]

    def check(self, n) -> None:
        if len(n) != len(self.summed):
            raise SpecError(f"expected {len(self.summed)} indices, got {len(n)}")
        if any(v < 0 for v in n):
            raise SpecError("summed indices must be non-negative")

    def window(self, shape, start) -> list[np.ndarray]:
        """Index vectors of the window [start_i, start_i + shape_i) per summed axis.

        Vector i lies along axis i, so the vectors broadcast to the window,
        whose points run in C order, which is `itertools.product` order.
        """
        self.check(start)
        if len(shape) != len(start):
            raise SpecError(f"window shape {tuple(shape)} does not match start {tuple(start)}")
        ndim = len(shape)
        return [
            np.arange(k, k + s, dtype=float).reshape([-1 if j == i else 1 for j in range(ndim)])
            for i, (k, s) in enumerate(zip(start, shape))
        ]

    @cached_property
    def _lowered(self) -> np.ndarray:
        """Every tower's z exponent, omega exponent and Gamma argument as
        one array (form, tower, const and one slope per summed axis)."""
        return np.array([
            [(f.const, *f.slopes) for f in forms]
            for forms in zip(*((ct.z_exp, ct.w_exp, ct.gamma_arg) for ct in self.towers))
        ])

    def forms_on_grid(self, grids) -> np.ndarray:
        """Every tower's z exponent, omega exponent and Gamma argument on
        index grids that broadcast together, as one array (form, tower,
        *grid): z_exp, w_exp and gamma_arg in that order.  Each is
        associated as in `AffineForm.at`, so the two agree bit for bit."""
        lowered = self._lowered
        lead = lowered.shape[:2]
        pad = lead + (1,) * np.ndim(grids[0])
        acc = np.zeros(lead + np.shape(grids[0]))
        for i, g in enumerate(grids, 1):
            acc = acc + lowered[..., i].reshape(pad) * g
        return lowered[..., 0].reshape(pad) + acc

    def log_factorials(self, gamma_args, dead=None) -> tuple[np.ndarray, ...]:
        """log R_t(n) = log Gamma(gamma_t(n) + n_t) - log Gamma(gamma_t),
        one array per tower, from the Gamma arguments (tower, *grid) that
        `forms_on_grid` gives.

        dead, broadcast to (points, tower), marks the entries of terms
        already zero: they take argument 1.  The first other argument that
        is not > 0, point by point and tower by tower, raises log_gamma's
        ValueError.
        """
        last = gamma_args.ndim - 1
        args = gamma_args.transpose(*range(1, last + 1), 0)  # (points, tower)
        log_r = log_gamma_grid(args if dead is None else np.where(dead, 1.0, args))
        norms = np.array([ct.log_gamma_norm for ct in self.towers])
        return tuple((log_r - norms).transpose(last, *range(last)))

    def window_parts(self, shape, start, zero) -> tuple:
        """The parts of the norm-series log terms on a window that do not depend on |z|.

        zero flags the towers whose variable is 0.  Returns the mask of the
        terms that vanish, None when no variable is 0, and, per tower, its
        z exponent, its log frequency term and its log Gamma term, as
        read-only arrays on the window.
        """
        z_exps, w_exps, gamma_args = self.forms_on_grid(self.window(shape, start))
        dead = masks = None
        if any(zero):
            dead = np.zeros(shape, dtype=bool)
            per_tower = []
            for e, is_zero in zip(z_exps, zero):
                if is_zero:
                    dead = dead | (e > 0.0)
                # a term already zero never reaches this tower's Gamma
                per_tower.append(dead)
            masks = np.stack(per_tower, axis=-1)
            dead.setflags(write=False)
        log_rs = self.log_factorials(gamma_args, masks)
        towers = tuple(
            (e, w * ct.log_w, log_r)
            for e, w, ct, log_r in zip(z_exps, w_exps, self.towers, log_rs)
        )
        for a in itertools.chain(*towers):
            a.setflags(write=False)
        return dead, towers

    @cached_property
    def first_window_parts(self) -> tuple:
        """`window_parts` of the first window of every norm sum, with no variable zero."""
        ndim = len(self.summed)
        return self.window_parts((FIRST_WINDOW,) * ndim, (0,) * ndim, (False,) * len(self.towers))

    def log_target_grid(self, grids) -> np.ndarray:
        """log of the product of the tower factorials R_t(n), the moment
        target, on index grids."""
        return self.log_target(self.forms_on_grid(grids)[2])

    def log_target(self, gamma_args) -> np.ndarray:
        """`log_target_grid` from the Gamma arguments (tower, *grid) that
        `forms_on_grid` gives, towers summed in order as a scalar loop over
        them would."""
        out = np.zeros(gamma_args.shape[1:])
        for log_r in self.log_factorials(gamma_args):
            out = out + log_r
        return out


@dataclass(frozen=True)
class ClassSpec:
    """Complete description of one registered coherent-state class."""

    id: str
    label: str
    dimension: int
    summed: tuple[int, ...]
    fixed: tuple[int, ...]
    towers: tuple[TowerTerm, ...]
    family: str = ""
    subclass: str = ""
    quadruple: tuple[int, int, int, int] | None = None
    case: str = ""

    def __post_init__(self):
        if set(self.summed) & set(self.fixed):
            raise SpecError(f"{self.id}: summed and fixed towers overlap")
        referenced = set()
        for tw in self.towers:
            referenced.add(tw.tower)
            for form in (tw.z_exp, tw.w_exp, tw.gamma):
                referenced |= {t[1] for t in form.terms if t[1] is not None}
        if not referenced <= set(self.summed) | set(self.fixed):
            raise SpecError(f"{self.id}: tower referenced outside summed+fixed sets")
        if len({tw.tower for tw in self.towers}) != len(self.towers):
            raise SpecError(f"{self.id}: duplicate tower entries")
        for tw in self.towers:
            if tw.normalized and any(t[1] in self.summed for t in tw.gamma.terms):
                # Gamma(gamma_t) is compiled once, at the summed origin
                raise SpecError(
                    f"{self.id}: normalized tower {tw.tower} has a Gamma offset "
                    "that moves with a summed index"
                )

    @property
    def dof(self) -> int:
        """Number of complex variables the state is expanded in."""
        return len(self.towers)

    @property
    def tower_ids(self) -> tuple[int, ...]:
        return tuple(tw.tower for tw in self.towers)

    def quantum_numbers(
        self, summed_values, fixed_values
    ) -> dict[int, int]:
        if len(summed_values) != len(self.summed):
            raise SpecError(
                f"{self.id}: expected {len(self.summed)} summed values, got {len(summed_values)}"
            )
        if len(fixed_values) != len(self.fixed):
            raise SpecError(
                f"{self.id}: expected {len(self.fixed)} fixed values, got {len(fixed_values)}"
            )
        nvals = dict(zip(self.summed, summed_values))
        nvals.update(zip(self.fixed, fixed_values))
        if any(v < 0 for v in nvals.values()):
            raise SpecError("quantum numbers must be non-negative")
        return nvals

    def compile(self, config: FrequencyConfig, fixed) -> CompiledClass:
        """Reduce every form once: its value at the summed origin and its
        coefficient of each summed index.  Each tower also gets the two
        gaps its density is read from, at the summed origin.  The forms to
        evaluate come from `compile_plan`; only their values are computed
        here."""
        if config.dimension < self.dimension:
            raise SpecError(f"{self.id}: needs {self.dimension} frequencies")
        nv0 = self.quantum_numbers((0,) * len(self.summed), tuple(int(v) for v in fixed))

        def reduce(form: LinForm, own) -> AffineForm:
            const = form.value(nv0, config)
            return AffineForm(const, tuple(f.value(unit, config) for unit, f in own))

        def gap(kept: LinForm | None, rest: LinForm | None) -> float:
            plus = kept.value(nv0, config) if kept else 0.0
            return plus - (rest.value(nv0, config) if rest else 0.0)

        towers = []
        for tower, normalized, z_exp, w_exp, gamma, own_step, z_gap, w_gap in self.compile_plan:
            gamma = reduce(*gamma)
            towers.append(
                CompiledTower(
                    tower=tower,
                    log_w=math.log(config.omega(tower)),
                    z_exp=reduce(*z_exp),
                    w_exp=reduce(*w_exp),
                    # the Gamma argument gamma_t + n_t steps by one more along n_t
                    gamma_arg=AffineForm(
                        gamma.const + nv0[tower], tuple(s + u for s, u in zip(gamma.slopes, own_step))
                    ),
                    log_gamma_norm=log_gamma(gamma.const) if normalized else 0.0,
                    z_gap=gap(*z_gap),
                    w_gap=gap(*w_gap),
                )
            )
        return CompiledClass(self.id, self.summed, tuple(towers))

    @cached_property
    def compile_plan(self) -> tuple[tuple, ...]:
        """What `compile` evaluates, derived from the forms once: per tower
        (tower, normalized, z, w and Gamma form plans, own step, z gap,
        w gap).

        A form plan is (form, ((index values {axis: 1}, the form's terms
        on that axis alone), ... per summed axis)): the slope along an axis
        is that part at n_axis = 1.  The own step is 1.0 on the tower's
        own summed axis, else 0.0.  A gap is (plus side, minus side), the
        terms both share cancelled, so that a gap that vanishes is exactly
        0; an empty side is None.
        """
        units = tuple({a: 1} for a in self.summed)

        def split(form: LinForm) -> tuple:
            own = tuple(LinForm(tuple(t for t in form.terms if t[1] == a)) for a in self.summed)
            return form, tuple(zip(units, own))

        def cancel(plus: tuple[Term, ...], minus: tuple[Term, ...]) -> tuple:
            kept, rest = [], list(minus)
            for t in plus:
                if t in rest:
                    rest.remove(t)
                else:
                    kept.append(t)
            return tuple(LinForm(tuple(terms)) if terms else None for terms in (kept, rest))

        plans = []
        for tw in self.towers:
            arg_terms = (*tw.gamma.terms, t_n(tw.tower))  # gamma_t + n_t
            plans.append((
                tw.tower,
                tw.normalized,
                split(tw.z_exp),
                split(tw.w_exp),
                split(tw.gamma),
                tuple(1.0 if a == tw.tower else 0.0 for a in self.summed),
                cancel(arg_terms, (t_one(), *tw.z_exp.terms)),
                cancel(tw.w_exp.terms, arg_terms),
            ))
        return tuple(plans)

    # -- structural transforms -----------------------------------------

    def ratios_used(self) -> set[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for tw in self.towers:
            for form in (tw.z_exp, tw.w_exp, tw.gamma):
                out |= form.ratios_used()
        return out

    def drop_ratio(self, pair: tuple[int, int]) -> "ClassSpec":
        """Structural kappa(pair) -> 0 limit (id/labels left to the caller)."""
        return ClassSpec(
            id=self.id + f".limit{pair[0]}{pair[1]}",
            label=self.label,
            dimension=self.dimension,
            summed=self.summed,
            fixed=self.fixed,
            towers=tuple(tw.drop_ratio(pair) for tw in self.towers),
            family=self.family,
            subclass=self.subclass,
            quadruple=self.quadruple,
            case=self.case,
        )

    def relabeled(self, perm: Mapping[int, int]) -> "ClassSpec":
        return ClassSpec(
            id=self.id + ".swapped",
            label=self.label,
            dimension=self.dimension,
            summed=tuple(sorted(perm.get(t, t) for t in self.summed)),
            fixed=tuple(sorted(perm.get(t, t) for t in self.fixed)),
            towers=tuple(
                tw.relabeled(perm)
                for tw in sorted(self.towers, key=lambda w: perm.get(w.tower, w.tower))
            ),
            family=self.family,
            subclass=self.subclass,
            quadruple=self.quadruple,
            case=self.case,
        )

