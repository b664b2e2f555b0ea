"""Measure densities and the generalized moment problems they solve.

Each class's resolution of identity reduces, after phase integration,
to the diagonal moment conditions

    int chi(u) prod_t u_t^(e_t(n)) / omega_t^(w_t(n)) du  =  prod_t R_t(n),

with e/w the variable/frequency exponents and R the factorial targets.
`density_for` reads a class's density off its compiled forms, by one
recipe for every class, and `verify_moments` certifies the identity with
two independent routes: the closed form of the reduced integral, and a
direct numerical integral of the density itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .frequencies import FrequencyConfig
from .logspace import rel_diffs_from_logs
from .quadrature import _integration_order, combine_routes, log_moment_closed, log_moment_direct
from .quadrature import log_moment_piece  # noqa: F401  (bench alias, see quadrature.py)
from .report import VerificationReport, make_report
from .special import log_gamma  # noqa: F401  (bench/spans.py counts calls through it)
from .structure import ClassSpec, CompiledClass, SpecError


@dataclass(frozen=True)
class ExpTerm:
    """One exponential factor exp(-(u_var * prod u_j^B_j)/S)."""

    var: int
    log_scale: float
    couplings: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class MeasureDensity:
    """chi(u) = exp(log_const) * prod u_t^powers[t] * prod exp-terms."""

    spec_id: str
    variables: tuple[int, ...]
    log_const: float
    powers: tuple[tuple[int, float], ...]
    exp_terms: tuple[ExpTerm, ...]
    note: str = ""

    def power(self, var: int) -> float:
        return sum(p for v, p in self.powers if v == var)

    @cached_property
    def integration_order(self) -> tuple[ExpTerm, ...]:
        """The exp terms in the order the closed form integrates them."""
        return tuple(_integration_order(self))

    def log_grid(self, v: dict[int, np.ndarray]) -> np.ndarray:
        """log chi at u = e^v, v mapping each variable to log u; broadcasts.

        A factor whose exponent overflows is 0 in floats, so log chi is -inf.
        """
        out = self.log_const
        for var, p in self.powers:
            if p != 0.0:
                out = out + p * v[var]
        with np.errstate(over="ignore"):
            for term in self.exp_terms:
                arg = v[term.var] - term.log_scale
                for j, b in term.couplings:
                    arg = arg + b * v[j]
                out = out - np.exp(arg)
        return out

    def log_value(self, u: dict[int, float]) -> float:
        """Pointwise log chi(u); -inf where a positive power hits u = 0."""
        with np.errstate(divide="ignore"):
            return float(self.log_grid({v: np.log(u[v]) for v in self.variables}))

    def perturbed(self, var: int, scale_factor: float) -> "MeasureDensity":
        """Negative control: rescale one exponential factor's scale only."""
        terms = tuple(
            replace(t, log_scale=t.log_scale + math.log(scale_factor)) if t.var == var else t
            for t in self.exp_terms
        )
        return replace(self, exp_terms=terms, note=self.note + f" perturbed(var={var})")


def density_for(spec: ClassSpec, config: FrequencyConfig, compiled: CompiledClass) -> MeasureDensity:
    """The density whose moments are the compiled class's factorial targets.

    Each tower t contributes the factor u_t^(z gap) exp(-u_t/omega_t),
    and omega_t^(w gap) / exp(log_gamma_norm) to the constant.  That
    solves the tower's moment problem wherever its z and omega exponents
    step along every summed axis as its Gamma argument does.  Where a
    tower's slope on axis i differs, the summed tower of axis i takes the
    difference over its own Gamma slope there: a z mismatch couples that
    tower's exp factor to u_t, and an omega mismatch multiplies its S by
    omega_t to that power.  Each, times the host's Gamma argument at the
    origin, moves u_t's power or the constant.
    """
    if spec.dimension == 2 and spec.subclass != "A" and any(map(config.shift, spec.tower_ids)):
        raise SpecError(f"{spec.id}: exponent-variant sub-classes are cataloged at zero spectrum shift")
    by_tower = {ct.tower: ct for ct in compiled.towers}
    log_const = 0.0
    powers = []
    couplings = {t: [] for t in by_tower}
    rescale = dict.fromkeys(by_tower, 0.0)  # log S_t - log omega_t
    for ct in compiled.towers:
        power = ct.z_gap
        log_const += ct.w_gap * ct.log_w - ct.log_gamma_norm
        slopes = zip(compiled.summed, ct.z_exp.slopes, ct.w_exp.slopes, ct.gamma_arg.slopes)
        for i, (axis, z, w, g) in enumerate(slopes):
            if z == g and w == g:
                continue
            host = by_tower[axis]
            coupling = (z - g) / host.gamma_arg.slopes[i]
            scale = (w - g) * ct.log_w / host.gamma_arg.slopes[i]
            if coupling:
                couplings[axis].append((ct.tower, coupling))
            rescale[axis] += scale
            power += coupling * host.gamma_arg.const
            log_const -= scale * host.gamma_arg.const
        if power:
            powers.append((ct.tower, power))
    terms = tuple(
        ExpTerm(ct.tower, ct.log_w + rescale[ct.tower], tuple(couplings[ct.tower]))
        for ct in compiled.towers
    )
    return MeasureDensity(spec.id, spec.tower_ids, log_const, tuple(powers), terms)


# -- moment integration ------------------------------------------------


def _log_moments(compiled: CompiledClass, density: MeasureDensity, forms) -> np.ndarray:
    """log of the radial moment integral at each point of the index grid
    that forms, `compiled.forms_on_grid`'s array, was evaluated on.

    The triangular change of variables reduces each integral of
    chi(u) prod u^e(n) to a product of pieces int u^(s-1) e^(-u) du,
    one per exponential factor, each Gamma(s) in closed form.  The
    exponents s are evaluated on all points at once, in the association
    of a scalar pass, and a divergent one raises at its first point.
    """
    z_exps, w_exps = forms[0], forms[1]
    e = {ct.tower: z for ct, z in zip(compiled.towers, z_exps)}
    size = z_exps.shape[1]
    q = {v: e.get(v, 0.0) + np.full(size, density.power(v)) for v in density.variables}
    xs, log_pieces = [], []
    for term in density.integration_order:
        s = q[term.var] + 1.0
        for j, bexp in term.couplings:
            q[j] = q[j] - bexp * s
        xs.append(s - 1.0)
        log_pieces.append(s * term.log_scale)
    # (point, term) in C order is the order a scalar scan meets the pieces
    pieces = log_moment_closed(np.stack(xs, axis=-1))
    out = np.full(size, density.log_const)
    for t, log_piece in enumerate(log_pieces):
        out = out + (pieces[:, t] + log_piece)
    return _over_frequency_powers(compiled, w_exps, out)


def _over_frequency_powers(compiled: CompiledClass, w_exps, log_integrals) -> np.ndarray:
    """The log integrals divided by prod_t omega_t^(w_t(n)), from the
    omega exponent rows w_exps."""
    for ct, w in zip(compiled.towers, w_exps):
        log_integrals = log_integrals - w * ct.log_w
    return log_integrals


def _direct_log_moments(compiled: CompiledClass, density: MeasureDensity, forms) -> np.ndarray:
    """`_log_moments` by the direct route: the density integrated numerically."""
    exponents = {ct.tower: z for ct, z in zip(compiled.towers, forms[0])}
    return _over_frequency_powers(compiled, forms[1], log_moment_direct(density, exponents))


def _columns(points) -> list[np.ndarray]:
    """Index grids, one per summed axis, of a list of multi-indices."""
    return list(np.asarray(points, dtype=float).T)


def moment_target(spec: ClassSpec, config: FrequencyConfig, fixed, n) -> float:
    """log of the product of the factorial targets R_t(n)."""
    compiled = spec.compile(config, fixed)
    compiled.check(n)
    return float(compiled.log_target_grid([np.array([float(v)]) for v in n])[0])


def moment_integral(
    spec: ClassSpec,
    config: FrequencyConfig,
    fixed,
    n,
    density: MeasureDensity | None = None,
) -> float:
    """log of the radial moment integral at summed multi-index n."""
    compiled = spec.compile(config, fixed)
    compiled.check(n)
    density = density_for(spec, config, compiled) if density is None else density
    return float(_log_moments(compiled, density, compiled.forms_on_grid(_columns([n])))[0])


@lru_cache(maxsize=32)
def _lattice(n_axes: int, n_max: int) -> tuple:
    """(grid, labels) of the probe lattice, derived once: its points in
    order as a read-only float array (point, axis), and the residual
    labels "3,7"."""
    if n_axes == 1:
        points = [(n,) for n in range(n_max + 1)]
    else:
        pts = set()
        for n in range(n_max + 1):
            pts.update({(n, 0), (0, n), (n, n)})
        for p in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 5), (5, 2), (3, 7), (7, 3)]:
            if max(p) <= n_max:
                pts.add(p)
        points = sorted(pts)
    grid = np.array(points, dtype=float).reshape(-1, n_axes)
    grid.setflags(write=False)
    return grid, tuple(",".join(map(str, n)) for n in points)


# the lattice rows where the direct route runs: n = 0 and the largest exponents
_ROUTE_ENDS = [0, -1]


def verify_moments(
    spec: ClassSpec,
    config: FrequencyConfig,
    fixed,
    n_range: int = 20,
    tol: float = 1e-8,
    density: MeasureDensity | None = None,
    compiled: CompiledClass | None = None,
) -> VerificationReport:
    """Relative residuals |integral/target - 1| over the probe lattice.

    The integrals are the closed form.  At the lattice's first and last
    points (n = 0 and the largest exponents) the direct route integrates
    the density itself, and the two routes must agree to HARD_TOL.  Both
    routes read the exponents evaluated once on the lattice.  density and
    compiled default to the class's at the natural ratios.
    """
    fixed = tuple(int(v) for v in fixed)
    compiled = spec.compile(config, fixed) if compiled is None else compiled
    density = density_for(spec, config, compiled) if density is None else density
    grid, labels = _lattice(len(spec.summed), n_range)
    forms = compiled.forms_on_grid(list(grid.T))
    integrals = _log_moments(compiled, density, forms)
    direct = _direct_log_moments(compiled, density, forms[..., _ROUTE_ENDS])
    for log_closed, log_direct in zip(integrals[_ROUTE_ENDS].tolist(), direct.tolist()):
        combine_routes(log_closed, log_direct, context=f"({density.spec_id})")
    targets = compiled.log_target(forms[2])
    return make_report(
        spec.id,
        "moment",
        zip(labels, rel_diffs_from_logs(integrals, targets)),
        tol,
        metadata=(
            ("omegas", list(config.omegas)),
            ("shifts", list(config.shifts)),
            ("fixed", list(fixed)),
            ("n_range", n_range),
            ("density_note", density.note),
        ),
    )


def nonuniqueness_partner(spec: ClassSpec, config: FrequencyConfig, fixed) -> MeasureDensity:
    """A second density matching the same fixed-index moment set.

    The second-variable exponent of the (g1,1)B sub-class is the bare
    vector index, so only the single moment order n2 is constrained
    there; a reshaped gamma density u2 e^(-u2/w2) / ((n2+1) w2^2)
    reproduces it while differing from f(r2, w2) pointwise.
    """
    if spec.id != "2d.2dof.gamma1-plain.B":
        raise SpecError("the non-uniqueness exhibit lives on 2d.2dof.gamma1-plain.B")
    base = density_for(spec, config, spec.compile(config, fixed))
    n2 = fixed[0]
    w2 = config.omega(2)
    return MeasureDensity(
        base.spec_id,
        base.variables,
        base.log_const - math.log(n2 + 1.0) - math.log(w2),
        base.powers + ((2, 1.0),),
        base.exp_terms,
        note="nonuniqueness partner (reshaped second-variable gamma density)",
    )

