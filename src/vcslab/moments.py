"""Measure densities and the generalized moment problems they solve.

Each class's resolution of identity reduces, after phase integration,
to the diagonal moment conditions

    int chi(u) prod_t u_t^(e_t(n)) / omega_t^(w_t(n)) du  =  prod_t R_t(n),

with e/w the variable/frequency exponents and R the factorial targets.
`density_for` returns the cataloged density of a registered class;
`solve_generalized` constructs the same densities from the generic
recipe (ratio staging, optional index recombination, triangular change
of variables, Jacobian absorption) for arbitrary exponent tuples; and
`verify_moments` certifies the identity with two independent routes:
the closed form of the reduced integral, and a direct numerical integral
of the density itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .frequencies import FrequencyConfig, resolve_ratio
from .logspace import rel_diff_from_logs
from .quadrature import _integration_order, combine_routes, log_moment_closed, log_moment_direct
from .quadrature import log_moment_piece  # noqa: F401  (bench alias, see quadrature.py)
from .report import VerificationReport, make_report
from .special import log_gamma
from .structure import ClassSpec, CompiledClass, SpecError


@dataclass(frozen=True)
class ExpTerm:
    """One exponential factor exp(-(u_var^self_exp * prod u_j^B_j)/S)."""

    var: int
    log_scale: float
    self_exp: float = 1.0
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

    def log_grid(self, v: dict[int, np.ndarray]) -> np.ndarray:
        """log chi at u = e^v, v mapping each variable to log u; broadcasts."""
        out = self.log_const
        for var, p in self.powers:
            if p != 0.0:
                out = out + p * v[var]
        for term in self.exp_terms:
            arg = term.self_exp * v[term.var] - term.log_scale
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


def _shifted_plain_factor(var: int, omega: float, alpha: float):
    """Density factor of a plain tower: u^alpha e^(-u/w) / (Gamma(1+alpha) w^(1+alpha))."""
    log_const = -(1.0 + alpha) * math.log(omega) - log_gamma(1.0 + alpha)
    powers = ((var, alpha),) if alpha else ()
    return log_const, powers, ExpTerm(var, math.log(omega))


def _smart_factor(var: int, omega: float):
    """Density factor of a matched-exponent Gamma tower: f(r, w)."""
    return -math.log(omega), (), ExpTerm(var, math.log(omega))


def _product_density(spec: ClassSpec, config: FrequencyConfig) -> MeasureDensity:
    log_const = 0.0
    powers: list[tuple[int, float]] = []
    terms: list[ExpTerm] = []
    for tw in spec.towers:
        w = config.omega(tw.tower)
        if tw.normalized:
            c, p, t = _shifted_plain_factor(tw.tower, w, config.shift(tw.tower))
        else:
            c, p, t = _smart_factor(tw.tower, w)
        log_const += c
        powers.extend(p)
        terms.append(t)
    return MeasureDensity(spec.id, spec.tower_ids, log_const, tuple(powers), tuple(terms))


def _require_unshifted(spec: ClassSpec, config: FrequencyConfig):
    if any(config.shift(t) != 0.0 for t in spec.tower_ids):
        raise SpecError(
            f"{spec.id}: exponent-variant sub-classes are cataloged at zero spectrum shift"
        )


def _one_dof_density(spec: ClassSpec, config: FrequencyConfig, fixed, overrides) -> MeasureDensity:
    s = spec.summed[0]
    f = spec.fixed[0]
    nf = fixed[0]
    w = config.omega(s)
    b, bp, _, _ = spec.quadruple
    gamma_family = not spec.towers[0].normalized
    if spec.subclass == "A" and not gamma_family:
        c, p, t = _shifted_plain_factor(s, w, config.shift(s))
        return MeasureDensity(spec.id, (s,), c, p, (t,))
    if gamma_family and (b, bp) == (1, 1):
        c, p, t = _smart_factor(s, w)
        return MeasureDensity(spec.id, (s,), c, p, (t,))
    _require_unshifted(spec, config)
    # kappa only now: a class that does not use it may have its reciprocal pinned to 0
    k = resolve_ratio(config, (s, f), overrides)
    if gamma_family:
        # variants of the deformed tower: rho(r, n_f) = [r^2]^((1-b) k n_f) w^(-(1-bp) k n_f) f(r, w)
        power = (1.0 - b) * k * nf
        log_const = -(1.0 - bp) * k * nf * math.log(w) - math.log(w)
    else:
        # variants of the plain tower: rho(r, n_f) = r^(-2 b k n_f) w^(bp k n_f) f(r, w)
        power = -b * k * nf
        log_const = bp * k * nf * math.log(w) - math.log(w)
    return MeasureDensity(
        spec.id, (s,), log_const, ((s, power),) if power else (), (ExpTerm(s, math.log(w)),)
    )


def _two_dof_density(spec: ClassSpec, config: FrequencyConfig, fixed, overrides) -> MeasureDensity:
    n2 = fixed[0]
    w1, w2 = config.omega(1), config.omega(2)
    letter = spec.subclass
    if letter == "A":
        return _product_density(spec, config)
    _require_unshifted(spec, config)
    k2 = resolve_ratio(config, (2, 1), overrides)  # omega_1 / omega_2 unless overridden
    lw1, lw2 = math.log(w1), math.log(w2)
    log_const = -lw2  # the second-variable factor f(r2, w2) in every entry
    powers: list[tuple[int, float]] = []
    # per-table entries: (log S1, second-variable power, couplings, extra const)
    if spec.family == "plain-plain":
        entry = {
            "B": (lw1 + k2 * lw2, 0.0, (), 0.0),
            "C": (lw1, k2, ((2, k2),), 0.0),
            "D": (lw1 + k2 * lw2, k2, ((2, k2),), 0.0),
        }[letter]
    elif spec.family == "gamma1-plain":
        entry = {
            "B": (lw1 + k2 * lw2, 0.0, (), -n2 * lw2),
            "C": (lw1, k2 + n2, ((2, k2),), 0.0),
            "D": (lw1 + k2 * lw2, k2 + n2, ((2, k2),), -n2 * lw2),
        }[letter]
    elif spec.family == "plain-gamma2":
        entry = {
            "B": (lw1, -k2, ((2, -k2),), 0.0),
            "C": (lw1 - k2 * lw2, 0.0, (), 0.0),
            "D": (lw1 - k2 * lw2, -k2, ((2, -k2),), 0.0),
        }[letter]
    elif spec.family == "gamma1-gamma2":
        entry = {
            "B": (lw1, -(k2 + n2), ((2, -k2),), 0.0),
            "C": (lw1 - k2 * lw2, 0.0, (), n2 * lw2),
            "D": (lw1 - k2 * lw2, -(k2 + n2), ((2, -k2),), n2 * lw2),
        }[letter]
    else:
        raise SpecError(f"{spec.id}: not a cataloged two-variable family")
    log_s1, p2, couplings, extra_const = entry
    log_const += extra_const - log_s1
    if p2:
        powers.append((2, p2))
    terms = (ExpTerm(1, log_s1, couplings=tuple(couplings)), ExpTerm(2, lw2))
    return MeasureDensity(spec.id, (1, 2), log_const, tuple(powers), terms)


def density_for(spec: ClassSpec, config: FrequencyConfig, fixed, overrides=None) -> MeasureDensity:
    """Cataloged density of a registered class at the given fixed indices and ratio overrides."""
    fixed = tuple(int(v) for v in fixed)
    if len(fixed) != len(spec.fixed):
        raise SpecError(f"{spec.id}: expected {len(spec.fixed)} fixed indices")
    if spec.dimension == 3:
        return _product_density(spec, config)
    if spec.dof == 1:
        return _one_dof_density(spec, config, fixed, overrides)
    return _two_dof_density(spec, config, fixed, overrides)


# -- generalized recipe ------------------------------------------------

TARGET_FORMS = ("PlainPlain", "GammaPlain", "PlainGamma", "GammaGamma")


def solve_generalized(
    target_form: str,
    tuple8,
    config: FrequencyConfig,
    fixed_value: int,
) -> MeasureDensity:
    """Density from the generic recipe for the two-variable problems.

    tuple8 = (a1, b1, a1p, b1p, a2, b2, a2p, b2p): variable exponents
    a_i n_i + b_i k_i n_other and frequency exponents with primes.  The
    construction: stage every variable as a ratio u/omega, recombine or
    simplify the cross factors as the target form dictates, make the
    triangular change of variables (invertible whenever a_i != 0), and
    absorb the Jacobians into the per-variable factors.
    """
    if target_form not in TARGET_FORMS:
        raise SpecError(f"unknown target form {target_form!r}")
    a1, b1, a1p, b1p, a2, b2, a2p, b2p = (float(v) for v in tuple8)
    if a1 == 0.0 or a1p == 0.0 or a2 == 0.0 or a2p == 0.0:
        raise SpecError("zero leading exponents make the change of variables singular")
    n2 = int(fixed_value)
    w1, w2 = config.omega(1), config.omega(2)
    k1, k2 = config.ratio(1, 2), config.ratio(2, 1)
    lw1, lw2 = math.log(w1), math.log(w2)
    r1_gamma = target_form in ("GammaPlain", "GammaGamma")
    r2_gamma = target_form in ("PlainGamma", "GammaGamma")

    # second-variable factor: a2 u2^(a2-1) e^(-u2^a2 / w2^a2p) / w2^a2p
    log_const = math.log(a2) - a2p * lw2
    powers: list[tuple[int, float]] = [(2, a2 - 1.0)]
    term2 = ExpTerm(2, a2p * lw2, self_exp=a2)

    # first-variable factor per target form
    if not r2_gamma:
        # recombine u2^(b2 k2 n1) into the first variable
        cross = b2 * k2
        log_s1 = a1p * lw1 + b2p * k2 * lw2
        if r1_gamma:
            # keep the u1 fixed-index dependence matched to the Gamma
            # argument; the bracket collects the leftover factors
            p1_extra = (a1 - b1) * k1 * n2
            powers.append((2, b2 * n2))
            log_const += (b1p - a1p) * k1 * n2 * lw1 - b2p * n2 * lw2
        else:
            # simplify u1^(b1 k1 n2) against the density
            p1_extra = -b1 * k1 * n2
            log_const += b1p * k1 * n2 * lw1
    else:
        # the Gamma target in the second tower forbids recombining u2
        cross = (b2 - a2) * k2
        log_s1 = a1p * lw1 + (b2p - a2p) * k2 * lw2
        if r1_gamma:
            p1_extra = (a1 - b1) * k1 * n2
            log_const += (b1p - a1p) * k1 * n2 * lw1
            # k2*k1 = 1 exactly: the reciprocal-ratio bracket exponents
            # collapse to bare multiples of the fixed index
            powers.append((2, (b2 - a2) * n2))
            log_const += (a2p - b2p) * n2 * lw2
        else:
            p1_extra = -b1 * k1 * n2
            log_const += b1p * k1 * n2 * lw1
    log_const += math.log(a1) - log_s1
    powers.append((1, a1 - 1.0 + p1_extra))
    powers.append((2, cross))
    term1 = ExpTerm(1, log_s1, self_exp=a1, couplings=((2, cross),) if cross else ())
    powers = [(v, p) for v, p in powers if p != 0.0]
    return MeasureDensity(
        f"generalized.{target_form}", (1, 2), log_const, tuple(powers), (term1, term2)
    )


# -- moment integration ------------------------------------------------


def _log_moments(compiled: CompiledClass, density: MeasureDensity, points) -> np.ndarray:
    """log of the radial moment integral at each summed multi-index in points.

    The triangular change of variables reduces each integral of
    chi(u) prod u^e(n) to a product of pieces int u^(s-1) e^(-u) du,
    one per exponential factor, each Gamma(s) in closed form.  The
    exponents s are evaluated on all points at once, in the association
    of a scalar pass, and a divergent one raises at its first point.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, len(compiled.summed))
    grids = list(pts.T)
    size = pts.shape[0]
    e = {ct.tower: ct.z_exp.on_grid(grids) for ct in compiled.towers}
    q = {v: e.get(v, 0.0) + np.full(size, density.power(v)) for v in density.variables}
    order = _integration_order(density)
    xs, log_pieces = [], []
    for term in order:
        a = term.self_exp
        s = (q[term.var] + 1.0) / a
        for j, bexp in term.couplings:
            q[j] = q[j] - bexp * s
        xs.append(s - 1.0)
        log_pieces.append(s * term.log_scale - math.log(a))
    # (point, term) in C order is the order a scalar scan meets the pieces
    pieces = log_moment_closed(np.stack(xs, axis=-1))
    out = np.full(size, density.log_const)
    for t, log_piece in enumerate(log_pieces):
        out = out + (pieces[:, t] + log_piece)
    return _over_frequency_powers(compiled, grids, out)


def _over_frequency_powers(compiled: CompiledClass, grids, log_integrals) -> np.ndarray:
    """The log integrals divided by prod_t omega_t^(w_t(n))."""
    for ct in compiled.towers:
        log_integrals = log_integrals - ct.w_exp.on_grid(grids) * ct.log_w
    return log_integrals


def _direct_log_moments(compiled: CompiledClass, density: MeasureDensity, points) -> np.ndarray:
    """`_log_moments` by the direct route: the density integrated numerically."""
    grids = _columns(points)
    exponents = {ct.tower: ct.z_exp.on_grid(grids) for ct in compiled.towers}
    return _over_frequency_powers(compiled, grids, log_moment_direct(density, exponents))


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
    density = density_for(spec, config, fixed) if density is None else density
    compiled = spec.compile(config, fixed)
    compiled.check(n)
    return float(_log_moments(compiled, density, [n])[0])


@lru_cache(maxsize=32)
def _lattice(n_axes: int, n_max: int) -> tuple:
    """(points, grid, ends, labels): `probe_lattice`'s points, and what a
    moment check derives from them once: the points as a read-only float
    array (point, axis), its first and last rows, where the direct route
    runs, and the residual labels "3,7"."""
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
    ends = grid[[0, -1]]
    grid.setflags(write=False)
    ends.setflags(write=False)
    return tuple(points), grid, ends, tuple(",".join(map(str, n)) for n in points)


def probe_lattice(n_axes: int, n_max: int) -> list[tuple[int, ...]]:
    return list(_lattice(n_axes, n_max)[0])


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
    the density itself, and the two routes must agree to HARD_TOL.
    density and compiled default to the class's at the natural ratios.
    """
    fixed = tuple(int(v) for v in fixed)
    density = density_for(spec, config, fixed) if density is None else density
    compiled = spec.compile(config, fixed) if compiled is None else compiled
    _, grid, ends, labels = _lattice(len(spec.summed), n_range)
    integrals = _log_moments(compiled, density, grid).tolist()
    direct = _direct_log_moments(compiled, density, ends).tolist()
    for i, log_direct in zip((0, -1), direct):
        combine_routes(integrals[i], log_direct, context=f"({density.spec_id})")
    targets = compiled.log_target_grid(list(grid.T)).tolist()
    residuals = [
        (label, rel_diff_from_logs(i, t)) for label, i, t in zip(labels, integrals, targets)
    ]
    return make_report(
        spec.id,
        "moment",
        residuals,
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
        raise SpecError("the cataloged non-uniqueness exhibit lives on 2d.2dof.gamma1-plain.B")
    base = density_for(spec, config, fixed)
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

