"""Classification machinery: sub-class relevance, factor relations,
deformation limits, class counting, Landau mapping.

A ratio limit kappa -> 0 is *defined* when the structurally reduced
class is still solvable, which fails two ways: the class also uses the
reciprocal ratio (sent to infinity), or the limit strips the last
dependence on a summed index so the norm series acquires constant
terms.  `limit_obstruction` is the one place that rule lives: the
deformation graph and the ratios `vcslab verify --kappa ij=0` pins both
read it, and `--checks convergence` confirms it numerically.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache

from .convergence import class_verdict  # noqa: F401  (bench/spans.py patches taxonomy.class_verdict)
from .convergence import required_positive_ratios
from .frequencies import FrequencyConfig
from .norms import state, term_generator
from .registry import (
    CASE12,
    CASE13,
    FAMILY_QUADRUPLES,
    ONE_DOF_QUADRUPLES,
    THREE_DOF_PATTERNS,
    TOWER_SWAP,
    get,
    registry,
)
from .report import VerificationReport, make_report
from .special import log_gamma
from .structure import ClassSpec, LinForm, SpecError

# verify_factor compares the coefficients at summed indices 0 .. _N_PROBE - 1
_N_PROBE = 8


# -- factor relations --------------------------------------------------

# one multiplicative piece of a factor: base ** (scalar * exponent(n_fixed))
#   base: ("z", tower) | ("omega", tower) | ("factorial", tower)
#   exponent: "nf" -> n_fixed, "knf" -> kappa(summed, fixed) * n_fixed
@dataclass(frozen=True)
class FactorComponent:
    base: tuple[str, int]
    scalar: float
    exponent: str  # "nf" | "knf"


@dataclass(frozen=True)
class FactorRelation:
    sub_a: str  # base class
    sub_b: str  # class equal to factor * base
    components: tuple[FactorComponent, ...]

    def log_value(self, config: FrequencyConfig, fixed_tower: int, n_fixed: int,
                  summed_tower: int, z) -> complex:
        """Complex log of the factor at the given parameters."""
        out = 0.0 + 0.0j
        for comp in self.components:
            kind, tower = comp.base
            if kind == "factorial":
                # the base itself carries the index dependence: (n_f!)^scalar
                out += comp.scalar * log_gamma(n_fixed + 1.0)
                continue
            if comp.exponent == "knf":
                e = comp.scalar * config.ratio(summed_tower, fixed_tower) * n_fixed
            else:
                e = comp.scalar * n_fixed
            if kind == "z":
                v = complex(z[tower])
                out += e * complex(math.log(abs(v)), math.atan2(v.imag, v.real))
            else:
                out += e * math.log(config.omega(tower))
        return out


def _step_components(tower: int, db: int, dbp: int) -> tuple[FactorComponent, ...]:
    """The factor an exponent step (db, db') on a summed tower multiplies in:
    z_t^(db kappa n_f) omega_t^(-db'/2 kappa n_f), zero powers dropped."""
    pieces = ((("z", tower), float(db)), (("omega", tower), -dbp / 2))
    return tuple(FactorComponent(base, scalar, "knf") for base, scalar in pieces if scalar)


@cache
def declared_factor_relations() -> tuple[FactorRelation, ...]:
    """The cataloged sub-class factor statements, built once.

    Each one-variable sub-class B-D is its A times the factor of its
    exponent step from A, read from the registry's quadruple table.
    """
    out = []
    for s in (1, 2):
        for fam, quads in ONE_DOF_QUADRUPLES.items():
            base = f"2d.1dof.{fam}{s}"
            b, bp = quads["A"]
            for letter in "BCD":
                step = _step_components(s, quads[letter][0] - b, quads[letter][1] - bp)
                out.append(FactorRelation(f"{base}.A", f"{base}.{letter}", step))
    # the two-variable deformed class is the one-variable one times the
    # second-tower canonical factor z2^n2 [w2^n2 n2!]^(-1/2)
    out.append(
        FactorRelation(
            "2d.1dof.gamma1.A",
            "2d.2dof.gamma1-plain.A",
            (
                FactorComponent(("z", 2), 1.0, "nf"),
                FactorComponent(("omega", 2), -0.5, "nf"),
                FactorComponent(("factorial", 2), -0.5, "nf"),
            ),
        )
    )
    return tuple(out)


def _distance_from_one(log_v: complex) -> float:
    """|e^log_v - 1|; inf where e^log_v is past the float range."""
    try:
        return abs(cmath.exp(log_v) - 1.0)
    except OverflowError:
        return math.inf


@lru_cache(maxsize=64)
def verify_factor(
    relation: FactorRelation,
    config: FrequencyConfig,
    fixed_value: int = 2,
) -> VerificationReport:
    """Check b-coefficients = factor * a-coefficients, independent of the sum index.

    The variables sit at z_t = 0.9 + 0.2 t + 0.1i; the tolerance is 1e-10.
    Memoized, because a report checks each relation from both of its
    classes; callers only read the report.
    """
    spec_a = get(relation.sub_a)
    spec_b = get(relation.sub_b)
    s = spec_a.summed[0]
    f = spec_a.fixed[0]
    z = {t: 0.9 + 0.2 * t + 0.1j for t in set(spec_a.tower_ids) | set(spec_b.tower_ids)}
    log_factor = relation.log_value(config, f, fixed_value, s, z)
    gen_a = term_generator(spec_a, config, [z[t] for t in spec_a.tower_ids], (fixed_value,))
    gen_b = term_generator(spec_b, config, [z[t] for t in spec_b.tower_ids], (fixed_value,))
    ratios = []
    for n in range(_N_PROBE):
        log_a = 0.5 * gen_a.log_term((n,)) + 1j * gen_a.phase((n,))
        log_b = 0.5 * gen_b.log_term((n,)) + 1j * gen_b.phase((n,))
        ratios.append(log_b - log_a)
    # each ratio over the factor, formed in log space: the factor alone
    # may underflow or overflow
    logs = [r - log_factor for r in ratios]
    residuals = [(f"n={n}", _distance_from_one(v)) for n, v in enumerate(logs)]
    # the relative variance does not change when every ratio is scaled, so
    # the ratios are scaled by a power of e that brings the largest near 1
    top = max(v.real for v in logs)
    shift = round(top) if math.isfinite(top) else 0
    vals = [cmath.exp(v - shift) for v in logs]
    mean = sum(vals) / len(vals)
    mean_sq = abs(mean) ** 2
    spread = sum(abs(v - mean) ** 2 for v in vals) / len(vals)
    variance = spread / mean_sq if mean_sq > 0.0 else math.inf
    residuals.append(("ratio_variance", variance / 1e-10))  # scaled into the same tolerance
    return make_report(
        f"{relation.sub_b}~{relation.sub_a}",
        "factor",
        residuals,
        1e-10,
        metadata=(
            ("factor_components", [f"{c.base}^({c.scalar}*{c.exponent})" for c in relation.components]),
            ("fixed_value", fixed_value),
            ("ratio_variance", variance),
        ),
    )


# -- sub-class enumeration ---------------------------------------------


def enumerate_subclasses(class_family: str):
    """All exponent quadruples of a family, labeled by relevance.

    Returns (quadruple, relevance, detail) triples where relevance is
    "base", "relevant", or "factor"; factors name the registered
    sub-class they multiply and the factor itself.  Only the unit
    leading-exponent enumeration is cataloged.
    """
    if class_family in FAMILY_QUADRUPLES:
        quads = FAMILY_QUADRUPLES[class_family]
        base_b1 = quads["A"][:2]
        letter_of = {q[2:]: letter for letter, q in quads.items()}
        out = []
        for b1, b1p, b2, b2p in itertools.product((0, 1), repeat=4):
            quad = (b1, b1p, b2, b2p)
            letter = letter_of[(b2, b2p)]
            target = f"2d.2dof.{class_family}.{letter}"
            if (b1, b1p) == base_b1:
                out.append((quad, "base" if letter == "A" else "relevant", target))
            else:
                desc = _factor_text(_step_components(1, b1 - base_b1[0], b1p - base_b1[1]))
                out.append((quad, "factor", f"{target} * {desc}"))
        return out
    if class_family in ("plain", "gamma"):
        # one-variable sub-classes: the exponent variants multiply A by a
        # prefactor in the fixed index only, so B-D are all factors
        quads = ONE_DOF_QUADRUPLES[class_family]
        base = quads["A"]
        out = []
        for b, bp in itertools.product((0, 1), repeat=2):
            letter = {v: k for k, v in quads.items()}[(b, bp)]
            target = f"2d.1dof.{class_family}1.{letter}"
            if (b, bp) == base:
                out.append(((b, bp), "base", target))
            else:
                desc = _factor_text(_step_components(1, b - base[0], bp - base[1]))
                out.append(((b, bp), "factor", f"{target} = A * {desc}"))
        return out
    raise SpecError(f"unknown family {class_family!r}")


def _factor_text(components) -> str:
    """A step factor as text: "z1^(+1*k*nf) omega1^(-0.5*k*nf)"."""
    return " ".join(f"{c.base[0]}{c.base[1]}^({c.scalar:+g}*k*nf)" for c in components)


# -- deformation graph -------------------------------------------------


@dataclass(frozen=True)
class DeformationEdge:
    ancestor: str
    descendant: str | None
    parameter: tuple[int, int]
    status: str  # "defined" | "forbidden"
    reason: str = ""
    via_symmetry: bool = False


def limit_obstruction(spec: ClassSpec, pairs) -> str | None:
    """Why sending every ratio in `pairs` to 0 leaves `spec` unsolvable, or None.

    Either the class also uses a reciprocal ratio, which diverges, or a
    summed index loses its last dependence (no tower of its own and every
    ratio of its `required_positive_ratios` group zeroed), so the norm
    series acquires constant terms.
    """
    zeroed = sorted(pairs)
    used = spec.ratios_used()
    for i, j in zeroed:
        if (j, i) in used:
            return f"reciprocal ratio kappa{j}{i} diverges"
    free = [axis for axis in spec.summed if axis not in spec.tower_ids]
    for axis, group in zip(free, required_positive_ratios(spec)):
        if all(ratio in zeroed for ratio in group):
            return f"summed index n{axis} decouples: constant terms, not normalizable"
    return None


def _strip_shift_terms(form: LinForm) -> tuple:
    return tuple(sorted((t for t in form.terms if t[2] is None), key=repr))


def canonical_signature(spec: ClassSpec) -> tuple:
    """Structural identity of a class: towers, exponents, Gamma slopes.

    Shift terms are dropped and constant-argument Gamma factors identify
    with plain factorials, so a structurally reduced class matches its
    registered descendant.
    """
    sig = []
    for tw in sorted(spec.towers, key=lambda w: w.tower):
        gamma_moving = tuple(sorted((t for t in tw.gamma.terms if t[1] is not None), key=repr))
        sig.append(
            (
                tw.tower,
                _strip_shift_terms(tw.z_exp),
                _strip_shift_terms(tw.w_exp),
                gamma_moving,
            )
        )
    return (tuple(sig), spec.summed, spec.fixed)


@cache
def _swapped_images() -> dict[str, ClassSpec]:
    """Each 3D class's image under the tower swap, by id; built once, so
    the limits check reads the object the graph matched."""
    return {s.id: s.relabeled(TOWER_SWAP) for s in registry() if s.dimension == 3}


@lru_cache(maxsize=None)
def _descendant_lookup():
    """Canonical signature -> (registered id, found via the tower swap); built once."""
    table = {}
    for s in registry():
        table.setdefault(canonical_signature(s), (s.id, False))
    for sid, image in _swapped_images().items():
        table.setdefault(canonical_signature(image), (sid, True))
    return table


@lru_cache(maxsize=None)
def deformation_graph(dimension: int, dof: int) -> tuple[DeformationEdge, ...]:
    """Ancestor/descendant edges under single-ratio limits kappa -> 0.

    Memoized: the registry is fixed, so there are three graphs, and each
    is returned as a tuple of frozen edges that no caller can change.
    """
    if (dimension, dof) not in ((2, 1), (2, 2), (3, 2)):
        raise SpecError(f"unsupported (dimension, dof) = ({dimension}, {dof})")
    lookup = _descendant_lookup()
    edges = []
    for spec in registry():
        if spec.dimension != dimension or spec.dof != dof:
            continue
        for pair in sorted(spec.ratios_used()):
            reason = limit_obstruction(spec, (pair,))
            if reason:
                edges.append(DeformationEdge(spec.id, None, pair, "forbidden", reason=reason))
                continue
            limit = spec.drop_ratio(pair)
            found = lookup.get(canonical_signature(limit))
            if found is None:
                raise SpecError(f"{spec.id}: defined limit kappa{pair} leaves an unregistered class")
            desc_id, via_sym = found
            edges.append(DeformationEdge(spec.id, desc_id, pair, "defined", via_symmetry=via_sym))
    return tuple(edges)


# the ratio an edge's ancestor is evaluated at, the coefficient
# tolerance, and the last summed index compared
EDGE_KAPPA = 1e-6
EDGE_TOL = 1e-4
EDGE_WINDOW = 5


# classes run in id order, so the edges that share a descendant come close
# together: 32 entries keep every share of the default report
@lru_cache(maxsize=32)
def _descendant_state(desc: ClassSpec, config: FrequencyConfig, z, fixed, nmax):
    """A descendant's state, memoized: callers only read it, so every edge
    that reaches the same descendant at the same parameters shares one."""
    return state(desc, config, z, fixed, nmax)


def verify_edge_continuity(
    edge: DeformationEdge,
    config: FrequencyConfig,
    fixed,
) -> VerificationReport:
    """Coefficients of the ancestor at kappa = EDGE_KAPPA approach the descendant's.

    The descendant is read at config, z and n as the ancestor is.  An edge found
    through the tower swap reaches the swapped image of its descendant, as the
    graph matched it."""
    if edge.status != "defined":
        raise SpecError("continuity applies to defined edges")
    anc = get(edge.ancestor)
    desc = _swapped_images()[edge.descendant] if edge.via_symmetry else get(edge.descendant)
    fixed = tuple(int(v) for v in fixed)
    z = {t: 0.8 * math.sqrt(config.omega(t)) for t in anc.tower_ids}
    nmax = (EDGE_WINDOW,) * len(anc.summed)
    st_a = state(anc, config.pinned({edge.parameter: EDGE_KAPPA}), tuple(z.values()), fixed, nmax)
    st_d = _descendant_state(desc, config, tuple(z[t] for t in desc.tower_ids), fixed, nmax)
    residuals = [("c" + str(n), abs(c - st_d.coefficient(n))) for n, c in st_a.coeffs.items()]
    return make_report(
        f"{edge.ancestor}->{edge.descendant}",
        "limit-continuity",
        residuals,
        EDGE_TOL,
        metadata=(("parameter", list(edge.parameter)), ("kappa", EDGE_KAPPA)),
    )


def collapse_to_classes(edges: list[DeformationEdge]) -> list[DeformationEdge]:
    """Collapse 2D sub-class nodes onto their class representative (A).

    The 3D entries are already class-level.  Edges that become parallel
    under the collapse are merged.
    """

    def rep(cid: str | None) -> str | None:
        if cid is None:
            return None
        s = get(cid)
        if s.dimension == 2:
            return f"2d.{s.dof}dof.{s.family}.A"
        return cid

    seen: dict[tuple, DeformationEdge] = {}
    for e in edges:
        key = (rep(e.ancestor), rep(e.descendant), e.parameter, e.status)
        if key not in seen:
            seen[key] = replace(e, ancestor=key[0], descendant=key[1])
    return list(seen.values())


# -- class counting ----------------------------------------------------


def class_counts(dimension: int, dof: int, case: str | None = None) -> int:
    """The number of classes the registry's generation rules produce.

    Two variables: the (rho1, rho2) orbits under the tower swap (case 12)
    and the (rho1, rho3) pairs that carry n2 (case 13).  Three variables:
    the case-(12) orbits with each third-tower form, counted as distinct
    deformation patterns.
    """
    if dimension != 3 or dof not in (2, 3):
        raise SpecError(f"counting is defined for 3D with 2 or 3 variables, got ({dimension},{dof})")
    counts = {
        (2, "12"): len(CASE12),
        (2, "13"): len(CASE13),
        (2, None): len(CASE12) + len(CASE13),
        (3, None): len(THREE_DOF_PATTERNS),
    }
    if (dof, case) not in counts:
        raise SpecError(f"no case {case!r} for {dof} variables")
    return counts[dof, case]


# -- the Landau problem --------------------------------------------------


@dataclass(frozen=True)
class LandauOscillator:
    """Two-mode oscillator equivalent of a charged particle in a magnetic
    field with an added harmonic potential."""

    omega_plus: float
    omega_minus: float
    degenerate: bool

    @property
    def shifts(self) -> tuple[float, float]:
        return (0.5, 0.5)

    def config(self) -> FrequencyConfig:
        if self.degenerate:
            raise SpecError(
                "degenerate limit: the lower mode frequency vanishes and the "
                "spectrum becomes infinitely degenerate"
            )
        return FrequencyConfig((self.omega_plus, self.omega_minus), shifts=self.shifts)


def landau_map(cyclotron: float, potential: float) -> LandauOscillator:
    """Mode frequencies (+-cyclotron + sqrt(cyclotron^2 + potential^2))."""
    if cyclotron < 0.0 or potential < 0.0:
        raise ValueError("frequencies must be non-negative")
    if cyclotron == 0.0 and potential == 0.0:
        raise ValueError("cyclotron and potential frequencies cannot both vanish")
    root = math.hypot(cyclotron, potential)
    plus = cyclotron + root
    minus = -cyclotron + root
    return LandauOscillator(plus, minus, degenerate=(minus == 0.0))


# -- graph export -------------------------------------------------------


def graph_to_dot(edges: list[DeformationEdge]) -> str:
    lines = ["digraph deformation {"]
    nodes = sorted({e.ancestor for e in edges} | {e.descendant for e in edges if e.descendant})
    for n in nodes:
        lines.append(f'  "{n}";')
    for e in sorted(edges, key=lambda e: (e.ancestor, e.parameter)):
        attr = f'status={e.status}, label="k{e.parameter[0]}{e.parameter[1]}->0"'
        if e.status == "forbidden":
            target = f'"{e.ancestor}__k{e.parameter[0]}{e.parameter[1]}_forbidden"'
            lines.append(f"  {target} [shape=point, label=\"\"];")
            lines.append(f'  "{e.ancestor}" -> {target} [{attr}, style=dashed, color=red];')
        else:
            style = ", style=dotted" if e.via_symmetry else ""
            lines.append(f'  "{e.ancestor}" -> "{e.descendant}" [{attr}{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(edges: list[DeformationEdge]) -> list[dict]:
    return [
        {
            "ancestor": e.ancestor,
            "descendant": e.descendant,
            "parameter": f"kappa{e.parameter[0]}{e.parameter[1]}",
            "status": e.status,
            "reason": e.reason,
            "via_symmetry": e.via_symmetry,
        }
        for e in sorted(edges, key=lambda e: (e.ancestor, e.parameter))
    ]
