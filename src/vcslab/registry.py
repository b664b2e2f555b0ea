"""The canonical catalog of solvable coherent-state classes.

2D entries: the four one-variable sub-class families (plain and
gamma-deformed, each with its tower-swapped dual) and the four
two-variable families, sub-classes A-D each.  3D entries: the ten
case-(12) and twelve case-(13) two-variable classes, plus the fully
deformed and fully plain three-variable endpoints.  Sub-classes are
generated from their defining exponent quadruples, not from the printed
per-class tables, so each entry is exactly the state whose moment
problem the density read off its compiled forms solves.
"""

from __future__ import annotations

from functools import lru_cache

from .structure import (
    ClassSpec,
    LinForm,
    TowerTerm,
    lf,
    t_n,
    t_one,
    t_ratio_n,
    t_ratio_shift,
    t_shift,
)

Quadruple = tuple[int, int, int, int]

# sub-class letter -> (b1, b1', b2, b2') for each two-variable 2D family
FAMILY_QUADRUPLES: dict[str, dict[str, Quadruple]] = {
    "plain-plain": {"A": (0, 0, 0, 0), "B": (0, 0, 0, 1), "C": (0, 0, 1, 0), "D": (0, 0, 1, 1)},
    "gamma1-plain": {"A": (1, 1, 0, 0), "B": (1, 1, 0, 1), "C": (1, 1, 1, 0), "D": (1, 1, 1, 1)},
    "plain-gamma2": {"A": (0, 0, 1, 1), "B": (0, 0, 0, 1), "C": (0, 0, 1, 0), "D": (0, 0, 0, 0)},
    "gamma1-gamma2": {"A": (1, 1, 1, 1), "B": (1, 1, 0, 1), "C": (1, 1, 1, 0), "D": (1, 1, 0, 0)},
}

# (b, b') for the one-variable families
ONE_DOF_QUADRUPLES: dict[str, dict[str, tuple[int, int]]] = {
    "plain": {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)},
    "gamma": {"A": (1, 1), "B": (0, 1), "C": (1, 0), "D": (0, 0)},
}


def plain_tower(t: int, z_extra: tuple = (), w_extra: tuple = ()) -> TowerTerm:
    """omega^n n! tower; (1+alpha)_n under a spectrum shift."""
    return TowerTerm(
        tower=t,
        z_exp=lf(t_n(t), *z_extra),
        w_exp=lf(t_n(t), *w_extra),
        gamma=lf(t_one(), t_shift(t)),
        normalized=True,
    )


def gamma_tower(
    t: int,
    deps: tuple[int, ...],
    z_extra: tuple | None = None,
    w_extra: tuple | None = None,
) -> TowerTerm:
    """Gamma-deformed tower.

    With z_extra/w_extra omitted, exponents take the matched form
    n_t + (gamma_t - 1), which is what makes the moment problem collapse
    to a plain exponential density; explicit extras build the exponent
    variants of the sub-class tables instead (those variants are pinned
    at zero shift).
    """
    gterms = [t_one(), t_shift(t)]
    smart = [t_shift(t)]
    for j in deps:
        gterms += [t_ratio_n(t, j, j), t_ratio_shift(t, j, j)]
        smart += [t_ratio_n(t, j, j), t_ratio_shift(t, j, j)]
    if z_extra is None:
        z = lf(t_n(t), *smart)
    else:
        z = lf(t_n(t), *z_extra)
    if w_extra is None:
        w = lf(t_n(t), *smart)
    else:
        w = lf(t_n(t), *w_extra)
    return TowerTerm(tower=t, z_exp=z, w_exp=w, gamma=LinForm(tuple(gterms)), normalized=False)


def _one_dof_specs() -> list[ClassSpec]:
    specs = []
    for s, f in ((1, 2), (2, 1)):
        for fam in ("plain", "gamma"):
            for letter, (b, bp) in ONE_DOF_QUADRUPLES[fam].items():
                if fam == "gamma" and (b, bp) == (1, 1):
                    tower = gamma_tower(s, (f,))
                else:
                    z_extra = (t_ratio_n(s, f, f),) if b else ()
                    w_extra = (t_ratio_n(s, f, f),) if bp else ()
                    if fam == "plain":
                        tower = plain_tower(s, z_extra, w_extra)
                    else:
                        tower = gamma_tower(s, (f,), z_extra, w_extra)
                name = "1" if fam == "plain" else f"g{s}"
                specs.append(
                    ClassSpec(
                        id=f"2d.1dof.{fam}{s}.{letter}",
                        label=f"({name}){letter}",
                        dimension=2,
                        summed=(s,),
                        fixed=(f,),
                        towers=(tower,),
                        family=f"{fam}{s}",
                        subclass=letter,
                        quadruple=(b, bp, 0, 0),
                    )
                )
    return specs


def _two_dof_specs() -> list[ClassSpec]:
    specs = []
    labels = {
        "plain-plain": "(1,1)",
        "gamma1-plain": "(g1,1)",
        "plain-gamma2": "(1,g2)",
        "gamma1-gamma2": "(g1,g2)",
    }
    for fam, quads in FAMILY_QUADRUPLES.items():
        r1_gamma = fam.startswith("gamma1")
        r2_gamma = fam.endswith("gamma2")
        for letter, (b1, b1p, b2, b2p) in quads.items():
            z1_extra = (t_ratio_n(1, 2, 2),) if b1 else ()
            w1_extra = (t_ratio_n(1, 2, 2),) if b1p else ()
            z2_extra = (t_ratio_n(2, 1, 1),) if b2 else ()
            w2_extra = (t_ratio_n(2, 1, 1),) if b2p else ()
            if r1_gamma:
                t1 = gamma_tower(1, (2,)) if (b1, b1p) == (1, 1) else gamma_tower(1, (2,), z1_extra, w1_extra)
            else:
                t1 = plain_tower(1, z1_extra, w1_extra)
            if r2_gamma:
                t2 = gamma_tower(2, (1,)) if (b2, b2p) == (1, 1) else gamma_tower(2, (1,), z2_extra, w2_extra)
            else:
                t2 = plain_tower(2, z2_extra, w2_extra)
            specs.append(
                ClassSpec(
                    id=f"2d.2dof.{fam}.{letter}",
                    label=f"{labels[fam]}{letter}",
                    dimension=2,
                    summed=(1,),
                    fixed=(2,),
                    towers=(t1, t2),
                    family=fam,
                    subclass=letter,
                    quadruple=(b1, b1p, b2, b2p),
                )
            )
    return specs


# 3D factor tokens -> (builder tower index, gamma dependencies or None for plain)
_3D_FORMS = {
    "plain": None,
    "gamma12": (2,),
    "gamma13": (3,),
    "gamma1": (2, 3),
    "gamma21": (1,),
    "gamma23": (3,),
    "gamma2": (1, 3),
    "gamma31": (1,),
    "gamma32": (2,),
    "gamma3": (1, 2),
}

_CASE12 = [
    ("plain", "plain"),
    ("plain", "gamma21"),
    ("plain", "gamma23"),
    ("plain", "gamma2"),
    ("gamma12", "gamma21"),
    ("gamma12", "gamma23"),
    ("gamma12", "gamma2"),
    ("gamma13", "gamma23"),
    ("gamma13", "gamma2"),
    ("gamma1", "gamma2"),
]

_CASE13 = [
    ("plain", "gamma32"),
    ("gamma13", "gamma32"),
    ("plain", "gamma3"),
    ("gamma13", "gamma3"),
    ("gamma12", "plain"),
    ("gamma12", "gamma31"),
    ("gamma12", "gamma32"),
    ("gamma12", "gamma3"),
    ("gamma1", "plain"),
    ("gamma1", "gamma31"),
    ("gamma1", "gamma32"),
    ("gamma1", "gamma3"),
]


def _3d_tower(tower: int, token: str) -> TowerTerm:
    deps = _3D_FORMS[token]
    if deps is None:
        return plain_tower(tower)
    return gamma_tower(tower, deps)


def _token_label(token: str) -> str:
    return "1" if token == "plain" else token.replace("gamma", "g")


def _two_dof_3d_specs() -> list[ClassSpec]:
    specs = []
    for tok1, tok2 in _CASE12:
        name = f"{tok1}-{tok2}"
        specs.append(
            ClassSpec(
                id=f"3d.2dof.{name}",
                label=f"({_token_label(tok1)},{_token_label(tok2)})",
                dimension=3,
                summed=(1, 2),
                fixed=(3,),
                towers=(_3d_tower(1, tok1), _3d_tower(2, tok2)),
                family=name,
                case="12",
            )
        )
    for tok1, tok3 in _CASE13:
        name = f"{tok1}-{tok3 if tok3 != 'plain' else 'plain3'}"
        specs.append(
            ClassSpec(
                id=f"3d.2dof.{name}",
                label=f"({_token_label(tok1)},{_token_label(tok3)})",
                dimension=3,
                summed=(1, 2),
                fixed=(3,),
                towers=(_3d_tower(1, tok1), _3d_tower(3, tok3)),
                family=name,
                case="13",
            )
        )
    return specs


def _three_dof_specs() -> list[ClassSpec]:
    maxspec = ClassSpec(
        id="3d.3dof.max",
        label="(g1,g2,g3)",
        dimension=3,
        summed=(1, 2),
        fixed=(3,),
        towers=(gamma_tower(1, (2, 3)), gamma_tower(2, (1, 3)), gamma_tower(3, (1, 2))),
        family="max",
    )
    minspec = ClassSpec(
        id="3d.3dof.min",
        label="(1,1,1)",
        dimension=3,
        summed=(1, 2),
        fixed=(3,),
        towers=(plain_tower(1), plain_tower(2), plain_tower(3)),
        family="min",
    )
    return [maxspec, minspec]


@lru_cache(maxsize=1)
def registry() -> tuple[ClassSpec, ...]:
    """All registered classes, id-unique, in stable catalog order."""
    specs = _one_dof_specs() + _two_dof_specs() + _two_dof_3d_specs() + _three_dof_specs()
    seen = set()
    for s in specs:
        if s.id in seen:
            raise RuntimeError(f"duplicate registry id {s.id}")
        seen.add(s.id)
    return tuple(specs)


@lru_cache(maxsize=None)
def get(class_id: str) -> ClassSpec:
    for s in registry():
        if s.id == class_id:
            return s
    raise KeyError(f"unknown class id: {class_id}")


def ids() -> list[str]:
    return [s.id for s in registry()]


def select(dimension: int | None = None, dof: int | None = None, case: str | None = None):
    out = []
    for s in registry():
        if dimension is not None and s.dimension != dimension:
            continue
        if dof is not None and s.dof != dof:
            continue
        if case is not None and s.case != case:
            continue
        out.append(s)
    return out
