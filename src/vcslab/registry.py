"""The canonical catalog of solvable coherent-state classes: the one
module that knows which classes exist.

2D entries: the four one-variable sub-class families (plain and
gamma-deformed, each with its tower-swapped dual) and the four
two-variable families, sub-classes A-D each.  Sub-classes are generated
from their defining exponent quadruples, not from the printed per-class
tables, so each entry is exactly the state whose moment problem the
density read off its compiled forms solves.

3D entries are generated from one rule.  A tower form is the tuple of
the other towers its Gamma reads: () for a plain tower, (j,) or (j, k);
a class's id and label are derived from its forms.  Case (12) takes the
orbits of the 16 (rho1, rho2) form pairs under the tower swap 1<->2,
each represented by its first pair in product order (10 classes); case
(13) takes the (rho1, rho3) pairs in which n2 enters a factor (12).  The
three-variable patterns are the case-(12) orbits with each of the four
forms of tower 3 (40); the fully deformed and the fully plain pattern
are registered.  taxonomy.class_counts reads the lengths of these lists.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .structure import (
    ClassSpec,
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
    reads = [term for j in deps for term in (t_ratio_n(t, j, j), t_ratio_shift(t, j, j))]
    matched = lf(t_n(t), t_shift(t), *reads)
    z = matched if z_extra is None else lf(t_n(t), *z_extra)
    w = matched if w_extra is None else lf(t_n(t), *w_extra)
    return TowerTerm(tower=t, z_exp=z, w_exp=w, gamma=lf(t_one(), t_shift(t), *reads), normalized=False)


def _variant_tower(s: int, f: int, deformed: bool, b: int, bp: int) -> TowerTerm:
    """Tower s of a 2D sub-class, its z and omega exponents n_s plus
    kappa_sf n_f where b, resp. b', is 1; (b, b') = (1, 1) on a Gamma
    tower is the matched form."""
    if deformed and (b, bp) == (1, 1):
        return gamma_tower(s, (f,))
    z_extra = (t_ratio_n(s, f, f),) if b else ()
    w_extra = (t_ratio_n(s, f, f),) if bp else ()
    if deformed:
        return gamma_tower(s, (f,), z_extra, w_extra)
    return plain_tower(s, z_extra, w_extra)


def _one_dof_specs() -> list[ClassSpec]:
    specs = []
    for s, f in ((1, 2), (2, 1)):
        for fam in ("plain", "gamma"):
            for letter, (b, bp) in ONE_DOF_QUADRUPLES[fam].items():
                name = "1" if fam == "plain" else f"g{s}"
                specs.append(
                    ClassSpec(
                        id=f"2d.1dof.{fam}{s}.{letter}",
                        label=f"({name}){letter}",
                        dimension=2,
                        summed=(s,),
                        fixed=(f,),
                        towers=(_variant_tower(s, f, fam == "gamma", b, bp),),
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
        for letter, (b1, b1p, b2, b2p) in quads.items():
            specs.append(
                ClassSpec(
                    id=f"2d.2dof.{fam}.{letter}",
                    label=f"{labels[fam]}{letter}",
                    dimension=2,
                    summed=(1,),
                    fixed=(2,),
                    towers=(
                        _variant_tower(1, 2, fam.startswith("gamma1"), b1, b1p),
                        _variant_tower(2, 1, fam.endswith("gamma2"), b2, b2p),
                    ),
                    family=fam,
                    subclass=letter,
                    quadruple=(b1, b1p, b2, b2p),
                )
            )
    return specs


# -- 3D: a tower form is the tuple of other towers its Gamma reads ------

Form = tuple[int, ...]

TOWER_SWAP = {1: 2, 2: 1}


def _forms(t: int) -> list[Form]:
    """Plain, Gamma reading one other tower, then Gamma reading both."""
    j, k = (o for o in (1, 2, 3) if o != t)
    return [(), (j,), (k,), (j, k)]


def _swapped(form: Form) -> Form:
    return tuple(sorted(TOWER_SWAP.get(j, j) for j in form))


def _token(t: int, form: Form) -> str:
    if not form:
        return "plain"
    return f"gamma{t}{form[0]}" if len(form) == 1 else f"gamma{t}"


def _label(t: int, form: Form) -> str:
    return _token(t, form).replace("gamma", "g") if form else "1"


def _case12() -> list[tuple[Form, Form]]:
    """(rho1, rho2) up to the tower swap 1<->2: each orbit's first pair."""
    out: list[tuple[Form, Form]] = []
    for f1, f2 in itertools.product(_forms(1), _forms(2)):
        if (_swapped(f2), _swapped(f1)) not in out:
            out.append((f1, f2))
    return out


def _case13() -> list[tuple[Form, Form]]:
    """(rho1, rho3) in which n2 enters a factor (n1 is always in rho1):
    first the pairs where only rho3 carries n2, rho3 outermost."""
    only3 = [(f1, f3) for f3 in _forms(3) if 2 in f3 for f1 in _forms(1) if 2 not in f1]
    return only3 + [(f1, f3) for f1 in _forms(1) if 2 in f1 for f3 in _forms(3)]


CASE12 = tuple(_case12())
CASE13 = tuple(_case13())
# the case-(12) orbits with each form of tower 3
THREE_DOF_PATTERNS = tuple((f1, f2, f3) for f1, f2 in CASE12 for f3 in _forms(3))


def _3d_spec(
    family: str, towers: tuple[int, ...], forms: tuple[Form, ...], case: str = ""
) -> ClassSpec:
    return ClassSpec(
        id=f"3d.{len(towers)}dof.{family}",
        label="(" + ",".join(_label(t, f) for t, f in zip(towers, forms)) + ")",
        dimension=3,
        summed=(1, 2),
        fixed=(3,),
        towers=tuple(gamma_tower(t, f) if f else plain_tower(t) for t, f in zip(towers, forms)),
        family=family,
        case=case,
    )


def _3d_specs() -> list[ClassSpec]:
    specs = [_3d_spec(f"{_token(1, f1)}-{_token(2, f2)}", (1, 2), (f1, f2), "12") for f1, f2 in CASE12]
    specs += [
        _3d_spec(f"{_token(1, f1)}-{_token(3, f3) if f3 else 'plain3'}", (1, 3), (f1, f3), "13")
        for f1, f3 in CASE13
    ]
    # the fully deformed and the fully plain three-variable patterns
    return specs + [
        _3d_spec("max", (1, 2, 3), THREE_DOF_PATTERNS[-1]),
        _3d_spec("min", (1, 2, 3), THREE_DOF_PATTERNS[0]),
    ]


@lru_cache(maxsize=1)
def _by_id() -> dict[str, ClassSpec]:
    """Every registered class by id, in catalog order."""
    by_id: dict[str, ClassSpec] = {}
    for s in _one_dof_specs() + _two_dof_specs() + _3d_specs():
        if by_id.setdefault(s.id, s) is not s:
            raise RuntimeError(f"duplicate registry id {s.id}")
    return by_id


@lru_cache(maxsize=1)
def registry() -> tuple[ClassSpec, ...]:
    """All registered classes, id-unique, in stable catalog order."""
    return tuple(_by_id().values())


def get(class_id: str) -> ClassSpec:
    try:
        return _by_id()[class_id]
    except KeyError:
        raise KeyError(f"unknown class id: {class_id}") from None


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
