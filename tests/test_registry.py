import dataclasses
import itertools
import math
import subprocess
import sys

import pytest

from child_env import src_env
from vcslab.frequencies import FrequencyConfig
from vcslab.norms import term_generator
from vcslab.registry import TOWER_SWAP, get, ids, registry, select
from vcslab.special import log_gamma
from vcslab.structure import (
    AffineForm,
    ClassSpec,
    CompiledClass,
    CompiledTower,
    LinForm,
    SpecError,
    TowerTerm,
    lf,
    t_n,
    t_one,
    t_ratio_n,
)


THREE_D_CATALOG = [
    ("3d.2dof.plain-plain", "(1,1)", "12", ("plain", "plain")),
    ("3d.2dof.plain-gamma21", "(1,g21)", "12", ("plain", "gamma(1)")),
    ("3d.2dof.plain-gamma23", "(1,g23)", "12", ("plain", "gamma(3)")),
    ("3d.2dof.plain-gamma2", "(1,g2)", "12", ("plain", "gamma(1,3)")),
    ("3d.2dof.gamma12-gamma21", "(g12,g21)", "12", ("gamma(2)", "gamma(1)")),
    ("3d.2dof.gamma12-gamma23", "(g12,g23)", "12", ("gamma(2)", "gamma(3)")),
    ("3d.2dof.gamma12-gamma2", "(g12,g2)", "12", ("gamma(2)", "gamma(1,3)")),
    ("3d.2dof.gamma13-gamma23", "(g13,g23)", "12", ("gamma(3)", "gamma(3)")),
    ("3d.2dof.gamma13-gamma2", "(g13,g2)", "12", ("gamma(3)", "gamma(1,3)")),
    ("3d.2dof.gamma1-gamma2", "(g1,g2)", "12", ("gamma(2,3)", "gamma(1,3)")),
    ("3d.2dof.plain-gamma32", "(1,g32)", "13", ("plain", "gamma(2)")),
    ("3d.2dof.gamma13-gamma32", "(g13,g32)", "13", ("gamma(3)", "gamma(2)")),
    ("3d.2dof.plain-gamma3", "(1,g3)", "13", ("plain", "gamma(1,2)")),
    ("3d.2dof.gamma13-gamma3", "(g13,g3)", "13", ("gamma(3)", "gamma(1,2)")),
    ("3d.2dof.gamma12-plain3", "(g12,1)", "13", ("gamma(2)", "plain")),
    ("3d.2dof.gamma12-gamma31", "(g12,g31)", "13", ("gamma(2)", "gamma(1)")),
    ("3d.2dof.gamma12-gamma32", "(g12,g32)", "13", ("gamma(2)", "gamma(2)")),
    ("3d.2dof.gamma12-gamma3", "(g12,g3)", "13", ("gamma(2)", "gamma(1,2)")),
    ("3d.2dof.gamma1-plain3", "(g1,1)", "13", ("gamma(2,3)", "plain")),
    ("3d.2dof.gamma1-gamma31", "(g1,g31)", "13", ("gamma(2,3)", "gamma(1)")),
    ("3d.2dof.gamma1-gamma32", "(g1,g32)", "13", ("gamma(2,3)", "gamma(2)")),
    ("3d.2dof.gamma1-gamma3", "(g1,g3)", "13", ("gamma(2,3)", "gamma(1,2)")),
    ("3d.3dof.max", "(g1,g2,g3)", "", ("gamma(2,3)", "gamma(1,3)", "gamma(1,2)")),
    ("3d.3dof.min", "(1,1,1)", "", ("plain", "plain", "plain")),
]


def gamma_offset(spec, cfg, summed_vals, fixed_vals, pos):
    """gamma_t(n) of the tower at position pos: its Gamma argument minus n_t."""
    ct = spec.compile(cfg, fixed_vals).towers[pos]
    return ct.gamma_arg.at(summed_vals) - spec.quantum_numbers(summed_vals, fixed_vals)[ct.tower]


class TestFrequencyConfig:
    def test_kappa_equal_frequencies(self):
        cfg = FrequencyConfig((1.0, 1.0))
        assert cfg.ratio(1, 2) == 1.0

    def test_kappa_direct_division(self):
        cfg = FrequencyConfig((2.0, 1.0))
        assert cfg.ratio(1, 2) == pytest.approx(0.5)
        assert cfg.ratio(2, 1) == pytest.approx(2.0)

    @pytest.mark.parametrize("omegas", [(0.37, 5.1), (1e-3, 7.0, 2.2), (3.0, 3.0, 1.0)])
    def test_reciprocal_identity(self, omegas):
        cfg = FrequencyConfig(omegas)
        for i in range(1, len(omegas) + 1):
            for j in range(1, len(omegas) + 1):
                if i != j:
                    prod = cfg.ratio(i, j) * cfg.ratio(j, i)
                    assert abs(prod - 1.0) <= 2 ** -52 * 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            FrequencyConfig((1.0,))
        with pytest.raises(ValueError):
            FrequencyConfig((1.0, -2.0))
        with pytest.raises(ValueError):
            FrequencyConfig((1.0, 2.0), shifts=(-0.5, 0.0))
        with pytest.raises(IndexError):
            FrequencyConfig((1.0, 2.0)).omega(3)

    def test_override_and_reciprocal(self):
        cfg = FrequencyConfig((1.0, 2.0))
        assert cfg.pinned({(1, 2): 0.25}).ratio(1, 2) == 0.25
        assert cfg.pinned({(1, 2): 0.25}).ratio(2, 1) == 4.0
        with pytest.raises(ZeroDivisionError):
            cfg.pinned({(1, 2): 0.0}).ratio(2, 1)

    def test_pins_are_part_of_the_point(self):
        cfg = FrequencyConfig((1.0, 2.0, 3.0))
        assert cfg.pinned({}) is cfg
        a = cfg.pinned({(3, 2): 0.5, (1, 2): 0.25})
        b = FrequencyConfig((1.0, 2.0, 3.0), pins=[((1, 2), 0.25), ((3, 2), 0.5)])
        assert a == b and hash(a) == hash(b) and a != cfg
        assert a.pins == (((1, 2), 0.25), ((3, 2), 0.5))
        assert a.pinned({(1, 2): 0.75}).ratio(1, 2) == 0.75
        # a pin leaves the frequencies, and the ratios it does not name, as they were
        assert (a.omegas, a.ratio(1, 3)) == (cfg.omegas, 3.0)
        assert a.ratio(2, 1, exact=True) == 4 and a.ratio(1, 3, exact=True) == 3

    @pytest.mark.parametrize("pins", [{(1, 2): 0.3, (2, 1): 0.5}, {(3, 1): 2.0, (1, 3): 0.0}])
    def test_a_ratio_pinned_with_its_reciprocal_is_rejected(self, pins):
        with pytest.raises(ValueError, match="reciprocal"):
            FrequencyConfig((1.0, 2.0, 3.0), pins=pins)
        first, second = pins.items()
        with pytest.raises(ValueError, match="reciprocal"):
            FrequencyConfig((1.0, 2.0, 3.0)).pinned(dict([first])).pinned(dict([second]))


class TestRegistry:
    def test_ids_unique_and_roundtrip(self):
        all_ids = ids()
        assert len(all_ids) == len(set(all_ids))
        for cid in all_ids:
            assert get(cid).id == cid
        assert get(all_ids[0]) is get(all_ids[0])

    def test_expected_cardinalities(self):
        assert len(select(dimension=2, dof=1)) == 16
        assert len(select(dimension=2, dof=2)) == 16
        assert len(select(dimension=3, dof=2)) == 22
        assert len(select(dimension=3, case="12")) == 10
        assert len(select(dimension=3, case="13")) == 12
        assert len(select(dimension=3, dof=3)) == 2
        assert len(registry()) == 56

    def test_each_2d_family_has_four_subclasses(self):
        for fam in ("plain-plain", "gamma1-plain", "plain-gamma2", "gamma1-gamma2"):
            letters = sorted(
                s.subclass for s in registry() if s.family == fam and s.dimension == 2
            )
            assert letters == ["A", "B", "C", "D"]

    def test_min_class_is_fully_plain(self):
        spec = get("3d.3dof.min")
        assert [tw.form for tw in spec.towers] == ["plain", "plain", "plain"]
        assert spec.label == "(1,1,1)"

    def test_max_class_is_fully_deformed(self):
        spec = get("3d.3dof.max")
        assert [tw.form for tw in spec.towers] == ["gamma(2,3)", "gamma(1,3)", "gamma(1,2)"]

    def test_3d_classes_in_catalog_order(self):
        # the printed catalog: (id, label, case, tower forms), one row per 3D class
        assert [
            (s.id, s.label, s.case, tuple(tw.form for tw in s.towers)) for s in select(dimension=3)
        ] == THREE_D_CATALOG
        for s in select(dimension=3):
            assert s.tower_ids == {"12": (1, 2), "13": (1, 3), "": (1, 2, 3)}[s.case]

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get("4d.1dof.plain1.A")

    def test_gamma_arguments_at_least_one(self):
        cfg = FrequencyConfig((1.0, 2.0, 3.0), shifts=(0.5, 0.0, 1.25))
        cfg2 = FrequencyConfig((2.0, 0.7))
        for spec in registry():
            cfg_use = cfg if spec.dimension == 3 else cfg2
            for summed_vals in ([0] * len(spec.summed), [3] * len(spec.summed)):
                for fixed_vals in ([0] * len(spec.fixed), [5] * len(spec.fixed)):
                    for pos in range(spec.dof):
                        assert gamma_offset(spec, cfg_use, summed_vals, fixed_vals, pos) >= 1.0

    def test_summed_fixed_disjoint_and_cover(self):
        for spec in registry():
            assert not set(spec.summed) & set(spec.fixed)
            referenced = set()
            for tw in spec.towers:
                referenced.add(tw.tower)
                for form in (tw.z_exp, tw.w_exp, tw.gamma):
                    referenced |= {t[1] for t in form.terms if t[1] is not None}
            assert referenced <= set(spec.summed) | set(spec.fixed)

    def test_normalized_gamma_offset_must_not_move_with_a_summed_index(self):
        # Gamma(gamma_t) is compiled once at the summed origin, which is only
        # right while the normalized tower's offset ignores the summed indices
        def spec_with(gamma):
            tower = TowerTerm(1, lf(t_n(1)), lf(t_n(1)), gamma, normalized=True)
            return ClassSpec("hand.built", "hand", 2, (1,), (2,), (tower,))

        with pytest.raises(SpecError, match="moves with a summed index"):
            spec_with(lf(t_one(), t_ratio_n(1, 2, 1)))
        # an offset driven by the fixed index is fine: log|a(n)|^2 is
        # n log(|z|^2/w1) - log Gamma(g + n) + log Gamma(g), g = 1 + k12 n2
        cfg = FrequencyConfig((1.0, 2.0))
        gen = term_generator(spec_with(lf(t_one(), t_ratio_n(1, 2, 2))), cfg, (1.3,), (2,))
        g = 1.0 + cfg.ratio(1, 2) * 2
        for n in range(4):
            expect = n * math.log(1.3**2) - log_gamma(g + n) + log_gamma(g)
            assert gen.log_term((n,)) == pytest.approx(expect, abs=1e-12)

    def test_quantum_number_validation(self):
        spec = get("2d.1dof.plain1.A")
        with pytest.raises(SpecError):
            spec.quantum_numbers((1, 2), (0,))
        with pytest.raises(SpecError):
            spec.quantum_numbers((-1,), (0,))


class TestCoefficientStructure:
    def test_canonical_coefficients(self):
        # |a(n)|^2 for the plain one-variable class is (|z|^2/w)^n / n!
        spec = get("2d.1dof.plain1.A")
        cfg = FrequencyConfig((2.0, 1.0))
        z = 1.3
        gen = term_generator(spec, cfg, (z,), (4,))
        for n in range(6):
            got = gen.log_term((n,))
            expect = n * math.log(z * z / 2.0) - math.lgamma(n + 1)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_gamma_deformed_term_ratio(self):
        # successive-term ratio for the smart gamma class: (|z|^2/w1)/(gamma+n)
        spec = get("2d.1dof.gamma1.A")
        cfg = FrequencyConfig((1.5, 2.5))
        z, n2 = 0.9, 3
        g = 1.0 + cfg.ratio(1, 2) * n2
        gen = term_generator(spec, cfg, (z,), (n2,))
        for n in range(5):
            r = gen.log_term((n + 1,)) - gen.log_term((n,))
            assert math.exp(r) == pytest.approx((z * z / 1.5) / (g + n), rel=1e-12)

    def test_two_dof_factor_structure(self):
        # (g1,1)A coefficients = z2-part * one-variable (g1)A coefficients
        two = get("2d.2dof.gamma1-plain.A")
        one = get("2d.1dof.gamma1.A")
        cfg = FrequencyConfig((1.0, 2.0))
        z1, z2, n2 = 1.1, 0.7, 2
        gen_two = term_generator(two, cfg, (z1, z2), (n2,))
        gen_one = term_generator(one, cfg, (z1,), (n2,))
        for n1 in range(5):
            log_two = gen_two.log_term((n1,))
            log_one = gen_one.log_term((n1,))
            extra = n2 * math.log(z2 * z2 / 2.0) - math.lgamma(n2 + 1)
            assert log_two == pytest.approx(log_one + extra, abs=1e-12)

    def test_z_zero_conventions(self):
        spec = get("2d.1dof.plain1.A")
        cfg = FrequencyConfig((1.0, 1.0))
        gen = term_generator(spec, cfg, (0.0,), (0,))
        assert gen.log_term((0,)) == 0.0
        assert gen.log_term((2,)) == float("-inf")

    def test_shifted_gamma_value(self):
        # gamma1 = 3/2 + k12*(n2 + 1/2) at alpha = (1/2, 1/2)
        spec = get("2d.1dof.gamma1.A")
        cfg = FrequencyConfig((1.0, 2.0), shifts=(0.5, 0.5))
        assert gamma_offset(spec, cfg, (0,), (3,), 0) == pytest.approx(1.5 + 2.0 * 3.5)

    def test_structural_limit_drops_ratio(self):
        spec = get("2d.2dof.gamma1-plain.A")
        limit = spec.drop_ratio((1, 2))
        cfg = FrequencyConfig((1.0, 2.0))
        assert gamma_offset(limit, cfg, (4,), (7,), 0) == 1.0
        base = get("2d.2dof.plain-plain.A")
        assert term_generator(limit, cfg, (1.2, 0.5), (7,)).log_term((4,)) == pytest.approx(
            term_generator(base, cfg, (1.2, 0.5), (7,)).log_term((4,)), abs=1e-12
        )

    def test_fixed_indices_compile_as_ints(self):
        spec = get("2d.2dof.gamma1-plain.A")
        cfg = FrequencyConfig((1.0, 2.0))
        assert spec.compile(cfg, [3]) == spec.compile(cfg, (3.0,)) == spec.compile(cfg, (3,))

    def test_transforms_keep_the_fields_they_do_not_change(self):
        # a transform that spelled out every field once could reset a
        # field it forgot to copy
        kept = ("label", "dimension", "family", "subclass", "quadruple", "case")
        for spec in registry():
            normalized = {tw.tower: tw.normalized for tw in spec.towers}
            images = [(spec.drop_ratio(pair), {}) for pair in sorted(spec.ratios_used())]
            images.append((spec.relabeled(TOWER_SWAP), TOWER_SWAP))
            for image, perm in images:
                assert [getattr(image, f) for f in kept] == [getattr(spec, f) for f in kept], image.id
                assert {perm.get(t, t): n for t, n in normalized.items()} == {
                    tw.tower: tw.normalized for tw in image.towers
                }, image.id

    def test_relabel_swaps_towers(self):
        spec = get("2d.1dof.gamma1.A")
        dual = get("2d.1dof.gamma2.A")
        swapped = spec.relabeled({1: 2, 2: 1})
        cfg = FrequencyConfig((1.0, 3.0))
        assert term_generator(swapped, cfg, (0.8,), (1,)).log_term((2,)) == pytest.approx(
            term_generator(dual, cfg, (0.8,), (1,)).log_term((2,)), abs=1e-12
        )



def reference_compile(spec, config, fixed) -> CompiledClass:
    """`ClassSpec.compile` as it was before the compile plan: every form
    split by axis and every gap cancelled on each call."""
    if config.dimension < spec.dimension:
        raise SpecError(f"{spec.id}: needs {spec.dimension} frequencies")
    nv0 = spec.quantum_numbers((0,) * len(spec.summed), tuple(int(v) for v in fixed))

    def reduce(form):
        const = form.value(nv0, config)
        own = {a: LinForm(tuple(t for t in form.terms if t[1] == a)) for a in spec.summed}
        return AffineForm(const, tuple(f.value({a: 1}, config) for a, f in own.items()))

    def value(terms):
        return LinForm(tuple(terms)).value(nv0, config) if terms else 0.0

    def gap(plus, minus):
        kept, rest = [], list(minus)
        for t in plus:
            if t in rest:
                rest.remove(t)
            else:
                kept.append(t)
        return value(kept) - value(rest)

    towers = []
    for tw in spec.towers:
        gamma = reduce(tw.gamma)
        arg_terms = (*tw.gamma.terms, t_n(tw.tower))
        steps = tuple(s + (1.0 if a == tw.tower else 0.0) for s, a in zip(gamma.slopes, spec.summed))
        towers.append(
            CompiledTower(
                tower=tw.tower,
                log_w=math.log(config.omega(tw.tower)),
                z_exp=reduce(tw.z_exp),
                w_exp=reduce(tw.w_exp),
                gamma_arg=AffineForm(gamma.const + nv0[tw.tower], steps),
                log_gamma_norm=log_gamma(gamma.const) if tw.normalized else 0.0,
                z_gap=gap(arg_terms, (t_one(), *tw.z_exp.terms)),
                w_gap=gap(tw.w_exp.terms, arg_terms),
            )
        )
    return CompiledClass(spec.id, spec.summed, tuple(towers))


def compile_outcome(compile_, *args):
    """A compiled class as nested tuples with every float as its bits, or
    the type and message of what compiling raised."""
    def bits(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, tuple):
            return tuple(map(bits, v))
        return v

    try:
        return bits(dataclasses.astuple(compile_(*args)))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


PLAN_CONFIGS = [
    FrequencyConfig((1.0, 2.0, 3.0)),
    FrequencyConfig((1.37, 2.91, 0.73)),
    FrequencyConfig((1.0, 1e-6, 1e6)),
    FrequencyConfig((7.3, 1e-300, 1.0), (0.5, 0.25, 1.0)),
    FrequencyConfig((1.0, 2.0, 3.0), (1.5, 0.0, 2.75)),
]
PLAN_OVERRIDES = [None, {(1, 2): 0.3}, {(2, 1): 1e-6}, {(3, 2): 1e-12}, {(1, 2): 0.0}]


class TestCompilePlan:
    def test_compile_matches_the_per_call_derivation_bit_for_bit(self):
        points = 0
        for spec in registry():
            fixed_sets = sorted({(v,) * len(spec.fixed) for v in (0, 1, 5)})
            for cfg, overrides, fixed in itertools.product(PLAN_CONFIGS, PLAN_OVERRIDES, fixed_sets):
                cfg = cfg.pinned(overrides or {})
                want = compile_outcome(reference_compile, spec, cfg, fixed)
                assert compile_outcome(spec.compile, cfg, fixed) == want, (spec.id, cfg, fixed)
                points += 1
        assert points == 4200

    def test_the_plan_is_built_once_per_spec(self):
        spec = dataclasses.replace(get("3d.3dof.max"))
        assert "compile_plan" not in vars(spec)
        first = spec.compile(PLAN_CONFIGS[0], (1,))
        plan = vars(spec)["compile_plan"]
        second = spec.compile(PLAN_CONFIGS[0], (1,))
        assert spec.compile_plan is plan and second == first

    def test_registry_builds_no_plan(self):
        code = (
            "from vcslab.registry import registry\n"
            "print(sum('compile_plan' in vars(s) for s in registry()), len(registry()))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env())
        assert proc.stdout == "0 56\n", proc.stderr
