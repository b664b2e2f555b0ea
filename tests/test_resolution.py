import itertools
import math
from fractions import Fraction

import pytest

from vcslab.frequencies import FrequencyConfig
from vcslab.logspace import rel_diff_from_logs
from vcslab.moments import density_for, verify_moments
from vcslab.registry import get, registry
from vcslab.resolution import (
    SelectionRule,
    _exact_slopes,
    _gram_basis,
    aliasing_solutions,
    resolution_residual,
    selection_rule,
)
from vcslab.structure import ClassSpec

CFG2 = FrequencyConfig((1.0, 2.0))
CFG3 = FrequencyConfig((1.0, 2.0, 3.0))
CFG3_IRR = FrequencyConfig((1.0, math.sqrt(2.0), math.sqrt(5.0)))


def _exact_oracle(spec, cfg, window):
    """Every nonzero difference vector in the window that each tower's exact
    z-slope row annihilates, found by brute force over the box."""
    rows = [_exact_slopes(tw.z_exp, spec.summed, cfg) for tw in spec.towers]
    box = itertools.product(range(-window, window + 1), repeat=len(spec.summed))
    return [d for d in box if any(d) and all(sum(c * x for c, x in zip(r, d)) == 0 for r in rows)]


class TestSelectionRule:
    def test_single_integer_phase(self):
        rule = selection_rule(get("2d.1dof.plain1.A"), CFG2)
        assert rule.constraints == ((1.0,),)
        assert aliasing_solutions(rule, 5) == []

    def test_doubly_deformed_constraint_pair(self):
        # both towers give proportional constraints d1 + k12 d2 = 0; the
        # second phase is the equivalent form, so one constraint is kept
        rule = selection_rule(get("3d.2dof.gamma1-gamma2"), CFG3)
        assert len(rule.constraints) == 1
        k12 = CFG3.ratio(1, 2)
        c = rule.constraints[0]
        assert c[0] == 1.0 and c[1] == pytest.approx(k12)

    def test_dependent_case13_single_constraint(self):
        rule = selection_rule(get("3d.2dof.gamma1-plain3"), CFG3)
        # z1 phases give d1 + k12 d2 = 0; z3 phase has no summed dependence
        assert len(rule.constraints) == 1

    def test_independent_class_diagonal_rule(self):
        rule = selection_rule(get("3d.2dof.gamma13-gamma23"), CFG3)
        assert len(rule.constraints) == 2
        assert aliasing_solutions(rule, 10) == []


class TestAliasing:
    @pytest.mark.parametrize(
        "omegas, overrides",
        [((1, 2, 3), None), ((2, 1, 3), None), ((3, 1, 2.1), None), ((0.01, 0.1, 1), None),
         ((1, 2, 3), {(1, 2): 0.3})],
        ids=["1,2,3", "2,1,3", "3,1,2.1", "0.01,0.1,1", "kappa12=0.3"],
    )
    def test_lattice_matches_exact_brute_force(self, omegas, overrides):
        for spec in registry():
            cfg = FrequencyConfig(omegas[: spec.dimension], pins=overrides or {})
            rule = selection_rule(spec, cfg)
            for window in (1, 6, 10):
                expected = _exact_oracle(spec, cfg, window)
                assert aliasing_solutions(rule, window) == expected, (spec.id, window)

    def test_common_factor_of_a_row_is_divided_out(self):
        # 3/2 d1 + 3/4 d2 = 0 is solved by the multiples of (1, -2), not only of (3, -6)
        row = (Fraction(3, 2), Fraction(3, 4))
        rule = SelectionRule("hand-built", (1, 2), ((1.5, 0.75),), (row,))
        assert aliasing_solutions(rule, 4) == [(-2, 4), (-1, 2), (1, -2), (2, -4)]

    def test_no_constraint_keeps_every_difference(self):
        rule = SelectionRule("hand-built", (1,), (), ())
        assert aliasing_solutions(rule, 2) == [(-2,), (-1,), (1,), (2,)]

    def test_ratios_read_as_typed_decimals(self):
        # 0.1 / 0.01 is 10 as typed; the binary floats' quotient is not, and
        # would alias nothing
        cfg = FrequencyConfig((0.01, 0.1, 1.0))
        pairs, ratios = 0, set()
        for spec in registry():
            rep = resolution_residual(spec, cfg, (1,) * len(spec.fixed), 10)
            meta = dict(rep.metadata)
            pairs += meta["aliasing_pairs"]
            ratios.update(meta["constraint_coefficient_ratios"])
        assert pairs == 80 and ratios == {"10"}

    def test_irrational_ratio_no_solutions(self):
        spec = get("3d.2dof.gamma1-gamma2")
        cfg = FrequencyConfig((1.0, math.sqrt(2.0), 3.0))  # k12 = sqrt(2)
        rule = selection_rule(spec, cfg)
        assert aliasing_solutions(rule, 50) == []

    def test_rational_ratio_small_denominator(self):
        spec = get("3d.2dof.gamma1-gamma2")
        cfg = FrequencyConfig((2.0, 1.0, 3.0))  # k12 = 1/2
        rule = selection_rule(spec, cfg)
        sols = aliasing_solutions(rule, 4)
        assert (1, -2) in sols and (-1, 2) in sols

    def test_zero_excluded_and_window_validated(self):
        rule = selection_rule(get("2d.1dof.plain1.A"), CFG2)
        assert all(any(d != 0 for d in s) for s in aliasing_solutions(rule, 3))
        with pytest.raises(ValueError):
            aliasing_solutions(rule, 0)

    def test_irrational_scan_up_to_100(self):
        spec = get("3d.2dof.gamma1-gamma2")
        cfg = FrequencyConfig((1.0, math.sqrt(2.0), 3.0))
        rule = selection_rule(spec, cfg)
        assert aliasing_solutions(rule, 100) == []


class TestResolutionResidual:
    def test_canonical_class_gram_is_identity(self):
        rep = resolution_residual(get("2d.1dof.plain1.A"), CFG2, (0,), 15)
        assert rep.passed
        assert rep.max_residual <= 1e-6

    def test_two_dof_class(self):
        rep = resolution_residual(get("2d.2dof.gamma1-plain.A"), CFG2, (2,), 12)
        assert rep.passed

    def test_diagonal_matches_moment_residuals(self):
        spec = get("2d.2dof.plain-gamma2.C")
        rep_r = resolution_residual(spec, CFG2, (1,), 8)
        rep_m = verify_moments(spec, CFG2, (1,), n_range=8)
        res_r = dict(rep_r.residuals)
        res_m = dict(rep_m.residuals)
        for n in range(9):
            assert res_r[f"G[{n}]"] == pytest.approx(res_m[str(n)], abs=1e-12)

    def test_wrong_density_drifts_monotonically(self):
        spec = get("2d.1dof.plain1.A")
        bad = density_for(spec, CFG2, spec.compile(CFG2, (0,))).perturbed(1, 1.02)
        from vcslab.moments import moment_integral, moment_target

        drift = []
        for n in range(0, 12, 3):
            v = moment_integral(spec, CFG2, (0,), (n,), density=bad)
            t = moment_target(spec, CFG2, (0,), (n,))
            drift.append(rel_diff_from_logs(v, t))
        assert drift == sorted(drift)
        assert drift[-1] > drift[0]

    def test_aliased_rational_pair_flagged(self):
        spec = get("3d.2dof.gamma1-gamma2")
        cfg = FrequencyConfig((2.0, 1.0, 3.0))  # k12 = 1/2: delta = (1,-2) aliases
        rep = resolution_residual(spec, cfg, (1,), (4, 4))
        meta = dict(rep.metadata)
        assert meta["aliasing_pairs"] > 0
        assert any("|" in k for k, _ in rep.residuals)

    def test_gram_matrix_psd_and_diagonal(self):
        # no aliased pair at irrational ratios: every off-diagonal entry is a
        # certified zero, so G is diagonal, and near-unit diagonals make it PSD
        spec = get("3d.2dof.gamma13-gamma23")
        rep = resolution_residual(spec, CFG3_IRR, (1,), (3, 3))
        assert dict(rep.metadata)["aliasing_pairs"] == 0
        assert not any("|" in k for k, _ in rep.residuals)
        assert len(rep.residuals) == 16
        assert rep.max_residual <= 1e-8


class TestIrrationalRatioSweep:
    @pytest.mark.parametrize("ratio", [math.sqrt(2.0), math.pi / 3.0])
    def test_aliasing_empty_up_to_100(self, ratio):
        cfg = FrequencyConfig((1.0, ratio, 3.0))
        rule = selection_rule(get("3d.2dof.gamma1-gamma2"), cfg)
        assert aliasing_solutions(rule, 100) == []


class TestTwoDimensionalDoublyDeformedRule:
    def test_equivalent_constraint_pair(self):
        # both variable phases constrain the single summed difference;
        # the two forms are proportional and collapse to one constraint
        rule = selection_rule(get("2d.2dof.gamma1-gamma2.A"), CFG2)
        assert len(rule.constraints) == 1
        assert aliasing_solutions(rule, 5) == []


class TestGramBasis:
    def test_cached_basis_is_read_only(self):
        indices, grid, labels, texts = _gram_basis((3, 2))
        points = tuple(itertools.product(range(4), range(3)))
        assert indices.tolist() == [list(m) for m in points] == grid.tolist()
        assert labels[5] == "G[1,2]"
        assert texts == tuple(map(str, points)) and texts[5] == "(1, 2)"
        for array in (indices, grid):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1

    def test_one_resolution_call_compiles_once(self, monkeypatch):
        # the selection rule's z slopes come from the compile at the fixed indices
        spec = get("3d.2dof.gamma1-gamma2")
        cfg = FrequencyConfig((2.0, 1.0, 3.0))  # kappa12 = 1/2 aliases
        calls = []
        compile_ = ClassSpec.compile

        def counting(self, *args, **kwargs):
            calls.append(self.id)
            return compile_(self, *args, **kwargs)

        monkeypatch.setattr(ClassSpec, "compile", counting)
        rep = resolution_residual(spec, cfg, (1,), (4, 4))
        assert calls == [spec.id]
        # a compiled class handed in is the one the check reads
        assert resolution_residual(spec, cfg, (1,), (4, 4), compiled=compile_(spec, cfg, (1,))) == rep
        assert calls == [spec.id]
        rule = selection_rule(spec, cfg)
        assert dict(rep.metadata)["selection_constraints"] == [list(r) for r in rule.constraints]

