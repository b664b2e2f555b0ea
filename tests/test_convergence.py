import itertools
import math

import pytest

from vcslab import convergence
from vcslab.convergence import (
    _OTHERS,
    Verdict,
    _log_weights,
    _majorant_grid,
    _ratio_decision,
    _rows_columns,
    class_verdict,
    comparison_check,
    gamma_ratio_surface,
    row_column_check,
)
from vcslab.frequencies import FrequencyConfig
from vcslab.norms import norm_series, term_generator
from vcslab.registry import get, registry
from vcslab.special import log_gamma

CFG2 = FrequencyConfig((1.0, 2.0))
CFG3 = FrequencyConfig((1.0, 2.0, 3.0))


def probe_z(spec, cfg, scale=1.0):
    return tuple(math.sqrt(scale * cfg.omega(t)) for t in spec.tower_ids)


def ratio_decision(gen):
    """The full ratio test on gen's axis weights and Gamma slopes."""
    return _ratio_decision(_log_weights(gen), gen.gamma_factors())


class TestRowColumn:
    def test_plain_double_exponential_both_axes_vanishing_ratio(self):
        spec = get("3d.2dof.plain-plain")
        gen = term_generator(spec, CFG3, probe_z(spec, CFG3), (1,))
        verdicts = row_column_check(gen)
        assert all(v.convergent for v in verdicts.values())
        assert all("ratio" in v.witness for v in verdicts.values())

    def test_pinned_zero_ratio_gives_constant_divergent_column(self):
        spec = get("3d.2dof.gamma13-gamma32")
        gen = term_generator(spec, CFG3, probe_z(spec, CFG3), (0,), overrides={(3, 2): 0.0})
        verdicts = row_column_check(gen)
        assert verdicts[2].divergent
        assert "do not vanish" in verdicts[2].witness

    def test_small_ratio_column_still_convergent(self):
        spec = get("3d.2dof.gamma13-gamma32")
        gen = term_generator(spec, CFG3, probe_z(spec, CFG3), (0,), overrides={(3, 2): 0.5})
        verdicts = row_column_check(gen)
        assert verdicts[1].convergent and verdicts[2].convergent


class TestRowsColumnsShortcut:
    def test_one_decision_stands_for_the_three_scans(self, monkeypatch):
        calls = []
        decide = convergence._decide_axis

        def counted(*args):
            calls.append(args)
            return decide(*args)

        monkeypatch.setattr(convergence, "_decide_axis", counted)
        shortcuts = scans = 0
        for spec in registry():
            cfg = CFG3 if spec.dimension == 3 else CFG2
            fixed = (1,) * len(spec.fixed)
            # the natural ratios, then the first ratio the class uses pinned
            pins = [None] + [{pair: 1e-3} for pair in sorted(spec.ratios_used())[:1]]
            for overrides in pins:
                gen = term_generator(spec, cfg, probe_z(spec, cfg), fixed, overrides)
                log_weights, factors = _log_weights(gen), gen.gamma_factors()
                for k in range(len(log_weights)):
                    want = [
                        decide(log_weights, factors, k, {j: v for j in range(len(log_weights)) if j != k})
                        for v in _OTHERS
                    ]
                    calls.clear()
                    assert _rows_columns(log_weights, factors, k) == want, (spec.id, overrides, k)
                    shortcuts += len(calls) == 1
                    scans += len(calls) == len(_OTHERS)
        assert shortcuts > 0 and scans > 0


class TestComparison:
    def test_doubly_deformed_dominated_by_double_exponential(self):
        spec = get("3d.2dof.gamma1-gamma2")
        gen = term_generator(spec, CFG3, probe_z(spec, CFG3), (1,))
        v = comparison_check(gen)
        assert v.convergent

    def test_case13_needs_more_than_double_exponential(self):
        # small kappa32 defeats Gamma >= factorial domination along axis 2
        spec = get("3d.2dof.gamma13-gamma32")
        gen = term_generator(spec, CFG3, probe_z(spec, CFG3), (0,), overrides={(3, 2): 0.05})
        v = comparison_check(gen)
        assert v.status == "inconclusive"
        assert "domination fails" in v.witness


class TestRatioTests:
    def test_geometric_terms(self):
        # synthetic geometric double series through a plain-class generator
        spec = get("3d.2dof.plain-plain")
        slow = term_generator(spec, CFG3, (math.sqrt(0.5), math.sqrt(1.0)), (0,))
        assert ratio_decision(slow).convergent

    def test_dependent_class_joint_ratio_vanishes(self):
        spec = get("3d.2dof.gamma1-plain3")
        gen = term_generator(spec, CFG3, probe_z(spec, CFG3), (1,))
        v = ratio_decision(gen)
        assert v.convergent


def scalar_majorant(gen):
    """Per-point log terms of the majorant `_majorant_grid` builds on gen."""

    def log_term(n):
        lt = gen.log_term(n)
        if lt == float("-inf"):
            return lt
        for ct in gen.compiled.towers:
            lt += log_gamma(ct.gamma_arg.at(n)) - ct.log_gamma_norm
        for v in n:
            lt -= log_gamma(v + 1.0)
        return lt

    return log_term


def scalar_scan_domination(log_a, log_b, k0, depth):
    for n in itertools.product(*[range(k, k + depth) for k in k0]):
        a, b = log_a(n), log_b(n)
        if a > b + 1e-12:
            return f"domination fails first at {n}: log a={a:.6g} > log b={b:.6g}"
    return None


class TestProbeWindows:
    """The verdict engine's windows against a scan one point at a time."""

    def test_majorant_grids_equal_scalar_bit_for_bit(self):
        for spec in registry():
            cfg = CFG3 if spec.dimension == 3 else CFG2
            gen = term_generator(spec, cfg, probe_z(spec, cfg, 0.7), (1,) * len(spec.fixed))
            start, shape = ((2, 4), (5, 6)) if len(gen.axes) == 2 else ((2,), (24,))
            grid = _majorant_grid(gen, gen.log_term_grid(shape, start), shape, start)
            scalar = scalar_majorant(gen)
            for n in itertools.product(*[range(k, k + s) for k, s in zip(start, shape)]):
                idx = tuple(v - k for v, k in zip(n, start))
                assert grid[idx] == scalar(n), (spec.id, n)

    def test_domination_reports_first_failure_off_origin(self):
        spec = get("3d.2dof.plain-gamma32")
        gen = term_generator(spec, CFG3, probe_z(spec, CFG3), (1,))
        expected = scalar_scan_domination(gen.log_term, scalar_majorant(gen), (2, 2), 24)
        assert expected.startswith("domination fails first at (2, 4):")
        v = comparison_check(gen)
        assert v.status == "inconclusive"
        assert v.witness == expected

    def test_window_with_non_positive_gamma_argument_raises(self):
        spec = get("2d.1dof.gamma1.A")
        gen = term_generator(spec, CFG2, (1.0,), (3,), overrides={(1, 2): -1.5})
        with pytest.raises(ValueError, match="log_gamma requires x > 0, got -1.5"):
            comparison_check(gen)


class TestClassVerdict:
    def test_independent_class_convergent_any_frequencies(self):
        spec = get("3d.2dof.gamma13-gamma23")
        for omegas in [(1.0, 2.0, 3.0), (2.0, 1.0, 3.0), (0.3, 5.0, 1.7)]:
            v = class_verdict(spec, FrequencyConfig(omegas), (1,))
            assert v.convergent

    def test_forbidden_limit_divergent(self):
        spec = get("3d.2dof.gamma13-gamma32")
        v = class_verdict(spec, CFG3, (0,), overrides={(3, 2): 0.0})
        assert v.divergent

    @pytest.mark.parametrize("k32", [1e-3, 1e-2, 0.1, 1.0, 10.0])
    def test_monotone_kappa_domain(self, k32):
        spec = get("3d.2dof.gamma13-gamma32")
        v = class_verdict(spec, CFG3, (0,), overrides={(3, 2): k32})
        assert v.convergent

    @pytest.mark.parametrize("k12", [1.0, 0.5, 0.1, 1e-6])
    def test_gamma1_plain3_class_small_ratios(self, k12):
        spec = get("3d.2dof.gamma1-plain3")
        v = class_verdict(spec, CFG3, (1,), overrides={(1, 2): k12})
        assert v.convergent

    def test_conditions_reported_for_case13(self):
        spec = get("3d.2dof.gamma13-gamma32")
        v = class_verdict(spec, CFG3, (0,))
        assert any("kappa32 > 0" in c for c in v.conditions)

    def test_all_registered_classes_convergent_at_real_frequencies(self):
        from vcslab.registry import registry

        for spec in registry():
            cfg = CFG3 if spec.dimension == 3 else CFG2
            v = class_verdict(spec, cfg, (1,) * len(spec.fixed))
            assert v.convergent, (spec.id, v)

    def test_comparison_or_ratio_test_decides_every_census_verdict(self):
        # the verdict engine has no stage after the ratio test; this census
        # of natural and pinned ratios shows none is needed
        decided = []
        for spec in registry():
            for omegas in ((1.0, 2.0, 3.0), (1.37, 2.91, 0.73)):
                cfg = FrequencyConfig(omegas[: spec.dimension])
                fixed = (1,) * len(spec.fixed)
                pins = [None] + [
                    {ratio: k} for ratio in sorted(spec.ratios_used()) for k in (1e-6, 0.1, 10.0)
                ]
                for overrides in pins:
                    v = class_verdict(spec, cfg, fixed, overrides=overrides)
                    assert v.convergent, (spec.id, omegas, overrides, v.witness)
                    decided.append(v.witness.split(":")[0])
        assert set(decided) == {"comparison test", "ratio test"}
        assert len(decided) == 652

    def test_verdict_consistent_with_partial_sums(self):
        # anti-lying check: verdicts match actual summation behavior
        spec = get("3d.2dof.gamma13-gamma32")
        ok = class_verdict(spec, CFG3, (0,), overrides={(3, 2): 0.7})
        assert ok.convergent
        gen = term_generator(spec, CFG3, probe_z(spec, CFG3), (0,), overrides={(3, 2): 0.7})
        res = norm_series(gen)
        assert math.isfinite(res.log_norm)


class TestGammaRatioSurface:
    def test_zero_kappa_vanishes_identically(self):
        rows = gamma_ratio_surface(0.0, m_range=(50, 60), n_range=(50, 60))
        assert all(d == 0.0 for _, _, _, d in rows)

    def test_difference_shrinks_with_depth(self):
        rows = {(m, n): d for m, n, _, d in gamma_ratio_surface(1.0, m_range=(50, 100), n_range=(50, 100), step=50)}
        assert abs(rows[(100, 100)]) < abs(rows[(50, 50)])

    def test_tiny_kappa_surface_is_smallest(self):
        # the leading behavior is A^(-k) * k(3k+1)/(2A): not monotone in k
        # across {1, 1/2, 1/10} (it peaks between 0.1 and 0.5), but the
        # k = 1e-6 surface sits orders of magnitude below all of them
        def surf_max(k):
            return max(
                abs(d)
                for _, _, _, d in gamma_ratio_surface(k, m_range=(50, 100), n_range=(50, 100), step=10)
            )

        bulk = [surf_max(k) for k in (1.0, 0.5, 0.1)]
        tiny = surf_max(1e-6)
        assert tiny < min(bulk) / 100.0

    def test_each_figure_kappa_improves_with_depth(self):
        for k in (1.0, 0.5, 0.1, 1e-6):
            rows = {(m, n): d for m, n, _, d in gamma_ratio_surface(k, m_range=(50, 100), n_range=(50, 100), step=50)}
            assert abs(rows[(100, 100)]) < abs(rows[(50, 50)])

    def test_range_validation(self):
        with pytest.raises(ValueError):
            gamma_ratio_surface(1.0, m_range=(100, 50))
        with pytest.raises(ValueError):
            gamma_ratio_surface(1.0, m_range=(50, 10**7))


class TestSpecInvariants:
    def test_case12_families_dominated_by_double_exponential(self):
        # every case-(12) class and the independent-sum entries satisfy
        # the termwise double-exponential comparison
        from vcslab.registry import registry

        for spec in registry():
            if spec.dimension != 3 or spec.case != "12":
                continue
            gen = term_generator(spec, CFG3, probe_z(spec, CFG3), (1,))
            v = comparison_check(gen)
            assert v.convergent, (spec.id, v.witness)

    def test_divergence_crosscheck_on_window_sums(self):
        # verdicts must match the partial-sum behavior on growing windows
        from scipy.special import logsumexp

        spec = get("3d.2dof.gamma13-gamma32")

        def window_masses(overrides):
            gen = term_generator(spec, CFG3, probe_z(spec, CFG3), (0,), overrides=overrides)
            return [
                float(logsumexp(gen.log_term_grid((w, w)))) for w in (8, 16, 32, 64)
            ]

        # divergent point: each doubling adds at least a fixed floor
        div = window_masses({(3, 2): 0.0})
        assert all(b - a > 0.5 for a, b in zip(div, div[1:]))
        assert class_verdict(spec, CFG3, (0,), overrides={(3, 2): 0.0}).divergent
        # convergent point: window sums stabilize
        conv = window_masses({(3, 2): 1.0})
        assert abs(conv[-1] - conv[-2]) < 1e-9
        assert class_verdict(spec, CFG3, (0,), overrides={(3, 2): 1.0}).convergent


class TestSyntheticGeometric:
    # bare double-geometric weights r^(n1+n2): no Gamma factors
    def test_ratio_two_divergent(self):
        v = _ratio_decision([math.log(2.0)] * 2, [])
        assert v.divergent

    def test_ratio_half_convergent(self):
        v = _ratio_decision([math.log(0.5)] * 2, [])
        assert v.convergent

    def test_ratio_two_witness_prints_the_ratio(self):
        assert "constant ratio 2 >= 1" in _ratio_decision([math.log(2.0)] * 2, []).witness

    def test_ratio_past_the_float_range_is_divergent(self):
        # the ratio e^800 has no float: the witness carries its log
        v = _ratio_decision([800.0, 800.0], [])
        assert v.divergent
        assert "constant ratio exp(800) >= 1" in v.witness
