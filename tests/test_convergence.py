import math

import pytest

from vcslab.convergence import _axis_witness, class_verdict, gamma_ratio_surface
from vcslab.frequencies import FrequencyConfig
from vcslab.norms import TermGenerator, axis_growth, norm_series, term_generator
from vcslab.registry import get, registry
from vcslab.structure import AffineForm, CompiledClass, CompiledTower

CFG2 = FrequencyConfig((1.0, 2.0))
CFG3 = FrequencyConfig((1.0, 2.0, 3.0))


def probe_z(spec, cfg, scale=1.0):
    return tuple(math.sqrt(scale * cfg.omega(t)) for t in spec.tower_ids)


def synthetic(log_weights, gamma_slopes=None):
    """Terms prod_k w_k^(n_k) / Gamma(1 + s . n): tower k + 1 carries axis k's
    weight through its omega exponent, and tower 1 also the Gamma slopes s."""
    ndim = len(log_weights)
    gamma_slopes = (0.0,) * ndim if gamma_slopes is None else tuple(gamma_slopes)
    flat = AffineForm(0.0, (0.0,) * ndim)
    towers = tuple(
        CompiledTower(
            k + 1, lw, flat, AffineForm(0.0, tuple(-1.0 if j == k else 0.0 for j in range(ndim))),
            AffineForm(1.0, gamma_slopes if k == 0 else (0.0,) * ndim), 0.0, z_gap=0.0, w_gap=-1.0,
        )
        for k, lw in enumerate(log_weights)
    )
    compiled = CompiledClass("synthetic", tuple(range(1, ndim + 1)), towers)
    return TermGenerator.of(compiled, (1.0,) * ndim)


def witness(gen):
    return "; ".join(_axis_witness(k, a) for k, a in enumerate(axis_growth(gen)))


class TestRowColumn:
    def test_plain_double_exponential_both_axes_vanishing_ratio(self):
        spec = get("3d.2dof.plain-plain")
        gen = term_generator(spec, CFG3, probe_z(spec, CFG3), (1,))
        axes = axis_growth(gen)
        assert all(a.convergent and a.gamma_slope > 0.0 for a in axes)
        assert witness(gen) == "axis 0: Gamma slope 1 > 0, ratio -> 0; axis 1: Gamma slope 1 > 0, ratio -> 0"

    def test_pinned_zero_ratio_gives_constant_divergent_column(self):
        spec = get("3d.2dof.gamma13-gamma32")
        gen = term_generator(spec, CFG3.pinned({(3, 2): 0.0}), probe_z(spec, CFG3), (0,))
        first, second = axis_growth(gen)
        assert first.convergent
        assert not second.convergent and second.gamma_slope == 0.0
        assert witness(gen).endswith("axis 1: constant ratio 1 >= 1, terms do not vanish")

    def test_small_ratio_column_still_convergent(self):
        spec = get("3d.2dof.gamma13-gamma32")
        gen = term_generator(spec, CFG3.pinned({(3, 2): 0.5}), probe_z(spec, CFG3), (0,))
        assert all(a.convergent for a in axis_growth(gen))


class TestComparison:
    """Gamma slopes of at least 1 on every axis put an n! under each index;
    smaller slopes still decide convergence."""

    def test_doubly_deformed_dominated_by_double_exponential(self):
        spec = get("3d.2dof.gamma1-gamma2")
        gen = term_generator(spec, CFG3, probe_z(spec, CFG3), (1,))
        axes = axis_growth(gen)
        assert all(a.convergent and a.gamma_slope >= 1.0 for a in axes)

    def test_case13_needs_more_than_double_exponential(self):
        # small kappa32 defeats Gamma >= factorial domination along axis 2,
        # and the slope alone still decides
        spec = get("3d.2dof.gamma13-gamma32")
        v = class_verdict(spec, CFG3, (0,), overrides={(3, 2): 0.05})
        assert v.convergent
        assert v.witness.endswith("axis 1: Gamma slope 0.05 > 0, ratio -> 0")


class TestRatioTests:
    def test_geometric_terms(self):
        # synthetic geometric double series: no Gamma slope, weights 1/2 and 1/3
        gen = synthetic([math.log(0.5), math.log(1 / 3)])
        assert all(a.convergent for a in axis_growth(gen))
        assert witness(gen) == (
            "axis 0: constant ratio 0.5 < 1 (geometric); axis 1: constant ratio 0.333333 < 1 (geometric)"
        )

    def test_dependent_class_joint_ratio_vanishes(self):
        spec = get("3d.2dof.gamma1-plain3")
        v = class_verdict(spec, CFG3, (1,))
        assert v.convergent
        # n2 reaches tower 1's Gamma argument through kappa12 = 2
        assert v.witness == "axis 0: Gamma slope 1 > 0, ratio -> 0; axis 1: Gamma slope 2 > 0, ratio -> 0"


class TestProbeWindows:
    def test_window_with_non_positive_gamma_argument_raises(self):
        spec = get("2d.1dof.gamma1.A")
        gen = term_generator(spec, CFG2.pinned({(1, 2): -1.5}), (1.0,), (3,))
        with pytest.raises(ValueError, match=r"tower 1: Gamma argument .* is not positive on the lattice"):
            axis_growth(gen)
        with pytest.raises(ValueError, match="is not positive on the lattice"):
            class_verdict(spec, CFG2, (3,), overrides={(1, 2): -1.5})


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
        assert "axis 1: constant ratio 1 >= 1" in v.witness

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

    def test_census_status_counts(self):
        # natural ratios and every used ratio pinned to each value; a pin
        # to 0 of a ratio the class takes the reciprocal of cannot compile
        for omegas in ((1.0, 2.0, 3.0), (1.37, 2.91, 0.73)):
            statuses = []
            for spec in registry():
                cfg = FrequencyConfig(omegas[: spec.dimension])
                fixed = (1,) * len(spec.fixed)
                pins = [None] + [
                    {ratio: k} for ratio in sorted(spec.ratios_used()) for k in (0.0, 1e-6, 1e-3, 0.1, 10.0)
                ]
                for overrides in pins:
                    try:
                        statuses.append(class_verdict(spec, cfg, fixed, overrides=overrides).status)
                    except ZeroDivisionError:
                        statuses.append("ZeroDivisionError")
            counts = {s: statuses.count(s) for s in set(statuses)}
            assert counts == {"convergent": 466, "divergent": 8, "ZeroDivisionError": 32}, omegas

    @pytest.mark.parametrize("cid, omegas", [
        # one weight exactly 1 with the only Gamma slope kappa32 = 1e-12
        ("3d.2dof.plain-gamma3", (1.0, 1e-6, 1e6)),
        ("3d.2dof.plain-gamma32", (1.0, 1e-6, 1e6)),
        # a weight of e^(5.04e303) under n1! growth
        ("2d.2dof.plain-plain.B", (7.3, 1e-300)),
    ])
    def test_any_positive_gamma_slope_converges_at_extreme_ratios(self, cid, omegas):
        spec = get(cid)
        v = class_verdict(spec, FrequencyConfig(omegas), (1,) * len(spec.fixed))
        assert v.convergent, v.witness

    def test_verdict_consistent_with_partial_sums(self):
        # anti-lying check: verdicts match actual summation behavior
        spec = get("3d.2dof.gamma13-gamma32")
        ok = class_verdict(spec, CFG3, (0,), overrides={(3, 2): 0.7})
        assert ok.convergent
        gen = term_generator(spec, CFG3.pinned({(3, 2): 0.7}), probe_z(spec, CFG3), (0,))
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
        # every case-(12) class puts a Gamma slope of at least 1, an n!,
        # on each summed index, so it converges at any weight
        for spec in registry():
            if spec.dimension != 3 or spec.case != "12":
                continue
            gen = term_generator(spec, CFG3, probe_z(spec, CFG3, 1e6), (1,))
            axes = axis_growth(gen)
            assert all(a.convergent and a.gamma_slope >= 1.0 for a in axes), (spec.id, axes)

    def test_divergence_crosscheck_on_window_sums(self):
        # verdicts must match the partial-sum behavior on growing windows
        from scipy.special import logsumexp

        spec = get("3d.2dof.gamma13-gamma32")

        def window_masses(overrides):
            gen = term_generator(spec, CFG3.pinned(overrides), probe_z(spec, CFG3), (0,))
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
        assert not any(a.convergent for a in axis_growth(synthetic([math.log(2.0)] * 2)))

    def test_ratio_half_convergent(self):
        assert all(a.convergent for a in axis_growth(synthetic([math.log(0.5)] * 2)))

    def test_ratio_two_witness_prints_the_ratio(self):
        assert "constant ratio 2 >= 1" in witness(synthetic([math.log(2.0)] * 2))

    def test_ratio_past_the_float_range_is_divergent(self):
        # the ratio e^800 has no float: the witness carries its log
        gen = synthetic([800.0, 800.0])
        assert not any(a.convergent for a in axis_growth(gen))
        assert "constant ratio exp(800) >= 1" in witness(gen)

    def test_weight_just_below_one_in_floats_is_divergent(self):
        # log w = -1e-17 rounds to the weight 1.0
        assert not axis_growth(synthetic([-1e-17]))[0].convergent

    def test_gamma_slope_converges_at_any_weight(self):
        for lw in (0.0, 800.0, math.inf, math.nan):
            (axis,) = axis_growth(synthetic([lw], gamma_slopes=[1e-12]))
            assert axis.convergent, lw

    def test_negative_gamma_slope_raises(self):
        # Gamma(1 - n/2) reaches a pole at n = 2 though its constant is positive
        with pytest.raises(ValueError, match=r"tower 1: Gamma argument 1 \+ \[-0.5\] \. n is not positive"):
            axis_growth(synthetic([0.0], gamma_slopes=[-0.5]))

    def test_nan_weight_on_a_geometric_axis_raises(self):
        # omega = inf on two towers whose omega exponents cancel: log w = inf - inf
        flat = AffineForm(0.0, (0.0,))
        towers = tuple(
            CompiledTower(t, math.inf, flat, AffineForm(0.0, (s,)), AffineForm(1.0, (0.0,)), 0.0,
                          z_gap=0.0, w_gap=-1.0)
            for t, s in ((1, -1.0), (2, 1.0))
        )
        gen = TermGenerator.of(CompiledClass("synthetic", (1,), towers), (1.0, 1.0))
        assert math.isnan(gen.log_weight(0))
        with pytest.raises(ValueError, match=r"axis 0: the log weight is inf - inf"):
            axis_growth(gen)
