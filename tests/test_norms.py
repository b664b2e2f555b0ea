import itertools
import math

import numpy as np
import pytest

from vcslab.frequencies import FrequencyConfig
from vcslab.logspace import logsumexp
from vcslab.norms import (
    MAX_TERMS,
    DivergenceError,
    TailBudgetError,
    _certified_sum,
    _frontier_ratio,
    norm_closed_form,
    norm_series,
    state,
    term_generator,
)
from vcslab.registry import get, registry
from vcslab.special import hyp1f1_one_closed, log_gamma


CFG2 = FrequencyConfig((1.0, 2.0))
CFG3 = FrequencyConfig((1.0, 2.0, 3.0))


class TestTermGenerator:
    def test_z_zero_single_term(self):
        gen = term_generator(get("2d.1dof.plain1.A"), CFG2, (0.0,), (0,))
        assert gen.log_term((0,)) == 0.0
        assert gen.log_term((1,)) == float("-inf")
        assert gen.log_term((7,)) == float("-inf")

    def test_gamma_term_ratio(self):
        spec = get("2d.1dof.gamma1.A")
        z, n2 = 1.4, 3
        gen = term_generator(spec, CFG2, (z,), (n2,))
        g = 1.0 + CFG2.ratio(1, 2) * n2
        for n in range(8):
            got = math.exp(gen.log_term((n + 1,)) - gen.log_term((n,)))
            assert got == pytest.approx((z * z / 1.0) / (g + n), rel=1e-12)

    def test_independent_sums_factorize(self):
        gen = term_generator(get("3d.2dof.gamma13-gamma23"), CFG3, (1.1, 0.8), (2,))
        for n1, n2 in [(1, 1), (3, 2), (5, 7)]:
            lhs = gen.log_term((n1, n2)) + gen.log_term((0, 0))
            rhs = gen.log_term((n1, 0)) + gen.log_term((0, n2))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_dependent_sums_do_not_factorize(self):
        gen = term_generator(get("3d.2dof.gamma1-gamma2"), CFG3, (1.1, 0.8), (2,))
        lhs = gen.log_term((3, 2)) + gen.log_term((0, 0))
        rhs = gen.log_term((3, 0)) + gen.log_term((0, 2))
        assert abs(lhs - rhs) > 1e-3

    def test_leading_prefactor_of_independent_3d_class(self):
        # term at the origin: [ |z1|^(2k13) |z2|^(2k23) / (w1^k13 w2^k23) ]^n3
        #                     / (Gamma(gamma13) Gamma(gamma23))
        n3 = 2
        z1, z2 = 1.3, 0.9
        gen = term_generator(get("3d.2dof.gamma13-gamma23"), CFG3, (z1, z2), (n3,))
        k13, k23 = CFG3.ratio(1, 3), CFG3.ratio(2, 3)
        g13, g23 = 1.0 + k13 * n3, 1.0 + k23 * n3
        expect = (
            n3 * (2 * k13 * math.log(z1) + 2 * k23 * math.log(z2) - k13 * math.log(1.0) - k23 * math.log(2.0))
            - log_gamma(g13)
            - log_gamma(g23)
        )
        assert gen.log_term((0, 0)) == pytest.approx(expect, abs=1e-12)

    def test_deformed_terms_below_plain_terms(self):
        # Gamma(gamma + n) >= n! termwise for gamma >= 1
        deformed = term_generator(get("2d.2dof.gamma1-gamma2.A"), CFG2, (1.2, 0.9), (2,))
        for n in range(1, 12):
            log_plain_part = deformed.log_term((n,)) + (
                log_gamma(deformed.gamma_factors()[0][0] + n) - log_gamma(deformed.gamma_factors()[0][0])
            )
            assert deformed.log_term((n,)) <= log_plain_part + 1e-12


TRIPLES = [(1.0, 2.0, 3.0), (0.731, 2.113, 3.97), (1.5, 0.6, 2.2)]


def window_points(start, shape):
    return itertools.product(*[range(k, k + s) for k, s in zip(start, shape)])


class TestTermGrid:
    @pytest.mark.parametrize("triple", TRIPLES)
    def test_grid_equals_scalar_bit_for_bit(self, triple):
        # an off-origin window, so every slope and the constant both count
        for spec in registry():
            cfg = FrequencyConfig(triple[: spec.dimension])
            z = tuple(math.sqrt(cfg.omega(t)) for t in spec.tower_ids)
            gen = term_generator(spec, cfg, z, (2,) * len(spec.fixed))
            start, shape = ((3, 5), (7, 6)) if len(spec.summed) == 2 else ((3,), (40,))
            grid = gen.log_term_grid(shape, start)
            for n in window_points(start, shape):
                idx = tuple(v - k for v, k in zip(n, start))
                assert grid[idx] == gen.log_term(n), (spec.id, n)

    def test_zero_variable_window_matches_scalar(self):
        gen = term_generator(get("2d.2dof.gamma1-plain.A"), CFG2, (0.0, 1.3), (0,))
        grid = gen.log_term_grid((6,), (0,))
        assert grid[0] == gen.log_term((0,)) == 0.0
        assert list(grid[1:]) == [gen.log_term((n,)) for n in range(1, 6)] == [float("-inf")] * 5

    @pytest.mark.parametrize("cid, ratio, start, shape", [
        ("2d.1dof.gamma1.A", (1, 2), (2,), (5,)),
        # the first bad point, (6, 0), is off the window origin and in the second tower
        ("3d.2dof.gamma13-gamma3", (1, 3), (4, 0), (5, 3)),
    ])
    def test_non_positive_gamma_argument_raises_like_log_gamma(self, cid, ratio, start, shape):
        spec = get(cid)
        cfg = CFG3 if spec.dimension == 3 else CFG2
        gen = term_generator(spec, cfg, (1.0,) * spec.dof, (3,), overrides={ratio: -1.5})
        expected = None
        for n in window_points(start, shape):
            try:
                gen.log_term(n)
            except ValueError as exc:
                expected = str(exc)
                break
        assert expected is not None and expected.startswith("log_gamma requires x > 0")
        with pytest.raises(ValueError) as got:
            gen.log_term_grid(shape, start)
        assert str(got.value) == expected


class TestNormSeries:
    def test_canonical_value_is_e(self):
        gen = term_generator(get("2d.1dof.plain1.A"), CFG2, (1.0,), (0,))
        res = norm_series(gen)
        assert res.log_norm == pytest.approx(1.0, abs=1e-12)
        assert res.tail_bound <= 1e-12

    def test_origin_only(self):
        gen = term_generator(get("2d.1dof.gamma1.D"), CFG2, (0.0,), (0,))
        res = norm_series(gen)
        assert res.log_norm == pytest.approx(0.0, abs=1e-14)

    def test_independent_3d_matches_closed_product(self):
        n3 = 1
        z = (1.2, 0.7)
        spec = get("3d.2dof.gamma13-gamma23")
        series = norm_series(term_generator(spec, CFG3, z, (n3,)))
        k13, k23 = CFG3.ratio(1, 3), CFG3.ratio(2, 3)
        g13, g23 = 1.0 + k13 * n3, 1.0 + k23 * n3
        pref = n3 * (
            2 * k13 * math.log(abs(z[0])) + 2 * k23 * math.log(abs(z[1]))
            - k13 * math.log(1.0) - k23 * math.log(2.0)
        )
        expect = (
            pref
            - log_gamma(g13)
            - log_gamma(g23)
            + hyp1f1_one_closed(g13, abs(z[0]) ** 2 / 1.0)
            + hyp1f1_one_closed(g23, abs(z[1]) ** 2 / 2.0)
        )
        assert abs(math.expm1(series.log_norm - expect)) <= 1e-9

    @pytest.mark.parametrize("scale", [0.1, 1.0, 5.0, 30.0])
    def test_grown_window_sums_as_one_window(self, scale):
        # the window grows strip by strip; its sum is that of the whole
        # final window evaluated at once, bit for bit
        specs = [s for s in registry() if len(s.summed) == 1] + [get("3d.2dof.gamma1-gamma2")]
        for spec in specs:
            cfg = CFG3 if spec.dimension == 3 else CFG2
            z = tuple(math.sqrt(scale * cfg.omega(t)) for t in spec.tower_ids)
            gen = term_generator(spec, cfg, z, (1,) * len(spec.fixed))
            res = norm_series(gen)
            window = tuple(v + 1 for v in res.truncation)
            assert res.log_norm == logsumexp(gen.log_term_grid(window)), spec.id

    def test_frontier_ratio_keeps_overflow_and_zeroes_vanished_terms(self):
        prev = np.array([-800.0, -np.inf, 0.0])
        # an overflowing ratio certifies nothing
        assert _frontier_ratio(np.array([0.0, -np.inf, -1.0]), prev) == math.inf
        # a term that had already vanished has ratio 0
        assert _frontier_ratio(np.array([-801.0, -np.inf, -1.0]), prev) == math.exp(-1.0)
        assert _frontier_ratio(np.array([-np.inf]), np.array([-np.inf])) == 0.0

    def test_terms_rising_past_the_budget_end_before_the_window_grows(self):
        calls = []

        def log_window(shape, start):
            calls.append((shape, start))
            return (np.arange(start[0], start[0] + shape[0]) * math.log(1e3)).astype(float)

        with pytest.raises(TailBudgetError):
            _certified_sum(log_window, 1)
        # the first window, then one probe past the budget
        assert calls == [((17,), (0,)), ((2,), (MAX_TERMS,))]

    def test_divergent_at_pinned_zero_ratio(self):
        # ratio k32 -> 0 with |z3|^2 = w3 leaves constant terms along n2
        spec = get("3d.2dof.gamma13-gamma32")
        gen = term_generator(spec, CFG3, (1.0, math.sqrt(3.0)), (0,), overrides={(3, 2): 0.0})
        with pytest.raises(DivergenceError):
            norm_series(gen)


class TestNormClosedForm:
    def test_bi_state_norm_corrected_form(self):
        # (1,1)A: (1/n2!) (|z2|^2/w2)^n2 exp(|z1|^2/w1); printed stray 1/w1 dropped
        spec = get("2d.2dof.plain-plain.A")
        z1, z2, n2 = 1.5, 0.8, 3
        res = norm_closed_form(term_generator(spec, CFG2, (z1, z2), (n2,)))
        assert res is not None
        expect = -math.lgamma(n2 + 1) + n2 * math.log(z2 * z2 / 2.0) + z1 * z1 / 1.0
        assert res.log_norm == pytest.approx(expect, abs=1e-12)
        assert "printed-closed-form-suspected-typo" in res.flags

    def test_gamma_class_at_unit_gamma_is_exponential(self):
        spec = get("2d.1dof.gamma1.A")
        res = norm_closed_form(term_generator(spec, CFG2, (1.3,), (0,)))  # n2 = 0 -> gamma = 1
        assert res.log_norm == pytest.approx(1.3 * 1.3, abs=1e-12)

    def test_min_class_against_direct_series(self):
        spec = get("3d.3dof.min")
        z = (1.1, 0.6, 0.9)
        n3 = 2
        closed = norm_closed_form(term_generator(spec, CFG3, z, (n3,)))
        series = norm_series(term_generator(spec, CFG3, z, (n3,)))
        assert "printed-closed-form-suspected-typo" in closed.flags
        assert abs(math.expm1(closed.log_norm - series.log_norm)) <= 1e-9
        # and the corrected closed form in plain terms
        expect = (
            n3 * math.log(abs(z[2]) ** 2 / 3.0)
            - math.lgamma(n3 + 1)
            + abs(z[0]) ** 2 / 1.0
            + abs(z[1]) ** 2 / 2.0
        )
        assert closed.log_norm == pytest.approx(expect, abs=1e-12)

    def test_unavailable_for_dependent_sums(self):
        for cid, cfg in (
            ("3d.2dof.gamma1-gamma2", CFG3),
            ("2d.2dof.plain-gamma2.A", CFG2),
            ("3d.2dof.gamma12-plain3", CFG3),
        ):
            assert norm_closed_form(term_generator(get(cid), cfg, (1.0, 1.0), (0,))) is None

    @pytest.mark.parametrize(
        "cid",
        [
            "2d.1dof.plain1.B",
            "2d.1dof.plain2.C",
            "2d.1dof.gamma1.C",
            "2d.1dof.gamma2.D",
            "2d.2dof.plain-plain.C",
            "2d.2dof.gamma1-plain.B",
            "2d.2dof.gamma1-plain.D",
            "3d.2dof.plain-plain",
            "3d.2dof.plain-gamma23",
            "3d.2dof.gamma13-gamma23",
            "3d.2dof.plain-gamma32",
            "3d.2dof.gamma13-gamma32",
            "3d.3dof.min",
        ],
    )
    def test_series_matches_closed_or_factorized(self, cid):
        spec = get(cid)
        cfg = CFG3 if spec.dimension == 3 else CFG2
        z = tuple(0.9 + 0.2 * k for k in range(spec.dof))
        fixed = (2,) * len(spec.fixed)
        closed = norm_closed_form(term_generator(spec, cfg, z, fixed))
        assert closed is not None
        series = norm_series(term_generator(spec, cfg, z, fixed))
        assert abs(math.expm1(series.log_norm - closed.log_norm)) <= 1e-9


class TestState:
    def test_z_zero_puts_all_weight_on_lowest_index(self):
        st = state(get("2d.2dof.gamma1-plain.A"), CFG2, (0.0, 0.0), (0,), (6,))
        assert st.coefficient((0,)) == pytest.approx(1.0)
        assert st.total_weight() == pytest.approx(1.0, abs=1e-12)

    def test_z_zero_with_fixed_index_power_vanishes(self):
        from vcslab.structure import SpecError

        with pytest.raises(SpecError):
            state(get("2d.2dof.gamma1-plain.A"), CFG2, (0.0, 0.0), (1,), (6,))
        # two summed axes: the window sum is -inf, not a divergence
        with pytest.raises(SpecError):
            state(get("3d.3dof.min"), CFG3, (1, 1, 0), (1,), (4, 4))

    def test_poisson_weights(self):
        lam = 1.7 ** 2 / 1.0
        st = state(get("2d.1dof.plain1.A"), CFG2, (1.7,), (0,), (40,))
        for n in range(10):
            expect = math.exp(-lam) * lam ** n / math.factorial(n)
            assert abs(st.coefficient((n,))) ** 2 == pytest.approx(expect, rel=1e-10)

    def test_unit_overlap_within_tail(self):
        st = state(get("3d.2dof.gamma1-gamma2"), CFG3, (1.0, 0.8), (1,), (40, 40))
        assert st.total_weight() == pytest.approx(1.0, abs=2e-10)

    def test_coefficient_phases_follow_variable_powers(self):
        spec = get("2d.2dof.gamma1-gamma2.A")
        z = (1.0 * np.exp(0.31j), 0.7 * np.exp(-1.1j))
        st = state(spec, CFG2, z, (2,), (5,))
        k12, k21 = CFG2.ratio(1, 2), CFG2.ratio(2, 1)
        n2 = 2
        for n1 in range(4):
            expect = (n1 + k12 * n2) * 0.31 + (n2 + k21 * n1) * (-1.1)
            got = math.atan2(st.coefficient((n1,)).imag, st.coefficient((n1,)).real)
            diff = (got - expect + math.pi) % (2 * math.pi) - math.pi
            assert abs(diff) < 1e-10

    def test_state_rejects_non_normalizable_point(self):
        with pytest.raises(DivergenceError):
            state(
                get("3d.2dof.gamma13-gamma32"),
                CFG3,
                (1.0, math.sqrt(3.0)),
                (0,),
                (5, 5),
                overrides={(3, 2): 0.0},
            )
