import itertools
import math
import warnings
from collections import Counter
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from vcslab import moments, quadrature
from vcslab.cli import ALL_CHECKS, RunConfig, run_verification
from vcslab.frequencies import FrequencyConfig
from vcslab.logspace import rel_diff_from_logs
from vcslab.moments import (
    ExpTerm,
    MeasureDensity,
    _columns,
    _direct_log_moments,
    _integration_order,
    _log_moments,
    density_for,
    moment_integral,
    moment_target,
    nonuniqueness_partner,
    verify_moments,
)
from vcslab.quadrature import QuadratureDisagreement, log_moment_closed, log_moment_direct
from vcslab.registry import get, registry
from vcslab.report import dumps_deterministic
from vcslab.resolution import aliasing_solutions, selection_rule
from vcslab.special import log_gamma
from vcslab.taxonomy import _descendant_state
from vcslab.structure import LinForm, SpecError

mpmath.mp.dps = 30

CFG2 = FrequencyConfig((1.0, 2.0))
CFG3 = FrequencyConfig((1.0, 2.0, 3.0))


def _reference_log_moment(compiled, density, n):
    """The closed form one point at a time, in scalar arithmetic: the
    oracle `_log_moments` must match bit for bit."""
    e = {ct.tower: ct.z_exp.at(n) for ct in compiled.towers}
    q = {v: e.get(v, 0.0) + density.power(v) for v in density.variables}
    log_i = density.log_const
    for term in _integration_order(density):
        s = q[term.var] + 1.0
        for j, bexp in term.couplings:
            q[j] -= bexp * s
        log_i += log_moment_closed(s - 1.0) + s * term.log_scale
    for ct in compiled.towers:
        log_i -= ct.w_exp.at(n) * ct.log_w
    return float(log_i)


def _forms(compiled, points):
    """`compiled.forms_on_grid` at a list of multi-indices."""
    return compiled.forms_on_grid(_columns(points))


def _reference_log_target(compiled, n):
    return sum(log_gamma(ct.gamma_arg.at(n)) - ct.log_gamma_norm for ct in compiled.towers)


def _density(spec, cfg, fixed):
    """The density of a class compiled at these frequencies, pins and indices."""
    return density_for(spec, cfg, spec.compile(cfg, fixed))


def probe_points(n_axes, n_max):
    """The points of a moment check's probe lattice, as index tuples."""
    grid, _ = moments._lattice(n_axes, n_max)
    return [tuple(map(int, p)) for p in grid.tolist()]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _outcome(fn):
    """The bits fn returns, or the type and message of what it raises."""
    try:
        return _bits(fn())
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _gamma_density(log_s):
    """chi(u) = exp(-u/S): its moment of order q is Gamma(q+1) S^(q+1)."""
    return MeasureDensity("gamma", (1,), 0.0, (), (ExpTerm(1, log_s),))


class TestQuadraturePieces:
    @pytest.mark.parametrize("q", [0.0, 0.5, 3.0, 17.3, 41.25, 80.6])
    @pytest.mark.parametrize("log_s", [0.0, math.log(2.0), math.log(0.3)])
    def test_both_routes_hit_gamma(self, q, log_s):
        # int u^q e^(-u/S) du = Gamma(q+1) S^(q+1)
        log_g = float(mpmath.loggamma(mpmath.mpf(q) + 1))
        assert log_moment_closed(q) == pytest.approx(log_g, abs=5e-13 * max(1, abs(log_g)))
        expect = log_gamma(q + 1.0) + (q + 1.0) * log_s
        (direct,) = log_moment_direct(_gamma_density(log_s), {1: np.array([q])})
        assert direct == pytest.approx(expect, abs=1e-10 * max(1, abs(expect)))

    @pytest.mark.parametrize("q", [-0.999, -4e-15, 0.5, 80.6, 700.0, 1000.0, 1e4])
    def test_closed_route_against_mpmath(self, q):
        # 200-node Gauss-Laguerre was off by -0.02 in log at q = 700 and
        # by -41 at q = 1000; -4e-15 is an exponent that should be 0 but
        # carries rounding from its linear form
        expect = float(mpmath.loggamma(mpmath.mpf(q) + 1))
        assert log_moment_closed(q) == pytest.approx(expect, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("q", [-0.999, -0.5, -0.3, -4e-15])
    def test_gauss_route_below_zero(self, q):
        assert log_moment_closed(q) == pytest.approx(log_gamma(q + 1.0), abs=1e-12)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ValueError):
            log_moment_closed(-1.0)
        # the direct route finds no peak: the integral is +inf
        logs = log_moment_direct(_gamma_density(0.0), {1: np.array([0.5, -1.5])})
        assert math.isfinite(logs[0]) and logs[1] == math.inf

    @pytest.mark.parametrize("q", [600.0, 3000.0, 1e5, 1e7])
    def test_direct_route_at_large_exponents(self, q):
        # adaptive Simpson needed more than 2^18 panels from about q = 2400
        expect = float(mpmath.loggamma(mpmath.mpf(q) + 1) + (mpmath.mpf(q) + 1) * mpmath.log(mpmath.mpf(0.37)))
        (direct,) = log_moment_direct(_gamma_density(math.log(0.37)), {1: np.array([q])})
        assert direct == pytest.approx(expect, rel=1e-13)


class TestDensityCatalog:
    def test_canonical_exponential_density(self):
        d = _density(get("2d.1dof.plain1.A"), CFG2, (0,))
        # f(r, w1) = (1/w1) exp(-u/w1)
        assert d.log_const == pytest.approx(-math.log(1.0))
        assert d.power(1) == 0.0
        for u in (0.3, 1.0, 4.0):
            assert d.log_value({1: u}) == pytest.approx(-u / 1.0, abs=1e-12)

    def test_first_class_coupled_entry(self):
        # (1,1)C: rho1 = r2^(2 k2) f(r1 r2^k2, w1)
        d = _density(get("2d.2dof.plain-plain.C"), CFG2, (2,))
        k2 = CFG2.ratio(2, 1)
        assert d.power(2) == pytest.approx(k2)
        u = {1: 0.7, 2: 1.9}
        expect = (
            k2 * math.log(u[2])
            - math.log(1.0) - math.log(2.0)
            - u[1] * u[2] ** k2 / 1.0
            - u[2] / 2.0
        )
        assert d.log_value(u) == pytest.approx(expect, abs=1e-12)

    def test_overflowing_factor_is_minus_inf_without_a_warning(self):
        d = _density(get("2d.1dof.plain1.A"), CFG2, (0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.log_grid({1: np.array([0.0, 800.0])}).tolist() == [-1.0, -math.inf]

    def test_moment_integral_factorial_oracle(self):
        # plain class at n = 3, w = 1 -> 3! = 6
        cfg = FrequencyConfig((1.0, 1.0))
        spec = get("2d.1dof.plain1.A")
        val = moment_integral(spec, cfg, (0,), (3,))
        assert math.exp(val) == pytest.approx(6.0, rel=1e-10)

    def test_moment_integral_gamma_oracle(self):
        # deformed class with gamma = 1 + 0.5*3 = 2.5 at n1 = 2: Gamma(4.5)
        cfg = FrequencyConfig((1.0, 0.5))  # kappa12 = 0.5
        spec = get("2d.1dof.gamma1.A")
        val = moment_integral(spec, cfg, (3,), (2,))
        expect = float(mpmath.gamma(4.5))
        assert math.exp(val) == pytest.approx(expect, rel=1e-9)
        assert expect == pytest.approx(11.6317283966, rel=1e-9)

    def test_density_normalization_is_zeroth_moment(self):
        # n = 0 moment equals the zeroth factorial target (=1 for plain A)
        spec = get("2d.2dof.gamma1-gamma2.A")
        val = moment_integral(spec, CFG2, (1,), (0,))
        target = moment_target(spec, CFG2, (1,), (0,))
        assert rel_diff_from_logs(val, target) < 1e-10


class TestVerifyMoments:
    def test_forms_compiled_once_per_call(self, monkeypatch):
        # the linear forms are evaluated while compiling, not per lattice point
        calls = Counter()
        value = LinForm.value

        def counted(self, *args, **kwargs):
            calls["value"] += 1
            return value(self, *args, **kwargs)

        monkeypatch.setattr(LinForm, "value", counted)
        spec = get("3d.2dof.gamma13-gamma23")
        counts = []
        for n_range in (5, 20):
            calls.clear()
            assert verify_moments(spec, CFG3, (1,), n_range=n_range).passed
            counts.append(calls["value"])
        assert counts[0] == counts[1] > 0

    def test_cold_and_warm_runs_give_the_same_bytes(self):
        # the warm run reads descendant states and factor reports from the memos
        cfg = RunConfig(
            classes=["2d.2dof.gamma1-gamma2.A", "3d.2dof.gamma13-gamma32"],
            nmax=6,
        )
        assert cfg.checks == list(ALL_CHECKS)
        _descendant_state.cache_clear()
        cold = dumps_deterministic(run_verification(cfg))
        warm = dumps_deterministic(run_verification(cfg))
        assert warm == cold

    def test_density_reads_kappa_through_the_overrides(self):
        # kappa12 = 2 at these frequencies; the check runs at kappa12 = 0.3
        spec = get("2d.1dof.gamma1.B")
        compiled = spec.compile(CFG2.pinned({(1, 2): 0.3}), (2,))
        density = density_for(spec, CFG2, compiled)
        assert verify_moments(spec, CFG2, (2,), density=density, compiled=compiled).passed
        natural = _density(spec, CFG2, (2,))
        assert natural != density
        assert not verify_moments(spec, CFG2, (2,), density=natural, compiled=compiled).passed

    @pytest.mark.parametrize("cid", ["2d.1dof.plain1.A", "2d.1dof.gamma1.A", "2d.2dof.plain-plain.A"])
    def test_density_that_needs_no_kappa_never_reads_it(self, cid):
        # kappa12 is undefined with its reciprocal pinned to zero: a class
        # whose forms do not use it gets the density of the natural ratios,
        # and the compile of one whose forms do (the Gamma tower) raises,
        # which the CLI predicts as an undefined point
        spec = get(cid)
        pinned = CFG2.pinned({(2, 1): 0.0})
        if cid == "2d.1dof.gamma1.A":
            assert (1, 2) in spec.ratios_used()
            with pytest.raises(ZeroDivisionError):
                spec.compile(pinned, (1,))
        else:
            assert density_for(spec, pinned, spec.compile(pinned, (1,))) == _density(spec, CFG2, (1,))

    def test_plain_class_full_range(self):
        rep = verify_moments(get("2d.1dof.plain1.A"), CFG2, (0,), n_range=20)
        assert rep.passed and rep.max_residual <= 1e-8

    @pytest.mark.parametrize(
        "cid,fixed",
        [
            ("2d.1dof.plain2.D", (3,)),
            ("2d.1dof.gamma1.B", (1,)),
            ("2d.1dof.gamma2.C", (3,)),
            ("2d.2dof.plain-plain.B", (1,)),
            ("2d.2dof.plain-plain.D", (3,)),
            ("2d.2dof.gamma1-plain.C", (2,)),
            ("2d.2dof.plain-gamma2.B", (3,)),
            ("2d.2dof.plain-gamma2.C", (1,)),
            ("2d.2dof.gamma1-gamma2.B", (2,)),
            ("2d.2dof.gamma1-gamma2.D", (1,)),
        ],
    )
    def test_two_dimensional_subclasses(self, cid, fixed):
        rep = verify_moments(get(cid), CFG2, fixed, n_range=12)
        assert rep.passed, rep.as_dict()

    @pytest.mark.parametrize(
        "cid",
        ["3d.2dof.gamma13-gamma32", "3d.2dof.gamma1-gamma2", "3d.3dof.max", "3d.3dof.min"],
    )
    def test_three_dimensional_classes(self, cid):
        rep = verify_moments(get(cid), CFG3, (1,), n_range=10)
        assert rep.passed, rep.as_dict()

    def test_doubly_deformed_class_against_gamma_targets(self):
        # spot oracle: (g1,g2)A 2D at n1 = 2, n2 = 3 target Gamma(g1+2)Gamma(g2+3)
        spec = get("2d.2dof.gamma1-gamma2.A")
        k1, k2 = CFG2.ratio(1, 2), CFG2.ratio(2, 1)
        val = moment_integral(spec, CFG2, (3,), (2,))
        expect = float(mpmath.gamma(1 + 3 * k1 + 2) * mpmath.gamma(1 + 2 * k2 + 3))
        assert math.exp(val) == pytest.approx(expect, rel=1e-9)

    def test_tampered_density_fails(self):
        spec = get("2d.1dof.plain1.A")
        good = _density(spec, CFG2, (0,))
        bad = good.perturbed(1, 1.01)
        rep = verify_moments(spec, CFG2, (0,), n_range=12, density=bad)
        assert not rep.passed
        # residual grows roughly like n * 1%
        worst = rep.max_residual
        assert worst > 0.05

    def test_shifted_plain_class_moments(self):
        # target becomes w^n (1+alpha)_n; at n=2, alpha=1/2, w=1: 1.5*2.5
        cfg = FrequencyConfig((1.0, 1.0), shifts=(0.5, 0.5))
        spec = get("2d.1dof.plain1.A")
        val = moment_integral(spec, cfg, (0,), (2,))
        assert math.exp(val) == pytest.approx(3.75, rel=1e-10)
        rep = verify_moments(spec, cfg, (0,), n_range=15)
        assert rep.passed

    def test_shifted_smart_classes_still_pass(self):
        cfg = FrequencyConfig((1.0, 2.0, 3.0), shifts=(0.5, 0.25, 1.0))
        for cid in ("3d.2dof.gamma1-gamma2", "3d.3dof.min"):
            rep = verify_moments(get(cid), cfg, (2,), n_range=8)
            assert rep.passed, rep.as_dict()

    def test_variant_subclasses_reject_shifts(self):
        cfg = FrequencyConfig((1.0, 2.0), shifts=(0.5, 0.0))
        with pytest.raises(SpecError):
            verify_moments(get("2d.2dof.plain-plain.C"), cfg, (1,))


# Six densities written out by hand, from the per-family formulas that
# moments.py held before its recipe, at zero shift:
# (log constant, powers, exp terms (variable, log S, couplings)) from the
# log frequencies l1 and l2, the ratios k12 and k21 and the fixed index n.
HAND_TABLE = {
    "2d.1dof.plain1.A": lambda l1, l2, k12, k21, n: (-l1, {}, [(1, l1, ())]),
    "2d.1dof.gamma1.B": lambda l1, l2, k12, k21, n: (-l1, {1: k12 * n}, [(1, l1, ())]),
    "2d.2dof.plain-plain.C": lambda l1, l2, k12, k21, n: (
        -l2 - l1, {2: k21}, [(1, l1, ((2, k21),)), (2, l2, ())]
    ),
    "2d.2dof.gamma1-plain.D": lambda l1, l2, k12, k21, n: (
        -l2 - n * l2 - (l1 + k21 * l2), {2: k21 + n}, [(1, l1 + k21 * l2, ((2, k21),)), (2, l2, ())]
    ),
    "2d.2dof.plain-gamma2.B": lambda l1, l2, k12, k21, n: (
        -l2 - l1, {2: -k21}, [(1, l1, ((2, -k21),)), (2, l2, ())]
    ),
    "2d.2dof.gamma1-gamma2.D": lambda l1, l2, k12, k21, n: (
        -l2 + n * l2 - (l1 - k21 * l2), {2: -(k21 + n)}, [(1, l1 - k21 * l2, ((2, -k21),)), (2, l2, ())]
    ),
}

CFG_IRR = FrequencyConfig((1.37, 2.91))
KAPPA = {(2, 1): 0.3}


def _close(a, b):
    return abs(a - b) <= 1e-15 * max(abs(a), abs(b))


class TestSolveGeneralized:
    """The recipe solves each class's generalized moment problem."""

    @pytest.mark.parametrize("cid", sorted(HAND_TABLE))
    def test_recipe_matches_hand_table(self, cid):
        spec = get(cid)
        l1, l2 = math.log(1.37), math.log(2.91)
        for overrides in (None, KAPPA):
            cfg = CFG_IRR.pinned(overrides or {})
            k12, k21 = cfg.ratio(1, 2), cfg.ratio(2, 1)
            for n in (0, 2):
                d = _density(spec, cfg, (n,))
                log_const, powers, terms = HAND_TABLE[cid](l1, l2, k12, k21, n)
                where = (n, overrides)
                assert _close(d.log_const, log_const), where
                assert all(_close(d.power(v), powers.get(v, 0.0)) for v in d.variables), where
                assert [(t.var, [j for j, _ in t.couplings]) for t in d.exp_terms] == [
                    (var, [j for j, _ in couplings]) for var, _, couplings in terms
                ], where
                for t, (_, log_s, couplings) in zip(d.exp_terms, terms):
                    assert _close(t.log_scale, log_s), where
                    assert all(_close(b, c) for (_, b), (_, c) in zip(t.couplings, couplings)), where

    def test_plainplain_unit_tuple_gives_product_density(self):
        # b = b' = 0 on both towers is (1,1)A: the product of the two
        # one-variable plain densities, uncoupled
        d = _density(get("2d.2dof.plain-plain.A"), CFG2, (2,))
        f1 = _density(get("2d.1dof.plain1.A"), CFG2, (2,))
        f2 = _density(get("2d.1dof.plain2.A"), CFG2, (0,))
        assert not any(t.couplings for t in d.exp_terms)
        u = {1: 0.9, 2: 1.4}
        assert d.log_value(u) == pytest.approx(f1.log_value({1: 0.9}) + f2.log_value({2: 1.4}), abs=1e-12)

    def test_gammaplain_base_tuple_matches_catalog(self):
        # (g1,1)A: the matched Gamma tower's f(r1, w1) times the plain f(r2, w2)
        d = _density(get("2d.2dof.gamma1-plain.A"), CFG2, (3,))
        f1 = _density(get("2d.1dof.gamma1.A"), CFG2, (3,))
        f2 = _density(get("2d.1dof.plain2.A"), CFG2, (0,))
        for u in ({1: 0.5, 2: 0.8}, {1: 2.0, 2: 3.0}):
            expect = f1.log_value({1: u[1]}) + f2.log_value({2: u[2]})
            assert d.log_value(u) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize(
        "form,family",
        [
            ("PlainPlain", "plain-plain"),
            ("GammaPlain", "gamma1-plain"),
            ("PlainGamma", "plain-gamma2"),
            ("GammaGamma", "gamma1-gamma2"),
        ],
    )
    def test_every_registered_tuple_reproduces_catalog(self, form, family):
        # form names the factorial forms of the two towers; each sub-class,
        # A to D, solves its moment problem on both routes at both fixed
        # indices of the hand table, with and without the override
        specs = [s for s in registry() if s.family == family and s.dimension == 2]
        assert [s.subclass for s in specs] == ["A", "B", "C", "D"]
        for spec in specs:
            assert "".join("Plain" if tw.normalized else "Gamma" for tw in spec.towers) == form
            for n in (0, 2):
                for overrides in (None, KAPPA):
                    compiled = spec.compile(CFG_IRR.pinned(overrides or {}), (n,))
                    rep = verify_moments(
                        spec, CFG_IRR, (n,), n_range=12,
                        density=density_for(spec, CFG_IRR, compiled), compiled=compiled,
                    )
                    assert rep.passed, (spec.id, n, overrides, rep.max_residual)

    @pytest.mark.parametrize("tower", [0, 1])
    def test_moved_gamma_constant_fails_its_moment_check(self, tower):
        # the compile of gamma_t + 1 on one tower: its Gamma constant and
        # both gaps move by 1, and the density read from it fails the class
        spec = get("2d.2dof.gamma1-gamma2.D")
        compiled = spec.compile(CFG_IRR, (2,))
        assert verify_moments(spec, CFG_IRR, (2,), compiled=compiled).passed
        ct = compiled.towers[tower]
        moved = replace(
            ct, gamma_arg=replace(ct.gamma_arg, const=ct.gamma_arg.const + 1.0),
            z_gap=ct.z_gap + 1.0, w_gap=ct.w_gap - 1.0,
        )
        towers = tuple(moved if c is ct else c for c in compiled.towers)
        bad = density_for(spec, CFG_IRR, replace(compiled, towers=towers))
        assert not verify_moments(spec, CFG_IRR, (2,), density=bad, compiled=compiled).passed

    def test_flipped_coupling_sign_fails_its_moment_check(self):
        spec = get("2d.2dof.plain-plain.C")
        compiled = spec.compile(CFG_IRR, (2,))
        good = density_for(spec, CFG_IRR, compiled)
        first, second = good.exp_terms
        ((j, b),) = first.couplings
        bad = replace(good, exp_terms=(replace(first, couplings=((j, -b),)), second))
        assert verify_moments(spec, CFG_IRR, (2,), density=good, compiled=compiled).passed
        assert not verify_moments(spec, CFG_IRR, (2,), density=bad, compiled=compiled).passed


class TestArrayMomentPath:
    @pytest.mark.parametrize("omegas", [(1.0, 2.0, 3.0), (1.37, 2.91, 0.73)])
    def test_probe_lattices_match_point_by_point_scan(self, omegas):
        for spec in registry():
            cfg = FrequencyConfig(omegas[: spec.dimension])
            fixed = (1,) * len(spec.fixed)
            compiled = spec.compile(cfg, fixed)
            density = density_for(spec, cfg, compiled)
            points = probe_points(len(spec.summed), 10)
            want = _outcome(lambda: [
                _reference_log_moment(compiled, density, n) for n in points
            ])
            forms = _forms(compiled, points)
            assert _outcome(lambda: _log_moments(compiled, density, forms)) == want, spec.id
            targets = [_reference_log_target(compiled, n) for n in points]
            assert _bits(compiled.log_target_grid(_columns(points))) == _bits(targets), spec.id

    @pytest.mark.parametrize("n_range", [0, 1, 10, 20])
    def test_verify_moments_matches_point_by_point_scan(self, n_range):
        omegas = (1.37, 2.91, 0.73)
        for spec in registry():
            cfg = FrequencyConfig(omegas[: spec.dimension])
            fixed = (1,) * len(spec.fixed)
            compiled = spec.compile(cfg, fixed)
            density = density_for(spec, cfg, compiled)
            want = [
                (",".join(map(str, n)), rel_diff_from_logs(
                    _reference_log_moment(compiled, density, n), _reference_log_target(compiled, n)
                ))
                for n in probe_points(len(spec.summed), n_range)
            ]
            got = verify_moments(spec, cfg, fixed, n_range=n_range).residuals
            assert [k for k, _ in got] == [k for k, _ in want], spec.id
            assert _bits([v for _, v in got]) == _bits([v for _, v in want]), spec.id

    def test_gram_basis_and_aliased_midpoints_match_scan(self):
        spec = get("3d.2dof.gamma1-gamma2")
        cfg = FrequencyConfig((2.0, 1.0, 3.0))  # kappa12 = 1/2 aliases
        compiled = spec.compile(cfg, (1,))
        density = density_for(spec, cfg, compiled)
        nmax = 6
        basis = list(itertools.product(range(nmax + 1), repeat=2))
        midpoints = []
        for delta in aliasing_solutions(selection_rule(spec, cfg), nmax):
            for m in basis:
                mp = tuple(a + d for a, d in zip(m, delta))
                if all(0 <= v <= nmax for v in mp) and mp > m:
                    midpoints.append([0.5 * (a + b) for a, b in zip(m, mp)])
        assert midpoints
        for points in (basis, midpoints):
            want = [_reference_log_moment(compiled, density, n) for n in points]
            assert _bits(_log_moments(compiled, density, _forms(compiled, points))) == _bits(want)

    def test_perturbed_density_matches_scan_and_still_fails(self):
        spec = get("2d.1dof.plain1.A")
        compiled = spec.compile(CFG2, (0,))
        bad = density_for(spec, CFG2, compiled).perturbed(1, 1.01)
        points = probe_points(1, 12)
        want = [_reference_log_moment(compiled, bad, n) for n in points]
        assert _bits(_log_moments(compiled, bad, _forms(compiled, points))) == _bits(want)
        assert not verify_moments(spec, CFG2, (0,), n_range=12, density=bad).passed

    def test_divergent_point_raises_what_a_scan_raises(self):
        # with these powers the Gamma arguments are n1 + 2 n2 - 2 and
        # n1/2 + n2 - 3/2: (1, 1) diverges in its second factor and
        # (0, 0) in both, so a scan stops at (1, 1)
        spec = get("3d.2dof.gamma1-gamma2")
        compiled = spec.compile(CFG3, (1,))
        density = density_for(spec, CFG3, compiled)
        bad = MeasureDensity(density.spec_id, density.variables, density.log_const,
                             ((1, -6.0), (2, -4.0)), density.exp_terms)
        points = [(3, 3), (1, 1), (0, 0)]
        want = _outcome(lambda: [_reference_log_moment(compiled, bad, n) for n in points])
        assert want == ("ValueError", "log_gamma requires x > 0, got 0.0")
        assert _outcome(lambda: _log_moments(compiled, bad, _forms(compiled, points))) == want


class TestDirectRoute:
    @pytest.mark.parametrize("omegas", [(1.0, 2.0, 3.0), (1.37, 2.91, 0.73)])
    def test_agrees_with_closed_form_on_every_probe_point(self, omegas):
        for spec in registry():
            cfg = FrequencyConfig(omegas[: spec.dimension])
            fixed = (1,) * len(spec.fixed)
            compiled = spec.compile(cfg, fixed)
            density = density_for(spec, cfg, compiled)
            points = probe_points(len(spec.summed), 20)
            forms = _forms(compiled, points)
            closed = _log_moments(compiled, density, forms)
            direct = _direct_log_moments(compiled, density, forms)
            assert np.abs(np.expm1(direct - closed)).max() <= 1e-9, spec.id

    def test_takes_no_matrix_inverse(self, monkeypatch):
        # a density's couplings run from coupled terms to uncoupled
        # variables, so A^-1 = I - B is read off its terms, not solved for
        def refuse(a):
            raise AssertionError("np.linalg.inv was called")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        for spec in registry():
            cfg = FrequencyConfig(CFG3.omegas[: spec.dimension])
            assert verify_moments(spec, cfg, (1,) * len(spec.fixed)).passed, spec.id

    def test_reduction_tamper_is_caught(self, monkeypatch):
        # integrating the exponential factors in the wrong order gives the
        # closed form wrong exponents; the direct route never uses them
        spec = get("2d.2dof.gamma1-gamma2.D")
        integration_order = moments._integration_order
        monkeypatch.setattr(moments, "_integration_order", lambda d: integration_order(d)[::-1])
        with pytest.raises(QuadratureDisagreement, match=r"\(2d\.2dof\.gamma1-gamma2\.D\)"):
            verify_moments(spec, CFG2, (2,))

    def test_perturbed_coupled_density_fails_with_agreeing_routes(self):
        # both routes integrate a tampered density correctly, so its check
        # fails on residuals, not on a disagreement
        spec = get("2d.2dof.gamma1-gamma2.D")
        bad = _density(spec, CFG2, (1,)).perturbed(1, 1.01)
        rep = verify_moments(spec, CFG2, (1,), n_range=12, density=bad)
        assert not rep.passed and rep.max_residual > 0.01


class TestDensityStructure:
    """A MeasureDensity refuses, where it is built, the structures neither
    moment route can integrate."""

    def test_a_missing_exponential_factor_is_refused(self):
        # without u2's factor the integral diverges; the closed route once
        # returned log 0.5 for it and the resolution check a numeric fail
        spec = get("2d.2dof.plain-plain.A")
        d = _density(spec, CFG2, (1,))
        with pytest.raises(ValueError, match="one exponential factor per variable is required"):
            replace(d, exp_terms=d.exp_terms[:1])

    def test_a_coupling_to_an_absent_variable_is_refused(self):
        # both routes once ended in a KeyError
        with pytest.raises(SpecError, match="couples to u3, which the density lacks"):
            MeasureDensity("absent", (1, 2), 0.0, (), (
                ExpTerm(1, 0.0, couplings=((3, 0.5),)),
                ExpTerm(2, 0.0),
            ))

    def test_cyclic_couplings_are_refused(self):
        # the direct route takes A^-1 = I - B, which holds only while no
        # coupled term is coupled to
        with pytest.raises(SpecError, match="cyclic"):
            MeasureDensity("cyclic", (1, 2), 0.0, (), (
                ExpTerm(1, 0.0, couplings=((2, 0.5),)),
                ExpTerm(2, 0.0, couplings=((1, 0.5),)),
            ))


class TestNonUniqueness:
    def test_two_densities_same_moments(self):
        spec = get("2d.2dof.gamma1-plain.B")
        fixed = (2,)
        d1 = _density(spec, CFG2, fixed)
        d2 = nonuniqueness_partner(spec, CFG2, fixed)
        rep1 = verify_moments(spec, CFG2, fixed, n_range=15, density=d1)
        rep2 = verify_moments(spec, CFG2, fixed, n_range=15, density=d2)
        assert rep1.passed and rep2.passed
        # genuinely different densities pointwise
        u = {1: 1.0, 2: 1.0}
        assert abs(d1.log_value(u) - d2.log_value(u)) > 0.1


class TestDeformationContinuity:
    def test_densities_deform_smoothly(self):
        # gamma-family one-variable density at kappa -> 0 approaches the
        # plain one pointwise (sup over r in [0, 10 sqrt(w)])
        spec_g = get("2d.1dof.gamma1.B")
        spec_p = get("2d.1dof.plain1.A")
        cfg_small = FrequencyConfig((1.0, 1e-8))  # kappa12 = 1e-8
        d_g = _density(spec_g, cfg_small, (3,))
        d_p = _density(spec_p, cfg_small, (3,))
        sup = 0.0
        for k in range(1, 101):
            u = (k / 100.0 * 10.0) ** 2
            diff = abs(math.exp(d_g.log_value({1: u})) - math.exp(d_p.log_value({1: u})))
            sup = max(sup, diff)
        assert sup <= 1e-6


class TestLattice:
    def test_probe_lattice_shapes(self):
        assert probe_points(1, 5) == [(n,) for n in range(6)]
        pts = probe_points(2, 20)
        assert (20, 20) in pts and (20, 0) in pts and (0, 20) in pts
        assert all(max(p) <= 20 for p in pts)

    def test_cached_lattice_is_read_only(self):
        grid, labels = moments._lattice(2, 20)
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 1.0
        assert moments._lattice(2, 20)[0] is grid
        assert labels == tuple(",".join(map(str, p)) for p in probe_points(2, 20))
        assert labels[-1] == "20,20"

    @pytest.mark.parametrize("n_axes", [1, 2])
    def test_route_ends_at_n_range_0_are_one_point(self, n_axes, monkeypatch):
        # the lattice at n_range 0 is n = 0 alone, so both route ends are it
        spec = next(s for s in registry() if len(s.summed) == n_axes)
        cfg = CFG3 if spec.dimension == 3 else CFG2
        fixed = (1,) * len(spec.fixed)
        handed = []
        direct = moments.log_moment_direct

        def spy(density, exponents):
            handed.append({t: e.tolist() for t, e in exponents.items()})
            return direct(density, exponents)

        monkeypatch.setattr(moments, "log_moment_direct", spy)
        rep = verify_moments(spec, cfg, fixed, n_range=0)
        assert [k for k, _ in rep.residuals] == [",".join("0" * n_axes)]
        origin = {ct.tower: ct.z_exp.const for ct in spec.compile(cfg, fixed).towers}
        assert handed == [{t: [e, e] for t, e in origin.items()}]

    def test_cached_node_layout_is_read_only(self):
        for array in quadrature._node_layout(((0,), (1, 2))):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 1
