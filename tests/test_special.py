import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vcslab import special
from vcslab.logspace import logsumexp, rel_diff_from_logs, rel_diffs_from_logs
from vcslab.special import _TABLE_SIZE, _upper_gamma_q, hyp1f1_one_closed, log_gamma, log_gamma_grid

mpmath.mp.dps = 40


def mp_log_gamma(x):
    return float(mpmath.log(mpmath.gamma(mpmath.mpf(x))))


def pochhammer(gamma, n):
    """log of the rising factorial Gamma(gamma+n)/Gamma(gamma), as the norm terms form it."""
    return log_gamma(gamma + n) - log_gamma(gamma)


def hyp1f1_one_series(b, x):
    """Reference log 1F1(1;b;x) by direct summation: (log value, relative tail bound)."""
    term = 1.0
    total = 1.0
    k = 0
    while term >= total * 1e-17:
        term *= x / (b + k)
        total += term
        k += 1
    r = x / (b + k)
    tail = term * r / (1.0 - r) if r < 1.0 else float("inf")
    return math.log(total), tail / total


def lower_incomplete_gamma(a, x):
    """log gamma(a, x) = log(x^a e^-x 1F1(1; a+1; x) / a): the 1F1 closed form at b = a + 1."""
    if x == 0.0:
        return -math.inf
    return a * math.log(x) - x - math.log(a) + hyp1f1_one_closed(a + 1.0, x)


class TestLogGamma:
    def test_trivial_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5723649429247001, rel=1e-13)
        assert math.exp(log_gamma(6.0)) == pytest.approx(120.0, rel=1e-13)

    @pytest.mark.parametrize(
        "x", [0.5, 0.7, 1.0, 1.5, 2.0, 3.7, 10.0, 55.3, 171.6, 1e3, 1e4, 1e6]
    )
    def test_against_high_precision(self, x):
        exact = mp_log_gamma(x)
        got = log_gamma(x)
        assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.3)

    @given(st.floats(min_value=0.5, max_value=1e5))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x):
        # Gamma(x+1) = x Gamma(x), exact up to rounding in log space
        lhs = log_gamma(x + 1.0)
        rhs = log_gamma(x) + math.log(x)
        assert lhs == pytest.approx(rhs, abs=1e-11 * max(1.0, abs(rhs)))


def _ulps_off(got: float, exact) -> float:
    """|got - exact| in ulps of max(1, |exact|)."""
    return float(abs(mpmath.mpf(got) - exact)) / math.ulp(max(1.0, abs(float(exact))))


class TestLogGammaAccuracy:
    """math.lgamma against 40-digit mpmath, over the whole positive float range."""

    def test_within_eight_ulps(self):
        rng = np.random.default_rng(11)
        xs = np.concatenate([
            10.0 ** rng.uniform(-300.0, 300.0, 800),
            10.0 ** rng.uniform(-3.0, 4.0, 800),
            np.arange(0.5, 200.0, 1.0),  # half-integers
            1.0 + rng.uniform(-0.05, 0.05, 200),  # around the zeros at 1 and 2
            2.0 + rng.uniform(-0.05, 0.05, 200),
            [5e-324, 1e-300, 1e300, 1e305],
        ])
        worst = max(_ulps_off(log_gamma(float(x)), mpmath.loggamma(mpmath.mpf(float(x)))) for x in xs)
        assert worst <= 8.0

    def test_past_the_float_range_is_inf(self):
        # log Gamma(x) passes the largest float near x = 2.6e305
        for x in (1e306, 1.7976931348623157e308, math.inf):
            assert log_gamma(x) == math.inf


# integers on both sides of the table bound, half-integers, and the extremes
_GRID_ELEMENTS = st.one_of(
    st.integers(1, 3 * _TABLE_SIZE).map(float),
    st.integers(0, 3 * _TABLE_SIZE).map(lambda k: k + 0.5),
    st.floats(min_value=5e-324, max_value=1e300, allow_nan=False),
    st.sampled_from([1e-300, 1e300, 1e306, float(_TABLE_SIZE - 1), float(_TABLE_SIZE)]),
)
_BAD_ELEMENTS = st.sampled_from([0.0, -0.0, -1.0, -2.5, np.nan, -np.inf])


class TestLogGammaGrid:
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=6), elements=_GRID_ELEMENTS))
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_bit_for_bit(self, x):
        got = log_gamma_grid(x)
        assert got.shape == x.shape
        want = [log_gamma(float(v)) for v in x.flat]
        assert [float(v) for v in got.flat] == want

    @given(
        hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=6), elements=_GRID_ELEMENTS),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_first_bad_point_in_c_order_raises(self, x, data):
        for _ in range(data.draw(st.integers(1, 3))):
            x.flat[data.draw(st.integers(0, x.size - 1))] = data.draw(_BAD_ELEMENTS)
        with pytest.raises(ValueError) as scalar:
            [log_gamma(float(v)) for v in x.flat]
        with pytest.raises(ValueError) as grid:
            log_gamma_grid(x)
        assert str(grid.value) == str(scalar.value)

    def test_zero_dimensional(self):
        assert float(log_gamma_grid(np.asarray(3.5))) == log_gamma(3.5)


class TestRegularizedGammaP:
    """P(a, x) = 1 - Q(a, x) from the continued fraction, where the 1F1 closed form uses it."""

    @pytest.mark.parametrize("a", [1e-3, 0.1, 0.5, 1.0, 2.5, 9.99, 10.0, 37.0, 1e3, 1e5, 1e6])
    @pytest.mark.parametrize("offset", [1.0, 1.5, 3.0, 10.0])
    def test_against_high_precision(self, a, offset):
        # x = a + 1 and then offset standard deviations past the mean a
        x = a + 1.0 if offset == 1.0 else a + offset * max(1.0, math.sqrt(a))
        q = mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x), mpmath.inf, regularized=True)
        got = 1.0 - _upper_gamma_q(a, x)
        assert abs(got - (1 - q)) <= 1e-13 * (1 - q)
        # Q itself to a relative 1e-14 per unit of x - a, where it is a normal float
        if q > 1e-300:
            assert abs(_upper_gamma_q(a, x) - q) <= 1e-14 * (1.0 + x - a) * q


    @pytest.mark.parametrize("sigmas", [0.0, 0.3, 1.0, 3.0])
    def test_normal_limit_takes_over_within_its_bound(self, sigmas, monkeypatch):
        # at a = 1e10 the normal limit and the fraction differ by about the
        # next term of the uniform expansion, at most 1/(3 sqrt(2 pi a))
        # = 0.133/sqrt(a) plus terms of order 1/a
        a = special._NORMAL_FROM
        x = a + max(1.0, sigmas * math.sqrt(a))
        limit = _upper_gamma_q(a, x)
        monkeypatch.setattr(special, "_NORMAL_FROM", math.inf)
        assert abs(_upper_gamma_q(a, x) - limit) <= 0.14 / math.sqrt(a)

    @pytest.mark.parametrize("a, x", [(1e-8, math.inf), (5.0, math.nan)])
    def test_non_finite_argument_is_a_domain_error(self, a, x):
        # the fraction never converges on these: a ValueError, not an
        # ArithmeticError after every step
        with pytest.raises(ValueError, match="requires finite a and x"):
            _upper_gamma_q(a, x)


class TestPochhammer:
    """Rising factorials are log_gamma differences: the form of every generalized factorial."""

    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 0.0

    def test_plain_factorial(self):
        assert math.exp(pochhammer(1.0, 5)) == pytest.approx(120.0, rel=1e-13)

    def test_direct_product_oracle(self):
        # 2.5 * 3.5 * 4.5 = 39.375
        assert math.exp(pochhammer(2.5, 3)) == pytest.approx(39.375, rel=1e-13)

    @pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 7.25])
    @pytest.mark.parametrize("n", [1, 7, 50, 200])
    def test_matches_running_product(self, gamma, n):
        log_direct = sum(math.log(gamma + k) for k in range(n))
        assert pochhammer(gamma, n) == pytest.approx(log_direct, abs=1e-12 * max(1.0, log_direct))

    def test_recurrence_additivity(self):
        for gamma in (1.0, 2.5, 11.0):
            for n in (0, 1, 6, 40):
                step = pochhammer(gamma, n + 1)
                base = pochhammer(gamma, n) + math.log(gamma + n)
                assert step == pytest.approx(base, abs=1e-13 * max(1.0, abs(base)))

    def test_gamma_dominates_factorial(self):
        # Gamma(gamma+n) >= n! for gamma >= 1, n >= 1
        for gamma in (1.0, 1.2, 2.9, 8.0):
            for n in (1, 3, 17, 90):
                assert log_gamma(gamma + n) >= log_gamma(n + 1.0) - 1e-12


class TestUpperIncompleteGamma:
    """Gamma(a, x) = Gamma(a) - gamma(a, x), with the lower part from the 1F1 closed form."""

    def test_exponential_tail(self):
        # Gamma(1, x) = e^-x, so gamma(1, x) = 1 - e^-x
        for x in (0.1, 1.0, 30.0, 200.0):
            assert math.exp(lower_incomplete_gamma(1.0, x)) == pytest.approx(-math.expm1(-x), rel=1e-12)

    def test_adaptive_quadrature_oracle(self):
        # Gamma(2,1) = 2/e, so gamma(2,1) = 1 - 2/e, frozen from the quad oracle below
        assert math.exp(lower_incomplete_gamma(2.0, 1.0)) == pytest.approx(0.2642411176571153, rel=1e-12)
        from scipy.integrate import quad

        val, _ = quad(lambda t: t * math.exp(-t), 0.0, 1.0)
        assert math.exp(lower_incomplete_gamma(2.0, 1.0)) == pytest.approx(val, rel=1e-10)

    @pytest.mark.parametrize("a", [0.25, 1.0, 2.0, 7.5, 23.0, 50.0])
    @pytest.mark.parametrize("x", [0.0, 0.4, 1.0, 6.0, 24.0, 80.0, 200.0])
    def test_against_high_precision(self, a, x):
        a_mp, x_mp = mpmath.mpf(a), mpmath.mpf(x)
        got = lower_incomplete_gamma(a, x)
        exact = mpmath.gammainc(a_mp, 0, x_mp)
        if x == 0.0:
            assert got == -math.inf
        else:
            log_exact = float(mpmath.log(exact))
            assert abs(got - log_exact) <= 1e-12 * max(1.0, abs(log_exact))
        # the split adds back up to Gamma(a) with mpmath's upper part
        total = float(mpmath.gammainc(a_mp, x_mp)) + math.exp(got)
        assert total == pytest.approx(math.exp(log_gamma(a)), rel=1e-12)


class TestHyp1F1One:
    def test_collapses_to_exponential(self):
        for x in (0.0, 0.5, 3.0, 25.0):
            assert hyp1f1_one_closed(1.0, x) == pytest.approx(x, abs=1e-12 * max(1.0, x))

    def test_empty_sum(self):
        for b in (1.0, 1.5, 2.0, 40.0):
            assert hyp1f1_one_closed(b, 0.0) == 0.0

    def test_direct_series_oracle(self):
        # 1F1(1;2;x) = (e^x - 1)/x, at x = 1: e - 1
        assert math.exp(hyp1f1_one_closed(2.0, 1.0)) == pytest.approx(math.e - 1.0, rel=1e-12)

    @pytest.mark.parametrize("b", [1.0, 1.5, 2.0, 5.0])
    @pytest.mark.parametrize("x", [0.0, 0.01, 0.7, 3.0, 10.0, 25.0])
    def test_series_vs_closed_form_grid(self, b, x):
        series, tail = hyp1f1_one_series(b, x)
        closed = hyp1f1_one_closed(b, x)
        assert rel_diff_from_logs(series, closed) <= 1e-9
        assert tail <= 1e-12

    # both sides of the x = b switch, and b = 150, 400 where the closed
    # form's P(b-1, x) underflows for small x
    @pytest.mark.parametrize("b", [1.0, 1.5, 1.7, 2.0, 4.0, 5.0, 21.5, 150.0, 400.0])
    @pytest.mark.parametrize(
        "x", [0.0, 1e-6, 0.01, 0.1, 0.3, 0.7, 2.0, 3.0, 10.0, 18.0, 25.0, 399.5]
    )
    def test_against_high_precision(self, b, x):
        exact = float(mpmath.log(mpmath.hyp1f1(1, mpmath.mpf(b), mpmath.mpf(x))))
        got = hyp1f1_one_closed(b, x)
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyp1f1_one_closed(0.5, 1.0)
        with pytest.raises(ValueError):
            hyp1f1_one_closed(2.0, -0.1)

    @pytest.mark.parametrize("b", [1.0, 1.0 + 1e-8, 2.0])
    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_non_finite_x_is_a_domain_error(self, b, x):
        # at b near 1 and x = inf the continued fraction of Q never
        # converged and raised a bare ArithmeticError
        with pytest.raises(ValueError, match="finite x >= 0"):
            hyp1f1_one_closed(b, x)


class TestStirlingRatio:
    def test_exact_log_gamma_oracle(self):
        # Gamma(101)/Gamma(100) = 100 exactly
        exact = math.exp(log_gamma(101.0) - log_gamma(100.0))
        assert exact == pytest.approx(100.0, rel=1e-12)

    def test_power_law_asymptote_improves(self):
        # Gamma(1+k n + m)/Gamma(1+k(n+1)+m) vs (1+k(n+1)+m)^(-k), k = 0.5, m = 2
        k, m = 0.5, 2.0

        def err(n):
            num = 1.0 + k * n + m
            den = 1.0 + k * (n + 1) + m
            exact_ratio = math.exp(log_gamma(num) - log_gamma(den))
            return abs(exact_ratio - den ** (-k))

        assert err(400) < err(100) < err(25)


class TestLogValue:
    """Values carried as float logs: relative differences and the P(a, x) bounds."""

    def test_rel_diff_from_logs_cases(self):
        ninf = -math.inf
        assert rel_diff_from_logs(ninf, ninf) == 0.0
        assert rel_diff_from_logs(2.0, ninf) == math.inf
        assert rel_diff_from_logs(ninf, 2.0) == 1.0
        assert rel_diff_from_logs(0.5, 2.0) == abs(math.expm1(-1.5))

    def test_rel_diff_past_the_float_range_is_inf(self):
        assert rel_diff_from_logs(800.0, 0.0) == math.inf
        assert rel_diff_from_logs(0.0, 800.0) == 1.0
        assert rel_diff_from_logs(1.0, 0.0) == math.expm1(1.0)

    def test_list_rel_diffs_match_the_pointwise_rule(self):
        def pointwise(log_a, log_b):
            if log_b == -math.inf:
                return 0.0 if log_a == -math.inf else math.inf
            if log_a == -math.inf:
                return 1.0
            try:
                return abs(math.expm1(log_a - log_b))
            except OverflowError:
                return math.inf

        values = [-math.inf, math.inf, math.nan, -800.0, -1.5, -0.0, 0.0, 1e-17, 0.5, 2.0, 709.0, 800.0]
        pairs = list(itertools.product(values, repeat=2))
        got = rel_diffs_from_logs(np.array([a for a, _ in pairs]), [b for _, b in pairs])
        want = [pointwise(a, b) for a, b in pairs]
        assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()

    def test_lower_regularized_bounds(self):
        # P(a, x) = gamma(a, x) / Gamma(a) lies in [0, 1] on both sides of the x = b switch
        for a in (0.5, 3.0, 20.0):
            for x in (0.0, 0.1, a, 10 * a + 5):
                p = math.exp(lower_incomplete_gamma(a, x)) / math.exp(log_gamma(a))
                assert -1e-15 <= p <= 1.0 + 1e-15


# small logs keep the error bound below at its tightest
_LOG_ELEMENTS = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-800.0, max_value=800.0),
    st.floats(min_value=-1e308, max_value=1e308),
    st.sampled_from([-np.inf, np.inf, np.nan, 0.0, -0.0]),
)


@st.composite
def _log_arrays(draw):
    """Arrays shaped as the norm and quadrature sums pass them."""
    a = draw(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=12),
        elements=_LOG_ELEMENTS,
    ))
    kind = draw(st.sampled_from(["whole", "tie", "all -inf", "column", "appended"]))
    if kind == "tie":
        a.flat[draw(st.integers(0, a.size - 1))] = a.max()
    elif kind == "all -inf":
        a[...] = -np.inf
    elif kind == "column" and a.ndim == 2:
        a = a[:, draw(st.integers(0, a.shape[1] - 1))]  # strided, as logs[:, n2]
    elif kind == "appended":
        a = np.append(a, -np.inf)  # a window with a vanished term, as in _certified_sum
    return a


def _same_float(x: float, y: float) -> bool:
    return (math.isnan(x) and math.isnan(y)) or (
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
    )


def _mp_logsumexp(a) -> float:
    """log(sum(exp(a))) in 50-digit mpmath.  Terms below e^-1000 of the
    largest are left out: together they are far below those 50 digits."""
    flat = np.ravel(a).tolist()
    if any(math.isnan(x) for x in flat):
        return math.nan
    m = max(flat, default=-math.inf)
    if not math.isfinite(m):
        return m
    with mpmath.workdps(50):
        top = mpmath.mpf(m)
        s = mpmath.fsum(mpmath.exp(mpmath.mpf(x) - top) for x in flat if x - m > -1000.0)
        return float(top + mpmath.log(s))


class TestLogSumExp:
    @given(_log_arrays())
    @settings(max_examples=600, deadline=None)
    def test_within_an_eps_of_mpmath(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning either
            got = logsumexp(a)
        want = _mp_logsumexp(a)
        if math.isfinite(want):
            # log(sum) is rounded before the max m is added back, so the
            # error scales with |log(sum)| <= |m| + |result|: at 56 ties of
            # -3 it is 2 eps at a result of 1.03, as it was with scipy's kernel
            m = float(np.max(a))
            assert abs(got - want) <= np.finfo(float).eps * max(abs(m) + abs(want), 1.0)
        else:
            assert _same_float(got, want)

    @pytest.mark.parametrize("a", [
        [0.0],
        [1.0, 1.0, 1.0],
        [-np.inf, -np.inf],
        [np.inf, 3.0],
        [np.nan, 3.0],
        [np.inf, -np.inf],
        [],
    ])
    def test_edge_cases_match_scipy(self, a):
        with np.errstate(all="ignore"):
            want = float(scipy.special.logsumexp(np.asarray(a, dtype=float)))
        assert _same_float(logsumexp(a), want)
