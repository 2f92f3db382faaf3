"""Risk measures: VaR, both TVaR conventions, the Gaussian approximation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf
from scipy import stats

from riskdiv import distributions
from riskdiv.distributions import (
    DiscreteLossDistribution,
    binomial,
    exact_cdf_at,
    mixture,
    point_mass,
)
from riskdiv.measures import (
    MeasureKind,
    RiskMeasureSpec,
    TruncationError,
    TvarConvention,
    apply_measure,
    gaussian_var_approx,
    normal_quantile,
    tail_value_at_risk,
    value_at_risk,
    var_and_tvar,
)
from riskdiv.models import ModelSpec, loss_count_distribution


def brute_binom_var(n, p, alpha):
    """Oracle: binomial quantile in exact rational arithmetic.

    Exactness matters at ties like the median of a symmetric binomial,
    where rounded pmf values sit one ulp off the true cdf step.
    """
    pf, af = Fraction(p), Fraction(alpha)
    total = Fraction(0)
    for k in range(n + 1):
        total += Fraction(math.comb(n, k)) * pf**k * (1 - pf) ** (n - k)
        if total >= af:
            return k
    raise AssertionError("alpha not reached")


def brute_tail_mean(d, v):
    """Oracle: conditional mean over counts >= v by direct summation."""
    num = den = 0.0
    for i, m in enumerate(d.masses):
        k = d.min_count + i
        if k >= v:
            num += k * m
            den += m
    return num / den


class TestValueAtRisk:
    def test_fair_binomial_99(self):
        assert value_at_risk(binomial(6, 1 / 6), 0.99) == 3

    def test_quarter_binomial_99(self):
        d = binomial(6, 0.25)
        # cdf oracle: F(3) ~ 0.9624 < 0.99 <= F(4) ~ 0.99536
        assert stats.binom(6, 0.25).cdf(3) < 0.99 <= stats.binom(6, 0.25).cdf(4)
        assert value_at_risk(d, 0.99) == 4

    @given(c=st.integers(0, 50), alpha=st.floats(0.01, 0.99))
    @settings(max_examples=30, deadline=None)
    def test_point_mass(self, c, alpha):
        assert value_at_risk(point_mass(c), alpha) == c

    @given(n=st.integers(1, 60), p=st.floats(0.05, 0.95), alpha=st.floats(0.05, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_against_brute_force(self, n, p, alpha):
        d = binomial(n, p)
        assert value_at_risk(d, alpha) == brute_binom_var(n, p, alpha)

    def test_monotone_in_alpha(self):
        d = binomial(60, 0.3)
        values = [value_at_risk(d, a) for a in np.linspace(0.05, 0.995, 40)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_truncated_tail_unresolvable(self):
        d = binomial(1_000_000, 0.5)
        assert d.truncated_above > 0
        with pytest.raises(TruncationError):
            value_at_risk(d, 1 - 1e-16)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            value_at_risk(binomial(6, 0.5), 0.0)
        with pytest.raises(ValueError):
            value_at_risk(binomial(6, 0.5), 1.0)


class TestTailValueAtRisk:
    def test_conditional_fair_binomial(self):
        d = binomial(6, 1 / 6)
        got = tail_value_at_risk(d, 0.99)
        assert got == pytest.approx(brute_tail_mean(d, 3), rel=1e-12)
        assert got == pytest.approx(3.1507, abs=5e-5)
        # Loading cross-check: 0.15 * (10 * 3.1507 - 10) rounds to 3.226.
        assert 0.15 * (10 * got - 10) == pytest.approx(3.226, abs=5e-4)

    def test_conditional_top_support(self):
        # VaR is the top support point, so the conditional mean equals it.
        d = binomial(6, 0.5)
        assert value_at_risk(d, 0.99) == 6
        assert tail_value_at_risk(d, 0.99) == pytest.approx(6.0, rel=1e-12)
        assert 0.15 * (10 * 6.0 - 30.0) == pytest.approx(4.500, abs=1e-12)

    def test_tail_average_fair_binomial(self):
        d = binomial(6, 1 / 6)
        got = tail_value_at_risk(d, 0.99, TvarConvention.TAIL_AVERAGE)
        # Oracle: integrate the quantile function over (alpha, 1].
        cdf = np.cumsum(d.masses)
        acc = 0.0
        for k in range(7):
            lo = max(cdf[k - 1] if k else 0.0, 0.99)
            hi = min(cdf[k], 1.0)
            if hi > lo:
                acc += k * (hi - lo)
        assert got == pytest.approx(acc / 0.01, rel=1e-10)
        assert got == pytest.approx(3.9388, abs=5e-4)

    def test_tail_average_matches_sorted_tail(self):
        # The tail average equals the mean of the worst (1-alpha) fraction.
        rng = np.random.default_rng(7)
        draws = rng.binomial(60, 0.3, size=20_000)
        counts = np.bincount(draws, minlength=61)
        d = DiscreteLossDistribution(0, counts / 20_000)
        worst = np.sort(draws)[-200:]
        got = tail_value_at_risk(d, 0.99, TvarConvention.TAIL_AVERAGE)
        assert got == pytest.approx(worst.mean(), rel=1e-12)

    @given(n=st.integers(2, 50), p=st.floats(0.05, 0.95), alpha=st.floats(0.5, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_dominates_var(self, n, p, alpha):
        d = binomial(n, p)
        v = value_at_risk(d, alpha)
        assert tail_value_at_risk(d, alpha) >= v
        assert tail_value_at_risk(d, alpha, TvarConvention.TAIL_AVERAGE) >= v

    def test_monotone_in_alpha(self):
        d = binomial(60, 0.3)
        values = [tail_value_at_risk(d, a) for a in np.linspace(0.5, 0.995, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_translation_shifts_both_measures(self):
        d = binomial(30, 0.4)
        shifted = DiscreteLossDistribution(
            d.min_count + 11, d.masses, d.truncated_below, d.truncated_above
        )
        assert value_at_risk(shifted, 0.95) == value_at_risk(d, 0.95) + 11
        assert tail_value_at_risk(shifted, 0.95) == pytest.approx(
            tail_value_at_risk(d, 0.95) + 11, rel=1e-12
        )


class TestPlateauQuantiles:
    """Confidence levels landing on a mixture cdf plateau are decided exactly."""

    def test_common_shock_plateau_small(self):
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.01)
        d = loss_count_distribution(model, 100, 6)
        assert value_at_risk(d, 0.99) == 209

    def test_common_shock_plateau_medium(self):
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.01)
        d = loss_count_distribution(model, 1000, 6)
        assert value_at_risk(d, 0.99) == 2719

    def test_conditional_tail_stable_on_plateau(self):
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.01)
        d = loss_count_distribution(model, 100, 6)
        loading = 0.15 * (10 * tail_value_at_risk(d, 0.99) / 100 - 10.2)
        assert loading == pytest.approx(2.970, abs=5e-4)

    def test_plateau_at_quote_scale(self):
        # The 114k-count band of a common-shock quote at N=58,926.
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.01)
        d = loss_count_distribution(model, 58_926, 6)
        assert value_at_risk(d, 0.99) == 174_697

    def test_each_component_cdf_summed_once(self, monkeypatch):
        # The band search clamps k to each component's support, so most of
        # its exact evaluations repeat a component value already summed.
        d = loss_count_distribution(ModelSpec.common_shock(1 / 6, 0.5, 0.01), 10_000, 6)
        searches, sums = [], []

        def counted_search(*args):
            searches.append(args)
            return exact_cdf_at(*args)

        def counted_sum(*args):
            sums.append(args)
            return mp_binom_cdf(*args)

        mp_binom_cdf = distributions._mp_binom_cdf
        monkeypatch.setattr(distributions, "exact_cdf_at", counted_search)
        monkeypatch.setattr(distributions, "_mp_binom_cdf", counted_sum)
        distributions._component_cdf.cache_clear()
        value_at_risk(d, 0.99)
        assert len(searches) == 16
        assert 0 < len(sums) <= 12
        assert len(set(sums)) == len(sums)


@pytest.mark.parametrize("pt", [0.001, 0.01, 0.05, 0.1])
def test_point_mass_crisis_plateau_is_decided_exactly(pt):
    # A common shock with q = 1 mixes a point mass at N*n into the normal
    # state.  Below N*n the cdf is (1 - pt) * P[Bin(N*n, p) <= k] < 1 - pt,
    # so VaR at alpha = 1 - pt is N*n; in double precision the cdf reached
    # alpha early (VaR 25 at N=5) until the point mass carried a recipe.
    model = ModelSpec.common_shock(1 / 6, 1.0, pt)
    for N in (1, 2, 3, 5, 10, 20, 50, 100, 1000, 10_000, 100_000):
        d = loss_count_distribution(model, N, 6)
        assert value_at_risk(d, 1.0 - pt) == 6 * N, N


# Two-state mixtures with alpha at the normal-state weight: the cdf sits on a
# plateau at alpha, so the crossing is decided in exact arithmetic.
plateau_mixtures = st.builds(
    lambda n, p, q, w: (mixture([binomial(n, q), binomial(n, p)], [w, 1.0 - w]), 1.0 - w),
    st.integers(1, 60),
    st.floats(0.02, 0.5),
    st.floats(0.5, 0.98),
    st.floats(0.001, 0.2),
)


def first_index_reaching(d, alpha):
    """Oracle: linear scan of the exact cdf for the first count reaching alpha."""
    a = mpf(alpha)
    for i in range(len(d.masses)):
        if exact_cdf_at(d, d.min_count + i) >= a:
            return d.min_count + i
    raise AssertionError("alpha not reached")


class TestPlateauProperties:
    @given(case=plateau_mixtures, other=st.floats(0.5, 0.995))
    @settings(max_examples=100, deadline=None)
    def test_search_equals_linear_scan_and_is_monotone(self, case, other):
        d, alpha = case
        assert value_at_risk(d, alpha) == first_index_reaching(d, alpha)
        levels = sorted({
            alpha, other, math.nextafter(alpha, 0.0), math.nextafter(alpha, 1.0),
            alpha - 1e-12, alpha + 1e-12, alpha - 1e-9, alpha + 1e-9,
        })
        vars_ = [value_at_risk(d, a) for a in levels]
        assert vars_ == sorted(vars_)


class TestNormalQuantile:
    def test_against_scipy(self):
        grid = np.concatenate(
            [
                np.array([1e-10, 1e-6, 0.02425, 0.5, 0.97575, 1 - 1e-6, 1 - 1e-10]),
                np.linspace(0.001, 0.999, 199),
            ]
        )
        for u in grid:
            assert abs(normal_quantile(float(u)) - stats.norm.ppf(u)) < 1e-8

    def test_symmetry(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile(0.975) == pytest.approx(-normal_quantile(0.025), rel=1e-10)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestGaussianApprox:
    def test_reference_loading(self):
        # eta * l * sqrt(n p (1-p) / N) * z_alpha at N=10^4 prints 0.032.
        counts = gaussian_var_approx(10_000, 6, 1 / 6, 0.99)
        loading = 0.15 * (10 * counts / 10_000 - 10.0)
        assert loading == pytest.approx(0.032, abs=0.002)

    def test_median_is_mean(self):
        assert gaussian_var_approx(100, 6, 1 / 6, 0.5) == pytest.approx(100 * 6 / 6, rel=1e-12)

    def test_degenerate_probabilities(self):
        assert gaussian_var_approx(100, 6, 0.0, 0.99) == 0.0
        assert gaussian_var_approx(100, 6, 1.0, 0.99) == 600.0

    def test_close_to_exact_at_moderate_size(self):
        # Within 15% of the exact VaR loading at N=100.
        exact_v = value_at_risk(binomial(600, 1 / 6), 0.99)
        exact_loading = 0.15 * (10 * exact_v / 100 - 10.0)
        approx_loading = 0.15 * (10 * gaussian_var_approx(100, 6, 1 / 6, 0.99) / 100 - 10.0)
        assert exact_loading == pytest.approx(0.330, abs=5e-4)
        assert abs(approx_loading - exact_loading) / exact_loading <= 0.15

    def test_sanity_scale(self):
        # Standardised gap between approximation and exact VaR stays small.
        for p in (1 / 6, 0.25):
            trials = 60_000
            approx = gaussian_var_approx(10_000, 6, p, 0.99)
            exact = value_at_risk(binomial(trials, p), 0.99)
            sd = np.sqrt(trials * p * (1 - p))
            assert abs(approx - exact) / sd <= 0.05

    def test_small_sample_warns(self):
        with pytest.warns(UserWarning):
            gaussian_var_approx(2, 6, 0.5, 0.9)


class TestApplyMeasure:
    def test_dispatch(self):
        d = binomial(6, 1 / 6)
        var_spec = RiskMeasureSpec(MeasureKind.VAR, 0.99)
        tvar_spec = RiskMeasureSpec(MeasureKind.TVAR, 0.99)
        assert apply_measure(d, var_spec) == 3.0
        assert apply_measure(d, tvar_spec) == pytest.approx(3.1507, abs=5e-5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RiskMeasureSpec(MeasureKind.VAR, 1.0)


# Small binomials and two-state mixtures of them; mixtures carry the recipe
# that sends plateau crossings to the exact search.
small_distributions = st.one_of(
    st.builds(binomial, st.integers(1, 40), st.floats(0.02, 0.98)),
    st.builds(
        lambda n, p, q, w: mixture([binomial(n, q), binomial(n, p)], [w, 1.0 - w]),
        st.integers(1, 40),
        st.floats(0.02, 0.5),
        st.floats(0.5, 0.98),
        st.floats(0.001, 0.2),
    ),
)


class TestVarAndTvar:
    @given(d=small_distributions, alpha=st.floats(0.5, 0.995))
    @settings(max_examples=80, deadline=None)
    def test_one_search_gives_both_measures(self, d, alpha):
        conditional = var_and_tvar(d, alpha, TvarConvention.CONDITIONAL)
        tail_average = var_and_tvar(d, alpha, TvarConvention.TAIL_AVERAGE)
        v = value_at_risk(d, alpha)
        assert conditional == (v, tail_value_at_risk(d, alpha, TvarConvention.CONDITIONAL))
        assert tail_average == (v, tail_value_at_risk(d, alpha, TvarConvention.TAIL_AVERAGE))
        assert conditional[1] == pytest.approx(brute_tail_mean(d, v), rel=1e-9)
        # The conditional tail adds the rest of the VaR atom, the smallest
        # count in the tail, so it averages lower; the slack covers rounding
        # and the truncated tail mass.
        assert v <= conditional[1] <= tail_average[1] * (1.0 + 1e-9)

    def test_apply_measure_reads_the_pair(self):
        d = loss_count_distribution(ModelSpec.common_shock(1 / 6, 0.5, 0.01), 10, 6)
        for convention in TvarConvention:
            v, t = var_and_tvar(d, 0.99, convention)
            assert apply_measure(d, RiskMeasureSpec(MeasureKind.VAR, 0.99, convention)) == float(v)
            assert apply_measure(d, RiskMeasureSpec(MeasureKind.TVAR, 0.99, convention)) == t
