"""Construction and composition of loss-count distributions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy import stats

from riskdiv import distributions
from riskdiv.distributions import (
    TRUNCATION_BUDGET,
    TRUNCATION_EPS,
    DiscreteLossDistribution,
    binomial,
    cdf_at,
    convolve,
    exact_cdf_at,
    mixture,
    moments,
    point_mass,
    pointwise_distance,
)
from riskdiv.models import ModelSpec, loss_count_distribution


def exact_binom_pmf(n: int, k: int, p: Fraction) -> Fraction:
    """Independent oracle: binomial pmf in exact rational arithmetic."""
    return Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k)


def neumaier_cdf(masses: np.ndarray, truncated_below: float) -> np.ndarray:
    """Reference: the compensated cdf as a sequential Python loop."""
    out = np.empty(len(masses))
    s = truncated_below
    c = 0.0
    for i, x in enumerate(masses.tolist()):
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
        out[i] = s + c
    return out


def mp_binom_cdf_operators(trials: int, prob: float, k: int):
    """Reference: the exact binomial cdf written with mpf operators."""
    mpf = mp.mpf
    if k < 0:
        return mpf(0)
    if k >= trials:
        return mpf(1)
    p = mpf(prob)
    one_minus_p = 1 - p
    negligible = mpf("1e-45")
    lower_tail = k < trials * p
    if lower_tail:
        j = k
        t = mp.binomial(trials, j) * p**j * one_minus_p ** (trials - j)
        s = t
        while j > 0:
            t = t * j * one_minus_p / ((trials - j + 1) * p)
            s += t
            j -= 1
            if t < s * negligible:
                break
        return s
    j = k + 1
    t = mp.binomial(trials, j) * p**j * one_minus_p ** (trials - j)
    s = t
    while j < trials:
        t = t * (trials - j) * p / ((j + 1) * one_minus_p)
        s += t
        j += 1
        if t < s * negligible:
            break
    return 1 - s


# Zero, the smallest and largest subnormals, and the smallest normal double.
_EDGE_MASSES = (0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308)


@st.composite
def mass_vectors(draw):
    """(masses, truncated_below) of a valid distribution, edge values spliced in."""
    body = draw(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=80))
    body.insert(draw(st.integers(0, len(body))), draw(st.floats(0.5, 1.0)))
    below = draw(st.one_of(st.just(0.0), st.floats(0.0, TRUNCATION_BUDGET)))
    w = np.array(body)
    masses = list(w * ((1.0 - below) / w.sum()))
    for _ in range(draw(st.integers(0, 4))):
        masses.insert(draw(st.integers(0, len(masses))), draw(st.sampled_from(_EDGE_MASSES)))
    return np.array(masses), below


# Reference table T1 probabilities (published at five decimals).
T1_PMF = [0.33490, 0.40188, 0.20094, 0.05358, 0.00804, 0.00064, 0.00002]
T1_CDF = [0.33490, 0.73678, 0.93771, 0.99130, 0.99934, 0.99998, 1.00000]


class TestBinomial:
    def test_stored_support_holds_every_point_above_the_threshold(self):
        # The pmf just outside each stored end is below TRUNCATION_EPS, so by
        # unimodality every point beyond it is too.
        trials_grid = [1, 2, 6, 10, 100, 10**3, 10**4, 10**5, 10**6, 10**7]
        probs = [1e-300, 1e-100, 1e-20, 1e-10, 1e-6, 1e-3, 0.01, 0.1, 1 / 6, 0.25, 0.5,
                 0.75, 0.9, 0.99, 1 - 1e-6, 1 - 1e-10, 1 - 1e-15, 1 - 2.0**-52]
        for trials in trials_grid:
            for prob in probs:
                d = binomial(trials, prob)
                if d.min_count > 0:
                    assert stats.binom.pmf(d.min_count - 1, trials, prob) < TRUNCATION_EPS
                if d.max_count < trials:
                    assert stats.binom.pmf(d.max_count + 1, trials, prob) < TRUNCATION_EPS

    def test_single_policy_pmf_matches_reference(self):
        d = binomial(6, 1 / 6)
        assert d.min_count == 0
        assert len(d.masses) == 7
        for k in range(7):
            assert d.masses[k] == pytest.approx(T1_PMF[k], abs=5e-6)

    def test_pmf_matches_exact_rationals(self):
        d = binomial(6, 0.25)
        for k in range(7):
            exact = float(exact_binom_pmf(6, k, Fraction(1, 4)))
            assert d.masses[k] == pytest.approx(exact, rel=1e-14)

    def test_zero_prob_is_point_mass_at_zero(self):
        for trials in (0, 1, 17):
            d = binomial(trials, 0.0)
            assert d.min_count == 0 and list(d.masses) == [1.0]

    def test_unit_prob_is_point_mass_at_trials(self):
        d = binomial(9, 1.0)
        assert d.min_count == 9 and list(d.masses) == [1.0]

    def test_large_support_moments_match_closed_form(self):
        trials, p = 600_000, 1 / 6
        mean, var = moments(binomial(trials, p))
        assert mean == pytest.approx(trials * p, rel=1e-10)
        assert var == pytest.approx(trials * p * (1 - p), rel=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            binomial(6, -0.1)
        with pytest.raises(ValueError):
            binomial(6, 1.5)
        with pytest.raises(ValueError):
            binomial(-1, 0.5)

    @pytest.mark.parametrize("trials", [1, 100, 10_000, 1_000_000])
    def test_truncation_budget(self, trials):
        d = binomial(trials, 1 / 6)
        assert d.truncated_mass <= 1e-12
        assert cdf_at(d, d.max_count) >= 1 - 2e-12

    def test_normalization(self):
        for trials, p in [(6, 1 / 6), (600, 0.5), (60_000, 0.01)]:
            d = binomial(trials, p)
            assert abs(d.masses.sum() + d.truncated_mass - 1.0) <= 1e-12


class TestMix:
    def test_two_point_mixture_mass(self):
        # Independent arithmetic: 0.001*0.5^6 + 0.999*(1/6)^6 at count 6.
        d = mixture([binomial(6, 0.5), binomial(6, 1 / 6)], [0.001, 1 - 0.001])
        expected = 0.001 * 0.5**6 + 0.999 * (1 / 6) ** 6
        assert d.masses[6] == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(3.70e-5, abs=5e-8)

    def test_mixture_mean(self):
        d = mixture([binomial(6, 0.5), binomial(6, 1 / 6)], [0.001, 1 - 0.001])
        mean, _ = moments(d)
        assert mean == pytest.approx(6 * (0.001 * 0.5 + 0.999 / 6), rel=1e-12)
        assert mean == pytest.approx(1.002, abs=1e-12)

    def test_invalid_weight(self):
        d = binomial(3, 0.5)
        with pytest.raises(ValueError):
            mixture([d, d], [-0.01, 1.01])
        with pytest.raises(ValueError):
            mixture([d, d], [1.01, -0.01])

    @given(
        w=st.floats(0.0, 1.0),
        p1=st.floats(0.05, 0.95),
        p2=st.floats(0.05, 0.95),
        n=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_mass_and_moment_decomposition(self, w, p1, p2, n):
        d1, d2 = binomial(n, p1), binomial(n, p2)
        d = mixture([d1, d2], [w, 1 - w])
        assert abs(d.masses.sum() + d.truncated_mass - 1.0) <= 1e-12
        m1, v1 = moments(d1)
        m2, v2 = moments(d2)
        m, v = moments(d)
        assert m == pytest.approx(w * m1 + (1 - w) * m2, abs=1e-10)
        v_expect = w * v1 + (1 - w) * v2 + w * (1 - w) * (m1 - m2) ** 2
        assert v == pytest.approx(v_expect, abs=1e-10, rel=1e-10)


class TestConvolve:
    def test_binomial_additivity(self):
        got = convolve(binomial(40, 0.3), binomial(25, 0.3))
        want = binomial(65, 0.3)
        assert pointwise_distance(got, want) <= 1e-12

    def test_binomial_additivity_large(self):
        got = convolve(binomial(6_000, 1 / 6), binomial(4_000, 1 / 6))
        want = binomial(10_000, 1 / 6)
        assert pointwise_distance(got, want) <= 1e-12

    def test_point_mass_identity(self):
        d = binomial(12, 0.4)
        out = convolve(point_mass(0), d)
        assert pointwise_distance(out, d) == 0.0

    def test_point_mass_shift(self):
        d = convolve(point_mass(5), point_mass(7))
        assert d.min_count == 12 and list(d.masses) == [1.0]

    @given(
        a=st.integers(1, 200),
        b=st.integers(1, 200),
        p1=st.floats(0.05, 0.95),
        p2=st.floats(0.05, 0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_moments_additive(self, a, b, p1, p2):
        d1, d2 = binomial(a, p1), binomial(b, p2)
        m, v = moments(convolve(d1, d2))
        m1, v1 = moments(d1)
        m2, v2 = moments(d2)
        assert m == pytest.approx(m1 + m2, abs=1e-10, rel=1e-10)
        assert v == pytest.approx(v1 + v2, abs=1e-10, rel=1e-10)


class TestMoments:
    def test_fair_binomial(self):
        mean, var = moments(binomial(6, 1 / 6))
        assert mean == pytest.approx(1.0, rel=1e-12)
        assert var == pytest.approx(5 / 6, rel=1e-12)

    def test_point_mass(self):
        assert moments(point_mass(7)) == (7.0, 0.0)


class TestCdf:
    def test_reference_values(self):
        d = binomial(6, 1 / 6)
        for k in range(7):
            assert cdf_at(d, k) == pytest.approx(T1_CDF[k], abs=5e-6)

    def test_below_support(self):
        assert cdf_at(binomial(6, 1 / 6), -1) == 0.0

    def test_top_of_support(self):
        assert cdf_at(binomial(6, 1 / 6), 6) == pytest.approx(1.0, abs=1e-12)

    def test_exact_cdf_agrees_with_double(self):
        d = binomial(600, 1 / 6)
        for k in (80, 100, 120):
            assert float(exact_cdf_at(d, k)) == pytest.approx(cdf_at(d, k), rel=1e-13)

    def test_point_mass_carries_the_unit_binomial_recipe(self):
        # Bin(c, 1): its exact cdf is the step at c, so a mixture with a
        # point mass keeps its recipe.
        for c in (0, 1, 30):
            d = point_mass(c)
            assert d.components == ((1.0, c, 1.0, c, c),)
            assert [float(exact_cdf_at(d, k)) for k in (c - 1, c, c + 1)] == [0.0, 1.0, 1.0]
        mixed = mixture([point_mass(30), binomial(30, 1 / 6)], [0.01, 0.99])
        assert mixed.components is not None
        assert float(exact_cdf_at(mixed, 29)) < 0.99

    def test_unit_prob_exact_cdf_sums_no_terms(self, monkeypatch):
        # Below the trials every term is zero; the recurrence would walk them all.
        import mpmath.libmp

        def no_sum(*args):
            raise AssertionError("summed a term")

        monkeypatch.setattr(mpmath.libmp, "mpf_add", no_sum)
        assert distributions._mp_binom_cdf(10**6, 1.0, 10**6 - 1) == 0
        assert distributions._mp_binom_cdf(10**6, 1.0, 10**6) == 1

    def test_exact_cdf_needs_recipe(self):
        h = DiscreteLossDistribution(0, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            exact_cdf_at(h, 0)

    def test_exact_cdf_bits_on_the_plateau(self):
        # Mantissa and exponent of the exact cdf either side of the VaR99
        # crossing of a common shock at pt=1%, N=100 (both print as 0.99).
        d = loss_count_distribution(ModelSpec.common_shock(1 / 6, 0.5, 0.01), 100, 6)
        distributions._component_cdf.cache_clear()
        assert exact_cdf_at(d, 208)._mpf_ == (
            0, 86241163072442624958125096407718231070541, -136, 136
        )
        assert exact_cdf_at(d, 209)._mpf_ == (
            0, 43120581536221322335842726776768534101351, -135, 135
        )

    def test_exact_cdf_ignores_caller_precision(self):
        d = loss_count_distribution(ModelSpec.common_shock(1 / 6, 0.5, 0.01), 100, 6)
        values = []
        for dps in (15, 60):
            distributions._component_cdf.cache_clear()
            with mp.workdps(dps):
                values.append([exact_cdf_at(d, k)._mpf_ for k in range(150, 260, 7)])
        assert values[0] == values[1]

    @given(case=mass_vectors())
    @settings(max_examples=300, deadline=None)
    def test_cdf_bits_equal_sequential_loop(self, case):
        masses, below = case
        d = DiscreteLossDistribution(3, masses, truncated_below=below)
        assert d.cdf.tobytes() == neumaier_cdf(d.masses, below).tobytes()

    def test_cdf_bits_equal_sequential_loop_large(self):
        d = loss_count_distribution(ModelSpec.per_exposure_shock(1 / 6, 0.5, 0.01), 100_000, 6)
        assert len(d.masses) == 205_106
        assert d.cdf.tobytes() == neumaier_cdf(d.masses, d.truncated_below).tobytes()

    @pytest.mark.parametrize(
        "trials, prob, ks",
        [
            (1, 1 / 6, (-1, 0, 1, 2)),
            (6, 1 / 6, (-3, 0, 1, 2, 5, 6, 9)),
            (6, 0.5, (0, 2, 3, 5)),
            (600, 1 / 6, (0, 60, 99, 100, 140, 599, 600)),
            (600, 0.99, (500, 590, 594, 599)),
            (60_000, 0.001, (0, 30, 60, 61, 120)),
            (600_000, 1 / 6, (98_000, 99_999, 100_000, 101_500)),
            (600_000, 0.5, (299_000, 300_500)),
        ],
    )
    def test_mp_binom_cdf_bits_equal_operator_api(self, trials, prob, ks):
        with mp.workdps(40):
            for k in ks:
                got = distributions._mp_binom_cdf(trials, prob, k)._mpf_
                assert got == mp_binom_cdf_operators(trials, prob, k)._mpf_, k


class TestValidation:
    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteLossDistribution(0, np.array([0.5, -0.1, 0.6]))

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError):
            DiscreteLossDistribution(0, np.array([0.5, 0.4]))

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            DiscreteLossDistribution(0, np.array([1.0 - 1e-6]), truncated_below=1e-6)

    def test_nan_mass_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteLossDistribution(0, np.array([0.5, np.nan, 0.5]))

    @pytest.mark.parametrize("field", ["truncated_below", "truncated_above"])
    def test_nan_truncated_mass_rejected(self, field):
        with pytest.raises(ValueError, match="truncated mass"):
            DiscreteLossDistribution(0, np.array([1.0]), **{field: np.nan})

    def test_masses_read_only(self):
        d = binomial(6, 0.5)
        with pytest.raises(ValueError):
            d.masses[0] = 0.9


class TestMixtureNary:
    def test_weights_must_sum_to_one(self):
        d = binomial(4, 0.5)
        with pytest.raises(ValueError):
            mixture([d, d], [0.6, 0.6])

    def test_zero_weight_components_skipped(self):
        d1, d2 = binomial(4, 0.5), binomial(4, 0.2)
        out = mixture([d1, d2], [0.0, 1.0])
        assert pointwise_distance(out, d2) == 0.0
