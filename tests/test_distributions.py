"""Construction and composition of loss-count distributions."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from _helpers import (
    binomial_terms,
    concatenated_cdf,
    cumprod_pmf_window,
    nonzero_binomial,
    pointwise_distance,
    recipe_of,
)
from riskdiv import binom, distributions
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
)
from riskdiv.models import ModelSpec, loss_count_distribution, state_terms


def exact_binom_pmf(n: int, k: int, p: Fraction) -> Fraction:
    """Independent oracle: binomial pmf in exact rational arithmetic."""
    return Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k)


def pmf_below_cut(n: int, k: int, p: float) -> bool:
    """Oracle: whether the binomial pmf at k lies below TRUNCATION_EPS.

    Exact rationals up to 1000 trials.  Beyond, where they take seconds to
    minutes, mpmath at 60 digits, which decides unless the pmf lies within
    a relative 1e-50 of the cut.
    """
    if n <= 1000:
        return exact_binom_pmf(n, k, Fraction(p)) < TRUNCATION_EPS
    with mp.workdps(60):
        pmf = mp.binomial(n, k) * mp.mpf(p) ** k * (1 - mp.mpf(p)) ** (n - k)
        assert abs(pmf / TRUNCATION_EPS - 1) > mp.mpf(10) ** -50
        return pmf < TRUNCATION_EPS


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


@st.composite
def kernel_windows(draw):
    """(n, p, lo, hi): a window of Bin(n, p) holding its mode or with the mode clamped to an end."""
    n = draw(st.integers(1, 10**6))
    p = draw(st.one_of(st.sampled_from([1 / 6, 0.25, 0.5]), st.floats(1e-12, 1.0 - 1e-12)))
    mode = int((n + 1) * p)
    width = draw(st.integers(0, 3000))
    where = draw(st.sampled_from(["holds", "above", "below"] if 0 < mode < n else ["holds"]))
    if where == "above":  # the mode lies above the window: clamped to hi
        hi = draw(st.integers(0, mode - 1))
        return n, p, max(0, hi - width), hi
    if where == "below":  # the mode lies below the window: clamped to lo
        lo = draw(st.integers(mode + 1, n))
        return n, p, lo, min(n, lo + width)
    lo = max(0, mode - draw(st.integers(0, width)))
    return n, p, lo, min(n, mode + draw(st.integers(0, width)))


# Reference table T1 probabilities (published at five decimals).
T1_PMF = [0.33490, 0.40188, 0.20094, 0.05358, 0.00804, 0.00064, 0.00002]
T1_CDF = [0.33490, 0.73678, 0.93771, 0.99130, 0.99934, 0.99998, 1.00000]


class TestBinomial:
    def test_stored_support_holds_every_point_above_the_threshold(self):
        # The pmf just outside each stored end is below TRUNCATION_EPS, so by
        # unimodality every point beyond it is too.  At n = 2, p = 1 - 2**-52
        # the pmf at 1 is 2**-51 - 2**-103, just below the cut, and is dropped.
        trials_grid = [1, 2, 6, 10, 100, 10**3, 10**4, 10**5, 10**6, 10**7]
        probs = [1e-300, 1e-100, 1e-20, 1e-10, 1e-6, 1e-3, 0.01, 0.1, 1 / 6, 0.25, 0.5,
                 0.75, 0.9, 0.99, 1 - 1e-6, 1 - 1e-10, 1 - 1e-15, 1 - 2.0**-52]
        for trials in trials_grid:
            for prob in probs:
                d = binomial(trials, prob)
                if d.min_count > 0:
                    assert pmf_below_cut(trials, d.min_count - 1, prob), (trials, prob)
                if d.max_count < trials:
                    assert pmf_below_cut(trials, d.max_count + 1, prob), (trials, prob)
        assert binomial(2, 1 - 2.0**-52).max_count == 2

    def test_window_from_bernstein_stores_what_the_wide_window_stored(self):
        # binomial computes the pmf only on the Bernstein window that leaves
        # at most 2**-105 of mass beyond each side.  Over a grid of trials and
        # probs, the stored object equals one built the same way over the
        # wider mean +- (16 sd + 60) window: the same support and masses, bit
        # for bit, and each dropped tail within 2**-105 plus the rounding of
        # a sum regrouped over more points.
        def over_wide_window(trials, prob):
            mean = trials * prob
            sd = max(np.sqrt(trials * prob * (1.0 - prob)), 1.0)
            lo = max(0, int(np.floor(mean - 16.0 * sd - 60.0)))
            hi = min(trials, int(np.ceil(mean + 16.0 * sd + 60.0)))
            pmf = binom.pmf_window(trials, prob, lo, hi)
            keep = np.nonzero(pmf >= TRUNCATION_EPS)[0]
            i, e = int(keep[0]), int(keep[-1]) + 1
            below, above = float(pmf[:i].sum()), float(pmf[e:].sum())
            total = float(pmf[i:e].sum()) + below + above
            return lo + i, pmf[i:e] / total, below / total, above / total

        trials_grid = [1, 2, 3, 6, 10, 37, 100, 600, 2_500, 10**4, 58_926, 10**5, 362_760,
                       10**6, 3 * 10**6, 6 * 10**6]
        probs = [1e-4, 1e-3, 0.01, 0.05, 1 / 6, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999]
        for trials in trials_grid:
            for prob in probs:
                d = binomial(trials, prob)
                lo_k, masses, below, above = over_wide_window(trials, prob)
                assert d.min_count == lo_k, (trials, prob)
                assert d.masses.tobytes() == masses.tobytes(), (trials, prob)
                for got, want in ((d.truncated_below, below), (d.truncated_above, above)):
                    assert abs(got - want) <= 2.0**-105 + 2.0**-46 * want, (trials, prob)

    @given(point=st.one_of(
        st.integers(1, distributions._KERNEL_MAX_TRIALS).flatmap(
            lambda n: st.tuples(st.just(n), st.floats(1e-6, 1 - 1e-6), st.floats(-12.0, 12.0))),
        st.tuples(st.integers(1, 100), st.floats(0.01, 0.99), st.floats(-3.0, 3.0)),
    ))
    @example(point=(25_492_142, 0.83246442246905, 8.784002647645824))  # k = 21,237,864
    @settings(max_examples=40, deadline=None)
    def test_kernels_within_the_stated_bound_of_mpmath(self, point):
        # The pmf, evaluated at k and carried to k from the mode by
        # pmf_window, and the tail on k's side of the mean, against 40-digit
        # values, up to the largest trials the residual trusts: each within
        # (2**18 + 2**8 sqrt(trials)) u, the bound the residual is built on.
        trials, prob, z = point
        sd = math.sqrt(trials * prob * (1 - prob))
        k = min(max(int(trials * prob + z * sd), 0), trials - 1)
        mode = int((trials + 1) * prob)
        lo, hi = min(k, mode), max(k, mode)
        bound = (2**18 + 2**8 * math.sqrt(trials)) * 2.0**-53
        with mp.workdps(40):
            pmf = mp.binomial(trials, k) * mp.mpf(prob) ** k * (1 - mp.mpf(prob)) ** (trials - k)
            if pmf >= sys.float_info.min:
                for got in (binom.pmf(k, trials, prob),
                            binom.pmf_window(trials, prob, lo, hi)[k - lo]):
                    assert abs(got - pmf) <= bound * pmf, (point, got)
        tail, upper = binom.small_tail(k, trials, prob)
        assert upper == (k >= trials * prob)
        want = exact_tails(trials, prob, k)[upper]
        if want >= sys.float_info.min:
            assert abs(mp.mpf(tail) - want) <= bound * want, point

    @given(window=kernel_windows())
    @example(window=(10**6, 0.5, 499_000, 501_000))  # delta = 0
    @example(window=(6, 1 / 6, 0, 6))
    @example(window=(1, 0.25, 1, 1))
    @settings(max_examples=200, deadline=None)
    def test_side_kernel_bits_equal_the_cumprod_kernel(self, window):
        # pmf_window, binomial and compensated_cdf keep the bits of the
        # kernel that built its ratio chains from slices and np.cumprod,
        # found the stored window by np.nonzero and summed the cdf over
        # fresh concatenations.
        n, p, lo, hi = window
        assert (binom.pmf_window(n, p, lo, hi).tobytes()
                == cumprod_pmf_window(n, p, lo, hi).tobytes())
        got, want = binomial(n, p), nonzero_binomial(n, p)
        assert got.min_count == want.min_count
        assert got.masses.tobytes() == want.masses.tobytes()
        assert got.truncated_below == want.truncated_below
        assert got.truncated_above == want.truncated_above
        assert (distributions.compensated_cdf(got.truncated_below, got.masses).tobytes()
                == concatenated_cdf(got.truncated_below, got.masses).tobytes())

    def test_import_does_not_load_scipy_stats(self):
        # Nor any other part of scipy.  A subprocess, because other test
        # modules import scipy as an oracle.
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import riskdiv, sys; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)), check=False,
        )
        assert proc.returncode == 0, proc.stderr.decode()

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
        terms = binomial_terms((1.0, 600, 1 / 6))
        for k in (80, 100, 120):
            assert float(exact_cdf_at(recipe_of(terms), k)) == pytest.approx(
                cdf_at(terms[0].law, k), rel=1e-13)

    def test_point_mass_carries_the_unit_binomial_recipe(self):
        # Bin(c, 1): its exact cdf is the step at c, so a mixture with a
        # point mass keeps its recipe.
        for c in (0, 1, 30):
            recipe = recipe_of(binomial_terms((1.0, c, 1.0)))
            assert recipe == ((1.0, c, 1.0, c, c),)
            values = [float(exact_cdf_at(recipe, k)) for k in (c - 1, c, c + 1)]
            assert values == [0.0, 1.0, 1.0]
        mixed = recipe_of(binomial_terms((0.01, 30, 1.0), (0.99, 30, 1 / 6)))
        assert mixed is not None
        assert float(exact_cdf_at(mixed, 29)) < 0.99

    def test_unit_prob_exact_cdf_sums_no_terms(self, monkeypatch):
        # Below the trials every term is zero; the recurrence would walk them all.
        def no_sum(*args):
            raise AssertionError("summed a term")

        monkeypatch.setattr(type(mp.mpf(1)), "__add__", no_sum)
        assert distributions._mp_binom_cdf(10**6, 1.0, 10**6 - 1) == 0
        assert distributions._mp_binom_cdf(10**6, 1.0, 10**6) == 1

    def test_exact_cdf_bits_on_the_plateau(self):
        # Mantissa and exponent of the exact cdf either side of the VaR99
        # crossing of a common shock at pt=1%, N=100 (both print as 0.99).
        recipe = recipe_of(state_terms(ModelSpec.common_shock(1 / 6, 0.5, 0.01), 100, 6))
        distributions._component_cdf.cache_clear()
        assert exact_cdf_at(recipe, 208)._mpf_ == (
            0, 86241163072442624958125096407718231070541, -136, 136
        )
        assert exact_cdf_at(recipe, 209)._mpf_ == (
            0, 43120581536221322335842726776768534101351, -135, 135
        )

    def test_exact_cdf_ignores_caller_precision(self):
        recipe = recipe_of(state_terms(ModelSpec.common_shock(1 / 6, 0.5, 0.01), 100, 6))
        values = []
        for dps in (15, 60):
            distributions._component_cdf.cache_clear()
            with mp.workdps(dps):
                values.append([exact_cdf_at(recipe, k)._mpf_ for k in range(150, 260, 7)])
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

    @given(
        trials=st.integers(1, 20_000),
        prob=st.one_of(st.floats(1e-4, 0.9999), st.floats(1e-7, 1e-2), st.floats(0.99, 1 - 1e-7)),
        z=st.floats(-12.0, 12.0),
        dps=st.sampled_from([15, 40]),
    )
    @settings(max_examples=200, deadline=None)
    def test_mp_binom_cdf_stop_changes_no_bit(self, trials, prob, z, dps):
        # The half-ulp stop ends each sum earlier than the reference's
        # relative 1e-45 stop; the terms in between round away.
        k = int(trials * prob + z * math.sqrt(trials * prob * (1 - prob)))
        with mp.workdps(dps):
            got = distributions._mp_binom_cdf(trials, prob, k)._mpf_
            assert got == mp_binom_cdf_operators(trials, prob, k)._mpf_


def exact_tails(trials: int, prob: float, k: int):
    """Oracle: the binomial cdf and sf at k, each to at least 20 significant digits.

    _mp_binom_cdf forms an upper tail as 1 minus a sum, so its absolute
    error is about 10**-dps; the precision doubles until both tails clear
    that by 25 digits.
    """
    dps = 40
    while True:
        with mp.workdps(dps):
            cdf = distributions._mp_binom_cdf(trials, prob, k)
            sf = 1 - cdf
            if min(cdf, sf) > mp.mpf(10) ** (25 - dps):
                return cdf, sf
        dps *= 2


@st.composite
def kernel_points(draw):
    """(trials, prob, k) inside the residual's kernel range, tails included."""
    trials = draw(st.integers(1, 10**6))
    prob = draw(st.one_of(
        st.floats(1e-4, 1 - 1e-4),
        # Small means, where the kernels' error grows with the trials.
        st.floats(0.1, 1000.0).map(lambda mean: min(mean / trials, 0.5)),
        st.floats(1e-12, 1e-2),
    ))
    if draw(st.booleans()):
        prob = 1.0 - prob
    sd = max(math.sqrt(trials * prob * (1.0 - prob)), 1.0)
    k = int(trials * prob + draw(st.floats(-12.0, 12.0)) * sd)
    return trials, prob, min(max(k, 0), trials - 1)


class TestTailKernels:
    """The stated error of the kernel behind the plateau residual."""

    @given(point=kernel_points())
    @example(point=(25_492_142, 0.83246442246905, 21_237_864))  # off by 1.3e4 u
    @example(point=(3_056_654, 1.6492982579725833e-05, 38))
    @example(point=(5_001_448, 0.5, 2_511_887))
    @settings(max_examples=150, deadline=None)
    def test_relative_error_within_the_stated_bound(self, point):
        trials, prob, k = point
        assert trials <= distributions._KERNEL_MAX_TRIALS
        bound = (2**18 + 2**8 * math.sqrt(trials)) * 2.0**-53
        assert bound <= distributions._KERNEL_KAPPA * 2.0**-53
        tail, upper = binom.small_tail(k, trials, prob)
        want = exact_tails(trials, prob, k)[upper]
        if want < sys.float_info.min:
            return  # the residual falls back on such a tail
        assert abs(mp.mpf(tail) - want) <= bound * want, (point, tail)


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
