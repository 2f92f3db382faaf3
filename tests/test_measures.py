"""Risk measures: VaR, both TVaR conventions, the Gaussian approximation."""

import math
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from scipy import stats

from _helpers import (
    band_edges,
    binomial_terms,
    bisect_band,
    dense_law,
    dense_var_and_tvar,
    recipe_of,
)
from riskdiv import binom, distributions, measures, models
from riskdiv.distributions import (
    DiscreteLossDistribution,
    binomial,
    exact_cdf_at,
    point_mass,
)
from riskdiv.measures import (
    _PLATEAU_BAND,
    MeasureKind,
    RiskMeasureSpec,
    TruncationError,
    TvarConvention,
    apply_measure,
    gaussian_var_approx,
    normal_quantile,
    tail_value,
    var_and_tvar,
)
from riskdiv.models import (
    ModelKind,
    ModelSpec,
    StateTerm,
    crisis_rounds,
    loss_count_distribution,
    state_terms,
)
from riskdiv.montecarlo import measures_in_counts


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
        assert var_and_tvar(binomial(6, 1 / 6), 0.99)[0] == 3

    def test_quarter_binomial_99(self):
        d = binomial(6, 0.25)
        # cdf oracle: F(3) ~ 0.9624 < 0.99 <= F(4) ~ 0.99536
        assert stats.binom(6, 0.25).cdf(3) < 0.99 <= stats.binom(6, 0.25).cdf(4)
        assert var_and_tvar(d, 0.99)[0] == 4

    @given(c=st.integers(0, 50), alpha=st.floats(0.01, 0.99))
    @settings(max_examples=30, deadline=None)
    def test_point_mass(self, c, alpha):
        assert var_and_tvar(point_mass(c), alpha)[0] == c

    @given(n=st.integers(1, 60), p=st.floats(0.05, 0.95), alpha=st.floats(0.05, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_against_brute_force(self, n, p, alpha):
        assert var_and_tvar(binomial_terms((1.0, n, p)), alpha)[0] == brute_binom_var(n, p, alpha)

    def test_monotone_in_alpha(self):
        d = binomial(60, 0.3)
        values = [var_and_tvar(d, a)[0] for a in np.linspace(0.05, 0.995, 40)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_truncated_tail_unresolvable(self):
        d = binomial(1_000_000, 0.5)
        assert d.truncated_above > 0
        with pytest.raises(TruncationError):
            var_and_tvar(d, 1 - 1e-16)[0]

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            var_and_tvar(binomial(6, 0.5), 0.0)[0]
        with pytest.raises(ValueError):
            var_and_tvar(binomial(6, 0.5), 1.0)[0]


class TestTailValueAtRisk:
    def test_conditional_fair_binomial(self):
        d = binomial(6, 1 / 6)
        got = var_and_tvar(d, 0.99)[1]
        assert got == pytest.approx(brute_tail_mean(d, 3), rel=1e-12)
        assert got == pytest.approx(3.1507, abs=5e-5)
        # Loading cross-check: 0.15 * (10 * 3.1507 - 10) rounds to 3.226.
        assert 0.15 * (10 * got - 10) == pytest.approx(3.226, abs=5e-4)

    def test_conditional_top_support(self):
        # VaR is the top support point, so the conditional mean equals it.
        d = binomial(6, 0.5)
        assert var_and_tvar(d, 0.99)[0] == 6
        assert var_and_tvar(d, 0.99)[1] == pytest.approx(6.0, rel=1e-12)
        assert 0.15 * (10 * 6.0 - 30.0) == pytest.approx(4.500, abs=1e-12)

    def test_tail_average_fair_binomial(self):
        d = binomial(6, 1 / 6)
        got = var_and_tvar(d, 0.99, TvarConvention.TAIL_AVERAGE)[1]
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

    def test_one_formula_for_tallies_and_floats(self):
        # Tallies [0, 3, 5, 2] of 10 paths at alpha = 7/10: VaR 2, its atom
        # 5, 8 paths at or below it, and 3 * 2 beyond it.
        a = Fraction(7, 10)
        assert tail_value(2, 5, 8, Fraction(6), 10, a, TvarConvention.CONDITIONAL) == Fraction(16, 7)
        assert tail_value(2, 5, 8, Fraction(6), 10, a, TvarConvention.TAIL_AVERAGE) == Fraction(8, 3)
        # The same law as floats.
        got = tail_value(2, 0.5, 0.8, 0.6, 1.0, 0.7, TvarConvention.CONDITIONAL)
        assert got == pytest.approx(16 / 7, rel=1e-15)

    def test_convention_read_through_its_enum(self):
        # A string convention used to take the tail-average branch whatever
        # its value.
        a = Fraction(7, 10)
        assert tail_value(2, 5, 8, Fraction(6), 10, a, "conditional") == Fraction(16, 7)
        with pytest.raises(ValueError, match="nonsense"):
            tail_value(2, 5, 8, Fraction(6), 10, a, "nonsense")

    def test_guards(self):
        # A whole atom at the top: the conditional tail is the VaR, even
        # where (v·at) / at rounds below it.
        at = float.fromhex("0x1.88c8e28022816p-1")
        assert 45 * at / at < 45
        assert tail_value(45, at, 1.0, 0.0, 1.0, 0.99, TvarConvention.CONDITIONAL) == 45
        with pytest.raises(RuntimeError, match="empty tail"):
            tail_value(3, 0.0, 1.0, 0.0, 1.0, 0.99, TvarConvention.CONDITIONAL)

    def test_tail_average_matches_sorted_tail(self):
        # The tail average equals the mean of the worst (1-alpha) fraction.
        rng = np.random.default_rng(7)
        draws = rng.binomial(60, 0.3, size=20_000)
        counts = np.bincount(draws, minlength=61)
        d = DiscreteLossDistribution(0, counts / 20_000)
        worst = np.sort(draws)[-200:]
        got = var_and_tvar(d, 0.99, TvarConvention.TAIL_AVERAGE)[1]
        assert got == pytest.approx(worst.mean(), rel=1e-12)

    @given(n=st.integers(2, 50), p=st.floats(0.05, 0.95), alpha=st.floats(0.5, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_dominates_var(self, n, p, alpha):
        d = binomial(n, p)
        v = var_and_tvar(d, alpha)[0]
        assert var_and_tvar(d, alpha)[1] >= v
        assert var_and_tvar(d, alpha, TvarConvention.TAIL_AVERAGE)[1] >= v

    def test_monotone_in_alpha(self):
        d = binomial(60, 0.3)
        values = [var_and_tvar(d, a)[1] for a in np.linspace(0.5, 0.995, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_translation_shifts_both_measures(self):
        d = binomial(30, 0.4)
        shifted = DiscreteLossDistribution(
            d.min_count + 11, d.masses, d.truncated_below, d.truncated_above
        )
        assert var_and_tvar(shifted, 0.95)[0] == var_and_tvar(d, 0.95)[0] + 11
        assert var_and_tvar(shifted, 0.95)[1] == pytest.approx(
            var_and_tvar(d, 0.95)[1] + 11, rel=1e-12
        )


COMMON_PLATEAU = ModelSpec.common_shock(1 / 6, 0.5, 0.01)


def dense_search(terms, alpha):
    """The plateau search over every count of the terms' stored mixture, the gaps included.

    The search of the terms' occupied counts (var_and_tvar) skips the gap
    counts, so it probes a narrower band; this one bisects the dense band.
    """
    d, recipe = dense_law(terms), tuple(t.component for t in terms)
    return d.min_count + measures._quantile_index(d.counts, d.cdf, recipe, alpha)


def bisection_bound(d, alpha):
    """ceil(log2(hi - lo + 1)): the most probes a bisection of alpha's band makes."""
    lo, _, hi = band_edges(d, alpha)
    return math.ceil(math.log2(hi - lo + 1))


class TestPlateauQuantiles:
    """Confidence levels landing on a mixture cdf plateau are decided exactly."""

    def test_common_shock_plateau_small(self):
        assert var_and_tvar(state_terms(COMMON_PLATEAU, 100, 6), 0.99)[0] == 209

    def test_common_shock_plateau_medium(self):
        assert var_and_tvar(state_terms(COMMON_PLATEAU, 1000, 6), 0.99)[0] == 2719

    def test_lone_law_takes_the_double_answer(self):
        # The stored mixture alone carries no recipe: its plateau is read
        # in double precision, one count below the terms' exact 2,719.
        d = loss_count_distribution(COMMON_PLATEAU, 1000, 6)
        double = d.min_count + int(np.searchsorted(d.cdf, 0.99))
        assert var_and_tvar(d, 0.99)[0] == double == 2718

    def test_conditional_tail_stable_on_plateau(self):
        terms = state_terms(COMMON_PLATEAU, 100, 6)
        loading = 0.15 * (10 * var_and_tvar(terms, 0.99)[1] / 100 - 10.2)
        assert loading == pytest.approx(2.970, abs=5e-4)

    @staticmethod
    def count_exact_work(monkeypatch, terms, alpha, search=None):
        """VaR at alpha, with the counts it probed, the probes that fell back to
        the exact cdf, and the component sums those made.

        search(terms, alpha) gives the VaR; by default var_and_tvar's.
        """
        probes, fallbacks, sums = [], [], []

        def counted(calls, fn):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)

            return wrapper

        for name, calls in (("cdf_reaches", probes), ("exact_cdf_at", fallbacks),
                            ("_mp_binom_cdf", sums)):
            monkeypatch.setattr(distributions, name, counted(calls, getattr(distributions, name)))
        distributions._component_cdf.cache_clear()
        var = search(terms, alpha) if search else var_and_tvar(terms, alpha)[0]
        return var, [k for _, k, _ in probes], fallbacks, sums

    def test_each_component_cdf_summed_once(self, monkeypatch):
        # Bisecting the dense 18,648-count band takes 15 probes, all
        # decided on the residual.  Forced onto the exact cdf, the probes
        # clamp k to each component's support, so a value summed once is
        # reused by every later probe: 15 fallbacks, 11 distinct sums.
        terms = state_terms(COMMON_PLATEAU, 10_000, 6)
        var, probes, fallbacks, _ = self.count_exact_work(monkeypatch, terms, 0.99, dense_search)
        assert var == 29_127
        assert len(probes) == 15
        assert fallbacks == []
        monkeypatch.setattr(distributions, "RESIDUAL_BOUND", 1.0)
        var, probes, fallbacks, sums = self.count_exact_work(
            monkeypatch, terms, 0.99, dense_search)
        assert var == 29_127
        assert len(probes) == len(fallbacks) == 15
        assert len(sums) == 11
        assert len(set(sums)) == len(sums)

    def test_plateau_at_quote_scale(self, monkeypatch):
        # The 114k-count band of a common-shock quote at N=58,926: the
        # residual decides every probe of its bisection (17 of them).
        d = loss_count_distribution(COMMON_PLATEAU, 58_926, 6)
        terms = state_terms(COMMON_PLATEAU, 58_926, 6)
        var, probes, fallbacks, sums = self.count_exact_work(monkeypatch, terms, 0.99)
        assert var == 174_697
        assert len(probes) <= bisection_bound(d, 0.99)
        assert fallbacks == sums == []

    def test_plateau_at_a_million_exposures(self, monkeypatch):
        # The double answer is the VaR; the bisection of the 2-million-count
        # band confirms it on the residual alone (21 probes).
        d = loss_count_distribution(COMMON_PLATEAU, 10**6, 6)
        assert d.min_count + int(np.searchsorted(d.cdf, 0.99)) == 2_991_675
        terms = state_terms(COMMON_PLATEAU, 10**6, 6)
        var, probes, fallbacks, _ = self.count_exact_work(monkeypatch, terms, 0.99)
        assert var == 2_991_675
        assert len(probes) <= bisection_bound(d, 0.99)
        assert fallbacks == []

    @pytest.mark.parametrize("N,var", [(100, 209), (1000, 2719), (10_000, 29_127)])
    def test_every_probe_falls_back_under_a_unit_bound(self, monkeypatch, N, var):
        # No residual is larger than the sum of its terms' magnitudes, so a
        # bound of 1 sends every probe to the exact cdf, with the same VaR.
        terms = state_terms(COMMON_PLATEAU, N, 6)
        monkeypatch.setattr(distributions, "RESIDUAL_BOUND", 1.0)
        got, probes, fallbacks, _ = self.count_exact_work(monkeypatch, terms, 0.99)
        assert got == var
        assert len(fallbacks) == len(probes) > 0

    def test_band_whose_exact_top_stays_below_alpha(self):
        # At the stored cdf top the band reaches max_count.  Whether the
        # exact cdf there falls short of alpha depends on the last bits of
        # the stored cdf, so the cases are searched for, not pinned.  In
        # each, the search keeps the top edge.
        found = 0
        for n in (500, 1000, 2000, 3000, 5000):
            for p in (0.1, 0.3, 0.5):
                terms = binomial_terms((1.0, n, p))
                d, recipe = terms[0].law, recipe_of(terms)
                alpha = float(d.cdf[-1])
                if exact_cdf_at(recipe, d.max_count) < mpf(alpha):
                    found += 1
                    assert var_and_tvar(terms, alpha)[0] == d.max_count
                    assert d.min_count + bisect_band(d, recipe, alpha) == d.max_count
        assert found > 0


@pytest.mark.parametrize("pt", [0.001, 0.01, 0.05, 0.1])
def test_point_mass_crisis_plateau_is_decided_exactly(pt):
    # A common shock with q = 1 mixes a point mass at N*n into the normal
    # state.  Below N*n the cdf is (1 - pt) * P[Bin(N*n, p) <= k] < 1 - pt,
    # so VaR at alpha = 1 - pt is N*n; in double precision the cdf reached
    # alpha early (VaR 25 at N=5) until the point mass carried a recipe.
    # The point mass is a structural constant of the residual, which decides
    # every probe.
    model = ModelSpec.common_shock(1 / 6, 1.0, pt)

    def no_fallback(*args):
        raise AssertionError("a probe fell back to the exact cdf")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distributions, "exact_cdf_at", no_fallback)
        for N in (1, 2, 3, 5, 10, 20, 50, 100, 1000, 10_000, 100_000):
            assert var_and_tvar(state_terms(model, N, 6), 1.0 - pt)[0] == 6 * N, N


# Two-state mixtures with alpha at the normal-state weight: the cdf sits on a
# plateau at alpha, so the crossing is decided in exact arithmetic.
plateau_mixtures = st.builds(
    lambda n, p, q, w: (binomial_terms((w, n, q), (1.0 - w, n, p)), 1.0 - w),
    st.integers(1, 60),
    st.floats(0.02, 0.5),
    st.floats(0.5, 0.98),
    st.floats(0.001, 0.2),
)


def first_index_reaching(terms, alpha):
    """Oracle: linear scan of the exact cdf for the first count reaching alpha."""
    d, recipe, a = dense_law(terms), recipe_of(terms), mpf(alpha)
    for i in range(len(d.masses)):
        if exact_cdf_at(recipe, d.min_count + i) >= a:
            return d.min_count + i
    raise AssertionError("alpha not reached")


class TestPlateauSearchEqualsBisection:
    """The plateau search finds what bisecting the whole band on the exact cdf finds."""

    # The normal state's upper tail flattens onto the plateau at 1 - 0.01
    # between counts 26 and 36; the crisis state lifts it off after 36.
    terms = binomial_terms((0.01, 60, 0.9), (0.99, 60, 0.1))
    d, recipe = dense_law(terms), recipe_of(terms)

    def test_double_answer_at_band_bottom(self):
        # alpha is the stored cdf at 26, the last step wider than the band,
        # but the exact cdf there falls short: the search finds the next count.
        alpha = float(self.d.cdf[26])
        assert band_edges(self.d, alpha) == (26, 26, 36)
        assert exact_cdf_at(self.recipe, 26) < mpf(alpha)
        bisected = self.d.min_count + bisect_band(self.d, self.recipe, alpha)
        assert var_and_tvar(self.terms, alpha)[0] == bisected == 27
        assert first_index_reaching(self.terms, alpha) == 27

    def test_double_answer_at_band_top(self):
        # Just above the stored cdf at 36 the next step clears the band, so
        # the double answer is the band top, which is never probed.
        alpha = math.nextafter(float(self.d.cdf[36]), 1.0)
        assert band_edges(self.d, alpha) == (28, 37, 37)
        bisected = self.d.min_count + bisect_band(self.d, self.recipe, alpha)
        assert var_and_tvar(self.terms, alpha)[0] == bisected == 37
        assert first_index_reaching(self.terms, alpha) == 37

    @given(offset=st.integers(-4_500, 40))
    @settings(max_examples=60, deadline=None)
    def test_bisection_finds_any_crossing(self, offset):
        # A monotone stand-in for the exact cdf steps from 0 to 1 at g +
        # offset, anywhere in a band of 4,495 counts around the double
        # answer g (or beyond its top).  The search finds the step, or the
        # band top past it, in at most ceil(log2(hi - lo + 1)) probes.
        terms = binomial_terms((0.01, 6000, 0.9), (0.99, 6000, 0.1))
        d = dense_law(terms)
        lo, g, hi = band_edges(d, 0.99)
        assert (lo, g, hi) == (336, 4798, 4831)
        step_at = d.min_count + g + offset
        probes = []

        def step(dist, k, alpha):
            probes.append(k)
            return k >= step_at

        with pytest.MonkeyPatch.context() as patch:
            # The search probes through cdf_reaches; the bisection oracle
            # reads exact_cdf_at.  Both see the same step.
            patch.setattr(distributions, "cdf_reaches", step)
            patch.setattr(distributions, "exact_cdf_at", lambda dist, k: mpf(k >= step_at))
            expected = d.min_count + min(max(g + offset, lo), hi)
            assert d.min_count + bisect_band(d, recipe_of(terms), 0.99) == expected
            assert dense_search(terms, 0.99) == expected
        assert len(probes) <= bisection_bound(d, 0.99) == 13

    @given(case=plateau_mixtures, on_point=st.booleans(), u=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_alpha_anywhere_in_the_band(self, case, on_point, u):
        # alpha is either the stored cdf of a band point, so that the double
        # answer lands on that point, or any level within the band width of
        # the plateau.
        terms, plateau = case
        d = dense_law(terms)
        if on_point:
            lo, _, hi = band_edges(d, plateau)
            alpha = float(d.cdf[lo + round(u * (hi - lo))])
            assume(alpha < 1.0)
        else:
            alpha = plateau + (2.0 * u - 1.0) * _PLATEAU_BAND
        expected = d.min_count + bisect_band(d, recipe_of(terms), alpha)
        assert var_and_tvar(terms, alpha)[0] == expected == first_index_reaching(terms, alpha)


class TestPlateauProperties:
    @given(case=plateau_mixtures, other=st.floats(0.5, 0.995))
    @settings(max_examples=100, deadline=None)
    def test_search_equals_linear_scan_and_is_monotone(self, case, other):
        terms, alpha = case
        assert var_and_tvar(terms, alpha)[0] == first_index_reaching(terms, alpha)
        levels = sorted({
            alpha, other, math.nextafter(alpha, 0.0), math.nextafter(alpha, 1.0),
            alpha - 1e-12, alpha + 1e-12, alpha - 1e-9, alpha + 1e-9,
        })
        vars_ = [var_and_tvar(terms, a)[0] for a in levels]
        assert vars_ == sorted(vars_)


def decided_where_exact(recipe, alpha, ks):
    """Check the residual's sign against the exact cdf at each k it decides; count them."""
    a = mpf(alpha)
    decided = 0
    for k in ks:
        sign = distributions._residual_sign(recipe, k, alpha)
        if sign is not None:
            gap = exact_cdf_at(recipe, k) - a
            assert gap != 0 and sign == (gap > 0), (k, alpha)
            decided += 1
    return decided


def level_on_plateau(d, plateau, on_point, u):
    """The plateau level itself, or the stored cdf of a point in its band."""
    if not on_point:
        return plateau
    lo, _, hi = band_edges(d, plateau)
    alpha = float(d.cdf[lo + round(u * (hi - lo))])
    assume(0.0 < alpha < 1.0)
    return alpha


class TestResidualProbe:
    """The double-precision residual decides a probe only with the exact cdf's sign."""

    @given(case=plateau_mixtures, on_point=st.booleans(), u=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_sign_on_plateau_mixtures(self, case, on_point, u):
        terms, plateau = case
        d = dense_law(terms)
        alpha = level_on_plateau(d, plateau, on_point, u)
        ks = range(d.min_count - 1, d.max_count + 2)
        assert decided_where_exact(recipe_of(terms), alpha, ks) > 0

    @given(
        N=st.integers(1, 3000),
        q=st.one_of(st.floats(0.3, 0.99), st.just(1.0)),
        pt=st.sampled_from([0.001, 0.01, 0.05, 0.1]),
        on_point=st.booleans(),
        u=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_sign_on_common_shock_plateaus(self, N, q, pt, on_point, u):
        model = ModelSpec.common_shock(1 / 6, q, pt)
        d = loss_count_distribution(model, N, 6)
        alpha = level_on_plateau(d, 1.0 - pt, on_point, u)
        lo, g, hi = band_edges(d, alpha)
        spread = np.linspace(lo - 2, hi + 2, 9).round().astype(int).tolist()
        ks = {d.min_count + i for i in [*spread, g - 1, g, g + 1]}
        decided_where_exact(recipe_of(state_terms(model, N, 6)), alpha, sorted(ks))

    @given(n=st.integers(1, 400), p=st.floats(0.01, 0.99), u=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_sign_at_stored_cdf_points(self, n, p, u):
        # alpha is the stored cdf at a point of a binomial, so the residual
        # there is a few ulps of the cdf, which the bound must not decide
        # unless the sign is right.
        terms = binomial_terms((1.0, n, p))
        d = terms[0].law
        i = round(u * (len(d.masses) - 1))
        alpha = float(d.cdf[i])
        assume(0.0 < alpha < 1.0)
        decided_where_exact(recipe_of(terms), alpha, [d.min_count + i + j for j in (-1, 0, 1)])

    @pytest.mark.parametrize("tail", ["zero", "subnormal"])
    def test_tail_that_underflows_falls_back(self, monkeypatch, tail):
        # Bin(2000, 1/2) stored over its whole support: its lower cdf,
        # sum(comb(2000, j) for j <= k) / 2**2000, rounds to 0.0 in double
        # precision up to about k = 40, then to a subnormal.
        law = DiscreteLossDistribution(0, binom.pmf_window(2000, 0.5, 0, 2000))
        recipe = recipe_of([StateTerm(0, 1.0, (0, 0.0), (2000, 0.5), law)])
        assert recipe == ((1.0, 2000, 0.5, 0, 2000),)
        low = np.array([float(Fraction(sum(math.comb(2000, j) for j in range(k + 1)), 2**2000))
                        for k in range(200)])
        pick = low == 0.0 if tail == "zero" else (0.0 < low) & (low < sys.float_info.min)
        k = int(np.nonzero(pick)[0][-1])
        assert distributions._residual_sign(recipe, k, 0.5) is None
        fallbacks = []
        monkeypatch.setattr(distributions, "exact_cdf_at",
                            lambda *args: fallbacks.append(args) or exact_cdf_at(*args))
        assert distributions.cdf_reaches(recipe, k, 0.5) is False
        assert fallbacks == [(recipe, k)]

    def test_component_beyond_the_kernel_range_is_not_decided(self):
        # A stand-in law of one count, the probe's, in place of the
        # binomial's 2**25-count window.
        trials = distributions._KERNEL_MAX_TRIALS + 1
        law = DiscreteLossDistribution(trials // 2, np.array([1.0]))
        recipe = recipe_of([StateTerm(0, 1.0, (0, 0.0), (trials, 0.5), law)])
        assert distributions._residual_sign(recipe, trials // 2, 0.5) is None


probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def exact_quotes(draw):
    """(model, N, n, alpha, convention), alpha often on a state atom of the law of j."""
    kind = draw(st.sampled_from(list(ModelKind)))
    n, N = draw(st.integers(1, 8)), draw(st.integers(1, 20_000))
    p, q = draw(probabilities), draw(st.one_of(st.just(1.0), probabilities))
    pt = 0.0 if kind is ModelKind.IID else draw(
        st.one_of(st.sampled_from([0.001, 0.01, 0.05, 0.1]), probabilities))
    model = ModelSpec(kind, p, q, pt)
    # The cdf's plateaus: 1 - pt for the common shock, the partial sums of
    # the round weights for the per-exposure shock.
    atoms = [a for a in np.cumsum([w for _, w in crisis_rounds(model, n)]).tolist()
             if 0.0 < a < 1.0]
    levels = [st.floats(0.0, 1.0), st.just(1.0 - 1e-14)]
    if atoms:
        levels.append(st.sampled_from(atoms))
    alpha = draw(st.one_of(*levels))
    return model, N, n, alpha, draw(st.sampled_from(list(TvarConvention)))


def outcome(read, *args):
    """repr of a reader's (VaR, TVaR), or the type of what it raised."""
    try:
        return repr(read(*args))
    except Exception as exc:
        return type(exc)


@pytest.mark.filterwarnings("ignore:crisis_prob > 0.5", "ignore:crisis_loss_prob <= loss_prob")
class TestOccupiedWindows:
    """The exact measures read over the terms' occupied windows keep the dense law's bits."""

    @given(case=exact_quotes())
    # A plateau search across the gap, and per-exposure states whose
    # windows overlap, where the masses' bits depend on the order of the sum.
    @example(case=(ModelSpec.common_shock(1 / 6, 0.5, 0.01), 1000, 6, 0.99,
                   TvarConvention.CONDITIONAL))
    @example(case=(ModelSpec.per_exposure_shock(0.1, 0.3, 0.01), 2, 2, 0.75,
                   TvarConvention.CONDITIONAL))
    # A tail beyond a crisis window whose weighted masses underflow to 0.0:
    # both sides sum the occupied counts, zeros included.
    @example(case=(ModelSpec.per_exposure_shock(0.3, 0.9, 1e-160), 100, 4, 0.6,
                   TvarConvention.CONDITIONAL))
    @settings(max_examples=150, deadline=None)
    def test_bits_equal_the_dense_reader(self, case):
        model, N, n, alpha, convention = case
        got = outcome(measures_in_counts, model, N, n, alpha, convention, "exact")
        assert got == outcome(dense_var_and_tvar, model, N, n, alpha, convention)

    @given(case=exact_quotes())
    # The tail crosses the gap to the crisis hump, and the gaps between the
    # per-exposure states' humps; a lone binomial has no gap.
    @example(case=(ModelSpec.common_shock(1 / 6, 0.5, 0.001), 1000, 6, 0.99,
                   TvarConvention.CONDITIONAL))
    @example(case=(ModelSpec.per_exposure_shock(1 / 6, 0.5, 0.01), 10_000, 6, 0.99,
                   TvarConvention.CONDITIONAL))
    @example(case=(ModelSpec.iid(1 / 6), 10_000, 6, 0.99, TvarConvention.CONDITIONAL))
    @settings(max_examples=40, deadline=None)
    def test_tail_sum_within_its_rounding_bound(self, case):
        # beyond is fl(sum of fl(k * m)) over the occupied counts above the
        # VaR, against S, the exact sum of k * m over the stored law's
        # doubles.  Each product (k an integer below 2**53) rounds once.
        # numpy sums a contiguous float64 array pairwise (Higham, Accuracy
        # and Stability of Numerical Algorithms, 2nd ed., section 4.2), in
        # blocks: the reduce may add its first term to the sum of the rest
        # (one addition); that sum halves its range until at most 128 terms
        # remain, at most ceil(log2 t) levels for t terms; a block keeps 8
        # strided partial sums of up to 16 terms (15 additions), joins them
        # in 3 levels and adds up to 7 leftover terms one by one.  So a term
        # meets at most D = 1 + 1 + ceil(log2 t) + 15 + 3 + 7 roundings, and
        # as every term is nonnegative, |beyond - S| <= gamma_D * S with
        # gamma_D = D u / (1 - D u), u = 2**-53 (Higham, Lemma 3.1).  t is
        # at most the span from the VaR to the top count, and gamma_D grows
        # with t.
        model, N, n, alpha, convention = case
        with mock.patch.object(measures, "tail_value", wraps=tail_value) as spy:
            try:
                measures_in_counts(model, N, n, alpha, convention, "exact")
            except (ValueError, TruncationError):
                assume(False)
        var_count, beyond = spy.call_args.args[0], spy.call_args.args[3]
        d = loss_count_distribution(model, N, n)
        ks = range(var_count + 1, d.max_count + 1)
        ms = d.masses[var_count + 1 - d.min_count :].tolist()
        exact = sum(k * Fraction(m) for k, m in zip(ks, ms) if m)
        u, rounds = Fraction(1, 2**53), 27 + math.ceil(math.log2(max(len(ks), 1)))
        assert abs(Fraction(beyond) - exact) <= rounds * u / (1 - rounds * u) * exact

    def test_no_mixture_on_a_multi_state_model(self, monkeypatch):
        def unused(*args):
            raise AssertionError("the measure path built the stored mixture")

        monkeypatch.setattr(models, "mixture", unused)
        monkeypatch.setattr(DiscreteLossDistribution, "cdf", property(unused))
        for kind in (ModelKind.COMMON_SHOCK, ModelKind.PER_EXPOSURE_SHOCK):
            measures_in_counts(ModelSpec(kind, 0.1, 0.5, 0.01), 2_000, 6, 0.99,
                               TvarConvention.CONDITIONAL, "exact")

    def test_no_array_over_the_gap(self):
        # At N = 10**6 the common shock stores 30,077 counts with mass in
        # two humps 2 million counts apart.  With the terms built, reading
        # VaR and TVaR at 99% must allocate well under one float array over
        # 0 .. N*n (48 MB), wherever the VaR lies: in the crisis hump
        # (pt = 5%), or in the normal hump with the crisis hump beyond a
        # gap in its tail (the common shock at pt = 0.1%, the per-exposure
        # shock at pt = 1%).  The dense mixture and its cdf took 82.6 MB; a
        # tail laid out densely from the VaR to the top count, 32.9 and
        # 30.2 MB in the last two cases.
        N, n = 10**6, 6
        for model in (ModelSpec.common_shock(1 / 6, 0.5, 0.05),
                      ModelSpec.common_shock(1 / 6, 0.5, 0.001),
                      ModelSpec.per_exposure_shock(1 / 6, 0.5, 0.01)):
            state_terms(model, N, n)
            tracemalloc.start()
            try:
                measures_in_counts(model, N, n, 0.99, TvarConvention.CONDITIONAL, "exact")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * N * n / 4, model


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
        exact_v = var_and_tvar(binomial(600, 1 / 6), 0.99)[0]
        exact_loading = 0.15 * (10 * exact_v / 100 - 10.0)
        approx_loading = 0.15 * (10 * gaussian_var_approx(100, 6, 1 / 6, 0.99) / 100 - 10.0)
        assert exact_loading == pytest.approx(0.330, abs=5e-4)
        assert abs(approx_loading - exact_loading) / exact_loading <= 0.15

    def test_sanity_scale(self):
        # Standardised gap between approximation and exact VaR stays small.
        for p in (1 / 6, 0.25):
            trials = 60_000
            approx = gaussian_var_approx(10_000, 6, p, 0.99)
            exact = var_and_tvar(binomial(trials, p), 0.99)[0]
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


# The terms of small binomials and of two-state mixtures of them; their
# components send plateau crossings to the exact search.
small_terms = st.one_of(
    st.builds(lambda n, p: binomial_terms((1.0, n, p)), st.integers(1, 40), st.floats(0.02, 0.98)),
    st.builds(
        lambda n, p, q, w: binomial_terms((w, n, q), (1.0 - w, n, p)),
        st.integers(1, 40),
        st.floats(0.02, 0.5),
        st.floats(0.5, 0.98),
        st.floats(0.001, 0.2),
    ),
)


class TestVarAndTvar:
    @given(terms=small_terms, alpha=st.floats(0.5, 0.995))
    @settings(max_examples=80, deadline=None)
    def test_one_search_gives_both_measures(self, terms, alpha):
        conditional = var_and_tvar(terms, alpha, TvarConvention.CONDITIONAL)
        tail_average = var_and_tvar(terms, alpha, TvarConvention.TAIL_AVERAGE)
        v = conditional[0]
        assert tail_average[0] == v
        assert conditional[1] == pytest.approx(brute_tail_mean(dense_law(terms), v), rel=1e-9)
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
