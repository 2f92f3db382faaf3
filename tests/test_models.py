"""Generative models: exact distributions, closed-form moments, reductions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import dense, pointwise_distance
from riskdiv import models
from riskdiv.distributions import binomial, moments
from riskdiv.measures import var_and_tvar
from riskdiv.models import (
    MAX_SUPPORT,
    ModelKind,
    ModelSpec,
    PortfolioParams,
    SupportLimitError,
    check_support,
    closed_form_mean_per_policy,
    closed_form_variance_per_policy,
    crisis_rounds,
    exact_decimal,
    loss_count_distribution,
    nondiversifiable_floor,
    state_terms,
)
from riskdiv.montecarlo import SimulationConfig, simulate

PARAMS = PortfolioParams()  # n=6, severity 10, eta 15%, alpha 99%


def shock_models(p=1 / 6, q=0.5, pt=0.01):
    return (
        ModelSpec.common_shock(p, q, pt),
        ModelSpec.per_exposure_shock(p, q, pt),
    )


class TestLossCountDistribution:
    def test_iid_single_policy(self):
        d = loss_count_distribution(ModelSpec.iid(1 / 6), 1, 6)
        assert pointwise_distance(d, binomial(6, 1 / 6)) == 0.0

    def test_common_shock_reference_cell(self):
        # Mixture at N=1: VaR count 3 and loading 2.997.
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.001)
        d = loss_count_distribution(model, 1, 6)
        assert var_and_tvar(d, 0.99)[0] == 3
        loading = 0.15 * (10 * 3 - closed_form_mean_per_policy(model, PARAMS))
        assert loading == pytest.approx(2.997, abs=5e-4)

    def test_per_exposure_no_crisis_reduces_to_iid(self):
        model = ModelSpec.per_exposure_shock(1 / 6, 0.5, 0.0)
        for N in (1, 10, 200):
            d = loss_count_distribution(model, N, 6)
            assert pointwise_distance(d, binomial(6 * N, 1 / 6)) <= 1e-14

    def test_common_shock_no_crisis_reduces_to_iid(self):
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.0)
        d = loss_count_distribution(model, 50, 6)
        assert pointwise_distance(d, binomial(300, 1 / 6)) <= 1e-14

    def test_equal_probabilities_collapse_both_models(self):
        with pytest.warns(UserWarning):
            models = shock_models(p=0.2, q=0.2, pt=0.05)
        for model in models:
            d = loss_count_distribution(model, 20, 6)
            assert pointwise_distance(d, binomial(120, 0.2)) <= 1e-14

    def test_certain_crisis(self):
        with pytest.warns(UserWarning):
            model = ModelSpec.common_shock(1 / 6, 0.5, 1.0)
        d = loss_count_distribution(model, 10, 6)
        assert pointwise_distance(d, binomial(60, 0.5)) == 0.0

    @pytest.mark.filterwarnings("ignore:crisis_prob > 0.5")
    @pytest.mark.parametrize("N", [1, 7, 300])
    @pytest.mark.parametrize("kind,pt,prob", [
        (ModelKind.IID, 0.0, 0.3),
        (ModelKind.COMMON_SHOCK, 0.0, 0.3),
        (ModelKind.COMMON_SHOCK, 1.0, 0.8),
        (ModelKind.PER_EXPOSURE_SHOCK, 0.0, 0.3),
        (ModelKind.PER_EXPOSURE_SHOCK, 1.0, 0.8),
    ], ids=["iid", "common-pt0", "common-pt1", "crisis-pt0", "crisis-pt1"])
    def test_lone_state_is_the_binomial(self, kind, pt, prob, N):
        # One state of the crisis-round law carries all the weight: the
        # result is that state's binomial, and its term the binomial's recipe.
        model = ModelSpec(kind, 0.3, 0.8, pt)
        d, b = loss_count_distribution(model, N, 6), binomial(6 * N, prob)
        assert d.min_count == b.min_count
        assert np.array_equal(d.masses, b.masses)
        assert (d.truncated_below, d.truncated_above) == (b.truncated_below, b.truncated_above)
        (term,) = state_terms(model, N, 6)
        assert term.component == (1.0, 6 * N, prob, b.min_count, b.max_count)

    def test_support_guard(self):
        # The limit is a fixed constant, and past it no term is built.
        check_support(1, MAX_SUPPORT)
        with pytest.raises(SupportLimitError, match=r"^support of 10000001 counts "
                           r"\(N=1, n=10000001\) exceeds the limit 10000000$"):
            check_support(1, MAX_SUPPORT + 1)
        misses = models._state_term.cache_info().misses
        with pytest.raises(SupportLimitError, match=r"^support of 10000002 counts "
                           r"\(N=1666667, n=6\) exceeds the limit 10000000$"):
            loss_count_distribution(ModelSpec.iid(0.5), 1_666_667, 6)
        assert models._state_term.cache_info().misses == misses
        # A numpy N is multiplied as a Python int: in int64, 2**61 * 8
        # wraps to 0 and (2**62 + 1) * 4 to 4.
        with pytest.raises(SupportLimitError, match=rf"^support of {2**64} counts "):
            check_support(np.int64(2**61), 8)
        with pytest.raises(SupportLimitError, match=rf"^support of {(2**62 + 1) * 4} counts "):
            loss_count_distribution(ModelSpec.iid(0.5), np.int64(2**62 + 1), 4)
        assert models._state_term.cache_info().misses == misses

    @pytest.mark.parametrize("N,n", [(0, 6), (1, 0), (-3, 6)])
    def test_empty_portfolio_rejected(self, N, n):
        with pytest.raises(ValueError, match="N and n must be >= 1"):
            loss_count_distribution(ModelSpec.iid(1 / 6), N, n)


@pytest.mark.filterwarnings("ignore:crisis_prob > 0.5")
class TestCrisisRounds:
    @pytest.mark.parametrize("n", [1, 2, 6, 25])
    @pytest.mark.parametrize("pt", [0.0, 0.001, 0.05, 0.3, 1.0])
    @pytest.mark.parametrize("kind", [ModelKind.COMMON_SHOCK, ModelKind.PER_EXPOSURE_SHOCK])
    def test_is_a_law_with_mean_n_pt(self, kind, pt, n):
        law = crisis_rounds(ModelSpec(kind, 0.1, 0.2, pt), n)
        weights = [w for _, w in law]
        assert all(w >= 0.0 for w in weights)
        assert sum(weights) == pytest.approx(1.0, abs=1e-14)
        assert sum(j * w for j, w in law) == pytest.approx(n * pt, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("pt", [0.0, 0.05, 1.0])
    def test_common_shock_puts_its_mass_on_none_or_all(self, pt):
        assert crisis_rounds(ModelSpec.common_shock(0.1, 0.2, pt), 6) == [(0, 1.0 - pt), (6, pt)]

    def test_per_exposure_law_is_binomial_in_increasing_j(self):
        law = crisis_rounds(ModelSpec.per_exposure_shock(0.1, 0.2, 0.25), 4)
        assert [j for j, _ in law] == [0, 1, 2, 3, 4]
        assert [w * 256 for _, w in law] == pytest.approx([81, 108, 54, 12, 1])

    @pytest.mark.parametrize("n", [3, 2000])
    def test_a_sure_j_comes_alone(self, n):
        # No zero weight is built for the other j.
        assert crisis_rounds(ModelSpec.iid(0.1), n) == [(0, 1.0)]
        assert crisis_rounds(ModelSpec.per_exposure_shock(0.1, 0.2, 0.0), n) == [(0, 1.0)]
        assert crisis_rounds(ModelSpec.per_exposure_shock(0.1, 0.2, 1.0), n) == [(n, 1.0)]

    @pytest.mark.parametrize("n", [1030, 1500])
    def test_weights_past_comb_overflow_work(self, n):
        # comb(n, j) exceeds a float past about 1030 exposures; the weights
        # come from binomial's pmf kernel, so both engines take any n.
        model = ModelSpec.per_exposure_shock(0.1, 0.2, 0.01)
        law = crisis_rounds(model, n)
        assert [j for j, _ in law] == list(range(n + 1))
        assert sum(w for _, w in law) == pytest.approx(1.0, abs=1e-12)
        mean = n * (0.01 * 0.2 + 0.99 * 0.1)
        assert moments(loss_count_distribution(model, 1, n))[0] == pytest.approx(mean, rel=1e-9)
        counts = dense(simulate(model, 1, n, SimulationConfig(4_000, seed=1)))
        assert int(counts.sum()) == 4_000
        # Per path the count has sd about sqrt(n * 0.1 * 0.9) < 12.
        assert abs(np.arange(n + 1) @ counts / 4_000 - mean) < 4 * 12 / np.sqrt(4_000)


class TestStateTerms:
    @pytest.mark.filterwarnings("ignore:crisis_prob > 0.5")
    @pytest.mark.parametrize("pt", [0.0, 0.3, 1.0])
    def test_common_shock_skips_the_state_of_zero_weight(self, pt):
        model = ModelSpec.common_shock(0.1, 0.2, pt)
        states = state_terms(model, 5, 6)
        assert [(t.j, t.weight) for t in states] == [(j, w) for j, w in crisis_rounds(model, 6) if w]
        # Given j = 0 or j = n, the count is one binomial over all N*n exposures.
        for t in states:
            assert (t.crisis, t.normal) == (((30, 0.2), (0, 0.0)) if t.j else ((0, 0.0), (30, 0.1)))
            want = binomial(30, 0.2 if t.j else 0.1)
            assert (t.law.min_count, t.law.masses.tolist()) == (want.min_count, want.masses.tolist())

    def test_a_hit_returns_the_same_frozen_term(self):
        # A term does not depend on p_tilde, and the probability of an empty
        # side is not part of its key: the iid term is the j = 0 state of
        # every shock model with the same p, and the j = n state of both
        # shock models is one term too.
        shock = ModelSpec.per_exposure_shock(0.1, 0.2, 0.05)
        first = state_terms(shock, 5, 6)
        again = state_terms(ModelSpec.per_exposure_shock(0.1, 0.2, 0.3), 5, 6)
        assert all(a.law is b.law for a, b in zip(first, again))
        # A term compares by identity, never by its law's masses array.
        assert first[0] == first[0] and first[0] != again[0]
        (iid,) = state_terms(ModelSpec.iid(0.1), 5, 6)
        common = state_terms(ModelSpec.common_shock(0.1, 0.2, 0.05), 5, 6)
        assert iid.law is first[0].law is common[0].law
        assert common[1].law is first[-1].law
        assert loss_count_distribution(ModelSpec.iid(0.1), 5, 6) is iid.law
        assert not any(t.law.masses.flags.writeable for t in first)

    def test_the_memo_is_bounded(self):
        memo = models._state_term
        memo.cache_clear()
        size = memo.cache_info().maxsize
        for N in range(1, size + 10):
            state_terms(ModelSpec.iid(0.1), N, 2)
        assert memo.cache_info().currsize == size

    def test_loss_count_distribution_mixes_the_terms(self):
        model = ModelSpec.per_exposure_shock(0.1, 0.2, 0.05)
        states = state_terms(model, 7, 6)
        assert [t.j for t in states] == list(range(7))
        mixed = loss_count_distribution(model, 7, 6)
        manual = sum(t.weight * np.pad(t.law.masses, (t.law.min_count, 42 - t.law.max_count))
                     for t in states)
        assert np.max(np.abs(manual[mixed.min_count : mixed.max_count + 1] - mixed.masses)) < 1e-15


# The recipe component of a side of 60 trials at each probability, as the
# stored law carried it (loss_count_distribution(model, 10, 6).components)
# before the recipe moved to StateTerm: prob 0 is Bin(0, 1), a point mass at
# 0, and prob 1 is Bin(60, 1).  The window 0..38 is binomial(60, 1/6)'s.
SIDE_RECIPES = {0.0: (0, 1.0, 0, 0), 1 / 6: (60, 1 / 6, 0, 38), 1.0: (60, 1.0, 60, 60)}


class TestStateTermComponent:
    @pytest.mark.parametrize("p", SIDE_RECIPES)
    def test_iid_equals_the_stored_recipe(self, p):
        (term,) = state_terms(ModelSpec.iid(p), 10, 6)
        assert term.component == (1.0, *SIDE_RECIPES[p])

    @pytest.mark.filterwarnings("ignore:crisis_prob > 0.5", "ignore:crisis_loss_prob <= loss_prob")
    @pytest.mark.parametrize("pt", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize("q", SIDE_RECIPES)
    @pytest.mark.parametrize("p", SIDE_RECIPES)
    def test_common_shock_equals_the_stored_recipe(self, p, q, pt):
        # One component per state of nonzero weight: j = 0 at 1 - pt, j = n at pt.
        want = [(w, *SIDE_RECIPES[x]) for w, x in ((1.0 - pt, p), (pt, q)) if w]
        got = [t.component for t in state_terms(ModelSpec.common_shock(p, q, pt), 10, 6)]
        assert got == want

    @pytest.mark.parametrize("p,q", [(1 / 6, 0.5), (0.0, 0.5), (1 / 6, 1.0), (0.0, 1.0)])
    def test_per_exposure_interior_states_have_none(self, p, q):
        # 0 < j < n puts trials on both sides, a sum of two binomials, even
        # when one side is a point mass.
        terms = state_terms(ModelSpec.per_exposure_shock(p, q, 0.01), 10, 6)
        assert [t.j for t in terms] == list(range(7))
        assert [t.component is None for t in terms] == [False] + [True] * 5 + [False]
        assert terms[0].component == (terms[0].weight, *SIDE_RECIPES[p])


class TestExactDecimal:
    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    @example(x=-0.0)
    @example(x=0.0)
    def test_memo_returns_the_decimal_of_repr(self, x):
        # A numpy float, read on an empty memo, is the decimal of its float;
        # numpy 2 prints its type in its repr.  The second call is served
        # from the memo.
        exact_decimal.cache_clear()
        assert exact_decimal(np.float64(x)) == Fraction(repr(x))
        assert exact_decimal(x) == Fraction(repr(x))


class TestClosedFormMean:
    def test_iid(self):
        assert closed_form_mean_per_policy(ModelSpec.iid(1 / 6), PARAMS) == pytest.approx(10.0)

    def test_common_shock_heavy_crisis(self):
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.10)
        assert closed_form_mean_per_policy(model, PARAMS) == pytest.approx(12.0)

    def test_no_crisis_reduces_to_iid(self):
        model = ModelSpec.common_shock(0.3, 0.9, 0.0)
        assert closed_form_mean_per_policy(model, PARAMS) == pytest.approx(
            PARAMS.severity * PARAMS.exposures * 0.3
        )

    @given(
        p=st.floats(0.01, 0.45),
        q=st.floats(0.5, 0.99),
        pt=st.floats(0.0, 0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_shock_models_share_the_mean(self, p, q, pt):
        common, per_exposure = (
            ModelSpec.common_shock(p, q, pt),
            ModelSpec.per_exposure_shock(p, q, pt),
        )
        assert closed_form_mean_per_policy(common, PARAMS) == pytest.approx(
            closed_form_mean_per_policy(per_exposure, PARAMS), rel=1e-14
        )


class TestClosedFormVariance:
    def test_iid_single_policy(self):
        v = closed_form_variance_per_policy(ModelSpec.iid(1 / 6), PARAMS, 1)
        assert v == pytest.approx(500 / 6, rel=1e-12)

    def test_common_shock_floor_value(self):
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.01)
        floor = nondiversifiable_floor(model, PARAMS)
        assert floor == pytest.approx(100 * 36 * (1 / 9) * 0.01 * 0.99, rel=1e-12)
        assert floor == pytest.approx(3.96, abs=1e-10)

    def test_per_exposure_floor_value(self):
        model = ModelSpec.per_exposure_shock(1 / 6, 0.5, 0.01)
        assert nondiversifiable_floor(model, PARAMS) == pytest.approx(0.66, abs=1e-10)

    def test_variance_approaches_floor(self):
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.01)
        floor = nondiversifiable_floor(model, PARAMS)
        v = closed_form_variance_per_policy(model, PARAMS, 10**9)
        assert v == pytest.approx(floor, rel=1e-6)

    def test_iid_floor_is_zero(self):
        assert nondiversifiable_floor(ModelSpec.iid(0.3), PARAMS) == 0.0

    def test_floor_ratio_is_exposures(self):
        common, per_exposure = shock_models()
        ratio = nondiversifiable_floor(common, PARAMS) / nondiversifiable_floor(
            per_exposure, PARAMS
        )
        assert ratio == pytest.approx(PARAMS.exposures, rel=1e-12)

    def test_equal_probabilities_zero_floor(self):
        with pytest.warns(UserWarning):
            model = ModelSpec.common_shock(0.3, 0.3, 0.1)
        assert nondiversifiable_floor(model, PARAMS) == 0.0

    @given(
        p=st.floats(0.01, 0.45),
        q=st.floats(0.5, 0.95),
        pt=st.floats(0.001, 0.5),
        N=st.integers(1, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_variance_ordering_identity(self, p, q, pt, N):
        common, per_exposure = (
            ModelSpec.common_shock(p, q, pt),
            ModelSpec.per_exposure_shock(p, q, pt),
        )
        diff = closed_form_variance_per_policy(common, PARAMS, N) - closed_form_variance_per_policy(
            per_exposure, PARAMS, N
        )
        n, l = PARAMS.exposures, PARAMS.severity
        expected = l * l * n * (n - 1) * (q - p) ** 2 * pt * (1 - pt)
        assert diff == pytest.approx(expected, rel=1e-10, abs=1e-10)
        assert diff >= 0.0


class TestMomentAgreement:
    @pytest.mark.parametrize("N", [1, 10, 100, 1000])
    def test_distribution_matches_closed_forms(self, N):
        l = PARAMS.severity
        for model in (ModelSpec.iid(1 / 6), *shock_models()):
            d = loss_count_distribution(model, N, PARAMS.exposures)
            mean_c, var_c = moments(d)
            mean = l * mean_c / N
            var = l * l * var_c / (N * N)
            assert mean == pytest.approx(closed_form_mean_per_policy(model, PARAMS), rel=1e-10)
            assert var == pytest.approx(
                closed_form_variance_per_policy(model, PARAMS, N), rel=1e-10
            )

    def test_variance_limit_at_large_portfolio(self):
        # At N = 10^6 the distribution variance must sit on the predicted
        # floor plus first-term curve to 1e-3 relative.
        N = 1_000_000
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.01)
        d = loss_count_distribution(model, N, PARAMS.exposures)
        _, var_c = moments(d)
        var = PARAMS.severity**2 * var_c / (N * N)
        assert var == pytest.approx(
            closed_form_variance_per_policy(model, PARAMS, N), rel=1e-3
        )
        assert var == pytest.approx(nondiversifiable_floor(model, PARAMS), rel=1e-2)


class TestModelSpecValidation:
    def test_probability_ranges(self):
        with pytest.raises(ValueError):
            ModelSpec.iid(1.2)
        with pytest.raises(ValueError):
            ModelSpec.common_shock(0.1, -0.2, 0.01)

    def test_iid_has_no_crisis_state(self):
        with pytest.raises(ValueError, match="iid has no crisis state"):
            ModelSpec(ModelKind.IID, 0.1, 0.5, 0.01)
        ModelSpec(ModelKind.IID, 0.1, 0.5)  # a crisis loss probability is never read

    def test_soft_warning_regimes(self):
        with pytest.warns(UserWarning):
            ModelSpec.common_shock(0.5, 0.2, 0.01)  # crisis milder than normal
        with pytest.warns(UserWarning):
            ModelSpec.per_exposure_shock(0.1, 0.5, 0.7)  # crises dominate

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PortfolioParams(exposures=0)
        with pytest.raises(ValueError):
            PortfolioParams(severity=0.0)
        with pytest.raises(ValueError):
            PortfolioParams(alpha=1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["severity", "capital_cost", "expense_ratio"])
    def test_params_reject_non_finite_economics(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            PortfolioParams(**{field: value})
