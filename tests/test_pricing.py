"""Capital, risk loadings, premiums, relative risk."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import exact_tvar_loading_bits
from riskdiv.distributions import moments
from riskdiv.measures import (
    MeasureKind,
    RiskMeasureSpec,
    TvarConvention,
    apply_measure,
    gaussian_var_approx,
    normal_quantile,
)
from riskdiv.models import (
    ModelKind,
    ModelSpec,
    PortfolioParams,
    exact_decimal,
    loss_count_distribution,
)
from riskdiv.montecarlo import SimulationConfig, loading_from_rho
from riskdiv.pricing import (
    premium,
    premium_netted,
    price_policy,
    relative_risk,
    risk_adjusted_capital,
    risk_loading_per_policy,
)
from riskdiv.tables import fmt_loading

PARAMS = PortfolioParams()
VAR99 = RiskMeasureSpec(MeasureKind.VAR, 0.99)
TVAR99 = RiskMeasureSpec(MeasureKind.TVAR, 0.99)


def var_counts(model, N, spec):
    return apply_measure(loss_count_distribution(model, N, PARAMS.exposures), spec)


class TestCapital:
    IID = ModelSpec.iid(1 / 6)

    def test_var_capital(self):
        rho = var_counts(self.IID, 1, VAR99)
        assert risk_adjusted_capital(rho, self.IID, PARAMS, 1) == pytest.approx(20.0)

    def test_point_mass_capital_is_zero(self):
        model = ModelSpec.iid(1.0)  # every exposure loses: a point mass at n
        assert risk_adjusted_capital(var_counts(model, 1, VAR99), model, PARAMS, 1) == pytest.approx(0.0)

    def test_tvar_capital(self):
        got = risk_adjusted_capital(var_counts(self.IID, 1, TVAR99), self.IID, PARAMS, 1)
        assert got == pytest.approx(21.51, abs=5e-3)

    def test_negative_capital_warns(self):
        # A low confidence level puts the quantile below the mean.
        rho = var_counts(self.IID, 1, RiskMeasureSpec(MeasureKind.VAR, 0.2))
        with pytest.warns(UserWarning):
            value = risk_adjusted_capital(rho, self.IID, PARAMS, 1)
        assert value < 0.0

    def test_capital_matches_pmf_mean_within_truncation(self):
        # The closed-form mean and the stored-pmf mean differ by at most
        # truncated_mass * N * n counts.
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.01)
        for N in (10, 1000):
            d = loss_count_distribution(model, N, PARAMS.exposures)
            rho = apply_measure(d, TVAR99)
            pmf_capital = PARAMS.severity * (rho - moments(d)[0])
            bound = PARAMS.severity * (d.truncated_mass * N * PARAMS.exposures + 1e-9 * N)
            assert abs(risk_adjusted_capital(rho, model, PARAMS, N) - pmf_capital) <= bound


class TestRiskLoading:
    def test_iid_single_policy(self):
        est = risk_loading_per_policy(ModelSpec.iid(1 / 6), PARAMS, 1, VAR99)
        assert est.value == pytest.approx(3.000, abs=1e-9)
        assert est.standard_error is None

    def test_common_shock_plateau_cell(self):
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.01)
        est = risk_loading_per_policy(model, PARAMS, 10_000, TVAR99)
        assert fmt_loading(est.value) == "2.970"

    def test_loading_identity(self):
        # loading == eta * capital / N for the same measure, exactly.
        model = ModelSpec.iid(1 / 6)
        for N in (1, 10, 100):
            est = risk_loading_per_policy(model, PARAMS, N, TVAR99)
            capital = risk_adjusted_capital(var_counts(model, N, TVAR99), model, PARAMS, N)
            assert est.value == pytest.approx(0.15 * capital / N, rel=1e-12)

    def test_mc_source_attaches_standard_error(self):
        model = ModelSpec.iid(1 / 6)
        cfg = SimulationConfig(num_sims=50_000, seed=11)
        est = risk_loading_per_policy(model, PARAMS, 10, VAR99, source=cfg)
        assert est.standard_error is not None and est.standard_error >= 0.0

    def test_non_integer_portfolio_is_refused_by_name(self):
        # A float N or number of exposures fails with a ValueError naming
        # the field, before any array is sized by it.
        spec = RiskMeasureSpec(MeasureKind.VAR, 0.99)
        with pytest.raises(ValueError, match=r"^exposures must be an integer, got 2\.5$"):
            risk_loading_per_policy(ModelSpec.iid(1 / 6), PortfolioParams(exposures=2.5), 10, spec)
        with pytest.raises(ValueError, match=r"^N must be an integer, got 10\.5$"):
            risk_loading_per_policy(ModelSpec.iid(1 / 6), PortfolioParams(), 10.5, spec)

    def test_bad_source(self):
        with pytest.raises(ValueError):
            risk_loading_per_policy(ModelSpec.iid(0.5), PARAMS, 1, VAR99, source="wrong")

    def test_iid_diversification_monotone(self):
        model = ModelSpec.iid(1 / 6)
        for spec in (VAR99, TVAR99):
            values = [
                risk_loading_per_policy(model, PARAMS, N, spec).value
                for N in (1, 5, 10, 50, 100, 1000, 10_000)
            ]
            assert all(b <= a + 0.005 for a, b in zip(values, values[1:]))
        assert values[-1] < 0.05  # all but vanished at 10^4 policies

    def test_systemic_floor_plateau(self):
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.01)
        at_1k = risk_loading_per_policy(model, PARAMS, 1000, TVAR99).value
        at_10k = risk_loading_per_policy(model, PARAMS, 10_000, TVAR99).value
        assert abs(at_10k - at_1k) / at_1k <= 0.05

    def test_tvar_dominates_var(self):
        for model in (ModelSpec.iid(0.25), ModelSpec.common_shock(1 / 6, 0.5, 0.05)):
            for N in (1, 10, 100):
                v = risk_loading_per_policy(model, PARAMS, N, VAR99).value
                t = risk_loading_per_policy(model, PARAMS, N, TVAR99).value
                assert t >= v - 1e-12


class TestStringKinds:
    """A spec's enum fields given as strings price as their enums, or raise."""

    @staticmethod
    def loading(model, measure, N=100):
        return fmt_loading(risk_loading_per_policy(model, PARAMS, N, measure).value)

    def test_model_kind(self):
        # `is` against the enum used to miss the string and price the
        # per-exposure shock: 0.945 instead of 3.000.
        spec = ModelSpec("common-shock", 1 / 6, 0.5, 0.05)
        assert spec.kind is ModelKind.COMMON_SHOCK
        assert spec == ModelSpec.common_shock(1 / 6, 0.5, 0.05)
        assert self.loading(spec, VAR99) == "3.000"

    def test_measure_kind_and_convention(self):
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.05)
        spec = RiskMeasureSpec("tvar", 0.99, "conditional")
        assert (spec.kind, spec.convention) == (MeasureKind.TVAR, TvarConvention.CONDITIONAL)
        assert spec == TVAR99
        # The string TVaR used to price the VaR, and the string conditional
        # convention the tail average.
        assert self.loading(model, spec) == self.loading(model, TVAR99)
        tail = RiskMeasureSpec(MeasureKind.TVAR, 0.99, TvarConvention.TAIL_AVERAGE)
        assert len({self.loading(model, s) for s in (VAR99, TVAR99, tail)}) == 3

    @pytest.mark.parametrize("build", [
        lambda: ModelSpec("nonsense", 0.1),
        lambda: RiskMeasureSpec("nonsense", 0.99),
        lambda: RiskMeasureSpec(MeasureKind.TVAR, 0.99, "nonsense"),
    ], ids=["model-kind", "measure-kind", "convention"])
    def test_unknown_value_is_rejected(self, build):
        with pytest.raises(ValueError, match="nonsense"):
            build()


class TestPremiums:
    def test_pure_expectation(self):
        assert premium(PARAMS, 10.0, 0.0) == pytest.approx(10.0)

    def test_with_capital(self):
        assert premium(PARAMS, 10.0, 20.0) == pytest.approx(13.0)

    def test_with_expenses(self):
        params = PortfolioParams(expense_ratio=0.05)
        assert premium(params, 10.0, 20.0) == pytest.approx(13.5)

    def test_netted_reduces_without_capital_cost(self):
        params = PortfolioParams(capital_cost=0.0, expense_ratio=0.07)
        assert premium_netted(params, 10.0, 25.0) == pytest.approx(1.07 * 10.0)

    def test_netted_reference_value(self):
        assert premium_netted(PARAMS, 10.0, 30.0) == pytest.approx(11.304, abs=5e-4)

    def test_netted_degenerate_measure(self):
        # With rho = E[L] the capital need is exactly -P, so the premium
        # solves P = E + eta*(-P), i.e. P = E / (1 + eta).
        assert premium_netted(PARAMS, 10.0, 10.0) == pytest.approx(10.0 / 1.15)


class TestRelativeRisk:
    def test_single_policy_share(self):
        assert relative_risk(3.0, 10.0) == pytest.approx(0.30)

    def test_zero_loading(self):
        assert relative_risk(0.0, 12.0) == 0.0

    def test_zero_expectation_rejected(self):
        with pytest.raises(ValueError):
            relative_risk(1.0, 0.0)

    def test_gaussian_scaling_in_loss_probability(self):
        # Under the normal approximation the relative risk is proportional
        # to sqrt((1-p)/p): exactly, and close to 1/sqrt(p) between the two
        # smaller probabilities.
        N = 10_000
        rel = {}
        for p in (1 / 6, 0.25, 0.5):
            counts = gaussian_var_approx(N, 6, p, 0.99)
            loading = 0.15 * (10 * counts / N - 10 * 6 * p)
            rel[p] = relative_risk(loading, 10 * 6 * p)
        for p in rel:
            assert rel[p] * np.sqrt(p / (1 - p)) == pytest.approx(
                0.15 * normal_quantile(0.99) / np.sqrt(N * 6), rel=1e-9
            )
        ratio = rel[1 / 6] / rel[0.25]
        assert ratio == pytest.approx(np.sqrt(5.0 / 3.0), rel=1e-9)
        assert abs(ratio / np.sqrt((1 / 4) / (1 / 6)) - 1) <= 0.10


class TestPricePolicy:
    def test_assembled_result(self):
        result = price_policy(ModelSpec.iid(1 / 6), PARAMS, 1, VAR99)
        assert result.expected_loss_per_policy == pytest.approx(10.0)
        assert result.capital == pytest.approx(20.0)
        assert result.risk_loading_per_policy == pytest.approx(3.0)
        assert result.premium == pytest.approx(13.0)
        assert result.premium_netted == pytest.approx(11.304, abs=5e-4)
        assert result.relative_risk == pytest.approx(0.30)

    def test_capital_does_not_depend_on_capital_cost(self):
        model = ModelSpec.iid(1 / 6)
        free = price_policy(model, PortfolioParams(capital_cost=0.0), 1, VAR99)
        assert free.capital == 20.0
        assert free.capital == price_policy(model, PARAMS, 1, VAR99).capital
        assert free.risk_loading_per_policy == 0.0

    def test_overflowing_loading_raises(self):
        params = PortfolioParams(severity=1e308, capital_cost=1e308)
        with pytest.raises(ValueError, match="risk loading is not finite"):
            loading_from_rho(3.0, ModelSpec.iid(1 / 6), params, 1)
        with pytest.raises(ValueError, match="risk loading is not finite"):
            price_policy(ModelSpec.iid(1 / 6), params, 1, VAR99)

    def test_overflowing_simulated_loading_raises(self):
        # A simulated rho is an exact Fraction: the loading is finite as a
        # rational but not as a float.
        params = PortfolioParams(severity=1e308, capital_cost=1e308)
        with pytest.raises(ValueError, match=r"risk loading is not finite \(inf\)"):
            loading_from_rho(Fraction(3), ModelSpec.iid(1 / 6), params, 1)

    @pytest.mark.filterwarnings("ignore:crisis_")
    @settings(max_examples=200, deadline=None)
    @given(rho=st.fractions(0, 10**6, max_denominator=10**7), N=st.integers(1, 10**6),
           digits=st.lists(st.integers(0, 999), min_size=5, max_size=5))
    def test_simulated_loading_is_the_exact_rational(self, rho, N, digits):
        # Inputs typed as decimals with up to 3 places: the loading of a
        # Fraction rho is exactly eta * (l * rho / N - l * n * (pt*q + (1-pt)*p)).
        p, q, pt, eta, l = (Fraction(d, 1000) for d in digits)
        l += 1
        model = ModelSpec.per_exposure_shock(float(p), float(q), float(pt))
        params = PortfolioParams(severity=float(l), capital_cost=float(eta))
        want = eta * (l * rho / N - l * params.exposures * (pt * q + (1 - pt) * p))
        got = loading_from_rho(rho, model, params, N)
        assert isinstance(got, Fraction) and got == want

    def test_overflowing_premium_raises(self):
        # The loading and the capital are finite; (1 + a) * E[L] is not.
        params = PortfolioParams(severity=1e9, expense_ratio=1e300)
        assert np.isfinite(loading_from_rho(3.0, ModelSpec.iid(1 / 6), params, 1))
        with pytest.raises(ValueError, match="the premium is not finite"):
            price_policy(ModelSpec.iid(1 / 6), params, 1, VAR99)

    def test_overflowing_capital_raises(self):
        # At alpha = 1% the VaR sits below the mean count 10^4, so
        # severity * VaR stays finite while N * E[L] = 1.8e308 overflows.
        params = PortfolioParams(severity=1.8e304, alpha=0.01)
        spec = RiskMeasureSpec(MeasureKind.VAR, 0.01)
        with pytest.warns(UserWarning, match="negative capital"):
            with pytest.raises(ValueError, match="the capital is not finite"):
                price_policy(ModelSpec.iid(1 / 6), params, 10_000, spec)

    def test_simulated_loading_is_cost_of_capital(self):
        model = ModelSpec.common_shock(1 / 6, 0.5, 0.05)
        cfg = SimulationConfig(num_sims=40_000, seed=7)
        for spec in (VAR99, TVAR99):
            result = price_policy(model, PARAMS, 50, spec, source=cfg)
            assert result.capital > 0.0
            assert result.risk_loading_per_policy == pytest.approx(
                PARAMS.capital_cost * result.capital / 50, rel=1e-12
            )
            # Same draws, same value as the loading on its own.
            assert result.risk_loading_per_policy == risk_loading_per_policy(
                model, PARAMS, 50, spec, source=cfg
            ).value

    def test_simulated_quote_reads_a_numpy_alpha_as_its_float(self):
        # Each quote starts on an empty memo, so the numpy level is parsed.
        quotes = []
        for alpha in (np.float64(0.99), 0.99):
            exact_decimal.cache_clear()
            spec = RiskMeasureSpec(MeasureKind.VAR, alpha)
            quotes.append(price_policy(ModelSpec.iid(1 / 6), PARAMS, 10, spec,
                                       source=SimulationConfig(1000)))
        assert quotes[0] == quotes[1]


@pytest.mark.parametrize("setting", ["OPENBLAS_CORETYPE=Prescott", "OPENBLAS_NUM_THREADS=1"])
def test_exact_tvar_bits_do_not_depend_on_openblas(setting):
    # In a fresh process under another CPU's OpenBLAS kernel, or on one
    # thread, the exact TVaR loadings of all three models keep every bit:
    # no sum behind them goes through BLAS, the per-exposure terms read off
    # their sides included.  A BLAS that ignores these variables passes this
    # test trivially.
    tests = Path(__file__).resolve().parent
    name, value = setting.split("=")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    env[name] = value
    code = "from _helpers import exact_tvar_loading_bits; print(*exact_tvar_loading_bits())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == exact_tvar_loading_bits()
