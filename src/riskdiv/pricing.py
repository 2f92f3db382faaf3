"""Economic layer: risk-adjusted capital, risk loadings, premiums.

Capital is the excess of the risk measure over the expected loss; the risk
loading per policy is the cost-of-capital rate times the capital per policy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .measures import RiskMeasureSpec
from .models import ModelSpec, PortfolioParams, closed_form_mean_per_policy
from .montecarlo import (
    LoadingEstimate,
    SimulationConfig,
    loading_from_rho,
    mc_loading,
    rho_in_counts,
)

__all__ = [
    "PricingResult",
    "risk_adjusted_capital",
    "risk_loading_per_policy",
    "premium",
    "premium_netted",
    "relative_risk",
    "price_policy",
]


@dataclass(frozen=True)
class PricingResult:
    """Per-policy pricing summary.

    capital is the portfolio-level risk-adjusted capital K_N; it and the
    loading, capital_cost * capital / N, are read off one value of the measure.
    """

    expected_loss_per_policy: float
    capital: float
    risk_loading_per_policy: float
    premium: float
    premium_netted: float
    relative_risk: float


def risk_adjusted_capital(rho: float, model: ModelSpec, params: PortfolioParams, N: int) -> float:
    """Capital K_N = severity * rho - N * E[L per policy], in currency; rho in counts.

    E[L] is the closed-form mean, as in the loading; the mean of the stored,
    tail-truncated pmf differs from it by at most truncated_mass * N * n counts,
    and truncated_mass <= 1e-12.  Negative capital (alpha below the cdf at the
    mean) is passed through with a warning: the economics are degenerate.
    """
    expected = N * closed_form_mean_per_policy(model, params)
    capital = params.severity * rho - expected
    if capital < 0.0:
        warnings.warn(
            f"risk measure below the expected loss {expected:.6g}: negative capital", stacklevel=2
        )
    return capital


def risk_loading_per_policy(
    model: ModelSpec,
    params: PortfolioParams,
    N: int,
    measure: RiskMeasureSpec,
    source: str | SimulationConfig = "exact",
    workers: int = 1,
) -> LoadingEstimate:
    """Risk loading per policy: capital_cost * (severity*rho(S)/N - E[L per policy]).

    Args:
        source: "exact" evaluates the measure on the exact count
            distribution; a SimulationConfig estimates it by Monte Carlo and
            attaches a bootstrap standard error.
    """
    if isinstance(source, SimulationConfig):
        return mc_loading(model, params, N, measure, source, workers=workers)
    rho = rho_in_counts(model, N, params.exposures, measure, source)
    return LoadingEstimate(loading_from_rho(rho, model, params, N), None)


def premium(params: PortfolioParams, expected_loss: float, capital: float) -> float:
    """Technical premium: (1 + expense_ratio) * expected loss + cost of capital.

    Per-policy premiums take the per-policy capital K_N / N.
    """
    return (1.0 + params.expense_ratio) * expected_loss + params.capital_cost * capital


def premium_netted(params: PortfolioParams, expected_loss: float, rho_value: float) -> float:
    """Premium when collected premiums themselves offset the capital need.

    Equals (1+a-eta)/(1+eta) * E[L] + eta/(1+eta) * rho(L); with eta = 0 it
    reduces to the expense-loaded expectation.
    """
    eta, a = params.capital_cost, params.expense_ratio
    return (1.0 + a - eta) / (1.0 + eta) * expected_loss + eta / (1.0 + eta) * rho_value


def relative_risk(loading: float, expected_loss_per_policy: float) -> float:
    """Loading as a fraction of the expected loss per policy.

    Raises:
        ValueError: If the expected loss is not positive.
    """
    if expected_loss_per_policy <= 0.0:
        raise ValueError("expected loss per policy must be positive")
    return loading / expected_loss_per_policy


def price_policy(
    model: ModelSpec,
    params: PortfolioParams,
    N: int,
    measure: RiskMeasureSpec,
    source: str | SimulationConfig = "exact",
) -> PricingResult:
    """Per-policy pricing for one portfolio size, all read off one evaluation of the measure.

    Raises:
        ValueError: If the capital, the loading or either premium is not
            finite (the inputs overflow).
    """
    rho = rho_in_counts(model, N, params.exposures, measure, source)
    expected = closed_form_mean_per_policy(model, params)
    capital = risk_adjusted_capital(rho, model, params, N)
    loading = loading_from_rho(rho, model, params, N)
    gross = premium(params, expected, capital / N)
    netted = premium_netted(params, expected, params.severity * rho / N)
    for name, value in (("capital", capital), ("premium", gross), ("premium_netted", netted)):
        if not math.isfinite(value):
            raise ValueError(f"the {name} is not finite ({value}): the inputs overflow")
    return PricingResult(
        expected_loss_per_policy=expected,
        capital=capital,
        risk_loading_per_policy=loading,
        premium=gross,
        premium_netted=netted,
        relative_risk=relative_risk(loading, expected),
    )
