"""Insurance portfolio pricing under systemic-risk loss models.

Exact loss-count distributions for three generative models, VaR/TVaR risk
loadings, reproducible parallel Monte Carlo, and regeneration of the
published reference tables.
"""

from .distributions import (
    DiscreteLossDistribution,
    binomial,
    cdf_at,
    convolve,
    mixture,
    moments,
    point_mass,
)
from .measures import (
    MeasureKind,
    RiskMeasureSpec,
    TruncationError,
    TvarConvention,
    gaussian_var_approx,
    normal_quantile,
    tail_value_at_risk,
    value_at_risk,
    var_and_tvar,
)
from .models import (
    ModelKind,
    ModelSpec,
    PortfolioParams,
    SupportLimitError,
    closed_form_mean_per_policy,
    closed_form_variance_per_policy,
    loss_count_distribution,
    nondiversifiable_floor,
)
from .montecarlo import (
    LoadingEstimate,
    LossHistogram,
    SimulationConfig,
    bootstrap_loading_se,
    empirical_distribution,
    mc_loading,
    simulate,
    tally_var_and_tvar,
)
from .pricing import (
    PricingResult,
    premium,
    premium_netted,
    price_policy,
    relative_risk,
    risk_adjusted_capital,
    risk_loading_per_policy,
)
from .reference import DiscrepancyReport, compare_with_reference, load_errata
from .tables import Table, TableRequest, build_table

__version__ = "0.1.0"
