"""Seeded, reproducible simulation of the portfolio models.

A simulation of num_sims paths is one histogram of iid loss counts, and it
is drawn as one from the counter-based Philox stream keyed by (seed, 0): the
paths in each crisis-round state are Multinomial(num_sims, w) over the law of
j, and the tallies of each state are Multinomial over its exact term
(models.state_terms).  This is conditional Monte Carlo (Asmussen & Glynn,
Stochastic Simulation, ch. V), and a draw costs the size of the terms'
windows, not the number of paths.  Results are bit-identical for a given
(seed, num_sims).  Risk measures are read off the integer tallies
(tally_var_and_tvar), not a float cdf, and a simulated loading is the exact
rational they give.  A Monte Carlo loading carries the standard error of
N_BOOT bootstrap resamples of its histogram, drawn from a stream keyed by
the simulation seed.
"""

from __future__ import annotations

import math
import sys
# Unused: kept for perfbench/tracer.py, which hooks it by name (ROADMAP,
# "In-package spans, `verify --json`, one quote path").
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import DiscreteLossDistribution
from .measures import MeasureKind, RiskMeasureSpec, TvarConvention, var_and_tvar
from .models import ModelSpec, PortfolioParams, check_support, exact_decimal, state_terms
from .models import closed_form_mean_per_policy, loss_count_distribution

__all__ = [
    "SimulationConfig",
    "LossHistogram",
    "LoadingEstimate",
    "simulate",
    "tally_var_and_tvar",
    "empirical_distribution",
    "measures_in_counts",
    "loading_from_rho",
    "mc_loading",
    "bootstrap_loading_se",
]

DEFAULT_SEED = 42
# The largest int64: a histogram's sum of count * tally, at most
# num_sims * N * n, must stay at or below it (tally_var_and_tvar).
_INT64_MAX = 2**63 - 1
# Bootstrap replicates behind a Monte Carlo loading's standard error.
N_BOOT = 200


@dataclass(frozen=True)
class SimulationConfig:
    """A reproducible simulation plan: num_sims paths from the stream of seed."""

    num_sims: int
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.num_sims < 1:
            raise ValueError("num_sims must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class LossHistogram:
    """Tallies of simulated portfolio loss counts.

    counts[k] is the number of simulations that produced loss count k; the
    array covers 0 .. N*n inclusive.
    """

    counts: np.ndarray
    num_sims: int

    def nonzero_items(self) -> list[tuple[int, int]]:
        """(count, tally) pairs for the observed counts, ascending."""
        idx = np.nonzero(self.counts)[0]
        return [(int(k), int(self.counts[k])) for k in idx]


@dataclass(frozen=True)
class LoadingEstimate:
    """A risk loading with an optional Monte Carlo standard error.

    A simulated value is the exact Fraction of its tallies (loading_from_rho).
    """

    value: float | Fraction
    standard_error: float | None = None


def _stream(seed: int) -> np.random.Generator:
    """The Philox stream of a simulation.

    Keyed (seed, 0), the first block's key when simulations were drawn in
    blocks of 250,000 paths, so a budget of at most that many kept its bytes.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0))))


def _draw_block(model: ModelSpec, N: int, n: int, seed: int, size: int) -> np.ndarray:
    """The dense histogram of `size` loss counts, drawn directly.

    From the stream of seed, the paths per state of crisis_rounds are
    Multinomial(size, w); a lone state (iid, or p_tilde at 0 or 1) draws
    nothing here.  Each state's c > 0 paths then tally Multinomial(c, pmf)
    over its term's stored window, normalised.  The terms are the exact
    engine's, read from the memo of models.state_terms, and the law is its
    mixture up to each term's truncated mass (at most TRUNCATION_BUDGET =
    1e-12), which no draw can reach.
    """
    rng = _stream(seed)
    states = state_terms(model, N, n)
    weights = np.array([w for _, w, _ in states])
    paths = rng.multinomial(size, weights / weights.sum()) if len(states) > 1 else [size]
    hist = np.zeros(N * n + 1, dtype=np.int64)
    for c, (_, _, term) in zip(paths, states):
        if c:
            hist[term.min_count : term.max_count + 1] += rng.multinomial(
                c, term.masses / term.masses.sum())
    return hist


def simulate(model: ModelSpec, N: int, n: int, config: SimulationConfig) -> LossHistogram:
    """Simulate the portfolio loss count and tally a histogram.

    The num_sims paths are one histogram drawn from the stream of seed
    (_draw_block), so the output is deterministic for fixed (seed, num_sims).

    Raises:
        ValueError: If check_support raises (a SupportLimitError past the
            support limit), or num_sims * N * n exceeds 2**63 - 1, past which
            the int64 tally sums would overflow.
    """
    check_support(N, n)
    if config.num_sims * N * n > _INT64_MAX:
        raise ValueError(
            f"num_sims * N * n = {config.num_sims} * {N} * {n} exceeds 2**63 - 1, "
            "past which the int64 tallies overflow"
        )
    return LossHistogram(_draw_block(model, N, n, config.seed, size=config.num_sims),
                         config.num_sims)


def tally_var_and_tvar(
    h: LossHistogram,
    alpha: float,
    convention: TvarConvention = TvarConvention.CONDITIONAL,
) -> tuple[int, Fraction]:
    """VaR and TVaR at level alpha, in counts, decided on the integer tallies.

    The measures of var_and_tvar on the sample distribution counts/num_sims,
    with alpha read as the decimal it prints (exact_decimal).  VaR is the
    smallest count k whose cumulative tally is at least
    ceil(alpha * num_sims), decided in integers; TVaR is the exact Fraction
    of integer sums.  A cumulative tally equal to alpha * num_sims therefore
    reaches the level, as it does in exact arithmetic, where a rounded float
    cdf may fall an ulp short of it.

    Raises:
        ValueError: If alpha lies outside (0, 1), or the tallies do not sum
            to num_sims.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    sims = h.num_sims
    cum = np.cumsum(h.counts)
    if sims < 1 or int(cum[-1]) != sims:
        raise ValueError(f"tallies sum to {int(cum[-1])}, not num_sims={sims}")
    a = exact_decimal(alpha)
    var_count = int(np.searchsorted(cum, math.ceil(a * sims)))
    reached = int(cum[var_count])
    beyond = int(np.arange(var_count + 1, len(cum)) @ h.counts[var_count + 1 :])
    if convention is TvarConvention.CONDITIONAL:
        # Mean of the outcomes at or beyond the VaR.
        at = int(h.counts[var_count])
        tvar = Fraction(beyond + var_count * at, sims - reached + at)
    else:
        # Upper-quantile integral: the VaR count carries its share of (alpha, 1].
        tvar = (beyond + var_count * (reached - a * sims)) / (sims * (1 - a))
    return var_count, tvar


def empirical_distribution(h: LossHistogram) -> DiscreteLossDistribution:
    """Normalise a histogram into a loss-count distribution.

    For callers that want the sample distribution itself; the risk measures
    of a histogram are read off its tallies by tally_var_and_tvar.

    Raises:
        ValueError: If the histogram is empty.
    """
    if h.num_sims < 1 or not np.any(h.counts):
        raise ValueError("empty histogram")
    nz = np.nonzero(h.counts)[0]
    lo, hi = int(nz[0]), int(nz[-1])
    masses = h.counts[lo : hi + 1] / float(h.num_sims)
    return DiscreteLossDistribution(lo, masses)


def measures_in_counts(
    model: ModelSpec,
    N: int,
    n: int,
    alpha: float,
    convention: TvarConvention,
    source: str | SimulationConfig,
) -> tuple[int, float] | tuple[Fraction, Fraction]:
    """VaR and TVaR of the loss count, in counts: exact, or read off a simulation's tallies.

    The one place that chooses the engine.  The exact engine gives an int
    VaR and a float TVaR (var_and_tvar); a simulation gives the exact
    Fractions of its tallies (tally_var_and_tvar), so loading_from_rho
    decides their digits exactly.
    """
    if isinstance(source, SimulationConfig):
        var_count, tvar = tally_var_and_tvar(simulate(model, N, n, source), alpha, convention)
        return Fraction(var_count), tvar
    if source != "exact":
        raise ValueError(f"source must be 'exact' or a SimulationConfig, got {source!r}")
    return var_and_tvar(loss_count_distribution(model, N, n), alpha, convention)


def loading_from_rho(
    rho: float | Fraction, model: ModelSpec, params: PortfolioParams, N: int
) -> float | Fraction:
    """Risk loading per policy: capital_cost * (severity*rho/N - E[L per policy]).

    The one definition of the loading: rho is the portfolio's risk measure in
    counts, E[L] the closed-form mean.  A float (or int) rho, from the exact
    engine, gives a float.  A Fraction rho, read off a simulation's tallies,
    gives the exact Fraction with every input read as its decimal, so the
    printed digits are decided exactly.

    Raises:
        ValueError: If the loading is not finite as a float (the inputs
            overflow).
    """
    exact = isinstance(rho, Fraction)
    num = exact_decimal if exact else float
    expected = closed_form_mean_per_policy(model, params, exact)
    loading = num(params.capital_cost) * (num(params.severity) * rho / N - expected)
    if not abs(loading) <= sys.float_info.max:
        shown = (math.inf if loading > 0 else -math.inf) if exact else loading
        raise ValueError(f"the risk loading is not finite ({shown}): the inputs overflow")
    return loading


def bootstrap_loading_se(
    h: LossHistogram,
    model: ModelSpec,
    params: PortfolioParams,
    N: int,
    measure: RiskMeasureSpec,
    seed: int,
) -> float:
    """Bootstrap standard error of a histogram-based loading.

    Resamples the histogram multinomially N_BOOT times and recomputes the
    loading on each replicate.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xB007))))
    probs = h.counts / float(h.num_sims)
    is_tvar = measure.kind is MeasureKind.TVAR
    values = np.empty(N_BOOT)
    for i in range(N_BOOT):
        resampled = LossHistogram(rng.multinomial(h.num_sims, probs), h.num_sims)
        rho = tally_var_and_tvar(resampled, measure.alpha, measure.convention)[is_tvar]
        values[i] = loading_from_rho(Fraction(rho), model, params, N)
    return float(values.std(ddof=1))


def mc_loading(
    model: ModelSpec,
    params: PortfolioParams,
    N: int,
    measure: RiskMeasureSpec,
    config: SimulationConfig,
) -> LoadingEstimate:
    """Monte Carlo risk loading per policy, with a bootstrap standard error."""
    h = simulate(model, N, params.exposures, config)
    pair = tally_var_and_tvar(h, measure.alpha, measure.convention)
    value = loading_from_rho(Fraction(pair[measure.kind is MeasureKind.TVAR]), model, params, N)
    return LoadingEstimate(value, bootstrap_loading_se(h, model, params, N, measure, config.seed))
