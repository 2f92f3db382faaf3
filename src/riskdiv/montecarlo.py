"""Seeded, reproducible simulation of the portfolio models.

A simulation of num_sims paths is one histogram of iid loss counts, and it
is drawn as one from the counter-based Philox stream keyed by (seed, 0): the
paths in each crisis-round state are Multinomial(num_sims, w) over the law of
j, and the tallies of each state are Multinomial over its exact term
(models.state_terms).  This is conditional Monte Carlo (Asmussen & Glynn,
Stochastic Simulation, ch. V), and a draw costs the size of the terms'
windows, not the number of paths.  Results are bit-identical for a given
(seed, num_sims).  A histogram holds only its occupied loss counts and their
tallies, never an array over 0 .. N*n.  Risk measures are read off the
integer tallies (tally_var_and_tvar), not a float cdf, and a simulated
loading is the exact rational they give.  A Monte Carlo loading carries the
standard error of N_BOOT bootstrap resamples of its histogram, drawn in one
multinomial call from a stream keyed by the simulation seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
# numpy loads numpy.random on first use; load it with this module, so that
# the first draw does not pay for it.
import numpy.random  # noqa: F401

from .distributions import DiscreteLossDistribution
from .measures import MeasureKind, RiskMeasureSpec, TvarConvention, tail_value, var_and_tvar
from .models import ModelSpec, PortfolioParams, check_support, exact_decimal, state_terms
from .models import closed_form_mean_per_policy

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


def __getattr__(name: str):
    # ProcessPoolExecutor is unused here and loaded only when asked for:
    # perfbench/tracer.py hooks it by name (ROADMAP, "In-package spans,
    # `verify --json`, one quote path"), and importing concurrent.futures
    # would slow every start-up.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """Tallies of simulated portfolio loss counts, held at the occupied counts.

    values holds ascending loss counts and tallies[i] the number of
    simulations that produced values[i], both int64.  simulate keeps exactly
    the occupied counts; a bootstrap replicate keeps its histogram's values
    and may tally zero at some.  top is N*n, the largest loss count the
    portfolio can produce, occupied or not.
    """

    values: np.ndarray
    tallies: np.ndarray
    num_sims: int
    top: int

    def nonzero_items(self) -> list[tuple[int, int]]:
        """(count, tally) pairs for the observed counts, ascending."""
        return list(zip(self.values.tolist(), self.tallies.tolist()))


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


def _draw_block(model: ModelSpec, N: int, n: int, seed: int,
                size: int) -> tuple[np.ndarray, np.ndarray]:
    """The occupied counts and tallies of `size` loss counts, drawn directly.

    From the stream of seed, the paths per state of crisis_rounds are
    Multinomial(size, w); a lone state (iid, or p_tilde at 0 or 1) draws
    nothing here.  Each state's c > 0 paths then tally Multinomial(c, pmf)
    over its term's stored window, normalised.  The terms are the exact
    engine's, read from the memo of models.state_terms, and the law is its
    mixture up to each term's truncated mass (at most TRUNCATION_BUDGET =
    1e-12), which no draw can reach.  The tallies are merged in a box over
    the drawn states' windows only, and returned as (values, tallies) at its
    nonzero bins.
    """
    rng = _stream(seed)
    states = state_terms(model, N, n)
    weights = np.array([t.weight for t in states])
    paths = rng.multinomial(size, weights / weights.sum()) if len(states) > 1 else [size]
    drawn = [(c, t.law) for c, t in zip(paths, states) if c]
    lo = min(term.min_count for _, term in drawn)
    box = np.zeros(max(term.max_count for _, term in drawn) - lo + 1, dtype=np.int64)
    for c, term in drawn:
        box[term.min_count - lo : term.max_count - lo + 1] += rng.multinomial(
            c, term.masses / term.masses.sum())
    occupied = np.flatnonzero(box)
    return occupied + lo, box[occupied]


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
    # In Python ints: a numpy N would wrap the product in int64.
    if int(config.num_sims) * int(N) * int(n) > _INT64_MAX:
        raise ValueError(
            f"num_sims * N * n = {config.num_sims} * {N} * {n} exceeds 2**63 - 1, "
            "past which the int64 tallies overflow"
        )
    values, tallies = _draw_block(model, N, n, config.seed, size=config.num_sims)
    return LossHistogram(values, tallies, config.num_sims, N * n)


def tally_var_and_tvar(
    h: LossHistogram,
    alpha: float,
    convention: TvarConvention = TvarConvention.CONDITIONAL,
) -> tuple[int, Fraction]:
    """VaR and TVaR at level alpha, in counts, decided on the integer tallies.

    The measures of var_and_tvar on the sample distribution counts/num_sims,
    with alpha read as the decimal it prints (exact_decimal).  VaR is the
    smallest count k whose cumulative tally is at least
    ceil(alpha * num_sims), decided in integers; TVaR is tail_value on the
    integer tallies, an exact Fraction.  A cumulative tally equal to
    alpha * num_sims therefore reaches the level, as it does in exact
    arithmetic, where a rounded float cdf may fall an ulp short of it.

    Raises:
        ValueError: If alpha lies outside (0, 1), or the tallies do not sum
            to num_sims.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    sims = h.num_sims
    cum = np.cumsum(h.tallies)
    total = int(cum[-1]) if len(cum) else 0
    if sims < 1 or total != sims:
        raise ValueError(f"tallies sum to {total}, not num_sims={sims}")
    a = exact_decimal(alpha)
    i = int(np.searchsorted(cum, math.ceil(a * sims)))
    var_count = int(h.values[i])
    beyond = Fraction(int(h.values[i + 1 :] @ h.tallies[i + 1 :]))
    at, reached = int(h.tallies[i]), int(cum[i])
    return var_count, tail_value(var_count, at, reached, beyond, sims, a, convention)


def empirical_distribution(h: LossHistogram) -> DiscreteLossDistribution:
    """Normalise a histogram into a loss-count distribution.

    For callers that want the sample distribution itself; the risk measures
    of a histogram are read off its tallies by tally_var_and_tvar.

    Raises:
        ValueError: If the histogram is empty.
    """
    if h.num_sims < 1 or not np.any(h.tallies):
        raise ValueError("empty histogram")
    lo = int(h.values[0])
    masses = np.zeros(int(h.values[-1]) - lo + 1)
    masses[h.values - lo] = h.tallies / float(h.num_sims)
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
    VaR and a float TVaR, read by var_and_tvar off the weighted state_terms
    over their occupied windows, with the bits of the stored mixture
    (loss_count_distribution); a simulation gives the exact Fractions of its
    tallies (tally_var_and_tvar), so loading_from_rho decides their digits
    exactly.

    Raises:
        ValueError: If check_support raises (a SupportLimitError past the
            support limit).
    """
    if isinstance(source, SimulationConfig):
        var_count, tvar = tally_var_and_tvar(simulate(model, N, n, source), alpha, convention)
        return Fraction(var_count), tvar
    if source != "exact":
        raise ValueError(f"source must be 'exact' or a SimulationConfig, got {source!r}")
    check_support(N, n)
    return var_and_tvar(state_terms(model, N, n), alpha, convention)


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

    Resamples the histogram's occupied counts in one Multinomial(num_sims,
    tallies / num_sims) call of N_BOOT rows and recomputes the loading on
    each replicate.  numpy draws one binomial per category but the last, and
    nothing for a category of zero weight, so when N*n is not occupied a
    zero-weight category at N*n closes the list: each replicate then equals
    the draw over every count 0 .. N*n.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xB007))))
    values, tallies = h.values, h.tallies
    if values[-1] != h.top:
        values, tallies = np.append(values, h.top), np.append(tallies, 0)
    draws = rng.multinomial(h.num_sims, tallies / float(h.num_sims), size=N_BOOT)
    is_tvar = measure.kind is MeasureKind.TVAR
    loadings = np.empty(N_BOOT)
    for i, resampled in enumerate(draws):
        rho = tally_var_and_tvar(LossHistogram(values, resampled, h.num_sims, h.top),
                                 measure.alpha, measure.convention)[is_tvar]
        loadings[i] = loading_from_rho(Fraction(rho), model, params, N)
    return float(loadings.std(ddof=1))


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
