"""Seeded, reproducible simulation of the portfolio models.

Simulations are split into fixed-size blocks; block b draws from its own
counter-based Philox stream keyed by (seed, b).  A block is a histogram of
iid loss counts, and it is drawn as one: the paths in each crisis-round
state are Multinomial(size, w) over the law of j, and the tallies of each
state are Multinomial over its exact term (models.state_terms).  This is
conditional Monte Carlo (Asmussen & Glynn, Stochastic Simulation, ch. V),
and a block costs the size of the terms' windows, not of the block, so
every block is drawn in this process.  Histograms are merged in block
order, so results are bit-identical for a given (seed, block_size,
num_sims).  A budget is its full blocks plus at most one cut block, so one
run returns the histograms of several budgets and draws each block they
need once.  Risk measures are read off the integer tallies
(tally_var_and_tvar), not a float cdf, and a simulated loading is the exact
rational they give.  A Monte Carlo loading carries the standard error of
N_BOOT bootstrap resamples of its histogram, drawn from a stream keyed by
the simulation seed.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
# Unused: kept for perfbench/tracer.py, which hooks it by name (ROADMAP item 3).
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .distributions import DiscreteLossDistribution
from .measures import MeasureKind, RiskMeasureSpec, TvarConvention, apply_measure
from .models import ModelSpec, PortfolioParams, check_support, exact_decimal, state_terms
from .models import closed_form_mean_per_policy, loss_count_distribution

__all__ = [
    "SimulationConfig",
    "LossHistogram",
    "LoadingEstimate",
    "block_plan",
    "simulate",
    "tally_var_and_tvar",
    "empirical_distribution",
    "rho_in_counts",
    "loading_from_rho",
    "mc_loading",
    "bootstrap_loading_se",
]

DEFAULT_SEED = 42
DEFAULT_BLOCK_SIZE = 250_000
# Bootstrap replicates behind a Monte Carlo loading's standard error.
N_BOOT = 200


@dataclass(frozen=True)
class SimulationConfig:
    """A reproducible simulation plan.

    block_size fixes the RNG blocking, and with it the exact output; changing
    it changes the stream layout and therefore the (equally valid) draws.
    """

    num_sims: int
    seed: int = DEFAULT_SEED
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        if self.num_sims < 1:
            raise ValueError("num_sims must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")


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


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block_index))))


@lru_cache(maxsize=1)
def _block_law(
    model: ModelSpec, N: int, n: int
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """The law of one path: state weights, and each state's window (lo, pmf).

    Memoised for the current run only: every block of a run shares it.
    """
    states = state_terms(model, N, n)
    weights = np.array([w for _, w, _ in states])
    windows = [(term.min_count, term.masses / term.masses.sum()) for _, _, term in states]
    return weights / weights.sum(), windows


def _draw_block(model: ModelSpec, N: int, n: int, seed: int, block_index: int, size: int) -> np.ndarray:
    """One block's dense histogram of `size` loss counts, drawn directly.

    From the block's stream, the paths per state of crisis_rounds are
    Multinomial(size, w); a lone state (iid, or p_tilde at 0 or 1) draws
    nothing here.  Each state's c > 0 paths then tally Multinomial(c, pmf)
    over its term's stored window.  The law is the exact engine's mixture up
    to each term's truncated mass (at most TRUNCATION_BUDGET = 1e-12), which
    no draw can reach.
    """
    rng = _block_rng(seed, block_index)
    weights, windows = _block_law(model, N, n)
    paths = rng.multinomial(size, weights) if len(windows) > 1 else [size]
    hist = np.zeros(N * n + 1, dtype=np.int64)
    for c, (lo, pmf) in zip(paths, windows):
        if c:
            hist[lo : lo + len(pmf)] += rng.multinomial(c, pmf)
    return hist


def block_plan(
    config: SimulationConfig, checkpoints: Sequence[int] | None = None
) -> list[tuple[int, int]]:
    """The (block index, size) pairs a run draws, in merge order.

    A budget X is full blocks 0 .. X//block_size - 1 plus block
    X//block_size cut to X % block_size paths, which is exactly what X's own
    run draws.  A cut block sorts after the full blocks below it.

    Raises:
        ValueError: If a checkpoint lies outside 1 .. num_sims.
    """
    wanted = [config.num_sims] if checkpoints is None else list(checkpoints)
    for budget in wanted:
        if not 0 < budget <= config.num_sims:
            raise ValueError(
                f"checkpoint {budget} is neither num_sims={config.num_sims} nor a "
                "positive budget below it"
            )
    B = config.block_size
    return sorted(
        {(b, B) for b in range(max(wanted, default=0) // B)}
        | {divmod(budget, B) for budget in wanted if budget % B}
    )


def simulate(
    model: ModelSpec,
    N: int,
    n: int,
    config: SimulationConfig,
    checkpoints: Sequence[int] | None = None,
) -> LossHistogram | list[LossHistogram]:
    """Simulate the portfolio loss count and tally a histogram.

    Deterministic for fixed (seed, block_size, num_sims): every block owns a
    Philox stream keyed by (seed, block index), and the blocks are drawn in
    this process and their integer tallies merged in index order
    (block_plan).

    Args:
        model: Generative model to simulate.
        N: Number of policies.
        n: Exposures per policy.
        config: Simulation budget, seed and block layout.
        checkpoints: Budgets in 1 .. num_sims whose histograms to return,
            one per entry in the order given, instead of the histogram of
            num_sims.  Each block they need is drawn once, and each
            histogram equals that of the budget's own run.

    Raises:
        ValueError: If check_support raises (a SupportLimitError past the
            support limit), or a checkpoint lies outside 1 .. num_sims.
    """
    check_support(N, n)
    wanted = [config.num_sims] if checkpoints is None else list(checkpoints)
    jobs = block_plan(config, wanted)
    B = config.block_size
    full = np.zeros(N * n + 1, dtype=np.int64)
    snapshots = {}
    for b, size in jobs:
        tallies = _draw_block(model, N, n, config.seed, b, size)
        tallies += full
        if size == B:
            full = tallies
        done = b * B + size
        if done in wanted:
            snapshots[done] = LossHistogram(tallies, done)
    hists = [snapshots[budget] for budget in wanted]
    return hists[0] if checkpoints is None else hists


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


def _tally_rho(h: LossHistogram, measure: RiskMeasureSpec) -> Fraction:
    """The measure of a histogram, in counts, as an exact Fraction."""
    var_count, tvar = tally_var_and_tvar(h, measure.alpha, measure.convention)
    return Fraction(var_count) if measure.kind is MeasureKind.VAR else tvar


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


def rho_in_counts(
    model: ModelSpec,
    N: int,
    n: int,
    measure: RiskMeasureSpec,
    source: str | SimulationConfig = "exact",
) -> float | Fraction:
    """The measure of the loss count: exact, or read off a simulation's tallies.

    The exact engine's value is a float, a simulation's an exact Fraction.
    """
    if isinstance(source, SimulationConfig):
        return _tally_rho(simulate(model, N, n, source), measure)
    if source != "exact":
        raise ValueError(f"source must be 'exact' or a SimulationConfig, got {source!r}")
    return apply_measure(loss_count_distribution(model, N, n), measure)


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
    values = np.empty(N_BOOT)
    for i in range(N_BOOT):
        resampled = LossHistogram(rng.multinomial(h.num_sims, probs), h.num_sims)
        values[i] = loading_from_rho(_tally_rho(resampled, measure), model, params, N)
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
    value = loading_from_rho(_tally_rho(h, measure), model, params, N)
    return LoadingEstimate(value, bootstrap_loading_se(h, model, params, N, measure, config.seed))
