"""Seeded, reproducibly parallel simulation of the portfolio models.

Simulations are split into fixed-size blocks; block b draws from its own
counter-based Philox stream keyed by (seed, b).  Histograms are merged in
block order, so results are bit-identical for a given (seed, block_size,
num_sims) no matter how many workers run the blocks.  A budget is its full
blocks plus at most one cut block, so one run returns the histograms of
several budgets and draws each block they need once.  Risk measures are read
off the integer tallies (tally_var_and_tvar), not a float cdf.  A Monte Carlo
loading carries the standard error of N_BOOT bootstrap resamples of its
histogram, drawn from a stream keyed by the simulation seed.

Blocks run in one process or on a process pool.  The pool belongs to whoever
opens it with block_pool: a loading grid (tables.build_grid) opens one for
all its runs and hands it to each simulate call, and a lone simulate call
opens its own and closes it before it returns.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import DiscreteLossDistribution
from .measures import MeasureKind, RiskMeasureSpec, TvarConvention, apply_measure
from .models import ModelKind, ModelSpec, PortfolioParams, check_support
from .models import closed_form_mean_per_policy, loss_count_distribution

__all__ = [
    "SimulationConfig",
    "LossHistogram",
    "LoadingEstimate",
    "block_plan",
    "block_pool",
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
    """A risk loading with an optional Monte Carlo standard error."""

    value: float
    standard_error: float | None = None


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block_index))))


def _draw_block(model: ModelSpec, N: int, n: int, seed: int, block_index: int, size: int) -> np.ndarray:
    """Tally one block of simulations into a dense histogram."""
    rng = _block_rng(seed, block_index)
    total = N * n
    p, q, pt = model.loss_prob, model.crisis_loss_prob, model.crisis_prob
    if pt == 0.0:  # j = 0 surely, so no j is drawn
        draws = rng.binomial(total, p, size=size)
    else:
        # Draw each path's crisis rounds j, then group the paths by j so binomials
        # take scalar arguments; the group order (crisis first) fixes the stream.
        if model.kind is ModelKind.COMMON_SHOCK:
            rounds, states = n * (rng.random(size) < pt), (n, 0)
        else:
            rounds, states = rng.binomial(n, pt, size=size), range(n + 1)
        draws = np.empty(size, dtype=np.int64)
        for j in states:
            sel = rounds == j
            cnt = np.count_nonzero(sel)
            if cnt == 0:
                continue
            part = rng.binomial(N * j, q, cnt) if j > 0 else 0
            part = part + rng.binomial(N * (n - j), p, cnt)
            draws[sel] = part
    return np.bincount(draws, minlength=total + 1).astype(np.int64)


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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def block_pool(workers: int, blocks: int) -> AbstractContextManager[Executor | None]:
    """A process pool for drawing `blocks` blocks on up to `workers` processes.

    The pool has min(workers, blocks, usable CPUs) processes and shuts down
    when its with block ends.  When that is one, no pool starts and the with
    block gets None: the blocks are drawn in this process.
    """
    size = min(workers, blocks, _usable_cpus())
    return nullcontext() if size <= 1 else ProcessPoolExecutor(max_workers=size)


def simulate(
    model: ModelSpec,
    N: int,
    n: int,
    config: SimulationConfig,
    workers: int = 1,
    checkpoints: Sequence[int] | None = None,
    pool: Executor | None = None,
) -> LossHistogram | list[LossHistogram]:
    """Simulate the portfolio loss count and tally a histogram.

    Deterministic for fixed (seed, block_size, num_sims) regardless of
    workers or pool: every block owns a Philox stream keyed by (seed, block
    index) and the integer tallies are merged in index order (block_plan).

    Args:
        model: Generative model to simulate.
        N: Number of policies.
        n: Exposures per policy.
        config: Simulation budget, seed and block layout.
        workers: Process count for block execution when no pool is given;
            the call then opens its own block_pool and shuts it down before
            returning.
        checkpoints: Budgets in 1 .. num_sims whose histograms to return,
            one per entry in the order given, instead of the histogram of
            num_sims.  Each block they need is drawn once, and each
            histogram equals that of the budget's own run.
        pool: An open executor, owned by the caller, that draws the blocks
            of this call; workers is then not read.  A call with one block
            draws it in this process, as sending it would only add a pickle.
            A caller with many runs opens one block_pool for all of them.

    Raises:
        ValueError: If check_support raises (a SupportLimitError past the
            support limit), or a checkpoint lies outside 1 .. num_sims.
    """
    check_support(N, n)
    wanted = [config.num_sims] if checkpoints is None else list(checkpoints)
    jobs = block_plan(config, wanted)
    B = config.block_size
    k = len(jobs)
    blocks, sizes = [b for b, _ in jobs], [size for _, size in jobs]
    args = [model] * k, [N] * k, [n] * k, [config.seed] * k, blocks, sizes

    def merge(block_hists) -> dict[int, LossHistogram]:
        """The histogram at each wanted budget: its block plus the full blocks before it."""
        full = np.zeros(N * n + 1, dtype=np.int64)
        snapshots = {}
        for (b, size), tallies in zip(jobs, block_hists):
            tallies += full
            if size == B:
                full = tallies
            done = b * B + size
            if done in wanted:
                snapshots[done] = LossHistogram(tallies, done)
        return snapshots

    if pool is not None and k > 1:
        snapshots = merge(pool.map(_draw_block, *args))
    else:
        with block_pool(workers, k) as own:
            snapshots = merge((map if own is None else own.map)(_draw_block, *args))
    hists = [snapshots[budget] for budget in wanted]
    return hists[0] if checkpoints is None else hists


def tally_var_and_tvar(
    h: LossHistogram,
    alpha: float,
    convention: TvarConvention = TvarConvention.CONDITIONAL,
) -> tuple[int, float]:
    """VaR and TVaR at level alpha, in counts, decided on the integer tallies.

    The measures of var_and_tvar on the sample distribution counts/num_sims,
    with alpha taken as the exact binary fraction it holds.  VaR is the
    smallest count k whose cumulative tally is at least
    ceil(alpha * num_sims), decided in integers; TVaR is an exact fraction of
    integer sums, rounded to float once.  A cumulative tally equal to
    alpha * num_sims therefore reaches the level, as it does in exact
    arithmetic, where a rounded float cdf may fall an ulp short of it.

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
    a = Fraction(alpha)
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
    return var_count, float(tvar)


def _tally_rho(h: LossHistogram, measure: RiskMeasureSpec) -> float:
    """The measure of a histogram, in counts: apply_measure on the tallies."""
    var_count, tvar = tally_var_and_tvar(h, measure.alpha, measure.convention)
    return float(var_count) if measure.kind is MeasureKind.VAR else tvar


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
) -> float:
    """The measure of the loss count: exact, or read off a simulation's tallies."""
    if isinstance(source, SimulationConfig):
        return _tally_rho(simulate(model, N, n, source), measure)
    if source != "exact":
        raise ValueError(f"source must be 'exact' or a SimulationConfig, got {source!r}")
    return apply_measure(loss_count_distribution(model, N, n), measure)


def loading_from_rho(rho: float, model: ModelSpec, params: PortfolioParams, N: int) -> float:
    """Risk loading per policy: capital_cost * (severity*rho/N - E[L per policy]).

    The one definition of the loading: rho is the portfolio's risk measure in
    counts, E[L] the closed-form mean.

    Raises:
        ValueError: If the loading is not finite (the inputs overflow).
    """
    expected = closed_form_mean_per_policy(model, params)
    loading = params.capital_cost * (params.severity * rho / N - expected)
    if not math.isfinite(loading):
        raise ValueError(f"the risk loading is not finite ({loading}): the inputs overflow")
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
    workers: int = 1,
) -> LoadingEstimate:
    """Monte Carlo risk loading per policy, with a bootstrap standard error."""
    h = simulate(model, N, params.exposures, config, workers=workers)
    value = loading_from_rho(_tally_rho(h, measure), model, params, N)
    return LoadingEstimate(value, bootstrap_loading_se(h, model, params, N, measure, config.seed))
