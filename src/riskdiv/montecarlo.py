"""Seeded, reproducibly parallel simulation of the portfolio models.

Simulations are split into fixed-size blocks; block b draws from its own
counter-based Philox stream keyed by (seed, b).  Histograms are merged in
block order, so results are bit-identical for a given (seed, block_size,
num_sims) no matter how many workers run the blocks.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteLossDistribution
from .measures import RiskMeasureSpec, apply_measure
from .models import ModelKind, ModelSpec, PortfolioParams, closed_form_mean_per_policy
from .models import loss_count_distribution

__all__ = [
    "SimulationConfig",
    "LossHistogram",
    "LoadingEstimate",
    "simulate",
    "empirical_distribution",
    "loss_distribution",
    "loading_from_rho",
    "mc_loading",
    "bootstrap_loading_se",
]

DEFAULT_SEED = 42
DEFAULT_BLOCK_SIZE = 250_000


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
    if model.kind is ModelKind.IID:
        draws = rng.binomial(total, p, size=size)
    elif model.kind is ModelKind.COMMON_SHOCK:
        crisis = rng.random(size) < pt
        draws = np.empty(size, dtype=np.int64)
        n_crisis = int(crisis.sum())
        if n_crisis:
            draws[crisis] = rng.binomial(total, q, size=n_crisis)
        if n_crisis < size:
            draws[~crisis] = rng.binomial(total, p, size=size - n_crisis)
    else:
        # Per-exposure shock: j of the n rounds are in crisis; grouped by j so
        # the expensive binomial sampler runs on scalar parameters.
        crisis_rounds = rng.binomial(n, pt, size=size)
        draws = np.zeros(size, dtype=np.int64)
        for j in range(n + 1):
            sel = crisis_rounds == j
            cnt = int(sel.sum())
            if cnt == 0:
                continue
            part = np.zeros(cnt, dtype=np.int64)
            if j > 0:
                part += rng.binomial(N * j, q, size=cnt)
            if j < n:
                part += rng.binomial(N * (n - j), p, size=cnt)
            draws[sel] = part
    return np.bincount(draws, minlength=total + 1).astype(np.int64)


def _block_sizes(num_sims: int, block_size: int) -> list[int]:
    full, rest = divmod(num_sims, block_size)
    return [block_size] * full + ([rest] if rest else [])


def simulate(
    model: ModelSpec,
    N: int,
    n: int,
    config: SimulationConfig,
    workers: int = 1,
) -> LossHistogram:
    """Simulate the portfolio loss count and tally a histogram.

    Deterministic for fixed (seed, block_size, num_sims) regardless of
    workers: every block owns a Philox stream keyed by (seed, block index)
    and the integer tallies are merged in index order.

    Args:
        model: Generative model to simulate.
        N: Number of policies.
        n: Exposures per policy.
        config: Simulation budget, seed and block layout.
        workers: Process count for block execution; the pool never starts
            more processes than there are blocks.

    Raises:
        ValueError: If N or n is less than 1.
    """
    if N < 1 or n < 1:
        raise ValueError(f"N and n must be >= 1, got N={N}, n={n}")
    sizes = _block_sizes(config.num_sims, config.block_size)
    total = N * n
    merged = np.zeros(total + 1, dtype=np.int64)
    if workers <= 1 or len(sizes) == 1:
        for b, size in enumerate(sizes):
            merged += _draw_block(model, N, n, config.seed, b, size)
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(sizes))) as pool:
            results = pool.map(
                _draw_block,
                [model] * len(sizes),
                [N] * len(sizes),
                [n] * len(sizes),
                [config.seed] * len(sizes),
                range(len(sizes)),
                sizes,
            )
            for block_hist in results:
                merged += block_hist
    return LossHistogram(merged, config.num_sims)


def empirical_distribution(h: LossHistogram) -> DiscreteLossDistribution:
    """Normalise a histogram into a loss-count distribution.

    The result feeds the same risk-measure pipeline as exact distributions.

    Raises:
        ValueError: If the histogram is empty.
    """
    if h.num_sims < 1 or not np.any(h.counts):
        raise ValueError("empty histogram")
    nz = np.nonzero(h.counts)[0]
    lo, hi = int(nz[0]), int(nz[-1])
    masses = h.counts[lo : hi + 1] / float(h.num_sims)
    return DiscreteLossDistribution(lo, masses)


def loss_distribution(
    model: ModelSpec, N: int, n: int, source: str | SimulationConfig = "exact", workers: int = 1
) -> DiscreteLossDistribution:
    """The exact loss-count distribution, or the empirical one of a SimulationConfig."""
    if isinstance(source, SimulationConfig):
        return empirical_distribution(simulate(model, N, n, source, workers=workers))
    if source != "exact":
        raise ValueError(f"source must be 'exact' or a SimulationConfig, got {source!r}")
    return loss_count_distribution(model, N, n)


def loading_from_rho(rho: float, model: ModelSpec, params: PortfolioParams, N: int) -> float:
    """Risk loading per policy: capital_cost * (severity*rho/N - E[L per policy]).

    The one definition of the loading: rho is the portfolio's risk measure in
    counts, E[L] the closed-form mean.
    """
    expected = closed_form_mean_per_policy(model, params)
    return params.capital_cost * (params.severity * rho / N - expected)


def bootstrap_loading_se(
    h: LossHistogram,
    model: ModelSpec,
    params: PortfolioParams,
    N: int,
    measure: RiskMeasureSpec,
    n_boot: int = 200,
    seed: int = DEFAULT_SEED,
) -> float:
    """Bootstrap standard error of a histogram-based loading.

    Resamples the histogram multinomially n_boot times and recomputes the
    loading on each replicate.

    Raises:
        ValueError: If n_boot < 2, too few replicates for a standard error.
    """
    if n_boot < 2:
        raise ValueError(f"n_boot must be >= 2 for a standard error, got {n_boot}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xB007))))
    probs = h.counts / float(h.num_sims)
    values = np.empty(n_boot)
    for i in range(n_boot):
        resampled = rng.multinomial(h.num_sims, probs)
        d = empirical_distribution(LossHistogram(resampled, h.num_sims))
        values[i] = loading_from_rho(apply_measure(d, measure), model, params, N)
    return float(values.std(ddof=1))


def mc_loading(
    model: ModelSpec,
    params: PortfolioParams,
    N: int,
    measure: RiskMeasureSpec,
    config: SimulationConfig,
    workers: int = 1,
    n_boot: int = 200,
) -> LoadingEstimate:
    """Monte Carlo risk loading per policy, with a bootstrap standard error.

    Pass n_boot=0 to skip the bootstrap (standard_error is then None).
    """
    h = simulate(model, N, params.exposures, config, workers=workers)
    d = empirical_distribution(h)
    value = loading_from_rho(apply_measure(d, measure), model, params, N)
    se = bootstrap_loading_se(h, model, params, N, measure, n_boot, config.seed) if n_boot else None
    return LoadingEstimate(value, se)
