"""Simulation: determinism, checkpoints, the tally reader, oracle agreement."""

import multiprocessing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import riskdiv.montecarlo as mc
from _helpers import record_pools
from riskdiv.distributions import moments
from riskdiv.measures import MeasureKind, RiskMeasureSpec, TvarConvention, var_and_tvar
from riskdiv.models import (
    ModelSpec,
    PortfolioParams,
    SupportLimitError,
    closed_form_mean_per_policy,
    closed_form_variance_per_policy,
    loss_count_distribution,
)
from riskdiv.montecarlo import (
    LossHistogram,
    SimulationConfig,
    block_plan,
    block_pool,
    bootstrap_loading_se,
    empirical_distribution,
    mc_loading,
    simulate,
    tally_var_and_tvar,
)

PARAMS = PortfolioParams()
CRISIS = ModelSpec.per_exposure_shock(1 / 6, 0.5, 0.01)


class TestDeterminism:
    def test_identical_across_worker_counts(self):
        cfg = SimulationConfig(num_sims=200_000, seed=7, block_size=50_000)
        base = simulate(CRISIS, 50, 6, cfg, workers=1)
        for workers in (4, 8):
            again = simulate(CRISIS, 50, 6, cfg, workers=workers)
            assert np.array_equal(base.counts, again.counts)
            assert base.counts.tobytes() == again.counts.tobytes()

    def test_seed_changes_output(self):
        a = simulate(CRISIS, 10, 6, SimulationConfig(50_000, seed=1, block_size=25_000))
        b = simulate(CRISIS, 10, 6, SimulationConfig(50_000, seed=2, block_size=25_000))
        assert not np.array_equal(a.counts, b.counts)

    def test_block_size_changes_stream_layout(self):
        a = simulate(CRISIS, 10, 6, SimulationConfig(50_000, seed=1, block_size=25_000))
        b = simulate(CRISIS, 10, 6, SimulationConfig(50_000, seed=1, block_size=10_000))
        assert not np.array_equal(a.counts, b.counts)

    def test_ragged_last_block(self):
        h = simulate(CRISIS, 10, 6, SimulationConfig(60_001, seed=3, block_size=25_000))
        assert int(h.counts.sum()) == 60_001

    def test_pool_sized_by_block_count(self, monkeypatch):
        cfg = SimulationConfig(2_000, seed=4, block_size=1_000)
        base = simulate(CRISIS, 5, 6, cfg)
        sizes = record_pools(monkeypatch, cpus=64)
        h = simulate(CRISIS, 5, 6, cfg, workers=8)
        assert sizes == [2]
        assert h.counts.tobytes() == base.counts.tobytes()

    def test_pool_capped_at_usable_cpus(self, monkeypatch):
        sizes = record_pools(monkeypatch, cpus=3)
        with block_pool(10**6, 10**6):
            pass
        assert sizes == [3]
        assert multiprocessing.active_children() == []
        # One usable CPU draws in this process.
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 1)
        with block_pool(10**6, 10**6) as pool:
            assert pool is None
        assert sizes == [3]

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 5)
        assert mc._usable_cpus() == 5
        # cpu_count may not know.
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert mc._usable_cpus() == 1

    def test_given_pool_draws_every_block(self, monkeypatch):
        mapped = []

        class InProcess:
            """A caller's executor: records the blocks and draws them here."""

            def map(self, fn, *iterables):
                mapped.extend(zip(iterables[4], iterables[5]))
                return map(fn, *iterables)

        cfg = SimulationConfig(2_000, seed=4, block_size=1_000)
        base = simulate(CRISIS, 5, 6, cfg, checkpoints=[1_500, 2_000])
        # A given pool is used as it is: the call opens none of its own.
        monkeypatch.setattr(mc, "ProcessPoolExecutor", None)
        hists = simulate(CRISIS, 5, 6, cfg, checkpoints=[1_500, 2_000], pool=InProcess())
        assert mapped == [(0, 1_000), (1, 500), (1, 1_000)]
        assert [h.counts.tobytes() for h in hists] == [h.counts.tobytes() for h in base]
        # A lone block is drawn in this process.
        one = SimulationConfig(1_000, seed=4, block_size=1_000)
        h = simulate(CRISIS, 5, 6, one, pool=InProcess())
        assert len(mapped) == 3
        assert h.counts.tobytes() == simulate(CRISIS, 5, 6, one).counts.tobytes()

    def test_block_plan(self):
        cfg = SimulationConfig(4_000, seed=1, block_size=1_000)
        assert block_plan(cfg) == [(0, 1_000), (1, 1_000), (2, 1_000), (3, 1_000)]
        # A cut block merges after the full blocks below it.
        assert block_plan(cfg, [2_500, 1_500, 2_500]) == [(0, 1_000), (1, 500), (1, 1_000),
                                                          (2, 500)]
        with pytest.raises(ValueError, match="checkpoint 5000"):
            block_plan(cfg, [5_000])


class TestHistogram:
    def test_tally_totals(self):
        h = simulate(ModelSpec.iid(1 / 6), 5, 6, SimulationConfig(30_000, seed=5))
        assert int(h.counts.sum()) == h.num_sims == 30_000
        assert len(h.counts) == 31

    def test_nonzero_items_sorted(self):
        h = simulate(ModelSpec.iid(1 / 6), 2, 6, SimulationConfig(10_000, seed=5))
        items = h.nonzero_items()
        assert items == sorted(items)
        assert sum(t for _, t in items) == 10_000


class TestEmpiricalDistribution:
    def test_single_observation(self):
        h = LossHistogram(np.array([1], dtype=np.int64), 1)
        d = empirical_distribution(h)
        assert d.min_count == 0 and list(d.masses) == [1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_distribution(LossHistogram(np.zeros(3, dtype=np.int64), 0))

    def test_pointwise_close_to_exact(self):
        sims = 200_000
        h = simulate(ModelSpec.iid(1 / 6), 1, 6, SimulationConfig(sims, seed=13))
        d = empirical_distribution(h)
        exact = loss_count_distribution(ModelSpec.iid(1 / 6), 1, 6)
        # Per-cell binomial sampling bound at five standard errors.
        for k in range(7):
            m = exact.masses[k]
            tol = 5 * np.sqrt(m * (1 - m) / sims)
            got = d.masses[k - d.min_count] if d.min_count <= k <= d.max_count else 0.0
            assert abs(got - m) <= tol

    @pytest.mark.parametrize(
        "model",
        [ModelSpec.iid(1 / 6), ModelSpec.common_shock(1 / 6, 0.5, 0.02), CRISIS],
    )
    def test_empirical_mean_unbiased(self, model):
        sims, N = 300_000, 20
        h = simulate(model, N, 6, SimulationConfig(sims, seed=17))
        mean_c, _ = moments(empirical_distribution(h))
        mean = PARAMS.severity * mean_c / N
        want = closed_form_mean_per_policy(model, PARAMS)
        var = closed_form_variance_per_policy(model, PARAMS, N)
        se = np.sqrt(var / sims)
        assert abs(mean - want) <= 4 * se

    def test_no_crisis_reduces_to_binomial_sampling(self):
        model = ModelSpec.per_exposure_shock(1 / 6, 0.5, 0.0)
        sims, N = 200_000, 10
        h = simulate(model, N, 6, SimulationConfig(sims, seed=19))
        mean_c, _ = moments(empirical_distribution(h))
        want = N * 6 * (1 / 6)
        se = np.sqrt(N * 6 * (1 / 6) * (5 / 6) / sims)
        assert abs(mean_c - want) <= 4 * se


class TestOracleAgreement:
    @pytest.mark.parametrize("kind", [MeasureKind.VAR, MeasureKind.TVAR])
    @pytest.mark.parametrize(
        "model",
        [ModelSpec.iid(1 / 6), ModelSpec.common_shock(1 / 6, 0.5, 0.05), CRISIS],
    )
    def test_mc_loading_within_three_bootstrap_se(self, model, kind):
        N = 100
        spec = RiskMeasureSpec(kind, 0.99, TvarConvention.TAIL_AVERAGE)
        cfg = SimulationConfig(num_sims=400_000, seed=23, block_size=100_000)
        est = mc_loading(model, PARAMS, N, spec, cfg)
        exact = __import__("riskdiv.pricing", fromlist=["risk_loading_per_policy"])
        want = exact.risk_loading_per_policy(model, PARAMS, N, spec).value
        slack = max(3 * est.standard_error, 1e-9)
        assert abs(est.value - want) <= slack

    def test_bootstrap_se_positive_for_tail_measure(self):
        h = simulate(CRISIS, 100, 6, SimulationConfig(100_000, seed=29))
        spec = RiskMeasureSpec(MeasureKind.TVAR, 0.99, TvarConvention.TAIL_AVERAGE)
        se = bootstrap_loading_se(h, CRISIS, PARAMS, 100, spec, seed=29)
        assert se > 0.0


class TestConvergenceStudy:
    def test_budgets_share_leading_blocks(self):
        # The smaller budget is a prefix of the larger one, so with the same
        # seed the first blocks contribute identically.
        cfg_small = SimulationConfig(50_000, seed=37, block_size=25_000)
        cfg_large = SimulationConfig(100_000, seed=37, block_size=25_000)
        h_small = simulate(CRISIS, 10, 6, cfg_small)
        h_large = simulate(CRISIS, 10, 6, cfg_large)
        assert int(h_large.counts.sum()) == 100_000
        assert (h_large.counts - h_small.counts).min() >= 0


class TestCheckpoints:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equal_separate_runs(self, workers):
        cfg = SimulationConfig(4_000, seed=41, block_size=1_000)
        budgets = [3_000, 1_000, 4_000, 1_000]
        hists = simulate(CRISIS, 10, 6, cfg, workers=workers, checkpoints=budgets)
        for budget, h in zip(budgets, hists):
            alone = simulate(CRISIS, 10, 6, SimulationConfig(budget, seed=41, block_size=1_000))
            assert h.num_sims == budget
            assert h.counts.tobytes() == alone.counts.tobytes()

    def test_ragged_budget_is_its_own_run(self):
        # 1,500 at block size 1,000 ends in block 1 cut to 500 paths: inside
        # a longer run it is that cut block plus block 0, as in its own run.
        alone = simulate(CRISIS, 10, 6, SimulationConfig(1_500, seed=43, block_size=1_000))
        [h] = simulate(CRISIS, 10, 6, SimulationConfig(1_500, seed=43, block_size=1_000),
                       checkpoints=[1_500])
        assert h.counts.tobytes() == alone.counts.tobytes()
        [h] = simulate(CRISIS, 10, 6, SimulationConfig(3_000, seed=43, block_size=1_000),
                       checkpoints=[1_500])
        assert h.num_sims == 1_500
        assert h.counts.tobytes() == alone.counts.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @settings(max_examples=12, deadline=None)
    @given(
        block_size=st.integers(200, 1_500),
        budgets=st.lists(st.integers(1, 4_000), min_size=1, max_size=5),
        beyond=st.integers(0, 1_000),
    )
    @example(block_size=1_000, budgets=[2_500, 700, 2_500, 1_000], beyond=0)
    def test_any_budgets_equal_their_own_runs(self, workers, block_size, budgets, beyond):
        # Ragged, below one block, duplicated and unsorted budgets alike.
        cfg = SimulationConfig(max(budgets) + beyond, seed=53, block_size=block_size)
        hists = simulate(CRISIS, 10, 6, cfg, workers=workers, checkpoints=budgets)
        assert [h.num_sims for h in hists] == budgets
        for budget, h in zip(budgets, hists):
            alone = simulate(CRISIS, 10, 6, SimulationConfig(budget, 53, block_size))
            assert h.counts.tobytes() == alone.counts.tobytes()

    def test_each_needed_block_drawn_once(self, monkeypatch):
        drawn = []
        draw_block = mc._draw_block

        def recording(model, N, n, seed, block_index, size):
            drawn.append((block_index, size))
            return draw_block(model, N, n, seed, block_index, size)

        monkeypatch.setattr(mc, "_draw_block", recording)
        simulate(CRISIS, 10, 6, SimulationConfig(3_000, seed=59, block_size=1_000),
                 checkpoints=[1_500, 3_000])
        # 3,500 paths: the 1,500 budget adds only its cut block 1.
        assert drawn == [(0, 1_000), (1, 500), (1, 1_000), (2, 1_000)]

    def test_no_checkpoints_no_histograms(self):
        assert simulate(CRISIS, 10, 6, SimulationConfig(4_000, block_size=1_000),
                        checkpoints=[]) == []

    def test_block_multiples_below_a_ragged_run(self):
        cfg = SimulationConfig(2_500, seed=47, block_size=1_000)
        first, last = simulate(CRISIS, 10, 6, cfg, checkpoints=[2_000, 2_500])
        alone = simulate(CRISIS, 10, 6, SimulationConfig(2_000, seed=47, block_size=1_000))
        assert first.counts.tobytes() == alone.counts.tobytes()
        assert last.counts.tobytes() == simulate(CRISIS, 10, 6, cfg).counts.tobytes()

    @pytest.mark.parametrize("budget", [0, 5_000, -1_000])
    def test_checkpoint_outside_the_run_rejected(self, budget):
        with pytest.raises(ValueError, match="neither num_sims"):
            simulate(CRISIS, 10, 6, SimulationConfig(4_000, block_size=1_000),
                     checkpoints=[budget])


def _brute_force(counts: list[int], alpha: float, convention: TvarConvention):
    """VaR by a linear scan of the exact cdf, TVaR as an exact tail integral."""
    sims = sum(counts)
    a = Fraction(alpha)
    cum = [sum(counts[: k + 1]) for k in range(len(counts))]
    var_count = next(k for k in range(len(counts)) if Fraction(cum[k], sims) >= a)
    if convention is TvarConvention.CONDITIONAL:
        tail = range(var_count, len(counts))
        tvar = Fraction(sum(k * counts[k] for k in tail), sum(counts[k] for k in tail))
    else:
        # Each count k owns the cdf interval (F(k-1), F(k)]; average the
        # quantile over the part of (alpha, 1] it covers.
        tvar = Fraction(0)
        for k in range(len(counts)):
            lo = max(Fraction(cum[k] - counts[k], sims), a)
            hi = Fraction(cum[k], sims)
            tvar += k * max(hi - lo, Fraction(0))
        tvar /= 1 - a
    return var_count, float(tvar)


class TestTallyReader:
    def test_knife_edge_tally_reaches_alpha(self):
        # The cumulative tally at 1 is 699,300 = ceil(Fraction(0.999) * 700,000),
        # so the level is reached at 1; a rounded float cdf at 1 can fall an
        # ulp below 0.999 and push the VaR to 2.
        h = LossHistogram(np.array([391_983, 307_317, 700], dtype=np.int64), 700_000)
        for convention in TvarConvention:
            assert tally_var_and_tvar(h, 0.999, convention)[0] == 1
            assert tally_var_and_tvar(h, 0.999, convention) == _brute_force(
                h.counts.tolist(), 0.999, convention
            )

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 60), min_size=1, max_size=10).filter(any),
        alpha=st.sampled_from([0.9, 0.99, 0.999]),
        convention=st.sampled_from(list(TvarConvention)),
    )
    def test_equals_exact_arithmetic(self, counts, alpha, convention):
        h = LossHistogram(np.array(counts, dtype=np.int64), sum(counts))
        var_count, tvar = tally_var_and_tvar(h, alpha, convention)
        assert (var_count, tvar) == _brute_force(counts, alpha, convention)
        d = empirical_distribution(h)
        if np.min(np.abs(d.cdf - alpha)) > 1e-12:
            # Away from a knife edge the float cdf path decides the same VaR.
            fvar, ftvar = var_and_tvar(d, alpha, convention)
            assert fvar == var_count
            assert ftvar == pytest.approx(tvar, rel=1e-12)

    @pytest.mark.parametrize("counts,sims", [([0, 0], 0), ([3, 4], 8), ([3, 4], 6)])
    def test_tallies_must_sum_to_num_sims(self, counts, sims):
        with pytest.raises(ValueError, match="tallies sum to"):
            tally_var_and_tvar(LossHistogram(np.array(counts, dtype=np.int64), sims), 0.99)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        h = LossHistogram(np.array([1, 1], dtype=np.int64), 2)
        with pytest.raises(ValueError, match="alpha must lie in"):
            tally_var_and_tvar(h, alpha)


class TestConfigValidation:
    def test_bad_sims(self):
        with pytest.raises(ValueError):
            SimulationConfig(0)

    def test_bad_block(self):
        with pytest.raises(ValueError):
            SimulationConfig(10, block_size=0)

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence would reject it only at the first draw, with a
        # message that names no input.
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SimulationConfig(10, seed=-1)

    @pytest.mark.parametrize("N,n", [(0, 6), (1, 0)])
    def test_empty_portfolio_rejected(self, N, n):
        with pytest.raises(ValueError, match="N and n must be >= 1"):
            simulate(CRISIS, N, n, SimulationConfig(10))

    def test_support_guard(self, monkeypatch):
        # Each block tallies a dense histogram over 0 .. N*n, as the exact engine
        # builds a dense pmf, so both honour the same limit.
        monkeypatch.setenv("RISKDIV_MAX_SUPPORT", "100")
        with pytest.raises(SupportLimitError, match=r"^support of 300 counts \(N=50, n=6\) "
                           "exceeds the limit 100$"):
            simulate(CRISIS, 50, 6, SimulationConfig(10))
