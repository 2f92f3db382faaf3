"""Simulation: determinism, the tally bound, the tally reader, oracle agreement."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc

import riskdiv.montecarlo as mc
from _helpers import (
    dense,
    dense_bootstrap_se,
    draw_paths,
    histogram,
    pooled_chi_square,
    two_sample_chi_square,
)
from riskdiv import models
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
    bootstrap_loading_se,
    empirical_distribution,
    mc_loading,
    simulate,
    tally_var_and_tvar,
)

PARAMS = PortfolioParams()
CRISIS = ModelSpec.per_exposure_shock(1 / 6, 0.5, 0.01)


class TestDeterminism:
    def test_seed_changes_output(self):
        a = simulate(CRISIS, 10, 6, SimulationConfig(50_000, seed=1))
        b = simulate(CRISIS, 10, 6, SimulationConfig(50_000, seed=2))
        assert not np.array_equal(dense(a), dense(b))

    def test_ragged_last_block(self):
        h = simulate(CRISIS, 10, 6, SimulationConfig(60_001, seed=3))
        assert int(dense(h).sum()) == 60_001

    def test_each_budget_is_one_draw(self, monkeypatch):
        drawn = []
        draw_block = mc._draw_block

        def recording(model, N, n, seed, size):
            drawn.append((seed, size))
            return draw_block(model, N, n, seed, size)

        monkeypatch.setattr(mc, "_draw_block", recording)
        for budget in (3_000, 1_500, 20_000_000):
            simulate(CRISIS, 10, 6, SimulationConfig(budget, seed=59))
        assert drawn == [(59, 3_000), (59, 1_500), (59, 20_000_000)]

    # sha256 of the tallies at 250,000 paths, the default block size when
    # budgets were drawn in blocks: a budget of one block kept its bytes.
    ONE_BLOCK_DIGEST = "4e974530419345adcf819966dbbde8019a065b28c3211cb2cc62242981230fcc"

    def test_one_block_budget_kept_its_bytes(self):
        h = simulate(CRISIS, 100, 6, SimulationConfig(250_000, seed=7))
        assert hashlib.sha256(dense(h).tobytes()).hexdigest() == self.ONE_BLOCK_DIGEST

    # `calls` repeats the budgets in one process.  Each budget is drawn on
    # the memoised terms of the one before it, as the rows of a table column
    # are, and must equal its own draw on freshly built terms.
    @pytest.mark.parametrize("calls", [1, 2])
    def test_warm_law_changes_no_histogram(self, calls):
        budgets = [3_000, 1_000, 4_000, 1_000]
        warm = [dense(simulate(CRISIS, 10, 6, SimulationConfig(b, seed=41))).tobytes()
                for _ in range(calls) for b in budgets]
        cold = []
        for b in budgets * calls:
            models._state_term.cache_clear()
            cold.append(dense(simulate(CRISIS, 10, 6, SimulationConfig(b, seed=41))).tobytes())
        assert warm == cold


class TestHistogram:
    def test_tally_totals(self):
        h = simulate(ModelSpec.iid(1 / 6), 5, 6, SimulationConfig(30_000, seed=5))
        assert int(dense(h).sum()) == h.num_sims == 30_000
        assert len(dense(h)) == 31

    @pytest.mark.parametrize("name", ["iid", "common", "crisis"])
    def test_holds_only_the_occupied_counts(self, name):
        # Ascending occupied counts with positive int64 tallies; top is N*n.
        h = simulate(ORACLE_MODELS[name], 20, 6, SimulationConfig(50_000, seed=5))
        assert h.top == 120
        assert h.values.dtype == h.tallies.dtype == np.int64
        assert np.all(np.diff(h.values) > 0) and np.all(h.tallies > 0)
        assert 0 <= h.values[0] and h.values[-1] <= h.top
        assert h.values.tolist() == np.flatnonzero(dense(h)).tolist()

    def test_nonzero_items_sorted(self):
        h = simulate(ModelSpec.iid(1 / 6), 2, 6, SimulationConfig(10_000, seed=5))
        items = h.nonzero_items()
        assert items == sorted(items)
        assert sum(t for _, t in items) == 10_000


class TestEmpiricalDistribution:
    def test_single_observation(self):
        h = histogram([1], 1)
        d = empirical_distribution(h)
        assert d.min_count == 0 and list(d.masses) == [1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_distribution(histogram(np.zeros(3), 0))

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
        cfg = SimulationConfig(num_sims=400_000, seed=23)
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


# Models whose top count N*n is occupied at small N, beside the ones above.
HEAVY_MODELS = {
    "iid": ModelSpec.iid(0.9),
    "common": ModelSpec.common_shock(0.5, 0.99, 0.3),
    "crisis": ModelSpec.per_exposure_shock(0.5, 0.99, 0.5),
}
# The cases whose 2,000 paths at seed 7 occupy N*n.
TOP_OCCUPIED = {(False, "common", 1), (True, "iid", 1), (True, "iid", 3), (True, "common", 1),
                (True, "common", 3), (True, "common", 100), (True, "crisis", 1),
                (True, "crisis", 3)}


class TestBootstrap:
    """The one-call occupied-bin bootstrap against one dense multinomial per replicate."""

    @pytest.mark.parametrize("N", [1, 3, 100, 10_000])
    @pytest.mark.parametrize("name", ["iid", "common", "crisis"])
    @pytest.mark.parametrize("heavy", [False, True])
    def test_equals_the_dense_bootstrap(self, heavy, name, N):
        model = (HEAVY_MODELS if heavy else ORACLE_MODELS)[name]
        h = simulate(model, N, PARAMS.exposures, SimulationConfig(2_000, seed=7))
        assert (h.values[-1] == h.top) == ((heavy, name, N) in TOP_OCCUPIED)
        spec = (RiskMeasureSpec(MeasureKind.TVAR, 0.99, TvarConvention.TAIL_AVERAGE) if heavy
                else RiskMeasureSpec(MeasureKind.VAR, 0.99))
        assert bootstrap_loading_se(h, model, PARAMS, N, spec, seed=7) == dense_bootstrap_se(
            h, model, PARAMS, N, spec, seed=7)


# Small portfolios of each model, with crises frequent enough to sample.
ORACLE_MODELS = {
    "iid": ModelSpec.iid(1 / 6),
    "common": ModelSpec.common_shock(1 / 6, 0.5, 0.1),
    "crisis": ModelSpec.per_exposure_shock(1 / 6, 0.5, 0.1),
}
# A fixed-seed test that a correct sampler fails with this probability.
FALSE_ALARM = 1e-3


class TestPathOracle:
    """The histogram sampler against path-by-path draws, an independent sampler."""

    SIMS = 400_000

    @pytest.mark.parametrize("N", [1, 20])
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_same_law_as_paths(self, name, N):
        model, n, sims = ORACLE_MODELS[name], PARAMS.exposures, self.SIMS
        hist = simulate(model, N, n, SimulationConfig(sims, seed=61))
        # The oracle draws from another seed's stream, so the two samples are independent.
        paths = draw_paths(model, N, n, 62, sims)
        stat, dof = two_sample_chi_square(dense(hist), paths)
        assert chdtrc(dof, stat) > FALSE_ALARM, (stat, dof)
        # Each sample's mean loss per policy within 4 standard errors of the closed form.
        se = np.sqrt(closed_form_variance_per_policy(model, PARAMS, N) / sims)
        for counts in (dense(hist), paths):
            mean = PARAMS.severity * (np.arange(len(counts)) @ counts) / sims / N
            assert abs(mean - closed_form_mean_per_policy(model, PARAMS)) <= 4 * se

    def test_large_budget_fits_the_exact_pmf(self):
        # 20 M paths in one draw against the exact pmf of their law.
        model, N, n, sims = ORACLE_MODELS["crisis"], 100, PARAMS.exposures, 20_000_000
        h = simulate(model, N, n, SimulationConfig(sims, seed=67))
        d = loss_count_distribution(model, N, n)
        observed = dense(h)[d.min_count : d.max_count + 1]
        assert observed.sum() == sims  # no draw beyond the stored support
        stat, dof = pooled_chi_square(observed, sims * d.masses)
        assert chdtrc(dof, stat) > FALSE_ALARM, (stat, dof)


def _brute_force(counts: list[int], alpha: float, convention: TvarConvention):
    """VaR by a linear scan of the exact cdf, TVaR as an exact tail integral.

    alpha is the decimal it prints, the level a user types.
    """
    sims = sum(counts)
    a = Fraction(repr(alpha))
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
    return var_count, tvar


class TestTallyReader:
    def test_knife_edge_tally_reaches_alpha(self):
        # The cumulative tally at 1 is 699,300 = 0.999 * 700,000,
        # so the level is reached at 1; a rounded float cdf at 1 can fall an
        # ulp below 0.999 and push the VaR to 2.
        counts = [391_983, 307_317, 700]
        h = histogram(counts, 700_000)
        for convention in TvarConvention:
            assert tally_var_and_tvar(h, 0.999, convention)[0] == 1
            assert tally_var_and_tvar(h, 0.999, convention) == _brute_force(
                counts, 0.999, convention
            )

    def test_alpha_is_the_decimal_typed(self):
        # The double nearest 0.9 exceeds 9/10, so as a binary fraction 9 of
        # 10 tallies would fall short of it; as the decimal they reach it.
        h = histogram([9, 1], 10)
        assert tally_var_and_tvar(h, 0.9, TvarConvention.TAIL_AVERAGE) == (0, Fraction(1))
        assert tally_var_and_tvar(h, 0.9) == (0, Fraction(1, 10))

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 60), min_size=1, max_size=10).filter(any),
        alpha=st.sampled_from([0.9, 0.99, 0.999]),
        convention=st.sampled_from(list(TvarConvention)),
    )
    def test_equals_exact_arithmetic(self, counts, alpha, convention):
        h = histogram(counts, sum(counts))
        var_count, tvar = tally_var_and_tvar(h, alpha, convention)
        assert (var_count, tvar) == _brute_force(counts, alpha, convention)
        d = empirical_distribution(h)
        if np.min(np.abs(d.cdf - alpha)) > 1e-12:
            # Away from a knife edge the float cdf path decides the same VaR.
            fvar, ftvar = var_and_tvar(d, alpha, convention)
            assert fvar == var_count
            assert ftvar == pytest.approx(tvar, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        bins=st.dictionaries(st.integers(0, 80), st.integers(1, 60), min_size=1, max_size=10),
        top_gap=st.integers(0, 3),
        alpha=st.sampled_from([0.9, 0.99, 0.999]),
        convention=st.sampled_from(list(TvarConvention)),
    )
    def test_occupied_bins_equal_the_dense_expansion(self, bins, top_gap, alpha, convention):
        values = sorted(bins)
        tallies = np.array([bins[v] for v in values], dtype=np.int64)
        h = LossHistogram(np.array(values, dtype=np.int64), tallies, int(tallies.sum()),
                          values[-1] + top_gap)
        assert tally_var_and_tvar(h, alpha, convention) == _brute_force(
            dense(h).tolist(), alpha, convention)

    @pytest.mark.parametrize("counts,sims", [([0, 0], 0), ([3, 4], 8), ([3, 4], 6)])
    def test_tallies_must_sum_to_num_sims(self, counts, sims):
        with pytest.raises(ValueError, match="tallies sum to"):
            tally_var_and_tvar(histogram(counts, sims), 0.99)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        h = histogram([1, 1], 2)
        with pytest.raises(ValueError, match="alpha must lie in"):
            tally_var_and_tvar(h, alpha)


class TestConfigValidation:
    def test_bad_sims(self):
        with pytest.raises(ValueError):
            SimulationConfig(0)

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
        # A simulation draws over the exact engine's terms, so both honour
        # the same limit.
        monkeypatch.setenv("RISKDIV_MAX_SUPPORT", "100")
        with pytest.raises(SupportLimitError, match=r"^support of 300 counts \(N=50, n=6\) "
                           "exceeds the limit 100$"):
            simulate(CRISIS, 50, 6, SimulationConfig(10))

    # The largest budget at N=100, n=6 whose sum of count * tally fits an int64.
    LAST_BUDGET = (2**63 - 1) // 600

    def test_tally_bound(self, monkeypatch):
        # Just past the bound nothing is drawn: numpy would wrap the int64 sums.
        monkeypatch.setattr(mc, "_draw_block", lambda *a, **k: pytest.fail("drew past the bound"))
        with pytest.raises(ValueError, match=rf"^num_sims \* N \* n = {self.LAST_BUDGET + 1} "
                           r"\* 100 \* 6 exceeds 2\*\*63 - 1"):
            simulate(CRISIS, 100, 6, SimulationConfig(self.LAST_BUDGET + 1))

    def test_budget_at_the_tally_bound(self):
        h = simulate(CRISIS, 100, 6, SimulationConfig(self.LAST_BUDGET, seed=71))
        assert int(h.tallies.sum()) == h.num_sims == self.LAST_BUDGET
        d = loss_count_distribution(CRISIS, 100, 6)
        # So many paths read the exact engine's measures off the tallies.
        tvar = tally_var_and_tvar(h, 0.99, TvarConvention.TAIL_AVERAGE)[1]
        assert float(tvar) == pytest.approx(
            var_and_tvar(d, 0.99, TvarConvention.TAIL_AVERAGE)[1], rel=1e-6)


def test_import_does_not_load_concurrent_futures():
    # montecarlo hands out ProcessPoolExecutor only on request.  A
    # subprocess, because pytest itself may have loaded concurrent.futures.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import riskdiv, sys; from riskdiv import montecarlo; "
            "assert 'concurrent.futures' not in sys.modules; "
            "assert montecarlo.ProcessPoolExecutor.__module__ == 'concurrent.futures.process'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=False)
    assert proc.returncode == 0, proc.stderr.decode()
