"""Acceptance criteria: one test per criterion, each printing a PASS line.

Criterion 4 cross-checks Monte Carlo against the exact engine over
N <= 10^4.
"""

import hashlib
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from _helpers import dense, histogram, pointwise_distance
from riskdiv.distributions import binomial
from riskdiv.measures import (
    MeasureKind,
    RiskMeasureSpec,
    TvarConvention,
    gaussian_var_approx,
    var_and_tvar,
)
from riskdiv.models import (
    ModelSpec,
    PortfolioParams,
    closed_form_mean_per_policy,
    closed_form_variance_per_policy,
    loss_count_distribution,
)
from riskdiv.montecarlo import SimulationConfig, simulate, tally_var_and_tvar
from riskdiv.pricing import risk_loading_per_policy
from riskdiv.reference import load_errata, load_reference, compare_with_reference
from riskdiv.tables import N_GRID, PT_GRID, PT_LABELS, TableRequest, build_table
from riskdiv.distributions import moments

PARAMS = PortfolioParams()
SEED = 42


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def t2_table():
    return build_table(TableRequest(table_id="T2"))


@pytest.fixture(scope="module")
def t3_table():
    return build_table(TableRequest(table_id="T3"))


@pytest.fixture(scope="module")
def t4_table():
    return build_table(TableRequest(table_id="T4"))


@pytest.fixture(scope="module")
def t5_table():
    return build_table(TableRequest(table_id="T5"))


def loading_cells(table):
    """(measure, row_label, column_label) -> float over loading rows."""
    out = {}
    for row in table.rows:
        if row[0] == "E[L]/N":
            continue
        for col, value in zip(table.headers[2:], row[2:]):
            out[(row[0], row[1], col)] = float(value)
    return out


def test_criterion_01_single_policy_distribution_exact():
    start = time.perf_counter()
    table = build_table(TableRequest(table_id="T1"))
    ref = load_reference("T1")
    cells = 0
    for row in table.rows:
        k = row[0]
        for col, printed in zip(table.headers[1:], row[1:]):
            assert abs(float(printed) - ref[("", k, col)]) <= 0.00005, (k, col)
            cells += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("criterion 1", f"T1: all {cells} cells within ±0.00005 in {elapsed:.2f}s")


def test_criterion_02_iid_loading_table_exact(t2_table):
    start = time.perf_counter()
    report_t2 = compare_with_reference(t2_table, "T2")
    elapsed = time.perf_counter() - start
    loading_count = sum(1 for c in report_t2.cells if c.row_key[0] in ("VaR", "TVaR"))
    assert loading_count == 42
    flagged = report_t2.flagged
    assert len(flagged) <= 1
    assert report_t2.unexpected(load_errata()) == []
    if flagged:
        assert (flagged[0].row_key, flagged[0].col_key) == (("TVaR", "50"), "p=1/4")
    assert elapsed < 10.0
    report("criterion 2", f"T2: 42 cells within ±0.005, {len(flagged)} documented erratum, {elapsed:.1f}s")


def test_criterion_03_common_shock_table_exact(t3_table):
    start = time.perf_counter()
    report_t3 = compare_with_reference(t3_table, "T3")
    elapsed = time.perf_counter() - start
    loading_count = sum(1 for c in report_t3.cells if c.row_key[0] in ("VaR", "TVaR"))
    assert loading_count == 70
    assert len(report_t3.flagged) <= 2
    assert report_t3.unexpected(load_errata()) == []
    cells = loading_cells(t3_table)
    for N in ("50", "100", "1000", "10000"):
        assert cells[("TVaR", N, "pt=0.01")] == pytest.approx(2.970, abs=1e-9)
    assert elapsed < 30.0
    report(
        "criterion 3",
        f"T3: 70 cells within ±0.005 with {len(report_t3.flagged)} documented errata; "
        f"TVaR plateau reads 2.970 at N=50..10000; {elapsed:.1f}s",
    )


def _mc_cross_check_cell(model, N, sims, seed):
    """MC loadings and bootstrap SEs for both measures from one histogram."""
    cfg = SimulationConfig(num_sims=sims, seed=seed)
    hist = simulate(model, N, PARAMS.exposures, cfg)
    expected = closed_form_mean_per_policy(model, PARAMS)

    def loadings(h):
        rhos = dict(zip((MeasureKind.VAR, MeasureKind.TVAR),
                        tally_var_and_tvar(h, 0.99, TvarConvention.TAIL_AVERAGE)))
        return {kind: PARAMS.capital_cost * (PARAMS.severity * rho / N - expected)
                for kind, rho in rhos.items()}

    point = loadings(hist)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xB007))))
    probs = dense(hist) / float(sims)
    reps = {MeasureKind.VAR: [], MeasureKind.TVAR: []}
    for _ in range(200):
        resampled = histogram(rng.multinomial(sims, probs), sims)
        rep_vals = loadings(resampled)
        for kind in reps:
            reps[kind].append(rep_vals[kind])
    se = {kind: float(np.std(vals, ddof=1)) for kind, vals in reps.items()}
    return point, se


def test_criterion_04_per_exposure_table(t4_table):
    start = time.perf_counter()
    ref = load_reference("T4")
    cells = loading_cells(t4_table)
    errata = {
        (e["measure"], e["row"], e["column"]): e for e in load_errata() if e["table"] == "T4"
    }
    assert len(errata) == 5
    checked = 0
    for key, ref_value in ref.items():
        if key[0] == "E[L]/N":
            continue
        checked += 1
        got = cells[key]
        if key in errata:
            # Published cell carries the closed-form conditional value, not a
            # simulated one; assert we reproduce that interpretation tightly.
            measure, N_label, col = key
            pt = PT_GRID[PT_LABELS.index(col)]
            model = (
                ModelSpec.per_exposure_shock(1 / 6, 0.5, pt) if pt else ModelSpec.iid(1 / 6)
            )
            spec = RiskMeasureSpec(MeasureKind.TVAR, 0.99, TvarConvention.CONDITIONAL)
            conditional = risk_loading_per_policy(model, PARAMS, int(N_label), spec).value
            assert abs(conditional - ref_value) <= 0.01, key
        else:
            assert abs(got - ref_value) <= 0.02, key
    assert checked == 80

    # Monte Carlo against the exact engine, cell by cell.  A correct engine
    # still trips a 3-sigma band occasionally across this many cells (the
    # per-seed chance of at least one exceedance is ~20%), so any cell beyond
    # the band must be confirmed on an independent stream: a real defect is a
    # bias and persists across streams, a fluctuation does not.
    grid_N = [1, 5, 10, 50, 100, 1000, 10_000]
    sims = 1_000_000
    retried = []
    for pt in PT_GRID:
        model = ModelSpec.per_exposure_shock(1 / 6, 0.5, pt) if pt else ModelSpec.iid(1 / 6)
        for N in grid_N:
            point, se = _mc_cross_check_cell(model, N, sims, SEED)
            for kind in (MeasureKind.VAR, MeasureKind.TVAR):
                spec = RiskMeasureSpec(kind, 0.99, TvarConvention.TAIL_AVERAGE)
                exact = risk_loading_per_policy(model, PARAMS, N, spec).value
                slack = max(3 * se[kind], 1e-9)
                if abs(point[kind] - exact) <= slack:
                    continue
                retry_point, retry_se = _mc_cross_check_cell(model, N, sims, SEED + 7919)
                retry_slack = max(3 * retry_se[kind], 1e-9)
                retried.append((pt, N, kind.value))
                assert abs(retry_point[kind] - exact) <= retry_slack, (
                    pt, N, kind, point[kind], retry_point[kind], exact, slack, retry_slack,
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    confirmations = f", {len(retried)} cells confirmed on a second stream" if retried else ""
    report(
        "criterion 4",
        f"T4: 80 exact cells within ±0.02 (5 documented convention cells within "
        f"±0.01 of closed forms); MC at 1e6 paths within 3 bootstrap SEs over "
        f"N<={grid_N[-1]}{confirmations}; {elapsed:.0f}s",
    )


def test_criterion_05_convergence_table(t5_table):
    ref = load_reference("T5")
    cells = loading_cells(t5_table)
    nine = [
        ("VaR", "pt=0.01"),
        ("TVaR", "pt=0.001"),
        ("TVaR", "pt=0.01"),
    ]
    budgets = ("1000000", "10000000", "20000000")
    for measure, col in nine:
        for sims in budgets:
            got = cells[(measure, sims, col)]
            want = ref[(measure, sims, col)]
            assert abs(got - want) <= 0.01, (measure, sims, col, got, want)
    for measure in ("VaR", "TVaR"):
        for col in PT_LABELS:
            values = [cells[(measure, sims, col)] for sims in budgets]
            assert max(values) - min(values) <= 0.02, (measure, col, values)
    report("criterion 5", "T5: nine MC cells within ±0.01 of published values; "
           "per-column spread over budgets <= 0.02")


def test_criterion_06_moment_oracle():
    combos = [
        (p, q, pt)
        for p in (0.1, 1 / 6, 0.25)
        for q in (0.4, 0.5, 0.7)
        for pt in (0.001, 0.02, 0.1)
    ]
    assert len(combos) == 27
    l = PARAMS.severity
    checked = 0
    for p, q, pt in combos:
        models = (
            ModelSpec.iid(p),
            ModelSpec.common_shock(p, q, pt),
            ModelSpec.per_exposure_shock(p, q, pt),
        )
        for N in (1, 10, 100, 1000):
            for model in models:
                d = loss_count_distribution(model, N, PARAMS.exposures)
                mean_c, var_c = moments(d)
                mean = l * mean_c / N
                var = l * l * var_c / (N * N)
                assert mean == pytest.approx(
                    closed_form_mean_per_policy(model, PARAMS), rel=1e-10
                ), (model.kind, p, q, pt, N)
                assert var == pytest.approx(
                    closed_form_variance_per_policy(model, PARAMS, N), rel=1e-10
                ), (model.kind, p, q, pt, N)
                checked += 1
    report("criterion 6", f"moments of {checked} model builds match closed forms to 1e-10")


def test_criterion_07_reduction_properties():
    for p in (0.1, 1 / 6, 0.3):
        for N in (1, 20, 100):
            iid = binomial(N * PARAMS.exposures, p)
            for kind_builder in (ModelSpec.common_shock, ModelSpec.per_exposure_shock):
                no_crisis = kind_builder(p, 0.8, 0.0)
                d = loss_count_distribution(no_crisis, N, PARAMS.exposures)
                assert pointwise_distance(d, iid) <= 1e-14
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    same_prob = kind_builder(p, p, 0.05)
                d = loss_count_distribution(same_prob, N, PARAMS.exposures)
                assert pointwise_distance(d, iid) <= 1e-14
    n, l = PARAMS.exposures, PARAMS.severity
    for p, q, pt, N in [(1 / 6, 0.5, 0.01, 10), (0.1, 0.7, 0.2, 1000), (0.25, 0.4, 0.001, 1)]:
        vc = closed_form_variance_per_policy(ModelSpec.common_shock(p, q, pt), PARAMS, N)
        vp = closed_form_variance_per_policy(ModelSpec.per_exposure_shock(p, q, pt), PARAMS, N)
        want = l * l * n * (n - 1) * (q - p) ** 2 * pt * (1 - pt)
        assert vc - vp == pytest.approx(want, rel=1e-10, abs=1e-10)
    report("criterion 7", "no-crisis and equal-probability reductions collapse to iid "
           "(<=1e-14 pointwise); variance gap identity holds to 1e-10")


def test_criterion_08_gaussian_approximation():
    N = 10_000
    counts = gaussian_var_approx(N, 6, 1 / 6, 0.99)
    approx_loading = PARAMS.capital_cost * (PARAMS.severity * counts / N - 10.0)
    assert approx_loading == pytest.approx(0.032, abs=0.002)
    exact_v = var_and_tvar(binomial(N * 6, 1 / 6), 0.99)[0]
    exact_loading = PARAMS.capital_cost * (PARAMS.severity * exact_v / N - 10.0)
    assert abs(approx_loading - exact_loading) / exact_loading <= 0.10
    report("criterion 8", f"Gaussian loading {approx_loading:.4f} within ±0.002 of 0.032 "
           f"and within 10% of exact {exact_loading:.4f}")


def test_criterion_09_simulation_determinism():
    model = ModelSpec.per_exposure_shock(1 / 6, 0.5, 0.001)
    cfg = SimulationConfig(num_sims=200_000, seed=SEED)
    blob = dense(simulate(model, 100, 6, cfg)).tobytes()
    assert dense(simulate(model, 100, 6, cfg)).tobytes() == blob
    script = (
        "import hashlib\n"
        "from _helpers import dense\n"
        "from riskdiv.models import ModelSpec\n"
        "from riskdiv.montecarlo import SimulationConfig, simulate\n"
        "model = ModelSpec.per_exposure_shock(1 / 6, 0.5, 0.001)\n"
        f"cfg = SimulationConfig(num_sims=200_000, seed={SEED})\n"
        "print(hashlib.sha256(dense(simulate(model, 100, 6, cfg)).tobytes()).hexdigest())\n"
    )
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(str(d) for d in (here.parent / "src", here))
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=path), check=True)
    assert fresh.stdout.strip() == hashlib.sha256(blob).hexdigest()
    report("criterion 9", "200k-path histogram byte-identical on a second call and in a "
           "fresh interpreter")


def test_criterion_10_dominance_and_diversification(t2_table, t3_table, t4_table):
    for table in (t2_table, t3_table, t4_table):
        cells = loading_cells(table)
        labels = {key[1] for key in cells if key[0] == "VaR"}
        for label in labels:
            for col in table.headers[2:]:
                assert cells[("TVaR", label, col)] >= cells[("VaR", label, col)] - 1e-9
    cells = loading_cells(t2_table)
    for measure in ("VaR", "TVaR"):
        for col in t2_table.headers[2:]:
            values = [cells[(measure, str(N), col)] for N in N_GRID]
            assert all(b <= a + 0.005 for a, b in zip(values, values[1:])), (measure, col)
    report("criterion 10", "TVaR >= VaR in every generated cell; iid loadings "
           "nonincreasing in N (tolerance 0.005)")
