"""Table generation, formatting, and reference comparison."""

import hashlib
import json
import multiprocessing
from dataclasses import replace

import pytest

from _helpers import record_pools
from riskdiv.distributions import point_mass
from riskdiv.measures import MeasureKind, RiskMeasureSpec, TvarConvention
from riskdiv.models import ModelKind, PortfolioParams
from riskdiv.montecarlo import SimulationConfig, simulate, tally_var_and_tvar
from riskdiv.pricing import price_policy, risk_loading_per_policy
from riskdiv import reference
from riskdiv.reference import (
    TableParseError,
    compare_with_reference,
    load_errata,
    load_reference,
)
from riskdiv.tables import (
    PT_GRID,
    PT_LABELS,
    Table,
    TableRequest,
    _half_up,
    build_table,
    default_model,
    fmt_loading,
    grid_spec,
    pmf_table,
    render_csv,
    render_json,
)

_MEASURES = ((MeasureKind.VAR, "VaR"), (MeasureKind.TVAR, "TVaR"))


def _cells(table):
    """Loading cells keyed (measure label, row label, column label)."""
    return {
        (row[0], row[1], col): cell
        for row in table.rows if row[0] in ("VaR", "TVaR")
        for col, cell in zip(table.headers[2:], row[2:])
    }


class TestFormatting:
    def test_half_up_rounding(self):
        assert fmt_loading(2.5485) == "2.549"
        assert fmt_loading(0.0325) == "0.033"
        assert fmt_loading(1.0004) == "1.000"
        assert fmt_loading(3.0) == "3.000"

    def test_every_place_count_rounds_half_up(self):
        assert _half_up(0.125, 2) == "0.13"
        assert _half_up(0.000125, 5) == "0.00013"
        assert _half_up(1.0, 5) == "1.00000"

    def test_no_thousands_separators(self):
        table = build_table(TableRequest(table_id="T2"))
        text = render_csv(table)
        assert "'" not in text and " " not in text.replace(", ", ",")


class TestPmfTable:
    def test_counts_off_the_support_have_pmf_zero(self):
        table = pmf_table("x", point_mass(2), 2.5, range(4), str)
        assert table.headers == ["k", "policy_loss", "pmf", "cdf"]
        assert table.rows == [["0", "0", "0.0", "0.0"], ["1", "2.5", "0.0", "0.0"],
                              ["2", "5", "1.0", "1.0"], ["3", "7.5", "0.0", "1.0"]]


class TestT1:
    def test_reference_row(self):
        table = build_table(TableRequest(table_id="T1"))
        assert table.headers == ["k", "policy_loss", "pmf", "cdf"]
        assert table.rows[1] == ["1", "10", "0.40188", "0.73678"]

    def test_comparison_clean(self):
        report = compare_with_reference(build_table(TableRequest(table_id="T1")), "T1")
        assert len(report.flagged) == 0
        assert len(report.cells) == 21  # 7 rows x (loss, pmf, cdf)


class TestT2:
    def test_reference_row(self):
        table = build_table(TableRequest(table_id="T2"))
        row = next(r for r in table.rows if r[0] == "VaR" and r[1] == "10000")
        assert row[2:] == ["0.032", "0.037", "0.043"]

    def test_footer(self):
        table = build_table(TableRequest(table_id="T2"))
        assert table.rows[-1] == ["E[L]/N", "", "10.00", "15.00", "30.00"]

    def test_only_documented_erratum_flagged(self):
        report = compare_with_reference(build_table(TableRequest(table_id="T2")), "T2")
        assert [(c.row_key, c.col_key) for c in report.flagged] == [(("TVaR", "50"), "p=1/4")]
        assert report.unexpected(load_errata()) == []


class TestCustomSweep:
    def test_no_crisis_column_matches_iid_table(self):
        t2 = build_table(TableRequest(table_id="T2"))
        sweep = build_table(
            TableRequest(
                table_id="custom",
                model_kind=ModelKind.COMMON_SHOCK,
                pt_grid=(0.0, 0.001),
            )
        )
        iid_col = {(r[0], r[1]): r[2] for r in t2.rows}  # p=1/6 column
        for row in sweep.rows:
            assert row[2] == iid_col[(row[0], row[1])]

    def test_iid_sweep_shape(self):
        sweep = build_table(
            TableRequest(table_id="custom", model_kind=ModelKind.IID, N_grid=(1, 5), p_grid=(0.2,))
        )
        assert sweep.headers == ["measure", "N", "p=0.2"]
        assert len(sweep.rows) == 5  # 2 measures x 2 N + footer


class TestLoadingGrid:
    # sha256 of render_csv for the default requests: a refactor of the table
    # layer must not move a printed byte.
    DIGESTS = {
        "T1": "f45e18f04aa4f321ece0d3e3b6b47073705ffc50c3a08c8fdb47b09a70ebe539",
        "T2": "0aa477a8a7d1bdbcb12c42f9d04b8856d3865a6b394060d0164441226a9b5d53",
        "T3": "f94fd9d8b52c4a6b5d5bab8a2bbefa3665f285d35f1afbb2c45ce6cfe18e4056",
        "T4": "2ee2501c8fd52665e89fec8eefb1b1616eb7796686e4858ba2dfe29a33b17df8",
    }

    @pytest.mark.parametrize("table_id", sorted(DIGESTS))
    def test_exact_tables_byte_identical(self, table_id):
        text = render_csv(build_table(TableRequest(table_id=table_id)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.DIGESTS[table_id]

    def test_t3_cells_equal_single_loadings(self):
        # N=1 and N=10000 include the pt=1% cells decided by the exact
        # plateau search.
        req = TableRequest(table_id="T3", N_grid=(1, 100, 10000))
        cells = _cells(build_table(req))
        params = PortfolioParams()
        for label, pt in zip(PT_LABELS, PT_GRID):
            model = default_model(ModelKind.COMMON_SHOCK, req.p, req.q, pt)
            for N in req.N_grid:
                for mk, mlabel in _MEASURES:
                    spec = RiskMeasureSpec(mk, params.alpha, TvarConvention.CONDITIONAL)
                    value = risk_loading_per_policy(model, params, N, spec).value
                    assert cells[(mlabel, str(N), label)] == fmt_loading(value)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_t4_mc_cells_equal_single_loadings(self, workers):
        req = TableRequest(table_id="T4", mc=True, sims=20_000, block_size=5_000,
                           N_grid=(1, 10), workers=workers)
        cells = _cells(build_table(req))
        params = PortfolioParams()
        config = SimulationConfig(req.sims, req.seed, req.block_size)
        for label, pt in zip(PT_LABELS, PT_GRID):
            model = default_model(ModelKind.PER_EXPOSURE_SHOCK, req.p, req.q, pt)
            for N in req.N_grid:
                for mk, mlabel in _MEASURES:
                    spec = RiskMeasureSpec(mk, params.alpha, TvarConvention.TAIL_AVERAGE)
                    quote = price_policy(model, params, N, spec, source=config)
                    value = quote.risk_loading_per_policy
                    assert cells[(mlabel, str(N), label)] == fmt_loading(value)

    @pytest.mark.parametrize("table_id", ["T3", "T4", "T5"])
    def test_every_shock_table_honours_pt_grid(self, table_id):
        spec = grid_spec(TableRequest(table_id=table_id, pt_grid=(0.02,)))
        assert [label for label, _ in spec.columns] == ["pt=0.02"]

    def test_n_grid_and_mc_apply_to_t2(self):
        spec = grid_spec(TableRequest(table_id="T2", N_grid=(3,), mc=True, sims=1000))
        assert [(label, N) for label, N, _ in spec.rows] == [("3", 3)]
        assert spec.rows[0][2] == SimulationConfig(1000)

    def test_t5_rows_are_budgets_at_n_100(self):
        spec = grid_spec(TableRequest(table_id="T5", sims_grid=(1000, 2000), seed=3))
        assert spec.row_header == "sims"
        assert spec.rows == (("1000", 100, SimulationConfig(1000, 3)),
                             ("2000", 100, SimulationConfig(2000, 3)))
        assert spec.convention is TvarConvention.TAIL_AVERAGE

    @pytest.mark.parametrize("workers", [1, 2])
    def test_t5_draws_each_column_once(self, monkeypatch, workers):
        # All budgets share the run to the largest; 1,500 adds block 1 cut
        # to 500 paths.  Every cell equals a single loading at its own budget.
        import riskdiv.tables as tables

        runs = []

        def recording(model, N, n, config, workers=1, checkpoints=None, pool=None):
            runs.append((config.num_sims, list(checkpoints)))
            return simulate(model, N, n, config, workers, checkpoints, pool=pool)

        monkeypatch.setattr(tables, "simulate", recording)
        req = TableRequest(table_id="T5", pt_grid=(0.0, 0.05), sims_grid=(2000, 4000, 1500, 2000),
                           block_size=1000, seed=3, workers=workers)
        cells = _cells(build_table(req))
        assert runs == [(4000, [1500, 2000, 4000])] * 2
        params = PortfolioParams()
        for label, pt in zip(("pt=0", "pt=0.05"), req.pt_grid):
            model = default_model(ModelKind.PER_EXPOSURE_SHOCK, req.p, req.q, pt)
            for sims in req.sims_grid:
                config = SimulationConfig(sims, req.seed, req.block_size)
                for mk, mlabel in _MEASURES:
                    spec = RiskMeasureSpec(mk, params.alpha, TvarConvention.TAIL_AVERAGE)
                    quote = price_policy(model, params, 100, spec, source=config)
                    value = quote.risk_loading_per_policy
                    assert cells[(mlabel, str(sims), label)] == fmt_loading(value)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each process pool started, through the real class."""
    import riskdiv.montecarlo as mc

    sizes = []

    class CountedPool(mc.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", CountedPool)
    # Pool sizes here follow from workers and blocks, not from this machine.
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 64)
    return sizes


class TestGridPool:
    """A loading grid draws all its simulated blocks on one pool it owns."""

    T4_MC = TableRequest(table_id="T4", mc=True, sims=4_000, block_size=1_000, N_grid=(1, 10))

    def test_t4_mc_starts_one_pool(self, pool_sizes):
        parallel = build_table(replace(self.T4_MC, workers=2))
        assert pool_sizes == [2]
        serial = build_table(self.T4_MC)
        assert pool_sizes == [2]
        assert parallel.rows == serial.rows

    def test_t5_starts_one_pool(self, pool_sizes):
        req = TableRequest(table_id="T5", pt_grid=(0.0, 0.05), sims_grid=(2000, 1500),
                           block_size=1000, seed=3)
        parallel = build_table(replace(req, workers=2))
        assert pool_sizes == [2]
        assert parallel.rows == build_table(req).rows

    def test_pool_sized_by_the_largest_run(self, monkeypatch):
        # The runs are drawn one after another, each on at most its 4 blocks.
        sizes = record_pools(monkeypatch, cpus=64)
        parallel = build_table(replace(self.T4_MC, workers=8))
        assert sizes == [4]
        assert parallel.rows == build_table(self.T4_MC).rows

    def test_grid_without_pooled_blocks_starts_no_pool(self, pool_sizes):
        build_table(TableRequest(table_id="T3", N_grid=(1, 10), workers=2))
        # Each run is one block, which is drawn in this process.
        single = replace(self.T4_MC, sims=1_000, workers=2)
        assert build_table(single).rows == build_table(replace(single, workers=1)).rows
        assert pool_sizes == []

    def test_no_worker_outlives_the_grid(self, monkeypatch):
        import riskdiv.tables as tables

        req = replace(self.T4_MC, workers=2)
        build_table(req)
        assert multiprocessing.active_children() == []

        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("tally failed")
            return tally_var_and_tvar(*args, **kwargs)

        monkeypatch.setattr(tables, "tally_var_and_tvar", failing)
        with pytest.raises(RuntimeError, match="tally failed"):
            build_table(req)
        assert len(calls) == 2
        assert multiprocessing.active_children() == []


class TestRoundTrip:
    def test_csv_reparses_to_printed_values(self, tmp_path):
        table = build_table(TableRequest(table_id="T2"))
        path = tmp_path / "t2.csv"
        path.write_text(render_csv(table), encoding="utf-8")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(table.headers)
        for line, row in zip(lines[1:], table.rows):
            assert line == ",".join(row)
            for printed in row[2:]:
                if printed:
                    assert float(printed) == pytest.approx(float(printed))

    def test_json_objects_keyed_by_headers(self):
        table = build_table(TableRequest(table_id="T1"))
        objs = json.loads(render_json(table))
        assert len(objs) == len(table.rows)
        assert all(list(o.keys()) == table.headers for o in objs)


class TestComparison:
    def test_injected_fault_flags_exactly_that_cell(self):
        table = build_table(TableRequest(table_id="T1"))
        rows = [list(r) for r in table.rows]
        rows[2][2] = "0.19094"  # perturb pmf at k=2 by 0.01
        report = compare_with_reference(Table("T1", table.headers, rows), "T1")
        assert [(c.row_key, c.col_key) for c in report.flagged] == [(("", "2"), "pmf")]

    def test_every_reference_cell_appears_once(self):
        report = compare_with_reference(build_table(TableRequest(table_id="T2")), "T2")
        keys = [(c.row_key, c.col_key) for c in report.cells]
        assert len(keys) == len(set(keys)) == len(load_reference("T2"))

    def test_missing_cell_raises(self):
        table = build_table(TableRequest(table_id="T2"))
        broken = Table("T2", table.headers, table.rows[:3])
        with pytest.raises(KeyError):
            compare_with_reference(broken, "T2")

    def test_malformed_csv_location(self, monkeypatch):
        monkeypatch.setattr(reference, "_reference_text",
                            lambda tid: "measure,N,p=1/6\nVaR,1,not-a-number\n")
        with pytest.raises(TableParseError) as err:
            load_reference("T2")
        assert "row 1" in str(err.value) and "p=1/6" in str(err.value)
        generated = Table("T2", ["measure", "N", "p=1/6"], [["VaR", "1", "not-a-number"]])
        with pytest.raises(TableParseError) as err:
            compare_with_reference(generated, "T2")
        assert "row 1" in str(err.value) and "p=1/6" in str(err.value)

    def test_ragged_row_rejected(self, monkeypatch):
        monkeypatch.setattr(reference, "_reference_text", lambda tid: "measure,N,p=1/6\nVaR,1\n")
        with pytest.raises(TableParseError):
            load_reference("T2")


class TestErrata:
    def test_registry_shape(self):
        errata = load_errata()
        assert len(errata) == 8
        for entry in errata:
            assert {"table", "measure", "row", "column", "reference", "ours", "reason"} <= set(entry)

    def test_t4_flags_are_all_documented(self):
        report = compare_with_reference(build_table(TableRequest(table_id="T4")), "T4")
        assert len(report.flagged) == 5
        assert report.unexpected(load_errata()) == []

    def test_undocumented_flag_is_unexpected(self):
        # A perturbed cell outside the registry must surface as unexpected;
        # nothing but the registry may suppress a flag.
        table = build_table(TableRequest(table_id="T2"))
        rows = [list(r) for r in table.rows]
        assert rows[0][:2] == ["VaR", "1"]
        rows[0][2] = "9.999"
        report = compare_with_reference(Table("T2", table.headers, rows), "T2")
        unexpected = report.unexpected(load_errata())
        assert [(c.row_key, c.col_key) for c in unexpected] == [(("VaR", "1"), "p=1/6")]

    def test_stale_erratum(self):
        # An erratum for a cell that matches its reference is stale; it is
        # reported apart from the unexpected flags.
        report = compare_with_reference(build_table(TableRequest(table_id="T2")), "T2")
        extra = {"table": "T2", "measure": "VaR", "row": "1", "column": "p=1/6",
                 "reference": 3.0, "ours": 3.0, "reason": "test"}
        errata = load_errata()
        assert report.stale(errata) == []
        assert report.stale(errata + [extra]) == [extra]
        assert report.unexpected(errata + [extra]) == []

    def test_verify_is_deterministic(self):
        first = compare_with_reference(build_table(TableRequest(table_id="T2")), "T2")
        second = compare_with_reference(build_table(TableRequest(table_id="T2")), "T2")
        assert first.cells == second.cells
