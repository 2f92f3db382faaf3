"""Table generation, formatting, and reference comparison."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdiv.distributions import point_mass
from riskdiv.measures import MeasureKind, RiskMeasureSpec, TvarConvention
from riskdiv.models import ModelKind, PortfolioParams
from riskdiv.cli import cli_main
from riskdiv.montecarlo import SimulationConfig
from riskdiv.pricing import price_policy, risk_loading_per_policy
from riskdiv import models, reference
from riskdiv.reference import (
    TableParseError,
    compare_with_reference,
    load_errata,
    load_reference,
)
from riskdiv.tables import (
    PT_GRID,
    PT_LABELS,
    SIMS_GRID,
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

    def test_fraction_rounds_exactly(self):
        # 1.0515 is a tie exactly; a float near it is not.
        assert fmt_loading(Fraction(10515, 10000)) == "1.052"
        assert fmt_loading(Fraction(10515, 10000) - Fraction(1, 10**30)) == "1.051"
        assert fmt_loading(Fraction(-10515, 10000)) == "-1.052"
        assert fmt_loading(Fraction(-1, 10**6)) == _half_up(-1e-6, 3) == "-0.000"
        assert fmt_loading(Fraction(3)) == "3.000"
        assert _half_up(Fraction(1, 8), 2) == "0.13"

    @settings(max_examples=300, deadline=None)
    @given(num=st.integers(-10**12, 10**12), den=st.integers(1, 10**9),
           places=st.integers(0, 6))
    def test_fraction_rounds_to_nearest_ties_away_from_zero(self, num, den, places):
        x = Fraction(num, den)
        printed = _half_up(x, places)
        assert printed.count(".") == (places > 0) and len(printed.partition(".")[2]) == places
        half = Fraction(1, 2 * 10**places)
        if x >= 0:
            assert x - half < Fraction(printed) <= x + half
        else:
            assert x - half <= Fraction(printed) < x + half

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

    # `calls` builds the table again in one process: a warm second build
    # must print the same cells.
    @pytest.mark.parametrize("calls", [1, 2])
    def test_t4_mc_cells_equal_single_loadings(self, calls):
        req = TableRequest(table_id="T4", mc=True, sims=20_000, N_grid=(1, 10))
        built = [build_table(req) for _ in range(calls)]
        assert all(t.rows == built[0].rows for t in built)
        cells = _cells(built[-1])
        params = PortfolioParams()
        config = SimulationConfig(req.sims, req.seed)
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

    # `calls` builds T5 again in one process and prints the same cells.
    @pytest.mark.parametrize("calls", [1, 2])
    def test_t5_draws_each_column_once(self, monkeypatch, calls):
        # One draw per budget, and each draw reads its crisis-state terms
        # from the memo of state_terms: 15 lookups per build, one per cell.
        import riskdiv.montecarlo as mc

        draws, laws = [], []
        draw_block, state_terms = mc._draw_block, mc.state_terms

        def recording_draw(model, N, n, seed, size):
            draws.append(size)
            return draw_block(model, N, n, seed, size)

        def recording_law(model, N, n):
            laws.append(model)
            return state_terms(model, N, n)

        monkeypatch.setattr(mc, "_draw_block", recording_draw)
        monkeypatch.setattr(mc, "state_terms", recording_law)
        built = [build_table(TableRequest(table_id="T5")) for _ in range(calls)]
        assert all(t.rows == built[0].rows for t in built)
        assert draws == list(SIMS_GRID) * len(PT_GRID) * calls
        assert len(laws) == len(SIMS_GRID) * len(PT_GRID) * calls
        # converge is one such column: one lookup per budget.
        laws.clear()
        argv = "converge --model crisis --N 100 --ptilde 0.05 --sims-list 2000,4000,1500,2000"
        assert cli_main(argv.split()) == 0
        assert len(laws) == 4

    def test_t5_cells_equal_single_loadings(self):
        # Unsorted and repeated budgets alike: every cell equals a single
        # loading at its own budget.
        req = TableRequest(table_id="T5", pt_grid=(0.0, 0.05), sims_grid=(2000, 4000, 1500, 2000),
                           seed=3)
        cells = _cells(build_table(req))
        params = PortfolioParams()
        for label, pt in zip(("pt=0", "pt=0.05"), req.pt_grid):
            model = default_model(ModelKind.PER_EXPOSURE_SHOCK, req.p, req.q, pt)
            for sims in req.sims_grid:
                config = SimulationConfig(sims, req.seed)
                for mk, mlabel in _MEASURES:
                    spec = RiskMeasureSpec(mk, params.alpha, TvarConvention.TAIL_AVERAGE)
                    quote = price_policy(model, params, 100, spec, source=config)
                    value = quote.risk_loading_per_policy
                    assert cells[(mlabel, str(sims), label)] == fmt_loading(value)


class TestStateTermMemo:
    """Each crisis state's term is built once per process (models._state_term)."""

    T4 = TableRequest(table_id="T4")
    T4_MC = TableRequest(table_id="T4", mc=True, sims=200_000)

    def test_t4_builds_each_term_once(self, monkeypatch):
        # A T4 column holds 8 N x 7 states: per N, the j = 0 and j = 6 terms
        # are one binomial each and j = 1..5 two binomials and a convolution.
        calls = []
        for name in ("binomial", "convolve"):
            fn = getattr(models, name)
            monkeypatch.setattr(models, name,
                                lambda *args, name=name, fn=fn: calls.append(name) or fn(*args))
        models._state_term.cache_clear()
        made = []
        for req in (self.T4, self.T4, self.T4_MC):
            calls.clear()
            build_table(req)
            made.append((calls.count("binomial"), calls.count("convolve")))
        # Warm: a second exact build, and a simulated one, read the same terms.
        assert made == [(96, 40), (0, 0), (0, 0)]

    def test_a_warm_memo_changes_no_byte(self):
        reqs = (TableRequest(table_id="T3"), self.T4, self.T4_MC, TableRequest(table_id="T5"))
        cold = []
        for req in reqs:
            models._state_term.cache_clear()
            cold.append(render_csv(build_table(req)))
        models._state_term.cache_clear()
        warm = [render_csv(build_table(req)) for req in reqs]
        assert warm == cold


class TestSeedSweep:
    """Simulated T5 cells against the exact engine over many seeds."""

    def test_t5_budgets_within_the_gate_of_exact(self):
        # The gate is 0.02 plus one VaR count step, capital_cost * severity / N.
        params, N, sims_grid = PortfolioParams(), 100, (250_000, 1_000_000, 2_000_000)
        gate = 0.02 + params.capital_cost * params.severity / N
        exact = {}
        for label, pt in zip(PT_LABELS, PT_GRID):
            model = default_model(ModelKind.PER_EXPOSURE_SHOCK, 1 / 6, 0.5, pt)
            for mk, mlabel in _MEASURES:
                spec = RiskMeasureSpec(mk, params.alpha, TvarConvention.TAIL_AVERAGE)
                exact[mlabel, label] = risk_loading_per_policy(model, params, N, spec).value
        shares = []
        for seed in range(60):
            table = build_table(TableRequest(table_id="T5", sims_grid=sims_grid, seed=seed))
            shares += [(abs(float(cell) - exact[mlabel, label]) / gate, seed, mlabel, sims, label)
                       for (mlabel, sims, label), cell in _cells(table).items()]
        assert max(shares)[0] <= 1.0, max(shares)


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
