"""Command-line interface: subcommands, formats, exit codes."""

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from riskdiv.cli import _COMMANDS, _READ_WHEN, build_parser, cli_main
from riskdiv.tables import DEFAULT_Q, TableRequest, build_table


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLoading:
    def test_prints_reference_value(self, capsys):
        code, out, _ = run(capsys, "loading", "--model", "iid", "--N", "1",
                           "--p", "0.1667", "--measure", "var")
        assert code == 0
        assert out.strip() == "3.000"

    def test_tvar_convention_flag(self, capsys):
        code, out, _ = run(capsys, "loading", "--model", "iid", "--N", "1",
                           "--p", "0.1667", "--measure", "tvar",
                           "--convention", "tail-average")
        assert code == 0
        assert float(out) > 3.0

    def test_mc_source_reports_standard_error(self, capsys):
        code, out, _ = run(capsys, "loading", "--model", "iid", "--N", "10",
                           "--measure", "var", "--source", "mc",
                           "--sims", "20000", "--seed", "3")
        assert code == 0
        assert "se=" in out

    def test_point_mass_crisis_decides_the_plateau(self, capsys):
        # A common shock with q = 1 mixes a point mass at N*n = 30 into the
        # normal state.  The exact cdf at 25 is 0.99 * P[Bin(30, 1/6) <= 25],
        # below 0.99, so VaR is 30: 0.15 * (10 * 30 / 5 - 10.5) = 7.425.
        code, out, _ = run(capsys, "loading", "--model", "common", "--q", "1",
                           "--ptilde", "0.01", "--N", "5", "--measure", "var")
        assert code == 0
        assert out.strip() == "7.425"

    # sha256 of the stdout, taken when each budget became one histogram drawn
    # over the law of j: 199 or 201 bootstrap replicates, or another bootstrap
    # stream, print a different standard error.
    MC_DIGEST = "b72bbfa6173f7230302fb591b5d37572aadb6dd7b1f666fadc6e8ce1a2450828"

    # A second call in the same process, on warm caches, prints the same bytes.
    @pytest.mark.parametrize("calls", [1, 2])
    def test_mc_source_pinned_output(self, capsys, calls):
        for _ in range(calls):
            code, out, _ = run(capsys, "loading", "--model", "crisis", "--N", "10",
                               "--ptilde", "0.01", "--measure", "tvar",
                               "--convention", "tail-average", "--source", "mc",
                               "--sims", "2000", "--seed", "7")
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == self.MC_DIGEST


class TestTableAndVerify:
    def test_table_then_verify_clean(self, capsys, tmp_path):
        out_file = tmp_path / "t1.csv"
        code, _, _ = run(capsys, "table", "--id", "T1", "--out", str(out_file))
        assert code == 0 and out_file.exists()
        code, out, _ = run(capsys, "verify", "--id", "T1")
        assert code == 0
        assert "0 unexpected" in out

    def test_verify_documents_known_erratum(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "T2")
        assert code == 0
        assert "documented erratum" in out

    def test_verify_fails_on_unexpected_flag(self, capsys, monkeypatch):
        import riskdiv.cli as cli
        from riskdiv.tables import Table, build_table, TableRequest

        real = build_table(TableRequest(table_id="T2"))
        rows = [list(r) for r in real.rows]
        rows[0][2] = "9.999"

        monkeypatch.setattr(cli, "build_table", lambda req: Table("T2", real.headers, rows))
        code, out, _ = run(capsys, "verify", "--id", "T2")
        assert code == 1
        assert "unexpected" in out

    def test_verify_pins_each_erratum_to_its_value(self, capsys, monkeypatch):
        # An erratum documents the value its cell is expected to have; a
        # flagged cell that moved away from it is a regression, not an erratum.
        import riskdiv.cli as cli
        from riskdiv.reference import load_errata

        errata = load_errata()
        moved = [dict(e, ours=0.9) if e["table"] == "T2" else e for e in errata]
        monkeypatch.setattr(cli, "load_errata", lambda: moved)
        code, out, _ = run(capsys, "verify", "--id", "T2")
        assert code == 1
        assert "(0 documented, 1 unexpected)" in out
        assert "[unexpected] TVaR 50 p=1/4: generated 0.607 vs reference 0.707" in out

    def test_verify_fails_on_stale_erratum(self, capsys, monkeypatch):
        # An erratum whose cell matches its reference no longer documents
        # anything: on an exact build it fails verify.
        import riskdiv.cli as cli
        from riskdiv.reference import load_errata

        stale = {"table": "T2", "measure": "VaR", "row": "1", "column": "p=1/6",
                 "reference": 3.0, "ours": 3.0, "reason": "test"}
        monkeypatch.setattr(cli, "load_errata", lambda: load_errata() + [stale])
        code, out, _ = run(capsys, "verify", "--id", "T2")
        assert code == 1
        assert "(1 documented, 0 unexpected)" in out
        assert "[stale erratum] VaR 1 p=1/6: not flagged" in out

    def test_simulated_build_skips_stale_check(self, capsys, monkeypatch):
        # A simulated cell may land within tolerance of its reference by
        # chance, so an --mc build does not call its erratum stale.
        import riskdiv.cli as cli
        from riskdiv.reference import load_errata

        stale = {"table": "T2", "measure": "VaR", "row": "1", "column": "p=1/6",
                 "reference": 3.0, "ours": 3.0, "reason": "test"}
        monkeypatch.setattr(cli, "load_errata", lambda: load_errata() + [stale])
        _, out, _ = run(capsys, "verify", "--id", "T2", "--mc", "--sims", "200000")
        assert out.startswith("T2: 45 cells")
        assert "VaR 1 p=1/6" not in out  # the erratum's cell matches its reference
        assert "stale" not in out

    @pytest.mark.parametrize("command", ["table", "verify"])
    def test_mc_and_sim_flags_reach_the_request(self, capsys, monkeypatch, command):
        import riskdiv.cli as cli

        seen = []

        def capture(req):
            seen.append(req)
            raise ValueError("request captured")

        monkeypatch.setattr(cli, "build_table", capture)
        code, _, err = run(capsys, command, "--id", "T4", "--mc", "--sims", "3000",
                           "--seed", "9")
        assert code == 1 and "request captured" in err
        assert [(r.table_id, r.mc, r.sims, r.seed) for r in seen] == [("T4", True, 3000, 9)]

    @pytest.mark.parametrize("flag", [
        ("--alpha", "0.5"), ("--eta", "0.2"), ("--severity", "5"), ("--expense", "0.1"),
        ("--exposures", "3"), ("--format", "json"), ("--out", "x.csv"),
    ])
    def test_verify_rejects_table_parameter_flags(self, capsys, tmp_path, monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "verify", "--id", "T1", *flag)
        assert code == 2 and flag[0] in err
        assert not (tmp_path / "x.csv").exists()

    # sha256 of the stdout, taken when blocks became histograms drawn over
    # the law of j.
    T3_MC_DIGEST = "a37d734de1d2df015501f4a19275759d4d1cea6cc6317f2951f0da36b01054bc"

    def test_t3_mc_pinned_output(self, capsys):
        code, out, _ = run(capsys, "table", "--id", "T3", "--mc", "--sims", "100000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.T3_MC_DIGEST

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "--id", "T1", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["pmf"] == "0.33490"


class TestSweep:
    def test_iid_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--model", "iid", "--N-grid", "1,5", "--p-grid", "0.2")
        assert code == 0
        assert out.splitlines()[0] == "measure,N,p=0.2"
        assert len(out.splitlines()) == 6  # header, 2 measures x 2 N, footer

    @pytest.mark.parametrize("argv", [
        ("--model", "common", "--p-grid", "0.2"),
        ("--model", "crisis", "--p-grid", "0.2"),
        ("--model", "iid", "--ptilde-grid", "0.01"),
        ("--model", "iid", "--p", "0.3"),
        ("--model", "iid", "--q", "0.9"),
        ("--model", "iid", "--p", "0.3", "--q", "0.9", "--N-grid", "1"),
    ])
    def test_grid_the_model_does_not_use_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 2 and out == ""
        assert argv[2] in err

    @pytest.mark.parametrize("flag", [("--N", "10"), ("--ptilde", "0.01")])
    def test_single_portfolio_flags_rejected(self, capsys, flag):
        assert run(capsys, "sweep", "--model", "common", *flag)[0] == 2

    def test_shock_model_reads_p_and_q(self, capsys):
        argv = ("sweep", "--model", "common", "--N-grid", "10", "--ptilde-grid", "0.05")
        _, default, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--p", "0.2", "--q", "0.6")
        assert code == 0 and out != default


# Flags a subcommand does not read; each is a usage error.
_UNREAD_FLAGS = [
    (command, ("--expense", "0.3"))
    for command in ("dist", "loading", "sweep", "table", "simulate", "converge")
] + [
    ("dist", ("--alpha", "0.5")), ("dist", ("--eta", "0.2")),
    ("simulate", ("--alpha", "0.5")), ("simulate", ("--eta", "0.2")),
    ("simulate", ("--severity", "5")),
    ("loading", ("--format", "json")), ("loading", ("--out", "x.csv")),
    ("converge", ("--sims", "20000")),
] + [
    # The iid model reads neither the crisis loss probability nor its chance.
    (command, flag)
    for command in ("dist", "loading", "simulate", "converge")
    for flag in (("--q", "0.9"), ("--ptilde", "0.3"))
] + [
    # T1 is one policy's distribution: no risk measure, no simulation.
    ("table", flag)
    for flag in (
        ("--alpha", "0.5"), ("--eta", "0.2"), ("--mc",), ("--sims", "20000"),
        ("--seed", "3"), ("--seed", "3", "--mc"), ("--sims", "20000", "--mc"),
    )
] + [
    # Flags read only with --source mc, and a convention read only with TVaR.
    ("loading", flag)
    for flag in (("--sims", "5"), ("--seed", "3"), ("--seed", "3", "--source", "exact"),
                 ("--sims", "5", "--source", "exact"), ("--convention", "tail-average"))
] + [
    ("converge", ("--convention", "conditional", "--measure", "var")),
    # An --id after the flag replaces the base one.  Exact T2-T4 and T1 read
    # no simulation flag; T5 is simulated whatever --mc says, at its own budgets.
    ("table", ("--mc", "--id", "T5")), ("table", ("--sims", "5", "--id", "T5")),
] + [
    (command, (*flag, *id_args))
    for command, id_args in (("table", ("--id", "T2")), ("verify", ()), ("verify", ("--id", "T2")))
    # Each simulation flag alone, then both, in either order.
    for flag in (("--sims", "5"), ("--seed", "3"), ("--sims", "5", "--seed", "3"),
                 ("--seed", "3", "--sims", "5"))
] + [("verify", ("--mc",))]
_BASE_ARGS = {"table": ("--id", "T1"), "verify": ("--id", "T1")} | dict.fromkeys(
    ("dist", "loading", "simulate", "converge"), ("--model", "iid")
)


@pytest.mark.parametrize("command,flag", _UNREAD_FLAGS)
def test_subcommand_rejects_flags_it_does_not_read(capsys, tmp_path, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, *_BASE_ARGS.get(command, ()), *flag)
    assert code == 2 and out == "" and flag[0] in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["loading", "table", "simulate", "verify", "converge"])
def test_workers_flag_is_gone(capsys, command):
    # Blocks are drawn in one process: --workers is an unknown flag like any other.
    code, out, err = run(capsys, command, *_BASE_ARGS[command], "--workers", "2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --workers 2" in err


@pytest.mark.parametrize("command", ["loading", "table", "simulate", "verify", "converge"])
def test_block_size_flag_is_gone(capsys, command):
    # A budget is one draw: --block-size is an unknown flag like any other.
    code, out, err = run(capsys, command, *_BASE_ARGS[command], "--block-size", "1000")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --block-size 1000" in err


# A shock-model run of each command that reads --q and --ptilde.
_SHOCK_RUNS = {
    "dist": (),
    "loading": (),
    "simulate": ("--sims", "20000"),
    "converge": ("--sims-list", "20000"),
}


@pytest.mark.parametrize("command", sorted(_SHOCK_RUNS))
def test_shock_model_defaults_q_and_ptilde(capsys, command):
    base = (command, "--model", "common", "--N", "2", *_SHOCK_RUNS[command])
    shocked = run(capsys, *base, "--ptilde", "0.1")
    assert shocked[0] == 0 and shocked[1]
    assert run(capsys, *base, "--ptilde", "0.1", "--q", repr(DEFAULT_Q)) == shocked
    assert run(capsys, *base) == run(capsys, *base, "--ptilde", "0.0")


def test_every_unread_flag_is_named_with_its_condition(capsys):
    code, out, err = run(capsys, "table", "--id", "T2", "--sims", "5", "--seed", "3")
    assert code == 2 and out == ""
    for flag in ("--sims", "--seed"):
        assert f"table: {flag} is read only {_READ_WHEN['table', flag][0]}" in err
    assert "table: --sims is read only with --mc and an id among T2-T4" in err


@pytest.mark.parametrize("argv,expected", [
    (("verify", "--seed", "3"), {"seed": 3}),  # T5 reads it
    (("verify", "--mc", "--sims", "5"), {"mc": True, "sims": 5}),
    (("table", "--id", "T5", "--seed", "3"), {"seed": 3}),
])
def test_flag_read_for_the_tables_built_is_accepted(capsys, monkeypatch, argv, expected):
    import riskdiv.cli as cli

    seen = []

    def capture(req):
        seen.append(req)
        raise ValueError("request captured")

    monkeypatch.setattr(cli, "build_table", capture)
    code, _, err = run(capsys, *argv)
    assert code == 1 and "request captured" in err
    assert {name: getattr(seen[0], name) for name in expected} == expected


def test_loading_reads_sim_flags_with_mc_source(capsys):
    code, out, _ = run(capsys, "loading", "--model", "iid", "--N", "1", "--source", "mc",
                       "--sims", "5", "--seed", "3")
    assert code == 0 and "se=" in out


@pytest.mark.parametrize("argv", [
    ("loading", "--model", "iid", "--N", "0"),
    ("sweep", "--model", "iid", "--N-grid", "0,1"),
    ("dist", "--exposures", "0"),
    ("simulate", "--sims", "0"),
    ("simulate", "--N", "0"),
    ("simulate", "--sims", "-3"),
    ("loading", "--model", "iid", "--source", "mc", "--sims", "0"),
    ("converge", "--sims-list", "0"),
    ("converge", "--sims-list", ""),
])
def test_count_flags_must_be_positive(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert argv[-2] in err and "positive integer" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    ("loading --p -0.1", "--p: must lie in [0, 1], got '-0.1'"),
    ("loading --model common --q 1.5", "--q: must lie in [0, 1], got '1.5'"),
    ("simulate --model crisis --ptilde nan",
     "--ptilde: must lie in [0, 1], got 'nan'"),
    ("sweep --model iid --p-grid 0.1,nan", "--p-grid: must lie in [0, 1], got 'nan'"),
    ("sweep --model crisis --ptilde-grid 0,2",
     "--ptilde-grid: must lie in [0, 1], got '2'"),
    ("loading --alpha 1", "--alpha: must lie in (0, 1), got '1'"),
    ("converge --alpha 0", "--alpha: must lie in (0, 1), got '0'"),
    ("table --id T2 --eta inf", "--eta: must be finite and >= 0, got 'inf'"),
    ("loading --eta=-0.5", "--eta: must be finite and >= 0, got '-0.5'"),
    ("dist --severity 0", "--severity: must be positive and finite, got '0'"),
    ("loading --severity=-inf", "--severity: must be positive and finite, got '-inf'"),
    ("sweep --severity x", "--severity: must be positive and finite, got 'x'"),
])
def test_float_flags_must_lie_in_range(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert f"argument {message}" in err


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("argv", [
    "loading --p 0 --alpha 0.5 --eta 0",
    "loading --model common --p 1 --q 1 --ptilde 1",
    "sweep --model crisis --ptilde-grid 0,1 --N-grid 1",
])
def test_float_flags_accept_their_bounds(capsys, argv):
    code, _, err = run(capsys, *argv.split())
    assert code == 0, err


def test_warnings_print_one_line_each(capsys):
    code, _, err = run(capsys, "dist", "--model", "common", "--ptilde", "1", "--N", "3")
    assert code == 0
    assert err == "warning: crisis_prob > 0.5: crises are the majority state\n"


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_subcommand_has_help(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0 and f"riskdiv {command}" in out


def _readme_flag_table() -> dict[str, tuple[set[str], dict[str, str]]]:
    """Subcommand -> (its flags, {flag: condition}) from the README's CLI table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| subcommand | flags | read only when |") + 2
    rows = {}
    for line in itertools.takewhile(lambda l: l.startswith("|"), lines[start:]):
        command, flags, read_when = (c.strip().strip("`") for c in line.strip("|").split("|"))
        conditions = {}
        for part in read_when.split("; "):
            part_flags, condition = part.split(": ", 1)
            conditions |= dict.fromkeys(part_flags.strip("`").split(), condition)
        rows[command] = (set(flags.split()), conditions)
    return rows


def test_readme_flag_table_matches_the_parser():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    rows = _readme_flag_table()
    assert set(rows) == set(subparsers) == set(_COMMANDS)
    for command, (flags, conditions) in rows.items():
        accepted = {s for a in subparsers[command]._actions for s in a.option_strings}
        assert flags == accepted - {"-h", "--help"}, command
        assert conditions == {
            flag: rule[0] for (cmd, flag), rule in _READ_WHEN.items() if cmd == command
        }, command


def test_python_m_riskdiv_runs_the_cli(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "riskdiv", "table", "--id", "T1"],
        capture_output=True, env=env, check=False,
    )
    code, out, _ = run(capsys, "table", "--id", "T1")
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()


class TestSimulate:
    # sha256 of the stdout at --N 50 --sims 30000 --seed 5, taken when each
    # budget became one histogram drawn over the law of j.  Either shock at
    # pt=0 draws the iid stream: a sure j = 0 draws no j.
    SIM_DIGESTS = {
        "iid": "88cff34733ad3756ad2d9acecb511212fbed375df31d3940626d328c7bb05c5b",
        "common 0": "88cff34733ad3756ad2d9acecb511212fbed375df31d3940626d328c7bb05c5b",
        "common 0.05": "06c15f698075f954249c8deea1bbe59b68f6d22e5bc32781c85d54ee6a27df61",
        "common 1": "039c72ce9b636c4fd8efc077eaea11bc1a16355c2a023a94824123e340f16b15",
        "crisis 0": "88cff34733ad3756ad2d9acecb511212fbed375df31d3940626d328c7bb05c5b",
        "crisis 0.05": "d734fc722fa33953b93c9b44338d31be08d370a74722a28599745a45bc2c5b75",
    }

    @pytest.mark.filterwarnings("ignore:crisis_prob > 0.5")
    @pytest.mark.parametrize("calls", [1, 2])  # a repeat call in one process too
    @pytest.mark.parametrize("model", sorted(SIM_DIGESTS))
    def test_pinned_output(self, capsys, model, calls):
        kind, *pt = model.split()
        argv = ["--model", kind] + (["--ptilde", pt[0]] if pt else [])
        for _ in range(calls):
            code, out, _ = run(capsys, "simulate", *argv, "--N", "50", "--sims", "30000",
                               "--seed", "5")
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == self.SIM_DIGESTS[model]

    def test_histogram_totals(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "iid", "--N", "2",
                           "--sims", "5000", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert sum(int(line.split(",")[1]) for line in lines) == 5000


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", ["table --id T2", "dist --model common --N 5 --ptilde 0.01"])
def test_out_file_holds_the_printed_bytes(capsys, tmp_path, argv, fmt):
    argv = argv.split() + ["--format", fmt]
    code, printed, _ = run(capsys, *argv)
    path = tmp_path / f"out.{fmt}"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert code == 0
    assert path.read_bytes() == printed.encode()


class TestDist:
    def test_emits_pmf_rows(self, capsys):
        code, out, _ = run(capsys, "dist", "--model", "common", "--N", "1",
                           "--ptilde", "0.01")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,policy_loss,pmf,cdf"
        assert len(lines) == 8
        assert abs(sum(float(l.split(",")[2]) for l in lines[1:]) - 1.0) < 1e-9


class TestManyExposures:
    # Past about 1030 exposures comb(n, j) exceeds a float, which the weights
    # of crisis rounds never form.  sha256 of the stdout, taken before the
    # models became laws of crisis rounds (the per-exposure shock at pt=0
    # failed there and now prints the iid bytes), and for simulate when each
    # budget became one histogram drawn over the law of j.
    IID_DIST = "0aae29dd5f8c594425033b95e148ad805b295e7d310fd47c677a82acd61aaa25"
    DIGESTS = {
        "dist --model iid --N 1 --exposures 2000": IID_DIST,
        "dist --model crisis --N 1 --exposures 2000 --ptilde 0": IID_DIST,
        "loading --model iid --N 1 --exposures 2000":
            "e57319e5e41dcfc4d2825511ddb7bcd8903e8ba77b971d2a19734b949f87cebf",
        "simulate --model crisis --N 1 --exposures 1100 --ptilde 0.01 --sims 5000": "9808ec4dbb7b147877d4445339140c2e358d2cea09c4b1bf5e5d285a1b8b37f8",
    }

    @pytest.mark.parametrize("argv", sorted(DIGESTS))
    def test_pinned_output(self, capsys, argv):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[argv]

    def test_per_exposure_weights_past_comb_overflow_work(self, capsys):
        # comb(2000, 1000) exceeds a float; the weights are binomial's pmf kernel.
        code, out, err = run(capsys, "dist", "--model", "crisis", "--N", "1",
                             "--exposures", "2000", "--ptilde", "0.01")
        assert code == 0 and err == ""
        assert abs(sum(float(line.split(",")[2]) for line in out.splitlines()[1:]) - 1) < 1e-9


class TestConverge:
    def test_rows_per_budget(self, capsys):
        code, out, _ = run(capsys, "converge", "--model", "crisis", "--N", "20",
                           "--ptilde", "0.01", "--measure", "tvar",
                           "--sims-list", "20000,40000", "--seed", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sims,loading"
        assert [l.split(",")[0] for l in lines[1:]] == ["20000", "40000"]

    # sha256 of the stdout of converge before it was built through build_grid.
    # The digests of simulated TVaR and of some VaR rows changed when blocks
    # became histograms drawn over the law of j, and those of budgets past
    # their block size when each budget became one draw.
    @pytest.mark.parametrize("argv,digest", [
        ("--model crisis --N 20 --ptilde 0.01 --sims-list 20000,40000 --seed 5",
         "6664dfb80a58f5b4c06679c91d42b0847cff9ee24fcb7fe117fc05a25aa5cf26"),
        ("--model crisis --N 20 --ptilde 0.01 --measure var --sims-list 20000,40000,40000,10000 "
         "--seed 5",
         "daf0841579ecb3e7bc031c786f9d5793e4dc8ef22112579daab7a14b5606210d"),
        ("--model common --N 50 --ptilde 0.05 --measure tvar --convention conditional "
         "--sims-list 30000,60000",
         "e42af78414a9ac8d107d243a73dae730b2099d474541f1b8cda334f8cd7afca1"),
        ("--model iid --N 10 --p 0.25 --measure var --sims-list 5000 --format json",
         "ba8aa24ecb06e2b432e43c7f5faa23e34c8c025b3ed9e8aa1c0fa3f286fc95b7"),
        ("--model crisis --N 100 --ptilde 0 --sims-list 20000 --alpha 0.95 --eta 0.2 "
         "--severity 3 --exposures 4",
         "803bf6e0edb21228c99705b90bbcad89c5cf8009e13331ec088455fb1a53a925"),
        ("--model common --N 1 --ptilde 0.3 --q 0.9 --measure tvar --sims-list 1000,2000",
         "26d35ba916895edcf319f6fe63162155c94da72fbc70147cd75a79b91a1c501b"),
        ("--model crisis --N 20 --ptilde 0.01 --convention conditional --sims-list 4000,2000 "
         "--seed 5",
         "77d430cef9d4885b098de5f8116adf70ab8e43d57863da5241553c4b3088aed9"),
        ("--model crisis --N 20 --ptilde 0.01 --measure var --sims-list 4000,2000 "
         "--seed 5",
         "5250b8beed00343e17e7cd4a251a4c28dd8000eac85d1def53b6e060a4208cda"),
        ("--model crisis --N 20 --ptilde 0.01 --convention conditional --sims-list 2000,2000 "
         "--seed 5",
         "40aaf0a9d2aedf60f1de4c02a77ca996c242b66cddfb0aa1277ab51a2de33493"),
        ("--model crisis --N 20 --ptilde 0.01 --sims-list 1500,3000 --seed 5",
         "db76bd875e81e087969cf2c64d83c3bbdd3189aefc270669cdb5f163c68ebb8d"),
        ("--model crisis --N 20 --ptilde 0.01 --measure var --sims-list 3000,1000,2500,2000 "
         "--seed 5",
         "ba34b73dafe2c0cb6963360d4a63acf948d7a1c3d8d23195e2617abed36a2dda"),
    ])
    def test_pinned_output(self, capsys, argv, digest):
        code, out, _ = run(capsys, "converge", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # The first seed, counting from 0, at which a row of the budget shape
    # is a half-unit tie.
    TIE_SEEDS = {
        "--sims-list 20000,40000": 3,
        "--sims-list 4000,2000": 1,
        "--sims-list 2000,2000": 3,
    }

    @pytest.mark.parametrize("budgets,lines", [
        ("--sims-list 20000,40000", ["20000,1.052", "40000,1.029"]),
        ("--sims-list 4000,2000", ["4000,0.938", "2000,0.911"]),
        ("--sims-list 2000,2000", ["2000,0.983", "2000,0.983"]),
    ])
    def test_half_unit_ties_round_up(self, capsys, budgets, lines):
        # The tail-average TVaR at 20,000 paths (seed 3) is 1721/50, at 4,000
        # (seed 1) 329/10 and at 2,000 (seed 3) 67/2, with alpha the decimal
        # 0.99.  With p = 1/6 the loadings 0.15 * (TVaR/2 - 10.2) are the ties
        # 1.0515, 0.9375 and 0.9825; with p the typed decimal
        # 0.16666666666666666, E[L] is 4e-16 lower and they sit 6e-17 above.
        # Either way they print rounded up.  The float loading of the binary
        # alpha printed 1.051 for the first.
        code, out, _ = run(capsys, "converge", "--model", "crisis", "--N", "20",
                           "--ptilde", "0.01", "--seed", str(self.TIE_SEEDS[budgets]),
                           *budgets.split())
        assert code == 0
        assert out.splitlines()[1:] == lines

    def test_is_one_column_of_t5(self, capsys):
        code, out, _ = run(capsys, "converge", "--model", "crisis", "--N", "100",
                           "--ptilde", "0.01", "--sims-list", "20000,40000", "--seed", "3")
        t5 = build_table(TableRequest("T5", pt_grid=(0.01,), sims_grid=(20000, 40000), seed=3))
        assert code == 0
        assert out.splitlines()[1:] == [",".join(r[1:]) for r in t5.rows if r[0] == "TVaR"]
        assert out.splitlines()[1:] == ["20000,0.733", "40000,0.729"]


class TestErrors:
    def test_unknown_flag_exits_2(self, capsys):
        assert run(capsys, "loading", "--bogus")[0] == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_subcommand_exits_2(self, capsys):
        assert run(capsys)[0] == 2

    def test_support_guard_reported(self, capsys, monkeypatch):
        monkeypatch.setenv("RISKDIV_MAX_SUPPORT", "50")
        code, _, err = run(capsys, "dist", "--model", "iid", "--N", "100")
        assert code == 1
        assert "600" in err and "50" in err

    @pytest.mark.parametrize("argv", [
        "dist --N 50",
        "simulate --N 50 --sims 10",
        "loading --N 50 --source mc --sims 10",
    ])
    def test_support_guard_covers_the_simulator(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("RISKDIV_MAX_SUPPORT", "100")
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err == "error: support of 300 counts (N=50, n=6) exceeds the limit 100\n"

    @pytest.mark.parametrize("value", ["0", "-5", "abc"])
    def test_bad_support_limit_reported(self, capsys, monkeypatch, value):
        monkeypatch.setenv("RISKDIV_MAX_SUPPORT", value)
        code, out, err = run(capsys, "dist", "--model", "iid", "--N", "1")
        assert code == 1 and out == ""
        assert "RISKDIV_MAX_SUPPORT must be a positive integer" in err

    @pytest.mark.parametrize("argv", [
        "table --id T2 --eta nan",
        "loading --model iid --N 1 --severity inf",
        "dist --model iid --N 1 --severity nan",
    ])
    def test_non_finite_economics_reported(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert f"argument {argv.split()[-2]}: must be " in err

    @pytest.mark.parametrize("argv", [
        "loading --model iid --N 1 --eta 1e308 --severity 1e308",
        "table --id T2 --eta 1e308 --severity 1e308",
    ])
    def test_non_finite_result_reported(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == ""
        assert err.startswith("error:") and "not finite" in err

    @pytest.mark.parametrize("command", ["simulate", "loading --source mc"])
    def test_tally_bound_reported(self, capsys, command):
        # One path past (2**63 - 1) // 600 at N=100, n=6: the int64 tallies
        # would overflow, so nothing is drawn.
        sims = (2**63 - 1) // 600 + 1
        code, out, err = run(capsys, *command.split(), "--N", "100", "--sims", str(sims))
        assert (code, out) == (1, "")
        assert err == (f"error: num_sims * N * n = {sims} * 100 * 6 exceeds 2**63 - 1, "
                       "past which the int64 tallies overflow\n")

    def test_negative_seed_reported(self, capsys):
        code, out, err = run(capsys, "simulate", "--model", "iid", "--N", "2",
                             "--sims", "10", "--seed", "-1")
        assert code == 1 and out == ""
        assert "error: seed must be >= 0, got -1" in err

    def test_bad_probability_reported(self, capsys):
        code, _, err = run(capsys, "loading", "--model", "iid", "--N", "1", "--p", "1.5")
        assert code == 2
        assert "argument --p: must lie in [0, 1], got '1.5'" in err
