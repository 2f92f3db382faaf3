"""Command-line front end.

Subcommands: dist, loading, sweep, table, simulate, verify, converge.  The
flags are three tables: _FLAGS defines each flag once, _COMMANDS names the
flags each subcommand accepts, and _READ_WHEN gives the condition under which
a subcommand reads a flag that it reads only for some inputs.  Giving a flag
whose condition does not hold is a usage error, as are an abbreviated flag,
a count (--N, --exposures, --sims, ...) that is not a positive integer, a
--seed that is not a nonnegative integer, and a float flag outside its
range (a probability outside [0, 1], say).
Exit codes: 0 on success, 1 on verification or computation failure, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

from .measures import MeasureKind, RiskMeasureSpec, TvarConvention
from .models import AMOUNT, LEVEL, PROBABILITY, RATE, ModelKind, ModelSpec, PortfolioParams
from .models import loss_count_distribution
from .montecarlo import DEFAULT_SEED, SimulationConfig, simulate
from .pricing import risk_loading_per_policy
from .tables import (
    DEFAULT_P,
    DEFAULT_Q,
    TABLE_IDS,
    GridSpec,
    Table,
    TableRequest,
    budget_rows,
    build_grid,
    build_table,
    default_model,
    fmt_loading,
    pmf_table,
    render_csv,
    render_json,
)
from .reference import compare_with_reference, load_errata

_MODEL_KINDS = {
    "iid": ModelKind.IID,
    "common": ModelKind.COMMON_SHOCK,
    "crisis": ModelKind.PER_EXPOSURE_SHOCK,
}


def _int_flag(least: int, rule: str):
    """The parser of an integer flag; anything but an integer >= least is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1  # fails the bound
        if value < least:
            raise argparse.ArgumentTypeError(f"must be a {rule} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_flag(1, "positive")
_seed = _int_flag(0, "nonnegative")


def _float_flag(kind: tuple):
    """The parser of a float flag whose value must lie in the library's range kind."""
    rule, holds = kind

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan  # fails every range
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text!r}")
        return value

    return parse


_probability = _float_flag(PROBABILITY)
_level = _float_flag(LEVEL)
_rate = _float_flag(RATE)
_amount = _float_flag(AMOUNT)


def _grid(kind):
    """The parser of a comma-separated list of kind values."""

    def grid(text: str) -> tuple:
        return tuple(kind(x) for x in text.split(","))

    return grid


# Every flag once, with its argparse settings and default.
_FLAGS = {
    "--model": dict(choices=sorted(_MODEL_KINDS), default="iid"),
    "--p": dict(type=_probability, default=DEFAULT_P, help="normal-state loss probability"),
    "--q": dict(type=_probability, default=DEFAULT_Q, help="crisis-state loss probability"),
    "--N": dict(type=_positive_int, default=1, help="number of policies"),
    "--ptilde": dict(type=_probability, default=0.0, help="crisis occurrence probability"),
    "--alpha": dict(type=_level, default=0.99, help="risk measure confidence level"),
    "--eta": dict(type=_rate, default=0.15, help="cost-of-capital rate"),
    "--severity": dict(type=_amount, default=10.0, help="unit loss amount"),
    "--exposures": dict(type=_positive_int, default=6, help="exposures per policy"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(type=Path, default=None, help="output file (default stdout)"),
    "--sims": dict(type=_positive_int, default=1_000_000, help="simulation count"),
    "--seed": dict(type=_seed, default=DEFAULT_SEED),
    "--mc": dict(action="store_true", default=False,
                 help="simulate the loading grids T2-T4 instead of exact"),
    "--measure": dict(choices=("var", "tvar"), default="var"),
    "--convention": dict(choices=tuple(c.value for c in TvarConvention), default="conditional"),
    "--source": dict(choices=("exact", "mc"), default="exact"),
    "--N-grid": dict(type=_grid(_positive_int), default=None),
    "--p-grid": dict(type=_grid(_probability), default=None),
    "--ptilde-grid": dict(type=_grid(_probability), default=None),
    "--sims-list": dict(type=_grid(_positive_int), default=(1_000_000, 10_000_000)),
    "--id": dict(choices=TABLE_IDS + ("all",), default="all"),
}


def _table_request(args, table_id: str, **fields) -> TableRequest:
    """A named table's request, from --mc and the simulation flags."""
    return TableRequest(table_id=table_id, mc=args.mc, sims=args.sims, seed=args.seed, **fields)


def _params(args) -> PortfolioParams:
    return PortfolioParams(
        exposures=args.exposures,
        severity=args.severity,
        capital_cost=args.eta,
        alpha=args.alpha,
    )


def _model(args) -> ModelSpec:
    return default_model(_MODEL_KINDS[args.model], args.p, args.q, args.ptilde)


def _emit(table: Table, args) -> None:
    text = render_csv(table) if args.format == "csv" else render_json(table)
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")


def _cmd_dist(args) -> int:
    d = loss_count_distribution(_model(args), args.N, args.exposures)
    ks = range(d.min_count, d.max_count + 1)
    _emit(pmf_table("dist", d, args.severity, ks, lambda x: f"{x:.12g}"), args)
    return 0


def _cmd_loading(args) -> int:
    model = _model(args)
    params = _params(args)
    spec = RiskMeasureSpec(
        MeasureKind(args.measure), args.alpha, TvarConvention(args.convention)
    )
    source = "exact"
    if args.source == "mc":
        source = SimulationConfig(args.sims, args.seed)
    est = risk_loading_per_policy(model, params, args.N, spec, source)
    line = fmt_loading(est.value)
    if est.standard_error is not None:
        line += f" se={est.standard_error:.4f}"
    print(line)
    return 0


def _cmd_sweep(args) -> int:
    req = TableRequest(
        table_id="custom",
        params=_params(args),
        model_kind=_MODEL_KINDS[args.model],
        p=args.p,
        q=args.q,
        N_grid=args.N_grid,
        p_grid=args.p_grid,
        pt_grid=args.ptilde_grid,
    )
    _emit(build_table(req), args)
    return 0


def _cmd_table(args) -> int:
    _emit(build_table(_table_request(args, args.id, params=_params(args))), args)
    return 0


def _cmd_simulate(args) -> int:
    model = _model(args)
    cfg = SimulationConfig(args.sims, args.seed)
    hist = simulate(model, args.N, args.exposures, cfg)
    rows = [[str(k), str(tally)] for k, tally in hist.nonzero_items()]
    _emit(Table("histogram", ["count", "tally"], rows), args)
    return 0


def _tables(args) -> tuple[str, ...]:
    """The ids a table or verify command builds, in order."""
    return TABLE_IDS if args.id == "all" else (args.id,)


def _cmd_verify(args) -> int:
    errata = load_errata()
    failed = False
    for tid in _tables(args):
        report = compare_with_reference(build_table(_table_request(args, tid)), tid)
        unexpected = report.unexpected(errata)
        simulated = tid == "T5" or (args.mc and tid != "T1")
        stale = [] if simulated else report.stale(errata)
        documented = [c for c in report.flagged if c not in unexpected]
        print(
            f"{tid}: {len(report.cells)} cells, {len(report.flagged)} flagged "
            f"({len(documented)} documented, {len(unexpected)} unexpected)"
        )
        for cell in report.flagged:
            tag = "unexpected" if cell in unexpected else "documented erratum"
            print(
                f"  [{tag}] {cell.row_key[0]} {cell.row_key[1]} {cell.col_key}: "
                f"generated {cell.generated} vs reference {cell.reference} "
                f"(tolerance {cell.tolerance})"
            )
        for e in stale:
            print(
                f"  [stale erratum] {e['measure']} {e['row']} {e['column']}: not flagged, "
                f"so its erratum (ours {e['ours']}, reference {e['reference']}) no longer applies"
            )
        if unexpected or stale:
            failed = True
    return 1 if failed else 0


def _cmd_converge(args) -> int:
    budgets = budget_rows(args.sims_list, args.N, args.seed)
    spec = GridSpec(((args.model, _model(args)),), budgets, "sims", TvarConvention(args.convention))
    grid = build_grid("convergence", spec, _params(args))
    measure = "VaR" if args.measure == "var" else "TVaR"
    rows = [row[1:] for row in grid.rows if row[0] == measure]
    _emit(Table("convergence", ["sims", "loading"], rows), args)
    return 0


# Subcommand -> (handler, help, the flags it accepts, overrides of their _FLAGS settings).
_COMMANDS = {
    "dist": (_cmd_dist, "emit the exact pmf/cdf of a model",
             "--severity --exposures --format --out --model --p --q --N --ptilde", {}),
    "loading": (_cmd_loading, "one risk loading per policy",
                "--alpha --eta --severity --exposures --sims --model --p --q --N --ptilde "
                "--seed --measure --convention --source", {}),
    "sweep": (_cmd_sweep, "loading grid over N and a probability grid",
              "--alpha --eta --severity --exposures --format --out --model --p --q "
              "--N-grid --p-grid --ptilde-grid", {}),
    "table": (_cmd_table, "regenerate a reference table",
              "--alpha --eta --severity --exposures --format --out --sims --seed --mc --id",
              {"--id": dict(choices=TABLE_IDS, required=True)}),
    "simulate": (_cmd_simulate, "simulate a loss histogram",
                 "--exposures --format --out --sims --model --p --q --N --ptilde --seed", {}),
    "verify": (_cmd_verify, "regenerate tables and diff against references",
               "--sims --seed --mc --id", {}),
    "converge": (_cmd_converge, "loading vs simulation budget",
                 "--alpha --eta --severity --exposures --format --out --model --p --q --N "
                 "--ptilde --seed --measure --convention --sims-list",
                 {"--measure": dict(default="tvar"),
                  "--convention": dict(default="tail-average")}),
}


def _builds_t2_t4(args) -> bool:
    return not {"T2", "T3", "T4"}.isdisjoint(_tables(args))


def _mc_applies(args) -> bool:
    return args.mc and _builds_t2_t4(args)


_SHOCK_MODEL = ("with a model other than iid", lambda a: a.model != "iid")

# (subcommand, flag) -> (condition, predicate) for each flag a subcommand
# reads only for some inputs; it reads any other flag it accepts always.
_READ_WHEN = {
    (command, flag): rule
    for commands, flags, rule in (
        ("dist loading simulate converge", "--q --ptilde", _SHOCK_MODEL),
        ("sweep", "--p --q --ptilde-grid", _SHOCK_MODEL),
        ("sweep", "--p-grid", ("with --model iid", lambda a: a.model == "iid")),
        ("loading converge", "--convention", (
            "with --measure tvar", lambda a: a.measure == "tvar")),
        ("loading", "--sims --seed", ("with --source mc", lambda a: a.source == "mc")),
        ("table", "--alpha --eta", ("with an id other than T1", lambda a: a.id != "T1")),
        ("table verify", "--mc", ("with an id among T2-T4", _builds_t2_t4)),
        ("table verify", "--sims", ("with --mc and an id among T2-T4", _mc_applies)),
        ("table verify", "--seed", ("with --id T5, or with --mc and an id among T2-T4",
                                    lambda a: "T5" in _tables(a) or _mc_applies(a))),
    )
    for command in commands.split()
    for flag in flags.split()
}


def _settings(command: str, flag: str) -> dict:
    return {**_FLAGS[flag], **_COMMANDS[command][3].get(flag, {})}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")  # as argparse derives it


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskdiv",
        description="Price insurance portfolios under systemic-risk loss models "
        "and regenerate the reference tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags, _) in _COMMANDS.items():
        # Without abbreviations, so that --N and --sims are never read as
        # --N-grid and --sims-list.
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for flag in flags.split():
            # Left unset when not given, so _check_flags can tell given flags apart.
            p.add_argument(flag, **{**_settings(command, flag), "default": argparse.SUPPRESS})
    return parser


def _check_flags(parser: argparse.ArgumentParser, args) -> None:
    """Fill in the defaults of flags not given; reject given flags the command will not read."""
    flags = _COMMANDS[args.command][2].split()
    given = [flag for flag in flags if hasattr(args, _dest(flag))]
    for flag in flags:
        if flag not in given:
            setattr(args, _dest(flag), _settings(args.command, flag)["default"])
    unread = []
    for flag in given:
        condition, reads = _READ_WHEN.get((args.command, flag), ("", lambda a: True))
        if not reads(args):
            unread.append(f"{args.command}: {flag} is read only {condition}")
    if unread:
        parser.error("; ".join(unread))


def _show_warning(message, *_) -> None:
    """Print a warning as one line, without its source path and code."""
    print(f"warning: {message}", file=sys.stderr)


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_flags(parser, args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; pass both through.
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return _COMMANDS[args.command][0](args)
    except (ValueError, OSError) as exc:  # SupportLimitError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
