"""Command-line front end.

Subcommands: dist, loading, sweep, table, simulate, verify, converge.
table and verify build their TableRequest the same way, from --mc and the
simulation flags; sweep fills in a custom request from the model and grid
flags.  Exit codes: 0 on success, 1 on verification or computation failure,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .measures import MeasureKind, RiskMeasureSpec, TvarConvention
from .models import ModelKind, ModelSpec, PortfolioParams
from .montecarlo import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_SEED,
    SimulationConfig,
    convergence_study,
    simulate,
)
from .pricing import risk_loading_per_policy
from .tables import (
    DEFAULT_P,
    DEFAULT_Q,
    TABLE_IDS,
    Table,
    TableRequest,
    build_table,
    fmt_loading,
    render_csv,
    render_json,
    write_table,
)
from .reference import compare_with_reference, load_errata

_MODEL_KINDS = {
    "iid": ModelKind.IID,
    "common": ModelKind.COMMON_SHOCK,
    "crisis": ModelKind.PER_EXPOSURE_SHOCK,
}


# Flags shared by several subcommands; each subcommand adds only those it reads.
_SHARED_FLAGS = {
    "alpha": dict(type=float, default=0.99, help="risk measure confidence level"),
    "eta": dict(type=float, default=0.15, help="cost-of-capital rate"),
    "severity": dict(type=float, default=10.0, help="unit loss amount"),
    "exposures": dict(type=int, default=6, help="exposures per policy"),
    "format": dict(choices=("csv", "json"), default="csv", dest="fmt"),
    "out": dict(type=Path, default=None, help="output file (default stdout)"),
    "sims": dict(type=int, default=1_000_000, help="simulation count"),
}
_PRICING = ("alpha", "eta", "severity", "exposures")
_OUTPUT = ("format", "out")


def _shared_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=sorted(_MODEL_KINDS), default="iid")
    parser.add_argument("--p", type=float, default=DEFAULT_P, help="normal-state loss probability")
    parser.add_argument("--q", type=float, default=DEFAULT_Q, help="crisis-state loss probability")


def _portfolio_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--N", type=int, default=1, help="number of policies")
    parser.add_argument("--ptilde", type=float, default=0.0, help="crisis occurrence probability")


def _sim_flags(parser: argparse.ArgumentParser) -> None:
    """Seed, block layout and workers; the budget is --sims or converge's --sims-list."""
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    parser.add_argument("--workers", type=int, default=1)


def _request_flags(parser: argparse.ArgumentParser) -> None:
    _shared_flags(parser, "sims")
    _sim_flags(parser)
    parser.add_argument(
        "--mc", action="store_true", help="simulate the loading grids T2-T4 instead of exact"
    )


def _table_request(args, table_id: str, **fields) -> TableRequest:
    """A named table's request, from --mc and the simulation flags."""
    return TableRequest(
        table_id=table_id,
        mc=args.mc,
        sims=args.sims,
        seed=args.seed,
        block_size=args.block_size,
        workers=args.workers,
        **fields,
    )


def _params(args) -> PortfolioParams:
    return PortfolioParams(
        exposures=args.exposures,
        severity=args.severity,
        capital_cost=args.eta,
        alpha=args.alpha,
    )


def _read_if_given(parser: argparse.ArgumentParser, *dests: str) -> None:
    """Leave dests None unless given; _check_unread_flags fills in the defaults.

    For flags a subcommand reads only for some inputs (see _unread_flags), so
    that giving one it will not read is a usage error.
    """
    defaults = {dest: parser.get_default(dest) for dest in dests}
    parser.set_defaults(given_defaults=defaults, **dict.fromkeys(dests))


# Sweep flags a model has no use for: iid columns come from --p-grid alone.
_SWEEP_UNUSED = {"iid": ("p", "q", "ptilde_grid"), "common": ("p_grid",), "crisis": ("p_grid",)}
# T1 is one policy's distribution: no risk measure, no simulation.
_T1_UNUSED = ("alpha", "eta", "mc", "sims", "seed", "block_size", "workers")


def _unread_flags(args) -> tuple[str, tuple[str, ...]]:
    """The argument that decides it, and the flags the parsed command will not read."""
    if args.command == "table":
        return f"--id {args.id}", _T1_UNUSED if args.id == "T1" else ()
    if args.command == "sweep":
        return f"--model {args.model}", _SWEEP_UNUSED[args.model]
    return f"--model {args.model}", ("q", "ptilde") if args.model == "iid" else ()


def _check_unread_flags(parser: argparse.ArgumentParser, args) -> None:
    """A flag the command does not read is a usage error; the rest get defaults."""
    if not hasattr(args, "given_defaults"):
        return
    given_with, unread = _unread_flags(args)
    for dest, default in args.given_defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif dest in unread:
            flag = "--" + dest.replace("_", "-")
            parser.error(f"{args.command}: {flag} does not apply to {given_with}")


def _model(args) -> ModelSpec:
    kind = _MODEL_KINDS[args.model]
    if kind is ModelKind.IID:
        return ModelSpec.iid(args.p)
    return ModelSpec(kind, args.p, args.q, args.ptilde)


def _emit(table: Table, args) -> None:
    if args.out is not None:
        write_table(table, args.out, args.fmt)
    else:
        sys.stdout.write(render_csv(table) if args.fmt == "csv" else render_json(table))


def _grid(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _int_grid(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _cmd_dist(args) -> int:
    from .models import loss_count_distribution
    from .distributions import cdf_at

    model = _model(args)
    d = loss_count_distribution(model, args.N, args.exposures)
    rows = []
    for i, mass in enumerate(d.masses):
        k = d.min_count + i
        rows.append([str(k), f"{args.severity * k:g}", f"{mass:.12g}", f"{cdf_at(d, k):.12g}"])
    _emit(Table("dist", ["k", "policy_loss", "pmf", "cdf"], rows), args)
    return 0


def _cmd_loading(args) -> int:
    model = _model(args)
    params = _params(args)
    spec = RiskMeasureSpec(
        MeasureKind(args.measure), args.alpha, TvarConvention(args.convention)
    )
    source = "exact"
    if args.source == "mc":
        source = SimulationConfig(args.sims, args.seed, args.block_size)
    est = risk_loading_per_policy(model, params, args.N, spec, source, workers=args.workers)
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
    cfg = SimulationConfig(args.sims, args.seed, args.block_size)
    hist = simulate(model, args.N, args.exposures, cfg, workers=args.workers)
    rows = [[str(k), str(tally)] for k, tally in hist.nonzero_items()]
    _emit(Table("histogram", ["count", "tally"], rows), args)
    return 0


def _cmd_verify(args) -> int:
    ids = TABLE_IDS if args.id == "all" else (args.id,)
    errata = load_errata()
    failed = False
    for tid in ids:
        report = compare_with_reference(build_table(_table_request(args, tid)), tid)
        unexpected = report.unexpected(errata)
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
        if unexpected:
            failed = True
    return 1 if failed else 0


def _cmd_converge(args) -> int:
    model = _model(args)
    params = _params(args)
    spec = RiskMeasureSpec(
        MeasureKind(args.measure), args.alpha, TvarConvention(args.convention)
    )
    study = convergence_study(
        model, args.N, args.exposures, list(args.sims_list), spec, params,
        seed=args.seed, block_size=args.block_size, workers=args.workers,
    )
    rows = [[str(s), fmt_loading(v)] for s, v in study]
    _emit(Table("convergence", ["sims", "loading"], rows), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskdiv",
        description="Price insurance portfolios under systemic-risk loss models "
        "and regenerate the reference tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="emit the exact pmf/cdf of a model")
    _shared_flags(p_dist, "severity", "exposures", *_OUTPUT)
    _model_flags(p_dist)
    _portfolio_flags(p_dist)
    _read_if_given(p_dist, "q", "ptilde")
    p_dist.set_defaults(fn=_cmd_dist)

    p_load = sub.add_parser("loading", help="one risk loading per policy")
    _shared_flags(p_load, *_PRICING, "sims")
    _model_flags(p_load)
    _portfolio_flags(p_load)
    _sim_flags(p_load)
    p_load.add_argument("--measure", choices=("var", "tvar"), default="var")
    p_load.add_argument(
        "--convention", choices=tuple(c.value for c in TvarConvention), default="conditional"
    )
    p_load.add_argument("--source", choices=("exact", "mc"), default="exact")
    _read_if_given(p_load, "q", "ptilde")
    p_load.set_defaults(fn=_cmd_loading)

    # Without abbreviations, so the single-portfolio flags --N and --ptilde
    # are rejected rather than read as --N-grid and --ptilde-grid.
    p_sweep = sub.add_parser(
        "sweep", help="loading grid over N and a probability grid", allow_abbrev=False
    )
    _shared_flags(p_sweep, *_PRICING, *_OUTPUT)
    _model_flags(p_sweep)
    p_sweep.add_argument("--N-grid", type=_int_grid, default=None, dest="N_grid")
    p_sweep.add_argument("--p-grid", type=_grid, default=None, dest="p_grid")
    p_sweep.add_argument("--ptilde-grid", type=_grid, default=None, dest="ptilde_grid")
    _read_if_given(p_sweep, "p", "q", "p_grid", "ptilde_grid")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_table = sub.add_parser("table", help="regenerate a reference table")
    _shared_flags(p_table, *_PRICING, *_OUTPUT)
    _request_flags(p_table)
    p_table.add_argument("--id", choices=TABLE_IDS, required=True)
    _read_if_given(p_table, *_T1_UNUSED)
    p_table.set_defaults(fn=_cmd_table)

    p_sim = sub.add_parser("simulate", help="simulate a loss histogram")
    _shared_flags(p_sim, "exposures", *_OUTPUT, "sims")
    _model_flags(p_sim)
    _portfolio_flags(p_sim)
    _sim_flags(p_sim)
    _read_if_given(p_sim, "q", "ptilde")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_verify = sub.add_parser("verify", help="regenerate tables and diff against references")
    _request_flags(p_verify)
    p_verify.add_argument("--id", choices=TABLE_IDS + ("all",), default="all")
    p_verify.set_defaults(fn=_cmd_verify)

    # Without abbreviations, so --sims is rejected rather than read as --sims-list.
    p_conv = sub.add_parser("converge", help="loading vs simulation budget", allow_abbrev=False)
    _shared_flags(p_conv, *_PRICING, *_OUTPUT)
    _model_flags(p_conv)
    _portfolio_flags(p_conv)
    _sim_flags(p_conv)
    p_conv.add_argument("--measure", choices=("var", "tvar"), default="tvar")
    p_conv.add_argument(
        "--convention", choices=tuple(c.value for c in TvarConvention), default="tail-average"
    )
    p_conv.add_argument(
        "--sims-list", type=_int_grid, default=(1_000_000, 10_000_000), dest="sims_list"
    )
    _read_if_given(p_conv, "q", "ptilde")
    p_conv.set_defaults(fn=_cmd_converge)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_unread_flags(parser, args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; pass both through.
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # SupportLimitError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
