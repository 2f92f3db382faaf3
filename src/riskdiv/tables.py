"""The five reference tables and custom parameter sweeps.

T1 is the pmf and cdf of one policy.  T2-T5 and custom sweeps are loading
grids: a GridSpec filled in from the TableRequest, built by build_grid, which
reads VaR and TVaR by one quantile search over the crisis states' terms per
exact cell, and off the integer tallies of one histogram per simulated cell.
A simulated cell's loading is the exact rational of its tallies, so its
printed digits are decided exactly.

Closed-form tables (T1, T2, T3) use the conditional tail convention, which is
what the published closed-form values print.  The simulation tables (T4, T5)
use the tail-average convention: it is what sorting simulated losses and
averaging the worst slice computes, and the published simulated cells match
it.  Loading grids are exact by default; the mc request field simulates them
instead, which is how the published T4 was produced.  T5 is always simulated.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .distributions import DiscreteLossDistribution, cdf_at
from .measures import TvarConvention
from .models import (
    ModelKind,
    ModelSpec,
    PortfolioParams,
    closed_form_mean_per_policy,
    loss_count_distribution,
)
from .montecarlo import (
    DEFAULT_SEED,
    SimulationConfig,
    loading_from_rho,
    measures_in_counts,
)

__all__ = [
    "Table",
    "TableRequest",
    "GridSpec",
    "N_GRID",
    "N_GRID_T4",
    "P_GRID",
    "PT_GRID",
    "SIMS_GRID",
    "TABLE_IDS",
    "default_model",
    "budget_rows",
    "grid_spec",
    "build_grid",
    "build_table",
    "pmf_table",
    "render_csv",
    "render_json",
    "fmt_loading",
]

TABLE_IDS = ("T1", "T2", "T3", "T4", "T5")

N_GRID = (1, 5, 10, 50, 100, 1000, 10000)
N_GRID_T4 = N_GRID + (100000,)
P_GRID = (1.0 / 6.0, 0.25, 0.5)
P_LABELS = ("p=1/6", "p=1/4", "p=1/2")
PT_GRID = (0.0, 0.001, 0.01, 0.05, 0.10)
PT_LABELS = tuple(f"pt={pt:g}" for pt in PT_GRID)
SIMS_GRID = (1_000_000, 10_000_000, 20_000_000)
T5_N = 100

# Model kind of each loading table's columns; custom sweeps name their own.
_TABLE_KINDS = {
    "T2": ModelKind.IID,
    "T3": ModelKind.COMMON_SHOCK,
    "T4": ModelKind.PER_EXPOSURE_SHOCK,
    "T5": ModelKind.PER_EXPOSURE_SHOCK,
}

# Probabilities of the published case study: fair-game normal state, coin-flip
# crisis state.
DEFAULT_P = 1.0 / 6.0
DEFAULT_Q = 0.5


@dataclass
class Table:
    table_id: str
    headers: list[str]
    rows: list[list[str]]


@dataclass(frozen=True)
class TableRequest:
    """What to generate: a named table or a custom sweep, plus overrides.

    A grid field means the same for every table that has its axis; see
    grid_spec for which tables have which.
    """

    table_id: str = "custom"
    params: PortfolioParams = field(default_factory=PortfolioParams)
    model_kind: ModelKind = ModelKind.COMMON_SHOCK
    p: float = DEFAULT_P
    q: float = DEFAULT_Q
    N_grid: tuple[int, ...] | None = None
    p_grid: tuple[float, ...] | None = None
    pt_grid: tuple[float, ...] | None = None
    sims_grid: tuple[int, ...] | None = None
    mc: bool = False
    sims: int = 10_000_000
    seed: int = DEFAULT_SEED
    # Accepted and never read: perfbench/workloads.py still passes them (ROADMAP,
    # "In-package spans, `verify --json`, one quote path").
    block_size: int = 250_000
    workers: int = 1

    def __post_init__(self):
        if self.table_id not in TABLE_IDS + ("custom",):
            raise ValueError(f"unknown table id {self.table_id!r}")


def _half_up(x: float | Fraction, places: int) -> str:
    """x to places decimals, ties away from zero: the one rounding rule of the tables.

    A float is rounded as the decimal its repr prints, a Fraction exactly,
    so a zero of either sign prints unsigned.
    """
    if not isinstance(x, Fraction):
        x = Fraction(repr(float(x)))
    units = math.floor(abs(x) * 10**places + Fraction(1, 2))
    return str(Decimal((int(x < 0), tuple(map(int, str(units))), -places)))


def fmt_loading(x: float | Fraction) -> str:
    """Loadings print to 3 decimals, half-up."""
    return _half_up(x, 3)


def default_model(kind: ModelKind, p: float, q: float, pt: float) -> ModelSpec:
    if kind is ModelKind.IID or pt == 0.0:
        # A shock model with no crisis occurrence is the iid model; building
        # it as such also avoids the soft parameter warnings.
        return ModelSpec.iid(p)
    return ModelSpec(kind, p, q, pt)


def pmf_table(table_id: str, d: DiscreteLossDistribution, severity: float, ks: range,
              fmt: Callable[[float], str]) -> Table:
    """Loss, pmf and cdf of d at each count in ks, probabilities printed by fmt."""
    pmf = dict(enumerate(d.masses.tolist(), d.min_count))  # 0 off the support
    rows = [[str(k), f"{severity * k:g}", fmt(pmf.get(k, 0.0)), fmt(cdf_at(d, k))] for k in ks]
    return Table(table_id, ["k", "policy_loss", "pmf", "cdf"], rows)


def build_t1(params: PortfolioParams, p: float = DEFAULT_P) -> Table:
    """Loss distribution of a single policy: pmf and cdf per count."""
    d = loss_count_distribution(ModelSpec.iid(p), 1, params.exposures)
    return pmf_table("T1", d, params.severity, range(params.exposures + 1),
                     lambda x: _half_up(x, 5))


@dataclass(frozen=True)
class GridSpec:
    """A loading table: one column per model, one row per portfolio and source.

    Attributes:
        columns: (label, model) pairs.
        rows: (label, N, source) triples; source is "exact" or a
            SimulationConfig.
        row_header: header of the row-label column ("N" or "sims").
        convention: TVaR convention of the TVaR rows.
    """

    columns: tuple[tuple[str, ModelSpec], ...]
    rows: tuple[tuple[str, int, str | SimulationConfig], ...]
    row_header: str
    convention: TvarConvention


def budget_rows(
    sims_grid: tuple[int, ...], N: int, seed: int
) -> tuple[tuple[str, int, SimulationConfig], ...]:
    """GridSpec rows of simulation budgets at one N: the rows of T5 and converge."""
    return tuple((str(sims), N, SimulationConfig(sims, seed)) for sims in sims_grid)


def grid_spec(req: TableRequest) -> GridSpec:
    """The loading grid of T2-T5 or of a custom sweep.

    T2 has iid columns over p_grid, T3 common-shock and T4/T5 per-exposure
    shock columns over pt_grid; a custom sweep takes the model kind from the
    request.  Per-exposure shock grids use the tail-average convention of the
    simulation tables, the others the conditional one.  Rows run over N_grid,
    exact or, with mc set, simulated; T5 rows are instead the simulation
    budgets of sims_grid at N=100.
    """
    kind = _TABLE_KINDS.get(req.table_id, req.model_kind)
    if kind is ModelKind.IID:
        p_grid = req.p_grid or P_GRID
        labels = P_LABELS if req.table_id == "T2" and req.p_grid is None else [
            f"p={p:g}" for p in p_grid
        ]
        columns = [(lbl, ModelSpec.iid(p)) for lbl, p in zip(labels, p_grid)]
    else:
        columns = [
            (f"pt={pt:g}", default_model(kind, req.p, req.q, pt)) for pt in req.pt_grid or PT_GRID
        ]
    if req.table_id == "T5":
        rows = budget_rows(req.sims_grid or SIMS_GRID, T5_N, req.seed)
        row_header = "sims"
    else:
        source = SimulationConfig(req.sims, req.seed) if req.mc else "exact"
        N_grid = req.N_grid or (N_GRID_T4 if req.table_id == "T4" else N_GRID)
        rows = [(str(N), N, source) for N in N_grid]
        row_header = "N"
    convention = (
        TvarConvention.TAIL_AVERAGE
        if kind is ModelKind.PER_EXPOSURE_SHOCK
        else TvarConvention.CONDITIONAL
    )
    return GridSpec(tuple(columns), tuple(rows), row_header, convention)


def build_grid(table_id: str, spec: GridSpec, params: PortfolioParams) -> Table:
    """VaR rows, TVaR rows and an E[L]/N footer.

    Each cell reads VaR and TVaR off one evaluation (measures_in_counts):
    one quantile search over the crisis states' terms if exact, one
    histogram if simulated.  Both read each crisis state's term from models.state_terms,
    which builds it once per process, so the columns of a grid and its exact
    and simulated builds share their terms.
    """
    n, alpha = params.exposures, params.alpha

    def loadings(N: int, source, model: ModelSpec) -> list[float | Fraction]:
        rhos = measures_in_counts(model, N, n, alpha, spec.convention, source)
        return [loading_from_rho(rho, model, params, N) for rho in rhos]

    columns = [[loadings(N, source, m) for _, N, source in spec.rows] for _, m in spec.columns]
    table_rows = [
        [mlabel, row_label] + [fmt_loading(column[r][i]) for column in columns]
        for i, mlabel in enumerate(("VaR", "TVaR"))
        for r, (row_label, _, _) in enumerate(spec.rows)
    ]
    footer = ["E[L]/N", ""]
    footer += [_half_up(closed_form_mean_per_policy(m, params), 2) for _, m in spec.columns]
    headers = ["measure", spec.row_header] + [label for label, _ in spec.columns]
    return Table(table_id, headers, table_rows + [footer])


def build_table(req: TableRequest) -> Table:
    """Build the requested table in memory."""
    if req.table_id == "T1":
        return build_t1(req.params, req.p)
    return build_grid(req.table_id, grid_spec(req), req.params)


def render_csv(table: Table) -> str:
    lines = [",".join(table.headers)]
    lines += [",".join(row) for row in table.rows]
    return "\n".join(lines) + "\n"


def render_json(table: Table) -> str:
    objs = [dict(zip(table.headers, row)) for row in table.rows]
    return json.dumps(objs, indent=2) + "\n"
