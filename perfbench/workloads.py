"""The four benchmark workloads: inputs from a seed, the measured call, checks.

Each workload has three phases.  ``prepare`` builds the inputs (part of
set-up), ``run`` is the measured phase and calls only riskdiv's public API,
and ``check`` validates the outputs afterwards, untimed.  Functions are looked
up on the ``riskdiv`` package at call time so a traced pass sees its wrappers.
See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import random
import time

import riskdiv as rd
from riskdiv import tables as rd_tables

# Monte Carlo accuracy gate: 0.02 plus one VaR count step, capital_cost*l/N.
MC_ABS_TOL = 0.02

T5_SIMS_GRID = (250_000, 1_000_000, 2_000_000)
T4_MC_SIMS = 500_000
T4_MC_WORKERS = 2

QUOTE_PTS = (0.001, 0.01, 0.05, 0.1)
QUOTE_MAX_LOG10_N = 5
# Quotes per (shock model, pt) class; the iid class gets 4x as many, so one
# third of the stream is iid, as if pt were drawn for it too.
QUOTES_PER_CLASS = 10
# Each N sits in its own equal-width stratum of log10 N; the seed places it
# uniformly in a centred window this wide, as a share of the stratum.
# The two common-shock pt=1% quotes in the top strata take 1-2.6 s each and
# their cost grows with N, so a wider window would let the seed, rather than
# the code, move a pass by 10% or more.
QUOTE_JITTER = 0.2


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _mc_gate(params, N: int) -> float:
    return MC_ABS_TOL + params.capital_cost * params.severity / N


def _exact_loadings(req, Ns) -> dict:
    """Exact per-exposure-shock loadings keyed (measure label, N, column)."""
    params = req.params
    out = {}
    for col, pt in zip(rd_tables.PT_LABELS, rd_tables.PT_GRID):
        model = rd_tables.default_model(rd.ModelKind.PER_EXPOSURE_SHOCK, req.p, req.q, pt)
        for N in Ns:
            for mk, label in ((rd.MeasureKind.VAR, "VaR"), (rd.MeasureKind.TVAR, "TVaR")):
                spec = rd.RiskMeasureSpec(mk, params.alpha, rd.TvarConvention.TAIL_AVERAGE)
                out[(label, N, col)] = rd.risk_loading_per_policy(model, params, N, spec).value
    return out


class ExactTables:
    """T1-T4 (exact) built and verified: ``riskdiv verify`` without T5."""

    name = "exact-tables"
    workers = 1

    def prepare(self, seed: int, smoke: bool):
        # The published grids are the input; the seed does not change them.
        # compare_with_reference parses each reference CSV itself, in the
        # measured phase, as ``riskdiv verify`` does.
        ids = ("T1", "T2") if smoke else ("T1", "T2", "T3", "T4")
        return {"ids": ids, "errata": rd.load_errata()}

    def run(self, inputs):
        out = []
        for tid in inputs["ids"]:
            table = rd.build_table(rd.TableRequest(table_id=tid))
            out.append((tid, table, rd.compare_with_reference(table, tid)))
        return out

    def check(self, inputs, outputs, full: bool):
        """Cells compared; a failure is a flagged cell not listed in the errata."""
        attempted, bad = 0, []
        for _, _, report in outputs:
            attempted += len(report.cells)
            bad += [[c.table_id, list(c.row_key), c.col_key, c.generated]
                    for c in report.unexpected(inputs["errata"])]
        return attempted, len(bad), bad

    def digest(self, outputs) -> str:
        return _digest(rd_tables.render_csv(table) for _, table, _ in outputs)


class _McTable:
    """A Monte Carlo table, gated cell by cell against the exact engine."""

    def run(self, inputs):
        return rd.build_table(inputs["request"])

    def check(self, inputs, outputs, full: bool):
        cells = [
            (row[0], row[1], col, cell)
            for row in outputs.rows if row[0] in ("VaR", "TVaR")
            for col, cell in zip(outputs.headers[2:], row[2:])
        ]
        if not full or inputs["smoke"]:
            return len(cells), 0, []
        req = inputs["request"]
        exact = _exact_loadings(req, self.portfolio_sizes(req))
        bad = []
        for label, row_key, col, cell in cells:
            N = self.portfolio_size(row_key)
            err = abs(float(cell) - exact[(label, N, col)])
            if err > _mc_gate(req.params, N):
                bad.append({"cell": [label, row_key, col], "mc": cell,
                            "exact": exact[(label, N, col)], "err": err})
        return len(cells), len(bad), bad

    def digest(self, outputs) -> str:
        return _digest([rd_tables.render_csv(outputs)])


class McConvergence(_McTable):
    """T5 shape: per-exposure shock, N=100, nested budgets, one process."""

    name = "mc-convergence"
    workers = 1
    N = 100

    def prepare(self, seed: int, smoke: bool):
        budget = {"sims_grid": (2_000, 4_000), "block_size": 1_000} if smoke else {
            "sims_grid": T5_SIMS_GRID}
        req = rd.TableRequest(table_id="T5", seed=seed, workers=self.workers, **budget)
        return {"request": req, "smoke": smoke}

    def portfolio_sizes(self, req):
        return [self.N]

    def portfolio_size(self, row_key: str) -> int:
        return self.N  # T5 rows are budgets, all at N=100


class McParallel(_McTable):
    """T4 ``--mc`` at a reduced budget on two worker processes."""

    name = "mc-parallel"
    workers = T4_MC_WORKERS

    def prepare(self, seed: int, smoke: bool):
        budget = {"sims": 2_000, "block_size": 1_000, "N_grid": (1, 10)} if smoke else {
            "sims": T4_MC_SIMS}
        req = rd.TableRequest(table_id="T4", mc=True, seed=seed, workers=self.workers, **budget)
        return {"request": req, "smoke": smoke}

    def portfolio_sizes(self, req):
        return req.N_grid or rd_tables.N_GRID_T4

    def portfolio_size(self, row_key: str) -> int:
        return int(row_key)


_VARIANTS = (
    (rd.MeasureKind.VAR, rd.TvarConvention.CONDITIONAL),
    (rd.MeasureKind.VAR, rd.TvarConvention.TAIL_AVERAGE),
    (rd.MeasureKind.TVAR, rd.TvarConvention.CONDITIONAL),
    (rd.MeasureKind.TVAR, rd.TvarConvention.TAIL_AVERAGE),
)


def quote_stream(seed: int, per_class: int = QUOTES_PER_CLASS,
                 max_log10: float = QUOTE_MAX_LOG10_N) -> list[tuple]:
    """A seeded stream of distinct exact quotes: (kind, pt, N, measure, convention).

    Per class, N is stratified over log10 N in [0, max_log10] with seeded
    jitter inside each stratum; measure variants cycle over the strata from a
    seeded offset.  N values are then made distinct across the stream, and
    the order is shuffled.
    """
    rng = random.Random(seed)
    classes = [("iid", 0.0, 4 * per_class)]
    classes += [(kind, pt, per_class) for kind in ("common-shock", "per-exposure-shock")
                for pt in QUOTE_PTS]
    quotes = []
    for kind, pt, count in classes:
        offset = rng.randrange(len(_VARIANTS))
        for j in range(count):
            u = (j + 0.5 + QUOTE_JITTER * (rng.random() - 0.5)) / count
            N = max(1, round(10 ** (max_log10 * u)))
            mk, conv = _VARIANTS[(j + offset) % len(_VARIANTS)]
            quotes.append([kind, pt, N, mk, conv])
    quotes.sort(key=lambda q: q[2])
    for prev, cur in zip(quotes, quotes[1:]):
        cur[2] = max(cur[2], prev[2] + 1)
    rng.shuffle(quotes)
    return [tuple(q) for q in quotes]


class QuoteStream:
    """Closed loop, one client: distinct exact quotes through price_policy."""

    name = "quote-stream"
    workers = 1

    def prepare(self, seed: int, smoke: bool):
        stream = quote_stream(seed, per_class=1, max_log10=2) if smoke else quote_stream(seed)
        params = rd.PortfolioParams()
        requests = []
        for kind, pt, N, mk, conv in stream:
            if kind == "iid":
                model = rd.ModelSpec.iid(rd_tables.DEFAULT_P)
            else:
                model = rd.ModelSpec(rd.ModelKind(kind), rd_tables.DEFAULT_P,
                                     rd_tables.DEFAULT_Q, pt)
            requests.append((model, N, rd.RiskMeasureSpec(mk, params.alpha, conv)))
        return {"params": params, "requests": requests}

    def run(self, inputs):
        params = inputs["params"]
        results, latencies = [], []
        for model, N, spec in inputs["requests"]:
            t0 = time.perf_counter_ns()
            try:
                res = rd.price_policy(model, params, N, spec)
            except Exception as exc:  # a failed quote is counted, the stream goes on
                res = f"{type(exc).__name__}: {exc}"
            latencies.append((time.perf_counter_ns() - t0) / 1e6)
            results.append(res)
        return {"results": results, "latencies_ms": latencies}

    def check(self, inputs, outputs, full: bool):
        bad = []
        for i, res in enumerate(outputs["results"]):
            if isinstance(res, str):
                bad.append([i, res])
            elif not all(math.isfinite(v) for v in vars(res).values()):
                bad.append([i, repr(res)])
        return len(outputs["results"]), len(bad), bad

    def digest(self, outputs) -> str:
        return _digest(repr(r) for r in outputs["results"])


WORKLOADS = {w.name: w for w in (ExactTables(), McConvergence(), McParallel(), QuoteStream())}
