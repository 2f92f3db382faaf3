"""Span tracer that instruments riskdiv from outside the package.

Wrappers are installed by rebinding every name under which a riskdiv module
holds the original function (``riskdiv.models.binomial``,
``riskdiv.tables.risk_loading_per_policy``, ...), so nothing under ``src/``
changes.  Spans live in memory with a ``contextvars`` parent stack and are
written out once, when the pass ends.  Nothing here runs unless a traced pass
calls ``install``.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import pkgutil
import sys
import time
from collections import defaultdict

# (reported layer name, module, attribute) for every traced public function.
TRACED_FUNCTIONS = (
    ("distributions.binomial", "riskdiv.distributions", "binomial"),
    ("distributions.convolve", "riskdiv.distributions", "convolve"),
    ("distributions.mixture", "riskdiv.distributions", "mixture"),
    ("distributions.exact_cdf_at", "riskdiv.distributions", "exact_cdf_at"),
    ("models.loss_count_distribution", "riskdiv.models", "loss_count_distribution"),
    ("measures.apply_measure", "riskdiv.measures", "apply_measure"),
    ("pricing.risk_loading_per_policy", "riskdiv.pricing", "risk_loading_per_policy"),
    ("pricing.price_policy", "riskdiv.pricing", "price_policy"),
    ("montecarlo.mc_loading", "riskdiv.montecarlo", "mc_loading"),
    ("montecarlo.simulate", "riskdiv.montecarlo", "simulate"),
    ("montecarlo.empirical_distribution", "riskdiv.montecarlo", "empirical_distribution"),
    ("tables.build_table", "riskdiv.tables", "build_table"),
    ("reference.compare_with_reference", "riskdiv.reference", "compare_with_reference"),
)
CDF_LAYER = "distributions.cdf"
LAYERS = tuple(name for name, _, _ in TRACED_FUNCTIONS) + (CDF_LAYER,)


def _call_key(args, kwargs) -> str:
    return repr((args, sorted(kwargs.items())))


# Per-layer attributes recorded on each span: name -> fn(args, kwargs, result).
_ATTRS = {
    "distributions.binomial": lambda a, k, r: {"key": _call_key(a, k)},
    "distributions.convolve": lambda a, k, r: {"out_points": len(r.masses)},
    "models.loss_count_distribution": lambda a, k, r: {
        "key": _call_key(a, k),
        "support_points": len(r.masses),
    },
    # mc_loading(model, params, N, measure, config, ...): the budget a caller asked for.
    "montecarlo.mc_loading": lambda a, k, r: {
        "requested": int((a[4] if len(a) > 4 else k["config"]).num_sims),
    },
    CDF_LAYER: lambda a, k, r: {"points": len(r)},
}


class Tracer:
    """Records spans (name, start, end, parent, run id) for one pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.pool_starts = 0
        self.blocks = 0
        self.paths_drawn = 0
        self.hist_bytes = 0
        self.missing: list[str] = []
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._current.get(), "run": self.run_id}
            token = self._current.set(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._current.reset(token)
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced

    def note_block(self, N: int, n: int, size: int) -> None:
        """Count one Monte Carlo block: its paths and its dense N*n+1-bin histogram."""
        self.blocks += 1
        self.paths_drawn += size
        self.hist_bytes += (N * n + 1) * 8

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _CountedBlocks:
    """Wraps riskdiv.montecarlo._draw_block and counts each block it draws."""

    def __init__(self, fn, tracer: Tracer):
        self.fn = fn
        self.tracer = tracer
        self.signature = inspect.signature(fn)

    def note(self, *args, **kwargs) -> None:
        bound = self.signature.bind(*args, **kwargs).arguments
        self.tracer.note_block(bound["N"], bound["n"], bound["size"])

    def __call__(self, *args, **kwargs):
        self.note(*args, **kwargs)
        return self.fn(*args, **kwargs)

    def __reduce__(self):
        # Sent to a pool worker by name, like the function it wraps.
        return pkgutil.resolve_name, (f"{self.fn.__module__}:{self.fn.__qualname__}",)


def _rebind(original, replacement) -> int:
    """Point every riskdiv module attribute that holds original at replacement."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "riskdiv" or mod_name.startswith("riskdiv.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap riskdiv's public functions, the cdf property and the MC pool."""
    for name, mod_name, attr in TRACED_FUNCTIONS:
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is None or _rebind(original, tracer.wrap(name, original)) == 0:
            tracer.missing.append(name)

    # The cdf is a cached property: wrap its function and keep the caching.
    dist_mod = sys.modules["riskdiv.distributions"]
    cls = dist_mod.DiscreteLossDistribution
    prop = cls.__dict__.get("cdf")
    if isinstance(prop, functools.cached_property):
        traced = functools.cached_property(tracer.wrap(CDF_LAYER, prop.func))
        traced.__set_name__(cls, "cdf")
        setattr(cls, "cdf", traced)
    else:
        tracer.missing.append(CDF_LAYER)

    # Paths drawn: every block goes through _draw_block, in this process or in
    # a pool worker.  Blocks sent to a pool are counted from the arguments
    # passed to map, in this process; the workers run the wrapper too, but
    # their counts are discarded with them.
    mc = sys.modules["riskdiv.montecarlo"]
    draw_block = getattr(mc, "_draw_block", None)
    if draw_block is None:
        tracer.missing.append("montecarlo.blocks")
    else:
        mc._draw_block = _CountedBlocks(draw_block, tracer)

    pool_cls = getattr(mc, "ProcessPoolExecutor", None)
    if pool_cls is None:
        tracer.missing.append("montecarlo.pool_starts")
    else:

        class CountedPool(pool_cls):
            def __init__(self, *args, **kwargs):
                tracer.pool_starts += 1
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                if isinstance(fn, _CountedBlocks):
                    iterables = [list(it) for it in iterables]
                    for call in zip(*iterables):
                        fn.note(*call)
                return super().map(fn, *iterables, **kwargs)

        mc.ProcessPoolExecutor = CountedPool


def _self_times(spans: list[dict]) -> list[int]:
    """Span duration minus the time its direct children cover (ns)."""
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_report(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer counts (exact-repeat) and timings (seconds) for one pass."""
    spans = tracer.spans
    selfs = _self_times(spans)
    by_layer: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_layer[s["name"]].append(i)

    counts: dict[str, float] = {}
    times: dict[str, float] = {}
    for layer in LAYERS:
        idx = by_layer.get(layer, [])
        counts[f"{layer}.calls"] = len(idx)
        times[f"{layer}.self_s"] = sum(selfs[i] for i in idx) / 1e9

    def total(layer, key):
        return sum(spans[i].get(key, 0) for i in by_layer.get(layer, []))

    def distinct(layer):
        idx = by_layer.get(layer, [])
        return _frac(len({spans[i]["key"] for i in idx}), len(idx))

    counts[f"{CDF_LAYER}.points"] = total(CDF_LAYER, "points")
    counts["distributions.binomial.distinct_frac"] = distinct("distributions.binomial")
    counts["distributions.convolve.out_points"] = total("distributions.convolve", "out_points")
    lcd = "models.loss_count_distribution"
    counts[f"{lcd}.distinct_frac"] = distinct(lcd)
    counts[f"{lcd}.support_points"] = total(lcd, "support_points")

    # A plateau search is an apply_measure call that needed exact cdf values.
    plateau = set()
    for i in by_layer.get("distributions.exact_cdf_at", []):
        p = spans[i]["parent"]
        while p is not None and spans[p]["name"] != "measures.apply_measure":
            p = spans[p]["parent"]
        if p is not None:
            plateau.add(p)
    counts["measures.apply_measure.plateau_searches"] = len(plateau)

    sim = by_layer.get("montecarlo.simulate", [])
    counts["montecarlo.simulate.paths"] = tracer.paths_drawn
    counts["montecarlo.simulate.requested_per_drawn"] = _frac(
        total("montecarlo.mc_loading", "requested"), tracer.paths_drawn
    )
    counts["montecarlo.blocks"] = tracer.blocks
    counts["montecarlo.pool_starts"] = tracer.pool_starts
    # Dense int64 block histograms of N*n+1 bins: computed, not measured.
    counts["montecarlo.hist_bytes_computed"] = tracer.hist_bytes
    sim_wall = sum(spans[i]["end"] - spans[i]["start"] for i in sim) / 1e9
    times["montecarlo.simulate.paths_per_s"] = _frac(tracer.paths_drawn, sim_wall)
    return counts, times
