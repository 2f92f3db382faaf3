"""riskdiv benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each pass runs in a fresh interpreter (worker.py), because a ``riskdiv
verify`` or ``riskdiv table`` user pays a cold process every time.  Passes
repeat while another typical pass still fits in ``--seconds``; metrics are
medians over passes.
With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones.  The last line of stdout is the result
object; the line before it, and ``perfbench/out/``, hold the details
(environment, per-pass samples, output digest, exact-repeat counts).
``--smoke`` runs every workload at a tiny size and validates the schema.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("exact-tables", "mc-convergence", "mc-parallel", "quote-stream")

MIN_PASSES = 3  # untraced passes per untraced run, so one slow pass is outvoted
MIN_TRACED = 2  # counts must repeat exactly between traced passes
RUN_LIMIT_S = 170.0  # passes are killed past this; a run must end within 180 s


class BenchError(RuntimeError):
    """A pass failed to run or produced no result."""


def _spawn(workload: str, seed: int, pass_id: str, *, trace=False, check=False,
           smoke=False, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-id", pass_id, "--out-dir", str(OUT_DIR)]
    cmd += [flag for flag, on in (("--trace", trace), ("--check", check), ("--smoke", smoke)) if on]
    cmd += ["--spawned", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException as exc:  # timeout or SIGTERM: end the worker and its pool, then re-raise
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} pass {pass_id} exceeded {timeout:.0f} s") from exc
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {pass_id} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _quantiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=10, method="inclusive")
    return {"p50": statistics.median(values), "p90": q[8], "n": len(values),
            "beyond_p90": sum(v > q[8] for v in values)}


def environment(seed: int, workers: int, versions: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv", ".json"):
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        **versions,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "workers": workers,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke=False):
    """Run passes for the given time; return (end-to-end, per-layer, detail)."""
    start = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    imports: list[float] = []
    durations: list[float] = []

    def elapsed():
        return time.perf_counter() - start

    def wanted():
        if len(plain) < (1 if trace else MIN_PASSES) or (trace and len(traced) < MIN_TRACED):
            return True
        # Start another pass only if a typical one still ends within the run.
        return elapsed() + statistics.median(durations) <= min(seconds, RUN_LIMIT_S)

    while wanted():
        use_trace = trace and bool(plain) and len(traced) < max(MIN_TRACED, len(plain))
        t0 = time.perf_counter()
        res = _spawn(workload, seed, str(len(plain) + len(traced)), trace=use_trace,
                     check=not plain and not traced, smoke=smoke,
                     timeout=RUN_LIMIT_S - elapsed())
        durations.append(time.perf_counter() - t0)
        (traced if use_trace else plain).append(res)
        setups.append(res["setup_s"])
        imports.append(res["import_s"])

    first = (plain + traced)[0]
    problems = []
    digests = {r["digest"] for r in plain + traced}
    if len(digests) != 1:
        problems.append(f"output digests differ between passes: {sorted(digests)}")
    if traced and any(r["counts"] != traced[0]["counts"] for r in traced):
        problems.append("per-layer counts differ between traced passes")
    if traced and traced[0]["missing_hooks"]:
        problems.append(f"tracer could not hook {traced[0]['missing_hooks']}")

    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "environment": environment(seed, first["workers"], first["versions"]),
        "elapsed_s": elapsed(),
        "digest": first["digest"],
        "attempted": first["attempted"],
        "failed": first["failed"],
        "failures": first["failures"],
        "problems": problems,
        "end_to_end": e2e,
        "samples": {
            "setup_s": setups,
            "import_s": imports,
            "wall_s": [r["wall_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        },
    }
    if "latencies_ms" in first:
        per_pass = [_quantiles(r["latencies_ms"]) for r in plain]
        detail["quotes"] = {
            "p50_ms": statistics.median(q["p50"] for q in per_pass),
            "p90_ms": statistics.median(q["p90"] for q in per_pass),
            "quotes_per_pass": per_pass[0]["n"],
            "beyond_p90_per_pass": per_pass[0]["beyond_p90"],
            "passes": len(per_pass),
        }

    layers = {}
    if traced:
        counts = traced[0]["counts"]
        walls = [r["wall_s"] for r in traced]
        self_s = {k: statistics.median(r["times"][k] for r in traced)
                  for k in traced[0]["times"] if k.endswith(".self_s")}
        layers = dict(counts)
        for key in self_s:
            layers[key[: -len("self_s")] + "self_pct"] = statistics.median(
                100.0 * r["times"][key] / r["wall_s"] for r in traced
            )
        layers["montecarlo.simulate.paths_per_s"] = statistics.median(
            r["times"]["montecarlo.simulate.paths_per_s"] for r in traced
        )
        layers["setup.import_s"] = statistics.median(imports)
        layers["trace_overhead_frac"] = statistics.median(walls) / e2e["wall_s"] - 1.0
        detail["counts"] = counts
        detail["self_s"] = self_s
        detail["traced_wall_s"] = walls
    return e2e, layers, detail


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_object(values: dict, specs: list[dict], detail: dict) -> dict:
    """The result line: every metric BENCHMARK.json declares, with its unit."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    correct = detail["failed"] == 0 and not detail["problems"]
    return {
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def validate(obj: dict, specs: list[dict]) -> list[str]:
    """Schema errors in one result object, empty when it is valid."""
    errors = []
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(obj)}")
    if not isinstance(obj.get("correct"), bool):
        errors.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(obj.get(key), int) or isinstance(obj.get(key), bool) or obj[key] < 0:
            errors.append(f"{key} is not a whole number")
    if obj.get("attempted", 0) < 1:
        errors.append("attempted < 1")
    metrics = obj.get("metrics", {})
    if set(metrics) != {s["name"] for s in specs}:
        errors.append(f"metric names {sorted(set(metrics) ^ {s['name'] for s in specs})} differ")
    for s in specs:
        m = metrics.get(s["name"], {})
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{s['name']} value {value!r}")
        if m.get("unit") != s["unit"]:
            errors.append(f"{s['name']} unit {m.get('unit')!r}")
    return errors


def smoke() -> int:
    spec = _load_spec()
    failures = 0
    for workload in WORKLOADS:
        try:
            e2e, layers, detail = run_workload(workload, seed=1, seconds=0, trace=True, smoke=True)
            errors = list(detail["problems"])
            for values, specs in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
                errors += validate(result_object(values, specs, detail), specs)
        except BenchError as exc:
            errors = [str(exc)]
        failures += bool(errors)
        print(f"smoke {workload}: {'ok' if not errors else errors}")
    print(json.dumps({"smoke": "ok" if not failures else "failed"}))
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = ap.parse_args(argv)
    # A terminated run still stops the pass it is waiting for (see _spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "riskdiv" / "__init__.py").is_file():
        print(f"perfbench: no riskdiv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    try:
        e2e, layers, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        spec = _load_spec()
        specs = spec["per_layer"] if args.trace else spec["end_to_end"]
        result = result_object(layers if args.trace else e2e, specs, detail)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}_{time.time_ns()}.json"
    (OUT_DIR / name).write_text(json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
