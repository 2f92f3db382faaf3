"""One benchmark pass in a fresh interpreter: set up, measure, check.

Started by run.py, never by hand.  Prints one JSON object on stdout.  Set-up
time is measured from the wall-clock instant the parent started this process
(``--spawned``) to the moment the inputs are ready, so it covers interpreter
start, importing riskdiv, loading the errata, and
generating the workload inputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it waited for (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--pass-id", default="0")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true", help="run the untimed accuracy gate")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out-dir", type=Path, required=True, help="where span files go")
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import riskdiv

    import_s = time.perf_counter() - t0
    if not Path(riskdiv.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"riskdiv imported from {riskdiv.__file__}, not from this checkout")
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.smoke)
    setup_s = time.time() - args.spawned
    result = {"setup_s": setup_s, "import_s": import_s, "workers": workload.workers}

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(f"{args.workload}/seed{args.seed}/pass{args.pass_id}")
        tracing.install(tracer)

    t = time.perf_counter()
    outputs = workload.run(inputs)
    wall_s = time.perf_counter() - t
    peak = _peak_rss_mb()

    attempted, failed, failures = workload.check(inputs, outputs, args.check)
    result.update(
        wall_s=wall_s,
        peak_rss_mb=peak,
        attempted=attempted,
        failed=failed,
        failures=failures[:20],
        digest=workload.digest(outputs),
        versions={"python": sys.version.split()[0]}
        | {dist: version(dist) for dist in ("numpy", "scipy", "mpmath")},
    )
    if isinstance(outputs, dict) and "latencies_ms" in outputs:
        result["latencies_ms"] = outputs["latencies_ms"]
    if tracer is not None:
        result["counts"], result["times"] = tracing.layer_report(tracer)
        result["missing_hooks"] = tracer.missing
        args.out_dir.mkdir(parents=True, exist_ok=True)
        name = f"spans_{args.workload}_seed{args.seed}_pass{args.pass_id}.jsonl"
        tracer.write(args.out_dir / name)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
