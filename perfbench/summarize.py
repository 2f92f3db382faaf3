"""Summarise the result files in perfbench/out/ across seeds.

Usage, after running the benchmark on several seeds:

    python3 perfbench/summarize.py                  # print the table
    python3 perfbench/summarize.py --write baseline.json

For each workload and end-to-end metric it prints the median over runs and
the spread, the distance between the first and third quartile as a share
of the median: the figure each metric's bound in BENCHMARK.json is checked
against.  Traced runs contribute the per-layer metrics and counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "runs": len(values), "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def summarize(out_dir: Path) -> dict:
    runs: dict[str, dict[int, list[dict]]] = {}
    for path in sorted(out_dir.glob("*_seed*_trace*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        d = record["detail"]
        if d["smoke"]:
            continue
        runs.setdefault(d["workload"], {}).setdefault(d["trace"], []).append(record)

    summary = {}
    for workload, by_trace in sorted(runs.items()):
        plain = by_trace.get(0, [])
        traced = by_trace.get(1, [])
        entry: dict = {
            "environment": (plain or traced)[0]["detail"]["environment"],
            "seeds": sorted(r["detail"]["seed"] for r in plain),
            "all_correct": all(r["result"]["correct"] for r in plain + traced),
            "failed": sum(r["result"]["failed"] for r in plain + traced),
            "digests": {str(r["detail"]["seed"]): r["detail"]["digest"] for r in plain + traced},
        }
        entry["environment"].pop("seed", None)
        # Every run of one seed must give the same output, traced or not, and
        # every traced run of one seed the same counts.
        digests, counts = {}, {}
        for r in plain + traced:
            digests.setdefault(r["detail"]["seed"], set()).add(r["detail"]["digest"])
        for r in traced:
            key = json.dumps(r["detail"]["counts"], sort_keys=True)
            counts.setdefault(r["detail"]["seed"], set()).add(key)
        entry["repeat_check"] = {
            "runs_per_seed": {str(s): len([r for r in plain + traced if r["detail"]["seed"] == s])
                              for s in sorted(digests)},
            "digest_mismatch_seeds": sorted(s for s, d in digests.items() if len(d) > 1),
            "count_mismatch_seeds": sorted(s for s, c in counts.items() if len(c) > 1),
        }
        if plain:
            entry["end_to_end"] = {
                name: _stats([r["result"]["metrics"][name]["value"] for r in plain])
                for name in plain[0]["result"]["metrics"]
            }
            quotes = [r["detail"]["quotes"] for r in plain if "quotes" in r["detail"]]
            if quotes:
                entry["quotes"] = {
                    "p50_ms": _stats([q["p50_ms"] for q in quotes]),
                    "p90_ms": _stats([q["p90_ms"] for q in quotes]),
                    "quotes_per_pass": quotes[0]["quotes_per_pass"],
                    "beyond_p90_per_pass": quotes[0]["beyond_p90_per_pass"],
                }
        if traced:
            first = traced[0]
            entry["traced_seed"] = first["detail"]["seed"]
            entry["per_layer"] = {k: v["value"] for k, v in first["result"]["metrics"].items()}
            entry["self_s"] = first["detail"]["self_s"]
            entry["counts"] = first["detail"]["counts"]
        summary[workload] = entry
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=HERE / "out")
    ap.add_argument("--write", type=Path, help="also write the summary as JSON here")
    args = ap.parse_args()
    summary = summarize(args.out_dir)
    for workload, entry in summary.items():
        print(f"{workload}: seeds {entry['seeds']}, all correct {entry['all_correct']}, "
              f"repeat check {entry['repeat_check']}")
        for name, s in entry.get("end_to_end", {}).items():
            spread = s.get("spread")
            print(f"  {name:12s} median {s['median']:10.4f}  spread "
                  f"{'n/a' if spread is None else f'{spread:.3f}'}  runs {s['runs']}")
        for name in ("p50_ms", "p90_ms"):
            if "quotes" in entry:
                s = entry["quotes"][name]
                print(f"  quote_{name:6s} median {s['median']:10.4f}  "
                      f"spread {s.get('spread', 0):.3f}")
    if args.write:
        text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
        args.write.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
