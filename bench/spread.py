"""Run-to-run spread of the benchmark's metrics.

    python3 bench/spread.py --seeds 101-110 --trace 0 --out bench/baseline.json

Runs ``bench/run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of BENCHMARK.json, and gives for every metric its median,
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
distance as a share of the median. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# report-line statistics kept per run beside the metrics
EXTRA = ("host_speed_factor", "host_speed_parts", "setup_wall_s", "op_p50_wall_ms", "op_p90_ms", "op_p90_samples",
         "reports_per_s", "fail_frac", "rng.nonrng_per_rng", "self_frac")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 101-110")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seconds = str(spec["run_seconds"])
    out = {"run_seconds": spec["run_seconds"], "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed), "--seconds", seconds,
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "failures": report["failures"],
                         **{k: report[k] for k in EXTRA if k in report}})
            out.setdefault("environment", report["environment"])
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(name, seed, result["correct"], result["attempted"], result["failed"],
                  {k: round(m["value"], 6) for k, m in result["metrics"].items()} if not args.trace else "",
                  flush=True)
        stats = {key: summary(v) for key, v in values.items()}
        out["workloads"][name] = {"runs": runs, "metrics": stats}
        for key, s in stats.items():
            if not args.trace:
                print(f"  {name} {key}: median {s['median']:.6g} IQR/median {s['iqr_share']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
