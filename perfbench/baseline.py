#!/usr/bin/env python3
"""Run every workload ten times and write perfbench/BENCH_<tag>.json.

    python3 perfbench/baseline.py --tag seed

For each workload: ``RUNS`` untraced runs with seeds 1..RUNS, then one
traced run with seed 1.  The file records the environment, every run's
result line, each end-to-end metric's median, quartiles and spread (the
quartile distance over the median, as the acceptance rule computes it),
and the traced run's per-layer metrics and span table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402


def bench(name: str, seed: int, seconds: int, trace: int, out: Path = None) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if out is not None:
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(results) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    doc = {"environment": run.environment(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in workloads.WORKLOADS:
        results = []
        for seed in range(1, RUNS + 1):
            results.append(bench(name, seed, spec["run_seconds"], 0))
            print(name, seed, json.dumps(results[-1]["metrics"]), flush=True)
        record = HERE / f".traced-{name}.json"
        try:
            bench(name, 1, spec["run_seconds"], 1, record)
            traced = json.loads(record.read_text(encoding="utf-8"))
        finally:
            record.unlink(missing_ok=True)
        doc["workloads"][name] = {
            "end_to_end": summary(results),
            "runs": results,
            "traced": {k: traced[k] for k in (
                "seed", "instance", "work_per_pass", "passes", "attempted", "failed",
                "metrics", "span_table")},
        }
        for metric, s in doc["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric} median={s['median']:.6g} spread={s['spread']:.4f}", flush=True)
    (HERE / f"BENCH_{args.tag}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
