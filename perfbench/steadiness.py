#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/steadiness.py --workload desk-simulate --seeds 1-10 [--seconds 50]
                                    [--trace 0|1] [--out FILE]

Runs are sequential, one process at a time. The spread of a metric is the
distance between its first and third quartiles, as
`statistics.quantiles(values, n=4)` gives them, as a share of its median:
the figure the bounds in BENCHMARK.json are checked against.
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


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the per-seed values and the summary as JSON")
    args = p.parse_args(argv)

    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result, details = json.loads(lines[-1]), json.loads(lines[-2])["perfbench"]
        runs.append({"seed": seed, "result": result, "details": details})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {values}"[:400], flush=True)

    summary = {}
    for name, metric in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        summary[name] = {"unit": metric["unit"], "median": statistics.median(values),
                         "spread": spread(values) if len(values) >= 2 else None}
        if args.trace == 0 or len(runs) >= 2:
            s = summary[name]["spread"]
            print(f"{name:34s} median {summary[name]['median']:.6g} {metric['unit']:6s}"
                  f" spread {'n/a' if s is None else f'{s:.4f}'}")
    if args.out:
        doc = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "environment": runs[0]["details"]["environment"],
               "all_correct": all(r["result"]["correct"] for r in runs),
               "summary": summary,
               "runs": [{"seed": r["seed"], "correct": r["result"]["correct"],
                         "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
                         "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()},
                         "samples": r["details"]["samples"]}
                        for r in runs]}
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
