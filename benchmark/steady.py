#!/usr/bin/env python3
"""Steadiness check: run one workload N times, each with another seed,
and print each metric's median, quartiles and spread.

    python3 benchmark/steady.py --workload validity --runs 10 --seconds 15

The spread is the distance between the first and third quartile as a
share of the median (Python's statistics.quantiles with n=4), the same
figure the bounds in BENCHMARK.json are compared against.  Runs go one
after another, each in a process of its own.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"run with seed {seed} exited {proc.returncode}")
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']} " + " ".join(
                  f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()),
              flush=True)

    summary = {"workload": args.workload, "runs": args.runs,
               "seconds": args.seconds, "first_seed": args.first_seed,
               "metrics": {}}
    print(f"\n{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s}")
    for key in results[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in results]
        med, q1, q3, sp = spread(values)
        summary["metrics"][key] = {"median": med, "q1": q1, "q3": q3,
                                   "spread": sp, "values": values}
        print(f"{key:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.4f}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    summary["failed_shares"] = shares
    summary["all_correct"] = all(r["correct"] for r in results)
    print(f"failed share(s): {shares}; all correct: {summary['all_correct']}")
    out = HERE / "out" / "steady"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-from{args.first_seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
