"""Repeat the benchmark over several seeds and summarize each metric.

``python3 -m benchmarks.e2e.repeat --runs 10 [--workload NAME ...]
[--seconds S] [--first-seed N] [--json OUT]`` runs
``benchmarks/e2e/run.py`` once per seed and workload, one after the
other, and prints each end-to-end metric's median, quartiles and spread
(the quartile distance as a share of the median) -- the numbers the
comparison protocol in the README works with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from .stats import spread

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("warm-row", "cold-row", "cold-columnar", "service-journaled")


def run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "benchmarks" / "e2e" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout}{proc.stderr}"
        )
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread(values),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", default=None, metavar="OUT")
    args = parser.parse_args(argv)
    document = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seconds": args.seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        runs = [
            run(workload, seed, args.seconds) for seed in document["seeds"]
        ]
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values)
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            print(
                f"{workload} {name}: median {metrics[name]['median']:.6g} "
                f"{metrics[name]['unit']}, spread "
                f"{metrics[name]['spread']:.2%}",
                flush=True,
            )
        document["workloads"][workload] = {
            "metrics": metrics,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "correct": all(r["correct"] for r in runs),
        }
    if args.json:
        Path(args.json).write_text(
            json.dumps(document, indent=1) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
