"""Measure the baseline: several seeds per workload, and one traced run.

    python3 bench/baseline.py --runs 10 --first-seed 1 --repeat \
        --out bench/baseline.json

For each end-to-end metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles divided by the median.  ``--repeat`` runs
a second set on the next seeds straight after the first and keeps its
summary, with each median relative to the first set's.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} "
                         f"failed jobs")
    return result


def summary(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1,
                     "q3": q3, "spread": (q3 - q1) / median}
    return out


def run_set(workload: str, seeds: list[int], seconds: int) -> list[dict]:
    runs = []
    for seed in seeds:
        runs.append(bench(workload, seed, seconds, 0))
        print(workload, seed, {k: round(v["value"], 4)
                               for k, v in runs[-1]["metrics"].items()},
              flush=True)
    return runs


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--repeat", action="store_true",
                        help="also run a second set on the next seeds")
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    result = {
        "machine": {"python": platform.python_version(),
                    "cpus": os.cpu_count(), "arch": platform.machine()},
        "workloads": {},
    }
    for name in names:
        runs = run_set(name, seeds, args.seconds)
        entry = result["workloads"][name] = {
            "run_seconds": args.seconds,
            "seeds": seeds,
            "summary": summary(runs),
            "runs": runs,
        }
        if args.repeat:
            again = [seed + args.runs for seed in seeds]
            second = summary(run_set(name, again, args.seconds))
            for metric, first in entry["summary"].items():
                second[metric]["median_vs_first"] = \
                    second[metric]["median"] / first["median"] - 1.0
            entry["repeat"] = {"seeds": again, "summary": second}
        entry["traced"] = bench(name, seeds[0], args.seconds, 1)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
