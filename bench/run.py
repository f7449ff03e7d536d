"""lsakit benchmark runner.

    python3 bench/run.py --workload cli-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; stdlib only.  Each run starts the
workload in fresh processes (``worker.py``): several that only set up,
timed from process start until every input is parsed, built and
certified, and one that also measures.  With ``--trace 0`` the last
stdout line reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one traced pass.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5          # set-ups per run; setup_s is their median
DEADLINE_S = 170.0         # whole run, including every child process
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "job_p50_ms": "ms",
                    "job_tail_ms": "ms", "peak_rss_mb": "MB"}


class RunError(RuntimeError):
    pass


def _worker(args, extra: list[str]) -> subprocess.Popen:
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            *(["--tiny"] if args.tiny else []), *extra]
    # fixed string hashing, so traced counts repeat exactly
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)


def _until_ready(proc: subprocess.Popen, started: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RunError(f"workload set-up failed (exit {proc.returncode})")
    return perf_counter() - started


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("workload exceeded the run deadline") from None
    if proc.returncode != 0:
        raise RunError(f"workload exited with {proc.returncode}")
    return out


def _set_up(args, extra: list[str], setups: list) -> subprocess.Popen:
    """Start a worker and wait until it is ready; record the set-up time,
    scaled by a speed reference sample taken just before (speed.py)."""
    reference = speed.sample() if not args.trace else speed.NOMINAL_S
    started = perf_counter()
    proc = _worker(args, extra)
    raw = _until_ready(proc, started)
    setups.append((raw * speed.scale(reference), raw))
    return proc


def run(args) -> dict:
    deadline = perf_counter() + DEADLINE_S
    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        _finish(_set_up(args, ["--setup-only"], setups), deadline)
    lines = _finish(_set_up(args, [], setups), deadline).strip().splitlines()
    if not lines:
        raise RunError("workload printed no result")
    result = json.loads(lines[-1])
    result["setup_samples_s"] = setups
    if not args.trace:
        result["metrics"]["setup_s"] = \
            statistics.median(scaled for scaled, _ in setups)
        result["info"]["raw"]["setup_s"] = \
            statistics.median(raw for _, raw in setups)
    return result


def report(args, result: dict) -> dict:
    info = result["info"]
    attempted, failed = result["attempted"], result["failed"]
    units = tracing.LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{info['jobs_per_pass']} jobs per pass, one client, closed loop")
    raw = info.get("raw", {})
    for name, unit in units.items():
        wall = f"   (wall {raw[name]:.6g} {unit})" if name in raw else ""
        print(f"  {name:36s} {result['metrics'][name]:>14.6g} {unit}{wall}")
    if args.trace:
        print(f"  spans recorded: {info['spans']} ({info['span_file']})")
    else:
        print(f"  times are scaled to the nominal host speed: reference "
              f"loop {info['reference_s']:.4g} s, nominal "
              f"{speed.NOMINAL_S} s; wall times as measured in brackets")
        print(f"  setup_s is the median of {len(result['setup_samples_s'])} "
              f"set-ups; {info['timed_passes']} timed passes; job_tail_ms "
              f"is the median over the passes of each pass's "
              f"p{info['tail_percentile']} of {info['jobs_per_pass']} job "
              f"times, {info['tail_beyond']} beyond it")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
          f"jobs failed{': ' if failed else ''}"
          f"{', '.join(result['failed_jobs'])})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lsakit benchmark")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small rungs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lsakit" / "__init__.py").is_file():
        print(f"error: no lsakit sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
