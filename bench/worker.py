"""One workload run, in its own process.

Started by ``run.py``.  Prints ``READY`` once every input is parsed, built
and certified (the parent times process start to that line as set-up),
then runs one untimed warm-up pass and either the timed passes with
tracing off (``--trace 0``) or one untraced and one traced pass
(``--trace 1``).  Load is one client in a closed loop: each job starts
when the previous one has returned.  The last stdout line is a JSON
object for the parent.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

import speed  # noqa: E402  (sys.path[0] is this directory)
import workloads as wl  # noqa: E402


def import_lsakit():
    """Import lsakit from this checkout's ``src``, as the tests do."""
    src = ROOT / "src"
    if not (src / "lsakit" / "__init__.py").is_file():
        raise wl.SetupError(f"no lsakit sources under {src}")
    sys.path.insert(0, str(src))
    import lsakit
    import lsakit.cli  # noqa: F401  (not imported by the package itself)
    if Path(lsakit.__file__).resolve().parent != (src / "lsakit").resolve():
        raise wl.SetupError(f"lsakit was imported from {lsakit.__file__}")
    return lsakit


class Pass:
    """Wall time, per-job times and failures of one pass over the jobs."""

    def __init__(self, jobs, tracer=None):
        gc.collect()
        results = []
        self.job_s = []
        start = perf_counter()
        for index, job in enumerate(jobs):
            began = perf_counter()
            try:
                if tracer is None:
                    raw = job.call()
                else:
                    raw = tracer.run_job(index, job.call)
            except (Exception, SystemExit) as err:  # a failed job, not a crash
                raw = err
                traceback.print_exc(file=sys.stderr)
            self.job_s.append(perf_counter() - began)
            results.append(raw)
        self.wall_s = perf_counter() - start
        self.failures = []
        for job, raw in zip(jobs, results):
            if isinstance(raw, BaseException) or not job.check(raw):
                self.failures.append(job.key)


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest whole percentile that leaves at least ten job samples
    beyond it in a single pass; the slowest job (100) when a pass has
    fewer than eleven jobs.  Fixed per workload, so runs that fit a
    different number of passes report the same statistic."""
    if jobs_per_pass < 11:
        return 100
    return (100 * (jobs_per_pass - 10)) // jobs_per_pass


def nearest_rank(samples, percentile: int) -> tuple[float, int]:
    """Value at the percentile (nearest rank) and the count beyond it."""
    ordered = sorted(samples)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def time_metrics(job_s: list[list[float]], wall_s: list[float]) \
        -> tuple[dict, int]:
    """pass_s, job_p50_ms and job_tail_ms from each timed pass's job
    times and wall time, and the number of job times in a pass beyond
    its tail percentile."""
    # each job's own median first: with a few jobs of very different cost
    # a pooled median would fall in the gap between two of them
    per_job = [statistics.median(times[j] for times in job_s)
               for j in range(len(job_s[0]))]
    # the tail of each pass, then their median: a single extreme sample
    # of the whole run would carry the noise of one moment of the host
    tails = [nearest_rank(times, tail_percentile(len(times)))
             for times in job_s]
    return {"pass_s": statistics.median(wall_s),
            "job_p50_ms": statistics.median(per_job) * 1000.0,
            "job_tail_ms": statistics.median(t for t, _ in tails) * 1000.0,
            }, tails[0][1]


def timed_metrics(jobs, seconds: float, passes: list, started: float) \
        -> tuple[dict, dict]:
    """Timed passes after the warm-up, within ``seconds`` of ``started``
    (the warm-up's start).  A pass starts only if one more pass as long
    as the last one still ends in time, so a run does not overshoot its
    budget by a pass; there is always at least one timed pass.  Each pass
    lies between two samples of the speed reference, and its times are
    scaled by them (``speed.py``)."""
    reference = [speed.sample()]
    while True:
        passes.append(Pass(jobs))
        reference.append(speed.sample())
        if perf_counter() - started + passes[-1].wall_s > seconds:
            break
    timed = passes[1:]           # passes[0] is the warm-up
    scales = [speed.scale(before, after)
              for before, after in zip(reference, reference[1:])]
    metrics, beyond = time_metrics(
        [[t * f for t in p.job_s] for p, f in zip(timed, scales)],
        [p.wall_s * f for p, f in zip(timed, scales)])
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {"timed_passes": len(timed),
            "tail_percentile": tail_percentile(len(jobs)),
            "tail_beyond": beyond,
            "reference_s": statistics.median(reference),
            "raw": time_metrics([p.job_s for p in timed],
                                [p.wall_s for p in timed])[0]}
    return metrics, info


def traced_metrics(jobs, workload: str, seed: int, passes: list) \
        -> tuple[dict, dict]:
    import tracing as tr
    plain = Pass(jobs)
    passes.append(plain)
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced = Pass(jobs, tracer)
    finally:
        tracer.remove()
    passes.append(traced)
    leftover = tr.installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers left installed: {leftover}")
    metrics = tr.layer_metrics(tracer, len(jobs))
    metrics["trace.overhead"] = traced.wall_s / plain.wall_s
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json.gz"
    with gzip.open(path, "wt", compresslevel=1) as handle:
        tracer.dump(handle)
    info = {"spans": len(tracer.span_name),
            "span_file": str(path.relative_to(ROOT))}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lsakit = import_lsakit()
    jobs = wl.build_jobs(lsakit, args.workload, args.seed, tiny=args.tiny)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    started = perf_counter()
    passes = [Pass(jobs)]        # warm-up, checked but not timed
    if args.trace:
        metrics, info = traced_metrics(jobs, args.workload, args.seed,
                                       passes)
    else:
        metrics, info = timed_metrics(jobs, args.seconds, passes, started)
    failures = sorted({key for p in passes for key in p.failures})
    info["jobs_per_pass"] = len(jobs)
    print(json.dumps({
        "attempted": len(jobs) * len(passes),
        "failed": sum(len(p.failures) for p in passes),
        "failed_jobs": failures,
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
