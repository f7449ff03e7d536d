"""The benchmark's own tests, on a tiny rung of each workload.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run as bench_run
import tracing
import worker
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_runner():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        tracing.LAYER_UNITS


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_untraced_run_reports_every_metric_and_no_failure(workload):
    result = result_of(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(run_bench(workload, 1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = {name for name, unit in tracing.LAYER_UNITS.items()
              if unit != "s" and name != "trace.overhead"}
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}


def _lsakit_attributes():
    lsakit = worker.import_lsakit()
    owners = [m for name, m in sys.modules.items()
              if name.split(".")[0] == "lsakit"
              and isinstance(m, types.ModuleType)]
    owners += [lsakit.polyring.Poly, lsakit.polyring.VectorField]
    return lsakit, {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_wrappers_are_gone_after_a_traced_pass():
    lsakit, before = _lsakit_attributes()
    jobs = wl.build_jobs(lsakit, "point-cohomology", 1, tiny=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.installed_wrappers()
        traced = worker.Pass(jobs, tracer)
    finally:
        tracer.remove()
    assert traced.failures == []
    assert tracer.by_name("cohomology.point_cohomology_dims")[0] == len(jobs)
    assert tracing.installed_wrappers() == []
    _, after = _lsakit_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_invalid_rung_is_a_setup_error():
    lsakit = worker.import_lsakit()
    bad = wl.point_algebra(lsakit, 2, {(0, 0): [0, 1], (1, 1): [1, 0]})
    with pytest.raises(wl.SetupError):
        wl.certify(lsakit, "nonexample", bad)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert worker.tail_percentile(58) == 82
    assert worker.nearest_rank(list(range(58)), 82)[1] == 10
    assert worker.tail_percentile(4) == 100


def test_fails_cleanly_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("cli-corpus", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
