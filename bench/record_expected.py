"""Record the expected-result table ``expected.json``.

Run once, from the repository root, when the table is (re)recorded:

    python3 bench/record_expected.py

Each entry says where its value came from.  The CLI rows are lsakit's own
exit codes and report hashes at the recording commit (the CLI promises
byte-identical ``--no-timestamp`` reports, and the rows are checked to be
the same for two seeds).  The graded rows are lists of records that must
all pass, since every ladder instance is valid by theorem.  The cohomology
rows are cross-checked here against ranks computed by sympy from the
dense oracle ``oracle_dense_matrix`` in ``tests/test_cohomology.py``
(degrees 1 and up) and from an independent construction of the degree-0
space and its differential.  Recording needs sympy and pytest; running
the benchmark does not.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(HERE))

import lsakit  # noqa: E402
import lsakit.cli  # noqa: E402
import workloads as wl  # noqa: E402


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def record_cli(commit: str) -> dict:
    table = {}
    for name, command in wl.cli_job_keys(wl.CORPUS):
        rows = set()
        for seed in (0, 1):
            argv = [*command, str(wl.CORPUS_DIR / f"{name}.json"),
                    "--no-timestamp", "--seed", str(seed)]
            rows.add(wl.cli_result(wl.cli_call(lsakit.cli, argv)()))
        if len(rows) != 1:
            raise SystemExit(f"{name} {command}: report depends on the seed")
        code, digest = rows.pop()
        table[wl.cli_key(name, command)] = {
            "exit": code, "stdout_sha256": digest,
            "source": f"lsakit cli at {commit}, identical for seeds 0 and 1"}
    return table


def record_graded(commit: str) -> dict:
    table = {}
    for name, grade, degree in wl.GRADED_RUNGS + wl.TINY_GRADED_RUNGS:
        alg, _ = wl.build_instance(lsakit, name)
        spec = lsakit.GradedSampleSpec(max_grade=grade,
                                       max_coeff_degree=degree)
        report = lsakit.check_graded_properties(alg, spec)
        if not report.passed:
            raise SystemExit(f"{name}: graded identities fail on a valid "
                             f"instance: {report.failures()}")
        table[wl.graded_key(name, grade, degree)] = {
            "records": [r.name for r in report.records],
            "source": "every record passes by theorem; record list from "
                      f"lsakit at {commit}"}
    return table


def oracle_dims(alg, rep, n_max: int) -> dict:
    """Dimensions from sympy ranks of matrices built without lsakit's
    assembly or elimination."""
    import sympy
    from test_cohomology import oracle_dense_matrix

    r, s = alg.rank, rep.s
    rho = [sympy.Matrix(m.to_rational()) for m in rep.rho_mat]
    mu = [sympy.Matrix(m.to_rational()) for m in rep.mu_mat]
    c = [[[comp.constant_value() for comp in alg.c[i][j].components]
          for j in range(r)] for i in range(r)]
    # degree 0: rho_i rho_j e = rho_(e_i e_j) e for all i, j
    conditions = sympy.Matrix.vstack(*[
        rho[i] * rho[j] - sum((c[i][j][k] * rho[k] for k in range(r)),
                              sympy.zeros(s, s))
        for i in range(r) for j in range(r)])
    d0 = sympy.Matrix.vstack(*[mu[j] - rho[j] for j in range(r)])
    c0_dim = s - conditions.rank()
    c0_closed = s - sympy.Matrix.vstack(conditions, d0).rank()
    previous_rank = c0_dim - c0_closed
    degrees = []
    for k in range(1, n_max + 1):
        # cochains: increasing leading tuple, free last slot, value index
        dim_c = math.comb(r, k - 1) * r * s
        rows = oracle_dense_matrix(alg, rep, k)
        rank = sympy.Matrix(len(rows), dim_c,
                            [v for row in rows for v in row]).rank()
        dim_z = dim_c - rank
        degrees.append([k, dim_c, dim_z, previous_rank,
                        dim_z - previous_rank])
        previous_rank = rank
    return {"c0": [c0_dim, c0_closed], "degrees": degrees}


def record_cohomology(commit: str) -> dict:
    import sympy
    table = {}
    for name, which, degree in wl.COHOMOLOGY_RUNGS + \
            wl.TINY_COHOMOLOGY_RUNGS:
        alg, rep = wl.build_instance(lsakit, name)
        if which == "left":
            rep = lsakit.build_left_mult_rep(alg)
        got = wl.cohomology_dims(lsakit.point_cohomology_dims(alg, rep,
                                                              degree))
        oracle = oracle_dims(alg, rep, degree)
        if got != oracle:
            raise SystemExit(f"{name}: lsakit {got} != oracle {oracle}")
        table[wl.cohomology_key(name, which, degree)] = {
            "dims": got,
            "fields": "c0 = [dim C0, dim closed C0]; degrees = [degree, "
                      "cochains, cocycles, coboundaries, cohomology]",
            "source": f"lsakit at {commit}; equal to sympy {sympy.__version__}"
                      " ranks of tests/test_cohomology.py:oracle_dense_matrix"
                      " and of an independent degree-0 construction"}
    return table


def main() -> int:
    commit = _commit()
    table = {"cli-corpus": record_cli(commit),
             "graded-ladder": record_graded(commit),
             "point-cohomology": record_cohomology(commit)}
    with open(wl.EXPECTED_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {wl.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
