"""The three benchmark workloads: their inputs, jobs and result checks.

A job is one call into lsakit's public API.  Every job's expected result
comes from ``expected.json``, which was recorded once and cross-checked
against independent oracles (see ``record_expected.py``); nothing here
asks the code under test what the answer should be.

Functions are looked up on their module at call time (``mod.name``), so
the tracer's wrappers are seen while it is installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "src" / "lsakit" / "corpus"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

CORPUS = ("action", "double_e1e2", "flat", "ladder", "nonexample",
          "point_e1e2", "riemannian", "zero_r2")
TINY_CORPUS = ("nonexample", "point_e1e2")

# Each CLI command with the instance blocks it needs; a file gets every
# command whose blocks it has.  "endomorphisms.N" means the N entry.
COMMANDS = (
    (("check",), ()),
    (("verify-all",), ()),
    (("derive", "--sub-adjacent"), ()),
    (("derive", "--phase-space"), ()),
    (("derive", "--semidirect"), ("representation",)),
    (("derive", "--action"), ("action",)),
    (("cohomology", "--point"), ()),
    (("cohomology", "--cocycle"), ("deformation",)),
    (("cohomology", "--coboundary", "N"), ("deformation", "endomorphisms.N")),
    (("deform", "--nijenhuis", "N"), ("endomorphisms.N",)),
    (("deform", "--deformation"), ("deformation",)),
    (("deform", "--equivalence", "N"), ("deformation", "endomorphisms.N")),
)

# (instance, max_grade, max_coeff_degree)
GRADED_RUNGS = (("flat", 3, 2), ("point_e1e2", 3, 2), ("euler_action", 2, 1),
                ("sum2_point_e1e2", 2, 1))
TINY_GRADED_RUNGS = (("point_e1e2", 2, 1), ("euler_action", 1, 1))

# (instance, representation, max degree); "own" is the file's block,
# "left" the left-multiplication representation.
COHOMOLOGY_RUNGS = (("zero_r2", "own", 3), ("point_e1e2", "own", 3),
                    ("double_e1e2", "left", 3), ("sum2_point_e1e2", "left", 3))
TINY_COHOMOLOGY_RUNGS = (("zero_r2", "own", 2), ("point_e1e2", "own", 2),
                         ("sum2_point_e1e2", "left", 1))

WORKLOADS = ("cli-corpus", "graded-ladder", "point-cohomology")


class SetupError(RuntimeError):
    """An input could not be built or failed certification."""


@dataclass
class Job:
    key: str                      # row of the expected-result table
    call: Callable[[], object]    # the timed call into lsakit
    check: Callable[[object], bool]   # raw result -> matches the table


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Ladder builders
# ---------------------------------------------------------------------------

def point_algebra(lsakit, rank: int, products: dict):
    """Algebra over a point from a sparse map (i, j) -> components."""
    coords = ()
    zero = lsakit.core.Section.zero(coords, rank)
    c = [[zero] * rank for _ in range(rank)]
    for (i, j), comps in products.items():
        c[i][j] = lsakit.core.Section(coords, [Fraction(v) for v in comps])
    anchor = [lsakit.polyring.VectorField.zero(coords)] * rank
    return lsakit.core.LSAlgebroid(coords, rank, c, anchor)


def direct_sum(lsakit, parts):
    """Direct sum of algebras over a point: block-diagonal products."""
    rank = sum(part.rank for part in parts)
    products = {}
    offset = 0
    for part in parts:
        if not part.is_point():
            raise SetupError("direct sums are built from point algebras")
        for i in range(part.rank):
            for j in range(part.rank):
                comps = [0] * rank
                for k, comp in enumerate(part.c[i][j].components):
                    comps[offset + k] = comp.constant_value()
                if any(comps):
                    products[(offset + i, offset + j)] = comps
        offset += part.rank
    return point_algebra(lsakit, rank, products)


def euler_action(lsakit):
    """e_i . e_i = e_i on two generators acting by x d/dx and y d/dy,
    assembled with ``action_algebroid``."""
    coords = ("x", "y")
    algebra = point_algebra(lsakit, 2, {(0, 0): [1, 0], (1, 1): [0, 1]})
    poly = lsakit.polyring
    zero = poly.Poly.zero(coords)
    fields = [poly.VectorField(coords, (poly.parse_poly("x", coords), zero)),
              poly.VectorField(coords, (zero, poly.parse_poly("y", coords)))]
    return lsakit.constructions.action_algebroid(algebra, fields, coords)


def certify(lsakit, name: str, alg):
    report = lsakit.core.check_left_symmetric(alg)
    if not report.passed:
        raise SetupError(f"ladder instance {name} fails the left-symmetric "
                         f"axioms: {[r.name for r in report.failures()]}")
    return alg


def build_instance(lsakit, name: str):
    """(algebroid, file representation or None), certified."""
    if name == "euler_action":
        alg, rep = euler_action(lsakit), None
    elif name.startswith("sum2_"):
        part = lsakit.instances.parse_instance(
            CORPUS_DIR / f"{name[5:]}.json").algebroid
        alg, rep = direct_sum(lsakit, [part, part]), None
    else:
        inst = lsakit.instances.parse_instance(CORPUS_DIR / f"{name}.json")
        alg, rep = inst.algebroid, inst.representation
    return certify(lsakit, name, alg), rep


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def _has_block(data: dict, block: str) -> bool:
    head, _, entry = block.partition(".")
    if head not in data:
        return False
    return not entry or entry in data[head]


def cli_job_keys(files) -> list[tuple[str, tuple[str, ...]]]:
    """(file, command) pairs: each file with every command it supports."""
    pairs = []
    for name in files:
        with open(CORPUS_DIR / f"{name}.json") as handle:
            data = json.load(handle)
        for command, blocks in COMMANDS:
            if all(_has_block(data, b) for b in blocks):
                pairs.append((name, command))
    return pairs


def cli_key(name: str, command) -> str:
    return f"{name}: {' '.join(command)}"


def _cli_jobs(lsakit, seed: int, tiny: bool, expected: dict) -> list[Job]:
    files = TINY_CORPUS if tiny else CORPUS
    # every input is parsed once at set-up; each job parses its file
    # again, as a user's run does
    for name in files:
        lsakit.instances.parse_instance(CORPUS_DIR / f"{name}.json")
    jobs = []
    for name, command in cli_job_keys(files):
        argv = [*command, str(CORPUS_DIR / f"{name}.json"),
                "--no-timestamp", "--seed", str(seed)]
        key = cli_key(name, command)
        want = expected[key]
        jobs.append(Job(key, cli_call(lsakit.cli, argv),
                        lambda raw, want=want: cli_result(raw) == (
                            want["exit"], want["stdout_sha256"])))
    return jobs


def cli_call(cli, argv):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out
    return call


def cli_result(raw) -> tuple[int, str]:
    """Exit code and SHA-256 of the captured stdout."""
    code, out = raw
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def graded_key(name: str, grade: int, degree: int) -> str:
    return f"{name} GradedSampleSpec({grade},{degree})"


def _graded_jobs(lsakit, tiny: bool, expected: dict) -> list[Job]:
    mv = lsakit.multivector
    jobs = []
    for name, grade, degree in TINY_GRADED_RUNGS if tiny else GRADED_RUNGS:
        alg, _ = build_instance(lsakit, name)
        spec = mv.GradedSampleSpec(max_grade=grade, max_coeff_degree=degree)
        key = graded_key(name, grade, degree)
        want = expected[key]["records"]
        jobs.append(Job(
            key, lambda alg=alg, spec=spec:
                mv.check_graded_properties(alg, spec),
            lambda got, want=want: [r.name for r in got.records] == want
                and all(r.status == "pass" for r in got.records)))
    return jobs


def cohomology_key(name: str, rep: str, degree: int) -> str:
    return f"{name} rep={rep} max_degree={degree}"


def cohomology_dims(result) -> dict:
    return {"c0": [result.c0_dim, result.c0_closed_dim],
            "degrees": [[d.degree, d.dim_cochains, d.dim_cocycles,
                         d.dim_coboundaries, d.dim_cohomology]
                        for d in result.degrees]}


def _cohomology_jobs(lsakit, tiny: bool, expected: dict) -> list[Job]:
    co = lsakit.cohomology
    jobs = []
    for name, which, degree in \
            TINY_COHOMOLOGY_RUNGS if tiny else COHOMOLOGY_RUNGS:
        alg, rep = build_instance(lsakit, name)
        if which == "left":
            rep = lsakit.core.build_left_mult_rep(alg)
        if rep is None:
            raise SetupError(f"{name} has no representation block")
        key = cohomology_key(name, which, degree)
        want = expected[key]["dims"]
        jobs.append(Job(
            key, lambda alg=alg, rep=rep, degree=degree:
                co.point_cohomology_dims(alg, rep, degree),
            lambda got, want=want: cohomology_dims(got) == want))
    return jobs


def build_jobs(lsakit, workload: str, seed: int, tiny: bool = False) \
        -> list[Job]:
    """Set-up: parse and build every input, certify it, and return the
    jobs of one pass in the order the seed gives."""
    expected = load_expected()[workload]
    if workload == "cli-corpus":
        jobs = _cli_jobs(lsakit, seed, tiny, expected)
    elif workload == "graded-ladder":
        jobs = _graded_jobs(lsakit, tiny, expected)
    elif workload == "point-cohomology":
        jobs = _cohomology_jobs(lsakit, tiny, expected)
    else:
        raise SetupError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(jobs)
    return jobs
