"""Byte-for-byte pins of the CLI reports that no other check pins.

``bench/expected.json`` pins the JSON stdout of the benchmark's twelve
commands.  This file pins the rest of acceptance criterion 9
(byte-identical ``--no-timestamp`` output): the ``--format text`` report
of the same twelve commands on every corpus file, and
``verify-all --paper-literal`` in both formats.  Each run's exit code
and the SHA-256 of its stdout and its stderr are compared with
``golden_reports.json``.

A deliberate change of output is re-recorded with
``PYTHONPATH=src python tests/test_golden_reports.py`` and listed in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from lsakit import cli
from lsakit.instances import CORPUS_NAMES, corpus_path

GOLDEN = Path(__file__).with_name("golden_reports.json")

COMMANDS = (
    ("check",), ("verify-all",), ("derive", "--sub-adjacent"),
    ("derive", "--phase-space"), ("derive", "--semidirect"),
    ("derive", "--action"), ("cohomology", "--point"),
    ("cohomology", "--cocycle"), ("cohomology", "--coboundary", "N"),
    ("deform", "--nijenhuis", "N"), ("deform", "--deformation"),
    ("deform", "--equivalence", "N"),
)
PAPER_LITERAL = ("verify-all", "--paper-literal")


def runs() -> list[tuple[str, tuple[str, ...], str]]:
    """(file, command, format) for every pinned run."""
    pinned = [(name, command, "text")
              for name in sorted(CORPUS_NAMES) for command in COMMANDS]
    pinned += [(name, PAPER_LITERAL, fmt)
               for name in sorted(CORPUS_NAMES) for fmt in ("json", "text")]
    return pinned


def key(name: str, command, fmt: str) -> str:
    return f"{name}: {' '.join(command)} --format {fmt}"


def digest(name: str, command, fmt: str) -> dict:
    """Exit code and stdout/stderr digests of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    argv = [*command, str(corpus_path(name)), "--no-timestamp",
            "--format", fmt]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def test_golden_covers_every_run():
    recorded = json.loads(GOLDEN.read_text())
    assert sorted(recorded) == sorted(key(*run) for run in runs())
    assert len(recorded) == 8 * 12 + 8 * 2


@pytest.mark.parametrize("name", sorted(CORPUS_NAMES))
def test_reports_match_golden_digests(name):
    recorded = json.loads(GOLDEN.read_text())
    for run in runs():
        if run[0] == name:
            assert digest(*run) == recorded[key(*run)], key(*run)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key(*run): digest(*run) for run in runs()},
                                 indent=1, sort_keys=True) + "\n")
