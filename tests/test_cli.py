"""Tests for instance parsing, the suite runner and the CLI contract."""

import contextlib
import copy
import io
import json
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_golden_reports import COMMANDS as GOLDEN_COMMANDS

from lsakit import cli, cohomology, constructions, instances
from lsakit.cli import build_parser, derive, main, run_suite
from lsakit.constructions import semidirect_lsa
from lsakit.core import build_left_mult_rep, check_left_symmetric
from lsakit.errors import ParseError, SchemaError
from lsakit.polyring import parse_poly
from lsakit.instances import (
    CORPUS_NAMES,
    algebroid_to_dict,
    corpus_path,
    load_corpus,
    parse_instance,
    parse_instance_dict,
)

FLAT = {
    "name": "flat",
    "coordinates": ["x", "y"],
    "rank": 2,
    "structure": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
    "anchor": [["1", "0"], ["0", "1"]],
}


def write_instance(tmp_path, data, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_flat_instance(tmp_path):
    instance = parse_instance(write_instance(tmp_path, FLAT))
    assert instance.algebroid.rank == 2
    assert instance.algebroid.n == 2
    assert instance.digest
    assert check_left_symmetric(instance.algebroid).passed


def test_parse_rejects_bad_polynomial(tmp_path):
    data = dict(FLAT)
    data["structure"] = [[["x**2", "0"], ["0", "0"]],
                         [["0", "0"], ["0", "0"]]]
    with pytest.raises(ParseError) as err:
        parse_instance(write_instance(tmp_path, data))
    assert err.value.position == 2
    assert "structure[0][0][0]" in str(err.value)


def test_parse_rejects_wrong_anchor_shape(tmp_path):
    data = dict(FLAT)
    data["anchor"] = [["1", "0", "0"], ["0", "1"]]
    with pytest.raises(SchemaError) as err:
        parse_instance(write_instance(tmp_path, data))
    assert err.value.path == "anchor[0]"


def test_parse_rejects_unknown_variable():
    data = dict(FLAT)
    data["anchor"] = [["z", "0"], ["0", "1"]]
    with pytest.raises(ParseError) as err:
        parse_instance_dict(data)
    assert "anchor[0][0]" in str(err.value)


def test_parse_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        parse_instance(path)


def test_parse_missing_blocks_are_none(tmp_path):
    instance = parse_instance(write_instance(tmp_path, FLAT))
    assert instance.representation is None
    assert instance.bilinear_form is None
    assert instance.endomorphisms == {}
    assert instance.deformation is None


def polynomial_texts(node, inside_list=False):
    """Every string in a list, at any depth under ``node``."""
    if isinstance(node, str):
        if inside_list:
            yield node
    elif isinstance(node, (list, dict)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from polynomial_texts(child, isinstance(node, list))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_each_polynomial_text_is_parsed_once_per_file(monkeypatch, name):
    data = json.loads(corpus_path(name).read_text())
    coords = tuple(data["coordinates"])
    expected = {(text, coords) for key, value in data.items()
                if key not in ("coordinates", "action")
                for text in polynomial_texts(value)}
    if "action" in data:
        block = data["action"]
        expected |= {(text, ()) for text in polynomial_texts(
            block["algebra"]["structure"])}
        expected |= {(text, tuple(block["coordinates"]))
                     for text in polynomial_texts(block["vector_fields"])}
    calls = []

    def recorded(text, coords):
        calls.append((text, coords))
        return parse_poly(text, coords)

    monkeypatch.setattr(instances, "parse_poly", recorded)
    instance = parse_instance(corpus_path(name))
    assert sorted(calls) == sorted(expected)
    # every entry equals its own parse, shared or not
    alg = instance.algebroid
    assert [[list(sec.components) for sec in row] for row in alg.c] == \
        [[[parse_poly(text, coords) for text in sec] for sec in row]
         for row in data["structure"]]
    assert [list(field.components) for field in alg.anchor] == \
        [[parse_poly(text, coords) for text in field]
         for field in data["anchor"]]


def test_parse_errors_keep_their_paths_past_repeated_entries():
    # the first rows repeat one section; the memo must not hide the
    # schema error of a later entry, nor hash a list while looking it up
    data = dict(FLAT)
    data["structure"] = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", ["0"]]]]
    with pytest.raises(SchemaError) as err:
        parse_instance_dict(data)
    assert str(err.value) == "structure[1][1][1]: expected str, got list"
    data["structure"] = [[["0", "0"], ["0", "0"]], [["x", "0"], ["x^", 1]]]
    with pytest.raises(ParseError) as err:
        parse_instance_dict(data)
    assert "structure[1][1][0]" in str(err.value)


def test_two_files_parsed_concurrently_match_the_serial_parses():
    # the parse memo lives for one call, so threads share nothing
    names = ("riemannian", "point_e1e2")

    def outcome(name):
        instance = parse_instance(corpus_path(name))
        return [rec.to_dict() for rec in run_suite(instance, "all").records]

    serial = [outcome(name) for name in names]
    rounds = 4
    results = [[None] * rounds for _ in names]
    barrier = threading.Barrier(len(names))

    def work(slot):
        for k in range(rounds):
            barrier.wait(timeout=60)
            results[slot][k] = outcome(names[slot])

    threads = [threading.Thread(target=work, args=(slot,))
               for slot in range(len(names))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so the two parses interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[expected] * rounds for expected in serial]


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def test_corpus_loads_and_axioms():
    for name in CORPUS_NAMES:
        instance = load_corpus(name)
        expected = name != "nonexample"
        assert check_left_symmetric(instance.algebroid).passed == expected


def test_double_matches_semidirect_construction():
    base = load_corpus("point_e1e2")
    double = load_corpus("double_e1e2")
    rep = build_left_mult_rep(base.algebroid)
    built = semidirect_lsa(base.algebroid, rep)
    assert algebroid_to_dict(built) == algebroid_to_dict(double.algebroid)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def test_run_suite_axioms_only():
    report = run_suite(load_corpus("flat"), "axioms")
    assert report.passed
    assert all(rec.name.startswith("axioms/") for rec in report.records)


def test_run_suite_stops_after_failed_axioms():
    report = run_suite(load_corpus("nonexample"), "all")
    assert not report.passed
    assert all(rec.name.startswith("axioms/") for rec in report.records)


def test_run_suite_all_passes_on_corpus():
    for name in CORPUS_NAMES:
        if name == "nonexample":
            continue
        assert run_suite(load_corpus(name), "all").passed


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_suite(load_corpus("flat"), "everything")


def test_run_suite_cohomology_skips_the_sub_adjacent(monkeypatch):
    def refuse(alg):
        raise AssertionError("the cohomology suite needs no sub-adjacent")

    monkeypatch.setattr(cli, "sub_adjacent", refuse)
    report = run_suite(load_corpus("zero_r2"), "cohomology")
    assert report.passed
    assert {rec.name.split("/")[0] for rec in report.records} \
        == {"axioms", "cohomology"}


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def test_derive_sub_adjacent_round_trips():
    derived = derive(load_corpus("point_e1e2"), "sub-adjacent")
    assert derived["bracket"][0][1] == ["0", "1"]
    assert derived["bracket"][1][0] == ["0", "-1*1"] or \
        derived["bracket"][1][0] == ["0", "-1"]


def test_derive_action_rebuilds_instance():
    instance = load_corpus("action")
    derived = derive(instance, "action")
    assert derived == algebroid_to_dict(instance.algebroid)


def test_derive_semidirect():
    derived = derive(load_corpus("point_e1e2"), "semidirect")
    assert derived["rank"] == 4
    rebuilt = parse_instance_dict({
        "coordinates": derived["coordinates"],
        "rank": derived["rank"],
        "structure": derived["structure"],
        "anchor": derived["anchor"],
    })
    assert check_left_symmetric(rebuilt.algebroid).passed


def test_derive_phase_space():
    derived = derive(load_corpus("flat"), "phase-space")
    assert derived["closed"] == "pass"
    assert derived["phase_space"]["rank"] == 4


def test_derive_requires_blocks():
    with pytest.raises(SchemaError):
        derive(load_corpus("riemannian"), "semidirect")
    with pytest.raises(SchemaError):
        derive(load_corpus("riemannian"), "action")


# ---------------------------------------------------------------------------
# command-line contract
# ---------------------------------------------------------------------------

def test_main_check_exit_codes(capsys):
    assert main(["check", str(corpus_path("flat")), "--no-timestamp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass"
    assert payload["tool"] == "lsakit"

    assert main(["check", str(corpus_path("nonexample")),
                 "--no-timestamp"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "fail"
    witnesses = [w for rec in payload["checks"] for w in rec["witnesses"]]
    assert any("(e_1,e_2,e_2)" in w for w in witnesses)


def test_main_after_a_bad_flag_in_the_same_process(capsys):
    argv = ["verify-all", str(corpus_path("flat")), "--no-timestamp"]
    assert main(argv) == 0
    before = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == before
    assert build_parser() is build_parser()


def test_main_schema_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"coordinates": [], "rank": 1,
                                "structure": [[["0"]]],
                                "anchor": [["1"]]}))
    assert main(["check", str(path)]) == 2
    assert "anchor" in capsys.readouterr().err

    assert main(["check", str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_main_cohomology_point_dims(capsys):
    assert main(["cohomology", "--point", "--max-degree", "3",
                 str(corpus_path("zero_r2")), "--no-timestamp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    dims = next(rec for rec in payload["checks"]
                if rec["name"] == "cohomology/point-dims")
    assert "degree 1: cochains 2, cocycles 2, coboundaries 0, cohomology 2" \
        in dims["witnesses"]
    assert any("cohomology 4" in w for w in dims["witnesses"])


@pytest.mark.parametrize("argv", [
    ["cohomology", "--point", "--max-degree", "-1"],
    ["verify-all", "--max-degree", "-2"],
])
def test_main_negative_max_degree_exit_2(capsys, argv):
    assert main([*argv, str(corpus_path("zero_r2")), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-degree must be at least 0" in captured.err


def test_main_max_degree_zero_reports_degree_zero(capsys):
    assert main(["cohomology", "--point", "--max-degree", "0",
                 str(corpus_path("zero_r2")), "--no-timestamp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    dims = next(rec for rec in payload["checks"]
                if rec["name"] == "cohomology/point-dims")
    assert dims["witnesses"] == ["degree-0 space 1, closed 1"]


def broken_representation(name: str) -> dict:
    """A corpus file whose representation block fails the identities:
    over the point rho(e_2) and mu(e_1) are changed, and on the flat
    plane rho(e_1) = d/dx + y E_11 no longer commutes with
    rho(e_2) = d/dy."""
    data = json.loads(corpus_path(name).read_text())
    rep = data["representation"]
    if name == "point_e1e2":
        rep["rho"][1] = [["0", "1"], ["0", "0"]]
        rep["mu"][0] = [["0", "1"], ["2", "0"]]
    else:
        rep["rho"][0] = [["y", "0"], ["0", "0"]]
    return data


@pytest.mark.parametrize("name", ["point_e1e2", "flat"])
def test_main_reports_an_invalid_representation(tmp_path, capsys, name):
    # point-dims and the O-operator's semidirect product need a valid
    # representation; they fail with the reason instead of aborting
    path = write_instance(tmp_path, broken_representation(name))
    assert main(["verify-all", str(path), "--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    status = {rec["name"]: (rec["status"], rec["witnesses"])
              for rec in json.loads(captured.out)["checks"]}
    assert status["representation/valid"] == ("fail", [])
    assert status["o-operator/tilde-nijenhuis"] == (
        "fail", ["input is not a Lie algebroid representation"])
    reason = ("fail", ["(rho, mu) fails the representation identities"])
    assert status["cohomology/rep-d-squared"] == reason
    if name == "point_e1e2":
        assert status["cohomology/point-dims"] == reason
        assert main(["cohomology", "--point", str(path),
                     "--no-timestamp"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        records = json.loads(captured.out)["checks"]
        assert [rec["status"] for rec in records
                if rec["name"] == "cohomology/point-dims"] == ["fail"]
    else:
        assert "cohomology/point-dims" not in status


def small_representation(name: str, T) -> dict:
    """A corpus file with a rank-1 zero representation and ``T`` as its
    O-operator."""
    data = json.loads(corpus_path(name).read_text())
    data["representation"] = {"rank": 1, "rho": [[["0"]]] * data["rank"]}
    data["endomorphisms"]["T"] = T
    return data


@pytest.mark.parametrize("name", ["point_e1e2", "flat"])
def test_main_reads_T_into_the_representation_bundle(tmp_path, capsys, name):
    # T maps the rank-1 representation bundle to E: it is 2x1, and a 2x2
    # T is refused where it is parsed
    path = str(write_instance(tmp_path, small_representation(
        name, [["1"], ["0"]])))
    assert main(["verify-all", path, "--no-timestamp"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    statuses = [rec["status"] for rec in json.loads(captured.out)["checks"]
                if rec["name"].startswith("o-operator/")]
    assert statuses == ["pass"] * 4
    # deform and cohomology --coboundary need a square endomorphism
    commands = [["deform", "--nijenhuis", "T"]]
    if name == "point_e1e2":
        commands += [["cohomology", "--coboundary", "T"],
                     ["deform", "--equivalence", "T"]]
    for argv in commands:
        assert main([*argv, path]) == 2
        assert capsys.readouterr().err == \
            "error: endomorphisms.T: must be square, got 2x1\n"
    square = write_instance(tmp_path, small_representation(
        name, [["1", "0"], ["0", "1"]]), "square.json")
    assert main(["verify-all", str(square)]) == 2
    assert capsys.readouterr().err == \
        "error: endomorphisms.T[0]: expected 1 entries, got 2\n"


def test_point_dims_decide_the_representation_once(monkeypatch):
    # verify-all decides the file's pair in derived_reps' gate and hands
    # the verdict to representation/valid, rep-d-squared and point-dims;
    # cohomology --point decides it there, once for both
    calls = []
    original = cli.check_representation_lsa

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (cli, cohomology, constructions):
        monkeypatch.setattr(module, "check_representation_lsa", counted)
    for name in ("point_e1e2", "flat"):
        instance = load_corpus(name)
        for suite in ("all", "cohomology"):
            del calls[:]
            report = run_suite(instance, suite)
            assert report.passed
            assert report.record("cohomology/rep-d-squared").status == "pass"
            assert sum(rep is instance.representation
                       for _, rep in calls) == 1


@pytest.mark.parametrize("name, frame, record, message", [
    ("ladder", [["1", "0"]], "kernel-frame",
     "section e_1 has nonzero anchor image"),
    ("ladder", [["0", "x"]], "ad-closes-on-frame", "frame admits no square"),
    ("point_e1e2", [["0", "0"]], "ad-closes-on-frame",
     "frame admits no square"),
    ("point_e1e2", [["1", "0"], ["1", "0"]], "ad-closes-on-frame",
     "frame admits no square"),
])
def test_main_reports_an_ill_posed_kernel_frame(tmp_path, capsys, name,
                                               frame, record, message):
    # the library raises; verify-all fails one kernel record with the
    # reason instead of aborting
    data = json.loads(corpus_path(name).read_text())
    data["kernel_frame"] = frame
    path = write_instance(tmp_path, data)
    assert main(["verify-all", str(path), "--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    kernel = [(rec["name"], rec["status"], rec["witnesses"])
              for rec in json.loads(captured.out)["checks"]
              if rec["name"].startswith("kernel/")]
    assert len(kernel) == 1
    assert kernel[0][:2] == (f"kernel/{record}", "fail")
    assert len(kernel[0][2]) == 1 and kernel[0][2][0].startswith(message)


def test_seed_changes_no_output(tmp_path):
    # nothing is sampled: --seed is accepted and has no effect
    paths = [corpus_path(name) for name in sorted(CORPUS_NAMES)]
    paths += [write_instance(tmp_path, broken_representation(name),
                             f"broken_{name}.json")
              for name in ("point_e1e2", "flat")]
    for path in paths:
        for command in GOLDEN_COMMANDS:
            runs = []
            for seed in ("0", "987654321"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main([*command, str(path), "--no-timestamp",
                                 "--seed", seed])
                runs.append((code, out.getvalue()))
            assert runs[0] == runs[1], (path.name, command)


def test_main_cohomology_cocycle_and_coboundary(capsys):
    assert main(["cohomology", "--cocycle", str(corpus_path("point_e1e2")),
                 "--no-timestamp"]) == 0
    capsys.readouterr()
    # the bundled candidate is the differential of N2
    assert main(["cohomology", "--coboundary", "N2",
                 str(corpus_path("point_e1e2")), "--no-timestamp"]) == 0
    capsys.readouterr()
    # but not of N
    assert main(["cohomology", "--coboundary", "N",
                 str(corpus_path("point_e1e2")), "--no-timestamp"]) == 1
    capsys.readouterr()
    # the zero_r2 candidate is closed yet not a coboundary
    assert main(["cohomology", "--cocycle", str(corpus_path("zero_r2")),
                 "--no-timestamp"]) == 0
    capsys.readouterr()
    assert main(["cohomology", "--coboundary", "N",
                 str(corpus_path("zero_r2")), "--no-timestamp"]) == 1
    capsys.readouterr()


def test_main_deform_subcommands(capsys):
    assert main(["deform", "--nijenhuis", "N",
                 str(corpus_path("point_e1e2")), "--no-timestamp"]) == 0
    capsys.readouterr()
    assert main(["deform", "--deformation", str(corpus_path("zero_r2")),
                 "--no-timestamp"]) == 0
    capsys.readouterr()
    assert main(["deform", "--equivalence", "N2",
                 str(corpus_path("point_e1e2")), "--no-timestamp"]) == 0
    capsys.readouterr()
    assert main(["deform", "--equivalence", "N",
                 str(corpus_path("zero_r2")), "--no-timestamp"]) == 1
    capsys.readouterr()
    assert main(["deform", "--nijenhuis", "missing",
                 str(corpus_path("point_e1e2"))]) == 2
    capsys.readouterr()


def test_main_paper_literal_flag(capsys):
    # N = identity passes the default condition and the literal variant
    # (all four terms cancel pairwise at scale 1)
    assert main(["deform", "--nijenhuis", "N", "--paper-literal",
                 str(corpus_path("flat")), "--no-timestamp"]) == 0
    capsys.readouterr()


def test_main_text_format(capsys):
    assert main(["check", str(corpus_path("flat")), "--format", "text",
                 "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert "axioms/associator-symmetry" in out
    assert "overall: pass" in out


def test_main_derive_action(capsys):
    assert main(["derive", "--action", str(corpus_path("action")),
                 "--no-timestamp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["derived"]["anchor"] == [["x"]]


def test_reports_are_deterministic(capsys):
    outputs = []
    for _ in range(2):
        assert main(["verify-all", str(corpus_path("zero_r2")),
                     "--no-timestamp"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_timestamp_present_by_default(capsys):
    assert main(["check", str(corpus_path("flat"))]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "timestamp" in payload
    assert main(["check", str(corpus_path("flat")), "--no-timestamp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "timestamp" not in payload


# ---------------------------------------------------------------------------
# ill-posed and oversized input
# ---------------------------------------------------------------------------

ACTION = {
    "algebra": {"rank": 1, "structure": [[["0"]]]},
    "coordinates": ["u"],
    "vector_fields": [["u"]],
}


def with_block(path: str, value) -> dict:
    """FLAT with the dotted ``path`` set to ``value``."""
    data = json.loads(json.dumps(dict(FLAT, action=ACTION,
                                      representation={"rank": 1,
                                                      "rho": [[["0"]]] * 2})))
    *heads, last = path.split(".")
    block = data
    for head in heads:
        block = block[head]
    block[last] = value
    return data


@pytest.mark.parametrize("path, names, where", [
    ("coordinates", ["x", "x"], "coordinates[1]"),
    ("coordinates", ["x", "1y"], "coordinates[1]"),
    ("action.coordinates", ["u", "u"], "action.coordinates[1]"),
    ("action.coordinates", ["u v"], "action.coordinates[0]"),
])
def test_main_rejects_ill_posed_coordinates(tmp_path, capsys, path, names,
                                            where):
    data = with_block(path, names)
    if path == "coordinates":
        data["anchor"] = [["1", "0"], ["0", "1"]]
    with pytest.raises(SchemaError) as err:
        parse_instance_dict(data)
    assert err.value.path == where
    assert main(["check", str(write_instance(tmp_path, data))]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}: ")


@pytest.mark.parametrize("path", ["rank", "representation.rank",
                                  "action.algebra.rank"])
def test_main_rejects_bool_ranks(tmp_path, capsys, path):
    data = with_block(path, True)
    with pytest.raises(SchemaError) as err:
        parse_instance_dict(data)
    assert err.value.path == path
    assert main(["check", str(write_instance(tmp_path, data))]) == 2
    assert capsys.readouterr().err == \
        f"error: {path}: expected int, got bool\n"


@pytest.mark.parametrize("path", ["rank", "representation.rank",
                                  "action.algebra.rank"])
@pytest.mark.parametrize("value", [0, -1])
def test_main_rejects_ranks_below_one(tmp_path, capsys, path, value):
    data = with_block(path, value)
    with pytest.raises(SchemaError) as err:
        parse_instance_dict(data)
    assert err.value.path == path
    instance = str(write_instance(tmp_path, data))
    for argv in (["check", instance], ["derive", instance, "--action"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: must be positive\n"


@pytest.mark.parametrize("entry, message", [
    ("x^40", "power degree 40 exceeds limit 16"),
    ("(" * 3000 + "x" + ")" * 3000, "parentheses nested deeper than 64"),
    ("x^" + "9" * 5000, "integer literal too long"),
    ("2^20000", "power coefficient too long"),
    ("2^100000", "power coefficient too long"),
    ("10^4000*10^4000", "coefficient too long"),
])
def test_main_load_failures_exit_2(tmp_path, capsys, entry, message):
    data = dict(FLAT, structure=[[[entry, "0"], ["0", "0"]],
                                 [["0", "0"], ["0", "0"]]])
    assert main(["check", str(write_instance(tmp_path, data))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: structure[0][0][0]: {message}")
    assert "Traceback" not in err


def test_main_deeply_nested_json_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: $: invalid JSON")


def test_main_missing_deformation_exit_2(capsys):
    flat = str(corpus_path("flat"))
    for argv in (["cohomology", "--cocycle"], ["cohomology", "--coboundary",
                                               "N"],
                 ["deform", "--deformation"], ["deform", "--equivalence",
                                               "N"]):
        assert main([*argv, flat]) == 2
        assert capsys.readouterr().err == "error: deformation: missing\n"


@pytest.mark.parametrize("mutate, err", [
    (lambda d: d["deformation"]["values"].__setitem__(1, [["0", "0"]]),
     "deformation.values[1]: expected 2 entries, got 1"),
    (lambda d: d["deformation"]["values"].__setitem__(0, "0"),
     "deformation.values[0]: expected list, got str"),
    (lambda d: d["deformation"]["values"][0].__setitem__(1, 7),
     "deformation.values[0][1]: expected list, got int"),
    (lambda d: d["deformation"]["values"][0][1].__setitem__(1, "1+"),
     "deformation.values[0][1][1]: unexpected end of input at position 2 "
     "(expected a number, a variable, or '(')"),
    (lambda d: d["deformation"].pop("values"),
     "deformation.values: expected list, got NoneType"),
], ids=["short-row", "non-list-row", "non-list-cell", "bad-polynomial",
        "missing-key"])
def test_main_malformed_deformation_values_exit_2(tmp_path, capsys, mutate,
                                                  err):
    data = json.loads(corpus_path("zero_r2").read_text())
    mutate(data)
    path = str(write_instance(tmp_path, data))
    for argv in (["check"], ["deform", "--deformation"]):
        assert main([*argv, path]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


# ---------------------------------------------------------------------------
# fuzzing the input boundary
# ---------------------------------------------------------------------------

# every CLI command, with N as the named endomorphism
FUZZ_COMMANDS = (
    ["check"], ["verify-all"], ["derive", "--sub-adjacent"],
    ["derive", "--phase-space"], ["derive", "--semidirect"],
    ["derive", "--action"], ["cohomology", "--point"],
    ["cohomology", "--cocycle"], ["cohomology", "--coboundary", "N"],
    ["deform", "--nijenhuis", "N"], ["deform", "--deformation"],
    ["deform", "--equivalence", "N"],
)
DELETE = object()


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)) and node:
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _leaf_paths(node[key], path + (key,))
    else:
        yield path


CORPUS_DATA = {name: json.loads(corpus_path(name).read_text())
               for name in CORPUS_NAMES}
CORPUS_LEAVES = [(name, path) for name in CORPUS_NAMES
                 for path in _leaf_paths(CORPUS_DATA[name])]
LEAF_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 1000),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "x^", "1/0", "((x", "q", "x**2", "2^x", "e_1"]),
    st.sampled_from([[], ["0"], [["0"]], {}, {"N": "0"}]),
    st.just(DELETE))


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(CORPUS_LEAVES), LEAF_VALUES)
def test_main_mutated_corpus_keeps_the_exit_code_contract(tmp_path, leaf,
                                                          value):
    name, path = leaf
    data = copy.deepcopy(CORPUS_DATA[name])
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    file = str(write_instance(tmp_path, data))
    for command in FUZZ_COMMANDS:
        argv = [*command, file, "--no-timestamp"]
        first = _run_cli(argv)
        assert first[0] in (0, 1, 2)
        assert "Traceback" not in first[2]
        assert _run_cli(argv) == first
