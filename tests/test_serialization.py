"""The report writer and the serializers against the standard library and
the dense views they replaced, and the parser's trusted construction
against the validating constructors."""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    frame_data_oracle,
    matrix_to_list_oracle,
    random_algebroid,
    random_poly,
    section_to_list_oracle,
    two_form_table_oracle,
)
from lsakit import cli
from lsakit.core import FormCochain, Section, _commutator_algebroid
from lsakit.instances import (
    CORPUS_NAMES,
    _two_form_to_table,
    algebroid_to_dict,
    corpus_path,
    lie_algebroid_to_dict,
    load_corpus,
    matrix_to_list,
    parse_instance_dict,
    section_to_list,
)
from lsakit.polyring import PolyMatrix, VectorField
from test_golden_reports import COMMANDS, PAPER_LITERAL

COORDS = (("x", "y"), ("x",), ())


# ---------------------------------------------------------------------------
# The JSON writer
# ---------------------------------------------------------------------------

def oracle_checked(monkeypatch) -> list:
    """Make every ``_json_text`` call compare itself with ``json.dumps``;
    the returned list collects the values written."""
    written = []
    writer = cli._json_text

    def checked(value):
        text = writer(value)
        assert text == json.dumps(value, indent=2)
        written.append(value)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)
    return written


@pytest.mark.parametrize("timestamp", [False, True])
@pytest.mark.parametrize("name", sorted(CORPUS_NAMES))
def test_every_report_is_written_as_json_dumps_writes_it(monkeypatch, name,
                                                         timestamp):
    written = oracle_checked(monkeypatch)
    for command in (*COMMANDS, PAPER_LITERAL):
        argv = [*command, str(corpus_path(name)),
                *([] if timestamp else ["--no-timestamp"])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        if out.getvalue():
            assert out.getvalue() == json.dumps(written[-1], indent=2) + "\n"
    # check and verify-all report on every file, derive on most
    assert len(written) >= 3
    assert all(("timestamp" in value) == timestamp for value in written)


JSON_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) \
    | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", " ", "\U0001F600",
                       "é\n\t\r\b\f", "</script>"])
JSON_LEAVES = st.none() | st.booleans() | JSON_TEXT \
    | st.integers(-2 ** 70, 2 ** 70) | st.sampled_from([0, -1, 2 ** 64])
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_the_writer_matches_json_dumps_on_drawn_values(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {1: "a"}, [{"a": [0.0]}], {"a": {None: 1}}, {"a": (1,)},
    Fraction(1, 2), b"bytes",
])
def test_the_writer_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


# ---------------------------------------------------------------------------
# Serialization from the sparse terms
# ---------------------------------------------------------------------------

def test_sections_and_matrices_serialize_as_their_dense_views():
    rng = random.Random(2601)
    for _ in range(300):
        coords = rng.choice(COORDS)
        section = Section(coords, [random_poly(rng, coords)
                                   for _ in range(rng.randint(1, 4))])
        assert section_to_list(section) == section_to_list_oracle(section)
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        matrix = PolyMatrix(coords, [[random_poly(rng, coords)
                                      for _ in range(cols)]
                                     for _ in range(rows)])
        assert matrix_to_list(matrix) == matrix_to_list_oracle(matrix)


def test_two_forms_serialize_as_their_antisymmetric_table():
    rng = random.Random(2602)
    for _ in range(300):
        coords = rng.choice(COORDS)
        rank = rng.randint(1, 5)
        form = FormCochain(coords, rank, 2, {
            (i, j): random_poly(rng, coords)
            for i in range(rank) for j in range(i + 1, rank)})
        assert _two_form_to_table(form) == two_form_table_oracle(form)


def test_frame_data_serializes_as_its_dense_views():
    rng = random.Random(2603)
    for _ in range(150):
        coords = rng.choice(COORDS)
        alg = random_algebroid(rng, coords, rng.randint(1, 3))
        assert algebroid_to_dict(alg) == \
            frame_data_oracle(alg, "structure", alg.c)
        lie = _commutator_algebroid(alg)
        assert lie_algebroid_to_dict(lie) == \
            frame_data_oracle(lie, "bracket", lie.b)


def test_drawn_tables_survive_a_round_trip_through_the_parser():
    rng = random.Random(2604)
    for _ in range(150):
        alg = random_algebroid(rng, rng.choice(COORDS), rng.randint(1, 3))
        parsed = parse_instance_dict(algebroid_to_dict(alg)).algebroid
        assert parsed.coords == alg.coords and parsed.rank == alg.rank
        assert parsed.c == alg.c
        assert parsed.anchor == alg.anchor


# ---------------------------------------------------------------------------
# Trusted construction in the parser
# ---------------------------------------------------------------------------

def parsed_values(instance) -> list:
    """Every Section, VectorField and PolyMatrix the parser built."""
    alg = instance.algebroid
    values = [sec for row in alg.c for sec in row] + list(alg.anchor)
    rep = instance.representation
    if rep is not None:
        values += [*rep.rho_mat, *rep.mu_mat]
    if instance.bilinear_form is not None:
        values.append(instance.bilinear_form)
    values += list(instance.endomorphisms.values())
    values += instance.kernel_frame
    for omega in (instance.deformation, instance.deformation_prime):
        if omega is not None:
            values += list(omega.terms.values())
    if instance.action is not None:
        algebra = instance.action.algebra
        values += [sec for row in algebra.c for sec in row]
        values += instance.action.vector_fields
    return values


def rebuilt(value):
    """The same value through its validating constructor."""
    if isinstance(value, Section):
        return Section(value.coords, value.components)
    if isinstance(value, VectorField):
        return VectorField(value.coords, value.components)
    return PolyMatrix(value.coords, value.entries)


@pytest.mark.parametrize("name", sorted(CORPUS_NAMES))
def test_parsed_values_equal_their_validated_rebuilds(name):
    values = parsed_values(load_corpus(name))
    kinds = {type(value) for value in values}
    assert {Section, VectorField} <= kinds
    for value in values:
        again = rebuilt(value)
        assert again == value and hash(again) == hash(value)
        assert again._shape == value._shape
        assert not any(entry.is_zero() for entry in value.terms.values())
    if name == "riemannian":
        assert PolyMatrix in kinds
