"""Instance files: the JSON schema, validation, and the bundled corpus.

An instance file declares coordinates, a rank, the frame product table
and the anchor, plus optional blocks: a representation (matrix tables),
a bilinear form, named endomorphisms, a kernel frame, a deformation
candidate (values and symbols), an alternate deformation candidate for
equivalence runs, and the data of an action construction.  All
polynomial entries are strings in the expression grammar and are parsed
against the declared coordinates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from ._lexer import IDENTIFIER_RE
from .cohomology import MultiDerivation
from .core import LieAlgebroid, LSAlgebroid, Representation, Section
from .deformations import deformation_from_tables
from .errors import DegreeOverflow, ParseError, SchemaError
from .polyring import Poly, PolyMatrix, VectorField, parse_poly


@dataclass
class ActionBlock:
    algebra: LSAlgebroid
    coordinates: tuple[str, ...]
    vector_fields: list[VectorField]


@dataclass
class InstanceFile:
    name: str
    description: str
    algebroid: LSAlgebroid
    representation: Representation | None = None
    bilinear_form: PolyMatrix | None = None
    endomorphisms: dict[str, PolyMatrix] = field(default_factory=dict)
    kernel_frame: list[Section] = field(default_factory=list)
    deformation: MultiDerivation | None = None
    deformation_prime: MultiDerivation | None = None
    action: ActionBlock | None = None
    digest: str = ""


def _expect(data, kind, path: str):
    # bool is a subclass of int, but true is not a rank
    if not isinstance(data, kind) or kind is int and isinstance(data, bool):
        raise SchemaError(path, f"expected {kind.__name__}, "
                                f"got {type(data).__name__}")
    return data


def _expect_list(data, length, path: str):
    _expect(data, list, path)
    if length is not None and len(data) != length:
        raise SchemaError(path, f"expected {length} entries, got {len(data)}")
    return data


def _rank(block: dict, path: str) -> int:
    """The positive ``rank`` entry of ``block``, whose path is ``path``."""
    if "rank" not in block:
        raise SchemaError(path, "missing")
    rank = _expect(block["rank"], int, path)
    if rank < 1:
        raise SchemaError(path, "must be positive")
    return rank


# Every parser below takes ``memo``, one dict per parse_instance_dict
# call: (text, coords) -> Poly and (tuple of texts, coords) -> Section.
# A key is looked up only after the schema checks of its value, and an
# entry is stored only once its value parsed, so every error is raised
# at the same path as without the memo.  Values are immutable, so a
# repeated entry (most often "0") is one shared object.

def _poly(text, coords, path: str, memo: dict) -> Poly:
    _expect(text, str, path)
    key = (text, coords)
    poly = memo.get(key)
    if poly is None:
        try:
            poly = memo[key] = parse_poly(text, coords)
        except ParseError as err:
            raise ParseError(f"{path}: {err.message}", err.position,
                             err.expected) from None
        except DegreeOverflow as err:
            raise DegreeOverflow(f"{path}: {err}") from None
    return poly


def _coordinates(entries, path: str) -> tuple[str, ...]:
    _expect(entries, list, path)
    coords: list[str] = []
    for k, name in enumerate(entries):
        _expect(name, str, path)
        if not IDENTIFIER_RE.fullmatch(name):
            raise SchemaError(f"{path}[{k}]",
                              f"{name!r} is not an identifier")
        if name in coords:
            raise SchemaError(f"{path}[{k}]", f"duplicate coordinate {name!r}")
        coords.append(name)
    return tuple(coords)


def _section(entries, coords, rank, path: str, memo: dict) -> Section:
    _expect_list(entries, rank, path)
    # only a tuple of texts that parsed before can be found
    key = (tuple(entries), coords)
    section = memo.get(key) if all(isinstance(text, str)
                                   for text in entries) else None
    if section is None:
        section = memo[key] = Section(coords, [
            _poly(entries[k], coords, f"{path}[{k}]", memo)
            for k in range(rank)])
    return section


def _vector_field(entries, coords, path: str, memo: dict) -> VectorField:
    _expect_list(entries, len(coords), path)
    return VectorField(coords, [
        _poly(entries[m], coords, f"{path}[{m}]", memo)
        for m in range(len(coords))])


def _matrix(entries, coords, rows, cols, path: str, memo: dict) \
        -> PolyMatrix:
    _expect_list(entries, rows, path)
    table = []
    for i in range(rows):
        row = _expect_list(entries[i], cols, f"{path}[{i}]")
        table.append([_poly(row[j], coords, f"{path}[{i}][{j}]", memo)
                      for j in range(cols)])
    return PolyMatrix(coords, table)


def _structure_table(entries, coords, rank, path: str, memo: dict) \
        -> list[list[Section]]:
    _expect_list(entries, rank, path)
    table = []
    for i in range(rank):
        row = _expect_list(entries[i], rank, f"{path}[{i}]")
        table.append([_section(row[j], coords, rank, f"{path}[{i}][{j}]",
                               memo) for j in range(rank)])
    return table


def _representation(block, coords, rank, path: str,
                    memo: dict) -> Representation:
    _expect(block, dict, path)
    s = _rank(block, f"{path}.rank")
    rho_entries = _expect_list(block.get("rho"), rank, f"{path}.rho")
    rho = [_matrix(rho_entries[i], coords, s, s, f"{path}.rho[{i}]", memo)
           for i in range(rank)]
    if "mu" in block:
        mu_entries = _expect_list(block["mu"], rank, f"{path}.mu")
        mu = [_matrix(mu_entries[i], coords, s, s, f"{path}.mu[{i}]", memo)
              for i in range(rank)]
    else:
        mu = None
    return Representation(s, rho, mu)


def _deformation(block, coords, rank, path: str,
                 memo: dict) -> MultiDerivation:
    _expect(block, dict, path)
    values = _structure_table(block.get("values"), coords, rank,
                              f"{path}.values", memo)
    symbols_entries = _expect_list(block.get("symbols"), rank,
                                   f"{path}.symbols")
    symbols = [_vector_field(symbols_entries[i], coords,
                             f"{path}.symbols[{i}]", memo)
               for i in range(rank)]
    return deformation_from_tables(coords, rank, values, symbols)


def _action_block(block, path: str, memo: dict) -> ActionBlock:
    _expect(block, dict, path)
    algebra_block = _expect(block.get("algebra"), dict, f"{path}.algebra")
    g_rank = _rank(algebra_block, f"{path}.algebra.rank")
    g_structure = _structure_table(algebra_block.get("structure"), (), g_rank,
                                   f"{path}.algebra.structure", memo)
    algebra = LSAlgebroid((), g_rank, g_structure,
                          [VectorField.zero(()) for _ in range(g_rank)])
    coords = _coordinates(block.get("coordinates"), f"{path}.coordinates")
    fields_entries = _expect_list(block.get("vector_fields"), g_rank,
                                  f"{path}.vector_fields")
    fields = [_vector_field(fields_entries[i], coords,
                            f"{path}.vector_fields[{i}]", memo)
              for i in range(g_rank)]
    return ActionBlock(algebra, coords, fields)


def parse_instance_dict(data: dict, digest: str = "") -> InstanceFile:
    """Validate an instance's JSON data and build its values; each
    distinct polynomial text is parsed once per call."""
    _expect(data, dict, "$")
    coords = _coordinates(data.get("coordinates"), "coordinates")
    rank = _rank(data, "rank")
    memo: dict = {}

    structure = _structure_table(data.get("structure"), coords, rank,
                                 "structure", memo)
    anchor_entries = _expect_list(data.get("anchor"), rank, "anchor")
    anchor = [_vector_field(anchor_entries[i], coords, f"anchor[{i}]", memo)
              for i in range(rank)]
    algebroid = LSAlgebroid(coords, rank, structure, anchor)

    instance = InstanceFile(
        name=str(data.get("name", "instance")),
        description=str(data.get("description", "")),
        algebroid=algebroid,
        digest=digest,
    )
    if "representation" in data:
        instance.representation = _representation(data["representation"],
                                                  coords, rank,
                                                  "representation", memo)
    if "bilinear_form" in data:
        instance.bilinear_form = _matrix(data["bilinear_form"], coords,
                                         rank, rank, "bilinear_form", memo)
    if "endomorphisms" in data:
        block = _expect(data["endomorphisms"], dict, "endomorphisms")
        for key in sorted(block):
            # the O-operator T maps the representation's bundle to E
            cols = rank if key != "T" or instance.representation is None \
                else instance.representation.s
            instance.endomorphisms[key] = _matrix(
                block[key], coords, rank, cols, f"endomorphisms.{key}", memo)
    if "kernel_frame" in data:
        entries = _expect(data["kernel_frame"], list, "kernel_frame")
        instance.kernel_frame = [
            _section(entries[i], coords, rank, f"kernel_frame[{i}]", memo)
            for i in range(len(entries))]
    if "deformation" in data:
        instance.deformation = _deformation(data["deformation"], coords,
                                            rank, "deformation", memo)
    if "deformation_prime" in data:
        instance.deformation_prime = _deformation(data["deformation_prime"],
                                                  coords, rank,
                                                  "deformation_prime", memo)
    if "action" in data:
        instance.action = _action_block(data["action"], "action", memo)
    return instance


def parse_instance(path) -> InstanceFile:
    """Load and fully validate an instance file."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as err:
        raise SchemaError("$", f"invalid JSON: {err}") from None
    return parse_instance_dict(data, digest)


# ---------------------------------------------------------------------------
# Serialization of derived structures
# ---------------------------------------------------------------------------

def section_to_list(section: Section) -> list[str]:
    return [str(comp) for comp in section.components]


def _frame_data_to_dict(alg, key: str, table) -> dict:
    return {
        "coordinates": list(alg.coords),
        "rank": alg.rank,
        key: [[section_to_list(sec) for sec in row] for row in table],
        "anchor": [[str(comp) for comp in field.components]
                   for field in alg.anchor],
    }


def algebroid_to_dict(alg: LSAlgebroid) -> dict:
    return _frame_data_to_dict(alg, "structure", alg.c)


def lie_algebroid_to_dict(alg: LieAlgebroid) -> dict:
    return _frame_data_to_dict(alg, "bracket", alg.b)


def matrix_to_list(matrix: PolyMatrix) -> list[list[str]]:
    return [[str(matrix.entry(i, j)) for j in range(matrix.cols)]
            for i in range(matrix.rows)]


# ---------------------------------------------------------------------------
# Bundled corpus
# ---------------------------------------------------------------------------

CORPUS_NAMES = (
    "flat",
    "point_e1e2",
    "action",
    "nonexample",
    "riemannian",
    "ladder",
    "zero_r2",
    "double_e1e2",
)


def corpus_path(name: str) -> Path:
    base = resources.files(__package__) / "corpus" / f"{name}.json"
    return Path(str(base))


def load_corpus(name: str) -> InstanceFile:
    return parse_instance(corpus_path(name))
