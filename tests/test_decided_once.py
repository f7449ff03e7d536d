"""Deformation, phase-space and frame identities decided by one
routine, and results the library has just decided not decided again,
against the loops they replaced (kept in ``helpers``)."""

import functools
import json
import random

from hypothesis import given, settings, strategies as st

import pytest
from helpers import (
    action_condition_oracle,
    action_instance,
    anchor_relation_oracle,
    associator_symmetry_oracle,
    deformation_cocycle_oracle,
    flat_instance,
    frame_data,
    intertwiner_oracle,
    ladder_instance,
    left_symmetric_anchor_oracle,
    lie_anchor_oracle,
    lsa_from_phase_oracle,
    lsa_homomorphism_oracle,
    nonexample,
    o_operator_homomorphism_oracle,
    phase_double_oracle,
    phase_space_report_oracle,
    point_algebra,
    point_e1e2,
    random_algebroid,
    random_esection,
    spy_minors,
    square_product_oracle,
    zero_point_algebra,
)
from lsakit import cli, cohomology, constructions, core, deformations
from lsakit import multivector
from lsakit.cohomology import MultiDerivation, def_d
from lsakit.constructions import (
    _double,
    action_algebroid,
    apply_O_operator,
    build_phase_space,
    lsa_from_phase,
    phase_iso_from_lsa_iso,
)
from lsakit.core import (
    LieAlgebroid,
    LSAlgebroid,
    Representation,
    Section,
    _morphism_failures,
    anchor_of_section,
    apply_endo,
    build_left_mult_rep,
    check_left_symmetric,
    check_lie_algebroid,
    check_lsa_homomorphism,
    section_mult,
    sub_adjacent,
)
from lsakit.deformations import (
    FORMAL,
    _deform,
    check_deformation,
    check_equivalence,
    check_nijenhuis,
    deformation_from_tables,
    extend_algebroid,
    fresh_parameter,
    trivial_deformation,
)
from lsakit.errors import NotAnAction, NotARepresentation, OmegaNotClosed
from lsakit.instances import (
    CORPUS_NAMES,
    algebroid_to_dict,
    corpus_path,
    parse_instance,
)
from lsakit.polyring import (
    Poly,
    PolyMatrix,
    VectorField,
    matrix_inverse_adjugate,
)

COCYCLE_RECORDS = ("cocycle-values", "cocycle-symbol")


def cocycle_statuses(alg, omega, report) -> tuple[str, str]:
    """Assert that the two cocycle records of ``report`` carry the
    oracle's status and its first five witnesses; return the statuses."""
    for name, witnesses in zip(COCYCLE_RECORDS,
                               deformation_cocycle_oracle(alg, omega)):
        record = report.record(name)
        assert record.status == ("fail" if witnesses else "pass")
        assert record.witnesses == tuple(witnesses[:5])
    return tuple(report.record(name).status for name in COCYCLE_RECORDS)


def square_product_status(alg, omega, report) -> str:
    """Assert that the square-product record carries the status and the
    first five witnesses of the r^3 loop; return the status."""
    witnesses = square_product_oracle(alg, omega)
    record = report.record("square-product")
    assert record.status == ("fail" if witnesses else "pass")
    assert record.witnesses == tuple(witnesses[:5])
    return record.status


# ---------------------------------------------------------------------------
# Cocycle records read off d(omega)
# ---------------------------------------------------------------------------

def test_corpus_deformation_blocks_match_the_cocycle_loops():
    checked = 0
    for name in sorted(CORPUS_NAMES):
        instance = parse_instance(corpus_path(name))
        for omega in (instance.deformation, instance.deformation_prime):
            if omega is not None:
                alg = instance.algebroid
                report = check_deformation(alg, omega)
                cocycle_statuses(alg, omega, report)
                square_product_status(alg, omega, report)
                checked += 1
    assert checked >= 2


def test_corpus_trivial_deformations_match_the_cocycle_loops():
    checked = 0
    for name in sorted(CORPUS_NAMES):
        instance = parse_instance(corpus_path(name))
        alg = instance.algebroid
        for key, endo in sorted(instance.endomorphisms.items()):
            if not key.startswith("N") or not check_nijenhuis(alg, endo):
                continue
            omega, report = trivial_deformation(alg, endo)
            assert cocycle_statuses(alg, omega, report) == ("pass", "pass")
            assert square_product_status(alg, omega, report) == "pass"
            checked += 1
    assert checked >= 5


def flat_line(rank: int) -> LSAlgebroid:
    """Zero products over one coordinate, every anchor d/dx."""
    coords = ("x",)
    zero = Section.zero(coords, rank)
    d_dx = VectorField(coords, (Poly.constant(1, coords),))
    return LSAlgebroid(coords, rank, [[zero] * rank for _ in range(rank)],
                       [d_dx] * rank)


def test_cocycle_witnesses_are_capped_at_five():
    # w(e_i, e_j) = x^(i+1) e_1 and sigma(e_i) = x^(i+1) d/dx: every one
    # of the 24 frame triples and 6 frame pairs has a nonzero defect
    alg = flat_line(4)
    assert check_left_symmetric(alg).passed
    x = Poly.variable("x", alg.coords)
    values = [[Section(alg.coords, [x ** (i + 1), 0, 0, 0])] * 4
              for i in range(4)]
    symbols = [VectorField(alg.coords, (x ** (i + 1),)) for i in range(4)]
    omega = deformation_from_tables(alg.coords, 4, values, symbols)
    values_oracle, symbols_oracle = deformation_cocycle_oracle(alg, omega)
    assert (len(values_oracle), len(symbols_oracle)) == (24, 6)
    report = check_deformation(alg, omega)
    assert cocycle_statuses(alg, omega, report) == ("fail", "fail")
    assert all(len(report.record(name).witnesses) == 5
               for name in COCYCLE_RECORDS + ("square-product",))
    assert len(square_product_oracle(alg, omega)) > 5
    assert square_product_status(alg, omega, report) == "fail"


@functools.cache
def bases() -> tuple[LSAlgebroid, ...]:
    return (flat_instance(), ladder_instance(), action_instance(),
            point_e1e2())


@st.composite
def _degree_one_poly(draw, coords):
    coefficients = st.sampled_from((0, 0, 1, -1, 2))
    poly = Poly.constant(draw(coefficients), coords)
    for name in coords:
        poly = poly + Poly.variable(name, coords) * draw(coefficients)
    return poly


@st.composite
def candidates(draw):
    """A base with either a closed candidate, the differential of a
    random degree-1 multiderivation, or random value and symbol
    tables, which mostly fail."""
    alg = draw(st.sampled_from(bases()))
    coords, r = alg.coords, alg.rank

    def section():
        return Section(coords, [draw(_degree_one_poly(coords))
                                for _ in range(r)])

    def field():
        return VectorField(coords, [draw(_degree_one_poly(coords))
                                    for _ in coords])

    if draw(st.booleans()):
        D = MultiDerivation(coords, r, 1, {((), j): section()
                                           for j in range(r)},
                            {(): field()})
        return alg, def_d(alg, D)
    values = [[section() for _ in range(r)] for _ in range(r)]
    return alg, deformation_from_tables(coords, r, values,
                                        [field() for _ in range(r)])


def test_drawn_candidates_match_the_cocycle_loops():
    outcomes = set()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(candidates())
    def agree(case):
        alg, omega = case
        report = check_deformation(alg, omega)
        statuses = cocycle_statuses(alg, omega, report)
        outcomes.update(enumerate(statuses))
        outcomes.add((2, square_product_status(alg, omega, report)))
        closed = report.record("closed-in-deformation-complex").status
        assert closed == ("pass" if statuses == ("pass", "pass") else "fail")

    agree()
    assert outcomes == {(n, status) for n in range(3)
                        for status in ("pass", "fail")}


# ---------------------------------------------------------------------------
# Both anchor-relation records from one comparison
# ---------------------------------------------------------------------------

ANCHOR_RECORDS = ("anchor-relation", "anchor-relation-derived")


def anchor_statuses(alg, omega, omega_prime, endo) -> str:
    """Assert that both anchor records of the equivalence report carry
    the loop's statuses and witnesses; return their common status."""
    report = check_equivalence(alg, omega, omega_prime, endo)
    oracle = anchor_relation_oracle(alg, omega, omega_prime, endo)
    for name, witnesses in zip(ANCHOR_RECORDS, oracle):
        record = report.record(name)
        assert record.status == ("fail" if witnesses else "pass")
        assert record.witnesses == tuple(witnesses)
    return report.record(ANCHOR_RECORDS[0]).status


def test_corpus_equivalences_match_the_anchor_loop():
    checked = 0
    for name in sorted(CORPUS_NAMES):
        instance = parse_instance(corpus_path(name))
        if instance.deformation is None:
            continue
        alg = instance.algebroid
        prime = instance.deformation_prime or \
            MultiDerivation.zero(alg.coords, alg.rank, 2)
        for key, endo in sorted(instance.endomorphisms.items()):
            anchor_statuses(alg, instance.deformation, prime, endo)
            checked += 1
    assert checked >= 5


def test_drawn_equivalences_match_the_anchor_loop():
    outcomes = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(candidates(), st.data())
    def agree(case, data):
        alg, omega = case
        coords, r = alg.coords, alg.rank
        endo = PolyMatrix(coords, [[data.draw(_degree_one_poly(coords))
                                    for _ in range(r)] for _ in range(r)])
        prime = data.draw(st.sampled_from(
            (omega, MultiDerivation.zero(coords, r, 2))))
        outcomes.add(anchor_statuses(alg, omega, prime, endo))

    agree()
    assert outcomes == {"pass", "fail"}


# ---------------------------------------------------------------------------
# T_homomorphism from the O-operator witness loop
# ---------------------------------------------------------------------------

def test_corpus_o_operators_match_the_homomorphism_loop():
    checked = 0
    for name in sorted(CORPUS_NAMES):
        instance = parse_instance(corpus_path(name))
        if "T" not in instance.endomorphisms:
            continue
        alg = instance.algebroid
        rep = instance.representation
        if rep is None:
            rep = build_left_mult_rep(alg)
        lie = sub_adjacent(alg)
        result = apply_O_operator(lie, rep, instance.endomorphisms["T"])
        assert result.is_O
        assert result.T_homomorphism == o_operator_homomorphism_oracle(
            lie, instance.endomorphisms["T"], result.induced)
        checked += 1
    assert checked == 3


def test_drawn_o_operators_match_the_homomorphism_loop():
    outcomes = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def agree(data):
        alg = data.draw(st.sampled_from(bases()))
        lie = sub_adjacent(alg)
        T = PolyMatrix(alg.coords, [[data.draw(_degree_one_poly(alg.coords))
                                     for _ in range(alg.rank)]
                                    for _ in range(alg.rank)])
        result = apply_O_operator(lie, build_left_mult_rep(alg), T)
        if result.is_O:
            assert result.T_homomorphism == \
                o_operator_homomorphism_oracle(lie, T, result.induced)
        else:
            assert result.T_homomorphism is None
        outcomes.add(result.is_O)

    agree()
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Anchor morphism from one generator: left-symmetric, Lie and action
# ---------------------------------------------------------------------------

@functools.cache
def corpus() -> dict:
    return {name: parse_instance(corpus_path(name)) for name in CORPUS_NAMES}


def anchor_record_status(report, witnesses) -> str:
    """Assert that the anchor-morphism record carries the loop's
    witnesses; return its status."""
    record = report.record("anchor-morphism")
    assert record.witnesses == tuple(witnesses)
    assert record.status == ("fail" if witnesses else "pass")
    return record.status


def lie_algebroids() -> list:
    """The sub-adjacent algebroids of rank at least 2 of the corpus and
    of the bases."""
    algs = [inst.algebroid for inst in corpus().values()] + list(bases())
    return [sub_adjacent(alg) for alg in algs
            if alg.rank > 1 and check_left_symmetric(alg).passed]


def test_drawn_algebroids_match_the_anchor_morphism_loops():
    outcomes = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32), st.sampled_from(((), ("x",), ("x", "y"))),
           st.integers(1, 3))
    def agree(seed, coords, rank):
        alg = random_algebroid(random.Random(seed), coords, rank)
        status = anchor_record_status(check_left_symmetric(alg),
                                      left_symmetric_anchor_oracle(alg))
        # the same tables read as brackets, skew or not
        lie = LieAlgebroid(coords, rank, alg.c, alg.anchor)
        assert anchor_record_status(check_lie_algebroid(lie),
                                    lie_anchor_oracle(lie)) == status
        outcomes.add(status)

    agree()
    assert outcomes == {"pass", "fail"}


def test_perturbed_bracket_tables_match_the_anchor_morphism_loop():
    outcomes = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def agree(data):
        lie = data.draw(st.sampled_from(lie_algebroids()))
        i, j = sorted(data.draw(st.lists(st.integers(0, lie.rank - 1),
                                         min_size=2, max_size=2,
                                         unique=True)))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        delta = random_esection(rng, lie.coords, lie.rank, 1)
        b = [list(row) for row in lie.b]
        b[i][j], b[j][i] = b[i][j] + delta, b[j][i] - delta
        perturbed = LieAlgebroid(lie.coords, lie.rank, b, lie.anchor)
        outcomes.add(anchor_record_status(check_lie_algebroid(perturbed),
                                          lie_anchor_oracle(perturbed)))

    agree()
    assert outcomes == {"pass", "fail"}


def action_cases() -> list:
    """(algebra, coordinates, fields satisfying the action condition)."""
    x, y = (Poly.variable(name, ("x", "y")) for name in ("x", "y"))
    one = Poly.constant(1, ("x", "y"))
    block = corpus()["action"].action
    line = ("x",)
    return [
        (block.algebra, tuple(block.coordinates), list(block.vector_fields)),
        (point_e1e2(), line,
         [VectorField(line, (-Poly.variable("x", line),)),
          VectorField(line, (Poly.constant(1, line),))]),
        (zero_point_algebra(2), ("x", "y"),
         [VectorField(("x", "y"), (one, 0 * x)),
          VectorField(("x", "y"), (0 * y, one))]),
        (point_algebra(3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, 1]}), line,
         [VectorField(line, (-Poly.variable("x", line),)),
          VectorField(line, (Poly.constant(1, line),)),
          VectorField(line, (Poly.constant(2, line),))]),
    ]


def test_perturbed_action_fields_match_the_action_loop():
    outcomes = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def agree(data):
        algebra, coords, fields = data.draw(st.sampled_from(action_cases()))
        fields = [field + VectorField(coords, [data.draw(
                      _degree_one_poly(coords)) for _ in coords])
                  if data.draw(st.booleans()) else field for field in fields]
        expected = action_condition_oracle(algebra, fields, coords)
        if expected is None:
            built = action_algebroid(algebra, fields, coords)
            # the verdict action_algebroid stores without deciding it
            assert built._axioms is True
            assert check_left_symmetric(built).passed
            assert built.anchor == tuple(fields)
            assert built.c == tuple(tuple(Section(coords, [
                comp.constant_value() for comp in sec.components])
                for sec in row) for row in algebra.c)
        else:
            with pytest.raises(NotAnAction) as info:
                action_algebroid(algebra, fields, coords)
            assert (type(info.value), str(info.value), info.value.witness) \
                == (NotAnAction, *expected)
        outcomes.add(expected is None)

    for algebra, coords, fields in action_cases():
        assert action_condition_oracle(algebra, fields, coords) is None
    agree()
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Associator symmetry from one frame identity
# ---------------------------------------------------------------------------

def associator_record_status(alg) -> str:
    """Assert that the associator-symmetry record carries the eight-product
    loop's witnesses, byte for byte; return its status."""
    record = check_left_symmetric(alg).record("associator-symmetry")
    witnesses = associator_symmetry_oracle(alg)
    assert record.witnesses == tuple(witnesses)
    assert record.status == ("fail" if witnesses else "pass")
    return record.status


def test_corpus_and_nonexample_match_the_associator_loop():
    assert associator_record_status(nonexample()) == "fail"
    statuses = {name: associator_record_status(instance.algebroid)
                for name, instance in corpus().items()}
    assert statuses.pop("nonexample") == "fail"
    assert set(statuses.values()) == {"pass"}


def test_drawn_tables_match_the_associator_loop():
    outcomes = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32), st.sampled_from(((), ("x",), ("x", "y"))),
           st.integers(1, 3))
    def agree(seed, coords, rank):
        outcomes.add(associator_record_status(
            random_algebroid(random.Random(seed), coords, rank)))

    agree()
    assert outcomes == {"pass", "fail"}


def reframed(alg: LSAlgebroid, P: PolyMatrix) -> LSAlgebroid:
    """``alg`` in the frame b_i = P e_i, for P with a nonzero constant
    determinant: products P^-1(b_i.b_j), anchors a(b_i).  Left-symmetric
    iff ``alg`` is, with mostly nonzero products."""
    inverse = matrix_inverse_adjugate(P)
    b = [Section(alg.coords, P.column(i)) for i in range(alg.rank)]
    return LSAlgebroid(
        alg.coords, alg.rank,
        [[apply_endo(inverse, section_mult(alg, b[i], b[j]))
          for j in range(alg.rank)] for i in range(alg.rank)],
        [anchor_of_section(alg, b[i]) for i in range(alg.rank)])


def unit_point_algebra(rank: int) -> LSAlgebroid:
    """e_1 a two-sided unit, every other product zero: associative."""
    return point_algebra(rank, {
        **{(0, k): [int(m == k) for m in range(rank)] for k in range(rank)},
        **{(k, 0): [int(m == k) for m in range(rank)] for k in range(rank)}})


def test_reframed_and_perturbed_tables_match_the_associator_loop():
    # a passing table in a drawn frame, as it is or with one product (or
    # one product and its mirror) moved by a random section, or with one
    # anchor field moved: some triples pass and some fail
    outcomes = set()
    algs = [alg for alg in [inst.algebroid for inst in corpus().values()]
            + list(bases()) + [unit_point_algebra(3)]
            if alg.rank > 1 and check_left_symmetric(alg).passed]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def agree(data):
        alg = data.draw(st.sampled_from(algs))
        r, coords = alg.rank, alg.coords
        P = PolyMatrix.identity(r, coords)
        for _ in range(data.draw(st.integers(1, 3))):
            a, b = data.draw(st.lists(st.integers(0, r - 1), min_size=2,
                                      max_size=2, unique=True))
            shear = PolyMatrix.identity(r, coords) + PolyMatrix(coords, [
                [data.draw(_degree_one_poly(coords)) if (i, j) == (a, b)
                 else 0 for j in range(r)] for i in range(r)])
            P = P @ shear
        alg = reframed(alg, P)
        assert associator_record_status(alg) == "pass"
        i, j = (data.draw(st.integers(0, r - 1)) for _ in range(2))
        c, anchor = [list(row) for row in alg.c], list(alg.anchor)
        how = data.draw(st.sampled_from(("product", "mirror", "anchor")))
        if how == "anchor":
            anchor[i] = anchor[i] + VectorField(coords, [
                data.draw(_degree_one_poly(coords)) for _ in coords])
        else:
            delta = random_esection(random.Random(data.draw(
                st.integers(0, 2 ** 32))), coords, r, 1)
            c[i][j] = c[i][j] + delta
            if how == "mirror" and i != j:
                c[j][i] = c[j][i] + delta
        outcomes.add(associator_record_status(
            LSAlgebroid(coords, r, c, anchor)))

    agree()
    assert outcomes == {"pass", "fail"}


def euler_family(rank: int, coords) -> LSAlgebroid:
    """e_i.e_i = e_i, every other product zero, and e_i acts by
    x_k d/dx_k with k = i mod n: left-symmetric."""
    n = len(coords)
    c = [[Section.unit(coords, rank, i) if i == j else
          Section.zero(coords, rank) for j in range(rank)]
         for i in range(rank)]
    anchor = [VectorField(coords, [Poly.variable(coords[m], coords)
                                   if m == i % n else 0 for m in range(n)])
              for i in range(rank)]
    return LSAlgebroid(coords, rank, c, anchor)


def dense_table(rank: int) -> LSAlgebroid:
    """Every product and every commutator of frame sections nonzero;
    anchors d/dx; not left-symmetric."""
    coords = ("x",)
    x = Poly.variable("x", coords)
    c = [[Section(coords, [x * (i + 1) + j + m for m in range(rank)])
          for j in range(rank)] for i in range(rank)]
    d_dx = VectorField(coords, (Poly.constant(1, coords),))
    return LSAlgebroid(coords, rank, c, [d_dx] * rank)


def test_check_left_symmetric_forms_one_product_per_triple(monkeypatch):
    # (c_ij - c_ji).e_k = e_i.c_jk - e_j.c_ik: three products per triple
    # i < j, none with a zero factor, and both associators (eight more)
    # only where it fails.  The associator loop takes 8 * C(r, 2) * r.
    calls = counted(monkeypatch, core, "section_mult")
    alg = euler_family(4, ("x", "y"))
    assert check_left_symmetric(alg).passed
    # commutators vanish; e_i.c_jk is nonzero only for k = j
    assert len(calls) == 2 * 6 == 12
    del calls[:]
    alg = dense_table(3)
    failures = check_left_symmetric(alg).record("associator-symmetry")
    assert len(failures.witnesses) == 9
    assert len(calls) == 3 * 3 * 3 + 8 * 9 == 99
    assert failures.witnesses == tuple(associator_symmetry_oracle(alg))


# ---------------------------------------------------------------------------
# Homomorphism identity from one generator
# ---------------------------------------------------------------------------

def test_drawn_maps_match_the_homomorphism_loop():
    outcomes = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def agree(data):
        alg = data.draw(st.sampled_from(bases()))
        coords, r = alg.coords, alg.rank
        phi = PolyMatrix.identity(r, coords)
        if data.draw(st.booleans()):
            phi = phi + PolyMatrix(coords, [[data.draw(_degree_one_poly(
                coords)) for _ in range(r)] for _ in range(r)])
        is_hom = check_lsa_homomorphism(alg, alg, phi)
        assert is_hom == lsa_homomorphism_oracle(alg, alg, phi)
        outcomes.add(is_hom)

    agree()
    assert outcomes == {True, False}


def split_failures(failures) -> tuple[list, list]:
    """``_morphism_failures`` output as the intertwiner loops list it:
    product failures, then anchor failures without the empty slot."""
    return ([f for f in failures if f[1] is not None],
            [(i, lhs, rhs) for i, j, lhs, rhs in failures if j is None])


def test_drawn_triples_match_the_intertwiner_loops():
    failing = 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32), st.sampled_from(((), ("x",), ("x", "y"))),
           st.integers(1, 3))
    def agree(seed, coords, rank):
        nonlocal failing
        rng = random.Random(seed)
        a1 = random_algebroid(rng, coords, rank)
        a2 = random_algebroid(rng, coords, rank)
        phi = PolyMatrix(coords, [random_esection(rng, coords, rank, 1)
                                  .components for _ in range(rank)])
        failures = list(_morphism_failures(a1, a2, phi))
        # every anchor failure comes before every product failure
        kinds = [j is None for _, j, _, _ in failures]
        assert kinds == sorted(kinds, reverse=True)
        assert split_failures(failures) == intertwiner_oracle(a1, a2, phi)
        assert check_lsa_homomorphism(a1, a2, phi) == (not failures)
        failing += bool(failures)

    agree()
    assert failing >= 50


def test_corpus_trivial_deformations_match_the_intertwiner_loops():
    checked = 0
    for instance in corpus().values():
        alg = instance.algebroid
        for key, endo in sorted(instance.endomorphisms.items()):
            if not key.startswith("N") or not check_nijenhuis(alg, endo):
                continue
            omega, report = trivial_deformation(alg, endo)
            param = fresh_parameter(alg.coords)
            lifted = extend_algebroid(alg, param)
            deformed = _deform(alg, omega, FORMAL, param)
            tpoly = Poly.variable(param, lifted.coords)
            family = PolyMatrix.identity(alg.rank, lifted.coords) + \
                PolyMatrix(lifted.coords, [[entry.extend(lifted.coords)
                                            for entry in row]
                                           for row in endo.entries]) \
                .scale(tpoly)
            assert intertwiner_oracle(deformed, lifted, family) == ([], [])
            for name in ("intertwiner-product", "intertwiner-anchor"):
                assert report.record(name).status == "pass"
                assert report.record(name).witnesses == ()
            checked += 1
    assert checked >= 5


# ---------------------------------------------------------------------------
# The phase-space double laid out once
# ---------------------------------------------------------------------------

def corpus_structures() -> list:
    return [inst.algebroid for inst in corpus().values()
            if check_left_symmetric(inst.algebroid).passed]


def test_corpus_phase_spaces_match_the_double_layouts():
    structures = corpus_structures()
    assert len(structures) == 7
    for alg in structures:
        phase = build_phase_space(alg)
        P, omega, _ = phase_double_oracle(sub_adjacent(alg),
                                          build_left_mult_rep(alg))
        assert frame_data(phase.P) == frame_data(P)
        assert phase.omega == omega
        assert [(rec.name, rec.status, list(rec.witnesses))
                for rec in phase.report.records] == \
            phase_space_report_oracle(alg)

        lie = sub_adjacent(alg)
        result = lsa_from_phase(lie, build_left_mult_rep(alg))
        _, (base, total, matches) = lsa_from_phase_oracle(
            lie, build_left_mult_rep(alg))
        assert frame_data(result.base) == frame_data(base)
        assert frame_data(result.total) == frame_data(total)
        assert result.report.record("sub-adjacent-matches").status == \
            ("pass" if matches else "fail")
        assert result.report.passed


def test_drawn_representations_match_the_double_layouts():
    outcomes = set()
    lies = [sub_adjacent(alg) for alg in (zero_point_algebra(2), point_e1e2(),
                                          flat_instance())]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def agree(data):
        lie = data.draw(st.sampled_from(lies))
        r = lie.rank
        rep = Representation(r, [PolyMatrix(lie.coords, [[data.draw(
            st.sampled_from((0, 0, 1, -1))) if a == b or data.draw(
                st.booleans()) else 0 for b in range(r)] for a in range(r)])
            for _ in range(r)])
        try:
            dual, P, omega, d_omega = _double(lie, rep)
        except NotARepresentation:
            outcomes.add("not a representation")
            return
        P_o, omega_o, d_omega_o = phase_double_oracle(lie, rep)
        assert dual.rho_mat == tuple(-(m.transpose()) for m in rep.rho_mat)
        assert (frame_data(P), omega, d_omega) == \
            (frame_data(P_o), omega_o, d_omega_o)
        triple, recovered = lsa_from_phase_oracle(lie, rep)
        if triple is None:
            _, total, matches = recovered
            result = lsa_from_phase(lie, rep)
            assert frame_data(result.total) == frame_data(total)
            assert result.report.record("sub-adjacent-matches").status == \
                ("pass" if matches else "fail")
            outcomes.add("recovered")
        else:
            with pytest.raises(OmegaNotClosed) as info:
                lsa_from_phase(lie, rep)
            assert info.value.triple == triple
            outcomes.add("not closed")

    agree()
    assert outcomes == {"not a representation", "recovered", "not closed"}


# ---------------------------------------------------------------------------
# Records that hold by construction, verified here instead
# ---------------------------------------------------------------------------

def test_canonical_pairing_matrix_has_determinant_one():
    for r in range(1, 9):
        omega = constructions.canonical_pairing_form((), r)
        matrix = PolyMatrix((), [[omega.component((i, j))
                                  for j in range(2 * r)]
                                 for i in range(2 * r)])
        assert matrix.det() == Poly.constant(1, ())


def test_corpus_phase_isomorphisms_are_block_diagonal():
    checked = 0
    for instance in corpus().values():
        if "phi" not in instance.endomorphisms:
            continue
        alg, phi = instance.algebroid, instance.endomorphisms["phi"]
        iso = phase_iso_from_lsa_iso(alg, alg, phi)
        r = alg.rank
        assert all(iso.Phi.entry(i, j).is_zero()
                   for i in range(2 * r) for j in range(2 * r)
                   if (i < r) != (j < r))
        assert iso.report.record("maps-subbundles").status == "pass"
        checked += 1
    assert checked == 2


def test_corpus_complex_structures_anticommute_with_the_paracomplex():
    checked = 0
    for instance in corpus().values():
        form = instance.bilinear_form
        if form is None:
            continue
        result = constructions.build_complex_structure(instance.algebroid,
                                                       form)
        J, P = result.J, result.phase.paracomplex
        assert J @ P == (P @ J).scale(-1)
        assert result.report.record("anticommutes-paracomplex").status == \
            "pass"
        checked += 1
    assert checked == 3


# ---------------------------------------------------------------------------
# Call counts
# ---------------------------------------------------------------------------

def counted(monkeypatch, module, name) -> list:
    """Replace ``module.name`` by a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_trivial_deformation_checks_its_candidate_once(monkeypatch):
    calls = counted(monkeypatch, deformations, "check_deformation")
    alg = point_e1e2()
    omega, report = trivial_deformation(alg,
                                        PolyMatrix((), [[0, 0], [0, 1]]))
    assert report.passed
    assert len(calls) == 1


def test_phase_space_of_one_structure_is_built_once(monkeypatch):
    calls = counted(monkeypatch, constructions, "build_phase_space")
    alg = flat_instance()
    iso = phase_iso_from_lsa_iso(alg, alg,
                                 PolyMatrix.identity(alg.rank, alg.coords))
    assert iso.report.passed
    assert len(calls) == 1


def test_the_dual_representation_is_checked_once(monkeypatch):
    calls = counted(monkeypatch, constructions, "check_representation_lie")
    alg = flat_instance()
    assert build_phase_space(alg).report.passed
    assert len(calls) == 1
    del calls[:]
    assert lsa_from_phase(sub_adjacent(alg),
                          build_left_mult_rep(alg)).report.passed
    assert len(calls) == 1


@pytest.mark.parametrize("name, searches, inverses", [
    ("point_e1e2", 2, 3), ("zero_r2", 2, 3), ("ladder", 2, 2)])
def test_each_kernel_frame_is_solved_once(monkeypatch, name, searches,
                                          inverses):
    # one solver in kernel_representations, one in
    # ideal_restriction_matrices; the third inverse on point_e1e2 and
    # zero_r2 is the contragredient of phi or of the bilinear form
    found = counted(monkeypatch, constructions,
                    "find_constant_invertible_submatrix")
    inverted = counted(monkeypatch, constructions, "matrix_inverse_adjugate")
    cli.run_suite(parse_instance(corpus_path(name)), "all")
    assert (len(found), len(inverted)) == (searches, inverses)


@pytest.mark.parametrize("name, quadratic, dets", [
    ("flat", 1, 1), ("point_e1e2", 0, 1), ("riemannian", 1, 0),
    ("zero_r2", 1, 0)])
def test_verify_all_shares_its_quadratic_report_phase_space_and_det(
        monkeypatch, name, quadratic, dets):
    # run_suite hands its quadratic report and phase space to the complex
    # structure and the phase isomorphism it builds.  The determinant
    # left is phi's (in run_suite): check_quadratic reads the form's and
    # its leading principal minors off one memo of minors, and the
    # inverses read theirs off the cofactors they compute anyway.  With
    # a det per minor, flat took 4 and riemannian and zero_r2 took 3.
    instance = parse_instance(corpus_path(name))
    quads = [counted(monkeypatch, module, "check_quadratic")
             for module in (cli, constructions)]
    phases = [counted(monkeypatch, module, "build_phase_space")
              for module in (cli, constructions)]
    expanded = []
    det = PolyMatrix.det

    def recorded(matrix):
        expanded.append(matrix)
        return det(matrix)

    monkeypatch.setattr(PolyMatrix, "det", recorded)
    report = cli.run_suite(instance, "all")
    assert report.passed
    assert sum(map(len, quads)) == quadratic
    assert sum(map(len, phases)) == 1
    assert len(expanded) == dets
    phi = instance.endomorphisms.get("phi")
    assert sum(matrix is phi for matrix in expanded) == (phi is not None)


@pytest.mark.parametrize("name", ["flat", "riemannian", "zero_r2"])
def test_check_quadratic_expands_the_form_once(monkeypatch, name):
    # the determinant and every leading principal minor (the last is the
    # determinant again) come from the form's memo of minors
    instance = parse_instance(corpus_path(name))
    form = instance.bilinear_form
    every = tuple(range(form.rows))
    calls, expanded = spy_minors(monkeypatch), counted(monkeypatch,
                                                       PolyMatrix, "det")
    report = constructions.check_quadratic(instance.algebroid, form)
    assert report.record("nondegenerate").status == "pass"
    assert expanded == []
    assert calls and all(memo is calls[0][3] for *_, memo, _ in calls)
    assert sum(matrix is form and rows == cols == every and new
               for matrix, rows, cols, _, new in calls) == 1


def test_derive_action_decides_the_anchor_identity_twice(monkeypatch,
                                                         capsys):
    # once in the acting algebra's gate and once as the action
    # condition; the result's verdict follows from the two (it took a
    # third call in the result's own gate)
    calls = counted(monkeypatch, core, "_anchor_failures")
    monkeypatch.setattr(constructions, "_anchor_failures",
                        core._anchor_failures)
    assert cli.main(["derive", str(corpus_path("action")), "--action",
                     "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["derived"] == \
        algebroid_to_dict(corpus()["action"].algebroid)
    assert len(calls) == 2


@pytest.mark.parametrize("name, decisions", [("flat", 3), ("point_e1e2", 5)])
def test_representation_decisions_per_verify_all(monkeypatch, name,
                                                  decisions):
    # derived_reps' gate decides the file's pair, and representation/valid,
    # rep-d-squared, point-dims and the semidirect product read that
    # verdict.  The rest: its two derived pairs, and on point_e1e2 the
    # two kernel representations
    calls = [counted(monkeypatch, module, "check_representation_lsa")
             for module in (constructions, cli, cohomology)]
    assert cli.run_suite(parse_instance(corpus_path(name)), "all").passed
    assert sum(map(len, calls)) == decisions


@pytest.mark.parametrize("name", ["flat", "riemannian", "zero_r2"])
def test_verify_all_expands_the_form_once(monkeypatch, name):
    # check_quadratic leaves the form's minors in its memo, where the
    # inverse of the form in the complex structure reads them
    instance = parse_instance(corpus_path(name))
    form = instance.bilinear_form
    every = tuple(range(form.rows))
    calls = spy_minors(monkeypatch)
    report = cli.run_suite(instance, "all")
    assert report.record("complex/squares-to-minus-id").status == "pass"
    assert len({id(memo) for matrix, *_, memo, _ in calls
                if matrix is form}) == 1
    assert sum(matrix is form and rows == cols == every and new
               for matrix, rows, cols, _, new in calls) == 1


@pytest.mark.parametrize("name, expansions", [
    ("flat", 2), ("point_e1e2", 5), ("riemannian", 1), ("ladder", 2),
    ("zero_r2", 5)])
def test_verify_all_full_size_expansions(monkeypatch, name, expansions):
    # one full determinant per matrix inverted or tested: the form's, the
    # frame solvers' and phi's.  The contragredient of phi is the
    # transpose of phi's inverse, read off the memo phi.det() filled; as
    # the inverse of phi^T it took one more on flat and on point_e1e2
    instance = parse_instance(corpus_path(name))
    phi = instance.endomorphisms.get("phi")
    transposes = []
    transpose = PolyMatrix.transpose

    def recorded(matrix):
        result = transpose(matrix)
        if matrix is phi:
            transposes.append(result)
        return result

    monkeypatch.setattr(PolyMatrix, "transpose", recorded)
    calls = spy_minors(monkeypatch)
    cli.run_suite(instance, "all")
    full = [matrix for matrix, rows, _, _, new in calls
            if new and len(rows) == matrix.rows == matrix.cols]
    assert len(full) == expansions
    if phi is not None:
        assert sum(any(matrix is m for m in (phi, *transposes))
                   for matrix in full) == 1


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_verify_all_decides_the_commutator_lie_axioms_once(monkeypatch,
                                                           name):
    # sub-adjacent/* and graded/lie-admissible, graded-jacobi read one
    # check_lie_algebroid of the commutator table
    calls = [counted(monkeypatch, module, "check_lie_algebroid")
             for module in (cli, multivector)]
    report = cli.run_suite(parse_instance(corpus_path(name)), "all")
    axioms = report.record("axioms/associator-symmetry").status == "pass"
    assert sum(map(len, calls)) == (1 if axioms else 0)
    if axioms:
        assert report.record("graded/lie-admissible").witnesses == \
            report.record("graded/graded-jacobi").witnesses == \
            (*report.record("sub-adjacent/jacobi").witnesses,
             *report.record("sub-adjacent/anchor-morphism").witnesses)[:5]
