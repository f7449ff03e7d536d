"""Deformation and phase-space identities decided by one routine, and
results the library has just decided not decided again, against the
loops they replaced (kept in ``helpers``)."""

import functools

from hypothesis import given, settings, strategies as st

from helpers import (
    action_instance,
    anchor_relation_oracle,
    deformation_cocycle_oracle,
    flat_instance,
    ladder_instance,
    o_operator_homomorphism_oracle,
    point_e1e2,
    square_product_oracle,
)
from lsakit import constructions, deformations
from lsakit.cohomology import MultiDerivation, def_d
from lsakit.constructions import (
    apply_O_operator,
    build_phase_space,
    lsa_from_phase,
    phase_iso_from_lsa_iso,
)
from lsakit.core import (
    LSAlgebroid,
    Section,
    build_left_mult_rep,
    check_left_symmetric,
    sub_adjacent,
)
from lsakit.deformations import (
    check_deformation,
    check_equivalence,
    check_nijenhuis,
    deformation_from_tables,
    trivial_deformation,
)
from lsakit.instances import CORPUS_NAMES, corpus_path, parse_instance
from lsakit.polyring import Poly, PolyMatrix, VectorField

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
