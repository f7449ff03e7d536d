"""Representations decided through their matrices, the one semidirect
builder, and the one axiom gate, each against the Section round trips
and table loops they replaced (kept in ``helpers``)."""

import functools
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    action_instance,
    flat_instance,
    frame_data,
    ladder_instance,
    point_algebra,
    point_e1e2,
    representation_lie_oracle,
    representation_lsa_oracle,
    semidirect_lie_oracle,
    semidirect_lsa_oracle,
    zero_point_algebra,
)
from lsakit import core
from lsakit.cohomology import assemble_point_differential, point_cohomology_dims
from lsakit.constructions import (
    apply_O_operator,
    build_phase_space,
    check_representation_lie,
    check_representation_lsa,
    derived_reps,
    dual_rep,
    ideal_restriction_matrices,
    lsa_from_phase,
    semidirect_lie,
    semidirect_lsa,
)
from lsakit.core import (
    LSAlgebroid,
    Representation,
    Section,
    _require_left_symmetric,
    build_left_mult_rep,
    check_left_symmetric,
    sub_adjacent,
)
from lsakit.errors import DegreeOverflow, DimensionMismatch, NotLeftSymmetric
from lsakit.instances import corpus_path, parse_instance
from lsakit.polyring import Poly, PolyMatrix, VectorField, set_degree_limit


def unit_algebra() -> LSAlgebroid:
    """e_1.e_1 = e_1, e_1.e_2 = e_2 over a point."""
    return point_algebra(2, {(0, 0): [1, 0], (0, 1): [0, 1]})


# ---------------------------------------------------------------------------
# Matrices over the wrong coordinates
# ---------------------------------------------------------------------------

def _off_coords(table: str) -> Representation:
    """A rank-2 representation of ``unit_algebra`` with one table over
    ("x",) instead of the algebroid's ()."""
    right, wrong = PolyMatrix.identity(2, ()), PolyMatrix.identity(2, ("x",))
    if table == "rho":
        return Representation(2, [wrong, wrong])
    return Representation(2, [right, right], [wrong, wrong])


COORD_CALLS = {
    "check_representation_lie":
        lambda alg, rep: check_representation_lie(sub_adjacent(alg), rep),
    "check_representation_lsa": check_representation_lsa,
    "semidirect_lsa": semidirect_lsa,
    "apply_O_operator": lambda alg, rep: apply_O_operator(
        sub_adjacent(alg), rep, PolyMatrix.identity(2, ())),
    "assemble_point_differential":
        lambda alg, rep: assemble_point_differential(alg, rep, 1),
    "point_cohomology_dims check=False":
        lambda alg, rep: point_cohomology_dims(alg, rep, 2, check=False),
    "point_cohomology_dims check=True":
        lambda alg, rep: point_cohomology_dims(alg, rep, 2, check=True),
}


@pytest.mark.parametrize("table", ["rho", "mu"])
@pytest.mark.parametrize("call", sorted(COORD_CALLS))
def test_representation_over_other_coordinates_is_refused(call, table):
    message = (r"representation matrices over \('x',\) on an algebroid "
               r"over \(\)")
    with pytest.raises(DimensionMismatch, match=message):
        COORD_CALLS[call](unit_algebra(), _off_coords(table))


# ---------------------------------------------------------------------------
# Matrix identities against the per-unit oracles
# ---------------------------------------------------------------------------

def _seeds(alg: LSAlgebroid) -> list[Representation]:
    """Representations built by the library on ``alg``: left
    multiplication, its dual, the derived pairs, and over a point the
    regular representation (L, R)."""
    left = build_left_mult_rep(alg)
    lie = sub_adjacent(alg)
    seeds = [left, dual_rep(lie, left)]
    derived = derived_reps(alg, left)
    seeds += [derived.on_bundle, derived.on_dual]
    if alg.is_point():
        right = [PolyMatrix(alg.coords,
                            [alg.c[j][i].components for j in range(alg.rank)]
                            ).transpose() for i in range(alg.rank)]
        seeds.append(Representation(alg.rank, left.rho_mat, right))
    return seeds


def _file_seeds(name: str) -> tuple[LSAlgebroid, list[Representation]]:
    """The file's algebroid with the library's seeds, its representation
    block, and the kernel representations on its kernel frame."""
    instance = parse_instance(corpus_path(name))
    alg = instance.algebroid
    seeds = _seeds(alg)
    if instance.representation is not None:
        seeds.append(instance.representation)
    if instance.kernel_frame:
        s = len(instance.kernel_frame)
        left, right = ideal_restriction_matrices(alg, instance.kernel_frame)
        seeds.append(Representation(s, left, right))
        seeds.append(Representation(s, [lm - rm for lm, rm in
                                         zip(left, right)]))
    return alg, seeds


@functools.cache
def bases() -> list[tuple[LSAlgebroid, list[Representation]]]:
    """Point algebras and the bases with nonzero anchors, each with its
    seeds."""
    return [(alg, _seeds(alg)) for alg in
            (point_e1e2(), unit_algebra(), zero_point_algebra(2),
             flat_instance(), ladder_instance(), action_instance())] + \
        [_file_seeds(name) for name in
         ("flat", "ladder", "point_e1e2", "zero_r2", "double_e1e2")]


def _coefficients():
    return st.sampled_from((0, 0, 0, 1, -1, 2))


@st.composite
def _degree_one_poly(draw, coords):
    poly = Poly.constant(draw(_coefficients()), coords)
    for name in coords:
        poly = poly + Poly.variable(name, coords) * draw(_coefficients())
    return poly


@st.composite
def _random_matrix(draw, coords, s):
    return PolyMatrix(coords, [[draw(_degree_one_poly(coords))
                                for _ in range(s)] for _ in range(s)])


def _along(field: VectorField, mat: PolyMatrix) -> PolyMatrix:
    return PolyMatrix(mat.coords, [[field.apply(e) for e in row]
                                   for row in mat.entries])


@st.composite
def _gauged(draw, alg, rep):
    """The representation S^-1 rho S + S^-1 a(S), S^-1 mu S for a
    unimodular S, a product of shears whose factor is a nonzero integer
    times 1 or a base coordinate; the identities are preserved."""
    s, coords = rep.s, alg.coords
    S = S_inv = PolyMatrix.identity(s, coords)
    for _ in range(draw(st.integers(0, 3)) if s > 1 else 0):
        i, j = draw(st.permutations(range(s)))[:2]
        f = Poly.constant(draw(st.sampled_from((1, -1, 2))), coords)
        if coords and draw(st.booleans()):
            f = f * Poly.variable(draw(st.sampled_from(coords)), coords)
        shear = PolyMatrix.identity(s, coords).terms | {(i, j): f}
        inverse = PolyMatrix.identity(s, coords).terms | {(i, j): -f}
        S = S @ PolyMatrix._from((coords, s, s), shear)
        S_inv = PolyMatrix._from((coords, s, s), inverse) @ S_inv
    rho = [S_inv @ R @ S + S_inv @ _along(field, S)
           for R, field in zip(rep.rho_mat, alg.anchor)]
    return Representation(s, rho, [S_inv @ M @ S for M in rep.mu_mat])


@st.composite
def seeded_or_random(draw):
    alg, seeds = draw(st.sampled_from(bases()))
    if draw(st.booleans()):
        return alg, draw(_gauged(alg, draw(st.sampled_from(seeds))))
    s = draw(st.integers(1, 3))
    mats = st.lists(_random_matrix(alg.coords, s), min_size=alg.rank,
                    max_size=alg.rank)
    return alg, Representation(s, draw(mats), draw(mats))


def test_matrix_identities_match_unit_oracles():
    outcomes = set()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(seeded_or_random())
    def agree(pair):
        alg, rep = pair
        lie = sub_adjacent(alg)
        assert check_representation_lie(lie, rep) == \
            representation_lie_oracle(lie, rep)
        verdict = check_representation_lsa(alg, rep)
        assert verdict == representation_lsa_oracle(alg, rep)
        outcomes.add(verdict)

    agree()
    assert outcomes == {True, False}


def test_anchor_derivatives_enter_the_identities():
    # flat: rho(e_1) = d/dx, rho(e_2) = d/dy + R_2, one-dimensional V
    lie = sub_adjacent(flat_instance())
    coords = lie.coords
    zero = PolyMatrix.zeros(1, 1, coords)
    for name, flat in (("x", False), ("y", True)):
        entry = Poly.variable(name, coords)
        rep = Representation(1, [zero, PolyMatrix(coords, [[entry]])])
        assert check_representation_lie(lie, rep) is flat
        assert representation_lie_oracle(lie, rep) is flat


# ---------------------------------------------------------------------------
# One semidirect builder
# ---------------------------------------------------------------------------

def test_semidirect_tables_match_the_table_loops():
    for alg, seeds in bases():
        lie = sub_adjacent(alg)
        for rep in seeds:
            assert representation_lsa_oracle(alg, rep)
            assert frame_data(semidirect_lsa(alg, rep)) == \
                frame_data(semidirect_lsa_oracle(alg, rep))
            assert frame_data(semidirect_lie(lie, rep)) == \
                frame_data(semidirect_lie_oracle(lie, rep))
        # the compatible structure is the semidirect product by (-L^T, 0)
        left = build_left_mult_rep(alg)
        result = lsa_from_phase(lie, left)
        assert frame_data(result.total) == frame_data(
            semidirect_lsa_oracle(result.base, dual_rep(lie, left)))


def test_semidirect_of_a_rank_zero_algebra():
    alg = point_algebra(0, {})
    rep = Representation(2, [])
    assert frame_data(semidirect_lsa(alg, rep)) == \
        frame_data(semidirect_lsa_oracle(alg, rep))


# ---------------------------------------------------------------------------
# One axiom gate
# ---------------------------------------------------------------------------

def _counting(monkeypatch) -> list:
    calls = []
    original = core.check_left_symmetric

    def counted(alg):
        calls.append(alg)
        return original(alg)

    monkeypatch.setattr(core, "check_left_symmetric", counted)
    return calls


def test_axiom_gate_decides_each_algebroid_once(monkeypatch):
    calls = _counting(monkeypatch)
    instance = parse_instance(corpus_path("point_e1e2"))
    alg, rep = instance.algebroid, instance.representation
    sub_adjacent(alg)
    build_left_mult_rep(alg)
    assert check_representation_lsa(alg, rep)
    semidirect_lsa(alg, rep)
    build_phase_space(alg)
    point_cohomology_dims(alg, rep, 2)
    assert calls == [alg]


def test_failing_algebroid_raises_a_full_report_on_every_call(monkeypatch):
    alg = parse_instance(corpus_path("nonexample")).algebroid
    expected = check_left_symmetric(alg).records
    assert not all(rec.status == "pass" for rec in expected)
    calls = _counting(monkeypatch)
    reports = []
    for _ in range(2):
        for construction in (sub_adjacent, build_left_mult_rep):
            with pytest.raises(NotLeftSymmetric) as info:
                construction(alg)
            assert info.value.report.records == expected
            reports.append(info.value.report)
            assert alg._axioms is not True
    assert len(calls) == 4
    assert len({id(report) for report in reports}) == 4


def _scaled_dual_numbers() -> LSAlgebroid:
    """x times the unital algebra e_1 e_1 = e_1, e_1 e_2 = e_2 e_1 = e_2
    over one coordinate, zero anchor: its associators multiply to
    degree 2."""
    coords = ("x",)
    x = Poly.variable("x", coords)
    zero = Poly.zero(coords)
    c = [[Section(coords, [x, zero]), Section(coords, [zero, x])],
         [Section(coords, [zero, x]), Section(coords, [zero, zero])]]
    return LSAlgebroid(coords, 2, c, [VectorField.zero(coords)] * 2)


def test_degree_overflow_during_the_check_stores_no_verdict():
    alg = _scaled_dual_numbers()
    set_degree_limit(1)
    try:
        with pytest.raises(DegreeOverflow):
            sub_adjacent(alg)
        assert alg._axioms is None
    finally:
        set_degree_limit(16)
    sub_adjacent(alg)
    assert alg._axioms is True
    # a stored verdict does no arithmetic, so a lower limit is not read
    set_degree_limit(1)
    try:
        _require_left_symmetric(alg)
    finally:
        set_degree_limit(16)


def test_gate_shared_across_threads_matches_serial():
    def fresh():
        return (parse_instance(corpus_path("point_e1e2")),
                parse_instance(corpus_path("nonexample")).algebroid)

    def read(instance, bad):
        alg, rep = instance.algebroid, instance.representation
        try:
            sub_adjacent(bad)
            failure = None
        except NotLeftSymmetric as exc:
            failure = exc.report.records
        return (frame_data(sub_adjacent(alg)),
                check_representation_lsa(alg, rep),
                frame_data(semidirect_lsa(alg, rep)),
                point_cohomology_dims(alg, rep, 2), failure)

    serial = read(*fresh())
    shared = fresh()
    assert shared[0].algebroid._axioms is None
    workers = 6
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def work(slot):
        barrier.wait(timeout=60)
        results[slot] = read(*shared)

    threads = [threading.Thread(target=work, args=(k,))
               for k in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so the gates race
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == serial for result in results)
    assert shared[0].algebroid._axioms is True
    assert shared[1]._axioms is False
