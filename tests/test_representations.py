"""Representations decided through their matrices, the one semidirect
builder, and the one axiom gate, each against the Section round trips
and table loops they replaced (kept in ``helpers``)."""

import functools
import sys
import threading
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    action_instance,
    flat_instance,
    frame_data,
    ladder_instance,
    nonexample,
    point_algebra,
    point_e1e2,
    reframed,
    representation_lie_oracle,
    representation_lsa_oracle,
    semidirect_lie_oracle,
    semidirect_lsa_oracle,
    unit_point_algebra,
    zero_point_algebra,
)
from lsakit import core
from lsakit.cli import run_suite
from lsakit.cohomology import (
    RepCochain,
    _is_point_representation,
    _point_tables,
    assemble_point_differential,
    point_cohomology_dims,
    rep_d,
)
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
from lsakit.errors import (
    DegreeOverflow,
    DimensionMismatch,
    NotARepresentation,
    NotLeftSymmetric,
)
from lsakit.instances import InstanceFile, corpus_path, parse_instance
from lsakit.polyring import (
    Poly,
    PolyMatrix,
    VectorField,
    matrix_inverse_adjugate,
    set_degree_limit,
)


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


# ---------------------------------------------------------------------------
# The point gate on the integer tables
# ---------------------------------------------------------------------------

POINT_ALGEBRAS = (
    lambda: point_algebra(0, {}), lambda: zero_point_algebra(1),
    lambda: point_algebra(1, {(0, 0): [1]}), zero_point_algebra, point_e1e2,
    unit_algebra, lambda: unit_point_algebra(2),
    lambda: zero_point_algebra(3), lambda: unit_point_algebra(3),
    # point_e1e2 plus an idempotent
    lambda: point_algebra(3, {(0, 1): [0, 1, 0], (2, 2): [0, 0, 1]}))

_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _lower_triangular(draw, n):
    """An invertible constant matrix: drawn fractions below a diagonal of
    nonzero ones."""
    return PolyMatrix((), [
        [draw(_fractions.filter(bool)) if i == j
         else draw(_fractions) if i > j else 0 for j in range(n)]
        for i in range(n)])


@st.composite
def point_pairs(draw):
    """A left-symmetric point algebra of rank 0 to 3 in a drawn rational
    frame, with left multiplication, the regular pair (L, R), a derived
    pair or the zero pair, conjugated by a drawn rational matrix, or with
    drawn rational matrices on a fibre of rank 0 to 3; mu may be absent,
    and one entry may be perturbed."""
    alg = draw(st.sampled_from(POINT_ALGEBRAS))()
    if alg.rank:
        alg = reframed(alg, draw(_lower_triangular(alg.rank)))
    r = alg.rank
    left = build_left_mult_rep(alg)
    kind = draw(st.sampled_from(("left", "regular", "derived", "zero",
                                 "drawn")))
    if kind == "left":
        rep = left
    elif kind == "regular":
        rep = Representation(r, left.rho_mat, [
            PolyMatrix((), [alg.c[j][i].components for j in range(r)])
            .transpose() for i in range(r)])
    elif kind == "derived":
        derived = derived_reps(alg, left)
        rep = draw(st.sampled_from((derived.on_bundle, derived.on_dual)))
    else:
        s = draw(st.integers(0, 3))
        if kind == "zero":
            rep = Representation(s, [PolyMatrix.zeros(s, s, ())] * r)
        else:
            mats = st.lists(st.lists(st.lists(_fractions, min_size=s,
                                              max_size=s),
                                     min_size=s, max_size=s),
                            min_size=r, max_size=r)
            rep = Representation(
                s, [PolyMatrix((), m) for m in draw(mats)],
                [PolyMatrix((), m) for m in draw(mats)]
                if draw(st.booleans()) else None)
    s = rep.s
    if s and draw(st.booleans()):
        S = draw(_lower_triangular(s))
        S_inv = matrix_inverse_adjugate(S)
        rep = Representation(s, [S_inv @ R @ S for R in rep.rho_mat],
                             [S_inv @ M @ S for M in rep.mu_mat])
    if s and r and draw(st.booleans()):
        tables = [list(rep.rho_mat), list(rep.mu_mat)]
        t, i = draw(st.integers(0, 1)), draw(st.integers(0, r - 1))
        m, p = draw(st.integers(0, s - 1)), draw(st.integers(0, s - 1))
        bump = PolyMatrix._from(((), s, s), {
            (m, p): Poly.constant(draw(_fractions.filter(bool)), ())})
        tables[t][i] = tables[t][i] + bump
        rep = Representation(s, *tables)
    return alg, rep


def test_point_gate_matches_check_representation_lsa():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(point_pairs())
    def agree(pair):
        alg, rep = pair
        verdict = check_representation_lsa(alg, rep)
        tables = _point_tables(alg, rep)
        assert _is_point_representation(tables) == verdict
        if verdict:
            assert point_cohomology_dims(alg, rep, 1) == \
                point_cohomology_dims(alg, rep, 1, check=False)
        else:
            with pytest.raises(NotARepresentation):
                point_cohomology_dims(alg, rep, 1)
        seen.add((verdict, alg.rank, rep.s, tables.den > 1,
                  all(m.is_zero() for m in rep.mu_mat)))

    agree()
    assert {v for v, *_ in seen} == {True, False}
    assert {r for _, r, *_ in seen} == {0, 1, 2, 3}
    assert {s for _, _, s, *_ in seen} == {0, 1, 2, 3}
    assert {(v, big) for v, _, _, big, _ in seen} >= \
        {(True, True), (False, True)}
    assert {(v, absent) for v, *_, absent in seen} >= \
        {(True, True), (False, True)}


@pytest.mark.parametrize("rep, misshapen", [
    (Representation(2, [PolyMatrix.identity(2, ())] * 3), True),
    (_off_coords("rho"), True), (_off_coords("mu"), True),
    (Representation(2, [PolyMatrix.identity(2, ())] * 2), False)])
def test_point_gate_decides_the_axioms_first(rep, misshapen):
    # past the axiom gate the tables refuse a misshapen pair; without
    # the check they are read from a table that fails the axioms
    alg = nonexample()
    with pytest.raises(NotLeftSymmetric):
        point_cohomology_dims(alg, rep, 2)
    if misshapen:
        with pytest.raises(DimensionMismatch):
            point_cohomology_dims(alg, rep, 2, check=False)
    else:
        assert point_cohomology_dims(alg, rep, 2, check=False).degrees


@st.composite
def _cochain(draw, alg, s, degree):
    """A degree-``degree`` cochain with degree-one polynomial values."""
    return RepCochain(alg.coords, alg.rank, s, degree, {
        (lead, last): [draw(_degree_one_poly(alg.coords)) for _ in range(s)]
        for lead in combinations(range(alg.rank), degree - 1)
        for last in range(alg.rank)})


def test_rep_d_squared_is_the_representation_verdict():
    # on a valid pair rep_d^2 = 0 on every drawn cochain; the record
    # fails every invalid pair, also where the drawn cochains miss it
    outcomes = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seeded_or_random(), st.data())
    def agree(pair, data):
        alg, rep = pair
        verdict = check_representation_lsa(alg, rep)
        zero = all(rep_d(alg, rep, rep_d(alg, rep, data.draw(
                       _cochain(alg, rep.s, degree)), check=False),
                         check=False).is_zero()
                   for degree in (1, 2, 3) for _ in range(2))
        assert zero or not verdict
        report = run_suite(InstanceFile("drawn", "", alg, rep),
                           "cohomology", max_degree=0)
        assert report.record("cohomology/rep-d-squared").status == \
            ("pass" if verdict else "fail")
        outcomes.add((verdict, zero))

    agree()
    assert outcomes == {(True, True), (False, False), (False, True)}


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
