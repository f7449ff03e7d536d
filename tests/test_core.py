"""Tests for algebroid axioms, sub-adjacent structures and the form
differential."""

import random
import sys
import threading
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    action_instance,
    associator_symmetry_oracle,
    flat_instance,
    ladder_instance,
    nonexample,
    point_algebra,
    point_e1e2,
    random_esection,
    random_poly,
    random_section,
    six_term_admissibility_oracle,
    two_form_d_oracle,
    zero_point_algebra,
)
from lsakit.core import (
    FormCochain,
    LieAlgebroid,
    LSAlgebroid,
    Section,
    anchor_of_section,
    associator,
    build_left_mult_rep,
    check_left_symmetric,
    check_lie_admissible,
    check_lie_algebroid,
    check_lsa_homomorphism,
    lie_form_d,
    rep_rho_frame,
    rep_rho_section,
    section_bracket,
    section_mult,
    sub_adjacent,
)
from lsakit.errors import (
    DegreeOverflow,
    IndexOutOfRange,
    LsakitError,
    NotLeftSymmetric,
    NotPointCase,
)
from lsakit.polyring import (
    Poly,
    PolyMatrix,
    VectorField,
    parse_poly,
    set_degree_limit,
)


# ---------------------------------------------------------------------------
# section multiplication
# ---------------------------------------------------------------------------

def test_section_mult_zero_structure():
    alg = zero_point_algebra(3)
    x = alg.section([1, 2, 3])
    y = alg.section([5, 0, -1])
    assert section_mult(alg, x, y).is_zero()


def test_section_mult_flat_instance():
    alg = flat_instance()
    x = parse_poly("x", alg.coords)
    target = alg.section([Poly.zero(alg.coords), x])
    result = section_mult(alg, alg.frame(0), target)
    assert result == alg.frame(1)


def test_frame_index_out_of_range():
    flat = flat_instance()
    for alg in (flat, sub_adjacent(flat), point_e1e2()):
        for i in (alg.rank, 7, -1):
            with pytest.raises(IndexOutOfRange):
                alg.frame(i)
            with pytest.raises(IndexOutOfRange):
                Section.unit(alg.coords, alg.rank, i)
        for i in range(alg.rank):
            expected = Section(alg.coords, [int(k == i)
                                            for k in range(alg.rank)])
            assert alg.frame(i) == expected
            assert Section.unit(alg.coords, alg.rank, i) == expected


def test_lazy_fields_are_safe_to_share_across_threads():
    # total_degree, hashes and the frame cache are filled on first use;
    # threads that race on fresh shared values must see the serial results
    def fresh():
        rng = random.Random(11)
        coords = ("x", "y")
        polys = []
        for _ in range(40):
            p = random_poly(rng, coords, 2) * random_poly(rng, coords, 2)
            polys.append(p + random_poly(rng, coords, 3))
        algs = [flat_instance(), point_e1e2(), ladder_instance()]
        return polys, algs

    def read(polys, algs):
        return ([(p.total_degree, hash(p), p.is_constant()) for p in polys],
                [[alg.frame(i) for i in range(alg.rank)] for alg in algs],
                [hash(alg.frame(i)) for alg in algs for i in range(alg.rank)])

    serial = read(*fresh())
    shared = fresh()
    assert all(p._degree is None and p._hash is None for p in shared[0])
    assert all(alg._frames is None for alg in shared[1])
    workers = 6
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def work(slot):
        barrier.wait(timeout=60)
        results[slot] = read(*shared)

    threads = [threading.Thread(target=work, args=(k,))
               for k in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so the first reads race
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == serial for result in results)


def test_section_mult_point_bilinear():
    alg = point_e1e2()
    s = alg.frame(0) + alg.frame(1)
    assert section_mult(alg, s, alg.frame(1)) == alg.frame(1)


def test_section_mult_leibniz_rules():
    rng = random.Random(7)
    for alg in (flat_instance(), action_instance(), ladder_instance()):
        for _ in range(5):
            f = random_poly(rng, alg.coords)
            x = random_section(rng, alg)
            y = random_section(rng, alg)
            fy = y.scale(f)
            lhs = section_mult(alg, x, fy)
            rhs = section_mult(alg, x, y).scale(f) \
                + y.scale(anchor_of_section(alg, x).apply(f))
            assert lhs == rhs
            assert section_mult(alg, x.scale(f), y) \
                == section_mult(alg, x, y).scale(f)


def test_associator_defect_is_tensorial():
    rng = random.Random(11)
    for alg in (flat_instance(), action_instance(), ladder_instance()):
        assert check_left_symmetric(alg).passed
        for _ in range(3):
            x = random_section(rng, alg, max_degree=1)
            y = random_section(rng, alg, max_degree=1)
            z = random_section(rng, alg, max_degree=1)
            defect = associator(alg, x, y, z) - associator(alg, y, x, z)
            assert defect.is_zero()


def test_associator_defect_expands_over_frames():
    # even on a failing instance the defect on sections is the
    # multilinear expansion of its frame components (point base, so no
    # anchor correction enters)
    rng = random.Random(13)
    alg = nonexample()

    def defect(x, y, z):
        return associator(alg, x, y, z) - associator(alg, y, x, z)

    for _ in range(4):
        secs = [random_section(rng, alg) for _ in range(3)]
        x, y, z = secs
        expansion = alg.zero_section()
        for i in range(alg.rank):
            for j in range(alg.rank):
                for k in range(alg.rank):
                    coeff = x.components[i] * y.components[j] * z.components[k]
                    expansion = expansion + defect(
                        alg.frame(i), alg.frame(j), alg.frame(k)).scale(coeff)
        assert defect(x, y, z) == expansion


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

def test_check_left_symmetric_zero_products_commuting_anchors():
    coords = ("x", "y")
    zero = Section.zero(coords, 2)
    anchor = [VectorField(coords, (Poly.constant(2, coords),
                                   Poly.constant(1, coords))),
              VectorField(coords, (Poly.constant(-1, coords),
                                   Poly.zero(coords)))]
    alg = LSAlgebroid(coords, 2, [[zero, zero], [zero, zero]], anchor)
    assert check_left_symmetric(alg).passed


def test_check_left_symmetric_action_instance():
    assert check_left_symmetric(action_instance()).passed


def test_check_left_symmetric_nonexample_witness():
    report = check_left_symmetric(nonexample())
    assert not report.passed
    rec = report.record("associator-symmetry")
    assert rec.status == "fail"
    assert any("(e_1,e_2,e_2)" in w for w in rec.witnesses)


def test_check_left_symmetric_keeps_the_degree_limit():
    # e_1.e_1 = x^3 e_2 and e_1.e_2 = x^3 e_1: the commutator of (e_1, e_2)
    # times e_1 is x^6 e_2, past a limit of 4, and the associator loop
    # meets the same product
    coords = ("x",)
    x3 = parse_poly("x^3", coords)
    zero = Section.zero(coords, 2)
    alg = LSAlgebroid(coords, 2, [[Section(coords, [0, x3]),
                                   Section(coords, [x3, 0])], [zero, zero]],
                      [VectorField.zero(coords)] * 2)
    set_degree_limit(4)
    try:
        with pytest.raises(DegreeOverflow):
            check_left_symmetric(alg)
        with pytest.raises(DegreeOverflow):
            associator_symmetry_oracle(alg)
    finally:
        set_degree_limit(16)
    assert alg._axioms is None
    witnesses = check_left_symmetric(alg).record("associator-symmetry") \
        .witnesses
    assert witnesses and witnesses == tuple(associator_symmetry_oracle(alg))


def test_check_left_symmetric_flat():
    assert check_left_symmetric(flat_instance()).passed


# ---------------------------------------------------------------------------
# sub-adjacent Lie algebroid
# ---------------------------------------------------------------------------

def test_sub_adjacent_zero_products():
    lie = sub_adjacent(zero_point_algebra(2))
    assert all(lie.b[i][j].is_zero() for i in range(2) for j in range(2))
    assert check_lie_algebroid(lie).passed


def test_sub_adjacent_point_e1e2():
    lie = sub_adjacent(point_e1e2())
    assert lie.b[0][1] == lie.frame(1)
    assert lie.b[1][0] == -lie.frame(1)
    assert check_lie_algebroid(lie).passed


def test_sub_adjacent_flat():
    lie = sub_adjacent(flat_instance())
    assert all(lie.b[i][j].is_zero() for i in range(2) for j in range(2))
    assert check_lie_algebroid(lie).passed


def test_sub_adjacent_rejects_invalid():
    with pytest.raises(NotLeftSymmetric):
        sub_adjacent(nonexample())


def test_sub_adjacent_passes_for_all_valid_instances():
    for alg in (flat_instance(), point_e1e2(), action_instance(),
                ladder_instance()):
        assert check_lie_algebroid(sub_adjacent(alg)).passed


def test_check_lie_algebroid_bad_anchor():
    coords = ("x",)
    zero = Section.zero(coords, 2)
    e1 = Section.unit(coords, 2, 0)
    b = [[zero, e1], [-e1, zero]]
    anchor = [VectorField(coords, (Poly.constant(1, coords),)),
              VectorField.zero(coords)]
    lie = LieAlgebroid(coords, 2, b, anchor)
    report = check_lie_algebroid(lie)
    assert not report.passed
    assert report.record("anchor-morphism").status == "fail"


def skew_failures(b) -> list:
    """Pairs i <= j with b_ij + b_ji != 0 and both entries: the loop of
    the skew-symmetry record before the constructor refused them."""
    return [(i, j, b[i][j], b[j][i]) for i in range(len(b))
            for j in range(i, len(b)) if not (b[i][j] + b[j][i]).is_zero()]


def test_lie_algebroid_refuses_a_table_that_is_not_skew():
    # b_21 = e_1, b_12 = 0 over a point: lsa_from_phase passed this table
    zero, e1 = Section.zero((), 2), Section.unit((), 2, 0)
    with pytest.raises(LsakitError) as info:
        LieAlgebroid((), 2, [[zero, zero], [e1, zero]],
                     [VectorField.zero(())] * 2)
    assert str(info.value) == \
        "bracket table is not skew-symmetric at (e_1,e_2): 0 vs -(e_1)"


def test_drawn_tables_are_refused_at_the_first_pair_that_is_not_skew():
    outcomes = set()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32), st.sampled_from(((), ("x",))),
           st.integers(1, 3), st.booleans())
    def agree(seed, coords, rank, skew):
        rng = random.Random(seed)
        b = [[random_esection(rng, coords, rank, 1) for _ in range(rank)]
             for _ in range(rank)]
        if skew:
            b = [[b[i][j] if i < j else -b[j][i] if i > j
                  else Section.zero(coords, rank) for j in range(rank)]
                 for i in range(rank)]
        failures = skew_failures(b)
        anchor = [VectorField.zero(coords)] * rank
        if failures:
            i, j, lhs, rhs = failures[0]
            with pytest.raises(LsakitError) as info:
                LieAlgebroid(coords, rank, b, anchor)
            assert str(info.value).endswith(
                f"(e_{i+1},e_{j+1}): {lhs} vs -({rhs})")
        else:
            lie = LieAlgebroid(coords, rank, b, anchor)
            assert check_lie_algebroid(lie).record("skew-symmetry").status \
                == "pass"
        outcomes.add(not failures)

    agree()
    assert outcomes == {True, False}


def test_section_bracket_leibniz():
    rng = random.Random(3)
    lie = sub_adjacent(ladder_instance())
    for _ in range(5):
        f = random_poly(rng, lie.coords)
        x = random_section(rng, lie)
        y = random_section(rng, lie)
        lhs = section_bracket(lie, x, y.scale(f))
        rhs = section_bracket(lie, x, y).scale(f) \
            + y.scale(anchor_of_section(lie, x).apply(f))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# left multiplication representation
# ---------------------------------------------------------------------------

def test_left_mult_rep_zero_products():
    rep = build_left_mult_rep(zero_point_algebra(2))
    assert all(m.is_zero() for m in rep.rho_mat)


def test_left_mult_rep_point_e1e2():
    rep = build_left_mult_rep(point_e1e2())
    assert rep.rho_mat[0] == PolyMatrix((), [[0, 0], [0, 1]])
    assert rep.rho_mat[1].is_zero()


def test_left_mult_rep_flat_is_pure_derivation():
    alg = flat_instance()
    rep = build_left_mult_rep(alg)
    assert all(m.is_zero() for m in rep.rho_mat)
    f = parse_poly("x*y", alg.coords)
    u = alg.section([f, Poly.zero(alg.coords)])
    image = rep_rho_frame(alg, rep, 0, u)
    assert image == alg.section([parse_poly("y", alg.coords),
                                 Poly.zero(alg.coords)])


def test_left_mult_rep_is_bracket_morphism_on_sections():
    rng = random.Random(19)
    for alg in (point_e1e2(), action_instance(), ladder_instance()):
        rep = build_left_mult_rep(alg)
        lie = sub_adjacent(alg)
        for i in range(alg.rank):
            for j in range(alg.rank):
                for _ in range(2):
                    u = random_section(rng, alg)
                    lhs = rep_rho_section(alg, rep, lie.b[i][j], u)
                    rhs = rep_rho_frame(alg, rep, i,
                                        rep_rho_frame(alg, rep, j, u)) \
                        - rep_rho_frame(alg, rep, j,
                                        rep_rho_frame(alg, rep, i, u))
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

def test_homomorphism_identity():
    alg = point_e1e2()
    assert check_lsa_homomorphism(alg, alg, PolyMatrix.identity(2, ()))


def test_homomorphism_zero_map_fails_on_nonzero_anchor():
    alg = action_instance()
    zero = PolyMatrix.zeros(1, 1, alg.coords)
    assert not check_lsa_homomorphism(alg, alg, zero)


def test_homomorphism_diagonal_scalings():
    alg = point_e1e2()
    for lam in (Fraction(1), Fraction(2), Fraction(-3, 2)):
        phi = PolyMatrix((), [[1, 0], [0, lam]])
        assert check_lsa_homomorphism(alg, alg, phi)
    # scaling e_1 breaks e_1 * e_2 = e_2
    assert not check_lsa_homomorphism(alg, alg, PolyMatrix((), [[2, 0], [0, 1]]))


# ---------------------------------------------------------------------------
# form differential
# ---------------------------------------------------------------------------

def test_lie_form_d_constant_function_zero_anchor():
    lie = sub_adjacent(zero_point_algebra(2))
    form = FormCochain((), 2, 0, {(): Poly.constant(5, ())})
    assert lie_form_d(lie, form).is_zero()


def test_lie_form_d_abelian_zero_anchor_kills_everything():
    lie = sub_adjacent(zero_point_algebra(3))
    one_form = FormCochain((), 3, 1, {(1,): Poly.constant(2, ())})
    two_form = FormCochain((), 3, 2, {(0, 2): Poly.constant(1, ())})
    assert lie_form_d(lie, one_form).is_zero()
    assert lie_form_d(lie, two_form).is_zero()


def test_lie_form_d_matches_two_form_oracle():
    rng = random.Random(23)
    for base in (point_e1e2(), ladder_instance()):
        lie = sub_adjacent(base)
        comps = {}
        for key in combinations(range(lie.rank), 2):
            comps[key] = random_poly(rng, lie.coords)
        form = FormCochain(lie.coords, lie.rank, 2, comps)
        d = lie_form_d(lie, form)
        for i, j, k in combinations(range(lie.rank), 3):
            assert d.component((i, j, k)) == two_form_d_oracle(lie, form, i, j, k)


def test_lie_form_d_squares_to_zero():
    rng = random.Random(29)
    for base in (flat_instance(), point_e1e2(), action_instance(),
                 ladder_instance()):
        lie = sub_adjacent(base)
        for degree in (0, 1, 2):
            for _ in range(3):
                comps = {}
                for key in combinations(range(lie.rank), degree):
                    comps[key] = random_poly(rng, lie.coords)
                form = FormCochain(lie.coords, lie.rank, degree, comps)
                assert lie_form_d(lie, lie_form_d(lie, form)).is_zero()


def test_form_evaluate_multilinear():
    rng = random.Random(31)
    lie = sub_adjacent(ladder_instance())
    form = FormCochain(lie.coords, 2, 2,
                       {(0, 1): random_poly(rng, lie.coords)})
    x = random_section(rng, lie)
    y = random_section(rng, lie)
    f = random_poly(rng, lie.coords)
    assert form.evaluate([x.scale(f), y]) == f * form.evaluate([x, y])
    assert form.evaluate([x, y]) == -form.evaluate([y, x])


# ---------------------------------------------------------------------------
# Lie admissibility (point case)
# ---------------------------------------------------------------------------

def test_lie_admissible_left_symmetric_algebras():
    for alg in (point_e1e2(), zero_point_algebra(3)):
        assert check_lie_admissible(alg)
        assert six_term_admissibility_oracle(alg)


def test_lie_admissible_matrix_units():
    # associative algebra of 2x2 matrix units: basis E11, E12, E21, E22
    def unit(k):
        return [1 if m == k else 0 for m in range(4)]

    products = {}
    # E_{ab} * E_{cd} = delta_{bc} E_{ad}; basis order: 11, 12, 21, 22
    labels = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for p, (a, b) in enumerate(labels):
        for q, (c, d) in enumerate(labels):
            if b == c:
                products[(p, q)] = unit(labels.index((a, d)))
    alg = point_algebra(4, products)
    assert check_lie_admissible(alg)
    assert six_term_admissibility_oracle(alg)


def test_lie_admissible_oracle_decides_nonassociative_sample():
    # e_1 * e_1 = e_2, e_2 * e_1 = e_1: decided by the six-term sum
    alg = point_algebra(2, {(0, 0): [0, 1], (1, 0): [1, 0]})
    assert check_lie_admissible(alg) == six_term_admissibility_oracle(alg)


@st.composite
def arbitrary_point_products(draw):
    """Rank and sparse product table of a point algebra whose product
    need not be left-symmetric."""
    rank = draw(st.integers(1, 4))
    coeff = st.sampled_from((0, 0, 0, 0, 1, -1, 2))
    return rank, {(i, j): [draw(coeff) for _ in range(rank)]
                  for i in range(rank) for j in range(rank)}


def test_lie_admissible_matches_six_term_oracle():
    outcomes = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(arbitrary_point_products())
    def agree(case):
        alg = point_algebra(*case)
        verdict = check_lie_admissible(alg)
        assert verdict == six_term_admissibility_oracle(alg)
        outcomes.add(verdict)

    agree()
    assert outcomes == {True, False}


def test_lie_admissible_requires_point_case():
    with pytest.raises(NotPointCase):
        check_lie_admissible(flat_instance())
