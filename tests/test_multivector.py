"""Tests for the exterior-algebra extension of the multiplication."""

import contextvars
import functools
import random
import sys
import threading
from fractions import Fraction
from itertools import combinations, product as triples

import pytest
from hypothesis import assume, given, settings, strategies as st
from helpers import (
    action_instance,
    flat_instance,
    graded_bracket_oracle,
    ladder_instance,
    lie_admissible_defect,
    point_algebra,
    point_e1e2,
    random_algebroid,
    random_poly,
    sample_generators,
    zero_point_algebra,
)
import lsakit.multivector as multivector
from lsakit.core import (
    LSAlgebroid,
    Section,
    _commutator_algebroid,
    check_left_symmetric,
    check_lie_algebroid,
    section_mult,
    sub_adjacent,
    section_bracket,
)
from lsakit.instances import load_corpus
from lsakit.multivector import (
    GradedSampleSpec,
    Multivector,
    check_graded_properties,
    graded_bracket,
    graded_product,
    wedge,
)
from lsakit.errors import DegreeOverflow, DimensionMismatch
from lsakit.polyring import Poly, VectorField, parse_poly, set_degree_limit
from lsakit.report import Report


def mv_section(alg, i):
    return Multivector.from_section(alg.frame(i))


def mv_fn(alg, text):
    return Multivector.from_poly(parse_poly(text, alg.coords), alg.rank)


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_alternating():
    alg = flat_instance()
    e1 = mv_section(alg, 0)
    e2 = mv_section(alg, 1)
    assert wedge(e1, e1).is_zero()
    assert (wedge(e1, e2) + wedge(e2, e1)).is_zero()


def test_wedge_bilinear_with_coefficients():
    alg = flat_instance()
    f = parse_poly("x", alg.coords)
    g = parse_poly("y + 1", alg.coords)
    fe1 = Multivector.basis_wedge(alg.coords, 2, (0,), f)
    ge2 = Multivector.basis_wedge(alg.coords, 2, (1,), g)
    assert wedge(fe1, ge2) == Multivector.basis_wedge(alg.coords, 2, (0, 1),
                                                      f * g)


def test_wedge_associative_and_graded_commutative():
    rng = random.Random(13)
    alg = flat_instance()
    gens = sample_generators(alg, GradedSampleSpec(max_grade=2,
                                                   max_coeff_degree=1))
    picks = [gens[rng.randrange(len(gens))] for _ in range(9)]
    for a, b, c in zip(picks[0::3], picks[1::3], picks[2::3]):
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        sign = -1 if (a.grade() * b.grade()) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scale(sign)


# ---------------------------------------------------------------------------
# extended product: base rules
# ---------------------------------------------------------------------------

def test_product_mixed_with_functions():
    alg = action_instance()
    x = mv_section(alg, 0)
    f = mv_fn(alg, "x^2")
    # section acting on a function goes through the anchor
    assert graded_product(alg, x, f) == mv_fn(alg, "2*x^2")
    # functions act as zero from the left
    assert graded_product(alg, f, x).is_zero()
    assert graded_product(alg, f, mv_fn(alg, "x")).is_zero()


def test_product_grade1_equals_section_mult():
    for alg in (point_e1e2(), action_instance(), ladder_instance()):
        for i in range(alg.rank):
            for j in range(alg.rank):
                lhs = graded_product(alg, mv_section(alg, i), mv_section(alg, j))
                assert lhs == Multivector.from_section(alg.c[i][j])


def test_product_zero_algebroid_kills_positive_grades():
    alg = zero_point_algebra(3)
    e12 = Multivector.basis_wedge((), 3, (0, 1))
    e3 = Multivector.basis_wedge((), 3, (2,))
    assert graded_product(alg, e12, e3).is_zero()
    assert graded_product(alg, e3, e12).is_zero()


def test_product_double_sum_example():
    # (e_1 ^ e_2) . e_2 = 0 for the point algebra with e_1*e_2 = e_2
    alg = point_e1e2()
    e12 = Multivector.basis_wedge((), 2, (0, 1))
    e2 = mv_section(alg, 1)
    assert graded_product(alg, e12, e2).is_zero()
    # and a case where it does not vanish: (e_1 ^ e_2) . e_1 ... all
    # products with e_1 on the right are zero here, so build one by hand
    lhs = graded_product(alg, Multivector.basis_wedge((), 2, (0, 1)),
                         Multivector.basis_wedge((), 2, (0, 1)))
    # (e1^e2).(e1^e2): only e_1 . e_2 = e_2 contributes:
    # (i=1,j=2): +(e_1.e_2)^e_2^e_1 = e_2^e_2^e_1 = 0; every other pair
    # multiplies to zero
    assert lhs.is_zero()


def test_product_grade_rule():
    alg = ladder_instance()
    x = Multivector.basis_wedge(alg.coords, 2, (0, 1),
                                parse_poly("x", alg.coords))
    y = mv_section(alg, 0)
    result = graded_product(alg, x, y)
    assert result.is_zero() or result.grades() == [2]


def rule_based_product(alg, x: Multivector, y: Multivector) -> Multivector:
    """Independent oracle: recursive evaluation through the extension
    rules (anchor action on functions, section product in grade one,
    and the two wedge expansion rules), never the double-sum formula."""
    out = Multivector.zero(alg.coords, alg.rank)
    for key_x, px in x.terms.items():
        for key_y, py in y.terms.items():
            out = out + _rule_term(alg, key_x, px, key_y, py)
    return out


def _rule_term(alg, key_x, px, key_y, py) -> Multivector:
    k, l = len(key_x), len(key_y)
    if k == 0:
        return Multivector.zero(alg.coords, alg.rank)
    if k == 1:
        if l == 0:
            section = Section(alg.coords,
                              [px if m == key_x[0] else Poly.zero(alg.coords)
                               for m in range(alg.rank)])
            from lsakit.core import anchor_of_section
            value = anchor_of_section(alg, section).apply(py)
            return Multivector.from_poly(value, alg.rank)
        if l == 1:
            left = Section(alg.coords,
                           [px if m == key_x[0] else Poly.zero(alg.coords)
                            for m in range(alg.rank)])
            right = Section(alg.coords,
                            [py if m == key_y[0] else Poly.zero(alg.coords)
                             for m in range(alg.rank)])
            return Multivector.from_section(section_mult(alg, left, right))
        # x . (y' ^ z): split off the last frame factor of y
        head = Multivector(alg.coords, alg.rank, {key_y[:-1]: py})
        tail = Multivector.basis_wedge(alg.coords, alg.rank, (key_y[-1],))
        xmv = Multivector(alg.coords, alg.rank, {key_x: px})
        first = wedge(rule_based_product(alg, xmv, head), tail)
        sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
        second = wedge(head, rule_based_product(alg, xmv, tail)).scale(sign)
        return first + second
    # (x' ^ w) . z: split off the last frame factor of x
    head = Multivector(alg.coords, alg.rank, {key_x[:-1]: px})
    tail = Multivector.basis_wedge(alg.coords, alg.rank, (key_x[-1],))
    zmv = Multivector(alg.coords, alg.rank, {key_y: py})
    first = wedge(head, rule_based_product(alg, tail, zmv))
    sign = -1 if ((l - 1) * 1) % 2 else 1
    second = wedge(rule_based_product(alg, head, zmv), tail).scale(sign)
    return first + second


def test_product_matches_rule_based_oracle():
    rng = random.Random(37)
    for alg in (point_e1e2(), ladder_instance(), flat_instance()):
        gens = sample_generators(alg, GradedSampleSpec(max_grade=2,
                                                       max_coeff_degree=1))
        for _ in range(30):
            x = gens[rng.randrange(len(gens))]
            y = gens[rng.randrange(len(gens))]
            assert graded_product(alg, x, y) == rule_based_product(alg, x, y)


def mv_terms(alg, entries: dict) -> Multivector:
    return Multivector(alg.coords, alg.rank,
                       {key: parse_poly(text, alg.coords)
                        for key, text in entries.items()})


# (builder, [(x, y, expected product or None)]) with multi-term rational
# coefficients; the expected products are ones whose terms cancel
RATIONAL_PAIRS = [
    (flat_instance, [
        ({(): "3/2*x - y", (0,): "2/3*x*y - 1/5", (0, 1): "x + 7/3"},
         {(0,): "1/4*y^2 + x", (1,): "-5/6*x + 1/2", (0, 1): "y - 3"},
         None),
        # e_1 and e_2 differentiate the function to opposite values
        ({(0,): "1/2*x + 1/2*y + 1/3", (1,): "1/2*x + 1/2*y + 1/3"},
         {(): "1/3*x^2 - 2/3*x*y + 1/3*y^2 + 5/7"},
         {}),
    ]),
    (ladder_instance, [
        ({(0,): "2/3*x - 1/2", (1,): "x^2 - 1/7"},
         {(): "5/2*x^2 - x", (0,): "1/3*x + 4", (1,): "1/9 - x"},
         None),
        # d/dx g + g for g = x^2/2 - x + 1 leaves only x^2/2
        ({(0,): "2/3*x - 1/2"}, {(1,): "1/2*x^2 - x + 1"},
         {(1,): "1/3*x^3 - 1/4*x^2"}),
    ]),
    (action_instance, [
        ({(): "x - 1/2", (0,): "1/2*x - 1/3"},
         {(): "3*x^2 - 2/5", (0,): "3*x + 2"},
         None),
    ]),
]


@pytest.mark.parametrize("build, pairs", RATIONAL_PAIRS,
                         ids=[build.__name__ for build, _ in RATIONAL_PAIRS])
def test_product_matches_oracle_on_rational_coefficients(build, pairs):
    cases = []
    for x, y, expected in pairs:
        alg = build()
        x, y = mv_terms(alg, x), mv_terms(alg, y)
        cases += [(x, y, expected), (y, x, None)]
    for x, y, expected in cases:
        alg = build()  # a fresh algebroid for every product
        oracle = rule_based_product(alg, x, y)
        assert graded_product(alg, x, y) == oracle
        if expected is not None:
            assert oracle == mv_terms(alg, expected)
    # one shared algebroid, used by the products and brackets in reverse
    # order before the products are taken again
    alg = build()
    for x, y, _ in reversed(cases):
        graded_bracket(alg, y, x)
        graded_product(alg, y, x)
    for x, y, _ in cases:
        assert graded_product(alg, x, y) == rule_based_product(alg, x, y)


def test_reused_product_respects_lowered_degree_limit():
    alg = flat_instance()
    x = mv_terms(alg, {(0,): "x^3*y"})
    y = mv_terms(alg, {(1,): "x*y^2 + 1/2"})
    warm = graded_product(alg, x, y)  # multiplies x^3*y by x*y^2: degree 7
    try:
        set_degree_limit(6)
        with pytest.raises(DegreeOverflow):
            graded_product(alg, x, y)
        with pytest.raises(DegreeOverflow):
            graded_product(flat_instance(), x, y)
        set_degree_limit(7)
        assert graded_product(alg, x, y) == warm
    finally:
        set_degree_limit(16)


def random_multivector(rng, alg) -> Multivector:
    """Up to three terms of mixed grades, each coefficient a polynomial of
    up to three terms with Fraction values."""
    keys = [key for grade in range(alg.rank + 1)
            for key in combinations(range(alg.rank), grade)]
    return Multivector(alg.coords, alg.rank,
                       {key: random_poly(rng, alg.coords, 2, 3)
                        for key in rng.sample(keys, min(3, len(keys)))})


def test_products_match_oracles_on_polynomial_coefficients():
    # graded_product against the rule-based expansion, graded_bracket
    # against the sum over homogeneous components
    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from((((), 2), ((), 3), (("x",), 2), (("x",), 3),
                            (("x", "y"), 2))),
           st.integers(0, 2 ** 32))
    def agree(shape, seed):
        rng = random.Random(seed)
        alg = random_algebroid(rng, *shape)
        x, y = random_multivector(rng, alg), random_multivector(rng, alg)
        assert graded_product(alg, x, y) == rule_based_product(alg, x, y)
        bracket = graded_bracket_oracle(alg, x, y)
        assert graded_bracket(alg, x, y) == bracket
        for value in (*x.terms.values(), *y.terms.values()):
            seen.add(("terms", min(len(value.terms), 2)))
            seen.update(("fraction", type(c) is Fraction)
                        for c in value.terms.values())
        seen.add(("mixed", not (x.is_homogeneous() and y.is_homogeneous())))
        seen.add(("nonzero", not bracket.is_zero()))

    agree()
    assert seen >= {("terms", 2), ("fraction", True), ("mixed", True),
                    ("nonzero", True)}


def test_bracket_checks_the_bundle_on_zero_operands():
    # the product loop checks the bundle before it reads any term
    alg, other = flat_instance(), ladder_instance()
    zero = Multivector.zero(other.coords, other.rank)
    for operation in (graded_product, graded_bracket):
        with pytest.raises(DimensionMismatch):
            operation(alg, zero, zero)


def overflow_algebroid() -> LSAlgebroid:
    """Rank 2 over (x, y) with e_1 . e_2 = x e_1, every other product
    and both anchors zero."""
    coords = ("x", "y")
    zero = Section.zero(coords, 2)
    e1x = Section(coords, [parse_poly("x", coords), Poly.zero(coords)])
    return LSAlgebroid(coords, 2, [[zero, e1x], [zero, zero]],
                       [VectorField.zero(coords)] * 2)


def _outcomes(alg, pairs, limit: int) -> list:
    """Each product of ``pairs`` under ``limit``, or the DegreeOverflow
    message it raises, in a context of its own."""
    def run():
        set_degree_limit(limit)
        out = []
        for x, y in pairs:
            try:
                out.append(graded_product(alg, x, y))
            except DegreeOverflow as err:
                out.append(str(err))
        return out

    return contextvars.copy_context().run(run)


def test_reused_algebroid_overflows_with_the_fresh_message():
    # the fresh product first exceeds limit 6 at degree 7 (x^3*y times
    # x*y^2); after a product under limit 16, the same algebroid must
    # raise the same message
    alg = overflow_algebroid()
    x = mv_terms(alg, {(0,): "x^3*y"})
    y = mv_terms(alg, {(1,): "x*y^2"})
    assert _outcomes(alg, [(x, y)], 16) == [mv_terms(alg, {(0,): "x^5*y^3"})]
    fresh = _outcomes(overflow_algebroid(), [(x, y)], 6)
    assert fresh == ["product degree 7 exceeds limit 6"]
    assert _outcomes(alg, [(x, y)], 6) == fresh
    assert _outcomes(alg, [(x, y)], 7) == \
        _outcomes(overflow_algebroid(), [(x, y)], 7)
    # a coefficient of several terms is multiplied whole: x^3*y + x^4*y
    # times x*y^2 reaches degree 8
    x = mv_terms(alg, {(0,): "x^3*y + x^4*y"})
    fresh = _outcomes(overflow_algebroid(), [(x, y)], 6)
    assert fresh == ["product degree 8 exceeds limit 6"]
    assert _outcomes(alg, [(x, y)], 16) == \
        [mv_terms(alg, {(0,): "x^5*y^3 + x^6*y^3"})]
    assert _outcomes(alg, [(x, y)], 6) == fresh


def test_products_shared_across_threads_at_two_limits():
    # two threads on one algebroid, one under limit 6 and one under 8:
    # each sees exactly the results and messages of a fresh serial run
    coords = ("x", "y")
    texts = ["x", "x*y + 1/2", "2/3*x^2*y - y^3", "x^4*y + x"]
    gens = [Multivector(coords, 2, {key: parse_poly(text, coords)})
            for text in texts for key in ((0,), (1,), (0, 1))]
    pairs = [(x, y) for x in gens for y in gens]
    serial = {limit: _outcomes(overflow_algebroid(), pairs, limit)
              for limit in (6, 8)}
    for outcomes in serial.values():
        assert any(isinstance(o, str) for o in outcomes)
        assert any(isinstance(o, Multivector) and not o.is_zero()
                   for o in outcomes)
    assert serial[6] != serial[8]
    shared = overflow_algebroid()
    barrier = threading.Barrier(2)
    results = {}

    def run(limit):
        barrier.wait()
        results[limit] = [_outcomes(shared, pairs, limit) for _ in range(3)]

    threads = [threading.Thread(target=run, args=(limit,))
               for limit in serial]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == {limit: [outcomes] * 3
                       for limit, outcomes in serial.items()}


def test_graded_check_shared_across_threads():
    spec = GradedSampleSpec(max_grade=2, max_coeff_degree=1)
    serial = check_graded_properties(flat_instance(), spec).to_dict()
    shared = flat_instance()
    results = [None] * 4

    def run(slot):
        results[slot] = check_graded_properties(shared, spec).to_dict()

    threads = [threading.Thread(target=run, args=(slot,))
               for slot in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * len(results)


def test_product_coefficient_slot_invariance():
    # folding a coefficient into different wedge factors gives the same
    # multivector, so the product must agree on both presentations
    alg = ladder_instance()
    f = parse_poly("x^2", alg.coords)
    fe1 = Multivector.basis_wedge(alg.coords, 2, (0,), f)
    e1 = Multivector.basis_wedge(alg.coords, 2, (0,))
    e2 = Multivector.basis_wedge(alg.coords, 2, (1,))
    fe2 = Multivector.basis_wedge(alg.coords, 2, (1,), f)
    left = wedge(fe1, e2)
    right = wedge(e1, fe2)
    assert left == right
    target = Multivector.basis_wedge(alg.coords, 2, (0, 1),
                                     parse_poly("x", alg.coords))
    assert graded_product(alg, left, target) == graded_product(alg, right, target)
    assert graded_product(alg, target, left) == graded_product(alg, target, right)


# ---------------------------------------------------------------------------
# graded bracket
# ---------------------------------------------------------------------------

def test_bracket_grade1_is_sub_adjacent_bracket():
    for alg in (point_e1e2(), ladder_instance()):
        lie = sub_adjacent(alg)
        for i in range(alg.rank):
            for j in range(alg.rank):
                lhs = graded_bracket(alg, mv_section(alg, i), mv_section(alg, j))
                assert lhs == Multivector.from_section(lie.b[i][j])


def test_bracket_with_function_is_anchor_action():
    alg = action_instance()
    x = mv_section(alg, 0)
    f = mv_fn(alg, "x^3")
    assert graded_bracket(alg, x, f) == mv_fn(alg, "3*x^3")
    assert graded_bracket(alg, f, x) == mv_fn(alg, "-3*x^3")


def test_bracket_shifted_alternating():
    # [x, x] = 0 when the shifted degree of x is even (grade odd)
    alg = flat_instance()
    x = Multivector.basis_wedge(alg.coords, 2, (0,),
                                parse_poly("x*y", alg.coords))
    assert graded_bracket(alg, x, x).is_zero()


def test_bracket_is_schouten_on_sections_vs_wedges():
    # [x, y ^ z] for sections x, y, z agrees with the Leibniz expansion
    # through sub-adjacent brackets
    rng = random.Random(41)
    for alg in (ladder_instance(), point_e1e2()):
        lie = sub_adjacent(alg)
        for _ in range(5):
            xs = [Section(alg.coords,
                          [random_poly(rng, alg.coords, 1) for _ in
                           range(alg.rank)]) for _ in range(3)]
            x, y, z = xs
            lhs = graded_bracket(alg, Multivector.from_section(x),
                                 wedge(Multivector.from_section(y),
                                       Multivector.from_section(z)))
            rhs = wedge(Multivector.from_section(section_bracket(lie, x, y)),
                        Multivector.from_section(z)) \
                + wedge(Multivector.from_section(y),
                        Multivector.from_section(section_bracket(lie, x, z)))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# graded property reports
# ---------------------------------------------------------------------------

def test_graded_properties_zero_algebra():
    report = check_graded_properties(zero_point_algebra(3),
                                     GradedSampleSpec(max_grade=3))
    assert report.passed


def test_graded_properties_point_algebra():
    report = check_graded_properties(point_e1e2(),
                                     GradedSampleSpec(max_grade=2))
    assert report.passed


def test_graded_properties_action_instance():
    report = check_graded_properties(action_instance(),
                                     GradedSampleSpec(max_grade=1,
                                                      max_coeff_degree=2))
    assert report.passed


def test_graded_properties_ladder_with_coefficients():
    report = check_graded_properties(ladder_instance(),
                                     GradedSampleSpec(max_grade=2,
                                                      max_coeff_degree=1))
    assert report.passed


def reference_graded_check(alg, spec: GradedSampleSpec) -> Report:
    """The graded check computed naively on the sample: every product and
    bracket is recomputed wherever it occurs, each associator once.
    Oracle for check_graded_properties (same checks, witnesses and
    witness order)."""
    gens = sample_generators(alg, spec)
    report = Report("graded structure")

    witnesses = []
    for x in gens:
        for y in gens:
            product = graded_product(alg, x, y)
            expected = x.grade() + y.grade() - 1
            if any(len(key) != expected for key in product.terms):
                witnesses.append(f"|{x} . {y}| != {expected}")
    report.add("grade-rule", "extended product drops total grade by one",
               not witnesses, witnesses[:5])

    sec_witnesses = []
    for i in range(alg.rank):
        for j in range(alg.rank):
            x = Multivector.from_section(alg.frame(i))
            y = Multivector.from_section(alg.frame(j))
            if graded_product(alg, x, y) != \
                    Multivector.from_section(alg.c[i][j]):
                sec_witnesses.append(f"(e_{i+1},e_{j+1})")
    report.add("degree-one-reduction",
               "extended product restricts to the section product",
               not sec_witnesses, sec_witnesses)

    count = len(gens)
    sigma = [g.grade() - 1 for g in gens]
    prod = [[graded_product(alg, a, b) for b in gens] for a in gens]
    brk = [[graded_bracket(alg, a, b) for b in gens] for a in gens]

    def assoc(i, j, k):
        return graded_product(alg, prod[i][j], gens[k]) \
            - graded_product(alg, gens[i], prod[j][k])

    def defect(i, j, k, cache):
        if (i, j, k) not in cache:
            cache[(i, j, k)] = assoc(i, j, k)
        if (j, i, k) not in cache:
            cache[(j, i, k)] = assoc(j, i, k)
        sign = -1 if (sigma[i] * sigma[j]) % 2 else 1
        return cache[(i, j, k)] - cache[(j, i, k)].scale(sign)

    cache = {}
    ci_witnesses = []
    leib_witnesses = []
    jac_witnesses = []
    anti_witnesses = []
    for i in range(count):
        x, sx = gens[i], sigma[i]
        for j in range(count):
            y, sy = gens[j], sigma[j]
            bracket_xy = brk[i][j]
            for k in range(count):
                z = gens[k]
                d_xyz = defect(i, j, k, cache)
                d_yzx = defect(j, k, i, cache)
                d_zxy = defect(k, i, j, cache)
                s1 = -1 if (sx * sigma[k]) % 2 else 1
                s2 = -1 if (sy * sx) % 2 else 1
                s3 = -1 if (sigma[k] * sy) % 2 else 1
                ci = d_xyz.scale(s1) + d_yzx.scale(s2) + d_zxy.scale(s3)
                if not ci.is_zero():
                    ci_witnesses.append(f"CI({x}, {y}, {z}) = {ci}")

                lhs = graded_bracket(alg, x, wedge(y, z))
                sign = -1 if (sx * y.grade()) % 2 else 1
                rhs = wedge(bracket_xy, z) + wedge(y, brk[i][k]).scale(sign)
                if lhs != rhs:
                    leib_witnesses.append(f"[{x}, {y}^{z}]")

                jac_sign = -1 if (sx * sy) % 2 else 1
                jac_lhs = graded_bracket(alg, x, brk[j][k])
                jac_rhs = graded_bracket(alg, bracket_xy, z) \
                    + graded_bracket(alg, y, brk[i][k]).scale(jac_sign)
                if jac_lhs != jac_rhs:
                    jac_witnesses.append(f"[{x}, [{y}, {z}]]")

                swap_sign = -1 if (sx * sy) % 2 else 1
                d_yxz = defect(j, i, k, cache)
                if d_xyz != d_yxz.scale(-swap_sign):
                    anti_witnesses.append(f"({x}, {y}, {z})")

    report.add("lie-admissible",
               "graded Lie-admissibility defect vanishes on sampled triples",
               not ci_witnesses, ci_witnesses[:5])
    report.add("graded-leibniz",
               "bracket satisfies the graded Leibniz rule on sampled triples",
               not leib_witnesses, leib_witnesses[:5])
    report.add("graded-jacobi",
               "bracket satisfies the graded Jacobi identity on sampled "
               "triples", not jac_witnesses, jac_witnesses[:5])
    report.add("defect-antisymmetry",
               "left-symmetry defect is shifted-antisymmetric in its first "
               "two slots", not anti_witnesses, anti_witnesses[:5])
    return report


def euler_pair_instance() -> LSAlgebroid:
    """Rank 2 over one coordinate with zero products and anchors x d/dx
    and d/dx: the anchor does not preserve brackets, so graded
    identities fail."""
    coords = ("x",)
    zero = Section.zero(coords, 2)
    anchor = [VectorField(coords, (parse_poly("x", coords),)),
              VectorField(coords, (Poly.constant(1, coords),))]
    return LSAlgebroid(coords, 2, [[zero, zero], [zero, zero]], anchor)


@pytest.mark.parametrize("name", ["flat", "double_e1e2", "ladder", "action",
                                  "point_e1e2"])
def test_graded_check_matches_reference_on_corpus(name):
    alg = load_corpus(name).algebroid
    spec = GradedSampleSpec(max_grade=2, max_coeff_degree=1)
    assert check_graded_properties(alg, spec).to_dict() == \
        reference_graded_check(alg, spec).to_dict()


def commutator_witnesses(alg) -> list:
    """The frame Jacobi then anchor witnesses of the commutator's Lie
    algebroid check, first five: what both graded records list."""
    lie = check_lie_algebroid(_commutator_algebroid(alg))
    return [*lie.record("jacobi").witnesses,
            *lie.record("anchor-morphism").witnesses][:5]


def statuses(report: Report) -> list:
    return [(rec.name, rec.status) for rec in report.records]


def test_graded_check_matches_reference_on_failures():
    for alg, spec in (
            # the anchor does not preserve brackets: no frame triple, one
            # anchor witness
            (euler_pair_instance(), GradedSampleSpec(2, 1)),
            # [e_1, e_2] = e_3 and [e_1, e_3] = e_1: the frame Jacobi
            # identity fails on (e_1, e_2, e_3)
            (point_algebra(3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]}),
             GradedSampleSpec(1, 0))):
        expected = reference_graded_check(alg, spec)
        assert {"lie-admissible", "graded-jacobi"} <= \
            {rec.name for rec in expected.failures()}
        report = check_graded_properties(alg, spec)
        assert statuses(report) == statuses(expected)
        witnesses = commutator_witnesses(alg)
        assert witnesses
        for name in ("lie-admissible", "graded-jacobi"):
            assert list(report.record(name).witnesses) == witnesses


def test_graded_check_matches_reference_on_unchecked_algebroids():
    # the sample sees both frame identities at coefficient degree 1
    outcomes = set()
    spec = GradedSampleSpec(max_grade=2, max_coeff_degree=1)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.sampled_from((((), 2), ((), 3), (("x",), 2))),
           st.randoms(use_true_random=False))
    def agree(shape, rng):
        alg = random_algebroid(rng, *shape)
        assume(not check_left_symmetric(alg).passed)
        expected = reference_graded_check(alg, spec)
        report = check_graded_properties(alg, spec)
        assert statuses(report) == statuses(expected)
        witnesses = commutator_witnesses(alg)
        for name in ("lie-admissible", "graded-jacobi"):
            assert list(report.record(name).witnesses) == witnesses
        status = dict(statuses(expected))
        outcomes.add((status["lie-admissible"], status["graded-jacobi"]))

    agree()
    assert outcomes == {("pass", "pass"), ("fail", "fail")}


def test_graded_check_decides_what_the_sample_decides():
    # the lemma behind both records: the Jacobiator vanishes iff the
    # commutator's frame Jacobi and anchor identities hold.  The sample
    # sees the anchor identity only through coefficients of degree 1 or
    # more, so over coordinates at degree 0 the exact check may be
    # stricter, never laxer
    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from((((), 2), ((), 3), (("x",), 2),
                            (("x", "y"), 2))),
           st.sampled_from(((2, 1), (1, 1), (2, 0), (1, 0))),
           st.booleans(), st.integers(0, 2 ** 32))
    def agree(shape, bounds, zero_anchor, seed):
        coords, rank = shape
        alg = random_algebroid(random.Random(seed), coords, rank)
        if zero_anchor:
            alg = LSAlgebroid(coords, rank, alg.c,
                              [VectorField.zero(coords)] * rank)
        spec = GradedSampleSpec(*bounds)
        expected = dict(statuses(reference_graded_check(alg, spec)))
        got = dict(statuses(check_graded_properties(alg, spec)))
        if expected["graded-jacobi"] == "fail" or not coords \
                or spec.max_coeff_degree >= 1:
            assert got == expected
        seen.add((expected["graded-jacobi"], got["graded-jacobi"]))

    agree()
    assert seen == {("pass", "pass"), ("fail", "fail"), ("pass", "fail")}


def _leibniz_sides(alg, x, y, z):
    sign = -1 if ((x.grade() - 1) * y.grade()) % 2 else 1
    return graded_bracket(alg, x, wedge(y, z)), \
        wedge(graded_bracket(alg, x, y), z) \
        + wedge(y, graded_bracket(alg, x, z)).scale(sign)


@pytest.mark.parametrize("source", ["random", "flat", "ladder", "action",
                                    "double_e1e2"])
def test_graded_check_reuse_lemmas(source):
    # what check_graded_properties decides once per rotation orbit and
    # once per unordered {y, z}: CI is the same on all three rotations,
    # and each side of the Leibniz rule at (x, z, y) is (-1)^(|y||z|)
    # times that side at (x, y, z), on algebroids that fail the axioms too
    rng = random.Random(source)
    if source == "random":
        algs = []
        while len(algs) < 3:
            alg = random_algebroid(rng, *rng.choice(
                [((), 2), ((), 3), (("x",), 2)]))
            if not check_left_symmetric(alg).passed:
                algs.append(alg)
    else:
        algs = [load_corpus(source).algebroid]
    nonzero = set()
    for alg in algs:
        gens = sample_generators(alg, GradedSampleSpec(2, 1))
        for _ in range(12):
            x, y, z = (gens[rng.randrange(len(gens))] for _ in range(3))
            ci = lie_admissible_defect(alg, x, y, z)
            assert lie_admissible_defect(alg, y, z, x) == ci
            assert lie_admissible_defect(alg, z, x, y) == ci
            eps = -1 if (y.grade() * z.grade()) % 2 else 1
            lhs, rhs = _leibniz_sides(alg, x, y, z)
            assert _leibniz_sides(alg, x, z, y) == (lhs.scale(eps),
                                                    rhs.scale(eps))
            nonzero |= {name for name, value in (("ci", ci), ("lhs", lhs))
                        if not value.is_zero()}
    # CI fails only where the axioms do
    if source == "random":
        assert nonzero == {"ci", "lhs"}
    else:
        assert "ci" not in nonzero


def leibniz_oracle(alg, spec: GradedSampleSpec) -> tuple[list, int]:
    """The graded Leibniz rule sampled on every generator triple, as
    check_graded_properties decided it before stating it by its proof:
    the triples where the two sides differ, and how many triples have a
    nonzero side."""
    gens = sample_generators(alg, spec)
    bracket = functools.cache(lambda x, w: graded_bracket(alg, x, w))
    failures, nonzero = [], 0
    for x, y, z in triples(gens, repeat=3):
        sign = -1 if ((x.grade() - 1) * y.grade()) % 2 else 1
        lhs = bracket(x, wedge(y, z))
        rhs = wedge(bracket(x, y), z) + wedge(y, bracket(x, z)).scale(sign)
        if lhs != rhs:
            failures.append((x, y, z))
        nonzero += not (lhs.is_zero() and rhs.is_zero())
    return failures, nonzero


def test_graded_leibniz_holds_for_any_tables():
    # the lemma behind the graded-leibniz record: left and right
    # multiplication are graded derivations of the wedge, so the bracket
    # obeys the rule whatever the product and anchor tables
    left_symmetric = set()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from((((), 2), ((), 3), (("x",), 2), (("x",), 3),
                            (("x", "y"), 2))),
           st.sampled_from((GradedSampleSpec(2, 1), GradedSampleSpec(3, 0))),
           st.integers(0, 2 ** 32))
    def holds(shape, spec, seed):
        alg = random_algebroid(random.Random(seed), *shape)
        failures, nonzero = leibniz_oracle(alg, spec)
        assert failures == []
        assert nonzero > 0
        assert check_graded_properties(alg, spec).record(
            "graded-leibniz").status == "pass"
        left_symmetric.add(check_left_symmetric(alg).passed)

    holds()
    assert False in left_symmetric


def _graded_report(check, name: str, spec: GradedSampleSpec, limit: int):
    """``check`` on a fresh copy of a corpus file under a degree limit, as
    a dict, or None when the limit stops it."""
    def run():
        set_degree_limit(limit)
        return check(load_corpus(name).algebroid, spec).to_dict()

    try:
        return contextvars.copy_context().run(run)
    except DegreeOverflow:
        return None


@pytest.mark.parametrize("name, sampled, sampled_wide", [
    # the lowest limits the sampled check completed under, at (2, 1) and
    # at (3, 2); the frame identities fit under the lowest limit, 1
    ("flat", 2, 5), ("riemannian", 2, 5), ("ladder", 3, 6),
    ("action", 3, 6)])
def test_graded_check_degree_limits(name, sampled, sampled_wide):
    spec = GradedSampleSpec(2, 1)
    for limit in range(1, sampled + 2):
        report = _graded_report(check_graded_properties, name, spec, limit)
        assert report is not None
        expected = _graded_report(reference_graded_check, name, spec, limit)
        if expected is not None:
            assert report == expected
    wide = GradedSampleSpec(3, 2)
    for limit in (1, sampled_wide - 1):
        assert _graded_report(check_graded_properties, name, wide,
                              limit) is not None


def test_graded_check_brackets_no_jacobiator(monkeypatch):
    # bracketing the Jacobiator out as well took 315 brackets here,
    # deciding every ordered Leibniz triple 171, and sampling the Leibniz
    # rule once per unordered {y, z} 144; that rule now holds by its proof
    calls = []
    original = multivector.graded_bracket

    def counted(*args):
        calls.append(args[1:3])
        return original(*args)

    monkeypatch.setattr(multivector, "graded_bracket", counted)
    report = check_graded_properties(
        load_corpus("flat").algebroid,
        GradedSampleSpec(max_grade=2, max_coeff_degree=1))
    assert report.passed
    assert calls == []


def test_graded_check_computes_each_product_once(monkeypatch):
    # flat at (2, 1) took 261 distinct products before the Leibniz rule
    # was decided once per unordered {y, z}, 207 while it was sampled, and
    # 99 while Lie-admissibility was; the frame identities take none
    calls = []

    def counted(alg, x, y):
        calls.append((x, y))
        return graded_product(alg, x, y)

    monkeypatch.setattr(multivector, "graded_product", counted)
    report = check_graded_properties(
        load_corpus("flat").algebroid,
        GradedSampleSpec(max_grade=2, max_coeff_degree=1))
    assert report.passed
    assert calls == []


@pytest.mark.parametrize("name, bound", [
    # three wedges per ordered triple took 2,187, and sampling the
    # Leibniz rule once per unordered {y, z} 855
    ("wedge", 0),
    # three defects per ordered triple took 2,187, and one per triple 729
    ("_swap_defect", 0)])
def test_graded_check_work_pins(monkeypatch, name, bound):
    calls = []
    original = getattr(multivector, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(multivector, name, counted)
    alg = load_corpus("flat").algebroid
    spec = GradedSampleSpec(max_grade=2, max_coeff_degree=1)
    assert len(sample_generators(alg, spec)) == 9
    assert check_graded_properties(alg, spec).passed
    assert len(calls) <= bound


def test_defect_grade_bookkeeping():
    # the shifted degree of the defect is the sum of the shifted degrees
    from lsakit.multivector import left_symmetry_defect
    alg = ladder_instance()
    gens = sample_generators(alg, GradedSampleSpec(max_grade=2,
                                                   max_coeff_degree=1))
    rng = random.Random(47)
    for _ in range(15):
        x = gens[rng.randrange(len(gens))]
        y = gens[rng.randrange(len(gens))]
        z = gens[rng.randrange(len(gens))]
        defect = left_symmetry_defect(alg, x, y, z)
        expected = (x.grade() - 1) + (y.grade() - 1) + (z.grade() - 1)
        for key in defect.terms:
            assert len(key) - 1 == expected


def test_lie_admissible_defect_zero_on_samples():
    alg = flat_instance()
    gens = sample_generators(alg, GradedSampleSpec(max_grade=2,
                                                   max_coeff_degree=1))
    rng = random.Random(43)
    for _ in range(20):
        x = gens[rng.randrange(len(gens))]
        y = gens[rng.randrange(len(gens))]
        z = gens[rng.randrange(len(gens))]
        assert lie_admissible_defect(alg, x, y, z).is_zero()
