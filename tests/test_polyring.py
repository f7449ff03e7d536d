"""Tests for the exact-arithmetic kernel."""

import contextvars
import random
import sys
import threading
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from helpers import (
    adjugate_oracle,
    dense_kernel_oracle,
    det_oracle,
    random_poly,
    rational_det_oracle,
    spy_minors,
)
from hypothesis import given, settings, strategies as st

from lsakit.errors import (
    DegreeOverflow,
    DimensionMismatch,
    IndexOutOfRange,
    NonConstantDeterminant,
    NotSquare,
    ParseError,
    SingularMatrix,
    UnknownVariable,
)
from lsakit.polyring import (
    _DEGREE_LIMIT,
    Poly,
    PolyMatrix,
    VectorField,
    as_rational,
    find_constant_invertible_submatrix,
    matrix_inverse_adjugate,
    parse_poly,
    partial_derivative,
    rational_kernel_and_rank,
    set_degree_limit,
    vf_apply,
    vf_bracket,
)

X = ("x",)
XY = ("x", "y")


def naive_terms_mul(a: dict, b: dict) -> dict:
    """Independent dict-level polynomial product used as an oracle."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(p + q for p, q in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_zero():
    assert parse_poly("0", X).is_zero()


def test_parse_binomial_expansion_cancels():
    # oracle: expand (x+1)^2 term by term at the dict level
    xp1 = {(1,): Fraction(1), (0,): Fraction(1)}
    sq = naive_terms_mul(xp1, xp1)
    expected = {k: v for k, v in sq.items()}
    expected[(2,)] -= 1
    expected[(1,)] -= 2
    expected = {k: v for k, v in expected.items() if v != 0}
    got = parse_poly("(x+1)^2 - x^2 - 2*x", X)
    assert got == Poly(X, expected)
    assert got == Poly.constant(1, X)


def test_parse_commutativity_cancels():
    assert parse_poly("3/2*x*y - y*x*3/2", XY).is_zero()


def test_parse_rationals_and_signs():
    p = parse_poly("-3/4*x + 1/2", X)
    assert p == Poly(X, {(1,): Fraction(-3, 4), (0,): Fraction(1, 2)})
    assert parse_poly("2*-3", X) == Poly.constant(-6, X)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x**2", X)
    assert err.value.position == 2

    with pytest.raises(UnknownVariable) as err:
        parse_poly("x + z", X)
    assert err.value.name == "z"

    with pytest.raises(ParseError):
        parse_poly("x +", X)
    with pytest.raises(ParseError):
        parse_poly("(x + 1", X)
    with pytest.raises(ParseError):
        parse_poly("x ^ -2", X)
    with pytest.raises(ParseError):
        parse_poly("1/0", X)
    with pytest.raises(ParseError):
        parse_poly("2x", X)
    with pytest.raises(ParseError):
        parse_poly("", X)


coeffs = st.integers(-6, 6).map(Fraction) | st.fractions(
    min_value=-4, max_value=4, max_denominator=5)
# keep triple products inside the default total-degree guard
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
poly_terms = st.dictionaries(exponents, coeffs, max_size=5)


def mkpoly(terms) -> Poly:
    return Poly(XY, terms)


@settings(max_examples=80, deadline=None)
@given(poly_terms, poly_terms, poly_terms)
def test_ring_axioms(ta, tb, tc):
    a, b, c = mkpoly(ta), mkpoly(tb), mkpoly(tc)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(poly_terms)
def test_print_parse_round_trip(terms):
    p = mkpoly(terms)
    assert parse_poly(str(p), XY) == p


@settings(max_examples=60, deadline=None)
@given(poly_terms)
def test_mixed_partials_commute(terms):
    p = mkpoly(terms)
    assert p.partial(0).partial(1) == p.partial(1).partial(0)


def is_canonical(value) -> bool:
    """An int that is not a bool, or a Fraction that is not an integer."""
    return type(value) is int \
        or (type(value) is Fraction and value.denominator > 1)


def assert_clean(p: Poly) -> None:
    """``p`` holds exactly what the validating constructor makes of it:
    nonzero canonical coefficients on non-negative exponent tuples of
    the right length, and the degree the eager formula gives."""
    assert type(p.coords) is tuple
    assert p == Poly(p.coords, dict(p.terms))
    for exps, coeff in p.terms.items():
        assert type(exps) is tuple and len(exps) == len(p.coords)
        assert all(type(e) is int and e >= 0 for e in exps)
        assert is_canonical(coeff) and coeff != 0
    assert p.total_degree == max((sum(e) for e in p.terms), default=-1)


scalars = coeffs | st.integers(-3, 3)


@settings(max_examples=120, deadline=None)
@given(poly_terms, poly_terms, scalars, st.integers(0, 3))
def test_arithmetic_results_are_clean(ta, tb, scalar, power):
    # every operation that builds its result without re-validating it
    a, b = mkpoly(ta), mkpoly(tb)
    results = [a + b, a - b, a + scalar, scalar + a, scalar - a, -a, a - a,
               a * b, a * scalar, scalar * a, a * 0, a ** power,
               a.partial(0), a.partial(1), a.extend(("t", "y", "x")),
               a.substitute("x", scalar), a.substitute("y", 0),
               Poly.zero(XY), Poly.constant(scalar, XY),
               Poly.variable("y", XY)]
    for result in results:
        assert_clean(result)
    # and their values, against the dict-level oracle and the definitions
    assert (a * b).terms == naive_terms_mul(a.terms, b.terms)
    assert a * scalar == Poly(XY, {e: c * scalar for e, c in a.terms.items()})
    assert (a - a).is_zero() and (a + (-a)).is_zero()
    assert a.extend(("t", "y", "x")).terms == {
        (0, y, x): c for (x, y), c in a.terms.items()}


def test_as_rational_is_canonical_and_refuses_floats_and_bools():
    assert type(as_rational(Fraction(6, 3))) is int
    assert as_rational(Fraction(6, 4)) == Fraction(3, 2)
    assert type(as_rational(7)) is int
    for value in (0.5, 1.0, True, False, "1"):
        with pytest.raises(TypeError):
            as_rational(value)
    assert type(parse_poly("4/2", X).constant_value()) is int
    assert type(Poly.zero(X).constant_value()) is int


fraction_scalars = st.fractions(min_value=-4, max_value=4, max_denominator=5)
constant_entries = st.lists(coeffs, min_size=4, max_size=4)


@settings(max_examples=80, deadline=None)
@given(poly_terms, fraction_scalars, constant_entries,
       st.lists(st.lists(coeffs, min_size=3, max_size=3), max_size=3))
def test_no_float_or_noncanonical_coefficient_is_reachable(
        ta, scalar, entries, rows):
    # arithmetic, partial and substitute are held to assert_clean by
    # test_arithmetic_results_are_clean; here the parser, the inverse and
    # the kernel basis
    a = mkpoly(ta)
    assert_clean(parse_poly(str(a), XY))
    # a constant block and a unipotent polynomial block, each inverted
    x = Poly.variable("x", XY)
    blocks = [PolyMatrix(XY, [entries[:2], entries[2:]]),
              PolyMatrix(XY, [[scalar or 1, a], [0, 1]]),
              PolyMatrix(XY, [[1, 0], [x * scalar, 1]])]
    for matrix in blocks:
        det = matrix.det()
        if det.is_zero():
            continue
        inverse = matrix_inverse_adjugate(matrix)
        for entry in inverse.terms.values():
            assert_clean(entry)
        assert inverse @ matrix == PolyMatrix.identity(2, XY)
    rank, basis = rational_kernel_and_rank(rows, 3)
    assert all(is_canonical(v) for vec in basis for v in vec)
    assert rank + len(basis) == 3


def test_degree_limit_fires_on_lazily_filled_degrees():
    x, y = Poly.variable("x", XY), Poly.variable("y", XY)
    p = x * x * y + y      # built by arithmetic: degree 3, not yet read
    q = x * y + 1          # degree 2
    assert p._degree is None and q._degree is None
    set_degree_limit(4)
    try:
        with pytest.raises(DegreeOverflow,
                           match="product degree 5 exceeds limit 4"):
            p * q
        with pytest.raises(DegreeOverflow,
                           match="power degree 6 exceeds limit 4"):
            p ** 2
        assert (p * x).total_degree == 4
        assert (q ** 2).total_degree == 4
    finally:
        set_degree_limit(16)
    assert (p * q).total_degree == 5


# ---------------------------------------------------------------------------
# derivatives and vector fields
# ---------------------------------------------------------------------------

def test_partial_derivative_power_rule():
    p = parse_poly("x^2*y", XY)
    assert partial_derivative(p, 0) == parse_poly("2*x*y", XY)
    assert partial_derivative(Poly.constant(5, XY), 1).is_zero()


def test_partial_derivative_of_cube():
    # oracle: expand (x+y)^3 with the dict-level product, then use the
    # termwise power rule
    xy = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    cube = naive_terms_mul(naive_terms_mul(xy, xy), xy)
    diff = {}
    for (i, j), coeff in cube.items():
        if i > 0:
            diff[(i - 1, j)] = coeff * i
    p = parse_poly("(x+y)^3", XY)
    assert partial_derivative(p, 0) == Poly(XY, diff)
    assert partial_derivative(p, 0) == parse_poly("3*(x+y)^2", XY)


def test_partial_derivative_product_rule():
    f = parse_poly("x^2 + y", XY)
    g = parse_poly("x*y - 3", XY)
    assert (f * g).partial(0) == f.partial(0) * g + f * g.partial(0)


def test_partial_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse_poly("x", X).partial(1)


def vf(*comps, coords=XY):
    return VectorField(coords, tuple(parse_poly(c, coords) for c in comps))


def test_vf_apply_examples():
    euler = vf("x", "0")
    assert vf_apply(euler, parse_poly("x", XY)) == parse_poly("x", XY)
    both = vf("1", "1")
    assert vf_apply(both, parse_poly("x*y", XY)) == parse_poly("x + y", XY)
    shear = vf("y", "0")
    assert vf_apply(shear, parse_poly("x^2", XY)) == parse_poly("2*x*y", XY)


def test_vf_apply_is_derivation():
    field = vf("x*y", "y^2 - 1")
    f = parse_poly("x + y^2", XY)
    g = parse_poly("x*y - 2", XY)
    assert field.apply(f * g) == field.apply(f) * g + f * field.apply(g)


def test_vf_bracket_examples():
    dx, dy = vf("1", "0"), vf("0", "1")
    assert vf_bracket(dx, dy).is_zero()

    xdx = vf("x", "0")
    assert vf_bracket(xdx, dx) == -dx
    # oracle: apply both compositions to the coordinate functions
    f = parse_poly("x", XY)
    assert xdx.apply(dx.apply(f)) - dx.apply(xdx.apply(f)) == \
        vf_bracket(xdx, dx).apply(f)

    any_field = vf("x*y", "y")
    assert vf_bracket(any_field, any_field).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.tuples(poly_terms, poly_terms),
       st.tuples(poly_terms, poly_terms),
       st.tuples(poly_terms, poly_terms))
def test_vf_bracket_antisymmetry_and_jacobi(ta, tb, tc):
    a = VectorField(XY, tuple(mkpoly(t) for t in ta))
    b = VectorField(XY, tuple(mkpoly(t) for t in tb))
    c = VectorField(XY, tuple(mkpoly(t) for t in tc))
    assert a.bracket(b) == -b.bracket(a)
    jac = a.bracket(b.bracket(c)) + b.bracket(c.bracket(a)) \
        + c.bracket(a.bracket(b))
    assert jac.is_zero()


def test_vf_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        vf("1", "0").apply(parse_poly("x", X))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_inverse_identity_and_diagonal():
    ident = PolyMatrix.identity(2, XY)
    assert matrix_inverse_adjugate(ident) == ident

    diag = PolyMatrix(XY, [[2, 0], [0, 3]])
    inv = matrix_inverse_adjugate(diag)
    assert inv == PolyMatrix(XY, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]])


def test_inverse_unipotent():
    m = PolyMatrix(XY, [[Poly.constant(1, XY), parse_poly("x", XY)],
                        [Poly.zero(XY), Poly.constant(1, XY)]])
    inv = matrix_inverse_adjugate(m)
    assert m @ inv == PolyMatrix.identity(2, XY)
    assert inv @ m == PolyMatrix.identity(2, XY)


def test_inverse_refusals():
    with pytest.raises(NotSquare):
        matrix_inverse_adjugate(PolyMatrix.zeros(2, 3, XY))
    with pytest.raises(SingularMatrix):
        matrix_inverse_adjugate(PolyMatrix.zeros(2, 2, XY))
    scalematrix = PolyMatrix(XY, [[parse_poly("x", XY), Poly.zero(XY)],
                                  [Poly.zero(XY), Poly.constant(1, XY)]])
    with pytest.raises(NonConstantDeterminant):
        matrix_inverse_adjugate(scalematrix)


def test_symbolic_det_and_adjugate():
    m = PolyMatrix(XY, [[parse_poly("x", XY), parse_poly("y", XY)],
                        [Poly.constant(1, XY), parse_poly("x", XY)]])
    assert m.det() == parse_poly("x^2 - y", XY)
    prod = m @ m.adjugate()
    assert prod.entry(0, 0) == m.det()
    assert prod.entry(0, 1).is_zero()
    assert prod.entry(1, 0).is_zero()
    assert prod.entry(1, 1) == m.det()


# ---------------------------------------------------------------------------
# determinants, cofactors and invertible submatrices from one minor memo
# ---------------------------------------------------------------------------

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
MONOMIALS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0))


def matrix_entries(constant: bool):
    """Zero half the time, else a small constant or (unless ``constant``)
    one of up to two terms of degree at most 2."""
    value = SMALL.filter(bool).map(lambda c: Poly.constant(c, XY))
    if not constant:
        value = st.one_of(value, st.dictionaries(
            st.sampled_from(MONOMIALS), SMALL, min_size=1, max_size=2)
            .map(lambda terms: Poly(XY, terms)))
    return st.one_of(st.just(Poly.zero(XY)), value)


@st.composite
def matrices(draw, square=True):
    """Sparse matrices over x, y: square ones of size up to 5 (polynomial)
    or 6 (constant), or tall ones with up to 6 rows and 4 columns."""
    constant = draw(st.booleans())
    if square:
        rows = cols = draw(st.integers(0, 6 if constant else 5))
    else:
        cols = draw(st.integers(0, 4))
        rows = draw(st.integers(cols, 6))
    entry = matrix_entries(constant)
    return PolyMatrix(XY, [[draw(entry) for _ in range(cols)]
                           for _ in range(rows)])


def leibniz_det(matrix: PolyMatrix) -> Poly:
    """Sum over permutations of the signed products of entries."""
    total = Poly.zero(XY)
    for perm in permutations(range(matrix.rows)):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = Poly.constant(-1 if inversions % 2 else 1, XY)
        for i, j in enumerate(perm):
            term = term * matrix.entry(i, j)
            if term.is_zero():
                break
        total = total + term
    return total


def first_invertible_rows(matrix: PolyMatrix):
    """Brute force: the first row subset whose permutation-sum
    determinant is a nonzero constant."""
    for rows in combinations(range(matrix.rows), matrix.cols):
        det = leibniz_det(PolyMatrix(XY, [matrix.entries[i] for i in rows]))
        if det.is_constant() and not det.is_zero():
            return rows
    return None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(matrices())
def test_det_matches_the_permutation_sum_and_the_elimination(m):
    det = m.det()
    assert det == leibniz_det(m) == det_oracle(m)
    if m.is_constant():
        assert det == Poly.constant(rational_det_oracle(m.to_rational()), XY)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices())
def test_adjugate_times_matrix_is_det_times_identity(m):
    adj = m.adjugate()
    assert adj == adjugate_oracle(m)
    assert not any(value.is_zero() for value in adj.terms.values())
    scaled = PolyMatrix.identity(m.rows, XY).scale(m.det())
    assert m @ adj == scaled
    assert adj @ m == scaled


def test_invertible_submatrix_search_matches_brute_force():
    outcomes = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(matrices(square=False))
    def agree(m):
        rows = find_constant_invertible_submatrix(m)
        assert rows == first_invertible_rows(m)
        outcomes.add(rows is None or rows == tuple(range(m.cols)))

    agree()
    # both a miss (or the leading rows) and a later subset occur
    assert outcomes == {True, False}


def test_det_and_adjugate_at_sizes_zero_and_one():
    empty = PolyMatrix(XY, [])
    assert empty.det() == Poly.constant(1, XY)
    assert empty.adjugate() == empty
    assert matrix_inverse_adjugate(empty) == empty
    assert find_constant_invertible_submatrix(PolyMatrix.zeros(3, 0, XY)) \
        == ()
    x = parse_poly("x", XY)
    single = PolyMatrix(XY, [[x]])
    assert single.det() == x
    assert single.adjugate() == PolyMatrix.identity(1, XY)
    assert PolyMatrix(XY, [[0]]).adjugate() == PolyMatrix.identity(1, XY)
    with pytest.raises(NotSquare):
        PolyMatrix.zeros(2, 3, XY).det()
    with pytest.raises(NotSquare):
        PolyMatrix.zeros(3, 2, XY).adjugate()


def test_cofactors_and_row_subsets_share_one_memo(monkeypatch):
    # det, the cofactors and the row-subset search read the matrix's own
    # memo, so no minor is expanded twice, across calls as well
    calls = spy_minors(monkeypatch)
    x = parse_poly("x", XY)
    square = PolyMatrix(XY, [[1, 2, 0], [x, 1, 1], [0, 1, x]])
    tall = PolyMatrix(XY, [[x, 0], [0, x], [1, 1], [2, 1]])
    for matrix, computations in (
            (square, (square.det, square.adjugate, square.det)),
            (tall, (lambda: find_constant_invertible_submatrix(tall),))):
        del calls[:]
        for compute in computations:
            compute()
        assert len(calls) > 1
        assert {id(memo) for *_, memo, _ in calls} == \
            {id(matrix._minors[_DEGREE_LIMIT.get()])}
        expanded = [(rows, cols) for _, rows, cols, _, new in calls if new]
        assert len(expanded) == len(set(expanded))
        assert len(calls) > len(expanded)


def test_memoized_minors_keep_the_degree_limit():
    # a minor stored under one degree limit is not read under another,
    # so det overflows exactly where a fresh expansion does
    x, y = parse_poly("x", XY), parse_poly("y", XY)
    entries = [[x, y, 0], [y, x, y], [0, y, x]]
    matrix = PolyMatrix(XY, entries)
    det = matrix.det()
    assert det == det_oracle(matrix)

    def overflow(m):
        set_degree_limit(2)
        with pytest.raises(DegreeOverflow) as err:
            m.det()
        return str(err.value)

    message = contextvars.copy_context().run(overflow, matrix)
    assert message == contextvars.copy_context().run(
        overflow, PolyMatrix(XY, entries))
    assert message == "product degree 3 exceeds limit 2"
    assert matrix.det() == det
    assert matrix.adjugate() == adjugate_oracle(matrix)


def test_threads_share_one_matrix_memo():
    x, y = parse_poly("x", XY), parse_poly("y", XY)
    n = 5
    lower = PolyMatrix(XY, [[1 if i == j else x + j if i > j else 0
                             for j in range(n)] for i in range(n)])
    upper = PolyMatrix(XY, [[2 if i == j else y - i if i < j else 0
                             for j in range(n)] for i in range(n)])
    matrix = lower @ upper
    det, adjugate = det_oracle(matrix), adjugate_oracle(matrix)
    assert det == Poly.constant(2 ** n, XY)
    inverse = adjugate.scale(Fraction(1, 2 ** n))
    barrier, results, errors = threading.Barrier(2), [], []

    def work():
        try:
            barrier.wait()
            results.append((matrix.det(), matrix.adjugate(),
                            matrix_inverse_adjugate(matrix)))
        except Exception as err:  # reported below, in the main thread
            errors.append(err)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert results == [(det, adjugate, inverse)] * 2
    assert inverse @ matrix == PolyMatrix.identity(n, XY)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(matrices())
def test_det_matches_sympy(sympy, m):
    x, y = sympy.symbols("x y")

    def expr(p: Poly):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * x ** a * y ** b for (a, b), c in p.terms.items()),
                   sympy.Integer(0))

    theirs = sympy.Matrix(m.rows, m.cols,
                          [expr(e) for row in m.entries for e in row]).det()
    assert sympy.expand(expr(m.det()) - theirs) == 0


def test_matrix_associativity():
    a = PolyMatrix(XY, [[parse_poly("x", XY), 1], [0, parse_poly("y", XY)]])
    b = PolyMatrix(XY, [[1, 2], [parse_poly("x*y", XY), 0]])
    c = PolyMatrix(XY, [[0, 1], [1, 1]])
    assert (a @ b) @ c == a @ (b @ c)


def naive_matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Every entry pair multiplied, zeros included."""
    return PolyMatrix(a.coords, [
        [sum((a.entry(i, k) * b.entry(k, j) for k in range(a.cols)),
             Poly.zero(a.coords)) for j in range(b.cols)]
        for i in range(a.rows)])


def random_sparse_poly_matrix(rng, rows, cols):
    density = rng.choice((0.0, 0.2, 0.5, 1.0))
    return PolyMatrix(XY, [[random_poly(rng, XY) if rng.random() < density
                            else Poly.zero(XY) for _ in range(cols)]
                           for _ in range(rows)])


def test_matmul_matches_naive_triple_loop():
    rng = random.Random(47)
    for _ in range(200):
        n, k, m = (rng.randint(1, 4) for _ in range(3))
        a = random_sparse_poly_matrix(rng, n, k)
        b = random_sparse_poly_matrix(rng, k, m)
        assert a @ b == naive_matmul(a, b)


def test_matmul_degree_overflow_only_on_nonzero_products():
    x = parse_poly("x^3", XY)
    a = PolyMatrix(XY, [[x, 0], [0, 1]])
    set_degree_limit(4)
    try:
        # x^3 only ever meets zero entries or constants
        assert a @ PolyMatrix(XY, [[0, 1], [x, 0]]) == \
            PolyMatrix(XY, [[0, x], [x, 0]])
        with pytest.raises(DegreeOverflow):
            a @ a
    finally:
        set_degree_limit(16)


def test_matvec_matches_naive():
    rng = random.Random(53)
    for _ in range(200):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        a = random_sparse_poly_matrix(rng, n, k)
        vector = random_sparse_poly_matrix(rng, k, 1)
        assert a.matvec(vector.column(0)) == \
            naive_matmul(a, vector).column(0)


def test_matvec_degree_overflow_only_on_nonzero_products():
    x = parse_poly("x^3", XY)
    zero = Poly.zero(XY)
    a = PolyMatrix(XY, [[x, 0], [0, 1]])
    set_degree_limit(4)
    try:
        # x^3 only ever meets zero entries or constants
        assert a.matvec([zero, x]) == (zero, x)
        with pytest.raises(DegreeOverflow):
            a.matvec([x, zero])
    finally:
        set_degree_limit(16)


def test_matrix_indices_are_range_checked():
    ident = PolyMatrix.identity(2, XY)
    assert ident.entry(1, 1) == 1 and ident.entry(1, 0).is_zero()
    assert ident.column(1) == (Poly.zero(XY), Poly.constant(1, XY))
    for i, j in ((-1, -1), (-1, 0), (0, -1), (2, 0), (0, 2)):
        with pytest.raises(IndexOutOfRange):
            ident.entry(i, j)
    for j in (-1, 2):
        with pytest.raises(IndexOutOfRange):
            ident.column(j)


# ---------------------------------------------------------------------------
# rational linear algebra
# ---------------------------------------------------------------------------

def test_kernel_zero_matrix():
    rank, basis = rational_kernel_and_rank([[0, 0, 0]] * 3)
    assert rank == 0
    assert len(basis) == 3


def test_kernel_identity():
    rank, basis = rational_kernel_and_rank(
        [[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert rank == 4
    assert basis == []


def test_kernel_rank_one():
    rank, basis = rational_kernel_and_rank([[1, 2], [2, 4]])
    assert rank == 1
    assert len(basis) == 1
    v = basis[0]
    # span of (2, -1): check proportionality
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)
    assert v[0] + 2 * v[1] == 0


def test_kernel_rank_plus_nullity():
    m = [[1, 2, 3], [4, 5, 6]]
    rank, basis = rational_kernel_and_rank(m)
    assert rank + len(basis) == 3
    for v in basis:
        for row in m:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def test_kernel_cols_must_match_rows():
    with pytest.raises(DimensionMismatch):
        rational_kernel_and_rank([[1, 2]], cols=3)
    assert rational_kernel_and_rank([[1, 2]], cols=2) == \
        rational_kernel_and_rank([[1, 2]])
    assert rational_kernel_and_rank([], cols=3) == dense_kernel_oracle([], 3)


def random_sparse_matrix(rng, rows, cols):
    """Sparse rational matrix with negative and non-integer entries,
    occasionally a duplicated, combined or zero row and a zero column."""
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    matrix = [[Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7)))
               if rng.random() < density else 0 for _ in range(cols)]
              for _ in range(rows)]
    if rows and rng.random() < 0.3:
        matrix.append(list(rng.choice(matrix)))
    if rows > 1 and rng.random() < 0.3:
        a, b = rng.sample(matrix, 2)
        matrix.append([Fraction(3, 2) * x - 5 * y for x, y in zip(a, b)])
    if rng.random() < 0.2:
        matrix.append([0] * cols)
    if cols and rng.random() < 0.3:
        dead = rng.randrange(cols)
        for row in matrix:
            row[dead] = 0
    rng.shuffle(matrix)
    return matrix


def test_kernel_matches_dense_oracle():
    rng = random.Random(41)
    shapes = [(0, c) for c in range(4)] + [(r, 0) for r in range(1, 4)]
    shapes += [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(400)]
    for rows, cols in shapes:
        matrix = random_sparse_matrix(rng, rows, cols)
        size = None if matrix else cols
        got = rational_kernel_and_rank(matrix, size)
        assert got == dense_kernel_oracle(matrix, size), matrix
        assert all(is_canonical(x) for vec in got[1] for x in vec)


def test_kernel_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    for _ in range(60):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        matrix = random_sparse_matrix(rng, rows, cols)
        rank, _ = rational_kernel_and_rank(matrix)
        assert rank == sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row]
             for row in matrix]).rank()


# ---------------------------------------------------------------------------
# degree guard and coordinate surgery
# ---------------------------------------------------------------------------

def test_degree_guard():
    p = parse_poly("x^8", X)
    with pytest.raises(DegreeOverflow):
        p * parse_poly("x^9", X)
    with pytest.raises(DegreeOverflow):
        p ** 3
    set_degree_limit(40)
    try:
        assert (p ** 3).total_degree == 24
    finally:
        set_degree_limit(16)


def test_degree_limit_is_per_thread():
    # a thread that lowers the limit leaves the main thread's limit alone,
    # and a new thread starts at the default whatever its starter set
    p, x = parse_poly("x^8", X), Poly.variable("x", X)
    lowered, computed = threading.Event(), threading.Event()
    seen = {}

    def lower():
        try:
            seen["start"] = (p * p).total_degree
            set_degree_limit(6)
        finally:
            lowered.set()
        computed.wait(timeout=60)
        try:
            p * x
        except DegreeOverflow as err:
            seen["thread"] = str(err)

    thread = threading.Thread(target=lower)
    set_degree_limit(15)
    try:
        thread.start()
        assert lowered.wait(timeout=60)
        seen["main"] = (p * x).total_degree
        with pytest.raises(DegreeOverflow, match="exceeds limit 15"):
            p * p
    finally:
        computed.set()
        thread.join(timeout=60)
        set_degree_limit(16)
    assert not thread.is_alive()
    assert seen == {"start": 16, "main": 9,
                    "thread": "product degree 9 exceeds limit 6"}


def test_power_equals_repeated_multiplication():
    base = parse_poly("x + 1", X)
    expected = Poly.constant(1, X)
    for k in range(12):
        assert base ** k == expected
        expected = expected * base


def test_parser_power_coefficient_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter sets no integer-string limit")
    assert parse_poly(f"10^{limit - 1}", X) == \
        Poly.constant(10 ** (limit - 1), X)
    for text in (f"10^{limit}", f"(1/10)^{limit}", f"(x + 10^{limit // 2})^3",
                 "7^" + "9" * 1000):
        with pytest.raises(ParseError, match="power coefficient too long"):
            parse_poly(text, X)


def test_parser_coefficient_limit():
    # sums and products of allowed literals obey the same limit
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter sets no integer-string limit")
    assert parse_poly(f"10^{limit - 2}*10*x + 1", X) == \
        Poly.constant(10 ** (limit - 1), X) * parse_poly("x", X) + 1
    half = f"10^{limit // 2}"
    nines = "9" * limit
    for text, position in ((f"x + {half}*10*{half}", len(half) + 7),
                           (f"{nines} + {nines}", limit + 1),
                           (f"1/{nines} - 1/{nines[1:]}8", limit + 3)):
        with pytest.raises(ParseError, match="coefficient too long") as err:
            parse_poly(text, X)
        assert err.value.position == position


def test_extend_and_substitute():
    p = parse_poly("x^2 + 3", X)
    q = p.extend(("x", "t"))
    assert q.coords == ("x", "t")
    t = Poly.variable("t", ("x", "t"))
    r = q + t * q
    assert r.substitute("t", 0) == p
    assert r.substitute("t", 1) == p * 2
    assert r.substitute("t", Fraction(1, 2)) == p * Fraction(3, 2)


@pytest.mark.parametrize("value", [Poly, VectorField])
def test_extend_and_substitute_refuse_a_missing_coordinate(value):
    # Poly and VectorField raise the same errors; a zero field refuses too
    nonzero = parse_poly("x", XY) if value is Poly else \
        VectorField(XY, (parse_poly("y", XY), Poly.zero(XY)))
    for item in (nonzero, value.zero(XY)):
        with pytest.raises(DimensionMismatch, match="does not contain"):
            item.extend(("x", "t"))
        with pytest.raises(IndexOutOfRange, match="'t' is not among"):
            item.substitute("t", 1)
    field = VectorField(XY, (parse_poly("y", XY), parse_poly("x*y", XY)))
    assert field.extend(("t", "y", "x")) == VectorField(
        ("t", "y", "x"), (Poly.zero(("t", "y", "x")),
                          parse_poly("x*y", ("t", "y", "x")),
                          parse_poly("y", ("t", "y", "x"))))
    assert field.substitute("y", 2) == VectorField(X, (parse_poly("2", X),))


def test_parser_nesting_limit():
    from lsakit.polyring import MAX_NESTING
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_poly(deep, ("x",)) == parse_poly("x", ("x",))
    with pytest.raises(ParseError) as err:
        parse_poly("(" + deep + ")", ("x",))
    assert err.value.position == MAX_NESTING
