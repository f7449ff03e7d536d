"""The differentials that take their index and sign bookkeeping from
``core._coboundary_terms``, compared exactly with the loops they replaced
(kept in ``helpers``): values, and the key order that witness lists
follow.  The structures are drawn with no axiom imposed, representations
are not checked, and multiderivations carry symbols."""

from fractions import Fraction
from itertools import combinations
from random import Random

from hypothesis import given, settings, strategies as st

from helpers import (
    action_instance,
    def_d_oracle,
    flat_instance,
    ladder_instance,
    lie_form_d_oracle,
    nonexample,
    point_algebra,
    point_e1e2,
    point_rows_oracle,
    point_tables_oracle,
    random_algebroid,
    random_esection,
    random_poly,
    rep_d_oracle,
)
from lsakit.cohomology import (
    MultiDerivation,
    RepCochain,
    _point_rows,
    _point_tables,
    assemble_point_differential,
    def_d,
    rep_d,
)
from lsakit.core import (
    FormCochain,
    LieAlgebroid,
    Representation,
    Section,
    lie_form_d,
)
from lsakit.polyring import PolyMatrix, VectorField

NAMED = (flat_instance, ladder_instance, action_instance, point_e1e2,
         nonexample)
COORDS = ((), ("x",), ("x", "y"))


def _field(rng, coords) -> VectorField:
    return VectorField(coords, [random_poly(rng, coords, 1) for _ in coords])


@st.composite
def algebroids(draw, coords=COORDS):
    """A named instance, or a random product and anchor table of rank at
    most 3 (almost never left-symmetric)."""
    if draw(st.booleans()):
        alg = draw(st.sampled_from(NAMED))()
        if alg.coords in coords:
            return alg
    return random_algebroid(draw(st.randoms(use_true_random=False)),
                            draw(st.sampled_from(coords)),
                            draw(st.integers(1, 3)))


def _matrices(rng, alg, s) -> list:
    return [PolyMatrix(alg.coords, [[random_poly(rng, alg.coords, 1)
                                     for _ in range(s)] for _ in range(s)])
            for _ in range(alg.rank)]


def _leads(alg, degree):
    return combinations(range(alg.rank), degree - 1)


def test_lie_form_d_matches_its_loop():
    bases = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(algebroids(), st.integers(0, 3), st.randoms(use_true_random=False))
    def agree(alg, degree, rng):
        # a skew bracket table with no other axiom imposed
        upper = {pair: random_esection(rng, alg.coords, alg.rank)
                 for pair in combinations(range(alg.rank), 2)}
        lie = LieAlgebroid(alg.coords, alg.rank, [
            [upper[i, j] if i < j else -upper[j, i] if i > j
             else Section.zero(alg.coords, alg.rank)
             for j in range(alg.rank)] for i in range(alg.rank)], alg.anchor)
        form = FormCochain(lie.coords, lie.rank, degree, {
            key: random_poly(rng, lie.coords, 1)
            for key in combinations(range(lie.rank), degree)})
        got, want = lie_form_d(lie, form), lie_form_d_oracle(lie, form)
        assert got == want and list(got.terms) == list(want.terms)
        bases.add(alg.is_point())

    agree()
    assert bases == {True, False}


def test_rep_d_matches_its_loop_on_unchecked_representations():
    bases = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(algebroids(), st.integers(1, 3), st.integers(1, 2),
           st.randoms(use_true_random=False))
    def agree(alg, degree, s, rng):
        rep = Representation(s, _matrices(rng, alg, s), _matrices(rng, alg, s))
        cochain = RepCochain(alg.coords, alg.rank, s, degree, {
            (lead, last): random_esection(rng, alg.coords, s)
            for lead in _leads(alg, degree) for last in range(alg.rank)})
        got = rep_d(alg, rep, cochain, check=False)
        want = rep_d_oracle(alg, rep, cochain)
        assert got == want and list(got.terms) == list(want.terms)
        bases.add(alg.is_point())

    agree()
    assert bases == {True, False}


def test_def_d_matches_its_loops_with_symbols():
    bases, symbols = set(), set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(algebroids(), st.integers(1, 3), st.randoms(use_true_random=False))
    def agree(alg, degree, rng):
        deriv = MultiDerivation(
            alg.coords, alg.rank, degree,
            {(lead, last): random_esection(rng, alg.coords, alg.rank)
             for lead in _leads(alg, degree) for last in range(alg.rank)},
            {lead: _field(rng, alg.coords) for lead in _leads(alg, degree)})
        got, want = def_d(alg, deriv), def_d_oracle(alg, deriv)
        assert got == want and list(got.terms) == list(want.terms)
        # check_deformation lists its witnesses in this order
        assert list(got.values) == list(want.values)
        bases.add(alg.is_point())
        symbols.add(bool(deriv.symbols))

    agree()
    assert bases == {True, False} and symbols == {True, False}


def _sparse_pair(rng, rank: int, s: int):
    """A point pair with no axiom imposed whose product, rho and mu
    entries are mostly zero, so whole template rows and commutators
    vanish."""
    def entry():
        return Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))) \
            if rng.random() < 0.2 else 0

    alg = point_algebra(rank, {(i, j): [entry() for _ in range(rank)]
                               for i in range(rank) for j in range(rank)})
    return alg, Representation(s, *([
        PolyMatrix((), [[entry() for _ in range(s)] for _ in range(s)])
        for _ in range(rank)] for _ in range(2)))


def test_point_rows_match_their_loop():
    # the builder yields the nonzero rows alone, by index; a row it does
    # not yield is zero, so comparing with the oracle's nonzero rows and
    # the dense assembly with all of them checks every row
    seen = set()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(algebroids(coords=((),)), st.integers(1, 3), st.integers(0, 3),
           st.integers(0, 4), st.booleans(), st.randoms(use_true_random=False))
    def agree(alg, degree, s, rank, sparse, rng):
        if sparse:
            # a plain generator: Hypothesis's random() leans towards 0
            alg, rep = _sparse_pair(Random(rng.getrandbits(32)), rank, s)
        else:
            rep = Representation(s, _matrices(rng, alg, s),
                                 _matrices(rng, alg, s))
        tables = _point_tables(alg, rep)
        want = list(point_rows_oracle(tables, degree))
        assert list(_point_rows(tables, degree)) == \
            [(index, row) for index, row in enumerate(want) if row]
        matrix, domain, _ = assemble_point_differential(alg, rep, degree)
        assert matrix == [[Fraction(row.get(col, 0), tables.den)
                           for col in range(len(domain))] for row in want]
        seen.add((sparse, any(len(t) < s for ts in tables.templates
                              for t in ts),
                  any(not c for c in tables.comm.values()) and degree > 1))

    agree()
    # sparse draws leave zero template rows and empty commutators
    assert (True, True, True) in seen and \
        {dense for dense, *_ in seen} == {True, False}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(algebroids(coords=((),)), st.integers(0, 3),
       st.randoms(use_true_random=False))
def test_point_tables_match_the_dense_read(alg, s, rng):
    # the sparse read of _point_tables against the to_rational read it
    # replaced, on tables that are almost never left-symmetric
    rep = Representation(s, _matrices(rng, alg, s),
                         _matrices(rng, alg, s) if rng.random() < 0.5
                         else None)
    tables = _point_tables(alg, rep)
    assert tuple(tables)[:7] == point_tables_oracle(alg, rep)
    assert all(type(v) is int
               for table in (*tables.rho, *tables.mu) for row in table
               for v in row.values())
