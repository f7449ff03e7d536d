"""The polynomial kernel against sympy's ``Poly`` over QQ: ring operations,
powers, derivatives, substitution and extension to more coordinates.

sympy is not in the ``test`` extra, so these tests skip without it.
It is imported by the first test that runs, not at collection, so the
rest of the suite runs without it loaded.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lsakit.polyring import Poly

NAMES = ("x", "y", "z")


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def gens(sympy, coords):
    return [sympy.Symbol(name) for name in coords]


def to_sympy(sympy, p: Poly):
    """The same polynomial as a sympy ``Poly`` over QQ, or a sympy
    rational when there are no coordinates."""
    coeffs = {exps: sympy.Rational(c.numerator, c.denominator)
              for exps, c in p.terms.items()}
    if not p.coords:
        return coeffs.get((), sympy.Rational(0))
    return sympy.Poly.from_dict(coeffs or {(0,) * len(p.coords): 0},
                                *gens(sympy, p.coords), domain=sympy.QQ)


def same(p: Poly, expected) -> bool:
    """Does ``p`` equal the sympy ``Poly`` (or rational) ``expected``
    term by term?"""
    if not p.coords:
        return p.terms.get((), 0) == Fraction(str(expected))
    assert [str(g) for g in expected.gens] == list(p.coords)
    theirs = {exps: Fraction(int(c.p), int(c.q))
              for exps, c in expected.terms() if c != 0}
    return p.terms == theirs


@st.composite
def polys(draw, coords=None, max_degree=3):
    """A polynomial of total degree at most ``max_degree`` over a
    non-empty prefix of x, y, z (or over ``coords``)."""
    if coords is None:
        coords = NAMES[:draw(st.integers(1, len(NAMES)))]
    exps = st.lists(st.integers(0, max_degree), min_size=len(coords),
                    max_size=len(coords)).map(tuple) \
        .filter(lambda e: sum(e) <= max_degree)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return Poly(coords, draw(st.dictionaries(exps, coeffs, max_size=4)))


@st.composite
def poly_pairs(draw):
    p = draw(polys())
    return p, draw(polys(coords=p.coords))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(poly_pairs())
def test_ring_operations_match_sympy(sympy, pair):
    p, q = pair
    sp, sq = to_sympy(sympy, p), to_sympy(sympy, q)
    assert same(p + q, sp + sq)
    assert same(p - q, sp - sq)
    assert same(p * q, sp * sq)
    assert same(-p, -sp)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(polys(), st.integers(0, 4))
def test_powers_match_sympy(sympy, p, exponent):
    assert same(p ** exponent, to_sympy(sympy, p) ** exponent)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(polys(), st.data())
def test_partials_match_sympy(sympy, p, data):
    index = data.draw(st.integers(0, len(p.coords) - 1))
    assert same(p.partial(index),
                to_sympy(sympy, p).diff(sympy.Symbol(p.coords[index])))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(polys(), st.data())
def test_substitution_matches_sympy(sympy, p, data):
    name = data.draw(st.sampled_from(p.coords))
    value = data.draw(st.fractions(min_value=-3, max_value=3,
                                   max_denominator=3))
    expected = to_sympy(sympy, p).eval(
        sympy.Symbol(name), sympy.Rational(value.numerator, value.denominator))
    assert same(p.substitute(name, value), expected)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(polys(), st.permutations(NAMES))
def test_extension_matches_sympy(sympy, p, order):
    extended = p.extend(order)
    expected = sympy.Poly(to_sympy(sympy, p).as_expr(), *gens(sympy, order),
                          domain=sympy.QQ)
    assert same(extended, expected)
