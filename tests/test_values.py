"""Table-driven laws shared by the seven sparse value types.

Section, VectorField, Multivector, FormCochain, RepCochain,
MultiDerivation and PolyMatrix are all sparse maps over one module core;
every row of the table is checked against the same linear-algebra laws.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from lsakit import (
    FormCochain,
    MultiDerivation,
    Multivector,
    Poly,
    PolyMatrix,
    RepCochain,
    Section,
    VectorField,
)
from lsakit.errors import DimensionMismatch
from lsakit.polyring import parse_poly

XS = ("x",)
XY = ("x", "y")


def p(text, coords=XS):
    return parse_poly(text, coords)


@dataclass
class Row:
    name: str
    a: Callable[[], object]           # two generic elements of one shape
    b: Callable[[], object]
    zeros: Callable[[], object]       # built from explicit zero values
    other_shape: Callable[[], object]  # same type, different shape


ROWS = [
    Row("Section",
        lambda: Section(XS, [p("x"), 0]),
        lambda: Section(XS, [p("-1*x"), p("1 + x^2")]),
        lambda: Section(XS, [0, Poly.zero(XS)]),
        lambda: Section(XS, [p("x"), 0, 0])),
    Row("VectorField",
        lambda: VectorField(XY, [p("x*y", XY), Poly.zero(XY)]),
        lambda: VectorField(XY, [p("1", XY), p("y", XY)]),
        lambda: VectorField(XY, [Poly.zero(XY), Poly.zero(XY)]),
        lambda: VectorField(XS, [p("x")])),
    Row("Multivector",
        lambda: Multivector(XS, 3, {(0,): p("x"), (0, 2): 1}),
        lambda: Multivector(XS, 3, {(): p("2"), (0, 2): p("x - 1")}),
        lambda: Multivector(XS, 3, {(0,): 0, (1, 2): Poly.zero(XS)}),
        lambda: Multivector(XS, 2, {(0,): p("x")})),
    Row("FormCochain",
        lambda: FormCochain(XS, 3, 2, {(0, 1): p("x"), (1, 2): 2}),
        lambda: FormCochain(XS, 3, 2, {(0, 1): p("x^2"), (0, 2): 1}),
        lambda: FormCochain(XS, 3, 2, {(0, 1): 0}),
        lambda: FormCochain(XS, 3, 1, {(0,): p("x")})),
    Row("RepCochain",
        lambda: RepCochain(XS, 2, 2, 2,
                           {((0,), 1): Section(XS, [p("x"), 1])}),
        lambda: RepCochain(XS, 2, 2, 2,
                           {((0,), 1): Section(XS, [1, 0]),
                            ((1,), 0): Section(XS, [0, p("x")])}),
        lambda: RepCochain(XS, 2, 2, 2, {((0,), 1): Section.zero(XS, 2)}),
        lambda: RepCochain(XS, 2, 3, 2,
                           {((0,), 1): Section(XS, [p("x"), 1, 0])})),
    Row("MultiDerivation",
        lambda: MultiDerivation(XS, 2, 2,
                                {((0,), 1): Section(XS, [p("x"), 1])},
                                {(1,): VectorField(XS, [p("x")])}),
        lambda: MultiDerivation(XS, 2, 2,
                                {((1,), 1): Section(XS, [0, 2])},
                                {(0,): VectorField(XS, [p("1")]),
                                 (1,): VectorField(XS, [p("x^2")])}),
        lambda: MultiDerivation(XS, 2, 2,
                                {((0,), 1): Section.zero(XS, 2)},
                                {(1,): VectorField.zero(XS)}),
        lambda: MultiDerivation(XS, 2, 1,
                                {((), 1): Section(XS, [p("x"), 1])}, {})),
    Row("PolyMatrix",
        lambda: PolyMatrix(XS, [[p("x"), 0], [0, 1]]),
        lambda: PolyMatrix(XS, [[p("-1*x"), p("1 + x^2")], [2, 0]]),
        lambda: PolyMatrix(XS, [[0, Poly.zero(XS)], [0, 0]]),
        lambda: PolyMatrix(XS, [[p("x"), 0, 0], [0, 1, 0]])),
]
IDS = [row.name for row in ROWS]


def zero_like(element):
    return element - element


def assert_clean(element):
    """No stored value is zero, at any level of nesting."""
    for value in element.terms.values():
        assert not value.is_zero()
        if not isinstance(value, Poly):
            assert_clean(value)


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_zero_entries_are_dropped(row):
    zeros = row.zeros()
    assert zeros.is_zero() and zeros.terms == {}
    a = row.a()
    assert zeros == zero_like(a)
    assert (a - a).terms == {}
    assert a.scale(0).is_zero()
    assert a.scale(Poly.zero(a.coords)).is_zero()
    for element in (a, row.b(), a + row.b(), a - row.b(), -a,
                    a.scale(p("x", a.coords))):
        assert_clean(element)


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_linear_laws(row):
    a, b = row.a(), row.b()
    f = p("x - 3", a.coords)
    zero = zero_like(a)
    assert a + b == b + a
    assert (a + b) - b == a
    assert a - b == a + (-b)
    assert (a + (-a)).is_zero()
    assert -(-a) == a
    assert a + zero == a
    assert a.scale(1) == a
    assert a.scale(-1) == -a
    assert a.scale(f) + b.scale(f) == (a + b).scale(f)
    assert a.scale(f).scale(2) == a.scale(f * 2)
    assert not a.is_zero() and a != b


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_eq_and_hash_agree(row):
    a, twin = row.a(), row.a()
    assert a is not twin and a == twin
    assert hash(a) == hash(twin)
    assert len({a, twin, row.b()}) == 2
    assert (a + row.b()) - row.b() == twin
    assert hash((a + row.b()) - row.b()) == hash(twin)
    assert a != row.other_shape()
    assert a != object()


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_shape_mismatch_raises(row):
    a, other = row.a(), row.other_shape()
    for op in (lambda: a + other, lambda: a - other, lambda: other + a):
        with pytest.raises(DimensionMismatch):
            op()


def test_different_types_do_not_mix():
    section = Section(XS, [p("x")])
    field = VectorField(XS, [p("x")])
    assert section != field
    with pytest.raises(DimensionMismatch):
        section + field


def test_dense_components_view():
    section = Section(XS, [0, p("x"), 0])
    assert section.rank == 3
    assert section.terms == {1: p("x")}
    assert section.components == (Poly.zero(XS), p("x"), Poly.zero(XS))
    assert Section(XS, section.components) == section
    assert Section.zero(XS, 2).components == (Poly.zero(XS),) * 2
    assert Section.unit(XS, 2, 1).components == (Poly.zero(XS), p("1"))

    field = VectorField(XY, [Poly.zero(XY), p("x*y", XY)])
    assert field.terms == {1: p("x*y", XY)}
    assert field.components == (Poly.zero(XY), p("x*y", XY))
    assert VectorField.zero(XY).components == (Poly.zero(XY),) * 2
    with pytest.raises(DimensionMismatch):
        VectorField(XY, [p("x", XY)])

    zero = Poly.zero(XS)
    matrix = PolyMatrix(XS, [[0, p("x")], [0, 0], [1, 0]])
    assert (matrix.rows, matrix.cols) == (3, 2)
    assert matrix.terms == {(0, 1): p("x"), (2, 0): p("1")}
    assert matrix.entries == ((zero, p("x")), (zero, zero), (p("1"), zero))
    assert PolyMatrix(XS, matrix.entries) == matrix
    assert PolyMatrix.zeros(2, 1, XS).entries == ((zero,), (zero,))
    assert PolyMatrix.identity(2, XS).entries == ((p("1"), zero),
                                                  (zero, p("1")))
    with pytest.raises(AttributeError):
        matrix.entries = ()
    with pytest.raises(DimensionMismatch):
        PolyMatrix(XS, [[1, 0], [1]])


def test_alternating_lookup_folds_the_sign():
    form = FormCochain(XS, 3, 2, {(0, 2): p("x")})
    assert form.component((2, 0)) == p("-1*x")
    assert form.component((0, 0)).is_zero()
    assert form.component((0, 1)).is_zero()

    cochain = RepCochain(XS, 3, 1, 3, {((0, 2), 1): Section(XS, [p("x")])})
    assert cochain.component((2, 0), 1) == Section(XS, [p("-1*x")])
    assert cochain.component((0, 2), 0).is_zero()

    deriv = MultiDerivation(XS, 3, 3, {((0, 1), 2): Section(XS, [1, 0, 0])},
                            {(1, 2): VectorField(XS, [p("x")])})
    assert deriv.value((1, 0), 2) == Section(XS, [-1, 0, 0])
    assert deriv.symbol((2, 1)) == VectorField(XS, [p("-1*x")])
    assert deriv.symbol((1, 1)).is_zero()
    assert deriv.values == {((0, 1), 2): Section(XS, [1, 0, 0])}
    assert deriv.symbols == {(1, 2): VectorField(XS, [p("x")])}


@pytest.mark.parametrize("build", [
    lambda: Multivector(XS, 2, {(1, 0): 1}),
    lambda: Multivector(XS, 2, {(2,): 1}),
    lambda: FormCochain(XS, 2, 2, {(0,): 1}),
    lambda: RepCochain(XS, 2, 1, 2, {((0,), 2): [1]}),
    lambda: RepCochain(XS, 2, 1, 2, {((0,), 1): [1, 0]}),
    lambda: MultiDerivation(XS, 2, 2, {}, {(1, 0): [p("x")]}),
    lambda: MultiDerivation(XS, 2, 2, {}, {(0,): VectorField(XY, [1, 0])}),
], ids=["unsorted", "out-of-range", "wrong-length", "bad-last",
        "bad-value-rank", "unsorted-symbol", "symbol-coords"])
def test_invalid_entries_raise(build):
    with pytest.raises(DimensionMismatch):
        build()
