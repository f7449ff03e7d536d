"""Records of the Nijenhuis block written as passes by the paper's
theorems, decided here by the computations they replaced, on drawn
operators.

Past the axiom gate and the Nijenhuis condition, id + tN maps the
structure deformed by dN onto the original one (Nijenhuis-Richardson
1967), so every record of ``trivial_deformation`` holds; the torsion of
N for the commutator is D(x, y) - D(y, x), D the Nijenhuis defect of the
product, so ``lie-implication`` holds.  Past the O-operator identity,
the torsion of the block extension of T on the semidirect product is
the O-operator defect (Kosmann-Schwarzbach-Magri 1990), so
``o-operator/tilde-nijenhuis`` only needs rho to be a representation.
"""

from hypothesis import given, settings, strategies as st

import pytest
from helpers import (
    action_instance,
    flat_instance,
    intertwiner_oracle,
    ladder_instance,
    point_algebra,
    point_e1e2,
    reframed,
    unit_point_algebra,
    zero_point_algebra,
)
from lsakit.constructions import (
    _torsion_failures,
    apply_O_operator,
    check_lie_nijenhuis,
    semidirect_lie,
)
from lsakit.core import build_left_mult_rep, check_left_symmetric, sub_adjacent
from lsakit.deformations import (
    FORMAL,
    check_deformation,
    check_nijenhuis,
    deformed_algebroid,
    extend_algebroid,
    fresh_parameter,
    trivial_deformation,
)
from lsakit.errors import NotNijenhuis
from lsakit.instances import CORPUS_NAMES, corpus_path, parse_instance
from lsakit.polyring import Poly, PolyMatrix

CONSTANTS = (0, 0, 0, 1, -1, 2)


@st.composite
def entries(draw, coords):
    """A small constant, plus a coordinate a quarter of the time."""
    entry = Poly.constant(draw(st.sampled_from(CONSTANTS)), coords)
    if coords and draw(st.integers(0, 3)) == 0:
        entry = entry + Poly.variable(draw(st.sampled_from(coords)),
                                      coords) * draw(st.sampled_from((1, -1)))
    return entry


def matrices(coords, rows: int, cols: int):
    return st.lists(st.lists(entries(coords), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda rows_: PolyMatrix(coords, rows_))


def point_algebras() -> list:
    """Left-symmetric algebras of rank 1 to 3: associative ones and
    e_1.e_2 = e_2, which is not."""
    return [zero_point_algebra(2), point_e1e2(), unit_point_algebra(3),
            point_algebra(1, {(0, 0): [1]}),
            point_algebra(2, {(0, 0): [0, 1]}),
            # upper triangular 2 x 2 matrices on e_11, e_12, e_22
            point_algebra(3, {(0, 0): [1, 0, 0], (0, 1): [0, 1, 0],
                              (1, 2): [0, 1, 0], (2, 2): [0, 0, 1]})]


def polynomial_bases() -> list:
    """Corpus bases, and the ladder in two polynomial frames, where its
    products have polynomial coordinates."""
    x = Poly.variable("x", ("x",))
    shear = PolyMatrix(("x",), [[1, x], [0, 1]])
    return [flat_instance(), ladder_instance(), action_instance(),
            reframed(ladder_instance(), shear),
            reframed(ladder_instance(), shear.transpose())]


def assert_trivial_records(alg, endo) -> None:
    """For a Nijenhuis operator, the computations the records of
    ``trivial_deformation`` and ``lie-implication`` replaced pass, and
    the report carries ``check_deformation``'s records of dN as they
    are."""
    omega, report = trivial_deformation(alg, endo)
    validity = check_deformation(alg, omega)
    assert validity.passed
    count = len(validity.records)
    assert report.records[:count] == validity.records
    assert [rec.name for rec in report.records[count:]] == \
        ["intertwiner-product", "intertwiner-anchor"]
    assert report.passed

    param = fresh_parameter(alg.coords)
    lifted = extend_algebroid(alg, param)
    deformed = deformed_algebroid(alg, omega, FORMAL, param)
    family = PolyMatrix.identity(alg.rank, lifted.coords) + PolyMatrix(
        lifted.coords, [[entry.extend(lifted.coords) for entry in row]
                        for row in endo.entries]).scale(
        Poly.variable(param, lifted.coords))
    assert intertwiner_oracle(deformed, lifted, family) == ([], [])
    assert check_lie_nijenhuis(sub_adjacent(alg), endo)


def decide(alg, endo, seen: set) -> None:
    if not check_nijenhuis(alg, endo):
        with pytest.raises(NotNijenhuis):
            trivial_deformation(alg, endo)
        seen.add("not Nijenhuis")
        return
    assert_trivial_records(alg, endo)
    if endo not in (PolyMatrix.zeros(alg.rank, alg.rank, alg.coords),
                    PolyMatrix.identity(alg.rank, alg.coords)):
        seen.add("neither 0 nor the identity")
    if not endo.is_constant():
        seen.add("polynomial entries")


def test_drawn_point_nijenhuis_operators_deform_trivially():
    # each algebra in a drawn unitriangular frame, so that most products
    # are nonzero
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def agree(data):
        alg = data.draw(st.sampled_from(point_algebras()))
        r = alg.rank
        frame = data.draw(matrices((), r, r))
        P = PolyMatrix((), [[1 if a == b else frame.entry(a, b) if a < b
                             else 0 for b in range(r)] for a in range(r)])
        alg = reframed(alg, P @ P.transpose())
        assert check_left_symmetric(alg).passed
        decide(alg, data.draw(matrices((), r, r)), seen)

    agree()
    assert seen == {"not Nijenhuis", "neither 0 nor the identity"}


def test_drawn_polynomial_nijenhuis_operators_deform_trivially():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def agree(data):
        alg = data.draw(st.sampled_from(polynomial_bases()))
        decide(alg, data.draw(matrices(alg.coords, alg.rank, alg.rank)),
               seen)

    agree()
    assert seen == {"not Nijenhuis", "neither 0 nor the identity",
                    "polynomial entries"}


def o_pairs() -> list:
    """The sub-adjacent algebroid of each left-symmetric corpus structure
    with left multiplication, and with the file's representation."""
    pairs = []
    for name in sorted(CORPUS_NAMES):
        instance = parse_instance(corpus_path(name))
        alg = instance.algebroid
        if not check_left_symmetric(alg).passed:
            continue
        lie = sub_adjacent(alg)
        pairs.append((lie, build_left_mult_rep(alg)))
        if instance.representation is not None:
            pairs.append((lie, instance.representation))
    return pairs


def test_block_extension_is_nijenhuis_exactly_for_o_operators():
    # o-operator/tilde-nijenhuis: the torsion of T~ = [[0, T], [0, 0]]
    # on semidirect_lie, as run_suite decided it
    outcomes = set()
    pairs = o_pairs()
    assert len(pairs) == 11

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def agree(data):
        lie, rep = data.draw(st.sampled_from(pairs))
        r, s = lie.rank, rep.s
        T = data.draw(matrices(lie.coords, r, s))
        tilde = PolyMatrix(lie.coords, [
            [T.entry(i, j - r) if i < r <= j else 0 for j in range(r + s)]
            for i in range(r + s)])
        assert (tilde @ tilde).is_zero()
        is_O = apply_O_operator(lie, rep, T).is_O
        product = semidirect_lie(lie, rep)
        assert (next(_torsion_failures(product, tilde), None) is None) == is_O
        outcomes.add(is_O)

    agree()
    assert outcomes == {True, False}
