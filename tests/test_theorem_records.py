"""Records of verify-all written as passes by the paper's theorems,
decided here by the computations they replaced (kept in ``helpers``), on
drawn structures, representations and operators.

- ``sub-adjacent/jacobi`` and ``sub-adjacent/anchor-morphism``: the
  Jacobiator of the commutator is the cyclic sum of the associator swaps
  (x, y, z) - (y, x, z), and its anchor identity is the one the axiom
  gate decides.
- ``sub-adjacent/left-mult-rep``: L_[x,y] = [L_x, L_y] is the
  left-symmetry identity.
- ``representation/semidirect-valid``: the semidirect product by
  (rho, mu) is left-symmetric exactly when (rho, mu) is a
  representation.
- ``representation/derived-equivalences``: (E; rho - mu, -mu) and
  (E*; rho*, mu*) are representations exactly when the mu anticommute.
- ``o-operator/induced-axioms``: an O-operator with respect to a
  representation rho induces the left-symmetric structure
  u.v = rho(Tu)v (Bai 2007); with rho not a representation it is
  decided.
"""

import functools
from itertools import combinations, combinations_with_replacement

from hypothesis import given, settings, strategies as st

from helpers import (
    derived_conditions_oracle,
    induced_axioms_oracle,
    left_mult_rep_oracle,
    reframed,
    right_mult_matrices,
    semidirect_axioms_oracle,
    sub_adjacent_oracle,
)
from test_nijenhuis_records import entries, matrices, point_algebras, \
    polynomial_bases
from lsakit.cli import run_suite
from lsakit.constructions import (
    apply_O_operator,
    check_representation_lie,
    check_representation_lsa,
    derived_reps,
)
from lsakit.core import (
    LSAlgebroid,
    Representation,
    Section,
    build_left_mult_rep,
    check_left_symmetric,
    sub_adjacent,
)
from lsakit.instances import InstanceFile
from lsakit.polyring import PolyMatrix
from lsakit.report import Report

EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True)


@functools.cache
def bases() -> tuple:
    return tuple(point_algebras()), tuple(polynomial_bases())


@st.composite
def left_symmetric(draw) -> LSAlgebroid:
    """A point algebra in a drawn unitriangular frame, so that most
    products are nonzero, or a corpus base (the ladder also in two
    polynomial frames)."""
    points, polynomial = bases()
    if draw(st.booleans()):
        return draw(st.sampled_from(polynomial))
    alg = draw(st.sampled_from(points))
    r = alg.rank
    frame = draw(matrices((), r, r))
    P = PolyMatrix((), [[1 if a == b else frame.entry(a, b) if a < b
                         else 0 for b in range(r)] for a in range(r)])
    return reframed(alg, P @ P.transpose())


@st.composite
def perturbed(draw) -> LSAlgebroid:
    """A left-symmetric structure with a drawn section added to one
    product, which is often zero."""
    alg = draw(left_symmetric())
    r = alg.rank
    i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
    shift = Section(alg.coords, draw(st.lists(entries(alg.coords),
                                              min_size=r, max_size=r)))
    c = [[alg.c[a][b] + shift if (a, b) == (i, j) else alg.c[a][b]
          for b in range(r)] for a in range(r)]
    return LSAlgebroid(alg.coords, r, c, alg.anchor)


@st.composite
def pairs(draw) -> tuple:
    """A left-symmetric structure with (L, 0) or (L, R), half of the
    time with a drawn matrix added to one rho or mu matrix."""
    alg = draw(left_symmetric())
    r, coords = alg.rank, alg.coords
    rho = list(build_left_mult_rep(alg).rho_mat)
    mu = draw(st.sampled_from(([PolyMatrix.zeros(r, r, coords)] * r,
                               right_mult_matrices(alg))))
    mu = list(mu)
    if draw(st.booleans()):
        target = draw(st.sampled_from((rho, mu)))
        k = draw(st.integers(0, r - 1))
        target[k] = target[k] + draw(matrices(coords, r, r))
    return alg, Representation(r, rho, mu)


def suite(alg: LSAlgebroid, rep=None, T=None) -> Report:
    instance = InstanceFile("drawn", "", alg, representation=rep,
                            endomorphisms={} if T is None else {"T": T})
    return run_suite(instance, "all", max_degree=1)


def records(report: Report, prefix: str) -> list:
    return [rec for rec in report.records if rec.name.startswith(prefix)]


def test_the_commutator_is_a_lie_algebroid_past_the_axiom_gate():
    seen = set()

    @EXAMPLES
    @given(perturbed())
    def agree(alg):
        axioms = check_left_symmetric(alg)
        lie = sub_adjacent_oracle(alg)
        if axioms.record("associator-symmetry").status == "pass":
            assert lie.record("jacobi").status == "pass"
        assert lie.record("anchor-morphism").status == \
            axioms.record("anchor-morphism").status
        if axioms.passed:
            expected = Report()
            expected.merge(lie, prefix="sub-adjacent/")
            got = records(suite(alg), "sub-adjacent/")
            assert got[:-1] == expected.records
            assert got[-1].name == "sub-adjacent/left-mult-rep"
        seen.add(("gate passes" if axioms.passed else "gate fails",
                  "Lie" if lie.passed else "not Lie"))

    agree()
    assert seen == {("gate passes", "Lie"), ("gate fails", "Lie"),
                    ("gate fails", "not Lie")}


def test_left_multiplication_represents_the_commutator_exactly_when_left_symmetric():
    seen = set()

    @EXAMPLES
    @given(perturbed())
    def agree(alg):
        axioms = check_left_symmetric(alg)
        symmetric = axioms.record("associator-symmetry").status == "pass"
        assert left_mult_rep_oracle(alg) == symmetric
        if axioms.passed:
            record = suite(alg).record("sub-adjacent/left-mult-rep")
            assert (record.status, record.witnesses) == ("pass", ())
        seen.add(symmetric)

    agree()
    assert seen == {True, False}


def test_the_semidirect_product_is_left_symmetric_exactly_for_a_representation():
    seen = set()

    @EXAMPLES
    @given(pairs())
    def agree(pair):
        alg, rep = pair
        valid = check_representation_lsa(alg, rep)
        assert semidirect_axioms_oracle(alg, rep) == valid
        report = suite(alg, rep)
        assert report.record("representation/valid").status == \
            ("pass" if valid else "fail")
        if valid:
            assert report.record("representation/semidirect-valid").status \
                == "pass"
        seen.add(valid)

    agree()
    assert seen == {True, False}


def test_the_derived_conditions_are_anticommutation_of_mu():
    # the third condition read "the mu commute", which disagreed with the
    # first two where the mu commute and do not anticommute
    seen = set()

    @EXAMPLES
    @given(pairs())
    def agree(pair):
        alg, rep = pair
        if not check_representation_lsa(alg, rep):
            return
        M = rep.mu_mat
        anticommute = all((M[i] @ M[j] + M[j] @ M[i]).is_zero()
                          for i, j in combinations_with_replacement(
                              range(alg.rank), 2))
        commute = all(M[i] @ M[j] == M[j] @ M[i]
                      for i, j in combinations(range(alg.rank), 2))
        assert derived_reps(alg, rep).equivalences == (anticommute,) * 3
        assert derived_conditions_oracle(alg, rep) == (anticommute,) * 2
        record = suite(alg, rep).record(
            "representation/derived-equivalences")
        assert record.status == "pass"
        assert record.witnesses == (f"conditions = {(anticommute,) * 3}",)
        seen.add(anticommute)
        if commute != anticommute:
            seen.add("commutation disagrees")

    agree()
    assert seen == {True, False, "commutation disagrees"}


@st.composite
def operators(draw) -> tuple:
    """A left-symmetric structure, rho and a drawn operator T.  rho is
    left multiplication, or that plus a drawn matrix on one L_k, or plus
    a drawn symmetric table d, Delta(e_i)e_j = d_ij: the last keeps
    rho(x)y - rho(y)x the commutator, so the identity stays an
    O-operator, and T is the identity a quarter of the time."""
    alg = draw(left_symmetric())
    r, coords = alg.rank, alg.coords
    rho = list(build_left_mult_rep(alg).rho_mat)
    kind = draw(st.sampled_from(("L", "one matrix", "symmetric")))
    if kind == "one matrix":
        k = draw(st.integers(0, r - 1))
        rho[k] = rho[k] + draw(matrices(coords, r, r))
    elif kind == "symmetric":
        d = draw(st.lists(entries(coords), min_size=r ** 3,
                          max_size=r ** 3))
        # column j of Delta_i is d_ij = d_ji, entry (k, j) is d[ij][k]
        pair = {(i, j): min(i, j) * r + max(i, j) for i in range(r)
                for j in range(r)}
        rho = [m + PolyMatrix(coords, [[d[pair[i, j] * r + k]
                                        for j in range(r)]
                                       for k in range(r)])
               for i, m in enumerate(rho)]
    T = PolyMatrix.identity(r, coords) if draw(st.integers(0, 3)) == 0 \
        else draw(matrices(coords, r, r))
    return alg, Representation(r, rho), T


def test_an_o_operator_for_a_representation_induces_a_left_symmetric_structure():
    seen = set()

    @EXAMPLES
    @given(operators())
    def agree(drawn):
        alg, rep, T = drawn
        lie = sub_adjacent(alg)
        if not apply_O_operator(lie, rep, T).is_O:
            seen.add("not an O-operator")
            return
        is_rep = check_representation_lie(lie, rep)
        induced = induced_axioms_oracle(lie, rep, T)
        if is_rep:
            assert induced
        assert suite(alg, rep, T).record("o-operator/induced-axioms") \
            .status == ("pass" if induced else "fail")
        seen.add(("representation" if is_rep else "not a representation",
                  "left-symmetric" if induced else "not left-symmetric"))

    agree()
    assert seen == {"not an O-operator",
                    ("representation", "left-symmetric"),
                    ("not a representation", "left-symmetric"),
                    ("not a representation", "not left-symmetric")}
