"""Tests for representations, O-operators, semidirect products, phase
spaces, and the para/complex/quadratic structure suite."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    action_instance,
    complex_integrability_oracle,
    flat_instance,
    flat_line_rank2,
    ladder_instance,
    point_algebra,
    paracomplex_concomitant_oracle,
    point_e1e2,
    random_section,
    rep_mu_section,
    two_form_d_oracle,
)
from lsakit.constructions import (
    BilinearForm,
    _torsion_failures,
    action_algebroid,
    apply_O_operator,
    build_complex_structure,
    build_phase_space,
    check_lie_nijenhuis,
    check_paracomplex,
    check_quadratic,
    check_representation_lie,
    check_representation_lsa,
    derived_reps,
    dual_rep,
    express_in_frame,
    kernel_representations,
    lsa_from_phase,
    phase_iso_from_lsa_iso,
    quadratic_kernel_descend,
    semidirect_lie,
    semidirect_lsa,
)
from lsakit.core import (
    Representation,
    Section,
    build_left_mult_rep,
    check_left_symmetric,
    check_lie_algebroid,
    frame_commutator,
    lie_form_d,
    sub_adjacent,
)
from lsakit.errors import (
    DimensionMismatch,
    FrameNotInKernel,
    NonConstantDeterminant,
    NotAnAction,
    NotARepresentation,
    NotIsomorphism,
    NotQuadratic,
    OmegaNotClosed,
)
from lsakit.instances import CORPUS_NAMES, load_corpus
from lsakit.polyring import Poly, PolyMatrix, VectorField, parse_poly

ZERO2 = PolyMatrix.zeros(2, 2, ())
ID2 = PolyMatrix.identity(2, ())


def lrep(alg):
    return build_left_mult_rep(alg)


# ---------------------------------------------------------------------------
# Lie algebroid representations
# ---------------------------------------------------------------------------

def test_rep_lie_zero_on_abelian():
    lie = sub_adjacent(point_algebra(2, {}))
    rep = Representation(2, [ZERO2, ZERO2])
    assert check_representation_lie(lie, rep)


def test_rep_lie_left_mult_rep_everywhere():
    for alg in (flat_instance(), point_e1e2(), action_instance(),
                ladder_instance()):
        lie = sub_adjacent(alg)
        assert check_representation_lie(lie, lrep(alg))


def test_rep_lie_noncommuting_matrices_fail():
    lie = sub_adjacent(point_algebra(2, {}))
    up = PolyMatrix((), [[0, 1], [0, 0]])
    down = PolyMatrix((), [[0, 0], [1, 0]])
    assert not check_representation_lie(lie, Representation(2, [up, down]))


def test_dual_rep_examples():
    alg = point_e1e2()
    lie = sub_adjacent(alg)
    rep = lrep(alg)
    dual = dual_rep(lie, rep)
    assert dual.rho_mat[0] == PolyMatrix((), [[0, 0], [0, -1]])
    assert dual.rho_mat[1].is_zero()
    # dual of dual restores the matrices
    double = dual_rep(lie, dual)
    assert double.rho_mat == rep.rho_mat
    # zero rep dualizes to zero
    zero_rep = Representation(2, [ZERO2, ZERO2])
    assert all(m.is_zero() for m in dual_rep(lie, zero_rep).rho_mat)


def test_dual_rep_pairing_identity_on_sections():
    rng = random.Random(5)
    alg = ladder_instance()
    lie = sub_adjacent(alg)
    rep = lrep(alg)
    dual = dual_rep(lie, rep)
    from lsakit.core import rep_rho_frame

    def pairing(xi, y):
        total = Poly.zero(alg.coords)
        for a, b in zip(xi.components, y.components):
            total = total + a * b
        return total

    for i in range(alg.rank):
        for _ in range(3):
            xi = random_section(rng, alg)
            y = random_section(rng, alg)
            lhs = pairing(rep_rho_frame(lie, dual, i, xi), y)
            rhs = lie.anchor[i].apply(pairing(xi, y)) \
                - pairing(xi, rep_rho_frame(lie, rep, i, y))
            assert lhs == rhs


def test_dual_rep_rejects_non_representation():
    lie = sub_adjacent(point_algebra(2, {}))
    up = PolyMatrix((), [[0, 1], [0, 0]])
    down = PolyMatrix((), [[0, 0], [1, 0]])
    with pytest.raises(NotARepresentation):
        dual_rep(lie, Representation(2, [up, down]))


# ---------------------------------------------------------------------------
# left-symmetric representations
# ---------------------------------------------------------------------------

def test_rep_lsa_mu_zero():
    for alg in (flat_instance(), point_e1e2(), ladder_instance()):
        assert check_representation_lsa(alg, lrep(alg))


def test_rep_lsa_left_right_on_point_algebra():
    # (L, R) on e_1*e_1 = e_1, e_1*e_2 = e_2: brute-force both routes
    alg = point_algebra(2, {(0, 0): [1, 0], (0, 1): [0, 1]})
    left = lrep(alg)
    right = [PolyMatrix((), [[alg.c[m][i].components[k].constant_value()
                              for m in range(2)] for k in range(2)])
             for i in range(2)]
    rep = Representation(2, left.rho_mat, right)

    # independent brute-force oracle over all basis pairs
    def oracle():
        units = [Section.unit((), 2, m) for m in range(2)]
        from lsakit.core import rep_mu_frame, rep_rho_frame
        for i in range(2):
            for j in range(2):
                for u in units:
                    lhs = rep_rho_frame(alg, rep, i, rep_mu_frame(rep, j, u)) \
                        - rep_mu_frame(rep, j, rep_rho_frame(alg, rep, i, u))
                    rhs = rep_mu_section(rep, alg.c[i][j], u) \
                        - rep_mu_frame(rep, j, rep_mu_frame(rep, i, u))
                    if lhs != rhs:
                        return False
        return True

    assert oracle() == check_representation_lsa(alg, rep)
    assert check_representation_lsa(alg, rep)


def test_rep_lsa_failing_mu():
    # zero algebra: the coupling identity needs mu(y)mu(x) = 0
    alg = point_algebra(2, {})
    up = PolyMatrix((), [[0, 1], [0, 0]])
    down = PolyMatrix((), [[0, 0], [1, 0]])
    rep = Representation(2, [ZERO2, ZERO2], [up, down])
    assert not check_representation_lsa(alg, rep)


def test_derived_reps_mu_zero():
    alg = point_e1e2()
    rep = lrep(alg)
    derived = derived_reps(alg, rep)
    assert derived.on_bundle.rho_mat == rep.rho_mat
    assert derived.equivalences == (True, True, True)
    # dual carries the negative transposes when mu = 0
    assert derived.on_dual.rho_mat[0] == PolyMatrix((), [[0, 0], [0, -1]])
    assert all(m.is_zero() for m in derived.on_dual.mu_mat)


def test_derived_reps_noncommuting_mu_all_false():
    # (A; L, R) on e_1*e_1 = e_1, e_1*e_2 = e_2 has non-commuting right
    # multiplications, so all three equivalent conditions fail together
    alg = point_algebra(2, {(0, 0): [1, 0], (0, 1): [0, 1]})
    right = [PolyMatrix((), [[1, 0], [0, 0]]), PolyMatrix((), [[0, 0], [1, 0]])]
    rep = Representation(2, lrep(alg).rho_mat, right)
    assert check_representation_lsa(alg, rep)
    derived = derived_reps(alg, rep)
    assert derived.equivalences == (False, False, False)
    mu1, mu2 = rep.mu_mat
    assert mu1 @ mu2 != mu2 @ mu1


def test_derived_reps_flat_self_rep():
    alg = flat_instance()
    derived = derived_reps(alg, lrep(alg))
    assert derived.equivalences == (True, True, True)
    assert check_representation_lsa(alg, derived.on_dual)


# ---------------------------------------------------------------------------
# action algebroids
# ---------------------------------------------------------------------------

def test_action_abelian_zero_fields():
    g = point_algebra(2, {})
    coords = ("x",)
    fields = [VectorField.zero(coords), VectorField.zero(coords)]
    built = action_algebroid(g, fields, coords)
    assert all(built.c[i][j].is_zero() for i in range(2) for j in range(2))
    assert check_left_symmetric(built).passed


def test_action_builds_the_action_instance():
    g = point_algebra(1, {(0, 0): [1]})
    coords = ("x",)
    fields = [VectorField(coords, (parse_poly("x", coords),))]
    built = action_algebroid(g, fields, coords)
    expected = action_instance()
    assert built.c[0][0] == expected.c[0][0]
    assert built.anchor[0] == expected.anchor[0]
    assert check_left_symmetric(built).passed


def test_action_flat_rank1():
    g = point_algebra(1, {})
    coords = ("x",)
    fields = [VectorField(coords, (Poly.constant(1, coords),))]
    built = action_algebroid(g, fields, coords)
    assert built.c[0][0].is_zero()
    lie = sub_adjacent(built)
    assert check_lie_algebroid(lie).passed
    assert lie.b[0][0].is_zero()


def test_action_condition_violation():
    g = point_algebra(2, {(0, 1): [0, 1]})  # [e_1,e_2] = e_2
    coords = ("x",)
    fields = [VectorField(coords, (Poly.constant(1, coords),)),
              VectorField(coords, (Poly.constant(1, coords),))]
    # [rho(e_1), rho(e_2)] = 0 but rho([e_1,e_2]) = rho(e_2) = d/dx
    with pytest.raises(NotAnAction) as err:
        action_algebroid(g, fields, coords)
    assert err.value.witness == (0, 1)


# ---------------------------------------------------------------------------
# O-operators
# ---------------------------------------------------------------------------

def test_o_operator_trivial_cases():
    lie = sub_adjacent(point_algebra(2, {}))
    rep = Representation(2, [ZERO2, ZERO2])
    for T in (PolyMatrix((), [[1, 2], [0, 1]]), PolyMatrix.zeros(2, 2, ())):
        result = apply_O_operator(lie, rep, T)
        assert result.is_O
        assert all(result.induced.c[i][j].is_zero()
                   for i in range(2) for j in range(2))
        assert result.T_homomorphism


def test_o_operator_identity_against_left_mult():
    for alg in (point_e1e2(), ladder_instance(), flat_instance()):
        lie = sub_adjacent(alg)
        rep = lrep(alg)
        result = apply_O_operator(lie, rep,
                                  PolyMatrix.identity(alg.rank, alg.coords))
        assert result.is_O
        assert check_left_symmetric(result.induced).passed
        assert result.T_homomorphism
        # the induced product is the original one
        assert all(result.induced.c[i][j] == alg.c[i][j]
                   for i in range(alg.rank) for j in range(alg.rank))


def test_o_operator_failure_witness():
    # adjoint representation with T = id fails unless the bracket is abelian
    alg = point_e1e2()
    lie = sub_adjacent(alg)
    ad_mats = [PolyMatrix((), [[lie.b[i][j].components[k].constant_value()
                                for j in range(2)] for k in range(2)])
               for i in range(2)]
    ad = Representation(2, ad_mats)
    assert check_representation_lie(lie, ad)
    result = apply_O_operator(lie, ad, ID2)
    assert not result.is_O
    assert result.witnesses


def test_o_operator_tilde_is_lie_nijenhuis():
    for alg in (point_e1e2(), ladder_instance()):
        lie = sub_adjacent(alg)
        rep = lrep(alg)
        T = PolyMatrix.identity(alg.rank, alg.coords)
        assert apply_O_operator(lie, rep, T).is_O
        product = semidirect_lie(lie, rep)
        r = alg.rank
        tilde = PolyMatrix(alg.coords,
                           [[T.entry(i, j - r) if i < r and j >= r else 0
                             for j in range(2 * r)] for i in range(2 * r)])
        assert check_lie_nijenhuis(product, tilde)


def test_lie_nijenhuis_identity_and_scalings():
    for alg in (point_e1e2(), ladder_instance()):
        lie = sub_adjacent(alg)
        ident = PolyMatrix.identity(alg.rank, alg.coords)
        assert check_lie_nijenhuis(lie, ident)
        assert check_lie_nijenhuis(lie, ident.scale(Fraction(7, 3)))


# ---------------------------------------------------------------------------
# semidirect products
# ---------------------------------------------------------------------------

def test_semidirect_lie_zero_rep_direct_sum():
    lie = sub_adjacent(point_e1e2())
    rep = Representation(2, [ZERO2, ZERO2])
    product = semidirect_lie(lie, rep)
    assert check_lie_algebroid(product).passed
    assert product.b[0][2].is_zero()
    assert product.b[0][1] == Section.unit((), 4, 1)


def test_semidirect_lie_dual_rep_brackets():
    alg = point_e1e2()
    lie = sub_adjacent(alg)
    dual = dual_rep(lie, lrep(alg))
    product = semidirect_lie(lie, dual)
    assert check_lie_algebroid(product).passed
    # [e_1, eps_2] = -eps_2 on the 4-dim double
    assert product.b[0][3] == -Section.unit((), 4, 3)


def test_semidirect_lie_heisenberg_like():
    lie = sub_adjacent(point_algebra(2, {}))
    nil = PolyMatrix((), [[0, 1], [0, 0]])
    rep = Representation(2, [nil, ZERO2])
    product = semidirect_lie(lie, rep)
    assert check_lie_algebroid(product).passed
    assert product.b[0][3] == Section.unit((), 4, 2)


def test_semidirect_lsa_zero_rep():
    alg = point_e1e2()
    rep = Representation(2, [ZERO2, ZERO2], [ZERO2, ZERO2])
    product = semidirect_lsa(alg, rep)
    assert check_left_symmetric(product).passed
    assert product.c[2][0].is_zero()
    assert product.c[0][1] == Section.unit((), 4, 1)


def test_semidirect_lsa_matches_semidirect_lie():
    # the commutator of the semidirect product is the semidirect product
    # of the commutator by rho - mu
    for alg in (point_e1e2(), flat_instance()):
        rep = lrep(alg)
        product = semidirect_lsa(alg, rep)
        assert check_left_symmetric(product).passed
        lie = sub_adjacent(alg)
        diff = Representation(rep.s,
                              [r - m for r, m in zip(rep.rho_mat, rep.mu_mat)])
        expected = semidirect_lie(lie, diff)
        for i in range(product.rank):
            for j in range(product.rank):
                assert frame_commutator(product, i, j) == expected.b[i][j]


def test_semidirect_lsa_with_left_right_rep():
    alg = point_algebra(2, {(0, 0): [1, 0], (0, 1): [0, 1]})
    right = [PolyMatrix((), [[1, 0], [0, 0]]), PolyMatrix((), [[0, 0], [1, 0]])]
    rep = Representation(2, lrep(alg).rho_mat, right)
    product = semidirect_lsa(alg, rep)
    assert check_left_symmetric(product).passed


def test_semidirect_rejects_bad_reps():
    lie = sub_adjacent(point_algebra(2, {}))
    up = PolyMatrix((), [[0, 1], [0, 0]])
    down = PolyMatrix((), [[0, 0], [1, 0]])
    with pytest.raises(NotARepresentation):
        semidirect_lie(lie, Representation(2, [up, down]))
    with pytest.raises(NotARepresentation):
        semidirect_lsa(point_algebra(2, {}),
                       Representation(2, [ZERO2, ZERO2], [up, down]))


# ---------------------------------------------------------------------------
# phase spaces
# ---------------------------------------------------------------------------

def test_phase_space_zero_algebra_rank1():
    alg = point_algebra(1, {})
    phase = build_phase_space(alg)
    assert phase.report.passed
    assert phase.P.rank == 2
    assert all(phase.P.b[i][j].is_zero() for i in range(2) for j in range(2))
    assert phase.omega.component((0, 1)) == Poly.constant(1, ())


def test_phase_space_point_e1e2():
    phase = build_phase_space(point_e1e2())
    assert phase.report.passed
    assert phase.P.b[0][3] == -Section.unit((), 4, 3)
    assert lie_form_d(phase.P, phase.omega).is_zero()
    # cross-check closedness with the direct 6-term oracle
    for i, j, k in combinations(range(4), 3):
        assert two_form_d_oracle(phase.P, phase.omega, i, j, k).is_zero()


def test_phase_space_flat():
    phase = build_phase_space(flat_instance())
    assert phase.report.passed
    assert phase.P.rank == 4
    assert lie_form_d(phase.P, phase.omega).is_zero()


def test_phase_space_canonical_paracomplex():
    for alg in (point_e1e2(), flat_instance(), ladder_instance()):
        phase = build_phase_space(alg)
        assert check_paracomplex(phase.P, phase.paracomplex)


def test_lsa_from_phase_round_trip():
    for alg in (point_e1e2(), ladder_instance(), flat_instance()):
        lie = sub_adjacent(alg)
        rep = lrep(alg)
        recovered = lsa_from_phase(lie, rep)
        assert recovered.report.passed
        assert all(recovered.base.c[i][j] == alg.c[i][j]
                   for i in range(alg.rank) for j in range(alg.rank))


def test_lsa_from_phase_explicit_example():
    # bracket [e_1,e_2] = e_2 with rho(e_1) = diag(0,1), rho(e_2) = 0
    lie = sub_adjacent(point_e1e2())
    rep = Representation(2, [PolyMatrix((), [[0, 0], [0, 1]]), ZERO2])
    recovered = lsa_from_phase(lie, rep)
    assert recovered.base.c[0][1] == Section.unit((), 2, 1)
    assert recovered.base.c[1][0].is_zero()


def test_lsa_from_phase_zero_rep_on_abelian():
    lie = sub_adjacent(point_algebra(2, {}))
    rep = Representation(2, [ZERO2, ZERO2])
    recovered = lsa_from_phase(lie, rep)
    assert all(recovered.base.c[i][j].is_zero()
               for i in range(2) for j in range(2))


def test_lsa_from_phase_omega_not_closed():
    # rho = 0 on a non-abelian bracket: d omega detects the mismatch
    lie = sub_adjacent(point_e1e2())
    rep = Representation(2, [ZERO2, ZERO2])
    with pytest.raises(OmegaNotClosed):
        lsa_from_phase(lie, rep)


# ---------------------------------------------------------------------------
# paracomplex structures
# ---------------------------------------------------------------------------

def test_paracomplex_identity():
    lie = sub_adjacent(point_e1e2())
    assert check_paracomplex(lie, ID2)


def test_paracomplex_swap_on_solvable_algebra():
    lie = sub_adjacent(point_e1e2())
    swap = PolyMatrix((), [[0, 1], [1, 0]])
    # brute-force decision: swap squares to id; integrability may fail
    expected = True
    images = [Section((), swap.column(i)) for i in range(2)]
    from lsakit.core import apply_endo, section_bracket
    lhs = apply_endo(swap, lie.b[0][1])
    rhs = section_bracket(lie, images[0], lie.frame(1)) \
        + section_bracket(lie, lie.frame(0), images[1]) \
        - apply_endo(swap, section_bracket(lie, images[0], images[1]))
    expected = lhs == rhs
    assert check_paracomplex(lie, swap) == expected


def _oracle_algebroids():
    """Sub-adjacent and phase-space Lie algebroids of three instances
    with constant and non-constant brackets and anchors."""
    lies = []
    for alg in (flat_instance(), ladder_instance(), point_e1e2()):
        lies += [sub_adjacent(alg), build_phase_space(alg).P]
    return lies


ORACLE_ALGEBROIDS = _oracle_algebroids()


def _shear(coords, r, i, j, f):
    """I + f E_ij, whose inverse is I - f E_ij."""
    return PolyMatrix(coords, [[f if (a, b) == (i, j) else int(a == b)
                                for b in range(r)] for a in range(r)])


@st.composite
def conjugated(draw, middle):
    """An algebroid and S M S^-1 for a unimodular S, a product of shears
    whose factor f is a nonzero integer times 1 or a base coordinate."""
    lie = draw(st.sampled_from(ORACLE_ALGEBROIDS))
    r, coords = lie.rank, lie.coords
    S = S_inv = PolyMatrix.identity(r, coords)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.permutations(range(r)))[:2]
        f = Poly.constant(draw(st.sampled_from((1, -1, 2, -2))), coords)
        if coords and draw(st.booleans()):
            f = f * Poly.variable(draw(st.sampled_from(coords)), coords)
        S = S @ _shear(coords, r, i, j, f)
        S_inv = _shear(coords, r, i, j, -f) @ S_inv
    return lie, S @ PolyMatrix(coords, draw(middle(r))) @ S_inv


def _reflections(r):
    signs = st.lists(st.sampled_from((1, -1)), min_size=r, max_size=r)
    return signs.map(lambda d: [[d[a] if a == b else 0 for b in range(r)]
                                for a in range(r)])


def _rotation(r):
    h = r // 2
    return st.just([[-1 if b == a + h else 1 if a == b + h else 0
                     for b in range(r)] for a in range(r)])


def test_paracomplex_torsion_matches_concomitant_oracle():
    outcomes = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(conjugated(_reflections))
    def agree(case):
        lie, E = case
        assert E @ E == PolyMatrix.identity(lie.rank, lie.coords)
        failing = list(_torsion_failures(lie, E))
        assert failing == paracomplex_concomitant_oracle(lie, E)
        assert check_paracomplex(lie, E) == (not failing)
        outcomes.add(not failing)

    agree()
    assert outcomes == {True, False}


def test_complex_torsion_matches_integrability_oracle():
    outcomes = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(conjugated(_rotation))
    def agree(case):
        lie, J = case
        assert J @ J == PolyMatrix.identity(lie.rank, lie.coords).scale(-1)
        failing = list(_torsion_failures(lie, J))
        assert failing == complex_integrability_oracle(lie, J)
        outcomes.add(not failing)

    agree()
    assert outcomes == {True, False}


def test_lie_form_d_multiplies_no_zero_component(monkeypatch):
    products = []
    multiply = Poly.__mul__

    def spy(left, right):
        products.append((left, right))
        return multiply(left, right)

    for name in CORPUS_NAMES:
        alg = load_corpus(name).algebroid
        if not check_left_symmetric(alg).passed:
            continue
        phase = build_phase_space(alg)
        monkeypatch.setattr(Poly, "__mul__", spy)
        lie_form_d(phase.P, phase.omega)
        monkeypatch.undo()
    assert products
    assert not any(isinstance(x, Poly) and x.is_zero()
                   for pair in products for x in pair)


# ---------------------------------------------------------------------------
# quadratic structures
# ---------------------------------------------------------------------------

def test_quadratic_flat_identity_is_riemannian():
    report = check_quadratic(flat_instance(), PolyMatrix.identity(2, ("x", "y")))
    assert report.passed
    assert report.record("riemannian").status == "pass"


def test_quadratic_zero_algebra_any_invertible_constant():
    form = PolyMatrix((), [[0, 1], [1, 0]])
    report = check_quadratic(point_algebra(2, {}), form)
    assert report.passed
    assert report.record("riemannian").status == "uncertified"


def test_quadratic_point_e1e2_identity_fails():
    report = check_quadratic(point_e1e2(), ID2)
    assert not report.passed
    rec = report.record("invariance")
    assert rec.status == "fail"
    assert any("(e_1,e_2,e_2)" in w for w in rec.witnesses)


def test_quadratic_nonconstant_det_refused():
    coords = ("x", "y")
    form = PolyMatrix(coords, [[parse_poly("x", coords), 0], [0, 1]])
    with pytest.raises(NonConstantDeterminant):
        check_quadratic(flat_instance(), form)


def test_quadratic_nonconstant_entries_constant_det():
    coords = ("x", "y")
    x = parse_poly("x", coords)
    form = PolyMatrix(coords, [[Poly.constant(1, coords), x],
                               [x, x * x + 1]])
    report = check_quadratic(flat_instance(), form)
    # invariance fails for the flat instance (anchor differentiates the
    # entries) but nondegeneracy is certified and riemannian uncertified
    assert report.record("nondegenerate").status == "pass"
    assert report.record("riemannian").status == "uncertified"


def test_quadratic_kernel_descend():
    alg = flat_line_rank2()
    form = PolyMatrix.identity(2, ("x",))
    kernel = [Section.unit(("x",), 2, 1)]
    assert quadratic_kernel_descend(alg, form, kernel)
    # whole frame over a point base
    zero = point_algebra(2, {})
    assert quadratic_kernel_descend(zero, PolyMatrix.identity(2, ()),
                                    [Section.unit((), 2, 0),
                                     Section.unit((), 2, 1)])
    # empty frame is vacuous
    assert quadratic_kernel_descend(flat_instance(),
                                    PolyMatrix.identity(2, ("x", "y")), [])


def test_bilinear_form_refuses_non_square_and_non_symmetric():
    coords = ("x",)
    x, one = parse_poly("x", coords), Poly.constant(1, coords)
    with pytest.raises(DimensionMismatch, match="must be square"):
        BilinearForm(PolyMatrix(coords, [[one, x]]))
    with pytest.raises(DimensionMismatch, match="must be symmetric"):
        BilinearForm(PolyMatrix(coords, [[one, x], [one, one]]))
    square = PolyMatrix(coords, [[one, x], [x, one]])
    assert BilinearForm(square).matrix is square


@pytest.mark.parametrize("build, form", [
    (flat_instance, [["2", "1"], ["1", "1"]]),
    (flat_instance, [["1", "0"], ["0", "1"]]),
    (flat_instance, [["1", "x"], ["x", "x^2 + 1"]]),
    (point_e1e2, [["1", "0"], ["0", "1"]]),
    (flat_line_rank2, [["1", "0"], ["0", "1"]]),
    (flat_line_rank2, [["1", "0"], ["0", "-1"]])])
def test_bilinear_form_reads_as_its_matrix(build, form):
    # check_quadratic, build_complex_structure and quadratic_kernel_descend
    # give equal results for BilinearForm(m) and for m
    alg = build()
    matrix = PolyMatrix(alg.coords, [[parse_poly(text, alg.coords)
                                      for text in row] for row in form])
    wrapped = BilinearForm(matrix)
    assert check_quadratic(alg, wrapped).to_dict() == \
        check_quadratic(alg, matrix).to_dict()

    def outcome(call, form, *args):
        try:
            result = call(alg, form, *args)
        except NotQuadratic as err:
            return str(err)
        if isinstance(result, bool):
            return result
        return result.J, result.report.to_dict()

    assert outcome(build_complex_structure, wrapped) == \
        outcome(build_complex_structure, matrix)
    # the frame sections the anchor annihilates span a kernel frame
    kernel = [alg.frame(i) for i in range(alg.rank) if alg.anchor[i].is_zero()]
    for frame in ([], kernel):
        assert outcome(quadratic_kernel_descend, wrapped, frame) == \
            outcome(quadratic_kernel_descend, matrix, frame)


def test_quadratic_kernel_descend_errors():
    alg = flat_line_rank2()
    form = PolyMatrix.identity(2, ("x",))
    with pytest.raises(FrameNotInKernel):
        quadratic_kernel_descend(alg, form, [Section.unit(("x",), 2, 0)])
    with pytest.raises(NotQuadratic):
        quadratic_kernel_descend(point_e1e2(), ID2, [])


# ---------------------------------------------------------------------------
# complex structures
# ---------------------------------------------------------------------------

def test_complex_structure_zero_algebra_rank1():
    alg = point_algebra(1, {})
    result = build_complex_structure(alg, PolyMatrix.identity(1, ()))
    assert result.J == PolyMatrix((), [[0, -1], [1, 0]])
    assert result.report.passed
    assert result.report.record("taming-positivity").status == "pass"


def test_complex_structure_flat_identity_kahler():
    result = build_complex_structure(flat_instance(),
                                     PolyMatrix.identity(2, ("x", "y")))
    assert result.report.passed
    for name in ("squares-to-minus-id", "integrability",
                 "anticommutes-paracomplex", "omega-invariance",
                 "taming-positivity"):
        assert result.report.record(name).status == "pass"


def test_complex_structure_indefinite_form():
    form = PolyMatrix((), [[1, 0], [0, -1]])
    result = build_complex_structure(point_algebra(2, {}), form)
    assert result.report.record("squares-to-minus-id").status == "pass"
    assert result.report.record("integrability").status == "pass"
    assert result.report.record("anticommutes-paracomplex").status == "pass"
    assert result.report.record("omega-invariance").status == "pass"
    assert result.report.record("taming-positivity").status == "uncertified"
    assert result.report.passed  # uncertified does not fail the report


def test_complex_structure_requires_quadratic():
    with pytest.raises(NotQuadratic):
        build_complex_structure(point_e1e2(), ID2)


# ---------------------------------------------------------------------------
# phase space isomorphisms
# ---------------------------------------------------------------------------

def test_phase_iso_identity():
    alg = point_e1e2()
    result = phase_iso_from_lsa_iso(alg, alg, ID2)
    assert result.report.passed
    assert result.Phi == PolyMatrix.identity(4, ())


def test_phase_iso_diagonal_scaling():
    alg = point_e1e2()
    phi = PolyMatrix((), [[1, 0], [0, 2]])
    result = phase_iso_from_lsa_iso(alg, alg, phi)
    assert result.report.passed
    assert result.Phi.entry(3, 3) == Fraction(1, 2)


def test_phase_iso_rejects_non_homomorphism():
    alg = point_e1e2()
    with pytest.raises(NotIsomorphism):
        phase_iso_from_lsa_iso(alg, alg, PolyMatrix((), [[2, 0], [0, 1]]))


def test_phase_iso_rejects_singular():
    alg = point_algebra(2, {})
    with pytest.raises(NotIsomorphism):
        phase_iso_from_lsa_iso(alg, alg, PolyMatrix.zeros(2, 2, ()))


# ---------------------------------------------------------------------------
# kernel representations
# ---------------------------------------------------------------------------

def test_kernel_representations_whole_frame_zero_algebra():
    alg = point_algebra(2, {})
    frame = [Section.unit((), 2, 0), Section.unit((), 2, 1)]
    report = kernel_representations(alg, frame)
    assert report.passed
    assert report.record("ad-representation").status == "pass"
    assert report.record("ideal").status == "pass"
    assert report.record("left-right-representation").status == "pass"


def test_kernel_representations_ladder():
    alg = ladder_instance()
    frame = [Section.unit(("x",), 2, 1)]
    report = kernel_representations(alg, frame)
    assert report.passed
    assert report.record("ad-representation").status == "pass"
    assert report.record("ideal").status == "pass"
    assert report.record("left-right-representation").status == "pass"


def test_kernel_representations_non_ideal_witness():
    # span{e_1} in the point algebra is not an ideal: e_1 * e_2 = e_2 is
    # fine but e_1 * e_2 lies outside only through the other slot; use a
    # frame whose right products escape
    alg = point_e1e2()
    frame = [Section.unit((), 2, 0)]
    report = kernel_representations(alg, frame)
    rec = report.record("ideal")
    assert rec.status == "fail"
    assert rec.witnesses


def test_kernel_representations_rejects_bad_frame():
    alg = ladder_instance()
    with pytest.raises(FrameNotInKernel):
        kernel_representations(alg, [Section.unit(("x",), 2, 0)])


def test_empty_kernel_frame():
    # the span of no sections: only the frame record, and only the zero
    # section is expressed, by no coefficients
    for alg in (ladder_instance(), point_e1e2()):
        report = kernel_representations(alg, [])
        assert [(rec.name, rec.status) for rec in report.records] == \
            [("kernel-frame", "pass")]
        assert express_in_frame([], alg.zero_section()) == []
        assert express_in_frame([], alg.frame(0)) is None


def test_express_in_frame():
    coords = ("x",)
    frame = [Section(coords, [Poly.constant(1, coords), parse_poly("x", coords)])]
    target = Section(coords, [parse_poly("x", coords), parse_poly("x^2", coords)])
    coeffs = express_in_frame(frame, target)
    assert coeffs == [parse_poly("x", coords)]
    outside = Section(coords, [Poly.zero(coords), Poly.constant(1, coords)])
    assert express_in_frame(frame, outside) is None


@pytest.mark.parametrize("coords, rank", [(("x",), 3), (("x",), 1),
                                          (("y",), 2), (("x", "y"), 2)])
def test_express_in_frame_rejects_targets_off_the_frame_bundle(coords,
                                                               rank):
    # a frame of two rank-2 sections over x
    x, one = parse_poly("x", ("x",)), Poly.constant(1, ("x",))
    frame = [Section.unit(("x",), 2, 0), Section(("x",), [x, one])]
    assert express_in_frame(frame, Section.unit(("x",), 2, 1)) == [-x, one]
    with pytest.raises(DimensionMismatch):
        express_in_frame(frame, Section.unit(coords, rank, 0))
