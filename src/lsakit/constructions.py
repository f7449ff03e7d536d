"""Structures built on top of a left-symmetric algebroid.

Representations and their duals, action algebroids, O-operators,
semidirect products, phase spaces on the double bundle, paracomplex and
complex structures, quadratic forms, and kernel representations.

All integrability and invariance concomitants checked here are bundle
maps (their defects are function-linear in every slot), so verifying
them on frame tuples decides them on arbitrary sections.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .core import (
    FormCochain,
    LieAlgebroid,
    LSAlgebroid,
    Representation,
    Section,
    _along,
    _anchor_failures,
    _at,
    _require_left_symmetric,
    anchor_of_section,
    apply_endo,
    build_left_mult_rep,
    check_left_symmetric,
    check_lsa_homomorphism,
    frame_commutator,
    lie_form_d,
    section_bracket,
    section_mult,
    sub_adjacent,
)
from .errors import (
    DimensionMismatch,
    FrameExpressionError,
    FrameNotInKernel,
    NonConstantDeterminant,
    NotAnAction,
    NotAnIdeal,
    NotARepresentation,
    NotIsomorphism,
    NotPointCase,
    NotQuadratic,
    IncompatibleBracket,
    OmegaNotClosed,
)
from .polyring import (
    Poly,
    PolyMatrix,
    VectorField,
    find_constant_invertible_submatrix,
    matrix_inverse_adjugate,
)
from .report import Report

class BilinearForm:
    """Symmetric bilinear form on the bundle, stored as its frame matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: PolyMatrix):
        if matrix.rows != matrix.cols:
            raise DimensionMismatch("bilinear form matrix must be square")
        if matrix != matrix.transpose():
            raise DimensionMismatch("bilinear form matrix must be symmetric")
        self.matrix = matrix


def _form_matrix(form) -> PolyMatrix:
    return form.matrix if isinstance(form, BilinearForm) else form


# ---------------------------------------------------------------------------
# Representation checks and duals
# ---------------------------------------------------------------------------

def _require_rank_domain(rep: Representation, alg) -> None:
    """One matrix per frame section of ``alg``, over its coordinates;
    checked before any arithmetic."""
    if rep.rank_domain != alg.rank:
        raise DimensionMismatch(
            f"representation indexed by {rep.rank_domain} frame sections "
            f"on a rank {alg.rank} algebroid")
    for mat in (*rep.rho_mat, *rep.mu_mat):
        if mat.coords != alg.coords:
            raise DimensionMismatch(
                f"representation matrices over {mat.coords} on an "
                f"algebroid over {alg.coords}")


def check_representation_lie(lie: LieAlgebroid, rep: Representation) -> bool:
    """Does rho send frame brackets to operator commutators?

    rho(e_i) = a_i + R_i, with a_i the anchor field of e_i; the symbols
    agree by construction, so the identity is the matrix equation
    R([e_i, e_j]) = a_i(R_j) - a_j(R_i) + R_i R_j - R_j R_i on i < j.
    """
    _require_rank_domain(rep, lie)
    R = rep.rho_mat
    for i, j in combinations(range(lie.rank), 2):
        lhs = _at(R, lie.b[i][j], rep.s)
        rhs = _along(lie.anchor[i], R[j]) - _along(lie.anchor[j], R[i]) \
            + R[i] @ R[j] - R[j] @ R[i]
        if lhs != rhs:
            return False
    return True


def dual_rep(lie: LieAlgebroid, rep: Representation) -> Representation:
    """Dual representation on the dual bundle: matrix parts become
    negative transposes, derivation parts are unchanged."""
    if not check_representation_lie(lie, rep):
        raise NotARepresentation("input is not a Lie algebroid representation")
    return Representation(rep.s, [-(m.transpose()) for m in rep.rho_mat])


def check_representation_lsa(alg: LSAlgebroid, rep: Representation) -> bool:
    """Is (rho, mu) a representation of the left-symmetric algebroid?

    Requires rho to represent the sub-adjacent Lie algebroid, plus the
    coupling identity rho(x)mu(y) - mu(y)rho(x) = mu(x.y) - mu(y)mu(x),
    which on frame pairs (i, j), with mu(e_j) = M_j, is the matrix
    equation a_i(M_j) + R_i M_j - M_j R_i = M(e_i.e_j) - M_j M_i.
    """
    lie = sub_adjacent(alg)
    if not check_representation_lie(lie, rep):
        return False
    R, M = rep.rho_mat, rep.mu_mat
    for i in range(alg.rank):
        for j in range(alg.rank):
            lhs = _along(alg.anchor[i], M[j]) + R[i] @ M[j] - M[j] @ R[i]
            rhs = _at(M, alg.c[i][j], rep.s) - M[j] @ M[i]
            if lhs != rhs:
                return False
    return True


@dataclass
class DerivedReps:
    on_bundle: Representation
    on_dual: Representation
    equivalences: tuple[bool, bool, bool]


def derived_reps(alg: LSAlgebroid, rep: Representation) -> DerivedReps:
    """Representations induced on the bundle and its dual, plus the
    three equivalent conditions tying them together.

    ``on_bundle`` carries (rho - mu, 0); ``on_dual`` carries
    (rho* - mu*, -mu*).  The equivalence triple records whether
    (E; rho - mu, -mu) is a representation, whether (E*; rho*, mu*) is a
    representation, and whether the mu matrices commute pairwise; the
    three answers always agree.
    """
    if not check_representation_lsa(alg, rep):
        raise NotARepresentation("(rho, mu) fails the representation identities")
    diff = [r - m for r, m in zip(rep.rho_mat, rep.mu_mat)]
    rho_star = [-(m.transpose()) for m in rep.rho_mat]
    mu_star = [-(m.transpose()) for m in rep.mu_mat]
    on_bundle = Representation(rep.s, diff)
    on_dual = Representation(rep.s,
                             [rs - ms for rs, ms in zip(rho_star, mu_star)],
                             [-(ms) for ms in mu_star])
    cond1 = check_representation_lsa(
        alg, Representation(rep.s, diff, [-(m) for m in rep.mu_mat]))
    cond2 = check_representation_lsa(
        alg, Representation(rep.s, rho_star, mu_star))
    cond3 = all(rep.mu_mat[i] @ rep.mu_mat[j] == rep.mu_mat[j] @ rep.mu_mat[i]
                for i, j in combinations(range(alg.rank), 2))
    return DerivedReps(on_bundle, on_dual, (cond1, cond2, cond3))


# ---------------------------------------------------------------------------
# Action algebroids
# ---------------------------------------------------------------------------

def action_algebroid(algebra: LSAlgebroid, fields: Sequence[VectorField],
                     coords: Sequence[str]) -> LSAlgebroid:
    """Trivial bundle with constant products from a left-symmetric
    algebra acting through vector fields.

    The action condition (fields intertwine the commutator with the
    vector-field bracket) is verified on basis pairs; the result has the
    algebra's structure constants and the fields as its anchor.
    """
    if not algebra.is_point():
        raise NotPointCase("the acting algebra must have a point base")
    _require_left_symmetric(algebra)
    coords = tuple(coords)
    fields = list(fields)
    if len(fields) != algebra.rank:
        raise DimensionMismatch("one vector field per basis element required")
    for field in fields:
        if field.coords != coords:
            raise DimensionMismatch("action field over wrong coordinates")

    c = [[Section(coords, [comp.constant_value()
                           for comp in algebra.c[i][j].components])
          for j in range(algebra.rank)] for i in range(algebra.rank)]
    result = LSAlgebroid(coords, algebra.rank, c, fields)
    # the action condition is the anchor-morphism identity of the result
    for i, j, lhs, rhs in _anchor_failures(result, frame_commutator):
        raise NotAnAction(
            f"action condition fails on basis pair ({i + 1}, {j + 1}): "
            f"{lhs} != {rhs}", witness=(i, j))
    # constant products: the frame associators are the algebra's, gated above
    result._axioms = True
    return result


# ---------------------------------------------------------------------------
# O-operators and Nijenhuis operators on Lie algebroids
# ---------------------------------------------------------------------------

@dataclass
class OOperatorResult:
    is_O: bool
    induced: LSAlgebroid | None
    T_homomorphism: bool | None
    witnesses: tuple[str, ...] = ()


def apply_O_operator(lie: LieAlgebroid, rep: Representation,
                     T: PolyMatrix) -> OOperatorResult:
    """Test the O-operator identity and build the induced structure.

    When [Tu, Tv] = T(rho(Tu)v - rho(Tv)u) holds on frame pairs of the
    auxiliary bundle, the product u.v = rho(Tu)v with anchor a o T is a
    left-symmetric algebroid and T intertwines its commutator bracket
    with the ambient bracket.
    """
    if T.rows != lie.rank or T.cols != rep.s:
        raise DimensionMismatch(
            f"operator must be {lie.rank}x{rep.s}, got {T.rows}x{T.cols}")
    _require_rank_domain(rep, lie)
    images = [Section(lie.coords, T.column(m)) for m in range(rep.s)]
    # rho(Tu_i)u_j is column j of R(Tu_i): the anchor kills constant units
    mats = [_at(rep.rho_mat, image, rep.s) for image in images]
    c = [[Section(lie.coords, mat.column(j)) for j in range(rep.s)]
         for mat in mats]

    witnesses = []
    for i in range(rep.s):
        for j in range(i + 1, rep.s):
            lhs = section_bracket(lie, images[i], images[j])
            rhs = apply_endo(T, c[i][j] - c[j][i])
            if lhs != rhs:
                witnesses.append(
                    f"(u_{i+1},u_{j+1}): [Tu,Tv] = {lhs} but "
                    f"T(rho(Tu)v - rho(Tv)u) = {rhs}")
    if witnesses:
        return OOperatorResult(False, None, None, tuple(witnesses))

    anchor = [anchor_of_section(lie, images[i]) for i in range(rep.s)]
    induced = LSAlgebroid(lie.coords, rep.s, c, anchor)
    # the induced commutator is c[i][j] - c[j][i], so the witness loop
    # has already compared T of it with the ambient bracket
    return OOperatorResult(True, induced, True)


def check_lie_nijenhuis(lie: LieAlgebroid, endo: PolyMatrix) -> bool:
    """Vanishing of the Nijenhuis concomitant of a bundle endomorphism
    with respect to the bracket, decided on frame pairs."""
    return next(_torsion_failures(lie, endo), None) is None


def _torsion_failures(lie: LieAlgebroid, endo: PolyMatrix):
    """Frame pairs (i, j), i < j, where the Nijenhuis torsion
    T(x, y) = [Nx, Ny] - N([Nx, y] + [x, Ny] - N[x, y]) is nonzero."""
    if endo.rows != lie.rank or endo.cols != lie.rank:
        raise DimensionMismatch("endomorphism shape mismatch")
    images = [Section(lie.coords, endo.column(i)) for i in range(lie.rank)]
    for i in range(lie.rank):
        for j in range(i + 1, lie.rank):
            lhs = section_bracket(lie, images[i], images[j])
            inner = section_bracket(lie, images[i], lie.frame(j)) \
                + section_bracket(lie, lie.frame(i), images[j]) \
                - apply_endo(endo, lie.b[i][j])
            if lhs != apply_endo(endo, inner):
                yield i, j


# ---------------------------------------------------------------------------
# Semidirect products
# ---------------------------------------------------------------------------

def _semidirect(base, table, s: int, right: Sequence[PolyMatrix],
                left: Sequence[PolyMatrix]):
    """The algebroid of ``base``'s type on the direct sum E + V of rank
    r + s: ``table`` on E x E, column m of right[i] at (e_i, u_m),
    column m of left[j] at (u_m, e_j), zero on V x V, and the anchor
    vanishing on V.  No identity is checked."""
    r, coords, total = base.rank, base.coords, base.rank + s
    cells = [[{} for _ in range(total)] for _ in range(total)]
    for i in range(r):
        for j in range(r):
            cells[i][j].update(table[i][j].terms)
        for (row, m), value in right[i].terms.items():
            cells[i][r + m][r + row] = value
        for (row, m), value in left[i].terms.items():
            cells[r + m][i][r + row] = value
    return type(base)(
        coords, total,
        [[Section._from((coords, total), cell) for cell in row]
         for row in cells],
        base.anchor + (VectorField.zero(coords),) * s)


def semidirect_lie(lie: LieAlgebroid, rep: Representation) -> LieAlgebroid:
    """Semidirect product bracket on the direct sum with the auxiliary
    bundle, [x, u] = rho(x)u = -[u, x]; the anchor vanishes on the
    auxiliary part."""
    if not check_representation_lie(lie, rep):
        raise NotARepresentation("input is not a Lie algebroid representation")
    return _semidirect(lie, lie.b, rep.s, rep.rho_mat,
                       [-m for m in rep.rho_mat])


def semidirect_lsa(alg: LSAlgebroid, rep: Representation) -> LSAlgebroid:
    """Semidirect product left-symmetric structure: the bundle part
    multiplies as before, rho acts from the left and mu from the right."""
    if not check_representation_lsa(alg, rep):
        raise NotARepresentation("(rho, mu) fails the representation identities")
    return _semidirect(alg, alg.c, rep.s, rep.rho_mat, rep.mu_mat)


# ---------------------------------------------------------------------------
# Phase spaces
# ---------------------------------------------------------------------------

@dataclass
class PhaseSpace:
    P: LieAlgebroid
    omega: FormCochain
    paracomplex: PolyMatrix
    report: Report


def canonical_pairing_form(coords, rank: int) -> FormCochain:
    """The 2-form pairing the bundle with its dual on the double."""
    comps = {(i, rank + i): Poly.constant(1, coords) for i in range(rank)}
    return FormCochain(coords, 2 * rank, 2, comps)


def canonical_paracomplex(coords, rank: int) -> PolyMatrix:
    """Identity on the bundle part, minus identity on the dual part."""
    return PolyMatrix(coords,
                      [[(1 if i == j else 0) if i < rank else
                        (-1 if i == j else 0)
                        for j in range(2 * rank)] for i in range(2 * rank)])


def _double(lie: LieAlgebroid, rep: Representation) -> tuple:
    """The dual of a representation of ``lie`` on its own bundle, the
    double P of ``lie`` by that dual, the canonical pairing form on P
    and its differential."""
    dual = dual_rep(lie, rep)
    # the semidirect bracket by the dual, which dual_rep has checked
    P = _semidirect(lie, lie.b, lie.rank, dual.rho_mat,
                    [-m for m in dual.rho_mat])
    omega = canonical_pairing_form(lie.coords, lie.rank)
    return dual, P, omega, lie_form_d(P, omega)


def build_phase_space(alg: LSAlgebroid) -> PhaseSpace:
    """Double of the sub-adjacent Lie algebroid by the dual of the
    left-multiplication representation, carrying the canonical pairing
    form.

    The report certifies that the pairing form is closed and that the
    canonical reflection is a paracomplex structure; the constant frame
    matrix of the pairing form is invertible by its layout.
    """
    _, P, omega, d_omega = _double(sub_adjacent(alg),
                                   build_left_mult_rep(alg))
    para = canonical_paracomplex(alg.coords, alg.rank)

    report = Report("phase space")
    witnesses = [f"d omega(e_{i+1},e_{j+1},e_{k+1}) = {value}"
                 for (i, j, k), value in sorted(d_omega.terms.items())]
    report.add("omega-closed", "pairing 2-form is closed", not witnesses,
               witnesses)
    # the frame matrix is [[0, I], [-I, 0]], whose determinant is 1
    report.add("omega-nondegenerate",
               "constant frame matrix of the pairing form is invertible",
               True)

    report.add("paracomplex",
               "canonical reflection squares to the identity and is "
               "integrable",
               check_paracomplex(P, para))
    return PhaseSpace(P, omega, para, report)


@dataclass
class PhaseCompatible:
    base: LSAlgebroid
    total: LSAlgebroid
    report: Report


def lsa_from_phase(lie: LieAlgebroid, rep: Representation) -> PhaseCompatible:
    """Recover a left-symmetric structure from a phase space.

    Given a representation of the algebroid on itself whose semidirect
    product with the dual makes the pairing form closed, x.y = rho(x)y
    is left-symmetric with the original bracket as commutator, and the
    double carries a compatible left-symmetric structure.
    """
    if rep.s != lie.rank:
        raise DimensionMismatch("representation must act on the bundle itself")
    dual, P, _, d_omega = _double(lie, rep)
    r = lie.rank
    coords = lie.coords
    if not d_omega.is_zero():
        triple = sorted(d_omega.terms)[0]
        raise OmegaNotClosed(
            f"pairing form is not closed: d omega nonzero on frame triple "
            f"{tuple(t + 1 for t in triple)}", triple=triple)

    report = Report("compatible structure from phase space")
    c = [[Section(coords, rep.rho_mat[i].column(j)) for j in range(r)]
         for i in range(r)]
    bracket_witnesses = []
    for i in range(r):
        for j in range(i + 1, r):
            derived = c[i][j] - c[j][i]
            if derived != lie.b[i][j]:
                bracket_witnesses.append(
                    f"(e_{i+1},e_{j+1}): rho(x)y - rho(y)x = {derived} but "
                    f"[x,y] = {lie.b[i][j]}")
    if bracket_witnesses:
        raise IncompatibleBracket("; ".join(bracket_witnesses))
    report.add("bracket-relation",
               "bracket equals the commutator of the recovered product", True)

    base = LSAlgebroid(coords, r, c, lie.anchor)
    base_axioms = check_left_symmetric(base)
    report.add("base-left-symmetric",
               "recovered product is left-symmetric", base_axioms.passed,
               [w for rec in base_axioms.records for w in rec.witnesses])

    # the semidirect product of the base by the dual representation
    total = _semidirect(base, base.c, r, dual.rho_mat, dual.mu_mat)
    total_axioms = check_left_symmetric(total)
    report.add("compatible-left-symmetric",
               "double carries the compatible left-symmetric structure",
               total_axioms.passed,
               [w for rec in total_axioms.records for w in rec.witnesses])

    matches = all(frame_commutator(total, i, j) == P.b[i][j]
                  for i in range(2 * r) for j in range(2 * r))
    report.add("sub-adjacent-matches",
               "commutator of the compatible structure is the phase-space "
               "bracket", matches)
    return PhaseCompatible(base, total, report)


@dataclass
class PhaseIso:
    Phi: PolyMatrix
    report: Report


def phase_iso_from_lsa_iso(a1: LSAlgebroid, a2: LSAlgebroid,
                           phi: PolyMatrix) -> PhaseIso:
    """Extend an isomorphism of left-symmetric algebroids to their phase
    spaces as the block map (phi, inverse transpose of phi)."""
    if not check_lsa_homomorphism(a1, a2, phi):
        raise NotIsomorphism("map is not a homomorphism of the structures")
    det = phi.det()
    if not det.is_constant():
        raise NonConstantDeterminant(f"determinant {det} is not constant")
    if det.is_zero():
        raise NotIsomorphism("map is not invertible")
    phase1 = build_phase_space(a1)
    return _phase_iso(phi, phase1,
                      phase1 if a2 is a1 else build_phase_space(a2))


def _phase_iso(phi: PolyMatrix, phase1: PhaseSpace,
               phase2: PhaseSpace) -> PhaseIso:
    """:func:`phase_iso_from_lsa_iso` for a homomorphism ``phi`` whose
    determinant is a nonzero constant, between the given phase spaces of
    its source and target."""
    r = phi.rows
    coords = phi.coords
    # (phi^T)^-1 = (phi^-1)^T, from the minors phi.det() left in phi's memo
    contragredient = matrix_inverse_adjugate(phi).transpose()
    blocks = [[phi.entry(i, j) if i < r and j < r else
               contragredient.entry(i - r, j - r) if i >= r and j >= r else
               Poly.zero(coords)
               for j in range(2 * r)] for i in range(2 * r)]
    Phi = PolyMatrix(coords, blocks)

    report = Report("phase space isomorphism")
    images = [Section(coords, Phi.column(i)) for i in range(2 * r)]

    anchor_ok = all(anchor_of_section(phase2.P, images[i]) ==
                    phase1.P.anchor[i] for i in range(2 * r))
    report.add("anchor-compatible", "anchors correspond under the map",
               anchor_ok)

    bracket_witnesses = []
    for i in range(2 * r):
        for j in range(i + 1, 2 * r):
            lhs = apply_endo(Phi, phase1.P.b[i][j])
            rhs = section_bracket(phase2.P, images[i], images[j])
            if lhs != rhs:
                bracket_witnesses.append(
                    f"(u_{i+1},u_{j+1}): Phi[u,v] = {lhs} but "
                    f"[Phi u, Phi v] = {rhs}")
    report.add("bracket-morphism", "map intertwines the phase-space brackets",
               not bracket_witnesses, bracket_witnesses)

    # Phi is laid out block-diagonal above
    report.add("maps-subbundles",
               "bundle part maps to bundle part, dual part to dual part",
               True)

    omega_witnesses = []
    for i in range(2 * r):
        for j in range(i + 1, 2 * r):
            lhs = phase1.omega.component((i, j))
            rhs = phase2.omega.evaluate([images[i], images[j]])
            if lhs != rhs:
                omega_witnesses.append(
                    f"(u_{i+1},u_{j+1}): omega_1 = {lhs} but pulled back "
                    f"omega_2 = {rhs}")
    report.add("omega-preserved", "pairing forms correspond under the map",
               not omega_witnesses, omega_witnesses)
    return PhaseIso(Phi, report)


# ---------------------------------------------------------------------------
# Paracomplex, quadratic and complex structures
# ---------------------------------------------------------------------------

def check_paracomplex(lie: LieAlgebroid, endo: PolyMatrix) -> bool:
    """Does the endomorphism square to the identity and satisfy
    E[x, y] = [Ex, y] + [x, Ey] - E[Ex, Ey] on frame pairs?  Once
    E^2 = id that concomitant is E applied to the Nijenhuis torsion, so
    the second condition is :func:`check_lie_nijenhuis`."""
    if endo.rows != lie.rank or endo.cols != lie.rank:
        raise DimensionMismatch("endomorphism shape mismatch")
    # E[x,y] - [Ex,y] - [x,Ey] + E[Ex,Ey] = E T(x, y) when E^2 = id
    return endo @ endo == PolyMatrix.identity(lie.rank, lie.coords) \
        and check_lie_nijenhuis(lie, endo)


def check_quadratic(alg: LSAlgebroid, form) -> Report:
    """Invariance of a symmetric form under left multiplication.

    Passes when (x.y, z) + (y, x.z) = anchor(x)(y, z) holds on frame
    triples and the determinant is a nonzero constant.  Positive
    definiteness is certified through leading principal minors for
    constant forms and reported as uncertified otherwise.  A
    non-constant determinant cannot certify nondegeneracy and raises.
    The determinant and the leading minors come from the form matrix's
    memo of minors, where a later inverse of the same matrix reads them.
    """
    matrix = _form_matrix(form)
    if matrix.rows != alg.rank or matrix.cols != alg.rank:
        raise DimensionMismatch("form shape does not match the bundle rank")
    every = tuple(range(matrix.rows))
    det = matrix._minor(every, every)
    if not det.is_constant():
        raise NonConstantDeterminant(
            f"determinant {det} is not constant; nondegeneracy uncertifiable")

    report = Report("quadratic structure")
    report.add("symmetric", "form matrix is symmetric",
               matrix == matrix.transpose())

    witnesses = []
    for i in range(alg.rank):
        for j in range(alg.rank):
            for k in range(alg.rank):
                left = Poly.zero(alg.coords)
                for m, comp in alg.c[i][j].terms.items():
                    left = left + comp * matrix.entry(m, k)
                for m, comp in alg.c[i][k].terms.items():
                    left = left + matrix.entry(j, m) * comp
                right = alg.anchor[i].apply(matrix.entry(j, k))
                if left != right:
                    witnesses.append(
                        f"(e_{i+1},e_{j+1},e_{k+1}): (x.y,z)+(y,x.z) = {left} "
                        f"but a(x)(y,z) = {right}")
    report.add("invariance",
               "(x.y, z) + (y, x.z) = anchor(x)(y, z) on frame triples",
               not witnesses, witnesses)

    report.add("nondegenerate", "determinant is a nonzero constant",
               not det.is_zero(),
               [] if not det.is_zero() else ["det = 0"])

    if matrix.is_constant():
        leading = [matrix._minor(every[:k], every[:k]).constant_value()
                   for k in range(1, matrix.rows + 1)]
        positive = all(m > 0 for m in leading)
        report.add("riemannian",
                   "form is positive definite (leading principal minors)",
                   "pass" if positive else "uncertified",
                   [] if positive else
                   [f"minor {k + 1} = {m}" for k, m in enumerate(leading)
                    if m <= 0])
    else:
        report.add("riemannian",
                   "form is positive definite (leading principal minors)",
                   "uncertified", ["form has non-constant entries"])
    return report


def _require_kernel_frame(alg: LSAlgebroid,
                          frame: Sequence[Section]) -> None:
    """Raise on the first frame section with a nonzero anchor image."""
    for sec in frame:
        if not anchor_of_section(alg, sec).is_zero():
            raise FrameNotInKernel(
                f"section {sec} has nonzero anchor image", witness=str(sec))


def quadratic_kernel_descend(alg: LSAlgebroid, form,
                             kernel_frame: Sequence[Section]) -> bool:
    """Does the form descend to a quadratic Lie algebroid structure on
    the span of the supplied kernel frame?

    Requires anti-commutativity of the product on kernel pairs and the
    bracket-invariance identity for frame sections against kernel pairs.
    """
    quad = check_quadratic(alg, form)
    if not quad.passed:
        raise NotQuadratic("the form is not a quadratic structure")
    matrix = _form_matrix(form)
    _require_kernel_frame(alg, kernel_frame)

    for x in kernel_frame:
        for y in kernel_frame:
            if not (section_mult(alg, x, y) + section_mult(alg, y, x)).is_zero():
                return False

    def pair(u: Section, v: Section) -> Poly:
        total = Poly.zero(alg.coords)
        for a, ua in u.terms.items():
            for b, vb in v.terms.items():
                total = total + ua * matrix.entry(a, b) * vb
        return total

    lie = sub_adjacent(alg)
    for i in range(alg.rank):
        x = alg.frame(i)
        for y in kernel_frame:
            for z in kernel_frame:
                lhs = alg.anchor[i].apply(pair(y, z))
                rhs = pair(section_bracket(lie, x, y), z) \
                    + pair(y, section_bracket(lie, x, z))
                if lhs != rhs:
                    return False
    return True


@dataclass
class ComplexStructure:
    J: PolyMatrix
    phase: PhaseSpace
    report: Report


def build_complex_structure(alg: LSAlgebroid, form) -> ComplexStructure:
    """Complex structure on the phase space induced by a quadratic form.

    J sends the bundle part through the form and the dual part through
    its inverse (with a sign).  The report verifies J^2 = -id,
    integrability, invariance of the pairing form and taming positivity
    (certified only for constant positive-definite forms); J
    anticommutes with the canonical paracomplex structure by its layout.
    """
    quad = check_quadratic(alg, form)
    if not quad.passed:
        raise NotQuadratic("the form is not a quadratic structure")
    return _complex_structure(alg, form, quad, build_phase_space(alg))


def _complex_structure(alg: LSAlgebroid, form, quad: Report,
                       phase: PhaseSpace) -> ComplexStructure:
    """:func:`build_complex_structure` from the passed quadratic report
    of ``form`` and the phase space of ``alg``."""
    matrix = _form_matrix(form)
    inverse = matrix_inverse_adjugate(matrix)
    r = alg.rank
    coords = alg.coords
    blocks = [[Poly.zero(coords) if (i < r) == (j < r) else
               (-(inverse.entry(i, j - r)) if i < r else matrix.entry(i - r, j))
               for j in range(2 * r)] for i in range(2 * r)]
    J = PolyMatrix(coords, blocks)

    P = phase.P
    report = Report("complex structure on the phase space")

    minus_id = PolyMatrix.identity(2 * r, coords).scale(-1)
    report.add("squares-to-minus-id", "J^2 = -id", J @ J == minus_id)

    # J[u,v] - [Ju,v] - [u,Jv] - J[Ju,Jv] = -J T(u, v), and J^2 = -id
    witnesses = [f"(u_{i+1},u_{j+1})" for i, j in _torsion_failures(P, J)]
    report.add("integrability",
               "J[u,v] = [Ju,v] + [u,Jv] + J[Ju,Jv] on frame pairs",
               not witnesses, witnesses)

    # J is block off-diagonal and P = diag(I, -I), so JP = -PJ
    report.add("anticommutes-paracomplex", "JP = -PJ", True)

    images = [Section(coords, J.column(i)) for i in range(2 * r)]
    omega_ok = all(phase.omega.evaluate([images[i], images[j]]) ==
                   phase.omega.component((i, j))
                   for i in range(2 * r) for j in range(i + 1, 2 * r))
    report.add("omega-invariance", "omega(Ju, Jv) = omega(u, v)", omega_ok)

    # omega(x + xi, J(x + xi)) = B(x, x) + B^-1(xi, xi): tamed iff B > 0
    positive = quad.record("riemannian").status == "pass"
    report.add("taming-positivity",
               "omega(u, Ju) is positive on nonzero sections",
               "pass" if positive else "uncertified",
               [] if positive else
               ["form is not positive definite" if matrix.is_constant()
                else "form has non-constant entries"])
    return ComplexStructure(J, phase, report)


# ---------------------------------------------------------------------------
# Kernel frames and their representations
# ---------------------------------------------------------------------------

def express_in_frame(frame: Sequence[Section], target: Section) -> list[Poly] | None:
    """Polynomial coordinates of a section in a polynomial frame.

    Works when the frame matrix has a square submatrix with a nonzero
    constant determinant (the solve stays polynomial); the candidate is
    verified symbolically and None is returned when the section lies
    outside the span.
    """
    return _frame_solver(frame)(target)


def _frame_solver(frame: Sequence[Section]):
    """``solve(target)`` for :func:`express_in_frame` on one frame: the
    invertible row subset and its inverse are found once, here."""
    if not frame:
        return lambda target: None if not target.is_zero() else []
    # column alpha is frame section alpha
    matrix = PolyMatrix(frame[0].coords,
                        [sec.components for sec in frame]).transpose()
    rows = find_constant_invertible_submatrix(matrix)
    if rows is None:
        raise FrameExpressionError(
            "frame admits no square submatrix with constant nonzero "
            "determinant; cannot solve polynomially")
    entries = matrix.entries
    inverse = matrix_inverse_adjugate(
        PolyMatrix(matrix.coords, [entries[i] for i in rows]))

    def solve(target: Section) -> list[Poly] | None:
        frame[0]._check(target)  # DimensionMismatch off the frame's bundle
        solution = inverse.matvec([target.components[i] for i in rows])
        if tuple(matrix.matvec(solution)) != target.components:
            return None
        return list(solution)
    return solve


def ideal_restriction_matrices(alg: LSAlgebroid,
                               kernel_frame: Sequence[Section]) \
        -> tuple[list[PolyMatrix], list[PolyMatrix]]:
    """Matrices of left and right multiplication restricted to the span
    of the kernel frame; raises when the span is not an ideal."""
    coords = alg.coords
    solve = _frame_solver(kernel_frame)
    left = []
    right = []
    for i in range(alg.rank):
        lcols = []
        rcols = []
        for k in kernel_frame:
            product = section_mult(alg, alg.frame(i), k)
            coeffs = solve(product)
            if coeffs is None:
                raise NotAnIdeal(
                    f"e_{i+1} * ({k}) = {product} escapes the frame span",
                    witness=str(product))
            lcols.append(coeffs)
            product = section_mult(alg, k, alg.frame(i))
            coeffs = solve(product)
            if coeffs is None:
                raise NotAnIdeal(
                    f"({k}) * e_{i+1} = {product} escapes the frame span",
                    witness=str(product))
            rcols.append(coeffs)
        left.append(PolyMatrix(coords, lcols).transpose())
        right.append(PolyMatrix(coords, rcols).transpose())
    return left, right


def kernel_representations(alg: LSAlgebroid,
                           kernel_frame: Sequence[Section]) -> Report:
    """Candidate representations on the span of a kernel frame.

    Always checks the bracket action (adjoint with zero right action);
    when the span is an ideal, also checks left multiplication paired
    with right multiplication.  Frame sections must be annihilated by
    the anchor.
    """
    kernel_frame = list(kernel_frame)
    _require_kernel_frame(alg, kernel_frame)
    report = Report("kernel representations")
    report.add("kernel-frame", "all frame sections are anchor-annihilated",
               True)
    if not kernel_frame:
        return report

    lie = sub_adjacent(alg)
    solve = _frame_solver(kernel_frame)
    s = len(kernel_frame)
    ad_cols: list[list[list[Poly]]] = []
    closes = True
    witness = ""
    for i in range(alg.rank):
        cols = []
        for k in kernel_frame:
            bracket = section_bracket(lie, alg.frame(i), k)
            coeffs = solve(bracket)
            if coeffs is None:
                closes = False
                witness = f"[e_{i+1}, {k}] = {bracket} escapes the frame span"
                break
            cols.append(coeffs)
        if not closes:
            break
        ad_cols.append(cols)
    report.add("ad-closes-on-frame",
               "bracket action preserves the span of the kernel frame",
               closes, [witness] if witness else [])
    if closes:
        ad_rep = Representation(s, [PolyMatrix(alg.coords, cols).transpose()
                                    for cols in ad_cols])
        report.add("ad-representation",
                   "(kernel; bracket action, 0) is a representation",
                   check_representation_lsa(alg, ad_rep))

    try:
        left, right = ideal_restriction_matrices(alg, kernel_frame)
    except NotAnIdeal as exc:
        report.add("ideal", "the span of the kernel frame is an ideal",
                   False, [str(exc)])
        return report
    report.add("ideal", "the span of the kernel frame is an ideal", True)
    lr_rep = Representation(s, left, right)
    report.add("left-right-representation",
               "(kernel; left multiplication, right multiplication) is a "
               "representation",
               check_representation_lsa(alg, lr_rep))
    return report
