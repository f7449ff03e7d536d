"""Central algebraic objects on trivial bundles.

Left-symmetric algebroids and Lie algebroids are stored through their
frame data: an r x r table of section products (or brackets) and one
anchor vector field per frame section.  A zero-dimensional base makes
every structure function a rational constant, so the same code covers
plain left-symmetric algebras.

Axioms are verified, never assumed: `check_left_symmetric` and
`check_lie_algebroid` return reports whose failure records print both
sides of every violated identity.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDegree,
    LsakitError,
    NotLeftSymmetric,
    NotPointCase,
)
from .polyring import (
    Poly,
    PolyMatrix,
    SparseModule,
    VectorField,
    _accumulate,
    _add_scaled,
    _index_tuple,
    _poly_value,
    sort_with_sign,
    vf_bracket,
)
from .report import Report


def _frame_index(index: int, rank: int) -> None:
    if not 0 <= index < rank:
        raise IndexOutOfRange(
            f"frame index {index} out of range for rank {rank}")


class Section(SparseModule):
    """Section of a trivial bundle: one polynomial per frame element,
    stored sparsely by frame index."""

    __slots__ = ("coords", "rank")

    def __init__(self, coords: Sequence[str], components: Sequence[Poly]):
        components = tuple(components)
        self._fill((tuple(coords), len(components)), enumerate(components))

    def _set_shape(self, shape: tuple) -> None:
        self.coords, self.rank = self._shape = shape

    @classmethod
    def zero(cls, coords: Sequence[str], rank: int) -> "Section":
        return cls._from((tuple(coords), rank), {})

    @classmethod
    def unit(cls, coords: Sequence[str], rank: int, index: int) -> "Section":
        _frame_index(index, rank)
        coords = tuple(coords)
        return cls._from((coords, rank), {index: Poly.constant(1, coords)})

    @property
    def components(self) -> tuple[Poly, ...]:
        return self._dense(self.rank)

    def extend(self, new_coords: Sequence[str]) -> "Section":
        return Section(new_coords,
                       [comp.extend(new_coords) for comp in self.components])

    def substitute(self, name: str, value) -> "Section":
        return Section(tuple(c for c in self.coords if c != name),
                       [comp.substitute(name, value)
                        for comp in self.components])

    def __str__(self):
        parts = []
        for k in sorted(self.terms):
            comp = self.terms[k]
            parts.append(f"e_{k + 1}" if comp == 1 else f"({comp})*e_{k + 1}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Section({self!s})"


def _matvec_into(out: dict, matrix: PolyMatrix, section: Section) -> None:
    if matrix.cols != section.rank:
        raise DimensionMismatch(
            f"{matrix.rows}x{matrix.cols} matrix applied to rank "
            f"{section.rank} section")
    matrix._apply_into(out, section.terms)


def apply_endo(matrix: PolyMatrix, section: Section) -> Section:
    """Apply a bundle map (matrix acting on frame components)."""
    out: dict = {}
    _matvec_into(out, matrix, section)
    return Section._from((section.coords, matrix.rows), out)


class FrameAlgebroid:
    """Shape shared by the algebroids on a trivial bundle: an r x r table
    of frame sections (products or brackets) and one anchor vector field
    per frame section."""

    __slots__ = ("coords", "rank", "anchor", "_frames")

    def _tables(self, coords, rank: int, table, anchor, what: str) -> tuple:
        """Validate and store the shape; returns the checked table."""
        coords = tuple(coords)
        if len(table) != rank or any(len(row) != rank for row in table):
            raise DimensionMismatch(f"{what} table must be {rank}x{rank}")
        rows = []
        for row in table:
            new_row = []
            for sec in row:
                if not isinstance(sec, Section):
                    sec = Section(coords, sec)
                if sec.coords != coords or sec.rank != rank:
                    raise DimensionMismatch(f"bad entry in {what} table")
                new_row.append(sec)
            rows.append(tuple(new_row))
        if len(anchor) != rank:
            raise DimensionMismatch(f"anchor needs {rank} vector fields")
        fields = []
        for field in anchor:
            if not isinstance(field, VectorField):
                field = VectorField(coords, field)
            if field.coords != coords:
                raise DimensionMismatch("anchor field over wrong coordinates")
            fields.append(field)
        self.coords, self.rank, self.anchor = coords, rank, tuple(fields)
        self._frames = None
        return tuple(rows)

    @property
    def n(self) -> int:
        return len(self.coords)

    def frame(self, i: int) -> Section:
        _frame_index(i, self.rank)
        frames = self._frames
        if frames is None:
            # filled once; a thread that races here stores equal sections
            frames = self._frames = tuple(
                Section.unit(self.coords, self.rank, k)
                for k in range(self.rank))
        return frames[i]

    def section(self, components) -> Section:
        return Section(self.coords, components)

    def zero_section(self) -> Section:
        return Section.zero(self.coords, self.rank)

    def is_point(self) -> bool:
        return self.n == 0


class LSAlgebroid(FrameAlgebroid):
    """Left-symmetric algebroid on a trivial bundle.

    ``c[i][j]`` is the product of frame sections i and j; ``anchor[i]``
    the vector field attached to frame section i.  The constructor only
    validates shapes; run :func:`check_left_symmetric` for the axioms.
    A zero-dimensional base (no coordinates) gives a plain
    left-symmetric algebra over the rationals.
    """

    __slots__ = ("c", "_axioms")

    def __init__(self, coords, rank: int, c, anchor):
        self.c = self._tables(coords, rank, c, anchor, "product")
        # check_left_symmetric stores its verdict here for the axiom gate
        self._axioms: bool | None = None


class LieAlgebroid(FrameAlgebroid):
    """Lie algebroid on a trivial bundle, stored via frame brackets.  The
    constructor refuses a table that is not skew-symmetric, so a reader
    of the pairs i < j reads the whole table."""

    __slots__ = ("b",)

    def __init__(self, coords, rank: int, b, anchor):
        self.b = self._tables(coords, rank, b, anchor, "bracket")
        for i, j in combinations_with_replacement(range(rank), 2):
            if not (self.b[i][j] + self.b[j][i]).is_zero():
                raise LsakitError(
                    f"bracket table is not skew-symmetric at (e_{i+1},"
                    f"e_{j+1}): {self.b[i][j]} vs -({self.b[j][i]})")


def _check_on_bundle(alg: FrameAlgebroid, *sections: Section) -> None:
    for section in sections:
        if section.rank != alg.rank or section.coords != alg.coords:
            raise DimensionMismatch("section does not live on this bundle")


def anchor_of_section(alg, section: Section) -> VectorField:
    """Anchor applied to a section (componentwise combination of the
    frame anchor fields)."""
    _check_on_bundle(alg, section)
    out: dict = {}
    for i, comp in section.terms.items():
        _add_scaled(out, alg.anchor[i], comp)
    return VectorField._from((alg.coords,), out)


def section_mult(alg: LSAlgebroid, left: Section, right: Section) -> Section:
    """Product of sections, extending the frame table by the two
    defining Leibniz rules."""
    _check_on_bundle(alg, left, right)
    out: dict = {}
    for i, f in left.terms.items():
        field, row = alg.anchor[i], alg.c[i]
        for j, g in right.terms.items():
            if not row[j].is_zero():
                _add_scaled(out, row[j], f * g)
            deriv = field.apply(g)
            if not deriv.is_zero():
                _accumulate(out, j, f * deriv)
    return left._like(out)


def section_bracket(alg: LieAlgebroid, left: Section, right: Section) -> Section:
    """Bracket of sections, extending the frame table by the Leibniz rule."""
    _check_on_bundle(alg, left, right)
    out: dict = {}
    for i, f in left.terms.items():
        for j, g in right.terms.items():
            if not alg.b[i][j].is_zero():
                _add_scaled(out, alg.b[i][j], f * g)
    left_field = anchor_of_section(alg, left)
    for j, g in right.terms.items():
        _accumulate(out, j, left_field.apply(g))
    right_field = anchor_of_section(alg, right)
    for i, f in left.terms.items():
        _accumulate(out, i, -right_field.apply(f))
    return left._like(out)


def associator(alg: LSAlgebroid, x: Section, y: Section, z: Section) -> Section:
    return section_mult(alg, section_mult(alg, x, y), z) \
        - section_mult(alg, x, section_mult(alg, y, z))


def frame_commutator(alg: LSAlgebroid, i: int, j: int) -> Section:
    return alg.c[i][j] - alg.c[j][i]


def check_left_symmetric(alg: LSAlgebroid) -> Report:
    """Verify the left-symmetric axioms on the frame.

    Two families of identities together imply the axioms on arbitrary
    sections: symmetry of the associator in its first two slots on all
    frame triples, and compatibility of the anchor with the commutator
    of the product (the associator defect is a bundle map only modulo
    the anchor identity, so both checks are required).

    The verdict is stored on ``alg``, so the axiom gate of every
    construction on it decides the axioms at most once while they hold.
    """
    report = _left_symmetric_report(_associator_failures(alg),
                                    _anchor_failures(alg, frame_commutator))
    alg._axioms = report.passed
    return report


def _associator_failures(alg: LSAlgebroid):
    """Frame triples (i, j, k), i < j, where the associator is not
    symmetric in its first two slots, with both sides.

    (e_i, e_j, e_k) = c_ij.e_k - e_i.c_jk, and the product is additive in
    its left argument, so the two associators agree iff
    (c_ij - c_ji).e_k = e_i.c_jk - e_j.c_ik: one product of the
    commutator per triple, and each e_a.c_bk (a != b) enters exactly one
    triple.  A product with a zero factor is zero and is not formed.
    Both associators are formed only for a failing triple."""
    zero = alg.zero_section()

    def mult(left: Section, right: Section) -> Section:
        return zero if left.is_zero() or right.is_zero() \
            else section_mult(alg, left, right)

    for i, j in combinations(range(alg.rank), 2):
        commutator = frame_commutator(alg, i, j)
        for k in range(alg.rank):
            if mult(commutator, alg.frame(k)) != \
                    mult(alg.frame(i), alg.c[j][k]) \
                    - mult(alg.frame(j), alg.c[i][k]):
                yield i, j, k, \
                    associator(alg, alg.frame(i), alg.frame(j), alg.frame(k)), \
                    associator(alg, alg.frame(j), alg.frame(i), alg.frame(k))


def _left_symmetric_report(failures, anchor_failures) -> Report:
    """``check_left_symmetric``'s records from its associator and anchor
    failures."""
    report = Report("left-symmetric axioms")
    witnesses = [f"(e_{i+1},e_{j+1},e_{k+1}): associator {lhs} != {rhs} "
                 f"(arguments swapped)" for i, j, k, lhs, rhs in failures]
    report.add("associator-symmetry",
               "associator symmetric in its first two arguments on all "
               "frame triples",
               not witnesses, witnesses)

    anchor_witnesses = [
        f"(e_{i+1},e_{j+1}): anchor(commutator) = {lhs} but "
        f"[anchor,anchor] = {rhs}"
        for i, j, lhs, rhs in anchor_failures]
    report.add("anchor-morphism",
               "anchor takes product commutators to vector-field brackets",
               not anchor_witnesses, anchor_witnesses)
    return report


def _anchor_failures(alg: FrameAlgebroid, bracket):
    """Frame pairs (i, j), i < j, where the anchor of the frame bracket
    ``bracket(alg, i, j)`` is not the bracket of the two anchor fields,
    with both sides."""
    for i, j in combinations(range(alg.rank), 2):
        lhs = anchor_of_section(alg, bracket(alg, i, j))
        rhs = vf_bracket(alg.anchor[i], alg.anchor[j])
        if lhs != rhs:
            yield i, j, lhs, rhs


def _require_left_symmetric(alg: LSAlgebroid) -> None:
    """The axiom gate of every construction: a stored passing verdict is
    trusted; otherwise the axioms are decided, and a failure raises with
    the full report."""
    if not alg._axioms:
        report = check_left_symmetric(alg)
        if not report.passed:
            raise NotLeftSymmetric(report=report)


def _jacobi_failures(alg: LieAlgebroid):
    """Witnesses of the frame Jacobi identity failing; the Jacobiator is
    alternating, so triples i < j < k decide it."""
    for i, j, k in combinations(range(alg.rank), 3):
        total = section_bracket(alg, alg.b[i][j], alg.frame(k)) \
            + section_bracket(alg, alg.b[j][k], alg.frame(i)) \
            + section_bracket(alg, alg.b[k][i], alg.frame(j))
        if not total.is_zero():
            yield f"(e_{i+1},e_{j+1},e_{k+1}): cyclic sum = {total}"


def check_lie_algebroid(alg: LieAlgebroid) -> Report:
    """Verify the frame Jacobi identity and the anchor bracket-morphism
    identity; skewness holds by construction."""
    return _lie_algebroid_report(
        list(_jacobi_failures(alg)),
        _anchor_failures(alg, lambda lie, i, j: lie.b[i][j]))


def _lie_algebroid_report(jacobi: list, anchor_failures) -> Report:
    """``check_lie_algebroid``'s records from its Jacobi witnesses and
    anchor failures."""
    report = Report("Lie algebroid axioms")
    # the LieAlgebroid constructor refuses a table that is not skew
    report.add("skew-symmetry", "bracket table is skew-symmetric", True)
    report.add("jacobi", "frame Jacobi identity", not jacobi, jacobi)
    anchor_witnesses = [
        f"(e_{i+1},e_{j+1}): anchor[e_i,e_j] = {lhs} but "
        f"[anchor,anchor] = {rhs}"
        for i, j, lhs, rhs in anchor_failures]
    report.add("anchor-morphism",
               "anchor is a bracket morphism to vector fields",
               not anchor_witnesses, anchor_witnesses)
    return report


def sub_adjacent(alg: LSAlgebroid) -> LieAlgebroid:
    """Lie algebroid with the commutator bracket and the same anchor."""
    _require_left_symmetric(alg)
    return _commutator_algebroid(alg)


def _commutator_algebroid(alg: LSAlgebroid) -> LieAlgebroid:
    """The commutator table with the same anchor; no axiom is checked."""
    b = [[frame_commutator(alg, i, j) for j in range(alg.rank)]
         for i in range(alg.rank)]
    return LieAlgebroid(alg.coords, alg.rank, b, alg.anchor)


# ---------------------------------------------------------------------------
# Representations (matrix part per frame section, derivation part along
# the anchor)
# ---------------------------------------------------------------------------

class Representation:
    """Action on a rank-s auxiliary bundle.

    ``rho_mat[i]`` is the matrix part of the covariant operator attached
    to frame section i; its derivation part always acts along the anchor
    field of that frame section.  ``mu_mat[i]`` is a plain bundle
    endomorphism with no derivation part.
    """

    __slots__ = ("s", "rho_mat", "mu_mat")

    def __init__(self, s: int, rho_mat: Sequence[PolyMatrix],
                 mu_mat: Sequence[PolyMatrix] | None = None):
        rho_mat = tuple(rho_mat)
        if mu_mat is None:
            mu_mat = [PolyMatrix.zeros(s, s, m.coords) for m in rho_mat]
        mu_mat = tuple(mu_mat)
        if len(mu_mat) != len(rho_mat):
            raise DimensionMismatch("rho and mu tables differ in length")
        for m in (*rho_mat, *mu_mat):
            if m.rows != s or m.cols != s:
                raise DimensionMismatch(f"representation matrices must be "
                                        f"{s}x{s}")
        self.s = s
        self.rho_mat = rho_mat
        self.mu_mat = mu_mat

    @property
    def rank_domain(self) -> int:
        return len(self.rho_mat)


def _at(mats: Sequence[PolyMatrix], x: Section, s: int) -> PolyMatrix:
    """X(x) = sum_k x^k X_k, the s x s matrix that a table of matrices
    gives at the section x."""
    out: dict = {}
    for k, comp in x.terms.items():
        _add_scaled(out, mats[k], comp)
    return PolyMatrix._from((x.coords, s, s), out)


def _along(field: VectorField, mat: PolyMatrix) -> PolyMatrix:
    """The vector field applied to every entry of the matrix."""
    applied = ((key, field.apply(entry)) for key, entry in mat.terms.items())
    return mat._like({key: v for key, v in applied if not v.is_zero()})


def rep_rho_frame(alg, rep: Representation, i: int, u: Section) -> Section:
    """rho of frame section i applied to a section of the auxiliary
    bundle: derivation along the anchor plus the matrix part."""
    field = alg.anchor[i]
    out: dict = {}
    for m, comp in u.terms.items():
        _accumulate(out, m, field.apply(comp))
    _matvec_into(out, rep.rho_mat[i], u)
    return u._like(out)


def rep_rho_section(alg, rep: Representation, x: Section, u: Section) -> Section:
    """rho of an arbitrary section (componentwise, rho is a bundle map)."""
    out: dict = {}
    for i, comp in x.terms.items():
        _add_scaled(out, rep_rho_frame(alg, rep, i, u), comp)
    return Section._from((u.coords, rep.s), out)


def rep_mu_frame(rep: Representation, j: int, u: Section) -> Section:
    return apply_endo(rep.mu_mat[j], u)


def build_left_mult_rep(alg: LSAlgebroid) -> Representation:
    """Left multiplication as a representation of the sub-adjacent Lie
    algebroid on the bundle itself."""
    _require_left_symmetric(alg)
    # column j of L_i is the product e_i.e_j
    return Representation(alg.rank, [
        PolyMatrix(alg.coords, [sec.components for sec in row]).transpose()
        for row in alg.c])


def check_lsa_homomorphism(a1: LSAlgebroid, a2: LSAlgebroid,
                           phi: PolyMatrix) -> bool:
    """Does phi intertwine the products and the anchors on the frame?"""
    if a1.coords != a2.coords:
        raise DimensionMismatch("different base coordinates")
    if phi.rows != a2.rank or phi.cols != a1.rank:
        raise DimensionMismatch(
            f"map must be {a2.rank}x{a1.rank}, got {phi.rows}x{phi.cols}")
    return next(_morphism_failures(a1, a2, phi), None) is None


def _morphism_failures(a1: LSAlgebroid, a2: LSAlgebroid, phi: PolyMatrix):
    """Where phi fails to intertwine: frame sections i with
    a2(phi e_i) != a1(e_i) as ``(i, None, lhs, rhs)``, then frame pairs
    with phi(e_i.e_j) != phi(e_i).phi(e_j) as ``(i, j, lhs, rhs)``."""
    images = [Section(a1.coords, phi.column(i)) for i in range(a1.rank)]
    for i in range(a1.rank):
        lhs = anchor_of_section(a2, images[i])
        if lhs != a1.anchor[i]:
            yield i, None, lhs, a1.anchor[i]
    for i in range(a1.rank):
        for j in range(a1.rank):
            lhs = apply_endo(phi, a1.c[i][j])
            rhs = section_mult(a2, images[i], images[j])
            if lhs != rhs:
                yield i, j, lhs, rhs


# ---------------------------------------------------------------------------
# Exterior form cochains and the Lie algebroid differential
# ---------------------------------------------------------------------------

class FormCochain(SparseModule):
    """Alternating multilinear form on frame sections, with polynomial
    values.  Components are stored on strictly increasing index tuples."""

    __slots__ = ("coords", "rank", "degree")

    def __init__(self, coords, rank: int, degree: int, comps: dict):
        if degree < 0:
            raise InvalidDegree("form degree must be non-negative")
        self._fill((tuple(coords), rank, degree), comps.items())

    def _set_shape(self, shape: tuple) -> None:
        self.coords, self.rank, self.degree = self._shape = shape

    def _entry(self, key, value):
        return (_index_tuple(key, self.rank, self.degree),
                _poly_value(value, self.coords))

    @classmethod
    def zero(cls, coords, rank: int, degree: int) -> "FormCochain":
        return cls(coords, rank, degree, {})

    def component(self, indices: Sequence[int]) -> Poly:
        value = self._lookup(indices)
        return Poly.zero(self.coords) if value is None else value

    def evaluate(self, sections: Sequence[Section]) -> Poly:
        """Full multilinear evaluation on arbitrary sections."""
        if len(sections) != self.degree:
            raise DimensionMismatch(
                f"degree {self.degree} form applied to {len(sections)} sections")
        total = Poly.zero(self.coords)
        for indices, coeff in _frame_expansion(sections, self.coords):
            value = self._lookup(indices)
            if value is not None:
                total = total + coeff * value
        return total


def _frame_expansion(sections: Sequence[Section], coords) \
        -> list[tuple[tuple[int, ...], Poly]]:
    """Multilinear expansion of ``sections`` in the frame: each index
    tuple with entry a in the support of sections[a], and the product of
    those components.  Tuples that repeat an index are left out, as both
    callers are alternating in these slots."""
    out = [((), Poly.constant(1, coords))]
    for sec in sections:
        out = [(indices + (i,), coeff * comp) for indices, coeff in out
               for i, comp in sec.terms.items() if i not in indices]
    return out


def _coboundary_terms(rank: int, degree: int, bracket):
    """Index and sign bookkeeping of every Chevalley-Eilenberg style
    differential: for each increasing ``degree``-tuple ``lead``, yields
    ``(lead, omitted, inserted)``.  ``omitted`` lists ``(sign, i_a, rest)``
    with sign (-1)^a for the argument at position a left out; ``inserted``
    lists ``(key, coeff)`` for each component c e_k of the bracket
    ``bracket(i_a, i_b)`` (a map k -> c, a < b) put in front of the rest,
    with ``key`` the sorted ``(k,) + rest`` and ``coeff`` c times
    (-1)^(a+b) and the sign of the sort."""
    for lead in combinations(range(rank), degree):
        omitted = [(-1 if a % 2 else 1, i_a, lead[:a] + lead[a + 1:])
                   for a, i_a in enumerate(lead)]
        inserted = []
        for a, b in combinations(range(degree), 2):
            rest = lead[:a] + lead[a + 1:b] + lead[b + 1:]
            for k, c in bracket(lead[a], lead[b]).items():
                key, sign = sort_with_sign((k,) + rest)
                if sign:
                    inserted.append(
                        (key, c if sign == (-1) ** (a + b) else -c))
        yield lead, omitted, inserted


def lie_form_d(alg: LieAlgebroid, form: FormCochain) -> FormCochain:
    """Coboundary of an alternating form: anchor terms on omitted
    arguments plus bracket insertions, with alternating signs."""
    if form.rank != alg.rank or form.coords != alg.coords:
        raise DimensionMismatch("form does not live on this algebroid")
    comps = {}
    for key, omitted, inserted in _coboundary_terms(
            alg.rank, form.degree + 1, lambda i, j: alg.b[i][j].terms):
        total = Poly.zero(alg.coords)
        for sign, i, rest in omitted:
            term = alg.anchor[i].apply(form.component(rest))
            total = total + term if sign > 0 else total - term
        for ins, coeff in inserted:
            value = form.terms.get(ins)
            if value is not None:
                total = total + coeff * value
        if not total.is_zero():
            comps[key] = total
    return FormCochain(alg.coords, alg.rank, form.degree + 1, comps)


# ---------------------------------------------------------------------------
# Point-case helpers
# ---------------------------------------------------------------------------

def check_lie_admissible(alg: LSAlgebroid) -> bool:
    """Is the product Lie-admissible, i.e. is its commutator a Lie
    bracket?  Decided by the frame Jacobi identity of the commutator
    table, for any product, left-symmetric or not.  Only meaningful over
    a zero-dimensional base."""
    if not alg.is_point():
        raise NotPointCase("Lie-admissibility check requires a point base")
    # sum over sigma of sgn(sigma) assoc(sigma(x, y, z)) = [[x,y],z] + cyclic
    return next(_jacobi_failures(_commutator_algebroid(alg)), None) is None
