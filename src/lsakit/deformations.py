"""One-parameter infinitesimal deformations and Nijenhuis operators.

A degree-2 multiderivation perturbs the product as x.y + t w(x, y) and
the anchor as a + t sigma_w; validity of the deformed structure for
every value of t is equivalent to a first-order cocycle condition
(which is exactly closedness in the deformation complex), a quadratic
condition saying that w is itself a left-symmetric product with anchor
sigma_w, and the anchor compatibilities of both.

A Nijenhuis operator N generates the trivial deformation w = dN: the
family id + tN maps the deformed structure onto the original one
(Nijenhuis-Richardson 1967).  So once the axioms and the Nijenhuis
condition hold, ``trivial_deformation`` writes every validity and
intertwining record as a pass by that proof, and decides none again.

The formal parameter of ``deformed_algebroid(..., FORMAL)`` is realized
as a genuine extra base coordinate that no anchor field differentiates,
so "for all t" statements become single polynomial identities.  A
rational t builds x.y + t w(x, y) and a + t sigma_w directly over the
original coordinates; nothing is substituted.
"""

from __future__ import annotations

from .cohomology import MultiDerivation, def_d
from .core import (
    LSAlgebroid,
    Section,
    _anchor_failures,
    _associator_failures,
    _left_symmetric_report,
    _require_left_symmetric,
    anchor_of_section,
    apply_endo,
    frame_commutator,
    section_mult,
)
from .errors import (
    DimensionMismatch,
    NotADeformation,
    NotNijenhuis,
)
from .polyring import Poly, PolyMatrix, VectorField, as_rational
from .report import Report

FORMAL = object()


def deformation_from_tables(coords, rank: int, values, symbols) \
        -> MultiDerivation:
    """Degree-2 multiderivation from an r x r table of value sections
    and a list of symbol fields (one per frame section)."""
    return MultiDerivation(
        coords, rank, 2,
        {((i,), j): values[i][j] for i in range(rank) for j in range(rank)},
        {(i,): symbols[i] for i in range(rank)})


def fresh_parameter(coords, base: str = "t") -> str:
    name = base
    while name in coords:
        name += "_"
    return name


def extend_algebroid(alg: LSAlgebroid, param: str) -> LSAlgebroid:
    """Lift to one extra base coordinate that no anchor differentiates."""
    new_coords = alg.coords + (param,)
    c = [[alg.c[i][j].extend(new_coords) for j in range(alg.rank)]
         for i in range(alg.rank)]
    anchor = [field.extend(new_coords) for field in alg.anchor]
    return LSAlgebroid(new_coords, alg.rank, c, anchor)


def check_deformation(alg: LSAlgebroid, omega: MultiDerivation) -> Report:
    """Full validity report for a candidate deformation.

    Records the first-order cocycle condition on values and symbols
    (the deformed associator and anchor identity at first order in the
    parameter), the quadratic self-product condition, the auxiliary
    instance (omega as product, its symbol as anchor) passing the
    left-symmetric axioms, and whether the deformation differential of
    omega vanishes.  The first-order condition is closedness: the two
    cocycle records are read off the values and the symbol of d(omega),
    computed once.
    """
    if omega.degree != 2 or omega.rank != alg.rank \
            or omega.coords != alg.coords:
        raise DimensionMismatch("candidate must be a degree-2 "
                                "multiderivation on this bundle")
    # in degree 2, d(omega) on (e_i, e_j; e_k) with i < j is the
    # seven-term first-order associator defect, and its symbol on
    # (e_i, e_j) the five-term first-order anchor defect
    differential = def_d(alg, omega)
    # w(w(x, y), z) - w(x, w(y, z)) is the associator of the auxiliary
    # instance: its failures on i < j and their mirrors are the witnesses
    aux = LSAlgebroid(alg.coords, alg.rank,
                      [[omega.value((i,), j) for j in range(alg.rank)]
                       for i in range(alg.rank)],
                      [omega.symbol((i,)) for i in range(alg.rank)])
    return _deformation_report(differential.values, differential.symbols,
                               list(_associator_failures(aux)),
                               _anchor_failures(aux, frame_commutator))


def _deformation_report(values: dict, symbols: dict, failures: list,
                        anchor_failures) -> Report:
    """``check_deformation``'s records from the values and the symbol of
    d(omega) and the associator and anchor failures of the auxiliary
    instance."""
    report = Report("deformation candidate")
    witnesses = [f"(e_{i+1},e_{j+1},e_{k+1}): first-order defect = {total}"
                 for ((i, j), k), total in values.items()]
    report.add("cocycle-values",
               "first-order associator condition on frame triples",
               not witnesses, witnesses[:5])
    sym_witnesses = [f"(e_{i+1},e_{j+1}): first-order anchor defect = {total}"
                     for (i, j), total in symbols.items()]
    report.add("cocycle-symbol",
               "first-order anchor condition on frame pairs",
               not sym_witnesses, sym_witnesses[:5])
    squares = sorted(failures + [(j, i, k, rhs, lhs)
                                 for i, j, k, lhs, rhs in failures],
                     key=lambda failure: failure[:3])
    report.add("square-product",
               "candidate is itself left-symmetric as a product",
               not squares, [f"(e_{i+1},e_{j+1},e_{k+1}): {lhs} != {rhs}"
                             for i, j, k, lhs, rhs in squares[:5]])
    report.merge(_left_symmetric_report(failures, anchor_failures),
                 prefix="aux-")
    report.add("closed-in-deformation-complex",
               "deformation differential of the candidate vanishes "
               "(values and symbol)", not values and not symbols)
    return report


def deformed_algebroid(alg: LSAlgebroid, omega: MultiDerivation, t,
                       param: str = "t") -> LSAlgebroid:
    """The deformed structure x.y + t w(x, y), a + t sigma_w at a
    rational parameter value, or over the parameter-extended coordinate
    ring when ``t`` is FORMAL."""
    if t is not FORMAL:
        t = as_rational(t)  # refuses a float or a bool before any check
    validity = check_deformation(alg, omega)
    if not validity.passed:
        raise NotADeformation(report=validity)
    if t is FORMAL:
        base = extend_algebroid(alg, fresh_parameter(alg.coords, param))
        scale = Poly.variable(base.coords[-1], base.coords)
    else:
        base, scale = alg, Poly.constant(t, alg.coords)
    coords, r = base.coords, alg.rank
    c = [[base.c[i][j] + omega.value((i,), j).extend(coords).scale(scale)
          for j in range(r)] for i in range(r)]
    anchor = [base.anchor[i] + omega.symbol((i,)).extend(coords).scale(scale)
              for i in range(r)]
    return LSAlgebroid(coords, r, c, anchor)


def check_nijenhuis(alg: LSAlgebroid, endo: PolyMatrix,
                    paper_literal: bool = False) -> bool:
    """Nijenhuis condition for a bundle endomorphism.

    The default evaluates
    N(x).N(y) - N(x.N(y)) - N(N(x).y) + N(N(x.y)) = 0
    on frame pairs; this expression is a bundle map in both slots, so
    frame checks decide it.  ``paper_literal`` instead decides the
    variant L(x, y) = N(x).N(y) - x.N(y) - N(x).y + N(N(x.y)), kept for
    auditing only.  L is function-linear in x but not in y, so it
    vanishes on all sections exactly when it vanishes on frame pairs and
    so does its symbol: L(x, g.y) - g.L(x, y) is
    a(Nx)(g)(Ny - y) - a(x)(g)(Ny - N^2 y).
    """
    if endo.rows != alg.rank or endo.cols != alg.rank:
        raise DimensionMismatch("endomorphism shape mismatch")
    images = [Section(alg.coords, endo.column(i)) for i in range(alg.rank)]
    for i in range(alg.rank):
        for j in range(alg.rank):
            first = section_mult(alg, images[i], images[j])
            inner_right = section_mult(alg, alg.frame(i), images[j])
            inner_left = section_mult(alg, images[i], alg.frame(j))
            last = apply_endo(endo, apply_endo(endo, alg.c[i][j]))
            if paper_literal:
                defect = first - inner_right - inner_left + last
            else:
                defect = first - apply_endo(endo, inner_right) \
                    - apply_endo(endo, inner_left) + last
            if not defect.is_zero():
                return False
    if paper_literal:
        # the symbol is a sum over mu of d(g)/dx^mu times a coefficient,
        # which must vanish for each mu; it is linear in x and y
        fields = [anchor_of_section(alg, image) for image in images]
        moved = [image - alg.frame(j) for j, image in enumerate(images)]
        kept = [image - apply_endo(endo, image) for image in images]
        for i in range(alg.rank):
            for j in range(alg.rank):
                for lhs, rhs in zip(fields[i].components,
                                    alg.anchor[i].components):
                    if moved[j].scale(lhs) != kept[j].scale(rhs):
                        return False
    return True


def trivial_deformation(alg: LSAlgebroid, endo: PolyMatrix) \
        -> tuple[MultiDerivation, Report]:
    """Deformation generated by a Nijenhuis operator, with the proof
    that it is trivial.

    The candidate is the deformation differential dN of the operator.
    Past the axiom gate (``NotLeftSymmetric``) and the Nijenhuis
    condition (``NotNijenhuis``) every record holds by its proof: the
    full deformation validity check, and the intertwining identities of
    the family id + tN over the formal parameter, which maps the
    deformed product to the original one and pulls the original anchor
    back to the deformed anchor.
    """
    _require_left_symmetric(alg)
    if not check_nijenhuis(alg, endo):
        raise NotNijenhuis("endomorphism fails the Nijenhuis condition")
    return def_d(alg, MultiDerivation.from_endomorphism(alg, endo)), \
        _trivial_report()


def _trivial_report() -> Report:
    """The records of ``trivial_deformation``, for a left-symmetric
    structure and a Nijenhuis operator N (Nijenhuis-Richardson 1967)."""
    report = Report("trivial deformation")
    # id + tN is invertible over Q(x, t) and maps x.y + t dN(x, y), with
    # anchor a + t a o N, onto the structure (below), so that deformed
    # structure is the original one transported: left-symmetric for
    # every t.  Its associator and anchor identities read at t^1 are the
    # cocycle records, so dN is closed, and at t^2 the square-product
    # and aux- records
    report.merge(_deformation_report({}, {}, [], ()))
    # at t^1, N(x.y) + dN(x, y) = Nx.y + x.Ny is the definition of dN;
    # at t^2, N dN(x, y) = Nx.Ny is the Nijenhuis identity
    report.add("intertwiner-product",
               "id + tN maps the deformed product to the original product",
               True)
    # a o (id + tN) = a + t a o N, and a(N e_i) is the symbol of dN on e_i
    report.add("intertwiner-anchor",
               "original anchor composed with id + tN is the deformed anchor",
               True)
    return report


def check_equivalence(alg: LSAlgebroid, omega: MultiDerivation,
                      omega_prime: MultiDerivation,
                      endo: PolyMatrix) -> Report:
    """Are the deformations generated by the two candidates equivalent
    through the family id + tN?

    Records the exactness condition (the difference is the differential
    of the endomorphism), the mixed compatibility identity, vanishing of
    the second candidate on the image of the endomorphism (values and
    symbol), and the anchor relation, the latter both directly and as
    derived from exactness.
    """
    report = Report("deformation equivalence")
    report.add("omega-valid", "first candidate is a deformation",
               check_deformation(alg, omega).passed)
    report.add("omega-prime-valid", "second candidate is a deformation",
               check_deformation(alg, omega_prime).passed)

    d_endo = def_d(alg, MultiDerivation.from_endomorphism(alg, endo))
    difference = omega - omega_prime
    exact_witnesses = []
    for i in range(alg.rank):
        for j in range(alg.rank):
            lhs = difference.value((i,), j)
            rhs = d_endo.value((i,), j)
            if lhs != rhs:
                exact_witnesses.append(
                    f"(e_{i+1},e_{j+1}): difference = {lhs} but "
                    f"d N = {rhs}")
    report.add("exactness",
               "difference of the candidates is the differential of the "
               "endomorphism", not exact_witnesses, exact_witnesses[:5])

    images = [Section(alg.coords, endo.column(i)) for i in range(alg.rank)]
    mixed_witnesses = []
    for i in range(alg.rank):
        for j in range(alg.rank):
            lhs = apply_endo(endo, omega.value((i,), j))
            rhs = omega_prime.evaluate([alg.frame(i), images[j]]) \
                + omega_prime.evaluate([images[i], alg.frame(j)]) \
                + section_mult(alg, images[i], images[j])
            if lhs != rhs:
                mixed_witnesses.append(
                    f"(e_{i+1},e_{j+1}): N w(x,y) = {lhs} but "
                    f"w'(x,Ny) + w'(Nx,y) + Nx.Ny = {rhs}")
    report.add("compatibility",
               "endomorphism intertwines the candidates up to the product "
               "of images", not mixed_witnesses, mixed_witnesses[:5])

    image_witnesses = []
    for i in range(alg.rank):
        for j in range(alg.rank):
            value = omega_prime.evaluate([images[i], images[j]])
            if not value.is_zero():
                image_witnesses.append(
                    f"(e_{i+1},e_{j+1}): w'(Nx,Ny) = {value}")
    report.add("image-values-vanish",
               "second candidate vanishes on image pairs",
               not image_witnesses, image_witnesses[:5])

    symbol_witnesses = []
    for i in range(alg.rank):
        total = VectorField.zero(alg.coords)
        for k, comp in images[i].terms.items():
            total = total + omega_prime.symbol((k,)).scale(comp)
        if not total.is_zero():
            symbol_witnesses.append(f"e_{i+1}: sigma'(N x) = {total}")
    report.add("image-symbol-vanishes",
               "symbol of the second candidate vanishes on the image",
               not symbol_witnesses, symbol_witnesses)

    # the symbol of d N on e_i is a(N e_i): one comparison, two records
    mismatches = []
    for i in range(alg.rank):
        difference_field = omega.symbol((i,)) - omega_prime.symbol((i,))
        direct = anchor_of_section(alg, images[i])
        if difference_field != direct:
            mismatches.append((i, difference_field, direct))
    for name, label, statement in (
            ("anchor-relation", "a(N x)", "symbol difference is the anchor "
             "composed with the endomorphism"),
            ("anchor-relation-derived", "symbol of d N", "the anchor relation "
             "also follows from exactness (symbol of the differential)")):
        report.add(name, statement, not mismatches,
                   [f"e_{i+1}: sigma - sigma' = {field} but {label} = {image}"
                    for i, field, image in mismatches])
    return report
