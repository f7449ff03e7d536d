"""Shared instance builders and independent oracles for the test suite."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, lcm

from lsakit.cohomology import (
    DegreeDims,
    MultiDerivation,
    PointCohomology,
    RepCochain,
    assemble_point_differential,
    cochain_basis,
    def_d,
    rep_d0,
)
from lsakit.constructions import (
    _semidirect,
    apply_O_operator,
    canonical_paracomplex,
    check_paracomplex,
    check_representation_lie,
    check_representation_lsa,
)
from lsakit.core import (
    FormCochain,
    LieAlgebroid,
    LSAlgebroid,
    Representation,
    Section,
    _at,
    _commutator_algebroid,
    anchor_of_section,
    apply_endo,
    check_left_symmetric,
    check_lie_algebroid,
    frame_commutator,
    rep_mu_frame,
    rep_rho_frame,
    rep_rho_section,
    section_bracket,
    section_mult,
    sub_adjacent,
)
from lsakit.errors import DimensionMismatch
from lsakit.multivector import (
    Multivector,
    _require_homogeneous,
    graded_product,
    left_symmetry_defect,
)
from lsakit.polyring import (
    Poly,
    PolyMatrix,
    VectorField,
    _add_scaled,
    matrix_inverse_adjugate,
    parse_poly,
    rational_kernel_and_rank,
    sort_with_sign,
    vf_bracket,
)


def flat_instance() -> LSAlgebroid:
    """Rank-2 bundle over two coordinates: zero products, anchor sends
    frame section i to the i-th coordinate field."""
    coords = ("x", "y")
    zero = Section.zero(coords, 2)
    c = [[zero, zero], [zero, zero]]
    anchor = [
        VectorField(coords, (Poly.constant(1, coords), Poly.zero(coords))),
        VectorField(coords, (Poly.zero(coords), Poly.constant(1, coords))),
    ]
    return LSAlgebroid(coords, 2, c, anchor)


def point_algebra(rank: int, products: dict) -> LSAlgebroid:
    """Left-symmetric algebra (zero-dimensional base) from a sparse map
    (i, j) -> component list."""
    coords = ()
    c = [[Section.zero(coords, rank) for _ in range(rank)]
         for _ in range(rank)]
    for (i, j), comps in products.items():
        c[i][j] = Section(coords, [Fraction(v) for v in comps])
    anchor = [VectorField.zero(coords) for _ in range(rank)]
    return LSAlgebroid(coords, rank, c, anchor)


def point_e1e2() -> LSAlgebroid:
    """The rank-2 algebra with e_1 * e_2 = e_2 and all other products zero."""
    return point_algebra(2, {(0, 1): [0, 1]})


def sum_of_e1e2(copies):
    """Direct sum of ``copies`` copies of point_e1e2."""
    rank = 2 * copies
    return point_algebra(rank, {
        (2 * b, 2 * b + 1): [1 if p == 2 * b + 1 else 0 for p in range(rank)]
        for b in range(copies)})


def zero_point_algebra(rank: int = 2) -> LSAlgebroid:
    return point_algebra(rank, {})


def nonexample() -> LSAlgebroid:
    """e_1 * e_1 = e_2, e_2 * e_2 = e_1: fails associator symmetry."""
    return point_algebra(2, {(0, 0): [0, 1], (1, 1): [1, 0]})


def action_instance() -> LSAlgebroid:
    """Rank 1 over one coordinate: e * e = e, anchor x d/dx."""
    coords = ("x",)
    c = [[Section(coords, [Poly.constant(1, coords)])]]
    anchor = [VectorField(coords, (parse_poly("x", coords),))]
    return LSAlgebroid(coords, 1, c, anchor)


def ladder_instance() -> LSAlgebroid:
    """Rank 2 over one coordinate: e_1 * e_2 = e_2, anchor(e_1) = d/dx,
    anchor(e_2) = 0."""
    coords = ("x",)
    zero = Section.zero(coords, 2)
    e2 = Section(coords, [Poly.zero(coords), Poly.constant(1, coords)])
    c = [[zero, e2], [zero, zero]]
    anchor = [VectorField(coords, (Poly.constant(1, coords),)),
              VectorField.zero(coords)]
    return LSAlgebroid(coords, 2, c, anchor)


def reframed(alg: LSAlgebroid, P: PolyMatrix) -> LSAlgebroid:
    """``alg`` in the frame b_i = P e_i, for P with a nonzero constant
    determinant: products P^-1(b_i.b_j), anchors a(b_i).  Left-symmetric
    iff ``alg`` is, with mostly nonzero products."""
    inverse = matrix_inverse_adjugate(P)
    b = [Section(alg.coords, P.column(i)) for i in range(alg.rank)]
    return LSAlgebroid(
        alg.coords, alg.rank,
        [[apply_endo(inverse, section_mult(alg, b[i], b[j]))
          for j in range(alg.rank)] for i in range(alg.rank)],
        [anchor_of_section(alg, b[i]) for i in range(alg.rank)])


def unit_point_algebra(rank: int) -> LSAlgebroid:
    """e_1 a two-sided unit, every other product zero: associative."""
    return point_algebra(rank, {
        **{(0, k): [int(m == k) for m in range(rank)] for k in range(rank)},
        **{(k, 0): [int(m == k) for m in range(rank)] for k in range(rank)}})


def flat_line_rank2() -> LSAlgebroid:
    """Rank 2 over one coordinate with zero products, anchor(e_1) = d/dx."""
    coords = ("x",)
    zero = Section.zero(coords, 2)
    c = [[zero, zero], [zero, zero]]
    anchor = [VectorField(coords, (Poly.constant(1, coords),)),
              VectorField.zero(coords)]
    return LSAlgebroid(coords, 2, c, anchor)


def random_poly(rng: random.Random, coords, max_degree: int = 2,
                max_terms: int = 3) -> Poly:
    n = len(coords)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * n
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            if n == 0:
                break
            exps[rng.randrange(n)] += 1
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Poly(coords, terms)


def random_section(rng: random.Random, alg, max_degree: int = 2) -> Section:
    return Section(alg.coords,
                   [random_poly(rng, alg.coords, max_degree)
                    for _ in range(alg.rank)])


def random_esection(rng: random.Random, coords, s: int,
                    max_degree: int = 2) -> Section:
    return Section(coords,
                   [random_poly(rng, coords, max_degree) for _ in range(s)])


def random_algebroid(rng: random.Random, coords, rank: int,
                     max_degree: int = 1) -> LSAlgebroid:
    """Random product and anchor tables with no axiom imposed (almost
    never left-symmetric)."""
    return LSAlgebroid(
        coords, rank,
        [[random_esection(rng, coords, rank, max_degree)
          for _ in range(rank)] for _ in range(rank)],
        [VectorField(coords, [random_poly(rng, coords, max_degree)
                              for _ in coords]) for _ in range(rank)])


def _monomials(coords, max_degree: int) -> list[Poly]:
    out = sorted((e for e in product(range(max_degree + 1), repeat=len(coords))
                  if sum(e) <= max_degree), key=lambda e: (sum(e), e))
    return [Poly(coords, {exps: 1}) for exps in out]


def sample_generators(alg, spec) -> list[Multivector]:
    """Wedge monomials with monomial coefficients up to the bounds of a
    ``GradedSampleSpec``: the sample the graded oracles draw from."""
    gens = []
    for mono in _monomials(alg.coords, spec.max_coeff_degree):
        for grade in range(1, min(spec.max_grade, alg.rank) + 1):
            for key in combinations(range(alg.rank), grade):
                gens.append(Multivector.basis_wedge(alg.coords, alg.rank,
                                                    key, mono))
    return gens


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def six_term_admissibility_oracle(alg: LSAlgebroid) -> bool:
    """Direct six-term alternating sum of products on basis triples,
    written without the library's associator helper."""
    r = alg.rank

    def prod(i, j):
        return alg.c[i][j]

    def prod_sec(sec: Section, k: int) -> Section:
        out = Section.zero(alg.coords, r)
        for m, comp in enumerate(sec.components):
            out = out + prod(m, k).scale(comp)
        return out

    # point case only: products of constant sections need no derivations
    def assoc_direct(i, j, k):
        left = prod_sec(prod(i, j), k)
        inner = prod(j, k)
        right = Section.zero(alg.coords, r)
        for m, comp in enumerate(inner.components):
            right = right + prod(i, m).scale(comp)
        return left - right

    for i in range(r):
        for j in range(r):
            for k in range(r):
                total = assoc_direct(i, j, k) - assoc_direct(j, i, k) \
                    + assoc_direct(j, k, i) - assoc_direct(k, j, i) \
                    + assoc_direct(k, i, j) - assoc_direct(i, k, j)
                if not total.is_zero():
                    return False
    return True


def paracomplex_concomitant_oracle(lie: LieAlgebroid, endo) -> list:
    """Frame pairs where E[x, y] = [Ex, y] + [x, Ey] - E[Ex, Ey] fails,
    evaluated directly: the paracomplex integrability loop the library
    used before it decided the identity through the Nijenhuis torsion."""
    images = [Section(lie.coords, endo.column(i)) for i in range(lie.rank)]
    failing = []
    for i in range(lie.rank):
        for j in range(i + 1, lie.rank):
            lhs = apply_endo(endo, lie.b[i][j])
            rhs = section_bracket(lie, images[i], lie.frame(j)) \
                + section_bracket(lie, lie.frame(i), images[j]) \
                - apply_endo(endo, section_bracket(lie, images[i], images[j]))
            if lhs != rhs:
                failing.append((i, j))
    return failing


def complex_integrability_oracle(lie: LieAlgebroid, J) -> list:
    """Frame pairs where J[u, v] = [Ju, v] + [u, Jv] + J[Ju, Jv] fails,
    evaluated directly: the complex-structure integrability loop the
    library used before it decided the identity through the Nijenhuis
    torsion."""
    images = [Section(lie.coords, J.column(i)) for i in range(lie.rank)]
    failing = []
    for i in range(lie.rank):
        for j in range(i + 1, lie.rank):
            lhs = apply_endo(J, lie.b[i][j])
            rhs = section_bracket(lie, images[i], lie.frame(j)) \
                + section_bracket(lie, lie.frame(i), images[j]) \
                + apply_endo(J, section_bracket(lie, images[i], images[j]))
            if lhs != rhs:
                failing.append((i, j))
    return failing


def representation_lie_oracle(lie: LieAlgebroid, rep) -> bool:
    """rho([e_i, e_j])u = rho(e_i)rho(e_j)u - rho(e_j)rho(e_i)u on frame
    pairs and the unit sections u of the auxiliary bundle, through
    Section round trips: the library's check before it compared
    matrices."""
    units = [Section.unit(lie.coords, rep.s, m) for m in range(rep.s)]
    for i in range(lie.rank):
        for j in range(i + 1, lie.rank):
            for u in units:
                lhs = rep_rho_section(lie, rep, lie.b[i][j], u)
                rhs = rep_rho_frame(lie, rep, i, rep_rho_frame(lie, rep, j, u)) \
                    - rep_rho_frame(lie, rep, j, rep_rho_frame(lie, rep, i, u))
                if lhs != rhs:
                    return False
    return True


def representation_lsa_oracle(alg: LSAlgebroid, rep) -> bool:
    """The Lie oracle on the sub-adjacent algebroid plus the coupling
    identity rho(x)mu(y)u - mu(y)rho(x)u = mu(x.y)u - mu(y)mu(x)u on
    frame pairs and unit sections u, through Section round trips."""
    if not representation_lie_oracle(sub_adjacent(alg), rep):
        return False
    units = [Section.unit(alg.coords, rep.s, m) for m in range(rep.s)]
    for i in range(alg.rank):
        for j in range(alg.rank):
            for u in units:
                lhs = rep_rho_frame(alg, rep, i, rep_mu_frame(rep, j, u)) \
                    - rep_mu_frame(rep, j, rep_rho_frame(alg, rep, i, u))
                rhs = -rep_mu_frame(rep, j, rep_mu_frame(rep, i, u))
                for k, comp in alg.c[i][j].terms.items():
                    rhs = rhs + rep_mu_frame(rep, k, u).scale(comp)
                if lhs != rhs:
                    return False
    return True


def deformation_cocycle_oracle(alg: LSAlgebroid, omega) -> tuple[list, list]:
    """Witnesses of the first-order associator condition on frame
    triples and of the first-order anchor condition on frame pairs, from
    the seven-term and five-term sums written out: the loops
    ``check_deformation`` ran before it read both off d(omega)."""
    frames = [alg.frame(i) for i in range(alg.rank)]

    def w(x: Section, y: Section) -> Section:
        return omega.evaluate([x, y])

    witnesses = []
    for i in range(alg.rank):
        for j in range(i + 1, alg.rank):
            for k in range(alg.rank):
                x, y, z = frames[i], frames[j], frames[k]
                total = section_mult(alg, x, w(y, z)) \
                    - section_mult(alg, y, w(x, z)) \
                    + section_mult(alg, w(y, x), z) \
                    - section_mult(alg, w(x, y), z) \
                    - w(y, section_mult(alg, x, z)) \
                    + w(x, section_mult(alg, y, z)) \
                    - w(frame_commutator(alg, i, j), z)
                if not total.is_zero():
                    witnesses.append(
                        f"(e_{i+1},e_{j+1},e_{k+1}): first-order defect "
                        f"= {total}")

    sym_witnesses = []
    for i in range(alg.rank):
        for j in range(i + 1, alg.rank):
            total = vf_bracket(alg.anchor[i], omega.symbol((j,))) \
                - vf_bracket(alg.anchor[j], omega.symbol((i,))) \
                - anchor_of_section(alg, omega.value((i,), j)) \
                + anchor_of_section(alg, omega.value((j,), i))
            bracket = frame_commutator(alg, i, j)
            for k, comp in bracket.terms.items():
                total = total - omega.symbol((k,)).scale(comp)
            if not total.is_zero():
                sym_witnesses.append(
                    f"(e_{i+1},e_{j+1}): first-order anchor defect = {total}")
    return witnesses, sym_witnesses


def o_operator_homomorphism_oracle(lie: LieAlgebroid, T, induced) -> bool:
    """Does T map the commutator of the induced product to the bracket
    on frame pairs?  The loop ``apply_O_operator`` ran for
    ``T_homomorphism`` before it took the value from its witness loop."""
    images = [Section(lie.coords, T.column(m)) for m in range(induced.rank)]
    for i in range(induced.rank):
        for j in range(i + 1, induced.rank):
            mapped = apply_endo(T, induced.c[i][j] - induced.c[j][i])
            if mapped != section_bracket(lie, images[i], images[j]):
                return False
    return True


def _embed(section: Section, total: int, offset: int) -> Section:
    zero = Poly.zero(section.coords)
    return Section(section.coords,
                   [zero] * offset + list(section.components)
                   + [zero] * (total - offset - section.rank))


def semidirect_lie_oracle(lie: LieAlgebroid, rep) -> LieAlgebroid:
    """The semidirect bracket table laid out entry by entry, with no
    check: [e_i, u_m] = rho(e_i)u_m = -[u_m, e_i]."""
    r, s = lie.rank, rep.s
    total = r + s
    coords = lie.coords
    zero = Section.zero(coords, total)
    b = [[zero for _ in range(total)] for _ in range(total)]
    units = [Section.unit(coords, s, m) for m in range(s)]
    for i in range(r):
        for j in range(r):
            b[i][j] = _embed(lie.b[i][j], total, 0)
    for i in range(r):
        for m in range(s):
            image = _embed(rep_rho_frame(lie, rep, i, units[m]), total, r)
            b[i][r + m] = image
            b[r + m][i] = -image
    anchor = list(lie.anchor) + [VectorField.zero(coords) for _ in range(s)]
    return LieAlgebroid(coords, total, b, anchor)


def semidirect_lsa_oracle(alg: LSAlgebroid, rep) -> LSAlgebroid:
    """The semidirect product table laid out entry by entry, with no
    check: e_i.u_m = rho(e_i)u_m and u_m.e_j = mu(e_j)u_m."""
    r, s = alg.rank, rep.s
    total = r + s
    coords = alg.coords
    zero = Section.zero(coords, total)
    c = [[zero for _ in range(total)] for _ in range(total)]
    units = [Section.unit(coords, s, m) for m in range(s)]
    for i in range(r):
        for j in range(r):
            c[i][j] = _embed(alg.c[i][j], total, 0)
    for i in range(r):
        for m in range(s):
            c[i][r + m] = _embed(rep_rho_frame(alg, rep, i, units[m]), total, r)
    for j in range(r):
        for m in range(s):
            c[r + m][j] = _embed(rep_mu_frame(rep, j, units[m]), total, r)
    anchor = list(alg.anchor) + [VectorField.zero(coords) for _ in range(s)]
    return LSAlgebroid(coords, total, c, anchor)


def frame_data(alg) -> tuple:
    """Everything that defines an algebroid on a trivial bundle."""
    table = alg.c if isinstance(alg, LSAlgebroid) else alg.b
    return alg.coords, alg.rank, table, alg.anchor


def two_form_d_oracle(alg: LieAlgebroid, form: FormCochain,
                      i: int, j: int, k: int) -> Poly:
    """Six-term coboundary formula for 2-forms, evaluated directly."""
    frames = [alg.frame(m) for m in range(alg.rank)]

    def w(a: Section, b: Section) -> Poly:
        return form.evaluate([a, b])

    x, y, z = frames[i], frames[j], frames[k]
    ax = anchor_of_section(alg, x)
    ay = anchor_of_section(alg, y)
    az = anchor_of_section(alg, z)
    return (ax.apply(w(y, z)) - ay.apply(w(x, z)) + az.apply(w(x, y))
            - w(section_bracket(alg, x, y), z)
            + w(section_bracket(alg, x, z), y)
            - w(section_bracket(alg, y, z), x))


def dense_kernel_oracle(matrix, cols=None):
    """Dense Gauss-Jordan rank and kernel basis: the library's former
    ``rational_kernel_and_rank``, kept as the reference for its sparse
    integer elimination (both read the basis off the unique reduced
    row echelon form)."""
    # Fraction entries, so that the pivot division below stays exact
    rows = [list(map(Fraction, row)) for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else (cols or 0)
    for row in rows:
        if len(row) != ncols:
            raise DimensionMismatch("ragged matrix rows")

    mat = [row[:] for row in rows]
    pivot_cols: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(col)
        r += 1
        if r == nrows:
            break

    rank = len(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, pcol in enumerate(pivot_cols):
            vec[pcol] = -mat[row_idx][free]
        basis.append(tuple(vec))
    return rank, basis


def c0_condition_oracle(alg: LSAlgebroid, rep) -> list[list[Fraction]]:
    """The degree-zero membership condition over a point as a rational
    matrix, one row per defect component of rho(e_i)rho(e_j)u -
    rho(e_i.e_j)u, read off Section round trips on the unit vectors u."""
    rows = []
    for i in range(alg.rank):
        for j in range(alg.rank):
            images = []
            for m in range(rep.s):
                unit = Section((), [1 if p == m else 0 for p in range(rep.s)])
                lhs = rep_rho_frame(alg, rep, i,
                                    rep_rho_frame(alg, rep, j, unit))
                rhs = rep_rho_section(alg, rep, alg.c[i][j], unit)
                defect = lhs - rhs
                images.append([comp.constant_value()
                               for comp in defect.components])
            # one linear condition per defect component
            for comp in range(rep.s):
                rows.append([images[m][comp] for m in range(rep.s)])
    return rows


def c0_basis_oracle(alg: LSAlgebroid, rep) -> list[tuple[Fraction, ...]]:
    """Kernel basis of :func:`c0_condition_oracle` (all of E when there
    are no conditions)."""
    return rational_kernel_and_rank(c0_condition_oracle(alg, rep),
                                    cols=rep.s)[1]


def dense_point_dims(alg: LSAlgebroid, rep, n_max: int) -> PointCohomology:
    """Point cohomology dimensions the dense way: a kernel basis of the
    c0 condition, the image of each basis vector under ``rep_d0``, and
    ``rational_kernel_and_rank`` of every dense
    ``assemble_point_differential`` matrix."""
    c0_basis = c0_basis_oracle(alg, rep)
    keys = cochain_basis(alg.rank, rep.s, 1)
    d0_rows = [[] for _ in keys]
    for vec in c0_basis:
        image = rep_d0(alg, rep, Section((), list(vec)))
        for row, (lead, last, m) in zip(d0_rows, keys):
            row.append(image.component(lead, last).components[m]
                       .constant_value())
    d0_rank, d0_kernel = rational_kernel_and_rank(d0_rows,
                                                  cols=len(c0_basis))
    degrees = []
    previous_rank = d0_rank
    for k in range(1, min(n_max, alg.rank + 1) + 1):
        matrix, domain, _ = assemble_point_differential(alg, rep, k)
        rank, kernel = rational_kernel_and_rank(matrix, cols=len(domain))
        degrees.append(DegreeDims(k, len(domain), len(kernel), previous_rank,
                                  len(kernel) - previous_rank))
        previous_rank = rank
    return PointCohomology(len(c0_basis), len(d0_kernel), degrees)


def ce_point_dims(alg: LSAlgebroid, rep) -> list[int]:
    """dim H^k(g; W) for k = 0..rank, by the textbook Chevalley-Eilenberg
    differential of the sub-adjacent Lie algebra g of a point-base
    algebra with values in W = Hom(E, V), on which e_i acts by

        (e_i.f)(e_b) = rho_i f(e_b) + mu_b f(e_i) - f(e_i.e_b).

    W has the basis f(e_b) = v_m at index b * s + m; each differential
    is a dense rational matrix ranked by ``rational_kernel_and_rank``.
    Asserts that W is a g-module, A([e_i, e_j]) = [A_i, A_j] on the rs x
    rs action matrices A_i, so that the complex is one."""
    r, s = alg.rank, rep.s
    w = r * s
    rho = [m.to_rational() for m in rep.rho_mat]
    mu = [m.to_rational() for m in rep.mu_mat]
    prod = [[[comp.constant_value() for comp in alg.c[i][j].components]
              for j in range(r)] for i in range(r)]
    bracket = [[[a - b for a, b in zip(prod[i][j], prod[j][i])]
                for j in range(r)] for i in range(r)]

    def action(i):
        a = [[Fraction(0)] * w for _ in range(w)]
        for b in range(r):
            for m in range(s):
                row = a[b * s + m]
                for p in range(s):
                    row[b * s + p] += rho[i][m][p]
                    row[i * s + p] += mu[b][m][p]
                for k in range(r):
                    row[k * s + m] -= prod[i][b][k]
        return a

    def times(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(w)) for j in range(w)]
                for i in range(w)]

    act = [action(i) for i in range(r)]
    for i, j in combinations(range(r), 2):
        image = [[sum(c * act[k][y][x] for k, c in enumerate(bracket[i][j]))
                  for x in range(w)] for y in range(w)]
        assert image == [[a - b for a, b in zip(*rows)] for rows in
                         zip(times(act[i], act[j]), times(act[j], act[i]))]

    def rank_of_d(k):
        """Rank of d: Hom(wedge^k g, W) -> Hom(wedge^(k+1) g, W),
        (d w)(x_0..x_k) = sum_a (-1)^a x_a.w(.. no x_a ..)
            + sum_{a<b} (-1)^(a+b) w([x_a, x_b], .. no x_a, x_b ..)."""
        domain = {key: n * w
                  for n, key in enumerate(combinations(range(r), k))}
        codomain = list(combinations(range(r), k + 1))
        matrix = [[Fraction(0)] * (len(domain) * w)
                  for _ in range(len(codomain) * w)]
        for n, lead in enumerate(codomain):
            top = n * w
            for a, i in enumerate(lead):
                start = domain[lead[:a] + lead[a + 1:]]
                for y in range(w):
                    for x in range(w):
                        matrix[top + y][start + x] += (-1) ** a * act[i][y][x]
            for a, b in combinations(range(k + 1), 2):
                rest = lead[:a] + lead[a + 1:b] + lead[b + 1:]
                for c, coeff in enumerate(bracket[lead[a]][lead[b]]):
                    if coeff and c not in rest:
                        key, sign = sort_with_sign((c, *rest))
                        for x in range(w):
                            matrix[top + x][domain[key] + x] += \
                                (-1) ** (a + b) * sign * coeff
        return rational_kernel_and_rank(matrix, cols=len(domain) * w)[0]

    ranks = [rank_of_d(k) for k in range(r + 1)]
    return [comb(r, k) * w - ranks[k] - (ranks[k - 1] if k else 0)
            for k in range(r + 1)]


# ---------------------------------------------------------------------------
# The differentials with their own index and sign bookkeeping: the loops
# ---------------------------------------------------------------------------
# Multilinear evaluation as it ran before both classes expanded over the
# supports of their arguments
# ---------------------------------------------------------------------------

def form_evaluate_oracle(form: FormCochain, sections) -> Poly:
    """FormCochain.evaluate as a signed sum over the permutations of
    each stored index tuple."""
    total = Poly.zero(form.coords)
    for key, value in form.terms.items():
        for perm in permutations(range(len(key))):
            _, sign = sort_with_sign(perm)
            coeff = Poly.constant(sign, form.coords)
            for sec, p in zip(sections, perm):
                factor = sec.terms.get(key[p])
                if factor is None:
                    break
                coeff = coeff * factor
            else:
                total = total + coeff * value
    return total


def cochain_evaluate_oracle(cochain: RepCochain, sections) -> Section:
    """RepCochain.evaluate (and a multiderivation's) as a loop over every
    frame tuple of the leading slots."""
    total = Section.zero(cochain.coords, cochain.s)
    for idx in product(range(cochain.rank), repeat=cochain.degree - 1):
        coeff = Poly.constant(1, cochain.coords)
        for sec, i in zip(sections, idx):
            factor = sec.terms.get(i)
            if factor is None:
                break
            coeff = coeff * factor
        else:
            total = total + cochain.evaluate_last(idx, sections[-1]) \
                .scale(coeff)
    return total


# lie_form_d, rep_d, def_d and the point-case rows ran before they took
# their terms from core._coboundary_terms
# ---------------------------------------------------------------------------

def lie_form_d_oracle(alg: LieAlgebroid, form: FormCochain) -> FormCochain:
    k = form.degree
    comps = {}
    for key in combinations(range(alg.rank), k + 1):
        total = Poly.zero(alg.coords)
        for pos, i in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            term = alg.anchor[i].apply(form.component(rest))
            if not term.is_zero():
                total = total + term if pos % 2 == 0 else total - term
        for pos_a, pos_b in combinations(range(k + 1), 2):
            i, j = key[pos_a], key[pos_b]
            rest = tuple(key[p] for p in range(k + 1)
                         if p not in (pos_a, pos_b))
            term = Poly.zero(alg.coords)
            for m, comp in alg.b[i][j].terms.items():
                value = form._lookup((m,) + rest)
                if value is not None:
                    term = term + comp * value
            if not term.is_zero():
                total = total - term if (pos_a + pos_b) % 2 == 1 else total + term
        if not total.is_zero():
            comps[key] = total
    return FormCochain(alg.coords, alg.rank, k + 1, comps)


def rep_d_oracle(alg: LSAlgebroid, rep, cochain: RepCochain) -> RepCochain:
    """rep_d with no representation check."""
    n = cochain.degree
    comps = {}
    for lead in combinations(range(alg.rank), n):
        for last in range(alg.rank):
            total: dict = {}
            for a, i_a in enumerate(lead):
                sign = 1 if a % 2 == 0 else -1
                rest = lead[:a] + lead[a + 1:]
                _add_scaled(total, rep_rho_frame(
                    alg, rep, i_a, cochain.component(rest, last)), sign)
                _add_scaled(total, rep_mu_frame(
                    rep, last, cochain.component(rest, i_a)), sign)
                for k, comp in alg.c[i_a][last].terms.items():
                    _add_scaled(total, cochain.component(rest, k),
                                comp * -sign)
            for a, b in combinations(range(n), 2):
                sign = 1 if (a + b) % 2 == 0 else -1
                rest = tuple(lead[p] for p in range(n) if p not in (a, b))
                bracket = frame_commutator(alg, lead[a], lead[b])
                for k, comp in bracket.terms.items():
                    _add_scaled(total, cochain.component((k,) + rest, last),
                                comp * sign)
            if total:
                comps[(lead, last)] = Section._from((alg.coords, rep.s), total)
    return RepCochain._from((alg.coords, alg.rank, rep.s, n + 1), comps)


def def_d_oracle(alg: LSAlgebroid, deriv: MultiDerivation) -> MultiDerivation:
    n = deriv.degree
    entries = {}
    for lead in combinations(range(alg.rank), n):
        for last in range(alg.rank):
            total: dict = {}
            for a, i_a in enumerate(lead):
                sign = 1 if a % 2 == 0 else -1
                rest = lead[:a] + lead[a + 1:]
                _add_scaled(total, section_mult(
                    alg, alg.frame(i_a), deriv.value(rest, last)), sign)
                _add_scaled(total, section_mult(
                    alg, deriv.value(rest, i_a), alg.frame(last)), sign)
                _add_scaled(total, deriv.evaluate_last(rest, alg.c[i_a][last]),
                            -sign)
            for a, b in combinations(range(n), 2):
                sign = 1 if (a + b) % 2 == 0 else -1
                rest = tuple(lead[p] for p in range(n) if p not in (a, b))
                bracket = frame_commutator(alg, lead[a], lead[b])
                for k, comp in bracket.terms.items():
                    _add_scaled(total, deriv.value((k,) + rest, last),
                                comp * sign)
            if total:
                entries[(lead, last)] = Section._from(
                    (alg.coords, alg.rank), total)

        field: dict = {}
        for a, i_a in enumerate(lead):
            sign = 1 if a % 2 == 0 else -1
            rest = lead[:a] + lead[a + 1:]
            _add_scaled(field, vf_bracket(alg.anchor[i_a], deriv.symbol(rest)),
                        sign)
            _add_scaled(field, anchor_of_section(alg, deriv.value(rest, i_a)),
                        sign)
        for a, b in combinations(range(n), 2):
            sign = 1 if (a + b) % 2 == 0 else -1
            rest = tuple(lead[p] for p in range(n) if p not in (a, b))
            bracket = frame_commutator(alg, lead[a], lead[b])
            for k, comp in bracket.terms.items():
                _add_scaled(field, deriv.symbol((k,) + rest), comp * sign)
        if field:
            entries[(lead, None)] = VectorField._from((alg.coords,), field)
    return MultiDerivation._from((alg.coords, alg.rank, alg.rank, n + 1),
                                 entries)


def point_tables_oracle(alg, rep) -> tuple:
    """The integer tables of cohomology._point_tables (every field but
    the row templates), read through the dense rational matrices."""
    r = alg.rank
    rho = [mat.to_rational() for mat in rep.rho_mat]
    mu = [mat.to_rational() for mat in rep.mu_mat]
    prod = [[{k: v.constant_value() for k, v in alg.c[i][j].terms.items()}
             for j in range(r)] for i in range(r)]
    den = lcm(*{Fraction(v).denominator for mats in (rho, mu) for mat in mats
                for row in mat for v in row},
              *{Fraction(v).denominator for row in prod for table in row
                for v in table.values()})

    def scaled(v):
        v = Fraction(v)
        return v.numerator * (den // v.denominator)

    rho, mu = ([[{p: scaled(v) for p, v in enumerate(row) if v} for row in mat]
                for mat in mats] for mats in (rho, mu))
    prod = [[{k: scaled(v) for k, v in table.items()} for table in row]
            for row in prod]
    comm = {}
    for i, j in combinations(range(r), 2):
        total = {k: prod[i][j].get(k, 0) - prod[j][i].get(k, 0)
                 for k in {*prod[i][j], *prod[j][i]}}
        comm[i, j] = {k: v for k, v in total.items() if v}
    return den, r, rep.s, rho, mu, prod, comm


def point_rows_oracle(tables, degree: int):
    """The rows of cohomology._point_rows from its integer tables, zero
    rows included, in cochain_basis order."""
    r, s = tables.rank, tables.s
    rho, mu, prod, comm = tables.rho, tables.mu, tables.prod, tables.comm
    position = {lead: pos
                for pos, lead in enumerate(combinations(range(r), degree - 1))}
    for lead in combinations(range(r), degree):
        omitted = [(1 if a % 2 == 0 else -1,
                    position[lead[:a] + lead[a + 1:]] * r * s, i_a)
                   for a, i_a in enumerate(lead)]
        inserted = []
        for a, b in combinations(range(degree), 2):
            sign = 1 if (a + b) % 2 == 0 else -1
            rest = tuple(lead[p] for p in range(degree) if p not in (a, b))
            for k, v in comm[lead[a], lead[b]].items():
                key, perm = sort_with_sign((k,) + rest)
                if perm:
                    inserted.append((position[key] * r * s, sign * perm * v))
        for last in range(r):
            rows = [{} for _ in range(s)]
            for sign, start, i_a in omitted:
                base = start + last * s
                for row, entries in zip(rows, rho[i_a]):
                    for p, v in entries.items():
                        row[base + p] = row.get(base + p, 0) + sign * v
                base = start + i_a * s
                for row, entries in zip(rows, mu[last]):
                    for p, v in entries.items():
                        row[base + p] = row.get(base + p, 0) + sign * v
                for k, v in prod[i_a][last].items():
                    base = start + k * s
                    for m2, row in enumerate(rows):
                        row[base + m2] = row.get(base + m2, 0) - sign * v
            for start, v in inserted:
                base = start + last * s
                for m2, row in enumerate(rows):
                    row[base + m2] = row.get(base + m2, 0) + v
            for row in rows:
                yield {col: v for col, v in row.items() if v}


# ---------------------------------------------------------------------------
# Loops replaced by one routine: determinants, the square product and the
# anchor relation
# ---------------------------------------------------------------------------

def rational_det_oracle(rows) -> Fraction:
    """Determinant of a rational matrix by Fraction Gaussian elimination."""
    n = len(rows)
    mat = [list(map(Fraction, row)) for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            factor = mat[r][col] * inv
            if factor:
                for c in range(col, n):
                    mat[r][c] -= factor * mat[col][c]
    return det


def spy_minor_calls(monkeypatch) -> list:
    """Wrap ``PolyMatrix._minor``: each call on a nonempty minor appends
    ``(matrix, rows, cols, memo, expanded)``, with ``memo`` the memo of
    minors the call read (the one its public call owns) and ``expanded``
    whether the minor was missing from it."""
    calls = []
    minor = PolyMatrix._minor

    def recorded(matrix, rows, cols, memo):
        expanded = (rows, cols) not in memo
        value = minor(matrix, rows, cols, memo)
        if rows:
            calls.append((matrix, rows, cols, memo, expanded))
        return value

    monkeypatch.setattr(PolyMatrix, "_minor", recorded)
    return calls


def det_oracle(matrix: PolyMatrix) -> Poly:
    """Determinant by Fraction elimination when the matrix is constant,
    otherwise by Laplace expansion along successive columns memoized on
    row subsets."""
    if matrix.is_constant():
        return Poly.constant(rational_det_oracle(matrix.to_rational()),
                             matrix.coords)
    cache = {}

    def expand(rows: tuple, col: int) -> Poly:
        if not rows:
            return Poly.constant(1, matrix.coords)
        if rows not in cache:
            acc = Poly.zero(matrix.coords)
            for pos, i in enumerate(rows):
                entry = matrix.terms.get((i, col))
                if entry is not None:
                    term = entry * expand(rows[:pos] + rows[pos + 1:], col + 1)
                    acc = acc + term if pos % 2 == 0 else acc - term
            cache[rows] = acc
        return cache[rows]

    return expand(tuple(range(matrix.rows)), 0)


def adjugate_oracle(matrix: PolyMatrix) -> PolyMatrix:
    """Transposed cofactor matrix, each cofactor the determinant of its
    own submatrix."""
    n, entries = matrix.rows, matrix.entries
    cof = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[entries[r][c] for c in range(n) if c != j]
                   for r in range(n) if r != i]
            minor = det_oracle(PolyMatrix(matrix.coords, sub))
            cof[i][j] = minor if (i + j) % 2 == 0 else -minor
    return PolyMatrix(matrix.coords, cof).transpose()


def square_product_oracle(alg: LSAlgebroid, omega) -> list:
    """Witnesses of w(w(x,y),z) - w(x,w(y,z)) = w(w(y,x),z) - w(y,w(x,z))
    failing, on all frame triples through ``omega.evaluate``."""
    frames = [alg.frame(i) for i in range(alg.rank)]

    def w(x: Section, y: Section) -> Section:
        return omega.evaluate([x, y])

    witnesses = []
    for i in range(alg.rank):
        for j in range(alg.rank):
            for k in range(alg.rank):
                x, y, z = frames[i], frames[j], frames[k]
                lhs = w(w(x, y), z) - w(x, w(y, z))
                rhs = w(w(y, x), z) - w(y, w(x, z))
                if lhs != rhs:
                    witnesses.append(
                        f"(e_{i+1},e_{j+1},e_{k+1}): {lhs} != {rhs}")
    return witnesses


def anchor_relation_oracle(alg: LSAlgebroid, omega, omega_prime,
                           endo) -> tuple[list, list]:
    """Witnesses of sigma - sigma' = a(N x) failing, compared with the
    anchor directly and with the symbol of d N."""
    d_endo = def_d(alg, MultiDerivation.from_endomorphism(alg, endo))
    anchor_witnesses, derived_witnesses = [], []
    for i in range(alg.rank):
        difference_field = omega.symbol((i,)) - omega_prime.symbol((i,))
        direct = anchor_of_section(alg, Section(alg.coords, endo.column(i)))
        if difference_field != direct:
            anchor_witnesses.append(
                f"e_{i+1}: sigma - sigma' = {difference_field} but "
                f"a(N x) = {direct}")
        if difference_field != d_endo.symbol((i,)):
            derived_witnesses.append(
                f"e_{i+1}: sigma - sigma' = {difference_field} but "
                f"symbol of d N = {d_endo.symbol((i,))}")
    return anchor_witnesses, derived_witnesses


# ---------------------------------------------------------------------------
# Loops replaced by one failure generator: the anchor-morphism and
# homomorphism identities, and the phase-space double laid out twice
# ---------------------------------------------------------------------------

def left_symmetric_anchor_oracle(alg: LSAlgebroid) -> list:
    """``anchor-morphism`` witnesses of ``check_left_symmetric``."""
    witnesses = []
    for i in range(alg.rank):
        for j in range(i + 1, alg.rank):
            lhs = anchor_of_section(alg, frame_commutator(alg, i, j))
            rhs = vf_bracket(alg.anchor[i], alg.anchor[j])
            if lhs != rhs:
                witnesses.append(
                    f"(e_{i+1},e_{j+1}): anchor(commutator) = {lhs} but "
                    f"[anchor,anchor] = {rhs}")
    return witnesses


def lie_anchor_oracle(alg: LieAlgebroid) -> list:
    """``anchor-morphism`` witnesses of ``check_lie_algebroid``."""
    witnesses = []
    for i in range(alg.rank):
        for j in range(i + 1, alg.rank):
            lhs = anchor_of_section(alg, alg.b[i][j])
            rhs = vf_bracket(alg.anchor[i], alg.anchor[j])
            if lhs != rhs:
                witnesses.append(
                    f"(e_{i+1},e_{j+1}): anchor[e_i,e_j] = {lhs} but "
                    f"[anchor,anchor] = {rhs}")
    return witnesses


def action_condition_oracle(algebra: LSAlgebroid, fields, coords):
    """``(message, witness)`` of the first basis pair where the fields
    fail to intertwine the commutator with the vector-field bracket, or
    None: the loop ``action_algebroid`` ran on the acting algebra."""
    def field_of(constants: Section) -> VectorField:
        total = VectorField.zero(coords)
        for k, comp in constants.terms.items():
            total = total + fields[k].scale(comp.constant_value())
        return total

    for i in range(algebra.rank):
        for j in range(i + 1, algebra.rank):
            lhs = field_of(frame_commutator(algebra, i, j))
            rhs = vf_bracket(fields[i], fields[j])
            if lhs != rhs:
                return (f"action condition fails on basis pair "
                        f"({i + 1}, {j + 1}): {lhs} != {rhs}", (i, j))
    return None


def lsa_homomorphism_oracle(a1: LSAlgebroid, a2: LSAlgebroid, phi) -> bool:
    """Anchors, then products, intertwined on the frame, with no shape
    check."""
    images = [Section(a1.coords, phi.column(i)) for i in range(a1.rank)]
    for i in range(a1.rank):
        if anchor_of_section(a2, images[i]) != a1.anchor[i]:
            return False
    for i in range(a1.rank):
        for j in range(a1.rank):
            lhs = apply_endo(phi, a1.c[i][j])
            rhs = section_mult(a2, images[i], images[j])
            if lhs != rhs:
                return False
    return True


def intertwiner_oracle(deformed: LSAlgebroid, lifted: LSAlgebroid,
                       family) -> tuple[list, list]:
    """The product failures ``(i, j, lhs, rhs)`` and anchor failures
    ``(i, lhs, rhs)`` of the family id + tN: the two loops
    ``trivial_deformation`` ran, uncapped."""
    images = [Section(lifted.coords, family.column(i))
              for i in range(lifted.rank)]
    products = []
    for i in range(lifted.rank):
        for j in range(lifted.rank):
            lhs = apply_endo(family, deformed.c[i][j])
            rhs = section_mult(lifted, images[i], images[j])
            if lhs != rhs:
                products.append((i, j, lhs, rhs))
    anchors = []
    for i in range(lifted.rank):
        lhs = anchor_of_section(lifted, images[i])
        rhs = deformed.anchor[i]
        if lhs != rhs:
            anchors.append((i, lhs, rhs))
    return products, anchors


def phase_double_oracle(lie: LieAlgebroid, rep) -> tuple:
    """The double of ``lie`` by the dual of ``rep`` laid out entry by
    entry, with the pairing form e^i ^ e^(r+i) written out and its
    differential from the written-out coboundary."""
    r = lie.rank
    dual = Representation(rep.s, [-(m.transpose()) for m in rep.rho_mat])
    P = semidirect_lie_oracle(lie, dual)
    omega = FormCochain(lie.coords, 2 * r, 2,
                        {(i, r + i): 1 for i in range(r)})
    return P, omega, lie_form_d_oracle(P, omega)


def phase_space_report_oracle(alg: LSAlgebroid) -> list:
    """``(name, status, witnesses)`` of the ``build_phase_space``
    records, decided the way the library did before the nondegeneracy
    record held by construction: d omega on the oracle double, the
    determinant of the pairing matrix, and the paracomplex check."""
    P, omega, d_omega = phase_double_oracle(sub_adjacent(alg),
                                            left_mult_oracle(alg))
    witnesses = [f"d omega(e_{i+1},e_{j+1},e_{k+1}) = {value}"
                 for (i, j, k), value in sorted(d_omega.terms.items())]
    matrix = PolyMatrix(alg.coords,
                        [[omega.component((i, j)) for j in range(P.rank)]
                         for i in range(P.rank)])
    det = det_oracle(matrix)
    para = check_paracomplex(P, canonical_paracomplex(alg.coords, alg.rank))
    return [("omega-closed", "fail" if witnesses else "pass", witnesses),
            ("omega-nondegenerate",
             "pass" if det.is_constant() and not det.is_zero() else "fail",
             [] if not det.is_zero() else ["det = 0"]),
            ("paracomplex", "pass" if para else "fail", [])]


def left_mult_oracle(alg: LSAlgebroid) -> Representation:
    """Left multiplication, entry (k, j) of L_i the k-th component of
    e_i.e_j, with no axiom gate."""
    return Representation(alg.rank, [
        PolyMatrix(alg.coords, [[alg.c[i][j].components[k]
                                 for j in range(alg.rank)]
                                for k in range(alg.rank)])
        for i in range(alg.rank)])


def lsa_from_phase_oracle(lie: LieAlgebroid, rep) -> tuple:
    """What ``lsa_from_phase`` builds, on the oracle double: ``(triple,
    None)`` with the first frame triple where d omega is nonzero, or
    ``(None, (base, total, matches))`` with the recovered base, the
    compatible structure on the double and whether its commutator is
    the bracket of the double."""
    P, _, d_omega = phase_double_oracle(lie, rep)
    if not d_omega.is_zero():
        return sorted(d_omega.terms)[0], None
    r, coords = lie.rank, lie.coords
    base = LSAlgebroid(coords, r, [[Section(coords, rep.rho_mat[i].column(j))
                                    for j in range(r)] for i in range(r)],
                       lie.anchor)
    total = semidirect_lsa_oracle(base, Representation(
        r, [-(m.transpose()) for m in rep.rho_mat]))
    matches = all(frame_commutator(total, i, j) == P.b[i][j]
                  for i in range(2 * r) for j in range(2 * r))
    return None, (base, total, matches)


# ---------------------------------------------------------------------------
# Loop replaced by one frame identity: associator symmetry
# ---------------------------------------------------------------------------

def associator_symmetry_oracle(alg: LSAlgebroid) -> list:
    """``associator-symmetry`` witnesses of ``check_left_symmetric``, from
    both associators of every frame triple (i, j, k), i < j: eight
    products per triple."""
    def associator(x, y, z):
        return section_mult(alg, section_mult(alg, x, y), z) \
            - section_mult(alg, x, section_mult(alg, y, z))

    witnesses = []
    for i, j in combinations(range(alg.rank), 2):
        for k in range(alg.rank):
            e_i, e_j, e_k = alg.frame(i), alg.frame(j), alg.frame(k)
            lhs, rhs = associator(e_i, e_j, e_k), associator(e_j, e_i, e_k)
            if lhs != rhs:
                witnesses.append(f"(e_{i+1},e_{j+1},e_{k+1}): associator "
                                 f"{lhs} != {rhs} (arguments swapped)")
    return witnesses


# ---------------------------------------------------------------------------
# Computations verify-all replaced by the paper's theorems
# ---------------------------------------------------------------------------

def sub_adjacent_oracle(alg: LSAlgebroid):
    """``check_lie_algebroid`` of the commutator table with the same
    anchor, with no axiom gate: the report verify-all merged as
    ``sub-adjacent/*``."""
    return check_lie_algebroid(_commutator_algebroid(alg))


def left_mult_rep_oracle(alg: LSAlgebroid) -> bool:
    """Does left multiplication represent the commutator bracket?  The
    check behind ``sub-adjacent/left-mult-rep``, with no axiom gate."""
    return check_representation_lie(_commutator_algebroid(alg),
                                    left_mult_oracle(alg))


def right_mult_matrices(alg: LSAlgebroid) -> list[PolyMatrix]:
    """R_j, right multiplication by e_j: column i is e_i.e_j."""
    r = alg.rank
    return [PolyMatrix(alg.coords, [[alg.c[i][j].components[k]
                                     for i in range(r)] for k in range(r)])
            for j in range(r)]


def semidirect_axioms_oracle(alg: LSAlgebroid, rep) -> bool:
    """The axioms of the semidirect product by (rho, mu), decided on its
    table: ``representation/semidirect-valid`` before it was written by
    its theorem."""
    return check_left_symmetric(
        _semidirect(alg, alg.c, rep.s, rep.rho_mat, rep.mu_mat)).passed


def derived_conditions_oracle(alg: LSAlgebroid, rep) -> tuple[bool, bool]:
    """Whether (E; rho - mu, -mu) and (E*; rho*, mu*) are
    representations, each decided in full: the first two conditions
    ``derived_reps`` computed before it read them off anticommutation."""
    diff = [r - m for r, m in zip(rep.rho_mat, rep.mu_mat)]
    return (check_representation_lsa(
                alg, Representation(rep.s, diff, [-m for m in rep.mu_mat])),
            check_representation_lsa(
                alg, Representation(rep.s,
                                    [-(m.transpose()) for m in rep.rho_mat],
                                    [-(m.transpose()) for m in rep.mu_mat])))


def induced_axioms_oracle(lie: LieAlgebroid, rep, T) -> bool:
    """The axioms of the structure u.v = rho(Tu)v that an O-operator
    induces, decided on its table: ``o-operator/induced-axioms`` before
    a representation rho made it a pass."""
    result = apply_O_operator(lie, rep, T)
    assert result.is_O
    return check_left_symmetric(result.induced).passed


# ---------------------------------------------------------------------------
# Helpers with no caller in the package
# ---------------------------------------------------------------------------

def rep_mu_section(rep: Representation, x: Section, u: Section) -> Section:
    """mu(x)u for any section x: the matrix sum_k x^k mu_k applied to u."""
    return apply_endo(_at(rep.mu_mat, x, rep.s), u)


def specialize_algebroid(alg: LSAlgebroid, param: str, value) -> LSAlgebroid:
    """Substitute a rational value for a formal parameter coordinate."""
    c = [[alg.c[i][j].substitute(param, value) for j in range(alg.rank)]
         for i in range(alg.rank)]
    anchor = [field.substitute(param, value) for field in alg.anchor]
    new_coords = tuple(name for name in alg.coords if name != param)
    return LSAlgebroid(new_coords, alg.rank, c, anchor)


def lie_admissible_defect(alg: LSAlgebroid, x: Multivector, y: Multivector,
                          z: Multivector) -> Multivector:
    """Signed cyclic sum of left-symmetry defects; vanishes identically
    for the extended multiplication."""
    gx, gy, gz = _require_homogeneous(x, y, z)

    def sign(u, v):
        return -1 if ((u - 1) * (v - 1)) % 2 else 1

    return left_symmetry_defect(alg, x, y, z).scale(sign(gx, gz)) \
        + left_symmetry_defect(alg, y, z, x).scale(sign(gy, gx)) \
        + left_symmetry_defect(alg, z, x, y).scale(sign(gz, gy))


def graded_bracket_oracle(alg: LSAlgebroid, x: Multivector,
                          y: Multivector) -> Multivector:
    """The graded bracket as a sum over homogeneous components,
    [x_k, y_l] = x_k.y_l - (-1)^((k-1)(l-1)) y_l.x_k, each side a
    graded_product of whole multivectors."""
    x._check(y)
    total = Multivector.zero(alg.coords, alg.rank)
    for k in x.grades():
        xk = x.homogeneous_component(k)
        for l in y.grades():
            yl = y.homogeneous_component(l)
            sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
            total = total + graded_product(alg, xk, yl) \
                - graded_product(alg, yl, xk).scale(sign)
    return total


# ---------------------------------------------------------------------------
# Serialization through the dense views
# ---------------------------------------------------------------------------

def section_to_list_oracle(section: Section) -> list[str]:
    return [str(c) for c in section.components]


def matrix_to_list_oracle(matrix: PolyMatrix) -> list[list[str]]:
    return [[str(matrix.entry(i, j)) for j in range(matrix.cols)]
            for i in range(matrix.rows)]


def two_form_table_oracle(form: FormCochain) -> list[list[str]]:
    return [[str(form.component((i, j))) for j in range(form.rank)]
            for i in range(form.rank)]


def frame_data_oracle(alg, key: str, table) -> dict:
    """``algebroid_to_dict`` (key ``structure``) or
    ``lie_algebroid_to_dict`` (key ``bracket``) through ``components``."""
    return {
        "coordinates": list(alg.coords),
        "rank": alg.rank,
        key: [[section_to_list_oracle(sec) for sec in row] for row in table],
        "anchor": [[str(comp) for comp in field.components]
                   for field in alg.anchor],
    }
