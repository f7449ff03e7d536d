"""Shared instance builders and independent oracles for the test suite."""

import random
from fractions import Fraction

from lsakit.cohomology import (
    DegreeDims,
    PointCohomology,
    assemble_point_differential,
    cochain_basis,
    rep_d0,
)
from lsakit.core import (
    FormCochain,
    LieAlgebroid,
    LSAlgebroid,
    Section,
    anchor_of_section,
    apply_endo,
    rep_mu_frame,
    rep_rho_frame,
    rep_rho_section,
    section_bracket,
    sub_adjacent,
)
from lsakit.errors import DimensionMismatch
from lsakit.polyring import (
    Poly,
    VectorField,
    as_rational,
    parse_poly,
    rational_kernel_and_rank,
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
    rows = [list(map(as_rational, row)) for row in matrix]
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
    for k in range(1, n_max + 1):
        matrix, domain, _ = assemble_point_differential(alg, rep, k)
        rank, kernel = rational_kernel_and_rank(matrix, cols=len(domain))
        degrees.append(DegreeDims(k, len(domain), len(kernel), previous_rank,
                                  len(kernel) - previous_rank))
        previous_rank = rank
    return PointCohomology(len(c0_basis), len(d0_kernel), degrees)
