"""Cochain complexes attached to a left-symmetric algebroid.

Two complexes live here.  The representation complex consists of
E-valued cochains that are alternating and function-linear in all slots
but the last (which is also function-linear); its differential combines
the two actions of a representation with product insertions.  The
deformation complex consists of multiderivations: alternating in their
leading slots, function-linear there, and differentiating through a
vector-field-valued symbol in the last slot.

Both differentials have the Chevalley-Eilenberg shape of the form
differential ``core.lie_form_d``: terms on each omitted argument with
sign (-1)^a, and the bracket of each pair of arguments inserted into
the leading slots with sign (-1)^(a+b).  ``core._coboundary_terms``
lists those terms once per leading tuple for all of them, and for the
point-case rows below; each adds its own action terms.

Over a zero-dimensional base both complexes are finite dimensional.
The structure constants and the representation matrices are then read
once per call, from their sparse terms, into integer tables over one
common denominator.  The representation identities are decided on
those tables by integer products, and each differential is emitted
from them as sparse integer rows: the nonzero rows of one template per
omitted argument and last index, built with the tables and shared by
every degree, plus the nonzero commutator entries.  Exact integer elimination to echelon form
gives each rank, hence the cocycle, coboundary and cohomology
dimensions.  No dense matrix, no polynomial and no kernel basis is
built on that path; ``assemble_point_differential`` gives the dense
rational view of the same rows.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Iterator, NamedTuple, Sequence

from .constructions import _require_rank_domain, check_representation_lsa
from .core import (
    LSAlgebroid,
    Representation,
    Section,
    _coboundary_terms,
    _frame_expansion,
    _require_left_symmetric,
    anchor_of_section,
    frame_commutator,
    rep_mu_frame,
    rep_rho_frame,
    rep_rho_section,
    section_mult,
)
from .errors import (
    ArityError,
    DimensionMismatch,
    InvalidDegree,
    NotARepresentation,
    NotPointCase,
)
from .polyring import (
    Rational,
    SparseModule,
    VectorField,
    _accumulate,
    _add_scaled,
    _forward_pivots,
    _index_tuple,
    as_rational,
    vf_bracket,
)


class RepCochain(SparseModule):
    """E-valued cochain: alternating in all slots except the last, and
    function-linear in every slot.

    Components are stored against a strictly increasing leading index
    tuple plus a free last index; ``degree`` counts all arguments.
    """

    __slots__ = ("coords", "rank", "s", "degree")

    def __init__(self, coords, rank: int, s: int, degree: int, comps: dict):
        if degree < 1:
            raise InvalidDegree(
                f"{type(self).__name__} degree must be at least 1")
        self._fill((tuple(coords), rank, s, degree), comps.items())

    def _set_shape(self, shape: tuple) -> None:
        self.coords, self.rank, self.s, self.degree = self._shape = shape

    def _entry(self, key, value):
        lead, last = key
        lead = _index_tuple(lead, self.rank, self.degree - 1)
        if not 0 <= last < self.rank:
            raise DimensionMismatch("cochain index out of range")
        if not isinstance(value, Section):
            value = Section(self.coords, value)
        if value.coords != self.coords or value.rank != self.s:
            raise DimensionMismatch("cochain value has wrong shape")
        return (lead, last), value

    @classmethod
    def zero(cls, coords, rank: int, s: int, degree: int) -> "RepCochain":
        return cls(coords, rank, s, degree, {})

    def component(self, lead: Sequence[int], last: int) -> Section:
        value = self._lookup(lead, last)
        return Section.zero(self.coords, self.s) if value is None else value

    def evaluate_last(self, lead: Sequence[int], last: Section) -> Section:
        """Evaluate with frame leading slots and an arbitrary last slot."""
        out: dict = {}
        for j, g in last.terms.items():
            value = self._lookup(lead, j)
            if value is not None:
                _add_scaled(out, value, g)
        return Section._from((self.coords, self.s), out)

    def evaluate(self, sections: Sequence[Section]) -> Section:
        """Multilinear evaluation on arbitrary sections: the leading slots
        expand over the supports of their sections, the last through
        ``evaluate_last``."""
        if len(sections) != self.degree:
            raise ArityError(
                f"degree {self.degree} {type(self).__name__} applied to "
                f"{len(sections)} sections")
        out: dict = {}
        for lead, coeff in _frame_expansion(sections[:-1], self.coords):
            _add_scaled(out, self.evaluate_last(lead, sections[-1]), coeff)
        return Section._from((self.coords, self.s), out)


def rep_d(alg: LSAlgebroid, rep: Representation, cochain: RepCochain,
          check: bool = True) -> RepCochain:
    """Differential of the representation complex.

    Combines the left action on omitted arguments, the right action on
    the last argument, insertions of the product into the last slot, and
    insertions of the commutator bracket into the leading slots.
    """
    if check and not check_representation_lsa(alg, rep):
        raise NotARepresentation("(rho, mu) fails the representation identities")
    if cochain.rank != alg.rank or cochain.coords != alg.coords:
        raise DimensionMismatch("cochain does not live on this algebroid")
    n, comps = cochain.degree, {}
    for lead, omitted, inserted in _coboundary_terms(
            alg.rank, n, lambda i, j: frame_commutator(alg, i, j).terms):
        for last in range(alg.rank):
            total: dict = {}
            for sign, i_a, rest in omitted:
                _add_scaled(total, rep_rho_frame(
                    alg, rep, i_a, cochain.component(rest, last)), sign)
                _add_scaled(total, rep_mu_frame(
                    rep, last, cochain.component(rest, i_a)), sign)
                for k, comp in alg.c[i_a][last].terms.items():
                    _add_scaled(total, cochain.component(rest, k),
                                comp * -sign)
            _add_inserted(total, cochain, inserted, last)
            if total:
                comps[(lead, last)] = Section._from((alg.coords, rep.s), total)
    return RepCochain._from((alg.coords, alg.rank, rep.s, n + 1), comps)


def _add_inserted(out: dict, cochain, inserted: list, last) -> None:
    """Accumulate the bracket insertions into the leading slots."""
    for key, coeff in inserted:
        value = cochain.terms.get((key, last))
        if value is not None:
            _add_scaled(out, value, coeff)


def rep_d0(alg: LSAlgebroid, rep: Representation, element: Section) \
        -> RepCochain:
    """Differential of a degree-zero element: x maps to mu(x)e - rho(x)e."""
    if element.rank != rep.s:
        raise DimensionMismatch("element has wrong rank")
    comps = {}
    for j in range(alg.rank):
        value = rep_mu_frame(rep, j, element) \
            - rep_rho_frame(alg, rep, j, element)
        if not value.is_zero():
            comps[((), j)] = value
    return RepCochain(alg.coords, alg.rank, rep.s, 1, comps)


def check_c0(alg: LSAlgebroid, rep: Representation, element: Section) -> bool:
    """Membership in the degree-zero space: the curvature-style defect
    rho(x)rho(y)e - rho(x.y)e vanishes on all frame pairs."""
    for i in range(alg.rank):
        for j in range(alg.rank):
            lhs = rep_rho_frame(alg, rep, i,
                                rep_rho_frame(alg, rep, j, element))
            rhs = rep_rho_section(alg, rep, alg.c[i][j], element)
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# Multiderivations and the deformation differential
# ---------------------------------------------------------------------------

class MultiDerivation(RepCochain):
    """Multilinear operator on sections of the bundle, alternating and
    function-linear in its leading slots and a derivation in the last
    slot through a vector-field-valued symbol.

    The function-linear part is a bundle-valued ``RepCochain`` (values of
    rank ``rank``); the symbol of each leading tuple ``lead`` is stored
    beside it under the key ``(lead, None)``.
    """

    __slots__ = ()

    def __init__(self, coords, rank: int, degree: int, values: dict,
                 symbols: dict):
        entries = dict(values)
        entries.update(((tuple(lead), None), field)
                       for lead, field in symbols.items())
        RepCochain.__init__(self, coords, rank, rank, degree, entries)

    def _entry(self, key, value):
        if key[1] is not None:
            return RepCochain._entry(self, key, value)
        if not isinstance(value, VectorField):
            value = VectorField(self.coords, value)
        if value.coords != self.coords:
            raise DimensionMismatch("symbol over the wrong coordinates")
        return (_index_tuple(key[0], self.rank, self.degree - 1), None), value

    @classmethod
    def zero(cls, coords, rank: int, degree: int) -> "MultiDerivation":
        return cls(coords, rank, degree, {}, {})

    @classmethod
    def from_endomorphism(cls, alg: LSAlgebroid, endo) -> "MultiDerivation":
        """Degree-1 multiderivation with zero symbol (a bundle map)."""
        values = {((), j): Section(alg.coords, endo.column(j))
                  for j in range(alg.rank)}
        return cls(alg.coords, alg.rank, 1, values, {})

    @property
    def values(self) -> dict:
        return {k: v for k, v in self.terms.items() if k[1] is not None}

    @property
    def symbols(self) -> dict:
        return {k[0]: v for k, v in self.terms.items() if k[1] is None}

    value = RepCochain.component

    def symbol(self, lead: Sequence[int]) -> VectorField:
        field = self._lookup(lead, None)
        return VectorField.zero(self.coords) if field is None else field

    def evaluate_last(self, lead: Sequence[int], last: Section) -> Section:
        """Evaluate with frame leading slots and an arbitrary last slot
        (function-linear part plus the symbol derivation)."""
        linear = RepCochain.evaluate_last(self, lead, last)
        field = self._lookup(lead, None)
        if field is None:
            return linear
        out = dict(linear.terms)
        for j, g in last.terms.items():
            _accumulate(out, j, field.apply(g))
        return linear._like(out)


def def_d(alg: LSAlgebroid, deriv: MultiDerivation) -> MultiDerivation:
    """Differential of the deformation complex.

    Values come from the four-sum formula (products on omitted
    arguments, product insertions into the last slot, bracket insertions
    into the leading slots); the symbol of the output combines
    vector-field brackets with the anchor applied to rotated values.
    """
    if deriv.rank != alg.rank or deriv.coords != alg.coords:
        raise DimensionMismatch("multiderivation does not live on this bundle")
    n, entries = deriv.degree, {}
    for lead, omitted, inserted in _coboundary_terms(
            alg.rank, n, lambda i, j: frame_commutator(alg, i, j).terms):
        for last in range(alg.rank):
            total: dict = {}
            for sign, i_a, rest in omitted:
                _add_scaled(total, section_mult(
                    alg, alg.frame(i_a), deriv.value(rest, last)), sign)
                _add_scaled(total, section_mult(
                    alg, deriv.value(rest, i_a), alg.frame(last)), sign)
                _add_scaled(total, deriv.evaluate_last(rest, alg.c[i_a][last]),
                            -sign)
            _add_inserted(total, deriv, inserted, last)
            if total:
                entries[(lead, last)] = Section._from(
                    (alg.coords, alg.rank), total)

        field: dict = {}
        for sign, i_a, rest in omitted:
            _add_scaled(field, vf_bracket(alg.anchor[i_a], deriv.symbol(rest)),
                        sign)
            _add_scaled(field, anchor_of_section(alg, deriv.value(rest, i_a)),
                        sign)
        _add_inserted(field, deriv, inserted, None)
        if field:
            entries[(lead, None)] = VectorField._from((alg.coords,), field)
    return MultiDerivation._from((alg.coords, alg.rank, alg.rank, n + 1),
                                 entries)


def evaluate_on_sections(cochain, sections: Sequence[Section]) -> Section:
    """Evaluate a representation cochain or a multiderivation on
    arbitrary sections."""
    if isinstance(cochain, RepCochain):
        return cochain.evaluate(sections)
    raise TypeError(f"cannot evaluate {type(cochain).__name__}")


# ---------------------------------------------------------------------------
# Point-case cohomology dimensions
# ---------------------------------------------------------------------------

@dataclass
class DegreeDims:
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int


@dataclass
class PointCohomology:
    c0_dim: int
    c0_closed_dim: int
    degrees: list[DegreeDims]


def cochain_basis(rank: int, s: int, degree: int) \
        -> list[tuple[tuple[int, ...], int, int]]:
    """Basis keys (leading tuple, last index, value index) of the
    degree-``degree`` cochain space."""
    return [(lead, last, m)
            for lead in combinations(range(rank), degree - 1)
            for last in range(rank) for m in range(s)]


class _PointTables(NamedTuple):
    """Structure tables of a point-base pair, all scaled by ``den``:
    ``rho[i][m]`` and ``mu[i][m]`` are row m of the matrices as
    ``{col: int}``, ``prod[i][j]`` the product e_i.e_j as ``{k: int}``,
    ``comm[i, j]`` the commutator (i < j) as ``{k: int}``.

    ``rho_rows[i]`` and ``mu_rows[i]`` hold the nonzero rows alone, as
    ``{m: row}``, and ``rho_rho[i][j]`` those of rho_i rho_j (times
    den^2).  ``templates[i][last]`` holds the nonzero rows ``{m: row}``,
    at offsets within one domain block of r * s columns, that an omitted
    argument e_i adds to the codomain block ending in ``last``: rho_i on
    the last slot, mu_last on slot i, minus e_i.e_last inserted into the
    last slot."""
    den: int
    rank: int
    s: int
    rho: list
    mu: list
    prod: list
    comm: dict
    templates: list
    rho_rows: list
    mu_rows: list
    rho_rho: list


def _point_tables(alg: LSAlgebroid, rep: Representation) -> _PointTables:
    """Integer tables of a point-base pair, computed once per call.

    Every rho, mu and product entry is scaled by one common denominator
    (the lcm over the coefficients that are not ``int``); each
    differential is linear in them, so scaling changes no rank.  The
    entries are read from the sparse terms; over a point each stored
    polynomial is one nonzero constant.
    """
    _require_rank_domain(rep, alg)
    r, s = alg.rank, rep.s
    rho = [mat.terms for mat in rep.rho_mat]
    mu = [mat.terms for mat in rep.mu_mat]
    prod = [[alg.c[i][j].terms for j in range(r)] for i in range(r)]
    den = lcm(*{v.denominator
                for terms in (*rho, *mu, *(t for row in prod for t in row))
                for p in terms.values() for v in p.terms.values()
                if type(v) is not int})

    def scaled(p):
        (v,) = p.terms.values()
        if type(v) is int:
            return v * den
        return v.numerator * (den // v.denominator)

    def rows(terms):
        out: dict = {}
        for (m, p), entry in terms.items():
            out.setdefault(m, {})[p] = scaled(entry)
        return out

    rho_rows, mu_rows = [rows(t) for t in rho], [rows(t) for t in mu]
    rho, mu = ([[nonzero.get(m, {}) for m in range(s)] for nonzero in mats]
               for mats in (rho_rows, mu_rows))
    prod = [[{k: scaled(v) for k, v in terms.items()} for terms in row]
            for row in prod]
    comm = {}
    for i, j in combinations(range(r), 2):
        total = dict(prod[i][j])
        for k, v in prod[j][i].items():
            total[k] = total.get(k, 0) - v
        comm[i, j] = {k: v for k, v in total.items() if v}
    unit = {m: {m: 1} for m in range(s)}
    templates = [[_combine([(1, rho_rows[i], last * s),
                            (1, mu_rows[last], i * s),
                            *((-v, unit, k * s)
                              for k, v in prod[i][last].items())], [])
                  for last in range(r)] for i in range(r)]
    rho_rho = [[_combine([], [(1, left, right)]) for right in rho]
               for left in rho_rows]
    return _PointTables(den, r, s, rho, mu, prod, comm, templates,
                        rho_rows, mu_rows, rho_rho)


def _combine(linear: list, products: list) -> dict:
    """Nonzero rows ``{m: {col: int}}`` of sum c X + sum c A B, over
    ``(c, X, shift)`` in ``linear``, with the columns of X moved right
    by ``shift``, and ``(c, A, B)`` in ``products``, for integer
    matrices X and A given by their nonzero rows ``{m: row}`` and B by
    all its rows."""
    total: dict = {}
    for c, mat, shift in linear:
        for m, entries in mat.items():
            row = total.setdefault(m, {})
            for p, v in entries.items():
                row[shift + p] = row.get(shift + p, 0) + c * v
    for c, left, right in products:
        for m, entries in left.items():
            row = total.setdefault(m, {})
            for q, a in entries.items():
                for p, b in right[q].items():
                    row[p] = row.get(p, 0) + c * a * b
    return {m: nonzero for m, row in total.items()
            if (nonzero := {p: v for p, v in row.items() if v})}


def _is_point_representation(tables: _PointTables) -> bool:
    """The representation identities over a point, decided on the
    tables: sum_k (c_ij^k - c_ji^k) R_k = [R_i, R_j] for i < j, read off
    the shared products rho_rho, and R_i M_j - M_j R_i = sum_k c_ij^k M_k
    - M_j M_i for all i, j (the anchor is zero).  Both sides of each
    scale by den^2."""
    rho, mu, prod = tables.rho, tables.mu, tables.prod
    rho_rows, mu_rows, rho_rho = \
        tables.rho_rows, tables.mu_rows, tables.rho_rho
    for (i, j), comm in tables.comm.items():
        if _combine([(v, rho_rows[k], 0) for k, v in comm.items()]
                    + [(-1, rho_rho[i][j], 0), (1, rho_rho[j][i], 0)], []):
            return False
    for i in range(tables.rank):
        for j in range(tables.rank):
            if _combine([(-v, mu_rows[k], 0) for k, v in prod[i][j].items()],
                        [(1, rho_rows[i], mu[j]), (-1, mu_rows[j], rho[i]),
                         (1, mu_rows[j], mu[i])]):
                return False
    return True


def _point_rows(tables: _PointTables, degree: int) \
        -> Iterator[tuple[int, dict]]:
    """Nonzero rows of the representation differential from degree
    ``degree`` to ``degree`` + 1, as ``(index, {col: int})`` with the
    row and column indices in ``cochain_basis`` order, no zero entries
    (the entries times ``tables.den``) and the indices increasing; a
    row that is not yielded is zero.

    Each row receives the four terms of :func:`rep_d`.  The first three
    (rho on the omitted argument, mu on the last slot and the product
    inserted into the last slot) are the nonzero template rows of e_i,
    scattered over the (degree - 1)-tuples not containing i; the
    omitted arguments of one row leave distinct tuples, so their
    templates fill disjoint columns.  The fourth, the commutator
    inserted into the leading slots, scatters each nonzero entry of
    [e_i, e_j] over the (degree - 2)-tuples disjoint from {i, j}.
    """
    r, s, block = tables.rank, tables.s, tables.rank * tables.s
    position = {rest: pos * block
                for pos, rest in enumerate(combinations(range(r), degree - 1))}
    target = {lead: pos * block
              for pos, lead in enumerate(combinations(range(r), degree))}
    rows: dict[int, dict] = {}
    for i, templates in enumerate(tables.templates):
        if not any(templates):
            continue
        # (first row, first column, sign (-1)^a) of each tuple without i
        spots = []
        for rest, start in position.items():
            if i not in rest:
                a = bisect(rest, i)
                spots.append((target[rest[:a] + (i,) + rest[a:]], start,
                              -1 if a % 2 else 1))
        for last, template in enumerate(templates):
            for m, entries in template.items():
                for first, start, sign in spots:
                    shifted = {start + col: sign * v
                               for col, v in entries.items()}
                    row = rows.get(first + last * s + m)
                    if row is None:
                        rows[first + last * s + m] = shifted
                    else:
                        row.update(shifted)
    for (i, j), comm in tables.comm.items():
        if not comm or degree < 2:
            continue
        for rest in combinations([x for x in range(r) if x not in (i, j)],
                                 degree - 2):
            a, b = bisect(rest, i), bisect(rest, j)
            first = target[rest[:a] + (i,) + rest[a:b] + (j,) + rest[b:]]
            for k, v in comm.items():
                if k in rest:
                    continue
                p = bisect(rest, k)
                start = position[rest[:p] + (k,) + rest[p:]]
                # i and j sit at positions a and b + 1 of the lead; k
                # sorts into the rest at position p
                coeff = -v if (a + b + 1 + p) % 2 else v
                for offset in range(block):
                    row = rows.setdefault(first + offset, {})
                    total = row.pop(start + offset, 0) + coeff
                    if total:
                        row[start + offset] = total
    for index in sorted(rows):
        row = rows.pop(index)   # held by the elimination alone from here
        if row:
            yield index, row


def assemble_point_differential(alg: LSAlgebroid, rep: Representation,
                                degree: int) \
        -> tuple[list[list[Rational]], list, list]:
    """Rational matrix of the representation differential from degree
    ``degree`` to ``degree`` + 1 over a point base, with its bases.

    A dense view of the integer rows :func:`point_cohomology_dims`
    eliminates, built straight from the constant structure constants:
    each nonzero row is placed by its index, every other row is zero.
    """
    if not alg.is_point():
        raise NotPointCase("dense assembly requires a point base")
    tables = _point_tables(alg, rep)
    domain = cochain_basis(alg.rank, rep.s, degree)
    codomain = cochain_basis(alg.rank, rep.s, degree + 1)
    matrix = [[0] * len(domain) for _ in codomain]
    for index, entries in _point_rows(tables, degree):
        row = matrix[index]
        for col, v in entries.items():
            row[col] = as_rational(Fraction(v, tables.den))
    return matrix, domain, codomain


def _c0_rows(tables: _PointTables) -> list[dict]:
    """Nonzero rows of the degree-zero membership condition: for every
    frame pair, the rows of rho_i rho_j - sum_k c_ij^k rho_k (times
    den^2)."""
    return [row for rho_rho, products in zip(tables.rho_rho, tables.prod)
            for rho_ij, product in zip(rho_rho, products)
            for row in _combine([(1, rho_ij, 0)] + [
                (-c, tables.rho_rows[k], 0) for k, c in product.items()],
                []).values()]


def _d0_rows(tables: _PointTables) -> list[dict]:
    """Nonzero rows of the degree-zero differential x -> mu(x)e - rho(x)e,
    at most one per degree-1 basis key (times den)."""
    return [row for mu_i, rho_i in zip(tables.mu_rows, tables.rho_rows)
            for row in _combine([(1, mu_i, 0), (-1, rho_i, 0)], []).values()]


def point_cohomology_dims(alg: LSAlgebroid, rep: Representation,
                          n_max: int, check: bool = True) -> PointCohomology:
    """Cocycle, coboundary and cohomology dimensions in degrees 1 to
    min(n_max, rank + 1) over a point base, via exact rank computations
    (every cochain space above degree rank + 1 is zero).

    With ``check`` the algebra must pass the axiom gate
    (``NotLeftSymmetric``) and (rho, mu) the representation identities
    (``NotARepresentation``), decided on the integer tables with the
    result ``check_representation_lsa`` gives.  The degree-zero space is
    the subspace cut out by the curvature-style membership condition;
    both its dimension and the dimension of its kernel under the
    degree-zero differential are reported.  Each dimension is a column
    count minus the rank of integer rows scattered from the tables' row
    templates; no matrix is stored densely and no kernel basis is formed.
    """
    if n_max < 0:
        raise InvalidDegree(f"maximum degree must be at least 0, got {n_max}")
    if not alg.is_point():
        raise NotPointCase("cohomology dimensions require a point base")
    if check:
        _require_left_symmetric(alg)
    tables = _point_tables(alg, rep)
    if check and not _is_point_representation(tables):
        raise NotARepresentation("(rho, mu) fails the representation identities")
    r, s = alg.rank, rep.s
    # degree 0: C0 is the kernel of the condition rows, its closed part
    # the kernel of those rows stacked on the rows of d0; that
    # elimination continues from the condition's pivot rows
    condition = _forward_pivots(_c0_rows(tables), s)
    closed_rank = len(_forward_pivots([*condition.values(),
                                       *_d0_rows(tables)], s))
    c0_dim = s - len(condition)
    c0_closed_dim = s - closed_rank

    degrees = []
    previous_rank = closed_rank - len(condition)   # rank of d0 on C0
    for k in range(1, min(n_max, r + 1) + 1):
        dim_c = comb(r, k - 1) * r * s
        rank = len(_forward_pivots(
            (row for _, row in _point_rows(tables, k)), dim_c))
        dim_z = dim_c - rank
        degrees.append(DegreeDims(k, dim_c, dim_z, previous_rank,
                                  dim_z - previous_rank))
        previous_rank = rank
    return PointCohomology(c0_dim, c0_closed_dim, degrees)
