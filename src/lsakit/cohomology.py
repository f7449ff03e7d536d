"""Cochain complexes attached to a left-symmetric algebroid.

Two complexes live here.  The representation complex consists of
E-valued cochains that are alternating and function-linear in all slots
but the last (which is also function-linear); its differential combines
the two actions of a representation with product insertions.  The
deformation complex consists of multiderivations: alternating in their
leading slots, function-linear there, and differentiating through a
vector-field-valued symbol in the last slot.

Over a zero-dimensional base both complexes are finite dimensional.
The structure constants and the representation matrices are then read
once into integer tables over one common denominator; each differential
is emitted from them as sparse integer rows, and exact integer
elimination to echelon form gives its rank, hence the cocycle,
coboundary and cohomology dimensions.  No dense matrix and no kernel
basis is built on that path; ``assemble_point_differential`` gives the
dense rational view of the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iter_product
from math import comb, lcm
from typing import Iterator, NamedTuple, Sequence

from .constructions import _require_rank_domain, check_representation_lsa
from .core import (
    LSAlgebroid,
    Representation,
    Section,
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
    Poly,
    SparseModule,
    VectorField,
    _accumulate,
    _add_scaled,
    _forward_pivots,
    _index_tuple,
    sort_with_sign,
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
        expand over frame tuples, the last through ``evaluate_last``."""
        if len(sections) != self.degree:
            raise ArityError(
                f"degree {self.degree} {type(self).__name__} applied to "
                f"{len(sections)} sections")
        out: dict = {}
        one = Poly.constant(1, self.coords)
        for idx in iter_product(range(self.rank), repeat=self.degree - 1):
            coeff = one
            for sec, i in zip(sections, idx):
                factor = sec.terms.get(i)
                if factor is None:
                    break
                coeff = coeff * factor
            else:
                _add_scaled(out, self.evaluate_last(idx, sections[-1]), coeff)
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
    ``comm[i, j]`` the commutator (i < j) as ``[(k, int)]``."""
    den: int
    rank: int
    s: int
    rho: list
    mu: list
    prod: list
    comm: dict


def _point_tables(alg: LSAlgebroid, rep: Representation) -> _PointTables:
    """Integer tables of a point-base pair, computed once per call.

    Every rho, mu and product entry is scaled by one common denominator;
    each differential is linear in them, so scaling changes no rank.
    """
    _require_rank_domain(rep, alg)
    r = alg.rank
    rho = [mat.to_rational() for mat in rep.rho_mat]
    mu = [mat.to_rational() for mat in rep.mu_mat]
    prod = [[{k: v.constant_value() for k, v in alg.c[i][j].terms.items()}
             for j in range(r)] for i in range(r)]
    den = lcm(*{v.denominator for mats in (rho, mu) for mat in mats
                for row in mat for v in row},
              *{v.denominator for row in prod for table in row
                for v in table.values()})

    def scaled(mat):
        return [{p: v.numerator * (den // v.denominator)
                 for p, v in enumerate(row) if v} for row in mat]

    prod = [[{k: v.numerator * (den // v.denominator)
              for k, v in table.items()} for table in row] for row in prod]
    comm = {}
    for i, j in combinations(range(r), 2):
        total = dict(prod[i][j])
        for k, v in prod[j][i].items():
            total[k] = total.get(k, 0) - v
        comm[i, j] = [(k, v) for k, v in total.items() if v]
    return _PointTables(den, r, rep.s, [scaled(m) for m in rho],
                        [scaled(m) for m in mu], prod, comm)


def _point_rows(tables: _PointTables, degree: int) -> Iterator[dict]:
    """Rows of the representation differential from degree ``degree``
    to ``degree`` + 1, in ``cochain_basis`` order, as ``{col: int}``
    with no zero entries (the entries times ``tables.den``).

    Each block of rows (one codomain key, all value indices) receives the
    four terms of :func:`rep_d`: rho on the omitted argument, mu on the
    last slot, the product inserted into the last slot and the
    commutator inserted into the leading slots.
    """
    r, s = tables.rank, tables.s
    rho, mu, prod, comm = tables.rho, tables.mu, tables.prod, tables.comm
    position = {lead: pos
                for pos, lead in enumerate(combinations(range(r), degree - 1))}
    for lead in combinations(range(r), degree):
        # (sign, first column of the domain block (rest, 0, 0), i_a)
        omitted = [(1 if a % 2 == 0 else -1,
                    position[lead[:a] + lead[a + 1:]] * r * s, i_a)
                   for a, i_a in enumerate(lead)]
        inserted = []
        for a, b in combinations(range(degree), 2):
            sign = 1 if (a + b) % 2 == 0 else -1
            rest = tuple(lead[p] for p in range(degree) if p not in (a, b))
            for k, v in comm[lead[a], lead[b]]:
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


def assemble_point_differential(alg: LSAlgebroid, rep: Representation,
                                degree: int) \
        -> tuple[list[list[Fraction]], list, list]:
    """Rational matrix of the representation differential from degree
    ``degree`` to ``degree`` + 1 over a point base, with its bases.

    A dense view of the integer rows :func:`point_cohomology_dims`
    eliminates, built straight from the constant structure constants.
    """
    if not alg.is_point():
        raise NotPointCase("dense assembly requires a point base")
    tables = _point_tables(alg, rep)
    domain = cochain_basis(alg.rank, rep.s, degree)
    codomain = cochain_basis(alg.rank, rep.s, degree + 1)
    matrix = []
    for entries in _point_rows(tables, degree):
        row = [Fraction(0)] * len(domain)
        for col, v in entries.items():
            row[col] = Fraction(v, tables.den)
        matrix.append(row)
    return matrix, domain, codomain


def _c0_rows(tables: _PointTables) -> list[dict]:
    """Rows of the degree-zero membership condition: for every frame
    pair, the rows of rho_i rho_j - sum_k c_ij^k rho_k (times den^2)."""
    rho, r = tables.rho, tables.rank
    rows = []
    for i in range(r):
        for j in range(r):
            for m2, entries in enumerate(rho[i]):
                row: dict = {}
                for q, a in entries.items():
                    for p, b in rho[j][q].items():
                        row[p] = row.get(p, 0) + a * b
                for k, c in tables.prod[i][j].items():
                    for p, b in rho[k][m2].items():
                        row[p] = row.get(p, 0) - c * b
                rows.append({p: v for p, v in row.items() if v})
    return rows


def _d0_rows(tables: _PointTables) -> list[dict]:
    """Rows of the degree-zero differential x -> mu(x)e - rho(x)e, one
    per degree-1 basis key (times den)."""
    rows = []
    for mu_rows, rho_rows in zip(tables.mu, tables.rho):
        for mu_row, rho_row in zip(mu_rows, rho_rows):
            row = dict(mu_row)
            for p, v in rho_row.items():
                row[p] = row.get(p, 0) - v
            rows.append({p: v for p, v in row.items() if v})
    return rows


def point_cohomology_dims(alg: LSAlgebroid, rep: Representation,
                          n_max: int, check: bool = True) -> PointCohomology:
    """Cocycle, coboundary and cohomology dimensions in degrees 1..n_max
    over a point base, via exact rank computations.

    The degree-zero space is the subspace cut out by the curvature-style
    membership condition; both its dimension and the dimension of its
    kernel under the degree-zero differential are reported.  Each
    dimension is a column count minus the rank of integer rows built
    from the structure tables; no matrix is stored densely and no kernel
    basis is formed.
    """
    if n_max < 0:
        raise InvalidDegree(f"maximum degree must be at least 0, got {n_max}")
    if not alg.is_point():
        raise NotPointCase("cohomology dimensions require a point base")
    if check and not check_representation_lsa(alg, rep):
        raise NotARepresentation("(rho, mu) fails the representation identities")

    tables = _point_tables(alg, rep)
    r, s = alg.rank, rep.s
    # degree 0: C0 is the kernel of the condition rows, its closed part
    # the kernel of those rows stacked on the rows of d0
    condition = _c0_rows(tables)
    condition_rank = len(_forward_pivots(condition, s))
    closed_rank = len(_forward_pivots(condition + _d0_rows(tables), s))
    c0_dim = s - condition_rank
    c0_closed_dim = s - closed_rank

    degrees = []
    previous_rank = closed_rank - condition_rank   # rank of d0 on C0
    for k in range(1, n_max + 1):
        dim_c = comb(r, k - 1) * r * s
        rank = len(_forward_pivots(_point_rows(tables, k), dim_c))
        dim_z = dim_c - rank
        degrees.append(DegreeDims(k, dim_c, dim_z, previous_rank,
                                  dim_z - previous_rank))
        previous_rank = rank
    return PointCohomology(c0_dim, c0_closed_dim, degrees)
