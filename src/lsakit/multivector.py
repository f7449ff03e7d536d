"""Exterior-algebra extension of the section multiplication.

Multivectors are graded sums of wedge monomials with polynomial
coefficients; grade 0 is the function part.  The extended product drops
the total grade by one: on a pair of decomposables it expands as a
signed double sum of pairwise section products wedged with the omitted
factors, a section acting on a function goes through the anchor, and a
function acting from the left gives zero.  Wedge monomials produced by
the expansion are re-sorted into increasing frame order with the
permutation sign folded into the coefficient.

The induced graded bracket is the Schouten bracket of the sub-adjacent
structure; the shifted grading sigma = grade - 1 governs all signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    LSAlgebroid,
    Section,
    _commutator_algebroid,
    check_lie_algebroid,
)
from .errors import DimensionMismatch
from .polyring import (
    Poly,
    SparseModule,
    _accumulate,
    _index_tuple,
    _poly_value,
    sort_with_sign,
)
from .report import Report


class Multivector(SparseModule):
    """Graded exterior element: map from increasing frame-index tuples
    to polynomial coefficients (the empty tuple holds the function part)."""

    __slots__ = ("coords", "rank")

    def __init__(self, coords, rank: int, terms: dict):
        self._fill((tuple(coords), rank), terms.items())

    def _set_shape(self, shape: tuple) -> None:
        self.coords, self.rank = self._shape = shape

    def _entry(self, key, value):
        return _index_tuple(key, self.rank), _poly_value(value, self.coords)

    @classmethod
    def zero(cls, coords, rank: int) -> "Multivector":
        return cls(coords, rank, {})

    @classmethod
    def from_poly(cls, value: Poly, rank: int) -> "Multivector":
        return cls(value.coords, rank, {(): value})

    @classmethod
    def from_section(cls, section: Section) -> "Multivector":
        return cls._from((section.coords, section.rank),
                         {(i,): comp for i, comp in section.terms.items()})

    @classmethod
    def basis_wedge(cls, coords, rank: int, indices: Sequence[int],
                    coeff=1) -> "Multivector":
        return cls(coords, rank, {tuple(indices): coeff})

    # -- structure ----------------------------------------------------

    def grades(self) -> list[int]:
        return sorted({len(k) for k in self.terms})

    def is_homogeneous(self) -> bool:
        return len(self.grades()) <= 1

    def grade(self) -> int:
        """Grade of a homogeneous multivector (zero for the zero element)."""
        grades = self.grades()
        if len(grades) > 1:
            raise ValueError(f"multivector mixes grades {grades}")
        return grades[0] if grades else 0

    def homogeneous_component(self, k: int) -> "Multivector":
        return self._like({key: v for key, v in self.terms.items()
                           if len(key) == k})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (len(k), k)):
            label = "^".join(f"e_{i + 1}" for i in key) if key else "1"
            parts.append(f"({self.terms[key]})*{label}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Multivector({self!s})"


def wedge(x: Multivector, y: Multivector) -> Multivector:
    """Exterior product; graded-commutative and associative."""
    x._check(y)
    terms: dict = {}
    for kx, px in x.terms.items():
        for ky, py in y.terms.items():
            merged, sign = sort_with_sign(kx + ky)
            if sign != 0:
                _accumulate(terms, merged, px * py * sign)
    return x._like(terms)


def _term_product(alg: LSAlgebroid, key_x, poly_x: Poly, key_y,
                  poly_y: Poly) -> dict:
    """Extended product of the terms poly_x e_{key_x} and poly_y e_{key_y},
    as wedge key -> nonzero polynomial.  Slot by slot, the pair of
    factors (a, b) contributes the section product of e_{key_x[a]} and
    e_{key_y[b]} wedged with the remaining factors; the coefficients
    multiply through except where the anchor of the left factor
    differentiates the coefficient carried by the first right slot
    (b == 0).  Bilinear over Q in (poly_x, poly_y).
    """
    k, l = len(key_x), len(key_y)
    out: dict = {}
    if k == 0:
        return out  # a function acting from the left gives zero
    both = poly_x * poly_y if l else None
    for a in range(k):
        i = key_x[a]
        derived = alg.anchor[i].apply(poly_y)
        if not derived.is_zero():
            derived = poly_x * derived
            if l == 0:
                # sections differentiate the function through the anchor;
                # the coefficient slot factors out by left linearity
                sign = -1 if (k - (a + 1)) % 2 else 1
                _accumulate(out, key_x[:a] + key_x[a + 1:], derived * sign)
        for b in range(l):
            j = key_y[b]
            terms = {m: both * comp for m, comp in alg.c[i][j].terms.items()}
            if b == 0 and not derived.is_zero():
                _accumulate(terms, j, derived)
            pair_sign = -1 if (a + b) % 2 else 1
            rest = key_x[:a] + key_x[a + 1:] + key_y[:b] + key_y[b + 1:]
            for m, value in terms.items():
                merged, sign = sort_with_sign((m,) + rest)
                if sign != 0:
                    _accumulate(out, merged, value * (pair_sign * sign))
    return out


def _graded_sum(alg: LSAlgebroid, x: Multivector, y: Multivector,
                bracket: bool) -> Multivector:
    """x.y, or with ``bracket`` [x, y], summed over the pairs of terms.
    The bracket adds -(-1)^((k-1)(l-1)) times the product in the other
    order for a pair of grades k and l."""
    x._check(y)
    if x.coords != alg.coords or x.rank != alg.rank:
        raise DimensionMismatch("multivectors do not live on this bundle")
    out: dict = {}
    for key_x, poly_x in x.terms.items():
        for key_y, poly_y in y.terms.items():
            for key, value in _term_product(alg, key_x, poly_x, key_y,
                                            poly_y).items():
                _accumulate(out, key, value)
            if bracket:
                twist = 1 if (len(key_x) - 1) * (len(key_y) - 1) % 2 else -1
                for key, value in _term_product(alg, key_y, poly_y, key_x,
                                                poly_x).items():
                    _accumulate(out, key, value if twist == 1 else -value)
    return x._like(out)


def graded_product(alg: LSAlgebroid, x: Multivector, y: Multivector) \
        -> Multivector:
    """Extended multiplication; drops total grade by one."""
    return _graded_sum(alg, x, y, False)


def graded_bracket(alg: LSAlgebroid, x: Multivector, y: Multivector) \
        -> Multivector:
    """Graded commutator of the extended multiplication (the Schouten
    bracket of the sub-adjacent structure)."""
    return _graded_sum(alg, x, y, True)


def _require_homogeneous(*items: Multivector) -> tuple[int, ...]:
    grades = []
    for item in items:
        if not item.is_homogeneous():
            raise ValueError("arguments must be homogeneous")
        grades.append(item.grade())
    return tuple(grades)


def graded_associator(alg: LSAlgebroid, x: Multivector, y: Multivector,
                      z: Multivector) -> Multivector:
    return graded_product(alg, graded_product(alg, x, y), z) \
        - graded_product(alg, x, graded_product(alg, y, z))


def left_symmetry_defect(alg: LSAlgebroid, x: Multivector, y: Multivector,
                         z: Multivector) -> Multivector:
    """Associator minus its sign-twisted first-two-slot swap."""
    gx, gy, _ = _require_homogeneous(x, y, z)
    return _swap_defect(graded_associator(alg, x, y, z),
                        graded_associator(alg, y, x, z), gx - 1, gy - 1)


def _swap_defect(assoc_xyz: Multivector, assoc_yxz: Multivector, sx: int,
                 sy: int) -> Multivector:
    """Left-symmetry defect from the associators at (x, y, z) and
    (y, x, z); sx and sy are the shifted degrees of x and y."""
    return assoc_xyz - assoc_yxz.scale(-1 if (sx * sy) % 2 else 1)


@dataclass
class GradedSampleSpec:
    """Bounds of a sample of wedge monomials: grades up to
    ``max_grade``, monomial coefficients up to ``max_coeff_degree``.
    ``check_graded_properties`` decides exactly and reads neither.  The
    class stays because the benchmark's graded workload
    (``bench/workloads.py``, ``bench/record_expected.py``) constructs
    one, and the tests' sampled oracle draws from it."""

    max_grade: int = 3
    max_coeff_degree: int = 1


def check_graded_properties(alg: LSAlgebroid,
                            spec: GradedSampleSpec | None = None) -> Report:
    """Decide the graded identities of the extended product exactly, from
    frame identities of the commutator.  ``spec`` bounds nothing here; it
    stays because the benchmark's graded workload (``bench/workloads.py``,
    ``bench/record_expected.py``) passes one, and the tests' sampled
    oracle reads it.

    Four records hold for any tables: the grade rule for the extended
    product and its agreement with the section product in grade one, by
    the construction of ``_term_product`` (the proofs stand at the
    records), ``defect-antisymmetry``, as s^2 = 1 below, and
    ``graded-leibniz``,
    [X, Y^Z] = [X, Y]^Z + (-1)^(sigma_X |Y|) Y^[X, Z] with sigma = grade - 1.
    For a section u, D_u acts on g e_J by the anchor of u on g plus u.e_j
    in the slot of each e_j, a derivation of the wedge of degree 0.
    ``_term_product`` expands slot by slot: moving the product factor to
    right slot b cancels the b of the pair sign, and the anchor term is
    counted once.  So for X = f x_1^...^x_k, X.W is the sum over 0-based a
    of (-1)^(k-1-a) f X_a^(D_{x_a} W), with X_a the unit wedge without
    x_a, alternating in the x_a.  As X_a has grade sigma_X,
    X.(Y^Z) = (X.Y)^Z + (-1)^(sigma_X |Y|) Y^(X.Z); as a slot of Y in Y^Z
    gains (-1)^|Z| and D_{y_a} X (grade |X|) moves past Z,
    (Y^Z).X = (-1)^(sigma_X |Z|) (Y.X)^Z + Y^(Z.X).  Putting both into
    [X, W] = X.W - (-1)^(sigma_X sigma_W) W.X, with
    sigma_{Y^Z} = |Y| + |Z| - 1, gives the rule.

    Jacobi follows from two frame identities.  The bracket is a graded
    commutator, so it is graded antisymmetric, and it obeys the Leibniz
    rule; so its Jacobiator J is a graded derivation of the wedge in
    each argument.  Multivectors are generated by the coordinates and
    the frame sections, and a function on the left gives zero, so the
    bracket of two functions is zero and J vanishes with two function
    arguments.  So J = 0 everywhere iff J(e_i, e_j, e_k) = 0, the frame
    Jacobi identity of the commutator on i < j < k, and
    J(e_i, e_j, x_mu) = 0, its anchor identity on i < j.  The signed
    cyclic sum of left-symmetry defects is +-J (the product has shifted
    degree 0), so ``lie-admissible`` and ``graded-jacobi`` share the
    verdict and the witnesses.
    """
    return _graded_report(check_lie_algebroid(_commutator_algebroid(alg)))


def _graded_report(lie: Report) -> Report:
    """:func:`check_graded_properties` given ``lie``, the
    :func:`check_lie_algebroid` report of the commutator table."""
    report = Report("graded structure")
    # every key _term_product emits is (m,) + rest, rest of length
    # (k - 1) + (l - 1), or for l = 0 key_x less one factor; a function on
    # the left gives nothing: each has length k + l - 1
    report.add("grade-rule", "extended product drops total grade by one",
               True)
    # on unit sections poly_y = 1, so the anchor term is zero, and the one
    # slot pair (a, b) = (0, 0) gives exactly c_ij
    report.add("degree-one-reduction",
               "extended product restricts to the section product", True)
    witnesses = [*lie.record("jacobi").witnesses,
                 *lie.record("anchor-morphism").witnesses][:5]
    report.add("lie-admissible",
               "graded Lie-admissibility defect vanishes on sampled triples",
               not witnesses, witnesses)
    report.add("graded-leibniz",
               "bracket satisfies the graded Leibniz rule on sampled triples",
               True)
    report.add("graded-jacobi",
               "bracket satisfies the graded Jacobi identity on sampled "
               "triples", not witnesses, witnesses)
    # D(y, x, z) = -s D(x, y, z) for s = (-1)^(sigma_x sigma_y), as s^2 = 1
    report.add("defect-antisymmetry",
               "left-symmetry defect is shifted-antisymmetric in its first "
               "two slots", True)
    return report
