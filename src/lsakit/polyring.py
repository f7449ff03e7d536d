"""Exact-arithmetic kernel.

Rational coefficients, sparse multivariate polynomials over declared
coordinates, polynomial vector fields and matrices, rational linear
algebra, and a recursive-descent parser for the polynomial expression
grammar:

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nonneg-int)?
    base     := rational | ident | '(' expr ')'
    rational := int ('/' posint)?

Whitespace is insignificant; implicit multiplication is not allowed.
The tokens and the size guards on literals live in ``_lexer``.

Coefficients are canonical: an ``int`` when the denominator is 1 and a
``Fraction`` only for a true fraction, never a float or a bool.
``as_rational`` makes that form from its input, and arithmetic turns a
``Fraction`` whose denominator cancels to 1 back into an ``int`` where
it arises.

Determinants, cofactors and the invertible-submatrix search share one
Laplace expansion over stored entries (``PolyMatrix._minor``), memoized
on (rows, columns) in a memo that one public call makes and drops; ranks
and kernels use integer elimination (``_forward_pivots``).

Everything here is immutable after construction and safe to share
between threads.  Public constructors validate their input; arithmetic
builds its results through the private trusted constructors
(``Poly._from``, ``SparseModule._from``), since operands that are
already valid give valid results.  The only writes after construction
are the cached ``_hash`` and ``_degree`` fields, each filled on first
use with a pure function of the value: threads that race on one write
equal values.
"""

from __future__ import annotations

import sys
from contextvars import ContextVar
from fractions import Fraction
from itertools import combinations, compress
from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence

from ._lexer import MAX_NESTING, _Cursor, _int, _size, _sized, _tokenize
from .errors import (
    DegreeOverflow,
    DimensionMismatch,
    IndexOutOfRange,
    NonConstantDeterminant,
    NotSquare,
    ParseError,
    SingularMatrix,
    UnknownVariable,
)

# the canonical coefficient type
Rational = int | Fraction

# per context, so each thread (which starts at the default) has its own
_DEGREE_LIMIT: ContextVar[int] = ContextVar("degree_limit", default=16)


def set_degree_limit(limit: int) -> None:
    """Set the current context's cap on the total degree of polynomial
    products."""
    if limit < 1:
        raise ValueError("degree limit must be a positive integer")
    _DEGREE_LIMIT.set(limit)


def _check_degree(degree: int, what: str = "product") -> None:
    """Raise DegreeOverflow when ``degree`` exceeds the current limit."""
    limit = _DEGREE_LIMIT.get()
    if degree > limit:
        raise DegreeOverflow(f"{what} degree {degree} exceeds limit {limit}")


def as_rational(value) -> Rational:
    """``value`` in canonical form: an ``int`` when its denominator is 1,
    else a ``Fraction``.  Floats and bools are refused."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        # the numerator of an int subclass is a plain int
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected a rational value, got {type(value).__name__}")


def _canonical(terms: dict) -> dict:
    """``terms`` with each ``Fraction`` value of denominator 1 replaced by
    its ``int``, in place."""
    for key, coeff in terms.items():
        if type(coeff) is Fraction and coeff.denominator == 1:
            terms[key] = coeff.numerator
    return terms


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class Poly:
    """Sparse multivariate polynomial with rational coefficients.

    ``coords`` is the ordered tuple of coordinate names; ``terms`` maps
    exponent tuples (one entry per coordinate) to nonzero coefficients,
    each an int or a Fraction in canonical form (never a float).  The
    zero polynomial has no terms.  Instances are immutable.
    """

    __slots__ = ("coords", "terms", "_degree", "_hash")

    def __init__(self, coords: Sequence[str], terms: dict):
        coords = tuple(coords)
        clean = {}
        n = len(coords)
        for exps, coeff in terms.items():
            coeff = as_rational(coeff)
            if not coeff:
                continue
            exps = tuple(exps)
            if len(exps) != n:
                raise DimensionMismatch(
                    f"exponent vector {exps} has length {len(exps)}, "
                    f"expected {n}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            clean[exps] = coeff
        self.coords = coords
        self.terms = clean
        self._degree = None
        self._hash = None

    @classmethod
    def _from(cls, coords: tuple, terms: dict) -> "Poly":
        """Trusted constructor: ``terms`` maps exponent tuples of length
        ``len(coords)`` with no negative entry to nonzero canonical
        coefficients (ints, or Fractions with denominator > 1)."""
        new = object.__new__(cls)
        new.coords = coords
        new.terms = terms
        new._degree = None
        new._hash = None
        return new

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, coords: Sequence[str]) -> "Poly":
        return cls._from(tuple(coords), {})

    @classmethod
    def constant(cls, value, coords: Sequence[str]) -> "Poly":
        value = as_rational(value)
        coords = tuple(coords)
        return cls._from(coords, {(0,) * len(coords): value} if value else {})

    @classmethod
    def variable(cls, name: str, coords: Sequence[str]) -> "Poly":
        coords = tuple(coords)
        if name not in coords:
            raise IndexOutOfRange(f"'{name}' is not among coordinates {coords}")
        exps = tuple(1 if c == name else 0 for c in coords)
        return cls._from(coords, {exps: 1})

    # -- predicates and views ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return self.total_degree <= 0

    def constant_value(self) -> Rational:
        if not self.is_constant():
            raise ValueError(f"'{self}' is not constant")
        if not self.terms:
            return 0
        return next(iter(self.terms.values()))

    @property
    def total_degree(self) -> int:
        # filled on first use; every thread computes the same value
        degree = self._degree
        if degree is None:
            degree = self._degree = max(map(sum, self.terms), default=-1)
        return degree

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Rational]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]),
                      reverse=True)

    # -- arithmetic ---------------------------------------------------
    # Results are built with ``_from``: operands are clean, a coefficient
    # that cancels to zero is dropped where it arises, and a Fraction
    # whose denominator cancels to 1 becomes an int there.

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.coords != self.coords:
                raise DimensionMismatch(
                    f"coordinate mismatch: {self.coords} vs {other.coords}")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(other, self.coords)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            if acc is None:
                terms[exps] = coeff
            else:
                acc += coeff
                if not acc:
                    del terms[exps]
                elif type(acc) is Fraction and acc.denominator == 1:
                    terms[exps] = acc.numerator
                else:
                    terms[exps] = acc
        return Poly._from(self.coords, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._from(self.coords, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if type(other) is not int:
                other = as_rational(other)
            if not other:
                return Poly._from(self.coords, {})
            return Poly._from(self.coords, _canonical(
                {e: c * other for e, c in self.terms.items()}))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return Poly._from(self.coords, {})
        _check_degree(self.total_degree + other.total_degree)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                coeff = c1 * c2
                acc = terms.get(key)
                if acc is not None:
                    coeff += acc
                    if not coeff:
                        del terms[key]
                        continue
                if type(coeff) is Fraction and coeff.denominator == 1:
                    coeff = coeff.numerator
                terms[key] = coeff
        return Poly._from(self.coords, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        _check_degree(self.total_degree * exponent, "power")
        result = Poly.constant(1, self.coords)
        for bit in bin(exponent)[2:]:  # square and multiply
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- calculus -----------------------------------------------------

    def partial(self, index: int) -> "Poly":
        """Formal partial derivative along the coordinate at ``index``."""
        if not 0 <= index < len(self.coords):
            raise IndexOutOfRange(
                f"coordinate index {index} out of range for {self.coords}")
        # lowering one exponent is injective on the terms it keeps
        return Poly._from(self.coords, _canonical({
            exps[:index] + (exps[index] - 1,) + exps[index + 1:]:
                coeff * exps[index]
            for exps, coeff in self.terms.items() if exps[index]}))

    # -- coordinate surgery -------------------------------------------

    def extend(self, new_coords: Sequence[str]) -> "Poly":
        """Reinterpret over a larger coordinate tuple (matched by name)."""
        new_coords = tuple(new_coords)
        try:
            positions = [new_coords.index(c) for c in self.coords]
        except ValueError as exc:
            raise DimensionMismatch(
                f"{new_coords} does not contain all of {self.coords}") from exc
        m = len(new_coords)
        terms = {}
        for exps, coeff in self.terms.items():
            new_exps = [0] * m
            for pos, e in zip(positions, exps):
                new_exps[pos] = e
            terms[tuple(new_exps)] = coeff
        return Poly._from(new_coords, terms)

    def substitute(self, name: str, value) -> "Poly":
        """Evaluate one coordinate at a rational value; drops that
        coordinate from the result."""
        if name not in self.coords:
            raise IndexOutOfRange(f"'{name}' is not among {self.coords}")
        value = as_rational(value)
        idx = self.coords.index(name)
        rest = self.coords[:idx] + self.coords[idx + 1:]
        terms: dict = {}
        for exps, coeff in self.terms.items():
            key = exps[:idx] + exps[idx + 1:]
            acc = terms.get(key)
            coeff = coeff * value ** exps[idx]
            if acc is not None:
                coeff += acc
            if coeff:
                terms[key] = coeff
            else:
                terms.pop(key, None)
        return Poly._from(rest, _canonical(terms))

    # -- comparison, hashing, printing --------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if not self.terms:
                return other == 0
            if len(self.terms) > 1:
                return False
            (exps, coeff), = self.terms.items()
            return coeff == other and not any(exps)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coords == other.coords and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.coords, frozenset(self.terms.items())))
        return self._hash

    def _monomial_str(self, exps: tuple[int, ...]) -> str:
        parts = []
        for name, e in zip(self.coords, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for i, (exps, coeff) in enumerate(self.sorted_terms()):
            mono = self._monomial_str(exps)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if i == 0:
                # A leading negative must stay inside the grammar, which has
                # no unary minus: print the signed rational explicitly.
                if coeff < 0:
                    body = f"{-mag}*{mono}" if mono else str(-mag)
                pieces.append(body)
            else:
                pieces.append(f"{'-' if coeff < 0 else '+'} {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Poly({self!s})"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def parse_poly(text: str, coords: Sequence[str]) -> Poly:
    """Parse ``text`` against the polynomial grammar over ``coords``."""
    coords = tuple(coords)
    cursor = _Cursor(_tokenize(text), len(text))
    poly = _parse_expr(cursor, coords)
    kind, value, pos = cursor.peek()
    if kind is not None:
        raise ParseError(f"unexpected trailing input {value!r}", pos,
                         "'+', '-', '*', '^' or end of input")
    return poly


def _parse_expr(cursor: _Cursor, coords) -> Poly:
    poly = _parse_term(cursor, coords)
    while True:
        kind, value, pos = cursor.peek()
        if kind == "op" and value in "+-":
            cursor.advance()
            rhs = _parse_term(cursor, coords)
            poly = _sized(poly + rhs if value == "+" else poly - rhs, pos)
        else:
            return poly


def _parse_term(cursor: _Cursor, coords) -> Poly:
    poly = _parse_factor(cursor, coords)
    while True:
        kind, value, pos = cursor.peek()
        if kind == "op" and value == "*":
            cursor.advance()
            poly = _sized(poly * _parse_factor(cursor, coords), pos)
        else:
            return poly


def _parse_factor(cursor: _Cursor, coords) -> Poly:
    base = _parse_base(cursor, coords)
    kind, value, _ = cursor.peek()
    if kind == "op" and value == "^":
        cursor.advance()
        kind, value, pos = cursor.advance()
        if kind != "int":
            raise ParseError("invalid exponent", pos, "a non-negative integer")
        exponent, limit = _int(value, pos), sys.get_int_max_str_digits()
        # coefficients obey the integer-string limit, as literals do; a
        # constant's power has at least exponent * (bits - 1) bits, and
        # 2 ** (4 * limit) > 10 ** limit: refuse it before computing it
        if limit and base.is_constant() \
                and exponent * (_size(base).bit_length() - 1) > 4 * limit:
            raise ParseError("power coefficient too long", pos)
        base = _sized(base ** exponent, pos, "power coefficient too long")
    return base


def _parse_rational(cursor: _Cursor, negative: bool) -> Rational:
    kind, value, pos = cursor.advance()
    if kind != "int":
        raise ParseError("invalid number", pos, "an integer")
    numerator = -_int(value, pos) if negative else _int(value, pos)
    kind, value, _ = cursor.peek()
    if kind == "op" and value == "/":
        cursor.advance()
        kind, value, pos = cursor.advance()
        denominator = _int(value, pos) if kind == "int" else 0
        if denominator == 0:
            raise ParseError("invalid denominator", pos, "a positive integer")
        return as_rational(Fraction(numerator, denominator))
    return numerator


def _parse_base(cursor: _Cursor, coords) -> Poly:
    kind, value, pos = cursor.peek()
    if kind == "op" and value == "-":
        cursor.advance()
        return Poly.constant(_parse_rational(cursor, True), coords)
    if kind == "int":
        return Poly.constant(_parse_rational(cursor, False), coords)
    if kind == "ident":
        cursor.advance()
        if value not in coords:
            raise UnknownVariable(value, pos)
        return Poly.variable(value, coords)
    if kind == "op" and value == "(":
        cursor.advance()
        if cursor.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                             pos)
        cursor.depth += 1
        poly = _parse_expr(cursor, coords)
        cursor.depth -= 1
        kind, value, pos = cursor.advance()
        if kind != "op" or value != ")":
            raise ParseError("unbalanced parenthesis", pos, "')'")
        return poly
    raise ParseError(f"unexpected token {value!r}" if kind else "unexpected end of input",
                     pos, "a number, a variable, or '('")


# ---------------------------------------------------------------------------
# Sparse module elements
# ---------------------------------------------------------------------------

def sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning the permutation parity (0 for a
    repeated index)."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


def _accumulate(out: dict, key, value) -> None:
    """Add ``value`` into ``out[key]``, dropping the entry if it cancels."""
    acc = out.get(key)
    if acc is not None:
        value = acc + value
    if value.is_zero():
        out.pop(key, None)
    else:
        out[key] = value


def _add_scaled(out: dict, element: "SparseModule", factor=1) -> None:
    """Accumulate ``factor`` times a polynomial-valued element into
    ``out``."""
    for key, value in element.terms.items():
        _accumulate(out, key, value if factor == 1 else value * factor)


def _index_tuple(key, rank: int, length: int | None = None) -> tuple:
    """Validate a strictly increasing tuple of frame indices."""
    key = tuple(key)
    if length is not None and len(key) != length:
        raise DimensionMismatch(f"index tuple {key} has wrong length")
    if any(not 0 <= i < rank for i in key):
        raise DimensionMismatch(f"index tuple {key} out of range")
    if any(a >= b for a, b in zip(key, key[1:])):
        raise DimensionMismatch(
            f"index tuple {key} must be strictly increasing")
    return key


def _poly_value(value, coords: tuple) -> Poly:
    if not isinstance(value, Poly):
        return Poly.constant(value, coords)
    if value.coords != coords:
        raise DimensionMismatch(
            f"component over {value.coords}, expected {coords}")
    return value


class SparseModule:
    """Immutable sparse map from keys to nonzero values, over a shape.

    Each of the seven value types (the section-like objects and
    ``PolyMatrix``) is a module over the polynomial ring of the base:
    ``terms`` maps keys to polynomials or to other module elements,
    and zero values are never stored.  A subclass unpacks its shape
    tuple (``coords`` first) into named attributes in ``_set_shape`` and
    validates one entry in ``_entry``; the linear structure, equality,
    hashing and the alternating lookup are defined here once.
    """

    __slots__ = ("terms", "_hash", "_shape")

    def _set_shape(self, shape: tuple) -> None:
        (self.coords,) = self._shape = shape

    def _entry(self, key, value):
        return key, _poly_value(value, self.coords)

    def _fill(self, shape: tuple, items) -> None:
        self._set_shape(shape)
        terms = {}
        for key, value in items:
            key, value = self._entry(key, value)
            if not value.is_zero():
                terms[key] = value
        self.terms = terms
        self._hash = None

    @classmethod
    def _from(cls, shape: tuple, terms: dict):
        """Trusted constructor: ``terms`` is already clean for ``shape``."""
        new = object.__new__(cls)
        new._set_shape(shape)
        new.terms = terms
        new._hash = None
        return new

    def _like(self, terms: dict):
        return self._from(self._shape, terms)

    def _check(self, other) -> None:
        if type(other) is not type(self) or other._shape != self._shape:
            raise DimensionMismatch(f"{type(self).__name__} shape mismatch")

    def _lookup(self, indices: Sequence[int], *last):
        """Stored value at an unsorted leading index tuple (plus an
        optional trailing key part), with the permutation sign folded
        in; None where the alternating value vanishes."""
        key, sign = sort_with_sign(indices)
        if sign == 0:
            return None
        value = self.terms.get((key, *last) if last else key)
        if value is None or sign == 1:
            return value
        return -value

    def _dense(self, length: int) -> tuple:
        zero = Poly.zero(self.coords)
        return tuple(self.terms.get(k, zero) for k in range(length))

    def _combine(self, other, negate: bool):
        self._check(other)
        # values are immutable, so a zero operand hands back the other one
        if not other.terms:
            return self
        if not self.terms:
            return -other if negate else other
        terms = dict(self.terms)
        for key, value in other.terms.items():
            _accumulate(terms, key, -value if negate else value)
        return self._like(terms)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def scale(self, factor):
        """Multiply every value by a polynomial or rational factor."""
        if not self.terms:
            return self
        terms = {}
        for key, value in self.terms.items():
            value = value.scale(factor) if isinstance(value, SparseModule) \
                else value * factor
            if not value.is_zero():
                terms[key] = value
        return self._like(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._shape == other._shape and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((type(self).__name__, self._shape,
                               frozenset(self.terms.items())))
        return self._hash


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------

class VectorField(SparseModule):
    """Polynomial vector field: one coefficient per coordinate direction,
    stored sparsely by coordinate index."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[str], components: Sequence[Poly]):
        coords = tuple(coords)
        components = tuple(components)
        if len(components) != len(coords):
            raise DimensionMismatch(
                f"{len(components)} components for {len(coords)} "
                f"coordinates")
        self._fill((coords,), enumerate(components))

    @classmethod
    def zero(cls, coords: Sequence[str]) -> "VectorField":
        return cls._from((tuple(coords),), {})

    @property
    def components(self) -> tuple[Poly, ...]:
        return self._dense(len(self.coords))

    def apply(self, f: Poly) -> Poly:
        """Act on a function as a derivation."""
        if f.coords != self.coords:
            raise DimensionMismatch(
                f"function over {f.coords}, field over {self.coords}")
        result = Poly.zero(self.coords)
        if not self.terms or f.is_constant():
            return result
        for mu, comp in self.terms.items():
            derived = f.partial(mu)
            if not derived.is_zero():
                result = result + comp * derived
        return result

    def bracket(self, other: "VectorField") -> "VectorField":
        """Commutator of derivations."""
        self._check(other)
        out: dict = {}
        for mu, y in other.terms.items():
            _accumulate(out, mu, self.apply(y))
        for mu, x in self.terms.items():
            _accumulate(out, mu, -other.apply(x))
        return self._like(out)

    def extend(self, new_coords: Sequence[str]) -> "VectorField":
        """Lift to a larger coordinate tuple with zero new components."""
        new_coords = tuple(new_coords)
        if not set(self.coords) <= set(new_coords):
            raise DimensionMismatch(
                f"{new_coords} does not contain all of {self.coords}")
        return self._from((new_coords,), {
            new_coords.index(self.coords[mu]): comp.extend(new_coords)
            for mu, comp in self.terms.items()})

    def substitute(self, name: str, value) -> "VectorField":
        if name not in self.coords:
            raise IndexOutOfRange(f"'{name}' is not among {self.coords}")
        idx = self.coords.index(name)
        rest = self.coords[:idx] + self.coords[idx + 1:]
        terms = {}
        for mu, comp in self.terms.items():
            if mu != idx:
                comp = comp.substitute(name, value)
                if not comp.is_zero():
                    terms[mu - (mu > idx)] = comp
        return self._from((rest,), terms)

    def __str__(self):
        parts = [f"({self.terms[mu]})*d/d{self.coords[mu]}"
                 for mu in sorted(self.terms)]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"VectorField({self!s})"


def partial_derivative(p: Poly, index: int) -> Poly:
    return p.partial(index)


def vf_apply(field: VectorField, f: Poly) -> Poly:
    return field.apply(f)


def vf_bracket(x: VectorField, y: VectorField) -> VectorField:
    return x.bracket(y)


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------

class PolyMatrix(SparseModule):
    """Matrix with polynomial entries over shared coordinates, stored
    sparsely by ``(row, col)``; ``entries`` is the dense view."""

    __slots__ = ("coords", "rows", "cols")

    def __init__(self, coords: Sequence[str], entries: Sequence[Sequence]):
        entries = [tuple(row) for row in entries]
        cols = len(entries[0]) if entries else 0
        if any(len(row) != cols for row in entries):
            raise DimensionMismatch("ragged matrix rows")
        self._fill((tuple(coords), len(entries), cols),
                   (((i, j), value) for i, row in enumerate(entries)
                    for j, value in enumerate(row)))

    def _set_shape(self, shape: tuple) -> None:
        self.coords, self.rows, self.cols = self._shape = shape

    @classmethod
    def identity(cls, n: int, coords: Sequence[str]) -> "PolyMatrix":
        coords = tuple(coords)
        one = Poly.constant(1, coords)
        return cls._from((coords, n, n), {(i, i): one for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int, coords: Sequence[str]) -> "PolyMatrix":
        return cls._from((tuple(coords), rows, cols), {})

    @property
    def entries(self) -> tuple[tuple[Poly, ...], ...]:
        zero = Poly.zero(self.coords)
        get = self.terms.get
        return tuple(tuple(get((i, j), zero) for j in range(self.cols))
                     for i in range(self.rows))

    def _index(self, index: int, size: int, what: str) -> None:
        if not 0 <= index < size:
            raise IndexOutOfRange(
                f"{what} index {index} out of range for "
                f"{self.rows}x{self.cols} matrix")

    def entry(self, i: int, j: int) -> Poly:
        self._index(i, self.rows, "row")
        self._index(j, self.cols, "column")
        return self.terms.get((i, j)) or Poly.zero(self.coords)

    def column(self, j: int) -> tuple[Poly, ...]:
        self._index(j, self.cols, "column")
        zero = Poly.zero(self.coords)
        return tuple(self.terms.get((i, j), zero) for i in range(self.rows))

    def _apply_into(self, out: dict, values: dict) -> None:
        """Accumulate this matrix times the sparse vector ``values``
        (column index -> nonzero polynomial) into ``out`` by row."""
        for (i, j), entry in self.terms.items():
            value = values.get(j)
            if value is not None:
                _accumulate(out, i, entry * value)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.coords != other.coords:
            raise DimensionMismatch("coordinate mismatch in matrix product")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}")
        by_row: dict = {}
        for (k, j), value in other.terms.items():
            by_row.setdefault(k, []).append((j, value))
        out: dict = {}
        for (i, k), left in self.terms.items():
            for j, value in by_row.get(k, ()):
                _accumulate(out, (i, j), left * value)
        return self._from((self.coords, self.rows, other.cols), out)

    def transpose(self) -> "PolyMatrix":
        return self._from((self.coords, self.cols, self.rows),
                          {(j, i): v for (i, j), v in self.terms.items()})

    def matvec(self, vector: Sequence[Poly]) -> tuple[Poly, ...]:
        if len(vector) != self.cols:
            raise DimensionMismatch(
                f"vector of length {len(vector)} for {self.cols} columns")
        out: dict = {}
        self._apply_into(out, {j: v for j, v in enumerate(vector)
                               if not v.is_zero()})
        zero = Poly.zero(self.coords)
        return tuple(out.get(i, zero) for i in range(self.rows))

    def is_constant(self) -> bool:
        return all(e.is_constant() for e in self.terms.values())

    def to_rational(self) -> list[list[Rational]]:
        if not self.is_constant():
            raise NonConstantDeterminant("matrix has non-constant entries")
        return [[e.constant_value() for e in row] for row in self.entries]

    def det(self) -> Poly:
        if self.rows != self.cols:
            raise NotSquare(f"{self.rows}x{self.cols} matrix has no determinant")
        every = tuple(range(self.rows))
        return self._minor(every, every, {})

    def _minor(self, rows: tuple[int, ...], cols: tuple[int, ...],
               memo: dict) -> Poly:
        """Determinant of the ``rows`` x ``cols`` submatrix, expanded
        along its first column over stored entries only.  Memoized by
        ``(rows, cols)`` in ``memo``, which the public call that asked
        for the minor owns: no minor outlives that call."""
        if not rows:
            return Poly.constant(1, self.coords)
        minor = memo.get((rows, cols))
        if minor is None:
            minor = Poly.zero(self.coords)
            for pos, i in enumerate(rows):
                entry = self.terms.get((i, cols[0]))
                if entry is not None:
                    term = entry * self._minor(rows[:pos] + rows[pos + 1:],
                                               cols[1:], memo)
                    minor = minor + term if pos % 2 == 0 else minor - term
            memo[rows, cols] = minor
        return minor

    def adjugate(self) -> "PolyMatrix":
        """Transposed cofactor matrix."""
        if self.rows != self.cols:
            raise NotSquare("adjugate requires a square matrix")
        return self._adjugate({})

    def _adjugate(self, memo: dict) -> "PolyMatrix":
        every, out = tuple(range(self.rows)), {}
        for i in every:
            for j in every:
                minor = self._minor(every[:i] + every[i + 1:],
                                    every[:j] + every[j + 1:], memo)
                _accumulate(out, (j, i), minor if (i + j) % 2 == 0 else -minor)
        return self._like(out)

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries) + "]"

    def __repr__(self):
        return f"PolyMatrix({self!s})"


def matrix_inverse_adjugate(matrix: PolyMatrix) -> PolyMatrix:
    """Polynomial inverse via the adjugate.

    Refuses unless the determinant is a nonzero constant, so that the
    inverse stays inside the polynomial ring.  The determinant and the
    cofactors share one memo of minors: the cofactors along the first
    column are read from the determinant's expansion.
    """
    if matrix.rows != matrix.cols:
        raise NotSquare("inverse requires a square matrix")
    every, memo = tuple(range(matrix.rows)), {}
    det = matrix._minor(every, every, memo)
    if det.is_zero():
        raise SingularMatrix("matrix determinant is zero")
    if not det.is_constant():
        raise NonConstantDeterminant(
            f"determinant {det} is not constant; polynomial inverse refused")
    return matrix._adjugate(memo).scale(Fraction(1, det.constant_value()))


# ---------------------------------------------------------------------------
# Rational linear algebra
# ---------------------------------------------------------------------------

_EXACT_TYPES = {Fraction, int}


def _integer_row(row: list) -> dict:
    """Nonzero entries of a rational row as integers (the row scaled by
    its common denominator)."""
    entries = {j: row[j] for j in compress(range(len(row)), row)}
    den = lcm(*(v.denominator for v in entries.values()))
    return {j: v.numerator * (den // v.denominator)
            for j, v in entries.items()}


def _primitive(row: dict) -> dict:
    content = gcd(*row.values())
    if content > 1:
        return {j: v // content for j, v in row.items()}
    return row


def _eliminate(row: dict, pivot: dict, col: int) -> dict:
    """Integer combination of ``row`` and ``pivot`` with no entry in
    ``col``, made primitive."""
    a, b = pivot[col], row[col]
    common = gcd(a, b)
    a, b = a // common, b // common
    out = {j: a * v for j, v in row.items()}
    for j, v in pivot.items():
        total = out.get(j, 0) - b * v
        if total:
            out[j] = total
        else:
            del out[j]
    return _primitive(out)


def _forward_pivots(rows: Iterable[dict], ncols: int) -> dict[int, dict]:
    """Row echelon form of sparse integer rows (``{col: int}``, zero
    entries absent), as pivot column -> primitive pivot row; its length
    is the rank.

    Pivot columns are taken left to right, each from the shortest row
    reaching it (Markowitz), by integer cross-multiplication.
    """
    # rows by leading column; every row in the bucket of column c has
    # nothing left of c once the columns before c are eliminated
    buckets: dict[int, list[dict]] = {}
    for row in rows:
        if row:
            row = _primitive(row)
            buckets.setdefault(min(row), []).append(row)
    pivots: dict[int, dict] = {}
    for col in range(ncols):
        hits = buckets.pop(col, None)
        if hits is None:
            continue
        pivot = min(hits, key=len)
        for row in hits:
            if row is not pivot:
                row = _eliminate(row, pivot, col)
                if row:
                    buckets.setdefault(min(row), []).append(row)
        pivots[col] = pivot
    return pivots


def rational_kernel_and_rank(matrix: Sequence[Sequence],
                             cols: int | None = None) \
        -> tuple[int, list[tuple[Rational, ...]]]:
    """Exact rank and kernel basis of a rational matrix.

    Returns ``(rank, basis)`` where each basis vector spans the null
    space; rank + len(basis) equals the number of columns.  Total on all
    inputs; pass ``cols`` for matrices with no rows (it must match the
    row length when there are rows).

    The basis is read off the reduced row echelon form, so it is unique.
    Rows are cleared of denominators, brought to echelon form sparsely
    as primitive integer vectors by :func:`_forward_pivots`, then
    reduced by back substitution.
    """
    rows = []
    for row in matrix:
        row = list(row)
        if not set(map(type, row)) <= _EXACT_TYPES:
            row = list(map(as_rational, row))
        rows.append(row)
    ncols = len(rows[0]) if rows else (cols or 0)
    for row in rows:
        if len(row) != ncols:
            raise DimensionMismatch("ragged matrix rows")
    if rows and cols is not None and cols != ncols:
        raise DimensionMismatch(f"rows have {ncols} columns, expected {cols}")

    pivots = _forward_pivots(map(_integer_row, rows), ncols)
    for col in reversed(list(pivots)):
        row = pivots[col]
        for other in [j for j in row if j != col and j in pivots]:
            row = _eliminate(row, pivots[other], other)
        pivots[col] = row

    free = [j for j in range(ncols) if j not in pivots]
    slot = {j: pos for pos, j in enumerate(free)}
    basis = [[0] * ncols for _ in free]
    for j, vec in zip(free, basis):
        vec[j] = 1
    for col, row in pivots.items():
        den = row[col]
        for j, v in row.items():
            if j != col:
                basis[slot[j]][col] = as_rational(Fraction(-v, den))
    return len(pivots), [tuple(vec) for vec in basis]


def find_constant_invertible_submatrix(matrix: PolyMatrix) \
        -> tuple[int, ...] | None:
    """Rows of a square submatrix with nonzero constant determinant.

    Searches row subsets of size ``matrix.cols`` in lexicographic order;
    returns None when no such subset exists.  The subsets share one memo
    of minors.
    """
    cols, memo = tuple(range(matrix.cols)), {}
    for rows in combinations(range(matrix.rows), matrix.cols):
        det = matrix._minor(rows, cols, memo)
        if det.is_constant() and not det.is_zero():
            return rows
    return None
