"""Tests for the representation and deformation cochain complexes."""

import functools
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lsakit
from helpers import (
    action_instance,
    c0_basis_oracle,
    ce_point_dims,
    cochain_evaluate_oracle,
    dense_kernel_oracle,
    dense_point_dims,
    flat_instance,
    form_evaluate_oracle,
    ladder_instance,
    point_algebra,
    point_e1e2,
    random_poly,
    random_section,
    reframed,
    rep_mu_section,
    right_mult_matrices,
    sum_of_e1e2,
    unit_point_algebra,
    zero_point_algebra,
)
from lsakit.cohomology import (
    MultiDerivation,
    RepCochain,
    _point_rows,
    _point_tables,
    assemble_point_differential,
    check_c0,
    cochain_basis,
    def_d,
    evaluate_on_sections,
    point_cohomology_dims,
    rep_d,
    rep_d0,
)
from lsakit.constructions import (
    check_representation_lsa,
    action_algebroid,
    lsa_from_phase,
    semidirect_lsa,
)
from lsakit.core import (
    FormCochain,
    LSAlgebroid,
    Representation,
    Section,
    build_left_mult_rep,
    check_left_symmetric,
    rep_mu_frame,
    rep_rho_frame,
    section_mult,
    sub_adjacent,
)
from lsakit.errors import (
    ArityError,
    DimensionMismatch,
    InvalidDegree,
    NotARepresentation,
    NotPointCase,
)
from lsakit.instances import CORPUS_NAMES, load_corpus
from lsakit.polyring import (
    Poly,
    PolyMatrix,
    VectorField,
    rational_kernel_and_rank,
)

ZERO2 = PolyMatrix.zeros(2, 2, ())


def lrep(alg):
    return build_left_mult_rep(alg)


def random_cochain(rng, alg, s, degree, max_coeff_degree=1):
    comps = {}
    for lead in combinations(range(alg.rank), degree - 1):
        for last in range(alg.rank):
            sec = Section(alg.coords,
                          [random_poly(rng, alg.coords, max_coeff_degree)
                           for _ in range(s)])
            if not sec.is_zero():
                comps[(lead, last)] = sec
    return RepCochain(alg.coords, alg.rank, s, degree, comps)


def random_multiderivation(rng, alg, degree, max_coeff_degree=1):
    values = {}
    symbols = {}
    for lead in combinations(range(alg.rank), degree - 1):
        for last in range(alg.rank):
            sec = Section(alg.coords,
                          [random_poly(rng, alg.coords, max_coeff_degree)
                           for _ in range(alg.rank)])
            if not sec.is_zero():
                values[(lead, last)] = sec
        field = VectorField(alg.coords,
                            [random_poly(rng, alg.coords, max_coeff_degree)
                             for _ in alg.coords])
        if not field.is_zero():
            symbols[lead] = field
    return MultiDerivation(alg.coords, alg.rank, degree, values, symbols)


# ---------------------------------------------------------------------------
# representation differential
# ---------------------------------------------------------------------------

def test_rep_d_zero_rep_zero_algebra():
    alg = zero_point_algebra(2)
    rep = Representation(2, [ZERO2, ZERO2])
    rng = random.Random(1)
    for degree in (1, 2):
        w = random_cochain(rng, alg, 2, degree)
        assert rep_d(alg, rep, w).is_zero()


def test_rep_d0_formula():
    alg = point_e1e2()
    rep = lrep(alg)
    e = Section((), [0, 1])
    image = rep_d0(alg, rep, e)
    for j in range(2):
        expected = rep_mu_frame(rep, j, e) - rep_rho_frame(alg, rep, j, e)
        assert image.component((), j) == expected


def rep_d_oracle_pair(alg, rep, w, i, j):
    """Hand expansion of the degree-1 differential on a frame pair:
    d w(x, y) = rho(x) w(y) + mu(y) w(x) - w(x.y)."""
    term = rep_rho_frame(alg, rep, i, w.component((), j))
    term = term + rep_mu_frame(rep, j, w.component((), i))
    inserted = Section.zero(alg.coords, rep.s)
    for k, comp in enumerate(alg.c[i][j].components):
        inserted = inserted + w.component((), k).scale(comp)
    return term - inserted


def test_rep_d_identity_cochain_against_oracle():
    alg = point_e1e2()
    rep = lrep(alg)
    ident = RepCochain((), 2, 2, 1,
                       {((), j): Section.unit((), 2, j) for j in range(2)})
    image = rep_d(alg, rep, ident)
    for i in range(2):
        for j in range(2):
            assert image.evaluate([alg.frame(i), alg.frame(j)]) == \
                rep_d_oracle_pair(alg, rep, ident, i, j)


def test_rep_d_degree1_oracle_random():
    rng = random.Random(3)
    for alg in (point_e1e2(), ladder_instance(), action_instance()):
        rep = lrep(alg)
        for _ in range(3):
            w = random_cochain(rng, alg, alg.rank, 1)
            image = rep_d(alg, rep, w)
            for i in range(alg.rank):
                for j in range(alg.rank):
                    assert image.evaluate([alg.frame(i), alg.frame(j)]) == \
                        rep_d_oracle_pair(alg, rep, w, i, j)


def test_rep_d_squares_to_zero():
    rng = random.Random(5)
    for alg in (zero_point_algebra(2), point_e1e2(), ladder_instance(),
                flat_instance(), action_instance()):
        rep = lrep(alg)
        for degree in (1, 2):
            for _ in range(3):
                w = random_cochain(rng, alg, alg.rank, degree)
                assert rep_d(alg, rep, rep_d(alg, rep, w),
                             check=False).is_zero()


def test_rep_d_squares_to_zero_from_c0():
    for alg in (point_e1e2(), ladder_instance()):
        rep = lrep(alg)
        for m in range(rep.s):
            e = Section(alg.coords,
                        [Poly.constant(1 if p == m else 0, alg.coords)
                         for p in range(rep.s)])
            if check_c0(alg, rep, e):
                assert rep_d(alg, rep, rep_d0(alg, rep, e),
                             check=False).is_zero()


def test_rep_d_output_is_multilinear():
    # the appendix-style consistency: evaluating the stored frame
    # components multilinearly agrees with the formula applied directly
    # to polynomial sections
    rng = random.Random(7)
    alg = ladder_instance()
    rep = lrep(alg)
    w = random_cochain(rng, alg, alg.rank, 2)
    dw = rep_d(alg, rep, w)

    def formula_on_sections(x1, x2, x3):
        lie = sub_adjacent(alg)
        from lsakit.core import rep_rho_section, section_bracket
        total = rep_rho_section(alg, rep, x1, w.evaluate([x2, x3]))
        total = total - rep_rho_section(alg, rep, x2, w.evaluate([x1, x3]))
        total = total + rep_mu_section(rep, x3, w.evaluate([x2, x1]))
        total = total - rep_mu_section(rep, x3, w.evaluate([x1, x2]))
        total = total - w.evaluate([x2, section_mult(alg, x1, x3)])
        total = total + w.evaluate([x1, section_mult(alg, x2, x3)])
        total = total - w.evaluate([section_bracket(lie, x1, x2), x3])
        return total

    # note the sign pattern matches the stored differential on frames
    for idx in ((0, 1, 0), (0, 1, 1)):
        frames = [alg.frame(i) for i in idx]
        assert dw.evaluate(frames) == formula_on_sections(*frames)
    for _ in range(2):
        secs = [random_section(rng, alg, 1) for _ in range(3)]
        assert dw.evaluate(secs) == formula_on_sections(*secs)


def test_check_c0_examples():
    alg = point_e1e2()
    rep = lrep(alg)
    assert check_c0(alg, rep, Section.zero((), 2))
    # rho(e_1)rho(e_1)e_2 = e_2 but rho(e_1.e_1) = 0
    assert not check_c0(alg, rep, Section.unit((), 2, 1))
    zero_rep = Representation(2, [ZERO2, ZERO2])
    abelian = zero_point_algebra(2)
    for m in range(2):
        assert check_c0(abelian, zero_rep, Section.unit((), 2, m))


# ---------------------------------------------------------------------------
# deformation differential
# ---------------------------------------------------------------------------

def test_def_d_of_identity_bundle_map():
    for alg in (point_e1e2(), ladder_instance(), action_instance()):
        ident = MultiDerivation.from_endomorphism(
            alg, PolyMatrix.identity(alg.rank, alg.coords))
        image = def_d(alg, ident)
        assert image.degree == 2
        for i in range(alg.rank):
            for j in range(alg.rank):
                # x.id(y) + id(x).y - id(x.y) = x.y
                assert image.value((i,), j) == alg.c[i][j]
        for i in range(alg.rank):
            assert image.symbol((i,)) == alg.anchor[i]


def test_def_d_zero_algebra():
    alg = zero_point_algebra(2)
    endo = MultiDerivation.from_endomorphism(alg, PolyMatrix((), [[1, 2],
                                                                  [3, 4]]))
    assert def_d(alg, endo).is_zero()


def test_def_d_squares_to_zero():
    rng = random.Random(11)
    for alg in (point_e1e2(), ladder_instance(), flat_instance(),
                action_instance()):
        for degree in (1, 2):
            for _ in range(3):
                D = random_multiderivation(rng, alg, degree)
                dd = def_d(alg, def_d(alg, D))
                assert dd.is_zero()


@functools.cache
def built_left_symmetric() -> dict:
    """Left-symmetric algebroids the library builds, by label: the
    corpus files that pass the axioms, the semidirect products of their
    representations, action algebroids and phase-space totals."""
    built = {}
    for name in CORPUS_NAMES:
        instance = load_corpus(name)
        alg = instance.algebroid
        if not check_left_symmetric(alg).passed:
            continue
        built[name] = alg
        if instance.representation is not None:
            built[f"semidirect {name}"] = semidirect_lsa(
                alg, instance.representation)
        if instance.action is not None:
            block = instance.action
            built[f"action {name}"] = action_algebroid(
                block.algebra, block.vector_fields, block.coordinates)
        built[f"phase total {name}"] = lsa_from_phase(
            sub_adjacent(alg), build_left_mult_rep(alg)).total
    # e_1.e_2 = e_2 acting by -x d/dx and d/dx
    coords = ("x",)
    x = Poly.variable("x", coords)
    built["action e1e2"] = action_algebroid(
        point_e1e2(), [VectorField(coords, [-x]),
                       VectorField(coords, [Poly.constant(1, coords)])],
        coords)
    # rho(e_1) = d/dx + y E_11 and rho(e_2) = d/dy + x E_11 is flat, so
    # the products e_i.u_1 are not constant
    flat = built["flat"]
    rho = [PolyMatrix(flat.coords, [[Poly.variable(name, flat.coords), 0],
                                    [0, 0]]) for name in ("y", "x")]
    built["semidirect flat, polynomial rho"] = semidirect_lsa(
        flat, Representation(2, rho))
    return built


def test_def_d_squares_to_zero_on_built_algebroids():
    # cohomology/def-d-squared is stated by its proof past the axiom
    # gate; this samples the theorem on what the library builds
    sources = built_left_symmetric()
    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(sources)), st.integers(1, 3),
           st.randoms(use_true_random=False))
    def squares_to_zero(label, degree, rng):
        alg = sources[label]
        assert check_left_symmetric(alg).passed
        D = random_multiderivation(rng, alg, degree)
        dD = def_d(alg, D)
        assert def_d(alg, dD).is_zero()
        seen.add((bool(D.symbols), dD.is_zero()))

    squares_to_zero()
    assert (True, False) in seen


def zero_algebroid(coords, rank: int) -> LSAlgebroid:
    zero = Section.zero(coords, rank)
    return LSAlgebroid(coords, rank, [[zero] * rank] * rank,
                       [VectorField.zero(coords)] * rank)


def test_evaluation_matches_the_loops_it_replaced():
    # forms summed over permutations and cochains over every frame tuple;
    # both now expand over the supports of their section arguments
    outcomes = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(("form", "cochain", "multiderivation")),
           st.sampled_from(((), ("x",), ("x", "y"))), st.integers(1, 3),
           st.integers(1, 3), st.booleans(),
           st.randoms(use_true_random=False))
    def agree(kind, coords, rank, degree, repeat, rng):
        alg = zero_algebroid(coords, rank)
        sections = [random_section(rng, alg, 1) for _ in range(degree)]
        if repeat and degree > 1:
            sections[0] = sections[1]  # alternating: the value is zero
        if kind == "form":
            value = FormCochain(coords, rank, degree, {
                key: random_poly(rng, coords, 1)
                for key in combinations(range(rank), degree)})
            result = value.evaluate(sections)
            assert result == form_evaluate_oracle(value, sections)
        else:
            if kind == "cochain":
                value = random_cochain(rng, alg, 2, degree)
            else:
                value = random_multiderivation(rng, alg, degree)
            result = value.evaluate(sections)
            assert result == cochain_evaluate_oracle(value, sections)
        outcomes.add((kind, result.is_zero()))

    agree()
    assert outcomes == {(kind, zero) for kind in ("form", "cochain",
                                                  "multiderivation")
                        for zero in (True, False)}


def test_def_d_symbol_matches_independent_recomputation():
    # recompute the symbol from the defining derivation property:
    # sigma(x_1..x_n)(f) x_{n+1} = dD(x_1,..,x_n, f x_{n+1})
    #                              - f dD(x_1,..,x_n, x_{n+1})
    rng = random.Random(13)
    for alg in (ladder_instance(), flat_instance(), action_instance()):
        D = random_multiderivation(rng, alg, 1)
        dD = def_d(alg, D)
        tests = [Poly.variable(name, alg.coords) for name in alg.coords]
        tests.append(random_poly(rng, alg.coords, 2))
        for lead in combinations(range(alg.rank), 1):
            for last in range(alg.rank):
                for f in tests:
                    frames = [alg.frame(i) for i in lead]
                    scaled = alg.frame(last).scale(f)
                    lhs = dD.evaluate(frames + [scaled]) \
                        - dD.evaluate(frames + [alg.frame(last)]).scale(f)
                    expected = alg.frame(last).scale(
                        dD.symbol(lead).apply(f))
                    assert lhs == expected


def test_def_d_preserves_skewness():
    rng = random.Random(17)
    alg = flat_instance()
    D = random_multiderivation(rng, alg, 2)
    dD = def_d(alg, D)
    x, y = alg.frame(0), alg.frame(1)
    z = random_section(rng, alg, 1)
    assert dD.evaluate([x, y, z]) == -dD.evaluate([y, x, z])


def test_evaluate_on_sections_leibniz():
    rng = random.Random(19)
    alg = ladder_instance()
    D = random_multiderivation(rng, alg, 2)
    f = random_poly(rng, alg.coords, 2)
    x = alg.frame(0)
    y = alg.frame(1)
    lhs = D.evaluate([x, y.scale(f)])
    rhs = D.evaluate([x, y]).scale(f) + y.scale(D.symbol((0,)).apply(f))
    assert lhs == rhs
    # leading slots are function-linear
    w = random_cochain(rng, alg, 2, 2)
    assert w.evaluate([x.scale(f), y]) == w.evaluate([x, y]).scale(f)


def test_evaluate_on_sections_cross_check():
    # evaluating the differential's stored components on sections equals
    # evaluating on frames after multilinear expansion
    rng = random.Random(23)
    alg = ladder_instance()
    D = random_multiderivation(rng, alg, 1)
    dD = def_d(alg, D)
    for _ in range(3):
        x = random_section(rng, alg, 1)
        y = random_section(rng, alg, 1)
        direct = evaluate_on_sections(dD, [x, y])
        expanded = Section.zero(alg.coords, alg.rank)
        for i, fi in enumerate(x.components):
            expanded = expanded + dD.evaluate_last((i,), y).scale(fi)
        assert direct == expanded


def test_evaluate_arity_errors():
    alg = point_e1e2()
    D = MultiDerivation.from_endomorphism(alg, PolyMatrix.identity(2, ()))
    with pytest.raises(ArityError):
        D.evaluate([alg.frame(0), alg.frame(1)])
    w = RepCochain((), 2, 2, 1, {})
    with pytest.raises(ArityError):
        w.evaluate([alg.frame(0), alg.frame(1)])


# ---------------------------------------------------------------------------
# point-case dimensions
# ---------------------------------------------------------------------------

def test_point_cohomology_zero_differential():
    alg = zero_point_algebra(2)
    rep = Representation(1, [PolyMatrix.zeros(1, 1, ())] * 2,
                         [PolyMatrix.zeros(1, 1, ())] * 2)
    result = point_cohomology_dims(alg, rep, 3)
    assert result.c0_dim == 1
    assert result.c0_closed_dim == 1
    dims = [(d.dim_cocycles, d.dim_coboundaries, d.dim_cohomology)
            for d in result.degrees]
    assert dims == [(2, 0, 2), (4, 0, 4), (2, 0, 2)]


def test_point_cohomology_rank_nullity():
    alg = point_e1e2()
    rep = lrep(alg)
    result = point_cohomology_dims(alg, rep, 3)
    for d in result.degrees:
        matrix, domain, _ = assemble_point_differential(alg, rep, d.degree)
        if domain:
            rank, kernel = rational_kernel_and_rank(matrix, cols=len(domain))
            assert rank + len(kernel) == d.dim_cochains
            assert d.dim_cocycles == len(kernel)


def oracle_dense_matrix(alg, rep, degree):
    """Independent dense assembly of the differential: evaluates the
    four-sum formula directly with nested loops, no shared code with
    rep_d."""
    r, s = alg.rank, rep.s
    domain = cochain_basis(r, s, degree)
    codomain = cochain_basis(r, s, degree + 1)
    matrix = [[Fraction(0)] * len(domain) for _ in codomain]

    def c_const(i, j):
        return [comp.constant_value() for comp in alg.c[i][j].components]

    def rho_const(i):
        return rep.rho_mat[i].to_rational()

    def mu_const(i):
        return rep.mu_mat[i].to_rational()

    for col, (lead, last, m) in enumerate(domain):
        # cochain w: w(lead; last) = unit_m, alternating in lead
        def w(args, final):
            key, sign = [], 1
            seq = list(args)
            for pos in range(len(seq)):
                small = min(range(pos, len(seq)), key=lambda q: seq[q])
                if small != pos:
                    seq[pos], seq[small] = seq[small], seq[pos]
                    sign = -sign
            if len(set(seq)) != len(seq):
                return [Fraction(0)] * s
            if tuple(seq) != lead or final != last:
                return [Fraction(0)] * s
            return [sign * Fraction(1 if p == m else 0) for p in range(s)]

        for row, (lead2, last2, m2) in enumerate(codomain):
            n = degree
            xs = list(lead2)
            total = Fraction(0)
            for a in range(n):
                sgn = Fraction((-1) ** a)
                rest = xs[:a] + xs[a + 1:]
                vec = w(rest, last2)
                image = rho_const(xs[a])
                total += sgn * sum(image[m2][p] * vec[p] for p in range(s))
                vec = w(rest, xs[a])
                image = mu_const(last2)
                total += sgn * sum(image[m2][p] * vec[p] for p in range(s))
                prod = c_const(xs[a], last2)
                for k in range(r):
                    if prod[k]:
                        total -= sgn * prod[k] * w(rest, k)[m2]
            for a in range(n):
                for b in range(a + 1, n):
                    sgn = Fraction((-1) ** (a + b))
                    rest = [xs[p] for p in range(n) if p not in (a, b)]
                    comm = [ci - cj for ci, cj in
                            zip(c_const(xs[a], xs[b]), c_const(xs[b], xs[a]))]
                    for k in range(r):
                        if comm[k]:
                            total += sgn * comm[k] * w([k] + rest, last2)[m2]
            matrix[row][col] = total
    return matrix


def test_point_cohomology_matches_dense_oracle():
    # rank-1 algebra e.e = e with its left-multiplication representation
    alg = point_algebra(1, {(0, 0): [1]})
    rep = lrep(alg)
    for degree in (1, 2):
        expected = oracle_dense_matrix(alg, rep, degree)
        actual, _, _ = assemble_point_differential(alg, rep, degree)
        assert actual == expected
    result = point_cohomology_dims(alg, rep, 3)
    # frozen from the oracle: C^0 is everything, d0 has rank 1; degree 3
    # is past rank + 1, where every cochain space is zero, so it is not
    # reported
    assert result.c0_dim == 1
    assert result.c0_closed_dim == 0
    dims = [(d.dim_cocycles, d.dim_coboundaries, d.dim_cohomology)
            for d in result.degrees]
    assert dims == [(1, 1, 0), (1, 0, 1)]


def test_point_cohomology_oracle_on_rank2():
    alg = point_e1e2()
    rep = lrep(alg)
    for degree in (1, 2, 3):
        expected = oracle_dense_matrix(alg, rep, degree)
        actual, _, _ = assemble_point_differential(alg, rep, degree)
        assert actual == expected


def test_point_cohomology_requires_point_base():
    with pytest.raises(NotPointCase):
        point_cohomology_dims(flat_instance(), lrep(flat_instance()), 2)


def test_point_cohomology_nmax_zero():
    alg = zero_point_algebra(2)
    rep = Representation(1, [PolyMatrix.zeros(1, 1, ())] * 2)
    result = point_cohomology_dims(alg, rep, 0)
    assert result.degrees == []
    assert result.c0_dim == 1


def test_point_cohomology_rejects_negative_nmax():
    alg = zero_point_algebra(2)
    rep = Representation(1, [PolyMatrix.zeros(1, 1, ())] * 2)
    for n_max in (-1, -5):
        with pytest.raises(InvalidDegree):
            point_cohomology_dims(alg, rep, n_max)


def rep_d_assembly_oracle(alg, rep, degree):
    """The library's former assembly: apply rep_d to every basis cochain
    and read its image off as one column."""
    domain = cochain_basis(alg.rank, rep.s, degree)
    codomain = cochain_basis(alg.rank, rep.s, degree + 1)
    index = {key: pos for pos, key in enumerate(codomain)}
    matrix = [[Fraction(0)] * len(domain) for _ in codomain]
    for col, (lead, last, m) in enumerate(domain):
        unit = Section((), [1 if p == m else 0 for p in range(rep.s)])
        cochain = RepCochain((), alg.rank, rep.s, degree, {(lead, last): unit})
        image = rep_d(alg, rep, cochain, check=False)
        for (lead2, last2), value in image.terms.items():
            for m2, comp in value.terms.items():
                matrix[index[(lead2, last2, m2)]][col] = comp.constant_value()
    return matrix, domain, codomain


def left_right_pair():
    """The regular representation (L, R) of e_1*e_1 = e_1, e_1*e_2 = e_2;
    its mu (right multiplication) is nonzero."""
    alg = point_algebra(2, {(0, 0): [1, 0], (0, 1): [0, 1]})
    right = [PolyMatrix((), [[1, 0], [0, 0]]), PolyMatrix((), [[0, 0], [1, 0]])]
    return alg, Representation(2, lrep(alg).rho_mat, right)


def assembly_cases():
    zero_r2 = load_corpus("zero_r2")
    cases = [(zero_r2.algebroid, zero_r2.representation)]
    for alg in (point_e1e2(), load_corpus("double_e1e2").algebroid,
                sum_of_e1e2(2), point_algebra(1, {(0, 0): [Fraction(2, 3)]})):
        cases.append((alg, lrep(alg)))
    cases.append(left_right_pair())
    return cases


def test_assembly_matches_rep_d_oracle():
    for alg, rep in assembly_cases():
        for degree in (1, 2, 3):
            assert assemble_point_differential(alg, rep, degree) == \
                rep_d_assembly_oracle(alg, rep, degree)


def test_assembly_matches_dense_oracle_with_mu():
    alg, rep = left_right_pair()
    assert any(not m.is_zero() for m in rep.mu_mat)
    for degree in (1, 2, 3):
        actual, _, _ = assemble_point_differential(alg, rep, degree)
        assert actual == oracle_dense_matrix(alg, rep, degree)


def test_point_cohomology_rank6():
    # three copies of point_e1e2; the dims were computed once with the
    # rep_d assembly and dense elimination (6.8 s on a 2-vCPU host), and
    # the ROADMAP target for this call is 2 s
    alg = sum_of_e1e2(3)
    rep = lrep(alg)
    start = time.perf_counter()
    result = point_cohomology_dims(alg, rep, 3)
    assert time.perf_counter() - start < 2.0
    assert (result.c0_dim, result.c0_closed_dim) == (3, 3)
    dims = [(d.degree, d.dim_cochains, d.dim_cocycles, d.dim_coboundaries,
             d.dim_cohomology) for d in result.degrees]
    assert dims == [(1, 36, 12, 0, 12), (2, 216, 69, 24, 45),
                    (3, 540, 210, 147, 63)]
    matrix, domain, _ = assemble_point_differential(alg, rep, 2)
    assert rational_kernel_and_rank(matrix, len(domain)) == \
        dense_kernel_oracle(matrix, len(domain))


def all_dims(result):
    return (result.c0_dim, result.c0_closed_dim,
            [(d.degree, d.dim_cochains, d.dim_cocycles, d.dim_coboundaries,
              d.dim_cohomology) for d in result.degrees])


def test_point_cohomology_matches_dense_path():
    for alg, rep in assembly_cases():
        assert all_dims(point_cohomology_dims(alg, rep, 3)) == \
            all_dims(dense_point_dims(alg, rep, 3))


def test_c0_basis_vectors_pass_check_c0():
    # rho(e) = 2 on e.e = e leaves the defect 4 - 2 everywhere: C^0 = 0
    cases = assembly_cases() + [(point_algebra(1, {(0, 0): [1]}),
                                 Representation(1, [PolyMatrix((), [[2]])]))]
    for alg, rep in cases:
        basis = c0_basis_oracle(alg, rep)
        assert point_cohomology_dims(alg, rep, 0, check=False).c0_dim == \
            len(basis)
        for vec in basis:
            assert check_c0(alg, rep, Section((), list(vec)))


def test_point_cohomology_rank_zero_closed_space():
    # over a rank-0 algebra C^1 is zero, so d0 kills all of C^0
    alg, rep = point_algebra(0, {}), Representation(2, [])
    result = point_cohomology_dims(alg, rep, 2)
    assert (result.c0_dim, result.c0_closed_dim) == (2, 2)
    assert all_dims(result) == all_dims(dense_point_dims(alg, rep, 2))


def test_point_cohomology_shared_across_threads_matches_serial():
    # the tables and row templates are built per call, so threads that
    # share one pair (its axiom verdict not stored yet) see the serial
    # result; four threads, more than a two-core runner has cores
    def fresh():
        return sum_of_e1e2(2), lrep(sum_of_e1e2(2))

    serial = point_cohomology_dims(*fresh(), 4)
    alg, rep = fresh()
    assert alg._axioms is None
    workers = 4
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def work(slot):
        barrier.wait(timeout=60)
        results[slot] = point_cohomology_dims(alg, rep, 4)

    threads = [threading.Thread(target=work, args=(k,))
               for k in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so the calls interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == serial for result in results)


@pytest.mark.parametrize("count", [1, 3])
def test_wrong_number_of_representation_matrices(count):
    alg = point_e1e2()
    rep = Representation(2, [PolyMatrix.identity(2, ())] * count)
    message = (f"representation indexed by {count} frame sections "
               f"on a rank 2 algebroid")
    for check in (True, False):
        with pytest.raises(DimensionMismatch, match=message):
            point_cohomology_dims(alg, rep, 2, check=check)
    with pytest.raises(DimensionMismatch, match=message):
        assemble_point_differential(alg, rep, 1)


entry = st.one_of(st.just(0), st.just(0), st.fractions(
    min_value=-3, max_value=3, max_denominator=4))


@st.composite
def random_point_pairs(draw):
    """Constant tables with no axiom imposed: products c[i][j], and rho
    and mu matrices, of rank at most 3 and fibre rank at most 2."""
    rank = draw(st.integers(1, 3))
    s = draw(st.integers(0, 2))
    products = {(i, j): draw(st.lists(entry, min_size=rank, max_size=rank))
                for i in range(rank) for j in range(rank)}

    def matrices():
        return [PolyMatrix((), [draw(st.lists(entry, min_size=s, max_size=s))
                                for _ in range(s)]) for _ in range(rank)]

    return point_algebra(rank, products), Representation(s, matrices(),
                                                         matrices())


@settings(max_examples=60, deadline=None)
@given(random_point_pairs())
def test_sparse_ranks_match_dense_on_random_tables(pair):
    alg, rep = pair
    n_max = alg.rank + 1
    assert all_dims(point_cohomology_dims(alg, rep, n_max, check=False)) == \
        all_dims(dense_point_dims(alg, rep, n_max))


# The point complex is a Chevalley-Eilenberg complex: C^n = Hom(wedge^(n-1)
# g, W) for W = Hom(E, V), with the template rows of rep_d as the action
# of g on W, so dim H^n = dim H^(n-1)(g; W) for n >= 2 and the degree-1
# cocycles are H^0(g; W)

POINT_ALGEBRAS = (point_e1e2, lambda: point_algebra(1, {(0, 0): [1]}),
                  lambda: unit_point_algebra(2), lambda: zero_point_algebra(3),
                  lambda: load_corpus("double_e1e2").algebroid)


def point_representation(alg, kind):
    """Left multiplication (L, 0), the regular pair (L, R), or the zero
    pair on a plane: representations of every point algebra."""
    if kind == "zero":
        return Representation(2, [ZERO2] * alg.rank, [ZERO2] * alg.rank)
    left = lrep(alg).rho_mat
    return Representation(alg.rank, left,
                          right_mult_matrices(alg) if kind == "regular"
                          else None)


def assert_ce_identity(alg, rep):
    degrees = point_cohomology_dims(alg, rep, alg.rank + 1).degrees
    ce = ce_point_dims(alg, rep)
    assert [degrees[0].dim_cocycles] + [d.dim_cohomology
                                        for d in degrees[1:]] == ce


def test_point_cohomology_is_ce_cohomology_on_the_corpus():
    for name in ("point_e1e2", "zero_r2"):
        instance = load_corpus(name)
        assert_ce_identity(instance.algebroid, instance.representation)
    for make in POINT_ALGEBRAS:
        alg = make()
        for kind in ("left", "regular", "zero"):
            assert_ce_identity(alg, point_representation(alg, kind))


@st.composite
def valid_point_pairs(draw):
    """A point algebra of POINT_ALGEBRAS in the frame b = P e for P a
    product of up to three integer shears, with one of the
    representations of :func:`point_representation`."""
    alg = draw(st.sampled_from(POINT_ALGEBRAS))()
    r = alg.rank
    frame = PolyMatrix.identity(r, ())
    for _ in range(draw(st.integers(0, 3)) if r > 1 else 0):
        i, j = draw(st.permutations(range(r)))[:2]
        c = draw(st.integers(-2, 2))
        frame = frame @ PolyMatrix((), [[1 if a == b else c if (a, b) == (i, j)
                                         else 0 for b in range(r)]
                                        for a in range(r)])
    alg = reframed(alg, frame)
    kind = draw(st.sampled_from(("left", "regular", "zero")))
    return alg, point_representation(alg, kind)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(valid_point_pairs())
def test_point_cohomology_is_ce_cohomology_on_drawn_pairs(pair):
    assert_ce_identity(*pair)


@pytest.mark.parametrize("products, rho, mu",
                         [({}, 0, 1), ({(0, 0): [1]}, 1, 2)],
                         ids=["zero-algebra", "unit-algebra"])
def test_rank_one_g_module_that_is_no_representation(products, rho, mu):
    # with one frame index W = Hom(E, V) is a g-module whatever the pair
    # (ce_point_dims asserts it), but the coupling identity
    # R M - M R = M(e.e) - M M fails: 0 = 0 - 1 and 0 = 2 - 4
    alg = point_algebra(1, products)
    rep = Representation(1, [PolyMatrix((), [[rho]])],
                         [PolyMatrix((), [[mu]])])
    ce_point_dims(alg, rep)
    assert not check_representation_lsa(alg, rep)
    with pytest.raises(NotARepresentation):
        point_cohomology_dims(alg, rep, 2)


RANK8_DEGREE4 = (4, 4, [(1, 64, 20, 0, 20), (2, 512, 140, 44, 96),
                        (3, 1792, 556, 372, 184), (4, 3584, 1412, 1236, 176)])
RANK10_DEGREE3 = (5, 5, [(1, 100, 30, 0, 30), (2, 1000, 245, 70, 175),
                         (3, 4500, 1180, 755, 425)])


def test_point_cohomology_rank8_degree4():
    # four copies of point_e1e2; the dense path took 4.5 s and 354 MB
    alg = sum_of_e1e2(4)
    rep = lrep(alg)
    start = time.perf_counter()
    result = point_cohomology_dims(alg, rep, 4)
    assert time.perf_counter() - start < 1.0
    assert all_dims(result) == RANK8_DEGREE4


def test_point_cohomology_rank8_degree4_peak_rss():
    # On Linux ru_maxrss keeps the high-water mark of the image the
    # child replaced at exec (here the pytest process), so the child
    # reads its own VmHWM instead
    script = (
        "import resource, sys\n"
        "from helpers import sum_of_e1e2\n"
        "from lsakit.cohomology import point_cohomology_dims\n"
        "from lsakit.core import build_left_mult_rep\n"
        "alg = sum_of_e1e2(4)\n"
        "point_cohomology_dims(alg, build_left_mult_rep(alg), 4)\n"
        "if sys.platform.startswith('linux'):\n"
        "    with open('/proc/self/status') as status:\n"
        "        kb = next(int(line.split()[1]) for line in status\n"
        "                  if line.startswith('VmHWM:'))\n"
        "    print(kb / 1024)\n"
        "else:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    print(peak / 2 ** 20 if sys.platform == 'darwin' else peak / 1024)\n")
    paths = [str(Path(lsakit.__file__).parents[1]), str(Path(__file__).parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert float(proc.stdout) < 60


def test_point_cohomology_rank10_degree3():
    alg = sum_of_e1e2(5)
    assert all_dims(point_cohomology_dims(alg, lrep(alg), 3)) == \
        RANK10_DEGREE3


def test_rank10_rows_match_sympy_rank():
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    alg = sum_of_e1e2(5)
    tables = _point_tables(alg, lrep(alg))
    ranks = []
    for degree in (1, 2, 3):
        rows = {i: {j: QQ(v) for j, v in row.items()}
                for i, row in _point_rows(tables, degree)}
        shape = (len(cochain_basis(10, 10, degree + 1)),
                 len(cochain_basis(10, 10, degree)))
        ranks.append(DomainMatrix(rows, shape, QQ).rank())
    assert ranks == [70, 755, 3320]
    assert [dims[1] - dims[2] for dims in RANK10_DEGREE3[2]] == ranks
