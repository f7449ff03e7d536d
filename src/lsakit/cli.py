"""Command-line interface: axiom checks, derivations, cohomology and
deformation runs over instance files, with deterministic JSON or text
reports.

Exit codes: 0 when every selected check passes, 1 when any check fails,
2 on file, schema or polynomial syntax errors.  Reports go to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .cohomology import MultiDerivation, def_d, point_cohomology_dims
from .constructions import (
    _complex_structure,
    _phase_iso,
    apply_O_operator,
    check_representation_lie,
    build_phase_space,
    check_lsa_homomorphism,
    check_quadratic,
    check_representation_lsa,
    derived_reps,
    action_algebroid,
    kernel_representations,
    semidirect_lsa,
)
from .core import (
    _lie_algebroid_report,
    _require_left_symmetric,
    build_left_mult_rep,
    check_left_symmetric,
    check_lie_admissible,
    sub_adjacent,
)
from .deformations import (
    _trivial_report,
    check_deformation,
    check_equivalence,
    check_nijenhuis,
)
from .errors import (
    FrameExpressionError,
    FrameNotInKernel,
    LsakitError,
    NonConstantDeterminant,
    NotARepresentation,
    SchemaError,
)
from .instances import (
    InstanceFile,
    _two_form_to_table,
    algebroid_to_dict,
    lie_algebroid_to_dict,
    matrix_to_list,
    parse_instance,
)
from .multivector import _graded_report
from .polyring import PolyMatrix
from .report import PASS, Report, UNCERTIFIED

SUITES = ("axioms", "cohomology", "all")


def _add_cohomology(report: Report, instance: InstanceFile,
                    max_degree: int, valid: bool) -> None:
    """d^2 = 0 for the representation and deformation differentials, each
    by its proof, and the exact dimensions when the base is a point and a
    representation is given.  ``valid`` is the caller's verdict on the
    file's representation (true with no block)."""
    alg = instance.algebroid
    rep = instance.representation
    reason = [] if valid else ["(rho, mu) fails the representation identities"]
    # The frame identities check_representation_lsa decides are function
    # linear in both arguments, so they hold on all sections: Gamma(V) is
    # a bimodule of the real left-symmetric algebra Gamma(E), rho on the
    # left (a derivation along the anchor) and mu on the right.  That
    # algebra's cochain differential squares to zero (Dzhumadil'daev
    # 1999) and maps function-linear cochains to function-linear ones;
    # rep_d is its restriction to them, read on frame tuples.  So
    # rep_d^2 = 0 when the verdict passes, and a cochain with d^2 != 0
    # makes the verdict fail.  With no block the pair is left
    # multiplication (L, 0), a representation past the axiom gate.
    report.add("cohomology/rep-d-squared",
               "representation differential squares to zero on seeded "
               "samples", valid, reason)
    # Both callers get here only past check_left_symmetric.  There the
    # product is left-symmetric, so left and right multiplication (L, R)
    # represent Gamma(E) as a real left-symmetric algebra, and its cochain
    # differential with values in (L, R) squares to zero (Dzhumadil'daev
    # 1999; Nijenhuis-Richardson 1967 in the Lie case).  On the axioms
    # that differential takes multiderivations to multiderivations, and
    # def_d gives its image in the frame: the values on frame tuples and
    # the symbol.  Those determine a multiderivation (the symbol is read
    # off D(.., f y) - f D(.., y)), so def_d(def_d(D)) = 0.
    report.add("cohomology/def-d-squared",
               "deformation differential squares to zero on seeded "
               "samples (values and symbols)", True)
    if alg.is_point() and rep is not None:
        identity = "cohomology dimensions over the point base computed " \
            "exactly"
        if not valid:
            report.add("cohomology/point-dims", identity, False, reason)
            return
        result = point_cohomology_dims(alg, rep, max_degree, check=False)
        dims = [f"degree {d.degree}: cochains {d.dim_cochains}, "
                f"cocycles {d.dim_cocycles}, coboundaries "
                f"{d.dim_coboundaries}, cohomology {d.dim_cohomology}"
                for d in result.degrees]
        dims.append(f"degree-0 space {result.c0_dim}, closed "
                    f"{result.c0_closed_dim}")
        report.add("cohomology/point-dims", identity, True, dims)


def run_suite(instance: InstanceFile, suite: str = "all", *,
              max_degree: int = 3, paper_literal: bool = False) -> Report:
    """Execute the selected family of checks against an instance: the
    axiom gate alone (``axioms``), the gate then the cohomology checks
    (``cohomology``), or every applicable check (``all``)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    alg = instance.algebroid
    report = Report(instance.name)

    axioms = check_left_symmetric(alg)
    report.merge(axioms, prefix="axioms/")
    if alg.is_point():
        # the sum over sigma of sgn(sigma) assoc(sigma(x, y, z)) pairs
        # sigma with sigma composed with the swap of the first two slots,
        # of opposite sign; over a point the associator is trilinear, so
        # symmetric on frame triples, the pairs cancel
        report.add("axioms/lie-admissible",
                   "six-term alternating associator sum vanishes on basis "
                   "triples",
                   axioms.record("associator-symmetry").status == PASS
                   or check_lie_admissible(alg))
    if not axioms.passed or suite == "axioms":
        return report
    if suite == "cohomology":
        rep = instance.representation
        _add_cohomology(report, instance, max_degree,
                        rep is None or check_representation_lsa(alg, rep))
        return report

    # past the gate the commutator is a Lie algebroid: its Jacobiator is
    # the cyclic sum of the associator swaps (x, y, z) - (y, x, z), and its
    # anchor identity is axioms/anchor-morphism.  L_[x,y] = [L_x, L_y] is
    # the left-symmetry identity
    lie_report = _lie_algebroid_report([], ())
    report.merge(lie_report, prefix="sub-adjacent/")
    report.add("sub-adjacent/left-mult-rep",
               "left multiplication represents the commutator bracket", True)

    phase = build_phase_space(alg)
    report.merge(phase.report, prefix="phase-space/")
    if instance.bilinear_form is not None:
        try:
            quad = check_quadratic(alg, instance.bilinear_form)
        except NonConstantDeterminant as err:
            report.add("quadratic/nondegenerate",
                       "determinant is a nonzero constant",
                       UNCERTIFIED, [str(err)])
        else:
            report.merge(quad, prefix="quadratic/")
            if quad.passed:
                complex_result = _complex_structure(
                    alg, instance.bilinear_form, quad, phase)
                report.merge(complex_result.report, prefix="complex/")

    # graded/lie-admissible and graded-jacobi read the sub-adjacent records
    report.merge(_graded_report(lie_report), prefix="graded/")

    valid = True
    if instance.representation is not None:
        # derived_reps decides the pair in its gate
        try:
            derived = derived_reps(alg, instance.representation)
        except NotARepresentation:
            derived = None
        valid = derived is not None
        report.add("representation/valid",
                   "(rho, mu) satisfies the representation identities",
                   valid)
        if valid:
            # derived_reps computes one condition: the involution
            # (rho, mu) -> (rho* - mu*, -mu*) preserves representations
            # and swaps the first two, and the third is the first
            report.add("representation/derived-equivalences",
                       "the three dual-representation conditions agree",
                       True, [f"conditions = {derived.equivalences}"])
            # the semidirect product by a representation is
            # left-symmetric: its frame associators are the coupling and
            # representation identities derived_reps' gate decided
            report.add("representation/semidirect-valid",
                       "semidirect product passes the axioms", True)
            # e_i.u - u.e_i = (rho - mu)(e_i)u = [e_i, u], u.v = 0 = [u, v],
            # and the commutator of alg is the sub-adjacent bracket
            report.add("representation/semidirect-commutator",
                       "commutator of the semidirect product is the "
                       "semidirect bracket by rho - mu", True)

    for name in sorted(instance.endomorphisms):
        if not name.startswith("N"):
            continue
        endo = instance.endomorphisms[name]
        is_nij = check_nijenhuis(alg, endo, paper_literal=paper_literal)
        report.add(f"nijenhuis-{name}/condition",
                   "endomorphism satisfies the Nijenhuis condition", is_nij)
        if is_nij and not paper_literal:
            report.merge(_trivial_report(), prefix=f"nijenhuis-{name}/")
            # the torsion of N for the commutator is D(x, y) - D(y, x),
            # D the Nijenhuis defect of the product, which is zero
            report.add(f"nijenhuis-{name}/lie-implication",
                       "operator is also Nijenhuis for the commutator "
                       "bracket", True)
    if instance.deformation is not None:
        report.merge(check_deformation(alg, instance.deformation),
                     prefix="deformation/")

    _add_cohomology(report, instance, max_degree, valid)

    if instance.kernel_frame:
        try:
            kernel = kernel_representations(alg, instance.kernel_frame)
        except FrameNotInKernel as err:
            report.add("kernel/kernel-frame",
                       "all frame sections are anchor-annihilated", False,
                       [str(err)])
        except FrameExpressionError as err:
            report.add("kernel/ad-closes-on-frame",
                       "bracket action preserves the span of the kernel "
                       "frame", False, [str(err)])
        else:
            report.merge(kernel, prefix="kernel/")

    if "T" in instance.endomorphisms:
        lie = sub_adjacent(alg)
        rep = instance.representation or build_left_mult_rep(alg)
        result = apply_O_operator(lie, rep, instance.endomorphisms["T"])
        report.add("o-operator/condition",
                   "operator intertwines the action with the bracket",
                   result.is_O, result.witnesses)
        if result.is_O:
            # u.v = rho(Tu)v is left-symmetric with anchor a o T when rho
            # represents the bracket (Bai 2007); otherwise it is decided
            is_rep = check_representation_lie(lie, rep)
            report.add("o-operator/induced-axioms",
                       "induced structure passes the axioms",
                       is_rep or check_left_symmetric(result.induced).passed)
            # the induced commutator is rho(Tu)v - rho(Tv)u, which the
            # O-operator identity has just compared with the bracket
            report.add("o-operator/homomorphism",
                       "operator maps the induced commutator to the bracket",
                       True)
            # T~ = [[0, T], [0, 0]] squares to zero, so on the semidirect
            # product by rho its torsion at (x + u, y + v) is
            # [Tu, Tv] - T(rho(Tu)v - rho(Tv)u), the O-operator defect;
            # that product needs rho to represent the bracket
            report.add("o-operator/tilde-nijenhuis",
                       "block extension is Nijenhuis on the semidirect "
                       "product", is_rep, [] if is_rep else
                       ["input is not a Lie algebroid representation"])

    if "phi" in instance.endomorphisms:
        phi = instance.endomorphisms["phi"]
        is_hom = check_lsa_homomorphism(alg, alg, phi)
        report.add("phase-iso/homomorphism",
                   "named map is an endomorphism of the structure", is_hom)
        det = phi.det()
        if is_hom and det.is_constant() and not det.is_zero():
            iso = _phase_iso(phi, phase, phase)
            report.merge(iso.report, prefix="phase-iso/")
    return report


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

def derive(instance: InstanceFile, what: str) -> dict:
    alg = instance.algebroid
    if what == "sub-adjacent":
        return lie_algebroid_to_dict(sub_adjacent(alg))
    if what == "phase-space":
        phase = build_phase_space(alg)
        return {
            "phase_space": lie_algebroid_to_dict(phase.P),
            "omega": _two_form_to_table(phase.omega),
            "paracomplex": matrix_to_list(phase.paracomplex),
            "closed": phase.report.record("omega-closed").status,
        }
    if what == "semidirect":
        if instance.representation is None:
            raise SchemaError("representation",
                              "semidirect derivation needs a representation "
                              "block")
        return algebroid_to_dict(semidirect_lsa(alg, instance.representation))
    if what == "action":
        if instance.action is None:
            raise SchemaError("action",
                              "action derivation needs an action block")
        block = instance.action
        built = action_algebroid(block.algebra, block.vector_fields,
                                 block.coordinates)
        return algebroid_to_dict(built)
    raise ValueError(f"unknown derivation {what!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _header(instance: InstanceFile, timestamp: bool) -> dict:
    payload = {
        "tool": "lsakit",
        "version": __version__,
        "instance": instance.name,
        "digest": instance.digest,
    }
    if timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    return payload


def _payload(instance: InstanceFile, report: Report,
             timestamp: bool) -> dict:
    payload = _header(instance, timestamp)
    payload["status"] = "pass" if report.passed else "fail"
    payload["checks"] = [rec.to_dict() for rec in report.records]
    return payload


def _json_write(value, indent: str, out: list) -> None:
    """Append the chunks of ``value`` to ``out``; ``indent`` is a newline
    followed by the indentation of the line ``value`` starts on."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not "
                                f"{type(key).__name__}")
            if isinstance(item, str):
                out.append(sep + _quote(key) + ": " + _quote(item))
            else:
                out.append(sep + _quote(key) + ": ")
                _json_write(item, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        if isinstance(value[0], str):
            # most lists hold only texts (a table row, a record's
            # witnesses): one chunk for the whole list
            try:
                items = ("," + inner).join(map(_quote, value))
            except TypeError:  # a later item is not a str
                pass
            else:
                out.append("[" + inner + items + indent + "]")
                return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json_write(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not "
                        f"JSON serializable")


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)`` byte for byte, for the values a
    report holds: dicts with str keys, lists, strs, ints, bools and None.
    The standard encoder runs in pure Python whenever ``indent`` is set;
    this writer makes one chunk per key and one per list of texts."""
    out: list = []
    _json_write(value, "\n", out)
    return "".join(out)


def _emit(payload: dict, report: Report | None, fmt: str) -> None:
    if fmt == "text" and report is not None:
        print(report.render_text())
        print(f"overall: {payload['status']}")
    else:
        print(_json_text(payload))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsakit",
        description="verify and derive left-symmetric algebroid structures")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="instance file (JSON)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=0,
                       help="accepted and ignored: no check is sampled")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp field from reports")
        p.add_argument("--max-degree", type=int, default=3)
        p.add_argument("--paper-literal", action="store_true",
                       help="evaluate the literal printed Nijenhuis variant")

    p = sub.add_parser("check", help="axiom gate")
    common(p)

    p = sub.add_parser("derive", help="run one construction")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sub-adjacent", action="store_true")
    group.add_argument("--phase-space", action="store_true")
    group.add_argument("--semidirect", action="store_true")
    group.add_argument("--action", action="store_true")

    p = sub.add_parser("cohomology", help="cochain complex checks")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", action="store_true",
                       help="exact dimensions over a point base")
    group.add_argument("--cocycle", action="store_true",
                       help="is the deformation block closed?")
    group.add_argument("--coboundary", metavar="NAME",
                       help="is the deformation block the differential of "
                            "the named endomorphism?")

    p = sub.add_parser("deform", help="deformation checks")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--nijenhuis", metavar="NAME",
                       help="check the named endomorphism and its trivial "
                            "deformation")
    group.add_argument("--deformation", action="store_true",
                       help="check the deformation block")
    group.add_argument("--equivalence", metavar="NAME",
                       help="check equivalence of the deformation blocks "
                            "through the named endomorphism")

    p = sub.add_parser("verify-all", help="every applicable check")
    common(p)
    return parser


def _named_endo(instance: InstanceFile, name: str) -> PolyMatrix:
    if name not in instance.endomorphisms:
        raise SchemaError(f"endomorphisms.{name}", "missing")
    endo = instance.endomorphisms[name]
    if endo.rows != endo.cols:
        raise SchemaError(f"endomorphisms.{name}",
                          f"must be square, got {endo.rows}x{endo.cols}")
    return endo


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.max_degree < 0:
        print(f"error: --max-degree must be at least 0, got "
              f"{args.max_degree}", file=sys.stderr)
        return 2
    try:
        instance = parse_instance(args.file)
    except (LsakitError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    needs_deformation = (args.command == "cohomology" and not args.point
                         or args.command == "deform" and not args.nijenhuis)
    if needs_deformation and instance.deformation is None:
        print("error: deformation: missing", file=sys.stderr)
        return 2

    timestamp = not args.no_timestamp
    try:
        if args.command == "check":
            report = run_suite(instance, "axioms")
        elif args.command == "verify-all":
            report = run_suite(instance, "all", max_degree=args.max_degree,
                               paper_literal=args.paper_literal)
        elif args.command == "derive":
            what = ("sub-adjacent" if args.sub_adjacent else
                    "phase-space" if args.phase_space else
                    "semidirect" if args.semidirect else "action")
            payload = _header(instance, timestamp)
            payload["derived"] = derive(instance, what)
            print(_json_text(payload))
            return 0
        elif args.command == "cohomology":
            report = Report(instance.name)
            alg = instance.algebroid
            if args.point:
                report = run_suite(instance, "cohomology",
                                   max_degree=args.max_degree)
            elif args.cocycle:
                report.add("cocycle",
                           "deformation differential of the candidate "
                           "vanishes",
                           def_d(alg, instance.deformation).is_zero())
            else:
                endo = _named_endo(instance, args.coboundary)
                image = def_d(alg,
                              MultiDerivation.from_endomorphism(alg, endo))
                report.add("coboundary",
                           "candidate equals the differential of the named "
                           "endomorphism",
                           instance.deformation == image)
        else:  # deform
            alg = instance.algebroid
            report = Report(instance.name)
            if args.nijenhuis:
                endo = _named_endo(instance, args.nijenhuis)
                _require_left_symmetric(alg)
                is_nij = check_nijenhuis(alg, endo,
                                         paper_literal=args.paper_literal)
                report.add("nijenhuis-condition",
                           "endomorphism satisfies the Nijenhuis condition",
                           is_nij)
                if is_nij and not args.paper_literal:
                    report.merge(_trivial_report())
            elif args.deformation:
                report = check_deformation(alg, instance.deformation)
            else:
                endo = _named_endo(instance, args.equivalence)
                prime = instance.deformation_prime
                if prime is None:
                    prime = MultiDerivation.zero(alg.coords, alg.rank, 2)
                report = check_equivalence(alg, instance.deformation, prime,
                                           endo)
    except SchemaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except LsakitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    payload = _payload(instance, report, timestamp)
    _emit(payload, report, args.format)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
