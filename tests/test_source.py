"""Static checks on the package source."""

import ast
import tokenize
from pathlib import Path

import lsakit

PACKAGE = Path(lsakit.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in read]


def test_unused_imports_are_found():
    source = "import os\nfrom sys import argv, path as p\nprint(argv)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: p"]


def test_no_module_imports_a_name_it_does_not_use():
    # the package's own imports are its exported names, pinned by
    # test_public_api
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert len(found) >= 10
    assert {name: names for name, names in found.items() if names} == {}


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports of a module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_are_found():
    source = ("import random as r\nfrom os.path import join\n"
              "from . import core\n")
    assert imported_modules(source) == {"random", "os"}


def test_no_module_imports_random():
    # every record is decided exactly or stated by its proof; nothing in
    # the package samples
    found = {path.name: imported_modules(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) >= 10
    assert [name for name, modules in found.items()
            if "random" in modules] == []


def _exact_operand(node) -> bool:
    """A ``Fraction(...)`` call, or a string (the operand of a path join)."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "Fraction"
    return isinstance(node, ast.JoinedStr) \
        or (isinstance(node, ast.Constant) and isinstance(node.value, str))


def float_divisions(source: str) -> list[str]:
    """True divisions (``/`` and ``/=``) with neither operand a
    ``Fraction(...)`` call nor a string: between two ints such a division
    gives a float."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            operands = (node.target, node.value)
        else:
            continue
        if not any(map(_exact_operand, operands)):
            found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_float_divisions_are_found():
    source = ("a = 1 / det\n"
              "b = Fraction(1) / det\n"
              "c = det / Fraction(v, 2)\n"
              "d = root / 'corpus' / f'{name}.json'\n"
              "e = Fraction(1, det)\n"
              "f //= 2\n"
              "f /= n\n")
    assert float_divisions(source) == ["line 1: 1 / det", "line 7: f /= n"]


def test_no_module_divides_without_a_fraction():
    # the kernel's coefficients are ints or Fractions: a division needs a
    # Fraction operand to stay exact
    found = {path.name: float_divisions(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) >= 10
    assert {name: lines for name, lines in found.items() if lines} == {}


def token_count(path: Path) -> int:
    """Tokens of a module with comments and blank lines not counted, as
    the CI job summary counts them."""
    with path.open("rb") as fh:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL,
                                    tokenize.ENCODING)
                   for tok in tokenize.tokenize(fh.readline))


def test_every_module_fits_the_parsers_first_token_array():
    # the parser's token array doubles past 8,192 tokens, which raises the
    # peak memory of compiling the module
    counts = {path.name: token_count(path)
              for path in sorted(PACKAGE.glob("*.py"))}
    assert len(counts) >= 10
    assert {name: n for name, n in counts.items() if n > 8192} == {}


def _references(node, enclosing: frozenset, out: list) -> None:
    """(name, enclosing function names) for every name and attribute
    read under ``node``."""
    if isinstance(node, ast.Name):
        out.append((node.id, enclosing))
    elif isinstance(node, ast.Attribute):
        out.append((node.attr, enclosing))
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = enclosing | {node.name}
    for child in ast.iter_child_nodes(node):
        _references(child, enclosing, out)


def unreferenced_privates(sources: dict) -> list[str]:
    """Private functions and methods (one leading underscore) that no
    code outside their own body names, across all ``sources``."""
    defined, references = {}, []
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                defined.setdefault(node.name, f"{path}:{node.lineno}")
        _references(tree, frozenset(), references)
    used = {name for name, enclosing in references if name not in enclosing}
    return [f"{where}: {name}" for name, where in defined.items()
            if name not in used]


def test_unreferenced_privates_are_found():
    source = ("def _used():\n    return _used()\n\n"
              "def _dead(n):\n    return _dead(n - 1)\n\n"
              "class A:\n    def _hook(self):\n        pass\n\n"
              "def f(a):\n    return _used() + a._hook()\n")
    assert unreferenced_privates({"m.py": source}) == ["m.py:4: _dead"]


def test_every_private_function_is_used_in_the_package():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 10
    assert unreferenced_privates(sources) == []


def constant_passes(sources: dict) -> set:
    """(record, function) for every ``report.add(...)`` whose status is
    the literal ``True``: records that hold by construction.  A record
    named by an f-string is listed by its template."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "add" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "report":
            status = node.args[2] if len(node.args) > 2 else next(
                (kw.value for kw in node.keywords if kw.arg == "status"), None)
            if isinstance(status, ast.Constant) and status.value is True:
                found.add((ast.unparse(node.args[0]).lstrip("f").strip("'\""),
                           function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    for source in sources.values():
        visit(ast.parse(source), None)
    return found


def test_constant_passes_are_found():
    source = ("def f(report, ok):\n"
              "    report.add('a', 'x', True)\n"
              "    report.add('b', 'x', ok)\n"
              "    report.add('c', 'x', status=True)\n"
              "    other.add('d', 'x', True)\n"
              "    report.add(f'{ok}/e', 'x', True)\n")
    assert constant_passes({"m.py": source}) == {("a", "f"), ("c", "f"),
                                                 ("{ok}/e", "f")}


# Each record here is written as a pass with no computation, with its
# proof beside it, and a test runs the computation it replaced.  A change
# that turns a decided check into a constant pass has to add it here.
HOLD_BY_CONSTRUCTION = {
    ("cohomology/point-dims", "_add_cohomology"),
    ("cohomology/def-d-squared", "_add_cohomology"),
    ("bracket-relation", "lsa_from_phase"),
    ("kernel-frame", "kernel_representations"),
    ("ideal", "kernel_representations"),
    ("grade-rule", "_graded_report"),
    ("degree-one-reduction", "_graded_report"),
    ("defect-antisymmetry", "_graded_report"),
    ("graded-leibniz", "_graded_report"),
    ("omega-nondegenerate", "build_phase_space"),
    ("maps-subbundles", "_phase_iso"),
    ("anticommutes-paracomplex", "_complex_structure"),
    ("omega-closed", "build_phase_space"),
    ("paracomplex", "build_phase_space"),
    ("squares-to-minus-id", "_complex_structure"),
    ("omega-invariance", "_complex_structure"),
    ("anchor-compatible", "_phase_iso"),
    ("omega-preserved", "_phase_iso"),
    ("sub-adjacent-matches", "lsa_from_phase"),
    ("representation/semidirect-commutator", "run_suite"),
    ("o-operator/homomorphism", "run_suite"),
    ("skew-symmetry", "_lie_algebroid_report"),
    ("sub-adjacent/left-mult-rep", "run_suite"),
    ("representation/derived-equivalences", "run_suite"),
    ("representation/semidirect-valid", "run_suite"),
    ("intertwiner-product", "_trivial_report"),
    ("intertwiner-anchor", "_trivial_report"),
    ("nijenhuis-{name}/lie-implication", "run_suite"),
}


def test_records_that_hold_by_construction_are_pinned():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert len(HOLD_BY_CONSTRUCTION) == 28
    assert constant_passes(sources) == HOLD_BY_CONSTRUCTION
