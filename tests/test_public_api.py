"""The names ``lsakit/__init__.py`` exports are part of the contract."""

import ast
import inspect

import lsakit

EXPORTED = (
    "BilinearForm", "FORMAL", "FormCochain", "GradedSampleSpec",
    "InstanceFile", "LSAlgebroid", "LieAlgebroid", "MultiDerivation",
    "Multivector", "PointCohomology", "Poly", "PolyMatrix", "Rational",
    "RepCochain", "Report", "Representation", "Section", "VectorField",
    "action_algebroid", "apply_O_operator", "build_complex_structure",
    "build_left_mult_rep", "build_phase_space", "check_c0",
    "check_deformation", "check_equivalence", "check_graded_properties",
    "check_left_symmetric", "check_lie_admissible", "check_lie_algebroid",
    "check_lie_nijenhuis", "check_lsa_homomorphism", "check_nijenhuis",
    "check_paracomplex", "check_quadratic", "check_representation_lie",
    "check_representation_lsa", "corpus_path", "def_d", "deformed_algebroid",
    "derived_reps", "dual_rep", "evaluate_on_sections", "graded_bracket",
    "graded_product", "kernel_representations", "lie_form_d", "load_corpus",
    "lsa_from_phase", "matrix_inverse_adjugate", "parse_instance",
    "parse_poly", "partial_derivative", "phase_iso_from_lsa_iso",
    "point_cohomology_dims", "quadratic_kernel_descend",
    "rational_kernel_and_rank", "rep_d", "rep_d0", "section_bracket",
    "section_mult", "semidirect_lie", "semidirect_lsa", "set_degree_limit",
    "sub_adjacent", "trivial_deformation", "vf_apply", "vf_bracket", "wedge",
)


def test_package_exports_exactly_the_pinned_names():
    tree = ast.parse(inspect.getsource(lsakit))
    imported = sorted(alias.asname or alias.name
                      for node in tree.body
                      if isinstance(node, ast.ImportFrom)
                      for alias in node.names)
    assert imported == sorted(EXPORTED)
    for name in EXPORTED:
        assert getattr(lsakit, name) is not None
    assert lsakit.__version__ == "0.1.0"
