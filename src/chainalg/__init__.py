"""Exact-arithmetic engine for finitely generated graded chain complexes.

Verifies bialgebra-type structures (product, coproduct, unit), cone
products and their component formulas, and secondary-continuation
relations against closed-form fixtures, entirely over Z, Q, or GF(p).
"""

from .rings import ZZ, QQ, GF, Ring, ring_from_name
from .matrices import ExactMatrix, ImageSolver, smith_normal_form, image_rank
from .graded import (
    BasisElement,
    GradedModule,
    GradedMap,
    Vector,
    tensor,
    shift,
    shift_map,
    dual_module,
    dual_map,
    apply_op_shift,
    dual_pair,
)
from .complexes import (
    ChainComplex,
    ChainMap,
    ComplexBundle,
    HomologySummary,
    homology,
    mapping_cone,
    quotient_by_image,
    graded_commutator,
    is_chain_homotopic,
    is_essential,
    induced_quotient_homotopy,
    transition_automorphism,
    induced_map_on_homology,
)
from .bialgebra import (
    BialgebraData,
    AxiomReport,
    check_axioms,
    lambda_eta,
    check_involutivity,
    check_cc_implies_antisymmetry,
    secondary_relation_apply,
    check_lemma_c_lambda_eta,
    check_loday_ronco,
)
from .cone_product import (
    ConeProductData,
    ConeProductOps,
    derive_secondary_ops,
    assemble_cone_product,
    closed_form_components,
    cross_check_components,
    check_cone_associativity,
    check_assoc_implies_infinitesimal,
    cone_data_from_bialgebra,
)
from .fixtures import (
    TruncationWindow,
    make_loop_sphere,
    make_loop_circle,
    make_based_loop,
    make_tstar_s1,
    make_random_instance,
    make_fixture,
    fixture_names,
)
from .scenario import (Scenario, SchemaError, ingest, load, export_bialgebra,
                       export_complex)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
