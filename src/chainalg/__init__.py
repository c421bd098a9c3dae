"""Exact-arithmetic engine for finitely generated graded chain complexes.

Verifies bialgebra-type structures (product, coproduct, unit), cone
products and their component formulas, and secondary-continuation
relations against closed-form fixtures, entirely over Z, Q, or GF(p).

The package namespace holds the rings and the exact matrices only, so that
`import chainalg` loads those two modules and nothing else.  Every other
name is imported from its module, e.g. `from chainalg.bialgebra import
check_axioms`; `chainalg.cli` imports every module.
"""

from .rings import ZZ, QQ, GF, Ring, ring_from_name
from .matrices import ExactMatrix, ImageSolver, smith_normal_form, image_rank

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
