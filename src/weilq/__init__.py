"""Exact q-expansions for vector-valued half-integral weight modular forms.

Sparse rational q-series on fractional exponent lattices, expansions for
the two sign characters of the discriminant module of level N, operator
calculus (automorphisms, Hecke, index raising and spreading, the formal
shadow map), Borcherds-type infinite products with eta-product targets,
the cusp divisor linear algebra behind matching a divisor by eta products,
and weighted CM-point degrees.  Everything is exact: all coefficients are
fractions.
"""

from .borcherds import (ProductResult, borcherds_product, eta_product,
                        exponent_table, weyl_vector)
from .discform import (atkin_lehner, divisor_classes, divisors, exact_divisors,
                       euler_phi, index_gamma0)
from .divisors import (CuspClass, CuspDivisor, MatchingError, cusp_classes,
                       cusp_space_dimension, eta_divisor, eta_order,
                       fricke_image, heegner_degree, reduced_forms,
                       solve_cusp_matching)
from .fracq import FracSeries, eta_series
from .heckeops import hecke_tp, level_u, level_v
from .verify import SUITES, SuiteResult, run_suite
from .vvforms import (DecompositionError, VVExpansion, apply_aut, basis_m_half,
                      decompose, formal_xi, random_supported, theta_series)

__version__ = "0.1.0"

__all__ = [
    "FracSeries", "eta_series",
    "atkin_lehner", "divisors", "exact_divisors", "divisor_classes",
    "euler_phi", "index_gamma0",
    "VVExpansion", "theta_series", "apply_aut", "basis_m_half",
    "decompose", "formal_xi", "random_supported", "DecompositionError",
    "hecke_tp", "level_u", "level_v",
    "ProductResult", "borcherds_product", "eta_product", "exponent_table",
    "weyl_vector",
    "CuspClass", "CuspDivisor", "MatchingError", "cusp_classes",
    "cusp_space_dimension", "eta_order", "eta_divisor", "fricke_image",
    "solve_cusp_matching", "reduced_forms", "heegner_degree",
    "SuiteResult", "SUITES", "run_suite",
    "__version__",
]
