"""Exact q-expansions for vector-valued half-integral weight modular forms.

Sparse rational q-series on fractional exponent lattices, expansions for
the two sign characters of the discriminant module of level N, operator
calculus (automorphisms, Hecke, index raising and spreading, the formal
shadow map), Borcherds-type infinite products with eta-product targets,
and the cusp/CM divisor linear algebra behind matching a divisor by eta
products.  Everything is exact: all coefficients are fractions.
"""

from .borcherds import (EtaIdentityReport, ProductResult, borcherds_product,
                        eta_product, exponent_table, verify_eta_identity,
                        weyl_vector)
from .discform import (atkin_lehner, divisor_classes, divisors,
                       exact_divisors, euler_phi, index_gamma0,
                       is_exact_divisor, qvalue)
from .divisors import (Certificate, CuspClass, CuspDivisor, HeegnerDivisor,
                       HeegnerReport, MatchingError, converse_pipeline,
                       cusp_classes, cusp_count, cusp_space_dimension,
                       eta_divisor, eta_order, fricke_image, heegner_data,
                       heegner_degree, reduced_forms, solve_cusp_matching)
from .fracq import FracSeries, eta_series
from .heckeops import hecke_tp, level_u, level_v
from .verify import SUITES, SuiteResult, run_suite
from .vvforms import (DecompositionError, VVExpansion, apply_aut, basis_m_half,
                      decompose, formal_xi, random_supported, theta_series)

__version__ = "0.1.0"

__all__ = [
    "FracSeries", "eta_series",
    "qvalue", "atkin_lehner", "divisors", "exact_divisors",
    "is_exact_divisor", "divisor_classes", "euler_phi", "index_gamma0",
    "VVExpansion", "theta_series", "apply_aut", "basis_m_half",
    "decompose", "formal_xi", "random_supported", "DecompositionError",
    "hecke_tp", "level_u", "level_v",
    "ProductResult", "EtaIdentityReport", "borcherds_product", "eta_product",
    "exponent_table", "verify_eta_identity", "weyl_vector",
    "CuspClass", "CuspDivisor", "HeegnerDivisor", "HeegnerReport",
    "Certificate", "MatchingError", "cusp_classes", "cusp_count",
    "cusp_space_dimension", "eta_order", "eta_divisor", "fricke_image",
    "solve_cusp_matching", "reduced_forms", "heegner_degree", "heegner_data",
    "converse_pipeline",
    "SuiteResult", "SUITES", "run_suite",
    "__version__",
]
