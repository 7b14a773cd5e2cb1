"""Fredholm determinants of integrable integral operators with shifts.

The package computes the determinant chain det(I+V) = det(I+V~) det(I+W)
= det(I+V~) det_loop(I+M) = det(I+V~) det_line(I+N) for shift-type kernels
built on the generalized sine kernel, together with the large-x limit
det(I+S)/det(I+S~) -> det_loop(I+U+) det_loop(I+U-).
"""

__version__ = "0.1.0"

from .determinants import DetResult, nystrom_det, nystrom_det_matrix
from .experiments import (ComparisonRow, IdentityReport, SweepRow,
                          asymptotic_sweep, compute_determinant,
                          fit_decay_slope, limit_determinants, m_vs_m0,
                          verify_factorization)
from .kernels import (ConfigError, FunctionSpec, NumericError,
                      NumericsConfig, ProblemConfig, ShiftSpec,
                      ToleranceConfig, VectorPairSpec, eval_e,
                      general_kernel_V, gsk_shift_spec, gsk_vector_pair,
                      problem_config_from_json)
from .quadrature import (QuadratureRule, compactified_line_rule,
                         gauss_legendre_rule, stadium_loop_rule,
                         truncated_line_rule)
from .rhp import (AlphaEvaluator, ChiSolution, NearIntervalWarning,
                  jump_residual_chi, make_alpha, solve_chi)

__all__ = [
    "__version__",
    "ConfigError", "NumericError",
    "FunctionSpec", "ShiftSpec", "VectorPairSpec",
    "NumericsConfig", "ToleranceConfig", "ProblemConfig",
    "problem_config_from_json",
    "eval_e", "general_kernel_V",
    "gsk_vector_pair", "gsk_shift_spec",
    "QuadratureRule", "gauss_legendre_rule", "stadium_loop_rule",
    "compactified_line_rule", "truncated_line_rule",
    "ChiSolution", "AlphaEvaluator", "NearIntervalWarning",
    "solve_chi", "make_alpha", "jump_residual_chi",
    "DetResult", "nystrom_det", "nystrom_det_matrix",
    "IdentityReport", "SweepRow", "ComparisonRow",
    "verify_factorization", "asymptotic_sweep", "fit_decay_slope",
    "limit_determinants", "m_vs_m0", "compute_determinant",
]
