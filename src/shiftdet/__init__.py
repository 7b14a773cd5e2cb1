"""Fredholm determinants of integrable integral operators with shifts.

The package computes the determinant chain det(I+V) = det(I+V~) det(I+W)
= det(I+V~) det_loop(I+M) = det(I+V~) det_line(I+N) for shift-type kernels
built on the generalized sine kernel, together with the large-x limit
det(I+S)/det(I+S~) -> det_loop(I+U+) det_loop(I+U-).

The top level holds only the config reader and the resolvent solve; every
other name lives in its submodule (``shiftdet.kernels``, ``quadrature``,
``rhp``, ``determinants``, ``experiments``, ``cli``).
"""

__version__ = "0.1.0"

from .kernels import problem_config_from_json
from .rhp import solve_chi

__all__ = ["__version__", "problem_config_from_json", "solve_chi"]
