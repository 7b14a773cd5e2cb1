"""Nystrom Fredholm determinants with self-certifying convergence deltas.

det(I + K) is approximated by the dense determinant of the collocation
matrix delta_jk + w_k K(z_j, z_k) over a quadrature rule; for matrix-valued
kernels the (j, k) block is w_k K(z_j, z_k) and the determinant is taken of
the full (m N) x (m N) matrix.  Weights multiply columns rather than being
split symmetrically: contour weights are complex, so sqrt(w) is ill-defined,
and the determinant is invariant under the similarity that separates the two
choices anyway.

Every determinant is returned together with its value at an automatic
half-resolution rerun; their relative change, the convergence delta, lets
downstream identity residuals certify that they measure mathematics rather
than quadrature error.

An operator given as factors X, Y (n x R) of its collocation product
K diag(w) = X Y^T skips the n x n matrix when R < n: Sylvester's identity
det(I_n + X Y^T) = det(I_R + Y^T X) takes the determinant on the smaller
side.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .kernels import ConfigError, NumericError
from .quadrature import QuadratureRule

__all__ = ["DetResult", "nystrom_det", "nystrom_det_matrix",
           "factored_det", "collocation_matrix", "require_memory"]


@dataclass(frozen=True)
class DetResult:
    """A determinant value plus its value at half resolution."""

    value: complex
    half: complex                # the same determinant on rule.half()
    rule_size: int

    def __post_init__(self):
        if not np.isfinite([self.value, self.half]).all():
            raise NumericError("determinant value is not finite")

    @property
    def convergence_delta(self) -> float:
        """|value - half| / |value|: the evidence that value has converged."""
        return abs(self.value - self.half) / max(abs(self.value), 1e-30)


def collocation_matrix(K, weights) -> np.ndarray:
    """I + K diag(weights) for an (n, n) kernel matrix K, built in K's memory.

    K is scaled and its diagonal raised in place when it is a writable
    complex array that owns its data (a fresh kernel result); any other
    array -- read-only, a view or broadcast, or not complex -- is copied
    first, so a caller's array is never modified.
    """
    if not (isinstance(K, np.ndarray) and K.dtype == complex
            and K.flags.owndata and K.flags.writeable):
        K = np.array(K, dtype=complex)
    K *= weights[None, :]
    idx = np.arange(K.shape[0])
    K[idx, idx] += 1.0
    return K


def _mem_available(path: str = "/proc/meminfo") -> Optional[int]:
    """MemAvailable of ``path`` in bytes; None where it is not known."""
    try:
        with open(path, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def require_memory(order: int, what: str):
    """ConfigError (exit 2) when a dense factorization of the given order
    would not fit in available memory.  Three complex order x order arrays
    are alive at once: the kernel values, the collocation matrix and the LU
    copy."""
    need = 3 * order * order * 16
    avail = _mem_available()
    if avail is not None and need > avail:
        raise ConfigError(
            f"{what}: a dense factorization of order {order} needs about "
            f"{need} bytes, more than the {avail} bytes of memory available")


def _det(D: np.ndarray) -> complex:
    try:
        det = complex(np.linalg.det(D))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"determinant factorization failed: {exc}") from exc
    if not np.isfinite([det]).all():
        raise NumericError("determinant overflowed or is undefined")
    return det


def _collocation_det(kernel: Callable, rule: QuadratureRule,
                     dim: Optional[int]) -> complex:
    """det(I + K diag(w)) on the rule; dim None for a scalar kernel."""
    m, z = rule.size, rule.nodes
    shape = (m, m) if dim is None else (m, m, dim, dim)
    what = "scalar" if dim is None else "matrix"
    require_memory(m * (dim or 1), f"{what} kernel on the "
                   f"{rule.domain_kind} rule of {m} nodes")
    K = kernel(z[:, None], z[None, :])
    if np.shape(K) != shape:
        raise NumericError(
            f"{what} kernel returned shape {np.shape(K)}, expected {shape}")
    if not np.isfinite(K).all():
        raise NumericError(f"{what} kernel produced non-finite values at "
                           f"node pairs")
    if dim is not None:
        # block (j,k) = w_k * K(z_j, z_k); row-major interleave (node, component)
        D = np.empty((m * dim, m * dim), dtype=complex)
        D.reshape(m, dim, m, dim)[...] = np.transpose(K, (0, 2, 1, 3))
        K = D
    return _det(collocation_matrix(K, np.repeat(rule.weights, dim or 1)))


def _half(rule: QuadratureRule) -> QuadratureRule:
    half_rule = rule.half()
    if half_rule.size >= rule.size:
        raise ConfigError(
            f"a {rule.domain_kind} rule of {rule.size} nodes is at its floor "
            f"size: its half-resolution rerun is the same rule, so the "
            f"convergence delta would read 0")
    return half_rule


def _nystrom(kernel: Callable, rule: QuadratureRule, dim: Optional[int],
             value: Optional[complex]) -> DetResult:
    half_rule = _half(rule)
    if value is None:
        value = _collocation_det(kernel, rule, dim)
    return DetResult(value, _collocation_det(kernel, half_rule, dim), rule.size)


def nystrom_det(kernel: Callable, rule: QuadratureRule,
                value: Optional[complex] = None) -> DetResult:
    """Fredholm determinant of a scalar kernel over a quadrature rule.

    The kernel must accept broadcast complex arrays (lam, mu) and be finite
    at every node pair (diagonal limits are the kernel's responsibility).
    A caller that has already factored the collocation matrix of ``kernel``
    on ``rule`` passes its determinant as ``value``; only the
    half-resolution rerun is computed then.
    """
    return _nystrom(kernel, rule, None, value)


def nystrom_det_matrix(kernel: Callable, rule: QuadratureRule,
                       dim: int) -> DetResult:
    """Fredholm determinant of a dim x dim matrix kernel over a rule."""
    return _nystrom(kernel, rule, dim, None)


def _sylvester_det(X: np.ndarray, Y: np.ndarray) -> complex:
    """det(I_n + X Y^T) for X, Y of shape (n, R), as det(I_R + Y^T X)
    when R < n."""
    D = Y.T @ X if X.shape[1] < X.shape[0] else X @ Y.T
    idx = np.arange(D.shape[0])
    D[idx, idx] += 1.0
    return _det(D)


def factored_det(factors: Callable[[QuadratureRule],
                                   Tuple[np.ndarray, np.ndarray]],
                 rule: QuadratureRule) -> DetResult:
    """Fredholm determinant of an operator given by its collocation factors.

    ``factors(r)`` returns X, Y of shape (r.size, R) with X Y^T = K diag(w)
    on the rule r; it is called on ``rule`` and on its half-resolution rule.
    """
    return DetResult(_sylvester_det(*factors(rule)),
                     _sylvester_det(*factors(_half(rule))), rule.size)
