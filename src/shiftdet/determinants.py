"""Nystrom Fredholm determinants with self-certifying convergence deltas.

det(I + K) is approximated by the dense determinant of the collocation
matrix delta_jk + w_k K(z_j, z_k) over a quadrature rule; for matrix-valued
kernels the (j, k) block is w_k K(z_j, z_k) and the determinant is taken of
the full (m N) x (m N) matrix.  Weights multiply columns rather than being
split symmetrically: contour weights are complex, so sqrt(w) is ill-defined,
and the determinant is invariant under the similarity that separates the two
choices anyway.

Every determinant is returned together with a convergence delta -- the
relative change against an automatic half-resolution rerun -- so downstream
identity residuals can certify that they measure mathematics rather than
quadrature error.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .kernels import ConfigError, NumericError
from .quadrature import QuadratureRule

__all__ = ["DetResult", "nystrom_det", "nystrom_det_matrix", "convergence_study",
           "collocation_matrix"]


@dataclass(frozen=True)
class DetResult:
    """A determinant value plus the evidence that it has converged."""

    value: complex
    rule_size: int
    convergence_delta: float     # |value - value_at_half_resolution| / |value|
    elapsed: float               # seconds, both resolutions included

    def __post_init__(self):
        if not np.isfinite([self.value]).all():
            raise NumericError("determinant value is not finite")
        if not np.isfinite(self.convergence_delta):
            raise NumericError("convergence delta is not finite")


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


def _kernel_matrix(kernel: Callable, rule: QuadratureRule, shape: tuple,
                   what: str):
    z = rule.nodes
    K = kernel(z[:, None], z[None, :])
    if np.shape(K) != shape:
        raise NumericError(
            f"{what} kernel returned shape {np.shape(K)}, expected {shape}")
    if not np.isfinite(K).all():
        raise NumericError(f"{what} kernel produced non-finite values at "
                           f"node pairs")
    return K


def _det(D: np.ndarray) -> complex:
    try:
        det = complex(np.linalg.det(D))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"determinant factorization failed: {exc}") from exc
    if not np.isfinite([det]).all():
        raise NumericError("determinant overflowed or is undefined")
    return det


def _collocation_det(kernel: Callable, rule: QuadratureRule) -> complex:
    m = rule.size
    K = _kernel_matrix(kernel, rule, (m, m), "scalar")
    return _det(collocation_matrix(K, rule.weights))


def _collocation_det_matrix(kernel: Callable, rule: QuadratureRule,
                            dim: int) -> complex:
    m = rule.size
    K = _kernel_matrix(kernel, rule, (m, m, dim, dim), "matrix")
    # block (j,k) = w_k * K(z_j, z_k); row-major interleave (node, component)
    D = np.empty((m * dim, m * dim), dtype=complex)
    D.reshape(m, dim, m, dim)[...] = np.transpose(K, (0, 2, 1, 3))
    return _det(collocation_matrix(D, np.repeat(rule.weights, dim)))


def _half(rule: QuadratureRule) -> QuadratureRule:
    half = rule.half()
    if half.size >= rule.size:
        raise ConfigError(
            f"a {rule.domain_kind} rule of {rule.size} nodes is at its floor "
            f"size: its half-resolution rerun is the same rule, so the "
            f"convergence delta would read 0")
    return half


def _wrap(value: complex, half_value: complex, size: int,
          t0: float) -> DetResult:
    delta = abs(value - half_value) / max(abs(value), 1e-30)
    return DetResult(value=value, rule_size=size, convergence_delta=delta,
                     elapsed=time.perf_counter() - t0)


def nystrom_det(kernel: Callable, rule: QuadratureRule,
                value: Optional[complex] = None) -> DetResult:
    """Fredholm determinant of a scalar kernel over a quadrature rule.

    The kernel must accept broadcast complex arrays (lam, mu) and be finite
    at every node pair (diagonal limits are the kernel's responsibility).
    A caller that has already factored the collocation matrix of ``kernel``
    on ``rule`` passes its determinant as ``value``; only the
    half-resolution rerun is computed then.
    """
    t0 = time.perf_counter()
    half_rule = _half(rule)
    if value is None:
        value = _collocation_det(kernel, rule)
    half = _collocation_det(kernel, half_rule)
    return _wrap(value, half, rule.size, t0)


def nystrom_det_matrix(kernel: Callable, rule: QuadratureRule,
                       dim: int) -> DetResult:
    """Fredholm determinant of a dim x dim matrix kernel over a rule."""
    t0 = time.perf_counter()
    half_rule = _half(rule)
    value = _collocation_det_matrix(kernel, rule, dim)
    half = _collocation_det_matrix(kernel, half_rule, dim)
    return _wrap(value, half, rule.size, t0)


def convergence_study(kernel: Callable, rule: QuadratureRule,
                      sizes: Sequence[int],
                      matrix_dim: Optional[int] = None) -> List[DetResult]:
    """Determinants of one kernel across increasing rule sizes.

    Rebuilds the rule at each size from its descriptor, so the geometry
    (interval, loop, line) is preserved while only the resolution changes.
    """
    if list(sizes) != sorted(set(sizes)):
        raise ValueError("sizes must be strictly increasing")
    out = []
    for s in sizes:
        r = rule.with_size(s)
        if matrix_dim is None:
            out.append(nystrom_det(kernel, r))
        else:
            out.append(nystrom_det_matrix(kernel, r, matrix_dim))
    return out
