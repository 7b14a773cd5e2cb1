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

Collocation matrices are filled in row blocks of at most _BLOCK_BYTES of
kernel values, so a kernel's own temporaries stay bounded however large the
rule: the only order x order arrays are the collocation matrix and the copy
LAPACK factors.  The kernel's output decides the matrix's arithmetic: float64
blocks on real weights give a float64 matrix, factored in real arithmetic;
so do the k = 0 planes alone of a 2 x 2 matrix kernel, whose matrix a
conjugation symmetry fixes; anything else gives a complex one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .kernels import ConfigError, NumericError
from .quadrature import QuadratureRule

__all__ = ["DetResult", "nystrom_det", "nystrom_det_matrix",
           "factored_det", "assemble_collocation", "row_blocks",
           "require_memory"]

# bytes of kernel values evaluated per block of rows.  Loop and line kernels
# up to 400 nodes at N = 2 (10.24 MB) stay one block; smaller blocks
# would make N_kernel re-evaluate its column-side chi once per block
_BLOCK_BYTES = 16 << 20


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


def require_memory(order: int, what: str, itemsize: int,
                   values: Optional[int] = None):
    """ConfigError (exit 2) when a dense factorization of the given order
    would not fit in available memory.  Charged: the collocation matrix and
    the LU copy, order x order each at the factored matrix's ``itemsize``
    (16 complex, 8 real), and the kernel values, ``values`` bytes (default
    a third such array)."""
    matrix = order * order * itemsize
    need = 2 * matrix + (matrix if values is None else values)
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


def row_blocks(rows: int, row_bytes: int):
    """(i0, i1) ranges covering ``rows`` rows of ``row_bytes`` bytes each,
    at most _BLOCK_BYTES per range (and at least one row)."""
    step = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    return [(i0, min(i0 + step, rows)) for i0 in range(0, rows, step)]


def assemble_collocation(kernel: Callable, rule: QuadratureRule,
                         dim: Optional[int] = None) -> np.ndarray:
    """I + K diag(w) on the rule; dim None for a scalar kernel.

    ``kernel(z[i0:i1, None], z[None, :])`` is evaluated per row block and
    written, weighted (for a matrix kernel with block (j, k) = w_k K(z_j, z_k)
    in the row-major (node, component) layout), into one preallocated matrix.
    The matrix takes the dtype of the first block and the weights: float64
    for float64 values on an interval rule, complex otherwise.  Into a
    float64 matrix a later complex block must have a zero imaginary part
    (NumericError otherwise, so a kernel is never cut to its real part).
    A matrix kernel of dim 2 that returns only its k = 0 planes,
    (rows, m, 1, 2), is one whose matrix A obeys conj(A) = Q A Q
    (``kernels.M_kernel``): the matrix is then a float64 one similar to A
    (``_swap_planes``).
    A block the kernel returns is the assembler's to overwrite.
    The memory guard (``require_memory``) runs just before the matrix is
    allocated, charged with the kernel values' bytes and the matrix's
    entry size.
    """
    m, z = rule.size, rule.nodes
    w = np.repeat(rule.weights, dim or 1)          # weight of each column
    order = w.size
    what = "scalar" if dim is None else "matrix"
    # a scalar kernel is charged 32 bytes an entry, its values and the
    # temporaries of its evaluation (general_kernel_V's real path holds at
    # most four float64 arrays of the block's size at once), a matrix
    # kernel 16: the block size is fixed before the first block's dtype
    D = None
    for i0, i1 in row_blocks(m, order * (dim or 1) * (16 if dim else 32)):
        K = kernel(z[i0:i1, None], z[None, :])
        if D is None:
            swap = dim == 2 and np.shape(K)[2:] == (1, 2)
            cell = () if dim is None else (1 if swap else dim, dim)
        shape = (i1 - i0, m) + cell
        if np.shape(K) != shape:
            raise NumericError(
                f"{what} kernel returned shape {np.shape(K)}, expected {shape}")
        if not np.isfinite(K).all():
            raise NumericError(f"{what} kernel produced non-finite values at "
                               f"node pairs")
        if D is None:
            dtype = np.dtype(float) if swap else np.result_type(K, w)
            require_memory(order, f"{what} kernel on the {rule.domain_kind} "
                           f"rule of {m} nodes", dtype.itemsize,
                           K.nbytes // (i1 - i0) * m)
            D = np.empty((order, order), dtype=dtype)
        elif np.iscomplexobj(K) and not np.iscomplexobj(D) and not swap:
            if np.any(K.imag):
                raise NumericError(f"{what} kernel returned complex values "
                                   f"for a real collocation matrix")
            K = K.real
        if dim is None:
            np.multiply(K, w, out=D[i0:i1])
        elif swap:
            _swap_planes(K, rule, D, i0, i1)
        else:
            # one weighted pass per (k, l) plane, contiguous in M/N's output
            D4 = D.reshape(m, dim, m, dim)
            for k, l in np.ndindex(dim, dim):
                np.multiply(K[..., k, l], rule.weights, out=D4[i0:i1, k, :, l])
    idx = np.arange(D.shape[0])
    D[idx, idx] += 1.0
    return D


def _swap_planes(K: np.ndarray, rule: QuadratureRule, D: np.ndarray,
                 i0: int, i1: int):
    """Rows i0:i1 of a real matrix similar to A = I + K diag(w), from A's
    k = 0 planes P_l = K_0l diag(w).

    conj(A) = Q A Q, Q = sigma (x) s (sigma the rule's ``conjugation``:
    the reversal on a loop, the identity on the line; s the swap), gives
    every entry of the real B = Re A - Im(QA) from those planes:

        B[(0, i), (l, j)]       = Re P_l[i, j] + Im P_s(l)[i, sigma j]
        B[(1, sigma i), (l, j)] = Re P_s(l)[i, sigma j] - Im P_l[i, j]

    and B = T^-1 A T with the unitary T = (I - i Q)/2^(1/2), so
    det B = det A.  D holds B with its rows and columns permuted alike,
    which keeps the determinant: component-major, the second component's
    nodes in sigma order.  With X = P_0 and Y = P_1[:, sigma] that is
    [[Re X + Im Y, Re Y + Im X], [Re Y - Im X, Re X - Im Y]], every row
    contiguous.  The planes are weighted in K's own memory, and Y is read
    through sigma as a view.  The identity is added after.
    """
    m, X, Y = rule.size, K[..., 0, 0], K[..., 0, 1]
    X *= rule.weights
    Y *= rule.weights
    Y = Y[:, rule.conjugation]
    B = D.reshape(2, m, 2, m)
    np.add(X.real, Y.imag, out=B[0, i0:i1, 0])
    np.add(Y.real, X.imag, out=B[0, i0:i1, 1])
    np.subtract(Y.real, X.imag, out=B[1, i0:i1, 0])
    np.subtract(X.real, Y.imag, out=B[1, i0:i1, 1])


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
        value = _det(assemble_collocation(kernel, rule, dim))
    return DetResult(value, _det(assemble_collocation(kernel, half_rule, dim)),
                     rule.size)


def nystrom_det(kernel: Callable, rule: QuadratureRule,
                value: Optional[complex] = None) -> DetResult:
    """Fredholm determinant of a scalar kernel over a quadrature rule.

    The kernel must accept broadcast complex arrays (lam, mu) and be finite
    at every node pair (diagonal limits are the kernel's responsibility).
    A caller that has already factored the collocation matrix of ``kernel``
    on ``rule`` passes its determinant as ``value``; only the
    half-resolution rerun is computed then.  A kernel that returns float64
    on an interval rule is factored in real arithmetic (see
    ``assemble_collocation``).
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
