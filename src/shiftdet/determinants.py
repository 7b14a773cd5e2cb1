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
K diag(w) = X Y^T (``kernels.LowRank``) skips the n x n matrix when R < n:
Sylvester's identity det(I_n + X Y^T) = det(I_R + Y^T X) takes the
determinant on the smaller side.

Collocation matrices are filled in row blocks from the kernel's grid
(``kernels.Grid``), whose factors are evaluated once on the whole rule;
each block's values and the kernel's temporaries are charged at most
_BLOCK_BYTES (1 MiB, half the L2 cache of a core of the Xeon the budget was
chosen on), so a block is formed, checked, weighted and written into the
matrix while it is still in cache, and dropped.  The only order x order
arrays are the collocation matrix and the copy LAPACK factors.  The
kernel's output decides the matrix's arithmetic: float64 blocks on real
weights give a float64 matrix, factored in real arithmetic; so do the
k = 0 planes alone of a 2 x 2 matrix kernel, whose matrix a conjugation
symmetry fixes; anything else gives a complex one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernels import ConfigError, LowRank, NumericError
from .quadrature import QuadratureRule

__all__ = ["DetResult", "nystrom_det", "nystrom_det_matrix",
           "factored_det", "assemble_collocation", "row_blocks",
           "require_memory"]

# bytes charged per row block of a collocation matrix (see
# assemble_collocation): 15 rows of V at n = 1059, 64 of the 256-node loop,
# 40 of a 400-node line.  Swept on verify at x = 800 and 400 (2-core Xeon,
# 2 MiB L2 a core, OpenBLAS), fresh processes, the assemblies' total time,
# median of 9: 0.5 MiB 96.2 ms, 1 MiB 88.8, 2 MiB 92.0, 4 MiB 95.9, 8 MiB
# 100.2, 16 MiB 105.5.  Each matrix alone at 16, 32, 64 and 128 rows a
# block (warm, median of 15): V at n = 1059 13.4-13.9 ms (one block 24.1),
# V~ 7.1-7.4 (8.8), M on 256 nodes 3.5-4.0 (4.8)
_BLOCK_BYTES = 1 << 20
# bytes per row block of rhp's interpolants and Cauchy sums (``stream`` in
# row_blocks): one block on every shipped rule.  Their GEMMs sum over the
# nodes, and smaller blocks would round W's half-rule value differently
_STREAM_BYTES = 16 << 20


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


def require_memory(order: int, what: str, itemsize: int, values: int):
    """ConfigError (exit 2) when a dense factorization of the given order
    would not fit in available memory.  Charged: the collocation matrix and
    the LU copy, order x order each at the factored matrix's ``itemsize``
    (16 complex, 8 real), and the kernel values alive with them, ``values``
    bytes."""
    need = 2 * order * order * itemsize + values
    avail = _mem_available()
    if avail is not None and need > avail:
        raise ConfigError(
            f"{what}: a dense factorization of order {order} needs about "
            f"{need} bytes, more than the {avail} bytes of memory available")


def _det(D: np.ndarray) -> complex:
    """det D, factored as det D^T: the transpose of a C-contiguous D is
    Fortran-ordered, so numpy copies it to LAPACK without a strided
    gather."""
    try:
        det = complex(np.linalg.det(D.T))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"determinant factorization failed: {exc}") from exc
    if not np.isfinite([det]).all():
        raise NumericError("determinant overflowed or is undefined")
    return det


def row_blocks(rows: int, row_bytes: int, stream: bool = False):
    """(i0, i1) ranges covering ``rows`` rows of ``row_bytes`` bytes each,
    at most _BLOCK_BYTES (_STREAM_BYTES for a ``stream``) per range, and at
    least one row.  The fewest ranges that fit, of sizes that differ by at
    most one row: no lone last row beside longer ones, whose products numpy
    would take as matrix-vector ones, rounded unlike the other rows' GEMMs.
    """
    budget = _STREAM_BYTES if stream else _BLOCK_BYTES
    count = -(-rows // max(1, budget // max(row_bytes, 1)))
    return [(rows * i // count, rows * (i + 1) // count)
            for i in range(count)]


def assemble_collocation(kernel: Callable, rule: QuadratureRule,
                         dim: Optional[int] = None) -> np.ndarray:
    """I + K diag(w) on the rule; dim None for a scalar kernel.

    ``kernel(z, z)`` returns the kernel's ``kernels.Grid``
    on the rule, its factors evaluated once; each row block
    ``grid.block(slice(i0, i1))`` is checked and written, weighted (for a
    matrix kernel with block (j, k) = w_k K(z_j, z_k) in the row-major
    (node, component) layout), into one preallocated matrix while it is
    still in cache, and then dropped.
    The matrix takes the dtype of the first block and the weights: float64
    for float64 values on an interval rule, complex otherwise.  Into a
    float64 matrix a later complex block must have a zero imaginary part
    (NumericError otherwise, so a kernel is never cut to its real part).
    A matrix kernel of dim 2 that returns only its k = 0 planes,
    (rows, m, 1, 2), is one whose matrix A obeys conj(A) = Q A Q
    (``kernels.M_kernel``): the matrix is then a float64 one similar to A
    (``_swap_planes``).
    A block the grid forms is the assembler's to overwrite.
    The memory guard (``require_memory``) runs just before the matrix is
    allocated, charged with the matrix and LAPACK's copy at the matrix's
    entry size and the first block's bytes: no block outlives its
    weighting, so no other kernel values are alive with them.
    """
    m, z = rule.size, rule.nodes
    w = np.repeat(rule.weights, dim or 1)          # weight of each column
    what = "scalar" if dim is None else "matrix"
    # a scalar kernel is charged 64 bytes an entry, four complex arrays of
    # the block's size: the complex general_kernel_V holds three at once
    # (its values, and a shift term's plane buffer and denominator), the
    # fourth is to spare; a matrix kernel 16, its values.  The block
    # size is fixed before the first block's dtype
    grid, D = kernel(z, z), None
    for i0, i1 in row_blocks(m, w.size * (dim or 1) * (16 if dim else 64)):
        K = grid.block(slice(i0, i1))
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
            require_memory(w.size, f"{what} kernel on the {rule.domain_kind} "
                           f"rule of {m} nodes", dtype.itemsize, K.nbytes)
            D = np.empty((w.size, w.size), dtype=dtype)
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
        del K                       # no block outlives its weighting
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
    X, Y = K[..., 0, 0], K[..., 0, 1]
    X *= rule.weights
    Y *= rule.weights
    _real_similar(X, Y[:, rule.conjugation], D, slice(i0, i1))


def _real_similar(X: np.ndarray, Y: np.ndarray, D: np.ndarray, rows: slice):
    """Rows ``rows`` of each half of [[Re X + Im Y, Re Y + Im X],
    [Re Y - Im X, Re X - Im Y]], written into D (2h x 2h): the real
    B = Re S - Im(QS) of an S whose first h rows are [X, Y] and which obeys
    conj(S) = Q S Q, Q the swap of the two halves."""
    B = D.reshape(2, -1, 2, D.shape[1] // 2)
    np.add(X.real, Y.imag, out=B[0, rows, 0])
    np.add(Y.real, X.imag, out=B[0, rows, 1])
    np.subtract(Y.real, X.imag, out=B[1, rows, 0])
    np.subtract(X.real, Y.imag, out=B[1, rows, 1])


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

    The kernel must map broadcast complex arrays (lam, mu) to a
    ``kernels.Grid`` of its values, finite at every node pair (diagonal
    limits are the kernel's responsibility).
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


def _sylvester_det(op: LowRank, rule: QuadratureRule) -> complex:
    """det(I_n + X Y^T) for the factors ``op`` on ``rule``, as
    det(I_R + Y^T X) when R < n.

    The memory guard (``require_memory``) runs before the factors are
    formed, charged with X, Y, the Sylvester matrix and LAPACK's copy.
    Y = diag(Y_b) is multiplied one block at a time: row block b of Y^T X
    is Y_b^T times X's row block b, column block b of X Y^T is X's column
    block b times Y_b^T.  ``real`` factors (X its first half of rows) give
    the first half of the rows of S = Y^T X or X Y^T, which obeys
    conj(S) = Q S Q with Q the swap of its halves; the real
    B = Re S - Im(QS) is formed from them (``_real_similar``), and I + B,
    similar to I + S, is factored in float64.
    """
    order = min(op.n, op.rank)
    rows = order // 2 if op.real else order        # the rows of S formed
    x_rows = op.n // 2 if op.real else op.n
    require_memory(order, f"low-rank factors on the {rule.domain_kind} "
                   f"rule of {rule.size} nodes", 8 if op.real else 16,
                   16 * (x_rows * op.rank + op.n * op.rank // op.blocks
                         + (rows * order if op.real else 0)))
    X, Y = op.form()
    nb, rb = Y.shape[1:]
    S = np.empty((rows, order), dtype=complex)
    if op.rank < op.n:
        for b in range(rows // rb):
            np.matmul(Y[b].T, X[b * nb:(b + 1) * nb], out=S[b * rb:(b + 1) * rb])
    else:
        for b in range(op.blocks):
            np.matmul(X[:, b * rb:(b + 1) * rb], Y[b].T,
                      out=S[:, b * nb:(b + 1) * nb])
    del X, Y
    D = S
    if op.real:
        D = np.empty((order, order))
        _real_similar(S[:, :rows], S[:, rows:], D, slice(None))
        del S
    idx = np.arange(order)
    D[idx, idx] += 1.0
    return _det(D)


def factored_det(factors: Callable[[QuadratureRule], LowRank],
                 rule: QuadratureRule) -> DetResult:
    """Fredholm determinant of an operator given by its collocation factors.

    ``factors(r)`` returns the ``kernels.LowRank`` factors of K diag(w) on
    the rule r; it is called on ``rule`` and on its half-resolution rule.
    """
    half_rule = _half(rule)
    return DetResult(_sylvester_det(factors(rule), rule),
                     _sylvester_det(factors(half_rule), half_rule), rule.size)
