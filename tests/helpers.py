"""Checks and conveniences that only the tests use.

The package never calls these; each is built on the package's public API.
"""
import warnings
from math import pi

import numpy as np

from shiftdet.determinants import DetResult, nystrom_det, nystrom_det_matrix
from shiftdet.kernels import ConfigError, FunctionSpec
from shiftdet.rhp import NearIntervalWarning


def identity():
    """The phase p(z) = z."""
    return FunctionSpec.polynomial([0.0, 1.0])


def integrate(rule, f) -> complex:
    """Apply the rule to a vectorized integrand."""
    return complex(np.sum(rule.weights * f(rule.nodes)))


def winding_number(rule, z0: complex) -> float:
    """(1/2*pi*i) * contour integral of dz/(z - z0), as a real number."""
    val = np.sum(rule.weights / (rule.nodes - z0)) / (2j * pi)
    return float(val.real)


def validate_regularity(pair, a: float, b: float, tol: float = 1e-12,
                        n_grid: int = 257):
    """Raise ConfigError unless <E_L(lam), E_R(lam)> vanishes on [a, b]."""
    grid = np.linspace(a, b, n_grid)
    worst = np.max(np.abs(pair.bracket(grid, grid)))
    scale = max(np.max(np.abs(pair.E_L(grid))) * np.max(np.abs(pair.E_R(grid))), 1.0)
    if worst > tol * scale:
        raise ConfigError(
            f"vector pair violates the regularity condition: "
            f"max |<E_L, E_R>| = {worst:.3e} on [{a}, {b}]")


def convergence_study(kernel, rule, sizes, matrix_dim=None):
    """Determinants of one kernel across increasing rule sizes.

    Rebuilds the rule at each size from its descriptor, so the geometry
    (interval, loop, line) is preserved while only the resolution changes.
    """
    if list(sizes) != sorted(set(sizes)):
        raise ValueError("sizes must be strictly increasing")
    if matrix_dim is None:
        return [nystrom_det(kernel, rule.with_size(s)) for s in sizes]
    return [nystrom_det_matrix(kernel, rule.with_size(s), matrix_dim)
            for s in sizes]


def equation_residuals(chi, refine: int = 2):
    """Max relative residual of both resolvent equations of ``chi`` at
    off-node probe points.

    The integrals are re-evaluated on a rule ``refine`` times finer, with
    all off-node values supplied by Nystrom interpolation, so this is a
    genuine self-consistency check rather than a tautology.
    """
    fine = chi.rule.with_size(refine * chi.rule.size)
    lam_f = fine.nodes
    FL_f = chi.FL_at(lam_f)
    FR_f = chi.FR_at(lam_f)
    probes = 0.5 * (chi.rule.nodes[:-1] + chi.rule.nodes[1:])
    EL_p = chi.pair.E_L(probes)
    ER_p = chi.pair.E_R(probes)
    KL = chi.kernel(probes[:, None], lam_f[None, :]) * fine.weights
    KR = chi.kernel(lam_f[None, :], probes[:, None]) * fine.weights
    res_L = chi.FL_at(probes) + np.einsum("pk,ka->pa", KL, FL_f) - EL_p
    res_R = chi.FR_at(probes) + np.einsum("pk,ka->pa", KR, FR_f) - ER_p
    scale_L = max(float(np.max(np.abs(EL_p))), 1e-300)
    scale_R = max(float(np.max(np.abs(ER_p))), 1e-300)
    return (float(np.max(np.abs(res_L))) / scale_L,
            float(np.max(np.abs(res_R))) / scale_R)


def complex_collocation(kernel, rule) -> np.ndarray:
    """I + K diag(w) on the rule, assembled in one piece in complex
    arithmetic."""
    lam = rule.nodes
    return np.eye(rule.size) + kernel(lam[:, None], lam[None, :]) * rule.weights


def complex_det(kernel, rule) -> DetResult:
    """The Nystrom determinant on ``rule`` and its half rule from complex
    assembly and complex LU: the oracle of the real-arithmetic path."""
    return DetResult(*(complex(np.linalg.det(complex_collocation(kernel, r)))
                       for r in (rule, rule.half())), rule.size)


def complex_resolvent(chi):
    """F_L, F_R at the nodes and det(I + V~) of chi's equations, solved on
    the complex collocation matrix of chi's kernel."""
    rule = chi.rule
    w = rule.weights[:, None]
    D = complex_collocation(chi.kernel, rule)
    FL = np.linalg.solve(D, chi.pair.E_L(rule.nodes))
    FR = np.linalg.solve(D.T, w * chi.pair.E_R(rule.nodes)) / w
    return FL, FR, complex(np.linalg.det(D))


def gauss_sum(rule, densities, *points) -> np.ndarray:
    """sum_j w_j dens_j / prod_p (lam_j - p) over every node of ``rule``,
    one product for all points: the direct sum the evaluators' far path
    approximates through Chebyshev proxy points, shape (M, D)."""
    lam = rule.nodes
    flat = [np.asarray(p, dtype=complex).reshape(-1) for p in points]
    den = lam[None, :] - flat[0][:, None]
    for p in flat[1:]:
        den *= lam[None, :] - p[:, None]
    return (rule.weights / den) @ densities.reshape(rule.size, -1)


def _chi_densities(chi):
    nodes = chi.rule.nodes
    return (np.einsum("jp,jq->jpq", chi.FR_nodes, chi.pair.E_L(nodes)),
            np.einsum("jp,jq->jpq", chi.pair.E_R(nodes), chi.FL_nodes))


def direct_chi(chi, z, inverse: bool = False) -> np.ndarray:
    """chi(z), or chi(z)^-1, of a ChiSolution by the direct Gauss sum."""
    z = np.asarray(z, dtype=complex)
    rho_R, rho_L = _chi_densities(chi)
    C = gauss_sum(chi.rule, rho_L if inverse else rho_R, z)
    out = (C if inverse else -C).reshape(z.shape + (chi.N, chi.N))
    idx = np.arange(chi.N)
    out[..., idx, idx] += 1.0
    return out


def direct_delta_chi(chi, z1, z2) -> np.ndarray:
    """[chi(z1) - chi(z2)] / (z1 - z2) of a ChiSolution by the direct
    Gauss sum."""
    z1, z2 = np.broadcast_arrays(np.asarray(z1, complex), np.asarray(z2, complex))
    out = -gauss_sum(chi.rule, _chi_densities(chi)[0], z1, z2)
    return out.reshape(z1.shape + (chi.N, chi.N))


def direct_alpha(alpha, z) -> np.ndarray:
    """alpha(z) of an AlphaEvaluator by the direct Gauss sum."""
    z = np.asarray(z, dtype=complex)
    C = gauss_sum(alpha.rule, alpha.logF_nodes / (2j * pi), z)
    return np.exp(-C.reshape(z.shape))


def mask_near_diagonal_eval(lam, mu, delta0: float, direct, near):
    """``near_diagonal_eval`` with the near-diagonal entries selected by a
    boolean mask over the full grid, for every shape of lam and mu."""
    lam = np.asarray(lam)
    mu = np.asarray(mu)
    d = np.asarray(lam - mu)
    mask = np.abs(d) < delta0
    if not mask.any():
        return direct(lam, mu, d)
    d[mask] = 1.0
    out = np.asarray(direct(lam, mu, d))
    vals = near(np.broadcast_to(lam, mask.shape)[mask],
                np.broadcast_to(mu, mask.shape)[mask])
    out = out.astype(np.result_type(out, vals), copy=False)
    out[mask] = vals
    return out


def transposed_jump_residual(lam0: float, eps: float, chi) -> float:
    """``jump_residual_chi`` with the dyad transposed: the residual of
    chi_- = chi_+ (I + 2 i pi E_L(lam0) E_R(lam0)^T), the wrong orientation
    the right one is compared against."""
    pts = lam0 + 1j * eps * np.array([0.5, 1.0, -0.5, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearIntervalWarning)
        vals = chi.chi_at(pts)
    chi_plus = 2.0 * vals[0] - vals[1]
    chi_minus = 2.0 * vals[2] - vals[3]
    lam = np.asarray(lam0, dtype=complex)
    G = np.eye(chi.N) + 2j * pi * np.outer(chi.pair.E_L(lam),
                                           chi.pair.E_R(lam))
    return float(np.linalg.norm(chi_minus - chi_plus @ G) / np.linalg.norm(G))
