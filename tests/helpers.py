"""Checks and conveniences that only the tests use.

The package never calls these; each is built on the package's public API,
except ``cli_ladder``, which reads the CLI parser's own ``--x`` default,
and ``N_planes`` and ``mask_patched_N``, which form the dense N's planes
with the private plane evaluator.
"""
import warnings
from dataclasses import replace
from math import pi

import numpy as np

from shiftdet.cli import _build_parser, _parse_xs
from shiftdet.determinants import DetResult, nystrom_det, nystrom_det_matrix
from shiftdet.kernels import (ConfigError, FunctionSpec, Grid, _kernel_planes,
                              gsk_vector_pair, real_kernel)
from shiftdet.rhp import NearIntervalWarning


def constant(value) -> FunctionSpec:
    return FunctionSpec("constant", {"value": complex(value)})


def polynomial(coeffs) -> FunctionSpec:
    return FunctionSpec("polynomial", {"coeffs": [complex(c) for c in coeffs]})


def scaled_gaussian(amplitude, center, scale) -> FunctionSpec:
    return FunctionSpec("scaled_gaussian_entire", {
        "amplitude": complex(amplitude),
        "center": complex(center),
        "scale": complex(scale),
    })


def identity():
    """The phase p(z) = z."""
    return polynomial([0.0, 1.0])


def cli_ladder(command: str) -> list:
    """The x grid the CLI's ``command`` runs when ``--x`` is not given."""
    return _parse_xs(_build_parser().parse_args([command, "cfg.json"]).x)


def gridded(kernel):
    """A closed-form kernel of broadcast points, as one that takes 1-D row
    points lam and 1-D column points mu and returns a ``Grid`` (the
    contract of the package's kernels): each block of rows is
    ``kernel(lam[rows, None], mu[None, :])``."""
    def grid(lam, mu):
        lam, mu = np.asarray(lam), np.asarray(mu)
        return Grid((lam.size, mu.size),
                    lambda rows: kernel(lam[rows, None], mu[None, :]))
    return grid


def pointwise(kernel, lam, mu):
    """A package kernel at the point pairs (lam_i, mu_i), for checks against
    a closed form: the entries (i, i) of its grid of lam against mu, the two
    broadcast to one 1-D length (a scalar a 1-element array)."""
    lam, mu = (np.atleast_1d(z).reshape(-1)
               for z in np.broadcast_arrays(lam, mu))
    i = np.arange(lam.size)
    return kernel(lam, mu).values()[i, i]


def with_n(cfg, n: int):
    """``cfg`` with its interval rule fixed at ``n`` Gauss nodes."""
    return replace(cfg, numerics=replace(cfg.numerics, n_interval=n))


def real_on_axis(cfg, which: str) -> bool:
    """Whether ``real_kernel`` holds for the kernel ``which`` of ``cfg``:
    "Vtilde" reads the pair alone; "V", and "M" and "N" (whose collocation
    matrices are then factored in float64), the pair and the shift table."""
    return real_kernel(gsk_vector_pair(cfg),
                       None if which == "Vtilde" else cfg.shift)


def integrate(rule, f) -> complex:
    """Apply the rule to a vectorized integrand."""
    return complex(np.sum(rule.weights * f(rule.nodes)))


def winding_number(rule, z0: complex) -> float:
    """(1/2*pi*i) * contour integral of dz/(z - z0), as a real number."""
    val = np.sum(rule.weights / (rule.nodes - z0)) / (2j * pi)
    return float(val.real)


def bracket(pair, lam, mu):
    """<E_L(lam), E_R(mu)> of a vector pair (plain bilinear pairing, no
    conjugation)."""
    return np.einsum("...a,...a->...", pair.E_L(np.asarray(lam, complex)),
                     pair.E_R(np.asarray(mu, complex)))


def validate_regularity(pair, a: float, b: float, tol: float = 1e-12,
                        n_grid: int = 257):
    """Raise ConfigError unless <E_L(lam), E_R(lam)> vanishes on [a, b]."""
    grid = np.linspace(a, b, n_grid)
    worst = np.max(np.abs(bracket(pair, grid, grid)))
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
    KL = chi.kernel(probes, lam_f).values() * fine.weights
    KR = chi.kernel(lam_f, probes).values().T * fine.weights
    res_L = chi.FL_at(probes) + np.einsum("pk,ka->pa", KL, FL_f) - EL_p
    res_R = chi.FR_at(probes) + np.einsum("pk,ka->pa", KR, FR_f) - ER_p
    scale_L = max(float(np.max(np.abs(EL_p))), 1e-300)
    scale_R = max(float(np.max(np.abs(ER_p))), 1e-300)
    return (float(np.max(np.abs(res_L))) / scale_L,
            float(np.max(np.abs(res_R))) / scale_R)


def complex_collocation(kernel, rule, dim=None) -> np.ndarray:
    """I + K diag(w) on the rule, assembled in one piece in complex
    arithmetic; a matrix kernel (dim not None) in the (node, component)
    layout."""
    lam, w = rule.nodes, rule.weights
    K = kernel(lam, lam).values()
    if dim is None:
        return np.eye(rule.size) + K * w
    K = (K * w[:, None, None]).transpose(0, 2, 1, 3)
    return np.eye(rule.size * dim) + K.reshape(rule.size * dim, -1)


def complex_det(kernel, rule, dim=None) -> DetResult:
    """The Nystrom determinant on ``rule`` and its half rule from complex
    assembly and complex LU: the oracle of the real-arithmetic path."""
    return DetResult(*(complex(np.linalg.det(complex_collocation(kernel, r,
                                                                 dim)))
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


def near_diagonal_mask(lam, mu, delta0: float):
    """The entries |lam - mu| < delta0 of the broadcast grid, as a boolean
    mask over all of it."""
    return np.abs(np.asarray(lam) - np.asarray(mu)) < delta0


def mask_near_diagonal_eval(lam, mu, delta0: float, direct, near):
    """A kernel with a removable lam = mu singularity, branch by branch, the
    near-diagonal entries selected by a boolean mask over the full grid:
    ``direct(lam, mu, d)`` gets d = lam - mu set to 1 on those entries, and
    ``near(lam, mu)`` (1-D, those entries only) replaces its values there.
    The result has the common dtype of both branches."""
    lam = np.asarray(lam)
    mu = np.asarray(mu)
    d = np.asarray(lam - mu)
    mask = near_diagonal_mask(lam, mu, delta0)
    if not mask.any():
        return direct(lam, mu, d)
    d[mask] = 1.0
    out = np.asarray(direct(lam, mu, d))
    vals = near(np.broadcast_to(lam, mask.shape)[mask],
                np.broadcast_to(mu, mask.shape)[mask])
    out = out.astype(np.result_type(out, vals), copy=False)
    out[mask] = vals
    return out


def N_planes(lam, mu, chi, shift, collocation: bool = False):
    """The factors of the dense line kernel N's planes at 1-D row points
    lam and 1-D column points mu for ``_kernel_planes`` (the oracle
    ``closed_forms.N_kernel``), and pref_k.

    pref_k [I - A B]_{v_k, l} with A = chi^-1(lam + i c_k/2),
    B = chi(mu - i c_l/2) is the product of the row factor
    (-pref_k A_{v_k, .}, pref_k e_{v_k}) and the column factor
    (B_{., l}, e_l), e the unit vectors of the pair's components.  A
    ``collocation`` takes the row k = 0 alone where ``real_kernel`` holds.
    The planes' shifts are s_kl = (c_k + c_l)/2."""
    pref = np.sign(shift.c) * shift.gamma / (2j * pi)
    K = 1 if collocation and real_kernel(chi.pair, shift) else shift.N
    eye = np.eye(chi.N)
    rows = []
    for k, c in enumerate(shift.c[:K]):
        A = -pref[k] * chi.chi_inv_at(lam + 0.5j * c)[..., shift.v0[k], :]
        e = np.broadcast_to(pref[k] * eye[shift.v0[k]], A.shape)
        rows.append(np.concatenate([A, e], axis=-1))
    cols = []
    for l, c in enumerate(shift.c):
        B = chi.chi_at(mu - 0.5j * c)[..., :, l]
        cols.append(np.concatenate([B, np.broadcast_to(eye[l], B.shape)],
                                   axis=-1))
    return rows, cols, 0.5 * (shift.c[:, None] + shift.c[None, :]), pref


def mask_patched_N(lam, mu, chi, shift, delta0: float):
    """The dense N on the grid of 1-D row points lam against 1-D column
    points mu as its planes with no removable diagonal (0/0 on the
    compensated pairs' near-diagonal entries), those entries then
    overwritten through a boolean mask over the full grid: the oracle of
    the evaluator's near option."""
    rows, cols, csum, pref = N_planes(lam, mu, chi, shift)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _kernel_planes(lam, mu, rows, cols, csum).values()
    idx = near_diagonal_mask(lam[:, None], mu[None, :], delta0)
    if not idx.any():
        return out
    i, j = np.nonzero(idx)
    for k, l in zip(*np.nonzero(np.abs(csum) < 1e-14)):
        z = lam[i] + 0.5j * shift.c[k]
        zp = mu[j] - 0.5j * shift.c[l]
        # [I - chi^-1(z) chi(z')]/(z - z') == chi^-1(z) * dchi(z, z')
        dchi = chi.delta_chi(z, zp)
        cinv = chi.chi_inv_at(z)
        out[..., k, l][idx] = pref[k] * np.matmul(cinv, dchi)[:, shift.v0[k], l]
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
