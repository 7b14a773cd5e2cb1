"""Resolvent solution and off-interval reconstruction of chi, chi^-1, alpha.

Solves the pair of linear integral equations

    F_L(lam) + int_a^b V~(lam, mu) F_L(mu) dmu = E_L(lam)
    F_R(lam) + int_a^b V~(mu, lam) F_R(mu) dmu = E_R(lam)

by Nystrom discretization on a Gauss-Legendre rule, then reconstructs

    chi(z)     = I - int_a^b F_R(mu) E_L^T(mu) / (mu - z) dmu
    chi^-1(z)  = I + int_a^b E_R(mu) F_L^T(mu) / (mu - z) dmu
    alpha(z)   = exp{ int_a^b ln(1 + F(mu)) / (z - mu) dmu / (2 i pi) }

anywhere off [a, b].  Far from the interval the reconstruction integrals are
evaluated by the same Gauss rule (geometric convergence).  Within ten node
spacings of [a, b] plain quadrature of a Cauchy integral loses accuracy like
exp(-2 n dist), so evaluation switches to a Legendre-expansion form: the
density is projected onto Legendre polynomials with the already-available
nodes and the transform is summed with second-kind functions Q_k, whose
branch cut is exactly [a, b].  The forward Q recurrence picks up the growing
first-kind solution away from the cut, which is why the expansion form is
used *only* inside the near zone and plain quadrature everywhere else; the
two agree to ~1e-15 at the handover distance.

Evaluations inside the near zone still emit ``NearIntervalWarning`` -- the
degraded-accuracy flag promised by the evaluator contract -- since even the
expansion form cannot represent the boundary jump itself.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, pi
from typing import Callable, Optional

import numpy as np

from .determinants import collocation_matrix, require_memory
from .kernels import (ConfigError, NumericError, ProblemConfig,
                      VectorPairSpec, bracket_kernel, gsk_vector_pair)
from .quadrature import QuadratureRule, gauss_legendre_rule

__all__ = [
    "NearIntervalWarning", "ChiSolution", "AlphaEvaluator",
    "solve_chi", "make_alpha", "jump_residual_chi",
]

# extra Legendre modes beyond the oscillation bandwidth of the density
_NEAR_MODE_MARGIN = 256


class NearIntervalWarning(UserWarning):
    """Evaluation point is within the degraded-accuracy zone around [a, b]."""


def _segment_distance(z, a: float, b: float):
    z = np.asarray(z, dtype=complex)
    re = np.clip(z.real, a, b)
    return np.hypot(z.real - re, z.imag)


class _NearCutCauchy:
    """Legendre-expansion evaluator for C(z) = int_a^b dens(mu)/(mu - z) dmu.

    Stable for z near the cut; do not use in the far field (the forward
    recurrence for Q_k amplifies the P_k component there).
    """

    def __init__(self, rule: QuadratureRule, densities: np.ndarray, n_modes: int):
        a = rule.descriptor["a"]
        b = rule.descriptor["b"]
        self.a, self.b = a, b
        n = rule.size
        K = max(2, min(n, n_modes))
        t = (2.0 * rule.nodes.real - (a + b)) / (b - a)
        w_hat = 2.0 * rule.weights.real / (b - a)
        # P table: P[k, j] = P_k(t_j)
        P = np.empty((K, n))
        P[0] = 1.0
        P[1] = t
        for k in range(1, K - 1):
            P[k + 1] = ((2 * k + 1) * t * P[k] - k * P[k - 1]) / (k + 1)
        dens = np.asarray(densities, dtype=complex).reshape(n, -1)
        k_arr = np.arange(K)[:, None]
        self.coefs = (k_arr + 0.5) * (P @ (w_hat[:, None] * dens))  # (K, D)
        self.K = K
        self.D = dens.shape[1]

    def eval(self, z_flat: np.ndarray) -> np.ndarray:
        """Return C(z) for a 1-D complex array, shape (M, D)."""
        zh = (2.0 * z_flat - (self.a + self.b)) / (self.b - self.a)
        q_prev = 0.5 * (np.log(zh + 1.0) - np.log(zh - 1.0))       # Q_0
        out = np.multiply.outer(q_prev, self.coefs[0])
        if self.K > 1:
            q = zh * q_prev - 1.0                                   # Q_1
            out += np.multiply.outer(q, self.coefs[1])
            for k in range(1, self.K - 1):
                q, q_prev = ((2 * k + 1) * zh * q - k * q_prev) / (k + 1), q
                out += np.multiply.outer(q, self.coefs[k + 1])
        return -2.0 * out


def _cauchy_transform(rule: QuadratureRule, densities: np.ndarray,
                      near: _NearCutCauchy, threshold: float, z,
                      warn: bool = True) -> np.ndarray:
    """C(z) = int_a^b dens(mu)/(mu - z) dmu with near/far dispatch.

    densities has shape (n, D); the result has shape z.shape + (D,).
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    dens = densities.reshape(rule.size, -1)
    out = np.empty((flat.size, dens.shape[1]), dtype=complex)
    dist = _segment_distance(flat, near.a, near.b)
    close = dist < threshold
    if np.any(~close):
        zf = flat[~close]
        ker = rule.weights[None, :] / (rule.nodes[None, :] - zf[:, None])
        out[~close] = ker @ dens
    if np.any(close):
        if warn:
            warnings.warn(
                f"evaluating within {threshold:.3g} of [{near.a}, {near.b}] "
                f"(10 node spacings): accuracy is degraded this close to the "
                f"cut", NearIntervalWarning, stacklevel=3)
        out[close] = near.eval(flat[close])
    return out.reshape(z.shape + (dens.shape[1],))


class _OnCut:
    """The cut [a, b] of an evaluator built on the Gauss rule ``self.rule``."""

    @property
    def a(self) -> float:
        return self.rule.descriptor["a"]

    @property
    def b(self) -> float:
        return self.rule.descriptor["b"]

    @property
    def near_threshold(self) -> float:
        """Distance below which reconstruction accuracy degrades."""
        return 10.0 * (self.b - self.a) / self.rule.size


# --------------------------------------------------------------------------
# chi
# --------------------------------------------------------------------------

@dataclass
class ChiSolution(_OnCut):
    """Nystrom solution of the resolvent equations plus evaluators.

    Immutable after construction; all evaluation methods are read-only and
    safe to call concurrently.
    """

    rule: QuadratureRule
    pair: VectorPairSpec
    FL_nodes: np.ndarray          # (n, N)
    FR_nodes: np.ndarray          # (n, N)
    det_tilde: complex
    kernel: Callable              # base kernel V~(lam, mu), vectorized
    bandwidth_hint: int = 0       # Legendre modes needed by the densities

    @property
    def N(self) -> int:
        return self.pair.N

    # -- densities and near-zone evaluators (built lazily, then cached) -----
    @cached_property
    def _rho_R(self) -> np.ndarray:
        # chi(z) = I - sum_j w_j rho_R_j / (lam_j - z), rho_R = F_R E_L^T
        EL = self.pair.E_L(self.rule.nodes)
        return np.einsum("jp,jq->jpq", self.FR_nodes, EL)

    @cached_property
    def _rho_L(self) -> np.ndarray:
        # chi^-1(z) = I + sum_j w_j rho_L_j / (lam_j - z), rho_L = E_R F_L^T
        ER = self.pair.E_R(self.rule.nodes)
        return np.einsum("jp,jq->jpq", ER, self.FL_nodes)

    @cached_property
    def _n_modes(self) -> int:
        return self.bandwidth_hint + _NEAR_MODE_MARGIN

    @cached_property
    def _near_R(self) -> _NearCutCauchy:
        n = self.rule.size
        return _NearCutCauchy(self.rule, self._rho_R.reshape(n, -1), self._n_modes)

    @cached_property
    def _near_L(self) -> _NearCutCauchy:
        n = self.rule.size
        return _NearCutCauchy(self.rule, self._rho_L.reshape(n, -1), self._n_modes)

    # -- evaluation ----------------------------------------------------------
    def chi_at(self, z, warn: bool = True) -> np.ndarray:
        """chi(z), shape z.shape + (N, N); z must avoid [a, b] itself."""
        N = self.N
        C = _cauchy_transform(self.rule, self._rho_R.reshape(self.rule.size, -1),
                              self._near_R, self.near_threshold, z, warn=warn)
        z = np.asarray(z, dtype=complex)
        out = -C.reshape(z.shape + (N, N))
        idx = np.arange(N)
        out[..., idx, idx] += 1.0
        return out

    def chi_inv_at(self, z, warn: bool = True) -> np.ndarray:
        """chi(z)^-1 via the left-density reconstruction (no matrix inverse)."""
        N = self.N
        C = _cauchy_transform(self.rule, self._rho_L.reshape(self.rule.size, -1),
                              self._near_L, self.near_threshold, z, warn=warn)
        z = np.asarray(z, dtype=complex)
        out = C.reshape(z.shape + (N, N))
        idx = np.arange(N)
        out[..., idx, idx] += 1.0
        return out

    def delta_chi(self, z1, z2) -> np.ndarray:
        """[chi(z1) - chi(z2)] / (z1 - z2), exact divided difference.

        Finite at z1 = z2 (where it equals chi'(z1)).  Both points must be
        in the far zone; the summand has only the quadrature-node poles.
        """
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        lam = self.rule.nodes
        ker = (self.rule.weights[None, :]
               / ((lam[None, :] - z1[..., None]) * (lam[None, :] - z2[..., None])))
        return -np.einsum("...j,jpq->...pq", ker, self._rho_R, optimize=True)

    def FL_at(self, lam) -> np.ndarray:
        """Nystrom interpolation of F_L; FL_nodes itself at the nodes.

        Asked at exactly ``rule.nodes`` (in order, any shape) it returns the
        solved values without re-assembling V~ on the nodes; interpolation
        would reproduce them up to the solve residual only.
        """
        lam = np.asarray(lam, dtype=complex)
        nodes = self.rule.nodes
        if lam.size == nodes.size and np.array_equal(lam.reshape(-1), nodes):
            return self.FL_nodes.reshape(lam.shape + (-1,)).copy()
        Kmat = self.kernel(lam[..., None], nodes)
        acc = np.einsum("...k,ka->...a", Kmat * self.rule.weights, self.FL_nodes)
        return self.pair.E_L(lam) - acc

    def FR_at(self, mu) -> np.ndarray:
        """Nystrom interpolation of F_R (transpose-kernel equation)."""
        mu = np.asarray(mu, dtype=complex)
        Kmat = self.kernel(self.rule.nodes, mu[..., None])
        acc = np.einsum("...k,ka->...a", Kmat * self.rule.weights, self.FR_nodes)
        return self.pair.E_R(mu) - acc


def _base_kernel(pair: VectorPairSpec, delta0: float) -> Callable:
    """The kernel V~ of ``pair`` (see ``bracket_kernel``) as a callable."""
    def kernel(lam, mu):
        return bracket_kernel(lam, mu, pair, delta0)
    return kernel


def solve_chi(cfg: ProblemConfig, pair: Optional[VectorPairSpec] = None,
              n: Optional[int] = None) -> ChiSolution:
    """Solve both resolvent equations on a Gauss-Legendre rule.

    Raises NumericError if the Nystrom matrix is numerically singular
    (det(I + V~) ~ 0, the unique-solvability condition) or if the node
    residuals of the solved systems exceed 1e-10 relative, and ConfigError
    if the dense n x n system would not fit in available memory.
    """
    if pair is None:
        pair = gsk_vector_pair(cfg)
    n = cfg.resolved_n() if n is None else n
    require_memory(n, f"resolvent solve on an interval rule of {n} nodes")
    rule = gauss_legendre_rule(n, cfg.a, cfg.b)
    kernel = _base_kernel(pair, cfg.delta0)
    lam = rule.nodes
    w = rule.weights[:, None]
    # D = I + K diag(w).  The right equation's matrix I + K^T diag(w) is
    # diag(w)^-1 D^T diag(w), so it is solved as D^T (w F_R) = w E_R on D
    D = collocation_matrix(kernel(lam[:, None], lam[None, :]), rule.weights)
    EL = pair.E_L(lam)
    ER = pair.E_R(lam)
    try:
        FL = np.linalg.solve(D, EL)
        FR = np.linalg.solve(D.T, w * ER) / w
        det_tilde = complex(np.linalg.det(D))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"resolvent system is singular at n={n}: {exc}") from exc
    if not (np.isfinite(FL).all() and np.isfinite(FR).all()
            and np.isfinite([det_tilde]).all()):
        raise NumericError(f"resolvent solve produced non-finite values at n={n}")
    if abs(det_tilde) < 1e-12:
        raise NumericError(
            f"det(I + V~) = {det_tilde:.3e} at n={n}: the unique-solvability "
            f"condition det(I + V~) != 0 fails at this discretization")
    res_L = np.max(np.abs(D @ FL - EL)) / max(np.max(np.abs(EL)), 1e-300)
    res_R = np.max(np.abs((D.T @ (w * FR)) / w - ER)) / max(np.max(np.abs(ER)), 1e-300)
    if max(res_L, res_R) > 1e-10:
        raise NumericError(
            f"node residuals of the resolvent systems are {res_L:.2e}/{res_R:.2e} "
            f"(> 1e-10): the linear solve is unreliable at n={n}")
    hint = ceil(cfg.x * cfg.max_phase_slope() * (cfg.b - cfg.a) / 4.0)
    return ChiSolution(rule=rule, pair=pair, FL_nodes=FL, FR_nodes=FR,
                       det_tilde=det_tilde, kernel=kernel, bandwidth_hint=hint)


def jump_residual_chi(lam0: float, eps: float, chi: ChiSolution,
                      orientation: str = "er-el") -> float:
    """Relative residual of the boundary jump chi_- = chi_+ G at lam0.

    Boundary values are taken as Richardson pairs
    2 chi(lam0 +- i eps/2) - chi(lam0 +- i eps), which cancels the O(eps)
    offset error; the "+" side is the upper half-plane.  G is built from
    the rank-one dyad of the vector pair: orientation "er-el" uses
    I + 2 i pi E_R(lam0) E_L(lam0)^T (the one consistent with the jump of
    the reconstruction integral); "el-er" uses the transposed dyad and
    exists for the comparative orientation test.
    """
    if not chi.a < lam0 < chi.b:
        raise ConfigError(f"jump point {lam0} must lie inside ({chi.a}, {chi.b})")
    if eps <= 0:
        raise ConfigError("eps must be positive")
    pts = lam0 + 1j * eps * np.array([0.5, 1.0, -0.5, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearIntervalWarning)
        vals = chi.chi_at(pts)
    chi_plus = 2.0 * vals[0] - vals[1]
    chi_minus = 2.0 * vals[2] - vals[3]
    el = chi.pair.E_L(np.asarray(lam0, dtype=complex))
    er = chi.pair.E_R(np.asarray(lam0, dtype=complex))
    if orientation == "er-el":
        dyad = np.outer(er, el)
    elif orientation == "el-er":
        dyad = np.outer(el, er)
    else:
        raise ConfigError(f"unknown dyad orientation {orientation!r}")
    G = np.eye(chi.N) + 2j * pi * dyad
    num = np.linalg.norm(chi_minus - chi_plus @ G)
    return float(num / np.linalg.norm(G))


# --------------------------------------------------------------------------
# alpha
# --------------------------------------------------------------------------

@dataclass
class AlphaEvaluator(_OnCut):
    """Scalar Cauchy-exponential alpha(z); immutable and thread-safe."""

    rule: QuadratureRule
    logF_nodes: np.ndarray        # ln(1 + F(lam_j)), principal branch

    @cached_property
    def _density(self) -> np.ndarray:
        return (self.logF_nodes / (2j * pi)).reshape(-1, 1)

    @cached_property
    def _near(self) -> _NearCutCauchy:
        return _NearCutCauchy(self.rule, self._density, _NEAR_MODE_MARGIN)

    def alpha_at(self, z, warn: bool = True) -> np.ndarray:
        """alpha(z) = exp{int_a^b ln(1+F(mu))/(z-mu) dmu / 2 i pi}."""
        C = _cauchy_transform(self.rule, self._density, self._near,
                              self.near_threshold, z, warn=warn)
        z = np.asarray(z, dtype=complex)
        # C integrates against 1/(mu - z); the exponent uses 1/(z - mu)
        return np.exp(-C.reshape(z.shape))


def make_alpha(cfg: ProblemConfig, n: Optional[int] = None) -> AlphaEvaluator:
    """Build the alpha evaluator on the same resolution as the resolvent."""
    n = cfg.resolved_n() if n is None else n
    rule = gauss_legendre_rule(n, cfg.a, cfg.b)
    F = cfg.F.value(rule.nodes)
    if np.any(np.abs(F) >= 1.0):
        raise ConfigError("|F| >= 1 at a quadrature node: ln(1+F) leaves the "
                          "principal branch")
    return AlphaEvaluator(rule=rule, logF_nodes=np.log(1.0 + F))
