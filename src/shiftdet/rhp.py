"""Resolvent solution and off-interval reconstruction of chi, chi^-1, alpha.

Solves the pair of linear integral equations

    F_L(lam) + int_a^b V~(lam, mu) F_L(mu) dmu = E_L(lam)
    F_R(lam) + int_a^b V~(mu, lam) F_R(mu) dmu = E_R(lam)

by Nystrom discretization on a Gauss-Legendre rule, then reconstructs

    chi(z)     = I - int_a^b F_R(mu) E_L^T(mu) / (mu - z) dmu
    chi^-1(z)  = I + int_a^b E_R(mu) F_L^T(mu) / (mu - z) dmu
    alpha(z)   = exp{ int_a^b ln(1 + F(mu)) / (z - mu) dmu / (2 i pi) }

anywhere off [a, b].  Each of the three is I +- (or exp of) the Cauchy
integral of one density given at the nodes, and each density has one
evaluator, ``_CauchySum``, which owns its far sum, its near-cut form and the
dispatch and warning between them; [chi(z1) - chi(z2)]/(z1 - z2) is the
divided form of chi's sum.  Far from the interval the integrals are sums
over the solving Gauss rule, with the factor 1/(mu - z) interpolated in mu
through r Chebyshev proxy points of [a, b]: a point set at distance d from
[a, b] needs r = cauchy_rank(d) of them (the Bernstein ellipse bound), so
each point costs O(r) instead of O(n); where r would reach n the Gauss sum
is taken as it stands.  Within ten node spacings of [a, b] plain quadrature
of a Cauchy integral loses accuracy like exp(-2 n dist), so evaluation
switches to a Legendre-expansion form: the density is projected onto
Legendre polynomials with the already-available nodes and the transform is
summed with second-kind functions Q_k, whose branch cut is exactly [a, b].
The forward Q recurrence picks up the growing first-kind solution away from
the cut, which is why the expansion form is used *only* inside the near zone
and plain quadrature everywhere else; the two agree to ~1e-15 at the
handover distance.

Evaluations inside the near zone still emit ``NearIntervalWarning`` -- the
degraded-accuracy flag promised by the evaluator contract -- since even the
expansion form cannot represent the boundary jump itself.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import ceil, pi
from typing import Callable

import numpy as np

from .determinants import assemble_collocation, row_blocks
from .kernels import (ConfigError, NumericError, ProblemConfig,
                      VectorPairSpec, _chebyshev_interpolant, bracket_kernel,
                      cauchy_rank, gsk_vector_pair)
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
                      near: Callable[[], _NearCutCauchy], threshold: float, z,
                      far_eval: _CauchySum) -> np.ndarray:
    """C(z) = int_a^b dens(mu)/(mu - z) dmu with near/far dispatch.

    densities has shape (n, D); the result has shape z.shape + (D,).
    ``near()`` returns the near-cut evaluator; it is asked for only when a
    point lies within ``threshold`` of the cut.  The other points go to
    ``far_eval.eval`` together, at the distance of the closest of them.
    """
    a, b = rule.descriptor["a"], rule.descriptor["b"]
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = np.empty((flat.size, densities.shape[1]), dtype=complex)
    dist = _segment_distance(flat, a, b)
    close = dist < threshold
    far = np.flatnonzero(~close)
    if far.size:
        out[far] = far_eval.eval(float(np.min(dist[far])), flat[far])
    if np.any(close):
        # caller -> evaluator method -> _CauchySum.__call__ -> here
        _warn_near(threshold, a, b, stacklevel=5)
        out[close] = near().eval(flat[close])
    return out.reshape(z.shape + (densities.shape[1],))


def _warn_near(threshold: float, a: float, b: float, stacklevel: int):
    warnings.warn(
        f"evaluating within {threshold:.3g} of [{a}, {b}] (10 node spacings): "
        f"accuracy is degraded this close to the cut", NearIntervalWarning,
        stacklevel=stacklevel)


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


class _CauchySum(_OnCut):
    """C(z) = int_a^b dens(mu)/(mu - z) dmu of one density given at the
    nodes of a Gauss rule (kept as (n, D)): far sum, near form, dispatch.

    Far from [a, b] C is the Gauss sum, with 1/(lam_j - z) interpolated in
    lam through the r = cauchy_rank(d) Chebyshev points t of [a, b] for
    points at least d from [a, b] (the Bernstein ellipse bound): with P the
    (n, r) barycentric matrix onto the nodes (``_chebyshev_interpolant``),
    the sum runs over the t with the proxy densities dens_hat = P^T (w dens),
    O(r) per point.  dens_hat is built on the first request for its r and
    kept (threads asking at once may each build it, to the same values);
    P is dropped.  Where r would reach n the Gauss sum is taken as it
    stands.  Within ``near_threshold`` of the cut the Legendre-expansion
    form ``near`` (built on first use, ``n_modes`` modes) takes over.
    """

    def __init__(self, rule: QuadratureRule, densities: np.ndarray,
                 n_modes: int):
        self.rule = rule
        self.densities = densities.reshape(rule.size, -1)
        self.n_modes = n_modes
        self._proxies = {}

    @cached_property
    def near(self) -> _NearCutCauchy:
        return _NearCutCauchy(self.rule, self.densities, self.n_modes)

    def _proxy(self, r: int):
        got = self._proxies.get(r)
        if got is None:
            rule = self.rule
            t, P = _chebyshev_interpolant(rule.nodes, r, self.a, self.b)
            wd = rule.weights[:, None] * self.densities
            got = self._proxies[r] = (t, _columns(np.matmul, P.T, wd))
        return got

    def eval(self, dist: float, *points) -> np.ndarray:
        """sum_j w_j dens_j / prod_p (lam_j - p) at each i of the 1-D point
        arrays ``points`` (all of one size M, all at least ``dist`` from
        [a, b]), shape (M, D), in row blocks."""
        rule = self.rule
        r = cauchy_rank(dist, self.a, self.b)
        if r < rule.size:
            (nodes, dens), w = self._proxy(r), 1.0
        else:
            nodes, w, dens = rule.nodes, rule.weights, self.densities
        out = np.empty((points[0].size, dens.shape[1]), dtype=complex)
        for i0, i1 in row_blocks(out.shape[0], 16 * nodes.size):
            den = nodes[None, :] - points[0][i0:i1, None]
            for p in points[1:]:
                den *= nodes[None, :] - p[i0:i1, None]
            out[i0:i1] = np.divide(w, den, out=den) @ dens
        return out

    def __call__(self, z) -> np.ndarray:
        """C(z), shape z.shape + (D,); z must avoid [a, b] itself."""
        return _cauchy_transform(self.rule, self.densities, lambda: self.near,
                                 self.near_threshold, z, self)

    def divided(self, z1, z2) -> np.ndarray:
        """int_a^b dens(mu) / ((mu - z1)(mu - z2)) dmu by the far sum at the
        distance of the closest point of either set.  It has no near form:
        a point within ``near_threshold`` warns (and takes the Gauss sum)."""
        z1, z2 = np.broadcast_arrays(np.asarray(z1, dtype=complex),
                                     np.asarray(z2, dtype=complex))
        dist = min(float(np.min(_segment_distance(z, self.a, self.b),
                                initial=np.inf)) for z in (z1, z2))
        if dist < self.near_threshold:
            # caller -> ChiSolution.delta_chi -> here
            _warn_near(self.near_threshold, self.a, self.b, stacklevel=4)
        out = self.eval(dist, z1.reshape(-1), z2.reshape(-1))
        return out.reshape(z1.shape + (-1,))


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

    # -- the Cauchy sums of the two densities (built lazily, then cached) ---
    def _sum(self, rho: np.ndarray) -> _CauchySum:
        modes = self.bandwidth_hint + _NEAR_MODE_MARGIN
        return _CauchySum(self.rule, rho, modes)

    @cached_property
    def _R(self) -> _CauchySum:
        # chi(z) = I - C_R(z), rho_R = F_R E_L^T
        EL = self.pair.E_L(self.rule.nodes)
        return self._sum(np.einsum("jp,jq->jpq", self.FR_nodes, EL))

    @cached_property
    def _L(self) -> _CauchySum:
        # chi^-1(z) = I + C_L(z), rho_L = E_R F_L^T
        ER = self.pair.E_R(self.rule.nodes)
        return self._sum(np.einsum("jp,jq->jpq", ER, self.FL_nodes))

    # -- evaluation ----------------------------------------------------------
    def _eye_plus(self, C: np.ndarray, negate: bool) -> np.ndarray:
        """I - C (``negate``) or I + C in C's memory; C is (..., N*N)."""
        out = C.reshape(C.shape[:-1] + (self.N, self.N))
        if negate:
            np.negative(out, out=out)
        idx = np.arange(self.N)
        out[..., idx, idx] += 1.0
        return out

    def chi_at(self, z) -> np.ndarray:
        """chi(z), shape z.shape + (N, N); z must avoid [a, b] itself."""
        return self._eye_plus(self._R(z), negate=True)

    def chi_inv_at(self, z) -> np.ndarray:
        """chi(z)^-1 via the left-density reconstruction (no matrix inverse)."""
        return self._eye_plus(self._L(z), negate=False)

    def delta_chi(self, z1, z2) -> np.ndarray:
        """[chi(z1) - chi(z2)] / (z1 - z2), exact divided difference.

        Finite at z1 = z2 (where it equals chi'(z1)); the sum is chi_at's
        with the summand 1/((mu - z1)(mu - z2)) (``_CauchySum.divided``,
        which warns within ``near_threshold`` of [a, b]).
        """
        D = self._R.divided(z1, z2)
        return -D.reshape(D.shape[:-1] + (self.N, self.N))

    def _interpolant(self, z, F_nodes: np.ndarray, E: Callable,
                     left: bool) -> np.ndarray:
        """E(z) - sum_k K w_k F_nodes[k] with K = kernel(z, node_k) (left)
        or kernel(node_k, z), one GEMM per row block of points.  Real points
        keep their dtype, so a real kernel's float64 K multiplies the
        complex w F as real columns (``_columns``)."""
        z = np.asarray(z)
        flat, nodes = z.reshape(-1), self.rule.nodes
        wF = self.rule.weights[:, None] * F_nodes
        acc = np.empty((flat.size, wF.shape[1]), dtype=complex)
        for i0, i1 in row_blocks(flat.size, 16 * nodes.size):
            pts = flat[i0:i1, None]
            K = self.kernel(pts, nodes) if left else self.kernel(nodes, pts)
            acc[i0:i1] = _columns(np.matmul, K, wF)
        return (E(flat) - acc).reshape(z.shape + (-1,))

    def FL_at(self, lam) -> np.ndarray:
        """Nystrom interpolation of F_L; FL_nodes itself at the nodes.

        Asked at exactly ``rule.nodes`` (in order, any shape) it returns the
        solved values without re-assembling V~ on the nodes; interpolation
        would reproduce them up to the solve residual only.
        """
        lam = np.asarray(lam)
        nodes = self.rule.nodes
        if lam.size == nodes.size and np.array_equal(lam.reshape(-1), nodes):
            return self.FL_nodes.reshape(lam.shape + (-1,)).copy()
        return self._interpolant(lam, self.FL_nodes, self.pair.E_L, left=True)

    def FR_at(self, mu) -> np.ndarray:
        """Nystrom interpolation of F_R (transpose-kernel equation)."""
        return self._interpolant(mu, self.FR_nodes, self.pair.E_R, left=False)


def _base_kernel(pair: VectorPairSpec, delta0: float) -> Callable:
    """The kernel V~ of ``pair`` (see ``bracket_kernel``) as a callable."""
    def kernel(lam, mu):
        return bracket_kernel(lam, mu, pair, delta0)
    return kernel


def _columns(op: Callable, D: np.ndarray, B: np.ndarray) -> np.ndarray:
    """op(D, B) for a C-contiguous complex (n, k) B in D's own arithmetic: a
    float64 D is not cast to complex, B's real and imaginary parts go
    through it as 2k real columns."""
    if np.iscomplexobj(D):
        return op(D, B)
    return op(D, B.view(float)).view(complex)


def solve_chi(cfg: ProblemConfig) -> ChiSolution:
    """Solve both resolvent equations on a Gauss-Legendre rule.

    Where the config makes V~ real (see ``gsk_vector_pair``) it is evaluated
    in float64, so the collocation matrix is float64 and factored in real
    arithmetic.  Raises NumericError if the Nystrom matrix is numerically
    singular (det(I + V~) ~ 0, the unique-solvability condition) or if the
    node residuals of the solved systems exceed 1e-10 relative, and
    ConfigError if the dense n x n system would not fit in available memory.
    """
    pair = gsk_vector_pair(cfg)
    n = cfg.resolved_n()
    rule = gauss_legendre_rule(n, cfg.a, cfg.b)
    kernel = _base_kernel(pair, cfg.delta0)
    lam = rule.nodes
    w = rule.weights[:, None]
    # D = I + K diag(w).  The right equation's matrix I + K^T diag(w) is
    # diag(w)^-1 D^T diag(w), so it is solved as D^T (w F_R) = w E_R on D
    D = assemble_collocation(kernel, rule)
    EL = pair.E_L(lam)
    ER = pair.E_R(lam)
    try:
        FL = _columns(np.linalg.solve, D, EL)
        FR = _columns(np.linalg.solve, D.T, w * ER) / w
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
    res_L = (np.max(np.abs(_columns(np.matmul, D, FL) - EL))
             / max(np.max(np.abs(EL)), 1e-300))
    res_R = (np.max(np.abs(_columns(np.matmul, D.T, w * FR) / w - ER))
             / max(np.max(np.abs(ER)), 1e-300))
    if max(res_L, res_R) > 1e-10:
        raise NumericError(
            f"node residuals of the resolvent systems are {res_L:.2e}/{res_R:.2e} "
            f"(> 1e-10): the linear solve is unreliable at n={n}")
    hint = ceil(cfg.x * cfg.max_phase_slope() * (cfg.b - cfg.a) / 4.0)
    return ChiSolution(rule=rule, pair=pair, FL_nodes=FL, FR_nodes=FR,
                       det_tilde=det_tilde, kernel=kernel, bandwidth_hint=hint)


def jump_residual_chi(lam0: float, eps: float, chi: ChiSolution) -> float:
    """Relative residual of the boundary jump chi_- = chi_+ G at lam0.

    Boundary values are taken as Richardson pairs
    2 chi(lam0 +- i eps/2) - chi(lam0 +- i eps), which cancels the O(eps)
    offset error; the "+" side is the upper half-plane.  G is
    I + 2 i pi E_R(lam0) E_L(lam0)^T, built from the rank-one dyad of the
    vector pair in the orientation of the reconstruction integral's jump.
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
    G = np.eye(chi.N) + 2j * pi * np.outer(er, el)
    num = np.linalg.norm(chi_minus - chi_plus @ G)
    return float(num / np.linalg.norm(G))


# --------------------------------------------------------------------------
# alpha
# --------------------------------------------------------------------------

@dataclass
class AlphaEvaluator:
    """Scalar Cauchy-exponential alpha(z); immutable and thread-safe."""

    rule: QuadratureRule
    logF_nodes: np.ndarray        # ln(1 + F(lam_j)), principal branch

    @cached_property
    def _C(self) -> _CauchySum:
        return _CauchySum(self.rule, self.logF_nodes / (2j * pi),
                          _NEAR_MODE_MARGIN)

    def alpha_at(self, z) -> np.ndarray:
        """alpha(z) = exp{int_a^b ln(1+F(mu))/(z-mu) dmu / 2 i pi}."""
        C = self._C(z)
        # C integrates against 1/(mu - z); the exponent uses 1/(z - mu)
        return np.exp(-C.reshape(C.shape[:-1]))


def make_alpha(cfg: ProblemConfig) -> AlphaEvaluator:
    """Build the alpha evaluator on the same resolution as the resolvent."""
    rule = gauss_legendre_rule(cfg.resolved_n(), cfg.a, cfg.b)
    F = cfg.F.value(rule.nodes)
    if np.any(np.abs(F) >= 1.0):
        raise ConfigError("|F| >= 1 at a quadrature node: ln(1+F) leaves the "
                          "principal branch")
    return AlphaEvaluator(rule=rule, logF_nodes=np.log(1.0 + F))
