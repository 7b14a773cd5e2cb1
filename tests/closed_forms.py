"""Closed forms of the sine kernel S~ and the shifted kernel S, and the
block kernel M0 = diag(U-, U+), as oracles.

The package builds both operators from the separable forms only:
S~ = ``bracket_kernel(gsk_vector_pair(cfg))`` and
S = ``general_kernel_V(gsk_vector_pair(cfg), gsk_shift_spec(cfg))``.
The closed forms below evaluate sin/exp of the phase difference directly,
so they are an independent check of those constructions.

The package computes det(I+M0) as det(I+U-) det(I+U+); ``M0_kernel`` is
the 2x2 block kernel whose dense 2m x 2m Nystrom determinant checks that
product.

The package computes det(I+W) from low-rank factors (``W_factors``);
``W_kernel`` evaluates W entry by entry, and its dense n x n Nystrom
determinant checks the factored one.

``mp_nystrom_det`` is the high-precision reference: the Nystrom
determinant of V~ or V on a given float64 rule, with the kernel from its
closed form and the determinant from Gaussian elimination, all in mpmath
at the working precision.
"""
from math import pi

import mpmath as mp
import numpy as np

from shiftdet.kernels import (U_minus_kernel, U_plus_kernel, _gsk_near,
                              _phase_parts, _sinc)

from helpers import mask_near_diagonal_eval


def _phase(lam, mu, cfg):
    """phi = x (p(lam) - p(mu)) / 2, so that e(lam)/e(mu) = exp(i phi)."""
    return 0.5 * cfg.x * (cfg.p.value(lam) - cfg.p.value(mu))


def gsk_kernel(lam, mu, cfg):
    """Generalized sine kernel F(lam)[e(lam)/e(mu) - e(mu)/e(lam)]/(2i pi (lam-mu)).

    The numerator vanishes on the diagonal; for |lam - mu| < delta0 the
    kernel is evaluated as F * (x/2) * dd_p * sinc(phi) / pi, which is the
    same analytic function written without cancellation.  Exactly on the
    diagonal this reduces to F(lam) * x * p'(lam) / (2 pi).
    """
    def direct(lam, mu, d):
        return cfg.F.value(lam) * np.sin(_phase(lam, mu, cfg)) / (pi * d)

    return mask_near_diagonal_eval(lam, mu, cfg.delta0, direct,
                                   lambda l, m: _gsk_near(l, m, cfg))


def shift_kernel(lam, mu, cfg):
    """Shifted sine kernel with denominators lam - mu +- ic.

    S = ic F(lam)/(2i pi (lam-mu)) * { e(lam)/e(mu)/(lam-mu+ic)
                                       + e(mu)/e(lam)/(lam-mu-ic) };
    the brace vanishes at lam = mu, so the diagonal is removable with value
    F(lam) (x p'(lam) + 2/c) / (2 pi).
    """
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    c = cfg.c
    d = lam - mu
    pole = min(np.min(np.abs(d + 1j * c)), np.min(np.abs(d - 1j * c)))
    if pole < 1e-12 * (abs(c) + 1.0):
        raise ValueError("shift_kernel evaluated at a pole lam - mu = -+ ic")

    def direct(lam, mu, dsafe):
        F = cfg.F.value(lam)
        phi = _phase(lam, mu, cfg)
        return (1j * c * F / (2j * pi * dsafe)
                * (np.exp(1j * phi) / (d + 1j * c) + np.exp(-1j * phi) / (d - 1j * c)))

    def near(lam, mu):
        lam, mu, phi, ddp = _phase_parts(lam, mu, cfg)
        dn = lam - mu
        F = cfg.F.value(lam)
        return (F * c * (np.cos(phi) + c * (0.5 * cfg.x) * ddp * _sinc(phi))
                / (pi * (dn * dn + c * c)))

    return mask_near_diagonal_eval(lam, mu, cfg.delta0, direct, near)


def W_kernel(lam, mu, chi, pair, shift):
    """Residual one-dimensional kernel of det(I+V) = det(I+V~) det(I+W).

    W(lam,mu) = -sum_n gamma_n <F_L(lam), chi(mu - i c_n) e_n>
                               <e_{v_n}, E_R(mu)> / (lam - mu + i c_n)
    for real lam, mu in [a, b].
    """
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    FL = chi.FL_at(lam)                       # (..., N)
    ER = pair.E_R(mu)
    out = np.zeros(np.broadcast(lam, mu).shape, dtype=complex)
    for n_idx in range(shift.N):
        Cn = chi.chi_at(mu - 1j * shift.c[n_idx])     # (..., N, N)
        g = np.einsum("...a,...a->...", FL, Cn[..., :, n_idx], optimize=True)
        out = out - (shift.gamma[n_idx] * g * ER[..., shift.v0[n_idx]]
                     / (lam - mu + 1j * shift.c[n_idx]))
    return out


def M0_kernel(lam, mu, alpha, c):
    """Block-diagonal comparison kernel diag(U-, U+) (2x2).

    The leading large-x substitute for M: replacing chi by the diagonal
    alpha-matrix in M collapses the off-diagonal entries and leaves U- in
    the (1,1) slot and U+ in the (2,2) slot.
    """
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    shape = np.broadcast(lam, mu).shape
    out = np.zeros(shape + (2, 2), dtype=complex)
    out[..., 0, 0] = U_minus_kernel(lam, mu, alpha, c)
    out[..., 1, 1] = U_plus_kernel(lam, mu, alpha, c)
    return out


def _mp_function(spec):
    """An mpmath evaluator of a FunctionSpec and of its derivative."""
    P = spec.params
    if spec.kind == "constant":
        value = mp.mpc(P["value"])
        return (lambda z: value), (lambda z: 0)
    if spec.kind == "polynomial":
        c = [mp.mpc(v) for v in P["coeffs"]]
        dc = [k * c[k] for k in range(1, len(c))] or [0]
        return (lambda z: mp.polyval(c[::-1], z),
                lambda z: mp.polyval(dc[::-1], z))
    A, z0, s = (mp.mpc(P[k]) for k in ("amplitude", "center", "scale"))

    def f(z):
        return A * mp.exp(-s * (z - z0) ** 2)
    return f, (lambda z: -2 * s * (z - z0) * f(z))


def _mp_det(rows):
    """det of a square list of mpmath rows by Gaussian elimination with
    partial pivoting (mp.det's matrix class is several times slower)."""
    rows = [r[:] for r in rows]
    n, det = len(rows), mp.mpf(1)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if p != k:
            rows[k], rows[p], det = rows[p], rows[k], -det
        pivot, rk = rows[k][k], rows[k]
        det *= pivot
        for ri in rows[k + 1:]:
            f = ri[k] / pivot
            for j in range(k + 1, n):
                ri[j] -= f * rk[j]
    return det


def mp_nystrom_det(cfg, rule, shifted: bool):
    """det(I + K diag(w)) at mpmath's working precision on the float64 nodes
    and weights of ``rule`` (taken exactly), K = V~ or, if ``shifted``, V.

    V~(lam, mu) = F(lam) sin(x (p(lam) - p(mu))/2) / (pi (lam - mu)), with
    the diagonal F(lam) x p'(lam) / (2 pi).  V subtracts, for each shift a,
    gamma_a E_L,a(lam) E_R,v_a(mu) / (lam - mu + i c_a), where the product
    of the GSK pair's components is F(lam)/(2 i pi) s_a exp(i x (l_a p(lam)
    + r_v p(mu)) / 2) with s = l = (-1, 1) and r = (1, -1).  A real
    kernel is evaluated in real arithmetic, a shifted one in complex.
    """
    F, _ = _mp_function(cfg.F)
    p, dp = _mp_function(cfg.p)
    real = not shifted and cfg.F.real and cfg.p.real
    part = (lambda v: mp.re(v)) if real else (lambda v: v)
    x = mp.mpf(cfg.x)
    z = [mp.mpf(float(t)) for t in rule.nodes.real]
    w = [mp.mpf(float(t)) for t in rule.weights.real]
    Fz = [F(t) for t in z]
    pz = [p(t) for t in z]
    sh = cfg.shift
    left, right = (-1, 1), (1, -1)
    rows = []
    for j, lam in enumerate(z):
        row = []
        for k, mu in enumerate(z):
            if j == k:
                K = Fz[j] * x * dp(lam) / (2 * mp.pi)
            else:
                K = Fz[j] * mp.sin(x * (pz[j] - pz[k]) / 2) / (mp.pi * (lam - mu))
            for a in range(sh.N if shifted else 0):
                phase = left[a] * pz[j] + right[int(sh.v0[a])] * pz[k]
                K -= (mp.mpc(sh.gamma[a]) * Fz[j] * left[a] / (2j * mp.pi)
                      * mp.exp(0.5j * x * phase)
                      / (lam - mu + 1j * mp.mpf(float(sh.c[a]))))
            row.append(part(K) * w[k] + (1 if j == k else 0))
        rows.append(row)
    return _mp_det(rows)
