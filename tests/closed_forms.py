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
"""
from math import pi

import numpy as np

from shiftdet.kernels import (U_minus_kernel, U_plus_kernel, _gsk_near,
                              _phase_parts, _sinc, near_diagonal_eval)


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

    return near_diagonal_eval(lam, mu, cfg.delta0, direct,
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

    return near_diagonal_eval(lam, mu, cfg.delta0, direct, near)


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
