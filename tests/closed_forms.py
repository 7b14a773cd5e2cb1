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
