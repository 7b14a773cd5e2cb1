"""Runnable verifications: factorization chain, asymptotic sweep, M vs M0.

Three layers of claims are made checkable here:

* verify_factorization -- one config in, five determinants out
  (V, V~, W, M on the loop, N on the line) plus the residuals r1, r2, r3
  of the identities det(I+V) = det(I+V~) det(I+W) = det(I+V~) det_loop(I+M)
  = det(I+V~) det_line(I+N).
* asymptotic_sweep / fit_decay_slope -- the large-x statement
  det(I+S)/det(I+S~) -> det_loop(I+U+) det_loop(I+U-) with O(1/x) error,
  measured as a log-log slope over increasing x.
* m_vs_m0 -- the mechanism behind that limit: det_loop(I+M) approaches
  det_loop(I+M0) at the O(1/x) rate, measured through err(x)/err(2x) ratios.

Each reported determinant carries its half-resolution convergence delta, and
a residual is only certified when every determinant feeding it has converged
at least 10x below that residual's tolerance.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .determinants import DetResult, nystrom_det, nystrom_det_matrix
from .kernels import (ConfigError, M_kernel, N_kernel, NumericError,
                      ProblemConfig, U_minus_kernel, U_plus_kernel, W_kernel,
                      bracket_kernel, general_kernel_V, gsk_shift_spec,
                      gsk_vector_pair)
from .quadrature import (QuadratureRule, compactified_line_rule,
                         gauss_legendre_rule, stadium_loop_rule,
                         truncated_line_rule)
from .rhp import AlphaEvaluator, ChiSolution, make_alpha, solve_chi

__all__ = [
    "IdentityReport", "SweepRow", "ComparisonRow",
    "verify_factorization", "asymptotic_sweep", "fit_decay_slope",
    "limit_determinants", "m_vs_m0", "compute_determinant",
    "DET_KINDS",
]

DET_KINDS = ("V", "Vtilde", "W", "M", "N", "M0", "Uplus", "Uminus")

# ceiling of the sweep / m-vs-m0 thread pool
MAX_THREADS = 8


# --------------------------------------------------------------------------
# rule builders
# --------------------------------------------------------------------------

def _interval_rule(cfg: ProblemConfig) -> QuadratureRule:
    return gauss_legendre_rule(cfg.resolved_n(), cfg.a, cfg.b)


def _loop_rule(cfg: ProblemConfig) -> QuadratureRule:
    return stadium_loop_rule(cfg.a, cfg.b, cfg.resolved_h(),
                             cfg.numerics.m_loop)


def _line_rule(cfg: ProblemConfig) -> QuadratureRule:
    nm = cfg.numerics
    if nm.line_rule == "truncated":
        return truncated_line_rule(nm.m_line, nm.line_truncation)
    return compactified_line_rule(nm.m_line, nm.map_scale)


def _worker_count(n_jobs: int) -> int:
    return min(n_jobs, os.cpu_count() or 1, MAX_THREADS)


# --------------------------------------------------------------------------
# factorization chain
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    """All five determinants of the chain plus the three identity residuals."""

    det_V: DetResult
    det_Vtilde: DetResult
    det_W: DetResult
    det_M_loop: DetResult
    det_N_line: DetResult
    r1: float                    # |det_V - det_Vtilde * det_W| / |det_V|
    r2: float                    # |det_W - det_M_loop| / |det_W|
    r3: float                    # |det_M_loop - det_N_line| / max(|det_M_loop|, tiny)
    certified: Dict[str, bool]   # residual -> all feeding deltas < 0.1 * its tol
    config_echo: dict


def verify_factorization(cfg: ProblemConfig) -> IdentityReport:
    """Compute the determinant chain and its identity residuals.

    det_V goes through the general shift-table kernel (the direct path);
    the product path goes through the resolvent solution chi.  Raises
    ConfigError for invalid configs (including loops leaving the strip
    |Im z| < min|c_a|/2) and NumericError on solve/determinant failure.
    """
    cfg.validate()
    chi = solve_chi(cfg)
    det_V, det_Vt, det_W, det_M, det_N = (
        _det(cfg, which, chi=chi) for which in ("V", "Vtilde", "W", "M", "N"))

    vV, vT, vW, vM, vN = (det_V.value, det_Vt.value, det_W.value,
                          det_M.value, det_N.value)
    r1 = abs(vV - vT * vW) / max(abs(vV), 1e-30)
    r2 = abs(vW - vM) / max(abs(vW), 1e-30)
    r3 = abs(vM - vN) / max(abs(vM), 1e-30)
    tol = cfg.tolerances
    certified = {
        "r1": max(det_V.convergence_delta, det_Vt.convergence_delta,
                  det_W.convergence_delta) < 0.1 * tol.r1,
        "r2": max(det_W.convergence_delta,
                  det_M.convergence_delta) < 0.1 * tol.r2,
        "r3": max(det_M.convergence_delta,
                  det_N.convergence_delta) < 0.1 * tol.r3,
    }
    return IdentityReport(det_V=det_V, det_Vtilde=det_Vt, det_W=det_W,
                          det_M_loop=det_M, det_N_line=det_N,
                          r1=r1, r2=r2, r3=r3, certified=certified,
                          config_echo=cfg.to_json())


# --------------------------------------------------------------------------
# large-x sweep
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One x of the asymptotic comparison det(I+S)/det(I+S~) vs its limit."""

    x: float
    ratio: complex
    limit: complex
    err: float                   # |ratio/limit - 1|
    conv_delta: float            # worst delta among the determinants used
    valid: bool                  # det(I+S~) bounded away from 0


def limit_determinants(cfg: ProblemConfig) -> Tuple[DetResult, DetResult]:
    """det_loop(I+U+) and det_loop(I+U-); depends on F and [a,b] only."""
    alpha = make_alpha(cfg)
    return _det(cfg, "Uplus", alpha=alpha), _det(cfg, "Uminus", alpha=alpha)


def _sweep_row(cfg: ProblemConfig, xv: float, limit: complex,
               limit_delta: float) -> SweepRow:
    cfg_x = replace(cfg, x=xv)
    det_S, det_St = (_det(cfg_x, k) for k in ("V", "Vtilde"))
    valid = abs(det_St.value) > 1e-12
    ratio = det_S.value / det_St.value if valid else complex("nan")
    err = abs(ratio / limit - 1.0) if valid else float("nan")
    conv = max(det_S.convergence_delta, det_St.convergence_delta, limit_delta)
    return SweepRow(x=float(xv), ratio=ratio, limit=limit, err=err,
                    conv_delta=conv, valid=valid)


def _require_canonical_table(cfg: ProblemConfig, what: str):
    ref = gsk_shift_spec(cfg)
    s = cfg.shift
    if not (np.array_equal(s.gamma, ref.gamma) and np.array_equal(s.c, ref.c)
            and np.array_equal(s.v, ref.v)):
        raise ConfigError(
            f"{what} is defined for the canonical two-shift table "
            f"gamma=(1,1), c=(-c,c), v=(1,2); this config overrides it")


def _check_xs(xs: Sequence[float]) -> List[float]:
    xs = [float(v) for v in xs]
    if not xs:
        raise ConfigError("x list is empty")
    if not np.isfinite(xs).all():
        raise ConfigError(f"x values must be finite, got {xs}")
    if any(v <= 0 for v in xs):
        raise ConfigError("all x values must be positive")
    if sorted(xs) != xs or len(set(xs)) != len(xs):
        raise ConfigError("x values must be strictly increasing")
    return xs


def asymptotic_sweep(cfg: ProblemConfig, xs: Sequence[float]) -> List[SweepRow]:
    """One SweepRow per x, ascending; rows are computed concurrently.

    The limit det_loop(I+M0) = det_loop(I+U+) det_loop(I+U-) is
    x-independent and computed once.
    """
    cfg.validate()
    # the limit is that of det(I+S)/det(I+S~), S = V on the canonical table
    _require_canonical_table(cfg, "the asymptotic sweep")
    xs = _check_xs(xs)
    limit = _det(cfg, "M0")
    if abs(limit.value) < 1e-30:
        raise NumericError("asymptotic limit determinant vanished")
    job = lambda xv: _sweep_row(cfg, xv, limit.value, limit.convergence_delta)
    with ThreadPoolExecutor(max_workers=_worker_count(len(xs))) as pool:
        return list(pool.map(job, xs))


def fit_decay_slope(rows: Sequence[SweepRow]) -> float:
    """Least-squares slope of ln err against ln x over trustworthy rows.

    A row enters the fit only if it is valid and its error is at least 10x
    above its convergence noise; fewer than 4 such rows is an error
    (insufficient points for slope).
    """
    usable = [r for r in rows if r.valid and r.err > 10.0 * r.conv_delta]
    if len(usable) < 4:
        raise ConfigError(
            f"insufficient points for slope: need >= 4 valid rows with err "
            f"above 10x the convergence noise, have {len(usable)}")
    lx = np.log([r.x for r in usable])
    le = np.log([r.err for r in usable])
    return float(np.polyfit(lx, le, 1)[0])


# --------------------------------------------------------------------------
# M vs M0
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    """One x of the loop-operator comparison |det(I+M) - det(I+M0)|."""

    x: float
    det_M: DetResult
    det_M0: DetResult
    err: float
    conv_delta: float


def m_vs_m0(cfg: ProblemConfig,
            xs: Optional[Sequence[float]] = None) -> List[ComparisonRow]:
    """Compare det_loop(I+M) against its x-independent limit det_loop(I+M0).

    det(I+M0) uses only alpha, so it is computed once; each row solves the
    resolvent at its own x-scaled resolution and assembles M.
    """
    cfg.validate()
    _require_canonical_table(cfg, "the M vs M0 comparison")
    xs = _check_xs([50.0, 100.0, 200.0, 400.0] if xs is None else xs)
    det_M0 = _det(cfg, "M0")

    def job(xv: float) -> ComparisonRow:
        det_M = _det(replace(cfg, x=xv), "M")
        return ComparisonRow(
            x=float(xv), det_M=det_M, det_M0=det_M0,
            err=abs(det_M.value - det_M0.value),
            conv_delta=max(det_M.convergence_delta,
                           det_M0.convergence_delta))

    with ThreadPoolExecutor(max_workers=_worker_count(len(xs))) as pool:
        return list(pool.map(job, xs))


# --------------------------------------------------------------------------
# single-determinant dispatch
# --------------------------------------------------------------------------

def _det(cfg: ProblemConfig, which: str, chi: Optional[ChiSolution] = None,
         alpha: Optional[AlphaEvaluator] = None) -> DetResult:
    """The one binding of each of DET_KINDS to its kernel, rule and block size.

    A solved ``chi`` or ``alpha`` is reused; otherwise one is built only for
    a kind that needs it (V and Vtilde need neither; M0 is built from the
    ``limit_determinants`` pair).  V and Vtilde use chi's interval rule when
    chi is given.
    """
    shift, d0, c = cfg.shift, cfg.delta0, cfg.c
    if which in ("V", "Vtilde"):
        pair = gsk_vector_pair(cfg) if chi is None else chi.pair
        rule = _interval_rule(cfg) if chi is None else chi.rule
        if which == "V":
            return nystrom_det(
                lambda l, m: general_kernel_V(l, m, pair, shift, d0), rule)
        # solve_chi factored this same I + V~ matrix on chi.rule already
        return nystrom_det(lambda l, m: bracket_kernel(l, m, pair, d0), rule,
                           value=None if chi is None else chi.det_tilde)
    if which in ("W", "M", "N"):
        if chi is None:
            chi = solve_chi(cfg)
        if which == "W":
            return nystrom_det(
                lambda l, m: W_kernel(l, m, chi, chi.pair, shift), chi.rule)
        if which == "M":
            return nystrom_det_matrix(lambda l, m: M_kernel(l, m, chi, shift),
                                      _loop_rule(cfg), shift.N)
        return nystrom_det_matrix(lambda l, m: N_kernel(l, m, chi, shift, d0),
                                  _line_rule(cfg), shift.N)
    if which == "M0":
        # M0 = diag(U-, U+): the Nystrom determinant of a block-diagonal
        # kernel is the product of its blocks' determinants on the same rule
        up, um = limit_determinants(cfg)
        return DetResult(up.value * um.value, up.half * um.half, up.rule_size)
    if alpha is None:
        alpha = make_alpha(cfg)
    U = U_plus_kernel if which == "Uplus" else U_minus_kernel
    return nystrom_det(lambda l, m: U(l, m, alpha, c), _loop_rule(cfg))


def compute_determinant(cfg: ProblemConfig, which: str) -> DetResult:
    """One named determinant from the chain (see DET_KINDS)."""
    if which not in DET_KINDS:
        raise ConfigError(f"unknown determinant {which!r}; choose one of "
                          f"{', '.join(DET_KINDS)}")
    cfg.validate()
    return _det(cfg, which)
