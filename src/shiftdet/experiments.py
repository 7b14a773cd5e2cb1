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

The two x-ladders share one driver, and every pass/fail decision is made
here: verify's tolerances and certification, and both ladders' summaries.

Each reported determinant carries its half-resolution convergence delta, and
a residual is only certified when every determinant feeding it has converged
at least 10x below that residual's tolerance.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .determinants import (DetResult, factored_det, nystrom_det,
                           nystrom_det_matrix, require_memory)
from .kernels import (ConfigError, M_kernel, N_factors, NumericError,
                      ProblemConfig, U_minus_kernel, U_plus_kernel, W_factors,
                      bracket_kernel, general_kernel_V, gsk_shift_spec,
                      gsk_vector_pair)
from .quadrature import (QuadratureRule, compactified_line_rule,
                         gauss_legendre_rule, stadium_loop_rule)
from .rhp import AlphaEvaluator, ChiSolution, make_alpha, solve_chi

__all__ = [
    "SweepRow", "ComparisonRow",
    "verify_factorization", "asymptotic_sweep", "fit_decay_slope",
    "limit_determinants", "m_vs_m0", "compute_determinant",
    "sweep_gate", "m_vs_m0_gate", "DET_KINDS",
]

DET_KINDS = ("V", "Vtilde", "W", "M", "N", "M0", "Uplus", "Uminus")

# err(x)/err(2x) acceptance band of m-vs-m0 (O(1/x) decay), tested on the
# doubling pairs (x, 2x) with x >= RATIO_GATE_X
RATIO_BAND = (1.5, 3.0)
RATIO_GATE_X = 100.0
# below this, every error of a ladder counts as zero (a trivial limit, F = 0)
TRIVIAL_ERR = 1e-12


# --------------------------------------------------------------------------
# rule builders
# --------------------------------------------------------------------------

def _interval_rule(cfg: ProblemConfig) -> QuadratureRule:
    return gauss_legendre_rule(cfg.resolved_n(), cfg.a, cfg.b)


def _loop_rule(cfg: ProblemConfig) -> QuadratureRule:
    return stadium_loop_rule(cfg.a, cfg.b, cfg.resolved_h(),
                             cfg.numerics.m_loop)


def _line_rule(cfg: ProblemConfig) -> QuadratureRule:
    return compactified_line_rule(cfg.numerics.m_line, cfg.numerics.map_scale)


def _require_interval_memory(cfg: ProblemConfig):
    """ConfigError before any rule is built when even a float64 n x n
    interval matrix and LAPACK's copy cannot fit: a lower bound, the exact
    check runs at the matrix's allocation."""
    n = cfg.resolved_n()
    require_memory(n, f"interval rule of {n} nodes at x = {cfg.x:g}", 8, 0)


def _require_U_strip(cfg: ProblemConfig):
    """ConfigError unless the loop lies inside the strip |Im z| < c/2 of
    U+-, whose poles sit at lam - mu = -+ i c with the top-level c: the
    loop's height comes from the shift table, which may be wider."""
    h = cfg.resolved_h()
    if h >= cfg.c / 2:
        raise ConfigError(f"U+-: loop half-height h={h} violates the strip "
                          f"h < c/2 = {cfg.c / 2} of U+-, whose poles sit at "
                          f"lam - mu = -+ i c")


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
    passed: Dict[str, bool]      # residual -> below its tolerance
    config_echo: dict

    def ok(self) -> bool:
        """The verify gate: r1, r2 and r3 all pass."""
        return all(self.passed.values())


def verify_factorization(cfg: ProblemConfig) -> IdentityReport:
    """Compute the determinant chain and its identity residuals.

    det_V goes through the general shift-table kernel (the direct path);
    the product path goes through the resolvent solution chi.  Raises
    ConfigError for invalid configs (including loops leaving the strip
    |Im z| < min|c_a|/2) and NumericError on solve/determinant failure.
    """
    cfg.validate()
    _require_interval_memory(cfg)
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
                          passed={"r1": r1 < tol.r1, "r2": r2 < tol.r2,
                                  "r3": r3 < tol.r3},
                          config_echo=cfg.to_json())


# --------------------------------------------------------------------------
# the two x-ladders: det S / det S~ (sweep) and det M (m-vs-m0) against M0
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


@dataclass(frozen=True)
class ComparisonRow:
    """One x of the loop-operator comparison |det(I+M) - det(I+M0)|."""

    x: float
    det_M: DetResult
    det_M0: DetResult
    err: float
    conv_delta: float


def limit_determinants(cfg: ProblemConfig) -> Tuple[DetResult, DetResult]:
    """det_loop(I+U+) and det_loop(I+U-); depends on F and [a,b] only.

    Where F is real on the axis, alpha(conj z) = 1/conj alpha(z), so
    conj U+(z, z') = -U-(conj z, conj z'); the stadium and its half rule
    are closed under conjugation with w[sigma] = -conj(w), so there
    det(I+U+) = conj det(I+U-), and only U- is factored.  ConfigError
    where the loop crosses the poles of U+- (``_require_U_strip``, in the
    binding of U+- that both go through).
    """
    alpha = make_alpha(cfg)
    um = _det(cfg, "Uminus", alpha=alpha)
    if cfg.F.real:
        up = DetResult(um.value.conjugate(), um.half.conjugate(), um.rule_size)
    else:
        up = _det(cfg, "Uplus", alpha=alpha)
    return up, um


def _sweep_row(cfg_x: ProblemConfig, limit: DetResult) -> SweepRow:
    if abs(limit.value) < 1e-30:
        raise NumericError("asymptotic limit determinant vanished")
    det_S, det_St = (_det(cfg_x, k) for k in ("V", "Vtilde"))
    valid = abs(det_St.value) > 1e-12
    ratio = det_S.value / det_St.value if valid else complex("nan")
    err = abs(ratio / limit.value - 1.0) if valid else float("nan")
    conv = max(det_S.convergence_delta, det_St.convergence_delta,
               limit.convergence_delta)
    return SweepRow(x=cfg_x.x, ratio=ratio, limit=limit.value, err=err,
                    conv_delta=conv, valid=valid)


def _comparison_row(cfg_x: ProblemConfig, det_M0: DetResult) -> ComparisonRow:
    det_M = _det(cfg_x, "M")
    return ComparisonRow(x=cfg_x.x, det_M=det_M, det_M0=det_M0,
                         err=abs(det_M.value - det_M0.value),
                         conv_delta=max(det_M.convergence_delta,
                                        det_M0.convergence_delta))


def _doubles(x: float, y: float) -> bool:
    return abs(y - 2.0 * x) < 1e-9 * x


def _slope_grid(xs: List[float]):
    if len(xs) < 4:
        raise ConfigError(
            f"insufficient points for slope: need >= 4 x values, got {len(xs)}")


def _ratio_grid(xs: List[float]):
    if not any(x >= RATIO_GATE_X and _doubles(x, y)
               for x, y in zip(xs, xs[1:])):
        raise ConfigError(f"m-vs-m0 needs at least one doubling pair (x, 2x) "
                          f"with x >= {RATIO_GATE_X:g} to test the decay band")


def _ladder(cfg: ProblemConfig, xs: Sequence[float], what: str,
            grid_rule: Callable, row: Callable) -> list:
    """``row(replace(cfg, x=xv), det_M0)`` for each x, in x order.

    The config, shift table, x grid (with the ladder's ``grid_rule``) and
    the memory of the largest x's interval matrix are checked before any
    determinant; the limit det_loop(I+M0) is computed once.  The rows run
    one at a time on one worker, so one row's matrices are alive at a time
    and the up-front memory check covers what the ladder allocates.  Each
    row's LAPACK calls already use every core; a second row thread would
    only add memory.
    """
    cfg.validate()
    # the limit is that of det(I+S)/det(I+S~), S = V on the canonical table
    ref, s = gsk_shift_spec(cfg), cfg.shift
    if not (np.array_equal(s.gamma, ref.gamma) and np.array_equal(s.c, ref.c)
            and np.array_equal(s.v, ref.v)):
        raise ConfigError(
            f"{what} is defined for the canonical two-shift table "
            f"gamma=(1,1), c=(-c,c), v=(1,2); this config overrides it")
    xs = [float(v) for v in xs]
    if not xs:
        raise ConfigError("x list is empty")
    if not np.isfinite(xs).all():
        raise ConfigError(f"x values must be finite, got {xs}")
    if any(v <= 0 for v in xs):
        raise ConfigError("all x values must be positive")
    if sorted(xs) != xs or len(set(xs)) != len(xs):
        raise ConfigError("x values must be strictly increasing")
    grid_rule(xs)
    _require_interval_memory(replace(cfg, x=xs[-1]))
    det_M0 = _det(cfg, "M0")
    # bench/spans.py times each row as a job of this executor
    with ThreadPoolExecutor(max_workers=1) as pool:
        return list(pool.map(lambda xv: row(replace(cfg, x=xv), det_M0), xs))


def asymptotic_sweep(cfg: ProblemConfig, xs: Sequence[float]) -> List[SweepRow]:
    """det(I+S)/det(I+S~) against det_loop(I+M0) = det_loop(I+U+)
    det_loop(I+U-), one SweepRow per x (at least four)."""
    return _ladder(cfg, xs, "the asymptotic sweep", _slope_grid, _sweep_row)


def m_vs_m0(cfg: ProblemConfig, xs: Sequence[float]) -> List[ComparisonRow]:
    """det_loop(I+M) against its x-independent limit det_loop(I+M0); the
    grid needs a doubling pair (x, 2x) with x >= RATIO_GATE_X."""
    return _ladder(cfg, xs, "the M vs M0 comparison", _ratio_grid,
                   _comparison_row)


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
# gates of the two ladders
# --------------------------------------------------------------------------

def _gate(summary: dict, errs: List[float], test: str, skip_key: str,
          decay: Callable) -> Tuple[dict, List[str]]:
    """Complete a ladder's summary with its gate; return it and the lines
    to print.  A trivial limit (every error below TRIVIAL_ERR, as for F = 0:
    no decay rate to test) passes with ``test`` skipped.  Otherwise the
    errors must strictly decrease and ``decay()`` -> (summary fields,
    passed, lines) must pass; the last line gets the PASS/FAIL tag."""
    if errs and all(e < TRIVIAL_ERR for e in errs):
        summary.update({skip_key: True, "reason": "trivial limit", "ok": True})
        return summary, [f"{test} skipped: trivial limit "
                         f"(all errors < {TRIVIAL_ERR:g})"]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    fields, passed, lines = decay()
    ok = passed and decreasing
    summary.update(fields, err_strictly_decreasing=decreasing, ok=ok)
    return summary, [*lines[:-1], f"{lines[-1]} [{'PASS' if ok else 'FAIL'}]"]


def sweep_gate(cfg: ProblemConfig,
               rows: Sequence[SweepRow]) -> Tuple[dict, List[str]]:
    """The sweep summary and verdict: the valid rows' errors strictly
    decrease and the decay slope lies in the config's slope band."""
    errs = [r.err for r in rows if r.valid]
    band = [cfg.tolerances.slope_min, cfg.tolerances.slope_max]

    def decay():
        slope = fit_decay_slope(rows)
        return ({"slope_skipped": False, "slope": slope},
                band[0] <= slope <= band[1],
                [f"slope = {slope:.4f} (band [{band[0]}, {band[1]}])"])

    return _gate({"n_rows": len(rows), "n_valid": len(errs),
                  "limit_re": float(rows[0].limit.real),
                  "limit_im": float(rows[0].limit.imag), "slope_band": band},
                 errs, "slope test", "slope_skipped", decay)


def m_vs_m0_gate(rows: Sequence[ComparisonRow]) -> Tuple[dict, List[str]]:
    """The m-vs-m0 summary and verdict: the errors strictly decrease and
    err(x)/err(2x) lies in RATIO_BAND on each doubling pair from
    RATIO_GATE_X on."""
    errs = [r.err for r in rows]

    def decay():
        ratios = [{"x": a.x,
                   "ratio": a.err / b.err if b.err > 0 else float("inf")}
                  for a, b in zip(rows, rows[1:]) if _doubles(a.x, b.x)]
        gated = [r for r in ratios if r["x"] >= RATIO_GATE_X]
        in_band = all(RATIO_BAND[0] <= r["ratio"] <= RATIO_BAND[1]
                      for r in gated)
        return ({"ratios": ratios, "ratios_in_band": in_band}, in_band,
                [*(f"err({r['x']:.17g}) / err({2 * r['x']:.17g}) = "
                   f"{r['ratio']:.3f}" for r in gated), "decay band check"])

    return _gate({"xs": [r.x for r in rows], "errs": errs,
                  "ratio_band": list(RATIO_BAND)},
                 errs, "decay band check", "decay_skipped", decay)


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
        # W diag(w) and N diag(w) have low x-independent rank: factored,
        # not assembled
        if which == "W":
            return factored_det(lambda r: W_factors(r, chi, shift), chi.rule)
        if which == "N":
            return factored_det(lambda r: N_factors(r, chi, shift),
                                _line_rule(cfg))
        # where the config is real the kernel returns the k = 0 planes
        # alone, and the matrix is factored in float64
        return nystrom_det_matrix(
            lambda l, m: M_kernel(l, m, chi, shift, collocation=True),
            _loop_rule(cfg), shift.N)
    if which == "M0":
        # M0 = diag(U-, U+): the Nystrom determinant of a block-diagonal
        # kernel is the product of its blocks' determinants on the same rule
        up, um = limit_determinants(cfg)
        return DetResult(up.value * um.value, up.half * um.half, up.rule_size)
    _require_U_strip(cfg)
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
    if which not in ("M0", "Uplus", "Uminus"):
        _require_interval_memory(cfg)
    return _det(cfg, which)
