"""Kernel evaluators and problem configuration.

Builds every kernel in the factorization chain -- the generalized sine
kernel S~, its shifted companion S, the general V with shift table, the
low-rank factors of the one-dimensional reduction W, the loop/line matrix
kernels M and N, and the asymptotic kernels U+/U- -- from a small registry of admissible
amplitude/phase functions.

All evaluators are vectorized: scalar kernels map broadcastable complex
arrays (lam, mu) to a broadcast array; matrix kernels append a trailing
(N, N) axis.  Near-diagonal removable singularities are evaluated through
divided-difference forms that carry no cancellation, switched on at
|lam - mu| < delta0 = 1e-4 * (b - a) and evaluated on those entries only.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from math import asinh, ceil, isfinite, log, pi
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import MIN_SIZE

__all__ = [
    "ConfigError", "NumericError",
    "FunctionSpec", "ShiftSpec", "VectorPairSpec",
    "NumericsConfig", "ToleranceConfig", "ProblemConfig",
    "problem_config_from_json",
    "eval_e", "gsk_vector_pair", "gsk_shift_spec", "general_kernel_V",
    "W_factors", "cauchy_rank", "M_kernel", "N_kernel",
    "U_plus_kernel", "U_minus_kernel",
    "near_diagonal_mask", "near_diagonal_eval", "bracket_kernel",
]

# fraction of (b - a) below which the divided-difference branch takes over
DIAG_SWITCH_FRACTION = 1e-4


class ConfigError(ValueError):
    """A problem configuration violates a validation rule."""


class NumericError(RuntimeError):
    """A numerical computation failed (singular system, non-finite result)."""


def _sinc(w):
    """sin(w)/w, complex-safe, series near 0."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-4
    wd = np.where(small, 1.0, w)
    return np.where(small, 1.0 - w * w / 6.0, np.sin(wd) / wd)


def _sinhc(w):
    """sinh(w)/w, complex-safe, series near 0."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-4
    wd = np.where(small, 1.0, w)
    return np.where(small, 1.0 + w * w / 6.0, np.sinh(wd) / wd)


def near_diagonal_mask(lam, mu, delta0: float):
    """Boolean mask selecting pairs handled by the divided-difference branch."""
    return np.abs(np.asarray(lam) - np.asarray(mu)) < delta0


def near_diagonal_eval(lam, mu, delta0: float, direct: Callable,
                       near: Callable):
    """A kernel with a removable lam = mu singularity, branch by branch.

    ``direct(lam, mu, d)`` receives the unbroadcast inputs and the broadcast
    difference d = lam - mu, set to 1 on the near-diagonal entries
    |lam - mu| < delta0 so that the quotient stays finite there.
    ``near(lam, mu)`` receives only those entries, as 1-D arrays, and its
    cancellation-free values replace them: the series costs O(#near), not
    one evaluation per entry of the broadcast grid.
    """
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    d = np.asarray(lam - mu)
    mask = np.abs(d) < delta0
    if not mask.any():
        return direct(lam, mu, d)
    d[mask] = 1.0
    out = np.asarray(direct(lam, mu, d))
    out[mask] = near(np.broadcast_to(lam, mask.shape)[mask],
                     np.broadcast_to(mu, mask.shape)[mask])
    return out


# --------------------------------------------------------------------------
# function registry
# --------------------------------------------------------------------------

_KINDS = ("constant", "polynomial", "scaled_gaussian_entire")


@dataclass(frozen=True)
class FunctionSpec:
    """An admissible amplitude or phase function.

    Only entire kinds are registered, so every shifted evaluation point
    mu +- ic, lam +- ic/2 is automatically inside the domain of holomorphy.
    """

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown function kind {self.kind!r}; "
                              f"registered kinds: {', '.join(_KINDS)}")
        if self.kind == "polynomial" and not self.params.get("coeffs"):
            raise ConfigError("polynomial needs a nonempty 'coeffs' list")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def constant(value) -> "FunctionSpec":
        return FunctionSpec("constant", {"value": complex(value)})

    @staticmethod
    def polynomial(coeffs: Sequence[complex]) -> "FunctionSpec":
        return FunctionSpec("polynomial", {"coeffs": [complex(c) for c in coeffs]})

    @staticmethod
    def scaled_gaussian(amplitude, center, scale) -> "FunctionSpec":
        return FunctionSpec("scaled_gaussian_entire", {
            "amplitude": complex(amplitude),
            "center": complex(center),
            "scale": complex(scale),
        })

    # -- evaluation --------------------------------------------------------
    def value(self, z):
        z = np.asarray(z, dtype=complex)
        if self.kind == "constant":
            return np.broadcast_to(self.params["value"], z.shape).copy()
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(z, np.asarray(self.params["coeffs"]))
        A, mu0, s = (self.params["amplitude"], self.params["center"],
                     self.params["scale"])
        return A * np.exp(-s * (z - mu0) ** 2)

    def deriv(self, z):
        z = np.asarray(z, dtype=complex)
        if self.kind == "constant":
            return np.zeros(z.shape, dtype=complex)
        if self.kind == "polynomial":
            c = np.polynomial.polynomial.polyder(np.asarray(self.params["coeffs"]))
            return np.polynomial.polynomial.polyval(z, c) + np.zeros(z.shape, complex)
        A, mu0, s = (self.params["amplitude"], self.params["center"],
                     self.params["scale"])
        return -2.0 * s * (z - mu0) * self.value(z)

    def divided_difference(self, z1, z2):
        """(f(z1) - f(z2)) / (z1 - z2), exact and cancellation-free.

        Well-defined on the diagonal, where it returns f'(z1).
        """
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        if self.kind == "constant":
            return np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
        if self.kind == "polynomial":
            # h_k = (z1^k - z2^k)/(z1 - z2) satisfies h_k = z1*h_{k-1} + z2^(k-1)
            coeffs = self.params["coeffs"]
            h = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
            out = np.zeros_like(h)
            p2 = np.ones_like(h)  # z2^(k-1) running power
            for k in range(1, len(coeffs)):
                h = z1 * h + p2
                p2 = p2 * z2
                out = out + coeffs[k] * h
            return out
        A, mu0, s = (self.params["amplitude"], self.params["center"],
                     self.params["scale"])
        al, be = z1 - mu0, z2 - mu0
        return (-A * s * (al + be) * np.exp(-0.5 * s * (al * al + be * be))
                * _sinhc(0.5 * s * (al + be) * (al - be)))

    # -- serialization -----------------------------------------------------
    @staticmethod
    def from_json(obj: dict, where: str = "function") -> "FunctionSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError(f"{where}: expected an object with a 'kind' field")
        kind = obj["kind"]
        if kind == "constant":
            if "value" not in obj:
                raise ConfigError(f"{where}: constant needs 'value'")
            return FunctionSpec.constant(_parse_scalar(obj["value"], where))
        if kind == "polynomial":
            if "coeffs" not in obj:
                raise ConfigError(f"{where}: polynomial needs 'coeffs'")
            return FunctionSpec.polynomial(
                [_parse_scalar(c, where) for c in obj["coeffs"]])
        if kind == "scaled_gaussian_entire":
            missing = {"amplitude", "center", "scale"} - set(obj)
            if missing:
                raise ConfigError(f"{where}: scaled_gaussian_entire needs "
                                  f"{sorted(missing)}")
            return FunctionSpec.scaled_gaussian(
                _parse_scalar(obj["amplitude"], where),
                _parse_scalar(obj["center"], where),
                _parse_scalar(obj["scale"], where))
        raise ConfigError(f"{where}: unknown function kind {kind!r}")

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for k, v in self.params.items():
            if isinstance(v, list):
                out[k] = [_emit_scalar(c) for c in v]
            else:
                out[k] = _emit_scalar(v)
        return out


def _is_finite_number(v) -> bool:
    """A JSON int or float (not a bool) that is finite as a double."""
    try:
        return not isinstance(v, bool) and isfinite(v)
    except (TypeError, OverflowError):
        return False


def _parse_scalar(v, where: str) -> complex:
    if isinstance(v, dict) and set(v) <= {"_re", "_im"}:
        parts = (v.get("_re", 0.0), v.get("_im", 0.0))
    else:
        parts = (v, 0.0)
    if not all(map(_is_finite_number, parts)):
        raise ConfigError(f"{where}: expected a finite number or {{_re, _im}} "
                          f"pair, got {v!r}")
    return complex(*parts)


def _emit_scalar(v: complex):
    v = complex(v)
    if v.imag == 0.0:
        return v.real
    return {"_re": v.real, "_im": v.imag}


# --------------------------------------------------------------------------
# shift table and vector pair
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftSpec:
    """The shift table {gamma_a, c_a, v_a}, a = 1..N (v is 1-based)."""

    gamma: np.ndarray
    c: np.ndarray
    v: np.ndarray

    @staticmethod
    def make(gamma, c, v) -> "ShiftSpec":
        gamma = np.asarray(gamma, dtype=complex)
        c = np.asarray(c, dtype=float)
        v = np.asarray(v, dtype=int)
        spec = ShiftSpec(gamma, c, v)
        spec.validate()
        return spec

    @property
    def N(self) -> int:
        return len(self.gamma)

    @property
    def v0(self) -> np.ndarray:
        """0-based row selectors."""
        return self.v - 1

    def validate(self):
        n = self.N
        if not (len(self.c) == n and len(self.v) == n):
            raise ConfigError("shift table lists gamma, c, v must have equal length")
        if np.any(self.c == 0.0) or not np.isfinite(self.c).all():
            raise ConfigError("every shift c_a must be finite and nonzero")
        if np.any((self.v < 1) | (self.v > n)):
            raise ConfigError(f"shift indices v must lie in 1..{n}")


@dataclass(frozen=True)
class VectorPairSpec:
    """Left/right vector evaluators defining an integrable kernel.

    E_L and E_R map a complex array of shape S to an array of shape S+(N,).
    The bilinear bracket <E_L(lam), E_R(lam)> must vanish identically on
    [a, b] (regularity), which makes the kernel bracket/(lam - mu) smooth
    on the diagonal.  ``bracket_dd(lam, mu)`` is that quotient written
    without cancellation, finite on the diagonal; it is evaluated only on
    the near-diagonal entries.
    """

    N: int
    E_L: Callable[[np.ndarray], np.ndarray]
    E_R: Callable[[np.ndarray], np.ndarray]
    bracket_dd: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def bracket(self, lam, mu):
        """<E_L(lam), E_R(mu)> (plain bilinear pairing, no conjugation)."""
        # optimize=True contracts a broadcast grid as one GEMM
        return np.einsum("...a,...a->...", self.E_L(np.asarray(lam, complex)),
                         self.E_R(np.asarray(mu, complex)), optimize=True)


# --------------------------------------------------------------------------
# problem configuration
# --------------------------------------------------------------------------

@dataclass
class NumericsConfig:
    n_interval: Optional[int] = None     # None: resolved from x (8 pts/period)
    m_loop: int = 256
    m_line: int = 400
    h: Optional[float] = None            # None: min(c/2, rho)/2
    rho: float = 1.0                     # analyticity margin for F and p
    map_scale: float = 1.0
    line_rule: str = "tan"               # or "truncated" (cross-check only)
    line_truncation: float = 100.0


@dataclass
class ToleranceConfig:
    r1: float = 1e-8
    r2: float = 1e-8
    r3: float = 1e-4
    slope_min: float = -1.3
    slope_max: float = -0.7


@dataclass
class ProblemConfig:
    """Everything needed to pose one determinant problem."""

    a: float
    b: float
    x: float
    c: float
    F: FunctionSpec
    p: FunctionSpec
    shift: Optional[ShiftSpec] = None     # None: canonical two-shift table
    numerics: NumericsConfig = field(default_factory=NumericsConfig)
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)

    def __post_init__(self):
        if self.shift is None:
            self.shift = gsk_shift_spec(self)

    @property
    def N(self) -> int:
        """Block size of the loop and line kernels: the shift table's N."""
        return self.shift.N

    # -- resolved numerics ---------------------------------------------------
    @property
    def delta0(self) -> float:
        return DIAG_SWITCH_FRACTION * (self.b - self.a)

    def max_phase_slope(self) -> float:
        grid = np.linspace(self.a, self.b, 512)
        return float(np.max(np.real(self.p.deriv(grid))))

    def resolved_n(self) -> int:
        """Interval resolution: >= 8 nodes per oscillation period, floor 64."""
        if self.numerics.n_interval is not None:
            return self.numerics.n_interval
        return max(64, ceil(8.0 * self.x * self.max_phase_slope()
                            * (self.b - self.a) / (2.0 * pi)))

    def resolved_h(self) -> float:
        if self.numerics.h is not None:
            return self.numerics.h
        return min(self.c / 2.0, self.numerics.rho) / 2.0

    # -- validation ----------------------------------------------------------
    def validate(self):
        if not self.a < self.b:
            raise ConfigError(f"need a < b, got a={self.a}, b={self.b}")
        if self.x <= 0:
            raise ConfigError(f"need x > 0, got {self.x}")
        if self.c <= 0:
            raise ConfigError(f"need c > 0, got {self.c}")
        self.shift.validate()
        nm = self.numerics
        for name in ("m_loop", "m_line", "h", "rho", "map_scale",
                     "line_truncation"):
            value = getattr(nm, name)
            if value is not None and not value > 0:
                raise ConfigError(f"numerics.{name} must be positive")
        h = self.resolved_h()
        half_strip = float(np.min(np.abs(self.shift.c))) / 2.0
        if h >= half_strip:
            raise ConfigError(
                f"loop half-height h={h} violates the strip constraint "
                f"h < min|c_a|/2 = {half_strip}: the contour must stay inside "
                f"|Im z| < min|c_a|/2")
        # a rule at its kind's floor size is its own half-resolution rule,
        # so every convergence delta on it would read 0
        for name, kind in (("n_interval", "interval"), ("m_loop", "loop"),
                           ("m_line", "line")):
            size = getattr(nm, name)
            if size is not None and size <= MIN_SIZE[kind]:
                raise ConfigError(
                    f"numerics.{name} = {size} must exceed {MIN_SIZE[kind]}, "
                    f"the {kind} rule's floor size: a rule of that size has "
                    f"no smaller half-resolution rerun to measure its "
                    f"convergence against")
        if nm.m_loop % 2:
            raise ConfigError(f"numerics.m_loop = {nm.m_loop} must be even")
        if nm.line_rule not in ("tan", "truncated"):
            raise ConfigError("numerics.line_rule must be 'tan' or 'truncated'")
        self._validate_amplitude(h)
        self._validate_phase()

    def _validate_amplitude(self, h: float):
        # |F| < 1 on a grid covering the closed stadium of radius 2h around [a,b]
        margin = 2.0 * h
        u = np.linspace(self.a - margin, self.b + margin, 81)
        v = np.linspace(-margin, margin, 25)
        grid = u[:, None] + 1j * v[None, :]
        mags = np.abs(self.F.value(grid))
        peak = float(np.max(mags))
        if peak >= 1.0:
            raise ConfigError(
                f"amplitude F reaches |F| = {peak:.4g} >= 1 on the validation "
                f"region around [{self.a}, {self.b}]")
        if peak > 0.9:
            warnings.warn(
                f"amplitude F reaches |F| = {peak:.4g} > 0.9 on the validation "
                f"region; determinant conditioning may degrade", RuntimeWarning)

    def _validate_phase(self):
        grid = np.linspace(self.a, self.b, 512)
        slopes = np.real(self.p.deriv(grid))
        if np.min(slopes) <= 0.0:
            raise ConfigError(
                f"phase p must satisfy p' > 0 on [{self.a}, {self.b}]; "
                f"min p' = {np.min(slopes):.4g}")

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        nm, tl = self.numerics, self.tolerances
        return {
            "interval": {"a": self.a, "b": self.b},
            "x": self.x,
            "c": self.c,
            "F": self.F.to_json(),
            "p": self.p.to_json(),
            "shifts": {
                "gamma": [_emit_scalar(g) for g in self.shift.gamma],
                "c": [float(v) for v in self.shift.c],
                "v": [int(v) for v in self.shift.v],
            },
            # an unset (None) numerics field is resolved, so not echoed
            "numerics": {f.name: getattr(nm, f.name) for f in fields(nm)
                         if getattr(nm, f.name) is not None},
            "tolerances": {f.name: getattr(tl, f.name) for f in fields(tl)},
        }


# JSON type of each NumericsConfig / ToleranceConfig field; any other is a float
_FIELD_TYPES = {"n_interval": int, "m_loop": int, "m_line": int,
                "line_rule": str}


def _require_number(obj: dict, key: str, where: str) -> float:
    if key not in obj:
        raise ConfigError(f"{where}: missing required field {key!r}")
    v = obj[key]
    if not _is_finite_number(v):
        raise ConfigError(
            f"{where}: field {key!r} must be a finite number, got {v!r}")
    return float(v)


def _parse_fields(cls, raw, where: str):
    """A NumericsConfig or ToleranceConfig from its (optional) JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: must be an object")
    names = [f.name for f in fields(cls)]
    bad = set(raw) - set(names)
    if bad:
        raise ConfigError(f"{where}: unknown fields {sorted(bad)}")
    out = cls()
    for key in (n for n in names if n in raw):
        kind = _FIELD_TYPES.get(key, float)
        value = raw[key]
        if kind is float:
            value = _require_number(raw, key, where)
        elif kind is int and (not isinstance(value, int)
                              or isinstance(value, bool)):
            raise ConfigError(f"{where}.{key} must be an integer")
        setattr(out, key, value)
    return out


def problem_config_from_json(obj: dict) -> ProblemConfig:
    """Parse and validate the config-file layout into a ProblemConfig.

    Layout: {interval: {a, b}, x, c, F, p, shifts?, numerics?, tolerances?}.
    Raises ConfigError with a field-specific message on any violation.
    """
    if not isinstance(obj, dict):
        raise ConfigError("config: top level must be a JSON object")
    unknown = set(obj) - {"interval", "x", "c", "F", "p", "shifts",
                          "numerics", "tolerances"}
    if unknown:
        raise ConfigError(f"config: unknown top-level fields {sorted(unknown)}")
    if "interval" not in obj or not isinstance(obj["interval"], dict):
        raise ConfigError("config: missing 'interval' object with fields a, b")
    a = _require_number(obj["interval"], "a", "config.interval")
    b = _require_number(obj["interval"], "b", "config.interval")
    x = _require_number(obj, "x", "config")
    c = _require_number(obj, "c", "config")
    if "F" not in obj:
        raise ConfigError("config: missing amplitude function 'F'")
    if "p" not in obj:
        raise ConfigError("config: missing phase function 'p'")
    F = FunctionSpec.from_json(obj["F"], "config.F")
    p = FunctionSpec.from_json(obj["p"], "config.p")

    shift = None
    if "shifts" in obj:
        sh = obj["shifts"]
        if not isinstance(sh, dict) or {"gamma", "c", "v"} - set(sh):
            raise ConfigError("config.shifts: needs lists 'gamma', 'c', 'v'")
        try:
            shift = ShiftSpec.make(
                [_parse_scalar(g, "config.shifts.gamma") for g in sh["gamma"]],
                sh["c"], sh["v"])
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"config.shifts: {exc}") from exc

    nm = _parse_fields(NumericsConfig, obj.get("numerics", {}),
                       "config.numerics")
    tl = _parse_fields(ToleranceConfig, obj.get("tolerances", {}),
                       "config.tolerances")
    for key in ("r1", "r2", "r3"):
        if getattr(tl, key) <= 0:
            raise ConfigError(f"config.tolerances.{key} must be positive")

    cfg = ProblemConfig(a=a, b=b, x=x, c=c, F=F, p=p, shift=shift,
                        numerics=nm, tolerances=tl)
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# oscillatory factors and the sine-kernel family
# --------------------------------------------------------------------------

def eval_e(lam, cfg: ProblemConfig):
    """e(lam) = exp(i x p(lam) / 2)."""
    return np.exp(0.5j * cfg.x * cfg.p.value(lam))


def _phase_parts(lam, mu, cfg: ProblemConfig):
    """lam, mu as complex arrays, phi = x (p(lam) - p(mu)) / 2 (so that
    e(lam)/e(mu) = exp(i phi)) and the divided difference of p."""
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    phi = 0.5 * cfg.x * (cfg.p.value(lam) - cfg.p.value(mu))
    ddp = cfg.p.divided_difference(lam, mu)
    return lam, mu, phi, ddp


def _gsk_near(lam, mu, cfg: ProblemConfig):
    """F(lam) (x/2) dd_p sinc(phi) / pi: the sine kernel without cancellation."""
    lam, mu, phi, ddp = _phase_parts(lam, mu, cfg)
    return cfg.F.value(lam) * (0.5 * cfg.x) * ddp * _sinc(phi) / pi


def gsk_shift_spec(cfg: ProblemConfig) -> ShiftSpec:
    """Canonical two-shift table: gamma = (1, 1), c = (-c, c), v = (1, 2)."""
    return ShiftSpec.make([1.0, 1.0], [-cfg.c, cfg.c], [1, 2])


def gsk_vector_pair(cfg: ProblemConfig) -> VectorPairSpec:
    """The N = 2 pair generating the generalized sine kernel.

    E_L = (F/2i pi) (-1/e, e),  E_R = (e, 1/e); the bracket
    <E_L(lam), E_R(mu)> = F(lam) [e(lam)/e(mu) - e(mu)/e(lam)] / (2i pi)
    vanishes identically at mu = lam.
    """
    def E_L(z):
        z = np.asarray(z, dtype=complex)
        e = eval_e(z, cfg)
        pref = cfg.F.value(z) / (2j * pi)
        return np.stack([-pref / e, pref * e], axis=-1)

    def E_R(z):
        z = np.asarray(z, dtype=complex)
        e = eval_e(z, cfg)
        return np.stack([e, 1.0 / e], axis=-1)

    def exact_dd(lam, mu):
        # bracket/(lam - mu) = F(lam) (x/2) dd_p sinc(phi) / pi, exactly
        return _gsk_near(lam, mu, cfg)

    return VectorPairSpec(N=2, E_L=E_L, E_R=E_R, bracket_dd=exact_dd)


def bracket_kernel(lam, mu, pair: VectorPairSpec, delta0: float):
    """V~(lam, mu) = <E_L(lam), E_R(mu)>/(lam - mu), diagonal made removable."""
    return near_diagonal_eval(lam, mu, delta0,
                              lambda l, m, d: pair.bracket(l, m) / d,
                              pair.bracket_dd)


def general_kernel_V(lam, mu, pair: VectorPairSpec, shift: ShiftSpec,
                     delta0: float = 1e-4):
    """V(lam,mu) = <E_L(lam),E_R(mu)>/(lam-mu) - sum_a gamma_a f_a(lam) e_{v_a}(mu)/(lam-mu+ic_a).

    Only the lam = mu singularity of the leading term is removable (via the
    regularity condition); the shifted denominators must stay away from
    their poles.
    """
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    # on real lam, mu every |lam - mu + ic_a| >= |c_a|: the pole guard's
    # pass over the grid is needed only when |c_a| itself is below its bound
    real = not (lam.imag.any() or mu.imag.any())
    out = bracket_kernel(lam, mu, pair, delta0)
    EL = pair.E_L(lam)
    ER = pair.E_R(mu)
    for a_idx in range(shift.N):
        c_a = shift.c[a_idx]
        den = lam - (mu - 1j * c_a)       # one pass over the broadcast grid
        guard = 1e-12 * (abs(c_a) + 1.0)
        if (not real or abs(c_a) < guard) and np.min(np.abs(den)) < guard:
            raise ValueError(
                f"general_kernel_V evaluated at the shifted pole lam - mu = "
                f"-i c_{a_idx + 1}")
        term = shift.gamma[a_idx] * EL[..., a_idx] * ER[..., shift.v0[a_idx]]
        term /= den
        out -= term
    return out


# --------------------------------------------------------------------------
# reduction kernels built on the resolvent solution
# --------------------------------------------------------------------------
# `chi` below is a ChiSolution (rhp module); only its evaluation surface is
# used, so there is no import cycle.

# relative accuracy to which the Cauchy factor 1/(lam - mu + ic) of W is
# interpolated: double precision with two digits of headroom for the
# interpolant's Lebesgue constant and the Bernstein bound's prefactor
CAUCHY_RANK_TOL = 1e-18


def cauchy_rank(c: float, a: float, b: float) -> int:
    """Chebyshev points that interpolate 1/(lam - mu + ic) on [a, b] to
    CAUCHY_RANK_TOL, in each variable.

    The pole sits |c| off the interval; mapped to [-1, 1] that is
    delta = |c| / ((b - a)/2), the largest Bernstein ellipse free of it has
    rho = delta + sqrt(1 + delta^2) = exp(asinh(delta)), and the
    interpolation error falls like rho^-r (48 points at |c| = 1 on [-1, 1]).
    """
    delta = abs(c) / (0.5 * (b - a))
    return max(2, ceil(log(1.0 / CAUCHY_RANK_TOL) / asinh(delta)))


def _chebyshev_interpolant(nodes: np.ndarray, r: int, a: float, b: float):
    """r Chebyshev points t of [a, b] and the (n, r) barycentric matrix P
    with P @ f(t) ~ f(nodes) for f analytic near [a, b]."""
    t = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(pi * np.arange(r) / (r - 1))
    bw = (-1.0) ** np.arange(r)
    bw[[0, -1]] *= 0.5
    d = nodes.real[:, None] - t[None, :]
    hit = d == 0.0
    d[hit] = 1.0
    P = bw / d
    P /= P.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    P[rows] = hit[rows]
    return t, P


def W_factors(rule, chi, shift: ShiftSpec):
    """Factors X, Y (n x R) with X Y^T = W diag(w) on the interval ``rule``.

    W(lam,mu) = -sum_n gamma_n <F_L(lam), chi(mu - i c_n) e_n>
                               <e_{v_n}, E_R(mu)> / (lam - mu + i c_n),
    so W diag(w) = sum_{n,a} diag(-gamma_n F_L,a) C_n diag(g_{a,n}) with
    C_n(lam, mu) = 1/(lam - mu + i c_n) and
    g_{a,n}(mu) = chi_{a,n}(mu - i c_n) E_R,v_n(mu) w(mu).  C_n is
    interpolated in both variables through the r = cauchy_rank(c_n)
    Chebyshev points t: C_n ~ P T_n P^T with T_n = C_n(t, t), which leaves
    R = N_shift N r columns.  When r >= n the rule's own nodes serve as
    the points (P = I, exact).
    """
    lam, n = rule.nodes, rule.size
    a, b = rule.descriptor["a"], rule.descriptor["b"]
    FL = chi.FL_at(lam)                                 # (n, N)
    ER = chi.pair.E_R(lam)                              # (n, N)
    X, Y = [], []
    for k in range(shift.N):
        c = shift.c[k]
        r = cauchy_rank(c, a, b)
        if r >= n:
            t, P = lam.real, np.eye(n)
        else:
            t, P = _chebyshev_interpolant(lam, r, a, b)
        PT = P @ (1.0 / (t[:, None] - t[None, :] + 1j * c))
        g = (chi.chi_at(lam - 1j * c)[:, :, k]
             * (ER[:, shift.v0[k]] * rule.weights)[:, None])  # (n, N)
        X.append((-shift.gamma[k] * FL[:, :, None] * PT[:, None, :])
                 .reshape(n, -1))
        Y.append((g[:, :, None] * P[:, None, :]).reshape(n, -1))
    return np.hstack(X), np.hstack(Y)


def M_kernel(lam, mu, chi, shift: ShiftSpec):
    """Loop-representation matrix kernel.

    M_{k,l}(lam,mu) = gamma_k [chi^{-1}(lam) chi(mu - i c_l)]_{v_k, l}
                      / (2 i pi (lam - mu + i c_l)),
    for lam, mu on a loop inside the strip |Im z| < min|c_l|/2.
    """
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    N = shift.N
    Ainv = chi.chi_inv_at(lam)[..., shift.v0, :]   # (..., k, r)
    Bcol = np.stack([chi.chi_at(mu - 1j * shift.c[l])[..., :, l]
                     for l in range(N)], axis=-2)   # (..., l, r)
    # optimize=True runs the per-pair 2x2 products as one batched matmul,
    # not numpy's generic broadcast einsum loop
    numer = np.einsum("...kr,...lr->...kl", Ainv, Bcol, optimize=True)
    den = (lam[..., None, None] - mu[..., None, None]
           + 1j * shift.c[None, :])                 # (..., 1, l) broadcast over k
    if np.min(np.abs(den)) < 1e-10:
        raise ValueError("loop kernel denominator vanished: contour violates "
                         "the strip |Im z| < min|c_l|/2")
    return (shift.gamma[:, None] * numer / (2j * pi * den))


def N_kernel(lam, mu, chi, shift: ShiftSpec, delta0: float = 1e-4):
    """Line-representation matrix kernel on the real axis.

    N_{k,l}(lam,mu) = sgn(c_k) gamma_k [I - chi^{-1}(lam + i c_k/2) chi(mu - i c_l/2)]_{v_k, l}
                      / (2 i pi (lam - mu + i (c_k + c_l)/2)).

    For compensated pairs c_k + c_l = 0 the denominator vanishes on the
    diagonal; there the entry is the exact divided difference
    sgn(c_k) gamma_k [chi^{-1}(z) dchi(z, z')]_{v_k, l} / (2 i pi) with
    z = lam + i c_k/2, z' = mu - i c_l/2 on the same horizontal line.
    """
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    N = shift.N
    shape = np.broadcast(lam, mu).shape
    Ainv = np.stack([chi.chi_inv_at(lam + 0.5j * shift.c[k])[..., shift.v0[k], :]
                     for k in range(N)], axis=-2)   # (..., k, r)
    Bcol = np.stack([chi.chi_at(mu - 0.5j * shift.c[l])[..., :, l]
                     for l in range(N)], axis=-2)   # (..., l, r)
    eye_kl = (shift.v0[:, None] == np.arange(N)[None, :]).astype(complex)
    pref = np.sign(shift.c) * shift.gamma / (2j * pi)
    out = eye_kl - np.einsum("...kr,...lr->...kl", Ainv, Bcol, optimize=True)
    out *= pref[:, None]
    csum = 0.5 * (shift.c[:, None] + shift.c[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= lam[..., None, None] - (mu[..., None, None] - 1j * csum)
    # exact divided-difference branch for compensated pairs near the diagonal
    idx = np.broadcast_to(near_diagonal_mask(lam, mu, delta0), shape)
    if not idx.any():
        return out
    z0 = np.broadcast_to(lam, shape)[idx]
    z0p = np.broadcast_to(mu, shape)[idx]
    for k, l in zip(*np.nonzero(np.abs(csum) < 1e-14)):
        z = z0 + 0.5j * shift.c[k]
        zp = z0p - 0.5j * shift.c[l]
        # [I - chi^-1(z) chi(z')]/(z - z') == chi^-1(z) * dchi(z, z')
        dchi = chi.delta_chi(z, zp)                        # (M, N, N)
        cinv = chi.chi_inv_at(z)                           # (M, N, N)
        out[..., k, l][idx] = pref[k] * np.matmul(cinv, dchi)[:, shift.v0[k], l]
    return out


# --------------------------------------------------------------------------
# asymptotic comparison kernels
# --------------------------------------------------------------------------

def U_plus_kernel(lam, mu, alpha, c: float):
    """U+(lam,mu) = alpha(mu - ic) / alpha(lam) / (2 i pi (lam - mu + ic))."""
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    return (alpha.alpha_at(mu - 1j * c) / alpha.alpha_at(lam)
            / (2j * pi * (lam - mu + 1j * c)))


def U_minus_kernel(lam, mu, alpha, c: float):
    """U-(lam,mu) = alpha(lam) / alpha(mu + ic) / (2 i pi (lam - mu - ic))."""
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    return (alpha.alpha_at(lam) / alpha.alpha_at(mu + 1j * c)
            / (2j * pi * (lam - mu - 1j * c)))
