"""Kernel evaluators and problem configuration.

Builds every kernel in the factorization chain -- the generalized sine
kernel S~, its shifted companion S, the general V with shift table, the
low-rank factors of the one-dimensional reduction W, the loop/line matrix
kernels M and N, and the asymptotic kernels U+/U- -- from a small registry of admissible
amplitude/phase functions.

All evaluators are vectorized: scalar kernels map broadcastable complex
arrays (lam, mu) to a broadcast array; matrix kernels append a trailing
(N, N) axis.  V~ and V map real arrays to float64 where the config makes
them real (``real_on_axis``, read through ``real_kernel``); this module
alone reads that decision, and the collocation matrices follow the dtype of
the values.  Near-diagonal removable singularities are evaluated through
divided-difference forms that carry no cancellation, switched on at
|lam - mu| < delta0 = 1e-4 * (b - a) and evaluated on those entries only.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from math import asinh, ceil, log, pi
from sys import float_info
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import MIN_SIZE

__all__ = [
    "ConfigError", "NumericError",
    "FunctionSpec", "ShiftSpec", "VectorPairSpec",
    "NumericsConfig", "ToleranceConfig", "ProblemConfig",
    "problem_config_from_json",
    "eval_e", "gsk_vector_pair", "gsk_shift_spec", "real_on_axis",
    "general_kernel_V",
    "W_factors", "cauchy_rank", "M_kernel", "N_kernel",
    "U_plus_kernel", "U_minus_kernel",
    "near_diagonal_mask", "near_diagonal_eval", "bracket_kernel",
]

# fraction of (b - a) below which the divided-difference branch takes over
DIAG_SWITCH_FRACTION = 1e-4

# components of the generalized-sine-kernel vector pair
GSK_N = 2


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


def _rank2(a0, a1, b0, b1):
    """a0 b0 + a1 b1 over the broadcast grid of the lam-side a's and the
    mu-side b's, as one GEMM of inner dimension 2 (einsum's optimize=True
    contracts it so).  The mu side goes first: the GEMM then writes a
    (lam rows, mu columns) grid C-contiguous, the layout of the difference
    lam - mu it is combined with."""
    return np.einsum("...a,...a->...", np.stack([b0, b1], axis=-1),
                     np.stack([a0, a1], axis=-1), optimize=True)


def _real_points(lam, mu) -> bool:
    """Both arguments are real arrays (a dtype check, not a value check)."""
    return not (np.iscomplexobj(lam) or np.iscomplexobj(mu))


def near_diagonal_mask(lam, mu, delta0: float):
    """Boolean mask selecting pairs handled by the divided-difference branch."""
    return np.abs(np.asarray(lam) - np.asarray(mu)) < delta0


def _near_entries(lam, mu, d, delta0: float):
    """Index of the entries |d| < delta0 of the broadcast d = lam - mu.

    When lam is a column and mu a row with sorted real parts (every row
    block of a Gauss rule), each row's candidates are the bisected window
    |Re lam - Re mu| <= 2 delta0, which holds every entry with
    |d| < delta0, rounding included; the exact test then runs on those
    candidates only, and (row, column) arrays in row-major order are
    returned.  Any other shape gets the boolean mask over the full grid.
    """
    if d.ndim == 2 and lam.shape == (d.shape[0], 1) and mu.size == d.shape[1]:
        row = mu.reshape(-1).real
        if np.all(row[1:] >= row[:-1]):
            col = lam.reshape(-1).real
            lo = np.searchsorted(row, col - 2.0 * delta0)
            count = np.searchsorted(row, col + 2.0 * delta0, side="right") - lo
            i = np.repeat(np.arange(col.size), count)
            # the k-th candidate of row i is column lo[i] + k
            j = np.arange(i.size) + np.repeat(lo - (np.cumsum(count) - count),
                                              count)
            keep = np.abs(d[i, j]) < delta0
            return i[keep], j[keep]
    return np.abs(d) < delta0


def near_diagonal_eval(lam, mu, delta0: float, direct: Callable,
                       near: Callable):
    """A kernel with a removable lam = mu singularity, branch by branch.

    ``direct(lam, mu, d)`` receives the unbroadcast inputs and the broadcast
    difference d = lam - mu, in the inputs' own dtype (float64 for real
    points), set to 1 on the near-diagonal entries |lam - mu| < delta0 so
    that the quotient stays finite there; it may overwrite d.
    ``near(lam, mu)`` receives only those entries, as 1-D arrays, and its
    cancellation-free values replace them: the series costs O(#near), not
    one evaluation per entry of the broadcast grid, and a Gauss-rule row
    block finds them by bisection (``_near_entries``).  The result has the
    common dtype of both branches: a complex ``near`` makes a float
    ``direct`` result complex, so no imaginary part is dropped.
    """
    lam = np.asarray(lam)
    mu = np.asarray(mu)
    d = np.asarray(lam - mu)
    idx = _near_entries(lam, mu, d, delta0)
    lam_near = np.broadcast_to(lam, d.shape)[idx]
    if not lam_near.size:
        return direct(lam, mu, d)
    mu_near = np.broadcast_to(mu, d.shape)[idx]
    d[idx] = 1.0
    out = np.asarray(direct(lam, mu, d))
    vals = near(lam_near, mu_near)
    out = out.astype(np.result_type(out, vals), copy=False)
    out[idx] = vals
    return out


# --------------------------------------------------------------------------
# function registry
# --------------------------------------------------------------------------

# each registered kind and its parameter names; "coeffs" is a list of
# scalars, every other parameter one scalar
_KINDS = {"constant": ("value",), "polynomial": ("coeffs",),
          "scaled_gaussian_entire": ("amplitude", "center", "scale")}


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

    @property
    def real(self) -> bool:
        """Real on the real axis: every parameter has zero imaginary part."""
        return all(np.all(np.isreal(v)) for v in self.params.values())

    # -- serialization -----------------------------------------------------
    @staticmethod
    def from_json(obj, where: str = "function") -> "FunctionSpec":
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ConfigError(f"{where}: expected an object whose 'kind' is "
                              f"one of {', '.join(_KINDS)}, got {obj!r}")
        raw = _fields(obj, where, ("kind", *_KINDS[kind]))
        return FunctionSpec(kind, {
            k: (_list(raw[k], f"{where}.{k}", _scalar) if k == "coeffs"
                else _scalar(raw[k], f"{where}.{k}"))
            for k in _KINDS[kind]})

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for k, v in self.params.items():
            if isinstance(v, list):
                out[k] = [_emit_scalar(c) for c in v]
            else:
                out[k] = _emit_scalar(v)
        return out


# --------------------------------------------------------------------------
# typed JSON readers: every config value is read by one of these, and every
# error names the value's dotted path
# --------------------------------------------------------------------------

def _fields(obj, where: str, required=(), optional=()) -> dict:
    """A JSON object with every ``required`` key and no unknown one."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {obj!r}")
    unknown = set(obj) - {*required, *optional}
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{where}: missing required fields {missing}")
    return obj


def _real(v, where: str) -> float:
    """A JSON int or float (not a bool) that is finite as a double."""
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= float_info.max):
        raise ConfigError(f"{where}: expected a finite number, got {v!r}")
    return float(v)


def _integer(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    return v


def _scalar(v, where: str) -> complex:
    """A real, or a complex {_re, _im} pair whose missing part reads 0."""
    if not isinstance(v, dict):
        return complex(_real(v, where))
    pair = _fields(v, where, optional=("_re", "_im"))
    return complex(_real(pair.get("_re", 0.0), where + "._re"),
                   _real(pair.get("_im", 0.0), where + "._im"))


def _list(v, where: str, item) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where}: expected a nonempty list, got {v!r}")
    return [item(e, f"{where}[{i}]") for i, e in enumerate(v)]


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
        """Each error names the dotted path of the offending entry."""
        n, where = self.N, "config.shifts"
        if n == 0:
            raise ConfigError(f"{where}: the table must hold at least one shift")
        if not (len(self.c) == n and len(self.v) == n):
            raise ConfigError(f"{where}: gamma, c and v must have equal "
                              f"length, got {n}, {len(self.c)} and {len(self.v)}")
        for i, c in enumerate(self.c):
            if c == 0.0 or not np.isfinite(c):
                raise ConfigError(f"{where}.c[{i}]: every shift c_a must be "
                                  f"finite and nonzero, got {float(c)!r}")
        for i, v in enumerate(self.v):
            if not 1 <= v <= n:
                raise ConfigError(f"{where}.v[{i}]: shift indices must lie in "
                                  f"1..{n}, got {int(v)}")


@dataclass(frozen=True)
class VectorPairSpec:
    """Left/right vector evaluators defining an integrable kernel.

    E_L and E_R map a complex array of shape S to an array of shape S+(N,).
    The bilinear bracket <E_L(lam), E_R(lam)> must vanish identically on
    [a, b] (regularity), which makes the kernel bracket/(lam - mu) smooth
    on the diagonal.  ``bracket_dd(lam, mu)`` is that quotient written
    without cancellation, finite on the diagonal; it is evaluated only on
    the near-diagonal entries.

    ``real`` marks an N = 2 pair whose components are swapped by
    conjugation on the real axis, conj E_L,k = E_L,1-k and
    conj E_R,k = E_R,1-k, so that the bracket of real points is
    2 Re(E_L,0(lam) E_R,0(mu)); kernels built on such a pair evaluate real
    points in float64 (see ``bracket_kernel``).
    """

    N: int
    E_L: Callable[[np.ndarray], np.ndarray]
    E_R: Callable[[np.ndarray], np.ndarray]
    bracket_dd: Callable[[np.ndarray, np.ndarray], np.ndarray]
    real: bool = False

    def bracket(self, lam, mu):
        """<E_L(lam), E_R(mu)> (plain bilinear pairing, no conjugation)."""
        # optimize=True contracts a broadcast grid as one GEMM
        return np.einsum("...a,...a->...", self.E_L(np.asarray(lam, complex)),
                         self.E_R(np.asarray(mu, complex)), optimize=True)

    def real_bracket(self, lam, mu):
        """The bracket of a ``real`` pair at real points as a float64 rank-2
        product: 2 Re(E_L,0 E_R,0) = 2 (Re E_L,0 Re E_R,0 - Im E_L,0 Im E_R,0)."""
        left = self.E_L(lam)[..., 0]
        right = self.E_R(mu)[..., 0]
        return _rank2(2.0 * left.real, -2.0 * left.imag, right.real, right.imag)


# --------------------------------------------------------------------------
# problem configuration
# --------------------------------------------------------------------------

@dataclass
class NumericsConfig:
    n_interval: Optional[int] = None     # None: resolved from x (8 pts/period)
    m_loop: int = 256
    m_line: int = 400
    h: Optional[float] = None            # None: min(c/2, 1)/2
    map_scale: float = 1.0


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
        return min(self.c / 2.0, 1.0) / 2.0

    # -- validation ----------------------------------------------------------
    def validate(self):
        if not self.a < self.b:
            raise ConfigError(f"need a < b, got a={self.a}, b={self.b}")
        if self.x <= 0:
            raise ConfigError(f"need x > 0, got {self.x}")
        if self.c <= 0:
            raise ConfigError(f"need c > 0, got {self.c}")
        self.shift.validate()
        # shift a dresses component a of E_L: the table can be no longer
        # than the GSK pair
        if self.shift.N > GSK_N:
            raise ConfigError(
                f"config.shifts: the table has {self.shift.N} entries, but "
                f"shift a pairs with component a of the GSK vector pair, "
                f"which has {GSK_N}")
        nm = self.numerics
        for name in ("m_loop", "m_line", "h", "map_scale"):
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
        tl = self.tolerances
        for name in ("r1", "r2", "r3"):
            if not getattr(tl, name) > 0:
                raise ConfigError(f"tolerances.{name} must be positive")
        if not tl.slope_min < tl.slope_max:
            raise ConfigError(
                f"tolerances.slope_min = {tl.slope_min} must be below "
                f"tolerances.slope_max = {tl.slope_max}: no slope can pass "
                f"an empty band")
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


def _config_fields(cls, raw, where: str):
    """A NumericsConfig or ToleranceConfig; int fields read as integers."""
    obj = _fields(raw, where, optional=[f.name for f in fields(cls)])
    return cls(**{f.name: (_integer if "int" in f.type else _real)(
        obj[f.name], f"{where}.{f.name}") for f in fields(cls)
        if f.name in obj})


def problem_config_from_json(obj) -> ProblemConfig:
    """Parse and validate the config-file layout into a ProblemConfig.

    Layout: {interval: {a, b}, x, c, F, p, shifts?, numerics?, tolerances?}.
    Raises ConfigError with a field-specific message on any violation.
    """
    top = _fields(obj, "config", ("interval", "x", "c", "F", "p"),
                  ("shifts", "numerics", "tolerances"))
    interval = _fields(top["interval"], "config.interval", ("a", "b"))
    shift = None
    if "shifts" in top:
        sh = _fields(top["shifts"], "config.shifts", ("gamma", "c", "v"))
        shift = ShiftSpec.make(
            _list(sh["gamma"], "config.shifts.gamma", _scalar),
            _list(sh["c"], "config.shifts.c", _real),
            _list(sh["v"], "config.shifts.v", _integer))
    cfg = ProblemConfig(
        a=_real(interval["a"], "config.interval.a"),
        b=_real(interval["b"], "config.interval.b"),
        x=_real(top["x"], "config.x"), c=_real(top["c"], "config.c"),
        F=FunctionSpec.from_json(top["F"], "config.F"),
        p=FunctionSpec.from_json(top["p"], "config.p"), shift=shift,
        numerics=_config_fields(NumericsConfig, top.get("numerics", {}),
                                "config.numerics"),
        tolerances=_config_fields(ToleranceConfig, top.get("tolerances", {}),
                                  "config.tolerances"))
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
    vanishes identically at mu = lam.  The pair is marked ``real`` (float64
    evaluation on real points) where ``real_on_axis(cfg, "Vtilde")`` holds:
    for real F and p, conj e = 1/e on the real axis swaps the components.
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

    return VectorPairSpec(N=GSK_N, E_L=E_L, E_R=E_R, bracket_dd=exact_dd,
                          real=real_on_axis(cfg, "Vtilde"))


def real_on_axis(cfg: ProblemConfig, which: str) -> bool:
    """Whether the kernel ``which`` ("Vtilde" or "V") of ``cfg`` is real for
    real lam, mu, decided from the config's symmetry, never from values.

    V~ = F(lam) sin(x (p(lam) - p(mu))/2) / (pi (lam - mu)) is real when F
    and p are.  V subtracts the shift terms
    gamma_a E_L,a(lam) E_R,v_a(mu) / (lam - mu + i c_a); on the real axis
    conj E_L,k = E_L,sk and conj E_R,k = E_R,sk, with s the swap of the
    GSK pair's two components, so the conjugate of term a is term s(a) when
    c_s(a) = -c_a, gamma_s(a) = conj gamma_a and v_s(a) = s(v_a).  Then the
    terms come in conjugate pairs and V is real too.
    """
    if not (cfg.F.real and cfg.p.real):
        return False
    return which == "Vtilde" or _swap_closed(cfg.shift)


def _swap_closed(s: ShiftSpec) -> bool:
    """The table is closed under the swap of the pair's two components."""
    return s.N == 2 and all(
        s.c[1 - k] == -s.c[k] and s.gamma[1 - k] == s.gamma[k].conjugate()
        and s.v0[1 - k] == 1 - s.v0[k] for k in range(2))


def real_kernel(pair: VectorPairSpec,
                shift: Optional[ShiftSpec] = None) -> bool:
    """Whether ``bracket_kernel`` (shift None) or ``general_kernel_V`` with
    ``shift`` evaluates real points of ``pair`` in float64: the one place
    that decision is read from; every caller sees it only as the dtype of
    the kernel's values.  On the pair of ``gsk_vector_pair(cfg)`` and
    ``cfg.shift`` it is ``real_on_axis``."""
    return pair.real and (shift is None or _swap_closed(shift))


def bracket_kernel(lam, mu, pair: VectorPairSpec, delta0: float):
    """V~(lam, mu) = <E_L(lam), E_R(mu)>/(lam - mu), diagonal made removable.

    A ``real`` pair evaluates real points in float64: the bracket is the
    pair's real rank-2 product, divided by the real difference in its own
    memory, and the near-diagonal entries are the real part of
    ``bracket_dd``.  Complex points, or any pair not marked real, take the
    complex bracket.
    """
    if real_kernel(pair) and _real_points(lam, mu):
        return near_diagonal_eval(
            lam, mu, delta0,
            lambda l, m, d: np.divide(pair.real_bracket(l, m), d, out=d),
            lambda l, m: pair.bracket_dd(l, m).real)
    return near_diagonal_eval(np.asarray(lam, dtype=complex),
                              np.asarray(mu, dtype=complex), delta0,
                              lambda l, m, d: pair.bracket(l, m) / d,
                              pair.bracket_dd)


def general_kernel_V(lam, mu, pair: VectorPairSpec, shift: ShiftSpec,
                     delta0: float = 1e-4):
    """V(lam,mu) = <E_L(lam),E_R(mu)>/(lam-mu) - sum_a gamma_a f_a(lam) e_{v_a}(mu)/(lam-mu+ic_a).

    Only the lam = mu singularity of the leading term is removable (via the
    regularity condition); the shifted denominators must stay away from
    their poles.  Where ``real_kernel(pair, shift)`` holds (a ``real`` pair
    and a table closed under the swap of its components), real points are
    evaluated in float64 (``_real_V``).
    """
    if real_kernel(pair, shift) and _real_points(lam, mu):
        return _real_V(lam, mu, pair, shift, delta0)
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


def _real_V(lam, mu, pair: VectorPairSpec, shift: ShiftSpec, delta0: float):
    """V at real points in float64, for a table closed under the swap of the
    pair's components (``real_on_axis``): shift 1 is the conjugate of
    shift 0, so the two terms are 2 Re(N / (d + i c)) with d = lam - mu,
    N = gamma_0 E_L,0(lam) E_R,v_0(mu) and c = c_0, that is
    2 (Re N d + Im N c) / (d^2 + c^2), Re N and Im N real rank-2 products.
    At most four float64 arrays of the grid's size are alive at once.
    """
    out = bracket_kernel(lam, mu, pair, delta0)
    f = 2.0 * shift.gamma[0] * pair.E_L(lam)[..., 0]
    g = pair.E_R(mu)[..., shift.v0[0]]
    c = shift.c[0]
    d = np.asarray(lam - mu)
    num = _rank2(f.real, -f.imag, g.real, g.imag)          # Re N
    num *= d
    im = _rank2(f.real, f.imag, g.imag, g.real)            # Im N
    im *= c
    num += im
    del im
    d *= d                                                 # |d + ic|^2
    d += c * c
    # |d + ic| >= |c| on real points: only a |c| below the complex path's
    # pole guard can reach it
    guard = 1e-12 * (abs(c) + 1.0)
    if abs(c) < guard and np.min(d) < guard * guard:
        raise ValueError("general_kernel_V evaluated at the shifted pole "
                         "lam - mu = -i c_1")
    num /= d
    out -= num
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
    """r Chebyshev points t of [a, b] and the real (n, r) barycentric matrix
    P with P @ f(t) ~ f(nodes) for f analytic near [a, b]."""
    t = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(pi * np.arange(r) / (r - 1))
    bw = (-1.0) ** np.arange(r)
    bw[[0, -1]] *= 0.5
    P = nodes.real[:, None] - t[None, :]
    hit = P == 0.0
    P[hit] = 1.0
    np.divide(bw, P, out=P)
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
    the points (P = I, exact).  chi(mu - i c_n) comes from ``chi_at``,
    whose far path sums the same r Chebyshev points: O(n r N^2).
    """
    lam, n, N = rule.nodes, rule.size, chi.N
    a, b = rule.descriptor["a"], rule.descriptor["b"]
    FL = chi.FL_at(lam)                                 # (n, N)
    ER = chi.pair.E_R(lam)                              # (n, N)
    # every g_{., n} (n x N) before the factors are allocated, so that
    # chi_at's temporaries never sit on top of X and Y
    g = [chi.chi_at(lam - 1j * c)[:, :, k]
         * (ER[:, shift.v0[k]] * rule.weights)[:, None]
         for k, c in enumerate(shift.c)]
    ranks = [min(cauchy_rank(c, a, b), n) for c in shift.c]
    X = np.empty((n, N * sum(ranks)), dtype=complex)
    Y = np.empty_like(X)
    col, t = 0, None
    for k, r in enumerate(ranks):
        c = shift.c[k]
        if t is None or t.size != r:          # shifts of equal |c| share P
            if r == n:
                t, P = lam.real, np.eye(n)
            else:
                t, P = _chebyshev_interpolant(lam, r, a, b)
            PT = np.empty((n, r), dtype=complex)
        # P T_n: the real P times T_n's real and imaginary parts, in place
        T = 1.0 / (t[:, None] - t[None, :] + 1j * c)
        np.matmul(P, T.view(float), out=PT.view(float))
        for a_idx in range(N):                 # column block (k, a) of r
            cols = slice(col, col + r)
            np.multiply(PT, -shift.gamma[k] * FL[:, a_idx, None],
                        out=X[:, cols])
            np.multiply(g[k][:, a_idx, None], P, out=Y[:, cols])
            col += r
    return X, Y


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
    # gamma numer / (2 i pi den), in the einsum's and den's own memory
    np.multiply(shift.gamma[:, None], numer, out=numer)
    np.multiply(2j * pi, den, out=den)
    return np.divide(numer, den, out=numer)


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
