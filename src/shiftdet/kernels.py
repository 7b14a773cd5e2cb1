"""Kernel evaluators and problem configuration.

Builds every kernel in the factorization chain -- the generalized sine
kernel S~, its shifted companion S, the general V with shift table, the
low-rank factors of the one-dimensional reduction W, the loop/line matrix
kernels M and N, and the asymptotic kernels U+/U- -- from a small registry of admissible
amplitude/phase functions.

All evaluators are vectorized: scalar kernels map broadcastable complex
arrays (lam, mu) to a broadcast array; matrix kernels append a trailing
(N, N) axis.  V~ and V map real arrays to float64 where the config makes
them real (``real_kernel``, from the symmetry of the vector pair and the
shift table), and M and N, asked for a collocation, then return their
k = 0 planes alone, (..., 1, N); this module alone reads that decision,
and the collocation matrices follow the dtype and the shape of the
values.  V~, M and N are one integrable
form, which ``_kernel_planes`` evaluates; their removable diagonals take
cancellation-free forms on |lam - mu| < delta0 = 1e-4 (b - a) only.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from math import asinh, ceil, log, pi
from sys import float_info
from typing import Callable, Optional

import numpy as np

from .quadrature import MIN_SIZE

__all__ = [
    "ConfigError", "NumericError",
    "FunctionSpec", "ShiftSpec", "VectorPairSpec",
    "NumericsConfig", "ToleranceConfig", "ProblemConfig",
    "problem_config_from_json",
    "eval_e", "gsk_vector_pair", "gsk_shift_spec",
    "general_kernel_V",
    "W_factors", "cauchy_rank", "M_kernel", "N_kernel",
    "U_plus_kernel", "U_minus_kernel", "bracket_kernel", "real_kernel",
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


def _rank2(a0, a1, b0, b1):
    """a0 b0 + a1 b1 over the broadcast grid of the lam-side a's and the
    mu-side b's, as one GEMM of inner dimension 2 (einsum's optimize=True
    contracts it so).  The mu side goes first: the GEMM then writes a
    (lam rows, mu columns) grid C-contiguous, the layout of the difference
    lam - mu it is combined with."""
    return np.einsum("...a,...a->...", np.stack([b0, b1], axis=-1),
                     np.stack([a0, a1], axis=-1), optimize=True)


def _row_block(lam, mu, shape) -> bool:
    """lam a (k, 1) column against a row of n points, (n,) or (1, n): the
    (k, n) broadcast ``shape`` of a collocation or interpolant row block."""
    return (len(shape) == 2 and lam.shape == (shape[0], 1)
            and mu.size == shape[1])


def _near_entries(lam, mu, d, delta0: float):
    """Index of the entries |d| < delta0 of the broadcast d = lam - mu.

    When lam is a column and mu a row with sorted real parts (every row
    block of a Gauss rule), each row's candidates are the bisected window
    |Re lam - Re mu| <= 2 delta0, which holds every entry with
    |d| < delta0, rounding included; the exact test then runs on those
    candidates only, and (row, column) arrays in row-major order are
    returned.  Any other shape gets the boolean mask over the full grid.
    """
    if _row_block(lam, mu, d.shape):
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

    # -- evaluation --------------------------------------------------------
    @property
    def _coeffs(self) -> list:
        """A polynomial's coefficients; a constant is the degree-0 one."""
        return self.params.get("coeffs", [self.params.get("value")])

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        if self.kind != "scaled_gaussian_entire":
            return np.polynomial.polynomial.polyval(z, np.asarray(self._coeffs))
        A, mu0, s = (self.params["amplitude"], self.params["center"],
                     self.params["scale"])
        return A * np.exp(-s * (z - mu0) ** 2)

    def deriv(self, z):
        return self.divided_difference(z, z)

    def divided_difference(self, z1, z2):
        """(f(z1) - f(z2)) / (z1 - z2), exact and cancellation-free.

        Well-defined on the diagonal, where it returns f'(z1).
        """
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        if self.kind != "scaled_gaussian_entire":
            # h_k = (z1^k - z2^k)/(z1 - z2) satisfies h_k = z1*h_{k-1} + z2^(k-1)
            h = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
            out = np.zeros_like(h)
            p2 = np.ones_like(h)  # z2^(k-1) running power
            for ck in self._coeffs[1:]:
                h = z1 * h + p2
                p2 = p2 * z2
                out = out + ck * h
            return out
        A, mu0, s = (self.params["amplitude"], self.params["center"],
                     self.params["scale"])
        al, be = z1 - mu0, z2 - mu0
        # sinh(w)/w = sinc(i w)
        return (-A * s * (al + be) * np.exp(-0.5 * s * (al * al + be * be))
                * _sinc(1j * (0.5 * s * (al + be) * (al - be))))

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


# --------------------------------------------------------------------------
# problem configuration
# --------------------------------------------------------------------------

@dataclass
class NumericsConfig:
    n_interval: Optional[int] = None     # None: from x (ProblemConfig.resolved_n)
    m_loop: int = 256
    m_line: int = 128
    h: Optional[float] = None            # None: min(min|c_a|/2, 1)/2
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

    # -- resolved numerics ---------------------------------------------------
    @property
    def delta0(self) -> float:
        return DIAG_SWITCH_FRACTION * (self.b - self.a)

    def _phase_slopes(self) -> np.ndarray:
        """Re p' on 512 equispaced points of [a, b]."""
        return np.real(self.p.deriv(np.linspace(self.a, self.b, 512)))

    def max_phase_slope(self) -> float:
        return float(np.max(self._phase_slopes()))

    def resolved_n(self) -> int:
        """Interval resolution from P = x max p' (b - a)/(2 pi), the number
        of oscillation periods: max(64, min(ceil(8 P), ceil(4 P) + 40)).

        Gauss-Legendre resolves e^{i x p} once the rule has about 2 nodes per
        period, and the Nystrom determinant of an analytic kernel converges
        exponentially beyond that.  Above P = 10 the rule takes 4 nodes per
        period plus 40, so its half rule, which certifies the value, still
        has 2 per period plus 20.  Up to P = 10 it takes 8 per period; the
        branches meet at n = 80, where on [-1, 1] the near-cut threshold
        10 (b - a)/n of the Cauchy sums equals the default h = 0.25, so no
        default loop moves into or out of that zone.
        """
        if self.numerics.n_interval is not None:
            return self.numerics.n_interval
        periods = (self.x * self.max_phase_slope() * (self.b - self.a)
                   / (2.0 * pi))
        return max(64, min(ceil(8.0 * periods), ceil(4.0 * periods) + 40))

    def half_strip(self) -> float:
        """min|c_a|/2: loops and lines stay inside |Im z| < half_strip."""
        return float(np.min(np.abs(self.shift.c))) / 2.0

    def resolved_h(self) -> float:
        """Loop half-height: numerics.h, else half of min(half_strip, 1)."""
        if self.numerics.h is not None:
            return self.numerics.h
        return min(self.half_strip(), 1.0) / 2.0

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
        h, half_strip = self.resolved_h(), self.half_strip()
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
        slopes = self._phase_slopes()
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
    """Canonical two-shift table: gamma = (1, 1), c = (-c, c), v = (1, 2);
    ``ProblemConfig.validate`` checks it, after c > 0."""
    return ShiftSpec(np.ones(2, dtype=complex),
                     np.array([-cfg.c, cfg.c], dtype=float), np.array([1, 2]))


def gsk_vector_pair(cfg: ProblemConfig) -> VectorPairSpec:
    """The N = 2 pair generating the generalized sine kernel.

    E_L = (F/2i pi) (-1/e, e),  E_R = (e, 1/e); the bracket
    <E_L(lam), E_R(mu)> = F(lam) [e(lam)/e(mu) - e(mu)/e(lam)] / (2i pi)
    vanishes identically at mu = lam.  The pair is marked ``real`` (float64
    evaluation on real points, see ``real_kernel``) where F and p are real.
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
                          real=cfg.F.real and cfg.p.real)


def _swap_closed(s: ShiftSpec) -> bool:
    """The table is closed under the swap of the pair's two components."""
    return s.N == 2 and all(
        s.c[1 - k] == -s.c[k] and s.gamma[1 - k] == s.gamma[k].conjugate()
        and s.v0[1 - k] == 1 - s.v0[k] for k in range(2))


def real_kernel(pair: VectorPairSpec,
                shift: Optional[ShiftSpec] = None) -> bool:
    """Whether ``bracket_kernel`` (shift None) or ``general_kernel_V`` with
    ``shift`` evaluates real points of ``pair`` in float64: the one place
    that decision is read from, by the pair's symmetry and never from
    values; every caller sees it only as the dtype of the kernel's values.

    V~ = F(lam) sin(x (p(lam) - p(mu))/2) / (pi (lam - mu)) is real when F
    and p are, which is when ``gsk_vector_pair`` marks its pair ``real``.
    V subtracts the shift terms
    gamma_a E_L,a(lam) E_R,v_a(mu) / (lam - mu + i c_a); on the real axis
    conj E_L,k = E_L,sk and conj E_R,k = E_R,sk, with s the swap of the
    pair's two components, so the conjugate of term a is term s(a) when
    c_s(a) = -c_a, gamma_s(a) = conj gamma_a and v_s(a) = s(v_a)
    (``_swap_closed``).  Then the terms come in conjugate pairs and V is
    real too.
    """
    return pair.real and (shift is None or _swap_closed(shift))


def bracket_kernel(lam, mu, pair: VectorPairSpec, delta0: float):
    """V~(lam, mu) = <E_L(lam), E_R(mu)>/(lam - mu): ``_kernel_planes``'s
    N = 1, s = 0 case, its near-diagonal entries from ``bracket_dd``.  A
    ``real`` pair takes real points in float64: 2 Re(E_L,0(lam) E_R,0(mu))
    as the product of the real factors [2 Re E_L,0, -2 Im E_L,0] and
    [Re E_R,0, Im E_R,0], and the real part of ``bracket_dd``.  Otherwise
    the factors are the complex E_L(lam) and E_R(mu)."""
    lam, mu = np.asarray(lam), np.asarray(mu)
    if real_kernel(pair) and np.isrealobj(lam) and np.isrealobj(mu):
        left, right = pair.E_L(lam)[..., 0], pair.E_R(mu)[..., 0]
        rows = [np.stack([2.0 * left.real, -2.0 * left.imag], axis=-1)]
        cols = [np.stack([right.real, right.imag], axis=-1)]
        part = np.real
    else:
        lam, mu = lam.astype(complex), mu.astype(complex)
        rows, cols, part = [pair.E_L(lam)], [pair.E_R(mu)], np.asarray
    return _kernel_planes(lam, mu, rows, cols, np.zeros((1, 1)), near=(
        delta0, lambda k, l, x, y: part(pair.bracket_dd(x, y))))[..., 0, 0]


def general_kernel_V(lam, mu, pair: VectorPairSpec, shift: ShiftSpec,
                     delta0: float):
    """V(lam,mu) = <E_L(lam),E_R(mu)>/(lam-mu) - sum_a gamma_a f_a(lam) e_{v_a}(mu)/(lam-mu+ic_a).

    Only the lam = mu singularity of the leading term is removable (via the
    regularity condition); the shifted denominators must stay away from
    their poles.  Where ``real_kernel(pair, shift)`` holds (a ``real`` pair
    and a table closed under the swap of its components), real points are
    evaluated in float64 (``_real_V``).
    """
    if real_kernel(pair, shift) and np.isrealobj(lam) and np.isrealobj(mu):
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
    pair's components (``real_kernel``): shift 1 is the conjugate of
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


def _kernel_planes(lam, mu, rows, cols, s, e=None, near=None):
    """(e_kl + sum_r rows[k]_r cols[l]_r) / (lam - mu + i s_kl), (..., K, N),
    from K factors rows[k] (..., r) on lam's side and N factors cols[l] on
    mu's; e None is 0.  Each (k, l) plane is formed contiguously (one GEMM
    for a ``_row_block``) in a plane-major (K, N, ...) buffer whose view is
    returned: no ufunc loops over length-N trailing axes.  The planes are
    float64 when the points, factors and e are real and every s_kl is 0.
    Where a point is off the real axis, a vanishing denominator of an
    s_kl != 0 plane raises ValueError (a loop outside |Im z| < min|c_l|/2).

    ``near = (delta0, values)`` removes the diagonal of the s_kl = 0
    planes: their entries |lam - mu| < delta0 (``_near_entries``) are
    divided by 1, then written with ``values(k, l, lam_near, mu_near)``
    (1-D, those entries only), so no 0/0 is formed.  A complex value for
    a float64 plane raises NumericError, never cut to its real part."""
    K, N, lam, mu = len(rows), len(cols), np.asarray(lam), np.asarray(mu)
    cplx = np.any(s) or any(map(np.iscomplexobj, (lam, mu, e, *rows, *cols)))
    off_axis = np.any(np.imag(lam)) or np.any(np.imag(mu))
    shape, dtype = np.broadcast(lam, mu).shape, complex if cplx else float
    # den first for a matrix kernel (freed, its memory and buf's join into
    # one hole that the LAPACK copy of the collocation matrix fits in), last
    # for a scalar one (first: 12,000 page faults per n = 1019 V, not 7,500)
    den = np.empty(shape, dtype) if N > 1 else None
    buf = np.empty((K, N) + shape, dtype)
    den = np.empty(shape, dtype) if den is None else den
    outer = _row_block(lam, mu, shape)
    s_den = None                  # consecutive planes of equal s share den
    for l, k in np.ndindex(N, K):
        if s[k, l] != s_den:
            s_den = s[k, l]
            np.subtract(lam, mu - 1j * s_den if s_den else mu, out=den)
            if s_den and off_axis and np.min(np.abs(den)) < 1e-10:
                raise ValueError("loop kernel denominator vanished: contour "
                                 "violates the strip |Im z| < min|c_l|/2")
            if near is not None and not s_den:
                idx = _near_entries(lam, mu, den, near[0])
                den[idx] = 1.0
                at = [np.broadcast_to(z, shape)[idx] for z in (lam, mu)]
        plane = buf[k, l, ...]
        if outer:
            np.matmul(rows[k][:, 0], cols[l].reshape(mu.size, -1).T, out=plane)
        else:
            np.sum(rows[k] * cols[l], axis=-1, out=plane)
        if e is not None and e[k, l]:
            plane += e[k, l]
        np.divide(plane, den, out=plane)
        if near is not None and not s_den and at[0].size:
            vals = near[1](k, l, *at)
            if not cplx and np.iscomplexobj(vals):
                raise NumericError("complex near values in a real kernel")
            plane[idx] = vals
    return np.moveaxis(buf, (0, 1), (-2, -1))


def _row_components(chi, shift: ShiftSpec, collocation: bool) -> int:
    """How many row components k a loop or line kernel evaluates: all N,
    or only k = 0 for a ``collocation`` where ``real_kernel(chi.pair,
    shift)`` holds.

    The collocation matrix A of M on a loop rule, or of N on the line,
    then obeys conj(A) = Q A Q, with Q = sigma (x) s: sigma the rule's
    node conjugation (the reversal on the loop, the identity on the line)
    and s the swap of the two components.  On the real axis
    conj chi(z) = S chi(conj z) S with S the swap, the table is closed
    under s, and conjugation flips the sign of 1/(2 i pi) while the loop's
    weights go to -conj(w) (on the line sgn(c_s(k)) = -sgn(c_k) does it).
    So the k = 0 planes fix A, and ``determinants.assemble_collocation``
    builds from them the real B = Re A - Im(QA), which is similar to A.
    """
    return 1 if collocation and real_kernel(chi.pair, shift) else shift.N


def M_kernel(lam, mu, chi, shift: ShiftSpec, collocation: bool = False):
    """Loop-representation matrix kernel.

    M_{k,l}(lam,mu) = gamma_k [chi^{-1}(lam) chi(mu - i c_l)]_{v_k, l}
                      / (2 i pi (lam - mu + i c_l)),
    for lam, mu on a loop inside the strip |Im z| < min|c_l|/2.  A
    ``collocation`` gets only the row components ``_row_components``
    names: (..., 1, N) where the config is real.
    """
    v0 = shift.v0[:_row_components(chi, shift, collocation)]
    Ainv = chi.chi_inv_at(lam)[..., v0, :]              # (..., k, r)
    rows = [g / (2j * pi) * Ainv[..., k, :]
            for k, g in enumerate(shift.gamma[:v0.size])]
    cols = [chi.chi_at(mu - 1j * c)[..., :, l] for l, c in enumerate(shift.c)]
    s = np.broadcast_to(shift.c, (shift.N, shift.N))      # s_kl = c_l
    return _kernel_planes(lam, mu, rows, cols, s)


def N_kernel(lam, mu, chi, shift: ShiftSpec, delta0: float,
             collocation: bool = False):
    """Line-representation matrix kernel on the real axis.

    N_{k,l}(lam,mu) = sgn(c_k) gamma_k [I - chi^{-1}(lam + i c_k/2) chi(mu - i c_l/2)]_{v_k, l}
                      / (2 i pi (lam - mu + i (c_k + c_l)/2)).

    For compensated pairs c_k + c_l = 0 the denominator vanishes on the
    diagonal; there the entry is the exact divided difference
    sgn(c_k) gamma_k [chi^{-1}(z) dchi(z, z')]_{v_k, l} / (2 i pi) with
    z = lam + i c_k/2, z' = mu - i c_l/2 on the same horizontal line.  A
    ``collocation`` gets only the row components ``_row_components``
    names: (..., 1, N) where the config is real.
    """
    pref = np.sign(shift.c) * shift.gamma / (2j * pi)
    # pref_k (I - A B) = pref_k I + (-pref_k A) B
    rows = [-pref[k] * chi.chi_inv_at(lam + 0.5j * c)[..., shift.v0[k], :]
            for k, c in enumerate(
                shift.c[:_row_components(chi, shift, collocation)])]
    cols = [chi.chi_at(mu - 0.5j * c)[..., :, l] for l, c in enumerate(shift.c)]
    e = pref[:, None] * (shift.v0[:, None] == np.arange(shift.N))
    csum = 0.5 * (shift.c[:, None] + shift.c[None, :])

    def divided(k, l, lam, mu):
        # [I - chi^-1(z) chi(z')]/(z - z') == chi^-1(z) * dchi(z, z')
        z, zp = lam + 0.5j * shift.c[k], mu - 0.5j * shift.c[l]
        dchi = chi.delta_chi(z, zp)                        # (M, N, N)
        return pref[k] * np.matmul(chi.chi_inv_at(z), dchi)[:, shift.v0[k], l]

    return _kernel_planes(lam, mu, rows, cols, csum, e, near=(delta0, divided))


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
