"""Quadrature rules on intervals, stadium loops, and the compactified real line.

Every rule is a flat list of complex nodes and complex weights; contour
weights already contain the parameterization derivative dz/dt, so that

    sum_j w_j f(z_j)  ~  integral of f over the domain.

The stadium loop is the closed counterclockwise contour made of the two
segments [a,b] shifted to -ih and +ih, joined by semicircles of radius h
about the endpoints.  Each of the four pieces is smooth, so a Gauss-Legendre
panel per piece converges geometrically for integrands analytic in a
neighborhood of the contour.

The line rule compactifies the real axis by z = L*tan(theta) on a uniform
open midpoint grid in (-pi/2, pi/2); integrands decaying like O(1/z^2) with
some analyticity at infinity are integrated with spectral accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import pi
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_legendre_rule",
    "stadium_loop_rule",
    "compactified_line_rule",
    "truncated_line_rule",
    "winding_number",
]

# smallest rule of each domain kind; ``QuadratureRule.half`` never goes below
MIN_SIZE = {"interval": 2, "loop": 8, "line": 16}


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes, weights, and the parameters that generated them.

    Attributes
    ----------
    nodes : ndarray of complex
        Evaluation points, ordered along the domain.
    weights : ndarray of complex
        Quadrature weights, including any dz/dt factor for contour rules.
    domain_kind : str
        One of ``interval``, ``loop``, ``line``.
    descriptor : dict
        Generating parameters, sufficient to rebuild the rule at another
        resolution (used by the automatic half-resolution reruns).
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain_kind: str
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.nodes) != len(self.weights) or len(self.nodes) < 2:
            raise ValueError("nodes and weights must have equal length >= 2")

    @property
    def size(self) -> int:
        return len(self.nodes)

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> complex:
        """Apply the rule to a vectorized integrand."""
        return complex(np.sum(self.weights * f(self.nodes)))

    def with_size(self, size: int) -> "QuadratureRule":
        """Rebuild the same domain at a different resolution."""
        d = self.descriptor
        if self.domain_kind == "interval":
            return gauss_legendre_rule(size, d["a"], d["b"])
        if self.domain_kind == "loop":
            return stadium_loop_rule(d["a"], d["b"], d["h"], size)
        if d.get("map") == "truncated":
            return truncated_line_rule(size, d["half_length"])
        return compactified_line_rule(size, d["map_scale"])

    def half(self) -> "QuadratureRule":
        """The rule at half resolution, respecting each kind's size floor.

        At the floor itself this is a rule of the same size; callers that
        compare against it must reject such a rule (``nystrom_det`` does).
        """
        m = max(MIN_SIZE[self.domain_kind], self.size // 2)
        if self.domain_kind == "loop":
            m += m % 2
        return self.with_size(m)


def _legendre_gauss(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton iteration on P_n, evaluated by the three-term recurrence, from
    Tricomi's asymptotic guesses for the ceil(n/2) nonnegative nodes; the
    rest are their mirror images.  O(n^2) flops in O(n) vector operations,
    against the O(n^3) eigensolve of ``numpy.polynomial.legendre.leggauss``.

    The weights are 2 / ((1 - x^2) P_n'(x)^2).  Near +-1 that formula is
    sensitive to the node's last bit (d ln w / dx = -2x / (1 - x^2)), so it
    is moved from the rounded node to the exact root by the final Newton
    step dx: w *= 1 + 2 x dx / (1 - x^2).  Finally the weights are scaled to
    sum to 2 exactly, as ``leggauss`` does.
    """
    m = (n + 1) // 2
    theta = (4 * np.arange(m, 0, -1) - 1) * (pi / (4 * n + 2))
    x = (1.0 - (n - 1) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n ** 4)) * np.cos(theta)
    if n % 2:
        x[0] = 0.0          # P_n(0) = 0 holds exactly in the recurrence too
    p0, p1, nxt = np.empty((3, m))
    for _ in range(8):
        p0.fill(1.0)
        p1[:] = x
        for j in range(1, n):
            # P_{j+1} = ((2j+1) x P_j - j P_{j-1}) / (j+1)
            np.multiply(x, p1, out=nxt)
            nxt *= (2 * j + 1) / (j + 1)
            p0 *= j / (j + 1)
            nxt -= p0
            p0, p1, nxt = p1, nxt, p0
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / one_minus_x2       # P_n'(x)
        dx = p1 / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-14:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre Newton iteration did not converge "
                           f"at n={n}")
    w = 2.0 / (one_minus_x2 * dp * dp) * (1.0 + 2.0 * x * dx / one_minus_x2)
    x = np.concatenate([-x[::-1], x[n % 2:]])
    w = np.concatenate([w[::-1], w[n % 2:]])
    w *= 2.0 / w.sum()
    return x, w


@lru_cache(maxsize=64)
def _gl01(n: int):
    """Gauss-Legendre nodes/weights on [0, 1], built once per size.

    The arrays are shared between callers and therefore read-only.
    """
    x, w = _legendre_gauss(n)
    t, w = (x + 1.0) / 2.0, w / 2.0
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def gauss_legendre_rule(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with n points on the real interval [a, b].

    Exact for polynomials of degree <= 2n-1.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 interval nodes, got {n}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    t, w = _gl01(n)
    return QuadratureRule(
        nodes=a + (b - a) * t,
        weights=(b - a) * w,
        domain_kind="interval",
        descriptor={"a": a, "b": b, "n": n},
    )


def stadium_loop_rule(a: float, b: float, h: float, m: int) -> QuadratureRule:
    """Counterclockwise stadium of half-height h around [a, b], m nodes total.

    Piece order along the contour: bottom segment (a -> b at -ih), right
    semicircle, top segment (b -> a at +ih), left semicircle.  Each straight
    segment is two Gauss-Legendre panels split at the interval midpoint:
    a pole hovering near the middle of [a, b] then sits over a panel edge,
    where a panel's comfort zone is widest, instead of over its center.
    The top piece is the mirror image of the bottom one with negated
    weights, so sum(weights) cancels identically; likewise for the arcs.
    """
    if h <= 0:
        raise ValueError(f"need h > 0, got {h}")
    if m < 8 or m % 2:
        raise ValueError(f"need even m >= 8 loop nodes, got {m}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    seg = b - a
    arc = pi * h
    m_half = m // 2
    m_arc = max(2, int(round(m_half * arc / (seg + arc))))
    if arc < seg:
        # flat stadium: a pole at distance h over a straight panel is the
        # accuracy bottleneck, and ~13 panel nodes buy 1e-8 there; let the
        # arcs grow only once that budget is covered
        m_arc = min(m_arc, max(2, m_half - 26))
    m_seg = m_half - m_arc
    if m_seg < 2:
        m_seg, m_arc = 2, m_half - 2
    k1 = m_seg // 2
    k2 = m_seg - k1
    mid = 0.5 * (a + b)
    t1, w1 = _gl01(k1)
    t2, w2 = _gl01(k2)
    bot_nodes = np.concatenate([a + (mid - a) * t1, mid + (b - mid) * t2])
    bot_w = np.concatenate([(mid - a) * w1, (b - mid) * w2])
    t_a, w_a = _gl01(m_arc)
    th_r = -pi / 2 + pi * t_a
    th_l = pi / 2 + pi * t_a
    nodes = np.concatenate([
        bot_nodes - 1j * h,
        b + h * np.exp(1j * th_r),
        (a + b) - bot_nodes + 1j * h,
        a + h * np.exp(1j * th_l),
    ])
    weights = np.concatenate([
        bot_w + 0j,
        1j * h * pi * w_a * np.exp(1j * th_r),
        -bot_w + 0j,
        1j * h * pi * w_a * np.exp(1j * th_l),
    ])
    return QuadratureRule(nodes, weights, "loop",
                          {"a": a, "b": b, "h": h, "m": m})


def compactified_line_rule(m: int, map_scale: float) -> QuadratureRule:
    """Rule for integrals over the whole real axis via z = L*tan(theta).

    A uniform open midpoint grid in theta; the transplanted integrand of an
    O(1/z^2)-decaying function analytic at infinity is periodic and smooth,
    so the midpoint rule converges spectrally in m.
    """
    if m < 16:
        raise ValueError(f"need m >= 16 line nodes, got {m}")
    if map_scale <= 0:
        raise ValueError(f"need map_scale > 0, got {map_scale}")
    theta = -pi / 2 + (np.arange(m) + 0.5) * (pi / m)
    nodes = map_scale * np.tan(theta)
    weights = map_scale * (pi / m) / np.cos(theta) ** 2
    return QuadratureRule(nodes + 0j, weights + 0j, "line",
                          {"m": m, "map_scale": map_scale, "map": "tan"})


def truncated_line_rule(m: int, half_length: float) -> QuadratureRule:
    """Gauss-Legendre on [-T, T] as a cross-check for the compactified rule.

    Carries an O(1/T) truncation error for slowly decaying kernels; kept
    behind a config switch, never the default.
    """
    if m < 16:
        raise ValueError(f"need m >= 16 line nodes, got {m}")
    if half_length <= 0:
        raise ValueError(f"need half_length > 0, got {half_length}")
    t, w = _gl01(m)
    return QuadratureRule(
        nodes=-half_length + 2 * half_length * t + 0j,
        weights=2 * half_length * w + 0j,
        domain_kind="line",
        descriptor={"m": m, "half_length": half_length, "map": "truncated"},
    )


def winding_number(rule: QuadratureRule, z0: complex) -> float:
    """(1/2*pi*i) * contour integral of dz/(z - z0), as a real number."""
    val = np.sum(rule.weights / (rule.nodes - z0)) / (2j * pi)
    return float(val.real)
