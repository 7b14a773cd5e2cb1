import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from shiftdet.quadrature import (MIN_SIZE, QuadratureRule,
                                 compactified_line_rule,
                                 gauss_legendre_rule, stadium_loop_rule,
                                 truncated_line_rule, _gl01, _legendre_gauss)

from helpers import integrate, winding_number


def _mp_legendre_root(n, i):
    """The i-th smallest root of P_n and its Gauss weight, to 40 digits.

    Newton on the three-term recurrence in mpmath, started from the
    classical guess cos(pi (4k - 1) / (4n + 2)) for the k-th largest root,
    so the reference does not depend on the float64 rule under test.
    """
    with mpmath.workdps(40):
        k = n - i
        x = mpmath.cos(mpmath.pi * (4 * k - 1) / (4 * n + 2))
        for _ in range(50):
            p0, p1 = mpmath.mpf(1), x
            for j in range(1, n):
                p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
            dp = n * (p0 - x * p1) / (1 - x * x)
            dx = p1 / dp
            x -= dx
            if abs(dx) < mpmath.mpf(10) ** -35:
                break
        return x, 2 / ((1 - x * x) * dp * dp)


class TestGaussLegendre:
    def test_two_point_rule(self):
        r = gauss_legendre_rule(2, -1.0, 1.0)
        np.testing.assert_allclose(sorted(r.nodes.real),
                                   [-1 / np.sqrt(3), 1 / np.sqrt(3)],
                                   atol=1e-15)
        np.testing.assert_allclose(r.weights.real, [1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_weights_sum_to_length(self, n):
        r = gauss_legendre_rule(n, 0.0, 1.0)
        assert abs(np.sum(r.weights) - 1.0) < 1e-14
        r = gauss_legendre_rule(n, -2.5, 7.0)
        assert abs(np.sum(r.weights) - 9.5) / 9.5 < 1e-13

    def test_exponential(self):
        r = gauss_legendre_rule(16, -1.0, 1.0)
        val = integrate(r, np.exp)
        assert abs(val - (np.e - 1 / np.e)) < 1e-14

    @pytest.mark.parametrize("deg", [0, 1, 3, 7, 15])
    def test_monomial_exactness(self, deg):
        n = deg // 2 + 1
        r = gauss_legendre_rule(max(n, 2), 0.0, 1.0)
        assert abs(integrate(r, lambda z: z ** deg) - 1.0 / (deg + 1)) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=9),
           st.floats(-2, 0), st.floats(0.5, 3))
    def test_polynomial_exactness_property(self, coeffs, a, b):
        # degree <= 2n-1 is integrated exactly
        n = max(2, (len(coeffs) + 1) // 2 + 1)
        r = gauss_legendre_rule(n, a, b)
        got = integrate(r, lambda z: P.polyval(z, coeffs))
        anti = P.polyint(coeffs)
        want = P.polyval(b, anti) - P.polyval(a, anti)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    @pytest.mark.parametrize("bad", [(1, 0, 1), (0, 0, 1), (4, 1.0, 1.0),
                                     (4, 2.0, -1.0)])
    def test_invalid_arguments(self, bad):
        n, a, b = bad
        with pytest.raises(ValueError):
            gauss_legendre_rule(n, a, b)

    def test_with_size_and_half(self):
        r = gauss_legendre_rule(32, -1.0, 2.0)
        r2 = r.with_size(64)
        assert r2.size == 64 and r2.domain_kind == "interval"
        assert abs(np.sum(r2.weights) - 3.0) < 1e-13
        assert r.half().size == 16
        assert gauss_legendre_rule(3, 0, 1).half().size == 2  # floor at 2

    def test_rule_cache_is_bit_stable(self):
        first = gauss_legendre_rule(101, -1.0, 2.0)
        second = gauss_legendre_rule(101, -1.0, 2.0)
        assert np.array_equal(first.nodes, second.nodes)
        assert np.array_equal(first.weights, second.weights)

    @pytest.mark.parametrize("n", [2, 7, 64, 166, 1019, 2038])
    def test_rule_matches_mpmath_reference(self, n):
        # endpoint, next-to-endpoint, quarter and middle nodes against the
        # roots of P_n and their weights found at 40 digits; the weights
        # must also be no worse there than numpy's eigenvalue-based rule
        x, w = _legendre_gauss(n)
        x_eig, w_eig = np.polynomial.legendre.leggauss(n)
        assert np.all(np.diff(x) > 0)
        node_err, weight_err, eig_weight_err = [], [], []
        for i in sorted({0, 1, n // 4, n // 2}):
            root, weight = _mp_legendre_root(n, i)
            node_err.append(abs(float(root - x[i])))
            weight_err.append(abs(float((weight - w[i]) / weight)))
            eig_weight_err.append(abs(float((weight - w_eig[i]) / weight)))
        assert max(node_err) <= 2.3e-16
        assert max(weight_err) <= 1e-9
        assert max(weight_err) <= max(eig_weight_err)

    def test_unit_interval_rule_is_the_mapped_base_rule(self):
        x, w = _legendre_gauss(77)
        t, wt = _gl01(77)
        assert np.array_equal(t, (x + 1.0) / 2.0)
        assert np.array_equal(wt, w / 2.0)
        assert abs(np.sum(w) - 2.0) < 1e-15

    def test_cached_base_rule_is_read_only(self):
        t, w = _gl01(40)
        assert _gl01(40)[0] is t
        for arr in (t, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestStadiumLoop:
    def test_closed_contour(self):
        r = stadium_loop_rule(-1.0, 1.0, 0.25, 256)
        assert abs(np.sum(r.weights)) < 1e-12

    @pytest.mark.parametrize("m", [256, 128, 92, 8])
    def test_closed_under_conjugation_bit_for_bit(self, m):
        # the upper half is the lower one conjugated in reverse order
        a, b = -1.0, 1.0
        r = stadium_loop_rule(a, b, 0.25, m)
        assert np.array_equal(r.nodes[::-1], r.nodes.conj())
        assert np.array_equal(r.weights[::-1], -r.weights.conj())
        # the weights cancel exactly; np.sum's pairwise rounding of them
        # can still leave an ulp
        assert math.fsum(r.weights.real) == math.fsum(r.weights.imag) == 0.0
        # both semicircles have an even node count, so none sits on the axis
        for arc in (r.nodes.real < a, r.nodes.real > b):
            assert np.count_nonzero(arc) % 2 == 0
        assert np.all(r.nodes.imag)

    @pytest.mark.parametrize("m,m_arc,panel", [(256, 36, 46), (128, 18, 23)])
    def test_nodes_are_each_pieces_gauss_nodes(self, m, m_arc, panel):
        # the shipped loops: two Gauss-Legendre panels on each segment and
        # one on each semicircle, rebuilt here from numpy's rule
        a, b, h = -1.0, 1.0, 0.25
        r = stadium_loop_rule(a, b, h, m)
        x, _ = np.polynomial.legendre.leggauss(panel)
        bottom = np.concatenate([(x - 1.0) / 2.0, (x + 1.0) / 2.0]) - 1j * h
        theta = np.pi / 2.0 * np.polynomial.legendre.leggauss(m_arc)[0]
        arcs = np.concatenate([b + h * np.exp(1j * theta),
                               a - h * np.exp(1j * theta)])
        want = np.concatenate([bottom, bottom.conj(), arcs])
        assert want.size == m
        # match each node to its nearest rebuilt one: a conjugate pair
        # shares its real part, so under a lexicographic sort an ulp in a
        # rebuilt real part could swap the pair
        dist = np.abs(r.nodes[:, None] - want[None, :])
        nearest = np.argmin(dist, axis=1)
        assert np.array_equal(np.sort(nearest), np.arange(m))
        assert np.max(dist[np.arange(m), nearest]) <= 1e-15

    def test_only_the_loop_carries_a_conjugation(self):
        loop = stadium_loop_rule(-1.0, 1.0, 0.25, 64).half()
        every = np.arange(loop.size)
        assert np.array_equal(every[loop.conjugation], every[::-1])
        for rule in (gauss_legendre_rule(16, -1.0, 1.0),
                     compactified_line_rule(32, 1.0),
                     truncated_line_rule(32, 10.0)):
            every = np.arange(rule.size)
            assert np.array_equal(every[rule.conjugation], every)
            assert not np.any(rule.nodes.imag) and not np.any(rule.weights.imag)

    def test_total_arc_length(self):
        a, b, h = -1.0, 1.0, 0.25
        r = stadium_loop_rule(a, b, h, 128)
        perimeter = 2 * (b - a) + 2 * np.pi * h
        assert abs(np.sum(np.abs(r.weights)) - perimeter) < 1e-12

    @pytest.mark.parametrize("m,tol", [(64, 1e-8), (256, 1e-10)])
    def test_residue_at_midpoint(self, m, tol):
        r = stadium_loop_rule(-1.0, 1.0, 0.25, m)
        w = np.sum(r.weights / (r.nodes - 0.0)) / (2j * np.pi)
        assert abs(w - 1.0) < tol

    def test_poles_outside(self):
        # (1/2i pi) loop integral of z/(z^2 - 100): both poles outside
        r = stadium_loop_rule(-1.0, 1.0, 0.25, 256)
        val = np.sum(r.weights * r.nodes / (r.nodes ** 2 - 100.0)) / (2j * np.pi)
        assert abs(val) < 1e-10

    def test_cauchy_formula_entire(self):
        r = stadium_loop_rule(-1.0, 1.0, 0.25, 256)
        z0 = 0.2 - 0.1j
        val = np.sum(r.weights * np.exp(r.nodes) / (r.nodes - z0)) / (2j * np.pi)
        assert abs(val - np.exp(z0)) < 1e-10

    def test_winding_probes(self):
        a, b, h, margin = -1.0, 1.0, 0.25, 0.05
        r = stadium_loop_rule(a, b, h, 256)
        rng = np.random.default_rng(11)

        def seg_dist(z):
            return abs(z - complex(np.clip(z.real, a, b), 0.0))

        inside, outside = [], []
        while len(inside) < 20 or len(outside) < 20:
            z = complex(rng.uniform(a - 1, b + 1), rng.uniform(-1, 1))
            d = seg_dist(z)
            if d < h - margin and len(inside) < 20:
                inside.append(z)
            elif d > h + margin and len(outside) < 20:
                outside.append(z)
        for z in inside:
            w = winding_number(r, z)
            assert round(w) == 1 and abs(w - 1.0) < 1e-3
        for z in outside:
            w = winding_number(r, z)
            assert round(w) == 0 and abs(w) < 1e-3

    def test_doubling_is_geometric(self):
        # successive refinement changes shrink by >= 100x (analytic integrand)
        vals = []
        for m in (64, 128, 256):
            r = stadium_loop_rule(-1.0, 1.0, 0.25, m)
            vals.append(np.sum(r.weights * np.exp(r.nodes) / (r.nodes - 0.1)))
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 <= max(1e-2 * d1, 5e-15 * abs(vals[2]))

    @pytest.mark.parametrize("args", [(-1, 1, 0.0, 64), (-1, 1, -0.1, 64),
                                      (-1, 1, 0.25, 6), (-1, 1, 0.25, 65),
                                      (1, -1, 0.25, 64)])
    def test_invalid_arguments(self, args):
        with pytest.raises(ValueError):
            stadium_loop_rule(*args)

    def test_half_keeps_geometry(self):
        r = stadium_loop_rule(-1.0, 1.0, 0.25, 256)
        rh = r.half()
        assert rh.size == 128 and rh.descriptor["h"] == 0.25
        assert abs(np.sum(rh.weights)) < 1e-12


class TestLineRules:
    def test_lorentzian(self):
        r = compactified_line_rule(200, 1.0)
        val = np.sum(r.weights / (1.0 + r.nodes ** 2))
        assert abs(val - np.pi) < 1e-10

    def test_odd_integrand_vanishes(self):
        r = compactified_line_rule(64, 1.0)
        val = np.sum(r.weights * r.nodes / (1.0 + r.nodes ** 2) ** 2)
        assert abs(val) < 1e-13

    def test_scaled_lorentzian(self):
        r = compactified_line_rule(200, 2.0)
        val = np.sum(r.weights / (4.0 + r.nodes ** 2))
        assert abs(val - np.pi / 2) < 1e-8

    def test_node_symmetry(self):
        r = compactified_line_rule(64, 1.5)
        np.testing.assert_allclose(r.nodes.real + r.nodes.real[::-1], 0.0,
                                   atol=1e-12)
        np.testing.assert_allclose(r.weights.real, r.weights.real[::-1],
                                   rtol=1e-13)

    def test_doubling_is_geometric(self):
        vals = []
        for m in (64, 128, 256):
            r = compactified_line_rule(m, 1.0)
            vals.append(np.sum(r.weights / (1.0 + r.nodes ** 2)))
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 <= max(1e-2 * d1, 5e-15 * abs(vals[2]))

    def test_truncated_cross_check(self):
        # both rules integrate sech^2 to 2*tanh(T) ~ 2
        rt = truncated_line_rule(400, 30.0)
        rc = compactified_line_rule(128, 1.0)
        f = lambda z: 1.0 / np.cosh(z) ** 2
        vt = np.sum(rt.weights * f(rt.nodes))
        vc = np.sum(rc.weights * f(rc.nodes))
        assert abs(vt - 2.0) < 1e-10
        assert abs(vc - vt) < 1e-10

    @pytest.mark.parametrize("m", [2, 8, 15])
    def test_too_few_nodes(self, m):
        with pytest.raises(ValueError):
            compactified_line_rule(m, 1.0)

    def test_with_size_preserves_map(self):
        rc = compactified_line_rule(64, 2.0).with_size(128)
        assert rc.descriptor["map"] == "tan" and rc.size == 128
        rt = truncated_line_rule(64, 25.0).half()
        assert rt.descriptor["map"] == "truncated"
        assert rt.descriptor["half_length"] == 25.0


class TestRuleContainer:
    @pytest.mark.parametrize("kind,build", [
        ("interval", lambda n: gauss_legendre_rule(n, -1.0, 1.0)),
        ("loop", lambda m: stadium_loop_rule(-1.0, 1.0, 0.25, m)),
        ("line", lambda m: compactified_line_rule(m, 1.0)),
        ("line", lambda m: truncated_line_rule(m, 100.0)),
    ])
    def test_constructors_stop_at_the_floor(self, kind, build):
        floor = MIN_SIZE[kind]
        assert build(floor).size == floor
        with pytest.raises(ValueError, match=f">= {floor} "):
            build(floor - 2 if kind == "loop" else floor - 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.zeros(3), weights=np.zeros(2),
                           domain_kind="interval", descriptor={})

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 40))
    def test_interval_weights_positive(self, n):
        r = gauss_legendre_rule(n, -1.0, 1.0)
        assert np.all(r.weights.real > 0)
        assert np.all(np.abs(r.weights.imag) == 0)
