import warnings
from dataclasses import replace

import numpy as np
import pytest

from shiftdet import rhp
from shiftdet.determinants import assemble_collocation
from shiftdet.experiments import _line_rule, _loop_rule
from shiftdet.kernels import NumericError, cauchy_rank, gsk_vector_pair
from shiftdet.quadrature import gauss_legendre_rule
from shiftdet.rhp import (NearIntervalWarning, jump_residual_chi, make_alpha,
                          solve_chi)

from helpers import (_chi_densities, constant, direct_alpha, direct_chi,
                     direct_delta_chi, equation_residuals, gauss_sum, gridded,
                     transposed_jump_residual, with_n)


class TestResolventSolve:
    def test_trivial_amplitude_is_identity(self, trivial_cfg, trivial_chi):
        pair = gsk_vector_pair(trivial_cfg)
        lam = trivial_chi.rule.nodes
        np.testing.assert_allclose(trivial_chi.FL_nodes, pair.E_L(lam),
                                   atol=1e-14)
        np.testing.assert_allclose(trivial_chi.FR_nodes, pair.E_R(lam),
                                   atol=1e-14)
        assert abs(trivial_chi.det_tilde - 1.0) < 1e-13
        for z in (0.3 + 0.4j, -2.0 + 0.1j, 5.0j):
            np.testing.assert_allclose(trivial_chi.chi_at(z), np.eye(2),
                                       atol=1e-13)

    def test_equation_residuals_small(self, standard_chi):
        r_fl, r_fr = equation_residuals(standard_chi)
        assert r_fl < 1e-9 and r_fr < 1e-9

    def test_nystrom_interpolation_reproduces_nodes(self, standard_chi):
        lam = standard_chi.rule.nodes[5:10]
        np.testing.assert_allclose(standard_chi.FL_at(lam),
                                   standard_chi.FL_nodes[5:10], rtol=1e-12,
                                   atol=1e-12)
        np.testing.assert_allclose(standard_chi.FR_at(lam),
                                   standard_chi.FR_nodes[5:10], rtol=1e-12,
                                   atol=1e-12)

    def test_det_tilde_resolution_independent(self, standard_cfg,
                                              standard_chi):
        fine = solve_chi(with_n(standard_cfg, 2 * standard_cfg.resolved_n()))
        rel = abs(fine.det_tilde - standard_chi.det_tilde)
        assert rel / abs(fine.det_tilde) < 1e-10

    def test_solver_failure_is_numeric_error(self, standard_cfg):
        from dataclasses import replace
        bad = replace(standard_cfg, F=constant(-1.0 + 1e-18))
        with pytest.raises(NumericError):
            solve_chi(bad)


@pytest.fixture(scope="module", params=["standard", "general"])
def chi_1019(request, standard_cfg, general_cfg):
    cfg = {"standard": standard_cfg, "general": general_cfg}[request.param]
    return solve_chi(with_n(cfg, 1019))


class TestOneMatrixSolve:
    """solve_chi solves both equations and takes det(I + V~) on one matrix."""

    def test_transposed_right_solve_matches_direct(self, chi_1019):
        # the right equation solved directly on I + B, B = V~^T diag(w)
        rule = chi_1019.rule
        lam = rule.nodes
        K = chi_1019.kernel(lam, lam).values()
        B = K.T * rule.weights[None, :]
        FR = np.linalg.solve(np.eye(rule.size) + B, chi_1019.pair.E_R(lam))
        err = np.max(np.abs(chi_1019.FR_nodes - FR)) / np.max(np.abs(FR))
        assert err < 1e-13

    def test_left_solve_and_determinant_use_the_same_matrix(self, chi_1019):
        # V~ is real on both configs, so the factored D is float64: the
        # real part of I + V~ diag(w), assembled in row blocks, and E_L's
        # real and imaginary parts are solved as columns
        rule = chi_1019.rule
        lam = rule.nodes
        D = assemble_collocation(chi_1019.kernel, rule)
        K = chi_1019.kernel(lam, lam).values()
        assert D.dtype == np.float64
        assert np.max(np.abs(D - np.eye(rule.size) - K.real * rule.weights)) < 1e-15
        FL = np.linalg.solve(D, chi_1019.pair.E_L(lam).view(float))
        assert np.array_equal(chi_1019.FL_nodes, FL.view(complex))
        # det D factored as det D^T, Fortran-ordered
        assert chi_1019.det_tilde == complex(np.linalg.det(D.T))

    def test_FL_at_the_nodes_is_FL_nodes(self, chi_1019):
        nodes = chi_1019.rule.nodes
        assert np.array_equal(chi_1019.FL_at(nodes), chi_1019.FL_nodes)
        column = chi_1019.FL_at(nodes[:, None])          # as W_kernel asks
        assert column.shape == (nodes.size, 1, chi_1019.N)
        assert np.array_equal(column[:, 0, :], chi_1019.FL_nodes)
        # a copy: the solution itself cannot be changed through it
        column[...] = 0.0
        assert np.any(chi_1019.FL_nodes != 0.0)

    def test_FL_at_other_points_is_the_nystrom_interpolant(self, chi_1019):
        rule = chi_1019.rule
        pts = [rule.nodes[::-1],                          # reordered nodes
               rule.nodes[:-1],                           # a subset
               0.5 * (rule.nodes[1:] + rule.nodes[:-1]),  # off the nodes
               rule.half().nodes[:, None]]                # W's half rerun
        wF = rule.weights[:, None] * chi_1019.FL_nodes
        for lam in pts:
            flat = lam.reshape(-1)
            # V~ is real on both configs: K is float64 at real points, and
            # w F goes through it as real and imaginary columns
            K = chi_1019.kernel(flat, rule.nodes).values()
            assert K.dtype == np.float64
            want = chi_1019.pair.E_L(flat) - (K @ wF.view(float)).view(complex)
            assert np.array_equal(chi_1019.FL_at(lam),
                                  want.reshape(lam.shape + (-1,)))

    def test_exactly_singular_system_is_numeric_error(self, standard_cfg,
                                                      monkeypatch):
        # V~ = -diag(1/w) on the nodes makes I + V~ diag(w) the zero matrix
        rule = gauss_legendre_rule(64, standard_cfg.a, standard_cfg.b)

        def singular(pair, delta0):
            return gridded(lambda lam, mu: -np.diag(1.0 / rule.weights))
        monkeypatch.setattr(rhp, "_base_kernel", singular)
        with pytest.raises(NumericError, match="singular"):
            solve_chi(with_n(standard_cfg, 64))

    def test_overflowing_determinant_is_named(self, standard_cfg,
                                              monkeypatch):
        # det(I + V~) beyond float64 (standard near x = 5500) while F_L and
        # F_R are finite: the error names the determinant, not the solve
        monkeypatch.setattr(np.linalg, "det", lambda D: np.inf)
        with pytest.raises(NumericError, match=r"det\(I \+ V~\) overflows "
                                               r"float64 at n=104, x=50:"):
            solve_chi(standard_cfg)


class TestChiProperties:
    def test_inverse_consistency(self, standard_chi):
        rng = np.random.default_rng(23)
        eye = np.eye(2)
        count = 0
        while count < 20:
            z = complex(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            d = abs(z - complex(np.clip(z.real, -1.0, 1.0), 0.0))
            if d < standard_chi.near_threshold:
                continue
            count += 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NearIntervalWarning)
                prod = standard_chi.chi_at(z) @ standard_chi.chi_inv_at(z)
            assert np.max(np.abs(prod - eye)) < 1e-9

    def test_determinant_never_vanishes(self, standard_chi):
        for z in (0.5j, 2.0, -1.5 + 0.8j, 0.2 - 3.0j):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NearIntervalWarning)
                d = np.linalg.det(standard_chi.chi_at(z))
            assert abs(d) > 1e-6

    def test_identity_at_infinity(self, standard_chi):
        eye = np.eye(2)
        dirs = np.exp(2j * np.pi * np.arange(8) / 8)
        norms = {}
        for radius in (1e2, 1e3):
            norms[radius] = max(
                np.linalg.norm(standard_chi.chi_at(radius * d) - eye)
                for d in dirs)
            assert norms[radius] * radius < 10.0   # decay no slower than 1/z
        ratio = norms[1e2] / norms[1e3]
        assert 8.0 < ratio < 12.0                  # decay no faster either

    def test_divided_chi_matches_quotient(self, standard_chi):
        z1, z2 = 0.4 + 0.5j, -0.3 - 0.6j
        got = standard_chi.delta_chi(np.array([z1]), np.array([z2]))[0]
        want = (standard_chi.chi_at(z1) - standard_chi.chi_at(z2)) / (z1 - z2)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_divided_chi_warns_in_the_near_zone(self, standard_cfg):
        # c = 0.4 at n = 64: the line points lam +- 0.2i lie within the
        # near threshold 10 (b - a)/n = 0.3125 of [a, b]
        from dataclasses import replace
        cfg = replace(standard_cfg, c=0.4, x=25.0, shift=None)
        chi = solve_chi(cfg)
        assert chi.rule.size == 64 and 0.2 < chi.near_threshold
        lam = chi.rule.nodes[:8]
        with pytest.warns(NearIntervalWarning, match="degraded"):
            chi.delta_chi(lam + 0.2j, lam - 0.2j)
        with pytest.warns(NearIntervalWarning):
            chi.delta_chi(lam + 1.0j, lam - 0.2j)          # one side near
        with warnings.catch_warnings():
            warnings.simplefilter("error", NearIntervalWarning)
            chi.delta_chi(lam + 0.5j, lam - 0.5j)

    def test_divided_chi_in_the_near_zone_sums_the_near_form(self,
                                                              standard_cfg):
        # inside the zone (0.192 at n = 104) delta_chi sums the near form's
        # Legendre density on a Gauss rule of r = cauchy_rank(d) nodes; the
        # oracle takes 3r.  The n-node sum was off by 1.1e-10, 1.8e-5 and
        # 1.5e-2 at these d.  Measured: at most 7.2e-15 of the largest entry
        chi = solve_chi(replace(standard_cfg, x=50.0))
        assert chi.rule.size == 104
        lam, R = chi.rule.nodes, chi._R
        for frac in (0.9, 0.5, 0.2):
            d = frac * chi.near_threshold
            z1, z2 = lam + 1j * d, lam[::-1] + 1j * d + 0.3
            with pytest.warns(NearIntervalWarning) as record:
                got = chi.delta_chi(z1, z2)
            assert [w.filename for w in record] == [__file__]
            fine = gauss_legendre_rule(3 * cauchy_rank(d, chi.a, chi.b),
                                       chi.a, chi.b)
            want = -gauss_sum(fine, R.near.density(fine.nodes), z1, z2)
            err = np.max(np.abs(got - want.reshape(got.shape)))
            assert err <= 1e-13 * np.max(np.abs(want)), frac

    def test_divided_chi_confluent_limit(self, standard_chi):
        z = 0.4 + 0.5j
        step = 1e-5
        got = standard_chi.delta_chi(np.array([z]), np.array([z]))[0]
        num = (standard_chi.chi_at(z + step)
               - standard_chi.chi_at(z - step)) / (2 * step)
        np.testing.assert_allclose(got, num, atol=1e-9)

    def test_far_points_build_no_near_cut_evaluator(self, standard_cfg):
        # the K x n Legendre table is built on the first near point only
        chi, alpha = solve_chi(standard_cfg), make_alpha(standard_cfg)
        far = np.array([3.0 + 2.0j, -0.2 + 1.5j])
        chi.chi_at(far)
        chi.chi_inv_at(far)
        alpha.alpha_at(far)
        assert "near" not in vars(chi._R) and "near" not in vars(chi._L)
        assert "near" not in vars(alpha._C)
        near = 0.2 + 1j * chi.near_threshold / 10
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearIntervalWarning)
            chi.chi_at(near)
            alpha.alpha_at(near)
        assert "near" in vars(chi._R) and "near" not in vars(chi._L)
        assert "near" in vars(alpha._C)

    def test_near_interval_warning(self, standard_chi):
        close = 0.2 + 1j * standard_chi.near_threshold / 10
        with pytest.warns(NearIntervalWarning):
            standard_chi.chi_at(close)

    def test_near_interval_warning_names_the_caller(self, standard_cfg,
                                                    standard_chi):
        # the warning points at the line that asked for the value, not at
        # a frame inside rhp
        alpha = make_alpha(standard_cfg)
        close = 0.2 + 1j * standard_chi.near_threshold / 10
        calls = [lambda: standard_chi.chi_at(close),
                 lambda: standard_chi.chi_inv_at(close),
                 lambda: alpha.alpha_at(close),
                 lambda: standard_chi.delta_chi(close, close + 1.0j)]
        for call in calls:
            with pytest.warns(NearIntervalWarning) as record:
                call()
            assert [w.filename for w in record] == [__file__]


@pytest.fixture(scope="module")
def fine_chi(standard_cfg):
    return solve_chi(with_n(standard_cfg, 256))


class TestJumpCondition:
    def test_oriented_jump_is_satisfied(self, fine_chi):
        res = jump_residual_chi(0.2, 1e-3, fine_chi)
        assert res < 1e-2

    def test_wrong_orientation_is_worse(self, fine_chi):
        good = jump_residual_chi(0.2, 1e-3, fine_chi)
        bad = transposed_jump_residual(0.2, 1e-3, fine_chi)
        assert bad > 10 * good

    def test_residual_shrinks_with_epsilon(self, fine_chi):
        coarse = jump_residual_chi(0.2, 1e-2, fine_chi)
        fine = jump_residual_chi(0.2, 1e-3, fine_chi)
        assert fine < coarse

    def test_trivial_amplitude_jump(self, trivial_chi):
        assert jump_residual_chi(0.0, 1e-3, trivial_chi) < 1e-12

    @pytest.mark.parametrize("lam0,eps", [(3.0, 1e-3), (0.2, 0.0),
                                          (0.2, -1e-3)])
    def test_bad_probe_rejected(self, fine_chi, lam0, eps):
        with pytest.raises(ValueError):
            jump_residual_chi(lam0, eps, fine_chi)


class TestAlpha:
    def test_constant_amplitude_closed_form(self, standard_cfg):
        # alpha(z) = ((z-a)/(z-b))^nu with nu = log(1+F)/(2 i pi)
        from shiftdet.quadrature import stadium_loop_rule
        alpha = make_alpha(standard_cfg)
        nu = np.log(1.5) / (2j * np.pi)
        z = stadium_loop_rule(-1.0, 1.0, 0.25, 256).nodes
        want = ((z + 1.0) / (z - 1.0)) ** nu
        got = alpha.alpha_at(z)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_tends_to_one_at_infinity(self, standard_cfg):
        alpha = make_alpha(standard_cfg)
        assert abs(alpha.alpha_at(1e3 + 0j) - 1.0) < 1e-3
        assert abs(alpha.alpha_at(1e6 + 0j) - 1.0) < 1e-6

    def test_trivial_amplitude_is_one(self, trivial_cfg):
        alpha = make_alpha(trivial_cfg)
        z = np.array([0.3 + 0.2j, -2.0 - 1.0j, 10.0 + 0j])
        np.testing.assert_array_equal(alpha.alpha_at(z), 1.0)

    @pytest.mark.parametrize("config_name", ["standard", "general"])
    def test_multiplicative_jump(self, config_name, standard_cfg,
                                 general_cfg):
        # alpha_minus = alpha_plus * (1 + F) across the cut
        cfg = {"standard": standard_cfg, "general": general_cfg}[config_name]
        alpha = make_alpha(with_n(cfg, 512))
        lam0 = 0.2
        eps = 1e-3
        pts = lam0 + 1j * np.array([eps / 2, eps, -eps / 2, -eps])
        with pytest.warns(NearIntervalWarning):
            vals = alpha.alpha_at(pts)
        a_plus = 2 * vals[0] - vals[1]    # Richardson toward the cut
        a_minus = 2 * vals[2] - vals[3]
        F0 = complex(cfg.F.value(lam0))
        assert abs(a_minus - a_plus * (1 + F0)) / abs(a_minus) < 1e-6

    def test_amplitude_at_minus_one_rejected(self, standard_cfg):
        from dataclasses import replace
        from shiftdet.kernels import ConfigError
        bad = replace(standard_cfg, F=constant(-1.0))
        with pytest.raises((ConfigError, ValueError)):
            make_alpha(bad)


# --------------------------------------------------------------------------
# the far path through Chebyshev proxy points against the direct Gauss sum
# --------------------------------------------------------------------------

def _point_sets(cfg, chi):
    """The off-cut point sets of the factorization chain: the loop, the
    loop and the nodes shifted by -i c (M's and W's chi columns) and the
    line shifted by +- i c/2 (N's rows and columns)."""
    loop, line = _loop_rule(cfg).nodes, _line_rule(cfg).nodes
    sets = {"loop": loop}
    for c in np.unique(cfg.shift.c):
        sets[f"loop{-c:+g}i"] = loop - 1j * c
        sets[f"line{c / 2:+g}i"] = line + 0.5j * c
        sets[f"nodes{-c:+g}i"] = chi.rule.nodes - 1j * c
    return sets


def _rel(got, want) -> float:
    """max |got - want| / max(1, |want|), entrywise."""
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _rank(chi, *points) -> int:
    dist = min(np.min(rhp._segment_distance(p, chi.a, chi.b)) for p in points)
    return cauchy_rank(dist, chi.a, chi.b)


class TestProxyFarPath:
    """chi, chi^-1, delta_chi and alpha summed over r Chebyshev proxy points
    agree with the direct n-node Gauss sum; measured <= 4.0e-16."""

    @pytest.fixture(scope="class", params=[
        (name, x) for name in ("standard", "general", "nonintegrable")
        for x in (50.0, 400.0, 800.0)], ids=lambda p: f"{p[0]}-x{p[1]:g}")
    def solved(self, request):
        name, x = request.param
        cfg = replace(request.getfixturevalue(name + "_cfg"), x=x)
        return cfg, solve_chi(cfg), make_alpha(cfg)

    def test_agrees_with_the_gauss_sum(self, solved):
        cfg, chi, alpha = solved
        for name, z in _point_sets(cfg, chi).items():
            if cfg.x >= 400.0:                   # the proxy path is taken
                assert _rank(chi, z) < chi.rule.size, name
            assert _rel(chi.chi_at(z), direct_chi(chi, z)) <= 1e-14, name
            assert _rel(chi.chi_inv_at(z),
                        direct_chi(chi, z, inverse=True)) <= 1e-14, name
            assert _rel(alpha.alpha_at(z), direct_alpha(alpha, z)) <= 1e-14, name
            z2 = z[::-1]
            assert _rel(chi.delta_chi(z, z2),
                        direct_delta_chi(chi, z, z2)) <= 1e-14, name

    def test_compensated_line_pairs(self, solved):
        # N's compensated diagonal: both points on one horizontal line, and
        # the two lines +- i c/2
        cfg, chi, _ = solved
        line = _line_rule(cfg).nodes
        c = abs(cfg.shift.c[0])
        for z1, z2 in ((line + 0.5j * c, np.roll(line, 1) + 0.5j * c),
                       (line + 0.5j * c, line - 0.5j * c)):
            assert _rel(chi.delta_chi(z1, z2),
                        direct_delta_chi(chi, z1, z2)) <= 1e-14

    def test_gauss_path_proxies_are_the_nodes(self, standard_cfg):
        # r >= n: the loop (r = 168 at distance 0.25) on the rule of 104,
        # where the proxies are the nodes and w rho themselves; summed as
        # (w rho) / (t - z) they round apart from the direct w / (lam - z)
        # products.  Measured: at most 2.2e-16
        cfg = replace(standard_cfg, x=50.0)
        chi, alpha = solve_chi(cfg), make_alpha(cfg)
        z = _loop_rule(cfg).nodes
        assert _rank(chi, z) >= chi.rule.size == 104
        dist = float(np.min(rhp._segment_distance(z, chi.a, chi.b)))
        nodes, w = chi.rule.nodes, chi.rule.weights[:, None]
        rho_R, rho_L = _chi_densities(chi)
        for C, rho in ((chi._R, rho_R), (chi._L, rho_L),
                       (alpha._C, alpha.logF_nodes / (2j * np.pi))):
            t, dens = C.proxies(dist)
            assert np.array_equal(t, nodes.real)
            assert np.array_equal(dens, w * rho.reshape(nodes.size, -1))
        assert _rel(chi.chi_at(z), direct_chi(chi, z)) <= 1e-15
        assert _rel(chi.chi_inv_at(z), direct_chi(chi, z, inverse=True)) <= 1e-15
        assert _rel(alpha.alpha_at(z), direct_alpha(alpha, z)) <= 1e-15
        assert _rel(chi.delta_chi(z, z[::-1]),
                    direct_delta_chi(chi, z, z[::-1])) <= 1e-15

    @pytest.mark.parametrize("name", ["standard", "nonintegrable"])
    def test_chi_proxies_sum_to_chi(self, request, name):
        # the proxies N's factors sum: at the loop's r >= n the rule's
        # nodes, on N's line (r = 87 < n = 104) the Chebyshev proxies, and
        # inside the near zone, a fifth of its width from the cut, where
        # chi_at takes the Legendre-expansion form, that form's density on
        # a Gauss rule of r nodes (there the n-node sum is off by 1e-3).
        # Measured: at most 3.4e-15 relative
        cfg = request.getfixturevalue(name + "_cfg")
        chi = solve_chi(cfg)
        inside = np.linspace(-0.95, 0.95, 9) + 0.2j * chi.near_threshold
        n = chi.rule.size
        for z, size in ((_loop_rule(cfg).nodes, n),
                        (_line_rule(cfg).nodes + 0.5j, 87),
                        (inside, _rank(chi, inside))):
            t, rho = chi.chi_proxies(z)
            got = np.eye(2) - np.sum(rho / (t[:, None, None] - z[:, None,
                                                                 None, None]),
                                     axis=1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NearIntervalWarning)
                want = chi.chi_at(z)
            assert t.size == size and t.dtype == np.float64
            assert _rel(got, want) <= 1e-14
