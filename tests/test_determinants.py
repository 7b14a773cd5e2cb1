import os
from dataclasses import replace

import numpy as np
import pytest

from shiftdet import cli, determinants
from shiftdet.determinants import (DetResult, collocation_matrix,
                                   factored_det, nystrom_det,
                                   nystrom_det_matrix)
from shiftdet.experiments import compute_determinant, verify_factorization
from shiftdet.kernels import (ConfigError, M_kernel, NumericError, ShiftSpec,
                              U_minus_kernel, U_plus_kernel, W_factors,
                              cauchy_rank, gsk_shift_spec)
from shiftdet.quadrature import (compactified_line_rule, gauss_legendre_rule,
                                 stadium_loop_rule)
from shiftdet.rhp import make_alpha, solve_chi

from closed_forms import M0_kernel, W_kernel, gsk_kernel, shift_kernel
from helpers import convergence_study

zero_kernel = lambda lam, mu: np.zeros(np.broadcast(lam, mu).shape,
                                       dtype=complex)


@pytest.mark.parametrize("rule", [
    gauss_legendre_rule(32, -1.0, 1.0),
    stadium_loop_rule(-1.0, 1.0, 0.25, 64),
    compactified_line_rule(64, 1.0),
], ids=["interval", "loop", "line"])
def test_zero_kernel_gives_unit_determinant(rule):
    res = nystrom_det(zero_kernel, rule)
    assert res.value == 1.0
    assert res.convergence_delta == 0.0
    assert res.rule_size == rule.size


def test_rank_one_constant():
    # det(I + K) = 1 + integral of 1 over [0,1] for K(lam,mu) = 1
    rule = gauss_legendre_rule(24, 0.0, 1.0)
    res = nystrom_det(lambda l, m: np.ones(np.broadcast(l, m).shape), rule)
    assert abs(res.value - 2.0) < 1e-14


def test_rank_one_separable():
    rule = gauss_legendre_rule(24, 0.0, 1.0)
    res = nystrom_det(lambda l, m: l * m, rule)
    assert abs(res.value - 4.0 / 3.0) < 1e-13


def test_weight_placement_invariance():
    # I + K diag(w) and I + diag(w) K are similar, so dets agree
    rule = gauss_legendre_rule(20, -1.0, 1.0)
    k = lambda l, m: np.exp(-(l - m) ** 2) + 0.1 * l
    res = nystrom_det(k, rule)
    K = k(rule.nodes[:, None], rule.nodes[None, :])
    direct = np.linalg.det(np.eye(rule.size) + rule.weights[None, :] * K)
    other = np.linalg.det(np.eye(rule.size) + rule.weights[:, None] * K)
    assert abs(res.value - direct) < 1e-13 * abs(direct)
    assert abs(res.value - other) < 1e-13 * abs(other)


def test_symmetric_real_kernel_real_determinant():
    rule = gauss_legendre_rule(40, -1.0, 1.0)
    res = nystrom_det(lambda l, m: np.exp(-(l - m) ** 2), rule)
    assert abs(res.value.imag) < 1e-12 * abs(res.value.real)


def test_multiplicativity():
    # det((I+A)(I+B)) = det(I+A) det(I+B) with the composed kernel
    rule = gauss_legendre_rule(32, -1.0, 1.0)
    k1 = lambda l, m: 0.3 * np.exp(l * m)
    k2 = lambda l, m: 0.2 * np.cos(l - m)

    def composed(l, m):
        shape = np.broadcast(l, m).shape
        lf = np.broadcast_to(np.asarray(l), shape).ravel()
        mf = np.broadcast_to(np.asarray(m), shape).ravel()
        s = rule.nodes
        mix = np.einsum("ps,s,sp->p", k1(lf[:, None], s[None, :]),
                        rule.weights, k2(s[:, None], mf[None, :]))
        return (k1(l, m) + k2(l, m) + mix.reshape(shape))

    d1 = nystrom_det(k1, rule).value
    d2 = nystrom_det(k2, rule).value
    d12 = nystrom_det(composed, rule).value
    assert abs(d12 - d1 * d2) < 1e-12 * abs(d1 * d2)


def test_block_diagonal_matrix_kernel():
    rule = gauss_legendre_rule(24, -1.0, 1.0)
    k1 = lambda l, m: 0.4 * np.exp(-(l - m) ** 2)
    k2 = lambda l, m: 0.25 * np.cos(l + m)

    def blocks(l, m):
        shape = np.broadcast(l, m).shape
        out = np.zeros(shape + (2, 2), dtype=complex)
        out[..., 0, 0] = k1(l, m)
        out[..., 1, 1] = k2(l, m)
        return out

    d = nystrom_det_matrix(blocks, rule, 2).value
    d1 = nystrom_det(k1, rule).value
    d2 = nystrom_det(k2, rule).value
    assert abs(d - d1 * d2) < 1e-12 * abs(d1 * d2)


def test_trivial_amplitude_dressed_determinants(trivial_cfg, trivial_chi):
    loop = stadium_loop_rule(trivial_cfg.a, trivial_cfg.b,
                             trivial_cfg.resolved_h(),
                             trivial_cfg.numerics.m_loop)
    table = gsk_shift_spec(trivial_cfg)
    alpha = make_alpha(trivial_cfg)
    d_m = nystrom_det_matrix(
        lambda l, m: M_kernel(l, m, trivial_chi, table), loop, 2)
    assert abs(d_m.value - 1.0) < 1e-10
    d_up = nystrom_det(
        lambda l, m: U_plus_kernel(l, m, alpha, trivial_cfg.c), loop)
    d_um = nystrom_det(
        lambda l, m: U_minus_kernel(l, m, alpha, trivial_cfg.c), loop)
    d_m0 = nystrom_det_matrix(
        lambda l, m: M0_kernel(l, m, alpha, trivial_cfg.c), loop, 2)
    assert abs(d_up.value - 1.0) < 1e-10
    assert abs(d_um.value - 1.0) < 1e-10
    assert abs(d_m0.value - 1.0) < 1e-10


class TestInPlaceCollocation:
    """I + K diag(w) is built in the kernel's own result when that is a
    fresh complex array, and in a copy otherwise."""

    def test_fresh_complex_result_is_reused(self):
        rule = gauss_legendre_rule(8, -1.0, 1.0)
        K = np.full((8, 8), 0.5 + 0j)
        D = collocation_matrix(K, rule.weights)
        assert D is K
        want = np.eye(8) + np.full((8, 8), 0.5) * rule.weights[None, :]
        assert np.array_equal(D, want)

    @pytest.mark.parametrize("kind", ["read-only", "broadcast", "view", "real"])
    def test_kernel_result_is_not_modified(self, kind):
        rule = gauss_legendre_rule(16, -1.0, 1.0)
        n = rule.size
        base = (0.1 * np.outer(rule.nodes, rule.nodes) + 0.2).astype(complex)
        if kind == "read-only":
            K = base.copy()
            K.flags.writeable = False
        elif kind == "broadcast":
            K = np.broadcast_to(base[:1], (n, n))
        elif kind == "view":
            K = np.concatenate([base, base], axis=1)[:, :n]
        else:
            K = base.real.copy()
        before = np.array(K, copy=True)
        res = nystrom_det(lambda l, m: K if np.size(l) == n else
                          np.array(K)[::2, ::2], rule)
        assert np.array_equal(K, before)
        fresh = nystrom_det(lambda l, m: np.array(K, dtype=complex) if
                            np.size(l) == n else
                            np.array(K, dtype=complex)[::2, ::2], rule)
        assert res.value == fresh.value

    def test_matrix_kernel_result_is_not_modified(self):
        rule = gauss_legendre_rule(12, -1.0, 1.0)
        n = rule.size
        K = np.zeros((n, n, 2, 2), dtype=complex)
        K[..., 0, 0] = 0.3
        K[..., 1, 1] = 0.2
        before = K.copy()
        d = nystrom_det_matrix(
            lambda l, m: K if np.size(l) == n else K[::2, ::2], rule, 2)
        assert np.array_equal(K, before)
        assert abs(d.value - 1.6 * 1.4) < 1e-14


class TestConvergenceStudy:
    def test_oscillatory_kernel_converges(self, standard_cfg):
        from dataclasses import replace
        cfg = replace(standard_cfg, x=20.0)
        rule = gauss_legendre_rule(32, cfg.a, cfg.b)
        res = convergence_study(lambda l, m: gsk_kernel(l, m, cfg), rule,
                                [32, 64, 128])
        assert [r.rule_size for r in res] == [32, 64, 128]
        d1, d2 = res[1].convergence_delta, res[2].convergence_delta
        assert d2 < max(d1 / 1e2, 5e-15)

    def test_shifted_kernel_is_resolved(self, standard_cfg):
        from dataclasses import replace
        cfg = replace(standard_cfg, x=20.0)
        rule = gauss_legendre_rule(64, cfg.a, cfg.b)
        res = convergence_study(lambda l, m: shift_kernel(l, m, cfg), rule,
                                [64, 128])
        assert res[-1].convergence_delta < 1e-10

    def test_zero_kernel_study(self):
        rule = gauss_legendre_rule(16, 0.0, 1.0)
        res = convergence_study(zero_kernel, rule, [16, 32])
        assert all(r.value == 1.0 for r in res)
        assert all(r.convergence_delta == 0.0 for r in res)

    def test_sizes_must_increase(self):
        rule = gauss_legendre_rule(16, 0.0, 1.0)
        with pytest.raises(ValueError):
            convergence_study(zero_kernel, rule, [32, 32])


class TestFailureModes:
    def test_non_finite_kernel_rejected(self):
        rule = gauss_legendre_rule(8, 0.0, 1.0)
        bad = lambda l, m: np.full(np.broadcast(l, m).shape, np.nan)
        with pytest.raises(NumericError):
            nystrom_det(bad, rule)

    def test_wrong_block_shape_rejected(self):
        rule = gauss_legendre_rule(8, 0.0, 1.0)
        flat = lambda l, m: np.zeros(np.broadcast(l, m).shape)
        with pytest.raises((NumericError, ValueError)):
            nystrom_det_matrix(flat, rule, 2)

    def test_non_finite_value_rejected_in_result(self):
        with pytest.raises(NumericError):
            DetResult(value=complex("nan"), half=1.0, rule_size=8)
        with pytest.raises(NumericError):
            DetResult(value=1.0, half=complex("inf"), rule_size=8)


@pytest.mark.parametrize("rule,dim", [
    (gauss_legendre_rule(2, -1.0, 1.0), None),
    (stadium_loop_rule(-1.0, 1.0, 0.25, 8), 2),
    (compactified_line_rule(16, 1.0), None),
    (compactified_line_rule(16, 1.0), 2),
])
def test_rule_at_floor_size_refused(rule, dim):
    # rule.half() is the rule itself here, so the delta would read 0
    assert rule.half().size == rule.size
    with pytest.raises(ConfigError, match="floor size"):
        if dim is None:
            nystrom_det(zero_kernel, rule)
        else:
            nystrom_det_matrix(lambda l, m: np.zeros(
                np.broadcast(l, m).shape + (dim, dim), complex), rule, dim)


def _dense_det(X, Y):
    return np.linalg.det(np.eye(X.shape[0]) + X @ Y.T)


class TestFactoredDet:
    @pytest.mark.parametrize("R", [5, 100], ids=["R<n", "R>=n"])
    def test_each_sylvester_side_matches_dense(self, R):
        # n = 64 (half 32): R = 5 takes det(I_R + Y^T X) on both rules,
        # R = 100 takes det(I_n + X Y^T) on both
        rule = gauss_legendre_rule(64, -1.0, 1.0)

        def factors(r):
            rng = np.random.default_rng(r.size)
            shape = (2, r.size, R)
            X, Y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return X / (4 * R), Y / r.size

        got = factored_det(factors, rule)
        want = [_dense_det(*factors(r)) for r in (rule, rule.half())]
        assert got.rule_size == 64
        assert abs(got.value - want[0]) < 1e-13 * abs(want[0])
        assert abs(got.half - want[1]) < 1e-13 * abs(want[1])

    def test_rule_at_floor_size_refused(self):
        rule = gauss_legendre_rule(2, -1.0, 1.0)
        with pytest.raises(ConfigError, match="floor size"):
            factored_det(lambda r: (np.zeros((r.size, 1)),) * 2, rule)


class TestMemoryGuard:
    def test_collocation_refused_beyond_available_memory(self, monkeypatch):
        monkeypatch.setattr(determinants, "_mem_available", lambda: 10 ** 6)
        rule = gauss_legendre_rule(200, -1.0, 1.0)   # 3 * 200^2 * 16 B > 1 MB
        with pytest.raises(ConfigError, match=r"200 nodes.*1920000 bytes"):
            nystrom_det(zero_kernel, rule)

    def test_matrix_kernel_counts_blocks(self, monkeypatch):
        monkeypatch.setattr(determinants, "_mem_available", lambda: 10 ** 6)
        rule = stadium_loop_rule(-1.0, 1.0, 0.25, 128)  # order 256 > 200
        with pytest.raises(ConfigError, match=r"128 nodes.*3145728 bytes"):
            nystrom_det_matrix(lambda l, m: np.zeros(
                np.broadcast(l, m).shape + (2, 2), complex), rule, 2)

    def test_resolvent_solve_refused(self, monkeypatch, standard_cfg):
        monkeypatch.setattr(determinants, "_mem_available", lambda: 10 ** 5)
        with pytest.raises(ConfigError, match=r"128 nodes.*786432 bytes"):
            solve_chi(standard_cfg)

    def test_unknown_memory_skips_the_check(self, monkeypatch):
        monkeypatch.setattr(determinants, "_mem_available", lambda: None)
        assert nystrom_det(zero_kernel,
                           gauss_legendre_rule(64, -1.0, 1.0)).value == 1.0

    def test_reader(self, tmp_path):
        info = tmp_path / "meminfo"
        info.write_text("MemTotal:  8000 kB\nMemAvailable:    2048 kB\n")
        assert determinants._mem_available(str(info)) == 2048 * 1024
        info.write_text("MemTotal:  8000 kB\n")
        assert determinants._mem_available(str(info)) is None
        assert determinants._mem_available(str(tmp_path / "absent")) is None

    def test_cli_exits_2(self, monkeypatch, config_dir, capsys):
        monkeypatch.setattr(determinants, "_mem_available", lambda: 10 ** 5)
        config = os.path.join(config_dir, "standard.json")
        assert cli.main(["det", config, "--which", "V"]) == 2
        assert "bytes" in capsys.readouterr().err


def _W_oracle(chi, shift):
    return nystrom_det(lambda l, m: W_kernel(l, m, chi, chi.pair, shift),
                       chi.rule)


def _W_factored(chi, shift):
    return factored_det(lambda r: W_factors(r, chi, shift), chi.rule)


def _assert_agrees(got, want, rtol=1e-12):
    assert got.rule_size == want.rule_size
    assert abs(got.value - want.value) <= rtol * abs(want.value)
    assert abs(got.half - want.half) <= rtol * abs(want.half)


class TestFactoredW:
    """det(I+W) from W_factors against the dense entrywise W_kernel."""

    @pytest.mark.parametrize("x", [50.0, 400.0])
    @pytest.mark.parametrize("name", ["standard", "nonintegrable", "general",
                                      "trivial"])
    def test_matches_dense_oracle(self, request, name, x):
        cfg = replace(request.getfixturevalue(name + "_cfg"), x=x)
        chi = solve_chi(cfg)
        _assert_agrees(_W_factored(chi, cfg.shift), _W_oracle(chi, cfg.shift))

    def test_both_sylvester_sides_are_taken(self, standard_cfg):
        # R = 2 shifts * N = 2 * r columns; n = 128 at x = 50, 1019 at x = 400
        R = 4 * cauchy_rank(standard_cfg.c, standard_cfg.a, standard_cfg.b)
        for x, smaller in ((50.0, "n"), (400.0, "R")):
            chi = solve_chi(replace(standard_cfg, x=x))
            X, Y = W_factors(chi.rule, chi, standard_cfg.shift)
            assert X.shape == Y.shape == (chi.rule.size, R)
            assert ("R" if R < chi.rule.size else "n") == smaller

    def test_narrow_shift(self, standard_cfg):
        cfg = replace(standard_cfg, c=0.3, x=400.0, shift=None)
        chi = solve_chi(cfg)
        assert cauchy_rank(0.3, cfg.a, cfg.b) < chi.rule.size // 2
        _assert_agrees(_W_factored(chi, cfg.shift), _W_oracle(chi, cfg.shift))

    @pytest.mark.filterwarnings("ignore::shiftdet.rhp.NearIntervalWarning")
    def test_rank_beyond_rule_uses_the_nodes(self, standard_cfg):
        cfg = replace(standard_cfg, c=0.1, shift=None)
        chi = solve_chi(cfg)
        assert cauchy_rank(0.1, cfg.a, cfg.b) >= chi.rule.size     # P = I
        X, _ = W_factors(chi.rule, chi, cfg.shift)
        assert X.shape == (chi.rule.size, 4 * chi.rule.size)
        _assert_agrees(_W_factored(chi, cfg.shift), _W_oracle(chi, cfg.shift))

    def test_zero_gamma_gives_exactly_one(self, standard_cfg, standard_chi):
        table = ShiftSpec.make([0.0, 0.0], [-standard_cfg.c, standard_cfg.c],
                               [1, 2])
        res = _W_factored(standard_chi, table)
        assert res.value == 1.0 and res.half == 1.0

    def test_det_command_binding_equals_verify(self, standard_cfg):
        rep = verify_factorization(standard_cfg)
        assert compute_determinant(standard_cfg, "W") == rep.det_W
