import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from shiftdet import cli, determinants
from shiftdet.determinants import (DetResult, assemble_collocation,
                                   factored_det, nystrom_det,
                                   nystrom_det_matrix)
from shiftdet import experiments, kernels
from shiftdet.experiments import (_det, _interval_rule, _line_rule,
                                  compute_determinant, verify_factorization)
from shiftdet.kernels import (ConfigError, Grid, LowRank, M_kernel,
                              N_factors, NumericError, ShiftSpec,
                              U_minus_kernel, U_plus_kernel, W_factors,
                              _chebyshev_interpolant,
                              bracket_kernel, cauchy_rank, general_kernel_V,
                              gsk_shift_spec, gsk_vector_pair)
from shiftdet.quadrature import (compactified_line_rule, gauss_legendre_rule,
                                 stadium_loop_rule)
from shiftdet.rhp import NearIntervalWarning, make_alpha, solve_chi

from closed_forms import (M0_kernel, N_kernel, W_kernel, gsk_kernel, mp,
                          mp_collocation_det, mp_nystrom_det, shift_kernel)
from helpers import (N_planes, complex_collocation, complex_det,
                     complex_resolvent, constant, convergence_study,
                     direct_chi,
                     gridded, near_diagonal_mask, polynomial,
                     real_on_axis, with_n)

zero_kernel = gridded(lambda lam, mu: np.zeros(np.broadcast(lam, mu).shape,
                                               dtype=complex))


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
    res = nystrom_det(gridded(lambda l, m: np.ones(np.broadcast(l, m).shape)),
                      rule)
    assert abs(res.value - 2.0) < 1e-14


def test_rank_one_separable():
    rule = gauss_legendre_rule(24, 0.0, 1.0)
    res = nystrom_det(gridded(lambda l, m: l * m), rule)
    assert abs(res.value - 4.0 / 3.0) < 1e-13


def test_weight_placement_invariance():
    # I + K diag(w) and I + diag(w) K are similar, so dets agree
    rule = gauss_legendre_rule(20, -1.0, 1.0)
    k = lambda l, m: np.exp(-(l - m) ** 2) + 0.1 * l
    res = nystrom_det(gridded(k), rule)
    K = k(rule.nodes[:, None], rule.nodes[None, :])
    direct = np.linalg.det(np.eye(rule.size) + rule.weights[None, :] * K)
    other = np.linalg.det(np.eye(rule.size) + rule.weights[:, None] * K)
    assert abs(res.value - direct) < 1e-13 * abs(direct)
    assert abs(res.value - other) < 1e-13 * abs(other)


def test_symmetric_real_kernel_real_determinant():
    rule = gauss_legendre_rule(40, -1.0, 1.0)
    res = nystrom_det(gridded(lambda l, m: np.exp(-(l - m) ** 2)), rule)
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

    d1 = nystrom_det(gridded(k1), rule).value
    d2 = nystrom_det(gridded(k2), rule).value
    d12 = nystrom_det(gridded(composed), rule).value
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

    d = nystrom_det_matrix(gridded(blocks), rule, 2).value
    d1 = nystrom_det(gridded(k1), rule).value
    d2 = nystrom_det(gridded(k2), rule).value
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


class TestCollocationDtype:
    """The kernel's values and the rule's weights decide the matrix's dtype."""

    def test_float64_kernel_on_a_gauss_rule_gives_a_float64_matrix(self):
        rule = gauss_legendre_rule(16, -1.0, 1.0)
        D = assemble_collocation(gridded(lambda l, m: np.exp(-(l - m) ** 2)),
                                 rule)
        assert D.dtype == np.float64
        lam = rule.nodes
        K = np.exp(-(lam[:, None] - lam[None, :]) ** 2)
        assert np.array_equal(D, np.eye(16) + K * rule.weights)

    def test_complex_weights_are_kept(self):
        # a float64 kernel on the stadium rule: the weights' imaginary parts
        # go into a complex matrix, never dropped
        rule = stadium_loop_rule(-1.0, 1.0, 0.25, 32)
        assert np.any(rule.weights.imag)
        kernel = gridded(lambda l, m: np.full(np.broadcast(l, m).shape, 0.3))
        D = assemble_collocation(kernel, rule)
        assert D.dtype == np.complex128
        want = np.eye(rule.size) + 0.3 * rule.weights[None, :]
        assert np.array_equal(D, want)


class TestInPlaceCollocation:
    """I + K diag(w) is never built in the kernel's own result: a caller's
    array, even a fresh writable one, is read and left as it was."""

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
        res = nystrom_det(gridded(lambda l, m: K if np.size(l) == n else
                                  np.array(K)[::2, ::2]), rule)
        assert np.array_equal(K, before)
        fresh = nystrom_det(gridded(lambda l, m: np.array(K) if np.size(l) == n
                                    else np.array(K)[::2, ::2]), rule)
        assert res.value == fresh.value

    def test_matrix_kernel_result_is_not_modified(self):
        rule = gauss_legendre_rule(12, -1.0, 1.0)
        n = rule.size
        K = np.zeros((n, n, 2, 2), dtype=complex)
        K[..., 0, 0] = 0.3
        K[..., 1, 1] = 0.2
        before = K.copy()
        d = nystrom_det_matrix(
            gridded(lambda l, m: K if np.size(l) == n else K[::2, ::2]),
            rule, 2)
        assert np.array_equal(K, before)
        assert abs(d.value - 1.6 * 1.4) < 1e-14


class TestConvergenceStudy:
    def test_oscillatory_kernel_converges(self, standard_cfg):
        from dataclasses import replace
        cfg = replace(standard_cfg, x=20.0)
        rule = gauss_legendre_rule(32, cfg.a, cfg.b)
        res = convergence_study(gridded(lambda l, m: gsk_kernel(l, m, cfg)),
                                rule,
                                [32, 64, 128])
        assert [r.rule_size for r in res] == [32, 64, 128]
        d1, d2 = res[1].convergence_delta, res[2].convergence_delta
        assert d2 < max(d1 / 1e2, 5e-15)

    def test_shifted_kernel_is_resolved(self, standard_cfg):
        from dataclasses import replace
        cfg = replace(standard_cfg, x=20.0)
        rule = gauss_legendre_rule(64, cfg.a, cfg.b)
        res = convergence_study(gridded(lambda l, m: shift_kernel(l, m, cfg)),
                                rule,
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
        bad = gridded(lambda l, m: np.full(np.broadcast(l, m).shape, np.nan))
        with pytest.raises(NumericError):
            nystrom_det(bad, rule)

    def test_complex_kernel_rejected_for_a_real_matrix(self, monkeypatch):
        # a float64 first block makes the matrix float64: a later block with
        # a genuine imaginary part is an error, never cut off, and one with
        # a zero imaginary part is written in
        monkeypatch.setattr(determinants, "_BLOCK_BYTES", 1)  # a row a block
        rule = gauss_legendre_rule(8, 0.0, 1.0)

        def kernel(later):
            calls = []

            def k(l, m):
                calls.append(None)
                value = 0.1 if len(calls) == 1 else later
                return np.full(np.broadcast(l, m).shape, value)
            return gridded(k)

        D = assemble_collocation(kernel(0.1 + 0j), rule)
        assert D.dtype == np.float64
        assert np.array_equal(D, np.eye(8) + 0.1 * rule.weights[None, :])
        with pytest.raises(NumericError, match="complex values"):
            assemble_collocation(kernel(0.1 + 1e-3j), rule)

    def test_wrong_block_shape_rejected(self):
        rule = gauss_legendre_rule(8, 0.0, 1.0)
        flat = gridded(lambda l, m: np.zeros(np.broadcast(l, m).shape))
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
            nystrom_det_matrix(gridded(lambda l, m: np.zeros(
                np.broadcast(l, m).shape + (dim, dim), complex)), rule, dim)


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

        def low_rank(r):
            X, Y = factors(r)
            return LowRank(r.size, R, 1, False, lambda: (X, Y[None]))

        got = factored_det(low_rank, rule)
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
        rule = gauss_legendre_rule(200, -1.0, 1.0)
        # zero_kernel is complex, so the matrix is complex: the matrix and
        # LAPACK's copy, 2 * 200^2 * 16 B, and the first of three blocks
        # (at most 81 rows of 1 MiB at 64 bytes an entry), 66 * 200 * 16 B:
        # 1491200 B > 1 MB
        assert determinants.row_blocks(200, 64 * 200) == [(0, 66), (66, 133),
                                                          (133, 200)]
        with pytest.raises(ConfigError, match=r"200 nodes.*1491200 bytes"):
            nystrom_det(zero_kernel, rule)

    def test_matrix_kernel_counts_blocks(self, monkeypatch):
        monkeypatch.setattr(determinants, "_mem_available", lambda: 10 ** 6)
        rule = stadium_loop_rule(-1.0, 1.0, 0.25, 128)  # order 256 > 200
        with pytest.raises(ConfigError, match=r"128 nodes.*3145728 bytes"):
            nystrom_det_matrix(gridded(lambda l, m: np.zeros(
                np.broadcast(l, m).shape + (2, 2), complex)), rule, 2)

    def test_resolvent_solve_refused(self, monkeypatch, standard_cfg):
        monkeypatch.setattr(determinants, "_mem_available", lambda: 10 ** 5)
        # V~ is real on standard: the matrix, LAPACK's copy and the one
        # block of values, 3 * 128^2 entries of 8 bytes
        with pytest.raises(ConfigError, match=r"128 nodes.*393216 bytes"):
            solve_chi(with_n(standard_cfg, 128))

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

    def test_itemsize_sets_the_charge(self, monkeypatch):
        # 2 * 100^2 entries: 160000 bytes real, 320000 complex, plus the
        # kernel values' bytes
        monkeypatch.setattr(determinants, "_mem_available", lambda: 300000)
        determinants.require_memory(100, "real", 8, 0)
        with pytest.raises(ConfigError, match=r"320000 bytes"):
            determinants.require_memory(100, "complex", 16, 0)
        with pytest.raises(ConfigError, match=r"310000 bytes"):
            determinants.require_memory(100, "real", 8, 150000)

    def test_real_V_of_several_blocks_is_charged_one_block(self, monkeypatch,
                                                           standard_cfg):
        # 128 nodes in blocks of at most 10 rows: the float64 matrix and
        # LAPACK's copy (2 * 128^2 * 8 = 262144 B) and the one block of
        # values alive with them (the first, 9 * 128 * 8 = 9216 B), not all
        # 128 rows of them
        cfg = with_n(standard_cfg, 128)
        assert real_on_axis(cfg, "V")
        monkeypatch.setattr(determinants, "_BLOCK_BYTES", 10 * 128 * 64)
        blocks = determinants.row_blocks(128, 128 * 64)
        assert len(blocks) == 13 and blocks[0] == (0, 9)
        monkeypatch.setattr(determinants, "_mem_available", lambda: 10 ** 5)
        with pytest.raises(ConfigError,
                           match=r"interval rule of 128 nodes.*271360 bytes"):
            _det(cfg, "V")

    def test_real_collocation_is_charged_8_bytes(self, monkeypatch):
        # 3 * 200^2 * 8 = 960000 B fits in 1 MB; complex (above) does not
        monkeypatch.setattr(determinants, "_mem_available", lambda: 10 ** 6)
        rule = gauss_legendre_rule(200, -1.0, 1.0)
        real_zero = gridded(lambda lam, mu: np.zeros(
            np.broadcast(lam, mu).shape))
        assert nystrom_det(real_zero, rule).value == 1.0

    def test_complex_resolvent_is_charged_16_bytes(self, monkeypatch,
                                                  standard_cfg):
        monkeypatch.setattr(determinants, "_mem_available", lambda: 10 ** 5)
        cfg = with_n(replace(standard_cfg, F=constant(0.4 + 0.2j)), 128)
        with pytest.raises(ConfigError, match=r"128 nodes.*786432 bytes"):
            solve_chi(cfg)

    def test_real_contour_is_charged_its_planes_and_a_float64_matrix(
            self, monkeypatch, standard_cfg, standard_chi):
        # the 256-node loop, order 512: the first block's complex k = 0
        # planes (64 rows of 1 MiB at 16 bytes an entry: 64 * 256 * 2
        # entries of 16 B, 524288) and the float64 matrix and LAPACK's
        # copy (2 * 512^2 * 8 B: 4194304), 4718592 B; the complex matrix
        # would be charged 2 * 512^2 * 16 + 64 * 256 * 4 * 16 = 9437184 B
        assert determinants.row_blocks(256, 16 * 512 * 2)[0] == (0, 64)
        monkeypatch.setattr(determinants, "_mem_available", lambda: 4_800_000)
        assert _det(standard_cfg, "M", chi=standard_chi).value.imag == 0.0
        monkeypatch.setattr(determinants, "_mem_available", lambda: 4_700_000)
        with pytest.raises(ConfigError,
                           match=r"loop rule of 256 nodes.*4718592 bytes"):
            _det(standard_cfg, "M", chi=standard_chi)

    def test_cli_exits_2_naming_the_contour_rule(self, monkeypatch,
                                                 config_dir, capsys):
        # the interval matrices fit (n = 104: 259584 B); N's factors on
        # the 128-node line (rows 256, R = 2 * 87 = 174, real) need X's
        # first half 128 * 174 * 16, Y's two blocks 256 * 87 * 16, the
        # first half of S = Y^T X 87 * 174 * 16 and the float64 Sylvester
        # matrix and LAPACK's copy 2 * 174^2 * 8 B, checked before any of
        # them is formed
        assert cauchy_rank(0.5, -1.0, 1.0) == 87
        monkeypatch.setattr(determinants, "_mem_available", lambda: 10 ** 6)
        config = os.path.join(config_dir, "standard.json")
        assert cli.main(["det", config, "--which", "N"]) == 2
        err = capsys.readouterr().err
        assert "line rule of 128 nodes" in err and "1439328 bytes" in err

    def test_cli_exits_2(self, monkeypatch, config_dir, capsys):
        monkeypatch.setattr(determinants, "_mem_available", lambda: 10 ** 5)
        config = os.path.join(config_dir, "standard.json")
        assert cli.main(["det", config, "--which", "V"]) == 2
        assert "bytes" in capsys.readouterr().err


def _W_oracle(chi, shift):
    return nystrom_det(gridded(lambda l, m: W_kernel(l, m, chi, chi.pair,
                                                     shift)), chi.rule)


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
            X, (Y,) = W_factors(chi.rule, chi, standard_cfg.shift).form()
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
        # _chebyshev_interpolant: the nodes and P = I
        assert cauchy_rank(0.1, cfg.a, cfg.b) >= chi.rule.size
        X, _ = W_factors(chi.rule, chi, cfg.shift).form()
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


def _N_oracle(cfg, chi):
    return nystrom_det_matrix(
        lambda l, m: N_kernel(l, m, chi, cfg.shift, cfg.delta0),
        _line_rule(cfg), cfg.shift.N)


class TestFactoredN:
    """det(I+N) from N_factors against the dense entrywise N_kernel."""

    @pytest.mark.parametrize("x", [25.0, 50.0, 400.0])
    @pytest.mark.parametrize("name", ["standard", "nonintegrable", "general",
                                      "trivial", "complex-F"])
    def test_matches_dense_oracle(self, request, name, x):
        # R = 2 r columns against 2 m rows: r = 87 (the line at +-i/2) on
        # the 24-, 128- and 400-node lines and their halves reaches both
        # Sylvester sides; at x = 25 (n = 64) r >= n and chi's proxies are
        # its rule's nodes (``_chebyshev_interpolant``).  The value is real
        # exactly where real_kernel holds.
        # Measured: at most 4.6e-14 relative
        base = (_complex_F(request.getfixturevalue("standard_cfg"))
                if name == "complex-F" else
                request.getfixturevalue(name + "_cfg"))
        chi = solve_chi(replace(base, x=x))
        sides = set()
        for m_line in (24, 128, 400):
            cfg = replace(base, x=x, numerics=replace(base.numerics,
                                                      m_line=m_line))
            got = _det(cfg, "N", chi=chi)
            _assert_agrees(got, _N_oracle(cfg, chi))
            assert ((got.value.imag == 0.0 and got.half.imag == 0.0)
                    == real_on_axis(cfg, "N"))
            for rule in (_line_rule(cfg), _line_rule(cfg).half()):
                op = N_factors(rule, chi, cfg.shift)
                assert op.rank == 2 * min(cauchy_rank(0.5, -1.0, 1.0),
                                          chi.rule.size)
                sides.add(op.rank < op.n)
        assert sides == {True, False}
        assert (cauchy_rank(0.5, -1.0, 1.0) >= chi.rule.size) == (x == 25.0)

    @pytest.mark.parametrize("name", ["standard", "nonintegrable"])
    def test_factors_give_the_dense_product(self, request, name, monkeypatch):
        # X Y^T against N diag(w) entry by entry on the 64-node line, in
        # the factors' component-major layout, the real path forced off so
        # that X holds every row.  The dense N cancels in I - chi^-1 chi
        # (to 1e-3 of its terms at the outermost node, lam = 40.7), so the
        # bound is relative to the size of its terms, |w| sum_r |row_r|
        # |col_r| / |den| (N_planes), or to max|N w| where den = 0.
        # Measured: at most 1.9e-16 of that
        cfg = request.getfixturevalue(name + "_cfg")
        chi = solve_chi(cfg)
        monkeypatch.setattr(kernels, "_swap_closed", lambda shift: False)
        rule = _line_rule(cfg).half()
        X, Y = N_factors(rule, chi, cfg.shift).form()
        m, N, r = rule.size, cfg.shift.N, Y.shape[2]
        got = np.concatenate([X[:, b * r:(b + 1) * r] @ Y[b].T
                              for b in range(N)], axis=1)
        lam = rule.nodes
        want = (N_kernel(lam, lam, chi, cfg.shift, cfg.delta0).values()
                * rule.weights[:, None, None]).transpose(2, 0, 3, 1)
        rows, cols, csum, _ = N_planes(lam, lam, chi, cfg.shift)
        with np.errstate(divide="ignore"):
            terms = np.array([[np.abs(a) @ np.abs(b).T
                               / np.abs(lam[:, None] - lam + 1j * csum[k, l])
                               for l, b in enumerate(cols)]
                              for k, a in enumerate(rows)])
        terms = np.where(np.isfinite(terms), terms * np.abs(rule.weights), 0.0)
        err = np.abs(got.reshape(want.shape) - want)
        assert np.all(err <= 1e-15 * (terms.transpose(0, 2, 1, 3)
                                      + np.max(np.abs(want))))

    def test_narrow_table_warns_and_matches(self, standard_cfg):
        # shifts -+0.4 at x = 25 (n = 64): the line at +-0.2i lies inside
        # the interval's near zone 10 (b - a)/n = 0.31, where chi^-1 takes
        # its near-cut form and the proxies that form's density on a Gauss
        # rule of r = 209 nodes; with the 64-node sum there the half value
        # was off by 1.9e-12.  Measured: 5e-14 relative
        cfg = replace(standard_cfg, x=25.0, shift=ShiftSpec.make(
            [1.0, 1.0], [-0.4, 0.4], [1, 2]))
        with pytest.warns(NearIntervalWarning):
            got = compute_determinant(cfg, "N")
        assert got.value.imag == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearIntervalWarning)
            _assert_agrees(got, _N_oracle(cfg, solve_chi(cfg)))


def _rel(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


class TestStreamedAssembly:
    """Collocation matrices filled in row blocks equal the one-block build."""

    @staticmethod
    def _rows(monkeypatch, rows, cols, dim=1, entry=16):
        # a block budget of ``rows`` rows of ``cols`` nodes, ``entry`` bytes
        # an entry (a scalar kernel is charged 64), for the collocation
        # matrices and for rhp's interpolants and Cauchy sums alike
        for budget in ("_BLOCK_BYTES", "_STREAM_BYTES"):
            monkeypatch.setattr(determinants, budget,
                                rows * cols * dim * dim * entry)

    def test_scalar_kernel_and_resolvent(self, request, monkeypatch):
        # V~ and V on standard and general, the complex V on nonintegrable,
        # and the resolvent solve, at x = 400
        for name in ("standard", "general", "nonintegrable"):
            cfg = replace(request.getfixturevalue(name + "_cfg"), x=400.0)
            rule = _interval_rule(cfg)
            pair, n = gsk_vector_pair(cfg), rule.size
            # rows 0..6, 7..13, ...: a boundary splits an off-diagonal near
            # pair, so one falls on a block's first row
            near = near_diagonal_mask(rule.nodes[:, None],
                                      rule.nodes[None, :], cfg.delta0)
            assert any(near[i - 1, i] for i in range(7, n, 7))
            kernels = [lambda l, m: general_kernel_V(l, m, pair, cfg.shift,
                                                     cfg.delta0)]
            if name != "nonintegrable":
                kernels.append(lambda l, m: bracket_kernel(l, m, pair,
                                                           cfg.delta0))
            dets, chis = [], []
            for rows in (n, 7):
                self._rows(monkeypatch, rows, n, entry=64)
                assert len(determinants.row_blocks(n, 64 * n)) == -(-n // rows)
                dets.append([nystrom_det(k, rule) for k in kernels])
                chis.append(solve_chi(cfg))
            for one, cut in zip(*dets):
                assert abs(cut.value - one.value) <= 1e-14 * abs(one.value)
                assert abs(cut.half - one.half) <= 1e-14 * abs(one.half)
            chi1, chi2 = chis
            assert abs(chi2.det_tilde - chi1.det_tilde) <= 1e-14 * abs(
                chi1.det_tilde)
            assert _rel(chi2.FL_nodes, chi1.FL_nodes) <= 1e-14
            assert _rel(chi2.FR_nodes, chi1.FR_nodes) <= 1e-14
            half = rule.half().nodes
            assert _rel(chi2.FL_at(half), chi1.FL_at(half)) <= 1e-14
            assert _rel(chi2.FR_at(half), chi1.FR_at(half)) <= 1e-14

    def test_matrix_kernel(self, monkeypatch, standard_cfg, standard_chi):
        line = _line_rule(standard_cfg)
        kernel = lambda l, m: N_kernel(l, m, standard_chi, standard_cfg.shift,
                                       standard_cfg.delta0)
        dets = []
        for rows in (line.size, 9):
            self._rows(monkeypatch, rows, line.size, 2)
            dets.append(nystrom_det_matrix(kernel, line, 2))
        assert abs(dets[1].value - dets[0].value) <= 1e-14 * abs(dets[0].value)
        assert abs(dets[1].half - dets[0].half) <= 1e-14 * abs(dets[0].half)

    @pytest.mark.parametrize("which", ["M", "N"])
    def test_real_contour_matrix(self, monkeypatch, standard_cfg,
                                 standard_chi, which):
        # the float64 matrix from the k = 0 planes, in one block and in
        # row blocks of 9 (on the loop a block's second-component rows are
        # its sigma images), is B = Re A - Im(QA) of the complex A, in the
        # package's layout
        shift, d0 = standard_cfg.shift, standard_cfg.delta0
        if which == "M":
            rule = experiments._loop_rule(standard_cfg).half()
            kernel = lambda l, m, **kw: M_kernel(l, m, standard_chi, shift,
                                                 **kw)
        else:
            # the 128-node line, not its 64-node half: there the outermost
            # node's weight is 81.5, and the independently rounded k = 1
            # planes of A differ from the conjugated k = 0 ones by 2.2e-15
            rule = _line_rule(standard_cfg)
            kernel = lambda l, m, **kw: N_kernel(l, m, standard_chi, shift,
                                                 d0, **kw)
        top = lambda l, m: kernel(l, m, collocation=True)
        built = []
        for rows in (rule.size, 9):
            self._rows(monkeypatch, rows, rule.size, 2)
            built.append(assemble_collocation(top, rule, 2))
        m, every = rule.size, np.arange(rule.size)
        sigma = every[rule.conjugation]
        A = complex_collocation(kernel, rule, 2)        # (node, component)
        q = (2 * sigma[:, None] + 1 - np.arange(2)).reshape(-1)   # Q's rows
        B = A.real - A[q].imag
        # component-major, the second component's nodes in sigma order
        perm = np.concatenate([2 * every, 2 * sigma + 1])
        want = B[np.ix_(perm, perm)]
        for D in built:
            assert D.dtype == np.float64
            assert np.max(np.abs(D - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("rule", [gauss_legendre_rule(24, -1.0, 1.0),
                                      stadium_loop_rule(-1.0, 1.0, 0.25, 24)],
                             ids=["interval", "loop"])
    @pytest.mark.parametrize("layout", ["C", "plane-major"])
    @pytest.mark.parametrize("rows", [None, 5])
    def test_matrix_weighted_planes_bit_for_bit(self, monkeypatch, rule,
                                                layout, rows):
        # each weighted plane written straight into D equals the transposed
        # reshape times the column weights, whatever the kernel's layout
        m, dim = rule.size, 2
        rng = np.random.default_rng(7)
        K = (rng.standard_normal((m, m, dim, dim))
             + 1j * rng.standard_normal((m, m, dim, dim)))
        row_of = {z: i for i, z in enumerate(rule.nodes)}

        @gridded
        def kernel(l, _):
            block = K[[row_of[z] for z in l[:, 0]]]
            if layout == "C":
                return block
            planes = np.ascontiguousarray(np.moveaxis(block, (-2, -1), (0, 1)))
            return np.moveaxis(planes, (0, 1), (-2, -1))
        if rows is not None:
            self._rows(monkeypatch, rows, m, dim)
        assert len(determinants.row_blocks(m, 16 * m * dim * dim)) == (
            1 if rows is None else -(-m // rows))
        want = (np.eye(m * dim) + K.transpose(0, 2, 1, 3).reshape(m * dim, m * dim)
                * np.repeat(rule.weights, dim))
        assert np.array_equal(assemble_collocation(kernel, rule, dim), want)

    @pytest.mark.parametrize("dim", [None, 2])
    @pytest.mark.parametrize("fault", ["shape", "non-finite"])
    def test_fault_in_a_later_block(self, monkeypatch, dim, fault):
        rule = gauss_legendre_rule(32, -1.0, 1.0)
        self._rows(monkeypatch, 5, rule.size, dim or 1)
        cell = () if dim is None else (dim, dim)

        @gridded
        def kernel(l, m):
            out = np.zeros(np.broadcast(l, m).shape + cell, dtype=complex)
            if l[0, 0] != rule.nodes[0]:                 # not the first block
                if fault == "shape":
                    return out[:, :-1]
                out[-1, 0] = np.nan
            return out
        det = nystrom_det if dim is None else (
            lambda k, r: nystrom_det_matrix(k, r, dim))
        match = "shape" if fault == "shape" else "non-finite"
        with pytest.raises(NumericError, match=match):
            det(kernel, rule)


class TestBlockInvariance:
    """Every collocation matrix the package assembles is the same in the
    production's row blocks as in one block: each kernel's factors are
    evaluated once, on the whole rule, and every block is formed from row
    slices of them; and each column-side Cauchy sum runs once a matrix,
    however many blocks.  (N is not assembled: its determinant comes from
    low-rank factors.)

    Bit for bit wherever the planes are complex (zgemm).  The float64
    planes of V~ and the real V come from a dgemm of inner dimension 2,
    and OpenBLAS 0.3.31 (the 2-core Xeon these were measured on) rounds
    the products of a partial tile by how many rows the call has: at
    n = 550 (19 blocks of 28-29 rows), 126 of the 302,500 entries of V~'s
    matrix and 101 of V's differ from the one-block ones, by at most
    8.7e-19 (max|D| 1.18); at n = 275, 530 and 1059 none do.  Those
    matrices agree to eps max|D|, and every report is byte-identical to
    the one of blocks 16 times larger."""

    # V~ and V at x = 400 (n = 550: 19 blocks of 28-29 rows) and the
    # 256-node loop (4 blocks of 64)
    CASES = [("standard", "Vtilde"), ("standard", "V"),
             ("nonintegrable", "V"), ("standard", "M"),
             ("nonintegrable", "M"), ("standard", "Uplus"),
             ("standard", "Uminus"), ("nonintegrable", "Uplus")]

    @staticmethod
    def _cfg(request, name):
        return replace(request.getfixturevalue(name + "_cfg"), x=400.0)

    @staticmethod
    def _spy(monkeypatch, cls, name, calls):
        method = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return method(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    def _matrices(self, monkeypatch, cfg, which, chi, alpha):
        """The matrices ``_det`` factors for ``which`` (its rule and half
        rule), and the Cauchy sums it asked for."""
        from shiftdet.rhp import AlphaEvaluator, ChiSolution
        built, calls, det = [], {}, determinants._det
        monkeypatch.setattr(determinants, "_det",
                            lambda D: built.append(D.copy()) or det(D))
        for name in ("chi_at", "chi_inv_at"):
            self._spy(monkeypatch, ChiSolution, name, calls)
        self._spy(monkeypatch, AlphaEvaluator, "alpha_at", calls)
        _det(cfg, which, chi=chi, alpha=alpha)
        monkeypatch.undo()
        return built, calls

    @pytest.mark.parametrize("name,which", CASES)
    def test_production_blocks_equal_one_block(self, request, monkeypatch,
                                               name, which):
        cfg = self._cfg(request, name)
        chi = solve_chi(cfg) if which == "M" else None
        alpha = make_alpha(cfg) if which.startswith("U") else None
        rule = (experiments._loop_rule if which == "M" or alpha
                else _interval_rule)(cfg)
        scalar = which != "M"
        assert len(determinants.row_blocks(rule.size, 64 * rule.size)) > 1
        blocks, calls = self._matrices(monkeypatch, cfg, which, chi, alpha)
        monkeypatch.setattr(determinants, "_BLOCK_BYTES", 1 << 40)
        assert len(determinants.row_blocks(rule.size, 64 * rule.size)) == 1
        one, one_calls = self._matrices(monkeypatch, cfg, which, chi, alpha)
        assert len(blocks) == len(one) == 2          # the rule and its half
        for got, want in zip(blocks, one):
            assert got.dtype == want.dtype
            if np.iscomplexobj(got) or which == "M":
                assert np.array_equal(got, want)
            else:
                eps = np.finfo(float).eps
                assert np.max(np.abs(got - want)) <= eps * np.max(np.abs(want))
        # the factors of each matrix once: M a row-side chi^-1 and one chi
        # column a shift; U+- alpha on each side
        assert calls == one_calls
        if not scalar:
            assert calls == {"chi_inv_at": 2, "chi_at": 2 * cfg.shift.N}
        elif alpha is not None:
            assert calls == {"alpha_at": 4}


class TestWColumnFactor:
    """W's column factor carries chi(lam - i c_k)[:, k] read from chi_at,
    whose far path sums the Chebyshev proxy points; against the direct
    Gauss sum of chi."""

    @pytest.mark.parametrize("x", [50.0, 400.0])
    def test_matches_the_gauss_sum_on_full_and_half_rules(self, standard_cfg, x):
        chi = solve_chi(replace(standard_cfg, x=x))
        shift, a, b = standard_cfg.shift, chi.a, chi.b
        for rule in (chi.rule, chi.rule.half()):
            _, (Y,) = W_factors(rule, chi, shift).form()
            ER = chi.pair.E_R(rule.nodes)
            col = 0
            for k, c in enumerate(shift.c):
                r = cauchy_rank(c, a, b)
                assert r < rule.size and abs(c) >= chi.near_threshold
                P = _chebyshev_interpolant(rule.nodes, r, a, b)[1]
                g = (direct_chi(chi, rule.nodes - 1j * c)[:, :, k]
                     * (ER[:, shift.v0[k]] * rule.weights)[:, None])
                for a_idx in range(chi.N):          # column block (k, a)
                    assert _rel(Y[:, col:col + r], g[:, a_idx, None] * P) <= 1e-13
                    col += r
            assert col == Y.shape[1]


class TestStreamedMemory:
    """The collocation matrix is the only n x n array the determinants of V
    and V~ and the resolvent solve hold (LAPACK's own copy is allocated
    outside tracemalloc's view), and W holds none.

    Both block budgets are cut to 1/16 of the matrix so that the bounds
    tell the streamed temporaries apart from one more n x n array."""

    @pytest.fixture
    def cfg(self, monkeypatch, standard_cfg):
        cfg = replace(standard_cfg, x=800.0)
        n = cfg.resolved_n()
        assert 900 < n < 1100
        for budget in ("_BLOCK_BYTES", "_STREAM_BYTES"):
            monkeypatch.setattr(determinants, budget, n * n)
        return cfg

    @staticmethod
    def _peak(fn):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    def test_real_V_peak_at_large_n(self, standard_cfg):
        # the default block budget at n = 2038 (8 rows a block, 0.004 of
        # the matrix): the float64 matrix (8 n^2 bytes) and a block's values
        # and the real kernel's three temporaries, 1.031 x 8 n^2 measured;
        # with blocks of 128 rows it was 1.260, of 257 rows 1.64 (1.40 with
        # the values written into the matrix rows), with complex kernel
        # values 2.28
        cfg = with_n(replace(standard_cfg, x=800.0), 2038)
        unit = 8 * cfg.resolved_n() ** 2
        assert real_on_axis(cfg, "V")
        _, peak = self._peak(lambda: _det(cfg, "V"))
        assert peak <= 1.05 * unit

    @pytest.mark.parametrize("cut,bound", [(False, 1.04), (True, 1.06)],
                             ids=["default", "cut"])
    def test_complex_V_peak_at_large_n(self, monkeypatch, nonintegrable_cfg,
                                       cut, bound):
        # the kernel that sets the charge of 64 bytes an entry: the complex
        # matrix (16 n^2 bytes) and a block's values and a shift term's
        # plane buffer and denominator.  Measured at n = 2038: 1.026 x
        # 16 n^2 at the default budget (8 rows a block, 0.004 of the
        # matrix), 1.059 at 1/16 of the matrix (31 rows; the kernel's
        # factors of the whole rule are held with the block).  With blocks
        # of 128 rows it was 1.196; charged 48 bytes an entry, 1.259 and
        # 1.069; 32, 1.386 and 1.100.  With the shift terms formed as
        # broadcast products it was 1.260 and 1.068 (bounds 1.261, 1.082)
        cfg = with_n(replace(nonintegrable_cfg, x=800.0), 2038)
        n = cfg.resolved_n()
        assert not real_on_axis(cfg, "V")
        if cut:
            monkeypatch.setattr(determinants, "_BLOCK_BYTES", n * n)
        _, peak = self._peak(lambda: _det(cfg, "V"))
        assert peak <= bound * 16 * n * n

    def test_chi_at_far_path_peak(self, standard_cfg):
        # the 400 line points at distance 1/2 take r = 87 proxy points: the
        # first call builds the proxy densities through the transient real
        # (n, r) interpolation matrix; a (points x n) Cauchy matrix would be
        # four times the bound
        cfg = with_n(replace(standard_cfg, x=800.0), 2038)
        chi = solve_chi(cfg)
        n = chi.rule.size
        z = compactified_line_rule(400, cfg.numerics.map_scale).nodes \
            - 0.5j * cfg.c
        assert n == 2038
        _, peak = self._peak(lambda: chi.chi_at(z))
        assert peak < z.size * n * 16 / 4

    def test_peaks(self, cfg):
        # unit: a complex n x n array; the float64 matrix is half of it, a
        # block of float64 values (n/64 rows) 1/128 = 0.0078.  Measured at
        # n = 1059: V 0.542 (0.539 when the kernel's factors were evaluated
        # a block at a time, 0.561 with blocks of n/32 rows written into
        # the matrix rows, 0.586 returned), the solve 0.528, W 0.466.  V
        # and the solve are bounded less than two blocks above that
        n = cfg.resolved_n()
        unit = n ** 2 * 16
        _, peak_V = self._peak(lambda: _det(cfg, "V"))
        chi, peak_solve = self._peak(lambda: solve_chi(cfg))
        _, peak_W = self._peak(lambda: _det(cfg, "W", chi=chi))
        assert peak_V <= 0.55 * unit
        assert peak_solve <= 0.54 * unit
        assert peak_W < 0.5 * unit


def _complex_F(cfg):
    return replace(cfg, F=constant(0.4 + 0.2j))


def _kernel(cfg, which, points=complex):
    """V~ or V of ``cfg`` at points cast to ``points``: complex points take
    the complex path (the oracle), real ones the package's float64 path
    where ``real_on_axis`` holds."""
    pair = gsk_vector_pair(cfg)
    if which == "V":
        kernel = lambda l, m: general_kernel_V(l, m, pair, cfg.shift,
                                               cfg.delta0)
    else:
        kernel = lambda l, m: bracket_kernel(l, m, pair, cfg.delta0)
    return lambda l, m: kernel(np.asarray(l, points), np.asarray(m, points))


def _on_grid(cfg, which):
    lam = _interval_rule(cfg).nodes
    return _kernel(cfg, which)(lam, lam).values()


class TestRealArithmetic:
    """V~ and V factored in float64 where the config makes them real."""

    @pytest.mark.parametrize("name,real_V", [
        ("standard", True), ("general", True), ("trivial", True),
        ("nonintegrable", False)])
    def test_shipped_predicates(self, request, name, real_V):
        cfg = request.getfixturevalue(name + "_cfg")
        assert real_on_axis(cfg, "Vtilde")
        assert real_on_axis(cfg, "V") == real_V

    def test_predicate_follows_the_symmetry(self, standard_cfg):
        c = standard_cfg.c

        def table(gamma, v=(1, 2), cs=(-c, c)):
            return replace(standard_cfg, shift=ShiftSpec.make(gamma, cs, v))

        assert real_on_axis(table([1 + 0.3j, 1 - 0.3j]), "V")
        assert real_on_axis(table([0.7, 0.7], v=(2, 1)), "V")
        assert not real_on_axis(table([1 + 0.3j, 1 + 0.3j]), "V")
        assert not real_on_axis(table([1.0, 1.0], v=(1, 1)), "V")
        assert not real_on_axis(table([1.0, 1.0], cs=(-c, 2 * c)), "V")
        for cfg in (_complex_F(standard_cfg),
                    replace(standard_cfg, p=polynomial(
                        [0.0, 1.0, 0.1j]))):
            assert not real_on_axis(cfg, "Vtilde")
            assert not real_on_axis(cfg, "V")

    @pytest.mark.parametrize("name", ["standard", "general", "trivial",
                                      "nonintegrable"])
    def test_imaginary_part_is_rounding_noise_where_real(self, request, name):
        cfg = request.getfixturevalue(name + "_cfg")
        for which in ("Vtilde", "V"):
            K = _on_grid(cfg, which)
            if real_on_axis(cfg, which):
                assert np.max(np.abs(K.imag)) <= 1e-13 * np.max(np.abs(K))

    def test_imaginary_part_is_order_one_where_not(self, nonintegrable_cfg,
                                                   standard_cfg):
        for cfg, which in ((nonintegrable_cfg, "V"),
                           (_complex_F(standard_cfg), "Vtilde"),
                           (_complex_F(standard_cfg), "V")):
            # nonintegrable's defect is gamma_1 - gamma_2 = 0.3 in the shift
            # terms: 0.6 % of max|K| (the diagonal), ten orders above noise
            K = _on_grid(cfg, which)
            assert np.max(np.abs(K.imag)) > 1e-3 * np.max(np.abs(K))

    @pytest.mark.parametrize("x", [50.0, 400.0])
    @pytest.mark.parametrize("name", ["standard", "general", "trivial"])
    def test_matches_complex_oracle(self, request, name, x):
        cfg = replace(request.getfixturevalue(name + "_cfg"), x=x)
        chi = solve_chi(cfg)
        FL, FR, det_tilde = complex_resolvent(chi)
        assert _rel(chi.FL_nodes, FL) <= 1e-12
        assert _rel(chi.FR_nodes, FR) <= 1e-12
        assert abs(chi.det_tilde - det_tilde) <= 1e-12 * abs(det_tilde)
        for which in ("Vtilde", "V"):
            got = _det(cfg, which)
            assert got.value.imag == got.half.imag == 0.0   # the real path
            _assert_agrees(got, complex_det(_kernel(cfg, which), chi.rule))

    @pytest.mark.parametrize("x", [50.0, 400.0])
    @pytest.mark.parametrize("name", ["standard", "general", "trivial"])
    def test_real_kernels_match_the_complex_path(self, request, name, x):
        # float64 evaluation against the complex kernels on the full and
        # half rules; at x = 400 the grids hold off-diagonal near pairs
        # |lam - mu| < delta0 at the endpoints (standard: 152 and 24), which
        # come from the real part of bracket_dd.  Measured: at most
        # 9.6e-15 max|K| (standard, x = 50); the separable forms' own
        # rounding near the diagonal, the same in both arithmetics
        cfg = replace(request.getfixturevalue(name + "_cfg"), x=x)
        rule = _interval_rule(cfg)
        near_pairs = 0
        for r in (rule, rule.half()):
            lam = r.nodes
            near = near_diagonal_mask(lam[:, None], lam, cfg.delta0)
            near_pairs += int(near.sum()) - r.size
            for which in ("Vtilde", "V"):
                got = _kernel(cfg, which, points=float)(lam, lam).values()
                want = _kernel(cfg, which)(lam, lam).values()
                assert got.dtype == np.float64
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-14 * scale
                assert np.max(np.abs(got - want)[near]) <= 1e-14 * scale
        assert (near_pairs > 0) == (x == 400.0)

    @pytest.mark.parametrize("name", ["standard", "general", "trivial",
                                      "nonintegrable", "complex-F"])
    def test_kernel_blocks_are_float64_where_real(self, request, monkeypatch,
                                                  name):
        # the blocks each determinant binding assembles, solve_chi's kernel
        # (and so FL_at's blocks on W's half rule): float64 exactly where
        # real_on_axis holds, complex128 for nonintegrable's V and complex
        # F.  M returns its k = 0 planes alone and N's factors their k = 0
        # rows exactly where it holds for the table, and those matrices
        # are factored in float64
        cfg = (_complex_F(request.getfixturevalue("standard_cfg"))
               if name == "complex-F" else
               request.getfixturevalue(name + "_cfg"))
        seen, factored = [], []

        def spy(nystrom):
            def spied(kernel, rule, *args, **kwargs):
                def watched(lam, mu):
                    grid = kernel(lam, mu)

                    def block(rows):
                        K = grid.block(rows)
                        seen.append((K.dtype, K.shape[2:]))
                        return K
                    return Grid(grid.shape, block)
                return nystrom(watched, rule, *args, **kwargs)
            return spied

        det = determinants._det
        monkeypatch.setattr(determinants, "_det",
                            lambda D: factored.append(D.dtype) or det(D))
        for name in ("nystrom_det", "nystrom_det_matrix"):
            monkeypatch.setattr(experiments, name,
                                spy(getattr(experiments, name)))
        for which in ("Vtilde", "V"):
            seen.clear()
            _det(cfg, which)
            want = np.float64 if real_on_axis(cfg, which) else np.complex128
            assert seen and set(seen) == {(np.dtype(want), ())}
        chi = solve_chi(cfg)
        want = np.float64 if real_on_axis(cfg, "Vtilde") else np.complex128
        half = chi.rule.half().nodes
        assert chi.kernel(half, chi.rule.nodes).values().dtype == want
        # complex points are never evaluated in float64
        off = half + 0.5j
        assert (chi.kernel(off, chi.rule.nodes).values().dtype
                == np.complex128)
        # M's loop matrix and N's Sylvester matrix, of its low-rank
        # factors, on the rule and its half
        for which in ("M", "N"):
            seen.clear()
            factored.clear()
            _det(cfg, which, chi=chi)
            real = real_on_axis(cfg, which)
            if which == "M":
                assert set(seen) == {(np.dtype(complex),
                                      (1 if real else 2, 2))}
            else:
                assert not seen
            assert factored == [np.dtype(float if real else complex)] * 2

    def test_only_real_matrices_are_factored_in_float64(
            self, monkeypatch, nonintegrable_cfg, standard_cfg):
        factored = []
        det = determinants._det
        monkeypatch.setattr(determinants, "_det",
                            lambda D: factored.append(D.dtype) or det(D))
        for cfg, table in ((nonintegrable_cfg, np.complex128),
                           (standard_cfg, np.float64)):
            factored.clear()
            chi = solve_chi(cfg)
            for which in ("Vtilde", "V", "M", "N"):
                _det(cfg, which, chi=chi)
            # solve_chi factored V~ on the full rule: its half rule alone
            # here, then V, M and N on both rules
            assert factored == [np.float64] + [table] * 6

    def test_forced_real_path_fails_r1(self, monkeypatch, nonintegrable_cfg):
        # r1 = |det V - det V~ det W| / |det V| guards the realness decision:
        # dropping the O(1) imaginary part of nonintegrable's V breaks it
        assert verify_factorization(nonintegrable_cfg).passed["r1"]
        monkeypatch.setattr(kernels, "_swap_closed", lambda shift: True)
        rep = verify_factorization(nonintegrable_cfg)
        assert not rep.passed["r1"]
        assert rep.det_V.value.imag == 0.0

    def test_forced_real_path_fails_r2(self, monkeypatch, nonintegrable_cfg):
        # r2 = |det W - det M| / |det W| guards the decision for the loop:
        # nonintegrable's table is not closed under the swap, so its loop
        # matrix is not fixed by the k = 0 planes.  Measured: det M and
        # det N both off by 1.2e-3 relative; r3 stays at 1.7e-15, since the
        # forced loop and line still agree with each other
        assert verify_factorization(nonintegrable_cfg).passed["r2"]
        monkeypatch.setattr(kernels, "_swap_closed", lambda shift: True)
        rep = verify_factorization(nonintegrable_cfg)
        assert rep.r2 > 1e-4 and not rep.passed["r2"]
        assert rep.det_M_loop.value.imag == rep.det_N_line.value.imag == 0.0


class TestRealContour:
    """det(I+M) on the loop and det(I+N) on the line factored in float64
    where the config is real: M from its k = 0 planes, N from its factors'
    k = 0 rows, through the conjugation-swap similarity."""

    @pytest.mark.parametrize("x", [50.0, 400.0])
    @pytest.mark.parametrize("name", ["standard", "general", "trivial"])
    def test_matches_complex_oracle(self, request, name, x):
        # measured: at most 1.9e-14 relative (standard N at x = 50)
        cfg = replace(request.getfixturevalue(name + "_cfg"), x=x)
        chi = solve_chi(cfg)
        shift = cfg.shift
        full = {"M": (lambda l, m: M_kernel(l, m, chi, shift),
                      experiments._loop_rule(cfg)),
                "N": (lambda l, m: N_kernel(l, m, chi, shift, cfg.delta0),
                      _line_rule(cfg))}
        for which, (kernel, rule) in full.items():
            got = _det(cfg, which, chi=chi)
            assert got.value.imag == got.half.imag == 0.0   # the real path
            _assert_agrees(got, complex_det(kernel, rule, dim=2))

    def test_planes_are_the_full_kernels_first_row(self, standard_cfg,
                                                   standard_chi):
        shift = standard_cfg.shift
        for rule, kernel in (
                (experiments._loop_rule(standard_cfg),
                 lambda l, m, **kw: M_kernel(l, m, standard_chi, shift, **kw)),
                (_line_rule(standard_cfg),
                 lambda l, m, **kw: N_kernel(l, m, standard_chi, shift,
                                             standard_cfg.delta0, **kw))):
            lam = rule.nodes
            top = kernel(lam[:40], lam, collocation=True).values()
            full = kernel(lam[:40], lam).values()
            assert top.shape == (40, rule.size, 1, 2)
            assert np.array_equal(top[..., 0, :], full[..., 0, :])


class TestMpmathOracle:
    """40-digit Nystrom determinants of V and V~ on the package's own
    float64 rule of 48 nodes (and its 24-node half), kernels from the
    closed forms; of M and N on small loop and line rules, from the
    package's float64 kernel values (for N, the dense oracle's).

    The float64 value may differ by first-order perturbation of det(D):
    |d det / det| = |tr(D^-1 dD)| <= n cond(D) |dD| / |D|, and the matrix
    carries about 10 eps of relative rounding per entry (the phase x p / 2
    rounded in the separable factors, at x = 10) plus the LU's backward
    error, so the bound is 10 n cond(D) eps."""

    @pytest.mark.parametrize("name,which", [
        ("standard", "Vtilde"), ("standard", "V"), ("nonintegrable", "V")])
    def test_matches_40_digit_determinant(self, request, name, which):
        base = request.getfixturevalue(name + "_cfg")
        cfg = replace(base, x=10.0, numerics=replace(base.numerics,
                                                     n_interval=48))
        got = compute_determinant(cfg, which)
        assert (got.value.imag == 0.0) == real_on_axis(cfg, which)
        rule = _interval_rule(cfg)
        kernel = _kernel(cfg, which)
        with mp.workdps(40):
            for r, value in ((rule, got.value), (rule.half(), got.half)):
                want = complex(mp_nystrom_det(cfg, r, which == "V"))
                cond = np.linalg.cond(complex_collocation(kernel, r))
                bound = 10 * r.size * cond * np.finfo(float).eps
                assert abs(value - want) <= bound * abs(want)

    @pytest.mark.parametrize("which,m", [("M", 16), ("M", 24), ("N", 24)])
    @pytest.mark.parametrize("name", ["standard", "nonintegrable"])
    def test_contour_matches_40_digit_elimination(self, request, name, which,
                                                  m):
        # det(I + M) on a loop and det(I + N) on the line of m nodes (and
        # their halves, 8 or 12 and 16): the package's determinant (on
        # standard the float64 B from the k = 0 planes) against a 40-digit
        # elimination of the complex A from the same float64 nodes, weights
        # and kernel values, within 10 (m dim) cond(A) eps; N's from its
        # low-rank factors, against the elimination of the dense oracle's
        # values.  Measured: at most 1.4e-15 relative for M, 5.1e-15 (3.6 %
        # of the bound) for N
        base = request.getfixturevalue(name + "_cfg")
        size = {"m_loop" if which == "M" else "m_line": m}
        cfg = replace(base, numerics=replace(base.numerics, **size))
        chi, shift = solve_chi(cfg), cfg.shift
        got = _det(cfg, which, chi=chi)
        assert (got.value.imag == 0.0) == real_on_axis(cfg, which)
        if which == "M":
            rule = experiments._loop_rule(cfg)
            kernel = lambda l, m: M_kernel(l, m, chi, shift)
        else:
            rule = _line_rule(cfg)
            kernel = lambda l, m: N_kernel(l, m, chi, shift, cfg.delta0)
        assert rule.size == m
        with mp.workdps(40):
            for r, value in ((rule, got.value), (rule.half(), got.half)):
                z = r.nodes
                want = complex(mp_collocation_det(
                    kernel(z, z).values(), r.weights))
                cond = np.linalg.cond(complex_collocation(kernel, r, 2))
                bound = 10 * r.size * 2 * cond * np.finfo(float).eps
                assert abs(value - want) <= bound * abs(want)
