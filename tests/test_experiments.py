import json
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from shiftdet import cli, determinants, experiments
from shiftdet.determinants import DetResult, nystrom_det, nystrom_det_matrix
from shiftdet.experiments import (DET_KINDS, SweepRow, _comparison_row,
                                  _interval_rule, _loop_rule, _sweep_row,
                                  asymptotic_sweep, compute_determinant,
                                  fit_decay_slope, limit_determinants,
                                  m_vs_m0, verify_factorization)
from shiftdet.kernels import (ConfigError, NumericsConfig, ShiftSpec,
                              problem_config_from_json)
from shiftdet.quadrature import truncated_line_rule
from shiftdet.rhp import make_alpha, solve_chi

from closed_forms import M0_kernel, N_kernel, gsk_kernel, shift_kernel
from helpers import cli_ladder, constant, gridded, identity, real_on_axis


@pytest.fixture(scope="module")
def standard_report(standard_cfg):
    return verify_factorization(standard_cfg)


class TestVerifyFactorization:
    def test_standard_residuals(self, standard_report):
        assert standard_report.r1 < 1e-8
        assert standard_report.r2 < 1e-8
        assert standard_report.r3 < 1e-4

    def test_standard_certified(self, standard_report):
        assert all(standard_report.certified.values())

    def test_report_values_consistent(self, standard_report):
        rep = standard_report
        v = rep.det_V.value
        assert abs(v - rep.det_Vtilde.value * rep.det_W.value) < 1e-8 * abs(v)
        assert abs(rep.det_W.value - rep.det_M_loop.value) < 1e-8 * abs(v)
        assert abs(rep.det_M_loop.value
                   - rep.det_N_line.value) < 1e-3 * abs(v)

    def test_config_echo_reparses(self, standard_report, standard_cfg):
        echo = json.loads(json.dumps(standard_report.config_echo))
        back = problem_config_from_json(echo)
        assert back.x == standard_cfg.x
        assert back.numerics.m_loop == standard_cfg.numerics.m_loop

    def test_beyond_partial_fractions(self, nonintegrable_cfg):
        rep = verify_factorization(nonintegrable_cfg)
        assert rep.r1 < 1e-8
        assert rep.r2 < 1e-8

    def test_trivial_amplitude(self, trivial_cfg):
        rep = verify_factorization(trivial_cfg)
        for det in (rep.det_V, rep.det_Vtilde, rep.det_W, rep.det_M_loop,
                    rep.det_N_line):
            assert abs(det.value - 1.0) < 1e-12
        assert rep.r1 < 1e-12 and rep.r2 < 1e-12 and rep.r3 < 1e-12

    def test_vtilde_reuses_resolvent_determinant(self, standard_cfg,
                                                 standard_report):
        # one factorization of I + V~ per verify: the full-resolution value
        # comes from solve_chi, bit-equal to a fresh Nystrom determinant of
        # the same real matrix
        chi = solve_chi(standard_cfg)
        assert real_on_axis(standard_cfg, "Vtilde")
        fresh = nystrom_det(chi.kernel, chi.rule)
        assert standard_report.det_Vtilde.value == chi.det_tilde
        assert standard_report.det_Vtilde.value == fresh.value
        assert (standard_report.det_Vtilde.convergence_delta
                == fresh.convergence_delta)

    def test_doubled_resolution_stays_at_floor(self, standard_cfg):
        fine = replace(standard_cfg, numerics=NumericsConfig(
            n_interval=2 * standard_cfg.resolved_n(), m_loop=512,
            m_line=800))
        rep = verify_factorization(fine)
        assert rep.r1 < 1e-12
        assert rep.r2 < 1e-12

    def test_truncated_line_rule_cross_check(self, standard_cfg,
                                             standard_chi, standard_report):
        # the line determinant on the truncated rule [-100, 100] of 400
        # nodes: its O(1/T) tail leaves it ~2e-3 from the loop value
        det_N = nystrom_det_matrix(
            lambda l, m: N_kernel(l, m, standard_chi, standard_cfg.shift,
                                  standard_cfg.delta0),
            truncated_line_rule(400, 100.0),
            standard_cfg.shift.N)
        det_M = standard_report.det_M_loop.value
        assert abs(det_N.value - det_M) / abs(det_M) < 1e-2


@pytest.fixture(scope="module")
def sweep_rows(standard_cfg):
    return asymptotic_sweep(standard_cfg, [25.0, 50.0, 100.0, 200.0, 400.0])


class TestAsymptoticSweep:
    def test_errors_strictly_decrease(self, sweep_rows):
        errs = [r.err for r in sweep_rows]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_doubling_halves_error(self, sweep_rows):
        by_x = {r.x: r for r in sweep_rows}
        for x in (100.0, 200.0):
            ratio = by_x[x].err / by_x[2 * x].err
            assert 1.5 < ratio < 3.0

    def test_slope_near_minus_one(self, sweep_rows):
        slope = fit_decay_slope(sweep_rows)
        assert -1.3 < slope < -0.7

    def test_limit_is_x_independent(self, standard_cfg):
        lim50 = limit_determinants(replace(standard_cfg, x=50.0))
        lim200 = limit_determinants(replace(standard_cfg, x=200.0))
        for d50, d200 in zip(lim50, lim200):
            assert abs(d50.value - d200.value) < 1e-12 * abs(d50.value)

    def test_limit_equals_single_determinants(self, standard_cfg):
        # F is real: U- is factored, and U+ is its conjugate
        up, um = limit_determinants(standard_cfg)
        assert um == compute_determinant(standard_cfg, "Uminus")
        assert up == DetResult(um.value.conjugate(), um.half.conjugate(),
                               um.rule_size)

    @pytest.mark.parametrize("name", ["standard", "general"])
    def test_real_F_conjugate_is_the_factored_Uplus(self, request, name):
        # det(I+U+) = conj det(I+U-) on the stadium and on its half rule
        cfg = request.getfixturevalue(name + "_cfg")
        up = limit_determinants(cfg)[0]
        direct = compute_determinant(cfg, "Uplus")
        assert up.rule_size == direct.rule_size
        assert abs(up.value - direct.value) <= 1e-13 * abs(direct.value)
        assert abs(up.half - direct.half) <= 1e-13 * abs(direct.half)

    def test_complex_F_factors_both(self, monkeypatch, standard_cfg):
        cfg = replace(standard_cfg, F=constant(0.4 + 0.2j))
        factored = []
        det = experiments._det

        def spy(cfg, which, **kw):
            factored.append(which)
            return det(cfg, which, **kw)
        monkeypatch.setattr(experiments, "_det", spy)
        got = limit_determinants(cfg)
        assert sorted(factored) == ["Uminus", "Uplus"]
        assert got == (compute_determinant(cfg, "Uplus"),
                       compute_determinant(cfg, "Uminus"))

    def test_loop_across_the_U_poles_refused(self, tmp_path, capsys,
                                             standard_cfg):
        # c = 0.1 with shifts -+0.4: the table's loop height h = 0.1 crosses
        # the U+- poles at lam - mu = -+ 0.1 i; called directly,
        # limit_determinants returned 0.2943 - 1.1e-12i with only
        # NearIntervalWarnings.  It refuses with the message det prints
        cfg = replace(standard_cfg, c=0.1, shift=ShiftSpec.make(
            [1.0, 1.0], [-0.4, 0.4], [1, 2]))
        cfg.validate()
        with pytest.raises(ConfigError) as refused:
            limit_determinants(cfg)
        config = tmp_path / "narrow.json"
        config.write_text(json.dumps(cfg.to_json()))
        assert cli.main(["det", str(config), "--which", "Uplus"]) == 2
        assert capsys.readouterr().err == f"config error: {refused.value}\n"
        assert "strip h < c/2 = 0.05" in str(refused.value)

    def test_limit_factorizes(self, standard_cfg):
        d_up, d_um = limit_determinants(standard_cfg)
        d_m0 = compute_determinant(standard_cfg, "M0")
        prod = d_up.value * d_um.value
        assert abs(d_m0.value - prod) < 1e-12 * abs(prod)

    def test_trivial_amplitude_errors_vanish(self, trivial_cfg):
        rows = asymptotic_sweep(trivial_cfg, [50.0, 100.0, 200.0, 400.0])
        assert all(r.err < 1e-12 for r in rows)

    def test_non_canonical_table_rejected(self, nonintegrable_cfg):
        # det V on another table has a different large-x limit
        with pytest.raises(ConfigError, match="canonical"):
            asymptotic_sweep(nonintegrable_cfg, [50.0, 100.0, 200.0, 400.0])

    @pytest.mark.parametrize("name", ["standard", "general"])
    def test_row_matches_closed_form_row(self, request, name):
        # the row is built from the separable forms; the closed forms give
        # the same determinants up to the phase rounding of the factors
        cfg = replace(request.getfixturevalue(name + "_cfg"), x=100.0)
        # against a limit of exactly 1 with zero convergence delta
        row = _sweep_row(cfg, DetResult(1.0 + 0j, 1.0 + 0j, 1))
        rule = _interval_rule(cfg)
        det_S = nystrom_det(gridded(lambda l, m: shift_kernel(l, m, cfg)), rule)
        det_St = nystrom_det(gridded(lambda l, m: gsk_kernel(l, m, cfg)), rule)
        ratio = det_S.value / det_St.value
        assert abs(row.ratio - ratio) <= 1e-12 * abs(ratio)
        assert abs(row.err - abs(ratio - 1.0)) <= 1e-12 * abs(ratio)
        assert row.conv_delta == pytest.approx(
            max(det_S.convergence_delta, det_St.convergence_delta), abs=1e-13)

    @pytest.mark.parametrize("xs", [[], [50.0, -1.0, 100.0, 200.0],
                                    [100.0, 50.0, 200.0, 400.0],
                                    [50.0, 50.0, 100.0, 200.0]])
    def test_bad_grids_rejected(self, standard_cfg, xs):
        with pytest.raises(ConfigError):
            asymptotic_sweep(standard_cfg, xs)


class TestSlopeFit:
    @staticmethod
    def synthetic(law, xs=(50.0, 100.0, 200.0, 400.0, 800.0)):
        return [SweepRow(x=x, ratio=1.0 + law(x), limit=1.0, err=law(x),
                         conv_delta=1e-14, valid=True) for x in xs]

    def test_recovers_inverse_power(self):
        rows = self.synthetic(lambda x: 7.0 / x)
        assert abs(fit_decay_slope(rows) + 1.0) < 1e-12

    def test_recovers_inverse_square(self):
        rows = self.synthetic(lambda x: 3.0 / x ** 2)
        assert abs(fit_decay_slope(rows) + 2.0) < 1e-12

    def test_noise_floor_rows_are_dropped(self):
        rows = self.synthetic(lambda x: 7.0 / x)
        flat = [replace(r, err=5e-14) for r in rows]  # below 10x conv noise
        with pytest.raises(ConfigError, match="insufficient points"):
            fit_decay_slope(flat)

    def test_too_few_rows_rejected(self):
        rows = self.synthetic(lambda x: 7.0 / x, xs=(50.0, 100.0, 200.0))
        with pytest.raises(ConfigError, match="insufficient points"):
            fit_decay_slope(rows)


@pytest.fixture(scope="module")
def comparison_rows(standard_cfg):
    return m_vs_m0(standard_cfg, cli_ladder("m-vs-m0"))


class TestMVsM0:
    def test_default_grid(self, comparison_rows):
        assert [r.x for r in comparison_rows] == [50.0, 100.0, 200.0, 400.0]

    def test_error_decays_like_inverse_x(self, comparison_rows):
        by_x = {r.x: r for r in comparison_rows}
        for x in (50.0, 100.0, 200.0):
            ratio = by_x[2 * x].err / by_x[x].err
            assert 0.3 < ratio < 0.8   # err(2x)/err(x) ~ 1/2

    def test_rows_equal_single_determinants(self, standard_cfg,
                                            comparison_rows):
        row = comparison_rows[1]
        assert row.det_M == compute_determinant(
            replace(standard_cfg, x=row.x), "M")
        assert row.det_M0 == compute_determinant(standard_cfg, "M0")

    def test_m0_value_is_constant_in_x(self, comparison_rows):
        vals = {r.det_M0 for r in comparison_rows}
        assert len(vals) == 1

    def test_non_canonical_table_rejected(self, nonintegrable_cfg):
        with pytest.raises(ConfigError):
            m_vs_m0(nonintegrable_cfg, cli_ladder("m-vs-m0"))


class TestComputeDeterminant:
    def test_all_kinds_run(self, standard_cfg):
        vals = {}
        for which in DET_KINDS:
            res = compute_determinant(standard_cfg, which)
            assert np.isfinite(res.value)
            vals[which] = res.value
        assert abs(vals["V"] - vals["Vtilde"] * vals["W"]) \
            < 1e-8 * abs(vals["V"])
        assert abs(vals["M0"] - vals["Uplus"] * vals["Uminus"]) \
            < 1e-12 * abs(vals["M0"])

    def test_unknown_kind_rejected(self, standard_cfg):
        with pytest.raises(ConfigError):
            compute_determinant(standard_cfg, "Q")

    def test_trivial_values(self, trivial_cfg):
        for which in ("V", "M", "M0"):
            res = compute_determinant(trivial_cfg, which)
            assert abs(res.value - 1.0) < 1e-10

    @pytest.mark.parametrize("name", ["standard", "general", "trivial"])
    def test_m0_equals_dense_block_determinant(self, request, name):
        # the package multiplies det(I+U-) and det(I+U+); the oracle factors
        # the 2m x 2m collocation matrix of the block kernel diag(U-, U+)
        cfg = request.getfixturevalue(name + "_cfg")
        alpha = make_alpha(cfg)
        dense = nystrom_det_matrix(
            lambda l, m: M0_kernel(l, m, alpha, cfg.c),
            _loop_rule(cfg), 2)
        res = compute_determinant(cfg, "M0")
        assert res.rule_size == dense.rule_size == cfg.numerics.m_loop
        assert abs(res.value - dense.value) <= 1e-13 * abs(dense.value)
        assert abs(res.half - dense.half) <= 1e-13 * abs(dense.half)

    @pytest.mark.parametrize("name", ["standard", "trivial"])
    def test_limit_delta_is_the_products(self, request, name):
        # the half-resolution change of U+ U- can exceed max(dU+, dU-)
        cfg = request.getfixturevalue(name + "_cfg")
        up, um = limit_determinants(cfg)
        P, P_half = up.value * um.value, up.half * um.half
        delta = abs(P - P_half) / abs(P)
        assert compute_determinant(cfg, "M0").convergence_delta == delta
        rows = asymptotic_sweep(cfg, [25.0, 50.0, 100.0, 200.0])
        assert all(r.conv_delta >= delta for r in rows)
        assert any(r.conv_delta == delta for r in rows)


class TestEarlyMemoryRefusal:
    """An interval order whose float64 matrix cannot fit is refused before
    any rule is built or any determinant computed."""

    @pytest.fixture
    def unreachable(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("reached a solve or a determinant")
        monkeypatch.setattr(experiments, "solve_chi", fail)
        monkeypatch.setattr(experiments, "_det", fail)
        monkeypatch.setattr(experiments, "gauss_legendre_rule", fail)

    @staticmethod
    def _memory(monkeypatch, avail):
        monkeypatch.setattr(determinants, "_mem_available", lambda: avail)

    @staticmethod
    def _refusal(cfg):
        # the float64 interval matrix and LAPACK's copy: 2 n^2 entries of
        # 8 bytes (n = 104 on standard at x = 50: 173056)
        n = cfg.resolved_n()
        return rf"{n} nodes.*{2 * n * n * 8} bytes"

    def test_verify(self, monkeypatch, unreachable, standard_cfg):
        self._memory(monkeypatch, 10 ** 5)
        with pytest.raises(ConfigError, match=self._refusal(standard_cfg)):
            verify_factorization(standard_cfg)

    @pytest.mark.parametrize("which", ["V", "Vtilde", "W", "M", "N"])
    def test_interval_kinds(self, monkeypatch, unreachable, standard_cfg,
                            which):
        self._memory(monkeypatch, 10 ** 5)
        with pytest.raises(ConfigError, match=self._refusal(standard_cfg)):
            compute_determinant(standard_cfg, which)

    @pytest.mark.parametrize("which", ["M0", "Uplus", "Uminus"])
    def test_loop_kinds_are_not_refused_early(self, monkeypatch,
                                              standard_cfg, which):
        # they build no interval matrix; the loop matrix has its own check
        self._memory(monkeypatch, 10 ** 5)
        monkeypatch.setattr(experiments, "_det", lambda cfg, kind: kind)
        assert compute_determinant(standard_cfg, which) == which

    @pytest.mark.parametrize("ladder", [asymptotic_sweep, m_vs_m0])
    def test_ladder_checks_its_largest_x_first(self, monkeypatch, unreachable,
                                               standard_cfg, ladder):
        # n = 168 at x = 100 fits in 1 MB (677376 bytes), n = 295 at
        # x = 200 does not (2088600 bytes): refused before M0 and before
        # any row
        self._memory(monkeypatch, 10 ** 6)
        with pytest.raises(ConfigError, match=r"295 nodes at x = 200"):
            ladder(standard_cfg, [25.0, 50.0, 100.0, 200.0])


class TestOneRowAtATime:
    """The ladders run their rows one at a time, in x order."""

    def test_rows_are_the_row_functions_called_in_x_order(
            self, standard_cfg, sweep_rows, comparison_rows):
        det_M0 = experiments._det(standard_cfg, "M0")
        for rows, row in ((sweep_rows, _sweep_row),
                          (comparison_rows, _comparison_row)):
            assert rows == [row(replace(standard_cfg, x=r.x), det_M0)
                            for r in rows]

    @pytest.mark.parametrize("ladder, row, xs", [
        (asymptotic_sweep, "_sweep_row", [25.0, 50.0, 100.0, 200.0]),
        (m_vs_m0, "_comparison_row", [50.0, 100.0, 200.0])],
        ids=["sweep", "m-vs-m0"])
    def test_at_most_one_row_in_flight(self, monkeypatch, standard_cfg,
                                       ladder, row, xs):
        real, lock = getattr(experiments, row), threading.Lock()
        in_flight, peak, started = [0], [0], []

        def probe(cfg_x, det_M0):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
                started.append(cfg_x.x)
            try:
                time.sleep(0.02)    # a second row thread would overlap here
                return real(cfg_x, det_M0)
            finally:
                with lock:
                    in_flight[0] -= 1
        monkeypatch.setattr(experiments, row, probe)
        ladder(standard_cfg, xs)
        assert peak[0] == 1
        assert started == xs


class TestWorkerConfiguration:
    @pytest.mark.parametrize("workers", ["one", "one per x"])
    def test_rows_do_not_depend_on_the_thread_count(
            self, monkeypatch, standard_cfg, sweep_rows, comparison_rows,
            workers):
        # the ladders run on one worker; rows run on one thread per x equal
        # them, so no row reads state another row leaves behind
        real, asked = experiments.ThreadPoolExecutor, []
        xs = [r.x for r in sweep_rows]    # the longer of the two ladders

        def pool(max_workers):
            asked.append(max_workers)
            return real(max_workers=1 if workers == "one" else len(xs))
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", pool)
        assert asymptotic_sweep(standard_cfg, xs) == sweep_rows
        assert m_vs_m0(standard_cfg, cli_ladder("m-vs-m0")) == comparison_rows
        assert asked == [1, 1]


def test_invalid_config_rejected_up_front():
    cfg_kwargs = dict(a=-1.0, b=1.0, x=50.0, c=1.0,
                      F=constant(0.5), p=identity())
    from shiftdet.kernels import ProblemConfig
    bad = ProblemConfig(numerics=NumericsConfig(h=0.9), **cfg_kwargs)
    with pytest.raises(ConfigError, match="strip"):
        verify_factorization(bad)
