"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL line (run pytest with -s or read
captured stdout) so the whole gate can be audited at a glance.
"""
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from shiftdet import experiments
from shiftdet.experiments import (asymptotic_sweep, fit_decay_slope, m_vs_m0,
                                  verify_factorization)
from shiftdet.kernels import NumericsConfig
from shiftdet.quadrature import stadium_loop_rule
from shiftdet.rhp import (NearIntervalWarning, jump_residual_chi, make_alpha,
                          solve_chi)

from helpers import cli_ladder, transposed_jump_residual, with_n


def _report(tag, ok, detail):
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {tag}: {detail}"


@pytest.fixture(scope="module")
def standard_report(standard_cfg):
    t0 = time.perf_counter()
    report = verify_factorization(standard_cfg)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def nonintegrable_report(nonintegrable_cfg):
    return verify_factorization(nonintegrable_cfg)


@pytest.fixture(scope="module")
def sweep_result(standard_cfg):
    t0 = time.perf_counter()
    rows = asymptotic_sweep(standard_cfg, [25.0, 50.0, 100.0, 200.0, 400.0])
    return rows, time.perf_counter() - t0


def test_criterion_1_factorization_identity(standard_report):
    report, elapsed = standard_report
    ok = report.r1 < 1e-8 and report.r2 < 1e-8 and elapsed < 30.0
    _report("1 factorization", ok,
            f"r1={report.r1:.3e} r2={report.r2:.3e} t={elapsed:.2f}s")


def test_criterion_2_line_representation(standard_cfg, standard_report):
    report, _ = standard_report
    m = standard_cfg.numerics.m_line
    doubled = replace(standard_cfg, numerics=NumericsConfig(m_line=2 * m))
    r3_doubled = verify_factorization(doubled).r3
    # the base residual already sits at the quadrature noise floor, so the
    # doubled-rule value only has to avoid regressing above that floor
    ok = report.r3 < 1e-4 and r3_doubled < max(report.r3, 1e-10)
    _report("2 line representation", ok,
            f"r3={report.r3:.3e} at m_line={m}, {r3_doubled:.3e} at {2 * m}")


def test_criterion_3_beyond_partial_fractions(nonintegrable_report):
    report = nonintegrable_report
    ok = report.r1 < 1e-8 and report.r2 < 1e-8
    _report("3 generic shift table", ok,
            f"r1={report.r1:.3e} r2={report.r2:.3e}")


def test_criterion_4_decay_rate(sweep_result):
    rows, elapsed = sweep_result
    errs = [row.err for row in rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    slope = fit_decay_slope(rows)
    ok = decreasing and -1.3 < slope < -0.7 and elapsed < 300.0
    _report("4 asymptotic rate", ok,
            f"slope={slope:.4f} decreasing={decreasing} t={elapsed:.1f}s")


def test_criterion_5_limit_operator_band(standard_cfg):
    rows = m_vs_m0(standard_cfg, cli_ladder("m-vs-m0"))
    by_x = {row.x: row for row in rows}
    ratios = {x: by_x[x].err / by_x[2 * x].err for x in (100.0, 200.0)}
    decreasing = all(by_x[2 * x].err < by_x[x].err
                     for x in (50.0, 100.0, 200.0))
    ok = decreasing and all(1.5 <= r <= 3.0 for r in ratios.values())
    _report("5 M vs M0 band", ok,
            f"decreasing={decreasing} ratios=" +
            ",".join(f"{x:g}:{r:.3f}" for x, r in sorted(ratios.items())))


def test_criterion_6_alpha_closed_form(standard_cfg):
    alpha = make_alpha(standard_cfg)
    loop = stadium_loop_rule(standard_cfg.a, standard_cfg.b,
                             standard_cfg.resolved_h(),
                             standard_cfg.numerics.m_loop)
    nu = np.log(1.5) / (2j * np.pi)
    want = ((loop.nodes - standard_cfg.a)
            / (loop.nodes - standard_cfg.b)) ** nu
    worst = float(np.max(np.abs(alpha.alpha_at(loop.nodes) - want)))
    ok = worst < 1e-10
    _report("6 alpha closed form", ok, f"max dev={worst:.3e} on Gamma nodes")


def test_criterion_7_rhp_consistency(standard_cfg, standard_chi):
    rng = np.random.default_rng(2718)
    eye = np.eye(2)
    worst_inv = 0.0
    probes = 0
    while probes < 20:
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.0, 2.0))
        d = abs(z - complex(np.clip(z.real, -1.0, 1.0), 0.0))
        if d < standard_chi.near_threshold:
            continue
        probes += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearIntervalWarning)
            dev = np.max(np.abs(standard_chi.chi_at(z)
                                @ standard_chi.chi_inv_at(z) - eye))
        worst_inv = max(worst_inv, float(dev))

    scaled = {}
    for radius in (1e2, 1e3):
        dirs = np.exp(2j * np.pi * np.arange(8) / 8)
        scaled[radius] = radius * max(
            np.linalg.norm(standard_chi.chi_at(radius * d) - eye)
            for d in dirs)
    bounded = max(scaled.values()) < 10.0

    fine = solve_chi(with_n(standard_cfg, 256))
    good = jump_residual_chi(0.2, 1e-3, fine)
    bad = transposed_jump_residual(0.2, 1e-3, fine)

    ok = worst_inv < 1e-9 and bounded and good < 1e-2 and good < 0.1 * bad
    _report("7 RHP consistency", ok,
            f"inv={worst_inv:.3e} |chi-I||z|={scaled[1e2]:.3f}/"
            f"{scaled[1e3]:.3f} jump={good:.3e} wrong={bad:.3e}")


def test_criterion_8_trivial_suite(trivial_cfg):
    report = verify_factorization(trivial_cfg)
    dets = {
        "V": report.det_V.value,
        "Vtilde": report.det_Vtilde.value,
        "W": report.det_W.value,
        "M": report.det_M_loop.value,
        "N": report.det_N_line.value,
    }
    worst_det = max(abs(v - 1.0) for v in dets.values())
    worst_res = max(report.r1, report.r2, report.r3)
    ok = worst_det < 1e-12 and worst_res < 1e-12
    _report("8 trivial suite", ok,
            f"max|det-1|={worst_det:.3e} max residual={worst_res:.3e}")


def test_criterion_9_self_convergence(standard_report, nonintegrable_report,
                                      sweep_result):
    report, _ = standard_report
    deltas = {
        "V": report.det_V.convergence_delta,
        "Vtilde": report.det_Vtilde.convergence_delta,
        "W": report.det_W.convergence_delta,
        "M": report.det_M_loop.convergence_delta,
        "N": report.det_N_line.convergence_delta,
    }
    nonint = nonintegrable_report
    deltas.update({
        "V'": nonint.det_V.convergence_delta,
        "M'": nonint.det_M_loop.convergence_delta,
        "N'": nonint.det_N_line.convergence_delta,
    })
    rows, _ = sweep_result
    deltas.update({f"x={row.x:g}": row.conv_delta for row in rows})
    worst = max(deltas.values())
    ok = worst < 1e-9
    _report("9 self convergence", ok,
            f"max delta={worst:.3e} over {len(deltas)} determinants")


_CHAIN = ("det_V", "det_Vtilde", "det_W", "det_M_loop", "det_N_line")


def _certified_ok(cfg):
    """verify passes every gate, with r1 and r2 certified."""
    rep = verify_factorization(cfg)
    return (rep.ok(strict_line=True) and rep.certified["r1"]
            and rep.certified["r2"])


def test_criterion_10_interval_rule_size(request):
    # the default order, 4 nodes per period plus 40 above 10 periods,
    # certifies the chain and moves no determinant from its value at the
    # 8-per-period order (1019 on standard, 1325 on general at x = 400)
    cfgs = {name: request.getfixturevalue(name + "_cfg")
            for name in ("standard", "general", "nonintegrable")}
    uncertified = [(name, x) for name, cfg in cfgs.items()
                   for x in (48.5, 100.0, 412.0)
                   if not _certified_ok(replace(cfg, x=x))]
    worst = 0.0
    for name, n0 in (("standard", 1019), ("general", 1325)):
        cfg = replace(cfgs[name], x=400.0)
        new = verify_factorization(cfg)
        old = verify_factorization(with_n(cfg, n0))
        worst = max(worst, *(abs(getattr(new, k).value - getattr(old, k).value)
                             / abs(getattr(old, k).value) for k in _CHAIN))
    # just above 10 periods (n = 81) the default loop keeps off the
    # interval's near-cut zone, 10 (b - a)/n < h = 0.25
    near = replace(cfgs["general"], x=24.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NearIntervalWarning)
        near_ok = near.resolved_n() == 81 and _certified_ok(near)
    ok = not uncertified and worst <= 1e-12 and near_ok
    _report("10 interval rule size", ok,
            f"uncertified={uncertified} max rel change={worst:.1e} "
            f"general x=24.25 ok={near_ok}")


@pytest.mark.filterwarnings("ignore::shiftdet.rhp.NearIntervalWarning")
def test_criterion_11_line_rule_size(request):
    # the default 128-node line certifies r3 and gives the 400-node value;
    # at x = 25 (n = 64) the loop lies in the interval's near-cut zone
    worst, uncertified = 0.0, []
    for name in ("standard", "general", "nonintegrable", "trivial"):
        for x in (25.0, 50.0, 400.0):
            cfg = replace(request.getfixturevalue(name + "_cfg"), x=x)
            assert cfg.numerics.m_line == 128
            if not verify_factorization(cfg).certified["r3"]:
                uncertified.append((name, x))
            chi = solve_chi(cfg)
            N, N400 = (experiments._det(replace(cfg, numerics=replace(
                cfg.numerics, m_line=m)), "N", chi=chi) for m in (128, 400))
            worst = max(worst, abs(N.value - N400.value) / abs(N400.value))
    ok = not uncertified and worst <= 1e-12
    _report("11 line rule size", ok,
            f"uncertified r3={uncertified} max rel change={worst:.1e}")
