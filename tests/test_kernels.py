import json
import os
import re
from dataclasses import fields, replace
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftdet import determinants
from shiftdet.kernels import (ConfigError, FunctionSpec, Grid, NumericsConfig,
                              NumericError, ProblemConfig, ShiftSpec,
                              ToleranceConfig, M_kernel,
                              U_minus_kernel, U_plus_kernel,
                              _chebyshev_interpolant, _kernel_planes,
                              _near_entries, _phase_parts, _sinc,
                              bracket_kernel, cauchy_rank, eval_e,
                              general_kernel_V, gsk_shift_spec,
                              gsk_vector_pair, problem_config_from_json)
from shiftdet.quadrature import gauss_legendre_rule
from shiftdet.rhp import _base_kernel, make_alpha

from closed_forms import (M0_kernel, N_kernel, W_kernel, gsk_kernel,
                          shift_kernel)
from helpers import (bracket, constant, identity,
                     mask_near_diagonal_eval,
                     mask_patched_N, near_diagonal_mask, pointwise,
                     polynomial, scaled_gaussian, validate_regularity)

finite_c = st.complex_numbers(min_magnitude=0, max_magnitude=3,
                              allow_nan=False, allow_infinity=False)


def make_cfg(**kw):
    base = dict(a=-1.0, b=1.0, x=50.0, c=1.0,
                F=constant(0.5), p=identity())
    base.update(kw)
    return ProblemConfig(**base)


class TestFunctionSpec:
    @pytest.mark.parametrize("spec,z,want", [
        (constant(0.5), 2.0, 0.5),
        (constant(0.3 - 0.2j), 1.0, 0.3 - 0.2j),
        (polynomial([1.0, 2.0, 3.0]), 2.0, 1 + 4 + 12),
        (identity(), -0.7, -0.7),
        (scaled_gaussian(2.0, 0.5, 1.0), 0.5, 2.0),
    ])
    def test_value(self, spec, z, want):
        assert abs(spec.value(z) - want) < 1e-14

    def test_gaussian_value(self):
        g = scaled_gaussian(0.7, 0.2, 0.6)
        z = 1.1
        want = 0.7 * np.exp(-0.6 * (z - 0.2) ** 2)
        assert abs(g.value(z) - want) < 1e-15

    @pytest.mark.parametrize("spec", [
        constant(0.4),
        polynomial([0.0, 1.0, 0.0, 0.1]),
        scaled_gaussian(0.55, 0.2, 0.6),
    ])
    def test_deriv_matches_difference(self, spec):
        eps = 1e-6
        for z in (0.37, 0.21 - 0.43j):
            num = (spec.value(z + eps) - spec.value(z - eps)) / (2 * eps)
            assert abs(spec.deriv(z) - num) < 1e-8

    @pytest.mark.parametrize("spec", [
        constant(1.3),
        polynomial([2.0, -1.0, 0.5, 0.25]),
        scaled_gaussian(0.9, -0.3, 0.8),
    ])
    def test_divided_difference_separated(self, spec):
        rng = np.random.default_rng(3)
        z1 = rng.uniform(-1, 1, 10) + 1j * rng.uniform(-0.2, 0.2, 10)
        z2 = rng.uniform(-1, 1, 10) - 1j * rng.uniform(-0.2, 0.2, 10)
        direct = (spec.value(z1) - spec.value(z2)) / (z1 - z2)
        got = spec.divided_difference(z1, z2)
        np.testing.assert_allclose(got, direct, rtol=1e-13, atol=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite_c, min_size=1, max_size=6),
           st.floats(-2, 2), st.floats(-2, 2))
    def test_dd_identity_polynomial(self, coeffs, x1, x2):
        spec = polynomial(coeffs)
        z1, z2 = complex(x1), complex(x2)
        lhs = spec.divided_difference(z1, z2) * (z1 - z2)
        rhs = spec.value(z1) - spec.value(z2)
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))

    def test_json_round_trip(self):
        specs = [
            constant(0.25),
            constant(0.1 + 0.7j),
            polynomial([0.0, 1.0, 0.0, 0.1j]),
            scaled_gaussian(0.55, 0.2, 0.6),
        ]
        for spec in specs:
            blob = json.loads(json.dumps(spec.to_json()))
            back = FunctionSpec.from_json(blob)
            z = 0.3 + 0.1j
            assert abs(back.value(z) - spec.value(z)) < 1e-15
            assert back.kind == spec.kind

    def test_complex_scalar_encoding(self):
        blob = constant(0.1 + 0.7j).to_json()
        assert blob["value"] == {"_re": 0.1, "_im": 0.7}

    @pytest.mark.parametrize("blob", [
        {"kind": "sinusoid"},
        {"kind": "polynomial", "coeffs": []},
        {"kind": "constant", "value": "abc"},
        {"kind": "constant"},
    ])
    def test_bad_specs_rejected(self, blob):
        with pytest.raises((ConfigError, ValueError)):
            FunctionSpec.from_json(blob)

    def test_partial_complex_scalar_defaults_imag(self):
        spec = FunctionSpec.from_json({"kind": "constant",
                                       "value": {"_re": 1.5}})
        assert spec.value(0.0) == 1.5


class TestShiftSpec:
    def test_canonical_table(self):
        spec = gsk_shift_spec(make_cfg(c=0.8))
        np.testing.assert_allclose(spec.gamma, [1.0, 1.0])
        np.testing.assert_allclose(spec.c, [-0.8, 0.8])
        assert list(spec.v) == [1, 2]
        assert spec.N == 2

    @pytest.mark.parametrize("kw", [
        dict(gamma=[1.0], c=[0.0], v=[1]),
        dict(gamma=[1.0, 1.0], c=[1.0], v=[1, 2]),
        dict(gamma=[1.0], c=[1.0], v=[3]),
        dict(gamma=[1.0], c=[1.0], v=[0]),
        dict(gamma=[], c=[], v=[]),
    ])
    def test_invalid_tables(self, kw):
        with pytest.raises((ConfigError, ValueError)):
            ShiftSpec.make(**kw).validate(2)


class TestProblemConfig:
    def test_resolved_n_tracks_oscillation(self):
        assert make_cfg(x=25.0).resolved_n() == 64    # 8 per period
        assert make_cfg(x=31.0).resolved_n() == 79
        assert make_cfg(x=50.0).resolved_n() == 104   # 4 per period + 40
        assert make_cfg(x=400.0).resolved_n() == 550
        assert make_cfg(x=1600.0).resolved_n() == 2078
        assert make_cfg(x=1.0).resolved_n() == 64     # floor

    @pytest.mark.parametrize("p", [identity(), polynomial([0.0, 1.0, 0.0, 0.1])],
                             ids=["linear", "cubic"])
    def test_resolved_n_branches(self, p):
        # P periods: 8 nodes per period up to P = 10, where both branches
        # give 80; 4 per period plus 40 above; never below 64
        for x in np.concatenate([np.linspace(0.5, 60.0, 239),
                                 [100.0, 400.0, 1600.0, 3200.0]]):
            cfg = make_cfg(x=float(x), p=p)
            P = cfg.x * cfg.max_phase_slope() * (cfg.b - cfg.a) / (2 * np.pi)
            want = max(64, ceil(8 * P) if P <= 10 else ceil(4 * P) + 40)
            assert cfg.resolved_n() == want, x

    def test_resolved_h_default(self):
        assert make_cfg(c=1.0).resolved_h() == pytest.approx(0.25)
        assert make_cfg(c=0.5).resolved_h() == pytest.approx(0.125)

    def test_resolved_h_reads_the_shift_table(self):
        # the default comes from the table that validate checks it against:
        # with c = 1 but shifts -+0.4 the strip is |Im z| < 0.2
        narrow = make_cfg(shift=ShiftSpec.make([1.0, 1.0], [-0.4, 0.4], [1, 2]))
        assert narrow.resolved_h() == pytest.approx(0.1)
        narrow.validate()
        wide = make_cfg(shift=ShiftSpec.make([1.0, 1.0], [-1.0, 1.0], [1, 2]))
        assert wide.resolved_h() == 0.25

    def test_strip_violation_message(self):
        from shiftdet.kernels import NumericsConfig
        cfg = make_cfg(numerics=NumericsConfig(h=0.6))
        with pytest.raises(ConfigError, match="strip"):
            cfg.validate()

    def test_amplitude_at_one_rejected(self):
        cfg = make_cfg(F=constant(1.0))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_amplitude_near_one_warns(self):
        cfg = make_cfg(F=constant(0.95))
        with pytest.warns(RuntimeWarning):
            cfg.validate()

    def test_decreasing_phase_rejected(self):
        cfg = make_cfg(p=polynomial([0.0, -1.0]))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_json_round_trip(self, standard_cfg):
        blob = standard_cfg.to_json()
        back = problem_config_from_json(json.loads(json.dumps(blob)))
        assert back.x == standard_cfg.x
        assert back.resolved_n() == standard_cfg.resolved_n()
        lam, mu = 0.3, -0.2
        assert abs(gsk_kernel(lam, mu, back)
                   - gsk_kernel(lam, mu, standard_cfg)) < 1e-15

    def test_unknown_field_rejected(self, standard_cfg):
        blob = standard_cfg.to_json()
        blob["extra_knob"] = 1
        with pytest.raises(ConfigError):
            problem_config_from_json(blob)

    def test_readme_example_loads(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
        assert len(blocks) == 1
        cfg = problem_config_from_json(json.loads(blocks[0]))
        assert (cfg.a, cfg.b, cfg.x) == (-1.0, 1.0, 50.0)
        cfg.validate()

    @pytest.mark.parametrize("group,cls", [("numerics", NumericsConfig),
                                           ("tolerances", ToleranceConfig)])
    def test_readme_lists_every_config_field(self, group, cls):
        # the README's "Config format" section is the contract: a field
        # added or removed without it fails here
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("## Config format", 1)[1]
        section = section.split("\n## ", 1)[0]
        items = section.split(f"\n- `{group}`", 1)[1].split("\n- ", 1)[0]
        listed = [name for item in items.split("\n  - ")[1:]
                  for name in re.findall(r"`(\w+)`", item.split(":", 1)[0])]
        assert sorted(listed) == sorted(f.name for f in fields(cls))

    def test_block_size_is_the_shift_tables(self, nonintegrable_cfg):
        for cfg in (make_cfg(), nonintegrable_cfg):
            assert not hasattr(cfg, "N") and cfg.shift.N == 2
        with pytest.raises(TypeError):
            make_cfg(N=7)


class TestPlaneWaveAndSine:
    def test_half_phase_at_pi(self):
        cfg = make_cfg(x=np.pi)
        assert abs(eval_e(1.0, cfg) - 1j) < 1e-15

    def test_unimodular_on_reals(self):
        cfg = make_cfg(x=17.3)
        lam = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(np.abs(eval_e(lam, cfg)), 1.0, rtol=1e-14)

    def test_point_value(self):
        cfg = make_cfg(x=10.0)
        want = 0.5 * np.sin(2.5) / (np.pi * 0.5)
        assert abs(gsk_kernel(0.3, -0.2, cfg) - want) < 1e-14

    def test_diagonal_value(self):
        cfg = make_cfg(x=50.0)
        lam = np.array([0.0, 0.4, -0.9])
        want = 0.5 * 50.0 / (2 * np.pi)
        np.testing.assert_allclose(gsk_kernel(lam, lam, cfg), want, rtol=1e-13)

    def test_diagonal_matches_limit(self):
        cfg = make_cfg(x=50.0)
        lam = 0.123
        delta = 1e-6
        num = gsk_kernel(lam + delta / 2, lam - delta / 2, cfg)
        assert abs(gsk_kernel(lam, lam, cfg) - num) < 1e-9 * abs(num)

    def test_zero_amplitude(self):
        cfg = make_cfg(F=constant(0.0))
        assert gsk_kernel(0.2, 0.7, cfg) == 0.0

    def test_removable_point_consistency(self):
        # near form and direct form agree where both are trustworthy
        cfg = make_cfg(x=30.0)
        d0 = cfg.delta0
        lam = np.array([0.1, -0.5, 0.8])
        for scale in (10.0, 100.0):
            mu = lam + scale * d0
            # direct evaluation: sin(phase)/(pi*(lam-mu)) with F factor
            phi = 0.5 * cfg.x * (lam - mu)
            direct = 0.5 * np.sin(phi) / (np.pi * (lam - mu))
            np.testing.assert_allclose(gsk_kernel(lam, mu, cfg), direct,
                                       rtol=1e-9)

    def test_near_mask_threshold(self):
        d0 = make_cfg().delta0
        for mu, near in [(d0 / 10, True), (10 * d0, False)]:
            lam, mu = np.zeros(1), np.array([mu])
            i, _ = _near_entries(lam, mu, d0)
            assert i.size == near


class TestShiftKernel:
    def test_diagonal_value(self):
        # F(lam) * (x p'(lam) + 2/c) / (2 pi) with constant F = 0.5
        cfg = make_cfg(x=50.0, c=1.0)
        want = 0.5 * (50.0 + 2.0 / 1.0) / (2 * np.pi)
        got = shift_kernel(0.3, 0.3, cfg)
        assert abs(got - want) < 1e-12 * abs(want)

    def test_diagonal_matches_limit(self):
        cfg = make_cfg(x=20.0, c=0.7)
        lam = -0.37
        delta = 1e-6
        num = shift_kernel(lam + delta / 2, lam - delta / 2, cfg)
        assert abs(shift_kernel(lam, lam, cfg) - num) < 1e-8 * abs(num)

    def test_pole_rejected(self):
        cfg = make_cfg(c=1.0)
        with pytest.raises(ValueError):
            shift_kernel(0.3 + 1j * 1.0, 0.3, cfg)

    def test_partial_fractions_match_general_form(self):
        cfg = make_cfg(x=35.0, c=0.9)
        pair = gsk_vector_pair(cfg)
        table = gsk_shift_spec(cfg)
        rng = np.random.default_rng(7)
        lam = rng.uniform(-1, 1, 100)
        mu = rng.uniform(-1, 1, 100)
        lhs = shift_kernel(lam, mu, cfg)
        rhs = pointwise(lambda l, m: general_kernel_V(
            l, m, pair, table, delta0=cfg.delta0), lam, mu)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(5, 60),
           st.floats(0.4, 2.0))
    def test_partial_fractions_property(self, lam, mu, x, c):
        cfg = make_cfg(x=x, c=c)
        lhs = shift_kernel(lam, mu, cfg)
        rhs = pointwise(lambda l, m: general_kernel_V(
            l, m, gsk_vector_pair(cfg), gsk_shift_spec(cfg),
            delta0=cfg.delta0), lam, mu)[0]
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


class TestVectorPair:
    def test_bracket_vanishes_on_diagonal(self):
        pair = gsk_vector_pair(make_cfg(x=25.0))
        lam = np.linspace(-1.0, 1.0, 17)
        np.testing.assert_allclose(bracket(pair, lam, lam), 0.0, atol=1e-15)

    def test_regularity_check_passes(self):
        pair = gsk_vector_pair(make_cfg(x=25.0))
        validate_regularity(pair, -1.0, 1.0)

    def test_bracket_ratio_is_base_kernel(self):
        cfg = make_cfg(x=25.0)
        pair = gsk_vector_pair(cfg)
        rng = np.random.default_rng(5)
        lam = rng.uniform(-1, 1, 10)
        mu = rng.uniform(-1, 1, 10)
        np.testing.assert_allclose(bracket(pair, lam, mu) / (lam - mu),
                                   gsk_kernel(lam, mu, cfg), rtol=1e-13)

    def test_regularity_violation_caught(self):
        from shiftdet.kernels import VectorPairSpec
        ones = lambda z: np.ones(np.shape(z) + (1,), dtype=complex)
        bad = VectorPairSpec(N=1, E_L=ones, E_R=ones,
                             bracket_dd=lambda lam, mu: np.zeros(
                                 np.broadcast(lam, mu).shape, complex))
        with pytest.raises((ConfigError, ValueError)):
            validate_regularity(bad, -1.0, 1.0)


class TestGeneralV:
    def test_zero_gamma_reduces_to_base(self):
        cfg = make_cfg(x=25.0)
        pair = gsk_vector_pair(cfg)
        table = ShiftSpec.make(gamma=[0.0, 0.0], c=[-1.0, 1.0], v=[1, 2])
        lam = np.linspace(-0.9, 0.9, 7)
        mu = lam[::-1].copy()
        np.testing.assert_allclose(
            pointwise(lambda l, m: general_kernel_V(
                l, m, pair, table, delta0=cfg.delta0), lam, mu),
            gsk_kernel(lam, mu, cfg), rtol=1e-13)

    def test_zero_left_vectors_give_zero(self):
        cfg = make_cfg(x=25.0)
        from dataclasses import replace
        pair = gsk_vector_pair(cfg)
        zero = replace(pair,
                       E_L=lambda z: np.zeros(np.shape(z) + (2,), complex),
                       bracket_dd=lambda lam, mu: np.zeros(
                           np.broadcast(lam, mu).shape, complex))
        table = gsk_shift_spec(cfg)
        out = pointwise(lambda l, m: general_kernel_V(
            l, m, zero, table, delta0=cfg.delta0), 0.3, -0.1)
        assert abs(out[0]) < 1e-14


class TestDressedKernels:
    def test_cauchy_rank_follows_the_bernstein_ellipse(self):
        # rho = 1 + sqrt(2) at |c| = half-width: ceil(ln 1e18 / ln rho)
        assert cauchy_rank(1.0, -1.0, 1.0) == cauchy_rank(-2.0, 0.0, 4.0) == 48
        ranks = [cauchy_rank(c, -1.0, 1.0) for c in (2.0, 1.0, 0.3, 0.1)]
        assert ranks == sorted(ranks) and ranks[-1] > 400

    @pytest.mark.parametrize("c", [1.0, -0.3])
    def test_chebyshev_interpolant_reproduces_cauchy_factor(self, c):
        r = cauchy_rank(c, -1.0, 1.0)
        pts = np.concatenate([np.random.default_rng(1).uniform(-1, 1, 300),
                              [1.0, -1.0]]).astype(complex)
        t, P = _chebyshev_interpolant(pts, r, -1.0, 1.0)
        assert P.shape == (302, r)
        assert P[-2, 0] == 1.0 and P[-1, -1] == 1.0     # exact node hits
        approx = P @ (1.0 / (t[:, None] - t[None, :] + 1j * c)) @ P.T
        exact = 1.0 / (pts[:, None] - pts[None, :] + 1j * c)
        assert np.max(np.abs(approx - exact)) < 1e-14 / abs(c)

    def test_W_zero_gamma_vanishes(self, standard_cfg, standard_chi):
        pair = gsk_vector_pair(standard_cfg)
        table = ShiftSpec.make(gamma=[0.0, 0.0],
                               c=[-standard_cfg.c, standard_cfg.c], v=[1, 2])
        out = W_kernel(0.2, -0.3, standard_chi, pair, table)
        assert abs(out) < 1e-14

    def test_W_trivial_amplitude_vanishes(self, trivial_cfg, trivial_chi):
        pair = gsk_vector_pair(trivial_cfg)
        table = gsk_shift_spec(trivial_cfg)
        out = W_kernel(0.2, -0.3, trivial_chi, pair, table)
        assert abs(out) < 1e-13

    def test_M_trivial_amplitude_closed_form(self, trivial_cfg, trivial_chi):
        table = gsk_shift_spec(trivial_cfg)
        lam, mu = 0.3 - 0.25j, -0.4 - 0.25j
        got = M_kernel(np.array([lam]), np.array([mu]), trivial_chi,
                       table).values()[0, 0]
        want = np.zeros((2, 2), dtype=complex)
        for k in range(2):
            for l in range(2):
                if table.v[k] - 1 == l:
                    want[k, l] = table.gamma[k] / (
                        2j * np.pi * (lam - mu + 1j * table.c[l]))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_N_trivial_amplitude_vanishes(self, trivial_cfg, trivial_chi):
        table = gsk_shift_spec(trivial_cfg)
        got = N_kernel(np.array([0.4]), np.array([-0.1]), trivial_chi, table,
                       trivial_cfg.delta0).values()
        np.testing.assert_allclose(got, 0.0, atol=1e-13)

    def test_M_strip_violation_rejected(self, standard_cfg, standard_chi):
        # lam - mu = +i hits the pole at -i*c_1 with the canonical c = 1
        table = gsk_shift_spec(standard_cfg)
        lam = np.array([0.0 + 0.5j])
        mu = np.array([0.0 - 0.5j])
        with pytest.raises(ValueError, match="strip"):
            M_kernel(lam, mu, standard_chi, table).values()

    @pytest.mark.parametrize("U,sign", [(U_plus_kernel, 1),
                                        (U_minus_kernel, -1)],
                             ids=["Uplus", "Uminus"])
    def test_U_pole_guard(self, standard_cfg, U, sign):
        # off the axis lam - mu = -+ i c reaches U+-'s pole, which the plane
        # evaluator's guard refuses, as it does for M
        alpha = make_alpha(standard_cfg)
        c = standard_cfg.c
        lam = np.array([0.1 - sign * 0.5j * c])
        mu = np.array([0.1 + sign * 0.5j * c])
        with pytest.raises(ValueError, match="shifted pole.*strip"):
            U(lam, mu, alpha, c).values()
        assert np.isfinite(U(lam, mu.real, alpha, c).values()).all()

    def test_U_trivial_amplitude_closed_form(self, trivial_cfg):
        # alpha == 1 when F == 0; probe off-axis like the loop rule does
        alpha = make_alpha(trivial_cfg)
        c = trivial_cfg.c
        lam, mu = 0.3 - 0.25j, -0.2 - 0.25j
        up = pointwise(lambda l, m: U_plus_kernel(l, m, alpha, c), lam, mu)[0]
        um = pointwise(lambda l, m: U_minus_kernel(l, m, alpha, c), lam, mu)[0]
        assert abs(up - 1 / (2j * np.pi * (lam - mu + 1j * c))) < 1e-14
        assert abs(um - 1 / (2j * np.pi * (lam - mu - 1j * c))) < 1e-14

    def test_M0_block_layout(self, standard_cfg):
        alpha = make_alpha(standard_cfg)
        c = standard_cfg.c
        lam, mu = np.array([0.15 + 0.25j]), np.array([-0.35 + 0.25j])
        blk = M0_kernel(lam, mu, alpha, c).values()[0, 0]
        assert blk.shape == (2, 2)
        assert blk[0, 1] == 0.0 and blk[1, 0] == 0.0
        assert abs(blk[0, 0]
                   - U_minus_kernel(lam, mu, alpha, c).values()[0, 0]) < 1e-15
        assert abs(blk[1, 1]
                   - U_plus_kernel(lam, mu, alpha, c).values()[0, 0]) < 1e-15


# --------------------------------------------------------------------------
# masked near-diagonal assembly against the full-grid np.where formulas
# --------------------------------------------------------------------------
# The oracles below evaluate both branches on every entry of a column of
# row points against a row of column points and select with np.where; the
# kernels evaluate the series only on the near entries.  The two must agree
# bit for bit, not merely to rounding.  The bracket and V's shift terms are
# contracted as the kernels' plane evaluator contracts them
# (_plane_product): the property under test is the near-entry selection,
# and einsum's complex contraction rounds 0.6 % of the entries of a
# 1019-node grid differently in the last bit (at most 2.2e-15 of max|K|),
# as does a broadcast product against a GEMM of inner dimension 1.

def _plane_product(EL, ER):
    """sum_r EL_r ER_r as ``_kernel_planes`` forms a plane: one GEMM of
    the factors at the column of row points and at the row of column
    points."""
    r = EL.shape[-1]
    out = EL.reshape(-1, r) @ ER.reshape(-1, r).T
    return out.reshape(np.broadcast_shapes(EL.shape[:-1], ER.shape[:-1]))


def _plane_bracket(lam, mu, pair):
    return _plane_product(pair.E_L(lam), pair.E_R(mu))


def _where_gsk(lam, mu, cfg):
    lam, mu, phi, ddp = _phase_parts(lam, mu, cfg)
    F = cfg.F.value(lam)
    near = F * (0.5 * cfg.x) * ddp * _sinc(phi) / np.pi
    mask = near_diagonal_mask(lam, mu, cfg.delta0)
    d = np.where(mask, 1.0, lam - mu)
    direct = F * np.sin(phi) / (np.pi * d)
    return np.where(mask, near, direct)


def _where_shift(lam, mu, cfg):
    lam, mu, phi, ddp = _phase_parts(lam, mu, cfg)
    c = cfg.c
    d = lam - mu
    F = cfg.F.value(lam)
    near = (F * c * (np.cos(phi) + c * (0.5 * cfg.x) * ddp * _sinc(phi))
            / (np.pi * (d * d + c * c)))
    mask = near_diagonal_mask(lam, mu, cfg.delta0)
    dsafe = np.where(mask, 1.0, d)
    direct = (1j * c * F / (2j * np.pi * dsafe)
              * (np.exp(1j * phi) / (d + 1j * c) + np.exp(-1j * phi) / (d - 1j * c)))
    return np.where(mask, near, direct)


def _where_base(lam, mu, pair, delta0):
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    mask = near_diagonal_mask(lam, mu, delta0)
    dsafe = np.where(mask, 1.0, lam - mu)
    return np.where(mask, pair.bracket_dd(lam, mu),
                    _plane_bracket(lam, mu, pair) / dsafe)


def _where_V(lam, mu, pair, shift, delta0):
    lam = np.asarray(lam, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    d = lam - mu
    out = _where_base(lam, mu, pair, delta0)
    EL = pair.E_L(lam)
    ER = pair.E_R(mu)
    for a, (g, c, v) in enumerate(zip(shift.gamma, shift.c, shift.v0)):
        term = _plane_product((g * EL[..., a])[..., None],
                              ER[..., v][..., None])
        out = out - term / (d + 1j * c)
    return out


class TestMaskedAssembly:
    @pytest.fixture(scope="class", params=["standard", "general"])
    def large_n(self, request):
        # n = 1019 is the smallest standard-config size with off-diagonal
        # near pairs (152, all near the endpoints); at n = 64 there are none.
        # Complex nodes: the complex path, which real nodes of a pair marked
        # real would bypass (TestRealArithmetic checks the float64 one)
        cfg = replace(request.getfixturevalue(request.param + "_cfg"), x=400.0)
        nodes = gauss_legendre_rule(1019, cfg.a, cfg.b).nodes.astype(complex)
        return cfg, gsk_vector_pair(cfg), nodes

    @staticmethod
    def _pairs(nodes):
        """1-D row and column points of each case."""
        return {
            "grid": (nodes, nodes),
            # ChiSolution.FL_at: a block of points against the nodes; the
            # first rows hold the left endpoint's near pairs
            "FL_at": (nodes[:16], nodes),
            "scalar": (nodes[3:4], nodes[4:5]),
            "diagonal": (nodes[3:4], nodes[3:4]),
        }

    def test_grid_has_off_diagonal_near_pairs(self, large_n):
        cfg, _, nodes = large_n
        mask = near_diagonal_mask(nodes[:, None], nodes[None, :], cfg.delta0)
        assert mask.sum() - nodes.size == 152
        assert near_diagonal_mask(nodes[3], nodes[4], cfg.delta0)

    @pytest.mark.parametrize("which", ["grid", "FL_at", "scalar", "diagonal"])
    def test_bit_equal_to_full_grid_formulas(self, large_n, which):
        cfg, pair, nodes = large_n
        lam, mu = self._pairs(nodes)[which]
        col, row = lam[:, None], mu[None, :]
        base = _base_kernel(pair, cfg.delta0)
        for got, want in [
            (gsk_kernel(col, row, cfg), _where_gsk(col, row, cfg)),
            (shift_kernel(col, row, cfg), _where_shift(col, row, cfg)),
            (general_kernel_V(lam, mu, pair, cfg.shift, cfg.delta0).values(),
             _where_V(col, row, pair, cfg.shift, cfg.delta0)),
            (base(lam, mu).values(), _where_base(col, row, pair, cfg.delta0)),
        ]:
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)

    @staticmethod
    def _ones(lam, mu, s, near, rows=None):
        """1 / (lam - mu + i s_kl) planes with the near option."""
        N = len(s)
        rows = [np.ones(lam.shape + (1,))] * N if rows is None else rows
        return _kernel_planes(lam, mu, rows, [np.ones(mu.shape + (1,))] * N,
                              np.asarray(s, dtype=float),
                              near=(1e-4, near)).values()

    def test_series_only_on_masked_entries(self):
        # the near values are asked once per s = 0 plane, of exactly the
        # entries |lam - mu| < delta0 in row-major order; s != 0 planes keep
        # their quotient
        seen = []

        def near(k, l, lam, mu):
            seen.append((k, l, lam, mu))
            return np.zeros(lam.shape, complex)

        lam = np.array([0.0, 0.5, 1.0, 1.00005])
        out = self._ones(lam, lam, [[0.0, 1.0], [1.0, 0.0]], near)
        i, j = np.nonzero(near_diagonal_mask(lam[:, None], lam, 1e-4))
        assert [(k, l) for k, l, _, _ in seen] == [(0, 0), (1, 1)]
        for _, _, lam_near, mu_near in seen:
            assert np.array_equal(lam_near, lam[i])
            assert np.array_equal(mu_near, lam[j])
        for k in range(2):
            np.testing.assert_array_equal(np.diag(out[..., k, k]), 0.0)
            assert out[0, 1, k, k] == 1.0 / (0.0 - 0.5)
        assert out[2, 2, 0, 1] == 1.0 / 1j

    def test_real_planes_refuse_complex_near_values(self):
        # real points and factors with every s_kl = 0 give float64 planes,
        # into which a complex near value is refused, never cut to its
        # real part; complex factors give complex planes
        def real(k, l, lam, mu):
            return np.zeros(lam.shape)

        def imaginary(k, l, lam, mu):
            return np.full(lam.shape, 2j)

        lam = np.array([0.0, 0.5, 1.0])
        out = self._ones(lam, lam, [[0.0]], real)
        assert out.dtype == np.float64
        assert out[0, 1, 0, 0] == 1.0 / (0.0 - 0.5)
        with pytest.raises(NumericError, match="complex near values"):
            self._ones(lam, lam, [[0.0]], imaginary)
        out = self._ones(lam, lam, [[0.0]], imaginary,
                         rows=[np.full(lam.shape + (1,), 1 + 0j)])
        assert out.dtype == np.complex128
        np.testing.assert_array_equal(np.diag(out[..., 0, 0]), 2j)


class TestBandedNearEntries:
    """Row points against column points with sorted real parts (every
    Gauss rule) find their near entries by bisection, unsorted columns by
    the exact test on the whole grid; either way the plane evaluator's
    result is bit for bit the full-mask evaluation."""

    @staticmethod
    def _near(seen):
        def near(l, m):
            seen.append(l.size)
            return np.cos(l) * m + 1.0
        return near

    def _check(self, lam, mu):
        seen, want_seen = [], []
        near = self._near(seen)
        got = _kernel_planes(lam, mu, [np.sin(lam)[..., None]],
                             [np.ones(mu.shape + (1,))], np.zeros((1, 1)),
                             near=(2e-4, lambda k, l, x, y: near(x, y)))
        got = got.values()[..., 0, 0]
        want = mask_near_diagonal_eval(lam[:, None], mu[None, :], 2e-4,
                                       lambda l, m, d: np.sin(l) / d,
                                       self._near(want_seen))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert seen == want_seen
        return sum(seen)

    @pytest.mark.parametrize("n", [64, 128, 1019, 2038, 4075])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_gauss_row_blocks(self, n, dtype):
        nodes = gauss_legendre_rule(n, -1.0, 1.0).nodes.astype(dtype)
        near = 0
        for i0 in range(0, n, 256):
            near += self._check(nodes[i0:i0 + 256], nodes)
        # the diagonal, plus the endpoint clusters from n = 1019 on
        assert near == n if n < 1019 else near > n

    def test_off_axis_column(self):
        # |Re d| < 2 delta0 keeps candidates whose imaginary part puts them
        # out of |d| < delta0; the exact test drops them
        nodes = gauss_legendre_rule(2038, -1.0, 1.0).nodes
        on_axis = self._check(nodes, nodes)
        assert 0 < self._check(nodes + 1.5e-4j, nodes) < on_axis

    @pytest.mark.parametrize("order", ["permuted", "reversed"])
    def test_unsorted_columns_take_the_full_test(self, order):
        # (row, column) index arrays equal to np.nonzero of the exact test
        # on the whole grid; the reversed case has one row exactly on a node
        nodes = gauss_legendre_rule(2038, -1.0, 1.0).nodes
        if order == "permuted":
            lam, mu = nodes, np.random.default_rng(3).permutation(nodes)
        else:
            lam, mu = np.array([-0.3, nodes[700], nodes[3] + 1e-4]), nodes[::-1]
        want = np.nonzero(np.abs(lam[:, None] - mu) < 2e-4)
        got = _near_entries(lam, mu, 2e-4)
        assert isinstance(got, tuple) and len(got) == 2
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert self._check(lam, mu) > (2038 if order == "permuted" else 1)


class TestOneKernelContract:
    """Every package kernel maps 1-D row points against 1-D column points
    to a ``Grid`` of shape (rows, columns), plus (K, N) for a matrix
    kernel, whose row blocks are its values bit for bit."""

    ROWS = np.linspace(-0.9, 0.9, 7)
    # 11 unsorted columns, two on row points: near entries in rows 1 and 5,
    # one on each side of the blocks' split
    COLS = np.random.default_rng(11).permutation(
        np.concatenate([np.linspace(-0.95, 0.95, 9), ROWS[[1, 5]]]))

    @classmethod
    def _case(cls, request, which):
        """(grid, dtype, cell) of one kernel; M and U+- on points off the
        axis inside their strip, the rows below it, the columns above."""
        lam, mu = cls.ROWS, cls.COLS
        name = "nonintegrable" if which == "V-complex" else "standard"
        cfg = request.getfixturevalue(name + "_cfg")
        pair, d0 = gsk_vector_pair(cfg), cfg.delta0
        off_lam, off_mu = lam - 0.25j, mu + 0.25j
        if which.startswith("M"):
            chi = request.getfixturevalue("standard_chi")
            colloc = which == "M-collocation"
            return (M_kernel(off_lam, off_mu, chi, cfg.shift,
                             collocation=colloc),
                    complex, (1 if colloc else 2, 2))
        if which.startswith("U"):
            U = U_plus_kernel if which == "Uplus" else U_minus_kernel
            return U(off_lam, off_mu, make_alpha(cfg), cfg.c), complex, ()
        return {
            "Vtilde-float64": (bracket_kernel(lam, mu, pair, d0), float, ()),
            "Vtilde-complex": (bracket_kernel(lam.astype(complex), mu, pair,
                                              d0), complex, ()),
            "V-real": (general_kernel_V(lam, mu, pair, cfg.shift, d0),
                       float, ()),
            "V-complex": (general_kernel_V(lam, mu, pair, cfg.shift, d0),
                          complex, ()),
            "chi.kernel": (request.getfixturevalue("standard_chi").kernel(
                lam, mu), float, ()),
        }[which]

    @pytest.mark.parametrize("which", [
        "Vtilde-float64", "Vtilde-complex", "V-real", "V-complex", "M",
        "M-collocation", "Uplus", "Uminus", "chi.kernel"])
    def test_row_blocks_are_the_values(self, request, which):
        grid, dtype, cell = self._case(request, which)
        values = grid.values()
        assert grid.shape == values.shape == (7, 11) + cell
        assert values.dtype == dtype
        blocks = np.concatenate([grid.block(slice(0, 3)),
                                 grid.block(slice(3, 7))])
        assert np.array_equal(blocks, values)

    def test_points_of_other_shapes_are_refused(self, standard_cfg):
        pair, d0 = gsk_vector_pair(standard_cfg), standard_cfg.delta0
        with pytest.raises(ValueError, match="1-D row and column points"):
            bracket_kernel(self.ROWS[:, None], self.COLS[None, :], pair, d0)
        with pytest.raises(ValueError, match="1-D row and column points"):
            general_kernel_V(0.3, -0.1, pair, standard_cfg.shift, d0)


# --------------------------------------------------------------------------
# one kernel per operator: the separable forms against the closed forms
# --------------------------------------------------------------------------

class TestSeparableForms:
    @pytest.fixture(scope="class", params=[("standard", 50.0), ("standard", 400.0),
                                           ("general", 50.0), ("general", 400.0)])
    def grid(self, request):
        name, x = request.param
        cfg = replace(request.getfixturevalue(name + "_cfg"), x=x)
        nodes = gauss_legendre_rule(cfg.resolved_n(), cfg.a, cfg.b).nodes
        return cfg, gsk_vector_pair(cfg), nodes

    def test_match_closed_forms_on_the_node_grid(self, grid):
        # the separable forms round the phase x p / 2 inside each factor
        # instead of the difference x (p(lam) - p(mu)) / 2, an absolute error
        # of ~eps x max|p| / (pi |lam - mu|); measured normwise 1.2e-13 at
        # x = 50 and 3.3e-13 to 6.4e-13 at x = 400 (n = 1019, 1325)
        cfg, pair, nodes = grid
        col, row = nodes[:, None], nodes[None, :]
        for got, want in [
            (general_kernel_V(nodes, nodes, pair, cfg.shift,
                              cfg.delta0).values(),
             shift_kernel(col, row, cfg)),
            (bracket_kernel(nodes, nodes, pair, cfg.delta0).values(),
             gsk_kernel(col, row, cfg)),
        ]:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_pole_guard(self):
        cfg = make_cfg(c=1.0)
        pair = gsk_vector_pair(cfg)
        # complex arguments can reach lam - mu = -i c_a
        with pytest.raises(ValueError, match="shifted pole.*strip"):
            general_kernel_V(np.array([0.3 - 1j]), np.array([0.3]), pair,
                             gsk_shift_spec(cfg), cfg.delta0).values()
        # real ones stay |c_a| away, and the table keeps |c_a| >= 1e-12
        with pytest.raises(ConfigError, match=re.escape(
                "config.shifts.c[0]: every shift c_a must be finite and "
                "nonzero (|c_a| >= 1e-12), got -1e-13")):
            ShiftSpec.make([1.0, 1.0], [-1e-13, 1e-13], [1, 2])


# --------------------------------------------------------------------------
# matrix kernels contracted through BLAS against the c_einsum formulas
# --------------------------------------------------------------------------

def _chi_factors(lam, mu, chi, shift, ck, cl):
    """chi^-1 rows at lam + ck[k] and chi columns at mu - cl[l], (..., N, N)."""
    N = shift.N
    A = np.stack([chi.chi_inv_at(lam + ck[k])[..., shift.v0[k], :]
                  for k in range(N)], axis=-2)
    B = np.stack([chi.chi_at(mu - cl[l])[..., :, l] for l in range(N)], axis=-2)
    return A, B


def _c_einsum_M(lam, mu, chi, shift):
    A, B = _chi_factors(lam, mu, chi, shift, np.zeros(shift.N), 1j * shift.c)
    den = lam[..., None, None] - mu[..., None, None] + 1j * shift.c[None, :]
    return (shift.gamma[:, None] * np.einsum("...kr,...lr->...kl", A, B)
            / (2j * np.pi * den))


def _c_einsum_delta_chi(chi, z1, z2):
    lam = chi.rule.nodes
    rho_R = np.einsum("jp,jq->jpq", chi.FR_nodes, chi.pair.E_L(lam))
    ker = chi.rule.weights / ((lam - z1[..., None]) * (lam - z2[..., None]))
    return -np.einsum("...j,jpq->...pq", ker, rho_R)


def _c_einsum_N(lam, mu, chi, shift, delta0):
    """N_kernel with c_einsum contractions; also the scale |pref| (|I| +
    sum_r |A_kr| |B_lr|) / |den| of the terms that cancel in I - A B."""
    N = shift.N
    A, B = _chi_factors(lam, mu, chi, shift, 0.5j * shift.c, 0.5j * shift.c)
    eye = (shift.v0[:, None] == np.arange(N)[None, :]).astype(complex)
    csum = 0.5 * (shift.c[:, None] + shift.c[None, :])
    den = lam[..., None, None] - mu[..., None, None] + 1j * csum
    pref = np.sign(shift.c)[:, None] * shift.gamma[:, None] / (2j * np.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = pref * (eye - np.einsum("...kr,...lr->...kl", A, B)) / den
        scale = (np.abs(pref) * (np.abs(eye) + np.einsum(
            "...kr,...lr->...kl", np.abs(A), np.abs(B))) / np.abs(den))
    near = near_diagonal_mask(lam, mu, delta0)
    for k, l in zip(*np.nonzero(np.abs(csum) < 1e-14)):
        z = np.broadcast_to(lam, near.shape)[near] + 0.5j * shift.c[k]
        zp = np.broadcast_to(mu, near.shape)[near] - 0.5j * shift.c[l]
        vals = np.matmul(chi.chi_inv_at(z), _c_einsum_delta_chi(chi, z, zp))
        out[..., k, l][near] = pref[k, 0] * vals[:, shift.v0[k], l]
    return out, scale, near


@pytest.mark.filterwarnings("ignore::shiftdet.rhp.NearIntervalWarning")
class TestBlasContractions:
    @pytest.fixture(scope="class", params=["standard", "nonintegrable"])
    def solved(self, request):
        from shiftdet.experiments import _line_rule, _loop_rule
        from shiftdet.rhp import solve_chi
        cfg = request.getfixturevalue(request.param + "_cfg")
        return cfg, solve_chi(cfg), _loop_rule(cfg).nodes, _line_rule(cfg).nodes

    # a one-entry table, complex gamma, a row block with fewer rows than
    # columns, and pointwise pairs (the entries (i, i) of their grid); the
    # oracle's points are a column against a row, or the pairs themselves
    CASES = {"one-entry": dict(gamma=[0.7], c=[1.0], v=[1]),
             "complex-gamma": dict(gamma=[0.7 + 0.3j, -0.2 + 0.5j],
                                   c=[-1.0, 1.0], v=[2, 1]),
             "row-block": None, "pointwise": None}

    @classmethod
    def _case(cls, cfg, nodes, case):
        """(lam, mu, shift table) of one case on ``nodes``."""
        if case == "row-block":
            return nodes[:7, None], nodes[None, :], cfg.shift
        if case == "pointwise":
            return nodes, nodes[::-1], cfg.shift
        return nodes[:, None], nodes[None, :], ShiftSpec.make(**cls.CASES[case])

    @staticmethod
    def _package(kernel, lam, mu):
        """The package kernel at the oracle's points: the grid of 1-D row
        points against 1-D column points, or the pairs' entries (i, i)."""
        if np.ndim(lam) == 2:
            return kernel(lam[:, 0], mu[0]).values()
        return pointwise(kernel, lam, mu)

    @classmethod
    def _check_M(cls, chi, lam, mu, shift):
        got = cls._package(lambda l, m: M_kernel(l, m, chi, shift), lam, mu)
        want = _c_einsum_M(lam, mu, chi, shift)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @classmethod
    def _check_N(cls, chi, delta0, lam, mu, shift):
        # the divided-difference entries (compensated pairs near the
        # diagonal) relative to their largest; every other entry relative
        # to its terms' size, as a row block far out on the line holds
        # only small values, some of them cancelled
        got = cls._package(lambda l, m: N_kernel(l, m, chi, shift, delta0),
                           lam, mu)
        want, scale, near = _c_einsum_N(lam, mu, chi, shift, delta0)
        assert got.shape == want.shape
        comp = np.abs(shift.c[:, None] + shift.c[None, :]) < 1e-14
        patched = near[..., None, None] & comp
        far = ~patched
        assert np.isfinite(scale[far]).all()
        assert np.all(np.abs(got - want)[far] <= 1e-14 * scale[far])
        if patched.any():
            assert (np.max(np.abs(got - want)[patched])
                    <= 1e-14 * np.max(np.abs(want[patched])))

    def test_M_kernel(self, solved):
        cfg, chi, loop, _ = solved
        self._check_M(chi, loop[:, None], loop[None, :], cfg.shift)

    @pytest.mark.parametrize("case", list(CASES))
    def test_M_kernel_cases(self, solved, case):
        cfg, chi, loop, _ = solved
        self._check_M(chi, *self._case(cfg, loop, case))

    def test_delta_chi(self, solved):
        cfg, chi, _, line = solved
        z, zp = line + 0.5j * cfg.c, line - 0.5j * cfg.c
        got = chi.delta_chi(z, zp)
        want = _c_einsum_delta_chi(chi, z, zp)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_N_kernel(self, solved):
        # entries of I - chi^-1 chi can cancel to ~1e-2 of their terms
        # (nonintegrable: normwise 2.2e-13), so off the compensated diagonal
        # the bound is relative to the terms' own size
        cfg, chi, _, line = solved
        got = N_kernel(line, line, chi, cfg.shift, cfg.delta0).values()
        want, scale, near = _c_einsum_N(line[:, None], line[None, :], chi,
                                        cfg.shift, cfg.delta0)
        far = np.isfinite(scale) & ~near[..., None, None]
        assert np.all(np.abs(got - want)[far] <= 1e-14 * scale[far])
        assert (np.max(np.abs(got - want)[~far])
                <= 1e-14 * np.max(np.abs(want[~far])))

    @pytest.mark.parametrize("case", list(CASES))
    def test_N_kernel_cases(self, solved, case):
        cfg, chi, _, line = solved
        self._check_N(chi, cfg.delta0, *self._case(cfg, line, case))


@pytest.mark.filterwarnings("ignore::shiftdet.rhp.NearIntervalWarning")
class TestRemovableDiagonal:
    """N's compensated pairs through the plane evaluator's near option are
    bit for bit the planes with 0/0 on their near-diagonal entries patched
    through a full-grid mask (``mask_patched_N``)."""

    @pytest.fixture(scope="class", params=["standard", "nonintegrable"])
    def solved(self, request):
        from shiftdet.experiments import _line_rule
        from shiftdet.rhp import solve_chi
        cfg = request.getfixturevalue(request.param + "_cfg")
        assert (cfg.shift.c[:, None] + cfg.shift.c[None, :] == 0).any()
        return cfg, solve_chi(cfg), _line_rule(cfg)

    @pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
    @pytest.mark.parametrize("rows", [None, 7], ids=["one-block", "blocks"])
    def test_collocation(self, monkeypatch, solved, half, rows):
        cfg, chi, rule = solved
        rule, N = rule.half() if half else rule, cfg.shift.N
        if rows is not None:
            monkeypatch.setattr(determinants, "_BLOCK_BYTES",
                                rows * rule.size * N * N * 16)
        blocks = determinants.row_blocks(rule.size, 16 * rule.size * N * N)
        assert len(blocks) == (1 if rows is None else -(-rule.size // rows))
        # the oracle's values of the whole grid, handed out a block at a
        # time: its chi factors evaluated once, as N_kernel's are
        got = determinants.assemble_collocation(
            lambda l, m: N_kernel(l, m, chi, cfg.shift, cfg.delta0), rule, N)
        values = mask_patched_N(rule.nodes, rule.nodes, chi, cfg.shift,
                                cfg.delta0)
        want = determinants.assemble_collocation(
            lambda l, m: Grid(values.shape, lambda rows: values[rows].copy()),
            rule, N)
        assert np.isfinite(got).all() and np.array_equal(got, want)

    def test_pointwise_near_pairs(self, solved):
        # points off the grid against unsorted columns (the exact test on
        # the whole grid, not the bisection): every third pair (i, i) far
        # apart, the others near but not equal
        cfg, chi, rule = solved
        lam = rule.nodes
        step = np.where(np.arange(lam.size) % 3, 0.5, 5.0) * cfg.delta0
        mu = lam + step * (-1.0) ** np.arange(lam.size)
        near = near_diagonal_mask(lam, mu, cfg.delta0)
        assert 0 < near.sum() < lam.size and not (lam == mu).any()
        mu = mu[::-1]
        got = N_kernel(lam, mu, chi, cfg.shift, cfg.delta0).values()
        want = mask_patched_N(lam, mu, chi, cfg.shift, cfg.delta0)
        assert np.isfinite(got).all() and np.array_equal(got, want)
