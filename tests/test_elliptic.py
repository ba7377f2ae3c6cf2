import math
import random

import pytest
from scipy.integrate import quad
from scipy.special import ellipj

from lemnichor.elliptic import (
    CHOREO_M,
    DELTA_POLE,
    PoleProximityError,
    make_context,
    sn_cn_dn,
    sn_cn_dn_complex,
    sn_cn_dn_lines,
)

from conftest import ROOT4_3, SQRT3

# Quarter period at the choreographic modulus, frozen from the independent
# quadrature oracle below (cross-checked at 25 digits with mpmath:
# 2.768063145368767558867827).
K_ORACLE = 2.7680631453687676
KPRIME_ORACLE = 1.5981420021125401


def quadrature_quarter_period(m: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral."""
    val, _ = quad(
        lambda th: 1.0 / math.sqrt(1.0 - m * math.sin(th) ** 2),
        0.0,
        math.pi / 2.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val


class TestMakeContext:
    def test_choreo_quarter_period_matches_frozen_oracle(self, ctx):
        assert abs(ctx.K - K_ORACLE) / K_ORACLE <= 1e-14
        assert abs(ctx.Kprime - KPRIME_ORACLE) / KPRIME_ORACLE <= 1e-14

    def test_choreo_quarter_period_matches_live_quadrature(self, ctx):
        assert abs(ctx.K - quadrature_quarter_period(CHOREO_M)) / ctx.K <= 1e-13
        assert abs(ctx.Kprime - quadrature_quarter_period(1.0 - CHOREO_M)) / ctx.Kprime <= 1e-13

    def test_self_complementary_modulus(self):
        half = make_context(0.5)
        assert half.K == pytest.approx(half.Kprime, abs=1e-15)

    def test_degenerate_limit(self):
        tiny = make_context(1e-12)
        assert abs(tiny.K - math.pi / 2.0) <= 1e-9

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            make_context(bad)


class TestRealEvaluation:
    def test_origin(self, ctx):
        assert sn_cn_dn(0.0, ctx) == (0.0, 1.0, 1.0)

    def test_special_value_third(self, ctx):
        s, c, d = sn_cn_dn(ctx.K / 3.0, ctx)
        assert s == pytest.approx(SQRT3 - 1.0, abs=1e-13)
        assert c == pytest.approx(ROOT4_3 * (SQRT3 - 1.0) / math.sqrt(2.0), abs=1e-13)
        assert d == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-13)

    def test_special_value_four_thirds(self, ctx):
        s, c, d = sn_cn_dn(4.0 * ctx.K / 3.0, ctx)
        assert s == pytest.approx(ROOT4_3 * (SQRT3 - 1.0), abs=1e-13)
        assert c == pytest.approx(-2.0 + SQRT3, abs=1e-13)
        assert d == pytest.approx((SQRT3 - 1.0) / 2.0, abs=1e-13)

    def test_pythagorean_identities(self, ctx):
        for i in range(1000):
            t = -20.0 + 40.0 * i / 999.0
            s, c, d = sn_cn_dn(t, ctx)
            assert abs(s * s + c * c - 1.0) <= 1e-13
            assert abs(d * d + ctx.m * s * s - 1.0) <= 1e-13

    def test_parity(self, ctx):
        for t in (0.3, 1.7, 2.9, 5.1):
            s, c, d = sn_cn_dn(t, ctx)
            sm, cm, dm = sn_cn_dn(-t, ctx)
            assert abs(sm + s) <= 1e-14
            assert abs(cm - c) <= 1e-14
            assert abs(dm - d) <= 1e-14

    def test_reflection_at_2k(self, ctx):
        for t in (0.2, 0.9, 1.8, 2.6):
            s, c, d = sn_cn_dn(t, ctx)
            sr, cr, dr = sn_cn_dn(2.0 * ctx.K - t, ctx)
            assert abs(sr - s) <= 1e-13
            assert abs(dr - d) <= 1e-13
            assert abs(cr + c) <= 1e-13

    def test_periodicity(self, ctx):
        for t in (0.0, 0.4, 1.3, 2.9):
            s, c, d = sn_cn_dn(t, ctx)
            sp, cp, dp = sn_cn_dn(t + 4.0 * ctx.K, ctx)
            assert abs(sp - s) <= 1e-13
            assert abs(cp - c) <= 1e-13
            assert abs(dp - d) <= 1e-13

    def test_derivative_identities_vs_finite_differences(self, ctx):
        h = 1e-6
        for i in range(50):
            t = -5.0 + 10.0 * i / 49.0
            s, c, d = sn_cn_dn(t, ctx)
            sp = sn_cn_dn(t + h, ctx)
            sm = sn_cn_dn(t - h, ctx)
            assert (sp[0] - sm[0]) / (2 * h) == pytest.approx(c * d, abs=1e-8)
            assert (sp[1] - sm[1]) / (2 * h) == pytest.approx(-s * d, abs=1e-8)
            assert (sp[2] - sm[2]) / (2 * h) == pytest.approx(-ctx.m * s * c, abs=1e-8)

    def test_against_scipy_ellipj(self, ctx):
        for i in range(200):
            t = -11.0 + 22.0 * i / 199.0
            s, c, d = sn_cn_dn(t, ctx)
            se, ce, de, _ = ellipj(t, ctx.m)
            assert s == pytest.approx(se, abs=1e-10)
            assert c == pytest.approx(ce, abs=1e-10)
            assert d == pytest.approx(de, abs=1e-10)

    def test_arbitrary_modulus_against_scipy(self):
        rng = random.Random(20240817)
        for _ in range(5):
            m = rng.uniform(0.05, 0.95)
            ctx = make_context(m)
            for _ in range(40):
                t = rng.uniform(-12.0, 12.0)
                s, c, d = sn_cn_dn(t, ctx)
                se, ce, de, _ = ellipj(t, m)
                assert s == pytest.approx(se, abs=1e-10)
                assert c == pytest.approx(ce, abs=1e-10)
                assert d == pytest.approx(de, abs=1e-10)


class TestComplexEvaluation:
    def test_real_axis_consistency(self, ctx):
        for t in (0.0, ctx.K / 3.0, 1.1, 4.8):
            s, c, d = sn_cn_dn(t, ctx)
            sc, cc, dc = sn_cn_dn_complex(complex(t, 0.0), ctx)
            assert abs(sc - s) <= 1e-13
            assert abs(cc - c) <= 1e-13
            assert abs(dc - d) <= 1e-13
            assert sc.imag == 0.0

    def test_pole_line_denominator_vanishes_at_k_third(self, ctx):
        # Along Im t = K', the function sn/(1 - i cn) blows up exactly where
        # k sn(u) - dn(u) crosses zero, at u = K/3 and u = 5K/3.
        k = math.sqrt(ctx.m)
        for u0 in (ctx.K / 3.0, 5.0 * ctx.K / 3.0):
            s, _, d = sn_cn_dn(u0, ctx)
            assert abs(k * s - d) <= 1e-13
            below = sn_cn_dn(u0 - 0.01, ctx)
            above = sn_cn_dn(u0 + 0.01, ctx)
            assert (k * below[0] - below[2]) * (k * above[0] - above[2]) < 0.0

    def test_double_periodicity(self, ctx):
        rng = random.Random(7)
        shift = complex(0.0, 2.0 * ctx.Kprime)
        for _ in range(40):
            t = complex(rng.uniform(-2 * ctx.K, 2 * ctx.K), rng.uniform(-1.1, 1.1))
            s0 = sn_cn_dn_complex(t, ctx)[0]
            s1 = sn_cn_dn_complex(t + shift, ctx)[0]
            assert abs(abs(s1) - abs(s0)) <= 1e-12
            assert s1 == pytest.approx(s0, abs=1e-12)

    def test_pole_proximity_guard(self, ctx):
        pole = complex(0.0, ctx.Kprime)
        with pytest.raises(PoleProximityError):
            sn_cn_dn_complex(pole + 5e-4, ctx)
        with pytest.raises(PoleProximityError):
            sn_cn_dn_complex(pole + 2.0 * ctx.K + 2j * ctx.Kprime + 5e-4, ctx)
        vals = sn_cn_dn_complex(pole + 2e-3, ctx)
        assert all(math.isfinite(v.real) and math.isfinite(v.imag) for v in vals)


def _bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


class TestLineEvaluation:
    def test_bit_equal_to_point_evaluation(self, ctx):
        rng = random.Random(11)
        kp = ctx.Kprime
        us = [rng.uniform(-3.0 * ctx.K, 3.0 * ctx.K) for _ in range(24)] + [0.0, -2.0 * ctx.K, ctx.K / 3.0]
        vs = [rng.uniform(-3.0 * kp, 3.0 * kp) for _ in range(8)]
        vs += [0.0, -0.5 * kp, 2.5 * kp, kp + 1.5 * DELTA_POLE, -kp - 1.5 * DELTA_POLE,
               3.0 * kp - 1.5 * DELTA_POLE]
        lines = sn_cn_dn_lines(us, vs, ctx)
        assert len(lines) == len(vs)
        for v, line in zip(vs, lines):
            assert len(line) == len(us)
            for u, got in zip(us, line):
                assert _bits(got) == _bits(sn_cn_dn_complex(complex(u, v), ctx)), (u, v)

    @pytest.mark.parametrize("offset", [0.0, 0.5, -0.5])
    @pytest.mark.parametrize("row", [1.0, -1.0, 3.0])
    def test_refuses_a_line_near_a_pole_row(self, ctx, row, offset):
        v = row * ctx.Kprime + offset * DELTA_POLE
        with pytest.raises(PoleProximityError):
            sn_cn_dn_lines([0.1, 1.0], [0.0, v], ctx)
