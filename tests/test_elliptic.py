import cmath
import math
import random

import mpmath
import pytest

from lemnichor import elliptic
from lemnichor.elliptic import (
    CHOREO_M,
    DELTA_POLE,
    PoleProximityError,
    _landen_chain,
    make_context,
    sn_cn_dn,
    sn_cn_dn_points,
)

from conftest import ROOT4_3, SQRT3, sn_cn_dn_at

# Quarter period at the choreographic modulus, frozen from the independent
# quadrature oracle below (cross-checked at 25 digits with mpmath.ellipk:
# 2.768063145368767558867827).
K_ORACLE = 2.7680631453687676
KPRIME_ORACLE = 1.5981420021125401


def quadrature_quarter_period(m: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral."""
    return float(mpmath.quad(lambda th: 1 / mpmath.sqrt(1 - m * mpmath.sin(th) ** 2),
                             [0, mpmath.pi / 2]))


def ellipfun(t: float, m: float) -> tuple[float, float, float]:
    """Independent oracle: mpmath's sn, cn, dn at the working precision."""
    return tuple(float(mpmath.ellipfun(name, t, m=m)) for name in ("sn", "cn", "dn"))


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

    def test_against_mpmath_ellipfun(self, ctx):
        for i in range(200):
            t = -11.0 + 22.0 * i / 199.0
            s, c, d = sn_cn_dn(t, ctx)
            se, ce, de = ellipfun(t, ctx.m)
            assert s == pytest.approx(se, abs=1e-10)
            assert c == pytest.approx(ce, abs=1e-10)
            assert d == pytest.approx(de, abs=1e-10)

    def test_arbitrary_modulus_against_mpmath(self):
        rng = random.Random(20240817)
        for _ in range(5):
            m = rng.uniform(0.05, 0.95)
            ctx = make_context(m)
            for _ in range(40):
                t = rng.uniform(-12.0, 12.0)
                s, c, d = sn_cn_dn(t, ctx)
                se, ce, de = ellipfun(t, m)
                assert s == pytest.approx(se, abs=1e-10)
                assert c == pytest.approx(ce, abs=1e-10)
                assert d == pytest.approx(de, abs=1e-10)


class TestComplexEvaluation:
    def test_real_axis_consistency(self, ctx):
        for t in (0.0, ctx.K / 3.0, 1.1, 4.8):
            s, c, d = sn_cn_dn(t, ctx)
            sc, cc, dc = sn_cn_dn_at(complex(t, 0.0), ctx)
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
            s0 = sn_cn_dn_at(t, ctx)[0]
            s1 = sn_cn_dn_at(t + shift, ctx)[0]
            assert abs(abs(s1) - abs(s0)) <= 1e-12
            assert s1 == pytest.approx(s0, abs=1e-12)

    def test_pole_proximity_guard(self, ctx):
        pole = complex(0.0, ctx.Kprime)
        with pytest.raises(PoleProximityError):
            sn_cn_dn_at(pole + 5e-4, ctx)
        with pytest.raises(PoleProximityError):
            sn_cn_dn_at(pole + 2.0 * ctx.K + 2j * ctx.Kprime + 5e-4, ctx)
        vals = sn_cn_dn_at(pole + 2e-3, ctx)
        assert all(math.isfinite(v.real) and math.isfinite(v.imag) for v in vals)


def _bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


def _line_grid(us, vs):
    # Row-major, one line per v, as analytic.line_windings forms its census grid.
    return [complex(u, v) for v in vs for u in us]


class TestLineEvaluation:
    """Lines of nodes passed to sn_cn_dn_points as one row-major batch."""

    def test_bit_equal_to_point_evaluation(self, ctx):
        rng = random.Random(11)
        kp = ctx.Kprime
        us = [rng.uniform(-3.0 * ctx.K, 3.0 * ctx.K) for _ in range(24)] + [0.0, -2.0 * ctx.K, ctx.K / 3.0]
        vs = [rng.uniform(-3.0 * kp, 3.0 * kp) for _ in range(8)]
        vs += [0.0, -0.5 * kp, 2.5 * kp, kp + 1.5 * DELTA_POLE, -kp - 1.5 * DELTA_POLE,
               3.0 * kp - 1.5 * DELTA_POLE]
        grid = _line_grid(us, vs)
        got = sn_cn_dn_points(grid, ctx)
        assert len(got) == len(us) * len(vs)
        for t, scd in zip(grid, got):
            assert _bits(scd) == _bits(sn_cn_dn_at(t, ctx)), t

    @pytest.mark.parametrize("offset", [0.0, 0.5, -0.5])
    @pytest.mark.parametrize("row", [1.0, -1.0, 3.0])
    def test_refuses_a_line_near_a_pole_row(self, ctx, row, offset):
        # A census-shaped line, one real period from -2K, moved to within
        # DELTA_POLE of a pole row: its first node sits on a pole column.
        n = 64
        h = 4.0 * ctx.K / n
        us = [-2.0 * ctx.K + j * h for j in range(n)]
        v = row * ctx.Kprime + offset * DELTA_POLE
        with pytest.raises(PoleProximityError):
            sn_cn_dn_points(_line_grid(us, [0.0, v]), ctx)


# The real kernel and the one-point complex evaluator as they were written
# before the Landen plan and the batch evaluator: a chain of moduli walked
# down and up, and a per-point pole test and combine.  Kept as bit-level oracles.
def oracle_chain(u, chain):
    for k1 in chain:
        u /= 1.0 + k1
    s, c, d = math.sin(u), math.cos(u), 1.0
    for k1 in reversed(chain):
        ks2 = k1 * s * s
        den = 1.0 + ks2
        s, c, d = (1.0 + k1) * s / den, c * d / den, (1.0 - ks2) / den
    return s, c, d


def oracle_reduced(t, four_k, chain):
    r = t - four_k * round(t / four_k)
    if r < 0.0:
        s, c, d = oracle_chain(-r, chain)
        return -s, c, d
    return oracle_chain(r, chain)


def oracle_pole_distance(t, ctx):
    re = t.real - 2.0 * ctx.K * round(t.real / (2.0 * ctx.K))
    im = t.imag - 2.0 * ctx.Kprime * round(t.imag / (2.0 * ctx.Kprime))
    return math.hypot(re, min(abs(im - ctx.Kprime), abs(im + ctx.Kprime)))


def oracle_sn_cn_dn_complex(t, ctx):
    t = complex(t)
    if oracle_pole_distance(t, ctx) < DELTA_POLE:
        raise PoleProximityError(f"argument {t} is within {DELTA_POLE} of a pole of sn/cn/dn")
    m = ctx.m
    s, c, d = oracle_reduced(t.real, 4.0 * ctx.K, _landen_chain(m))
    s1, c1, d1 = oracle_reduced(t.imag, 4.0 * ctx.Kprime, _landen_chain(1.0 - m))
    den = c1 * c1 + m * s * s * s1 * s1
    sn = complex(s * d1, c * d * s1 * c1) / den
    cn = complex(c * c1, -s * d * s1 * d1) / den
    dn = complex(d * c1 * d1, -m * s * c * s1) / den
    return sn, cn, dn


def _real_bits(values):
    return [x.hex() for x in values]


KERNEL_MODULI = [CHOREO_M, 1e-6, 0.1, 0.5, 0.99]


class TestRealKernelBits:
    @pytest.mark.parametrize("m", KERNEL_MODULI)
    def test_seeded_phases(self, m):
        ctx = make_context(m)
        four_k, chain = 4.0 * ctx.K, _landen_chain(m)
        rng = random.Random(20261019)
        for i in range(100_000):
            if i % 5:
                t = rng.uniform(-3.0 * four_k, 3.0 * four_k)
            else:
                t = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 6.0)
            assert _real_bits(sn_cn_dn(t, ctx)) == _real_bits(oracle_reduced(t, four_k, chain)), t

    @pytest.mark.parametrize("m", KERNEL_MODULI)
    def test_special_arguments(self, m):
        ctx = make_context(m)
        four_k, chain = 4.0 * ctx.K, _landen_chain(m)
        k = ctx.K
        points = [0.0, -0.0, k, -k, 2.0 * k, -2.0 * k, 4.0 * k, -4.0 * k,
                  1e6, -1e6, 999_999.5, -123_456.789, math.nextafter(1e6, 0.0)]
        for t in points:
            assert _real_bits(sn_cn_dn(t, ctx)) == _real_bits(oracle_reduced(t, four_k, chain)), t
        assert sn_cn_dn(-0.0, ctx)[0].hex() == "-0x0.0p+0"

    @pytest.mark.parametrize("m", KERNEL_MODULI)
    def test_complementary_plan_is_the_plan_at_one_minus_m(self, m):
        # The imaginary parts of complex points are reduced with plan_comp,
        # so the bit tests above at 1 - m cover that plan too.
        assert make_context(m).plan_comp == make_context(1.0 - m).plan


def full_landen_chain(m):
    """_landen_chain as it was before it left out identity steps: it stops
    after the first modulus <= 1e-16 and keeps that modulus."""
    ks = []
    for _ in range(32):
        kp = math.sqrt(1.0 - m)
        k1 = m / ((1.0 + kp) * (1.0 + kp))
        ks.append(k1)
        if k1 <= 1e-16:
            break
        m = k1 * k1
    return tuple(ks)


# Its last modulus, 8.66e-17, lies in (2**-54, 1e-16]: 1 - k rounds below 1,
# so the step is not an identity and the plan must keep it.
KEPT_LAST_STEP_M = 0.12380196114964559


def _trimmed_chain_moduli():
    rng = random.Random(27)
    return [CHOREO_M, 1.0 - CHOREO_M, KEPT_LAST_STEP_M] + [rng.random() for _ in range(12)]


class TestTrimmedChain:
    """The plan leaves out the last Landen step exactly when it is an identity,
    checked against a walk of the full chain, which the kernel no longer builds."""

    @pytest.mark.parametrize("m", _trimmed_chain_moduli())
    def test_bit_equal_to_the_full_chain(self, m):
        ctx = make_context(m)
        four_k, chain = 4.0 * ctx.K, full_landen_chain(m)
        rng = random.Random(m.hex())
        for _ in range(3000):
            t = rng.uniform(-8.0 * four_k, 8.0 * four_k)
            got = elliptic._sn_cn_dn_real(t, ctx.plan)
            assert _real_bits(got) == _real_bits(oracle_reduced(t, four_k, chain)), t

    @pytest.mark.parametrize("m", _trimmed_chain_moduli())
    def test_no_identity_step_is_planned(self, m):
        ctx = make_context(m)
        for _, _, ascent in (ctx.plan, ctx.plan_comp):
            assert all(1.0 - k != 1.0 for k, _ in ascent)

    def test_which_last_steps_are_left_out(self):
        ctx = make_context(CHOREO_M)
        # At the choreographic modulus the last step of both chains is an identity.
        assert len(ctx.plan[2]) == len(full_landen_chain(CHOREO_M)) - 1 == 5
        assert len(ctx.plan_comp[2]) == len(full_landen_chain(1.0 - CHOREO_M)) - 1 == 3
        last = full_landen_chain(KEPT_LAST_STEP_M)[-1]
        assert 2.0**-54 < last <= 1e-16 and 1.0 - last != 1.0
        assert make_context(KEPT_LAST_STEP_M).plan[2][0][0] == last


def _seeded_points(ctx, rng, n):
    # Points drawn from small pools of real and imaginary parts, so parts
    # repeat, with both signed zeros, kept only where the oracle evaluates.
    kp = ctx.Kprime
    us = [rng.uniform(-3.0 * ctx.K, 3.0 * ctx.K) for _ in range(12)]
    us += [0.0, -0.0, ctx.K, -2.0 * ctx.K, ctx.K / 3.0]
    vs = [rng.uniform(-3.0 * kp, 3.0 * kp) for _ in range(8)]
    vs += [0.0, -0.0, 0.5 * kp, -2.0 * kp, kp + 1.5 * DELTA_POLE]
    out = []
    while len(out) < n:
        t = complex(rng.choice(us), rng.choice(vs))
        if oracle_pole_distance(t, ctx) >= DELTA_POLE:
            out.append(t)
    return out


class TestBatchEvaluation:
    def test_bit_equal_to_the_point_oracle(self, ctx):
        rng = random.Random(5)
        for _ in range(20):
            points = _seeded_points(ctx, rng, 150)
            got = sn_cn_dn_points(points, ctx)
            assert len(got) == len(points)
            for t, scd in zip(points, got):
                assert _bits(scd) == _bits(oracle_sn_cn_dn_complex(t, ctx)), t
                # A point alone is bit-equal to the same point in a batch.
                assert _bits(sn_cn_dn_points([t], ctx)[0]) == _bits(scd), t

    def test_signed_zero_parts_stay_apart(self, ctx):
        v = 0.4
        for order in ([0.0, -0.0], [-0.0, 0.0]):
            points = [complex(u, v) for u in order] + [complex(v, w) for w in order]
            for t, scd in zip(points, sn_cn_dn_points(points, ctx)):
                assert _bits(scd) == _bits(oracle_sn_cn_dn_complex(t, ctx)), t
        # The two zeros give different bits, so one table entry cannot serve both.
        for pair in ([complex(-0.0, v), complex(0.0, v)], [complex(v, -0.0), complex(v, 0.0)]):
            neg, pos = sn_cn_dn_points(pair, ctx)
            assert _bits(neg) != _bits(pos)

    @pytest.mark.parametrize("distance", [0.5, 1.5])
    def test_refuses_exactly_what_the_oracle_refuses(self, ctx, distance):
        k, kp = ctx.K, ctx.Kprime
        poles = [complex(0.0, kp), complex(2.0 * k, kp), complex(-2.0 * k, -kp),
                 complex(4.0 * k, 3.0 * kp), complex(-6.0 * k, -5.0 * kp)]
        refused = 0
        for pole in poles:
            for j in range(8):
                t = pole + distance * DELTA_POLE * cmath.exp(2j * math.pi * (j + 0.5) / 8.0)
                try:
                    want = oracle_sn_cn_dn_complex(t, ctx)
                except PoleProximityError as err:
                    refused += 1
                    with pytest.raises(PoleProximityError) as got:
                        sn_cn_dn_points([t], ctx)
                    assert str(got.value) == str(err)
                    # In a batch, the first refused point is the one named.
                    with pytest.raises(PoleProximityError) as got:
                        sn_cn_dn_points([complex(0.3, 0.2), t, pole + 0.4 * DELTA_POLE], ctx)
                    assert str(got.value) == str(err)
                else:
                    assert _bits(sn_cn_dn_points([complex(0.3, 0.2), t], ctx)[1]) == _bits(want)
        assert refused == (40 if distance < 1.0 else 0)

    def test_one_reduction_per_distinct_part(self, ctx, monkeypatch):
        calls = []
        real = elliptic._sn_cn_dn_real

        def spy(t, plan):
            calls.append(("u" if plan is ctx.plan else "v", t.hex()))
            return real(t, plan)

        monkeypatch.setattr(elliptic, "_sn_cn_dn_real", spy)
        points = _seeded_points(ctx, random.Random(9), 200)
        sn_cn_dn_points(points, ctx)
        want = {("u", t.real.hex()) for t in points} | {("v", t.imag.hex()) for t in points}
        assert len(calls) == len(set(calls))
        assert set(calls) == want
        assert ("u", "-0x0.0p+0") in want and ("u", "0x0.0p+0") in want
