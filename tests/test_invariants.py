import math
import random

import pytest

from lemnichor.elliptic import CHOREO_M, make_context
from lemnichor.invariants import (
    EXPECTED_CURVATURE_SQ_SUM,
    EXPECTED_KINETIC_SUM,
    EXPECTED_MOMENT_OF_INERTIA,
    EXPECTED_PRODUCT_SQ_DISTANCES,
    EXPECTED_SUM_SQ_DISTANCES,
    angular_momentum,
    curvature,
    full_report,
)
from lemnichor.orbit import coords, triple_phases

from conftest import SQRT3, OracleVec, oracle_reduced, oracle_sum, speed_relation_residual


class TestCenterOfMass:
    @pytest.mark.parametrize("frac", [0.0, 1.0 / 6.0])
    def test_vanishes_on_orbit(self, ctx, frac):
        assert math.hypot(*full_report(frac * ctx.K, ctx).center_of_mass) <= 1e-12

    def test_wrong_modulus_negative_control(self):
        bad = make_context(0.5)
        worst = max(
            math.hypot(*full_report(i * 4.0 * bad.K / 100.0, bad).center_of_mass)
            for i in range(100)
        )
        assert worst > 1e-3


class TestMomentOfInertia:
    def test_at_zero(self, ctx):
        assert full_report(0.0, ctx).moment_of_inertia == pytest.approx(SQRT3, abs=1e-12)

    def test_at_third(self, ctx):
        assert full_report(ctx.K / 3.0, ctx).moment_of_inertia == pytest.approx(SQRT3, abs=1e-11)

    def test_random_times(self, ctx, period):
        rng = random.Random(11)
        for _ in range(50):
            rep = full_report(rng.uniform(0.0, period), ctx)
            assert abs(rep.moment_of_inertia - SQRT3) <= 1e-11


class TestAngularMomentum:
    def test_at_zero(self, ctx):
        assert abs(angular_momentum([coords(0.0, ctx)])) <= 1e-14
        assert abs(full_report(0.0, ctx).angular_momentum) <= 1e-12

    def test_at_half(self, ctx):
        assert abs(full_report(ctx.K / 2.0, ctx).angular_momentum) <= 1e-11


class TestKineticEnergy:
    def test_at_zero_decomposition(self, ctx):
        bodies = [coords(p, ctx) for p in triple_phases(0.0, ctx)]
        speeds = [vx * vx + vy * vy for _, _, vx, vy, _, _ in bodies]
        assert speeds[0] == pytest.approx(0.5, abs=1e-13)
        assert speeds[1] == pytest.approx(0.125, abs=1e-13)
        assert speeds[2] == pytest.approx(0.125, abs=1e-13)
        assert full_report(0.0, ctx).kinetic_energy == pytest.approx(0.75, abs=1e-12)

    def test_at_two_thirds(self, ctx):
        assert full_report(2.0 * ctx.K / 3.0, ctx).kinetic_energy == pytest.approx(0.75, abs=1e-11)

    def test_wrong_modulus_negative_control(self):
        # Not at m = 1/2: there the velocity relation reads v^2 = 1/2 with no
        # position term at all, so the kinetic sum is constant at any modulus
        # setting m = 1/2 exactly.  Any other wrong modulus de-conserves it.
        bad = make_context(0.3)
        vals = [
            full_report(i * 4.0 * bad.K / 100.0, bad).kinetic_energy for i in range(100)
        ]
        assert max(vals) - min(vals) > 1e-3

    def test_half_modulus_kinetic_sum_is_trivially_constant(self):
        half = make_context(0.5)
        vals = [
            full_report(i * 4.0 * half.K / 100.0, half).kinetic_energy for i in range(100)
        ]
        assert max(vals) - min(vals) <= 1e-12
        assert vals[0] == pytest.approx(1.5, abs=1e-12)


class TestCurvature:
    def test_zero_at_origin(self, ctx):
        assert curvature(0.0, ctx) <= 1e-12

    def test_three_at_apex(self, ctx):
        # rho^-2 = 9 |x|^2 with |x| = 1 at the apex.
        assert curvature(ctx.K, ctx) == pytest.approx(3.0, abs=1e-9)

    def test_pointwise_relation(self, ctx, period):
        for i in range(200):
            t = i * period / 200.0 + 0.003
            x, y, _, _, _, _ = coords(t, ctx)
            assert abs(curvature(t, ctx) ** 2 - 9.0 * (x * x + y * y)) <= 1e-9

    def test_sum_over_triple(self, ctx, period):
        for i in range(100):
            t = i * period / 100.0
            assert abs(full_report(t, ctx).curvature_sq_sum - 9.0 * SQRT3) <= 1e-9


class TestVelocityRelation:
    def test_choreo_modulus(self, ctx):
        assert speed_relation_residual(ctx.K / 5.0, ctx) < 1e-11

    def test_arbitrary_modulus(self):
        assert speed_relation_residual(1.0, make_context(0.3)) < 1e-11

    def test_half_modulus_at_origin(self):
        # x(0) = 0, so the relation reduces to v^2 = 1/2 on the nose.
        assert speed_relation_residual(0.0, make_context(0.5)) < 1e-14

    def test_five_random_moduli(self):
        rng = random.Random(99)
        for _ in range(5):
            m = rng.uniform(0.05, 0.95)
            ctx = make_context(m)
            for _ in range(40):
                assert speed_relation_residual(rng.uniform(-8.0, 8.0), ctx) < 1e-11


class TestDistances:
    def test_sum_at_zero(self, ctx):
        # Pairwise squared distances at t=0 are sqrt3/2, sqrt3/2 and 2 sqrt3.
        assert full_report(0.0, ctx).sum_sq_distances == pytest.approx(3.0 * SQRT3, abs=1e-12)

    def test_sum_random_times(self, ctx, period):
        rng = random.Random(3)
        for _ in range(50):
            rep = full_report(rng.uniform(0.0, period), ctx)
            assert abs(rep.sum_sq_distances - 3.0 * SQRT3) <= 1e-11

    def test_sum_is_three_i_minus_com_squared_on_any_triple(self):
        # Pure algebra: sum (x_i - x_j)^2 = 3 I - |x_1 + x_2 + x_3|^2 for any
        # three points.  At m = 1/2 the center of mass is far from zero.
        bad = make_context(0.5)
        rng = random.Random(17)
        for _ in range(100):
            rep = full_report(rng.uniform(-25.0, 25.0), bad)
            cx, cy = rep.center_of_mass
            com_sq = cx * cx + cy * cy
            assert abs(3.0 * rep.moment_of_inertia - com_sq - rep.sum_sq_distances) <= 1e-12

    def test_product_at_zero(self, ctx):
        assert full_report(0.0, ctx).product_sq_distances == pytest.approx(
            1.5 * SQRT3, abs=1e-12
        )

    def test_product_random_times(self, ctx, period):
        rng = random.Random(4)
        for _ in range(50):
            rep = full_report(rng.uniform(0.0, period), ctx)
            assert abs(rep.product_sq_distances - 1.5 * SQRT3) <= 1e-10


class TestFullReport:
    @pytest.mark.parametrize("frac", [0.0, 0.77])
    def test_all_residuals_small(self, ctx, frac):
        rep = full_report(frac * ctx.K, ctx)
        assert max(rep.residuals.values()) < 1e-10

    def test_body_one_back_at_origin(self, ctx):
        rep = full_report(2.0 * ctx.K, ctx)
        assert max(rep.residuals.values()) < 1e-10
        assert curvature(2.0 * ctx.K, ctx) <= 1e-12

    def test_expected_constants(self):
        assert EXPECTED_MOMENT_OF_INERTIA == pytest.approx(SQRT3)
        assert EXPECTED_KINETIC_SUM == 0.75
        assert EXPECTED_CURVATURE_SQ_SUM == pytest.approx(9.0 * SQRT3)
        assert EXPECTED_SUM_SQ_DISTANCES == pytest.approx(3.0 * SQRT3)
        assert EXPECTED_PRODUCT_SQ_DISTANCES == pytest.approx(1.5 * SQRT3)


# A frozen copy of full_report as it was built on plane-vector value types,
# reading the same orbit.coords.  full_report works on the floats and must
# keep this order of operations, so every field and residual matches the
# copy bit for bit.
def _oracle_curvature(t, ctx):
    _, _, vx, vy, ax, ay = coords(t, ctx)
    v, a = OracleVec(vx, vy), OracleVec(ax, ay)
    speed = v.norm()
    return abs(v.cross(a)) / speed**3


def oracle_full_report(t, ctx):
    """(fields, residuals) of the value-type full_report, in its order of operations."""
    third = 4.0 * ctx.K / 3.0
    r = oracle_reduced(t, ctx)
    bodies = []
    for p in (r, r + third, r - third):
        x, y, vx, vy, _, _ = coords(p, ctx)
        bodies.append((OracleVec(x, y), OracleVec(vx, vy), p))
    p1, p2, p3 = (pos for pos, _, _ in bodies)
    com = p1 + p2 + p3
    moi = oracle_sum(pos.norm_sq() for pos, _, _ in bodies)
    ang = oracle_sum(pos.cross(vel) for pos, vel, _ in bodies)
    kin = oracle_sum(vel.norm_sq() for _, vel, _ in bodies)
    csq = oracle_sum(_oracle_curvature(p, ctx) ** 2 for _, _, p in bodies)
    pairs = ((p1 - p2).norm_sq(), (p2 - p3).norm_sq(), (p3 - p1).norm_sq())
    ssd = oracle_sum(pairs)
    psd = pairs[0] * pairs[1] * pairs[2]
    residuals = {
        "center_of_mass": com.norm(),
        "moment_of_inertia": abs(moi - EXPECTED_MOMENT_OF_INERTIA),
        "angular_momentum": abs(ang),
        "kinetic_energy": abs(kin - EXPECTED_KINETIC_SUM),
        "curvature_sq_sum": abs(csq - EXPECTED_CURVATURE_SQ_SUM),
        "sum_sq_distances": abs(ssd - EXPECTED_SUM_SQ_DISTANCES),
        "product_sq_distances": abs(psd - EXPECTED_PRODUCT_SQ_DISTANCES),
    }
    return (com.x, com.y, moi, ang, kin, csq, ssd, psd), residuals


def _hex_report(fields, residuals):
    return [v.hex() for v in fields], [(k, v.hex()) for k, v in residuals.items()]


@pytest.mark.parametrize("m", [CHOREO_M, 0.5])
def test_full_report_is_bit_equal_to_the_value_type_oracle(m):
    ctx = make_context(m)
    rng = random.Random(2211)
    four_k = 4.0 * ctx.K
    phases = [0.0, -0.0, ctx.K, 2.0 * ctx.K, four_k, -four_k]
    phases += [rng.uniform(-25.0, 25.0) for _ in range(2000)]
    for t in phases:
        rep = full_report(t, ctx)
        assert type(rep.center_of_mass) is tuple
        got = (*rep.center_of_mass, *rep[1:7])
        assert _hex_report(got, rep.residuals) == _hex_report(*oracle_full_report(t, ctx)), t
