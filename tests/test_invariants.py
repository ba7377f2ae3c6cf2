import random

import pytest

from lemnichor.elliptic import make_context
from lemnichor.invariants import (
    EXPECTED_CURVATURE_SQ_SUM,
    EXPECTED_KINETIC_SUM,
    EXPECTED_MOMENT_OF_INERTIA,
    EXPECTED_PRODUCT_SQ_DISTANCES,
    EXPECTED_SUM_SQ_DISTANCES,
    angular_momentum,
    center_of_mass,
    curvature,
    curvature_sq_sum,
    full_report,
    kinetic_energy,
    moment_of_inertia,
)
from lemnichor.orbit import BodyState, TripleState, Vec2, triple

from conftest import SQRT3, product_sq_distances, speed_relation_residual, sum_sq_distances


def synthetic_triple(positions):
    zero = Vec2(0.0, 0.0)
    bodies = tuple(BodyState(pos=p, vel=zero, acc=zero, t=0.0) for p in positions)
    return TripleState(bodies=bodies, t=0.0)


class TestCenterOfMass:
    @pytest.mark.parametrize("frac", [0.0, 1.0 / 6.0])
    def test_vanishes_on_orbit(self, ctx, frac):
        s = triple(frac * ctx.K, ctx)
        assert center_of_mass(s).norm() <= 1e-12

    def test_wrong_modulus_negative_control(self):
        bad = make_context(0.5)
        worst = max(
            center_of_mass(triple(i * 4.0 * bad.K / 100.0, bad)).norm()
            for i in range(100)
        )
        assert worst > 1e-3


class TestMomentOfInertia:
    def test_at_zero(self, ctx):
        assert moment_of_inertia(triple(0.0, ctx)) == pytest.approx(SQRT3, abs=1e-12)

    def test_at_third(self, ctx):
        assert moment_of_inertia(triple(ctx.K / 3.0, ctx)) == pytest.approx(SQRT3, abs=1e-11)

    def test_random_times(self, ctx, period):
        rng = random.Random(11)
        for _ in range(50):
            s = triple(rng.uniform(0.0, period), ctx)
            assert abs(moment_of_inertia(s) - SQRT3) <= 1e-11


class TestAngularMomentum:
    def test_at_zero(self, ctx):
        s = triple(0.0, ctx)
        assert abs(s.bodies[0].pos.cross(s.bodies[0].vel)) <= 1e-14
        assert abs(angular_momentum(s)) <= 1e-12

    def test_at_half(self, ctx):
        assert abs(angular_momentum(triple(ctx.K / 2.0, ctx))) <= 1e-11


class TestKineticEnergy:
    def test_at_zero_decomposition(self, ctx):
        s = triple(0.0, ctx)
        speeds = [v.norm_sq() for v in s.velocities]
        assert speeds[0] == pytest.approx(0.5, abs=1e-13)
        assert speeds[1] == pytest.approx(0.125, abs=1e-13)
        assert speeds[2] == pytest.approx(0.125, abs=1e-13)
        assert kinetic_energy(s) == pytest.approx(0.75, abs=1e-12)

    def test_at_two_thirds(self, ctx):
        assert kinetic_energy(triple(2.0 * ctx.K / 3.0, ctx)) == pytest.approx(0.75, abs=1e-11)

    def test_wrong_modulus_negative_control(self):
        # Not at m = 1/2: there the velocity relation reads v^2 = 1/2 with no
        # position term at all, so the kinetic sum is constant at any modulus
        # setting m = 1/2 exactly.  Any other wrong modulus de-conserves it.
        bad = make_context(0.3)
        vals = [
            kinetic_energy(triple(i * 4.0 * bad.K / 100.0, bad)) for i in range(100)
        ]
        assert max(vals) - min(vals) > 1e-3

    def test_half_modulus_kinetic_sum_is_trivially_constant(self):
        half = make_context(0.5)
        vals = [
            kinetic_energy(triple(i * 4.0 * half.K / 100.0, half)) for i in range(100)
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
        from lemnichor.orbit import body_state

        for i in range(200):
            t = i * period / 200.0 + 0.003
            rho_inv = curvature(t, ctx)
            assert abs(rho_inv**2 - 9.0 * body_state(t, ctx).pos.norm_sq()) <= 1e-9

    def test_sum_over_triple(self, ctx, period):
        for i in range(100):
            t = i * period / 100.0
            s = triple(t, ctx)
            assert abs(curvature_sq_sum(s, ctx) - 9.0 * SQRT3) <= 1e-9


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
        assert sum_sq_distances(triple(0.0, ctx)) == pytest.approx(3.0 * SQRT3, abs=1e-12)

    def test_sum_random_times(self, ctx, period):
        rng = random.Random(3)
        for _ in range(50):
            s = triple(rng.uniform(0.0, period), ctx)
            assert abs(sum_sq_distances(s) - 3.0 * SQRT3) <= 1e-11

    def test_three_i_equals_sum_on_any_centered_triple(self):
        # Pure algebra: zero center of mass forces sum (x_i - x_j)^2 = 3 I.
        rng = random.Random(17)
        for _ in range(100):
            p1 = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            p2 = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            s = synthetic_triple([p1, p2, -1.0 * (p1 + p2)])
            assert abs(3.0 * moment_of_inertia(s) - sum_sq_distances(s)) <= 1e-12

    def test_product_at_zero(self, ctx):
        assert product_sq_distances(triple(0.0, ctx)) == pytest.approx(1.5 * SQRT3, abs=1e-12)

    def test_product_random_times(self, ctx, period):
        rng = random.Random(4)
        for _ in range(50):
            s = triple(rng.uniform(0.0, period), ctx)
            assert abs(product_sq_distances(s) - 1.5 * SQRT3) <= 1e-10

    def test_product_permutation_symmetry(self, ctx):
        s = triple(0.9, ctx)
        rotated = TripleState(bodies=(s.bodies[1], s.bodies[2], s.bodies[0]), t=s.t)
        assert product_sq_distances(rotated) == pytest.approx(
            product_sq_distances(s), rel=1e-15
        )


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
