import math

import pytest

from lemnichor import analytic, cli
from lemnichor.analytic import PoleSpec
from lemnichor.dynamics import PotentialVariant, eom_residual
from lemnichor.elliptic import CHOREO_M, make_context
from lemnichor.geometry import _scan_grid, concurrency_point, tangents_from_point
from lemnichor.invariants import full_report
from lemnichor.orbit import (
    CheckResult,
    Vec2,
    acceleration,
    reduce_phase,
    triple,
    triple_phases,
    velocity,
)

from conftest import P0, Q0, lemniscate_residual, position


def central_difference(f, t, h):
    fp, fm = f(t + h), f(t - h)
    return Vec2((fp.x - fm.x) / (2 * h), (fp.y - fm.y) / (2 * h))


def second_difference(f, t, h):
    fp, f0, fm = f(t + h), f(t), f(t - h)
    return Vec2((fp.x - 2 * f0.x + fm.x) / h**2, (fp.y - 2 * f0.y + fm.y) / h**2)


class TestPosition:
    def test_origin(self, ctx):
        assert position(0.0, ctx) == Vec2(0.0, 0.0)

    def test_right_apex(self, ctx):
        p = position(ctx.K, ctx)
        assert p.x == pytest.approx(1.0, abs=1e-14)
        assert p.y == pytest.approx(0.0, abs=1e-14)

    def test_four_thirds_closed_form(self, ctx):
        # Algebraic substitution of the K/3-grid special values into the
        # parameterization gives (p, q) below; confirmed numerically.
        p = position(4.0 * ctx.K / 3.0, ctx)
        assert p.x == pytest.approx(P0, abs=1e-13)
        assert p.y == pytest.approx(Q0, abs=1e-13)

    def test_on_lemniscate_everywhere(self, ctx, period):
        for i in range(500):
            t = i * period / 500.0
            assert abs(lemniscate_residual(position(t, ctx))) <= 1e-12

    def test_periodicity(self, ctx, period):
        for t in (0.1, 0.9, 2.3, 3.7):
            assert math.dist(position(t + period, ctx), position(t, ctx)) <= 1e-12

    def test_oddness(self, ctx):
        for t in (0.25, 1.1, 2.2, 4.9):
            (xm, ym), (xp, yp) = position(-t, ctx), position(t, ctx)
            assert math.hypot(xm + xp, ym + yp) <= 1e-13


class TestVelocity:
    def test_at_origin(self, ctx):
        assert velocity(0.0, ctx) == (0.5, 0.5)

    def test_speed_squared_at_origin(self, ctx):
        vx, vy = velocity(0.0, ctx)
        assert vx * vx + vy * vy == pytest.approx(0.5, abs=1e-14)

    def test_speed_squared_at_four_thirds(self, ctx):
        # v^2 = 1/2 - (m - 1/2) x^2 with x^2 = sqrt(3)/2 there.
        vx, vy = velocity(4.0 * ctx.K / 3.0, ctx)
        assert vx * vx + vy * vy == pytest.approx(0.125, abs=1e-13)

    def test_matches_finite_differences(self, ctx, period):
        h = 1e-6
        for i in range(100):
            t = i * period / 100.0 + 0.0007
            fd = central_difference(lambda u: position(u, ctx), t, h)
            vx, vy = velocity(t, ctx)
            assert abs(vx - fd.x) <= 1e-8
            assert abs(vy - fd.y) <= 1e-8


class TestAcceleration:
    def test_matches_finite_differences(self, ctx, period):
        # Second differences bottom out near sqrt(eps)/h^2; h = 1e-4 keeps
        # the combined truncation + roundoff error under the 1e-6 bound.
        h = 1e-4
        for i in range(100):
            t = i * period / 100.0 + 0.0007
            fd = second_difference(lambda u: position(u, ctx), t, h)
            ax, ay = acceleration(t, ctx)
            assert abs(ax - fd.x) <= 1e-6
            assert abs(ay - fd.y) <= 1e-6

    def test_oddness(self, ctx):
        for t in (0.3, ctx.K, 2.1, 3.3):
            (axm, aym), (axp, ayp) = acceleration(-t, ctx), acceleration(t, ctx)
            assert math.hypot(axm + axp, aym + ayp) <= 1e-14

    def test_finite_at_apex(self, ctx):
        ax, ay = acceleration(ctx.K, ctx)
        fd = second_difference(lambda u: position(u, ctx), ctx.K, 1e-4)
        assert abs(ax - fd.x) <= 1e-6
        assert abs(ay - fd.y) <= 1e-6

    def test_equation_of_motion_forward_reference(self, ctx):
        assert eom_residual(ctx.K / 6.0, PotentialVariant.U_CENTRAL, ctx) < 1e-10


class TestTriple:
    def test_initial_configuration(self, ctx):
        s = triple(0.0, ctx)
        p1, p2, p3 = s.positions
        assert math.hypot(*p1) <= 1e-14
        assert p2.x == pytest.approx(P0, abs=1e-13)
        assert p2.y == pytest.approx(Q0, abs=1e-13)
        assert p3.x == pytest.approx(-P0, abs=1e-13)
        assert p3.y == pytest.approx(-Q0, abs=1e-13)

    def test_center_of_mass_zero(self, ctx):
        s = triple(0.0, ctx)
        (x0, y0), (x1, y1), (x2, y2) = s.positions
        assert math.hypot(x0 + x1 + x2, y0 + y1 + y2) <= 1e-12

    def test_all_bodies_on_lemniscate(self, ctx, period):
        for i in range(100):
            s = triple(i * period / 100.0, ctx)
            for p in s.positions:
                assert abs(lemniscate_residual(p)) <= 1e-12

    def test_choreography_cyclic_permutation(self, ctx, period):
        third = period / 3.0
        for t in (0.0, 0.37, 1.9):
            a = triple(t, ctx)
            b = triple(t + third, ctx)
            for i in range(3):
                assert math.dist(b.positions[i], a.positions[(i + 1) % 3]) <= 1e-12

    def test_phases_are_reduced_by_whole_periods(self, ctx, period):
        third = 4.0 * ctx.K / 3.0
        for t in (0.3, -0.0, -1.9, 5.0 * period + 0.3, -3.0 * period - 1.2):
            r = reduce_phase(t, ctx)
            assert abs(r) <= 0.5 * period
            assert triple_phases(t, ctx) == (r, r + third, r - third)
        # Within half a period t is its own reduction, to the sign of a zero.
        for t in (0.3, -0.0, -1.9, complex(1.3, -0.0), complex(-0.0, 0.4)):
            assert repr(reduce_phase(t, ctx)) == repr(t)
        # A complex t is reduced by its real part; its imaginary part is kept.
        z = reduce_phase(complex(7.0 * period + 0.2, -0.0), ctx)
        assert abs(z.real - 0.2) <= 1e-13 and math.copysign(1.0, z.imag) == -1.0

    @pytest.mark.parametrize("t", [1e4 + 0.55, 1e8 + 0.55, 1e16])
    def test_large_phase_meets_every_verify_gate(self, ctx, t):
        # Unreduced, the 4K/3 shifts of t lose their low bits: at 1e16 the
        # curvature sum was off by 7.5 and the EOM by 0.88.
        tol = cli.DEFAULT_TOLERANCES
        for name, r in full_report(t, ctx).residuals.items():
            assert r <= tol[name], name
        for variant in PotentialVariant:
            assert eom_residual(t, variant, ctx) <= tol["eom_residual"], variant

    def test_twelve_labelled_points_group_by_label_mod_4(self, ctx):
        # The twelve positions at t = j K/3 split into the four triples
        # triple(j mod 4 * K/3); points sharing a label mod 4 coincide.
        third = ctx.K / 3.0
        triples = [triple(j * third, ctx) for j in range(4)]
        for j in range(12):
            p = position(j * third, ctx)
            best = min(math.dist(q, p) for q in triples[j % 4].positions)
            assert best <= 1e-12


class TestValueTypes:
    def test_vec2_is_a_record_without_arithmetic(self):
        # Exactly the fields x and y; + and * raise rather than add, scale,
        # concatenate or repeat, also with a tuple on the left.
        v = Vec2(1.0, 2.0)
        assert v._fields == ("x", "y")
        assert (v.x, v.y) == (1.0, 2.0)
        for op in (lambda: v + v, lambda: (0.0,) + v, lambda: v * 2, lambda: 2 * v):
            with pytest.raises(TypeError):
                op()

    def test_fields_cannot_be_assigned(self, ctx):
        s = triple(0.3, ctx)
        values = [
            Vec2(1.0, 2.0), s, full_report(0.3, ctx), ctx,
            concurrency_point(s), tangents_from_point(Vec2(2.0 ** 0.5, 1.0), ctx)[0],
            PoleSpec(location=1j, x_plus_residue=-1j, icn_residue=1.0),
            CheckResult(name="n", claimed=0j, observed=0j, residual=0.0, tolerance=1e-12),
        ]
        assert len({type(v) for v in values}) == 8
        for value in values:
            for field in value._fields:
                with pytest.raises(AttributeError):
                    setattr(value, field, 0.0)

    def test_check_result_is_one_type(self):
        # Every gate of the CLI is a row of this type, the analytic checks included.
        assert analytic.CheckResult is CheckResult

    def test_repr(self):
        assert repr(Vec2(1.0, 2.0)) == "Vec2(x=1.0, y=2.0)"

    def test_context_is_a_value_key(self, ctx):
        # EllipticContext keys the _scan_grid cache: a context rebuilt for the
        # same modulus is equal, hashes the same and hits the cache.
        again = make_context(CHOREO_M)
        assert again is not ctx and again == ctx and hash(again) == hash(ctx)
        assert _scan_grid(again) is _scan_grid(ctx)
        assert make_context(0.5) != ctx
