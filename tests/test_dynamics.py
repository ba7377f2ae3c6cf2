import math
import random
from array import array

import pytest

from lemnichor.dynamics import (
    ROW_WIDTH,
    CollisionError,
    PotentialVariant,
    TrajectoryPoint,
    eom_residual,
    forces,
    integrate,
    integrate_choreography,
    one_body_lemniscate_residual,
    one_body_state,
    potential,
    total_energy,
)
from lemnichor.elliptic import make_context
from lemnichor.orbit import Vec2, acceleration, position, triple, triple_phases, velocity

from conftest import SQRT3

U = PotentialVariant.U_CENTRAL
V = PotentialVariant.V_PAIRWISE


def random_triple(rng, min_sep=0.15):
    while True:
        ps = [Vec2(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(3)]
        seps = [(ps[i] - ps[j]).norm() for i in range(3) for j in range(i + 1, 3)]
        if min(seps) > min_sep:
            return ps


def central_push(x):
    """Closed-form repulsion of variant U on a body at x: (sqrt(3)/4) x."""
    return (SQRT3 / 4.0) * x


def newton(pts, i):
    """Closed-form log-potential attraction on body i: (1/2) sum_j d / |d|^2."""
    f = Vec2(0.0, 0.0)
    for j in range(3):
        if j != i:
            d = pts[j] - pts[i]
            f = f + (0.5 / d.norm_sq()) * d
    return f


class TestForces:
    def test_newton_equilateral_points_inward(self):
        pts = [
            Vec2(math.cos(a), math.sin(a))
            for a in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
        ]
        f_all = forces(pts, U)
        for i, p in enumerate(pts):
            f = f_all[i] - central_push(p)
            # force is antiparallel to the position vector by symmetry
            assert f.cross(p) == pytest.approx(0.0, abs=1e-14)
            assert f.dot(p) < 0.0

    def test_newton_cancels_for_body_at_origin(self, ctx):
        s = triple(0.0, ctx)
        f = forces(s.positions, U)[0] - central_push(s.positions[0])
        assert f.norm() <= 1e-13

    def test_newton_matches_rearranged_equation_of_motion(self, ctx):
        s = triple(0.0, ctx)
        f = forces(s.positions, U)[1] - central_push(s.positions[1])
        want = acceleration(4.0 * ctx.K / 3.0, ctx) - central_push(s.positions[1])
        assert (f - want).norm() <= 1e-10

    def test_newton_collision_error(self):
        pts = [Vec2(0.0, 0.0), Vec2(1e-11, 0.0), Vec2(1.0, 1.0)]
        for variant in (U, V):
            with pytest.raises(CollisionError):
                forces(pts, variant)

    def test_repulsive1_values(self):
        # Variant U's repulsion is what is left after the attraction.
        pts = [Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(-0.4, 0.9)]
        f = forces(pts, U)
        rep = [f[i] - newton(pts, i) for i in range(3)]
        assert rep[0].norm() <= 1e-15
        assert rep[1].x == pytest.approx(SQRT3 / 4.0, abs=1e-15)
        assert rep[1].y == pytest.approx(0.0, abs=1e-15)

    def test_repulsive1_linearity(self):
        # A rigid shift leaves the attraction alone: U's force moves by
        # (sqrt(3)/4) shift, V's (pairwise) force does not move.
        rng = random.Random(44)
        shift = Vec2(0.3, -0.8)
        for _ in range(20):
            pts = random_triple(rng)
            moved = [p + shift for p in pts]
            for i in range(3):
                d_u = forces(moved, U)[i] - forces(pts, U)[i]
                assert (d_u - central_push(shift)).norm() <= 1e-13
                assert (forces(moved, V)[i] - forces(pts, V)[i]).norm() <= 1e-13

    def test_repulsive2_equals_repulsive1_when_centered(self):
        rng = random.Random(42)
        done = 0
        while done < 50:
            p1 = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            p2 = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            pts = [p1, p2, -1.0 * (p1 + p2)]
            # Keep the attraction O(1), so that 1e-13 is a few ulps of the force.
            if min((pts[i] - pts[j]).norm() for i in range(3) for j in range(i + 1, 3)) < 0.15:
                continue
            done += 1
            f_u, f_v = forces(pts, U), forces(pts, V)
            for i in range(3):
                assert (f_v[i] - f_u[i]).norm() <= 1e-13

    def test_repulsive2_offset_by_center_of_mass(self):
        rng = random.Random(43)
        shift = Vec2(0.4, -0.2)
        for _ in range(50):
            pts = [p + shift for p in random_triple(rng)]
            com = (1.0 / 3.0) * (pts[0] + pts[1] + pts[2])
            f_u, f_v = forces(pts, U), forces(pts, V)
            for i in range(3):
                d = f_u[i] - f_v[i]
                want = (SQRT3 / 4.0) * com
                assert (d - want).norm() <= 1e-13

    def test_repulsive2_zero_for_body_between_antipodes(self, ctx):
        # Body 0 sits at the origin between antipodal partners: both the
        # attraction and the pairwise push on it vanish.
        s = triple(0.0, ctx)
        assert forces(s.positions, V)[0].norm() <= 1e-13


class TestPotential:
    def test_value_on_initial_triple(self, ctx):
        # Pairwise term is ln of the distance product over 4; the central term
        # is -(sqrt3/8) * moment of inertia = -3/8.
        want = 0.25 * math.log(1.5 * SQRT3) - 0.375
        s = triple(0.0, ctx)
        assert potential(s.positions, U) == pytest.approx(want, abs=1e-13)
        assert potential(s.positions, V) == pytest.approx(want, abs=1e-13)

    def test_unit_equilateral_pairwise_log_term_vanishes(self):
        r = 1.0 / math.sqrt(3.0)  # circumradius for unit side
        pts = [
            Vec2(r * math.cos(a), r * math.sin(a))
            for a in (0.5, 0.5 + 2.0 * math.pi / 3.0, 0.5 + 4.0 * math.pi / 3.0)
        ]
        want = -(SQRT3 / 8.0) * sum(p.norm_sq() for p in pts)
        assert potential(pts, U) == pytest.approx(want, abs=1e-13)

    def test_collision_error(self):
        pts = [Vec2(0.0, 0.0), Vec2(5e-11, 0.0), Vec2(1.0, 0.0)]
        with pytest.raises(CollisionError):
            potential(pts, U)

    @pytest.mark.parametrize("variant", [U, V])
    def test_force_is_negative_gradient(self, variant):
        rng = random.Random(7)
        h = 1e-6
        for _ in range(20):
            pts = random_triple(rng)
            for i in range(3):
                f = forces(pts, variant)[i]
                for axis in range(2):
                    bump = Vec2(h, 0.0) if axis == 0 else Vec2(0.0, h)
                    up = list(pts)
                    dn = list(pts)
                    up[i] = pts[i] + bump
                    dn[i] = pts[i] - bump
                    grad = (potential(up, variant) - potential(dn, variant)) / (2 * h)
                    got = f.x if axis == 0 else f.y
                    assert got == pytest.approx(-grad, abs=1e-7)


class TestEquationOfMotion:
    @pytest.mark.parametrize("variant", [U, V])
    @pytest.mark.parametrize("frac", [1.0 / 6.0, 2.0 / 3.0])
    def test_residual_on_orbit(self, ctx, variant, frac):
        assert eom_residual(frac * ctx.K, variant, ctx) < 1e-9

    def test_wrong_modulus_negative_control(self):
        bad = make_context(0.5)
        assert eom_residual(bad.K / 6.0, U, bad) > 1e-2

    def test_one_elliptic_evaluation_per_body(self, ctx, monkeypatch):
        import lemnichor.orbit as orbit

        calls = []
        real = orbit.sn_cn_dn
        monkeypatch.setattr(orbit, "sn_cn_dn", lambda t, c: calls.append(t) or real(t, c))
        eom_residual(0.3, U, ctx)
        assert len(calls) == 3

    def test_variants_identical_on_orbit(self, ctx, period):
        for i in range(100):
            t = i * period / 100.0
            d = abs(eom_residual(t, U, ctx) - eom_residual(t, V, ctx))
            assert d < 1e-12

    @pytest.mark.parametrize("variant", [U, V])
    def test_bit_equal_to_vec2_form(self, ctx, period, variant):
        # eom_residual reads the kernel's force tuple; the Vec2 form it
        # replaced is kept here as the oracle.
        rng = random.Random(20 if variant is U else 21)
        for _ in range(1000):
            t = rng.uniform(0.0, period)
            s = triple(t, ctx)
            want = max((b.acc - fi).norm() for b, fi in zip(s.bodies, forces(s.positions, variant)))
            assert bits([eom_residual(t, variant, ctx)]) == bits([want])


class TestTotalEnergy:
    def test_initial_value(self, ctx):
        s = triple(0.0, ctx)
        want = 0.375 + 0.25 * math.log(1.5 * SQRT3) - 0.375
        assert total_energy(s.positions, s.velocities, U) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("variant", [U, V])
    def test_constant_along_orbit(self, ctx, period, variant):
        vals = []
        for i in range(1000):
            s = triple(i * period / 1000.0, ctx)
            vals.append(total_energy(s.positions, s.velocities, variant))
        assert max(vals) - min(vals) < 1e-9


class TestIntegrate:
    def test_argument_validation(self, ctx):
        s = triple(0.0, ctx)
        with pytest.raises(ValueError):
            integrate(s.positions, s.velocities, U, dt=-0.1, n_steps=10)
        with pytest.raises(ValueError):
            integrate(s.positions, s.velocities, U, dt=0.1, n_steps=0)

    @pytest.mark.parametrize("record_every", [0, -2])
    def test_record_every_below_one_rejected(self, ctx, record_every):
        # 0 used to divide by zero at step 1 and -2 to record as 2 does.
        s = triple(0.0, ctx)
        with pytest.raises(ValueError, match="record_every"):
            integrate(s.positions, s.velocities, U, 0.01, 5, record_every=record_every)
        with pytest.raises(ValueError, match="record_every"):
            integrate_choreography(ctx, V, 0.01, 5, record_every=record_every)

    def test_collision_abort_keeps_partial_trajectory(self):
        pts = [Vec2(-1e-10, 0.0), Vec2(1e-10, 0.0), Vec2(1.0, 1.0)]
        vels = [Vec2(0.95, 0.0), Vec2(-0.95, 0.0), Vec2(0.0, 0.0)]
        with pytest.raises(CollisionError) as err:
            integrate(pts, vels, V, dt=1e-10, n_steps=10)
        assert err.value.step_index is not None
        assert err.value.partial is not None
        assert len(err.value.partial.points) >= 1

    def test_order_two_position_convergence(self, ctx, period):
        errs = []
        for n in (2**12, 2**13):
            traj = integrate_choreography(ctx, V, period / n, n, record_every=n)
            ref = triple(period, ctx)
            errs.append(
                max((p - q).norm() for p, q in zip(traj.final.positions, ref.positions))
            )
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_energy_drift_order_two(self, ctx, period):
        drifts = []
        for n in (2**12, 2**13):
            traj = integrate_choreography(ctx, U, period / n, n, record_every=n)
            drifts.append(traj.energy_drift)
        assert 3.0 < drifts[0] / drifts[1] < 5.0

    def test_pairwise_variant_conserves_center_of_mass(self, ctx, period):
        n = 2**12
        traj = integrate_choreography(ctx, V, period / n, n, record_every=n)
        com = traj.final.positions[0] + traj.final.positions[1] + traj.final.positions[2]
        assert com.norm() < 1e-11

    def test_central_variant_translated_ic_drifts(self, ctx, period):
        shift = Vec2(0.1, 0.05)
        phases = triple_phases(0.0, ctx)
        pts = [position(p, ctx) + shift for p in phases]
        vels = [velocity(p, ctx) for p in phases]
        n = 2**12
        traj = integrate(pts, vels, U, period / n, n, record_every=n)
        com = (1.0 / 3.0) * (
            traj.final.positions[0] + traj.final.positions[1] + traj.final.positions[2]
        )
        assert (com - shift).norm() > 1e-3

    def test_angular_momentum_conserved(self, ctx, period):
        n = 2**12
        for variant in (U, V):
            traj = integrate_choreography(ctx, variant, period / n, n, record_every=64)
            l_vals = [
                sum(p.cross(v) for p, v in zip(pt.positions, pt.velocities))
                for pt in traj.points
            ]
            assert max(abs(l) for l in l_vals) < 1e-12

    @pytest.mark.parametrize("variant", [U, V])
    def test_recorded_energy_is_total_energy(self, ctx, variant):
        traj = integrate_choreography(ctx, variant, 0.01, 64, record_every=4, t0=0.7)
        assert len(traj.points) == 17
        for pt in traj.points:
            assert pt.energy == total_energy(pt.positions, pt.velocities, variant)

    @pytest.mark.parametrize("variant", [U, V])
    def test_energy_drift_is_max_over_every_step(self, ctx, variant):
        traj = integrate_choreography(ctx, variant, 0.05, 200, record_every=1)
        e0 = traj.points[0].energy
        assert traj.energy_drift > 0.0
        assert traj.energy_drift == max(abs(pt.energy - e0) for pt in traj.points)

    def test_collision_at_start_reports_step_zero(self):
        pts = [Vec2(0.0, 0.0), Vec2(1e-11, 0.0), Vec2(1.0, 1.0)]
        vels = [Vec2(0.0, 0.0)] * 3
        with pytest.raises(CollisionError) as err:
            integrate(pts, vels, U, dt=0.1, n_steps=10)
        assert err.value.step_index == 0
        assert err.value.partial.points == []

    def test_recorded_samples_uniform(self, ctx, period):
        traj = integrate_choreography(ctx, V, 0.01, 32)
        ts = [pt.t for pt in traj.points]
        assert ts == pytest.approx([0.01 * i for i in range(33)], abs=1e-12)

    def test_rows_are_one_flat_array(self, ctx):
        traj = integrate_choreography(ctx, U, 0.01, 10, record_every=3)
        assert traj.rows.typecode == "d"
        assert len(traj.rows) == ROW_WIDTH * len(traj.points) == ROW_WIDTH * 5
        flat = []
        for pt in traj.points:
            flat.append(pt.t)
            for p, v in zip(pt.positions, pt.velocities):
                flat += [p.x, p.y, v.x, v.y]
            flat.append(pt.energy)
        assert list(traj.rows) == flat
        assert traj.final == traj.points[-1]

    def test_collision_partial_points_are_trajectory_points(self):
        pts = [Vec2(-1e-10, 0.0), Vec2(1e-10, 0.0), Vec2(1.0, 1.0)]
        vels = [Vec2(0.95, 0.0), Vec2(-0.95, 0.0), Vec2(0.0, 0.0)]
        with pytest.raises(CollisionError) as err:
            integrate(pts, vels, V, dt=1e-10, n_steps=10)
        partial = err.value.partial.points
        assert isinstance(partial, list)
        assert len(partial) == err.value.step_index
        assert all(isinstance(pt, TrajectoryPoint) for pt in partial)
        assert partial[0].positions == tuple(pts)
        assert partial[0].velocities == tuple(vels)

    def test_empty_partial_has_no_final(self):
        pts = [Vec2(0.0, 0.0), Vec2(1e-11, 0.0), Vec2(1.0, 1.0)]
        with pytest.raises(CollisionError) as err:
            integrate(pts, [Vec2(0.0, 0.0)] * 3, U, dt=0.1, n_steps=10)
        with pytest.raises(IndexError):
            err.value.partial.final


# The loop kernel that the unrolled one replaced, kept as the bit-exact
# reference: same pair order, same `** 2` in the potential, and the kinetic sum
# written out left to right as sum() did it before Python 3.12.


def loop_forces(px, py, central):
    fx = [0.0, 0.0, 0.0]
    fy = [0.0, 0.0, 0.0]
    for i in range(3):
        for j in range(i + 1, 3):
            dx = px[j] - px[i]
            dy = py[j] - py[i]
            r2 = dx * dx + dy * dy
            gx = 0.5 * dx / r2
            gy = 0.5 * dy / r2
            fx[i] += gx
            fy[i] += gy
            fx[j] -= gx
            fy[j] -= gy
    if central:
        for i in range(3):
            fx[i] += SQRT3 / 4.0 * px[i]
            fy[i] += SQRT3 / 4.0 * py[i]
    else:
        for i in range(3):
            sx = px[0] + px[1] + px[2] - 3.0 * px[i]
            sy = py[0] + py[1] + py[2] - 3.0 * py[i]
            fx[i] -= SQRT3 / 12.0 * sx
            fy[i] -= SQRT3 / 12.0 * sy
    return fx, fy


def loop_potential(px, py, central):
    pe = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            r2 = (px[j] - px[i]) ** 2 + (py[j] - py[i]) ** 2
            pe += 0.25 * math.log(r2)
            if not central:
                pe -= SQRT3 / 24.0 * r2
    if central:
        for i in range(3):
            pe -= SQRT3 / 8.0 * (px[i] * px[i] + py[i] * py[i])
    return pe


def loop_kinetic(vx, vy):
    k = 0.0
    for i in range(3):
        k += vx[i] * vx[i] + vy[i] * vy[i]
    return 0.5 * k


def loop_integrate(positions, velocities, central, dt, n_steps, record_every):
    """(recorded rows, energy drift) of the loop-kernel velocity Verlet."""
    px = [p.x for p in positions]
    py = [p.y for p in positions]
    vx = [v.x for v in velocities]
    vy = [v.y for v in velocities]
    rows = []

    def record(t, energy):
        rows.append(t)
        for i in range(3):
            rows.extend((px[i], py[i], vx[i], vy[i]))
        rows.append(energy)

    half = 0.5 * dt
    e0 = loop_kinetic(vx, vy) + loop_potential(px, py, central)
    record(0.0, e0)
    drift = 0.0
    fx, fy = loop_forces(px, py, central)
    for step in range(1, n_steps + 1):
        for i in range(3):
            vx[i] += half * fx[i]
            vy[i] += half * fy[i]
            px[i] += dt * vx[i]
            py[i] += dt * vy[i]
        fx, fy = loop_forces(px, py, central)
        for i in range(3):
            vx[i] += half * fx[i]
            vy[i] += half * fy[i]
        energy = loop_kinetic(vx, vy) + loop_potential(px, py, central)
        drift = max(drift, abs(energy - e0))
        if step % record_every == 0 or step == n_steps:
            record(step * dt, energy)
    return rows, drift


def bits(xs):
    """The IEEE bytes of a float sequence: unlike ==, tells -0.0 from 0.0."""
    return array("d", xs).tobytes()


class TestLoopOracle:
    @pytest.mark.parametrize("variant", [U, V])
    def test_forces_potential_energy_bit_equal(self, variant):
        rng = random.Random(8 if variant is U else 9)
        central = variant is U
        for _ in range(1000):
            pts = random_triple(rng)
            vels = [Vec2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(3)]
            px, py = [p.x for p in pts], [p.y for p in pts]
            fx, fy = loop_forces(px, py, central)
            got = [c for f in forces(pts, variant) for c in (f.x, f.y)]
            assert bits(got) == bits([c for i in range(3) for c in (fx[i], fy[i])])
            pe = loop_potential(px, py, central)
            assert bits([potential(pts, variant)]) == bits([pe])
            ke = loop_kinetic([v.x for v in vels], [v.y for v in vels])
            assert bits([total_energy(pts, vels, variant)]) == bits([ke + pe])

    @pytest.mark.parametrize("variant", [U, V])
    def test_signed_zeros_bit_equal(self, variant):
        # Bodies on the y axis with every sign of x = 0 and of vx = 0: only the
        # order of the sums decides the sign of a zero force or velocity.
        central = variant is U
        for signs in range(8):
            xs = [-0.0 if signs >> k & 1 else 0.0 for k in range(3)]
            pts = [Vec2(x, y) for x, y in zip(xs, (0.7, -0.2, -0.6))]
            vels = [Vec2(x, vy) for x, vy in zip(xs, (0.1, 0.4, -0.3))]
            fx, fy = loop_forces(xs, [p.y for p in pts], central)
            got = [c for f in forces(pts, variant) for c in (f.x, f.y)]
            assert bits(got) == bits([c for i in range(3) for c in (fx[i], fy[i])])
            traj = integrate(pts, vels, variant, 0.01, 50)
            rows, _ = loop_integrate(pts, vels, central, 0.01, 50, 1)
            assert bits(traj.rows) == bits(rows)

    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize("init", ["analytic", "seeded"])
    @pytest.mark.parametrize("variant", [U, V])
    def test_integrate_bit_equal(self, ctx, period, variant, init, record_every):
        if init == "analytic":
            s = triple(0.0, ctx)
            pts, vels, dt = s.positions, s.velocities, period / 65536.0
        else:
            rng = random.Random(12)
            pts = random_triple(rng, min_sep=0.5)
            vels = [Vec2(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(3)]
            dt = 1e-3
        n = 5000
        traj = integrate(pts, vels, variant, dt, n, record_every=record_every)
        rows, drift = loop_integrate(pts, vels, variant is U, dt, n, record_every)
        assert len(rows) == ROW_WIDTH * (n // record_every + 1 + (n % record_every != 0))
        assert bits(traj.rows) == bits(rows)
        assert bits([traj.energy_drift]) == bits([drift])


class TestCollisions:
    """One collision rule, r_ij^2 < DELTA_COLL^2, behind every entry point."""

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
    @pytest.mark.parametrize("variant", [U, V])
    def test_coincident_bodies_raise_everywhere(self, variant, pair):
        pts = [Vec2(0.3, -0.2) if k in pair else Vec2(1.0, 1.0) for k in range(3)]
        vels = [Vec2(0.1, 0.0)] * 3
        message = f"bodies {pair[0]} and {pair[1]} closer than"
        for call in (
            lambda: forces(pts, variant),
            lambda: potential(pts, variant),
            lambda: total_energy(pts, vels, variant),
        ):
            with pytest.raises(CollisionError, match=message):
                call()
        with pytest.raises(CollisionError, match=message) as err:
            integrate(pts, vels, variant, dt=0.1, n_steps=10)
        assert err.value.step_index == 0
        assert err.value.partial.points == []

    @pytest.mark.parametrize("variant", [U, V])
    def test_collision_at_later_step(self, variant):
        # Bodies 0 and 1 run head-on, mirror images of each other about x = 0,
        # so body 0 sits at x = 0 exactly when they meet.  Bisect the speed
        # until they meet at step k: below 16 body 0 is short of x = 0 at
        # step k, above 24 it is past it.
        k, dt = 5, 0.01

        def head_on(v):
            pts = [Vec2(-1.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, 3.0)]
            return pts, [Vec2(v, 0.0), Vec2(-v, 0.0), Vec2(0.0, 0.0)]

        lo, hi = 16.0, 24.0
        for _ in range(100):
            v = 0.5 * (lo + hi)
            try:
                x = integrate(*head_on(v), variant, dt, k).final.positions[0].x
            except CollisionError as exc:
                err = exc
                break
            lo, hi = (v, hi) if x < 0.0 else (lo, v)
        else:
            pytest.fail("the bisection found no collision")
        assert err.step_index == k
        # Every step before the collision is recorded, none after it.
        assert len(err.partial.points) == k
        before = integrate(*head_on(v), variant, dt, k - 1)
        assert bits(err.partial.rows) == bits(before.rows)
        assert err.partial.energy_drift == before.energy_drift


class TestOneBody:
    def test_residual_small_inside_domain(self):
        for i in range(50):
            t = -0.9 + 1.8 * i / 49.0
            assert one_body_lemniscate_residual(0.5, t) < 1e-8

    def test_specific_samples(self):
        assert one_body_lemniscate_residual(0.5, 0.0) < 1e-8
        assert one_body_lemniscate_residual(0.5, 0.4) < 1e-8

    def test_angular_momentum_equals_l(self):
        for l in (0.5, 0.2):
            for t in (-0.3, 0.0, 0.45):
                if abs(2 * l * t) >= 1.0:
                    continue
                pos, vel, _ = one_body_state(l, t)
                assert pos.cross(vel) == pytest.approx(l, abs=1e-13)

    def test_starts_on_lemniscate_apex(self):
        pos, _, _ = one_body_state(0.5, 0.0)
        assert pos == Vec2(1.0, 0.0)

    def test_collision_neighborhood_raises(self):
        with pytest.raises(ValueError):
            one_body_lemniscate_residual(0.5, 1.0)
        with pytest.raises(ValueError):
            one_body_state(0.5, -0.9999999)
