import json
import math
import random
from functools import lru_cache

import pytest

from lemnichor.cli import main
from lemnichor.geometry import (
    BISECT_TOL,
    AxisAmbiguityError,
    _gap_and_slope,
    _wrap,
    complete_triple_from_point,
    concurrency_point,
    hyperbola_residual,
    quadrant,
    select_choreographic,
    sweep_row,
    tangent_hyperbola_intersections,
    tangents_from_point,
)
from lemnichor.orbit import Vec2, body_state, position, triple, velocity


def line_distance(c, point, direction):
    return abs((c - point).cross(direction)) / direction.norm()


def sample_times(period, n, skip_large_c=None):
    return [(j + 0.431) * period / n for j in range(n)]


# Grid of the bisection oracle, 16 times denser than the tangency scan.
ORACLE_NODES = 4096


@lru_cache(maxsize=1)
def _oracle_grid(ctx):
    nodes = [j * ctx.period / ORACLE_NODES for j in range(ORACLE_NODES)]
    return [position(s, ctx) for s in nodes], [velocity(s, ctx) for s in nodes]


def dense_bisection_roots(c, ctx):
    """Reference tangency search without Newton.

    The gap (c - x(s)) x v(s) at ORACLE_NODES orbit samples, each sign change
    bisected to BISECT_TOL, position and velocity evaluated separately.
    """
    period = ctx.period
    n = ORACLE_NODES
    xs, vs = _oracle_grid(ctx)
    g = [(c.x - x.x) * v.y - (c.y - x.y) * v.x for x, v in zip(xs, vs)]
    roots = []
    for j in range(n):
        gj, gk = g[j], g[(j + 1) % n]
        a = j * period / n
        if gj == 0.0:
            roots.append(a)
            continue
        if gj * gk >= 0.0:
            continue
        b = (j + 1) * period / n
        fa = gj
        while b - a > BISECT_TOL:
            mid = 0.5 * (a + b)
            fm = (c - position(mid, ctx)).cross(velocity(mid, ctx))
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))

    merged = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    if len(merged) > 1 and (merged[0] + period) - merged[-1] <= 1e-9:
        merged.pop()
    return merged


def assert_search_matches_oracle(points, ctx):
    """Same root count and roots within 1e-12 at every point."""
    for c in points:
        ref = dense_bisection_roots(c, ctx)
        got = [cand.s for cand in tangents_from_point(c, ctx)]
        assert len(got) == len(ref), c
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got, ref)), c


# Step of the finite-difference oracles below.
PERTURB = 1e-5


def _nudge_up_hyperbola(c, delta):
    # Move along the hyperbola branch of c, increasing y by delta.
    y = c.y + delta
    return Vec2(math.copysign(math.sqrt(1.0 + y * y), c.x), y)


def fd_phase_shifts(c, candidates, ctx):
    """Finite-difference forward rule: how far each candidate's phase moves
    when c is nudged up its hyperbola branch by PERTURB, found by a second
    tangency search and nearest-neighbour matching of the phases."""
    moved = tangents_from_point(_nudge_up_hyperbola(c, PERTURB), ctx)
    period = ctx.period
    shifts = []
    for cand in candidates:
        nearest = min(moved, key=lambda mc: abs(_wrap(mc.s - cand.s, period)))
        shifts.append(_wrap(nearest.s - cand.s, period))
    return shifts


def fd_rising_crossings(t, ctx):
    """Finite-difference upward rule: the crossings of the tangent line at
    phase t with the hyperbola that move up when t advances by PERTURB."""
    b = body_state(t, ctx)
    moved_b = body_state(t + PERTURB, ctx)
    moved = tangent_hyperbola_intersections(moved_b.pos, moved_b.vel)
    return [d for d in tangent_hyperbola_intersections(b.pos, b.vel)
            if min(moved, key=lambda p: (p - d).norm()).y > d.y]


class TestConcurrencyPoint:
    def test_snapshot_minus_sixth(self, ctx):
        s = triple(-ctx.K / 6.0, ctx)
        cp = concurrency_point(s)
        assert cp.finite
        assert abs(hyperbola_residual(cp.c)) <= 1e-8
        qc = quadrant(cp.c)
        assert all(quadrant(p) != qc for p in s.positions)

    def test_lies_on_hyperbola_at_many_times(self, ctx, period):
        for t in sample_times(period, 200):
            cp = concurrency_point(triple(t, ctx))
            if not cp.finite or cp.c.norm() > 50.0:
                continue
            assert abs(hyperbola_residual(cp.c)) <= 1e-8

    def test_pairwise_formulas_agree(self, ctx):
        from lemnichor.geometry import PARALLEL_TOL

        for t in (0.17, 0.9, 2.4, 3.3):
            s = triple(t, ctx)
            xs, vs = s.positions, s.velocities
            ls = [xs[i].cross(vs[i]) for i in range(3)]
            cs = []
            for i, j in ((0, 1), (1, 2), (2, 0)):
                vv = vs[i].cross(vs[j])
                if abs(vv) < PARALLEL_TOL:
                    continue
                cs.append(
                    Vec2(
                        -(ls[i] * vs[j].x - ls[j] * vs[i].x) / vv,
                        -(ls[i] * vs[j].y - ls[j] * vs[i].y) / vv,
                    )
                )
            assert len(cs) == 3
            for a in cs:
                for b in cs:
                    assert (a - b).norm() <= 1e-9

    def test_defining_relation(self, ctx):
        # c = x_i + lambda_i v_i for every body.
        for t in (0.4, 1.3, 2.9):
            s = triple(t, ctx)
            cp = concurrency_point(s)
            for i in range(3):
                rebuilt = s.positions[i] + cp.lambdas[i] * s.velocities[i]
                assert (rebuilt - cp.c).norm() <= 1e-9

    def test_concurrency_distance(self, ctx, period):
        for t in sample_times(period, 200):
            s = triple(t, ctx)
            cp = concurrency_point(s)
            if not cp.finite or cp.c.norm() > 50.0:
                continue
            for i in range(3):
                assert line_distance(cp.c, s.positions[i], s.velocities[i]) <= 1e-9


class TestHyperbolaResidual:
    def test_vertex(self):
        assert hyperbola_residual(Vec2(1.0, 0.0)) == 0.0

    def test_generic_point(self):
        assert hyperbola_residual(Vec2(math.sqrt(2.0), 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_off_curve(self):
        assert hyperbola_residual(Vec2(2.0, 0.0)) == pytest.approx(3.0)


class TestTangentsFromPoint:
    def test_body_phases_appear_among_roots(self, ctx, period):
        t = ctx.K / 7.0
        cp = concurrency_point(triple(t, ctx))
        cands = tangents_from_point(cp.c, ctx)
        phases = sorted(p % period for p in (t, t + period / 3.0, t - period / 3.0))
        found = sorted(c.s for c in cands)
        for p in phases:
            assert min(abs(f - p) for f in found) <= 1e-8

    def test_count_four_matches_dense_scan_oracle(self, ctx, period):
        # Independent oracle: sign changes of the tangency gap at 1e5 nodes.
        c = Vec2(math.sqrt(2.0), 1.0)
        n = 100_000
        signs = 0
        prev = None
        for j in range(n + 1):
            s = (j % n) * period / n
            g = (c - position(s, ctx)).cross(velocity(s, ctx))
            if prev is not None and prev * g < 0.0:
                signs += 1
            prev = g
        assert signs == 4
        assert len(tangents_from_point(c, ctx)) == 4

    def test_tangency_gap_refined_below_threshold(self, ctx):
        c = Vec2(math.sqrt(2.0), 1.0)
        for cand in tangents_from_point(c, ctx):
            g = (c - position(cand.s, ctx)).cross(velocity(cand.s, ctx))
            assert abs(g) < 1e-12
            assert (cand.point - position(cand.s, ctx)).norm() <= 1e-10

    def test_axis_point_candidates_pair_up(self, ctx, period):
        # For c on the x axis the tangency phases come in mirror pairs
        # s <-> 2K - s (mod 4K), reflecting the lemniscate's y symmetry.
        c = Vec2(1.5, 0.0)
        cands = tangents_from_point(c, ctx)
        phases = [cand.s for cand in cands]
        for s in phases:
            mirror = (2.0 * ctx.K - s) % period
            assert min(
                abs(p - mirror) if abs(p - mirror) < period / 2 else period - abs(p - mirror)
                for p in phases
            ) <= 1e-8

    def test_degenerate_point_warns(self, ctx):
        # Off the hyperbola a count other than four is returned as it is,
        # without a warning (warnings are errors in this suite).
        c = Vec2(0.5, 0.05)
        cands = tangents_from_point(c, ctx)
        assert len(cands) != 4
        assert len(cands) == len(dense_bisection_roots(c, ctx))

    def test_nan_point_brackets_nothing(self, ctx):
        # A NaN gap has no sign, so no node opens a bracket.
        assert tangents_from_point(Vec2(math.nan, 1.0), ctx) == []

    def test_matches_dense_bisection_on_hyperbola(self, ctx):
        rng = random.Random(20021)
        points = []
        for _ in range(984):
            u = rng.uniform(-4.0, 4.0)
            points.append(Vec2(rng.choice((-1.0, 1.0)) * math.cosh(u), math.sinh(u)))
        for cy in (1e-1, 1e-2, 1e-3, 1e-4):
            for sx in (-1.0, 1.0):
                for sy in (-1.0, 1.0):
                    points.append(Vec2(sx * math.sqrt(1.0 + cy * cy), sy * cy))
        assert {quadrant(c) for c in points} == {1, 2, 3, 4}
        # On the hyperbola the one scan finds every root.
        assert_search_matches_oracle(points, ctx)

    def test_matches_dense_bisection_in_box(self, ctx, period):
        rng = random.Random(20022)
        points = [Vec2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(1000)]
        assert_search_matches_oracle(points, ctx)
        # 1e-5 off the curve two tangency roots can share one scan cell and
        # be missed; every root that is returned is still a true one.
        for _ in range(200):
            b = body_state(rng.uniform(0.0, period), ctx)
            off = rng.choice((-1e-5, 1e-5)) / b.vel.norm()
            c = Vec2(b.pos.x - off * b.vel.y, b.pos.y + off * b.vel.x)
            ref = dense_bisection_roots(c, ctx)
            for cand in tangents_from_point(c, ctx):
                assert min(abs(_wrap(cand.s - r, period)) for r in ref) <= 1e-12, c

    def test_newton_slope_matches_central_difference(self, ctx, period):
        rng = random.Random(20023)
        h = 1e-5
        for _ in range(200):
            cx, cy = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            s = rng.uniform(0.0, period)
            _, slope = _gap_and_slope(cx, cy, s, ctx)
            g_up, _ = _gap_and_slope(cx, cy, s + h, ctx)
            g_down, _ = _gap_and_slope(cx, cy, s - h, ctx)
            assert slope == pytest.approx((g_up - g_down) / (2.0 * h), rel=1e-7, abs=1e-8)


class TestSelectChoreographic:
    def test_round_trip_recovers_triple(self, ctx, period):
        t = ctx.K / 7.0
        s = triple(t, ctx)
        cp = concurrency_point(s)
        picked = select_choreographic(cp.c, tangents_from_point(cp.c, ctx))
        for body in s.positions:
            assert min((cand.point - body).norm() for cand in picked) <= 1e-7

    def test_selected_tangents_reintersect_at_c(self, ctx):
        t = 0.8
        cp = concurrency_point(triple(t, ctx))
        picked = select_choreographic(cp.c, tangents_from_point(cp.c, ctx))
        for cand in picked:
            assert line_distance(cp.c, cand.point, velocity(cand.s, ctx)) <= 1e-8

    def test_methods_agree_at_hundred_points(self, ctx, period):
        # select_choreographic raises MethodDisagreementError internally if
        # the quadrant rule and the forward rule ever part ways.
        checked = 0
        for t in sample_times(period, 120):
            if checked >= 100:
                break
            cp = concurrency_point(triple(t, ctx))
            if not cp.finite or cp.c.norm() > 20.0:
                continue
            try:
                picked = select_choreographic(cp.c, tangents_from_point(cp.c, ctx))
            except AxisAmbiguityError:
                continue
            assert len(picked) == 3
            checked += 1
        assert checked >= 100

    def test_closed_form_matches_finite_difference_oracle(self, ctx):
        rng = random.Random(20024)
        points = []
        for _ in range(1000):
            u = rng.uniform(-4.0, 4.0)
            points.append(Vec2(rng.choice((-1.0, 1.0)) * math.cosh(u), math.sinh(u)))
        for cy in (1e-1, 1e-2, 1e-3, 1e-4):
            for sx in (-1.0, 1.0):
                for sy in (-1.0, 1.0):
                    points.append(Vec2(sx * math.sqrt(1.0 + cy * cy), sy * cy))
        assert {quadrant(c) for c in points} == {1, 2, 3, 4}
        for c in points:
            cands = tangents_from_point(c, ctx)
            picked = {cand.s for cand in select_choreographic(c, cands)}
            shifts = fd_phase_shifts(c, cands, ctx)
            assert {cand.s for cand, d in zip(cands, shifts) if d > 0.0} == picked, c
            assert sum(d < 0.0 for d in shifts) == 1, c

    def test_wrong_candidate_count_rejected(self, ctx):
        cp = concurrency_point(triple(0.8, ctx))
        cands = tangents_from_point(cp.c, ctx)
        with pytest.raises(ValueError):
            select_choreographic(cp.c, cands[:3])


class TestCompleteTripleFromPoint:
    def test_round_trip(self, ctx):
        t = ctx.K / 5.0
        (x2, x3), cp = complete_triple_from_point(t, ctx)
        s = triple(t, ctx)
        assert (x2 - s.positions[1]).norm() <= 1e-7
        assert (x3 - s.positions[2]).norm() <= 1e-7
        ref = concurrency_point(s)
        assert (cp.c - ref.c).norm() <= 1e-7

    def test_axis_phase_is_ambiguous(self, ctx):
        with pytest.raises(AxisAmbiguityError):
            complete_triple_from_point(ctx.K, ctx)

    def test_origin_phase_is_ambiguous(self, ctx):
        with pytest.raises(AxisAmbiguityError):
            complete_triple_from_point(0.0, ctx)

    def test_selected_intersection_moves_up_under_forward_nudge(self, ctx):
        t = ctx.K / 5.0
        x1, v1 = position(t, ctx), velocity(t, ctx)
        ds = tangent_hyperbola_intersections(x1, v1)
        assert len(ds) == 2
        sel = [d for d in ds if quadrant(d) != quadrant(x1)][0]
        rej = ds[0] if ds[1] is sel else ds[1]
        moved = tangent_hyperbola_intersections(
            position(t + 1e-5, ctx), velocity(t + 1e-5, ctx)
        )
        sel2 = min(moved, key=lambda p: (p - sel).norm())
        rej2 = min(moved, key=lambda p: (p - rej).norm())
        assert sel2.y > sel.y
        assert rej2.y < rej.y

    def test_closed_form_matches_finite_difference_oracle(self, ctx, period):
        rng = random.Random(20025)
        done = 0
        for _ in range(1000):
            t = rng.uniform(0.0, period)
            try:
                _, cp = complete_triple_from_point(t, ctx)
            except AxisAmbiguityError:
                continue
            assert fd_rising_crossings(t, ctx) == [cp.c], t
            done += 1
        assert done >= 990

    def test_far_concurrency_point(self, ctx, capsys):
        # A body 6e-5 from the origin puts c ~4659 out on an asymptote, where
        # a finite-difference nudge of PERTURB is too coarse to tell the
        # crossings apart; the closed-form rule is not.
        t = 23.98975665873551
        code = main(["geometry", f"--from-point={t!r}"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert math.hypot(*data["c"]) > 4000.0
        s = triple(t, ctx)
        for key, body in (("x2", s.positions[1]), ("x3", s.positions[2])):
            assert math.dist(data[key], (body.x, body.y)) <= 1e-7

    def test_round_trip_many_phases(self, ctx, period):
        done = 0
        for t in sample_times(period, 24):
            s = triple(t, ctx)
            try:
                (x2, x3), _ = complete_triple_from_point(t, ctx)
            except AxisAmbiguityError:
                continue
            assert (x2 - s.positions[1]).norm() <= 1e-7
            assert (x3 - s.positions[2]).norm() <= 1e-7
            done += 1
        assert done >= 18


class TestTangentHyperbolaIntersections:
    def test_miss_raises(self):
        from lemnichor.geometry import NoIntersectionError

        # Vertical line through the origin never meets cx^2 - cy^2 = 1.
        with pytest.raises(NoIntersectionError):
            tangent_hyperbola_intersections(Vec2(0.0, 0.0), Vec2(0.0, 1.0))

    def test_intersections_on_hyperbola(self, ctx):
        for t in (0.3, 1.1, 2.7):
            ds = tangent_hyperbola_intersections(position(t, ctx), velocity(t, ctx))
            for d in ds:
                assert abs(hyperbola_residual(d)) <= 1e-10


class TestObservedProperties:
    def test_quadrant_separation(self, ctx, period):
        # Bodies and c occupy four distinct quadrants at generic times.
        for t in sample_times(period, 400):
            s = triple(t, ctx)
            cp = concurrency_point(s)
            if not cp.finite:
                continue
            try:
                quads = [quadrant(p) for p in s.positions] + [quadrant(cp.c)]
            except AxisAmbiguityError:
                continue
            assert len(set(quads)) == 4

    def test_c_moves_up_between_leaf_jumps(self, ctx, period):
        n = 1200
        prev = None
        for j in range(n):
            t = (j + 0.219) * period / n
            cp = concurrency_point(triple(t, ctx))
            cur = (cp.c.x, cp.c.y) if cp.finite else None
            if prev is not None and cur is not None:
                same_leaf = prev[0] * cur[0] > 0.0
                if same_leaf:
                    assert cur[1] > prev[1] - 1e-9
            prev = cur

    def test_leaf_jumps_coincide_with_origin_passages(self, ctx, period):
        # A body crosses the origin exactly at multiples of 2K/3; each leaf
        # change of c must bracket one of them at the sampling resolution.
        n = 1200
        step = period / n
        spacing = 2.0 * ctx.K / 3.0
        jumps = []
        prev_x = None
        for j in range(n + 1):
            t = (j + 0.219) * step
            cp = concurrency_point(triple(t, ctx))
            if not cp.finite:
                prev_x = None
                continue
            if prev_x is not None and prev_x * cp.c.x < 0.0:
                jumps.append(t - 0.5 * step)
            prev_x = cp.c.x
        assert len(jumps) >= 5
        for tj in jumps:
            nearest = round(tj / spacing) * spacing
            assert abs(tj - nearest) <= step

    def test_c_axis_crossing_mirrors_a_body_crossing(self, ctx, period):
        # When c crosses the horizontal axis it sits at (+-1, 0) and one body
        # crosses the axis at that same point moving the other way.
        n = 2400
        step = period / n

        def cy(t):
            return concurrency_point(triple(t, ctx)).c.y

        events = []
        prev = None
        for j in range(n + 1):
            t = (j + 0.219) * step
            cp = concurrency_point(triple(t, ctx))
            if not cp.finite or cp.c.norm() > 50.0:
                prev = None
                continue
            if prev is not None and prev[1] * cp.c.y < 0.0:
                events.append((prev[0], t))
            prev = (t, cp.c.y)
        assert events
        for a, b in events[:4]:
            for _ in range(60):
                mid = 0.5 * (a + b)
                if cy(a) * cy(mid) <= 0.0:
                    b = mid
                else:
                    a = mid
            t_star = 0.5 * (a + b)
            cp = concurrency_point(triple(t_star, ctx))
            assert abs(abs(cp.c.x) - 1.0) <= 1e-6
            assert abs(cp.c.y) <= 1e-6
            s = triple(t_star, ctx)
            i = min(range(3), key=lambda k: abs(s.positions[k].y))
            assert (s.positions[i] - cp.c).norm() <= 1e-6
            c_up = cy(t_star + 10 * step) > cy(t_star - 10 * step)
            body_up = s.velocities[i].y > 0.0
            assert c_up != body_up

    def test_forward_motion_crosses_origin_upward(self, ctx):
        # "Forward" is increasing t; at every origin passage the body must be
        # heading up, which pins the convention to the curve orientation.
        for t in (0.0, 2.0 * ctx.K):
            assert position(t, ctx).norm() <= 1e-13
            assert velocity(t, ctx).y > 0.0

    def test_sweep_row_fields(self, ctx):
        rec = sweep_row(0.7, ctx)
        assert set(rec) >= {
            "t", "cx", "cy", "lambda1", "lambda2", "lambda3",
            "quadrant_c", "quadrant_1", "quadrant_2", "quadrant_3",
            "hyperbola_residual", "finite",
        }
        assert rec["finite"]
