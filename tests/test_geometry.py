import json
import math
import random
from functools import lru_cache

import pytest

from lemnichor import geometry
from lemnichor.cli import main
from lemnichor.elliptic import sn_cn_dn
from lemnichor.geometry import (
    SWEEP_FIELDS,
    ConcurrencyPoint,
    ConstructionRefusal,
    complete_triple_from_point,
    concurrency_point,
    hyperbola_residual,
    quadrant,
    select_choreographic,
    sweep_row,
    tangents_from_point,
)
from lemnichor.orbit import HYPERBOLA_TOL, Vec2, coords, reduce_phase, triple, triple_phases, velocity

from conftest import OracleVec, cross, dot, line_distance, oracle_sum, position


def gap(c, s, ctx):
    """The tangency gap (c - x(s)) x v(s), position and velocity evaluated separately."""
    (x, y), v = position(s, ctx), velocity(s, ctx)
    return cross((c[0] - x, c[1] - y), v)


def sample_times(period, n, skip_large_c=None):
    return [(j + 0.431) * period / n for j in range(n)]


# Grid of the bisection oracle, and the width in s it bisects each bracket to.
ORACLE_NODES = 4096
BISECT_TOL = 1e-13


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
    cx, cy = c
    g = [(cx - x) * vy - (cy - y) * vx for (x, y), (vx, vy) in zip(xs, vs)]
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
            fm = gap(c, mid, ctx)
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


def assert_roots_match_oracle(points, ctx):
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
    construction and nearest-neighbour matching of the phases."""
    moved = tangents_from_point(_nudge_up_hyperbola(c, PERTURB), ctx)
    shifts = []
    for cand in candidates:
        nearest = min(moved, key=lambda mc: abs(reduce_phase(mc.s - cand.s, ctx)))
        shifts.append(reduce_phase(nearest.s - cand.s, ctx))
    return shifts


def line_hyperbola_crossings(x, y, vx, vy):
    """The two crossings of the line (x, y) + lam (vx, vy) with cx^2 - cy^2 = 1,
    by the quadratic formula: an oracle for the c of a tangent line that does
    not go through the cubic."""
    a = vx * vx - vy * vy
    b = 2.0 * (x * vx - y * vy)
    sq = math.sqrt(b * b - 4.0 * a * hyperbola_residual((x, y)))
    return [(x + lam * vx, y + lam * vy) for lam in ((-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a))]


def fd_rising_crossings(t, ctx):
    """Finite-difference upward rule: the crossings of the tangent line at
    phase t with the hyperbola that move up when t advances by PERTURB."""
    x, y, vx, vy, _, _ = coords(t, ctx)
    mx, my, mvx, mvy, _, _ = coords(t + PERTURB, ctx)
    moved = line_hyperbola_crossings(mx, my, mvx, mvy)
    return [d for d in line_hyperbola_crossings(x, y, vx, vy)
            if min(moved, key=lambda p: math.dist(p, d))[1] > d[1]]


class TestConcurrencyPoint:
    def test_snapshot_minus_sixth(self, ctx):
        s = triple(-ctx.K / 6.0, ctx)
        cp = concurrency_point(s)
        assert math.isfinite(cp.c.x)
        assert abs(hyperbola_residual(cp.c)) <= 1e-8
        qc = quadrant(*cp.c)
        assert all(quadrant(*p) != qc for p in s.positions)

    def test_lies_on_hyperbola_at_many_times(self, ctx, period):
        for t in sample_times(period, 200):
            cp = concurrency_point(triple(t, ctx))
            if not math.isfinite(cp.c.x) or math.hypot(*cp.c) > 50.0:
                continue
            assert abs(hyperbola_residual(cp.c)) <= 1e-8

    def test_pairwise_formulas_agree(self, ctx):
        from lemnichor.geometry import PARALLEL_TOL

        for t in (0.17, 0.9, 2.4, 3.3):
            s = triple(t, ctx)
            xs, vs = s.positions, s.velocities
            ls = [cross(xs[i], vs[i]) for i in range(3)]
            cs = []
            for i, j in ((0, 1), (1, 2), (2, 0)):
                vv = cross(vs[i], vs[j])
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
                    assert math.dist(a, b) <= 1e-9

    def test_lambdas_match_the_loop_bit_for_bit(self, ctx):
        # c and the lambdas as they were computed on plane vectors with each
        # v_i x v_j formed in the loop, c as the mean of the finite pair
        # formulas and lambda_i = (c - x_i) . v_i / (v_i . v_i), the foot of c
        # on line i: orbit triples, and triples with each velocity pair in
        # turn parallel, whose c skips that pair.
        from lemnichor.geometry import PARALLEL_TOL
        from lemnichor.orbit import TripleState

        def oracle(s):
            xs = [OracleVec(*p) for p in s.positions]
            vs = [OracleVec(*v) for v in s.velocities]
            ls = [xs[i].cross(vs[i]) for i in range(3)]
            cs = []
            for i in range(3):
                j = (i + 1) % 3
                vv = vs[i].cross(vs[j])
                if abs(vv) < PARALLEL_TOL:
                    continue
                cs.append(OracleVec(-(ls[i] * vs[j].x - ls[j] * vs[i].x) / vv,
                                    -(ls[i] * vs[j].y - ls[j] * vs[i].y) / vv))
            c = OracleVec(oracle_sum(p.x for p in cs) / len(cs),
                          oracle_sum(p.y for p in cs) / len(cs))
            out = [dot(c - xs[i], vs[i]) / dot(vs[i], vs[i]) for i in range(3)]
            return [v.hex() for v in (*c, *out)]

        rng = random.Random(5)
        states = [triple(rng.uniform(-20.0, 20.0), ctx) for _ in range(200)]
        for k in range(3):
            vs = [Vec2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(3)]
            vs[(k + 1) % 3] = Vec2(0.7 * vs[k].x, 0.7 * vs[k].y)  # v_k x v_{k+1} is 0
            xs = tuple(Vec2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(3))
            states.append(TripleState(xs, tuple(vs)))
        parallel = 0
        for s in states:
            cp = concurrency_point(s)
            assert math.isfinite(cp.c.x)
            assert [v.hex() for v in (*cp.c, *cp.lambdas)] == oracle(s)
            vs = s.velocities
            parallel += any(abs(cross(vs[i], vs[(i + 1) % 3])) < PARALLEL_TOL for i in range(3))
        assert parallel == 3

    def test_defining_relation(self, ctx):
        # c = x_i + lambda_i v_i for every body.
        for t in (0.4, 1.3, 2.9):
            s = triple(t, ctx)
            cp = concurrency_point(s)
            for (x, y), (vx, vy), lam in zip(s.positions, s.velocities, cp.lambdas):
                assert math.dist((x + lam * vx, y + lam * vy), cp.c) <= 1e-9

    def test_concurrency_distance(self, ctx, period):
        for t in sample_times(period, 200):
            s = triple(t, ctx)
            cp = concurrency_point(s)
            if not math.isfinite(cp.c.x) or math.hypot(*cp.c) > 50.0:
                continue
            for i in range(3):
                assert line_distance(cp.c, s.positions[i], s.velocities[i]) <= 1e-9

    def test_lambdas_rebuild_c_on_every_sweep_phase(self, ctx, period):
        # max_i |x_i + lambda_i v_i - c| relative to max(1, |c|), on the sweep
        # grid of 5000 samples.  The lambdas of crossing lines i and j, in place
        # of the foot of c on line i, reach 5.4e-12 here (|c| up to ~3800).
        worst = 0.0
        for t in sample_times(period, 5000):
            s = triple(t, ctx)
            cp = concurrency_point(s)
            if not math.isfinite(cp.c.x):
                continue
            gap = max(math.dist((x + lam * vx, y + lam * vy), cp.c)
                      for (x, y), (vx, vy), lam in zip(s.positions, s.velocities, cp.lambdas))
            worst = max(worst, gap / max(1.0, math.hypot(*cp.c)))
        assert worst <= 1e-13


class TestHyperbolaResidual:
    def test_vertex(self):
        assert hyperbola_residual(Vec2(1.0, 0.0)) == 0.0

    def test_generic_point(self):
        assert hyperbola_residual(Vec2(math.sqrt(2.0), 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_off_curve(self):
        assert hyperbola_residual(Vec2(2.0, 0.0)) == pytest.approx(3.0)

    def test_the_construction_reads_it(self, capsys, monkeypatch):
        # tangents_from_point holds its c to the hyperbola gate through
        # hyperbola_residual, so a wrong formula there refuses the
        # construction.
        def run():
            code = main(["geometry", "--from-point", "0.55"])
            return code, capsys.readouterr().out

        right = run()
        monkeypatch.setattr(geometry, "hyperbola_residual",
                            lambda c: c[0] * c[0] + c[1] * c[1] - 1.0)
        assert run() != right


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
            g = gap(c, s, ctx)
            if prev is not None and prev * g < 0.0:
                signs += 1
            prev = g
        assert signs == 4
        assert len(tangents_from_point(c, ctx)) == 4

    def test_tangency_gap_refined_below_threshold(self, ctx):
        c = Vec2(math.sqrt(2.0), 1.0)
        for cand in tangents_from_point(c, ctx):
            assert abs(gap(c, cand.s, ctx)) < 1e-12
            assert math.dist((cand.x, cand.y), position(cand.s, ctx)) <= 1e-10

    def test_axis_point_candidates_pair_up(self, ctx, period):
        # For c on the x axis, the vertex (1, 0), the tangency phases come in
        # mirror pairs s <-> 2K - s (mod 4K), reflecting the lemniscate's y
        # symmetry; the body at c itself, s = K, is its own mirror and a root
        # of both cubics.
        c = Vec2(1.0, 0.0)
        cands = tangents_from_point(c, ctx)
        phases = [cand.s for cand in cands]
        for s in phases:
            mirror = (2.0 * ctx.K - s) % period
            assert min(
                abs(p - mirror) if abs(p - mirror) < period / 2 else period - abs(p - mirror)
                for p in phases
            ) <= 1e-8

    @pytest.mark.parametrize("c", [
        Vec2(0.5, 0.05),  # two tangents, by the dense-bisection oracle
        Vec2(math.nan, 1.0),
        Vec2(1.5, 0.0),
        Vec2(math.inf, math.inf),
        Vec2(math.sqrt(2.0), 1.0 + 1e-10),
    ], ids=["inside", "nan", "axis", "infinite", "1e-10 off"])
    def test_off_curve_point_is_refused(self, c, ctx):
        # Off the hyperbola the cubics would answer for another point.
        with pytest.raises(ConstructionRefusal, match=r"is off the hyperbola cx\^2 - cy\^2 = 1$"):
            tangents_from_point(c, ctx)

    @pytest.mark.parametrize("cx, taken", [
        ("1.4142135623783982", True),
        ("1.4142135623943084", False),
    ], ids=["5e-12", "2e-11"])
    def test_hyperbola_gate_at_its_edge(self, cx, taken, ctx):
        # (cx, 1) is 5e-12 and 2e-11 off the curve, relative: the gate is the
        # CLI's, at the one tolerance HYPERBOLA_TOL.
        c = (float(cx), 1.0)
        relative = geometry.relative_hyperbola_residual(c, hyperbola_residual(c))
        assert (relative <= HYPERBOLA_TOL) == taken
        if taken:
            assert len(tangents_from_point(c, ctx)) == 4
        else:
            with pytest.raises(ConstructionRefusal):
                tangents_from_point(c, ctx)

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
        assert {quadrant(*c) for c in points} == {1, 2, 3, 4}
        # The closed forms against the independent search, near the vertices too.
        assert_roots_match_oracle(points, ctx)

    def test_first_cubic_flags_the_bodies(self, ctx):
        # Three candidates are first-cubic roots, and their phases are the
        # phases of the triple whose tangent lines meet at c.
        t = ctx.K / 7.0
        cp = concurrency_point(triple(t, ctx))
        cands = tangents_from_point(cp.c, ctx)
        assert [cand.s for cand in cands] == sorted(cand.s for cand in cands)
        bodies = [cand.s for cand in cands if cand.first_cubic]
        assert len(bodies) == 3
        for p in triple_phases(t, ctx):
            assert min(abs(reduce_phase(s - p, ctx)) for s in bodies) <= 1e-13


def hyperbola_points(seed, n, u_min=0.0):
    """n seeded points (±cosh u, sinh u) of the hyperbola, u_min <= |u| <= 3."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        u = rng.choice((-1.0, 1.0)) * rng.uniform(u_min, 3.0)
        points.append(Vec2(rng.choice((-1.0, 1.0)) * math.cosh(u), math.sinh(u)))
    return points


class TestSelectChoreographic:
    def test_round_trip_recovers_triple(self, ctx, period):
        t = ctx.K / 7.0
        s = triple(t, ctx)
        cp = concurrency_point(s)
        picked = select_choreographic(cp.c, tangents_from_point(cp.c, ctx))
        for body in s.positions:
            assert min(math.dist((cand.x, cand.y), body) for cand in picked) <= 1e-7

    def test_selected_tangents_reintersect_at_c(self, ctx):
        t = 0.8
        cp = concurrency_point(triple(t, ctx))
        picked = select_choreographic(cp.c, tangents_from_point(cp.c, ctx))
        for cand in picked:
            assert line_distance(cp.c, (cand.x, cand.y), velocity(cand.s, ctx)) <= 1e-8

    def test_methods_agree_at_hundred_points(self, ctx, period):
        # select_choreographic raises ConstructionRefusal internally if the
        # quadrant rule and the first cubic ever part ways.
        checked = 0
        for t in sample_times(period, 120):
            if checked >= 100:
                break
            cp = concurrency_point(triple(t, ctx))
            if not math.isfinite(cp.c.x) or math.hypot(*cp.c) > 20.0:
                continue
            try:
                picked = select_choreographic(cp.c, tangents_from_point(cp.c, ctx))
            except ConstructionRefusal:
                continue
            assert len(picked) == 3
            checked += 1
        assert checked >= 100

    def test_selected_phases_are_a_third_of_a_period_apart(self, ctx, period):
        # The three roots of the first cubic at 300 seeded hyperbola points,
        # each phase one R_F inversion of its root.
        worst = 0.0
        for c in hyperbola_points(406, 300, u_min=0.05):
            s = sorted(cand.s for cand in select_choreographic(c, tangents_from_point(c, ctx)))
            for d in (s[1] - s[0], s[2] - s[1], s[0] + period - s[2]):
                worst = max(worst, abs(reduce_phase(d - period / 3.0, ctx)))
        assert worst <= 5e-14

    def test_closed_form_matches_finite_difference_oracle(self, ctx):
        # The three that the quadrant rule keeps advance as c moves up its
        # branch, and the fourth retreats: a second construction PERTURB up
        # the hyperbola, matched by nearest phase.
        rng = random.Random(20024)
        points = []
        for _ in range(1000):
            u = rng.uniform(-4.0, 4.0)
            points.append(Vec2(rng.choice((-1.0, 1.0)) * math.cosh(u), math.sinh(u)))
        for cy in (1e-1, 1e-2, 1e-3, 1e-4):
            for sx in (-1.0, 1.0):
                for sy in (-1.0, 1.0):
                    points.append(Vec2(sx * math.sqrt(1.0 + cy * cy), sy * cy))
        assert {quadrant(*c) for c in points} == {1, 2, 3, 4}
        for c in points:
            cands = tangents_from_point(c, ctx)
            picked = {cand.s for cand in select_choreographic(c, cands)}
            shifts = fd_phase_shifts(c, cands, ctx)
            assert {cand.s for cand, d in zip(cands, shifts) if d > 0.0} == picked, c
            assert sum(d < 0.0 for d in shifts) == 1, c

    def test_wrong_candidate_count_rejected(self, ctx):
        cp = concurrency_point(triple(0.8, ctx))
        cands = tangents_from_point(cp.c, ctx)
        with pytest.raises(ConstructionRefusal, match="need exactly 4 candidates, got 3"):
            select_choreographic(cp.c, cands[:3])


class TestCompleteTripleFromPoint:
    def test_round_trip(self, ctx):
        t = ctx.K / 5.0
        (x2, x3), cp = complete_triple_from_point(t, ctx)
        s = triple(t, ctx)
        assert math.dist(x2, s.positions[1]) <= 1e-7
        assert math.dist(x3, s.positions[2]) <= 1e-7
        ref = concurrency_point(s)
        assert math.dist(cp.c, ref.c) <= 1e-7

    def test_axis_phase_is_ambiguous(self, ctx):
        with pytest.raises(ConstructionRefusal):
            complete_triple_from_point(ctx.K, ctx)

    def test_origin_phase_is_ambiguous(self, ctx):
        # The origin lies on both axes: the axis rule refuses it.
        with pytest.raises(ConstructionRefusal) as err:
            complete_triple_from_point(0.0, ctx)
        assert str(err.value) == "point (0.0, 0.0) lies within 1e-08 of an axis"

    def test_closed_form_matches_finite_difference_oracle(self, ctx, period):
        # The closed-form c is the crossing of x1's tangent line with the
        # hyperbola, by the quadratic formula, that moves up as x1 moves
        # forward.  Far out the line is nearly parallel to an asymptote, and a
        # rounding of its direction moves the crossing by ~1e-16 |c|^2 (the
        # oracle reads 3.9e-13 |c|^2 at worst here).
        rng = random.Random(20025)
        done = 0
        for _ in range(1000):
            t = rng.uniform(0.0, period)
            try:
                _, cp = complete_triple_from_point(t, ctx)
            except ConstructionRefusal:
                continue
            (d,) = fd_rising_crossings(t, ctx)
            assert math.dist(d, cp.c) <= 1e-12 * max(1.0, math.hypot(*cp.c)) ** 2, t
            done += 1
        assert done >= 990

    def test_from_point_round_trip(self, ctx):
        rng = random.Random(407)
        worst = 0.0
        done = 0
        for _ in range(300):
            t = rng.uniform(-25.0, 25.0)
            try:
                (x2, x3), _ = complete_triple_from_point(t, ctx)
            except ConstructionRefusal:
                continue
            for x, p in zip((x2, x3), triple_phases(t, ctx)[1:]):
                worst = max(worst, math.dist(x, position(p, ctx)))
            done += 1
        assert done >= 280
        assert worst <= 1e-13

    @pytest.mark.parametrize("t", [
        0.0,  # x1 at the origin: the denominator t1 (t1^2 - sqrt3) is 0
        1e150,  # the denominator overflows: E = -0.0
        1e-320,  # the denominator is subnormal: E = -inf
        math.inf,  # E is NaN
        math.nan,
    ])
    def test_c_at_infinity_is_a_refusal(self, t, tmp_path, capsys, monkeypatch):
        # t1 = sn / (1 + cn) is pinned through the kernel's (sn, cn) = (t1, 0)
        # at x1.  No ZeroDivisionError or OverflowError reaches cli.run, which
        # does not map them to exit 2.
        monkeypatch.setattr(geometry, "sn_cn_dn", lambda s, c: (t, 0.0, 1.0))
        out = tmp_path / "out.json"
        code = main(["geometry", "--from-point", "0.55", "--output", str(out)])
        assert (code, *capsys.readouterr()) == (
            2, "", f"invalid input: tangent line at t={t!r} is parallel to an asymptote"
                   " of the hyperbola\n")
        assert list(tmp_path.iterdir()) == []

    def test_c_in_the_quadrant_of_x1_is_a_refusal(self, ctx, monkeypatch):
        # The paper's rule, which no phase breaks: x1 at 0.55 lies in quadrant
        # 1, and so does the hyperbola point put in place of its c.
        monkeypatch.setattr(geometry, "_concurrency_of", lambda t: (math.sqrt(2.0), 1.0))
        x, y = position(0.55, ctx)
        with pytest.raises(ConstructionRefusal) as err:
            complete_triple_from_point(0.55, ctx)
        assert str(err.value) == (f"c = ({math.sqrt(2.0)!r}, 1.0) lies in the quadrant of"
                                  f" x1 = ({x!r}, {y!r})")

    def test_far_concurrency_point(self, ctx, capsys):
        # A body 6e-5 from the origin puts c ~4659 out on an asymptote, where
        # a finite-difference nudge of PERTURB is too coarse to tell the
        # crossings apart; the closed form is not.
        t = 23.98975665873551
        code = main(["geometry", f"--from-point={t!r}"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert math.hypot(*data["c"]) > 4000.0
        s = triple(t, ctx)
        for key, body in (("x2", s.positions[1]), ("x3", s.positions[2])):
            assert math.dist(data[key], (body.x, body.y)) <= 1e-7

    @staticmethod
    def assert_lambdas_belong_to_the_reported_bodies(t, ctx, capsys):
        # c = x_i + lambda_i v_i, to 1e-14 max(1, |c|), for body 1 at phase t
        # and the reported bodies 2 and 3, v_i the velocity at the contact
        # point x_i.
        assert main(["geometry", f"--from-point={t!r}"]) == 0
        data = json.loads(capsys.readouterr().out)
        c = tuple(data["c"])
        at = {(cand.x, cand.y): (cand.vx, cand.vy) for cand in tangents_from_point(c, ctx)}
        x, y, vx, vy, _, _ = coords(t, ctx)
        x2, x3 = tuple(data["x2"]), tuple(data["x3"])
        bodies = [((x, y), (vx, vy)), (x2, at[x2]), (x3, at[x3])]
        for ((px, py), (qx, qy)), lam in zip(bodies, data["lambdas"]):
            assert math.dist((px + lam * qx, py + lam * qy), c) <= 1e-14 * max(1.0, math.hypot(*c)), t

    @pytest.mark.parametrize("t", [1e8 + 0.55, 1e16])
    def test_lambdas_belong_to_the_reported_bodies_at_a_large_phase(self, ctx, capsys, t):
        # Unless the phase is reduced first, the 4K/3 shifts to bodies 2 and 3
        # are rounded away and their lambdas belong to other points of the
        # orbit (8.4e-9 off at 1e8 + 0.55, 1.5 at 1e16).
        self.assert_lambdas_belong_to_the_reported_bodies(t, ctx, capsys)

    def test_lambdas_belong_to_the_reported_bodies(self, ctx, capsys):
        # The lambdas of bodies 2 and 3 are those of the contact points that
        # the construction reports, not of the orbit at x1 +- 4K/3 (1.3e-14
        # relative off at worst over these phases).
        done = 0
        for t in offset_matching_phases(ctx):
            try:
                complete_triple_from_point(t, ctx)
            except ConstructionRefusal:
                continue
            self.assert_lambdas_belong_to_the_reported_bodies(t, ctx, capsys)
            done += 1
        assert done > 360

    def test_round_trip_many_phases(self, ctx, period):
        done = 0
        for t in sample_times(period, 24):
            s = triple(t, ctx)
            try:
                (x2, x3), _ = complete_triple_from_point(t, ctx)
            except ConstructionRefusal:
                continue
            assert math.dist(x2, s.positions[1]) <= 1e-7
            assert math.dist(x3, s.positions[2]) <= 1e-7
            done += 1
        assert done >= 18

    def test_bit_equal_to_offset_matching(self, ctx):
        # The partners are matched at the phases of triple(t); an earlier form
        # matched them at t +- period / 3.  Results and refusals must be the
        # same to the bit.
        refused = 0
        for t in offset_matching_phases(ctx):
            got = _outcome(complete_triple_from_point, t, ctx)
            assert got == _outcome(offset_matching_oracle, t, ctx), t
            refused += got[0] != "ok"
        assert 3 <= refused < 40


def offset_matching_phases(ctx):
    rng = random.Random(404)
    phases = [0.55, 0.0, ctx.K, 2.0 * ctx.K]
    return phases + [rng.uniform(-2.0 * ctx.period, 2.0 * ctx.period) for _ in range(400)]


def offset_matching_oracle(x1_phase, ctx):
    """complete_triple_from_point as it matched partners by phase offset."""
    x1_phase = reduce_phase(x1_phase, ctx)
    x, y, vx, vy, _, _ = coords(x1_phase, ctx)
    q1 = quadrant(x, y)
    sn, cn, _ = sn_cn_dn(x1_phase, ctx)
    d_sel = geometry._concurrency_of((1.0 - cn) / sn if cn < -0.5 else sn / (1.0 + cn))
    if quadrant(*d_sel) == q1:
        raise ConstructionRefusal(f"c = ({d_sel[0]!r}, {d_sel[1]!r}) lies in the quadrant of"
                                  f" x1 = ({x!r}, {y!r})")
    partners = select_choreographic(d_sel, tangents_from_point(d_sel, ctx))
    period = ctx.period
    third = period / 3.0

    def by_offset(offset):
        return min(partners, key=lambda cand: abs(reduce_phase(cand.s - (x1_phase + offset), ctx)))

    x2, x3 = by_offset(third), by_offset(-third)
    lambdas = [dot(OracleVec(*d_sel) - OracleVec(*p), v) / dot(v, v)
               for p, v in (((x, y), (vx, vy)), ((x2.x, x2.y), (x2.vx, x2.vy)),
                            ((x3.x, x3.y), (x3.vx, x3.vy)))]
    return (((x2.x, x2.y), (x3.x, x3.y)),
            ConcurrencyPoint(c=d_sel, lambdas=tuple(lambdas)))


def _outcome(construct, t, ctx):
    # ("ok", float hex of x2, x3, c and the lambdas) or (error type, message).
    try:
        (x2, x3), cp = construct(t, ctx)
    except ConstructionRefusal as err:
        return type(err).__name__, str(err)
    return "ok", [v.hex() for v in (*x2, *x3, *cp.c, *cp.lambdas)]


class TestObservedProperties:
    def test_quadrant_separation(self, ctx, period):
        # Bodies and c occupy four distinct quadrants at generic times.
        for t in sample_times(period, 400):
            s = triple(t, ctx)
            cp = concurrency_point(s)
            if not math.isfinite(cp.c.x):
                continue
            try:
                quads = [quadrant(*p) for p in s.positions] + [quadrant(*cp.c)]
            except ConstructionRefusal:
                continue
            assert len(set(quads)) == 4

    def test_c_moves_up_between_leaf_jumps(self, ctx, period):
        n = 1200
        prev = None
        for j in range(n):
            t = (j + 0.219) * period / n
            cp = concurrency_point(triple(t, ctx))
            cur = (cp.c.x, cp.c.y) if math.isfinite(cp.c.x) else None
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
            if not math.isfinite(cp.c.x):
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
            if not math.isfinite(cp.c.x) or math.hypot(*cp.c) > 50.0:
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
            assert math.dist(s.positions[i], cp.c) <= 1e-6
            c_up = cy(t_star + 10 * step) > cy(t_star - 10 * step)
            body_up = s.velocities[i].y > 0.0
            assert c_up != body_up

    def test_forward_motion_crosses_origin_upward(self, ctx):
        # "Forward" is increasing t; at every origin passage the body must be
        # heading up, which pins the convention to the curve orientation.
        for t in (0.0, 2.0 * ctx.K):
            assert math.hypot(*position(t, ctx)) <= 1e-13
            assert velocity(t, ctx)[1] > 0.0

    def test_sweep_row_fields(self, ctx):
        rec = dict(zip(SWEEP_FIELDS, sweep_row(0.7, ctx), strict=True))
        assert set(rec) >= {
            "t", "cx", "cy", "lambda1", "lambda2", "lambda3",
            "quadrant_c", "quadrant_1", "quadrant_2", "quadrant_3",
            "hyperbola_residual",
        }
        assert math.isfinite(rec["cx"]) and math.isfinite(rec["cy"])
