"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and enforces both the numeric tolerance
and the runtime budget.
"""

import math
import random
import time
from collections import deque

from lemnichor import analytic, dynamics, geometry, invariants
from lemnichor.elliptic import make_context, sn_cn_dn
from lemnichor.orbit import Vec2, triple

from conftest import forces, line_distance, potential, row_positions, speed_relation_residual

U = dynamics.PotentialVariant.U_CENTRAL
V = dynamics.PotentialVariant.V_PAIRWISE


class _Gate:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.t0 = time.perf_counter()
        self.failures = []

    def check(self, name, ok):
        if not ok:
            self.failures.append(name)

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if not self.failures and elapsed < self.budget_s else "FAIL"
        print(
            f"[acceptance {self.number}] {status} {self.label} "
            f"({elapsed:.2f}s / budget {self.budget_s:g}s)"
            + (f" failures: {self.failures}" if self.failures else "")
        )
        assert not self.failures, self.failures
        assert elapsed < self.budget_s, f"runtime {elapsed:.2f}s over budget"


def test_criterion_1_conservation_suite(ctx, period):
    gate = _Gate(1, "conservation suite, 1000 samples", 1.0)
    worst = {}
    for i in range(1000):
        rep = invariants.full_report(i * period / 1000.0, ctx)
        for name, r in rep.residuals.items():
            worst[name] = max(worst.get(name, 0.0), r)
    for name, r in worst.items():
        tol = 1e-9 if name == "curvature_sq_sum" else 1e-10
        gate.check(f"{name}={r:.2e}", r < tol)
    gate.finish()


def test_criterion_2_modulus_exclusivity():
    gate = _Gate(2, "center of mass drifts at modulus 1/2", 1.0)
    bad = make_context(0.5)
    worst = max(
        math.hypot(*invariants.full_report(i * 4.0 * bad.K / 200.0, bad).center_of_mass)
        for i in range(200)
    )
    gate.check(f"max |com| = {worst:.3e}", worst > 1e-3)
    gate.finish()


def test_criterion_3_equation_of_motion(ctx, period):
    gate = _Gate(3, "equation of motion, both variants, 1000 samples", 1.0)
    worst_u = worst_v = worst_diff = 0.0
    for i in range(1000):
        t = i * period / 1000.0
        ru = dynamics.eom_residual(t, U, ctx)
        rv = dynamics.eom_residual(t, V, ctx)
        worst_u = max(worst_u, ru)
        worst_v = max(worst_v, rv)
        worst_diff = max(worst_diff, abs(ru - rv))
    gate.check(f"U residual {worst_u:.2e}", worst_u < 1e-9)
    gate.check(f"V residual {worst_v:.2e}", worst_v < 1e-9)
    gate.check(f"variant gap {worst_diff:.2e}", worst_diff < 1e-12)
    gate.finish()


def test_criterion_4_dynamical_reproduction(ctx, period):
    gate = _Gate(4, "velocity-Verlet reproduction of the choreography", 10.0)

    start = triple(0.0, ctx)

    def run(dt, n):
        """(energy drift, final positions); every row but the last is thrown away."""
        drift, last = dynamics.integrate(start.positions, start.velocities, V, dt, n,
                                         consume=deque(maxlen=0).extend)
        return drift, row_positions(last)

    def period_error(n):
        drift, final = run(period / n, n)
        ref = triple(period, ctx)
        err = max(math.dist(p, q) for p, q in zip(final, ref.positions))
        return err, drift

    err16, drift16 = period_error(2**16)
    gate.check(f"period return {err16:.3e}", err16 < 1e-6)

    err15, drift15 = period_error(2**15)
    gate.check(f"order-2 position ratio {err15 / err16:.2f}", 3.0 < err15 / err16 < 5.0)
    gate.check(f"order-2 drift ratio {drift15 / drift16:.2f}", 3.0 < drift15 / drift16 < 5.0)
    gate.check(f"drift bounded {drift16:.3e}", drift16 <= (drift15 / (period / 2**15) ** 2) * (period / 2**16) ** 2 * 1.5)

    # One third of a period on a grid that lands on it exactly:
    # 2^16 steps per period is not divisible by 3, so the permutation leg
    # uses dt = period / (3 * 2^14) with 2^14 steps.
    n3 = 3 * 2**14
    _, final = run(period / n3, n3 // 3)
    perm = max(math.dist(final[i], start.positions[(i + 1) % 3]) for i in range(3))
    gate.check(f"cyclic permutation at T/3 {perm:.3e}", perm < 1e-6)
    gate.finish()


def test_criterion_5_special_values(ctx):
    gate = _Gate(5, "special values and modulus identities", 0.1)
    for r in analytic.check_special_values(ctx):
        gate.check(r.name, r.passed and r.residual <= 1e-12)
    for r in analytic.check_modulus_identity(ctx):
        gate.check(r.name, r.passed and r.residual <= 1e-12)
    gate.finish()


def test_criterion_6_complex_analysis(ctx, period):
    gate = _Gate(6, "residues, sum constant, triple-zero structure", 5.0)
    # The rows `lemnichor analytic` prints, at its tolerances.
    residues = analytic.check_residues(ctx)
    gate.check("eight residues", len(residues) == 8)
    for r in residues:
        gate.check(f"{r.name}: {r.residual:.2e}", r.passed and r.residual <= 1e-6)
    rows = []
    for i in range(300):
        sums = analytic.check_sum_identities(complex(i * period / 300.0, 0.0), ctx)
        rows += [r for r in sums if r.name == "three-phase sum of 1/(1-i cn)"]
    worst = max(r.residual for r in rows)
    gate.check(f"cn-sum constant {worst:.2e}", len(rows) == 300 and all(r.passed for r in rows))

    results = {r.name: r for r in analytic.check_triple_zero_and_pole(analytic.alpha2(ctx), ctx)}
    c1 = abs(results["zero order: coefficient h^1"].observed)
    gate.check(f"zero order: |c1| {c1:.2e}", c1 <= 1e-12)
    gate.check(
        "leading coefficient",
        abs(results["leading coefficient h^3"].observed - analytic.TRIPLE_ZERO_C3) < 1e-5,
    )
    gate.check(
        "principal part 2a",
        abs(results["principal part h^-3 of reciprocal"].observed - analytic.PRINCIPAL_2A) < 1e-5,
    )
    gate.finish()


def test_criterion_7_geometry(ctx, period):
    gate = _Gate(7, "tangent-line geometry over 200 samples", 5.0)
    samples = []
    j = 0
    while len(samples) < 200 and j < 400:
        t = (j + 0.431) * period / 256.0
        j += 1
        s = triple(t, ctx)
        cp = geometry.concurrency_point(s)
        if not math.isfinite(cp.c.x) or math.hypot(*cp.c) > 50.0:
            continue
        try:
            quads = [geometry.quadrant(*p) for p in s.positions] + [geometry.quadrant(*cp.c)]
        except geometry.ConstructionRefusal:
            continue
        samples.append((t, s, cp, quads))
    gate.check(f"found {len(samples)} non-degenerate samples", len(samples) == 200)

    worst_conc = worst_hyp = 0.0
    quad_ok = True
    for t, s, cp, quads in samples:
        for i in range(3):
            d = line_distance(cp.c, s.positions[i], s.velocities[i])
            worst_conc = max(worst_conc, d)
        worst_hyp = max(worst_hyp, abs(geometry.hyperbola_residual(cp.c)))
        quad_ok = quad_ok and len(set(quads)) == 4
    gate.check(f"concurrency residual {worst_conc:.2e}", worst_conc < 1e-9)
    gate.check(f"hyperbola residual {worst_hyp:.2e}", worst_hyp < 1e-8)
    gate.check("quadrant separation at every sample", quad_ok)

    worst_rt1 = worst_rt2 = 0.0
    for t, s, cp, _ in samples[::4]:
        picked = geometry.select_choreographic(
            cp.c, geometry.tangents_from_point(cp.c, ctx)
        )
        for body in s.positions:
            worst_rt1 = max(
                worst_rt1, min(math.dist((cand.x, cand.y), body) for cand in picked)
            )
        (x2, x3), _ = geometry.complete_triple_from_point(t, ctx)
        worst_rt2 = max(
            worst_rt2,
            math.dist(x2, s.positions[1]),
            math.dist(x3, s.positions[2]),
        )
    gate.check(f"round trip c->triple {worst_rt1:.2e}", worst_rt1 < 1e-7)
    gate.check(f"round trip point->triple {worst_rt2:.2e}", worst_rt2 < 1e-7)
    gate.finish()


def test_criterion_8_one_body():
    gate = _Gate(8, "one-body lemniscate under the r^-6 central potential", 0.1)
    worst = max(
        dynamics.one_body_lemniscate_residual(0.5, -0.9 + 1.8 * i / 49.0)
        for i in range(50)
    )
    gate.check(f"residual {worst:.2e}", worst < 1e-8)
    gate.finish()


def test_criterion_9_property_suite(ctx, period):
    gate = _Gate(9, "identity and gradient property suite", 5.0)

    worst_id = 0.0
    for i in range(500):
        t = -10.0 + 20.0 * i / 499.0
        s, c, d = sn_cn_dn(t, ctx)
        worst_id = max(
            worst_id,
            abs(s * s + c * c - 1.0),
            abs(d * d + ctx.m * s * s - 1.0),
        )
    gate.check(f"squared-function identities {worst_id:.2e}", worst_id < 1e-13)

    h = 1e-6
    worst_d = 0.0
    for i in range(100):
        t = -5.0 + 10.0 * i / 99.0
        s, c, d = sn_cn_dn(t, ctx)
        sp, sm = sn_cn_dn(t + h, ctx), sn_cn_dn(t - h, ctx)
        worst_d = max(
            worst_d,
            abs((sp[0] - sm[0]) / (2 * h) - c * d),
            abs((sp[1] - sm[1]) / (2 * h) + s * d),
            abs((sp[2] - sm[2]) / (2 * h) + ctx.m * s * c),
        )
    gate.check(f"derivative identities {worst_d:.2e}", worst_d < 1e-8)

    rng = random.Random(20240817)
    worst_v = 0.0
    for _ in range(5):
        m = rng.uniform(0.05, 0.95)
        mctx = make_context(m)
        for _ in range(50):
            worst_v = max(
                worst_v,
                speed_relation_residual(rng.uniform(-8.0, 8.0), mctx),
            )
    gate.check(f"speed-position relation {worst_v:.2e}", worst_v < 1e-11)

    worst_g = 0.0
    triples_done = 0
    while triples_done < 100:
        pts = [Vec2(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(3)]
        if min(math.dist(pts[i], pts[j]) for i in range(3) for j in range(i + 1, 3)) < 0.15:
            continue
        triples_done += 1
        for variant in (U, V):
            for i in range(3):
                f = forces(pts, variant)[i]
                for axis in range(2):
                    bx, by = (h, 0.0) if axis == 0 else (0.0, h)
                    up, dn = list(pts), list(pts)
                    up[i] = Vec2(pts[i].x + bx, pts[i].y + by)
                    dn[i] = Vec2(pts[i].x - bx, pts[i].y - by)
                    grad = (
                        potential(up, variant) - potential(dn, variant)
                    ) / (2 * h)
                    got = f.x if axis == 0 else f.y
                    worst_g = max(worst_g, abs(got + grad))
    gate.check(f"force vs -grad {worst_g:.2e}", worst_g < 1e-7)
    gate.finish()
