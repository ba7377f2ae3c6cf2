import cmath
import math
import random
import sys
import threading
from collections import Counter

import pytest

from lemnichor import analytic, dynamics, elliptic
from lemnichor.analytic import (
    CENSUS_LINE_NODES,
    CENSUS_LINES,
    CN_SUM_CONSTANT,
    COEFF_RADIUS,
    CONTOUR_NODES,
    CONTOUR_RADIUS,
    PRINCIPAL_2A,
    STRIP_WINDINGS,
    TRIPLE_ZERO_C3,
    WINDING_TOL,
    CensusError,
    CheckResult,
    alpha1,
    alpha2,
    alpha3,
    check_eom_pole_cancellation,
    check_j_identity,
    check_modulus_identity,
    check_residues,
    check_special_values,
    check_strip_windings,
    check_sum_identities,
    check_triple_zero_and_pole,
    delta_x_minus,
    delta_x_minus_log_d1,
    delta_x_minus_simple_poles,
    eom_complex_residual,
    line_windings,
    locate_pole,
    pole_census,
    pole_table,
    x_plus_log_d1,
)
from lemnichor.dynamics import PotentialVariant, eom_residual
from lemnichor.elliptic import CHOREO_M, make_context, sn_cn_dn
from lemnichor.orbit import coords

from conftest import ROOT4_3, SQRT3, cross, dot, oracle_reduced, position, sn_cn_dn_at


# The rows that pass at m(1 + 1e-3) and at m(1 - 1e-3) alike: they certify
# the evaluator (a consistent sn, cn, dn and contour quadrature), not the
# choreography.  A new row of analytic.checks that passes there too belongs here.
EVALUATOR_ROWS = (
    "sn(10K/3) shift vs duplication",
    "sn(10K/3) shift vs direct",
    "strip winding of x_plus, -3K'/2 < Im t < -K'/2",
    "strip winding of x_plus, -K'/2 < Im t < K'/2",
    "strip winding of x_plus, K'/2 < Im t < 3K'/2",
    "strip winding of x_plus, 3K'/2 < Im t < 5K'/2",
    "j product form vs derivative form",
    "Im(j sum) vs angular momentum",
    "j product form vs derivative form",
    "Im(j sum) vs angular momentum",
    "oddness: coefficients h^0, h^2, h^4",
)


class TestCheckRows:
    # Off the choreographic modulus 36 of the 47 rows fail.
    @pytest.mark.parametrize("m", [CHOREO_M, CHOREO_M * (1.0 + 1e-3)])
    def test_every_row_carries_its_tolerance(self, m):
        ctx = make_context(m)
        rows = analytic.checks(ctx) + check_triple_zero_and_pole(-alpha3(ctx), ctx)
        assert len(rows) == 53
        for r in rows:
            assert math.isfinite(r.tolerance) and r.tolerance > 0.0, r.name
            assert r.passed == (r.residual <= r.tolerance), r.name
        assert sum(not r.passed for r in rows) == (0 if m == CHOREO_M else 36 + 5)

    def test_the_rows_that_certify_only_the_evaluator(self):
        above, below = (analytic.checks(make_context(CHOREO_M * (1.0 + d))) for d in (1e-3, -1e-3))
        assert tuple(a.name for a, b in zip(above, below) if a.passed and b.passed) == EVALUATOR_ROWS

    def test_the_documented_tolerances(self, ctx):
        # 1e-9: the four strip windings (WINDING_TOL) and the two complex sums.
        assert WINDING_TOL == 1e-9
        assert Counter(r.tolerance for r in analytic.checks(ctx)) == {
            1e-12: 16, 1e-6: 8, 1e-9: 4 + 2, 1e-11: 6, 1e-10: 5,
            1e-5: 2, 1e-4: 2, 1e-8: 2}

    def test_nan_residual_fails(self):
        row = CheckResult("nan row", 0j, complex(math.nan, 0.0), math.nan, 1.0)
        assert not row.passed
        assert not row._replace(tolerance=math.inf).passed


class TestSpecialValues:
    def test_all_twelve_entries(self, ctx):
        results = check_special_values(ctx)
        assert len(results) == 12
        for r in results:
            assert r.passed and r.residual <= 1e-12, f"{r.name}: residual {r.residual}"

    def test_three_named_entries(self, ctx):
        got = {r.name: r.observed for r in check_special_values(ctx)}
        assert abs(got["sn(1K/3)"] - (SQRT3 - 1.0)) <= 1e-12
        assert abs(got["dn(2K/3)"] - (SQRT3 - 1.0) / 2.0) <= 1e-12
        assert abs(got["cn(5K/3)"] + ROOT4_3 * (SQRT3 - 1.0) / math.sqrt(2.0)) <= 1e-12


class TestModulusIdentity:
    def test_choreographic_modulus(self, ctx):
        results = check_modulus_identity(ctx)
        for r in results:
            assert r.passed and r.residual <= 1e-12, f"{r.name}: residual {r.residual}"
        rebuilt = {r.name: r for r in results}["modulus from sn(K/3)"]
        assert abs(rebuilt.observed - (2.0 + SQRT3) / 4.0) <= 1e-12

    def test_negative_control_other_modulus(self):
        # The rebuilt value equals the *local* modulus for any m (the shift
        # and duplication rules are universal), so the distance from the
        # choreographic modulus is what flags a wrong-modulus context.
        results = check_modulus_identity(make_context(0.5))
        rebuilt = {r.name: r for r in results}["modulus from sn(K/3)"]
        assert rebuilt.residual > 1e-2
        assert not rebuilt.passed
        assert abs(rebuilt.observed - 0.5) <= 1e-12


class TestResidues:
    def test_all_eight_table_entries(self, ctx):
        results = check_residues(ctx)
        poles = pole_table(ctx)
        claims = [p.x_plus_residue for p in poles] + [p.icn_residue for p in poles]
        assert len(results) == len(claims) == 8
        for r, claimed in zip(results, claims):
            assert r.claimed == claimed
            assert abs(r.observed - claimed) <= 1e-6, r.name
            assert r.passed

    def test_one_row_per_pole(self, ctx):
        # x^+ and 1/(1 - i cn) share the four poles, so each is listed once.
        a2, a3 = alpha2(ctx), alpha3(ctx)
        assert [p.location for p in pole_table(ctx)] == [a2, a3, -a2, -a3]

    def test_three_named_entries(self, ctx):
        a2, a3 = alpha2(ctx), alpha3(ctx)
        got = {r.name: r.observed for r in check_residues(ctx)}
        assert abs(got[f"residue of x_plus at {a2}"] - math.sqrt(2.0) / ROOT4_3) <= 1e-6
        assert abs(got[f"residue of x_plus at {-a3}"] + math.sqrt(2.0) / ROOT4_3) <= 1e-6
        assert abs(got[f"residue of one_over_one_minus_icn at {-a2}"] + 1.0 / ROOT4_3) <= 1e-6

    @pytest.mark.parametrize("radius, failing", [(2.0, []), (3.0, ["x_plus"] * 4)])
    def test_rows_catch_a_circle_that_takes_in_a_second_pole(self, ctx, monkeypatch,
                                                             radius, failing):
        # No guard stands before the rows.  Circles of radius 2.0 still hold
        # one pole each, and every row passes; at 3.0 a circle takes in a
        # second pole of x^+, and the four x^+ rows fail.
        monkeypatch.setattr(analytic, "CONTOUR_RADIUS", radius)
        rows = analytic.check_residues(ctx)
        assert len(rows) == 8
        assert [r.name.split()[2] for r in rows if not r.passed] == failing


class TestSumIdentities:
    @pytest.mark.parametrize("t", [0.0, 1.3, complex(0.2, 0.3)])
    def test_both_sums(self, ctx, t):
        for r in check_sum_identities(t, ctx):
            assert r.passed, f"{r.name} at t={t}: residual {r.residual}"

    def test_cn_sum_constant_over_many_samples(self, ctx, period):
        vals = []
        for i in range(500):
            rows = {r.name: r for r in check_sum_identities(complex(i * period / 500.0, 0.0), ctx)}
            row = rows["three-phase sum of 1/(1-i cn)"]
            assert row.passed, row.residual  # at the real-t tolerance, 1e-11
            vals.append(row.observed.real)
        assert max(vals) - min(vals) < 1e-11
        assert vals[0] == pytest.approx(CN_SUM_CONSTANT, abs=1e-11)


class TestJIdentity:
    @pytest.mark.parametrize("t", [0.9, 2.1])
    def test_representations_and_sum(self, ctx, t):
        for r in check_j_identity(t, ctx):
            assert r.passed, f"{r.name}: residual {r.residual}"

    def test_quarter_period_sample(self, ctx):
        for r in check_j_identity(ctx.K / 4.0, ctx):
            assert r.passed

    def test_product_form_decomposes_into_planar_parts(self, ctx):
        # j = (x vx + y vy) + i (x vy - y vx) for a single body on the axis.
        from lemnichor.orbit import velocity

        for t in (0.4, 1.6, 3.1):
            p, v = position(t, ctx), velocity(t, ctx)
            rows = {r.name: r for r in check_j_identity(t, ctx)}
            j = rows["j product form vs derivative form"].observed
            assert j.real == pytest.approx(dot(p, v), abs=1e-12)
            assert j.imag == pytest.approx(cross(p, v), abs=1e-12)


class TestTripleZero:
    def test_at_primary_zero(self, ctx):
        results = {r.name: r for r in check_triple_zero_and_pole(alpha2(ctx), ctx)}
        assert abs(results["zero order: coefficient h^1"].observed) <= 1e-12
        assert abs(results["leading coefficient h^3"].observed - TRIPLE_ZERO_C3) <= 1e-5
        assert abs(results["principal part h^-3 of reciprocal"].observed - PRINCIPAL_2A) <= 1e-5
        for r in results.values():
            assert r.passed, f"{r.name}: residual {r.residual}"

    def test_at_mirror_zero_signs_flip(self, ctx):
        results = {r.name: r for r in check_triple_zero_and_pole(-alpha3(ctx), ctx)}
        assert abs(results["leading coefficient h^3"].observed + TRIPLE_ZERO_C3) <= 1e-5
        assert abs(results["principal part h^-3 of reciprocal"].observed + PRINCIPAL_2A) <= 1e-5
        for r in results.values():
            assert r.passed, f"{r.name}: residual {r.residual}"

    def test_mirror_shift_symmetry(self, ctx):
        # delta x^-(-a3 + dt) = delta x^-(a2 - dt)
        for dt in (complex(0.1, 0.05), complex(-0.2, 0.3)):
            lhs = delta_x_minus([-alpha3(ctx) + dt], ctx)[0]
            rhs = delta_x_minus([alpha2(ctx) - dt], ctx)[0]
            assert abs(lhs - rhs) <= 1e-12

    def test_rejects_other_points(self, ctx):
        with pytest.raises(ValueError):
            check_triple_zero_and_pole(complex(0.1, 0.1), ctx)

    @pytest.mark.parametrize("which", ["a2", "-a3"])
    def test_nothing_else_within_twice_the_coefficient_radius(self, ctx, which):
        # Z - P = 3 with first moment 3 t0 on the circle of radius 2 x the
        # coefficient radius: only the triple zero lies inside, so the
        # Cauchy means see a function analytic out to twice their radius.
        t0 = alpha2(ctx) if which == "a2" else -alpha3(ctx)
        order, loc = locate_pole(delta_x_minus_log_d1, t0, ctx, radius=2.0 * COEFF_RADIUS)
        assert order == 3
        assert abs(loc - t0) <= 1e-9

    @pytest.mark.parametrize("which", ["a2", "-a3"])
    def test_coefficient_misses_no_larger_than_before_resizing(self, ctx, which):
        # Misses at the old contour size (256 nodes, radii 1e-2 and 5e-3).
        before = {
            "leading coefficient h^3": 3.6e-11,
            "next coefficient h^5": 3.1e-6,
            "principal part h^-3 of reciprocal": 6.7e-10,
            "principal part h^-1 of reciprocal": 5.7e-5,
        }
        t0 = alpha2(ctx) if which == "a2" else -alpha3(ctx)
        results = {r.name: r for r in check_triple_zero_and_pole(t0, ctx)}
        for name, bound in before.items():
            assert results[name].residual <= bound, (name, results[name].residual)


class TestTwoFormulaLayers:
    """orbit.coords (real closed forms) and the complex formula layer are two
    derivations of x^+ = x + i y and its first two derivatives; on the real
    axis, from the same (sn, cn, dn), they agree to a few ulp."""

    # 8 ulp of 1.0; the worst seen over 20 000 seeded phases was 8.4e-16.
    REL_TOL = 8.0 * sys.float_info.epsilon

    def test_position_velocity_acceleration(self, ctx):
        rng = random.Random(2002)
        worst = [0.0, 0.0, 0.0]
        for _ in range(4000):
            t = rng.uniform(-2.0 * ctx.period, 2.0 * ctx.period)
            x, y, vx, vy, ax, ay = coords(t, ctx)
            s, c, d = sn_cn_dn(t, ctx)
            pairs = ((complex(x, y), analytic._x_plus(s, c, d)),
                     (complex(vx, vy), analytic._x_plus_d1(s, c, d)),
                     (complex(ax, ay), analytic._x_plus_d2(s, c, d, ctx.m)))
            for i, (real_layer, complex_layer) in enumerate(pairs):
                worst[i] = max(worst[i], abs(real_layer - complex_layer) / abs(complex_layer))
        assert max(worst) <= self.REL_TOL, worst

    def test_a_wrong_term_is_seen(self, ctx):
        # Negative control: the acceleration without its m cn^2 term.
        t = 0.7
        s, c, d = sn_cn_dn(t, ctx)
        good = analytic._x_plus_d2(s, c, d, ctx.m)
        bad = analytic._x_plus_d2(s, c, d, 0.0)
        _, _, _, _, ax, ay = coords(t, ctx)
        assert abs(complex(ax, ay) - good) <= self.REL_TOL * abs(good)
        assert abs(complex(ax, ay) - bad) > 1e3 * self.REL_TOL * abs(good)


class TestComplexEquationOfMotion:
    def test_generic_complex_sample(self, ctx):
        assert eom_complex_residual(complex(0.5, 0.4), ctx) < 1e-8

    def test_real_axis_matches_planar_residual(self, ctx):
        t = ctx.K / 6.0
        assert eom_complex_residual(complex(t, 0.0), ctx) < 1e-10
        planar = eom_residual(t, PotentialVariant.U_CENTRAL, ctx)
        assert abs(eom_complex_residual(complex(t, 0.0), ctx) - planar) < 1e-10

    def test_near_pole_larger_tolerance(self, ctx):
        assert eom_complex_residual(alpha2(ctx) + 0.05, ctx) < 1e-6

    def test_reads_the_real_kernel_coefficient(self, ctx, monkeypatch):
        # sqrt3/4 is written once, as dynamics._C4: 1e-6 off it fails the
        # complex equation of motion (~2e-7 against 1e-8) as it fails the real one.
        monkeypatch.setattr(dynamics, "_C4", dynamics._C4 * (1.0 + 1e-6))
        assert eom_complex_residual(complex(0.5, 0.4), ctx) > 1e-8

    def test_check_wrapper(self, ctx):
        samples = [complex(0.5, 0.4), complex(ctx.K / 6.0, 0.0)]
        for r in check_eom_pole_cancellation(samples, ctx):
            assert r.passed

    def test_second_derivative_consistency(self, ctx):
        # Closed-form complex second derivative against the planar one.
        from lemnichor.orbit import acceleration

        for t in (0.3, 1.7, 2.2):
            ax, ay = acceleration(t, ctx)
            z = analytic._x_plus_d2(*sn_cn_dn_at(complex(t, 0.0), ctx), ctx.m)
            assert abs(z - complex(ax, ay)) <= 1e-12


class TestPoleCensus:
    def test_exactly_four_loci_at_alphas(self, ctx):
        found = pole_census(ctx)
        assert len(found) == 4
        expected = [alpha2(ctx), alpha3(ctx), -alpha2(ctx), -alpha3(ctx)]
        for loc, order, _ in found:
            assert order == -1  # winding -1: one simple pole, no zero
            assert min(abs(loc - e) for e in expected) <= 1e-6

    def test_difference_function_has_six_simple_poles(self, ctx):
        conj_poles = delta_x_minus_simple_poles(ctx)
        assert len(conj_poles) == 6
        expected = [alpha1(ctx), alpha2(ctx), alpha3(ctx)]
        expected = [p.conjugate() for p in expected]
        expected += [-p for p in expected]
        for refined, order in conj_poles:
            assert order == -1
            assert min(abs(refined - e) for e in expected) <= 1e-6

    def test_strip_windings_are_integers_and_lines_close_up(self, ctx):
        lines = line_windings(ctx)
        assert len(lines) == 5
        # 4iK' is a period: the first and last lines are the same curve.
        assert abs(lines[0] - lines[-1]) <= 1e-9
        for line in lines:
            assert abs(line - round(line.real)) <= 1e-9
        results = check_strip_windings(ctx)
        assert [r.claimed for r in results] == list(STRIP_WINDINGS)
        for r in results:
            assert r.passed, f"{r.name}: residual {r.residual}"
            assert r.residual <= 1e-9

    def test_census_fails_on_a_misplaced_pole(self, ctx, monkeypatch):
        # Negative control: claim a2 0.3 away from the true pole.
        true_a2 = alpha2(ctx)
        monkeypatch.setattr(analytic, "alpha2", lambda c: true_a2 + 0.3)
        with pytest.raises(CensusError, match="strip -3K'/2 < Im t < -K'/2.* sum to -1"):
            pole_census(ctx)

    def test_locate_pole_counts_a_regular_point_as_zero(self, ctx):
        assert locate_pole(x_plus_log_d1, complex(0.5, 0.5), ctx) == (0, complex(0.5, 0.5))

    def test_closed_form_log_derivatives(self, ctx):
        eps = 1e-6
        for t in (complex(0.5, 0.4), complex(-1.2, 0.9), complex(2.0, -0.3)):
            quotient = oracle_x_plus_d1(t, ctx) / oracle_x_plus(t, ctx)
            assert abs(x_plus_log_d1([t], ctx)[0] - quotient) <= 1e-12
            ahead, here, behind = delta_x_minus([t + eps, t, t - eps], ctx)
            fd = (ahead - behind) / (2.0 * eps)
            assert abs(delta_x_minus_log_d1([t], ctx)[0] - fd / here) <= 1e-7

    def test_x_plus_bounded_on_real_axis(self, ctx, period):
        worst = max(abs(oracle_x_plus(complex(i * period / 200.0, 0.0), ctx)) for i in range(200))
        assert worst < 1.2


# The circle quadrature, coefficient average, pole locator and phase sums that
# analytic.py computed before each circle of values was evaluated once and
# shared; kept as an oracle, with the point functions as they were written.
def oracle_x_plus(t, ctx):
    s, c, _ = sn_cn_dn_at(t, ctx)
    return s / (1.0 - 1j * c)


def oracle_x_minus(t, ctx):
    s, c, _ = sn_cn_dn_at(t, ctx)
    return s / (1.0 + 1j * c)


def oracle_one_over_one_minus_icn(t, ctx):
    _, c, _ = sn_cn_dn_at(t, ctx)
    return 1.0 / (1.0 - 1j * c)


def oracle_x_plus_d1(t, ctx):
    _, c, d = sn_cn_dn_at(t, ctx)
    u = 1.0 - 1j * c
    return d * (c - 1j) / (u * u)


def oracle_x_plus_log_d1(t, ctx):
    s, c, d = sn_cn_dn_at(t, ctx)
    return d * (c - 1j) / (s * (1.0 - 1j * c))


def oracle_line_windings(ctx):
    # One point evaluation per census node.
    n = CENSUS_LINE_NODES
    h = 4.0 * ctx.K / n
    out = []
    for y in CENSUS_LINES:
        im = y * ctx.Kprime
        acc = sum(oracle_x_plus_log_d1(complex(-2.0 * ctx.K + j * h, im), ctx) for j in range(n))
        out.append(acc * h / (2j * math.pi))
    return out


def oracle_x_plus_d2(t, ctx):
    s, c, d = sn_cn_dn_at(t, ctx)
    u = 1.0 - 1j * c
    return -s * ((ctx.m * c * (c - 1j) + d * d) / (u * u)
                 + 2j * d * d * (c - 1j) / (u * u * u))


def oracle_delta_x_minus(t, ctx):
    third = 4.0 * ctx.K / 3.0
    return oracle_x_minus(t + third, ctx) - oracle_x_minus(t, ctx)


def oracle_contour_mean(f, center, radius, weight_k, nodes=CONTOUR_NODES):
    acc = 0j
    for j in range(nodes):
        th = 2.0 * math.pi * j / nodes
        z = cmath.rect(radius, th)
        acc += f(center + z) * cmath.exp(complex(0.0, -weight_k * th))
    return acc / nodes


def oracle_residue(pole, f, ctx):
    func = {"x_plus": oracle_x_plus, "one_over_one_minus_icn": oracle_one_over_one_minus_icn}[f]
    return oracle_contour_mean(lambda z: func(z, ctx), pole.location, CONTOUR_RADIUS, weight_k=-1) * CONTOUR_RADIUS


def oracle_taylor_coefficient(f, center, k, ctx):
    r = COEFF_RADIUS
    return oracle_contour_mean(lambda z: f(z, ctx), center, r, weight_k=k) / r**k


def oracle_locate_pole(log_d1, approx, ctx, radius=5e-2):
    n = CONTOUR_NODES
    wind = 0j
    moment = 0j
    for j in range(n):
        z = cmath.rect(radius, 2.0 * math.pi * j / n)
        t = approx + z
        ratio = log_d1([t], ctx)[0] * z
        wind += ratio
        moment += t * ratio
    wind /= n
    moment /= n
    return round(wind.real), moment / wind


def oracle_three_phase_sum(f, t, ctx):
    third = 4.0 * ctx.K / 3.0
    t = oracle_reduced(t, ctx)
    return f(t, ctx) + f(t + third, ctx) + f(t - third, ctx)


def oracle_j_product(t, ctx):
    return oracle_x_minus(t, ctx) * oracle_x_plus_d1(t, ctx)


def oracle_j_derivative(t, ctx):
    s, c, d = sn_cn_dn_at(t, ctx)
    u = 1.0 - 1j * c
    return -1j * s * d / (u * u)


def oracle_eom_complex_residual(t, ctx):
    third = 4.0 * ctx.K / 3.0
    t = oracle_reduced(t, ctx)
    rhs = 0.5 * (1.0 / oracle_delta_x_minus(t, ctx) - 1.0 / oracle_delta_x_minus(t - third, ctx))
    rhs += SQRT3 / 4.0 * oracle_x_plus(t, ctx)
    return abs(oracle_x_plus_d2(t, ctx) - rhs)


def cbits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def sample_points(ctx):
    """The `lemnichor analytic` points, then a real and a complex grid."""
    cli = [0.3, 1.3, complex(0.2, 0.3), ctx.K / 4.0, 0.9, complex(0.5, 0.4), ctx.K / 6.0]
    grid = [j * ctx.period / 97 for j in range(97)]
    return [complex(t) for t in cli + grid] + [complex(t - ctx.K, 0.37) for t in grid]


class TestOneEvaluationPerNode:
    def test_residues_bit_equal(self, ctx):
        results = analytic.check_residues(ctx)
        poles = pole_table(ctx)
        want = ([("x_plus", p, p.x_plus_residue) for p in poles]
                + [("one_over_one_minus_icn", p, p.icn_residue) for p in poles])
        assert len(results) == len(want) == 8
        for r, (f_id, pole, claimed) in zip(results, want):
            assert r.name == f"residue of {f_id} at {pole.location}"
            assert cbits(r.observed) == cbits(oracle_residue(pole, f_id, ctx))
            assert r.residual == abs(r.observed - claimed)

    def test_line_windings_bit_equal(self, ctx):
        got, want = line_windings(ctx), oracle_line_windings(ctx)
        assert len(got) == len(want) == len(CENSUS_LINES)
        assert [cbits(z) for z in got] == [cbits(z) for z in want]

    @pytest.mark.parametrize("which", ["a2", "-a3"])
    def test_triple_zero_coefficients_bit_equal(self, ctx, which):
        t0 = alpha2(ctx) if which == "a2" else -alpha3(ctx)
        got = {r.name: r.observed for r in check_triple_zero_and_pole(t0, ctx)}
        inv = lambda z, c: 1.0 / oracle_delta_x_minus(z, c)
        for name, f, k in (("zero order: coefficient h^1", oracle_delta_x_minus, 1),
                           ("leading coefficient h^3", oracle_delta_x_minus, 3),
                           ("next coefficient h^5", oracle_delta_x_minus, 5),
                           ("principal part h^-3 of reciprocal", inv, -3),
                           ("principal part h^-1 of reciprocal", inv, -1)):
            assert cbits(got[name]) == cbits(oracle_taylor_coefficient(f, t0, k, ctx)), name
        even = [oracle_taylor_coefficient(oracle_delta_x_minus, t0, k, ctx) for k in (0, 2, 4)]
        assert cbits(got["oddness: coefficients h^0, h^2, h^4"]) == cbits(max(even, key=abs))

    def test_sum_and_j_bit_equal(self, ctx):
        for t in sample_points(ctx):
            sums = check_sum_identities(t, ctx)
            assert cbits(sums[0].observed) == cbits(oracle_three_phase_sum(oracle_x_plus, t, ctx))
            assert cbits(sums[1].observed) == cbits(
                oracle_three_phase_sum(oracle_one_over_one_minus_icn, t, ctx))
            js = check_j_identity(t, ctx)
            assert cbits(js[0].claimed) == cbits(oracle_j_derivative(t, ctx))
            assert cbits(js[0].observed) == cbits(oracle_j_product(t, ctx))
            total = oracle_three_phase_sum(oracle_j_product, t, ctx)
            assert cbits(js[1].observed) == cbits(total)
            assert len(js) == (3 if t.imag == 0.0 else 2)
            if t.imag == 0.0:
                assert js[2].observed.hex() == total.imag.hex()

    def test_eom_bit_equal_where_the_phase_round_trip_is_exact(self, ctx):
        # The old form took x^-(t) of 1/dx^-(t - 4K/3) at (t - 4K/3) + 4K/3,
        # which is t only when that round trip is exact, as it is at both
        # `lemnichor analytic` points.  Elsewhere the two differ by rounding.
        # Both reduce t by whole periods first; the round trip is of that phase.
        third = 4.0 * ctx.K / 3.0
        exact = 0
        for t in sample_points(ctx):
            got, want = eom_complex_residual(t, ctx), oracle_eom_complex_residual(t, ctx)
            r = oracle_reduced(t, ctx)
            if (r - third) + third == r:
                exact += 1
                assert got.hex() == want.hex(), t
            else:
                assert abs(got - want) <= 4e-15, t
        assert exact > 100
        for t in (complex(0.5, 0.4), complex(ctx.K / 6.0, 0.0)):
            assert (t - third) + third == t
        results = check_eom_pole_cancellation([complex(0.5, 0.4), complex(ctx.K / 6.0, 0.0)], ctx)
        assert [r.observed for r in results] == [
            oracle_eom_complex_residual(complex(0.5, 0.4), ctx),
            oracle_eom_complex_residual(complex(ctx.K / 6.0, 0.0), ctx),
        ]

    @pytest.mark.parametrize("log_d1, radius, seeds", [
        (x_plus_log_d1, 5e-2, "poles"),
        (x_plus_log_d1, 5e-2, "zeros"),
        (delta_x_minus_log_d1, 2e-2, "dxm"),
    ])
    def test_locate_pole_matches_the_loop(self, ctx, log_d1, radius, seeds):
        a1, a2, a3 = alpha1(ctx), alpha2(ctx), alpha3(ctx)
        points = {
            "poles": [a2, a3, -a2, -a3],
            "zeros": [0j, complex(2.0 * ctx.K), 2j * ctx.Kprime],
            "dxm": [p.conjugate() for p in (a1, a2, a3)] + [-p.conjugate() for p in (a1, a2, a3)],
        }[seeds]
        for seed in points:
            order, loc = locate_pole(log_d1, seed, ctx, radius=radius)
            want_order, want_loc = oracle_locate_pole(log_d1, seed, ctx, radius=radius)
            assert order == want_order
            assert abs(loc - want_loc) <= 1e-15

    @pytest.mark.parametrize("check, t, points, reductions", [
        ("check_triple_zero_and_pole", "a2", 64, 57),
        ("check_triple_zero_and_pole", "-a3", 64, 53),
        ("check_j_identity", 0.9, 3, 7),
        ("check_j_identity", complex(0.2, 0.3), 3, 4),
        ("check_sum_identities", 0.3, 3, 4),
        ("check_sum_identities", complex(0.2, 0.3), 3, 4),
        ("eom_complex_residual", complex(0.5, 0.4), 3, 4),
        ("check_special_values", None, 4, 5),
        ("check_residues", None, 128, 104),
        ("line_windings", None, 320, 69),
        ("pole_census", None, 576, 393),
        ("delta_x_minus_simple_poles", None, 384, 306),
    ])
    def test_complex_evaluation_counts(self, ctx, monkeypatch, check, t, points, reductions):
        # Each node and each phase is handed to the batch evaluator once (the
        # earlier forms made 534, 15, 6 and 6 point calls and check_residues
        # 256; the five census lines are one batch of 320 nodes, which
        # pole_census adds to its 256 circle nodes).  Each batch reduces
        # each distinct real and imaginary part once: at one point per call,
        # the same rows made 128, 128, 9, 6, 6, 6, 6, 8, 256, 69, 581 and 768
        # real reductions.  check_j_identity on the axis counts the 3 real
        # evaluations of its angular-momentum triple.
        t = {"a2": alpha2(ctx), "-a3": -alpha3(ctx)}.get(t, t)
        seen, reduced = [], []
        batch, real = analytic.sn_cn_dn_points, elliptic._sn_cn_dn_real
        monkeypatch.setattr(analytic, "sn_cn_dn_points", lambda ts, c: seen.extend(ts) or batch(ts, c))
        monkeypatch.setattr(elliptic, "_sn_cn_dn_real", lambda x, plan: reduced.append(x) or real(x, plan))
        args = (ctx,) if t is None else (t, ctx)
        getattr(analytic, check)(*args)
        assert len(seen) == points
        assert len(reduced) == reductions


def _bits_of(value):
    # Every float in a result, as hex, so equal means bit-equal.
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, (tuple, list)):
        return [_bits_of(v) for v in value]
    return value


def test_shared_context_across_threads(ctx):
    # EllipticContext is shared by every thread and the batch tables are
    # per call: four threads, more than the cores CI has, with a short switch
    # interval, must each reproduce the serial results bit for bit.
    runs = [(check_residues, 2), (pole_census, 2), (delta_x_minus_simple_poles, 2)]
    serial = [_bits_of(f(ctx)) for f, _ in runs]
    results = {}

    def work(i):
        try:
            results[i] = [[_bits_of(f(ctx)) for _ in range(n)] for f, n in runs]
        except Exception as err:  # reported by the assertion below
            results[i] = err

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for got in results.values():
        assert not isinstance(got, Exception), got
        for want, repeats in zip(serial, got):
            assert all(r == want for r in repeats)
