"""Complex-plane certification of the machinery behind the choreography.

The orbit in complex form is x(t) = sn(t) / (1 - i cn(t)) (with conjugate
partner sn / (1 + i cn)), an elliptic function of degree 4 with periods 4K and
4iK' whose poles in the fundamental cell -2K <= Re t < 2K,
-2K' <= Im t < 2K' sit at

    +-a2, +-a3   with   a2 = K/3 + iK',  a3 = 5K/3 + iK',

and whose zeros are the zeros 0, 2K, 2iK', 2K + 2iK' of sn.

Everything this module checks is a consequence of pole/residue bookkeeping:
summed residues cancel in the three-phase sums, the difference
x^-(t + 4K/3) - x^-(t) has triple zeros whose series coefficients are known
in closed form, and the complex equation of motion follows from matching
principal parts.  All checks are numerical; each returns CheckResult rows,
a residual with the tolerance it must meet, and the CLI applies its factor
to those tolerances.  Poles are counted by strip
windings: because 4K is a period, the argument principle on a horizontal
strip of one real period reduces to the difference of two line integrals of
x^+'/x^+, each taken by the trapezoid rule on a periodic integrand (spectrally
accurate).  Lines at Im t = -3K'/2, -K'/2, K'/2, 3K'/2, 5K'/2 cut the cell
into four strips with Z - P = -2, +2, -2, +2; the first and last lines agree
because 4iK' is a period.  The five lines sit K'/2 from every pole row and
share their abscissae; their nodes go to ``sn_cn_dn_points`` as one batch,
line by line.  Local windings and first
moments of f'/f on small circles place each zero and pole; residues and
Laurent/Taylor coefficients are weighted means of one circle of values, and
x^+ and 1/(1 - i cn), which share their poles, take their residues from one
circle of (sn, cn, dn) per pole.  Log-derivatives are in closed form.  Every
complex (sn, cn, dn) comes from the batch evaluator ``sn_cn_dn_points``: a
circle's nodes go in as one batch (for delta x^- with their 4K/3 shifts,
which share their imaginary parts), the phases of a three-phase check as
another, and the value-level formulas below are applied to the result.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

from . import dynamics
from .elliptic import CHOREO_M, SQRT3, EllipticContext, sn_cn_dn, sn_cn_dn_points
from .invariants import angular_momentum
from .orbit import CheckResult, coords, ordered_sum, triple_phases

ROOT4_3 = 3.0**0.25

CONTOUR_RADIUS = 1e-2
CONTOUR_NODES = 32
COEFF_RADIUS = 0.2

# Census lines Im t = y K' over one real period, and the claimed Z - P of x^+
# in the strip between each adjacent pair, bottom to top.
CENSUS_LINES = (-1.5, -0.5, 0.5, 1.5, 2.5)
CENSUS_LINE_LABELS = ("-3K'/2", "-K'/2", "K'/2", "3K'/2", "5K'/2")
CENSUS_LINE_NODES = 64
STRIP_WINDINGS = (-2, 2, -2, 2)
WINDING_TOL = 1e-9

# Eq-of-motion sum constant for 1/(1 - i cn): (3 + sqrt(3)) / 2.
CN_SUM_CONSTANT = (3.0 + SQRT3) / 2.0

# Leading Taylor coefficients of x^-(t + 4K/3) - x^-(t) at its triple zero.
TRIPLE_ZERO_C3 = ROOT4_3 / (4.0 * math.sqrt(2.0))
TRIPLE_ZERO_C5 = 3.0**0.75 / (32.0 * math.sqrt(2.0))
# Principal part of the reciprocal: 2a / h^3 - b / h.
PRINCIPAL_2A = 4.0 * math.sqrt(2.0) / ROOT4_3
PRINCIPAL_B = ROOT4_3 / math.sqrt(2.0)


class CensusError(ValueError):
    """The strip windings disagree with the claimed zeros and poles."""


class PoleSpec(NamedTuple):
    """A simple pole of both x^+ and 1/(1 - i cn), with the claimed residue of each."""

    location: complex
    x_plus_residue: complex
    icn_residue: complex


def _result(name: str, claimed, observed, tol: float) -> CheckResult:
    return CheckResult(name, claimed, observed, abs(observed - claimed), tol)


def alpha2(ctx: EllipticContext) -> complex:
    return complex(ctx.K / 3.0, ctx.Kprime)


def alpha3(ctx: EllipticContext) -> complex:
    return complex(5.0 * ctx.K / 3.0, ctx.Kprime)


def alpha1(ctx: EllipticContext) -> complex:
    return complex(-ctx.K, ctx.Kprime)


# The formula layer: each quantity from (sn, cn, dn) at one point.
def _x_plus(s: complex, c: complex, d: complex) -> complex:
    return s / (1.0 - 1j * c)


def _x_minus(s: complex, c: complex, d: complex) -> complex:
    return s / (1.0 + 1j * c)


def _one_over_one_minus_icn(s: complex, c: complex, d: complex) -> complex:
    return 1.0 / (1.0 - 1j * c)


def _x_plus_d1(s: complex, c: complex, d: complex) -> complex:
    # d x^+ / dt = dn (cn - i) / (1 - i cn)^2.
    u = 1.0 - 1j * c
    return d * (c - 1j) / (u * u)


def _x_plus_d2(s: complex, c: complex, d: complex, m: float) -> complex:
    u = 1.0 - 1j * c
    return -s * ((m * c * (c - 1j) + d * d) / (u * u)
                 + 2j * d * d * (c - 1j) / (u * u * u))


def _x_plus_log_d1(s: complex, c: complex, d: complex) -> complex:
    return d * (c - 1j) / (s * (1.0 - 1j * c))


def _j(s: complex, c: complex, d: complex) -> complex:
    # j = x^- dx^+/dt: real part (1/2) d|x|^2/dt, imaginary part the
    # single-body angular momentum.
    return _x_minus(s, c, d) * _x_plus_d1(s, c, d)


def _x_minus_and_d1(s: complex, c: complex, d: complex) -> tuple[complex, complex]:
    # x^- and x^-' = dn (cn + i) / (1 + i cn)^2.
    u = 1.0 + 1j * c
    return s / u, d * (c + 1j) / (u * u)


# The point layer: each function maps a list of points to one value per point
# from one batch of (sn, cn, dn).
def x_plus_log_d1(ts: list[complex], ctx: EllipticContext) -> list[complex]:
    """x^+' / x^+ at each point of ts, in closed form: dn (cn - i) / (sn (1 - i cn))."""
    return [_x_plus_log_d1(*scd) for scd in sn_cn_dn_points(ts, ctx)]


def _shifted(ts: list[complex], ctx: EllipticContext) -> tuple[list, list]:
    # (sn, cn, dn) at each t + 4K/3 and at each t, as one batch: a point and
    # its shift share their imaginary part.
    n = len(ts)
    scd = sn_cn_dn_points([triple_phases(t, ctx)[1] for t in ts] + ts, ctx)
    return scd[:n], scd[n:]


def delta_x_minus(ts: list[complex], ctx: EllipticContext) -> list[complex]:
    """x^-(t + 4K/3) - x^-(t) at each point of ts."""
    return [_x_minus(*ahead) - _x_minus(*here) for ahead, here in zip(*_shifted(ts, ctx))]


def delta_x_minus_log_d1(ts: list[complex], ctx: EllipticContext) -> list[complex]:
    """(d/dt delta x^-) / delta x^- at each point of ts, in closed form."""
    out = []
    for ahead, here in zip(*_shifted(ts, ctx)):
        f1, d1 = _x_minus_and_d1(*ahead)
        f0, d0 = _x_minus_and_d1(*here)
        out.append((d1 - d0) / (f1 - f0))
    return out


def _three_phases(t: complex, ctx: EllipticContext) -> list:
    # (sn, cn, dn) at t, t + 4K/3 and t - 4K/3, as one batch.
    return sn_cn_dn_points(list(triple_phases(t, ctx)), ctx)


def _phase_sum(g, phases) -> complex:
    return g(*phases[0]) + g(*phases[1]) + g(*phases[2])


def _circle(center: complex, radius: float) -> list[complex]:
    """The CONTOUR_NODES nodes center + r e^{i th_j}, th_j = 2 pi j / N.

    A circle's values come from one batch: a point-layer function (or
    sn_cn_dn_points itself) applied to these nodes.
    """
    n = CONTOUR_NODES
    return [center + cmath.rect(radius, 2.0 * math.pi * j / n) for j in range(n)]


@lru_cache(maxsize=None)
def _twiddles(k: int, n: int) -> tuple[complex, ...]:
    # e^{-i k th_j} at the n nodes of _circle.
    return tuple(cmath.exp(complex(0.0, -k * (2.0 * math.pi * j / n))) for j in range(n))


def _mean(vals: list[complex], k: int) -> complex:
    # (1/N) sum_j f_j e^{-i k th_j} of the values at the nodes of _circle;
    # equals the Laurent coefficient c_k times r^k for f analytic in a
    # punctured neighborhood.
    n = len(vals)
    acc = 0j
    for v, w in zip(vals, _twiddles(k, n)):
        acc += v * w
    return acc / n


def pole_table(ctx: EllipticContext) -> list[PoleSpec]:
    """The four poles a2, a3, -a2, -a3 that x^+ and 1/(1 - i cn) share, one row each."""
    a2, a3 = alpha2(ctx), alpha3(ctx)
    rt, ri = math.sqrt(2.0) / ROOT4_3, 1.0 / ROOT4_3
    return [
        PoleSpec(a2, rt, ri),
        PoleSpec(a3, -rt, -ri),
        PoleSpec(-a2, rt, -ri),
        PoleSpec(-a3, -rt, ri),
    ]


def check_residues(ctx: EllipticContext) -> list[CheckResult]:
    """The residues of x^+, then of 1/(1 - i cn), at each pole of pole_table.

    The residue is r mean_{-1} of f over a circle of radius CONTOUR_RADIUS
    around the pole.  Each pole's circle of (sn, cn, dn) is evaluated once
    and serves both residues; the circles of all poles are one batch.  No
    guard checks that a circle holds one pole: the poles lie at least 2 pi/3
    apart, and a circle that took in a second one would fail its rows.  The
    tolerance is 1e-6.
    """
    poles = pole_table(ctx)
    n = CONTOUR_NODES
    scd = sn_cn_dn_points([z for pole in poles for z in _circle(pole.location, CONTOUR_RADIUS)], ctx)
    return [
        _result(f"residue of {f_id} at {pole.location}", getattr(pole, field),
                _mean([g(*v) for v in scd[i * n:(i + 1) * n]], -1) * CONTOUR_RADIUS, 1e-6)
        for f_id, g, field in (("x_plus", _x_plus, "x_plus_residue"),
                               ("one_over_one_minus_icn", _one_over_one_minus_icn, "icn_residue"))
        for i, pole in enumerate(poles)
    ]


def check_special_values(ctx: EllipticContext) -> list[CheckResult]:
    """The twelve closed-form values of sn, cn, dn at multiples of K/3; tolerance 1e-12."""
    rt2 = math.sqrt(2.0)
    table = {
        1: (SQRT3 - 1.0, ROOT4_3 * (SQRT3 - 1.0) / rt2, 1.0 / rt2),
        2: (ROOT4_3 * (SQRT3 - 1.0), 2.0 - SQRT3, (SQRT3 - 1.0) / 2.0),
        4: (ROOT4_3 * (SQRT3 - 1.0), -2.0 + SQRT3, (SQRT3 - 1.0) / 2.0),
        5: (SQRT3 - 1.0, -ROOT4_3 * (SQRT3 - 1.0) / rt2, 1.0 / rt2),
    }
    out = []
    values = sn_cn_dn_points([complex(j * ctx.K / 3.0, 0.0) for j in table], ctx)
    for (j, claimed), (s, c, d) in zip(table.items(), values):
        for name, got, want in (("sn", s, claimed[0]), ("cn", c, claimed[1]), ("dn", d, claimed[2])):
            out.append(_result(f"{name}({j}K/3)", want, got, 1e-12))
    return out


def check_modulus_identity(ctx: EllipticContext) -> list[CheckResult]:
    """The special value sn(K/3) pins the modulus.

    With s = sn(K/3), evaluating sn(10K/3) by the 3K-shift and by the
    4K - 2K/3 duplication forces (1 - 2s) / (s^4 - 2s^3) to equal the squared
    modulus; at the choreographic s = sqrt(3) - 1 that value is (2+sqrt3)/4.
    The reported residual is the distance of the rebuilt value from the
    choreographic modulus, so it doubles as a negative control at other
    moduli.  The tolerance is 1e-12.
    """
    tol = 1e-12
    s, c, d = sn_cn_dn(ctx.K / 3.0, ctx)
    rebuilt = (1.0 - 2.0 * s) / (s**4 - 2.0 * s**3)
    shift = -c / d
    duplication = -2.0 * s * c * d / (1.0 - ctx.m * s**4)
    direct = sn_cn_dn(10.0 * ctx.K / 3.0, ctx)[0]
    return [
        _result("modulus from sn(K/3)", CHOREO_M, rebuilt, tol),
        _result("sn(10K/3) shift vs duplication", shift, duplication, tol),
        _result("sn(10K/3) shift vs direct", shift, direct, tol),
    ]


def check_sum_identities(t: complex, ctx: EllipticContext) -> list[CheckResult]:
    """Three-phase sums: x^+ cancels to 0, 1/(1 - i cn) to (3 + sqrt3)/2.

    The tolerance is 1e-11 at a real t and 1e-9 off the axis.
    """
    t = complex(t)
    tol = 1e-11 if t.imag == 0.0 else 1e-9
    phases = _three_phases(t, ctx)
    return [
        _result("three-phase sum of x_plus", 0.0, _phase_sum(_x_plus, phases), tol),
        _result("three-phase sum of 1/(1-i cn)", CN_SUM_CONSTANT,
                _phase_sum(_one_over_one_minus_icn, phases), tol),
    ]


def check_j_identity(t: complex, ctx: EllipticContext) -> list[CheckResult]:
    """Both representations of j agree and the three-phase sum vanishes.

    The second representation is d/dt [1/(1 - i cn)] = -i sn dn / (1 - i cn)^2.
    On the real axis the vanishing sum is the simultaneous conservation of
    the moment of inertia (real part) and angular momentum (imaginary part).
    The tolerance is 1e-10, and 1e-11 for the angular momentum.
    """
    tol = 1e-10
    t = complex(t)
    phases = _three_phases(t, ctx)
    s, c, d = phases[0]
    u = 1.0 - 1j * c
    total = _phase_sum(_j, phases)
    out = [
        _result("j product form vs derivative form", -1j * s * d / (u * u), _j(s, c, d), tol),
        _result("three-phase sum of j", 0.0, total, tol),
    ]
    if t.imag == 0.0:
        ang = angular_momentum([coords(p, ctx) for p in triple_phases(t.real, ctx)])
        out.append(_result("Im(j sum) vs angular momentum", ang, total.imag, 1e-11))
    return out


def check_triple_zero_and_pole(t0: complex, ctx: EllipticContext) -> list[CheckResult]:
    """Local structure of delta x^- at one of its triple zeros, from one circle.

    The circle has radius COEFF_RADIUS around t0, and delta x^- has no other
    zero or pole within twice that radius.  So the means of its values are
    its Taylor coefficients c_k, and those of their reciprocals the Laurent
    coefficients p_k.  The rows: c1 = 0, which with the even coefficients and
    c3 != 0 makes the zero of order 3; c3 and c5; the principal part
    p3 / h^3 + p1 / h = 2a / h^3 - b / h (up to the sign of the mirror zero)
    of the reciprocal; and the oddness around t0, c0 = c2 = c4 = 0, whose
    observed value is the largest of the three.
    """
    t0 = complex(t0)
    a2, a3 = alpha2(ctx), alpha3(ctx)
    if abs(t0 - a2) < 1e-9:
        sign = 1.0
    elif abs(t0 + a3) < 1e-9:
        sign = -1.0
    else:
        raise ValueError(f"t0 must be one of the triple zeros {a2} or {-a3}")

    r = COEFF_RADIUS
    vals = delta_x_minus(_circle(t0, r), ctx)
    inv = [1.0 / v for v in vals]
    c0, c1, c2, c3, c4, c5 = (_mean(vals, k) / r**k for k in range(6))
    p3, p1 = (_mean(inv, k) / r**k for k in (-3, -1))

    return [
        _result("zero order: coefficient h^1", 0.0, c1, 1e-12),
        _result("leading coefficient h^3", sign * TRIPLE_ZERO_C3, c3, 1e-5),
        _result("next coefficient h^5", sign * TRIPLE_ZERO_C5, c5, 1e-4),
        _result("principal part h^-3 of reciprocal", sign * PRINCIPAL_2A, p3, 1e-5),
        _result("principal part h^-1 of reciprocal", -sign * PRINCIPAL_B, p1, 1e-4),
        _result("oddness: coefficients h^0, h^2, h^4", 0.0, max((c0, c2, c4), key=abs), 1e-10),
    ]


def eom_complex_residual(t: complex, ctx: EllipticContext) -> float:
    """|d^2 x^+/dt^2 - (1/2)(1/dx^-(t) - 1/dx^-(t - 4K/3)) - (sqrt3/4) x^+|."""
    here, ahead, behind = _three_phases(t, ctx)
    xm = _x_minus(*here)
    rhs = 0.5 * (1.0 / (_x_minus(*ahead) - xm) - 1.0 / (xm - _x_minus(*behind)))
    rhs += dynamics._C4 * _x_plus(*here)  # the real kernel's sqrt3/4
    return abs(_x_plus_d2(*here, ctx.m) - rhs)


def check_eom_pole_cancellation(samples: list[complex], ctx: EllipticContext) -> list[CheckResult]:
    """The complex equation of motion at points away from all poles; tolerance 1e-8."""
    return [
        _result(f"complex equation of motion at t={complex(t)}", 0.0,
                eom_complex_residual(complex(t), ctx), 1e-8)
        for t in samples
    ]


def checks(ctx: EllipticContext) -> list[CheckResult]:
    """The rows of ``lemnichor analytic``, in its order, each with its own tolerance.

    This is the one list of the analytic claims: the CLI judges and writes
    it, and the tests read it.  A new claim is a new row here.
    """
    rows = check_special_values(ctx) + check_modulus_identity(ctx)
    rows += check_residues(ctx) + check_strip_windings(ctx)
    for t in (0.3, 1.3, complex(0.2, 0.3)):
        rows += check_sum_identities(t, ctx)
    for t in (ctx.K / 4.0, 0.9):
        rows += check_j_identity(t, ctx)
    rows += check_triple_zero_and_pole(alpha2(ctx), ctx)
    return rows + check_eom_pole_cancellation([complex(0.5, 0.4), complex(ctx.K / 6.0, 0.0)], ctx)


def locate_pole(log_d1, approx: complex, ctx: EllipticContext,
                radius: float = 5e-2) -> tuple[int, complex]:
    """(winding number, refined location) of an isolated zero or pole.

    ``log_d1(ts, ctx)`` is a point-layer function: the closed-form
    log-derivative f'/f, at each point of ts, of the function whose zero or
    pole is sought.  By the argument principle its mean times (t - approx)
    around the circle, r mean_{-1}, is Z - P; the first moment,
    r^2 mean_{-2}, over it is the offset of the location from approx.  A
    circle that winds 0 holds no zero or pole: (0, approx).
    """
    vals = log_d1(_circle(approx, radius), ctx)
    m1 = _mean(vals, -1)
    order = round((radius * m1).real)
    if order == 0:
        return 0, approx
    return order, approx + radius * _mean(vals, -2) / m1


def line_windings(ctx: EllipticContext) -> list[complex]:
    """(1/2 pi i) times the integral of x^+'/x^+ along each census line.

    Each line runs over one real period 4K, left to right, by the
    trapezoid rule with CENSUS_LINE_NODES nodes.  The value is the winding
    of the closed curve x^+(line) around 0, so an integer.  The nodes of
    every line are one batch.
    """
    n = CENSUS_LINE_NODES
    h = 4.0 * ctx.K / n
    us = [-2.0 * ctx.K + j * h for j in range(n)]
    grid = sn_cn_dn_points([complex(u, y * ctx.Kprime) for y in CENSUS_LINES for u in us], ctx)
    return [ordered_sum(_x_plus_log_d1(*scd) for scd in grid[i:i + n]) * h / (2j * math.pi)
            for i in range(0, len(grid), n)]


def _strips(lines: list[complex]):
    # (label, Z - P from the lines, claimed Z - P) per strip, bottom to top.
    for i, claimed in enumerate(STRIP_WINDINGS):
        label = f"{CENSUS_LINE_LABELS[i]} < Im t < {CENSUS_LINE_LABELS[i + 1]}"
        yield label, lines[i] - lines[i + 1], claimed


def check_strip_windings(ctx: EllipticContext) -> list[CheckResult]:
    """Z - P of x^+ in each census strip against the claimed -2, +2, -2, +2.

    The tolerance is WINDING_TOL.
    """
    return [_result(f"strip winding of x_plus, {label}", claimed, observed, WINDING_TOL)
            for label, observed, claimed in _strips(line_windings(ctx))]


def pole_census(ctx: EllipticContext) -> list[tuple[complex, int, complex]]:
    """Census of the poles of x^+ inside the fundamental cell, by strip windings.

    The census lines (CENSUS_LINES) cut one period cell into four horizontal
    strips; the difference of adjacent line windings is Z - P in the strip
    between them and must come out -2, +2, -2, +2, and the first and last
    lines must agree.  Then ``locate_pole`` runs at the claimed poles -a2, -a3
    (first strip) and a2, a3 (third), winding -1 each, and at the sn zeros
    0, 2K (second) and 2iK', 2K + 2iK' (fourth), winding +1 each.  Each
    strip's winding must equal the sum of its local windings; otherwise
    CensusError names the strip and both counts.  Returns (refined location,
    winding number, claimed location) for the four poles.
    """
    lines = line_windings(ctx)
    if abs(lines[0] - lines[-1]) > WINDING_TOL:
        raise CensusError(
            f"census lines Im t = {CENSUS_LINE_LABELS[0]} and {CENSUS_LINE_LABELS[-1]} "
            f"differ by the period 4iK' but give windings {lines[0]} and {lines[-1]}"
        )
    poles = [pole.location for pole in pole_table(ctx)]
    two_k, two_kp = 2.0 * ctx.K, 2.0j * ctx.Kprime
    loci = (poles[2:], [0j, complex(two_k)], poles[:2], [two_kp, two_k + two_kp])
    out = []
    for (label, wind, claimed), seeds in zip(_strips(lines), loci):
        if abs(wind - claimed) > WINDING_TOL:
            raise CensusError(f"strip {label}: winding {wind}, claimed {claimed}")
        # A claimed locus with nothing there counts 0; the strip sum exposes it.
        found = [locate_pole(x_plus_log_d1, seed, ctx) for seed in seeds]
        total = sum(order for order, _ in found)
        if total != claimed:
            raise CensusError(
                f"strip {label}: winding {claimed} from the census lines, "
                f"but the local windings at {seeds} sum to {total}"
            )
        if claimed < 0:
            out += [(loc, order, seed) for (order, loc), seed in zip(found, seeds)]
    return out


def delta_x_minus_simple_poles(ctx: EllipticContext) -> list[tuple[complex, int]]:
    """Winding check at the six claimed simple poles of delta x^-.

    They sit at the conjugates +-a1*, +-a2*, +-a3*; each winding number must
    come back -1.
    """
    locs = [alpha1(ctx).conjugate(), alpha2(ctx).conjugate(), alpha3(ctx).conjugate()]
    locs += [-p for p in locs]
    out = []
    for p in locs:
        order, refined = locate_pole(delta_x_minus_log_d1, p, ctx, radius=2e-2)
        out.append((refined, order))
    return out
