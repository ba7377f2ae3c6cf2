"""Tangent-line concurrency and the rectangular-hyperbola construction.

For any planar three-body motion with fixed center of mass and zero angular
momentum, the three tangent lines through the bodies meet at one point c
(possibly at infinity).  For the lemniscate choreography that point sweeps
the rectangular hyperbola cx^2 - cy^2 = 1.  Every lambda_i, of the sweep and
of the constructions alike, is the foot of c on tangent line i,
lambda_i = (c - x_i) . v_i / |v_i|^2, so that c = x_i + lambda_i v_i.

Both constructions are closed forms.  The lemniscate is rational in
t = tan(am(s) / 2), and for c on the hyperbola, with E = cx + cy, the tangent
line at t passes through c exactly when

    (E t^3 + sqrt3 t^2 - sqrt3 E t - 1) (E t^3 - sqrt3 t^2 + sqrt3 E t - 1) = 0,

a factorization found for this package, not stated in the paper.  The first
cubic's three real roots are the bodies whose tangent lines meet at c, the
second's one real root the fourth tangent.  From c, tangents_from_point solves
both cubics; from one body at t1, t1 is a root of the first cubic at
E = (1 - sqrt3 t1^2) / (t1 (t1^2 - sqrt3)), which gives c.  The paper's
quadrant rule picks the three bodies and is held to the first cubic's roots.

Quadrants are numbered 1..4 counterclockwise from (+,+); points within
EPS_AXIS of a coordinate axis make the quadrant rule ambiguous.  Every
refusal of a construction, instead of a guess, is one ConstructionRefusal
naming its reason.  Everything runs on plain floats and (x, y) pairs; only
concurrency_point, which reads a TripleState, gives its c as a Vec2 record.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .elliptic import SQRT3, EllipticContext, inverse_sn_cn, sn_cn_dn
from .orbit import (HYPERBOLA_TOL, TripleState, Vec2, coords, ordered_sum, reduce_phase, triple,
                    triple_phases)

EPS_AXIS = 1e-8
PARALLEL_TOL = 1e-10

# The columns of a geometry-sweep row, the order of sweep_row's tuple.
SWEEP_FIELDS = ("t", "cx", "cy", "lambda1", "lambda2", "lambda3",
                "quadrant_c", "quadrant_1", "quadrant_2", "quadrant_3", "hyperbola_residual")


class ConstructionRefusal(ValueError):
    """A point off the hyperbola or on an axis, a c at infinity, other than four
    candidates, or a quadrant rule that disagrees with the first cubic."""


class ConcurrencyPoint(NamedTuple):
    """Common intersection of the three tangent lines, c = x_i + lambda_i v_i."""

    c: tuple[float, float]  # a Vec2 from concurrency_point
    lambdas: tuple[float, float, float]


class TangencyCandidate(NamedTuple):
    """A point of the lemniscate whose tangent line passes through a query point."""

    s: float
    x: float  # x(s), y(s)
    y: float
    quadrant: int  # 0 within EPS_AXIS of an axis
    vx: float  # v(s)
    vy: float
    first_cubic: bool  # a root of the first cubic: a body whose tangent line meets the others at c


def _quadrant_or_zero(x: float, y: float) -> int:
    """1..4 counterclockwise from (+,+); 0 within EPS_AXIS of an axis."""
    if abs(x) < EPS_AXIS or abs(y) < EPS_AXIS:
        return 0
    if x > 0.0:
        return 1 if y > 0.0 else 4
    return 2 if y > 0.0 else 3


def quadrant(x: float, y: float) -> int:
    """1..4 counterclockwise from (+,+); raises within EPS_AXIS of an axis."""
    q = _quadrant_or_zero(x, y)
    if not q:
        raise ConstructionRefusal(f"point ({x!r}, {y!r}) lies within {EPS_AXIS} of an axis")
    return q


def _foot_lambda(c: tuple[float, float], x: float, y: float, vx: float, vy: float) -> float:
    """The lambda of the foot of c on the line (x, y) + lambda (vx, vy): (c - x) . v / |v|^2."""
    cx, cy = c
    return ((cx - x) * vx + (cy - y) * vy) / (vx * vx + vy * vy)


def concurrency_point(s: TripleState) -> ConcurrencyPoint:
    """Intersection point of the three tangent lines of a triple.

    Per velocity pair, c = -(l_i v_j - l_j v_i) / (v_i x v_j) with l_i = x_i x v_i.
    All finite pair formulas must agree; c is their mean, and lambda_i the foot
    of c on line i.  If every pair of velocities is parallel the lines meet at
    infinity, and c and the lambdas are infinite.
    """
    xs = s.positions
    vs = s.velocities
    ls = [x * vy - y * vx for (x, y), (vx, vy) in zip(xs, vs)]
    cs = []
    for i in range(3):
        j = (i + 1) % 3
        (vix, viy), (vjx, vjy) = vs[i], vs[j]
        vv = vix * vjy - viy * vjx
        if abs(vv) < PARALLEL_TOL:
            continue
        cs.append((-(ls[i] * vjx - ls[j] * vix) / vv, -(ls[i] * vjy - ls[j] * viy) / vv))
    if not cs:
        return ConcurrencyPoint(c=Vec2(math.inf, math.inf), lambdas=(math.inf,) * 3)
    c = Vec2(ordered_sum(x for x, _ in cs) / len(cs), ordered_sum(y for _, y in cs) / len(cs))
    return ConcurrencyPoint(c=c, lambdas=tuple(_foot_lambda(c, x, y, vx, vy)
                                               for (x, y), (vx, vy) in zip(xs, vs)))


def hyperbola_residual(c: tuple[float, float]) -> float:
    """cx^2 - cy^2 - 1; zero exactly on the rectangular hyperbola."""
    cx, cy = c
    return cx * cx - cy * cy - 1.0


def relative_hyperbola_residual(c: tuple[float, float], h: float) -> float:
    """|h| / max(1, |c|^2): far out, rounding alone puts an exact c ~1e-16 |c|^2 off."""
    cx, cy = c
    return abs(h) / max(1.0, cx * cx + cy * cy)


def _polished(t: float, a: float, b: float, c: float) -> float:
    # One Newton step on the monic cubic t^3 + a t^2 + b t + c.
    return t - (((t + a) * t + b) * t + c) / ((3.0 * t + 2.0 * a) * t + b)


def _cubic_roots(e: float) -> tuple[list[float], float]:
    # For |e| >= 1, the three real roots of the first cubic by Viete's
    # trigonometric form and the real root of the second by Cardano's, in its
    # hyperbolic form (DLMF 1.11(iii)), each polished by one Newton step.  With
    # r = 1/e they depress to p = -(sqrt3 + r^2), q = 2 sqrt3 r^3 / 9 and
    # p = sqrt3 - r^2, q = -2 sqrt3 r^3 / 9 under the shifts t = y -+ r / sqrt3.
    r = 1.0 / e
    shift = r / SQRT3
    w = math.sqrt(SQRT3 + r * r)
    theta = math.acos(-(r / w) ** 3)
    first = [_polished(2.0 * w / SQRT3 * math.cos((theta - 2.0 * math.pi * k) / 3.0) - shift,
                       SQRT3 * r, -SQRT3, -r) for k in range(3)]
    v = math.sqrt(SQRT3 - r * r)
    y = 2.0 * v / SQRT3 * math.sinh(math.asinh((r / v) ** 3) / 3.0)
    return first, _polished(y + shift, -SQRT3 * r, SQRT3, -r)


def tangents_from_point(c: tuple[float, float], ctx: EllipticContext) -> list[TangencyCandidate]:
    """The four orbit phases whose tangent line passes through c, sorted by s in [0, 4K).

    The roots t of the two cubics, each phase s = F(2 atan t | m) by
    inverse_sn_cn and its state from one coords call.  When |cx - cy| > |cx + cy|
    they are solved for the mirror image (-cx, cy), whose E = cy - cx = -1/E,
    and reflected back (s -> s + 2K), so always at |E| >= 1.  Raises
    ConstructionRefusal for a c that fails the hyperbola gate (HYPERBOLA_TOL).
    """
    cx, cy = c
    if not relative_hyperbola_residual(c, hyperbola_residual(c)) <= HYPERBOLA_TOL:
        raise ConstructionRefusal(f"point ({cx!r}, {cy!r}) is off the hyperbola cx^2 - cy^2 = 1")
    mirror = abs(cx + cy) < abs(cx - cy)
    first, other = _cubic_roots(cy - cx if mirror else cx + cy)
    out = []
    for t, is_first in [(root, True) for root in first] + [(other, False)]:
        den = 1.0 + t * t
        sn, cn = 2.0 * t / den, (1.0 - t) * (1.0 + t) / den
        s = inverse_sn_cn(-sn, -cn, ctx) if mirror else inverse_sn_cn(sn, cn, ctx)
        s = s + ctx.period if s < 0.0 else s
        x, y, vx, vy, _, _ = coords(s, ctx)
        out.append(TangencyCandidate(s, x, y, _quadrant_or_zero(x, y), vx, vy, is_first))
    return sorted(out)


def select_choreographic(
    c: tuple[float, float],
    candidates: list[TangencyCandidate],
) -> list[TangencyCandidate]:
    """Pick the three contact points that are choreographic partners of c.

    The quadrant rule keeps the candidates whose quadrant differs from c's;
    they must be the first cubic's roots.  Refuses a c within EPS_AXIS of an
    axis (the vertices (+-1, 0) among them), other than four candidates, and a
    candidate there: one at the origin means c is too far out.
    """
    cx, cy = c
    qc = quadrant(cx, cy)
    if len(candidates) != 4:
        raise ConstructionRefusal(f"need exactly 4 candidates, got {len(candidates)}")
    for cand in candidates:
        if abs(cand.x) < EPS_AXIS and abs(cand.y) < EPS_AXIS:
            raise ConstructionRefusal(f"contact point at s={cand.s} lies within {EPS_AXIS} of the"
                                      " origin: c is too far out for the quadrant rule")
        if cand.quadrant == 0:
            raise ConstructionRefusal(f"candidate at s={cand.s} lies on an axis")

    if not all(cand.first_cubic == (cand.quadrant != qc) for cand in candidates):
        raise ConstructionRefusal("quadrant rule disagrees with the first cubic")
    return [cand for cand in candidates if cand.quadrant != qc]


def _concurrency_of(t: float) -> tuple[float, float]:
    # c = ((E + 1/E) / 2, (E - 1/E) / 2), where the tangent line at t meets
    # those of its partners; E = 0 or infinite puts c at infinity.
    den = t * (t * t - SQRT3)
    e = (1.0 - SQRT3 * t * t) / den if den else 0.0
    c = (0.5 * (e + 1.0 / e), 0.5 * (e - 1.0 / e)) if e else (math.inf, math.inf)
    if math.isfinite(c[0]) and math.isfinite(c[1]):
        return c
    raise ConstructionRefusal(f"tangent line at t={t!r} is parallel to an asymptote of the hyperbola")


def complete_triple_from_point(
    x1_phase: float, ctx: EllipticContext
) -> tuple[tuple[tuple[float, float], tuple[float, float]], ConcurrencyPoint]:
    """Recover the other two choreographic positions from one body's phase.

    c comes from t1 = sn / (1 + cn), or (1 - cn) / sn when cn < -1/2, at x1's
    reduced phase, and must lie in another quadrant than x1.  x2 and x3 are
    the contact points from c nearest the phases x1 +- 4K/3 of triple_phases,
    with their lambdas.  quadrant() refuses an x1 within EPS_AXIS of an axis.
    """
    phases = triple_phases(x1_phase, ctx)
    x, y, vx, vy, _, _ = coords(phases[0], ctx)
    q1 = quadrant(x, y)
    sn, cn, _ = sn_cn_dn(phases[0], ctx)
    c = _concurrency_of((1.0 - cn) / sn if cn < -0.5 else sn / (1.0 + cn))
    if quadrant(*c) == q1:
        raise ConstructionRefusal(f"c = ({c[0]!r}, {c[1]!r}) lies in the quadrant of"
                                  f" x1 = ({x!r}, {y!r})")

    partners = select_choreographic(c, tangents_from_point(c, ctx))
    nearest = [min(partners, key=lambda cand: abs(reduce_phase(cand.s - p, ctx)))
               for p in phases[1:]]
    x2, x3 = ((cand.x, cand.y) for cand in nearest)
    lambdas = (_foot_lambda(c, x, y, vx, vy),
               *(_foot_lambda(c, cand.x, cand.y, cand.vx, cand.vy) for cand in nearest))
    return (x2, x3), ConcurrencyPoint(c=c, lambdas=lambdas)


def sweep_row(t: float, ctx: EllipticContext) -> tuple:
    """One geometry-sweep record in SWEEP_FIELDS order.

    c(t), the lambdas, the quadrants and hyperbola_residual(c); when the
    tangent lines meet at infinity, c is (inf, inf), quadrant_c is 0 and the
    residual is inf - inf, a NaN.
    """
    s = triple(t, ctx)
    cp = concurrency_point(s)
    cx, cy = cp.c
    return (
        t, cx, cy, *cp.lambdas,
        _quadrant_or_zero(cx, cy) if math.isfinite(cx) else 0,
        *(_quadrant_or_zero(*p) for p in s.positions),
        hyperbola_residual(cp.c),
    )
