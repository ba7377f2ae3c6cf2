"""Tangent-line concurrency and the rectangular-hyperbola construction.

For any planar three-body motion with fixed center of mass and zero angular
momentum, the three tangent lines through the bodies meet at one point c
(possibly at infinity).  For the lemniscate choreography that point sweeps
the rectangular hyperbola cx^2 - cy^2 = 1.

Two construction procedures are implemented and cross-validated:

  * from a point c on the hyperbola: draw the (generically four) tangent
    lines to the lemniscate from c and keep the three contact points whose
    quadrant differs from c's; equivalently, the three whose phase advances
    as c moves up along the hyperbola (a closed-form rate at each root).
  * from one body position: intersect its tangent line with the hyperbola,
    keep the intersection in a different quadrant (equivalently, in closed
    form, the one that moves up as the body moves forward), then as above.

Both rest on the tangency search: the gap g(s) = (c - x(s)) x v(s) is
scanned once on a grid of TANGENCY_NODES phases, and each sign change is
refined by safeguarded Newton (rtsafe, Numerical Recipes 9.4) with the exact
slope g'(s) = (c - x(s)) x a(s), which the same elliptic evaluation as g
provides.  For c on the hyperbola every tangency point is found; off it, two
contact points that share one scan cell can be missed.

Quadrants are numbered 1..4 counterclockwise from (+,+); points within
EPS_AXIS of a coordinate axis make the selection rules ambiguous and raise
instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .elliptic import EllipticContext
from .orbit import TripleState, Vec2, body_state, triple

EPS_AXIS = 1e-8
PARALLEL_TOL = 1e-10
TANGENCY_NODES = 256
BISECT_TOL = 1e-13
NEWTON_MAXIT = 100
DISC_TOL = 1e-12


class AxisAmbiguityError(ValueError):
    """A quadrant-based selection rule was asked about a point on an axis."""


class MethodDisagreementError(RuntimeError):
    """The forward-motion rule and the quadrant rule selected different sets."""


class NoIntersectionError(ValueError):
    """A tangent line misses the rectangular hyperbola."""


@dataclass(frozen=True)
class ConcurrencyPoint:
    """Common intersection of the three tangent lines, c = x_i + lambda_i v_i."""

    c: Vec2
    lambdas: tuple[float, float, float]
    finite: bool


@dataclass(frozen=True)
class TangencyCandidate:
    """A point of the lemniscate whose tangent line passes through a query point."""

    s: float
    point: Vec2
    quadrant: int
    velocity: Vec2  # v(s)
    slope: float  # g'(s) = (c - x(s)) x a(s), the Newton slope of the search


def quadrant(p: Vec2) -> int:
    """1..4 counterclockwise from (+,+); raises within EPS_AXIS of an axis."""
    if abs(p.x) < EPS_AXIS or abs(p.y) < EPS_AXIS:
        raise AxisAmbiguityError(f"point {p} lies within {EPS_AXIS} of an axis")
    if p.x > 0.0:
        return 1 if p.y > 0.0 else 4
    return 2 if p.y > 0.0 else 3


def concurrency_point(s: TripleState) -> ConcurrencyPoint:
    """Intersection point of the three tangent lines of a triple.

    lambda_i = ((x_j - x_i) x v_j) / (v_i x v_j) and, per velocity pair,
    c = -(l_i v_j - l_j v_i) / (v_i x v_j) with l_i = x_i x v_i.  All finite
    pair formulas must agree; if every pair of velocities is parallel the
    lines meet at infinity and finite=False is returned.
    """
    xs = s.positions
    vs = s.velocities
    ls = [xs[i].cross(vs[i]) for i in range(3)]

    cs = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        vv = vs[i].cross(vs[j])
        if abs(vv) < PARALLEL_TOL:
            continue
        cs.append(Vec2(-(ls[i] * vs[j].x - ls[j] * vs[i].x) / vv,
                       -(ls[i] * vs[j].y - ls[j] * vs[i].y) / vv))
    if not cs:
        return ConcurrencyPoint(c=Vec2(math.inf, math.inf), lambdas=(math.inf,) * 3,
                                finite=False)
    c = Vec2(sum(p.x for p in cs) / len(cs), sum(p.y for p in cs) / len(cs))

    lambdas = []
    for i in range(3):
        j = (i + 1) % 3
        vv = vs[i].cross(vs[j])
        if abs(vv) < PARALLEL_TOL:
            j = (i + 2) % 3
            vv = vs[i].cross(vs[j])
        lambdas.append((xs[j] - xs[i]).cross(vs[j]) / vv)
    return ConcurrencyPoint(c=c, lambdas=tuple(lambdas), finite=True)


def hyperbola_residual(c: Vec2) -> float:
    """cx^2 - cy^2 - 1; zero exactly on the rectangular hyperbola."""
    return c.x * c.x - c.y * c.y - 1.0


@lru_cache(maxsize=4)
def _scan_grid(ctx: EllipticContext):
    # Flat orbit samples (x, y, vx, vy), one elliptic evaluation per node,
    # reused by every tangency scan against the same context.
    period = ctx.period
    n = TANGENCY_NODES
    states = [body_state(j * period / n, ctx) for j in range(n)]
    return (
        [b.pos.x for b in states],
        [b.pos.y for b in states],
        [b.vel.x for b in states],
        [b.vel.y for b in states],
    )


def _gap_and_slope(cx: float, cy: float, s: float, ctx: EllipticContext) -> tuple[float, float]:
    # g(s) = (c - x(s)) x v(s) is zero exactly when the tangent line at phase
    # s passes through c; g'(s) = (c - x(s)) x a(s) because v x v = 0.
    b = body_state(s, ctx)
    ex = cx - b.pos.x
    ey = cy - b.pos.y
    return ex * b.vel.y - ey * b.vel.x, ex * b.acc.y - ey * b.acc.x


def _rtsafe(cx: float, cy: float, lo: float, hi: float, g_lo: float,
            ctx: EllipticContext) -> float:
    # Safeguarded Newton (Numerical Recipes 9.4) on a bracket [lo, hi] over
    # which the gap changes sign, starting at its midpoint.  A Newton step
    # that would leave the bracket, or that fails to halve the step before
    # last, is replaced by a bisection; a NaN gap or slope also bisects.
    xl, xh = (lo, hi) if g_lo < 0.0 else (hi, lo)
    s = 0.5 * (lo + hi)
    dx = dx_old = hi - lo
    for _ in range(NEWTON_MAXIT):
        g, dg = _gap_and_slope(cx, cy, s, ctx)
        if g == 0.0:
            return s
        if g < 0.0:
            xl = s
        else:
            xh = s
        if ((s - xh) * dg - g) * ((s - xl) * dg - g) < 0.0 and abs(2.0 * g) <= abs(dx_old * dg):
            dx_old, dx = dx, g / dg
            s -= dx
        else:
            dx_old, dx = dx, 0.5 * (xh - xl)
            s = xl + dx
        if abs(dx) < BISECT_TOL:
            return s
    # The iteration bound of rtsafe; pure bisection needs ~40 steps, and s
    # still lies inside the bracket.
    return s


def tangents_from_point(c: Vec2, ctx: EllipticContext) -> list[TangencyCandidate]:
    """All orbit phases whose tangent line passes through c.

    The tangency gap g(s) = (c - x(s)) x v(s) is scanned once on a grid of
    TANGENCY_NODES phases over one period, and each sign change is refined
    to BISECT_TOL in s by safeguarded Newton (rtsafe) with the exact slope
    g'(s) = (c - x(s)) x a(s), bisecting whenever Newton would leave the
    bracket; roots within 1e-9 are merged across the period seam.  Every root
    is found when c lies on the hyperbola (generically four); off it, two
    contact points sharing one scan cell can be missed.
    """
    period = ctx.period
    n = TANGENCY_NODES
    cx, cy = c.x, c.y
    xs, ys, vxs, vys = _scan_grid(ctx)
    g = [(cx - x) * vy - (cy - y) * vx for x, y, vx, vy in zip(xs, ys, vxs, vys)]
    roots = []
    for j in range(n):
        gj, gk = g[j], g[(j + 1) % n]
        if gj == 0.0:
            roots.append(j * period / n)
        elif gj * gk < 0.0:
            roots.append(_rtsafe(cx, cy, j * period / n, (j + 1) * period / n, gj, ctx))

    merged: list[float] = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    if len(merged) > 1 and (merged[0] + period) - merged[-1] <= 1e-9:
        merged.pop()

    out = []
    for r in merged:
        b = body_state(r, ctx)
        out.append(TangencyCandidate(s=r, point=b.pos, quadrant=_quadrant_or_zero(b.pos),
                                     velocity=b.vel, slope=(c - b.pos).cross(b.acc)))
    return out


def _quadrant_or_zero(p: Vec2) -> int:
    try:
        return quadrant(p)
    except AxisAmbiguityError:
        return 0


def _wrap(ds: float, period: float) -> float:
    return ds - period * round(ds / period)


def select_choreographic(
    c: Vec2,
    candidates: list[TangencyCandidate],
) -> list[TangencyCandidate]:
    """Pick the three contact points that are choreographic partners of c.

    Quadrant rule: keep candidates whose quadrant differs from c's.  The
    forward rule is the cross-check: as c moves up along dc = sign(cx) (cy, cx),
    the tangent of its level set of cx^2 - cy^2, implicit differentiation of
    the gap g(s) = (c - x(s)) x v(s) gives ds/de = -(dc x v(s)) / g'(s).  The
    kept phases must advance and the discarded one must retreat; disagreement
    raises MethodDisagreementError.  A c within EPS_AXIS of an axis raises
    AxisAmbiguityError before the candidates are counted; this refuses the
    hyperbola vertices (+-1, 0), where two contact points merge.
    """
    qc = quadrant(c)
    if len(candidates) != 4:
        raise ValueError(f"need exactly 4 candidates, got {len(candidates)}")
    for cand in candidates:
        if cand.quadrant == 0:
            raise AxisAmbiguityError(f"candidate at s={cand.s} lies on an axis")

    selected = [cand for cand in candidates if cand.quadrant != qc]
    rejected = [cand for cand in candidates if cand.quadrant == qc]
    if len(selected) != 3:
        raise MethodDisagreementError(
            f"quadrant rule kept {len(selected)} of 4 candidates"
        )

    dc = math.copysign(1.0, c.x) * Vec2(c.y, c.x)
    # The sign of ds/de, as a product so that a zero slope gives 0, not an error.
    advance = [-dc.cross(cand.velocity) * cand.slope for cand in selected + rejected]
    if not (all(a > 0.0 for a in advance[:3]) and advance[3] < 0.0):
        raise MethodDisagreementError(
            "forward-motion rule disagrees with the quadrant rule"
        )
    return selected


def tangent_hyperbola_intersections(x1: Vec2, v1: Vec2) -> list[Vec2]:
    """Intersections of the line x1 + lam v1 with cx^2 - cy^2 = 1."""
    a = v1.x * v1.x - v1.y * v1.y
    b = 2.0 * (x1.x * v1.x - x1.y * v1.y)
    cterm = x1.x * x1.x - x1.y * x1.y - 1.0
    if abs(a) < 1e-14:
        # Line parallel to an asymptote: single crossing.
        if abs(b) < 1e-14:
            raise NoIntersectionError("tangent line runs along an asymptote")
        lam = -cterm / b
        return [x1 + lam * v1]
    disc = b * b - 4.0 * a * cterm
    if disc < -DISC_TOL:
        raise NoIntersectionError("tangent line misses the hyperbola")
    if disc <= DISC_TOL:
        lam = -b / (2.0 * a)
        return [x1 + lam * v1]
    sq = math.sqrt(disc)
    return [x1 + ((-b + sq) / (2.0 * a)) * v1, x1 + ((-b - sq) / (2.0 * a)) * v1]


def complete_triple_from_point(
    x1_phase: float, ctx: EllipticContext
) -> tuple[tuple[Vec2, Vec2], ConcurrencyPoint]:
    """Recover the other two choreographic positions from one body's phase.

    The tangent line at x1 crosses the hyperbola in d1, d2; the concurrency
    point is the crossing in a different quadrant from x1 (cross-checked:
    it is the one that moves up as x1 moves forward).  The remaining two
    bodies are then read off the tangent construction at that point, ordered
    as (x2, x3) = phases (x1 + 4K/3, x1 - 4K/3).
    """
    b1 = body_state(x1_phase, ctx)
    x1, v1 = b1.pos, b1.vel
    if x1.norm() < EPS_AXIS:
        raise AxisAmbiguityError("phase maps to the origin")
    q1 = quadrant(x1)

    ds = tangent_hyperbola_intersections(x1, v1)
    if len(ds) < 2:
        raise NoIntersectionError("tangent line is tangent to the hyperbola")
    picked = [d for d in ds if quadrant(d) != q1]
    if len(picked) != 1:
        raise AxisAmbiguityError(
            f"quadrant rule is ambiguous for intersections {ds}"
        )
    d_sel = picked[0]
    d_rej = ds[0] if ds[1] is d_sel else ds[1]

    def rise(d: Vec2) -> float:
        # d'_y of the crossing d = x1 + lam v1 as x1 moves forward, from
        # d_x^2 - d_y^2 = 1; the denominator is nonzero at a simple crossing.
        lam = (d - x1).dot(v1) / v1.norm_sq()
        return lam * d.x * v1.cross(b1.acc) / (d.x * v1.x - d.y * v1.y)

    if not rise(d_sel) > 0.0 > rise(d_rej):
        raise MethodDisagreementError(
            "upward-motion rule disagrees with the quadrant rule"
        )

    candidates = tangents_from_point(d_sel, ctx)
    partners = select_choreographic(d_sel, candidates)
    period = ctx.period
    third = period / 3.0

    def by_offset(offset: float) -> TangencyCandidate:
        return min(partners, key=lambda cand: abs(_wrap(cand.s - (x1_phase + offset), period)))

    x2 = by_offset(third).point
    x3 = by_offset(-third).point

    lambdas = []
    for b in (b1, body_state(x1_phase + third, ctx), body_state(x1_phase - third, ctx)):
        lambdas.append((d_sel - b.pos).dot(b.vel) / b.vel.norm_sq())
    return (x2, x3), ConcurrencyPoint(c=d_sel, lambdas=tuple(lambdas), finite=True)


def sweep_row(t: float, ctx: EllipticContext) -> dict:
    """One geometry-sweep record: c(t), lambdas, quadrants, hyperbola residual."""
    s = triple(t, ctx)
    cp = concurrency_point(s)
    quads = [_quadrant_or_zero(p) for p in s.positions]
    return {
        "t": t,
        "cx": cp.c.x,
        "cy": cp.c.y,
        "lambda1": cp.lambdas[0],
        "lambda2": cp.lambdas[1],
        "lambda3": cp.lambdas[2],
        "quadrant_c": _quadrant_or_zero(cp.c) if cp.finite else 0,
        "quadrant_1": quads[0],
        "quadrant_2": quads[1],
        "quadrant_3": quads[2],
        "hyperbola_residual": hyperbola_residual(cp.c) if cp.finite else math.nan,
        "finite": cp.finite,
    }
