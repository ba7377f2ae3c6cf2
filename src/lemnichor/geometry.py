"""Tangent-line concurrency and the rectangular-hyperbola construction.

For any planar three-body motion with fixed center of mass and zero angular
momentum, the three tangent lines through the bodies meet at one point c
(possibly at infinity).  For the lemniscate choreography that point sweeps
the rectangular hyperbola cx^2 - cy^2 = 1.  Every lambda_i, of the sweep and
of the constructions alike, is the foot of c on tangent line i,
lambda_i = (c - x_i) . v_i / |v_i|^2, so that c = x_i + lambda_i v_i.

Two construction procedures are implemented and cross-validated:

  * from a point c on the hyperbola: draw the (generically four) tangent
    lines to the lemniscate from c and keep the three contact points whose
    quadrant differs from c's; equivalently, the three whose phase advances
    as c moves up along the hyperbola (a closed-form rate at each root).
  * from one body position: intersect its tangent line with the hyperbola,
    keep the intersection in a different quadrant (equivalently, in closed
    form, the one that moves up as the body moves forward), then as above,
    matching the contact points to the phases of orbit.triple_phases.

Both rest on the tangency search: the gap g(s) = (c - x(s)) x v(s) is
scanned once on a grid of TANGENCY_NODES phases, and each sign change is
refined by safeguarded Newton (rtsafe, Numerical Recipes 9.4) from the
bracket's regula-falsi point, read off the two scanned gaps, with the exact
slope g'(s) = (c - x(s)) x a(s), which the same elliptic evaluation as g
provides.  For c on the hyperbola every tangency point is found; off it, two
contact points that share one scan cell can be missed.

Quadrants are numbered 1..4 counterclockwise from (+,+); points within
EPS_AXIS of a coordinate axis make the selection rules ambiguous.  Every
refusal of a construction, instead of a guess, is one ConstructionRefusal
naming its reason.  Everything runs on plain floats and (x, y) pairs; only
concurrency_point, which reads a TripleState, gives its c as a Vec2 record.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .elliptic import EllipticContext
from .orbit import TripleState, Vec2, coords, ordered_sum, reduce_phase, triple, triple_phases

EPS_AXIS = 1e-8
PARALLEL_TOL = 1e-10
TANGENCY_NODES = 256
BISECT_TOL = 1e-13
NEWTON_MAXIT = 100
DISC_TOL = 1e-12

# The columns of a geometry-sweep row, the order of sweep_row's tuple.
SWEEP_FIELDS = ("t", "cx", "cy", "lambda1", "lambda2", "lambda3",
                "quadrant_c", "quadrant_1", "quadrant_2", "quadrant_3", "hyperbola_residual")


class ConstructionRefusal(ValueError):
    """A point on an axis, a tangent line that does not cross the hyperbola
    twice, other than four candidates, or two selection rules that disagree."""


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
    slope: float  # g'(s) = (c - x(s)) x a(s), the Newton slope of the search


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


@lru_cache(maxsize=4)
def _scan_grid(ctx: EllipticContext):
    # One row (x, y, vx, vy) per node, one elliptic evaluation each, reused
    # by every tangency scan against the same context.
    period = ctx.period
    n = TANGENCY_NODES
    return tuple(coords(j * period / n, ctx)[:4] for j in range(n))


def _gap_and_slope(cx: float, cy: float, s: float, ctx: EllipticContext) -> tuple[float, float]:
    # g(s) = (c - x(s)) x v(s) is zero exactly when the tangent line at phase
    # s passes through c; g'(s) = (c - x(s)) x a(s) because v x v = 0.
    x, y, vx, vy, ax, ay = coords(s, ctx)
    ex = cx - x
    ey = cy - y
    return ex * vy - ey * vx, ex * ay - ey * ax


def _rtsafe(cx: float, cy: float, lo: float, hi: float, g_lo: float, g_hi: float,
            ctx: EllipticContext) -> float:
    # Safeguarded Newton (Numerical Recipes 9.4) on a bracket [lo, hi] whose
    # end gaps g_lo and g_hi have strictly opposite signs, starting at the
    # regula-falsi point, where the chord through both ends crosses zero; it
    # lies inside the bracket.  A Newton step that would leave the bracket,
    # or that fails to halve the step before last, is replaced by a
    # bisection; a NaN gap or slope also bisects.
    xl, xh = (lo, hi) if g_lo < 0.0 else (hi, lo)
    s = lo + (hi - lo) * g_lo / (g_lo - g_hi)
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


def tangents_from_point(c: tuple[float, float], ctx: EllipticContext) -> list[TangencyCandidate]:
    """All orbit phases whose tangent line passes through c.

    The tangency gap g(s) = (c - x(s)) x v(s) is scanned once on a grid of
    TANGENCY_NODES phases over one period, and each sign change is refined
    to BISECT_TOL in s by safeguarded Newton (rtsafe) from the bracket's
    regula-falsi point with the exact slope g'(s) = (c - x(s)) x a(s),
    bisecting whenever Newton would leave the bracket; roots within 1e-9 are
    merged across the period seam.  Every root is found when c lies on the
    hyperbola (generically four); off it, two contact points sharing one
    scan cell can be missed.
    """
    period = ctx.period
    n = TANGENCY_NODES
    cx, cy = c
    g = [(cx - x) * vy - (cy - y) * vx for x, y, vx, vy in _scan_grid(ctx)]
    g.append(g[0])  # node n is node 0 one period on
    # A zero gap at node j is a root; a sign change to node j + 1 a bracket.
    roots = [j * period / n if g[j] == 0.0 else
             _rtsafe(cx, cy, j * period / n, (j + 1) * period / n, g[j], g[j + 1], ctx)
             for j in range(n) if g[j] == 0.0 or g[j] * g[j + 1] < 0.0]

    merged: list[float] = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    if len(merged) > 1 and (merged[0] + period) - merged[-1] <= 1e-9:
        merged.pop()

    out = []
    for r in merged:
        x, y, vx, vy, ax, ay = coords(r, ctx)
        out.append(TangencyCandidate(r, x, y, _quadrant_or_zero(x, y), vx, vy,
                                     (cx - x) * ay - (cy - y) * ax))
    return out


def select_choreographic(
    c: tuple[float, float],
    candidates: list[TangencyCandidate],
) -> list[TangencyCandidate]:
    """Pick the three contact points that are choreographic partners of c.

    Quadrant rule: keep candidates whose quadrant differs from c's.  The
    forward rule is the cross-check: as c moves up along dc = sign(cx) (cy, cx),
    the tangent of its level set of cx^2 - cy^2, implicit differentiation of
    the gap g(s) = (c - x(s)) x v(s) gives ds/de = -(dc x v(s)) / g'(s).  The
    kept phases must advance and the discarded one must retreat.  Raises
    ConstructionRefusal when they disagree, and for a c within EPS_AXIS of an
    axis before the candidates are counted; this refuses the hyperbola
    vertices (+-1, 0), where two contact points merge.
    """
    cx, cy = c
    qc = quadrant(cx, cy)
    if len(candidates) != 4:
        raise ConstructionRefusal(f"need exactly 4 candidates, got {len(candidates)}")
    for cand in candidates:
        if cand.quadrant == 0:
            raise ConstructionRefusal(f"candidate at s={cand.s} lies on an axis")

    selected = [cand for cand in candidates if cand.quadrant != qc]
    rejected = [cand for cand in candidates if cand.quadrant == qc]
    if len(selected) != 3:
        raise ConstructionRefusal(f"quadrant rule kept {len(selected)} of 4 candidates")

    sign = math.copysign(1.0, cx)
    dcx, dcy = sign * cy, sign * cx
    # The sign of ds/de, as a product so that a zero slope gives 0, not an error.
    advance = [-(dcx * cand.vy - dcy * cand.vx) * cand.slope for cand in selected + rejected]
    if not (all(a > 0.0 for a in advance[:3]) and advance[3] < 0.0):
        raise ConstructionRefusal("forward-motion rule disagrees with the quadrant rule")
    return selected


def tangent_hyperbola_intersections(x: float, y: float,
                                    vx: float, vy: float) -> list[tuple[float, float]]:
    """The two crossings (x, y) of the line (x, y) + lam (vx, vy) with cx^2 - cy^2 = 1.

    Raises ConstructionRefusal, naming the reason, for a line parallel to an
    asymptote (one crossing at most), one that misses the hyperbola, or one
    tangent to it.
    """
    a = vx * vx - vy * vy
    b = 2.0 * (x * vx - y * vy)
    cterm = hyperbola_residual((x, y))
    if abs(a) < 1e-14:
        raise ConstructionRefusal("tangent line is parallel to an asymptote of the hyperbola")
    disc = b * b - 4.0 * a * cterm
    if disc < -DISC_TOL:
        raise ConstructionRefusal("tangent line misses the hyperbola")
    if disc <= DISC_TOL:
        raise ConstructionRefusal("tangent line is tangent to the hyperbola")
    sq = math.sqrt(disc)
    return [(x + lam * vx, y + lam * vy) for lam in ((-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a))]


def complete_triple_from_point(
    x1_phase: float, ctx: EllipticContext
) -> tuple[tuple[tuple[float, float], tuple[float, float]], ConcurrencyPoint]:
    """Recover the other two choreographic positions from one body's phase.

    The tangent line at x1 crosses the hyperbola in d1, d2; the concurrency
    point is the crossing in a different quadrant from x1 (cross-checked:
    it is the one that moves up as x1 moves forward).  The remaining two
    bodies are then read off the tangent construction at that point: x2 and
    x3 are the contact points nearest the phases of the second and third
    bodies of triple_phases(x1_phase), (x1 + 4K/3, x1 - 4K/3), and their
    lambdas are those of these contact points.  An x1 within EPS_AXIS of an
    axis, the origin among them, is refused by quadrant().
    """
    phases = triple_phases(x1_phase, ctx)
    x, y, vx, vy, ax, ay = coords(phases[0], ctx)
    q1 = quadrant(x, y)

    ds = tangent_hyperbola_intersections(x, y, vx, vy)
    picked = [d for d in ds if quadrant(*d) != q1]
    if len(picked) != 1:
        raise ConstructionRefusal(f"quadrant rule is ambiguous for intersections {ds}")
    d_sel = picked[0]
    d_rej = ds[0] if ds[1] is d_sel else ds[1]

    def rise(d: tuple[float, float]) -> float:
        # d'_y of the crossing d = x1 + lam v1 as x1 moves forward, from
        # d_x^2 - d_y^2 = 1; the denominator is nonzero at a simple crossing.
        return _foot_lambda(d, x, y, vx, vy) * d[0] * (vx * ay - vy * ax) / (d[0] * vx - d[1] * vy)

    if not rise(d_sel) > 0.0 > rise(d_rej):
        raise ConstructionRefusal("upward-motion rule disagrees with the quadrant rule")

    partners = select_choreographic(d_sel, tangents_from_point(d_sel, ctx))
    nearest = [min(partners, key=lambda cand: abs(reduce_phase(cand.s - p, ctx)))
               for p in phases[1:]]
    x2, x3 = ((cand.x, cand.y) for cand in nearest)
    lambdas = (_foot_lambda(d_sel, x, y, vx, vy),
               *(_foot_lambda(d_sel, cand.x, cand.y, cand.vx, cand.vy) for cand in nearest))
    return (x2, x3), ConcurrencyPoint(c=d_sel, lambdas=lambdas)


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
