"""Conserved quantities of the choreography and their residuals.

On the analytic orbit at the choreographic modulus, the triple conserves:

    center of mass            = 0
    angular momentum (z)      = 0
    moment of inertia         = sqrt(3)
    sum of squared speeds     = 3/4          (reported without the 1/2 factor)
    sum of squared curvatures = 9 sqrt(3)
    sum of squared distances  = 3 sqrt(3)
    product of squared dists  = 3 sqrt(3) / 2

and each body's curvature satisfies rho^-2 = 9 |x|^2; no speed is zero, as
|v|^2 = 1/2 - (m - 1/2)|x|^2 >= min(1/2, 1 - m) on the orbit, where |x| <= 1.
full_report forms all seven from the floats of orbit.coords, the three pair
distances once for both the sum and the product; its center of mass is a
plain (cx, cy) pair.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .elliptic import SQRT3, EllipticContext
from .orbit import acceleration, coords, ordered_sum, triple_phases, velocity

# Closed-form constants of the conserved quantities.
EXPECTED_MOMENT_OF_INERTIA = SQRT3
EXPECTED_KINETIC_SUM = 0.75
EXPECTED_CURVATURE_SQ_SUM = 9.0 * SQRT3
EXPECTED_SUM_SQ_DISTANCES = 3.0 * SQRT3
EXPECTED_PRODUCT_SQ_DISTANCES = 1.5 * SQRT3


def angular_momentum(bodies: list[tuple[float, ...]]) -> float:
    """z-component of the total angular momentum (unit masses) of orbit.coords tuples."""
    return ordered_sum(x * vy - y * vx for x, y, vx, vy, _, _ in bodies)


def curvature(t: float, ctx: EllipticContext) -> float:
    """Inverse curvature radius rho^-1 = |v x a| / |v|^3 at phase t."""
    vx, vy = velocity(t, ctx)
    speed = math.hypot(vx, vy)
    ax, ay = acceleration(t, ctx)
    return abs(vx * ay - vy * ax) / speed**3


class InvariantReport(NamedTuple):
    """All conserved quantities at one time sample plus named residuals."""

    center_of_mass: tuple[float, float]
    moment_of_inertia: float
    angular_momentum: float
    kinetic_energy: float
    curvature_sq_sum: float
    sum_sq_distances: float
    product_sq_distances: float
    residuals: dict[str, float]


def full_report(t: float, ctx: EllipticContext) -> InvariantReport:
    """Every conserved quantity at time t and its residual.

    Positions and velocities are the floats of one orbit.coords evaluation per
    body; each curvature evaluates its phase again, through velocity and
    acceleration.
    """
    t0, t1, t2 = phases = triple_phases(t, ctx)
    bodies = [coords(p, ctx) for p in phases]
    (x0, y0, vx0, vy0, _, _), (x1, y1, vx1, vy1, _, _), (x2, y2, vx2, vy2, _, _) = bodies
    cx, cy = x0 + x1 + x2, y0 + y1 + y2
    moi = 0.0 + (x0 * x0 + y0 * y0) + (x1 * x1 + y1 * y1) + (x2 * x2 + y2 * y2)
    ang = angular_momentum(bodies)
    kin = 0.0 + (vx0 * vx0 + vy0 * vy0) + (vx1 * vx1 + vy1 * vy1) + (vx2 * vx2 + vy2 * vy2)
    csq = 0.0 + curvature(t0, ctx) ** 2 + curvature(t1, ctx) ** 2 + curvature(t2, ctx) ** 2
    r01 = (x0 - x1) * (x0 - x1) + (y0 - y1) * (y0 - y1)
    r12 = (x1 - x2) * (x1 - x2) + (y1 - y2) * (y1 - y2)
    r20 = (x2 - x0) * (x2 - x0) + (y2 - y0) * (y2 - y0)
    ssd = 0.0 + r01 + r12 + r20
    psd = r01 * r12 * r20
    residuals = {
        "center_of_mass": math.hypot(cx, cy),
        "moment_of_inertia": abs(moi - EXPECTED_MOMENT_OF_INERTIA),
        "angular_momentum": abs(ang),
        "kinetic_energy": abs(kin - EXPECTED_KINETIC_SUM),
        "curvature_sq_sum": abs(csq - EXPECTED_CURVATURE_SQ_SUM),
        "sum_sq_distances": abs(ssd - EXPECTED_SUM_SQ_DISTANCES),
        "product_sq_distances": abs(psd - EXPECTED_PRODUCT_SQ_DISTANCES),
    }
    return InvariantReport(center_of_mass=(cx, cy), moment_of_inertia=moi,
                           angular_momentum=ang, kinetic_energy=kin, curvature_sq_sum=csq,
                           sum_sq_distances=ssd, product_sq_distances=psd, residuals=residuals)
