"""Conserved quantities of the choreography and their residuals.

On the analytic orbit at the choreographic modulus, the triple conserves:

    center of mass            = 0
    angular momentum (z)      = 0
    moment of inertia         = sqrt(3)
    sum of squared speeds     = 3/4          (reported without the 1/2 factor)
    sum of squared curvatures = 9 sqrt(3)
    sum of squared distances  = 3 sqrt(3)
    product of squared dists  = 3 sqrt(3) / 2

and each body's curvature satisfies rho^-2 = 9 |x|^2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .elliptic import EllipticContext
from .orbit import TripleState, Vec2, acceleration, ordered_sum, triple, velocity

SQRT3 = math.sqrt(3.0)

# Closed-form constants of the conserved quantities.
EXPECTED_MOMENT_OF_INERTIA = SQRT3
EXPECTED_KINETIC_SUM = 0.75
EXPECTED_CURVATURE_SQ_SUM = 9.0 * SQRT3
EXPECTED_SUM_SQ_DISTANCES = 3.0 * SQRT3
EXPECTED_PRODUCT_SQ_DISTANCES = 1.5 * SQRT3

DEGENERATE_SPEED = 1e-12


def center_of_mass(s: TripleState) -> Vec2:
    p1, p2, p3 = s.positions
    return p1 + p2 + p3


def moment_of_inertia(s: TripleState) -> float:
    return ordered_sum(p.norm_sq() for p in s.positions)


def angular_momentum(s: TripleState) -> float:
    """z-component of the total angular momentum (unit masses)."""
    return ordered_sum(b.pos.cross(b.vel) for b in s.bodies)


def kinetic_energy(s: TripleState) -> float:
    """Sum of squared speeds, without the conventional 1/2 factor."""
    return ordered_sum(v.norm_sq() for v in s.velocities)


def curvature(t: float, ctx: EllipticContext) -> float:
    """Inverse curvature radius rho^-1 = |v x a| / |v|^3 at phase t."""
    v = velocity(t, ctx)
    speed = v.norm()
    if speed < DEGENERATE_SPEED:
        raise ValueError(f"degenerate velocity |v|={speed!r} at t={t!r}")
    a = acceleration(t, ctx)
    return abs(v.cross(a)) / speed**3


def curvature_sq_sum(s: TripleState, ctx: EllipticContext) -> float:
    return ordered_sum(curvature(b.t, ctx) ** 2 for b in s.bodies)


def _pair_sq_distances(s: TripleState) -> tuple[float, float, float]:
    p1, p2, p3 = s.positions
    return ((p1 - p2).norm_sq(), (p2 - p3).norm_sq(), (p3 - p1).norm_sq())


class InvariantReport(NamedTuple):
    """All conserved quantities at one time sample plus named residuals."""

    t: float
    center_of_mass: Vec2
    moment_of_inertia: float
    angular_momentum: float
    kinetic_energy: float
    curvature_sq_sum: float
    sum_sq_distances: float
    product_sq_distances: float
    residuals: dict[str, float]


def full_report(t: float, ctx: EllipticContext) -> InvariantReport:
    s = triple(t, ctx)
    com = center_of_mass(s)
    moi = moment_of_inertia(s)
    ang = angular_momentum(s)
    kin = kinetic_energy(s)
    csq = curvature_sq_sum(s, ctx)
    pairs = _pair_sq_distances(s)
    ssd = ordered_sum(pairs)
    psd = pairs[0] * pairs[1] * pairs[2]
    residuals = {
        "center_of_mass": com.norm(),
        "moment_of_inertia": abs(moi - EXPECTED_MOMENT_OF_INERTIA),
        "angular_momentum": abs(ang),
        "kinetic_energy": abs(kin - EXPECTED_KINETIC_SUM),
        "curvature_sq_sum": abs(csq - EXPECTED_CURVATURE_SQ_SUM),
        "sum_sq_distances": abs(ssd - EXPECTED_SUM_SQ_DISTANCES),
        "product_sq_distances": abs(psd - EXPECTED_PRODUCT_SQ_DISTANCES),
    }
    return InvariantReport(
        t=t,
        center_of_mass=com,
        moment_of_inertia=moi,
        angular_momentum=ang,
        kinetic_energy=kin,
        curvature_sq_sum=csq,
        sum_sq_distances=ssd,
        product_sq_distances=psd,
        residuals=residuals,
    )
