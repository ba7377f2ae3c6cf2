"""Forces, potentials, equation-of-motion residuals and a symplectic integrator.

The equation of motion satisfied by the choreography is

    a_i = F_newton(i) + F_repulsive(i)

where F_newton is two-dimensional Newtonian gravity (force ~ 1/r from the
pair potential (1/2) ln r) and the repulsive part comes in two equivalent
shapes: a central push (sqrt(3)/4) x_i from the potential -(sqrt(3)/8) x_i^2,
or a pairwise push -(sqrt(3)/12) sum_j (x_j - x_i) from pair terms
-(sqrt(3)/24) r_ij^2.  The two coincide exactly on any configuration with
zero center of mass.  One kernel forms each pair's r_ij^2 once, for the
forces, the potential and the collision rule.

The integrator is fixed-step velocity Verlet (all masses 1): the Hamiltonian
is separable and symplecticity keeps the energy error bounded, which is what
makes long-horizon periodicity tests meaningful.
"""

from __future__ import annotations

import enum
import math

from .elliptic import SQRT3, EllipticContext
from .orbit import coords, triple_phases

# Any pairwise approach below this is a genuinely different trajectory: the
# analytic orbit's minimum squared separation is sqrt(3)/2.
DELTA_COLL = 1e-10
_DELTA_COLL_SQ = DELTA_COLL * DELTA_COLL

_C4, _C8, _C12, _C24 = SQRT3 / 4.0, SQRT3 / 8.0, SQRT3 / 12.0, SQRT3 / 24.0


class PotentialVariant(enum.Enum):
    U_CENTRAL = "U"
    V_PAIRWISE = "V"


class CollisionError(ValueError):
    """A pairwise distance fell below DELTA_COLL."""


def _kernel(x0, y0, x1, y1, x2, y2, central: bool):
    """Forces on, and potential energy of, three bodies at (x0, y0), (x1, y1), (x2, y2).

    Returns (fx0, fy0, fx1, fy1, fx2, fy2, pe).  Each pair's difference is
    formed once, and the one collision rule of the dynamics is checked once, on
    the force's r_ij^2 < DELTA_COLL^2.  Newton pairs give equal and opposite
    terms 0.5 d / r^2; the repulsion is the central (sqrt(3)/4) x_i (pe term
    -(sqrt(3)/8) |x_i|^2) or the pairwise -(sqrt(3)/12) sum_j (x_j - x_i) (pe
    term -(sqrt(3)/24) r_ij^2); (1/2) ln r is (1/4) ln(r^2).

    Every sum keeps the order of a loop over pairs i < j accumulating from 0.0
    (the 0.0 fixes the sign of a zero force), and the potential reads the
    same r_ij^2 as the force; the tests pin these bits against that loop.
    Together with _energy, whose kinetic sum has a fixed order on every
    Python version, this is all the dynamics.
    """
    dx01 = x1 - x0
    dy01 = y1 - y0
    dx02 = x2 - x0
    dy02 = y2 - y0
    dx12 = x2 - x1
    dy12 = y2 - y1
    r01 = dx01 * dx01 + dy01 * dy01
    r02 = dx02 * dx02 + dy02 * dy02
    r12 = dx12 * dx12 + dy12 * dy12
    if r01 < _DELTA_COLL_SQ or r02 < _DELTA_COLL_SQ or r12 < _DELTA_COLL_SQ:
        i, j = (0, 1) if r01 < _DELTA_COLL_SQ else (0, 2) if r02 < _DELTA_COLL_SQ else (1, 2)
        raise CollisionError(f"bodies {i} and {j} closer than {DELTA_COLL}")
    gx01 = 0.5 * dx01 / r01
    gy01 = 0.5 * dy01 / r01
    gx02 = 0.5 * dx02 / r02
    gy02 = 0.5 * dy02 / r02
    gx12 = 0.5 * dx12 / r12
    gy12 = 0.5 * dy12 / r12
    fx0 = 0.0 + gx01 + gx02
    fy0 = 0.0 + gy01 + gy02
    fx1 = 0.0 - gx01 + gx12
    fy1 = 0.0 - gy01 + gy12
    fx2 = 0.0 - gx02 - gx12
    fy2 = 0.0 - gy02 - gy12
    if central:
        pe = (
            0.25 * math.log(r01) + 0.25 * math.log(r02) + 0.25 * math.log(r12)
            - _C8 * (x0 * x0 + y0 * y0) - _C8 * (x1 * x1 + y1 * y1) - _C8 * (x2 * x2 + y2 * y2)
        )
        return (
            fx0 + _C4 * x0, fy0 + _C4 * y0,
            fx1 + _C4 * x1, fy1 + _C4 * y1,
            fx2 + _C4 * x2, fy2 + _C4 * y2,
            pe,
        )
    pe = (
        0.25 * math.log(r01) - _C24 * r01
        + 0.25 * math.log(r02) - _C24 * r02
        + 0.25 * math.log(r12) - _C24 * r12
    )
    sx = x0 + x1 + x2
    sy = y0 + y1 + y2
    return (
        fx0 - _C12 * (sx - 3.0 * x0), fy0 - _C12 * (sy - 3.0 * y0),
        fx1 - _C12 * (sx - 3.0 * x1), fy1 - _C12 * (sy - 3.0 * y1),
        fx2 - _C12 * (sx - 3.0 * x2), fy2 - _C12 * (sy - 3.0 * y2),
        pe,
    )


def _energy(vx0, vy0, vx1, vy1, vx2, vy2, pe: float) -> float:
    """Kinetic plus potential energy; the kinetic sum is (k0 + k1) + k2.

    Written out rather than sum(): from Python 3.12 sum() of floats is
    compensated, which would change the energy's last bits by interpreter.
    """
    return 0.5 * (vx0 * vx0 + vy0 * vy0 + (vx1 * vx1 + vy1 * vy1) + (vx2 * vx2 + vy2 * vy2)) + pe


def eom_residual(t: float, variant: PotentialVariant, ctx: EllipticContext) -> float:
    """Max over bodies of |a_i(analytic) - F_newton(i) - F_repulsive(i)|.

    Reads each body's position and acceleration from orbit.coords, one
    elliptic evaluation per body, and the forces from the kernel's tuple.
    """
    t0, t1, t2 = triple_phases(t, ctx)
    x0, y0, _, _, ax0, ay0 = coords(t0, ctx)
    x1, y1, _, _, ax1, ay1 = coords(t1, ctx)
    x2, y2, _, _, ax2, ay2 = coords(t2, ctx)
    f = _kernel(x0, y0, x1, y1, x2, y2, variant is PotentialVariant.U_CENTRAL)
    return max(math.hypot(ax0 - f[0], ay0 - f[1]),
               math.hypot(ax1 - f[2], ay1 - f[3]),
               math.hypot(ax2 - f[4], ay2 - f[5]))


# The layout of one row of integrate(), and the trajectory CSV columns.
ROW_FIELDS = (
    "t",
    "x1", "y1", "vx1", "vy1",
    "x2", "y2", "vx2", "vy2",
    "x3", "y3", "vx3", "vy3",
    "energy",
)


def integrate(positions, velocities, variant: PotentialVariant, dt: float, n_steps: int, *,
              consume):
    """Velocity-Verlet integration from three (x, y) positions and three velocities.

    consume is called once with an iterator over the n_steps + 1 rows, the
    start and every step, each a tuple in ROW_FIELDS order; it must exhaust
    the iterator.  Each row is yielded as the loop reaches it and none is
    kept, so memory does not grow with n_steps.  The energy is evaluated
    once per step.  Returns (energy_drift, last row), energy_drift being the
    largest |E(t) - E(0)| over every step.

    Raises ValueError unless 0 < dt < inf and n_steps >= 1.  A run that
    cannot go on stops at the first step (the start counts) where it cannot,
    by one ValueError whose message ends "at step N": a CollisionError when a
    pairwise distance drops below DELTA_COLL, a plain ValueError when the
    energy is not finite.  consume has then received the rows of every
    earlier step.  Both are runs that have left the problem: from triple(0),
    each collision that dt alone reaches (34 of 160 runs of 4000 steps, dt
    0.100 to 0.258, both variants) is a divergence whose two bodies coincide
    in floating point, at coordinates of 1e15 or more.
    """
    # The chained comparison is also False for NaN.
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be a finite number > 0")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    result = None

    def rows():
        nonlocal result
        central = variant is PotentialVariant.U_CENTRAL
        (x0, y0), (x1, y1), (x2, y2) = positions
        (vx0, vy0), (vx1, vy1), (vx2, vy2) = velocities
        step = 0
        drift = 0.0
        half = 0.5 * dt
        try:
            fx0, fy0, fx1, fy1, fx2, fy2, pe = _kernel(x0, y0, x1, y1, x2, y2, central)
            e0 = _energy(vx0, vy0, vx1, vy1, vx2, vy2, pe)
            if not math.isfinite(e0):
                raise ValueError("energy is not finite")
            row = (0.0, x0, y0, vx0, vy0, x1, y1, vx1, vy1, x2, y2, vx2, vy2, e0)
            yield row
            for step in range(1, n_steps + 1):
                vx0 += half * fx0
                vy0 += half * fy0
                vx1 += half * fx1
                vy1 += half * fy1
                vx2 += half * fx2
                vy2 += half * fy2
                x0 += dt * vx0
                y0 += dt * vy0
                x1 += dt * vx1
                y1 += dt * vy1
                x2 += dt * vx2
                y2 += dt * vy2
                fx0, fy0, fx1, fy1, fx2, fy2, pe = _kernel(x0, y0, x1, y1, x2, y2, central)
                vx0 += half * fx0
                vy0 += half * fy0
                vx1 += half * fx1
                vy1 += half * fy1
                vx2 += half * fx2
                vy2 += half * fy2
                energy = _energy(vx0, vy0, vx1, vy1, vx2, vy2, pe)
                d = abs(energy - e0)
                # A NaN d enters too; a d that is not finite stops the run.
                if not d <= drift:
                    if not math.isfinite(d):
                        raise ValueError("energy is not finite")
                    drift = d
                row = (step * dt, x0, y0, vx0, vy0, x1, y1, vx1, vy1, x2, y2, vx2, vy2, energy)
                yield row
        except ValueError as exc:
            # A collision stays a CollisionError, a divergence a ValueError.
            raise type(exc)(f"{exc} at step {step}") from None
        result = drift, row

    consume(rows())
    if result is None:
        raise RuntimeError("consume did not exhaust the rows of integrate()")
    return result


# --- one-body motion on the lemniscate under a central 1/r^6 potential ---

ONE_BODY_EDGE = 1e-6


def one_body_state(l: float, t: float) -> tuple[float, float, float, float, float, float]:
    """(x, y, vx, vy, ax, ay) of the one-body motion at time t, as orbit.coords gives a body.

    The particle runs along r^2 = cos(2 theta) with theta = arcsin(2lt)/2,
    l being its (conserved) angular momentum; the parameterization lives on
    |2lt| < 1 and collides with the origin at the endpoints.
    """
    w = 2.0 * l * t
    if abs(w) >= 1.0 - ONE_BODY_EDGE:
        raise ValueError(f"|2lt|={abs(w)!r} is inside the collision neighborhood")
    sig = 1.0 - w * w
    theta = 0.5 * math.asin(w)
    r = sig**0.25
    rp = -l * w * sig**-0.75
    rpp = -2.0 * l * l * sig**-1.75 * (1.0 + 0.5 * w * w)
    thp = l * sig**-0.5
    thpp = 2.0 * l * l * w * sig**-1.5
    ct, st = math.cos(theta), math.sin(theta)
    x, y = r * ct, r * st
    vx = rp * ct - y * thp
    vy = rp * st + x * thp
    ax = rpp * ct - 2.0 * rp * st * thp - x * thp * thp - y * thpp
    ay = rpp * st + 2.0 * rp * ct * thp - y * thp * thp + x * thpp
    return x, y, vx, vy, ax, ay


def one_body_lemniscate_residual(l: float, t: float) -> float:
    """|a - (-grad U)| for the central potential U(r) = -l^2 / (2 r^6)."""
    x, y, _, _, ax, ay = one_body_state(l, t)
    scale = -3.0 * l * l / (x * x + y * y)**4
    return math.hypot(ax - scale * x, ay - scale * y)
