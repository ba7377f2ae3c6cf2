"""Forces, potentials, equation-of-motion residuals and a symplectic integrator.

The equation of motion satisfied by the choreography is

    a_i = F_newton(i) + F_repulsive(i)

where F_newton is two-dimensional Newtonian gravity (force ~ 1/r from the
pair potential (1/2) ln r) and the repulsive part comes in two equivalent
shapes: a central push (sqrt(3)/4) x_i from the potential -(sqrt(3)/8) x_i^2,
or a pairwise push -(sqrt(3)/12) sum_j (x_j - x_i) from pair terms
-(sqrt(3)/24) r_ij^2.  The two coincide exactly on any configuration with
zero center of mass.

The integrator is fixed-step velocity Verlet (all masses 1): the Hamiltonian
is separable and symplecticity keeps the energy error bounded, which is what
makes long-horizon periodicity tests meaningful.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass

from .elliptic import EllipticContext
from .orbit import Vec2, triple

SQRT3 = math.sqrt(3.0)

# Any pairwise approach below this is a genuinely different trajectory: the
# analytic orbit's minimum squared separation is sqrt(3)/2.
DELTA_COLL = 1e-10


class PotentialVariant(enum.Enum):
    U_CENTRAL = "U"
    V_PAIRWISE = "V"


class CollisionError(RuntimeError):
    """A pairwise distance fell below DELTA_COLL.

    When raised by integrate(), carries the step index and the partial
    trajectory accumulated so far.
    """

    def __init__(self, message: str, step_index: int | None = None, partial=None):
        super().__init__(message)
        self.step_index = step_index
        self.partial = partial


def _forces(px, py, central: bool):
    """Force components (fx, fy) on the three bodies at flat positions.

    Newton pairs are accumulated i < j with equal and opposite terms; the
    repulsion is the central (sqrt(3)/4) x_i or the pairwise
    -(sqrt(3)/12) sum_j (x_j - x_i).  This and _potential are the only places
    the dynamics is coded, and the only collision rule: r_ij^2 < DELTA_COLL^2.
    """
    fx = [0.0, 0.0, 0.0]
    fy = [0.0, 0.0, 0.0]
    for i in range(3):
        for j in range(i + 1, 3):
            dx = px[j] - px[i]
            dy = py[j] - py[i]
            r2 = dx * dx + dy * dy
            if r2 < DELTA_COLL * DELTA_COLL:
                raise CollisionError(f"bodies {i} and {j} closer than {DELTA_COLL}")
            gx = 0.5 * dx / r2
            gy = 0.5 * dy / r2
            fx[i] += gx
            fy[i] += gy
            fx[j] -= gx
            fy[j] -= gy
    if central:
        for i in range(3):
            fx[i] += SQRT3 / 4.0 * px[i]
            fy[i] += SQRT3 / 4.0 * py[i]
    else:
        for i in range(3):
            sx = px[0] + px[1] + px[2] - 3.0 * px[i]
            sy = py[0] + py[1] + py[2] - 3.0 * py[i]
            fx[i] -= SQRT3 / 12.0 * sx
            fy[i] -= SQRT3 / 12.0 * sy
    return fx, fy


def _potential(px, py, central: bool) -> float:
    """Potential energy at flat positions; (1/2) ln r is (1/4) ln(r^2)."""
    pe = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            r2 = (px[j] - px[i]) ** 2 + (py[j] - py[i]) ** 2
            if r2 < DELTA_COLL * DELTA_COLL:
                raise CollisionError(f"bodies {i} and {j} closer than {DELTA_COLL}")
            pe += 0.25 * math.log(r2)
            if not central:
                pe -= SQRT3 / 24.0 * r2
    if central:
        for i in range(3):
            pe -= SQRT3 / 8.0 * (px[i] * px[i] + py[i] * py[i])
    return pe


def _kinetic(vx, vy) -> float:
    return 0.5 * sum(vx[i] * vx[i] + vy[i] * vy[i] for i in range(3))


def forces(positions, variant: PotentialVariant) -> list[Vec2]:
    """Total force F_newton(i) + F_repulsive(i) on each body."""
    fx, fy = _forces(
        [p.x for p in positions], [p.y for p in positions],
        variant is PotentialVariant.U_CENTRAL,
    )
    return [Vec2(fx[i], fy[i]) for i in range(3)]


def potential(positions, variant: PotentialVariant) -> float:
    """Potential energy of the configuration under the given variant."""
    return _potential(
        [p.x for p in positions], [p.y for p in positions],
        variant is PotentialVariant.U_CENTRAL,
    )


def total_energy(positions, velocities, variant: PotentialVariant) -> float:
    """Kinetic (with the conventional 1/2 factor) plus potential energy."""
    ke = _kinetic([v.x for v in velocities], [v.y for v in velocities])
    return ke + potential(positions, variant)


def eom_residual(t: float, variant: PotentialVariant, ctx: EllipticContext) -> float:
    """Max over bodies of |a_i(analytic) - F_newton(i) - F_repulsive(i)|."""
    s = triple(t, ctx)
    f = forces(s.positions, variant)
    return max((b.acc - fi).norm() for b, fi in zip(s.bodies, f))


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    positions: tuple[Vec2, Vec2, Vec2]
    velocities: tuple[Vec2, Vec2, Vec2]
    energy: float


# The layout of one recorded row in Trajectory.rows, and the trajectory CSV
# columns.
ROW_FIELDS = (
    "t",
    "x1", "y1", "vx1", "vy1",
    "x2", "y2", "vx2", "vy2",
    "x3", "y3", "vx3", "vy3",
    "energy",
)
ROW_WIDTH = len(ROW_FIELDS)


def _as_point(row) -> TrajectoryPoint:
    t, x1, y1, vx1, vy1, x2, y2, vx2, vy2, x3, y3, vx3, vy3, energy = row
    return TrajectoryPoint(
        t=t,
        positions=(Vec2(x1, y1), Vec2(x2, y2), Vec2(x3, y3)),
        velocities=(Vec2(vx1, vy1), Vec2(vx2, vy2), Vec2(vx3, vy3)),
        energy=energy,
    )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled integrator output.

    rows holds ROW_WIDTH doubles per recorded point, laid out as ROW_FIELDS;
    points and final build TrajectoryPoints from it on demand.  Points are
    spaced dt * record_every apart; energy_drift is the maximum
    |E(t) - E(0)| observed over every integration step, not just recorded
    ones.
    """

    rows: array
    dt: float
    variant: PotentialVariant
    record_every: int
    energy_drift: float

    def iter_rows(self):
        """The recorded rows as ROW_WIDTH-tuples, read straight from rows."""
        return zip(*[iter(self.rows)] * ROW_WIDTH)

    @property
    def points(self) -> list[TrajectoryPoint]:
        return [_as_point(row) for row in self.iter_rows()]

    @property
    def final(self) -> TrajectoryPoint:
        if not self.rows:
            raise IndexError("empty trajectory")
        return _as_point(self.rows[-ROW_WIDTH:])


def integrate(
    positions,
    velocities,
    variant: PotentialVariant,
    dt: float,
    n_steps: int,
    record_every: int = 1,
) -> Trajectory:
    """Velocity-Verlet trajectory from the given initial condition.

    The energy is evaluated once per step.  Raises CollisionError (carrying
    the step index and partial trajectory) if any pairwise distance drops
    below DELTA_COLL.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")

    central = variant is PotentialVariant.U_CENTRAL
    px = [p.x for p in positions]
    py = [p.y for p in positions]
    vx = [v.x for v in velocities]
    vy = [v.y for v in velocities]
    rows = array("d")

    def record(t, energy):
        rows.extend((
            t,
            px[0], py[0], vx[0], vy[0],
            px[1], py[1], vx[1], vy[1],
            px[2], py[2], vx[2], vy[2],
            energy,
        ))

    step = 0
    drift = 0.0
    half = 0.5 * dt
    try:
        e0 = _kinetic(vx, vy) + _potential(px, py, central)
        record(0.0, e0)
        fx, fy = _forces(px, py, central)
        for step in range(1, n_steps + 1):
            for i in range(3):
                vx[i] += half * fx[i]
                vy[i] += half * fy[i]
                px[i] += dt * vx[i]
                py[i] += dt * vy[i]
            fx, fy = _forces(px, py, central)
            for i in range(3):
                vx[i] += half * fx[i]
                vy[i] += half * fy[i]
            energy = _kinetic(vx, vy) + _potential(px, py, central)
            drift = max(drift, abs(energy - e0))
            if step % record_every == 0 or step == n_steps:
                record(step * dt, energy)
    except CollisionError as exc:
        exc.step_index = step
        exc.partial = Trajectory(rows, dt, variant, record_every, drift)
        raise
    return Trajectory(rows, dt, variant, record_every, drift)


def integrate_choreography(
    ctx: EllipticContext,
    variant: PotentialVariant,
    dt: float,
    n_steps: int,
    record_every: int = 1,
    t0: float = 0.0,
) -> Trajectory:
    """integrate() starting from the analytic triple at time t0."""
    s = triple(t0, ctx)
    return integrate(s.positions, s.velocities, variant, dt, n_steps, record_every=record_every)


# --- one-body motion on the lemniscate under a central 1/r^6 potential ---

ONE_BODY_EDGE = 1e-6


def one_body_state(l: float, t: float) -> tuple[Vec2, Vec2, Vec2]:
    """Analytic position/velocity/acceleration of the one-body motion.

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
    return Vec2(x, y), Vec2(vx, vy), Vec2(ax, ay)


def one_body_lemniscate_residual(l: float, t: float) -> float:
    """|a - (-grad U)| for the central potential U(r) = -l^2 / (2 r^6)."""
    pos, _, acc = one_body_state(l, t)
    r2 = pos.norm_sq()
    scale = -3.0 * l * l / r2**4
    return (acc - Vec2(scale * pos.x, scale * pos.y)).norm()
