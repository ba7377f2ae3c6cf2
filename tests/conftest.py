import math
from typing import NamedTuple

import pytest

from lemnichor import dynamics
from lemnichor.elliptic import CHOREO_M, make_context, sn_cn_dn_points
from lemnichor.orbit import Vec2, coords

SQRT3 = math.sqrt(3.0)
ROOT4_3 = 3.0**0.25

# Body-2 position of the t=0 triple, from the closed-form special values.
P0 = ROOT4_3 * (SQRT3 + 1.0) / 4.0
Q0 = ROOT4_3 * (1.0 - SQRT3) / 4.0


def row_positions(row):
    """The three positions of one integrate() row (ROW_FIELDS order)."""
    return [Vec2(row[i], row[i + 1]) for i in (1, 5, 9)]


def row_velocities(row):
    """The three velocities of one integrate() row (ROW_FIELDS order)."""
    return [Vec2(row[i], row[i + 1]) for i in (3, 7, 11)]


# Views of the package that only the tests need.  Each calls the package's
# own kernel (sn_cn_dn_points, coords, _kernel, _energy) and adds only
# the arithmetic its docstring states.
def sn_cn_dn_at(t, ctx):
    """(sn, cn, dn) at one complex t: the batch of one point."""
    return sn_cn_dn_points([complex(t)], ctx)[0]


def position(t, ctx):
    """x(t) of one body as a Vec2, read from orbit.coords."""
    x, y, _, _, _, _ = coords(t, ctx)
    return Vec2(x, y)


def dot(a, b):
    """a . b of two (x, y) pairs, as ax * bx + ay * by."""
    return a[0] * b[0] + a[1] * b[1]


def cross(a, b):
    """z-component of the planar cross product of two (x, y) pairs, ax * by - ay * bx."""
    return a[0] * b[1] - a[1] * b[0]


def line_distance(c, point, direction):
    """Distance from c to the line point + lam direction, all (x, y) pairs."""
    return abs(cross((c[0] - point[0], c[1] - point[1]), direction)) / math.hypot(*direction)


def oracle_reduced(t, ctx):
    """t less the whole periods 4K nearest to it, a complex t by its real part."""
    return t - ctx.period * round(t.real / ctx.period)


def oracle_sum(values):
    """0.0 + v0 + v1 + ..., added left to right, as sum() did before Python 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


class OracleVec(NamedTuple):
    """A plane vector with the arithmetic of the package's former Vec2.

    Each operation keeps the old order of operations, so the bit-exact oracles
    that replay the vector forms of the package give the old bits.
    """

    x: float
    y: float

    def __add__(self, other):
        return OracleVec(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return OracleVec(self.x - other.x, self.y - other.y)

    def cross(self, other):
        return self.x * other.y - self.y * other.x

    def norm_sq(self):
        return self.x * self.x + self.y * self.y

    def norm(self):
        return math.hypot(self.x, self.y)


def lemniscate_residual(p):
    """(x^2 + y^2)^2 - (x^2 - y^2); zero exactly on the curve."""
    r2 = dot(p, p)
    return r2 * r2 - (p.x * p.x - p.y * p.y)


def speed_relation_residual(t, ctx):
    """|v^2 + (m - 1/2) x^2 - 1/2| of one body at phase t; tiny at every modulus m."""
    x, y, vx, vy, _, _ = coords(t, ctx)
    x2 = x * x + y * y
    v2 = vx * vx + vy * vy
    return abs(v2 + (ctx.m - 0.5) * x2 - 0.5)


def _kernel(positions, variant):
    (x0, y0), (x1, y1), (x2, y2) = positions
    return dynamics._kernel(x0, y0, x1, y1, x2, y2, variant is dynamics.PotentialVariant.U_CENTRAL)


def forces(positions, variant):
    """Total force F_newton(i) + F_repulsive(i) on each body, as Vec2s."""
    f = _kernel(positions, variant)[:6]
    return [Vec2(f[0], f[1]), Vec2(f[2], f[3]), Vec2(f[4], f[5])]


def potential(positions, variant):
    """Potential energy of the configuration under the given variant."""
    return _kernel(positions, variant)[6]


def total_energy(positions, velocities, variant):
    """Kinetic (with the conventional 1/2 factor) plus potential energy."""
    (vx0, vy0), (vx1, vy1), (vx2, vy2) = velocities
    return dynamics._energy(vx0, vy0, vx1, vy1, vx2, vy2, potential(positions, variant))


@pytest.fixture(scope="session")
def ctx():
    return make_context(CHOREO_M)


@pytest.fixture(scope="session")
def period(ctx):
    return 4.0 * ctx.K
