import math

import pytest

from lemnichor.elliptic import CHOREO_M, make_context
from lemnichor.orbit import Vec2

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


@pytest.fixture(scope="session")
def ctx():
    return make_context(CHOREO_M)


@pytest.fixture(scope="session")
def period(ctx):
    return 4.0 * ctx.K
