"""sn_cn_dn_points against mpmath at 30 digits.

The reference side uses mpmath alone (its ellipfun takes complex arguments),
never lemnichor.elliptic: the pole lattice and the period lattice below are
built from mpmath's own quarter periods.
"""

import cmath
import math
import random
import sys

import mpmath
import pytest

from lemnichor.elliptic import CHOREO_M, DELTA_POLE, sn_cn_dn_points

EPS = sys.float_info.epsilon


@pytest.fixture(scope="module")
def reference():
    """m at 30 digits, K and K' as floats, and (sn, cn, dn) at 30 digits of a float point."""
    with mpmath.workdps(30):
        m = (2 + mpmath.sqrt(3)) / 4
        k, kp = mpmath.ellipk(m), mpmath.ellipk(1 - m)

    def sn_cn_dn(z):
        with mpmath.workdps(30):
            u = mpmath.mpc(z.real, z.imag)
            return [mpmath.ellipfun(name, u, m=m) for name in ("sn", "cn", "dn")]

    return m, float(k), float(kp), sn_cn_dn


def _pole_distance(z, k, kp):
    # Distance from z to the nearest pole 2nK + (2l+1)iK'.
    n, l = round(z.real / (2.0 * k)), round((z.imag / kp - 1.0) / 2.0)
    return min(abs(z - complex(2.0 * a * k, (2.0 * b + 1.0) * kp))
               for a in (n - 1, n, n + 1) for b in (l - 1, l, l + 1))


def test_the_modulus_is_the_choreographic_one(reference):
    assert float(reference[0]) == CHOREO_M


def test_seeded_points_lattice_and_pole_neighbourhoods(reference, ctx):
    m, k, kp, ref = reference
    rng = random.Random(2002)
    generic = [complex(rng.uniform(-8.0, 8.0), rng.uniform(-3.0, 3.0)) for _ in range(200)]
    # The period lattice: zeros and extrema of sn, cn, dn, away from the poles.
    lattice = [complex(a * k, 2.0 * b * kp) for a in range(-3, 4) for b in (-1, 0, 1)]
    # Just outside the refused disc of radius DELTA_POLE around poles.
    near = [complex(2.0 * a * k, (2.0 * b + 1.0) * kp) + r * DELTA_POLE * cmath.exp(1j * phi)
            for a, b in ((0, 0), (1, 0), (-1, -1), (2, 1), (-3, -2))
            for r in (1.5, 3.0) for phi in (0.3, 2.1, 4.0)]
    points = [z for z in generic if _pole_distance(z, k, kp) >= 2.0 * DELTA_POLE] + lattice + near
    worst_generic = 0.0
    for z, values in zip(points, sn_cn_dn_points(points, ctx)):
        want = ref(z)
        # Relative to the largest of |sn|, |cn|, |dn|: a value near one of
        # its zeros has no relative accuracy to hold.
        scale = max(abs(w) for w in want)
        err = max(abs(mpmath.mpc(v.real, v.imag) - w) for v, w in zip(values, want)) / scale
        # The argument's last bit moves each value by about eps |z| |f'/f|,
        # and |f'/f| grows as 1 / (distance to the pole) near one.
        d = _pole_distance(z, k, kp)
        assert err <= 8.0 * EPS * (1.0 + abs(z)) / min(1.0, d), (z, float(err))
        if d > 0.1:
            worst_generic = max(worst_generic, float(err))
    # Away from the poles the values hold to a few ulp of the largest one (4.3e-15 seen).
    assert worst_generic <= 1e-14
