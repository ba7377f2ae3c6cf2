"""sn_cn_dn_points and every closed-form constant of analytic against mpmath at 30 digits.

The reference side uses mpmath alone (its ellipfun takes complex arguments),
never lemnichor.elliptic: the pole lattice, the period lattice and the pole
loci below are built from mpmath's own quarter periods.
"""

import cmath
import math
import random
import sys

import mpmath
import pytest

from lemnichor.analytic import (
    CN_SUM_CONSTANT,
    PRINCIPAL_2A,
    PRINCIPAL_B,
    TRIPLE_ZERO_C3,
    TRIPLE_ZERO_C5,
    check_special_values,
    pole_table,
)
from lemnichor.elliptic import CHOREO_M, DELTA_POLE, sn_cn_dn_points

EPS = sys.float_info.epsilon


@pytest.fixture(scope="module")
def exact():
    """m, K and K' at 30 digits."""
    with mpmath.workdps(30):
        m = (2 + mpmath.sqrt(3)) / 4
        return m, mpmath.ellipk(m), mpmath.ellipk(1 - m)


@pytest.fixture(scope="module")
def reference(exact):
    """m at 30 digits, K and K' as floats, and (sn, cn, dn) at 30 digits of a float point."""
    m, k, kp = exact

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


def _ulps(got, want) -> float:
    """|got - want| in units of eps |want|: the float got's error in ulp, near enough."""
    return float(abs(mpmath.mpmathify(got) - want) / abs(want)) / EPS


# Each float constant lies within this many ulp of its 30-digit value (1.7
# seen).  Every reference below is formed under one workdps(30): an operation
# outside it, a negation included, would round to 15 digits.
ULPS = 4.0


def test_the_special_values(exact, ctx):
    m, k, _ = exact
    rows = check_special_values(ctx)
    assert len(rows) == 12
    with mpmath.workdps(30):
        for r in rows:
            name, j = r.name[:2], int(r.name[3])  # "sn(1K/3)"
            assert _ulps(r.claimed, mpmath.ellipfun(name, j * k / 3, m=m)) <= ULPS, r.name


def test_the_three_phase_sum_constant(exact):
    # (3 + sqrt 3) / 2 is the sum of 1/(1 - i cn) over the phases t, t +- 4K/3.
    m, k, _ = exact
    with mpmath.workdps(30):
        for t in (mpmath.mpf("0.3"), mpmath.mpc("0.2", "0.3")):
            total = sum(1 / (1 - 1j * mpmath.ellipfun("cn", t + s * 4 * k / 3, m=m))
                        for s in (0, 1, -1))
            assert _ulps(CN_SUM_CONSTANT, total) <= ULPS, t


def test_the_series_of_delta_x_minus_at_its_triple_zero(exact):
    # delta x^-(t) = x^-(t + 4K/3) - x^-(t), x^- = sn / (1 + i cn), around a2 = K/3 + iK'.
    m, k, kp = exact

    def x_minus(t):
        return mpmath.ellipfun("sn", t, m=m) / (1 + 1j * mpmath.ellipfun("cn", t, m=m))

    with mpmath.workdps(30):
        c = mpmath.taylor(lambda t: x_minus(t + 4 * k / 3) - x_minus(t), k / 3 + 1j * kp, 5)
        assert all(abs(c[j]) <= 1e-25 for j in (0, 1, 2, 4)), c
        assert _ulps(TRIPLE_ZERO_C3, c[3]) <= ULPS
        assert _ulps(TRIPLE_ZERO_C5, c[5]) <= ULPS
        # 1 / (c3 h^3 + c4 h^4 + c5 h^5) = p3 / h^3 + p2 / h^2 + p1 / h + ..., and
        # the principal part is written 2a / h^3 - b / h.
        p3 = 1 / c[3]
        p1 = (c[4] ** 2 - c[3] * c[5]) / c[3] ** 3
        assert _ulps(PRINCIPAL_2A, p3) <= ULPS
        assert _ulps(PRINCIPAL_B, -p1) <= ULPS


def test_the_pole_table(exact, ctx):
    # Each pole is a zero of 1 - i cn.  The residue of 1/(1 - i cn) there is
    # 1 / (d/dt (1 - i cn)) = 1 / (i sn dn), and that of x^+ = sn / (1 - i cn)
    # is sn / (i sn dn).
    m, k, kp = exact
    poles = pole_table(ctx)
    with mpmath.workdps(30):
        a2, a3 = k / 3 + 1j * kp, 5 * k / 3 + 1j * kp
        for pole, z in zip(poles, (a2, a3, -a2, -a3), strict=True):
            sn, cn, dn = (mpmath.ellipfun(name, z, m=m) for name in ("sn", "cn", "dn"))
            assert abs(1 - 1j * cn) <= 1e-28, pole
            assert _ulps(pole.location, z) <= ULPS, pole
            assert _ulps(pole.icn_residue, 1 / (1j * sn * dn)) <= ULPS, pole
            assert _ulps(pole.x_plus_residue, sn / (1j * sn * dn)) <= ULPS, pole
