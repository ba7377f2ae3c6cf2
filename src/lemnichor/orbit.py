"""The analytic orbit on the lemniscate and the three-body configuration.

The single-body orbit is

    x(t) = sn(t) / (1 + cn^2(t)),    y(t) = sn(t) cn(t) / (1 + cn^2(t)),

which traces the Bernoulli lemniscate (x^2 + y^2)^2 = x^2 - y^2 with period
4K.  Velocity and acceleration are closed forms obtained by differentiating
with sn' = cn dn, cn' = -sn dn, dn' = -m sn cn; the equation-of-motion checks
need more accuracy than finite differences can provide.  coords(t) gives the
six floats (x, y, vx, vy, ax, ay) of one body from one elliptic evaluation;
it is the only per-body state, and every other reader goes through it.

The choreography places three unit-mass bodies at phases t, t + 4K/3 and
t - 4K/3 of the same orbit (triple_phases); triple(t) holds their positions
and velocities as Vec2 records.  triple_phases first reduces t by whole
periods (reduce_phase), which keeps the 4K/3 shifts exact at a large |t|.
The elliptic kernel still reduces each argument to [-2K, 2K] itself: both
reductions are needed, since r +- 4K/3 reaches +-10K/3.  Vec2 is a named
(x, y) pair built only by triple() and geometry.concurrency_point(), whose
results are read by .x and .y outside the package; everything else is floats
and plain (x, y) pairs.  CheckResult is the one row type of every claim the
package checks against a tolerance; HYPERBOLA_TOL, the hyperbola gate's,
sits here so that the CLI reads it without loading geometry.
"""

from __future__ import annotations

from typing import NamedTuple

from .elliptic import EllipticContext, sn_cn_dn


def ordered_sum(values):
    """0.0 + v0 + v1 + ..., added left to right (float or complex values).

    These are the bits of sum() up to Python 3.11.  From 3.12 sum() of floats
    is compensated, so sum() would make output bits depend on the interpreter.
    """
    total = 0.0
    for v in values:
        total += v
    return total


# The hyperbola gate: |cx^2 - cy^2 - 1| / max(1, |c|^2) at most this.  The
# sweep's c, a --from-c point and the c of every construction are held to it.
HYPERBOLA_TOL = 1e-11


class Vec2(NamedTuple):
    """Plane point or vector (x, y): a record with no arithmetic.

    v + w, (a tuple) + v, v * n and n * v raise TypeError, so a Vec2
    neither concatenates nor repeats as a tuple would.
    """

    x: float
    y: float

    __add__ = __radd__ = __mul__ = __rmul__ = None


class TripleState(NamedTuple):
    """Positions and velocities of the three choreographic bodies at a common time.

    Bodies are ordered by phase (t, t + 4K/3, t - 4K/3); downstream body
    indices always refer to this order.
    """

    positions: tuple[Vec2, Vec2, Vec2]
    velocities: tuple[Vec2, Vec2, Vec2]


class CheckResult(NamedTuple):
    """One claim: its residual |observed - claimed| and the tolerance it must meet."""

    name: str
    claimed: complex
    observed: complex
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        # Written so that a NaN residual fails.
        return self.residual <= self.tolerance


def coords(t: float, ctx: EllipticContext) -> tuple[float, float, float, float, float, float]:
    """(x, y, vx, vy, ax, ay) of one body at phase t from one elliptic evaluation.

    Velocity and acceleration are rational functions of (sn, cn, dn); see the
    module docstring for the differentiation rules.
    """
    s, c, d = sn_cn_dn(t, ctx)
    m = ctx.m
    cc = c * c
    dd = d * d
    one = 1.0 + cc
    one2 = one * one
    one3 = one2 * one
    return (
        s / one,
        s * c / one,
        c * d * (3.0 - cc) / one2,
        d * (3.0 * cc - 1.0) / one2,
        s * (
            (-(dd + m * cc) * (3.0 - cc) + 2.0 * cc * dd) / one2
            + 4.0 * cc * dd * (3.0 - cc) / one3
        ),
        (-m * s * c * (3.0 * cc - 1.0) - 6.0 * s * c * dd) / one2
        + 4.0 * s * c * dd * (3.0 * cc - 1.0) / one3,
    )


def velocity(t: float, ctx: EllipticContext) -> tuple[float, float]:
    return coords(t, ctx)[2:4]


def acceleration(t: float, ctx: EllipticContext) -> tuple[float, float]:
    return coords(t, ctx)[4:]


def reduce_phase(t: float, ctx: EllipticContext) -> float:
    """t less the whole periods 4K nearest to it, a complex t by its real part (as sn_cn_dn)."""
    four_k = ctx.period
    return t - four_k * round(t.real / four_k)


def triple_phases(t: float, ctx: EllipticContext) -> tuple[float, float, float]:
    """The phases r, r + 4K/3, r - 4K/3 of the bodies, r = reduce_phase(t); complex if t is."""
    t = reduce_phase(t, ctx)
    third = 4.0 * ctx.K / 3.0
    return (t, t + third, t - third)


def triple(t: float, ctx: EllipticContext) -> TripleState:
    """The three choreographic bodies at time t, one elliptic evaluation each."""
    cs = [coords(p, ctx) for p in triple_phases(t, ctx)]
    return TripleState(positions=tuple(Vec2(c[0], c[1]) for c in cs),
                       velocities=tuple(Vec2(c[2], c[3]) for c in cs))
