"""Jacobi elliptic functions sn, cn, dn and the quarter period K.

Real evaluation runs a descending Landen (Gauss) transformation: the modulus
is squared down toward zero, the argument is rescaled, the trigonometric base
case is evaluated, and the values are mapped back up the modulus chain.  Every
step of the ascent is a rational map with positive denominators, so the
recursion is free of cancellation and delivers close to machine precision for
any real argument.  Each context precomputes the chain of both parameters as a
Landen plan, which one private function reads for every real evaluation.

Complex arguments are handled by the addition theorem combined with the
imaginary-argument transformation, which reduces sn(u + iv) to real
evaluations at u (modulus k) and v (complementary modulus k').  One batch
evaluator, ``sn_cn_dn_points``, holds that formula: it reduces each distinct
real and imaginary part of its points once, with results bit-equal to
evaluating each point alone.  The route breaks down on the common pole
lattice of sn/cn/dn, so complex evaluation refuses arguments within
``DELTA_POLE`` of a pole; residue work near poles belongs to contour
quadrature, not direct evaluation.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

# sqrt(3), which every closed-form constant of the choreography is built on.
SQRT3 = math.sqrt(3.0)

# Squared modulus of the lemniscate choreography: the unique value for which
# the three-body configuration keeps its center of mass fixed.
CHOREO_M = (2.0 + SQRT3) / 4.0

# Landen descent: stop once the arithmetic-geometric gap is below this.
LANDEN_TOL = 1e-16
LANDEN_MAX_ITER = 32

# Exclusion radius around poles of sn/cn/dn for complex evaluation.
DELTA_POLE = 1e-3

# Carlson's duplication stops once every argument of R_F is within this relative
# distance of their mean; the fifth-order series then errs by ~RF_TOL^6 / 4.
RF_TOL = 2.5e-3


class PoleProximityError(ValueError):
    """Complex argument too close to a pole of sn/cn/dn for direct evaluation."""


def _quarter_period_agm(m: float) -> float:
    """K(m) = pi / (2 agm(1, sqrt(1-m))), quadratically convergent."""
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(LANDEN_MAX_ITER):
        if abs(a - b) < LANDEN_TOL:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _landen_chain(m: float) -> tuple[float, ...]:
    """Descending sequence of Landen moduli k1 > k2 > ... down to ~1e-16.

    Each step maps parameter m to modulus k_next = m / (1 + sqrt(1-m))^2,
    the cancellation-free form of (1 - k') / (1 + k').  The chain stops after
    the first modulus at or below LANDEN_TOL, and leaves that modulus out
    when 1 - k rounds to 1: its descent divides by exactly 1.0 and its ascent,
    the first one, maps (s, c, 1) to itself, so the step is an identity in
    floating point.
    """
    ks = []
    for _ in range(LANDEN_MAX_ITER):
        kp = math.sqrt(1.0 - m)
        k1 = m / ((1.0 + kp) * (1.0 + kp))
        if 1.0 - k1 == 1.0:
            break
        ks.append(k1)
        if k1 <= LANDEN_TOL:
            break
        m = k1 * k1
    return tuple(ks)


def _landen_plan(m: float, four_k: float) -> tuple:
    # (4K, descent divisors 1 + k, ascent pairs (k, 1 + k)) of the chain at m.
    chain = _landen_chain(m)
    return four_k, tuple(1.0 + k1 for k1 in chain), tuple((k1, 1.0 + k1) for k1 in reversed(chain))


class EllipticContext(NamedTuple):
    """Immutable evaluation context for one squared modulus m.

    Holds the quarter periods K and K' (K' is the quarter period of the
    complementary parameter 1-m, computed by the same AGM routine) and the
    Landen plan of each parameter: the period 4K (4K' for the complement),
    the descent divisors 1 + k of the modulus chain, and its ascent pairs
    (k, 1 + k) in ascent order.  The chain leaves out a last step that is an
    identity in floating point (see _landen_chain), so at CHOREO_M the plan
    has five steps and the complement three.  Safe to share across threads;
    all evaluation functions are pure, and the complex evaluator's per-call
    tables live and die inside one call.
    """

    m: float
    K: float
    Kprime: float
    plan: tuple
    plan_comp: tuple

    @property
    def period(self) -> float:
        """Fundamental real period 4K of sn (and of the orbit built on it)."""
        return 4.0 * self.K


def make_context(m: float) -> EllipticContext:
    """Build an EllipticContext for squared modulus m in (0, 1)."""
    if not (0.0 < m < 1.0) or not math.isfinite(m):
        raise ValueError(f"squared modulus must lie in (0, 1), got {m!r}")
    k = _quarter_period_agm(m)
    kprime = _quarter_period_agm(1.0 - m)
    return EllipticContext(
        m=m,
        K=k,
        Kprime=kprime,
        plan=_landen_plan(m, 4.0 * k),
        plan_comp=_landen_plan(1.0 - m, 4.0 * kprime),
    )


@functools.cache
def choreography_context() -> EllipticContext:
    """Context at the choreographic modulus CHOREO_M (cached)."""
    return make_context(CHOREO_M)


def _sn_cn_dn_real(t: float, plan: tuple) -> tuple[float, float, float]:
    # Reduce to [-2K, 2K] and evaluate at |r|, restoring the sign of sn, so
    # the parity symmetries hold exactly by construction; then descend the
    # argument, evaluate the trig base case, and ascend the modulus chain.
    four_k, divisors, ascent = plan
    r = t - four_k * round(t / four_k)
    u = -r if r < 0.0 else r
    for q in divisors:
        u /= q
    s, c, d = math.sin(u), math.cos(u), 1.0
    for k1, q in ascent:
        ks2 = k1 * s * s
        den = 1.0 + ks2
        s, c, d = q * s / den, c * d / den, (1.0 - ks2) / den
    return (-s, c, d) if r < 0.0 else (s, c, d)


def sn_cn_dn(t: float, ctx: EllipticContext) -> tuple[float, float, float]:
    """(sn(t), cn(t), dn(t)) at ctx.m for real t."""
    return _sn_cn_dn_real(t, ctx.plan)


def _carlson_rf(x: float, y: float, z: float) -> float:
    # R_F(x, y, z), x, y, z >= 0 and at most one zero: Carlson's duplication,
    # each step four times closer, then the series of DLMF 19.36.1.
    for _ in range(LANDEN_MAX_ITER):
        mu = (x + y + z) / 3.0
        dx, dy, dz = 1.0 - x / mu, 1.0 - y / mu, 1.0 - z / mu
        if max(abs(dx), abs(dy), abs(dz)) < RF_TOL:
            break
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) / math.sqrt(mu)


def inverse_sn_cn(s: float, c: float, ctx: EllipticContext) -> float:
    """The phase t in [-2K, 2K] with sn(t) = s and cn(t) = c, for s^2 + c^2 = 1.

    For cn >= 0 it is F(am | m) = sn R_F(cn^2, 1 - m sn^2, 1) (DLMF 19.25.5);
    for cn < 0 the amplitude lies beyond +-pi/2, and t = copysign(2K, sn) - F.
    """
    f = s * _carlson_rf(c * c, 1.0 - ctx.m * s * s, 1.0)
    return math.copysign(2.0 * ctx.K, s) - f if c < 0.0 else f


def _pole_row_distance(v: float, ctx: EllipticContext) -> float:
    # Distance from the line Im t = v to the nearest pole row Im t = (2l+1) K'.
    two_kp = 2.0 * ctx.Kprime
    im = v - two_kp * round(v / two_kp)
    return min(abs(im - ctx.Kprime), abs(im + ctx.Kprime))


def sn_cn_dn_points(ts: list[complex],
                    ctx: EllipticContext) -> list[tuple[complex, complex, complex]]:
    """(sn(t), cn(t), dn(t)) at each complex point t of ts, in order.

    sn(u + iv) is assembled by the addition theorem from sn/cn/dn at u
    (parameter m) and at v (complementary parameter 1-m).  Each distinct real
    part and each distinct imaginary part of the batch is reduced once, and
    each point's pole test is built from the same per-part values, so every
    value is bit-equal to evaluating its point alone.  Parts are told apart
    by their bits: 0.0 == -0.0, but sn(-0.0) is -0.0.  Raises
    PoleProximityError, naming the first such point, if any point lies within
    DELTA_POLE of the pole lattice 2nK + (2l+1) iK', where the common
    denominator vanishes and direct evaluation is meaningless.
    """
    two_k = 2.0 * ctx.K
    plan, plan_comp, m = ctx.plan, ctx.plan_comp, ctx.m
    at_u: dict = {}
    at_v: dict = {}
    out = []
    for t in ts:
        u, v = t.real, t.imag
        # A zero part is keyed by its repr, which keeps the two signs apart.
        ku, kv = u or repr(u), v or repr(v)
        a = at_u.get(ku)
        if a is None:
            s, c, d = _sn_cn_dn_real(u, plan)
            a = at_u[ku] = (u - two_k * round(u / two_k), s, c, d)
        b = at_v.get(kv)
        if b is None:
            s1, c1, d1 = _sn_cn_dn_real(v, plan_comp)
            b = at_v[kv] = (_pole_row_distance(v, ctx), s1, c1, d1)
        re, s, c, d = a
        row, s1, c1, d1 = b
        if math.hypot(re, row) < DELTA_POLE:
            raise PoleProximityError(
                f"argument {complex(t)} is within {DELTA_POLE} of a pole of sn/cn/dn"
            )
        den = c1 * c1 + m * s * s * s1 * s1
        out.append((complex(s * d1, c * d * s1 * c1) / den,
                    complex(c * c1, -s * d * s1 * d1) / den,
                    complex(d * c1 * d1, -m * s * c * s1) / den))
    return out

