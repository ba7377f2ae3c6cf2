"""Jacobi elliptic functions sn, cn, dn and the quarter period K.

Real evaluation runs a descending Landen (Gauss) transformation: the modulus
is squared down toward zero, the argument is rescaled, the trigonometric base
case is evaluated, and the values are mapped back up the modulus chain.  Every
step of the ascent is a rational map with positive denominators, so the
recursion is free of cancellation and delivers close to machine precision for
any real argument.

Complex arguments are handled by the addition theorem combined with the
imaginary-argument transformation, which reduces sn(u + iv) to real
evaluations at u (modulus k) and v (complementary modulus k').  One private
combine holds that formula.  ``sn_cn_dn_complex`` feeds it one point;
``sn_cn_dn_lines`` feeds it a product grid of abscissae and horizontal lines,
evaluating each u and each v once, with bit-equal results.  The route breaks
down on the common pole lattice of sn/cn/dn, so complex evaluation refuses
arguments within ``DELTA_POLE`` of a pole (the line evaluator refuses whole
lines within ``DELTA_POLE`` of a pole row); residue work near poles belongs
to contour quadrature, not direct evaluation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Squared modulus of the lemniscate choreography: the unique value for which
# the three-body configuration keeps its center of mass fixed.
CHOREO_M = (2.0 + math.sqrt(3.0)) / 4.0

# Landen descent: stop once the arithmetic-geometric gap is below this.
LANDEN_TOL = 1e-16
LANDEN_MAX_ITER = 32

# Exclusion radius around poles of sn/cn/dn for complex evaluation.
DELTA_POLE = 1e-3

# The complex plane type used throughout; Python's complex is the planar
# (re, im) pair the library works with.
Cplx = complex


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
    the cancellation-free form of (1 - k') / (1 + k').
    """
    ks = []
    for _ in range(LANDEN_MAX_ITER):
        kp = math.sqrt(1.0 - m)
        k1 = m / ((1.0 + kp) * (1.0 + kp))
        ks.append(k1)
        if k1 <= LANDEN_TOL:
            break
        m = k1 * k1
    return tuple(ks)


class EllipticContext(NamedTuple):
    """Immutable evaluation context for one squared modulus m.

    Holds the quarter periods K and K' (K' is the quarter period of the
    complementary parameter 1-m, computed by the same AGM routine) and the
    precomputed Landen modulus chains for both parameters.  Safe to share
    across threads; all evaluation functions are pure.
    """

    m: float
    K: float
    Kprime: float
    landen_chain: tuple[float, ...]
    landen_chain_comp: tuple[float, ...]

    @property
    def period(self) -> float:
        """Fundamental real period 4K of sn (and of the orbit built on it)."""
        return 4.0 * self.K


def make_context(m: float) -> EllipticContext:
    """Build an EllipticContext for squared modulus m in (0, 1)."""
    if not (0.0 < m < 1.0) or not math.isfinite(m):
        raise ValueError(f"squared modulus must lie in (0, 1), got {m!r}")
    return EllipticContext(
        m=m,
        K=_quarter_period_agm(m),
        Kprime=_quarter_period_agm(1.0 - m),
        landen_chain=_landen_chain(m),
        landen_chain_comp=_landen_chain(1.0 - m),
    )


def choreography_context() -> EllipticContext:
    """Context at the choreographic modulus CHOREO_M (cached)."""
    global _CHOREO_CTX
    if _CHOREO_CTX is None:
        _CHOREO_CTX = make_context(CHOREO_M)
    return _CHOREO_CTX


_CHOREO_CTX: EllipticContext | None = None


def _sn_cn_dn_chain(u: float, chain: tuple[float, ...]) -> tuple[float, float, float]:
    # Descend the argument, evaluate the trig base case, ascend the chain.
    for k1 in chain:
        u /= 1.0 + k1
    s, c, d = math.sin(u), math.cos(u), 1.0
    for k1 in reversed(chain):
        ks2 = k1 * s * s
        den = 1.0 + ks2
        s, c, d = (1.0 + k1) * s / den, c * d / den, (1.0 - ks2) / den
    return s, c, d


def _sn_cn_dn_reduced(t: float, four_k: float, chain: tuple[float, ...]) -> tuple[float, float, float]:
    # Reduce to [-2K, 2K], then use oddness of sn / evenness of cn, dn so the
    # parity symmetries hold exactly by construction.
    r = t - four_k * round(t / four_k)
    if r < 0.0:
        s, c, d = _sn_cn_dn_chain(-r, chain)
        return -s, c, d
    return _sn_cn_dn_chain(r, chain)


def sn_cn_dn(t: float, ctx: EllipticContext) -> tuple[float, float, float]:
    """(sn(t), cn(t), dn(t)) at ctx.m for real t."""
    return _sn_cn_dn_reduced(t, 4.0 * ctx.K, ctx.landen_chain)


def _pole_row_distance(v: float, ctx: EllipticContext) -> float:
    # Distance from the line Im t = v to the nearest pole row Im t = (2l+1) K'.
    im = v - 2.0 * ctx.Kprime * round(v / (2.0 * ctx.Kprime))
    return min(abs(im - ctx.Kprime), abs(im + ctx.Kprime))


def _pole_distance(t: Cplx, ctx: EllipticContext) -> float:
    # Poles of sn, cn, dn sit on the lattice 2nK + (2l+1) i K'.
    re = t.real - 2.0 * ctx.K * round(t.real / (2.0 * ctx.K))
    return math.hypot(re, _pole_row_distance(t.imag, ctx))


def _combine(s: float, c: float, d: float, s1: float, c1: float, d1: float,
             m: float) -> tuple[Cplx, Cplx, Cplx]:
    # Addition theorem with the imaginary-argument transformation: (sn, cn, dn)
    # at u + iv from (s, c, d) at u (parameter m) and (s1, c1, d1) at v (1 - m).
    den = c1 * c1 + m * s * s * s1 * s1
    sn = complex(s * d1, c * d * s1 * c1) / den
    cn = complex(c * c1, -s * d * s1 * d1) / den
    dn = complex(d * c1 * d1, -m * s * c * s1) / den
    return sn, cn, dn


def sn_cn_dn_complex(t: Cplx, ctx: EllipticContext) -> tuple[Cplx, Cplx, Cplx]:
    """(sn(t), cn(t), dn(t)) for complex t via the addition theorem.

    sn(u + iv) is assembled from sn/cn/dn at u (parameter m) and at v
    (complementary parameter 1-m).  Raises PoleProximityError within
    DELTA_POLE of the shared pole lattice, where the common denominator
    vanishes and direct evaluation is meaningless.
    """
    t = complex(t)
    if _pole_distance(t, ctx) < DELTA_POLE:
        raise PoleProximityError(
            f"argument {t} is within {DELTA_POLE} of a pole of sn/cn/dn"
        )
    s, c, d = _sn_cn_dn_reduced(t.real, 4.0 * ctx.K, ctx.landen_chain)
    s1, c1, d1 = _sn_cn_dn_reduced(t.imag, 4.0 * ctx.Kprime, ctx.landen_chain_comp)
    return _combine(s, c, d, s1, c1, d1, ctx.m)


def sn_cn_dn_lines(us: list[float], vs: list[float],
                   ctx: EllipticContext) -> list[list[tuple[Cplx, Cplx, Cplx]]]:
    """(sn, cn, dn)(u + iv) on each horizontal line Im t = v at the abscissae us.

    One list per v, in the order of us; each value is bit-equal to
    ``sn_cn_dn_complex(complex(u, v), ctx)``, but each u and each v costs one
    real evaluation, not one per node.  Raises PoleProximityError for a line
    within DELTA_POLE of a pole row Im t = (2l+1) K': every node of a line
    farther out is at least that far from the pole lattice.
    """
    for v in vs:
        if _pole_row_distance(v, ctx) < DELTA_POLE:
            raise PoleProximityError(
                f"line Im t = {v} is within {DELTA_POLE} of a pole row of sn/cn/dn"
            )
    at_u = [_sn_cn_dn_reduced(u, 4.0 * ctx.K, ctx.landen_chain) for u in us]
    m = ctx.m
    out = []
    for v in vs:
        s1, c1, d1 = _sn_cn_dn_reduced(v, 4.0 * ctx.Kprime, ctx.landen_chain_comp)
        out.append([_combine(s, c, d, s1, c1, d1, m) for s, c, d in at_u])
    return out
