"""Numerical certification of the exact three-body choreography on the
Bernoulli lemniscate: elliptic-function orbit, conservation laws, both
equation-of-motion formulations, complex-plane pole/residue structure, and
the tangent-line / rectangular-hyperbola construction."""

from .elliptic import (
    CHOREO_M,
    Cplx,
    EllipticContext,
    PoleProximityError,
    choreography_context,
    make_context,
    sn_cn_dn,
    sn_cn_dn_complex,
)
from .orbit import BodyState, TripleState, Vec2, acceleration, triple, velocity
from .invariants import InvariantReport, full_report
from .dynamics import (
    CollisionError,
    PotentialVariant,
    eom_residual,
    integrate,
    one_body_lemniscate_residual,
    total_energy,
)
from .geometry import (
    ConcurrencyPoint,
    TangencyCandidate,
    complete_triple_from_point,
    concurrency_point,
    hyperbola_residual,
    select_choreographic,
    tangents_from_point,
)

__version__ = "0.1.0"
