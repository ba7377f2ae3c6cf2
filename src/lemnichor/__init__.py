"""Numerical certification of the exact three-body choreography on the
Bernoulli lemniscate: elliptic-function orbit, conservation laws, both
equation-of-motion formulations, complex-plane pole/residue structure, and
the tangent-line / rectangular-hyperbola construction.

The top-level names are loaded on first use (PEP 562): ``import lemnichor``
imports no submodule, and ``lemnichor.choreography_context`` imports only
``lemnichor.elliptic``.
"""

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_NAMES = {
    "elliptic": (
        "CHOREO_M", "EllipticContext", "PoleProximityError", "choreography_context",
        "make_context", "sn_cn_dn",
    ),
    "orbit": ("TripleState", "Vec2", "acceleration", "triple", "velocity"),
    "invariants": ("InvariantReport", "full_report"),
    "dynamics": (
        "CollisionError", "PotentialVariant", "eom_residual", "integrate",
        "one_body_lemniscate_residual",
    ),
    "geometry": (
        "ConcurrencyPoint", "TangencyCandidate", "complete_triple_from_point",
        "concurrency_point", "hyperbola_residual", "select_choreographic",
        "tangents_from_point",
    ),
}
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # An unknown name must raise AttributeError: that is how
    # ``from lemnichor import analytic`` falls back to importing the submodule.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
