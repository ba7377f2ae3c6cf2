"""Numerical certification of the exact three-body choreography on the
Bernoulli lemniscate: elliptic-function orbit, conservation laws, both
equation-of-motion formulations, complex-plane pole/residue structure, and
the tangent-line / rectangular-hyperbola construction.

Each layer is its own submodule (``lemnichor.orbit``, ``lemnichor.geometry``,
...); ``choreography_context`` is the one top-level name.
"""

# The benchmark's set-up probe calls lemnichor.choreography_context().
from .elliptic import choreography_context  # noqa: F401

__version__ = "0.1.0"
