"""Spans and counters taken from outside the program.

The tracer replaces, for the length of one traced round, the module
attributes through which lemnichor's layers call each other (``orbit.sn_cn_dn``,
``geometry.position``, ``invariants.triple``, ...).  Python resolves a global
name at call time, so a caller inside the package reaches the wrapper without
any change to ``src/``.  Each wrapped call records a span (id, parent, name,
start, end) and bumps per-name counters; a name's self time is its span minus
the spans of the wrapped calls it made.  Spans are kept in memory up to a cap
and written by the caller when the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

_perf = time.perf_counter

# Spans kept in memory per run; later ones are only counted as dropped.
SPAN_CAP = 50_000

# Kinds of wrapped function; the kind decides which extra counter a call feeds.
SPAN, REAL, COMPLEX, SEARCH, INTEGRATE = "span", "real", "complex", "search", "integrate"


@dataclass
class Stat:
    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    real_evals: int = 0
    complex_evals: int = 0


def targets(modules) -> dict:
    """Functions to trace, by identity: {function: (span name, kind)}.

    ``modules`` maps layer name to module.  Only functions that exist are
    listed, so a later refactor that removes one drops its span instead of
    breaking the benchmark.
    """
    wanted = {
        "elliptic": {"sn_cn_dn": REAL, "sn_cn_dn_complex": COMPLEX},
        "orbit": dict.fromkeys(("position", "velocity", "acceleration", "body_state", "triple"), SPAN),
        "invariants": {"full_report": SPAN},
        "dynamics": {"eom_residual": SPAN, "integrate": INTEGRATE, "integrate_choreography": SPAN},
        "geometry": {
            "tangents_from_point": SEARCH, "select_choreographic": SPAN,
            "complete_triple_from_point": SPAN,
        },
        "analytic": dict.fromkeys((
            "check_special_values", "check_modulus_identity", "residue_at",
            "check_sum_identities", "check_j_identity", "check_triple_zero_and_pole",
            "check_eom_pole_cancellation", "eom_complex_residual", "taylor_coefficient",
            "locate_pole", "pole_census", "delta_x_minus_simple_poles",
        ), SPAN),
        "cli": {"main": SPAN},
    }
    out = {}
    for layer, names in wanted.items():
        for name, kind in names.items():
            fn = getattr(modules[layer], name, None)
            if callable(fn):
                out[fn] = (f"{layer}.{name}", kind)
    return out


class Tracer:
    """Collects spans and counts while ``active``; see the module docstring."""

    def __init__(self, modules):
        self.modules = modules
        self.active = False
        self.stack: list[list] = []  # open frames: [id, child_s, real_at_entry, complex_at_entry]
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []  # (id, parent id or None, name, start, end)
        self.spans_dropped = 0
        self.next_id = 0
        self.real_evals = 0
        self.complex_evals = 0
        self.candidates = 0
        self.steps = 0
        self._saved: list[tuple] = []

    def install(self) -> None:
        """Point every caller's module attribute at a wrapper."""
        table = targets(self.modules)
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                spec = table.get(value) if callable(value) else None
                if spec is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, *spec))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def call(self, name: str, fn, *args):
        """Run fn(*args) as an active root span named ``name``."""
        self.active = True
        try:
            return self._wrap(fn, name, SPAN)(*args)
        finally:
            self.active = False

    def _wrap(self, fn, name: str, kind: str):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0, tracer.real_evals, tracer.complex_evals]
            stack.append(frame)
            if kind is REAL:
                tracer.real_evals += 1
            elif kind is COMPLEX:
                tracer.complex_evals += 1
            failed = True
            start = _perf()
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                end = _perf()
                stack.pop()
                tracer._close(name, frame, parent, start, end, failed)
            if kind is SEARCH:
                tracer.candidates += len(out)
            elif kind is INTEGRATE:
                tracer.steps += _n_steps(args, kwargs)
            return out

        return traced

    def _close(self, name, frame, parent, start, end, failed) -> None:
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.errors += failed
        st.total_s += dur
        st.self_s += dur - frame[1]
        st.real_evals += self.real_evals - frame[2]
        st.complex_evals += self.complex_evals - frame[3]
        if self.stack:
            self.stack[-1][1] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], parent, name, start, end))
        else:
            self.spans_dropped += 1

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(st.self_s for name, st in self.stats.items() if name.startswith(prefix))

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())


def _n_steps(args, kwargs) -> int:
    # integrate(positions, velocities, variant, dt, n_steps, ...)
    return int(kwargs["n_steps"] if "n_steps" in kwargs else args[4])
