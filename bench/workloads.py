"""The four benchmark workloads: seeded inputs, operations and output checks.

Each workload stresses a different layer, so that a change to one layer has a
workload that exercises it and others on which the prediction is "no change":

certify     ~20k seeded real phases; one operation is ``full_report(t)`` plus
            ``eom_residual`` for both force variants, the inner loop of
            ``lemnichor verify``.  The real elliptic kernel, ``orbit``,
            ``invariants`` and the Vec2 force path do the work (21 real
            evaluations per operation where 3 would do); no Verlet, geometry,
            complex or CSV work.
analytic    12 full complex certification passes: ``lemnichor analytic``, the
            pole census, the simple-pole windings of delta x^-, and the sum, j
            and complex equation-of-motion checks at seeded off-pole points.
            The only workload that uses the complex kernel and contour
            quadrature.
trajectory  the README ``integrate --variant V --init analytic`` command and a
            ``--variant U`` run from a seeded init file, 65 536 steps each,
            written as CSV.  Verlet with per-step energy and CSV emission
            dominate; the only workload with large memory (~170 MB peak).
construct   ~200 README geometry constructions, alternating ``--from-point``
            at seeded phases and ``--from-c`` at seeded exact hyperbola points
            (both branches, |asinh cy| <= 2), plus the README's literal
            ``--from-point 0.55`` and ``--from-c=1.37,0.94``.  The tangency
            search (scan plus bisection) dominates; the README ``--from-c``
            example exits 1 at the time of writing and is counted as failed,
            never skipped.

Failures: only ``construct`` may refuse, and only by a CLI exit of 1 or 2 (the
program's documented refusal paths).  Any other non-zero exit, any refusal on
the other three workloads, where none is expected, and any exception that
escapes an operation are wrong answers.

Inputs depend only on (workload, seed).  The program receives them as phases,
CLI arguments and an init JSON file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("certify", "analytic", "trajectory", "construct")

OK, REFUSED, WRONG = "ok", "refused", "wrong"

# Acceptance tolerances of the README: full-period Verlet return at
# dt = 4K/2^16, and both geometry round trips.
RETURN_TOL = 1e-6
RETURN_STEPS = 65536
ROUND_TRIP_TOL = 1e-7
# Census loci are refined by a contour first moment; observed errors are ~1e-14.
POLE_LOCATION_TOL = 1e-9

# Real phases span several periods (4K ~ 11.07) on both sides of zero, so the
# program's own period reduction is exercised.
PHASE_SPAN = 25.0
# Complex check points: Re t in [-2K, 2K], 0.05 <= |Im t| <= 0.8.  Every pole
# of sn/cn/dn, x^+ and delta x^- lies on Im t = +-K' ~ +-1.598, so the strip
# stays at least K'/2 away from all of them.
COMPLEX_RE = 5.5
COMPLEX_IM = (0.05, 0.8)


@dataclass
class Verdict:
    status: str
    detail: str = ""
    bytes_written: int = 0
    stdout: bytes = b""
    files: dict = field(default_factory=dict)  # data file name -> sha256


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


# CLI exit codes by which the program refuses an input it cannot construct:
# 1 (a selection rule or residual disagreed) and 2 (invalid input).
REFUSAL_EXITS = (1, 2)


def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """Plain-data inputs for one workload; the same (workload, seed) gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        n = 200 if smoke else 20000
        return {"phases": [rng.uniform(-PHASE_SPAN, PHASE_SPAN) for _ in range(n)]}
    if workload == "analytic":
        n = 1 if smoke else 12
        return {"points": [[_complex_point(rng) for _ in range(4)] for _ in range(n)]}
    if workload == "trajectory":
        return {"steps": 4096 if smoke else RETURN_STEPS,
                "init_phase": rng.uniform(-PHASE_SPAN, PHASE_SPAN)}
    if workload == "construct":
        n = 2 if smoke else 100
        ops = [{"s": 0.55, "argv": ["geometry", "--from-point", "0.55"]},
               {"argv": ["geometry", "--from-c=1.37,0.94"]}]
        for _ in range(n):
            s = rng.uniform(-PHASE_SPAN, PHASE_SPAN)
            ops.append({"s": s, "argv": ["geometry", f"--from-point={s!r}"]})
            u = rng.uniform(-2.0, 2.0)
            cx, cy = rng.choice((-1.0, 1.0)) * math.cosh(u), math.sinh(u)
            ops.append({"argv": ["geometry", f"--from-c={cx!r},{cy!r}"]})
        return {"ops": ops}
    raise ValueError(f"unknown workload {workload!r}")


def _complex_point(rng: random.Random) -> list[float]:
    im = rng.choice((-1.0, 1.0)) * rng.uniform(*COMPLEX_IM)
    return [rng.uniform(-COMPLEX_RE, COMPLEX_RE), im]


def build_ops(workload: str, inputs: dict, lem, workdir: Path) -> list[Op]:
    """The workload's fixed operation list.  ``lem`` maps module name to module."""
    return _BUILDERS[workload](inputs, lem, workdir)


def _cli(lem, argv: list[str]):
    # One in-process CLI invocation: (exit code, stdout text, stderr text).
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lem["cli"].main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _exit_failure(rc: int, err: str, may_refuse: bool = False) -> Verdict:
    status = REFUSED if may_refuse and rc in REFUSAL_EXITS else WRONG
    return Verdict(status, f"exit {rc}: {err.strip()[-200:]}")


def _certify_ops(inputs, lem, workdir):
    ctx = lem["elliptic"].choreography_context()
    invariants, dynamics, cli = lem["invariants"], lem["dynamics"], lem["cli"]
    variants = (dynamics.PotentialVariant.U_CENTRAL, dynamics.PotentialVariant.V_PAIRWISE)
    tol = cli.DEFAULT_TOLERANCES

    def check(out) -> Verdict:
        residuals, eom_u, eom_v = out
        bad = [k for k, r in residuals.items() if not r <= tol[k]]
        bad += [f"eom_{v.value}" for v, r in zip(variants, (eom_u, eom_v)) if not r <= tol["eom_residual"]]
        return Verdict(WRONG, f"over tolerance: {bad}") if bad else Verdict(OK)

    def op(t):
        def run():
            rep = invariants.full_report(t, ctx)
            return (rep.residuals,
                    dynamics.eom_residual(t, variants[0], ctx),
                    dynamics.eom_residual(t, variants[1], ctx))
        return Op(f"certify t={t!r}", run, check)

    return [op(t) for t in inputs["phases"]]


def _analytic_ops(inputs, lem, workdir):
    ctx = lem["elliptic"].choreography_context()
    analytic = lem["analytic"]
    a2, a3 = complex(ctx.K / 3.0, ctx.Kprime), complex(5.0 * ctx.K / 3.0, ctx.Kprime)
    expected_loci = (a2, a3, -a2, -a3)

    def op(points):
        points = [complex(*p) for p in points]

        def run():
            cmd = _cli(lem, ["analytic"])
            census = analytic.pole_census(ctx)
            dxm = analytic.delta_x_minus_simple_poles(ctx)
            checks = []
            for t in points:
                checks += analytic.check_sum_identities(t, ctx)
                checks += analytic.check_j_identity(t, ctx)
                checks += analytic.check_eom_pole_cancellation([t], ctx)
            return cmd, census, dxm, checks

        def check(out) -> Verdict:
            (rc, text, err), census, dxm, checks = out
            if rc != 0:
                return _exit_failure(rc, err)
            written = len(text.encode())
            report = json.loads(text)
            problems = [r["name"] for r in report if r["pass"] is not True]
            loci = [(complex(loc), order) for loc, order, _ in census]
            if not _census_ok(loci, expected_loci):
                problems.append(f"census {loci}")
            if len(dxm) != 6 or any(order != -1 for _, order in dxm):
                problems.append(f"delta x^- windings {[o for _, o in dxm]}")
            problems += [r.name for r in checks if not r.passed]
            status = WRONG if problems else OK
            return Verdict(status, "; ".join(problems)[:300], written, text.encode())

        return Op("analytic pass", run, check)

    return [op(p) for p in inputs["points"]]


def _census_ok(loci, expected) -> bool:
    # Exactly four loci, one at each expected pole, each with winding -1.
    if len(loci) != len(expected) or any(order != -1 for _, order in loci):
        return False
    remaining = list(expected)
    for loc, _ in loci:
        near = [p for p in remaining if abs(loc - p) <= POLE_LOCATION_TOL]
        if not near:
            return False
        remaining.remove(near[0])
    return True


def _trajectory_ops(inputs, lem, workdir):
    ctx = lem["elliptic"].choreography_context()
    steps = inputs["steps"]
    init_path = workdir / "init.json"
    s = lem["orbit"].triple(inputs["init_phase"], ctx)
    init_path.write_text(json.dumps({
        "positions": [[p.x, p.y] for p in s.positions],
        "velocities": [[v.x, v.y] for v in s.velocities],
    }), encoding="utf-8")
    extra = ["--steps", str(steps)]
    if steps != RETURN_STEPS:
        # Shortened runs still cover one full period, so the return check holds.
        extra += ["--dt", repr(ctx.period / steps)]
    # Verlet is second order: the return error grows as dt^2.
    tol = RETURN_TOL * (RETURN_STEPS / steps) ** 2

    def op(variant, init, name):
        out_path = workdir / name
        argv = ["integrate", "--variant", variant, "--init", init, *extra, "--output", str(out_path)]

        def run():
            return _cli(lem, argv)

        def check(out) -> Verdict:
            rc, _, err = out
            if rc != 0:
                return _exit_failure(rc, err)
            size, digest, rows, first, last = _scan_csv(out_path)
            meta = Path(str(out_path) + ".meta.json").read_bytes()
            files = {name: digest, name + ".meta.json": _sha256(meta)}
            written = size + len(meta)
            if rows != steps + 1:
                return Verdict(WRONG, f"{rows} rows, expected {steps + 1}", written, files=files)
            err_pos = max(abs(float(first[i]) - float(last[i])) for i in (1, 2, 5, 6, 9, 10))
            if not err_pos <= tol:
                return Verdict(WRONG, f"return error {err_pos:.3e} > {tol:.1e}", written, files=files)
            return Verdict(OK, "", written, files=files)

        return Op(f"integrate {variant} {init}", run, check)

    return [op("V", "analytic", "trajectory_V.csv"), op("U", str(init_path), "trajectory_U.csv")]


def _scan_csv(path: Path):
    """(size, sha256, data rows, first row, last row) of a CSV with one header line.

    Reads in fixed-size chunks, so the check never holds the file in memory
    and adds nothing to the workload process's peak RSS.
    """
    chunk = 1 << 16
    h = hashlib.sha256()
    size = newlines = 0
    with open(path, "rb") as f:
        f.readline()
        first = f.readline().rstrip(b"\n").split(b",")
        f.seek(0)
        while block := f.read(chunk):
            h.update(block)
            size += len(block)
            newlines += block.count(b"\n")
        f.seek(max(0, size - chunk))
        last = f.read().rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",")
    return size, h.hexdigest(), newlines - 1, first, last


def _construct_ops(inputs, lem, workdir):
    ctx = lem["elliptic"].choreography_context()
    orbit, geometry = lem["orbit"], lem["geometry"]

    def op(spec):
        argv = spec["argv"]

        def run():
            return _cli(lem, argv)

        def check(out) -> Verdict:
            rc, text, err = out
            if rc != 0:
                return _exit_failure(rc, err, may_refuse=True)
            res = json.loads(text)
            if "s" in spec:
                s = orbit.triple(spec["s"], ctx)
                gap = max(math.dist(res["x2"], _xy(s.positions[1])),
                          math.dist(res["x3"], _xy(s.positions[2])))
            else:
                gap = _from_c_gap(res, orbit, geometry, ctx)
            status = OK if gap <= ROUND_TRIP_TOL else WRONG
            return Verdict(status, f"round trip {gap:.3e}", len(text.encode()), text.encode())

        return Op(" ".join(argv), run, check)

    return [op(spec) for spec in inputs["ops"]]


def _from_c_gap(res, orbit, geometry, ctx) -> float:
    # The three selected contact points must be one choreographic triple, and
    # that triple's tangent lines must meet at the c the program reported.
    phases = res["selected_phases"]
    if len(phases) != 3:
        return math.inf
    points = [cand["point"] for cand in res["candidates"] if cand["s"] in phases]
    s = orbit.triple(phases[0], ctx)
    gap = max(min(math.dist(_xy(p), q) for q in points) for p in s.positions)
    c = geometry.concurrency_point(s).c
    gap = max(gap, math.dist(_xy(c), res["c"]))
    return gap


def _xy(p) -> list[float]:
    return [p.x, p.y]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_BUILDERS = {
    "certify": _certify_ops,
    "analytic": _analytic_ops,
    "trajectory": _trajectory_ops,
    "construct": _construct_ops,
}
