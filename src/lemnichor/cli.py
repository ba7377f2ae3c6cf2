"""Command-line surface: sample, verify, integrate, geometry, analytic.

Data outputs are deterministic: CSV uses '.' decimal, ',' delimiter, LF line
endings and 17 significant digits, and carries no timestamps; run metadata
goes to a separate ``<output>.meta.json`` sidecar.  Each subcommand takes
only the flags it reads; --n-samples, --steps, --dt, --tolerance-scale and
the --init file are validated before any output is written.

JSON is strict (RFC 8259): a NaN or infinite value is written as null.

Exit codes: 0 success, 1 verification residual above tolerance (a
machine-readable report is still written), 2 usage error or input whose
arithmetic overflows, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import islice
from pathlib import Path

# The layers that only some commands run (analytic, geometry, invariants) are
# imported inside those commands, so that a run loads no module it does not use.
from . import __version__, dynamics
from .elliptic import CHOREO_M, choreography_context
from .orbit import Vec2, body_state, triple

# Default residual tolerances, overridable by --tolerance-scale.
DEFAULT_TOLERANCES = {
    "center_of_mass": 1e-10,
    "moment_of_inertia": 1e-10,
    "angular_momentum": 1e-10,
    "kinetic_energy": 1e-10,
    "curvature_sq_sum": 1e-9,
    "sum_sq_distances": 1e-10,
    "product_sq_distances": 1e-10,
    "eom_residual": 1e-9,
    "concurrency": 1e-9,
    "hyperbola": 1e-8,
}

# Rows per CSV text chunk (~0.6 MB of trajectory text): bounds the text held in
# memory at once, whatever the number of rows.
CSV_CHUNK_ROWS = 2048


class RunConfig:
    """Every setting of one run; the sidecar's ``config`` is read from ``vars()``."""

    def __init__(
        self,
        command: str,
        n_samples: int = 1000,
        dt: float | None = None,
        steps: int = 65536,
        variant: dynamics.PotentialVariant = dynamics.PotentialVariant.U_CENTRAL,
        output_path: Path | None = None,
        format: str = "csv",
        affine: bool = False,
        tolerance_scale: float = 1.0,
        init: str = "analytic",
        from_c: tuple[float, float] | None = None,
        from_point: float | None = None,
    ) -> None:
        self.command = command
        self.n_samples = n_samples
        self.dt = dt
        self.steps = steps
        self.variant = variant
        self.output_path = output_path
        self.format = format
        self.affine = affine
        self.tolerance_scale = tolerance_scale
        self.init = init
        self.from_c = from_c
        self.from_point = from_point


def _write_text(cfg: RunConfig, chunks) -> None:
    """Write the text chunks to --output (plus its sidecar) or to stdout."""
    if cfg.output_path is None:
        sys.stdout.writelines(chunks)
        return
    sidecar_path = Path(str(cfg.output_path) + ".meta.json")
    with cfg.output_path.open("w", encoding="utf-8", newline="\n") as f:
        try:
            f.writelines(chunks)
        except BaseException:
            # The chunks can be computed as they are written (integrate), so a
            # run can fail half-way: leave no partial data file, and no sidecar
            # of an earlier run beside the missing file.  A device or FIFO
            # given as --output is not a file to remove.
            f.close()
            for path in (cfg.output_path, sidecar_path):
                if path.is_file():
                    path.unlink()
            raise
    import platform

    # Every setting of the run, so that the run can be replayed from it.
    config = {k: v for k, v in vars(cfg).items() if k not in ("command", "output_path")}
    config["variant"] = cfg.variant.value
    # The interpreter too, so that a run can be replayed on the same one.
    sidecar = {"command": cfg.command, "config": config, "python": platform.python_version(),
               "tool": f"lemnichor {__version__}"}
    sidecar_path.write_text(_json_text(sidecar), encoding="utf-8")


def _csv(rows, header):
    """The CSV text of an iterable of rows, in chunks of CSV_CHUNK_ROWS rows.

    The header goes out with the first chunk, so a run that fails within its
    first CSV_CHUNK_ROWS rows writes nothing.
    """
    fmt = ",".join(["%.17g"] * len(header))
    text = ",".join(header) + "\n"
    rows = iter(rows)
    while chunk := [fmt % tuple(row) for row in islice(rows, CSV_CHUNK_ROWS)]:
        yield text + "\n".join(chunk) + "\n"
        text = ""
    if text:
        yield text


def _fold_max(worst: float, r: float) -> float:
    """max(worst, r), except that a NaN on either side is kept."""
    return r if r > worst or math.isnan(r) else worst


def _json_text(obj) -> str:
    # Strict JSON: the round trip turns each NaN or infinity into None and
    # leaves every other value as it was (float repr round-trips exactly).
    obj = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cplx(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def cmd_sample(cfg: RunConfig) -> int:
    ctx = choreography_context()
    period = ctx.period
    rows = []
    for j in range(cfg.n_samples):
        t = j * period / cfg.n_samples
        b = body_state(t, ctx)
        p, v = b.pos, b.vel
        y = CHOREO_M * p.y if cfg.affine else p.y
        rows.append([t, p.x, y, v.x, v.y])
    if cfg.format == "json":
        _write_text(cfg, [_json_text([
            {"t": r[0], "x": r[1], "y": r[2], "vx": r[3], "vy": r[4]} for r in rows
        ])])
    else:
        _write_text(cfg, _csv(rows, ["t", "x", "y", "vx", "vy"]))
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    from . import invariants

    ctx = choreography_context()
    period = ctx.period
    worst: dict[str, float] = {}
    for j in range(cfg.n_samples):
        t = j * period / cfg.n_samples
        rep = invariants.full_report(t, ctx)
        for name, r in rep.residuals.items():
            worst[name] = _fold_max(worst.get(name, 0.0), r)
        for variant in dynamics.PotentialVariant:
            r = dynamics.eom_residual(t, variant, ctx)
            worst["eom_residual"] = _fold_max(worst.get("eom_residual", 0.0), r)
    tolerances = {k: DEFAULT_TOLERANCES[k] * cfg.tolerance_scale for k in worst}
    # Written so that a NaN residual fails.
    failures = {k: worst[k] for k in worst if not worst[k] <= tolerances[k]}
    report = {
        "n_samples": cfg.n_samples,
        "max_residuals": worst,
        "tolerances": tolerances,
        "failures": failures,
        "passed": not failures,
    }
    _write_text(cfg, [_json_text(report)])
    return 0 if not failures else 1


def _finite_number(v) -> bool:
    # A JSON number (not a bool) that converts to a finite float; False for NaN.
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _load_init(path: Path) -> list[list[Vec2]]:
    """[positions, velocities] of a JSON init file.

    Each key must hold exactly three [x, y] pairs of finite numbers; anything
    else raises ValueError before the run starts.
    """
    data = json.loads(path.read_text(encoding="utf-8"))
    out = []
    for key in ("positions", "velocities"):
        pairs = data.get(key) if isinstance(data, dict) else None
        if not (isinstance(pairs, list) and len(pairs) == 3 and all(
                isinstance(p, list) and len(p) == 2 and all(map(_finite_number, p))
                for p in pairs)):
            raise ValueError(f"init file {path}: {key!r} must be 3 [x, y] pairs of finite numbers")
        out.append([Vec2(float(x), float(y)) for x, y in pairs])
    return out


def cmd_integrate(cfg: RunConfig) -> int:
    ctx = choreography_context()
    dt = cfg.dt if cfg.dt is not None else ctx.period / 65536.0
    if cfg.init == "analytic":
        start = triple(0.0, ctx)
        positions, velocities = start.positions, start.velocities
    else:
        positions, velocities = _load_init(Path(cfg.init))
    # Each row is written as the Verlet loop reaches it; only the last is kept.
    drift, last = dynamics.integrate(
        positions, velocities, cfg.variant, dt, cfg.steps,
        consume=lambda rows: _write_text(cfg, _csv(rows, dynamics.ROW_FIELDS)),
    )

    summary = {"final_time": cfg.steps * dt, "energy_drift": drift}
    if cfg.init == "analytic":
        # Only the analytic start has a reference orbit to compare against.
        ref = triple(summary["final_time"], ctx)
        summary["position_error_vs_analytic"] = max(
            # Columns 1, 5 and 9 of a row are x1, x2 and x3.
            (Vec2(last[i], last[i + 1]) - p).norm() for i, p in zip((1, 5, 9), ref.positions)
        )
    sys.stderr.write(_json_text(summary))
    return 0


def cmd_geometry(cfg: RunConfig) -> int:
    from . import geometry

    ctx = choreography_context()
    if cfg.from_c is not None:
        c = Vec2(*cfg.from_c)
        candidates = geometry.tangents_from_point(c, ctx)
        selected = geometry.select_choreographic(c, candidates)
        _write_text(cfg, [_json_text({
            "c": [c.x, c.y],
            "candidates": [
                {"s": cand.s, "point": [cand.point.x, cand.point.y], "quadrant": cand.quadrant}
                for cand in candidates
            ],
            "selected_phases": [cand.s for cand in selected],
        })])
        return 0
    if cfg.from_point is not None:
        (x2, x3), cp = geometry.complete_triple_from_point(cfg.from_point, ctx)
        _write_text(cfg, [_json_text({
            "x1_phase": cfg.from_point,
            "x2": [x2.x, x2.y],
            "x3": [x3.x, x3.y],
            "c": [cp.c.x, cp.c.y],
            "lambdas": list(cp.lambdas),
        })])
        return 0

    period = ctx.period
    rows = []
    worst_hyp = 0.0
    for j in range(cfg.n_samples):
        t = (j + 0.431) * period / cfg.n_samples
        rec = geometry.sweep_row(t, ctx)
        rows.append([
            rec["t"], rec["cx"], rec["cy"],
            rec["lambda1"], rec["lambda2"], rec["lambda3"],
            rec["quadrant_c"], rec["quadrant_1"], rec["quadrant_2"], rec["quadrant_3"],
            rec["hyperbola_residual"],
        ])
        if rec["finite"] and math.hypot(rec["cx"], rec["cy"]) < 50.0:
            worst_hyp = _fold_max(worst_hyp, abs(rec["hyperbola_residual"]))
    _write_text(cfg, _csv(rows, [
        "t", "cx", "cy", "lambda1", "lambda2", "lambda3",
        "quadrant_c", "quadrant_1", "quadrant_2", "quadrant_3", "hyperbola_residual",
    ]))
    return 0 if worst_hyp <= DEFAULT_TOLERANCES["hyperbola"] * cfg.tolerance_scale else 1


def cmd_analytic(cfg: RunConfig) -> int:
    from . import analytic

    ctx = choreography_context()
    scale = cfg.tolerance_scale
    results: list[analytic.CheckResult] = []
    results += analytic.check_special_values(ctx, tol=1e-12 * scale)
    results += analytic.check_modulus_identity(ctx, tol=1e-12 * scale)
    results += analytic.check_residues(ctx, tol=1e-6 * scale)
    results += analytic.check_strip_windings(ctx, tol=analytic.WINDING_TOL * scale)
    for t in (0.3, 1.3, complex(0.2, 0.3)):
        results += analytic.check_sum_identities(t, ctx, scale=scale)
    for t in (ctx.K / 4.0, 0.9):
        results += analytic.check_j_identity(t, ctx, scale=scale)
    results += analytic.check_triple_zero_and_pole(analytic.alpha2(ctx), ctx, scale=scale)
    results += analytic.check_eom_pole_cancellation(
        [complex(0.5, 0.4), complex(ctx.K / 6.0, 0.0)], ctx, tol=1e-8 * scale
    )
    report = [
        {
            "name": r.name,
            "claimed": _cplx(r.claimed),
            "observed": _cplx(r.observed),
            "residual": r.residual,
            "pass": r.passed,
        }
        for r in results
    ]
    _write_text(cfg, [_json_text(report)])
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "sample": cmd_sample,
    "verify": cmd_verify,
    "integrate": cmd_integrate,
    "geometry": cmd_geometry,
    "analytic": cmd_analytic,
}


def run(cfg: RunConfig) -> int:
    """Execute one command configured by main(); returns the process exit code."""
    try:
        return _COMMANDS[cfg.command](cfg)
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    except RuntimeError as exc:
        report = {"error": str(exc), "passed": False}
        if isinstance(exc, dynamics.CollisionError):
            report["step"] = exc.step_index
        sys.stderr.write(_json_text(report))
        return 1
    except ValueError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    except OverflowError as exc:
        # Finite input whose arithmetic leaves the float range (an --init file
        # with coordinates near 1e308): the input is unusable, no residual failed.
        sys.stderr.write(f"invalid input: arithmetic overflow: {exc}\n")
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lemnichor",
        description="Sample, verify and explore the exact three-body "
        "choreography on the Bernoulli lemniscate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, summary, n_samples=False, tolerance=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--output", type=Path, default=None, help="write data here (default: stdout)")
        if n_samples:
            p.add_argument("--n-samples", type=int, default=None)
        if tolerance:
            p.add_argument("--tolerance-scale", type=float, default=None,
                           help="multiply every tolerance by this finite positive factor")
        return p

    p = add("sample", "sample the analytic orbit over one period", n_samples=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--affine", action="store_true",
                   help="scale exported y by the squared modulus")

    add("verify", "run the conservation-law suite", n_samples=True, tolerance=True)

    p = add("integrate", "velocity-Verlet integration")
    p.add_argument("--variant", choices=("U", "V"), default="U")
    p.add_argument("--dt", type=float, default=None, help="step (default: period / 65536)")
    p.add_argument("--steps", type=int, default=65536)
    p.add_argument("--init", default="analytic",
                   help="'analytic' or a JSON file with positions/velocities")

    p = add("geometry", "tangent-line geometry sweep or constructions",
            n_samples=True, tolerance=True)
    construction = p.add_mutually_exclusive_group()
    construction.add_argument("--from-c", default=None, metavar="CX,CY",
                              help="construct the triple from a hyperbola point")
    construction.add_argument("--from-point", type=float, default=None, metavar="S",
                              help="construct the triple from one orbit phase")

    add("analytic", "run the complex-analytic check suite", tolerance=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The validated RunConfig; raises ValueError on any bad value."""
    cfg = RunConfig(command=args.command, output_path=args.output)
    cfg.format = getattr(args, "format", cfg.format)
    n_samples = getattr(args, "n_samples", None)
    if n_samples is not None:
        cfg.n_samples = n_samples
    elif args.command == "geometry":
        cfg.n_samples = 200
    tolerance_scale = getattr(args, "tolerance_scale", None)
    if tolerance_scale is not None:
        cfg.tolerance_scale = tolerance_scale
    cfg.affine = getattr(args, "affine", False)
    if getattr(args, "variant", None):
        cfg.variant = dynamics.PotentialVariant(args.variant)
    cfg.dt = getattr(args, "dt", None)
    cfg.steps = getattr(args, "steps", cfg.steps)
    cfg.init = getattr(args, "init", cfg.init)
    if getattr(args, "from_c", None) is not None:
        parts = args.from_c.split(",")
        if len(parts) != 2:
            raise ValueError("--from-c expects CX,CY")
        cfg.from_c = (float(parts[0]), float(parts[1]))
    cfg.from_point = getattr(args, "from_point", None)
    # A construction builds one triple, and --from-point checks nothing
    # against a tolerance: a flag it would ignore is refused.
    if n_samples is not None and (cfg.from_c is not None or cfg.from_point is not None):
        raise ValueError("--n-samples is not taken by --from-c or --from-point")
    if tolerance_scale is not None and cfg.from_point is not None:
        raise ValueError("--tolerance-scale is not taken by --from-point")

    if cfg.n_samples < 1 or cfg.steps < 1:
        raise ValueError("--n-samples and --steps must be >= 1")
    for flag, x in (("--dt", cfg.dt), ("--tolerance-scale", cfg.tolerance_scale)):
        # The chained comparison is also False for NaN.
        if x is not None and not 0.0 < x < math.inf:
            raise ValueError(f"{flag} must be finite and > 0, got {x!r}")
    if cfg.from_c is not None and not all(map(math.isfinite, cfg.from_c)):
        raise ValueError(f"--from-c coordinates must be finite, got {args.from_c!r}")
    if cfg.from_c is not None:
        from . import geometry

        # Relative to |c|^2: far out on a branch, rounding alone puts an exact
        # point ~1e-8 off.  Off the curve the phases would not be 4K/3 apart.
        c = Vec2(*cfg.from_c)
        tol = DEFAULT_TOLERANCES["hyperbola"] * cfg.tolerance_scale
        if not abs(geometry.hyperbola_residual(c)) <= tol * c.norm_sq():
            raise ValueError(f"--from-c is off the hyperbola cx^2 - cy^2 = 1, got {args.from_c!r}")
    if cfg.from_point is not None and not math.isfinite(cfg.from_point):
        raise ValueError(f"--from-point must be finite, got {cfg.from_point!r}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2 before any output is written
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
