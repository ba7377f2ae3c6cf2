"""Command-line surface: sample, verify, integrate, geometry, analytic.

Data outputs are deterministic: CSV uses '.' decimal, ',' delimiter, LF line
endings and 17 significant digits, and carries no timestamps; run metadata
goes to a separate ``<output>.meta.json`` sidecar.  SETTINGS names the
settings of each subcommand: the flags it takes, their defaults and what its
sidecar records.  The parser makes every usage check: each flag's value (its
``type=`` converter, which for --from-c also holds the point to the
hyperbola), the flags its exclusive group holds apart and the flags a command
does not take.  The --init file is read before the run starts, so a bad input
writes nothing.  The parser is built once per process, on first use.

Every CSV is written by one writer, _csv, in chunks of CSV_CHUNK_ROWS rows,
as the rows are computed.  The first chunk is formatted in process.  With more
than one CPU, the later ones go to up to CSV_HELPERS_MAX forked helpers, as
raw doubles over a pipe, and come back as text, in order, while the rows go
on.  A helper only formats, imports nothing and ends by os._exit; every helper
is reaped before the output is closed.  The bytes do not depend on which
path formatted a chunk.

JSON is strict (RFC 8259): a NaN or infinite value is written as null.  Each
JSON output is encoded once, by one writer, _json_text, whose bytes are those
of the stdlib's json.dumps(obj, indent=2, sort_keys=True).

Every gate is a CheckResult row, judged at its own tolerance by
CheckResult.passed (NaN fails); no input changes a tolerance.

Exit codes, one source each: 0 success; 1 a residual above its tolerance (a
machine-readable report is still written); 2 a usage error, reported by the
parser, or a ValueError: a malformed --init file, a construction refusal, or
an integrate run that cannot go on, a collision or an energy that is not
finite, named by its step; 3 an OSError (a CSV helper that ends before
sending its chunk is one too).
A run that fails once its --output is open leaves neither that file nor
its sidecar.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from array import array
from collections import deque
from itertools import chain, islice
from pathlib import Path

# The layers that only some commands run (analytic, geometry, invariants) are
# imported inside those commands, so that a run loads no module it does not use.
from . import __version__, dynamics
from .elliptic import choreography_context
from .orbit import HYPERBOLA_TOL, CheckResult, coords, triple

# The residual tolerance of each gate, which no input changes.  The hyperbola
# residual is relative, |cx^2 - cy^2 - 1| / max(1, |c|^2).
DEFAULT_TOLERANCES = {
    "center_of_mass": 1e-10,
    "moment_of_inertia": 1e-10,
    "angular_momentum": 1e-10,
    "kinetic_energy": 1e-10,
    "curvature_sq_sum": 1e-9,
    "sum_sq_distances": 1e-10,
    "product_sq_distances": 1e-10,
    "eom_residual": 1e-9,
    "hyperbola": HYPERBOLA_TOL,
}

# The settings of each command, in --help order, and their defaults: the
# command takes their flags and no other, a flag left out takes its default,
# and the sidecar's ``config`` records each one that is not None.  A None dt
# is one period in the default steps (filled in by _settings).  geometry takes
# one input: a construction's point, --from-c or --from-point, or else the
# sweep's n_samples (None under a construction).
SETTINGS = {
    "sample": {"n_samples": 1000},
    "verify": {"n_samples": 1000},
    "integrate": {"variant": "U", "dt": None, "steps": 65536, "init": "analytic"},
    "geometry": {"n_samples": 200, "from_c": None, "from_point": None},
    "analytic": {},
}

# The columns of the sample table.
SAMPLE_FIELDS = ("t", "x", "y", "vx", "vy")

# Rows per CSV text chunk (~0.28 MB of trajectory text): bounds the text held in
# memory at once, whatever the number of rows.  Each chunk is held several
# times over (doubles, then text and bytes in a helper and again in the parent),
# so it is the smallest power of two that still holds sample's default 1000
# rows and the sweep's 200 in one chunk: those outputs never fork a helper.
CSV_CHUNK_ROWS = 1024
# At most this many forked helpers format CSV chunks.  On a 2-vCPU VM, a helper
# took 7-8 ms to format a trajectory chunk, and the parent about 3 ms to compute
# one, pack it and write a result back (a ratio of 2.5): a fourth helper would
# wait on the parent.
CSV_HELPERS_MAX = 3


def _write_text(args: argparse.Namespace, chunks) -> None:
    """Write the text chunks to --output (plus its sidecar) or to stdout.

    chunks is a list, or a generator (_csv), which is closed, and so its
    helpers are ended, before the output is.
    """
    if args.output is None:
        _write_chunks(sys.stdout, chunks)
        return
    sidecar_path = Path(str(args.output) + ".meta.json")
    # An --output that cannot be opened is left as it is.
    f = args.output.open("w", encoding="utf-8", newline="\n")
    try:
        with f:
            _write_chunks(f, chunks)
        import platform

        # Every setting the run took, and the interpreter, so that the run can
        # be replayed from it on the same one.
        config = {k: v for k, v in vars(args).items()
                  if k in SETTINGS[args.command] and v is not None}
        sidecar = {"command": args.command, "config": config, "python": platform.python_version(),
                   "tool": f"lemnichor {__version__}"}
        sidecar_path.write_text(_json_text(sidecar), encoding="utf-8")
    except BaseException:
        # The chunks can be computed as they are written (integrate), so a run
        # can fail half-way, and the sidecar can fail after the data: leave
        # neither a data file without its sidecar nor a sidecar of an earlier
        # run.  A device or FIFO given as --output is not a file to remove.
        for path in (args.output, sidecar_path):
            if path.is_file():
                path.unlink()
        raise


def _write_chunks(stream, chunks) -> None:
    try:
        stream.writelines(chunks)
    finally:
        # A generator that a failed write leaves half-way still holds its helpers.
        if hasattr(chunks, "close"):
            chunks.close()


def _csv_text(fmt: str, values) -> str:
    """The CSV lines of the rows held flat in values, each row in the format fmt.

    One % over the whole chunk: the bytes of fmt % row for each row, joined
    and ended by LF.
    """
    n_rows = len(values) // fmt.count("%")
    return ("\n".join([fmt] * n_rows) + "\n") % tuple(values)


def _take(rows) -> array:
    """The values of the next CSV_CHUNK_ROWS rows, flat; empty when rows are done."""
    values = array("d")
    values.fromlist(list(chain.from_iterable(islice(rows, CSV_CHUNK_ROWS))))
    return values


def _csv(rows, header):
    """The CSV text of an iterable of rows, in chunks of CSV_CHUNK_ROWS rows, in order.

    The header goes out with the first chunk, so a run that fails within its
    first CSV_CHUNK_ROWS rows writes nothing.  That chunk is formatted here;
    the later ones go round-robin to the helpers of _start_helpers, which
    format them while rows computes the next, and their text is yielded in
    chunk order.  When rows raises, the chunks before the failing one are
    still yielded.  Every helper is reaped when the generator ends, fails or
    is closed; a helper that ends early is an OSError.
    """
    fmt = ",".join(["%.17g"] * len(header))
    rows = iter(rows)
    values = _take(rows)
    yield ",".join(header) + "\n" + (_csv_text(fmt, values) if values else "")
    values = _take(rows)
    helpers = _start_helpers(fmt) if values else []
    try:
        pending = deque()  # the readers of the helpers whose text is next, in chunk order
        sent = 0
        while values:
            if not helpers:
                yield _csv_text(fmt, values)
            else:
                _, to_helper, reader = helpers[sent % len(helpers)]
                sent += 1
                _send(to_helper, values)
                pending.append(reader)
                # Hold no payload while a result comes in: that keeps the
                # peak memory to the first chunk's.
                values = None
                if len(pending) == len(helpers):
                    yield _chunk_text(pending.popleft())
            try:
                values = _take(rows)
            except Exception:
                while pending:
                    yield _chunk_text(pending.popleft())
                raise
        while pending:
            yield _chunk_text(pending.popleft())
    finally:
        _stop_helpers(helpers)


def _start_helpers(fmt: str) -> list[tuple[int, int, object]]:
    """Fork the CSV helpers, (pid, fd to it, reader from it) each: one per CPU
    this process may run on, at most CSV_HELPERS_MAX.

    None with one CPU or without os.fork and os.sched_getaffinity (macOS has
    no sched_getaffinity), and fewer if a pipe or a fork fails; the caller
    then formats in process.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return []
    cpus = len(os.sched_getaffinity(0))
    helpers = []
    for _ in range(min(cpus, CSV_HELPERS_MAX) if cpus > 1 else 0):
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            break
        inbox, to_helper, from_helper, outbox = fds
        if pid == 0:
            # The helper leaves only by _exit, so no buffer it inherits
            # (stdout, --output) is ever flushed.  It keeps no pipe end of the
            # parent's, so each inbox ends when the parent closes it.
            code = 1
            try:
                os.close(to_helper)
                os.close(from_helper)
                for _, fd, reader in helpers:
                    os.close(fd)
                    reader.close()
                _csv_helper(fmt, inbox, outbox)
                code = 0
            finally:
                os._exit(code)
        os.close(inbox)
        os.close(outbox)
        helpers.append((pid, to_helper, open(from_helper, "rb")))
    return helpers


def _csv_helper(fmt: str, inbox: int, outbox: int) -> None:
    """Send the text of each chunk of raw doubles read from inbox to outbox,
    until inbox ends.  Runs in a forked helper, on what the parent imported."""
    reader = open(inbox, "rb")
    while data := _receive(reader):
        _send(outbox, _csv_text(fmt, memoryview(data).cast("d")).encode("ascii"))


def _send(fd: int, data) -> None:
    """One message down a pipe: the size of data in 8 bytes, then its bytes."""
    view = memoryview(data).cast("B")
    for part in (len(view).to_bytes(8, "little"), view):
        while part:
            part = part[os.write(fd, part):]


def _receive(reader) -> bytes:
    """The next message _send wrote to reader's pipe; b"" if the pipe ended first."""
    head = reader.read(8)
    size = int.from_bytes(head, "little")
    data = reader.read(size) if len(head) == 8 else b""
    return data if len(data) == size else b""


def _chunk_text(reader) -> str:
    data = _receive(reader)
    if not data:
        raise OSError("a CSV formatting helper ended before sending its chunk")
    return data.decode("ascii")


def _stop_helpers(helpers) -> None:
    """End and reap the helpers: each sees its inbox end, or its outbox break."""
    for _, to_helper, reader in helpers:
        os.close(to_helper)
        reader.close()
    for pid, _, _ in helpers:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # reaped by the system: this process ignores SIGCHLD


def _fold_max(worst: float, r: float) -> float:
    """max(worst, r), except that a NaN on either side is kept."""
    return r if r > worst or math.isnan(r) else worst


def _gate(name: str, residual: float) -> CheckResult:
    """The row of a residual held to DEFAULT_TOLERANCES[name]."""
    return CheckResult(name, 0.0, residual, residual, DEFAULT_TOLERANCES[name])


_json_str = json.encoder.encode_basestring_ascii


def _json_value(obj, newline: str) -> str:
    # newline is "\n" and the indent of the line obj starts on.
    kind = type(obj)
    if kind is float:
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json_value(v, inner) for v in obj]) + newline + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [_json_str(k) + ": " + _json_value(v, inner) for k, v in sorted(obj.items())]
        ) + newline + "}"
    if kind is str:
        return _json_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_text(obj) -> str:
    """The bytes of json.dumps(obj, indent=2, sort_keys=True) and a newline,
    with each NaN or infinite float written as null and each tuple as a list.

    Each value is exactly a dict with str keys, list, tuple, str, int, float,
    bool or None.  One pass, in place of the stdlib's pure-Python encoder,
    which json.dumps falls back to whenever indent is set.
    """
    return _json_value(obj, "\n") + "\n"


def _cplx(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def cmd_sample(args: argparse.Namespace) -> int:
    ctx = choreography_context()
    period = ctx.period

    def rows():
        for j in range(args.n_samples):
            t = j * period / args.n_samples
            x, y, vx, vy, _, _ = coords(t, ctx)
            yield t, x, y, vx, vy

    # As in integrate, each row is written as it is computed.
    _write_text(args, _csv(rows(), SAMPLE_FIELDS))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import invariants

    ctx = choreography_context()
    period = ctx.period
    worst: dict[str, float] = {}
    for j in range(args.n_samples):
        t = j * period / args.n_samples
        rep = invariants.full_report(t, ctx)
        eom = [("eom_residual", dynamics.eom_residual(t, v, ctx)) for v in dynamics.PotentialVariant]
        for name, r in [*rep.residuals.items(), *eom]:
            worst[name] = _fold_max(worst.get(name, 0.0), r)
    rows = [_gate(k, r) for k, r in worst.items()]
    ok = all(r.passed for r in rows)
    report = {
        "n_samples": args.n_samples,
        "max_residuals": {r.name: r.residual for r in rows},
        "tolerances": {r.name: r.tolerance for r in rows},
        "failures": {r.name: r.residual for r in rows if not r.passed},
        "passed": ok,
    }
    _write_text(args, [_json_text(report)])
    return 0 if ok else 1


def _finite_number(v) -> bool:
    # A JSON number (not a bool) that converts to a finite float; False for NaN.
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _load_init(path: Path) -> list[list[tuple[float, float]]]:
    """[positions, velocities] of a JSON init file, three (x, y) pairs of floats each.

    Each key must hold exactly three [x, y] pairs of finite numbers; anything
    else raises ValueError before the run starts.
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except RecursionError:
        # A RuntimeError, which would escape main() as a crash, not exit 2.
        raise ValueError(f"init file {path}: JSON nested too deeply") from None
    out = []
    for key in ("positions", "velocities"):
        pairs = data.get(key) if isinstance(data, dict) else None
        if not (isinstance(pairs, list) and len(pairs) == 3 and all(
                isinstance(p, list) and len(p) == 2 and all(map(_finite_number, p))
                for p in pairs)):
            raise ValueError(f"init file {path}: {key!r} must be 3 [x, y] pairs of finite numbers")
        out.append([(float(x), float(y)) for x, y in pairs])
    return out


def cmd_integrate(args: argparse.Namespace) -> int:
    ctx = choreography_context()
    if args.init == "analytic":
        start = triple(0.0, ctx)
        positions, velocities = start.positions, start.velocities
    else:
        positions, velocities = _load_init(Path(args.init))
    # Each row is written as the Verlet loop reaches it; only the last is kept.
    drift, last = dynamics.integrate(
        positions, velocities, dynamics.PotentialVariant(args.variant), args.dt, args.steps,
        consume=lambda rows: _write_text(args, _csv(rows, dynamics.ROW_FIELDS)),
    )

    summary = {"final_time": args.steps * args.dt, "energy_drift": drift}
    if args.init == "analytic":
        # Only the analytic start has a reference orbit to compare against.
        # Body k's x and y are the columns x{k}, y{k} (1, 2; 5, 6; 9, 10) of the row.
        ref = triple(summary["final_time"], ctx)
        summary["position_error_vs_analytic"] = max(
            math.hypot(last[i] - x, last[i + 1] - y) for i, (x, y) in zip((1, 5, 9), ref.positions)
        )
    sys.stderr.write(_json_text(summary))
    return 0


def cmd_geometry(args: argparse.Namespace) -> int:
    from . import geometry

    ctx = choreography_context()
    if args.from_c is not None:
        candidates = geometry.tangents_from_point(args.from_c, ctx)
        selected = geometry.select_choreographic(args.from_c, candidates)
        _write_text(args, [_json_text({
            "c": args.from_c,
            "candidates": [{"s": cand.s, "point": (cand.x, cand.y), "quadrant": cand.quadrant}
                           for cand in candidates],
            "selected_phases": [cand.s for cand in selected],
        })])
        return 0
    if args.from_point is not None:
        (x2, x3), cp = geometry.complete_triple_from_point(args.from_point, ctx)
        _write_text(args, [_json_text({"x1_phase": args.from_point, "x2": x2, "x3": x3, "c": cp.c,
                                       "lambdas": cp.lambdas})])
        return 0

    worst = 0.0

    def rows():
        # Each row is written as it is computed, and every row counts: tangent
        # lines that meet at infinity give c = (inf, inf) and a NaN.
        nonlocal worst
        for j in range(args.n_samples):
            row = geometry.sweep_row((j + 0.431) * ctx.period / args.n_samples, ctx)
            worst = _fold_max(worst, geometry.relative_hyperbola_residual(row[1:3], row[-1]))
            yield row

    _write_text(args, _csv(rows(), geometry.SWEEP_FIELDS))
    return 0 if _gate("hyperbola", worst).passed else 1


def cmd_analytic(args: argparse.Namespace) -> int:
    from . import analytic

    results = analytic.checks(choreography_context())
    report = [{**r._asdict(), "claimed": _cplx(r.claimed), "observed": _cplx(r.observed),
               "pass": r.passed} for r in results]
    _write_text(args, [_json_text(report)])
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "sample": cmd_sample,
    "verify": cmd_verify,
    "integrate": cmd_integrate,
    "geometry": cmd_geometry,
    "analytic": cmd_analytic,
}


def run(args: argparse.Namespace) -> int:
    """Execute the command of the settings main() parsed; returns the process exit code."""
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2


def _checked(convert, ok, want: str):
    """An argparse ``type=`` converter: convert(text), refused unless ok() holds."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")

    return parse


# A count enters float arithmetic (the sample times), so it must be a float too.
_count = _checked(int, lambda n: 1 <= n <= sys.float_info.max,
                  "an integer >= 1 within the float range")
# The chained comparison is also False for NaN.
_positive = _checked(float, lambda x: 0.0 < x < math.inf, "a finite number > 0")
_finite = _checked(float, math.isfinite, "a finite number")
_point = _checked(lambda text: tuple(map(float, text.split(","))),
                  lambda c: len(c) == 2 and all(map(math.isfinite, c)), "CX,CY, two finite numbers")


def _on_hyperbola(c: tuple[float, float]) -> bool:
    # Off the curve the phases would not be 4K/3 apart.  Only a --from-c
    # imports geometry while parsing.
    from . import geometry

    h = geometry.hyperbola_residual(c)
    return _gate("hyperbola", geometry.relative_hyperbola_residual(c, h)).passed


_from_c = _checked(_point, _on_hyperbola, "a point on the hyperbola cx^2 - cy^2 = 1")


# argparse keeps no state of a parse on the parser, and reads the terminal
# width when it prints, so one parser serves every main() call; nothing may
# change it once built.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lemnichor",
        description="Sample, verify and explore the exact three-body "
        "choreography on the Bernoulli lemniscate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flag of each setting, by its dest.
    flags = {
        "n_samples": dict(type=_count),
        "variant": dict(choices=("U", "V")),
        "dt": dict(type=_positive, help=f"step (default: period / {SETTINGS['integrate']['steps']})"),
        "steps": dict(type=_count),
        "init": dict(help="'analytic' or a JSON file with positions/velocities"),
        "from_c": dict(type=_from_c, metavar="CX,CY", help="construct the triple from a hyperbola point"),
        "from_point": dict(type=_finite, metavar="S", help="construct the triple from one orbit phase"),
    }
    summaries = {
        "sample": "sample the analytic orbit over one period",
        "verify": "run the conservation-law suite",
        "integrate": "velocity-Verlet integration",
        "geometry": "tangent-line geometry sweep or constructions",
        "analytic": "run the complex-analytic check suite",
    }
    for name, settings in SETTINGS.items():
        # A flag left out is absent from the namespace; _settings fills it in.
        p = sub.add_parser(name, help=summaries[name], argument_default=argparse.SUPPRESS)
        p.add_argument("--output", type=Path, default=None, help="write data here (default: stdout)")
        # geometry's settings are its one input: a construction builds one
        # triple from one point, with no sample count.
        holder = p.add_mutually_exclusive_group() if name == "geometry" else p
        for dest in settings:
            holder.add_argument("--" + dest.replace("_", "-"), **flags[dest])
    return parser


def _settings(args: argparse.Namespace) -> argparse.Namespace:
    """The flags given over the defaults of the command's SETTINGS."""
    given = vars(args)
    defaults = SETTINGS[args.command]
    if given.keys() & {"from_c", "from_point"}:
        defaults = {**defaults, "n_samples": None}  # a construction takes no sample count
    args = argparse.Namespace(**{**defaults, **given})
    if "dt" in defaults and args.dt is None:
        args.dt = choreography_context().period / defaults["steps"]
    return args


def main(argv: list[str] | None = None) -> int:
    return run(_settings(_build_parser().parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
