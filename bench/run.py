#!/usr/bin/env python3
"""lemnichor benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root (standard library only, nothing to build):

    python3 bench/run.py                       # every workload, untraced then traced
    python3 bench/run.py --workload certify --seed 3 --seconds 25 --trace 0

One invocation with ``--workload NAME``:

1. generates the workload's inputs from ``--seed`` (bench/workloads.py);
2. spawns SETUP_PROBES (11) fresh interpreters that only import lemnichor and build
   the choreography context, and times each from spawn to ready (``setup_s``
   is the median, together with the workload process's own set-up);
3. spawns one single-threaded workload process (bench/worker.py) that repeats
   the workload's fixed operation list, in whole rounds, for about
   ``--seconds``, checking every operation's output;
4. scales every time by the reference kernel (bench/reference.py) timed in the
   same process next to it, so that the host's changing speed cancels out;
   the unscaled figures are kept in the run record;
5. prints every metric by name and unit, writes a run record to
   ``bench/.out/`` and prints, as its last line, one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, from untraced rounds.
With ``--trace 1`` they are the per-layer ones, from rounds that alternate
untraced and traced (bench/tracing.py); ``trace.overhead_frac`` is the gap
between the two.

An operation fails when it raises, exits non-zero or fails its output check;
``failed`` counts all of these and ``fail_frac`` is failed / attempted.
``correct`` is false when any failure is a wrong answer: a failed check, a
raised exception, or a non-zero exit anywhere but a ``construct`` refusal.
Only ``construct`` may refuse, by a CLI exit of 1 or 2 (the README's
``--from-c=1.37,0.94`` exits 1); such a refusal is a failure, not a wrong
answer.

Seeds: any integer.  Develop and tune with small seeds; seed 9973 is held out
and should be used only for the final measurement behind a speed claim.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
WORK = BENCH / ".work"
OUT = BENCH / ".out"

HELD_OUT_SEED = 9973
SETUP_PROBES = 11
# BENCHMARK.json's run_seconds: the length of run the bounds were set with.
RUN_SECONDS = 25
# op_p95_ms is printed in the report only from this many latency samples on,
# so that at least ten lie beyond it; the result line always carries it.
P95_MIN_SAMPLES = 200
# Whole-run limit: the worker is killed past it and the run reports no result.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "elliptic.real_calls_per_op": "calls/op",
    "elliptic.complex_calls_per_op": "calls/op",
    "elliptic.pole_refusals": "count",
    "elliptic.self_s": "s",
    "orbit.self_s": "s",
    "invariants.self_s": "s",
    "dynamics.eom_self_s": "s",
    "dynamics.integrate_s": "s",
    "dynamics.steps_per_s": "steps/s",
    "geometry.searches_per_op": "searches/op",
    "geometry.gap_evals_per_search": "evals/search",
    "geometry.candidates_per_search": "cands/search",
    "geometry.self_s": "s",
    "analytic.census_s": "s",
    "analytic.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "ratio",
}

# Per-call times of the ROADMAP re-anchor table (2 vCPU, Python 3.10, +-20%).
# The integrate entry is per Verlet step with recording (2.4 s / 65 536).
ROADMAP_PER_CALL_S = {
    "elliptic.sn_cn_dn": 2.2e-6,
    "elliptic.sn_cn_dn_complex": 7.7e-6,
    "orbit.triple": 33e-6,
    "invariants.full_report": 79e-6,
    "dynamics.eom_residual": 43e-6,
    "dynamics.integrate": 2.4 / 65536,
    "geometry.tangents_from_point": 11.5e-3,
    "analytic.pole_census": 0.16,
}
ROADMAP_BAND = 0.20


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(cmd: list[str], timeout: float) -> str:
    # subprocess.run kills and reaps the child if the timeout expires.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT, env=env)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _setup_probe() -> tuple[float, float]:
    # (seconds from spawn to ready, reference kernel time measured right after)
    start = time.monotonic()
    ready, ref = map(float, _child([sys.executable, str(WORKER), "--probe"], 60.0).split())
    return ready - start, ref


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload in child processes and return its run record."""
    t0 = time.monotonic()
    if not (SRC / "lemnichor" / "__init__.py").is_file():
        raise BenchError(f"no lemnichor sources under {SRC}")
    workdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        inputs = workloads.make_inputs(workload, seed, smoke)
        (workdir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
        spec = {
            "workload": workload, "seconds": seconds, "trace": trace,
            "workdir": str(workdir), "inputs": str(workdir / "inputs.json"),
            "result": str(workdir / "result.json"), "spans": str(OUT / f"{tag}-spans.json"),
        }
        (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        setup = [_setup_probe() for _ in range(1 if smoke else SETUP_PROBES)]
        spawned = time.monotonic()
        _child([sys.executable, str(WORKER), str(workdir / "spec.json")],
               max(10.0, RUN_LIMIT_S - (spawned - t0)))
        res = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if Path(res["lemnichor_file"]).resolve().parent != (SRC / "lemnichor").resolve():
        raise BenchError(f"worker imported lemnichor from {res['lemnichor_file']}")
    setup.append((res["ready_monotonic"] - spawned, res["ready_ref_s"]))
    setup_raw = statistics.median(raw for raw, _ in setup)
    setup_scaled = statistics.median(raw * reference.NOMINAL_S / ref for raw, ref in setup)

    failed = res["refused"] + res["wrong"]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "smoke": smoke,
        "machine": machine(),
        "rounds": res["rounds"],
        "attempted": res["attempted"],
        "failed": failed,
        "refused": res["refused"],
        "wrong": res["wrong"],
        "fail_frac": failed / res["attempted"],
        "failures": res["failures"],
        "outputs_sha256": res["outputs_sha256"],
        "outputs_stable": res["outputs_stable"],
        "setup_samples": [{"raw_s": raw, "ref_s": ref} for raw, ref in setup],
        "ref_s": res["ref_s"],
        "ref_nominal_s": reference.NOMINAL_S,
    }
    if trace:
        record["metrics"] = {k: res["per_layer"][k] for k in PER_LAYER}
        record["per_call"] = res["per_call"]
        record["roadmap_comparison"] = roadmap_comparison(res["per_call"], record["metrics"])
        record["spans_file"] = str(Path(spec["spans"]).relative_to(ROOT))
    else:
        e2e, raw = res["end_to_end"], res["raw_end_to_end"]
        record["n_latency_samples"] = e2e["n_ops"]
        record["raw_metrics"] = {
            "setup_s": setup_raw,
            **{k: raw[k] for k in ("wall_s", "ops_per_s", "op_p50_ms", "op_p95_ms")},
        }
        record["metrics"] = {
            "setup_s": setup_scaled,
            "wall_s": e2e["wall_s"],
            "ops_per_s": e2e["ops_per_s"],
            "op_p50_ms": e2e["op_p50_ms"],
            "op_p95_ms": e2e["op_p95_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def roadmap_comparison(per_call: dict, per_layer: dict) -> list[dict]:
    """Traced mean time per call against the ROADMAP re-anchor table."""
    rows = []
    for name, ref in ROADMAP_PER_CALL_S.items():
        if name not in per_call:
            continue
        mean = per_call[name]["mean_s"]
        if name == "dynamics.integrate":
            mean = 1.0 / per_layer["dynamics.steps_per_s"]
        ratio = mean / ref
        rows.append({"name": name, "traced_s": mean, "roadmap_s": ref, "ratio": ratio,
                     "outside_band": abs(ratio - 1.0) > ROADMAP_BAND})
    return rows


def machine() -> dict:
    """Where and on what code the run happened."""
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(SRC),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return _child(["git", "rev-parse", "HEAD"], 10.0).strip() or None
    except (BenchError, OSError):
        return None


def _tree_sha256(root: Path) -> str:
    # Content digest of the program's sources; identifies the code where git cannot.
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def result_line(record: dict) -> str:
    units = PER_LAYER if record["trace"] else END_TO_END
    return json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k], "unit": units[k]} for k in units},
    })


def report(record: dict) -> str:
    units = PER_LAYER if record["trace"] else END_TO_END
    m = record["machine"]
    lines = [
        f"workload={record['workload']} seed={record['seed']} trace={int(record['trace'])} "
        f"rounds={record['rounds']} attempted={record['attempted']} failed={record['failed']} "
        f"wrong={record['wrong']} fail_frac={record['fail_frac']:.6g}",
        f"  python {m['python']}, nproc {m['nproc']}, {m['cpu_model']}, "
        f"git {m['git_sha']}, src sha256 {m['src_sha256'][:16]}",
    ]
    for name, digest in sorted(record["outputs_sha256"].items()):
        lines.append(f"  output {name} sha256 {digest}")
    for failure in record["failures"][:3]:
        lines.append(f"  failed: {failure}")
    for name, unit in units.items():
        if name == "op_p95_ms" and record["n_latency_samples"] < P95_MIN_SAMPLES:
            lines.append(f"  {name:34s} not reported: {record['n_latency_samples']} operations "
                         f"< {P95_MIN_SAMPLES}")
            continue
        lines.append(f"  {name:34s} {record['metrics'][name]:.6g} {unit}")
    for row in record.get("roadmap_comparison", []):
        flag = "  outside +-20%" if row["outside_band"] else ""
        lines.append(f"  roadmap {row['name']:28s} traced {row['traced_s']:.3g} s/call, "
                     f"table {row['roadmap_s']:.3g} s, ratio {row['ratio']:.2f}{flag}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1,
                        help=f"input seed; {HELD_OUT_SEED} is held out for final claims")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
            print(report(record))
            print(result_line(record), flush=True)
            return 0
        results = {}
        for workload in workloads.WORKLOADS:
            for trace in (False, True):
                record = run_workload(workload, args.seed, args.seconds, trace, args.smoke)
                print(report(record), flush=True)
                results[f"{workload}/trace{int(trace)}"] = json.loads(result_line(record))
        print(json.dumps(results), flush=True)
        return 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
