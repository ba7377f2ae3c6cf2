"""Benchmark child process: set up lemnichor, run one workload, write its result.

    python3 bench/worker.py --probe          # set up, print the monotonic clock, exit
    python3 bench/worker.py SPEC.json        # run the workload SPEC describes

The first statements import lemnichor and build the choreography context, so
that the parent can time set-up from spawn to the clock value reported here.
Right after that the process times the reference kernel (bench/reference.py),
which scales its set-up time.

Between operations the kernel runs again, and every operation's time is
scaled by it (see Clock).
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import lemnichor  # noqa: E402

lemnichor.choreography_context()
READY = time.monotonic()

import reference  # noqa: E402

READY_REF_S = reference.sample()

if __name__ == "__main__" and sys.argv[1:] == ["--probe"]:
    print(repr(READY), repr(READY_REF_S))
    sys.exit(0)

import array  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from lemnichor import analytic, cli, dynamics, elliptic, geometry, invariants, orbit  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

LAYERS = {
    "elliptic": elliptic, "orbit": orbit, "invariants": invariants, "dynamics": dynamics,
    "geometry": geometry, "analytic": analytic, "cli": cli,
}
_perf = time.perf_counter


class Clock:
    """Reference-kernel samples taken between operations, and the scaling they give.

    After each operation the kernel runs until it has used REF_SHARE of the
    operations' time.  An operation's time is scaled by the mean kernel time
    over a window around it that reaches, on each side, as far as the
    operation is long (at least WINDOW_MIN_S): short operations are matched
    to the host's speed of the moment, long ones to its average over a span
    like their own.
    """

    REF_SHARE = 0.1
    WINDOW_MIN_S = 0.05

    def __init__(self):
        self.mid = array.array("d")  # sample midpoints, increasing
        self.cum = array.array("d", [0.0])  # running sum of sample times
        self.owed = 0.0

    def sample(self) -> None:
        start = _perf()
        took = reference.timed()
        self.mid.append(start + 0.5 * took)
        self.cum.append(self.cum[-1] + took)
        self.owed -= took

    def after_op(self, latency: float) -> None:
        self.owed += self.REF_SHARE * latency
        while self.owed > 0.0:
            self.sample()

    def ref_s(self, start: float, end: float) -> float:
        """Mean kernel time over [start, end], or of the nearest sample if none falls inside."""
        lo = bisect.bisect_left(self.mid, start)
        hi = bisect.bisect_right(self.mid, end)
        if hi == lo:
            lo = min(lo, len(self.mid) - 1)
            hi = lo + 1
        return (self.cum[hi] - self.cum[lo]) / (hi - lo)

    def scaled(self, start: float, latency: float) -> float:
        reach = max(latency, self.WINDOW_MIN_S)
        return latency * reference.NOMINAL_S / self.ref_s(start - reach, start + latency + reach)


def run_round(ops, clock: Clock, tracer=None) -> dict:
    """Run the fixed operation list once; time each operation, then check it."""
    starts, latencies = array.array("d"), array.array("d")
    statuses, failures = [], []
    written = 0
    stdout_hash, any_stdout = hashlib.sha256(), False
    outputs = {}
    for op in ops:
        start = _perf()
        try:
            out = tracer.call("bench.op", op.run) if tracer else op.run()
            raised = None
        except Exception as exc:  # refusals are CLI exits, so anything raised is a wrong answer
            raised = exc
        latency = _perf() - start
        starts.append(start)
        latencies.append(latency)
        clock.after_op(latency)
        if raised is not None:
            verdict = workloads.Verdict(workloads.WRONG, f"raised {type(raised).__name__}: {raised}")
        else:
            try:
                verdict = op.check(out)
            except Exception as exc:  # unreadable output is a wrong answer
                verdict = workloads.Verdict(workloads.WRONG, f"check raised {type(exc).__name__}: {exc}")
        statuses.append(verdict.status)
        if verdict.status != workloads.OK and len(failures) < 5:
            failures.append(" ".join(f"{op.label}: {verdict.status}: {verdict.detail}".split()))
        written += verdict.bytes_written
        stdout_hash.update(verdict.stdout)
        any_stdout = any_stdout or bool(verdict.stdout)
        outputs.update(verdict.files)
    if any_stdout:
        outputs["stdout"] = stdout_hash.hexdigest()
    return {
        "starts": starts,
        "raw_latencies": latencies,
        "raw_wall_s": sum(latencies),
        "ok": statuses.count(workloads.OK),
        "refused": statuses.count(workloads.REFUSED),
        "wrong": statuses.count(workloads.WRONG),
        "bytes_written": written,
        "outputs_sha256": outputs,
        "failures": failures,
        "traced": tracer is not None,
    }


def scale(rounds: list[dict], clock: Clock) -> None:
    """Add the scaled latencies, wall time and mean kernel time to every round."""
    for r in rounds:
        r["latencies"] = array.array("d", map(clock.scaled, r["starts"], r["raw_latencies"]))
        r["wall_s"] = sum(r["latencies"])
        r["ref_s"] = clock.ref_s(r["starts"][0], r["starts"][-1] + r["raw_latencies"][-1])


def measure(ops, seconds: float, tracer=None) -> list[dict]:
    """Repeat whole rounds while the next one is expected to end within ``seconds``.

    With a tracer, rounds alternate untraced / traced, starting untraced (so
    one-off lazy work such as the geometry scan grid lands outside the trace),
    and at least one round of each kind runs.
    """
    clock = Clock()
    clock.sample()
    rounds = []
    start = time.monotonic()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            rounds.append(run_round(ops, clock, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.monotonic() - start
        enough = tracer is None or len(rounds) >= 2
        if enough and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            scale(rounds, clock)
            return rounds


def end_to_end(rounds: list[dict], prefix: str = "") -> dict:
    """Wall time, throughput and latency percentiles over untraced rounds.

    ``prefix="raw_"`` gives the unscaled figures, kept in the run record.
    """
    lat_ms = sorted(x * 1e3 for r in rounds for x in r[prefix + "latencies"])
    wall = statistics.median(r[prefix + "wall_s"] for r in rounds)
    return {
        "wall_s": wall,
        "ops_per_s": statistics.median(r["ok"] for r in rounds) / wall,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p95_ms": _p95(lat_ms),
        "n_ops": len(lat_ms),
    }


def _p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _trace_scale(rounds: list[dict]) -> float:
    # Scaled seconds per traced second, from the reference times of the traced rounds.
    return reference.NOMINAL_S / statistics.mean(r["ref_s"] for r in rounds if r["traced"])


def per_layer(rounds: list[dict], tracer) -> dict:
    """Per-layer metrics of the traced rounds; times are scaled like end-to-end ones."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    n_ops = sum(len(r["latencies"]) for r in traced)
    per_round_s = _trace_scale(rounds) / len(traced)
    st = tracer.stat
    search = st("geometry.tangents_from_point")
    integ = st("dynamics.integrate")
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    wall_plain = statistics.median(r["wall_s"] for r in plain)
    return {
        "elliptic.real_calls_per_op": tracer.real_evals / n_ops,
        "elliptic.complex_calls_per_op": tracer.complex_evals / n_ops,
        "elliptic.pole_refusals": st("elliptic.sn_cn_dn_complex").errors / len(traced),
        "elliptic.self_s": tracer.layer_self_s("elliptic") * per_round_s,
        "orbit.self_s": tracer.layer_self_s("orbit") * per_round_s,
        "invariants.self_s": tracer.layer_self_s("invariants") * per_round_s,
        "dynamics.eom_self_s": st("dynamics.eom_residual").self_s * per_round_s,
        "dynamics.integrate_s": integ.total_s * per_round_s,
        "dynamics.steps_per_s": (tracer.steps / len(traced)) / (integ.total_s * per_round_s)
        if integ.total_s else 0.0,
        "geometry.searches_per_op": search.calls / n_ops,
        "geometry.gap_evals_per_search": search.real_evals / search.calls if search.calls else 0.0,
        "geometry.candidates_per_search": tracer.candidates / search.calls if search.calls else 0.0,
        "geometry.self_s": tracer.layer_self_s("geometry") * per_round_s,
        "analytic.census_s": st("analytic.pole_census").total_s * per_round_s,
        "analytic.self_s": tracer.layer_self_s("analytic") * per_round_s,
        "cli.self_s": tracer.layer_self_s("cli") * per_round_s,
        "cli.bytes_written": statistics.median(r["bytes_written"] for r in traced),
        # Both walls are scaled, so the host's speed cancels out of the gap.
        "trace.overhead_frac": wall_traced / wall_plain - 1.0,
    }


def per_call(tracer, rounds: list[dict]) -> dict:
    """Mean scaled inclusive time and elliptic evaluations per call, for every traced name."""
    scale = _trace_scale(rounds)
    return {
        name: {"calls": s.calls, "errors": s.errors, "mean_s": s.total_s * scale / s.calls,
               "self_s": s.self_s * scale, "real_evals_per_call": s.real_evals / s.calls,
               "complex_evals_per_call": s.complex_evals / s.calls}
        for name, s in sorted(tracer.stats.items())
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workdir = Path(spec["workdir"])
    inputs = json.loads(Path(spec["inputs"]).read_text(encoding="utf-8"))
    ops = workloads.build_ops(spec["workload"], inputs, LAYERS, workdir)
    tracer = tracing.Tracer(LAYERS) if spec["trace"] else None
    rounds = measure(ops, spec["seconds"], tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [r for r in rounds if not r["traced"]]
    result = {
        "ready_monotonic": READY,
        "ready_ref_s": READY_REF_S,
        "ref_s": statistics.mean(r["ref_s"] for r in rounds),
        "lemnichor_file": lemnichor.__file__,
        "rounds": len(rounds),
        "attempted": sum(len(r["latencies"]) for r in rounds),
        "refused": sum(r["refused"] for r in rounds),
        "wrong": sum(r["wrong"] for r in rounds),
        "failures": list(dict.fromkeys(f for r in rounds for f in r["failures"]))[:10],
        "outputs_sha256": rounds[0]["outputs_sha256"],
        "outputs_stable": all(r["outputs_sha256"] == rounds[0]["outputs_sha256"] for r in rounds),
        "peak_rss_mb": peak_rss_mb,
        "end_to_end": end_to_end(plain),
        "raw_end_to_end": end_to_end(plain, "raw_"),
    }
    if tracer is not None:
        result["per_layer"] = per_layer(rounds, tracer)
        result["per_call"] = per_call(tracer, rounds)
        Path(spec["spans"]).write_text(json.dumps({
            "fields": ["id", "parent", "name", "start", "end"],
            "dropped": tracer.spans_dropped,
            "spans": tracer.spans,
        }), encoding="utf-8")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
