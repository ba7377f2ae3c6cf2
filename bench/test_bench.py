"""Tests of the benchmark itself: inputs, metric names, result contract, smoke runs."""

import hashlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    assert workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)
    # Inputs are plain data: they survive a JSON round trip unchanged.
    inputs = workloads.make_inputs(workload, 7)
    assert json.loads(json.dumps(inputs)) == inputs


def test_construct_keeps_the_readme_examples():
    argvs = [op["argv"] for op in workloads.make_inputs("construct", 3)["ops"]]
    assert ["geometry", "--from-c=1.37,0.94"] in argvs
    assert ["geometry", "--from-point", "0.55"] in argvs


def test_metric_names_and_units():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name) and len(name) <= 64, name
            assert UNIT.fullmatch(unit), unit
    assert not set(run.END_TO_END) & set(run.PER_LAYER)


def test_benchmark_json_matches_the_benchmark():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert spec["run_seconds"] == run.RUN_SECONDS


def test_tracer_self_time_and_counts():
    from lemnichor import analytic, cli, dynamics, elliptic, geometry, invariants, orbit

    layers = {"elliptic": elliptic, "orbit": orbit, "invariants": invariants,
              "dynamics": dynamics, "geometry": geometry, "analytic": analytic, "cli": cli}
    ctx = elliptic.choreography_context()
    before = {name: dict(vars(m)) for name, m in layers.items()}
    tracer = tracing.Tracer(layers)
    tracer.install()
    try:
        tracer.call("bench.op", invariants.full_report, 0.3, ctx)
    finally:
        tracer.uninstall()
    assert {name: dict(vars(m)) for name, m in layers.items()} == before
    assert tracer.real_evals == 9  # triple: 3, curvature: 3 x (velocity + acceleration)
    report = tracer.stat("invariants.full_report")
    assert report.calls == 1 and report.real_evals == 9
    root = tracer.stat("bench.op")
    selfs = sum(s.self_s for s in tracer.stats.values())
    assert all(s.self_s >= 0.0 for s in tracer.stats.values())
    assert math.isclose(selfs, root.total_s, rel_tol=1e-9)
    assert len(tracer.spans) == sum(s.calls for s in tracer.stats.values())


def _crash_type(*args, **kwargs):
    raise TypeError("injected crash")


def _crash_value(*args, **kwargs):
    raise ValueError("injected crash")


@pytest.mark.parametrize("workload, layer, name, crash", [
    ("certify", "invariants", "full_report", _crash_type),
    ("analytic", "analytic", "pole_census", _crash_type),
    ("trajectory", "dynamics", "integrate", _crash_value),  # the CLI exits 2
    ("construct", "geometry", "tangents_from_point", _crash_type),
])
def test_a_crashing_layer_is_a_wrong_answer(workload, layer, name, crash, monkeypatch, tmp_path):
    import worker

    monkeypatch.setattr(worker.LAYERS[layer], name, crash)
    inputs = workloads.make_inputs(workload, 5, smoke=True)
    ops = workloads.build_ops(workload, inputs, worker.LAYERS, tmp_path)[:3]
    r = worker.run_round(ops, worker.Clock())
    assert r["wrong"] >= 1
    record = {"trace": False, "wrong": r["wrong"], "attempted": len(ops),
              "failed": r["wrong"] + r["refused"], "metrics": dict.fromkeys(run.END_TO_END, 1.0)}
    assert json.loads(run.result_line(record))["correct"] is False


def test_csv_scan_matches_a_full_read(tmp_path):
    path = tmp_path / "t.csv"  # ~600 kB: several read chunks
    rows = [",".join(f"{i * k:.17g}" for k in range(11)) for i in range(3000)]
    data = ("h0,h1\n" + "\n".join(rows) + "\n").encode()
    path.write_bytes(data)
    size, digest, n_rows, first, last = workloads._scan_csv(path)
    assert (size, n_rows) == (len(data), len(rows))
    assert digest == hashlib.sha256(data).hexdigest()
    assert first == rows[0].encode().split(b",") and last == rows[-1].encode().split(b",")


def _run(args, cwd, timeout=120):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    record = json.loads((BENCH / ".out" / f"{workload}-seed5-trace{trace}.json").read_text())
    assert record["failed"] == result["failed"] and record["ref_s"] > 0.0
    if not trace:
        # The run record keeps the unscaled times next to the scaled ones.
        assert set(record["raw_metrics"]) == set(run.END_TO_END) - {"peak_rss_mb"}
    if workload == "construct":
        # The README's --from-c=1.37,0.94 is counted, not skipped.
        assert result["failed"] >= 1
    else:
        assert result["failed"] == 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = _run(["--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path, 60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
