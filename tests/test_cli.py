import errno
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import shlex
import signal
import stat
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter, deque
from itertools import groupby
from pathlib import Path

import pytest

from lemnichor import analytic, cli, dynamics, geometry, invariants
from lemnichor.cli import main
from lemnichor.elliptic import CHOREO_M, choreography_context, make_context
from lemnichor.orbit import coords, triple

from conftest import position


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The stderr of each kind of construction refusal, byte for byte (exit 2, no
# stdout): c at a hyperbola vertex, c off the hyperbola, a body at the origin
# (on both axes), a tangent line parallel to an asymptote, and
# c = (cosh 20, sinh 20), so far out that the search finds three contact points.
CONSTRUCTION_REFUSALS = {
    "--from-c=1,0": "invalid input: point (1.0, 0.0) lies within 1e-08 of an axis\n",
    "--from-c=1.37,0.94": (
        "usage: lemnichor [-h] {sample,verify,integrate,geometry,analytic} ...\n"
        "lemnichor: error: --from-c is off the hyperbola cx^2 - cy^2 = 1, got 1.37,0.94\n"),
    "--from-point=0": "invalid input: point (0.0, 0.0) lies within 1e-08 of an axis\n",
    "--from-point=1.845375430245845":
        "invalid input: tangent line is parallel to an asymptote of the hyperbola\n",
    "--from-c=242582597.70489514,242582597.70489514": "invalid input: need exactly 4 candidates, got 3\n",
}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text):
    """json.loads that, like RFC 8259, rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def set_cpus(monkeypatch, n):
    """Let the CLI see n CPUs: one takes the in-process CSV path, two fork helpers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def near_miss_context(monkeypatch, rel):
    """Run the CLI at the modulus m (1 + rel) instead of the choreographic m."""
    monkeypatch.setattr(cli, "choreography_context",
                        lambda: make_context(CHOREO_M * (1.0 + rel)))


class TestSample:
    def test_twelve_rows_match_labelled_points(self, ctx, capsys):
        code, out, _ = run_cli(["sample", "--n-samples", "12"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "x", "y", "vx", "vy"]
        assert len(rows) == 12
        third = ctx.K / 3.0
        for j, row in enumerate(rows):
            assert row[0] == pytest.approx(j * third, abs=1e-12)
            p = position(j * third, ctx)
            assert row[1] == pytest.approx(p.x, abs=1e-15)
            assert row[2] == pytest.approx(p.y, abs=1e-15)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["sample", "--n-samples", "3", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data) == 3
        assert set(data[0]) == {"t", "x", "y", "vx", "vy"}

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sample", "--n-samples", "100", "--output", str(a)]) == 0
        assert main(["sample", "--n-samples", "100", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").exists()

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_bytes_do_not_depend_on_the_helpers(self, cpus, ctx, monkeypatch, capsys):
        # 5000 rows: one chunk in process, then two chunks, the last one partial.
        # Eight CPUs start CSV_HELPERS_MAX helpers, more than some machines have cores.
        n = 5000
        fmt = ",".join(["%.17g"] * 5)
        rows = []
        for j in range(n):
            t = j * ctx.period / n
            rows.append(fmt % (t, *coords(t, ctx)[:4]))
        expected = "\n".join(["t,x,y,vx,vy", *rows]) + "\n"
        set_cpus(monkeypatch, cpus)
        assert run_cli(["sample", "--n-samples", str(n)], capsys) == (0, expected, "")
        assert_no_child_process()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_peak_memory_is_independent_of_n_samples(self, cpus, tmp_path, monkeypatch, capsys):
        # The CSV rows stream into chunks as they are computed; only the JSON
        # format keeps them all.
        set_cpus(monkeypatch, cpus)

        def peak(n):
            out = tmp_path / "sample.csv"
            tracemalloc.start()
            try:
                assert main(["sample", "--n-samples", str(n), "--output", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(16)  # lazy set-up outside the measurement
        growth = peak(16384) - peak(2048)
        assert growth <= 64 * 1024


class TestVerify:
    def test_passes_at_default_tolerances(self, capsys):
        code, out, _ = run_cli(["verify", "--n-samples", "64"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["failures"] == {}
        assert report["max_residuals"]["moment_of_inertia"] < 1e-10

    def test_fails_when_scaled_down(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--n-samples", "16", "--tolerance-scale", "1e-9"], capsys
        )
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["failures"]

    @pytest.mark.parametrize("rel", [1e-8, -1e-8])
    def test_near_miss_modulus_fails_every_gate(self, rel, monkeypatch, capsys):
        # A modulus 1e-8 off the choreographic one fails all eight gates
        # (measured 36x the tolerance for the EOM up to 1230x for the
        # product of distances); no tolerance is loosened to get there.
        near_miss_context(monkeypatch, rel)
        code, out, _ = run_cli(["verify", "--n-samples", "200"], capsys)
        assert code == 1
        report = strict_json(out)
        assert len(report["failures"]) == 8
        assert set(report["failures"]) == set(report["max_residuals"])

    def test_exact_model_keeps_headroom(self, capsys):
        # The exact model sits at <= 1e-3 of every tolerance (measured ~5e-5).
        code, out, _ = run_cli(["verify", "--n-samples", "200"], capsys)
        assert code == 0
        report = strict_json(out)
        for name, r in report["max_residuals"].items():
            assert r <= 1e-3 * report["tolerances"][name], name

    def test_nan_eom_residual_fails(self, monkeypatch, capsys):
        # The NaN comes first, so a fold that drops it would end on a finite max.
        real = dynamics.eom_residual
        calls = []

        def stub(t, variant, ctx):
            calls.append(t)
            return math.nan if len(calls) == 1 else real(t, variant, ctx)

        monkeypatch.setattr(dynamics, "eom_residual", stub)
        code, out, _ = run_cli(["verify", "--n-samples", "4"], capsys)
        assert code == 1
        # A NaN is written as null, and the failing gate still lists it.
        report = strict_json(out)
        assert report["passed"] is False
        assert report["failures"]["eom_residual"] is None
        assert list(report["failures"]) == ["eom_residual"]

    def test_nan_invariant_residual_fails(self, monkeypatch, capsys):
        real = invariants.full_report
        calls = []

        def stub(t, ctx):
            rep = real(t, ctx)
            calls.append(t)
            if len(calls) == 2:
                rep.residuals["kinetic_energy"] = math.nan
            return rep

        monkeypatch.setattr(invariants, "full_report", stub)
        code, out, _ = run_cli(["verify", "--n-samples", "4"], capsys)
        assert code == 1
        report = strict_json(out)
        assert report["passed"] is False
        assert list(report["failures"]) == ["kinetic_energy"]
        assert report["max_residuals"]["kinetic_energy"] is None


def _old_trajectory_csv(rows) -> bytes:
    """The trajectory CSV of the collected integrate() rows, unstreamed: one
    "%.17g" row format, one join."""
    header = ["t"]
    for i in (1, 2, 3):
        header += [f"x{i}", f"y{i}", f"vx{i}", f"vy{i}"]
    header.append("energy")
    fmt = ",".join(["%.17g"] * len(header))
    return ("\n".join([",".join(header)] + [fmt % row for row in rows]) + "\n").encode()


class TestIntegrate:
    def test_csv_shape_and_energy_column(self, ctx, capsys):
        code, out, err = run_cli(
            ["integrate", "--variant", "V", "--steps", "64"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "t", "x1", "y1", "vx1", "vy1", "x2", "y2", "vx2", "vy2",
            "x3", "y3", "vx3", "vy3", "energy",
        ]
        assert len(rows) == 65
        energies = [r[-1] for r in rows]
        assert max(energies) - min(energies) < 1e-12
        summary = json.loads(err)
        assert summary["position_error_vs_analytic"] < 1e-9

    def test_init_file_round_trip(self, ctx, tmp_path, capsys):
        s = triple(0.0, ctx)
        init = {
            "positions": [[p.x, p.y] for p in s.positions],
            "velocities": [[v.x, v.y] for v in s.velocities],
        }
        path = tmp_path / "init.json"
        path.write_text(json.dumps(init))
        code, out, _ = run_cli(
            ["integrate", "--init", str(path), "--steps", "8", "--dt", "0.001"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][1] == pytest.approx(s.positions[0].x, abs=1e-15)
        assert rows[0][5] == pytest.approx(s.positions[1].x, abs=1e-15)

    @pytest.mark.parametrize("init", ["analytic", "file"])
    def test_stderr_summary(self, ctx, init, tmp_path, capsys):
        argv = ["integrate", "--steps", "8", "--dt", "0.001"]
        keys = ["energy_drift", "final_time", "position_error_vs_analytic"]
        s = triple(0.0, ctx)
        if init == "file":
            path = tmp_path / "init.json"
            path.write_text(json.dumps({
                "positions": [[p.x, p.y] for p in s.positions],
                "velocities": [[v.x, v.y] for v in s.velocities],
            }))
            argv += ["--init", str(path)]
            keys.remove("position_error_vs_analytic")  # no reference orbit
        code, _, err = run_cli(argv, capsys)
        assert code == 0
        summary = json.loads(err)
        assert sorted(summary) == keys
        assert summary["final_time"] == 8 * 0.001
        drift, _ = dynamics.integrate(s.positions, s.velocities, dynamics.PotentialVariant.U_CENTRAL,
                                      0.001, 8, consume=deque(maxlen=0).extend)
        assert summary["energy_drift"] == drift

    @pytest.mark.parametrize("dt, steps, step", [("1e10", "40", 8), ("1e200", "3", 1), ("1e300", "3", 1)])
    def test_diverged_run_is_refused_at_its_step(self, dt, steps, step, capsys):
        # At 1e10 a squared separation overflows in the kernel; at 1e200 and
        # 1e300 the energy turns NaN without a raise.  Each is one exit 2
        # naming the step, with nothing written.
        code, out, err = run_cli(["integrate", "--dt", dt, "--steps", steps], capsys)
        assert code == 2
        assert out == ""
        assert err == f"invalid input: arithmetic overflow: the run leaves the float range at step {step}\n"

    def test_sidecar_written(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["integrate", "--steps", "4", "--output", str(out)]) == 0
        meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
        assert meta["command"] == "integrate"
        assert meta["config"]["steps"] == 4
        assert meta["config"]["init"] == "analytic"
        assert meta["python"] == platform.python_version()

    def test_sidecar_names_the_init_file(self, ctx, tmp_path):
        s = triple(0.3, ctx)
        path = tmp_path / "init.json"
        path.write_text(json.dumps({
            "positions": [[p.x, p.y] for p in s.positions],
            "velocities": [[v.x, v.y] for v in s.velocities],
        }))
        out = tmp_path / "traj.csv"
        assert main(["integrate", "--init", str(path), "--steps", "4", "--output", str(out)]) == 0
        meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
        assert meta["config"]["init"] == str(path)

    @pytest.mark.parametrize("init", ["analytic", "file"])
    @pytest.mark.parametrize("variant", ["U", "V"])
    def test_streamed_csv_is_byte_identical(self, variant, init, tmp_path, capsys, monkeypatch):
        # The same bytes whether the later chunks are formatted in process
        # (one CPU) or by forked helpers (two).
        steps = 5000
        assert (steps + 1) % cli.CSV_CHUNK_ROWS != 0  # a partial last chunk
        ctx = choreography_context()
        dt = ctx.period / 65536.0
        pv = dynamics.PotentialVariant(variant)
        argv = ["integrate", "--variant", variant, "--steps", str(steps)]
        if init == "analytic":
            s = triple(0.0, ctx)
        else:
            s = triple(0.37, ctx)
            path = tmp_path / "init.json"
            path.write_text(json.dumps({
                "positions": [[p.x, p.y] for p in s.positions],
                "velocities": [[v.x, v.y] for v in s.velocities],
            }))
            argv += ["--init", str(path)]
        rows = []
        dynamics.integrate(s.positions, s.velocities, pv, dt, steps, consume=rows.extend)
        expected = _old_trajectory_csv(rows)

        out = tmp_path / "traj.csv"
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            assert main(argv + ["--output", str(out)]) == 0
            assert out.read_bytes() == expected
            capsys.readouterr()
            assert main(argv) == 0
            assert capsys.readouterr().out.encode() == expected

    def test_peak_memory_is_independent_of_steps(self, tmp_path, capsys):
        # Rows stream from the Verlet loop into CSV chunks of CSV_CHUNK_ROWS
        # rows, so only one chunk of text is held, whatever the step count.
        assert cli.CSV_CHUNK_ROWS <= 2048  # both runs hold one full chunk

        def peak(steps):
            out = tmp_path / "traj.csv"
            tracemalloc.start()
            try:
                assert main(["integrate", "--steps", str(steps), "--output", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(16)  # lazy set-up outside the measurement
        growth = peak(65536) - peak(2048)
        capsys.readouterr()
        assert growth <= 64 * 1024

    @pytest.mark.parametrize("positions, velocities, dt", [
        ([[0.5, 0.0], [0.5, 0.0], [-1.0, 0.0]], [[0.0, 0.0]] * 3, "0.1"),
        ([[-1e-10, 0.0], [1e-10, 0.0], [1.0, 1.0]], [[0.95, 0.0], [-0.95, 0.0], [0.0, 0.0]], "1e-10"),
    ], ids=["coincident", "approaching"])
    def test_collision_writes_nothing(self, positions, velocities, dt, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"positions": positions, "velocities": velocities}))
        out = tmp_path / "traj.csv"
        code, stdout, err = run_cli(
            ["integrate", "--init", str(init), "--dt", dt, "--steps", "10", "--output", str(out)], capsys
        )
        assert code == 1
        assert json.loads(err)["passed"] is False
        assert stdout == ""
        assert list(tmp_path.iterdir()) == [init]


    @staticmethod
    def _collide_after(calls, monkeypatch):
        """Make the force kernel raise CollisionError on its calls-th call."""
        kernel = dynamics._kernel
        count = 0

        def late_collision(*args):
            nonlocal count
            count += 1
            if count == calls:
                raise dynamics.CollisionError("bodies 0 and 1 closer than 1e-10")
            return kernel(*args)

        monkeypatch.setattr(dynamics, "_kernel", late_collision)

    def test_late_collision_removes_the_streamed_output(self, tmp_path, capsys, monkeypatch):
        # A stale pair from an earlier run goes too: no sidecar is left
        # beside a missing data file.
        out = tmp_path / "traj.csv"
        out.write_text("earlier run\n")
        (tmp_path / "traj.csv.meta.json").write_text("{}\n")
        calls = 3 * cli.CSV_CHUNK_ROWS  # the kernel runs once per step, plus once at the start
        self._collide_after(calls, monkeypatch)
        code, stdout, err = run_cli(["integrate", "--steps", "10000", "--output", str(out)], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "bodies 0 and 1 closer than 1e-10", "passed": False,
                                   "step": calls - 1}
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_late_collision_on_stdout_keeps_the_rows_before_it(self, capsys, monkeypatch):
        calls = 3 * cli.CSV_CHUNK_ROWS
        self._collide_after(calls, monkeypatch)
        code, stdout, err = run_cli(["integrate", "--steps", "10000"], capsys)
        assert code == 1
        assert json.loads(err)["step"] == calls - 1
        # Whole chunks only: the rows of steps 0 .. 2 * CSV_CHUNK_ROWS - 1.
        header, rows = parse_csv(stdout)
        assert header == list(dynamics.ROW_FIELDS)
        assert len(rows) == 2 * cli.CSV_CHUNK_ROWS

    def test_late_collision_leaves_a_fifo_output_in_place(self, tmp_path, capsys, monkeypatch):
        fifo = tmp_path / "traj.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        self._collide_after(3 * cli.CSV_CHUNK_ROWS, monkeypatch)
        try:
            code, _, _ = run_cli(["integrate", "--steps", "10000", "--output", str(fifo)], capsys)
        finally:
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert code == 1
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(tmp_path.iterdir()) == [fifo]  # and no sidecar
        assert received[0].count(b"\n") == 1 + 2 * cli.CSV_CHUNK_ROWS

    @pytest.mark.parametrize("how", ["raises", "exits"])
    def test_a_helper_that_ends_early_is_an_io_error(self, how, tmp_path, capsys, monkeypatch):
        # The helpers are forked after the patch, so they run it; the parent
        # formats the first chunk as before.
        set_cpus(monkeypatch, 2)
        parent, csv_text = os.getpid(), cli._csv_text

        def failing_in_a_helper(fmt, values):
            if os.getpid() != parent:
                if how == "raises":
                    raise RuntimeError("a fault in a helper")
                os._exit(0)  # a clean exit that leaves its chunk unsent
            return csv_text(fmt, values)

        monkeypatch.setattr(cli, "_csv_text", failing_in_a_helper)
        out = tmp_path / "traj.csv"
        code, stdout, err = run_cli(["integrate", "--steps", "10000", "--output", str(out)], capsys)
        assert (code, stdout) == (3, "")
        assert err == "i/o error: a CSV formatting helper ended before sending its chunk\n"
        assert list(tmp_path.iterdir()) == []  # no --output file, no sidecar
        assert_no_child_process()

    class _FailsAfterFirstWrite(io.StringIO):
        def write(self, text):
            if self.tell():
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(text)

    @pytest.mark.parametrize("run, code", [
        ("complete", 0), ("late collision", 1), ("diverged", 2), ("unwritable", 3),
        ("failed write", 3),
    ])
    def test_no_helper_outlives_a_run(self, run, code, capsys, monkeypatch):
        set_cpus(monkeypatch, 2)
        assert_no_child_process()
        argv = ["integrate", "--steps", "10000"]
        if run == "late collision":
            self._collide_after(3 * cli.CSV_CHUNK_ROWS, monkeypatch)
        elif run == "diverged":
            argv = ["integrate", "--dt", "1e10", "--steps", "40"]
        elif run == "unwritable":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            argv += ["--output", "/dev/full"]
        elif run == "failed write":
            # stdout fails once the helpers have started, with chunks in flight.
            monkeypatch.setattr(sys, "stdout", self._FailsAfterFirstWrite())
        assert main(argv) == code
        capsys.readouterr()
        assert_no_child_process()

    def test_a_failed_write_ends_the_helpers_before_it_returns(self, monkeypatch):
        # The chunks are still referenced, so only their closing reaps the helpers.
        set_cpus(monkeypatch, 2)
        chunks = cli._csv(((float(j), 0.5, -1e300) for j in range(5000)), ("a", "b", "c"))
        with pytest.raises(OSError):
            cli._write_chunks(self._FailsAfterFirstWrite(), chunks)
        assert_no_child_process()

    def test_a_process_that_ignores_sigchld_still_writes(self, tmp_path, monkeypatch):
        # The system reaps the helpers itself, so waiting for them finds none.
        set_cpus(monkeypatch, 2)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert main(["integrate", "--steps", "5000", "--output", str(tmp_path / "traj.csv")]) == 0
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert (tmp_path / "traj.csv").read_bytes().count(b"\n") == 5002

    _GOOD = [[0.0, 0.0], [0.8, 0.2], [-0.8, -0.2]]

    @pytest.mark.parametrize("text", [
        "{}",
        '{"positions": 5, "velocities": 5}',
        '[[0.0, 0.0], [0.8, 0.2], [-0.8, -0.2]]',
        json.dumps({"positions": _GOOD}),
        json.dumps({"positions": _GOOD[:2], "velocities": _GOOD}),
        json.dumps({"positions": _GOOD, "velocities": _GOOD + [[0.0, 1.0]]}),
        json.dumps({"positions": _GOOD, "velocities": [[0.0, 0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}),
        json.dumps({"positions": _GOOD, "velocities": [[0.0], [1.0, 0.0], [0.0, 1.0]]}),
        json.dumps({"positions": [["0.0", 0.0], [0.8, 0.2], [-0.8, -0.2]], "velocities": _GOOD}),
        json.dumps({"positions": [[True, 0.0], [0.8, 0.2], [-0.8, -0.2]], "velocities": _GOOD}),
        json.dumps({"positions": [[None, 0.0], [0.8, 0.2], [-0.8, -0.2]], "velocities": _GOOD}),
        '{"positions": [[NaN, 0.0], [0.8, 0.2], [-0.8, -0.2]], "velocities": [[0, 0], [0, 0], [0, 0]]}',
        '{"positions": [[0.0, 0.0], [0.8, 0.2], [-0.8, -0.2]], "velocities": [[0, 0], [0, -Infinity], [0, 0]]}',
        '{"positions": [[0.0, 0.0], [0.8, 0.2], [-0.8, -0.2]], "velocities": [[0, 0], [0, 1e400], [0, 0]]}',
        '{"positions": [[0.0, 0.0], [0.8, 0.2], [-0.8, -0.2]], "velocities": [[0, 0], [0, 1%s], [0, 0]]}'
        % ("0" * 400),
        "{not json",
        # Deeper than the JSON decoder recurses: a RecursionError, not a failed residual.
        "[" * 100000 + "]" * 100000,
    ], ids=["empty", "numbers", "list", "no-velocities", "two-positions", "four-velocities",
            "triple-pair", "single", "string", "bool", "null", "nan", "-inf", "1e400", "huge-int",
            "syntax", "deep"])
    def test_malformed_init_file_is_a_usage_error(self, text, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text(text)
        out = tmp_path / "traj.csv"
        code, stdout, err = run_cli(
            ["integrate", "--init", str(init), "--steps", "4", "--output", str(out)], capsys
        )
        assert code == 2
        assert "invalid input" in err
        assert stdout == ""
        assert list(tmp_path.iterdir()) == [init]  # no --output file, no sidecar
        assert run_cli(["integrate", "--init", str(init), "--steps", "4"], capsys)[:2] == (2, "")

    @pytest.mark.parametrize("variant", ["U", "V"])
    def test_overflowing_init_is_a_usage_error(self, variant, tmp_path, capsys):
        # Every coordinate is finite, but the squared separations overflow.
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"positions": [[1e308, 0], [-1e308, 0], [0, 1]],
                                    "velocities": [[0, 0]] * 3}))
        out = tmp_path / "traj.csv"
        code, stdout, err = run_cli(["integrate", "--variant", variant, "--init", str(init),
                                     "--steps", "4", "--output", str(out)], capsys)
        assert code == 2
        assert err.startswith("invalid input:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert stdout == ""
        assert list(tmp_path.iterdir()) == [init]  # no --output file, no sidecar

    def test_integer_init_coordinates_accepted(self, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"positions": [[0, 0], [1, 0], [0, 1]], "velocities": [[0, 0]] * 3}))
        code, out, _ = run_cli(["integrate", "--init", str(init), "--dt", "0.001", "--steps", "2"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][1:3] == [0.0, 0.0] and rows[0][5:7] == [1.0, 0.0]


class TestGeometry:
    def test_sweep_default(self, capsys):
        code, out, _ = run_cli(["geometry", "--n-samples", "50"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:3] == ["t", "cx", "cy"]
        assert len(rows) == 50
        tol = cli.DEFAULT_TOLERANCES["hyperbola"]
        for row in rows:
            assert geometry.relative_hyperbola_residual((row[1], row[2]), row[10]) <= tol

    @staticmethod
    def _worst_hyperbola_ratio(out):
        # The sweep's gate: |cx^2 - cy^2 - 1| / max(1, |c|^2) over every row.
        _, rows = parse_csv(out)
        worst = max(geometry.relative_hyperbola_residual((row[1], row[2]), row[10])
                    for row in rows)
        return worst / cli.DEFAULT_TOLERANCES["hyperbola"]

    @pytest.mark.parametrize("rel", [1e-10, -1e-10])
    def test_near_miss_modulus_fails_the_hyperbola_gate(self, rel, monkeypatch, capsys):
        # A modulus 1e-10 off the choreographic one puts the worst relative
        # hyperbola residual at 102x its tolerance (measured, both signs); no
        # tolerance is loosened to get there.
        near_miss_context(monkeypatch, rel)
        code, out, _ = run_cli(["geometry", "--n-samples", "200"], capsys)
        assert code == 1
        assert self._worst_hyperbola_ratio(out) > 100.0

    def test_exact_model_keeps_headroom(self, capsys):
        # The exact model sits at <= 1e-3 of the tolerance (measured 4.9e-4),
        # over all 200 rows, the four with |c| >= 50 (up to 151) included.
        code, out, _ = run_cli(["geometry", "--n-samples", "200"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert max(math.hypot(row[1], row[2]) for row in rows) > 150.0
        assert self._worst_hyperbola_ratio(out) <= 1e-3

    def test_from_point(self, ctx, capsys):
        t = ctx.K / 5.0
        code, out, _ = run_cli(["geometry", "--from-point", str(t)], capsys)
        assert code == 0
        data = json.loads(out)
        s = triple(t, ctx)
        assert data["x2"][0] == pytest.approx(s.positions[1].x, abs=1e-7)
        assert data["x3"][1] == pytest.approx(s.positions[2].y, abs=1e-7)

    def test_from_c(self, ctx, capsys):
        from lemnichor.geometry import concurrency_point

        t = ctx.K / 7.0
        c = concurrency_point(triple(t, ctx)).c
        # '=' form keeps argparse from reading a negative cx as a flag
        code, out, _ = run_cli(["geometry", f"--from-c={c.x},{c.y}"], capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data["candidates"]) == 4
        assert len(data["selected_phases"]) == 3
        period = 4.0 * ctx.K
        for p in (t, t + period / 3.0, t - period / 3.0):
            assert min(abs(s - p % period) for s in data["selected_phases"]) <= 1e-7


    @pytest.mark.parametrize("u", [-10.0, -3.0, -0.5, -1e-5, -1e-6, -1e-7,
                                   1e-7, 1e-6, 1e-5, 0.5, 3.0, 10.0])
    @pytest.mark.parametrize("sx", [1.0, -1.0])
    def test_from_c_exact_point_far_out(self, u, sx, ctx, capsys):
        # Far out, rounding alone makes cx^2 - cy^2 - 1 ~1e-8; relative to
        # |c|^2 the point is on the curve.  Near the vertices (|u| <= 1e-5)
        # two contact points nearly merge, and the one scan still finds both.
        cx, cy = sx * math.cosh(u), math.sinh(u)
        code, out, _ = run_cli(["geometry", f"--from-c={cx!r},{cy!r}"], capsys)
        assert code == 0
        data = json.loads(out)
        assert len(data["candidates"]) == 4
        phases = sorted(data["selected_phases"])
        third = ctx.period / 3.0
        gaps = [phases[1] - phases[0], phases[2] - phases[1], phases[0] + ctx.period - phases[2]]
        assert all(abs(g - third) <= 1e-7 for g in gaps)

    @pytest.mark.parametrize("argv, key, value", [
        (["geometry", "--from-c=1.4142135623730951,1"], "from_c", [1.4142135623730951, 1.0]),
        (["geometry", "--from-point", "0.55"], "from_point", 0.55),
    ])
    def test_sidecar_names_the_construction(self, argv, key, value, tmp_path):
        out = tmp_path / "g.json"
        assert main(argv + ["--output", str(out)]) == 0
        config = json.loads((tmp_path / "g.json.meta.json").read_text())["config"]
        assert config[key] == value
        assert {"init", "from_c", "from_point"} <= set(config)

    def test_from_c_takes_tolerance_scale(self, tmp_path, capsys):
        # It scales the on-curve check: |cx^2 - cy^2 - 1| / |c|^2 = 3.5e-8
        # here, above the 1e-11 allowed at 1x and below the 1e-7 at 1e4x.
        argv = ["geometry", "--from-c=1.4142136,1"]
        out = tmp_path / "g.json"
        assert main(argv + ["--tolerance-scale", "1e4", "--output", str(out)]) == 0
        config = json.loads((tmp_path / "g.json.meta.json").read_text())["config"]
        assert config["tolerance_scale"] == 1e4
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    # One stubbed row among real ones fails the sweep: a NaN residual at a
    # finite c; tangent lines that meet at infinity, c = (inf, inf) with a
    # NaN residual; and c far out on a branch (|c| = 141 >= 50) at 125x the
    # relative tolerance (absolute 2.5e-5).
    @pytest.mark.parametrize("c, residual", [
        (None, math.nan),
        ((math.inf, math.inf), math.nan),
        ((100.0, 99.995), geometry.hyperbola_residual((100.0, 99.995))),
    ], ids=["nan", "parallel-pair", "far-out"])
    def test_one_failing_row_fails_the_sweep(self, c, residual, monkeypatch, capsys):
        real = geometry.sweep_row
        hit = []

        def stub(t, ctx):
            rec = real(t, ctx)
            if not hit:
                hit.append(t)
                rec = (t, *(c or rec[1:3]), *rec[3:-1], residual)
            return rec

        monkeypatch.setattr(geometry, "sweep_row", stub)
        code, out, _ = run_cli(["geometry", "--n-samples", "8"], capsys)
        assert hit
        assert code == 1
        assert len(parse_csv(out)[1]) == 8  # the table is still written


TRIPLE_ZERO_ROWS = (
    "zero order: coefficient h^1", "leading coefficient h^3", "next coefficient h^5",
    "principal part h^-3 of reciprocal", "principal part h^-1 of reciprocal",
    "oddness: coefficients h^0, h^2, h^4",
)


def analytic_group(name):
    """The check group of one `lemnichor analytic` row, by its name."""
    if re.fullmatch(r"(sn|cn|dn)\([1245]K/3\)", name):
        return "special values"
    if name == "modulus from sn(K/3)" or name.startswith("sn(10K/3) shift vs "):
        return "modulus"
    if re.fullmatch(r"residue of (x_plus|one_over_one_minus_icn) at \(.*\)", name):
        return "residues"
    if name.startswith("strip winding of x_plus, "):
        return "strips"
    if name in ("three-phase sum of x_plus", "three-phase sum of 1/(1-i cn)"):
        return "sums"
    if name in ("j product form vs derivative form", "three-phase sum of j",
                "Im(j sum) vs angular momentum"):
        return "j"
    if name in TRIPLE_ZERO_ROWS:
        return "triple zero"
    if name.startswith("complex equation of motion at t="):
        return "complex EOM"
    return None


class TestAnalytic:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(["analytic"], capsys)
        assert code == 0
        report = strict_json(out)
        assert len(report) == 47
        names = [e["name"] for e in report]
        groups = [(g, len(list(rows))) for g, rows in groupby(names, analytic_group)]
        assert groups == [("special values", 12), ("modulus", 3), ("residues", 8), ("strips", 4),
                          ("sums", 6), ("j", 6), ("triple zero", 6), ("complex EOM", 2)]
        assert all(entry["pass"] for entry in report)
        assert any(name.startswith("residue of x_plus") for name in names)
        strips = [e for e in report if e["name"].startswith("strip winding")]
        assert [e["claimed"] for e in strips] == [[-2.0, 0.0], [2.0, 0.0], [-2.0, 0.0], [2.0, 0.0]]
        assert all(e["residual"] <= 1e-9 for e in strips)

    # Each row's tolerance times the scale: the bytes and the exit code at
    # each scale are those of the checks that multiplied it in themselves.
    @pytest.mark.parametrize("scale, digest, failed", [
        ("1", "9b84e4ec7ba3fd8fbe39b5db661db51bbd883624f265bbc33c7807aa85071ded", 0),
        ("100", "5002a7d96c36826b0613c9ca93e0ef67557cd940e12af6c9c289aafffd80fd06", 0),
        ("1e-30", "914101288fce9ffe3db8b91690c9d9803701cf00d169e477b45f7587bb79459c", 44),
        ("1e-3", "300a12ae546b345ffca4c684217dda130742990dcbcfd601cc7fef0fc7913aec", 0),
    ])
    def test_tolerance_scale_reaches_every_row(self, scale, digest, failed, capsys):
        code, out, _ = run_cli(["analytic", "--tolerance-scale", scale], capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (1 if failed else 0, digest)
        report = strict_json(out)
        assert len(report) == 47
        assert sum(not e["pass"] for e in report) == failed
        # Each row reports the scaled tolerance that its pass was judged by.
        assert all(e["pass"] == (e["residual"] <= e["tolerance"]) for e in report)
        if scale == "1e-30":
            # Every tolerance is below every nonzero residual: only the three
            # special values whose residual is exactly 0.0 still pass.
            passed = [(e["name"], e["residual"]) for e in report if e["pass"]]
            assert passed == [("sn(1K/3)", 0.0), ("dn(1K/3)", 0.0), ("cn(2K/3)", 0.0)]
        if scale == "1e-3":
            # Every row keeps 10^3 headroom; the least is 2009x, on a strip winding.
            assert min(e["tolerance"] / e["residual"] for e in report if e["residual"]) > 2.0

    def test_wrong_pole_count_is_a_failed_row(self, capsys, monkeypatch):
        # line_windings takes x^+'/x^+ from (sn, cn, dn) on its line grid.
        real = analytic._x_plus_log_d1
        monkeypatch.setattr(analytic, "_x_plus_log_d1", lambda s, c, d: 0.5 * real(s, c, d))
        code, out, _ = run_cli(["analytic"], capsys)
        assert code == 1
        failed = [e["name"] for e in json.loads(out) if not e["pass"]]
        assert failed and all(name.startswith("strip winding") for name in failed)

    @pytest.mark.parametrize("rel", [1e-10, -1e-10])
    def test_near_miss_modulus_fails(self, rel, monkeypatch, capsys):
        # A modulus 1e-10 off the choreographic one fails 20 of the 47 rows
        # (measured): the twelve special values, the modulus rebuilt from
        # sn(K/3), the three-phase sums of x^+, 1/(1 - i cn) and j at the
        # real points, and the coefficient h^1 of delta x^- at its zero.  No tolerance is loosened or tightened to get there.
        near_miss_context(monkeypatch, rel)
        code, out, _ = run_cli(["analytic"], capsys)
        assert code == 1
        report = strict_json(out)
        assert len(report) == 47
        failed = Counter(analytic_group(e["name"]) for e in report if not e["pass"])
        assert failed == {"special values": 12, "modulus": 1, "sums": 4, "j": 2, "triple zero": 1}

    @pytest.mark.parametrize("rel", [1e-3, -1e-3])
    def test_only_modulus_free_identities_pass_far_off(self, rel, monkeypatch, capsys):
        # At m (1 +- 1e-3) 36 of the 47 rows fail.  The 11 that pass are
        # identities that hold at every modulus: both sn(10K/3) shift rows,
        # the four strip windings, both j product-vs-derivative rows, both
        # Im(j sum) rows, and the oddness of delta x^- around its zero.
        near_miss_context(monkeypatch, rel)
        code, out, _ = run_cli(["analytic"], capsys)
        assert code == 1
        report = strict_json(out)
        passed = [e["name"] for e in report if e["pass"]]
        assert len(report) - len(passed) == 36
        assert Counter(map(analytic_group, passed)) == {
            "modulus": 2, "strips": 4, "j": 4, "triple zero": 1}
        assert {name for name in passed if analytic_group(name) != "strips"} == {
            "sn(10K/3) shift vs duplication", "sn(10K/3) shift vs direct",
            "j product form vs derivative form", "Im(j sum) vs angular momentum",
            "oddness: coefficients h^0, h^2, h^4"}


# One function scales every tolerance and judges every gate.  At 1e-30 each
# tolerance is below each nonzero residual: all eight verify gates fail, the
# sweep fails, every analytic row fails but the three special values whose
# residual is exactly 0.0, and --from-c refuses a point 1.5e-16 off the curve.
@pytest.mark.parametrize("argv", [
    ["verify", "--n-samples", "16"],
    ["geometry", "--n-samples", "200"],
    ["analytic"],
    ["geometry", "--from-c=1.4142135623730951,1"],
], ids=["verify", "sweep", "analytic", "from-c"])
def test_tolerance_scale_reaches_every_gate(argv, capsys):
    argv = argv + ["--tolerance-scale", "1e-30"]
    if argv[1].startswith("--from-c"):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""
        return
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    if argv[0] == "verify":
        gates = sorted(k for k in cli.DEFAULT_TOLERANCES if k != "hyperbola")
        assert len(gates) == 8 and sorted(strict_json(out)["failures"]) == gates
    if argv[0] == "analytic":
        report = strict_json(out)
        assert [e["pass"] for e in report] == [e["residual"] == 0.0 for e in report]


class TestExitCodes:
    def test_usage_error_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_usage_error_bad_from_c(self):
        with pytest.raises(SystemExit) as err:
            main(["geometry", "--from-c", "1,2,3"])
        assert err.value.code == 2

    def test_usage_error_both_constructions(self, tmp_path, capsys):
        # --from-c and --from-point name two constructions; neither is ignored.
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as err:
            main(["geometry", "--from-c=1.4142135623730951,1", "--from-point", "0.55",
                  "--output", str(out)])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""

    def test_usage_error_bad_counts(self, capsys):
        for argv, flag in ((["sample", "--n-samples", "0"], "--n-samples"),
                           (["integrate", "--steps", "0"], "--steps")):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument {flag}: " in captured.err

    def test_degenerate_geometry_query(self, ctx, capsys):
        # An axis phase makes the quadrant rules undecidable: bad input.
        code, _, err = run_cli(["geometry", "--from-point", str(ctx.K)], capsys)
        assert code == 2
        assert "invalid input" in err

    def test_an_unexpected_runtime_error_is_not_a_failed_residual(self, monkeypatch, capsys):
        # Exit 1 means a residual over its tolerance, or a collision; any
        # other RuntimeError is a fault of the program and escapes main().
        def fault(*args):
            raise RuntimeError("not a residual")

        monkeypatch.setattr(geometry, "tangents_from_point", fault)
        with pytest.raises(RuntimeError, match="not a residual"):
            main(["geometry", "--from-point", "0.55"])
        assert capsys.readouterr().err == ""

    def test_tangent_parallel_to_an_asymptote_is_refused(self, capsys):
        # The tangent line at phase 2K/3 is parallel to y = x: it crosses the
        # hyperbola once at most, and the refusal says so.
        code, out, err = run_cli(["geometry", "--from-point=1.845375430245845"], capsys)
        assert (code, out) == (2, "")
        assert err == "invalid input: tangent line is parallel to an asymptote of the hyperbola\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("command, flag", [
        ("integrate", "--dt"),
        ("verify", "--tolerance-scale"),
        ("geometry", "--tolerance-scale"),
        ("analytic", "--tolerance-scale"),
    ])
    def test_non_finite_or_non_positive_value_rejected(self, command, flag, value, tmp_path, capsys):
        # A NaN tolerance would make every "residual > tolerance" gate pass.
        out = tmp_path / "out.dat"
        with pytest.raises(SystemExit) as err:
            main([command, f"{flag}={value}", "--output", str(out)])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--from-point={}", "--from-c={},1", "--from-c=1,{}"],
                             ids=["from-point", "from-c-x", "from-c-y"])
    def test_non_finite_construction_input_rejected(self, flag, value, tmp_path, capsys, recwarn):
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as err:
            main(["geometry", flag.format(value), "--output", str(out)])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""
        assert len(recwarn) == 0

    @pytest.mark.parametrize("c", ["1,0", "-1,0"])
    def test_hyperbola_vertex_refused_by_axis_rule(self, c, tmp_path, capsys):
        # The vertices lie on the lemniscate too, where two contact points
        # merge; c on an axis is refused before the candidates are counted.
        out = tmp_path / "out.json"
        code = main(["geometry", f"--from-c={c}", "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert list(tmp_path.iterdir()) == []
        assert captured.out == ""
        assert captured.err.startswith("invalid input: point ")
        assert captured.err.endswith(" lies within 1e-08 of an axis\n")
        assert captured.err.count("\n") == 1
        assert "Warning" not in captured.err

    @pytest.mark.parametrize("flag, err", CONSTRUCTION_REFUSALS.items(),
                             ids=list(CONSTRUCTION_REFUSALS))
    def test_construction_refusal_bytes(self, flag, err, capsys):
        try:
            code = main(["geometry", flag])
        except SystemExit as exc:  # the off-hyperbola check is a usage error
            code = exc.code
        assert (code, *capsys.readouterr()) == (2, "", err)

    @pytest.mark.parametrize("flag", ["--from-c=1.4142135623730951,1", "--from-point=0.55"])
    def test_rule_disagreement_is_a_refusal(self, flag, tmp_path, capsys, monkeypatch):
        # Every Newton slope reversed flips the sign of every ds/de, so the
        # forward rule parts from the quadrant rule: a refusal, not a failed
        # residual.
        real = geometry.select_choreographic
        monkeypatch.setattr(geometry, "select_choreographic", lambda c, candidates: real(
            c, [cand._replace(slope=-cand.slope) for cand in candidates]))
        out = tmp_path / "out.json"
        code, stdout, err = run_cli(["geometry", flag, "--output", str(out)], capsys)
        assert (code, stdout, err) == (
            2, "", "invalid input: forward-motion rule disagrees with the quadrant rule\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("c", ["1.37,0.94", "1.5,0.5"])
    def test_off_curve_from_c_rejected(self, c, tmp_path, capsys):
        # Constructed from off the curve, the phases would not be 4K/3 apart.
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as err:
            main(["geometry", f"--from-c={c}", "--output", str(out)])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["integrate", "--format", "json"],
        ["integrate", "--n-samples", "10"],
        ["analytic", "--n-samples", "10"],
        ["geometry", "--format", "json"],
        ["verify", "--format", "json"],
        ["sample", "--tolerance-scale", "2"],
        ["integrate", "--tolerance-scale", "2"],
        # A construction builds one triple from one input: no samples, and
        # --from-point checks nothing against a tolerance.
        ["geometry", "--from-point", "0.55", "--n-samples", "7"],
        ["geometry", "--from-c=1.4142135623730951,1", "--n-samples", "7"],
        ["geometry", "--from-point", "0.55", "--tolerance-scale", "2"],
        ["geometry", "--from-point", "0.55", "--n-samples", "7", "--tolerance-scale", "1e-30"],
        # The deleted --affine: its y = m sin cn / (1 + cn^2) lay on no orbit.
        ["sample", "--affine"],
    ])
    def test_flag_not_taken_by_subcommand(self, argv, tmp_path, capsys):
        out = tmp_path / "out.dat"
        with pytest.raises(SystemExit) as err:
            main(argv + ["--output", str(out)])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_io_error(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        code, _, err = run_cli(["sample", "--n-samples", "2", "--output", str(missing)], capsys)
        assert code == 3
        assert "i/o error" in err

    def test_failed_sidecar_write_leaves_no_data_file(self, tmp_path, capsys):
        # The sidecar path is a directory: the data file is written, then the
        # sidecar fails.  Neither a data file without its sidecar is left, nor
        # anything of the directory removed.
        out = tmp_path / "out.csv"
        blocker = tmp_path / "out.csv.meta.json"
        blocker.mkdir()
        (blocker / "kept").write_text("x")
        code, stdout, err = run_cli(["sample", "--n-samples", "3", "--output", str(out)], capsys)
        assert (code, stdout) == (3, "")
        assert err.startswith("i/o error: ")
        assert sorted(tmp_path.iterdir()) == [blocker]
        assert [p.name for p in blocker.iterdir()] == ["kept"]

    def test_an_output_that_cannot_be_opened_is_left_in_place(self, tmp_path, capsys):
        # The data path is a directory, beside a sidecar of an earlier run:
        # nothing was written, so nothing is removed.
        out = tmp_path / "out.csv"
        out.mkdir()
        sidecar = tmp_path / "out.csv.meta.json"
        sidecar.write_text("{}\n")
        code, _, err = run_cli(["sample", "--n-samples", "3", "--output", str(out)], capsys)
        assert code == 3
        assert "i/o error" in err
        assert sorted(tmp_path.iterdir()) == [out, sidecar]
        assert sidecar.read_text() == "{}\n"


def readme_cli_examples():
    """The command lines of the sh block under '## CLI' in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


README_DIGESTS = Path(__file__).resolve().parent / "readme_digests.json"


def _sha256(data) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def test_readme_digest_table_names_every_example():
    table = json.loads(README_DIGESTS.read_text(encoding="utf-8"))
    assert sorted(table) == sorted(" ".join(words[1:]) for words in readme_cli_examples())


def _is_canonical_json(text: str) -> bool:
    """Whether text has the bytes of the stdlib encoder at indent 2 with sorted keys."""
    return text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _check_output_files(path, code, out, err, want):
    """A README command's run with --output path against its readme_digests.json entry."""
    assert (code, out) == (0, "")
    assert _sha256(err) == want["stderr"]
    data = path.read_bytes()
    assert _sha256(data) == want["stdout"]
    sidecar = Path(str(path) + ".meta.json").read_bytes().decode("utf-8")
    # Every JSON output and every sidecar is written as the stdlib would.
    assert _is_canonical_json(sidecar)
    if data.startswith((b"{", b"[")):
        assert _is_canonical_json(data.decode("utf-8"))
    # The sidecar less its "python" line, which names the interpreter.
    sidecar, n = re.subn(r'\n  "python": "[^"\n]*",', "", sidecar)
    assert n == 1
    assert _sha256(sidecar) == want["sidecar"]


@pytest.mark.parametrize("words", [pytest.param(words, id=" ".join(words[1:]))
                                   for words in readme_cli_examples()])
def test_readme_cli_example_bytes(words, tmp_path, capsys):
    # Each README command exits 0, and its bytes are pinned on every
    # interpreter: a change that alters them updates readme_digests.json and
    # says why.
    assert words[0] == "lemnichor"
    want = json.loads(README_DIGESTS.read_text(encoding="utf-8"))[" ".join(words[1:])]
    code, out, err = run_cli(words[1:], capsys)
    assert code == 0
    assert (_sha256(out), _sha256(err)) == (want["stdout"], want["stderr"])

    path = tmp_path / "out.dat"
    _check_output_files(path, *run_cli(words[1:] + ["--output", str(path)], capsys), want)


def _entry_point(args, **env):
    """(exit code, stdout, stderr) of python -m lemnichor.cli, which calls main() as the
    console script does, in a fresh interpreter that imports the package from this tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "lemnichor.cli", *args],
                          env=dict(os.environ, PYTHONPATH=src, **env), capture_output=True)
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


@pytest.mark.parametrize("words", [pytest.param(words, id=" ".join(words[1:]))
                                   for words in readme_cli_examples()])
def test_readme_cli_example_in_a_fresh_interpreter(words, tmp_path):
    want = json.loads(README_DIGESTS.read_text(encoding="utf-8"))[" ".join(words[1:])]
    path = tmp_path / "out.dat"
    _check_output_files(path, *_entry_point(words[1:] + ["--output", str(path)]), want)


def test_analytic_bytes_do_not_depend_on_the_hash_seed():
    # The evaluator keeps per-call tables; no set or dict order may reach the output.
    want = json.loads(README_DIGESTS.read_text(encoding="utf-8"))["analytic"]
    for seed in ("0", "12345"):
        code, out, err = _entry_point(["analytic"], PYTHONHASHSEED=seed)
        assert (code, _sha256(out), err) == (0, want["stdout"], ""), seed


# CLI branches that no README command reaches, pinned by (exit code, sha256 of
# stdout, sha256 of stderr): the JSON sample, the lower branch of --from-c,
# and a --from-c 1e-6 off the axis next to a vertex, which the axis rule lets through.
BRANCH_DIGESTS = {
    "sample --n-samples 50 --format json": (
        0, "0b723a075118f959e92c0469a10e520aac18b29c8a3c9fb57fbffe225269f964",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "geometry --from-c=-1.4142135623730951,-1": (
        0, "4248769c13b303e4702f08a3e484cf6d4177601ff43c2762aaba667abfe7def4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "geometry --from-c=1.0000000000005,1e-6": (
        0, "8cabe92ca136fe1322e3ec99ef9e1c09c0998edc124e58a054a4a81315694b3f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}
# One sha256 over 100 seeded constructions, every one of which exits 0.
CONSTRUCTIONS_DIGEST = "d007c1c902f0f0219da23a1afd314ae1c9d2e2fa2a7c6d61e0f84bf1ebffd7da"


def test_unlisted_branch_bytes(capsys):
    for line, want in BRANCH_DIGESTS.items():
        code, out, err = run_cli(shlex.split(line), capsys)
        assert (code, _sha256(out), _sha256(err)) == want, line

    # 60 orbit phases for --from-point, and 40 hyperbola points for --from-c,
    # cx = ±sqrt(1 + cy²) (correctly rounded, so the inputs are the same bits
    # on every platform).
    rng = random.Random(23)
    runs = [["geometry", f"--from-point={rng.uniform(-10.0, 10.0)!r}"] for _ in range(60)]
    for _ in range(40):
        cy = rng.uniform(-4.0, 4.0)
        cx = math.copysign(math.sqrt(1.0 + cy * cy), rng.random() - 0.5)
        runs.append(["geometry", f"--from-c={cx!r},{cy!r}"])
    digest = hashlib.sha256()
    codes = Counter()
    for words in runs:
        code, out, err = run_cli(words, capsys)
        codes[code] += 1
        digest.update(repr((words, code, out, err)).encode())
    assert codes == {0: 100}
    assert digest.hexdigest() == CONSTRUCTIONS_DIGEST


# One parser serves every main() call of a process.  The usage errors, in the
# order of their checks: a type= converter, _settings, the exclusive group.
REFUSALS = (
    ["verify", "--n-samples", "0"],
    ["geometry", "--from-point", "0.55", "--n-samples", "7"],
    ["geometry", "--from-c=1.4142135623730951,1", "--from-point", "0.55"],
)
HELPS = (["--help"], ["geometry", "--help"])


def _exit_bytes(argv, capsys):
    """(exit code, stdout, stderr) of a main() call that ends in SystemExit."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    return err.value.code, captured.out, captured.err


class TestSharedParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_refusals_and_help_leave_no_state(self, capsys):
        first = [_exit_bytes(argv, capsys) for argv in REFUSALS + HELPS]
        assert [(code, out) for code, out, _ in first[:3]] == [(2, "")] * 3
        assert [code for code, _, _ in first[3:]] == [0, 0]
        table = json.loads(README_DIGESTS.read_text(encoding="utf-8"))
        for words in readme_cli_examples():
            want = table[" ".join(words[1:])]
            code, out, err = run_cli(words[1:], capsys)
            assert (code, _sha256(out), _sha256(err)) == (0, want["stdout"], want["stderr"]), words
        # The same bytes again, after every README command has used the parser.
        assert [_exit_bytes(argv, capsys) for argv in REFUSALS + HELPS] == first

    def test_help_reads_the_width_when_it_prints(self, monkeypatch, capsys):
        cli._build_parser()
        helps = []
        for columns in ("60", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = _exit_bytes(["geometry", "--help"], capsys)
            assert code == 0
            helps.append(out)
        # The same words, wrapped onto more lines at 60 columns.
        assert helps[0].split() == helps[1].split()
        assert len(helps[0].splitlines()) > len(helps[1].splitlines())

    def test_entry_point_help_follows_columns(self):
        runs = [_entry_point(["geometry", "--help"], COLUMNS=columns) for columns in ("60", "200")]
        assert [code for code, _, _ in runs] == [0, 0]
        helps = [out for _, out, _ in runs]
        assert helps[0].startswith("usage: lemnichor geometry")
        assert helps[0].split() == helps[1].split()
        assert len(helps[0].splitlines()) > len(helps[1].splitlines())


def _round_trip_json_text(obj) -> str:
    """The strict encoder before the walk: encode, decode each NaN or infinity as None, encode again."""
    obj = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _random_json_value(rng, depth=0):
    """A seeded nested value of every kind the CLI encodes, non-finite floats included."""
    kind = rng.randrange(10 if depth < 4 else 5)
    if kind == 0:
        return rng.choice([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308])
    if kind == 1:
        return rng.uniform(-1e3, 1e3) * 10.0 ** rng.randrange(-20, 20)
    if kind == 2:
        return rng.choice([rng.randrange(-10**20, 10**20), True, False, None])
    if kind in (3, 4):
        return rng.choice(["", "x1_phase", "naïve \"quoted\"\n", "NaN"])
    items = [_random_json_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind in (5, 6):
        return {f"k{rng.randrange(100)}": v for v in items}
    return tuple(items) if kind == 7 else items


class TestJsonText:
    def test_non_finite_is_null_at_any_depth(self):
        obj = ([{"nan": math.nan, "inf": [math.inf, (-math.inf, 1.5)]}],)
        assert strict_json(cli._json_text(obj)) == [[{"nan": None, "inf": [None, [None, 1.5]]}]]

    def test_negative_zero_stays_and_a_tuple_is_a_list(self):
        assert cli._json_text({"z": -0.0, "t": (1, -0.0)}) == (
            '{\n  "t": [\n    1,\n    -0.0\n  ],\n  "z": -0.0\n}\n')

    def test_a_tuple_subclass_is_refused(self):
        # Types are matched exactly: a NamedTuple is not written as a list.
        with pytest.raises(TypeError, match="CheckResult"):
            cli._json_text({"row": cli.CheckResult("n", 0.0, 0.0, 0.0, 1.0)})

    def test_same_bytes_as_the_round_trip(self):
        rng = random.Random(1919)
        for _ in range(300):
            obj = {f"k{i}": _random_json_value(rng) for i in range(rng.randrange(1, 6))}
            text = cli._json_text(obj)
            assert text == _round_trip_json_text(obj)
            strict_json(text)
