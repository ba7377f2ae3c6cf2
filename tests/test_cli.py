import json
import math
import platform
import shlex
import tracemalloc
from pathlib import Path

import pytest

from lemnichor import analytic, cli, dynamics, geometry, invariants
from lemnichor.cli import main
from lemnichor.elliptic import CHOREO_M, choreography_context, make_context
from lemnichor.orbit import position, triple, velocity


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_affine_scales_positions_only(self, ctx, capsys):
        code, out, _ = run_cli(["sample", "--n-samples", "5", "--affine"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        t = rows[1][0]
        p, v = position(t, ctx), velocity(t, ctx)
        assert rows[1][1] == pytest.approx(p.x, abs=1e-15)
        assert rows[1][2] == pytest.approx(CHOREO_M * p.y, abs=1e-15)
        assert rows[1][4] == pytest.approx(v.y, abs=1e-15)

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
        monkeypatch.setattr(cli, "choreography_context",
                            lambda: make_context(CHOREO_M * (1.0 + rel)))
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


def _old_trajectory_csv(traj) -> bytes:
    """The trajectory CSV of traj.points, unstreamed: one list per point, one
    "%.17g" row format, one join."""
    header = ["t"]
    for i in (1, 2, 3):
        header += [f"x{i}", f"y{i}", f"vx{i}", f"vy{i}"]
    header.append("energy")
    fmt = ",".join(["%.17g"] * len(header))
    rows = []
    for pt in traj.points:
        row = [pt.t]
        for p, v in zip(pt.positions, pt.velocities):
            row += [p.x, p.y, v.x, v.y]
        row.append(pt.energy)
        rows.append(fmt % tuple(row))
    return ("\n".join([",".join(header)] + rows) + "\n").encode()


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
        traj = dynamics.integrate(s.positions, s.velocities, dynamics.PotentialVariant.U_CENTRAL, 0.001, 8)
        assert summary["energy_drift"] == traj.energy_drift

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
    def test_streamed_csv_is_byte_identical(self, variant, init, tmp_path, capsys):
        steps = 5000
        assert (steps + 1) % cli.CSV_CHUNK_ROWS != 0  # a partial last chunk
        ctx = choreography_context()
        dt = ctx.period / 65536.0
        pv = dynamics.PotentialVariant(variant)
        argv = ["integrate", "--variant", variant, "--steps", str(steps)]
        if init == "analytic":
            traj = dynamics.integrate_choreography(ctx, pv, dt, steps)
        else:
            s = triple(0.37, ctx)
            path = tmp_path / "init.json"
            path.write_text(json.dumps({
                "positions": [[p.x, p.y] for p in s.positions],
                "velocities": [[v.x, v.y] for v in s.velocities],
            }))
            traj = dynamics.integrate(s.positions, s.velocities, pv, dt, steps)
            argv += ["--init", str(path)]
        expected = _old_trajectory_csv(traj)

        out = tmp_path / "traj.csv"
        assert main(argv + ["--output", str(out)]) == 0
        assert out.read_bytes() == expected
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == expected

    def test_peak_memory_grows_by_about_one_row_per_step(self, tmp_path, capsys):
        # The CSV text is bounded by CSV_CHUNK_ROWS rows; what grows with the
        # step count is the 14 recorded doubles (112 bytes) per step.
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
        growth = peak(8192) - peak(2048)
        capsys.readouterr()
        assert growth <= 256 * (8192 - 2048)

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
    ], ids=["empty", "numbers", "list", "no-velocities", "two-positions", "four-velocities",
            "triple-pair", "single", "string", "bool", "null", "nan", "-inf", "1e400", "huge-int",
            "syntax"])
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
        for row in rows:
            cx, cy, res = row[1], row[2], row[10]
            if math.hypot(cx, cy) < 50.0:
                assert abs(res) < 1e-8

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

    def test_nan_hyperbola_residual_fails(self, monkeypatch, capsys):
        real = geometry.sweep_row
        hit = []

        def stub(t, ctx):
            rec = real(t, ctx)
            if not hit and rec["finite"] and math.hypot(rec["cx"], rec["cy"]) < 50.0:
                hit.append(t)
                rec["hyperbola_residual"] = math.nan
            return rec

        monkeypatch.setattr(geometry, "sweep_row", stub)
        code, _, _ = run_cli(["geometry", "--n-samples", "8"], capsys)
        assert hit
        assert code == 1


class TestAnalytic:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(["analytic"], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report) > 30
        assert all(entry["pass"] for entry in report)
        names = {entry["name"] for entry in report}
        assert any(name.startswith("residue of x_plus") for name in names)
        strips = [e for e in report if e["name"].startswith("strip winding")]
        assert [e["claimed"] for e in strips] == [[-2.0, 0.0], [2.0, 0.0], [-2.0, 0.0], [2.0, 0.0]]
        assert all(e["residual"] <= 1e-9 for e in strips)

    def test_wrong_pole_count_is_a_failed_row(self, capsys, monkeypatch):
        # line_windings takes x^+'/x^+ from (sn, cn, dn) on its line grid.
        real = analytic._x_plus_log_d1
        monkeypatch.setattr(analytic, "_x_plus_log_d1", lambda s, c, d: 0.5 * real(s, c, d))
        code, out, _ = run_cli(["analytic"], capsys)
        assert code == 1
        failed = [e["name"] for e in json.loads(out) if not e["pass"]]
        assert failed and all(name.startswith("strip winding") for name in failed)


class TestExitCodes:
    def test_usage_error_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_usage_error_bad_from_c(self):
        with pytest.raises(SystemExit) as err:
            main(["geometry", "--from-c", "1,2,3"])
        assert err.value.code == 2

    def test_usage_error_bad_counts(self):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--n-samples", "0"])
        assert err.value.code == 2

    def test_degenerate_geometry_query(self, ctx, capsys):
        # An axis phase makes the quadrant rules undecidable: bad input.
        code, _, err = run_cli(["geometry", "--from-point", str(ctx.K)], capsys)
        assert code == 2
        assert "invalid input" in err

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
        assert capsys.readouterr().out == ""

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
    ])
    def test_flag_not_taken_by_subcommand(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_io_error(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        code, _, err = run_cli(["sample", "--n-samples", "2", "--output", str(missing)], capsys)
        assert code == 3
        assert "i/o error" in err


def readme_cli_examples():
    """The command lines of the sh block under '## CLI' in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def _readme_params():
    params = []
    for words in readme_cli_examples():
        marks = []
        if "--from-c=1.37,0.94" in words:
            # An open ROADMAP item: this c is off the hyperbola (cx^2 - cy^2 - 1
            # = -6.7e-3), so it is refused with exit 2; bench/test_bench.py:150
            # pins this failure of the construct workload.
            marks.append(pytest.mark.xfail(
                strict=True,
                reason="open ROADMAP item: --from-c=1.37,0.94 is off the hyperbola "
                       "(residual -6.7e-3) and exits 2; pinned by bench/test_bench.py:150"))
        params.append(pytest.param(words, marks=marks, id=" ".join(words[1:])))
    return params


@pytest.mark.parametrize("words", _readme_params())
def test_readme_cli_example_exits_zero(words, capsys):
    assert words[0] == "lemnichor"
    code = main(words[1:])
    capsys.readouterr()
    assert code == 0
