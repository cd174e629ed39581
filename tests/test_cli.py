"""End-to-end command-line behavior and exit-code contract."""

import contextlib
import errno
import io
import json
import math
import random
import re
import tempfile
import time
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import disk_divisor, distinct_reals, half_plane_divisor, nan_after
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from slezero import conformal, loewner, runner, tracing
from slezero.cli import main
from slezero.divisors import SpherePoint, SymmetricDivisor, as_charge, format_complex, parse_point
from slezero.errors import ConfigError, DegenerateConfigurationError, InversionFailureError, SleZeroError
from slezero.loewner import Parametrization
from slezero.scene import OUTPUT_KINDS, LoewnerParams, SceneConfig, parse_config, preset, serialize_config

SINGLE = """\
domain: half_plane
growth: ["0.0"]
marked:
  - point: inf
    charge: "-3"
trace:
  max_arc_length: 5.0
loewner:
  T: 0.25
  dt: 0.001
  tracked: ["2i"]
outputs: [field_svg, trajectories_csv, hull_csv, motion_report, analysis_report]
"""

# (marked section, tracked section, message) of scenes with a growth point
# at 0 whose observer starts on a singular point of the observable
ON_DRIVING = (
    'marked:\n  - point: inf\n    charge: "-3"\n',
    'loewner:\n  tracked: ["0"]\n',
    "tracked point 0.0 starts on a driving point",
)
ON_MARKED = (
    'marked:\n  - point: "1+1i"\n    charge: "-1"\n  - point: "1-1i"\n    charge: "-1"\n'
    '  - point: inf\n    charge: "-1"\n',
    'loewner:\n  tracked: ["1+1i"]\n',
    "tracked point 1.0+1.0i starts on marked point 1.0+1.0i",
)

# (scene, the two factor points it names) of scenes with two factor points
# 1e-11 apart: distinct divisor points, but too close for the line field
NEAR_DOUBLE_GROWTH = (
    'domain: half_plane\ngrowth: ["-1", "0", "1e-11"]\nmarked:\n  - point: inf\n    charge: "-5"\n',
    ("0.0", "1e-11"),
)
NEAR_DOUBLE_MARKED = (
    'domain: half_plane\ngrowth: ["0"]\nmarked:\n'
    + "".join(
        f'  - point: "{z}"\n    charge: "-1/2"\n'
        for z in ("1+1i", "1-1i", "1+1.00000000001i", "1-1.00000000001i")
    )
    + '  - point: inf\n    charge: "-1"\n',
    ("1.0+1.0i", "1.0+1.00000000001i"),
)


# a growth point at 1e300 and no point at infinity
FAR_POINT = """\
domain: half_plane
growth: ["1e300"]
marked:
  - point: "-0.6394905061257551"
    charge: "-3"
loewner: {T: 0.01, dt: 0.01, tol: 1e-16, tracked: ["i"]}
"""


# conjugate marked pairs and a point on the axis that the divisor accepts
# within SYMMETRY_TOL (a disk pair transported 1 ulp apart; a point 1e-11 off
# the axis), and two pairs listed apart: the flow reads exact mirrors, and
# dlog_Z adds the real parts of their terms, so each runs to its end
ROUNDED_DISK_PAIRS = """\
domain: disk
growth: ["0.09737742805927783-0.9952475252441275i", "0.6073788313527111+0.7944123332530878i"]
marked:
  - point: "0.03148876511652399-0.7940693352162977i"
    charge: "-3/2"
  - point: "0.04986047157086642-1.2573586600597566i"
    charge: "-3/2"
  - point: "-0.3285235050310926+0.4713793614203107i"
    charge: "-1"
  - point: "-0.9951452180391407+1.4278762713047568i"
    charge: "-1"
  - point: "-0.9896766326078114-0.14331839683049466i"
    charge: "1"
rates:
  - [[0, 2.478888882781153], [0.02685894090945175, 1.9112115917787194]]
  - [[0, 1.2109284014216861], [0.032134848441433515, 0.4912086377711624]]
loewner: {T: 0.05, dt: 0.01, tol: 1e-12}
outputs: [field_svg, trajectories_csv, hull_csv, motion_report, analysis_report]
"""
NEAR_AXIS_POINT = """\
domain: half_plane
growth: ["0"]
marked:
  - point: "0.3+1e-11i"
    charge: "-1/2"
  - point: inf
    charge: "-5/2"
loewner: {T: 0.01, dt: 0.001, tracked: ["2i"]}
outputs: [field_svg, trajectories_csv, hull_csv, motion_report, analysis_report]
"""
# an RK stage of the first step lands on the driving point: exit 3, not a traceback
STAGE_ON_DRIVING_POINT = """\
domain: half_plane
growth: ["0"]
marked:
  - point: inf
    charge: "-3"
loewner: {T: 0.5, dt: 0.5, tol: 1e-13, tracked: ["i"]}
outputs: [field_svg, trajectories_csv, hull_csv, motion_report, analysis_report]
"""
PAIRS_APART = """\
domain: half_plane
growth: ["0"]
marked:
  - point: "0.1+0.02i"
    charge: "-1"
  - point: "2+1i"
    charge: "-1/2"
  - point: "0.1-0.02i"
    charge: "-1"
  - point: "2-1i"
    charge: "-1/2"
loewner: {T: 0.05, dt: 0.001, tol: 1e-12}
outputs: [hull_csv, motion_report]
"""

# two growth points 5e-4 apart, inside each other's capture radius of 1e-3
CLOSE = """\
domain: half_plane
growth: ["0", "0.0005"]
marked:
  - point: inf
    charge: "-4"
trace: {max_arc_length: 2}
loewner: {T: 0.01, dt: 0.001, tol: 1e-12}
"""


def cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_writes_every_requested_artifact(self, tmp_path, capsys):
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(SINGLE)
        out = tmp_path / "out"
        code, stdout, _ = cli(capsys, "run", "--config", str(cfg), "--out", str(out))
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "analysis_report.json",
            "field.svg",
            "hull.csv",
            "motion_report.json",
            "trajectory_0.csv",
        ]
        for name in names:
            assert str(out / name) in stdout

    def test_motion_report_counts_states_and_rejected_steps(self, tmp_path):
        # fixed steps reject nothing; the error control of the repelling
        # pair x = +-sqrt(1 + 4t) does (the presets' steps no longer do)
        repelling = (
            'domain: half_plane\ngrowth: ["-1", "1"]\nmarked:\n  - point: inf\n    charge: "-4"\n'
            "loewner: {T: 0.25, dt: 0.25, tol: 1e-13}\noutputs: [motion_report]\n"
        )
        for text in (SINGLE, repelling):
            result = runner.run(parse_config(text), tmp_path)
            payload = json.loads((tmp_path / "motion_report.json").read_text())
            assert payload["states"] == len(result.evolution.states)
            assert payload["rejected_steps"] == result.evolution.rejected
        assert result.evolution.rejected > 0

    def test_artifacts_are_byte_identical_across_runs(self, tmp_path, capsys):
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(SINGLE)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli(capsys, "run", "--config", str(cfg), "--out", str(a))[0] == 0
        assert cli(capsys, "run", "--config", str(cfg), "--out", str(b))[0] == 0
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes()

    def test_csv_headers(self, tmp_path, capsys):
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(SINGLE)
        out = tmp_path / "out"
        cli(capsys, "run", "--config", str(cfg), "--out", str(out))
        assert (out / "hull.csv").read_text().splitlines()[0] == "t,curve,re,im"
        assert (
            out / "trajectory_0.csv"
        ).read_text().splitlines()[0] == "index,arc_length,re,im"

    def test_horizon_override_reaches_the_reports(self, tmp_path, capsys):
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(SINGLE)
        out = tmp_path / "out"
        code, _, _ = cli(
            capsys, "run", "--config", str(cfg), "--out", str(out), "--T", "0.16"
        )
        assert code == 0
        payload = json.loads((out / "motion_report.json").read_text())
        assert payload["t_final"] == pytest.approx(0.16)
        last = (out / "hull.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(0.16)

    def test_fig1_reports_the_collision_bracket(self, tmp_path, capsys):
        cfg = tmp_path / "scene.yaml"
        cfg.write_text("preset: fig1\nloewner:\n  dt: 0.0001\n")
        out = tmp_path / "out"
        code, stdout, _ = cli(capsys, "run", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert "note: driving collision bracketed in [0.048654" in stdout
        payload = json.loads((out / "motion_report.json").read_text())
        assert payload["collision"]["bracket"][0] == pytest.approx(0.048654045, abs=1e-8)
        assert payload["collision"]["note"].startswith("collision at t=")
        assert "marked point" in payload["collision"]["note"]

    def test_bad_config_exits_1_with_line_numbers(self, tmp_path, capsys):
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(SINGLE + "wavelength: 3\n")
        code, _, stderr = cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "config error:" in stderr
        assert "unknown key 'wavelength'" in stderr

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        code, _, stderr = cli(capsys, "run", "--config", str(tmp_path / "nope.yaml"))
        assert code == 1
        assert "cannot read" in stderr

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("config", ["directory", "latin-1"])
    def test_unreadable_config_exits_1_without_traceback(self, tmp_path, capsys, command, config):
        path = tmp_path / "scene.yaml"
        if config == "directory":
            path.mkdir()
        else:
            path.write_bytes(SINGLE.encode() + "name: caf\u00e9\n".encode("latin-1"))
        code, _, stderr = cli(capsys, command, "--config", str(path))
        assert (code, stderr) == (1, f"cannot read {path}\n")

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unwritable_out_exits_1_and_writes_nothing(self, tmp_path, capsys, out):
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(SINGLE)
        (tmp_path / "file").write_text("kept\n")
        code, _, stderr = cli(capsys, "run", "--config", str(cfg), "--out", str(tmp_path / out), "--T", "0.01")
        assert (code, stderr) == (1, f"cannot write {tmp_path / out}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "scene.yaml"]
        assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize("failure", ["directory", "disk full"])
    def test_a_failed_write_removes_the_artifacts_before_it(self, tmp_path, capsys, monkeypatch, failure):
        cfg = tmp_path / "fig1.yaml"
        cfg.write_text("preset: fig1\n")
        out = tmp_path / "out"
        out.mkdir()
        if failure == "directory":
            (out / "hull.csv").mkdir()
        else:
            write_text = Path.write_text

            def full_disk(path, text):
                if path.name == "hull.csv":
                    write_text(path, text[:10])
                    raise OSError(errno.ENOSPC, "No space left on device")
                return write_text(path, text)

            monkeypatch.setattr(Path, "write_text", full_disk)
        code, stdout, stderr = cli(capsys, "run", "--config", str(cfg), "--out", str(out), "--T", "0.01")
        assert (code, stdout, stderr) == (1, "", f"cannot write {out / 'hull.csv'}\n")
        assert [p.name for p in out.iterdir()] == (["hull.csv"] if failure == "directory" else [])

    def test_bad_rate_schedule_exits_1_without_traceback(self, tmp_path, capsys):
        cfg = tmp_path / "scene.yaml"
        cfg.write_text("preset: fig1\nrates: [[[0, 1], [0.5, 2], [0.2, 3]], 1, 1]\n")
        code, _, stderr = cli(capsys, "run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 1
        assert "line 2: rate breakpoints must increase" in stderr
        assert "Traceback" not in stderr

    def test_nan_rate_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "scene.yaml"
        cfg.write_text("preset: fig1\nrates: [nan, 1, 1]\n")
        out = tmp_path / "out"
        code, _, stderr = cli(capsys, "run", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert "line 2: rate must be finite: 'nan'" in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, points", [NEAR_DOUBLE_GROWTH, NEAR_DOUBLE_MARKED], ids=["growth", "marked"]
    )
    def test_near_double_factor_points_exit_1(self, text, points, tmp_path, capsys):
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(text)
        out = tmp_path / "out"
        code, _, stderr = cli(capsys, "run", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert "factor points {} and {} are within 1e-09".format(*points) in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--dt", "-1"], "argument --dt: must be positive: '-1'"),
            (["run", "--dt", "0"], "argument --dt: must be positive: '0'"),
            (["verify", "--T", "inf"], "argument --T: must be finite: 'inf'"),
            (["verify", "--step", "nan"], "argument --step: must be finite: 'nan'"),
            (["run", "--max-arc", "far"], "argument --max-arc: is not a number: 'far'"),
        ],
    )
    def test_override_flags_are_checked_like_config_values(self, argv, message, tmp_path, capsys):
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(SINGLE)
        out = ["--out", str(tmp_path / "out")] if argv[0] == "run" else []
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--config", str(cfg), *out] + argv[1:])
        assert exc.value.code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 1


class TestVerify:
    def test_default_scene_all_suites_pass(self, capsys):
        code, stdout, _ = cli(capsys, "verify")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[-1].startswith("ok:")
        assert lines[-1].endswith("checks passed")
        assert any("PASS" in l for l in lines[:-1])
        assert not any("FAIL " in l for l in lines)

    def test_growth_points_within_the_capture_radius_run_and_verify(self, tmp_path, capsys):
        # each curve leaves its own growth point, and the finite-difference
        # step of dlog_fd stays below the points' gap
        cfg = tmp_path / "close.yaml"
        cfg.write_text(CLOSE)
        out = tmp_path / "out"
        assert cli(capsys, "run", "--config", str(cfg), "--out", str(out))[0] == 0
        first, second = ((out / f"trajectory_{i}.csv").read_text() for i in (0, 1))
        assert second.splitlines()[1] == "0,0.0,0.0005,0.0"
        assert first != second
        code, stdout, _ = cli(capsys, "verify", "--config", str(cfg))
        assert code == 0, stdout

    def test_invariance_suite_with_seed(self, capsys):
        code, stdout, _ = cli(capsys, "verify", "--suite", "invariance", "--seed", "7")
        assert code == 0
        assert "invariance" in stdout

    def test_motion_suite(self, capsys):
        code, stdout, _ = cli(capsys, "verify", "--suite", "motion")
        assert code == 0
        assert "motion" in stdout

    def test_all_suites_share_one_evolution_and_one_transport(self, monkeypatch):
        calls = {"evolve": 0, "transport": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(loewner, "evolve", counted("evolve", loewner.evolve))
        monkeypatch.setattr(conformal, "transport", counted("transport", conformal.transport))
        # a short horizon keeps the flow cheap: only the call counts matter here
        scene = preset("fig1")
        scene = replace(scene, loewner=replace(scene.loewner, T=0.002, dt=1e-4))
        runner.verify(scene, "all")
        assert calls["evolve"] == 1
        assert calls["transport"] <= 1

    def test_all_prints_the_lines_of_each_suite_run_alone(self, capsys):
        _, together, _ = cli(capsys, "verify", "--suite", "all", "--T", "0.1")
        alone = []
        for suite in runner.SUITES:
            _, stdout, _ = cli(capsys, "verify", "--suite", suite, "--T", "0.1")
            alone.extend(stdout.splitlines()[:-1])
        assert together.splitlines()[:-1] == alone

    @pytest.mark.parametrize(
        "marked, observer",
        [
            pytest.param(("3i",), "2.0i", id="2i-free"),
            pytest.param(("2i",), "3.0i", id="2i-marked"),
            pytest.param(("2i", "3i"), "4.0i", id="2i-3i-marked"),
        ],
    )
    def test_fallback_observer_starts_on_no_marked_point(self, tmp_path, capsys, marked, observer):
        # with no tracked points verify tracks 2i, or the next of 3i, 4i, ...
        # that the flow accepts
        charge = -2 / (2 * len(marked))
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(
            'domain: half_plane\ngrowth: ["-1", "1"]\nmarked:\n'
            + "".join(f'  - point: "{s}{z}"\n    charge: "{charge}"\n' for z in marked for s in ("", "-"))
            + '  - point: inf\n    charge: "-2"\n'
        )
        code, stdout, _ = cli(capsys, "verify", "--config", str(cfg))
        assert code == 0, stdout
        assert f"motion/abs_drift[z={observer}]" in stdout

    def test_far_divisor_point_passes_the_invariance_suite(self, tmp_path, capsys):
        # |c z + d|^2 overflowed at z = 1e300; the gap takes its log as a
        # difference of logs
        cfg = tmp_path / "far.yaml"
        cfg.write_text(FAR_POINT)
        code, out, err = cli(capsys, "verify", "--config", str(cfg), "--suite", "invariance")
        assert (code, err) == (0, "")
        assert out.startswith("invariance/moebius_gap: ")

    def test_a_scene_the_equivalence_suite_cannot_check_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        # charges that are not half-integers: the flow takes them, the
        # trajectories of the equivalence suite do not
        cfg = tmp_path / "fractional.yaml"
        cfg.write_text(
            'domain: half_plane\ngrowth: ["0"]\nmarked:\n  - point: "1+1i"\n    charge: "-0.4"\n'
            '  - point: "1-1i"\n    charge: "-0.4"\n  - point: inf\n    charge: "-2.2"\n'
            "loewner: {T: 0.05, dt: 1e-3}\noutputs: [hull_csv, motion_report]\n"
        )
        code, out, _ = cli(capsys, "verify", "--config", str(cfg), "--suite", "motion")
        assert code == 0 and out.endswith("ok: 1/1 checks passed\n")
        calls = []
        monkeypatch.setattr(loewner, "evolve", lambda *args, **kwargs: calls.append(args))
        for suite in ("all", "equivalence"):
            code, out, err = cli(capsys, "verify", "--config", str(cfg), "--suite", suite)
            assert (code, out) == (1, "")
            assert err == (
                "invalid scene: charge -0.4 at 1.0+1.0i is not a half-integer: the equivalence suite "
                "traces trajectories, which need integer local exponents\n"
            )
        assert calls == []

    def test_far_divisor_point_and_infinity_coincide(self, tmp_path, capsys):
        # about 2e-300 apart on the sphere: refused where the divisor is made,
        # not by the Moebius maps of the invariance suite
        cfg = tmp_path / "far-inf.yaml"
        cfg.write_text(
            'domain: half_plane\ngrowth: ["0"]\nmarked:\n  - point: "1e300"\n    charge: "-1"\n'
            '  - point: inf\n    charge: "-2"\n'
        )
        for argv in (
            ("run", "--config", str(cfg), "--out", str(tmp_path / "out")),
            ("verify", "--config", str(cfg), "--suite", "invariance"),
        ):
            code, out, err = cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == "config error:\nline 2: invalid divisor: points 1e+300 and inf coincide\n"
        assert not (tmp_path / "out").exists()

    def test_tolerance_breach_exits_2(self, tmp_path, capsys, monkeypatch):
        # a limit below each of fig1's hull distances, the smallest 8.1e-8
        monkeypatch.setattr(runner, "EQUIVALENCE_LIMIT", 1e-9)
        cfg = tmp_path / "scene.yaml"
        cfg.write_text("preset: fig1\n")
        code, stdout, _ = cli(
            capsys, "verify", "--config", str(cfg), "--suite", "equivalence"
        )
        assert code == 2
        assert stdout.splitlines()[-1].startswith("FAILED")

    def test_unknown_suite_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 1


class TestPreset:
    def test_list(self, capsys):
        code, stdout, _ = cli(capsys, "preset", "list")
        assert code == 0
        assert stdout == "fig1\nfig2\nfig3\n"

    def test_show_round_trips(self, capsys):
        code, stdout, _ = cli(capsys, "preset", "show", "fig2")
        assert code == 0
        assert "  dt: 0.01\n  tol: 3e-14\n" in stdout
        assert parse_config(stdout) == preset("fig2")

    def test_show_unknown_exits_1(self, capsys):
        code, _, stderr = cli(capsys, "preset", "show", "fig9")
        assert code == 1
        assert "unknown preset" in stderr


class TestExitCodes:
    def test_integration_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def boom(scene, out_dir):
            raise InversionFailureError("reverse solve stalled at s=1.000e-03 (gap 1.000e-12)")

        monkeypatch.setattr(runner, "run", boom)
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(SINGLE)
        code, _, stderr = cli(capsys, "run", "--config", str(cfg))
        assert code == 3
        assert "integration failure" in stderr

    def test_flow_over_its_step_budget_exits_3_at_once(self, tmp_path, capsys):
        # T/dt = 1e11 steps: rejected before the first one
        cfg = tmp_path / "fig2.yaml"
        cfg.write_text("preset: fig2\noutputs: [motion_report]\n")
        start = time.perf_counter()
        code, _, stderr = cli(capsys, "run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--dt", "1e-12")
        assert time.perf_counter() - start < 2.0
        assert code == 3
        assert "integration failure: T/dt = 1e+11 flow steps exceed the budget of 1000000" in stderr

    def test_observer_history_over_its_budget_exits_3_at_once(self, tmp_path, capsys):
        # T/dt = 1e6 fixed steps fit the step budget, but not with 1024
        # observers
        tracked = "".join(f'    - "{k / 100.0!r}+2i"\n' for k in range(1024))
        cfg = tmp_path / "crowd.yaml"
        cfg.write_text(
            'domain: half_plane\ngrowth: ["-1", "1"]\nmarked:\n  - point: inf\n    charge: "-4"\n'
            f"loewner:\n  T: 1\n  dt: 1.0e-6\n  tracked:\n{tracked}"
            "outputs: [motion_report]\n"
        )
        out = tmp_path / "out"
        start = time.perf_counter()
        code, _, stderr = cli(capsys, "run", "--config", str(cfg), "--out", str(out))
        assert time.perf_counter() - start < 2.0
        assert code == 3
        assert "integration failure: 1000001 states of 1024 observers exceed the history budget" in stderr
        assert not out.exists()

    def test_trace_over_its_point_budget_exits_3_without_artifacts(self, tmp_path, capsys, monkeypatch):
        # an arc of 1e300 in far steps of about 100: without a point budget
        # the trace runs for ever
        monkeypatch.setattr(tracing, "TRACE_BUDGET", 3000)
        cfg = tmp_path / "ray.yaml"
        cfg.write_text(SINGLE.replace("max_arc_length: 5.0", "max_arc_length: 1e300"))
        out = tmp_path / "out"
        code, _, stderr = cli(capsys, "run", "--config", str(cfg), "--out", str(out))
        assert code == 3
        assert [line for line in stderr.splitlines() if line.startswith("integration failure:")] == [
            "integration failure: trace from 0.0 exceeded its budget of 3000 points at arc length 127192"
        ]
        assert "Traceback" not in stderr
        assert not out.exists()

    def test_hull_tips_near_1e300_lie_on_the_slit(self, tmp_path, capsys):
        # the ulp of the growth point 2.07e300 is 2.7e284. Its path does not
        # move, and the cubic Hermite, written as x0 plus the moves, reads it
        # exactly, so each reverse solve runs on the slit x + 2i sqrt(t);
        # read as a sum of the two ends it was off by ulps at most stages,
        # which swamped the solve (RK4 stages divided 0 by 0, and DOP853
        # steps crawled on, rejected)
        text = serialize_config(SceneConfig(curve_and_charge(random.Random(0)), outputs=OUTPUT_KINDS))
        cfg, out = tmp_path / "far.yaml", tmp_path / "out"
        cfg.write_text(_mutate(text, "far", 0))
        assert 'growth:\n  - "2.0665311091502883e+300"' in cfg.read_text()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = cli(capsys, "run", "--config", str(cfg), "--out", str(out), "--T", "0.01")
        assert code == 0
        rows = [line.split(",") for line in (out / "hull.csv").read_text().splitlines()[1:]]
        assert len(rows) == runner.HULL_SAMPLES
        for t, _, re_, im in rows:
            assert float(re_) == 2.0665311091502883e300
            assert abs(float(im) - 2.0 * math.sqrt(float(t))) <= 1e-15

    @pytest.mark.parametrize(
        "text, note",
        [
            # bracketed in [0.00597758893, 0.00597758895] (RK4
            # steps: [0.00597758837, 0.00597758952])
            pytest.param(ROUNDED_DISK_PAIRS, "note: driving collision bracketed in [0.005977588", id="disk-pairs"),
            pytest.param(NEAR_AXIS_POINT, None, id="near-axis"),
            # bracketed in [0.00253172782, 0.00253172782], 3.8e-12 wide, as
            # with the pairs listed adjacent; RK4 steps' estimates summed to
            # [0.00253172765, 0.00253172799]
            pytest.param(PAIRS_APART, "note: driving collision bracketed in [0.0025317278", id="pairs-apart"),
        ],
    )
    def test_flows_on_rounded_mirrors_run_and_verify(self, tmp_path, capsys, text, note):
        cfg, out = tmp_path / "scene.yaml", tmp_path / "out"
        cfg.write_text(text)
        code, stdout, stderr = cli(capsys, "run", "--config", str(cfg), "--out", str(out))
        assert (code, stderr) == (0, "")
        notes = [line for line in stdout.splitlines() if line.startswith("note:")]
        if note is None:
            assert notes == []
        else:
            assert len(notes) == 1 and notes[0].startswith(note), notes
        code, stdout, stderr = cli(capsys, "verify", "--config", str(cfg))
        assert (code, stderr) == (0, ""), stdout

    def test_flow_state_that_is_not_finite_exits_3_without_artifacts(self, tmp_path, capsys, monkeypatch):
        nan_after(monkeypatch, 30)
        cfg = tmp_path / "fig2.yaml"
        cfg.write_text("preset: fig2\noutputs: [hull_csv, motion_report]\n")
        out = tmp_path / "out"
        code, _, stderr = cli(capsys, "run", "--config", str(cfg), "--out", str(out))
        assert code == 3
        assert "integration failure: flow state is not finite at t=" in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, scene, outputs",
        [
            pytest.param("run", ON_DRIVING, "motion_report", id="run"),
            pytest.param("verify", ON_DRIVING, "motion_report", id="verify"),
            pytest.param("run", ON_MARKED, "motion_report", id="run-on-marked-point"),
            # the observers are checked by the flow, whatever the outputs
            pytest.param("run", ON_DRIVING, "hull_csv", id="run-hull-only"),
            pytest.param("run", ON_MARKED, "hull_csv", id="run-hull-only-on-marked-point"),
        ],
    )
    def test_observer_on_a_driving_point_exits_1(self, tmp_path, capsys, command, scene, outputs):
        marked, tracked, message = scene
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(
            f'domain: half_plane\ngrowth: ["0"]\n{marked}{tracked}outputs: [{outputs}]\n'
        )
        out = tmp_path / "out"
        out_args = ["--out", str(out)] if command == "run" else []
        code, _, stderr = cli(capsys, command, "--config", str(cfg), "--T", "0.01", *out_args)
        assert code == 1
        assert f"invalid scene: {message}" in stderr
        assert "Traceback" not in stderr
        assert not out.exists()

    def test_every_error_class_exits_with_its_readme_code(self, tmp_path, capsys, monkeypatch):
        # each row of the README's exit-code table names the classes it covers
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        documented = {
            name: int(code)
            for code, meaning in re.findall(r"^\| (\d) \| (.*) \|$", readme, re.M)
            for name in re.findall(r"`(\w+Error)`", meaning)
        }
        classes, todo = [], [SleZeroError]
        while todo:
            classes.append(todo.pop())
            todo.extend(classes[-1].__subclasses__())
        assert set(documented) <= {cls.__name__ for cls in classes}
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(SINGLE)
        for cls in classes:
            code = next(documented[k.__name__] for k in cls.__mro__ if k.__name__ in documented)
            exc = cls([(2, "boom")]) if cls is ConfigError else cls("boom")

            def boom(scene, out_dir, exc=exc):
                raise exc

            monkeypatch.setattr(runner, "run", boom)
            assert cli(capsys, "run", "--config", str(cfg)) == (code, "", f"{cls.prefix}{exc}\n"), cls

    def test_other_domain_errors_exit_1(self, tmp_path, capsys, monkeypatch):
        def boom(scene, out_dir):
            raise DegenerateConfigurationError("invalid divisor: no growth points")

        monkeypatch.setattr(runner, "run", boom)
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(SINGLE)
        code, _, stderr = cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "invalid scene" in stderr


# two curves, a conjugate marked pair and a real marked point: the points an
# observer may not start on
PLACEMENT_SCENE = (
    'domain: half_plane\ngrowth: ["-1", "1"]\nmarked:\n'
    '  - point: "0.5+1i"\n    charge: "-1"\n  - point: "0.5-1i"\n    charge: "-1"\n'
    '  - point: "3"\n    charge: "-1"\n  - point: inf\n    charge: "-1"\n'
)
SINGULAR = (-1.0, 1.0, 0.5 + 1j, 0.5 - 1j, 3.0)
OFFSETS = (0.0, 1e-12, 1e-9, 1e-7)
FLOW_OUTPUTS = (["hull_csv"], ["motion_report"], ["hull_csv", "motion_report"])
ARTIFACTS = {"hull_csv": "hull.csv", "motion_report": "motion_report.json"}

placements = st.one_of(
    # on a driving or finite marked point, or next to one
    st.builds(
        lambda w, offset, turn: w + offset * complex(math.cos(turn), math.sin(turn)),
        st.sampled_from(SINGULAR),
        st.sampled_from(OFFSETS),
        st.floats(0.0, 2.0 * math.pi),
    ),
    st.builds(complex, st.floats(-4.0, 4.0), st.floats(0.01, 4.0)),
    st.builds(
        lambda size, turn: size * complex(math.cos(turn), math.sin(turn)),
        st.sampled_from((1e100, 1e200, 1e300, 1.5e308)),
        st.floats(0.0, math.pi),
    ),
)


def _literal(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}i"


def _finite_only(value):
    raise ValueError(f"{value} in a report")


class TestObserverPlacements:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(placements, min_size=1, max_size=3), st.sampled_from(FLOW_OUTPUTS), st.sampled_from((None, 1e-12)))
    # a hull alone needs the observers checked too
    @example([-1.0], ["hull_csv"], None)
    # (g - x)^2 overflows in the rate of log g', a component of the flow
    # state: the state is not finite, in a fixed step and, before its
    # estimate is read, in an error-controlled one
    @example([1e200 + 1e200j], ["motion_report"], None)
    @example([1e200 + 1e200j], ["motion_report"], 1e-12)
    def test_every_placement_ends_in_artifacts_or_its_exit_code(self, tracked, outputs, tol):
        run_placement(tracked, outputs, tol)

    @pytest.mark.parametrize("tol", [None, 1e-12])
    def test_an_observer_whose_log_gprime_overflows_exits_3(self, tol):
        code, stderr = run_placement([1e200 + 1e200j], ["motion_report"], tol)
        assert code == 3 and stderr.startswith("integration failure: flow state is not finite at t=0 "), stderr


def run_placement(tracked, outputs, tol):
    """Runs the placement scene with observers ``tracked``, asks for
    ``outputs``, and checks that it ends in its artifacts or its exit code:
    (exit code, stderr)."""
    tol_line = "" if tol is None else f"  tol: {tol}\n"
    cfg_text = (
        PLACEMENT_SCENE
        + f"loewner:\n  T: 0.01\n  dt: 1.0e-3\n{tol_line}  tracked: {[_literal(z) for z in tracked]}\n"
        + f"outputs: {outputs}\n"
    ).replace("'", '"')
    starts_on_one = any(
        math.hypot((z - w).real, (z - w).imag) < loewner.COLLISION_TOL for z in tracked for w in SINGULAR
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "scene.yaml", Path(tmp) / "out"
        cfg.write_text(cfg_text)
        err = io.StringIO()
        # a traceback or a numpy warning fails the test
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert (code == 1) == starts_on_one, err.getvalue()
        assert code in (0, 1, 3), err.getvalue()
        if code:
            assert not out.exists()
        if code == 3:
            assert err.getvalue().startswith("integration failure:")
        if code == 0:
            assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS[o] for o in outputs)
            if "motion_report" in outputs:
                json.loads((out / "motion_report.json").read_text(), parse_constant=_finite_only)
            if "hull_csv" in outputs:
                rows = (out / "hull.csv").read_text().splitlines()[1:]
                assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
    return code, err.getvalue()


# the prefixes of the README's exit-code table, each followed by one line
PREFIXES = {1: ("config error:\n", "invalid scene: ", "cannot "), 2: (), 3: ("integration failure: ",)}
MUTATIONS = ("coincide", "off_boundary", "charge", "drop_marked", "far")


def _lines_of(lines: list[str], start: str) -> list[int]:
    return [i for i, line in enumerate(lines) if line.startswith(start)]


def _mutate(text: str, mutation: str, pick: int) -> str:
    """A generated scene's YAML with one divisor entry changed: a point put
    onto another, a growth point moved off the boundary, a charge shifted by
    1/2, a marked entry (a symmetry partner or a point of its own) dropped,
    or a finite point scaled by 1e300. Every mutation but ``far`` makes the
    divisor inadmissible."""
    lines = text.splitlines(keepends=True)
    growth = _lines_of(lines, '  - "')
    points = growth + _lines_of(lines, "  - point: ")

    def literal(i: int) -> str:
        return lines[i].split('"')[1]

    def value(i: int) -> SpherePoint:
        return parse_point(literal(i))

    def put(i: int, literal: str) -> None:
        head, _, tail = lines[i].split('"')
        lines[i] = f'{head}"{literal}"{tail}'

    if mutation == "coincide":
        i, j = (points[(pick + k) % len(points)] for k in (0, 1))
        put(j, literal(i))
    elif mutation == "off_boundary":
        i = growth[pick % len(growth)]
        put(i, format_complex(value(i).value * (1 + 0.5j)))
    elif mutation == "charge":
        i = _lines_of(lines, "    charge: ")[pick % (len(points) - len(growth))]
        put(i, str(as_charge(literal(i)) + Fraction(1, 2)))
    elif mutation == "drop_marked":
        i = points[len(growth) + pick % (len(points) - len(growth))]
        del lines[i : i + 2]
    else:
        finite = [i for i in points if value(i).finite]
        i = finite[pick % len(finite)]
        put(i, format_complex(value(i).value * 1e300))
    return "".join(lines)


def _one_line_after_its_prefix(code: int, stderr: str) -> bool:
    if code in (0, 2):
        return stderr == ""
    message = next((stderr[len(p):] for p in PREFIXES[code] if stderr.startswith(p)), "")
    return message.endswith("\n") and message.count("\n") == 1


def curve_and_charge(rng: random.Random) -> SymmetricDivisor:
    """One curve and a charge -3 on the real line: no point at infinity."""
    x, q = distinct_reals(rng, 2)
    return SymmetricDivisor.half_plane([x], [(q, -3)])


def whole_scene(generator, seed: int) -> str:
    """A scene with every output: a generated divisor with its marked
    points shuffled, so that a pair may be listed apart, per-curve rates with
    at most one breakpoint, 0-3 observers, and fixed or error-controlled
    flow steps."""
    rng = random.Random(seed)
    div = generator(rng)
    T = 0.05
    schedules = []
    for _ in div.growth:
        schedules.append(((0.0, rng.uniform(0.2, 3.0)),))
        if rng.random() < 0.5:
            schedules[-1] += ((rng.uniform(0.001, T), rng.uniform(0.2, 3.0)),)
    tracked = tuple(complex(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0)) for _ in range(rng.randint(0, 3)))
    lo = LoewnerParams(T=T, dt=0.01, tol=rng.choice((None, 1e-12)), tracked=tracked)
    marked = list(div.marked)
    rng.shuffle(marked)
    div = SymmetricDivisor(div.domain, div.growth, tuple(marked))
    return serialize_config(SceneConfig(div, loewner=lo, rates=Parametrization(tuple(schedules)), outputs=OUTPUT_KINDS))


class TestWholeScenes:
    @settings(max_examples=20, deadline=None, derandomize=True, database=None,
              report_multiple_bugs=False, suppress_health_check=[HealthCheck.too_slow])
    @given(st.builds(whole_scene, st.sampled_from((half_plane_divisor, disk_divisor)), st.integers(0, 2**32)))
    @example(ROUNDED_DISK_PAIRS)
    @example(NEAR_AXIS_POINT)
    @example(PAIRS_APART)
    @example(STAGE_ON_DRIVING_POINT)
    def test_every_scene_ends_in_artifacts_or_its_exit_code(self, text):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            # a conjugate pair swallowed between two driving points stalls the
            # flow; at this budget it ends in exit 3 in about 2 s
            patch.setattr(loewner, "STEP_BUDGET", 20_000)
            cfg, out = Path(tmp) / "scene.yaml", Path(tmp) / "out"
            cfg.write_text(text)
            for argv in (["run", "--config", str(cfg), "--out", str(out)], ["verify", "--config", str(cfg)]):
                err = io.StringIO()
                # a traceback or a numpy warning fails the test
                with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    warnings.simplefilter("error")
                    code = main(argv)
                # the scene is valid, so it never ends in exit 1: a flow the
                # divisor admits is no validation failure
                assert code in ((0, 3) if argv[0] == "run" else (0, 2, 3)), err.getvalue()
                assert _one_line_after_its_prefix(code, err.getvalue()), err.getvalue()


class TestDivisorMutations:
    # report_multiple_bugs off: the examples after a failing one may not end
    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              report_multiple_bugs=False, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.sampled_from((half_plane_divisor, disk_divisor, curve_and_charge)),
        st.integers(0, 2**32),
        st.integers(0, 100),
    )
    # the growth point near 1e300 overflowed the Moebius check's derivative
    @example(curve_and_charge, 0, 0)
    # the trajectory from a growth point near 1e300 took steps that did not
    # move it, without end; and a point near 1e300 coincides on the sphere
    # with the point at infinity, which refuses the divisor
    @example(half_plane_divisor, 823624394, 89)
    def test_every_mutation_ends_in_artifacts_or_its_exit_code(self, generator, seed, pick):
        text = serialize_config(SceneConfig(generator(random.Random(seed)), outputs=OUTPUT_KINDS))
        for mutation in MUTATIONS:
            with tempfile.TemporaryDirectory() as tmp:
                cfg, out = Path(tmp) / "scene.yaml", Path(tmp) / "out"
                cfg.write_text(_mutate(text, mutation, pick))
                for argv in (
                    ["verify", "--config", str(cfg), "--suite", "invariance"],
                    ["run", "--config", str(cfg), "--out", str(out), "--T", "0.01", "--max-arc", "3"],
                ):
                    err = io.StringIO()
                    # a traceback or a numpy warning fails the test
                    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        warnings.simplefilter("error")
                        code = main(argv)
                    assert code in ((0, 1, 3) if argv[0] == "run" else (0, 1, 2, 3)), err.getvalue()
                    assert _one_line_after_its_prefix(code, err.getvalue()), err.getvalue()
                    if mutation != "far":
                        assert code == 1 and err.getvalue().startswith("config error:\n"), err.getvalue()
