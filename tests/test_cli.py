"""End-to-end command-line behavior and exit-code contract."""

import contextlib
import io
import json
import math
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import nan_after
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from slezero import conformal, loewner, runner
from slezero.cli import main
from slezero.errors import DegenerateConfigurationError, InversionFailureError
from slezero.scene import parse_config, preset

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
        # fixed steps reject nothing; the presets' error control does
        for text in (SINGLE, "preset: fig2\noutputs: [motion_report]\n"):
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
        # a short horizon and a large lift keep the flow cheap: only the
        # call counts matter here
        scene = preset("fig1")
        scene = replace(scene, loewner=replace(scene.loewner, T=0.002, dt=1e-4, lift=1e-2))
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

    def test_tolerance_breach_exits_2(self, tmp_path, capsys):
        # an absurd boundary lift drags the hull samples off the curves
        cfg = tmp_path / "scene.yaml"
        cfg.write_text("preset: fig1\nloewner:\n  dt: 0.0001\n  lift: 0.3\n")
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
        # T/dt = 1e6 steps fit the step budget, but not with 1024 observers
        tracked = "".join(f'    - "{k / 100.0!r}+2i"\n' for k in range(1024))
        cfg = tmp_path / "crowd.yaml"
        cfg.write_text(
            'domain: half_plane\ngrowth: ["-1", "1"]\nmarked:\n  - point: inf\n    charge: "-4"\n'
            f"loewner:\n  T: 1\n  dt: 1.0e-6\n  tol: 1.0e-10\n  tracked:\n{tracked}"
            "outputs: [motion_report]\n"
        )
        out = tmp_path / "out"
        start = time.perf_counter()
        code, _, stderr = cli(capsys, "run", "--config", str(cfg), "--out", str(out))
        assert time.perf_counter() - start < 2.0
        assert code == 3
        assert "integration failure: 1000001 states of 1024 observers exceed the history budget" in stderr
        assert not out.exists()

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

    def test_other_domain_errors_exit_1(self, tmp_path, capsys, monkeypatch):
        def boom(scene, out_dir):
            raise DegenerateConfigurationError("transported divisor invalid: no growth points")

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
    @given(st.lists(placements, min_size=1, max_size=3), st.sampled_from(FLOW_OUTPUTS))
    # a hull alone needs the observers checked too
    @example([-1.0], ["hull_csv"])
    # (g - x)^2 overflows in the log g' quadrature
    @example([1e200 + 1e200j], ["motion_report"])
    def test_every_placement_ends_in_artifacts_or_its_exit_code(self, tracked, outputs):
        cfg_text = (
            PLACEMENT_SCENE
            + f"loewner:\n  T: 0.01\n  dt: 1.0e-3\n  tracked: {[_literal(z) for z in tracked]}\n"
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
