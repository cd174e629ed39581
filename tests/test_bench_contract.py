"""What the benchmark in bench/ reads of the package.

The benchmark interpolates recorded states, rebinds module attributes to
trace them, and reports counts taken from a traced command. A change that
breaks any of these fails here in about a second.
"""

import json
import pathlib
import sys
from dataclasses import replace

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import scenes as bench_scenes  # noqa: E402
import tracer as bench_tracer  # noqa: E402
from slezero import cli, conformal, divisors, loewner, outputs, quadratic, runner, scene, tracing  # noqa: E402
from slezero.divisors import SymmetricDivisor  # noqa: E402
from slezero.loewner import Parametrization, evolve  # noqa: E402

TRACED = (cli, conformal, divisors, loewner, outputs, quadratic, runner, scene, tracing)


def test_x_at_reproduces_the_recorded_states():
    pair = SymmetricDivisor.half_plane([-1.0, 1.0], [("inf", -4)])
    # a rate breakpoint records its state twice, with the same time
    nu = Parametrization((((0.0, 1.0), (0.1234567, 2.0)), ((0.0, 1.0),)))
    ev = evolve(pair, 0.2, 1e-3, nu)
    assert len({s.t for s in ev.states}) == len(ev.states) - 1
    for state in ev.states:
        assert bench_run.x_at(ev, state.t) == list(state.x)


# windows of t before the tail (None: to the switch, or the end) and the
# record error of the RK4 flow in each, the cubic Hermite of its states
# against a flow at tol 1e-17
RECORD_WINDOWS = {
    "fig1": ((0.0, 0.04, 3.8e-13), (0.04, 0.045, 5.3e-13), (0.045, 0.048, 2.2e-12), (0.048, None, 2.7e-12)),
    "fig2": ((0.0, None, 1.0e-13),),
    "fig3": ((0.0, None, 6.0e-13),),
}


@pytest.mark.parametrize("name", sorted(RECORD_WINDOWS))
def test_the_recorded_states_keep_the_flow_under_cubic_hermite(name):
    # the driving paths that the hull and the bench read between states
    # are the cubic Hermite of the record: with DOP853's dense output
    # filling it, at the midpoints of its intervals, fig1 is 1.2e-13,
    # 1.4e-13, 1.5e-13 and 1.5e-13 off in its windows, fig2 3.3e-14 and
    # fig3 6.7e-14; a record of step ends alone is off by about 1e-7
    sc = scene.preset(name)
    lo = sc.loewner
    div = runner._flow_divisor(sc)
    ev = evolve(div, lo.T, lo.dt, sc.rates, lo.tracked, lo.tol)
    fine = evolve(div, lo.T, lo.dt, sc.rates, lo.tracked, 1e-17)
    ts = np.array([st.t for st in ev.states])
    switch = ev.states[ev.tail[0][0]].t if ev.tail else ev.final.t
    mids = 0.5 * (ts[:-1] + ts[1:])
    mids = mids[(ts[1:] > ts[:-1]) & (ts[1:] <= switch)]
    err = np.abs(loewner._DrivingPaths(ev).at(mids) - loewner._DrivingPaths(fine).at(mids)).max(axis=0)
    for lo_t, hi_t, limit in RECORD_WINDOWS[name]:
        inside = (mids >= lo_t) & (mids <= (switch if hi_t is None else hi_t))
        assert inside.any() and err[inside].max() <= limit, (lo_t, hi_t, err[inside].max())
    if name == "fig1":
        # the presets workload's x_final_err: 9.3e-13 with the RK4 record
        ref = json.loads((BENCH / "data" / "presets.json").read_text())["scenes"]["fig1"]
        x = bench_run.x_at(ev, ref["t"])
        assert max(abs(a - b) for a, b in zip(x, ref["x"])) <= 1e-9


def test_tracer_install_and_uninstall_restore_every_attribute():
    before = [dict(vars(m)) for m in TRACED]
    rates = vars(loewner.Parametrization)["rates"]
    write_text = vars(pathlib.Path)["write_text"]
    t = bench_tracer.Tracer()
    t.install()
    try:
        assert loewner.evolve is not before[TRACED.index(loewner)]["evolve"]
        assert divisors.dlog_Z is not before[TRACED.index(divisors)]["dlog_Z"]
    finally:
        t.uninstall()
    for module, attrs in zip(TRACED, before):
        assert vars(module) == attrs, module.__name__
    assert vars(loewner.Parametrization)["rates"] is rates
    assert vars(pathlib.Path)["write_text"] is write_text


def test_traced_verify_counts_one_evolution():
    sc = scene.single_curve_scene()
    sc = replace(sc, loewner=replace(sc.loewner, T=0.05))
    t = bench_tracer.Tracer()
    t.install()
    try:
        ok, _ = runner.verify(sc, "all")
        t.end_command()
    finally:
        t.uninstall()
    assert ok
    metrics = t.take_pass(0)["metrics"]
    assert metrics["loewner.evolve_calls"] == 1
    assert metrics["divisors.dlog_Z_calls"] > 0
    # fifteen velocity evaluations per step: stages 1 to 11, the end's and
    # the dense output's three; the scene's x is constant, so no interior
    # state is recorded
    assert metrics["divisors.dlog_Z_calls_per_state"] < 15.5


def test_traced_run_reports_every_observer_in_one_call(tmp_path):
    # a many-curves scene in small: several curves, a marked pair, observers
    observers = ["2i", "-1+0.5i", "0.3+1.5i", "3+3i", "-2.5+0.2i"]
    cfg = tmp_path / "many.yaml"
    cfg.write_text(
        'domain: half_plane\ngrowth: ["-2", "-0.5", "1", "2.5"]\nmarked:\n'
        '  - point: "0.5+1i"\n    charge: "-1"\n  - point: "0.5-1i"\n    charge: "-1"\n'
        '  - point: inf\n    charge: "-4"\n'
        f"loewner:\n  T: 0.02\n  dt: 0.001\n  tracked: {observers}\noutputs: [motion_report]\n"
    )
    t = bench_tracer.Tracer()
    t.install()
    try:
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        t.end_command()
    finally:
        t.uninstall()
    traced = t.take_pass(0)
    assert traced["layers"]["loewner.motion_integral"]["calls"] == 1
    assert traced["metrics"]["loewner.observers"] == len(observers)


def test_hull_makes_no_rate_lookups():
    div, _ = conformal.transport(scene.preset("fig1").divisor, divisors.HALF_PLANE)
    t = bench_tracer.Tracer()
    t.install()
    try:
        ev = loewner.evolve(div, 0.1, 1e-4)
        evolve_pass = t.take_pass(0)["metrics"]
        first = len(t.spans)
        loewner.trace_hull(ev, [ev.final.t * k / 4 for k in range(5)])
        hull_pass = t.take_pass(first)["metrics"]
    finally:
        t.uninstall()
    assert evolve_pass["loewner.rates_calls"] > 0
    # the schedules are looked up once, so the bench's count is the evolution's
    assert hull_pass["loewner.rates_calls"] == 0
    assert hull_pass["loewner.hull_samples"] == 15


def test_traced_presets_take_few_flow_states(tmp_path):
    # the shipped figures step under error control: at the fixed dt = 1e-5
    # they took 25,297 states
    t = bench_tracer.Tracer()
    t.install()
    try:
        for name in scene.PRESET_NAMES:
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(f"preset: {name}\noutputs: [motion_report]\n")
            assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            t.end_command()
    finally:
        t.uninstall()
    metrics = t.take_pass(0)["metrics"]
    assert metrics["loewner.evolve_calls"] == 3
    assert metrics["loewner.states"] < 4000
    # at most 4.1 evaluations per state: rejected steps stay rare, and the
    # end-of-step velocities are reused as the next step's first stage
    assert metrics["divisors.dlog_Z_calls_per_state"] <= 4.1
    # RK4 steps took 8,215 evaluations; DOP853 steps, with the dense
    # output's three per step, take 2,238
    assert metrics["divisors.dlog_Z_calls"] <= 8215 / 3


def hull_field_calls(name, monkeypatch):
    """The ``_common_field`` calls of the 33-time hull of a preset run."""
    sc = scene.preset(name)
    lo = sc.loewner
    ev = evolve(runner._flow_divisor(sc), lo.T, lo.dt, sc.rates, lo.tracked, lo.tol)
    field = loewner._common_field
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return field(*args)

    monkeypatch.setattr(loewner, "_common_field", counted)
    loewner.trace_hull(ev, runner._hull_times(ev.final.t))
    return calls[0]


def test_fig1_hull_takes_few_reverse_evaluations(monkeypatch):
    # the 33-time hull of a fig1 run takes 516 evaluations in DOP853 steps,
    # 43 sweeps of twelve (560 in RK4 steps); a solve stepped in s took 792
    # sweeps of four evaluations each
    assert hull_field_calls("fig1", monkeypatch) <= 4 * 792 / 3


def test_fig2_hull_sizes_its_slit_starts_by_their_h2_law(monkeypatch):
    # twelve calls per sweep: 23 sweeps where a rejected first step from
    # the slit is retried at 0.9 (tol/err)^(1/2); retried at the h^8 law,
    # its samples rejected about ten times each, in 32 sweeps
    assert hull_field_calls("fig2", monkeypatch) <= 12 * 24


def test_many_observers_and_only_they_take_the_array_field(monkeypatch):
    # the observers' common field and log g' rates run on arrays from
    # ARRAY_QUOTIENTS driving point x observer quotients, all in one array
    # of quotients: never for a preset's one observer, once per velocity
    # evaluation for the 10 x 128 of a many-curves scene
    quotients = loewner._quotients
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return quotients(*args)

    monkeypatch.setattr(loewner, "_quotients", counted)
    fig1 = scene.preset("fig1")
    lo = fig1.loewner
    evolve(runner._flow_divisor(fig1), lo.T, lo.dt, fig1.rates, lo.tracked, lo.tol)
    assert calls[0] == 0

    many = scene.parse_config(bench_scenes.many_scene(0))
    lo = replace(many.loewner, T=many.loewner.T / 10)
    assert len(many.divisor.growth) * len(lo.tracked) == 1280
    t = bench_tracer.Tracer()
    t.install()
    try:
        evolve(runner._flow_divisor(many), lo.T, lo.dt, many.rates, lo.tracked, lo.tol)
        metrics = t.take_pass(0)["metrics"]
    finally:
        t.uninstall()
    assert calls[0] == metrics["divisors.dlog_Z_calls"] > 0


def test_field_scenes_keep_their_recorded_analysis():
    # far-field steps resample the trajectories that run to infinity, and
    # the verdicts read the differential's singularity table, but every
    # field scene ends as bench/data/field.json records: the same
    # terminals, pair count and spiral count. 40, 175 and 206 run out of
    # arc on the half-plane, and so do the four curves of 68 and 115, two
    # of the heaviest scenes, whose far steps are tolerance-bound at
    # |z| = 20 to 50; the rest are every scene with a recorded pair or
    # spiral that costs under 0.1 s (81 and 143 have a spiral and a pair on
    # the half-plane, 165 is a disk scene with a pair).
    pool = json.loads((BENCH / "data" / "field.json").read_text())["scenes"]
    verdicts = [
        sid
        for sid, rec in sorted(pool.items(), key=lambda kv: int(kv[0]))
        if (rec["pairs"] or rec["spirals"]) and rec["cost_s"] < 0.1
    ]
    assert {"81", "143", "165"} <= set(verdicts) and len(verdicts) >= 20
    exhausted = 0
    for sid in ("40", "175", "206", "68", "115", *verdicts):
        sc = scene.parse_config(bench_scenes.field_scene(int(sid)))
        qd = quadratic.build_Q(sc.divisor)
        trajectories = tracing.launch_all(qd, sc.trace)
        report = tracing.analyze(trajectories, qd)
        got = {
            "terminals": [t.terminal.kind for t in trajectories],
            "pairs": len(report.pairs),
            "spirals": len(report.spirals),
        }
        assert got == {key: pool[sid][key] for key in got}, sid
        exhausted += got["terminals"].count("exhausted_arc_length")
    assert exhausted >= 12
