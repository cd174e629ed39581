"""Horizontal trajectory integration, launching, and asymptotic analysis."""

import cmath
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_real_locus, real_locus

from slezero import quadratic, tracing
from slezero.divisors import DISK, HALF_PLANE, SymmetricDivisor
from slezero.errors import LaunchError, StepBudgetError, WindingUndefinedError
from slezero.outputs import analysis_payload, report_text
from slezero.quadratic import QuadDifferential, build_Q
from slezero.scene import PRESET_NAMES, preset
from slezero.tracing import (
    Terminal,
    TraceParams,
    Trajectory,
    analyze,
    launch_all,
    trace,
)


def winding_about(points, base: complex) -> float:
    """The winding ``analyze`` reports for a polyline about one marked point."""
    traj = Trajectory(
        points=tuple(points),
        arc_lengths=tuple(float(k) for k in range(len(points))),
        terminal=Terminal("exhausted_arc_length"),
        initial_dir=1 + 0j,
    )
    qd = QuadDifferential(HALF_PLANE, ((complex(base), -1),), 0)
    ((q, w),) = analyze([traj], qd).windings[0]
    assert q == base
    return w


def two_slit_qd() -> QuadDifferential:
    # (z^2 - 1)^2: zeros at +-1, horizontal trajectories Im(z^3/3 - z) const
    return build_Q(SymmetricDivisor.half_plane([-1.0, 1.0], [("inf", -4)]))


def G(z: complex) -> complex:
    """First integral of ``two_slit_qd``: Q = G'(z)^2."""
    return z**3 / 3 - z


@pytest.fixture(scope="module")
def figure_runs():
    out = {}
    for name in PRESET_NAMES:
        sc = preset(name)
        qd = build_Q(sc.divisor)
        out[name] = (qd, launch_all(qd, sc.trace))
    return out


class TestTrace:
    def test_vertical_ray_from_single_growth_point(self):
        qd = build_Q(SymmetricDivisor.half_plane([0.0], [("inf", -3)]))
        trajs = launch_all(qd, TraceParams(max_arc_length=5.0))
        assert len(trajs) == 1
        traj = trajs[0]
        assert traj.terminal.kind == "exhausted_arc_length"
        assert traj.arc_length >= 5.0
        assert max(abs(z.real) for z in traj.points) < 1e-9
        assert traj.points[-1].imag == pytest.approx(5.0, abs=1e-2)

    def test_first_integral_held_along_hyperbola(self):
        qd = two_slit_qd()
        traj = trace(qd, 1.0, 1j, TraceParams(max_arc_length=3.0))
        assert traj.terminal.kind == "exhausted_arc_length"
        # launch from the zero at 1 stays on x^2 - y^2/3 = 1
        worst = max(abs(z.real**2 - z.imag**2 / 3 - 1) for z in traj.points[1:])
        assert worst < 1e-5

    def test_reverse_trace_returns_to_the_zero(self):
        qd = two_slit_qd()
        fwd = trace(qd, 1.0, 1j, TraceParams(max_arc_length=3.0))
        back = trace(
            qd,
            fwd.points[-1],
            fwd.points[-2] - fwd.points[-1],
            TraceParams(max_arc_length=4.0),
        )
        assert back.terminal.kind == "reached_singularity"
        assert back.terminal.point == 1.0
        # the back trace stays on the forward trace's level set of the
        # first integral Im G, G = z^3/3 - z, on any step grid
        level = G(fwd.points[-1]).imag
        for z in back.points:
            assert abs(G(z).imag - level) / abs(z * z - 1) <= 1e-9

    def test_mirror_symmetry(self):
        # the field is invariant under z -> -conj(z); traces must mirror
        qd = two_slit_qd()
        start = 0.4 + 0.7j
        d = cmath.exp(0.3j)
        a = trace(qd, start, d, TraceParams(max_arc_length=1.5))
        b = trace(qd, -start.conjugate(), -d.conjugate(), TraceParams(max_arc_length=1.5))
        assert len(a.points) == len(b.points)
        for za, zb in zip(a.points, b.points):
            assert abs(zb - (-za.conjugate())) < 1e-12

    def test_leaves_domain_at_predicted_point(self):
        # zero below the axis: trajectories 2x(y+1) = const cross it
        qd = QuadDifferential(HALF_PLANE, ((-1j, 2),), 0)
        traj = trace(qd, 0.5 + 0.1j, 0.5 - 1.1j, TraceParams(max_arc_length=5.0))
        assert traj.terminal.kind == "left_domain"
        last = traj.points[-1]
        assert last.imag < 1e-6
        assert last.real == pytest.approx(0.55, abs=2e-3)
        assert 2 * last.real * (last.imag + 1) == pytest.approx(1.1, abs=1e-9)

    def test_a_stage_on_a_factor_point_ends_the_trace_there(self):
        # a step of 1e-3 towards the pole from just outside its capture disk
        # lands a stage within 1e-9 of it
        qd = QuadDifferential(DISK, ((0j, -2),), 0)
        traj = trace(qd, 1.000001e-3, -1, TraceParams(step=1e-3, capture_radius=1e-3))
        assert traj.points == (1.000001e-3,)
        assert traj.terminal == Terminal("reached_singularity", 0j)

    def test_a_near_step_lost_to_rounding_is_refused(self):
        # next to 1e300, where a step of 1e-3 does not move z
        qd = QuadDifferential(HALF_PLANE, ((1e300 + 0j, 2),), 1)
        with pytest.raises(StepBudgetError, match="cannot advance: a step of 0.001 is lost to rounding"):
            trace(qd, math.nextafter(1e300, math.inf), 1)

    def test_a_trace_stops_at_its_point_budget(self, monkeypatch):
        # far steps of about 100 along the ray of one growth point (test_cli
        # runs an arc of 1e300, which only the budget ends)
        qd = build_Q(SymmetricDivisor.half_plane([0.0], [("inf", -3)]))
        params = TraceParams(max_arc_length=1e4)
        n = len(trace(qd, 0j, 1j, params).points)
        monkeypatch.setattr(tracing, "TRACE_BUDGET", n)
        assert len(trace(qd, 0j, 1j, params).points) == n
        monkeypatch.setattr(tracing, "TRACE_BUDGET", n - 1)
        with pytest.raises(StepBudgetError, match=rf"trace from 0\.0 exceeded its budget of {n - 1} points at arc length 9\d{{3}}\.\d"):
            trace(qd, 0j, 1j, params)

    def test_windings_recorded_per_marked_point(self):
        qd = QuadDifferential(HALF_PLANE, ((-1j, 2),), 0)
        traj = trace(qd, 0.5 + 0.1j, 0.5 - 1.1j, TraceParams(max_arc_length=5.0))
        ((q, w),) = analyze([traj], qd).windings[0]
        assert q == -1j
        # less than a half turn: the angle the chord from start to exit
        # subtends at the zero
        chord = cmath.phase((traj.points[-1] + 1j) / (traj.points[0] + 1j))
        assert w == pytest.approx(chord, abs=1e-12)


def far_radius(qd: QuadDifferential) -> float:
    """Twice the largest |p| over the factors: the far field lies beyond."""
    return 2.0 * max(abs(p) for p, _ in qd.factors)


def real_locus_scenes():
    rng = random.Random(1)
    return [real_locus(-0.7, -0.4 + 0.8j), real_locus(1.2, 1 + 0.5j)] + [
        random_real_locus(rng) for _ in range(4)
    ]


def far_level_errors(scene) -> tuple[float, float]:
    """Worst level-set errors beyond the far radius of the trajectories that
    run to infinity from a few starts in the upper half-plane.

    The first number measures Im R against its value at the first point
    beyond the far radius, so only far-field steps contribute to it; the
    second against its value at the start. Level 0, the one of the growth
    points' separatrices, never reaches infinity: Im R = y F(z) with F -> 1.
    """
    qd = build_Q(scene.divisor)
    radius = far_radius(qd)
    drift = level = 0.0
    escaped = 0
    for start in (-0.5 + 0.25j, 0.5 + 3j):
        for direction in (1, -1):
            traj = trace(qd, start, direction)
            tail = [z for z in traj.points if abs(z) > radius]
            if traj.terminal.kind != "exhausted_arc_length" or not tail:
                continue
            escaped += 1
            entry = scene.R(tail[0]).imag
            drift = max(drift, max(scene.level_error(z, entry) for z in tail))
            level = max(level, max(scene.level_error(z, scene.R(start).imag) for z in tail))
    assert escaped >= 2
    return drift, level


class TestFarField:
    # the worst of each error over these scenes with 1e-3 steps throughout,
    # as the tracer stepped before far-field steps: 6.97e-14 and 7.19e-14
    DRIFT_BOUND = 6.9e-14
    LEVEL_BOUND = 7.1e-14

    @pytest.mark.parametrize("index", range(6))
    def test_far_field_keeps_the_real_locus_level(self, index):
        drift, level = far_level_errors(real_locus_scenes()[index])
        assert drift <= self.DRIFT_BOUND
        assert level <= self.LEVEL_BOUND

    @pytest.mark.parametrize(
        "qd",
        [
            two_slit_qd(),
            build_Q(real_locus(-0.7, -0.4 + 0.8j).divisor),
            # infinity a pole of order 12, as on the heavy field scenes
            build_Q(
                SymmetricDivisor.half_plane(
                    [-1.0, 0.5], [(0.3 + 1j, 1), (0.3 - 1j, 1), ("inf", -6)]
                )
            ),
        ],
    )
    def test_long_steps_only_beyond_the_far_radius(self, qd):
        params = TraceParams(max_arc_length=20.0)
        radius = far_radius(qd)
        launched = launch_all(qd, params)
        off_level = [trace(qd, 0.3 + 2j, d, params) for d in (1, -1)]
        # back from far out: long steps must shrink again inside the radius
        returns = [
            trace(qd, t.points[-1], t.points[-2] - t.points[-1], params)
            for t in launched + off_level
            if abs(t.points[-1]) > radius
        ]
        assert any(abs(z) <= radius for t in returns for z in t.points)
        # a chord of unit-speed stages is at most the step, up to the
        # rounding of the points and of the running arc sums
        limit = params.step + 1e-12
        long_steps = ended_far = 0
        for traj in launched + off_level + returns:
            pts, arcs = traj.points, traj.arc_lengths
            for k in range(len(pts) - 1):
                if abs(pts[k]) <= radius:
                    assert abs(pts[k + 1] - pts[k]) <= limit
                    assert arcs[k + 1] - arcs[k] <= limit
                elif arcs[k + 1] - arcs[k] > limit:
                    long_steps += 1
            if traj.terminal.kind == "exhausted_arc_length" and abs(pts[-2]) > radius:
                assert traj.arc_length == params.max_arc_length
                ended_far += 1
        assert long_steps > 0
        assert ended_far > 0

    @pytest.mark.parametrize(
        "start, rk4_level",
        # the worst level distances with the RK4(3) far steps the tracer
        # took before its Dormand-Prince 5(4) steps, 2.364e-15 and 1.614e-15;
        # 4.7e-16 and 8.1e-16 now
        [(1 + 1j, 2.37e-15), (0.3 + 2j, 1.62e-15)],
    )
    def test_far_steps_keep_the_hyperbolas_of_z_squared(self, start, rk4_level):
        # Q = z^2 has rho = 0, so every step is a far step; its trajectories
        # are the hyperbolas Im z^2 = c, a distance |Im z^2 - c| / (2|z|)
        qd = build_Q(SymmetricDivisor.half_plane([0.0], [("inf", -3)]))
        assert far_radius(qd) == 0.0
        level = (start * start).imag
        for direction in (1, -1):
            traj = trace(qd, start, direction, TraceParams(max_arc_length=50.0))
            assert traj.terminal.kind == "exhausted_arc_length"
            assert traj.arc_length == 50.0
            worst = max(abs((z * z).imag - level) / (2.0 * abs(z)) for z in traj.points)
            assert worst <= rk4_level
            if start == 1 + 1j and direction == 1:
                # 4,634 points with the RK4(3) far steps, 1,571 now
                assert len(traj.points) < 2000

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is not extended")
    def test_far_steps_meet_an_extended_precision_reference(self):
        # infinity a pole of order 12: from each exhausted trajectory's first
        # point beyond the far radius, fixed 1e-3 RK4 steps in long double
        # run to the same arc length. At 2e-3 that reference is itself off by
        # 2.3e-13 on the curves that start near the radius; at 1e-3 and 5e-4
        # it agrees with the tracer to 1.5e-14 and 3.0e-14, its own rounding.
        qd = build_Q(
            SymmetricDivisor.half_plane([-1.0, 0.5], [(0.3 + 1j, 1), (0.3 - 1j, 1), ("inf", -6)])
        )
        params = TraceParams(max_arc_length=20.0)
        radius = far_radius(qd)
        trajs = launch_all(qd, params) + [trace(qd, 0.3 + 2j, d, params) for d in (1, -1)]
        firsts = [next(k for k, z in enumerate(t.points) if abs(z) > radius) for t in trajs]
        assert [t.terminal.kind for t in trajs] == ["exhausted_arc_length"] * 4

        ld = np.longdouble
        pr = np.array([ld(p.real) for p, _ in qd.factors])
        pi_ = np.array([ld(p.imag) for p, _ in qd.factors])
        half = np.array([ld(order) / 2 for _, order in qd.factors])
        phase = ld(cmath.phase(qd.phase))

        def field(zr, zi, ref_r, ref_i):
            angle = phase + np.arctan2(zi[:, None] - pi_, zr[:, None] - pr) @ half
            ur, ui = np.cos(angle), -np.sin(angle)
            sign = np.where(ur * ref_r + ui * ref_i < 0, ld(-1), ld(1))
            return sign * ur, sign * ui

        zr = np.array([ld(t.points[k].real) for t, k in zip(trajs, firsts)])
        zi = np.array([ld(t.points[k].imag) for t, k in zip(trajs, firsts)])
        ur = np.array([ld((t.points[k + 1] - t.points[k]).real) for t, k in zip(trajs, firsts)])
        ui = np.array([ld((t.points[k + 1] - t.points[k]).imag) for t, k in zip(trajs, firsts)])
        rest = np.array([ld(params.max_arc_length) - ld(t.arc_lengths[k]) for t, k in zip(trajs, firsts)])
        steps = math.ceil(float(rest.max()) / 1e-3)
        h = rest / steps
        for _ in range(steps):
            k1r, k1i = field(zr, zi, ur, ui)
            k2r, k2i = field(zr + h / 2 * k1r, zi + h / 2 * k1i, k1r, k1i)
            k3r, k3i = field(zr + h / 2 * k2r, zi + h / 2 * k2i, k1r, k1i)
            ur, ui = field(zr + h * k3r, zi + h * k3i, k1r, k1i)
            zr = zr + h / 6 * (k1r + 2 * (k2r + k3r) + ur)
            zi = zi + h / 6 * (k1i + 2 * (k2i + k3i) + ui)
        gaps = [
            float(np.hypot(ld(t.points[-1].real) - a, ld(t.points[-1].imag) - b))
            for t, a, b in zip(trajs, zr, zi)
        ]
        # 6.5e-13, 3.6e-12, 1.7e-12 and 1.6e-12 with the RK4(3) far steps
        assert max(gaps) <= 1e-13

    def test_a_far_step_does_not_leave_the_half_plane(self):
        # the field benchmark's pool scene 72: its third curve runs out far
        # and comes back down to the real axis, where a long step used to
        # end 0.0175 below it. The steps that would leave are halved, so the
        # curve leaves within a near step, and the two others are untouched
        q = 1.7717688554613957 + 0.6060713802237692j
        div = SymmetricDivisor.half_plane(
            [1.919373429326665, -0.8322423105953702, -2.3604646712780086],
            [(q, -1), (q.conjugate(), -1), (2.908095653914316, Fraction(-3, 2)), ("inf", Fraction(-3, 2))],
        )
        qd = build_Q(div)
        params = TraceParams()
        trajs = launch_all(qd, params)
        assert [t.terminal.kind for t in trajs] == ["reached_singularity"] * 2 + ["left_domain"]
        assert [len(t.points) for t in trajs[:2]] == [1748, 5232]
        far = trajs[2]
        assert max(abs(z) for z in far.points) > far_radius(qd)
        assert -params.step < far.points[-1].imag < -tracing.DOMAIN_MARGIN
        assert all(z.imag >= -tracing.DOMAIN_MARGIN for z in far.points[:-1])


class TestLaunch:
    def test_zero_direction_rejected(self):
        with pytest.raises(LaunchError):
            trace(two_slit_qd(), 1.0, 0.0)

    def test_launch_from_pole_rejected(self):
        qd = build_Q(preset("fig1").divisor)
        with pytest.raises(LaunchError, match="pole"):
            trace(qd, -1.0, 1j)

    def test_off_separatrix_direction_rejected(self):
        qd = build_Q(SymmetricDivisor.half_plane([0.0], [("inf", -3)]))
        with pytest.raises(LaunchError, match="separatrix"):
            trace(qd, 0.0, cmath.exp(1j * (math.pi / 2 + 0.3)))

    def test_launch_direction_within_tolerance_is_kept(self):
        qd = build_Q(SymmetricDivisor.half_plane([0.0], [("inf", -3)]))
        direction = cmath.exp(1j * (math.pi / 2 + 5e-4))
        traj = trace(qd, 0.0, direction, TraceParams(max_arc_length=1.0))
        assert traj.points[0] == 0.0
        assert traj.points[1] == 1e-3 * direction
        assert traj.terminal.kind == "exhausted_arc_length"

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_one_trajectory_per_growth_point(self, name, figure_runs):
        qd, trajs = figure_runs[name]
        assert len(trajs) == qd.n_growth == 3
        for traj, info in zip(trajs, qd.singularities):
            assert traj.start == info.point
            assert traj.terminal.kind == "reached_singularity"

    @pytest.mark.parametrize(
        "growth, marked",
        [
            # growth points 5e-4 apart, inside each other's capture radius
            ([0.0, 5e-4], [("inf", -4)]),
            # a scene with unit spacing, scaled by 1e-4
            (
                [1e-4 * x for x in (-1.2, 0.3, 1.9)],
                [(1e-4 * (0.4 + 0.9j), -1), (1e-4 * (0.4 - 0.9j), -1), ("inf", -3)],
            ),
        ],
    )
    def test_every_curve_starts_on_its_own_growth_point(self, growth, marked):
        qd = build_Q(SymmetricDivisor.half_plane(growth, marked))
        trajs = launch_all(qd, TraceParams(max_arc_length=1e-2))
        assert [t.points[0] for t in trajs] == list(qd.growth_points)

    def test_one_singularity_table_per_differential(self, monkeypatch):
        # the table is built with the differential, not once per traced curve
        kernel = quadratic.line_field
        builds = [0]

        def counted(*args):
            builds[0] += 1
            return kernel(*args)

        monkeypatch.setattr(quadratic, "line_field", counted)
        qd = build_Q(preset("fig1").divisor)
        counts = []
        for n_growth in (1, 3):
            fresh = replace(qd, n_growth=n_growth)
            builds[0] = 0
            assert len(launch_all(fresh, preset("fig1").trace)) == n_growth
            counts.append(builds[0])
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("fig1", [-1.0, -1.0, -1.0]),
            ("fig2", [-1.0, 0.0, -1.0]),
            ("fig3", [0.5, 0.5, -1 / 3]),
        ],
    )
    def test_figure_capture_points(self, name, expected, figure_runs):
        _, trajs = figure_runs[name]
        for traj, target in zip(trajs, expected):
            assert traj.terminal.point == pytest.approx(target, abs=1e-12)


class TestWindingAngle:
    def test_closed_loop_winds_once(self):
        pts = [cmath.exp(2j * math.pi * k / 1024) for k in range(1025)]
        assert winding_about(pts, 0.0) == pytest.approx(2 * math.pi, abs=1e-9)

    def test_base_outside_loop(self):
        pts = [cmath.exp(2j * math.pi * k / 1024) for k in range(1025)]
        assert winding_about(pts, 3.0) == pytest.approx(0.0, abs=1e-9)

    def test_base_on_the_path_rejected(self):
        with pytest.raises(WindingUndefinedError):
            winding_about([0.0, 1.0, 1.0 + 1e-13], 1.0)


class TestAnalyze:
    def test_a_trace_that_ends_on_its_pole_approaches_along_its_last_segment(self):
        traj = Trajectory((1 + 1j, 0.5 + 0.5j, 0j), (0.0, 0.7, 1.4), Terminal("reached_singularity", 0j), -1 - 1j)
        assert tracing._approach_direction(traj, 0j) == (-0.5 - 0.5j) / abs(-0.5 - 0.5j)

    def test_fig1_has_no_asymptotic_findings(self, figure_runs):
        qd, trajs = figure_runs["fig1"]
        report = analyze(trajs, qd)
        assert not report.pairs
        assert not report.spirals

    def test_fig2_single_converging_pair(self, figure_runs):
        qd, trajs = figure_runs["fig2"]
        report = analyze(trajs, qd)
        assert len(report.pairs) == 1
        pair = report.pairs[0]
        assert (pair.first, pair.second) == (0, 2)
        assert pair.singularity == pytest.approx(-1.0, abs=1e-12)
        assert 0 < pair.angle_gap < 0.05
        assert not report.spirals

    def test_fig3_pair_and_spiral(self, figure_runs):
        qd, trajs = figure_runs["fig3"]
        report = analyze(trajs, qd)
        assert len(report.pairs) == 1
        pair = report.pairs[0]
        assert (pair.first, pair.second) == (0, 1)
        assert pair.singularity == pytest.approx(0.5, abs=1e-12)
        assert pair.angle_gap < 0.05
        assert len(report.spirals) == 1
        flag = report.spirals[0]
        assert flag.trajectory == 2
        assert flag.center == pytest.approx(-1 / 3, abs=1e-12)
        assert abs(flag.winding) > 4 * math.pi

    def test_one_winding_per_trajectory_and_marked_point(self, figure_runs):
        qd, trajs = figure_runs["fig3"]
        report = analyze(trajs, qd)
        assert len(report.windings) == len(trajs)
        for windings in report.windings:
            assert [q for q, _ in windings] == [q for q, _ in qd.marked_factors]
        (flag,) = report.spirals
        assert dict(report.windings[flag.trajectory])[flag.center] == flag.winding
        payload = json.loads(report_text(analysis_payload(trajs, report)))
        (spiral,) = payload["spirals"]
        listed = payload["trajectories"][spiral["trajectory"]]["windings"]
        assert listed[spiral["center"]] == spiral["winding"]

    def test_pair_requires_pole_of_order_three(self, figure_runs):
        # fig2 trajectory 1 lands on an order -2 pole: never in a pair
        qd, trajs = figure_runs["fig2"]
        report = analyze(trajs, qd)
        assert all(1 not in (p.first, p.second) for p in report.pairs)

    def test_gap_threshold_filters_pairs(self, figure_runs, monkeypatch):
        qd, trajs = figure_runs["fig3"]
        monkeypatch.setattr(tracing, "PAIR_ANGLE_GAP", 1e-3)
        report = analyze(trajs, qd)
        assert not report.pairs

    def test_spiral_threshold_filters_flags(self, figure_runs, monkeypatch):
        qd, trajs = figure_runs["fig3"]
        monkeypatch.setattr(tracing, "SPIRAL_WINDING", 100.0)
        report = analyze(trajs, qd)
        assert not report.spirals
