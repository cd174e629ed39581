"""Artifact writers: byte-determinism and exact formats (the golden fig1
image is checked in test_acceptance)."""

import json
import math

import pytest

from slezero.loewner import HullSample
from slezero.outputs import (
    POLYLINE_LIMIT,
    analysis_payload,
    field_svg,
    hull_csv,
    report_text,
    trajectory_csv,
)
from slezero.divisors import SymmetricDivisor
from slezero.quadratic import build_Q
from slezero.scene import preset
from slezero.tracing import Terminal, TraceParams, Trajectory, analyze, launch_all


def tiny_trajectory() -> Trajectory:
    return Trajectory(
        points=(0j, 1 + 1j),
        arc_lengths=(0.0, math.sqrt(2.0)),
        terminal=Terminal("exhausted_arc_length"),
        initial_dir=1 + 0j,
    )


@pytest.fixture(scope="module")
def fig2_results():
    sc = preset("fig2")
    qd = build_Q(sc.divisor)
    trajs = launch_all(qd, sc.trace)
    return qd, trajs, analyze(trajs, qd)


class TestCsv:
    def test_trajectory_csv_exact(self):
        expected = (
            "index,arc_length,re,im\n"
            "0,0.0,0.0,0.0\n"
            "1,1.4142135623730951,1.0,1.0\n"
        )
        assert trajectory_csv(tiny_trajectory()) == expected

    def test_hull_csv_exact(self):
        samples = [HullSample(0.25, 0, 1j), HullSample(0.5, 1, -0.1 + 0.2j)]
        expected = "t,curve,re,im\n0.25,0,0.0,1.0\n0.5,1,-0.1,0.2\n"
        assert hull_csv(samples) == expected

    def test_repr_floats_round_trip(self):
        line = trajectory_csv(tiny_trajectory()).splitlines()[2]
        _, s, re_, im_ = line.split(",")
        assert float(s) == math.sqrt(2.0)
        assert float(re_) == 1.0 and float(im_) == 1.0


class TestReports:
    def test_report_text_sorts_keys(self):
        assert report_text({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_analysis_payload_structure(self, fig2_results):
        qd, trajs, report = fig2_results
        payload = json.loads(report_text(analysis_payload(trajs, report)))
        assert [t["id"] for t in payload["trajectories"]] == [0, 1, 2]
        first = payload["trajectories"][0]
        assert first["start"] == "-1.0i"
        assert first["terminal"] == "reached_singularity"
        assert first["terminal_point"] == "-1.0"
        assert set(first["windings"]) == {"0.0", "-1.0"}
        assert first["samples"] == len(trajs[0].points)
        pair = payload["converging_pairs"][0]
        assert (pair["first"], pair["second"]) == (0, 2)
        assert pair["singularity"] == "-1.0"
        assert 0 < pair["angle_gap"] < 0.05
        assert payload["spirals"] == []

    def test_payload_serializes_deterministically(self, fig2_results):
        qd, trajs, report = fig2_results
        a = report_text(analysis_payload(trajs, report))
        b = report_text(analysis_payload(trajs, report))
        assert a == b
        assert json.loads(a)["trajectories"][1]["terminal_point"] == "0.0"


class TestFieldSvg:
    def test_disk_scene_structure(self, fig2_results):
        qd, trajs, _ = fig2_results
        svg = field_svg(qd, trajs)
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert svg.count('class="boundary"') == 1
        assert "<circle class=\"boundary\"" in svg
        assert svg.count('class="trajectory"') == 3
        assert svg.count('class="growth"') == 3
        assert svg.count('class="marked"') == 2  # finite marked points only

    def test_half_plane_uses_a_line_boundary(self):
        qd = build_Q(SymmetricDivisor.half_plane([0.0], [("inf", -3)]))
        trajs = launch_all(qd, TraceParams(max_arc_length=2.0))
        svg = field_svg(qd, trajs)
        assert '<line class="boundary"' in svg

    def test_byte_determinism(self, fig2_results):
        qd, trajs, _ = fig2_results
        assert field_svg(qd, trajs) == field_svg(qd, trajs)

    def test_long_polylines_are_decimated(self):
        pts = tuple(complex(k * 1e-3, 1.0) for k in range(4 * POLYLINE_LIMIT))
        traj = Trajectory(
            points=pts,
            arc_lengths=tuple(k * 1e-3 for k in range(len(pts))),
            terminal=Terminal("exhausted_arc_length"),
            initial_dir=1 + 0j,
        )
        qd = build_Q(SymmetricDivisor.half_plane([0.0], [("inf", -3)]))
        svg = field_svg(qd, [traj])
        poly = next(l for l in svg.splitlines() if 'class="trajectory"' in l)
        coords = poly.split('points="')[1].rstrip('"/>')
        n_points = coords.count(" ") + 1
        assert n_points <= POLYLINE_LIMIT + 1
