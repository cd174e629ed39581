"""Deterministic artifact emission: CSV, SVG, and structured-text reports.

Every writer is a pure function from computed results to a string; identical
inputs give byte-identical output. CSV numbers use repr (shortest round-trip
form); SVG coordinates are fixed to two decimals of a pixel.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Mapping, Sequence

from .divisors import DISK, HALF_PLANE, format_complex
from .errors import SingularityProximityError
from .loewner import HullSample
from .quadratic import QuadDifferential, direction_field
from .tracing import AsymptoticReport, Trajectory

FIELD_GRID = 41
SVG_SIZE = 640
SVG_MARGIN = 20
POLYLINE_LIMIT = 1500

_STYLE = (
    ".boundary{fill:none;stroke:#555555;stroke-width:1}"
    ".field{stroke:#90a4ae;stroke-width:0.8}"
    ".trajectory{fill:none;stroke:#111111;stroke-width:1.2}"
    ".growth{fill:#c62828}"
    ".marked{fill:#2e7d32}"
)


def trajectory_csv(traj: Trajectory) -> str:
    lines = ["index,arc_length,re,im"]
    for i, (z, s) in enumerate(zip(traj.points, traj.arc_lengths)):
        lines.append(f"{i},{s!r},{z.real!r},{z.imag!r}")
    return "\n".join(lines) + "\n"


def hull_csv(samples: Sequence[HullSample]) -> str:
    lines = ["t,curve,re,im"]
    for s in samples:
        lines.append(f"{s.t!r},{s.curve},{s.point.real!r},{s.point.imag!r}")
    return "\n".join(lines) + "\n"


def _record(value):
    """JSON form of what ``json`` cannot write itself: a complex number as
    ``format_complex`` spells it, a dataclass as its fields."""
    if isinstance(value, complex):
        return format_complex(value)
    return asdict(value)


def report_text(payload: Mapping) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_record) + "\n"


def analysis_payload(
    trajectories: Sequence[Trajectory], report: AsymptoticReport
) -> dict:
    return {
        "trajectories": [
            {
                "id": i,
                "start": t.start,
                "initial_dir": t.initial_dir,
                "samples": len(t.points),
                "arc_length": t.arc_length,
                "terminal": t.terminal.kind,
                "terminal_point": t.terminal.point,
                "windings": {format_complex(q): w for q, w in windings},
            }
            for i, (t, windings) in enumerate(zip(trajectories, report.windings))
        ],
        "converging_pairs": list(report.pairs),
        "spirals": list(report.spirals),
    }


def _bounding_box(
    qd: QuadDifferential, trajectories: Sequence[Trajectory]
) -> tuple[float, float, float, float]:
    if qd.domain == DISK:
        return (-1.15, -1.15, 1.15, 1.15)
    res = [p.real for p, _ in qd.factors]
    ims = [0.0]
    for t in trajectories:
        res.extend(z.real for z in t.points)
        ims.extend(z.imag for z in t.points)
    if not res:
        res = [0.0]
    x0, x1 = min(res), max(res)
    pad = 0.15 * max(x1 - x0, 1.0)
    y1 = max(max(ims), 0.5 * (x1 - x0 + 2 * pad), 1e-3)
    return (x0 - pad, 0.0, x1 + pad, y1 * 1.1)


def _decimate(points: Sequence[complex]) -> list[complex]:
    if len(points) <= POLYLINE_LIMIT:
        return list(points)
    stride = (len(points) + POLYLINE_LIMIT - 1) // POLYLINE_LIMIT
    out = list(points[::stride])
    if out[-1] != points[-1]:
        out.append(points[-1])
    return out


def field_svg(qd: QuadDifferential, trajectories: Sequence[Trajectory]) -> str:
    """Direction-field glyph grid with trajectories and divisor markers."""
    x0, y0, x1, y1 = _bounding_box(qd, trajectories)
    span = max(x1 - x0, y1 - y0)
    scale = (SVG_SIZE - 2 * SVG_MARGIN) / span

    def sx(re: float) -> float:
        return SVG_MARGIN + (re - x0) * scale

    def sy(im: float) -> float:
        return SVG_MARGIN + (y1 - im) * scale

    w = SVG_MARGIN * 2 + (x1 - x0) * scale
    h = SVG_MARGIN * 2 + (y1 - y0) * scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.2f} {h:.2f}">',
        f"<style>{_STYLE}</style>",
    ]
    if qd.domain == DISK:
        parts.append(
            f'<circle class="boundary" cx="{sx(0):.2f}" cy="{sy(0):.2f}" r="{scale:.2f}"/>'
        )
    else:
        parts.append(
            f'<line class="boundary" x1="{sx(x0):.2f}" y1="{sy(0):.2f}" '
            f'x2="{sx(x1):.2f}" y2="{sy(0):.2f}"/>'
        )

    hx = (x1 - x0) / (FIELD_GRID - 1)
    hy = (y1 - y0) / (FIELD_GRID - 1)
    glyph = 0.35 * min(hx, hy) * scale
    parts.append('<g class="field">')
    for iy in range(FIELD_GRID):
        im = y0 + iy * hy
        for ix in range(FIELD_GRID):
            re = x0 + ix * hx
            z = complex(re, im)
            if qd.domain == DISK and abs(z) >= 0.995:
                continue
            if qd.domain == HALF_PLANE and im <= 1e-9:
                continue
            try:
                u = direction_field(qd, z)
            except SingularityProximityError:
                continue
            cx, cy = sx(re), sy(im)
            dx, dy = u.real * glyph * 0.5, -u.imag * glyph * 0.5
            parts.append(
                f'<line x1="{cx - dx:.2f}" y1="{cy - dy:.2f}" '
                f'x2="{cx + dx:.2f}" y2="{cy + dy:.2f}"/>'
            )
    parts.append("</g>")

    for t in trajectories:
        pts = " ".join(f"{sx(z.real):.2f},{sy(z.imag):.2f}" for z in _decimate(t.points))
        parts.append(f'<polyline class="trajectory" points="{pts}"/>')

    for p in qd.growth_points:
        parts.append(
            f'<circle class="growth" cx="{sx(p.real):.2f}" cy="{sy(p.imag):.2f}" r="5"/>'
        )
    for q, _ in qd.marked_factors:
        parts.append(
            f'<circle class="marked" cx="{sx(q.real):.2f}" cy="{sy(q.imag):.2f}" r="4"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
