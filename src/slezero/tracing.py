"""Horizontal trajectory tracing and asymptotic analysis.

Trajectories are integral curves of the unit horizontal line field of a
quadratic differential, traced with a classical 4th-order one-step method in
arc length, with error-controlled long steps far from every factor point
(see ``trace``). The field is only defined up to sign, so every stage evaluation
is aligned with the direction of the previous step; launches from growth
points start on a separatrix, offset by the capture radius.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .divisors import DISK, HALF_PLANE
from .errors import LaunchError, SingularityProximityError, WindingUndefinedError
from .quadratic import TWO_PI, QuadDifferential

SEPARATRIX_TOL = 1e-3
MAX_TURN = 0.2
REGROW_TURN = 0.05
DOMAIN_MARGIN = 1e-6  # how far past the boundary a trace may step before it stops
TRACE_FAR_TOL = 1e-16  # local error bound of a step beyond twice the factor radius
PAIR_ANGLE_GAP = 0.05  # approach directions closer than this make a converging pair
SPIRAL_WINDING = 4.0 * math.pi  # a winding beyond this may flag a spiral


@dataclass(frozen=True)
class TraceParams:
    step: float = 1e-3
    max_arc_length: float = 50.0
    capture_radius: float = 1e-3


@dataclass(frozen=True)
class Terminal:
    kind: str  # reached_singularity | left_domain | exhausted_arc_length
    point: complex | None = None


@dataclass(frozen=True)
class Trajectory:
    points: tuple[complex, ...]
    arc_lengths: tuple[float, ...]
    terminal: Terminal
    start: complex
    initial_dir: complex

    @property
    def arc_length(self) -> float:
        return self.arc_lengths[-1]


def _winding_increments(points: Sequence[complex], base: complex) -> list[float]:
    """Turning of each polyline segment as seen from ``base``, in radians."""
    out = []
    prev = points[0] - base
    if abs(prev) <= 1e-12:
        raise WindingUndefinedError(f"polyline passes through {base}")
    for z in points[1:]:
        cur = z - base
        if abs(cur) <= 1e-12:
            raise WindingUndefinedError(f"polyline passes through {base}")
        out.append(cmath.phase(cur / prev))
        prev = cur
    return out


def _inside(domain: str, z: complex) -> bool:
    if domain == HALF_PLANE:
        return z.imag >= -DOMAIN_MARGIN
    if domain == DISK:
        return abs(z) <= 1.0 + DOMAIN_MARGIN
    return True


def trace(
    qd: QuadDifferential,
    start: complex,
    initial_dir: complex,
    params: TraceParams = TraceParams(),
) -> Trajectory:
    """Trace one horizontal trajectory from ``start``.

    A start within the capture radius of a zero is treated as a launch from
    that zero: the direction must lie within 1e-3 radians of one of its
    separatrices and integration begins one capture radius out along it.
    The trace stops on entering the capture disk of any other singularity,
    on leaving the domain by more than ``DOMAIN_MARGIN``, or on exhausting
    the arc length budget.

    Within twice the largest |p| over the factor points, steps are at most
    ``params.step``, halved while a step turns the field by more than
    ``MAX_TURN``. Beyond it the field is close to a power of z and each
    step is also error-controlled: the embedded RK4(3) estimate
    h/6 |k4 - k5|, with k5 the field at the step's end (reused as the next
    step's first stage), must not exceed ``TRACE_FAR_TOL`` unless h is down
    to ``params.step``, and h doubles while the estimate is under a 32nd of
    it and the doubled step stays within a quarter of |z| - rho, a lower
    bound on the distance to every factor point.
    There the arc length is the integration parameter, and a trajectory
    that exhausts its budget ends at exactly ``max_arc_length``.
    """
    if initial_dir == 0:
        raise LaunchError("initial direction must be nonzero")
    direction = initial_dir / abs(initial_dir)
    capture = params.capture_radius

    launch_point: complex | None = None
    for info in qd.singularities:
        if abs(start - info.point) <= capture:
            if info.order <= 0:
                raise LaunchError(f"cannot launch from the pole at {info.point}")
            want = cmath.phase(direction)
            gap = min(
                abs((want - theta + math.pi) % TWO_PI - math.pi) for theta in info.angles
            )
            if gap > SEPARATRIX_TOL:
                raise LaunchError(
                    f"direction {want:.6f} rad is {gap:.2e} rad off every separatrix of {info.point}"
                )
            launch_point = info.point
            break

    singular = [p for p, _ in qd.factors]

    if launch_point is not None:
        z = launch_point + capture * direction
        points = [launch_point, z]
        arcs = [0.0, abs(z - launch_point)]
        escaped = False
    else:
        z = start
        points = [z]
        arcs = [0.0]
        escaped = True

    field = qd.field
    h = params.step
    h_min = params.step * 2.0**-20
    # beyond twice the largest |p| the field is close to a power of z
    rho = max((abs(p) for p in singular), default=0.0)
    far_radius = 2.0 * rho
    dir_r, dir_i = direction.real, direction.imag
    terminal: Terminal | None = None
    arc = arcs[-1]
    k1 = None  # the field at z, when the last step already evaluated it

    while terminal is None:
        if arc >= params.max_arc_length:
            terminal = Terminal("exhausted_arc_length")
            break
        zr, zi = z.real, z.imag
        far = abs(z) > far_radius
        if far:
            rest = params.max_arc_length - arc
            h = min(h, rest)
        elif h > params.step:
            h = params.step
        try:
            if k1 is None:
                _, k1r, k1i = field(zr, zi, dir_r, dir_i)
            else:
                k1r, k1i = k1
            while True:
                _, k2r, k2i = field(zr + 0.5 * h * k1r, zi + 0.5 * h * k1i, dir_r, dir_i)
                _, k3r, k3i = field(zr + 0.5 * h * k2r, zi + 0.5 * h * k2i, dir_r, dir_i)
                _, k4r, k4i = field(zr + h * k3r, zi + h * k3i, dir_r, dir_i)
                turn = abs(math.atan2(k1r * k4i - k1i * k4r, k1r * k4r + k1i * k4i))
                if turn > MAX_TURN and h > h_min:
                    h *= 0.5
                    continue
                tr = (k1r + 2.0 * (k2r + k3r) + k4r) / 6.0
                ti = (k1i + 2.0 * (k2i + k3i) + k4i) / 6.0
                z_new = complex(zr + h * tr, zi + h * ti)
                if far:
                    _, k5r, k5i = field(z_new.real, z_new.imag, dir_r, dir_i)
                    err = h / 6.0 * math.hypot(k4r - k5r, k4i - k5i)
                    if err > TRACE_FAR_TOL and h > params.step:
                        h *= 0.5
                        continue
                break
        except SingularityProximityError:
            # a stage landed essentially on a singular point
            nearest = min(singular, key=lambda p: abs(z - p))
            terminal = Terminal("reached_singularity", nearest)
            break
        norm = math.hypot(tr, ti)
        if norm > 0.0:
            dir_r, dir_i = tr / norm, ti / norm
        if far:
            # arc length is the integration parameter: a long step's chord
            # falls short of it by about h^3 kappa^2 / 24
            arc = params.max_arc_length if h == rest else arc + h
            # signed as field(z_new, new direction) would sign it
            if k5r * dir_r + k5i * dir_i < 0.0:
                k5r, k5i = -k5r, -k5i
            k1 = (k5r, k5i)
        else:
            arc += abs(z_new - z)
            k1 = None
        z = z_new
        points.append(z)
        arcs.append(arc)
        if far and err < TRACE_FAR_TOL / 32.0 and 2.0 * h <= 0.25 * (abs(z) - rho):
            h *= 2.0
        elif turn < REGROW_TURN and h < params.step:
            h = min(2.0 * h, params.step)
        if not escaped and abs(z - launch_point) > 2.0 * capture:
            escaped = True
        for p in singular:
            if p == launch_point and not escaped:
                continue
            if abs(z - p) <= capture:
                terminal = Terminal("reached_singularity", p)
                break
        if terminal is None and not _inside(qd.domain, z):
            terminal = Terminal("left_domain")

    return Trajectory(
        points=tuple(points),
        arc_lengths=tuple(arcs),
        terminal=terminal,
        start=start,
        initial_dir=direction,
    )


def launch_all(qd: QuadDifferential, params: TraceParams = TraceParams()) -> list[Trajectory]:
    """One trajectory per growth point, along its interior separatrix.

    The separatrix is chosen by positive inner product with the inward
    boundary normal, ties broken by the smallest angle to it.
    """
    out = []
    for info in qd.singularities[: qd.n_growth]:
        p = info.point
        normal = 1j if qd.domain == HALF_PLANE else -p / abs(p)
        best = None
        best_dot = 0.0
        for theta in info.angles:
            d = cmath.exp(1j * theta)
            dot = d.real * normal.real + d.imag * normal.imag
            if dot > 1e-12 and dot > best_dot + 1e-12:
                best, best_dot = d, dot
        if best is None:
            raise LaunchError(f"no interior separatrix at growth point {p}")
        out.append(trace(qd, p, best, params))
    return out


@dataclass(frozen=True)
class ConvergingPair:
    first: int
    second: int
    singularity: complex
    angle_gap: float


@dataclass(frozen=True)
class SpiralFlag:
    trajectory: int
    center: complex
    winding: float


@dataclass(frozen=True)
class AsymptoticReport:
    pairs: tuple[ConvergingPair, ...]
    spirals: tuple[SpiralFlag, ...]
    # per trajectory, its total winding about each marked point in order
    windings: tuple[tuple[tuple[complex, float], ...], ...]


def _approach_direction(traj: Trajectory, pole: complex) -> complex:
    """Unit chord from the last traced point into the capturing pole.

    Averaged curve tangents lag badly in the capture region, where the
    trajectory is still bending onto its asymptotic ray; the chord into
    the pole uses the closest-in point and converges with the capture
    radius. A capture step can land exactly on the pole; the last segment
    stands in for the chord then.
    """
    pts = traj.points
    chord = pole - pts[-1]
    if chord == 0:
        chord = pts[-1] - pts[-2]
    return chord / abs(chord)


def analyze(trajectories: Sequence[Trajectory], qd: QuadDifferential) -> AsymptoticReport:
    """Detect common asymptotic directions and spiraling.

    A converging pair is two trajectories captured by the same pole of order
    at least 3 whose approach directions into the pole differ by less than
    ``PAIR_ANGLE_GAP``. A spiral is a trajectory whose winding about some
    marked point exceeds ``SPIRAL_WINDING`` and is eventually monotone (the
    nonzero increments over the last 75% of its steps share one sign). Each
    winding is summed once, here: the report lists the same total it tests.
    """
    by_terminal: dict[complex, list[int]] = {}
    for i, traj in enumerate(trajectories):
        t = traj.terminal
        if t.kind == "reached_singularity" and qd.order_at(t.point) <= -3:
            by_terminal.setdefault(t.point, []).append(i)

    pairs = []
    for point, members in sorted(by_terminal.items(), key=lambda kv: (kv[0].real, kv[0].imag)):
        tangents = {i: _approach_direction(trajectories[i], point) for i in members}
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                ti, tj = tangents[i], tangents[j]
                dot = max(-1.0, min(1.0, ti.real * tj.real + ti.imag * tj.imag))
                gap = math.acos(dot)
                if gap < PAIR_ANGLE_GAP:
                    pairs.append(ConvergingPair(i, j, point, gap))

    spirals = []
    windings = []
    for i, traj in enumerate(trajectories):
        totals = []
        for q, _ in qd.marked_factors:
            incs = _winding_increments(traj.points, q)
            total = math.fsum(incs)
            totals.append((q, total))
            if abs(total) <= SPIRAL_WINDING:
                continue
            tail = incs[len(incs) // 4 :]
            signs = {1 if v > 0 else -1 for v in tail if v != 0.0}
            if len(signs) == 1:
                spirals.append(SpiralFlag(i, q, total))
        windings.append(tuple(totals))

    return AsymptoticReport(tuple(pairs), tuple(spirals), tuple(windings))
