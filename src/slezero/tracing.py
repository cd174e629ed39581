"""Horizontal trajectory tracing and asymptotic analysis.

Trajectories are integral curves of the unit horizontal line field of a
quadratic differential, traced in arc length: with the classical 4th-order
one-step method near the factor points, and far from all of them with
error-controlled long steps of the Dormand-Prince 5(4) pair (see ``trace``).
The field is only defined up to sign, so every stage evaluation is aligned
with the direction of the previous step; a launch from a zero starts along
the given direction, within ``SEPARATRIX_TOL`` of a separatrix, offset by
the capture radius.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .divisors import HALF_PLANE, format_complex
from .errors import LaunchError, SingularityProximityError, StepBudgetError, WindingUndefinedError
from .quadratic import TWO_PI, QuadDifferential

SEPARATRIX_TOL = 1e-3
MAX_TURN = 0.2
REGROW_TURN = 0.05
DOMAIN_MARGIN = 1e-6  # how far past the boundary a trace may step before it stops
TRACE_FAR_TOL = 1e-16  # bound on a far step's 4th-order error estimate h |sum e_i k_i|
TRACE_BUDGET = 1_000_000  # points per trajectory
# Dormand-Prince 5(4) (Hairer-Norsett-Wanner, Solving ODEs I, II.5): the
# rows a_2..a_6 of the stages, the 5th-order weights b of the step, and
# e = b - b_hat against the embedded 4th-order solution, whose 7th stage
# is the field at the step's end
DP54_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
DP54_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
DP54_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
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
    initial_dir: complex

    @property
    def start(self) -> complex:
        return self.points[0]

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
    return abs(z) <= 1.0 + DOMAIN_MARGIN


def trace(
    qd: QuadDifferential,
    start: complex,
    initial_dir: complex,
    params: TraceParams = TraceParams(),
) -> Trajectory:
    """Trace one horizontal trajectory from ``start``.

    A start that is itself a point of ``qd.singularities`` is a launch from
    it: a pole is refused, the direction must lie within ``SEPARATRIX_TOL``
    radians of one of the zero's separatrices, and integration begins one
    capture radius out along the direction.
    The trace stops on entering the capture disk of any other singularity,
    on leaving the domain by more than ``DOMAIN_MARGIN``, or on exhausting
    the arc length budget.

    Within twice the largest |p| over the factor points, rho, each step is
    a classical RK4 step of at most ``params.step``. Beyond it the field is
    close to a power of z, and each step is a Dormand-Prince 5(4) step
    (``DP54_A``, ``DP54_B``) that takes the 5th-order solution. Its
    embedded 4th-order estimate h |sum e_i k_i| (``DP54_E``), with k7 the
    field at the step's end reused as the next step's first stage, must
    not exceed ``TRACE_FAR_TOL``, and its end must lie in the domain,
    unless h is down to ``params.step``; otherwise h is halved. h doubles
    while the estimate is under a 32nd of it and the doubled step stays
    within a quarter of |z| - rho, a lower bound on the distance to every
    factor point. Either step is halved while it turns the field by
    more than ``MAX_TURN`` (its first stage against its stage at the end).
    Beyond 2 rho the arc length is the integration parameter, and a
    trajectory that exhausts its budget there ends at exactly
    ``max_arc_length``. A step within 2 rho that rounding keeps from moving
    z, or a step past ``TRACE_BUDGET`` points, raises ``StepBudgetError``.
    """
    if initial_dir == 0:
        raise LaunchError("initial direction must be nonzero")
    direction = initial_dir / abs(initial_dir)
    capture = params.capture_radius

    launch = next((info for info in qd.singularities if info.point == start), None)
    if launch is not None:
        if launch.order <= 0:
            raise LaunchError(f"cannot launch from the pole at {launch.point}")
        want = cmath.phase(direction)
        gap = min(abs((want - theta + math.pi) % TWO_PI - math.pi) for theta in launch.angles)
        if gap > SEPARATRIX_TOL:
            raise LaunchError(
                f"direction {want:.6f} rad is {gap:.2e} rad off every separatrix of {launch.point}"
            )
        z = launch.point + capture * direction
        points = [launch.point, z]
        arcs = [0.0, abs(z - launch.point)]
    else:
        z = start
        points = [z]
        arcs = [0.0]
    escaped = launch is None

    singular = [p for p, _ in qd.factors]
    field = qd.field
    h = params.step
    h_min = params.step * 2.0**-20
    # beyond twice the largest |p| the field is close to a power of z
    rho = max((abs(p) for p in singular), default=0.0)
    far_radius = 2.0 * rho
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = DP54_A
    b1, _, b3, b4, b5, b6 = DP54_B
    e1, _, e3, e4, e5, e6, e7 = DP54_E
    dir_r, dir_i = direction.real, direction.imag
    terminal: Terminal | None = None
    arc = arcs[-1]
    k1 = None  # the field at z, when the last step already evaluated it

    while terminal is None:
        if arc >= params.max_arc_length:
            terminal = Terminal("exhausted_arc_length")
            break
        if len(points) >= TRACE_BUDGET:
            raise StepBudgetError(
                f"trace from {format_complex(start)} exceeded its budget of {TRACE_BUDGET} points at arc length {arc:.6g}"
            )
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
                if far:
                    _, k2r, k2i = field(zr + h * (a21 * k1r), zi + h * (a21 * k1i), dir_r, dir_i)
                    _, k3r, k3i = field(
                        zr + h * (a31 * k1r + a32 * k2r), zi + h * (a31 * k1i + a32 * k2i), dir_r, dir_i
                    )
                    _, k4r, k4i = field(
                        zr + h * (a41 * k1r + a42 * k2r + a43 * k3r),
                        zi + h * (a41 * k1i + a42 * k2i + a43 * k3i),
                        dir_r,
                        dir_i,
                    )
                    _, k5r, k5i = field(
                        zr + h * (a51 * k1r + a52 * k2r + a53 * k3r + a54 * k4r),
                        zi + h * (a51 * k1i + a52 * k2i + a53 * k3i + a54 * k4i),
                        dir_r,
                        dir_i,
                    )
                    _, k6r, k6i = field(
                        zr + h * (a61 * k1r + a62 * k2r + a63 * k3r + a64 * k4r + a65 * k5r),
                        zi + h * (a61 * k1i + a62 * k2i + a63 * k3i + a64 * k4i + a65 * k5i),
                        dir_r,
                        dir_i,
                    )
                    turn = abs(math.atan2(k1r * k6i - k1i * k6r, k1r * k6r + k1i * k6i))
                    if turn > MAX_TURN and h > h_min:
                        h *= 0.5
                        continue
                    tr = b1 * k1r + b3 * k3r + b4 * k4r + b5 * k5r + b6 * k6r
                    ti = b1 * k1i + b3 * k3i + b4 * k4i + b5 * k5i + b6 * k6i
                    z_new = complex(zr + h * tr, zi + h * ti)
                    if z_new.imag < -DOMAIN_MARGIN and h > params.step:
                        # a long step does not leave the half-plane (a disk
                        # trace stops long before 2 rho >= 2): the trace
                        # leaves it within a near step of the boundary
                        h *= 0.5
                        continue
                    _, k7r, k7i = field(z_new.real, z_new.imag, dir_r, dir_i)
                    err = h * math.hypot(
                        e1 * k1r + e3 * k3r + e4 * k4r + e5 * k5r + e6 * k6r + e7 * k7r,
                        e1 * k1i + e3 * k3i + e4 * k4i + e5 * k5i + e6 * k6i + e7 * k7i,
                    )
                    if err > TRACE_FAR_TOL and h > params.step:
                        h *= 0.5
                        continue
                    break
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
            if k7r * dir_r + k7i * dir_i < 0.0:
                k7r, k7i = -k7r, -k7i
            k1 = (k7r, k7i)
        else:
            chord = abs(z_new - z)
            # near 1e300 a step is lost to rounding and would repeat forever
            if chord < 0.5 * h:
                raise StepBudgetError(
                    f"trace at {format_complex(z)} cannot advance: a step of {h:.3g} is lost to rounding"
                )
            arc += chord
            k1 = None
        z = z_new
        points.append(z)
        arcs.append(arc)
        if far and err < TRACE_FAR_TOL / 32.0 and 2.0 * h <= 0.25 * (abs(z) - rho):
            h *= 2.0
        elif turn < REGROW_TURN and h < params.step:
            h = min(2.0 * h, params.step)
        if not escaped and abs(z - start) > 2.0 * capture:
            escaped = True
        for p in singular:
            if not escaped and p == start:
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
    poles = {info.point for info in qd.singularities if info.order <= -3}
    by_terminal: dict[complex, list[int]] = {}
    for i, traj in enumerate(trajectories):
        t = traj.terminal
        if t.kind == "reached_singularity" and t.point in poles:
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
