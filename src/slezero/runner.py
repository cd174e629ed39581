"""Scene execution: artifact production and verification suites.

``run`` computes whatever the scene's output list asks for and writes the
artifacts; ``verify`` replays conservation laws and cross-module identities
on a scene and reports per-check margins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import conformal, divisors, loewner, outputs, quadratic, tracing
from .divisors import HALF_PLANE, MoebiusMap, SymmetricDivisor, format_complex
from .errors import DegenerateConfigurationError, PathError, UnsupportedChargeError
from .loewner import Evolution, HullSample, MotionIntegralReport
from .quadratic import QuadDifferential
from .scene import SceneConfig
from .tracing import AsymptoticReport, Trajectory

HULL_SAMPLES = 33
MOEBIUS_TRIALS = 20
MOEBIUS_LIMIT = 1e-9
FD_STEP = 1e-6
FD_LIMIT = 1e-6
MOTION_LIMIT = 1e-6
EQUIVALENCE_LIMIT = 5e-3


@dataclass
class RunResult:
    scene: SceneConfig
    qd: QuadDifferential | None = None
    trajectories: list[Trajectory] = field(default_factory=list)
    analysis: AsymptoticReport | None = None
    evolution: Evolution | None = None
    hull: list[HullSample] = field(default_factory=list)
    motion: list[MotionIntegralReport] = field(default_factory=list)
    written: list[Path] = field(default_factory=list)


def _flow_divisor(scene: SceneConfig) -> SymmetricDivisor:
    if scene.divisor.domain == HALF_PLANE:
        return scene.divisor
    image, _ = conformal.transport(scene.divisor, HALF_PLANE)
    return image


def _fallback_observer(flow_divisor: SymmetricDivisor) -> complex:
    """The observer ``verify`` tracks when the scene names none: ``2i``, or
    the first of ``3i``, ``4i``, ... that starts on no finite marked point,
    where ``evolve`` would refuse it."""
    q, _ = flow_divisor.finite_marked()
    z = 2j
    while any(loewner.starts_on(z, p) for p in q):
        z += 1j
    return z


def _hull_times(t_end: float) -> list[float]:
    return [t_end * i / (HULL_SAMPLES - 1) for i in range(HULL_SAMPLES)]


def _motion_payload(evolution: Evolution, reports: list[MotionIntegralReport]) -> dict:
    bracket = evolution.collision
    return {
        "t_final": evolution.final.t,
        "states": len(evolution.states),
        "rejected_steps": evolution.rejected,
        "collision": None if bracket is None else {"bracket": list(bracket), "note": evolution.collision_note},
        "reports": reports,
    }


def run(scene: SceneConfig, out_dir: Path | str) -> RunResult:
    """Produce every artifact the scene requests into ``out_dir``."""
    out = Path(out_dir)
    result = RunResult(scene=scene)

    if scene.wants_quadratic:
        result.qd = quadratic.build_Q(scene.divisor)
        result.trajectories = tracing.launch_all(result.qd, scene.trace)
        result.analysis = tracing.analyze(result.trajectories, result.qd)

    if scene.wants_flow:
        flow_divisor = _flow_divisor(scene)
        lo = scene.loewner
        result.evolution = loewner.evolve(
            flow_divisor, lo.T, lo.dt, scene.rates, lo.tracked, lo.tol
        )
        if "hull_csv" in scene.outputs:
            result.hull = loewner.trace_hull(result.evolution, _hull_times(result.evolution.final.t))
        if "motion_report" in scene.outputs:
            result.motion = loewner.motion_integral(result.evolution)

    # everything is computed before the directory is made, and a write that
    # fails removes the files written before it: a run that fails leaves no
    # artifacts
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError:
        raise PathError(f"cannot write {out_dir}") from None

    def write(name: str, text: str) -> None:
        path = out / name
        try:
            path.write_text(text)
        except OSError as exc:
            if exc.filename is None:  # opened, then cut short
                result.written.append(path)
            for done in result.written:
                done.unlink()
            raise PathError(f"cannot write {path}") from None
        result.written.append(path)

    if "field_svg" in scene.outputs:
        write("field.svg", outputs.field_svg(result.qd, result.trajectories))
    if "trajectories_csv" in scene.outputs:
        for i, traj in enumerate(result.trajectories):
            write(f"trajectory_{i}.csv", outputs.trajectory_csv(traj))
    if "hull_csv" in scene.outputs:
        write("hull.csv", outputs.hull_csv(result.hull))
    if "motion_report" in scene.outputs:
        write(
            "motion_report.json",
            outputs.report_text(_motion_payload(result.evolution, result.motion)),
        )
    if "analysis_report" in scene.outputs:
        write(
            "analysis_report.json",
            outputs.report_text(outputs.analysis_payload(result.trajectories, result.analysis)),
        )
    return result


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    limit: float | None

    @property
    def ok(self) -> bool:
        return self.limit is None or self.value <= self.limit

    def line(self) -> str:
        if self.limit is None:
            return f"{self.name}: value={self.value:.3e} (informational)"
        verdict = "PASS" if self.ok else "FAIL"
        return f"{self.name}: value={self.value:.3e} limit={self.limit:.1e} {verdict}"


def _random_moebius(rng: random.Random) -> MoebiusMap:
    while True:
        a, b, c, d = (
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)
        )
        if abs(a * d - b * c) >= 0.1:
            return MoebiusMap(a, b, c, d)


def _moebius_check(divisor: SymmetricDivisor, seed: int) -> Check:
    rng = random.Random(seed)
    points = divisor.weighted_points()
    gaps = []
    # a map that sends two points together is redrawn, at most as often as
    # there are trials: the points are distinct on the sphere, but a map
    # can still bring two of them within DISTINCT_TOL of each other
    for _ in range(2 * MOEBIUS_TRIALS):
        try:
            gaps.append(divisors.moebius_invariance_gap(points, _random_moebius(rng)))
        except DegenerateConfigurationError:
            continue
        if len(gaps) == MOEBIUS_TRIALS:
            return Check("invariance/moebius_gap", max(gaps), MOEBIUS_LIMIT)
    raise DegenerateConfigurationError(
        f"more than {MOEBIUS_TRIALS} of {2 * MOEBIUS_TRIALS} random Moebius maps send two divisor points together"
    )


def _dlog_fd_check(divisor: SymmetricDivisor) -> Check:
    x = [p.value.real for p in divisor.growth]
    q, s = divisor.finite_marked()
    exact = divisors.dlog_Z(x, q, s)
    points = divisor.weighted_points()

    def log_z(j: int, h: float) -> float:
        return divisors.partition_Z_log_abs(points[:j] + [(x[j] + h, 1.0)] + points[j + 1 :])

    worst = 0.0
    for j, xj in enumerate(x):
        # a step below the gap to the nearest other finite point
        h = FD_STEP * min([1.0] + [abs(xj - p) for p in x[:j] + x[j + 1 :] + q])
        fd = (log_z(j, h) - log_z(j, -h)) / (2.0 * h)
        worst = max(worst, abs(fd - exact[j]) / max(1.0, abs(exact[j])))
    return Check("invariance/dlog_fd", worst, FD_LIMIT)


def _polyline_distance(z: complex, points: np.ndarray) -> float:
    a = points[:-1]
    b = points[1:]
    ab = b - a
    denom = np.maximum(np.abs(ab) ** 2, 1e-300)
    t = np.clip(((z - a) * np.conj(ab)).real / denom, 0.0, 1.0)
    proj = a + t * ab
    return float(np.min(np.abs(z - proj)))


def _suite_invariance(scene: SceneConfig, flow_divisor: SymmetricDivisor, seed: int) -> list[Check]:
    return [
        _moebius_check(scene.divisor, seed),
        _dlog_fd_check(flow_divisor),
    ]


def _suite_motion(evolution: Evolution) -> list[Check]:
    checks = []
    for report in loewner.motion_integral(evolution):
        tag = format_complex(report.z)
        checks.append(Check(f"motion/abs_drift[z={tag}]", report.max_rel_drift, MOTION_LIMIT))
        checks.append(Check(f"motion/arg_drift[z={tag}]", report.max_arg_drift, None))
    return checks


def _suite_equivalence(scene: SceneConfig, qd: QuadDifferential, evolution: Evolution) -> list[Check]:
    trajectories = tracing.launch_all(qd, scene.trace)
    hull = loewner.trace_hull(evolution, _hull_times(evolution.final.t))
    # a curve that ends in a singularity ends at it: the last traced point
    # stops short of it, by up to the capture radius
    polylines = [
        np.array(t.points + ((t.terminal.point,) if t.terminal.kind == "reached_singularity" else ()))
        for t in trajectories
    ]
    worst = [0.0] * len(polylines)
    for sample in hull:
        d = _polyline_distance(sample.point, polylines[sample.curve])
        worst[sample.curve] = max(worst[sample.curve], d)
    return [
        Check(f"equivalence/hull_distance[curve={j}]", w, EQUIVALENCE_LIMIT)
        for j, w in enumerate(worst)
    ]


SUITES = ("invariance", "motion", "equivalence")


def verify(scene: SceneConfig, suite: str = "all", seed: int = 1234) -> tuple[bool, list[str]]:
    """Run the selected verification suites; returns (all passed, lines)."""
    if suite not in SUITES and suite != "all":
        raise ValueError(f"unknown suite {suite!r}")
    flow_divisor = _flow_divisor(scene)
    if suite in ("all", "equivalence"):
        # before any suite runs: a scene the equivalence suite cannot trace costs no work
        try:
            qd = quadratic.build_Q(flow_divisor)
        except UnsupportedChargeError as exc:
            raise UnsupportedChargeError(
                f"{exc}: the equivalence suite traces trajectories, which need integer local exponents"
            ) from None
    checks: list[Check] = []
    if suite in ("all", "invariance"):
        checks.extend(_suite_invariance(scene, flow_divisor, seed))
    if suite in ("all", "motion", "equivalence"):
        # one evolution serves both suites; the observers ride along and
        # change only the time grid the hull interpolates: by their caps,
        # their share of the error estimate and their tails in tau
        lo = scene.loewner
        tracked = lo.tracked or (_fallback_observer(flow_divisor),)
        evolution = loewner.evolve(flow_divisor, lo.T, lo.dt, scene.rates, tracked, lo.tol)
        if suite in ("all", "motion"):
            checks.extend(_suite_motion(evolution))
        if suite in ("all", "equivalence"):
            checks.extend(_suite_equivalence(scene, qd, evolution))
    lines = [c.line() for c in checks]
    gated = [c for c in checks if c.limit is not None]
    ok = all(c.ok for c in gated)
    lines.append(
        f"{'ok' if ok else 'FAILED'}: {sum(c.ok for c in gated)}/{len(gated)} checks passed"
    )
    return ok, lines
