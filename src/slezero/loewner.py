"""Multiple chordal Loewner evolution with marked points.

The upper half-plane hull grows from n real driving points x_j, each moving
with its own rate nu_j(t):

    dx_j/dt = nu_j d/dx_j log Z(x, q) + sum_{k != j} 2 nu_k / (x_j - x_k),

while marked points and tracked observers z are carried by the common field

    dz/dt = sum_j 2 nu_j / (z - x_j),

and log g'(z) by its derivative flow. Everything is integrated together with
a classical 4th-order step; the step size is capped quadratically in the
smallest point gap so that collisions are approached geometrically instead
of being overshot.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import divisors
from .divisors import HALF_PLANE, MarkedPoint, SpherePoint, SymmetricDivisor
from .errors import (
    CollisionError,
    DegenerateConfigurationError,
    InversionFailureError,
)

COLLISION_TOL = 1e-8
GAP_CAP_SAFETY = 0.125  # of the gap^2/(8 sum nu) stiffness bound
TRACK_CAP_COEFF = 0.004  # dt <= coeff * |g-x|^2 near a tracked-point death
REVERSE_CAP_COEFF = 0.05
DEFAULT_LIFT = 1e-6


@dataclass(frozen=True)
class Parametrization:
    """Piecewise-constant growth rates, one schedule per curve.

    Each schedule is a tuple of (start_time, rate) pairs with increasing
    start times; the first start time must be 0.
    """

    schedules: tuple[tuple[tuple[float, float], ...], ...]

    def __post_init__(self) -> None:
        for sched in self.schedules:
            if not sched or sched[0][0] != 0.0:
                raise ValueError("each rate schedule must start at t=0")
            times = [t for t, _ in sched]
            if times != sorted(times):
                raise ValueError("rate breakpoints must increase")
            if any(r <= 0.0 for _, r in sched):
                raise ValueError("growth rates must be positive")

    @classmethod
    def constant(cls, rates: Sequence[float]) -> "Parametrization":
        return cls(tuple(((0.0, float(r)),) for r in rates))

    @property
    def n_curves(self) -> int:
        return len(self.schedules)

    def rates(self, t: float) -> tuple[float, ...]:
        out = []
        for sched in self.schedules:
            i = bisect.bisect_right([s for s, _ in sched], t) - 1
            out.append(sched[max(i, 0)][1])
        return tuple(out)

    def integrated_total(self, t: float) -> float:
        """Integral over [0, t] of the summed rates (twice this is the capacity)."""
        total = 0.0
        for sched in self.schedules:
            for i, (t0, r) in enumerate(sched):
                t1 = sched[i + 1][0] if i + 1 < len(sched) else math.inf
                lo, hi = min(t0, t), min(t1, t)
                if hi > lo:
                    total += r * (hi - lo)
        return total


@dataclass(frozen=True)
class TrackedPoint:
    z0: complex
    g: complex
    log_gprime: complex = 0j
    alive: bool = True
    death_time: float | None = None


@dataclass(frozen=True)
class LoewnerState:
    t: float
    x: tuple[float, ...]
    marked: tuple[MarkedPoint, ...]
    tracked: tuple[TrackedPoint, ...]
    dx: tuple[float, ...] = ()


@dataclass
class Evolution:
    divisor: SymmetricDivisor
    nu: Parametrization
    states: list[LoewnerState]
    collision: tuple[float, float] | None = None
    collision_note: str | None = None

    @property
    def final(self) -> LoewnerState:
        return self.states[-1]


def _finite_marked(marked: Sequence[MarkedPoint]) -> list[tuple[int, complex, float]]:
    return [
        (i, q.value, float(s)) for i, (q, s) in enumerate(marked) if q.finite
    ]


def _driving_velocities(
    x: Sequence[float],
    marked: Sequence[MarkedPoint],
    rates: Sequence[float],
) -> list[float]:
    n = len(x)
    out = []
    for j in range(n):
        drift = rates[j] * divisors.dlog_Z(x, marked, j)
        inter = 0.0
        for k in range(n):
            if k != j:
                inter += 2.0 * rates[k] / (x[j] - x[k])
        out.append(drift + inter)
    return out


def _common_velocity(z: complex, x: Sequence[float], rates: Sequence[float]) -> complex:
    total = 0j
    for xk, rk in zip(x, rates):
        total += 2.0 * rk / (z - xk)
    return total


def _log_gprime_velocity(g: complex, x: Sequence[float], rates: Sequence[float]) -> complex:
    total = 0j
    for xk, rk in zip(x, rates):
        d = g - xk
        total -= 2.0 * rk / (d * d)
    return total


def _with_marked_positions(
    template: Sequence[MarkedPoint], finite: Sequence[tuple[int, complex, float]], values: Sequence[complex]
) -> tuple[MarkedPoint, ...]:
    out = list(template)
    for (idx, _, _), v in zip(finite, values):
        q, s = out[idx]
        out[idx] = (SpherePoint(v), s)
    return tuple(out)


def step(state: LoewnerState, dt: float, nu: Parametrization) -> LoewnerState:
    """One 4th-order step of the coupled driving/marked/tracked system.

    Raises CollisionError if two driving points (or a driving and a marked
    point) are within the collision tolerance before stepping.
    """
    gap, note = _min_gap(state.x, state.marked)
    if gap < COLLISION_TOL:
        raise CollisionError(
            f"collision at t={state.t:.12g}: {note}", state.t, state.t + gap
        )
    t = state.t
    x0 = list(state.x)
    finite = _finite_marked(state.marked)
    q0 = [q for _, q, _ in finite]
    live = [tp for tp in state.tracked if tp.alive]
    g0 = [tp.g for tp in live]
    w0 = [tp.log_gprime for tp in live]

    def rhs(ts: float, x: list[float], q: list[complex], g: list[complex]):
        rates = nu.rates(ts)
        marked_now = _with_marked_positions(state.marked, finite, q)
        dx = _driving_velocities(x, marked_now, rates)
        dq = [_common_velocity(qi, x, rates) for qi in q]
        dg = [_common_velocity(gi, x, rates) for gi in g]
        dw = [_log_gprime_velocity(gi, x, rates) for gi in g]
        return dx, dq, dg, dw

    k1 = rhs(t, x0, q0, g0)
    k2 = rhs(
        t + dt / 2,
        [a + dt / 2 * b for a, b in zip(x0, k1[0])],
        [a + dt / 2 * b for a, b in zip(q0, k1[1])],
        [a + dt / 2 * b for a, b in zip(g0, k1[2])],
    )
    k3 = rhs(
        t + dt / 2,
        [a + dt / 2 * b for a, b in zip(x0, k2[0])],
        [a + dt / 2 * b for a, b in zip(q0, k2[1])],
        [a + dt / 2 * b for a, b in zip(g0, k2[2])],
    )
    k4 = rhs(
        t + dt,
        [a + dt * b for a, b in zip(x0, k3[0])],
        [a + dt * b for a, b in zip(q0, k3[1])],
        [a + dt * b for a, b in zip(g0, k3[2])],
    )

    def combine(y0, i):
        return [
            y + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for y, a, b, c, d in zip(y0, k1[i], k2[i], k3[i], k4[i])
        ]

    x1 = combine(x0, 0)
    q1 = combine(q0, 1)
    g1 = combine(g0, 2)
    w1 = combine(w0, 3)
    t1 = t + dt

    tracked = []
    idx = 0
    for tp in state.tracked:
        if not tp.alive:
            tracked.append(tp)
            continue
        g_new, w_new = g1[idx], w1[idx]
        idx += 1
        dead = min(abs(g_new - xj) for xj in x1) < COLLISION_TOL
        tracked.append(
            replace(
                tp,
                g=g_new,
                log_gprime=w_new,
                alive=not dead,
                death_time=t1 if dead else None,
            )
        )

    rates1 = nu.rates(t1)
    marked1 = _with_marked_positions(state.marked, finite, q1)
    return LoewnerState(
        t=t1,
        x=tuple(x1),
        marked=marked1,
        tracked=tuple(tracked),
        dx=tuple(_driving_velocities(x1, marked1, rates1)),
    )


def _min_gap(x: Sequence[float], marked: Sequence[MarkedPoint]) -> tuple[float, str]:
    best = math.inf
    note = ""
    for j in range(len(x)):
        for k in range(j + 1, len(x)):
            d = abs(x[j] - x[k])
            if d < best:
                best, note = d, f"driving points {j} and {k}"
        for q, _ in marked:
            if q.finite:
                d = abs(x[j] - q.value)
                if d < best:
                    best, note = d, f"driving point {j} and marked point {q}"
    return best, note


def _dt_cap(state: LoewnerState, dt: float, nu: Parametrization) -> float:
    rates = nu.rates(state.t)
    total = sum(rates)
    gap, _ = _min_gap(state.x, state.marked)
    cap = GAP_CAP_SAFETY * gap * gap / (8.0 * total)
    out = min(dt, cap)
    for tp in state.tracked:
        if not tp.alive:
            continue
        d = min(abs(tp.g - xj) for xj in state.x)
        if d < 1.0:
            out = min(out, TRACK_CAP_COEFF * d * d)
    return out


def evolve(
    divisor: SymmetricDivisor,
    T: float,
    dt: float,
    nu: Parametrization | None = None,
    tracked: Sequence[complex] = (),
) -> Evolution:
    """Integrate the system to time T (or to just before a collision).

    States are recorded at every accepted step. Tracked observers that come
    within the collision tolerance of a driving point are marked dead and
    frozen; a driving collision stops the evolution and is reported as a
    time bracket.
    """
    report = divisors.validate(divisor)
    if not report.ok:
        raise DegenerateConfigurationError(f"invalid divisor: {report}")
    if divisor.domain != HALF_PLANE:
        raise DegenerateConfigurationError(
            "evolution runs on the half-plane; transport the divisor first"
        )
    if nu is None:
        nu = Parametrization.constant([1.0] * len(divisor.growth))
    if nu.n_curves != len(divisor.growth):
        raise ValueError("one rate schedule per growth point required")

    x0 = tuple(p.value.real for p in divisor.growth)
    state = LoewnerState(
        t=0.0,
        x=x0,
        marked=divisor.marked,
        tracked=tuple(TrackedPoint(z0=z, g=z) for z in tracked),
        dx=tuple(_driving_velocities(x0, divisor.marked, nu.rates(0.0))),
    )
    evolution = Evolution(divisor=divisor, nu=nu, states=[state])

    t = 0.0
    while t < T:
        remaining = T - t
        dt_eff = min(_dt_cap(state, dt, nu), remaining)
        if dt_eff < remaining and remaining - dt_eff < 1e-6 * dt_eff:
            dt_eff = remaining  # absorb the rounding tail into the last step
        if t + dt_eff == t:
            # the cap has collapsed below time resolution: either a tracked
            # point is being swallowed (freeze it) or a collision is here
            limiting = None
            limiting_gap = 1.0
            for i, tp in enumerate(state.tracked):
                if not tp.alive:
                    continue
                d = min(abs(tp.g - xj) for xj in state.x)
                if d < limiting_gap:
                    limiting, limiting_gap = i, d
            if limiting is not None:
                tracked_new = list(state.tracked)
                tracked_new[limiting] = replace(
                    state.tracked[limiting], alive=False, death_time=t
                )
                state = replace(state, tracked=tuple(tracked_new))
                evolution.states[-1] = state
                continue
            gap, note = _min_gap(state.x, state.marked)
            evolution.collision = (t, t + gap)
            evolution.collision_note = note
            break
        try:
            state = step(state, dt_eff, nu)
        except CollisionError as exc:
            evolution.collision = (exc.t_lo, exc.t_hi)
            evolution.collision_note = str(exc)
            break
        evolution.states.append(state)
        t = state.t
    return evolution


class _DrivingInterpolator:
    """Cubic Hermite interpolation of the driving paths on the state grid."""

    def __init__(self, evolution: Evolution):
        states = evolution.states
        self.ts = [s.t for s in states]
        self.xs = [s.x for s in states]
        self.dxs = [s.dx for s in states]
        self.n = len(states[0].x)

    def __call__(self, t: float) -> tuple[float, ...]:
        ts = self.ts
        if t <= ts[0]:
            return self.xs[0]
        if t >= ts[-1]:
            return self.xs[-1]
        i = bisect.bisect_right(ts, t) - 1
        t0, t1 = ts[i], ts[i + 1]
        h = t1 - t0
        tau = (t - t0) / h
        h00 = (1.0 + 2.0 * tau) * (1.0 - tau) ** 2
        h10 = tau * (1.0 - tau) ** 2
        h01 = tau * tau * (3.0 - 2.0 * tau)
        h11 = tau * tau * (tau - 1.0)
        return tuple(
            h00 * self.xs[i][j]
            + h * h10 * self.dxs[i][j]
            + h01 * self.xs[i + 1][j]
            + h * h11 * self.dxs[i + 1][j]
            for j in range(self.n)
        )


def _reverse_point(
    interp: _DrivingInterpolator,
    nu: Parametrization,
    t: float,
    w: complex,
) -> complex:
    """Solve the reverse flow from w at time t back to time 0.

    The result is the preimage of w under the forward map at time t. Steps
    are capped quadratically in the distance to the (time-reversed) driving
    points, which start arbitrarily close to w.
    """
    z = w
    s = 0.0
    guard = 0
    while s < t:
        x_here = interp(t - s)
        rates = nu.rates(t - s)
        total = sum(rates)
        gap = min(abs(z - xj) for xj in x_here)
        ds = min(REVERSE_CAP_COEFF * gap * gap / (2.0 * total), t - s)
        if s + ds == s:
            raise InversionFailureError(
                f"reverse solve stalled at s={s:.3e} (gap {gap:.3e})"
            )
        t_mid = t - (s + ds / 2)
        x_mid, rates_mid = interp(t_mid), nu.rates(t_mid)
        t_end = t - (s + ds)
        k1 = -_common_velocity(z, x_here, rates)
        k2 = -_common_velocity(z + ds / 2 * k1, x_mid, rates_mid)
        k3 = -_common_velocity(z + ds / 2 * k2, x_mid, rates_mid)
        k4 = -_common_velocity(z + ds * k3, interp(t_end), nu.rates(t_end))
        z = z + ds / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += ds
        guard += 1
        if guard > 2_000_000:
            raise InversionFailureError("reverse solve exceeded step budget")
    return z


@dataclass(frozen=True)
class HullSample:
    t: float
    curve: int
    point: complex


def trace_hull(
    evolution: Evolution,
    times: Sequence[float],
    lift: float = DEFAULT_LIFT,
) -> list[HullSample]:
    """Hull tips gamma_j(t) for each requested time and each curve.

    gamma_j(t) is the preimage of x_j(t) + i*lift under the forward map,
    found by integrating the reverse flow; the lift regularizes the
    boundary start of the reverse solve.
    """
    interp = _DrivingInterpolator(evolution)
    t_max = evolution.states[-1].t
    out = []
    for t in times:
        if t < 0 or t > t_max + 1e-12:
            raise InversionFailureError(f"time {t} outside the evolved range")
        x_t = interp(t)
        for j in range(interp.n):
            w = complex(x_t[j], lift)
            out.append(HullSample(t, j, _reverse_point(interp, evolution.nu, t, w)))
    return out


@dataclass(frozen=True)
class MotionIntegralReport:
    z: complex
    n_samples: int
    t_first: float
    t_last: float
    log_abs_initial: float
    max_rel_drift: float
    max_arg_drift: float
    alive: bool
    death_time: float | None


def motion_integral(
    evolution: Evolution, z: complex, times: Sequence[float] | None = None
) -> MotionIntegralReport:
    """Drift report for the conserved observable attached to a tracked point.

    The observable is g'(z)^2 prod_k (g(z)-x_k)^2 prod_l (g(z)-q_l)^(2 s_l)
    (marked factors at infinity dropped). Its modulus is computed in log
    space from the integrated log g'; its argument is tracked continuously
    by unwrapping each factor's phase along the state sequence. If z dies
    before the last requested time the report covers the alive range and is
    flagged.
    """
    index = None
    for i, tp in enumerate(evolution.states[0].tracked):
        if abs(tp.z0 - z) <= 1e-12:
            index = i
            break
    if index is None:
        raise ValueError(f"{z} was not tracked by this evolution")

    wanted = None
    if times is not None:
        wanted = sorted(times)

    ts: list[float] = []
    log_abs: list[float] = []
    factor_phases: list[list[float]] = []
    weights: list[float] = []
    arg_smooth: list[float] = []

    first = True
    death = None
    for state in evolution.states:
        tp = state.tracked[index]
        if not tp.alive:
            death = tp.death_time if death is None else death
            break
        g = tp.g
        vals: list[complex] = []
        wts: list[float] = []
        for xj in state.x:
            vals.append(g - xj)
            wts.append(2.0)
        for q, s in state.marked:
            if q.finite:
                vals.append(g - q.value)
                wts.append(2.0 * float(s))
        if first:
            weights = wts
            factor_phases = [[] for _ in vals]
            first = False
        la = 2.0 * tp.log_gprime.real
        for v, w_ in zip(vals, wts):
            la += w_ * math.log(abs(v))
        ts.append(state.t)
        log_abs.append(la)
        for buf, v in zip(factor_phases, vals):
            buf.append(cmath.phase(v))
        arg_smooth.append(2.0 * tp.log_gprime.imag)

    if not ts:
        raise ValueError("tracked point dead from the start")

    args = np.asarray(arg_smooth)
    for buf, w_ in zip(factor_phases, weights):
        args = args + w_ * np.unwrap(np.asarray(buf))

    if wanted is not None:
        keep = []
        k = 0
        arr = ts
        for target in wanted:
            pos = bisect.bisect_right(arr, target + 1e-15) - 1
            if pos >= 0:
                keep.append(pos)
        keep = sorted(set(keep))
        ts = [ts[i] for i in keep]
        log_abs = [log_abs[i] for i in keep]
        args = args[keep]

    la0 = log_abs[0]
    max_rel = max(abs(math.expm1(la - la0)) for la in log_abs)
    a0 = float(args[0])
    max_arg = float(np.max(np.abs(args - a0))) if len(args) else 0.0

    requested_end = wanted[-1] if wanted else evolution.states[-1].t
    alive = death is None or death > requested_end
    return MotionIntegralReport(
        z=z,
        n_samples=len(ts),
        t_first=ts[0],
        t_last=ts[-1],
        log_abs_initial=la0,
        max_rel_drift=max_rel,
        max_arg_drift=max_arg,
        alive=alive,
        death_time=death,
    )
