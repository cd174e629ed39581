"""Multiple chordal Loewner evolution with marked points.

The upper half-plane hull grows from n real driving points x_j, each moving
with its own rate nu_j(t):

    dx_j/dt = nu_j d/dx_j log Z(x, q) + sum_{k != j} 2 nu_k / (x_j - x_k),

while marked points and tracked observers z are carried by the common field

    dz/dt = sum_j 2 nu_j / (z - x_j),

and log g'(z) by its derivative flow. Everything is integrated together with
a classical 4th-order step; the step size is capped quadratically in the
smallest point gap so that collisions are approached geometrically instead
of being overshot, and steps end exactly on the breakpoints of the rates.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import divisors
from .divisors import HALF_PLANE, SymmetricDivisor, format_complex
from .errors import DegenerateConfigurationError, InversionFailureError

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
                raise ValueError("first breakpoint must be at t=0")
            times = [t for t, _ in sched]
            if times != sorted(times):
                raise ValueError("rate breakpoints must increase")
            if any(r <= 0.0 for _, r in sched):
                raise ValueError("rates must be positive")
        # not fields: the intervals on which every rate is constant, given by
        # their start times (0 first) and their rates, for `rates` and `pieces`
        starts = sorted({0.0}.union(t for sched in self.schedules for t, _ in sched))
        rates = []
        for t in starts:
            rates.append(tuple([
                sched[bisect.bisect_right([t0 for t0, _ in sched], t) - 1][1]
                for sched in self.schedules
            ]))
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_rates", rates)

    @classmethod
    def constant(cls, rates: Sequence[float]) -> "Parametrization":
        return cls(tuple(((0.0, float(r)),) for r in rates))

    @property
    def n_curves(self) -> int:
        return len(self.schedules)

    def rates(self, t: float) -> tuple[float, ...]:
        return self._rates[max(bisect.bisect_right(self._starts, t) - 1, 0)]

    def breakpoints(self) -> list[float]:
        """The times after 0 at which some rate changes, increasing."""
        return self._starts[1:]

    def pieces(self) -> tuple[list[float], list[tuple[float, ...]]]:
        """The start times (0 first) of the intervals on which every rate is
        constant, and the rates on each."""
        return list(self._starts), list(self._rates)

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


class LoewnerState(NamedTuple):
    """The flow at time t.

    ``x`` and ``dx`` are the driving points and their velocities, ``q`` the
    finite marked points in divisor order, and ``g`` and ``log_gprime`` hold
    one entry per observer (frozen from its death on).
    """

    t: float
    x: tuple[float, ...]
    dx: tuple[float, ...]
    q: tuple[complex, ...]
    g: tuple[complex, ...]
    log_gprime: tuple[complex, ...]


@dataclass
class Evolution:
    """The recorded states of one flow; ``tracked`` holds the observers'
    start points and ``death_times`` the time each was swallowed (None
    while alive)."""

    divisor: SymmetricDivisor
    nu: Parametrization
    states: list[LoewnerState]
    tracked: tuple[complex, ...]
    death_times: list[float | None]
    collision: tuple[float, float] | None = None
    collision_note: str | None = None

    @property
    def final(self) -> LoewnerState:
        return self.states[-1]


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


def _velocities(
    x: Sequence[float],
    q: Sequence[complex],
    s: Sequence[float],
    g: Sequence[complex],
    rates: Sequence[float],
) -> tuple[list[float], list[complex], list[complex], list[complex]]:
    """d/dt of the driving points, the marked points, the observers' images
    and their log g', with charges ``s`` on the marked points."""
    dlog = divisors.dlog_Z(x, q, s)
    dx = []
    for j, xj in enumerate(x):
        inter = 0.0
        for k, xk in enumerate(x):
            if k != j:
                inter += 2.0 * rates[k] / (xj - xk)
        dx.append(rates[j] * dlog[j] + inter)
    return (
        dx,
        [_common_velocity(z, x, rates) for z in q],
        [_common_velocity(z, x, rates) for z in g],
        [_log_gprime_velocity(z, x, rates) for z in g],
    )


def _shift(y: list, k: list, h: float) -> list:
    return [a + h * b for a, b in zip(y, k)]


def _rk4(y: list, k1: list, k2: list, k3: list, k4: list, h: float) -> list:
    h6 = h / 6.0
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def _min_gap(x: Sequence[float], q: Sequence[complex]) -> tuple[float, str]:
    best = math.inf
    note = ""
    for j in range(len(x)):
        for k in range(j + 1, len(x)):
            d = abs(x[j] - x[k])
            if d < best:
                best, note = d, f"driving points {j} and {k}"
        for ql in q:
            d = abs(x[j] - ql)
            if d < best:
                best, note = d, f"driving point {j} and marked point {format_complex(ql)}"
    return best, note


def evolve(
    divisor: SymmetricDivisor,
    T: float,
    dt: float,
    nu: Parametrization | None = None,
    tracked: Sequence[complex] = (),
) -> Evolution:
    """Integrate the system to time T (or to just before a collision).

    States are recorded at every accepted step, and twice at a rate
    breakpoint before T: first with the velocities under the old rates, then
    under the new ones. Tracked observers that come within the collision
    tolerance of a driving point are marked dead and frozen; a driving
    collision stops the evolution and is reported as a time bracket.
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

    x = [p.value.real for p in divisor.growth]
    q, s = divisor.finite_marked()
    g = list(tracked)
    w = [0j] * len(g)
    # an observer on a driving point is swallowed at once
    death_times: list[float | None] = [
        0.0 if min(abs(z - xj) for xj in x) < COLLISION_TOL else None for z in g
    ]
    live = [i for i, death in enumerate(death_times) if death is None]
    breaks = [b for b in nu.breakpoints() if b < T]
    next_break = 0
    t = 0.0
    rates = nu.rates(t)
    # the velocities at the latest state: its dx, and the next step's k1
    vel = _velocities(x, q, s, [g[i] for i in live], rates)
    states = [LoewnerState(t, tuple(x), tuple(vel[0]), tuple(q), tuple(g), tuple(w))]
    evolution = Evolution(divisor, nu, states, tuple(tracked), death_times)

    while t < T:
        gap, note = _min_gap(x, q)
        stop = breaks[next_break] if next_break < len(breaks) else T
        remaining = stop - t
        h = min(dt, GAP_CAP_SAFETY * gap * gap / (8.0 * sum(rates)))
        dists = [min(abs(g[i] - xj) for xj in x) for i in live]
        for d in dists:
            if d < 1.0:
                h = min(h, TRACK_CAP_COEFF * d * d)
        h = min(h, remaining)
        if h < remaining and remaining - h < 1e-6 * h:
            h = remaining  # absorb the rounding tail into the step that reaches stop
        if t + h == t and min(dists, default=1.0) < 1.0:
            # the cap has collapsed below time resolution because a tracked
            # point is being swallowed: freeze it
            pos = dists.index(min(dists))
            death_times[live.pop(pos)] = t
            del vel[2][pos], vel[3][pos]
            continue
        if gap < COLLISION_TOL or t + h == t:
            # the driving gap is closed, or its cap has collapsed below time
            # resolution: a collision is here
            evolution.collision = (t, t + gap)
            evolution.collision_note = f"collision at t={t:.12g}: {note}"
            break

        g0 = [g[i] for i in live]
        h2 = h / 2
        k1 = vel
        k2 = _velocities(_shift(x, k1[0], h2), _shift(q, k1[1], h2), s, _shift(g0, k1[2], h2), rates)
        k3 = _velocities(_shift(x, k2[0], h2), _shift(q, k2[1], h2), s, _shift(g0, k2[2], h2), rates)
        k4 = _velocities(_shift(x, k3[0], h), _shift(q, k3[1], h), s, _shift(g0, k3[2], h), rates)
        x, q, g1, w1 = (
            _rk4(y, k1[i], k2[i], k3[i], k4[i], h)
            for i, y in enumerate((x, q, g0, [w[i] for i in live]))
        )
        t1 = t + h
        at_break = stop < T and (h == remaining or t1 >= stop)
        if at_break:
            t1 = stop
            next_break += 1
        for i, gi, wi in zip(live, g1, w1):
            g[i], w[i] = gi, wi
            if min(abs(gi - xj) for xj in x) < COLLISION_TOL:
                death_times[i] = t1
        live = [i for i in live if death_times[i] is None]
        row = (tuple(q), tuple(g), tuple(w))
        if at_break:
            states.append(LoewnerState(t1, tuple(x), tuple(_velocities(x, q, s, (), rates)[0]), *row))
        rates = nu.rates(t1)
        vel = _velocities(x, q, s, [g[i] for i in live], rates)
        states.append(LoewnerState(t1, tuple(x), tuple(vel[0]), *row))
        t = t1
    return evolution


class _DrivingPaths:
    """Cubic Hermite interpolation of the driving paths on the state grid,
    held constant outside it."""

    def __init__(self, states: Sequence[LoewnerState]):
        self.ts = np.array([st.t for st in states])
        self.t_first, self.t_last = states[0].t, states[-1].t
        # one row per driving point; the last state is repeated so that
        # column i + 1 exists for every i, with a placeholder step of 1.0
        # (a lookup at t_last lands there with tau = 0)
        self.hs = np.append(np.diff(self.ts), 1.0)
        self.xs = np.array([st.x for st in states] + [states[-1].x]).T.copy()
        self.dxs = np.array([st.dx for st in states] + [states[-1].dx]).T.copy()

    def at(self, t: np.ndarray) -> np.ndarray:
        """The driving positions at the times ``t``, one row per point."""
        t = np.minimum(np.maximum(t, self.t_first), self.t_last)
        # bisect_right: at a time recorded twice (a rate breakpoint), the
        # interval after it
        i = self.ts.searchsorted(t, "right") - 1
        h = self.hs.take(i)
        tau = (t - self.ts.take(i)) / h
        u2 = (1.0 - tau) * (1.0 - tau)
        tau2 = tau * tau
        j = i + 1
        return (
            (1.0 + 2.0 * tau) * u2 * self.xs.take(i, 1)
            + h * (tau * u2) * self.dxs.take(i, 1)
            + tau2 * (3.0 - 2.0 * tau) * self.xs.take(j, 1)
            + h * (tau2 * (tau - 1.0)) * self.dxs.take(j, 1)
        )


def _reverse_velocity(
    zr: np.ndarray, zi: np.ndarray, x: np.ndarray, coeff: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of -sum_k coeff_k / (z - x_k), with one
    column per z and one row per driving point in ``x`` and ``coeff``.

    Each quotient is CPython's real over complex division (Smith's method:
    scale by the larger part of the denominator, then divide), and the sum
    runs over the driving points in order, so that a column gets the bits
    of the same sum over Python complex numbers.
    """
    br = zr - x
    swap = np.abs(br) < np.abs(zi)
    big = np.where(swap, zi, br)
    small = np.where(swap, br, zi)
    ratio = small / big
    den = big + small * ratio
    re = coeff * np.where(swap, ratio, 1.0) / den
    im = coeff * np.where(swap, 1.0, ratio) / den
    tr, ti = re[0], im[0]
    for k in range(1, len(x)):
        tr = tr + re[k]
        ti = ti + im[k]
    return -tr, ti


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
    found by integrating the reverse flow dz/ds = -sum_k 2 nu_k / (z - x_k)
    at time t - s from s = 0 to s = t; the lift regularizes the boundary
    start of the reverse solve.

    All samples advance together as arrays, one RK4 step each per sweep,
    and leave the sweep when they reach s = t. Each keeps its own step,
    capped quadratically in its distance to the (time-reversed) driving
    points, which start arbitrarily close to it, and cut to end where it
    reaches the next rate breakpoint below, so that a step sees one set of
    rates. The gap is a hypot and the velocity sums run over the driving
    points in order, so a sample gets the bits of the same solve on Python
    complex numbers, whatever the other samples of the call.
    """
    t_max = evolution.states[-1].t
    for t in times:
        if not 0 <= t <= t_max + 1e-12:
            raise InversionFailureError(f"time {t} outside the evolved range")
    n = len(evolution.states[0].x)
    paths = _DrivingPaths(evolution.states)
    starts, piece_rates = evolution.nu.pieces()
    starts = np.array(starts)
    # per piece: 2 nu_k, one row per driving point, and 2 sum nu for the cap
    coeffs = 2.0 * np.array(piece_rates).reshape(len(starts), n).T
    twice_sums = np.array([2.0 * sum(r) for r in piece_rates])

    # one sample per (time, curve), in the order of the output
    t = np.repeat(np.array(times, dtype=float), n)
    m = len(t)
    x_here = paths.at(t)
    zr = x_here[np.tile(np.arange(n), len(times)), np.arange(m)]
    zi = np.full(m, lift)
    s = np.zeros(m)
    # the piece below the sample time: a sample at a breakpoint starts on
    # the rates before it
    piece = np.maximum(starts.searchsorted(t) - 1, 0)
    index = np.arange(m)
    out_r, out_i = zr.copy(), zi.copy()
    sweeps = 0
    while True:
        live = s < t
        if not live.all():
            done = ~live
            out_r[index[done]], out_i[index[done]] = zr[done], zi[done]
            index, t, s, zr, zi, piece = (a[live] for a in (index, t, s, zr, zi, piece))
            x_here = x_here[:, live]
        if not index.size:
            break
        sweeps += 1
        if sweeps > 2_000_000:
            raise InversionFailureError("reverse solve exceeded step budget")
        dist = np.hypot(zr - x_here, zi)
        gap = dist[0]
        for row in dist[1:]:
            gap = np.minimum(gap, row)
        room = t - starts.take(piece) - s
        ds = np.minimum(REVERSE_CAP_COEFF * gap * gap / twice_sums.take(piece), room)
        s_end = s + ds
        stalled = s_end == s
        if stalled.any():
            k = int(stalled.argmax())
            raise InversionFailureError(
                f"reverse solve stalled at s={s[k]:.3e} (gap {gap[k]:.3e})"
            )
        h2 = ds / 2
        x_stages = paths.at(np.concatenate((t - (s + h2), t - s_end)))
        x_mid, x_end = x_stages[:, : len(s)], x_stages[:, len(s) :]
        coeff = coeffs.take(piece, 1)
        k1r, k1i = _reverse_velocity(zr, zi, x_here, coeff)
        k2r, k2i = _reverse_velocity(zr + h2 * k1r, zi + h2 * k1i, x_mid, coeff)
        k3r, k3i = _reverse_velocity(zr + h2 * k2r, zi + h2 * k2i, x_mid, coeff)
        k4r, k4i = _reverse_velocity(zr + ds * k3r, zi + ds * k3i, x_end, coeff)
        h6 = ds / 6.0
        zr = zr + h6 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        zi = zi + h6 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        s, x_here = s_end, x_end
        # a step that reached its breakpoint hands the sample to the piece below
        piece -= (ds == room) & (piece > 0)
    return [
        HullSample(tk, j, complex(out_r[k * n + j], out_i[k * n + j]))
        for k, tk in enumerate(times)
        for j in range(n)
    ]


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


def motion_integral(evolution: Evolution, z: complex) -> MotionIntegralReport:
    """Drift report for the conserved observable attached to a tracked point.

    The observable is g'(z)^2 prod_k (g(z)-x_k)^2 prod_l (g(z)-q_l)^(2 s_l)
    (marked factors at infinity dropped). Its modulus is computed in log
    space from the integrated log g'; its argument is tracked continuously
    by unwrapping each factor's phase along the state sequence. If z dies
    before the last state the report covers the alive range and is flagged.
    """
    index = next(
        (i for i, z0 in enumerate(evolution.tracked) if abs(z0 - z) <= 1e-12), None
    )
    if index is None:
        raise ValueError(f"{z} was not tracked by this evolution")

    _, charges = evolution.divisor.finite_marked()
    weights = [2.0] * len(evolution.states[0].x) + [2.0 * s for s in charges]
    death = evolution.death_times[index]
    ts: list[float] = []
    log_abs: list[float] = []
    phases: list[list[float]] = []
    arg_smooth: list[float] = []
    for state in evolution.states:
        if death is not None and state.t >= death:
            break
        g = state.g[index]
        vals = [g - xj for xj in state.x] + [g - ql for ql in state.q]
        log_gprime = state.log_gprime[index]
        la = 2.0 * log_gprime.real
        for v, w_ in zip(vals, weights):
            la += w_ * math.log(abs(v))
        ts.append(state.t)
        log_abs.append(la)
        phases.append([cmath.phase(v) for v in vals])
        arg_smooth.append(2.0 * log_gprime.imag)

    if not ts:
        raise DegenerateConfigurationError(
            f"tracked point {format_complex(z)} starts on a driving point"
        )

    args = np.asarray(arg_smooth)
    columns = np.asarray(phases)
    for f, w_ in enumerate(weights):
        args = args + w_ * np.unwrap(columns[:, f])

    la0 = log_abs[0]
    max_rel = max(abs(math.expm1(la - la0)) for la in log_abs)
    a0 = float(args[0])
    max_arg = float(np.max(np.abs(args - a0)))
    return MotionIntegralReport(
        z=z,
        n_samples=len(ts),
        t_first=ts[0],
        t_last=ts[-1],
        log_abs_initial=la0,
        max_rel_drift=max_rel,
        max_arg_drift=max_arg,
        alive=death is None or death > evolution.final.t,
        death_time=death,
    )
