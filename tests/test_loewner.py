"""Coupled Loewner flow: closed-form laws, collisions, conserved motion."""

import bisect
import cmath
import math
import random

import numpy as np
import pytest
from conftest import half_plane_divisor, nan_after

from slezero import divisors, loewner
from slezero.conformal import transport
from slezero.divisors import HALF_PLANE, SymmetricDivisor
from slezero.errors import DegenerateConfigurationError, InversionFailureError, StepBudgetError
from slezero.loewner import HullSample, Parametrization, evolve, motion_integral, trace_hull
from slezero.scene import preset, single_curve_scene


def single_curve() -> SymmetricDivisor:
    return SymmetricDivisor.half_plane([0.0], [("inf", -3)])


def repelling_pair() -> SymmetricDivisor:
    # x2(t) = sqrt(1 + 4t), x1 = -x2
    return SymmetricDivisor.half_plane([-1.0, 1.0], [("inf", -4)])


def colliding_pair() -> SymmetricDivisor:
    # x2(t) = sqrt(1 - 4t): driving point 1 meets the marked point at 1/4
    return SymmetricDivisor.half_plane([-1.0, 1.0], [(0.0, -2), ("inf", -2)])


# curve 0 of the repelling pair doubles its rate at a time no step grid hits
BREAK = 0.1234567
BREAK_RATES = Parametrization((((0.0, 1.0), (BREAK, 2.0)), ((0.0, 1.0),)))


@pytest.fixture(scope="module")
def break_reference():
    return evolve(repelling_pair(), 0.25, 1e-5, BREAK_RATES)


@pytest.fixture(scope="module")
def fig1_flow():
    div, _ = transport(preset("fig1").divisor, HALF_PLANE)
    return evolve(div, 0.1, 1e-4)


@pytest.fixture(scope="module")
def eight_curve_flow():
    div = half_plane_divisor(random.Random(9), max_growth=10)
    assert len(div.growth) == 8
    return evolve(div, 0.01, 1e-3)


def reverse_point(ev, t, j, lift):
    """Hull sample (t, j) solved alone on Python complex numbers, with the
    step rule of trace_hull for constant rates: the loop the sweep must
    reproduce. It integrates dz/dr = 2r dz/ds in r = sqrt(s), with the
    end-of-step velocity k5 reused as the next first stage and the step
    sized by the embedded estimate |h/6 (k4 - k5)|."""
    ts = [st.t for st in ev.states]

    def x_at(time):
        if time <= ts[0]:
            return ev.states[0].x
        if time >= ts[-1]:
            return ev.states[-1].x
        i = bisect.bisect_right(ts, time) - 1
        a, b = ev.states[i], ev.states[i + 1]
        h = b.t - a.t
        tau = (time - a.t) / h
        h00 = (1.0 + 2.0 * tau) * ((1.0 - tau) * (1.0 - tau))
        h10 = tau * ((1.0 - tau) * (1.0 - tau))
        h01 = tau * tau * (3.0 - 2.0 * tau)
        h11 = tau * tau * (tau - 1.0)
        return [
            h00 * a.x[k] + h * h10 * a.dx[k] + h01 * b.x[k] + h * h11 * b.dx[k]
            for k in range(len(a.x))
        ]

    def velocity(z, x, w):
        total = 0j
        for xk, rk in zip(x, rates):
            total += 2.0 * rk / (z - xk)
        return complex(-w * total.real, -w * total.imag)

    (rates,) = ev.nu.piece_rates
    tol = loewner.REVERSE_TOL
    z, r, r_stop = complex(x_at(t)[j], lift), 0.0, math.sqrt(t)
    h = 0.1 * lift / math.sqrt(2.0 * sum(rates))
    k1 = 0j
    while r < r_stop:
        h = min(h, r_stop - r)
        r_end = r_stop if h == r_stop - r else r + h
        r_mid = r + h / 2
        x_mid, x_end = x_at(t - r_mid * r_mid), x_at(t - r_end * r_end)
        k2 = velocity(z + h / 2 * k1, x_mid, 2.0 * r_mid)
        k3 = velocity(z + h / 2 * k2, x_mid, 2.0 * r_mid)
        k4 = velocity(z + h * k3, x_end, 2.0 * r_end)
        z1 = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k5 = velocity(z1, x_end, 2.0 * r_end)
        err = h / 6.0 * abs(k4 - k5)
        scale = 0.9 * math.sqrt(math.sqrt(tol / err)) if err > 0.0 else math.inf
        if err <= tol:
            r, z, k1 = r_end, z1, k5
            h *= min(5.0, scale)
        else:
            h *= max(0.2, scale)
    return z


def scalar_flow(div, T, dt, nu, tracked, tol=None):
    """Times and the observers' g and log g' rows of the flow with every
    observer stepped on Python complex numbers inside the RK4 loop, with
    evolve's step rule and error control: the loop whose bits evolve's
    history must have."""
    x = [p.value.real for p in div.growth]
    q, s = div.finite_marked()
    g, w = list(tracked), [0j] * len(tracked)
    death = [None] * len(tracked)

    def field(z, x, rates):
        total = 0j
        for xk, rk in zip(x, rates):
            total += 2.0 * rk / (z - xk)
        return total

    def log_gprime_field(z, x, rates):
        total = 0j
        for xk, rk in zip(x, rates):
            d = z - xk
            total -= 2.0 * rk / (d * d)
        return total

    def velocities(x, q, g, rates):
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
            [field(z, x, rates) for z in q],
            [field(z, x, rates) for z in g],
            [log_gprime_field(z, x, rates) for z in g],
        )

    def shift(y, k, h):
        return [a + h * b for a, b in zip(y, k)]

    def rk4(y, k1, k2, k3, k4, h):
        h6 = h / 6.0
        return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]

    breaks = [b for b in nu.starts[1:] if b < T]
    t, rates, h_next = 0.0, nu.rates(0.0), math.inf
    rows = [(t, list(g), list(w))]
    while t < T:
        live = [i for i, d in enumerate(death) if d is None]
        gap = min([abs(a - b) for j, a in enumerate(x) for b in x[j + 1 :]] + [abs(a - b) for a in x for b in q], default=math.inf)
        stop = next((b for b in breaks if b > t), T)
        remaining = stop - t
        h = min(dt, h_next, loewner.GAP_CAP_SAFETY * gap * gap / (8.0 * sum(rates)))
        dists = [min(abs(g[i] - xj) for xj in x) for i in live]
        for d in dists:
            if d < 1.0:
                h = min(h, loewner.TRACK_CAP_COEFF * d * d)
        h = min(h, remaining)
        if h < remaining and remaining - h < 1e-6 * h:
            h = remaining
        if gap < loewner.COLLISION_TOL or t + h == t:
            break
        g0, w0 = [g[i] for i in live], [w[i] for i in live]
        k1 = velocities(x, q, g0, rates)
        k2 = velocities(shift(x, k1[0], h / 2), shift(q, k1[1], h / 2), shift(g0, k1[2], h / 2), rates)
        k3 = velocities(shift(x, k2[0], h / 2), shift(q, k2[1], h / 2), shift(g0, k2[2], h / 2), rates)
        k4 = velocities(shift(x, k3[0], h), shift(q, k3[1], h), shift(g0, k3[2], h), rates)
        x1, q1, g1, w1 = (rk4(y, k1[i], k2[i], k3[i], k4[i], h) for i, y in enumerate((x, q, g0, w0)))
        if tol is not None:
            # the embedded pair: k4 against the velocities at the end state
            k5 = velocities(x1, q1, g1, rates)
            err = h / 6.0 * max(abs(a - b) for a, b in zip(k4[0] + k4[1] + k4[2], k5[0] + k5[1] + k5[2]))
            scale = 0.9 * (tol / err) ** 0.25 if err > 0.0 else 5.0
            if err > tol:
                h_next = h * max(0.2, scale)
                continue
            h_next = h * min(5.0, scale)
        x, q = x1, q1
        t1 = t + h
        at_break = stop < T and (h == remaining or t1 >= stop)
        if at_break:
            t1 = stop
        for i, gi, wi in zip(live, g1, w1):
            g[i], w[i] = gi, wi
            # the death rule: on a driving point, or a cap that no longer advances t
            d = min(abs(gi - xj) for xj in x)
            if d < loewner.COLLISION_TOL or t1 + loewner.TRACK_CAP_COEFF * d * d == t1:
                death[i] = t1
        rows.extend([(t1, list(g), list(w))] * (2 if at_break else 1))
        if at_break:
            rates = nu.rates(t1)
        t = t1
    return rows, death


def history_bits(ts, g, w):
    return [
        (t.hex(), [(z.real.hex(), z.imag.hex(), v.real.hex(), v.imag.hex()) for z, v in zip(gs, ws)])
        for t, gs, ws in zip(ts, g, w)
    ]


def scalar_reports(ev):
    """Each observer's report by a loop over the states on Python numbers:
    the per-observer pass motion_integral must reproduce."""
    _, charges = ev.divisor.finite_marked()
    weights = [2.0] * len(ev.states[0].x) + [2.0 * s for s in charges]
    out = []
    for i, death in enumerate(ev.death_times):
        ts, log_abs, phases, arg_smooth = [], [], [], []
        for st, g, lg in zip(ev.states, ev.g[:, i].tolist(), ev.log_gprime[:, i].tolist()):
            if death is not None and st.t >= death:
                break
            vals = [g - xj for xj in st.x] + [g - ql for ql in st.q]
            la = 2.0 * lg.real
            for v, w_ in zip(vals, weights):
                la += w_ * math.log(abs(v))
            ts.append(st.t)
            log_abs.append(la)
            phases.append([cmath.phase(v) for v in vals])
            arg_smooth.append(2.0 * lg.imag)
        args = np.asarray(arg_smooth)
        for f, w_ in enumerate(weights):
            args = args + w_ * np.unwrap(np.asarray(phases)[:, f])
        max_rel = max(abs(math.expm1(la - log_abs[0])) for la in log_abs)
        out.append((len(ts), ts[-1], log_abs[0], max_rel, float(np.max(np.abs(args - args[0])))))
    return out


def bits(samples):
    return [(s.t, s.curve, s.point.real.hex(), s.point.imag.hex()) for s in samples]


class TestParametrization:
    def test_constant(self):
        nu = Parametrization.constant([1.0, 2.0])
        assert nu.n_curves == 2
        assert nu.rates(0.0) == (1.0, 2.0)
        assert nu.rates(5.0) == (1.0, 2.0)

    def test_schedule_lookup_and_integral(self):
        nu = Parametrization((((0.0, 1.0), (0.5, 2.0)),))
        assert nu.rates(0.2) == (1.0,)
        assert nu.rates(0.5) == (2.0,)
        assert nu.rates(0.9) == (2.0,)

    def test_breakpoints_of_all_schedules(self):
        # the piece table starts at 0, then at every breakpoint of every schedule
        nu = Parametrization((((0.0, 1.0), (0.5, 2.0)), ((0.0, 1.0), (0.2, 3.0), (0.5, 1.0))))
        assert nu.starts == (0.0, 0.2, 0.5)
        assert Parametrization.constant([1.0, 2.0]).starts == (0.0,)

    def test_pieces_of_all_schedules(self):
        nu = Parametrization((((0.0, 1.0), (0.5, 2.0)), ((0.0, 1.0), (0.2, 3.0), (0.5, 1.0))))
        assert nu.piece_rates == ((1.0, 1.0), (1.0, 3.0), (2.0, 1.0))
        assert [nu.rates(t) for t in nu.starts] == list(nu.piece_rates)

    def test_repeated_start_time_is_not_a_breakpoint(self):
        # the later entry wins; it used to make a breakpoint at 0, which
        # stopped the flow there as a collision
        nu = Parametrization((((0.0, 1.0), (0.0, 2.0)), ((0.0, 1.0),)))
        assert nu.starts == (0.0,)
        assert nu.rates(0.0) == (2.0, 1.0)
        ev = evolve(repelling_pair(), 0.1, 1e-2, nu)
        assert ev.collision is None and ev.final.t == pytest.approx(0.1)

    def test_schedule_must_start_at_zero(self):
        with pytest.raises(ValueError):
            Parametrization((((0.1, 1.0),),))

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            Parametrization((((0.0, 1.0), (0.6, 2.0), (0.3, 1.0)),))

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            Parametrization((((0.0, -1.0),),))


class TestSingleCurve:
    def test_slit_map_closed_form(self):
        # a 16 x 16 grid of observers, enough for their field to run on arrays
        z = (np.linspace(-4.0, 4.0, 16)[:, None] + 1j * np.linspace(0.5, 4.0, 16)).ravel()
        assert len(z) >= loewner.ARRAY_QUOTIENTS
        ev = evolve(single_curve(), 0.05, 1e-4, tracked=tuple(z.tolist()))
        assert all(s.x == (0.0,) for s in ev.states)
        assert ev.death_times == [None] * len(z)
        # g(z, t) = sqrt(z^2 + 4t) on the branch in the upper half-plane
        ts = np.array([s.t for s in ev.states])
        expected = np.sqrt(z * z + 4.0 * ts[:, None])
        expected = np.where(expected.imag < 0.0, -expected, expected)
        assert np.abs(ev.g - expected).max() < 1e-13

    def test_half_plane_capacity(self):
        z = 1000j
        ev = evolve(single_curve(), 0.1, 1e-3, tracked=(z,))
        probe = (ev.g[-1, 0] - z) * z
        # twice the integrated rate: 2 * nu * T
        assert probe.real == pytest.approx(2 * 1.0 * 0.1, abs=1e-6)

    def test_hull_is_a_vertical_slit(self):
        ev = evolve(single_curve(), 1.0, 1e-3)
        times = [k / 20 for k in range(21)]
        samples = trace_hull(ev, times)
        assert len(samples) == 21
        worst = max(abs(s.point - 2j * math.sqrt(s.t)) for s in samples)
        assert worst < 5e-6  # floored by the boundary lift

    def test_hull_is_the_lift_exact_slit(self):
        # the reverse solve from i*lift has the closed form i sqrt(4t + lift^2)
        ev = evolve(single_curve(), 1.0, 1e-3)
        samples = trace_hull(ev, [k / 20 for k in range(21)], 1e-6)
        worst = max(abs(s.point - 1j * math.sqrt(4.0 * s.t + 1e-12)) for s in samples)
        assert worst < 1e-10

    def test_hull_across_a_rate_breakpoint_is_the_exact_slit(self):
        # with the rate 1 before 0.35 and 2 after it, the slit is
        # i sqrt(4 int_0^t nu + lift^2); the rates of the wrong side of
        # the breakpoint would miss it by 0.1
        ev = evolve(single_curve(), 1.0, 1e-3, Parametrization((((0.0, 1.0), (0.35, 2.0)),)))
        samples = trace_hull(ev, [k / 20 for k in range(21)], 1e-6)
        area = [min(s.t, 0.35) + 2.0 * max(0.0, s.t - 0.35) for s in samples]
        worst = max(abs(s.point - 1j * math.sqrt(4.0 * a + 1e-12)) for s, a in zip(samples, area))
        # below the breakpoint the slit is curved in sqrt(s): 3.0e-9 at the
        # reverse tolerance 1e-9
        assert worst < 1e-8

    def test_hull_time_outside_range(self):
        ev = evolve(single_curve(), 0.5, 1e-3)
        with pytest.raises(InversionFailureError):
            trace_hull(ev, [0.7])

    def test_tracked_point_death(self):
        # g(2i, t) = sqrt(4t - 4) hits the driving point at t = 1
        ev = evolve(single_curve(), 1.0, 1e-4, tracked=(2j,))
        death = ev.death_times[0]
        assert death == pytest.approx(1.0, abs=1e-9)
        (rep,) = motion_integral(ev)
        assert not rep.alive
        assert rep.death_time == death
        assert rep.max_rel_drift < 1e-6
        assert rep.t_last < 1.0

    def test_built_in_scene_meets_its_closed_forms(self):
        # verify's default scene at its own step settings is at least as
        # accurate as fixed dt = 1e-4 steps, in fewer states
        scene = single_curve_scene()
        lo = scene.loewner
        ev = evolve(scene.divisor, lo.T, lo.dt, scene.rates, lo.tracked, lo.tol)
        assert len(ev.states) < 5000
        assert all(s.x == (0.0,) for s in ev.states)
        ts = np.array([s.t for s in ev.states])
        alive = ts < ev.death_times[0]
        ts, g_num, log_num = ts[alive], ev.g[alive, 0], ev.log_gprime[alive, 0]
        g = 2j * np.sqrt(1.0 - ts)
        log_gprime = -0.5 * np.log(1.0 - ts)
        # (t cut, the fixed-step errors of g relative and of log g' there)
        limits = ((0.9, 4.6e-13, 4.6e-13), (0.99, 7.3e-12, 1.5e-11), (0.9999, 4.0e-9, 4.9e-9))
        for t_cut, g_limit, log_limit in limits:
            m = ts < t_cut
            assert np.max(np.abs(g_num[m] - g[m]) / np.abs(g[m])) < g_limit
            assert np.max(np.abs(log_num[m] - log_gprime[m])) < log_limit
        assert motion_integral(ev)[0].max_rel_drift < 1.097e-8

    def test_motion_integral_is_conserved(self):
        ev = evolve(single_curve(), 1.0, 1e-4, tracked=(4j,))
        (rep,) = motion_integral(ev)
        assert rep.alive
        assert rep.n_samples == len(ev.states)
        assert rep.max_rel_drift < 1e-10
        assert rep.max_arg_drift < 1e-10

    def test_observer_on_a_driving_or_marked_point_is_refused(self):
        # refused before the first step, whatever the caller asks of the flow
        with pytest.raises(DegenerateConfigurationError, match="tracked point 0.0 starts on a driving point"):
            evolve(single_curve(), 0.1, 1e-3, tracked=(4j, 0j))
        with pytest.raises(DegenerateConfigurationError, match="tracked point 1e-09i starts on a driving point"):
            evolve(single_curve(), 0.1, 1e-3, tracked=(1e-9j,))
        pair = SymmetricDivisor.half_plane([0.0], [(1 + 1j, -1), (1 - 1j, -1), ("inf", -1)])
        with pytest.raises(DegenerateConfigurationError, match=r"tracked point 1\.0\+1\.0i starts on marked point 1\.0\+1\.0i"):
            evolve(pair, 0.1, 1e-3, tracked=(2j, 1 + 1j))
        # just outside the tolerance the observer is swallowed by the flow
        ev = evolve(single_curve(), 0.1, 1e-3, tracked=(1e-7j,))
        assert 0.0 < ev.death_times[0] < 1e-14


def evolve_matching_the_scalar_loop(monkeypatch, div, T, dt, nu, tracked, tol=None):
    """The flow with the observers' field on arrays and on Python numbers,
    each checked against the scalar loop bit for bit."""
    rows, death = scalar_flow(div, T, dt, nu or Parametrization.constant([1.0] * len(div.growth)), tracked, tol)
    flows = []
    for threshold in (0, 10**9):
        monkeypatch.setattr(loewner, "ARRAY_QUOTIENTS", threshold)
        ev = evolve(div, T, dt, nu, tracked, tol)
        assert ev.death_times == death
        assert history_bits([st.t for st in ev.states], ev.g, ev.log_gprime) == history_bits(*zip(*rows))
        flows.append(ev)
    monkeypatch.undo()
    assert flows[0].states == flows[1].states
    return flows


def report_bits(reports):
    return [(r.n_samples, r.t_last, r.log_abs_initial, r.max_rel_drift, r.max_arg_drift) for r in reports]


class TestObservers:
    """The observers' history, integrated in blocks behind the step loop,
    and their reports, computed in one pass. Each flow runs with the
    observers' field on arrays and on Python numbers."""

    def test_ten_curves_and_32_observers_match_the_scalar_loop_bit_for_bit(self, monkeypatch):
        div = half_plane_divisor(random.Random(5), max_growth=10)
        assert len(div.growth) == 10 and div.finite_marked()[0]
        rng = random.Random(1)
        # some observers start below height 1, where the observer cap applies
        tracked = tuple(complex(rng.uniform(-4.0, 4.0), rng.uniform(0.05, 3.0)) for _ in range(32))
        for tol in (None, 1e-12):
            for ev in evolve_matching_the_scalar_loop(monkeypatch, div, 0.02, 2e-4, None, tracked, tol):
                # several quadrature blocks
                assert (len(ev.states) - 1) * (len(div.growth) + len(tracked)) > 2 * loewner.BLOCK_VALUES
                assert ev.rejected == (0 if tol is None else 1)
                assert report_bits(motion_integral(ev)) == scalar_reports(ev)

    def test_doubled_breakpoint_states_match_the_scalar_loop_bit_for_bit(self, monkeypatch):
        tracked = (0.5j, 1 + 0.2j, -2 + 1j)
        for tol in (None, 1e-12):
            for ev in evolve_matching_the_scalar_loop(monkeypatch, repelling_pair(), 0.25, 1e-3, BREAK_RATES, tracked, tol):
                assert [st.t for st in ev.states].count(BREAK) == 2
                assert ev.rejected == (0 if tol is None else 1)
                assert report_bits(motion_integral(ev)) == scalar_reports(ev)

    def test_observers_dying_mid_flow_match_the_scalar_loop_bit_for_bit(self, monkeypatch):
        # i is frozen when its step cap collapses near t = 1/4; 0.001i comes
        # within the collision tolerance at t = 2.5e-7
        tracked = (1j, 4j, 2 + 0.5j, 0.001j)
        # dt = T leaves the step size to the error control
        for dt, tol in ((1e-3, None), (0.5, 1e-13)):
            for ev in evolve_matching_the_scalar_loop(monkeypatch, single_curve(), 0.5, dt, None, tracked, tol):
                assert ev.death_times[0] == pytest.approx(0.25, abs=1e-9)
                assert ev.death_times[1:3] == [None, None]
                assert ev.death_times[3] == pytest.approx(2.5e-7, rel=1e-6)
                assert ev.rejected == (0 if tol is None else 2)
                reports = motion_integral(ev)
                assert [r.alive for r in reports] == [False, True, True, False]
                assert report_bits(reports) == scalar_reports(ev)

    def test_a_zero_field_has_the_sign_of_the_scalar_sum(self):
        # the real part at -0.0 + 4i and the imaginary part at 2 are sums of
        # zeros, whose sign the arrays must take from CPython's sum: it
        # starts from 0j, which turns -0.0 into 0.0
        points = [complex(-0.0, 4.0), complex(2.0, 0.0), complex(2.0, -0.0), 1 + 1j, -3 - 0.5j]
        on_arrays, scalar = (
            [(v.real.hex(), v.imag.hex()) for v in loewner._velocities([0.0], points, [], 0, [1.0], arrays)[1]]
            for arrays in (True, False)
        )
        assert on_arrays == scalar


class TestTwoSlit:
    def test_repelling_law(self):
        ev = evolve(repelling_pair(), 0.25, 1e-4)
        x1, x2 = ev.final.x
        assert x2 == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert x1 == -x2

    def test_fourth_order_convergence(self):
        target = math.sqrt(2.0)
        errs = []
        for dt in (8e-3, 4e-3, 2e-3):
            ev = evolve(repelling_pair(), 0.25, dt)
            errs.append(abs(ev.final.x[1] - target))
        assert errs[0] / errs[1] > 11.0
        assert errs[1] / errs[2] > 11.0
        order = math.log2(errs[0] / errs[1])
        assert order > 3.5

    def test_fourth_order_convergence_across_a_rate_breakpoint(self, break_reference):
        target = break_reference.final.x
        errs = []
        for dt in (8e-3, 4e-3, 2e-3):
            ev = evolve(repelling_pair(), 0.25, dt, BREAK_RATES)
            errs.append(max(abs(a - b) for a, b in zip(ev.final.x, target)))
        orders = [math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])]
        assert min(orders) > 3.5, errs

    def test_state_recorded_on_both_sides_of_a_breakpoint(self, break_reference):
        ev = evolve(repelling_pair(), 0.25, 1e-3, BREAK_RATES)
        ts = [s.t for s in ev.states]
        i = max(k for k, t in enumerate(ts) if t < BREAK)
        left, right = ev.states[i + 1], ev.states[i + 2]
        assert left.t == right.t == BREAK
        assert left.x == right.x
        assert left.dx != right.dx
        # the interpolant on the last step before the breakpoint ends with
        # the left-side velocity
        tm = (ts[i] + BREAK) / 2
        got = trace_hull(ev, [tm])
        want = trace_hull(break_reference, [tm])
        assert max(abs(a.point - b.point) for a, b in zip(got, want)) < 1e-9

    def test_a_breakpoint_at_the_horizon_leaves_the_last_state_alone(self):
        # the flow never enters the piece that starts at T
        nu = Parametrization((((0.0, 1.0), (0.125, 2.0)), ((0.0, 1.0),)))
        ev = evolve(repelling_pair(), 0.125, 1e-3, nu)
        assert [st.t for st in ev.states].count(0.125) == 1
        # x2 = sqrt(1 + 4t) under the old rates, so dx2 = 2 / sqrt(1.5)
        assert ev.final.dx == pytest.approx((-2.0 / math.sqrt(1.5), 2.0 / math.sqrt(1.5)), abs=1e-9)
        fine = evolve(repelling_pair(), 0.125, 1e-5, nu)
        got, want = trace_hull(ev, [0.125]), trace_hull(fine, [0.125])
        assert max(abs(a.point - b.point) for a, b in zip(got, want)) < 1e-9

    def test_one_velocity_evaluation_per_stage(self, monkeypatch):
        calls = []
        dlog_Z = divisors.dlog_Z

        def counted(*args):
            calls.append(args)
            return dlog_Z(*args)

        monkeypatch.setattr(divisors, "dlog_Z", counted)
        ev = evolve(repelling_pair(), 0.01, 1e-3)
        assert len(ev.states) == 11
        assert ev.rejected == 0
        assert len(calls) == 1 + 4 * 10  # k1 is the previous step's end velocity


class TestErrorControl:
    """Steps sized by the embedded error estimate of the RK4 step."""

    def test_repelling_law_converges_as_tol_drops(self):
        # x2(1/4) = sqrt(2); dt = T leaves the step size to the error control
        errs, counts = [], []
        for tol in (1e-12, 1e-13, 3e-14, 1e-14):
            ev = evolve(repelling_pair(), 0.25, 0.25, tol=tol)
            assert ev.final.t == 0.25 and ev.collision is None
            errs.append(abs(ev.final.x[1] - math.sqrt(2.0)))
            counts.append(len(ev.states))
        assert all(a > b for a, b in zip(errs, errs[1:])), errs
        assert errs[-1] < 1e-12
        # the fixed step of the same accuracy is 1e-4: 2500 states
        assert counts[-1] < 0.1 * 0.25 / 1e-4, counts

    def test_colliding_pair_is_bracketed_at_a_quarter(self):
        ev = evolve(colliding_pair(), 0.3, 0.3, tol=1e-12)
        lo, hi = ev.collision
        assert abs(lo - 0.25) < 1e-9
        assert hi - lo < 1e-6
        assert "marked point 0.0" in ev.collision_note
        before = [st for st in ev.states if st.t <= 0.2]
        assert len(before) > 10
        assert max(abs(st.x[1] - math.sqrt(1 - 4 * st.t)) for st in before) < 1e-9

    def test_steps_end_on_a_rate_breakpoint_with_both_velocities(self, break_reference):
        ev = evolve(repelling_pair(), 0.25, 0.25, BREAK_RATES, tol=1e-13)
        ts = [st.t for st in ev.states]
        assert ts.count(BREAK) == 2
        i = ts.index(BREAK)
        left, right = ev.states[i], ev.states[i + 1]
        assert left.x == right.x
        # the left state carries the old rates' velocities, the right the new
        assert list(left.dx) == loewner._velocities(list(left.x), [], [], 0, (1.0, 1.0))[0]
        assert list(right.dx) == loewner._velocities(list(right.x), [], [], 0, (2.0, 1.0))[0]
        assert max(abs(a - b) for a, b in zip(ev.final.x, break_reference.final.x)) < 1e-9

    def test_rejected_steps_count_against_the_budget(self, monkeypatch):
        ev = evolve(repelling_pair(), 0.25, 0.25, tol=1e-13)
        assert ev.rejected > 0
        taken = len(ev.states) - 1 + ev.rejected
        monkeypatch.setattr(loewner, "STEP_BUDGET", taken)
        assert len(evolve(repelling_pair(), 0.25, 0.25, tol=1e-13).states) == len(ev.states)
        # one short only if every rejected step is counted
        monkeypatch.setattr(loewner, "STEP_BUDGET", taken - 1)
        with pytest.raises(StepBudgetError, match=f"budget of {taken - 1} steps .*, {ev.rejected} rejected"):
            evolve(repelling_pair(), 0.25, 0.25, tol=1e-13)

    def test_a_rejected_step_costs_four_evaluations_and_nothing_more(self, monkeypatch):
        calls = []
        dlog_Z = divisors.dlog_Z

        def counted(*args):
            calls.append(args)
            return dlog_Z(*args)

        monkeypatch.setattr(divisors, "dlog_Z", counted)
        ev = evolve(repelling_pair(), 0.25, 0.25, tol=1e-13)
        assert ev.rejected > 0
        # the end-of-step velocities are the estimate and the next step's k1
        assert len(calls) == 1 + 4 * (len(ev.states) - 1 + ev.rejected)

    @pytest.mark.parametrize("tol", [None, 1e-13])
    def test_a_state_that_is_not_finite_stops_the_flow(self, monkeypatch, tol):
        nan_after(monkeypatch, 30)
        with pytest.raises(InversionFailureError, match="flow state is not finite at t="):
            evolve(repelling_pair(), 0.25, 1e-3, tol=tol)


class TestHull:
    """The reverse sweep of trace_hull."""

    def test_matches_the_scalar_solve_bit_for_bit(self, eight_curve_flow):
        # eight driving points: a pairwise sum (numpy's from n=8) would differ
        ev = eight_curve_flow
        times = [0.004, ev.final.t]
        want = [
            HullSample(t, j, reverse_point(ev, t, j, 1e-3)) for t in times for j in range(8)
        ]
        assert bits(trace_hull(ev, times, 1e-3)) == bits(want)

    @pytest.mark.parametrize("flow, lift", [("fig1_flow", 1e-6), ("eight_curve_flow", 1e-3)])
    def test_batch_equals_one_call_per_time(self, flow, lift, request):
        ev = request.getfixturevalue(flow)
        # the samples retire at different sweeps; fig1's last time is its collision
        times = [ev.final.t * k / 4 for k in range(5)]
        singles = [sample for t in times for sample in trace_hull(ev, [t], lift)]
        assert bits(trace_hull(ev, times, lift)) == bits(singles)

    def test_reverse_steps_end_on_rate_breakpoints(self, monkeypatch):
        ev = evolve(repelling_pair(), 0.25, 1e-3, BREAK_RATES)
        runs = []
        for tol in (1e-9, 1e-11, 1e-13):
            monkeypatch.setattr(loewner, "REVERSE_TOL", tol)
            runs.append([s.point for s in trace_hull(ev, [0.2, 0.25], 1e-2)])
        moves = [max(abs(a - b) for a, b in zip(r0, r1)) for r0, r1 in zip(runs, runs[1:])]
        # steps that straddle the breakpoint, mixing both rates, move by 5e-4
        assert moves[1] <= 1e-9, moves

    def test_fig2_hull_is_within_its_error_of_a_tighter_solve(self, monkeypatch):
        sc = preset("fig2")
        lo = sc.loewner
        div, _ = transport(sc.divisor, HALF_PLANE)
        ev = evolve(div, lo.T, lo.dt, sc.rates, lo.tracked, lo.tol)
        times = [ev.final.t * i / 32 for i in range(33)]
        got = trace_hull(ev, times, lo.lift)
        monkeypatch.setattr(loewner, "REVERSE_TOL", loewner.REVERSE_TOL * 1e-4)
        want = trace_hull(ev, times, lo.lift)
        # the error of the former gap-capped step, 2.8e-9
        assert max(abs(a.point - b.point) for a, b in zip(got, want)) <= 3e-9

    def test_a_reverse_state_that_is_not_finite_stops_the_solve(self, monkeypatch):
        ev = evolve(repelling_pair(), 0.25, 1e-3)
        velocity = loewner._reverse_velocity
        calls = [0]

        def poisoned(*args):
            calls[0] += 1
            vr, vi = velocity(*args)
            return (vr, vi) if calls[0] < 10 else (vr * math.nan, vi)

        monkeypatch.setattr(loewner, "_reverse_velocity", poisoned)
        with pytest.raises(InversionFailureError, match="reverse solve is not finite at s="):
            trace_hull(ev, [0.1, 0.2])

    def test_sweeps_past_the_budget_are_refused(self, monkeypatch):
        ev = evolve(repelling_pair(), 0.25, 1e-3)
        monkeypatch.setattr(loewner, "REVERSE_BUDGET", 20)
        with pytest.raises(
            InversionFailureError,
            match=r"exceeded its budget of 20 sweeps \(\d+ steps rejected, 4 samples unfinished\)",
        ):
            trace_hull(ev, [0.1, 0.2])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1e-3])
    def test_bad_times_rejected_before_any_work(self, t):
        ev = evolve(single_curve(), 0.5, 1e-3)
        with pytest.raises(InversionFailureError, match="outside the evolved range"):
            trace_hull(ev, [0.1, t])

    def test_no_times_no_samples(self):
        assert trace_hull(evolve(single_curve(), 0.5, 1e-3), []) == []

    def test_zero_lift_stalls(self):
        ev = evolve(single_curve(), 0.5, 1e-3)
        with pytest.raises(InversionFailureError, match=r"reverse solve stalled at s=0\.000e\+00 \(gap 0\.000e\+00\)"):
            trace_hull(ev, [0.1], lift=0.0)


class TestCollision:
    def test_bracketed_at_quarter(self):
        ev = evolve(colliding_pair(), 0.3, 1e-4)
        assert ev.collision is not None
        lo, hi = ev.collision
        assert abs(lo - 0.25) < 1e-9
        assert hi - lo < 1e-6
        assert "marked point 0.0" in ev.collision_note
        assert ev.final.t == lo

    def test_attracting_law_before_collision(self):
        ev = evolve(colliding_pair(), 0.3, 1e-4)
        state = next(s for s in ev.states if s.t >= 0.2)
        assert state.x[1] == pytest.approx(math.sqrt(1 - 4 * state.t), abs=1e-9)
        assert state.x[0] == -state.x[1]

    def test_recorded_at_start_inside_tolerance(self):
        ev = evolve(SymmetricDivisor.half_plane([0.0, 5e-9], [("inf", -4)]), 0.1, 1e-4)
        assert len(ev.states) == 1
        lo, hi = ev.collision
        assert lo == 0.0
        assert hi == pytest.approx(5e-9)
        assert ev.collision_note == "collision at t=0: driving points 0 and 1"


class TestEquivariance:
    def test_reflection_across_the_imaginary_axis(self):
        d1 = SymmetricDivisor.half_plane(
            [-0.5, 1.2], [(0.3, -1), (-2.0, -1), ("inf", -2)]
        )
        d2 = SymmetricDivisor.half_plane(
            [-1.2, 0.5], [(-0.3, -1), (2.0, -1), ("inf", -2)]
        )
        e1 = evolve(d1, 0.2, 1e-3, tracked=(1 + 1j,))
        e2 = evolve(d2, 0.2, 1e-3, tracked=(-1 + 1j,))
        assert len(e1.states) == len(e2.states)
        for s1, s2, g1, g2 in zip(e1.states, e2.states, e1.g[:, 0], e2.g[:, 0]):
            assert s1.t == s2.t
            for a, b in zip(s1.x, reversed(s2.x)):
                assert abs(a + b) < 1e-12
            assert abs(g2 + g1.conjugate()) < 1e-12


class TestFigureFlows:
    def test_fig1_collides_before_the_horizon(self):
        div, _ = transport(preset("fig1").divisor, HALF_PLANE)
        ev = evolve(div, 0.1, 1e-4, tracked=(2j,))
        assert ev.collision is not None
        lo, hi = ev.collision
        assert lo == pytest.approx(0.048654045, abs=1e-8)
        assert hi - lo < 1e-6
        assert "marked point" in ev.collision_note
        (rep,) = motion_integral(ev)
        assert rep.alive
        assert rep.max_rel_drift < 1e-8
        assert rep.t_last == lo

    def test_fig2_runs_clean_with_capacity(self):
        div, _ = transport(preset("fig2").divisor, HALF_PLANE)
        z = 1000j
        ev = evolve(div, 0.1, 1e-3, tracked=(z,))
        assert ev.collision is None
        assert ev.final.t == pytest.approx(0.1)
        probe = (ev.g[-1, 0] - z) * z
        assert probe.real == pytest.approx(0.6, abs=1e-5)


class TestEvolveValidation:
    def test_disk_divisor_rejected(self):
        with pytest.raises(DegenerateConfigurationError, match="transport"):
            evolve(preset("fig1").divisor, 0.1, 1e-3)

    def test_invalid_divisor_rejected(self):
        bad = SymmetricDivisor.half_plane([0.0], [("inf", -4)])
        with pytest.raises(DegenerateConfigurationError, match="invalid"):
            evolve(bad, 0.1, 1e-3)

    def test_observer_history_over_its_budget_is_refused_at_once(self):
        # 1024 observers over T/dt = 1e6 steps would take 2 x 16 GB
        tracked = tuple(complex(k / 100.0, 2.0) for k in range(1024))
        with pytest.raises(StepBudgetError, match="1000001 states of 1024 observers exceed the history budget"):
            evolve(repelling_pair(), 1.0, 1e-6, tracked=tracked, tol=1e-10)

    def test_observer_history_grown_past_its_budget_is_refused(self, monkeypatch):
        # T/dt is 30 steps, but the approach to the collision at 1/4 takes more than 100
        assert len(evolve(colliding_pair(), 0.3, 0.01, tracked=(3j,)).states) > 100
        monkeypatch.setattr(loewner, "HISTORY_BUDGET", 100)
        with pytest.raises(StepBudgetError, match="of 1 observers exceed the history budget of 100 values"):
            evolve(colliding_pair(), 0.3, 0.01, tracked=(3j,))

    def test_steps_forced_by_the_gap_cap_count_against_the_budget(self, monkeypatch):
        # T/dt is 30 steps, but the approach to the collision at 1/4 takes more than 100
        monkeypatch.setattr(loewner, "STEP_BUDGET", 100)
        with pytest.raises(StepBudgetError, match="exceeded its budget of 100 steps"):
            evolve(colliding_pair(), 0.3, 0.01)

    def test_rate_count_must_match(self):
        with pytest.raises(ValueError, match="one rate schedule"):
            evolve(repelling_pair(), 0.1, 1e-3, nu=Parametrization.constant([1.0]))
