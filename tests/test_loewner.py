"""Coupled Loewner flow: closed-form laws, collisions, conserved motion."""

import bisect
import cmath
import math
import random
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import half_plane_divisor, nan_after
from hypothesis import given, settings
from hypothesis import strategies as st

from slezero import divisors, loewner, quadratic, runner
from slezero.conformal import transport
from slezero.divisors import HALF_PLANE, SymmetricDivisor
from slezero.errors import DegenerateConfigurationError, InversionFailureError, StepBudgetError
from slezero.loewner import HullSample, Parametrization, evolve, motion_integral, trace_hull
from slezero.scene import LoewnerParams, SceneConfig, parse_config, preset, single_curve_scene


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
def fig1_tail_flow():
    # the preset's own settings: error-controlled steps, and the Sundman tail
    sc = preset("fig1")
    lo = sc.loewner
    div, _ = transport(sc.divisor, HALF_PLANE)
    return evolve(div, lo.T, lo.dt, sc.rates, lo.tracked, lo.tol)


@pytest.fixture(scope="module")
def eight_curve_flow():
    div = half_plane_divisor(random.Random(9), max_growth=10)
    assert len(div.growth) == 8
    return evolve(div, 0.01, 1e-3)


def weighted(ks, row):
    """sum_i row_i k_i over the stages ``ks`` (lists) whose weight is not
    zero, each sum from its first term, in stage order."""
    terms = [(c, k) for c, k in zip(row, ks) if c]
    out = []
    for m in range(len(terms[0][1])):
        total = terms[0][0] * terms[0][1][m]
        for c, k in terms[1:]:
            total = total + c * k[m]
        out.append(total)
    return out


def dop_error(h, e5, e3):
    """DOP853's combined estimate from the largest 5th- and 3rd-order ones."""
    if e5 == 0.0:
        return 0.0
    ratio = e3 / e5
    return h * e5 / math.sqrt(1.0 + 0.01 * ratio * ratio)


def reverse_point(ev, t, j):
    """Hull sample (t, j) solved alone on Python complex numbers, with the
    step rule of trace_hull for constant rates: the loop the sweep must
    reproduce. It takes DOP853 steps of dz/dr = 2r dz/ds in r = sqrt(s)
    from x_j(t), with the end-of-step velocity reused as the next first
    stage and the step sized by the combined 5th/3rd-order estimate."""
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
        # the cubic Hermite as x0 plus the moves, which keeps a constant path
        h10 = tau * ((1.0 - tau) * (1.0 - tau))
        h01 = tau * tau * (3.0 - 2.0 * tau)
        h11 = tau * tau * (tau - 1.0)
        return [
            a.x[k] + h01 * (b.x[k] - a.x[k]) + h * (h10 * a.dx[k] + h11 * b.dx[k])
            for k in range(len(a.x))
        ]

    def velocity(z, x, r):
        total = 0j
        for xk, rk in zip(x, rates):
            total += 2.0 * rk / (z - xk)
        return -2.0 * r * total

    (rates,) = ev.nu.piece_rates
    tol = loewner.REVERSE_TOL
    z, r, r_stop = complex(x_at(t)[j], 0.0), 0.0, math.sqrt(t)
    # the first step goes the whole way; the first stage is the velocity
    # 2i sqrt(nu_j) of the slit z = x_j + 2i sqrt(nu_j) r
    h, k1 = r_stop, complex(0.0, 2.0 * math.sqrt(rates[j]))
    while r < r_stop:
        h = min(h, r_stop - r)
        r_end = r_stop if h == r_stop - r else r + h
        ks = [[k1]]
        for row, c in zip(loewner.DOP_A[1:12], loewner.DOP_C[1:]):
            ri = r_end if c == 1.0 else r + c * h
            (zi,) = (z + h * v for v in weighted(ks, row))
            ks.append([velocity(zi, x_at(t - ri * ri), ri)])
        (z1,) = (z + h * v for v in weighted(ks, loewner.DOP_B))
        (e5,), (e3,) = (weighted(ks, row) for row in (loewner.DOP_E5, loewner.DOP_E3))
        err = dop_error(h, abs(e5), abs(e3))
        scale = 0.9 * math.sqrt(math.sqrt(math.sqrt(tol / err))) if err > 0.0 else math.inf
        if err <= tol:
            r, z, k1 = r_end, z1, velocity(z1, x_at(t - r_end * r_end), r_end)
            h *= min(5.0, scale)
        else:
            h *= max(0.2, scale)
    return z


def scalar_flow(div, T, dt, nu, tracked, tol=None):
    """Times and the observers' g and log g' rows of the flow stepped on
    Python numbers, with evolve's step rules: RK4 of size dt without tol;
    with tol DOP853 steps, the interior states of their dense output, and
    the tail in tau for an observer's predicted death. Each observer's
    log g' is a component of the state, stepped with its g, and held by
    the estimate to tol / d, d < 1 the observer's distance to its nearest
    driving point. In the tail the dying observer's component carries
    W = log g' + log(g - x_c), x_c its nearest driving point, and its rows
    hold W - log(g - x_c). This is the loop whose bits evolve must have."""
    x = [p.value.real for p in div.growth]
    q, s = div.finite_marked()
    g, w = list(tracked), [0j] * len(tracked)
    death = [None] * len(tracked)
    # the dying observer, its driving point c and its W; the clock dt/dsigma
    dying, c, big_w, clock = None, None, None, 1.0
    err_sum = 0.0
    mid = loewner._dense_weights(np.array([0.5]))[0][0].tolist()

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

    def w_field(z, x, rates, dxc):
        # dW/dt: the terms of x_c in 1/(z - x_c)^2 cancel
        square = near = 0j
        for k, (xk, rk) in enumerate(zip(x, rates)):
            if k != c:
                d = z - xk
                square += 2.0 * rk / (d * d)
                near += 2.0 * rk / d
        return (near - dxc) / (z - x[c]) - square

    def velocities(x, q, g, w, rates, pos):
        """d/dt of x, q, g and their log g' (W for the dying observer at
        ``pos`` of ``g``), and the clock at the state."""
        dlog = divisors.dlog_Z(x, q, s)
        dx = []
        for j, xj in enumerate(x):
            inter = 0.0
            for k, xk in enumerate(x):
                if k != j:
                    inter += 2.0 * rates[k] / (xj - xk)
            dx.append(rates[j] * dlog[j] + inter)
        dw = [w_field(z, x, rates, dx[c]) if i == pos else log_gprime_field(z, x, rates) for i, z in enumerate(g)]
        v = (dx, [field(z, x, rates) for z in q], [field(z, x, rates) for z in g], dw)
        return v, 1.0 if pos is None else abs(x[c] - g[pos])

    def scaled(v, cl):
        return v if pos is None else tuple([cl * a for a in part] for part in v)

    def closing_rate(x, z, dx, dz):
        sep = x - z
        return (sep.conjugate() * (dx - dz)).real / abs(sep)

    def shift(y, k, h):
        return [a + h * b for a, b in zip(y, k)]

    def rk4(y, k1, k2, k3, k4, h):
        h6 = h / 6.0
        return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]

    def combine(y, ks, row, h):
        return [a + h * b for a, b in zip(y, weighted(ks, row))]

    def on_stages(weights, ks):
        # the dense output's sums, over its stages in order
        first, *rest = loewner._DENSE_STAGES
        out = []
        for m in range(len(ks[first])):
            total = weights[first] * ks[first][m]
            for i in rest:
                total = total + weights[i] * ks[i][m]
            out.append(total)
        return out

    breaks = [b for b in nu.starts[1:] if b < T]
    t, rates, h_next = 0.0, nu.rates(0.0), math.inf
    rows = [(t, list(g), list(w))]
    while t < T:
        live = [i for i, d in enumerate(death) if d is None]
        pos = None if dying is None else live.index(dying)
        gap = min([abs(a - b) for j, a in enumerate(x) for b in x[j + 1 :]] + [abs(a - b) for a in x for b in q], default=math.inf)
        stop = next((b for b in breaks if b > t), T)
        remaining = stop - t
        h = min(dt / clock, h_next, loewner.GAP_CAP_SAFETY * gap * gap / (8.0 * sum(rates)) / clock)
        dists = [(min(abs(g[i] - xj) for xj in x), i) for i in live if i != dying]
        d_near, i_near = min(dists, default=(1.0, None))
        if d_near < 1.0:
            h = min(h, loewner.TRACK_CAP_COEFF * d_near * d_near / clock)
        if dying is None:
            h = min(h, remaining)
            if h < remaining and remaining - h < 1e-6 * h:
                h = remaining
        if gap < loewner.COLLISION_TOL or (dying is None and t + h == t):
            break
        g0 = [g[i] for i in live]
        w0 = [big_w if i == dying else w[i] for i in live]
        v1, c1 = velocities(x, q, g0, w0, rates, pos)
        if dying is None and tol is not None and d_near < 1.0:
            c_near = min(range(len(x)), key=lambda k: abs(g[i_near] - x[k]))
            at = live.index(i_near)
            rate = closing_rate(x[c_near], g0[at], v1[0][c_near], v1[2][at])
            if rate < 0.0 and -0.5 * d_near / rate < loewner.TAIL_SHARE * t:
                dying, c, clock, h_next = i_near, c_near, d_near, h_next / d_near
                big_w = w[dying] + cmath.log(g[dying] - x[c])
                continue
        if dying is not None:
            rate = closing_rate(x[c], g0[pos], v1[0][c], v1[2][pos])
            if rate >= 0.0:
                dying, clock, h_next = None, 1.0, h_next * clock
                continue
            h = min(h, 0.5 / -rate)
        # the interior states (t, g, w) and the end, which a tau-step that
        # passes stop takes at u = end of its dense output
        inner, end = [], 1.0
        y0 = (x, q, g0, w0)
        if tol is None:
            v2, _ = velocities(*(shift(y, k, h / 2) for y, k in zip(y0, v1)), rates, pos)
            v3, _ = velocities(*(shift(y, k, h / 2) for y, k in zip(y0, v2)), rates, pos)
            v4, _ = velocities(*(shift(y, k, h) for y, k in zip(y0, v3)), rates, pos)
            x1, q1, g1, w1 = (rk4(y, v1[i], v2[i], v3[i], v4[i], h) for i, y in enumerate(y0))
            v_end, c_end = velocities(x1, q1, g1, w1, rates, pos)
            t1 = t + h
        else:
            vs, cs, ks = [v1], [c1], [scaled(v1, c1)]
            # the estimate's factor on each log g' component
            scales = [1.0 if i == pos else min(1.0, min(abs(z - xj) for xj in x)) for i, z in enumerate(g0)]

            def stage(y):
                v, cl = velocities(*y, rates, pos)
                vs.append(v)
                cs.append(cl)
                ks.append(scaled(v, cl))

            def at(row):
                return tuple(combine(part, [k[i] for k in ks], row, h) for i, part in enumerate(y0))

            for row in loewner.DOP_A[1:12]:
                stage(at(row))
            x1, q1, g1, w1 = at(loewner.DOP_B)
            clocks = [[cl] for cl in cs]
            t1 = t + h if dying is None else combine([t], clocks, loewner.DOP_B, h)[0]
            e5, e3 = (
                max([abs(v) for i in range(3) for v in weighted([k[i] for k in ks], row)]
                    + [abs(v) * sc for v, sc in zip(weighted([k[3] for k in ks], row), scales)]
                    + ([] if dying is None else [abs(weighted(clocks, row)[0])]))
                for row in (loewner.DOP_E5, loewner.DOP_E3)
            )
            err = dop_error(h, e5, e3)
            scale = 0.9 * (tol / err) ** 0.125 if err > 0.0 else 5.0
            if err > tol:
                h_next = h * max(0.2, scale)
                continue
            h_next = h * min(5.0, scale)
            err_sum += err
            stage((x1, q1, g1, w1))
            for row in loewner.DOP_A[13:]:
                stage(at(row))
            clocks = [[cl] for cl in cs]
            kx = [k[0] for k in ks]
            # the equal pieces that keep the cubic Hermite of x (and, in
            # tau, t) within the bound of the dense output
            mids = weighted(kx, mid)
            gap_mid = max(abs(0.5 * (a + b) + h / 8.0 * (ka - kb) - (a + h * m)) for a, b, ka, kb, m in zip(x, x1, kx[0], kx[12], mids))
            if dying is not None:
                hermite = 0.5 * (t + t1) + h / 8.0 * (cs[0] - cs[12])
                gap_mid = max(gap_mid, abs(hermite - combine([t], clocks, mid, h)[0]))
            count = max(1, math.ceil((gap_mid / max(tol, err_sum)) ** 0.25))

            def dense(u, weights, slopes):
                # t, x, q, g, their log g' and the clock at u of the dense output
                xu, qu, gu, wu = ([a + h * b for a, b in zip(part, on_stages(weights, [k[i] for k in ks]))] for i, part in enumerate(y0))
                if dying is None:
                    return t + u * h, xu, qu, gu, wu, 1.0
                return t + h * on_stages(weights, clocks)[0], xu, qu, gu, wu, on_stages(slopes, clocks)[0]

            c_end, v_end = cs[12], vs[12]
            if dying is not None and t1 > stop:
                u = (stop - t) / (t1 - t)
                for _ in range(loewner.TAIL_NEWTON):
                    weights, slopes = (a[0].tolist() for a in loewner._dense_weights(np.array([u])))
                    tu = t + h * on_stages(weights, clocks)[0]
                    u = min(max(u - (tu - stop) / (h * on_stages(slopes, clocks)[0]), 0.0), 1.0)
                end = u
                end_row, slopes = (a[0].tolist() for a in loewner._dense_weights(np.array([end])))
                _, x1, q1, g1, w1, c_end = dense(end, end_row, slopes)
                t1, v_end = stop, velocities(x1, q1, g1, w1, rates, pos)[0]
            us, weight_rows, slope_rows = loewner._pieces(count)
            for u, weights, slopes in zip(us.tolist(), weight_rows.tolist(), slope_rows.tolist()):
                if u >= end:
                    break
                tu, xu, _, gu, wu, _ = dense(u, weights, slopes)
                if dying is not None:
                    wu[pos] -= cmath.log(gu[pos] - xu[c])
                inner.append((tu, gu, wu))
        x, q, clock = x1, q1, c_end
        at_break = stop < T and ((dying is None and h == remaining) or t1 >= stop)
        if at_break:
            t1 = stop
        for tu, gu, wu in inner:
            for i, gi, wi in zip(live, gu, wu):
                g[i], w[i] = gi, wi
            rows.append((tu, list(g), list(w)))
        for i, gi, wi in zip(live, g1, w1):
            g[i] = gi
            if i == dying:
                big_w, w[i] = wi, wi - cmath.log(gi - x[c])
            else:
                w[i] = wi
            # the death rule in t: on a driving point, or a cap that no
            # longer advances t; the dying observer's where its tail ended at stop
            d = min(abs(gi - xj) for xj in x)
            if (i != dying or end < 1.0) and (d < loewner.COLLISION_TOL or t1 + loewner.TRACK_CAP_COEFF * d * d == t1):
                death[i] = t1
        if dying is not None and clock < loewner.COLLISION_TOL:
            rate = closing_rate(x[c], g[dying], v_end[0][c], v_end[2][pos])
            death[dying] = t1 + 0.5 * clock / -rate if rate < 0.0 else t1
        if dying is not None and death[dying] is not None:
            dying, clock, h_next = None, 1.0, math.inf
        elif dying is not None and end < 1.0:
            dying, clock, h_next = None, 1.0, h_next * clock
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


def scalar_reports(ev, log=np.log, phase=lambda v: np.arctan2(v.imag, v.real)):
    """Each observer's report by a loop over the states on Python numbers,
    with numpy's log and arctan2 called one value at a time: the
    per-observer pass motion_integral must reproduce. ``log`` and ``phase``
    replace them, e.g. by libm's."""
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
                la += w_ * float(log(abs(v)))
            ts.append(st.t)
            log_abs.append(la)
            phases.append([float(phase(v)) for v in vals])
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
        # a 16 x 16 grid of observers, enough for the flow to run on arrays
        z = (np.linspace(-4.0, 4.0, 16)[:, None] + 1j * np.linspace(0.5, 4.0, 16)).ravel()
        assert loewner._on_arrays(1, len(z))
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
        # from the boundary the reverse solve is the line 2i sqrt(nu) r in
        # r = sqrt(s), which RK4 follows to rounding: the tips are 2i sqrt(t)
        ev = evolve(single_curve(), 1.0, 1e-3)
        samples = trace_hull(ev, [k / 20 for k in range(21)])
        assert len(samples) == 21
        worst = max(abs(s.point - 2j * math.sqrt(s.t)) for s in samples)
        assert worst < 1e-14

    def test_hull_is_the_lift_exact_slit(self):
        # the closed form i sqrt(4t + lift^2) of the reverse solve from
        # x + i*lift, with the lift zero now that the solve starts on the
        # boundary; at times between the steps of the evolution too
        ev = evolve(single_curve(), 1.0, 1e-3)
        samples = trace_hull(ev, [0.0123 + k * 0.0457 for k in range(21)])
        worst = max(abs(s.point - 1j * math.sqrt(4.0 * s.t)) for s in samples)
        assert worst < 1e-14

    def test_hull_across_a_rate_breakpoint_is_the_exact_slit(self):
        # with the rate 1 before 0.35 and 2 after it, the slit is
        # 2i sqrt(int_0^t nu); the rates of the wrong side of the
        # breakpoint would miss it by 0.1
        ev = evolve(single_curve(), 1.0, 1e-3, Parametrization((((0.0, 1.0), (0.35, 2.0)),)))
        samples = trace_hull(ev, [k / 20 for k in range(21)])
        area = [min(s.t, 0.35) + 2.0 * max(0.0, s.t - 0.35) for s in samples]
        worst = max(abs(s.point - 2j * math.sqrt(a)) for s, a in zip(samples, area))
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
        # accurate as fixed dt = 1e-4 steps, in fewer states: its observer's
        # death at t* = 1 is taken in tau, where t-steps to it took 4,766
        scene = single_curve_scene()
        lo = scene.loewner
        ev = evolve(scene.divisor, lo.T, lo.dt, scene.rates, lo.tracked, lo.tol)
        assert len(ev.states) < 2000
        assert all(s.x == (0.0,) for s in ev.states)
        assert abs(ev.death_times[0] - 1.0) <= 1e-13
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
        # every alive state, the tail's included. Near t* an error e in t
        # moves g = 2i sqrt(1 - t) by e / (2 (1 - t)) relative, so g is
        # measured along t, from the time at which the closed form takes the
        # state's g, and log g' against its closed form in g, log(2i / g).
        # The state at the switch brings 4.6e-14 in t; t-steps to the death
        # ended 4.8e-14 and 3.1e-9 off
        assert np.max(np.abs(ts - (1.0 + (g_num * g_num).real / 4.0))) <= 1e-13
        assert np.max(np.abs(log_num - np.log(2j / g_num))) <= 1e-11
        assert motion_integral(ev)[0].max_rel_drift <= 1e-10

    def test_an_observer_whose_gap_reopens_returns_to_t(self):
        # 1e-6 + 1.5i passes the slit's tip near t = 0.5625 at a gap of about
        # 2e-3: the tail its closing predicts ends when the gap reopens, and
        # the observer lives on in t. t-steps all the way took 6,445 states,
        # with drifts of 4.80e-11 and 5.08e-11
        scene = single_curve_scene()
        lo = scene.loewner
        ev = evolve(scene.divisor, lo.T, lo.dt, scene.rates, (1e-6 + 1.5j,), lo.tol)
        ((first, _),) = ev.tail
        assert 0.55 < ev.states[first].t < 0.5625 and tau_steps(ev) > 0
        (rep,) = motion_integral(ev)
        assert rep.alive and ev.final.t == 1.0
        assert len(ev.states) <= 6445
        assert rep.max_rel_drift <= 1e-10 and rep.max_arg_drift <= 1e-10

    def test_motion_integral_is_conserved(self):
        ev = evolve(single_curve(), 1.0, 1e-4, tracked=(4j,))
        (rep,) = motion_integral(ev)
        assert rep.alive
        assert rep.samples == len(ev.states)
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


def plain_numbers(ev):
    """Whether every recorded state holds Python floats and complex numbers
    only: no numpy scalar leaks from the array path."""
    return all(
        type(st.t) is float
        and all(type(v) is float for v in st.x + st.dx)
        and all(type(z) is complex for z in st.q)
        for st in ev.states
    ) and all(type(first) is int and all(type(c) is float for pair in seg for c in pair) for first, seg in ev.tail)


def tau_steps(ev):
    """The steps the flow took in Sundman's clock, over all its segments."""
    return sum(len(seg) - 1 for _, seg in ev.tail)


# how far a report's log_abs_initial, max_rel_drift and max_arg_drift may sit
# from those of a loop on libm's log and atan2: about 3x the worst measured
LIBM_BOUND = 5e-14


def report_bits(reports):
    return [(r.samples, r.t_last, r.log_abs_initial, r.max_rel_drift, r.max_arg_drift) for r in reports]


class TestObservers:
    """The observers' history, log g' stepped with g in the flow state, and
    their reports, computed in one pass. Each flow runs with the observers'
    field on arrays and on Python numbers."""

    def test_ten_curves_and_32_observers_match_the_scalar_loop_bit_for_bit(self, monkeypatch):
        div = half_plane_divisor(random.Random(5), max_growth=10)
        assert len(div.growth) == 10 and div.finite_marked()[0]
        rng = random.Random(1)
        # some observers start below height 1, where the observer cap applies
        tracked = tuple(complex(rng.uniform(-4.0, 4.0), rng.uniform(0.05, 3.0)) for _ in range(32))
        for tol in (None, 1e-12):
            for ev in evolve_matching_the_scalar_loop(monkeypatch, div, 0.02, 2e-4, None, tracked, tol):
                assert ev.rejected == 0
                assert report_bits(motion_integral(ev)) == scalar_reports(ev)

    def test_ten_curves_and_32_observers_stay_within_a_stated_bound_of_libm(self):
        # numpy's log and arctan2 miss libm's last bit on some arguments,
        # which ones depending on the machine's SIMD build. On x86-64 with
        # AVX-512 (numpy 2.4) this flow's reports move by at most 7.1e-15,
        # in max_arg_drift only, and those of many-curves pool scenes 0, 3,
        # 7, 12, 22 and 27 by at most 1.4e-14, in any of the three fields
        div = half_plane_divisor(random.Random(5), max_growth=10)
        rng = random.Random(1)
        tracked = tuple(complex(rng.uniform(-4.0, 4.0), rng.uniform(0.05, 3.0)) for _ in range(32))
        for tol in (None, 1e-12):
            ev = evolve(div, 0.02, 2e-4, None, tracked, tol)
            for got, libm in zip(report_bits(motion_integral(ev)), scalar_reports(ev, math.log, cmath.phase)):
                assert got[:2] == libm[:2]
                assert max(abs(a - b) for a, b in zip(got[2:], libm[2:])) <= LIBM_BOUND

    def test_doubled_breakpoint_states_match_the_scalar_loop_bit_for_bit(self, monkeypatch):
        tracked = (0.5j, 1 + 0.2j, -2 + 1j)
        for tol in (None, 1e-12):
            for ev in evolve_matching_the_scalar_loop(monkeypatch, repelling_pair(), 0.25, 1e-3, BREAK_RATES, tracked, tol):
                assert [st.t for st in ev.states].count(BREAK) == 2
                assert ev.rejected == 0
                assert report_bits(motion_integral(ev)) == scalar_reports(ev)

    def test_observers_dying_mid_flow_match_the_scalar_loop_bit_for_bit(self, monkeypatch):
        # i reaches the driving point at t = 1/4, and 0.001i at t = 2.5e-7.
        # With fixed steps i is frozen when its step cap collapses and 0.001i
        # when it comes within the collision tolerance; with tol each dies
        # in a tail of its own in tau, where it carries W
        tracked = (1j, 4j, 2 + 0.5j, 0.001j)
        # dt = T leaves the step size to the error control
        for dt, tol in ((1e-3, None), (0.5, 1e-13)):
            for ev in evolve_matching_the_scalar_loop(monkeypatch, single_curve(), 0.5, dt, None, tracked, tol):
                assert ev.death_times[0] == pytest.approx(0.25, abs=1e-9)
                assert ev.death_times[1:3] == [None, None]
                assert ev.death_times[3] == pytest.approx(2.5e-7, rel=1e-6)
                assert ev.rejected == (0 if tol is None else 1)
                # t-steps to both deaths took 3,637 states
                assert len(ev.tail) == (0 if tol is None else 2)
                assert tol is None or ev.steps < 1000
                reports = motion_integral(ev)
                assert [r.alive for r in reports] == [False, True, True, False]
                assert report_bits(reports) == scalar_reports(ev)

    def test_a_tail_cut_at_the_horizon_matches_the_scalar_loop_bit_for_bit(self, monkeypatch):
        # 1.41421357i reaches the driving point at t = 0.50000001, past T:
        # its tail's last tau-step ends at T on its dense output, and the
        # observer lives
        for ev in evolve_matching_the_scalar_loop(monkeypatch, single_curve(), 0.5, 0.5, None, (1.41421357j,), 1e-13):
            ((first, seg),) = ev.tail
            assert ev.states[first].t > 0.495 and first + len(seg) == len(ev.states)
            assert ev.final.t == 0.5 and ev.death_times == [None]

    def test_a_flow_that_starts_on_arrays_stays_on_them_bit_for_bit(self, monkeypatch):
        # 18 observers of 10 curves run on arrays; two start just outside the
        # collision tolerance above a driving point and die before t = 1e-15,
        # which leaves 16, too few to start on arrays, and the flow stays on
        # them. Curve 0 doubles its rate at a breakpoint, and some observers
        # start below height 1, where the observer cap applies
        div = half_plane_divisor(random.Random(5), max_growth=10)
        x = [p.value.real for p in div.growth]
        rng = random.Random(2)
        tracked = tuple(complex(rng.uniform(-4.0, 4.0), rng.uniform(0.05, 3.0)) for _ in range(16))
        tracked += (complex(x[2], 2e-8), complex(x[7], 3e-8))
        assert loewner._on_arrays(10, 18) and not loewner._on_arrays(10, 16)
        nu = Parametrization(tuple(((0.0, 1.0), (0.0123, 2.0)) if j == 0 else ((0.0, 1.0),) for j in range(10)))
        calls = {"_quotients": 0, "dlog_Z": 0}
        for module, name in ((loewner, "_quotients"), (divisors, "dlog_Z")):
            def counted(*args, f=getattr(module, name), name=name):
                calls[name] += 1
                return f(*args)

            monkeypatch.setattr(module, name, counted)
        for tol in (None, 1e-12):
            rows, death = scalar_flow(div, 0.02, 2e-4, nu, tracked, tol)
            before = dict(calls)
            ev = evolve(div, 0.02, 2e-4, nu, tracked, tol)
            # the field ran on arrays for every evaluation
            assert 0 < calls["_quotients"] - before["_quotients"] == calls["dlog_Z"] - before["dlog_Z"]
            assert ev.death_times == death
            assert plain_numbers(ev)
            assert death[16] < 1e-15 and death[17] < 1e-15 and death[:16] == [None] * 16
            assert [st.t for st in ev.states].count(0.0123) == 2
            assert history_bits([st.t for st in ev.states], ev.g, ev.log_gprime) == history_bits(*zip(*rows))
            assert report_bits(motion_integral(ev)) == scalar_reports(ev)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.booleans(),
        st.sampled_from([None, 1e-12]),
        st.one_of(st.none(), st.floats(0.001, 0.019)),
    )
    def test_lists_and_arrays_give_the_same_flow(self, seed, observers, dying, tol, breakpoint):
        # the choice between lists and arrays costs time, never bits: up to
        # 10 curves, observers below height 1, where the caps apply, and
        # perhaps one above a driving point that dies in the first steps
        rng = random.Random(seed)
        div = half_plane_divisor(rng, max_growth=10)
        x = [p.value.real for p in div.growth]
        tracked = tuple(complex(rng.uniform(-4.0, 4.0), rng.uniform(0.05, 3.0)) for _ in range(observers))
        if dying:
            tracked += (complex(rng.choice(x), 3e-8),)
        nu = None
        if breakpoint is not None:
            nu = Parametrization(tuple(((0.0, 1.0), (breakpoint, 2.0)) if j == 0 else ((0.0, 1.0),) for j in range(len(x))))
        flows = []
        with pytest.MonkeyPatch.context() as mp:
            for threshold in (0, 10**9):
                mp.setattr(loewner, "ARRAY_QUOTIENTS", threshold)
                flows.append(evolve(div, 0.02, 2e-4, nu, tracked, tol))
        on_arrays, on_lists = flows
        assert on_arrays.states == on_lists.states and on_arrays.tail == on_lists.tail
        assert on_arrays.death_times == on_lists.death_times and on_arrays.rejected == on_lists.rejected
        assert on_arrays.collision == on_lists.collision
        assert on_arrays.g.tobytes() == on_lists.g.tobytes()
        assert on_arrays.log_gprime.tobytes() == on_lists.log_gprime.tobytes()

    def test_a_zero_field_has_the_sign_of_the_scalar_sum(self):
        # the real part at -0.0 + 4i and the imaginary part at 2 are sums of
        # zeros, whose sign the arrays must take from CPython's sum: it
        # starts from 0j, which turns -0.0 into 0.0
        points = [complex(-0.0, 4.0), complex(2.0, 0.0), complex(2.0, -0.0), 1 + 1j, -3 - 0.5j]
        on_arrays, scalar = (
            [(v.real.hex(), v.imag.hex()) for v in loewner._velocities([0.0], p, [], 0, [1.0], 0)[1]]
            for p in (np.array(points), points)
        )
        assert on_arrays == scalar
        # and so is the rate of log g', with the points as observers: at
        # -0.0 + 4i its imaginary part is a sum of zeros too
        on_arrays, scalar = (
            [(v.real.hex(), v.imag.hex()) for v in loewner._velocities([0.0], p, [], 0, [1.0], 5)[1]]
            for p in (np.array(points + [0j] * 5), points + [0j] * 5)
        )
        field = loewner._velocities([0.0], points, [], 0, [1.0], 0)[1]
        assert on_arrays == scalar and scalar[:5] == [(v.real.hex(), v.imag.hex()) for v in field]


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
    """DOP853 steps sized by their combined 5th/3rd-order estimate."""

    def test_repelling_law_converges_as_tol_drops(self):
        # x2(1/4) = sqrt(2); dt = T leaves the step size to the error control
        errs, counts = [], []
        for tol in (1e-12, 1e-13, 3e-14, 1e-14):
            ev = evolve(repelling_pair(), 0.25, 0.25, tol=tol)
            assert ev.final.t == 0.25 and ev.collision is None
            errs.append(abs(ev.final.x[1] - math.sqrt(2.0)))
            counts.append(ev.steps)
        assert all(a > b for a, b in zip(errs, errs[1:])), errs
        assert errs[-1] < 1e-12
        # the fixed step of the same accuracy is 1e-4: 2500 steps
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
        assert list(left.dx) == loewner._velocities(list(left.x), [], [], 0, (1.0, 1.0), 0)[0]
        assert list(right.dx) == loewner._velocities(list(right.x), [], [], 0, (2.0, 1.0), 0)[0]
        assert max(abs(a - b) for a, b in zip(ev.final.x, break_reference.final.x)) < 1e-9

    def test_rejected_steps_count_against_the_budget(self, monkeypatch):
        ev = evolve(repelling_pair(), 0.25, 0.25, tol=1e-13)
        assert ev.rejected > 0
        taken = ev.steps + ev.rejected
        monkeypatch.setattr(loewner, "STEP_BUDGET", taken)
        assert len(evolve(repelling_pair(), 0.25, 0.25, tol=1e-13).states) == len(ev.states)
        # one short only if every rejected step is counted
        monkeypatch.setattr(loewner, "STEP_BUDGET", taken - 1)
        with pytest.raises(StepBudgetError, match=f"budget of {taken - 1} steps .*, {ev.rejected} rejected"):
            evolve(repelling_pair(), 0.25, 0.25, tol=1e-13)

    def test_a_rejected_step_costs_eleven_evaluations_and_nothing_more(self, monkeypatch):
        calls = []
        dlog_Z = divisors.dlog_Z

        def counted(*args):
            calls.append(args)
            return dlog_Z(*args)

        monkeypatch.setattr(divisors, "dlog_Z", counted)
        ev = evolve(repelling_pair(), 0.25, 0.25, tol=1e-13)
        assert ev.rejected > 0
        # stages 1 to 11 per step; an accepted one adds its end's velocities,
        # the next step's stage 0, and the three stages of its dense output
        assert len(calls) == 1 + 15 * ev.steps + 11 * ev.rejected

    # a stage of the first step lands on the driving point: RK4's third
    # from i, 1j + 0.25 (-4j) = 0, and DOP853's second from 1.5i, 1.5j +
    # h A[1][0] (2 / 1.5j), which rounds to 0 at this h (one ulp less and
    # the flow runs to its end)
    @pytest.mark.parametrize(
        "T, z, tol",
        [pytest.param(0.5, 1j, None, id="None"), pytest.param(21.38777091141992, 1.5j, 1e-13, id="1e-13")],
    )
    def test_a_state_that_is_not_finite_stops_the_flow(self, monkeypatch, T, z, tol):
        # on lists a division by zero, on arrays a 0/0, and neither may
        # escape as such or warn
        for threshold in (0, 10**9):
            monkeypatch.setattr(loewner, "ARRAY_QUOTIENTS", threshold)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InversionFailureError, match="flow state is not finite at t=0 "):
                    evolve(single_curve(), T, T, tracked=(z,), tol=tol)
        nan_after(monkeypatch, 30)
        with pytest.raises(InversionFailureError, match="flow state is not finite at t="):
            evolve(repelling_pair(), 0.25, 1e-3, tol=tol)


# fig1's collision time from fixed dt = 2e-6 steps: the lower end of the
# bracket of evolve(fig1 on the half-plane, 0.1, 2e-6, tracked=(2j,)), which
# stops where the gap cap collapses, at gap 2.5e-8. Fixed steps converge at
# first order here: dt = 4e-6, 2e-6, 1e-6 give ...1230730, ...1239915,
# ...1244625, so this value is itself about 9e-13 early.
FIG1_FINE_COLLISION = 0.048654045123991546


@pytest.fixture(scope="module")
def fig1_fine_flow():
    div, _ = transport(preset("fig1").divisor, HALF_PLANE)
    ev = evolve(div, 0.1, 2e-6, tracked=(2j,))
    assert ev.collision[0] == pytest.approx(FIG1_FINE_COLLISION, abs=1e-15)
    return ev


class TestSundmanTail:
    """Near a closing driving gap the error-controlled flow steps in tau,
    with dt/dtau the gap."""

    def test_colliding_pair_meets_its_closed_form_in_few_tau_steps(self):
        # x = sqrt(1 - 4t) for driving point 1, -x for point 0, which meets
        # the marked point at 0 at t = 1/4
        ev = evolve(colliding_pair(), 0.3, 0.3, tol=3e-16)
        ((first, _),) = ev.tail
        assert tau_steps(ev) > 0
        assert len(ev.states) - first < 100
        # x(t) has infinite slope at the collision, so each state's distance
        # from the closed form is taken along t
        for st in ev.states:
            assert abs(st.t - (1.0 - st.x[1] ** 2) / 4.0) <= 1e-12
            assert st.x[0] == -st.x[1]
        lo, hi = ev.collision
        assert lo <= 0.25 <= hi
        assert hi - lo <= 1e-12
        assert "marked point 0.0" in ev.collision_note
        # halfway between tail states the interpolated paths keep to the
        # closed form as closely; cubic Hermite in t on the same states is
        # 9e-6 off along t
        ts = np.array([st.t for st in ev.states[first:]])
        mids = (0.5 * (ts[:-1] + ts[1:]))[ts[1:] > ts[:-1]]
        x0, x1 = loewner._DrivingPaths(ev).at(mids)
        assert np.abs(mids - (1.0 - x1 * x1) / 4.0).max() <= 1e-12
        assert np.array_equal(x0, -x1)

    def test_an_observer_tail_and_a_collision_tail_in_one_flow(self):
        # 0.98 + 0.2i passes close by curve 1's tip near t = 0.01: the tail
        # that its closing gap starts ends when the gap reopens, and the
        # collision at 1/4 takes a tail of its own. On the intervals of
        # both, the driving paths keep to x = sqrt(1 - 4t)
        ev = evolve(colliding_pair(), 0.3, 0.3, tracked=(0.98 + 0.2j,), tol=1e-12)
        (first, near_miss), (second, _) = ev.tail
        last = first + len(near_miss) - 1
        assert 0.0099 < ev.states[first].t < ev.states[last].t < 0.0101
        # the closest approach lies inside the tail, which ends on a step
        # where the gap opens again
        gaps = [abs(z - st.x[1]) for st, z in zip(ev.states, ev.g[:, 0])]
        assert first < int(np.argmin(gaps[:second])) < last and gaps[last] > gaps[last - 1]
        assert second > first + len(near_miss) and ev.death_times == [None]
        lo, hi = ev.collision
        assert lo <= 0.25 <= hi
        assert max(abs(st.t - (1.0 - st.x[1] ** 2) / 4.0) for st in ev.states) <= 2e-11
        ts = np.array([st.t for st in ev.states])
        paths = loewner._DrivingPaths(ev)
        for start, seg in ev.tail:
            on = ts[start : start + len(seg)]
            mids = (0.5 * (on[:-1] + on[1:]))[on[1:] > on[:-1]]
            x0, x1 = paths.at(mids)
            assert np.abs(mids - (1.0 - x1 * x1) / 4.0).max() <= 2e-11
            assert np.array_equal(x0, -x1)

    def test_fig1_collision_and_hull_against_a_fine_fixed_step_flow(self, fig1_tail_flow, fig1_fine_flow, monkeypatch):
        ev, fine = fig1_tail_flow, fig1_fine_flow
        # t-steps to the end took 1,789 states, 896 of them in the last 1% of t*
        assert ev.steps <= 1100
        ((first, _),) = ev.tail
        assert tau_steps(ev) > 0
        # the switch comes after t = 0.045, where the bench reads x
        assert ev.states[first].t > 0.045
        lo, hi = ev.collision
        assert abs(0.5 * (lo + hi) - FIG1_FINE_COLLISION) <= 1e-12
        # the samples before the collision, at the same times in both
        # flows; the flow that took t-steps to the end was 9.886e-13 from
        # the fine one at most, measured the same way
        times = [ev.final.t * i / 32 for i in range(32)]
        got, want = trace_hull(ev, times), trace_hull(fine, times)
        assert max(abs(a.point - b.point) for a, b in zip(got, want)) <= 9.9e-13
        # curve 0 at t_final is the tip at the collision: against the tip
        # of a flow closed to gap 1e-10, the tail's (gap 2.6e-8) is 3.00e-6
        # off and the fine fixed-step flow's 8.57e-6
        (tip,) = [s.point for s in trace_hull(ev, [ev.final.t]) if s.curve == 0]
        (fine_tip,) = [s.point for s in trace_hull(fine, [fine.final.t]) if s.curve == 0]
        with monkeypatch.context() as closing:
            closing.setattr(loewner, "COLLISION_TOL", 1e-10)
            closed = evolve(ev.divisor, 0.1, 1e-2, ev.nu, ev.tracked, 1e-16)
        (limit,) = [s.point for s in trace_hull(closed, [closed.final.t]) if s.curve == 0]
        assert abs(tip - limit) < abs(fine_tip - limit)
        # curves 1 and 2 at the fine flow's last time: the RK4 tail flow was
        # 1.06e-14 from the fine flow there, and rounding moved it by 1e-16.
        # The fine flow is itself 1.26e-14 from the flow at tol 1e-16, so
        # that flow is the reference: the tail flow is 5.4e-15 from it. Both
        # reverse solves are tightened, as their error at REVERSE_TOL,
        # 1.3e-14 here, differs between the flows' step grids
        with monkeypatch.context() as tight:
            tight.setattr(loewner, "REVERSE_TOL", loewner.REVERSE_TOL * 1e-4)
            got, want = trace_hull(ev, [fine.final.t]), trace_hull(closed, [fine.final.t])
        assert max(abs(a.point - b.point) for a, b in zip(got[1:], want[1:])) <= 1.2e-14

    def test_fig1_tail_on_arrays_has_the_bits_of_the_tail_on_lists(self, monkeypatch):
        # the tail scales each stage's velocities by its gap; with three
        # more observers, one under height 1, a flow on arrays from the
        # start takes the same steps and records the same bits as on lists
        sc = preset("fig1")
        lo = sc.loewner
        div, _ = transport(sc.divisor, HALF_PLANE)
        tracked = lo.tracked + (0.3 + 0.5j, -0.2 + 2j, 1.5 + 0.05j)
        flows = []
        for threshold in (0, 10**9):
            monkeypatch.setattr(loewner, "ARRAY_QUOTIENTS", threshold)
            flows.append(evolve(div, lo.T, lo.dt, sc.rates, tracked, lo.tol))
        on_arrays, on_lists = flows
        assert tau_steps(on_arrays) == tau_steps(on_lists) > 0
        assert plain_numbers(on_arrays)
        assert on_arrays.states == on_lists.states
        assert on_arrays.tail == on_lists.tail and on_arrays.collision == on_lists.collision
        assert history_bits([st.t for st in on_arrays.states], on_arrays.g, on_arrays.log_gprime) == history_bits(
            [st.t for st in on_lists.states], on_lists.g, on_lists.log_gprime
        )

    def test_a_tail_that_overshoots_the_horizon_ends_it_in_t(self, monkeypatch):
        # at the switch fig1's collision is predicted 4e-6 early: T between
        # the prediction and the collision is passed by a tau-step
        sc = preset("fig1")
        lo = sc.loewner
        div, _ = transport(sc.divisor, HALF_PLANE)
        T = 0.048652
        ev = evolve(div, T, lo.dt, sc.rates, lo.tracked, lo.tol)
        assert tau_steps(ev) > 0 and ev.collision is None
        assert ev.final.t == T
        monkeypatch.setattr(loewner, "TAIL_SHARE", 0.0)
        t_only = evolve(div, T, lo.dt, sc.rates, lo.tracked, lo.tol)
        assert t_only.tail == []
        assert max(abs(a - b) for a, b in zip(ev.final.x, t_only.final.x)) < 1e-10
        assert abs(ev.g[-1, 0] - t_only.g[-1, 0]) < 1e-14

    def test_flows_without_a_closing_gap_take_no_tau_steps(self, fig1_flow):
        # fixed steps, as in fig1_flow, never switch
        assert fig1_flow.tail == [] and fig1_flow.collision is not None
        for sc in (preset("fig2"), preset("fig3")):
            lo = sc.loewner
            div = transport(sc.divisor, HALF_PLANE)[0]
            ev = evolve(div, lo.T, lo.dt, sc.rates, lo.tracked, lo.tol)
            assert ev.tail == []
        # the built-in scene's observer dies: its gap closes, in tau
        sc = single_curve_scene()
        lo = sc.loewner
        ev = evolve(sc.divisor, lo.T, lo.dt, sc.rates, lo.tracked, lo.tol)
        ((first, _),) = ev.tail
        assert 0 < tau_steps(ev) < 30 and ev.states[first].t > 0.99


class TestHull:
    """The reverse sweep of trace_hull."""

    def test_matches_the_scalar_solve_bit_for_bit(self, eight_curve_flow):
        # eight driving points: a pairwise sum (numpy's from n=8) would differ
        ev = eight_curve_flow
        times = [0.004, ev.final.t]
        want = [
            HullSample(t, j, reverse_point(ev, t, j)) for t in times for j in range(8)
        ]
        assert bits(trace_hull(ev, times)) == bits(want)

    def test_fig1_hull_tip_stays_on_its_trajectory_across_flow_draws(self):
        # verify's equivalence suite on fig1 flows at seven tolerances. The
        # worst sample is curve 0's at the collision, whose reverse solve
        # with RK4 steps moved with the flow's last state alone: 2.16e-6,
        # 2.27e-6, 1.47e-6, 1.58e-6, 0.41e-6, 2.10e-6 and 2.16e-6. DOP853
        # reverse steps put it at 4.1e-7 to 7.1e-7, and curves 1 and 2 at
        # 8.1e-8 and 1.9e-7
        sc = preset("fig1")
        div = runner._flow_divisor(sc)
        qd = quadratic.build_Q(div)
        for tol in (1e-14, 2.5e-14, 3e-14, 3.5e-14, 1e-13, 1e-12, 1e-16):
            lo = replace(sc.loewner, tol=tol)
            ev = evolve(div, lo.T, lo.dt, sc.rates, lo.tracked, lo.tol)
            checks = runner._suite_equivalence(replace(sc, loewner=lo), qd, ev)
            assert max(c.value for c in checks) < 1e-6, (tol, [c.value for c in checks])

    @pytest.mark.parametrize("flow", ["fig1_flow", "fig1_tail_flow", "eight_curve_flow"])
    def test_batch_equals_one_call_per_time(self, flow, request):
        ev = request.getfixturevalue(flow)
        # the samples retire at different sweeps; fig1's last time is its collision
        times = [ev.final.t * k / 4 for k in range(5)]
        singles = [sample for t in times for sample in trace_hull(ev, [t])]
        assert bits(trace_hull(ev, times)) == bits(singles)

    def test_reverse_steps_end_on_rate_breakpoints(self, monkeypatch):
        ev = evolve(repelling_pair(), 0.25, 1e-3, BREAK_RATES)
        runs = []
        for tol in (1e-9, 1e-11, 1e-13):
            monkeypatch.setattr(loewner, "REVERSE_TOL", tol)
            runs.append([s.point for s in trace_hull(ev, [0.2, 0.25])])
        moves = [max(abs(a - b) for a, b in zip(r0, r1)) for r0, r1 in zip(runs, runs[1:])]
        # steps that straddle the breakpoint, mixing both rates, move by 5e-4
        assert moves[1] <= 1e-9, moves

    def test_fig2_hull_is_within_its_error_of_a_tighter_solve(self, monkeypatch):
        sc = preset("fig2")
        lo = sc.loewner
        div, _ = transport(sc.divisor, HALF_PLANE)
        ev = evolve(div, lo.T, lo.dt, sc.rates, lo.tracked, lo.tol)
        times = [ev.final.t * i / 32 for i in range(33)]
        got = trace_hull(ev, times)
        monkeypatch.setattr(loewner, "REVERSE_TOL", loewner.REVERSE_TOL * 1e-4)
        want = trace_hull(ev, times)
        # the error of the former gap-capped step, 2.8e-9
        assert max(abs(a.point - b.point) for a, b in zip(got, want)) <= 3e-9

    def test_a_reverse_state_that_is_not_finite_stops_the_solve(self, monkeypatch):
        ev = evolve(repelling_pair(), 0.25, 1e-3)
        field = loewner._common_field
        calls = [0]

        def poisoned(*args):
            calls[0] += 1
            v = field(*args)
            return v if calls[0] < 10 else v * math.nan

        monkeypatch.setattr(loewner, "_common_field", poisoned)
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

    def test_a_step_below_the_rounding_of_r_stalls(self, monkeypatch):
        # past r = 0.5, where the slit z = 2i r reaches height 1, the field
        # jumps by 2e300 between stages, so every step beyond it is rejected
        # until r + h rounds to r
        ev = evolve(single_curve(), 0.5, 1e-3)
        field = loewner._common_field
        calls = [0]

        def jumping(z, x, coeff):
            calls[0] += 1
            return field(z, x, coeff) + np.where(z.imag > 1.0, (-1.0) ** calls[0] * 1e300, 0.0)

        monkeypatch.setattr(loewner, "_common_field", jumping)
        with pytest.raises(InversionFailureError, match=r"reverse solve stalled at s=2\.500e-01 \(gap 1\.000e\+00\)"):
            trace_hull(ev, [0.5])


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


class TestExactMirrors:
    """``finite_marked()`` hands the flow exact mirrors, and the flow keeps
    them exact on its own: no later layer checks or mends the symmetry."""

    # fig3 and many-curves pool scene 12 have two pairs each; the near-axis
    # point is its own mirror
    @pytest.mark.parametrize("name, pairs", [("fig3", 2), ("many-12", 2), ("near-axis", 0)])
    def test_every_state_holds_exact_mirrors(self, name, pairs, monkeypatch):
        if name == "many-12":
            monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
            import scenes

            sc = parse_config(scenes.many_scene(12))
        elif name == "near-axis":
            div = SymmetricDivisor.half_plane([0.0], [(0.3 + 1e-11j, "-1/2"), ("inf", "-5/2")])
            sc = SceneConfig(div, loewner=LoewnerParams(T=0.01, dt=1e-3, tracked=(2j,)))
        else:
            sc = preset(name)
        div = runner._flow_divisor(sc)
        finite = [i for i, (q, _) in enumerate(div.marked) if q.finite]
        partners = [finite.index(divisors._partners(HALF_PLANE, div.marked)[i]) for i in finite]
        assert sum(k > i for i, k in enumerate(partners)) == pairs
        lo = sc.loewner
        for threshold in (0, 10**9):
            monkeypatch.setattr(loewner, "ARRAY_QUOTIENTS", threshold)
            ev = evolve(div, lo.T, lo.dt, sc.rates, lo.tracked, lo.tol)
            assert loewner._on_arrays(len(div.growth), len(lo.tracked)) == (threshold == 0)
            # the lower point of a pair is the conjugate of the upper one, and
            # a point its own mirror is real
            broken = [st.t for st in ev.states if tuple(st.q[k].conjugate() for k in partners) != st.q]
            assert broken == [] and len(ev.states) > 10


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
        # refused where it is made, before any flow could take it
        with pytest.raises(DegenerateConfigurationError, match="invalid divisor: total charge -3 != -2"):
            SymmetricDivisor.half_plane([0.0], [("inf", -4)])

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

    def test_a_flow_out_of_steps_names_its_closing_pair(self, monkeypatch):
        # the -1/2 pair's images land on the real axis between the driving
        # points, and the gap from driving point 0 to one of them shrinks
        # about as 1/steps under the gap cap: the flow stalls near t = 0.44
        pairs = [(0.9844424318703551, 1.7535047917821798, -2), (0.6211575795120048, 1.2290588108127198, -0.5)]
        marked = [(complex(a, sign * b), c) for a, b, c in pairs for sign in (1, -1)] + [("inf", 1)]
        div = SymmetricDivisor.half_plane([1.3548293702548504, 0.34332355459222175], marked)
        monkeypatch.setattr(loewner, "STEP_BUDGET", 2000)
        with pytest.raises(
            StepBudgetError,
            match=r"exceeded its budget of 2000 steps at t=0\.4\d+ \(step \S+, \d+ rejected, "
            r"gap \S+ between driving point 0 and marked point 0\.97\d+\+\S+i\)$",
        ):
            evolve(div, 0.5, 1e-3)

    def test_rate_count_must_match(self):
        with pytest.raises(ValueError, match="one rate schedule"):
            evolve(repelling_pair(), 0.1, 1e-3, nu=Parametrization.constant([1.0]))
