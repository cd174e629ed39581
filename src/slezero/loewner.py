"""Multiple chordal Loewner evolution with marked points.

The upper half-plane hull grows from n real driving points x_j, each moving
with its own rate nu_j(t):

    dx_j/dt = nu_j d/dx_j log Z(x, q) + sum_{k != j} 2 nu_k / (x_j - x_k),

while marked points and tracked observers z are carried by the common field

    dz/dt = sum_j 2 nu_j / (z - x_j),

and log g'(z) by its derivative flow, d log g'/dt = -sum_j 2 nu_j / (g - x_j)^2.

The driving points are a list of floats; the marked points, the live
observers, which the common field carries, and the observers' log g' are a
list of Python complex numbers or, where that costs less, one complex array
for the whole flow (``_on_arrays``). Array code holds complex numbers as
complex arrays, with one quotient kernel (``_quotients``, summed by
``_in_order``), one stage combination (``_weighted``) and one cubic
Hermite (``_hermite``); scalar code (``dlog_Z``, the closing gap, the
states) reads the marked points out as Python numbers. Both paths give
the same bits: numpy's complex sums, real-scalar products and
``np.hypot(re, im)`` round as CPython's complex arithmetic and ``abs``,
quotients are CPython's (``_quotients``) and sums run in its order.
``np.abs`` of a complex array is not ``abs`` (it differs in the last place
for about a third of random values), so it is not used. The motion
integral's logarithms and phases are numpy's, not libm's: an ulp apart on
some arguments, depending on the machine (``_drifts``).

The points are integrated together by one Runge-Kutta step on the rows of
a tableau: fixed-size classical 4th-order steps (Hairer, Norsett and
Wanner, Solving ODEs I, II.1) or, with an error bound, Dormand-Prince
8(5,3) steps (II.10), sized by their combined 5th- and 3rd-order
estimate; the step size is capped quadratically in the smallest point gap
so that collisions are approached geometrically instead of being
overshot, and steps end exactly on the breakpoints of the rates.
The observers' log g' is stepped with them, a component of the same state,
so the error estimate and the dense output cover it as they cover g. The
states of an error-controlled flow are recorded at its step ends and,
where the cubic Hermite between those would stray, at interior points of
the step's 7th-order dense output (II.6).

A closing gap d, between two driving points, a driving and a marked point,
or a driving point and an observer it swallows, behaves like
sqrt(t* - t), so the t-steps of the error control shrink geometrically
towards its end. Near one the error-controlled flow takes the rest in
Sundman's clock tau, dt = d dtau, in which d falls about linearly and the
flow is smooth up to t*: the same step with a clock factor per stage, 1 in
t and d in tau, on (t, x, marked points, observers, log g'). A dying
observer's log g' ~ -log d is not smooth there, so its component carries
W = log g' + log(g - x_c) instead, x_c the driving point that swallows it,
in which the 1/d^2 terms cancel, and log g' is rebuilt from it.

Hull tips come from the reverse flow, integrated from the boundary in the
variable sqrt(s) of the reverse time s, in which its square-root start is
a line, with the same Dormand-Prince steps.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import divisors
from .divisors import HALF_PLANE, SymmetricDivisor, format_complex
from .errors import DegenerateConfigurationError, InversionFailureError, StepBudgetError

COLLISION_TOL = 1e-8
GAP_CAP_SAFETY = 0.125  # of the gap^2/(8 sum nu) stiffness bound
# dt <= coeff * |g-x|^2 for the nearest observer: its step cap (with tol, where its gap
# opens only), with tol its tau switch where the gap closes, and its death rule in t
TRACK_CAP_COEFF = 0.004
REVERSE_TOL = 1e-9  # local error per reverse step of trace_hull, in r = sqrt(s)
REVERSE_BUDGET = 2_000_000  # reverse sweeps per trace_hull call, rejected steps included
STEP_BUDGET = 1_000_000  # flow steps per evolution, capped and rejected ones included
OBSERVER_BLOCK = 16  # history columns per block of motion_integral
HISTORY_BUDGET = 10_000_000  # observer history values (rows x tracked) per evolution
ARRAY_QUOTIENTS = 300  # (driving points + 8) x live observers from which the flow runs on arrays
TAIL_SHARE = 0.01  # of the time so far: a collision or death predicted within it switches the flow to tau
TAIL_NEWTON = 6  # Newton steps that map a time to tau on a tail interval (rounding after 4)

# Dormand-Prince 8(5,3), as in Hairer's DOP853. Stage i (from 0) starts from
# y + h sum_j DOP_A[i][j] k_j, at sigma + DOP_C[i] h; row 12 is the step's
# end, whose velocities are stage 12 and the next step's stage 0, and rows
# 13 to 15 are the three extra stages of the dense output. DOP_E5 and
# DOP_E3 weight the 5th- and 3rd-order error estimates, and DOP_D holds the
# four upper coefficients of the dense output over the 16 stages
DOP_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
DOP_B = DOP_A[12]
DOP_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
         0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
         0.8571428571428571, 1.0)
DOP_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
          1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
          -0.022355307863886294)
DOP_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
          -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
          0.02265179219836082)
DOP_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)
# the end's weights over all 16 stages, and per stage the coefficients of the
# dense output y(sigma + u h) = y + h sum_i W_i(u) k_i on its basis (u,
# u v, u^2 v, u^2 v^2, u^3 v^2, u^3 v^3, u^4 v^3), v = 1 - u: the Horner
# form y + u (F0 + v (F1 + u (F2 + ...))) of Solving ODEs I, II.6, with F0
# the step, F1 = h k_0 - F0, F2 = 2 F0 - h (k_0 + k_12) and F3.. from DOP_D
DOP_B16 = DOP_B + (0.0,) * 4
_DENSE = np.array((
    DOP_B16,
    [float(i == 0) - b for i, b in enumerate(DOP_B16)],
    [2.0 * b - float(i == 0) - float(i == 12) for i, b in enumerate(DOP_B16)],
    *DOP_D,
))
# the stages whose dense-output weights are not all zero
_DENSE_STAGES = tuple(np.flatnonzero(_DENSE.any(axis=0)).tolist())
# classical RK4 (Solving ODEs I, II.1), rows as DOP_A's; its end row is
# taken with the step h / 6.0, as the weights 1/6, 1/3 would round apart
RK4_A = ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
RK4_B = (1.0, 2.0, 2.0, 1.0)


@dataclass(frozen=True)
class Parametrization:
    """Piecewise-constant growth rates, one schedule per curve.

    Each schedule is a tuple of (start_time, rate) pairs with increasing
    start times; the first start time must be 0. ``starts`` and
    ``piece_rates`` are the piece table the flow and the hull read: the
    start times (0 first) of the intervals on which every rate is constant,
    and the rates on each.
    """

    schedules: tuple[tuple[tuple[float, float], ...], ...]
    starts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    piece_rates: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for sched in self.schedules:
            if not sched or sched[0][0] != 0.0:
                raise ValueError("first breakpoint must be at t=0")
            times = [t for t, _ in sched]
            if times != sorted(times):
                raise ValueError("rate breakpoints must increase")
            if any(r <= 0.0 for _, r in sched):
                raise ValueError("rates must be positive")
        starts = sorted({0.0}.union(t for sched in self.schedules for t, _ in sched))
        object.__setattr__(self, "starts", tuple(starts))
        object.__setattr__(self, "piece_rates", tuple(
            tuple(sched[bisect.bisect_right([t0 for t0, _ in sched], t) - 1][1] for sched in self.schedules)
            for t in starts
        ))

    @classmethod
    def constant(cls, rates: Sequence[float]) -> "Parametrization":
        return cls(tuple(((0.0, float(r)),) for r in rates))

    @property
    def n_curves(self) -> int:
        return len(self.schedules)

    def rates(self, t: float) -> tuple[float, ...]:
        return self.piece_rates[max(bisect.bisect_right(self.starts, t) - 1, 0)]


class LoewnerState(NamedTuple):
    """The flow at time t: the driving points ``x`` and their velocities
    ``dx``, and the finite marked points ``q`` in divisor order."""

    t: float
    x: tuple[float, ...]
    dx: tuple[float, ...]
    q: tuple[complex, ...]


@dataclass
class Evolution:
    """The recorded states of one flow.

    ``tracked`` holds the observers' start points and ``death_times`` the
    time each was swallowed (None while alive). ``g`` and ``log_gprime`` are
    the observers' history: one row per state, one column per observer,
    each the state's own values (log g' is stepped with g), frozen from the
    observer's death on. ``steps`` counts the accepted steps, which may
    record interior states too, and ``rejected`` the steps the error
    control retried shorter. ``tail`` holds the segments of the flow in
    Sundman's clock tau, each as the index of its first state and the
    (tau, dt/dtau) of each of its states from there on, tau from 0.
    """

    divisor: SymmetricDivisor
    nu: Parametrization
    states: list[LoewnerState]
    tracked: tuple[complex, ...]
    death_times: list[float | None]
    g: np.ndarray
    log_gprime: np.ndarray
    collision: tuple[float, float] | None = None
    collision_note: str | None = None
    rejected: int = 0
    tail: list[tuple[int, list[tuple[float, float]]]] = field(default_factory=list)
    steps: int = 0

    @property
    def final(self) -> LoewnerState:
        return self.states[-1]


def _velocities(
    x: Sequence[float],
    p: Sequence[complex] | np.ndarray,
    s: Sequence[float],
    nq: int,
    rates: Sequence[float],
    m: int,
) -> tuple[list[float], list[complex] | np.ndarray]:
    """d/dt of the driving points and of the components ``p``: the points
    the common field carries, the ``nq`` finite marked points (charges
    ``s``) first and the ``m`` live observers last, then the observers'
    log g', whose rate is -sum_k 2 nu_k / (g - x_k)^2. If ``p`` is a
    complex array, so are its velocities and each sum is one array pass;
    if it is a list, the sums are loops on Python numbers, with the same
    bits. A point on a driving point gets NaN velocities on both."""
    arrays = isinstance(p, np.ndarray)
    dx = divisors.dlog_Z(x, p[:nq].tolist() if arrays else p[:nq], s, rates)
    field_end = len(p) - m
    observers = field_end - m
    if arrays:
        # one column per point of the field, then one per observer's square
        # (g - x_k)^2, as CPython multiplies: its imaginary part dr gi + gi dr
        # is a sum of two equal products
        z = p[:field_end]
        br, bi = z.real - np.array(x)[:, None], z.imag
        if m:
            gr, gi = br[:, observers:], bi[observers:]
            cross = gr * gi
            br = np.concatenate((br, gr * gr - gi * gi), axis=1)
            bi = np.empty_like(br)
            bi[:, :field_end] = z.imag
            np.add(cross, cross, out=bi[:, field_end:])
        # from 0j, as the scalar sums start
        dp = _in_order(_quotients(_column(tuple(rates)), br, bi), 0j)
        np.negative(dp[field_end:], out=dp[field_end:])
        return dx, dp
    dp, log_rates, c = [], [], [2.0 * r for r in rates]
    try:
        for z in p[:observers]:
            total = 0j
            for xk, ck in zip(x, c):
                total += ck / (z - xk)
            dp.append(total)
        for z in p[observers:field_end]:
            total = square = 0j
            for xk, ck in zip(x, c):
                d = z - xk
                total += ck / d
                square += ck / (d * d)
            dp.append(total)
            log_rates.append(-square)
    except ZeroDivisionError:
        # the arrays' 0/0, for the flow's finiteness check
        return dx, [complex(math.nan, math.nan)] * len(p)
    return dx, dp + log_rates


@functools.lru_cache(maxsize=64)
def _column(rates: tuple[float, ...]) -> np.ndarray:
    """The 2 nu_k of ``rates`` as a column, read only: every call shares it."""
    column = np.array([2.0 * r for r in rates])[:, None]
    column.setflags(write=False)
    return column


def _on_arrays(n: int, observers: int) -> bool:
    """Whether the flow of ``n`` driving points and ``observers`` live
    observers runs on arrays. Per observer, the loop pays n quotients for
    its field and n for the rate of its log g' per evaluation, and more in
    the stage combinations; the arrays pay per evaluation. On 60-step
    flows (median of 15 interleaved pairs, 2-vCPU x86-64, two runs) the
    arrays win from about 34, 28, 26, 22 and 14 observers at 1, 2, 3, 5 and
    10 driving points; this switches at 34, 30, 28, 24 and 17."""
    return (n + 8) * observers >= ARRAY_QUOTIENTS


def _separation(x: Sequence, p: Sequence, pair: tuple[int, int]):
    """Driving point j minus the other point of ``pair``: a driving point or
    a point of ``p``, a list or an array that the finite marked points lead
    (``_min_gap`` names pairs so), then the live observers. On the
    velocities, its rate."""
    j, k = pair
    return x[j] - (x[k] if k < len(x) else complex(p[k - len(x)]))


def _closing_rate(x: Sequence[float], p: Sequence[complex], vel: tuple[list, list], pair: tuple[int, int]) -> float:
    """d/dt of the gap of ``pair`` under the velocities ``vel``."""
    w = _separation(x, p, pair)
    return (w.conjugate() * _separation(*vel, pair)).real / abs(w)


def _terms(row: Sequence[float]) -> tuple:
    """The stages of a weight row whose weight is not zero, its first
    weight, the others, all of them as a column, and the stages as an
    index of an array of them: a slice where they follow each other."""
    index = tuple(i for i, c in enumerate(row) if c)
    weights = [row[i] for i in index]
    rows = slice(index[0], index[-1] + 1) if index == tuple(range(index[0], index[-1] + 1)) else list(index)
    return index, weights[0], tuple(weights[1:]), np.array(weights)[:, None], rows


def _weighted(ks, terms: tuple):
    """sum_i c_i k_i over the stages ``ks`` and the ``_terms`` of a weight
    row, in stage order: a list if the stages are lists, else an array.
    ``ks`` is a list of stages or, for arrays, one array of them."""
    index, c0, rest, column, rows = terms
    if isinstance(ks, list):
        # each sum starts from its first term, as the arrays' do
        return [sum(map(operator.mul, rest, v[1:]), c0 * v[0]) for v in zip(*[ks[i] for i in index])]
    if len(index) > 3 and ks.shape[1] > 1:
        # from 4 rows and 2 columns the axis-0 sum adds the rows in order,
        # and -0.0 changes no addend (``_common_field``)
        return (column * ks[rows]).sum(axis=0, initial=complex(-0.0, -0.0))
    total = c0 * ks[index[0]]
    for c, i in zip(rest, index[1:]):
        total = total + c * ks[i]
    return total


def _combine(y, ks: list, terms: tuple, h: float):
    """y + h sum_i c_i k_i, on a list or an array ``y``. A row of one
    weight that is a power of two, as RK4's stages, takes y + (h c) k, as
    the classical step writes y + h/2 k: the same bits, one pass fewer."""
    index, c0, rest = terms[:3]
    if not rest and math.frexp(c0)[0] == 0.5:
        h, total = h * c0, ks[index[0]]
    else:
        total = _weighted(ks, terms)
    return y + h * total if isinstance(y, np.ndarray) else [a + h * b for a, b in zip(y, total)]


def _finite(*parts) -> bool:
    """Whether every component of ``parts``, each a list of floats or complex
    numbers or a complex array, is finite; tested alone, as sums overflow."""
    return all(bool(np.isfinite(a).all()) if isinstance(a, np.ndarray) else all(map(cmath.isfinite, a)) for a in parts)


def _not_finite(t: float, h: float, gap: float) -> InversionFailureError:
    return InversionFailureError(f"flow state is not finite at t={t:.12g} (step {h:.3g}, gap {gap:.3g})")


def _dense_weights(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights W(u) of the 16 stages in the dense output y(sigma + u h)
    = y + h sum_i W_i(u) k_i of a DOP853 step, one row per fraction of
    ``u``, and those of its slope dy/dsigma = sum_i W_i'(u) k_i."""
    v = 1.0 - u
    uv = u * v
    basis = (u, uv, u * uv, uv * uv, u * uv * uv, uv * uv * uv, u * uv * uv * uv)
    slopes = (
        np.ones_like(u),
        1.0 - 2.0 * u,
        u * (2.0 - 3.0 * u),
        2.0 * uv * (1.0 - 2.0 * u),
        u * uv * (3.0 - 5.0 * u),
        3.0 * uv * uv * (1.0 - 2.0 * u),
        u * uv * uv * (4.0 - 7.0 * u),
    )
    out = []
    for values in (basis, slopes):
        total = values[0][:, None] * _DENSE[0]
        for f, row in zip(values[1:], _DENSE[1:]):
            total = total + f[:, None] * row
        out.append(total)
    return tuple(out)


def _on_stages(weights: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """sum_i weights[:, i] ks[i] over the dense output's stages, in order:
    one row per row of ``weights``."""
    first, *rest = _DENSE_STAGES
    total = weights[:, first, None] * ks[first]
    for i in rest:
        total = total + weights[:, i, None] * ks[i]
    return total


_MIDPOINT = _terms(_dense_weights(np.array([0.5]))[0][0].tolist())


@functools.lru_cache(maxsize=64)
def _pieces(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fractions k / count, 0 < k < count, of a step cut into ``count``
    equal pieces, and their dense-output weights and slope weights."""
    us = np.arange(1, count) / count
    out = (us, *_dense_weights(us))
    for a in out:
        a.setflags(write=False)
    return out


# the stages' rows, the end's and the estimates', by their nonzero weights
_STAGE_TERMS = tuple(_terms(row) for row in DOP_A[1:])
_B_TERMS, _E5_TERMS, _E3_TERMS = _STAGE_TERMS[11], _terms(DOP_E5), _terms(DOP_E3)
# the tableaux of _Step: the stages' rows, the end's row and the divisor of
# h that the end is taken with, and the dense output's extra stages
_RK4 = (tuple(_terms(row) for row in RK4_A[1:]), _terms(RK4_B), 6.0, ())
_DOP853 = (_STAGE_TERMS[:11], _B_TERMS, 1.0, _STAGE_TERMS[12:])


def _estimate(h, e5, e3):
    """DOP853's combined estimate h e5 / sqrt(1 + 0.01 (e3 / e5)^2) of the
    local error from its largest 5th- and 3rd-order estimates e5 and e3,
    floats or arrays of them; 0 where e5 = 0, whose ratio is e3 / 1."""
    ratio = e3 / (e5 + (e5 == 0.0))
    return h * e5 / np.sqrt(1.0 + 0.01 * ratio * ratio)


class _Step:
    """One Runge-Kutta step of size h in the step variable sigma on the rows
    of ``tableau`` (``_RK4`` or ``_DOP853``) from the state (t, x, p), whose
    velocities d/dt ``vel`` and clock dt/dsigma ``clock`` are its stage 0; p
    holds the nq marked points, the m live observers and their log g', and
    ``pair`` names the closing pair in tau (None in t). The stages and the
    end (t1, x1, p1) come at once, the end's velocities from ``finish`` and
    DOP853's dense-output stages from ``extend``. Each stage's state y is x,
    p and in tau t, a list or a complex array, its velocities d/dsigma a row
    of ``ks``. Where ``pair`` holds an observer, that one dies in the tail
    and its log g' component carries W = log g' + log(g - x_c) (``_w_rate``)."""

    def __init__(self, tableau, t: float, x: list[float], p, vel: tuple, clock: float, h: float, s, nq, rates, m, pair):
        stages, end, divisor, self.extra = tableau
        self.t, self.h, self.n, self.pair = t, h, len(x), pair
        # p's end in y, and the arguments of _velocities after x and p
        self.end, self.evaluation = len(x) + len(p), (s, nq, rates, m)
        self.arrays = isinstance(p, np.ndarray)
        # t's component in tau
        self.tail = [] if pair is None else [-1]
        # the dying observer's g and W in y, its driving point c and the 2 nu_k
        self.dying = None
        if pair is not None and pair[1] >= self.n + nq:
            self.dying = (pair[1], pair[1] + m, pair[0], [2.0 * r for r in rates])
        self.y0 = y0 = self._join(x, p, t)
        # the end's velocities are row ``last`` of ks
        self.last, self.filled = len(stages) + 1, 0
        rows = self.last + 1 + len(self.extra)
        self.ks = np.empty((rows, len(y0)), dtype=complex) if self.arrays else [None] * rows
        self._stage(y0, (x, p), vel, clock)
        for terms in stages:
            self._stage(_combine(y0, self.ks, terms, h))
        self.y1 = _combine(y0, self.ks, end, h / divisor)
        self.x1, self.p1 = self._split(self.y1)
        self.t1 = t + h if pair is None else float(self.y1[-1].real)

    def _join(self, x: list, p, t: float):
        if not self.arrays:
            return x + p + [t][: len(self.tail)]
        return np.concatenate((x, p, [t]) if self.tail else (x, p))

    def _split(self, y) -> tuple:
        n = self.n
        return y[:n].real.tolist() if self.arrays else y[:n], y[n : self.end]

    def _stage(self, y, parts: tuple | None = None, v: tuple | None = None, c: float = 1.0) -> tuple[tuple, float]:
        """The stage at the state ``y`` (x and p: ``parts``): its velocities
        d/dt ``v`` and clock ``c`` (the closing gap in tau) unless given, and
        their product, the next row of ``ks``."""
        x, p = parts or self._split(y)
        if v is None:
            v = _velocities(x, p, *self.evaluation)
            c = 1.0 if self.pair is None else abs(_separation(x, p, self.pair))
        if self.arrays:
            k = self.ks[self.filled]
            k[: self.n], k[self.n : self.end] = v
        else:
            k = self.ks[self.filled] = self._join(*v, 1.0)
        if self.dying is not None:
            g, w, j, coeffs = self.dying
            k[w] = _w_rate(complex(y[g]), x, coeffs, j, v[0][j])
        if self.tail and self.arrays:
            k[-1] = 1.0
            k *= c
        elif self.tail:
            self.ks[self.filled] = [c * a for a in k]
        self.filled += 1
        return v, c

    def _gauged(self, y) -> list[float]:
        """The driving points of ``y`` and, in tau, t."""
        index = list(range(self.n)) + self.tail
        return y[index].real.tolist() if self.arrays else [y[i] for i in index]

    def _size(self, terms: tuple, scale) -> float:
        """The largest |sum_i c_i k_i| over the components, each times its
        factor in ``scale``."""
        d = _weighted(self.ks, terms)
        if self.arrays:
            return float((np.hypot(d.real, d.imag) * scale).max())
        return max(map(operator.mul, map(abs, d), scale))

    def error(self, near: np.ndarray) -> float:
        """The combined estimate (``_estimate``) of the local error over the
        components. An observer's log g' is held to tol / d, d < 1 its
        distance to its nearest driving point (``near``): the error that tol
        in g gives log(g - x_k); every other component, W included, to tol."""
        s, nq, rates, m = self.evaluation
        scale = [1.0] * len(self.y0)
        scale[self.n + nq + m : self.end] = np.minimum(near, 1.0).tolist()
        if self.dying is not None:
            scale[self.dying[1]] = 1.0
        scale = np.array(scale) if self.arrays else scale
        return float(_estimate(self.h, self._size(_E5_TERMS, scale), self._size(_E3_TERMS, scale)))

    def finish(self) -> tuple[tuple, float]:
        """The velocities d/dt and the clock at the end."""
        return self._stage(self.y1, (self.x1, self.p1))

    def extend(self) -> None:
        """The dense output's extra stages, which only it reads."""
        for terms in self.extra:
            self._stage(_combine(self.y0, self.ks, terms, self.h))

    def cut(self, stop: float) -> float:
        """The fraction u of this tau-step at which its dense output
        reaches t = ``stop``, by Newton steps from the secant."""
        u = (stop - self.t) / (self.t1 - self.t)
        for _ in range(TAIL_NEWTON):
            us = np.array([u])
            (t,), _, _, _, (clock,) = self.dense(us, *_dense_weights(us))
            u = min(max(u - (t - stop) / (self.h * clock), 0.0), 1.0)
        return float(u)

    def pieces(self, bound: float) -> int:
        """The number of equal pieces of the step whose ends, recorded with
        their dense output, keep the cubic Hermite between them within
        ``bound`` of it. Its gap at the step's midpoint, over the driving
        points and, in tau, t, falls as the fourth power of the piece."""
        h = self.h
        ends = (self.y0, self.y1, self.ks[0], self.ks[self.last], _weighted(self.ks, _MIDPOINT))
        # the cubic Hermite at u = 1/2 is the mean of the ends plus h/8 times
        # the difference of their slopes
        gap = max(
            abs(0.5 * (a + b) + h / 8.0 * (ka - kb) - (a + h * m)) for a, b, ka, kb, m in zip(*map(self._gauged, ends))
        )
        return max(1, math.ceil((gap / bound) ** 0.25))

    def dense(self, us: np.ndarray, weights: np.ndarray, slopes: np.ndarray) -> tuple:
        """The dense output at the fractions ``us`` of the step, whose stage
        weights are ``weights`` and those of the slope ``slopes``, one row
        each: the times, driving points, points of p and velocities dx/dt,
        and the clocks dt/dsigma, the velocities and the clocks from its
        slope."""
        n, h = self.n, self.h
        ks = np.asarray(self.ks, dtype=complex)
        y = np.asarray(self.y0, dtype=complex) + h * _on_stages(weights, ks)
        slope = _on_stages(slopes, ks).real
        x, p = y[:, :n].real, y[:, n : y.shape[1] - len(self.tail)]
        if not self.tail:
            return self.t + us * h, x, p, slope[:, :n], np.ones_like(us)
        return y[:, -1].real, x, p, slope[:, :n] / slope[:, -1:], slope[:, -1]


def _min_gap(x: Sequence[float], q: Sequence[complex]) -> tuple[float, tuple[int, int] | None]:
    """The smallest distance from a driving point to another one or to a
    finite marked point, and its pair: (j, k) for driving points j < k,
    (j, len(x) + l) for driving point j and marked point l. A tie goes to
    the smaller j, then to a driving pair, then to the smaller k or l."""
    best = math.inf
    pair = None
    n = len(x)
    for j in range(n - 1):
        xj = x[j]
        for k in range(j + 1, n):
            d = abs(xj - x[k])
            if d < best:
                best, pair = d, (j, k)
    for l, ql in enumerate(q):
        # |x_j - q_l| >= |Im q_l|, rounded too: a marked point higher than
        # the best gap is no nearer
        if abs(ql.imag) <= best:
            for j, xj in enumerate(x):
                d = abs(xj - ql)
                if d < best or (d == best and pair is not None and j < pair[0]):
                    best, pair = d, (j, n + l)
    return best, pair


def _pair_note(x: Sequence[float], q: Sequence[complex], pair: tuple[int, int] | None) -> str:
    if pair is None:
        return ""
    j, k = pair
    if k < len(x):
        return f"driving points {j} and {k}"
    return f"driving point {j} and marked point {format_complex(q[k - len(x)])}"


def starts_on(z: complex, point: complex) -> bool:
    """Whether an observer at ``z`` starts on ``point``, a driving or finite
    marked point, where ``evolve`` refuses it."""
    # hypot, as abs raises on a complex beyond the float range
    return math.hypot((z - point).real, (z - point).imag) < COLLISION_TOL


def _near_array(x: Sequence[float], g) -> np.ndarray:
    """The distance abs(z - x_j) = hypot(Re z - x_j, Im z) from each live
    observer at z = ``g[i]`` (a list or an array) to its nearest driving
    point; inf at height 1 or more, where neither the observer cap nor a
    death can concern it."""
    z = np.asarray(g, dtype=complex)
    d = np.full(len(z), math.inf)
    low = (np.abs(z.imag) < 1.0).nonzero()[0]
    if low.size:
        z = z[low]
        d[low] = np.hypot(z.real - np.array(x)[:, None], z.imag).min(axis=0)
    return d


def _quotients(a: np.ndarray, br: np.ndarray, bi: np.ndarray) -> np.ndarray:
    """The complex a / (br + i bi) for real ``a``, with the bits of CPython's
    real over complex division (Smith's method: scale by the larger part of
    the denominator, then divide)."""
    swap = np.abs(br) < np.abs(bi)
    big = np.where(swap, bi, br)
    small = np.where(swap, br, bi)
    ratio = small / big
    # in place: the denominator, then a * ratio / den and a / den
    den = np.multiply(small, ratio, out=small)
    den += big
    ratio *= a
    ratio /= den
    plain = np.divide(a, den, out=big)
    q = np.empty(plain.shape, dtype=complex)
    q.real = np.where(swap, ratio, plain)
    q.imag = -np.where(swap, plain, ratio)
    return q


class _History:
    """The observers' g and log g' rows of ``Evolution``: one per state, one
    column per observer, frozen from its death on.

    The step loop adds the rows of each step's states, the live observers'
    g and then log g', as its state holds them. The rows live in arrays
    with room for ``rows`` states, doubled when more come; more than
    ``HISTORY_BUDGET`` values raise ``StepBudgetError``.
    """

    def __init__(self, tracked: Sequence[complex], rows: int):
        _check_history(rows, len(tracked))
        self.g = np.empty((rows, len(tracked)), dtype=complex)
        self.log_gprime = np.empty_like(self.g)
        self.g[0], self.log_gprime[0] = tracked, 0.0
        self.rows = 1

    def add(self, live: list[int], values: list) -> None:
        start, end = self.rows, self.rows + len(values)
        cols = self.g.shape[1]
        if end > len(self.g):
            size = max(end, min(2 * len(self.g), HISTORY_BUDGET // max(cols, 1)))
            _check_history(size, cols)
            for name in ("g", "log_gprime"):
                grown = np.empty((size, cols), dtype=complex)
                grown[:start] = getattr(self, name)[:start]
                setattr(self, name, grown)
        self.rows = end
        values = np.asarray(values, dtype=complex).reshape(end - start, 2 * len(live))
        for rows, part in ((self.g, values[:, : len(live)]), (self.log_gprime, values[:, len(live) :])):
            if len(live) < cols:
                rows[start:end] = rows[start - 1]
                rows[start:end, live] = part
            else:
                rows[start:end] = part


def _w_rate(g: complex, x: Sequence[float], coeffs: Sequence[float], c: int, dxc: float) -> complex:
    """dW/dt for W = log g' + log(g - x_c) of an observer at ``g``, x_c the
    driving point ``c`` with velocity ``dxc`` and ``coeffs`` the 2 nu_k:

        -sum_{k != c} 2 nu_k / (g - x_k)^2 + (sum_{k != c} 2 nu_k / (g - x_k) - dxc) / (g - x_c),

    as the 1/(g - x_c)^2 terms of d log g'/dt and d log(g - x_c)/dt cancel.
    The clock factor |g - x_c| of the tail leaves its dW/dtau bounded."""
    square = near = 0j
    for k, (xk, ck) in enumerate(zip(x, coeffs)):
        if k != c:
            d = g - xk
            square += ck / (d * d)
            near += ck / d
    return (near - dxc) / (g - x[c]) - square


def _carried(p, x: Sequence[float], closing: tuple[int, int], n: int, m: int, sign: int):
    """A copy of the components ``p`` of a state with driving points ``x``
    in which the dying observer of the closing pair (c, n + its position in
    p), one of the ``m`` live observers, goes from log g' to W = log g' +
    log(g - x_c) (``sign`` 1) or back (-1)."""
    c, j = closing[0], closing[1] - n
    out = p.copy() if isinstance(p, np.ndarray) else list(p)
    log = cmath.log(complex(p[j]) - x[c])
    out[j + m] = complex(p[j + m]) + log if sign > 0 else complex(p[j + m]) - log
    return out


def _check_history(rows: int, cols: int) -> None:
    if rows * cols > HISTORY_BUDGET:
        raise StepBudgetError(
            f"{rows} states of {cols} observers exceed the history budget of {HISTORY_BUDGET} values"
        )


# a stage on a driving point divides by zero, and the square in a log g'
# rate may overflow: the NaN reaches the finiteness check
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def evolve(
    divisor: SymmetricDivisor,
    T: float,
    dt: float,
    nu: Parametrization | None = None,
    tracked: Sequence[complex] = (),
    tol: float | None = None,
) -> Evolution:
    """Integrate the system to time T (or to just before a collision).

    States are recorded at every accepted step, and twice at a rate
    breakpoint before T: first with the velocities under the old rates, then
    under the new ones. A tracked point that starts within the collision
    tolerance of a driving point or of a finite marked point is refused.
    At every step end after that, an observer dies, and is frozen from
    there on, when it is within the collision tolerance of a driving point
    or its step cap ``TRACK_CAP_COEFF`` d^2 no longer advances t, unless the
    flow takes its death in tau (below); the step caps come from the
    survivors, and with ``tol`` only from an observer whose gap to its
    nearest driving point opens. A driving collision stops the evolution
    and is reported as a time bracket: in t, from the last state's time to
    that plus the gap.
    Each live observer's log g' is a component of the state, stepped with
    its g; the marked points, observers and log g' are a list or, as
    ``_on_arrays`` decides at the start, an array for the whole flow.

    Each step is one ``_Step`` on the rows of a tableau, its end's
    velocities the next step's first stage. Without ``tol`` the rows are
    classical RK4's and the step is ``dt``, or shorter where a cap binds,
    the nearest observer's included; with ``tol`` they are DOP853's, ``dt``
    is the first step and that of a fresh start after a death in tau, where
    no step has been proposed, the error control proposes every later one,
    and ``tol`` gates the error estimate, the rejections and the dense
    record, which fixed steps do without. The combined 5th/3rd-order
    estimate, the largest over the components, holds an observer's log g'
    to tol / d, d < 1 the observer's distance to its nearest driving
    point: an error tol in g moves log(g - x_k) by tol / d,
    and the rounding of g - x_k alone puts a relative noise of about
    2e-16 |g| / d on the rate of log g', which an estimate held to tol would
    chase into steps below the resolution of t. A step whose estimate
    exceeds ``tol`` is retried with h max(0.2, 0.9 (tol/err)^(1/8)); an
    accepted one proposes h min(5, 0.9 (tol/err)^(1/8)). An accepted step
    also takes the three stages of its 7th-order dense output, and records
    interior states at equal fractions of it, as many as keep the cubic
    Hermite of the driving points between recorded states, which
    ``_DrivingPaths`` reads, within max(tol, the summed estimates so far)
    of the dense output: an interpolated driving point is no further from
    the flow than the flow's own error bound. Each interior state is the
    dense output, log g' included, and its velocities are the dense
    output's slope. Against a flow at tol 1e-17, the cubic Hermite of the
    presets' records is then off by at most 1.5e-13 (fig1, before its tail),
    3.3e-14 (fig2) and 6.7e-14 (fig3), where step ends alone are 1e-7 off.

    With ``tol`` the flow also takes the end of a closing gap d in
    Sundman's clock tau, dt/dtau = d: the smallest driving gap, or else the
    gap from the nearest observer within 1 of the real line (d < 1) to its
    nearest driving point x_c. At a state where d closes at the rate d' < 0,
    a gap that closes as sqrt(t* - t) reaches 0 at t + d / (2 |d'|); when
    that lies within ``TAIL_SHARE`` of the time so far, or, for the
    observer's gap, where its cap is below the step the other rules allow
    and that end comes before a closing driving gap's, the pair is fixed
    and the steps are taken in tau: each stage's velocities are scaled by
    its d, t is a component of the state, of the error estimate and of the
    interior states' rule, and dt, the caps and the proposed step are
    divided by d, but the closing pair's cap is half the tau d has left,
    1 / |d'|. The flow returns to t, with the proposal times d, when the gap
    stops closing, and where a tau-step passes the next breakpoint or T: the
    step ends there instead, at the tau where its dense output reaches it,
    and its dying observer, if any, is held to the death rule in t. At a gap
    under ``COLLISION_TOL`` the tail ends at the t where the gap reaches 0,
    extrapolated linearly in tau, t + d / (2 |d'|): a driving collision is
    bracketed there, plus and minus the summed error estimates of the
    accepted steps; an observer dies there, and the flow returns to t with
    a fresh proposal. From the switch the dying observer's component
    carries W = log g' + log(g - x_c), whose rate is ``_w_rate`` (held to
    tol by the estimate), its rows get log g' = W - log(g - x_c), and where
    the flow returns to t with the observer alive its component goes back
    to log g'. A later closing may start another tail; ``Evolution.tail``
    records each segment: its first state and each of its states' tau and
    dt/dtau.

    More than ``STEP_BUDGET`` steps, asked for by T/dt (with ``tol`` too,
    checked before the first step) or forced by the caps and rejections,
    raise ``StepBudgetError``, as does an observer history
    of more than ``HISTORY_BUDGET`` values (states x observers), asked for
    by T/dt of fixed steps or grown by the states of either; a step end
    that is not finite in any component, log g' included, raises
    ``InversionFailureError`` before any estimate is read, and so do
    velocities from the end's on that are not.
    """
    if divisor.domain != HALF_PLANE:
        raise DegenerateConfigurationError("evolution runs on the half-plane; transport the divisor first")
    if nu is None:
        nu = Parametrization.constant([1.0] * len(divisor.growth))
    if nu.n_curves != len(divisor.growth):
        raise ValueError("one rate schedule per growth point required")
    x = [p.value.real for p in divisor.growth]
    q, s = divisor.finite_marked()
    nq = len(q)
    # the flow keeps an observer and a marked point together, and the
    # observable's factor at that point would be log 0
    singular = [(xj, "a driving point") for xj in x] + [(ql, f"marked point {format_complex(ql)}") for ql in q]
    for z in tracked:
        for point, name in singular:
            if starts_on(z, point):
                raise DegenerateConfigurationError(f"tracked point {format_complex(z)} starts on {name}")
    if T / dt > STEP_BUDGET:
        raise StepBudgetError(
            f"T/dt = {T / dt:.3g} flow steps exceed the budget of {STEP_BUDGET}"
        )
    # the rates change at these times only; one at or after T never applies
    breaks = [b for b in nu.starts[1:] if b < T]
    # room for the states of T/dt fixed steps, two at each breakpoint; with
    # tol, T/dt bounds no step count, and the rows grow as the states come
    steps = math.ceil(T / dt) if tol is None else 0
    history = _History(tracked, steps + 2 * len(breaks) + 1)

    death_times: list[float | None] = [None] * len(tracked)
    live = list(range(len(tracked)))
    m = len(live)
    # the marked points, the live observers, then their log g': a list or,
    # for the whole flow, an array
    arrays = _on_arrays(len(x), m)
    p = q + list(tracked) + [0j] * m
    if arrays:
        p = np.array(p, dtype=complex)
    near = _near_array(x, p[nq : nq + m])
    n = len(x)
    next_break, t = 0, 0.0
    steps = accepted = rejected = 0
    h_next = math.inf  # the step size the error control proposes, in the step variable
    rates = nu.rates(t)
    # the velocities d/dt at the latest state: its dx, and the next step's k1
    vel = _velocities(x, p, s, nq, rates, m)
    states = [LoewnerState(t, tuple(x), tuple(vel[0]), tuple(q))]
    collision = collision_note = None
    # the Sundman tail: the closing pair, whose gap is dt/dtau from the
    # switch on, and the observer that dies in it, if any, whose log g'
    # component carries its W meanwhile
    closing, dying = None, None
    clock = 1.0  # dt/dsigma at the latest state, sigma the step variable
    err_sum = 0.0  # the accepted steps' error estimates, summed
    # per tau segment: its first state and the (tau, dt/dtau) of its states
    tail: list[tuple[int, list[tuple[float, float]]]] = []

    while t < T:
        gap, pair = _min_gap(x, q)
        stop = breaks[next_break] if next_break < len(breaks) else T
        remaining = stop - t
        # one rule in the step variable sigma: dt and the caps bound t-steps,
        # so in sigma they are divided by the clock dt/dsigma; the closing
        # pair's cap is the tau its gap has left (below). dt is each fixed
        # step; with tol it is the first step and a fresh start's, where no
        # step has been proposed
        h = dt / clock if tol is None or h_next == math.inf else h_next
        # the nearest observer within 1 of the real line, the first of a
        # tie, the dying one left out
        d_near, i_near = 1.0, None
        if m:
            dist = near if dying is None else np.where(np.arange(m) == live.index(dying), math.inf, near)
            at = int(dist.argmin())
            if dist[at] < 1.0:
                d_near, i_near = float(dist[at]), live[at]
        # with tol, the gap from that observer to its nearest driving point,
        # and that gap's rate: where it closes the observer's cap bounds no
        # step, but where the cap would bind it may switch the flow to tau
        # (below)
        watched = None
        if i_near is not None:
            cap = TRACK_CAP_COEFF * d_near * d_near / clock
            if tol is not None:
                pos = nq + at
                z = complex(p[pos])
                watched = (min(range(n), key=lambda k: abs(z - x[k])), n + pos)
                watched_rate = _closing_rate(x, p, vel, watched)
            if watched is None or watched_rate >= 0.0:
                h = min(h, cap)
        if pair != closing:
            h = min(h, GAP_CAP_SAFETY * gap * gap / (8.0 * sum(rates)) / clock)
        if closing is None:
            h = min(h, remaining)
            if h < remaining and remaining - h < 1e-6 * h:
                h = remaining  # absorb the rounding tail into the step that reaches stop
        if gap < COLLISION_TOL or (closing is None and t + h == t):
            # the driving gap is closed, or its cap has collapsed below time
            # resolution (every surviving observer's cap advances t): a
            # collision is here
            collision = (t, t + gap)
            collision_note = f"collision at t={t:.12g}: {_pair_note(x, q, pair)}"
            break
        if tol is not None and closing is None:
            # a gap that closes as sqrt(t* - t) reaches 0 at t + d / (2 |rate|):
            # the driving gap switches where that lies within TAIL_SHARE of
            # the time so far; the watched observer's gap there too, or where
            # its cap would bind and it ends before a closing driving gap
            gap_end = math.inf
            if pair is not None:
                rate = _closing_rate(x, p, vel, pair)
                if rate < 0.0:
                    gap_end = -0.5 * gap / rate
                    if gap_end < TAIL_SHARE * t:
                        closing, clock = pair, gap
            if closing is None and watched is not None and watched_rate < 0.0:
                watched_end = -0.5 * d_near / watched_rate
                if watched_end < TAIL_SHARE * t or (cap < h and watched_end < gap_end):
                    # the observer carries W = log g' + log(g - x_c) from here
                    closing, dying, clock = watched, i_near, d_near
                    p = _carried(p, x, closing, n, m, 1)
            if closing is not None:
                h_next /= clock
                tail.append((len(states) - 1, [(0.0, clock)]))
                continue
        if closing is not None:
            rate = _closing_rate(x, p, vel, closing)
            if rate >= 0.0:
                # the gap stops closing: the flow returns to t
                if dying is not None:
                    p = _carried(p, x, closing, n, m, -1)
                closing, dying, clock, h_next = None, None, 1.0, h_next * clock
                continue
            # at most half the tau the closing gap has left, gap / |d gap/dtau|
            h = min(h, 0.5 / -rate)
        steps += 1
        if steps > STEP_BUDGET:
            note = _pair_note(x, q, pair)
            raise StepBudgetError(
                f"flow exceeded its budget of {STEP_BUDGET} steps at t={t:.12g} "
                f"(step {h:.3g}, {rejected} rejected, gap {gap:.3g}{' between ' + note if note else ''})"
            )

        step = _Step(_RK4 if tol is None else _DOP853, t, x, p, vel, clock, h, s, nq, rates, m, closing)
        x1, p1, t1 = step.x1, step.p1, step.t1
        # NaN fails every comparison, so neither a collision nor a rejection
        # would see it: every component of the end, log g' and, in tau, t
        # included, is checked before an estimate is read, and the
        # velocities from the end's on once taken; a finite new state has
        # finite stages
        if not _finite(step.y1):
            raise _not_finite(t, h, gap)
        if tol is not None:
            err = step.error(near)
            scale = 0.9 * (tol / err) ** 0.125 if err > 0.0 else 5.0
            if err > tol:
                rejected += 1
                h_next = h * max(0.2, scale)
                continue
            h_next = h * min(5.0, scale)
            err_sum += err
        v1, c1 = step.finish()
        if tol is not None:
            step.extend()
        if not _finite(*step.ks[step.last :]):
            raise _not_finite(t, h, gap)
        inner, end = None, 1.0
        if tol is not None:
            if closing is not None and t1 > stop:
                # a tau-step passed stop: it ends there instead, on its
                # dense output, with the velocities evaluated there
                end = step.cut(stop)
                _, x1, p1, _, c1 = (a[0] for a in step.dense(np.array([end]), *_dense_weights(np.array([end]))))
                x1, c1 = x1.tolist(), float(c1)
                p1 = p1 if arrays else p1.tolist()
                t1, v1 = stop, _velocities(x1, p1, s, nq, rates, m)
            us, rows, slopes = _pieces(step.pieces(max(tol, err_sum)))
            if end < 1.0:
                before = us < end
                us, rows, slopes = us[before], rows[before], slopes[before]
            inner = step.dense(us, rows, slopes) if len(us) else None
        accepted += 1
        at_break = stop < T and (t1 >= stop or (closing is None and h == remaining))
        if at_break:
            t1 = stop
            next_break += 1
        reps = 2 if at_break else 1
        # the live observers' g and log g' at the step's states, the dying
        # one's log g' = W - log(g - x_c) on the branch that W carries, as
        # log(g - x_c) is continuous above the axis
        recorded = ([] if inner is None else list(inner[2])) + [p1] * reps
        if dying is not None:
            xs = ([] if inner is None else inner[1].tolist()) + [x1] * reps
            recorded = [_carried(pk, xk, closing, n, m, -1) for pk, xk in zip(recorded, xs)]
        history.add(live, [pk[nq:] for pk in recorded])
        if inner is not None:
            ti, xi, pi, dxi = (a.tolist() for a in inner[:4])
            states.extend(
                LoewnerState(tk, tuple(xk), tuple(dxk), tuple(pk[:nq])) for tk, xk, pk, dxk in zip(ti, xi, pi, dxi)
            )
        x, p, q, vel, clock = x1, p1, p1[:nq].tolist() if arrays else p1[:nq], v1, c1
        if closing is not None:
            segment = tail[-1][1]
            tau = segment[-1][0]
            if inner is not None:
                segment.extend((tau + u * h, ck) for u, ck in zip(us.tolist(), inner[4].tolist()))
            segment.extend([(tau + end * h, clock)] * reps)
        near = _near_array(x, p[nq : nq + m])
        # the death rule in t: within the collision tolerance of a driving
        # point, or a cap that no longer advances t; for the dying observer
        # only where its tail ended at stop. It is monotone in the distance:
        # none dies unless the nearest does
        dead, d = {}, float(near.min()) if m else math.inf
        if d < COLLISION_TOL or t1 + TRACK_CAP_COEFF * d * d == t1:
            doomed = (near < COLLISION_TOL) | (t1 + TRACK_CAP_COEFF * near * near == t1)
            if dying is not None and end == 1.0:
                doomed[live.index(dying)] = False
            dead = {live[pos]: t1 for pos in np.flatnonzero(doomed).tolist()}
        if closing is not None and clock < COLLISION_TOL:
            # the closing gap, linear in tau, reaches 0 at t + gap / (2 |rate|):
            # a collision, bracketed by the summed error estimates, or a death
            rate = _closing_rate(x, p, vel, closing)
            t_star = t1 + 0.5 * clock / -rate if rate < 0.0 else t1
            if dying is None:
                collision = (t_star - err_sum, t_star + err_sum)
                collision_note = f"collision at t={t_star:.12g}: {_pair_note(x, q, closing)}"
            else:
                dead[dying] = t_star
        if dead:
            for i, death in dead.items():
                death_times[i] = death
            if dying in dead:
                closing, dying, clock, h_next = None, None, 1.0, math.inf
            keep = [pos for pos, i in enumerate(live) if death_times[i] is None]
            rows = list(range(nq)) + [nq + pos for pos in keep] + [nq + m + pos for pos in keep]
            live = [live[pos] for pos in keep]
            m = len(live)
            near = near[keep]
            if arrays:
                p, vp = p[rows], vel[1][rows]
            else:
                p, vp = [p[i] for i in rows], [vel[1][i] for i in rows]
            vel = (vel[0], vp)
            if dying is not None:
                closing = (closing[0], n + nq + live.index(dying))
        if end < 1.0 and closing is not None:
            # the tail ended at stop, where the flow returns to t
            if dying is not None:
                p = _carried(p, x, closing, n, m, -1)
            closing, dying, clock, h_next = None, None, 1.0, h_next * clock
        if at_break:
            # the end-of-step velocities are the left side of the breakpoint
            states.append(LoewnerState(t1, tuple(x), tuple(vel[0]), tuple(q)))
            rates = nu.rates(t1)
            vel = _velocities(x, p, s, nq, rates, m)
        states.append(LoewnerState(t1, tuple(x), tuple(vel[0]), tuple(q)))
        t = t1
        if collision is not None:
            break
    return Evolution(
        divisor,
        nu,
        states,
        tuple(tracked),
        death_times,
        history.g[: history.rows],
        history.log_gprime[: history.rows],
        collision,
        collision_note,
        rejected,
        tail,
        accepted,
    )


def _hermite(
    u: np.ndarray, h: np.ndarray, x0: np.ndarray, d0: np.ndarray, x1: np.ndarray, d1: np.ndarray
) -> np.ndarray:
    """The cubic Hermite interpolant at u in [0, 1] of an interval of length
    ``h`` with end values x0, x1 and end slopes d0, d1, written as x0 plus
    its moves: a path that does not move is read exactly, however large
    (a driving point near 1e300 would be off by its ulp, 1e284, at most
    stages of the reverse solve)."""
    v2 = (1.0 - u) * (1.0 - u)
    u2 = u * u
    return x0 + u2 * (3.0 - 2.0 * u) * (x1 - x0) + h * ((u * v2) * d0 + (u2 * (u - 1.0)) * d1)


class _DrivingPaths:
    """Cubic Hermite interpolation of the driving paths on the state grid,
    held constant outside it. An error-controlled flow records interior
    states of its DOP853 steps so that this interpolant stays within its
    error bound (``evolve``); its step ends alone would be 1e-7 off.

    On the intervals of the Sundman tail, where x ~ sqrt(t* - t) is not
    cubic in t, a time is first mapped to tau by the cubic Hermite of
    t(tau) with slopes dt/dtau, limited to three times the secant so that
    it is monotone (Fritsch-Carlson), and solved for tau by Newton steps;
    x is then cubic Hermite in tau, with slopes dx/dtau = dt/dtau dx/dt.
    """

    def __init__(self, evolution: Evolution):
        states = evolution.states
        self.ts = np.array([st.t for st in states])
        self.t_first, self.t_last = states[0].t, states[-1].t
        # one row per driving point; the last state is repeated so that
        # column i + 1 exists for every i, with a placeholder step of 1.0
        # (a lookup at t_last lands there with u = 0)
        self.hs = np.append(np.diff(self.ts), 1.0)
        self.xs = np.array([st.x for st in states] + [states[-1].x]).T.copy()
        self.dxs = np.array([st.dx for st in states] + [states[-1].dx]).T.copy()
        # the tail's intervals: the one from state i is number slot[i] (-1
        # off the tail), with its tau step and its end clocks dt/dtau
        ends = [(first + j, a, b) for first, seg in evolution.tail for j, (a, b) in enumerate(zip(seg, seg[1:]))]
        self.count = len(ends)
        if self.count:
            rows, left, right = zip(*ends)
            (tau0, self.c0), (tau1, self.c1) = np.array(left).T, np.array(right).T
            self.steps = tau1 - tau0
            self.slot = np.full(len(states), -1)
            self.slot[list(rows)] = np.arange(self.count)

    def at(self, t: np.ndarray) -> np.ndarray:
        """The driving positions at the times ``t``, one row per point."""
        t = np.minimum(np.maximum(t, self.t_first), self.t_last)
        # bisect_right: at a time recorded twice (a rate breakpoint), the
        # interval after it
        i = self.ts.searchsorted(t, "right") - 1
        h = self.hs.take(i)
        u = (t - self.ts.take(i)) / h
        x = _hermite(u, h, self.xs.take(i, 1), self.dxs.take(i, 1), self.xs.take(i + 1, 1), self.dxs.take(i + 1, 1))
        if self.count:
            k = self.slot.take(i)
            inside = k >= 0
            if inside.any():
                x[:, inside] = self._in_tail(t[inside], i[inside], k[inside])
        return x

    def _in_tail(self, t: np.ndarray, i: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The driving positions at the times ``t`` on the intervals from
        the states ``i``, the tail's intervals ``k``."""
        h = self.steps.take(k)
        c0, c1 = self.c0.take(k), self.c1.take(k)
        t0 = self.ts.take(i)
        dt = self.ts.take(i + 1) - t0
        # t - t0 on the interval as a cubic in u = (tau - tau_k) / h: its end
        # slopes h dt/dtau, at most three times the secant dt
        s0 = np.minimum(h * c0, 3.0 * dt)
        s1 = np.minimum(h * c1, 3.0 * dt)
        target = t - t0
        u = target / dt
        for _ in range(TAIL_NEWTON):
            v = 1.0 - u
            value = s0 * u * v * v + dt * u * u * (3.0 - 2.0 * u) + s1 * u * u * (u - 1.0)
            slope = s0 * v * (1.0 - 3.0 * u) + 6.0 * dt * u * v + s1 * u * (3.0 * u - 2.0)
            u = np.clip(u - (value - target) / slope, 0.0, 1.0)
        xs, dxs = self.xs, self.dxs
        return _hermite(u, h, xs.take(i, 1), dxs.take(i, 1) * c0, xs.take(i + 1, 1), dxs.take(i + 1, 1) * c1)


def _common_field(z: np.ndarray, x: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """sum_k coeff_k / (z - x_k) on a complex array ``z``, with one column
    per z and one row per driving point in ``x`` and ``coeff``.

    Each quotient is CPython's (``_quotients``), and the sum runs over the
    driving points in order (``_in_order``), so that a column gets the bits
    of the same sum over Python complex numbers. The reverse flow of
    ``trace_hull`` applies its own factor; the forward flow sums the same
    quotients, with those of the observers' log g' rates, in ``_velocities``.
    """
    return _in_order(_quotients(coeff, z.real - x, z.imag))


def _in_order(q: np.ndarray, start: complex | None = None) -> np.ndarray:
    """The sum of the rows of ``q``, in order, from ``start`` or else from
    the first row: from 4 rows and 2 columns numpy's axis-0 reduction adds
    the rows in order, and from -0.0, which changes no addend, it is the
    loop's sum (one column it would sum pairwise, and below 4 rows the loop
    is cheaper)."""
    if len(q) > 3 and q.shape[1] > 1:
        return q.sum(axis=0, initial=complex(-0.0, -0.0) if start is None else start)
    total = q[0] if start is None else start + q[0]
    for k in range(1, len(q)):
        total = total + q[k]
    return total


@dataclass(frozen=True)
class HullSample:
    t: float
    curve: int
    point: complex


# a stage on a driving point divides 0 by 0: the NaN reaches the sweep's
# finiteness check; err = 0 makes the step's scale inf, which the growth cap
# bounds, and so does an estimate ratio e3/e5 whose square overflows
@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def trace_hull(evolution: Evolution, times: Sequence[float]) -> list[HullSample]:
    """Hull tips gamma_j(t) for each requested time and each curve.

    gamma_j(t) is the preimage of x_j(t) under the forward map, found by
    integrating the reverse flow dz/ds = -sum_k 2 nu_k / (z - x_k) at time
    t - s from z = x_j(t) on the boundary, s = 0, to s = t.

    Near its start the solve is the vertical slit z - x_j = 2i sqrt(nu_j s),
    whose square root makes it stiff in s. It is integrated in r = sqrt(s)
    instead, dz/dr = 2r dz/ds from r = 0 to sqrt(t), where the slit is the
    line z = x_j + 2i sqrt(nu_j) r: its velocity 2i sqrt(nu_j), with nu_j
    the rate below t, is the first stage at r = 0. The first step proposes
    the whole way to the breakpoint below, and the steps are DOP853 steps
    sized as ``evolve``'s: the velocity at a step's end, which the next step
    reuses as its first stage, is its 13th stage, and a step whose combined
    5th/3rd-order estimate exceeds ``REVERSE_TOL`` is retried with
    h max(0.2, 0.9 (tol/err)^(1/8)); an accepted one proposes
    h min(5, 0.9 (tol/err)^(1/8)). A rejected first step from the slit,
    r = 0, is retried with h 0.9 (tol/err)^(1/2) instead: there the
    estimate falls about as h^2 (fig2's curve 2 at t = 0.05: 6.3e-4,
    3.0e-5 and 1.8e-6 at h = 0.22, 0.045 and 0.011), and the h^8 rule took
    about ten retries to an accepted step. A sample at the end of a
    driving collision (t the last state's time, ``collision`` set) keeps
    the h^8 rule: there its driving point moves linearly in r, so its
    start is no slit and its estimate falls as h (fig1's curve 0). The
    driving points of the stages are read from the recorded states
    (``_DrivingPaths``).

    All samples advance together as arrays, one step each per sweep, and
    leave the sweep when they reach r = sqrt(t). A step ends exactly where
    it reaches the next rate breakpoint below, r = sqrt(t - breakpoint), so
    that it sees one set of rates; the first stage of the next is evaluated
    anew under the rates below. A sample's state is its own and the
    velocity sums run over the driving points in order, so a sample gets
    the bits of the same solve on Python complex numbers, whatever the
    other samples of the call.

    More than ``REVERSE_BUDGET`` sweeps, a step that no longer moves r, and
    an estimate or state that is not finite raise ``InversionFailureError``.
    """
    t_max = evolution.states[-1].t
    for t in times:
        if not 0 <= t <= t_max + 1e-12:
            raise InversionFailureError(f"time {t} outside the evolved range")
    # from here on a driving collision's end: its samples leave the slit rule
    t_collision = math.inf if evolution.collision is None else t_max
    n = len(evolution.states[0].x)
    paths = _DrivingPaths(evolution)
    starts, piece_rates = np.array(evolution.nu.starts), evolution.nu.piece_rates
    # per piece: 2 nu_k, one row per driving point
    coeffs = 2.0 * np.array(piece_rates).reshape(len(starts), n).T

    # one sample per (time, curve), in the order of the output
    t = np.repeat(np.array(times, dtype=float), n)
    m = len(t)
    curve = np.tile(np.arange(n), len(times))
    z = paths.at(t)[curve, np.arange(m)].astype(complex)
    # the piece below the sample time: a sample at a breakpoint starts on
    # the rates before it
    piece = np.maximum(starts.searchsorted(t) - 1, 0)
    r = np.zeros(m)
    r_stop = np.sqrt(t - starts.take(piece))  # where the piece ends below
    h = r_stop
    # the first stage: the slit's velocity 2i sqrt(nu_j) = i sqrt(2 coeff_j)
    k1 = 1j * np.sqrt(2.0 * coeffs[curve, piece])
    index = np.arange(m)
    out = z.copy()
    sweeps = rejected = 0
    while True:
        live = r < r_stop
        if not live.all():
            done = ~live
            out[index[done]] = z[done]
            index, t, r, r_stop, h, z, k1, piece = (a[live] for a in (index, t, r, r_stop, h, z, k1, piece))
        if not index.size:
            break
        sweeps += 1
        if sweeps > REVERSE_BUDGET:
            raise InversionFailureError(
                f"reverse solve exceeded its budget of {REVERSE_BUDGET} sweeps "
                f"({rejected} steps rejected, {index.size} samples unfinished)"
            )
        room = r_stop - r
        h = np.minimum(h, room)
        r_end = np.where(h == room, r_stop, r + h)
        stalled = r_end == r
        if stalled.any():
            k = int(stalled.argmax())
            x_here = paths.at(t[k : k + 1] - r[k] * r[k])[:, 0]
            gap = np.hypot(z[k].real - x_here, z[k].imag).min()
            raise InversionFailureError(
                f"reverse solve stalled at s={r[k] * r[k]:.3e} (gap {gap:.3e})"
            )
        # each stage at r + c h, the last two at r_end, where c = 1
        rs = [r + c * h for c in DOP_C[1:11]] + [r_end]
        count = len(r)
        x_stages = paths.at(np.concatenate([t - ri * ri for ri in rs]))
        x_end = x_stages[:, 10 * count :]
        coeff = coeffs.take(piece, 1)
        # dz/dr = 2r dz/ds = -2r times the common field; stage i in row i
        ks = np.empty((12, count), dtype=complex)
        ks[0] = k1
        for i, (terms, ri) in enumerate(zip(_STAGE_TERMS[:11], rs)):
            x_i = x_stages[:, i * count : (i + 1) * count]
            ks[i + 1] = -2.0 * ri * _common_field(z + h * _weighted(ks, terms), x_i, coeff)
        z1 = z + h * _weighted(ks, _B_TERMS)
        f_end = -2.0 * r_end
        k13 = f_end * _common_field(z1, x_end, coeff)
        e5, e3 = (np.hypot(d.real, d.imag) for d in (_weighted(ks, _E5_TERMS), _weighted(ks, _E3_TERMS)))
        err = _estimate(h, e5, e3)
        # NaN fails every comparison, so neither a rejection nor the end of
        # the solve would see it
        bad = ~np.isfinite(err + z1.real + z1.imag)
        if bad.any():
            k = int(bad.argmax())
            raise InversionFailureError(
                f"reverse solve is not finite at s={r[k] * r[k]:.3e} "
                f"(hull sample t={t[k]:.12g}, curve {index[k] % n})"
            )
        accept = err <= REVERSE_TOL
        rejected += len(r) - int(np.count_nonzero(accept))
        # (tol/err)^(1/8) by square roots, which round alike everywhere
        root = np.sqrt(REVERSE_TOL / err)
        scale = 0.9 * np.sqrt(np.sqrt(root))
        # a first step from the slit is retried at the h^2 law its estimate
        # follows there, except at a collision's end, which is no slit start
        slit = (r == 0.0) & (t < t_collision)
        retry = np.where(slit, 0.9 * root, np.maximum(0.2, scale))
        h = h * np.where(accept, np.minimum(5.0, scale), retry)
        r = np.where(accept, r_end, r)
        z, k1 = np.where(accept, z1, z), np.where(accept, k13, k1)
        # a step that reached its breakpoint hands the sample to the piece
        # below, whose rates give the first stage of its next step
        below = accept & (r == r_stop) & (piece > 0)
        if below.any():
            piece = piece - below
            r_stop = np.sqrt(t - starts.take(piece))
            k1[below] = f_end[below] * _common_field(z[below], x_end[:, below], coeffs.take(piece[below], 1))
    return [
        HullSample(tk, j, complex(out[k * n + j]))
        for k, tk in enumerate(times)
        for j in range(n)
    ]


@dataclass(frozen=True)
class MotionIntegralReport:
    z: complex
    samples: int
    t_first: float
    t_last: float
    log_abs_initial: float
    max_rel_drift: float
    max_arg_drift: float
    alive: bool
    death_time: float | None


def _drifts(
    g: np.ndarray, log_gprime: np.ndarray, factors: list, dead_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The log modulus of the observable at the first state, and its largest
    relative modulus and argument drifts over the alive states, one per
    column of the history ``g``, ``log_gprime``; ``factors`` holds each
    factor's weight and its point at every state. Logarithms and phases are
    numpy's ``log`` and ``arctan2``, one call per factor: the bits of a loop
    that calls them one value at a time, an ulp from libm's for some
    arguments, depending on the machine's SIMD build."""
    log_abs = 2.0 * log_gprime.real
    args = 2.0 * log_gprime.imag
    for weight, column in factors:
        v = g - column[:, None]
        size = np.hypot(v.real, v.imag)
        size[dead_rows] = 1.0  # past a death g may sit on a driving point
        log_abs = log_abs + weight * np.log(size)
        args = args + weight * np.unwrap(np.arctan2(v.imag, v.real), axis=0)
    rel = np.abs(np.expm1(log_abs - log_abs[0]))
    arg = np.abs(args - args[0])
    rel[dead_rows] = arg[dead_rows] = 0.0
    return log_abs[0], rel.max(axis=0), arg.max(axis=0)


def motion_integral(evolution: Evolution) -> list[MotionIntegralReport]:
    """Drift reports for the conserved observable attached to each tracked
    point, in ``tracked`` order.

    The observable is g'(z)^2 prod_k (g(z)-x_k)^2 prod_l (g(z)-q_l)^(2 s_l)
    (marked factors at infinity dropped). Its modulus is computed in log
    space from the integrated log g'; its argument is tracked continuously
    by unwrapping each factor's phase along the state sequence. An observer
    that dies is reported over the states before its death and flagged.
    All observers are reported from one pass over the history arrays, one
    factor at a time, in blocks of ``OBSERVER_BLOCK`` columns that bound
    its temporaries.
    """
    if not evolution.tracked:
        return []
    states = evolution.states
    ts = np.array([st.t for st in states])
    # each observer is reported on the states before its death
    counts = [len(ts) if d is None else int(ts.searchsorted(d)) for d in evolution.death_times]
    dead_rows = np.arange(len(ts))[:, None] >= np.array(counts)

    _, charges = evolution.divisor.finite_marked()
    xs = np.array([st.x for st in states]).T
    qs = np.array([st.q for st in states], dtype=complex).reshape(len(ts), len(charges)).T
    factors = [(2.0, c) for c in xs] + [(2.0 * s, c) for s, c in zip(charges, qs)]
    blocks = [
        _drifts(evolution.g[:, cols], evolution.log_gprime[:, cols], factors, dead_rows[:, cols])
        for cols in (slice(i, i + OBSERVER_BLOCK) for i in range(0, len(counts), OBSERVER_BLOCK))
    ]
    log_abs, max_rel, max_arg = (np.concatenate(parts) for parts in zip(*blocks))
    return [
        MotionIntegralReport(
            z=z,
            samples=count,
            t_first=states[0].t,
            t_last=states[count - 1].t,
            log_abs_initial=float(log_abs[i]),
            max_rel_drift=float(max_rel[i]),
            max_arg_drift=float(max_arg[i]),
            alive=death is None,
            death_time=death,
        )
        for i, (z, count, death) in enumerate(zip(evolution.tracked, counts, evolution.death_times))
    ]
