"""Quadratic differentials built on symmetric divisors.

The differential attached to a divisor is Q(z) dz^2 with

    Q(z) = phase^2 * prod over finite points (z - p)^order,

order 2 at growth points and 2*sigma at marked points. The induced order at
infinity is -4 minus the sum of finite orders, so all orders sum to -4 on the
sphere. The unimodular phase is fixed by requiring the first boundary arc
of the domain to be horizontal; horizontal trajectories of Q then follow
the unit line field u(z) with Q(z) u(z)^2 > 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

from . import divisors
from .divisors import DISK, SymmetricDivisor
from .errors import (
    DegenerateConfigurationError,
    InvalidReferenceError,
    SingularityProximityError,
    UnsupportedChargeError,
)

PROXIMITY_TOL = 1e-9
TWO_PI = 2.0 * math.pi

Factor = tuple[complex, int]
LineField = Callable[[float, float, float, float], tuple[float, float, float]]


def line_field(factors: Sequence[Factor], phase_arg: float) -> LineField:
    """Evaluator of the horizontal line field of phase * prod (z - p)^order.

    The returned function maps (zr, zi, ref_r, ref_i) to (angle, ur, ui):
    angle = phase_arg + sum (order/2) arg(z - p), and (ur, ui) is the unit
    direction +-(cos angle, -sin angle), signed to have a non-negative inner
    product with the reference direction. With phase_arg = arg(phase) it
    solves Q(z) u^2 > 0. Raises SingularityProximityError within
    PROXIMITY_TOL of a factor point. The tracer calls it once per RK stage,
    so the factor data is unpacked here, once.
    """
    factor_data = [(p.real, p.imag, 0.5 * order) for p, order in factors]
    prox_sq = PROXIMITY_TOL * PROXIMITY_TOL

    def evaluate(zr: float, zi: float, ref_r: float, ref_i: float) -> tuple[float, float, float]:
        total = phase_arg
        for pr, pi_, half in factor_data:
            dr = zr - pr
            di = zi - pi_
            if dr * dr + di * di < prox_sq:
                raise SingularityProximityError(
                    f"field evaluation at {complex(zr, zi)} within {PROXIMITY_TOL:.0e} of {complex(pr, pi_)}"
                )
            total += half * math.atan2(di, dr)
        ur = math.cos(total)
        ui = -math.sin(total)
        if ur * ref_r + ui * ref_i < 0.0:
            return total, -ur, -ui
        return total, ur, ui

    return evaluate


@dataclass(frozen=True)
class SingularityInfo:
    """A finite singular point with its trajectory structure.

    For a zero of order n, ``angles`` are the n+2 separatrix directions; for
    a pole of order k >= 3 they are the k-2 distinguished approach
    directions; poles of order 1 and 2 have none.
    """

    point: complex
    order: int
    angles: tuple[float, ...]


@dataclass(frozen=True)
class QuadDifferential:
    """Factorized form of Q(z) dz^2 on the half-plane or the disk.

    ``factors`` lists the finite (point, order) pairs, growth points first;
    a marked point at infinity has no factor (its order is induced). Factor
    points are more than ``PROXIMITY_TOL`` apart, so the line field is
    defined at each of them once its own factor is left out.
    """

    domain: str
    factors: tuple[Factor, ...]
    n_growth: int
    phase: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        fmt = divisors.format_complex
        for i, (p, _) in enumerate(self.factors):
            for q, _ in self.factors[i + 1 :]:
                if abs(p - q) <= PROXIMITY_TOL:
                    raise DegenerateConfigurationError(
                        f"factor points {fmt(p)} and {fmt(q)} are within {PROXIMITY_TOL:.0e}"
                    )

    @property
    def infinity_order(self) -> int:
        return -4 - sum(order for _, order in self.factors)

    @property
    def growth_points(self) -> tuple[complex, ...]:
        return tuple(p for p, _ in self.factors[: self.n_growth])

    @property
    def marked_factors(self) -> tuple[Factor, ...]:
        return self.factors[self.n_growth :]

    @cached_property
    def field(self) -> LineField:
        """Evaluator of the horizontal line field (see ``line_field``)."""
        return line_field(self.factors, cmath.phase(self.phase))

    @cached_property
    def singularities(self) -> tuple[SingularityInfo, ...]:
        """Trajectory structure at every factor point, in factor order.

        Near p, Q(z) ~ a (z - p)^order with a = phase^2 prod over the other
        factors (p - p_k)^order_k, so arg a is twice the line-field angle
        of the other factors at p. Angles are sorted.
        """
        phase_arg = cmath.phase(self.phase)
        out = []
        for i, (p, order) in enumerate(self.factors):
            others = self.factors[:i] + self.factors[i + 1 :]
            angle, _, _ = line_field(others, phase_arg)(p.real, p.imag, 1.0, 0.0)
            arg_a = 2.0 * angle
            if order > 0:
                count = order + 2
                angles = [((TWO_PI * k - arg_a) / count) % TWO_PI for k in range(count)]
            elif order <= -3:
                count = -order - 2
                angles = [((arg_a + TWO_PI * k) / count) % TWO_PI for k in range(count)]
            else:
                angles = []
            out.append(SingularityInfo(p, order, tuple(sorted(angles))))
        return tuple(out)


def _reference_arc(domain: str, factors: Sequence[Factor]) -> tuple[complex, complex]:
    """(midpoint, unit tangent) of the first boundary arc.

    Arcs are delimited by the singular points sitting on the boundary. On
    the disk the first one runs counterclockwise from the smallest angle; on
    the half-plane it is the segment between the two leftmost points, or the
    unbounded arc through infinity when there is only one.
    """
    if domain == DISK:
        angles = sorted(
            cmath.phase(p) % TWO_PI
            for p, _ in factors
            if abs(abs(p) - 1.0) <= divisors.BOUNDARY_TOL
        )
        if not angles:
            raise InvalidReferenceError("no singular points on the unit circle")
        a = angles[0]
        gap = (angles[1 % len(angles)] - a) % TWO_PI
        if gap == 0.0:
            gap = TWO_PI
        mid = cmath.exp(1j * (a + gap / 2.0))
        return mid, 1j * mid
    # the half-plane: a divisor has no other domain
    xs = sorted(p.real for p, _ in factors if abs(p.imag) <= divisors.BOUNDARY_TOL)
    if not xs:
        raise InvalidReferenceError("no singular points on the real axis")
    if len(xs) > 1:
        return complex((xs[0] + xs[1]) / 2.0), 1.0 + 0j
    return complex(xs[0] + 1.0), 1.0 + 0j


def normalize_phase(qd: QuadDifferential) -> complex:
    """Unimodular correction c making the first boundary arc horizontal.

    c satisfies (c * qd.phase)^2 * prod (z0-p)^order * tau(z0)^2 > 0 at the
    arc midpoint z0 with unit tangent tau. On a freshly assembled
    differential (phase 1) this is the absolute normalization constant;
    re-running on a normalized differential returns +-1.
    """
    z0, tau = _reference_arc(qd.domain, qd.factors)
    for p, _ in qd.factors:
        if abs(z0 - p) <= PROXIMITY_TOL:
            raise InvalidReferenceError(f"arc midpoint {z0} is singular")
    angle, _, _ = qd.field(z0.real, z0.imag, 1.0, 0.0)
    arg_q = 2.0 * angle
    arg_tau = cmath.phase(tau)
    c = cmath.exp(-0.5j * (arg_q + 2.0 * arg_tau))
    # canonical representative of the +-c pair
    if c.real < 0 or (c.real == 0 and c.imag < 0):
        c = -c
    return c


def build_Q(divisor: SymmetricDivisor) -> QuadDifferential:
    """Assemble the differential of a divisor and fix its phase.

    Every charge must be a half-integer so the local exponents 2*sigma are
    integers.
    """
    factors: list[Factor] = [(p.value, 2) for p in divisor.growth]
    for q, s in divisor.marked:
        if isinstance(s, float):
            raise UnsupportedChargeError(f"charge {s} at {q} is not a half-integer")
        order = 2 * s
        if not q.finite or order == 0:
            continue
        factors.append((q.value, int(order)))
    qd = QuadDifferential(divisor.domain, tuple(factors), len(divisor.growth))
    return replace(qd, phase=normalize_phase(qd))


def direction_field(qd: QuadDifferential, z: complex) -> complex:
    """Unit vector of the horizontal line field at z: of the two antipodal
    solutions of Q(z) u^2 > 0, the one with argument in [0, pi). (``qd.field``
    signs it towards a reference direction instead.)"""
    _, ur, ui = qd.field(z.real, z.imag, 0.0, 0.0)
    if ui < 0 or (ui == 0 and ur < 0):
        ur, ui = -ur, -ui
    return complex(ur, ui)


def pullback(qd: QuadDifferential, mapper: Callable[[complex], complex]) -> QuadDifferential:
    """Differential on the evolved configuration.

    ``mapper`` sends each original factor point to its evolved position
    (typically through a Loewner flow); orders are unchanged and the phase
    is re-derived from the first boundary arc. Evolved points that come
    within ``PROXIMITY_TOL`` of each other raise
    DegenerateConfigurationError.
    """
    factors = tuple((mapper(p), order) for p, order in qd.factors)
    moved = QuadDifferential(qd.domain, factors, qd.n_growth)
    return replace(moved, phase=normalize_phase(moved))
