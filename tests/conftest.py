"""Seeded generators shared by the property tests.

Everything here is deterministic given the Random instance passed in; tests
own their seeds so failures replay exactly.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from slezero.divisors import (
    DISK,
    HALF_PLANE,
    MoebiusMap,
    SymmetricDivisor,
)
from slezero.errors import DegenerateConfigurationError


def distinct_reals(rng: random.Random, n: int, lo=-3.0, hi=3.0, min_gap=0.3) -> list[float]:
    out: list[float] = []
    while len(out) < n:
        x = rng.uniform(lo, hi)
        if all(abs(x - y) >= min_gap for y in out):
            out.append(x)
    return out


def half_plane_divisor(rng: random.Random, max_growth: int = 3) -> SymmetricDivisor:
    """Random valid upper-half-plane divisor with half-integer charges.

    Marked content: up to two conjugate interior pairs, up to two real
    points, and a balancing charge at infinity chosen so the total charge
    plus the growth count is exactly -2.
    """
    n = rng.randint(1, max_growth)
    xs = distinct_reals(rng, n)
    marked: list[tuple[complex | str, Fraction]] = []
    doubled = 0  # running sum of 2*sigma, kept integer

    for _ in range(rng.randint(0, 2)):
        re = rng.uniform(-2.0, 2.0)
        im = rng.uniform(0.5, 2.0)
        k = rng.choice([-4, -3, -2, -1, 1, 2])
        marked.append((complex(re, im), Fraction(k, 2)))
        marked.append((complex(re, -im), Fraction(k, 2)))
        doubled += 2 * k

    for x in distinct_reals(rng, rng.randint(0, 2), lo=-6.0, hi=6.0, min_gap=0.4):
        if any(abs(x - g) < 0.3 for g in xs):
            continue
        k = rng.choice([-4, -3, -2, -1, 1, 2])
        marked.append((complex(x), Fraction(k, 2)))
        doubled += k

    remainder = 2 * (-2 - n) - doubled  # 2*sigma still owed
    if remainder == 0:
        marked.append((complex(9.0), Fraction(-1)))
        remainder = 2
    marked.append(("inf", Fraction(remainder, 2)))
    return SymmetricDivisor.build(HALF_PLANE, [complex(x) for x in xs], marked)


def disk_divisor(rng: random.Random, max_growth: int = 3) -> SymmetricDivisor:
    """Random valid disk divisor: inversion-paired interior points plus a
    balancing self-paired point on the circle."""
    n = rng.randint(1, max_growth)
    # keep clear of 2*pi so wrap-around cannot defeat the angle separation
    angles = distinct_reals(rng, n + 2, lo=0.0, hi=2.0 * math.pi - 0.3, min_gap=0.25)
    growth = [cmath.exp(1j * a) for a in angles[:n]]
    marked: list[tuple[complex, Fraction]] = []
    doubled = 0

    for _ in range(rng.randint(0, 2)):
        r = rng.uniform(0.25, 0.8)
        a = rng.uniform(0.0, 2.0 * math.pi)
        q = r * cmath.exp(1j * a)
        k = rng.choice([-4, -3, -2, -1, 1, 2])
        marked.append((q, Fraction(k, 2)))
        marked.append((1.0 / q.conjugate(), Fraction(k, 2)))
        doubled += 2 * k

    remainder = 2 * (-2 - n) - doubled
    if remainder == 0:
        # a zero balancing charge would be degenerate; split it in two
        marked.append((cmath.exp(1j * angles[n + 1]), Fraction(-1)))
        remainder = 2
    marked.append((cmath.exp(1j * angles[n]), Fraction(remainder, 2)))
    return SymmetricDivisor.build(DISK, growth, marked)


@dataclass(frozen=True)
class RealLocus:
    """A half-plane scene whose horizontal trajectories are level sets.

    For R(z) = z + a/(z-q) + a/(z-conj q) with real a, the differential
    Q = R'(z)^2 dz^2 has horizontal trajectories Im R = const: R is real on
    the real axis, so the phase ``build_Q`` fixes on the first boundary arc
    is the one of R'^2. Real zeros of R' are growth points, complex zeros
    are charge +1, q and conj q are double poles of R' (charge -2), and
    R' -> 1 makes infinity a pole of order 4 (charge -2).
    """

    a: float
    q: complex
    divisor: SymmetricDivisor

    def R(self, z: complex) -> complex:
        return z + self.a / (z - self.q) + self.a / (z - self.q.conjugate())

    def dR(self, z: complex) -> complex:
        return 1.0 - self.a / (z - self.q) ** 2 - self.a / (z - self.q.conjugate()) ** 2

    def level_error(self, z: complex, level: float) -> float:
        """First-order distance from z to the level set Im R = level."""
        return abs(self.R(z).imag - level) / abs(self.dR(z))


def real_locus(a: float, q: complex) -> RealLocus:
    """The real-locus scene of R = z + a/(z-q) + a/(z-conj q).

    The zeros of R' are the roots of the real quartic
    ((z-q)(z-conj q))^2 - a((z-q)^2 + (z-conj q)^2), each polished by
    Newton steps on it.
    """
    pq = np.array([1.0, -2.0 * q.real, abs(q) ** 2])
    quartic = np.polymul(pq, pq)
    quartic[2:] -= a * np.array([2.0, -4.0 * q.real, 2.0 * (q * q).real])
    slope = np.polyder(quartic)
    growth, marked = [], []
    for root in np.roots(quartic):
        z = complex(root)
        for _ in range(3):
            z -= complex(np.polyval(quartic, z) / np.polyval(slope, z))
        if abs(z.imag) < 1e-9:
            growth.append(z.real)
        elif z.imag > 0:
            marked += [(z, Fraction(1)), (z.conjugate(), Fraction(1))]
    marked += [(q, Fraction(-2)), (q.conjugate(), Fraction(-2)), ("inf", Fraction(-2))]
    return RealLocus(a, q, SymmetricDivisor.half_plane(sorted(growth), marked))


def random_real_locus(rng: random.Random) -> RealLocus:
    """A real-locus scene with at least one growth point."""
    while True:
        a = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5)
        q = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.4, 1.2))
        try:
            return real_locus(a, q)
        except DegenerateConfigurationError as exc:
            # a divisor with no growth point cannot be made; draw again
            if exc.problems != ("no growth points",):
                raise


def random_moebius(rng: random.Random) -> MoebiusMap:
    """Invertible complex Moebius map with coefficients in [-2, 2]^2."""
    while True:
        a, b, c, d = (
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)
        )
        if abs(a * d - b * c) >= 0.1:
            return MoebiusMap(a, b, c, d)


def real_moebius(rng: random.Random) -> MoebiusMap:
    """Orientation-preserving real Moebius map (fixes the upper half-plane)."""
    while True:
        a, b, c, d = (rng.uniform(-2, 2) for _ in range(4))
        if a * d - b * c >= 0.1:
            return MoebiusMap(complex(a), complex(b), complex(c), complex(d))


def mod_pi_gap(alpha: float, beta: float) -> float:
    """Distance between two angles identified modulo pi."""
    d = (alpha - beta) % math.pi
    return min(d, math.pi - d)


def q_value(qd, z: complex) -> complex:
    """Q(z) = phase^2 * prod (z - p)^order by direct multiplication."""
    value = qd.phase * qd.phase
    for p, order in qd.factors:
        value *= (z - p) ** order
    return value


def signed_field(qd, z: complex, ref: complex) -> complex:
    """The unit line-field direction at z with a non-negative inner product
    with ``ref``: the sign rule the tracer steps by."""
    _, ur, ui = qd.field(z.real, z.imag, ref.real, ref.imag)
    return complex(ur, ui)


def nan_after(monkeypatch, calls: int) -> None:
    """Makes ``divisors.dlog_Z`` return NaN from its call number ``calls`` on."""
    from slezero import divisors

    dlog_Z = divisors.dlog_Z
    count = [0]

    def poisoned(x, *args):
        count[0] += 1
        return dlog_Z(x, *args) if count[0] < calls else [math.nan] * len(x)

    monkeypatch.setattr(divisors, "dlog_Z", poisoned)
