"""Seeded generators shared by the property tests.

Everything here is deterministic given the Random instance passed in; tests
own their seeds so failures replay exactly.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

from slezero.divisors import (
    DISK,
    HALF_PLANE,
    MoebiusMap,
    SymmetricDivisor,
)


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


def nan_after(monkeypatch, calls: int) -> None:
    """Makes ``divisors.dlog_Z`` return NaN from its call number ``calls`` on."""
    from slezero import divisors

    dlog_Z = divisors.dlog_Z
    count = [0]

    def poisoned(x, *args):
        count[0] += 1
        return dlog_Z(x, *args) if count[0] < calls else [math.nan] * len(x)

    monkeypatch.setattr(divisors, "dlog_Z", poisoned)
