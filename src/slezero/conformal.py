"""Transport of a disk divisor to the upper half-plane, where the flow runs.

The carrier is the Cayley map z = i (1 + rho w)/(1 - rho w) with an optional
boundary rotation rho = exp(i theta). The rotation matters when a divisor
point sits at the pole of the standard map, w = 1: a growth point there
would map to infinity, which a chordal driving point cannot be, so the
transport picks a rotation placing the pole inside the widest free boundary
gap.
"""

from __future__ import annotations

import cmath

from . import divisors
from .divisors import DISK, HALF_PLANE, MoebiusMap, SpherePoint, SymmetricDivisor
from .errors import InvalidReferenceError
from .quadratic import TWO_PI

POLE_TOL = 1e-9


def _disk_to_half_plane(rotation: float = 0.0) -> MoebiusMap:
    rho = cmath.exp(1j * rotation)
    return MoebiusMap(1j * rho, 1j, -rho, 1.0)


def _largest_gap_rotation(points: list[SpherePoint]) -> float:
    """Rotation placing the disk map pole mid-way in the widest angular gap.

    Only points near the unit circle constrain the pole, and the growth
    points are on it; the returned theta rotates the divisor so that w = 1
    falls at the gap midpoint.
    """
    angles = sorted(
        cmath.phase(p.value) % TWO_PI
        for p in points
        if p.finite and abs(abs(p.value) - 1.0) <= 0.5
    )
    best_mid, best_gap = 0.0, -1.0
    for i, a in enumerate(angles):
        b = angles[(i + 1) % len(angles)]
        gap = (b - a) % TWO_PI
        if gap == 0.0:
            gap = TWO_PI
        if gap > best_gap:
            best_gap = gap
            best_mid = (a + gap / 2.0) % TWO_PI
    # _disk_to_half_plane(theta) has its pole at w = exp(-i theta)
    return -best_mid


def transport(divisor: SymmetricDivisor, target: str) -> tuple[SymmetricDivisor, MoebiusMap]:
    """A disk divisor carried to the half-plane ``target``, with the map used.

    The map is deterministic and keeps growth points off its pole. Charges
    are kept, and images are as the map rounds them: growth points and
    self-mirrors may sit within rounding off the real axis, where the flow
    reads only their real parts (``finite_marked()``).
    """
    if divisor.domain != DISK or target != HALF_PLANE:
        raise InvalidReferenceError(
            f"no transport from {divisor.domain!r} to {target!r}: only {DISK!r} to {HALF_PLANE!r}"
        )
    points = [p for p, _ in divisor.weighted_points()]
    m = _disk_to_half_plane()
    pole = SpherePoint(-m.d / m.c)
    if any(divisors._points_close(p, pole, POLE_TOL) for p in points):
        m = _disk_to_half_plane(_largest_gap_rotation(points))
    growth = tuple(m.apply(p) for p in divisor.growth)
    marked = tuple((m.apply(q), s) for q, s in divisor.marked)
    return SymmetricDivisor(HALF_PLANE, growth, marked), m
