"""Transport between the upper half-plane and the unit disk.

The carrier is the Cayley pair w = rho (z - i)/(z + i) and its inverse
z = i (1 + rho w)/(1 - rho w), with an optional boundary rotation rho =
exp(i theta). The rotation matters when a divisor point sits at the pole of
the standard map (for the disk-to-half-plane direction, w = 1): a growth
point there would map to infinity, which a chordal driving point cannot be,
so the transport picks a rotation placing the pole inside the widest free
boundary gap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import divisors
from .divisors import (
    DISK,
    HALF_PLANE,
    INFINITY,
    MoebiusMap,
    SpherePoint,
    SymmetricDivisor,
)
from .errors import DegenerateConfigurationError, InvalidReferenceError
from .quadratic import TWO_PI

POLE_TOL = 1e-9


@dataclass(frozen=True)
class DomainMap:
    """A directed conformal equivalence between the two domains."""

    source: str
    target: str
    moebius: MoebiusMap

    @classmethod
    def half_plane_to_disk(cls, rotation: float = 0.0) -> "DomainMap":
        rho = cmath.exp(1j * rotation)
        return cls(HALF_PLANE, DISK, MoebiusMap(rho, -1j * rho, 1.0, 1j))

    @classmethod
    def disk_to_half_plane(cls, rotation: float = 0.0) -> "DomainMap":
        rho = cmath.exp(1j * rotation)
        return cls(DISK, HALF_PLANE, MoebiusMap(1j * rho, 1j, -rho, 1.0))

    @property
    def pole(self) -> SpherePoint:
        """Source point mapping to infinity."""
        if self.moebius.c == 0:
            return INFINITY
        return SpherePoint(-self.moebius.d / self.moebius.c)

    def inverse(self) -> "DomainMap":
        return DomainMap(self.target, self.source, self.moebius.inverse())


def map_point(dm: DomainMap, p: SpherePoint | complex) -> SpherePoint:
    """Image of a closure point; the source pole maps to infinity."""
    return dm.moebius.apply(p)


def _largest_gap_rotation(points: list[SpherePoint]) -> float:
    """Rotation placing the disk map pole mid-way in the widest angular gap.

    Only points near the unit circle constrain the pole; the returned theta
    rotates the divisor so that w = 1 falls at the gap midpoint.
    """
    angles = sorted(
        cmath.phase(p.value) % TWO_PI
        for p in points
        if p.finite and abs(abs(p.value) - 1.0) <= 0.5
    )
    if not angles:
        return math.pi
    best_mid, best_gap = 0.0, -1.0
    for i, a in enumerate(angles):
        b = angles[(i + 1) % len(angles)]
        gap = (b - a) % TWO_PI
        if gap == 0.0:
            gap = TWO_PI
        if gap > best_gap:
            best_gap = gap
            best_mid = (a + gap / 2.0) % TWO_PI
    # disk_to_half_plane(theta) has its pole at w = exp(-i theta)
    return -best_mid


def transport_map(divisor: SymmetricDivisor, target: str) -> DomainMap:
    """Deterministic domain map for a divisor, avoiding growth at the pole."""
    if divisor.domain == target:
        raise InvalidReferenceError("divisor already lives on the target domain")
    if divisor.domain == HALF_PLANE and target == DISK:
        dm = DomainMap.half_plane_to_disk()
    elif divisor.domain == DISK and target == HALF_PLANE:
        dm = DomainMap.disk_to_half_plane()
    else:
        raise InvalidReferenceError(
            f"no transport from {divisor.domain!r} to {target!r}"
        )
    pole = dm.pole
    blocked = any(
        divisors._points_close(p, pole, POLE_TOL)
        for p, _ in divisor.weighted_points()
    )
    if blocked:
        if divisor.domain != DISK:
            raise DegenerateConfigurationError(
                "divisor point at the half-plane map pole -i"
            )
        theta = _largest_gap_rotation([p for p, _ in divisor.weighted_points()])
        dm = DomainMap.disk_to_half_plane(theta)
    return dm


def _snap_to_boundary(p: SpherePoint, domain: str) -> SpherePoint:
    if not p.finite:
        return p
    z = p.value
    if domain == HALF_PLANE and 0 < abs(z.imag) <= 1e-12 * max(1.0, abs(z)):
        return SpherePoint(complex(z.real))
    if domain == DISK:
        r = abs(z)
        if r > 0 and abs(r - 1.0) <= 1e-12:
            return SpherePoint(z / r)
    return p


def map_divisor(dm: DomainMap, divisor: SymmetricDivisor) -> SymmetricDivisor:
    """Transport a divisor; charges are kept and the domain tag flips.

    Images that land within rounding of the target boundary are snapped onto
    it so the result validates exactly.
    """
    if divisor.domain != dm.source:
        raise InvalidReferenceError(
            f"divisor domain {divisor.domain!r} does not match map source {dm.source!r}"
        )
    growth = []
    for p in divisor.growth:
        image = map_point(dm, p)
        if not image.finite:
            raise DegenerateConfigurationError(
                f"growth point {p} maps to infinity; rotate the map"
            )
        growth.append(_snap_to_boundary(image, dm.target))
    marked = tuple(
        (_snap_to_boundary(map_point(dm, q), dm.target), s) for q, s in divisor.marked
    )
    image = SymmetricDivisor(dm.target, tuple(growth), marked)
    report = divisors.validate(image)
    if not report.ok:
        raise DegenerateConfigurationError(f"transported divisor invalid: {report}")
    return image


def transport(divisor: SymmetricDivisor, target: str) -> tuple[SymmetricDivisor, DomainMap]:
    """Divisor transported to ``target`` together with the map used."""
    dm = transport_map(divisor, target)
    return map_divisor(dm, divisor), dm
