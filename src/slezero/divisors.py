"""Symmetric divisors on the Riemann sphere and their Coulomb-gas correlations.

A divisor here is a finite set of weighted points: growth points carrying
charge +1 (where curves start) and marked points carrying real charges,
typically half-integers. Every ``SymmetricDivisor`` is admissible: its
growth points lie on the boundary of its domain, its points are distinct
(more than ``DISTINCT_TOL`` apart in chordal distance on the sphere),
its marked points are closed under the reflection symmetry of the domain
(complex conjugation for the half-plane, circle inversion for the disk), and
it satisfies the neutrality condition

    (number of growth points) + sum of marked charges = -2,

counting an explicit charge at infinity if present.

The absolute value of the pairwise-product correlation and of the partition
function are computed in log space; phases of the multivalued products are
never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DegenerateConfigurationError

DISTINCT_TOL = 1e-12
BOUNDARY_TOL = 1e-9
SYMMETRY_TOL = 1e-10
NEUTRALITY_TOL = 1e-10

HALF_PLANE = "half_plane"
DISK = "disk"


@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere: a finite complex value or infinity."""

    value: complex = 0j
    is_infinity: bool = False

    @classmethod
    def of(cls, z: Union["SpherePoint", complex, float, str]) -> "SpherePoint":
        if isinstance(z, SpherePoint):
            return z
        if isinstance(z, str):
            return parse_point(z)
        return cls(complex(z))

    @property
    def finite(self) -> bool:
        return not self.is_infinity

    def __str__(self) -> str:
        return "inf" if self.is_infinity else format_complex(self.value)


INFINITY = SpherePoint(0j, True)


def as_charge(x: int | float | str | Fraction) -> Fraction | float:
    """A real charge: a Fraction when it is a half-integer p/1 or p/2, else
    a float.

    Float charges are accepted by the Loewner integrator but not by the
    quadratic differential (whose local exponents 2*sigma must be integers).
    A float input counts as exact when a fraction of denominator at most
    1e9 lies within 1e-15 of it.
    """
    if isinstance(x, float):
        frac = Fraction(x).limit_denominator(10**9)
        if not math.isclose(float(frac), x, rel_tol=0, abs_tol=1e-15):
            return x
    else:
        frac = Fraction(x)
    return frac if frac.denominator in (1, 2) else float(frac)


def conformal_dimension(sigma: Fraction | float) -> float:
    """Scaling dimension sigma^2 + 2*sigma of a charge (symmetric about -1)."""
    s = float(sigma)
    return s * s + 2.0 * s


MarkedPoint = tuple[SpherePoint, Fraction | float]


def _reflect(domain: str, p: SpherePoint) -> SpherePoint:
    """Boundary reflection pairing a point with its symmetry partner."""
    if domain == HALF_PLANE:
        if p.is_infinity:
            return p
        return SpherePoint(p.value.conjugate())
    if p.is_infinity:
        return SpherePoint(0j)
    if p.value == 0:
        return INFINITY
    return SpherePoint(1.0 / p.value.conjugate())


def _points_close(a: SpherePoint, b: SpherePoint, tol: float) -> bool:
    if a.is_infinity or b.is_infinity:
        return a.is_infinity and b.is_infinity
    return abs(a.value - b.value) <= tol


def _partners(domain: str, marked: Sequence[MarkedPoint]) -> list[int | None]:
    """The index of each marked point's symmetry partner: itself within
    ``SYMMETRY_TOL`` of its own mirror, else the first later unmatched point
    within it of the mirror with the same charge, or None."""
    partner: list[int | None] = [None] * len(marked)
    for i, (q, s) in enumerate(marked):
        if partner[i] is not None:
            continue
        mirror = _reflect(domain, q)
        if _points_close(q, mirror, SYMMETRY_TOL):
            partner[i] = i
            continue
        for j in range(i + 1, len(marked)):
            m, c = marked[j]
            matches = _points_close(m, mirror, SYMMETRY_TOL) and abs(float(c) - float(s)) <= SYMMETRY_TOL
            if partner[j] is None and matches:
                partner[i], partner[j] = j, i
                break
    return partner


def _chordal_distance(a: SpherePoint, b: SpherePoint) -> float:
    """The chordal distance on the Riemann sphere, 2 |a - b| / (sqrt(1 +
    |a|^2) sqrt(1 + |b|^2)), and 2 / sqrt(1 + |a|^2) from a to infinity: a
    point near 1e300 is about 2e-300 from infinity."""
    if a.is_infinity:
        a, b = b, a
    if a.is_infinity:
        return 0.0
    # hypot, as |a|^2 overflows near 1e300
    size = math.hypot(1.0, abs(a.value))
    if b.is_infinity:
        return 2.0 / size
    return 2.0 * abs(a.value - b.value) / size / math.hypot(1.0, abs(b.value))


@dataclass(frozen=True)
class SymmetricDivisor:
    """Growth points (charge +1) plus marked charged points on a domain,
    ``half_plane`` or ``disk``.

    Every divisor is admissible: one that breaks a rule of the module
    docstring raises ``DegenerateConfigurationError`` when it is made, with
    every violated rule in its ``problems``.
    """

    domain: str
    growth: tuple[SpherePoint, ...]
    marked: tuple[MarkedPoint, ...]

    def __post_init__(self) -> None:
        problems: list[str] = []
        structured = self.domain in (HALF_PLANE, DISK)
        if not structured:
            problems.append(f"unknown domain {self.domain!r}")

        if not self.growth:
            problems.append("no growth points")

        if structured:
            for p in self.growth:
                if p.is_infinity:
                    problems.append("growth point at infinity")
                elif self.domain == HALF_PLANE and abs(p.value.imag) > BOUNDARY_TOL:
                    problems.append(f"growth point {p} not on the real axis")
                elif self.domain == DISK and abs(abs(p.value) - 1.0) > BOUNDARY_TOL:
                    problems.append(f"growth point {p} not on the unit circle")

        points = [p for p, _ in self.weighted_points()]
        problems.extend(
            f"points {a} and {b} coincide"
            for i, a in enumerate(points)
            for b in points[i + 1 :]
            if _chordal_distance(a, b) <= DISTINCT_TOL
        )

        if structured:
            # Marked multiset must be closed under the domain reflection, with
            # matching charges; growth points must be fixed by it (they sit on
            # the boundary, checked above).
            problems.extend(
                f"marked point {q} (charge {s}) has no symmetry partner"
                for (q, s), k in zip(self.marked, _partners(self.domain, self.marked))
                if k is None
            )

        total = self.charge_sum()
        if total != -2 if isinstance(total, Fraction) else abs(total + 2.0) > NEUTRALITY_TOL:
            problems.append(f"total charge {total} != -2")

        if problems:
            error = DegenerateConfigurationError(f"invalid divisor: {'; '.join(problems)}")
            error.problems = tuple(problems)
            raise error

    @classmethod
    def build(cls, domain: str, growth: Iterable, marked: Iterable) -> "SymmetricDivisor":
        g = tuple(SpherePoint.of(p) for p in growth)
        m = tuple((SpherePoint.of(p), as_charge(s)) for p, s in marked)
        return cls(domain, g, m)

    @classmethod
    def half_plane(cls, growth: Iterable, marked: Iterable) -> "SymmetricDivisor":
        return cls.build(HALF_PLANE, growth, marked)

    @classmethod
    def disk(cls, growth: Iterable, marked: Iterable) -> "SymmetricDivisor":
        return cls.build(DISK, growth, marked)

    def weighted_points(self) -> list[tuple[SpherePoint, float]]:
        """All divisor points with their charges, growth first."""
        pts = [(p, 1.0) for p in self.growth]
        pts.extend((q, float(s)) for q, s in self.marked)
        return pts

    def finite_marked(self) -> tuple[list[complex], list[float]]:
        """Positions and float charges of the finite marked points, in order;
        on the half-plane exact mirrors, as the flow keeps them: a point its
        own mirror is real, and the lower point of a pair is the conjugate of
        the upper one, with its charge."""
        points = [q.value for q, _ in self.marked]
        charges = [float(s) for _, s in self.marked]
        if self.domain == HALF_PLANE:
            for i, k in enumerate(_partners(self.domain, self.marked)):
                if k == i:
                    points[i] = complex(points[i].real)
                elif k is not None and points[i].imag < points[k].imag:
                    points[i], charges[i] = points[k].conjugate(), charges[k]
        finite = [(z, s) for z, s, (q, _) in zip(points, charges, self.marked) if q.finite]
        return [q for q, _ in finite], [s for _, s in finite]

    def charge_sum(self) -> Fraction | float:
        """Total charge: a Fraction when every charge is exact, else a float."""
        charges = [s for _, s in self.marked]
        if any(isinstance(s, float) for s in charges):
            return len(self.growth) + math.fsum(float(s) for s in charges)
        return sum(charges, Fraction(len(self.growth)))


def partition_Z_log_abs(points: Iterable) -> float:
    """log |Z| for ``(point, charge)`` pairs, such as ``weighted_points()``.

    Z = prod_{i<j} (z_i - z_j)^(2 s_i s_j) over the finite points, factors
    at infinity dropped: the Coulomb correlation in the standard chart, and
    with growth charges +1 the partition function. Points are anything
    ``SpherePoint.of`` takes.
    """
    pts = [(SpherePoint.of(p), float(s)) for p, s in points]
    pts = [(p.value, s) for p, s in pts if p.finite]
    terms = []
    for i in range(len(pts)):
        zi, si = pts[i]
        for j in range(i + 1, len(pts)):
            zj, sj = pts[j]
            d = abs(zi - zj)
            if d <= DISTINCT_TOL:
                raise DegenerateConfigurationError(
                    f"coincident points {zi} and {zj} in correlation"
                )
            terms.append(2.0 * si * sj * math.log(d))
    return math.fsum(terms)


def dlog_Z(
    x: Sequence[float], q: Sequence[complex], s: Sequence[float], rates: Sequence[float] | None = None
) -> list[float]:
    """Logarithmic derivatives of Z in every growth point; with growth
    ``rates`` nu, the driving velocities nu_j dlog_j Z + sum_{k != j} 2 nu_k/(x_j - x_k).

    Component j is sum_{k != j} 2/(x_j - x_k) + sum_l 2 s_l/(x_j - q_l), each
    term the derivative of the corresponding log factor of Z, for finite
    marked points ``q`` with charges ``s``. On the exact mirrors of
    ``finite_marked()`` the terms of a conjugate pair are conjugates and a
    real point's term is real, so the sum is real: each marked term adds its
    real part, which is the real part of the complex sum in the same order.

    Each sum runs over k, then l, in order. A pair's difference is taken
    once, for j < k: its quotients are both rows' terms, since
    c/(x_k - x_j) is the exact negative of c/(x_j - x_k). Every term adds
    up on a float.
    """
    c = [0.0] * len(x) if rates is None else [2.0 * r for r in rates]
    out = [0.0] * len(x)  # the pair terms of row j from k < j, added at k
    inter = [0.0] * len(x)  # and those of its inter-curve sum
    for j, xj in enumerate(x):
        total, across, cj = out[j], inter[j], c[j]
        for k in range(j + 1, len(x)):
            d = xj - x[k]
            if -DISTINCT_TOL <= d <= DISTINCT_TOL:
                raise DegenerateConfigurationError(f"growth points {xj} and {x[k]} coincide")
            v = 2.0 / d
            total += v
            out[k] -= v
            across += c[k] / d
            inter[k] -= cj / d
        if q:  # a flow with no finite marked point skips the empty loop
            for ql, sl in zip(q, s):
                d = xj - ql
                if abs(d) <= DISTINCT_TOL:
                    raise DegenerateConfigurationError(
                        f"growth point {xj} hits marked point {format_complex(ql)}"
                    )
                total += (2.0 * sl / d).real
        out[j] = total if rates is None else rates[j] * total + across
    return out


@dataclass(frozen=True)
class MoebiusMap:
    """z -> (a z + b) / (c z + d) with nonzero determinant."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        if abs(self.determinant) <= 1e-12:
            raise DegenerateConfigurationError("Moebius map is singular")

    @property
    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c

    def apply(self, p: Union[SpherePoint, complex]) -> SpherePoint:
        p = SpherePoint.of(p)
        if p.is_infinity:
            if self.c == 0:
                return INFINITY
            return SpherePoint(self.a / self.c)
        denom = self.c * p.value + self.d
        if denom == 0:
            return INFINITY
        return SpherePoint((self.a * p.value + self.b) / denom)

    def chart_log_derivative_abs(self, p: Union[SpherePoint, complex]) -> float:
        """log |derivative| in the standard charts (1/z at infinity, both
        ends), as a difference of logs: the derivative itself overflows for
        a point near 1e300."""
        p = SpherePoint.of(p)
        log_det = math.log(abs(self.determinant))
        if p.is_infinity:
            if self.c == 0:
                return math.log(abs(self.d)) - math.log(abs(self.a))
            return log_det - 2.0 * math.log(abs(self.c))
        image_denom = self.c * p.value + self.d
        if image_denom == 0:
            # image at infinity: derivative of 1/phi at the pole
            return 2.0 * math.log(abs(self.c)) - log_det
        return log_det - 2.0 * math.log(abs(image_denom))


def moebius_invariance_gap(points: Iterable, m: MoebiusMap) -> float:
    """Defect of the covariance identity for the correlation under ``m``.

    For ``(point, charge)`` pairs, such as ``weighted_points()``, returns
    |log|C[image]| + sum_j lambda_j log|D_j| - log|C[points]|| where the
    image maps every point and keeps its charge, and D_j is the
    chart-corrected derivative at each point. Zero, up to rounding, when the
    charges sum to -2; a map that sends two points together raises
    ``DegenerateConfigurationError``.
    """
    points = list(points)
    lhs = partition_Z_log_abs((m.apply(p), s) for p, s in points)
    for p, s in points:
        lhs += conformal_dimension(s) * m.chart_log_derivative_abs(p)
    return abs(lhs - partition_Z_log_abs(points))


def format_complex(z: complex) -> str:
    """Render a complex number as 'a+bi' with round-trip precision."""
    re, im = z.real, z.imag
    if im == 0:
        return repr(re)
    if re == 0:
        return f"{im!r}i"
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' notation (also plain reals and 'i'/'-i')."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    js = s[:-1] + "j" if s.endswith("i") else s
    if js in ("j", "+j"):
        js = "1j"
    elif js == "-j":
        js = "-1j"
    else:
        # 'a+i' / 'a-i' with unit imaginary part
        if js.endswith(("+j", "-j")):
            js = js[:-1] + "1j"
    try:
        z = complex(js)
    except ValueError as exc:
        raise ValueError(f"invalid complex literal {text!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"complex literal {text!r} is not finite")
    return z


def parse_point(text: str) -> SpherePoint:
    s = text.strip().lower()
    if s in ("inf", "infinity", "oo"):
        return INFINITY
    return SpherePoint(parse_complex(text))
