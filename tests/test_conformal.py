"""Disk-to-half-plane transport of divisors, and the differential of the
transported divisor."""

import cmath
import math
import random

import pytest

from conftest import disk_divisor, mod_pi_gap, q_value
from slezero.conformal import transport
from slezero.divisors import (
    DISK,
    HALF_PLANE,
    MoebiusMap,
    SymmetricDivisor,
)
from slezero.errors import DegenerateConfigurationError, InvalidReferenceError
from slezero.quadratic import build_Q, direction_field
from slezero.scene import preset

# no divisor point at w = 1, so the standard map is used
UNBLOCKED = SymmetricDivisor.disk([-1.0], [(0.0, "-3/2"), ("inf", "-3/2")])
# a growth point at w = 1 blocks the standard map
BLOCKED = SymmetricDivisor.disk([1.0, -1.0], [(0.0, -2), ("inf", -2)])


def inverse(m: MoebiusMap) -> MoebiusMap:
    return MoebiusMap(m.d, -m.b, -m.c, m.a)


class TestCanonicalMaps:
    def test_disk_to_half_plane_values(self):
        _, m = transport(UNBLOCKED, HALF_PLANE)
        assert -m.d / m.c == pytest.approx(1.0)
        assert m.apply(-1.0).value == pytest.approx(0.0, abs=1e-12)
        assert m.apply(1j).value == pytest.approx(-1.0, abs=1e-12)
        assert m.apply(-1j).value == pytest.approx(1.0, abs=1e-12)
        assert m.apply(0.0).value == pytest.approx(1j, abs=1e-12)
        assert m.apply(1.0).is_infinity

    def test_inverse_roundtrip(self):
        rng = random.Random(121)
        _, m = transport(BLOCKED, HALF_PLANE)
        inv = inverse(m)
        for _ in range(20):
            z = 0.9 * cmath.exp(2j * math.pi * rng.random()) * rng.random()
            w = m.apply(z)
            back = inv.apply(w.value)
            assert back.value == pytest.approx(z, abs=1e-12)

    def test_boundary_maps_to_boundary(self):
        for div in (UNBLOCKED, BLOCKED):
            _, m = transport(div, HALF_PLANE)
            for k in range(12):
                w = m.apply(cmath.exp(1j * (0.5 + k)))
                if w.finite:
                    assert abs(w.value.imag) < 1e-9


class TestTransport:
    def test_same_domain_rejected(self):
        # only disk -> half-plane exists; every other pair is refused
        half_plane = SymmetricDivisor.half_plane([0.0], [("inf", -3)])
        for div, target in ((half_plane, HALF_PLANE), (half_plane, DISK), (UNBLOCKED, DISK)):
            with pytest.raises(InvalidReferenceError, match="no transport from"):
                transport(div, target)

    def test_sphere_tag_rejected(self):
        # no divisor on another domain can be made, so none reaches transport
        with pytest.raises(DegenerateConfigurationError, match="invalid divisor: unknown domain 'sphere'"):
            SymmetricDivisor.build("sphere", [0.0], [("inf", -3)])

    def test_disk_pole_rotates_away(self):
        # the standard pole w = 1 is a growth point; the rotated map's pole
        # -d/c lies away from every divisor point and keeps the images finite
        image, m = transport(BLOCKED, HALF_PLANE)
        pole = -m.d / m.c
        assert abs(abs(pole) - 1.0) < 1e-12
        for p, _ in BLOCKED.weighted_points():
            assert p.is_infinity or abs(p.value - pole) > 0.5
        assert all(p.finite for p in image.growth)

    def test_random_divisors_roundtrip(self):
        rng = random.Random(232)
        for _ in range(15):
            div = disk_divisor(rng)
            image, m = transport(div, HALF_PLANE)
            # the image is a SymmetricDivisor, so it is admissible
            assert image.domain == HALF_PLANE
            inv = inverse(m)
            assert len(image.growth) == len(div.growth)
            assert len(image.marked) == len(div.marked)
            for p, q in zip(div.growth, image.growth):
                assert inv.apply(q).value == pytest.approx(p.value, abs=1e-9)
            # the generator's marked points are all finite
            for (p, s), (q, t) in zip(div.marked, image.marked):
                assert s == t
                assert inv.apply(q).value == pytest.approx(p.value, abs=1e-9)

    def test_disk_divisors_transport_clean(self):
        rng = random.Random(343)
        for _ in range(15):
            div = disk_divisor(rng)
            image, _ = transport(div, HALF_PLANE)
            assert all(abs(p.value.imag) < 1e-12 for p in image.growth)

    def test_marked_infinity_returns_from_the_disk(self):
        # the disk pair {0, inf} becomes a conjugate pair and comes back
        div = preset("fig2").divisor
        image, m = transport(div, HALF_PLANE)
        values = sorted(
            (str(p), str(s)) for p, s in image.marked
        )
        assert ("1.0i", "-1") in values and ("-1.0i", "-1") in values
        inv = inverse(m)
        kinds = {("inf" if inv.apply(p).is_infinity else "finite", str(s)) for p, s in image.marked}
        assert ("inf", "-1") in kinds


def moebius_derivative(m: MoebiusMap, z: complex) -> complex:
    denom = m.c * z + m.d
    return m.determinant / (denom * denom)


class TestDifferentialTransport:
    """build_Q of the transported divisor is Q dz^2 carried by the map."""

    def test_fig2_factor_bookkeeping(self):
        qd = build_Q(preset("fig2").divisor)
        # induced order -2 at the disk infinity must reappear as a factor
        assert qd.infinity_order == -2
        qh = build_Q(transport(preset("fig2").divisor, HALF_PLANE)[0])
        assert qh.domain == HALF_PLANE
        assert qh.n_growth == 3
        assert sorted(o for _, o in qh.marked_factors) == [-6, -2, -2]
        assert qh.infinity_order == 0

    def test_magnitude_covariance_ratio_is_constant(self):
        # |Q_image(phi(z))| * |phi'(z)|^2 / |Q(z)| must not depend on z
        rng = random.Random(454)
        div = preset("fig1").divisor
        qd = build_Q(div)
        image, m = transport(div, HALF_PLANE)
        qh = build_Q(image)
        ratios = []
        while len(ratios) < 12:
            z = (0.2 + 0.7 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
            w = m.apply(z)
            if not w.finite or w.value.imag < 0.05:
                continue
            dphi = moebius_derivative(m, z)
            ratios.append(abs(q_value(qh, w.value)) * abs(dphi) ** 2 / abs(q_value(qd, z)))
        for r in ratios[1:]:
            assert r == pytest.approx(ratios[0], rel=1e-9)

    def test_direction_covariance_mod_pi(self):
        # the image field pulls back onto the source field up to sign
        rng = random.Random(565)
        div = preset("fig3").divisor
        qd = build_Q(div)
        image, m = transport(div, HALF_PLANE)
        qh = build_Q(image)
        checked = 0
        while checked < 12:
            z = (0.2 + 0.7 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
            w = m.apply(z)
            if not w.finite or w.value.imag < 0.05:
                continue
            u_src = direction_field(qd, z)
            u_img = direction_field(qh, w.value)
            pushed = moebius_derivative(m, z) * u_src
            assert mod_pi_gap(cmath.phase(u_img), cmath.phase(pushed)) < 1e-9
            checked += 1
