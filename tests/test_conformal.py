"""Disk/half-plane transport of points and divisors, and the differential
of the transported divisor."""

import cmath
import math
import random

import pytest

from conftest import disk_divisor, half_plane_divisor, mod_pi_gap, q_value
from slezero.conformal import (
    DomainMap,
    map_divisor,
    map_point,
    transport,
    transport_map,
)
from slezero.divisors import (
    DISK,
    HALF_PLANE,
    INFINITY,
    SymmetricDivisor,
    validate,
)
from slezero.errors import DegenerateConfigurationError, InvalidReferenceError
from slezero.quadratic import build_Q, direction_field
from slezero.scene import preset


class TestCanonicalMaps:
    def test_disk_to_half_plane_values(self):
        dm = DomainMap.disk_to_half_plane()
        assert dm.pole.value == pytest.approx(1.0)
        assert map_point(dm, -1.0).value == pytest.approx(0.0, abs=1e-12)
        assert map_point(dm, 1j).value == pytest.approx(-1.0, abs=1e-12)
        assert map_point(dm, -1j).value == pytest.approx(1.0, abs=1e-12)
        assert map_point(dm, 0.0).value == pytest.approx(1j, abs=1e-12)
        assert map_point(dm, 1.0).is_infinity

    def test_half_plane_to_disk_values(self):
        dm = DomainMap.half_plane_to_disk()
        assert dm.pole.value == pytest.approx(-1j)
        assert map_point(dm, INFINITY).value == pytest.approx(1.0, abs=1e-12)
        assert map_point(dm, 1j).value == pytest.approx(0.0, abs=1e-12)
        assert map_point(dm, 0.0).value == pytest.approx(-1.0, abs=1e-12)

    def test_inverse_roundtrip(self):
        rng = random.Random(121)
        dm = DomainMap.disk_to_half_plane(rotation=0.7)
        inv = dm.inverse()
        assert inv.source == HALF_PLANE and inv.target == DISK
        for _ in range(20):
            z = 0.9 * cmath.exp(2j * math.pi * rng.random()) * rng.random()
            w = map_point(dm, z)
            back = map_point(inv, w.value)
            assert back.value == pytest.approx(z, abs=1e-12)

    def test_boundary_maps_to_boundary(self):
        dm = DomainMap.disk_to_half_plane(rotation=0.3)
        for k in range(12):
            w = map_point(dm, cmath.exp(1j * (0.5 + k)))
            if w.finite:
                assert abs(w.value.imag) < 1e-9
        dm2 = DomainMap.half_plane_to_disk()
        for x in (-3.0, -1.0, 0.0, 2.0, 7.5):
            w = map_point(dm2, x)
            assert abs(abs(w.value) - 1.0) < 1e-12


class TestTransport:
    def test_same_domain_rejected(self):
        div = SymmetricDivisor.half_plane([0.0], [("inf", -3)])
        with pytest.raises(InvalidReferenceError):
            transport(div, HALF_PLANE)

    def test_sphere_tag_rejected(self):
        div = SymmetricDivisor.build("sphere", [0.0], [("inf", -3)])
        with pytest.raises(InvalidReferenceError):
            transport(div, DISK)

    def test_half_plane_pole_blocked_by_conjugate_pair(self):
        # the conjugate partner of a marked point at i sits exactly at the
        # half-plane map pole -i, which cannot be rotated away
        div = SymmetricDivisor.half_plane([0.0], [(1j, -1), (-1j, -1), ("inf", -1)])
        with pytest.raises(DegenerateConfigurationError):
            transport_map(div, DISK)

    def test_disk_pole_rotates_away(self):
        # a growth point at w = 1 blocks the standard map; transport succeeds
        # via rotation and keeps every image finite
        div = SymmetricDivisor.disk([1.0, -1.0], [(0.0, -2), ("inf", -2)])
        image, dm = transport(div, HALF_PLANE)
        assert dm.pole.finite
        assert all(p.finite for p in image.growth)
        assert validate(image).ok

    def test_random_divisors_roundtrip(self):
        rng = random.Random(232)
        for _ in range(15):
            div = half_plane_divisor(rng)
            try:
                image, dm = transport(div, DISK)
            except DegenerateConfigurationError:
                continue  # conjugate pair at the fixed pole -i
            assert image.domain == DISK
            assert validate(image).ok
            back = map_divisor(dm.inverse(), image)
            assert back.domain == HALF_PLANE
            for p, q in zip(div.growth, back.growth):
                assert q.value == pytest.approx(p.value, abs=1e-9)
            for (p, s), (q, t) in zip(div.marked, back.marked):
                assert s == t
                if p.is_infinity:
                    assert q.is_infinity
                else:
                    assert q.value == pytest.approx(p.value, abs=1e-9)

    def test_disk_divisors_transport_clean(self):
        rng = random.Random(343)
        for _ in range(15):
            div = disk_divisor(rng)
            image, dm = transport(div, HALF_PLANE)
            assert validate(image).ok
            assert all(abs(p.value.imag) < 1e-12 for p in image.growth)

    def test_map_divisor_domain_mismatch(self):
        div = SymmetricDivisor.half_plane([0.0], [("inf", -3)])
        with pytest.raises(InvalidReferenceError):
            map_divisor(DomainMap.disk_to_half_plane(), div)

    def test_marked_infinity_returns_from_the_disk(self):
        # the disk pair {0, inf} becomes a conjugate pair and comes back
        div = preset("fig2").divisor
        image, dm = transport(div, HALF_PLANE)
        values = sorted(
            (str(p), str(s)) for p, s in image.marked
        )
        assert ("1.0i", "-1") in values and ("-1.0i", "-1") in values
        back = map_divisor(dm.inverse(), image)
        kinds = {("inf" if p.is_infinity else "finite", str(s)) for p, s in back.marked}
        assert ("inf", "-1") in kinds


def moebius_derivative(dm: DomainMap, z: complex) -> complex:
    m = dm.moebius
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
        image, dm = transport(div, HALF_PLANE)
        qh = build_Q(image)
        ratios = []
        while len(ratios) < 12:
            z = (0.2 + 0.7 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
            w = map_point(dm, z)
            if not w.finite or w.value.imag < 0.05:
                continue
            dphi = moebius_derivative(dm, z)
            ratios.append(abs(q_value(qh, w.value)) * abs(dphi) ** 2 / abs(q_value(qd, z)))
        for r in ratios[1:]:
            assert r == pytest.approx(ratios[0], rel=1e-9)

    def test_direction_covariance_mod_pi(self):
        # the image field pulls back onto the source field up to sign
        rng = random.Random(565)
        div = preset("fig3").divisor
        qd = build_Q(div)
        image, dm = transport(div, HALF_PLANE)
        qh = build_Q(image)
        checked = 0
        while checked < 12:
            z = (0.2 + 0.7 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
            w = map_point(dm, z)
            if not w.finite or w.value.imag < 0.05:
                continue
            u_src = direction_field(qd, z)
            u_img = direction_field(qh, w.value)
            pushed = moebius_derivative(dm, z) * u_src
            assert mod_pi_gap(cmath.phase(u_img), cmath.phase(pushed)) < 1e-9
            checked += 1
