"""Differential assembly, phase normalization, and the horizontal field."""

import cmath
import math
import random

import pytest

from conftest import disk_divisor, half_plane_divisor, mod_pi_gap, q_value, signed_field
from slezero.divisors import HALF_PLANE, SymmetricDivisor
from slezero.errors import (
    DegenerateConfigurationError,
    SingularityProximityError,
    UnsupportedChargeError,
)
from slezero.quadratic import (
    QuadDifferential,
    build_Q,
    direction_field,
    normalize_phase,
    pullback,
)
from slezero.scene import preset


def single_curve_qd() -> QuadDifferential:
    div = SymmetricDivisor.half_plane([0.0], [("inf", -3)])
    return build_Q(div)


def reference_singularities(qd: QuadDifferential) -> list:
    """(point, order, angles) of every factor point, the leading coefficient's
    argument summed term by term: 2 arg(phase) + sum_{k != i} order_k arg(p_i - p_k)."""
    out = []
    for i, (p, order) in enumerate(qd.factors):
        arg_a = 2.0 * cmath.phase(qd.phase)
        for k, (pk, order_k) in enumerate(qd.factors):
            if k != i:
                arg_a += order_k * cmath.phase(p - pk)
        if order > 0:
            count = order + 2
            angles = [((2.0 * math.pi * k - arg_a) / count) % (2.0 * math.pi) for k in range(count)]
        elif order <= -3:
            count = -order - 2
            angles = [((arg_a + 2.0 * math.pi * k) / count) % (2.0 * math.pi) for k in range(count)]
        else:
            angles = []
        out.append((p, order, tuple(a.hex() for a in sorted(angles))))
    return out


class TestAssembly:
    def test_single_curve_is_z_squared(self):
        qd = single_curve_qd()
        assert qd.factors == ((0j, 2),)
        assert qd.phase == pytest.approx(1.0)
        assert qd.infinity_order == -6
        assert abs(q_value(qd, 2j)) == pytest.approx(4.0)

    def test_first_preset_orders(self):
        qd = build_Q(preset("fig1").divisor)
        assert qd.n_growth == 3
        assert [o for _, o in qd.factors] == [2, 2, 2, -2, -8]
        assert [info.order for info in qd.singularities] == [2, 2, 2, -2, -8]
        assert qd.singularities[4].point == -1.0
        assert qd.infinity_order == 0
        assert len(qd.growth_points) == 3
        assert len(qd.marked_factors) == 2

    def test_factor_points_within_proximity_rejected(self):
        # the line field at each factor point leaves only that point's own factor out
        with pytest.raises(DegenerateConfigurationError, match="0.0 and 1e-11"):
            QuadDifferential(HALF_PLANE, ((0j, 2), (1e-11 + 0j, 2)), 2)

    def test_marked_point_at_infinity_has_no_factor(self):
        qd = single_curve_qd()
        assert all(p != cmath.inf for p, _ in qd.factors)
        # induced order keeps the sphere total at -4
        assert sum(o for _, o in qd.factors) + qd.infinity_order == -4

    def test_non_half_integer_charge_rejected(self):
        div = SymmetricDivisor.half_plane(
            [0.0], [(2.0, "-5/3"), ("inf", "-4/3")]
        )
        with pytest.raises(UnsupportedChargeError):
            build_Q(div)

    def test_invalid_divisor_rejected(self):
        # refused where it is made, before build_Q could take it
        with pytest.raises(DegenerateConfigurationError, match="invalid divisor: total charge -4 != -2"):
            SymmetricDivisor.half_plane([0.0], [("inf", -5)])

    def test_sphere_tagged_divisor_rejected(self):
        with pytest.raises(DegenerateConfigurationError, match="invalid divisor: unknown domain 'sphere'"):
            SymmetricDivisor.build("sphere", [0.0], [("inf", -3)])


class TestPhase:
    # angles of the published normalization constants, identified mod pi
    EXPECTED = {
        "fig1": math.atan2(-0.5003, 0.8662),
        "fig2": cmath.phase(complex(-1.2071, -0.5)),
        "fig3": cmath.phase(1j * cmath.exp(-1j * math.pi / 6.0)),
    }

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
    def test_preset_phase_constants(self, name):
        qd = build_Q(preset(name).divisor)
        assert mod_pi_gap(cmath.phase(qd.phase), self.EXPECTED[name]) < 2e-3

    def test_exact_angles(self):
        # the rounded constants above hide exact eighths and thirds of pi
        assert mod_pi_gap(
            cmath.phase(build_Q(preset("fig2").divisor).phase), math.pi / 8.0
        ) < 1e-12
        assert mod_pi_gap(
            cmath.phase(build_Q(preset("fig3").divisor).phase), math.pi / 3.0
        ) < 1e-12
        assert mod_pi_gap(
            cmath.phase(build_Q(preset("fig1").divisor).phase), -math.pi / 6.0
        ) < 1e-12

    def test_unimodular(self):
        for name in ("fig1", "fig2", "fig3"):
            qd = build_Q(preset(name).divisor)
            assert abs(qd.phase) == pytest.approx(1.0, abs=1e-12)

    def test_renormalizing_is_identity(self):
        qd = build_Q(preset("fig1").divisor)
        assert normalize_phase(qd) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_arc_is_horizontal(self):
        # the field on the reference arc must be parallel to the boundary
        rng = random.Random(111)
        for _ in range(10):
            div = half_plane_divisor(rng)
            qd = build_Q(div)
            xs = sorted(p.real for p, _ in qd.factors if abs(p.imag) < 1e-9)
            if len(xs) >= 2:  # leftmost finite segment is the reference arc
                probe = complex((xs[0] + xs[1]) / 2.0)
            else:
                probe = complex(xs[0] + 1.0)
            u = direction_field(qd, probe)
            assert abs(u.imag) < 1e-9
        for name in ("fig1", "fig2", "fig3"):
            qd = build_Q(preset(name).divisor)
            circle_pts = sorted(
                cmath.phase(p) % (2 * math.pi)
                for p, _ in qd.factors
                if abs(abs(p) - 1.0) < 1e-9
            )
            a, b = circle_pts[0], circle_pts[1]
            mid = cmath.exp(1j * (a + ((b - a) % (2 * math.pi)) / 2.0))
            u = direction_field(qd, mid)
            tangent = 1j * mid
            cross = u.real * tangent.imag - u.imag * tangent.real
            assert abs(cross) < 1e-9


class TestDirectionField:
    def test_single_curve_frozen_directions(self):
        qd = single_curve_qd()
        assert direction_field(qd, 1j) == pytest.approx(1j, abs=1e-12)
        assert direction_field(qd, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert direction_field(qd, 1 + 1j) == pytest.approx(
            cmath.exp(0.75j * math.pi), abs=1e-12
        )

    def test_previous_direction_resolves_sign(self):
        qd = single_curve_qd()
        assert signed_field(qd, 1j, -1j) == pytest.approx(-1j, abs=1e-12)
        assert signed_field(qd, 1j, 1j) == pytest.approx(1j, abs=1e-12)

    def test_sign_continuity_along_paths(self):
        rng = random.Random(222)
        for name in ("fig1", "fig2", "fig3"):
            qd = build_Q(preset(name).divisor)
            for _ in range(10):
                # short random walk; consecutive field samples never flip
                z = 0.4 * cmath.exp(2j * math.pi * rng.random())
                u = None
                for _ in range(40):
                    try:
                        u_new = direction_field(qd, z) if u is None else signed_field(qd, z, u)
                    except SingularityProximityError:
                        break
                    if u is not None:
                        dot = u.real * u_new.real + u.imag * u_new.imag
                        assert dot > 0.0
                    u = u_new
                    z += 0.01 * u * cmath.exp(0.2j * (rng.random() - 0.5))

    def test_proximity_guard(self):
        qd = single_curve_qd()
        with pytest.raises(SingularityProximityError):
            direction_field(qd, 1e-12 + 0j)

    def test_field_squares_positive(self):
        # Q(z) u(z)^2 must land on the positive axis for every sample
        rng = random.Random(333)
        qd = build_Q(preset("fig2").divisor)
        checked = 0
        while checked < 25:
            z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if abs(z) > 0.95:
                continue
            try:
                u = direction_field(qd, z)
            except SingularityProximityError:
                continue
            angle = cmath.phase(q_value(qd, z) * u * u)
            assert abs(angle) < 1e-9
            checked += 1


class TestClassification:
    def test_growth_zero_has_four_separatrices(self):
        info = single_curve_qd().singularities[0]
        assert info.order == 2
        assert info.angles == pytest.approx(
            (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi), abs=1e-12
        )

    def test_first_preset_pole_directions(self):
        infos = {i.point: i for i in build_Q(preset("fig1").divisor).singularities}
        pole = infos[-1.0 + 0j]
        assert pole.order == -8
        assert len(pole.angles) == 6
        diffs = [
            (pole.angles[(k + 1) % 6] - pole.angles[k]) % (2.0 * math.pi)
            for k in range(6)
        ]
        assert diffs == pytest.approx([math.pi / 3.0] * 6, abs=1e-9)
        assert pole.angles[0] == pytest.approx(math.pi / 6.0, abs=1e-9)

    def test_low_order_poles_have_no_directions(self):
        infos = {i.point: i for i in build_Q(preset("fig1").divisor).singularities}
        double_pole = infos[cmath.exp(2j * math.pi / 3.0)]
        assert double_pole.order == -2
        assert double_pole.angles == ()

    def test_third_order_pole_has_one_direction(self):
        infos = {i.point: i for i in build_Q(preset("fig3").divisor).singularities}
        assert len(infos[0.5 + 0j].angles) == 1

    def test_table_matches_the_leading_coefficient_bit_for_bit(self):
        rng = random.Random(1212)
        divisors = [preset(name).divisor for name in ("fig1", "fig2", "fig3")]
        divisors += [half_plane_divisor(rng) for _ in range(200)]
        divisors += [disk_divisor(rng) for _ in range(200)]
        for divisor in divisors:
            qd = build_Q(divisor)
            got = [(s.point, s.order, tuple(a.hex() for a in s.angles)) for s in qd.singularities]
            assert got == reference_singularities(qd)


class TestPullback:
    def test_identity_mapper(self):
        qd = build_Q(preset("fig1").divisor)
        same = pullback(qd, lambda z: z)
        assert same.factors == qd.factors
        assert same.phase == pytest.approx(qd.phase, abs=1e-12)

    def test_translation_moves_factors(self):
        qd = single_curve_qd()
        moved = pullback(qd, lambda z: z + 2.0)
        assert moved.factors == ((2.0 + 0j, 2),)

    def test_collapsing_mapper_rejected(self):
        qd = build_Q(preset("fig1").divisor)
        with pytest.raises(DegenerateConfigurationError):
            pullback(qd, lambda z: 0j)
