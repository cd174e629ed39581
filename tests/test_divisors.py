"""Divisor validation, correlation values, and Moebius covariance."""

import math
import random
from fractions import Fraction

import pytest

from conftest import (
    disk_divisor,
    half_plane_divisor,
    random_moebius,
    real_moebius,
)
from slezero import runner
from slezero.conformal import transport
from slezero.divisors import (
    DISK,
    HALF_PLANE,
    INFINITY,
    MoebiusMap,
    SpherePoint,
    SymmetricDivisor,
    as_charge,
    conformal_dimension,
    dlog_Z,
    format_complex,
    moebius_invariance_gap,
    parse_complex,
    parse_point,
    partition_Z_log_abs,
)
from slezero.errors import DegenerateConfigurationError
from slezero.scene import PRESET_NAMES, preset


def product_oracle(points):
    """|Z| by direct multiplication of the pair factors (no log-space)."""
    pts = []
    for q, s in points:
        p = SpherePoint.of(q)
        if p.finite:
            pts.append((p.value, float(as_charge(s))))
    result = 1.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            zi, si = pts[i]
            zj, sj = pts[j]
            result *= abs(zi - zj) ** (2.0 * si * sj)
    return result


class TestPartitionFunction:
    def test_two_curve_conjugate_pair_value(self):
        # |x1-x2|^2 = 4, |q-conj(q)|^2 = 4, four cross factors |sqrt2|^-2 each
        points = ((0.0, 1), (2.0, 1), (1 + 1j, -1), (1 - 1j, -1))
        assert math.exp(partition_Z_log_abs(points)) == pytest.approx(1.0, rel=1e-12)
        assert partition_Z_log_abs(points) == pytest.approx(0.0, abs=1e-12)

    def test_single_curve_conjugate_pair_value(self):
        points = ((0.0, 1), (1j, -1), (-1j, -1), ("inf", -1))
        assert math.exp(partition_Z_log_abs(points)) == pytest.approx(4.0, rel=1e-12)

    def test_factors_at_infinity_are_dropped(self):
        base = ((0.0, 1), (2.0, 1), (1 + 1j, -1), (1 - 1j, -1))
        assert partition_Z_log_abs(base + (("inf", -2),)) == pytest.approx(
            partition_Z_log_abs(base), abs=0
        )
        # growth points too, as a Moebius image can carry one to infinity
        assert partition_Z_log_abs((("inf", 1),) + base) == partition_Z_log_abs(base)

    def test_matches_product_oracle(self):
        rng = random.Random(101)
        for _ in range(25):
            points = half_plane_divisor(rng).weighted_points()
            got = partition_Z_log_abs(points)
            want = product_oracle(points)
            assert math.exp(got) == pytest.approx(want, rel=1e-9)

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            partition_Z_log_abs(((0.0, 1), (0.0, 1)))


class TestDlogZ:
    def test_closed_form_attracting_pair(self):
        # symmetric pair straddling a charge -2 at the origin
        div = SymmetricDivisor.half_plane([-1.0, 1.0], [(0.0, -2), ("inf", -2)])
        assert div.finite_marked() == ([0j], [-2.0])
        got = dlog_Z([-1.0, 1.0], *div.finite_marked())
        assert got == pytest.approx([3.0, -3.0], abs=1e-14)

    def test_matches_finite_difference(self):
        rng = random.Random(202)
        h = 1e-6
        for _ in range(50):
            div = half_plane_divisor(rng)
            x = [p.value.real for p in div.growth]
            j = rng.randrange(len(x))
            points = div.weighted_points()
            up = list(points)
            dn = list(points)
            up[j] = (x[j] + h, 1.0)
            dn[j] = (x[j] - h, 1.0)
            fd = (partition_Z_log_abs(up) - partition_Z_log_abs(dn)) / (2.0 * h)
            got = dlog_Z(x, *div.finite_marked())[j]
            assert got == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_growth_collision_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            dlog_Z((0.0, 1e-13), (), ())

    def test_a_pair_listed_apart_sums_its_real_parts(self):
        # the pair 3e-7 from a driving point: its terms are about 1e7, so their
        # imaginary parts leave a residue of rounding in a complex sum unless
        # they are added next to each other
        x, s, rates = [0.5000001, -2.0], [-1.0] * 4, [1.0, 1.0]
        apart = dlog_Z(x, [0.5 + 3e-7j, 3 + 1j, 0.5 - 3e-7j, 3 - 1j], s, rates)
        adjacent = dlog_Z(x, [0.5 + 3e-7j, 0.5 - 3e-7j, 3 + 1j, 3 - 1j], s, rates)
        assert apart == pytest.approx(adjacent, rel=1e-12, abs=0)


class TestValidate:
    """Admissibility is checked where a divisor is made: a divisor that
    breaks a rule cannot be made."""

    def test_presets_are_admissible(self):
        for name in PRESET_NAMES:
            preset(name)

    def test_neutrality_exact_for_half_integers(self):
        # 1 growth + (-1) + (-3/2) + (-1/2) = -2 exactly
        SymmetricDivisor.half_plane([0.0], [(2.0, -1), (3.0, "-3/2"), ("inf", "-1/2")])
        with pytest.raises(DegenerateConfigurationError, match="total charge -5/2 != -2"):
            SymmetricDivisor.half_plane([0.0], [(2.0, -1), (3.0, "-3/2"), ("inf", "-1")])

    def test_neutrality_tolerance_for_raw_reals(self):
        SymmetricDivisor.half_plane([0.0], [(2.0, -3.0 + 5e-11)])
        with pytest.raises(DegenerateConfigurationError, match="total charge -1.999999999 != -2"):
            SymmetricDivisor.half_plane([0.0], [(2.0, -3.0 + 1e-9)])

    def test_growth_must_sit_on_boundary(self):
        with pytest.raises(DegenerateConfigurationError, match="growth point 0.5i not on the real axis"):
            SymmetricDivisor.half_plane([0.5j], [("inf", -3)])
        with pytest.raises(DegenerateConfigurationError, match="growth point 0.5 not on the unit circle"):
            SymmetricDivisor.disk([0.5], [("inf", -2), (0.0, -2)])

    def test_marked_points_need_symmetry_partners(self):
        with pytest.raises(DegenerateConfigurationError, match=r"marked point 1\.0\+1\.0i \(charge -1\) has no symmetry partner"):
            SymmetricDivisor.half_plane([0.0], [(1 + 1j, -1), ("inf", -2)])
        SymmetricDivisor.half_plane([0.0], [(1 + 1j, -1), (1 - 1j, -1), ("inf", -1)])

    def test_the_flow_reads_exact_mirrors(self):
        # a point on the axis within SYMMETRY_TOL reads as real, and of a pair
        # conjugate within it the point below reads as the conjugate of the
        # one above, whichever comes first
        div = SymmetricDivisor.half_plane(
            [0.0], [(1.0 - 0.5j, -1), (0.3 + 1e-11j, "-1/2"), (1.0 + 0.5000000000000001j, -1), ("inf", "-1/2")]
        )
        q, s = div.finite_marked()
        assert q == [1.0 - 0.5000000000000001j, 0.3, 1.0 + 0.5000000000000001j] and s == [-1.0, -0.5, -1.0]
        assert q[1].imag == 0.0 and q[0] == q[2].conjugate()
        # and it takes the charge of the one above
        div = SymmetricDivisor.half_plane([0.0], [(1.0 - 0.5j, -1.0 - 4e-11), (1.0 + 0.5j, -1.0 + 4e-11), ("inf", -1)])
        assert div.finite_marked() == ([1.0 - 0.5j, 1.0 + 0.5j], [-1.0 + 4e-11] * 2)
        # fig3's disk pair -1/3, -3 comes out of the transport 1 ulp off
        flow = runner._flow_divisor(preset("fig3"))
        assert [p.value for p, _ in flow.marked][:2] == [0.5000000000000001j, -0.5j]
        assert flow.finite_marked()[0][:2] == [0.5000000000000001j, -0.5000000000000001j]
        rng = random.Random(404)
        for _ in range(20):
            q, _ = transport(disk_divisor(rng), HALF_PLANE)[0].finite_marked()
            assert sorted(q, key=lambda z: (z.real, z.imag)) == sorted(
                (z.conjugate() for z in q), key=lambda z: (z.real, z.imag)
            )

    def test_disk_inversion_pairs(self):
        q = 0.5 + 0.25j
        mirror = 1.0 / q.conjugate()
        SymmetricDivisor.disk([1.0], [(q, -1), (mirror, -1), (1j, -1)])
        with pytest.raises(DegenerateConfigurationError, match=r"marked point 0\.5\+0\.25i \(charge -1\) has no symmetry partner"):
            SymmetricDivisor.disk([1.0], [(q, -1), (mirror, -2), (1j, 0)])

    def test_origin_pairs_with_infinity_on_disk(self):
        SymmetricDivisor.disk([1.0, -1.0], [(0.0, -2), ("inf", -2)])

    def test_empty_growth_rejected(self):
        with pytest.raises(DegenerateConfigurationError, match="no growth points") as exc:
            SymmetricDivisor.half_plane([], [("inf", -2)])
        assert exc.value.problems == ("no growth points",)

    def test_coincident_points_reported(self):
        with pytest.raises(DegenerateConfigurationError, match="points 0.0 and 0.0 coincide"):
            SymmetricDivisor.half_plane([0.0, 0.0], [("inf", -4)])

    def test_points_coincide_by_their_chordal_distance(self):
        # a point near 1e300 is about 2e-300 from infinity on the sphere
        with pytest.raises(DegenerateConfigurationError, match=r"points 1e\+300 and inf coincide"):
            SymmetricDivisor.half_plane([0.0], [(1e300, -1), ("inf", -2)])
        # far from the origin, distinct values can be one point of the sphere
        with pytest.raises(DegenerateConfigurationError, match="coincide"):
            SymmetricDivisor.half_plane([1e6, 1e6 + 1e-3], [("inf", -4)])
        # and the one point at 1e300 is distinct from the points near 0
        SymmetricDivisor.half_plane([1e300], [(-0.6394905061257551, -3)])

    def test_random_generators_produce_valid_divisors(self):
        rng = random.Random(303)
        for _ in range(40):
            half_plane_divisor(rng)
            disk_divisor(rng)

    def test_every_problem_is_reported_in_order(self):
        with pytest.raises(DegenerateConfigurationError) as exc:
            SymmetricDivisor.half_plane([0.5j], [(1 + 1j, -3)])
        assert exc.value.problems == (
            "growth point 0.5i not on the real axis",
            "marked point 1.0+1.0i (charge -3) has no symmetry partner",
        )
        assert str(exc.value) == "invalid divisor: " + "; ".join(exc.value.problems)


class TestMoebius:
    def test_invariance_gap_half_plane(self):
        rng = random.Random(404)
        for _ in range(30):
            div = half_plane_divisor(rng)
            for make in (random_moebius, real_moebius):
                for _ in range(3):
                    try:
                        gap = moebius_invariance_gap(div.weighted_points(), make(rng))
                    except DegenerateConfigurationError:
                        continue
                    assert gap < 1e-9
                    break

    def test_invariance_gap_disk(self):
        rng = random.Random(505)
        for _ in range(30):
            div = disk_divisor(rng)
            for _ in range(3):
                try:
                    gap = moebius_invariance_gap(div.weighted_points(), random_moebius(rng))
                except DegenerateConfigurationError:
                    continue
                assert gap < 1e-9
                break

    def test_pushforward_swaps_zero_and_infinity(self):
        div = SymmetricDivisor.half_plane([1.0, 2.0], [(0.0, -2), ("inf", -2)])
        invert = MoebiusMap(0, 1, 1, 0)  # z -> 1/z
        image = [(invert.apply(p), s) for p, s in div.weighted_points()]
        assert [p.value for p, _ in image[:2]] == [1.0, 0.5]
        assert image[2][0].is_infinity
        assert image[3][0].value == 0
        assert [s for _, s in image] == [1.0, 1.0, -2.0, -2.0]

    def test_gap_vanishes_only_for_neutral_divisors(self):
        rng = random.Random(606)
        for _ in range(20):
            div = half_plane_divisor(rng)
            points = div.weighted_points()
            m = random_moebius(rng)
            assert moebius_invariance_gap(points, m) < 1e-9
            # the image's dimensions no longer balance once the total
            # charge is off -2
            n = len(div.growth)
            (q, s), *rest = points[n:]
            assert moebius_invariance_gap(points[:n] + [(q, s + 0.5), *rest], m) > 1e-3

    def test_collapsing_map_rejected(self):
        # z -> 1e-14 z: -1 and 1 land within DISTINCT_TOL of each other
        div = SymmetricDivisor.half_plane([-1.0, 1.0], [("inf", -4)])
        with pytest.raises(DegenerateConfigurationError, match="coincident points"):
            moebius_invariance_gap(div.weighted_points(), MoebiusMap(1e-7, 0, 0, 1e7))

    def test_singular_map_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            MoebiusMap(1, 2, 2, 4)

    def test_inverse_roundtrip(self):
        rng = random.Random(707)
        for _ in range(20):
            m = random_moebius(rng)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = m.apply(z)
            back = MoebiusMap(m.d, -m.b, -m.c, m.a).apply(w)
            assert back.finite and back.value == pytest.approx(z, abs=1e-9)


class TestConformalDimension:
    def test_values(self):
        assert conformal_dimension(0) == 0.0
        assert conformal_dimension(-2) == 0.0
        assert conformal_dimension(1) == 3.0
        assert conformal_dimension(as_charge("-1/2")) == pytest.approx(-0.75)

    def test_symmetric_about_minus_one(self):
        rng = random.Random(808)
        for _ in range(30):
            s = rng.uniform(-5, 5)
            assert conformal_dimension(s) == pytest.approx(
                conformal_dimension(-2.0 - s), rel=1e-12, abs=1e-12
            )


class TestLiterals:
    def test_format_complex_frozen_forms(self):
        assert format_complex(2j) == "2.0i"
        assert format_complex(-1 / 3) == "-0.3333333333333333"
        assert format_complex(0.5 + 0.25j) == "0.5+0.25i"

    def test_parse_complex_forms(self):
        assert parse_complex("i") == 1j
        assert parse_complex("-i") == -1j
        assert parse_complex("1-i") == 1 - 1j
        assert parse_complex("-0.5+2i") == -0.5 + 2j
        with pytest.raises(ValueError):
            parse_complex("nope")
        for text in ("nan", "inf+0i", "1-infi", "nan+1i"):
            with pytest.raises(ValueError, match="not finite"):
                parse_complex(text)

    def test_parse_point_infinity(self):
        assert parse_point("inf") == INFINITY
        assert parse_point("Infinity").is_infinity

    def test_roundtrip(self):
        rng = random.Random(909)
        for _ in range(50):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert parse_complex(format_complex(z)) == z

    def test_charge_literals(self):
        assert str(as_charge("-3/2")) == "-3/2"
        assert float(as_charge("-3/2")) == -1.5
        for exact in (as_charge(2), as_charge(-1.5)):
            assert isinstance(exact, Fraction)
        assert as_charge(-1.5) == Fraction(-3, 2)
        third = as_charge("1/3")
        assert isinstance(third, float)
        assert third == pytest.approx(1 / 3)

    def test_divisor_domain_tags(self):
        assert HALF_PLANE == "half_plane"
        assert DISK == "disk"
