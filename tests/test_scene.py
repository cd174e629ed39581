"""YAML scene parsing, line-numbered diagnostics, presets, round-trips."""

import pathlib
import re
import textwrap
from dataclasses import replace

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slezero import scene as scene_module
from slezero.errors import ConfigError
from slezero.loewner import Parametrization
from slezero.scene import (
    OUTPUT_KINDS,
    PRESET_NAMES,
    LoewnerParams,
    SceneConfig,
    parse_config,
    preset,
    serialize_config,
    single_curve_scene,
)
from slezero.divisors import DISK, HALF_PLANE, validate
from slezero.tracing import DOMAIN_MARGIN, TraceParams

MINIMAL = """\
domain: half_plane
growth: ["0.0"]
marked:
  - point: inf
    charge: "-3"
"""


def diag_lines(err: ConfigError) -> list[int]:
    return [n for n, _ in err.diagnostics]


def diag_text(err: ConfigError) -> str:
    return "; ".join(msg for _, msg in err.diagnostics)


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def scenes(draw):
    """Scenes on the shipped divisors with every number, tracked point, rate
    schedule and output list drawn."""
    base = draw(st.sampled_from([single_curve_scene()] + [preset(name) for name in PRESET_NAMES]))
    n = len(base.divisor.growth)
    # a rate from t = 0, then up to three (time, rate) breakpoints
    schedule = st.builds(
        lambda first, rest: ((0.0, first),) + tuple(sorted(rest)),
        POSITIVE,
        st.lists(st.tuples(POSITIVE, POSITIVE), max_size=3),
    )
    return replace(
        base,
        trace=TraceParams(
            step=draw(POSITIVE),
            max_arc_length=draw(POSITIVE),
            capture_radius=draw(st.floats(min_value=DOMAIN_MARGIN, exclude_min=True, allow_infinity=False)),
        ),
        loewner=LoewnerParams(
            T=draw(POSITIVE),
            dt=draw(POSITIVE),
            tol=draw(st.none() | POSITIVE),
            lift=draw(POSITIVE),
            tracked=tuple(draw(st.lists(st.complex_numbers(allow_infinity=False, allow_nan=False), max_size=3))),
        ),
        rates=draw(st.none() | st.lists(schedule, min_size=n, max_size=n).map(lambda s: Parametrization(tuple(s)))),
        outputs=tuple(draw(st.lists(st.sampled_from(OUTPUT_KINDS), max_size=6))),
    )


class TestParse:
    def test_minimal_config(self):
        scene = parse_config(MINIMAL)
        assert scene.divisor.domain == HALF_PLANE
        assert [p.value for p in scene.divisor.growth] == [0.0]
        assert scene.divisor.marked[0][0].is_infinity
        assert scene.trace == TraceParams()
        assert scene.loewner == LoewnerParams()
        assert scene.rates is None
        assert scene.name is None

    def test_empty_config(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("")
        assert exc.value.diagnostics == [(0, "empty config")]

    def test_syntax_error_carries_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("domain: half_plane\ngrowth: [0.0\n")
        assert "syntax error" in diag_text(exc.value)

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ConfigError, match="config must be a mapping"):
            parse_config("- 1\n- 2\n")

    def test_unknown_key_reports_its_line(self):
        text = MINIMAL + "wavelength: 3\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert (6, "unknown key 'wavelength'") in exc.value.diagnostics

    def test_duplicate_key_reports_its_line(self):
        text = MINIMAL + "domain: disk\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert (6, "duplicate key 'domain'") in exc.value.diagnostics

    def test_duplicate_keys_inside_sections_report_their_lines(self):
        text = (
            'domain: half_plane\ngrowth: ["0"]\nmarked:\n  - point: "inf"\n    point: "5"\n'
            '    charge: "-3"\ntrace:\n  step: 0.01\n  step: 0.5\nloewner:\n  T: 0.1\n  T: 0.2\n'
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.diagnostics == [
            (5, "duplicate key 'point'"),
            (9, "duplicate key 'step'"),
            (12, "duplicate key 'T'"),
        ]

    def test_domain_required_without_preset(self):
        with pytest.raises(ConfigError, match="domain is required"):
            parse_config('growth: ["0.0"]\nmarked: []\n')

    def test_bad_domain_value(self):
        with pytest.raises(ConfigError, match="domain must be"):
            parse_config(MINIMAL.replace("half_plane", "strip"))

    def test_empty_growth_list(self):
        with pytest.raises(ConfigError, match="at least one growth point"):
            parse_config(MINIMAL.replace('["0.0"]', "[]"))

    def test_growth_must_be_finite(self):
        with pytest.raises(ConfigError, match="growth points must be finite"):
            parse_config(MINIMAL.replace('"0.0"', "inf"))

    def test_bad_charge_reports_its_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace('"-3"', '"three"'))
        line, msg = exc.value.diagnostics[0]
        assert line == 5
        assert msg.startswith("bad charge")

    def test_marked_entry_needs_point_and_charge(self):
        with pytest.raises(ConfigError, match="needs both point and charge"):
            parse_config('domain: half_plane\ngrowth: ["0.0"]\nmarked:\n  - point: inf\n')

    def test_invalid_divisor_surfaces_validation(self):
        # neutrality broken: 1 - 4 != -2
        with pytest.raises(ConfigError, match="invalid divisor"):
            parse_config(MINIMAL.replace('"-3"', '"-4"'))

    def test_growth_off_boundary_rejected(self):
        text = 'domain: disk\ngrowth: ["0.5"]\nmarked:\n  - point: inf\n    charge: "-3"\n'
        with pytest.raises(ConfigError, match="invalid divisor"):
            parse_config(text)

    def test_unknown_output_kind(self):
        with pytest.raises(ConfigError, match="unknown output kind"):
            parse_config(MINIMAL + "outputs: [field_png]\n")


class TestSections:
    def test_trace_overrides(self):
        scene = parse_config(
            MINIMAL + "trace:\n  step: 0.01\n  capture_radius: 0.005\n"
        )
        assert scene.trace.step == 0.01
        assert scene.trace.capture_radius == 0.005
        assert scene.trace.max_arc_length == TraceParams().max_arc_length

    # the tracer always halves its steps at sharp turns, and its domain
    # margin is the constant tracing.DOMAIN_MARGIN
    @pytest.mark.parametrize("key", ["stride", "adaptive", "domain_margin"])
    def test_unknown_trace_key(self, key):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + f"trace:\n  step: 0.01\n  {key}: 1e-6\n")
        assert exc.value.diagnostics == [(8, f"unknown trace key {key!r}")]

    def test_capture_radius_must_exceed_margin(self):
        with pytest.raises(ConfigError, match="capture_radius must exceed domain_margin"):
            parse_config(MINIMAL + "trace:\n  capture_radius: 1e-7\n")

    def test_loewner_overrides_and_tracked(self):
        scene = parse_config(
            MINIMAL + 'loewner:\n  T: 0.5\n  tracked: ["2i", "1+1i"]\n'
        )
        assert scene.loewner.T == 0.5
        assert scene.loewner.tracked == (2j, 1 + 1j)
        assert scene.loewner.dt == LoewnerParams().dt

    def test_loewner_positivity(self):
        with pytest.raises(ConfigError, match="loewner.T must be positive"):
            parse_config(MINIMAL + "loewner:\n  T: -0.5\n")
        with pytest.raises(ConfigError, match="loewner.dt must be positive"):
            parse_config(MINIMAL + "loewner:\n  dt: 0.0\n")

    def test_loewner_tol(self):
        assert parse_config(MINIMAL).loewner.tol is None
        assert parse_config(MINIMAL + "loewner:\n  tol: 1e-13\n").loewner.tol == 1e-13
        with pytest.raises(ConfigError, match="line 7: loewner.tol must be positive: '0'"):
            parse_config(MINIMAL + "loewner:\n  tol: 0\n")
        with pytest.raises(ConfigError, match="loewner.tol must be finite"):
            parse_config(MINIMAL + "loewner:\n  tol: nan\n")

    def test_constant_rates(self):
        scene = parse_config(MINIMAL + "rates: [2.0]\n")
        assert scene.rates == Parametrization.constant([2.0])

    def test_rate_schedules(self):
        scene = parse_config(MINIMAL + "rates:\n  - [[0.0, 1.0], [0.5, 2.0]]\n")
        assert scene.rates.schedules == (((0.0, 1.0), (0.5, 2.0)),)

    def test_rates_must_be_positive(self):
        with pytest.raises(ConfigError, match="rates must be positive"):
            parse_config(MINIMAL + "rates: [-1.0]\n")

    def test_schedule_must_start_at_zero(self):
        with pytest.raises(ConfigError, match="first breakpoint must be at t=0"):
            parse_config(MINIMAL + "rates:\n  - [[0.1, 1.0]]\n")

    def test_decreasing_breakpoints_are_a_diagnostic(self):
        text = "preset: fig1\nrates: [[[0, 1], [0.5, 2], [0.2, 3]], 1, 1]\n"
        with pytest.raises(ConfigError, match="rate breakpoints must increase") as exc:
            parse_config(text)
        assert diag_lines(exc.value) == [2]

    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
    def test_non_finite_numbers_rejected(self, literal):
        with pytest.raises(ConfigError, match="rate must be finite"):
            parse_config(f"preset: fig1\nrates: [{literal}, 1, 1]\n")
        with pytest.raises(ConfigError, match="loewner.T must be finite"):
            parse_config(MINIMAL + f"loewner:\n  T: {literal}\n")
        with pytest.raises(ConfigError, match="trace.step must be finite"):
            parse_config(MINIMAL + f"trace:\n  step: {literal}\n")

    def test_non_finite_point_literals_rejected(self):
        with pytest.raises(ConfigError, match="tracked point: complex literal 'nan\\+1i' is not finite"):
            parse_config("preset: fig1\nloewner:\n  tracked: [\"nan+1i\"]\n")
        with pytest.raises(ConfigError, match="growth point: complex literal 'inf\\+0i' is not finite"):
            parse_config('domain: half_plane\ngrowth: ["0.0", "inf+0i"]\n')

    def test_rate_count_checked_against_growth(self):
        with pytest.raises(ConfigError, match="one rate schedule per growth point"):
            parse_config(MINIMAL + "rates: [1.0, 1.0]\n")


class TestChargeGranularity:
    THIRDS = (
        "domain: half_plane\n"
        'growth: ["0.0"]\n'
        "marked:\n"
        '  - point: "1.0"\n'
        '    charge: "1/3"\n'
        '  - point: "-1.0"\n'
        '    charge: "1/3"\n'
        "  - point: inf\n"
        '    charge: "-11/3"\n'
    )

    def test_third_charges_fine_for_flow_outputs(self):
        scene = parse_config(self.THIRDS + "outputs: [hull_csv, motion_report]\n")
        assert validate(scene.divisor).ok

    def test_third_charges_rejected_for_field_outputs(self):
        with pytest.raises(ConfigError, match="not a half-integer") as exc:
            parse_config(self.THIRDS + "outputs: [hull_csv, field_svg]\n")
        assert "flow outputs are fine" in diag_text(exc.value)
        assert diag_lines(exc.value) == [4, 6, 8]


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == ("fig1", "fig2", "fig3")

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            preset("fig9")

    def test_unknown_preset_in_config(self):
        with pytest.raises(ConfigError, match="unknown preset 'fig9'"):
            parse_config("preset: fig9\n")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_are_valid_disk_scenes(self, name):
        scene = preset(name)
        assert scene.divisor.domain == DISK
        assert len(scene.divisor.growth) == 3
        assert validate(scene.divisor).ok
        assert scene.outputs == OUTPUT_KINDS
        assert scene.name == name

    def test_fig3_uses_a_tighter_capture_radius(self):
        assert preset("fig3").trace.capture_radius == 1e-4
        assert preset("fig1").trace == TraceParams()

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_serialize_parse_round_trip(self, name):
        scene = preset(name)
        again = parse_config(serialize_config(scene))
        assert again == scene

    def test_presets_step_under_error_control(self):
        for name in PRESET_NAMES:
            assert preset(name).loewner.tol == 3e-14
            assert preset(name).loewner.dt == 1e-2
            assert "  tol: 3e-14\n" in serialize_config(preset(name))
        assert single_curve_scene().loewner.tol == 1e-16
        assert single_curve_scene().loewner.dt == 1e-2
        assert "  tol: 1e-16\n" in serialize_config(single_curve_scene())
        # without a tol the flow takes fixed steps, and none is written
        base = single_curve_scene()
        fixed = replace(base, loewner=replace(base.loewner, tol=None))
        assert "tol" not in serialize_config(fixed)

    def test_round_trip_with_rates_and_tracked(self):
        base = single_curve_scene()
        scene = SceneConfig(
            divisor=base.divisor,
            trace=TraceParams(step=0.002),
            loewner=LoewnerParams(T=0.3, dt=1e-3, lift=1e-5, tracked=(2j, 3 + 0.5j), tol=1e-12),
            rates=Parametrization((((0.0, 1.0), (0.25, 2.0)),)),
            outputs=("hull_csv",),
            name="custom",
        )
        again = parse_config(serialize_config(scene))
        assert again == scene

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(scenes(), st.none() | st.text())
    # names that read back as something else, or not at all, unless quoted
    @example(single_curve_scene(), "a: b")
    @example(single_curve_scene(), "- x")
    @example(single_curve_scene(), "#x")
    @example(single_curve_scene(), "x #y")
    @example(single_curve_scene(), "'q'")
    @example(single_curve_scene(), " x")
    def test_every_scene_round_trips(self, scene, name):
        scene = replace(scene, name=name)
        assert parse_config(serialize_config(scene)) == scene

    def test_preset_expanded_by_reference(self):
        scene = parse_config("preset: fig1\n")
        assert scene == preset("fig1")

    def test_preset_with_overrides(self):
        scene = parse_config("preset: fig1\nloewner:\n  T: 0.05\noutputs: [hull_csv]\n")
        assert scene.divisor == preset("fig1").divisor
        assert scene.loewner.T == 0.05
        assert scene.loewner.dt == preset("fig1").loewner.dt
        assert scene.outputs == ("hull_csv",)

    def test_single_curve_scene(self):
        scene = single_curve_scene()
        assert validate(scene.divisor).ok
        assert scene.divisor.domain == HALF_PLANE
        assert scene.loewner.T == 1.0
        assert scene.loewner.tracked == (2j,)


def readme_example() -> str:
    """The YAML block of the README's Scene config section."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Scene config\n", 1)[1]
    return re.search(r"```yaml\n(.*?)```", section, re.S).group(1)


class TestReadme:
    def test_scene_config_example_parses(self):
        scene = parse_config(readme_example())
        assert scene.name == "example"
        assert scene.divisor.domain == HALF_PLANE
        assert len(scene.divisor.growth) == scene.rates.n_curves == 2
        assert scene.outputs == OUTPUT_KINDS
        assert scene.loewner.tol == 3e-14

    def test_schema_copies_list_the_written_keys(self):
        # the README example, the scene.py docstring schema and
        # serialize_config name the same trace and loewner keys, in order
        example = readme_example()
        schema = textwrap.dedent(scene_module.__doc__.split("Schema (all keys optional unless noted):\n", 1)[1])
        written = yaml.safe_load(serialize_config(parse_config(example)))
        for copy in (yaml.safe_load(example), yaml.safe_load(schema)):
            for section_name in ("trace", "loewner"):
                assert list(copy[section_name]) == list(written[section_name])
