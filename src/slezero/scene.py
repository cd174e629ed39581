"""Scene configuration: YAML schema, validation diagnostics, and presets.

A scene bundles a symmetric divisor with integration parameters and a list
of requested artifacts. Configs are parsed from YAML through the node tree
(not plain load) so every diagnostic carries the source line it came from.
The ``trace`` and ``loewner`` keys are the field names of ``TraceParams``
and ``LoewnerParams``.

Schema (all keys optional unless noted):

    preset: fig1                # expand a named preset, then apply overrides
    domain: disk                # half_plane | disk (required without preset)
    growth: ["-i", "1", "i"]    # complex literals, boundary points (required)
    marked:
      - point: "-1"             # complex literal or "inf"
        charge: "-4"            # integer, "p/2" rational, or decimal
    rates: [1, 1, 1]            # per curve: number, or [[t, rate], ...]
    trace:
      step: 1e-3
      max_arc_length: 50
      capture_radius: 1e-3      # must exceed tracing.DOMAIN_MARGIN = 1e-6
    loewner:
      T: 0.1
      dt: 1e-4                  # the step; the first one when tol is set
      tol: 1e-13                # optional: error-controlled steps
      tracked: ["2i"]           # observer points, half-plane coordinates
    outputs: [field_svg, trajectories_csv, hull_csv, motion_report,
              analysis_report]
    name: my-scene
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace

import yaml

from .divisors import (
    DISK,
    HALF_PLANE,
    MarkedPoint,
    SpherePoint,
    SymmetricDivisor,
    as_charge,
    format_complex,
    parse_point,
)
from .errors import ConfigError, DegenerateConfigurationError
from .loewner import Parametrization
from .tracing import DOMAIN_MARGIN, TraceParams

OUTPUT_KINDS = (
    "field_svg",
    "trajectories_csv",
    "hull_csv",
    "motion_report",
    "analysis_report",
)
_QD_OUTPUTS = frozenset({"field_svg", "trajectories_csv", "analysis_report"})
_FLOW_OUTPUTS = frozenset({"hull_csv", "motion_report"})


@dataclass(frozen=True)
class LoewnerParams:
    T: float = 0.1
    dt: float = 1e-4
    tol: float | None = None  # local error bound per flow step; None: fixed steps
    tracked: tuple[complex, ...] = ()


@dataclass(frozen=True)
class SceneConfig:
    divisor: SymmetricDivisor
    trace: TraceParams = TraceParams()
    loewner: LoewnerParams = LoewnerParams()
    rates: Parametrization | None = None
    outputs: tuple[str, ...] = ("field_svg", "trajectories_csv", "analysis_report")
    name: str | None = None

    @property
    def wants_quadratic(self) -> bool:
        return bool(_QD_OUTPUTS.intersection(self.outputs))

    @property
    def wants_flow(self) -> bool:
        return bool(_FLOW_OUTPUTS.intersection(self.outputs))


class _Diagnostics:
    def __init__(self) -> None:
        self.items: list[tuple[int, str]] = []

    def add(self, node, message: str) -> None:
        line = node.start_mark.line + 1 if node is not None else 0
        self.items.append((line, message))

    def raise_if_any(self) -> None:
        if self.items:
            raise ConfigError(self.items)


def _is_scalar(node) -> bool:
    return isinstance(node, yaml.ScalarNode)


def _mapping_items(node, diags: _Diagnostics, context: str):
    if not isinstance(node, yaml.MappingNode):
        diags.add(node, f"{context} must be a mapping")
        return []
    out = {}
    for key_node, value_node in node.value:
        if not _is_scalar(key_node):
            diags.add(key_node, f"non-scalar key in {context}")
        elif key_node.value in out:
            diags.add(key_node, f"duplicate key {key_node.value!r}")
        else:
            out[key_node.value] = (key_node.value, key_node, value_node)
    return list(out.values())


def _sequence_items(node, diags: _Diagnostics, context: str):
    if not isinstance(node, yaml.SequenceNode):
        diags.add(node, f"{context} must be a list")
        return []
    return node.value


def parse_number(text: str, positive: bool = False) -> float:
    """The finite number a literal spells; ValueError says why it is not one.

    YAML values and the command-line overrides both go through this rule.
    """
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite: {text!r}")
    if positive and value <= 0:
        raise ValueError(f"must be positive: {text!r}")
    return value


def _parse_float(
    node, diags: _Diagnostics, context: str, positive: bool = False
) -> float | None:
    if not _is_scalar(node):
        diags.add(node, f"{context} must be a number")
        return None
    try:
        return parse_number(node.value, positive)
    except ValueError as exc:
        diags.add(node, f"{context} {exc}")
        return None


def _parse_point_node(node, diags: _Diagnostics, context: str) -> SpherePoint | None:
    if not _is_scalar(node):
        diags.add(node, f"{context} must be a point literal")
        return None
    try:
        return parse_point(node.value)
    except ValueError as exc:
        diags.add(node, f"{context}: {exc}")
        return None


def _parse_complex_node(node, diags: _Diagnostics, context: str) -> complex | None:
    p = _parse_point_node(node, diags, context)
    if p is None:
        return None
    if not p.finite:
        diags.add(node, f"{context} must be finite")
        return None
    return p.value


def parse_config(text: str) -> SceneConfig:
    """Parse and validate a YAML scene description.

    All problems found are collected into a single ConfigError whose
    diagnostics carry 1-based source line numbers.
    """
    diags = _Diagnostics()
    try:
        root = yaml.compose(text)
    except yaml.MarkedYAMLError as exc:
        line = exc.problem_mark.line + 1 if exc.problem_mark else 0
        raise ConfigError([(line, f"syntax error: {exc.problem}")]) from exc
    if root is None:
        raise ConfigError([(0, "empty config")])

    known = {"preset", "domain", "growth", "marked", "rates", "trace", "loewner", "outputs", "name"}
    by_key = {}
    for key, key_node, value_node in _mapping_items(root, diags, "config"):
        if key in known:
            by_key[key] = value_node
        else:
            diags.add(key_node, f"unknown key {key!r}")
    diags.raise_if_any()

    base: SceneConfig | None = None
    if "preset" in by_key:
        node = by_key.pop("preset")
        if not _is_scalar(node):
            diags.add(node, "preset must be a name")
        else:
            try:
                base = preset(node.value)
            except KeyError:
                diags.add(node, f"unknown preset {node.value!r}")
    diags.raise_if_any()

    domain = None
    if "domain" in by_key:
        node = by_key["domain"]
        if _is_scalar(node) and node.value in (HALF_PLANE, DISK):
            domain = node.value
        else:
            diags.add(node, f"domain must be {HALF_PLANE!r} or {DISK!r}")
    elif base is None:
        diags.add(root, "domain is required (or use a preset)")

    growth: list[SpherePoint] = []
    if "growth" in by_key:
        for item in _sequence_items(by_key["growth"], diags, "growth"):
            p = _parse_point_node(item, diags, "growth point")
            if p is not None:
                if not p.finite:
                    diags.add(item, "growth points must be finite")
                else:
                    growth.append(p)
        if not growth and not diags.items:
            diags.add(by_key["growth"], "at least one growth point is required")
    elif base is None:
        diags.add(root, "growth list is required (or use a preset)")

    marked: list[MarkedPoint] = []
    marked_nodes = []
    if "marked" in by_key:
        for item in _sequence_items(by_key["marked"], diags, "marked"):
            pt = None
            ch = None
            for key, key_node, value_node in _mapping_items(item, diags, "marked entry"):
                if key == "point":
                    pt = _parse_point_node(value_node, diags, "marked point")
                elif key == "charge":
                    if _is_scalar(value_node):
                        try:
                            ch = as_charge(value_node.value)
                        except (ValueError, ZeroDivisionError) as exc:
                            diags.add(value_node, f"bad charge: {exc}")
                    else:
                        diags.add(value_node, "charge must be a scalar")
                else:
                    diags.add(key_node, f"unknown marked-entry key {key!r}")
            if pt is not None and ch is not None:
                marked.append((pt, ch))
                marked_nodes.append(item)
            elif pt is None or ch is None:
                diags.add(item, "marked entry needs both point and charge")

    values = {}
    if "rates" in by_key:
        values["rates"] = _parse_rates(by_key["rates"], diags)
    # a section's keys override the preset's values, or the defaults
    trace, loewner = (base.trace, base.loewner) if base else (TraceParams(), LoewnerParams())
    if "trace" in by_key:
        values["trace"] = _parse_section(by_key["trace"], trace, diags, "trace")
        if values["trace"].capture_radius <= DOMAIN_MARGIN:
            diags.add(by_key["trace"], f"capture_radius must exceed domain_margin = {DOMAIN_MARGIN:g}")
    if "loewner" in by_key:
        values["loewner"] = _parse_section(by_key["loewner"], loewner, diags, "loewner")
    if "outputs" in by_key:
        got = []
        for item in _sequence_items(by_key["outputs"], diags, "outputs"):
            if _is_scalar(item) and item.value in OUTPUT_KINDS:
                got.append(item.value)
            else:
                diags.add(item, f"unknown output kind {getattr(item, 'value', item)!r}")
        values["outputs"] = tuple(got)
    if "name" in by_key:
        node = by_key["name"]
        if _is_scalar(node):
            values["name"] = node.value
        else:
            diags.add(node, "name must be a string")
    diags.raise_if_any()

    # a preset supplies what the config leaves out; without one, domain and
    # growth are there (or diagnosed above)
    try:
        divisor = SymmetricDivisor(
            domain=domain or base.divisor.domain,
            growth=tuple(growth) or base.divisor.growth,
            marked=tuple(marked) if "marked" in by_key or base is None else base.divisor.marked,
        )
    except DegenerateConfigurationError as exc:
        anchor = by_key.get("growth") or by_key.get("marked") or root
        for problem in exc.problems:
            diags.add(anchor, f"invalid divisor: {problem}")
    diags.raise_if_any()

    scene = replace(base, divisor=divisor, **values) if base else SceneConfig(divisor, **values)

    if _QD_OUTPUTS.intersection(scene.outputs):
        for (pt, ch), node in zip(marked, marked_nodes):
            if isinstance(ch, float):
                diags.add(
                    node,
                    f"charge {ch} is not a half-integer: trajectory and field "
                    "outputs need integer local exponents (flow outputs are fine)",
                )
    if scene.rates is not None and scene.rates.n_curves != len(scene.divisor.growth):
        diags.add(by_key.get("rates"), "one rate schedule per growth point required")
    diags.raise_if_any()
    return scene


def _parse_rates(node, diags: _Diagnostics) -> Parametrization | None:
    schedules = []
    before = len(diags.items)
    for item in _sequence_items(node, diags, "rates"):
        item_before = len(diags.items)
        if _is_scalar(item):
            sched = [(0.0, _parse_float(item, diags, "rate"))]
        elif isinstance(item, yaml.SequenceNode):
            sched = []
            for pair in item.value:
                if isinstance(pair, yaml.SequenceNode) and len(pair.value) == 2:
                    t0 = _parse_float(pair.value[0], diags, "breakpoint time")
                    r = _parse_float(pair.value[1], diags, "breakpoint rate")
                    sched.append((t0, r))
                else:
                    diags.add(pair, "schedule entries are [time, rate] pairs")
        else:
            diags.add(item, "rate must be a number or a breakpoint list")
            continue
        if len(diags.items) > item_before:
            continue
        try:
            Parametrization((tuple(sched),))
        except ValueError as exc:
            diags.add(item, str(exc))
            continue
        schedules.append(tuple(sched))
    if len(diags.items) > before:
        return None
    return Parametrization(tuple(schedules)) if schedules else None


def _parse_section(node, base, diags: _Diagnostics, section: str):
    """``base`` with what a ``trace`` or ``loewner`` mapping sets: its keys
    are the parameters' field names, and each value but ``tracked`` is a
    positive number."""
    names = {f.name for f in fields(base)}
    out = base
    for key, key_node, value_node in _mapping_items(node, diags, section):
        if key not in names:
            diags.add(key_node, f"unknown {section} key {key!r}")
        elif key == "tracked":
            items = _sequence_items(value_node, diags, "loewner.tracked")
            pts = [_parse_complex_node(item, diags, "tracked point") for item in items]
            out = replace(out, tracked=tuple(z for z in pts if z is not None))
        else:
            v = _parse_float(value_node, diags, f"{section}.{key}", positive=True)
            if v is not None:
                out = replace(out, **{key: v})
    return out


def serialize_config(scene: SceneConfig) -> str:
    """Emit a config that parses back to an identical SceneConfig."""
    lines: list[str] = []
    if scene.name is not None:
        # the emitter quotes a name that would not read back as itself
        lines.append(yaml.safe_dump({"name": scene.name}, allow_unicode=True, width=math.inf).rstrip("\n"))
    lines.append(f"domain: {scene.divisor.domain}")
    lines.append("growth:")
    for p in scene.divisor.growth:
        lines.append(f'  - "{p}"')
    lines.append("marked:")
    for q, s in scene.divisor.marked:
        lines.append(f'  - point: "{q}"')
        lines.append(f'    charge: "{s}"')
    if not scene.divisor.marked:
        lines[-1] = "marked: []"
    if scene.rates is not None:
        lines.append("rates:")
        for sched in scene.rates.schedules:
            if len(sched) == 1 and sched[0][0] == 0.0:
                lines.append(f"  - {sched[0][1]!r}")
            else:
                pairs = ", ".join(f"[{t!r}, {r!r}]" for t, r in sched)
                lines.append(f"  - [{pairs}]")
    for section in ("trace", "loewner"):
        lines.append(f"{section}:")
        params = getattr(scene, section)
        for f in fields(params):
            value = getattr(params, f.name)
            if value is None or value == ():
                continue
            if f.name == "tracked":
                lines.append("  tracked:")
                lines.extend(f'    - "{format_complex(z)}"' for z in value)
            else:
                lines.append(f"  {f.name}: {value!r}")
    lines.append("outputs: [" + ", ".join(scene.outputs) + "]")
    return "\n".join(lines) + "\n"


# each figure's growth points, marked (point, charge) pairs and trace
# parameters; the charges sum to -2 with the growth points counted at +1 each
_FIGURES = {
    "fig1": ([-1j, 1, 1j], [(cmath.exp(2j * cmath.pi / 3), -1), (-1, -4)], TraceParams()),
    "fig2": ([-1j, 1, cmath.exp(1j * cmath.pi / 4)], [(0, -1), ("inf", -1), (-1, -3)], TraceParams()),
    # The pair captured by the order-3 pole at 1/2 bends onto its
    # asymptotic ray slowly; a tighter capture radius is needed before
    # the two approach directions agree.
    "fig3": (
        [-1j, cmath.exp(1j * cmath.pi / 3), 1j],
        [(-1 / 3, -1), (-3, -1), (1 / 2, "-3/2"), (2, "-3/2")],
        TraceParams(capture_radius=1e-4),
    ),
}
PRESET_NAMES = tuple(_FIGURES)


def preset(name: str) -> SceneConfig:
    """A named example scene on the disk; KeyError for an unknown name."""
    growth, marked, trace = _FIGURES[name]
    return SceneConfig(
        divisor=SymmetricDivisor.build(DISK, growth, marked),
        trace=trace,
        # dt is the first step; tol keeps each figure's final driving
        # points and hull samples within 6e-13 of a dt = 2e-6 flow
        loewner=LoewnerParams(T=0.1, dt=1e-2, tol=3e-14, tracked=(2j,)),
        outputs=OUTPUT_KINDS,
        name=name,
    )


def single_curve_scene() -> SceneConfig:
    """Internal fallback scene: one curve from the origin, charge -3 at
    infinity; the flow map and its observable have closed forms."""
    return SceneConfig(
        divisor=SymmetricDivisor.build(HALF_PLANE, [0], [("inf", -3)]),
        trace=TraceParams(max_arc_length=5.0),
        # dt is the first step; tol keeps the observer at 2i within 9e-13
        # of its closed forms g = 2i sqrt(1-t), log g' = -log(1-t)/2 up to
        # t = 0.9999, where fixed dt = 1e-4 steps were 4.9e-9 off, in 82
        # states instead of 11,690. From t = 0.756, where its step cap
        # would bind, it takes its death at t = 1 in 36 tau-steps; RK4
        # t-steps to the death took 4,766 states
        loewner=LoewnerParams(T=1.0, dt=1e-2, tol=1e-16, tracked=(2j,)),
        outputs=OUTPUT_KINDS,
        name="single-curve",
    )
