"""Scene configuration: YAML schema, validation diagnostics, and presets.

A scene bundles a symmetric divisor with integration parameters and a list
of requested artifacts. Configs are parsed from YAML through the node tree
(not plain load) so every diagnostic carries the source line it came from.

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
      dt: 1e-4                  # the largest step when tol is set
      tol: 1e-13                # optional: error-controlled steps
      lift: 1e-6
      tracked: ["2i"]           # observer points, half-plane coordinates
    outputs: [field_svg, trajectories_csv, hull_csv, motion_report,
              analysis_report]
    name: my-scene
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import yaml

from .divisors import (
    DISK,
    HALF_PLANE,
    SpherePoint,
    SymmetricDivisor,
    as_charge,
    format_complex,
    parse_point,
)
from . import divisors
from .errors import ConfigError
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
    lift: float = 1e-6
    tracked: tuple[complex, ...] = ()
    tol: float | None = None  # local error bound per flow step; None: fixed steps


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
    out = []
    for key_node, value_node in node.value:
        if not _is_scalar(key_node):
            diags.add(key_node, f"non-scalar key in {context}")
            continue
        out.append((key_node.value, key_node, value_node))
    return out


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

    entries = _mapping_items(root, diags, "config")
    diags.raise_if_any()

    base: SceneConfig | None = None
    known = {
        "preset",
        "domain",
        "growth",
        "marked",
        "rates",
        "trace",
        "loewner",
        "outputs",
        "name",
    }
    by_key = {}
    for key, key_node, value_node in entries:
        if key not in known:
            diags.add(key_node, f"unknown key {key!r}")
            continue
        if key in by_key:
            diags.add(key_node, f"duplicate key {key!r}")
            continue
        by_key[key] = value_node
    diags.raise_if_any()

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

    marked: list[divisors.MarkedPoint] = []
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

    rates = base.rates if base else None
    if "rates" in by_key:
        rates = _parse_rates(by_key["rates"], diags)

    trace = base.trace if base else TraceParams()
    if "trace" in by_key:
        trace = _parse_trace(by_key["trace"], trace, diags)

    loewner = base.loewner if base else LoewnerParams()
    if "loewner" in by_key:
        loewner = _parse_loewner(by_key["loewner"], loewner, diags)

    outputs = base.outputs if base else SceneConfig.__dataclass_fields__["outputs"].default
    if "outputs" in by_key:
        got = []
        for item in _sequence_items(by_key["outputs"], diags, "outputs"):
            if _is_scalar(item) and item.value in OUTPUT_KINDS:
                got.append(item.value)
            else:
                diags.add(item, f"unknown output kind {getattr(item, 'value', item)!r}")
        outputs = tuple(got)

    name = base.name if base else None
    if "name" in by_key:
        node = by_key["name"]
        if _is_scalar(node):
            name = node.value
        else:
            diags.add(node, "name must be a string")

    diags.raise_if_any()

    if base is not None and "growth" not in by_key and "marked" not in by_key and domain is None:
        divisor = base.divisor
    else:
        src = base.divisor if base else None
        divisor = SymmetricDivisor(
            domain=domain or (src.domain if src else HALF_PLANE),
            growth=tuple(growth) if growth else (src.growth if src else ()),
            marked=tuple(marked) if ("marked" in by_key or src is None) else src.marked,
        )

    report = divisors.validate(divisor)
    if not report.ok:
        anchor = by_key.get("growth") or by_key.get("marked") or root
        for problem in report.problems:
            diags.add(anchor, f"invalid divisor: {problem}")
    diags.raise_if_any()

    scene = SceneConfig(
        divisor=divisor,
        trace=trace,
        loewner=loewner,
        rates=rates,
        outputs=tuple(outputs),
        name=name,
    )

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


def _parse_trace(node, base: TraceParams, diags: _Diagnostics) -> TraceParams:
    fields = {
        "step": "step",
        "max_arc_length": "max_arc_length",
        "capture_radius": "singularity_capture_radius",
    }
    out = base
    for key, key_node, value_node in _mapping_items(node, diags, "trace"):
        if key not in fields:
            diags.add(key_node, f"unknown trace key {key!r}")
            continue
        v = _parse_float(value_node, diags, f"trace.{key}", positive=True)
        if v is not None:
            out = replace(out, **{fields[key]: v})
    if out.singularity_capture_radius <= DOMAIN_MARGIN:
        diags.add(node, f"capture_radius must exceed domain_margin = {DOMAIN_MARGIN:g}")
    return out


def _parse_loewner(node, base: LoewnerParams, diags: _Diagnostics) -> LoewnerParams:
    out = base
    for key, key_node, value_node in _mapping_items(node, diags, "loewner"):
        if key in ("T", "dt", "lift", "tol"):
            v = _parse_float(value_node, diags, f"loewner.{key}", positive=True)
            if v is not None:
                out = replace(out, **{key: v})
        elif key == "tracked":
            pts = []
            for item in _sequence_items(value_node, diags, "loewner.tracked"):
                z = _parse_complex_node(item, diags, "tracked point")
                if z is not None:
                    pts.append(z)
            out = replace(out, tracked=tuple(pts))
        else:
            diags.add(key_node, f"unknown loewner key {key!r}")
    return out


def serialize_config(scene: SceneConfig) -> str:
    """Emit a config that parses back to an identical SceneConfig."""
    lines: list[str] = []
    if scene.name:
        lines.append(f"name: {scene.name}")
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
    t = scene.trace
    lines.append("trace:")
    lines.append(f"  step: {t.step!r}")
    lines.append(f"  max_arc_length: {t.max_arc_length!r}")
    lines.append(f"  capture_radius: {t.singularity_capture_radius!r}")
    lo = scene.loewner
    lines.append("loewner:")
    lines.append(f"  T: {lo.T!r}")
    lines.append(f"  dt: {lo.dt!r}")
    if lo.tol is not None:
        lines.append(f"  tol: {lo.tol!r}")
    lines.append(f"  lift: {lo.lift!r}")
    if lo.tracked:
        lines.append("  tracked:")
        for z in lo.tracked:
            lines.append(f'    - "{format_complex(z)}"')
    lines.append("outputs: [" + ", ".join(scene.outputs) + "]")
    return "\n".join(lines) + "\n"


_ALL_OUTPUTS = tuple(OUTPUT_KINDS)


def _figure_scene(name: str, growth, marked, trace=TraceParams()) -> SceneConfig:
    return SceneConfig(
        divisor=SymmetricDivisor.build(DISK, growth, marked),
        trace=trace,
        # dt is the largest step; tol keeps each figure's final driving
        # points and hull samples within 2e-12 of a dt = 2e-6 flow
        loewner=LoewnerParams(T=0.1, dt=1e-2, lift=1e-6, tracked=(2j,), tol=3e-14),
        rates=None,
        outputs=_ALL_OUTPUTS,
        name=name,
    )


def preset(name: str) -> SceneConfig:
    """Named example scenes on the disk; charges sum to -2 with the three
    growth points counted at +1 each."""
    if name == "fig1":
        return _figure_scene(
            "fig1",
            [-1j, 1, 1j],
            [(cmath.exp(2j * cmath.pi / 3), -1), (-1, -4)],
        )
    if name == "fig2":
        return _figure_scene(
            "fig2",
            [-1j, 1, cmath.exp(1j * cmath.pi / 4)],
            [(0, -1), ("inf", -1), (-1, -3)],
        )
    if name == "fig3":
        # The pair captured by the order-3 pole at 1/2 bends onto its
        # asymptotic ray slowly; a tighter capture radius is needed before
        # the two approach directions agree.
        return _figure_scene(
            "fig3",
            [-1j, cmath.exp(1j * cmath.pi / 3), 1j],
            [(-1 / 3, -1), (-3, -1), (1 / 2, "-3/2"), (2, "-3/2")],
            trace=TraceParams(singularity_capture_radius=1e-4),
        )
    raise KeyError(name)


PRESET_NAMES = ("fig1", "fig2", "fig3")


def single_curve_scene() -> SceneConfig:
    """Internal fallback scene: one curve from the origin, charge -3 at
    infinity; the flow map and its observable have closed forms."""
    divisor = SymmetricDivisor.build(HALF_PLANE, [0], [("inf", -3)])
    return SceneConfig(
        divisor=divisor,
        trace=TraceParams(max_arc_length=5.0),
        # dt is the largest step; tol keeps the observer at 2i at least as
        # close to its closed forms g = 2i sqrt(1-t), log g' = -log(1-t)/2
        # as fixed dt = 1e-4 steps, in 4,766 states instead of 11,690 (the
        # presets' 3e-14 takes 2,376 but leaves g's error 40 times theirs)
        loewner=LoewnerParams(T=1.0, dt=1e-2, lift=1e-6, tracked=(2j,), tol=1e-16),
        rates=None,
        outputs=_ALL_OUTPUTS,
        name="single-curve",
    )
