"""Per-layer tracing of the slezero package from outside the package.

``Tracer.install`` rebinds the public functions of each module (module
attributes such as ``slezero.loewner.evolve``, and ``Parametrization.rates``
on its class) to wrappers, so calls the package makes through those
attributes are seen; ``uninstall`` restores the originals. A span wrapper
records ``[name, start, end, parent]`` in memory and counts the call. The two
innermost functions, ``divisors.dlog_Z`` and ``Parametrization.rates``, run
hundreds of thousands of times per scene; they get a counting wrapper only,
since a span each would cost more than the work it measures.

Single-threaded by design: the benchmark runs one command at a time, so the
open-span stack is the causal parent chain.
"""

from __future__ import annotations

import functools
import inspect
import pathlib
import statistics
import time
from collections import Counter

# Spans whose inclusive time is reported under one per-layer metric.
LAYER_TIMES = {
    "loewner.evolve_s": ("loewner.evolve",),
    "loewner.trace_hull_s": ("loewner.trace_hull",),
    "loewner.motion_integral_s": ("loewner.motion_integral",),
    "tracing.launch_all_s": ("tracing.launch_all",),
    "tracing.analyze_s": ("tracing.analyze",),
    "outputs.field_svg_s": ("outputs.field_svg",),
    "outputs.write_s": (
        "outputs.trajectory_csv",
        "outputs.hull_csv",
        "outputs.report_text",
        "outputs.analysis_payload",
        "outputs.write_text",
    ),
    "divisors.moebius_gap_s": ("divisors.moebius_invariance_gap",),
    "quadratic.build_Q_s": ("quadratic.build_Q",),
    "conformal.transport_s": ("conformal.transport",),
    "scene.parse_s": ("scene.parse_config",),
}
# Spans reported by self time: what they do outside every named layer.
SELF_TIMES = {
    "runner.run_self_s": "runner.run",
    "runner.verify_self_s": "runner.verify",
    "cli.main_s": "cli.main",
}
COUNT_UNITS = {
    "loewner.states": "count",
    "divisors.dlog_Z_calls": "count",
    "divisors.dlog_Z_calls_per_state": "calls/state",
    "loewner.hull_samples": "count",
    "loewner.rates_calls": "count",
    "loewner.evolve_calls": "count",
    "loewner.evolve_reuse": "ratio",
    "loewner.observers": "count",
    "tracing.trace_calls": "count",
    "tracing.points": "count",
    "outputs.bytes": "B",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "s" for name in SELF_TIMES},
    **COUNT_UNITS,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._evolve_keys: set[str] = set()

    # -- wrappers -------------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        functools.update_wrapper(wrapper, original)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, measure=None) -> None:
        fn = getattr(owner, attr)
        spans, stack, calls = self.spans, self._stack, self.calls

        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            calls[name] += 1
            if measure is not None:
                measure(fn, args, kwargs, result)
            return result

        self._rebind(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        self._rebind(owner, attr, wrapper)

    # -- measurements taken from results --------------------------------

    def _on_evolve(self, fn, args, kwargs, evolution) -> None:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        tracked = bound.arguments.pop("tracked", ())
        self.counts["loewner.states"] += len(evolution.states)
        self.counts["loewner.observers"] += len(tracked)
        # one evolution = one (divisor, horizon, step, rates); observers ride along
        self._evolve_keys.add(repr(sorted(bound.arguments.items())))

    def _on_hull(self, fn, args, kwargs, samples) -> None:
        self.counts["loewner.hull_samples"] += len(samples)

    def _on_trace(self, fn, args, kwargs, trajectory) -> None:
        self.counts["tracing.points"] += len(trajectory.points)

    def _on_write(self, fn, args, kwargs, result) -> None:
        data = args[1] if len(args) > 1 else kwargs["data"]
        self.counts["outputs.bytes"] += len(data.encode())

    def install(self) -> None:
        from slezero import cli, conformal, divisors, loewner, outputs, quadratic, runner, scene, tracing

        self.span(cli, "main", "cli.main")
        self.span(scene, "parse_config", "scene.parse_config")
        self.span(runner, "run", "runner.run")
        self.span(runner, "verify", "runner.verify")
        self.span(conformal, "transport", "conformal.transport")
        self.span(quadratic, "build_Q", "quadratic.build_Q")
        self.span(tracing, "launch_all", "tracing.launch_all")
        self.span(tracing, "trace", "tracing.trace", self._on_trace)
        self.span(tracing, "analyze", "tracing.analyze")
        self.span(loewner, "evolve", "loewner.evolve", self._on_evolve)
        self.span(loewner, "trace_hull", "loewner.trace_hull", self._on_hull)
        self.span(loewner, "motion_integral", "loewner.motion_integral")
        self.span(divisors, "moebius_invariance_gap", "divisors.moebius_invariance_gap")
        for attr in ("field_svg", "trajectory_csv", "hull_csv", "report_text", "analysis_payload"):
            self.span(outputs, attr, f"outputs.{attr}")
        self.span(pathlib.Path, "write_text", "outputs.write_text", self._on_write)
        self.count(divisors, "dlog_Z", "divisors.dlog_Z")
        self.count(loewner.Parametrization, "rates", "loewner.Parametrization.rates")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- bookkeeping per command and per pass ----------------------------

    def end_command(self) -> None:
        self.counts["loewner.evolutions"] += len(self._evolve_keys)
        self._evolve_keys.clear()

    def take_pass(self, first_span: int) -> dict:
        """Per-layer metrics of the spans and counters since ``first_span``;
        resets the counters for the next pass."""
        spans = self.spans[first_span:]
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        for name, start, end, _ in spans:
            inclusive[name] += end - start
            self_time[name] += end - start
        for name, start, end, parent in spans:
            if parent is not None and parent >= first_span:
                self_time[self.spans[parent][0]] -= end - start
        calls, counts = Counter(self.calls), Counter(self.counts)
        self.calls.clear()
        self.counts.clear()
        states = counts["loewner.states"]
        evolves = calls["loewner.evolve"]
        metrics = {
            **{m: sum((inclusive[s] for s in names), 0.0) for m, names in LAYER_TIMES.items()},
            **{m: float(self_time[s]) for m, s in SELF_TIMES.items()},
            "loewner.states": states,
            "divisors.dlog_Z_calls": calls["divisors.dlog_Z"],
            "divisors.dlog_Z_calls_per_state": calls["divisors.dlog_Z"] / states if states else 0.0,
            "loewner.hull_samples": counts["loewner.hull_samples"],
            "loewner.rates_calls": calls["loewner.Parametrization.rates"],
            "loewner.evolve_calls": evolves,
            "loewner.evolve_reuse": counts["loewner.evolutions"] / evolves if evolves else 0.0,
            "loewner.observers": counts["loewner.observers"],
            "tracing.trace_calls": calls["tracing.trace"],
            "tracing.points": counts["tracing.points"],
            "outputs.bytes": counts["outputs.bytes"],
        }
        layers = {
            name: {"self_s": self_time[name], "inclusive_s": inclusive[name], "calls": calls[name]}
            for name in inclusive
        }
        for name in ("divisors.dlog_Z", "loewner.Parametrization.rates"):
            layers[name] = {"self_s": None, "inclusive_s": None, "calls": calls[name]}
        return {"metrics": metrics, "layers": layers}


def median_pass(passes: list[dict]) -> dict:
    """Median over passes of each per-layer metric and layer time."""
    metrics = {m: statistics.median(p["metrics"][m] for p in passes) for m in PER_LAYER_UNITS}
    layers = {}
    for name in passes[0]["layers"]:
        rows = [p["layers"][name] for p in passes if name in p["layers"]]
        layers[name] = {
            key: None if rows[0][key] is None else statistics.median(r[key] for r in rows)
            for key in rows[0]
        }
    return {"metrics": metrics, "layers": layers}
