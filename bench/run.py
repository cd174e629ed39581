"""Benchmark of the slezero command line: four workloads, one JSON result.

    python3 bench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The package is imported from
./src and ``slezero.cli.main`` is called in this process, one command at a
time: a closed loop with one client and one thread. Workloads (BENCHMARK.json
says why each exists):

    presets      `run` on the shipped fig1-fig3 scenes with all five outputs
    verify       `verify --suite all` on the single-curve scene and on fig1
    field        quadratic-only outputs on random half-plane and disk scenes
    many-curves  `motion_report` on ten-curve scenes with 128 observers

A pass runs every command of the workload once. Passes repeat until
--seconds have gone by, and no pass starts that is expected to end after
PASS_BUDGET times --seconds. With tracing off, a command whose recorded cost
is under CHEAP_S runs CHEAP_REPEATS times in each pass and its time in the
pass is the median of those runs. Every run's artifacts are checked; a run
that exits non-zero or fails a check counts in ``failed``.

With tracing off, every command run is timed by clock.SampledClock: a short
pure-Python probe runs every few milliseconds while the command runs, and the
command's seconds are reported at the speed of a reference machine. On a
shared machine whose speed halves and recovers within seconds, this keeps
that wandering out of a comparison of two commits. Each set-up probe, which
runs in a child process, sits instead between two fresh interpreters that
only import numpy and is scaled to REFERENCE_IMPORT_S for them. Neither
reference runs any of the package's code. The raw seconds go to the full
record.

--trace 0 prints the end-to-end metrics. --trace 1 times one untraced pass,
then repeats traced passes (tracer.py) and prints the per-layer metrics, a
self-time table and the tracing overhead. The last line of standard output is
always the JSON result; a fuller record, with the environment, goes to
.bench_work/results/. --tiny shrinks every workload for bench/smoke.py.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import scenes
from clock import ProbedClock, SampledClock, probe_seconds
from tracer import PER_LAYER_UNITS, Tracer, median_pass

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
WORK = ROOT / ".bench_work"
GOLDEN_FIG1 = ROOT / "tests" / "golden" / "fig1.svg"

WORKLOADS = ("presets", "verify", "field", "many-curves")
# 48 field scenes put scene_s.tail at p79 (about 0.7 s at the reference
# speed), with ten commands beyond it, all of them arc-budget scenes
FIELD_SCENES = 48
MANY_SCENES = 3
SETUP_REPEATS = 7
PASS_BUDGET = 1.4
# a 0.1 s field scene meets few speed probes; such scenes run several times
# per pass and count with their median
CHEAP_S = 0.2
CHEAP_REPEATS = 3
TINY_T = "0.002"

# The accuracy metrics and fail_ratio are clamped below at these floors, far
# under the package's gates (drift 1e-6, hull distance 5e-3), so that a
# round-off-level change cannot read as a regression while a real loss of
# accuracy, or any failed command, still does.
FLOORS = {"fail_ratio": 1e-4, "drift_max": 1e-9, "hull_dist_max": 1e-6, "x_final_err": 1e-9}
# Correctness gates applied to every command's artifacts.
DRIFT_LIMIT = 1e-6  # the `verify` motion gate
X_LIMIT = 1e-6
# fig1's driving points collide inside [0.0486540451, 0.0486540706]
FIG1_COLLISION = 0.04865405
COLLISION_TOL = 1e-6
# a bare `import numpy` interpreter takes about this long on a 2-vCPU Xeon VM
REFERENCE_IMPORT_S = 0.15

END_TO_END_UNITS = {
    "wall_s": "s",
    "scene_s.p50": "s",
    "scene_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "drift_max": "ratio",
    "hull_dist_max": "1",
    "x_final_err": "1",
}

SETUP_PROBE = (
    "import sys\n"
    "from pathlib import Path\n"
    "from slezero import cli, scene\n"
    "for p in sys.argv[1:]:\n"
    "    scene.parse_config(Path(p).read_text())\n"
)


def import_slezero():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import slezero

    if not Path(slezero.__file__).resolve().is_relative_to(src):
        raise ImportError(f"slezero imported from {slezero.__file__}, not from {src}")


# -- commands and their checks -------------------------------------------


@dataclass
class Outcome:
    seconds: float
    code: int | None
    stdout: str
    evolution: object | None  # what slezero.loewner.evolve returned, until checked
    problems: list[str] = field(default_factory=list)
    drift: float | None = None
    hull: float | None = None
    x_err: float | None = None
    scaled: float | None = None  # seconds at the reference speed


@dataclass
class Command:
    label: str
    argv: list[str]
    check: Callable[["Command", Outcome], None]
    out: Path | None = None
    expect: dict = field(default_factory=dict)
    repeats: int = 1


def _complex(text: str) -> complex:
    return complex(text[:-1] + "j") if text.endswith("i") else complex(text)


def _near(a: complex, b: complex, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol


def _read_json(path: Path, oc: Outcome):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        oc.problems.append(f"{path.name}: {exc}")
        return None


def _require(cmd: Command, oc: Outcome, names) -> None:
    for name in names:
        if not (cmd.out / name).is_file():
            oc.problems.append(f"missing artifact {name}")


def x_at(evolution, t: float) -> list[float] | None:
    """Driving positions at time t by cubic Hermite interpolation of the
    recorded states (x and dx/dt at each step)."""
    states = evolution.states
    ts = [s.t for s in states]
    if t > ts[-1] + 1e-12 or len(ts) < 2:
        return None
    i = min(max(bisect.bisect_right(ts, t) - 1, 0), len(ts) - 2)
    a, b = states[i], states[i + 1]
    h = b.t - a.t
    u = (t - a.t) / h
    h00 = (1 + 2 * u) * (1 - u) ** 2
    h10 = u * (1 - u) ** 2
    h01 = u * u * (3 - 2 * u)
    h11 = u * u * (u - 1)
    return [
        h00 * xa + h * h10 * da + h01 * xb + h * h11 * db
        for xa, da, xb, db in zip(a.x, a.dx, b.x, b.dx)
    ]


def _check_x(cmd: Command, oc: Outcome) -> None:
    ref = cmd.expect.get("x_ref")
    if ref is None:
        return
    if oc.evolution is None:
        oc.problems.append("no evolution was computed")
        return
    x = x_at(oc.evolution, ref["t"])
    if x is None:
        oc.problems.append(f"evolution ended before t={ref['t']}")
        return
    oc.x_err = max(abs(a - b) for a, b in zip(x, ref["x"]))
    if not oc.x_err < X_LIMIT:
        oc.problems.append(f"x at t={ref['t']} off the reference by {oc.x_err:.3e}")


def _check_motion(cmd: Command, oc: Outcome, observers: int) -> None:
    report = _read_json(cmd.out / "motion_report.json", oc)
    if report is None:
        return
    drifts = [r["max_rel_drift"] for r in report["reports"]]
    if len(drifts) != observers:
        oc.problems.append(f"{len(drifts)} observer reports, expected {observers}")
        return
    oc.drift = max(drifts)
    if not oc.drift < DRIFT_LIMIT:
        oc.problems.append(f"observable drift {oc.drift:.3e}")
    collision = report["collision"]
    want = cmd.expect.get("collision")
    if want is None and collision is not None:
        oc.problems.append(f"unexpected collision {collision['bracket']}")
    if want is not None:
        lo, hi = collision["bracket"] if collision else (1.0, 0.0)
        if not lo - COLLISION_TOL <= want <= hi + COLLISION_TOL:
            oc.problems.append(f"collision bracket {collision}, expected t~{want}")


def _check_preset(cmd: Command, oc: Outcome) -> None:
    name = cmd.expect["preset"]
    _require(cmd, oc, ["field.svg", "hull.csv", "motion_report.json", "analysis_report.json"])
    _require(cmd, oc, [f"trajectory_{i}.csv" for i in range(3)])
    if oc.problems:
        return
    if name == "fig1" and (cmd.out / "field.svg").read_bytes() != cmd.expect["golden"]:
        oc.problems.append("field.svg differs from tests/golden/fig1.svg")
    report = _read_json(cmd.out / "analysis_report.json", oc)
    if report is not None:
        oc.problems.extend(_preset_analysis(name, report))
    _check_motion(cmd, oc, observers=1)
    _check_x(cmd, oc)


def _pair_is(pair: dict, trajs: list, starts: tuple[complex, complex]) -> bool:
    got = [_complex(trajs[pair[k]]["start"]) for k in ("first", "second")]
    return all(any(_near(g, s) for g in got) for s in starts)


def _preset_analysis(name: str, report: dict) -> list[str]:
    """The acceptance expectations for the shipped figures."""
    trajs, pairs, spirals = report["trajectories"], report["converging_pairs"], report["spirals"]
    if len(trajs) != 3:
        return [f"{len(trajs)} trajectories, expected 3"]
    if name == "fig1":
        from_i = [t for t in trajs if _near(_complex(t["start"]), 1j)]
        ok = (
            len(from_i) == 1
            and from_i[0]["terminal"] == "reached_singularity"
            and _near(_complex(from_i[0]["terminal_point"]), -1.0)
        )
        return [] if ok else ["fig1: trajectory from i does not end at the pole -1"]
    if name == "fig2":
        ok = (
            len(pairs) == 1
            and _pair_is(pairs[0], trajs, (-1j, complex(2**-0.5, 2**-0.5)))
            and _near(_complex(pairs[0]["singularity"]), -1.0)
            and pairs[0]["angle_gap"] < 0.05
        )
        return [] if ok else [f"fig2: converging pairs {pairs}"]
    ok = (
        len(spirals) == 1
        and _near(_complex(spirals[0]["center"]), -1 / 3)
        and abs(spirals[0]["winding"]) > 4 * math.pi
        and len(pairs) == 1
        and _pair_is(pairs[0], trajs, (-1j, complex(0.5, 3**0.5 / 2)))
    )
    return [] if ok else [f"fig3: spirals {spirals}, pairs {pairs}"]


_VERIFY_VALUE = re.compile(r"^(motion/abs_drift|equivalence/hull_distance)\[[^]]*\]: value=(\S+)")


def _check_verify(cmd: Command, oc: Outcome) -> None:
    lines = oc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("ok:"):
        oc.problems.append(f"verify did not end ok: {lines[-1:]}")
    drifts, hulls = [], []
    for line in lines:
        m = _VERIFY_VALUE.match(line)
        if m:
            (drifts if m.group(1).startswith("motion") else hulls).append(float(m.group(2)))
    if not drifts or not hulls:
        oc.problems.append("verify printed no drift or no hull-distance check")
        return
    oc.drift, oc.hull = max(drifts), max(hulls)


def _check_field(cmd: Command, oc: Outcome) -> None:
    want = cmd.expect
    n = len(want["terminals"])
    _require(cmd, oc, ["field.svg", "analysis_report.json"])
    _require(cmd, oc, [f"trajectory_{i}.csv" for i in range(n)])
    if oc.problems:
        return
    report = _read_json(cmd.out / "analysis_report.json", oc)
    if report is None:
        return
    got = {
        "terminals": [t["terminal"] for t in report["trajectories"]],
        "pairs": len(report["converging_pairs"]),
        "spirals": len(report["spirals"]),
    }
    if got != want:
        oc.problems.append(f"analysis {got}, recorded {want}")


def _check_many(cmd: Command, oc: Outcome) -> None:
    _require(cmd, oc, ["motion_report.json"])
    if not oc.problems:
        _check_motion(cmd, oc, observers=scenes.MANY_OBSERVERS)
        _check_x(cmd, oc)


# -- workloads -------------------------------------------------------------


def _load(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())


def _write_config(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path.relative_to(ROOT))


def _one_per_cost_group(ids: list[str], cost: dict[str, float], count: int, rng: random.Random) -> list[str]:
    """One id drawn from each of ``count`` equal groups of the ids ranked by
    recorded cost, so every seed runs the same spread of scene sizes.

    Field scenes cost 10 ms to 4 s, depending on how far their trajectories
    run; a free draw would let the mix of sizes, not the code, move the
    metrics from one seed to the next.
    """
    ranked = sorted(ids, key=lambda sid: (cost[sid], int(sid)))
    bounds = [len(ranked) * k // count for k in range(count + 1)]
    return [rng.choice(ranked[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def build_workload(name: str, seed: int, tiny: bool) -> list[Command]:
    """The workload's commands, made from the seed alone."""
    rng = random.Random(f"{name}:{seed}")
    work = WORK / name
    shorten = ["--T", TINY_T] if tiny else []
    commands: list[Command] = []
    if name == "presets":
        golden = GOLDEN_FIG1.read_bytes()
        refs = _load("presets")["scenes"]
        for fig in ("fig1", "fig2", "fig3"):
            config = _write_config(work / f"{fig}.yaml", scenes.preset_scene(fig))
            out = work / "out" / fig
            expect = {"preset": fig, "golden": golden}
            if not tiny:
                expect["x_ref"] = refs[fig]
                expect["collision"] = FIG1_COLLISION if fig == "fig1" else None
            argv = ["run", "--config", config, "--out", str(out.relative_to(ROOT)), *shorten]
            commands.append(Command(f"run {fig}", argv, _check_preset, out, expect))
    elif name == "verify":
        config = _write_config(work / "fig1.yaml", scenes.preset_scene("fig1"))
        base = ["verify", "--suite", "all", "--seed", str(seed), *shorten]
        commands.append(Command("verify single-curve", base, _check_verify))
        commands.append(Command("verify fig1", [*base, "--config", config], _check_verify))
    elif name == "field":
        pool = _load("field")["scenes"]
        cost = {sid: rec.pop("cost_s") for sid, rec in pool.items()}
        for sid in _one_per_cost_group(list(pool), cost, 3 if tiny else FIELD_SCENES, rng):
            config = _write_config(work / f"field-{sid}.yaml", scenes.field_scene(int(sid)))
            out = work / "out" / sid
            argv = ["run", "--config", config, "--out", str(out.relative_to(ROOT))]
            repeats = CHEAP_REPEATS if cost[sid] < CHEAP_S else 1
            commands.append(Command(f"run field-{sid}", argv, _check_field, out, pool[sid], repeats))
    elif name == "many-curves":
        refs = _load("many")["scenes"]
        picked = rng.sample(sorted(refs, key=int), 1 if tiny else min(MANY_SCENES, len(refs)))
        for sid in picked:
            config = _write_config(work / f"many-{sid}.yaml", scenes.many_scene(int(sid)))
            out = work / "out" / sid
            argv = ["run", "--config", config, "--out", str(out.relative_to(ROOT)), *shorten]
            expect = {"collision": None} if tiny else {"collision": None, "x_ref": refs[sid]}
            commands.append(Command(f"run many-{sid}", argv, _check_many, out, expect))
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(commands)
    return commands


# -- measurement -------------------------------------------------------------


class EvolutionCapture:
    """Keeps the Evolution that ``slezero.loewner.evolve`` last returned, so
    the driving positions can be compared with the fine-step reference. One
    extra call frame per evolution; the only hook in an untraced run."""

    def __init__(self, loewner) -> None:
        self.last = None
        self._loewner = loewner
        self._original = original = loewner.evolve

        @functools.wraps(original)
        def evolve(*args, **kwargs):
            self.last = original(*args, **kwargs)
            return self.last

        loewner.evolve = evolve

    def close(self) -> None:
        self._loewner.evolve = self._original


def execute(cmd: Command, cli, capture: EvolutionCapture, tracer=None, clock=None) -> Outcome:
    """Run one command and check it; timed by ``clock`` when given, else by
    the wall clock alone."""
    if cmd.out is not None:
        shutil.rmtree(cmd.out, ignore_errors=True)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    capture.last = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), clock or contextlib.nullcontext():
            code = cli.main(cmd.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback that would reach the user: a failed command
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_command()
    oc = Outcome(clock.raw if clock else seconds, code, out.getvalue(), capture.last)
    if clock:
        oc.scaled = clock.seconds
    capture.last = None
    if code != 0:
        oc.problems.append(f"exit code {code}: {err.getvalue().strip()[-300:]}")
    else:
        run_check(cmd, oc)
    oc.evolution = None
    return oc


def run_check(cmd: Command, oc: Outcome) -> None:
    """Apply the command's check. A check that raises, on an artifact of an
    unexpected shape, marks the run failed instead of ending the benchmark."""
    try:
        cmd.check(cmd, oc)
    except Exception as exc:
        oc.problems.append(f"check raised {type(exc).__name__}: {exc}")


def command_seconds(runs_per_command: list[list[Outcome]], scaled: bool) -> list[float]:
    """Each command's time in one pass: the median of its runs."""
    return [statistics.median(oc.scaled if scaled else oc.seconds for oc in runs)
            for runs in runs_per_command]


def run_passes(commands, cli, capture, seconds: float, started: float, tracer=None, clock=None):
    """Repeat passes while time remains; returns a list of (runs of each
    command, per-layer trace or None) per pass. Traced passes run each command once, so that
    per-layer counts are per pass."""
    passes = []
    while True:
        first_span = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        outcomes = []
        for c in commands:
            runs = []
            for _ in range(1 if tracer else c.repeats):
                runs.append(execute(c, cli, capture, tracer, clock))
            outcomes.append(runs)
        passes.append((outcomes, tracer.take_pass(first_span) if tracer else None))
        now = time.perf_counter()
        if (now - started >= seconds or now - started + (now - t0) > PASS_BUDGET * seconds):
            return passes


def measure_setup(commands: list[Command], repeats: int) -> list[tuple[float, float]]:
    """Seconds from a fresh interpreter to the package imported and the
    workload's scene configs parsed, once per repeat, as (raw, scaled)."""
    configs = sorted({c.argv[c.argv.index("--config") + 1] for c in commands if "--config" in c.argv})
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def interpreter(*args: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", *args], cwd=ROOT, env=env,
                       check=True, capture_output=True, timeout=120)
        return time.perf_counter() - t0

    clock = ProbedClock(functools.partial(interpreter, "import numpy"), REFERENCE_IMPORT_S)
    times = []
    for _ in range(repeats):
        raw = interpreter(SETUP_PROBE, *configs)
        times.append((raw, raw * clock.factor()))
    return times


def environment() -> dict:
    import numpy

    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def command_stats(commands, passes, scaled: bool) -> dict:
    """Per-command median seconds, and the median and tail over commands."""
    seconds = [command_seconds(p[0], scaled) for p in passes]
    per_cmd = [statistics.median(s[j] for s in seconds) for j in range(len(commands))]
    ranked = sorted(per_cmd)
    k = len(ranked)
    # highest percentile with at least ten commands beyond it; the maximum
    # when the workload has fewer than eleven commands
    tail_rank = k - 11 if k >= 11 else k - 1
    return {
        "per_command": {c.label: t for c, t in zip(commands, per_cmd)},
        "p50": statistics.median(ranked),
        "tail": ranked[tail_rank],
        "tail_percentile": 100.0 * (tail_rank + 1) / k,
        "tail_beyond": k - 1 - tail_rank,
        "samples": k,
    }


def trace_report(base_wall: float, traced: list[dict], walls: list[float]) -> tuple[list[str], dict]:
    summary = median_pass(traced)
    wall = statistics.median(walls)
    lines = [
        f"untraced pass {base_wall:.3f} s, traced pass {wall:.3f} s (median of {len(walls)}), "
        f"tracing overhead {wall - base_wall:+.3f} s ({100 * (wall - base_wall) / base_wall:+.1f}%)",
        f"{'layer':34} {'self_s':>9} {'share':>7} {'incl_s':>9} {'calls':>9}",
    ]
    layers = summary["layers"]
    rows = sorted(layers.items(), key=lambda kv: -(kv[1]["self_s"] or 0.0))
    for name, row in rows:
        if row["self_s"] is None:
            lines.append(f"{name:34} {'-':>9} {'-':>7} {'-':>9} {row['calls']:>9.0f}")
        else:
            lines.append(f"{name:34} {row['self_s']:9.4f} {100 * row['self_s'] / wall:6.1f}% "
                         f"{row['inclusive_s']:9.4f} {row['calls']:>9.0f}")
    covered = sum((r["self_s"] or 0.0) for r in layers.values())
    lines.append(f"{'(benchmark, between spans)':34} {wall - covered:9.4f} {100 * (wall - covered) / wall:6.1f}%")
    flow = sum(layers.get(n, {"inclusive_s": 0.0})["inclusive_s"] for n in ("loewner.evolve", "loewner.trace_hull"))
    lines.append(f"loewner.evolve + loewner.trace_hull: {100 * flow / wall:.1f}% of the traced pass")
    return lines, {"untraced_wall_s": base_wall, "traced_wall_s": wall, **summary}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink the workload (smoke test)")
    args = ap.parse_args(argv)

    load_before, speed_before = os.getloadavg(), probe_seconds()
    try:
        import_slezero()
    except ImportError as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    from slezero import cli, loewner

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": environment()}
    commands = build_workload(args.workload, args.seed, args.tiny)
    # set-up is timed before and after the passes, so a slow spell of the
    # machine at either end does not decide the median
    setup = measure_setup(commands, SETUP_REPEATS // 2) if args.trace == 0 else []

    capture = EvolutionCapture(loewner)
    started = time.perf_counter()
    try:
        if args.trace == 0:
            clock = SampledClock()
            try:
                passes = run_passes(commands, cli, capture, args.seconds, started, clock=clock)
            finally:
                clock.close()
        else:
            base = run_passes(commands, cli, capture, 0.0, started)
            tracer = Tracer()
            tracer.install()
            try:
                passes = run_passes(commands, cli, capture, args.seconds, started, tracer)
            finally:
                tracer.uninstall()
    finally:
        capture.close()

    if args.trace == 0:
        setup += measure_setup(commands, SETUP_REPEATS - len(setup))
    checked = passes if args.trace == 0 else base + passes
    outcomes = [oc for p in checked for runs in p[0] for oc in runs]
    attempted = len(outcomes)
    failed = sum(1 for oc in outcomes if oc.problems)
    # traced passes keep raw seconds, comparable with the spans inside them
    scaled = args.trace == 0
    walls = [sum(command_seconds(p[0], scaled)) for p in passes]
    raw_walls = [sum(command_seconds(p[0], False)) for p in passes]
    stats = command_stats(commands, passes, scaled)
    for c in commands:
        print(f"{c.label:28} {stats['per_command'][c.label]:9.4f} s")
    problems = sorted({f"{c.label}: {msg}" for p in checked for c, runs in zip(commands, p[0])
                       for oc in runs for msg in oc.problems})
    for msg in problems:
        print("FAIL", msg)

    # worst accuracy over all commands, before the floors apply
    accuracy = {
        metric: max((getattr(oc, attr) for oc in outcomes if getattr(oc, attr) is not None), default=None)
        for metric, attr in (("drift_max", "drift"), ("hull_dist_max", "hull"), ("x_final_err", "x_err"))
    }
    if args.trace == 0:
        values = {
            "wall_s": statistics.median(walls),
            "scene_s.p50": stats["p50"],
            "scene_s.tail": stats["tail"],
            "setup_s": statistics.median(scaled_s for _, scaled_s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fail_ratio": max(failed / attempted, FLOORS["fail_ratio"]),
            **{m: max(FLOORS[m], v or 0.0) for m, v in accuracy.items()},
        }
        units = END_TO_END_UNITS
        print(f"passes {len(passes)}; scene_s.tail is p{stats['tail_percentile']:.2f} of "
              f"{stats['samples']} commands ({stats['tail_beyond']} beyond)")
    else:
        base_wall = sum(command_seconds(base[0][0], False))
        lines, report = trace_report(base_wall, [p[1] for p in passes], walls)
        for line in lines:
            print(line)
        values = report["metrics"]
        units = PER_LAYER_UNITS
        start = tracer.spans[0][1] if tracer.spans else 0.0
        record["trace_report"] = report
        record["spans"] = [[n, s - start, e - start, parent] for n, s, e, parent in tracer.spans]

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record.update(setup_s=setup, passes=len(passes), walls=walls, raw_walls=raw_walls, commands=stats,
                  raw_commands=command_stats(commands, passes, False), problems=problems,
                  metrics=metrics, unclamped_accuracy=accuracy, attempted=attempted, failed=failed)
    record["env"]["loadavg_before"] = load_before
    record["env"]["loadavg_after"] = os.getloadavg()
    record["env"]["speed_probe_s"] = [speed_before, probe_seconds()]
    print("env", json.dumps(record["env"], sort_keys=True))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=repr) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
