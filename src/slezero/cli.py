"""Command-line surface.

Subcommands:
    run     --config FILE [--out DIR] [--T X] [--dt X] [--step X] [--max-arc X]
    verify  [--config FILE] [--suite all|invariance|motion|equivalence] [--seed N]
    preset  list | show NAME

Exit codes: 0 success, 1 validation failure, 2 numerical tolerance breach,
3 runtime integration failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import runner, scene as scene_mod
from .errors import (
    ConfigError,
    InversionFailureError,
    LaunchError,
    SingularityProximityError,
    SleZeroError,
    StepBudgetError,
    WindingUndefinedError,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TOLERANCE = 2
EXIT_RUNTIME = 3

_RUNTIME_ERRORS = (
    InversionFailureError,
    LaunchError,
    SingularityProximityError,
    StepBudgetError,
    WindingUndefinedError,
)


class _PathError(Exception):
    """The config cannot be read, or the artifact directory not written."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for tolerance breaches
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_VALIDATION)


def _build_parser() -> _Parser:
    parser = _Parser(prog="slezero", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="produce the artifacts a scene requests")
    run_p.add_argument("--config", required=True, help="scene YAML file")
    run_p.add_argument("--out", default="out", help="artifact directory (default: out)")
    _add_overrides(run_p)

    verify_p = sub.add_parser("verify", help="replay conservation checks on a scene")
    verify_p.add_argument(
        "--config", help="scene YAML file (default: built-in single-curve scene)"
    )
    verify_p.add_argument(
        "--suite",
        default="all",
        choices=("all",) + runner.SUITES,
        help="which checks to run",
    )
    verify_p.add_argument("--seed", type=int, default=1234, help="seed for sampled checks")
    _add_overrides(verify_p)

    preset_p = sub.add_parser("preset", help="list or print built-in scenes")
    preset_sub = preset_p.add_subparsers(dest="preset_command", required=True)
    preset_sub.add_parser("list", help="names of built-in scenes")
    show_p = preset_sub.add_parser("show", help="print a scene as config YAML")
    show_p.add_argument("name", help="preset name")
    return parser


def _positive(text: str) -> float:
    # the rule the same fields follow in a config file
    try:
        return scene_mod.parse_number(text, positive=True)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--T", type=_positive, help="override evolution horizon")
    p.add_argument("--dt", type=_positive, help="override evolution step")
    p.add_argument("--step", type=_positive, help="override trace arc-length step")
    p.add_argument("--max-arc", type=_positive, help="override trace arc-length budget")


def _load_scene(args) -> scene_mod.SceneConfig:
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            raise _PathError(f"cannot read {path}") from None
        scene = scene_mod.parse_config(text)
    else:
        scene = scene_mod.single_curve_scene()
    lo = scene.loewner
    if args.T is not None:
        lo = replace(lo, T=args.T)
    if args.dt is not None:
        lo = replace(lo, dt=args.dt)
    tr = scene.trace
    if args.step is not None:
        tr = replace(tr, step=args.step)
    if args.max_arc is not None:
        tr = replace(tr, max_arc_length=args.max_arc)
    return replace(scene, loewner=lo, trace=tr)


def _cmd_run(args) -> int:
    scene = _load_scene(args)
    try:
        result = runner.run(scene, args.out)
    except OSError:
        raise _PathError(f"cannot write {args.out}") from None
    for path in result.written:
        print(path)
    if result.evolution is not None and result.evolution.collision is not None:
        lo, hi = result.evolution.collision
        print(f"note: driving collision bracketed in [{lo:.9g}, {hi:.9g}]")
    return EXIT_OK


def _cmd_verify(args) -> int:
    scene = _load_scene(args)
    ok, lines = runner.verify(scene, args.suite, args.seed)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_TOLERANCE


def _cmd_preset(args) -> int:
    if args.preset_command == "list":
        for name in scene_mod.PRESET_NAMES:
            print(name)
        return EXIT_OK
    try:
        preset = scene_mod.preset(args.name)
    except KeyError:
        print(f"unknown preset {args.name!r}", file=sys.stderr)
        return EXIT_VALIDATION
    sys.stdout.write(scene_mod.serialize_config(preset))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_preset(args)
    except ConfigError as exc:
        print(f"config error:\n{exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _PathError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except _RUNTIME_ERRORS as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except SleZeroError as exc:
        print(f"invalid scene: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
