"""Smoke test of the benchmark itself; exits non-zero on the first failure.

    python3 bench/smoke.py

Runs every workload at its --tiny size with tracing off and on, and checks
that the result line carries exactly the metrics BENCHMARK.json names, each
with its unit. Then runs one command of each kind, corrupts an artifact (or
the printed verdict), and checks that the correctness gate notices.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fail(message: str) -> None:
    print("FAIL", message)
    sys.exit(1)


def check_result_lines() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                fail(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: {proc.stdout[-2000:]}")
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                fail(f"{workload} trace={trace}: metrics {got}, expected {want}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                fail(f"{workload} trace={trace}: non-numeric metric")
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def corrupted(workload: str, command_label: str, corrupt) -> None:
    """Run one command, corrupt what it produced, and expect the gate to trip."""
    from slezero import cli, loewner

    cmd = next(c for c in run.build_workload(workload, 7, tiny=True) if c.label.startswith(command_label))
    capture = run.EvolutionCapture(loewner)
    try:
        outcome = run.execute(cmd, cli, capture)
    finally:
        capture.close()
    if outcome.problems:
        fail(f"{cmd.label} failed before corruption: {outcome.problems}")
    again = run.Outcome(outcome.seconds, 0, outcome.stdout, None)
    corrupt(cmd, again)
    run.run_check(cmd, again)
    if not again.problems:
        fail(f"{cmd.label}: corrupted output passed the gate")
    print(f"ok  {cmd.label}: corruption caught ({again.problems[0][:70]})")


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def check_gates() -> None:
    run.import_slezero()
    corrupted("presets", "run fig1",
              lambda c, o: (c.out / "field.svg").write_text((c.out / "field.svg").read_text() + " "))
    corrupted("presets", "run fig3",
              lambda c, o: _edit_json(c.out / "analysis_report.json", lambda d: d["spirals"].clear()))
    corrupted("presets", "run fig2",
              lambda c, o: _edit_json(c.out / "motion_report.json",
                                      lambda d: d["reports"][0].update(max_rel_drift=1e-3)))
    corrupted("verify", "verify fig1",
              lambda c, o: setattr(o, "stdout", o.stdout.replace("ok:", "FAILED:")))
    corrupted("field", "run field",
              lambda c, o: _edit_json(c.out / "analysis_report.json",
                                      lambda d: d["trajectories"][0].update(terminal="corrupted")))
    corrupted("many-curves", "run many",
              lambda c, o: (c.out / "motion_report.json").unlink())
    corrupted("many-curves", "run many",
              lambda c, o: _edit_json(c.out / "motion_report.json", lambda d: d.pop("reports")))


if __name__ == "__main__":
    check_gates()
    check_result_lines()
    print("smoke test passed")
