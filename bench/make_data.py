"""Regenerate the benchmark's recorded data under bench/data/.

    python3 bench/make_data.py presets      # fine-step x references, fig1-3
    python3 bench/make_data.py many         # fine-step x references, MANY_POOL scenes
    python3 bench/make_data.py field        # analysis and cost of FIELD_POOL scenes

The references integrate the driving flow at REFERENCE_DT, 100x finer than
the finest step any workload uses, up to a comparison time before any
collision. The field record holds what each scene's analysis report says
(terminal kind per trajectory, converging-pair and spiral counts) and the
scene's cost: the shortest of COST_ROUNDS runs timed as the benchmark times
them (clock.SampledClock), taken round-robin over all scenes.
The benchmark only ranks scenes by cost. Scenes whose command fails, or
whose flow collides before the comparison time, are left out of the pools
and listed under "excluded".
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import multiprocessing
import shutil
import sys
import tempfile
from pathlib import Path

import scenes
from clock import SampledClock
from run import DATA, ROOT, WORK, import_slezero

REFERENCE_DT = 1e-6
COST_ROUNDS = 3
# scene ids 0..N-1 of each family; the benchmark draws its commands from these
MANY_POOL = 32
FIELD_POOL = 256
# fig1's driving points collide at t~0.04865; compare before that
PRESET_TIMES = {"fig1": 0.045, "fig2": 0.1, "fig3": 0.1}


def _x_at(divisor, t: float) -> list[float]:
    from slezero import loewner

    ev = loewner.evolve(divisor, t, REFERENCE_DT)
    if ev.collision is not None or abs(ev.final.t - t) > 1e-12:
        return []
    return list(ev.final.x)


def make_presets() -> dict:
    from slezero import conformal, divisors, scene

    out = {}
    for name, t in PRESET_TIMES.items():
        flow, _ = conformal.transport(scene.preset(name).divisor, divisors.HALF_PLANE)
        out[name] = {"t": t, "x": _x_at(flow, t)}
        print(name, out[name], flush=True)
    return {"dt": REFERENCE_DT, "scenes": out}


def _many_x(scene_id: int) -> list[float]:
    import_slezero()
    from slezero import scene

    x = _x_at(scene.parse_config(scenes.many_scene(scene_id)).divisor, scenes.MANY_T)
    print(scene_id, "ok" if x else "excluded", flush=True)
    return x


def make_many() -> dict:
    # each reference takes about a minute; use both cores of a small machine
    with multiprocessing.get_context("spawn").Pool(2) as workers:
        xs = workers.map(_many_x, range(MANY_POOL), chunksize=1)
    return {
        "dt": REFERENCE_DT,
        "scenes": {str(i): {"t": scenes.MANY_T, "x": x} for i, x in enumerate(xs) if x},
        "excluded": [i for i, x in enumerate(xs) if not x],
    }


def make_field() -> dict:
    from slezero import cli

    pool, excluded = {}, []
    WORK.mkdir(exist_ok=True)
    clock = SampledClock()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for round_ in range(COST_ROUNDS):
            for i in range(FIELD_POOL):
                if i in excluded:
                    continue
                config = Path(tmp) / f"scene{i}.yaml"
                config.write_text(scenes.field_scene(i))
                out = Path(tmp) / "out"
                shutil.rmtree(out, ignore_errors=True)
                gc.collect()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), clock:
                    code = cli.main(["run", "--config", str(config), "--out", str(out)])
                seconds = clock.seconds
                if code != 0:
                    excluded.append(i)
                    print(i, "excluded, exit", code, flush=True)
                elif round_ == 0:
                    report = json.loads((out / "analysis_report.json").read_text())
                    pool[str(i)] = {
                        "terminals": [t["terminal"] for t in report["trajectories"]],
                        "pairs": len(report["converging_pairs"]),
                        "spirals": len(report["spirals"]),
                        "cost_s": seconds,
                    }
                else:
                    pool[str(i)]["cost_s"] = min(pool[str(i)]["cost_s"], seconds)
            print("round", round_, flush=True)
    clock.close()
    return {"scenes": pool, "excluded": excluded}


def main(argv: list[str]) -> int:
    import_slezero()
    what = argv[0] if len(argv) == 1 else ""
    if what == "presets":
        data = make_presets()
    elif what == "many":
        data = make_many()
    elif what == "field":
        data = make_field()
    else:
        print(__doc__, file=sys.stderr)
        return 1
    DATA.mkdir(exist_ok=True)
    (DATA / f"{what}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print("wrote", (DATA / f"{what}.json").relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
