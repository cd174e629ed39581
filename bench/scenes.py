"""Seeded scene families for the benchmark, emitted as scene YAML.

The divisor generators follow the family of the test-suite generators
(tests/conftest.py) but are written out here so the benchmark's inputs do
not change when the tests do. Every scene is identified by a family name and
an integer id; the id alone fixes the scene, so recorded expectations and
fine-step references can be stored per id.
"""

from __future__ import annotations

import cmath
import math
import random

FIELD_OUTPUTS = "[field_svg, trajectories_csv, analysis_report]"
MANY_GROWTH = 10
MANY_OBSERVERS = 128
MANY_T = 0.05
MANY_DT = 1e-4


def literal(z: complex) -> str:
    """Complex literal in the scene syntax, exact under float round-trip."""
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _distinct_reals(rng: random.Random, n: int, lo: float, hi: float, min_gap: float) -> list[float]:
    out: list[float] = []
    while len(out) < n:
        x = rng.uniform(lo, hi)
        if all(abs(x - y) >= min_gap for y in out):
            out.append(x)
    return out


def _half_plane(rng: random.Random, n: int, spread: float, gap: float):
    """Growth points and marked (point, charge) pairs of a half-plane divisor.

    Up to two conjugate interior pairs and up to two real points with
    half-integer charges, balanced at infinity so that the charges plus the
    growth count sum to -2.
    """
    xs = _distinct_reals(rng, n, -spread, spread, gap)
    marked: list[tuple[str, str]] = []
    doubled = 0  # running sum of 2*charge, kept integer
    for _ in range(rng.randint(0, 2)):
        re = rng.uniform(-2.0, 2.0)
        im = rng.uniform(0.5, 2.0)
        k = rng.choice([-4, -3, -2, -1, 1, 2])
        marked.append((literal(complex(re, im)), f"{k}/2"))
        marked.append((literal(complex(re, -im)), f"{k}/2"))
        doubled += 2 * k
    for x in _distinct_reals(rng, rng.randint(0, 2), -2 * spread, 2 * spread, 0.4):
        if any(abs(x - g) < gap for g in xs):
            continue
        k = rng.choice([-4, -3, -2, -1, 1, 2])
        marked.append((repr(x), f"{k}/2"))
        doubled += k
    remainder = 2 * (-2 - n) - doubled
    if remainder == 0:
        marked.append((repr(3.0 * spread), "-1"))
        remainder = 2
    marked.append(("inf", f"{remainder}/2"))
    return [repr(x) for x in xs], marked


def _disk(rng: random.Random, n: int):
    """Growth points and marked pairs of a disk divisor: inversion-paired
    interior points plus a balancing point on the circle."""
    # keep clear of 2*pi so wrap-around cannot defeat the angle separation
    angles = _distinct_reals(rng, n + 2, 0.0, 2.0 * math.pi - 0.3, 0.25)
    growth = [literal(cmath.exp(1j * a)) for a in angles[:n]]
    marked: list[tuple[str, str]] = []
    doubled = 0
    for _ in range(rng.randint(0, 2)):
        q = rng.uniform(0.25, 0.8) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        k = rng.choice([-4, -3, -2, -1, 1, 2])
        marked.append((literal(q), f"{k}/2"))
        marked.append((literal(1.0 / q.conjugate()), f"{k}/2"))
        doubled += 2 * k
    remainder = 2 * (-2 - n) - doubled
    if remainder == 0:
        # a zero balancing charge would be degenerate; split it in two
        marked.append((literal(cmath.exp(1j * angles[n + 1])), "-1"))
        remainder = 2
    marked.append((literal(cmath.exp(1j * angles[n])), f"{remainder}/2"))
    return growth, marked


def _yaml(name: str, domain: str, growth, marked, extra: str) -> str:
    lines = [f"name: {name}", f"domain: {domain}", "growth:"]
    lines += [f'  - "{g}"' for g in growth]
    lines.append("marked:")
    for point, charge in marked:
        lines += [f'  - point: "{point}"', f'    charge: "{charge}"']
    return "\n".join(lines) + "\n" + extra


def field_scene(scene_id: int) -> str:
    """Quadratic-only scene: 1-4 growth points on the half-plane or disk."""
    rng = random.Random(f"field:{scene_id}")
    n = rng.randint(1, 4)
    if rng.random() < 0.5:
        growth, marked = _half_plane(rng, n, spread=3.0, gap=0.3)
        domain = "half_plane"
    else:
        growth, marked = _disk(rng, n)
        domain = "disk"
    return _yaml(f"field-{scene_id}", domain, growth, marked, f"outputs: {FIELD_OUTPUTS}\n")


def many_scene(scene_id: int) -> str:
    """Flow-only scene: ten growth points and 128 tracked observers.

    Growth points are spread over [-5, 5] at least 0.5 apart and observers
    sit at height 1-4, so neither the gap cap nor the observer cap shortens
    the steps and every scene takes the same number of flow steps.
    """
    rng = random.Random(f"many:{scene_id}")
    growth, marked = _half_plane(rng, MANY_GROWTH, spread=5.0, gap=0.5)
    observers = [
        literal(complex(rng.uniform(-6.0, 6.0), rng.uniform(1.0, 4.0)))
        for _ in range(MANY_OBSERVERS)
    ]
    extra = (
        f"loewner:\n  T: {MANY_T!r}\n  dt: {MANY_DT!r}\n  tracked:\n"
        + "".join(f'    - "{z}"\n' for z in observers)
        + "outputs: [motion_report]\n"
    )
    return _yaml(f"many-{scene_id}", "half_plane", growth, marked, extra)


def preset_scene(name: str) -> str:
    """A shipped figure scene exactly as the package defines it."""
    return f"preset: {name}\n"
