"""Timing that holds still on a shared machine whose speed wanders.

On a small VM that shares its host, the same pure-Python loop runs at one
speed for some seconds and at half of it for the next, in spells of a
fraction of a second to tens of seconds. A command of a few seconds takes
anything from its fast time to twice that, depending on how many slow spells
it met; raw seconds of the same command on the same machine then spread by a
quarter.

``SampledClock`` measures the machine's speed while the command runs: a
SIGALRM timer interrupts it every SAMPLE_INTERVAL_S and runs a probe of
SAMPLE_LOOPS iterations of a fixed pure-Python loop. The time between probes
is work done at the speed the probes on either side of it saw, so the
command's seconds at the reference speed are

    sum over intervals of  interval * REFERENCE_SAMPLE_S / (mean of its two probes)

where REFERENCE_SAMPLE_S is what the probe takes on a reference machine.
The probes run none of the package's code, and their own time is left out
of the command's; they add 3-5% to its wall time. The package is pure
Python, so the loop slows with it. On a 2-vCPU VM, over six runs each, raw
seconds of 1-3 s commands spread by 0.1-0.5 (IQR over median) and these by
0.03-0.05; those of 20-100 ms commands by 0.2-0.5 and 0.03-0.12.

``ProbedClock`` is the coarser form for work that runs in a child process
and cannot be interrupted from here: a probe before and after each run.
"""

from __future__ import annotations

import signal
import time
from typing import Callable

SAMPLE_INTERVAL_S = 0.005
SAMPLE_LOOPS = 400
# the probe's time on a 2-vCPU Xeon VM in its fast spells
REFERENCE_SAMPLE_S = 0.000135


def speed_probe(loops: int = 100_000) -> tuple[float, float]:
    """Start and end of a fixed pure-Python loop of complex arithmetic, list
    and dict updates and a sort: how fast the machine runs code like the
    package's now."""
    t0 = time.perf_counter()
    values, buckets = [], {}
    for k in range(loops):
        z = complex(k, 1.0)
        values.append(abs(z * z - 1))
        buckets[k % 97] = values[-1]
    values.sort()
    return t0, time.perf_counter()


def probe_seconds(loops: int = 100_000) -> float:
    t0, t1 = speed_probe(loops)
    return t1 - t0


class SampledClock:
    """Context manager that times its block twice: ``raw`` is the block's
    seconds without the probes, ``seconds`` the same at the reference speed.

    Installs its SIGALRM handler for the life of the object; ``close``
    restores the previous one. Main thread only.
    """

    def __init__(self) -> None:
        self.raw = self.seconds = 0.0
        self.probes = 0
        self._marks: list[tuple[float, float]] = []
        self._armed = False
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            self._marks.append(speed_probe(SAMPLE_LOOPS))

    def __enter__(self) -> "SampledClock":
        self._marks = [speed_probe(SAMPLE_LOOPS)]
        self._armed = True
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._armed = False
        end = time.perf_counter()
        marks = self._marks
        inner = marks[1:]
        marks.append(speed_probe(SAMPLE_LOOPS))
        # work runs from the start to the first probe, between probes, and
        # from the last probe to the end
        starts = [self._start] + [b for _, b in inner]
        ends = [a for a, _ in inner] + [end]
        durations = [b - a for a, b in marks]
        self.raw = self.seconds = 0.0
        for j, (lo, hi) in enumerate(zip(starts, ends)):
            self.raw += hi - lo
            self.seconds += (hi - lo) * 2 * REFERENCE_SAMPLE_S / (durations[j] + durations[j + 1])
        self.probes = len(marks)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class ProbedClock:
    """Runs a probe between timed runs and gives each run the factor that
    scales its seconds to a machine on which the probe takes ``reference``."""

    def __init__(self, probe: Callable[[], float], reference: float) -> None:
        self.probe, self.reference = probe, reference
        self.last = probe()

    def factor(self) -> float:
        """For the run that just ended: probes again and compares the mean of
        this probe and the one before the run with the reference."""
        now = self.probe()
        factor = 2 * self.reference / (self.last + now)
        self.last = now
        return factor
