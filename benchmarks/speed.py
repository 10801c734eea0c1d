"""Machine-speed probe for the decqlearn benchmark.

The benchmark's host is a shared VM whose speed drifts: the same work runs
up to about 2x slower for spells of seconds to a minute, in CPU time as well
as in wall time, so the slowdown is in the core itself and not in waiting.
Spells that long move a whole run, and no number of calls within a run
averages them out.

So while calls are timed, a timer signal runs a small fixed kernel every
``INTERVAL_S`` in this process's main thread. The kernel does not touch
decqlearn and does the same kind of work as the program: a pure-Python
tabular update loop with numpy scalar reads, and small dense linear solves.
A call's time is scaled by ``REFERENCE_PROBE_S`` over the mean kernel time
of its round, which gives the seconds the call would have taken at the
reference speed. The raw times are printed alongside. A change to the
program moves the call times and leaves the kernel alone, so it moves the
scaled times by the same share. The times keep the kernel's own share, about
3% of a single-process call; a call that runs in worker processes goes on
while the kernel runs.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The kernel's time on the reference machine (2-vCPU Intel Xeon VM, Python 3,
# numpy) in a fast spell. Scaled times read as seconds at that speed; only
# their ratios between runs matter.
REFERENCE_PROBE_S = 0.004
INTERVAL_S = 0.2

_RNG = np.random.default_rng(20230806)
_STATES, _JOINT = 8, 27
_COSTS = _RNG.uniform(0.0, 10.0, size=(_STATES, _JOINT))
_VISITS = list(zip(_RNG.integers(0, _STATES, size=2000).tolist(), _RNG.integers(0, _JOINT, size=2000).tolist()))
_KERNELS = _RNG.dirichlet(np.ones(_STATES), size=(48, _STATES))
_EYE = np.eye(_STATES)


def kernel() -> float:
    table = np.zeros((_STATES, _JOINT))
    counts: dict[int, int] = {}
    total = 0.0
    for x, a in _VISITS:
        row = table[x]
        target = _COSTS[x, a] + 0.8 * float(row.min())
        row[a] += 0.05 * (target - row[a])
        counts[a] = counts.get(a, 0) + 1
        total += row[a]
    for p in _KERNELS:
        total += float(np.linalg.solve(_EYE - 0.8 * p, _COSTS[:, 0]).sum())
    return total


def kernel_cpu_s() -> float:
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


class Speedometer:
    """Runs ``kernel`` on a timer signal while active; ``samples`` holds
    the CPU time of each run. CPU time, because when worker processes keep
    every core busy the kernel also waits for a core, and that wait is not a
    slower machine."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(kernel_cpu_s())

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, since: int) -> float:
        """Reference speed over the speed of the samples from ``since`` on
        (all samples when none have come since)."""
        recent = self.samples[since:] or self.samples or [kernel_cpu_s()]
        return REFERENCE_PROBE_S / statistics.fmean(recent)
