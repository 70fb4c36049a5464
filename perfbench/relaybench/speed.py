"""Host speed, measured by a fixed calibration kernel while a body runs.

A shared host's speed drifts by tens of percent within seconds and by up to
a factor of 3 over an hour (other tenants, frequency scaling), and every
part of a body slows together. So while a body runs, a timer interrupts it
every ``interval_s`` seconds and runs a fixed kernel of the benchmark's own
(a probe, timed in CPU time). The program time between two probes is
scaled by ``NOMINAL_S / (mean of the two probe times)``; summed over the body this is
its time at the reference speed, in seconds. Probe time is never counted.
The kernel never calls relaygeom, so a change to the program moves the
scaled time as much as the raw time.

The kernel does the kind of work relaygeom does: a Philox stream per trial,
a Poisson field of ~628 points, thinning, squared distances and a stable
argsort (Monte Carlo); short Horner loops on 30-point arrays and a heap of
panels (adaptive quadrature).
"""

from __future__ import annotations

import heapq
import math
import resource
import signal
import statistics
import time

import numpy as np

#: The reference speed: roughly the kernel's CPU time on the development host
#: (2 vCPU Intel Xeon, Python 3.11, numpy 2.4), where it ranged 0.008-0.02 s.
#: Only the ratio to it matters; it is fixed so that scaled times of
#: different runs and commits are comparable.
NOMINAL_S = 0.012
KERNEL_TRIALS = 40
KERNEL_PANELS = 200
#: Kernel runs per probe; a probe reports their median.
PROBE_REPS = 3
_COEF = tuple((-1.0) ** k / (math.factorial(k) * (2 * k + 1)) for k in range(18))[::-1]
_NODES = np.linspace(0.05, 1.95, 30)


def kernel() -> float:
    """Fixed work shaped like relaygeom's; returns a checksum."""
    acc = 0.0
    for t in range(KERNEL_TRIALS):
        rng = np.random.Generator(np.random.Philox(key=20130611, counter=[0, 0, 0, t]))
        n = int(rng.poisson(628.0))
        radii = 20.0 * np.sqrt(rng.random(n))
        angles = 2.0 * math.pi * rng.random(n)
        keep = rng.standard_exponential(n) >= 0.01 * (1.0 + radii * radii)
        r = radii[keep]
        d2 = r * r + 25.0 - 10.0 * r * np.cos(angles[keep])
        order = np.argsort(d2, kind="stable")
        acc += float(d2[order[:3]].sum())
    heap: list = []
    for i in range(KERNEL_PANELS):
        z = _NODES * _NODES * (1.0 + 1e-3 * i)
        poly = np.full_like(z, _COEF[0])
        for c in _COEF[1:]:
            poly = poly * z + c
        value = float(poly @ _NODES)
        heapq.heappush(heap, (-abs(value), i, value))
        if len(heap) > 16:
            acc += heapq.heappop(heap)[2]
    return acc


def timed_kernel() -> float:
    """CPU time of this thread running the kernel once.

    CPU time, not wall time: a probe that waits for a core its own pool
    workers hold reads the same, while a slower host reads slower.
    """
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


def probe(reps: int = PROBE_REPS) -> float:
    """Median of ``reps`` :func:`timed_kernel` runs."""
    return statistics.median(timed_kernel() for _ in range(reps))


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class ReferenceClock:
    """Times one body at a time at the reference speed.

    ``start()`` probes and arms a ``SIGALRM`` interval timer; each alarm
    probes once, between two bytecodes of the main thread (a pool wait is
    interrupted and resumed). ``stop()`` disarms it, probes, and returns
    ``(wall, cpu, raw_wall, raw_cpu)`` for the body. CPU time includes reaped
    children, which are only counted when a pool is shut down, so ``cpu``
    is ``raw_cpu`` scaled by the body's mean factor ``wall / raw_wall``.
    Pool workers do not inherit the timer.
    """

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        # Warm-up: first-use costs of Philox and numpy paths.
        kernel()
        kernel()
        self.probes: list[float] = []
        self._busy = False

    def _probe(self) -> None:
        self._busy = True
        w0, c0 = time.perf_counter(), cpu_seconds()
        probe_s = timed_kernel()
        self._probe_cpu += cpu_seconds() - c0
        if self._last is not None:
            self._scaled += (w0 - self._t) * NOMINAL_S / (0.5 * (self._last + probe_s))
            self._raw += w0 - self._t
        self._last = probe_s
        self.probes.append(probe_s)
        self._t = time.perf_counter()
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # an alarm during a slow probe is dropped
            self._probe()

    def start(self) -> None:
        self._last = None
        self._scaled = self._raw = self._probe_cpu = 0.0
        self._c0 = cpu_seconds()
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> tuple[float, float, float, float]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        raw_cpu = cpu_seconds() - self._c0 - self._probe_cpu
        return self._scaled, raw_cpu * self._scaled / self._raw, self._raw, raw_cpu
