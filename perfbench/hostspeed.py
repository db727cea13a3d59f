"""Host-speed probe: a short fixed loop timed every 100 ms of a timed call.

The shared VM this benchmark targets changes speed by 20-80% in phases
that last from a fraction of a second to minutes, and each of its two
vCPUs does so on its own, so raw times of identical runs disagree by more
than any bound.  While a run makes its timed call, :class:`SpeedProbe`
interrupts it every ``PROBE_INTERVAL_S`` (SIGALRM, handled between
bytecodes in the main thread) and times :func:`probe_loop`.  The mean of
those timings says how fast the vCPU the run was on ran during the call;
``run.py`` scales the run's times by ``PROBE_NOMINAL_S`` over that mean,
so they are reported in seconds at the host speed on which the loop takes
``PROBE_NOMINAL_S``.  The probes' own time is subtracted from the call's
time first.  Set-up is scaled by the square root of that ratio
(``SETUP_SENSITIVITY``), because starting the interpreter and importing
the program slow down much less in the host's slow phases than
interpreted loops do.

The loop is a small write-back LRU cache over a fixed address stream:
objects, attribute and dict access, method calls and integer
arithmetic, the instruction mix of the program's scalar simulator.  It
does not import the program, so a change to the program cannot change
the probe.
"""

from __future__ import annotations

import signal
import time
from typing import Dict, List

#: Time between two probes of a run.
PROBE_INTERVAL_S = 0.1
#: Median time of :func:`probe_loop` on a quiet 2-vCPU cloud VM (Intel
#: Xeon, Python 3.11.7): the host speed times are reported at.
PROBE_NOMINAL_S = 0.0007
#: Exponent on the probe ratio for set-up times.  In slow phases in which
#: the probe took 1.7-2.0 times as long, interpreter start and imports took
#: 1.25-1.55 times as long.  Over sets of six to ten invocations of each
#: workload, the largest set-up median was 1.11-1.27 times the smallest
#: when scaled with 0.5, 1.24-1.68 times unscaled and 1.14-1.45 times with
#: the full ratio.
SETUP_SENSITIVITY = 0.5


class _Line:
    __slots__ = ("tag", "dirty", "stamp")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag = tag
        self.dirty = False
        self.stamp = stamp


class _Cache:
    def __init__(self, sets: int, ways: int) -> None:
        self.sets: List[Dict[int, _Line]] = [{} for _ in range(sets)]
        self.ways = ways
        self.mask = sets - 1
        self.shift = sets.bit_length() - 1
        self.hits = self.misses = self.writebacks = 0

    def access(self, address: int, write: bool, now: int) -> None:
        lines = self.sets[address & self.mask]
        tag = address >> self.shift
        line = lines.get(tag)
        if line is None:
            self.misses += 1
            if len(lines) >= self.ways:
                victim = min(lines.values(), key=_stamp)
                if victim.dirty:
                    self.writebacks += 1
                del lines[victim.tag]
            line = lines[tag] = _Line(tag, now)
        else:
            self.hits += 1
        line.stamp = now
        if write:
            line.dirty = True


def _stamp(line: _Line) -> int:
    return line.stamp


def probe_loop() -> None:
    """The fixed loop: 800 accesses to a 128-set, 4-way cache."""
    cache = _Cache(sets=128, ways=4)
    state = 2012
    for now in range(800):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        cache.access((state >> 5) & 0x3FFF, bool(state & 0x10), now)


class SpeedProbe:
    """Probes the host speed every ``PROBE_INTERVAL_S`` from ``start`` to ``stop``.

    ``timings`` holds each probe's timed loop, ``overhead_s`` the total
    time the probes took from the run.
    """

    def __init__(self) -> None:
        self.timings: List[float] = []
        self.overhead_s = 0.0

    def _tick(self, _signum, _frame) -> None:
        # The first loop brings the probe's code and data back into the
        # caches the run has just used, so that the timed second one
        # measures the vCPU rather than what the run left in its caches.
        started = time.perf_counter()
        probe_loop()
        warm = time.perf_counter()
        probe_loop()
        ended = time.perf_counter()
        self.timings.append(ended - warm)
        self.overhead_s += ended - started

    def start(self) -> None:
        probe_loop()  # untimed, so the first probe does not time bytecode warm-up
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
