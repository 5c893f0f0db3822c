"""A speed probe that scales measured time to a reference host speed.

A shared host can run the benchmark's process at speeds up to 2x apart,
switching every few seconds and drifting over minutes, so raw times of the
same code spread past any useful bound.  While a ``SpeedProbe`` is active, a
CPU-time timer (``ITIMER_PROF``, delivered in the main thread: no extra
thread) interrupts the workload every ``INTERVAL_S`` of CPU time and times a
fixed probe: pure-Python tuple hashing, dictionary look-ups and integer
arithmetic, finsys's own kind of work, on a few KiB that stay in the core's
caches.  It tracks the core's speed, not the state of caches the workload
shares with it.  Each stretch of workload time between two probes is scaled by
``REFERENCE_S / probe time`` (the mean of its two neighbouring probes).

``clocks()`` returns two clocks that stand still while a probe runs: raw
seconds, and seconds at the reference speed.  A change to finsys moves the
workload time and leaves the probe alone, so scaled times compare commits;
the probe's own time is excluded from both clocks.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05          # CPU time between probes
ROUNDS = 6                 # passes over the probe's keys: about 0.25 ms
# Probe time that counts as the reference speed: about the median probe time
# during a finsys run on the 2-vCPU Xeon host the benchmark was defined on,
# so reference seconds there read close to raw seconds.
REFERENCE_S = 2.5e-4


class SpeedProbe:
    def __init__(self):
        self.keys = [(a, b) for a in range(16) for b in range(16)]
        self.table = {k: (k[0] * 31 + k[1]) % 97 for k in self.keys}
        self.probes = 0
        self.probe_s = 0.0
        self._raw = self._scaled = 0.0
        self._factor = 1.0
        self._last = time.perf_counter()
        self._previous_handler = None

    def _probe(self) -> float:
        keys, table, total = self.keys, self.table, 0
        start = time.perf_counter()
        for _ in range(ROUNDS):
            for key in keys:
                total += table[key] * key[1] % 7
        return time.perf_counter() - start

    def _tick(self, signum=None, frame=None):
        now = time.perf_counter()
        took = self._probe()
        factor = REFERENCE_S / took
        dt = now - self._last
        self._raw += dt
        self._scaled += dt * (self._factor + factor) / 2
        self._factor = factor
        self.probes += 1
        self.probe_s += took
        self._last = time.perf_counter()

    def clocks(self) -> tuple[float, float]:
        """(raw seconds, reference seconds) of workload time so far."""
        dt = time.perf_counter() - self._last
        return self._raw + dt, self._scaled + dt * self._factor

    def __enter__(self):
        self._factor = REFERENCE_S / self._probe()
        self._last = time.perf_counter()
        self._previous_handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous_handler)
        return False


def plain_clocks() -> tuple[float, float]:
    """The clocks without a probe: raw and reference seconds coincide."""
    now = time.perf_counter()
    return now, now
