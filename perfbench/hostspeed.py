"""Host-speed correction for the end-to-end times.

On a shared host, the same centralized report can take 3.3 s or 6.6 s within
two minutes. Other tenants change the speed of the core the benchmark runs
on, in phases of seconds to minutes. ``SpeedClock.measure`` therefore samples
the host's speed while a unit of work runs. Every 50 ms of process CPU time,
a SIGPROF handler in the benchmark's own thread times a small fixed probe. A
probe also runs before and after the unit. The unit's own time is its wall
time minus the time spent in probes. It is scaled by the probe's reference
time divided by the mean probe time, so it reads in seconds on a host that
runs the probe in its reference time.

Each workload uses a probe made of the same kind of interpreter work as its
hot path, because a slow phase slows different work by different factors:
JSON round trips for the pipeline, short SHA-256 digests for the protocol.
Parent and change use the same probes, so the correction cancels when they
are compared. The uncorrected times are kept in the run details.
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
import time
from typing import Callable

TICK_CPU_S = 0.05


def json_probe() -> float:
    """Seconds to round-trip 300 trace-like records through JSON."""
    t0 = time.perf_counter()
    for i in range(300):
        record = {"t": i * 0.5, "kind": "BLE_RSS", "value": -60.0 - i % 7, "src": f"dev{i:05d}", "obs": None}
        json.loads(json.dumps(record))
    return time.perf_counter() - t0


def hash_probe() -> float:
    """Seconds to derive 1,000 temp-id-like digests."""
    t0 = time.perf_counter()
    for i in range(1000):
        hashlib.sha256(f"dev{i:05d}|{i}".encode("utf-8")).hexdigest()[:16]
    return time.perf_counter() - t0


# Median probe times on the 2-vCPU VM (Python 3.11) where the benchmark was
# defined.
REFERENCE_S = {json_probe: 0.003, hash_probe: 0.0021}


class SpeedClock:
    """Times calls and corrects each for the host speed measured around and
    during it."""

    def __init__(self, probe: Callable[[], float], inside: bool = True) -> None:
        """``inside=False`` probes only before and after each unit, so that
        no probe time lands in a traced span."""
        self.probe = probe
        self.reference_s = REFERENCE_S[probe]
        self.tick_s = TICK_CPU_S if inside else 0.0
        self.samples: list[float] = []

    def measure(self, fn: Callable, *args):
        """Returns (result, seconds outside probes, corrected seconds)."""
        samples = [self.probe()]
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: samples.append(self.probe()))
        signal.setitimer(signal.ITIMER_PROF, self.tick_s, self.tick_s)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            inside = len(samples)
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
        busy = wall - sum(samples[1:inside])
        samples.append(self.probe())
        self.samples += samples
        return result, busy, busy * self.reference_s / statistics.mean(samples)

