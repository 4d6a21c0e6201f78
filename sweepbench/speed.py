"""Host speed probe: how fast this process's CPU runs right now.

On a shared host the same sweep can take twice as long from one minute
to the next, because other tenants slow the CPU it runs on.  The probe
is a thread that, every ``PERIOD`` seconds, times a fixed snippet of
interpreter work (dictionary and list lookups over a 4096-entry table,
like the simulator's).  Its interquartile mean time over an interval,
relative to ``REFERENCE_S``, is the host's slowdown during that
interval, so

    reference time = (wall time - probe time) / slowdown

is what the interval would have taken on the host at reference speed.
The probe takes about 3% of the wall time it covers; that time is
taken out of every reported time.
"""

from __future__ import annotations

import threading
import time
from typing import List, Tuple

#: Seconds between probes.
PERIOD = 0.05

#: Snippet time, in seconds, that defines the reference speed: about the
#: fastest mean the snippet showed inside a sweep on the 2-CPU host the
#: README's figures come from, so that reference seconds read close to
#: that host's wall seconds when it is calm.
REFERENCE_S = 0.0015

_TABLE = list(range(4096))
_MAP = {i: i * 7 for i in range(4096)}


def snippet() -> int:
    acc = 0
    table, mapping = _TABLE, _MAP
    for i in range(4000):
        k = (i * 2654435761) & 4095
        acc += mapping[k] + table[k ^ 17]
    return acc


class SpeedProbe:
    def __init__(self) -> None:
        #: (start, duration) of every snippet run, perf_counter seconds.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD):
            t0 = time.perf_counter()
            snippet()
            self.samples.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def window(self, start: float, end: float) -> dict:
        """Slowdown over ``[start, end]`` and the probe time inside it."""
        inside = [d for t, d in self.samples if start <= t and t + d <= end]
        if not inside:
            raise ValueError("no probe sample inside the interval")
        return {"slowdown": interquartile_mean(inside) / REFERENCE_S,
                "probe_s": sum(inside), "probes": len(inside)}


def interquartile_mean(values: List[float]) -> float:
    """Mean of the middle half: a snippet run that a thread switch or a
    preemption stretched does not move it."""
    values = sorted(values)
    cut = len(values) // 4
    middle = values[cut:len(values) - cut]
    return sum(middle) / len(middle)
