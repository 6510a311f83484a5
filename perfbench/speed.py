"""The machine's current speed, for scaling measured times to a fixed reference.

On a shared 2-vCPU virtual machine (Python 3.11), the same pure-Python loop
runs at two speeds about 1.85x apart, switching every few to every few tens
of seconds (a neighbour sharing the core), and the switching is the largest
source of run-to-run spread.  The benchmark therefore times a fixed sparse
product in plain Python, independent of graphck, between items, and scales
each item's measured time by REFERENCE_S over the median of the four probe
times nearest it (two before, two after; a single probe jitters): the result
reads as time on the machine in its fast state.  Raw times are reported next
to the scaled ones.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

REFERENCE_S = 0.004  # the probe's time on that machine when no neighbour competes
EVERY_S = 0.2        # probe after this much timed item work


class SpeedProbe:
    """A 400x400 sparse integer product with 6 entries per row, timed twice
    with the collector paused: the dict-of-dicts loop the graphck layers
    spend most of their time in, without graphck."""

    def __init__(self):
        rng = random.Random(7)
        self.matrix = {i: {rng.randrange(400): rng.randint(1, 9) for _ in range(6)}
                       for i in range(400)}
        self.samples: list[tuple[int, float]] = []  # (items done before it, seconds)
        self.pending = 0.0

    def _product(self) -> None:
        a = self.matrix
        for row in a.values():
            acc: dict[int, int] = {}
            for j, x in row.items():
                for k, y in a[j].items():
                    acc[k] = acc.get(k, 0) + x * y

    def time_once(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self._product()
            self._product()
            return perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def mark(self, position: int) -> None:
        self.samples.append((position, self.time_once()))
        self.pending = 0.0

    def after_item(self, latency: float, position: int) -> None:
        """Probe once enough item time has gone by since the last probe."""
        self.pending += latency
        if self.pending >= EVERY_S:
            self.mark(position)

    def scaled(self, latencies: list[float]) -> list[float]:
        """Each latency times REFERENCE_S over the median of the two probes
        before the item and the two after it (fewer at the ends)."""
        out = []
        j = 0  # the last probe taken before item i
        samples = self.samples
        times = [t for _, t in samples]
        for i, lat in enumerate(latencies):
            while j + 1 < len(samples) - 1 and samples[j + 1][0] <= i:
                j += 1
            around = statistics.median(times[max(0, j - 1):j + 3])
            out.append(lat * REFERENCE_S / around)
        return out
