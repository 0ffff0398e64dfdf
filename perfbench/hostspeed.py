"""Host time in reference seconds.

A shared host's speed drifts: on a 2-core share of a busy machine the same
loop runs up to 2x faster or slower from one ten-second stretch to the
next, and from one minute to the next.  A rate in wall seconds carries
that drift into every run.  So the benchmark keeps its host-time metrics
in *reference seconds*: between short stretches of the workload it runs a
fixed reference loop, and each stretch's wall time is scaled by how fast
the loop ran around it.  A reference second is the wall time in which the
loop does ``REF_LOOPS_PER_S`` iterations.

The loop is the benchmark's own code, never the program's, so a change to
the program moves the metrics by its own effect only.  It does what the
simulator does most (attribute reads and writes on slotted objects, dict
lookups and stores on int keys) at random places in a working set larger
than the processor's private caches, so that it slows down with the host
roughly as the simulator does.  The wall-time figures are printed beside
the reference-time ones.
"""

from __future__ import annotations

import time
from collections.abc import Callable

#: objects in the loop's working set (about 15 MiB with the dict)
WORKING_SET = 1 << 16
#: iterations per sample: about 10 ms
SAMPLE_LOOPS = 6000
#: iterations per reference second: about the loop's median speed on the
#: 2-core host the benchmark was tuned on
REF_LOOPS_PER_S = 850_000
#: wall seconds of workload between two samples
SLICE_S = 0.25


class _Item:
    __slots__ = ("count", "weight")

    def __init__(self, weight: int) -> None:
        self.count = 0
        self.weight = weight


class HostSpeed:
    """The reference loop; :meth:`sample` gives the host's current speed."""

    def __init__(self) -> None:
        self._items = [_Item(i * 3) for i in range(WORKING_SET)]
        self._table = {i * 7919: i for i in range(WORKING_SET)}
        self._x = 12345

    def _loop(self, n: int) -> int:
        items = self._items
        table = self._table
        mask = WORKING_SET - 1
        x = self._x
        acc = 0
        for __ in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = x & mask
            item = items[key]
            item.count += 1
            acc += table.get(key * 7919, 0) + item.weight
            table[key * 7919] = acc & 0xFFFF
        self._x = x
        return acc

    def sample(self, seconds: float = 0.0) -> tuple[float, float]:
        """Run the loop for at least ``seconds`` wall seconds, and at least
        once: the host's speed as a share of the reference, and the seconds
        the sample took."""
        loops = 0
        start = time.perf_counter()
        while True:
            self._loop(SAMPLE_LOOPS)
            loops += SAMPLE_LOOPS
            took = time.perf_counter() - start
            if took >= seconds:
                return loops / took / REF_LOOPS_PER_S, took


class Meter:
    """A measured window's ``keep_going``, keeping its time in reference seconds.

    Every ``SLICE_S`` wall seconds of workload it samples the host's speed
    and adds the slice's wall time, scaled by the mean of the samples on
    either side, to ``ref_s``.  A rate is taken over the window's totals, not
    as a median of slice rates: TPC-C's mix makes slice times very uneven
    (a Delivery costs ~25 Payments).  The samples' own time is in neither total.
    The window goes on while ``keep_going(done, elapsed)`` says so, with the
    window's own wall clock, samples included.
    """

    def __init__(self, speed: HostSpeed, keep_going: Callable[[int, float], bool]) -> None:
        self.speed = speed
        self.keep_going = keep_going
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._factor = 0.0
        self._mark: float | None = None

    def _close_slice(self, now: float) -> None:
        assert self._mark is not None
        factor = self.speed.sample()[0]
        self.wall_s += now - self._mark
        self.ref_s += (now - self._mark) * (self._factor + factor) / 2
        self._factor = factor
        self._mark = time.perf_counter()

    def __call__(self, done: int, elapsed: float) -> bool:
        if self._mark is None:
            self._factor = self.speed.sample()[0]
            self._mark = time.perf_counter()
        now = time.perf_counter()
        if now - self._mark >= SLICE_S:
            self._close_slice(now)
        return self.keep_going(done, elapsed)

    def close(self) -> None:
        """End the last slice; call once when the window has returned."""
        if self._mark is not None:
            self._close_slice(time.perf_counter())
            self._mark = None

    @property
    def speed_share(self) -> float:
        """The host's mean speed over the window, as a share of the reference."""
        return self.ref_s / self.wall_s if self.wall_s > 0 else 0.0
