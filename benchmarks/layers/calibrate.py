"""The machine-speed probe every timing of a run is scaled by.

The sandbox this benchmark runs in is a shared 2-vCPU VM whose cores
change speed independently, by ±20% for seconds at a time and by more
between one quarter of an hour and the next: an identical loop measured
twice does not read the same.  A fixed kernel of plain Python work — the
kind of work the program does: attribute and dictionary access, method
calls, sorting, JSON — is therefore run between the segments of every
measured interval, and each timing is divided by how much slower than
:data:`REFERENCE_S` the kernel ran beside it.  The kernel imports
nothing from ``repro``, so no change to the program moves it.

The hypervisor also takes the cores away now and then — for a fifth of
a few seconds, or the whole VM for half a second at once.  The guest
kernel counts that time as ``steal`` in ``/proc/stat``; it is read with
every sample and taken out of the timings before they are scaled.

The reported times are the sandbox's times *at reference speed*; the raw
factor is reported as ``gen.speed_factor`` and the stolen share as
``gen.stolen_share``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import Sequence

#: seconds :func:`kernel` takes at reference speed (about the fastest
#: this sandbox runs it; a factor above 1 is a slower machine)
REFERENCE_S = 0.0006
#: kernel runs per core and sample: the first ones bring a core that sat
#: idle, or that the thread just migrated to, up to speed and are not
#: timed; the median of the rest is kept
WARMUPS = 2
REPEATS = 3
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class _Partition:
    __slots__ = ("key", "mask", "members")

    def __init__(self, key: int) -> None:
        self.key = key
        self.mask = key * 2654435761 & 0xFFFFFFFF
        self.members: dict[int, tuple[float, int]] = {}

    def rate(self, mask: int) -> float:
        shared = self.mask & mask
        return bin(shared).count("1") - 0.3 * bin(self.mask ^ mask).count("1")


_PARTITIONS = [_Partition(key) for key in range(128)]
_DOCUMENT = {
    "id": 17, "op": "insert", "eid": 1234,
    "attributes": {f"attribute{i}": f"value {i}" for i in range(12)},
}


def kernel() -> None:
    """A fixed amount of interpreter-bound work, half of it object and
    dictionary traffic and half of it JSON."""
    for probe in range(4):
        mask = probe * 40503 & 0xFFFFFFFF
        best = max([(p.rate(mask), p.key) for p in _PARTITIONS])
        _PARTITIONS[best[1]].members[probe] = best
    rows = [{"a": i, "b": str(i), "c": None} for i in range(60)]
    rows.sort(key=lambda row: row["b"])
    for _ in range(14):
        json.loads(json.dumps(_DOCUMENT, separators=(",", ":")))


def stolen_seconds(cores: Sequence[int]) -> float:
    """Seconds since boot the hypervisor kept *cores* (every core when
    none is named) from running although they had work, per core."""
    wanted = {f"cpu{core}" for core in cores}
    total, found = 0, 0
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            name, *fields = line.split()
            if name.startswith("cpu") and name != "cpu" and (not wanted or name in wanted):
                total += int(fields[7])
                found += 1
    return total / _CLOCK_TICKS / found


class Speed:
    """Speed samples of one run, and the factor and the stolen time they
    give an interval.

    A sample visits each of *cores* (the calling thread pins itself
    there for the moment) and keeps the mean: these are the cores the
    program's processes run on, so it is the speed they saw.  With no
    cores named the kernel runs where the caller already is — right for
    work the calling thread does itself.
    """

    def __init__(self, cores: Sequence[int] = ()) -> None:
        self.cores = tuple(cores)
        self.times: list[float] = []
        self.factors: list[float] = []
        #: :func:`stolen_seconds` at each sample
        self.stolen: list[float] = []
        #: seconds spent sampling
        self.spent = 0.0

    def sample(self) -> None:
        clock = time.perf_counter

        def probe() -> float:
            for _ in range(WARMUPS):
                kernel()
            runs = []
            for _ in range(REPEATS):
                started = clock()
                kernel()
                runs.append(clock() - started)
            return statistics.median(runs)

        at = clock()
        self.stolen.append(stolen_seconds(self.cores))
        own = os.sched_getaffinity(0)
        try:
            seconds = []
            for core in self.cores:
                os.sched_setaffinity(0, {core})
                seconds.append(probe())
        finally:
            os.sched_setaffinity(0, own)
        if not seconds:  # no core named: where the caller already is
            seconds = [probe()]
        self.spent += clock() - at
        self.times.append(at)
        self.factors.append(statistics.fmean(seconds) / REFERENCE_S)

    def _around(self, start: float, end: float) -> tuple[int, int]:
        """The last sample before ``[start, end]`` and the first after."""
        low = max(bisect_right(self.times, start) - 1, 0)
        high = min(bisect_left(self.times, end), len(self.times) - 1)
        return low, high

    def factor(self, start: float, end: float) -> float:
        """Mean factor of the samples around ``[start, end]``: the last
        one before it, every one inside it, the first one after it."""
        low, high = self._around(start, end)
        return statistics.fmean(self.factors[low:high + 1])

    def stolen_between(self, start: float, end: float) -> float:
        """Seconds per core stolen between the samples around
        ``[start, end]`` (in clock ticks: 10 ms steps)."""
        low, high = self._around(start, end)
        return self.stolen[high] - self.stolen[low]


def to_reference(
    seconds: float, factor: float, busy: float = 1.0, stolen: float = 0.0
) -> float:
    """*seconds* as they would have read at reference speed: without
    the *stolen* ones, and with the share *busy* of the rest — the CPU
    work, which a slower machine stretches — divided by *factor*; what
    is left was waiting on the disk or a timer, which it does not."""
    return max(seconds - stolen, 0.0) * (1.0 - busy + busy / factor)


class Scale:
    """Context manager around a block of CPU-bound work: afterwards
    ``seconds`` is how long the block took and ``ratio`` turns seconds
    measured inside it into seconds at reference speed."""

    def __init__(self, cores: Sequence[int] = ()) -> None:
        self.speed = Speed(cores)
        self.seconds = 0.0
        self.ratio = 1.0

    def __enter__(self) -> "Scale":
        self.speed.sample()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> None:
        ended = time.perf_counter()
        self.speed.sample()
        self.seconds = ended - self._started
        self.ratio = to_reference(
            1.0, self.speed.factor(self._started, ended),
            stolen=min(
                self.speed.stolen_between(self._started, ended) / self.seconds, 1.0
            ),
        )
