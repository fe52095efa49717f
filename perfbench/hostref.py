"""A fixed reference computation that gauges the host's current speed.

On a shared virtual machine the same work can take 1.5 times as long
from one minute to the next, for minutes at a time, with no steal time
recorded: the process runs the whole time, only slower.  That drift is
wider than any bound a benchmark on such a host can keep.  ``run.py``
therefore times this computation before the first repetition and after
each one, and states each repetition's time as a multiple of the mean of
the two measurements around it.  Runs in slow and fast phases of the host
then read alike, while a change to the program still moves the ratio,
because this computation never calls the program.

The mix is interpreted Python (a heap-driven event loop over dicts and
lists, like the scalar kernels) and small numpy array arithmetic (like the
stacked kernel), 0.25–0.45 s on a 2 GHz Xeon, depending on the moment.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

import numpy


def _interpreted() -> int:
    rng = random.Random(12345)
    heap = []
    counts = {}
    members = []
    for i in range(60_000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 200:
            _, k = heapq.heappop(heap)
            counts[k % 97] = counts.get(k % 97, 0) + 1
            if members and k % 3 == 0:
                members[rng.randrange(len(members))] ^= 1 << (k % 5)
            else:
                members.append(k & 31)
            if len(members) > 500:
                members.pop(rng.randrange(len(members)))
    return sum(counts.values()) + sum(members)


def _arrays() -> int:
    a = numpy.random.default_rng(7).integers(0, 1 << 20, size=(64, 256), dtype=numpy.int64)
    total = 0
    for _ in range(1_500):
        b = (a * 3 + 1) & 0xFFFFF
        high = b > 500_000
        total += int(numpy.count_nonzero(high[:, ::7]))
        a = numpy.where(high, b >> 1, b)
    return total


def work() -> int:
    """The reference computation; returns a checksum of what it computed."""
    return _interpreted() + _arrays()


class HostRef:
    """Times :func:`work` and checks that every call did the same work.

    Both wall and CPU time are kept: when the hypervisor takes the CPU
    away (steal time), wall time grows and CPU time does not, so a
    program's CPU time is divided by the reference's CPU time and its wall
    time by the reference's wall time.
    """

    def __init__(self) -> None:
        self.checksum = work()  # also the warm-up
        self.times = []
        self.cpu_times = []

    def measure(self) -> None:
        start, cpu = time.perf_counter(), time.process_time()
        checksum = work()
        self.times.append(time.perf_counter() - start)
        self.cpu_times.append(time.process_time() - cpu)
        if checksum != self.checksum:
            raise RuntimeError(f"reference computation gave {checksum}, not {self.checksum}")

    def around(self, index: int):
        """Mean wall and CPU time of the measurements just before and just
        after repetition ``index`` (measurement ``index`` precedes it)."""
        return (
            statistics.fmean(self.times[index:index + 2]),
            statistics.fmean(self.cpu_times[index:index + 2]),
        )
