"""The benchmark's own arithmetic: percentiles, spreads, self time, memory.

Kept free of any ``repro`` import so ``selftest.py`` can check it on its
own and every workload reports numbers computed the same way.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that the tail is a handful of points, not a shape.
MIN_BEYOND = 10


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q``-quantile (0 < q < 1), or None when too few samples.

    The value at rank ``ceil(q * n)`` is returned only when at least
    :data:`MIN_BEYOND` samples rank above it, so a p99 needs 1000
    samples and a median 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def highest_percentile(values, candidates=(0.99, 0.95, 0.9, 0.5)):
    """``(q, value)`` for the highest candidate percentile reportable, or None."""
    for q in candidates:
        value = percentile(values, q)
        if value is not None:
            return q, value
    return None


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children cover.

    Children are clipped to the span first, so a child that outlives
    its parent (or overlaps a sibling) is never subtracted twice.
    """
    clipped = [
        (max(lo, start), min(hi, end)) for lo, hi in children if hi > start and lo < end
    ]
    return (end - start) - union_length(clipped)


def peak_rss_mb(pids=()) -> float:
    """Summed peak resident memory (MiB) of this process and ``pids``.

    Children are read from ``/proc/<pid>/status`` (``VmHWM``) while
    they are still alive; a process that has already gone reads as 0.
    """
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        total_kb += _vm_hwm_kb(pid)
    return total_kb / 1024.0


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of all CPUs so far, from ``/proc/stat``.

    Steal is time the hypervisor ran something else while this machine
    had work; a run with a high steal share ran on a slowed host.
    """
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user and nice.
    return fields[7], sum(fields[:8])


def steal_s(cpus) -> float:
    """Seconds the hypervisor has stolen so far from the CPUs in ``cpus``, summed."""
    total = 0
    with open("/proc/stat") as handle:
        for line in handle:
            name, *fields = line.split()
            if name[:3] == "cpu" and name[3:].isdigit() and int(name[3:]) in cpus:
                total += int(fields[7])
    return total / os.sysconf("SC_CLK_TCK")


class Stopwatch:
    """Wall time of a ``with`` block, and that time less what the host stole.

    On a virtual machine, steal is time a CPU had work while the host ran
    another guest.  A block that keeps ``cpus`` busy loses their summed
    steal divided by their number; :attr:`seconds` is the wall time less
    that, which is what the block takes on a host of its own.  The steal
    counter ticks at ``SC_CLK_TCK`` (100/s), so it is exact to 10 ms.
    """

    def __init__(self, cpus):
        self.cpus = frozenset(cpus)
        self.start = self.end = self.stolen = 0.0

    def __enter__(self):
        self._steal = steal_s(self.cpus)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.end = time.perf_counter()
        self.stolen = (steal_s(self.cpus) - self._steal) / len(self.cpus)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def seconds(self) -> float:
        return self.wall - self.stolen
