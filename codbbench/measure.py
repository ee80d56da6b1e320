"""Summary statistics and process probes.

Latencies are reported as a median and a *tail*: the highest percentile
of a fixed ladder that still has at least ``TAIL_BEYOND`` samples above
it.  Below ``MIN_TAIL_SAMPLES`` samples there is no tail at all — a
percentile with a handful of samples beyond it would only report noise.
"""

from __future__ import annotations

import math
import mmap
import os
import resource
import statistics
import time

TAIL_LADDER = (0.99, 0.95, 0.90, 0.75)
TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = 40


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values: list[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest ladder percentile with at
    least ``TAIL_BEYOND`` samples beyond it, or ``None`` when there are
    fewer than ``MIN_TAIL_SAMPLES`` samples."""
    count = len(values)
    if count < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    for q in TAIL_LADDER:
        rank = math.ceil(q * count)  # nearest rank, 1-based
        if count - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1]
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


#: The probe: a pure-Python loop, then writing one byte to every page of
#: freshly mapped memory.  The sandbox's CPU and memory speed swing by
#: up to 1.8x over seconds with other tenants' load; the program (it
#: allocates heavily) slows with both, so the probe does a little of each.
PROBE_LOOP = 15_000
PROBE_BYTES = 2 << 20
#: The probe's duration on a calm machine; times scaled by
#: ``PROBE_REFERENCE_S / probe()`` read as times on that machine.
#: (gateway-mix's probe adds loopback round trips, with its own reference.)
PROBE_REFERENCE_S = 0.003


def probe() -> float:
    """Seconds a fixed piece of work takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    pages = mmap.mmap(-1, PROBE_BYTES)
    try:
        for offset in range(0, PROBE_BYTES, mmap.PAGESIZE):
            pages[offset] = 1
    finally:
        pages.close()
    return time.perf_counter() - started


def speed_scaled(
    durations: list[float],
    probes: list[float],
    reference_s: float = PROBE_REFERENCE_S,
    *,
    per: int = 1,
    window: int = 3,
) -> list[float]:
    """Scale timed ops to the speed at which the probe takes *reference_s*.

    The ops ran in intervals of *per* consecutive ops; ``probes[i]`` was
    taken just before interval i and ``probes[i + 1]`` just after it.
    Each op is scaled by the median of the probes within *window* places
    of its interval's pair, so one disturbed probe does not move it."""
    intervals = -(-len(durations) // per)
    if len(probes) != intervals + 1:
        raise ValueError("need one probe before every interval and one after the last")
    scaled = []
    for k, duration in enumerate(durations):
        i = k // per
        near = probes[max(0, i + 1 - window): i + 1 + window]
        scaled.append(duration * reference_s / statistics.median(near))
    return scaled


def own_peak_rss_mb() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def own_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peer_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def peer_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of another live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks
