"""How fast is this host right now?  A calibration loop.

On a shared 2-vCPU sandbox the same process on the same input runs a
quarter faster or slower from one minute to the next: over 50 identical
``edge-overload`` runs the interquartile range of ``run()`` wall time
was 28 % of its median, and the medians of five consecutive runs still
spread 15 %.  A raw orders-per-second figure cannot resolve a 10 %
regression there.  Every repeat therefore times this fixed loop right
before its run and right after it, and reports the wall and CPU metrics
a second time, scaled by ``loop seconds / reference seconds``: what they
would have read on a host that runs the loop in the reference time.  On
those 50 runs that brought the spread of the five-run medians to 5 %.
The raw metrics are always reported beside the normalised ones.

The loop pushes and pops tuples on a small heap and fills a small dict:
interpreter work of the kind the simulation is made of, in a few
hundred kilobytes, so it does not move ``peak_rss_mb``.  (A loop of
plain integer arithmetic, timed between the repeats instead of around
each run, followed the host only half as well.)  The collector is off
while it runs, so the heap a finished run leaves behind cannot slow it.

A workload that plans through worker processes is slowed by something
the in-process loop cannot see -- how long a reply takes to wake the
process waiting for it -- so for it the same iterations run in slices
inside a helper process, one pipe round trip per slice, the way the
pool runs its plans.  Over 60 identical ``sharded-pool`` runs, 18 of
them in a slow spell, the five-run medians spread 12.5 % raw, 15 %
scaled by the in-process loop and 5 % scaled by the sliced one.
"""

from __future__ import annotations

import gc
import heapq
import subprocess
import sys
import time

LOOP_ITERATIONS = 200_000
HEAP_LIMIT = 512
SLICES = 200
#: Seconds each form of the loop takes on the host the first baseline
#: was taken on, when that host is quiet.  Only units: they cancel in
#: any comparison of a workload with itself.
REFERENCE_LOOP_S = {False: 0.19, True: 0.23}


def _spin(iterations: int, state: list) -> None:
    """``iterations`` rounds of heap and dict work on ``state``."""
    heap, table, value, start = state
    for index in range(start, start + iterations):
        value = (value * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (value, index))
        table[value & 4095] = (value, index)
        if index & 1 or len(heap) > HEAP_LIMIT:
            heapq.heappop(heap)
    state[2], state[3] = value, start + iterations


def loop_s() -> float:
    """Wall seconds this host takes for the calibration loop, now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _spin(LOOP_ITERATIONS, [[], {}, 12345, 0])
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class Helper:
    """A helper process (``python -m bench.hostspeed``) that runs the
    loop in slices, one request/reply round trip over its pipes each.

    Start it while the calling process is still small: on Linux a child's
    ``ru_maxrss`` begins at its parent's size at the fork, and a late
    helper would pass for the run's largest worker in ``peak_rss_mb``.
    """

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, "-m", "bench.hostspeed"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._round_trip()  # wait until it is up, outside any timing

    def _round_trip(self) -> None:
        self._process.stdin.write(b"%d\n" % (LOOP_ITERATIONS // SLICES))
        self._process.stdin.flush()
        self._process.stdout.readline()

    def loop_s(self) -> float:
        """Wall seconds for the loop run as ``SLICES`` round trips, now."""
        started = time.perf_counter()
        for _ in range(SLICES):
            self._round_trip()
        return time.perf_counter() - started

    def close(self) -> None:
        self._process.stdin.close()
        self._process.stdout.close()
        self._process.wait()


def _serve() -> None:
    """The helper: one slice of the loop per request line, then a reply."""
    gc.disable()
    state = [[], {}, 12345, 0]
    for line in sys.stdin.buffer:
        _spin(int(line), state)
        sys.stdout.buffer.write(b"\n")
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    _serve()
