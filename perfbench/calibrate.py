"""A fixed pure-Python loop that measures how fast the host runs right now.

On a shared 2-vCPU Xeon virtual machine (Python 3.11) the speed of each
CPU was measured to change by 20-60 % over seconds to minutes, each CPU
independently, so wall times from different minutes cannot be compared
as they are.  The benchmark therefore times this loop on the same CPU
just before and just after each timed run, and scales the run's times to
a host on which the loop takes ``REFERENCE_S``.  It runs in the
benchmark's own process, so it adds nothing to the run's memory.

The loop uses only the standard library and never changes with the
program under test.  It exercises what the simulator spends its time on:
generator resumption, a binary heap of timed entries, dict stores and
small tuples.  It runs twice, once with a cache-sized working set like
the packet-MAC workloads and once with a working set of tens of
megabytes like the 1000-client fleet, because the host's slow phases hurt
memory-bound code more.
"""

import heapq
import time

#: Loop time, in seconds, of the reference host the metrics are scaled to.
REFERENCE_S = 0.2
#: (processes, dict table bits, steps) of each pass.
PASSES = ((64, 10, 100_000), (10_000, 17, 100_000))


def _process(k):
    total = 0
    while True:
        total += yield k


def _event_loop(processes, table_bits, steps):
    procs = [_process(i) for i in range(processes)]
    for proc in procs:
        next(proc)
    heap = [(i * 0.37 % 1.0, i) for i in range(processes)]
    heapq.heapify(heap)
    mask = (1 << table_bits) - 1
    table = {}
    for i in range(steps):
        when, k = heapq.heappop(heap)
        table[(i * 2654435761) & mask] = procs[k].send(1)
        heapq.heappush(heap, (when + (k + 1) * 0.001, k))


def calibrate():
    """Wall seconds for both passes of the fixed event loop."""
    started = time.perf_counter()
    for processes, table_bits, steps in PASSES:
        _event_loop(processes, table_bits, steps)
    return time.perf_counter() - started
