"""How fast the host runs right now: a fixed reference loop, timed.

The benchmark runs on shared hosts whose CPU speed drifts by a third
and more over seconds to minutes, as other tenants come and go.  Every
unit of work is therefore timed next to this loop, and the end-to-end
times are scaled by how fast the loop ran between the units of the run
(see ``run.py``): a run whose units took 2.6 s each while the loop ran
1.3x slower than its reference time reports 2.0 s.

The loop has the program's two kinds of work and none of its code, so
no change to the program can make it faster or slower: a small LRU
set-associative cache fed a fixed address stream (dict, list, integer
and method-call work in the interpreter, like the simulator's engine),
then a trace-like list of record tuples built and packed column by
column into bytes (allocation and memory traffic, like trace
generation, persist and export, which the interpreter-bound half alone
tracks less well).
"""

from __future__ import annotations

import time
from array import array

#: Seconds one :func:`reference_loop` takes on the reference host (2-vCPU
#: Xeon at 2.1 GHz, Python 3.11, at its usual speed).  Times scaled by
#: :func:`speed` read as seconds on that host.  Changing it rescales every
#: reported time, so it is fixed.
REFERENCE_S = 0.040
#: Reference loops per gap between units.
LOOPS_PER_GAP = 6


class _Cache:
    def __init__(self, sets: int, ways: int) -> None:
        self.ways = ways
        self.mask = sets - 1
        self.sets = [[] for _ in range(sets)]
        self.where: dict[int, int] = {}
        self.misses = 0

    def access(self, line: int) -> None:
        lines = self.sets[line & self.mask]
        if line in self.where:
            lines.remove(line)
        else:
            self.misses += 1
            if len(lines) == self.ways:
                del self.where[lines.pop(0)]
            self.where[line] = 1
        lines.append(line)


def reference_loop(accesses: int = 24_000, records: int = 30_000) -> int:
    """Run the fixed workload once; returns its size (always the same)."""
    cache = _Cache(sets=64, ways=8)
    state = 12345
    for _ in range(accesses):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        cache.access((state >> 8) % 1500)
    rows = []
    for n in range(records):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        rows.append((n & 7, state, state >> 3, bool(state & 1)))
    gaps, pcs, addrs, writes = zip(*rows)
    columns = (gaps, pcs, addrs, map(int, writes))
    packed = b"".join(array("q", column).tobytes() for column in columns)
    return cache.misses + len(packed)


def gap() -> list[float]:
    """Seconds of each of :data:`LOOPS_PER_GAP` reference loops, timed now."""
    times = []
    for _ in range(LOOPS_PER_GAP):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return times


def speed(loop_times: list[float]) -> float:
    """Host speed over a run, as a share of the reference host's.

    The mean of every reference loop timed in the run's gaps: the runs
    are long enough, and the gaps frequent enough, that it tracks how
    fast the host ran the units in between.
    """
    return REFERENCE_S / (sum(loop_times) / len(loop_times))
