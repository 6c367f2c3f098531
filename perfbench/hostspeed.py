"""Host-speed normalisation of the benchmark's timings.

The machine the benchmark runs on may change its effective CPU speed by
a large factor within seconds (a shared host: the same SAT work, with
identical solver counters, can take 1.5x longer a minute later).  Wall
times of CPU-bound requests then spread by more than any useful
regression bound, whatever the run length.

So while it measures, the client keeps timing a fixed reference
computation -- this module's own pure-Python loop, which no change to
the program under test can speed up or slow down -- before every request
and every ``INTERVAL`` seconds from a timer signal, so that it samples
the host's speed in the middle of long requests too, on the same CPU as
the request.  A piece of work is scaled by ``REFERENCE_S / mean probe
time`` over the probes taken during it and next to it, after the probes
inside it are subtracted: work measured while the host ran the probe
1.4x slower than nominal is counted 1.4x shorter.  The reported times
are therefore seconds on a host that runs the probe in ``REFERENCE_S``;
the raw wall times are printed alongside.

The probe mixes dictionary lookups on tuple keys with pseudo-random
reads from a 2 MiB array.  Alternating probes with four 0.1-0.3 s
requests for 110 s, normalising by the lookups alone left a per-request
inter-quartile spread of 0.12-0.15 and by lookups plus random reads
0.08-0.12; in a second such test the array's size (2, 8 or 32 MiB) made
no difference (0.07-0.11).  It allocates no container objects, so it never triggers the
garbage collector and its time does not depend on the program's heap.
Timers are not inherited across ``fork``: a worker process probes only
if the client's code running in it starts a clock of its own.
"""

from __future__ import annotations

import array
import bisect
import signal
import statistics
import time

#: nominal duration of one probe; about the median probe time on the
#: 2-core VM the benchmark was defined on, so scaled times there read
#: close to wall times
REFERENCE_S = 0.003
#: dictionary rounds and array reads of one probe
ROUNDS = 10_000
READS = 6_000
#: seconds between timer-driven probes (about 2% of the time is probes;
#: probing every 0.03 s normalised no better)
INTERVAL = 0.1

_KEYS = [(i % 97, i & 15, i % 7) for i in range(1024)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_ARRAY = array.array("q", range(1 << 18))


def _reference_work() -> int:
    keys, table, acc = _KEYS, _TABLE, 0
    for i in range(ROUNDS):
        key = keys[i & 1023]
        acc = (acc + table[key] * key[2]) & 0xFFFF
    data, mask, j = _ARRAY, len(_ARRAY) - 1, 12345
    for _ in range(READS):
        j = (j * 1103515245 + 12345) & 0x7FFFFFFF
        acc += data[j & mask]
    return acc


class HostClock:
    """Probes taken on demand and on a timer.

    Use as a context manager around the measured part of a run; call
    ``mark()`` just before each piece of work, and once the work and the
    next ``mark()`` are done, ``scaled(start, end)`` with the
    ``time.perf_counter`` readings taken around the work.
    """

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._previous = None

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.mark()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.mark()

    def _tick(self, _signum, _frame) -> None:
        self.mark()

    def mark(self) -> None:
        """Take one probe now (a probe never nests in another)."""
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            _reference_work()
            self.durations.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            self._busy = False

    def within(self, start: float, end: float) -> tuple[float, float]:
        """(seconds of probes inside [start, end), scale factor from the
        mean of those probes and the nearest one on either side).

        Only the nearest probes: repeating 25 refute-sweep requests eight
        times, their normalised times varied by 5-7% (coefficient of
        variation) this way, and by 10% when the probes of the 0.5 s
        before each request were averaged in as well."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        near = self.durations[max(lo - 1, 0):min(hi + 1, len(self.starts))]
        return sum(self.durations[lo:hi]), REFERENCE_S / statistics.fmean(near)

    def scaled(self, start: float, end: float) -> float:
        """Seconds of the work between ``start`` and ``end`` without the
        probes inside it, scaled by ``within``'s factor."""
        probes_s, factor = self.within(start, end)
        return (end - start - probes_s) * factor
