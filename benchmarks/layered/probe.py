"""Host-speed normalization for the layered benchmark.

On a shared 2-core x86-64 host the same pure-Python loop runs up to 2×
slower in bursts of a fraction of a second, and the typical speed differs
between runs minutes apart. Steal time stays near zero, so the core itself
is slower, and process CPU time drifts with wall time. The benchmark
therefore runs a fixed probe, which runs this directory's code only, next
to its operations and reports every end-to-end time as host-normalized::

    normalized = measured × nominal probe time / (probe time around or during the operation)

that is, the time the operation would take on a host where the probe takes
its nominal time. A slower program reads slower; a slower host much less
so. The raw times are kept in each run's record next to the normalized
ones. Two ways to probe:

* ``HostSpeed``: explicit probes between serve requests, which are far
  shorter than a speed burst, and whose client waits on a pipe while the
  session worker does the work. A request is scaled by the median of the
  ``WINDOW`` probes around it, to the power ``TRACKED``: part of a served
  request runs on the worker's core, in ``fsync`` and in process
  wake-ups, which do not slow down with the client's core, and full
  scaling made runs on a slow host read low.
* ``Sampler``: an interval timer interrupts batch jobs and set-ups every
  ``SAMPLE_PERIOD_S`` and runs a small probe inside them, so a job of
  seconds is scaled by the host speed *while it ran*; probes taken
  between jobs only followed it poorly (16–34% spread between passes of
  vim-mini sparse, against 3–5% sampled). The sample probe pauses the
  garbage collector, so it does not move the program's collections, and
  its time is taken out of the job's.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

#: the probe's median time on the reference host (2-core x86-64 Xeon,
#: Python 3.11)
NOMINAL_S = 0.0024
#: probes in the window whose median normalizes one operation: half
#: taken just before it, half just after
WINDOW = 6
#: the exponent of the probe's slowdown that a served request follows.
#: Over five sets of ten runs of each serve workload, 0.75 gave the
#: narrowest spreads (serve-edit ``work_s`` 1–3% against 3–10% with 1.0,
#: 17–24% raw; serve-read ``op_p90_ms`` 7–10% against 5–16%)
TRACKED = 0.75
#: the sample probe's iterations, and its time on the reference host
#: (measured against ``NOMINAL_S`` by alternating the two probes)
SAMPLE_N = 1000
SAMPLE_NOMINAL_S = 0.00052
#: interval between sample probes; they cost 3–6% of a job's time
SAMPLE_PERIOD_S = 0.02
#: a job holding fewer samples than this is scaled by this many samples
#: nearest to its middle instead
SAMPLE_WINDOW = 6


class _Cell:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi


def _probe_work(n: int = 4000) -> int:
    """A fixed mix of what the analyzer's hot loops do: tuple keys, dict
    lookups and small object allocations."""
    table: dict = {}
    for i in range(n):
        key = (i % 61, i % 7)
        cur = table.get(key)
        if cur is None:
            table[key] = _Cell(i, i)
        else:
            table[key] = _Cell(min(cur.lo, i), max(cur.hi, i + 1))
    return max(c.hi - c.lo for c in table.values())


def _sample_work() -> None:
    """The sample probe: a quarter of the probe, with the garbage collector
    paused. Everything it allocates is freed before it returns, so the
    program's collections happen where they would without it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_work(SAMPLE_N)
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probe samples of one run, ordered by the time they were taken."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self, n: int = 1) -> None:
        for _ in range(n):
            start = time.perf_counter()
            _probe_work()
            end = time.perf_counter()
            self.at.append((start + end) / 2)
            self.took.append(end - start)

    def factor(self, at: float) -> float:
        """``NOMINAL_S`` over the median of the ``WINDOW`` probes around
        ``at`` (``perf_counter``), to the power ``TRACKED``."""
        i = bisect.bisect(self.at, at)
        lo = min(max(i - WINDOW // 2, 0), max(len(self.took) - WINDOW, 0))
        return (NOMINAL_S / statistics.median(self.took[lo : lo + WINDOW])) ** TRACKED

    def normalize(self, start: float, elapsed: float) -> float:
        """An operation's seconds, timed from ``start``, at the reference
        host speed."""
        return elapsed * self.factor(start + elapsed / 2)

    def median_s(self) -> float:
        return statistics.median(self.took)


class Sampler:
    """Sample probes taken by a ``SIGALRM`` interval timer while the
    ``with`` block runs, ordered by the time they were taken. Operations
    are timed from ``start`` for ``elapsed`` seconds of ``perf_counter``,
    sample probes included."""

    def __init__(self) -> None:
        self.start: list[float] = []
        self.end: list[float] = []
        self._previous = None
        self._busy = False

    def sample(self, *_signal) -> None:
        """Take one sample now (also the ``SIGALRM`` handler)."""
        # a handler can be re-entered when a stalled probe outlasts the
        # period; the samples must stay disjoint and in order
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        _sample_work()
        self.start.append(start)
        self.end.append(time.perf_counter())
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _inside(self, start: float, elapsed: float) -> range:
        """Indexes of the samples taken wholly inside the operation."""
        return range(
            bisect.bisect_left(self.start, start),
            bisect.bisect_right(self.end, start + elapsed),
        )

    def pure(self, start: float, elapsed: float) -> float:
        """The operation's own seconds: ``elapsed`` without its samples."""
        inside = self._inside(start, elapsed)
        return elapsed - sum(self.end[i] - self.start[i] for i in inside)

    def normalize(self, start: float, elapsed: float) -> float:
        """The operation's own seconds at the reference host speed: scaled
        by the mean host speed over its samples (the harmonic mean of
        their times), or over the ``SAMPLE_WINDOW`` nearest samples when it
        holds fewer."""
        inside = self._inside(start, elapsed)
        if len(inside) < SAMPLE_WINDOW:
            n = len(self.start)
            i = bisect.bisect(self.start, start + elapsed / 2)
            lo = min(max(i - SAMPLE_WINDOW // 2, 0), max(n - SAMPLE_WINDOW, 0))
            inside = range(lo, min(lo + SAMPLE_WINDOW, n))
        took = statistics.harmonic_mean(self.end[i] - self.start[i] for i in inside)
        return self.pure(start, elapsed) * SAMPLE_NOMINAL_S / took

    def took_s(self) -> float:
        """Seconds spent in every sample so far."""
        return sum(e - s for s, e in zip(self.start, self.end))

    def factor(self) -> float:
        """``SAMPLE_NOMINAL_S`` over the harmonic mean of every sample."""
        return SAMPLE_NOMINAL_S / statistics.harmonic_mean(
            e - s for s, e in zip(self.start, self.end)
        )

    def median_s(self) -> float:
        return statistics.median(e - s for s, e in zip(self.start, self.end))
