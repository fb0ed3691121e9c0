"""Keep CPython's cyclic garbage collector off the analysis path.

Every object graph an analysis run or a serve request drops is acyclic
(DESIGN.md, "Memory management"), so reference counting frees it the moment
its last reference goes. The cyclic collector would find nothing to free:
it would only rescan the live states, dependency sets and compiled closures
of the run, over and over. :func:`collector_paused` switches it off for the
length of a ``with`` block — all of ``analyze()``, and each serve request
with its reply — and :func:`collections_counted` reports what it still did.

When the last pause ends, the collector is re-enabled and the young
objects the block left alive are examined once, at the next allocation,
after the block's answer has been returned or written.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager

# One process-wide pause count: the first block to enter records whether
# the collector was enabled, and the last block to leave restores that. An
# RLock, so that a signal handler entering a pause on the main thread
# cannot deadlock against the block it interrupted.
_lock = threading.RLock()
_depth = 0
_restore = False


@contextmanager
def collector_paused():
    """Disable the cyclic collector while the block runs.

    Reentrant and safe across threads: nested and overlapping blocks keep
    it disabled until the last one leaves, which restores the state the
    first one found — a caller that had disabled the collector keeps it
    disabled. Every exit path restores it, exceptions included."""
    global _depth, _restore
    with _lock:
        if _depth == 0:
            _restore = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _restore:
                gc.enable()


@contextmanager
def collections_counted(telemetry):
    """Count the collector's runs and their seconds while the block runs,
    as the ``gc.collections`` and ``gc.seconds`` counters of
    ``telemetry``. A disabled registry registers no hook, so an untraced
    run does not pay for one."""
    if not telemetry.enabled:
        yield
        return
    runs = 0
    seconds = 0.0
    started = 0.0

    def hook(phase: str, info: dict) -> None:
        nonlocal runs, seconds, started
        if phase == "start":
            started = time.perf_counter()
        else:
            runs += 1
            seconds += time.perf_counter() - started

    gc.callbacks.append(hook)
    try:
        yield
    finally:
        gc.callbacks.remove(hook)
        telemetry.count("gc.collections", runs)
        telemetry.count("gc.seconds", seconds)
