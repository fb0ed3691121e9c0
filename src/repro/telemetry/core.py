"""The in-process tracing/metrics registry.

The paper's whole evaluation (Section 6, Tables 1–3) is a *per-phase*
story: pre-analysis time, dependency-generation time, fixpoint time and
peak memory, per analyzer. This module is the one instrumentation layer
every pipeline phase reports into, so benches, the CLI and tests read a
single consistent metrics source instead of scattering ad-hoc timers.

Three primitives:

* **Spans** — hierarchical timed regions (``with tel.span("fixpoint")``),
  carrying wall-clock *and* CPU time, optional attributes, and (when
  memory tracking is on) the tracemalloc peak observed by span exit.
  Nesting is per-thread: each thread keeps its own open-span stack, so
  concurrent phases trace correctly.
* **Counters** — monotonic integers (``tel.count("dep.generated", n)``).
* **Gauges** — last-write-wins numbers; ``gauge_max`` keeps the maximum
  (used for peak-memory style measurements).

The registry is thread-safe (one lock around shared structures) and has a
**no-op fast path**: the module-level :data:`NULL_TELEMETRY` singleton is
disabled, its ``span`` returns a shared do-nothing context manager and its
counter/gauge methods return immediately — so fully-instrumented pipeline
code costs a few attribute checks per *phase* (never per fixpoint
iteration) when nobody is measuring.

Exporters live in :mod:`repro.telemetry.export`: a Chrome
``chrome://tracing`` JSON trace and a Table-2-style per-phase report.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

#: canonical phase names, in pipeline order — the rows of the phase report
#: and the columns of the paper's Tables 1–2 (Pre / Dep / Fix, plus the
#: phases the paper folds into its totals)
PHASES = (
    "frontend",
    "pre-analysis",
    "dep-gen",
    "fixpoint",
    "narrowing",
    "checkers",
    #: serve-mode phases: one span per served query / applied edit (the
    #: engine's nested fixpoint spans stay inside them)
    "query",
    "edit",
)


@dataclass
class Span:
    """One finished (or still-open) timed region."""

    name: str
    category: str = "phase"
    #: start offset from the registry epoch, seconds
    start: float = 0.0
    #: wall-clock duration, seconds (0 while open)
    wall: float = 0.0
    #: CPU (process) time consumed between enter and exit, seconds
    cpu: float = 0.0
    #: tracemalloc peak at span exit, bytes (None when not tracked)
    peak_bytes: int | None = None
    tid: int = 0
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span (shown in trace ``args``)."""
        self.attrs.update(attrs)
        return self

    def walk(self):
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


class _SpanHandle:
    """Context manager guarding one live span."""

    __slots__ = ("_tel", "span")

    def __init__(self, tel: "Telemetry", span: Span) -> None:
        self._tel = tel
        self.span = span

    def set(self, **attrs) -> "_SpanHandle":
        self.span.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        self._tel._enter(self.span)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tel._exit(self.span)


class _NullSpanHandle:
    """The do-nothing span handle the disabled fast path hands out. A
    single shared instance — entering it allocates nothing."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpanHandle":
        return self

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpanHandle()


class Telemetry:
    """Thread-safe in-process span/counter/gauge registry.

    ``enabled=False`` turns every operation into a no-op (see
    :data:`NULL_TELEMETRY`). ``track_memory=True`` starts ``tracemalloc``
    on first use and records the traced-memory peak at every span exit —
    accurate but several-fold slower, so it is opt-in (the bench harness
    keeps its deterministic memory model for gating and uses this only for
    Table-2-style reports).
    """

    def __init__(self, enabled: bool = True, track_memory: bool = False) -> None:
        self.enabled = enabled
        self.track_memory = track_memory
        self.roots: list[Span] = []
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch = time.perf_counter()
        self._started_tracemalloc = False

    # -- coercion ------------------------------------------------------------

    @classmethod
    def coerce(cls, value) -> "Telemetry":
        """``None``/``False`` → the shared disabled registry, ``True`` → a
        fresh enabled one, a :class:`Telemetry` → itself."""
        if value is None or value is False:
            return NULL_TELEMETRY
        if value is True:
            return cls(enabled=True)
        if isinstance(value, Telemetry):
            return value
        raise TypeError(f"cannot coerce {value!r} to Telemetry")

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, category: str = "phase", **attrs):
        """A context manager timing one region. Disabled registries return
        a shared no-op handle."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanHandle(self, Span(name, category=category, attrs=attrs))

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, span: Span) -> None:
        if self.track_memory:
            self._ensure_tracemalloc()
        span.tid = threading.get_ident()
        span.start = time.perf_counter() - self._epoch
        # stash absolute clocks on the handle-side fields
        span._t0_wall = time.perf_counter()  # type: ignore[attr-defined]
        span._t0_cpu = time.process_time()  # type: ignore[attr-defined]
        self._stack().append(span)

    def _exit(self, span: Span) -> None:
        span.wall = time.perf_counter() - span._t0_wall  # type: ignore[attr-defined]
        span.cpu = time.process_time() - span._t0_cpu  # type: ignore[attr-defined]
        del span._t0_wall, span._t0_cpu  # type: ignore[attr-defined]
        if self.track_memory:
            peak = self._sample_peak()
            span.peak_bytes = peak
            self.gauge_max("mem.peak_bytes", peak)
        stack = self._stack()
        # Balance invariant: spans close innermost-first. Closing out of
        # order (or closing a span this thread never opened) is a bug in
        # the instrumented code; recover by unwinding to the span.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        with self._lock:
            if stack:
                stack[-1].children.append(span)
            else:
                self.roots.append(span)

    # -- counters / gauges ---------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            old = self.gauges.get(name)
            if old is None or value > old:
                self.gauges[name] = value

    # -- engine-stats merge ----------------------------------------------------

    def merge_fixpoint_stats(self, stats, scheduler_stats=None) -> None:
        """Fold a :class:`repro.analysis.engine.FixpointStats` (and its
        optional :class:`~repro.analysis.schedule.SchedulerStats`) into the
        registry — the engine's counters stay on the result object *and*
        land here, so the phase report covers them without a second
        source of truth."""
        if not self.enabled:
            return
        self.count("fixpoint.iterations", stats.iterations)
        self.gauge_max("fixpoint.max_worklist", stats.max_worklist)
        self.count("fixpoint.visited_nodes", len(stats.visited))
        if stats.dep_count:
            self.gauge("dep.count", stats.dep_count)
        if stats.raw_dep_count:
            self.gauge("dep.raw_count", stats.raw_dep_count)
        if stats.reachable_nodes:
            self.gauge("fixpoint.reachable_nodes", stats.reachable_nodes)
        if scheduler_stats is not None:
            self.count("sched.pops", scheduler_stats.pops)
            self.count("sched.revisits", scheduler_stats.revisits)
            self.count("sched.inversions", scheduler_stats.inversions)
            self.count("value.join_cache_hits", scheduler_stats.join_cache_hits)
            self.count(
                "value.join_cache_misses", scheduler_stats.join_cache_misses
            )
            self.gauge("sched.widening_points", scheduler_stats.widening_points)

    # -- memory ----------------------------------------------------------------

    def _ensure_tracemalloc(self) -> None:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    def _sample_peak(self) -> int:
        import tracemalloc

        if not tracemalloc.is_tracing():
            return 0
        return tracemalloc.get_traced_memory()[1]

    def close(self) -> None:
        """Stop tracemalloc if this registry started it."""
        if self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False

    # -- introspection ---------------------------------------------------------

    def spans_named(self, name: str) -> list[Span]:
        """Every finished span (at any depth) with the given name."""
        out = []
        for root in self.roots:
            out.extend(s for s in root.walk() if s.name == name)
        return out

    def open_spans(self) -> int:
        """Live spans on the calling thread's stack (0 when balanced)."""
        return len(self._stack())


#: the shared disabled registry — the default for every ``telemetry=``
#: parameter in the pipeline
NULL_TELEMETRY = Telemetry(enabled=False)
