"""High-level public API.

One-call entry points for the common workflows::

    from repro import analyze

    result = analyze(source, domain="interval", mode="sparse")
    result.interval_at_exit("main", "x")     # value query
    result.overrun_reports()                 # buffer-overrun checker

``domain`` selects the abstract domain (``"interval"`` non-relational or
``"octagon"`` packed relational); ``mode`` selects the engine
(``"sparse"``, ``"base"`` with access-based localization, or ``"vanilla"``).

Resilience (see :mod:`repro.runtime`): ``budget`` caps the fixpoint work,
and ``on_budget="degrade"`` trades per-procedure precision for guaranteed
completion (an unconverged procedure falls back to the pre-analysis state,
sound by Lemma 2). What actually happened is recorded on
``run.diagnostics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.engine import FixpointResult
from repro.analysis.plan import prepare_plan, run_plan
from repro.analysis.preanalysis import PreAnalysis, run_preanalysis
from repro.analysis.relational import RelContext
from repro.checkers.overrun import AccessReport, check_overruns
from repro.domains.absloc import AbsLoc, VarLoc
from repro.domains.interval import Interval
from repro.domains.octagon import Octagon
from repro.domains.value import AbsValue
from repro.frontend.errors import DiagnosticBag
from repro.ir.program import Program, build_program
from repro.runtime.budget import Budget
from repro.runtime.collector import collections_counted, collector_paused
from repro.runtime.degrade import Diagnostics
from repro.runtime.faults import FaultInjector
from repro.telemetry.core import NULL_TELEMETRY, Telemetry

#: cache sentinel — ``None`` is a legitimate lookup result
_MISS = object()


@dataclass
class AnalysisRun:
    """A completed analysis with convenience queries.

    Sparse results only materialize a location's value where it is
    *defined* (Lemma 1's scope) — queries at arbitrary points therefore
    walk backward to the reaching definitions: the value at ``c`` is the
    join of the nearest ancestor states that carry the location (values
    flow unchanged along definition-free paths). Octagon packs are
    ⊤-default, so their walk stops at the pack's D̂ sites instead
    (:meth:`_pack_at`).

    ``diagnostics`` records what the resilience runtime did: degraded
    procedures, resilience events and the iteration count."""

    program: Program
    pre: PreAnalysis
    domain: str
    mode: str
    result: FixpointResult
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    #: the telemetry registry the run reported into (the shared no-op
    #: singleton unless ``analyze(..., telemetry=...)`` was given one)
    telemetry: Telemetry = field(default=NULL_TELEMETRY, repr=False)
    #: recovered frontend problems (lex/parse/lowering errors plus
    #: quarantine notes); empty under ``strict_frontend=True`` or when the
    #: input parsed cleanly
    frontend_diagnostics: DiagnosticBag = field(default_factory=DiagnosticBag)
    #: memo for :meth:`_reaching_lookup` — repeated checker queries walk the
    #: same predecessor chains over and over; one entry per (node, key)
    _lookup_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- queries ---------------------------------------------------------------

    @property
    def scheduler_stats(self):
        """The main fixpoint's :class:`~repro.analysis.schedule.SchedulerStats`
        (None for pre-analysis-only results)."""
        return getattr(self.result, "scheduler_stats", None)

    @property
    def quarantined(self) -> dict[str, str]:
        """Functions replaced by havoc stubs, with their soundness notes."""
        return self.program.quarantined

    def coverage(self) -> tuple[int, int]:
        """``(analyzed, quarantined)`` function counts for this run."""
        return (
            len(self.program.analyzed_functions()),
            len(self.program.quarantined),
        )

    def _reaching_lookup(self, nid: int, key) -> object | None:
        """Join of the nearest states (backward over the control graph)
        that carry ``key``; None when no path defines it. Memoized per
        ``(nid, key)`` on the run object."""
        cache_key = (nid, key)
        hit = self._lookup_cache.get(cache_key, _MISS)
        if hit is not _MISS:
            return hit
        preds = self.result.graph.preds
        table = self.result.table
        found = None
        seen = {nid}
        frontier = [nid]
        while frontier:
            new_frontier = []
            for node in frontier:
                state = table.get(node)
                if state is not None and key in state:
                    value = state.get(key)
                    found = value if found is None else found.join(value)
                    continue  # the definition shadows anything above
                for p in preds.get(node, ()):
                    if p not in seen:
                        seen.add(p)
                        new_frontier.append(p)
            frontier = new_frontier
        self._lookup_cache[cache_key] = found
        return found

    def _pack_at(self, nid: int, pack) -> object | None:
        """The octagon of ``pack`` at ``nid``, ``None`` for ⊤. Pack states
        are ⊤-default, so a present state without the pack is ⊤ — never
        "not defined here". A dense table holds every reachable point's
        state; a sparse one only what each point defines (D̂), so the
        value is the join of the definitions reaching ``nid``; that walk
        is memoized alongside :meth:`_reaching_lookup`."""
        table = self.result.table
        if self.result.deps is None:
            state = table.get(nid)
            if state is None:
                return Octagon.bottom(len(pack))  # unreachable
            return state.get(pack) if pack in state else None
        cache_key = (nid, pack)
        hit = self._lookup_cache.get(cache_key, _MISS)
        if hit is not _MISS:
            return hit
        defines = self.result.defuse.d
        preds = self.result.graph.preds
        found = None
        seen = {nid}
        frontier = [nid]
        while frontier:
            node = frontier.pop()
            if pack in defines(node):
                state = table.get(node)
                if state is None:
                    continue  # unreachable definition: contributes ⊥
                if pack not in state:
                    found = None  # defined as ⊤ here: the join is ⊤
                    break
                value = state.get(pack)
                found = value if found is None else found.join(value)
                continue  # the definition shadows anything above
            for p in preds.get(node, ()):
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        # None when no definition reaches: ⊤ is the sound answer
        self._lookup_cache[cache_key] = found
        return found

    def value_at(self, nid: int, loc: AbsLoc) -> AbsValue:
        """Abstract value of ``loc`` at control point ``nid`` (interval
        domain only)."""
        if self.domain != "interval":
            raise ValueError("value_at is an interval-domain query")
        state = self.result.table.get(nid)
        if state is not None and loc in state:
            return state.get(loc)
        found = self._reaching_lookup(nid, loc)
        return found if found is not None else AbsValue.bottom()

    def interval_of(self, nid: int, var: str, proc: str | None = None) -> Interval:
        """The numeric interval of a variable at a control point."""
        loc = VarLoc(var, proc)
        if self.domain == "interval":
            return self.value_at(nid, loc).itv
        ctx = RelContext(self.program, self.pre, self.result.packs)
        out = Interval.top()
        for pack in ctx.packs.packs_of(loc):
            oct_ = self._pack_at(nid, pack)
            if oct_ is not None:
                out = out.meet(oct_.project(pack.index(loc)))
        return out

    def interval_at_exit(self, proc: str, var: str) -> Interval:
        """The interval of ``proc``'s local ``var`` (or a global when the
        name is not a local) at the procedure's exit."""
        cfg = self.program.cfgs.get(proc)
        if cfg is None or cfg.exit is None:
            raise KeyError(f"no procedure {proc!r}")
        owner: str | None = proc
        info = self.program.proc_infos.get(proc)
        if info is not None and var not in info.var_types:
            owner = None
        return self.interval_of(cfg.exit.nid, var, owner)

    def overrun_reports(self) -> list[AccessReport]:
        """Run the buffer-overrun checker over this result."""
        if self.domain != "interval":
            raise ValueError("the overrun checker needs the interval domain")
        from repro.checkers import run_checker

        return run_checker(
            "overrun", self.program, self.result, telemetry=self.telemetry
        )


@dataclass
class QueryResult:
    """One answer from a :class:`repro.server.ServeSession` point query.

    ``solve`` records how the answer was produced — ``"resident"`` (pure
    table read), ``"cone"`` (demand-driven restricted solve),
    ``"global"`` (whole-program solve, now cached), or
    ``"global-fallback"`` (a cone attempt blew its per-query budget and
    degraded to the global solve). Whatever the path, the value is
    byte-identical to a fresh ``analyze()`` of the current program text.
    """

    kind: str
    domain: str
    mode: str
    solve: str
    generation: int
    proc: str | None = None
    var: str | None = None
    nid: int | None = None
    line: int | None = None
    interval: Interval | None = None
    reports: list[AccessReport] | None = None
    #: control points the engine actually popped for this answer
    visited: int = 0
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        """A JSON-ready rendering (the serve protocol's response body)."""
        out: dict = {
            "kind": self.kind,
            "domain": self.domain,
            "mode": self.mode,
            "solve": self.solve,
            "generation": self.generation,
            "visited": self.visited,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }
        if self.proc is not None:
            out["proc"] = self.proc
        if self.var is not None:
            out["var"] = self.var
        if self.nid is not None:
            out["nid"] = self.nid
        if self.line is not None:
            out["line"] = self.line
        if self.kind == "interval":
            itv = self.interval if self.interval is not None else Interval.bottom()
            out["interval"] = {
                "lo": itv.lo,
                "hi": itv.hi,
                "bottom": itv.is_bottom(),
                "repr": str(itv),
            }
        if self.reports is not None:
            out["reports"] = [
                {
                    "nid": r.nid,
                    "line": r.line,
                    "proc": r.proc,
                    "access": str(r.access),
                    "verdict": getattr(r.verdict, "value", str(r.verdict)),
                    "offset": str(r.offset),
                    "size": str(r.size),
                }
                for r in self.reports
            ]
        return out


def serve_session(
    source: str,
    filename: str = "<serve>",
    **options,
):
    """Create a :class:`repro.server.ServeSession` — the resident-state
    query/edit server behind ``repro serve``. Options mirror the session
    constructor (``domain``, ``mode``, ``strict``, ``widen``,
    ``narrowing_passes``, ``preprocess_source``, ``query_budget_seconds``,
    ``query_max_iterations``, ``cone_threshold``, ``max_resident_bytes`` —
    the LRU eviction budget for resident per-combo state — and
    ``telemetry``)."""
    from repro.server.session import ServeSession

    return ServeSession(source, filename, **options)


def supervised_session(
    source: str,
    filename: str = "<serve>",
    *,
    config=None,
    state_dir: str | None = None,
    **options,
):
    """Create (without starting) a :class:`repro.server.Supervisor` — the
    crash-recovering runtime behind ``repro serve --supervised``. The
    session lives in a worker child; crashes, hangs past the per-request
    deadline, and lost heartbeats are answered with ``retry`` errors while
    the worker is respawned (with backoff) and restored from its latest
    snapshot. ``options`` are the :func:`serve_session` options; ``config``
    is a :class:`repro.server.SupervisorConfig`. Call ``.start()`` before
    ``.ask()`` and ``.stop()`` when done."""
    from repro.server.supervisor import Supervisor

    return Supervisor(
        source, filename, config=config, state_dir=state_dir, **options
    )


def analyze(
    source: str,
    domain: str = "interval",
    mode: str = "sparse",
    filename: str = "<input>",
    preprocess_source: bool = False,
    inline: bool = False,
    budget: Budget | None = None,
    budget_seconds: float | None = None,
    on_budget: str = "fail",
    faults=None,
    watchdog: bool = True,
    telemetry=None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 200,
    resume: bool = False,
    strict_frontend: bool = False,
    **options,
) -> AnalysisRun:
    """Parse, lower, and analyze C-subset ``source``.

    ``preprocess_source`` runs the mini preprocessor first; ``inline``
    duplicates small non-recursive callees into their call sites (bounded
    context sensitivity). Remaining ``options`` are forwarded to the
    underlying engine (``strict``, ``widen``, ``narrowing_passes``,
    ``widening_thresholds``, ``max_iterations``, ``bypass``).

    Resilience knobs:

    * ``budget`` / ``budget_seconds`` / ``max_iterations`` — a unified
      :class:`repro.runtime.Budget` on the main fixpoint (the pre-analysis,
      being the degradation safety net, is not charged against it);
    * ``on_budget`` — ``"fail"`` raises :class:`BudgetExceeded` (the paper's
      ∞ entries); ``"degrade"`` fills unconverged procedures from the
      pre-analysis state and completes the run;
    * ``faults`` — a :class:`repro.runtime.faults.FaultPlan` for
      deterministic failure injection (testing);
    * ``watchdog`` — verify every degraded state stays ⊑ the pre-analysis
      bound.

    ``telemetry`` attaches a :class:`repro.telemetry.Telemetry` registry
    (or ``True`` for a fresh one, reachable as ``run.telemetry``): every
    phase — frontend, pre-analysis, dep-gen, fixpoint, narrowing — reports
    spans and counters into it, at no cost when omitted.

    Checkpointing (see :mod:`repro.runtime.checkpoint`): with
    ``checkpoint_path`` set, the engine atomically snapshots its in-flight
    state every ``checkpoint_every`` iterations and once more on any abort
    (budget exhaustion, injected crash, SIGINT/SIGTERM). ``resume=True``
    restores that snapshot — after validating format version, content
    digest, and a configuration fingerprint, failing closed with a
    :class:`~repro.runtime.errors.CheckpointError` otherwise — and the run
    converges to the same fixpoint as an uninterrupted one.

    Frontend fault tolerance (ISSUE 6): by default malformed input is
    *recovered* — lex/parse/lowering errors become positioned caret
    diagnostics on ``run.frontend_diagnostics``, functions whose bodies
    cannot be parsed or lowered are quarantined behind sound havoc stubs
    (``run.quarantined``), and every clean function is still analyzed. A
    file with **zero** recoverable functions raises
    :class:`~repro.frontend.errors.FrontendError` (one hard failure,
    carrying the first diagnostic). ``strict_frontend=True`` opts back
    into historical fail-fast parsing.
    """
    if on_budget not in ("fail", "degrade"):
        raise ValueError(f"on_budget must be 'fail' or 'degrade', not {on_budget!r}")
    if mode not in ("sparse", "base", "vanilla"):
        raise ValueError(f"unknown mode {mode!r}: expected sparse, base or vanilla")
    tel = Telemetry.coerce(telemetry)
    # The run frees its objects by reference counting (DESIGN.md, "Memory
    # management"): the cyclic collector has nothing to do until it ends.
    with collector_paused(), collections_counted(tel):
        bag = DiagnosticBag() if not strict_frontend else None
        with tel.span("frontend", file=filename) as front_span:
            if preprocess_source:
                from repro.frontend.preprocessor import preprocess

                source = preprocess(source, filename, diagnostics=bag)
            if inline:
                from repro.frontend import parse
                from repro.frontend.inliner import inline_unit
                from repro.ir.program import ProgramBuilder

                unit, _count = inline_unit(parse(source, filename, bag))
                program = ProgramBuilder(unit, diagnostics=bag).build()
            else:
                program = build_program(
                    source, filename, telemetry=tel, diagnostics=bag
                )
            front_span.set(
                procedures=program.num_functions(),
                control_points=program.num_statements(),
            )
        if bag is not None and bag.errors() and not program.analyzed_functions():
            # Recovery found nothing analyzable: this is the one hard-failure
            # case of the recovery contract (everything else degrades).
            raise bag.to_error(f"no recoverable functions in {filename}")
        pre = run_preanalysis(program, telemetry=tel)

        resolved_budget = Budget.coerce(
            budget,
            max_iterations=options.pop("max_iterations", None),
            max_seconds=budget_seconds,
        )
        injector = FaultInjector.coerce(faults)

        checkpointer = None
        resume_payload = None
        if checkpoint_path is not None:
            from repro.runtime.checkpoint import (
                Checkpointer,
                config_fingerprint,
                load_checkpoint,
            )

            fingerprint = config_fingerprint(domain, mode, options, program)
            checkpointer = Checkpointer(
                checkpoint_path,
                every=checkpoint_every,
                fingerprint=fingerprint,
                telemetry=tel,
                heartbeat=True,
            )
            if resume:
                resume_payload = load_checkpoint(
                    checkpoint_path, expect_fingerprint=fingerprint
                )
        elif resume:
            raise ValueError("resume=True requires checkpoint_path")

        narrowing_passes = options.pop("narrowing_passes", 0)
        plan = prepare_plan(program, pre, domain, mode, telemetry=tel, **options)
        result = run_plan(
            plan,
            narrowing_passes=narrowing_passes,
            budget=resolved_budget,
            on_budget=on_budget,
            watchdog=watchdog,
            telemetry=tel,
            faults=injector,
            checkpoint=checkpointer,
            resume_from=resume_payload,
        )
        diagnostics = result.diagnostics
        if resume_payload is not None:
            diagnostics.events.append(
                f"resumed from checkpoint at iteration {resume_payload['iterations']}"
            )
        return AnalysisRun(
            program,
            pre,
            domain,
            mode,
            result,
            diagnostics,
            telemetry=tel,
            frontend_diagnostics=bag if bag is not None else DiagnosticBag(),
        )
