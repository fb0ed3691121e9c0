"""Resident analysis state behind ``repro serve``.

A :class:`ServeSession` loads a program once and keeps, per engine×domain
combo, a *resident* analysis: the prepared :class:`EnginePlan` (control
graph, WTO, dependency graph, packs) plus a partially- or fully-solved
state table and the set of nodes whose entries are known-final. Point
queries are answered in one of three ways, cheapest first:

``resident``
    every node in the query's backward cone is already solved — the
    answer is a pure table read, no engine work at all;
``cone``
    the unsolved part of the cone is widening-free, so the existing
    :class:`FixpointEngine` runs restricted to it (membraned by
    :class:`~repro.analysis.incremental.ConeSpace`), warm-started from
    the resident table;
``global`` / ``global-fallback``
    strict/narrowing/widening configurations — or a cone that blows its
    per-query budget — fall back to the from-scratch whole-program solve
    (identical construction to the batch drivers), which is then cached
    as the new resident table.

Every answer is byte-identical to what a fresh ``analyze()`` of the
current program text would return: the solved set is kept backward-closed
(a solved node's inputs are always solved), cone solves are attempted
only under :func:`~repro.analysis.incremental.cone_is_exact`, and edits
retain exactly the complement of the dirty forward closure
(:func:`~repro.analysis.incremental.surviving_state`).

On ``edit`` the new program is built with the recovering frontend (an
unparseable body quarantines that function behind a havoc stub, exactly
the PR 6 contract), plans are rebuilt, resident tables are carried across
via the node correspondence, and *all* program-shape memos — the call
graph with its SCC memoization, the variable packing — are invalidated by
construction: they are keyed by generation and the generation number
advances before any of them can be consulted again.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass, field

from repro.analysis.engine import FixpointResult, FixpointStats
from repro.analysis.incremental import (
    backward_cone,
    cone_is_exact,
    demand_region,
    dep_closure,
    diff_programs,
    solve_cone,
    surviving_state,
)
from repro.analysis.plan import EnginePlan, prepare_plan, run_plan
from repro.analysis.preanalysis import run_preanalysis
from repro.frontend.errors import DiagnosticBag
from repro.ir.callgraph import build_callgraph
from repro.ir.program import build_program
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    state_from_wire,
    state_to_wire,
)
from repro.runtime.errors import BudgetExceeded
from repro.telemetry.core import Telemetry

DOMAINS = ("interval", "octagon")
MODES = ("vanilla", "base", "sparse")

#: Above this fraction of the program, a cone solve stops being cheaper
#: than reusing the cached global solve machinery — fall through.
DEFAULT_CONE_THRESHOLD = 0.9

_SNAPSHOT_KIND = "serve-resident"


@dataclass
class ResidentAnalysis:
    """One combo's warm state: the prepared plan, the (partial) fixpoint
    table, and the backward-closed set of nodes whose entries are final."""

    domain: str
    mode: str
    plan: EnginePlan
    table: dict[int, object] = field(default_factory=dict)
    solved: set[int] = field(default_factory=set)
    #: memoized backward cones for this plan (cleared on edit)
    cone_cache: dict[int, frozenset[int]] = field(default_factory=dict)
    #: cached AnalysisRun facade over the current table (its reaching-walk
    #: memo must be dropped whenever the table changes)
    facade: object = None
    #: LRU clock tick of the last query that touched this combo
    last_used: int = 0
    #: memoized :meth:`approx_bytes` (``None`` = table changed, recompute)
    bytes_cache: int | None = None

    def cone(self, nid: int) -> frozenset[int]:
        hit = self.cone_cache.get(nid)
        if hit is None:
            hit = frozenset(backward_cone(self.plan, (nid,)))
            self.cone_cache[nid] = hit
        return hit

    def approx_bytes(self) -> int:
        """Resident footprint estimate: the wire-encoded size of every
        table cell (exactly what a snapshot of this combo would cost).
        Memoized until the table changes."""
        if self.bytes_cache is None:
            total = 0
            for state in self.table.values():
                total += len(
                    json.dumps(state_to_wire(state), separators=(",", ":"))
                )
            self.bytes_cache = total
        return self.bytes_cache


class ServeSession:
    """A long-running query/edit session over one translation unit."""

    def __init__(
        self,
        source: str,
        filename: str = "<serve>",
        *,
        domain: str = "interval",
        mode: str = "sparse",
        strict: bool = True,
        widen: bool = True,
        narrowing_passes: int = 0,
        preprocess_source: bool = False,
        query_budget_seconds: float | None = None,
        query_max_iterations: int | None = None,
        cone_threshold: float = DEFAULT_CONE_THRESHOLD,
        max_resident_bytes: int | None = None,
        telemetry=None,
    ) -> None:
        if domain not in DOMAINS:
            raise ValueError(f"unknown domain {domain!r}")
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.filename = filename
        self.default_domain = domain
        self.default_mode = mode
        self.strict = strict
        self.widen = widen
        self.narrowing_passes = narrowing_passes
        self.preprocess_source = preprocess_source
        self.query_budget_seconds = query_budget_seconds
        self.query_max_iterations = query_max_iterations
        self.cone_threshold = cone_threshold
        self.max_resident_bytes = max_resident_bytes
        self.telemetry = Telemetry.coerce(telemetry)
        self.generation = 0
        #: bumped by :meth:`_mark_changed` on every change to what
        #: :meth:`snapshot` would write (residents, tables, solved sets,
        #: source, generation) — equal versions mean identical payloads
        self.state_version = 0
        self.shutdown_requested = False
        self._use_clock = 0
        self.counters = {
            "resident": 0,
            "cone": 0,
            "global": 0,
            "fallback": 0,
            "edits": 0,
            "evictions": 0,
            "snapshots": 0,
            "snapshots_skipped": 0,
        }
        #: stats of the most recent engine run (None for pure table reads)
        self.last_stats: FixpointStats | None = None
        #: how the most recent query was answered
        self.last_solve: str | None = None
        self.residents: dict[tuple[str, str], ResidentAnalysis] = {}
        self._packs_cache: tuple[int, object] | None = None
        self._callgraph_cache: tuple[int, object] | None = None
        self.source = ""
        self.program, self.pre = self._build(source)
        self.source = source

    # -- program loading -------------------------------------------------------

    def _build(self, source: str):
        """Frontend + pre-analysis for one program text, with PR 6
        recovery semantics (quarantine, not failure, for bad bodies)."""
        bag = DiagnosticBag()
        text = source
        with self.telemetry.span("frontend", file=self.filename):
            if self.preprocess_source:
                from repro.frontend.preprocessor import preprocess

                text = preprocess(text, self.filename, diagnostics=bag)
            program = build_program(
                text, self.filename, telemetry=self.telemetry, diagnostics=bag
            )
        if bag.errors() and not program.analyzed_functions():
            raise bag.to_error(f"no recoverable functions in {self.filename}")
        pre = run_preanalysis(program, telemetry=self.telemetry)
        return program, pre

    def _packs(self):
        if self._packs_cache is None or self._packs_cache[0] != self.generation:
            from repro.domains.packs import build_packs

            self._packs_cache = (self.generation, build_packs(self.program))
        return self._packs_cache[1]

    def callgraph(self):
        """The current program's call graph. Memoized per generation —
        an edit advances the generation before any lookup can happen, so
        a stale SCC decomposition is impossible by construction."""
        if (
            self._callgraph_cache is None
            or self._callgraph_cache[0] != self.generation
        ):
            pre = self.pre
            self._callgraph_cache = (
                self.generation,
                build_callgraph(
                    self.program,
                    resolve=lambda node: pre.site_callees.get(node.nid, ()),
                ),
            )
        return self._callgraph_cache[1]

    def _prepare(self, domain: str, mode: str) -> EnginePlan:
        packs = {"packs": self._packs()} if domain == "octagon" else {}
        return prepare_plan(
            self.program,
            self.pre,
            domain,
            mode,
            strict=self.strict,
            widen=self.widen,
            telemetry=self.telemetry,
            **packs,
        )

    def resident(self, domain: str | None = None, mode: str | None = None):
        """The (lazily created) resident analysis for a combo."""
        domain = domain or self.default_domain
        mode = mode or self.default_mode
        if domain not in DOMAINS:
            raise ValueError(f"unknown domain {domain!r}")
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        key = (domain, mode)
        res = self.residents.get(key)
        if res is None:
            res = ResidentAnalysis(domain, mode, self._prepare(domain, mode))
            self.residents[key] = res
            self._mark_changed()
        self._use_clock += 1
        res.last_used = self._use_clock
        return res

    def _mark_changed(self, res: ResidentAnalysis | None = None) -> None:
        """Record a change to the snapshot payload: bump
        :attr:`state_version` and, when ``res``'s table or solved set
        changed, drop its facade memo and byte estimate."""
        self.state_version += 1
        if res is not None:
            res.facade = None
            res.bytes_cache = None

    # -- memory-pressure degradation -------------------------------------------

    def resident_bytes(self) -> int:
        """Estimated bytes held by all resident tables (wire-encoded)."""
        return sum(res.approx_bytes() for res in self.residents.values())

    def maybe_evict(self) -> list[str]:
        """Graceful degradation under memory pressure: while the resident
        footprint exceeds ``max_resident_bytes``, drop whole per-combo
        resident analyses least-recently-used first. Evicted combos fall
        back to a lazy re-solve on their next query — strictly a
        performance loss, never a precision or correctness one."""
        if self.max_resident_bytes is None or not self.residents:
            return []
        evicted: list[str] = []
        total = self.resident_bytes()
        while total > self.max_resident_bytes and self.residents:
            key, res = min(
                self.residents.items(), key=lambda kv: kv[1].last_used
            )
            total -= res.approx_bytes()
            del self.residents[key]
            self._mark_changed()
            evicted.append("/".join(key))
            self.counters["evictions"] += 1
            self.telemetry.count("serve.evictions")
        return evicted

    # -- solving ---------------------------------------------------------------

    def _query_budget(self) -> Budget | None:
        if self.query_budget_seconds is None and self.query_max_iterations is None:
            return None
        return Budget(
            max_seconds=self.query_budget_seconds,
            max_iterations=self.query_max_iterations,
            check_every=1,
        )

    def _global_solve(self, res: ResidentAnalysis) -> None:
        result = run_plan(
            res.plan,
            narrowing_passes=self.narrowing_passes,
            telemetry=self.telemetry,
        )
        res.table = result.table
        res.solved = set(res.plan.node_ids)
        self._mark_changed(res)
        self.last_stats = result.stats

    def _ensure_solved(self, res: ResidentAnalysis, need: frozenset[int]) -> str:
        """Make every node in ``need`` final in the resident table, the
        cheapest correct way; returns how (``resident``/``cone``/
        ``global``/``global-fallback``)."""
        pending = set(need) - res.solved
        if not pending:
            self.last_stats = None
            return "resident"
        plan = res.plan
        cone_ok = (
            cone_is_exact(plan, pending, self.narrowing_passes)
            and len(pending) <= self.cone_threshold * len(plan.node_ids)
        )
        if cone_ok:
            try:
                table, stats = solve_cone(
                    plan,
                    pending,
                    res.table,
                    budget=self._query_budget(),
                    telemetry=self.telemetry,
                )
            except BudgetExceeded:
                self._global_solve(res)
                return "global-fallback"
            for nid in pending:
                if nid in table:
                    res.table[nid] = table[nid]
                else:
                    res.table.pop(nid, None)
            res.solved |= pending
            self._mark_changed(res)
            self.last_stats = stats
            return "cone"
        self._global_solve(res)
        return "global"

    def _facade(self, res: ResidentAnalysis):
        """An :class:`repro.api.AnalysisRun` over the resident table, for
        its reaching-definition query logic. Rebuilt whenever the table
        changes (the facade memoizes lookups)."""
        if res.facade is None:
            from repro.api import AnalysisRun

            result = FixpointResult(
                res.table,
                FixpointStats(),
                pre=self.pre,
                defuse=res.plan.defuse,
                deps=res.plan.deps,
                graph=res.plan.graph,
                packs=res.plan.packs,
                bottom=res.plan.state_factory,
            )
            res.facade = AnalysisRun(
                self.program,
                self.pre,
                res.domain,
                res.mode,
                result,
                telemetry=self.telemetry,
            )
        return res.facade

    def _demand(
        self, res: ResidentAnalysis, nid: int, var: str, owner: str | None
    ) -> frozenset[int]:
        """The nodes whose table entries must be final before the facade
        can answer an interval query at ``nid``. Sparse plans know the
        reaching-walk's read region statically (D̂ sites shadow), so the
        demand set is its dependency-backward closure — usually a small
        slice, and in particular disjoint from dirty regions no dependency
        path connects to the query. Dense plans read joins over control
        predecessors, so they need the full backward cone."""
        from repro.domains.absloc import VarLoc

        plan = res.plan
        if not plan.sparse or plan.strict or plan.defuse is None:
            return res.cone(nid)
        loc = VarLoc(var, owner)
        if res.domain == "interval":
            keys = [loc]
        else:
            keys = list(plan.packs.packs_of(loc))
            if not keys:
                return frozenset((nid,))
        return frozenset(dep_closure(plan, demand_region(plan, nid, keys)))

    def _locate(self, proc: str, line: int | None) -> int:
        cfg = self.program.cfgs.get(proc)
        if cfg is None or cfg.exit is None:
            raise ValueError(f"no procedure {proc!r}")
        if line is None:
            return cfg.exit.nid
        best = None
        for node in cfg.nodes:
            if node.line and node.line <= line:
                best = node
        return best.nid if best is not None else cfg.entry.nid

    # -- queries ---------------------------------------------------------------

    def query_interval(
        self,
        proc: str,
        var: str,
        line: int | None = None,
        domain: str | None = None,
        mode: str | None = None,
    ):
        """Interval of ``var`` in ``proc`` — at the procedure exit, or at
        the last control point on/before ``line``."""
        from repro.api import QueryResult

        if not isinstance(proc, str) or not isinstance(var, str):
            raise ValueError("interval query needs 'proc' and 'var' strings")
        started = time.perf_counter()
        res = self.resident(domain, mode)
        nid = self._locate(proc, line)
        owner: str | None = proc
        info = self.program.proc_infos.get(proc)
        if info is not None and var not in info.var_types:
            owner = None
        with self.telemetry.span(
            "query", kind="interval", domain=res.domain, mode=res.mode
        ) as sp:
            need = self._demand(res, nid, var, owner)
            solve = self._ensure_solved(res, need)
            self.counters[
                "fallback" if solve == "global-fallback" else solve
            ] += 1
            self.telemetry.count(f"query.{solve}")
            interval = self._facade(res).interval_of(nid, var, owner)
            visited = len(self.last_stats.visited) if self.last_stats else 0
            sp.set(solve=solve, visited=visited)
        self.last_solve = solve
        self.maybe_evict()
        return QueryResult(
            kind="interval",
            domain=res.domain,
            mode=res.mode,
            proc=proc,
            var=var,
            nid=nid,
            line=line,
            interval=interval,
            solve=solve,
            visited=visited,
            elapsed=time.perf_counter() - started,
            generation=self.generation,
        )

    def query_check(
        self,
        proc: str | None = None,
        domain: str | None = None,
        mode: str | None = None,
    ):
        """Buffer-overrun reports for one procedure (or the whole unit).
        Interval domain only — the checker's contract."""
        from repro.api import QueryResult

        res = self.resident(domain or "interval", mode)
        if res.domain != "interval":
            raise ValueError("the overrun checker needs the interval domain")
        started = time.perf_counter()
        if proc is not None:
            cfg = self.program.cfgs.get(proc)
            if cfg is None:
                raise ValueError(f"no procedure {proc!r}")
            targets = [n.nid for n in cfg.nodes]
        else:
            targets = list(res.plan.node_ids)
        with self.telemetry.span(
            "query", kind="check", domain=res.domain, mode=res.mode
        ) as sp:
            need = frozenset(backward_cone(res.plan, targets))
            solve = self._ensure_solved(res, need)
            self.counters[
                "fallback" if solve == "global-fallback" else solve
            ] += 1
            self.telemetry.count(f"query.{solve}")
            reports = self._facade(res).overrun_reports()
            if proc is not None:
                reports = [r for r in reports if r.proc == proc]
            visited = len(self.last_stats.visited) if self.last_stats else 0
            sp.set(solve=solve, alarms=len(reports), visited=visited)
        self.last_solve = solve
        self.maybe_evict()
        return QueryResult(
            kind="check",
            domain=res.domain,
            mode=res.mode,
            proc=proc,
            var=None,
            nid=None,
            line=None,
            interval=None,
            reports=reports,
            solve=solve,
            visited=visited,
            elapsed=time.perf_counter() - started,
            generation=self.generation,
        )

    # -- edits -----------------------------------------------------------------

    def _splice_function(self, function: str, body: str) -> str:
        """Replace ``function``'s body in the current source text. The
        replacement is padded with blank lines (when it is shorter) so
        later functions keep their line numbers — allocation sites embed
        lines, and a shifted site would conservatively dirty its proc."""
        lines = self.source.splitlines()
        # the name as a whole identifier followed by '(' — at brace depth 0,
        # so a call inside another body is never taken for the definition
        name = re.compile(rf"(?<![A-Za-z0-9_]){re.escape(function)}\s*\(")
        open_idx = None
        depth = 0
        for i, text in enumerate(lines):
            stripped = text.split("//")[0]
            match = name.search(stripped)
            before = stripped[: match.start()] if match else ""
            if match and depth + before.count("{") - before.count("}") == 0:
                j = i
                while j < len(lines) and "{" not in lines[j].split("//")[0]:
                    if ";" in lines[j].split("//")[0]:
                        break  # a prototype, not a definition
                    j += 1
                if j < len(lines) and "{" in lines[j].split("//")[0]:
                    if "=" not in before:
                        open_idx = j
                        break
            depth += stripped.count("{") - stripped.count("}")
        if open_idx is None:
            raise ValueError(f"cannot find a definition of {function!r}")
        depth = 0
        close_idx = None
        for j in range(open_idx, len(lines)):
            code = lines[j].split("//")[0]
            depth += code.count("{") - code.count("}")
            if depth == 0 and "}" in code:
                close_idx = j
                break
        if close_idx is None:
            raise ValueError(f"unterminated body for {function!r}")
        if close_idx <= open_idx:
            raise ValueError(
                f"{function!r} has a single-line body; edit with full 'source'"
            )
        old_span = close_idx - open_idx - 1
        new_lines = body.splitlines()
        if len(new_lines) < old_span:
            new_lines = new_lines + [""] * (old_span - len(new_lines))
        return "\n".join(
            lines[: open_idx + 1] + new_lines + lines[close_idx:]
        ) + ("\n" if self.source.endswith("\n") else "")

    def edit(
        self,
        source: str | None = None,
        function: str | None = None,
        body: str | None = None,
    ) -> dict:
        """Replace the program text (whole ``source``, or one ``function``
        body) and carry every resident analysis across the edit. Nothing
        is committed until the new program builds — a frontend hard
        failure leaves the session on the previous generation."""
        if source is None:
            if function is None or body is None:
                raise ValueError("edit needs source, or function + body")
            source = self._splice_function(function, body)
        with self.telemetry.span("edit", file=self.filename) as sp:
            new_program, new_pre = self._build(source)
            old_program = self.program
            diff = diff_programs(old_program, new_program)
            self.source = source
            self.program = new_program
            self.pre = new_pre
            self.generation += 1
            self._mark_changed()
            self.counters["edits"] += 1
            self.telemetry.count("edit.edits")
            per_resident: dict[str, dict] = {}
            for key, res in list(self.residents.items()):
                new_plan = self._prepare(*key)
                table, solved, n_dirty = surviving_state(
                    diff, res.table, res.solved, res.plan, new_plan
                )
                res.plan = new_plan
                res.table = table
                res.solved = solved
                res.cone_cache.clear()
                self._mark_changed(res)
                per_resident["/".join(key)] = {
                    "retained": len(solved),
                    "seed_dirty": n_dirty,
                    "nodes": len(new_plan.node_ids),
                }
                self.telemetry.count("edit.retained_nodes", len(solved))
                self.telemetry.count("edit.dirty_nodes", n_dirty)
            sp.set(
                changed_procs=len(diff.changed_procs),
                generation=self.generation,
            )
        self.maybe_evict()
        return {
            "generation": self.generation,
            "changed_procs": sorted(diff.changed_procs),
            "quarantined": sorted(self.program.quarantined),
            "residents": per_resident,
        }

    # -- snapshot / restore ----------------------------------------------------

    def _fingerprint(self) -> str:
        spec = {
            "kind": _SNAPSHOT_KIND,
            "source": hashlib.sha256(self.source.encode("utf-8")).hexdigest(),
            "strict": self.strict,
            "widen": self.widen,
            "narrowing_passes": self.narrowing_passes,
        }
        blob = json.dumps(spec, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def snapshot(self, path: str) -> dict:
        """Persist every resident table through the PR 5 checkpoint codec
        (digest-protected, atomically written)."""
        residents = {}
        for (domain, mode), res in self.residents.items():
            residents[f"{domain}/{mode}"] = {
                "solved": sorted(res.solved),
                "table": [
                    [nid, state_to_wire(state)]
                    for nid, state in sorted(res.table.items())
                ],
            }
        payload = {
            "kind": _SNAPSHOT_KIND,
            "fingerprint": self._fingerprint(),
            "generation": self.generation,
            "residents": residents,
        }
        nbytes = save_checkpoint(path, payload)
        self.counters["snapshots"] += 1
        self.telemetry.count("serve.snapshots")
        return {
            "path": path,
            "bytes": nbytes,
            "residents": len(residents),
            "generation": self.generation,
        }

    def restore(self, path: str) -> dict:
        """Warm-start resident tables from a snapshot. Fails closed (PR 5
        semantics) when the snapshot belongs to different program text or
        engine configuration."""
        payload = load_checkpoint(path, expect_fingerprint=self._fingerprint())
        restored = []
        for key, wire in payload.get("residents", {}).items():
            domain, _, mode = key.partition("/")
            res = self.resident(domain, mode)
            res.table = {
                nid: state_from_wire(state_w) for nid, state_w in wire["table"]
            }
            res.solved = set(wire["solved"])
            res.cone_cache.clear()
            self._mark_changed(res)
            restored.append(key)
        return {"path": path, "residents": sorted(restored)}

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        residents = {}
        for (domain, mode), res in self.residents.items():
            row = {
                "solved": len(res.solved),
                "nodes": len(res.plan.node_ids),
            }
            if self.max_resident_bytes is not None:
                row["bytes"] = res.approx_bytes()
            residents[f"{domain}/{mode}"] = row
        out = {
            "generation": self.generation,
            "procedures": len(self.program.cfgs),
            "quarantined": sorted(self.program.quarantined),
            "queries": dict(self.counters),
            "residents": residents,
        }
        if self.max_resident_bytes is not None:
            out["max_resident_bytes"] = self.max_resident_bytes
        return out
