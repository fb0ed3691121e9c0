"""Per-layer tracing for the layered benchmark.

The traced run calls each layer's public entry point separately and times
the call, instead of calling ``analyze()`` once: preprocess, parse, lower,
pre-analysis, then per job the plan (``prepare_*``, the paper's Dep column
for sparse), D̂/Û, raw dependency generation, the bypass rewrite, the
fixpoint engine, and the checkers. Nothing inside ``src/`` is
instrumented. Interval sparse runs its engine on the products timed here;
the other combos time the engine as the median of ``ENGINE_REPS``
``run_* - prepare_*`` differences. Every traced job's table is checked
against the golden digest of the untraced job.

The plan contains D̂/Û, dependency generation and bypass, so
``analysis.plan_s`` overlaps ``defuse_s``, ``datadep_s`` and
``bypass_s``. ``trace.overhead_ratio`` therefore sums one chain of calls
with no overlap per job — frontend, pre-analysis, then D̂/Û, dependencies,
bypass and the fed engine for interval sparse, or one whole ``run_*``
otherwise — over the untraced time of the same jobs.

For the serve workloads the same request stream is replayed through an
in-process ``ServeSession`` to split a request into decode, dispatch and
encode; what the supervised round trip adds on top is the pipe IPC.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import oracle
from workloads import Job, Report, percentile

#: time layers reported on every workload (seconds, summed over jobs)
TIME_LAYERS = (
    "frontend.preprocess_s",
    "frontend.parse_s",
    "ir.lower_s",
    "analysis.preanalysis_s",
    "analysis.plan_s",
    "analysis.defuse_s",
    "analysis.datadep_s",
    "analysis.bypass_s",
    "analysis.engine_s",
    "checkers.run_s",
)
ENGINE_REPS = 3
PINGS = 200
SNAPSHOT_REPS = 5
EDIT_BREAKDOWNS = 10


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


class Tracer:
    """Accumulates layer times and counts over traced batch jobs."""

    def __init__(self) -> None:
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.sparse_sizes: list[tuple[float, float]] = []
        self.pack_sizes: list[float] = []
        #: summed time of one chain of traced calls per job that does the
        #: untraced operation's work once (``on_path`` calls)
        self.traced_total = 0.0

    def add(self, layer: str, mode: str, seconds: float) -> None:
        self.times[layer] += seconds
        self.times[f"{mode}.{layer}"] += seconds

    def call(self, layer: str, mode: str, fn, *args, on_path=True, **kwargs):
        out, seconds = _timed(fn, *args, **kwargs)
        self.add(layer, mode, seconds)
        if on_path:
            self.traced_total += seconds
        return out, seconds

    def job(self, job: Job, source, *, checkers_on_path: bool):
        """One batch job as separate layer calls; returns the
        ``AnalysisRun`` facade and (interval) the checker reports."""
        from repro.analysis.preanalysis import run_preanalysis
        from repro.api import AnalysisRun
        from repro.frontend import DiagnosticBag, parse
        from repro.frontend.preprocessor import preprocess
        from repro.ir.program import ProgramBuilder

        mode = job.mode
        bag = DiagnosticBag()
        text, _ = self.call(
            "frontend.preprocess_s", mode, preprocess, source.text,
            source.filename, diagnostics=bag if source.preprocess else DiagnosticBag(),
            on_path=source.preprocess,
        )
        if not source.preprocess:
            text = source.text
        unit, _ = self.call("frontend.parse_s", mode, parse, text, source.filename, bag)
        program, _ = self.call(
            "ir.lower_s", mode, lambda: ProgramBuilder(unit, "main", bag).build()
        )
        pre, _ = self.call("analysis.preanalysis_s", mode, run_preanalysis, program)
        result = self._engine(job, program, pre)
        run = AnalysisRun(program, pre, job.domain, job.mode, result)
        reports = None
        if job.domain == "interval":
            reports, _ = self.call(
                "checkers.run_s", mode, oracle.run_checkers, run,
                on_path=checkers_on_path,
            )
        for prefix in ("", f"{mode}."):
            self.counts[f"{prefix}ir.control_points"] += program.num_statements()
            self.counts[f"{prefix}analysis.engine_pops"] += result.stats.iterations
        if job.domain == "octagon":
            self.pack_sizes.append(result.packs.average_size())
        return run, reports

    def _engine(self, job: Job, program, pre):
        from repro.analysis.datadep import DataDepResult
        from repro.analysis.dense import prepare_interval_dense, run_dense
        from repro.analysis.relational import (
            prepare_rel_dense,
            prepare_rel_sparse,
            run_rel_dense,
            run_rel_sparse,
        )
        from repro.analysis.sparse import prepare_interval_sparse, run_sparse

        mode, interval = job.mode, job.domain == "interval"
        if interval and mode == "sparse":
            self.call(
                "analysis.plan_s", mode, prepare_interval_sparse, program, pre,
                on_path=False,
            )
            defuse, raw, deps = self._dep_pieces(job, program, pre, on_path=True)
            fed = DataDepResult(deps, raw.aug, raw_dep_count=raw.raw_dep_count)
            result, _ = self.call(
                "analysis.engine_s", mode, run_sparse,
                program, pre, defuse=defuse, dep_result=fed,
            )
            return result

        prepare, run = {
            (True, "dense"): (prepare_interval_dense, run_dense),
            (False, "dense"): (prepare_rel_dense, run_rel_dense),
            (False, "sparse"): (prepare_rel_sparse, run_rel_sparse),
        }[interval, "sparse" if mode == "sparse" else "dense"]
        kwargs = {} if mode == "sparse" else {"localize": mode == "base"}
        result = None
        plans, engines = [], []
        for _ in range(ENGINE_REPS):
            _, plan_s = _timed(prepare, program, pre, **kwargs)
            out, run_s = _timed(run, program, pre, **kwargs)
            if result is None:
                result = out
                self.traced_total += run_s
            plans.append(plan_s)
            engines.append(run_s - plan_s)
        self.add("analysis.plan_s", mode, statistics.median(plans))
        self.add("analysis.engine_s", mode, statistics.median(engines))
        if mode == "sparse":
            self._dep_pieces(job, program, pre, on_path=False)
        return result

    def _dep_pieces(self, job: Job, program, pre, *, on_path: bool):
        """D̂/Û, raw dependencies and the bypass rewrite as separate timed
        calls, with the counts they produce."""
        from repro.analysis import datadep
        from repro.analysis.defuse import compute_defuse
        from repro.analysis.dense import build_interproc_graph
        from repro.analysis.relational import RelContext, compute_rel_defuse
        from repro.analysis.schedule import GraphView, widening_points_for
        from repro.domains.packs import build_packs

        mode = job.mode
        graph = build_interproc_graph(program, pre.site_callees, localized=False)
        _, wps = widening_points_for(
            GraphView((program.entry_node().nid,), graph.succs), True
        )
        if job.domain == "interval":
            defuse, _ = self.call(
                "analysis.defuse_s", mode, compute_defuse, program, pre,
                on_path=on_path,
            )
        else:
            ctx = RelContext(program, pre, build_packs(program))
            defuse, _ = self.call(
                "analysis.defuse_s", mode, compute_rel_defuse, program, pre, ctx,
                on_path=on_path,
            )
        raw, _ = self.call(
            "analysis.datadep_s", mode, datadep.generate_datadeps,
            program, pre, defuse, bypass=False, widening_points=wps,
            on_path=on_path,
        )
        deps, _ = self.call(
            "analysis.bypass_s", mode, datadep.bypass_optimization,
            raw.deps, defuse, keep=wps, on_path=on_path,
        )
        self.counts["analysis.deps_raw"] += raw.raw_dep_count
        self.counts["analysis.deps_final"] += len(deps)
        self.sparse_sizes.append(defuse.average_sizes())
        return defuse, raw, deps

    def put_metrics(self, report: Report, overhead_ratio: float, by_mode: bool) -> None:
        for layer in TIME_LAYERS:
            if layer in self.times:  # no checkers run on octagon jobs
                report.put(layer, self.times[layer], "s")
        points = self.counts["ir.control_points"]
        pops = self.counts["analysis.engine_pops"]
        raw = self.counts["analysis.deps_raw"]
        final = self.counts["analysis.deps_final"]
        report.put("ir.control_points", points, "count")
        report.put("analysis.deps_raw", raw, "count")
        report.put("analysis.deps_final", final, "count")
        report.put("analysis.bypass_keep_ratio", final / raw if raw else 1.0, "ratio")
        report.put("analysis.engine_pops", pops, "count")
        report.put("analysis.pops_per_point", pops / points if points else 0.0, "ratio")
        defs = [d for d, _ in self.sparse_sizes] or [0.0]
        uses = [u for _, u in self.sparse_sizes] or [0.0]
        report.put("analysis.avg_defs", statistics.fmean(defs), "count")
        report.put("analysis.avg_uses", statistics.fmean(uses), "count")
        if self.pack_sizes:
            report.put(
                "domains.avg_pack_size", statistics.fmean(self.pack_sizes), "count"
            )
        report.put("trace.overhead_ratio", overhead_ratio, "ratio")
        if by_mode:
            for mode in ("sparse", "base", "vanilla"):
                for layer in TIME_LAYERS:
                    name = f"{mode}.{layer}"
                    if name in self.times:
                        report.put(name, self.times[name], "s")
                p = self.counts[f"{mode}.ir.control_points"]
                n = self.counts[f"{mode}.analysis.engine_pops"]
                report.put(f"{mode}.analysis.engine_pops", n, "count")
                report.put(
                    f"{mode}.analysis.pops_per_point", n / p if p else 0.0, "ratio"
                )


# -- serve --------------------------------------------------------------------


def _replay(session, untraced, lines: list[str], before_edit=None):
    """Replay request lines in-process, on ``session`` with decode,
    dispatch and encode timed apart and, request by request, on the
    ``untraced`` twin through the protocol's own loop, so both pay the
    same cold costs. Returns per-request (decode, dispatch, encode)
    seconds and the untraced total."""
    from repro.server.protocol import (
        decode_request,
        dispatch_request,
        encode_response,
        serve_lines,
    )

    out = []
    untraced_s = 0.0
    for line in lines:
        request, dec = _timed(decode_request, line)
        if request["op"] == "edit" and before_edit is not None:
            before_edit(session, request)
        response, disp = _timed(dispatch_request, session, request)
        response["id"] = request.get("id")
        _, enc = _timed(encode_response, response)
        out.append((dec, disp, enc))
        untraced_s += _timed(serve_lines, untraced, [line], lambda _line: None)[1]
    return out, untraced_s


def _warm_session(wl):
    from repro.server.session import ServeSession

    session = ServeSession(wl.source.text, f"{wl.program}.c")
    for domain in wl.domains:
        session.query_interval("main", "acc", domain=domain)
    return session


def _edit_breakdown(wl, cycles, samples: dict):
    """Times the pieces of one edit on the pre-edit session: rebuild
    (frontend + pre-analysis), plan, diff + surviving state, and the
    durable source checkpoint."""
    from repro.analysis.incremental import diff_programs, surviving_state
    from repro.analysis.preanalysis import run_preanalysis
    from repro.analysis.sparse import prepare_interval_sparse
    from repro.frontend import DiagnosticBag
    from repro.ir.program import build_program
    from repro.runtime.checkpoint import save_checkpoint

    path = wl.ctx.state_dir / "trace-source.ckpt"
    text_after = {c["rows"][0].request["id"]: c["text"] for c in cycles}

    def before_edit(session, request):
        if len(samples["rebuild"]) >= EDIT_BREAKDOWNS:
            return
        text = text_after[request["id"]]
        res = session.resident("interval", "sparse")
        start = time.perf_counter()
        program = build_program(text, session.filename, diagnostics=DiagnosticBag())
        pre = run_preanalysis(program)
        samples["rebuild"].append(time.perf_counter() - start)
        plan, seconds = _timed(prepare_interval_sparse, program, pre)
        samples["plan"].append(seconds)
        start = time.perf_counter()
        diff = diff_programs(session.program, program)
        surviving_state(diff, res.table, res.solved, res.plan, plan)
        samples["diff"].append(time.perf_counter() - start)
        payload = {"kind": "serve-source", "source": text,
                   "generation": session.generation + 1}
        _, seconds = _timed(save_checkpoint, path, payload)
        samples["save"].append(seconds)

    return before_edit


def trace_serve(wl, rows, report: Report, cycles=None) -> None:
    """Serve-layer split of the supervised ``rows`` (``workloads.Row``),
    plus the analysis-layer profile of the served program's resident
    combos. The in-process replay covers every read, or the first
    ``EDIT_BREAKDOWNS`` edit cycles."""
    from repro.server.supervisor import SupervisorConfig

    tracer = Tracer()
    for domain in wl.domains:
        job = Job(wl.program, domain, "sparse")
        run, reports = tracer.job(job, wl.source, checkers_on_path=False)
        failures = oracle.check_job(job.key, run, wl.ctx.golden, reports)
        if failures:
            report.fail("traced " + "; ".join(failures))

    lines = [json.dumps(row.request) for row in rows]
    if cycles:
        lines = lines[: 4 * EDIT_BREAKDOWNS]
    roundtrips = [row.elapsed for row in rows]
    pings = [wl.ask({"op": "ping", "id": -1 - i}, report).elapsed for i in range(PINGS)]

    session = _warm_session(wl)
    samples = {"rebuild": [], "plan": [], "diff": [], "save": []}
    before_edit = _edit_breakdown(wl, cycles, samples) if cycles else None
    split, untraced = _replay(session, _warm_session(wl), lines, before_edit)
    traced = sum(sum(parts) for parts in split)

    decode = [d for d, _, _ in split]
    dispatch = [p for _, p, _ in split]
    encode = [e for _, _, e in split]
    ipc = [
        row.elapsed - sum(parts)
        for row, parts in zip(rows, split)
        if row.request["op"] != "edit"
    ]
    report.put("server.protocol.decode_ms", percentile(decode, 50) * 1e3, "ms")
    report.put("server.session.dispatch_ms", percentile(dispatch, 50) * 1e3, "ms")
    report.put("server.session.dispatch_p99_ms", percentile(dispatch, 99) * 1e3, "ms")
    report.put("server.protocol.encode_ms", percentile(encode, 50) * 1e3, "ms")
    report.put("server.supervisor.roundtrip_ms", percentile(roundtrips, 50) * 1e3, "ms")
    report.put("server.supervisor.ping_ms", percentile(pings, 50) * 1e3, "ms")
    report.put("server.supervisor.ipc_ms", percentile(ipc, 50) * 1e3, "ms")

    snapshot_path = wl.ctx.state_dir / "trace-resident.ckpt"
    snapshot_s = statistics.median(
        _timed(session.snapshot, str(snapshot_path))[1] for _ in range(SNAPSHOT_REPS)
    )
    n_edits = sum(1 for row in rows if row.request["op"] == "edit")
    # the worker snapshots every ``snapshot_every`` requests and after each edit
    n_snapshots = len(rows) // SupervisorConfig().snapshot_every + n_edits
    report.put("server.session.snapshot_ms", snapshot_s * 1e3, "ms")
    report.put(
        "server.snapshot_share", snapshot_s * n_snapshots / sum(roundtrips), "ratio"
    )

    solves = defaultdict(int)
    for row in rows:
        if row.reply is not None and row.request["op"] == "query":
            solves[row.reply.get("solve")] += 1
    for path, key in (("resident", "resident"), ("cone", "cone"),
                      ("global", "global"), ("fallback", "global-fallback")):
        report.put(f"server.session.solve_{path}", solves[key], "count")

    if cycles:
        for name, key in (("runtime.checkpoint.save_ms", "save"),
                          ("serve.edit.rebuild_ms", "rebuild"),
                          ("serve.edit.plan_ms", "plan"),
                          ("analysis.incremental.diff_ms", "diff")):
            report.put(name, statistics.median(samples[key]) * 1e3, "ms")
        retained = [
            body["retained"] / body["nodes"]
            for c in cycles
            if c["rows"][0].reply is not None
            for body in c["rows"][0].reply["residents"].values()
        ]
        report.put(
            "analysis.incremental.retained_ratio", statistics.fmean(retained or [0.0]),
            "ratio",
        )
    tracer.put_metrics(report, traced / untraced if untraced else 0.0, by_mode=False)
