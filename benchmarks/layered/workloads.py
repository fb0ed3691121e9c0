"""The five workloads of the layered benchmark.

Each workload has a set-up (the child interpreter's imports come before
it), a timed run of a fixed number of units of work, and a traced run (see
``layers.py``) that times the calls into each layer instead. The number of
units depends only on ``--seconds`` (``units()``), never on how fast the
program runs, so two commits measured with the same settings take the same
samples. The generated Table-1/Table-3 programs and the corpus files are
fixed, and their digests are pinned in ``golden.json``; ``--seed`` drives
the serve request streams and the edit targets.

Every timed operation is normalized to the reference host speed
(``probe.py``): batch jobs by probes sampled while they run, serve
requests by probes interleaved between them. The raw times are kept in
the record's ``detail["raw"]``. On top of that:

* batch workloads run every job once per pass in a fixed order, with a
  garbage collection before each job, for at least three passes; a job's
  time is its median over the passes. A seeded job order moved peak RSS
  by ±7% between seeds, the fixed one by 0.3%;
* serve workloads report the median over blocks of a fixed number of
  requests, and latency percentiles over every request of the run.

Why these five (see README.md for the long form):

* ``ladder-interval`` / ``ladder-octagon`` — the paper's Table 2/3 scaling
  axis: sparse from the smallest to the largest rung, base and vanilla on
  the lower rungs;
* ``corpus-verdict`` — small real-style C where preprocessing, parsing,
  recovery and fixed per-run costs dominate and the fixpoint does little;
* ``serve-read`` — supervised reads from resident state only;
* ``serve-edit`` — supervised edits next to reads, each edit followed by
  the re-solving requery.
"""

from __future__ import annotations

import gc
import json
import math
import random
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from probe import HostSpeed, Sampler

ROOT = Path(__file__).resolve().parents[2]

WORKLOADS = (
    "ladder-interval",
    "ladder-octagon",
    "corpus-verdict",
    "serve-read",
    "serve-edit",
)

#: domain -> (rungs analyzed sparse, rungs analyzed base and vanilla)
LADDERS = {
    "interval": (
        ("gzip-mini", "make-mini", "vim-mini"),
        ("gzip-mini", "tar-mini"),
    ),
    "octagon": (
        ("gzip-oct", "make-oct", "sendmail-oct"),
        ("gzip-oct", "tar-oct"),
    ),
}
CORPUS_GLOBS = ("examples/corpus/*.c", "examples/c/*.c")
COMBOS = [
    (domain, mode)
    for domain in ("interval", "octagon")
    for mode in ("sparse", "base", "vanilla")
]
#: seconds of ``--seconds`` per unit of each workload's work (a pass over
#: the jobs, or a block of serve requests). At the default 8 s: three
#: passes of each ladder (``MIN_UNITS``), five corpus passes, 8 blocks of
#: reads and 16 blocks of edit cycles, so that the p90 of serve-edit has
#: eight cycles beyond it. A ladder pass takes about 5.5 s and 3.6 s on the
#: reference host, probes and checks included
UNIT_S = {
    "ladder-interval": 5.5,
    "ladder-octagon": 3.6,
    "corpus-verdict": 1.6,
    "serve-read": 1.0,
    "serve-edit": 0.5,
}
#: a median over units needs three to stand a single disturbed one; the
#: ladders' three passes take longer than ``run_seconds``
MIN_UNITS = 3
#: reads per block: ten periods of the worker's snapshot cadence (16), so
#: every block holds the same number of snapshot stalls
READ_BLOCK = 160
#: the reads of every block: 85% interval point queries, 10% octagon point
#: queries, 5% ``check`` queries. A fixed mix per block keeps the tail
#: percentile, which falls among the slower octagon reads, from moving
#: with the seed's share of them
READ_MIX = {"interval": 136, "octagon": 16, "check": 8}
EDIT_BLOCK = 5
EDIT_SAMPLE = 10
#: reads between host-speed probes
READ_PROBE_EVERY = 8


def units(name: str, ctx: "Ctx") -> int:
    """Units of work in a timed run; a smoke run checks outputs only."""
    if ctx.smoke:
        return 1
    return max(MIN_UNITS, round(ctx.seconds / UNIT_S[name]))


# -- run context and report ---------------------------------------------------


@dataclass
class Ctx:
    seed: int
    seconds: float
    smoke: bool
    golden: dict
    state_dir: Path


@dataclass
class Report:
    """What one timed or traced run produced."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in 0..100) of ``values``."""
    s = sorted(values)
    if not s:
        return math.nan
    k = (len(s) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def latency_metrics(ops: list[float], unit_s: float) -> dict[str, float]:
    """``work_s`` (one unit of work) and the operation latency median and
    tail, in seconds and milliseconds."""
    return {
        "work_s": unit_s,
        "op_p50_ms": percentile(ops, 50) * 1e3,
        "op_p90_ms": percentile(ops, 90) * 1e3,
    }


def put_times(report: Report, norm: dict[str, float], raw: dict[str, float]) -> None:
    """Normalized times as metrics, the raw ones in the record's detail."""
    for name, value in norm.items():
        report.put(name, value, "s" if name.endswith("_s") else "ms")
    report.detail["raw"] = {name: round(value, 6) for name, value in raw.items()}


# -- inputs -------------------------------------------------------------------


@dataclass(frozen=True)
class Source:
    name: str
    text: str
    filename: str = "<input>"
    #: run the mini preprocessor (corpus files only)
    preprocess: bool = False


@dataclass(frozen=True)
class Job:
    program: str
    domain: str
    mode: str

    @property
    def key(self) -> str:
        return f"{self.program}/{self.domain}/{self.mode}"


def generated_sources(names=None) -> dict[str, Source]:
    from repro.bench.codegen import default_suite, generate_source, octagon_suite

    return {
        spec.name: Source(spec.name, generate_source(spec))
        for spec in default_suite() + octagon_suite()
        if names is None or spec.name in names
    }


def corpus_sources(smoke: bool) -> dict[str, Source]:
    paths = [p for pattern in CORPUS_GLOBS for p in sorted(ROOT.glob(pattern))]
    if smoke:
        paths = [p for p in paths if p.name in ("wc_count.c", "loops.c")]
    out = {}
    for path in paths:
        rel = path.relative_to(ROOT).as_posix()
        out[rel] = Source(rel, path.read_text(encoding="utf-8"), str(path), True)
    return out


def check_inputs(sources: dict[str, Source], golden: dict, report: Report) -> None:
    """The benchmark's inputs are fixed: a changed generator or corpus
    file would silently change what is measured."""
    for name, source in sources.items():
        if oracle.sha256_text(source.text) != golden["inputs"].get(name):
            report.fail(f"input {name}: text differs from golden")


def ladder_jobs(domain: str, smoke: bool) -> list[Job]:
    sparse, dense = LADDERS[domain]
    if smoke:
        sparse, dense = sparse[:2], dense[:1]
    return [Job(r, domain, "sparse") for r in sparse] + [
        Job(r, domain, mode) for mode in ("base", "vanilla") for r in dense
    ]


def _function_spans(lines: list[str]) -> dict[str, tuple[int, int]]:
    """(header, closing-brace) line indexes of each generated ``fK``."""
    spans = {}
    header = None
    for i, line in enumerate(lines):
        m = re.match(r"int (f\d+)\(int p0, int p1\) \{$", line)
        if m:
            header = (m.group(1), i)
        elif line == "}" and header is not None:
            spans[header[0]] = (header[1], i)
            header = None
    return spans


def query_vars(text: str) -> dict[str, list[str]]:
    """Per procedure of a generated program, the variables a client may
    ask about: parameters, declared locals, and two globals."""
    lines = text.splitlines()
    out = {}
    for name, (lo, hi) in _function_spans(lines).items():
        names = ["p0", "p1"] + [
            m.group(1)
            for line in lines[lo + 1 : hi]
            if (m := re.match(r"\s*int (\w+)( =|;)", line))
        ]
        out[name] = names + ["g0", "g1"]
    out["main"] = ["acc", "g0", "g1"]
    return out


# -- batch workloads ----------------------------------------------------------


def job_medians(passes: list[dict["Job", float]]) -> dict["Job", float]:
    """Each job's median seconds over the passes that ran it."""
    return {
        job: statistics.median(times[job] for times in passes if job in times)
        for job in dict.fromkeys(job for times in passes for job in times)
    }


def batch_metrics(passes: list[dict["Job", float]], verdicts: bool) -> dict:
    """End-to-end times of a batch run from per-pass job seconds: one pass
    of every job at its median as ``work_s``."""
    jobs = job_medians(passes)
    out = latency_metrics(list(jobs.values()), sum(jobs.values()))
    for mode in ("sparse", "base", "vanilla"):
        out[f"{mode}_s"] = sum(t for job, t in jobs.items() if job.mode == mode)
    if verdicts:
        every = [t for times in passes for t in times.values()]
        out["verdict_p50_ms"] = percentile(every, 50) * 1e3
        out["verdict_p99_ms"] = percentile(every, 99) * 1e3
    return out


class BatchWorkload:
    """A ladder or the corpus: passes over a fixed job list. One operation
    is one job: source text to ``analyze()`` result (ladders) or to
    checker verdicts (corpus)."""

    def __init__(self, name: str, ctx: Ctx) -> None:
        self.name = name
        self.ctx = ctx
        self.sources: dict[str, Source] = {}
        self.jobs: list[Job] = []
        self.verdicts = name == "corpus-verdict"

    def setup(self, report: Report) -> None:
        if self.verdicts:
            self.sources = corpus_sources(self.ctx.smoke)
            self.jobs = [
                Job(name, domain, mode)
                for name in self.sources
                for domain, mode in COMBOS
            ]
        else:
            domain = self.name.split("-")[1]
            self.jobs = ladder_jobs(domain, self.ctx.smoke)
            self.sources = generated_sources({j.program for j in self.jobs})
        check_inputs(self.sources, self.ctx.golden, report)
        if self.verdicts:
            # one warm-up pass: interning tables and lazy imports fill here
            for job in self.jobs:
                self.op(job)

    def op(self, job: Job):
        """One timed operation; returns the run and its checker reports."""
        from repro import analyze

        source = self.sources[job.program]
        run = analyze(
            source.text,
            domain=job.domain,
            mode=job.mode,
            filename=source.filename,
            preprocess_source=source.preprocess,
        )
        reports = None
        if self.verdicts and job.domain == "interval":
            reports = oracle.run_checkers(run)
        return run, reports

    def one_pass(self, report: Report, jobs=None):
        """Every job (of ``jobs``) once; returns job -> (start, seconds)."""
        times: dict[Job, tuple[float, float]] = {}
        for job in self.jobs if jobs is None else jobs:
            report.attempted += 1
            # the previous job's garbage is not this job's cost
            gc.collect()
            start = time.perf_counter()
            try:
                run, reports = self.op(job)
            except Exception as exc:  # noqa: BLE001 - a failed job is counted
                report.fail(f"{job.key}: {type(exc).__name__}: {exc}")
                continue
            times[job] = (start, time.perf_counter() - start)
            failures = oracle.check_job(job.key, run, self.ctx.golden, reports)
            if failures:
                report.fail("; ".join(failures))
        return times

    def measure(self, report: Report) -> None:
        with Sampler() as sampler:
            passes = [self.one_pass(report) for _ in range(units(self.name, self.ctx))]
        norm = [{j: sampler.normalize(*t) for j, t in p.items()} for p in passes]
        raw = [{j: sampler.pure(*t) for j, t in p.items()} for p in passes]
        put_times(
            report,
            batch_metrics(norm, self.verdicts),
            batch_metrics(raw, self.verdicts),
        )
        report.detail["passes"] = len(passes)
        report.detail["ops"] = len(self.jobs)
        report.detail["sample_ms"] = sampler.median_s() * 1e3
        report.detail["job_ms"] = {
            j.key: round(t * 1e3, 3) for j, t in job_medians(norm).items()
        }

    def trace(self, report: Report) -> None:
        import layers

        tracer = layers.Tracer()
        untraced = 0.0
        for job in self.jobs:
            report.attempted += 1
            gc.collect()
            try:
                run, reports = tracer.job(
                    job, self.sources[job.program], checkers_on_path=self.verdicts
                )
            except Exception as exc:  # noqa: BLE001 - a failed job is counted
                report.fail(f"traced {job.key}: {type(exc).__name__}: {exc}")
                continue
            failures = oracle.check_job(job.key, run, self.ctx.golden, reports)
            if failures:
                report.fail("traced " + "; ".join(failures))
            # the untraced twin runs right after, so host drift hits both
            # alike and the cold start of the first jobs counts as overhead
            untraced += sum(t for _, t in self.one_pass(report, jobs=[job]).values())
        tracer.put_metrics(report, tracer.traced_total / untraced, by_mode=True)

    def close(self) -> None:
        pass


# -- serve workloads ----------------------------------------------------------


def start_supervisor(source: Source, state_dir: Path, seed: int, domains):
    """A started, warmed supervisor: one query per resident domain makes
    the global solve, so every later read is answered from resident
    state."""
    from repro.server.supervisor import Supervisor, SupervisorConfig

    sup = Supervisor(
        source.text,
        f"{source.name}.c",
        state_dir=str(state_dir),
        config=SupervisorConfig(seed=seed),
    )
    try:
        sup.start()
        for domain in domains:
            reply = sup.ask(
                {"op": "query", "kind": "interval", "proc": "main",
                 "var": "acc", "domain": domain}
            )
            if not reply.get("ok"):
                raise RuntimeError(f"warm-up query failed: {reply}")
    except BaseException:
        sup.stop()
        raise
    return sup


@dataclass
class Row:
    """One supervised request: its reply (``None`` when it failed), when
    it was sent (``perf_counter``) and its round-trip seconds."""

    request: dict
    reply: dict | None
    start: float
    elapsed: float


def serve_metrics(ops: list[float], blocks: list[float], names: dict) -> dict:
    """End-to-end times of a serve run: the median block as ``work_s``,
    percentiles over every operation, and the workload's own latency
    percentiles (``names``: metric -> (percentile, latencies))."""
    out = latency_metrics(ops, statistics.median(blocks))
    for name, (q, values) in names.items():
        out[name] = percentile(values, q) * 1e3
    return out


class ServeWorkload:
    """Shared set-up for the two supervised serve workloads: one client in
    a closed loop calling ``Supervisor.handle_line`` in-process, so the
    run is two processes (client+supervisor, session worker)."""

    program = ""
    domains: tuple[str, ...] = ("interval",)

    def __init__(self, name: str, ctx: Ctx) -> None:
        self.name = name
        self.ctx = ctx
        self.rng = random.Random(ctx.seed)
        self.sup = None

    def setup(self, report: Report) -> None:
        self.source = generated_sources({self.program})[self.program]
        check_inputs({self.program: self.source}, self.ctx.golden, report)
        self.vars = query_vars(self.source.text)
        self.procs = sorted(self.vars)
        self.sup = start_supervisor(
            self.source, self.ctx.state_dir / "serve", self.ctx.seed, self.domains
        )

    def ask(self, request: dict, report: Report) -> Row:
        """One timed round trip; a reply that is not ``ok`` is a failure."""
        line = json.dumps(request)
        start = time.perf_counter()
        out = self.sup.handle_line(line)
        row = Row(request, None, start, time.perf_counter() - start)
        report.attempted += 1
        try:
            reply = json.loads(out)
        except ValueError:
            report.fail(f"request {request.get('id')}: unparseable reply")
            return row
        if not reply.get("ok") or reply.get("id") != request.get("id"):
            report.fail(f"request {request.get('id')}: bad reply {out[:200]}")
            return row
        row.reply = reply
        return row

    def point_query(self, proc: str) -> dict:
        return {
            "op": "query",
            "kind": "interval",
            "proc": proc,
            "var": self.rng.choice(self.vars[proc]),
        }

    def rounds(self, keys: list):
        """``keys`` forever, each round in a fresh seeded order."""
        keys = list(keys)
        while True:
            self.rng.shuffle(keys)
            yield from keys

    def fresh(self, text: str) -> dict:
        from repro import analyze

        return {
            domain: analyze(text, domain=domain, filename=f"{self.program}.c")
            for domain in self.domains
        }

    def close(self) -> None:
        if self.sup is not None:
            self.sup.stop()
            self.sup = None


class ServeRead(ServeWorkload):
    """Seeded reads against resident interval and octagon state of
    tar-mini, in blocks of ``READ_MIX``."""

    program = "tar-mini"
    domains = ("interval", "octagon")

    def requests(self):
        """Blocks of ``READ_MIX`` in seeded order. Each kind walks its
        keys (procedures, or procedure and variable) in seeded rounds that
        visit every key once, so every seed asks about the same keys
        within one round: the cost of a ``check`` query depends on the
        procedure, and the tail falls among them."""
        points = [(proc, var) for proc in self.procs for var in self.vars[proc]]
        keys = {
            "interval": self.rounds(points),
            "octagon": self.rounds(points),
            "check": self.rounds(self.procs),
        }
        kinds = [kind for kind, count in READ_MIX.items() for _ in range(count)]
        n = 0
        while True:
            self.rng.shuffle(kinds)
            for kind in kinds:
                if kind == "check":
                    request = {"op": "query", "kind": "check",
                               "proc": next(keys["check"])}
                else:
                    proc, var = next(keys[kind])
                    request = {"op": "query", "kind": "interval",
                               "proc": proc, "var": var}
                    if kind == "octagon":
                        request["domain"] = "octagon"
                request["id"] = n
                n += 1
                yield request

    def run_stream(self, report: Report, blocks: int, speed=None) -> list[Row]:
        """A closed loop of ``blocks`` blocks of reads."""
        rows = []
        for i, request in zip(range(blocks * READ_BLOCK), self.requests()):
            if speed is not None and i % READ_PROBE_EVERY == 0:
                speed.probe()
            rows.append(self.ask(request, report))
        return rows

    def check_answers(self, rows: list[Row], report: Report) -> None:
        """Every distinct answer must be stable across the run and equal
        a fresh ``analyze()`` of the served text."""
        seen: dict[str, tuple[dict, object]] = {}
        for row in rows:
            if row.reply is None:
                continue
            request = row.request
            key = json.dumps(
                [request.get("kind"), request.get("domain", "interval"),
                 request["proc"], request.get("var")]
            )
            answer = oracle.served_answer(request, row.reply)
            if key in seen and seen[key][1] != answer:
                report.fail(f"{key}: answer changed between reads")
            seen.setdefault(key, (request, answer))
        fresh = self.fresh(self.source.text)
        for key, (request, answer) in seen.items():
            if oracle.expected_answer(fresh, request) != answer:
                report.fail(f"{key}: served answer differs from fresh analyze()")
        report.detail["distinct_answers"] = len(seen)

    def measure(self, report: Report) -> None:
        speed = HostSpeed()
        rows = self.run_stream(report, units(self.name, self.ctx), speed)
        speed.probe(READ_PROBE_EVERY)

        def times(ops: list[float]) -> dict:
            blocks = [
                sum(ops[i : i + READ_BLOCK]) for i in range(0, len(ops), READ_BLOCK)
            ]
            return serve_metrics(ops, blocks, {"query_p99_ms": (99, ops)})

        put_times(
            report,
            times([speed.normalize(r.start, r.elapsed) for r in rows]),
            times([r.elapsed for r in rows]),
        )
        report.detail["ops"] = len(rows)
        report.detail["probe_ms"] = speed.median_s() * 1e3
        self.check_answers(rows, report)

    def trace(self, report: Report) -> None:
        import layers

        rows = self.run_stream(report, max(units(self.name, self.ctx) // 2, 1))
        self.check_answers(rows, report)
        layers.trace_serve(self, rows, report)


class ServeEdit(ServeWorkload):
    """Edit cycles against the interval resident of bc-mini: toggle one of
    8 seeded functions' ``return v0 + v1;`` <-> ``return v0 + v1 + 1;``,
    requery ``v0`` there, then two queries elsewhere."""

    program = "bc-mini"
    domains = ("interval",)

    def setup(self, report: Report) -> None:
        super().setup(report)
        self.lines = self.source.text.splitlines()
        self.spans = _function_spans(self.lines)
        self.targets = self.rng.sample(sorted(self.spans), min(8, len(self.spans)))

    def toggled_body(self, function: str) -> str:
        """Flip ``function``'s return in the client's copy of the text and
        return the new body."""
        lo, hi = self.spans[function]
        body = self.lines[lo + 1 : hi]
        plain, bumped = "  return v0 + v1;", "  return v0 + v1 + 1;"
        body[-1] = bumped if body[-1] == plain else plain
        self.lines[lo + 1 : hi] = body
        return "\n".join(body)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def run_cycles(self, report: Report, blocks: int, speed=None) -> list[dict]:
        """``blocks`` blocks of edit cycles; a probe before every request.
        The targets are edited in seeded rounds, each once per round."""
        cycles = []
        targets = self.rounds(self.targets)
        for c in range(blocks * EDIT_BLOCK):
            n = 4 * c
            function = next(targets)
            edit = {"op": "edit", "function": function,
                    "body": self.toggled_body(function), "id": n}
            requery = {"op": "query", "kind": "interval", "proc": function,
                       "var": "v0", "id": n + 1}
            others = [
                self.point_query(
                    self.rng.choice([p for p in self.procs if p != function])
                )
                for _ in range(2)
            ]
            for i, request in enumerate(others):
                request["id"] = n + 2 + i
            rows = []
            for request in (edit, requery, *others):
                if speed is not None:
                    speed.probe()
                rows.append(self.ask(request, report))
            ack = rows[0].reply
            if ack and ack.get("generation") != c + 1:
                report.fail(f"edit {edit['id']}: generation is not {c + 1}")
            cycles.append({"text": self.text(), "rows": rows})
        return cycles

    def check_requeries(self, cycles: list[dict], report: Report) -> None:
        """A seeded sample of requery answers against a fresh analysis of
        the toggled text."""
        picks = random.Random(self.ctx.seed + 1).sample(
            range(len(cycles)), min(EDIT_SAMPLE, len(cycles))
        )
        for c in picks:
            row = cycles[c]["rows"][1]
            if row.reply is None:
                continue
            expect = oracle.expected_answer(self.fresh(cycles[c]["text"]), row.request)
            if oracle.served_answer(row.request, row.reply) != expect:
                report.fail(f"cycle {c}: requery differs from fresh analyze()")
        report.detail["requeries_checked"] = len(picks)

    def measure(self, report: Report) -> None:
        speed = HostSpeed()
        cycles = self.run_cycles(report, units(self.name, self.ctx), speed)
        speed.probe(EDIT_BLOCK)

        def times(seconds) -> dict:
            per = [[seconds(r) for r in c["rows"]] for c in cycles]
            blocks = [
                sum(map(sum, per[i : i + EDIT_BLOCK]))
                for i in range(0, len(per), EDIT_BLOCK)
            ]
            return serve_metrics(
                [p[0] + p[1] for p in per],
                blocks,
                {
                    "edit_p50_ms": (50, [p[0] for p in per]),
                    "edit_p90_ms": (90, [p[0] for p in per]),
                    "requery_p50_ms": (50, [p[1] for p in per]),
                    "requery_p90_ms": (90, [p[1] for p in per]),
                },
            )

        put_times(
            report,
            times(lambda r: speed.normalize(r.start, r.elapsed)),
            times(lambda r: r.elapsed),
        )
        report.detail["ops"] = len(cycles)
        report.detail["probe_ms"] = speed.median_s() * 1e3
        self.check_requeries(cycles, report)

    def trace(self, report: Report) -> None:
        import layers

        cycles = self.run_cycles(report, max(units(self.name, self.ctx) // 2, 1))
        self.check_requeries(cycles, report)
        rows = [row for c in cycles for row in c["rows"]]
        layers.trace_serve(self, rows, report, cycles=cycles)


def make(name: str, ctx: Ctx):
    if name in ("ladder-interval", "ladder-octagon", "corpus-verdict"):
        return BatchWorkload(name, ctx)
    if name == "serve-read":
        return ServeRead(name, ctx)
    if name == "serve-edit":
        return ServeEdit(name, ctx)
    raise ValueError(f"unknown workload {name!r}")
