"""Resident state pays for itself: warm point queries against a fresh
``analyze()`` of the same text.

On the largest corpus file (``gzip_window.c``, preprocessed, widening
mode) a warm query is a pure table read — ``solve == "resident"`` with
nothing visited — and the median of 20 warm queries must be at least 5×
faster than a fresh analysis, both in process and through a supervised
worker (pipes, watchdog polling). Measured ratios are in the thousands in
process and in the tens supervised, so the 5× floor sits far from timing
noise. A loop-free generated program checks the other half of the serve
contract: after a function-body edit in exact mode the requery is answered
by a cone solve, and the answer equals a fresh analysis of the edited text.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.api import analyze
from repro.bench.codegen import WorkloadSpec, generate_source
from repro.server.session import ServeSession
from repro.server.supervisor import Supervisor
from tests.conftest import REPO

#: median warm query must beat a fresh analysis by this factor
FLOOR = 5.0
N_WARM = 20

CORPUS_FILE = REPO / "examples" / "corpus" / "gzip_window.c"
QUERIES = [
    ("main", "strstart"),
    ("update_hash", "v"),
    ("insert_string", "prev"),
    ("longest_match", "len"),
    ("main", "h"),
]


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def corpus():
    source = CORPUS_FILE.read_text()
    fresh = statistics.median(
        _seconds(
            lambda: analyze(
                source, filename=str(CORPUS_FILE), preprocess_source=True
            )
        )
        for _ in range(3)
    )
    return source, fresh


def _assert_floor(warm: list[float], fresh: float, where: str) -> None:
    median = statistics.median(warm)
    assert median * FLOOR <= fresh, (
        f"{where}: median warm query {median * 1e3:.3f} ms is not "
        f"{FLOOR:g}x faster than a fresh analyze() ({fresh * 1e3:.1f} ms)"
    )


def test_in_process_warm_queries_are_table_reads(corpus):
    source, fresh = corpus
    session = ServeSession(
        source, str(CORPUS_FILE), preprocess_source=True
    )
    for proc, var in QUERIES:
        session.query_interval(proc, var)
    warm = []
    for i in range(N_WARM):
        proc, var = QUERIES[i % len(QUERIES)]
        start = time.perf_counter()
        answer = session.query_interval(proc, var)
        warm.append(time.perf_counter() - start)
        assert answer.solve == "resident" and answer.visited == 0, answer
        assert answer.interval is not None
    _assert_floor(warm, fresh, "in process")


def test_supervised_warm_queries_are_table_reads(corpus):
    source, fresh = corpus
    sup = Supervisor(source, str(CORPUS_FILE), preprocess_source=True)
    try:
        sup.start()
        for i, (proc, var) in enumerate(QUERIES):
            request = {"op": "query", "kind": "interval", "proc": proc,
                       "var": var, "id": i}
            assert sup.ask(request)["ok"]
        warm = []
        for i in range(N_WARM):
            proc, var = QUERIES[i % len(QUERIES)]
            request = {"op": "query", "kind": "interval", "proc": proc,
                       "var": var, "id": 100 + i}
            start = time.perf_counter()
            reply = sup.ask(request)
            warm.append(time.perf_counter() - start)
            assert reply["ok"], reply
            assert reply["solve"] == "resident" and reply["visited"] == 0, reply
    finally:
        sup.stop()
    _assert_floor(warm, fresh, "supervised")


def test_exact_mode_requery_after_edit_is_a_cone_solve():
    spec = WorkloadSpec(
        name="serve-requery",
        n_functions=24,
        n_globals=10,
        n_arrays=2,
        array_len=16,
        stmts_per_function=8,
        loops_per_function=0,
        calls_per_function=2,
        pointer_ops_per_function=1,
        recursion_cycle=0,
        funcptr_sites=0,
        unique_callees=True,
        seed=7,
    )
    session = ServeSession(generate_source(spec), strict=False, widen=False)
    assert session.query_interval("main", "acc").solve != "resident"
    session.edit(
        function="f7",
        body="{\n    int v0 = 2;\n    int v1 = p0 + 5;\n    return v0 + v1;\n}",
    )
    answer = session.query_interval("main", "acc")
    assert answer.solve == "cone", answer
    fresh = analyze(session.source, strict=False, widen=False)
    assert str(answer.interval) == str(fresh.interval_at_exit("main", "acc"))
