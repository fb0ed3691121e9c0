"""Call-graph and SCC memo invalidation across edits.

``CallGraph.sccs()`` memoizes its Tarjan run and the serve session memoizes
the whole call graph per generation.  These tests pin down the two ways
that could go stale:

* mutating a ``CallGraph`` through ``add_call`` must drop the memo, and
* a server edit that rewires calls (adds an edge, introduces recursion)
  must advance the generation so the next ``callgraph()`` is rebuilt from
  the post-edit program — a stale call graph after an edit is impossible.
"""

from __future__ import annotations

from repro.api import analyze
from repro.ir.callgraph import build_callgraph
from repro.server.session import ServeSession

SRC = """int g;
int h(int a) {
    int r;
    r = a + 1;
    return r;
}
int gg(int a) {
    int r;
    r = h(a) + 1;
    return r;
}
int f(int a) {
    int r;
    r = gg(a) + 1;
    return r;
}
int k(int a) {
    int r;
    r = a * 2;
    return r;
}
int main(void) {
    int x; int y;
    x = f(1);
    y = k(5);
    g = x + y;
    return g;
}
"""


def fresh_sccs(session):
    """The SCCs rebuilt from scratch from the session's current program
    (the oracle the memoized ones must match)."""
    pre = session.pre
    graph = build_callgraph(
        session.program,
        resolve=lambda node: pre.site_callees.get(node.nid, ()),
    )
    return graph.sccs()


def test_add_call_invalidates_scc_memo():
    session = ServeSession(SRC, strict=False, widen=False)
    graph = session.callgraph()
    before = graph.sccs()
    assert graph.sccs() is before  # memoized

    # grow an edge h -> k through the mutation API: the memo must drop
    site = next(
        n for n in session.program.cfgs["h"].nodes if n.cmd is not None
    )
    graph.add_call(site, "k")
    after = graph.sccs()
    assert after is not before
    assert {"k"} <= {p for scc in after for p in scc}

    # invalidate() is the escape hatch for direct adjacency edits
    graph.callees["k"].add("h")
    graph.invalidate()
    assert graph.max_scc_size() >= 2  # h <-> k cycle now visible


def test_call_adding_edit_rebuilds_callgraph():
    session = ServeSession(SRC, strict=False, widen=False)
    graph0 = session.callgraph()
    assert session.callgraph() is graph0  # generation-keyed memo

    # rewire k to call h: a new call edge, same procedures
    session.edit(function="k", body="    int r;\n    r = h(a) * 2;\n    return r;")
    graph1 = session.callgraph()
    assert graph1 is not graph0
    assert graph1.sccs() == fresh_sccs(session)
    # the new edge is there: k now calls h
    assert "h" in graph1.callees["k"]
    # and it was genuinely absent pre-edit
    assert "h" not in graph0.callees["k"]


def test_recursion_introducing_edit_is_fully_invalidated():
    """Turning gg/h into a recursion cycle flips ``recursive_procs`` —
    the retention guard drops *all* retained state for the combo, and the
    served answers still match a from-scratch analysis (widening mode,
    since the recursive program needs it to converge)."""
    session = ServeSession(SRC)  # default strict/widen
    for proc in ("h", "gg", "f", "k", "main"):
        session.query_interval(proc, "g" if proc == "main" else "r")

    info = session.edit(
        function="h",
        body="    int r;\n    if (a > 0) { r = gg(a - 1); } else { r = 1; }\n"
        "    return r;",
    )
    assert info["residents"]["interval/sparse"]["retained"] == 0
    assert {"gg", "h"} <= session.callgraph().recursive_procs()
    assert session.callgraph().sccs() == fresh_sccs(session)

    fresh = analyze(session.source)
    for proc in ("h", "gg", "f", "k", "main"):
        var = "g" if proc == "main" else "r"
        got = session.query_interval(proc, var)
        assert str(got.interval) == str(fresh.interval_at_exit(proc, var)), (
            f"{proc}.{var} diverged after recursion-introducing edit"
        )


def test_generation_counter_tracks_edits():
    session = ServeSession(SRC, strict=False, widen=False)
    assert session.generation == 0
    session.edit(function="k", body="    int r;\n    r = a;\n    return r;")
    assert session.generation == 1
    session.edit(function="k", body="    int r;\n    r = a + 1;\n    return r;")
    assert session.generation == 2
    assert session.callgraph().sccs() == fresh_sccs(session)
