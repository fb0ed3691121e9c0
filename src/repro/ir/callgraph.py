"""Call graph construction and SCC analysis.

The call graph starts from direct (named) calls; function-pointer call sites
are resolved by the flow-insensitive pre-analysis (Section 5: "we use the
flow-insensitive analysis to prior resolve function pointers"). ``maxSCC``
— the size of the largest strongly connected component — is the Table 1
metric the paper correlates with analysis cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.ir.cfg import Node
from repro.ir.commands import CCall
from repro.ir.program import Program


@dataclass
class CallGraph:
    """Procedure-level call graph with per-site callee sets."""

    callees: dict[str, set[str]] = field(default_factory=dict)
    callers: dict[str, set[str]] = field(default_factory=dict)
    site_callees: dict[int, tuple[str, ...]] = field(default_factory=dict)
    #: memoized :meth:`sccs` result; edge mutations through :meth:`add_call`
    #: invalidate it (``max_scc_size`` and ``recursive_procs`` reuse one
    #: Tarjan run instead of recomputing per call)
    _scc_cache: list[list[str]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add_call(self, site: Node, callee: str) -> None:
        caller = site.proc
        self.callees.setdefault(caller, set()).add(callee)
        self.callers.setdefault(callee, set()).add(caller)
        existing = self.site_callees.get(site.nid, ())
        if callee not in existing:
            self.site_callees[site.nid] = existing + (callee,)
        self._scc_cache = None

    def invalidate(self) -> None:
        """Drop the memoized SCC decomposition (for callers that mutate the
        adjacency sets directly instead of via :meth:`add_call`)."""
        self._scc_cache = None

    def callees_of_site(self, nid: int) -> tuple[str, ...]:
        return self.site_callees.get(nid, ())

    def sccs(self) -> list[list[str]]:
        """Tarjan's algorithm, iterative; returns SCCs in reverse
        topological order. Memoized — treat the result as read-only."""
        if self._scc_cache is not None:
            return self._scc_cache
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        out: list[list[str]] = []
        counter = [0]
        procs = set(self.callees) | set(self.callers)

        for root in sorted(procs):
            if root in index:
                continue
            work: list[tuple[str, Iterable[str]]] = [
                (root, iter(sorted(self.callees.get(root, ()))))
            ]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                v, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(sorted(self.callees.get(w, ())))))
                        advanced = True
                        break
                    if w in on_stack:
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    scc: list[str] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == v:
                            break
                    out.append(scc)
        self._scc_cache = out
        return out

    def max_scc_size(self) -> int:
        sccs = self.sccs()
        return max((len(s) for s in sccs), default=0)

    def recursive_procs(self) -> set[str]:
        """Procedures that participate in recursion (SCC of size > 1, or a
        self-loop)."""
        out: set[str] = set()
        for scc in self.sccs():
            if len(scc) > 1:
                out.update(scc)
            elif scc[0] in self.callees.get(scc[0], ()):
                out.add(scc[0])
        return out


def build_callgraph(
    program: Program,
    resolve: Callable[[Node], Iterable[str]] | None = None,
) -> CallGraph:
    """Build the call graph.

    ``resolve`` maps an (indirect) call node to candidate callee names; when
    None only direct calls are used. Unknown callees (externals) are simply
    absent — the analyses model them as havoc.
    """
    graph = CallGraph()
    defined = program.defined_functions()
    for proc in program.procedures():
        graph.callees.setdefault(proc, set())
    for node in program.nodes():
        cmd = node.cmd
        if not isinstance(cmd, CCall):
            continue
        if cmd.static_callee is not None and cmd.static_callee in defined:
            graph.add_call(node, cmd.static_callee)
        elif resolve is not None:
            for callee in resolve(node):
                if callee in defined:
                    graph.add_call(node, callee)
    return graph
