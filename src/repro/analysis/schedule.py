"""Weak topological ordering and priority-driven fixpoint scheduling.

Bourdoncle's weak topological order (WTO) [Bourdoncle, FMPA 1993] is a
hierarchical decomposition of a directed graph into nested *components*,
each headed by a single node, such that every cycle of the graph passes
through a component head. Two properties make it the standard fixpoint
schedule:

* **Widening points**: the component heads cut every cycle, so widening at
  exactly the heads guarantees termination — a principled replacement for
  the two ad-hoc selections the engines used before (DFS back-edge targets
  on the control graph, and the dep-graph fallback of the sparse solver).
* **Iteration order**: visiting nodes by their WTO position (reverse
  postorder within components, inner components stabilizing before the
  enclosing ones resume, each head re-tested only after its component body
  drained) drives the chaotic iteration close to the recursive strategy
  Bourdoncle proves optimal among memoryless strategies — far fewer node
  re-visits than FIFO on loop-heavy graphs.

:func:`compute_wto` implements the recursive-SCC formulation with an
explicit stack (no recursion limits): Tarjan's algorithm finds strongly
connected components, trivial SCCs become elements in reverse postorder,
and each non-trivial SCC becomes a component headed by its first node in
DFS order, with the head's incoming back edges cut before the component's
interior is decomposed the same way.

:class:`PriorityWorklist` is the one worklist every engine pops from; it
records the re-visit and priority-inversion counters reported in
:class:`SchedulerStats`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

__all__ = [
    "WTO",
    "compute_wto",
    "GraphView",
    "widening_points_for",
    "PriorityWorklist",
    "SchedulerStats",
]


# --------------------------------------------------------------------------
# Weak topological order
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WTO:
    """A weak topological order of (the reachable part of) a graph.

    ``components`` is the nested tuple representation: an element is a bare
    node id, a component is a tuple ``(head, inner, ...)`` whose first item
    is the head node id and whose remaining items are the component's
    interior in WTO order (elements or nested components).
    """

    components: tuple
    #: node → scheduling position (smaller = earlier). Deviates from the
    #: textbook linearization in one respect: a component's head is numbered
    #: *after* its interior, so the priority worklist drains the component
    #: body before re-testing (and re-widening) the head — the flat-queue
    #: rendering of Bourdoncle's recursive strategy, where a head is
    #: re-evaluated once per stabilized pass over its component.
    priority: dict[int, int]
    #: component heads — the unified widening-point selection
    heads: frozenset[int]
    #: node → loop nesting depth (0 = outside every component)
    depth: dict[int, int]

    def linear(self) -> list[int]:
        """The textbook linearized WTO (each head first in its component).
        Note the *scheduling* order in ``priority`` places heads last within
        their component instead."""
        out: list[int] = []
        work: list[tuple[tuple, int]] = [(self.components, 0)]
        while work:
            seq, i = work.pop()
            while i < len(seq):
                item = seq[i]
                i += 1
                if isinstance(item, tuple):
                    work.append((seq, i))
                    work.append((item, 0))
                    break
                out.append(item)
        return out

    def priority_of(self, node: int) -> int:
        """Priority of ``node``; unreachable nodes sort after everything
        reachable, by node id (keeps non-strict seeding deterministic)."""
        found = self.priority.get(node)
        if found is not None:
            return found
        return len(self.priority) + node


def compute_wto(
    roots: Iterable[int], succs: Mapping[int, Sequence[int]]
) -> WTO:
    """Bourdoncle's weak topological order of the subgraph reachable from
    ``roots``, via iterative Tarjan SCC decomposition applied recursively
    (explicit work stack — safe on deeply nested graphs)."""
    roots = list(roots)

    # Each pending job decomposes one subgraph: (nodes, roots, sink).
    # ``sink`` is the mutable list collecting the job's WTO items in order;
    # a component is a nested list ``[head, *interior]`` that doubles as
    # the sink of the job decomposing its interior.
    top_sink: list = []
    jobs: list[tuple[set[int] | None, list[int], list]] = [
        (None, roots, top_sink)
    ]

    while jobs:
        allowed, job_roots, sink = jobs.pop()
        sccs = _tarjan_sccs(job_roots, succs, allowed)
        # Tarjan emits SCCs in reverse topological order; a WTO lists them
        # topologically, so walk the list backwards.
        for scc, has_cycle in reversed(sccs):
            if not has_cycle:
                sink.append(scc[0])
                continue
            # Component: the head is the SCC node discovered first.
            head = scc[0]
            component: list = [head]
            sink.append(component)
            members = set(scc)
            members.discard(head)
            if members:
                # Decompose the interior with the head excluded, which
                # cuts its incoming back edges; the head's interior
                # successors are the interior's entry points.
                inner_roots = [
                    s for s in succs.get(head, ()) if s in members
                ]
                jobs.append((members, inner_roots, component))

    components = _tupleize(top_sink)
    priority: dict[int, int] = {}
    heads: set[int] = set()
    depth: dict[int, int] = {}
    _linearize(components, priority, heads, depth)
    return WTO(components, priority, frozenset(heads), depth)


def _tarjan_sccs(
    roots: Sequence[int],
    succs: Mapping[int, Sequence[int]],
    allowed: set[int] | None,
) -> list[tuple[list[int], bool]]:
    """Iterative Tarjan over the subgraph induced by ``allowed`` (None =
    everything), rooted at ``roots``. Returns ``(members, has_cycle)`` per
    SCC in reverse topological order, members led by the first-discovered
    node (the WTO component head)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[tuple[list[int], bool]] = []
    counter = 0

    for root in roots:
        if root in index or (allowed is not None and root not in allowed):
            continue
        # frame: [node, iterator over succs]
        frames: list[list] = [[root, iter(succs.get(root, ()))]]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while frames:
            node, it = frames[-1]
            advanced = False
            for child in it:
                if allowed is not None and child not in allowed:
                    continue
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    frames.append([child, iter(succs.get(child, ()))])
                    advanced = True
                    break
                if child in on_stack:
                    if index[child] < low[node]:
                        low[node] = index[child]
            if advanced:
                continue
            frames.pop()
            if frames and low[node] < low[frames[-1][0]]:
                low[frames[-1][0]] = low[node]
            if low[node] == index[node]:
                members: list[int] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    members.append(w)
                    if w == node:
                        break
                members.reverse()  # first-discovered node leads
                has_cycle = len(members) > 1 or node in succs.get(node, ())
                sccs.append((members, has_cycle))
    return sccs


def _tupleize(root: list) -> tuple:
    """Convert nested lists to nested tuples without recursion (component
    nesting depth can be large on pathological graphs)."""
    order: list[list] = [root]
    idx = 0
    while idx < len(order):
        for item in order[idx]:
            if isinstance(item, list):
                order.append(item)
        idx += 1
    results: dict[int, tuple] = {}
    for cur in reversed(order):  # children before parents
        results[id(cur)] = tuple(
            results[id(item)] if isinstance(item, list) else item
            for item in cur
        )
    return results[id(root)]


def _linearize(
    components: tuple,
    priority: dict[int, int],
    heads: set[int],
    depth: dict[int, int],
) -> None:
    """Assign scheduling positions, collect heads, record nesting depth.

    A component's head receives its position only after the whole interior
    is numbered (head-last scheduling): the worklist then stabilizes the
    body before the head re-runs, so widening at the head observes the
    batched result of a full pass instead of every intermediate wave —
    fewer head re-visits and less order-sensitive widening."""
    counter = 0
    # (seq, resume index, depth, pending head | None); the pending head is
    # numbered once its component's interior is fully processed.
    work: list[tuple[tuple, int, int, int | None]] = [(components, 0, 0, None)]
    while work:
        seq, i, d, head = work.pop()
        suspended = False
        while i < len(seq):
            item = seq[i]
            i += 1
            if i == 1 and head is not None:
                # the head of this component — numbered at frame exit
                heads.add(item)
                depth[item] = d
                continue
            if isinstance(item, tuple):
                work.append((seq, i, d, head))
                work.append((item, 0, d + 1, item[0]))
                suspended = True
                break
            priority[item] = counter
            counter += 1
            depth[item] = d
        if not suspended and head is not None:
            priority[head] = counter
            counter += 1


@dataclass(frozen=True)
class GraphView:
    """Minimal scheduling view of a raw graph — duck-types the
    ``schedule_roots``/``schedule_succs`` slice of a propagation space so
    :func:`widening_points_for` also serves callers that need the WTO
    *before* the space exists (the sparse drivers compute widening points
    first because dependency generation cuts chains at them)."""

    roots: tuple[int, ...]
    succs: Mapping[int, Sequence[int]]

    def schedule_roots(self) -> Sequence[int]:
        return self.roots

    def schedule_succs(self) -> Mapping[int, Sequence[int]]:
        return self.succs


def widening_points_for(space, widen: bool = True) -> tuple[WTO, set[int]]:
    """The single widening-point selection shared by every engine: one WTO
    over the space's scheduling graph serves both purposes — its component
    heads are the widening points (they cut every cycle) and its linear
    order drives the priority worklist. ``space`` is anything exposing
    ``schedule_roots()``/``schedule_succs()`` (a
    :class:`~repro.analysis.engine.PropagationSpace` or a
    :class:`GraphView`); ``widen=False`` keeps the WTO for scheduling but
    selects no widening points (exact ``lfp F♯`` on finite-chain programs).
    """
    wto = compute_wto(space.schedule_roots(), space.schedule_succs())
    return wto, (set(wto.heads) if widen else set())


# --------------------------------------------------------------------------
# Worklist
# --------------------------------------------------------------------------


class PriorityWorklist:
    """A min-heap worklist ordered by WTO position.

    Always pops the pending node that comes earliest in the weak
    topological order, which iterates inner components to stabilization
    before the enclosing component resumes — Bourdoncle's recursive
    strategy approximated with a single heap. Nodes missing from the
    priority map (unreachable seeds in non-strict mode) sort after every
    mapped node, by id; with an empty map the worklist pops in id order.
    """

    __slots__ = ("_heap", "_in", "_priority", "_base", "pops", "pop_counts",
                 "inversions", "max_size", "_last_priority")

    def __init__(
        self,
        priority: Mapping[int, int],
        initial: Iterable[int] = (),
    ) -> None:
        self._priority = priority
        self._base = len(priority)
        self._heap: list[tuple[int, int]] = []
        self._in: set[int] = set()
        self.pops = 0
        self.pop_counts: dict[int, int] = {}
        self.inversions = 0
        self.max_size = 0
        self._last_priority: int | None = None
        for node in initial:
            self.add(node)

    def _prio(self, node: int) -> int:
        found = self._priority.get(node)
        if found is not None:
            return found
        return self._base + node

    def add(self, node: int) -> None:
        if node not in self._in:
            self._in.add(node)
            heapq.heappush(self._heap, (self._prio(node), node))
            if len(self._in) > self.max_size:
                self.max_size = len(self._in)

    def pending(self) -> list[int]:
        """The live nodes in exact pop order (checkpoint capture). The heap
        may hold stale lazy-deleted entries; ``_in`` is the truth, and the
        heap's ``(priority, node)`` ordering is a pure function of it."""
        return sorted(self._in, key=lambda n: (self._prio(n), n))

    def pop(self) -> int:
        while True:
            p, node = heapq.heappop(self._heap)
            if node in self._in:
                break
        self._in.discard(node)
        self.pops += 1
        self.pop_counts[node] = self.pop_counts.get(node, 0) + 1
        if self._last_priority is not None and p < self._last_priority:
            # Popping an earlier-priority node than the previous pop means
            # upstream state changed after we had moved on — the re-visit
            # cost WTO scheduling is designed to minimize.
            self.inversions += 1
        self._last_priority = p
        return node

    def __len__(self) -> int:
        return len(self._in)

    def __bool__(self) -> bool:
        return bool(self._in)

    def __contains__(self, node: int) -> bool:
        return node in self._in


# --------------------------------------------------------------------------
# Stats
# --------------------------------------------------------------------------


@dataclass
class SchedulerStats:
    """One fixpoint run's scheduling and value-sharing counters.

    ``revisits`` counts pops beyond each node's first; ``inversions``
    counts pops whose WTO priority is lower than the immediately preceding
    pop's (backward jumps in the schedule). The join-cache counters are the
    value layer's memoized join/widen hits attributable to this run.
    """

    pops: int = 0
    unique_nodes: int = 0
    revisits: int = 0
    max_revisits: int = 0
    inversions: int = 0
    max_worklist: int = 0
    widening_points: int = 0
    join_cache_hits: int = 0
    join_cache_misses: int = 0
    #: nodes popped more than once, worst offenders first (bounded)
    hot_nodes: list[tuple[int, int]] = field(default_factory=list)

    @property
    def join_cache_hit_rate(self) -> float:
        total = self.join_cache_hits + self.join_cache_misses
        return self.join_cache_hits / total if total else 0.0

    @property
    def revisit_rate(self) -> float:
        return self.revisits / self.pops if self.pops else 0.0

    @classmethod
    def from_worklist(
        cls,
        work,
        widening_points: int = 0,
        cache_delta: tuple[int, int] = (0, 0),
        hot_limit: int = 8,
    ) -> "SchedulerStats":
        counts = work.pop_counts
        revisits = sum(c - 1 for c in counts.values())
        hot = sorted(
            ((n, c) for n, c in counts.items() if c > 1),
            key=lambda nc: (-nc[1], nc[0]),
        )[:hot_limit]
        return cls(
            pops=work.pops,
            unique_nodes=len(counts),
            revisits=revisits,
            max_revisits=max((c - 1 for c in counts.values()), default=0),
            inversions=work.inversions,
            max_worklist=work.max_size,
            widening_points=widening_points,
            join_cache_hits=cache_delta[0],
            join_cache_misses=cache_delta[1],
            hot_nodes=hot,
        )

    def as_dict(self) -> dict:
        return {
            "pops": self.pops,
            "unique_nodes": self.unique_nodes,
            "revisits": self.revisits,
            "max_revisits": self.max_revisits,
            "revisit_rate": round(self.revisit_rate, 4),
            "inversions": self.inversions,
            "max_worklist": self.max_worklist,
            "widening_points": self.widening_points,
            "join_cache_hits": self.join_cache_hits,
            "join_cache_misses": self.join_cache_misses,
            "join_cache_hit_rate": round(self.join_cache_hit_rate, 4),
            "hot_nodes": list(self.hot_nodes),
        }

    def __str__(self) -> str:
        return (
            f"pops={self.pops} "
            f"revisits={self.revisits} (max {self.max_revisits}) "
            f"inversions={self.inversions} "
            f"join-cache {self.join_cache_hits}/"
            f"{self.join_cache_hits + self.join_cache_misses} "
            f"({100 * self.join_cache_hit_rate:.0f}%)"
        )
