"""Elementary circuit enumeration with a circuit-length cap.

The search runs once per start vertex s over the component's induced
subgraph. Starts go from the highest degree score down, where the score
is a vertex's in-degree inside the component times its out-degree, ties
by position: hubs close the most circuits, and searching them first
leaves the many low-degree starts a sparser graph. A finished start
leaves the predecessor rows, its own included, so later searches cannot
reach it, and every circuit is found exactly once, from whichever of its
vertices was searched first. Each raw circuit is then rotated to start
at its smallest vertex and the component's list is sorted, so the output
is in canonical rotation and lexicographic order whatever the start
order.

The search is length-aware (after Gupta & Suzumura, "Finding All
Bounded-Length Simple Cycles in a Directed Graph", 2021): a reverse BFS
from s gives each vertex's hop distance back to s, and the path extends to
w only if a circuit through w still fits the cap. The BFS stops at
max_len - 2 hops, short of the ball's largest layer: a vertex max_len - 1
hops back fits only as s's first step, so only s's own successors get
that distance, each from its successor row. The hub-first start order
follows degeneracy-style orderings (Eppstein, Löffler & Strash, ISAAC
2010).

Vertices are positions in the graph's shared sorted index (id order), as
Tarjan's partition lists them, and successors are read from its CSR rows.
Only the component's predecessor rows are built; a successor outside the
component has no distance back to s, so the search stays in the induced
subgraph. Ids come back only for the finished circuits.

The distances live in one list indexed by position (`_Distances`), which
enumerate_graph allocates once per graph and every component's search
shares. Instead of being cleared, it is stamped: each start takes a new
base b, max_len + 1 above the previous start's, and a vertex d hops back
stores b + d. Any slot below b (a non-member, an earlier start, a vertex
out of reach, or a value left by an earlier start or component) means no
distance, so a start costs only the slots its BFS writes.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Iterable

from .ledger import Circuit, DebtGraph, GraphIndex, canonical_rotation
from .scc import SccPartition, nontrivial_components


def resolve_engine(engine: str | None) -> str:
    """Name of the circuit engine: "python", the only one. None and "auto"
    resolve to it; any other name is a ValueError."""
    if engine not in (None, "auto", "python"):
        raise ValueError(f"unknown engine {engine!r}")
    return "python"


def check_parallelism(parallelism: int) -> None:
    """Components run one at a time: 1 is the only parallelism, and any
    other value is a ValueError."""
    if parallelism != 1:
        raise ValueError(f"parallelism must be 1, got {parallelism!r}")


@dataclass
class EnumerationConfig:
    """max_len caps circuit length (>= 2). max_circuits is an emit-and-stop
    safety valve; per_scc_time_budget is wall-clock seconds per component.
    Hitting either bound yields a partial result flagged truncated: the
    circuits found from the first starts in search order (hub first, see
    the module docstring), listed in lexicographic order like a full
    result. Which circuits a truncated component keeps therefore follows
    the degree order, not the ids."""

    max_len: int = 8
    max_circuits: int | None = None
    per_scc_time_budget: float | None = None

    def __post_init__(self) -> None:
        if self.max_len < 2:
            raise ValueError("max_len must be >= 2")
        if self.max_circuits is not None and self.max_circuits < 1:
            raise ValueError("max_circuits must be >= 1 when set")
        if self.per_scc_time_budget is not None and self.per_scc_time_budget <= 0:
            raise ValueError("per_scc_time_budget must be positive when set")


# Why a search stopped early: EnumerationResult.truncation_reason of a
# truncated result, which is None otherwise.
MAX_CIRCUITS = "max_circuits"
TIME_BUDGET = "time_budget"
TRUNCATION_REASONS = (MAX_CIRCUITS, TIME_BUDGET)


@dataclass
class EnumerationResult:
    circuits: list[Circuit]
    truncated: bool = False
    truncation_reason: str | None = None


@dataclass
class ComponentCircuits:
    """Enumeration output for one strongly connected component."""

    scc_index: int
    result: EnumerationResult


class _Budget:
    __slots__ = ("remaining", "deadline", "reason", "ticks")

    def __init__(self, max_circuits: int | None, time_budget: float | None):
        self.remaining = -1 if max_circuits is None else max_circuits
        self.deadline = None if time_budget is None else time.monotonic() + time_budget
        self.reason: str | None = None
        self.ticks = 0


class _Stop(Exception):
    pass


def component_adjacency(g: DebtGraph, component: Iterable[int]) -> dict[int, list[int]]:
    """The predecessor rows of the induced subgraph on `component`,
    positions in g.index() listed ascending as Tarjan lists them, keyed in
    that order. A row lists only members, ascending."""
    index = g.index()
    indptr, indices = index.indptr, index.indices
    pred: dict[int, list[int]] = {p: [] for p in component}
    for p in pred:
        for w in indices[indptr[p]:indptr[p + 1]]:
            row = pred.get(w)
            if row is not None:
                row.append(p)
    return pred


class _Distances:
    """The stamped distance list, one slot per position in g.index(), and
    the base the next start takes: above every value stored so far (see
    the module docstring)."""

    __slots__ = ("dist", "base")

    def __init__(self, n: int):
        self.dist = [-1] * n
        self.base = 0


def distances_to(
    s: int, index: GraphIndex, pred: dict[int, list[int]], max_len: int, dist: list[int], b: int
) -> None:
    """Store in dist, as b + hops, the fewest hops from each vertex back to
    s along the rows of `pred`, for every vertex a circuit of length <=
    max_len through s can use; s itself gets b. Starts searched before s
    are no longer in `pred` (see _search), so they get no distance: with b
    above every value already in dist, every other slot stays below b.

    The reverse BFS stops at max_len - 2 hops. Its next layer would be its
    largest, and search_from can use a vertex max_len - 1 hops back only as
    a successor of s. So only those are resolved, one hop at a time: a live
    successor w of s with no distance yet is at max_len - 1 if one of w's
    own successors is at max_len - 2. A BFS that runs out of vertices
    earlier has already found every distance.
    """
    dist[s] = b
    frontier = [s]
    for d in range(b + 1, b + max_len - 1):
        nxt = []
        for w in frontier:
            for u in pred[w]:
                if dist[u] < b:
                    dist[u] = d
                    nxt.append(u)
        if not nxt:
            return
        frontier = nxt
    indptr, indices = index.indptr, index.indices
    last = b + max_len - 2
    for w in indices[indptr[s]:indptr[s + 1]]:
        if dist[w] < b and w in pred:
            for x in indices[indptr[w]:indptr[w + 1]]:
                if dist[x] == last:
                    dist[w] = last + 1
                    break


def search_from(
    s: int, index: GraphIndex, pred: dict[int, list[int]], max_len: int, budget: _Budget,
    out: list[tuple[int, ...]], dist: list[int], b: int,
) -> None:
    """Append to out every circuit of length <= max_len through s among
    the vertices still in `pred`'s rows, each as a tuple that starts at s,
    in the order the DFS meets them (successors by ascending position).
    distances_to fills dist at base b, which must be above every value
    already in dist.

    The path extends to a successor w only if w has a distance d to s (it
    is a member and not an earlier start), w is off the path and
    len(path) + d <= max_len, i.e. a circuit through w can still fit the
    cap: b <= dist[w] <= b + max_len - len(path). Only distances to s
    prune, so nothing within the cap is lost. A vertex max_len - 1 hops
    back passes only while len(path) == 1, as a successor of s, so
    distances_to gives that distance to s's successors alone (see there);
    every other vertex meets the same test as with the full ball.
    """
    indptr, indices = index.indptr, index.indices
    distances_to(s, index, pred, max_len, dist, b)
    top = b + max_len
    path = [s]
    on_path = {s}

    def extend(v: int) -> None:
        budget.ticks += 1
        if budget.deadline is not None and (budget.ticks & 1023) == 0 and time.monotonic() >= budget.deadline:
            budget.reason = TIME_BUDGET
            raise _Stop
        limit = top - len(path)
        for w in indices[indptr[v]:indptr[v + 1]]:
            if w == s:
                out.append(tuple(path))
                if budget.remaining > 0:
                    budget.remaining -= 1
                    if budget.remaining == 0:
                        budget.reason = MAX_CIRCUITS
                        raise _Stop
                continue
            # below b: an earlier start, a non-member, or too far from s
            if b <= dist[w] <= limit and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(w)
                path.pop()
                on_path.discard(w)

    try:
        extend(s)
    finally:
        # extend's closure holds extend itself; unbinding it breaks that
        # reference cycle, so each start vertex frees its state at once
        # instead of leaving garbage for the cyclic collector.
        del extend


def _search(
    index: GraphIndex, pred: dict[int, list[int]], cfg: EnumerationConfig, distances: _Distances | None = None
) -> tuple[list[tuple[int, ...]], str | None]:
    """Every start, from the highest score len(pred[p]) * out-degree(p)
    down, ties by ascending position. Consumes `pred`: a finished start
    leaves its successors' rows and `pred` itself, so no later search
    reaches it, not even through distances_to's one-hop step. A start
    whose own row is already empty at its turn closes no circuit and is
    not searched. Raw circuits start at their start vertex, in search
    order.

    Each searched start takes the next base of `distances` (a new one for
    the index when None), max_len + 1 above the last, before its search
    begins, so a later start or component never reads a distance of this
    one, even after a truncation."""
    budget = _Budget(cfg.max_circuits, cfg.per_scc_time_budget)
    out: list[tuple[int, ...]] = []
    indptr, indices = index.indptr, index.indices
    if distances is None:
        distances = _Distances(len(index.verts))
    dist, step = distances.dist, cfg.max_len + 1
    # One list of positions, scored before any row shrinks; the sort is
    # stable, so equal scores keep pred's ascending order.
    order = sorted(pred, key=lambda p: len(pred[p]) * (indptr[p + 1] - indptr[p]), reverse=True)
    try:
        for s in order:
            if pred[s]:
                b = distances.base
                distances.base = b + step
                search_from(s, index, pred, cfg.max_len, budget, out, dist, b)
            for w in indices[indptr[s]:indptr[s + 1]]:
                row = pred.get(w)
                if row is not None:
                    row.remove(s)
            del pred[s]
    except _Stop:
        return out, budget.reason
    return out, None


def enumerate_circuits(
    g: DebtGraph,
    component: Iterable[int],
    cfg: EnumerationConfig | None = None,
    distances: _Distances | None = None,
) -> EnumerationResult:
    """All elementary circuits, as ids, of length <= cfg.max_len of the
    subgraph induced by `component` (ascending positions in g.index()),
    each once, canonical rotation, in lexicographic order. A hit budget
    yields a truncated partial result (see EnumerationConfig). The search
    stores its distances in `distances`, built for g.index(), or in a new
    list when None."""
    cfg = cfg or EnumerationConfig()
    index = g.index()
    raw, reason = _search(index, component_adjacency(g, component), cfg, distances)
    # Position order is id order, so rotating and sorting positions gives
    # the canonical rotation and lexicographic order of the ids.
    ordered = sorted(map(canonical_rotation, raw))
    circuits = [tuple([index.verts[i] for i in c]) for c in ordered]
    return EnumerationResult(circuits, reason is not None, reason)


def enumerate_graph(
    g: DebtGraph,
    partition: SccPartition,
    cfg: EnumerationConfig | None = None,
    engine: str | None = None,
    parallelism: int = 1,
) -> list[ComponentCircuits]:
    """Enumerate every nontrivial component, one at a time, in component
    index order, all of them storing distances in one list over the
    graph's positions, with the cyclic garbage collector paused.
    `engine` and `parallelism` accept only the values resolve_engine and
    check_parallelism do.
    """
    resolve_engine(engine)
    check_parallelism(parallelism)
    cfg = cfg or EnumerationConfig()
    distances = _Distances(len(g.index().verts))
    # The search makes no reference cycles (see search_from), so the
    # cyclic collector would only rescan the heap: the predecessor rows
    # live through a component's search, get promoted, and on a large
    # graph set off full collections of everything the caller holds. It
    # is paused for the enumeration and left as it was found.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [
            ComponentCircuits(partition.component_of[comp[0]], enumerate_circuits(g, comp, cfg, distances))
            for comp in nontrivial_components(partition)
        ]
    finally:
        if enabled:
            gc.enable()


def merge_circuits(per_component: list[ComponentCircuits]) -> list[Circuit]:
    """Flat, lexicographically sorted circuit list across components."""
    merged: list[Circuit] = []
    for item in per_component:
        merged.extend(item.result.circuits)
    merged.sort()
    return merged
