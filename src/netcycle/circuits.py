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
from s gives each vertex's hop distance d back to s, and the path extends
to a successor w only if w is off the path and len(path) + d <= max_len,
i.e. a circuit through w can still fit the cap. Only distances to s prune,
so nothing within the cap is lost. The BFS stops at max_len - 2 hops,
short of the ball's largest layer: a vertex max_len - 1 hops back passes
that test only while len(path) == 1, as s's first step, so only s's own
successors get that distance, each in one hop from its successor row: a
live successor w of s with no distance yet is max_len - 1 hops back if one
of w's own successors is max_len - 2 hops back. Every other vertex meets
the same test as with the full ball, and a BFS that runs out of vertices
earlier has already found every distance. The hub-first start order
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
distance, so a start costs only the slots its BFS writes, and the
distance test reads b <= dist[w] <= b + max_len - len(path).
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
    """1 is the only parallelism, and any other value is a ValueError. The
    value selects nothing: enumeration runs one component at a time, and
    settlement.plan_per_scc decides from the host alone whether a forked
    helper plans half of the components, with identical plans either
    way."""
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
        # bool is an int subclass, but True is no length, count or time
        if isinstance(self.max_len, bool) or not isinstance(self.max_len, int) or self.max_len < 2:
            raise ValueError(f"max_len must be an int >= 2, got {self.max_len!r}")
        count = self.max_circuits
        if count is not None and (isinstance(count, bool) or not isinstance(count, int) or count < 1):
            raise ValueError(f"max_circuits must be an int >= 1 when set, got {count!r}")
        budget = self.per_scc_time_budget
        # not budget > 0 also refuses NaN, which would never run out
        if budget is not None and (
            isinstance(budget, bool) or not isinstance(budget, (int, float)) or not budget > 0
        ):
            raise ValueError(f"per_scc_time_budget must be a positive number when set, got {budget!r}")


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


class _Stop(Exception):
    """Raised inside the DFS to end a truncated search; its one argument is
    the truncation reason."""


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


def _search(
    index: GraphIndex, pred: dict[int, list[int]], cfg: EnumerationConfig, distances: _Distances | None = None
) -> tuple[list[tuple[int, ...]], str | None, int]:
    """Every circuit of length <= cfg.max_len among `pred`'s members, as
    raw tuples that start at the start vertex that found them, in search
    order, with the truncation reason (None for a full search) and the
    number of DFS expansions.

    Starts go from the highest score len(pred[p]) * out-degree(p) down,
    ties by ascending position. Consumes `pred`: a finished start leaves
    its successors' rows and `pred` itself, so no later search reaches it,
    not even through the one-hop last layer. A start whose own row is
    already empty at its turn closes no circuit and is not searched. Each
    searched start takes the next base of `distances` (a new one for the
    index when None), max_len + 1 above the last, before its search
    begins, so a later start or component never reads a distance of this
    one, even after a truncation. Within a start, the DFS takes successors
    by ascending position.

    One extend closure serves every start: s, b, path and on_path are
    cells the start loop rebinds, and limit is the largest stored distance
    the next vertex may have, b + max_len - len(path)."""
    indptr, indices = index.indptr, index.indices
    max_len = cfg.max_len
    if distances is None:
        distances = _Distances(len(index.verts))
    dist, step = distances.dist, max_len + 1
    remaining = -1 if cfg.max_circuits is None else cfg.max_circuits
    deadline = None if cfg.per_scc_time_budget is None else time.monotonic() + cfg.per_scc_time_budget
    expansions = 0
    out: list[tuple[int, ...]] = []

    # One list of positions, scored before any row shrinks; the sort is
    # stable, so equal scores keep pred's ascending order.
    order = sorted(pred, key=lambda p: len(pred[p]) * (indptr[p + 1] - indptr[p]), reverse=True)

    def extend(v: int, limit: int) -> None:
        nonlocal expansions, remaining
        expansions += 1
        if deadline is not None and (expansions & 1023) == 0 and time.monotonic() >= deadline:
            raise _Stop(TIME_BUDGET)
        for w in indices[indptr[v]:indptr[v + 1]]:
            if w == s:
                out.append(tuple(path))
                if remaining > 0:
                    remaining -= 1
                    if remaining == 0:
                        raise _Stop(MAX_CIRCUITS)
                continue
            # below b: an earlier start, a non-member, or too far from s
            if b <= dist[w] <= limit and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(w, limit - 1)
                path.pop()
                on_path.discard(w)

    try:
        for s in order:
            if pred[s]:
                b = distances.base
                distances.base = b + step
                # the reverse BFS to max_len - 2 hops, then, if it got that
                # far, the one-hop last layer (see the module docstring)
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
                        break
                    frontier = nxt
                else:
                    last = b + max_len - 2
                    for w in indices[indptr[s]:indptr[s + 1]]:
                        if dist[w] < b and w in pred:
                            for x in indices[indptr[w]:indptr[w + 1]]:
                                if dist[x] == last:
                                    dist[w] = last + 1
                                    break
                path, on_path = [s], {s}
                extend(s, b + max_len - 1)
            for w in indices[indptr[s]:indptr[s + 1]]:
                row = pred.get(w)
                if row is not None:
                    row.remove(s)
            del pred[s]
    except _Stop as stop:
        return out, stop.args[0], expansions
    finally:
        # extend's closure holds extend itself; unbinding it breaks that
        # reference cycle, so the search's state is freed at once instead
        # of being left as garbage for the cyclic collector.
        del extend
    return out, None, expansions


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
    raw, reason, _ = _search(index, component_adjacency(g, component), cfg, distances)
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
    # The search makes no reference cycles (see _search), so the
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
