"""Strongly connected components of the debt graph.

Single-DFS lowlink computation over an explicit stack, so graphs with
hundreds of thousands of vertices never touch the interpreter's recursion
limit. The DFS runs over the graph's shared sorted index
(`DebtGraph.index`), the same one the `graph.json` writer and the circuit
search read, so it builds nothing of its own, and lists components as
positions in it. Circuits can only exist inside a component, so
downstream stages run per component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ledger import DebtGraph


@dataclass
class SccPartition:
    """Disjoint covering of the vertex set into maximal strongly connected
    subgraphs, in positions p of g.index() as it was when tarjan ran
    (company g.index().verts[p]). Components are listed in the order the
    DFS finishes them (reverse topological), each ascending, which is id
    order; component_of[p] is the index of p's component."""

    components: list[list[int]]
    component_of: list[int]


def tarjan(g: DebtGraph) -> SccPartition:
    """SCC partition in O(|V| + |E|), visiting vertices and, from each,
    successors in ascending position (id) order: the graph's index."""
    index = g.index()
    indptr, indices = index.indptr, index.indices
    n = len(index.verts)

    UNVISITED = -1
    order = [UNVISITED] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    component_of = [0] * n
    counter = 0

    for root in range(n):
        if order[root] != UNVISITED:
            continue
        # Frames hold (vertex, next successor slot); lowlink merging happens
        # when a frame is resumed after its child completes.
        work: list[tuple[int, int]] = [(root, indptr[root])]
        while work:
            v, ptr = work.pop()
            if ptr == indptr[v]:
                order[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            else:
                # Returning from the child explored in the previous slot.
                child = indices[ptr - 1]
                low[v] = min(low[v], low[child])
            advanced = False
            while ptr < indptr[v + 1]:
                w = indices[ptr]
                ptr += 1
                if order[w] == UNVISITED:
                    work.append((v, ptr))
                    work.append((w, indptr[w]))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], order[w])
            if advanced:
                continue
            if low[v] == order[v]:
                comp_index = len(components)
                members: list[int] = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    members.append(u)
                    component_of[u] = comp_index
                    if u == v:
                        break
                members.sort()
                components.append(members)
    return SccPartition(components, component_of)


def nontrivial_components(p: SccPartition) -> list[list[int]]:
    """Components that can host a circuit: two or more vertices. The debt
    graph has no self-loops, so singletons never do."""
    return [c for c in p.components if len(c) >= 2]
