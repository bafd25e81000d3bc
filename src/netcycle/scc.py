"""Strongly connected components of the debt graph.

Pearce's one-array variant of Tarjan's search (Pearce, "A space-efficient
algorithm for finding strongly connected components", IPL 116(1), 2016),
run over an explicit stack, so graphs with hundreds of thousands of
vertices never touch the interpreter's recursion limit. The DFS runs over
the graph's shared sorted index (`DebtGraph.index`), the same one the
`graph.json` writer and the circuit search read, so it builds nothing of
its own, and lists components as positions in it. Circuits can only exist
inside a component, so downstream stages run per component.
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
    successors in ascending position (id) order: the graph's index. One
    number per vertex carries the search: rindex[v] is 0 until v is
    visited, then its visit number (from 1), lowered while v is open to
    the least rindex of its visited successors, then n + 1 + c once v is
    in finished component c: above every visit number, so a finished
    vertex never lowers another. It ends as component_of."""
    index = g.index()
    indptr, indices = index.indptr, index.indices
    n = len(index.verts)

    rindex = [0] * n
    stack: list[int] = []  # visited vertices whose component is still open
    components: list[list[int]] = []
    visits = 0

    for root in range(n):
        if rindex[root]:
            continue
        visits += 1
        rindex[root] = visits
        # Frames hold (vertex, next successor slot, its visit number). A
        # frame resumes at the slot of the child it went down into, so the
        # same test reads what the child reached.
        work = [(root, indptr[root], visits)]
        while work:
            v, ptr, number = work.pop()
            end = indptr[v + 1]
            while ptr < end:
                w = indices[ptr]
                if not rindex[w]:
                    work.append((v, ptr, number))
                    visits += 1
                    rindex[w] = visits
                    work.append((w, indptr[w], visits))
                    break
                if rindex[w] < rindex[v]:
                    rindex[v] = rindex[w]
                ptr += 1
            else:
                if rindex[v] < number:
                    stack.append(v)  # v reaches an open vertex visited before it
                    continue
                # v is its component's root: the stacked vertices it reached
                finished = n + 1 + len(components)
                members = [v]
                while stack and rindex[stack[-1]] >= number:
                    members.append(stack.pop())
                for u in members:
                    rindex[u] = finished
                members.sort()
                components.append(members)
    for c, members in enumerate(components):
        for u in members:
            rindex[u] = c
    return SccPartition(components, rindex)


def nontrivial_components(p: SccPartition) -> list[list[int]]:
    """Components that can host a circuit: two or more vertices. The debt
    graph has no self-loops, so singletons never do."""
    return [c for c in p.components if len(c) >= 2]
