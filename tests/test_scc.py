from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from netcycle import DebtGraph, nontrivial_components, tarjan
from netcycle.oracle import OracleBudget, scc_by_closure
from netcycle.scc import SccPartition

from conftest import graph_of, random_graph


# Tarjan's search with four per-vertex lists, as netcycle ran it before the
# one-array search: the reference that tarjan must match exactly.
def reference_tarjan(g: DebtGraph) -> SccPartition:
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


def as_sets(partition):
    return {frozenset(c) for c in partition.components}


def ids(g, partition):
    """The partition's components as company ids."""
    verts = g.index().verts
    return [[verts[p] for p in c] for c in partition.components]


def test_cycle_is_one_component(intro_graph):
    p = tarjan(intro_graph)
    assert p.components == [[0, 1, 2]]
    assert p.component_of == [0, 0, 0]
    assert ids(intro_graph, p) == [["A", "B", "C"]]


def test_path_gives_singletons():
    g = graph_of([("A", "B", 1), ("B", "C", 1)])
    p = tarjan(g)
    assert as_sets(p) == {frozenset({0}), frozenset({1}), frozenset({2})}
    # emitted in reverse topological order: sinks finish first
    assert ids(g, p) == [["C"], ["B"], ["A"]]
    assert p.component_of == [2, 1, 0]


def test_overlapping_circuits_form_one_component(overlap_graph):
    p = tarjan(overlap_graph)
    assert ids(overlap_graph, p) == [sorted("ABCDEFGH")]
    oracle = scc_by_closure(overlap_graph)
    assert as_sets(p) == as_sets(oracle)


def test_partition_covers_vertices():
    rng = random.Random(7)
    g = random_graph(rng, 30, 0.1)
    p = tarjan(g)
    seen = [v for c in p.components for v in c]
    assert sorted(seen) == list(range(len(g.vertices)))
    assert all(c == sorted(c) for c in p.components)
    assert all(p.component_of[v] == i for i, c in enumerate(p.components) for v in c)


def test_nontrivial_filters_singletons():
    g = graph_of([("A", "B", 1), ("B", "C", 1), ("C", "A", 1), ("C", "D", 1)])
    p = tarjan(g)
    assert nontrivial_components(p) == [[0, 1, 2]]


def test_all_singletons_filter_to_nothing():
    g = graph_of([("A", "B", 1), ("B", "C", 1)])
    p = tarjan(g)
    assert nontrivial_components(p) == []


def test_empty_graph():
    p = tarjan(DebtGraph())
    assert p.components == []
    assert p.component_of == []


def test_matches_closure_oracle_on_random_graphs():
    rng = random.Random(2024)
    budget = OracleBudget(max_vertices=13)
    for _ in range(200):
        n = rng.randint(2, 50)
        g = random_graph(rng, n, rng.uniform(0.02, 0.3))
        assert as_sets(tarjan(g)) == as_sets(scc_by_closure(g, budget))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.2, 0.5]),
       st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2**32 - 1))
def test_matches_reference_tarjan(n, density, mutual, seed):
    # each drawn edge gets its reverse with probability `mutual`, so
    # antiparallel pairs are common; vertices with no edge stay in
    rng = random.Random(seed)
    g = DebtGraph()
    names = [f"v{i:02d}" for i in range(n)]
    for v in names:
        g.add_vertex(v)
    for u in names:
        for v in names:
            if u != v and rng.random() < density:
                g.add_obligation(u, v, 1)
                if rng.random() < mutual:
                    g.add_obligation(v, u, 1)
    got, want = tarjan(g), reference_tarjan(g)
    assert got.components == want.components
    assert got.component_of == want.component_of


def test_large_cycle_does_not_recurse():
    # one directed ring larger than any recursion limit
    n = 120_000
    g = DebtGraph()
    names = [f"x{i:06d}" for i in range(n)]
    for i in range(n):
        g.add_obligation(names[i], names[(i + 1) % n], 1)
    p = tarjan(g)
    assert len(p.components) == 1
    assert len(p.components[0]) == n


def test_long_path_lists_sinks_first():
    # one DFS path deeper than any recursion limit, every vertex its own component
    n = 120_000
    g = DebtGraph()
    names = [f"x{i:06d}" for i in range(n)]
    for i in range(n - 1):
        g.add_obligation(names[i], names[i + 1], 1)
    p = tarjan(g)
    assert p.components == [[q] for q in reversed(range(n))]
    assert p.component_of == [n - 1 - q for q in range(n)]


def test_chain_of_two_cycles_lists_the_last_pair_first():
    # A<->B -> C<->D -> ...: the search goes down the whole chain with
    # every pair's component still open, then finishes them last first
    m = 50_000
    g = DebtGraph()
    names = [(f"p{k:05d}a", f"p{k:05d}b") for k in range(m)]
    for k, (a, b) in enumerate(names):
        g.add_obligation(a, b, 1)
        g.add_obligation(b, a, 1)
        if k + 1 < m:
            g.add_obligation(b, names[k + 1][0], 1)
    p = tarjan(g)
    assert p.components == [[2 * k, 2 * k + 1] for k in reversed(range(m))]
    assert p.component_of == [m - 1 - q // 2 for q in range(2 * m)]
