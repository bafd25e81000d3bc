from __future__ import annotations

import random

from netcycle import DebtGraph, nontrivial_components, tarjan
from netcycle.oracle import OracleBudget, scc_by_closure

from conftest import graph_of, random_graph


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
