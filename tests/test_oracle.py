from __future__ import annotations

import random

import pytest

from netcycle import DebtGraph, tarjan
from netcycle.oracle import (
    BudgetExceeded,
    OracleBudget,
    best_order_by_permutation,
    circuits_by_dfs,
    scc_by_closure,
)

from conftest import OVERLAP_CIRCUITS, complete_digraph, graph_of, random_graph


def test_closure_on_cycle(intro_graph):
    p = scc_by_closure(intro_graph)
    assert p.components == [[0, 1, 2]]
    assert p.component_of == [0, 0, 0]
    assert [[intro_graph.index().verts[v] for v in c] for c in p.components] == [["A", "B", "C"]]


def test_closure_on_dag():
    g = graph_of([("A", "B", 1), ("A", "C", 1), ("B", "C", 1)])
    p = scc_by_closure(g)
    assert p.components == [[0], [1], [2]]
    assert p.component_of == [0, 1, 2]


def test_closure_agrees_with_tarjan_at_twenty_vertices():
    rng = random.Random(55)
    for _ in range(20):
        g = random_graph(rng, 20, 0.15)
        ours = {frozenset(c) for c in tarjan(g).components}
        theirs = {frozenset(c) for c in scc_by_closure(g).components}
        assert ours == theirs


def test_complete_three_party_count():
    # 3 mutual pairs plus both triangle orientations
    out = circuits_by_dfs(complete_digraph(3), 3)
    assert len(out) == 5
    assert sum(1 for c in out if len(c) == 2) == 3
    assert sum(1 for c in out if len(c) == 3) == 2


def test_overlap_instance_membership(overlap_graph):
    out = circuits_by_dfs(overlap_graph, 8)
    for c in OVERLAP_CIRCUITS:
        assert c in out


def test_cap_two_gives_mutual_pairs_only():
    g = graph_of([
        ("A", "B", 1), ("B", "A", 1),
        ("B", "C", 1), ("C", "D", 1), ("D", "B", 1),
    ])
    assert circuits_by_dfs(g, 2) == [("A", "B")]


def test_permutation_oracle_overlap_total(overlap_graph):
    plan = best_order_by_permutation(overlap_graph, list(OVERLAP_CIRCUITS))
    assert plan.total == 29_000


def test_permutation_oracle_disjoint_is_order_free():
    g = graph_of([
        ("A", "B", 5), ("B", "A", 5),
        ("C", "D", 7), ("D", "C", 9),
    ])
    plan = best_order_by_permutation(g, [("A", "B"), ("C", "D")])
    assert plan.total == 2 * 5 + 2 * 7


def test_budget_refusals():
    with pytest.raises(BudgetExceeded):
        circuits_by_dfs(complete_digraph(5), 4, OracleBudget(max_vertices=4))
    big = DebtGraph()
    for i in range(60):
        big.add_obligation(f"n{i:02d}", f"n{(i + 1) % 60:02d}", 1)
    with pytest.raises(BudgetExceeded):
        scc_by_closure(big, OracleBudget(max_vertices=12))
    with pytest.raises(BudgetExceeded):
        best_order_by_permutation(
            complete_digraph(3), [("A", "B")] * 9, OracleBudget(max_circuits_for_permutation=8)
        )


def test_oracles_are_deterministic(overlap_graph):
    a = circuits_by_dfs(overlap_graph, 8)
    b = circuits_by_dfs(overlap_graph, 8)
    assert a == b
    p1 = best_order_by_permutation(overlap_graph, list(OVERLAP_CIRCUITS))
    p2 = best_order_by_permutation(overlap_graph, list(OVERLAP_CIRCUITS))
    assert [s.circuit for s in p1.steps] == [s.circuit for s in p2.steps]
