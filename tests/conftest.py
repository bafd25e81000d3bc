from __future__ import annotations

import gc
import random

import pytest

from netcycle import DebtGraph

# Three-company worked instance, major units x100 into minor units.
INTRO_EDGES = [("A", "B", 3_200_000), ("B", "C", 2_300_000), ("C", "A", 2_500_000)]

# Four-company ring whose minimum edge is D->A at 600.
RING4_EDGES = [("A", "B", 1_500), ("B", "C", 900), ("C", "D", 2_100), ("D", "A", 600)]

# Three overlapping circuits: the ring ABCD at 7000 per edge, the
# five-party ABDEF detour worth 200, the four-party BCGH branch worth 300.
# ABCD shares A->B with ABDEF and B->C with BCGH.
OVERLAP_EDGES = [
    ("A", "B", 7_000), ("B", "C", 7_000), ("C", "D", 7_000), ("D", "A", 7_000),
    ("B", "D", 200), ("D", "E", 200), ("E", "F", 200), ("F", "A", 200),
    ("C", "G", 300), ("G", "H", 300), ("H", "B", 300),
]
ABCD = ("A", "B", "C", "D")
ABDEF = ("A", "B", "D", "E", "F")
BCGH = ("B", "C", "G", "H")
OVERLAP_CIRCUITS = [ABCD, ABDEF, BCGH]


def cyclic_garbage(call):
    """call()'s result and how many objects gc.collect() reclaims after it
    runs with the cyclic collector off: 0 when reference counting alone
    frees everything it made."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = call()
        return result, gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def graph_of(edges) -> DebtGraph:
    g = DebtGraph()
    for u, v, w in edges:
        g.add_obligation(u, v, w)
    return g


def total_weight(g: DebtGraph) -> int:
    return sum(w for _, w in g.edges())


def one_row_per_company(g: DebtGraph) -> bool:
    """Whether the companies are exactly the adjacency map's row keys and
    every creditor has a row of its own."""
    rows = g._adj
    return set(g.vertices) == set(rows) and all(v in rows for row in rows.values() for v in row)


def positions(g: DebtGraph, ids) -> list[int]:
    """The positions in g.index() of the companies `ids`, ascending, as
    tarjan lists a component's members."""
    verts = g.index().verts
    return sorted(verts.index(v) for v in ids)


def complete_digraph(n: int, weight: int = 5) -> DebtGraph:
    g = DebtGraph()
    names = [chr(65 + i) for i in range(n)]
    for u in names:
        for v in names:
            if u != v:
                g.add_obligation(u, v, weight)
    return g


def random_graph(rng: random.Random, n: int, p: float, max_weight: int = 50) -> DebtGraph:
    g = DebtGraph()
    names = [f"v{i:02d}" for i in range(n)]
    for v in names:
        g.add_vertex(v)
    for u in names:
        for v in names:
            if u != v and rng.random() < p:
                g.add_obligation(u, v, rng.randint(1, max_weight))
    return g


@pytest.fixture
def intro_graph() -> DebtGraph:
    return graph_of(INTRO_EDGES)


@pytest.fixture
def ring4_graph() -> DebtGraph:
    return graph_of(RING4_EDGES)


@pytest.fixture
def overlap_graph() -> DebtGraph:
    return graph_of(OVERLAP_EDGES)
