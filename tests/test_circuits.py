from __future__ import annotations

import gc
import random
import sys
from collections import Counter
from enum import IntEnum
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcycle import (
    DebtGraph,
    EnumerationConfig,
    canonical_rotation,
    circuits,
    enumerate_circuits,
    enumerate_graph,
    merge_circuits,
    tarjan,
)
from netcycle.circuits import _Distances, _search, component_adjacency
from netcycle.ledger import circuit_edges
from netcycle.oracle import OracleBudget, circuits_by_dfs
from netcycle.scc import nontrivial_components

from conftest import (
    OVERLAP_CIRCUITS,
    complete_digraph,
    cyclic_garbage,
    graph_of,
    positions,
    random_graph,
)


def enumerate_whole(g, cfg):
    return merge_circuits(enumerate_graph(g, tarjan(g), cfg))


class TestExamples:
    def test_three_cycle(self, intro_graph):
        res = enumerate_circuits(intro_graph, positions(intro_graph, "ABC"), EnumerationConfig())
        assert res.circuits == [("A", "B", "C")]
        assert not res.truncated

    def test_antiparallel_pair(self):
        g = graph_of([("A", "B", 5), ("B", "A", 3)])
        res = enumerate_circuits(g, positions(g, "AB"), EnumerationConfig())
        assert res.circuits == [("A", "B")]

    def test_overlapping_instance_contains_named_circuits(self, overlap_graph):
        res = enumerate_circuits(g=overlap_graph, component=positions(overlap_graph, "ABCDEFGH"),
                                 cfg=EnumerationConfig(max_len=8))
        for c in OVERLAP_CIRCUITS:
            assert c in res.circuits
        # the union of the three overlapping circuits necessarily embeds
        # two more cycles (A,B,D and A,B,C,D,E,F); exhaustive search agrees
        assert res.circuits == circuits_by_dfs(overlap_graph, 8)
        assert len(res.circuits) == 5

    def test_complete_digraph_k4_capped_at_three(self):
        g = complete_digraph(4)
        res = enumerate_circuits(g, positions(g, "ABCD"), EnumerationConfig(max_len=3))
        # frozen from the exhaustive oracle: 6 two-cycles + 8 three-cycles
        assert res.circuits == circuits_by_dfs(g, 3)
        counts = Counter(len(c) for c in res.circuits)
        assert counts == {2: 6, 3: 8}
        assert len(res.circuits) == 14

    def test_cap_excludes_longer_circuits(self):
        g = complete_digraph(4)
        res = enumerate_circuits(g, positions(g, "ABCD"), EnumerationConfig(max_len=3))
        assert all(len(c) <= 3 for c in res.circuits)

    def test_capped_blocking_keeps_shortcut_circuit(self):
        # a->b->c->d->e->a plus the chord a->c: searching a->b->c->d hits the
        # cap at e, and c, d must not stay blocked for the a->c path, or the
        # four-party circuit (a,c,d,e) disappears.
        g = graph_of([
            ("a", "b", 1), ("b", "c", 1), ("c", "d", 1),
            ("d", "e", 1), ("e", "a", 1), ("a", "c", 1),
        ])
        res = enumerate_circuits(g, positions(g, g.vertices), EnumerationConfig(max_len=4))
        assert res.circuits == [("a", "c", "d", "e")]

    def test_ring_longer_than_the_recursion_limit(self):
        # the DFS path holds every company of the ring at once
        n = 2000
        assert n > sys.getrecursionlimit()
        names = [f"x{i:04d}" for i in range(n)]
        g = graph_of([(names[i], names[(i + 1) % n], 1) for i in range(n)])
        component = positions(g, names)
        assert enumerate_circuits(g, component, EnumerationConfig(max_len=n)).circuits == [tuple(names)]
        assert enumerate_circuits(g, component, EnumerationConfig(max_len=n - 1)).circuits == []


class TestProperties:
    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(31337)
        for _ in range(150):
            n = rng.randint(2, 10)
            p = rng.uniform(0.1, 0.9) if n <= 7 else rng.uniform(0.05, 0.5)
            g = random_graph(rng, n, p)
            max_len = rng.randint(2, n)
            mine = enumerate_whole(g, EnumerationConfig(max_len=max_len))
            assert mine == circuits_by_dfs(g, max_len)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(4, 9))
    def test_monotone_in_cap(self, seed, n):
        g = random_graph(random.Random(seed), n, 0.35)
        previous: set = set()
        for max_len in range(2, n + 1):
            current = set(enumerate_whole(g, EnumerationConfig(max_len=max_len)))
            assert previous <= current
            previous = current

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_elementary_unique_and_sorted(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 9), 0.4)
        circuits = enumerate_whole(g, EnumerationConfig(max_len=8))
        assert circuits == sorted(circuits)
        assert len(set(circuits)) == len(circuits)
        seen_rotations = set()
        for c in circuits:
            assert len(set(c)) == len(c)
            assert c[0] == min(c)
            for u, v in circuit_edges(c):
                assert g.weight(u, v) > 0
            rotations = frozenset(tuple(c[i:] + c[:i]) for i in range(len(c)))
            assert rotations not in seen_rotations
            seen_rotations.add(rotations)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 9))
    def test_any_subset_matches_oracle_on_induced_subgraph(self, seed, max_len):
        """The search runs on positions in the whole graph's index, so a
        successor outside the subset must stay out of every circuit."""
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.15, 0.7))
        subset = [v for v in sorted(g.vertices) if rng.random() < 0.6]
        induced = DebtGraph()
        for v in subset:
            induced.add_vertex(v)
        for (u, v), w in g.edges():
            if u in induced and v in induced:
                induced.add_obligation(u, v, w)
        res = enumerate_circuits(g, positions(g, subset), EnumerationConfig(max_len=max_len))
        assert res.circuits == circuits_by_dfs(induced, max_len)
        assert not res.truncated

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 9))
    def test_relabelling_changes_nothing(self, seed, max_len):
        """The start order follows degrees, not ids: renaming the companies
        at random, enumerating, and renaming the circuits back gives the
        same output, and both runs agree with the exhaustive oracle."""
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.15, 0.7))
        names = sorted(g.vertices)
        shuffled = names[:]
        rng.shuffle(shuffled)
        rename = dict(zip(names, shuffled))
        back = {new: old for old, new in rename.items()}
        relabelled = DebtGraph()
        for v in names:
            relabelled.add_vertex(rename[v])
        for (u, v), w in g.edges():
            relabelled.add_obligation(rename[u], rename[v], w)
        cfg = EnumerationConfig(max_len=max_len)
        mine = enumerate_whole(g, cfg)
        theirs = enumerate_whole(relabelled, cfg)
        assert sorted(canonical_rotation(back[v] for v in c) for c in theirs) == mine
        assert mine == circuits_by_dfs(g, max_len)
        assert theirs == circuits_by_dfs(relabelled, max_len)

    def test_containment_in_component(self):
        rng = random.Random(5)
        g = random_graph(rng, 20, 0.12)
        partition = tarjan(g)
        for item in enumerate_graph(g, partition, EnumerationConfig()):
            members = {g.index().verts[p] for p in partition.components[item.scc_index]}
            for c in item.result.circuits:
                assert set(c) <= members


class TestTruncation:
    def test_max_circuits_emits_then_stops(self):
        g = complete_digraph(6)
        res = enumerate_circuits(g, positions(g, g.vertices), EnumerationConfig(max_len=6, max_circuits=4))
        assert len(res.circuits) == 4
        assert res.truncated
        assert res.truncation_reason == "max_circuits"

    def test_time_budget(self):
        g = complete_digraph(11, weight=2)
        cfg = EnumerationConfig(max_len=11, per_scc_time_budget=0.02)
        res = enumerate_circuits(g, positions(g, g.vertices), cfg)
        assert res.truncated
        assert res.truncation_reason == "time_budget"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 40))
    def test_max_circuits_gives_prefix(self, seed, k):
        """A truncated component keeps the first k circuits in search
        order (hub first), listed in lexicographic order."""
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(3, 9), 0.4)
        component = positions(g, g.vertices)
        full = enumerate_circuits(g, component, EnumerationConfig(max_len=6)).circuits
        res = enumerate_circuits(g, component, EnumerationConfig(max_len=6, max_circuits=k))
        assert res.circuits == sorted(res.circuits)
        assert len(res.circuits) == min(k, len(full))
        assert set(res.circuits) <= set(full)
        index = g.index()
        raw, _, _ = _search(index, component_adjacency(g, component), EnumerationConfig(max_len=6))
        first_k = [canonical_rotation(index.verts[i] for i in c) for c in raw[:k]]
        assert res.circuits == sorted(first_k)
        assert res.truncated == (k <= len(full))

    def test_untruncated_result_is_flag_free(self, intro_graph):
        res = enumerate_circuits(intro_graph, positions(intro_graph, "ABC"),
                                 EnumerationConfig(max_circuits=100, per_scc_time_budget=60))
        assert not res.truncated
        assert res.truncation_reason is None


class Count(IntEnum):
    """An int subclass, which circuits.json could not write as max_len."""

    THREE = 3
    EIGHT = 8


def test_config_validation():
    with pytest.raises(ValueError):
        EnumerationConfig(max_len=1)
    with pytest.raises(ValueError):
        EnumerationConfig(max_circuits=0)
    with pytest.raises(ValueError):
        EnumerationConfig(per_scc_time_budget=0)
    # a NaN budget would never fire, and a length, count or budget of the
    # wrong type would crash the search
    for bad in (float("nan"), -1.0, "1", True):
        with pytest.raises(ValueError):
            EnumerationConfig(per_scc_time_budget=bad)
    for bad in (2.5, 8.0, "8", True, Count.EIGHT):
        with pytest.raises(ValueError):
            EnumerationConfig(max_len=bad)
    for bad in (2.5, 3.0, "3", True, Count.THREE):
        with pytest.raises(ValueError):
            EnumerationConfig(max_circuits=bad)


def test_engine_names(tmp_path, intro_graph):
    from netcycle import PipelineConfig, plan_per_scc, run_pipeline
    from netcycle.circuits import resolve_engine

    partition = tarjan(intro_graph)
    for name in (None, "auto", "python"):
        assert resolve_engine(name) == "python"
        assert merge_circuits(enumerate_graph(intro_graph, partition, None, name)) == [("A", "B", "C")]
        assert plan_per_scc(intro_graph, partition, None, None, name)[0].total == 3 * 2_300_000
    for name in ("fast", "Python", ""):
        with pytest.raises(ValueError):
            resolve_engine(name)
        with pytest.raises(ValueError):
            enumerate_graph(intro_graph, partition, None, name)
        with pytest.raises(ValueError):
            plan_per_scc(intro_graph, partition, None, None, name)
        with pytest.raises(ValueError):
            run_pipeline(PipelineConfig(tmp_path / "in.csv", tmp_path / "out", engine=name))


class LoggedList(list):
    """A list that logs every item assignment as (index, value)."""

    def __init__(self, items):
        super().__init__(items)
        self.writes = []

    def __setitem__(self, i, value):
        self.writes.append((i, value))
        super().__setitem__(i, value)


def logged_distances(n):
    """A _Distances whose list logs every write the search makes."""
    distances = _Distances(n)
    distances.dist = LoggedList(distances.dist)
    return distances


def searched_starts(writes, max_len):
    """The starts a search over a logged distance list searched, in order,
    each with its hop distances: {position: hops}. The k-th searched start
    stores b = k * (max_len + 1) for itself first, and b + hops for every
    vertex its BFS reaches."""
    searched = []
    for p, value in writes:
        k, hops = divmod(value, max_len + 1)
        if k == len(searched):
            searched.append((p, {}))
        searched[k][1][p] = hops
    return searched


class TestStartSearch:
    """The start loop, each start's distance bound and its DFS, on small
    graphs: _search over the whole vertex set's predecessor rows, on a
    distance list that logs the starts it searched and their distances."""

    def search(self, edges, max_len=8):
        """_search's raw circuits as ids, truncation reason and expansions,
        and the searched starts as ids, each with its hop distances."""
        g = graph_of([(u, v, 1) for u, v in edges])
        index = g.index()
        distances = logged_distances(len(index.verts))
        pred = component_adjacency(g, positions(g, g.vertices))
        raw, reason, expansions = _search(index, pred, EnumerationConfig(max_len=max_len), distances)
        assert pred == {}  # every start is finished
        assert index == graph_of([(u, v, 1) for u, v in edges]).index()  # the index is untouched
        ids = index.verts
        searched = [(ids[s], {ids[p]: d for p, d in hops.items()})
                    for s, hops in searched_starts(distances.dist.writes, max_len)]
        return [tuple(ids[i] for i in c) for c in raw], reason, expansions, searched

    def test_records_three_cycle(self):
        found, reason, expansions, searched = self.search([("A", "B"), ("B", "C"), ("C", "A")])
        assert (found, reason, expansions) == ([("A", "B", "C")], None, 3)
        # found once: a finished start leaves the rows, so B's row is empty
        # at its turn, and then C's: neither is searched
        assert [s for s, _ in searched] == ["A"]

    def test_dead_path_records_nothing(self):
        found, reason, expansions, searched = self.search([("A", "B"), ("B", "C")])
        assert (found, reason) == ([], None)
        # B, the one start with a predecessor, is searched; C cannot reach
        # B, so the distance bound prunes it unexpanded
        assert searched == [("B", {"B": 0, "A": 1})]
        assert expansions == 1

    def test_ring_beyond_cap_yields_nothing_and_leaves_no_state(self):
        edges = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "A")]
        found, reason, expansions, searched = self.search(edges, max_len=4)
        assert (found, reason) == ([], None)
        assert expansions == 1  # B is 4 hops from A: too far for the cap
        assert searched == [("A", {"A": 0, "E": 1, "D": 2})]
        assert self.search(edges, max_len=5)[:3] == ([("A", "B", "C", "D", "E")], None, 5)

    def test_distances_to(self):
        # E -> D -> C -> B -> A, plus the shortcut D -> A and the edge A -> E;
        # A and D score 2 (2 in x 1 out, 1 in x 2 out), so A goes first
        edges = [("B", "A"), ("C", "B"), ("D", "C"), ("D", "A"), ("E", "D"), ("A", "E")]

        def hops(max_len):
            return self.search(edges, max_len)[3]

        # the BFS runs out of vertices before max_len - 2 hops; once A is
        # done, E's row is empty, so D's BFS stops at E, and once D is done
        # too, B's stops at C
        assert hops(5) == hops(4) == [
            ("A", {"A": 0, "B": 1, "D": 1, "C": 2, "E": 2}),
            ("D", {"D": 0, "E": 1}),
            ("B", {"B": 0, "C": 1}),
        ]
        # max_len - 1 = 2 hops back: E, a successor of A, gets its distance
        # through its own successor D; C, which A does not reach in one
        # hop, gets none. A is D's successor and 2 hops back through E, but
        # finished, so it gets no distance in D's search
        assert hops(3) == [
            ("A", {"A": 0, "B": 1, "D": 1, "E": 2}),
            ("D", {"D": 0, "E": 1}),
            ("B", {"B": 0, "C": 1}),
        ]
        # E -> A is no edge, so at cap 2 no successor of A is 1 hop back
        assert hops(2) == [("A", {"A": 0}), ("D", {"D": 0}), ("B", {"B": 0})]

    def test_hub_is_searched_first(self):
        # H trades both ways with each of A, B, C, which also form a ring:
        # H scores 3 in x 3 out, each of A, B, C 2 x 2
        edges = [(x, "H") for x in "ABC"] + [("H", x) for x in "ABC"] + [("A", "B"), ("B", "C"), ("C", "A")]
        found, reason, _, searched = self.search(edges)
        assert reason is None
        # ties keep position order; once A is done, B's and C's rows are
        # empty at their turns, so neither is searched
        assert [s for s, _ in searched] == ["H", "A"]
        # every circuit through H comes from H's search; the ring is left to A
        assert [r[0] for r in found] == ["H"] * (len(found) - 1) + ["A"]
        assert found[-1] == ("A", "B", "C")
        assert len({canonical_rotation(r) for r in found}) == len(found)
        g = graph_of([(u, v, 1) for u, v in edges])
        res = enumerate_circuits(g, positions(g, g.vertices))
        assert res.circuits == circuits_by_dfs(g, 8)
        assert len(res.circuits) == len(found)
        assert all(c == canonical_rotation(c) for c in res.circuits)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 9), st.integers(2, 9))
    def test_start_with_empty_row_is_not_searched(self, seed, n, max_len):
        """The starts _search searches are those whose row still holds a
        live predecessor at their turn, as the full-ball reference picks
        them."""
        rng = random.Random(seed)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        index = g.index()
        distances = logged_distances(len(index.verts))
        pred = component_adjacency(g, range(len(index.verts)))
        _search(index, pred, EnumerationConfig(max_len=max_len), distances)
        starts = [s for s, _ in searched_starts(distances.dist.writes, max_len)]
        assert starts == full_ball_search(g, max_len)[1]
        assert enumerate_whole(g, EnumerationConfig(max_len=max_len)) == circuits_by_dfs(g, max_len)

    def test_start_whose_only_predecessor_is_done_is_not_searched(self):
        # H -> A -> H and H -> B -> H: H scores 2 x 2 and goes first; then
        # A's and B's only predecessor is done, so their rows are empty
        edges = [("H", "A"), ("A", "H"), ("H", "B"), ("B", "H")]
        found, reason, _, searched = self.search(edges)
        assert reason is None and [s for s, _ in searched] == ["H"]
        assert sorted(found) == [("H", "A"), ("H", "B")]
        g = graph_of([(u, v, 1) for u, v in edges])
        assert enumerate_circuits(g, positions(g, g.vertices)).circuits == circuits_by_dfs(g, 8)

    def test_rows_hold_members_only_at_graph_positions(self):
        # C sits between A and E in the index but is left out of the rows
        g = graph_of([("A", "C", 1), ("C", "E", 1), ("E", "A", 1), ("E", "C", 1)])
        a, c, e = range(3)
        pred = component_adjacency(g, [a, e])
        assert pred == {a: [e], e: []}
        distances = logged_distances(len(g.index().verts))
        # A -> C -> E -> A leaves the subset: C is pruned unexpanded
        assert _search(g.index(), pred, EnumerationConfig(), distances) == ([], None, 1)
        assert searched_starts(distances.dist.writes, 8) == [(a, {a: 0, e: 1})]


def full_ball_search(g, max_len):
    """The capped search over the whole graph, written out with the
    full-depth reverse BFS: every start from the highest in-degree times
    out-degree down, ties by position; a start with no live predecessor is
    not searched; distances to s over the live vertices up to max_len - 1
    hops; successors by ascending position; a finished start leaves the
    graph. Raw circuits in the order met, the searched starts, and the
    number of DFS expansions (vertices pushed on the path, the start
    included)."""
    index = g.index()
    succ = [index.indices[index.indptr[p]:index.indptr[p + 1]] for p in range(len(index.verts))]
    indegree = Counter(w for row in succ for w in row)
    order = sorted(range(len(succ)), key=lambda p: -indegree[p] * len(succ[p]))
    live = set(range(len(succ)))
    out, searched, expansions = [], [], 0
    for s in order:
        if any(s in succ[u] for u in live):
            searched.append(s)
            dist = {s: 0}
            for d in range(1, max_len):
                for u in live:
                    if u not in dist and any(dist.get(v) == d - 1 for v in succ[u]):
                        dist[u] = d

            def extend(path):
                nonlocal expansions
                expansions += 1
                for w in succ[path[-1]]:
                    if w == s:
                        out.append(tuple(path))
                    elif w in dist and len(path) + dist[w] <= max_len and w not in path:
                        extend(path + [w])

            extend([s])
        live.discard(s)
    return out, searched, expansions


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10), st.floats(0.05, 0.4), st.integers(2, 8), st.integers(1, 40))
def test_search_order_matches_full_ball_search(seed, n, p, max_len, k):
    """The one-hop step for s's successors prunes exactly as the full
    ball did: _search meets the same circuits in the same order with the
    same number of expansions, and a max_circuits=k search keeps the first
    k of them."""
    g = random_graph(random.Random(seed), n, p)
    expected, _, expansions = full_ball_search(g, max_len)

    def search(max_circuits):
        pred = component_adjacency(g, range(len(g.index().verts)))
        return _search(g.index(), pred, EnumerationConfig(max_len=max_len, max_circuits=max_circuits))

    assert search(None) == (expected, None, expansions)
    raw, reason, _ = search(k)
    assert raw == expected[:k]
    assert reason == ("max_circuits" if len(expected) >= k else None)


@pytest.mark.parametrize("max_circuits", [None, 3], ids=["complete", "truncated"])
def test_search_leaves_no_cyclic_garbage(max_circuits):
    """Each start vertex's search state is freed by reference counting, so
    a long search does not drive the cyclic collector."""
    g = complete_digraph(6)
    index, pred = g.index(), component_adjacency(g, positions(g, g.vertices))
    cfg = EnumerationConfig(max_len=4, max_circuits=max_circuits)
    (circuits, reason, _), found = cyclic_garbage(lambda: _search(index, pred, cfg))
    assert circuits and reason == ("max_circuits" if max_circuits else None)
    assert found == 0
    result, found = cyclic_garbage(lambda: enumerate_circuits(g, positions(g, g.vertices), cfg))
    assert result.circuits and result.truncated == (max_circuits is not None)
    assert found == 0



def test_enumerate_graph_pauses_the_collector_and_restores_it(monkeypatch):
    """The search runs with the cyclic collector off, and enumerate_graph
    leaves it as it found it: on, off, or on after a failed search."""
    g = complete_digraph(4)
    partition = tarjan(g)
    cfg = EnumerationConfig(max_len=3)
    inner = circuits.enumerate_circuits
    seen = []

    def spy(*args):
        seen.append(gc.isenabled())
        return inner(*args)

    monkeypatch.setattr(circuits, "enumerate_circuits", spy)
    was_enabled = gc.isenabled()
    try:
        gc.enable()
        assert len(merge_circuits(enumerate_graph(g, partition, cfg))) == 14
        assert gc.isenabled() and seen and not any(seen)
        gc.disable()
        enumerate_graph(g, partition, cfg)
        assert not gc.isenabled()
        gc.enable()

        def fail(*args):
            raise RuntimeError("search failed")

        monkeypatch.setattr(circuits, "enumerate_circuits", fail)
        with pytest.raises(RuntimeError):
            enumerate_graph(g, partition, cfg)
        assert gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()


def clustered_graph(rng, sizes, p, cross):
    """One cluster of each size in `sizes`, each a ring with random chords
    and so one nontrivial component, plus random edges from each cluster
    into earlier ones. Tarjan lists components in reverse topological
    order, so a component searched later has successors in components
    searched before it. Ids are shuffled, so the clusters' positions in
    the index interleave."""
    names = [f"v{i:02d}" for i in range(sum(sizes))]
    rng.shuffle(names)
    g = DebtGraph()
    clusters = []
    for size in sizes:
        members, names = names[:size], names[size:]
        for i, u in enumerate(members):
            g.add_obligation(u, members[i - 1], rng.randint(1, 50))
            for v in members:
                if v != u and v != members[i - 1] and rng.random() < p:
                    g.add_obligation(u, v, rng.randint(1, 50))
            for earlier in clusters:
                for v in earlier:
                    if rng.random() < cross:
                        g.add_obligation(u, v, rng.randint(1, 50))
        clusters.append(members)
    return g


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10_000), st.lists(st.integers(2, 6), min_size=2, max_size=4),
    st.floats(0.1, 0.6), st.integers(2, 7), st.one_of(st.none(), st.integers(1, 8)),
)
def test_shared_distances_match_a_fresh_search_per_component(seed, sizes, p, max_len, max_circuits):
    """enumerate_graph searches every component on one distance list,
    where slots left by earlier components and by truncated searches stay
    in place. Each component still gets what a search of it alone, on a
    list of its own, gives: the same circuits in the same search order,
    truncation and number of DFS expansions, and the same starts, each
    with the same distances, so no search reads a slot another one left.
    Untruncated, that is every circuit within the cap."""
    g = clustered_graph(random.Random(seed), sizes, p, 0.3)
    partition = tarjan(g)
    cfg = EnumerationConfig(max_len=max_len, max_circuits=max_circuits)
    searches, lists = [], []
    inner = circuits._search

    def spy(*args):
        searches.append(inner(*args))
        return searches[-1]

    def logged(n):
        lists.append(logged_distances(n))
        return lists[-1]

    with mock.patch.object(circuits, "_search", spy), mock.patch.object(circuits, "_Distances", logged):
        shared = enumerate_graph(g, partition, cfg)
        assert len(lists) == 1
        shared_starts = searched_starts(lists.pop().dist.writes, max_len)
        shared_searches = searches[:]
        del searches[:]
        fresh = [enumerate_circuits(g, comp, cfg) for comp in nontrivial_components(partition)]
    assert len(fresh) == len(sizes) == len(lists)
    assert [item.result for item in shared] == fresh
    assert shared_searches == searches
    assert shared_starts == [start for each in lists for start in searched_starts(each.dist.writes, max_len)]
    if not any(res.truncated for res in fresh):
        assert merge_circuits(shared) == circuits_by_dfs(g, max_len, OracleBudget(max_vertices=24))
