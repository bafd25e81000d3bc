from __future__ import annotations

import heapq
import os
import random
import threading
import time
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcycle import (
    EnumerationConfig,
    ExactSearchRefused,
    OptimizerConfig,
    PlanStep,
    SettlementPlan,
    StalePlanError,
    circuit_value,
    enumerate_graph,
    merge_circuits,
    optimize_order,
    plan_for_order,
    plan_per_scc,
    replay,
    settle,
    tarjan,
)
from netcycle import settlement
from netcycle.oracle import best_order_by_permutation
from netcycle.ledger import Circuit
from netcycle.settlement import EXACT_HARD_CAP, _slots

from conftest import (
    ABCD,
    ABDEF,
    BCGH,
    OVERLAP_CIRCUITS,
    complete_digraph,
    cyclic_garbage,
    graph_of,
    one_row_per_company,
    random_graph,
)


# References: the settlement loops written against DebtGraph itself, which
# the slot-table paths must match step for step.

def reference_greedy(g, circuits):
    scratch = g.copy()
    heap = [(-circuit_value(scratch, c) * len(c), c) for c in sorted(circuits)]
    heapq.heapify(heap)
    steps, skipped, total = [], [], 0
    while heap:
        neg_amount, c = heapq.heappop(heap)
        x = circuit_value(scratch, c)
        if x == 0:
            skipped.append(c)
            continue
        amount = x * len(c)
        if amount != -neg_amount:
            heapq.heappush(heap, (-amount, c))
            continue
        settle(scratch, c)
        steps.append(PlanStep(c, x, amount))
        total += amount
    return steps, total, sorted(skipped)


# The exact search as it stood before its transitions were made cheaper:
# it settles on one shared weight list and copies each state out of it.
# The current search must return the same plan, tie-breaks included.
def reference_exact_order(
    w: list[int], edges: list[tuple[int, ...]], order: list[Circuit]
) -> tuple[list[PlanStep], int, list[Circuit]]:
    """Best settlement order by a memoized search for the best suffix from
    each settlement state.

    Circuits are taken in sorted order and hold indices into one flat list
    `w` of current edge weights. Weights only decrease, so a circuit worth
    zero stays at zero: `w` alone fixes which circuits are still live, and
    the best way to finish from `w` does not depend on the order that
    reached it. Orders that interleave circuits sharing no edge therefore
    meet in one cached state instead of being searched again. Settling a
    circuit drops every live circuit through an edge it empties.

    The best suffix has the highest total; ties go to the highest sorted
    step amounts. Remaining ties go to the smallest step sequence, which is
    the first candidate because live circuits are tried in ascending order.
    Both keys compose with a fixed prefix, so the best suffix from every
    state yields the best order overall.
    """
    users = [0] * len(w)  # per slot: bitmask of the circuits through it
    for i, ids in enumerate(edges):
        for e in ids:
            users[e] |= 1 << i
    k = [len(c) for c in order]
    # state -> (total, sorted amounts, ((circuit index, per_edge), ...))
    memo: dict[tuple[int, ...], tuple[int, tuple[int, ...], tuple]] = {}

    def best(live: list[int]) -> tuple[int, tuple[int, ...], tuple]:
        found = (0, (), ())
        for i in live:
            ids = edges[i]
            x = min([w[e] for e in ids])
            dead = 0
            for e in ids:
                w[e] -= x
                if not w[e]:
                    dead |= users[e]
            state = tuple(w)
            suffix = memo.get(state)
            if suffix is None:
                suffix = memo[state] = best([j for j in live if not dead >> j & 1])
            for e in ids:
                w[e] += x
            total, amounts, steps = suffix
            amount = x * k[i]
            total += amount
            amounts = tuple(sorted((amount,) + amounts))
            if total > found[0] or (total == found[0] and amounts > found[1]):
                found = (total, amounts, ((i, x),) + steps)
        return found

    try:
        total, _, sequence = best([i for i in range(len(order)) if all([w[e] for e in edges[i]])])
    finally:
        # best's closure holds best itself; unbinding it breaks that
        # reference cycle, so the memo is freed at once instead of waiting
        # for the cyclic collector.
        del best
    steps = [PlanStep(order[i], x, x * k[i]) for i, x in sequence]
    taken = {i for i, _ in sequence}
    skipped = [c for i, c in enumerate(order) if i not in taken]
    return steps, total, skipped


def reference_plan_for_order(g, circuits):
    scratch = g.copy()
    steps, skipped, total = [], [], 0
    for c in circuits:
        x = circuit_value(scratch, c)
        if x == 0:
            skipped.append(c)
            continue
        settle(scratch, c)
        steps.append(PlanStep(c, x, x * len(c)))
        total += x * len(c)
    return steps, total, skipped


def reference_plan_per_scc(g, per_component, cfg):
    """plan_per_scc's serial loop: one component at a time, in component
    index order."""
    plans = []
    for item in sorted(per_component, key=lambda item: item.scc_index):
        plan = optimize_order(g, item.result.circuits, cfg)
        plan.scc_index = item.scc_index
        plan.truncated = item.result.truncated
        plan.truncation_reason = item.result.truncation_reason
        plans.append(plan)
    return plans


def reference_replay(g, plan):
    """The replayed copy of g, or the index of the first stale step."""
    scratch = g.copy()
    for idx, step in enumerate(plan.steps):
        if circuit_value(scratch, step.circuit) != step.per_edge:
            return idx
        settle(scratch, step.circuit)
    return scratch


# A circuit through A->B and B->A twice: settling it would take its amount
# from each edge twice.
TWICE = ("A", "B", "A", "B")


class TestExactOptimizer:
    def test_overlap_golden_order(self, overlap_graph):
        plan = optimize_order(overlap_graph, OVERLAP_CIRCUITS, OptimizerConfig(mode="exact"))
        assert plan.total == 29_000
        assert [s.circuit for s in plan.steps] == [ABDEF, BCGH, ABCD]
        assert [s.amount for s in plan.steps] == [1_000, 1_200, 26_800]
        assert plan.skipped == []

    def test_forced_pair_order(self, overlap_graph):
        plan = plan_for_order(overlap_graph, [ABDEF, ABCD])
        assert plan.total == 28_200
        assert [s.amount for s in plan.steps] == [1_000, 27_200]

    def test_forced_big_ring_first(self, overlap_graph):
        plan = plan_for_order(overlap_graph, [ABCD, ABDEF, BCGH])
        assert plan.total == 28_000
        assert plan.skipped == [ABDEF, BCGH]

    def test_single_circuit(self, intro_graph):
        plan = optimize_order(intro_graph, [("A", "B", "C")], OptimizerConfig(mode="exact"))
        assert plan.total == 3 * 2_300_000
        assert len(plan.steps) == 1

    def test_no_circuits(self, intro_graph):
        plan = optimize_order(intro_graph, [], OptimizerConfig(mode="exact"))
        assert plan.total == 0
        assert plan.steps == [] and plan.skipped == []

    def test_input_order_invariance(self, overlap_graph):
        rng = random.Random(4)
        reference = optimize_order(overlap_graph, OVERLAP_CIRCUITS, OptimizerConfig(mode="exact"))
        for _ in range(6):
            circuits = list(OVERLAP_CIRCUITS)
            rng.shuffle(circuits)
            plan = optimize_order(overlap_graph, circuits, OptimizerConfig(mode="exact"))
            assert plan.total == reference.total
            assert [s.circuit for s in plan.steps] == [s.circuit for s in reference.steps]

    def test_input_graph_untouched(self, overlap_graph):
        before = dict(overlap_graph.edges())
        optimize_order(overlap_graph, OVERLAP_CIRCUITS, OptimizerConfig(mode="exact"))
        assert dict(overlap_graph.edges()) == before

    def test_memo_is_freed_without_the_cyclic_collector(self, overlap_graph):
        plan, found = cyclic_garbage(
            lambda: optimize_order(overlap_graph, OVERLAP_CIRCUITS, OptimizerConfig(mode="exact"))
        )
        assert plan.mode == "exact" and plan.total == 29_000
        assert found == 0

    def test_hard_cap_refusal(self):
        g = complete_digraph(4)
        circuits = merge_circuits(enumerate_graph(g, tarjan(g), EnumerationConfig()))
        assert len(circuits) > EXACT_HARD_CAP == 12
        with pytest.raises(ExactSearchRefused, match="greedy"):
            optimize_order(g, circuits[:13], OptimizerConfig(mode="exact"))

    @pytest.mark.parametrize("threshold", [EXACT_HARD_CAP + 1, 40])
    def test_threshold_outside_one_to_cap_is_rejected(self, threshold):
        with pytest.raises(ValueError, match="exact_threshold"):
            OptimizerConfig(exact_threshold=threshold)

    def test_matches_permutation_oracle(self):
        rng = random.Random(2023)
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 8), 0.5, max_weight=30)
            circuits = merge_circuits(enumerate_graph(g, tarjan(g), EnumerationConfig()))
            if not circuits:
                continue
            circuits = circuits[: rng.randint(1, min(6, len(circuits)))]
            exact = optimize_order(g, circuits, OptimizerConfig(mode="exact"))
            oracle = best_order_by_permutation(g, circuits)
            assert exact.total == oracle.total

    def test_whole_plan_matches_tie_break_oracle(self):
        # weights 1-3 make equal-total orders common, so the tie-break decides
        rng = random.Random(77)
        checked = 0
        for _ in range(100):
            g = random_graph(rng, rng.randint(3, 5), 0.9, max_weight=3)
            circuits = merge_circuits(enumerate_graph(g, tarjan(g), EnumerationConfig()))
            if not circuits:
                continue
            circuits = rng.sample(circuits, rng.randint(1, min(7, len(circuits))))
            exact = optimize_order(g, circuits, OptimizerConfig(mode="exact"))
            oracle = best_order_by_permutation(g, circuits, tie_break="balanced")
            assert exact.steps == oracle.steps
            assert exact.skipped == sorted(oracle.skipped)
            assert exact.total == oracle.total
            checked += 1
        assert checked >= 90

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([3, 10**9]), st.data())
    def test_matches_the_reference_search(self, top, data):
        # Weights 1-3 force equal totals, so the tie-breaks decide; up to
        # EXACT_HARD_CAP circuits is past the permutation oracle's reach.
        pairs = [(u, v) for u in "ABCDE" for v in "ABCDE" if u != v]
        edges = data.draw(st.dictionaries(st.sampled_from(pairs), st.integers(1, top), min_size=11))
        g = graph_of([(u, v, w) for (u, v), w in edges.items()])
        circuits = merge_circuits(enumerate_graph(g, tarjan(g), EnumerationConfig()))
        if circuits:
            circuits = data.draw(st.permutations(circuits))[: data.draw(st.integers(1, EXACT_HARD_CAP))]
        plan = optimize_order(g, circuits, OptimizerConfig(mode="exact"))
        order = sorted(circuits)
        assert (plan.steps, plan.total, plan.skipped) == reference_exact_order(*_slots(g, order), order)


class TestGreedyOptimizer:
    def test_overlap_instance_takes_big_ring(self, overlap_graph):
        plan = optimize_order(overlap_graph, OVERLAP_CIRCUITS, OptimizerConfig(mode="greedy"))
        assert plan.total == 28_000
        assert [s.circuit for s in plan.steps] == [ABCD]
        assert sorted(plan.skipped) == sorted([ABDEF, BCGH])

    def test_never_beats_exact(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 8), 0.5)
            circuits = merge_circuits(enumerate_graph(g, tarjan(g), EnumerationConfig()))[:6]
            if not circuits:
                continue
            greedy = optimize_order(g, circuits, OptimizerConfig(mode="greedy"))
            exact = optimize_order(g, circuits, OptimizerConfig(mode="exact"))
            assert greedy.total <= exact.total

    def test_auto_switches_on_threshold(self, overlap_graph):
        small = optimize_order(overlap_graph, OVERLAP_CIRCUITS,
                               OptimizerConfig(mode="auto", exact_threshold=3))
        assert small.mode == "exact"
        big = optimize_order(overlap_graph, OVERLAP_CIRCUITS,
                             OptimizerConfig(mode="auto", exact_threshold=2))
        assert big.mode == "greedy"


@pytest.mark.parametrize("bad, reason", [(TWICE, "uses an edge twice"), ((), "is empty")])
class TestBadCircuit:
    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    def test_optimizer_rejects_it(self, mode, bad, reason):
        g = graph_of([("A", "B", 5), ("B", "A", 5)])
        with pytest.raises(ValueError, match=reason):
            optimize_order(g, [("A", "B"), bad], OptimizerConfig(mode=mode))
        assert dict(g.edges()) == {("A", "B"): 5, ("B", "A"): 5}

    def test_forced_order_rejects_it(self, bad, reason):
        g = graph_of([("A", "B", 5), ("B", "A", 5)])
        with pytest.raises(ValueError, match=reason):
            plan_for_order(g, [bad])

    def test_replay_names_the_step_and_leaves_the_graph(self, bad, reason):
        g = graph_of([("A", "B", 5), ("B", "A", 5)])
        plan = SettlementPlan([PlanStep(("A", "B"), 2, 4), PlanStep(bad, 3, 12)], 16, [], "forced")
        with pytest.raises(StalePlanError, match=reason) as err:
            replay(g, plan)
        assert err.value.step_index == 1
        assert dict(g.edges()) == {("A", "B"): 5, ("B", "A"): 5}


class TestReplay:
    def test_reproduces_recorded_amounts(self, overlap_graph):
        plan = optimize_order(overlap_graph, OVERLAP_CIRCUITS, OptimizerConfig(mode="exact"))
        fresh = overlap_graph.copy()
        replay(fresh, plan)
        assert fresh.weight("A", "B") == 7_000 - 200 - 6_700
        assert overlap_graph.total_weight() - fresh.total_weight() == plan.total

    def test_empty_plan_is_identity(self, intro_graph):
        plan = optimize_order(intro_graph, [], OptimizerConfig())
        before = dict(intro_graph.edges())
        replay(intro_graph, plan)
        assert dict(intro_graph.edges()) == before

    def test_second_replay_is_stale(self, overlap_graph):
        plan = optimize_order(overlap_graph, OVERLAP_CIRCUITS, OptimizerConfig(mode="exact"))
        replay(overlap_graph, plan)
        state = dict(overlap_graph.edges())
        with pytest.raises(StalePlanError) as err:
            replay(overlap_graph, plan)
        assert err.value.step_index == 0
        assert dict(overlap_graph.edges()) == state  # rolled back

    def test_mismatch_names_step_and_rolls_back(self, overlap_graph):
        plan = optimize_order(overlap_graph, OVERLAP_CIRCUITS, OptimizerConfig(mode="exact"))
        overlap_graph.add_obligation("X", "B", 1)  # unrelated edge survives rollback
        tampered = overlap_graph.copy()
        from netcycle import settle

        settle(tampered, BCGH)  # consume part of what step 2 expects
        before = dict(tampered.edges())
        with pytest.raises(StalePlanError) as err:
            replay(tampered, plan)
        assert err.value.step_index == 1
        assert dict(tampered.edges()) == before

    def test_zero_amount_step_is_stale_and_leaves_the_graph(self):
        g = graph_of([("A", "B", 5), ("B", "A", 5), ("B", "C", 3), ("C", "D", 3)])
        before = dict(g.edges())
        plan = SettlementPlan(
            [PlanStep(("A", "B"), 5, 10), PlanStep(("B", "C", "D"), 0, 0)], 10, [], "forced"
        )
        with pytest.raises(StalePlanError, match="not positive") as err:
            replay(g, plan)
        assert err.value.step_index == 1
        assert dict(g.edges()) == before

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("ABCDE"), st.sampled_from("ABCDE"), st.integers(1, 9)),
            max_size=14,
        ),
        st.sampled_from(["exact", "greedy", "auto"]),
    )
    def test_replay_lowers_total_weight_by_plan_total(self, edges, mode):
        g = graph_of([(u, v, w) for u, v, w in edges if u != v])
        circuits = merge_circuits(enumerate_graph(g, tarjan(g), EnumerationConfig()))[:10]
        # threshold 5 sends auto down both branches
        plan = optimize_order(g, circuits, OptimizerConfig(mode=mode, exact_threshold=5))
        fresh = g.copy()
        replay(fresh, plan)
        assert g.total_weight() - fresh.total_weight() == plan.total
        assert fresh.vertices == g.vertices and one_row_per_company(fresh)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("ABCDEF"), st.sampled_from("ABCDEF"), st.integers(1, 9)),
        min_size=6, max_size=24,
    ),
    st.randoms(use_true_random=False),
    st.sampled_from(["swap", "amount", "edge", "none"]),
    st.sampled_from([-1, 1]),
)
def test_slot_paths_match_the_graph_references(edges, rnd, change, delta):
    g = graph_of([(u, v, w) for u, v, w in edges if u != v])
    before = dict(g.edges())
    circuits = merge_circuits(enumerate_graph(g, tarjan(g), EnumerationConfig()))

    greedy = optimize_order(g, circuits, OptimizerConfig(mode="greedy"))
    assert (greedy.steps, greedy.total, greedy.skipped) == reference_greedy(g, circuits)
    order = rnd.sample(circuits, len(circuits))
    forced = plan_for_order(g, order)
    assert (forced.steps, forced.total, forced.skipped) == reference_plan_for_order(g, order)
    assert dict(g.edges()) == before

    # Replay a plan that may have gone stale: steps reordered, one amount
    # off by one, or one edge of the graph off by one since the plan was made.
    steps = list(forced.steps)
    tampered = g.copy()
    if steps:
        i = rnd.randrange(len(steps))
        if change == "swap":
            j = rnd.randrange(len(steps))
            steps[i], steps[j] = steps[j], steps[i]
        elif change == "amount":
            steps[i] = PlanStep(steps[i].circuit, steps[i].per_edge + delta, steps[i].amount)
        elif change == "edge":
            edge = steps[i].circuit[:2]
            tampered = graph_of([(u, v, w + delta * ((u, v) == edge)) for (u, v), w in g.edges()
                                 if w + delta * ((u, v) == edge)])
    plan = SettlementPlan(steps, sum(s.amount for s in steps), [], "forced")
    expected = reference_replay(tampered, plan)
    state = dict(tampered.edges())
    if isinstance(expected, int):
        with pytest.raises(StalePlanError) as err:
            replay(tampered, plan)
        assert err.value.step_index == expected
        assert dict(tampered.edges()) == state
    else:
        assert replay(tampered, plan) == expected


class TestPlanPerScc:
    def test_disjoint_cycles(self):
        g = graph_of([
            ("A", "B", 10), ("B", "C", 10), ("C", "A", 10),
            ("X", "Y", 20), ("Y", "Z", 20), ("Z", "X", 20),
        ])
        plans = plan_per_scc(g, tarjan(g))
        assert sorted(p.total for p in plans) == [30, 60]
        assert all(p.mode == "exact" for p in plans)

    def test_acyclic_graph_has_no_plans(self):
        g = graph_of([("A", "B", 1), ("B", "C", 1)])
        assert plan_per_scc(g, tarjan(g)) == []

    def test_overlap_instance_single_plan(self, overlap_graph):
        plans = plan_per_scc(g=overlap_graph, partition=tarjan(overlap_graph))
        assert len(plans) == 1
        assert plans[0].total == 29_000
        assert plans[0].scc_index == 0

    def test_totals_sum_across_components(self):
        rng = random.Random(11)
        g = random_graph(rng, 25, 0.12)
        plans = plan_per_scc(g, tarjan(g))
        fresh = g.copy()
        for plan in plans:
            replay(fresh, plan)
        assert g.total_weight() - fresh.total_weight() == sum(p.total for p in plans)

    def test_non_conflicting_plans_commute(self):
        g = graph_of([
            ("A", "B", 10), ("B", "C", 10), ("C", "A", 10),
            ("X", "Y", 20), ("Y", "Z", 20), ("Z", "X", 20),
        ])
        plans = plan_per_scc(g, tarjan(g))
        forward = g.copy()
        for plan in plans:
            replay(forward, plan)
        backward = g.copy()
        for plan in reversed(plans):
            replay(backward, plan)
        assert forward == backward


def test_plan_serialization(overlap_graph):
    plan = optimize_order(overlap_graph, OVERLAP_CIRCUITS, OptimizerConfig(mode="exact"))
    plan.scc_index = 0
    payload = plan.to_dict()
    assert payload["total"] == 29_000
    assert payload["steps"][0]["circuit"] == list(ABDEF)
    assert list(payload) == [
        "scc_index", "mode", "steps", "total", "skipped", "truncated", "truncation_reason",
    ]


def clusters(*shapes: str):
    """Disjoint clusters, one per shape: "ring" a 3-company circuit, "k4"
    and "k5" complete digraphs (20 and 84 circuits). The k-th cluster's ids
    start with chr(97 + k), so the components come in the order given."""
    edges = []
    for k, shape in enumerate(shapes):
        names = [f"{chr(97 + k)}{i}" for i in range({"ring": 3, "k4": 4, "k5": 5}[shape])]
        if shape == "ring":
            pairs = list(zip(names, names[1:] + names[:1]))
        else:
            pairs = [(u, v) for u in names for v in names if u != v]
        edges += [(u, v, 10 + 7 * i) for i, (u, v) in enumerate(pairs)]
    return graph_of(edges)


@st.composite
def clustered_graphs(draw):
    """Two to six disjoint clusters of two to five companies, each held
    together by a ring and given random chords. Each cluster's weights go
    up to 3, which makes equal-total orders common, or up to 10**9."""
    edges = []
    for k in range(draw(st.integers(2, 6))):
        names = [f"{k}{c}" for c in "ABCDE"[: draw(st.integers(2, 5))]]
        pairs = [(u, v) for u in names for v in names if u != v]
        chosen = set(zip(names, names[1:] + names[:1])) | draw(st.sets(st.sampled_from(pairs)))
        top = draw(st.sampled_from([3, 10**9]))
        edges += [(u, v, draw(st.integers(1, top))) for u, v in sorted(chosen)]
    return graph_of(edges)


def refused_or_plans(call):
    try:
        return call()
    except ExactSearchRefused as err:
        return str(err)


class TestPlanningHelper:
    """plan_per_scc with a forked helper planning every other component."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @settings(max_examples=80, deadline=None)
    @given(
        clustered_graphs(),
        st.sampled_from(["auto", "exact", "greedy"]),
        st.integers(1, EXACT_HARD_CAP),
        st.one_of(st.none(), st.integers(1, 6)),
    )
    def test_helper_plans_equal_the_serial_loop(self, g, mode, threshold, max_circuits):
        cfg = OptimizerConfig(mode, threshold)
        per_component = enumerate_graph(g, tarjan(g), EnumerationConfig(max_circuits=max_circuits))
        expected = refused_or_plans(lambda: reference_plan_per_scc(g, per_component, cfg))
        with mock.patch.object(os, "fork", wraps=os.fork) as fork, \
                mock.patch.object(settlement, "optimize_order", wraps=optimize_order) as own:
            got = refused_or_plans(lambda: plan_per_scc(g, tarjan(g), None, cfg, per_component=per_component))
        assert got == expected
        # The hosts this suite runs on have two or more CPUs.
        assert fork.call_count == 1
        if not isinstance(expected, str):
            # this process planned only its own half: the odd positions
            assert own.call_count == len(per_component) // 2

    def test_one_component_is_planned_without_a_fork(self, overlap_graph):
        expected = reference_plan_per_scc(
            overlap_graph, enumerate_graph(overlap_graph, tarjan(overlap_graph)), OptimizerConfig()
        )
        with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            assert plan_per_scc(overlap_graph, tarjan(overlap_graph)) == expected

    def test_a_second_thread_keeps_planning_serial(self):
        g = clusters("ring", "k4", "ring", "k4")
        expected = reference_plan_per_scc(g, enumerate_graph(g, tarjan(g)), OptimizerConfig())
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
                plans = plan_per_scc(g, tarjan(g))
        finally:
            release.set()
            waiter.join()
        assert plans == expected

    @pytest.mark.parametrize("death", ["exit", "interrupt", "system-exit", "error", "orphaned"])
    def test_a_helper_that_dies_gives_the_serial_plans(self, death):
        # The helper takes the even positions: a ring, the k4 and a ring.
        # "error" fails its second component, so the first comes back and
        # the rest are planned again here.
        g = clusters("ring", "k5", "k4", "ring", "ring")
        per_component = enumerate_graph(g, tarjan(g))
        expected = reference_plan_per_scc(g, per_component, OptimizerConfig())
        parent, real, calls = os.getpid(), settlement._ordered, []

        def dying(*args):
            if os.getpid() != parent:
                calls.append(args)
                if len(calls) == 2:
                    if death == "exit":
                        os._exit(3)
                    if death == "interrupt":
                        raise KeyboardInterrupt
                    if death == "system-exit":
                        raise SystemExit(0)
                    if death == "error":
                        raise RuntimeError("planning failed")
            return real(*args)

        orphaned = mock.patch.object(os, "getppid", return_value=0) if death == "orphaned" else nullcontext()
        with mock.patch.object(settlement, "_ordered", dying), orphaned, \
                mock.patch.object(os, "fork", wraps=os.fork) as fork, \
                mock.patch.object(settlement, "optimize_order", wraps=optimize_order) as own:
            plans = plan_per_scc(g, tarjan(g), per_component=per_component)
        assert plans == expected
        assert fork.call_count == 1
        # Its own two, then the helper's three again, or two after "error".
        assert own.call_count == (4 if death == "error" else 5)

    @pytest.mark.parametrize("shapes, count", [
        (("ring", "k5", "k4", "ring"), 84),  # the lower one in this process's half
        (("ring", "ring", "k4", "k5"), 20),  # the lower one in the helper's half
    ], ids=["own-half-first", "helper-half-first"])
    def test_exact_refusal_is_the_serial_one(self, shapes, count):
        g = clusters(*shapes)
        per_component = enumerate_graph(g, tarjan(g))
        cfg = OptimizerConfig(mode="exact")
        with pytest.raises(ExactSearchRefused) as serial:
            reference_plan_per_scc(g, per_component, cfg)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork, pytest.raises(ExactSearchRefused) as split:
            plan_per_scc(g, tarjan(g), opt_cfg=cfg, per_component=per_component)
        assert str(split.value) == str(serial.value)
        assert str(serial.value) == f"{count} circuits exceeds the exact-mode cap of 12; use greedy mode"
        assert fork.call_count == 1

    def test_an_interrupt_kills_and_reaps_the_helper(self):
        g = clusters("ring", "ring", "ring")
        parent, real = os.getpid(), settlement._ordered

        def stalled(*args):
            if os.getpid() != parent:
                time.sleep(60)
            return real(*args)

        with mock.patch.object(settlement, "_ordered", stalled), \
                mock.patch.object(settlement, "optimize_order", side_effect=KeyboardInterrupt):
            started = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                plan_per_scc(g, tarjan(g))
        assert time.monotonic() - started < 30
