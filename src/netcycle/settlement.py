"""Settlement ordering: pick the circuit order that nets the most.

A plan settles circuits one by one against live edge weights; a circuit
worth zero at its turn is skipped and recorded. The exact mode finds the
best order by a memoized search for the best suffix from each settlement
state (the remaining edge weights); the greedy mode takes the largest
immediate gain each step. Totals count the per-edge settled amount times
the circuit length.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .circuits import ComponentCircuits, EnumerationConfig, enumerate_graph, resolve_engine
from .ledger import (
    Circuit,
    CompanyId,
    DebtGraph,
    circuit_edges,
    circuit_value,
    settle,
)
from .scc import SccPartition


class StalePlanError(RuntimeError):
    """A recorded step no longer matches the graph. `step_index` names it."""

    def __init__(self, step_index: int, expected: int, actual: int):
        super().__init__(
            f"step {step_index}: recorded per-edge amount {expected} "
            f"but the circuit is now worth {actual}"
        )
        self.step_index = step_index


class ExactSearchRefused(RuntimeError):
    """Exact mode was asked to search more circuits than the hard cap."""


@dataclass
class OptimizerConfig:
    """mode: exact, greedy, or auto (exact up to exact_threshold circuits).
    Exact mode refuses outright above exact_hard_cap. tie_break picks among
    equal-total plans: 'balanced' prefers value spread across steps, then
    the smallest circuit sequence; 'canonical' takes the smallest circuit
    sequence."""

    mode: str = "auto"
    exact_threshold: int = 10
    exact_hard_cap: int = 12
    tie_break: str = "balanced"

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "greedy", "auto"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.exact_threshold < 1:
            raise ValueError("exact_threshold must be >= 1")
        if self.tie_break not in ("balanced", "canonical"):
            raise ValueError(f"unknown tie_break {self.tie_break!r}")


@dataclass(frozen=True)
class PlanStep:
    circuit: Circuit
    per_edge: int
    amount: int


@dataclass
class SettlementPlan:
    steps: list[PlanStep]
    total: int
    skipped: list[Circuit]
    mode: str
    scc_index: int | None = None
    truncated: bool = False
    truncation_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "scc_index": self.scc_index,
            "mode": self.mode,
            "steps": [
                {"circuit": list(s.circuit), "per_edge": s.per_edge, "amount": s.amount}
                for s in self.steps
            ],
            "total": self.total,
            "skipped": [list(c) for c in self.skipped],
            "truncated": self.truncated,
            "truncation_reason": self.truncation_reason,
        }


def _exact_order(
    g: DebtGraph, circuits: list[Circuit], cfg: OptimizerConfig
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

    The best suffix has the highest total; under 'balanced' ties go to the
    highest sorted step amounts. Remaining ties go to the smallest step
    sequence, which is the first candidate because live circuits are tried
    in ascending order. Both keys compose with a fixed prefix, so the best
    suffix from every state yields the best order overall.
    """
    order = sorted(circuits)
    slot: dict[tuple[CompanyId, CompanyId], int] = {}
    w: list[int] = []
    users: list[int] = []  # per edge: bitmask of the circuits through it
    edges: list[tuple[int, ...]] = []
    for i, c in enumerate(order):
        for e in circuit_edges(c):
            if e not in slot:
                slot[e] = len(w)
                w.append(g.weight(*e))
                users.append(0)
            users[slot[e]] |= 1 << i
        edges.append(tuple(slot[e] for e in circuit_edges(c)))
    k = [len(c) for c in order]
    balanced = cfg.tie_break == "balanced"
    # state -> (total, sorted amounts if balanced, ((circuit index, per_edge), ...))
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
            if balanced:
                amounts = tuple(sorted((amount,) + amounts))
            if total > found[0] or (balanced and total == found[0] and amounts > found[1]):
                found = (total, amounts, ((i, x),) + steps)
        return found

    total, _, sequence = best([i for i in range(len(order)) if all([w[e] for e in edges[i]])])
    steps = [PlanStep(order[i], x, x * k[i]) for i, x in sequence]
    taken = {i for i, _ in sequence}
    skipped = [c for i, c in enumerate(order) if i not in taken]
    return steps, total, skipped


def _greedy_order(
    g: DebtGraph, circuits: list[Circuit]
) -> tuple[list[PlanStep], int, list[Circuit]]:
    """Settle the largest current gain first. A lazy heap works because a
    circuit's value never increases as others settle: a fresh top entry is
    the true maximum. Ties fall to the smaller canonical circuit."""
    order = sorted(circuits)
    heap = []
    for c in order:
        x = circuit_value(g, c)
        heap.append((-x * len(c), c))
    heapq.heapify(heap)
    steps: list[PlanStep] = []
    skipped: list[Circuit] = []
    total = 0
    while heap:
        neg_amount, c = heapq.heappop(heap)
        x = circuit_value(g, c)
        if x == 0:
            skipped.append(c)
            continue
        amount = x * len(c)
        if amount != -neg_amount:
            heapq.heappush(heap, (-amount, c))
            continue
        settle(g, c)
        steps.append(PlanStep(c, x, amount))
        total += amount
    skipped.sort()
    return steps, total, skipped


def optimize_order(
    g: DebtGraph,
    circuits: Iterable[Circuit],
    cfg: OptimizerConfig | None = None,
) -> SettlementPlan:
    """Best settlement order for `circuits` against the weights of g.

    The input graph is never mutated: exact mode only reads g's weights,
    and greedy settles on a scratch graph of the circuits' own edges.
    Exact mode maximizes the replay total over all orders; greedy
    maximizes each immediate step; auto picks exact for small circuit sets
    and greedy beyond cfg.exact_threshold.
    """
    cfg = cfg or OptimizerConfig()
    circuits = list(circuits)
    mode = cfg.mode
    if mode == "auto":
        mode = "exact" if len(circuits) <= cfg.exact_threshold else "greedy"
    if mode == "exact" and len(circuits) > cfg.exact_hard_cap:
        raise ExactSearchRefused(
            f"{len(circuits)} circuits exceeds the exact-mode cap of "
            f"{cfg.exact_hard_cap}; use greedy mode"
        )
    if mode == "exact":
        steps, total, skipped = _exact_order(g, circuits, cfg)
    else:
        # Only the circuits' own edges matter to greedy; a scratch graph of
        # just those edges keeps per-component cost independent of |E|.
        scratch = DebtGraph()
        for c in circuits:
            for u, v in circuit_edges(c):
                if scratch.weight(u, v) == 0:
                    w = g.weight(u, v)
                    if w > 0:
                        scratch.add_obligation(u, v, w)
        steps, total, skipped = _greedy_order(scratch, circuits)
    return SettlementPlan(steps=steps, total=total, skipped=skipped, mode=mode)


def plan_for_order(g: DebtGraph, circuits: Iterable[Circuit]) -> SettlementPlan:
    """Plan obtained by settling `circuits` in exactly the given order on a
    scratch copy, skipping any that are worth zero at their turn."""
    scratch = g.copy()
    steps: list[PlanStep] = []
    skipped: list[Circuit] = []
    total = 0
    for c in circuits:
        x = circuit_value(scratch, c)
        if x == 0:
            skipped.append(c)
            continue
        settle(scratch, c)
        steps.append(PlanStep(c, x, x * len(c)))
        total += x * len(c)
    return SettlementPlan(steps=steps, total=total, skipped=skipped, mode="forced")


def replay(g: DebtGraph, plan: SettlementPlan) -> DebtGraph:
    """Apply a plan to the live graph, verifying every recorded amount.

    On any mismatch the graph is restored to its input state and a
    StalePlanError names the failing step.
    """
    snapshot = g.copy()
    for idx, step in enumerate(plan.steps):
        actual = circuit_value(g, step.circuit)
        if actual != step.per_edge:
            g.replace_with(snapshot)
            raise StalePlanError(idx, step.per_edge, actual)
        settle(g, step.circuit)
    return g


def plan_per_scc(
    g: DebtGraph,
    partition: SccPartition,
    enum_cfg: EnumerationConfig | None = None,
    opt_cfg: OptimizerConfig | None = None,
    engine: str | None = None,
    parallelism: int = 1,
    per_component: list[ComponentCircuits] | None = None,
) -> list[SettlementPlan]:
    """One plan per nontrivial component, in component index order.

    Components share no edges, so plans commute and the grand total is the
    sum of plan totals. Pre-enumerated circuits may be passed to avoid
    re-running enumeration; truncation flags carry into the plans. `engine`
    accepts only the names resolve_engine does.
    """
    resolve_engine(engine)
    opt_cfg = opt_cfg or OptimizerConfig()
    if per_component is None:
        per_component = enumerate_graph(g, partition, enum_cfg, engine, parallelism)

    def run(item: ComponentCircuits) -> SettlementPlan:
        plan = optimize_order(g, item.result.circuits, opt_cfg)
        plan.scc_index = item.scc_index
        plan.truncated = item.result.truncated
        plan.truncation_reason = item.result.truncation_reason
        return plan

    if parallelism > 1 and len(per_component) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            plans = list(pool.map(run, per_component))
    else:
        plans = [run(item) for item in per_component]
    plans.sort(key=lambda p: p.scc_index if p.scc_index is not None else -1)
    return plans
