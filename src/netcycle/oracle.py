"""Brute-force reference implementations for cross-checking.

These deliberately share no traversal logic with the production modules:
components come from a boolean transitive closure, circuits from an
exhaustive simple-path search without any blocking machinery, and the best
settlement order from replaying every permutation. Small inputs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .ledger import Circuit, CompanyId, DebtGraph, circuit_edges
from .scc import SccPartition
from .settlement import PlanStep, SettlementPlan


class BudgetExceeded(RuntimeError):
    """Input is larger than the oracle is willing to brute-force."""


@dataclass
class OracleBudget:
    max_vertices: int = 12
    max_circuits_for_permutation: int = 8


def scc_by_closure(g: DebtGraph, budget: OracleBudget | None = None) -> SccPartition:
    """Partition by mutual reachability, from a Floyd-Warshall style boolean
    closure over bitmask rows. Vertices are numbered in sorted id order,
    the order of g.index(), so components list positions as tarjan's do."""
    budget = budget or OracleBudget()
    verts = sorted(g.vertices)
    n = len(verts)
    if n > budget.max_vertices * 4:
        raise BudgetExceeded(f"{n} vertices exceeds the closure budget")
    pos = {v: i for i, v in enumerate(verts)}
    reach = [0] * n
    for (u, v), _ in g.edges():
        reach[pos[u]] |= 1 << pos[v]
    for k in range(n):
        bit = 1 << k
        row_k = reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= row_k
    components: list[list[int]] = []
    component_of = [0] * n
    assigned = [False] * n
    for i in range(n):
        if assigned[i]:
            continue
        members = [i]
        for j in range(i + 1, n):
            if not assigned[j] and (reach[i] >> j) & 1 and (reach[j] >> i) & 1:
                members.append(j)
        idx = len(components)
        for m in members:
            assigned[m] = True
            component_of[m] = idx
        components.append(members)
    return SccPartition(components, component_of)


def circuits_by_dfs(
    g: DebtGraph, max_len: int, budget: OracleBudget | None = None
) -> list[Circuit]:
    """Every elementary circuit of length <= max_len by exhaustive
    simple-path search from each canonical start, sorted."""
    budget = budget or OracleBudget()
    verts = sorted(g.vertices)
    if len(verts) > budget.max_vertices:
        raise BudgetExceeded(f"{len(verts)} vertices exceeds the enumeration budget")
    adj = {v: sorted(g.successors(v)) for v in verts}
    out: list[Circuit] = []

    def walk(start: CompanyId, path: list[CompanyId], visited: set[CompanyId]) -> None:
        for w in adj[path[-1]]:
            if w == start:
                out.append(tuple(path))
            elif w > start and w not in visited and len(path) < max_len:
                visited.add(w)
                path.append(w)
                walk(start, path, visited)
                path.pop()
                visited.discard(w)

    for s in verts:
        walk(s, [s], {s})
    out.sort()
    return out


def best_order_by_permutation(
    g: DebtGraph,
    circuits: list[Circuit],
    budget: OracleBudget | None = None,
    tie_break: str | None = None,
) -> SettlementPlan:
    """Maximum-total plan over every permutation, replaying each order on a
    plain weight map with skip-at-zero semantics.

    Without `tie_break` the first maximum-total permutation wins. With
    'balanced', equal totals are ranked by the key that OptimizerConfig
    documents: the highest sorted step amounts, then the smallest circuit
    sequence.
    """
    if tie_break not in (None, "balanced"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    budget = budget or OracleBudget()
    if len(circuits) > budget.max_circuits_for_permutation:
        raise BudgetExceeded(f"{len(circuits)} circuits exceeds the permutation budget")
    base = {edge: w for edge, w in g.edges()}
    best: tuple[int, list[PlanStep], list[Circuit]] | None = None
    for order in permutations(sorted(circuits)):
        weights = dict(base)
        steps: list[PlanStep] = []
        skipped: list[Circuit] = []
        total = 0
        for c in order:
            x = min(weights.get(e, 0) for e in circuit_edges(c))
            if x == 0:
                skipped.append(c)
                continue
            for e in circuit_edges(c):
                weights[e] -= x
            steps.append(PlanStep(c, x, x * len(c)))
            total += x * len(c)
        if best is None or total > best[0] or (
            total == best[0] and tie_break is not None and _wins_tie(steps, best[1])
        ):
            best = (total, steps, skipped)
    if best is None:
        return SettlementPlan(steps=[], total=0, skipped=[], mode="oracle")
    return SettlementPlan(steps=best[1], total=best[0], skipped=best[2], mode="oracle")


def _wins_tie(steps: list[PlanStep], incumbent: list[PlanStep]) -> bool:
    """Whether `steps` ranks above an equal-total `incumbent`."""
    ours = sorted(s.amount for s in steps)
    theirs = sorted(s.amount for s in incumbent)
    if ours != theirs:
        return ours > theirs
    return [s.circuit for s in steps] < [s.circuit for s in incumbent]
