"""Settlement ordering: pick the circuit order that nets the most.

A plan settles circuits one by one against live edge weights; a circuit
worth zero at its turn is skipped and recorded. The exact mode finds the
best order by a memoized search for the best suffix from each settlement
state (the remaining edge weights); the greedy mode takes the largest
immediate gain each step. Totals count the per-edge settled amount times
the circuit length.

All paths settle on `_slots`, one table of the circuits' edge weights.
Only `replay` writes the graph: once every step of its plan has checked
out on that table, it stores each edge's final weight through
`DebtGraph._set_weight`.
The searches and `plan_for_order` yield only their steps; `_plan` builds
every plan from them.

`plan_per_scc` plans every other component in one forked helper process
when the process runs one thread, two or more CPUs are usable and two or
more components are to be planned; otherwise it plans them one at a
time. Both ways run the same per-component code, so the plans are
identical. If this process's half raises, the helper is killed at once
and every component is planned one at a time; if the helper's half does
not come back whole, this process plans it. Either way the plans, or
the first failure, are a serial run's.
"""

from __future__ import annotations

import heapq
import marshal
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, KeysView, NoReturn

from .circuits import ComponentCircuits, EnumerationConfig, check_parallelism, enumerate_graph, resolve_engine
from .ledger import Circuit, CompanyId, DebtGraph, circuit_edges
from .scc import SccPartition

EXACT_HARD_CAP = 12  # exact mode's search grows exponentially with the circuit count
MODES = ("auto", "exact", "greedy")  # OptimizerConfig.mode's values; the CLI's --mode offers these

# A plan by index into its sorted circuits: mode and steps as
# (index, per_edge). Plans cross from the forked helper in this form;
# `_plan` derives the amounts, the total and the skipped circuits.
_Ordered = tuple[str, list[tuple[int, int]]]


class StalePlanError(RuntimeError):
    """A recorded plan cannot be applied as recorded. `step_index` names the
    step at fault, or is None when every step checks out but the total
    does not."""

    def __init__(self, step_index: int | None, reason: str):
        super().__init__(reason if step_index is None else f"step {step_index}: {reason}")
        self.step_index = step_index


class ExactSearchRefused(RuntimeError):
    """Exact mode was asked to search more circuits than EXACT_HARD_CAP."""


class _BadCircuit(ValueError):
    """An empty circuit, or one using an edge twice; `position` is its index."""

    def __init__(self, position: int, circuit: Circuit):
        super().__init__(f"circuit {list(circuit)} {'uses an edge twice' if circuit else 'is empty'}")
        self.position = position


@dataclass
class OptimizerConfig:
    """mode: exact, greedy, or auto (exact up to exact_threshold circuits).
    Exact mode refuses outright above EXACT_HARD_CAP, so exact_threshold is
    1..EXACT_HARD_CAP. Among equal-total plans exact mode prefers value
    spread across steps (the highest sorted step amounts), then the
    smallest circuit sequence."""

    mode: str = "auto"
    exact_threshold: int = 10

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if type(self.exact_threshold) is not int or not 1 <= self.exact_threshold <= EXACT_HARD_CAP:
            raise ValueError(
                f"exact_threshold must be an int in 1..{EXACT_HARD_CAP}, got {self.exact_threshold!r}"
            )


@dataclass(frozen=True, slots=True)
class PlanStep:
    circuit: Circuit
    per_edge: int
    amount: int


@dataclass(slots=True)
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


def _slots(
    g: DebtGraph, circuits: list[Circuit]
) -> tuple[list[int], list[tuple[int, ...]], KeysView[tuple[CompanyId, CompanyId]]]:
    """One slot per distinct circuit edge: `w` holding its weight in g (0 if
    absent), each circuit as the tuple of its edges' slots, and the edges
    themselves in slot order. An empty circuit, or one that uses an edge
    twice, raises ValueError."""
    slot: dict[tuple[CompanyId, CompanyId], int] = {}  # in slot order
    edges: list[tuple[int, ...]] = []
    for position, c in enumerate(circuits):
        ids = tuple([slot.setdefault(e, len(slot)) for e in circuit_edges(c)])
        if not ids or len(set(ids)) < len(ids):
            raise _BadCircuit(position, c)
        edges.append(ids)
    return [g.weight(u, v) for u, v in slot], edges, slot.keys()


def _in_order(w: list[int], edges: list[tuple[int, ...]]) -> Iterator[int]:
    """Settle each circuit of a `_slots` table in turn, yielding what it
    settles per edge: its value at its turn, 0 when it is skipped."""
    for ids in edges:
        x = min([w[e] for e in ids])
        for e in ids:
            w[e] -= x
        yield x


def _exact_order(w: list[int], edges: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Best settlement order by a memoized search for the best suffix from
    each settlement state.

    Circuits are taken in sorted order and hold indices into the state: a
    tuple of current edge weights, one per slot of `w`. Weights only
    decrease, so a circuit worth zero stays at zero: the state alone fixes
    which circuits are still live, and the best way to finish from it does
    not depend on the order that reached it. Orders that interleave
    circuits sharing no edge therefore meet in one cached state instead of
    being searched again. Settling a circuit drops every live circuit
    through an edge it empties.

    The best suffix has the highest total; ties go to the highest sorted
    step amounts. Remaining ties go to the smallest step sequence, which is
    the first candidate because live circuits are tried in ascending order
    and only a strictly better one replaces it. Both keys compose with a
    fixed prefix, so the best suffix from every state yields the best order
    overall.

    Each state has one record, (total, sorted step amounts, steps), built
    from its best child's record; a candidate's amounts are merged only when
    its total reaches the incumbent's. Each transition builds the child
    state from its parent's tuple.

    Returns the steps as (circuit index, per_edge). A circuit's length is
    the number of its slots.
    """
    users = [0] * len(w)  # per slot: bitmask of the circuits through it
    for i, ids in enumerate(edges):
        for e in ids:
            users[e] |= 1 << i
    live = [i for i, ids in enumerate(edges) if all([w[e] for e in ids])]
    return list(_best(tuple(w), live, edges, users, {})[2])


def _best(
    state: tuple[int, ...], live: list[int], edges: list[tuple[int, ...]], users: list[int], memo: dict
) -> tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]:
    """_exact_order's record of the best suffix from `state`, whose live
    circuits are `live`: (total, sorted step amounts, ((circuit index,
    per_edge), ...)). `memo` maps each state searched to its record."""
    found = (0, (), ())
    weight = state.__getitem__
    for i in live:
        ids = edges[i]
        x = min(map(weight, ids))
        child = list(state)
        dead = 0
        for e in ids:
            left = child[e] = child[e] - x
            if not left:
                dead |= users[e]
        child = tuple(child)
        suffix = memo.get(child)
        if suffix is None:
            suffix = memo[child] = _best(child, [j for j in live if not dead >> j & 1], edges, users, memo)
        amount = x * len(ids)
        total = suffix[0] + amount
        if total > found[0]:
            found = (total, _with(suffix[1], amount), ((i, x),) + suffix[2])
        elif total == found[0]:
            amounts = _with(suffix[1], amount)
            if amounts > found[1]:
                found = (total, amounts, ((i, x),) + suffix[2])
    return found


def _with(amounts: tuple[int, ...], amount: int) -> tuple[int, ...]:
    """The sorted tuple `amounts` with `amount` inserted in order."""
    at = bisect_left(amounts, amount)
    return amounts[:at] + (amount,) + amounts[at:]


def _greedy_order(w: list[int], edges: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Settle the largest current gain first. A lazy heap works because a
    circuit's value never increases as others settle: a fresh top entry is
    the true maximum. Ties fall to the smaller canonical circuit: the
    circuits are sorted, and heap entries carry the index into them.
    Returns the steps as (circuit index, per_edge), as _exact_order does."""
    heap = [(-min([w[e] for e in ids]) * len(ids), i) for i, ids in enumerate(edges)]
    heapq.heapify(heap)
    steps: list[tuple[int, int]] = []
    while heap:
        neg_amount, i = heapq.heappop(heap)
        ids = edges[i]
        x = min([w[e] for e in ids])
        if x == 0:
            continue
        amount = x * len(ids)
        if amount != -neg_amount:
            heapq.heappush(heap, (-amount, i))
            continue
        for e in ids:
            w[e] -= x
        steps.append((i, x))
    return steps


def optimize_order(
    g: DebtGraph,
    circuits: Iterable[Circuit],
    cfg: OptimizerConfig | None = None,
) -> SettlementPlan:
    """Best settlement order for `circuits` against the weights of g.

    Both modes settle on the `_slots` table of the sorted circuits, so g
    is only read. Exact mode maximizes the replay total over all orders;
    greedy maximizes each immediate step; auto picks exact for small circuit
    sets and greedy beyond cfg.exact_threshold.
    """
    order = sorted(circuits)
    return _plan(order, *_ordered(g, order, cfg or OptimizerConfig()))


def _ordered(g: DebtGraph, order: list[Circuit], cfg: OptimizerConfig) -> _Ordered:
    """optimize_order's plan for the sorted circuits `order`, by index into
    them: its mode and its steps as (index, per_edge)."""
    mode = cfg.mode
    if mode == "auto":
        mode = "exact" if len(order) <= cfg.exact_threshold else "greedy"
    if mode == "exact" and len(order) > EXACT_HARD_CAP:
        raise ExactSearchRefused(
            f"{len(order)} circuits exceeds the exact-mode cap of "
            f"{EXACT_HARD_CAP}; use greedy mode"
        )
    w, edges, _ = _slots(g, order)
    search = _exact_order if mode == "exact" else _greedy_order
    return mode, search(w, edges)


def _plan(order: list[Circuit], mode: str, steps: list[tuple[int, int]]) -> SettlementPlan:
    """The plan whose steps settle `order[i]` for x per edge, for each
    (i, x) in `steps`: each step's amount is x times the circuit's length,
    the total is their sum, and every circuit of `order` in no step is
    skipped, in `order`'s order."""
    plan_steps = [PlanStep(order[i], x, x * len(order[i])) for i, x in steps]
    taken = {i for i, _ in steps}
    return SettlementPlan(
        steps=plan_steps,
        total=sum([s.amount for s in plan_steps]),
        skipped=[c for i, c in enumerate(order) if i not in taken],
        mode=mode,
    )


def plan_for_order(g: DebtGraph, circuits: Iterable[Circuit]) -> SettlementPlan:
    """Plan obtained by settling `circuits` in exactly the given order on
    their `_slots` table, skipping any that are worth zero at their turn."""
    circuits = list(circuits)
    w, edges, _ = _slots(g, circuits)
    return _plan(circuits, "forced", [(i, x) for i, x in enumerate(_in_order(w, edges)) if x])


def replay(g: DebtGraph, plan: SettlementPlan) -> DebtGraph:
    """Apply a plan to the live graph, verifying every field of every step
    and the plan's total.

    A step whose circuit is not a tuple of strings, else one whose circuit
    is empty or uses an edge twice, else the first step whose per_edge is
    not a positive int or not its value at its turn on the `_slots` table,
    or whose amount is not per_edge times the circuit's length, raises
    StalePlanError naming it. Once every step has checked out, a total that
    is not an int equal to the sum of the step amounts raises it too. Either
    way g is untouched. Otherwise each edge of the plan is given its final
    weight on that table.
    """
    circuits = [step.circuit for step in plan.steps]
    for idx, c in enumerate(circuits):
        if type(c) is not tuple or not all([type(v) is str for v in c]):
            raise StalePlanError(idx, f"circuit {c!r} is not a tuple of company ids")
    try:
        w, edges, pairs = _slots(g, circuits)
    except _BadCircuit as err:
        raise StalePlanError(err.position, str(err)) from None
    for idx, (step, x) in enumerate(zip(plan.steps, _in_order(w, edges))):
        per_edge, amount = step.per_edge, step.amount
        # bool is an int subclass; True must not pass as 1 per edge
        if type(per_edge) is not int or per_edge <= 0:
            raise StalePlanError(idx, f"recorded {per_edge!r} per edge, which is not positive or not an int")
        if x != per_edge:
            raise StalePlanError(idx, f"recorded {per_edge} per edge, but the circuit is now worth {x}")
        k = len(step.circuit)
        if type(amount) is not int or amount != x * k:
            raise StalePlanError(idx, f"recorded amount {amount!r}, but {x} per edge over {k} edges is {x * k}")
    total = sum([step.amount for step in plan.steps])
    if type(plan.total) is not int or plan.total != total:
        raise StalePlanError(None, f"recorded total {plan.total!r}, but the steps settle {total}")
    for (u, v), weight in zip(pairs, w):
        g._set_weight(u, v, weight)
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
    sum of plan totals. Pre-enumerated circuits may be passed, in any
    order, to avoid re-running enumeration; truncation flags carry into the
    plans. `engine` and `parallelism` accept only the values resolve_engine
    and check_parallelism do; neither selects anything.

    Where a second process can run on a second CPU (see `_can_fork`), a
    forked helper plans every other component while this process plans
    the rest, by the same per-component code, so the plans are identical.
    If this process's half raises, the helper is stopped at once and every
    component is planned here, one at a time; if the helper's half does
    not come back whole, this process plans it. Either way the first
    component that fails raises what a serial run raises.
    """
    resolve_engine(engine)
    check_parallelism(parallelism)
    opt_cfg = opt_cfg or OptimizerConfig()
    if per_component is None:
        per_component = enumerate_graph(g, partition, enum_cfg)
    items = sorted(per_component, key=lambda item: item.scc_index)
    plans = _plan_in_halves(g, items, opt_cfg) if _can_fork(len(items)) else None
    if plans is None:
        plans = [optimize_order(g, item.result.circuits, opt_cfg) for item in items]
    for plan, item in zip(plans, items):
        plan.scc_index = item.scc_index
        plan.truncated = item.result.truncated
        plan.truncation_reason = item.result.truncation_reason
    return plans


def _can_fork(components: int) -> bool:
    """Whether planning `components` components may fork a helper: there
    are two or more of them, the platform forks, two or more CPUs are
    usable, and this process runs no second thread, which a fork would
    copy in whatever state it held."""
    if components < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _plan_in_halves(
    g: DebtGraph, items: list[ComponentCircuits], cfg: OptimizerConfig
) -> list[SettlementPlan] | None:
    """Every plan by position in `items`, the even positions from a forked
    helper and the odd ones from this process; None, for plan_per_scc to
    plan every component, when no pipe or process can be had or as soon
    as this process's own half raises. If the helper does not exit 0, this
    process plans the even positions after its own: every odd one is
    planned by then, so the first that raises is a serial run's first
    failure. However this function is left, the helper is reaped, and
    killed first unless it has exited.
    """
    import signal  # here, so a run that never forks does not import it

    parent = os.getpid()
    fds: tuple[int, ...] = ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:  # no descriptor or process to spare
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        os.close(read_fd)
        _helper(g, items[::2], cfg, write_fd, parent)
    os.close(write_fd)
    plans: list = [None] * len(items)
    status = None
    try:
        with open(read_fd, "rb") as pipe:
            try:
                for at in range(1, len(items), 2):
                    plans[at] = optimize_order(g, items[at].result.circuits, cfg)
            except Exception:
                return None  # plan_per_scc plans every component, and raises as a serial run does
            sent = pipe.read()
        _, status = os.waitpid(pid, 0)
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # The helper exits 0 only once all of its records are written.
    if os.waitstatus_to_exitcode(status) == 0:
        for at, record in zip(range(0, len(items), 2), marshal.loads(sent)):
            plans[at] = _plan(sorted(items[at].result.circuits), *record)
    else:
        for at in range(0, len(items), 2):
            plans[at] = optimize_order(g, items[at].result.circuits, cfg)
    return plans


def _helper(
    g: DebtGraph, items: list[ComponentCircuits], cfg: OptimizerConfig, fd: int, parent: int
) -> NoReturn:
    """The forked helper's whole life: plan every one of `items` in order,
    write their `_ordered` results to `fd` as one list, and exit 0 once it
    is written, else 1. It stops early if its parent is gone. It leaves
    only by os._exit, whatever is raised, so it never unwinds into its
    parent's callers, flushes the stdio buffers it copied, or runs their
    exit handlers.

    The list is serialized by marshal, which the interpreter has loaded
    already and which both ends, one interpreter forked, read alike. With
    pickle, its import alone lifted the parent's peak memory on about
    2 000 components by about 0.3 MB (2-vCPU Xeon, Python 3.11)."""
    code = 1
    try:
        records = []
        for item in items:
            if os.getppid() != parent:
                os._exit(1)  # orphaned: no one is left to read the results
            records.append(_ordered(g, sorted(item.result.circuits), cfg))
        with open(fd, "wb") as pipe:
            marshal.dump(records, pipe)
        code = 0
    finally:
        os._exit(code)
