"""Settlement ordering: pick the circuit order that nets the most.

A plan settles circuits one by one against live edge weights; a circuit
worth zero at its turn is skipped and recorded. The exact mode finds the
best order by a memoized search for the best suffix from each settlement
state (the remaining edge weights); the greedy mode takes the largest
immediate gain each step. Totals count the per-edge settled amount times
the circuit length.

All paths settle on `_slots`, one table of the circuits' edge weights, so
the graph is written only by `replay`, once the whole plan checks out.

`plan_per_scc` plans every other component in one forked helper process
when the process runs one thread, two or more CPUs are usable and two or
more components are to be planned; otherwise it plans them one at a
time. Both ways run the same per-component code, so the plans are
identical.
"""

from __future__ import annotations

import heapq
import marshal
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, NoReturn

from .circuits import ComponentCircuits, EnumerationConfig, check_parallelism, enumerate_graph, resolve_engine
from .ledger import Circuit, CompanyId, DebtGraph, circuit_edges, settle
from .scc import SccPartition

EXACT_HARD_CAP = 12  # exact mode's search grows exponentially with the circuit count

# A plan by index into its sorted circuits: mode, total, steps as
# (index, per_edge), skipped indices. Plans cross from the forked helper
# in this form.
_Ordered = tuple[str, int, list[tuple[int, int]], list[int]]


class StalePlanError(RuntimeError):
    """A recorded step cannot be applied as recorded. `step_index` names it."""

    def __init__(self, step_index: int, reason: str):
        super().__init__(f"step {step_index}: {reason}")
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
        if self.mode not in ("exact", "greedy", "auto"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 <= self.exact_threshold <= EXACT_HARD_CAP:
            raise ValueError(f"exact_threshold must be in 1..{EXACT_HARD_CAP}")


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


def _slots(g: DebtGraph, circuits: list[Circuit]) -> tuple[list[int], list[tuple[int, ...]]]:
    """One slot per distinct circuit edge, `w` holding its weight in g (0 if
    absent), and each circuit as the tuple of its edges' slots. An empty
    circuit, or one that uses an edge twice, raises ValueError."""
    slot: dict[tuple[CompanyId, CompanyId], int] = {}  # in slot order
    edges: list[tuple[int, ...]] = []
    for position, c in enumerate(circuits):
        ids = tuple([slot.setdefault(e, len(slot)) for e in circuit_edges(c)])
        if not ids or len(set(ids)) < len(ids):
            raise _BadCircuit(position, c)
        edges.append(ids)
    return [g.weight(u, v) for u, v in slot], edges


def _in_order(w: list[int], edges: list[tuple[int, ...]]) -> Iterator[int]:
    """Settle each circuit of a `_slots` table in turn, yielding what it
    settles per edge: its value at its turn, 0 when it is skipped."""
    for ids in edges:
        x = min([w[e] for e in ids])
        for e in ids:
            w[e] -= x
        yield x


def _exact_order(
    w: list[int], edges: list[tuple[int, ...]], order: list[Circuit]
) -> tuple[int, list[tuple[int, int]], list[int]]:
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

    Each transition builds the child state from its parent's tuple. The
    sorted amounts are merged, by bisection, only for a candidate whose
    total reaches the incumbent's and for the winner; steps are a linked
    chain `(circuit index, per_edge, rest)`, unwound once at the end.

    Returns the total, the steps as (circuit index, per_edge) and the
    skipped circuits' indices, ascending.
    """
    users = [0] * len(w)  # per slot: bitmask of the circuits through it
    for i, ids in enumerate(edges):
        for e in ids:
            users[e] |= 1 << i
    k = [len(c) for c in order]
    # state -> (total, sorted amounts, (circuit index, per_edge, rest) or None)
    memo: dict[tuple[int, ...], tuple[int, tuple[int, ...], tuple | None]] = {}

    def best(state: tuple[int, ...], live: list[int]) -> tuple[int, tuple[int, ...], tuple | None]:
        # The incumbent: settle top_i for top_x per edge, then top_suffix.
        # top is its total; top_amounts its sorted amounts, None until needed.
        top = 0
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
                suffix = memo[child] = best(child, [j for j in live if not dead >> j & 1])
            amount = x * k[i]
            total = suffix[0] + amount
            if total > top:
                top, top_suffix, top_amount, top_i, top_x = total, suffix, amount, i, x
                top_amounts = None
            elif total == top:
                if top_amounts is None:
                    top_amounts = _with(top_suffix[1], top_amount)
                amounts = _with(suffix[1], amount)
                if amounts > top_amounts:
                    top_suffix, top_amount, top_i, top_x, top_amounts = suffix, amount, i, x, amounts
        if not top:
            return 0, (), None
        if top_amounts is None:
            top_amounts = _with(top_suffix[1], top_amount)
        return top, top_amounts, (top_i, top_x, top_suffix[2])

    try:
        total, _, chain = best(tuple(w), [i for i in range(len(order)) if all([w[e] for e in edges[i]])])
    finally:
        # best's closure holds best itself; unbinding it breaks that
        # reference cycle, so the memo is freed at once instead of waiting
        # for the cyclic collector.
        del best
    steps = []
    while chain is not None:
        i, x, chain = chain
        steps.append((i, x))
    taken = {i for i, _ in steps}
    return total, steps, [i for i in range(len(order)) if i not in taken]


def _with(amounts: tuple[int, ...], amount: int) -> tuple[int, ...]:
    """The sorted tuple `amounts` with `amount` inserted in order."""
    at = bisect_left(amounts, amount)
    return amounts[:at] + (amount,) + amounts[at:]


def _greedy_order(
    w: list[int], edges: list[tuple[int, ...]], order: list[Circuit]
) -> tuple[int, list[tuple[int, int]], list[int]]:
    """Settle the largest current gain first. A lazy heap works because a
    circuit's value never increases as others settle: a fresh top entry is
    the true maximum. Ties fall to the smaller canonical circuit: `order`
    is sorted, and heap entries carry the index into it. Returns what
    _exact_order does."""
    heap = [(-min([w[e] for e in ids]) * len(c), i) for i, (c, ids) in enumerate(zip(order, edges))]
    heapq.heapify(heap)
    steps: list[tuple[int, int]] = []
    skipped: list[int] = []
    total = 0
    while heap:
        neg_amount, i = heapq.heappop(heap)
        ids = edges[i]
        x = min([w[e] for e in ids])
        if x == 0:
            skipped.append(i)
            continue
        amount = x * len(order[i])
        if amount != -neg_amount:
            heapq.heappush(heap, (-amount, i))
            continue
        for e in ids:
            w[e] -= x
        steps.append((i, x))
        total += amount
    return total, steps, sorted(skipped)


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
    them: mode, total, steps as (index, per_edge) and skipped indices."""
    mode = cfg.mode
    if mode == "auto":
        mode = "exact" if len(order) <= cfg.exact_threshold else "greedy"
    if mode == "exact" and len(order) > EXACT_HARD_CAP:
        raise ExactSearchRefused(
            f"{len(order)} circuits exceeds the exact-mode cap of "
            f"{EXACT_HARD_CAP}; use greedy mode"
        )
    w, edges = _slots(g, order)
    search = _exact_order if mode == "exact" else _greedy_order
    return (mode, *search(w, edges, order))


def _plan(
    order: list[Circuit], mode: str, total: int, steps: list[tuple[int, int]], skipped: list[int]
) -> SettlementPlan:
    """The plan that an `_ordered` result describes for `order`."""
    return SettlementPlan(
        steps=[PlanStep(order[i], x, x * len(order[i])) for i, x in steps],
        total=total,
        skipped=[order[i] for i in skipped],
        mode=mode,
    )


def plan_for_order(g: DebtGraph, circuits: Iterable[Circuit]) -> SettlementPlan:
    """Plan obtained by settling `circuits` in exactly the given order on
    their `_slots` table, skipping any that are worth zero at their turn."""
    circuits = list(circuits)
    settled = list(_in_order(*_slots(g, circuits)))
    steps = [PlanStep(c, x, x * len(c)) for c, x in zip(circuits, settled) if x]
    skipped = [c for c, x in zip(circuits, settled) if not x]
    return SettlementPlan(steps=steps, total=sum(s.amount for s in steps), skipped=skipped, mode="forced")


def replay(g: DebtGraph, plan: SettlementPlan) -> DebtGraph:
    """Apply a plan to the live graph, verifying every recorded amount.

    A step whose circuit is empty or uses an edge twice, else the first
    step whose recorded amount is not positive or not its value at its turn
    on the `_slots` table, raises StalePlanError naming it; g is untouched.
    """
    circuits = [step.circuit for step in plan.steps]
    try:
        w, edges = _slots(g, circuits)
    except _BadCircuit as err:
        raise StalePlanError(err.position, str(err)) from None
    for idx, (step, x) in enumerate(zip(plan.steps, _in_order(w, edges))):
        if step.per_edge <= 0:
            raise StalePlanError(idx, f"recorded {step.per_edge} per edge, which is not positive")
        if x != step.per_edge:
            raise StalePlanError(idx, f"recorded {step.per_edge} per edge, but the circuit is now worth {x}")
    for c in circuits:
        settle(g, c)
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
    the rest. Each component is planned by the same code either way, so
    the plans are identical. A component either half did not finish is
    planned here again, in index order, so the first one that fails raises
    what a serial run raises.
    """
    resolve_engine(engine)
    check_parallelism(parallelism)
    opt_cfg = opt_cfg or OptimizerConfig()
    if per_component is None:
        per_component = enumerate_graph(g, partition, enum_cfg, engine, parallelism)
    items = sorted(per_component, key=lambda item: item.scc_index)
    plans = _plan_in_halves(g, items, opt_cfg) if _can_fork(len(items)) else [None] * len(items)
    for at, item in enumerate(items):
        plan = plans[at]
        if plan is None:
            plan = plans[at] = optimize_order(g, item.result.circuits, opt_cfg)
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
) -> list[SettlementPlan | None]:
    """Plans by position in `items`: the even positions from a forked
    helper, the odd ones from this process. A position holds None when its
    half did not finish it: this process's own planning raised there, or
    the helper died, exited nonzero or sent no result for it. However this
    function is left, the helper is reaped, and killed first unless it has
    exited.
    """
    import signal  # here, so a run that never forks does not import it

    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: plan_per_scc plans every component
        os.close(read_fd)
        os.close(write_fd)
        return [None] * len(items)
    if pid == 0:
        os.close(read_fd)
        _helper(g, items[::2], cfg, write_fd, parent)
    os.close(write_fd)
    plans: list[SettlementPlan | None] = [None] * len(items)
    exited = False
    try:
        with open(read_fd, "rb") as pipe:
            try:
                for at in range(1, len(items), 2):
                    plans[at] = optimize_order(g, items[at].result.circuits, cfg)
            except Exception:
                pass  # plan_per_scc plans this component again, and raises as a serial run does
            sent = pipe.read()
        _, status = os.waitpid(pid, 0)
        exited = True
    finally:
        if not exited:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # The helper exits 0 only once all of its bytes are written.
    if os.waitstatus_to_exitcode(status) == 0:
        for at, record in zip(range(0, len(items), 2), marshal.loads(sent)):
            plans[at] = _plan(sorted(items[at].result.circuits), *_unpacked(record))
    return plans


def _helper(
    g: DebtGraph, items: list[ComponentCircuits], cfg: OptimizerConfig, fd: int, parent: int
) -> NoReturn:
    """The forked helper's whole life: plan `items` in order until one
    raises, write the `_packed` results of those before it to `fd` as one
    list, and exit 0 once it is written, else 1. It stops early if its
    parent is gone. It leaves only by os._exit, whatever is raised, so it
    never unwinds into its parent's callers, flushes the stdio buffers it
    copied, or runs their exit handlers.

    The list is serialized by marshal, which the interpreter has loaded
    already and which both ends, one interpreter forked, read alike. With
    pickle, its import alone lifted the parent's peak memory on about
    2 000 components by about 0.3 MB (2-vCPU Xeon, Python 3.11)."""
    code = 1
    try:
        records = []
        try:
            for item in items:
                if os.getppid() != parent:
                    os._exit(1)  # orphaned: no one is left to read the results
                records.append(_packed(*_ordered(g, sorted(item.result.circuits), cfg)))
        except Exception:
            pass  # the parent plans this component again
        data = memoryview(marshal.dumps(records))
        while data:
            data = data[os.write(fd, data):]
        code = 0
    except BaseException:
        pass  # the code stays 1; the parent plans every component itself
    finally:
        os._exit(code)


def _packed(mode: str, total: int, steps: list[tuple[int, int]], skipped: list[int]) -> tuple:
    """An `_ordered` result as one flat tuple: mode, total, the step count,
    each step's index and per_edge, then the skipped indices. The parent
    holds every record that the helper sends at once, and a flat tuple
    takes a fraction of the memory of nested lists and pairs."""
    return (mode, total, len(steps), *[n for step in steps for n in step], *skipped)


def _unpacked(record: tuple) -> _Ordered:
    """The `_ordered` result that `_packed` made `record` from."""
    mode, total, count = record[:3]
    end = 3 + 2 * count
    return mode, total, list(zip(record[3:end:2], record[4:end:2])), list(record[end:])
