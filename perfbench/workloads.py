"""The benchmark's workloads and the invoice CSVs they feed the program.

Each workload is one fixed synthetic economy, made from the workload's
base seed. The benchmark's --seed draws a relabelling of that economy: a
permutation of the company ids, of the invoice ids and of the row order.
Every seed therefore runs the same graph shape and amounts, while the
program never sees the same bytes or the same vertex order twice. The
base seed is the identity relabelling, so its CSV is byte for byte what
`netcycle gen` writes. A fresh economy per seed was rejected: at the
desk size the netted share varied eightfold between seeds, and the
wide-shallow instance holds only a dozen or two circuits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from netcycle import Invoice, generate_synthetic, write_invoices_csv

# many-small: disjoint clusters of this shape. 2 000 clusters give about
# 2 200 components and a run as long as the other two workloads'.
CLUSTERS = 2000
CLUSTER_COMPANIES = 6
CLUSTER_INVOICES = 12


@dataclass(frozen=True)
class Workload:
    """`stresses` names the per-layer times that should hold more than
    `share` of the traced total; the traced run reports whether they do."""

    name: str
    max_len: int
    base_seed: int
    economy: Callable[[int], list[Invoice]]
    stresses: tuple[str, ...]
    share: float


def clustered(count: int, seed: int) -> list[Invoice]:
    """`count` disjoint small economies from netcycle.generate_synthetic,
    each with its company and invoice ids prefixed by its cluster id."""
    rng = random.Random(seed)
    width = len(str(count - 1))
    invoices: list[Invoice] = []
    for k in range(count):
        prefix = f"K{k:0{width}d}-"
        for inv in generate_synthetic(CLUSTER_COMPANIES, CLUSTER_INVOICES, rng.getrandbits(32)):
            invoices.append(Invoice(
                prefix + inv.invoice_id, prefix + inv.debtor, prefix + inv.creditor,
                inv.amount, inv.issue_date,
            ))
    return invoices


WORKLOADS = {
    w.name: w
    for w in (
        # Ingest, the graph.json write and Tarjan dominate; the search at
        # cap 3 finds a few circuits in one giant component.
        Workload(
            "wide-shallow", 3, 7, lambda s: generate_synthetic(150_000, 500_000, s),
            ("ledger.ingest_s", "ledger.graph_json_write_s", "scc.tarjan_s"), 0.5,
        ),
        # One giant component: the cap-8 search is about 90 % of the run,
        # then greedy ordering over its ~2 600 circuits.
        Workload(
            "desk-deep", 8, 42, lambda s: generate_synthetic(15_000, 50_000, s),
            ("circuits.search_s",), 0.75,
        ),
        # ~2 200 tiny components: per-component overhead, and exact ordering
        # on the ~92 % of them that hold at most 10 circuits.
        Workload(
            "many-small", 8, 1, lambda s: clustered(CLUSTERS, s),
            ("settlement.exact_s",), 0.75,
        ),
    )
}


def relabel(invoices: list[Invoice], seed: int) -> list[Invoice]:
    """The same economy under seed-drawn company ids, invoice ids and row order."""
    rng = random.Random(seed)
    names = sorted({inv.debtor for inv in invoices} | {inv.creditor for inv in invoices})
    shuffled = list(names)
    rng.shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    ids = [inv.invoice_id for inv in invoices]
    rng.shuffle(ids)
    rows = [
        Invoice(new_id, rename[inv.debtor], rename[inv.creditor], inv.amount, inv.issue_date)
        for new_id, inv in zip(ids, invoices)
    ]
    rng.shuffle(rows)
    return rows


def write_input(workload: Workload, seed: int, path: Path) -> int:
    """Write the workload's CSV for `seed`; return its total obligation weight."""
    invoices = workload.economy(workload.base_seed)
    if seed != workload.base_seed:
        invoices = relabel(invoices, seed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_invoices_csv(fh, invoices)
    return sum(inv.amount for inv in invoices)
