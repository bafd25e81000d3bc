"""Synthetic invoice data with exact vertex and edge counts.

Deterministic under a fixed seed: the same seed always produces the same
invoice list byte for byte. Amounts are drawn log-uniformly so the weight
scale spans small and large obligations, like real invoice populations.
"""

from __future__ import annotations

import math
import random
import sys
from datetime import date, timedelta

from .ledger import Invoice

# Invoice dates are drawn uniformly from the DATE_SPAN_DAYS days from START_DATE.
START_DATE = date(2019, 1, 1)
DATE_SPAN_DAYS = 365


class InfeasibleRequest(ValueError):
    """The requested vertex/edge counts cannot be realized."""


def _company_names(n: int) -> list[str]:
    width = len(str(n))
    return [f"C{i + 1:0{width}d}" for i in range(n)]


def generate_synthetic(
    companies: int,
    edges: int,
    seed: int = 0,
    min_amount: int = 100,
    max_amount: int = 10**9,
) -> list[Invoice]:
    """Invoices whose aggregated debt graph has exactly `companies`
    vertices and `edges` distinct directed edges, one invoice per edge.

    A shuffled pairing covers every company first, then extra distinct
    pairs are drawn at random, so feasibility requires
    ceil(companies / 2) <= edges <= companies * (companies - 1).
    """
    if companies < 2:
        raise InfeasibleRequest("need at least 2 companies")
    if edges > companies * (companies - 1):
        raise InfeasibleRequest(
            f"{edges} edges exceeds the maximum {companies * (companies - 1)} "
            f"for {companies} companies"
        )
    if edges < (companies + 1) // 2:
        raise InfeasibleRequest(
            f"{edges} edges cannot mention all {companies} companies"
        )
    if not 0 < min_amount <= max_amount:
        raise InfeasibleRequest("need 0 < min_amount <= max_amount")
    if max_amount > sys.float_info.max:  # amounts are drawn through math.exp
        raise InfeasibleRequest("need max_amount <= the largest float")

    rng = random.Random(seed)
    names = _company_names(companies)
    shuffled = list(names)
    rng.shuffle(shuffled)

    chosen: list[tuple[str, str]] = []
    used: set[tuple[str, str]] = set()
    for i in range(0, companies - 1, 2):
        pair = (shuffled[i], shuffled[i + 1])
        chosen.append(pair)
        used.add(pair)
    if companies % 2 == 1:
        pair = (shuffled[-1], shuffled[0])
        chosen.append(pair)
        used.add(pair)
    while len(chosen) < edges:
        u = names[rng.randrange(companies)]
        v = names[rng.randrange(companies)]
        if u == v or (u, v) in used:
            continue
        chosen.append((u, v))
        used.add((u, v))

    lo, hi = math.log(min_amount), math.log(max_amount)
    invoices: list[Invoice] = []
    id_width = len(str(edges))
    for i, (debtor, creditor) in enumerate(chosen):
        amount = min(max_amount, max(min_amount, round(math.exp(rng.uniform(lo, hi)))))
        issued = START_DATE + timedelta(days=rng.randrange(DATE_SPAN_DAYS))
        invoices.append(
            Invoice(f"INV{i + 1:0{id_width}d}", debtor, creditor, amount, issued)
        )
    return invoices
