from __future__ import annotations

import io
import sys

import pytest

from netcycle import generate_synthetic, write_invoices_csv
from netcycle.datagen import InfeasibleRequest

from conftest import graph_of


def csv_text(invoices) -> str:
    buf = io.StringIO()
    write_invoices_csv(buf, invoices)
    return buf.getvalue()


def graph_of_invoices(invoices):
    return graph_of((i.debtor, i.creditor, i.amount) for i in invoices)


def test_exact_counts():
    invoices = generate_synthetic(200, 600, seed=1)
    g = graph_of_invoices(invoices)
    assert len(g.vertices) == 200
    assert g.edge_count() == 600
    assert len(invoices) == 600


def test_no_self_loops_or_duplicate_pairs():
    invoices = generate_synthetic(50, 300, seed=3)
    pairs = [(i.debtor, i.creditor) for i in invoices]
    assert all(u != v for u, v in pairs)
    assert len(set(pairs)) == len(pairs)


def test_same_seed_is_byte_identical():
    a = csv_text(generate_synthetic(40, 90, seed=7))
    b = csv_text(generate_synthetic(40, 90, seed=7))
    assert a == b


def test_different_seed_differs():
    a = csv_text(generate_synthetic(40, 90, seed=7))
    b = csv_text(generate_synthetic(40, 90, seed=8))
    assert a != b


def test_two_companies_two_edges_is_mutual_pair():
    invoices = generate_synthetic(2, 2, seed=0)
    pairs = {(i.debtor, i.creditor) for i in invoices}
    assert pairs == {("C1", "C2"), ("C2", "C1")}


def test_odd_company_count_wraps_the_last_company():
    # five companies, three edges: two pairs, then the fifth company owes
    # the first pair's debtor
    invoices = generate_synthetic(5, 3, seed=4)
    pairs = [(i.debtor, i.creditor) for i in invoices]
    assert {c for pair in pairs for c in pair} == {"C1", "C2", "C3", "C4", "C5"}
    assert pairs[2][1] == pairs[0][0]


def test_amount_bounds():
    invoices = generate_synthetic(30, 100, seed=5, min_amount=1_000, max_amount=5_000)
    assert all(1_000 <= i.amount <= 5_000 for i in invoices)


def test_unique_invoice_ids():
    invoices = generate_synthetic(30, 100, seed=5)
    assert len({i.invoice_id for i in invoices}) == 100


@pytest.mark.parametrize(
    "companies,edges",
    [(1, 1), (3, 7), (4, 1), (10, 4)],
)
def test_infeasible_requests(companies, edges):
    with pytest.raises(InfeasibleRequest):
        generate_synthetic(companies, edges, seed=0)


def test_amounts_up_to_the_largest_float_draw():
    top = int(sys.float_info.max)
    invoices = generate_synthetic(4, 4, seed=0, min_amount=top, max_amount=top)
    assert [i.amount for i in invoices] == [top] * 4
    with pytest.raises(InfeasibleRequest, match="max_amount"):
        generate_synthetic(4, 4, seed=0, min_amount=top, max_amount=top + 1)
    with pytest.raises(InfeasibleRequest, match="max_amount"):
        generate_synthetic(4, 4, 0, top // 2, 10**309)


def test_dense_small_request():
    invoices = generate_synthetic(4, 12, seed=2)
    g = graph_of_invoices(invoices)
    assert g.edge_count() == 12
    assert len(g.vertices) == 4
