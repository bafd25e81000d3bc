from __future__ import annotations

import io
import json
from datetime import date
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netcycle import (
    DebtGraph,
    DensityUndefinedError,
    Invoice,
    InvoiceError,
    StaleCircuitError,
    circuit_value,
    density,
    ingest,
    ingest_csv,
    settle,
    write_invoices_csv,
)
from netcycle import ledger
from netcycle.circuits import component_adjacency, enumerate_graph
from netcycle.scc import tarjan
from conftest import INTRO_EDGES, OVERLAP_EDGES, complete_digraph, graph_of


def inv(i, debtor, creditor, amount):
    return Invoice(f"I{i}", debtor, creditor, amount, date(2020, 1, 1))


class TestIngest:
    def test_three_company_instance(self):
        records = [inv(i, u, v, w) for i, (u, v, w) in enumerate(INTRO_EDGES)]
        g = ingest(records).graph
        assert g.vertices == {"A", "B", "C"}
        assert dict(g.edges()) == {(u, v): w for u, v, w in INTRO_EDGES}

    def test_empty_stream(self):
        result = ingest([])
        assert result.graph.vertices == set()
        assert result.graph.edge_count() == 0

    def test_parallel_invoices_aggregate(self):
        g = ingest([inv(1, "A", "B", 10), inv(2, "A", "B", 15)]).graph
        assert g.weight("A", "B") == 25
        assert g.edge_count() == 1

    def test_antiparallel_edges_coexist(self):
        g = ingest([inv(1, "A", "B", 10), inv(2, "B", "A", 7)]).graph
        assert g.weight("A", "B") == 10
        assert g.weight("B", "A") == 7

    @pytest.mark.parametrize(
        "bad",
        [
            inv(9, "A", "A", 10),
            inv(9, "A", "B", 0),
            inv(9, "A", "B", -5),
            inv(9, "A", "B", True),
            Invoice("", "A", "B", 10, date(2020, 1, 1)),
        ],
    )
    def test_strict_rejects(self, bad):
        with pytest.raises(InvoiceError):
            ingest([bad])

    def test_duplicate_invoice_id(self):
        records = [inv(1, "A", "B", 10), inv(1, "B", "C", 10)]
        with pytest.raises(InvoiceError, match="duplicate"):
            ingest(records)
        result = ingest(records, strict=False)
        assert result.accepted == 1
        assert len(result.rejects) == 1
        assert "record 2" in result.rejects[0].locator

    def test_lenient_reports_locator(self):
        result = ingest([inv(1, "A", "B", 10), inv(2, "C", "C", 5)], strict=False)
        assert result.accepted == 1
        assert result.rejects[0].locator == "record 2"

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(8))))
    def test_order_independence(self, perm):
        records = [inv(i, f"c{i % 4}", f"c{(i + 1) % 4}", 10 + i) for i in range(8)]
        base = ingest(records).graph
        shuffled = ingest([records[i] for i in perm]).graph
        assert base == shuffled

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7))
    def test_split_linearity(self, cut):
        records = [inv(i, f"c{i % 3}", f"c{(i + 1) % 3}", 5 * i + 1) for i in range(8)]
        whole = ingest(records).graph
        first = ingest(records[:cut]).graph
        second = ingest(records[cut:]).graph
        merged = DebtGraph()
        for part in (first, second):
            for v in part.vertices:
                merged.add_vertex(v)
            for (u, v), w in part.edges():
                merged.add_obligation(u, v, w)
        assert merged == whole


class TestCsv:
    CSV = (
        "invoice_id,debtor,creditor,amount_minor,issue_date\n"
        "I1,A,B,3200000,2019-03-01\n"
        "I2,B,C,2300000,2019-03-02\n"
        "I3,C,A,2500000,2019-03-03\n"
    )

    def test_roundtrip(self):
        result = ingest_csv(io.StringIO(self.CSV))
        assert result.accepted == 3
        assert result.graph.weight("A", "B") == 3_200_000
        out = io.StringIO()
        invoices = [
            Invoice("I1", "A", "B", 3_200_000, date(2019, 3, 1)),
            Invoice("I2", "B", "C", 2_300_000, date(2019, 3, 2)),
            Invoice("I3", "C", "A", 2_500_000, date(2019, 3, 3)),
        ]
        write_invoices_csv(out, invoices)
        assert out.getvalue() == self.CSV

    def test_bad_header(self):
        with pytest.raises(InvoiceError, match="header"):
            ingest_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_locator_is_line_number(self):
        text = self.CSV + "I4,D,D,5,2019-04-01\n"
        with pytest.raises(InvoiceError, match="debtor equals creditor"):
            ingest_csv(io.StringIO(text))
        result = ingest_csv(io.StringIO(text), strict=False)
        assert result.rejects[0].locator == "invoice 'I4'"

    def test_malformed_amount_and_date(self):
        text = (
            "invoice_id,debtor,creditor,amount_minor,issue_date\n"
            "I1,A,B,ten,2019-01-01\n"
            "I2,A,B,10,yesterday\n"
            "I3,A,B,10,2019-01-01\n"
        )
        result = ingest_csv(io.StringIO(text), strict=False)
        assert result.accepted == 1
        assert [r.locator for r in result.rejects] == ["line 2", "line 3"]

    def test_amount_accepts_ascii_digits_only(self):
        header = "invoice_id,debtor,creditor,amount_minor,issue_date\n"
        bad = ["1_000", " 7", "7 ", "\u0663", "+5", "-5", "0x10", "1e3"]
        for amount in bad + ["0"]:
            with pytest.raises(InvoiceError, match="amount"):
                ingest_csv(io.StringIO(header + f"I1,A,B,{amount},2019-01-01\n"))
        rows = [f"I{i},A,B,{amount},2019-01-01\n" for i, amount in enumerate(bad + ["0", "15"])]
        result = ingest_csv(io.StringIO(header + "".join(rows)), strict=False)
        assert result.accepted == 1
        assert len(result.rejects) == len(bad) + 1
        assert result.graph.weight("A", "B") == 15

    @pytest.mark.parametrize("company", ["X,Y", "X\nY", "X\rY"])
    def test_company_id_with_delimiter_is_rejected(self, company):
        with pytest.raises(InvoiceError, match="company id"):
            ingest([Invoice("I1", company, "B", 5, date(2020, 1, 1))])
        with pytest.raises(InvoiceError, match="company id"):
            ingest([Invoice("I1", "B", company, 5, date(2020, 1, 1))])
        text = f'invoice_id,debtor,creditor,amount_minor,issue_date\nI1,"{company}",B,5,2020-01-01\nI2,B,C,5,2020-01-01\n'
        result = ingest_csv(io.StringIO(text), strict=False)
        assert result.accepted == 1
        assert [r.locator for r in result.rejects] == ["invoice 'I1'"]

    def test_unparseable_csv_is_invoice_error(self):
        text = "invoice_id,debtor,creditor,amount_minor,issue_date\nI1,X\rY,B,5,2020-01-01\n"
        for strict in (True, False):
            with pytest.raises(InvoiceError, match="malformed CSV"):
                ingest_csv(io.StringIO(text), strict=strict)

    def test_header_only(self):
        result = ingest_csv(io.StringIO("invoice_id,debtor,creditor,amount_minor,issue_date\n"))
        assert result.accepted == 0
        assert result.graph.vertices == set()


class TestDensity:
    def test_three_vertices_three_edges(self, intro_graph):
        assert density(intro_graph) == Fraction(1, 2)

    def test_complete_digraph_is_one(self):
        assert density(complete_digraph(4)) == 1

    def test_exact_rational(self):
        g = graph_of([("A", "B", 1), ("B", "C", 1)])
        assert density(g) == Fraction(2, 6)

    def test_undefined_below_two_vertices(self):
        g = DebtGraph()
        with pytest.raises(DensityUndefinedError):
            density(g)
        g.add_vertex("A")
        with pytest.raises(DensityUndefinedError):
            density(g)


class TestSettle:
    def test_three_company_settlement(self, intro_graph):
        x = settle(intro_graph, ("A", "B", "C"))
        assert x == 2_300_000
        assert intro_graph.weight("A", "B") == 900_000
        assert intro_graph.weight("B", "C") == 0
        assert ("B", "C") not in dict(intro_graph.edges())
        assert intro_graph.weight("C", "A") == 200_000

    def test_ring_of_four_removes_minimum_edge(self, ring4_graph):
        x = settle(ring4_graph, ("A", "B", "C", "D"))
        assert x == 600
        assert ring4_graph.weight("D", "A") == 0
        assert ring4_graph.weight("A", "B") == 900
        assert ring4_graph.weight("B", "C") == 300
        assert ring4_graph.weight("C", "D") == 1_500

    def test_uniform_circuit_vanishes(self):
        g = graph_of([("A", "B", 9), ("B", "C", 9), ("C", "A", 9)])
        assert settle(g, ("A", "B", "C")) == 9
        assert g.edge_count() == 0

    def test_stale_circuit_leaves_graph_untouched(self, intro_graph):
        settle(intro_graph, ("A", "B", "C"))
        before = dict(intro_graph.edges())
        with pytest.raises(StaleCircuitError):
            settle(intro_graph, ("A", "B", "C"))
        assert dict(intro_graph.edges()) == before

    def test_conservation(self, intro_graph):
        total = intro_graph.total_weight()
        x = settle(intro_graph, ("A", "B", "C"))
        assert intro_graph.total_weight() == total - 3 * x

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 100), min_size=3, max_size=6))
    def test_settle_never_negative(self, weights):
        names = [f"n{i}" for i in range(len(weights))]
        g = DebtGraph()
        for i, w in enumerate(weights):
            g.add_obligation(names[i], names[(i + 1) % len(names)], w)
        circuit = tuple(names)
        x = settle(g, circuit)
        assert x == min(weights)
        assert all(w >= 0 for _, w in g.edges())


class TestCircuitValue:
    def test_ring_of_four(self, ring4_graph):
        assert circuit_value(ring4_graph, ("A", "B", "C", "D")) == 600

    def test_missing_edge_is_zero(self, intro_graph):
        assert circuit_value(intro_graph, ("A", "C", "B")) == 0

    def test_zero_after_settle(self, intro_graph):
        settle(intro_graph, ("A", "B", "C"))
        assert circuit_value(intro_graph, ("A", "B", "C")) == 0

    def test_non_mutating(self, ring4_graph):
        before = dict(ring4_graph.edges())
        circuit_value(ring4_graph, ("A", "B", "C", "D"))
        assert dict(ring4_graph.edges()) == before


class TestSnapshot:
    def test_roundtrip_and_determinism(self, overlap_graph):
        text = overlap_graph.to_json()
        again = DebtGraph.from_json(text)
        assert again == overlap_graph
        assert again.to_json() == text

    def test_sorted_edges(self, intro_graph):
        text = intro_graph.to_json()
        a = text.index('"debtor": "A"')
        b = text.index('"debtor": "B"')
        c = text.index('"debtor": "C"')
        assert a < b < c


# Company ids that to_json must quote as json.dumps does: quotes,
# backslashes, control characters, non-ASCII and astral characters. ",",
# "\r" and "\n" are excluded because no graph may hold them.
company_ids = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\t\x0b\u2028 é€😀'),
        st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n"),
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def debt_graphs(draw) -> DebtGraph:
    """Graphs with isolated vertices, vertices without out-edges and
    antiparallel pairs."""
    names = draw(st.lists(company_ids, unique=True, max_size=8))
    g = DebtGraph()
    for v in names:
        g.add_vertex(v)
    if len(names) >= 2:
        pairs = st.tuples(st.sampled_from(names), st.sampled_from(names), st.integers(1, 10**15))
        for u, v, w in draw(st.lists(pairs, max_size=20)):
            if u != v:
                g.add_obligation(u, v, w)
    return g


def reference_json(g: DebtGraph) -> str:
    payload = {
        "vertices": sorted(g.vertices),
        "edges": [
            {"debtor": u, "creditor": v, "amount_minor": w}
            for (u, v), w in sorted(g.edges())
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def rebuilt(g: DebtGraph) -> DebtGraph:
    """A graph with g's contents, built from scratch."""
    fresh = DebtGraph()
    for v in g.vertices:
        fresh.add_vertex(v)
    for (u, v), w in g.edges():
        fresh.add_obligation(u, v, w)
    return fresh


class TestGraphJson:
    @settings(max_examples=150, deadline=None)
    @given(debt_graphs())
    @example(DebtGraph())
    @example(graph_of([("A", "B", 1)]))
    def test_matches_json_dumps_and_round_trips(self, g):
        text = g.to_json()
        assert text == reference_json(g)
        assert DebtGraph.from_json(text) == g

    def test_vertices_without_edges(self):
        g = DebtGraph()
        g.add_vertex("lonely")
        assert g.to_json() == '{\n  "vertices": [\n    "lonely"\n  ],\n  "edges": []\n}\n'

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(company_ids, company_ids, st.integers(1, 10**12)), max_size=15))
    def test_csv_to_graph_json_round_trip(self, rows):
        invoices = [
            Invoice(f"I{i}", u, v, w, date(2020, 1, 1)) for i, (u, v, w) in enumerate(rows) if u != v
        ]
        out = io.StringIO()
        write_invoices_csv(out, invoices)
        result = ingest_csv(io.StringIO(out.getvalue(), newline=""))
        assert result.accepted == len(invoices)
        assert result.graph == ingest(invoices).graph
        text = result.graph.to_json()
        assert DebtGraph.from_json(text) == result.graph
        assert DebtGraph.from_json(text).to_json() == text


class TestIndex:
    """The sorted index is shared by to_json, tarjan and
    component_adjacency, and never outlives the graph state it describes."""

    def views(self, g: DebtGraph):
        return g.to_json(), tarjan(g), component_adjacency(g, sorted(g.vertices))

    def test_rows_ascending_in_id_order(self, overlap_graph):
        index = overlap_graph.index()
        assert index.verts == sorted(overlap_graph.vertices)
        rows = {
            v: [index.verts[j] for j in index.indices[index.indptr[i]:index.indptr[i + 1]]]
            for i, v in enumerate(index.verts)
        }
        assert rows == {v: sorted(overlap_graph.successors(v)) for v in index.verts}

    def test_cached_until_the_graph_changes(self, overlap_graph):
        index = overlap_graph.index()
        assert overlap_graph.index() is index
        overlap_graph.add_obligation("A", "B", 1)
        assert overlap_graph.index() is not index
        assert overlap_graph.index() == index  # same vertices and edges

    def test_settle_add_and_replace_are_seen(self, overlap_graph):
        g = overlap_graph
        self.views(g)
        settle(g, ("A", "B", "C", "D"))  # removes four edges
        assert self.views(g) == self.views(rebuilt(g))
        g.add_obligation("E", "Z", 9)  # a new vertex and edge
        assert self.views(g) == self.views(rebuilt(g))
        other = graph_of(INTRO_EDGES)
        g.replace_with(other)
        assert self.views(g) == self.views(rebuilt(other))

    def test_copy_never_carries_a_stale_index(self, overlap_graph):
        before = overlap_graph.to_json()
        twin = overlap_graph.copy()
        overlap_graph.add_obligation("A", "Q", 5)
        assert twin.to_json() == before
        twin.add_obligation("Q", "A", 5)
        assert self.views(twin) == self.views(rebuilt(twin))
        assert overlap_graph.to_json() != twin.to_json()

    def test_one_build_per_graph_state(self, monkeypatch):
        builds = []
        build = ledger._build_index

        def counted(*args):
            builds.append(1)
            return build(*args)

        monkeypatch.setattr(ledger, "_build_index", counted)
        g = graph_of(OVERLAP_EDGES)
        g.to_json()
        partition = tarjan(g)
        enumerate_graph(g, partition)
        assert len(builds) == 1
