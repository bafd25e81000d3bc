from __future__ import annotations

import csv
import io
import json
import re
import sys
from datetime import date
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netcycle import (
    DebtGraph,
    DensityUndefinedError,
    IngestResult,
    Invoice,
    InvoiceError,
    PlanStep,
    RejectedRecord,
    SettlementPlan,
    StalePlanError,
    density,
    ingest_csv,
    plan_for_order,
    replay,
    write_invoices_csv,
)
from netcycle import ledger
from netcycle.circuits import component_adjacency, enumerate_graph
from netcycle.scc import tarjan
from conftest import (
    INTRO_EDGES, OVERLAP_EDGES, complete_digraph, graph_of, one_row_per_company, positions, total_weight,
)


def inv(i, debtor, creditor, amount):
    return Invoice(f"I{i}", debtor, creditor, amount, date(2020, 1, 1))


def ingest_invoices(records, *, strict=True) -> IngestResult:
    """ingest_csv over the CSV that write_invoices_csv makes of records."""
    out = io.StringIO()
    write_invoices_csv(out, records)
    return ingest_csv(io.StringIO(out.getvalue(), newline=""), strict=strict)


class TestIngest:
    def test_three_company_instance(self):
        records = [inv(i, u, v, w) for i, (u, v, w) in enumerate(INTRO_EDGES)]
        g = ingest_invoices(records).graph
        assert g.vertices == {"A", "B", "C"}
        assert dict(g.edges()) == {(u, v): w for u, v, w in INTRO_EDGES}

    def test_empty_stream(self):
        result = ingest_invoices([])
        assert result.graph.vertices == set()
        assert result.graph.edge_count() == 0

    def test_parallel_invoices_aggregate(self):
        g = ingest_invoices([inv(1, "A", "B", 10), inv(2, "A", "B", 15)]).graph
        assert g.weight("A", "B") == 25
        assert g.edge_count() == 1

    def test_antiparallel_edges_coexist(self):
        g = ingest_invoices([inv(1, "A", "B", 10), inv(2, "B", "A", 7)]).graph
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
            ingest_invoices([bad])

    def test_duplicate_invoice_id(self):
        records = [inv(1, "A", "B", 10), inv(1, "B", "C", 10)]
        with pytest.raises(InvoiceError, match="duplicate"):
            ingest_invoices(records)
        result = ingest_invoices(records, strict=False)
        assert result.accepted == 1
        assert result.rejects == [RejectedRecord("invoice 'I1'", "duplicate invoice_id 'I1'")]

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(8))))
    def test_order_independence(self, perm):
        records = [inv(i, f"c{i % 4}", f"c{(i + 1) % 4}", 10 + i) for i in range(8)]
        base = ingest_invoices(records).graph
        shuffled = ingest_invoices([records[i] for i in perm]).graph
        assert base == shuffled

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7))
    def test_split_linearity(self, cut):
        records = [inv(i, f"c{i % 3}", f"c{(i + 1) % 3}", 5 * i + 1) for i in range(8)]
        whole = ingest_invoices(records).graph
        first = ingest_invoices(records[:cut]).graph
        second = ingest_invoices(records[cut:]).graph
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

    @pytest.mark.parametrize("raw_date", ["20200101", "2020-W01-1", "2020W011", "2020-W01", "2020W01"])
    def test_issue_date_is_yyyy_mm_dd_only(self, raw_date):
        # from Python 3.11 date.fromisoformat accepts each of these
        text = self.CSV + f"I4,A,B,5,{raw_date}\n"
        with pytest.raises(InvoiceError, match="issue_date is not an ISO date") as exc:
            ingest_csv(io.StringIO(text))
        assert exc.value.locator == "line 5"
        result = ingest_csv(io.StringIO(text), strict=False)
        assert result.accepted == 3
        assert result.rejects == [RejectedRecord("line 5", f"issue_date is not an ISO date: {raw_date!r}")]

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

    def test_longest_amounts_aggregate_and_round_trip(self):
        # ten amounts of the most digits allowed sum on one edge to one
        # more digit, which graph.json must still write and read back
        longest = "9" * ledger.MAX_AMOUNT_DIGITS
        rows = "".join(f"I{i},A,B,{longest},2019-01-01\n" for i in range(10))
        result = ingest_csv(io.StringIO("invoice_id,debtor,creditor,amount_minor,issue_date\n" + rows))
        assert result.accepted == 10
        assert result.graph.weight("A", "B") == 10 * int(longest)
        text = result.graph.to_json()
        assert DebtGraph.from_json(text) == result.graph

    def test_amount_past_the_interpreter_limit_is_rejected(self):
        # an interpreter may convert fewer digits than MAX_AMOUNT_DIGITS
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            result = ingest_csv(io.StringIO(self.CSV + f"I4,A,B,{'7' * 700},2019-01-01\n"), strict=False)
        finally:
            sys.set_int_max_str_digits(limit)
        assert result.accepted == 3
        assert [r.locator for r in result.rejects] == ["line 5"]
        assert result.rejects[0].reason.startswith("amount_minor cannot be read")

    @pytest.mark.parametrize("company", ["X,Y", "X\nY", "X\rY"])
    def test_company_id_with_delimiter_is_rejected(self, company):
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

    def test_extra_field_is_rejected(self):
        text = self.CSV + "I4,A,B,5,2020-01-01,EXTRA\n"
        with pytest.raises(InvoiceError, match="extra field") as exc:
            ingest_csv(io.StringIO(text))
        assert exc.value.locator == "line 5"
        result = ingest_csv(io.StringIO(text), strict=False)
        assert result.accepted == 3
        assert result.rejects == [RejectedRecord("line 5", "extra field(s): 6 fields, expected 5")]
        assert result.graph.weight("A", "B") == 3_200_000

    def test_short_row_names_missing_fields(self):
        result = ingest_csv(io.StringIO(self.CSV + "I4,A\n"), strict=False)
        assert result.rejects == [
            RejectedRecord("line 5", "missing field(s): creditor, amount_minor, issue_date")
        ]

    def test_blank_lines_are_skipped_and_counted(self):
        text = self.CSV.replace("\nI2", "\n\n\nI2") + "I4,D,D,5,2019-04-01\nI5,A\n"
        result = ingest_csv(io.StringIO(text), strict=False)
        assert result.accepted == 3
        assert [r.locator for r in result.rejects] == ["invoice 'I4'", "line 8"]

    def test_read_invoices_yields_line_numbers_and_raw_fields(self):
        text = self.CSV.replace("\nI2", "\n\nI2") + 'I4,"X\nY",B,ten\n'
        rows = list(ledger.read_invoices(io.StringIO(text, newline="")))
        assert [n for n, _ in rows] == [2, 4, 5, 7]
        assert rows[-1][1] == ["I4", "X\nY", "B", "ten"]


# The longest amount_minor the CSV format allows, written out here rather
# than read from ledger.MAX_AMOUNT_DIGITS, the code under test.
REFERENCE_MAX_DIGITS = 4000
# The bound on a graph.json edge weight, 20 digits past the longest amount.
REFERENCE_EDGE_BOUND = 10 ** (REFERENCE_MAX_DIGITS + 20)


def _reference_company_id(company: object, locator: str) -> None:
    if not isinstance(company, str) or not company:
        raise InvoiceError(locator, f"company id must be a non-empty string, got {company!r}")
    if any(ch in company for ch in ",\r\n"):
        raise InvoiceError(locator, f"company id {company!r} contains a comma or line break")


def _reference_parse_row(row: dict, locator: str) -> Invoice:
    """The per-row parse before row-inline ingest, over a DictReader row,
    plus the extra-field and amount-length rules (DictReader files extra
    fields under None)."""
    if None in row:
        n = len(ledger.CSV_HEADER)
        raise InvoiceError(locator, f"extra field(s): {n + len(row[None])} fields, expected {n}")
    missing = [k for k in ledger.CSV_HEADER if row.get(k) in (None, "")]
    if missing:
        raise InvoiceError(locator, f"missing field(s): {', '.join(missing)}")
    raw_amount = row["amount_minor"]
    if not (raw_amount.isascii() and raw_amount.isdigit()):
        raise InvoiceError(locator, f"amount_minor is not ASCII digits: {raw_amount!r}")
    if len(raw_amount) > REFERENCE_MAX_DIGITS:
        raise InvoiceError(locator, f"amount_minor has more than {REFERENCE_MAX_DIGITS} digits")
    try:
        # YYYY-MM-DD only: from Python 3.11 fromisoformat also takes 20200101
        if len(row["issue_date"]) != 10 or row["issue_date"][7] != "-":
            raise ValueError(row["issue_date"])
        issued = date.fromisoformat(row["issue_date"])
    except ValueError:
        raise InvoiceError(locator, f"issue_date is not an ISO date: {row['issue_date']!r}")
    return Invoice(row["invoice_id"], row["debtor"], row["creditor"], int(raw_amount), issued)


def _reference_check_invoice(item: Invoice, seen_ids: set[str], locator: str) -> None:
    """The per-invoice checks before row-inline ingest, first failure first."""
    if item.invoice_id in seen_ids:
        raise InvoiceError(locator, f"duplicate invoice_id {item.invoice_id!r}")
    _reference_company_id(item.debtor, locator)
    _reference_company_id(item.creditor, locator)
    if item.debtor == item.creditor:
        raise InvoiceError(locator, "debtor equals creditor")
    if item.amount <= 0:
        raise InvoiceError(locator, f"amount must be a positive integer, got {item.amount!r}")


def reference_ingest_csv(text: str, strict: bool) -> IngestResult:
    """The ingest loop before row-inline ingest: DictReader, the dict
    parse, then the invoice checks and add_obligation per row."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    assert reader.fieldnames == ledger.CSV_HEADER
    graph, rejects, seen_ids, accepted = DebtGraph(), [], set(), 0
    for row in reader:
        try:
            item = _reference_parse_row(row, f"line {reader.line_num}")
            _reference_check_invoice(item, seen_ids, f"invoice {item.invoice_id!r}")
        except InvoiceError as err:
            if strict:
                raise
            rejects.append(RejectedRecord(err.locator, err.reason))
            continue
        seen_ids.add(item.invoice_id)
        graph.add_obligation(item.debtor, item.creditor, item.amount)
        accepted += 1
    return IngestResult(graph, accepted, rejects)


# CSV rows: blank lines, five-field rows with each field drawn half the
# time from values that pass and half from values that fail one check, and
# rows of one to seven fields of any kind.
# Different strings that are easy to confuse. Ingest keeps ids as UTF-8
# bytes, and these must stay apart there as they do as strings.
CONFUSABLE_IDS = ["I1", "I1 ", "i1", "\u00e9", "e\u0301", "\U0001f600", "\ud83d\ude00", "\udc80", "\udc81"]
invoice_ids = st.sampled_from(["I2", "I3", "", *CONFUSABLE_IDS])
row_companies = st.one_of(
    st.sampled_from(["A", "B", "C ", "é"]), st.sampled_from(["", "A,B", "X\nY", "X\rY"])
)
row_amounts = st.one_of(
    st.sampled_from(["5", "017", "9" * REFERENCE_MAX_DIGITS]),
    st.sampled_from(["0", "00", "\u0663", "+5", "1_000", " 7", "-5", "", "9" * (REFERENCE_MAX_DIGITS + 1)]),
)
row_dates = st.one_of(
    st.just("2020-01-01"),
    st.sampled_from(["2020-02-30", "yesterday", "2020-1-1", "", "20200101", "2020-W01-1", "2020W011"]),
)
csv_rows = st.one_of(
    st.none(),
    st.tuples(invoice_ids, row_companies, row_companies, row_amounts, row_dates).map(list),
    st.lists(st.one_of(invoice_ids, row_companies, row_amounts, row_dates), min_size=1, max_size=7),
)


def csv_text(rows) -> str:
    out = io.StringIO()
    # with "\r\n" line ends, csv.writer quotes an id holding either character
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(ledger.CSV_HEADER)
    for row in rows:
        if row is None:
            out.write("\r\n")
        else:
            writer.writerow(row)
    return out.getvalue()


def outcome(text: str, strict: bool, ingest_fn):
    try:
        result = ingest_fn(text, strict)
    except InvoiceError as err:
        return ("error", err.locator, err.reason)
    return (result.graph, result.accepted, result.rejects)


class TestRowInlineIngest:
    """ingest_csv's inline accept test agrees with the per-row checks:
    same graph, same count, same rejects, same strict-mode error."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(csv_rows, max_size=12))
    @example([["I1", "A", "B", "5", "2020-01-01"], ["I1", "B", "C", "5", "2020-01-01"]])
    @example([["I1", "A", "B", "5", "2020-01-01", "EXTRA"], None, ["I2", "A,B", "C", "5", "2020-01-01"]])
    @example([["I1", "A", "A", "00", "2020-01-01"], ["I2", "A", "B", "\u0663", "2020-01-01"]])
    @example([["I1", "X\nY", "B", "5", "2020-01-01"], ["I2", "A", "B"], ["", "A", "B", "5", "2020-01-01"]])
    @example([["I1", "B", "X\rY", "5", "2020-01-01"], ["I2", "B", "X\nY", "5", "2020-01-01"]])
    # a rejected row leaves its id free for a later row
    @example([["I1", "A", "A", "5", "2020-01-01"], ["I1", "A", "B", "5", "2020-01-01"]])
    # ids that differ as strings are each accepted once, then refused as repeats
    @example([[i, "A", "B", "5", "2020-01-01"] for i in CONFUSABLE_IDS * 2])
    # a lone surrogate repeated is a duplicate like any other id
    @example([["\udc80", "A", "B", "5", "2020-01-01"], ["\udc80", "B", "C", "5", "2020-01-01"]])
    def test_matches_reference_loop(self, rows):
        text = csv_text(rows)
        for strict in (True, False):
            expected = outcome(text, strict, reference_ingest_csv)
            got = outcome(text, strict, lambda t, s: ingest_csv(io.StringIO(t, newline=""), strict=s))
            assert got == expected


def kept_once(graph: DebtGraph) -> bool:
    """Whether every edge key is the very object held in graph.vertices."""
    kept = {id(v) for v in graph.vertices}
    return all(id(u) in kept and all(id(v) in kept for v in row) for u, row in graph._adj.items())


class TestOneStringPerCompany:
    """ingest_csv keeps one string object per company: the id parsed from a
    later row is replaced by the object the first accepted row added."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(csv_rows, max_size=12))
    # multi-character ids: CPython shares one-character strings anyway
    @example([["I1", "C ", "Dx", "5", "2020-01-01"], ["I2", "C ", "Dx", "7", "2020-01-01"],
              ["I3", "Dx", "C ", "5", "2020-01-01"]])
    @example([["I1", "C ", "Dx", "5", "2020-01-01"], ["I2", "C ", "Dx", "7", "2020-01-01"],
              ["I2", "Dx", "C ", "5", "2020-01-01"], ["I3", "Dx", "C ", "5", "2020-01-01"]])
    def test_edge_keys_are_the_vertex_objects(self, rows):
        text = csv_text(rows)
        for strict in (True, False):
            try:
                result = ingest_csv(io.StringIO(text, newline=""), strict=strict)
            except InvoiceError:
                continue
            assert kept_once(result.graph)
            assert one_row_per_company(result.graph)


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


def settle(g: DebtGraph, circuit) -> int:
    """Settle one circuit on g as the package does, planned and then
    replayed; the amount settled per edge."""
    plan = plan_for_order(g, [circuit])
    replay(g, plan)
    return plan.steps[0].per_edge


def value(g: DebtGraph, circuit) -> int:
    """What settling the circuit on g would settle per edge, 0 if nothing."""
    return sum(step.per_edge for step in plan_for_order(g, [circuit]).steps)


class TestSettle:
    """Settling a circuit on the graph, the only way a graph's weights go
    down: its plan, replayed."""

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
        # a company whose every edge is settled away stays a company
        assert g.vertices == {"A", "B", "C"}
        assert g.index().verts == ["A", "B", "C"]
        assert json.loads(g.to_json())["vertices"] == ["A", "B", "C"]
        assert g == rebuilt(g)

    def test_stale_circuit_leaves_graph_untouched(self, intro_graph):
        plan = plan_for_order(intro_graph, [("A", "B", "C")])
        replay(intro_graph, plan)
        before = dict(intro_graph.edges())
        with pytest.raises(StalePlanError, match="now worth 0"):
            replay(intro_graph, plan)
        assert dict(intro_graph.edges()) == before

    @pytest.mark.parametrize("circuit", [("A", "B", "A", "B"), ()], ids=["edge-twice", "empty"])
    def test_bad_circuit_leaves_graph_untouched(self, circuit):
        g = graph_of([("A", "B", 5), ("B", "A", 8)])
        before = dict(g.edges())
        with pytest.raises(StalePlanError):
            replay(g, SettlementPlan([PlanStep(circuit, 5, 5 * len(circuit))], 0, [], "forced"))
        assert dict(g.edges()) == before

    def test_conservation(self, intro_graph):
        total = total_weight(intro_graph)
        x = settle(intro_graph, ("A", "B", "C"))
        assert total_weight(intro_graph) == total - 3 * x

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
        assert all(w > 0 for _, w in g.edges())


class TestCircuitValue:
    """A circuit's value, its minimum edge weight, as its plan records it."""

    def test_ring_of_four(self, ring4_graph):
        assert value(ring4_graph, ("A", "B", "C", "D")) == 600

    def test_missing_edge_is_zero(self, intro_graph):
        assert value(intro_graph, ("A", "C", "B")) == 0

    def test_zero_after_settle(self, intro_graph):
        settle(intro_graph, ("A", "B", "C"))
        assert value(intro_graph, ("A", "B", "C")) == 0

    def test_non_mutating(self, ring4_graph):
        before = dict(ring4_graph.edges())
        value(ring4_graph, ("A", "B", "C", "D"))
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
        loaded = DebtGraph.from_json(text)
        assert loaded == g and one_row_per_company(loaded)

    def test_edge_amount_bound(self):
        def load(amount):
            return DebtGraph.from_json(json.dumps({
                "vertices": ["A", "B"],
                "edges": [{"debtor": "A", "creditor": "B", "amount_minor": amount}],
            }))

        assert load(REFERENCE_EDGE_BOUND - 1).weight("A", "B") == REFERENCE_EDGE_BOUND - 1
        with pytest.raises(InvoiceError) as exc:
            load(REFERENCE_EDGE_BOUND)
        assert (exc.value.locator, exc.value.reason) == ("edges[0]", "amount has more than 4020 digits")

    def test_vertices_without_edges(self):
        g = DebtGraph()
        g.add_vertex("lonely")
        assert g.to_json() == '{\n  "vertices": [\n    "lonely"\n  ],\n  "edges": []\n}\n'

    def test_write_json_writes_one_source_row_at_a_time(self, overlap_graph):
        chunks: list[str] = []

        class Recorder:
            def write(self, text: str) -> None:
                chunks.append(text)

        overlap_graph.write_json(Recorder())
        assert "".join(chunks) == overlap_graph.to_json()
        rows_with_edges = sum(1 for v in overlap_graph.vertices if overlap_graph.successors(v))
        assert len(chunks) == rows_with_edges + 2
        for chunk in chunks[1:-1]:
            assert len(set(re.findall(r'"debtor": ("[^"]*")', chunk))) == 1

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
        assert result.graph == graph_of((i.debtor, i.creditor, i.amount) for i in invoices)
        text = result.graph.to_json()
        assert DebtGraph.from_json(text) == result.graph
        assert DebtGraph.from_json(text).to_json() == text


def reference_from_json(text: str) -> DebtGraph:
    """from_json written out plainly: every check and add_obligation per
    edge. Every id is checked before any repeat."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise InvoiceError("graph", f"not valid JSON: {err}") from None
    try:
        vertices, edges = payload["vertices"], payload["edges"]
    except (KeyError, TypeError):
        raise InvoiceError("graph", "expected an object with 'vertices' and 'edges'") from None
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise InvoiceError("graph", "'vertices' and 'edges' must be lists")
    g = DebtGraph()
    for i, v in enumerate(vertices):
        _reference_company_id(v, f"vertices[{i}]")
    for i, v in enumerate(vertices):
        if v in g.vertices:
            raise InvoiceError(f"vertices[{i}]", f"company id {v!r} is listed twice")
        g.add_vertex(v)
    for i, e in enumerate(edges):
        locator = f"edges[{i}]"
        try:
            u, v, amount = e["debtor"], e["creditor"], e["amount_minor"]
        except (KeyError, TypeError):
            raise InvoiceError(locator, "expected 'debtor', 'creditor' and 'amount_minor'") from None
        for company in (u, v):
            _reference_company_id(company, locator)
            if company not in g.vertices:
                raise InvoiceError(locator, f"company id {company!r} is not in 'vertices'")
        if u == v:
            raise InvoiceError(locator, "debtor equals creditor")
        # bool is an int subclass; True must not pass as an amount of 1
        if type(amount) is not int or amount <= 0:
            raise InvoiceError(locator, f"amount must be a positive integer, got {amount!r}")
        if amount >= REFERENCE_EDGE_BOUND:
            raise InvoiceError(locator, f"amount has more than {REFERENCE_MAX_DIGITS + 20} digits")
        if g.weight(u, v):
            raise InvoiceError(locator, f"edge {u!r} -> {v!r} is listed twice")
        g.add_obligation(u, v, amount)
    return g


json_ids = st.sampled_from(["A", "B", "C", "", "A,B", "X\nY", "X\rY", 1, None, ["A"]])
json_edges = st.one_of(
    st.fixed_dictionaries({
        "debtor": json_ids,
        "creditor": json_ids,
        "amount_minor": st.sampled_from(
            [1, 5, 0, -5, True, 5.0, "5", 10**20, REFERENCE_EDGE_BOUND - 1, REFERENCE_EDGE_BOUND]
        ),
    }),
    st.sampled_from([["A", "B", 5], "A", 5, None, {"debtor": "A", "creditor": "B"}]),
)


class TestGraphJsonLoad:
    """from_json's ordered chain of checks agrees with the reference loop:
    the same graph, or the same first error."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(json_ids, max_size=5), st.lists(json_edges, max_size=6))
    @example(["A", "B"], [{"debtor": "A", "creditor": "B", "amount_minor": 2}] * 2)
    @example(["A", "B", "A"], [{"debtor": "A", "creditor": "B", "amount_minor": 2}])
    # the order of the chain: every vertex id before any repeat, then per
    # edge the debtor's id, its listing, the creditor, the self-loop, the amount
    @example(["A", "A", 1], [])
    @example(["A"], [{"debtor": "", "creditor": "B", "amount_minor": 1}])
    @example(["A"], [{"debtor": "A", "creditor": "B", "amount_minor": 0}])
    @example(["A"], [{"debtor": "A", "creditor": "A", "amount_minor": True}])
    def test_matches_reference_loop(self, vertices, edges):
        text = json.dumps({"vertices": vertices, "edges": edges})
        results = []
        for load in (reference_from_json, DebtGraph.from_json):
            try:
                results.append(load(text))
            except InvoiceError as err:
                results.append((err.locator, err.reason))
        assert results[1] == results[0]


LINE_BREAK_ID = "company id %r contains a comma or line break"

# ids and amounts for the builders: arbitrary text and ints, with repeats
# and values each rule refuses
builder_ids = st.one_of(st.sampled_from(["A", "B", "C", "", "A,B", "X\nY", "X\rY", 5, None]), st.text(max_size=3))
builder_amounts = st.one_of(
    st.integers(), st.sampled_from([REFERENCE_EDGE_BOUND - 1, REFERENCE_EDGE_BOUND, 2.5, True, "5"])
)
builder_calls = st.one_of(
    st.tuples(st.just("add_vertex"), builder_ids),
    st.tuples(st.just("add_obligation"), builder_ids, builder_ids, builder_amounts),
)


class TestBuilders:
    """add_vertex and add_obligation refuse what from_json refuses, in its
    order and with its reasons, before they change anything; a row from
    successors() cannot be written through."""

    @pytest.mark.parametrize("debtor, creditor, amount, reason", [
        ("A", "B", 2.5, "amount must be a positive integer, got 2.5"),
        ("A", "B", True, "amount must be a positive integer, got True"),
        ("A", "B", "5", "amount must be a positive integer, got '5'"),
        ("A", "B", 0, "amount must be a positive integer, got 0"),
        pytest.param("A", "B", 10**5000, "amount has more than 4020 digits", id="5001-digit amount"),
        # the edge's new weight: A -> B holds 7 already
        pytest.param("A", "B", REFERENCE_EDGE_BOUND - 7, "amount has more than 4020 digits", id="weight at bound"),
        ("A,B", "C", 5, LINE_BREAK_ID % "A,B"),
        ("A\rB", "C", 5, LINE_BREAK_ID % "A\rB"),
        ("C", "A\nB", 5, LINE_BREAK_ID % "A\nB"),
        ("C", "", 5, "company id must be a non-empty string, got ''"),
        (5, "A", 5, "company id must be a non-empty string, got 5"),
        ("C", "C", 5, "debtor equals creditor"),
        # the first failing check names the call, in from_json's order
        ("A,B", 5, 2.5, LINE_BREAK_ID % "A,B"),
        ("C", "C", 2.5, "debtor equals creditor"),
    ])
    def test_refused_obligation_changes_nothing(self, debtor, creditor, amount, reason):
        g = graph_of([("A", "B", 7), ("B", "A", 3)])
        before = g.copy()
        with pytest.raises(ValueError) as exc:
            g.add_obligation(debtor, creditor, amount)
        assert str(exc.value) == reason
        assert g == before and "C" not in g
        assert DebtGraph.from_json(g.to_json()) == g

    def test_weight_below_the_bound_is_kept(self):
        g = graph_of([("A", "B", 7)])
        g.add_obligation("A", "B", REFERENCE_EDGE_BOUND - 8)
        assert DebtGraph.from_json(g.to_json()).weight("A", "B") == REFERENCE_EDGE_BOUND - 1

    @pytest.mark.parametrize("company, reason", [
        (5, "company id must be a non-empty string, got 5"),
        (None, "company id must be a non-empty string, got None"),
        (("A",), "company id must be a non-empty string, got ('A',)"),
        ("", "company id must be a non-empty string, got ''"),
        ("A,B", LINE_BREAK_ID % "A,B"),
        ("A\rB", LINE_BREAK_ID % "A\rB"),
        ("A\nB", LINE_BREAK_ID % "A\nB"),
    ])
    def test_refused_vertex_changes_nothing(self, company, reason):
        g = graph_of([("A", "B", 7)])
        before = g.copy()
        with pytest.raises(ValueError) as exc:
            g.add_vertex(company)
        assert str(exc.value) == reason
        assert g == before
        assert g.index().verts == ["A", "B"]

    def test_successors_is_read_only(self):
        g = graph_of([("A", "B", 7)])
        row = g.successors("A")
        for company, weight in (("Z", 5), ("B", -7)):
            with pytest.raises(TypeError):
                row[company] = weight
        with pytest.raises(TypeError):
            del row["B"]
        assert g.successors("Z") == {}
        assert g == graph_of([("A", "B", 7)])
        assert g.index().verts == ["A", "B"]
        g.add_obligation("A", "C", 1)
        assert row == {"B": 7, "C": 1}  # a view of the row, not a copy

    @settings(max_examples=200, deadline=None)
    @given(st.lists(builder_calls, max_size=12))
    @example([("add_obligation", "A", "B", REFERENCE_EDGE_BOUND - 1), ("add_obligation", "A", "B", 1)])
    def test_accepted_calls_round_trip_and_refused_calls_change_nothing(self, calls):
        g = DebtGraph()
        for name, *args in calls:
            before = g.copy()
            try:
                getattr(g, name)(*args)
            except ValueError:
                assert g == before
        assert DebtGraph.from_json(g.to_json()) == g
        assert one_row_per_company(g)


class TestIndex:
    """The sorted index is shared by to_json, tarjan and
    component_adjacency, and never outlives the graph state it describes."""

    def views(self, g: DebtGraph):
        return g.to_json(), tarjan(g), component_adjacency(g, positions(g, g.vertices))

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
        settle(g, ("A", "B", "C", "D"))  # a replay that removes four edges
        assert self.views(g) == self.views(rebuilt(g))
        g.add_obligation("E", "Z", 9)  # a new vertex and edge
        assert self.views(g) == self.views(rebuilt(g))

    def test_copy_never_carries_a_stale_index(self, overlap_graph):
        before = overlap_graph.to_json()
        twin = overlap_graph.copy()
        overlap_graph.add_obligation("A", "Q", 5)
        assert twin.to_json() == before
        twin.add_obligation("Q", "A", 5)
        assert self.views(twin) == self.views(rebuilt(twin))
        assert one_row_per_company(twin)
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
