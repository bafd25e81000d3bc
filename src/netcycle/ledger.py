"""Invoice ingestion and the weighted directed debt graph.

Companies are vertices; an edge (u, v) with weight w means u owes v the
amount w, aggregated over all invoices from u to v. All amounts are exact
integers in minor currency units. Floating point never touches money.

Each graph keeps one sorted CSR index (`DebtGraph.index`), built on first
use and dropped by every mutation. The `graph.json` writer, Tarjan's SCC
search and the circuit search all read that one index, so the ids are
sorted and numbered once per graph state.

Every reader runs one ordered chain of checks per record, CSV rows in
`ingest_csv` and `graph.json` vertices and edges in `DebtGraph.from_json`
alike: the first check that fails names the record, and a record that
passes them all goes straight into the graph. `_id_fault` states the
company-id rule once for both, and a locator is built only for a record
that fails.

A graph grows through `add_vertex` and `add_obligation`. Settlement
lowers it through one method, `DebtGraph._set_weight`, which
`settlement.replay` calls once per edge of a plan, after every step of
the plan has checked out.

`DebtGraph.write_json` streams `graph.json` one source row at a time, so
no copy of the whole text is held in memory.
"""

from __future__ import annotations

import csv
import io
import json
from array import array
from dataclasses import dataclass
from datetime import date
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import IO, Iterable, Iterator, KeysView

CompanyId = str

# A circuit is a cycle v1 -> v2 -> ... -> vk -> v1, stored in canonical
# rotation: the tuple starts at the smallest vertex id.
Circuit = tuple[CompanyId, ...]

CSV_HEADER = ["invoice_id", "debtor", "creditor", "amount_minor", "issue_date"]

# The most digits an amount_minor field may hold. Python converts an int
# to or from text only up to 4 300 digits by default; at 4 000, sums of
# accepted amounts, edge weights and plan totals stay far below that.
MAX_AMOUNT_DIGITS = 4000

# Every graph.json edge weight is below this. It admits the sum of 10**20
# ingested amounts on one pair, and since a plan's total never exceeds
# the sum of the graph's weights, every later sum stays far below 4 300
# digits; a weight near that limit would pass graph.json only to crash
# the plans.json write.
EDGE_AMOUNT_BOUND = 10 ** (MAX_AMOUNT_DIGITS + 20)


class InvoiceError(ValueError):
    """A record failed validation. `locator` names the offending record."""

    def __init__(self, locator: str, reason: str):
        super().__init__(f"{locator}: {reason}")
        self.locator = locator
        self.reason = reason


class DensityUndefinedError(ValueError):
    """Density requires at least two vertices."""


@dataclass(frozen=True)
class Invoice:
    """One payment obligation: debtor owes creditor `amount` minor units."""

    invoice_id: str
    debtor: CompanyId
    creditor: CompanyId
    amount: int
    issue_date: date


@dataclass(frozen=True)
class RejectedRecord:
    locator: str
    reason: str


@dataclass
class IngestResult:
    graph: "DebtGraph"
    accepted: int
    rejects: list[RejectedRecord]


@dataclass(frozen=True)
class GraphIndex:
    """A graph's vertices and edges over positions in sorted id order.

    verts lists the ids ascending; the successors of verts[i] are
    indices[indptr[i]:indptr[i + 1]], ascending. Position order is id
    order, so a walk row by row meets the edges in sorted (debtor,
    creditor) order. Weights stay in the graph.
    """

    verts: list[CompanyId]
    indptr: array
    indices: array


def _build_index(adj: dict[CompanyId, dict[CompanyId, int]]) -> GraphIndex:
    verts = sorted(adj)
    pos = {v: i for i, v in enumerate(verts)}
    indptr = array("l", [0])
    indices = array("l")
    for v in verts:
        indices.extend(sorted([pos[w] for w in adj[v]]))
        indptr.append(len(indices))
    return GraphIndex(verts, indptr, indices)


class DebtGraph:
    """Weighted directed simple graph of aggregated net obligations.

    Invariants: no self-loops, all weights > 0 (an edge is removed the
    moment its weight reaches zero), at most one edge per ordered pair.
    Antiparallel pairs (u, v) and (v, u) may coexist. Every company has a
    row in the adjacency map, empty when it owes nothing, so the company
    set is the map's key set; a company whose edges are all settled away
    stays a company.
    """

    __slots__ = ("_adj", "_index")

    def __init__(self) -> None:
        # company -> {creditor: weight}, one row per company, possibly empty
        self._adj: dict[CompanyId, dict[CompanyId, int]] = {}
        # the sorted index of the current vertices and edges, or None
        self._index: GraphIndex | None = None

    @property
    def vertices(self) -> KeysView[CompanyId]:
        """The companies, a read-only view of the map's keys; see add_vertex."""
        return self._adj.keys()

    def __contains__(self, vertex: CompanyId) -> bool:
        return vertex in self._adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DebtGraph):
            return NotImplemented
        return self._adj == other._adj

    def add_vertex(self, v: CompanyId) -> None:
        if not v:
            raise ValueError("company id must be non-empty")
        self._adj.setdefault(v, {})
        self._index = None

    def add_obligation(self, debtor: CompanyId, creditor: CompanyId, amount: int) -> None:
        """Aggregate `amount` onto the (debtor, creditor) edge."""
        if debtor == creditor:
            raise ValueError("self-obligation is not representable")
        if amount <= 0:
            raise ValueError("obligation amount must be positive")
        self.add_vertex(debtor)  # drops the index
        self.add_vertex(creditor)
        row = self._adj[debtor]
        row[creditor] = row.get(creditor, 0) + amount

    def weight(self, debtor: CompanyId, creditor: CompanyId) -> int:
        """Current weight of (debtor, creditor), 0 if the edge is absent."""
        return self._adj.get(debtor, {}).get(creditor, 0)

    def successors(self, debtor: CompanyId) -> dict[CompanyId, int]:
        return self._adj.get(debtor, {})

    def edges(self) -> Iterator[tuple[tuple[CompanyId, CompanyId], int]]:
        for u, row in self._adj.items():
            for v, w in row.items():
                yield (u, v), w

    def edge_count(self) -> int:
        return sum(len(row) for row in self._adj.values())

    def index(self) -> GraphIndex:
        """The sorted index of the graph as it is now, built on first use
        and kept until the graph changes. Two builds of one state are
        equal."""
        if self._index is None:
            self._index = _build_index(self._adj)
        return self._index

    def copy(self) -> "DebtGraph":
        """An independent graph with the same contents and no index yet."""
        g = DebtGraph()
        g._adj = {u: dict(row) for u, row in self._adj.items()}
        return g

    def _set_weight(self, u: CompanyId, v: CompanyId, weight: int) -> None:
        """Store the weight of the existing edge (u, v), removing the edge
        at 0. Settlement's one write: `replay` stores each checked weight
        through it."""
        self._index = None
        if weight:
            self._adj[u][v] = weight
        else:
            del self._adj[u][v]

    # -- serialization --------------------------------------------------

    def write_json(self, fh: IO[str]) -> None:
        """Write the deterministic snapshot to fh: sorted vertices, edges
        sorted by pair.

        The text is exactly json.dumps(payload, indent=2) + "\\n" for
        {"vertices": [...], "edges": [{"debtor", "creditor",
        "amount_minor"}, ...]}, but written one source row at a time from
        the index, with each id quoted once by the encoder json.dumps
        itself uses.
        """
        index = self.index()
        verts, indptr, indices = index.verts, index.indptr, index.indices
        quoted = [encode_basestring_ascii(v) for v in verts]
        write = fh.write
        write('{\n  "vertices": ' + _json_list(quoted) + ',\n  "edges": ')
        sep = "[\n    "
        for i, u in enumerate(verts):
            start, end = indptr[i], indptr[i + 1]
            if start == end:
                continue
            row = self._adj[u]
            head = '{\n      "debtor": ' + quoted[i] + ',\n      "creditor": '
            write(sep + ",\n    ".join([
                f'{head}{quoted[j]},\n      "amount_minor": {row[verts[j]]}\n    }}'
                for j in indices[start:end]
            ]))
            sep = ",\n    "
        write("[]\n}\n" if sep == "[\n    " else "\n  ]\n}\n")

    def to_json(self) -> str:
        """The write_json text as one string."""
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()

    @classmethod
    def from_json(cls, text: str) -> "DebtGraph":
        """Read a snapshot written by write_json, giving every listed vertex
        a row before any edge is read. Anything that it could not have
        written raises InvoiceError for the first failing check, in this
        order: text that is not JSON, nests past the recursion limit or
        holds an int too long to read; a missing 'vertices' or 'edges'
        list; a vertex id that is not a non-empty string free of ',', '\\r'
        and '\\n'; a vertex listed twice; then edge by edge, missing keys,
        a debtor and then a creditor that is a bad id or not a listed
        vertex, a self-loop, an amount that is not a positive int or not
        below EDGE_AMOUNT_BOUND, an edge listed twice."""
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as err:  # ValueError: also an int past 4 300 digits
            raise InvoiceError("graph", f"not valid JSON: {err}") from None
        try:
            vertices, edges = payload["vertices"], payload["edges"]
        except (KeyError, TypeError):
            raise InvoiceError("graph", "expected an object with 'vertices' and 'edges'") from None
        if not isinstance(vertices, list) or not isinstance(edges, list):
            raise InvoiceError("graph", "'vertices' and 'edges' must be lists")
        # every id is checked before any repeat, so the first bad id wins
        for i, v in enumerate(vertices):
            if reason := _id_fault(v):
                raise InvoiceError(f"vertices[{i}]", reason)
        g = cls()
        adj = g._adj
        for i, v in enumerate(vertices):
            if v in adj:
                raise InvoiceError(f"vertices[{i}]", f"company id {v!r} is listed twice")
            adj[v] = {}
        for i, e in enumerate(edges):
            try:
                u, v, amount = e["debtor"], e["creditor"], e["amount_minor"]
            except (KeyError, TypeError):  # not an object, or a key missing
                raise InvoiceError(f"edges[{i}]", "expected 'debtor', 'creditor' and 'amount_minor'") from None
            # a lookup fails for an unlisted id (KeyError) or an unhashable
            # one (TypeError); the keys of `adj` passed _id_fault above
            try:
                row = adj[u]
            except (KeyError, TypeError):
                raise InvoiceError(f"edges[{i}]", _id_fault(u) or f"company id {u!r} is not in 'vertices'") from None
            try:
                adj[v]
            except (KeyError, TypeError):
                raise InvoiceError(f"edges[{i}]", _id_fault(v) or f"company id {v!r} is not in 'vertices'") from None
            if u == v:
                raise InvoiceError(f"edges[{i}]", "debtor equals creditor")
            # bool is an int subclass; True must not pass as an amount of 1
            if type(amount) is not int or amount <= 0:
                raise InvoiceError(f"edges[{i}]", f"amount must be a positive integer, got {amount!r}")
            if amount >= EDGE_AMOUNT_BOUND:
                raise InvoiceError(f"edges[{i}]", f"amount has more than {MAX_AMOUNT_DIGITS + 20} digits")
            if v in row:
                raise InvoiceError(f"edges[{i}]", f"edge {u!r} -> {v!r} is listed twice")
            row[v] = amount
        return g


def _json_list(items: list[str]) -> str:
    """A list of encoded items laid out as json.dumps(indent=2) lays out a
    list that is the value of a top-level key."""
    if not items:
        return "[]"
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


def circuit_edges(circuit: tuple[CompanyId, ...]) -> Iterator[tuple[CompanyId, CompanyId]]:
    k = len(circuit)
    for i in range(k):
        yield circuit[i], circuit[(i + 1) % k]


def canonical_rotation(vertices: Iterable[CompanyId]) -> tuple[CompanyId, ...]:
    """Rotate a cycle's vertex list to start at the smallest id."""
    seq = tuple(vertices)
    pivot = seq.index(min(seq))
    return seq[pivot:] + seq[:pivot]


def density(g: DebtGraph) -> Fraction:
    """Edge count over the maximum possible |V|*(|V|-1), as an exact rational."""
    n = len(g.vertices)
    if n < 2:
        raise DensityUndefinedError("density is undefined for fewer than 2 vertices")
    return Fraction(g.edge_count(), n * (n - 1))


# -- ingestion ----------------------------------------------------------


def _id_fault(company: object) -> str | None:
    """Why `company` cannot be a company id, or None if it can."""
    if not isinstance(company, str) or not company:
        return f"company id must be a non-empty string, got {company!r}"
    # circuits.txt writes one circuit per line, ids joined by commas
    if "," in company or "\r" in company or "\n" in company:
        return f"company id {company!r} contains a comma or line break"
    return None


def _fields_reason(fields: list[str]) -> str:
    """Why a CSV row is not five non-empty fields."""
    if len(fields) > len(CSV_HEADER):
        return f"extra field(s): {len(fields)} fields, expected {len(CSV_HEADER)}"
    missing = [k for i, k in enumerate(CSV_HEADER) if i >= len(fields) or not fields[i]]
    return f"missing field(s): {', '.join(missing)}"


def read_invoices(stream: IO[str]) -> Iterator[tuple[int, list[str]]]:
    """The CSV layer of ingest_csv: check the header, then yield
    (line number, fields) for every row that is not blank, the fields as
    the csv module splits them, unchecked.

    Expected header: invoice_id,debtor,creditor,amount_minor,issue_date
    Text the csv module cannot parse, or bytes that are not the stream's
    encoding, fail the whole read.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader, None)
        if header is None:
            return
        if header != CSV_HEADER:
            raise InvoiceError("line 1", f"bad header {header!r}, expected {CSV_HEADER!r}")
        for fields in reader:
            if fields:
                yield reader.line_num, fields
    except csv.Error as err:
        raise InvoiceError(f"line {reader.line_num}", f"malformed CSV: {err}") from None
    except UnicodeDecodeError as err:
        # decoding runs ahead in blocks, so the bad byte is past this line
        raise InvoiceError(f"after line {reader.line_num}", f"undecodable bytes: {err}") from None


def ingest_csv(stream: IO[str], *, strict: bool = True) -> IngestResult:
    """Read, validate and aggregate an invoice CSV in one pass.

    Each row goes through one ordered chain of checks, and the first that
    fails names the row: by line for five non-empty fields, an amount of
    at most MAX_AMOUNT_DIGITS ASCII digits and a YYYY-MM-DD date, then by
    invoice for an id not accepted before, company ids free of ',', '\\r'
    and '\\n', two different companies and an amount above zero. Strict
    mode raises the first failure, lenient mode collects them all. A
    failure of the CSV layer (read_invoices) ends the read in either mode.

    Accepted invoice ids are remembered as their UTF-8 bytes and compared
    exactly, so Unicode-equivalent spellings (a precomposed and a
    decomposed accent, say) are different ids.

    Each company is held as one string object: the first accepted row that
    names it adds its id to `ids` and gives it an empty row in the graph,
    and every later row's edge keys are that object, not the copy parsed
    from the row. One lookup per id both tests membership and finds the
    kept object, which the graph's own map cannot return.
    """
    graph = DebtGraph()
    adj = graph._adj
    ids: dict[CompanyId, CompanyId] = {}  # each accepted id -> the one object the graph keeps
    rejects: list[RejectedRecord] = []
    seen_ids: set[bytes] = set()  # each accepted invoice id, as its UTF-8 bytes
    accepted = 0
    n_fields = len(CSV_HEADER)
    for line_num, fields in read_invoices(stream):
        try:
            if len(fields) != n_fields or "" in fields:
                raise InvoiceError(f"line {line_num}", _fields_reason(fields))
            invoice_id, debtor, creditor, raw_amount, raw_date = fields
            # int() would also take "1_000", " 7" and non-ASCII digits
            if not (raw_amount.isascii() and raw_amount.isdigit()):
                raise InvoiceError(f"line {line_num}", f"amount_minor is not ASCII digits: {raw_amount!r}")
            if len(raw_amount) > MAX_AMOUNT_DIGITS:
                raise InvoiceError(f"line {line_num}", f"amount_minor has more than {MAX_AMOUNT_DIGITS} digits")
            try:
                amount = int(raw_amount)
            except ValueError as err:  # an interpreter started with a lower int_max_str_digits
                raise InvoiceError(f"line {line_num}", f"amount_minor cannot be read: {err}") from None
            try:
                # from 3.11 fromisoformat also takes 20200101, 2020-W01-1 and other non-YYYY-MM-DD forms
                if len(raw_date) != 10 or raw_date[7] != "-":
                    raise ValueError(raw_date)
                date.fromisoformat(raw_date)
            except ValueError:
                raise InvoiceError(f"line {line_num}", f"issue_date is not an ISO date: {raw_date!r}") from None
            # a short id's bytes take 48 bytes against 64 for the str, about
            # 8 MB over 500 000 ids at ingest's peak; surrogatepass encodes
            # every str, lone surrogates too, one to one
            key = invoice_id.encode("utf-8", "surrogatepass")
            if key in seen_ids:
                raise InvoiceError(f"invoice {invoice_id!r}", f"duplicate invoice_id {invoice_id!r}")
            # the ids in `ids` passed _id_fault when they were added
            d, c = ids.get(debtor), ids.get(creditor)
            if d is None and (reason := _id_fault(debtor)):
                raise InvoiceError(f"invoice {invoice_id!r}", reason)
            if c is None and (reason := _id_fault(creditor)):
                raise InvoiceError(f"invoice {invoice_id!r}", reason)
            if debtor == creditor:
                raise InvoiceError(f"invoice {invoice_id!r}", "debtor equals creditor")
            if not amount:
                raise InvoiceError(f"invoice {invoice_id!r}", f"amount must be a positive integer, got {amount}")
        except InvoiceError as err:
            if strict:
                raise
            rejects.append(RejectedRecord(err.locator, err.reason))
            continue
        seen_ids.add(key)
        if d is None:
            d = ids[debtor] = debtor
            adj[d] = {}
        if c is None:
            c = ids[creditor] = creditor
            adj[c] = {}
        row = adj[d]
        row[c] = row.get(c, 0) + amount
        accepted += 1
    return IngestResult(graph, accepted, rejects)


def write_invoices_csv(stream: IO[str], invoices: Iterable[Invoice]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for inv in invoices:
        writer.writerow([inv.invoice_id, inv.debtor, inv.creditor, inv.amount, inv.issue_date.isoformat()])
