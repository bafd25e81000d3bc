"""Command line front end. Every setting is a flag of its subcommand."""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from bisect import bisect_left
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from . import __version__
from .circuits import (
    TRUNCATION_REASONS,
    ComponentCircuits,
    EnumerationConfig,
    EnumerationResult,
    enumerate_graph,
    merge_circuits,
)
from .datagen import InfeasibleRequest, generate_synthetic
from .ledger import DebtGraph, InvoiceError, canonical_rotation, circuit_edges, ingest_csv, write_invoices_csv
from .pipeline import (
    PipelineConfig,
    TruncatedInStrictMode,
    circuits_lines,
    dump_json,
    run_pipeline,
    scc_sizes_csv,
    write_circuits_json,
    write_plans_json,
)
from .scc import SccPartition, nontrivial_components, tarjan
from .settlement import EXACT_HARD_CAP, ExactSearchRefused, OptimizerConfig, plan_per_scc

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_TRUNCATED_STRICT = 3


def _at_least(cast, low, *, strict=False, high=None):
    """An argparse type: cast, then reject values below low (or equal to
    it when strict) or above high, so an out-of-range flag is a usage
    error (exit 2)."""

    def convert(raw):
        value = cast(raw)
        if not (value > low if strict else value >= low) or (high is not None and value > high):  # NaN fails
            bound = f"{'>' if strict else '>='} {low}" + ("" if high is None else f" and <= {high}")
            raise argparse.ArgumentTypeError(f"must be {bound}, got {raw!r}")
        return value

    convert.__name__ = cast.__name__  # argparse names it in "invalid int value: 'x'"
    return convert


def _add_enum_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-len", type=_at_least(int, 2), default=8, help="circuit length cap (default 8)")
    p.add_argument("--max-circuits", type=_at_least(int, 1), default=None,
                   help="stop after this many circuits per component")
    p.add_argument("--time-budget", type=_at_least(float, 0, strict=True), default=None,
                   help="wall-clock seconds allowed per component")


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("auto", "exact", "greedy"), default="auto",
                   help="auto, exact or greedy (default auto)")
    p.add_argument("--exact-threshold", type=_at_least(int, 1, high=EXACT_HARD_CAP), default=10,
                   help=f"auto mode uses exact search up to this many circuits (at most {EXACT_HARD_CAP})")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise InvoiceError(path, f"not UTF-8 text: {err}") from None


def _load_graph(path: str) -> DebtGraph:
    return DebtGraph.from_json(_read_text(path))


def _check_circuit(circuit: tuple, graph: DebtGraph, partition: SccPartition,
                   locator: str) -> tuple[int, tuple[str, ...]]:
    """The index of the component that holds a circuit read from a file,
    and the circuit in canonical rotation, the name `run` gives it. The
    circuit must be elementary, since a repeated company would settle one
    edge twice, and each of its steps an edge of the graph, which also
    keeps all its companies in one component."""
    if (len(circuit) < 2 or not all(isinstance(v, str) for v in circuit)
            or len(set(circuit)) != len(circuit)):
        raise InvoiceError(locator, f"not an elementary circuit: {list(circuit)!r}")
    for company in circuit:
        if company not in graph:
            raise InvoiceError(locator, f"company {company!r} is not in the graph")
    for u, v in circuit_edges(circuit):
        if graph.weight(u, v) <= 0:
            raise InvoiceError(locator, f"circuit {list(circuit)!r} steps {u!r} -> {v!r}, not an edge")
    return partition.component_of[bisect_left(graph.index().verts, circuit[0])], canonical_rotation(circuit)


def _json_circuit(value: object) -> tuple:
    # tuple() takes any iterable: a string would give its characters and
    # an object its keys
    if type(value) is not list:
        raise TypeError(f"a circuit is a JSON array, not {value!r}")
    return tuple(value)


def _load_components(path: str, graph: DebtGraph, partition: SccPartition) -> list[ComponentCircuits]:
    """Read circuits from a structured .json artifact or plain canonical
    lines, grouped as `run` groups them: one entry per nontrivial
    component of `partition` in index order, each circuit in canonical
    rotation and each component's circuits sorted. A component the file
    does not name gets no circuits and is not truncated. A circuit may
    appear once. A .json entry's scc_index must name a nontrivial
    component that no other entry names and that holds every circuit of
    the entry, and its truncation fields must be ones the search writes."""
    text = _read_text(path)
    results = {partition.component_of[c[0]]: EnumerationResult([]) for c in nontrivial_components(partition)}

    def add(circuit: tuple, locator: str, idx: int | None = None) -> None:
        found, canonical = _check_circuit(circuit, graph, partition, locator)
        if idx is not None and found != idx:
            raise InvoiceError(locator, f"circuit {list(circuit)!r} is not in component {idx}")
        results[found].circuits.append(canonical)

    if path.endswith(".json"):
        try:
            entries = [
                (entry["scc_index"], [_json_circuit(c) for c in entry["circuits"]],
                 entry.get("truncated", False), entry.get("truncation_reason"))
                for entry in json.loads(text)["components"]
            ]
        # RecursionError: JSON nested deeper than the parser's recursion
        # limit; ValueError, JSONDecodeError's base: also an integer longer
        # than the interpreter converts (4 300 digits by default)
        except (ValueError, RecursionError, KeyError, TypeError) as err:
            raise InvoiceError(path, f"not a circuits artifact: {err!r}") from None
        listed: set[int] = set()
        for idx, circuits, truncated, reason in entries:
            # bool is an int subclass; True must not name component 1
            if type(idx) is not int or idx not in results:
                raise InvoiceError(path, f"scc_index {idx!r} names no component that can hold a circuit")
            if idx in listed:
                raise InvoiceError(path, f"component {idx} is listed twice")
            listed.add(idx)
            locator = f"{path} component {idx}"
            # a complete search gives no reason, a truncated one the reason it stopped
            if not (truncated is False and reason is None or truncated is True and reason in TRUNCATION_REASONS):
                raise InvoiceError(locator, f"not a search outcome: truncated {truncated!r}, reason {reason!r}")
            results[idx] = EnumerationResult([], truncated, reason)
            for circuit in circuits:
                add(circuit, locator, idx)
    else:
        # the inverse of circuits_lines: ids hold no "\n" and are kept as
        # written, spaces and other line breaks included
        for n, line in enumerate(text.split("\n"), 1):
            if line:
                add(tuple(line.split(",")), f"{path} line {n}")
    for idx, result in results.items():
        result.circuits.sort()
        for a, b in zip(result.circuits, result.circuits[1:]):
            if a == b:
                raise InvoiceError(f"{path} component {idx}", f"circuit {list(a)!r} is listed twice")
    return [ComponentCircuits(idx, result) for idx, result in results.items()]


@contextmanager
def _output(out: str | None) -> Iterator[IO[str]]:
    """The file at `out`, opened for writing and closed after, or stdout."""
    if not out:
        yield sys.stdout
        return
    with open(out, "w", encoding="utf-8") as fh:
        yield fh


def _write_or_print(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


# -- commands -------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    with open(args.input, encoding="utf-8", newline="") as fh:
        result = ingest_csv(fh, strict=not args.lenient)
    for reject in result.rejects:
        print(f"rejected {reject.locator}: {reject.reason}", file=sys.stderr)
    with _output(args.out) as fh:
        result.graph.write_json(fh)
    print(
        f"ingested {result.accepted} invoices into "
        f"{len(result.graph.vertices)} companies / {result.graph.edge_count()} edges "
        f"({len(result.rejects)} rejected)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_scc(args: argparse.Namespace) -> int:
    partition = tarjan(_load_graph(args.graph))
    _write_or_print(scc_sizes_csv(partition), args.out)
    return EXIT_OK


def cmd_circuits(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    partition = tarjan(graph)
    cfg = EnumerationConfig(args.max_len, args.max_circuits, args.time_budget)
    per_component = enumerate_graph(graph, partition, cfg)
    truncated = [i.scc_index for i in per_component if i.result.truncated]
    if truncated:
        print(f"truncated components: {truncated}", file=sys.stderr)
        if not args.lenient:
            # circuits.txt carries no truncation flag, so a strict run
            # writes nothing that plan could take for a complete search
            return EXIT_TRUNCATED_STRICT
    _write_or_print(circuits_lines(merge_circuits(per_component)), args.out)
    if args.json:
        with _output(args.json) as fh:
            write_circuits_json(fh, per_component, cfg)
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    partition = tarjan(graph)
    per_component = _load_components(args.circuits, graph, partition)
    truncated = any(i.result.truncated for i in per_component)
    if truncated and not args.lenient:
        print("refusing to plan from truncated circuits in strict mode", file=sys.stderr)
        return EXIT_TRUNCATED_STRICT
    plans = plan_per_scc(
        graph, partition, None,
        OptimizerConfig(mode=args.mode, exact_threshold=args.exact_threshold),
        per_component=per_component,
    )
    with _output(args.out) as fh:
        write_plans_json(fh, plans)
    print(f"grand total netted: {sum(p.total for p in plans)}", file=sys.stderr)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    cfg = PipelineConfig(
        input=Path(args.input),
        out_dir=Path(args.out_dir),
        max_len=args.max_len,
        max_circuits=args.max_circuits,
        time_budget=args.time_budget,
        mode=args.mode,
        exact_threshold=args.exact_threshold,
        strict=not args.lenient,
        parallelism=args.parallelism,
    )
    report = run_pipeline(cfg)
    dump_json(report.to_dict(), sys.stdout)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    invoices = generate_synthetic(
        args.companies, args.edges, args.seed, args.min_amount, args.max_amount
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_invoices_csv(fh, invoices)
    else:
        write_invoices_csv(sys.stdout, invoices)
    print(f"generated {len(invoices)} invoices", file=sys.stderr)
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcycle",
        description="Multilateral debt netting: find circuits of obligations and settle them for maximum effect.",
    )
    parser.add_argument("--version", action="version", version=f"netcycle {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="aggregate an invoice CSV into a debt graph snapshot")
    p.add_argument("--input", required=True, help="invoice CSV")
    p.add_argument("--out", default=None, help="graph JSON path (default stdout)")
    p.add_argument("--lenient", action="store_true", help="skip and report bad records instead of aborting")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("scc", help="strongly connected component sizes as CSV")
    p.add_argument("--graph", required=True, help="graph JSON snapshot")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scc)

    p = sub.add_parser("circuits", help="enumerate elementary circuits, one per line")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default=None, help="circuit lines path (default stdout)")
    p.add_argument("--json", default=None, help="also write the structured per-component artifact here")
    p.add_argument("--lenient", action="store_true")
    _add_enum_flags(p)
    p.set_defaults(func=cmd_circuits)

    p = sub.add_parser("plan", help="optimize settlement order for enumerated circuits")
    p.add_argument("--graph", required=True)
    p.add_argument("--circuits", required=True, help="circuits.json or canonical lines file")
    p.add_argument("--out", default=None, help="plans JSON path (default stdout)")
    p.add_argument("--lenient", action="store_true")
    _add_plan_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="full pipeline: ingest, scc, circuits, plan, report")
    p.add_argument("--input", required=True, help="invoice CSV")
    p.add_argument("--out-dir", required=True, help="artifact directory")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--parallelism", type=int, choices=(1,), default=1,
                   help="selects nothing; 1 is the only value")
    _add_enum_flags(p)
    _add_plan_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gen", help="generate a synthetic invoice CSV")
    p.add_argument("--companies", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-amount", type=int, default=100)
    p.add_argument("--max-amount", type=int, default=10**9)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvoiceError, InfeasibleRequest, ExactSearchRefused) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except TruncatedInStrictMode as err:
        print(f"truncated: {err}", file=sys.stderr)
        return EXIT_TRUNCATED_STRICT
    except BrokenPipeError:  # an OSError too: a closed stdout is not a failure
        return EXIT_OK
    except OSError as err:  # a missing input, a directory given as a file, ...
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
