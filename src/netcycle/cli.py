"""Command line front end.

Every flag can also be set through the environment as
NETCYCLE_<COMMAND>_<FLAG> (dashes become underscores), e.g.
NETCYCLE_RUN_MAX_LEN=6 overrides `netcycle run --max-len`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from bisect import bisect_left
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from . import __version__
from .circuits import (
    ComponentCircuits,
    EnumerationConfig,
    EnumerationResult,
    enumerate_graph,
    merge_circuits,
)
from .datagen import InfeasibleRequest, generate_synthetic
from .ledger import DebtGraph, InvoiceError, ingest_csv, write_invoices_csv
from .pipeline import (
    PipelineConfig,
    RunReport,
    TruncatedInStrictMode,
    circuits_lines,
    dump_json,
    emit_report_csv,
    run_pipeline,
    scc_sizes_csv,
    write_circuits_json,
    write_plans_json,
)
from .scc import SccPartition, tarjan
from .settlement import EXACT_HARD_CAP, ExactSearchRefused, OptimizerConfig, plan_per_scc

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_TRUNCATED_STRICT = 3


def _env(command: str, flag: str, fallback, cast=None):
    """The flag's default: its environment variable if set, else fallback.
    A set value stays a string, which argparse converts and checks with
    the flag's `type` as if given on the command line. store_true flags
    pass cast=bool."""
    key = f"NETCYCLE_{command}_{flag}".upper().replace("-", "_")
    raw = os.environ.get(key)
    if raw is None:
        return fallback
    if cast is bool:
        return raw.lower() in ("1", "true", "yes", "on")
    return raw


def _optional(cast):
    def convert(raw):
        return None if raw in (None, "", "none") else cast(raw)

    return convert


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

    return convert


def _one_of(*choices: str):
    """An argparse type that accepts only `choices`. Unlike argparse's
    `choices`, it also checks a value taken from the environment, so a
    bad one is a usage error (exit 2) before anything is written."""

    def convert(raw):
        if raw not in choices:
            raise argparse.ArgumentTypeError(f"must be one of {', '.join(choices)}, got {raw!r}")
        return raw

    return convert


def _add_parallelism_flag(p: argparse.ArgumentParser, cmd: str) -> None:
    p.add_argument("--parallelism", type=_at_least(int, 1), default=_env(cmd, "parallelism", 1),
                   help="components searched or planned at once (default 1)")


def _add_enum_flags(p: argparse.ArgumentParser, cmd: str) -> None:
    p.add_argument("--max-len", type=_at_least(int, 2), default=_env(cmd, "max-len", 8),
                   help="circuit length cap (default 8)")
    p.add_argument("--max-circuits", type=_optional(_at_least(int, 1)),
                   default=_env(cmd, "max-circuits", None),
                   help="stop after this many circuits per component")
    p.add_argument("--time-budget", type=_optional(_at_least(float, 0, strict=True)),
                   default=_env(cmd, "time-budget", None),
                   help="wall-clock seconds allowed per component")


def _add_plan_flags(p: argparse.ArgumentParser, cmd: str) -> None:
    p.add_argument("--mode", type=_one_of("auto", "exact", "greedy"),
                   default=_env(cmd, "mode", "auto"), help="auto, exact or greedy (default auto)")
    p.add_argument("--exact-threshold", type=_at_least(int, 1, high=EXACT_HARD_CAP),
                   default=_env(cmd, "exact-threshold", 10),
                   help=f"auto mode uses exact search up to this many circuits (at most {EXACT_HARD_CAP})")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise InvoiceError(path, f"not UTF-8 text: {err}") from None


def _load_graph(path: str) -> DebtGraph:
    return DebtGraph.from_json(_read_text(path))


def _check_circuit(circuit: tuple, graph: DebtGraph, partition: SccPartition, locator: str) -> int:
    """The index of the component that holds a circuit read from a file.
    The circuit must be elementary, since a repeated company would settle
    one edge twice, and name only companies of the graph, all in one
    component, as every circuit of the graph is."""
    if (len(circuit) < 2 or not all(isinstance(v, str) for v in circuit)
            or len(set(circuit)) != len(circuit)):
        raise InvoiceError(locator, f"not an elementary circuit: {list(circuit)!r}")
    verts = graph.index().verts
    found = set()
    for company in circuit:
        if company not in graph:
            raise InvoiceError(locator, f"company {company!r} is not in the graph")
        found.add(partition.component_of[bisect_left(verts, company)])
    if len(found) > 1:
        raise InvoiceError(locator, f"circuit {list(circuit)!r} spans more than one component")
    return found.pop()


def _load_components(path: str, graph: DebtGraph, partition: SccPartition) -> list[ComponentCircuits]:
    """Read circuits from a structured .json artifact or plain canonical
    lines, grouped per component. A .json entry's scc_index must name a
    component of `partition` that no other entry names and that holds
    every circuit of the entry."""
    text = _read_text(path)
    if path.endswith(".json"):
        try:
            components = [
                ComponentCircuits(
                    entry["scc_index"],
                    EnumerationResult(
                        [tuple(c) for c in entry["circuits"]],
                        entry.get("truncated", False),
                        entry.get("truncation_reason"),
                    ),
                )
                for entry in json.loads(text)["components"]
            ]
        except (json.JSONDecodeError, KeyError, TypeError) as err:
            raise InvoiceError(path, f"not a circuits artifact: {err!r}") from None
        listed: set[int] = set()
        for item in components:
            idx = item.scc_index
            # bool is an int subclass; True must not name component 1
            if type(idx) is not int or not 0 <= idx < len(partition.components):
                raise InvoiceError(path, f"scc_index {idx!r} names no component of the graph")
            if idx in listed:
                raise InvoiceError(path, f"component {idx} is listed twice")
            listed.add(idx)
            locator = f"{path} component {idx}"
            for circuit in item.result.circuits:
                if _check_circuit(circuit, graph, partition, locator) != idx:
                    raise InvoiceError(locator, f"circuit {list(circuit)!r} is not in component {idx}")
        return components
    groups: dict[int, list[tuple[str, ...]]] = {}
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        circuit = tuple(line.strip().split(","))
        groups.setdefault(_check_circuit(circuit, graph, partition, f"{path} line {n}"), []).append(circuit)
    return [
        ComponentCircuits(idx, EnumerationResult(sorted(cs)))
        for idx, cs in sorted(groups.items())
    ]


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
    per_component = enumerate_graph(graph, partition, cfg, parallelism=args.parallelism)
    merged = merge_circuits(per_component)
    _write_or_print(circuits_lines(merged), args.out)
    if args.json:
        with _output(args.json) as fh:
            write_circuits_json(fh, per_component, cfg)
    truncated = [i.scc_index for i in per_component if i.result.truncated]
    if truncated:
        print(f"truncated components: {truncated}", file=sys.stderr)
        if not args.lenient:
            return EXIT_TRUNCATED_STRICT
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
        parallelism=args.parallelism, per_component=per_component,
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


def cmd_report(args: argparse.Namespace) -> int:
    text = _read_text(args.report)
    try:
        csv_text = emit_report_csv(RunReport.from_dict(json.loads(text)))
    except (ValueError, TypeError, AttributeError) as err:
        raise InvoiceError(args.report, f"not a run report: {err!r}") from None
    _write_or_print(csv_text, args.out)
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
    p.add_argument("--out", default=_env("ingest", "out", None), help="graph JSON path (default stdout)")
    p.add_argument("--lenient", action="store_true", default=_env("ingest", "lenient", False, bool),
                   help="skip and report bad records instead of aborting")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("scc", help="strongly connected component sizes as CSV")
    p.add_argument("--graph", required=True, help="graph JSON snapshot")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scc)

    p = sub.add_parser("circuits", help="enumerate elementary circuits, one per line")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default=None, help="circuit lines path (default stdout)")
    p.add_argument("--json", default=_env("circuits", "json", None),
                   help="also write the structured per-component artifact here")
    p.add_argument("--lenient", action="store_true", default=_env("circuits", "lenient", False, bool))
    _add_parallelism_flag(p, "circuits")
    _add_enum_flags(p, "circuits")
    p.set_defaults(func=cmd_circuits)

    p = sub.add_parser("plan", help="optimize settlement order for enumerated circuits")
    p.add_argument("--graph", required=True)
    p.add_argument("--circuits", required=True, help="circuits.json or canonical lines file")
    p.add_argument("--out", default=None, help="plans JSON path (default stdout)")
    p.add_argument("--lenient", action="store_true", default=_env("plan", "lenient", False, bool))
    _add_parallelism_flag(p, "plan")
    _add_plan_flags(p, "plan")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="full pipeline: ingest, scc, circuits, plan, report")
    p.add_argument("--input", required=True, help="invoice CSV")
    p.add_argument("--out-dir", required=True, help="artifact directory")
    p.add_argument("--lenient", action="store_true", default=_env("run", "lenient", False, bool))
    _add_parallelism_flag(p, "run")
    _add_enum_flags(p, "run")
    _add_plan_flags(p, "run")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gen", help="generate a synthetic invoice CSV")
    p.add_argument("--companies", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--seed", type=int, default=_env("gen", "seed", 0))
    p.add_argument("--min-amount", type=int, default=_env("gen", "min-amount", 100))
    p.add_argument("--max-amount", type=int, default=_env("gen", "max-amount", 10**9))
    p.add_argument("--out", default=_env("gen", "out", None), help="CSV path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("report", help="flatten a report.json into plot-ready CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

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
