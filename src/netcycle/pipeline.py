"""Batch pipeline: ingest, components, circuits, plans, report.

Each phase writes a plain-file artifact, so the stages can also be run one
at a time through the CLI and produce the same bytes. A run's artifacts
reach the output directory together, only when the run succeeds.
Wall-clock timings live in their own report section because they are the
one part of a run that cannot be reproducible.

Every JSON artifact is streamed: graph.json one source row at a time
(DebtGraph.write_json), and circuits.json, plans.json and report.json
through dump_json, one item of a top-level list at a time. The text is
exactly json.dumps(payload, indent=2) + "\\n", but no copy of the whole
text is held in memory. Neither writer uses json's encoder, which runs
its pure-Python path whenever an indent is set.
"""

from __future__ import annotations

import errno
import io
import math
import os
import shutil
import tempfile
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO

from .circuits import (
    ComponentCircuits,
    EnumerationConfig,
    check_parallelism,
    enumerate_graph,
    merge_circuits,
    resolve_engine,
)
from .ledger import DebtGraph, DensityUndefinedError, IngestResult, density, ingest_csv
from .scc import SccPartition, tarjan
from .settlement import OptimizerConfig, SettlementPlan, plan_per_scc


# What run_pipeline writes into its output directory.
ARTIFACTS = (
    "graph.json", "scc_sizes.csv", "circuits.txt", "circuits.json",
    "plans.json", "report.json", "report.csv",
)


@dataclass
class PipelineConfig:
    input: Path
    out_dir: Path
    max_len: int = 8
    max_circuits: int | None = None
    time_budget: float | None = None
    mode: str = "auto"
    exact_threshold: int = 10
    strict: bool = True
    parallelism: int = 1
    engine: str = "auto"  # "auto" or "python": see circuits.resolve_engine

    def enumeration(self) -> EnumerationConfig:
        return EnumerationConfig(self.max_len, self.max_circuits, self.time_budget)

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(mode=self.mode, exact_threshold=self.exact_threshold)


@dataclass
class RunReport:
    company_count: int = 0
    edge_count: int = 0
    density: str | None = None
    density_float: float | None = None
    scc_count: int = 0
    scc_size_histogram: dict[int, int] = field(default_factory=dict)
    circuit_count: int = 0
    circuits_by_length: dict[int, int] = field(default_factory=dict)
    truncated: bool = False
    per_scc_totals: list[dict] = field(default_factory=list)
    grand_total: int = 0
    settled_steps: int = 0
    skipped_circuits: int = 0
    circuits_to_steps_ratio: float | None = None
    rejected_records: int = 0
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report.json payload: fields in declaration order, dicts in
        insertion order, which build_report keeps ascending by key. Values
        are shared, not copied as dataclasses.asdict would copy every leaf
        of per_scc_totals."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class TruncatedInStrictMode(RuntimeError):
    """Enumeration was cut short while strict mode forbids partial plans."""


def scc_sizes_csv(partition: SccPartition) -> str:
    lines = ["component,size"]
    for i, comp in enumerate(partition.components):
        lines.append(f"{i},{len(comp)}")
    return "\n".join(lines) + "\n"


def circuits_lines(circuits: list[tuple[str, ...]]) -> str:
    return "".join(",".join(c) + "\n" for c in circuits)


def dump_json(payload: dict[str, object], fh: IO[str]) -> None:
    """Write json.dumps(payload, indent=2) + "\\n" to fh. A top-level value
    may also be an iterator, written as the list of its items.

    Each item of a top-level list is encoded on its own and written at
    once, so at most one item's text is held in memory; every other value
    is encoded whole. Values are encoded by `_encode`, which writes
    json.dumps's indent-2 layout directly at the value's depth: strings,
    ints, bools, None, floats, lists, tuples, and dicts whose keys are
    strings or ints. Any other value or key raises TypeError.
    """
    write = fh.write
    sep = "{\n  "
    for key, value in payload.items():
        write(f"{sep}{_key(key)}: ")
        sep = ",\n  "
        if isinstance(value, (list, tuple, Iterator)):
            head = "[\n    "
            for item in value:
                write(head + _encode(item, "\n    "))
                head = ",\n    "
            write("[]" if head == "[\n    " else "\n  ]")
        else:
            write(_encode(value, "\n  "))
    write("{}\n" if sep == "{\n  " else "\n}\n")


def _encode(value: object, nl: str) -> str:
    """`value` as json.dumps(value, indent=2) writes it, with every line
    after the first indented as `nl` ("\\n" and the indent of the line
    the value starts on). Kinds are tested in json's order, exact types
    first because they are the common case."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        return _object(value, nl)
    if kind is list or kind is tuple:
        return _array(value, nl)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, (list, tuple)):
        return _array(value, nl)
    if isinstance(value, dict):
        return _object(value, nl)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _array(items: list | tuple, nl: str) -> str:
    if not items:
        return "[]"
    inner = nl + "  "
    try:  # a list of strings, such as a circuit, is one join
        body = ("," + inner).join(map(encode_basestring_ascii, items))
    except TypeError:
        body = ("," + inner).join([_encode(item, inner) for item in items])
    return f"[{inner}{body}{nl}]"


def _object(obj: dict, nl: str) -> str:
    if not obj:
        return "{}"
    inner = nl + "  "
    body = ("," + inner).join([f"{_key(key)}: {_encode(value, inner)}" for key, value in obj.items()])
    return f"{{{inner}{body}{nl}}}"


def _key(key: object) -> str:
    """A dict key as json.dumps quotes it; only str and int keys are taken."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, int) and not isinstance(key, bool):
        return f'"{int.__repr__(key)}"'
    raise TypeError(f"keys must be str or int, not {type(key).__name__}")


def write_circuits_json(fh: IO[str], per_component: list[ComponentCircuits], cfg: EnumerationConfig) -> None:
    """Write the circuits.json artifact: the cap, then each component's
    circuits and truncation flags, one component per write."""
    dump_json({
        "max_len": cfg.max_len,
        "components": (
            {
                "scc_index": item.scc_index,
                "truncated": item.result.truncated,
                "truncation_reason": item.result.truncation_reason,
                "circuits": item.result.circuits,  # tuples encode as lists
            }
            for item in per_component
        ),
    }, fh)


def circuits_json(per_component: list[ComponentCircuits], cfg: EnumerationConfig) -> str:
    """The write_circuits_json text as one string."""
    buf = io.StringIO()
    write_circuits_json(buf, per_component, cfg)
    return buf.getvalue()


def write_plans_json(fh: IO[str], plans: list[SettlementPlan]) -> None:
    """Write the plans.json artifact: the grand total, then one plan per
    write."""
    dump_json({
        "grand_total": sum(p.total for p in plans),
        "plans": (p.to_dict() for p in plans),
    }, fh)


def plans_json(plans: list[SettlementPlan]) -> str:
    """The write_plans_json text as one string."""
    buf = io.StringIO()
    write_plans_json(buf, plans)
    return buf.getvalue()


def emit_report_csv(report: RunReport) -> str:
    """Flat per-length rows with the phase timings repeated on each row,
    ready for plotting circuit counts and cost against the length cap."""
    phases = ["ingest", "graph_json", "scc", "circuits", "plan", "total"]
    header = "length,circuit_count," + ",".join(f"{p}_seconds" for p in phases)
    lines = [header]
    timing_cells = ",".join(f"{report.timings.get(p, 0.0):.6f}" for p in phases)
    for length in sorted(report.circuits_by_length):
        count = report.circuits_by_length[length]
        lines.append(f"{length},{count},{timing_cells}")
    return "\n".join(lines) + "\n"


def build_report(
    graph: DebtGraph,
    partition: SccPartition,
    per_component: list[ComponentCircuits],
    plans: list[SettlementPlan],
    max_len: int,
    rejected: int,
    timings: dict[str, float],
) -> RunReport:
    report = RunReport()
    report.company_count = len(graph.vertices)
    report.edge_count = graph.edge_count()
    try:
        d = density(graph)
        report.density = f"{d.numerator}/{d.denominator}"
        report.density_float = float(d)
    except DensityUndefinedError:
        pass
    report.scc_count = len(partition.components)
    report.scc_size_histogram = dict(sorted(Counter(len(comp) for comp in partition.components).items()))
    # No circuit holds more companies than the graph has, so a cap above
    # that lists no further length.
    longest = min(max_len, report.company_count)
    report.circuits_by_length = {length: 0 for length in range(2, longest + 1)}
    for item in per_component:
        for c in item.result.circuits:
            report.circuits_by_length[len(c)] = report.circuits_by_length.get(len(c), 0) + 1
        report.truncated = report.truncated or item.result.truncated
    report.circuit_count = sum(report.circuits_by_length.values())
    report.per_scc_totals = [
        {
            "scc_index": p.scc_index,
            "mode": p.mode,
            "total": p.total,
            "steps": len(p.steps),
            "skipped": len(p.skipped),
            "truncated": p.truncated,
        }
        for p in plans
    ]
    report.grand_total = sum(p.total for p in plans)
    report.settled_steps = sum(len(p.steps) for p in plans)
    report.skipped_circuits = sum(len(p.skipped) for p in plans)
    if report.settled_steps:
        report.circuits_to_steps_ratio = report.circuit_count / report.settled_steps
    report.rejected_records = rejected
    report.timings = timings
    return report


def run_pipeline(cfg: PipelineConfig) -> RunReport:
    """Ingest the invoice CSV and run components, circuits and plans,
    writing every artifact under cfg.out_dir.

    Strict mode propagates the first bad record as an error and refuses to
    write plans when enumeration was truncated (TruncatedInStrictMode).
    The artifacts are written into a temporary sibling of cfg.out_dir and
    moved into it only once the whole run has succeeded, so a refused or
    failed run adds no file to cfg.out_dir. A directory at an artifact's
    name under cfg.out_dir, which no file can replace, is refused with
    IsADirectoryError before any work.
    """
    engine = resolve_engine(cfg.engine)
    check_parallelism(cfg.parallelism)
    # a bad cap, budget, mode or threshold fails before anything is written
    enum_cfg, opt_cfg = cfg.enumeration(), cfg.optimizer()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)  # a file in the way fails before any work
    for name in ARTIFACTS:
        if (out / name).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
    stage = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=out.parent))
    try:
        report = _run_into(stage, cfg, engine, enum_cfg, opt_cfg)
        for name in ARTIFACTS:
            os.replace(stage / name, out / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return report


def _run_into(
    out: Path, cfg: PipelineConfig, engine: str, enum_cfg: EnumerationConfig, opt_cfg: OptimizerConfig
) -> RunReport:
    """run_pipeline's phases, each writing its artifacts into `out`."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    with open(cfg.input, encoding="utf-8", newline="") as fh:
        result: IngestResult = ingest_csv(fh, strict=cfg.strict)
    graph = result.graph
    timings["ingest"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    with open(out / "graph.json", "w", encoding="utf-8") as fh:
        graph.write_json(fh)
    timings["graph_json"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    partition = tarjan(graph)
    (out / "scc_sizes.csv").write_text(scc_sizes_csv(partition), encoding="utf-8")
    timings["scc"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    per_component = enumerate_graph(graph, partition, enum_cfg, engine, cfg.parallelism)
    merged = merge_circuits(per_component)
    (out / "circuits.txt").write_text(circuits_lines(merged), encoding="utf-8")
    with open(out / "circuits.json", "w", encoding="utf-8") as fh:
        write_circuits_json(fh, per_component, enum_cfg)
    timings["circuits"] = time.perf_counter() - t3

    truncated = any(item.result.truncated for item in per_component)
    if truncated and cfg.strict:
        raise TruncatedInStrictMode(
            "circuit enumeration was truncated; re-run lenient or raise the budgets"
        )

    t4 = time.perf_counter()
    plans = plan_per_scc(
        graph, partition, enum_cfg, opt_cfg, engine,
        cfg.parallelism, per_component=per_component,
    )
    with open(out / "plans.json", "w", encoding="utf-8") as fh:
        write_plans_json(fh, plans)
    timings["plan"] = time.perf_counter() - t4
    timings["total"] = time.perf_counter() - t0

    report = build_report(
        graph, partition, per_component, plans, cfg.max_len,
        len(result.rejects), timings,
    )
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        dump_json(report.to_dict(), fh)
    (out / "report.csv").write_text(emit_report_csv(report), encoding="utf-8")
    return report
