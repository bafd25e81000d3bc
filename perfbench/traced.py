"""One traced `netcycle run`:

    python3 traced.py INPUT OUT_DIR MAX_LEN SPANS_JSON RUN_ID

Runs the steps of netcycle.pipeline.run_pipeline one by one, with the
default configuration, and records a span around each call into a layer:
name, start, end, parent span and run id. The layers' inner public calls
(read_invoices inside ingest_csv, enumerate_circuits and
component_adjacency inside enumerate_graph, optimize_order inside
plan_per_scc) are wrapped at their module attribute, so the program's own
functions run unchanged. After the run, an audit reads graph.json back and
replays every plan, which is what the chained subcommands and a reviewer
pay. Spans stay in memory and are written to SPANS_JSON at exit. The
artifacts must match an untraced run's byte for byte, timings aside.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from netcycle import circuits, ledger, settlement
from netcycle.pipeline import (
    PipelineConfig, TruncatedInStrictMode, build_report, circuits_json, circuits_lines,
    emit_report_csv, plans_json, scc_sizes_csv,
)
from netcycle.scc import tarjan


class Tracer:
    """Spans of one run, kept in memory until `dump`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans), "name": name, "run": self.run_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), "end": None, **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, annotate=None) -> None:
        """Replace module.attr with a spanned call; annotate(record, args,
        result), if given, adds attributes and may transform the result."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = inner(*args, **kwargs)
                return annotate(record, args, result) if annotate else result

        setattr(module, attr, traced)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def _parsed(record, args, rows):
    # read_invoices is a generator: drain it inside the span so the span
    # holds the parse and ingest_csv's own loop holds validate/aggregate.
    rows = list(rows)
    record["count"] = len(rows)
    return iter(rows)


def _searched(record, args, result):
    record["size"] = len(list(args[1]))
    record["circuits"] = len(result.circuits)
    return result


def _optimized(record, args, plan):
    record["mode"] = plan.mode
    record["circuits"] = len(plan.steps) + len(plan.skipped)
    return plan


def _write(path: Path, text: str) -> int:
    path.write_text(text, encoding="utf-8")
    return path.stat().st_size


def traced_run(cfg: PipelineConfig, tracer: Tracer) -> None:
    """run_pipeline's steps in its order, each under a span, then the audit."""
    tracer.wrap(ledger, "read_invoices", "ledger.parse", _parsed)
    tracer.wrap(circuits, "enumerate_circuits", "circuits.search", _searched)
    tracer.wrap(circuits, "component_adjacency", "circuits.adjacency")
    tracer.wrap(settlement, "optimize_order", "settlement.optimize", _optimized)
    out = Path(cfg.out_dir)
    timings: dict[str, float] = {}
    with tracer.span("pipeline.run"):
        engine = circuits.resolve_engine(cfg.engine)
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        with tracer.span("ledger.ingest") as s:
            with open(cfg.input, encoding="utf-8", newline="") as fh:
                result = ledger.ingest_csv(fh, strict=cfg.strict)
            s["invoices"] = result.accepted
        graph = result.graph
        with tracer.span("ledger.graph_json_write") as s:
            s["bytes"] = _write(out / "graph.json", graph.to_json())
        timings["ingest"] = time.perf_counter() - t0

        t1 = time.perf_counter()
        with tracer.span("scc.tarjan"):
            partition = tarjan(graph)
        with tracer.span("scc.sizes_write"):
            _write(out / "scc_sizes.csv", scc_sizes_csv(partition))
        timings["scc"] = time.perf_counter() - t1

        t2 = time.perf_counter()
        enum_cfg = cfg.enumeration()
        with tracer.span("circuits.enumerate"):
            per_component = circuits.enumerate_graph(graph, partition, enum_cfg, engine, cfg.parallelism)
        with tracer.span("circuits.serialize"):
            merged = circuits.merge_circuits(per_component)
            _write(out / "circuits.txt", circuits_lines(merged))
            _write(out / "circuits.json", circuits_json(per_component, enum_cfg))
        timings["circuits"] = time.perf_counter() - t2
        if any(item.result.truncated for item in per_component):
            raise TruncatedInStrictMode("circuit enumeration was truncated")

        t3 = time.perf_counter()
        with tracer.span("settlement.plan"):
            plans = settlement.plan_per_scc(
                graph, partition, enum_cfg, cfg.optimizer(), engine,
                cfg.parallelism, per_component=per_component,
            )
        with tracer.span("pipeline.plans_json"):
            _write(out / "plans.json", plans_json(plans))
        timings["plan"] = time.perf_counter() - t3
        timings["total"] = time.perf_counter() - t0

        with tracer.span("pipeline.report"):
            report = build_report(
                graph, partition, per_component, plans, cfg.max_len,
                len(result.rejects), timings,
            )
            _write(out / "report.json", json.dumps(report.to_dict(), indent=2) + "\n")
            _write(out / "report.csv", emit_report_csv(report))
        json.dump(report.to_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")

    with tracer.span("audit"):
        with tracer.span("ledger.graph_json_read"):
            audited = ledger.DebtGraph.from_json((out / "graph.json").read_text(encoding="utf-8"))
        with tracer.span("settlement.replay"):
            # Components share no edges, so the plans replay as one sequence.
            steps = [step for plan in plans for step in plan.steps]
            settlement.replay(audited, settlement.SettlementPlan(steps, report.grand_total, [], "audit"))


def main(argv: list[str]) -> int:
    input_csv, out_dir, max_len, spans_path, run_id = argv
    tracer = Tracer(run_id)
    traced_run(PipelineConfig(Path(input_csv), Path(out_dir), max_len=int(max_len)), tracer)
    tracer.dump(Path(spans_path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
