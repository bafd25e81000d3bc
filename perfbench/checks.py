"""Output checks for one `netcycle run` artifact directory.

`problems` audits the artifacts against each other: every plan replays
through netcycle.replay on the graph read back from graph.json with its
recorded totals, and circuits.txt lists distinct, canonical, elementary
cycles of that graph within the cap, as many as report.json counts.
`digest` fingerprints the deterministic artifacts, leaving out the report's
wall-clock timings, so runs of one input can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from netcycle import DebtGraph, PlanStep, SettlementPlan, StalePlanError, canonical_rotation, replay
from netcycle.ledger import circuit_edges

ARTIFACTS = (
    "graph.json", "scc_sizes.csv", "circuits.txt", "circuits.json",
    "plans.json", "report.json", "report.csv",
)


def _deterministic_bytes(out_dir: Path, name: str) -> bytes:
    data = (out_dir / name).read_bytes()
    if name == "report.json":
        payload = json.loads(data)
        payload.pop("timings", None)
        return json.dumps(payload, indent=2).encode()
    if name == "report.csv":
        # The first two columns are length and circuit_count; the rest are timings.
        rows = data.decode().splitlines()
        return "\n".join(",".join(row.split(",")[:2]) for row in rows).encode()
    return data


def digest(out_dir: Path) -> str:
    """SHA-256 over the deterministic artifacts, timings excluded."""
    h = hashlib.sha256()
    for name in ARTIFACTS:
        h.update(name.encode() + b"\0")
        h.update(hashlib.sha256(_deterministic_bytes(out_dir, name)).digest())
    return h.hexdigest()


def _circuit_problems(graph: DebtGraph, lines: list[str], max_len: int, expected: int) -> list[str]:
    found = []
    seen: set[tuple[str, ...]] = set()
    for number, line in enumerate(lines, 1):
        circuit = tuple(line.split(","))
        where = f"circuits.txt line {number}"
        if not 2 <= len(circuit) <= max_len:
            found.append(f"{where}: length {len(circuit)} outside 2..{max_len}")
        elif len(set(circuit)) != len(circuit):
            found.append(f"{where}: repeats a vertex")
        elif circuit != canonical_rotation(circuit):
            found.append(f"{where}: not in canonical rotation")
        elif any(graph.weight(u, v) == 0 for u, v in circuit_edges(circuit)):
            found.append(f"{where}: uses an edge the graph lacks")
        elif circuit in seen:
            found.append(f"{where}: duplicate circuit")
        seen.add(circuit)
    if len(lines) != expected:
        found.append(f"circuits.txt has {len(lines)} lines, report.json counts {expected}")
    return found


def _plan_problems(graph: DebtGraph, payload: dict, report: dict) -> list[str]:
    found = []
    steps: list[PlanStep] = []
    for entry in payload["plans"]:
        own = [PlanStep(tuple(s["circuit"]), s["per_edge"], s["amount"]) for s in entry["steps"]]
        where = f"plans.json component {entry['scc_index']}"
        for i, step in enumerate(own):
            if step.amount != step.per_edge * len(step.circuit):
                found.append(f"{where} step {i}: amount {step.amount} != per_edge x length")
        if sum(s.amount for s in own) != entry["total"]:
            found.append(f"{where}: total {entry['total']} != sum of step amounts")
        steps.extend(own)
    totals = sum(entry["total"] for entry in payload["plans"])
    if payload["grand_total"] != totals or report["grand_total"] != totals:
        found.append(
            f"grand totals disagree: plans.json {payload['grand_total']}, "
            f"report.json {report['grand_total']}, sum of plans {totals}"
        )
    # Replaying the plans one after another on one graph is replaying the
    # concatenation of their steps; one call copies the graph once.
    try:
        replay(graph, SettlementPlan(steps, totals, [], "audit"))
    except StalePlanError as err:
        found.append(f"plans.json: replay failed: {err}")
    return found


def problems(out_dir: Path, max_len: int) -> list[str]:
    """Every way the artifacts in out_dir fail to agree; empty when sound."""
    out_dir = Path(out_dir)
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    graph = DebtGraph.from_json((out_dir / "graph.json").read_text(encoding="utf-8"))
    lines = (out_dir / "circuits.txt").read_text(encoding="utf-8").splitlines()
    found = _circuit_problems(graph, lines, max_len, report["circuit_count"])
    plans = json.loads((out_dir / "plans.json").read_text(encoding="utf-8"))
    return found + _plan_problems(graph, plans, report)
