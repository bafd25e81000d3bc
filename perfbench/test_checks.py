"""Self-tests of the benchmark's checks and traced path:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from checks import digest, problems  # noqa: E402
from netcycle import PipelineConfig, run_pipeline, write_invoices_csv  # noqa: E402
from run import span_metrics  # noqa: E402
from workloads import clustered, relabel  # noqa: E402

CAP = 8


@pytest.fixture
def invoices_csv(tmp_path) -> Path:
    path = tmp_path / "invoices.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_invoices_csv(fh, relabel(clustered(60, 5), 11))
    return path


@pytest.fixture
def run_dir(tmp_path, invoices_csv) -> Path:
    out = tmp_path / "run"
    run_pipeline(PipelineConfig(invoices_csv, out, max_len=CAP))
    return out


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def test_sound_run_passes(run_dir):
    assert problems(run_dir, CAP) == []


def _bump_amount(payload):
    payload["plans"][0]["steps"][0]["amount"] += 1


def _bump_per_edge(payload):
    # Internally consistent step whose recorded value the graph cannot pay.
    step = payload["plans"][0]["steps"][0]
    step["per_edge"] += 1
    step["amount"] += len(step["circuit"])
    payload["plans"][0]["total"] += len(step["circuit"])
    payload["grand_total"] += len(step["circuit"])


@pytest.mark.parametrize("tamper", [_bump_amount, _bump_per_edge])
def test_tampered_plan_amount_is_flagged(run_dir, tamper):
    before = digest(run_dir)
    _edit_json(run_dir / "plans.json", tamper)
    assert problems(run_dir, CAP)
    assert digest(run_dir) != before


def test_dropped_circuit_line_is_flagged(run_dir):
    path = run_dir / "circuits.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[1:]), encoding="utf-8")
    assert any("report.json counts" in p for p in problems(run_dir, CAP))


def test_rotated_circuit_is_flagged(run_dir):
    path = run_dir / "circuits.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    first = lines[0].split(",")
    lines[0] = ",".join(first[1:] + first[:1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any("canonical rotation" in p for p in problems(run_dir, CAP))


def test_timings_do_not_change_the_digest(run_dir):
    before = digest(run_dir)
    _edit_json(run_dir / "report.json", lambda r: r["timings"].update(total=123.0))
    assert digest(run_dir) == before


def test_traced_run_writes_the_untraced_artifacts(tmp_path, invoices_csv, run_dir):
    out, spans = tmp_path / "traced", tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, str(HERE / "traced.py"), str(invoices_csv), str(out), str(CAP), str(spans), "t"],
        check=True, env=env, stdout=subprocess.DEVNULL, timeout=120,
    )
    assert digest(out) == digest(run_dir)
    m = span_metrics(json.loads(spans.read_text(encoding="utf-8")))
    assert 0.9 < m["trace.coverage"] <= 1.0
    layers = sum(m[f"{layer}.self_s"] for layer in ("ledger", "scc", "circuits", "settlement", "pipeline"))
    assert layers == pytest.approx(m["trace.total_s"])
    assert m["settlement.exact_components"] > 0


def test_reference_prints_its_time():
    out = subprocess.run(
        [sys.executable, str(HERE / "reference.py")], check=True, capture_output=True, text=True, timeout=60,
    )
    assert float(out.stdout) > 0
