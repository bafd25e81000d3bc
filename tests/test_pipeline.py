from __future__ import annotations

import json
from pathlib import Path

import pytest

from netcycle import PipelineConfig, RunReport, TruncatedInStrictMode, run_pipeline
from netcycle.pipeline import emit_report_csv

INTRO_CSV = (
    "invoice_id,debtor,creditor,amount_minor,issue_date\n"
    "I1,A,B,3200000,2019-03-01\n"
    "I2,B,C,2300000,2019-03-02\n"
    "I3,C,A,2500000,2019-03-03\n"
)

# the three-circuit overlap instance as 13 invoices; A->B and C->G are each
# split in two to exercise aggregation on the way in
OVERLAP_CSV = "invoice_id,debtor,creditor,amount_minor,issue_date\n" + "".join(
    f"N{i:02d},{u},{v},{w},2019-06-0{1 + i % 9}\n"
    for i, (u, v, w) in enumerate(
        [
            ("A", "B", 3000), ("A", "B", 4000),
            ("B", "C", 7000), ("C", "D", 7000), ("D", "A", 7000),
            ("B", "D", 200), ("D", "E", 200), ("E", "F", 200), ("F", "A", 200),
            ("C", "G", 100), ("C", "G", 200),
            ("G", "H", 300), ("H", "B", 300),
        ]
    )
)


def write_csv(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "invoices.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_overlap_instance_report(tmp_path):
    cfg = PipelineConfig(write_csv(tmp_path, OVERLAP_CSV), tmp_path / "out")
    report = run_pipeline(cfg)
    assert report.company_count == 8
    assert report.edge_count == 11
    assert report.scc_count == 1
    assert report.grand_total == 29_000
    # the instance embeds five circuits in total (three overlapping ones
    # plus the two cycles their union necessarily forms)
    assert report.circuit_count == 5
    assert not report.truncated
    for name in ("graph.json", "scc_sizes.csv", "circuits.txt", "circuits.json",
                 "plans.json", "report.json", "report.csv"):
        assert (tmp_path / "out" / name).exists()


def test_empty_input(tmp_path):
    path = write_csv(tmp_path, "invoice_id,debtor,creditor,amount_minor,issue_date\n")
    report = run_pipeline(PipelineConfig(path, tmp_path / "out"))
    assert report.company_count == 0
    assert report.grand_total == 0
    assert report.density is None
    assert report.circuits_to_steps_ratio is None


def test_intro_instance_total(tmp_path):
    report = run_pipeline(PipelineConfig(write_csv(tmp_path, INTRO_CSV), tmp_path / "out"))
    assert report.circuit_count == 1
    assert report.grand_total == 3 * 2_300_000
    assert report.density == "1/2"


def test_strict_truncation_blocks_plans(tmp_path):
    cfg = PipelineConfig(
        write_csv(tmp_path, OVERLAP_CSV), tmp_path / "out", max_circuits=1
    )
    with pytest.raises(TruncatedInStrictMode):
        run_pipeline(cfg)
    assert not (tmp_path / "out" / "plans.json").exists()
    assert not (tmp_path / "out" / "report.json").exists()


def test_bad_optimizer_settings_fail_before_any_write(tmp_path):
    cfg = PipelineConfig(write_csv(tmp_path, OVERLAP_CSV), tmp_path / "out", exact_threshold=13)
    with pytest.raises(ValueError, match="exact_threshold"):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()


def test_lenient_truncation_flags_plans(tmp_path):
    cfg = PipelineConfig(
        write_csv(tmp_path, OVERLAP_CSV), tmp_path / "out", max_circuits=1, strict=False
    )
    report = run_pipeline(cfg)
    assert report.truncated
    plans = json.loads((tmp_path / "out" / "plans.json").read_text())
    assert plans["plans"][0]["truncated"]
    assert plans["plans"][0]["truncation_reason"] == "max_circuits"


def strip_timings(out_dir: Path) -> dict[str, object]:
    artifacts: dict[str, object] = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "report.json":
            payload = json.loads(path.read_text())
            payload.pop("timings")
            artifacts[path.name] = payload
        elif path.name == "report.csv":
            rows = [line.split(",")[:2] for line in path.read_text().splitlines()]
            artifacts[path.name] = rows
        else:
            artifacts[path.name] = path.read_bytes()
    return artifacts


def test_repeat_runs_are_identical_modulo_timings(tmp_path):
    path = write_csv(tmp_path, OVERLAP_CSV)
    run_pipeline(PipelineConfig(path, tmp_path / "a"))
    run_pipeline(PipelineConfig(path, tmp_path / "b"))
    assert strip_timings(tmp_path / "a") == strip_timings(tmp_path / "b")


def test_parallelism_does_not_change_artifacts(tmp_path):
    from netcycle import generate_synthetic, write_invoices_csv

    path = tmp_path / "gen.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_invoices_csv(fh, generate_synthetic(80, 240, seed=13))
    run_pipeline(PipelineConfig(path, tmp_path / "seq", max_len=5))
    run_pipeline(PipelineConfig(path, tmp_path / "par", max_len=5, parallelism=4))
    assert strip_timings(tmp_path / "seq") == strip_timings(tmp_path / "par")


class TestReportCsv:
    def test_rows_per_length(self):
        report = RunReport()
        report.circuits_by_length = {2: 4, 3: 1, 4: 0}
        report.timings = {"ingest": 0.5, "total": 1.0}
        text = emit_report_csv(report)
        lines = text.splitlines()
        assert len(lines) == 4  # header + one row per length
        assert lines[1].startswith("2,4,")
        assert lines[3].startswith("4,0,")

    def test_empty_report_is_header_only(self):
        text = emit_report_csv(RunReport())
        assert text.splitlines() == [
            "length,circuit_count,ingest_seconds,scc_seconds,circuits_seconds,plan_seconds,total_seconds"
        ]

    def test_roundtrip_from_json(self, tmp_path):
        report = run_pipeline(PipelineConfig(write_csv(tmp_path, OVERLAP_CSV), tmp_path / "out"))
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        again = emit_report_csv(RunReport.from_dict(payload))
        assert again == (tmp_path / "out" / "report.csv").read_text()
