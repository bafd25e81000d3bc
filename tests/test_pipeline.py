from __future__ import annotations

import io
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcycle import (
    ComponentCircuits,
    DebtGraph,
    EnumerationConfig,
    EnumerationResult,
    PipelineConfig,
    PlanStep,
    RunReport,
    SettlementPlan,
    TruncatedInStrictMode,
    enumerate_graph,
    plan_per_scc,
    run_pipeline,
    tarjan,
)
from netcycle.pipeline import circuits_json, dump_json, emit_report_csv, plans_json, write_plans_json

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
    with pytest.raises(TruncatedInStrictMode, match=r"^truncated components: \[0\];"):
        run_pipeline(cfg)
    assert not (tmp_path / "out" / "plans.json").exists()
    assert not (tmp_path / "out" / "report.json").exists()


def test_bad_optimizer_settings_fail_before_any_write(tmp_path):
    cfg = PipelineConfig(write_csv(tmp_path, OVERLAP_CSV), tmp_path / "out", exact_threshold=13)
    with pytest.raises(ValueError, match="exact_threshold"):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "setting", [{"max_len": 2.5}, {"max_circuits": 0}, {"time_budget": float("nan")}],
    ids=["max_len", "max_circuits", "time_budget"],
)
def test_bad_enumeration_settings_fail_before_any_work(tmp_path, setting):
    # the input does not exist: opening it would raise FileNotFoundError
    cfg = PipelineConfig(tmp_path / "missing.csv", tmp_path / "out", **setting)
    with pytest.raises(ValueError):
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


def test_parallelism_other_than_one_is_refused(tmp_path):
    path = write_csv(tmp_path, OVERLAP_CSV)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="parallelism"):
        run_pipeline(PipelineConfig(path, out, parallelism=2))
    assert not out.exists()
    run_pipeline(PipelineConfig(path, out))
    graph = DebtGraph.from_json((out / "graph.json").read_text(encoding="utf-8"))
    partition = tarjan(graph)
    with pytest.raises(ValueError, match="parallelism"):
        enumerate_graph(graph, partition, None, None, 2)
    with pytest.raises(ValueError, match="parallelism"):
        plan_per_scc(graph, partition, None, None, None, 2)


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
            "length,circuit_count,ingest_seconds,graph_json_seconds,scc_seconds,"
            "circuits_seconds,plan_seconds,total_seconds"
        ]


# Ids that the encoder must escape: quotes, backslashes, control
# characters, non-ASCII and astral characters.
tricky_ids = st.text(
    st.one_of(st.sampled_from('"\\\n\t\x00\x1féЖ\u2028\U0001f600'), st.characters()),
    min_size=1, max_size=6,
)
id_circuits = st.lists(tricky_ids, min_size=2, max_size=5).map(tuple)
reasons = st.sampled_from([None, "max_circuits", "time_budget", 'odd "reason"\n'])
components = st.builds(
    lambda i, circuits, truncated, reason: ComponentCircuits(i, EnumerationResult(circuits, truncated, reason)),
    st.integers(0, 10**6), st.lists(id_circuits, max_size=4), st.booleans(), reasons,
)
plans = st.builds(
    SettlementPlan,
    steps=st.lists(st.builds(PlanStep, id_circuits, st.integers(1, 10**15), st.integers(1, 10**15)), max_size=3),
    total=st.integers(0, 10**15),
    skipped=st.lists(id_circuits, max_size=2),
    mode=st.sampled_from(["exact", "greedy"]),
    scc_index=st.one_of(st.none(), st.integers(0, 10**6)),
    truncated=st.booleans(),
    truncation_reason=reasons,
)
histograms = st.dictionaries(st.integers(1, 10**6), st.integers(0, 10**6), max_size=4)
floats = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))

# Any value the artifact writer takes, nested up to depth 4: escaped,
# control and astral characters, ints past 64 bits, the float edge cases
# json spells its own way, int keys and empty containers.
json_text = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé\u2028\U0001f600'), st.characters()), max_size=6
)
json_keys = st.one_of(json_text, st.integers(-(2**70), 2**70))
json_scalars = st.one_of(
    json_text,
    st.integers(),
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -1),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e300, float("nan"), float("inf"), float("-inf")]),
)
json_values = json_scalars
for _ in range(4):
    json_values = st.one_of(
        json_scalars,
        st.lists(json_values, max_size=3),
        st.lists(json_values, max_size=3).map(tuple),
        st.dictionaries(json_keys, json_values, max_size=3),
    )


@st.composite
def reports(draw) -> RunReport:
    report = RunReport()
    report.company_count = draw(st.integers(0, 10**6))
    report.density = draw(st.one_of(st.none(), st.just("1/2")))
    report.density_float = draw(floats)
    report.scc_size_histogram = draw(histograms)
    report.circuits_by_length = draw(histograms)
    report.truncated = draw(st.booleans())
    report.per_scc_totals = [p.to_dict() for p in draw(st.lists(plans, max_size=3))]
    report.circuits_to_steps_ratio = draw(floats)
    report.timings = draw(st.dictionaries(st.sampled_from(["ingest", "graph_json", "total"]), st.floats(0, 100)))
    return report


def reference_circuits_json(per_component, cfg) -> str:
    payload = {
        "max_len": cfg.max_len,
        "components": [
            {
                "scc_index": item.scc_index,
                "truncated": item.result.truncated,
                "truncation_reason": item.result.truncation_reason,
                "circuits": [list(c) for c in item.result.circuits],
            }
            for item in per_component
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def dumped(payload) -> str:
    buf = io.StringIO()
    dump_json(payload, buf)
    return buf.getvalue()


class TestStreamedJson:
    """dump_json writes json.dumps(payload, indent=2) + "\\n" one top-level
    list item at a time."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(components, max_size=4), st.integers(2, 12))
    def test_circuits_json_matches_json_dumps(self, per_component, max_len):
        cfg = EnumerationConfig(max_len)
        assert circuits_json(per_component, cfg) == reference_circuits_json(per_component, cfg)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(plans, max_size=4))
    def test_plans_json_matches_json_dumps(self, items):
        payload = {"grand_total": sum(p.total for p in items), "plans": [p.to_dict() for p in items]}
        assert plans_json(items) == json.dumps(payload, indent=2) + "\n"

    @settings(max_examples=50, deadline=None)
    @given(reports())
    def test_report_json_matches_json_dumps(self, report):
        payload = report.to_dict()
        assert dumped(payload) == json.dumps(payload, indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(json_keys, json_values, max_size=4))
    def test_any_payload_matches_json_dumps(self, payload):
        assert dumped(payload) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("payload", [
        {"a": {1, 2}},
        {"plans": [{"steps": [[1, {"x": {3}}]]}]},
    ])
    def test_a_set_is_refused_as_json_refuses_it(self, payload):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2)
        with pytest.raises(TypeError):
            dumped(payload)

    def test_empty_payloads(self):
        for payload in ({}, {"plans": []}, {"grand_total": 0, "plans": [], "note": {}}):
            assert dumped(payload) == json.dumps(payload, indent=2) + "\n"
        assert dumped({"plans": iter([])}) == dumped({"plans": []})

    def test_one_write_per_plan(self):
        items = [
            SettlementPlan([PlanStep(("A", "B"), 5, 10)], 10, [("A", "C")], "exact", i) for i in range(5)
        ]
        chunks: list[str] = []

        class Recorder:
            def write(self, text: str) -> None:
                chunks.append(text)

        write_plans_json(Recorder(), items)
        assert "".join(chunks) == plans_json(items)
        with_plans = [chunk for chunk in chunks if '"scc_index"' in chunk]
        assert [chunk.count('"scc_index"') for chunk in with_plans] == [1] * len(items)

    def test_peak_memory_is_a_fraction_of_the_text(self):
        items = [
            SettlementPlan(
                [PlanStep(tuple(f"company-{i:05d}-{k}" for k in range(6)), 1_000 + i, 6_000 + 6 * i)],
                6_000 + 6 * i, [], "exact", i,
            )
            for i in range(2_000)
        ]

        class Sink:
            size = 0

            def write(self, text: str) -> None:
                self.size += len(text)

        sink = Sink()
        tracemalloc.start()
        try:
            write_plans_json(sink, items)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size == len(plans_json(items))
        assert peak < sink.size / 2
