from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netcycle
from netcycle import generate_synthetic, ingest_csv, write_invoices_csv
from netcycle.circuits import EnumerationConfig, check_parallelism
from netcycle.cli import main
from netcycle.ledger import MAX_AMOUNT_DIGITS
from netcycle.pipeline import ARTIFACTS
from netcycle.settlement import EXACT_HARD_CAP, OptimizerConfig

from test_pipeline import INTRO_CSV, OVERLAP_CSV, strip_timings


@pytest.fixture
def overlap_csv(tmp_path) -> Path:
    path = tmp_path / "invoices.csv"
    path.write_text(OVERLAP_CSV, encoding="utf-8")
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "netcycle" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(netcycle.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "netcycle", "--version"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"netcycle {netcycle.__version__}\n"


def test_the_cli_leaves_the_oracle_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(netcycle.__file__).parents[1]))
    code = "import sys, netcycle.cli; sys.exit('netcycle.oracle' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr or "netcycle.cli imported netcycle.oracle"


def test_run_reports_grand_total(tmp_path, overlap_csv, capsys):
    code = main(["run", "--input", str(overlap_csv), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["grand_total"] == 29_000


def test_stage_by_stage_matches_run(tmp_path, overlap_csv):
    generated = tmp_path / "generated.csv"
    with generated.open("w", encoding="utf-8", newline="") as fh:
        write_invoices_csv(fh, generate_synthetic(300, 900, seed=11))
    for name, csv_path in (("overlap", overlap_csv), ("generated", generated)):
        out = tmp_path / name / "stages"
        out.mkdir(parents=True)
        assert main(["ingest", "--input", str(csv_path), "--out", str(out / "graph.json")]) == 0
        assert main(["scc", "--graph", str(out / "graph.json"), "--out", str(out / "scc_sizes.csv")]) == 0
        assert main([
            "circuits", "--graph", str(out / "graph.json"),
            "--out", str(out / "circuits.txt"), "--json", str(out / "circuits.json"),
        ]) == 0
        assert main([
            "plan", "--graph", str(out / "graph.json"),
            "--circuits", str(out / "circuits.json"), "--out", str(out / "plans.json"),
        ]) == 0

        assert main(["run", "--input", str(csv_path), "--out-dir", str(tmp_path / name / "full")]) == 0
        full = strip_timings(tmp_path / name / "full")
        for artifact in ("graph.json", "scc_sizes.csv", "circuits.txt", "circuits.json", "plans.json"):
            assert (out / artifact).read_bytes() == full[artifact], (name, artifact)


# circuits.txt keeps ids as written: spaces and the line breaks of
# str.splitlines() other than "\r" and "\n" are part of an id
company_ids = st.sampled_from([*"ABCDEFGH", " A", "B ", "C\fD", "E\u2028F"])
invoice_lists = st.lists(
    st.tuples(company_ids, company_ids, st.integers(1, 100)).filter(lambda inv: inv[0] != inv[1]),
    max_size=20,
)


K4 = [(u, v, 1) for u in "ABCD" for v in "ABCD" if u != v]  # 20 circuits within cap 4


@settings(max_examples=30, deadline=None)
@given(invoice_lists, st.integers(2, 5), st.sampled_from(["auto", "exact", "greedy"]))
# a 4-cycle holds no circuit within cap 3, and E <-> F does
@example([("A", "B", 5), ("B", "C", 5), ("C", "D", 5), ("D", "A", 5), ("E", "F", 3), ("F", "E", 4)], 3, "auto")
@example([(" A", "B ", 100), ("B ", " A", 50), ("C\fD", "E\u2028F", 7), ("E\u2028F", "C\fD", 7)], 3, "auto")
@example(K4, 4, "exact")
@example(K4, 4, "greedy")
def test_chained_subcommands_reproduce_run(invoices, max_len, mode):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "invoices.csv").write_text("invoice_id,debtor,creditor,amount_minor,issue_date\n" + "".join(
            f"I{i},{u},{v},{w},2020-01-01\n" for i, (u, v, w) in enumerate(invoices)
        ), encoding="utf-8")
        graph, cap, how = str(d / "graph.json"), ["--max-len", str(max_len)], ["--mode", mode]
        assert main(["ingest", "--input", str(d / "invoices.csv"), "--out", graph]) == 0
        assert main(["scc", "--graph", graph, "--out", str(d / "scc_sizes.csv")]) == 0
        assert main(["circuits", "--graph", graph, "--out", str(d / "circuits.txt"),
                     "--json", str(d / "circuits.json"), *cap]) == 0
        components = json.loads((d / "circuits.json").read_text(encoding="utf-8"))["components"]
        # exact mode refuses a component of more than EXACT_HARD_CAP circuits
        refused = mode == "exact" and any(len(c["circuits"]) > EXACT_HARD_CAP for c in components)
        code = 2 if refused else 0
        assert main(["run", "--input", str(d / "invoices.csv"), "--out-dir", str(d / "run"), *cap, *how]) == code
        if not refused:
            for name in ("graph.json", "scc_sizes.csv", "circuits.txt", "circuits.json"):
                assert (d / name).read_bytes() == (d / "run" / name).read_bytes(), name
        for source in ("circuits.json", "circuits.txt"):
            plans = d / f"plans_from_{source}"
            assert main(["plan", "--graph", graph, "--circuits", str(d / source), "--out", str(plans), *how]) == code
            if refused:
                assert not plans.exists(), source
            else:
                assert plans.read_bytes() == (d / "run" / "plans.json").read_bytes(), source


def test_ingest_of_an_empty_file_is_an_empty_graph(tmp_path):
    empty, graph = tmp_path / "empty.csv", tmp_path / "graph.json"
    empty.write_bytes(b"")
    assert main(["ingest", "--input", str(empty), "--out", str(graph)]) == 0
    assert json.loads(graph.read_text(encoding="utf-8")) == {"vertices": [], "edges": []}


def test_ingest_to_stdout_matches_out_file(tmp_path, overlap_csv, capsys):
    assert main(["ingest", "--input", str(overlap_csv), "--out", str(tmp_path / "graph.json")]) == 0
    capsys.readouterr()
    assert main(["ingest", "--input", str(overlap_csv)]) == 0
    assert capsys.readouterr().out == (tmp_path / "graph.json").read_text(encoding="utf-8")


def test_plan_accepts_plain_circuit_lines(tmp_path, overlap_csv):
    out = tmp_path / "txt"
    out.mkdir()
    main(["ingest", "--input", str(overlap_csv), "--out", str(out / "graph.json")])
    main(["circuits", "--graph", str(out / "graph.json"), "--out", str(out / "circuits.txt")])
    assert main([
        "plan", "--graph", str(out / "graph.json"),
        "--circuits", str(out / "circuits.txt"), "--out", str(out / "plans.json"),
    ]) == 0
    payload = json.loads((out / "plans.json").read_text())
    assert payload["grand_total"] == 29_000
    # hand-written lines in another order and rotation plan under run's names,
    # and a circuit listed again, however far apart, is refused
    lines = [
        ",".join(c.split(",")[1:] + c.split(",")[:1])
        for c in reversed((out / "circuits.txt").read_text(encoding="utf-8").split())
    ]
    for name, listed, code in (("shuffled", lines, 0), ("repeated", lines + lines[:1], 2)):
        (out / f"{name}.txt").write_text("\n".join(listed) + "\n", encoding="utf-8")
        assert main([
            "plan", "--graph", str(out / "graph.json"),
            "--circuits", str(out / f"{name}.txt"), "--out", str(out / f"plans_{name}.json"),
        ]) == code
    assert (out / "plans_shuffled.json").read_bytes() == (out / "plans.json").read_bytes()
    assert not (out / "plans_repeated.json").exists()


def test_gen_then_run(tmp_path, capsys):
    csv_path = tmp_path / "gen.csv"
    assert main(["gen", "--companies", "60", "--edges", "200", "--seed", "5",
                 "--out", str(csv_path)]) == 0
    assert main(["run", "--input", str(csv_path), "--out-dir", str(tmp_path / "out"),
                 "--max-len", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["company_count"] == 60
    assert report["edge_count"] == 200


def test_gen_infeasible_is_input_error(tmp_path, capsys):
    assert main(["gen", "--companies", "3", "--edges", "99", "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()
    assert main(["gen", "--companies", "4", "--edges", "4", "--min-amount", "10", "--max-amount", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "input error: need 0 < min_amount <= max_amount\n"
    assert not (tmp_path / "x.csv").exists()


def test_gen_to_stdout_matches_out_file(tmp_path, capsys):
    flags = ["gen", "--companies", "7", "--edges", "12", "--seed", "3"]
    assert main([*flags, "--out", str(tmp_path / "gen.csv")]) == 0
    capsys.readouterr()
    assert main(flags) == 0
    assert capsys.readouterr().out == (tmp_path / "gen.csv").read_text(encoding="utf-8")


def test_closed_stdout_is_not_a_failure(monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["gen", "--companies", "2", "--edges", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_gen_amount_beyond_the_float_range_is_input_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["gen", "--companies", "4", "--edges", "4", "--min-amount", str(10**350),
                 "--max-amount", str(10**400), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out.exists()


def test_missing_input_file(tmp_path):
    assert main(["run", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "o")]) == 2


def test_bad_record_strict_vs_lenient(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(INTRO_CSV + "I9,D,D,5,2019-01-01\n", encoding="utf-8")
    assert main(["run", "--input", str(bad), "--out-dir", str(tmp_path / "s")]) == 2
    assert main(["run", "--input", str(bad), "--out-dir", str(tmp_path / "l"), "--lenient"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rejected_records"] == 1
    assert report["grand_total"] == 3 * 2_300_000


def test_company_id_with_comma_is_input_error(tmp_path, capsys):
    bad = tmp_path / "comma.csv"
    bad.write_text(INTRO_CSV + 'I9,"Acme, Inc",A,5,2019-01-01\nI10,B,"Acme, Inc",5,2019-01-01\n',
                   encoding="utf-8")
    assert main(["run", "--input", str(bad), "--out-dir", str(tmp_path / "s")]) == 2
    assert "company id" in capsys.readouterr().err
    assert main(["ingest", "--input", str(bad), "--out", str(tmp_path / "g.json")]) == 2
    assert main(["run", "--input", str(bad), "--out-dir", str(tmp_path / "l"), "--lenient"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rejected_records"] == 2


def test_row_with_extra_field_is_input_error(tmp_path, capsys):
    bad = tmp_path / "extra.csv"
    bad.write_text(INTRO_CSV + "I9,A,B,5,2020-01-01,EXTRA\n", encoding="utf-8")
    out = tmp_path / "g.json"
    assert main(["ingest", "--input", str(bad), "--out", str(out)]) == 2
    assert "line 5: extra field(s)" in capsys.readouterr().err
    assert not out.exists()
    assert main(["ingest", "--input", str(bad), "--out", str(out), "--lenient"]) == 0
    err = capsys.readouterr().err
    assert "rejected line 5: extra field(s): 6 fields, expected 5" in err
    assert "ingested 3 invoices" in err and "(1 rejected)" in err


# one digit past the limit, and past the 4 300 digits Python converts by default
@pytest.mark.parametrize("digits", [MAX_AMOUNT_DIGITS + 1, 5000])
def test_overlong_amount_is_input_error(tmp_path, capsys, digits):
    bad = tmp_path / "long.csv"
    bad.write_text(INTRO_CSV + f"I9,A,B,{'9' * digits},2019-01-01\n", encoding="utf-8")
    reason = f"line 5: amount_minor has more than {MAX_AMOUNT_DIGITS} digits"
    out = tmp_path / "g.json"
    assert main(["ingest", "--input", str(bad), "--out", str(out)]) == 2
    assert f"input error: {reason}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["ingest", "--input", str(bad), "--out", str(out), "--lenient"]) == 0
    assert f"rejected {reason}" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == ingest_csv(io.StringIO(INTRO_CSV)).graph.to_json()
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    assert main(["run", "--input", str(bad), "--out-dir", str(run_dir)]) == 2
    assert reason in capsys.readouterr().err
    assert list(run_dir.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "long.csv", "run"]


def _graph_text(vertices, edges) -> str:
    return json.dumps({
        "vertices": vertices,
        "edges": [{"debtor": u, "creditor": v, "amount_minor": w} for u, v, w in edges],
    })


BAD_GRAPHS = {
    # a valid 2-cycle would come out as the corrupt circuits.txt line "A,B,C"
    "comma_in_id": _graph_text(["A,B", "C"], [("A,B", "C", 5), ("C", "A,B", 5)]),
    "newline_in_id": _graph_text(["A\nB", "C"], [("A\nB", "C", 5), ("C", "A\nB", 5)]),
    "carriage_return_in_id": _graph_text(["A\rB", "C"], [("A\rB", "C", 5), ("C", "A\rB", 5)]),
    "empty_id": _graph_text(["", "C"], [("", "C", 5), ("C", "", 5)]),
    "non_string_id": _graph_text([1, "C"], [(1, "C", 5), ("C", 1, 5)]),
    "self_loop": _graph_text(["A", "B"], [("A", "A", 5), ("A", "B", 5), ("B", "A", 5)]),
    "string_amount": _graph_text(["A", "B"], [("A", "B", "5"), ("B", "A", 5)]),
    "float_amount": _graph_text(["A", "B"], [("A", "B", 5.0), ("B", "A", 5)]),
    "bool_amount": _graph_text(["A", "B"], [("A", "B", True), ("B", "A", 5)]),
    "zero_amount": _graph_text(["A", "B"], [("A", "B", 0), ("B", "A", 5)]),
    "negative_amount": _graph_text(["A", "B"], [("A", "B", -5), ("B", "A", 5)]),
    "unlisted_endpoint": _graph_text(["A"], [("A", "B", 5), ("B", "A", 5)]),
    # write_json lists each company and each edge once; a repeat must not sum or fold away
    "repeated_edge": _graph_text(["A", "B"], [("A", "B", 10), ("A", "B", 10), ("B", "A", 5)]),
    "repeated_vertex": _graph_text(["A", "B", "A"], [("A", "B", 5), ("B", "A", 5)]),
    "not_json": "vertices: A, B\n",
    "not_an_object": "[]",
    "vertices_not_a_list": json.dumps({"vertices": "AB", "edges": []}),
    "missing_edges": json.dumps({"vertices": ["A", "B"]}),
    "edge_missing_amount": json.dumps({"vertices": ["A", "B"], "edges": [{"debtor": "A", "creditor": "B"}]}),
    "edge_not_an_object": json.dumps({"vertices": ["A", "B"], "edges": [["A", "B", 5]]}),
    "nested_past_recursion_limit": "[" * 100_000,
    # past the 4 300 digits Python converts by default
    "amount_past_int_limit": '{"vertices": ["A", "B"], "edges": [{"debtor": "A", "creditor": "B", '
                             '"amount_minor": ' + "9" * 5000 + '}]}',
    # readable, but a plan's grand total over ten such 2-cycles is not
    "amount_past_edge_bound": _graph_text(
        [f"{side}{i}" for i in range(10) for side in "AB"],
        [e for i in range(10) for e in ((f"A{i}", f"B{i}", 10**4299 - 1), (f"B{i}", f"A{i}", 10**4299 - 1))],
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_GRAPHS))
def test_malformed_graph_json_is_input_error(tmp_path, capsys, case):
    graph = tmp_path / "graph.json"
    graph.write_text(BAD_GRAPHS[case], encoding="utf-8")
    circuits = tmp_path / "given.txt"
    circuits.write_text("A0,B0\n", encoding="utf-8")
    for command in (
        ["circuits", "--graph", str(graph)],
        ["scc", "--graph", str(graph)],
        ["plan", "--graph", str(graph), "--circuits", str(circuits)],
    ):
        out = tmp_path / "out"
        assert main([*command, "--out", str(out)]) == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()


def test_non_utf8_graph_json_is_input_error(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_bytes(b'{"vertices": ["\xff"], "edges": []}')
    assert main(["circuits", "--graph", str(graph)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "run"])
def test_non_utf8_csv_is_input_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(INTRO_CSV.encode() + b"I9,A,\xff,5,2019-01-01\n")
    args = ["--out", str(tmp_path / "g.json")] if command == "ingest" else ["--out-dir", str(tmp_path / "o")]
    assert main([command, "--input", str(bad), *args]) == 2
    assert "input error" in capsys.readouterr().err


def test_non_utf8_circuit_lines_are_input_error(tmp_path, capsys):
    graph = _intro_graph(tmp_path)
    lines = tmp_path / "circuits.txt"
    lines.write_bytes(b"A,B,\xff\n")
    assert main(["plan", "--graph", str(graph), "--circuits", str(lines)]) == 2
    assert "input error" in capsys.readouterr().err


def _intro_graph(tmp_path: Path) -> Path:
    csv_path = tmp_path / "intro.csv"
    csv_path.write_text(INTRO_CSV, encoding="utf-8")
    graph = tmp_path / "g.json"
    assert main(["ingest", "--input", str(csv_path), "--out", str(graph)]) == 0
    return graph


# Circuits on A -> B -> C -> A, space-separated: one that repeats a
# company, one too short, one through an unknown company, one against the
# edges, and one listed twice in two rotations.
@pytest.mark.parametrize("line", ["A,B,C,A,B,C", "A", "A,B,Z", "A,C,B", "A,B,C B,C,A"])
def test_plan_rejects_circuits_that_cannot_be_settled(tmp_path, capsys, line):
    graph = _intro_graph(tmp_path)
    out = tmp_path / "plans.json"
    lines = tmp_path / "circuits.txt"
    lines.write_text("\n".join(line.split()) + "\n", encoding="utf-8")
    assert main(["plan", "--graph", str(graph), "--circuits", str(lines), "--out", str(out)]) == 2
    structured = tmp_path / "circuits.json"
    structured.write_text(json.dumps({"components": [
        {"scc_index": 0, "circuits": [c.split(",") for c in line.split()]},
    ]}), encoding="utf-8")
    assert main(["plan", "--graph", str(graph), "--circuits", str(structured), "--out", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "not json",
    "[]",
    '{"components": [{"circuits": [["A", "B", "C"]]}]}',
    '{"components": [{"scc_index": 0}]}',
    '{"components": [{"scc_index": 0, "circuits": [[["A"], "B", "C"]]}]}',
    # a circuit is an array; a string or an object must not pass as its
    # characters or its keys
    '{"components": [{"scc_index": 0, "circuits": ["ABC"]}]}',
    '{"components": [{"scc_index": 0, "circuits": [{"A": 1, "B": 2, "C": 3}]}]}',
    pytest.param("[" * 100_000, id="nested_past_recursion_limit"),
    pytest.param('{"components": [{"scc_index": ' + "1" * 5000 + ', "circuits": []}]}',
                 id="index_past_int_limit"),
])
def test_plan_rejects_malformed_circuits_json(tmp_path, capsys, text):
    graph = _intro_graph(tmp_path)
    structured = tmp_path / "circuits.json"
    structured.write_text(text, encoding="utf-8")
    out = tmp_path / "plans.json"
    assert main(["plan", "--graph", str(graph), "--circuits", str(structured), "--out", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


# A <-> B worth 5 each way, C -> D and E <-> F worth 1 each way:
# components {A, B} (index 0), {D} (index 1), {C} (index 2) and {E, F}
# (index 3), and 12 nettable in all.
PAIR_CSV = (
    "invoice_id,debtor,creditor,amount_minor,issue_date\n"
    "I1,A,B,5,2020-01-01\n"
    "I2,B,A,5,2020-01-01\n"
    "I3,C,D,7,2020-01-01\n"
    "I4,E,F,1,2020-01-01\n"
    "I5,F,E,1,2020-01-01\n"
)
PAIR = {"scc_index": 0, "circuits": [["A", "B"]]}


def _plan_from_components(tmp_path: Path, components: list) -> tuple[int, Path]:
    csv_path = tmp_path / "pair.csv"
    csv_path.write_text(PAIR_CSV, encoding="utf-8")
    graph = tmp_path / "g.json"
    assert main(["ingest", "--input", str(csv_path), "--out", str(graph)]) == 0
    structured = tmp_path / "circuits.json"
    structured.write_text(json.dumps({"components": components}), encoding="utf-8")
    out = tmp_path / "plans.json"
    return main(["plan", "--graph", str(graph), "--circuits", str(structured), "--out", str(out)]), out


def test_plan_from_pair_components(tmp_path):
    # the component the file leaves out gets a zero plan, as a circuit-free one does in run
    code, out = _plan_from_components(tmp_path, [PAIR])
    assert code == 0
    plans = json.loads(out.read_text(encoding="utf-8"))
    assert plans["grand_total"] == 10
    assert [(p["scc_index"], p["total"]) for p in plans["plans"]] == [(0, 10), (3, 0)]


@pytest.mark.parametrize("components", [
    [PAIR, PAIR],
    [PAIR, {"scc_index": "x", "circuits": []}],
    [{"scc_index": 99, "circuits": [["A", "B"]]}],
    [{"scc_index": [1], "circuits": [["A", "B"]]}],
    [{"scc_index": True, "circuits": []}],
    [{"scc_index": 3, "circuits": [["A", "B"]]}],
    [PAIR, {"scc_index": 1, "circuits": []}],
    [{**PAIR, "truncated": "no", "truncation_reason": 7}],
    [{**PAIR, "truncated": False, "truncation_reason": "max_circuits"}],
    [{**PAIR, "truncated": True, "truncation_reason": None}],
    [{**PAIR, "truncated": True, "truncation_reason": "bored"}],
], ids=["listed-twice", "index-not-int", "index-out-of-range", "index-a-list", "index-a-bool",
        "circuit-outside-component", "index-a-singleton", "truncated-not-a-bool",
        "reason-without-truncation", "truncation-without-reason", "unknown-reason"])
def test_plan_rejects_components_that_do_not_match_the_graph(tmp_path, capsys, components):
    code, out = _plan_from_components(tmp_path, components)
    assert code == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


def test_truncation_exit_code_and_no_partial_plans(tmp_path, overlap_csv):
    out = tmp_path / "out"
    code = main(["run", "--input", str(overlap_csv), "--out-dir", str(out),
                 "--max-circuits", "1"])
    assert code == 3
    assert not (out / "plans.json").exists()
    lenient = main(["run", "--input", str(overlap_csv), "--out-dir", str(out),
                    "--max-circuits", "1", "--lenient"])
    assert lenient == 0
    assert (out / "plans.json").exists()


def test_strict_circuits_truncation_writes_nothing(tmp_path, overlap_csv, capsys):
    graph = tmp_path / "g.json"
    assert main(["ingest", "--input", str(overlap_csv), "--out", str(graph)]) == 0
    txt, structured = tmp_path / "c.txt", tmp_path / "c.json"
    capsys.readouterr()
    flags = ["circuits", "--graph", str(graph), "--max-circuits", "1"]
    assert main([*flags, "--out", str(txt), "--json", str(structured)]) == 3
    assert not txt.exists() and not structured.exists()
    assert main(flags) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "truncated components: [0]" in captured.err
    assert main([*flags, "--lenient", "--out", str(txt), "--json", str(structured)]) == 0
    assert len(txt.read_text(encoding="utf-8").splitlines()) == 1
    assert json.loads(structured.read_text(encoding="utf-8"))["components"][0]["truncated"] is True


def test_strict_plan_from_truncated_circuits_writes_nothing(tmp_path, overlap_csv, capsys):
    graph, structured, plans = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "plans.json"
    assert main(["ingest", "--input", str(overlap_csv), "--out", str(graph)]) == 0
    assert main(["circuits", "--graph", str(graph), "--max-circuits", "1", "--lenient",
                 "--out", str(tmp_path / "c.txt"), "--json", str(structured)]) == 0
    capsys.readouterr()
    flags = ["plan", "--graph", str(graph), "--circuits", str(structured), "--out", str(plans)]
    assert main(flags) == 3
    assert not plans.exists()
    assert capsys.readouterr().err == (
        "strict mode: truncated components: [0]; re-run lenient or raise the budgets\n"
    )
    assert main([*flags, "--lenient"]) == 0
    assert json.loads(plans.read_text(encoding="utf-8"))["plans"][0]["truncated"] is True


def test_huge_cap_lists_no_length_past_the_company_count(tmp_path, capsys):
    # a cap far above the graph's two companies: one row, not a million
    csv_path = tmp_path / "pair.csv"
    csv_path.write_text(
        "invoice_id,debtor,creditor,amount_minor,issue_date\n"
        "I1,A,B,100,2020-01-01\nI2,B,A,40,2020-01-01\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--input", str(csv_path), "--out-dir", str(out), "--max-len", "1000000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["circuits_by_length"] == {"2": 1}
    rows = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["2", "1"]]


def test_run_closes_a_ring_longer_than_the_recursion_limit(tmp_path, capsys):
    n = 2000
    assert n > sys.getrecursionlimit()
    rows = "".join(f"I{i},C{i:04d},C{(i + 1) % n:04d},{100 + i},2020-01-01\n" for i in range(n))
    csv_path = tmp_path / "ring.csv"
    csv_path.write_text("invoice_id,debtor,creditor,amount_minor,issue_date\n" + rows, encoding="utf-8")
    assert main(["run", "--input", str(csv_path), "--out-dir", str(tmp_path / "out"), "--max-len", str(n)]) == 0
    report = json.loads(capsys.readouterr().out)
    # one circuit through every company, netting the smallest amount on each edge
    assert report["circuit_count"] == 1
    assert report["grand_total"] == n * 100


def test_environment_sets_no_flag(tmp_path, overlap_csv, capsys, monkeypatch):
    monkeypatch.setenv("NETCYCLE_RUN_MAX_LEN", "3")
    monkeypatch.setenv("NETCYCLE_RUN_MODE", "bogus")
    assert main(["run", "--input", str(overlap_csv), "--out-dir", str(tmp_path / "out")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report["circuits_by_length"]) == [str(n) for n in range(2, 9)]


# each range-checked flag's check in the library, which the CLI runs at parse time
LIBRARY_CHECK = {
    "--max-len": lambda raw: EnumerationConfig(max_len=int(raw)),
    "--max-circuits": lambda raw: EnumerationConfig(max_circuits=int(raw)),
    "--time-budget": lambda raw: EnumerationConfig(per_scc_time_budget=float(raw)),
    "--exact-threshold": lambda raw: OptimizerConfig(exact_threshold=int(raw)),
    "--parallelism": lambda raw: check_parallelism(int(raw)),
}


@pytest.mark.parametrize("flag, value", [
    ("--max-len", "1"),
    ("--exact-threshold", "0"),
    ("--exact-threshold", "13"),
    ("--max-circuits", "0"),
    ("--time-budget", "0"),
    ("--time-budget", "nan"),
    ("--parallelism", "0"),
    ("--parallelism", "2"),
])
def test_out_of_range_flag_is_usage_error(tmp_path, overlap_csv, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--input", str(overlap_csv), "--out-dir", str(tmp_path / "o"), flag, value])
    assert exc.value.code == 2
    with pytest.raises(ValueError) as refused:
        LIBRARY_CHECK[flag](value)
    assert f"argument {flag}: {refused.value}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _k4_csv(tmp_path):
    # the complete digraph on four companies holds 20 circuits, above the exact-mode cap of 12
    csv_path = tmp_path / "k4.csv"
    pairs = [(u, v) for u in "ABCD" for v in "ABCD" if u != v]
    csv_path.write_text("invoice_id,debtor,creditor,amount_minor,issue_date\n" + "".join(
        f"I{i},{u},{v},5,2019-01-01\n" for i, (u, v) in enumerate(pairs)
    ), encoding="utf-8")
    return csv_path


def test_exact_refusal_is_input_error(tmp_path, capsys):
    csv_path = _k4_csv(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--input", str(csv_path), "--out-dir", str(out), "--mode", "exact"]) == 2
    assert "input error: 20 circuits exceeds the exact-mode cap of 12" in capsys.readouterr().err
    graph, structured = tmp_path / "graph.json", tmp_path / "circuits.json"
    assert main(["ingest", "--input", str(csv_path), "--out", str(graph)]) == 0
    assert main(["circuits", "--graph", str(graph), "--json", str(structured)]) == 0
    capsys.readouterr()
    assert main([
        "plan", "--graph", str(graph), "--circuits", str(structured), "--mode", "exact",
    ]) == 2
    assert "exact-mode cap" in capsys.readouterr().err


@pytest.mark.parametrize("flags, code", [
    (["--mode", "exact"], 2),  # refused in planning
    (["--max-circuits", "1"], 3),  # truncated in strict mode
], ids=["exact-refusal", "strict-truncation"])
def test_refused_run_adds_no_file(tmp_path, flags, code):
    csv_path = _k4_csv(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("keep\n", encoding="utf-8")
    assert main(["run", "--input", str(csv_path), "--out-dir", str(out), *flags]) == code
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    # the staging directory beside it is gone too
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k4.csv", "out"]
    assert main(["run", "--input", str(csv_path), "--out-dir", str(out), "--lenient"]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([
        "circuits.json", "circuits.txt", "graph.json", "keep.txt", "plans.json",
        "report.csv", "report.json", "scc_sizes.csv",
    ])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k4.csv", "out"]


@pytest.mark.parametrize("argv", [
    ["report", "--report", "report.json"],
    ["circuits", "--graph", "g.json", "--parallelism", "1"],
    ["plan", "--graph", "g.json", "--circuits", "c.txt", "--parallelism", "1"],
], ids=["report", "circuits-parallelism", "plan-parallelism"])
def test_removed_subcommand_and_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_unknown_mode_is_usage_error_and_writes_nothing(tmp_path, overlap_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--input", str(overlap_csv), "--out-dir", str(tmp_path / "o"), "--mode", "bogus"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_directory_as_graph_is_input_error(tmp_path, capsys):
    assert main(["scc", "--graph", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_file_as_out_dir_is_input_error(tmp_path, overlap_csv, capsys):
    occupied = tmp_path / "occupied"
    occupied.write_text("keep\n", encoding="utf-8")
    assert main(["run", "--input", str(overlap_csv), "--out-dir", str(occupied)]) == 2
    assert "input error" in capsys.readouterr().err
    assert occupied.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("name", ARTIFACTS)
def test_directory_at_an_artifact_name_is_refused_before_any_work(tmp_path, overlap_csv, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main(["run", "--input", str(overlap_csv), "--out-dir", str(out)]) == 2
    assert f"input error: [Errno 21] Is a directory: '{out / name}'" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [name]
    assert not any((out / name).iterdir())
    # no staging directory is left beside it
    assert sorted(p.name for p in tmp_path.iterdir()) == ["invoices.csv", "out"]


@pytest.mark.parametrize("directory", ["--out", "--json"])
def test_circuits_refuses_a_directory_before_any_work(tmp_path, overlap_csv, capsys, directory):
    graph = tmp_path / "g.json"
    assert main(["ingest", "--input", str(overlap_csv), "--out", str(graph)]) == 0
    paths = {"--out": tmp_path / "c.txt", "--json": tmp_path / "c.json"}
    paths[directory].mkdir()
    flags = ["--out", str(paths["--out"]), "--json", str(paths["--json"])]
    capsys.readouterr()
    for source in (graph, tmp_path / "missing.json"):  # the graph is not even read
        assert main(["circuits", "--graph", str(source), *flags]) == 2
        assert capsys.readouterr().err == f"input error: [Errno 21] Is a directory: '{paths[directory]}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["g.json", "invoices.csv", paths[directory].name])
        assert not any(paths[directory].iterdir())


# gen's flags ask for one company, which it refuses only once it starts
# generating; an input flag names a missing file.
@pytest.mark.parametrize("command, inputs", [
    ("ingest", ["--input"]), ("scc", ["--graph"]), ("plan", ["--graph", "--circuits"]),
    ("gen", ["--companies", "--edges"]),
])
def test_directory_at_out_is_refused_before_the_input_is_read(tmp_path, capsys, command, inputs):
    out = tmp_path / "out"
    out.mkdir()
    missing = [arg for flag in inputs for arg in (flag, "1" if command == "gen" else str(tmp_path / "missing"))]
    assert main([command, *missing, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: [Errno 21] Is a directory: '{out}'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert not any(out.iterdir())


def test_scc_output(tmp_path, overlap_csv, capsys):
    main(["ingest", "--input", str(overlap_csv), "--out", str(tmp_path / "g.json")])
    assert main(["scc", "--graph", str(tmp_path / "g.json")]) == 0
    assert capsys.readouterr().out == "component,size\n0,8\n"


def test_circuits_stdout_lines(tmp_path, overlap_csv, capsys):
    main(["ingest", "--input", str(overlap_csv), "--out", str(tmp_path / "g.json")])
    assert main(["circuits", "--graph", str(tmp_path / "g.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "A,B,D,E,F" in lines
    assert len(lines) == 5
