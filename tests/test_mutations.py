"""The exit-code contract under mutated input.

Whatever bytes reach a reader, and whatever flag values come with them,
every command exits 0, 2 (input or usage error) or 3 (truncated in
strict mode), never 1 (an internal error), and a refused `run`,
`circuits` or `plan` leaves no output. The inputs are a small run's own
artifacts with bytes flipped, spans deleted, tokens inserted that have
tripped readers before, and lines duplicated, swapped and deleted.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcycle.cli import main
from netcycle.settlement import EXACT_HARD_CAP, MODES

from test_pipeline import OVERLAP_CSV

# a second component, so run and plan can hand one to the forked helper
INVOICES = OVERLAP_CSV + "X1,P,Q,40,2019-07-01\nX2,Q,P,30,2019-07-02\n"

TOKENS = [
    b"9" * 5000,  # an integer past the interpreter's 4 300-digit conversion limit
    b"NaN",  # a float JSON does not define
    "\x85".encode(),  # a line break to str.splitlines, not to the csv module
    b"\xed\xa0\x80",  # a lone surrogate's UTF-8 bytes
    b"[" * 3000,  # JSON nested past the parser's recursion limit
]

# line edits on the text split at "\n": the line at the first index, and
# for a swap the line at the second
LINE_EDITS = ("duplicate line", "swap lines", "delete line")

mutations = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
        st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 40)),
        st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(TOKENS)),
        st.tuples(st.sampled_from(LINE_EDITS), st.integers(0, 10**6), st.integers(0, 10**6)),
    ),
    max_size=3,  # none: the flag values alone
)

# each reader: a command, its input flag and the artifact given there
READERS = [
    ("ingest", "--input", "invoices.csv"), ("run", "--input", "invoices.csv"),
    ("scc", "--graph", "graph.json"), ("circuits", "--graph", "graph.json"), ("plan", "--graph", "graph.json"),
    ("plan", "--circuits", "circuits.json"), ("plan", "--circuits", "circuits.txt"),
]

# in-range and out-of-range values; None leaves the flag out
ENUM_FLAGS = {
    "--max-len": st.integers(0, 9).map(str),
    "--max-circuits": st.integers(0, 4).map(str),  # 1 to 3 truncate the three-circuit component
    "--time-budget": st.sampled_from(["nan", "0", "-1", "1e-9", "inf", "60"]),
}
PLAN_FLAGS = {
    "--exact-threshold": st.integers(0, EXACT_HARD_CAP + 1).map(str),
    "--mode": st.sampled_from([*MODES, "bogus"]),
}
FLAGS = {
    "ingest": {}, "scc": {},
    "circuits": ENUM_FLAGS,
    "plan": PLAN_FLAGS,
    "run": {**ENUM_FLAGS, **PLAN_FLAGS, "--parallelism": st.integers(0, 2).map(str)},
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> dict[str, bytes]:
    d = tmp_path_factory.mktemp("source")
    (d / "invoices.csv").write_text(INVOICES, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--input", str(d / "invoices.csv"), "--out-dir", str(d / "run")]) == 0
    found = {name: (d / "run" / name).read_bytes() for name in ("graph.json", "circuits.json", "circuits.txt")}
    return {"invoices.csv": (d / "invoices.csv").read_bytes(), **found}


def mutate(data: bytes, steps: list[tuple]) -> bytes:
    for kind, at, arg in steps:
        if kind in LINE_EDITS:
            lines = data.split(b"\n")
            at, arg = at % len(lines), arg % len(lines)
            if kind == "duplicate line":
                lines.insert(at, lines[at])
            elif kind == "swap lines":
                lines[at], lines[arg] = lines[arg], lines[at]
            else:
                del lines[at]
            data = b"\n".join(lines)
            continue
        at %= len(data) + 1
        if kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ arg]) + data[at + 1:]
        elif kind == "delete":
            data = data[:at] + data[at + arg:]
        elif kind == "insert":
            data = data[:at] + arg + data[at:]
    return data


def exit_code(argv: list[str]) -> tuple[int, str]:
    """main's exit code, a usage error's included, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(READERS), mutations, st.data())
def test_mutated_input_exits_0_2_or_3_and_a_refusal_writes_nothing(artifacts, reader, steps, data):
    command, option, name = reader
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        src = d / "source"
        src.mkdir()
        (src / name).write_bytes(mutate(artifacts[name], steps))
        argv = [command, option, str(src / name)]
        if command == "plan":  # the other input as the run wrote it
            other, given_as = ("--circuits", "circuits.json") if option == "--graph" else ("--graph", "graph.json")
            (src / given_as).write_bytes(artifacts[given_as])
            argv += [other, str(src / given_as)]
        outputs = d / "outputs"
        argv += ["--out-dir", str(outputs)] if command == "run" else ["--out", str(outputs / "out")]
        if command == "circuits":
            argv += ["--json", str(outputs / "out.json")]
        if command != "run":
            outputs.mkdir()
        for flag, values in FLAGS[command].items():
            value = data.draw(st.none() | values, label=flag)
            if value is not None:
                argv += [flag, value]
        if command != "scc" and data.draw(st.booleans(), label="--lenient"):
            argv.append("--lenient")

        code, err = exit_code(argv)
        assert code in (0, 2, 3), f"{argv} exited {code}:\n{err}"
        if code and command in ("run", "circuits", "plan"):
            left = sorted(p.relative_to(d).as_posix() for p in d.rglob("*") if not p.is_relative_to(src))
            assert left in ([], ["outputs"]), f"{argv} exited {code} and left {left}"
