"""netcycle benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Times `netcycle run` end to end, each sample in a fresh process started
from the source tree (PYTHONPATH=src, no install, default flags, so
parallelism 1), on an invoice CSV made from the seed before any timing.
End-to-end times are scaled to reference host speed with
perfbench/reference.py, a fixed task run beside the samples. Every
sample's artifacts are checked; a sample that fails counts as failed and
its timings are dropped. With --trace 1 each round also runs
perfbench/traced.py, which records a span around each layer call, and the
per-layer metrics come from those spans. `--workload all` interleaves the
workloads round-robin and prints a table per workload. The last line of
stdout is one JSON object: correct, attempted, failed and metrics. See
perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"
TRACED = HERE / "traced.py"
REFERENCE = HERE / "reference.py"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

# Set-up-only processes per round, so set-up time gets a median of its own.
SETUPS_PER_ROUND = 3
# Times are reported at reference host speed: scaled by REFERENCE_S over
# the mean time reference.py took in the same run, five times per round.
REFERENCE_S = 0.4
# A child that has not exited by then is killed and its sample fails.
CHILD_LIMIT_S = 90.0

LAYERS = ("ledger", "scc", "circuits", "settlement", "pipeline")
# Printed and recorded beside the end-to-end metrics, never compared.
RAW = [{"name": n, "unit": "s"} for n in ("run_wall_s", "setup_wall_s", "reference_s")]


def child_env() -> dict[str, str]:
    # Flags come from the command line only: drop NETCYCLE_RUN_* overrides.
    env = {k: v for k, v in os.environ.items() if not k.startswith("NETCYCLE_RUN_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(script: Path, args: list[str], log: Path) -> dict:
    """Run one child to completion: exit code, wall time from spawn to reap,
    and the CPU time of it and anything it started."""
    with open(log, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(script), *args],
            stdout=out, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
        )
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode, "start": t0, "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def spawn_netcycle(args: list[str], stamp: Path, log: Path) -> dict:
    """child.py: adds setup_s (spawn until netcycle imported), body_s
    (imported until the CLI returned) and rss_mb (peak resident memory of
    the child and anything it started) to spawn's record."""
    rec = spawn(CHILD, [str(stamp), *args], log)
    if rec["code"] == 0:
        ready, done, peak_kib = map(float, stamp.read_text(encoding="utf-8").split())
        rec["setup_s"] = ready - rec["start"]
        rec["body_s"] = done - ready
        rec["rss_mb"] = peak_kib / 1024
    return rec


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def self_times(spans: list[dict], root: dict) -> dict[str, float]:
    """Per layer: span durations minus the part their children cover,
    over the spans under `root`."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    totals = dict.fromkeys(LAYERS, 0.0)
    stack = [root]
    while stack:
        s = stack.pop()
        covered, reach = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            covered += max(0.0, c["end"] - max(c["start"], reach))
            reach = max(reach, c["end"])
        totals[s["name"].split(".")[0]] += (s["end"] - s["start"]) - covered
        stack.extend(children[s["id"]])
    return totals


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times of one traced run."""
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    def total(name: str, keep=lambda s: True) -> float:
        return sum(s["end"] - s["start"] for s in named[name] if keep(s))

    root = named["pipeline.run"][0]
    root_s = root["end"] - root["start"]
    searches = named["circuits.search"]
    giant = max(searches, key=lambda s: s["size"])["id"] if searches else None
    m = {
        "ledger.parse_s": total("ledger.parse"),
        "ledger.ingest_s": total("ledger.ingest"),
        "ledger.graph_json_write_s": total("ledger.graph_json_write"),
        "ledger.graph_json_read_s": total("ledger.graph_json_read"),
        "ledger.invoices": named["ledger.ingest"][0]["invoices"],
        "ledger.graph_json_bytes": named["ledger.graph_json_write"][0]["bytes"],
        "scc.tarjan_s": total("scc.tarjan"),
        "circuits.adjacency_s": total("circuits.adjacency"),
        "circuits.search_s": total("circuits.search"),
        "circuits.giant_s": total("circuits.search", lambda s: s["id"] == giant),
        "circuits.rest_s": total("circuits.search", lambda s: s["id"] != giant),
        "circuits.serialize_s": total("circuits.serialize"),
        "settlement.exact_s": total("settlement.optimize", lambda s: s["mode"] == "exact"),
        "settlement.greedy_s": total("settlement.optimize", lambda s: s["mode"] == "greedy"),
        "settlement.exact_components": sum(s["mode"] == "exact" for s in named["settlement.optimize"]),
        "settlement.greedy_components": sum(s["mode"] == "greedy" for s in named["settlement.optimize"]),
        "settlement.replay_s": total("settlement.replay"),
        "pipeline.plans_json_s": total("pipeline.plans_json"),
        "pipeline.report_s": total("pipeline.report"),
        "trace.total_s": root_s,
        "trace.coverage": sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"]) / root_s,
    }
    for layer, seconds in self_times(spans, root).items():
        m[f"{layer}.self_s"] = seconds
    return m


def report_counts(out_dir: Path) -> dict[str, float]:
    """Per-layer counts read from a checked run's artifacts."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    sizes = {int(k): v for k, v in report["scc_size_histogram"].items()}
    return {
        "ledger.edges": report["edge_count"],
        "scc.components": report["scc_count"],
        "scc.nontrivial": sum(v for k, v in sizes.items() if k >= 2),
        "scc.giant_size": max(sizes, default=0),
        "circuits.count": report["circuit_count"],
        "settlement.steps": report["settled_steps"],
        "settlement.skipped": report["skipped_circuits"],
        # report.json and report.csv carry timings, whose digits vary.
        "pipeline.artifact_bytes": sum(
            (out_dir / n).stat().st_size for n in ARTIFACTS if not n.startswith("report")
        ),
    }


class Session:
    """One workload's input, samples and checks within one benchmark run."""

    def __init__(self, workload, seed: int, trace: bool, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.dir = scratch / workload.name
        self.dir.mkdir(parents=True)
        self.csv = self.dir / "invoices.csv"
        self.input_total = write_input(workload, seed, self.csv)
        self.setup: list[float] = []
        self.reference: list[float] = []
        self.samples: list[dict] = []
        self.kept: dict[str, Path] = {}
        self.expected: str | None = None
        self.counts: dict[str, float] = {}

    def _reference(self) -> None:
        log = self.dir / "reference.log"
        if spawn(REFERENCE, [], log)["code"] == 0:
            self.reference.append(float(log.read_text(encoding="utf-8")))

    def round(self, n: int) -> None:
        for _ in range(SETUPS_PER_ROUND):
            self._reference()
            rec = spawn_netcycle([], self.dir / "stamp", self.dir / "setup.log")
            if rec["code"] == 0:
                self.setup.append(rec["setup_s"])
        out = self.dir / f"run{n}"
        rec = spawn_netcycle(
            ["run", "--input", str(self.csv), "--out-dir", str(out),
             "--max-len", str(self.workload.max_len), "--parallelism", "1"],
            self.dir / "stamp", self.dir / f"run{n}.log",
        )
        self._collect(rec, "run", out)
        self._reference()
        self._reference()
        if self.trace:
            out = self.dir / f"trace{n}"
            spans = self.dir / f"spans{n}.json"
            rec = spawn(
                TRACED,
                [str(self.csv), str(out), str(self.workload.max_len), str(spans),
                 f"{self.workload.name}-{self.seed}-{n}"],
                self.dir / f"trace{n}.log",
            )
            if rec["code"] == 0:
                rec["spans"] = json.loads(spans.read_text(encoding="utf-8"))
            self._collect(rec, "trace", out)

    def _collect(self, rec: dict, kind: str, out: Path) -> None:
        """Fingerprint the artifacts; keep one directory per distinct digest."""
        rec["kind"] = kind
        rec["problems"] = [] if rec["code"] == 0 else [f"{kind} exited with code {rec['code']}"]
        if rec["code"] == 0:
            try:
                rec["digest"] = digest(out)
                rec["grand_total"] = json.loads((out / "report.json").read_text(encoding="utf-8"))["grand_total"]
            except (OSError, ValueError, KeyError) as err:
                rec["problems"].append(f"unreadable artifacts: {err!r}")
        if rec.get("digest") and rec["digest"] not in self.kept:
            self.kept[rec["digest"]] = out
        else:
            shutil.rmtree(out, ignore_errors=True)
        self.samples.append(rec)

    def check(self, pinned: dict[str, str]) -> None:
        """Every sample must reproduce the expected artifacts: the digest
        pinned for the base seed, else the first untraced sample's; and the
        expected artifacts must pass the semantic checks."""
        expected = pinned.get(self.workload.name) if self.seed == self.workload.base_seed else None
        if expected is None:
            expected = next((s["digest"] for s in self.samples if s["kind"] == "run" and "digest" in s), None)
        found = []
        if expected in self.kept:
            try:
                found = problems(self.kept[expected], self.workload.max_len)
            except (OSError, ValueError, KeyError) as err:
                found = [f"unreadable artifacts: {err!r}"]
        else:
            found = [f"no sample produced the expected artifacts {expected}"]
        self.expected = expected
        for s in self.samples:
            if s.get("digest") != expected and not s["problems"]:
                s["problems"].append(f"artifacts digest {s.get('digest')} != expected {expected}")
            s["problems"] += found
            s["ok"] = not s["problems"]
        self.counts = report_counts(self.kept[expected]) if expected in self.kept else {}
        self.counts["ledger.csv_bytes"] = self.csv.stat().st_size

    def end_to_end(self) -> dict[str, tuple[list[float], str]]:
        """Samples per end-to-end metric, with how a ratio was formed, plus
        the raw wall times and reference times behind the scaled ones."""
        runs = [s for s in self.samples if s["kind"] == "run"]
        good = [s for s in runs if s["ok"]] or runs
        passed = sum(s["ok"] for s in self.samples)
        grand = good[0].get("grand_total", 0)
        walls = [s["wall_s"] for s in good]
        setups = self.setup + [s["setup_s"] for s in good if "setup_s" in s]
        # The mean, like a sample's wall time, averages fast and slow spells.
        reference = statistics.mean(self.reference)
        scale = REFERENCE_S / reference
        how = f"wall x {REFERENCE_S}/{reference:.4f}"
        return {
            "run_s": ([w * scale for w in walls], how),
            "setup_s": ([w * scale for w in setups], how),
            "peak_rss_mb": ([s["rss_mb"] for s in good if "rss_mb" in s], ""),
            "netted_ratio": ([grand / self.input_total], f"{grand}/{self.input_total}"),
            "passed_share": ([passed / len(self.samples)], f"{passed}/{len(self.samples)}"),
            "run_wall_s": (walls, ""),
            "setup_wall_s": (setups, ""),
            "reference_s": (self.reference, ""),
        }

    def per_layer(self) -> dict[str, tuple[list[float], str]]:
        traces = [s for s in self.samples if s["kind"] == "trace" and s["ok"]]
        runs = [s for s in self.samples if s["kind"] == "run" and s["ok"]]
        per = defaultdict(list)
        for s in traces:
            for name, value in span_metrics(s["spans"]).items():
                per[name].append(value)
        out = {name: (values, "") for name, values in per.items()}
        for name, value in self.counts.items():
            out[name] = ([value], "")
        if traces and runs:
            out["pipeline.cpu_s"] = ([s["cpu_s"] for s in runs], "")
            # body_s is the untraced run after import, like the root span.
            body = statistics.median(s["body_s"] for s in runs)
            out["trace.overhead_s"] = ([v - body for v in per["trace.total_s"]], "")
        if "circuits.search_s" in per and "circuits.count" in self.counts:
            out["circuits.per_s"] = ([self.counts["circuits.count"] / v for v in per["circuits.search_s"]], "")
        if self.counts.get("circuits.count"):
            steps, base = self.counts["settlement.steps"], self.counts["circuits.count"]
            out["settlement.useful_ratio"] = ([steps / base], f"{steps}/{base}")
        return out

    def stress(self, layer: dict) -> str:
        """Whether the workload's stressed layers hold the claimed share."""
        if "trace.total_s" not in layer:
            return "no traced sample passed"
        total = statistics.median(layer["trace.total_s"][0])
        held = sum(statistics.median(layer[n][0]) for n in self.workload.stresses) / total
        verdict = "met" if held > self.workload.share else "NOT met"
        return f"{' + '.join(self.workload.stresses)} = {held:.1%} of traced total (claim > {self.workload.share:.0%}): {verdict}"


def table(rows: dict[str, tuple[list[float], str]], metrics: list[dict]) -> list[str]:
    lines = [f"  {'metric':<30} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  base"]
    for m in metrics:
        values, base = rows.get(m["name"], ([], ""))
        if not values:
            lines.append(f"  {m['name']:<30} {m['unit']:<6} {'(no sample)':>14}")
            continue
        q1, med, q3 = quartiles(values)
        lines.append(
            f"  {m['name']:<30} {m['unit']:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(values):>3}  {base}"
        )
    return lines


def environment() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "engine": resolve_engine("auto"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {sorted(WORKLOADS)} or all")
    parser.add_argument("--seed", type=int, default=None, help="default: each workload's base seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    chosen = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    # Termination unwinds through spawn(), which then kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    scratch = WORK / "scratch"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = environment()
    print(f"netcycle benchmark: workload={args.workload} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    sessions = []
    for w in chosen:
        t = time.monotonic()
        sessions.append(Session(w, w.base_seed if args.seed is None else args.seed, bool(args.trace), scratch))
        print(f"{w.name}: seed {sessions[-1].seed}, input made in {time.monotonic() - t:.1f} s (untimed)")
    spawn_netcycle([], scratch / "stamp", scratch / "warmup.log")  # fills the bytecode cache

    budget = args.seconds * len(sessions)
    start = time.monotonic()
    n = 0
    while True:
        began = time.monotonic()
        for s in sessions[n % len(sessions):] + sessions[:n % len(sessions)]:
            s.round(n)
        n += 1
        now = time.monotonic()
        if now - start + (now - began) / 2 >= budget:
            break

    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"] + RAW}
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = {}
    attempted = failed = 0
    for s in sessions:
        s.check(pinned)
        attempted += len(s.samples)
        failed += sum(not x["ok"] for x in s.samples)
        rows = s.end_to_end()
        print(f"\n{s.workload.name} (seed {s.seed}, cap {s.workload.max_len}, {n} rounds, "
              f"artifacts {s.expected})")
        print("\n".join(table(rows, spec["end_to_end"] + RAW)))
        if args.trace:
            layer = s.per_layer()
            print("\n".join(table(layer, spec["per_layer"])))
            print("  stress: " + s.stress(layer))
            rows = {**rows, **layer}
        for x in s.samples:
            for p in x["problems"][:5]:
                print(f"  FAILED {x['kind']}: {p}")
        prefix = "" if len(sessions) == 1 else f"{s.workload.name}."
        for m in reported:
            values = rows.get(m["name"], ([], ""))[0]
            results[prefix + m["name"]] = {
                "value": statistics.median(values) if values else 0.0, "unit": m["unit"],
            }
        record = {
            "env": env, "workload": s.workload.name, "seed": s.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": n, "artifacts": s.expected,
            "metrics": {k: {"samples": v, "base": b, "unit": units.get(k)} for k, (v, b) in rows.items()},
            "reference": s.reference,
            "samples": s.samples,  # traced samples carry their spans
        }
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        path = results_dir / f"{s.workload.name}-seed{s.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
        print(f"  result with environment: {path.relative_to(ROOT)}")
    shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    if not (SRC / "netcycle" / "__init__.py").is_file():
        sys.exit(f"run.py: no netcycle source tree at {SRC}; run from a netcycle checkout")
    sys.path.insert(0, str(SRC))
    from checks import ARTIFACTS, digest, problems  # noqa: E402
    from netcycle.circuits import resolve_engine  # noqa: E402
    from workloads import WORKLOADS, write_input  # noqa: E402

    sys.exit(main())
