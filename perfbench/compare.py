"""Compare two benchmark results:

    python3 perfbench/compare.py BASE.json NEW.json

Both files are result records that run.py writes under .perfbench/results/.
Results measured with different resolved circuit engines are not
comparable, and neither are different workloads or seeds: the script
refuses them with exit code 2. Otherwise it prints each metric's median
on both sides, how much worse the new one is as a share of the base
median (negative is better, whichever way the metric improves) and, for
the end-to-end metrics, the bound from BENCHMARK.json. A metric whose
base spread (quartile distance over median) exceeds its bound is reported
as unresolved. Exit code 1 means a metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    if base["env"]["engine"] != new["env"]["engine"]:
        print(f"refusing: circuit engines differ ({base['env']['engine']} vs {new['env']['engine']})",
              file=sys.stderr)
        return 2
    for key in ("workload", "seed"):
        if base[key] != new[key]:
            print(f"refusing: {key} differs ({base[key]} vs {new[key]})", file=sys.stderr)
            return 2
    for key in sorted(set(base["env"]) | set(new["env"])):
        if base["env"].get(key) != new["env"].get(key):
            print(f"note: {key} differs: {base['env'].get(key)} vs {new['env'].get(key)}")
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = False
    print(f"{'metric':<30} {'unit':<6} {'base':>14} {'new':>14} {'worse by':>8}  verdict")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None or not b["samples"] or not n["samples"]:
            continue
        bm, nm = statistics.median(b["samples"]), statistics.median(n["samples"])
        change = (nm - bm) / bm if bm else 0.0
        meta = declared.get(name, {})
        if meta.get("better") == "higher":
            change = -change
        verdict = ""
        if "bound" in meta:
            if spread(b["samples"]) > meta["bound"]:
                verdict = "unresolved (base spread above bound)"
            elif change > meta["bound"]:
                verdict, worse = f"WORSE than bound {meta['bound']}", True
            else:
                verdict = f"within bound {meta['bound']}"
        print(f"{name:<30} {b['unit']:<6} {bm:>14.6g} {nm:>14.6g} {change:>+8.1%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
