"""Host-speed reference: python3 reference.py

A fixed pure-Python task shaped like the pipeline's hot loops (string ids,
dict-of-dict adjacency, sorting, a bounded depth-first search with sets
and tuples, JSON encoding) that imports nothing from netcycle, so no
change to the program can move it. Prints its own duration in seconds.
"""

import json
import time

N = 40_000
EDGES = 120_000
DEPTH = 6


def task() -> int:
    x = 12345
    names = [f"R{i:06d}" for i in range(N)]
    adj: dict[str, dict[str, int]] = {}
    for _ in range(EDGES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = names[x % N]
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = names[x % N]
        if u != v:
            row = adj.setdefault(u, {})
            row[v] = row.get(v, 0) + x % 1000 + 1
    order = sorted(adj)
    found = 0
    for start in order[:4_000]:
        stack = [(start, (start,))]
        seen: set[str] = set()
        while stack:
            v, path = stack.pop()
            for w in sorted(adj.get(v, ())):
                if w == start:
                    found += 1
                elif w > start and w not in seen and len(path) < DEPTH:
                    seen.add(w)
                    stack.append((w, path + (w,)))
    text = json.dumps([{"u": u, "v": v, "w": w} for u in order for v, w in sorted(adj[u].items())])
    return found + len(text)


if __name__ == "__main__":
    t0 = time.perf_counter()
    task()
    print(repr(time.perf_counter() - t0))
