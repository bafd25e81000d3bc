"""One untraced `netcycle` process: python3 child.py STAMP [netcycle args...]

Imports the netcycle CLI, runs it with the remaining arguments and writes
to STAMP the monotonic clock readings at which it was ready and at which
the CLI returned, then its peak resident memory in KiB. With no arguments
it only sets up, which is how the benchmark samples set-up time alone.

The peak is read here because the parent's wait4 figure also counts the
benchmark process's own memory, which the child inherits until exec.
"""

import resource
import sys
import time

from netcycle import cli

ready = time.monotonic()
code = cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
done = time.monotonic()
with open("/proc/self/status", encoding="ascii") as fh:
    own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
peak = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(f"{ready!r} {done!r} {peak}\n")
sys.exit(code)
