"""Time one set-up in a fresh interpreter: import hetnoma and build a workload's inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>
Prints the elapsed seconds on stdout.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = workloads.make(name, seed, workdir)
    elapsed = time.perf_counter() - START
    workload.close()
    print(repr(elapsed))
