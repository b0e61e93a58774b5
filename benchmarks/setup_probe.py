"""One set-up in a fresh interpreter: import branchlab and build the inputs.

Prints ``time.perf_counter()`` when done. On Linux that clock is
CLOCK_MONOTONIC, shared by all processes, so the parent subtracts the time
it started this interpreter to get the set-up time.

Usage: python3 benchmarks/setup_probe.py <workload> <seed> <workdir>
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import branchlab  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter()))
