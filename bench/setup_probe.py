"""Fresh-process set-up probe: python3 bench/setup_probe.py <repo root> <config>.

Imports cqsm from <repo root>/src, parses the config, solves the LQ problem
and derives theta*/v* -- what a workload does before its first timed call --
then prints time.perf_counter().  On Linux that clock is system-wide, so the
parent subtracts its own reading taken just before it started this process.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(sys.argv[1], "src"))

import workloads  # noqa: E402  (needs the path above)

workloads.setup(sys.argv[2])
print(repr(time.perf_counter()))
