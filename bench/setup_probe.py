"""Time one workload's set-up in a fresh interpreter and print the seconds.

    python3 bench/setup_probe.py WORKLOAD SEED

Set-up is importing numpy and the package, then building the workload's
inputs: grids, linear symbols, nonlinear operators and initial fields, or
the synthetic snapshot series.  bench/run.py calls this several times and
reports the median as ``setup_s``.
"""
import time

_start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - _start)
