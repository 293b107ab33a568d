"""Time import plus one workload's one-shot set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR

WORKDIR must already hold the workload's generated inputs, and extremctl
must be importable (run.py sets PYTHONPATH to the checkout's src/).
Prints the seconds spent importing extremctl (numpy included) and in the
set-up, leaving out the benchmark's own module import.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import extremctl.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

from workloads import WORKLOADS, Sizes  # noqa: E402

workload = WORKLOADS[sys.argv[1]](Path(sys.argv[2]), 0, Sizes())
t1 = time.perf_counter()
workload.setup()
print(repr(import_s + time.perf_counter() - t1))
