"""Time one fresh-process set-up of a workload and print it in seconds.

Covers importing the program, building the matcher (loading the committed
weights, or initialising the config at seed 0) and fusing the backbone;
interpreter start-up and input rendering are excluded. ``run.py`` starts
this several times per run and reports the median as ``setup_s``.

    python3 benchmark/setup_probe.py toy-opt-256
"""
import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import env  # noqa: E402,F401  (pins BLAS threads before numpy)
import workloads  # noqa: E402

workloads.setup(workloads.WORKLOADS[sys.argv[1]])
print(time.perf_counter() - START)
