"""Process set-up shared by every benchmark entry point.

Importing this module pins the BLAS/OpenMP thread count (it must run before
numpy is first imported) and puts the checkout's ``src/`` first on
``sys.path``. It refuses to fall back to any other installed ``semimatch``:
a benchmark run without the program's sources must fail, not measure
something else.
"""
from __future__ import annotations

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("benchmark/env.py must be imported before numpy")

BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WEIGHTS_PATH = os.path.join(BENCH_DIR, "toy_weights.smw")
WEIGHTS_SHA256 = "8cc3b6b1e38a00562484f27dd60819cdd0f58d4c97ccfccf057b8a2925153222"

if not os.path.isfile(os.path.join(SRC, "semimatch", "__init__.py")):
    sys.exit(f"benchmark: no program sources at {SRC}/semimatch")
sys.path.insert(0, SRC)
