#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (the ``command`` of
``BENCHMARK.json``).

    python3 benchmarks/e2e/run.py --workload ocean-sync --seed 0 \
        --seconds 16 --trace 0

prints every metric by name with its unit, checks every result against
its oracle, ends with one JSON object on the last line, and exits
non-zero on a wrong answer or a leak.  ``python -m benchmarks.e2e`` is
the same program.  See README.md in this directory.
"""

import os
import pathlib
import sys

# One BLAS thread per rank: the ranks are the parallelism under test, and
# a BLAS pool per rank would oversubscribe a 2-vCPU box.  Must be in the
# environment before NumPy loads.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

_HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE), str(_HERE.parent.parent / "src")]

from bspbench.runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
