"""``python -m benchmarks.e2e``: the same program as ``run.py``."""

import pathlib
import runpy

runpy.run_path(str(pathlib.Path(__file__).with_name("run.py")),
               run_name="__main__")
