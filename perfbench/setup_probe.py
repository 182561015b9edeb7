"""The set-up a CLI user pays on every run, in a fresh interpreter: import
``kdrecon.cli`` and build one workload's inputs.  ``run.py`` times this
process from outside.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR [--smoke]
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import kdrecon.cli  # noqa: E402,F401  (the import is part of what is timed)
import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.build_inputs(name, seed, "--smoke" in sys.argv[4:], workdir)
