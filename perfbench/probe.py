"""Set-up probe: import the program, build a workload's config, print "ready".

    python3 perfbench/probe.py <workload> <seed> [--tiny]

run.py times this process from its start to the "ready" line; that span is
the benchmark's set-up time.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import crossdiff.studies  # noqa: E402,F401  (every layer, as a study run does)
from crossdiff.config import build_initial, build_model  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    cfg = workloads.config(sys.argv[1], int(sys.argv[2]),
                           tiny="--tiny" in sys.argv[3:])
    build_model(cfg)
    build_initial(cfg)
    print("ready", flush=True)
