"""Set-up probe, run in a fresh interpreter: import pttunnel, build one workload's inputs.

    python3 ptbench/setup_probe.py <workload> <seed> <output-dir>

run.py times this process from spawn to exit; that wall time is setup_s.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pttunnel  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
