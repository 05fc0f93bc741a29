"""Set up one workload in a fresh interpreter, then print ``ready``.

``run.py`` times this script from process start to the ``ready`` line, which
is the benchmark's ``setup_s``:  python3 perfbench/setup_probe.py sim_m8 0
"""
import sys

import workloads

workloads.make(sys.argv[1], int(sys.argv[2])).setup()
print("ready", flush=True)
