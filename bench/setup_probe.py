"""One set-up in a fresh interpreter: ``import firebreak``, then the workload's inputs.

Usage: python bench/setup_probe.py WORKLOAD SEED
Prints one JSON line: perf_counter stamps [start, imported, generate_start, end].
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import firebreak  # noqa: E402,F401

imported = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402  (harness code, not timed)

generate_start = time.perf_counter()
WORKLOADS[sys.argv[1]].generate(int(sys.argv[2]))
end = time.perf_counter()
print(f"[{start!r}, {imported!r}, {generate_start!r}, {end!r}]")
