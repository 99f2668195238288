"""Traced stand-in for ``python -m firebreak``: same arguments, same exit code.

Writes [start, imported, finished] perf_counter stamps to the file named by
$BENCH_CLI_STAMPS.  On Linux perf_counter reads the system-wide monotonic
clock, so the parent can nest these stamps inside its own span.
"""

import json
import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import firebreak.cli  # noqa: E402

imported = time.perf_counter()
code = firebreak.cli.main(sys.argv[1:])
finished = time.perf_counter()
with open(os.environ["BENCH_CLI_STAMPS"], "w", encoding="utf-8") as handle:
    json.dump([start, imported, finished], handle)
sys.exit(code)
