"""The benchmark harness's smoke run: one pass per workload, every gate, the stored digests included."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes_every_gate():
    # writes only under the gitignored .bench_work/
    run = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    tail = "\n".join((run.stdout + run.stderr).splitlines()[-40:])
    assert run.returncode == 0, f"bench/run.py --smoke exited {run.returncode}:\n{tail}"
