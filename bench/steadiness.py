"""Run-to-run spread of the end-to-end metrics: ten runs of every workload.

    python3 bench/steadiness.py [--out FILE]

The runs use seeds 1 to 10, one each, as an acceptance check of the
benchmark does; see NOTES.md for how much of the spread the seeds explain.
For each workload and metric: the median of the per-run values and the
spread, (Q3 - Q1) / median with quartiles from statistics.quantiles(n=4),
next to the metric's bound from BENCHMARK.json.  Also records the Python,
numpy and scipy versions and the CPU count the figures were taken with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write the figures to this JSON file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"environment": environment(), "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900,
            )
            result = json.loads(proc.stdout.decode().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(proc.stderr.decode(), file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "spread": spread, "bound": bounds[name],
                          "within_third": spread <= bounds[name] / 3, "values": vals}
            print(f"{workload:14s} {name:14s} median {median:.6g}  spread {spread:.4f}  "
                  f"bound {bounds[name]}", flush=True)
        report["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
