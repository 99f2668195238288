"""Record the expected outputs the benchmark's gates compare against.

    python3 bench/record_expected.py

Runs one pass of each workload whose outputs are stored: the exact17-deep
digest, the oracle-grid deviations, and the random-mixed rational digest for
every seed of its pool.  Rerun only when a change is meant to alter these
outputs; a change that keeps rational outputs bit-identical leaves this file
untouched.
"""

from __future__ import annotations

import json
import os
import sys

import run
import tracing

# ids of the known defects a run may fail on and still be correct; each is
# described in NOTES.md
KNOWN_DEFECTS = ["csv-float-overflow", "float-overflow-128"]


def main() -> int:
    workloads = run._import_program()
    rec = tracing.Recorder()
    expected = {"known_defects": KNOWN_DEFECTS}

    w = workloads.WORKLOADS["exact17-deep"]
    inputs = w.generate(0)
    expected[w.name] = {"digest": w.digest(inputs, w.run_pass(inputs, rec))}

    w = workloads.WORKLOADS["random-mixed"]
    digests = {}
    for seed in range(workloads.POOL):
        inputs = w.generate(seed)
        digests[str(seed)] = w.digest(inputs, w.run_pass(inputs, rec))
    expected[w.name] = {"rational_digests": digests}

    w = workloads.WORKLOADS["oracle-grid"]
    inputs = w.generate(0)
    expected[w.name] = {"deviations": w.deviations(inputs, w.run_pass(inputs, rec))}

    expected["cli-session"] = {}
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
