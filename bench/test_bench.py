"""Checks of the benchmark harness itself; not part of the project's test suite.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import os
import subprocess
import sys

import run
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.begin_pass(0)
    outer = tracer.add_span("cli.interpreter", 10.0, 13.0)
    tracer.add_span("cli.import", 10.5, 11.5, parent=outer)
    tracer.add_span("cli.check", 11.5, 12.5, parent=outer)
    tracer.end_pass()
    selfs = tracer.self_times()[0]
    assert selfs["cli.interpreter"] == 1.0
    assert selfs["cli.import"] == selfs["cli.check"] == 1.0


def test_probe_is_outside_the_pass():
    tracer = tracing.Tracer()
    tracer.begin_pass(3)
    tracer.call("a", lambda: None)
    tracer.end_pass()
    tracer.probe("b", lambda: None)
    parents = {name: parent for name, _, _, parent, _, _ in tracer.spans}
    assert parents == {"pass": None, "a": 0, "b": None}
    assert tracer.ops == 1


def test_tail_keeps_ten_passes_beyond():
    value, percentile = run.tail([float(i) for i in range(1, 31)])
    assert value == 20.0 and percentile == 66


def test_only_the_overflow_is_filed_as_known():
    workloads = run._import_program()
    w = workloads.WORKLOADS["random-mixed"]
    inputs = w.generate(1)
    expected = run.load_expected()[w.name]
    out = w.run_pass(inputs, tracing.Recorder())
    known = {op: defect for op, (_, defect) in w.check(inputs, out, expected).items()}
    assert known == dict.fromkeys(("simulate.consumption_curve.improved", "simulate.curve_csv.improved",
                                   "simulate.check_speed.improved"), "float-overflow-128")
    # a violation at a finite time inside the valid horizon is a new failure
    improved = list(out["improved"])
    improved[3] = dataclasses.replace(improved[3], earliest_violation=1.0)
    improved[4] = dataclasses.replace(improved[4], feasible=False, earliest_violation=1.0)
    out["improved"] = tuple(improved)
    failed = w.check(inputs, out, expected)
    assert failed["simulate.check_speed.improved"][1] is None
    assert failed["simulate.check_speed.improved.valid"][1] is None


def test_smoke_every_gate_passes():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)
    assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()


def test_run_prints_result_last():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "random-mixed",
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600,
    )
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert proc.returncode == 0 and result["correct"], proc.stderr.decode()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"]["simulate.breakpoints"]["value"] > 0
