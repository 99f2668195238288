"""firebreak benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload exact17-deep --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --smoke

With ``--trace 0`` the run times whole passes with tracing off and reports the
end-to-end metrics, with pass and set-up times rescaled to a reference machine
speed (see ``reference.py``).  With ``--trace 1`` it alternates untraced and traced
passes and reports each layer's self time per pass, the layer counts and the
tracing overhead; the spans go to .bench_work/trace-<workload>-<seed>.json.
Every pass's outputs go through the workload's correctness gates.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  ``--smoke`` runs one untraced and one traced pass per workload with
every gate on and exits 1 if any output is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 11
MIN_PASSES = 11       # the tail needs ten passes beyond it
TAIL_SPAN = 10

# per-layer timings: metric -> (span name summed per pass, how it is obtained)
LAYER_TIMES = {
    "simulate.consumption_curve_s": ("simulate.consumption_curve", "measured"),
    "simulate.check_speed_s": ("simulate.check_speed", "measured"),
    "simulate.ratio_maxima_s": ("simulate.ratio_maxima", "measured"),
    "simulate.documents_s": ("simulate.documents", "measured"),
    "simulate.curve_csv_s": ("simulate.curve_csv", "measured"),
    "geodesic.face_profiles_s": ("geodesic.face_profiles", "probe, inside consumption_curve"),
    "geodesic.distance_s": ("geodesic.distance", "measured"),
    "model.validate_s": ("model.validate", "measured"),
    "model.normalize_s": ("model.normalize", "measured"),
    "model.document_roundtrip_s": ("model.document_roundtrip", "measured"),
    "constructions.seventeen_ninths_s": ("constructions.seventeen_ninths", "measured"),
    "constructions.improved_s": ("constructions.improved", "measured"),
    "optimize.beta_delta_s": ("optimize.beta_delta", "probe, inside build_improved"),
    "oracle.scene_s": ("oracle.scene", "probe, inside grid_consumption"),
    "oracle.bfs_s": ("oracle.bfs", "probe, inside grid_consumption"),
    "oracle.compare_s": ("oracle.compare", "measured"),
    "cli.construct_s": ("cli.construct", "measured in the child"),
    "cli.simulate_s": ("cli.simulate", "measured in the child"),
    "cli.maxima_s": ("cli.maxima", "measured in the child"),
    "cli.check_s": ("cli.check", "measured in the child"),
    "cli.oracle_s": ("cli.oracle", "measured in the child"),
    "cli.optimize_s": ("cli.optimize", "measured in the child"),
}
LAYER_COUNTS = {
    "simulate.breakpoints": "count",
    "simulate.k_intervals": "count",
    "simulate.local_maxima": "count",
    "simulate.max_operand_bits": "bits",
    "geodesic.face_profiles": "count",
    "oracle.grid_nodes": "count",
    "oracle.bfs_levels": "count",
    "oracle.nodes_reached": "count",
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import firebreak from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "firebreak", "__init__.py")):
        _fail(f"no firebreak sources under {SRC}")
    sys.path.insert(0, SRC)
    import firebreak

    if os.path.dirname(os.path.dirname(os.path.abspath(firebreak.__file__))) != SRC:
        _fail(f"imported firebreak from {firebreak.__file__}, not from {SRC}")
    import workloads

    return workloads


class SetupProbes:
    """Set-ups in fresh interpreters, spread over the run: import firebreak + input generation."""

    def __init__(self, workloads, workload: str, seed: int):
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
        self.env = workloads.child_env()
        self.setups, self.imports, self.interpreters = [], [], []
        self.probe(record=False)  # byte-compiles the sources on a fresh checkout

    def probe(self, record: bool = True) -> None:
        before = reference.kernel_seconds()
        began = time.perf_counter()
        proc = subprocess.run(self.argv, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=120)
        ended = time.perf_counter()
        after = reference.kernel_seconds()
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr.decode()}")
        start, imported, generate_start, end = json.loads(proc.stdout.decode().splitlines()[-1])
        if record:
            self.imports.append(imported - start)
            self.setups.append(reference.rescale((imported - start) + (end - generate_start), before, after))
            self.interpreters.append((ended - began) - (end - start))

    def medians(self) -> dict:
        return {
            "setup_s": statistics.median(self.setups),
            "cli.import_s": statistics.median(self.imports),
            "cli.interpreter_s": statistics.median(self.interpreters),
        }


def counts(out) -> dict:
    from fractions import Fraction

    import numpy as np
    from firebreak.geodesic import VERTICAL_RIGHT

    curves = out["curves"]
    bits = [
        max(x.numerator.bit_length(), x.denominator.bit_length())
        for c in curves for point in c.total.points for x in point if isinstance(x, Fraction)
    ]
    profiles = [p for group in out.get("profiles", []) for p in group]
    grids = out.get("grids", [])
    levels = [int(round(np.max(a[np.isfinite(a)]) / s.cell)) for s, a in grids]
    reached = [int(np.isfinite(a).sum()) for _, a in grids]
    nodes = [int(s.passable.size) for s, _ in grids]
    return {
        "simulate.breakpoints": sum(len(c.total) for c in curves),
        "simulate.k_intervals": sum(len(c.intervals) for c in curves),
        "simulate.local_maxima": sum(len(r.local_maxima) for r in out["reports"]),
        "simulate.max_operand_bits": max(bits, default=0),
        "geodesic.face_profiles": len(profiles),
        "geodesic.useful_profile_ratio": (
            sum(p.kind != VERTICAL_RIGHT for p in profiles) / len(profiles) if profiles else 0.0
        ),
        "oracle.grid_nodes": sum(nodes),
        "oracle.bfs_levels": sum(levels),
        "oracle.nodes_reached": sum(reached),
        "oracle.bfs_useful_ratio": (
            sum(reached) / sum(lv * n for lv, n in zip(levels, nodes)) if grids else 0.0
        ),
    }


def tail(times):
    """Highest percentile with at least ten passes beyond it: (value, percentile)."""
    xs = sorted(times)
    k = max(len(xs) - TAIL_SPAN - 1, 0)
    return xs[k], math.floor(100 * (k + 1) / len(xs))


class Run:
    """Closed loop of passes over one workload's inputs, with gates after each pass."""

    def __init__(self, workload, inputs, expected, known_defects):
        self.w, self.inputs, self.expected = workload, inputs, expected
        self.known = known_defects
        self.pass_times, self.traced_times = [], []
        self.rescaled_times, self.kernel_times = [], []   # untraced passes
        self.attempted = self.failed = 0
        self.problems = []
        self.tracer = tracing.Tracer()
        self.counts = []
        self.child_rss_kb = 0   # largest program child a pass started (cli-session)

    def one_pass(self, index: int, traced: bool) -> None:
        rec = self.tracer if traced else tracing.Recorder()
        ops_before = rec.ops
        gc.collect()
        before = reference.kernel_seconds()
        rec.begin_pass(index)
        start = time.perf_counter()
        out = self.w.run_pass(self.inputs, rec)
        elapsed = time.perf_counter() - start
        rec.end_pass()
        after = reference.kernel_seconds()
        self.w.after_pass(self.inputs, out, rec)
        self.child_rss_kb = max(self.child_rss_kb, out.get("peak_rss_kb", 0))
        if traced:
            self.traced_times.append(elapsed)
            self.w.probes(self.inputs, out, rec)
            self.counts.append(counts(out))
        else:
            self.pass_times.append(elapsed)
            self.rescaled_times.append(reference.rescale(elapsed, before, after))
            self.kernel_times += [before, after]
        failures = self.w.check(self.inputs, out, self.expected)
        self.attempted += rec.ops - ops_before
        self.failed += len(failures)
        for op, (message, defect) in failures.items():
            if defect not in self.known:
                self.problems.append(f"pass {index}: {op}: {message}")

    def loop(self, seconds: float, trace: bool, setup: SetupProbes) -> None:
        """Passes for ``seconds``, with the set-up probes spread evenly between them."""
        self.one_pass(-1, False)  # warm-up: not timed, still gated
        for times in (self.pass_times, self.rescaled_times, self.kernel_times):
            times.clear()
        self.attempted = self.failed = 0
        began = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - began
            # the tail needs MIN_PASSES passes; a traced run needs one pass of each kind
            enough = index >= 2 if trace else len(self.pass_times) >= MIN_PASSES
            if elapsed >= 3 * seconds or (elapsed >= seconds and enough):
                break
            if elapsed >= len(setup.setups) * seconds / SETUP_REPEATS:
                setup.probe()
            self.one_pass(index, trace and index % 2 == 1)
            index += 1
        while len(setup.setups) < SETUP_REPEATS:
            setup.probe()

    def layer_metrics(self, setup: dict) -> dict:
        """Median over traced passes of each layer's self time, plus counts and overhead."""
        selfs = self.tracer.self_times()
        traced_ids = sorted(i for i, layers in selfs.items() if "pass" in layers)

        def per_pass(span):
            return statistics.median(selfs[i].get(span, 0.0) for i in traced_ids)

        metrics = {}
        for name, (span, label) in LAYER_TIMES.items():
            metrics[name] = (per_pass(span), "s", label)
        metrics["oracle.sample_s"] = (
            statistics.median(
                selfs[i].get("oracle.grid_consumption", 0.0)
                - selfs[i].get("oracle.scene", 0.0) - selfs[i].get("oracle.bfs", 0.0)
                for i in traced_ids
            ),
            "s", "derived: grid_consumption - scene - bfs",
        )
        if self.w.name == "cli-session":
            metrics["cli.interpreter_s"] = (per_pass("cli.interpreter"), "s", "process wall - import - main")
            metrics["cli.import_s"] = (per_pass("cli.import"), "s", "measured in the child")
        else:
            metrics["cli.interpreter_s"] = (setup["cli.interpreter_s"], "s", "set-up probe: wall - import - inputs")
            metrics["cli.import_s"] = (setup["cli.import_s"], "s", "set-up probe")
        first = self.counts[0]
        if any(c != first for c in self.counts):
            self.problems.append(f"counts differ between traced passes: {self.counts}")
        for name, unit in LAYER_COUNTS.items():
            metrics[name] = (first[name], unit, "count")
        for name in ("geodesic.useful_profile_ratio", "oracle.bfs_useful_ratio"):
            metrics[name] = (first[name], "ratio", "computed")
        traced = statistics.median(self.traced_times)
        untraced = statistics.median(self.pass_times)
        glue = statistics.median(selfs[i]["pass"] for i in traced_ids)
        metrics["trace.pass_s"] = (traced, "s", f"median of {len(self.traced_times)} traced passes")
        metrics["trace.overhead_s"] = (traced - untraced, "s", f"traced - untraced ({untraced:.6f}) median wall pass")
        metrics["trace.unattributed_s"] = (glue, "s", "pass self time outside every layer span")
        layers = traced - glue
        print(f"  layer self times in a traced pass sum to {layers:.6f} s; the untraced median wall pass is "
              f"{untraced:.6f} s; difference {untraced - layers:+.6f} s against an overhead of "
              f"{traced - untraced:+.6f} s")
        return metrics

    def end_to_end_metrics(self, setup: dict) -> dict:
        n = len(self.pass_times)
        value, percentile = tail(self.rescaled_times)
        # printed, not reported: see NOTES.md on why the tail is too unsteady to gate on
        print(f"  pass_s.tail = {value!r} s: p{percentile} of {n} passes, {min(n - 1, TAIL_SPAN)} beyond it")
        print(f"  wall seconds per pass, not rescaled: median {statistics.median(self.pass_times)!r}, "
              f"fastest {min(self.pass_times)!r}; reference kernel median "
              f"{statistics.median(self.kernel_times)!r} s against {reference.REFERENCE_S} s")
        if self.child_rss_kb:
            peak = (self.child_rss_kb / 1024, "MB", "largest firebreak child process")
        else:
            peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "workload process")
        return {
            "pass_s": (statistics.median(self.rescaled_times), "s", f"median of {n} passes, at reference speed"),
            "setup_s": (setup["setup_s"], "s",
                        f"median of {SETUP_REPEATS} fresh interpreters spread over the run, at reference speed"),
            "peak_rss_mb": peak,
            "ops_ok_ratio": ((self.attempted - self.failed) / self.attempted, "ratio",
                             f"{self.attempted - self.failed} of {self.attempted} operations passed"),
        }


def emit(metrics: dict, correct: bool, attempted: int, failed: int) -> None:
    for name, (value, unit, label) in metrics.items():
        print(f"  {name:34s} {value!r:>24} {unit:6s} {label}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def smoke(workloads) -> int:
    expected = load_expected()
    ok = True
    for name, workload in workloads.WORKLOADS.items():
        run = Run(workload, workload.generate(0), expected[name], expected["known_defects"])
        run.one_pass(0, False)
        run.one_pass(1, True)
        status = "ok" if not run.problems else "FAILED"
        print(f"{name}: {status}, {run.failed} of {run.attempted} operations failed")
        for problem in run.problems:
            print(f"  {problem}")
        ok = ok and not run.problems
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass per workload, all gates")
    args = parser.parse_args(argv)

    reference.pin_to_one_cpu()
    workloads = _import_program()
    if args.smoke:
        return smoke(workloads)
    if args.workload not in workloads.WORKLOADS:
        _fail(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    expected = load_expected()

    setup = SetupProbes(workloads, workload.name, args.seed)
    inputs = workload.generate(args.seed)
    run = Run(workload, inputs, expected[workload.name], expected["known_defects"])
    run.loop(args.seconds, bool(args.trace), setup)

    if args.trace:
        metrics = run.layer_metrics(setup.medians())
        os.makedirs(workloads.WORK, exist_ok=True)
        run.tracer.write(os.path.join(workloads.WORK, f"trace-{workload.name}-{args.seed}.json"))
    else:
        metrics = run.end_to_end_metrics(setup.medians())
    for problem in run.problems:
        print(f"bench: {problem}", file=sys.stderr)
    emit(metrics, not run.problems, run.attempted, run.failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
