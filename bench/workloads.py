"""The four benchmark workloads: inputs, one pass, probes and correctness gates.

Each workload is a closed loop in one process: the next pass starts when the
previous one ends.  A pass calls only public ``firebreak`` functions, each
through the recorder (see ``tracing.py``), so the same code runs with tracing
off and on.  Gates run after the pass timer stops and report failed
operations as ``{operation: (message, known defect id or None)}``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from typing import NamedTuple

import firebreak as fb
from firebreak import model, simulate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

SEVENTEEN_NINTHS = Fraction(17, 9)
IMPROVED_SPEED = 1.8771155993823643
FLOAT_RTOL = 1e-9

# random-mixed draws its systems from seed % POOL, so every seed has a
# stored digest of its rational outputs in expected.json
POOL = 128


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def _render(x, mode):
    return None if x is None else model.render_number(x, mode)


def _curve_text(curve, mode) -> str:
    return json.dumps([[_render(t, mode), _render(v, mode)] for t, v in curve.points])


def _maxima(system, curves):
    return fb.ratio_maxima(curves.total, fb.valid_horizon(system))


def _roundtrip(system):
    text = model.dumps(system)
    return text, model.loads(text)


def _documents(curves, report, mode) -> str:
    return json.dumps(simulate.intervals_to_document(curves, mode)) + json.dumps(
        simulate.report_to_document(report, mode)
    )


def _check_text(check, mode) -> str:
    return json.dumps(
        [check.feasible, _render(check.speed, mode), _render(check.horizon, mode),
         _render(check.earliest_violation, mode)]
    )


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _all_finite(curve) -> bool:
    return all(math.isfinite(float(t)) and math.isfinite(float(v)) for t, v in curve.points)


def child_env() -> dict:
    """Environment for child interpreters: this checkout's sources, no output redirection."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("FIREBREAK_OUTDIR", None)
    return env


class Child(NamedTuple):
    returncode: int
    stderr: str
    peak_rss_kb: int


def run_child(argv, cwd, env) -> Child:
    """Run one process to its end and read its own peak RSS.

    The child is reaped with wait4, so the figure is this child's alone, not
    the largest of every child this process has started (set-up probes too).
    """
    with tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(proc.returncode, err.read().decode(errors="replace"), usage.ru_maxrss)


class Workload:
    """Hooks a workload may leave empty: untimed operations after a pass, traced-only probes."""

    def after_pass(self, inputs, out, rec):
        pass

    def probes(self, inputs, out, rec):
        pass



def _probe_profiles(rec, system, horizon, out):
    """Probe: the face profiles ``consumption_curve`` builds for this horizon."""
    for side in (fb.RIGHT, fb.LEFT):
        profiles = rec.probe("geodesic.face_profiles", fb.face_arrival_profiles, system, side, horizon)
        out.append(profiles)


# -- exact17-deep ----------------------------------------------------------------


class Exact17Deep(Workload):
    """17/9 at 512 cycles, rational: few calls with ~2048-bit Fraction operands."""

    name = "exact17-deep"
    cycles = 512

    def generate(self, seed):
        return {"head_start": 1, "cycles": self.cycles}

    def run_pass(self, inputs, rec):
        system = rec.call("constructions.seventeen_ninths", fb.build_seventeen_ninths,
                          inputs["head_start"], cycles=inputs["cycles"])
        curves = rec.call("simulate.consumption_curve", fb.consumption_curve, system)
        report = rec.call("simulate.ratio_maxima", _maxima, system, curves)
        check = rec.call("simulate.check_speed", fb.check_speed, system, SEVENTEEN_NINTHS)
        text, loaded = rec.call("model.document_roundtrip", _roundtrip, system)
        documents = rec.call("simulate.documents", _documents, curves, report, system.mode)
        return {"system": system, "curves": [curves], "reports": [report], "check": check,
                "text": text, "loaded": loaded, "documents": documents}

    def after_pass(self, inputs, out, rec):
        # known defect: float() overflows on the ~2^1700 breakpoints; timed outside pass_s
        try:
            out["csv"] = rec.call("simulate.curve_csv", fb.curve_to_csv, out["curves"][0])
        except OverflowError as exc:
            out["csv_error"] = f"OverflowError: {exc}"

    def probes(self, inputs, out, rec):
        out["profiles"] = []
        _probe_profiles(rec, out["system"], out["curves"][0].total.end, out["profiles"])

    def digest(self, inputs, out) -> str:
        """Digest of the exact JSON outputs: k-intervals, ratio report, system document, check."""
        return _digest(out["documents"], out["text"], _check_text(out["check"], model.RATIONAL))

    def check(self, inputs, out, expected):
        failed = {}
        cycles = inputs["cycles"]
        curves, report, check = out["curves"][0], out["reports"][0], out["check"]
        if len(curves.total) != 6 * cycles - 6:
            failed["simulate.consumption_curve"] = (
                f"{len(curves.total)} breakpoints, expected {6 * cycles - 6}", None)
        if len(report.local_maxima) != 2 * cycles - 4 or report.supremum != SEVENTEEN_NINTHS or any(
            q != SEVENTEEN_NINTHS for _, q in report.local_maxima
        ):
            failed["simulate.ratio_maxima"] = (
                f"{len(report.local_maxima)} maxima, sup {report.supremum}; expected "
                f"{2 * cycles - 4} maxima all equal to 17/9", None)
        if not check.feasible:
            failed["simulate.check_speed"] = (f"17/9 infeasible at {check.earliest_violation}", None)
        if out["loaded"] != out["system"]:
            failed["model.document_roundtrip"] = ("document round trip changed the system", None)
        digest = self.digest(inputs, out)
        if digest != expected["digest"]:
            failed["simulate.documents"] = (f"output digest {digest} differs from the stored one", None)
        if "csv_error" in out:
            failed["simulate.curve_csv"] = (out["csv_error"], "csv-float-overflow")
        else:
            header, rows = _csv_rows(out["csv"])
            if len(rows) != len(curves.total) or len(header) != 5:
                failed["simulate.curve_csv"] = (f"{len(rows)} CSV rows for {len(curves.total)} breakpoints", None)
        return failed


# -- random-mixed ----------------------------------------------------------------


def _random_system(rng, mode, sizes):
    """Verticals per side from ``sizes``, lengths in [0.1, 100], 1-3 doubling violations injected."""

    def length():
        return Fraction(rng.randint(1, 1000), 10)

    def side(n):
        pairs = [[length(), length()] for _ in range(n)]
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, n - 1)
            pairs[k][1] = max(Fraction(1, 10), pairs[k - 1][1] * Fraction(rng.randint(1, 20), 10))
        return tuple((model.coerce_length(g, mode), model.coerce_length(h, mode)) for g, h in pairs)

    head = model.coerce_length(Fraction(rng.randint(1, 50), 10), mode)
    return fb.BarrierSystem(mode=mode, head_start=head, right=side(sizes[0]), left=side(sizes[1]))


def _random_point(rng, system):
    side = rng.choice((fb.RIGHT, fb.LEFT))
    sign = 1 if side == fb.RIGHT else -1
    feet, heights = system.feet(side), system.heights(side)
    if rng.random() < 0.25:
        # on a vertical barrier: the distance is the min over both faces
        i = rng.randrange(len(feet))
        x, y = feet[i], heights[i] * Fraction(rng.randint(0, 10), 10)
    else:
        x = (feet[-1] + 20) * Fraction(rng.randint(0, 1000), 1000)
        y = max(heights) * Fraction(rng.randint(0, 1200), 1000)
    return system.number(sign * x), system.number(y)


class RandomMixed(Workload):
    """24 rational and 24 float random systems, the default improved scheme, 200 geodesics."""

    name = "random-mixed"
    systems_per_mode = 24
    improved_cycles = 128
    queries = 200

    def generate(self, seed):
        rng = random.Random(seed % POOL)
        # every seed gets each pair of side sizes (5-10 verticals) equally
        # often, so that the seed changes the systems but hardly the work
        sizes = [(5 + i % 6, 5 + (i + i // 6) % 6) for i in range(self.systems_per_mode)]
        systems = [_random_system(rng, mode, n) for mode in (model.RATIONAL, model.FLOAT)
                   for n in rng.sample(sizes, len(sizes))]
        cases = []
        for system in systems:
            # one horizon for the original and the normalized system
            horizon = 4 * sum(system.head_start + sum(g + h for g, h in system.pairs(side))
                              for side in (fb.RIGHT, fb.LEFT))
            cases.append((system, horizon))
        queries = []
        for _ in range(self.queries):
            system = rng.choice(systems)
            queries.append((system, _random_point(rng, system)))
        return {"pool_seed": seed % POOL, "cases": cases, "queries": queries,
                "improved": fb.InterlacingParams(cycles=self.improved_cycles)}

    def run_pass(self, inputs, rec):
        results = []
        curves_out, reports_out = [], []
        for system, horizon in inputs["cases"]:
            rec.call("model.validate", fb.validate, system)
            normalized = rec.call("model.normalize", fb.normalize_doubling, system)
            curves = rec.call("simulate.consumption_curve", fb.consumption_curve, system, horizon, truncated=True)
            lowered = rec.call("simulate.consumption_curve", fb.consumption_curve, normalized, horizon, truncated=True)
            report = rec.call("simulate.ratio_maxima", fb.ratio_maxima, curves.total)
            check = rec.call("simulate.check_speed", fb.check_speed, system, report.supremum, horizon, truncated=True)
            text, loaded = rec.call("model.document_roundtrip", _roundtrip, system)
            table = rec.call("simulate.curve_csv", fb.curve_to_csv, curves)
            results.append((system, normalized, curves, lowered, report, check, text, loaded, table))
            curves_out += [curves, lowered]
            reports_out.append(report)
        improved = rec.call("constructions.improved", fb.build_improved, inputs["improved"])
        curves = rec.call("simulate.consumption_curve", fb.consumption_curve, improved)
        report = rec.call("simulate.ratio_maxima", _maxima, improved, curves)
        check = rec.call("simulate.check_speed", fb.check_speed, improved, report.supremum)
        bounded = rec.call("simulate.check_speed", fb.check_speed, improved, report.supremum,
                           report.valid_horizon)
        table = rec.call("simulate.curve_csv", fb.curve_to_csv, curves)
        curves_out.append(curves)
        reports_out.append(report)
        distances = [rec.call("geodesic.distance", fb.geodesic_distance, system, point)
                     for system, point in inputs["queries"]]
        return {"results": results, "improved": (improved, curves, report, check, bounded, table),
                "distances": distances, "curves": curves_out, "reports": reports_out}

    def probes(self, inputs, out, rec):
        out["profiles"] = []
        for (system, horizon), result in zip(inputs["cases"], out["results"]):
            _probe_profiles(rec, system, horizon, out["profiles"])
            _probe_profiles(rec, result[1], horizon, out["profiles"])
        improved, curves = out["improved"][:2]
        _probe_profiles(rec, improved, curves.total.end, out["profiles"])
        # build_improved with default parameters re-runs this optimizer
        rec.probe("optimize.beta_delta", fb.optimize_beta_delta)

    def digest(self, inputs, out) -> str:
        """Digest of every rational output: systems, curves, reports, checks, documents, distances."""
        parts = []
        for system, normalized, curves, lowered, report, check, text, loaded, table in out["results"]:
            mode = system.mode
            if mode == model.RATIONAL:
                parts += [json.dumps(model.to_document(normalized)), _curve_text(curves.total, mode),
                          _curve_text(lowered.total, mode), _documents(curves, report, mode),
                          _check_text(check, mode), text, table]
        for (system, _), d in zip(inputs["queries"], out["distances"]):
            if system.mode == model.RATIONAL:
                parts.append(_render(d, model.RATIONAL))
        return _digest(*parts)

    def check(self, inputs, out, expected):
        failed = {}
        for system, normalized, curves, lowered, report, check, text, loaded, table in out["results"]:
            mode = system.mode
            exact = mode == model.RATIONAL
            tol = 0 if exact else FLOAT_RTOL
            verdict = fb.validate(normalized)
            if not (verdict.right.doubling and verdict.left.doubling):
                failed["model.normalize"] = ("normalized system violates doubling", None)
            times = {t for t, _ in curves.total} | {t for t, _ in lowered.total}
            for t in times:
                before, after = curves.total.value_at(t), lowered.total.value_at(t)
                if after > before + tol * max(abs(before), 1):
                    failed["simulate.consumption_curve"] = (
                        f"normalized B({t}) = {after} exceeds the original {before}", None)
                    break
            if not check.feasible:
                t = check.earliest_violation
                q = None if t is None or not t > 0 else curves.total.value_at(t) / t
                if exact or q is None or not abs(q - report.supremum) <= tol * report.supremum:
                    failed["simulate.check_speed"] = (
                        f"{mode} system infeasible at its own supremum {report.supremum}, t={t}", None)
            if loaded != system:
                failed["model.document_roundtrip"] = ("document round trip changed the system", None)
            if len(_csv_rows(table)[1]) != len(curves.total):
                failed["simulate.curve_csv"] = (f"CSV rows differ from the {len(curves.total)} breakpoints", None)

        improved, curves, report, check, bounded, table = out["improved"]
        if not abs(report.supremum - IMPROVED_SPEED) <= FLOAT_RTOL:
            failed["simulate.ratio_maxima"] = (f"improved supremum {report.supremum!r}", None)
        # known defect: at 128 cycles B passes 1.3e154 beyond the valid
        # horizon, and value_at's (v1 - v0) * (t - t0) overflows to inf
        # before the division.  Only that signature is filed under it.
        horizon = report.valid_horizon
        bad = [t for t, v in curves.total.points if not (math.isfinite(t) and math.isfinite(v))]
        if bad:
            failed["simulate.consumption_curve.improved"] = (
                f"non-finite breakpoints at t = {bad[:3]!r}, valid horizon {horizon!r}",
                "float-overflow-128" if all(t > horizon for t in bad) else None)
        bad = [row[0] for row in _csv_rows(table)[1] if not all(math.isfinite(x) for x in row)]
        if bad:
            failed["simulate.curve_csv.improved"] = (
                f"non-finite CSV rows at t = {bad[:3]!r}, valid horizon {horizon!r}",
                "float-overflow-128" if all(t > horizon for t in bad) else None)
        for op, verdict, defect in (("simulate.check_speed.improved", check, "float-overflow-128"),
                                    ("simulate.check_speed.improved.valid", bounded, None)):
            t = verdict.earliest_violation
            if verdict.feasible or (t is not None and 0 < t <= horizon
                                    and abs(curves.total.value_at(t) / t - report.supremum) <= FLOAT_RTOL):
                continue
            # the overflow leaves the violation time nan; anything else is new
            known = defect if t is not None and math.isnan(t) else None
            failed[op] = (f"infeasible at its supremum {report.supremum!r} up to {verdict.horizon!r}, "
                          f"violation t={t!r}", known)

        for (system, (x, y)), d in zip(inputs["queries"], out["distances"]):
            slack = 0 if system.mode == model.RATIONAL else FLOAT_RTOL
            if not d >= (abs(x) + y) * (1 - slack):
                failed["geodesic.distance"] = (f"distance {d} to ({x}, {y}) below |x| + y", None)
        digest = self.digest(inputs, out)
        stored = expected["rational_digests"][str(inputs["pool_seed"])]
        if digest != stored:
            failed["digest"] = (f"rational output digest {digest} differs from the stored {stored}", None)
        return failed


# -- oracle-grid -----------------------------------------------------------------


class OracleGrid(Workload):
    """Grid BFS oracle against the exact curve on 17/9 and the improved scheme, 3 cycles each."""

    name = "oracle-grid"
    cells = (1.0, 0.5, 0.25)

    def generate(self, seed):
        scenes = []
        for label, system in (
            ("17/9", fb.build_seventeen_ninths(1, cycles=3)),
            ("improved", fb.build_improved(fb.InterlacingParams(cycles=3, head_start=1.0))),
        ):
            scenes.append((label, system, fb.valid_horizon(system)))
        return {"scenes": scenes}

    def run_pass(self, inputs, rec):
        runs = []
        curves_out = []
        for label, system, horizon in inputs["scenes"]:
            exact = None
            for cell in self.cells:
                sampled = rec.call("oracle.grid_consumption", fb.grid_consumption, system, cell, float(horizon))
                if exact is None:
                    exact = rec.call("simulate.consumption_curve", fb.consumption_curve, system, horizon,
                                     truncated=True)
                    curves_out.append(exact)
                result = rec.call("oracle.compare", _compare, system, exact, sampled, cell)
                runs.append((label, cell, result))
        return {"runs": runs, "curves": curves_out, "reports": []}

    def probes(self, inputs, out, rec):
        # grid_consumption = build_scene + grid_arrival + sampling; time the
        # first two with the same arguments so sampling can be derived
        out["profiles"], out["grids"] = [], []
        for (label, system, horizon), exact in zip(inputs["scenes"], out["curves"]):
            _probe_profiles(rec, system, exact.total.end, out["profiles"])
            for cell in self.cells:
                scene = rec.probe("oracle.scene", fb.build_scene, system, cell, float(horizon))
                arrival = rec.probe("oracle.bfs", fb.grid_arrival, scene, max_time=float(horizon) + 2 * cell)
                out["grids"].append((scene, arrival))

    def deviations(self, inputs, out) -> dict:
        """Worst |sampled - exact| per scene, one entry per cell size."""
        deviations = {}
        for label, cell, result in out["runs"]:
            deviations.setdefault(label, []).append(result.max_deviation)
        return deviations

    def check(self, inputs, out, expected):
        failed = {}
        for label, cell, result in out["runs"]:
            if not result.passed:
                failed[f"oracle.compare {label} {cell}"] = (
                    f"deviation {result.max_deviation} > tolerance {result.tolerance}", None)
        for label, devs in self.deviations(inputs, out).items():
            if devs != expected["deviations"][label]:
                failed[f"oracle.grid_consumption {label}"] = (
                    f"deviations {devs} differ from the stored {expected['deviations'][label]}", None)
            for coarse, fine in zip(devs, devs[1:]):
                if not 0.25 * coarse <= fine <= 0.75 * coarse:
                    failed[f"oracle.convergence {label}"] = (f"halving the cell moved {coarse} to {fine}", None)
        return failed


def _compare(system, exact, sampled, cell):
    return fb.compare(exact.total, sampled, fb.consumption_tolerance(system, cell))


# -- cli-session -----------------------------------------------------------------


class CliSession(Workload):
    """Sequential ``python -m firebreak`` processes on small generated documents."""

    name = "cli-session"
    probe_script = os.path.join(HERE, "cli_probe.py")

    def generate(self, seed):
        rng = random.Random(seed)
        head = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        # shared by the run and its set-up probes, which never run at the same time
        work = os.path.join(WORK, f"cli-{seed}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        # the oracle needs barrier coordinates on the unit grid: head start 1
        fb.save(fb.build_seventeen_ninths(1, cycles=3), os.path.join(work, "s3.json"))
        head_arg = model.render_number(head, model.RATIONAL)
        commands = [
            ("construct", ["construct", "--type", "seventeen-ninths", "--headstart", head_arg,
                           "--cycles", "8", "--out", "s17.json"], 0),
            ("construct", ["construct", "--type", "improved", "--cycles", "8", "--out", "imp.json"], 0),
            ("simulate", ["simulate", "--system", "s17.json", "--curve-out", "curve.csv",
                          "--intervals-out", "intervals.json"], 0),
            ("maxima", ["maxima", "--system", "s17.json", "--out", "maxima.json"], 0),
            ("check", ["check", "--system", "s17.json", "--speed", "17/9", "--out", "check-pass.json"], 0),
            ("check", ["check", "--system", "s17.json", "--speed", "1.8", "--out", "check-fail.json"], 1),
            ("oracle", ["oracle", "--system", "s3.json", "--cell", "1", "--out", "oracle.json"], 0),
            ("optimize", ["optimize", "--scheme", "beta-delta", "--out", "optimum.json"], 0),
        ]
        return {"work": work, "env": child_env(), "commands": commands,
                "expected_s17": model.to_document(fb.build_seventeen_ninths(head, cycles=8))}

    def run_pass(self, inputs, rec):
        procs = [self._run(rec, inputs, name, argv) for name, argv, _ in inputs["commands"]]
        return {"procs": procs, "curves": [], "reports": [],
                "peak_rss_kb": max(proc.peak_rss_kb for proc in procs)}

    def _run(self, rec, inputs, name, argv):
        work = inputs["work"]
        if not rec.tracing:
            return rec.call("cli." + name, run_child,
                            [sys.executable, "-m", "firebreak", *argv], work, inputs["env"])
        # traced: the probe times import and main() inside the child; the
        # monotonic clock is shared, so its stamps nest in the parent's span
        rec.ops += 1
        stamps = os.path.join(work, "stamps.json")
        env = dict(inputs["env"], BENCH_CLI_STAMPS=stamps)
        start = time.perf_counter()
        proc = run_child([sys.executable, self.probe_script, *argv], work, env)
        end = time.perf_counter()
        with open(stamps, encoding="utf-8") as handle:
            t0, t1, t2 = json.load(handle)
        os.remove(stamps)
        outer = rec.add_span("cli.interpreter", start, end)
        rec.add_span("cli.import", t0, t1, parent=outer)
        rec.add_span("cli." + name, t1, t2, parent=outer)
        return proc

    def check(self, inputs, out, expected):
        failed = {}
        work = inputs["work"]
        for (name, argv, want), proc in zip(inputs["commands"], out["procs"]):
            if proc.returncode != want:
                failed[" ".join(argv[:1] + argv[-1:])] = (
                    f"exit {proc.returncode}, expected {want}: {proc.stderr[-300:]}", None)

        def parse(filename, check, what):
            path = os.path.join(work, filename)
            try:
                with open(path, encoding="utf-8") as handle:
                    ok = check(handle.read())
            except (OSError, ValueError) as exc:
                ok = False
                what = f"{what}: {exc}"
            if not ok:
                failed[filename] = (what, None)
            if os.path.exists(path):
                os.remove(path)

        parse("s17.json", lambda s: model.to_document(model.loads(s)) == inputs["expected_s17"],
              "constructed 17/9 document differs from the library's")
        parse("imp.json", lambda s: len(model.loads(s).right) == 8, "improved document")
        parse("curve.csv", lambda s: len(_csv_rows(s)[1]) == 6 * 8 - 6, "curve CSV rows")
        parse("intervals.json", lambda s: set(json.loads(s)) == {"right", "left", "total"}, "intervals")
        parse("maxima.json", lambda s: [m["q"] for m in json.loads(s)["local_maxima"]] == ["17/9"] * 12,
              "maxima report")
        parse("check-pass.json", lambda s: json.loads(s)["feasible"] is True, "check at 17/9")
        parse("check-fail.json", lambda s: json.loads(s)["feasible"] is False, "check at 1.8")
        parse("oracle.json", lambda s: json.loads(s)["passed"] is True, "oracle report")
        parse("optimum.json", lambda s: abs(json.loads(s)["v"] - IMPROVED_SPEED) <= 1e-6, "optimum")
        return failed


WORKLOADS = {w.name: w for w in (Exact17Deep(), RandomMixed(), OracleGrid(), CliSession())}
