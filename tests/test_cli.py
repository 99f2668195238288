"""Command-line interface: subcommands, outputs, exit codes."""

import csv
import json
from fractions import Fraction

import pytest

from firebreak import load
from firebreak.cli import main


def run(argv):
    return main(argv)


class TestConstruct:
    def test_seventeen_ninths_document(self, tmp_path):
        out = tmp_path / "doc.json"
        assert run([
            "construct", "--type", "seventeen-ninths",
            "--headstart", "1", "--cycles", "8", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "rational"
        assert doc["right"][0] == {"a": "1", "b": "17"}

    def test_flat_document(self, tmp_path):
        out = tmp_path / "flat.json"
        assert run(["construct", "--type", "flat", "--headstart", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["right"] == [] and doc["left"] == []

    def test_improved_document(self, tmp_path):
        out = tmp_path / "improved.json"
        assert run(["construct", "--type", "improved", "--cycles", "8", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "float"
        assert doc["right"][0]["b"] == 1.0
        assert doc["left"][0]["d"] == 2.0
        assert doc["head_start"] == pytest.approx(0.149, abs=5e-4)

    def test_missing_headstart_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["construct", "--type", "flat", "--out", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2

    def test_outdir_env_applied(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIREBREAK_OUTDIR", str(tmp_path))
        assert run(["construct", "--type", "flat", "--headstart", "2", "--out", "sub/flat.json"]) == 0
        assert (tmp_path / "sub" / "flat.json").exists()


@pytest.fixture()
def doc17(tmp_path):
    out = tmp_path / "doc17.json"
    run([
        "construct", "--type", "seventeen-ninths",
        "--headstart", "1", "--cycles", "6", "--out", str(out),
    ])
    return out


@pytest.fixture()
def flatdoc(tmp_path):
    out = tmp_path / "flat.json"
    run(["construct", "--type", "flat", "--headstart", "1", "--out", str(out)])
    return out


class TestSimulate:
    def test_csv_max_ratio_row(self, doc17, tmp_path):
        curve_out = tmp_path / "curve.csv"
        assert run([
            "simulate", "--system", str(doc17), "--curve-out", str(curve_out),
        ]) == 0
        rows = list(csv.DictReader(curve_out.read_text().splitlines()))
        best = max(
            (float(r["B_total"]) / float(r["t"]) for r in rows if float(r["t"]) > 0),
        )
        assert best == pytest.approx(17 / 9, abs=1e-9)

    def test_flat_final_row(self, flatdoc, tmp_path):
        curve_out = tmp_path / "flat.csv"
        assert run([
            "simulate", "--system", str(flatdoc), "--horizon", "100",
            "--curve-out", str(curve_out),
        ]) == 0
        rows = list(csv.DictReader(curve_out.read_text().splitlines()))
        assert float(rows[-1]["t"]) == 100.0
        assert float(rows[-1]["B_total"]) == 198.0

    def test_intervals_json(self, doc17, tmp_path):
        out = tmp_path / "intervals.json"
        assert run(["simulate", "--system", str(doc17), "--intervals-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        first = doc["right"][1]
        assert (first["t_start"], first["t_end"], first["k"]) == ("1", "18", 1)

    def test_truncated_horizon_warns(self, doc17, capsys):
        assert run(["simulate", "--system", str(doc17), "--horizon", "10000000000"]) == 0
        assert "valid horizon" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(["simulate", "--system", str(tmp_path / "nope.json")]) == 2


class TestMaxima:
    def test_report_json(self, doc17, tmp_path):
        out = tmp_path / "report.json"
        assert run(["maxima", "--system", str(doc17), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["supremum"] == "17/9"
        assert all(m["q"] == "17/9" for m in doc["local_maxima"])


class TestCheck:
    def test_pass_at_17_9(self, doc17):
        assert run(["check", "--system", str(doc17), "--speed", "17/9"]) == 0

    def test_fail_below(self, doc17, capsys, tmp_path):
        out = tmp_path / "verdict.json"
        assert run([
            "check", "--system", str(doc17), "--speed", "1.85", "--out", str(out),
        ]) == 1
        assert "FAIL" in capsys.readouterr().out
        verdict = json.loads(out.read_text())
        assert verdict["feasible"] is False
        assert verdict["earliest_violation"] is not None

    def test_improved_passes_published_speed(self, tmp_path):
        doc = tmp_path / "improved.json"
        run(["construct", "--type", "improved", "--cycles", "6", "--out", str(doc)])
        assert run(["check", "--system", str(doc), "--speed", "1.8772"]) == 0

    def test_flat_pass_at_two(self, flatdoc):
        assert run(["check", "--system", str(flatdoc), "--speed", "2", "--horizon", "500"]) == 0

    def test_flat_fail_below_two(self, flatdoc):
        assert run(["check", "--system", str(flatdoc), "--speed", "1.9", "--horizon", "100"]) == 1


class TestOracle:
    def test_flat_scene_passes(self, flatdoc):
        assert run([
            "oracle", "--system", str(flatdoc), "--cell", "0.25", "--horizon", "10",
        ]) == 0

    def test_report_written(self, doc17, tmp_path):
        out = tmp_path / "oracle.json"
        assert run([
            "oracle", "--system", str(doc17), "--cell", "0.125",
            "--horizon", "30", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True

    def test_scene_beyond_physical_memory_is_usage_error(self, doc17, capsys):
        # 6 cycles of 17/9 over the valid horizon: terabytes of grid at cell 1
        assert run(["oracle", "--system", str(doc17), "--cell", "1"]) == 2
        err = capsys.readouterr().err
        assert "physical memory" in err and "Traceback" not in err


class TestOptimize:
    def test_beta_scheme(self, tmp_path, capsys):
        out = tmp_path / "opt.json"
        assert run(["optimize", "--scheme", "beta", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["beta"] == pytest.approx(4.0, abs=1e-6)
        assert doc["v"] == pytest.approx(17 / 9, abs=1e-9)

    def test_beta_delta_scheme(self, tmp_path):
        out = tmp_path / "opt2.json"
        assert run(["optimize", "--scheme", "beta-delta", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["beta"] == pytest.approx(4.06887, abs=1e-3)
        assert doc["delta"] == pytest.approx(1.2802, abs=1e-3)
        assert doc["v"] == pytest.approx(1.8771, abs=1e-4)
        assert doc["iterations"] > 0

    def test_unknown_scheme_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["optimize", "--scheme", "gamma"])
        assert excinfo.value.code == 2


class TestRoundTrip:
    def test_constructed_document_loads_identically(self, doc17):
        system = load(doc17)
        assert system.mode == "rational"
        assert system.right[0] == (Fraction(1), Fraction(17))

    def test_rational_outputs_are_byte_identical_across_runs(self, doc17, tmp_path):
        outputs = []
        for name in ("a", "b"):
            curve = tmp_path / f"{name}.csv"
            intervals = tmp_path / f"{name}.json"
            assert run([
                "simulate", "--system", str(doc17),
                "--curve-out", str(curve), "--intervals-out", str(intervals),
            ]) == 0
            outputs.append(curve.read_bytes() + intervals.read_bytes())
        assert outputs[0] == outputs[1]
