"""Command-line interface: subcommands, outputs, exit codes."""

import csv
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firebreak import RATIONAL, BarrierSystem, build_seventeen_ninths, load, ratio_report, save
from firebreak.cli import main
from firebreak.model import approx
from firebreak.simulate import report_to_document


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

    @pytest.mark.parametrize("kind, text", [("seventeen-ninths", "cannot parse rational 'abc'"),
                                            ("improved", "cannot coerce 'abc' to float")], ids=["17/9", "improved"])
    def test_unreadable_head_start_is_named(self, tmp_path, capsys, kind, text):
        argv = ["construct", "--type", kind, "--headstart", "abc", "--out", str(tmp_path / "out.json")]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: head start: {text}\n"

    def test_cycles_past_the_digit_limit_are_refused_before_building(self, tmp_path, capsys, digit_limit):
        # the last left height, 34 * 10**4000 * 16**(cycles - 1), has 4299 digits at 248 cycles
        out = tmp_path / "deep.json"
        argv = ["construct", "--type", "seventeen-ninths", "--headstart", str(10**4000), "--out", str(out)]
        assert run(argv + ["--cycles", "249"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --cycles 249") and "is 248\n" in err
        assert not out.exists()
        assert run(argv + ["--cycles", "248"]) == 0
        assert len(json.loads(out.read_text())["left"][-1]["d"]) == 4299

    def test_improved_headstart_reads_a_ratio(self, tmp_path):
        ratio, decimal = tmp_path / "ratio.json", tmp_path / "decimal.json"
        base = ["construct", "--type", "improved", "--cycles", "3", "--out"]
        assert run(base + [str(ratio), "--headstart", "1/3"]) == 0
        assert run(base + [str(decimal), "--headstart", "0.3333333333333333"]) == 0
        assert ratio.read_bytes() == decimal.read_bytes()

    def test_growth_factor_and_shift_read_ratios(self, tmp_path):
        ratio, decimal = tmp_path / "ratio.json", tmp_path / "decimal.json"
        base = ["construct", "--type", "improved", "--cycles", "3", "--out"]
        assert run(base + [str(ratio), "--beta", "7/2", "--delta", "4/3"]) == 0
        assert run(base + [str(decimal), "--beta", "3.5", "--delta", "1.3333333333333333"]) == 0
        assert ratio.read_bytes() == decimal.read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        ("--beta", "nan", "growth factor must be finite and > 2, got beta=nan"),
        ("--beta", "inf", "growth factor must be finite and > 2, got beta=inf"),
        ("--delta", "nan", "shift must be finite and >= 0, got delta=nan"),
        ("--delta", "inf", "shift must be finite and >= 0, got delta=inf"),
        ("--beta", "1e300", "growth factor beta=1e+300 overflows the shift formula; pass the shift as delta (--delta)"),
    ])
    def test_non_finite_growth_factor_or_shift_is_refused(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x.json"
        assert run(["construct", "--type", "improved", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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
def doc3(tmp_path):
    """17/9 at 3 cycles: valid horizon 171."""
    out = tmp_path / "doc3.json"
    run(["construct", "--type", "seventeen-ninths", "--headstart", "1", "--cycles", "3", "--out", str(out)])
    return out


@pytest.fixture()
def flatdoc(tmp_path):
    out = tmp_path / "flat.json"
    run(["construct", "--type", "flat", "--headstart", "1", "--out", str(out)])
    return out


@pytest.fixture()
def imp3(tmp_path):
    """The improved scheme at 3 cycles: a float document."""
    out = tmp_path / "imp3.json"
    run(["construct", "--type", "improved", "--cycles", "3", "--out", str(out)])
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

    def test_horizon_past_valid_is_usage_error(self, doc3, capsys):
        for command in ("simulate", "maxima"):
            argv = [command, "--system", str(doc3), "--horizon", "200"]
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: horizon 200 exceeds the valid horizon 171") and "--truncated" in err
            assert run(argv + ["--truncated"]) == 0

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(["simulate", "--system", str(tmp_path / "nope.json")]) == 2

    def test_directory_path_is_usage_error(self, doc3, tmp_path, capsys):
        for argv in (["--system", str(tmp_path)], ["--system", str(doc3), "--curve-out", str(tmp_path)]):
            assert run(["simulate"] + argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: [Errno 21] Is a directory") and "Traceback" not in err

    def test_non_finite_horizon_fails_before_the_warning(self, tmp_path, capsys):
        doc = tmp_path / "improved.json"
        run(["construct", "--type", "improved", "--cycles", "3", "--out", str(doc)])
        capsys.readouterr()
        assert run(["simulate", "--system", str(doc), "--horizon", "inf"]) == 2
        assert capsys.readouterr().err == "error: horizon: non-finite length 'inf'\n"


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

    def test_horizon_past_valid_names_the_flag(self, doc3, capsys):
        check = ["check", "--system", str(doc3), "--speed", "17/9", "--horizon", "200"]
        assert run(check) == 2
        err = capsys.readouterr().err
        assert "exceeds the valid horizon 171" in err and "--truncated" in err
        assert "truncated=True" not in err
        assert run(check + ["--truncated"]) == 0

    def test_number_past_the_float_range_is_usage_error(self, tmp_path, capsys):
        doc = tmp_path / "improved.json"
        run(["construct", "--type", "improved", "--cycles", "3", "--out", str(doc)])
        capsys.readouterr()
        huge = f"{10**400}/3"
        for argv in (["check", "--speed", huge], ["simulate", "--horizon", huge, "--truncated"]):
            assert run(argv + ["--system", str(doc)]) == 2
            assert capsys.readouterr().err == f"error: {argv[1][2:]}: cannot coerce 3.33333e+399 to float\n"


    @pytest.mark.parametrize("argv", [["check", "--speed", "1/0"], ["simulate", "--horizon", "1/0", "--truncated"]])
    def test_zero_denominator_on_a_float_system_is_usage_error(self, imp3, capsys, argv):
        assert run(argv + ["--system", str(imp3)]) == 2
        assert capsys.readouterr().err == f"error: {argv[1][2:]}: cannot parse rational '1/0'\n"

    def test_free_text_speed_on_a_float_system_names_the_float_reader(self, imp3, capsys):
        assert run(["check", "--system", str(imp3), "--speed", "abc"]) == 2
        assert capsys.readouterr().err == "error: speed: cannot coerce 'abc' to float\n"


class TestOracle:
    def test_flat_scene_passes(self, flatdoc):
        assert run([
            "oracle", "--system", str(flatdoc), "--cell", "0.25", "--horizon", "10",
        ]) == 0

    def test_no_verticals_without_horizon_is_usage_error(self, flatdoc, capsys):
        assert run(["oracle", "--system", str(flatdoc), "--cell", "0.25"]) == 2
        assert capsys.readouterr().err == "error: specify --horizon for systems without verticals\n"

    def test_report_written(self, doc17, tmp_path):
        out = tmp_path / "oracle.json"
        assert run([
            "oracle", "--system", str(doc17), "--cell", "0.125",
            "--horizon", "30", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True

    def test_scene_beyond_physical_memory_is_usage_error(self, doc17, capsys, monkeypatch):
        # 6 cycles of 17/9 over the valid horizon at cell 1e-3: 1.7e9 columns, whose tops alone outgrow 8 GiB
        memory = {"SC_PHYS_PAGES": 2**21, "SC_PAGE_SIZE": 2**12}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        assert run(["oracle", "--system", str(doc17), "--cell", "1e-3"]) == 2
        assert capsys.readouterr().err == (
            "error: a grid of 1.39629e+18 nodes (cell 0.001, horizon 835551): its column tops need about 24.9 GiB, "
            "more than the 8.0 GiB of physical memory; use a coarser cell or a shorter horizon\n"
        )

    def test_cell_reads_a_ratio(self, doc3, tmp_path):
        ratio, decimal = tmp_path / "ratio.json", tmp_path / "decimal.json"
        assert run(["oracle", "--system", str(doc3), "--cell", "1/4", "--out", str(ratio)]) == 0
        assert run(["oracle", "--system", str(doc3), "--cell", "0.25", "--out", str(decimal)]) == 0
        assert ratio.read_bytes() == decimal.read_bytes()

    @pytest.mark.parametrize("flag", ["--cell", "--beta", "--delta"])
    def test_zero_denominator_is_usage_error(self, doc3, tmp_path, capsys, flag):
        argv = ["oracle", "--system", str(doc3)] if flag == "--cell" else ["construct", "--type", "improved"]
        with pytest.raises(SystemExit) as info:
            run(argv + [flag, "1/0", "--out", str(tmp_path / "x.json")])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: cannot parse rational '1/0'\n")

    @pytest.mark.parametrize("cell", ["1e308", "inf"])
    def test_cell_larger_than_horizon_is_usage_error(self, doc3, capsys, cell):
        assert run(["oracle", "--system", str(doc3), "--cell", cell]) == 2
        err = capsys.readouterr().err
        want = "cell must be > 0 and finite, got inf" if cell == "inf" else "cell 1e+308 is larger than the horizon 171"
        assert want in err

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    def test_horizon_not_above_zero_is_named(self, doc3, capsys, horizon):
        # the grid's joint check said "cell size and horizon must be > 0 and the horizon finite"
        assert run(["oracle", "--system", str(doc3), "--cell", "1", "--horizon", horizon]) == 2
        assert capsys.readouterr().err == f"error: horizon must be > 0 and finite, got {horizon}\n"


    @pytest.mark.parametrize("doc, argv, message", [
        ("imp3", ["--cell", "0.5"],
         "cell 0.5 rounds the vertical at x=0.149272 onto the source node; use a cell below 0.298544"),
        ("doc3", ["--cell", "4", "--horizon", "100"],
         "cell 4 rounds the vertical at x=1 onto the source node; use a cell below 2"),
    ])
    def test_cell_rounding_a_foot_onto_the_source_names_the_bound(self, request, capsys, doc, argv, message):
        assert run(["oracle", "--system", str(request.getfixturevalue(doc))] + argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("pairs", [((1, 10**340),), ((1, 3), (10**340, 10**341))], ids=["height", "foot"])
    def test_lengths_past_the_float_range_pass(self, tmp_path, capsys, pairs):
        # a vertical taller than the scene blocks its whole column; a foot past it is skipped
        doc = tmp_path / "huge.json"
        save(BarrierSystem(mode=RATIONAL, head_start=1, right=pairs, left=()), doc)
        assert run(["oracle", "--system", str(doc), "--cell", "1", "--horizon", "20"]) == 0
        assert capsys.readouterr().out.startswith("PASS: ")

    @pytest.mark.parametrize("cell", ["1e-300", "5e-324"])
    def test_tiny_cell_is_refused_without_overflow(self, imp3, capsys, cell):
        assert run(["oracle", "--system", str(imp3), "--cell", cell]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a grid of ") and "physical memory" in err and err.count("\n") == 1
        assert "e+" in err.split(" nodes")[0]  # the count is printed short, not as 600 digits


class TestOptimize:
    def test_beta_scheme(self, tmp_path, capsys):
        out = tmp_path / "opt.json"
        assert run(["optimize", "--scheme", "beta", "--out", str(out)]) == 0
        want = {"beta": 4.0, "delta": None, "v": 1.8888888888888888, "maxima": [1.8888888888888888], "iterations": 0}
        assert out.read_text() == json.dumps(want, indent=2) + "\n"

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


class TestPastTheFloatRange:
    """17/9 at 260 cycles: times reach ~1e312, past the largest float."""

    CYCLES = 260

    @pytest.fixture(scope="class")
    def deep(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("deep") / "deep.json"
        save(build_seventeen_ninths(1, cycles=self.CYCLES), path)
        return path

    def test_simulate_summary(self, deep, capsys):
        assert run(["simulate", "--system", str(deep)]) == 0
        assert "e+312" in capsys.readouterr().out

    def test_maxima_report_matches_library(self, deep, tmp_path):
        out = tmp_path / "maxima.json"
        assert run(["maxima", "--system", str(deep), "--out", str(out)]) == 0
        _, report = ratio_report(build_seventeen_ninths(1, cycles=self.CYCLES))
        assert json.loads(out.read_text()) == report_to_document(report, "rational")

    def test_check_passes_at_17_9(self, deep):
        assert run(["check", "--system", str(deep), "--speed", "17/9"]) == 0

    def test_curve_csv_is_usage_error(self, deep, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        assert run(["simulate", "--system", str(deep), "--curve-out", str(curve)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--intervals-out" in err and "Traceback" not in err
        assert "e+308" in err  # the first row that overflows
        assert not curve.exists()

    def test_oracle_horizon_is_usage_error(self, deep, capsys):
        # the grid reads the exact horizon first; the command's own check said "... past the float range of the grid"
        assert run(["oracle", "--system", str(deep), "--cell", "1"]) == 2
        assert capsys.readouterr().err == "error: horizon 5.86767e+311 is past the float range\n"

    # the curves end at (1.2e308, inf); with one vertical the horizon, its top, is inf
    @pytest.mark.parametrize("pairs, t", [
        (((1e307, 1e307), (1e307, 1e308)), "1.2e+308"), (((1e308, 1e308),), "1e+308"),
    ])
    @pytest.mark.parametrize("argv", [["simulate"], ["maxima"], ["check", "--speed", "2"]])
    def test_a_float_curve_past_the_float_range_is_usage_error(self, tmp_path, capsys, pairs, t, argv):
        doc = tmp_path / "overflow.json"
        save(BarrierSystem(mode="float", head_start=1.0, right=pairs, left=pairs), doc)
        assert run(argv[:1] + ["--system", str(doc)] + argv[1:]) == 2
        assert capsys.readouterr().err == (
            f"error: float curve leaves the float range at t = {t}; use rational mode for exact results\n")


NUMBER_TEXT = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-(10**5), 10**5), st.integers(-3, 10**5)),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1/0", "1e400", "0", "-1", "1e-400", "5e-324"]),
    st.text(max_size=8),
)


class TestNoTraceback:
    @pytest.fixture(scope="class")
    def docs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("docs")
        run(["construct", "--type", "improved", "--cycles", "3", "--out", str(base / "imp3.json")])
        run(["construct", "--type", "seventeen-ninths", "--headstart", "1", "--cycles", "3",
             "--out", str(base / "doc3.json")])
        return base

    @settings(max_examples=40, deadline=None)
    @given(NUMBER_TEXT)
    def test_number_arguments_end_in_an_exit_code(self, docs, text):
        # the --flag=value form keeps a leading "-" from reading as an option; --cell is left out
        # so that no large grid is allocated
        commands = [
            ["construct", "--type", kind, "--cycles", "3", f"--headstart={text}", "--out", str(docs / "out.json")]
            for kind in ("improved", "seventeen-ninths")
        ]
        for doc in ("imp3.json", "doc3.json"):
            system = ["--system", str(docs / doc)]
            commands += [["check", f"--speed={text}"] + system, ["simulate", f"--horizon={text}", "--truncated"] + system]
        for argv in commands:
            assert run(argv) in (0, 1, 2)


class TestApprox:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_matches_percent_g_on_floats(self, x):
        # a float is exactly a Fraction, and float formatting rounds exactly, ties to even;
        # + 0.0 turns -0.0, which no Fraction has, into 0.0
        assert approx(Fraction(x)) == f"{x + 0.0:g}"

    @pytest.mark.parametrize("x, text", [
        (Fraction(123456789) * 10**392, "1.23457e+400"),
        (-Fraction(10) ** 400, "-1e+400"),
        (Fraction(9999995) * 10**394, "1e+401"),  # 999999.5 rounds to even, up
        (Fraction(1, 3) / 10**400, "3.33333e-401"),
        (0, "0"),
        (3231, "3231"),
    ])
    def test_beyond_the_float_range(self, x, text):
        assert approx(x) == text
