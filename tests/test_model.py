"""Barrier-system model: validation, normalization, scaling, documents."""

import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from firebreak import (
    FLOAT,
    RATIONAL,
    BarrierSystem,
    DocumentError,
    ValidationError,
    consumption_curve,
    from_document,
    load,
    normalize_doubling,
    save,
    scale,
    to_document,
    validate,
)
from firebreak.model import coerce_length, loads, dumps, render_number

from conftest import random_rational_system


def rational(head_start, right=(), left=()):
    return BarrierSystem(mode=RATIONAL, head_start=head_start, right=right, left=left)


class TestConstruction:
    def test_rejects_zero_height(self):
        with pytest.raises(ValidationError):
            rational(1, right=((1, 0),))

    def test_rejects_negative_gap(self):
        with pytest.raises(ValidationError):
            rational(1, right=((-1, 2),))

    def test_rejects_negative_head_start(self):
        with pytest.raises(ValidationError):
            rational(-1)

    def test_rejects_float_in_rational_mode(self):
        with pytest.raises(ValidationError):
            rational(1, right=((0.5, 2),))

    def test_rejects_non_finite_float(self):
        with pytest.raises(ValidationError):
            BarrierSystem(mode=FLOAT, head_start=1.0, right=((float("inf"), 1.0),), left=())

    def test_coercion_error_names_the_position(self):
        with pytest.raises(ValidationError, match=r"^right\[1\]: cannot parse rational 'x'$"):
            BarrierSystem(mode=RATIONAL, head_start=1, right=[("x", 1)], left=())
        with pytest.raises(ValidationError, match=r"^head_start: cannot parse rational 'y'$"):
            rational("y")

    def test_accepts_fraction_strings(self):
        system = rational("1/2", right=(("3/2", "17"),))
        assert system.head_start == Fraction(1, 2)
        assert system.right[0] == (Fraction(3, 2), Fraction(17))

    def test_prefix_sums(self):
        system = rational(1, right=((1, 17), (34, 136)))
        assert system.feet("right") == (1, 35)
        assert tuple(accumulate(system.heights("right"))) == (17, 153)


class TestValidate:
    def test_seventeen_ninths_prefix_passes_both(self):
        system = rational(1, right=((1, 17), (34, 136)))
        report = validate(system)
        assert report.right.doubling and report.right.conditions7
        assert report.all_ok

    def test_empty_sides_vacuous(self):
        report = validate(rational(1))
        assert report.all_ok
        assert report.right.doubling_violation is None

    def test_doubling_violation_reported_with_index(self):
        report = validate(rational(1, right=((2, 4), (5, 6))))
        assert not report.right.doubling
        assert report.right.doubling_violation == 2  # 6 < 2*4
        # gap 5 >= height 4 holds but the height growth fails
        assert not report.right.conditions7
        assert report.right.conditions7_violation == 2
        assert report.left.doubling  # untouched side stays clean


class TestNormalize:
    def test_middle_violator_removed_with_gap_growth(self):
        system = rational(1, right=((2, 4), (5, 6), (7, 20)))
        result = normalize_doubling(system)
        # delta = 6 - 4 = 2; new gap = 5 + 7 + 2*2 = 16
        assert result.right == ((2, 4), (16, 20))

    def test_conforming_input_unchanged(self):
        system = rational(1, right=((1, 3), (4, 8)), left=((2, 5), (6, 11)))
        result = normalize_doubling(system)
        assert result.right == system.right
        assert result.left == system.left

    def test_trailing_violator_just_removed(self):
        system = rational(1, right=((2, 4), (5, 6)))
        assert normalize_doubling(system).right == ((2, 4),)

    def test_shorter_than_predecessor_dropped_without_shift(self):
        # the short barrier delays nothing; positions of the rest are kept
        system = rational(1, right=((2, 10), (1, 3), (1, 25)))
        result = normalize_doubling(system)
        assert result.right == ((2, 10), (2, 25))

    def test_head_start_feet_merged_to_its_end(self):
        system = rational(2, right=((1, 3), ("1/2", 8), (10, 20)))
        result = normalize_doubling(system)
        # feet at 1 and 3/2 lie within the head start; merged at x = 2
        assert result.right[0] == (2, 8)
        assert result.right[1] == (Fraction(19, 2), 20)  # foot stays at 11.5

    def test_output_always_doubles(self):
        rng = random.Random(7)
        for _ in range(50):
            system = random_rational_system(rng)
            report = validate(normalize_doubling(system))
            assert report.right.doubling and report.left.doubling

    def test_consumption_never_increases(self):
        # spot check here; the 200-system sweep runs in the acceptance suite
        rng = random.Random(11)
        for _ in range(20):
            system = random_rational_system(rng)
            result = normalize_doubling(system)
            horizon = 4 * sum(
                system.head_start + sum(g + h for g, h in system.pairs(side))
                for side in ("right", "left")
            )
            base = consumption_curve(system, horizon, truncated=True).total
            lowered = consumption_curve(result, horizon, truncated=True).total
            for t in sorted({t for t, _ in base.points} | {t for t, _ in lowered.points}):
                assert lowered.value_at(t) <= base.value_at(t)


class TestScale:
    def test_identity(self, sys17):
        assert scale(sys17, 1) == sys17

    def test_linearity(self, sys17):
        tripled = scale(sys17, 3)
        assert tripled.head_start == 3
        assert tripled.right[0] == (3, 51)

    def test_rejects_non_positive_factor(self, sys17):
        with pytest.raises(ValidationError):
            scale(sys17, 0)

    def test_consumption_scales_with_time(self):
        system = rational(1, right=((1, 17), (34, 136)), left=((1, 34),))
        doubled = scale(system, 2)
        base = consumption_curve(system, 60, truncated=True)
        big = consumption_curve(doubled, 120, truncated=True)
        for t, v in base.total.points:
            assert big.total.value_at(2 * t) == 2 * v

    def test_ratio_maxima_invariant_under_scaling(self, sys17):
        from firebreak import ratio_report

        _, base = ratio_report(sys17)
        _, scaled = ratio_report(scale(sys17, 2))
        assert [q for _, q in scaled.local_maxima] == [q for _, q in base.local_maxima]
        assert [t for t, _ in scaled.local_maxima] == [2 * t for t, _ in base.local_maxima]


class TestDocuments:
    def test_round_trip_seventeen_ninths(self, sys17):
        assert from_document(to_document(sys17)) == sys17
        assert loads(dumps(sys17)) == sys17

    def test_file_round_trip(self, sys17, tmp_path):
        path = tmp_path / "doc.json"
        save(sys17, path)
        assert load(path) == sys17

    def test_rational_rendering_is_exact(self):
        system = rational("1/3", right=(("22/7", "17/9"),))
        doc = to_document(system)
        assert doc["head_start"] == "1/3"
        assert doc["right"][0] == {"a": "22/7", "b": "17/9"}

    def test_missing_head_start_rejected(self):
        with pytest.raises(DocumentError):
            from_document({"mode": "rational", "right": [], "left": []})

    def test_float_in_rational_document_rejected(self):
        doc = {"mode": "rational", "head_start": 0.1, "right": [], "left": []}
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_malformed_side_entry_rejected(self):
        doc = {"mode": "rational", "head_start": "1", "right": [{"a": "1"}], "left": []}
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_bad_json_rejected(self):
        with pytest.raises(DocumentError):
            loads("{not json")

    @pytest.mark.parametrize("mode, head_start, right, left, message", [
        ("rational", "abc", [], [], "head_start: cannot parse rational 'abc'"),
        ("rational", 0.1, [], [], "head_start: float 0.1 not accepted in rational mode (lossy); "
                                  "pass an int, Fraction or 'p/q' string"),
        ("rational", "1", [{"a": "x", "b": "1"}], [], "right[1]: cannot parse rational 'x'"),
        ("rational", "1", [{"a": "1", "b": "0"}], [], "right[1] height must be > 0, got 0"),
        ("rational", "1", [], [{"c": "1/0", "d": "1"}], "left[1]: cannot parse rational '1/0'"),
        ("rational", "-1", [], [], "head_start must be >= 0, got -1"),
        ("rational", True, [], [], "head_start: not a length: True"),
        ("float", "inf", [], [], "head_start: non-finite length 'inf'"),
        ("float", 1, [{"a": "nan", "b": 1}], [], "right[1]: non-finite length 'nan'"),
        ("rational", "1", [{"a": [1], "b": "1"}], [], "right[1]: cannot coerce [1] to a rational length"),
        ("rational", "1", [{"a": "1"}], [], "right[1] must be an object with keys ('a', 'b')"),
        ("float", 1e400, [], [], "head_start: non-finite length inf"),
        ("rational", None, [], [], "head_start: cannot coerce None to a rational length"),
        ("rational", "1", {}, [], "field 'right' must be a list"),
        ("decimal", "1", [], [], "mode must be one of ('rational', 'float'), got 'decimal'"),
    ])
    def test_malformed_document_message(self, mode, head_start, right, left, message):
        doc = {"mode": mode, "head_start": head_start, "right": right, "left": left}
        with pytest.raises(DocumentError) as excinfo:
            from_document(doc)
        assert str(excinfo.value) == message

    def test_library_save_past_the_digit_limit_leaves_no_file(self, tmp_path, digit_limit):
        path = tmp_path / "huge.json"
        with pytest.raises(ValueError, match="integer string conversion"):
            save(rational(1, right=((1, 10**digit_limit),)), path)
        assert not path.exists()

    def test_float_value_survives_round_trip(self):
        system = BarrierSystem(
            mode=FLOAT, head_start=1.2802, right=((1.2802, 4.06887),), left=()
        )
        back = loads(dumps(system))
        assert abs(back.head_start - 1.2802) <= 1e-12 * 1.2802
        assert back.right[0][1] == 4.06887  # repr round-trip is exact


class TestCoerce:
    def test_decimal_string_is_exact_in_rational_mode(self):
        assert coerce_length("7.5", RATIONAL) == Fraction(15, 2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            coerce_length(1, "decimal")

    @pytest.mark.parametrize("value", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
    def test_past_the_float_range_rejected(self, value):
        with pytest.raises(ValidationError, match="cannot coerce"):
            coerce_length(value, FLOAT)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_repr_reads_back_exactly(self, x):
        assert repr(coerce_length(repr(x), FLOAT)) == repr(x)

    @given(st.integers(-(10**300), 10**300), st.integers(1, 10**300))
    def test_ratio_string_is_rounded_once_in_float_mode(self, p, q):
        assert coerce_length(f"{p}/{q}", FLOAT) == float(Fraction(p, q))

    @pytest.mark.parametrize("text, message", [
        ("1/0", "cannot parse rational '1/0'"),
        ("abc", "cannot coerce 'abc' to float"),
        (f"{10**400}/3", "cannot coerce 3.33333e+399 to float"),
    ], ids=["zero-denominator", "free-text", "past-the-float-range"])
    def test_float_mode_reader_errors(self, text, message):
        with pytest.raises(ValidationError) as info:
            coerce_length(text, FLOAT)
        assert str(info.value) == message


class TestRenderNumber:
    @given(st.one_of(st.integers(), st.fractions()))
    def test_rational_text_is_n_or_n_over_d(self, x):
        frac = Fraction(x)
        want = str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
        assert render_number(x, RATIONAL) == want
