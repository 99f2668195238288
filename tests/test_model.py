"""Barrier-system model: validation, normalization, scaling, documents, records."""

import json
import pickle
import random
import sys
from collections import OrderedDict, defaultdict
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from firebreak import (
    FLOAT,
    RATIONAL,
    BarrierSystem,
    DocumentError,
    GridScene,
    InterlacingParams,
    KInterval,
    OracleComparison,
    Optimum,
    SampledCurve,
    ValidationError,
    build_improved,
    build_seventeen_ninths,
    check_speed,
    consumption_curve,
    from_document,
    load,
    normalize_doubling,
    ratio_report,
    save,
    scale,
    to_document,
    validate,
)
from firebreak.geodesic import FaceArrivalProfile, face_arrival_profiles, geodesic_distance
from firebreak.model import (
    _drop_non_increasing, _enforce_doubling, _merge_head_start, coerce_length, int_digit_limit, loads, dumps,
    render_number,
)
from firebreak.simulate import predict_intervals

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

    @pytest.mark.parametrize("entry", [(1, 2, 3), 5, (1,)])
    def test_rejects_a_side_entry_that_is_not_a_pair(self, entry):
        with pytest.raises(ValidationError) as info:
            rational(1, right=((1, 2), entry))
        assert str(info.value) == "right[2] is not a (gap, height) pair"

    def test_coercion_error_names_the_position(self):
        with pytest.raises(ValidationError, match=r"^right\[1\]: cannot parse rational 'x'$"):
            BarrierSystem(mode=RATIONAL, head_start=1, right=[("x", 1)], left=())
        with pytest.raises(ValidationError, match=r"^head_start: cannot parse rational 'y'$"):
            rational("y")

    # rational lengths are tested on their numerators, float lengths as floats; both keep these messages
    @pytest.mark.parametrize("mode, length, at, message", [
        (RATIONAL, "0/5", "gap", "right[1] gap must be > 0, got 0"),
        (RATIONAL, "0/5", "height", "right[1] height must be > 0, got 0"),
        (RATIONAL, Fraction(-1, 3), "head_start", "head_start must be >= 0, got -1/3"),
        (RATIONAL, Fraction(-1, 3), "gap", "right[1] gap must be > 0, got -1/3"),
        (RATIONAL, Fraction(-1, 3), "height", "right[1] height must be > 0, got -1/3"),
        (RATIONAL, 0.0, "gap", "right[1]: float 0.0 not accepted in rational mode (lossy); "
                               "pass an int, Fraction or 'p/q' string"),
        (RATIONAL, -0.0, "height", "right[1]: float -0.0 not accepted in rational mode (lossy); "
                                   "pass an int, Fraction or 'p/q' string"),
        (FLOAT, "0/5", "gap", "right[1] gap must be > 0, got 0.0"),
        (FLOAT, "0/5", "height", "right[1] height must be > 0, got 0.0"),
        (FLOAT, Fraction(-1, 3), "head_start", "head_start must be >= 0, got -0.3333333333333333"),
        (FLOAT, Fraction(-1, 3), "gap", "right[1] gap must be > 0, got -0.3333333333333333"),
        (FLOAT, Fraction(-1, 3), "height", "right[1] height must be > 0, got -0.3333333333333333"),
        (FLOAT, 0.0, "gap", "right[1] gap must be > 0, got 0.0"),
        (FLOAT, -0.0, "height", "right[1] height must be > 0, got -0.0"),
    ])
    def test_refusal_messages_in_both_modes(self, mode, length, at, message):
        head_start = length if at == "head_start" else 1
        pair = (length, 2) if at == "gap" else (1, length)
        with pytest.raises(ValidationError) as info:
            BarrierSystem(mode, head_start, () if at == "head_start" else (pair,), ())
        assert str(info.value) == message

    @pytest.mark.parametrize("mode, head_start", [(RATIONAL, "0/5"), (RATIONAL, 0), (FLOAT, "0/5"), (FLOAT, -0.0)])
    def test_a_zero_head_start_is_accepted(self, mode, head_start):
        assert BarrierSystem(mode, head_start, (), ()).head_start == 0

    def test_accepts_fraction_strings(self):
        system = rational("1/2", right=(("3/2", "17"),))
        assert system.head_start == Fraction(1, 2)
        assert system.right[0] == (Fraction(3, 2), Fraction(17))

    def test_prefix_sums(self):
        system = rational(1, right=((1, 17), (34, 136)))
        assert system.feet("right") == (1, 35)
        assert tuple(accumulate(system.heights("right"))) == (17, 153)


def records():
    """One value of every record type the package returns but ``ConsumptionCurves``, whose curves have no ``==``."""
    system = build_seventeen_ninths(1, cycles=2)
    report = validate(system)
    return [
        system,
        report.right,
        report,
        FaceArrivalProfile("right", "vertical", 1, ((0, 1), (17, 18))),
        KInterval("right", Fraction(1), Fraction(2), 1),
        ratio_report(system)[1],
        check_speed(system, Fraction(17, 9)),
        InterlacingParams(beta=4.0),
        Optimum(beta=4.0, v=1.9, delta=1.25, achieved_maxima=(1.9, 1.9), iterations=3),
        OracleComparison(0.5, 2.0, 1.0, True),
        GridScene(cell=1.0, tops=(0, 0, 2), rows=2, source_col=1),
        SampledCurve(times=(0.0, 1.0, 2.0), values=(0.0, 0.0, 0.0)),
    ]


RECORDS = records()


class TestRecords:
    """Every result type is an immutable NamedTuple record."""

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_immutable(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.no_such_field = 1

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_equal_fields_equal_records(self, record):
        again = type(record)(**record._asdict())
        assert again == record and again is not record
        assert hash(again) == hash(record)
        assert again == tuple(record)  # records are tuples

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_pickle_round_trip(self, record):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is type(record) and repr(back) == repr(record)
            assert back == record

    def test_repr(self):
        system = build_seventeen_ninths(1, cycles=2)
        assert repr(check_speed(system, Fraction(17, 9))) == (
            "SpeedCheck(feasible=True, speed=Fraction(17, 9), horizon=Fraction(171, 1), earliest_violation=None)"
        )
        _, report = ratio_report(system)
        assert repr(report) == (
            "RatioReport(local_maxima=((Fraction(18, 1), Fraction(17, 9)),), supremum=Fraction(17, 9), "
            "sup_time=Fraction(18, 1), valid_horizon=Fraction(18, 1))"
        )
        assert repr(check_speed(system, "17/9", report.valid_horizon, truncated=True)) == (
            "SpeedCheck(feasible=True, speed=Fraction(17, 9), horizon=Fraction(18, 1), earliest_violation=None)"
        )
        assert repr(build_seventeen_ninths(1, cycles=1)) == (
            "BarrierSystem(mode='rational', head_start=Fraction(1, 1), "
            "right=((Fraction(1, 1), Fraction(17, 1)),), left=((Fraction(1, 1), Fraction(34, 1)),))"
        )


class TestBarrierSystemBuilders:
    """``_make``, ``_replace`` and unpickling validate as the constructor does."""

    SYSTEM = rational(1, right=((1, 17),))

    @pytest.mark.parametrize("fields, message", [
        ({"head_start": -1}, "head_start must be >= 0, got -1"),
        ({"right": ((0, 1),)}, r"right\[1\] gap must be > 0, got 0"),
        ({"left": ((1, 2), (3, "x"))}, r"left\[2\]: cannot parse rational 'x'"),
        ({"mode": "decimal"}, "mode must be one of"),
    ])
    def test_replace_validates(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            BarrierSystem(**{**self.SYSTEM._asdict(), **fields})
        with pytest.raises(ValidationError, match=message):
            self.SYSTEM._replace(**fields)

    def test_make_validates(self):
        fields = [RATIONAL, 1, ((1, 17), (2, -34)), ()]
        with pytest.raises(ValidationError, match=r"^right\[2\] height must be > 0, got -34$"):
            BarrierSystem(*fields)
        with pytest.raises(ValidationError, match=r"^right\[2\] height must be > 0, got -34$"):
            BarrierSystem._make(fields)

    def test_replace_coerces(self):
        system = self.SYSTEM._replace(head_start="3/2", left=(("1", 2),))
        assert type(system.head_start) is Fraction and system.head_start == Fraction(3, 2)
        assert system.left == ((Fraction(1), Fraction(2)),)
        assert system.right == self.SYSTEM.right
        with pytest.raises(ValueError, match="unexpected field names"):
            self.SYSTEM._replace(cycles=3)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_validates(self, protocol):
        bad = tuple.__new__(BarrierSystem, (RATIONAL, -1, (), ()))  # skips __new__ on purpose
        data = pickle.dumps(bad, protocol)
        with pytest.raises(ValidationError, match="head_start must be >= 0, got -1"):
            pickle.loads(data)


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


def reference_normalize(system):
    """``normalize_doubling`` off the lattice: its three helpers run on the system's own Fractions or floats."""
    sides = [tuple(_enforce_doubling(_merge_head_start(_drop_non_increasing(list(pairs)), system.head_start)))
             for pairs in (system.right, system.left)]
    return BarrierSystem(system.mode, system.head_start, *sides)


@st.composite
def normalize_cases(draw):
    """A rational system whose small lengths make covered feet, equal heights and doubling violators common."""
    length = st.builds(Fraction, st.integers(1, 40), st.sampled_from([1, 2, 3, 7]))
    side = st.lists(st.tuples(length, length), max_size=7).map(tuple)
    return rational(draw(st.one_of(st.just(0), length)), draw(side), draw(side))


def as_float(system):
    return BarrierSystem(FLOAT, float(system.head_start), *(tuple((float(g), float(h)) for g, h in pairs)
                                                             for pairs in (system.right, system.left)))


class TestNormalizeProperty:
    @settings(max_examples=200, deadline=None)
    @given(normalize_cases())
    @example(rational(5, right=((1, 2), (1, 3), (2, 4), (3, 20), (1, 30))))  # a head start that covers three feet
    @example(rational(1, right=((1, 4), (2, 4), (3, 9)), left=((2, 5), (1, 5))))  # equal heights
    @example(rational(1, right=((1, 4), (2, 6))))  # the last vertical violates doubling
    @example(rational(1, right=(), left=((Fraction(1, 3), 2), (Fraction(2, 7), 5))))  # an empty side
    @example(rational(0, right=((1, 3), (1, 5), (2, 11)), left=((1, 1),)))  # zero head start
    def test_equals_the_helpers_on_the_systems_own_numbers(self, system):
        # in both modes; a rational system runs on its lattice, and repr compares the type of every number too
        for case in (system, as_float(system)):
            assert repr(normalize_doubling(case)) == repr(reference_normalize(case))


def two_pass_merge_head_start(pairs, head_start):
    """The head-start merge that sums the feet again, from the first, for the gap after the head start."""
    pos = 0
    last_inside = -1
    for i, (gap, _) in enumerate(pairs):
        pos = pos + gap
        if pos <= head_start:
            last_inside = i
        else:
            break
    if last_inside < 0:
        return pairs
    # feet positions of the survivors are preserved
    merged_height = pairs[last_inside][1]
    tail = pairs[last_inside + 1:]
    out = [(head_start, merged_height)]
    if tail:
        pos_next = sum(g for g, _ in pairs[: last_inside + 2])
        out.append((pos_next - head_start, tail[0][1]))
        out.extend(tail[1:])
    return out


@st.composite
def merge_cases(draw):
    """Pairs of floats, Fractions or ints and a head start, often on a foot as the merge sums it or past them all."""
    length = draw(st.sampled_from([st.floats(1e-3, 1e3), st.fractions(Fraction(1, 50), 50, max_denominator=60)
                                   .filter(bool), st.integers(1, 50)]))
    pairs = draw(st.lists(st.tuples(length, length), max_size=8))
    feet = list(accumulate((gap for gap, _ in pairs), initial=0))  # 0 + gap + gap ..., in the merge's order
    return pairs, draw(st.one_of(st.sampled_from(feet), st.sampled_from(feet).map(lambda f: f * 2 + 1), length))


class TestMergeHeadStart:
    @settings(max_examples=300, deadline=None)
    @given(merge_cases())
    @example(([], 1))  # no pairs
    @example(([(1, 2), (2, 3)], 3))  # every foot inside the head start, the last on it
    @example(([(0.1, 1.0), (0.2, 3.0), (0.3, 7.0)], 0.1 + 0.2))  # a float-summed foot
    def test_one_pass_equals_the_two_pass_sum(self, case):
        # the running sum that finds the first foot past the head start is the sum the gap after it needs
        pairs, head_start = case
        assert repr(_merge_head_start(list(pairs), head_start)) == repr(two_pass_merge_head_start(list(pairs),
                                                                                                head_start))


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

    @pytest.mark.parametrize("system, document", [
        (rational("1/3", right=((2, "22/7"),)),
         {"mode": "rational", "head_start": "1/3", "right": [{"a": "2", "b": "22/7"}], "left": []}),
        (BarrierSystem(FLOAT, 0.5, (), ((1, 0.1), (3.25, 1e300))),
         {"mode": "float", "head_start": 0.5, "right": [], "left": [{"c": 1.0, "d": 0.1}, {"c": 3.25, "d": 1e300}]}),
    ], ids=["rational", "float"])
    def test_document_content_is_pinned(self, system, document):
        # repr: key order, and a float length stays a float (1.0, not 1)
        assert repr(to_document(system)) == repr(document)

    def test_missing_head_start_rejected(self):
        with pytest.raises(DocumentError):
            from_document({"mode": "rational", "right": [], "left": []})

    def test_float_in_rational_document_rejected(self):
        doc = {"mode": "rational", "head_start": 0.1, "right": [], "left": []}
        with pytest.raises(DocumentError):
            from_document(doc)

    @pytest.mark.parametrize("document", [[], "{}", None])
    def test_non_object_document_rejected(self, document):
        with pytest.raises(DocumentError) as info:
            from_document(document)
        assert str(info.value) == "document must be an object"

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
        ("float", True, [], [], "head_start: not a length: True"),
        ("float", 1, [{"a": 1, "b": False}], [], "right[1]: not a length: False"),
        ("rational", "1", [[1, 2]], [], "right[1] must be an object with keys ('a', 'b')"),
        ("float", 1, [], [{"d": 2}], "left[1] must be an object with keys ('c', 'd')"),
        ("rational", "1", [defaultdict(str, a="1")], [], "right[1] must be an object with keys ('a', 'b')"),
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

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_an_entry_of_a_dict_subclass_is_read(self, mode):
        doc = {"mode": mode, "head_start": "1", "right": [OrderedDict(b="17", a="1")], "left": [OrderedDict(c="1", d="34")]}
        assert from_document(doc) == BarrierSystem(mode, 1, ((1, 17),), ((1, 34),))

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


@st.composite
def systems(draw):
    """Random systems in both modes: empty sides, zero head starts (-0.0 in float mode), Fractions with denominators."""
    mode = draw(st.sampled_from([RATIONAL, FLOAT]))
    if mode == RATIONAL:
        length = st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**12))
        head_start = st.one_of(st.just(0), length)
    else:
        length = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        head_start = st.one_of(st.sampled_from([0.0, -0.0]), length)
    side = st.lists(st.tuples(length, length), max_size=4).map(tuple)
    return BarrierSystem(mode, draw(head_start), draw(side), draw(side))


class TestDocumentText:
    @settings(max_examples=200, deadline=None)
    @given(systems())
    @example(build_seventeen_ninths(1, cycles=64))
    @example(build_seventeen_ninths(Fraction(7, 3), cycles=64))
    @example(build_improved(InterlacingParams(cycles=8)))
    @example(BarrierSystem(FLOAT, -0.0, (), ()))
    @example(BarrierSystem(RATIONAL, 0, (), ((Fraction(22, 7), Fraction(17, 9)),)))
    def test_dumps_writes_the_bytes_of_the_json_encoder(self, system):
        text = dumps(system)
        assert text == json.dumps(to_document(system), indent=2) + "\n"
        back = loads(text)
        assert back == system and repr(back) == repr(system)  # repr: -0.0 stays -0.0


def reference_document(system):
    """The document dict built field by field, each number as ``render_number`` writes it."""
    def side(pairs, gap, height):
        return [{gap: render_number(g, system.mode), height: render_number(h, system.mode)} for g, h in pairs]

    return {"mode": system.mode, "head_start": render_number(system.head_start, system.mode),
            "right": side(system.right, "a", "b"), "left": side(system.left, "c", "d")}


class TestDocumentContent:
    @settings(max_examples=200, deadline=None)
    @given(systems())
    @example(build_seventeen_ninths(1, cycles=8))
    @example(build_improved(InterlacingParams(cycles=8)))
    @example(BarrierSystem(FLOAT, -0.0, (), ()))
    def test_to_document_holds_each_number_as_render_number_writes_it(self, system):
        # to_document parses dumps' text: this checks what that text holds, not only how it is laid out
        assert repr(to_document(system)) == repr(reference_document(system))


BIG = 10**5000


class TestRefusalsPastTheDigitLimit:
    """A refused int or Fraction longer than ``str`` writes is shown as ``approx`` shows it, by name."""

    @pytest.mark.parametrize("call, error, name, shown", [
        (lambda s: consumption_curve(s, -BIG), ValueError, "horizon", "-1e+5000"),
        (lambda s: check_speed(s, Fraction(-BIG, 3)), ValueError, "speed", "-3.33333e+4999"),
        (lambda s: face_arrival_profiles(s, "right", -BIG), ValueError, "horizon", "-1e+5000"),
        (lambda s: scale(s, -BIG), ValidationError, "scale factor", "-1e+5000"),
        (lambda s: build_seventeen_ninths(-BIG), ValidationError, "head start", "-1e+5000"),
        (lambda s: build_seventeen_ninths(1, cycles=-BIG), ValueError, "cycles", "-1e+5000"),
        (lambda s: build_improved(InterlacingParams(cycles=-BIG)), ValidationError, "cycles", "-1e+5000"),
        (lambda s: predict_intervals(s, "right", BIG), ValueError, "cycle index", "1e+5000"),
        (lambda s: BarrierSystem(RATIONAL, -BIG, (), ()), ValidationError, "head_start", "-1e+5000"),
        (lambda s: BarrierSystem(RATIONAL, 1, ((-BIG, 1),), ()), ValidationError, "right[1] gap", "-1e+5000"),
        (lambda s: geodesic_distance(s, (1, -BIG)), ValueError, "y=", "-1e+5000"),
    ], ids=["consumption_curve", "check_speed", "face_arrival_profiles", "scale", "seventeen_ninths-head_start",
            "seventeen_ninths-cycles", "improved-cycles", "predict_intervals", "head_start", "gap",
            "geodesic_distance"])
    def test_a_refusal_names_its_argument_and_shows_it_short(self, digit_limit, call, error, name, shown):
        # str of such a number raised Python's own ValueError in place of the refusal
        with pytest.raises(ValueError) as info:
            call(build_seventeen_ninths(1, cycles=3))
        assert type(info.value) is error
        assert name in str(info.value) and str(info.value).endswith(shown)


class TestRefusalsNameTheirArgument:
    """A number the library cannot read is refused with the argument's name in front of the reader's text."""

    @pytest.mark.parametrize("call, text", [
        (lambda s: check_speed(s, "x"), "speed: cannot parse rational 'x'"),
        (lambda s: consumption_curve(s, "1/0"), "horizon: cannot parse rational '1/0'"),
        (lambda s: face_arrival_profiles(s, "right", 1.5),
         "horizon: float 1.5 not accepted in rational mode (lossy); pass an int, Fraction or 'p/q' string"),
        (lambda s: scale(s, None), "scale factor: cannot coerce None to a rational length"),
        (lambda s: build_seventeen_ninths("abc"), "head start: cannot parse rational 'abc'"),
        (lambda s: build_improved(InterlacingParams(cycles=3, head_start="abc")),
         "head start: cannot coerce 'abc' to float"),
    ], ids=["check_speed", "consumption_curve", "face_arrival_profiles", "scale", "seventeen_ninths", "improved"])
    def test_an_unreadable_number_is_named(self, call, text):
        # the reader's refusal came through without the name: "cannot parse rational 'x'"
        with pytest.raises(ValidationError) as info:
            call(build_seventeen_ninths(1, cycles=3))
        assert str(info.value) == text


class TestCoerce:
    def test_decimal_string_is_exact_in_rational_mode(self):
        assert coerce_length("7.5", RATIONAL) == Fraction(15, 2)

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    @pytest.mark.parametrize("value", [True, False])
    def test_a_bool_is_not_a_length_in_either_mode(self, mode, value):
        with pytest.raises(ValidationError) as info:
            coerce_length(value, mode)
        assert str(info.value) == f"not a length: {value!r}"

    def test_float_systems_refuse_a_bool_head_start_speed_and_horizon(self):
        # float(True) is 1.0: without the refusal each of these would run as if given 1.0
        with pytest.raises(ValidationError, match=r"^head_start: not a length: True$"):
            BarrierSystem(FLOAT, True, ((1.0, 17.0),), ())
        system = BarrierSystem(FLOAT, 1.0, ((1.0, 17.0),), ())
        with pytest.raises(ValidationError, match=r"^speed: not a length: True$"):
            check_speed(system, True)
        with pytest.raises(ValidationError, match=r"^horizon: not a length: True$"):
            consumption_curve(system, True, truncated=True)

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


def reference_rational(text):
    """The rational reader of strings before digit strings were read with ``int``: ``Fraction(text)``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse rational {text!r}") from exc


def outcome(f, *args):
    """The result with its type, or the type and text of the error raised."""
    try:
        result = f(*args)
    except ValidationError as exc:
        return f"{type(exc).__name__}: {exc}"
    return type(result), result


def small_exponent(text):
    """At most three digits after the first "e": ``Fraction("1e999999999")`` builds 10**999999999."""
    _, e, exponent = text.partition("e")
    return not e or sum(c.isdecimal() for c in exponent) <= 3


class TestRationalReader:
    # digits, signs, separators and exponents that Fraction(str) reads, and non-ASCII digits
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789/+-_ .e\u0663\u00b2", max_size=12).filter(small_exponent))
    def test_matches_fraction_of_the_string(self, text):
        assert outcome(coerce_length, text, RATIONAL) == outcome(reference_rational, text)

    @pytest.mark.parametrize("text", ["17", "17/9", "0034/0012", "1/0", "7.5", "1.5e3", " 3/4", "+3", "1_000/3", "\u0663/4", "2\u00b2", "3/", "/3", ""])
    def test_pinned_strings(self, text):
        assert outcome(coerce_length, text, RATIONAL) == outcome(reference_rational, text)

    def test_python_without_a_digit_limit_reads_exponents(self, monkeypatch):
        # sys.get_int_max_str_digits first shipped in Python 3.10.7
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert int_digit_limit() == 0
        assert coerce_length("1e5", RATIONAL) == 10**5
        assert coerce_length("25e-1", RATIONAL) == Fraction(5, 2)

    @pytest.mark.parametrize("text", ["1e5000", "1e-5000"])
    def test_huge_exponent_is_refused_naming_the_limit(self, text):
        with pytest.raises(ValidationError) as info:
            coerce_length(text, RATIONAL)
        assert str(info.value) == (f"cannot parse rational {text!r}: its power of ten has more digits than "
                                   f"the limit of {sys.get_int_max_str_digits()} (sys.get_int_max_str_digits())")


class TestRenderNumber:
    @given(st.one_of(st.integers(), st.fractions()))
    def test_rational_text_is_n_or_n_over_d(self, x):
        frac = Fraction(x)
        want = str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
        assert render_number(x, RATIONAL) == want
