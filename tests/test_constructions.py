"""Generators: flat baseline, the 17/9 system, and the shifted interlacing."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firebreak import (
    FLOAT,
    LEFT,
    RIGHT,
    InterlacingParams,
    ValidationError,
    build_flat,
    build_improved,
    build_seventeen_ninths,
    check_speed,
    consumption_curve,
    interlaced_maxima,
    ratio_maxima,
    ratio_report,
    scale,
    side_intervals,
    top_arrival_times,
    valid_horizon,
    validate,
)
from firebreak.model import coerce_length, dumps


class TestBuilderInputs:
    """Cycle counts are read through ``operator.index`` and beta and delta as real numbers, none of them a bool."""

    @pytest.mark.parametrize("cycles", [2.5, "3", True, None])
    def test_seventeen_ninths_refuses_a_cycle_count_that_is_not_an_integer(self, cycles):
        with pytest.raises(ValueError) as info:  # a bare TypeError, or with True one cycle built
            build_seventeen_ninths(1, cycles=cycles)
        assert str(info.value) == f"cycles must be an integer, got {cycles!r}"

    @pytest.mark.parametrize("fields, message", [
        ({"cycles": 2.5}, "cycles must be an integer, got 2.5"),
        ({"cycles": "3"}, "cycles must be an integer, got '3'"),
        ({"cycles": True}, "cycles must be an integer, got True"),
        ({"beta": "4"}, "beta must be a real number other than a bool, got '4'"),
        ({"beta": True}, "beta must be a real number other than a bool, got True"),
        ({"delta": True}, "delta must be a real number other than a bool, got True"),  # was read as 1.0
        ({"beta": 4.0, "delta": "1"}, "delta must be a real number other than a bool, got '1'"),
    ])
    def test_improved_refuses_parameters_by_name(self, fields, message):
        with pytest.raises(ValidationError) as info:
            build_improved(InterlacingParams(**fields))
        assert str(info.value) == message

    def test_a_numpy_int_cycle_count_reads_as_the_int(self):
        assert build_seventeen_ninths(1, cycles=np.int64(3)) == build_seventeen_ninths(1, cycles=3)
        params = InterlacingParams(4.0, 1.25, np.int64(3)).resolved()
        assert type(params.cycles) is int and build_improved(params) == build_improved(InterlacingParams(4.0, 1.25, 3))


class TestFlat:
    def test_no_verticals(self):
        flat = build_flat(1)
        assert flat.right == () and flat.left == ()

    def test_ratio_tends_to_two(self):
        flat = build_flat(1)
        for horizon in (10, 100, 1000):
            curves = consumption_curve(flat, horizon)
            report = ratio_maxima(curves.total, horizon)
            assert report.supremum == Fraction(2 * (horizon - 1), horizon)
        assert report.supremum > Fraction(199, 100)

    def test_sup_at_horizon_100(self):
        curves = consumption_curve(build_flat(1), 100)
        assert ratio_maxima(curves.total, 100).supremum == Fraction(198, 100)

    def test_scale_invariance_of_ratio(self):
        small = build_flat(1)
        big = build_flat(2)
        q_small = ratio_maxima(consumption_curve(small, 50).total, 50).supremum
        q_big = ratio_maxima(consumption_curve(big, 100).total, 100).supremum
        assert q_small == q_big

    def test_rejects_zero_head_start(self):
        with pytest.raises(ValidationError):
            build_flat(0)


def reference_seventeen_ninths(s, cycles):
    """The 17/9 recurrence on Fractions: right and left (gap, height) pairs for head start ``s``."""
    a, b, c, d = [s], [17 * s], [s], [34 * s]
    for i in range(1, cycles):
        b.append(4 * d[i - 1])
        d.append(4 * b[i])
        a.append(34 * s if i == 1 else Fraction(15, 2) * b[i - 1])
        c.append(238 * s if i == 1 else Fraction(15, 2) * d[i - 1])
    return tuple(zip(a, b)), tuple(zip(c, d))


# sha256 of dumps(build_seventeen_ninths(h, cycles=c)), c in (1, 2, 3, 8, 64): each document, byte for byte
SEVENTEEN_NINTHS_DIGESTS = {
    1: ["65eaaac6e4dc7ebdf55be142f788e3dd360d22ffbfcd36fb644954879feca25e",
        "a5ded986d35880c03d5bba41271b32ee1364b95d6dbd6203b78b5314ae787194",
        "bf2c9f77cf34885d515f861a87dd6bd18e58f72c3b36dd30c8996d31a9f11405",
        "6efbecdaccc5803d859d29610004d07ae7972d3d3d53010e397ba9428da2f603",
        "e8277364c03459b6785f77e119bf09df89bf6548a4a2322a7c53b650456cf4a7"],
    Fraction(7, 3): ["cc03922ee6e7c2b6d401c4bb8f9f6c1ddccd48e79a86c472868f0fa5b88a1d08",
                     "0998fdaeaf262fe33113c551b08bcad1e530b2cd5a1c3e1b2bd48a99d01bf43a",
                     "c98c926191d86fd63a11086aac8d0989aaf881d8565acaec7930862174e32786",
                     "026294cb1f779321f478efa32a6a5d291c1ec8478c9acc1bfa6b1d7a0acad27e",
                     "a74d649f0b60bfb09ce2a7bf73a576b6dbf327a0b233777ef94f8cc409555194"],
    Fraction(1, 6): ["6831ed8223b95dea6a11c5106c0fb2ad8740c7b1548873f6029c19f247590062",
                     "9a5b4c4711c4efaccc4944d4e347aaaeec4f6e14bf5ddc95c1ddebd8bfde7988",
                     "a21c0359abae7ed865843b44da14507efde8d84391503dc2affedf88cfdc80c0",
                     "9d61dc3fc0f8eecda9b5441341e9526bbcfb14673b8d8929b9458b2aaecd8ff7",
                     "b871243ebbe208621e51ef638756349a2651eedde72526da88a1d9cd04c92f0d"],
    Fraction(5, 2): ["0cbb4b1010645744af2ab73959a550cd302344792138d92d202146cc7e63b99f",
                     "e5f935fc9e6b82b53ba206f269066cd92535e25a021c4f9505523a8cb13945f4",
                     "5613a8db4decb1d6c209f023d2abb1349aa897608b1b472aaf4ca26364f358aa",
                     "7eb6ce3daa0092144864244eab68bb598aa9c658bc6dfb39fc3496c35bd3a046",
                     "98e3fa3b54f97ac5a7343c2c579583058ba90df4ff7d6a8efa07504ca5f18924"],
    10**40: ["28f3e4573543f39f3cb7f2482e8b2980ee5ef322060bdef6ee79b4782bb6222b",
             "8f1f22cff9e40927ece10b7c3dc939ff7f9399ec5b85d8c38eade9cf903b4094",
             "32c3c014ea0143e85eda8ba4a0a143bb225de363c77a9229322f372815cd7686",
             "1a5a3916305fe82d7176fbd50d75f35a1b8324c5cf4eaef5f4e8aedc58bcb7b3",
             "be67618a4e77bc61897b9ca1aaa22dc13e99994c82c456e6b616864c04e3464d"],
}


class TestSeventeenNinths:
    @pytest.mark.parametrize("head_start, cycles, digest", [
        (h, c, digest) for h, digests in SEVENTEEN_NINTHS_DIGESTS.items()
        for c, digest in zip((1, 2, 3, 8, 64), digests)
    ])
    def test_document_digests(self, head_start, cycles, digest):
        text = dumps(build_seventeen_ninths(head_start, cycles=cycles))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**6).filter(bool), st.integers(1, 40))
    def test_matches_the_fraction_recurrence(self, head_start, cycles):
        system = build_seventeen_ninths(head_start, cycles)
        assert (system.right, system.left) == reference_seventeen_ninths(head_start, cycles)
        assert system.head_start == head_start
        assert all(type(x) is Fraction for pair in system.right + system.left for x in pair)

    def test_starting_values(self, sys17):
        a, b = zip(*sys17.pairs(RIGHT))
        c, d = zip(*sys17.pairs(LEFT))
        assert a[:3] == (1, 34, 1020)
        assert b[:2] == (17, 136)
        assert c[:2] == (1, 238)
        assert d[:2] == (34, 544)
        # cross recurrences: height growth alternates between the sides
        for i in range(1, len(b)):
            assert b[i] == 4 * d[i - 1]
            assert d[i] == 4 * b[i]
        for i in range(2, len(a)):
            assert a[i] == Fraction(15, 2) * b[i - 1]
            assert c[i] == Fraction(15, 2) * d[i - 1]

    def test_growth_conditions_hold(self, sys17):
        report = validate(sys17)
        assert report.right.conditions7 and report.left.conditions7

    def test_sup_ratio_exact(self, sys17, sys17_curves):
        report = ratio_maxima(sys17_curves.total, valid_horizon(sys17))
        assert report.supremum == Fraction(17, 9)

    def test_all_lengths_scale_with_head_start(self):
        unit = build_seventeen_ninths(1, cycles=4)
        threes = build_seventeen_ninths(3, cycles=4)
        assert threes == scale(unit, 3)

    def test_zero_intervals_of_the_sides_never_overlap(self, sys17, sys17_curves):
        rights = [
            (iv.t_start, iv.t_end)
            for iv in side_intervals(sys17_curves, RIGHT)
            if iv.k == 0 and iv.t_start > 0
        ]
        lefts = [
            (iv.t_start, iv.t_end)
            for iv in side_intervals(sys17_curves, LEFT)
            if iv.k == 0 and iv.t_start > 0
        ]
        for r0, r1 in rights:
            for l0, l1 in lefts:
                assert r1 <= l0 or l1 <= r0  # interiors disjoint

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_seventeen_ninths(1, cycles=0)
        with pytest.raises(ValidationError):
            build_seventeen_ninths(0)


class TestImproved:
    def test_head_start_matches_formula(self, optimum, improved):
        beta, delta = optimum.beta, optimum.delta
        v = (delta + 3) / (delta + 1)
        expected = ((4 * beta + 2 * delta + 1) - v * (2 * beta + delta + 1)) / v
        assert improved.head_start == pytest.approx(expected, rel=1e-12)
        assert improved.head_start == pytest.approx(0.149, abs=5e-4)

    def test_first_heights(self, improved, optimum):
        b = improved.heights(RIGHT)
        d = improved.heights(LEFT)
        assert b[0] == 1.0
        assert d[0] == 2.0
        for i in range(1, len(b)):
            assert b[i] == pytest.approx(optimum.beta * d[i - 1], rel=1e-12)
            assert d[i] == pytest.approx(optimum.beta * b[i], rel=1e-12)

    def test_growth_conditions_hold(self, improved):
        report = validate(improved)
        assert report.right.conditions7 and report.left.conditions7

    def test_sup_ratio_within_claimed_bound(self, improved):
        curves, report = ratio_report(improved)
        assert 1.8770 <= report.supremum <= 1.8772

    def test_feasible_at_published_speed(self, improved):
        assert check_speed(improved, 1.8772).feasible

    def test_steady_maxima_match_closed_forms(self, optimum):
        # equalized pairs near the optimum: every steady maximum equals both
        # closed-form maxima to high accuracy
        from firebreak import delta_of_beta

        for beta in (4.0, optimum.beta, 4.1):
            delta = delta_of_beta(beta)
            system = build_improved(InterlacingParams(beta=beta, delta=delta, cycles=6))
            q13, q15 = interlaced_maxima(beta, delta)
            assert q13 == pytest.approx(q15, abs=1e-12)
            curves, report = ratio_report(system)
            steady_start = top_arrival_times(system, RIGHT)[1]
            steady = [q for t, q in report.local_maxima if t >= steady_start]
            assert len(steady) >= 8
            for q in steady:
                assert q == pytest.approx(q13, abs=1e-6)

    def test_explicit_head_start_rescales(self, optimum):
        params = InterlacingParams(
            beta=optimum.beta, delta=optimum.delta, cycles=4, head_start=1
        )
        system = build_improved(params)
        assert system.head_start == pytest.approx(1.0, rel=1e-12)
        auto = build_improved(
            InterlacingParams(beta=optimum.beta, delta=optimum.delta, cycles=4)
        )
        ratio = 1.0 / auto.head_start
        assert system.right[0][1] == pytest.approx(ratio, rel=1e-12)

    def test_degenerate_shift_reduces_to_unshifted_height_growth(self, sys17):
        # with no shift and growth factor 4 the height recurrences coincide
        # with the 17/9 table: b_{i+1} = 4 d_i and d_{i+1} = 4 b_{i+1}
        beta, delta = 4.0, 0.0
        b = [1.0]
        d = [2 * b[0]]
        for i in range(1, 5):
            b.append(beta * d[i - 1])
            d.append(beta * b[i])
        scale_factor = float(sys17.heights(RIGHT)[0])  # 17 * head start
        for i in range(5):
            assert float(sys17.heights(RIGHT)[i]) == pytest.approx(b[i] * scale_factor)
            assert float(sys17.heights(LEFT)[i]) == pytest.approx(d[i] * scale_factor)
        # the auto head-start formula turns negative there, so building is refused
        with pytest.raises(ValidationError):
            build_improved(InterlacingParams(beta=beta, delta=delta, cycles=4))

    def test_resolves_default_parameters(self):
        system = build_improved(InterlacingParams(cycles=3))
        assert len(system.right) == 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            build_improved(InterlacingParams(beta=1.5, delta=1.0, cycles=3))
        with pytest.raises(ValidationError):
            build_improved(InterlacingParams(beta=4.0, delta=-0.1, cycles=3))
        with pytest.raises(ValidationError):
            InterlacingParams(beta=4.0, delta=1.0, cycles=0).resolved()

    @pytest.mark.parametrize("beta, delta, s", [(3.0, 0.0, "-2.6666666666666665"), (4.0, 0.1, "-2.996774193548386")])
    def test_rejects_a_non_positive_head_start(self, beta, delta, s):
        with pytest.raises(ValidationError) as info:
            build_improved(InterlacingParams(beta=beta, delta=delta, cycles=3))
        assert str(info.value) == f"parameters beta={beta}, delta={delta} give non-positive head start {s}"

    def test_float_overflow_names_first_bad_cycle(self, optimum):
        assert len(build_improved(InterlacingParams(optimum.beta, optimum.delta, cycles=253)).right) == 253
        params = InterlacingParams(optimum.beta, optimum.delta, cycles=260)
        with pytest.raises(ValidationError, match=r"overflow .* at cycle 254 .*at most 253 cycles build"):
            build_improved(params)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(2, 10, exclude_min=True), st.floats(1, 200), st.integers(1, 40),
           st.one_of(st.floats(1e-300, 1e200), st.integers(1, 10**9),
                     st.builds("{}/{}".format, st.integers(1, 10**30), st.integers(1, 10**30))))
    def test_an_explicit_head_start_scales_the_auto_system(self, beta, delta, cycles, head_start):
        # the system is built once, each length times the factor, as model.scale multiplies the auto system
        try:
            system = build_improved(InterlacingParams(beta, delta, cycles, head_start))
        except ValidationError as exc:
            text = str(exc)
            assert "give non-positive head start" in text or text.startswith("lengths overflow the float range")
            return
        auto = build_improved(InterlacingParams(beta, delta, cycles))
        assert repr(system) == repr(scale(auto, coerce_length(head_start, FLOAT) / auto.head_start))

    @pytest.mark.parametrize("params, message", [
        (InterlacingParams(3.0, 100.0, 2, 5e-324),
         "head start 5e-324 is out of range: head start / s = 5e-324 / 101.86407766990291 rounds to 0"),
        (InterlacingParams(cycles=1, head_start=1.7e308),
         "head start 1.7e+308 is out of range: head start / s = 1.7e+308 / 0.14927216903541357 overflows"),
        (InterlacingParams(cycles=3, head_start=1.7e308),  # not "lengths overflow ... at most 1 cycles build"
         "head start 1.7e+308 is out of range: head start / s = 1.7e+308 / 0.14927216903541357 overflows"),
    ])
    def test_a_head_start_that_scales_s_past_the_float_range_is_refused(self, params, message):
        # the factor head start / s rounds to 0 or overflows: the head start is named, before any length is built
        with pytest.raises(ValidationError) as info:
            build_improved(params)
        assert str(info.value) == message

    @pytest.mark.parametrize("cycles", [1, 2, 3])
    def test_a_head_start_whose_first_cycle_overflows_names_cycle_1(self, cycles):
        # s x factor fits but d_1 x factor = 2 x 1.0e308 does not: one cycle failed in BarrierSystem's words,
        # "left[1]: non-finite length inf", and two or three as "... at cycle 2 ...; at most 1 cycles build"
        with pytest.raises(ValidationError) as info:
            build_improved(InterlacingParams(cycles=cycles, head_start=1.5e307))
        assert str(info.value) == (
            "lengths overflow the float range at cycle 1 (beta=4.068864559673734, delta=1.2802011518303127, "
            "head start 1.5e+307); no cycle builds at this head start")

    @settings(max_examples=150, deadline=None)
    @given(st.floats(2, 1e6, exclude_min=True), st.floats(0, 1e6), st.integers(1, 12))
    def test_every_gap_is_positive(self, beta, delta, cycles):
        # a_{i+1} > 3 d_{i-1} and c_{i+1} > 3 b_i for i >= 2, so no gap needs a refusal of its own
        try:
            system = build_improved(InterlacingParams(beta, delta, cycles))
        except ValidationError as exc:
            text = str(exc)
            assert "give non-positive head start" in text or text.startswith("lengths overflow the float range")
            return
        assert all(gap > 0 for gap, _ in system.right + system.left)
