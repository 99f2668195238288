"""Closed-form ratios and their minimization, cross-checked by simulation."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from firebreak import (
    LEFT,
    RATIONAL,
    RIGHT,
    BarrierSystem,
    InterlacingParams,
    build_improved,
    consumption_curve,
    cycle_ratio,
    delta_of_beta,
    interlaced_maxima,
    optimize_beta,
    optimize_beta_delta,
    ratio_maxima,
    ratio_report,
    top_arrival_times,
    valid_horizon,
    validate,
)
from firebreak.optimize import (
    Optimum,
    equalized_ratio,
    golden_section_min,
    optimal_beta_closed_form,
    optimal_speed_closed_form,
)


def build_unshifted_scheme(beta: Fraction, head_start=Fraction(1), cycles: int = 8):
    """Exact unshifted interlacing for an arbitrary growth factor.

    Gaps are pinned by the alignment rules (each side's idle stretch ends
    exactly when the other side's burst does); the first height makes the
    first ratio maximum equal the cycle ratio.  At beta = 4 this reproduces
    the 17/9 construction's table.
    """
    v = cycle_ratio(beta)
    b1 = head_start * v / (2 - v)
    a = [head_start]
    b = [b1]
    c = [head_start]
    d = [2 * b1]
    pos_right, pos_left = head_start, head_start
    for i in range(1, cycles):
        b.append(beta * d[i - 1])
        d.append(beta * b[i])
        gap_right = pos_left + 2 * d[i - 1] - 2 * b[i - 1] - pos_right
        a.append(gap_right)
        pos_right += gap_right
        gap_left = pos_right + 2 * b[i] - 2 * d[i - 1] - pos_left
        c.append(gap_left)
        pos_left += gap_left
    return BarrierSystem(
        mode=RATIONAL,
        head_start=head_start,
        right=tuple(zip(a, b)),
        left=tuple(zip(c, d)),
    )


def build_shifted_scheme(beta: Fraction, delta: Fraction, cycles: int = 8):
    """``build_improved``'s recurrence on Fractions, as a rational system; None when its head start is not > 0."""
    v = (delta + 3) / (delta + 1)
    s = ((4 * beta + 2 * delta + 1) - v * (2 * beta + delta + 1)) / v
    if s <= 0:
        return None
    a, b, c, d = [s], [Fraction(1)], [s], [Fraction(2)]
    for i in range(1, cycles):
        b.append(beta * d[i - 1])
        d.append(beta * b[i])
        a.append((delta + 1) if i == 1 else (delta - 1) * d[i - 2] + (beta + delta) * b[i - 1])
        c.append((2 * beta + 3 * delta - 1) if i == 1 else (delta - 1) * b[i - 1] + (beta + delta) * d[i - 1])
    return BarrierSystem(mode=RATIONAL, head_start=s, right=tuple(zip(a, b)), left=tuple(zip(c, d)))


class TestCycleRatio:
    def test_value_at_four_is_17_9(self):
        assert cycle_ratio(Fraction(4)) == Fraction(17, 9)

    def test_value_at_three(self):
        assert cycle_ratio(Fraction(3)) == Fraction(19, 10)

    def test_limit_toward_two(self):
        assert abs(cycle_ratio(1e6) - 2) < 1e-5

    def test_rejects_at_most_two(self):
        with pytest.raises(ValueError):
            cycle_ratio(2)


class TestDeltaOfBeta:
    def test_near_optimal_beta(self):
        assert delta_of_beta(4.06887) == pytest.approx(1.2802, abs=2e-4)

    def test_beta_two(self):
        assert delta_of_beta(2.0) == pytest.approx(1.0, abs=1e-12)

    def test_equalizes_the_two_maxima(self):
        for beta in (3.0, 3.7, 4.06887, 5.2, 6.0):
            delta = delta_of_beta(beta)
            q13, q15 = interlaced_maxima(beta, delta)
            assert abs(q13 - q15) <= 1e-12

    def test_rejects_negative_discriminant(self):
        # the quartic under the root is negative around beta ~ 1.2
        with pytest.raises(ValueError):
            delta_of_beta(1.2)


class TestInterlacedMaxima:
    def test_at_published_shift(self):
        q13, _ = interlaced_maxima(4.06887, 1.2802)
        assert q13 == pytest.approx(1.8771, abs=5e-5)

    def test_small_shift_limits(self):
        q13, q15 = interlaced_maxima(4.0, 1e-12)
        assert q13 == pytest.approx(3.0, abs=1e-9)
        assert q15 == pytest.approx(2 - Fraction(2, 15), abs=1e-9)

    def test_beta_two_second_maximum_is_two(self):
        for delta in (0.5, 1.0, 2.0):
            assert interlaced_maxima(2.0, delta)[1] == 2.0

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            interlaced_maxima(0.0, 1.0)


class TestClosedFormsAgainstTheSimulator:
    """``interlaced_maxima``'s two ratios, read exactly off the shifted scheme's rational simulation."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(201, 1000).map(lambda n: Fraction(n, 100)), st.integers(0, 300).map(lambda n: Fraction(n, 100)))
    @example(Fraction(444, 100), Fraction(278, 100))  # the maxima approaching f2 fall 1.5e-7 short of it
    @example(Fraction(3), Fraction(12926, 10000))  # the first maximum, 1.9395, exceeds both closed forms
    def test_every_later_maximum_is_bounded_and_the_first_form_attained(self, beta, delta):
        system = build_shifted_scheme(beta, delta)
        assume(system is not None)
        f1, f2 = interlaced_maxima(beta, delta)
        assert f1 == (delta + 3) / (delta + 1)
        maxima = [q for _, q in ratio_report(system)[1].local_maxima]
        assert f1 in maxima[:3]
        assert all(q <= max(f1, f2) for q in maxima[1:])
        assert f2 == f1 or f2 not in maxima  # f2 is a limit, never reached

    def test_the_recurrence_is_build_improveds(self):
        exact = build_shifted_scheme(Fraction(444, 100), Fraction(278, 100))
        built = build_improved(InterlacingParams(4.44, 2.78, 8))
        lengths = [[system.head_start, *(x for pair in system.right + system.left for x in pair)]
                   for system in (exact, built)]
        assert lengths[1] == pytest.approx(list(map(float, lengths[0])), rel=1e-12)


def one_valley(f, lo, hi, samples=1000):
    """The grid argmin of f, after checking f falls strictly to it and rises strictly after it."""
    ys = [f(lo + (hi - lo) * i / (samples - 1)) for i in range(samples)]
    m = min(range(samples), key=ys.__getitem__)
    assert all(a > b for a, b in zip(ys[:m], ys[1 : m + 1]))
    assert all(a < b for a, b in zip(ys[m:], ys[m + 1 :]))
    return lo + (hi - lo) * m / (samples - 1)


class TestOptimizeBeta:
    def test_reproduces_four_and_17_9(self):
        v = 1.8888888888888888
        assert v == 17 / 9
        assert optimize_beta() == Optimum(beta=4.0, v=v, delta=None, achieved_maxima=(v,), iterations=0)

    def test_optimum_is_a_minimum(self):
        assert cycle_ratio(3.9) > Fraction(17, 9)
        assert cycle_ratio(4.1) > Fraction(17, 9)

    def test_search_lands_on_the_closed_form(self):
        beta, v, _ = golden_section_min(cycle_ratio, 2.5, 10)
        assert abs(beta - 4) <= 1e-6
        assert v == pytest.approx(17 / 9, abs=1e-12)

    def test_both_ratios_have_one_valley_on_the_bracket(self):
        # the fact the closed form and the fixed-bracket search both rest on
        assert abs(one_valley(cycle_ratio, 2.5, 10.0) - 4) < 0.01
        assert abs(one_valley(equalized_ratio, 2.5, 10.0) - optimal_beta_closed_form()) < 0.01

    def test_golden_section_on_parabola(self):
        x, y, _ = golden_section_min(lambda x: (x - 1.25) ** 2, 0, 10)
        assert x == pytest.approx(1.25, abs=1e-8)


class TestOptimizeBetaDelta:
    def test_bit_for_bit(self):
        # build_improved's defaults, and so the bench's stored oracle deviations, read these floats
        assert optimize_beta_delta() == Optimum(
            beta=4.068864559673734,
            v=1.8771155993823634,
            delta=1.2802011518303127,
            achieved_maxima=(1.8771155993823634, 1.877115599382364),
            iterations=48,
        )

    def test_reproduces_published_values(self, optimum):
        assert optimum.beta == pytest.approx(4.06887, abs=1e-3)
        assert optimum.delta == pytest.approx(1.2802, abs=1e-3)
        assert optimum.v == pytest.approx(1.8771, abs=1e-4)

    def test_matches_radical_closed_forms(self, optimum):
        assert optimum.beta == pytest.approx(optimal_beta_closed_form(), abs=1e-6)
        assert optimum.v == pytest.approx(optimal_speed_closed_form(), abs=1e-6)
        assert optimal_beta_closed_form() == pytest.approx(4.06887, abs=1e-5)

    def test_maxima_equal_at_optimum(self, optimum):
        q13, q15 = optimum.achieved_maxima
        assert abs(q13 - q15) <= 1e-9

    def test_shift_never_hurts(self):
        for i in range(31):
            beta = 3 + 3 * i / 30
            assert delta_of_beta(beta) >= 0
            equalized = interlaced_maxima(beta, delta_of_beta(beta))[0]
            assert equalized <= cycle_ratio(beta) + 1e-12


class TestSimulatedCycleAgreement:
    @pytest.mark.parametrize("beta", [3, 4, 5])
    def test_steady_cycle_ratio_matches_closed_form(self, beta):
        beta = Fraction(beta)
        system = build_unshifted_scheme(beta, cycles=7)
        assert all(side.doubling and side.conditions7 for side in validate(system))
        horizon = max(
            top_arrival_times(system, RIGHT)[-1], top_arrival_times(system, LEFT)[-1]
        )
        curves = consumption_curve(system, horizon, truncated=True)
        tops = sorted(
            set(top_arrival_times(system, RIGHT)) | set(top_arrival_times(system, LEFT))
        )
        expected = cycle_ratio(beta)
        # cycles between consecutive tops, measured deep in the system
        for t1, t2 in zip(tops[4:9], tops[5:10]):
            ratio = (curves.total.value_at(t2) - curves.total.value_at(t1)) / (t2 - t1)
            assert ratio == expected

    def test_scheme_at_four_reproduces_seventeen_ninths(self, sys17):
        scheme = build_unshifted_scheme(Fraction(4), cycles=8)
        assert scheme == sys17

    def test_all_maxima_equal_cycle_ratio_at_four(self):
        # the published start-up values balance the first cycle exactly for
        # growth factor 4; elsewhere the start-up excess only decays
        beta = Fraction(4)
        system = build_unshifted_scheme(beta, cycles=6)
        curves = consumption_curve(system)
        report = ratio_maxima(curves.total, valid_horizon(system))
        assert report.local_maxima
        assert all(q == cycle_ratio(beta) for _, q in report.local_maxima)

    def test_start_up_excess_decays(self):
        beta = Fraction(5)
        system = build_unshifted_scheme(beta, cycles=8)
        curves = consumption_curve(system)
        report = ratio_maxima(curves.total, valid_horizon(system))
        drift = [abs(q - cycle_ratio(beta)) for _, q in report.local_maxima[1:]]
        assert all(b < a for a, b in zip(drift, drift[1:]))
        assert drift[-1] < Fraction(1, 10**5)
