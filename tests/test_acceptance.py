"""Acceptance suite: one test per acceptance criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time
from fractions import Fraction
from itertools import accumulate

import pytest

from firebreak import (
    LEFT,
    RIGHT,
    InterlacingParams,
    build_flat,
    build_improved,
    build_seventeen_ninths,
    check_speed,
    compare,
    consumption_curve,
    consumption_tolerance,
    grid_consumption,
    normalize_doubling,
    optimize_beta,
    optimize_beta_delta,
    predict_intervals,
    ratio_maxima,
    ratio_report,
    side_intervals,
    top_arrival_times,
    valid_horizon,
)
from firebreak.optimize import optimal_beta_closed_form, optimal_speed_closed_form

from conftest import random_rational_system


def verdict(criterion: int, label: str, detail: str) -> None:
    print(f"[acceptance] criterion {criterion} ({label}): PASS - {detail}")


def test_criterion_1_seventeen_ninths_exactness():
    system = build_seventeen_ninths(1, cycles=8)
    started = time.perf_counter()
    curves, report = ratio_report(system)
    speed_check = check_speed(system, Fraction(17, 9), report.valid_horizon, truncated=True)
    elapsed = time.perf_counter() - started
    target = Fraction(17, 9)
    assert len(report.local_maxima) >= 10
    assert all(q == target for _, q in report.local_maxima)  # exact, zero tolerance
    assert report.supremum == target
    assert speed_check.feasible is True and speed_check.horizon == report.valid_horizon
    assert elapsed < 1.0
    verdict(
        1,
        "17/9 exactness",
        f"{len(report.local_maxima)} maxima all equal 17/9 exactly; "
        f"feasible at 17/9; {elapsed:.3f}s",
    )


def test_criterion_2_improved_construction():
    opt = optimize_beta_delta()
    system = build_improved(InterlacingParams(beta=opt.beta, delta=opt.delta, cycles=8))
    curves, report = ratio_report(system)
    assert 1.8770 <= report.supremum <= 1.87720
    chk = check_speed(system, 1.8772)
    assert chk.feasible
    verdict(
        2,
        "improved construction",
        f"sup Q = {report.supremum:.7f} in [1.8770, 1.87720]; feasible at 1.8772",
    )


def test_criterion_3_optimizer_reproduction():
    one = optimize_beta()
    assert (one.beta, one.v) == (4.0, 17 / 9)
    two = optimize_beta_delta()
    assert two.beta == pytest.approx(4.06887, abs=1e-3)
    assert two.delta == pytest.approx(1.2802, abs=1e-3)
    assert two.v == pytest.approx(1.8771, abs=1e-4)
    assert two.beta == pytest.approx(optimal_beta_closed_form(), abs=1e-6)
    assert two.v == pytest.approx(optimal_speed_closed_form(), abs=1e-6)
    verdict(
        3,
        "optimizer reproduction",
        f"beta={one.beta:.8f}, v={one.v:.10f}; "
        f"beta={two.beta:.5f}, delta={two.delta:.5f}, v={two.v:.5f} "
        "(radical closed forms agree to 1e-6)",
    )


def test_criterion_4_interval_structure():
    system = build_seventeen_ninths(1, cycles=8)
    curves = consumption_curve(system)  # reaches the eighth top on the right
    checked = 0
    for side in (RIGHT, LEFT):
        tops = top_arrival_times(system, side)
        heights = system.heights(side)
        for i in range(1, 7):  # cycles 1..6
            if tops[i] > curves.total.end:
                continue
            predicted = predict_intervals(system, side, i)
            window = [
                iv
                for iv in side_intervals(curves, side)
                if iv.t_start >= tops[i - 1] and iv.t_end <= tops[i]
            ]
            assert [(iv.t_end - iv.t_start, iv.k) for iv in window] == predicted
            # the idle and burst phases both last exactly the barrier height
            assert window[0].k == 0 and window[0].t_end - window[0].t_start == heights[i - 1]
            assert window[2].k == 3 and window[2].t_end - window[2].t_start == heights[i - 1]
            checked += 1
    assert checked == 12
    verdict(4, "interval structure", f"{checked} cycles match the analytic pattern exactly")


def test_criterion_5_consumed_equals_built_at_tops():
    system = build_seventeen_ninths(1, cycles=8)
    curves = consumption_curve(system)
    s = system.head_start
    checked = 0
    for side, curve in ((RIGHT, curves.right), (LEFT, curves.left)):
        feet = system.feet(side)
        built = accumulate(system.heights(side))
        for top, foot, tall in zip(top_arrival_times(system, side), feet, built):
            if top > curve.end:
                continue
            assert curve.value_at(top) == foot + tall - s  # exact
            checked += 1
    assert checked >= 15
    verdict(
        5,
        "consumed length at tops",
        f"{checked} top arrivals: side consumption equals gaps+heights-headstart exactly",
    )


def test_criterion_6_normalization_never_increases_consumption():
    rng = random.Random(2026)
    started = time.perf_counter()
    worst_gap = Fraction(0)
    for _ in range(200):
        system = random_rational_system(rng)
        normalized = normalize_doubling(system)
        horizon = 4 * sum(
            system.head_start + sum(g + h for g, h in system.pairs(side))
            for side in (RIGHT, LEFT)
        )
        base = consumption_curve(system, horizon, truncated=True).total
        lowered = consumption_curve(normalized, horizon, truncated=True).total
        times = {t for t, _ in base.points} | {t for t, _ in lowered.points}
        for t in times:
            before = base.value_at(t)
            after = lowered.value_at(t)
            assert after <= before
            worst_gap = max(worst_gap, before - after)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    verdict(
        6,
        "normalization monotone",
        f"200 random systems, B never increased at any breakpoint; {elapsed:.1f}s",
    )


def test_criterion_7_oracle_agreement():
    # head start is 1 in every scene; five cycles of 17/9 at cell 1 span 5.4e9 grid nodes, six cycles
    # over their valid horizon 1.4e12, which are checked at cell 1 alone (835 552 samples)
    scenes = [
        ("flat", build_flat(1), 20, 1 / 8),
        ("single-barrier", build_seventeen_ninths(1, cycles=1), 40, 1 / 8),
        ("17/9 two cycles", build_seventeen_ninths(1, cycles=2), 40, 1 / 8),
        ("17/9 five cycles", build_seventeen_ninths(1, cycles=5), 52191, 1.0),
    ]
    details = []
    for name, system, horizon, cell in scenes:
        exact = consumption_curve(system, horizon, truncated=True)
        deviations = []
        for h in (cell, cell / 2):
            sampled = grid_consumption(system, h, float(horizon))
            result = compare(exact.total, sampled, consumption_tolerance(system, h))
            assert result.passed, f"{name} at cell {h}: deviation {result.max_deviation}"
            deviations.append(result.max_deviation)
        # halving the cell halves the deviation, within factor 1.5
        assert deviations[1] <= 0.75 * deviations[0] + 1e-9
        details.append(f"{name}: {deviations[0]:.3f}->{deviations[1]:.3f}")
    system = build_seventeen_ninths(1, cycles=6)
    horizon = valid_horizon(system)  # 835551
    result = compare(consumption_curve(system, horizon, truncated=True).total,
                     grid_consumption(system, 1.0, float(horizon)), consumption_tolerance(system, 1.0))
    assert result.passed, f"17/9 six cycles at cell 1: deviation {result.max_deviation}"
    details.append(f"17/9 six cycles: {result.max_deviation:.3f} at cell 1")
    verdict(7, "oracle agreement", "; ".join(details))


def test_criterion_8_flat_baseline():
    flat = build_flat(1)
    curves = consumption_curve(flat, 1000)
    for t in (1, 2, Fraction(7, 2), 10, 500, 1000):
        expected = 0 if t <= 1 else 2 * (t - 1)
        assert curves.total.value_at(t) == expected
    report = ratio_maxima(curves.total, 1000)
    assert report.supremum == Fraction(2 * 999, 1000)  # tends to 2 from below
    assert check_speed(flat, 2, horizon=1000).feasible
    low = check_speed(flat, Fraction(19, 10), horizon=100)
    assert not low.feasible and low.earliest_violation == 20
    verdict(
        8,
        "flat baseline",
        "B(t) = 2(t-1) exactly; sup Q = 1.998 at horizon 1000; "
        "v=2 feasible, v=1.9 violated first at t=20",
    )


def test_criterion_9_lower_bound_neighborhood():
    # The universal impossibility bound concerns the supremum over all times.
    # Constructions are checked over their valid horizons; finite random
    # systems over a horizon deep in the trailing-ray regime, where two
    # ground fronts force the ratio toward 2.
    population = []
    flat = build_flat(1)
    report = ratio_maxima(consumption_curve(flat, 100).total, 100)
    population.append(("flat", report.supremum))

    s17 = build_seventeen_ninths(1, cycles=8)
    population.append(("17/9", ratio_report(s17)[1].supremum))

    opt = optimize_beta_delta()
    improved = build_improved(InterlacingParams(beta=opt.beta, delta=opt.delta, cycles=8))
    population.append(("improved", ratio_report(improved)[1].supremum))

    rng = random.Random(99)
    for i in range(40):
        system = random_rational_system(rng, n_min=2, n_max=6)
        tallest = sum(max(system.heights(side)) for side in (RIGHT, LEFT))
        last_top = max(top_arrival_times(system, side)[-1] for side in (RIGHT, LEFT))
        horizon = max(30 * (tallest + system.head_start), 3 * last_top)
        curves = consumption_curve(system, horizon, truncated=True)
        report = ratio_maxima(curves.total, horizon)
        population.append((f"random-{i}", report.supremum))

    for name, sup in population:
        assert sup > Fraction(166, 100), f"counterexample candidate: {name} has sup Q = {sup}"
    lowest = min(float(s) for _, s in population)
    verdict(
        9,
        "lower-bound neighborhood",
        f"{len(population)} systems all exceed 1.66 (smallest sup {lowest:.4f})",
    )
