"""Shared fixtures and random-system helpers for the test suite."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from firebreak import (
    RATIONAL,
    BarrierSystem,
    InterlacingParams,
    build_improved,
    build_seventeen_ninths,
    consumption_curve,
    optimize_beta_delta,
)


@pytest.fixture(scope="session")
def sys17():
    return build_seventeen_ninths(1, cycles=8)


@pytest.fixture(scope="session")
def sys17_curves(sys17):
    return consumption_curve(sys17)


@pytest.fixture()
def digit_limit():
    """Python's default limit on the digits ``str`` writes for an int, in force for one test."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)


@pytest.fixture(scope="session")
def optimum():
    return optimize_beta_delta()


@pytest.fixture(scope="session")
def improved(optimum):
    return build_improved(
        InterlacingParams(beta=optimum.beta, delta=optimum.delta, cycles=8)
    )


def random_rational_system(
    rng: random.Random,
    n_min: int = 5,
    n_max: int = 10,
    inject_violations: bool = True,
) -> BarrierSystem:
    """Random exact-rational system with lengths in [0.1, 100].

    With ``inject_violations`` a few heights are forced to at most twice
    their predecessor so the doubling property fails somewhere.
    """

    def length() -> Fraction:
        return Fraction(rng.randint(1, 1000), 10)

    def side() -> tuple:
        n = rng.randint(n_min, n_max)
        pairs = [[length(), length()] for _ in range(n)]
        if inject_violations and n >= 2:
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(1, n - 1)
                factor = Fraction(rng.randint(1, 20), 10)  # <= 2x the predecessor
                pairs[k][1] = max(Fraction(1, 10), pairs[k - 1][1] * factor)
        return tuple(tuple(p) for p in pairs)

    return BarrierSystem(
        mode=RATIONAL,
        head_start=Fraction(rng.randint(1, 50), 10),
        right=side(),
        left=side(),
    )


def random_conforming_system(rng: random.Random, cycles: int = 7) -> BarrierSystem:
    """Random system satisfying the growth conditions on both sides.

    The head start stays within the first gap, as in the explicit
    constructions; otherwise it would stretch the first counted 0-interval.
    """
    head = Fraction(rng.randint(1, 20), 10)

    def side() -> tuple:
        h = Fraction(rng.randint(5, 30), 10)
        gap = head + Fraction(rng.randint(0, 20), 10)
        pairs = [(gap, h)]
        for _ in range(cycles - 1):
            gap = h * Fraction(rng.randint(10, 80), 10)      # >= previous height
            h = h * Fraction(rng.randint(21, 60), 10)        # > 2x previous height
            pairs.append((gap, h))
        return tuple(pairs)

    return BarrierSystem(mode=RATIONAL, head_start=head, right=side(), left=side())
