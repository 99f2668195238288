"""Closed-form consumption ratios of the interlacing schemes and their minimization.

All arithmetic here is floating point; exactness claims belong to the
rational simulation pipeline.
"""

from __future__ import annotations

import math
from typing import NamedTuple

INV_PHI = (math.sqrt(5) - 1) / 2
INV_PHI_SQ = (3 - math.sqrt(5)) / 2


class Optimum(NamedTuple):
    beta: float
    v: float
    delta: float | None = None
    achieved_maxima: tuple = ()
    iterations: int = 0


def cycle_ratio(beta):
    """Steady-cycle consumption ratio of the unshifted scheme with growth factor beta.

    ((beta - 2) + 2*beta^2) / ((beta - 2) + beta^2); defined for beta > 2 so
    the spare gap (beta - 2) * height stays positive.
    """
    if beta <= 2:
        raise ValueError(f"growth factor must be > 2, got {beta}")
    excess = beta - 2
    return (excess + 2 * beta * beta) / (excess + beta * beta)


def delta_of_beta(beta: float) -> float:
    """Shift factor equalizing the two ratio forms of the shifted scheme (``interlaced_maxima``)."""
    disc = beta**4 - 2 * beta**3 + 5 * beta**2 + 4 * beta - 12
    if disc < 0:
        raise ValueError(f"no real shift equalizes the maxima at beta={beta}")
    return 0.5 * (beta - beta * beta + math.sqrt(disc))


def interlaced_maxima(beta: float, delta: float) -> tuple:
    """The shifted scheme's two ratio forms: its first maximum (delta + 3)/(delta + 1), which is attained, and
    2 + (2 - beta)/(beta^2 - 1 + delta), the supremum that one family of later maxima climbs toward and no finite
    truncation reaches.  The second form's denominator must not vanish.
    """
    first = (delta + 3) / (delta + 1)
    denom = beta * beta - 1 + delta
    if denom == 0:
        raise ValueError(f"pole at beta={beta}, delta={delta}")
    second = 2 + (2 - beta) / denom
    return first, second


def golden_section_min(f, a: float, b: float):
    """Golden-section search for the minimum of a unimodal f on [a, b], a < b.

    Returns (argmin, f(argmin), iterations) with the bracket narrowed to 1e-9.
    """
    h = b - a
    c = a + INV_PHI_SQ * h
    d = a + INV_PHI * h
    yc, yd = f(c), f(d)
    n = math.ceil(math.log(1e-9 / h) / math.log(INV_PHI))
    for _ in range(n):
        if yc < yd:
            b, d, yd = d, c, yc
            h = INV_PHI * h
            c = a + INV_PHI_SQ * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = INV_PHI * h
            d = a + INV_PHI * h
            yd = f(d)
    x = c if yc < yd else d
    return x, min(yc, yd), n


def optimize_beta() -> Optimum:
    """Unshifted optimum: d/dbeta cycle_ratio is beta (beta - 4) over a square, so beta = 4, v = 17/9."""
    v = cycle_ratio(4.0)
    return Optimum(beta=4.0, v=v, achieved_maxima=(v,))


def equalized_ratio(beta: float) -> float:
    """Value of both maxima of the shifted scheme once the shift equalizes them."""
    first, _ = interlaced_maxima(beta, delta_of_beta(beta))
    return first


def optimal_beta_closed_form() -> float:
    root6 = math.sqrt(6.0)
    return (
        1.5
        + (513 - 114 * root6) ** (1 / 3) / 6
        + (19 * (9 + 2 * root6)) ** (1 / 3) / (2 * 3 ** (2 / 3))
    )


def optimal_speed_closed_form() -> float:
    root6 = math.sqrt(6.0)
    return (
        10
        - 19 ** (2 / 3) / (2 * (4 + 3 * root6)) ** (1 / 3)
        + (19 * (4 + 3 * root6)) ** (1 / 3) / 2 ** (2 / 3)
    ) / 6


def optimize_beta_delta() -> Optimum:
    """Minimize the equalized ratio over its one valley in [2.5, 10]; cross-check the radical forms."""
    beta, v, iterations = golden_section_min(equalized_ratio, 2.5, 10.0)
    delta = delta_of_beta(beta)
    maxima = interlaced_maxima(beta, delta)
    beta_closed = optimal_beta_closed_form()
    v_closed = optimal_speed_closed_form()
    if abs(beta - beta_closed) > 1e-6 or abs(v - v_closed) > 1e-6:
        raise AssertionError(
            f"search optimum (beta={beta}, v={v}) disagrees with the closed forms "
            f"(beta={beta_closed}, v={v_closed})"
        )
    return Optimum(beta=beta, delta=delta, v=v, achieved_maxima=maxima, iterations=iterations)


def optimum_to_document(opt: Optimum) -> dict:
    return {
        "beta": opt.beta,
        "delta": opt.delta,
        "v": opt.v,
        "maxima": list(opt.achieved_maxima),
        "iterations": opt.iterations,
    }
