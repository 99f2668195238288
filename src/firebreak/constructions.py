"""Generators for the explicit barrier systems and a flat baseline.

Both interlaced constructions alternate the idle stretches of the two sides
so that each side's high-consumption phases fall into the other side's
0-intervals.  Lengths grow geometrically, so ``cycles`` pairs per side span
roughly ``beta^(2*cycles)`` in scale.  ``optimize`` loads only when the
shifted scheme is resolved or built, never for 17/9 or the flat baseline.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import NamedTuple

from .model import FLOAT, RATIONAL, BarrierSystem, ValidationError
from . import model


def build_flat(head_start) -> BarrierSystem:
    """Plain horizontal barrier with no verticals; consumption ratio tends to 2."""
    return BarrierSystem(RATIONAL, model._positive(head_start, RATIONAL, "head start", ValidationError), (), ())


def build_seventeen_ninths(head_start=1, cycles: int = 8) -> BarrierSystem:
    """Rational-mode interlaced system whose ratio maxima all equal 17/9.

    Starting values and recurrences (everything scales with the head start s):

        gaps right:    a_1 = s,   a_2 = 34 s,  a_{i+1} = 7.5 b_i   (i >= 2)
        heights right: b_1 = 17 s,             b_{i+1} = 4 d_i     (i >= 1)
        gaps left:     c_1 = s,   c_2 = 238 s, c_{i+1} = 7.5 d_i   (i >= 2)
        heights left:  d_1 = 34 s,             d_{i+1} = 4 b_{i+1} (i >= 1)

    The recurrence runs on the integer coefficients of s (each b_i and d_i it
    halves is even), and each length is one Fraction, with no gcd for a whole s.
    """
    if (cycles := model._whole(cycles, "cycles")) < 1:
        raise ValueError(f"cycles must be >= 1, got {model._shown(cycles)}")
    s = model._positive(head_start, RATIONAL, "head start", ValidationError)
    a, b, c, d = [1], [17], [1], [34]
    for i in range(1, cycles):
        b.append(4 * d[i - 1])
        d.append(4 * b[i])
        a.append(34 if i == 1 else 15 * b[i - 1] // 2)
        c.append(238 if i == 1 else 15 * d[i - 1] // 2)
    p, q = s.numerator, s.denominator

    def sides(gaps, heights):
        return tuple((Fraction(g * p), Fraction(h * p)) if q == 1 else (Fraction(g * p, q), Fraction(h * p, q))
                     for g, h in zip(gaps, heights))

    return BarrierSystem(mode=RATIONAL, head_start=s, right=sides(a, b), left=sides(c, d))


class InterlacingParams(NamedTuple):
    """Parameters of the shifted interlacing: growth factor, shift, truncation.

    ``beta``/``delta`` default to the optimizer's output; ``head_start``
    is either "auto" (computed so the first ratio maximum already equals the
    target speed, with the first height fixed to 1) or an explicit length,
    in which case the auto system is rescaled.
    """

    beta: float | None = None
    delta: float | None = None
    cycles: int = 8
    head_start: object = "auto"

    def resolved(self) -> "InterlacingParams":
        from .optimize import delta_of_beta, optimize_beta_delta

        beta, delta = self.beta, self.delta
        for name, x in (("beta", beta), ("delta", delta)):  # None: the optimum's
            if x is not None and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
                raise ValidationError(f"{name} must be a real number other than a bool, got {x!r}")
        if beta is None:
            opt = optimize_beta_delta()
            beta = opt.beta
            if delta is None:
                delta = opt.delta
        if not 2 < beta < math.inf:  # also refuses nan
            raise ValidationError(f"growth factor must be finite and > 2, got beta={beta}")
        if delta is None:
            try:
                delta = delta_of_beta(beta)
            except OverflowError as exc:  # beta**4 past the float range, from beta ~ 1e77 on
                raise ValidationError(
                    f"growth factor beta={beta} overflows the shift formula; pass the shift as delta (--delta)"
                ) from exc
        if not 0 <= delta < math.inf:
            raise ValidationError(f"shift must be finite and >= 0, got delta={delta}")
        if (cycles := model._whole(self.cycles, "cycles", ValidationError)) < 1:
            raise ValidationError(f"cycles must be >= 1, got {model._shown(cycles)}")
        return InterlacingParams(beta, delta, cycles, self.head_start)


def build_improved(params: InterlacingParams | None = None) -> BarrierSystem:
    """Float-mode shifted interlacing.

    With the first height fixed to 1 and v the first-maximum ratio
    (delta + 3)/(delta + 1), the starting values are

        s   = ((4 beta + 2 delta + 1) - v (2 beta + delta + 1)) / v
        a_1 = c_1 = s
        b_1 = 1                 d_1 = 2
        a_2 = delta + 1         c_2 = 2 beta + 3 delta - 1

    and for i >= 2 (with b_2 = beta d_1, d_2 = beta b_2 from the same rules):

        b_{i+1} = beta d_i      a_{i+1} = (delta - 1) d_{i-1} + (beta + delta) b_i
        d_{i+1} = beta b_{i+1}  c_{i+1} = (delta - 1) b_i + (beta + delta) d_i

    Each gap is pinned by the requirement that the high-consumption burst at
    the next barrier starts exactly one shift unit into the other side's
    idle stretch; the closing gap formulas above are the unique solution.
    With beta > 2 and delta >= 0 every gap is positive: a_{i+1} =
    d_{i-1} (beta^2 + beta delta + delta - 1) > 3 d_{i-1}, and likewise c_{i+1}.
    """
    from .optimize import interlaced_maxima

    params = (params or InterlacingParams()).resolved()
    beta, delta, cycles = params.beta, params.delta, params.cycles
    v = interlaced_maxima(beta, delta)[0]
    s = ((4 * beta + 2 * delta + 1) - v * (2 * beta + delta + 1)) / v
    if s <= 0:
        raise ValidationError(
            f"parameters beta={beta}, delta={delta} give non-positive head start {s}"
        )
    factor = 1.0
    if params.head_start != "auto":
        target = model._positive(params.head_start, FLOAT, "head start", ValidationError)
        if not 0 < (factor := target / s) < math.inf:
            raise ValidationError(f"head start {target} is out of range: head start / s = {target} / {s} "
                                  f"{'overflows' if factor else 'rounds to 0'}")
    a, b, c, d = [s], [1.0], [s], [2.0]
    for i in range(cycles):
        if i:
            b.append(beta * d[i - 1])
            d.append(beta * b[i])
            a.append((delta + 1) if i == 1 else (delta - 1) * d[i - 2] + (beta + delta) * b[i - 1])
            c.append((2 * beta + 3 * delta - 1) if i == 1 else (delta - 1) * b[i - 1] + (beta + delta) * d[i - 1])
        if not all(math.isfinite(x[i] * factor) for x in (a, b, c, d)):
            raise ValidationError(
                f"lengths overflow the float range at cycle {i + 1} "
                f"(beta={beta}, delta={delta}, head start {params.head_start}); "
                + (f"at most {i} cycles build" if i else "no cycle builds at this head start")
            )
    return BarrierSystem(
        mode=FLOAT,
        head_start=s * factor,
        right=tuple((g * factor, h * factor) for g, h in zip(a, b)),
        left=tuple((g * factor, h * factor) for g, h in zip(c, d)),
    )
