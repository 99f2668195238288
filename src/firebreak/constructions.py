"""Generators for the explicit barrier systems and a flat baseline.

Both interlaced constructions alternate the idle stretches of the two sides
so that each side's high-consumption phases fall into the other side's
0-intervals.  Lengths grow geometrically, so ``cycles`` pairs per side span
roughly ``beta^(2*cycles)`` in scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import FLOAT, RATIONAL, BarrierSystem, ValidationError
from .optimize import delta_of_beta, interlaced_maxima, optimize_beta_delta
from . import model


def build_flat(head_start, mode: str = RATIONAL) -> BarrierSystem:
    """Plain horizontal barrier with no verticals; consumption ratio tends to 2."""
    system = BarrierSystem(mode=mode, head_start=head_start, right=(), left=())
    if system.head_start <= 0:
        raise ValidationError("flat baseline needs a positive head start")
    return system


def build_seventeen_ninths(head_start=1, cycles: int = 8) -> BarrierSystem:
    """Rational-mode interlaced system whose ratio maxima all equal 17/9.

    Starting values and recurrences (everything scales with the head start s):

        gaps right:    a_1 = s,   a_2 = 34 s,  a_{i+1} = 7.5 b_i   (i >= 2)
        heights right: b_1 = 17 s,             b_{i+1} = 4 d_i     (i >= 1)
        gaps left:     c_1 = s,   c_2 = 238 s, c_{i+1} = 7.5 d_i   (i >= 2)
        heights left:  d_1 = 34 s,             d_{i+1} = 4 b_{i+1} (i >= 1)
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    s = model.coerce_length(head_start, RATIONAL)
    if s <= 0:
        raise ValidationError(f"head start must be > 0, got {s}")
    a = [s]
    b = [17 * s]
    c = [s]
    d = [34 * s]
    seven_half = Fraction(15, 2)
    for i in range(1, cycles):
        b.append(4 * d[i - 1])
        d.append(4 * b[i])
        a.append(34 * s if i == 1 else seven_half * b[i - 1])
        c.append(238 * s if i == 1 else seven_half * d[i - 1])
    return BarrierSystem(
        mode=RATIONAL,
        head_start=s,
        right=tuple(zip(a, b)),
        left=tuple(zip(c, d)),
    )


@dataclass(frozen=True)
class InterlacingParams:
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
        beta, delta = self.beta, self.delta
        if beta is None:
            opt = optimize_beta_delta()
            beta = opt.beta
            if delta is None:
                delta = opt.delta
        if not 2 < beta < math.inf:  # also refuses nan
            raise ValidationError(f"growth factor must be finite and > 2, got beta={beta}")
        if delta is None:
            delta = delta_of_beta(beta)
        if not 0 <= delta < math.inf:
            raise ValidationError(f"shift must be finite and >= 0, got delta={delta}")
        if self.cycles < 1:
            raise ValidationError(f"cycles must be >= 1, got {self.cycles}")
        return InterlacingParams(beta, delta, self.cycles, self.head_start)


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
    """
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
        target = model.coerce_length(params.head_start, FLOAT)
        if target <= 0:
            raise ValidationError(f"head start must be > 0, got {target}")
        factor = target / s
    a = [s]
    b = [1.0]
    c = [s]
    d = [2.0]
    for i in range(1, cycles):
        b.append(beta * d[i - 1])
        d.append(beta * b[i])
        a.append((delta + 1) if i == 1 else (delta - 1) * d[i - 2] + (beta + delta) * b[i - 1])
        c.append((2 * beta + 3 * delta - 1) if i == 1 else (delta - 1) * b[i - 1] + (beta + delta) * d[i - 1])
        if not all(math.isfinite(x[i] * factor) for x in (a, b, c, d)):
            raise ValidationError(
                f"lengths overflow the float range at cycle {i + 1} "
                f"(beta={beta}, delta={delta}, head start {params.head_start}); "
                f"at most {i} cycles build"
            )
    if min(a) <= 0 or min(c) <= 0:
        raise ValidationError(
            f"parameters beta={beta}, delta={delta} produce non-positive gaps"
        )
    system = BarrierSystem(
        mode=FLOAT,
        head_start=s,
        right=tuple(zip(a, b)),
        left=tuple(zip(c, d)),
    )
    if params.head_start != "auto":
        system = model.scale(system, factor)
    return system
