"""Barrier systems: data model, validation, normalization, scaling, documents.

A barrier system is an infinite horizontal barrier along the x-axis plus
vertical delaying segments attached to it.  The right side is a sequence of
(gap, height) pairs: gap_i is the stretch of horizontal barrier between the
feet of consecutive verticals, height_i the length of the i-th vertical.
The left side is described the same way with its own pairs.  A pre-built
"head start" of length ``head_start`` extends symmetrically on both sides of
the origin; consumed-length accounting excludes it.  A trailing horizontal
ray follows the last pair on each side, so the horizontal barrier is
conceptually infinite.

Two numeric modes:

* ``"rational"`` -- every length is a :class:`fractions.Fraction`; all
  downstream computation stays exact.
* ``"float"`` -- binary floats; downstream comparisons use small relative
  tolerances.

All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Number = Union[Fraction, float]

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)

RIGHT = "right"
LEFT = "left"
SIDES = (RIGHT, LEFT)


class ValidationError(ValueError):
    """A barrier system (or an operand) violates a structural requirement."""


class DocumentError(ValueError):
    """A barrier-system document is malformed or cannot be read losslessly."""


def coerce_length(value, mode: str) -> Number:
    """Coerce ``value`` to the numeric type of ``mode``.

    Rational mode accepts ints, Fractions and strings ("p/q", "17", "7.5");
    floats are rejected as lossy.  Float mode accepts anything float() takes,
    and a "p/q" string, which it reads exactly and rounds once.
    """
    if mode == RATIONAL:
        if isinstance(value, bool):
            raise ValidationError(f"not a length: {value!r}")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"cannot parse rational {value!r}") from exc
        if isinstance(value, float):
            raise ValidationError(
                f"float {value!r} not accepted in rational mode (lossy); "
                "pass an int, Fraction or 'p/q' string"
            )
        raise ValidationError(f"cannot coerce {value!r} to a rational length")
    if mode == FLOAT:
        if isinstance(value, str) and "/" in value:
            value = coerce_length(value, RATIONAL)
        try:
            result = float(value)
        except OverflowError as exc:
            raise ValidationError(f"cannot coerce {approx(value)} to float") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"cannot coerce {value!r} to float") from exc
        if not math.isfinite(result):
            raise ValidationError(f"non-finite length {value!r}")
        return result
    raise ValidationError(f"unknown numeric mode {mode!r}")


@dataclass(frozen=True)
class BarrierSystem:
    """Immutable description of a barrier system.

    ``right`` and ``left`` hold (gap, height) pairs; all numbers share the
    numeric type implied by ``mode``.  Gaps and heights must be positive and
    ``head_start`` nonnegative; zero-height verticals are rejected rather
    than ignored.
    """

    mode: str
    head_start: Number
    right: tuple
    left: tuple

    def __post_init__(self):
        """Coerce every length to the mode's type; the only place a system length is coerced."""
        mode = self.mode
        if mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
        try:
            head_start = coerce_length(self.head_start, mode)
        except ValidationError as exc:
            raise ValidationError(f"head_start: {exc}") from exc
        if head_start < 0:
            raise ValidationError(f"head_start must be >= 0, got {head_start}")
        object.__setattr__(self, "head_start", head_start)
        for name in SIDES:
            fixed = []
            for i, pair in enumerate(getattr(self, name), start=1):
                try:
                    gap, height = pair
                except (TypeError, ValueError) as exc:
                    raise ValidationError(f"{name}[{i}] is not a (gap, height) pair") from exc
                try:
                    gap, height = coerce_length(gap, mode), coerce_length(height, mode)
                except ValidationError as exc:  # labels only on failure: this loop is hot at 512 cycles
                    raise ValidationError(f"{name}[{i}]: {exc}") from exc
                if gap <= 0:
                    raise ValidationError(f"{name}[{i}] gap must be > 0, got {gap}")
                if height <= 0:
                    raise ValidationError(f"{name}[{i}] height must be > 0, got {height}")
                fixed.append((gap, height))
            object.__setattr__(self, name, tuple(fixed))

    # -- structural accessors -------------------------------------------------

    def pairs(self, side: str) -> tuple:
        if side not in SIDES:
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        return self.right if side == RIGHT else self.left

    def heights(self, side: str) -> tuple:
        return tuple(h for _, h in self.pairs(side))

    def feet(self, side: str) -> tuple:
        """Positions of the vertical-barrier feet (prefix sums of the gaps)."""
        out, pos = [], self.zero
        for g, _ in self.pairs(side):
            pos = pos + g
            out.append(pos)
        return tuple(out)

    @property
    def zero(self) -> Number:
        return Fraction(0) if self.mode == RATIONAL else 0.0

    def number(self, value) -> Number:
        """Coerce a user-supplied scalar to this system's numeric type."""
        return coerce_length(value, self.mode)


@dataclass(frozen=True)
class SideCheck:
    """Doubling / growth-condition status of one side."""

    doubling: bool
    conditions7: bool
    doubling_violation: int | None = None    # 1-based barrier index
    conditions7_violation: int | None = None

    @property
    def ok(self) -> bool:
        return self.doubling and self.conditions7


@dataclass(frozen=True)
class ValidationReport:
    right: SideCheck
    left: SideCheck

    @property
    def all_ok(self) -> bool:
        return self.right.ok and self.left.ok


def _check_side(pairs: Sequence[tuple]) -> SideCheck:
    doubling, conditions7 = True, True
    doubling_at = conditions7_at = None
    for i in range(1, len(pairs)):
        gap, height = pairs[i]
        prev_height = pairs[i - 1][1]
        if doubling and not (height > 2 * prev_height):
            doubling, doubling_at = False, i + 1
        # growth conditions: gap_{i+1} >= height_i and height_{i+1} >= 2 height_i
        if conditions7 and not (gap >= prev_height and height >= 2 * prev_height):
            conditions7, conditions7_at = False, i + 1
        if not doubling and not conditions7:
            break
    return SideCheck(doubling, conditions7, doubling_at, conditions7_at)


def validate(system: BarrierSystem) -> ValidationReport:
    """Report doubling and growth-condition status per side.

    Doubling means each vertical is more than twice as long as its
    predecessor on the same side.  The growth conditions additionally
    require each gap to be at least the previous height (with >= 2x height
    growth instead of strictly more than 2x).  Positivity needs no report:
    ``BarrierSystem`` rejects non-positive lengths.
    """
    return ValidationReport(right=_check_side(system.right), left=_check_side(system.left))


# -- doubling normalization -----------------------------------------------------


def _drop_non_increasing(pairs: list) -> list:
    """Remove verticals not strictly taller than everything before them.

    Such a vertical delays nothing (arrival times elsewhere depend only on
    the running maximum height), so deleting it and folding its gap into the
    next one lowers consumption pointwise.
    """
    out: list = []
    pending = 0
    tallest = 0
    for gap, height in pairs:
        gap = pending + gap
        if height > tallest:
            out.append((gap, height))
            tallest = height
            pending = 0
        else:
            pending = gap  # barrier dropped; its gap extends to the next one
    return out


def _merge_head_start(pairs: list, head_start) -> list:
    """Merge verticals whose feet lie within the head start into one at its end."""
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


def _enforce_doubling(pairs: list) -> list:
    """Remove doubling violators, growing the following gap by twice the excess."""
    pairs = list(pairs)
    i = 1
    while i < len(pairs):
        gap, height = pairs[i]
        prev_height = pairs[i - 1][1]
        if height > 2 * prev_height:
            i += 1
            continue
        if i == len(pairs) - 1:
            # a last violating vertical is simply deleted; the trailing ray follows
            pairs.pop()
            continue
        delta = height - prev_height  # > 0: non-increasing heights were dropped before
        next_gap, next_height = pairs[i + 1]
        pairs[i + 1] = (gap + next_gap + 2 * delta, next_height)
        pairs.pop(i)
    return pairs


def normalize_doubling(system: BarrierSystem) -> BarrierSystem:
    """Transform a system so each vertical is more than twice its predecessor.

    Per side: verticals not strictly taller than the running maximum are
    deleted (they delay nothing), verticals whose feet lie within the head
    start are merged into one at its end, and remaining doubling violators
    are removed with the following gap grown by twice the height excess over
    the predecessor.  The output consumes pointwise no more than the input
    at every time.
    """
    sides = {}
    for name in SIDES:
        pairs = _drop_non_increasing(list(system.pairs(name)))
        pairs = _merge_head_start(pairs, system.head_start)
        pairs = _enforce_doubling(pairs)
        sides[name] = tuple(pairs)
    return BarrierSystem(
        mode=system.mode,
        head_start=system.head_start,
        right=sides[RIGHT],
        left=sides[LEFT],
    )


def scale(system: BarrierSystem, factor) -> BarrierSystem:
    """Multiply every length, including the head start, by ``factor`` > 0."""
    factor = coerce_length(factor, system.mode)
    if factor <= 0:
        raise ValidationError(f"scale factor must be > 0, got {factor}")
    return BarrierSystem(
        mode=system.mode,
        head_start=system.head_start * factor,
        right=tuple((g * factor, h * factor) for g, h in system.right),
        left=tuple((g * factor, h * factor) for g, h in system.left),
    )


# -- documents -----------------------------------------------------------------


def render_number(value: Number | None, mode: str):
    """A number as documents write it: ``str`` ('n' or 'n/d') in rational mode, else a float; None stays None."""
    if value is None:
        return None
    return str(value) if mode == RATIONAL else float(value)


def approx(x) -> str:
    """``x`` as ``%g`` prints it, also past the float range (``1.23457e+400``).

    A float prints as it is; any other number is rounded exactly to six
    significant digits, ties to even, without going through float.
    """
    if isinstance(x, float):
        return f"{x:g}"
    if not x:
        return "0"
    sign, x = "-" if x < 0 else "", abs(Fraction(x))
    exp = len(str(x.numerator)) - len(str(x.denominator))  # floor(log10 x) or one more
    if x < Fraction(10) ** exp:
        exp -= 1
    digits = round(x / Fraction(10) ** (exp - 5))
    if digits == 10**6:
        digits, exp = 10**5, exp + 1
    text = str(digits)
    if -4 <= exp < 6:
        text = "0" * -exp + text if exp < 0 else text
        point = max(exp, 0) + 1
        return sign + (text[:point] + "." + text[point:]).rstrip("0").rstrip(".")
    return f"{sign}{(text[0] + '.' + text[1:]).rstrip('0').rstrip('.')}e{exp:+03d}"


def to_document(system: BarrierSystem) -> dict:
    """Serialize to the interchange dict (rationals as 'p/q' strings)."""
    return {
        "mode": system.mode,
        "head_start": render_number(system.head_start, system.mode),
        "right": [
            {"a": render_number(g, system.mode), "b": render_number(h, system.mode)}
            for g, h in system.right
        ],
        "left": [
            {"c": render_number(g, system.mode), "d": render_number(h, system.mode)}
            for g, h in system.left
        ],
    }


def _parse_side(entries, keys: tuple, side: str) -> tuple:
    """The raw (gap, height) values of one side; ``BarrierSystem`` coerces them."""
    if not isinstance(entries, list):
        raise DocumentError(f"field {side!r} must be a list")
    pairs = []
    for i, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict) or not all(k in entry for k in keys):
            raise DocumentError(f"{side}[{i}] must be an object with keys {keys}")
        pairs.append(tuple(entry[k] for k in keys))
    return tuple(pairs)


def from_document(document: dict) -> BarrierSystem:
    """Parse the interchange dict back into a system (bit-exact in rational mode)."""
    if not isinstance(document, dict):
        raise DocumentError("document must be an object")
    for field in ("mode", "head_start", "right", "left"):
        if field not in document:
            raise DocumentError(f"document missing field {field!r}")
    right = _parse_side(document["right"], ("a", "b"), "right")
    left = _parse_side(document["left"], ("c", "d"), "left")
    try:
        return BarrierSystem(mode=document["mode"], head_start=document["head_start"], right=right, left=left)
    except ValidationError as exc:
        raise DocumentError(str(exc)) from exc


def dumps(system: BarrierSystem) -> str:
    return json.dumps(to_document(system), indent=2) + "\n"


def loads(text: str) -> BarrierSystem:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    return from_document(document)


def save(system: BarrierSystem, path) -> None:
    text = dumps(system)  # rendered before the file opens: a failed render leaves no file
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load(path) -> BarrierSystem:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
