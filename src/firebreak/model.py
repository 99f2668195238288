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

All types are immutable ``NamedTuple`` records and all operations are pure
functions.  This base module imports no other ``firebreak`` module; its
``_on_one_scale`` makes the int lattice that ``normalize_doubling``,
``geodesic``, ``simulate`` and ``oracle`` run rational numbers on, and its
``_verticals`` is the clearance/top recurrence of ``geodesic`` and ``simulate``.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain
from typing import NamedTuple, Sequence, Union

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


def int_digit_limit() -> int:
    """``sys.get_int_max_str_digits()``, the most digits ``int`` and ``str`` convert; 0, no limit, before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _whole(value, name: str, error=ValueError) -> int:
    """``value`` as ``operator.index`` reads it; a bool, or a value it refuses, is refused by ``name``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise error(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _shown(value) -> str:
    """``value`` as a refusal prints it: ``str``, or ``approx`` for an int or Fraction past ``int_digit_limit()``."""
    try:
        return str(value)
    except ValueError:
        return approx(value)


def _positive(value, mode: str, name: str, error=ValueError) -> Number:
    """``value`` as ``coerce_length`` reads it in ``mode``; its refusal, or one of a value <= 0, names ``name``."""
    try:
        value = coerce_length(value, mode)
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from exc
    if value <= 0:
        raise error(f"{name} must be > 0, got {_shown(value)}")
    return value


def coerce_length(value, mode: str) -> Number:
    """Coerce ``value`` to the numeric type of ``mode``.

    Rational mode accepts ints, Fractions and strings ("p/q", "17", "7.5");
    floats are rejected as lossy.  Float mode takes what float() does but a
    bool, and a "p/q" string, which it reads exactly and rounds once.

    A Fraction is returned as it is, and "p" or "p/q" in ASCII digits (tested
    as bytes, with no Unicode lookup), the form documents write, is read with
    ``int``, or refused, shortened, when a part passes ``int_digit_limit()``;
    any other string goes through ``Fraction(str)``, with the same result,
    unless its exponent would build a power of ten longer than that limit.
    """
    if type(value) is Fraction and mode == RATIONAL:
        return value
    if isinstance(value, bool):
        raise ValidationError(f"not a length: {value!r}")
    if mode == RATIONAL:
        if isinstance(value, str):  # first: documents give strings, and Fraction's isinstance is an ABC check
            num, slash, den = value.partition("/")
            try:
                if num.isascii() and num.encode().isdigit():
                    if not slash:
                        return Fraction(int(num))
                    if den.isascii() and den.encode().isdigit():
                        return Fraction(int(num), int(den))
                # Fraction(str) builds the power of ten in full: 1e999999999 would take hours
                _, e, exponent = value.lower().rpartition("e")
                limit = int_digit_limit()
                if slash or not (e and limit) or abs(int(exponent)) < limit:
                    return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                digits = max(len(num), len(den)) if value.isascii() and value.replace("/", "", 1).isdigit() else 0
                if 0 < (limit := int_digit_limit()) < digits:  # int refused the digits: say why, not all of them
                    raise ValidationError(f"cannot parse rational {value[:5] + '…' + value[-5:]!r} ({digits} digits): "
                                          f"more digits than the limit of {limit} (sys.get_int_max_str_digits())") from exc
                raise ValidationError(f"cannot parse rational {value!r}") from exc
            raise ValidationError(
                f"cannot parse rational {value!r}: its power of ten has more digits than "
                f"the limit of {limit} (sys.get_int_max_str_digits())"
            )
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
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


class BarrierSystem(namedtuple("BarrierSystem", "mode head_start right left")):
    """Immutable description of a barrier system.

    ``right`` and ``left`` hold (gap, height) pairs; all numbers share the
    numeric type implied by ``mode``.  Gaps and heights must be positive and
    ``head_start`` nonnegative; zero-height verticals are rejected rather
    than ignored.  Every way of building one validates: the constructor,
    ``_make``, ``_replace`` and unpickling.
    """

    __slots__ = ()

    def __new__(cls, mode: str, head_start: Number, right: tuple, left: tuple):
        """Coerce every length to the mode's type; the only place a system length is coerced."""
        if mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
        try:
            head_start = coerce_length(head_start, mode)
        except ValidationError as exc:
            raise ValidationError(f"head_start: {exc}") from exc
        rational = mode == RATIONAL  # a Fraction's sign is its numerator's: an int test, not Fraction.__le__
        if (head_start.numerator if rational else head_start) < 0:
            raise ValidationError(f"head_start must be >= 0, got {_shown(head_start)}")
        sides = []
        for name, pairs in zip(SIDES, (right, left)):
            fixed = []
            for i, pair in enumerate(pairs, start=1):
                try:
                    gap, height = pair
                except (TypeError, ValueError) as exc:
                    raise ValidationError(f"{name}[{i}] is not a (gap, height) pair") from exc
                try:
                    gap, height = coerce_length(gap, mode), coerce_length(height, mode)
                except ValidationError as exc:  # labels only on failure: this loop is hot at 512 cycles
                    raise ValidationError(f"{name}[{i}]: {exc}") from exc
                if (gap.numerator if rational else gap) <= 0:
                    raise ValidationError(f"{name}[{i}] gap must be > 0, got {_shown(gap)}")
                if (height.numerator if rational else height) <= 0:
                    raise ValidationError(f"{name}[{i}] height must be > 0, got {_shown(height)}")
                fixed.append((gap, height))
            sides.append(tuple(fixed))
        return super().__new__(cls, mode, head_start, *sides)

    @classmethod
    def _make(cls, iterable):
        """Build through ``__new__``, so ``_make`` and ``_replace`` validate too."""
        return cls(*iterable)

    def __reduce__(self):  # pickle protocols 0 and 1 would call tuple.__new__ directly
        return type(self), tuple(self)

    # -- structural accessors -------------------------------------------------

    def pairs(self, side: str) -> tuple:
        if side not in SIDES:
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        return self.right if side == RIGHT else self.left

    def heights(self, side: str) -> tuple:
        return tuple(h for _, h in self.pairs(side))

    def feet(self, side: str) -> tuple:
        """Positions of the vertical-barrier feet (prefix sums of the gaps)."""
        return tuple(accumulate(g for g, _ in self.pairs(side)))

    @property
    def zero(self) -> Number:
        return Fraction(0) if self.mode == RATIONAL else 0.0

    def number(self, value) -> Number:
        """Coerce a user-supplied scalar to this system's numeric type."""
        return coerce_length(value, self.mode)


class SideCheck(NamedTuple):
    """Doubling / growth-condition status of one side."""

    doubling: bool
    conditions7: bool
    doubling_violation: int | None = None    # 1-based barrier index
    conditions7_violation: int | None = None


class ValidationReport(NamedTuple):
    right: SideCheck
    left: SideCheck


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
    for i, (gap, height) in enumerate(pairs):
        pos = pos + gap
        if pos > head_start:  # the first foot past it: the feet of the survivors are preserved
            return pairs if i == 0 else [(head_start, pairs[i - 1][1]), (pos - head_start, height), *pairs[i + 1:]]
    return [(head_start, pairs[-1][1])] if pairs else pairs


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
    at every time.  A rational system runs on its lattice: a length that
    comes out unchanged keeps its Fraction, and each new gap is one Fraction.
    """
    scale, head, sides = None, system.head_start, (system.right, system.left)
    if system.mode == RATIONAL:
        scale, (*sides, [(head, _)]) = _on_one_scale(*sides, [(head, 0)])
        known = dict(zip(chain.from_iterable(chain(*sides)), chain.from_iterable(chain(system.right, system.left))))
    sides = [_enforce_doubling(_merge_head_start(_drop_non_increasing(list(pairs)), head)) for pairs in sides]
    if scale:
        sides = [[tuple(known[n] if n in known else Fraction(n, scale) for n in pair) for pair in pairs]
                 for pairs in sides]
    return BarrierSystem(system.mode, system.head_start, *map(tuple, sides))


def _on_one_scale(*curves):
    """Point lists as int pairs over the LCM of all their denominators, and that LCM.

    Ints, Fractions and floats all read exactly through ``as_integer_ratio``."""
    ratios = [[(t.as_integer_ratio(), v.as_integer_ratio()) for t, v in points] for points in curves]
    scale = math.lcm(*(den for points in ratios for (_, dt), (_, dv) in points for den in (dt, dv)))
    if scale == 1:  # every coordinate is whole: its numerator as it is
        return scale, [[(nt, nv) for (nt, _), (nv, _) in points] for points in ratios]
    return scale, [[(nt * (scale // dt), nv * (scale // dv)) for (nt, dt), (nv, dv) in points] for points in ratios]


def _verticals(pairs, zero):
    """One side's clearance/top-arrival recurrence, on Fractions, floats or lattice ints.

    Yields ``(previous foot, foot, height, clearance, top)`` per vertical:
    the front meets its near face at the clearance, the tallest height
    before it, and reaches its top at ``top``.  A last entry ``(last foot,
    None, None, clearance, None)`` stands for the trailing ray.
    """
    pos = clearance = zero
    for gap, height in pairs:
        foot = pos + gap
        top = foot + 2 * clearance - height if clearance >= height else foot + height
        yield pos, foot, height, clearance, top
        pos = foot
        clearance = clearance if clearance > height else height
    yield pos, None, None, clearance, None


def scale(system: BarrierSystem, factor) -> BarrierSystem:
    """Multiply every length, including the head start, by ``factor`` > 0."""
    factor = _positive(factor, system.mode, "scale factor", ValidationError)
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
    # floor(log10 x) within one, with no str of an int past int_digit_limit(); then made exact
    exp = math.floor(math.log10(x.numerator) - math.log10(x.denominator)) + 1
    while x < Fraction(10) ** exp:
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
    """The interchange dict: the parsed ``dumps`` text (rationals as 'n/d' strings)."""
    return json.loads(dumps(system))


def _parse_side(entries, gap: str, height: str, side: str) -> tuple:
    """The raw (gap, height) values of one side; ``BarrierSystem`` coerces them."""
    if not isinstance(entries, list):
        raise DocumentError(f"field {side!r} must be a list")
    pairs = []
    for i, entry in enumerate(entries, start=1):
        # membership first: a defaultdict missing a key is refused, not read as its default
        if not isinstance(entry, dict) or gap not in entry or height not in entry:
            raise DocumentError(f"{side}[{i}] must be an object with keys {(gap, height)}")
        pairs.append((entry[gap], entry[height]))
    return tuple(pairs)


def from_document(document: dict) -> BarrierSystem:
    """Parse the interchange dict back into a system (bit-exact in rational mode)."""
    if not isinstance(document, dict):
        raise DocumentError("document must be an object")
    for field in ("mode", "head_start", "right", "left"):
        if field not in document:
            raise DocumentError(f"document missing field {field!r}")
    right = _parse_side(document["right"], "a", "b", "right")
    left = _parse_side(document["left"], "c", "d", "left")
    try:
        return BarrierSystem(mode=document["mode"], head_start=document["head_start"], right=right, left=left)
    except ValidationError as exc:
        raise DocumentError(str(exc)) from exc


def dumps(system: BarrierSystem) -> str:
    """The system document's one writer (``to_document`` parses it), laid out as ``json.dumps(..., indent=2)``
    plus a newline; each number is written with ``str``, a rational one as the string 'n' or 'n/d'."""
    q = '"' if system.mode == RATIONAL else ""  # json writes a float as float.__repr__, which is also its str

    def side(pairs, a, b):
        entries = ",\n".join(f'    {{\n      "{a}": {q}{g!s}{q},\n      "{b}": {q}{h!s}{q}\n    }}' for g, h in pairs)
        return f"[\n{entries}\n  ]" if pairs else "[]"

    return (f'{{\n  "mode": "{system.mode}",\n  "head_start": {q}{system.head_start!s}{q},\n'
            f'  "right": {side(system.right, "a", "b")},\n  "left": {side(system.left, "c", "d")}\n}}\n')


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
